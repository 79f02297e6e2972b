//! Randomized tests for Phase 3: strategy equivalence and MPAN invariants on
//! randomized databases.
//!
//! For random data over a 3-entity/2-relationship schema and random keyword
//! queries, every traversal strategy must agree exactly with brute force;
//! and every reported MPAN must satisfy the definition directly against the
//! aliveness oracle: it is alive, it is a strict descendant of its dead MTN,
//! no ancestor within the MTN's cone is alive, and every alive descendant of
//! the dead MTN is covered by (is a descendant of) some MPAN.
//!
//! The traversal metrics are cross-checked on the same runs: each strategy's
//! reported `sql_queries` must equal the oracle's own probe counter. An
//! interactive session stepped to completion must match batch SBH in its
//! classification, MPANs, probes executed and R1/R2 inferences.
//!
//! Cases are drawn from a seeded [`SplitMix64`] stream (the registry-free
//! stand-in for proptest), so failures replay deterministically.

use datagen::rng::SplitMix64;
use kwdebug::binding::{map_keywords, KeywordQuery};
use kwdebug::lattice::Lattice;
use kwdebug::oracle::AlivenessOracle;
use kwdebug::prune::PrunedLattice;
use kwdebug::session::DebugSession;
use kwdebug::traversal::{self, StrategyKind};
use kwdebug::SchemaGraph;
use relengine::{DataType, Database, DatabaseBuilder, Value};
use textindex::InvertedIndex;

const WORDS: [&str; 6] = ["amber", "basil", "cedar", "dune", "ember", "fern"];

/// Random store: tag(id, label), item(id, name, tag_id), link(item_a, item_b).
fn build_db(
    tags: &[(i64, u8)],
    items: &[(i64, u8, u8, Option<i64>)],
    links: &[(i64, i64)],
) -> Database {
    let mut b = DatabaseBuilder::new();
    b.table("tag")
        .column("id", DataType::Int)
        .column("label", DataType::Text)
        .primary_key("id");
    b.table("item")
        .column("id", DataType::Int)
        .column("name", DataType::Text)
        .column("tag_id", DataType::Int)
        .primary_key("id");
    b.table("link")
        .column("item_a", DataType::Int)
        .column("item_b", DataType::Int);
    b.foreign_key("item", "tag_id", "tag", "id").expect("static");
    b.foreign_key("link", "item_a", "item", "id").expect("static");
    b.foreign_key("link", "item_b", "item", "id").expect("static");
    let mut db = b.finish().expect("static");
    for (i, (_, w)) in tags.iter().enumerate() {
        db.insert_values(
            "tag",
            vec![Value::Int(i as i64 + 1), Value::text(WORDS[*w as usize % WORDS.len()])],
        )
        .expect("typed");
    }
    for (i, (_, w1, w2, tag)) in items.iter().enumerate() {
        let name = format!(
            "{} {}",
            WORDS[*w1 as usize % WORDS.len()],
            WORDS[*w2 as usize % WORDS.len()]
        );
        let tag_id = tag.map(|t| (t.unsigned_abs() as usize % tags.len().max(1)) as i64 + 1);
        db.insert_values(
            "item",
            vec![
                Value::Int(i as i64 + 1),
                Value::text(name),
                tag_id.filter(|_| !tags.is_empty()).map_or(Value::Null, Value::Int),
            ],
        )
        .expect("typed");
    }
    for (a, b_) in links {
        if items.is_empty() {
            break;
        }
        let n = items.len() as i64;
        db.insert_values(
            "link",
            vec![Value::Int(a.rem_euclid(n) + 1), Value::Int(b_.rem_euclid(n) + 1)],
        )
        .expect("typed");
    }
    db.finalize();
    db
}

/// One random case: tags, items, links, two keywords, and a maxJoins.
#[allow(clippy::type_complexity)]
fn random_case(
    rng: &mut SplitMix64,
) -> (Vec<(i64, u8)>, Vec<(i64, u8, u8, Option<i64>)>, Vec<(i64, i64)>, usize, usize, usize) {
    let tags: Vec<(i64, u8)> = (0..rng.gen_range(1..4usize))
        .map(|_| (rng.gen_range(0i64..6), rng.below(6) as u8))
        .collect();
    let items: Vec<(i64, u8, u8, Option<i64>)> = (0..rng.gen_range(1..8usize))
        .map(|_| {
            (
                rng.gen_range(0i64..8),
                rng.below(6) as u8,
                rng.below(6) as u8,
                rng.gen_ratio(1, 2).then(|| rng.gen_range(0i64..8)),
            )
        })
        .collect();
    let links: Vec<(i64, i64)> = (0..rng.gen_range(0..6usize))
        .map(|_| (rng.gen_range(0i64..8), rng.gen_range(0i64..8)))
        .collect();
    let kw1 = rng.gen_range(0..WORDS.len());
    let kw2 = rng.gen_range(0..WORDS.len());
    let max_joins = rng.gen_range(1..4usize);
    (tags, items, links, kw1, kw2, max_joins)
}

#[test]
fn strategies_agree_and_mpans_satisfy_definition() {
    let mut rng = SplitMix64::seed_from_u64(0x7A01);
    for case in 0..24 {
        let (tags, items, links, kw1, kw2, max_joins) = random_case(&mut rng);
        let db = build_db(&tags, &items, &links);
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, max_joins);
        let index = InvertedIndex::build(&db);
        let text = format!("{} {}", WORDS[kw1], WORDS[kw2]);
        let Ok(query) = KeywordQuery::parse(&text) else { continue };
        let mapping = map_keywords(&query, &index);

        for interp in &mapping.interpretations {
            let pruned = PrunedLattice::build(&lattice, interp);
            let mut oracle =
                AlivenessOracle::new(&db, Some(&index), interp, &mapping.keywords, false);
            let reference =
                traversal::run(StrategyKind::BruteForce, &lattice, &pruned, &mut oracle, 0.5)
                    .expect("brute runs");

            // 1. Strategy equivalence + probe accounting.
            for kind in StrategyKind::ALL {
                let mut oracle =
                    AlivenessOracle::new(&db, Some(&index), interp, &mapping.keywords, false);
                let out = traversal::run(kind, &lattice, &pruned, &mut oracle, 0.5)
                    .expect("strategy runs");
                assert_eq!(&out.alive_mtns, &reference.alive_mtns, "case {case}: {kind}");
                assert_eq!(&out.dead_mtns, &reference.dead_mtns, "case {case}: {kind}");
                assert_eq!(&out.mpans, &reference.mpans, "case {case}: {kind}");
                assert_eq!(
                    out.sql_queries,
                    oracle.queries(),
                    "case {case}: {kind} misreports probes"
                );
            }

            // 2. A session stepped to completion is SBH, one step at a time.
            let mut session = DebugSession::new(&lattice, pruned.clone(), 0.5);
            let mut oracle =
                AlivenessOracle::new(&db, Some(&index), interp, &mapping.keywords, false);
            session.run_to_completion(&mut oracle).expect("session runs");
            let stepped = session.outcome().expect("session completes");
            let mut oracle =
                AlivenessOracle::new(&db, Some(&index), interp, &mapping.keywords, false);
            let sbh = traversal::run(
                StrategyKind::ScoreBasedHeuristic, &lattice, &pruned, &mut oracle, 0.5,
            )
            .expect("SBH runs");
            assert_eq!(stepped.alive_mtns, sbh.alive_mtns, "case {case}: session");
            assert_eq!(stepped.dead_mtns, sbh.dead_mtns, "case {case}: session");
            assert_eq!(stepped.mpans, sbh.mpans, "case {case}: session");
            let (s, b) = (stepped.probes, sbh.probes);
            assert_eq!(
                (s.probes_executed, s.r1_inferences, s.r2_inferences),
                (b.probes_executed, b.r1_inferences, b.r2_inferences),
                "case {case}: session probes and inferences"
            );

            // 3. MPAN definition, checked against the oracle directly.
            let mut truth =
                AlivenessOracle::new(&db, Some(&index), interp, &mapping.keywords, true);
            let mut alive = |dense: usize| {
                truth.is_alive(dense, pruned.jnts(&lattice, dense)).expect("oracle runs")
            };
            for (&m, mpans) in reference.dead_mtns.iter().zip(&reference.mpans) {
                assert!(!alive(m), "case {case}: dead MTN must be dead");
                for &p in mpans {
                    assert!(p != m, "case {case}");
                    assert!(pruned.is_desc_or_self(p, m), "case {case}: MPAN within Desc(m)");
                    assert!(alive(p), "case {case}: MPAN must be alive");
                    // Maximality: no alive strict ancestor within Desc+(m).
                    for &a in pruned.asc_plus(p) {
                        if a != p && pruned.is_desc_or_self(a, m) {
                            assert!(!alive(a), "case {case}: MPAN has alive ancestor");
                        }
                    }
                }
                // Coverage: every alive node in Desc(m) is under some MPAN.
                for &d in pruned.desc_plus(m) {
                    if d == m || !alive(d) {
                        continue;
                    }
                    assert!(
                        mpans.iter().any(|&p| pruned.is_desc_or_self(d, p)),
                        "case {case}: alive descendant not covered by any MPAN"
                    );
                }
            }

            // 4. R1/R2 semantics hold for the query class itself: children of
            // alive nodes are alive.
            for dense in 0..pruned.len() {
                if alive(dense) {
                    for &c in pruned.children(dense) {
                        assert!(alive(c), "case {case}: sub-query of alive node is dead");
                    }
                }
            }
        }
    }
}
