//! Probe accounting: the metrics layer must agree with the engine.
//!
//! Two contracts from the observability layer (`kwdebug::metrics`):
//!
//! 1. **Probes are grounded.** For every traversal strategy, the outcome's
//!    `probes.probes_executed` equals the engine's own executed-query count
//!    (`AlivenessOracle::queries`, i.e. `ExecStats::queries`) and the
//!    outcome's legacy `sql_queries` field. A counter that drifts from the
//!    engine's ground truth would silently invalidate every Figure 11/12
//!    style measurement.
//!
//! 2. **Reuse is real.** On a workload with ≥2 MTNs sharing descendants, the
//!    with-reuse traversals (BUWR/TDWR, §2.5.2) execute *strictly fewer*
//!    probes than their per-MTN counterparts (BU/TD), and the saving shows
//!    up in `reuse_hits`. This is the paper's Figure 13 mechanism in
//!    miniature.
//!
//! 3. **Degraded runs keep the books.** A zero-probe budget yields an
//!    all-Unknown partial outcome with zero probes on both sides of the
//!    ledger, and a deadline tripping mid-traversal (forced by injected
//!    probe latency) still leaves `probes_executed` equal to the engine's
//!    `ExecStats::queries` — failed or refused attempts never count.
//!
//! The fixture is a citation-style schema with two parallel link tables
//! (`pub` and `award`) between `author` and `venue`. Keywords bind to
//! `author.name` and `venue.title`, so the level-3 pruned lattice has
//! exactly two MTNs — author–pub–venue and author–award–venue — whose cones
//! share the level-1 singleton nodes. Both link tables are empty, so every
//! MTN and every level-2 node is dead and each traversal must descend to the
//! shared singletons: BU/TD probe them once per MTN, BUWR/TDWR once total.

use std::time::Duration;

use kwdebug::binding::{map_keywords, KeywordQuery};
use kwdebug::budget::{Exhausted, ProbeBudget};
use kwdebug::lattice::Lattice;
use kwdebug::oracle::AlivenessOracle;
use kwdebug::prune::PrunedLattice;
use kwdebug::traversal::{self, StrategyKind, TraversalOutcome};
use kwdebug::SchemaGraph;
use relengine::{DataType, Database, DatabaseBuilder, FaultConfig, Value};
use textindex::InvertedIndex;

/// author(id, name) ←[pub|award]→ venue(id, title); both link tables empty.
fn two_path_db() -> Database {
    let mut b = DatabaseBuilder::new();
    b.table("author").column("id", DataType::Int).column("name", DataType::Text)
        .primary_key("id");
    b.table("venue").column("id", DataType::Int).column("title", DataType::Text)
        .primary_key("id");
    b.table("pub")
        .column("id", DataType::Int)
        .column("author_id", DataType::Int)
        .column("venue_id", DataType::Int)
        .primary_key("id");
    b.table("award")
        .column("id", DataType::Int)
        .column("author_id", DataType::Int)
        .column("venue_id", DataType::Int)
        .primary_key("id");
    b.foreign_key("pub", "author_id", "author", "id").unwrap();
    b.foreign_key("pub", "venue_id", "venue", "id").unwrap();
    b.foreign_key("award", "author_id", "author", "id").unwrap();
    b.foreign_key("award", "venue_id", "venue", "id").unwrap();
    let mut db = b.finish().unwrap();
    db.insert_values("author", vec![Value::Int(1), Value::text("halevy")]).unwrap();
    db.insert_values("author", vec![Value::Int(2), Value::text("widom")]).unwrap();
    db.insert_values("venue", vec![Value::Int(1), Value::text("sigmod")]).unwrap();
    db.insert_values("venue", vec![Value::Int(2), Value::text("vldb")]).unwrap();
    // No pubs, no awards: `halevy sigmod` is a non-answer on both join paths,
    // while both singleton sub-queries stay alive.
    db.finalize();
    db
}

/// Runs `kind` on the fixture's single interpretation with a fresh oracle,
/// returning the outcome plus the oracle's own executed-query count.
fn run_strategy(kind: StrategyKind) -> (TraversalOutcome, u64, usize) {
    let db = two_path_db();
    let graph = SchemaGraph::new(&db);
    let lattice = Lattice::build(&db, &graph, 2);
    let index = InvertedIndex::build(&db);
    let query = KeywordQuery::parse("halevy sigmod").unwrap();
    let mapping = map_keywords(&query, &index);
    assert_eq!(mapping.interpretations.len(), 1, "keywords bind unambiguously");
    let interp = &mapping.interpretations[0];
    let pruned = PrunedLattice::build(&lattice, interp);
    let mut oracle = AlivenessOracle::new(&db, Some(&index), interp, &mapping.keywords, false);
    let out = traversal::run(kind, &lattice, &pruned, &mut oracle, 0.5).expect("traversal runs");
    (out, oracle.queries(), pruned.stats().mtn_count)
}

/// Contract 1: every strategy's probe counter equals the engine's executed
/// query count and the legacy `sql_queries` field — on a fixed non-answer.
#[test]
fn probe_count_equals_oracle_executions_per_strategy() {
    for kind in StrategyKind::ALL.into_iter().chain([StrategyKind::BruteForce]) {
        let (out, engine_queries, _) = run_strategy(kind);
        assert!(engine_queries > 0, "{kind}: the non-answer requires probing");
        assert_eq!(
            out.probes.probes_executed, engine_queries,
            "{kind}: probes_executed must equal the engine's ExecStats::queries"
        );
        assert_eq!(
            out.probes.probes_executed, out.sql_queries,
            "{kind}: probes_executed must equal the reported sql_queries"
        );
        assert_eq!(out.probes.memo_hits, 0, "{kind}: memoization is off");
    }
}

/// Contract 2: with ≥2 MTNs sharing descendants, reuse strictly saves probes.
#[test]
fn with_reuse_strategies_probe_strictly_less() {
    let (bu, _, mtns) = run_strategy(StrategyKind::BottomUp);
    let (buwr, _, _) = run_strategy(StrategyKind::BottomUpWithReuse);
    let (td, _, _) = run_strategy(StrategyKind::TopDown);
    let (tdwr, _, _) = run_strategy(StrategyKind::TopDownWithReuse);

    assert!(mtns >= 2, "fixture must yield a multi-MTN workload, got {mtns}");
    assert_eq!(bu.alive_mtns.len(), 0, "both candidate networks are dead");
    assert_eq!(bu.dead_mtns.len(), mtns);

    assert!(
        buwr.probes.probes_executed < bu.probes.probes_executed,
        "BUWR ({}) must probe strictly less than BU ({})",
        buwr.probes.probes_executed,
        bu.probes.probes_executed
    );
    assert!(
        tdwr.probes.probes_executed < td.probes.probes_executed,
        "TDWR ({}) must probe strictly less than TD ({})",
        tdwr.probes.probes_executed,
        td.probes.probes_executed
    );
    // BUWR's saving shows up as visit-time skips of already-classified nodes.
    // (TDWR's saving here is structural — its single global sweep visits each
    // node once, so nothing is ever re-visited and skipped.)
    assert!(buwr.probes.reuse_hits > 0, "BUWR must record cross-MTN reuse");

    // All four still agree on the output (answers, non-answers, MPANs).
    for out in [&buwr, &td, &tdwr] {
        assert_eq!(out.alive_mtns, bu.alive_mtns);
        assert_eq!(out.dead_mtns, bu.dead_mtns);
        assert_eq!(out.mpans, bu.mpans);
    }
}

/// Like [`run_strategy`], but with a caller-configured oracle (budget/chaos).
fn run_strategy_with(
    kind: StrategyKind,
    configure: impl FnOnce(AlivenessOracle<'_>) -> AlivenessOracle<'_>,
    check: impl FnOnce(&TraversalOutcome, &AlivenessOracle<'_>, usize),
) {
    let db = two_path_db();
    let graph = SchemaGraph::new(&db);
    let lattice = Lattice::build(&db, &graph, 2);
    let index = InvertedIndex::build(&db);
    let query = KeywordQuery::parse("halevy sigmod").unwrap();
    let mapping = map_keywords(&query, &index);
    let interp = &mapping.interpretations[0];
    let pruned = PrunedLattice::build(&lattice, interp);
    let oracle = AlivenessOracle::new(&db, Some(&index), interp, &mapping.keywords, false);
    let mut oracle = configure(oracle);
    let out = traversal::run(kind, &lattice, &pruned, &mut oracle, 0.5).expect("traversal runs");
    check(&out, &oracle, pruned.stats().mtn_count);
}

/// Contract 3a: a zero-probe budget degrades to an all-Unknown partial
/// outcome — zero probes on both sides of the ledger, every MTN unknown,
/// and the trip recorded exactly once.
#[test]
fn zero_probe_budget_yields_all_unknown_and_zero_probes() {
    for kind in StrategyKind::ALL.into_iter().chain([StrategyKind::BruteForce]) {
        run_strategy_with(
            kind,
            |o| o.with_budget(ProbeBudget::probes(0)),
            |out, oracle, mtns| {
                assert_eq!(out.exhausted, Some(Exhausted::Probes), "{kind}");
                assert_eq!(out.unknown_mtns.len(), mtns, "{kind}: every MTN stays unknown");
                assert!(out.alive_mtns.is_empty() && out.dead_mtns.is_empty(), "{kind}");
                assert_eq!(out.sql_queries, 0, "{kind}: no probe may execute");
                assert_eq!(out.probes.probes_executed, 0, "{kind}");
                assert_eq!(oracle.queries(), 0, "{kind}: engine agrees nothing ran");
                assert_eq!(out.probes.budget_exhausted, 1, "{kind}: trip counted once");
            },
        );
    }
}

/// Contract 3b: a deadline tripping mid-traversal (forced by injected probe
/// latency) still leaves `probes_executed` equal to `ExecStats::queries`,
/// with the partial classification accounted for.
#[test]
fn deadline_mid_traversal_keeps_probe_accounting_grounded() {
    for kind in StrategyKind::ALL.into_iter().chain([StrategyKind::BruteForce]) {
        run_strategy_with(
            kind,
            |o| {
                o.with_budget(ProbeBudget::unlimited().with_deadline(Duration::from_millis(2)))
                    .with_chaos(FaultConfig {
                        seed: 11,
                        transient_per_mille: 0,
                        permanent_per_mille: 0,
                        latency_per_mille: 1000,
                        latency: Duration::from_millis(5),
                        fail_first_transient: 0,
                    })
            },
            |out, oracle, mtns| {
                assert_eq!(out.exhausted, Some(Exhausted::Deadline), "{kind}");
                assert_eq!(out.sql_queries, 1, "{kind}: exactly the first probe runs");
                assert_eq!(
                    out.probes.probes_executed,
                    oracle.queries(),
                    "{kind}: probes_executed must equal ExecStats::queries mid-trip"
                );
                assert_eq!(out.probes.budget_exhausted, 1, "{kind}: trip counted once");
                let classified = out.alive_mtns.len() + out.dead_mtns.len();
                assert_eq!(classified + out.unknown_mtns.len(), mtns, "{kind}: MTN partition");
            },
        );
    }
}

/// FNV-1a, 64-bit: a stable digest of a rendered golden table.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The visit-order lock. Per Table 2 query, each strategy's rendered row
/// holds the counters that depend on which node it probes next —
/// `probes_executed`, `r1_inferences`, `r2_inferences`, `reuse_hits` — and
/// its unknown-MTN count under `ProbeBudget::probes(k)` for k = 1, 2, 3, 5,
/// 8, over DBLife `tiny` with the default report sampling, at maxJoins 3
/// and 4 (at 3 most queries have no MTN, so 4 carries most of the lock).
/// The digests were recorded once; a strategy that reorders its visits
/// moves at least one figure, and the failure message prints its rows.
#[test]
fn visit_order_is_pinned_on_the_table2_workload() {
    use datagen::{generate_dblife, paper_queries, DblifeConfig};
    use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};

    const GOLDEN: [(usize, &str, u64); 12] = [
        (3, "BU", 0x5719_64fa_3f22_a885),
        (3, "BUWR", 0x5719_64fa_3f22_a885),
        (3, "TD", 0x6068_d688_e6f0_c3fa),
        (3, "TDWR", 0x6068_d688_e6f0_c3fa),
        (3, "SBH", 0xf886_8e51_84fa_9561),
        (3, "BRUTE", 0x428e_2ae4_e311_4b65),
        (4, "BU", 0x6972_8ad2_9312_a4ed),
        (4, "BUWR", 0x2465_28cb_673d_26e8),
        (4, "TD", 0x65c7_d7d7_cf8d_2d07),
        (4, "TDWR", 0xc4b0_bac8_0d31_b0af),
        (4, "SBH", 0x3518_2402_9389_bb7b),
        (4, "BRUTE", 0xca0a_8f1b_87d6_3ec9),
    ];
    let db = generate_dblife(&DblifeConfig::tiny());
    let mut failures = Vec::new();
    for max_joins in [3, 4] {
        let config = DebugConfig { max_joins, ..DebugConfig::default() };
        let mut sys = NonAnswerDebugger::new(db.clone(), config).expect("system builds");
        for kind in StrategyKind::ALL.into_iter().chain([StrategyKind::BruteForce]) {
            let mut rows = String::new();
            for q in paper_queries() {
                sys.set_budget(ProbeBudget::unlimited());
                let p = sys.debug_with_strategy(q.text, kind).expect("query runs").probes();
                let unknown: Vec<usize> = [1, 2, 3, 5, 8]
                    .into_iter()
                    .map(|k| {
                        sys.set_budget(ProbeBudget::probes(k));
                        sys.debug_with_strategy(q.text, kind).expect("query runs").unknown_count()
                    })
                    .collect();
                rows.push_str(&format!(
                    "{} [{}, {}, {}, {}] {unknown:?}\n",
                    q.id, p.probes_executed, p.r1_inferences, p.r2_inferences, p.reuse_hits
                ));
            }
            let want = GOLDEN.iter().find(|g| (g.0, g.1) == (max_joins, kind.name()));
            let got = fnv1a(rows.as_bytes());
            if want.map(|g| g.2) != Some(got) {
                failures.push(format!("maxJoins {max_joins} {kind}: digest {got:#018x}\n{rows}"));
            }
        }
    }
    assert!(failures.is_empty(), "visit order moved:\n{}", failures.join("\n"));
}

/// The degraded-mode lock. Under a fixed permanent-fault schedule with no
/// retries, each strategy's rendered row per Table 2 query holds the
/// counters that depend on how it infers around abandoned nodes —
/// `probes_executed`, `r1_inferences`, `r2_inferences`, `reuse_hits`,
/// `probes_abandoned` — then the unknown-MTN count and, per dead MTN, its
/// confirmed and possible MPAN counts, over DBLife `tiny` at maxJoins 4.
/// The digests were recorded once; a strategy that fires a different rule
/// around an abandoned node (say, R1 on an ascending sweep) moves at least
/// one figure, and the failure message prints its rows.
#[test]
fn degraded_inference_is_pinned_on_the_table2_workload() {
    use datagen::{generate_dblife, paper_queries, DblifeConfig};
    use kwdebug::budget::RetryPolicy;
    use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};

    const GOLDEN: [(&str, u64); 6] = [
        ("BU", 0x8551_228f_1b95_5701),
        ("BUWR", 0xb57b_8bbb_9755_829b),
        ("TD", 0xbc52_1890_9b6e_d93f),
        ("TDWR", 0x8fda_46f1_f31d_3e45),
        ("SBH", 0xe375_6870_bf5e_3c4b),
        ("BRUTE", 0x3086_49f4_a73f_c5dc),
    ];
    let config = DebugConfig {
        max_joins: 4,
        retry: RetryPolicy::none(),
        chaos: Some(FaultConfig { permanent_per_mille: 250, ..FaultConfig::quiet(7) }),
        ..DebugConfig::default()
    };
    let sys = NonAnswerDebugger::new(generate_dblife(&DblifeConfig::tiny()), config)
        .expect("system builds");
    let mut failures = Vec::new();
    for kind in StrategyKind::ALL.into_iter().chain([StrategyKind::BruteForce]) {
        let mut rows = String::new();
        for q in paper_queries() {
            let report = sys.debug_with_strategy(q.text, kind).expect("query degrades");
            let p = report.probes();
            let dead: Vec<(usize, usize)> = report
                .interpretations
                .iter()
                .flat_map(|i| &i.non_answers)
                .map(|n| (n.mpans.len(), n.possible_mpans.len()))
                .collect();
            rows.push_str(&format!(
                "{} [{}, {}, {}, {}, {}] {} {dead:?}\n",
                q.id,
                p.probes_executed,
                p.r1_inferences,
                p.r2_inferences,
                p.reuse_hits,
                p.probes_abandoned,
                report.unknown_count()
            ));
        }
        let want = GOLDEN.iter().find(|g| g.0 == kind.name());
        let got = fnv1a(rows.as_bytes());
        if want.map(|g| g.1) != Some(got) {
            failures.push(format!("{kind}: digest {got:#018x}\n{rows}"));
        }
    }
    assert!(failures.is_empty(), "degraded inference moved:\n{}", failures.join("\n"));
}
