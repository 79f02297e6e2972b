//! Differential test: the compact Phase 1–2 substrate against a naive
//! reference implementation.
//!
//! The postings/bitset pipeline of [`kwdebug::prune::PrunedLattice`]
//! (DESIGN.md §9) must be observably identical to the definitional form of
//! Phases 1–2: scan every lattice node, classify it with the §3.2 predicates
//! ([`kwdebug::mtn`]), keep MTNs ∪ descendants, and build the closures by the
//! textbook sort/dedup construction. This suite runs both over seeded toydb
//! and DBLife workloads — every interpretation of every query — and compares
//! node sets, levels, adjacency, both closures, MTN sets, membership tests
//! and all `PruneStats` fields.
//!
//! Besides the paper's workload, a generated sweep draws 1–6-keyword queries
//! from every text table's own vocabulary: many keywords in one table (bound
//! copies past `maxJoins + 1`, which no lattice node can hold), more bound
//! copies than any node holds (`k` above the copy-set index width), and
//! keywords found in several tables (several interpretations per query).

use datagen::rng::SplitMix64;
use datagen::{generate_dblife, paper_queries, product_database, DblifeConfig};
use kwdebug::binding::{map_keywords, Interpretation, KeywordQuery};
use kwdebug::lattice::{Lattice, NodeId};
use kwdebug::mtn::{is_mtn, is_retained, is_total};
use kwdebug::prune::{PruneStats, PrunedLattice};
use kwdebug::workspace::QueryWorkspace;
use kwdebug::SchemaGraph;
use relengine::{Database, Value};
use std::collections::{HashMap, HashSet};
use textindex::{tokenize, InvertedIndex};

/// The definitional Phase 1–2 pipeline, kept deliberately naive: full lattice
/// scan with the `mtn` predicates, hash-set Phase 2, sort/dedup closures.
struct NaivePruned {
    nodes: Vec<NodeId>,
    levels: Vec<u32>,
    children: Vec<Vec<usize>>,
    parents: Vec<Vec<usize>>,
    desc_plus: Vec<Vec<usize>>,
    asc_plus: Vec<Vec<usize>>,
    mtns: Vec<usize>,
    stats: PruneStats,
}

fn naive_build(lattice: &Lattice, interp: &Interpretation) -> NaivePruned {
    let mut stats = PruneStats { lattice_nodes: lattice.node_count(), ..PruneStats::default() };

    let mut mtn_ids: Vec<NodeId> = Vec::new();
    for id in lattice.all_nodes() {
        let jnts = lattice.jnts(id);
        if !is_retained(jnts, interp) {
            continue;
        }
        stats.retained_phase1 += 1;
        if is_total(jnts, interp) {
            stats.total_nodes += 1;
            if is_mtn(jnts, interp) {
                mtn_ids.push(id);
            }
        }
    }
    stats.mtn_count = mtn_ids.len();

    let mut keep: HashSet<NodeId> = HashSet::new();
    let mut stack = mtn_ids.clone();
    while let Some(id) = stack.pop() {
        if !keep.insert(id) {
            continue;
        }
        for &c in lattice.children(id) {
            if !keep.contains(&c) {
                stack.push(c);
            }
        }
    }

    let nodes: Vec<NodeId> = lattice.all_nodes().filter(|id| keep.contains(id)).collect();
    stats.pruned_nodes = nodes.len();
    let dense: HashMap<NodeId, usize> =
        nodes.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let levels: Vec<u32> = nodes.iter().map(|&id| lattice.level_of(id)).collect();

    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut parents: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, &id) in nodes.iter().enumerate() {
        for &c in lattice.children(id) {
            if let Some(&ci) = dense.get(&c) {
                children[i].push(ci);
                parents[ci].push(i);
            }
        }
    }

    let mut desc_plus: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for i in 0..nodes.len() {
        let mut d: Vec<usize> = vec![i];
        for &c in &children[i] {
            d.extend_from_slice(&desc_plus[c]);
        }
        d.sort_unstable();
        d.dedup();
        desc_plus[i] = d;
    }
    let mut asc_plus: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, descs) in desc_plus.iter().enumerate() {
        for &d in descs {
            asc_plus[d].push(i);
        }
    }
    for a in &mut asc_plus {
        a.sort_unstable();
    }

    let mut mtns: Vec<usize> = mtn_ids.iter().map(|id| dense[id]).collect();
    mtns.sort_unstable();
    for &m in &mtns {
        stats.mtn_descendants_total += desc_plus[m].len() - 1;
    }
    let mut uniq: Vec<usize> = mtns
        .iter()
        .flat_map(|&m| desc_plus[m].iter().copied().filter(move |&d| d != m))
        .collect();
    uniq.sort_unstable();
    uniq.dedup();
    stats.mtn_descendants_unique = uniq.len();

    NaivePruned { nodes, levels, children, parents, desc_plus, asc_plus, mtns, stats }
}

fn assert_same(fast: &PrunedLattice, slow: &NaivePruned, ctx: &str) {
    assert_eq!(fast.stats(), &slow.stats, "{ctx}: stats");
    assert_eq!(fast.len(), slow.nodes.len(), "{ctx}: node count");
    assert_eq!(fast.mtns(), slow.mtns.as_slice(), "{ctx}: MTN set");
    for i in 0..fast.len() {
        assert_eq!(fast.lattice_id(i), slow.nodes[i], "{ctx}: node {i}");
        assert_eq!(fast.level(i), slow.levels[i], "{ctx}: level {i}");
        assert_eq!(fast.children(i), slow.children[i].as_slice(), "{ctx}: children {i}");
        assert_eq!(fast.parents(i), slow.parents[i].as_slice(), "{ctx}: parents {i}");
        assert_eq!(fast.desc_plus(i), slow.desc_plus[i].as_slice(), "{ctx}: desc {i}");
        assert_eq!(fast.asc_plus(i), slow.asc_plus[i].as_slice(), "{ctx}: asc {i}");
        // Membership predicate matches the closure content both ways.
        for j in 0..fast.len() {
            assert_eq!(
                fast.is_desc_or_self(j, i),
                slow.desc_plus[i].binary_search(&j).is_ok(),
                "{ctx}: is_desc_or_self({j}, {i})"
            );
        }
    }
}

fn check_workload<Q: AsRef<str>>(
    lattice: &Lattice,
    index: &InvertedIndex,
    queries: &[Q],
    label: &str,
) {
    let mut ws = QueryWorkspace::new();
    let mut interps = 0usize;
    for q in queries.iter().map(AsRef::as_ref) {
        let Ok(parsed) = KeywordQuery::parse(q) else { continue };
        let mapping = map_keywords(&parsed, index);
        for (ii, interp) in mapping.interpretations.iter().enumerate() {
            let ctx = format!("{label} {q:?} interp {ii}");
            let slow = naive_build(lattice, interp);
            let fresh = PrunedLattice::build(lattice, interp);
            assert_same(&fresh, &slow, &ctx);
            // The reused-workspace path must agree too (the path E14 and
            // perfbench's staged `lib-cold` take; the debugger builds fresh).
            let reused = PrunedLattice::build_with(lattice, interp, &mut ws);
            assert_same(&reused, &slow, &format!("{ctx} (reused ws)"));
            interps += 1;
        }
    }
    assert!(interps > 0, "{label}: workload produced no interpretations");
}

#[test]
fn toydb_matches_naive_reference() {
    let db = product_database();
    let graph = SchemaGraph::new(&db);
    let index = InvertedIndex::build(&db);
    let queries = [
        "saffron scented candle",
        "red candle",
        "saffron",
        "candle holder",
        "red scented oil",
    ];
    for max_joins in [1, 2, 3] {
        let lattice = Lattice::build(&db, &graph, max_joins);
        check_workload(&lattice, &index, &queries, &format!("toydb mj={max_joins}"));
    }
}

#[test]
fn dblife_matches_naive_reference_across_seeds() {
    for seed in [DblifeConfig::tiny().seed, 1729] {
        let db = generate_dblife(&DblifeConfig { seed, ..DblifeConfig::tiny() });
        let graph = SchemaGraph::new(&db);
        let index = InvertedIndex::build(&db);
        let lattice = Lattice::build(&db, &graph, 3);
        let queries: Vec<&str> = paper_queries().iter().map(|q| q.text).collect();
        check_workload(&lattice, &index, &queries, &format!("dblife seed={seed}"));
    }
}

/// Terms of each table found in no other table (up to 8 per table), and up
/// to 4 terms found in several tables, in row order.
fn vocabulary(db: &Database, index: &InvertedIndex) -> (Vec<Vec<String>>, Vec<String>) {
    let mut own: Vec<Vec<String>> = vec![Vec::new(); db.table_count()];
    let mut shared: Vec<String> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    for t in 0..db.table_count() {
        for (_, row) in db.table(t).iter().take(300) {
            for term in row.iter().filter_map(Value::as_text).flat_map(tokenize) {
                if !seen.insert(term.clone()) {
                    continue;
                }
                match index.tables_containing(&term).as_slice() {
                    [] => {}
                    [only] if own[*only].len() < 8 => own[*only].push(term),
                    [_] => {}
                    _ if shared.len() < 4 => shared.push(term),
                    _ => {}
                }
            }
        }
    }
    (own, shared)
}

/// The generated sweep: for every text table, 1–6 of its own terms; then
/// seeded 1–6-keyword mixes across tables, one keyword in six drawn from
/// the shared terms.
fn sweep_queries(db: &Database, index: &InvertedIndex, seed: u64) -> Vec<String> {
    let (own, shared) = vocabulary(db, index);
    let tables: Vec<usize> = (0..own.len()).filter(|&t| !own[t].is_empty()).collect();
    assert!(tables.len() >= 2, "sweep needs at least two text tables");
    let mut queries = Vec::new();
    for &t in &tables {
        for k in 1..=own[t].len().min(6) {
            queries.push(own[t][..k].join(" "));
        }
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    for k in 1..=6 {
        for _ in 0..4 {
            let words: Vec<&str> = (0..k)
                .map(|_| {
                    if !shared.is_empty() && rng.gen_range(0..6usize) == 0 {
                        shared[rng.gen_range(0..shared.len())].as_str()
                    } else {
                        let t = tables[rng.gen_range(0..tables.len())];
                        own[t][rng.gen_range(0..own[t].len())].as_str()
                    }
                })
                .collect();
            queries.push(words.join(" "));
        }
    }
    queries
}

/// Asserts the sweep reaches each case it exists for: a bound copy no node
/// can hold, more bound copies than the index width, several
/// interpretations of one query, and interpretations with MTNs.
fn assert_sweep_coverage(lattice: &Lattice, index: &InvertedIndex, queries: &[String]) {
    let (mut outside, mut wide, mut multi, mut with_mtns) = (0, 0, 0, 0);
    for q in queries {
        let mapping = map_keywords(&KeywordQuery::parse(q).unwrap(), index);
        multi += usize::from(mapping.interpretations.len() > 1);
        for interp in &mapping.interpretations {
            let k = interp.keyword_count();
            outside += usize::from(
                (0..k).any(|i| lattice.copy_slot(interp.tuple_set_of(i)).is_none()),
            );
            wide += usize::from(k > lattice.copy_set_width());
            with_mtns += usize::from(PrunedLattice::build(lattice, interp).stats().mtn_count > 0);
        }
    }
    assert!(outside > 0, "no bound copy outside the lattice");
    assert!(wide > 0, "no interpretation wider than the index");
    assert!(multi > 0, "no query with several interpretations");
    assert!(with_mtns > 0, "no interpretation with MTNs");
}

/// Σ_{i ≤ l} C(k, i): the most subsets Phase 1 looks up for `k` bound copies.
fn lookups_bound(k: u64, l: u64) -> u64 {
    let mut c = 1u64; // C(k, 0)
    let mut sum = 1u64;
    for i in 1..=l.min(k) {
        c = c * (k - i + 1) / i;
        sum += c;
    }
    sum
}

#[test]
fn toydb_generated_sweep_matches_naive_reference() {
    let db = product_database();
    let graph = SchemaGraph::new(&db);
    let index = InvertedIndex::build(&db);
    let queries = sweep_queries(&db, &index, 0x5EED);
    for max_joins in [1, 2, 3] {
        let lattice = Lattice::build(&db, &graph, max_joins);
        check_workload(&lattice, &index, &queries, &format!("toydb sweep mj={max_joins}"));
        assert_sweep_coverage(&lattice, &index, &queries);
    }
}

#[test]
fn dblife_generated_sweep_matches_naive_reference() {
    let db = generate_dblife(&DblifeConfig::tiny());
    let graph = SchemaGraph::new(&db);
    let index = InvertedIndex::build(&db);
    let lattice = Lattice::build(&db, &graph, 3);
    let queries = sweep_queries(&db, &index, 0xDB11FE);
    // The sweep reaches every text table, past the index width and past the
    // copies a table has in the lattice.
    let (own, _) = vocabulary(&db, &index);
    let text_tables = (0..db.table_count()).filter(|&t| graph.has_text(t)).count();
    assert_eq!(own.iter().filter(|terms| !terms.is_empty()).count(), text_tables);
    assert!(own.iter().any(|terms| terms.len() > lattice.max_joins() + 1));
    assert!(lattice.copy_set_width() < 6);
    check_workload(&lattice, &index, &queries, "dblife sweep");
    assert_sweep_coverage(&lattice, &index, &queries);
}

#[test]
fn many_keywords_cost_bounded_lookups() {
    let db = generate_dblife(&DblifeConfig::tiny());
    let graph = SchemaGraph::new(&db);
    let index = InvertedIndex::build(&db);
    let lattice = Lattice::build(&db, &graph, 3);
    let (own, _) = vocabulary(&db, &index);
    // Twelve keywords, round-robin over the text tables.
    let words: Vec<&str> = (0..8)
        .flat_map(|i| own.iter().filter_map(move |terms| terms.get(i)))
        .map(String::as_str)
        .take(12)
        .collect();
    assert_eq!(words.len(), 12, "vocabulary too small for 12 keywords");
    let mapping = map_keywords(&KeywordQuery::parse(&words.join(" ")).unwrap(), &index);
    assert_eq!(mapping.interpretations.len(), 1, "own terms map to one table each");
    let interp = &mapping.interpretations[0];
    assert_eq!(interp.keyword_count(), 12);
    let p = PrunedLattice::build(&lattice, interp);
    let bound = lookups_bound(12, lattice.copy_set_width() as u64);
    assert!(
        p.phase1_nodes_touched() <= bound + p.stats().total_nodes as u64,
        "touched {} > {bound} lookups + {} totals",
        p.phase1_nodes_touched(),
        p.stats().total_nodes
    );
    assert_same(&p, &naive_build(&lattice, interp), "12 keywords");
}
