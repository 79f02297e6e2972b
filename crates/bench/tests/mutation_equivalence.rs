//! Differential suite for the mutable-database write path (DESIGN.md §13).
//!
//! The contract under test: after any sequence of writes through
//! [`MutableDatabase`] — epoch bumps, incremental index deltas,
//! merge-on-read postings, threshold compaction, selective cache
//! invalidation — a debug session over the mutated coordinator produces a
//! report **bit-identical** (canonical encoding, wall-clock and cache/epoch
//! telemetry scrubbed) to a debugger built from scratch over a copy of the
//! same data. Across every traversal strategy, shared evaluation cache on
//! and off, and under injected probe faults. Any divergence means a layer served stale state.

use bench::{build_mutable_system, mutable_session_config, DataScale};
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::metrics::ProbeCounters;
use kwdebug::mutable::MutableDatabase;
use kwdebug::report::DebugReport;
use kwdebug::traversal::StrategyKind;
use kwserve::protocol::encode_report;
use relengine::{FaultConfig, Value};

const MAX_LEVEL: usize = 3;

const STRATEGIES: [StrategyKind; 6] = [
    StrategyKind::BottomUp,
    StrategyKind::TopDown,
    StrategyKind::BottomUpWithReuse,
    StrategyKind::TopDownWithReuse,
    StrategyKind::ScoreBasedHeuristic,
    StrategyKind::BruteForce,
];

/// Queries whose outcomes the mutation script below perturbs, plus untouched
/// controls.
const QUERIES: [&str; 4] = ["Widom Trio", "DeRose VLDB", "SIGMOD XML", "Gray SIGMOD"];

/// Canonical bytes with every probe-work counter scrubbed: cache hits, SQL
/// counts and the epoch/invalidation gauges legitimately differ between a
/// warm incremental session and a cold fresh build — the *semantic* sections
/// (keyword tables, answers, non-answers, MPANs, unknown, prune stats) must
/// not.
fn canonical(mut report: DebugReport) -> Vec<u8> {
    for i in &mut report.interpretations {
        i.sql_queries = 0;
        i.probes = ProbeCounters::default();
    }
    encode_report(&report)
}

/// Three rounds of appends, link inserts, updates and deletes that move the
/// workload's keywords ("Trio", "VLDB", "XML", "histograms") between rows.
/// Returns the number of epochs consumed.
fn apply_mutation_script(m: &mut MutableDatabase) -> u64 {
    let publication = m.table_id("publication").expect("dblife schema");
    let writes = m.table_id("writes").expect("dblife schema");
    let before = m.epoch();
    for round in 0..3i64 {
        let base = 90_000 + round * 10;
        let ids = m
            .append_rows(
                publication,
                vec![
                    vec![Value::Int(base), Value::text(format!("Trio VLDB retrospective {round}"))],
                    vec![
                        Value::Int(base + 1),
                        Value::text(format!("Keyword search tutorial notes {round}")),
                    ],
                ],
            )
            .expect("append publications");
        // Widom (person id 1) writes the first new publication: "Widom Trio"
        // gains an answer path through the join. Gray (person id 7) gets a
        // fresh SIGMOD paper so "Gray SIGMOD" moves too.
        m.append_rows(
                publication,
            vec![vec![Value::Int(base + 2), Value::text(format!("SIGMOD reflections {round}"))]],
        )
        .expect("append gray publication");
        m.append_rows(
            writes,
            vec![vec![Value::Int(1), Value::Int(base)], vec![Value::Int(7), Value::Int(base + 2)]],
        )
        .expect("append writes links");
        // Move keywords in place: the update's old AND new text decide what
        // invalidates.
        m.update_row(
            publication,
            ids[1],
            vec![Value::Int(base + 1), Value::text(format!("XML histograms survey {round}"))],
        )
        .expect("update title");
        // Tombstone it again — the fresh rebuild sees the same tombstone
        // through the cloned database, so reports must still agree.
        m.delete_row(publication, ids[1]).expect("delete publication");
    }
    m.epoch() - before
}

fn session_config(strategy: StrategyKind, cache: bool) -> DebugConfig {
    DebugConfig {
        strategy,
        eval_cache: cache,
        ..mutable_session_config(MAX_LEVEL)
    }
}

/// The tentpole invariant: incremental maintenance is invisible to reports.
#[test]
fn mutated_reports_match_fresh_rebuild_across_the_matrix() {
    let mut m = build_mutable_system(DataScale::Tiny, 7, MAX_LEVEL);
    m.share_eval_cache(None);
    // Low threshold so the script crosses it: both merge-on-read deltas and
    // a folded (compacted) base get exercised.
    m.set_compaction_threshold(8);

    // Warm the shared store at epoch 0, and keep the pre-mutation outcomes
    // to prove the script actually changes reports.
    let baseline: Vec<Vec<u8>> = {
        let s = m.session(session_config(StrategyKind::ScoreBasedHeuristic, true)).unwrap();
        QUERIES.iter().map(|q| canonical(s.debug(q).unwrap())).collect()
    };

    let epochs = apply_mutation_script(&mut m);
    assert_eq!(epochs, 15, "3 rounds x 5 writes, one epoch each");
    assert!(m.index().compactions() > 0, "script crossed the compaction threshold");
    let store = m.shared_cache().unwrap().clone();
    assert_eq!(store.epoch(), m.epoch(), "write path re-pinned the store");
    assert!(store.invalidated() > 0, "keyword-bearing writes evicted warm entries");

    // One debugger rebuilt from scratch over a copy of the mutated data is
    // the ground truth (clone keeps rows and tombstones, rebuilds nothing
    // incrementally).
    let fresh =
        NonAnswerDebugger::new(m.database().clone(), mutable_session_config(MAX_LEVEL)).unwrap();

    let mut changed = 0;
    for (qi, q) in QUERIES.iter().enumerate() {
        let truth = canonical(fresh.debug(q).unwrap());
        if truth != baseline[qi] {
            changed += 1;
        }
        for strategy in STRATEGIES {
            for cache in [false, true] {
                let s = m.session(session_config(strategy, cache)).unwrap();
                let got = canonical(s.debug(q).unwrap());
                assert_eq!(
                    got,
                    canonical(fresh.debug_with_strategy(q, strategy).unwrap()),
                    "{q} under {} cache={cache} diverged from the fresh rebuild",
                    strategy.name()
                );
                drop(s);
            }
        }
    }
    assert!(changed >= 2, "mutation script changed only {changed} of {} queries", QUERIES.len());
}

/// Chaos-faulted probes must never leak a wrong verdict into any cache
/// layer: a faulted session's report still matches the fresh rebuild, and a
/// clean session over the *same shared store afterwards* does too.
#[test]
fn chaos_probes_never_poison_the_shared_store() {
    let mut m = build_mutable_system(DataScale::Tiny, 7, MAX_LEVEL);
    m.share_eval_cache(None);
    apply_mutation_script(&mut m);
    let fresh =
        NonAnswerDebugger::new(m.database().clone(), mutable_session_config(MAX_LEVEL)).unwrap();

    let chaos = FaultConfig {
        seed: 42,
        transient_per_mille: 200,
        permanent_per_mille: 0,
        latency_per_mille: 0,
        latency: std::time::Duration::ZERO,
        fail_first_transient: 0,
    };
    for q in QUERIES {
        let truth = canonical(fresh.debug(q).unwrap());
        let faulted = {
            let config = DebugConfig {
                chaos: Some(chaos),
                ..session_config(StrategyKind::BottomUpWithReuse, true)
            };
            let s = m.session(config).unwrap();
            let report = s.debug(q).unwrap();
            assert!(report.probes().retries > 0 || report.probes().faults_injected == 0);
            canonical(report)
        };
        assert_eq!(faulted, truth, "{q}: transient faults changed the report");
        // The store the faulted session warmed serves a clean session next.
        let clean = m.session(session_config(StrategyKind::BottomUpWithReuse, true)).unwrap();
        assert_eq!(canonical(clean.debug(q).unwrap()), truth, "{q}: store was poisoned");
    }
}
