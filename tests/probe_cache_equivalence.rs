//! Integration: the cross-probe evaluation cache is observably identical to
//! uncached probing.
//!
//! The contract of `kwdebug::evalcache` (DESIGN.md §10) is that the cache
//! changes the *work* of a debug session, never its *answers*: for every
//! strategy, database and memoization setting, a cache-enabled
//! run must produce the same verdicts, the same answer/non-answer/unknown
//! structure, the same MPANs and the same sample tuples as an uncached run.
//! Probe counts obey the documented identity
//!
//! ```text
//! probes_executed(cache on) + verdict_cache_hits == probes_executed(cache off)
//! ```
//!
//! — every probe the cache skips is one answered (alive or dead) from a
//! cached whole-network verdict. `tuples_scanned`, `probe_time_ns` and the cache-hit
//! counters legitimately differ (that is the point of the cache) and are
//! scrubbed before comparison. Budgets stay unlimited here: a limited budget
//! composed with the cache can change *which* probe trips the cap, which is
//! documented divergence, not an equivalence bug.

use datagen::{generate_dblife, paper_queries, product_database, DblifeConfig};
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::metrics::ProbeCounters;
use kwdebug::traversal::StrategyKind;
use kwdebug::DebugReport;
use relengine::FaultConfig;

const ALL_SIX: [StrategyKind; 6] = [
    StrategyKind::BottomUp,
    StrategyKind::TopDown,
    StrategyKind::BottomUpWithReuse,
    StrategyKind::TopDownWithReuse,
    StrategyKind::ScoreBasedHeuristic,
    StrategyKind::BruteForce,
];

/// Blanks the per-interpretation query count and wall clock of rendered
/// report lines — `(12 SQL queries, 1.3ms)` → `(q SQL queries, t)` — since
/// cached verdicts legitimately shrink the executed-query count.
fn scrub(s: &str) -> String {
    s.lines()
        .map(|l| match l.find(" SQL queries, ") {
            Some(i) => match l[..i].rfind('(') {
                Some(j) => format!("{}(q SQL queries, t)", &l[..j]),
                None => l.to_string(),
            },
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Drops the counters that legitimately vary with the cache.
/// `probes_executed` is excluded here because it is checked exactly through
/// the verdict-cache identity instead.
fn comparable(mut p: ProbeCounters) -> ProbeCounters {
    p.probe_time_ns = 0;
    p.tuples_scanned = 0;
    p.probes_executed = 0;
    p.selection_cache_hits = 0;
    p.verdict_cache_hits = 0;
    p.cache_bytes = 0;
    p
}

/// Asserts a cache-enabled report is observably identical to the uncached
/// baseline, probe counts included (via the verdict-cache identity).
fn assert_cache_equivalent(off: &DebugReport, on: &DebugReport, ctx: &str) {
    assert_eq!(scrub(&on.to_string()), scrub(&off.to_string()), "{ctx}: rendered report");
    assert_eq!(on.interpretations.len(), off.interpretations.len(), "{ctx}");
    for (a, b) in on.interpretations.iter().zip(&off.interpretations) {
        assert_eq!(a.answers, b.answers, "{ctx}: answers (SQL + samples)");
        assert_eq!(a.non_answers, b.non_answers, "{ctx}: non-answers + MPANs");
        assert_eq!(a.unknown, b.unknown, "{ctx}: unknown");
        assert_eq!(a.budget_exhausted, b.budget_exhausted, "{ctx}: exhaustion cause");
        assert_eq!(comparable(a.probes), comparable(b.probes), "{ctx}: probe counters");
        assert_eq!(
            a.probes.probes_executed + a.probes.verdict_cache_hits,
            b.probes.probes_executed,
            "{ctx}: every skipped probe is accounted as a shortcut"
        );
        assert_eq!(
            a.sql_queries + a.probes.verdict_cache_hits,
            b.sql_queries,
            "{ctx}: traversal query counts obey the same identity"
        );
    }
}

/// Every strategy on the paper's Figure 2 toy store, with and without
/// memoization, samples on — cache-on reports must match cache-off ones
/// even as the cache warms across strategies.
#[test]
fn toydb_reports_match_uncached_for_every_strategy() {
    for memoize in [false, true] {
        let off = NonAnswerDebugger::new(
            product_database(),
            DebugConfig { max_joins: 2, memoize, ..DebugConfig::default() },
        )
        .expect("toy system builds");
        let on = NonAnswerDebugger::new(
            product_database(),
            DebugConfig { max_joins: 2, memoize, eval_cache: true, ..DebugConfig::default() },
        )
        .expect("toy system builds");
        for kind in ALL_SIX {
            let base = off.debug_with_strategy("saffron scented candle", kind).expect("runs");
            let cached = on.debug_with_strategy("saffron scented candle", kind).expect("runs");
            assert_cache_equivalent(&base, &cached, &format!("toydb {kind} memo={memoize}"));
        }
        assert!(on.eval_cache().bytes() > 0, "the session cache was populated");
        assert!(on.eval_cache().selection_entries() > 0);
    }
}

/// Every strategy over seeded DBLife instances and a slice of the paper's
/// Table 2 workload, against the uncached run of the same query.
#[test]
fn dblife_reports_match_uncached_across_seeds_and_workers() {
    for seed in [DblifeConfig::tiny().seed, 99] {
        let off = NonAnswerDebugger::new(
            generate_dblife(&DblifeConfig { seed, ..DblifeConfig::tiny() }),
            DebugConfig { max_joins: 3, sample_limit: 0, ..DebugConfig::default() },
        )
        .expect("system builds");
        let on = NonAnswerDebugger::new(
            generate_dblife(&DblifeConfig { seed, ..DblifeConfig::tiny() }),
            DebugConfig {
                max_joins: 3,
                sample_limit: 0,
                eval_cache: true,
                ..DebugConfig::default()
            },
        )
        .expect("system builds");
        for q in paper_queries().iter().take(3) {
            for kind in ALL_SIX {
                let base = off.debug_with_strategy(q.text, kind).expect("runs");
                let cached = on.debug_with_strategy(q.text, kind).expect("runs");
                assert_cache_equivalent(
                    &base,
                    &cached,
                    &format!("dblife seed={seed} {} {kind}", q.id),
                );
            }
        }
    }
}

/// A warm session must answer the same query with the same report and
/// strictly less engine work: selections and verdicts from the first pass
/// serve the second.
#[test]
fn warm_session_repeats_identically_with_less_work() {
    let sys = NonAnswerDebugger::new(
        generate_dblife(&DblifeConfig::tiny()),
        DebugConfig { max_joins: 3, sample_limit: 0, eval_cache: true, ..DebugConfig::default() },
    )
    .expect("system builds");
    for q in paper_queries().iter().take(3) {
        let cold = sys.debug(q.text).expect("cold run");
        let warm = sys.debug(q.text).expect("warm run");
        assert_cache_equivalent(&cold, &warm, &format!("{} warm repeat", q.id));
        let w = warm.probes();
        if cold.probes().probes_executed > 0 {
            assert!(
                w.selection_cache_hits + w.verdict_cache_hits > 0,
                "{}: warm run reuses session state",
                q.id
            );
        }
        assert!(
            w.tuples_scanned <= cold.probes().tuples_scanned,
            "{}: warm run never scans more",
            q.id
        );
    }
}

/// Chaos faults abort probes *before* execution, so a degraded session can
/// only cache completed reductions: after the faults stop, the surviving
/// cache must still reproduce the clean uncached report bit for bit.
#[test]
fn failed_probes_never_poison_the_cache() {
    let mut sys = NonAnswerDebugger::new(
        generate_dblife(&DblifeConfig::tiny()),
        DebugConfig { max_joins: 3, sample_limit: 0, eval_cache: true, ..DebugConfig::default() },
    )
    .expect("system builds");
    // Populate the cache under heavy transient faults (degraded reports are
    // fine here — only the cache contents carry over).
    sys.set_chaos(Some(FaultConfig::transient(7, 300)));
    for q in paper_queries().iter().take(3) {
        sys.debug(q.text).expect("chaotic run never hard-errors");
    }
    assert!(sys.eval_cache().bytes() > 0, "the degraded session still cached completed work");
    // Faults off: the warmed cache must agree with a clean uncached system.
    sys.set_chaos(None);
    let clean = NonAnswerDebugger::new(
        generate_dblife(&DblifeConfig::tiny()),
        DebugConfig { max_joins: 3, sample_limit: 0, ..DebugConfig::default() },
    )
    .expect("system builds");
    for q in paper_queries().iter().take(3) {
        let base = clean.debug(q.text).expect("clean run");
        let cached = sys.debug(q.text).expect("post-chaos run");
        assert_cache_equivalent(&base, &cached, &format!("{} post-chaos", q.id));
    }
}

/// A cold cache must never make probing scan more tuples than no cache: the
/// cached planner roots each reduction at the same cheapest node as the
/// uncached one, and its selection-backed nodes answer semi-joins from the
/// cached postings instead of re-reading rows.
#[test]
fn cold_cache_scans_no_more_than_uncached() {
    let config = DebugConfig { max_joins: 4, sample_limit: 0, ..DebugConfig::default() };
    let off = NonAnswerDebugger::new(generate_dblife(&DblifeConfig::tiny()), config)
        .expect("system builds");
    let mut on = NonAnswerDebugger::new(
        generate_dblife(&DblifeConfig::tiny()),
        DebugConfig { eval_cache: true, ..config },
    )
    .expect("system builds");
    let sbh = StrategyKind::ScoreBasedHeuristic;
    for q in paper_queries().iter().take(4) {
        on.reset_eval_cache();
        let base = off.debug_with_strategy(q.text, sbh).expect("runs");
        let cold = on.debug_with_strategy(q.text, sbh).expect("runs");
        assert_cache_equivalent(&base, &cold, &format!("{} cold", q.id));
        assert!(
            cold.probes().tuples_scanned <= base.probes().tuples_scanned,
            "{}: cold cache scanned {} tuples, uncached {}",
            q.id,
            cold.probes().tuples_scanned,
            base.probes().tuples_scanned
        );
    }
}
