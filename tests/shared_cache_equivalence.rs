//! Integration: the process-wide shared evaluation cache is observably
//! identical to uncached probing, across sessions.
//!
//! A shared `kwdebug::evalcache::EvalCache` extends the session-scoped cache
//! contract (see `probe_cache_equivalence.rs`) across sessions: any number
//! of debuggers built over one [`SharedParts`] with a shared store attached
//! must produce reports bit-identical to an uncached baseline, while probe
//! counts obey the shortcut identity
//!
//! ```text
//! probes_executed(shared) + verdict_cache_hits == probes_executed(off)
//! ```
//!
//! On top of equivalence this suite pins the shared store's own contracts:
//! the `cache_bytes` accounting identity (the gauge equals a full recount
//! over every shard), LRU eviction under a byte budget (bytes stay within
//! budget, evictions count, answers stay right), the generation-stamp
//! invalidation rule (a store from another database build is rejected), the
//! chaos-pollution guarantee (faulted sessions only ever publish completed
//! work), and output-invariance of the shared online `p_a` estimator.

use std::sync::Arc;

use datagen::{generate_dblife, paper_queries, DblifeConfig};
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

fn tiny_system(config: DebugConfig) -> NonAnswerDebugger {
    NonAnswerDebugger::new(generate_dblife(&DblifeConfig::tiny()), config)
        .expect("system builds")
}

fn base_config() -> DebugConfig {
    DebugConfig { max_joins: 3, sample_limit: 0, ..DebugConfig::default() }
}

fn cached_config() -> DebugConfig {
    DebugConfig { eval_cache: true, ..base_config() }
}

/// Blanks the per-interpretation query count and wall clock of rendered
/// report lines — `(12 SQL queries, 1.3ms)` → `(q SQL queries, t)` — since
/// cache shortcuts legitimately shrink the executed-query count.
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

/// Drops the counters that legitimately vary with the cache;
/// `probes_executed` is checked exactly through the shortcut identity
/// instead.
fn comparable(mut p: ProbeCounters) -> ProbeCounters {
    p.probe_time_ns = 0;
    p.tuples_scanned = 0;
    p.probes_executed = 0;
    p.selection_cache_hits = 0;
    p.verdict_cache_hits = 0;
    p.cache_bytes = 0;
    p
}

/// Asserts a shared-cache report is observably identical to the uncached
/// baseline, probe counts included (via the shortcut identity).
fn assert_shared_equivalent(off: &DebugReport, on: &DebugReport, ctx: &str) {
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

/// Sessions sharing one store match the uncached baseline for every
/// strategy — and the *second* session visibly rides on the first one's
/// work.
#[test]
fn shared_sessions_match_uncached_baseline() {
    let off = tiny_system(base_config());
    let seeded = tiny_system(cached_config());
    let mut parts = seeded.shared_parts();
    let shared = parts.share_eval_cache(None);

    let s1 = NonAnswerDebugger::from_shared(parts.clone(), cached_config()).expect("session 1");
    let s2 = NonAnswerDebugger::from_shared(parts, cached_config()).expect("session 2");
    let mut verdict_hits = 0u64;
    for q in paper_queries().iter().take(3) {
        for kind in ALL_SIX {
            let base = off.debug_with_strategy(q.text, kind).expect("baseline runs");
            let first = s1.debug_with_strategy(q.text, kind).expect("session 1 runs");
            assert_shared_equivalent(&base, &first, &format!("{} {kind} s1", q.id));
            let second = s2.debug_with_strategy(q.text, kind).expect("session 2 runs");
            assert_shared_equivalent(&base, &second, &format!("{} {kind} s2", q.id));
            verdict_hits += second.probes().verdict_cache_hits;
        }
    }
    assert!(
        verdict_hits > 0,
        "the second session must answer repeats from the first session's verdicts"
    );
    assert!(shared.bytes() > 0, "the shared store was populated");
    assert_eq!(
        shared.bytes(),
        shared.accounted_bytes(),
        "cache_bytes gauge must equal a full recount over every shard"
    );
}

/// A byte budget is enforced by LRU eviction: the store stays within
/// budget, evictions are counted, the accounting identity survives churn,
/// and answers never change.
#[test]
fn byte_budget_evicts_without_changing_answers() {
    let off = tiny_system(base_config());
    let seeded = tiny_system(cached_config());
    let mut parts = seeded.shared_parts();
    const BUDGET: u64 = 256;
    let shared = parts.share_eval_cache(Some(BUDGET));
    let session = NonAnswerDebugger::from_shared(parts, cached_config()).expect("session");

    for q in paper_queries().iter().take(5) {
        let base = off.debug(q.text).expect("baseline runs");
        let capped = session.debug(q.text).expect("budgeted session runs");
        assert_shared_equivalent(&base, &capped, &format!("{} budget={BUDGET}", q.id));
        assert!(
            shared.bytes() <= BUDGET,
            "{}: resident {} exceeds budget {BUDGET}",
            q.id,
            shared.bytes()
        );
        assert_eq!(
            shared.bytes(),
            shared.accounted_bytes(),
            "{}: accounting identity must survive eviction churn",
            q.id
        );
    }
    assert!(shared.evictions() > 0, "a 256-byte budget must force evictions on this workload");
}

/// A shared store is stamped with its substrate's database generation; a
/// substrate of another build must refuse to adopt it.
#[test]
fn generation_mismatch_is_rejected() {
    let a = tiny_system(cached_config());
    let b = tiny_system(cached_config());
    let mut parts_a = a.shared_parts();
    let cache_a = parts_a.share_eval_cache(None);
    let mut parts_b = b.shared_parts();
    assert!(
        parts_b.adopt_eval_cache(cache_a.clone()).is_err(),
        "a store from another database build must be rejected"
    );
    // Same-substrate adoption (e.g. via a clone) is fine.
    let mut parts_a2 = a.shared_parts();
    parts_a2.adopt_eval_cache(cache_a).expect("same-generation adoption succeeds");
}

/// A session degraded by probe-level chaos faults shares a store with a
/// clean session: failed probes abort before execution, so everything the
/// chaotic session published is completed work and the clean session's
/// reports stay bit-identical to an untouched reference.
#[test]
fn chaos_sessions_never_pollute_the_shared_store() {
    let reference = tiny_system(base_config());
    let seeded = tiny_system(cached_config());
    let mut parts = seeded.shared_parts();
    let shared = parts.share_eval_cache(None);

    let mut chaotic = NonAnswerDebugger::from_shared(parts.clone(), cached_config())
        .expect("chaotic session");
    chaotic.set_chaos(Some(FaultConfig::transient(7, 300)));
    for q in paper_queries().iter().take(3) {
        chaotic.debug(q.text).expect("chaotic run never hard-errors");
    }
    assert!(shared.bytes() > 0, "the degraded session still cached completed work");

    let clean = NonAnswerDebugger::from_shared(parts, cached_config()).expect("clean session");
    for q in paper_queries().iter().take(3) {
        let base = reference.debug(q.text).expect("reference runs");
        let warmed = clean.debug(q.text).expect("clean session runs");
        assert_shared_equivalent(&base, &warmed, &format!("{} post-chaos", q.id));
    }
}

/// The shared online `p_a` estimator only reorders SBH's frontier; sessions
/// with `online_pa` on (sharing both the store and the estimator) keep
/// reports identical to the fixed-prior uncached baseline.
#[test]
fn online_pa_sessions_keep_outputs_identical() {
    let off = tiny_system(base_config());
    let seeded = tiny_system(cached_config());
    let mut parts = seeded.shared_parts();
    parts.share_eval_cache(None);
    let online_config = DebugConfig { online_pa: true, ..cached_config() };

    let s1 = NonAnswerDebugger::from_shared(parts.clone(), online_config)
        .expect("session 1");
    let s2 = NonAnswerDebugger::from_shared(parts, online_config).expect("session 2");
    for q in paper_queries().iter().take(3) {
        let base = off.debug(q.text).expect("baseline runs");
        let first = s1.debug(q.text).expect("session 1 runs");
        assert_shared_equivalent(&base, &first, &format!("{} online s1", q.id));
        let second = s2.debug(q.text).expect("session 2 runs");
        assert_shared_equivalent(&base, &second, &format!("{} online s2", q.id));
    }
    assert!(
        Arc::ptr_eq(s1.pa_stats(), s2.pa_stats()),
        "sessions share one estimator through the substrate"
    );
    assert!(s1.pa_stats().observations() > 0, "executed verdicts fed the estimator");
}
