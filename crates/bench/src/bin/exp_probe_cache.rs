//! Extension experiment — cross-probe evaluation cache (EXPERIMENTS.md E15).
//!
//! A debug session asks many structurally overlapping probes: its
//! interpretations re-select the same `(relation, keyword)` tuple sets, and
//! repeated queries re-ask whole bound networks. Within one interpretation
//! the oracle already builds each keyword selection once; the
//! session-scoped `kwdebug::evalcache` shares selections (with their
//! join-column postings) across interpretations and queries, and its
//! completed whole-network verdicts answer repeated probes without the
//! engine.
//!
//! Three passes over the same workload measure the cache's life cycle:
//!
//! * `off`  — baseline, cache disabled;
//! * `cold` — cache enabled, empty: pays population on top of probing;
//! * `warm` — same session again: selections and verdicts all hit.
//!
//! Probe throughput is *verdicts per probing second*:
//! `(probes_executed + verdict_cache_hits) / probe_time`. The numerator is pass-invariant (the equivalence contract —
//! see `tests/probe_cache_equivalence.rs`), so the ratio isolates the
//! probing work the cache removes. Target: warm ≥ 3× cold.
//!
//! Individual probes run in microseconds, so a single pass is at the mercy
//! of scheduler noise. The whole off/cold/warm cycle therefore repeats
//! [`REPS`] times — [`NonAnswerDebugger::reset_eval_cache`] restores a cold
//! cache between repetitions — and each pass is scored by its best (fastest)
//! repetition, the standard min-of-N treatment for shaving off noise.
//!
//! Usage: `exp_probe_cache [--scale S] [--max-level N] [--seed N]` (default
//! scale small, level 5). Emits one record per (query, pass) to
//! `results/BENCH_exp_probe_cache.json`; `phases` carries the report's phase
//! timings, with `phases.total_ns` the measured wall-clock of the debug call,
//! and `probes` the session counters.

use std::time::Instant;

use bench::{build_system, emit_metrics, print_table, ExpArgs};
use datagen::paper_queries;
use kwdebug::debugger::NonAnswerDebugger;
use kwdebug::metrics::MetricsSnapshot;
use kwdebug::traversal::StrategyKind;

const STRATEGY: StrategyKind = StrategyKind::ScoreBasedHeuristic;
const QUERIES: usize = 4;
const REPS: usize = 15;

/// One (query, pass) measurement.
struct Row {
    query: String,
    pass: &'static str,
    rec: MetricsSnapshot,
}

/// Runs the workload once against `system`, tagging each record with `pass`.
fn run_pass(
    system: &NonAnswerDebugger,
    pass: &'static str,
    args: &ExpArgs,
    max_level: usize,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for q in paper_queries().iter().take(QUERIES) {
        let t0 = Instant::now();
        let report = system.debug_with_strategy(q.text, STRATEGY).expect("clean run");
        let wall = t0.elapsed();
        let mut rec = MetricsSnapshot {
            experiment: "exp_probe_cache".to_owned(),
            query: q.id.to_owned(),
            strategy: STRATEGY.to_string(),
            variant: pass.to_owned(),
            scale: args.scale.name().to_owned(),
            max_level: max_level as u64,
            interpretations: report.interpretations.len() as u64,
            lattice_bytes: 0,
            probes: report.probes(),
            phases: report.timing,
            prune: None,
            levels: Vec::new(),
        };
        rec.phases.total = wall;
        rows.push(Row { query: q.id.to_owned(), pass, rec });
    }
    rows
}

/// Verdicts per probing second over a pass: the shortcut identity makes the
/// numerator equal across passes, so this is a like-for-like rate.
fn throughput(rows: &[Row]) -> f64 {
    let verdicts: u64 = rows
        .iter()
        .map(|r| r.rec.probes.probes_executed + r.rec.probes.verdict_cache_hits)
        .sum();
    let ns: u64 = rows.iter().map(|r| r.rec.probes.probe_time_ns).sum();
    if ns == 0 {
        f64::INFINITY
    } else {
        verdicts as f64 * 1e9 / ns as f64
    }
}

fn main() {
    let args = ExpArgs::parse();
    let max_level = args.max_level.unwrap_or(5);
    println!(
        "== Extension: cross-probe evaluation cache (scale {:?}, level {max_level}, {STRATEGY}) ==\n",
        args.scale
    );

    let mut system = build_system(args.scale, args.seed, max_level);
    let mut off_reps = Vec::new();
    let mut cold_reps = Vec::new();
    let mut warm_reps = Vec::new();
    for _ in 0..REPS {
        system.set_eval_cache(false);
        off_reps.push(run_pass(&system, "off", &args, max_level));
        system.reset_eval_cache();
        system.set_eval_cache(true);
        cold_reps.push(run_pass(&system, "cold", &args, max_level));
        warm_reps.push(run_pass(&system, "warm", &args, max_level));
    }
    // Verdict counts are pass- and repetition-invariant; the table, the
    // emitted records and the headline ratio all come from each pass's
    // fastest repetition.
    let best = |reps: &mut Vec<Vec<Row>>| {
        let idx = (0..reps.len())
            .max_by(|&a, &b| throughput(&reps[a]).total_cmp(&throughput(&reps[b])))
            .expect("REPS > 0");
        reps.swap_remove(idx)
    };
    let (off, cold, warm) = (best(&mut off_reps), best(&mut cold_reps), best(&mut warm_reps));
    let (t_off, t_cold, t_warm) = (throughput(&off), throughput(&cold), throughput(&warm));
    let cache = system.eval_cache();
    println!(
        "session cache: {} selection entries, {} postings, {} verdicts, {} keywords, {} payload bytes\n",
        cache.selection_entries(),
        cache.postings_entries(),
        cache.verdict_entries(),
        cache.interned_keywords(),
        cache.bytes()
    );

    let mut table = Vec::new();
    for r in off.iter().chain(&cold).chain(&warm) {
        let p = &r.rec.probes;
        table.push(vec![
            r.query.clone(),
            r.pass.to_string(),
            (p.probes_executed + p.verdict_cache_hits).to_string(),
            p.verdict_cache_hits.to_string(),
            p.selection_cache_hits.to_string(),
            p.tuples_scanned.to_string(),
            format!("{:.2}", p.probe_time_ns as f64 / 1e6),
            format!("{:.2}", r.rec.phases.total.as_secs_f64() * 1e3),
        ]);
    }
    print_table(
        &[
            "query", "pass", "verdicts", "vc-hit", "sel-hit", "scanned", "probe ms", "wall ms",
        ],
        &table,
    );

    let ratio = t_warm / t_cold;
    println!(
        "\nprobe throughput (verdicts/s, best of {REPS}): off {t_off:.0}, cold {t_cold:.0}, warm {t_warm:.0}"
    );
    println!(
        "warm/cold speedup: {ratio:.2}x ({})",
        if ratio >= 3.0 { "target >=3x met" } else { "BELOW the 3x target" }
    );

    let records: Vec<MetricsSnapshot> =
        off.into_iter().chain(cold).chain(warm).map(|r| r.rec).collect();
    emit_metrics("exp_probe_cache", &records);
}
