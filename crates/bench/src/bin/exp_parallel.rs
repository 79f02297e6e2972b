//! Extension experiment — parallel probe scheduling (EXPERIMENTS.md E13).
//!
//! The paper's traversals are sequential: one probe in flight at a time,
//! which is the right model when the engine is an in-process scan but not
//! when each probe crosses a network or disk boundary. This experiment
//! measures the `kwdebug::parallel` wave scheduler under a *latency-bound*
//! probe model: every probe is delayed by a fixed injected latency (the
//! chaos layer's deterministic delay knob), so wall-clock is dominated by
//! round-trips and the scheduler's job is to overlap them. That is the
//! regime the scheduler targets; on a CPU-bound in-memory engine the waves
//! are too short for threads to pay off and `workers = 1` is the right
//! setting.
//!
//! For each worker count the run also re-checks the determinism contract:
//! the rendered report must be identical (modulo wall-clock) to the
//! sequential one.
//!
//! Usage: `exp_parallel [--scale S] [--max-level N] [--seed N]`
//! (default level 7, i.e. L7 lattices). Emits one metrics record per
//! (query, workers) to `results/BENCH_exp_parallel.json`; `phases` carries
//! the report's phase timings, with `phases.total_ns` the measured
//! wall-clock of the debug call.

use std::time::{Duration, Instant};

use bench::{build_system, emit_metrics, print_table, ExpArgs};
use datagen::paper_queries;
use kwdebug::traversal::StrategyKind;
use relengine::FaultConfig;

/// Injected per-probe latency: an order of magnitude above per-probe CPU
/// cost (so runs are round-trip-dominated, the scheduler's target regime),
/// small enough that the full sweep stays in seconds.
const PROBE_LATENCY: Duration = Duration::from_millis(10);

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn scrub(s: &str) -> String {
    s.lines()
        .map(|l| match l.find(" SQL queries, ") {
            Some(i) => format!("{} SQL queries, (t)", &l[..i]),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let args = ExpArgs::parse();
    let max_level = args.max_level.unwrap_or(7);
    println!(
        "== Extension: parallel probe scheduling under {}ms probe latency \
         (scale {:?}, level {max_level}) ==\n",
        PROBE_LATENCY.as_millis(),
        args.scale
    );
    let mut system = build_system(args.scale, args.seed, max_level);
    system.set_chaos(Some(FaultConfig {
        latency_per_mille: 1000,
        latency: PROBE_LATENCY,
        ..FaultConfig::quiet(args.seed)
    }));

    let strategy = StrategyKind::BottomUpWithReuse; // widest waves
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut speedup_at_4 = f64::INFINITY;
    for q in paper_queries().iter().take(4) {
        let mut baseline: Option<(Duration, String)> = None;
        for workers in WORKER_COUNTS {
            system.set_workers(workers);
            let t0 = Instant::now();
            let report = system
                .debug_with_strategy(q.text, strategy)
                .expect("latency-only chaos never fails a probe");
            let wall = t0.elapsed();
            let rendered = scrub(&report.to_string());
            let (t1, seq) = baseline.get_or_insert_with(|| (wall, rendered.clone()));
            assert_eq!(
                &rendered, seq,
                "{} workers={workers}: parallel report drifted from sequential",
                q.id
            );
            let speedup = t1.as_secs_f64() / wall.as_secs_f64();
            if workers == 4 {
                speedup_at_4 = speedup_at_4.min(speedup);
            }
            let probes = report.probes();
            rows.push(vec![
                q.id.to_string(),
                workers.to_string(),
                probes.probes_executed.to_string(),
                probes.steals.to_string(),
                format!("{:.0}", wall.as_secs_f64() * 1e3),
                format!("{speedup:.2}x"),
            ]);
            let mut rec = kwdebug::metrics::MetricsSnapshot {
                experiment: "exp_parallel".to_owned(),
                query: q.id.to_owned(),
                strategy: strategy.to_string(),
                variant: format!("workers={workers}"),
                scale: args.scale.name().to_owned(),
                max_level: max_level as u64,
                interpretations: report.interpretations.len() as u64,
                lattice_bytes: 0,
                probes,
                phases: report.timing,
                prune: None,
                levels: Vec::new(),
            };
            rec.phases.total = wall;
            records.push(rec);
        }
    }
    print_table(&["query", "workers", "probes", "steals", "wall ms", "speedup"], &rows);
    println!(
        "\nworst speedup at 4 workers: {speedup_at_4:.2}x \
         ({}; reports identical at every worker count)",
        if speedup_at_4 >= 2.0 { "target >=2x met" } else { "BELOW the 2x target" }
    );
    emit_metrics("exp_parallel", &records);
}
