//! Extension experiment — mutable databases (EXPERIMENTS.md E19).
//!
//! The epoch-stamped write path exists so that a mutated database does NOT
//! force a drop-and-rebuild of the debugging stack. This experiment measures
//! that claim directly. Each round applies a batch of writes (appends,
//! updates, deletes — several carrying workload keywords) through
//! [`kwdebug::MutableDatabase`], then answers the paper workload two ways:
//!
//! * `incremental` — open a session on the live coordinator: the inverted
//!   index was maintained in place by delta postings (merged/compacted at
//!   write time), and the process-wide shared evaluation cache keeps every
//!   entry the writes did not invalidate;
//! * `rebuild`    — what a static stack must do: clone the mutated tables,
//!   rebuild the inverted index and candidate-network machinery from
//!   scratch ([`NonAnswerDebugger::new`]), and answer the same workload from
//!   a stone-cold cache.
//!
//! Both arms produce bit-identical reports (`tests/mutation_equivalence.rs`
//! is the enforcing differential suite), so wall-clock is a like-for-like
//! comparison. `phases` on each emitted record carries the round's report
//! phase timings, accumulated over its queries; `phases.total` is the whole
//! round's wall-clock, the arm's setup (session handoff vs full rebuild)
//! included. The printed table shows the setup share on its own. Target:
//! incremental total ≥ 2× faster across rounds.
//!
//! Usage: `exp_mutate [--scale S] [--max-level N] [--seed N]` (default scale
//! small, level 3). Emits one record per (round, arm) to
//! `results/BENCH_exp_mutate.json`.

use std::time::Instant;

use bench::{build_mutable_system, emit_metrics, mutable_session_config, print_table, ExpArgs};
use datagen::paper_queries;
use kwdebug::debugger::NonAnswerDebugger;
use kwdebug::metrics::MetricsSnapshot;
use kwdebug::mutable::MutableDatabase;
use kwdebug::report::DebugReport;
use kwdebug::traversal::StrategyKind;
use relengine::Value;

const STRATEGY: StrategyKind = StrategyKind::ScoreBasedHeuristic;
const ROUNDS: usize = 6;
const QUERIES: usize = 6;

/// One round's write batch: keyword-bearing appends (so invalidation has
/// real work to do), join links, an in-place update and a tombstone.
fn apply_batch(m: &mut MutableDatabase, round: usize) {
    let publication = m.table_id("publication").expect("dblife schema");
    let writes = m.table_id("writes").expect("dblife schema");
    let base = 1_000_000 + round as i64 * 100;
    let titles = [
        format!("Trio lineage retrospective {round}"),
        format!("VLDB demo treasures {round}"),
        format!("Keyword search over streams {round}"),
        format!("XML histograms revisited {round}"),
        format!("SIGMOD reflections {round}"),
        format!("Probabilistic data cleaning {round}"),
        format!("Graph maintenance notes {round}"),
        format!("Storage engine internals {round}"),
    ];
    let rows: Vec<Vec<Value>> = titles
        .iter()
        .enumerate()
        .map(|(i, t)| vec![Value::Int(base + i as i64), Value::text(t.clone())])
        .collect();
    let ids = m.append_rows(publication, rows).expect("append batch");
    // Spread authorship over the paper's anchor people (Widom, Hristidis,
    // DeRose, Gray) so several workload queries gain or lose join paths.
    m.append_rows(
        writes,
        vec![
            vec![Value::Int(1), Value::Int(base)],
            vec![Value::Int(2), Value::Int(base + 2)],
            vec![Value::Int(6), Value::Int(base + 1)],
            vec![Value::Int(7), Value::Int(base + 4)],
        ],
    )
    .expect("append links");
    m.update_row(
        publication,
        ids[6],
        vec![Value::Int(base + 6), Value::text(format!("Stream histograms survey {round}"))],
    )
    .expect("update");
    m.delete_row(publication, ids[7]).expect("delete");
}

fn run_workload(
    debug: impl Fn(&str) -> DebugReport,
    round: usize,
    arm: &'static str,
    args: &ExpArgs,
    max_level: usize,
    setup: std::time::Duration,
) -> MetricsSnapshot {
    let t0 = Instant::now();
    let mut rec = MetricsSnapshot {
        experiment: "exp_mutate".to_owned(),
        query: format!("round{round}"),
        strategy: STRATEGY.to_string(),
        variant: arm.to_owned(),
        scale: args.scale.name().to_owned(),
        max_level: max_level as u64,
        interpretations: 0,
        lattice_bytes: 0,
        probes: Default::default(),
        phases: Default::default(),
        prune: None,
        levels: Vec::new(),
    };
    for q in paper_queries().iter().take(QUERIES) {
        let report = debug(q.text);
        rec.interpretations += report.interpretations.len() as u64;
        rec.probes.accumulate(report.probes());
        rec.phases.accumulate(&report.timing);
    }
    rec.phases.total = setup + t0.elapsed();
    rec
}

fn main() {
    let args = ExpArgs::parse();
    let max_level = args.max_level.unwrap_or(3);
    println!(
        "== Extension: mutable databases, incremental vs drop-and-rebuild \
         (scale {:?}, level {max_level}, {STRATEGY}) ==\n",
        args.scale
    );

    let mut m = build_mutable_system(args.scale, args.seed, max_level);
    m.share_eval_cache(None);
    let config = kwdebug::debugger::DebugConfig {
        strategy: STRATEGY,
        eval_cache: true,
        ..mutable_session_config(max_level)
    };

    // Warm start: one full pass before any write, as a long-lived service
    // would have.
    {
        let s = m.session(config).expect("session");
        for q in paper_queries().iter().take(QUERIES) {
            s.debug(q.text).expect("warmup");
        }
    }

    let mut records = Vec::new();
    let mut table = Vec::new();
    let (mut inc_total, mut reb_total) = (0.0f64, 0.0f64);
    for round in 0..ROUNDS {
        apply_batch(&mut m, round);

        let t0 = Instant::now();
        let session = m.session(config).expect("session");
        let inc_setup = t0.elapsed();
        let inc = run_workload(
            |q| session.debug(q).expect("clean"),
            round,
            "incremental",
            &args,
            max_level,
            inc_setup,
        );
        drop(session);

        let t0 = Instant::now();
        let fresh = NonAnswerDebugger::new(m.database().clone(), config).expect("rebuild");
        let reb_setup = t0.elapsed();
        let reb = run_workload(
            |q| fresh.debug(q).expect("clean"),
            round,
            "rebuild",
            &args,
            max_level,
            reb_setup,
        );

        inc_total += inc.phases.total.as_secs_f64();
        reb_total += reb.phases.total.as_secs_f64();
        for (r, setup) in [(&inc, inc_setup), (&reb, reb_setup)] {
            table.push(vec![
                format!("round{round}"),
                r.variant.clone(),
                format!("{:.2}", setup.as_secs_f64() * 1e3),
                format!("{:.2}", r.phases.total.as_secs_f64() * 1e3),
                r.probes.probes_executed.to_string(),
                r.probes.selection_cache_hits.to_string(),
                r.probes.delta_postings_merged.to_string(),
                r.probes.entries_invalidated.to_string(),
                r.probes.compactions.to_string(),
                r.probes.epoch.to_string(),
            ]);
        }
        records.push(inc);
        records.push(reb);
    }

    print_table(
        &[
            "round", "arm", "setup ms", "total ms", "probes", "sel-hit", "delta-merge",
            "invalidated", "compactions", "epoch",
        ],
        &table,
    );

    let ratio = reb_total / inc_total;
    println!(
        "\nround totals over {ROUNDS} rounds x {QUERIES} queries: \
         incremental {:.1} ms, rebuild {:.1} ms",
        inc_total * 1e3,
        reb_total * 1e3
    );
    println!(
        "rebuild/incremental speedup: {ratio:.2}x ({})",
        if ratio >= 2.0 { "target >=2x met" } else { "BELOW the 2x target" }
    );
    emit_metrics("exp_mutate", &records);
}
