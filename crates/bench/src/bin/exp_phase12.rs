//! Experiment E3/E4 — §3.3 and Figure 10: keyword mapping and pruning.
//!
//! Per workload query: keyword-to-schema mapping time, lattice nodes
//! retained after keyword pruning (and the pruning percentage), number of
//! MTNs, their total descendants and unique descendants. Paper shape:
//! mapping is milliseconds; pruning removes the overwhelming majority of
//! lattice nodes (98% on average at level 5); queries with high descendant
//! overlap (few unique descendants) are the ones reuse helps most.
//!
//! With `--throughput N` the binary additionally runs the sustained
//! multi-query mode of experiment E14: N workload queries back to back over
//! the one shared lattice, one warm-up pass and then nine measured ones,
//! reporting queries/sec, per-phase µs per query (Phase 1–2 as the median
//! and interquartile range over the passes) and heap allocations per query
//! (counted by a wrapping global allocator). This is the before/after
//! yardstick for the compact lattice substrate (DESIGN.md §9).
//!
//! Usage: `exp_phase12 [--scale S] [--max-level N] [--throughput N]`
//! (default max level 5).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bench::{build_system, emit_metrics, print_table, run_query, ExpArgs};
use datagen::paper_queries;
use kwdebug::metrics::{MetricsSnapshot, PhaseTiming};
use kwdebug::traversal::StrategyKind;

/// Wraps the system allocator to count heap allocations, so the throughput
/// mode can report allocations per query without external tooling.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    let args = ExpArgs::parse();
    let max_level = args.max_level.unwrap_or(5);
    println!(
        "== §3.3 / Figure 10: phases 1-2 (scale {:?}, level {max_level}) ==\n",
        args.scale
    );
    let system = build_system(args.scale, args.seed, max_level);
    let lattice_nodes = system.lattice().node_count();
    println!("offline lattice: {lattice_nodes} nodes\n");

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut prune_pct_sum = 0.0;
    for q in paper_queries() {
        let agg = run_query(&system, q.text, StrategyKind::BottomUpWithReuse)
            .expect("workload query runs");
        let mut rec = agg.snapshot("exp_phase12", q.id, "BUWR", args.scale, max_level);
        rec.levels = system.lattice().stats().to_vec();
        rec.lattice_bytes = system.lattice().memory_footprint().total_bytes() as u64;
        records.push(rec);
        let prune_pct = 100.0
            * (1.0 - agg.prune.retained_phase1 as f64 / (lattice_nodes * agg.interpretations.max(1)) as f64);
        prune_pct_sum += prune_pct;
        rows.push(vec![
            q.id.to_string(),
            agg.interpretations.to_string(),
            bench::ms(agg.mapping_time),
            agg.prune.retained_phase1.to_string(),
            format!("{prune_pct:.1}"),
            agg.prune.mtn_count.to_string(),
            agg.prune.mtn_descendants_total.to_string(),
            agg.prune.mtn_descendants_unique.to_string(),
        ]);
    }
    print_table(
        &["query", "interp", "map_ms", "retained", "pruned%", "MTNs", "desc", "uniq_desc"],
        &rows,
    );
    println!("\naverage pruning: {:.1}% of lattice nodes removed\n", prune_pct_sum / 10.0);

    if let Some(n) = args.throughput {
        records.push(run_throughput(&system, n, args, max_level));
    }
    emit_metrics("exp_phase12", &records);
}

/// Measured passes of the E14 throughput mode, after one warm-up pass.
const PASSES: usize = 9;

/// E14: sustained Phase 1–2 throughput over the shared lattice. One
/// warm-up pass, then [`PASSES`] measured ones; the record carries the
/// median pass's timings, the median and interquartile range of per-query
/// Phase 1–2 µs over all passes (in its variant), allocations per query
/// over all passes, and one pass's `prune` counts (every pass repeats them).
fn run_throughput(
    system: &kwdebug::debugger::NonAnswerDebugger,
    n: usize,
    args: ExpArgs,
    max_level: usize,
) -> MetricsSnapshot {
    println!("== E14: sustained phase 1-2 throughput ({n} queries, {PASSES} passes) ==\n");
    bench::run_phase12_throughput(system, n);
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let mut passes: Vec<_> =
        (0..PASSES).map(|_| bench::run_phase12_throughput(system, n)).collect();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let allocs_per_query = allocs / (n * PASSES).max(1) as u64;
    let per_query_us = |d: std::time::Duration| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    passes.sort_by_key(|r| r.pruning);
    let prune_us: Vec<f64> = passes.iter().map(|r| per_query_us(r.pruning)).collect();
    let quartile = |q: usize| prune_us[(prune_us.len() - 1) * q / 4];
    let (prune_median, prune_iqr) = (quartile(2), quartile(3) - quartile(1));
    let rep = &passes[PASSES / 2];
    print_table(
        &[
            "queries", "interp", "q/s", "query_us", "map_us", "prune12_us", "prune12_iqr",
            "allocs/q",
        ],
        &[vec![
            rep.queries.to_string(),
            rep.interpretations.to_string(),
            format!("{:.0}", rep.queries_per_sec()),
            format!("{:.1}", per_query_us(rep.wall)),
            format!("{:.1}", per_query_us(rep.mapping)),
            format!("{prune_median:.2}"),
            format!("{prune_iqr:.2}"),
            allocs_per_query.to_string(),
        ]],
    );
    println!();
    let mut rec = MetricsSnapshot {
        experiment: "exp_phase12".to_owned(),
        query: "THROUGHPUT".to_owned(),
        strategy: "NONE".to_owned(),
        variant: format!(
            "throughput={n};substrate={};allocs_per_query={allocs_per_query};\
             passes={PASSES};prune12_us_median={prune_median:.2};prune12_us_iqr={prune_iqr:.2}",
            substrate_name()
        ),
        scale: args.scale.name().to_owned(),
        max_level: max_level as u64,
        interpretations: rep.interpretations as u64,
        lattice_bytes: system.lattice().memory_footprint().total_bytes() as u64,
        probes: Default::default(),
        phases: PhaseTiming {
            mapping: rep.mapping,
            pruning: rep.pruning,
            total: rep.wall,
            ..PhaseTiming::default()
        },
        prune: Some(rep.prune.clone()),
        levels: Vec::new(),
    };
    rec.probes.phase1_nodes_touched = rep.phase1_nodes_touched;
    rec
}

/// Label of the Phase 1–2 substrate in effect, recorded in the bench variant
/// so before/after rows are distinguishable in `results/`.
fn substrate_name() -> &'static str {
    kwdebug::prune::SUBSTRATE
}
