//! Experiment E5/E6 — Figures 11 and 12: traversal strategy comparison.
//!
//! Per workload query and per strategy (BU, BUWR, TD, TDWR, SBH): the number
//! of SQL queries executed and the time spent executing them. Paper shape:
//! the with-reuse variants beat their plain counterparts (dramatically for
//! high-overlap queries like Q3 and Q8); SBH is competitive everywhere.
//!
//! Usage: `exp_traversal [--scale S] [--max-level N]` (default N=5).

use bench::{build_system, emit_metrics, print_table, run_query, ExpArgs};
use datagen::paper_queries;
use kwdebug::traversal::StrategyKind;

fn main() {
    let args = ExpArgs::parse();
    let max_level = args.max_level.unwrap_or(5);
    println!(
        "== Figures 11/12: SQL queries and time per strategy (scale {:?}, level {max_level}) ==\n",
        args.scale
    );
    let system = build_system(args.scale, args.seed, max_level);
    let lattice_bytes = system.lattice().memory_footprint().total_bytes() as u64;

    let mut count_rows = Vec::new();
    let mut time_rows = Vec::new();
    let mut records = Vec::new();
    for q in paper_queries() {
        let mut counts = vec![q.id.to_string()];
        let mut times = vec![q.id.to_string()];
        for kind in StrategyKind::ALL {
            let agg = run_query(&system, q.text, kind).expect("workload query runs");
            counts.push(agg.sql_queries.to_string());
            times.push(bench::ms(agg.sql_time));
            let mut rec =
                agg.snapshot("exp_traversal", q.id, &kind.to_string(), args.scale, max_level);
            rec.lattice_bytes = lattice_bytes;
            records.push(rec);
        }
        count_rows.push(counts);
        time_rows.push(times);
    }

    let headers = ["query", "BU", "BUWR", "TD", "TDWR", "SBH"];
    println!("Figure 11 — number of SQL queries executed:");
    print_table(&headers, &count_rows);
    println!("\nFigure 12 — SQL execution time (ms):");
    print_table(&headers, &time_rows);
    println!();
    emit_metrics("exp_traversal", &records);
}
