//! Shared infrastructure for the experiment binaries and benches.
//!
//! Every table and figure of the paper's evaluation (§3) has a dedicated
//! binary under `src/bin/` (see `DESIGN.md` for the experiment index). They
//! all share the same setup path: generate the synthetic DBLife database at a
//! chosen scale, build the offline system (inverted index + lattice) at a
//! chosen `maxJoins`, then run the Table 2 workload through whatever
//! combination of traversal strategies and baselines the experiment needs.
//!
//! Command-line conventions (hand-rolled; every binary accepts):
//!
//! * `--scale tiny|small|medium|paper` — dataset size (default `small`);
//! * `--max-level N` — lattice levels, i.e. `maxJoins = N - 1` (binaries
//!   pick their own paper-matching defaults);
//! * `--seed N` — data generator seed (default 7).

pub mod harness;

use std::time::Duration;

use datagen::{generate_dblife, DblifeConfig};
use kwdebug::baseline::{run_return_everything, run_return_nothing, ReOutcome, RnOutcome};
use kwdebug::binding::{map_keywords, KeywordQuery};
use kwdebug::budget::{ProbeBudget, RetryPolicy};
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::metrics::{MetricsSnapshot, PhaseTiming, ProbeCounters};
use kwdebug::oracle::AlivenessOracle;
use kwdebug::prune::{PruneStats, PrunedLattice};
use kwdebug::traversal::{self, StrategyKind, TraversalOutcome};
use kwdebug::KwError;
use relengine::FaultConfig;

/// Dataset scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataScale {
    /// ~500 tuples.
    Tiny,
    /// ~4k tuples.
    Small,
    /// ~30k tuples.
    Medium,
    /// ~800k tuples, approximating the paper's snapshot.
    Paper,
}

impl DataScale {
    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<DataScale> {
        match s {
            "tiny" => Some(DataScale::Tiny),
            "small" => Some(DataScale::Small),
            "medium" => Some(DataScale::Medium),
            "paper" => Some(DataScale::Paper),
            _ => None,
        }
    }

    /// The canonical scale name (inverse of [`DataScale::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            DataScale::Tiny => "tiny",
            DataScale::Small => "small",
            DataScale::Medium => "medium",
            DataScale::Paper => "paper",
        }
    }

    /// The generator configuration for this scale.
    pub fn config(self, seed: u64) -> DblifeConfig {
        let mut cfg = match self {
            DataScale::Tiny => DblifeConfig::tiny(),
            DataScale::Small => DblifeConfig::small(),
            DataScale::Medium => DblifeConfig::medium(),
            DataScale::Paper => DblifeConfig::paper_scale(),
        };
        cfg.seed = seed;
        cfg
    }
}

/// Parsed common command-line arguments.
#[derive(Debug, Clone, Copy)]
pub struct ExpArgs {
    /// Dataset scale.
    pub scale: DataScale,
    /// Lattice levels (`maxJoins + 1`); `None` means the binary's default.
    pub max_level: Option<usize>,
    /// Generator seed.
    pub seed: u64,
    /// Sustained multi-query throughput mode: run this many queries over one
    /// shared lattice (used by `exp_phase12`; ignored by other binaries).
    pub throughput: Option<usize>,
}

impl ExpArgs {
    /// Parses `std::env::args`, exiting with a usage message on errors.
    pub fn parse() -> ExpArgs {
        let mut out =
            ExpArgs { scale: DataScale::Small, max_level: None, seed: 7, throughput: None };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let value = |i: usize| -> &str {
                args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                    eprintln!("missing value for {}", args[i]);
                    std::process::exit(2);
                })
            };
            match args[i].as_str() {
                "--scale" => {
                    out.scale = DataScale::parse(value(i)).unwrap_or_else(|| {
                        eprintln!("unknown scale `{}` (tiny|small|medium|paper)", args[i + 1]);
                        std::process::exit(2);
                    });
                    i += 2;
                }
                "--max-level" => {
                    out.max_level = Some(value(i).parse().unwrap_or_else(|_| {
                        eprintln!("--max-level expects a number");
                        std::process::exit(2);
                    }));
                    i += 2;
                }
                "--seed" => {
                    out.seed = value(i).parse().unwrap_or_else(|_| {
                        eprintln!("--seed expects a number");
                        std::process::exit(2);
                    });
                    i += 2;
                }
                "--throughput" => {
                    out.throughput = Some(value(i).parse().unwrap_or_else(|_| {
                        eprintln!("--throughput expects a number of queries");
                        std::process::exit(2);
                    }));
                    i += 2;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --scale tiny|small|medium|paper  --max-level N  --seed N  \
                         --throughput N"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument `{other}`");
                    std::process::exit(2);
                }
            }
        }
        out
    }
}

/// Builds the full system (data + index + lattice) for an experiment.
pub fn build_system(scale: DataScale, seed: u64, max_level: usize) -> NonAnswerDebugger {
    let db = generate_dblife(&scale.config(seed));
    NonAnswerDebugger::new(
        db,
        DebugConfig {
            max_joins: max_level.saturating_sub(1),
            sample_limit: 0,
            ..DebugConfig::default()
        },
    )
    .expect("valid experiment configuration")
}

/// The session configuration matching [`build_system`], for sessions built
/// over a [`build_mutable_system`] coordinator.
pub fn mutable_session_config(max_level: usize) -> DebugConfig {
    DebugConfig {
        max_joins: max_level.saturating_sub(1),
        sample_limit: 0,
        ..DebugConfig::default()
    }
}

/// Builds the full system under the single-writer mutable coordinator
/// ([`kwdebug::MutableDatabase`]): same data, index and lattice as
/// [`build_system`], but writable between debug sessions — the substrate of
/// the mutation experiments (E19) and the REPL's `:mutate`.
pub fn build_mutable_system(
    scale: DataScale,
    seed: u64,
    max_level: usize,
) -> kwdebug::MutableDatabase {
    let db = generate_dblife(&scale.config(seed));
    kwdebug::MutableDatabase::new(db, max_level.saturating_sub(1))
        .expect("valid experiment configuration")
}

/// Aggregate of one query's Phase 1-3 run under one strategy, summed over
/// interpretations.
#[derive(Debug, Clone, Default)]
pub struct QueryAggregate {
    /// Interpretations explored.
    pub interpretations: usize,
    /// Answer queries (alive MTNs).
    pub answers: usize,
    /// Non-answer queries (dead MTNs).
    pub non_answers: usize,
    /// MPANs reported (per dead MTN, with cross-MTN duplicates).
    pub mpans: usize,
    /// Distinct MPAN nodes (per interpretation, summed).
    pub mpans_unique: usize,
    /// SQL queries executed by the traversal.
    pub sql_queries: u64,
    /// Wall time spent executing SQL.
    pub sql_time: Duration,
    /// Phase 1/2 statistics summed over interpretations.
    pub prune: PruneStats,
    /// Keyword-to-schema mapping time.
    pub mapping_time: Duration,
    /// Probe/inference counters summed over interpretations
    /// (`probes.probes_executed` always equals `sql_queries`).
    pub probes: ProbeCounters,
    /// Per-phase wall-clock breakdown summed over interpretations.
    pub phases: PhaseTiming,
    /// MTNs left `Unknown` by degraded (chaos/budget) runs; 0 on clean runs.
    pub unknowns: usize,
}

impl QueryAggregate {
    /// Total MTNs.
    pub fn mtns(&self) -> usize {
        self.answers + self.non_answers
    }

    /// Converts this aggregate into a machine-readable metrics record (see
    /// [`kwdebug::metrics::MetricsSnapshot`]).
    pub fn snapshot(
        &self,
        experiment: &str,
        query: &str,
        strategy: &str,
        scale: DataScale,
        max_level: usize,
    ) -> MetricsSnapshot {
        MetricsSnapshot {
            experiment: experiment.to_owned(),
            query: query.to_owned(),
            strategy: strategy.to_owned(),
            variant: String::new(),
            scale: scale.name().to_owned(),
            max_level: max_level as u64,
            interpretations: self.interpretations as u64,
            lattice_bytes: 0,
            probes: self.probes,
            phases: self.phases,
            prune: Some(self.prune.clone()),
            levels: Vec::new(),
        }
    }
}

/// Writes newline-delimited metrics records to `results/BENCH_<experiment>.json`
/// via the shared writer ([`harness::write_records`]), echoing each JSON line
/// to stdout (prefixed `BENCH_JSON `).
pub fn emit_metrics(experiment: &str, records: &[MetricsSnapshot]) {
    let lines: Vec<String> = records.iter().map(MetricsSnapshot::to_json).collect();
    harness::write_records(experiment, &lines);
}

/// Robustness knobs for [`run_query_with`]: deterministic fault injection,
/// a per-interpretation probe budget, and the transient-retry policy.
/// `Default` reproduces [`run_query`] exactly (no chaos, unlimited budget).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunKnobs {
    /// Deterministic fault injection, when `Some`.
    pub chaos: Option<FaultConfig>,
    /// Per-interpretation probe budget.
    pub budget: Option<ProbeBudget>,
    /// Transient-failure retry policy (`None` = oracle default).
    pub retry: Option<RetryPolicy>,
}

/// Runs one workload query under one strategy against a prepared system,
/// without report sampling, and aggregates over interpretations.
pub fn run_query(
    system: &NonAnswerDebugger,
    text: &str,
    strategy: StrategyKind,
) -> Result<QueryAggregate, KwError> {
    run_query_with(system, text, strategy, RunKnobs::default())
}

/// [`run_query`] with robustness knobs ([`RunKnobs`]): the chaos-sweep
/// experiment uses this to measure degraded-mode behavior per strategy.
pub fn run_query_with(
    system: &NonAnswerDebugger,
    text: &str,
    strategy: StrategyKind,
    knobs: RunKnobs,
) -> Result<QueryAggregate, KwError> {
    let mut agg = QueryAggregate::default();
    let query = KeywordQuery::parse(text)?;
    let t0 = std::time::Instant::now();
    let mapping = map_keywords(&query, system.index());
    agg.mapping_time = t0.elapsed();
    agg.phases.mapping = agg.mapping_time;
    for interp in &mapping.interpretations {
        agg.interpretations += 1;
        let prune_start = std::time::Instant::now();
        let pruned = PrunedLattice::build(system.lattice(), interp);
        agg.phases.pruning += prune_start.elapsed();
        let mut oracle = AlivenessOracle::new(
            system.database(),
            Some(system.index()),
            interp,
            &mapping.keywords,
            false,
        );
        if let Some(budget) = knobs.budget {
            oracle = oracle.with_budget(budget);
        }
        if let Some(retry) = knobs.retry {
            oracle = oracle.with_retry(retry);
        }
        if let Some(chaos) = knobs.chaos {
            oracle = oracle.with_chaos(chaos);
        }
        let trav_start = std::time::Instant::now();
        let outcome = traversal::run(strategy, system.lattice(), &pruned, &mut oracle, 0.5)?;
        agg.phases.traversal += trav_start.elapsed();
        accumulate(&mut agg, &pruned, &outcome);
    }
    agg.phases.sql = agg.sql_time;
    agg.phases.total = t0.elapsed();
    Ok(agg)
}

/// Outcome of the sustained Phase 1–2 throughput mode (experiment E14):
/// `queries` keyword queries answered back to back over one shared lattice,
/// running keyword mapping plus the full Phase 1–2 pipeline
/// ([`PrunedLattice`] construction) for every interpretation, without
/// Phase 3 probing. This isolates exactly the per-query substrate cost the
/// compact-lattice refactor targets.
#[derive(Debug, Clone, Default)]
pub struct ThroughputReport {
    /// Queries executed.
    pub queries: usize,
    /// Interpretations pruned (Σ over queries).
    pub interpretations: usize,
    /// Total wall-clock for the whole run.
    pub wall: Duration,
    /// Time in keyword-to-schema mapping.
    pub mapping: Duration,
    /// Time in Phase 1–2 (`PrunedLattice` construction).
    pub pruning: Duration,
    /// Prune statistics summed over interpretations.
    pub prune: PruneStats,
    /// Copy-set index entries read by Phase 1 (lookups plus total node ids).
    pub phase1_nodes_touched: u64,
    /// Number of `PrunedLattice` builds that reused pooled scratch.
    pub workspace_reuses: u64,
}

impl ThroughputReport {
    /// Queries per second over the whole run.
    pub fn queries_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.queries as f64 / self.wall.as_secs_f64()
        }
    }
}

/// Runs the sustained Phase 1–2 throughput mode: `n` queries drawn
/// round-robin from the Table 2 workload, mapped and pruned over the one
/// shared lattice in `system`. Returns per-phase totals; callers derive
/// queries/sec and per-query µs.
pub fn run_phase12_throughput(system: &NonAnswerDebugger, n: usize) -> ThroughputReport {
    let workload = datagen::paper_queries();
    let mut rep = ThroughputReport::default();
    let mut ws = kwdebug::workspace::QueryWorkspace::new();
    let t_all = std::time::Instant::now();
    for qi in 0..n {
        let q = &workload[qi % workload.len()];
        let t0 = std::time::Instant::now();
        let query = KeywordQuery::parse(q.text).expect("workload query parses");
        let mapping = map_keywords(&query, system.index());
        rep.mapping += t0.elapsed();
        for interp in &mapping.interpretations {
            let t1 = std::time::Instant::now();
            let pruned = PrunedLattice::build_with(system.lattice(), interp, &mut ws);
            rep.pruning += t1.elapsed();
            rep.interpretations += 1;
            rep.phase1_nodes_touched += pruned.phase1_nodes_touched();
            let s = pruned.stats();
            rep.prune.lattice_nodes = s.lattice_nodes;
            rep.prune.retained_phase1 += s.retained_phase1;
            rep.prune.total_nodes += s.total_nodes;
            rep.prune.mtn_count += s.mtn_count;
            rep.prune.pruned_nodes += s.pruned_nodes;
            rep.prune.mtn_descendants_total += s.mtn_descendants_total;
            rep.prune.mtn_descendants_unique += s.mtn_descendants_unique;
        }
        rep.queries += 1;
    }
    rep.wall = t_all.elapsed();
    // Every build after the first reused the warmed workspace buffers.
    rep.workspace_reuses = ws.builds().saturating_sub(1);
    rep
}

/// Runs the Return-Everything baseline for one query.
pub fn run_re(system: &NonAnswerDebugger, text: &str) -> Result<QueryAggregate, KwError> {
    let mut agg = QueryAggregate::default();
    let query = KeywordQuery::parse(text)?;
    let t0 = std::time::Instant::now();
    let mapping = map_keywords(&query, system.index());
    agg.mapping_time = t0.elapsed();
    agg.phases.mapping = agg.mapping_time;
    for interp in &mapping.interpretations {
        agg.interpretations += 1;
        let prune_start = std::time::Instant::now();
        let pruned = PrunedLattice::build(system.lattice(), interp);
        agg.phases.pruning += prune_start.elapsed();
        let mut oracle = AlivenessOracle::new(
            system.database(),
            Some(system.index()),
            interp,
            &mapping.keywords,
            false,
        );
        let trav_start = std::time::Instant::now();
        let ReOutcome { outcome } = run_return_everything(system.lattice(), &pruned, &mut oracle)?;
        agg.phases.traversal += trav_start.elapsed();
        accumulate(&mut agg, &pruned, &outcome);
    }
    agg.phases.sql = agg.sql_time;
    agg.phases.total = t0.elapsed();
    Ok(agg)
}

/// Runs the Return-Nothing baseline for one query.
pub fn run_rn(system: &NonAnswerDebugger, text: &str) -> Result<RnOutcome, KwError> {
    let query = KeywordQuery::parse(text)?;
    run_return_nothing(system.database(), system.index(), system.lattice(), &query)
}

fn accumulate(agg: &mut QueryAggregate, pruned: &PrunedLattice, outcome: &TraversalOutcome) {
    agg.answers += outcome.alive_mtns.len();
    agg.non_answers += outcome.dead_mtns.len();
    agg.mpans += outcome.mpan_total();
    agg.mpans_unique += outcome.mpan_unique();
    agg.sql_queries += outcome.sql_queries;
    agg.sql_time += outcome.sql_time;
    agg.probes.accumulate(outcome.probes);
    agg.unknowns += outcome.unknown_mtns.len();
    let s = pruned.stats();
    agg.prune.lattice_nodes = s.lattice_nodes;
    agg.prune.retained_phase1 += s.retained_phase1;
    agg.prune.total_nodes += s.total_nodes;
    agg.prune.mtn_count += s.mtn_count;
    agg.prune.pruned_nodes += s.pruned_nodes;
    agg.prune.mtn_descendants_total += s.mtn_descendants_total;
    agg.prune.mtn_descendants_unique += s.mtn_descendants_unique;
}

/// Renders a text table with right-aligned columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        println!("{}", joined.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Formats a duration in milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse() {
        assert_eq!(DataScale::parse("tiny"), Some(DataScale::Tiny));
        assert_eq!(DataScale::parse("paper"), Some(DataScale::Paper));
        assert_eq!(DataScale::parse("huge"), None);
    }

    #[test]
    fn run_query_tiny_end_to_end() {
        let sys = build_system(DataScale::Tiny, 7, 3);
        let agg = run_query(&sys, "Widom Trio", StrategyKind::ScoreBasedHeuristic).unwrap();
        assert!(agg.interpretations >= 1);
        // Widom authors the Trio paper: at least one answer at level 3.
        assert!(agg.answers >= 1, "{agg:?}");
    }

    #[test]
    fn baselines_run() {
        let sys = build_system(DataScale::Tiny, 7, 3);
        let re = run_re(&sys, "DeRose VLDB").unwrap();
        let rn = run_rn(&sys, "DeRose VLDB").unwrap();
        assert!(re.sql_queries > 0);
        assert_eq!(rn.submissions, 3); // full + two singletons
        assert!(rn.sql_queries > 0);
    }
}
