//! Phase 3: lattice traversal strategies.
//!
//! Given the pruned sub-lattice (MTNs and their descendants), Phase 3 must
//! classify every MTN as **alive** (answer query) or **dead** (non-answer
//! query) and, for every dead MTN, find its **MPANs** — the maximal partially
//! alive nodes, i.e. alive descendants none of whose ancestors within the
//! MTN's sub-lattice is alive. The classification rules
//!
//! * **R1**: a node is alive ⇒ all of its descendants are alive,
//! * **R2**: a node has a dead descendant ⇒ it is dead,
//!
//! let a traversal *infer* the status of many nodes instead of executing
//! their SQL queries; strategies differ in the order they pick nodes and in
//! whether executions are shared across MTNs:
//!
//! | strategy | order | sharing | module |
//! |---|---|---|---|
//! | [`StrategyKind::BottomUp`] (BU) | per MTN, level ascending | none | `sweep` |
//! | [`StrategyKind::TopDown`] (TD) | per MTN, level descending | none | `sweep` |
//! | [`StrategyKind::BottomUpWithReuse`] (BUWR, Algorithm 3) | level ascending | global | `sweep` |
//! | [`StrategyKind::TopDownWithReuse`] (TDWR) | level descending | global | `sweep` |
//! | [`StrategyKind::ScoreBasedHeuristic`] (SBH, §2.5.3) | greedy by score | global | `sbh` |
//! | [`StrategyKind::BruteForce`] | every node | global (oracle only) | `brute` |
//!
//! All strategies return identical classifications and MPAN sets — they only
//! differ in the number of SQL queries executed, which is exactly what the
//! paper measures (Figures 11–12, Table 4). The four level-order strategies
//! are one `Sweep`, built from the direction and scope the kind implies;
//! brute force stays separate as the reference the tests compare against.
//!
//! Every traversal is instrumented through the oracle's
//! [`crate::metrics::ProbeCounters`] block: [`run`] copies the counters
//! before and after the strategy and attributes the delta to the returned
//! [`TraversalOutcome::probes`] — probes executed, R1/R2 inferences fired,
//! and visits skipped on already-classified nodes (`reuse_hits`, the
//! quantity Figure 13's reuse percentage predicts).
//!
//! ## Degraded mode
//!
//! When the oracle runs under a [`crate::budget::ProbeBudget`] or a fault
//! injector, a probe can come back without a verdict: *abandoned* (this
//! node failed permanently — skip it, keep traversing) or *exhausted* (the
//! budget tripped — stop probing altogether). Strategies never error out in
//! either case; they classify what they can and return a **partial**
//! [`TraversalOutcome`]: unclassified MTNs land in
//! [`TraversalOutcome::unknown_mtns`], and each dead MTN's MPAN frontier is
//! reported as sound lower/upper bounds —
//! [`TraversalOutcome::mpans`] holds *confirmed* MPANs (alive, every parent
//! inside the cone known dead) while [`TraversalOutcome::possible_mpans`]
//! holds the remaining candidates (not known dead, no in-cone parent known
//! alive) that unresolved statuses kept from being confirmed or ruled out.
//! On a complete run both `unknown_mtns` and every `possible_mpans` entry
//! are empty and the outcome is exactly the happy-path one.
//!
//! ## One node at a time
//!
//! Every strategy is implemented as a `Frontier`: a state machine that
//! names the next dense node to visit instead of probing it itself. One
//! driver loop (`drive`) takes the nodes in that order and runs the
//! per-node protocol (`visit`: reuse check → memo check → cache shortcut →
//! budget → probe → apply) for every configuration: each probe runs inline
//! on the oracle's engine, through the [`crate::batch`] single-flight table
//! when an exchange is attached, and is applied before the next node is
//! named — the paper's probe, infer, pick-next loop (§2.5, Algorithm 3).
//! The interactive [`crate::session::DebugSession`] steps the SBH frontier
//! through the same `visit`. Every rule firing goes through one helper,
//! `settle`. DESIGN.md §8.2 argues why every configuration reports the
//! same classification and MPAN sets.

mod brute;
mod sbh;
mod sweep;

use std::time::Duration;

pub(crate) use sbh::SbhFrontier;
pub use sbh::DEFAULT_PA;

use crate::batch::WaveExchange;
use crate::budget::Exhausted;
use crate::error::KwError;
use crate::lattice::Lattice;
use crate::metrics::ProbeCounters;
use crate::oracle::{AlivenessOracle, Probe};
use crate::prune::PrunedLattice;
use crate::session::StepOutcome;

/// Selects a Phase-3 traversal strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Per-MTN bottom-up traversal (BU).
    BottomUp,
    /// Per-MTN top-down traversal (TD).
    TopDown,
    /// Bottom-up over all MTNs simultaneously (BUWR, the paper's Algorithm 3).
    BottomUpWithReuse,
    /// Top-down over all MTNs simultaneously (TDWR).
    TopDownWithReuse,
    /// Greedy score-based heuristic (SBH, §2.5.3) with `p_a = 0.5`.
    ScoreBasedHeuristic,
    /// Executes every node; the ground-truth reference.
    BruteForce,
}

impl StrategyKind {
    /// All strategies in the paper's presentation order.
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::BottomUp,
        StrategyKind::BottomUpWithReuse,
        StrategyKind::TopDown,
        StrategyKind::TopDownWithReuse,
        StrategyKind::ScoreBasedHeuristic,
    ];

    /// Short display name matching the paper's abbreviations.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::BottomUp => "BU",
            StrategyKind::TopDown => "TD",
            StrategyKind::BottomUpWithReuse => "BUWR",
            StrategyKind::TopDownWithReuse => "TDWR",
            StrategyKind::ScoreBasedHeuristic => "SBH",
            StrategyKind::BruteForce => "BRUTE",
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Classification state of a node during traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Not yet classified ("possibly alive" in the paper).
    Unknown,
    /// Returns at least one tuple.
    Alive,
    /// Returns no tuples.
    Dead,
}

/// Result of a Phase-3 traversal; partial when probing was cut short.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraversalOutcome {
    /// Dense indices of MTNs classified alive (answer queries), ascending.
    pub alive_mtns: Vec<usize>,
    /// Dense indices of MTNs classified dead (non-answer queries), ascending.
    pub dead_mtns: Vec<usize>,
    /// For each dead MTN (aligned with `dead_mtns`), its *confirmed* MPANs
    /// ascending: alive nodes all of whose parents inside the MTN's cone are
    /// known dead. On a complete run this is the exact MPAN set (the sound
    /// lower bound equals the truth).
    pub mpans: Vec<Vec<usize>>,
    /// For each dead MTN (aligned with `dead_mtns`), *additional* possible
    /// MPANs beyond [`TraversalOutcome::mpans`]: nodes not known dead with
    /// no in-cone parent known alive, whose frontier membership could not be
    /// settled. `mpans[i] ∪ possible_mpans[i]` is a sound upper bound on the
    /// true frontier; every entry is empty on a complete run.
    pub possible_mpans: Vec<Vec<usize>>,
    /// MTNs left unclassified by budget exhaustion or abandoned probes,
    /// ascending; empty on a complete run.
    pub unknown_mtns: Vec<usize>,
    /// Why probing stopped early, if a budget cap tripped.
    pub exhausted: Option<Exhausted>,
    /// SQL queries executed by this traversal.
    pub sql_queries: u64,
    /// Wall-clock time spent executing SQL.
    pub sql_time: Duration,
    /// Full probe/inference counters for this traversal (delta of the
    /// oracle's metrics over the run); `probes.probes_executed` always equals
    /// `sql_queries`.
    pub probes: ProbeCounters,
}

impl TraversalOutcome {
    /// Total number of confirmed MPANs across all dead MTNs (with
    /// duplicates, as each dead MTN reports its own frontier).
    pub fn mpan_total(&self) -> usize {
        self.mpans.iter().map(Vec::len).sum()
    }

    /// Number of distinct confirmed MPAN nodes across all dead MTNs.
    pub fn mpan_unique(&self) -> usize {
        let mut all: Vec<usize> = self.mpans.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }

    /// Whether every MTN was classified and every MPAN frontier is exact
    /// (always true on the happy path).
    pub fn complete(&self) -> bool {
        self.unknown_mtns.is_empty() && self.possible_mpans.iter().all(Vec::is_empty)
    }

    /// Files MTN `m` under its status, extracting MPAN bounds when dead.
    pub(crate) fn classify_mtn(&mut self, pruned: &PrunedLattice, status: &[Status], m: usize) {
        match status[m] {
            Status::Alive => self.alive_mtns.push(m),
            Status::Dead => {
                let (confirmed, possible) = extract_mpan_bounds(pruned, status, m);
                self.dead_mtns.push(m);
                self.mpans.push(confirmed);
                self.possible_mpans.push(possible);
            }
            Status::Unknown => self.unknown_mtns.push(m),
        }
    }
}

/// Runs a traversal strategy over a pruned lattice.
///
/// `pa` is the aliveness prior used by [`StrategyKind::ScoreBasedHeuristic`]
/// (ignored by the others); the paper finds `p_a = 0.5` works well.
pub fn run<'a>(
    kind: StrategyKind,
    lattice: &'a Lattice,
    pruned: &PrunedLattice,
    oracle: &mut AlivenessOracle<'a>,
    pa: f64,
) -> Result<TraversalOutcome, KwError> {
    run_with(kind, lattice, pruned, oracle, pa, None)
}

/// [`run`] with an optional cross-session single-flight exchange: both go
/// through the one driver.
pub(crate) fn run_with<'a>(
    kind: StrategyKind,
    lattice: &'a Lattice,
    pruned: &PrunedLattice,
    oracle: &mut AlivenessOracle<'a>,
    pa: f64,
    exchange: Option<&WaveExchange>,
) -> Result<TraversalOutcome, KwError> {
    let q0 = oracle.stats().queries;
    let t0 = oracle.stats().total_time;
    let m0 = *oracle.metrics();
    let mut frontier: Box<dyn Frontier> = match kind {
        StrategyKind::ScoreBasedHeuristic => Box::new(SbhFrontier::new(pruned, pa)),
        StrategyKind::BruteForce => Box::new(brute::BruteFrontier::new(pruned)),
        sweep => Box::new(sweep::Sweep::new(pruned, sweep)),
    };
    drive(lattice, pruned, oracle, frontier.as_mut(), exchange)?;
    Ok(TraversalOutcome {
        exhausted: oracle.exhausted(),
        sql_queries: oracle.stats().queries - q0,
        sql_time: oracle.stats().total_time.saturating_sub(t0),
        probes: oracle.metrics().delta(m0),
        ..frontier.finish(pruned)
    })
}

/// A traversal strategy as a state machine that names nodes to visit.
///
/// The strategy owns its status bookkeeping and inference rules; the
/// driver (`drive`) owns probing. For each node [`Frontier::next`] names:
/// already classified → count `reuse_hits`; otherwise [`visit`] it. The
/// pruned lattice is passed in rather than held, so a frontier can live
/// beside the lattice it walks (the interactive session owns both).
pub(crate) trait Frontier {
    /// The next dense node to visit, or `None` when the traversal is
    /// complete. Sweeping strategies name nodes that an earlier verdict has
    /// already classified — the driver counts them as `reuse_hits`.
    fn next(&mut self, pruned: &PrunedLattice) -> Option<usize>;
    /// Whether dense node `n` is still unclassified in this strategy's view.
    fn is_unknown(&self, n: usize) -> bool;
    /// Records a verdict for `n` and fires the strategy's inference rules,
    /// counting `r1_inferences`/`r2_inferences` on `counters`.
    fn apply(
        &mut self,
        pruned: &PrunedLattice,
        n: usize,
        alive: bool,
        counters: &mut ProbeCounters,
    );
    /// Marks `n` permanently failed (degraded mode); it stays unclassified.
    /// The sweeps move past it; only a strategy that could name the same
    /// unknown node again (SBH's greedy pick) must record it.
    fn abandon(&mut self, _n: usize) {}
    /// The budget tripped: settle partial state (e.g. classify the
    /// in-progress MTN, file the rest as unknown). The driver asks for no
    /// further node, so a strategy whose status map already is its partial
    /// state has nothing to do.
    fn exhaust(&mut self, _pruned: &PrunedLattice) {}
    /// Consumes the frontier into the final MTN classification; [`run`]
    /// fills in the run's counters.
    fn finish(self: Box<Self>, pruned: &PrunedLattice) -> TraversalOutcome;
}

/// The nodes a verdict on `n` settles under R1/R2 — its descendant cone
/// when alive, its ancestor cone when dead — and the status they take.
pub(crate) fn rule_cone(pruned: &PrunedLattice, n: usize, alive: bool) -> (Status, &[usize]) {
    if alive {
        (Status::Alive, pruned.desc_plus(n))
    } else {
        (Status::Dead, pruned.asc_plus(n))
    }
}

/// Fires R1 (alive verdict) or R2 (dead verdict) from a verdict on `n`:
/// every still-unknown node of its [`rule_cone`], `n` included, takes the
/// verdict's status, and the ones besides `n` count as `r1_inferences` or
/// `r2_inferences`. Statuses come only from truthful verdicts, so a known
/// node of the cone already has that status.
pub(crate) fn settle(
    status: &mut [Status],
    pruned: &PrunedLattice,
    n: usize,
    alive: bool,
    counters: &mut ProbeCounters,
) {
    let (to, cone) = rule_cone(pruned, n, alive);
    let mut inferred = 0;
    for &x in cone {
        if status[x] == Status::Unknown {
            status[x] = to;
            inferred += u64::from(x != n);
        }
    }
    if alive {
        counters.r1_inferences += inferred;
    } else {
        counters.r2_inferences += inferred;
    }
}

/// The per-node protocol, shared by `drive` and the interactive session:
/// probe `dense` ([`AlivenessOracle::probe_through`]: memo, cache shortcut,
/// or a reserved execution, through the exchange's single-flight table when
/// one is attached), then hand the outcome to `frontier`. A verdict goes to
/// `apply` together with the oracle's counters — the driver applies it
/// as is, the session checks it for contradictions first; an injected
/// fault abandons the node; a budget refusal exhausts the frontier (the
/// cause stays readable as [`AlivenessOracle::exhausted`]). Any other
/// engine error (an invalid plan — a bug) propagates hard.
pub(crate) fn visit<'a, F: Frontier + ?Sized>(
    lattice: &'a Lattice,
    pruned: &PrunedLattice,
    oracle: &mut AlivenessOracle<'a>,
    exchange: Option<&WaveExchange>,
    frontier: &mut F,
    dense: usize,
    apply: impl FnOnce(&mut F, bool, &mut ProbeCounters) -> Result<(), KwError>,
) -> Result<StepOutcome, KwError> {
    match oracle.probe_through(dense, pruned.jnts(lattice, dense), exchange) {
        Probe::Verdict(alive) => {
            apply(frontier, alive, oracle.counters_mut())?;
            Ok(StepOutcome::Probed(dense, alive))
        }
        Probe::NodeFailed(e) if e.is_fault() => {
            frontier.abandon(dense);
            Ok(StepOutcome::Abandoned(dense))
        }
        Probe::NodeFailed(e) => Err(e.into()),
        Probe::Exhausted(_) => {
            frontier.exhaust(pruned);
            Ok(StepOutcome::Exhausted)
        }
    }
}

/// The one Phase-3 driver, for every strategy, with or without an exchange;
/// DESIGN.md §8.2 gives its determinism argument.
///
/// It takes the nodes in the strategy's visit order: an already classified
/// node counts `reuse_hits`; any other is [`visit`]ed at once and its
/// verdict applied before the next node is named, so every budget cap trips
/// within one probe. A budget refusal ends the traversal at that node.
fn drive<'a>(
    lattice: &'a Lattice,
    pruned: &PrunedLattice,
    oracle: &mut AlivenessOracle<'a>,
    frontier: &mut dyn Frontier,
    exchange: Option<&WaveExchange>,
) -> Result<(), KwError> {
    while let Some(dense) = frontier.next(pruned) {
        if !frontier.is_unknown(dense) {
            oracle.counters_mut().reuse_hits += 1;
            continue;
        }
        let visited = visit(lattice, pruned, oracle, exchange, frontier, dense, |f, alive, c| {
            f.apply(pruned, dense, alive, c);
            Ok(())
        })?;
        if visited == StepOutcome::Exhausted {
            break;
        }
    }
    Ok(())
}

/// Extracts the MPANs of dead MTN `m` from complete statuses: alive strict
/// descendants of `m` with no alive parent inside `Desc+(m)`.
///
/// A parent-level check suffices: if any strict ancestor inside `Desc+(m)`
/// were alive, rule R1 would make some parent on the connecting chain alive
/// as well.
pub(crate) fn extract_mpans(pruned: &PrunedLattice, status: &[Status], m: usize) -> Vec<usize> {
    extract_mpan_bounds(pruned, status, m).0
}

/// Extracts MPAN bounds of dead MTN `m` from possibly-partial statuses:
/// `(confirmed, possible)` where *confirmed* MPANs are known alive with
/// every in-cone parent known dead (a sound lower bound — each one is a
/// true MPAN) and *possible* MPANs are the further not-known-dead nodes
/// with no in-cone parent known alive. The union is a sound upper bound:
/// a true MPAN is truly alive (so never classified dead) and its in-cone
/// strict ancestors are truly dead (so never classified alive), hence it
/// always lands in one of the two lists. On complete statuses `possible`
/// is empty and `confirmed` is the exact frontier.
pub(crate) fn extract_mpan_bounds(
    pruned: &PrunedLattice,
    status: &[Status],
    m: usize,
) -> (Vec<usize>, Vec<usize>) {
    debug_assert_eq!(status[m], Status::Dead);
    let mut confirmed = Vec::new();
    let mut possible = Vec::new();
    for &n in pruned.desc_plus(m) {
        if n == m || status[n] == Status::Dead {
            continue;
        }
        let mut all_dead = true;
        let mut any_alive = false;
        for &p in pruned.parents(n) {
            if !pruned.is_desc_or_self(p, m) {
                continue;
            }
            match status[p] {
                Status::Dead => {}
                Status::Alive => {
                    any_alive = true;
                    all_dead = false;
                }
                Status::Unknown => all_dead = false,
            }
        }
        if status[n] == Status::Alive && all_dead {
            confirmed.push(n);
        } else if !any_alive {
            possible.push(n);
        }
    }
    (confirmed, possible)
}

/// Splits the MTNs by status and extracts MPAN bounds for the dead ones;
/// shared by the global-status strategies. Unknown MTNs are reported, not
/// an error — a traversal cut short by the budget leaves some behind.
pub(crate) fn outcome_from_global_status(
    pruned: &PrunedLattice,
    status: &[Status],
) -> TraversalOutcome {
    let mut classified = TraversalOutcome::default();
    for &m in pruned.mtns() {
        classified.classify_mtn(pruned, status, m);
    }
    classified
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::binding::{map_keywords, KeywordQuery};
    use crate::oracle::AlivenessOracle;
    use crate::schema_graph::SchemaGraph;
    use relengine::{DataType, Database, DatabaseBuilder, Value};
    use textindex::InvertedIndex;

    /// ptype <- item -> color store where "blue candle" is dead ("blue" only
    /// colors an oil) while "red candle" is alive; the session tests share it.
    pub(crate) fn db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("ptype").column("id", DataType::Int).column("name", DataType::Text)
            .primary_key("id");
        b.table("item")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .column("ptype_id", DataType::Int)
            .column("color_id", DataType::Int)
            .primary_key("id");
        b.table("color").column("id", DataType::Int).column("name", DataType::Text)
            .primary_key("id");
        b.foreign_key("item", "ptype_id", "ptype", "id").expect("static");
        b.foreign_key("item", "color_id", "color", "id").expect("static");
        let mut db = b.finish().expect("static");
        for (id, n) in [(1, "candle"), (2, "oil")] {
            db.insert_values("ptype", vec![Value::Int(id), Value::text(n)]).expect("row");
        }
        for (id, n) in [(1, "red"), (2, "blue")] {
            db.insert_values("color", vec![Value::Int(id), Value::text(n)]).expect("row");
        }
        for (id, n, p, c) in [(1, "wick", 1, 1), (2, "drop", 2, 2)] {
            db.insert_values(
                "item",
                vec![Value::Int(id), Value::text(n), Value::Int(p), Value::Int(c)],
            )
            .expect("row");
        }
        db.finalize();
        db
    }

    struct Fixture {
        db: Database,
        index: InvertedIndex,
        lattice: Lattice,
    }

    fn fixture() -> Fixture {
        let db = db();
        let index = InvertedIndex::build(&db);
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, 2);
        Fixture { db, index, lattice }
    }

    fn run_on(f: &Fixture, text: &str, kind: StrategyKind) -> TraversalOutcome {
        let query = KeywordQuery::parse(text).expect("parses");
        let mapping = map_keywords(&query, &f.index);
        assert_eq!(mapping.interpretations.len(), 1, "fixture keywords are unambiguous");
        let interp = &mapping.interpretations[0];
        let pruned = PrunedLattice::build(&f.lattice, interp);
        let mut oracle =
            AlivenessOracle::new(&f.db, Some(&f.index), interp, &mapping.keywords, false);
        run(kind, &f.lattice, &pruned, &mut oracle, DEFAULT_PA).expect("traversal runs")
    }

    #[test]
    fn dead_mtn_detected_by_every_strategy() {
        let f = fixture();
        for kind in StrategyKind::ALL.into_iter().chain([StrategyKind::BruteForce]) {
            let out = run_on(&f, "blue candle", kind);
            assert_eq!(out.alive_mtns.len(), 0, "{kind}");
            assert_eq!(out.dead_mtns.len(), 1, "{kind}");
            // MPANs: candles exist, blue items exist.
            assert_eq!(out.mpans[0].len(), 2, "{kind}");
        }
    }

    #[test]
    fn alive_mtn_detected_by_every_strategy() {
        let f = fixture();
        for kind in StrategyKind::ALL {
            let out = run_on(&f, "red candle", kind);
            assert_eq!(out.alive_mtns.len(), 1, "{kind}");
            assert!(out.dead_mtns.is_empty(), "{kind}");
            assert_eq!(out.mpan_total(), 0, "{kind}");
        }
    }

    #[test]
    fn td_executes_one_query_for_alive_mtn() {
        let f = fixture();
        let td = run_on(&f, "red candle", StrategyKind::TopDown);
        assert_eq!(td.sql_queries, 1, "TD hits the alive MTN first and infers the rest");
        let bu = run_on(&f, "red candle", StrategyKind::BottomUp);
        assert!(bu.sql_queries > td.sql_queries, "BU must climb the whole cone");
    }

    #[test]
    fn bu_benefits_from_dead_low_nodes() {
        // "green candle": green occurs nowhere -> unknown keyword, no MTNs.
        // Use "blue oil" instead: alive (the drop item is a blue oil).
        let f = fixture();
        let out = run_on(&f, "blue oil", StrategyKind::BottomUpWithReuse);
        assert_eq!(out.alive_mtns.len(), 1);
    }

    #[test]
    fn outcome_counters() {
        let f = fixture();
        let out = run_on(&f, "blue candle", StrategyKind::BruteForce);
        assert_eq!(out.mpan_total(), 2);
        assert_eq!(out.mpan_unique(), 2);
        assert!(out.sql_queries >= 6, "brute executes every pruned node");
        // Strategy display names.
        assert_eq!(StrategyKind::BottomUp.to_string(), "BU");
        assert_eq!(StrategyKind::ScoreBasedHeuristic.name(), "SBH");
    }

    #[test]
    fn sbh_extreme_priors_still_correct() {
        let f = fixture();
        let query = KeywordQuery::parse("blue candle").expect("parses");
        let mapping = map_keywords(&query, &f.index);
        let interp = &mapping.interpretations[0];
        let pruned = PrunedLattice::build(&f.lattice, interp);
        for pa in [0.0, 0.25, 0.75, 1.0] {
            let mut oracle =
                AlivenessOracle::new(&f.db, Some(&f.index), interp, &mapping.keywords, false);
            let out = run(
                StrategyKind::ScoreBasedHeuristic, &f.lattice, &pruned, &mut oracle, pa,
            )
            .expect("SBH runs");
            assert_eq!(out.dead_mtns.len(), 1, "pa={pa}");
            assert_eq!(out.mpans[0].len(), 2, "pa={pa}");
        }
    }
}
