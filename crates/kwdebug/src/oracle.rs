//! The aliveness oracle: executing a lattice node's SQL query.
//!
//! Phase 3 asks one question of a node — *is it alive* (does its SQL query
//! return at least one tuple)? The oracle instantiates a node's network into
//! a [`relengine::JoinTreePlan`] under the current interpretation and runs
//! the engine's emptiness check. Every call is one "SQL query executed" in
//! the paper's metrics; an optional memo (off by default, an ablation knob)
//! answers repeated probes of a node from its settled verdict.
//!
//! ## Selection-backed plans
//!
//! An interpretation binds each keyword to exactly one relation, so the rows
//! of a bound copy — the `LIKE '%kw%'` selection, read through the inverted
//! index's posting list — are the same in every probe and sample of the
//! interpretation. Every plan the oracle executes therefore carries each
//! bound copy's selection pre-verified, plus that selection's `value → rows`
//! postings for each of the copy's join columns: the engine neither
//! re-evaluates the predicate nor re-reads selection rows. A selection (and
//! each of its postings) fills a per-keyword slot at most once per
//! interpretation. With an [`EvalCache`] attached, an empty slot is filled
//! from the cache when it holds the value, and a value built on a miss is
//! published to it; the cache adds only cross-interpretation and
//! cross-request reuse plus whole-network verdicts. One accounting rule
//! holds with a cache or without: a build counts the rows it reads into
//! `tuples_scanned`, and a value taken from the cache counts none.
//! [`build_plan`] stays the plain, predicate-only form that SQL rendering
//! uses.
//!
//! ## One fact table per interpretation
//!
//! An oracle serves one pruned lattice and keeps, per node, one entry of a
//! table indexed by dense id: the **verdict** an execution, a cached
//! whole-network verdict or a coalesced wait settled (the memo, consulted
//! only when memoization is on); the **retained reduction** of an alive
//! execution ([`relengine::Executor::exists_retaining`]), which a sample of
//! the same network — matched by identity, never hashed — resumes with only
//! the back-pass and the enumeration
//! ([`relengine::Executor::execute_reduced`]; the tuples are those of a
//! fresh reduction); and the node's **report row**. The table lives as long
//! as the oracle, i.e. one interpretation.
//!
//! ## Fault tolerance and budgets
//!
//! The oracle is the single choke point between the traversals and the
//! engine, so the whole robustness layer lives here:
//!
//! * [`AlivenessOracle::with_chaos`] swaps the plain executor for a
//!   [`relengine::ChaosExecutor`] that injects deterministic faults;
//! * [`AlivenessOracle::with_budget`] bounds the probing work
//!   ([`ProbeBudget`]: max probes, wall-clock deadline, tuple-scan cap),
//!   enforced through a [`BudgetGate`];
//! * [`AlivenessOracle::with_retry`] sets how transient failures are retried
//!   ([`RetryPolicy`]: capped exponential backoff, deterministic).
//!
//! [`AlivenessOracle::probe`] is the degradation-aware entry point: instead
//! of an error it returns a [`Probe`] — a verdict, a per-node failure (the
//! node stays `Unknown`), or budget exhaustion (probing is over; budgets are
//! sticky). [`AlivenessOracle::is_alive`] keeps the original hard-error
//! contract on top of it.
//!
//! The oracle owns the [`ProbeCounters`] block for its interpretation and
//! keeps the probe-side counters itself; the Phase-3 driver hands the same
//! block to the strategies, which record their inference and reuse events
//! through `&mut`. Oracle-side accounting versus the paper:
//!
//! | event | counters touched | paper counterpart |
//! |---|---|---|
//! | probe executed | `probes_executed`, `probe_time`, `tuples_scanned`; the verdict settles the node's entry | one "SQL query" (Figs. 11–12) |
//! | selection built (slot and cache empty) | `tuples_scanned` (its rows read, at most once per interpretation) | part of the first probe that binds the keyword |
//! | selection taken from the cache (slot empty) | `selection_cache_hits` (at most once per bound keyword per interpretation) | beyond the paper (evaluation cache) |
//! | probe answered from the entry's verdict (memo on) | `memo_hits` | beyond the paper (§3 re-executes) |
//! | probe answered by a cached verdict / another session's execution | `verdict_cache_hits` / `coalesced_probes`; settles the entry | beyond the paper (evaluation cache / single-flight) |
//! | `sample` for a report | `probes_executed`, `probe_time`, `tuples_scanned`; resumed from the entry's retained reduction, the same events with fewer rows examined | §2.1 sample tuples of `A(K)`/`M(K)` |
//! | transient fault retried | `retries`, `faults_injected` | beyond the paper (degraded mode) |
//! | probe abandoned | `probes_abandoned` (+ `faults_injected` per fault) | beyond the paper (degraded mode) |
//! | budget cap tripped | `budget_exhausted` (once; sticky) | beyond the paper (degraded mode) |
//!
//! `probes_executed` always equals the engine's own `ExecStats::queries` —
//! the invariant the metrics integration tests pin down. Faults are injected
//! *before* the engine executes, so a failed attempt never increments either
//! side of that equation. A failed attempt also returns its reserved budget
//! slot ([`BudgetGate::release`]), so the budget only ever counts executions.

use std::sync::Arc;
use std::time::Instant;

use relengine::sortedvals::ValuePostings;
use relengine::{
    ChaosExecutor, ColId, Database, EngineError, ExecStats, Executor, FaultConfig, FaultStats,
    JoinTreePlan, MatchTuple, PlanEdge, PlanNode, Predicate, Reduced, RowId, Table, TableId,
};
use textindex::InvertedIndex;

use crate::batch::WaveExchange;
use crate::binding::Interpretation;
use crate::budget::{BudgetGate, Exhausted, ProbeBudget, RetryPolicy};
use crate::error::KwError;
use crate::evalcache::{network_key, network_mask, EvalCache};
use crate::jnts::{Jnts, JntsEdge};
use crate::metrics::ProbeCounters;
use crate::report::QueryInfo;

/// Builds the plain plan of a network under an interpretation: keyword
/// copies get their keyword's containment predicate (plus the inverted-index
/// posting list as candidates when `index` is given), free copies are
/// unconstrained. The oracle executes selection-backed plans instead (see
/// the module docs); this form renders SQL.
pub fn build_plan(
    jnts: &Jnts,
    interp: &Interpretation,
    db: &Database,
    index: Option<&InvertedIndex>,
    keywords: &[String],
) -> Result<JoinTreePlan, EngineError> {
    let mut nodes = Vec::with_capacity(jnts.node_count());
    for &ts in jnts.nodes() {
        let table_name = &db.table(ts.table).schema().name;
        let alias = format!("{}{}", table_name, ts.copy);
        let node = match interp.keyword_for(ts) {
            None => PlanNode::free(ts.table).with_alias(alias),
            Some(kw_idx) => {
                let kw = &keywords[kw_idx];
                let mut n =
                    PlanNode::new(ts.table, Predicate::any_text_contains(kw.clone()))
                        .with_alias(alias);
                if let Some(idx) = index {
                    n = n.with_candidates(idx.rows_containing(ts.table, kw).to_vec());
                }
                n
            }
        };
        nodes.push(node);
    }
    JoinTreePlan::new(nodes, plan_edges(jnts, db))
}

/// The join edges of a network's plan: each foreign key oriented from
/// vertex `a` to vertex `b`.
fn plan_edges(jnts: &Jnts, db: &Database) -> Vec<PlanEdge> {
    let edge = |e: &JntsEdge| {
        let fk = db.foreign_key(e.fk);
        let (a_col, b_col) =
            if e.a_is_from { (fk.from_col, fk.to_col) } else { (fk.to_col, fk.from_col) };
        PlanEdge { a: e.a as usize, a_col, b: e.b as usize, b_col }
    };
    jnts.edges().iter().map(edge).collect()
}

/// The outcome of one degradation-aware probe ([`AlivenessOracle::probe`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Probe {
    /// The node's query executed (or its verdict was known): alive or dead.
    Verdict(bool),
    /// This probe failed permanently (hard fault, or transient retries
    /// exhausted); the node stays unclassified, but probing may continue.
    NodeFailed(EngineError),
    /// The probe budget ran out; this and every later probe is refused.
    Exhausted(Exhausted),
}

/// The oracle's engine: plain, or wrapped in fault injection.
enum ProbeEngine<'a> {
    Plain(Executor<'a>),
    Chaos(ChaosExecutor<'a>),
}

impl<'a> ProbeEngine<'a> {
    fn exists_retaining(&mut self, plan: &JoinTreePlan) -> Result<Option<Reduced>, EngineError> {
        match self {
            ProbeEngine::Plain(e) => e.exists_retaining(plan),
            ProbeEngine::Chaos(c) => c.exists_retaining(plan),
        }
    }

    fn execute_reduced(
        &mut self,
        plan: &JoinTreePlan,
        reduced: &mut Reduced,
        limit: usize,
    ) -> Result<Vec<MatchTuple>, EngineError> {
        match self {
            ProbeEngine::Plain(e) => e.execute_reduced(plan, reduced, limit),
            ProbeEngine::Chaos(c) => c.execute_reduced(plan, reduced, limit),
        }
    }

    fn execute(
        &mut self,
        plan: &JoinTreePlan,
        limit: usize,
    ) -> Result<Vec<MatchTuple>, EngineError> {
        match self {
            ProbeEngine::Plain(e) => e.execute(plan, limit),
            ProbeEngine::Chaos(c) => c.execute(plan, limit),
        }
    }

    fn stats(&self) -> &ExecStats {
        match self {
            ProbeEngine::Plain(e) => e.stats(),
            ProbeEngine::Chaos(c) => c.stats(),
        }
    }
}

/// One bound keyword's rows under an interpretation: its selection and the
/// selection's postings in each column of the keyword's relation, each
/// filled at most once — from the [`EvalCache`] when one holds it, else
/// built.
struct KeywordRows {
    selection: Option<Arc<Vec<RowId>>>,
    /// `postings[col]`: the selection grouped by its values in `col`.
    postings: Box<[Option<Arc<ValuePostings>>]>,
}

/// The rows of `sel` grouped by their values in `col`.
fn selection_postings(t: &Table, col: ColId, sel: &[RowId]) -> ValuePostings {
    ValuePostings::build(
        sel.iter().filter_map(|&rid| t.row(rid)[col].as_int().map(|v| (v, rid))).collect(),
    )
}

/// The rows of `table` that satisfy `kw`'s containment predicate, in
/// ascending row order: the index posting list (when the session has one)
/// filtered by the predicate, else a scan of the live rows — exactly the rows
/// the engine would keep for a `LIKE '%kw%'` plan node. Computed oracle-side
/// — never through a (possibly chaos-wrapped) engine — so a selection can
/// never be poisoned by a fault. Counts the rows it reads into
/// `tuples_scanned`, and one `delta_postings_merged` when the posting list
/// had pending deltas.
fn build_selection(
    db: &Database,
    index: Option<&InvertedIndex>,
    table: TableId,
    kw: &str,
    counters: &mut ProbeCounters,
) -> Vec<RowId> {
    let pred = Predicate::any_text_contains(kw.to_owned()).compile();
    let t = db.table(table);
    let schema = t.schema();
    match index {
        Some(idx) => {
            let rows = idx.rows_containing(table, kw);
            if matches!(rows, std::borrow::Cow::Owned(_)) {
                counters.delta_postings_merged += 1;
            }
            counters.tuples_scanned += rows.len() as u64;
            rows.iter().copied().filter(|&rid| pred.eval(schema, t.row(rid))).collect()
        }
        None => {
            counters.tuples_scanned += t.live_rows() as u64;
            t.iter().filter(|(_, row)| pred.eval(schema, row)).map(|(rid, _)| rid).collect()
        }
    }
}

/// Internal failure of a budgeted, retried execution attempt.
enum ProbeFail {
    Node(EngineError),
    Exhausted(Exhausted),
}

/// One node's entry in the oracle's fact table (see the module docs).
#[derive(Default)]
struct NodeFacts<'a> {
    verdict: Option<bool>,
    retained: Option<Box<Retained<'a>>>,
    row: Option<Box<QueryInfo>>,
}

/// An alive execution's network (the lattice's own, matched by identity),
/// plan and reduced state.
struct Retained<'a> {
    jnts: &'a Jnts,
    plan: JoinTreePlan,
    reduced: Reduced,
}

/// Where a settled verdict came from ([`AlivenessOracle::settle`]).
pub(crate) enum Source {
    /// An execution on this oracle: the plan and reduced state if alive.
    Executed(Option<(JoinTreePlan, Reduced)>),
    /// The evaluation cache's whole-network verdict.
    Cached(bool),
    /// Another session's execution, through [`crate::batch`].
    Coalesced(bool),
}

/// Answers aliveness queries for lattice nodes, counting every execution.
///
/// Holds everything a probe needs: the plan-builder inputs (all shared
/// borrows), the [`ProbeCounters`] block, the budget gate, the retry policy,
/// the per-interpretation keyword selections, the engine, and the fact
/// table of the pruned lattice it serves. Nodes are named by their dense id
/// in that lattice. The Phase-3 driver ([`crate::traversal`]) probes
/// through it one node at a time.
pub struct AlivenessOracle<'a> {
    db: &'a Database,
    index: Option<&'a InvertedIndex>,
    interp: &'a Interpretation,
    keywords: &'a [String],
    /// Whether a probe is answered from its node's settled verdict.
    memoize: bool,
    /// `facts[dense]`: what is settled about each node (module docs).
    facts: Vec<NodeFacts<'a>>,
    /// Probe/inference counters.
    counters: ProbeCounters,
    /// Budget enforcement.
    gate: BudgetGate,
    retry: RetryPolicy,
    /// The session-scoped evaluation cache (`None` = off). Shared across
    /// interpretations and sessions; see [`crate::evalcache`].
    cache: Option<Arc<EvalCache>>,
    /// `rows[k]`: keyword `k`'s selection and postings, keyed by keyword and
    /// then by column; the only place a probe plan takes them from.
    rows: Vec<KeywordRows>,
    /// Online `p_a` observer (`None` = off). Every *executed* probe reports
    /// its `(level, verdict)` here; see [`crate::estimate::OnlinePa`].
    pa_stats: Option<Arc<crate::estimate::OnlinePa>>,
    engine: ProbeEngine<'a>,
}

impl<'a> AlivenessOracle<'a> {
    /// Creates an oracle for one interpretation. `memoize` answers repeated
    /// probes from settled verdicts (an extension; the paper re-executes). The
    /// oracle starts with an unlimited [`ProbeBudget`], the default
    /// [`RetryPolicy`] and no fault injection — the happy-path pipeline.
    pub fn new(
        db: &'a Database,
        index: Option<&'a InvertedIndex>,
        interp: &'a Interpretation,
        keywords: &'a [String],
        memoize: bool,
    ) -> Self {
        AlivenessOracle {
            db,
            index,
            interp,
            keywords,
            memoize,
            facts: Vec::new(),
            counters: ProbeCounters::default(),
            gate: BudgetGate::new(ProbeBudget::default()),
            retry: RetryPolicy::default(),
            cache: None,
            rows: interp
                .tables()
                .iter()
                .map(|&t| KeywordRows {
                    selection: None,
                    postings: vec![None; db.table(t).schema().arity()].into_boxed_slice(),
                })
                .collect(),
            pa_stats: None,
            engine: ProbeEngine::Plain(Executor::new(db)),
        }
    }

    /// Routes every execution through a deterministic fault injector
    /// (keeping any statistics the current engine accumulated).
    pub fn with_chaos(mut self, config: FaultConfig) -> Self {
        self.engine = match self.engine {
            ProbeEngine::Plain(e) => ProbeEngine::Chaos(ChaosExecutor::wrap(e, config)),
            ProbeEngine::Chaos(c) => {
                ProbeEngine::Chaos(ChaosExecutor::wrap(c.into_inner(), config))
            }
        };
        self
    }

    /// Bounds the probing work of this oracle (a fresh [`BudgetGate`]
    /// window).
    pub fn with_budget(mut self, budget: ProbeBudget) -> Self {
        self.gate = BudgetGate::new(budget);
        self
    }

    /// Sets the transient-failure retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches an [`EvalCache`] shared with other oracles of the same debug
    /// session, or of every session holding the same store. Probes then take
    /// their keyword selections and join-column postings from the cache
    /// instead of building them for this interpretation, answer repeated
    /// networks from cached whole-network verdicts without executing, and
    /// publish their own verdicts. Cache keys label each vertex by table and
    /// bound keyword, never by copy number. Verdicts and reports are
    /// unchanged; only the work to reach them shrinks.
    pub fn with_eval_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches an [`crate::estimate::OnlinePa`] observer: every executed
    /// probe reports its `(level, verdict)` so later queries — in this
    /// session or, when the estimator is shared through
    /// [`crate::debugger::SharedParts`], any session of the process — start
    /// SBH from observed alive rates instead of the fixed paper prior.
    /// Recording is lock-free and does not change verdicts or reports.
    pub fn with_pa_stats(mut self, stats: Arc<crate::estimate::OnlinePa>) -> Self {
        self.pa_stats = Some(stats);
        self
    }

    /// The memoized verdict of dense node `dense`, without probing:
    /// `Some(true)` for settled alive, `Some(false)` for settled dead, `None`
    /// when the node was never settled (or memoization is off). A pure read,
    /// it records no metrics.
    pub fn verdict_if_known(&self, dense: usize) -> Option<bool> {
        self.facts.get(dense).and_then(|f| f.verdict).filter(|_| self.memoize)
    }

    /// The fact-table entry of `dense`, grown on first touch.
    fn facts_mut(&mut self, dense: usize) -> &mut NodeFacts<'a> {
        if dense >= self.facts.len() {
            self.facts.resize_with(dense + 1, NodeFacts::default);
        }
        &mut self.facts[dense]
    }

    /// The canonical identity of a probe: [`crate::evalcache::network_key`]
    /// over each vertex's table and bound keyword text. Copy numbers are
    /// deliberately absent, so structurally identical networks of different
    /// lattice nodes share one key, and no store-local id is involved, so
    /// the verdict cache and the [`crate::batch::WaveExchange`] name a probe
    /// by the same bytes: two sessions on the same `(db_id, epoch)` produce
    /// equal keys exactly when their probes are the same ground-truth query.
    pub(crate) fn binding_key(&self, jnts: &Jnts) -> Vec<u8> {
        let bound: Vec<Option<&str>> = jnts
            .nodes()
            .iter()
            .map(|&ts| self.interp.keyword_for(ts).map(|k| self.keywords[k].as_str()))
            .collect();
        network_key(jnts, &bound)
    }

    /// Keyword `k`'s selection, bound to `table`. Its slot is filled once
    /// per interpretation: from the cache when one is attached and holds it
    /// (`selection_cache_hits`), else built and, with a cache, published
    /// (`cache_bytes`).
    fn selection(&mut self, k: usize, table: TableId) -> Arc<Vec<RowId>> {
        if let Some(sel) = &self.rows[k].selection {
            return Arc::clone(sel);
        }
        let (db, index, kw) = (self.db, self.index, &self.keywords[k]);
        let (pin, indexed) = (db.epoch(), index.is_some());
        let counters = &mut self.counters;
        let sel = match &self.cache {
            None => Arc::new(build_selection(db, index, table, kw, counters)),
            Some(cache) => match cache.selection(pin, table, kw, indexed) {
                Some(sel) => {
                    counters.selection_cache_hits += 1;
                    sel
                }
                None => {
                    let sel = build_selection(db, index, table, kw, counters);
                    let (sel, added) = cache.insert_selection(pin, table, kw, indexed, sel);
                    counters.cache_bytes += added;
                    sel
                }
            },
        };
        Arc::clone(self.rows[k].selection.insert(sel))
    }

    /// Keyword `k`'s selection `sel` grouped by its values in `col`, filled
    /// into its slot once per interpretation like the selection itself.
    /// Derived state of an already-counted selection, so only a publish
    /// counts (`cache_bytes`).
    fn postings(
        &mut self,
        k: usize,
        table: TableId,
        col: ColId,
        sel: &[RowId],
    ) -> Arc<ValuePostings> {
        if let Some(postings) = &self.rows[k].postings[col] {
            return Arc::clone(postings);
        }
        let build = || selection_postings(self.db.table(table), col, sel);
        let postings = match &self.cache {
            None => Arc::new(build()),
            Some(cache) => {
                let (pin, kw, indexed) = (self.db.epoch(), &self.keywords[k], self.index.is_some());
                match cache.selection_postings(pin, table, kw, indexed, col) {
                    Some(postings) => postings,
                    None => {
                        let (postings, added) =
                            cache.insert_selection_postings(pin, table, kw, indexed, col, build());
                        self.counters.cache_bytes += added;
                        postings
                    }
                }
            }
        };
        Arc::clone(self.rows[k].postings[col].insert(postings))
    }

    /// Settles `dense` with a ground-truth verdict from any source: counts
    /// a cached or coalesced one, and records the verdict (and an alive
    /// execution's reduction) in the node's entry. An executed or coalesced
    /// verdict also feeds the online `p_a` estimator and is published to the
    /// verdict cache under `verdict_key`.
    pub(crate) fn settle(
        &mut self,
        dense: usize,
        jnts: &'a Jnts,
        source: Source,
        verdict_key: Option<Vec<u8>>,
    ) -> Probe {
        let established = !matches!(source, Source::Cached(_));
        let (alive, retained) = match source {
            Source::Cached(alive) => {
                self.counters.verdict_cache_hits += 1;
                (alive, None)
            }
            Source::Coalesced(alive) => {
                self.counters.coalesced_probes += 1;
                (alive, None)
            }
            Source::Executed(reduced) => (reduced.is_some(), reduced),
        };
        if established {
            if let Some(stats) = &self.pa_stats {
                stats.record(jnts.node_count(), alive);
            }
            if let (Some(cache), Some(key)) = (&self.cache, verdict_key) {
                self.counters.cache_bytes +=
                    cache.insert_verdict(self.db.epoch(), key, network_mask(jnts), alive);
            }
        }
        let facts = self.facts_mut(dense);
        facts.verdict = Some(alive);
        if let Some((plan, reduced)) = retained {
            facts.retained = Some(Box::new(Retained { jnts, plan, reduced }));
        }
        Probe::Verdict(alive)
    }

    /// The plan probes and report samples execute: [`build_plan`]'s
    /// network, except that every bound copy carries its keyword's selection
    /// plus the selection's postings in each of the copy's join columns, so
    /// the executor neither re-evaluates the predicate nor re-reads selection
    /// rows (see the module docs). It renders no SQL, so its nodes carry no
    /// aliases; alive plans are retained until the oracle drops.
    fn build_probe_plan(&mut self, jnts: &Jnts) -> Result<JoinTreePlan, EngineError> {
        let edges = plan_edges(jnts, self.db);
        let mut join_cols: Vec<Vec<ColId>> = vec![Vec::new(); jnts.node_count()];
        for e in &edges {
            for (v, col) in [(e.a, e.a_col), (e.b, e.b_col)] {
                if !join_cols[v].contains(&col) {
                    join_cols[v].push(col);
                }
            }
        }
        let mut nodes = Vec::with_capacity(jnts.node_count());
        for (i, &ts) in jnts.nodes().iter().enumerate() {
            let node = match self.interp.keyword_for(ts) {
                None => PlanNode::free(ts.table),
                Some(k) => {
                    let sel = self.selection(k, ts.table);
                    let pred = Predicate::any_text_contains(self.keywords[k].clone());
                    let mut node = PlanNode::new(ts.table, pred).with_selection(Arc::clone(&sel));
                    for &col in &join_cols[i] {
                        let postings = self.postings(k, ts.table, col, &sel);
                        node = node.with_col_postings(col, postings);
                    }
                    node
                }
            };
            nodes.push(node);
        }
        JoinTreePlan::new(nodes, edges)
    }

    /// Reserves one budget slot. A refusal reports the sticky [`Exhausted`]
    /// cause; the one that trips the gate counts `budget_exhausted`.
    fn try_reserve(&mut self) -> Result<(), Exhausted> {
        let open = self.gate.tripped().is_none();
        let reserved = self.gate.try_reserve(self.counters.tuples_scanned);
        if open && reserved.is_err() {
            self.counters.budget_exhausted += 1;
        }
        reserved
    }

    /// Runs one engine operation on a reserved budget slot under the retry
    /// policy: transient failures back off and retry (re-checking the
    /// deadline), anything else abandons and returns the slot. A completed
    /// operation counts one execution: `probes_executed`, its time (backoffs
    /// included) and the rows the engine examined.
    fn execute_with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut ProbeEngine<'a>) -> Result<T, EngineError>,
    ) -> Result<T, ProbeFail> {
        let rows_before = self.engine.stats().rows_examined;
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            match op(&mut self.engine) {
                Ok(v) => {
                    self.counters.probes_executed += 1;
                    self.counters.probe_time_ns += start.elapsed().as_nanos() as u64;
                    self.counters.tuples_scanned +=
                        self.engine.stats().rows_examined - rows_before;
                    return Ok(v);
                }
                Err(e) => {
                    if e.is_fault() {
                        self.counters.faults_injected += 1;
                    }
                    if e.is_transient() && attempt < self.retry.max_retries {
                        let backoff = self.retry.backoff(attempt);
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                        self.counters.retries += 1;
                        attempt += 1;
                        // The deadline may pass while backing off. This
                        // attempt's slot was reserved on an open gate, so
                        // the trip is the window's first.
                        if self.gate.deadline_passed() {
                            self.gate.trip(Exhausted::Deadline);
                            self.gate.release();
                            self.counters.budget_exhausted += 1;
                            return Err(ProbeFail::Exhausted(Exhausted::Deadline));
                        }
                        continue;
                    }
                    self.gate.release();
                    self.counters.probes_abandoned += 1;
                    return Err(ProbeFail::Node(e));
                }
            }
        }
    }

    /// Executes one probe whose budget slot is already reserved: plan,
    /// emptiness check under retry, then [`AlivenessOracle::settle`]. A
    /// failed execution returns the slot — failed attempts never count
    /// against the budget. Reservation (and the memo and cache pre-checks)
    /// belongs to the caller, which decides whether a probe runs at all.
    pub(crate) fn execute_reserved(
        &mut self,
        dense: usize,
        jnts: &'a Jnts,
        verdict_key: Option<Vec<u8>>,
    ) -> Probe {
        let plan = match self.build_probe_plan(jnts) {
            Ok(p) => p,
            Err(e) => {
                self.gate.release();
                self.counters.probes_abandoned += 1;
                return Probe::NodeFailed(e);
            }
        };
        match self.execute_with_retry(|eng| eng.exists_retaining(&plan)) {
            // Only a *completed* reduction reaches this point (a chaos fault
            // aborts before execution), so the whole-network verdict is a
            // sound cache entry.
            Ok(reduced) => {
                let source = Source::Executed(reduced.map(|reduced| (plan, reduced)));
                self.settle(dense, jnts, source, verdict_key)
            }
            Err(ProbeFail::Node(e)) => Probe::NodeFailed(e),
            Err(ProbeFail::Exhausted(why)) => Probe::Exhausted(why),
        }
    }

    /// Why probing stopped, if a budget cap tripped.
    pub fn exhausted(&self) -> Option<Exhausted> {
        self.gate.tripped()
    }

    /// Fault-injection counters, when chaos is enabled.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        match &self.engine {
            ProbeEngine::Plain(_) => None,
            ProbeEngine::Chaos(c) => Some(c.fault_stats()),
        }
    }

    /// Probes dense node `dense` (network `jnts`) without hard-failing: the
    /// degradation-aware form of [`AlivenessOracle::is_alive`]. Memo hits
    /// are always answered (they are free); everything else goes through the
    /// budget gate and the retry policy.
    pub fn probe(&mut self, dense: usize, jnts: &'a Jnts) -> Probe {
        self.probe_through(dense, jnts, None)
    }

    /// [`AlivenessOracle::probe`], resolving a probe that must execute
    /// through `exchange`'s single-flight table when one is attached — the
    /// Phase-3 driver's per-node protocol: memo, then a cached whole-network
    /// verdict (`verdict_cache_hits`; neither takes a budget slot), then a
    /// reserved execution. The cache layer answers alive and dead repeats
    /// alike, which is what makes warm shared-cache sessions probe-free on
    /// repeated workloads.
    pub(crate) fn probe_through(
        &mut self,
        dense: usize,
        jnts: &'a Jnts,
        exchange: Option<&WaveExchange>,
    ) -> Probe {
        if let Some(alive) = self.verdict_if_known(dense) {
            self.counters.memo_hits += 1;
            return Probe::Verdict(alive);
        }
        // One key per probe serves the verdict lookup, the exchange's claim
        // and the publish.
        let key = (self.cache.is_some() || exchange.is_some()).then(|| self.binding_key(jnts));
        let cached =
            key.as_ref().and_then(|key| self.cache.as_ref()?.verdict(self.db.epoch(), key));
        if let Some(alive) = cached {
            return self.settle(dense, jnts, Source::Cached(alive), None);
        }
        if let Err(why) = self.try_reserve() {
            return Probe::Exhausted(why);
        }
        match (exchange, key) {
            (Some(exchange), Some(key)) => exchange.resolve(self, dense, jnts, key),
            (_, key) => self.execute_reserved(dense, jnts, key),
        }
    }

    /// Whether dense node `dense`'s query returns at least one tuple.
    /// Hard-errors on probe failure or budget exhaustion
    /// ([`KwError::BudgetExhausted`]); degradation-aware callers use
    /// [`AlivenessOracle::probe`] instead.
    pub fn is_alive(&mut self, dense: usize, jnts: &'a Jnts) -> Result<bool, KwError> {
        match self.probe(dense, jnts) {
            Probe::Verdict(alive) => Ok(alive),
            Probe::NodeFailed(e) => Err(e.into()),
            Probe::Exhausted(why) => Err(KwError::BudgetExhausted(why)),
        }
    }

    /// Fetches up to `limit` sample result tuples of a network (for
    /// reports). Counts as one more executed query, subject to the same
    /// budget and retry policy as probes. A network this oracle executed
    /// alive (the same `&Jnts` it probed) resumes from its retained
    /// reduction, examining fewer rows; any other is reduced afresh. The
    /// tuples are the same either way.
    pub fn sample(&mut self, jnts: &Jnts, limit: usize) -> Result<Vec<Vec<RowId>>, KwError> {
        let dense = self
            .facts
            .iter()
            .position(|f| f.retained.as_ref().is_some_and(|r| std::ptr::eq(r.jnts, jnts)));
        self.sample_node(dense, jnts, limit)
    }

    /// [`AlivenessOracle::sample`] of dense node `dense` when the caller
    /// knows it: resumes the reduction retained in its entry, if any.
    pub(crate) fn sample_node(
        &mut self,
        dense: Option<usize>,
        jnts: &Jnts,
        limit: usize,
    ) -> Result<Vec<Vec<RowId>>, KwError> {
        if let Err(why) = self.try_reserve() {
            return Err(KwError::BudgetExhausted(why));
        }
        let mut resume = dense.and_then(|d| self.facts.get_mut(d)?.retained.take());
        let outcome = match resume.as_deref_mut() {
            Some(Retained { plan, reduced, .. }) => {
                self.execute_with_retry(|eng| eng.execute_reduced(plan, reduced, limit))
            }
            None => match self.build_probe_plan(jnts) {
                Ok(plan) => self.execute_with_retry(|eng| eng.execute(&plan, limit)),
                Err(e) => {
                    self.gate.release();
                    Err(ProbeFail::Node(e))
                }
            },
        };
        // A faulted attempt leaves the state untouched and a completed one
        // leaves it reduced toward node 0; either way it stays resumable.
        if let (Some(dense), Some(retained)) = (dense, resume) {
            self.facts[dense].retained = Some(retained);
        }
        outcome.map_err(|fail| match fail {
            ProbeFail::Node(e) => e.into(),
            ProbeFail::Exhausted(why) => KwError::BudgetExhausted(why),
        })
    }

    /// The keyword bound to a relation copy under this interpretation, if any.
    pub fn keyword_of(&self, ts: crate::jnts::TupleSet) -> Option<&str> {
        self.interp.keyword_for(ts).map(|i| self.keywords[i].as_str())
    }

    /// The SQL text of a node under this interpretation. SQL rendering
    /// never reads candidate rows, so the plan is built without the index.
    pub fn sql(&self, jnts: &Jnts) -> Result<String, KwError> {
        let plan = build_plan(jnts, self.interp, self.db, None, self.keywords)?;
        Ok(relengine::render_sql(&plan, self.db))
    }

    /// Engine statistics: queries executed, rows examined, time.
    pub fn stats(&self) -> &ExecStats {
        self.engine.stats()
    }

    /// Number of executed queries so far.
    pub fn queries(&self) -> u64 {
        self.engine.stats().queries
    }

    /// Memo hits (0 unless memoization is on).
    pub fn memo_hits(&self) -> u64 {
        self.counters.memo_hits
    }

    /// The probe-level counters. Traversal strategies record their R1/R2
    /// inferences and reuse hits here; callers copy the block (before and
    /// after) to attribute counts to one traversal.
    pub fn metrics(&self) -> &ProbeCounters {
        &self.counters
    }

    /// The counters, for the Phase-3 driver and the strategies to record
    /// into.
    pub(crate) fn counters_mut(&mut self) -> &mut ProbeCounters {
        &mut self.counters
    }

    /// The database under test.
    pub fn database(&self) -> &'a Database {
        self.db
    }

    /// The report row kept for dense node `dense`, if one was rendered.
    pub(crate) fn row(&self, dense: usize) -> Option<&QueryInfo> {
        self.facts.get(dense)?.row.as_deref()
    }

    /// Keeps `row` as the report row of dense node `dense`.
    pub(crate) fn keep_row(&mut self, dense: usize, row: QueryInfo) {
        self.facts_mut(dense).row = Some(Box::new(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{map_keywords, KeywordQuery};
    use crate::jnts::TupleSet;
    use crate::schema_graph::Incidence;
    use relengine::{DataType, DatabaseBuilder, Value};
    use std::time::Duration;

    /// ptype(candle,oil) <- item -> color(red,saffron); items: red candle,
    /// saffron oil.
    fn db() -> Database {
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
        b.foreign_key("item", "ptype_id", "ptype", "id").unwrap();
        b.foreign_key("item", "color_id", "color", "id").unwrap();
        let mut db = b.finish().unwrap();
        db.insert_values("ptype", vec![Value::Int(1), Value::text("candle")]).unwrap();
        db.insert_values("ptype", vec![Value::Int(2), Value::text("oil")]).unwrap();
        db.insert_values("color", vec![Value::Int(1), Value::text("red")]).unwrap();
        db.insert_values("color", vec![Value::Int(2), Value::text("saffron")]).unwrap();
        db.insert_values(
            "item",
            vec![Value::Int(1), Value::text("glowy"), Value::Int(1), Value::Int(1)],
        )
        .unwrap();
        db.insert_values(
            "item",
            vec![Value::Int(2), Value::text("scented"), Value::Int(2), Value::Int(2)],
        )
        .unwrap();
        db.finalize();
        db
    }

    fn inc(fk: usize, other: usize, local_is_from: bool) -> Incidence {
        Incidence { fk, other, local_is_from }
    }

    /// P1 - I0 - C1 for the given two keywords (ptype kw first).
    fn mtn_jnts() -> Jnts {
        Jnts::single(TupleSet::new(0, 1))
            .extend(0, inc(0, 1, false), 0)
            .extend(1, inc(1, 2, true), 1)
    }

    #[test]
    fn alive_and_dead_networks() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let interp = &m.interpretations[0];
        let j = mtn_jnts();
        let mut oracle = AlivenessOracle::new(&db, Some(&idx), interp, &m.keywords, false);
        assert!(oracle.is_alive(0, &j).unwrap()); // red candle exists

        let q2 = KeywordQuery::parse("candle saffron").unwrap();
        let m2 = map_keywords(&q2, &idx);
        let interp2 = &m2.interpretations[0];
        let mut oracle2 = AlivenessOracle::new(&db, Some(&idx), interp2, &m2.keywords, false);
        assert!(!oracle2.is_alive(0, &j).unwrap()); // no saffron candle
        assert_eq!(oracle2.queries(), 1);
    }

    #[test]
    fn binding_keys_name_keywords_by_text() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let j = mtn_jnts();
        let key = |query: &str| {
            let m = map_keywords(&KeywordQuery::parse(query).unwrap(), &idx);
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false)
                .binding_key(&j)
        };
        assert_eq!(key("red candle"), key("candle red"), "keyword order is not part of the key");
        assert_ne!(key("candle red"), key("candle saffron"), "the color vertex's keyword differs");
    }

    #[test]
    fn memoization_avoids_reexecution() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, true);
        let j = mtn_jnts();
        assert!(oracle.is_alive(7, &j).unwrap());
        assert!(oracle.is_alive(7, &j).unwrap());
        assert_eq!(oracle.queries(), 1);
        assert_eq!(oracle.memo_hits(), 1);
    }

    #[test]
    fn without_memo_reexecutes() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false);
        let j = mtn_jnts();
        oracle.is_alive(7, &j).unwrap();
        oracle.is_alive(7, &j).unwrap();
        assert_eq!(oracle.queries(), 2);
        assert_eq!(oracle.memo_hits(), 0);
    }

    #[test]
    fn metrics_track_probes_and_memo() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, true);
        let j = mtn_jnts();
        oracle.is_alive(7, &j).unwrap();
        oracle.is_alive(7, &j).unwrap();
        oracle.sample(&j, 5).unwrap();
        let snap = *oracle.metrics();
        assert_eq!(snap.probes_executed, oracle.queries(), "probe counter mirrors the engine");
        assert_eq!(snap.probes_executed, 2, "one is_alive miss + one sample");
        assert_eq!(snap.memo_hits, 1);
        assert!(snap.tuples_scanned > 0, "probes examine rows");
        assert_eq!(snap.r1_inferences + snap.r2_inferences + snap.reuse_hits, 0);
    }

    #[test]
    fn plan_without_index_scans() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let mut oracle = AlivenessOracle::new(&db, None, &m.interpretations[0], &m.keywords, false);
        assert!(oracle.is_alive(0, &mtn_jnts()).unwrap());
    }

    #[test]
    fn sql_rendering_shows_binding() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false);
        let sql = oracle.sql(&mtn_jnts()).unwrap();
        assert!(sql.contains("ptype AS ptype1"), "{sql}");
        assert!(sql.contains("item AS item0"), "{sql}");
        assert!(sql.contains("LIKE '%candle%'"), "{sql}");
        assert!(sql.contains("LIKE '%red%'"), "{sql}");
        assert!(sql.contains("item0.ptype_id = ptype1.id") || sql.contains("ptype1.id = item0.ptype_id"), "{sql}");
    }

    #[test]
    fn sample_returns_tuples() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false);
        let tuples = oracle.sample(&mtn_jnts(), 5).unwrap();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].len(), 3);
    }

    #[test]
    fn verdict_if_known_reads_memo_without_probing() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let j = mtn_jnts();
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, true);
        assert_eq!(oracle.verdict_if_known(7), None, "never probed");
        oracle.is_alive(7, &j).unwrap();
        assert_eq!(oracle.verdict_if_known(7), Some(true), "cached alive");
        assert_eq!(oracle.verdict_if_known(8), None, "other node untouched");
        assert_eq!(oracle.memo_hits(), 0, "accessor records nothing");
        assert_eq!(oracle.queries(), 1);

        // Without memoization there is never a known verdict.
        let mut plain =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false);
        plain.is_alive(7, &j).unwrap();
        assert_eq!(plain.verdict_if_known(7), None);
    }

    #[test]
    fn zero_probe_budget_refuses_everything() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false)
                .with_budget(ProbeBudget::probes(0));
        let j = mtn_jnts();
        assert_eq!(oracle.probe(0, &j), Probe::Exhausted(Exhausted::Probes));
        assert_eq!(oracle.probe(1, &j), Probe::Exhausted(Exhausted::Probes), "sticky");
        assert!(matches!(
            oracle.is_alive(0, &j),
            Err(KwError::BudgetExhausted(Exhausted::Probes))
        ));
        assert!(matches!(
            oracle.sample(&j, 3),
            Err(KwError::BudgetExhausted(Exhausted::Probes))
        ));
        assert_eq!(oracle.queries(), 0, "nothing executed");
        let snap = oracle.metrics();
        assert_eq!(snap.budget_exhausted, 1, "tripped exactly once");
        assert_eq!(oracle.exhausted(), Some(Exhausted::Probes));
    }

    #[test]
    fn probe_budget_allows_exactly_n_probes() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false)
                .with_budget(ProbeBudget::probes(2));
        let j = mtn_jnts();
        assert!(matches!(oracle.probe(0, &j), Probe::Verdict(_)));
        assert!(matches!(oracle.probe(1, &j), Probe::Verdict(_)));
        assert!(matches!(oracle.probe(2, &j), Probe::Exhausted(Exhausted::Probes)));
        assert_eq!(oracle.queries(), 2);
    }

    #[test]
    fn memo_hits_are_free_under_exhausted_budget() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, true)
                .with_budget(ProbeBudget::probes(1));
        let j = mtn_jnts();
        assert!(matches!(oracle.probe(7, &j), Probe::Verdict(true)));
        assert!(matches!(oracle.probe(8, &j), Probe::Exhausted(_)));
        // The memoized node still answers after exhaustion.
        assert!(matches!(oracle.probe(7, &j), Probe::Verdict(true)));
        assert_eq!(oracle.memo_hits(), 1);
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false)
                .with_chaos(FaultConfig { fail_first_transient: 2, ..FaultConfig::quiet(3) })
                .with_retry(RetryPolicy::immediate(3));
        let j = mtn_jnts();
        assert!(oracle.is_alive(0, &j).unwrap(), "retries get through the warm-up faults");
        let snap = oracle.metrics();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.faults_injected, 2);
        assert_eq!(snap.probes_abandoned, 0);
        assert_eq!(snap.probes_executed, oracle.queries(), "faulted attempts never count");
        assert_eq!(oracle.queries(), 1);
    }

    #[test]
    fn exhausted_retries_abandon_the_node() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false)
                .with_chaos(FaultConfig { fail_first_transient: 10, ..FaultConfig::quiet(3) })
                .with_retry(RetryPolicy::immediate(2));
        let j = mtn_jnts();
        match oracle.probe(0, &j) {
            Probe::NodeFailed(e) => assert!(e.is_transient()),
            other => panic!("expected NodeFailed, got {other:?}"),
        }
        let snap = oracle.metrics();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.faults_injected, 3, "initial attempt + two retries all faulted");
        assert_eq!(snap.probes_abandoned, 1);
        assert_eq!(oracle.queries(), 0);
        // The next probe draws fresh (but still failing) attempts.
        assert!(matches!(oracle.probe(1, &j), Probe::NodeFailed(_)));
    }

    #[test]
    fn permanent_faults_never_retry() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let j = mtn_jnts();
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false)
                .with_chaos(FaultConfig {
                    permanent_per_mille: 1000,
                    ..FaultConfig::quiet(5)
                })
                .with_retry(RetryPolicy::immediate(5));
        match oracle.probe(0, &j) {
            Probe::NodeFailed(e) => assert!(!e.is_transient() && e.is_fault()),
            other => panic!("expected NodeFailed, got {other:?}"),
        }
        let snap = oracle.metrics();
        assert_eq!(snap.retries, 0, "permanent failures are not retried");
        assert_eq!(snap.probes_abandoned, 1);
    }

    #[test]
    fn deadline_trips_and_sticks() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let j = mtn_jnts();
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false)
                .with_budget(ProbeBudget::default().with_deadline(Duration::ZERO));
        assert!(matches!(
            oracle.probe(0, &j),
            Probe::Exhausted(Exhausted::Deadline)
        ));
        assert_eq!(oracle.exhausted(), Some(Exhausted::Deadline));
        assert_eq!(oracle.probe(1, &j), Probe::Exhausted(Exhausted::Deadline), "sticky");
    }

    #[test]
    fn tuple_cap_trips_after_scanning() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let mut oracle =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false)
                .with_budget(ProbeBudget::default().with_max_tuples(1));
        let j = mtn_jnts();
        assert!(matches!(oracle.probe(0, &j), Probe::Verdict(_)), "first probe runs");
        assert!(matches!(oracle.probe(1, &j), Probe::Exhausted(Exhausted::Tuples)));
    }

    /// Without a cache, every probe and sample of one interpretation shares
    /// one selection per bound keyword: a dirtied term merges its delta
    /// postings once, and the selection's rows are scanned once, however
    /// many probes bind the keyword.
    #[test]
    fn uncached_selections_are_built_once_per_interpretation() {
        let mut db = db();
        let mut idx = InvertedIndex::build(&db);
        // A second candle type, appended after the index was built, leaves
        // "candle" with pending delta postings in ptype.
        let ptype = db.table_id("ptype").unwrap();
        db.append_rows(ptype, vec![vec![Value::Int(3), Value::text("candle stub")]]).unwrap();
        idx.apply_deltas(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let interp = &m.interpretations[0];
        let (j, single) = (mtn_jnts(), Jnts::single(TupleSet::new(ptype, 1)));

        // One probe: its engine rows plus both selections' rows — candle's
        // two posting rows (ptype 0 and 2) and red's one (color 0).
        let mut once = AlivenessOracle::new(&db, Some(&idx), interp, &m.keywords, false);
        assert!(once.is_alive(0, &j).unwrap());
        let one = once.metrics();
        assert_eq!(one.delta_postings_merged, 1, "only candle's postings are dirty");
        let selection_rows = one.tuples_scanned - once.stats().rows_examined;
        assert_eq!(selection_rows, 3);

        // Four probes and a sample of networks binding both keywords.
        let mut many = AlivenessOracle::new(&db, Some(&idx), interp, &m.keywords, false);
        for node in 0..4 {
            assert!(many.is_alive(node, &j).unwrap());
        }
        assert!(many.is_alive(4, &single).unwrap());
        assert_eq!(many.sample(&j, 5).unwrap().len(), 1);
        let snap = many.metrics();
        assert_eq!(snap.probes_executed, 6);
        assert_eq!(snap.probes_executed, many.queries());
        assert_eq!(
            snap.delta_postings_merged, 1,
            "one merge per dirty bound keyword per interpretation, not one per probe"
        );
        assert_eq!(
            snap.tuples_scanned,
            many.stats().rows_examined + selection_rows,
            "each selection's rows are counted once"
        );
    }

    /// With a cache attached, the per-keyword slots are still where every
    /// plan takes its selections: a cold oracle builds each bound keyword's
    /// selection once and counts the rows it reads, as an uncached one does,
    /// and a warm oracle takes each selection from the cache once, however
    /// many of its probes bind the keyword.
    #[test]
    fn cached_selections_fill_each_slot_once() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let interp = &m.interpretations[0];
        let cache = Arc::new(EvalCache::with_identity(db.db_id(), db.epoch(), None));
        let cached = || {
            AlivenessOracle::new(&db, Some(&idx), interp, &m.keywords, false)
                .with_eval_cache(Arc::clone(&cache))
        };
        let j = mtn_jnts();

        // Cold: the engine's rows plus each selection's rows read once —
        // candle's one posting row in ptype and red's one in color.
        let mut cold = cached();
        assert!(cold.is_alive(0, &j).unwrap());
        let snap = cold.metrics();
        assert_eq!(snap.selection_cache_hits, 0, "a cold cache holds no selection");
        assert_eq!(snap.tuples_scanned, cold.stats().rows_examined + 2);

        // Warm: three networks binding both keywords, none probed whole
        // before, so each executes.
        let mut warm = cached();
        let second_item = j.extend(0, inc(0, 1, false), 2);
        let nets = [
            second_item.clone(),
            j.extend(2, inc(1, 1, false), 2),
            second_item.extend(2, inc(1, 1, false), 3),
        ];
        for (node, net) in (0..).zip(&nets) {
            warm.is_alive(node, net).unwrap();
        }
        let snap = warm.metrics();
        assert_eq!((snap.probes_executed, snap.verdict_cache_hits), (3, 0));
        assert_eq!(snap.selection_cache_hits, 2, "one per bound keyword, not one per probe");
        assert_eq!(snap.tuples_scanned, warm.stats().rows_examined, "no selection rebuilt");
    }

    #[test]
    fn eval_cache_shortcuts_dead_probes_and_reuses_selections() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        // glowy binds item, saffron binds color; the glowy item is red, so
        // the network is dead.
        let q = KeywordQuery::parse("glowy saffron").unwrap();
        let m = map_keywords(&q, &idx);
        let interp = &m.interpretations[0];
        let j = Jnts::single(TupleSet::new(0, 0))
            .extend(0, inc(0, 1, false), 1)
            .extend(1, inc(1, 2, true), 1);
        let cache = Arc::new(crate::evalcache::EvalCache::with_identity(db.db_id(), db.epoch(), None));
        let mut plain = AlivenessOracle::new(&db, Some(&idx), interp, &m.keywords, false);
        let mut o1 = AlivenessOracle::new(&db, Some(&idx), interp, &m.keywords, false)
            .with_eval_cache(Arc::clone(&cache));
        assert!(!plain.is_alive(0, &j).unwrap(), "no saffron glowy item");
        assert!(!o1.is_alive(0, &j).unwrap(), "cached oracle agrees");
        assert_eq!(o1.queries(), 1, "cold probe executes");
        assert!(cache.selection_entries() > 0, "keyword selections published");
        assert!(cache.bytes() > 0);

        // A fresh oracle sharing the session cache answers Dead for free —
        // the whole network's completed verdict is already cached.
        let mut o2 = AlivenessOracle::new(&db, Some(&idx), interp, &m.keywords, false)
            .with_eval_cache(Arc::clone(&cache));
        assert!(!o2.is_alive(0, &j).unwrap());
        assert_eq!(o2.queries(), 0, "cached verdict answers without executing");
        let snap = o2.metrics();
        assert_eq!(snap.verdict_cache_hits, 1);
        assert_eq!(snap.probes_executed, 0);

        // A different network reusing the saffron binding hits the shared
        // selection instead of re-evaluating the predicate.
        let single = Jnts::single(TupleSet::new(2, 1));
        assert!(o2.is_alive(1, &single).unwrap(), "saffron colors exist");
        assert_eq!(o2.metrics().selection_cache_hits, 1);

        // A *larger* network was never probed whole, so no verdict exists for
        // it: it executes, and agrees with the plain oracle.
        let j3 = j.extend(0, inc(0, 1, false), 2);
        assert!(!plain.is_alive(2, &j3).unwrap());
        assert!(!o2.is_alive(2, &j3).unwrap());
    }

    #[test]
    fn eval_cache_matches_plain_verdicts_and_samples() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let interp = &m.interpretations[0];
        let j = mtn_jnts();
        let cache = Arc::new(crate::evalcache::EvalCache::with_identity(db.db_id(), db.epoch(), None));
        let mut plain = AlivenessOracle::new(&db, Some(&idx), interp, &m.keywords, false);
        let mut warm = AlivenessOracle::new(&db, Some(&idx), interp, &m.keywords, false)
            .with_eval_cache(Arc::clone(&cache));
        // Warm the cache, then compare a second cached oracle to plain.
        assert!(warm.is_alive(0, &j).unwrap());
        let mut o = AlivenessOracle::new(&db, Some(&idx), interp, &m.keywords, false)
            .with_eval_cache(Arc::clone(&cache));
        assert_eq!(plain.is_alive(0, &j).unwrap(), o.is_alive(0, &j).unwrap());
        assert_eq!(o.metrics().verdict_cache_hits, 1, "warm repeat skips the engine");
        assert_eq!(plain.sample(&j, 5).unwrap(), o.sample(&j, 5).unwrap(), "same tuples");
        // A larger network sharing the warmed item–color branch has no cached
        // verdict, so its probe executes — with the same verdict.
        let j2 = j.extend(0, inc(0, 1, false), 2);
        assert_eq!(plain.is_alive(1, &j2).unwrap(), o.is_alive(1, &j2).unwrap());
        assert_eq!(o.sql(&j).unwrap(), plain.sql(&j).unwrap(), "SQL text is cache-blind");
    }

    /// After a traversal, a sample of a network the traversal executed alive
    /// resumes from that probe's reduction: the same tuples as a fresh
    /// oracle's sample, fewer engine rows, one query and one probe each —
    /// and a transient fault on the sample's attempt still resumes on retry.
    #[test]
    fn samples_resume_from_the_traversals_reductions() {
        use crate::lattice::Lattice;
        use crate::prune::PrunedLattice;
        use crate::schema_graph::SchemaGraph;
        use crate::traversal::{self, StrategyKind};

        let db = db();
        let idx = InvertedIndex::build(&db);
        let lattice = Lattice::build(&db, &SchemaGraph::new(&db), 2);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let interp = &m.interpretations[0];
        let pruned = PrunedLattice::build(&lattice, interp);
        let fresh = || AlivenessOracle::new(&db, Some(&idx), interp, &m.keywords, false);
        // Brute force executes every pruned node, so every alive one is
        // retained.
        let traversed = || {
            let mut oracle = fresh();
            let pa = traversal::DEFAULT_PA;
            traversal::run(StrategyKind::BruteForce, &lattice, &pruned, &mut oracle, pa).unwrap();
            oracle
        };
        let rows_of = |o: &mut AlivenessOracle<'_>, j: &Jnts| {
            let before = o.stats().rows_examined;
            let tuples = o.sample(j, 5).unwrap();
            (tuples, o.stats().rows_examined - before)
        };

        let mut oracle = traversed();
        let mut alive = Vec::new();
        for dense in 0..pruned.len() {
            let j = pruned.jnts(&lattice, dense);
            let (want, fresh_rows) = rows_of(&mut fresh(), j);
            if want.is_empty() {
                continue; // dead: nothing to sample
            }
            let (got, resumed_rows) = rows_of(&mut oracle, j);
            assert_eq!(got, want, "node {dense}: resumed tuples differ");
            // Some reductions read no engine rows at all (a single node, or
            // a free node answered from the index); there is nothing to save.
            if fresh_rows > 0 {
                assert!(
                    resumed_rows < fresh_rows,
                    "node {dense}: resumed sample read {resumed_rows} rows, fresh {fresh_rows}"
                );
                alive.push((dense, want, fresh_rows));
            } else {
                assert_eq!(resumed_rows, 0, "node {dense}");
            }
        }
        assert!(!alive.is_empty(), "the fixture has an alive join that reads rows");
        let snap = oracle.metrics();
        assert_eq!(snap.probes_executed, oracle.queries(), "a resumed sample is one query");

        // A transient fault on a join's sample attempt: the retry resumes.
        let (dense, want, fresh_rows) = &alive[0];
        let j = pruned.jnts(&lattice, *dense);
        let mut chaotic = traversed()
            .with_chaos(FaultConfig { fail_first_transient: 1, ..FaultConfig::quiet(7) })
            .with_retry(RetryPolicy::immediate(1));
        let queries = chaotic.queries();
        let (got, resumed_rows) = rows_of(&mut chaotic, j);
        assert_eq!(&got, want, "the retry returns the same tuples");
        assert!(resumed_rows < *fresh_rows, "the retry resumed: {resumed_rows} rows");
        assert_eq!(chaotic.queries(), queries + 1, "the faulted attempt never ran");
        let snap = chaotic.metrics();
        assert_eq!((snap.retries, snap.faults_injected), (1, 1));
        assert_eq!(snap.probes_executed, chaotic.queries());
    }

    #[test]
    fn quiet_chaos_is_transparent() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("candle red").unwrap();
        let m = map_keywords(&q, &idx);
        let j = mtn_jnts();
        let mut plain =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false);
        let mut chaotic =
            AlivenessOracle::new(&db, Some(&idx), &m.interpretations[0], &m.keywords, false)
                .with_chaos(FaultConfig::quiet(99));
        assert_eq!(
            plain.is_alive(0, &j).unwrap(),
            chaotic.is_alive(0, &j).unwrap(),
            "a quiet schedule changes nothing"
        );
        assert_eq!(plain.queries(), chaotic.queries());
        assert_eq!(chaotic.fault_stats().unwrap().faults(), 0);
        assert!(plain.fault_stats().is_none());
    }
}
