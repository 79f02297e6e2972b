//! The end-to-end system: offline setup + the four-phase debug pipeline.

use std::sync::Arc;
use std::time::Instant;

use relengine::Database;
use textindex::InvertedIndex;

use relengine::FaultConfig;

use crate::binding::{map_keywords, Interpretation, KeywordQuery};
use crate::budget::{ProbeBudget, RetryPolicy};
use crate::error::KwError;
use crate::estimate::OnlinePa;
use crate::evalcache::EvalCache;
use crate::jnts::Jnts;
use crate::lattice::Lattice;
use crate::metrics::PhaseTiming;
use crate::oracle::AlivenessOracle;
use crate::prune::PrunedLattice;
use crate::report::{DebugReport, InterpretationOutcome, NonAnswerInfo, QueryInfo};
use crate::schema_graph::SchemaGraph;
use crate::traversal::{self, StrategyKind};

/// Configuration of a [`NonAnswerDebugger`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DebugConfig {
    /// Maximum number of joins the lattice covers (`maxJoins`; the lattice
    /// has `max_joins + 1` levels). The paper evaluates 2, 4 and 6.
    pub max_joins: usize,
    /// Phase-3 traversal strategy.
    pub strategy: StrategyKind,
    /// Aliveness prior for the score-based heuristic.
    pub pa: f64,
    /// Sample result tuples fetched per alive query for the report
    /// (0 disables sampling; samples are *not* counted in the traversal's
    /// SQL-query metric).
    pub sample_limit: usize,
    /// Cache aliveness results per lattice node for the lifetime of one
    /// interpretation's traversal (extension; the paper re-executes). The
    /// cache never crosses interpretations — the same lattice node can
    /// instantiate to different SQL under a different keyword assignment.
    pub memoize: bool,
    /// Estimate `p_a` per interpretation from index/catalog statistics
    /// ([`crate::estimate::PaEstimator`]) instead of using the fixed prior —
    /// the paper's future-work knob. Only affects the score-based heuristic's
    /// query count, never its output.
    pub estimate_pa: bool,
    /// Probe budget applied *per interpretation* (each interpretation gets a
    /// fresh oracle, hence a fresh budget window). The default is unlimited —
    /// the happy-path pipeline. When a cap trips mid-traversal the report is
    /// partial: see [`crate::report::InterpretationOutcome::unknown`].
    pub budget: ProbeBudget,
    /// How transient probe failures are retried (capped exponential
    /// backoff); only observable when the engine actually fails.
    pub retry: RetryPolicy,
    /// Deterministic fault injection for robustness testing (`None` = off).
    /// Each interpretation's oracle wraps its executor in a
    /// [`relengine::ChaosExecutor`] with this schedule.
    pub chaos: Option<FaultConfig>,
    /// Share the session-scoped [`crate::evalcache::EvalCache`] across every
    /// probe of every debug call (extension; off by default like `memoize`).
    /// Keyword selections and their join-column postings are evaluated once
    /// per session instead of once per interpretation, and completed
    /// whole-network verdicts answer repeated probes across queries. Each
    /// interpretation still takes a keyword's selection once: a build on a
    /// cache miss counts the rows it reads into `tuples_scanned`, as without
    /// a cache, and a cache hit counts one `selection_cache_hits` and no rows.
    /// Reports are bit-identical
    /// with the cache on or off (the differential suite pins this down); only
    /// probe work shrinks. Caveat:
    /// with a *limited* [`DebugConfig::budget`] the cache can change which
    /// probe trips the cap, and a report sample served from an alive
    /// verdict entry takes no budget slot, so partial reports may differ.
    pub eval_cache: bool,
    /// Drive SBH's prior from the online per-level alive-rate estimator
    /// ([`crate::estimate::OnlinePa`]) instead of the fixed `pa` — observed
    /// verdicts sharpen the prior for later queries, and when sessions share
    /// a substrate ([`SharedParts`]) the estimator is shared too, so one
    /// tenant's probes inform every other's traversal order. Takes precedence
    /// over [`DebugConfig::estimate_pa`]. With zero observations the
    /// estimate is exactly the paper's 0.5, so a cold estimator changes
    /// nothing. Only affects the score-based heuristic's query count, never
    /// its output (DESIGN.md §12).
    pub online_pa: bool,
}

impl Default for DebugConfig {
    fn default() -> Self {
        DebugConfig {
            max_joins: 4,
            strategy: StrategyKind::ScoreBasedHeuristic,
            pa: traversal::DEFAULT_PA,
            sample_limit: 3,
            memoize: false,
            estimate_pa: false,
            budget: ProbeBudget::unlimited(),
            retry: RetryPolicy::default(),
            chaos: None,
            eval_cache: false,
            online_pa: false,
        }
    }
}

impl DebugConfig {
    fn validate(&self) -> Result<(), KwError> {
        if self.max_joins > 12 {
            return Err(KwError::BadConfig(format!(
                "max_joins = {} would generate an intractably large lattice",
                self.max_joins
            )));
        }
        if !(0.0..=1.0).contains(&self.pa) {
            return Err(KwError::BadConfig(format!("pa = {} must be within [0, 1]", self.pa)));
        }
        Ok(())
    }
}

/// The immutable offline substrate of a debugger, shareable across sessions.
///
/// Everything a debug call *reads but never writes* — the finalized
/// [`Database`], the [`InvertedIndex`] over it, the [`SchemaGraph`] and the
/// offline [`Lattice`] arena — bundled behind [`Arc`]s so that any number of
/// concurrent sessions (one [`NonAnswerDebugger`] each) can run over a single
/// resident copy. Cloning is a handful of reference-count bumps; the multi-
/// megabyte arenas are never duplicated. This is the state split the serving
/// layer builds on (`kwserve`; DESIGN.md §11): per-session state (the
/// configuration with its budget, a private evaluation cache) stays inside
/// each debugger, while the substrate is shared process-wide.
///
/// Two pieces of *cross-session learning* ride along (DESIGN.md §12):
///
/// * an optional shared [`EvalCache`] — attach one with
///   [`SharedParts::share_eval_cache`] and every session built from this
///   handle via [`NonAnswerDebugger::from_shared`] reuses one selection and
///   verdict store instead of a private one;
/// * the [`OnlinePa`] estimator, always present — sessions with
///   [`DebugConfig::online_pa`] feed it and read it, so observed verdicts
///   sharpen SBH priors across the whole process.
#[derive(Clone)]
pub struct SharedParts {
    db: Arc<Database>,
    index: Arc<InvertedIndex>,
    graph: Arc<SchemaGraph>,
    lattice: Arc<Lattice>,
    /// The process-wide evaluation cache sessions attach to, when sharing is
    /// enabled (`None` = each session gets a private cache).
    shared_cache: Option<Arc<EvalCache>>,
    /// Cross-session online `p_a` estimator (inert until a session enables
    /// [`DebugConfig::online_pa`]).
    pa_stats: Arc<OnlinePa>,
}

impl SharedParts {
    /// The shared database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The shared inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The shared schema graph.
    pub fn schema_graph(&self) -> &SchemaGraph {
        &self.graph
    }

    /// The shared offline lattice arena.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// `maxJoins` the shared lattice was built for — session configs must
    /// match it (see [`NonAnswerDebugger::from_shared`]).
    pub fn max_joins(&self) -> usize {
        self.lattice.max_joins()
    }

    /// Process-unique id of the database this substrate wraps. Together with
    /// [`SharedParts::epoch`] it forms the identity shared caches are stamped
    /// with; see [`SharedParts::adopt_eval_cache`].
    pub fn db_id(&self) -> u64 {
        self.db.db_id()
    }

    /// The epoch of the wrapped database snapshot. A `SharedParts` handle is
    /// immutable — writes happen on a [`crate::mutable::MutableDatabase`],
    /// which hands out fresh parts per epoch — so this is the pin every
    /// session built from this handle reads at.
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// The process-wide evaluation cache sessions of this handle attach to,
    /// if sharing is enabled.
    pub fn shared_cache(&self) -> Option<&Arc<EvalCache>> {
        self.shared_cache.as_ref()
    }

    /// The cross-session online `p_a` estimator (always present; inert until
    /// a session enables [`DebugConfig::online_pa`]).
    pub fn pa_stats(&self) -> &Arc<OnlinePa> {
        &self.pa_stats
    }

    /// Creates a process-wide [`EvalCache`] stamped with this
    /// substrate's `(db_id, epoch)` identity, bounded by `budget_bytes`
    /// bytes, keys' keywords included (`None` = unbounded), and attaches it:
    /// every session subsequently built from this handle (or its clones)
    /// shares the one store. Returns the cache for metrics/monitoring.
    /// Replaces any previously attached store.
    pub fn share_eval_cache(&mut self, budget_bytes: Option<u64>) -> Arc<EvalCache> {
        let cache =
            Arc::new(EvalCache::with_identity(self.db.db_id(), self.db.epoch(), budget_bytes));
        self.shared_cache = Some(Arc::clone(&cache));
        cache
    }

    /// Attaches an existing shared [`EvalCache`] — e.g. one created by another
    /// `SharedParts` clone of the same substrate. Rejected with
    /// [`KwError::BadConfig`] when the cache was stamped for a different
    /// database (`db_id` mismatch — entries from another build must never
    /// serve this one) or when the cache's epoch is *ahead* of this
    /// snapshot (its entries absorbed writes this snapshot has not seen).
    /// A cache *behind* this snapshot is caught up through
    /// [`EvalCache::invalidate`] on attach — the CACHING.md epoch
    /// contract.
    pub fn adopt_eval_cache(&mut self, cache: Arc<EvalCache>) -> Result<(), KwError> {
        if cache.db_id() != self.db.db_id() {
            return Err(KwError::BadConfig(format!(
                "shared cache was stamped for database #{}, substrate is database #{}",
                cache.db_id(),
                self.db.db_id()
            )));
        }
        if cache.epoch() > self.db.epoch() {
            return Err(KwError::BadConfig(format!(
                "shared cache is at epoch {}, ahead of this snapshot's epoch {}",
                cache.epoch(),
                self.db.epoch()
            )));
        }
        cache.invalidate(&self.db);
        self.shared_cache = Some(cache);
        Ok(())
    }

    /// A clone of this handle without the shared cache: sessions built from
    /// it get private, session-scoped caches (the serving layer's per-tenant
    /// `private_cache` opt-out). The online `p_a` estimator remains shared.
    pub fn without_shared_cache(&self) -> SharedParts {
        SharedParts { shared_cache: None, ..self.clone() }
    }

    /// Assembles a handle from pre-built substrate pieces — the snapshot path
    /// of [`crate::mutable::MutableDatabase`];
    /// [`NonAnswerDebugger::shared_parts`] is the public route.
    pub(crate) fn assemble(
        db: Arc<Database>,
        index: Arc<InvertedIndex>,
        graph: Arc<SchemaGraph>,
        lattice: Arc<Lattice>,
        shared_cache: Option<Arc<EvalCache>>,
        pa_stats: Arc<OnlinePa>,
    ) -> SharedParts {
        SharedParts { db, index, graph, lattice, shared_cache, pa_stats }
    }
}

impl std::fmt::Debug for SharedParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedParts")
            .field("tables", &self.db.table_count())
            .field("lattice_nodes", &self.lattice.node_count())
            .field("max_joins", &self.lattice.max_joins())
            .field("db_id", &self.db.db_id())
            .field("epoch", &self.db.epoch())
            .field("shared_cache", &self.shared_cache.is_some())
            .finish()
    }
}

/// The KWS-S system with non-answer debugging.
///
/// Construction performs the offline work (Phase 0): building the inverted
/// index over the data and generating the query lattice from the schema
/// graph. [`NonAnswerDebugger::debug`] then answers keyword queries with the
/// full `A(K) ∪ N(K) ∪ M(K)` output.
///
/// The immutable substrate (database, index, schema graph, lattice) lives
/// behind [`Arc`]s: [`NonAnswerDebugger::shared_parts`] hands out a cheap
/// [`SharedParts`] handle and [`NonAnswerDebugger::from_shared`] builds more
/// debuggers over the *same* resident arenas — the unit of multi-tenant
/// serving, where each session owns its own configuration, budget and
/// evaluation cache but all sessions read one copy of the data.
pub struct NonAnswerDebugger {
    db: Arc<Database>,
    index: Arc<InvertedIndex>,
    graph: Arc<SchemaGraph>,
    lattice: Arc<Lattice>,
    config: DebugConfig,
    /// The evaluation cache probes consult when [`DebugConfig::eval_cache`]
    /// is on: session-private by default (stamped with this snapshot's
    /// `(db_id, epoch)` identity — the snapshot never changes under a
    /// debugger, so lifetime *is* invalidation), or the process-wide store
    /// when this session was built from [`SharedParts`] with one attached
    /// (there, writes on the owning [`crate::mutable::MutableDatabase`]
    /// invalidate selectively).
    cache: Arc<EvalCache>,
    /// Whether `cache` is the process-wide store of the [`SharedParts`] this
    /// session was built from (re-exported by
    /// [`NonAnswerDebugger::shared_parts`] so sibling sessions keep sharing).
    shared: bool,
    /// Online `p_a` estimator fed by executed probes when
    /// [`DebugConfig::online_pa`] is on — shared with sibling sessions when
    /// built [`NonAnswerDebugger::from_shared`].
    pa_stats: Arc<OnlinePa>,
    /// The cross-session single-flight exchange, if one was attached
    /// ([`NonAnswerDebugger::set_wave_exchange`]). `None` (the default)
    /// keeps every debug call off the in-flight table.
    exchange: Option<Arc<crate::batch::WaveExchange>>,
}

impl NonAnswerDebugger {
    /// Builds the system over `db`. `db` should be [`Database::finalize`]d;
    /// if not, join indexes are built here.
    pub fn new(mut db: Database, config: DebugConfig) -> Result<Self, KwError> {
        config.validate()?;
        db.finalize();
        let index = InvertedIndex::build(&db);
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, config.max_joins);
        let cache = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        Ok(NonAnswerDebugger {
            db: Arc::new(db),
            index: Arc::new(index),
            graph: Arc::new(graph),
            lattice: Arc::new(lattice),
            config,
            cache: Arc::new(cache),
            shared: false,
            pa_stats: Arc::new(OnlinePa::new()),
            exchange: None,
        })
    }

    /// A cheap handle onto this debugger's immutable substrate (database,
    /// index, schema graph, lattice), for building sibling sessions with
    /// [`NonAnswerDebugger::from_shared`]. Clones bump reference counts only.
    pub fn shared_parts(&self) -> SharedParts {
        SharedParts {
            db: Arc::clone(&self.db),
            index: Arc::clone(&self.index),
            graph: Arc::clone(&self.graph),
            lattice: Arc::clone(&self.lattice),
            shared_cache: self.shared.then(|| Arc::clone(&self.cache)),
            pa_stats: Arc::clone(&self.pa_stats),
        }
    }

    /// Builds a new *session* over an existing substrate: the returned
    /// debugger reads the same database, index and lattice arena as every
    /// other holder of `parts`, but owns fresh per-session state — its own
    /// `config` (budget, strategy, cache, ...). This is O(1): no data is
    /// copied and no Phase-0 work runs, which is what makes per-connection
    /// sessions viable in the serving layer.
    /// `config.max_joins` must match the lattice.
    ///
    /// When `parts` carries a shared [`EvalCache`]
    /// ([`SharedParts::share_eval_cache`]) the session attaches to that
    /// process-wide store instead of a private [`EvalCache`]; the online
    /// `p_a` estimator is always the substrate's shared one.
    pub fn from_shared(parts: SharedParts, config: DebugConfig) -> Result<Self, KwError> {
        config.validate()?;
        if parts.lattice.max_joins() != config.max_joins {
            return Err(KwError::BadConfig(format!(
                "shared lattice was built for maxJoins = {}, config wants {}",
                parts.lattice.max_joins(),
                config.max_joins
            )));
        }
        let shared = parts.shared_cache.is_some();
        let cache = parts.shared_cache.unwrap_or_else(|| {
            Arc::new(EvalCache::with_identity(parts.db.db_id(), parts.db.epoch(), None))
        });
        Ok(NonAnswerDebugger {
            db: parts.db,
            index: parts.index,
            graph: parts.graph,
            lattice: parts.lattice,
            config,
            cache,
            shared,
            pa_stats: parts.pa_stats,
            exchange: None,
        })
    }

    /// Builds the system reusing a previously persisted lattice (see
    /// [`crate::lattice_io`]), skipping the expensive Phase-0 generation.
    /// The lattice must match `config.max_joins` and must have been built
    /// for a database with the same schema graph — table and foreign-key
    /// ids are validated against `db`.
    pub fn with_lattice(
        mut db: Database,
        lattice: Lattice,
        config: DebugConfig,
    ) -> Result<Self, KwError> {
        config.validate()?;
        if lattice.max_joins() != config.max_joins {
            return Err(KwError::BadConfig(format!(
                "lattice was built for maxJoins = {}, config wants {}",
                lattice.max_joins(),
                config.max_joins
            )));
        }
        for id in lattice.all_nodes() {
            let jnts = lattice.jnts(id);
            for ts in jnts.nodes() {
                if ts.table >= db.table_count() {
                    return Err(KwError::BadConfig(format!(
                        "lattice references table #{} outside this database",
                        ts.table
                    )));
                }
            }
            for e in jnts.edges() {
                if e.fk >= db.foreign_keys().len() {
                    return Err(KwError::BadConfig(format!(
                        "lattice references foreign key #{} outside this schema",
                        e.fk
                    )));
                }
            }
        }
        db.finalize();
        let index = InvertedIndex::build(&db);
        let graph = SchemaGraph::new(&db);
        let cache = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        Ok(NonAnswerDebugger {
            db: Arc::new(db),
            index: Arc::new(index),
            graph: Arc::new(graph),
            lattice: Arc::new(lattice),
            config,
            cache: Arc::new(cache),
            shared: false,
            pa_stats: Arc::new(OnlinePa::new()),
            exchange: None,
        })
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The offline lattice.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// The inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The schema graph.
    pub fn schema_graph(&self) -> &SchemaGraph {
        &self.graph
    }

    /// The active configuration.
    pub fn config(&self) -> &DebugConfig {
        &self.config
    }

    /// Sets the per-interpretation probe budget for subsequent debug calls.
    pub fn set_budget(&mut self, budget: ProbeBudget) {
        self.config.budget = budget;
    }

    /// Sets the transient-failure retry policy for subsequent debug calls.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.config.retry = retry;
    }

    /// Enables (`Some`) or disables (`None`) deterministic fault injection
    /// for subsequent debug calls.
    pub fn set_chaos(&mut self, chaos: Option<FaultConfig>) {
        self.config.chaos = chaos;
    }

    /// Attaches a cross-session [`crate::batch::WaveExchange`]: subsequent
    /// debug calls wait on a probe another session is already executing
    /// instead of executing it again (see the [`crate::batch`] module docs —
    /// reports are identical to runs without an exchange). Probes of
    /// sessions pinned to different epochs never share a cell. `None`
    /// detaches.
    pub fn set_wave_exchange(&mut self, exchange: Option<Arc<crate::batch::WaveExchange>>) {
        self.exchange = exchange;
    }

    /// The attached cross-session wave exchange, if any.
    pub fn wave_exchange(&self) -> Option<&Arc<crate::batch::WaveExchange>> {
        self.exchange.as_ref()
    }

    /// Enables or disables the session evaluation cache for subsequent debug
    /// calls. Disabling does not clear the cache — entries stay valid for
    /// the debugger's lifetime and are reused when re-enabled.
    pub fn set_eval_cache(&mut self, on: bool) {
        self.config.eval_cache = on;
    }

    /// The session evaluation cache (sizes and entry counts for dashboards
    /// and the REPL's `:cache` command; empty until a cache-enabled debug
    /// call populates it).
    pub fn eval_cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Drops every cached selection, postings list and verdict, returning the
    /// session to a cold cache. Entries are otherwise valid for the
    /// debugger's whole lifetime (the database is immutable), so this exists
    /// for memory pressure in long sessions and for benchmarking cold-start
    /// behaviour repeatably. A session attached to a shared store
    /// *detaches* onto a private cold cache instead (the shared store belongs
    /// to every session; one session must not be able to dump it) — not
    /// reachable over the serving wire.
    pub fn reset_eval_cache(&mut self) {
        self.cache =
            Arc::new(EvalCache::with_identity(self.db.db_id(), self.db.epoch(), None));
        self.shared = false;
    }

    /// Process-unique id of the database build this debugger reads (stamped
    /// on shared caches; see [`SharedParts::db_id`]).
    pub fn db_id(&self) -> u64 {
        self.db.db_id()
    }

    /// The epoch of the database snapshot this debugger reads — its cache
    /// pin and the `epoch` gauge of every report it produces.
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// The online `p_a` estimator this debugger records into and reads from
    /// when [`DebugConfig::online_pa`] is on (shared across sibling sessions
    /// built with [`NonAnswerDebugger::from_shared`]).
    pub fn pa_stats(&self) -> &Arc<OnlinePa> {
        &self.pa_stats
    }

    /// The process-wide store this session attached to, if it was built over
    /// [`SharedParts`] carrying one.
    pub fn shared_cache(&self) -> Option<&Arc<EvalCache>> {
        self.shared.then_some(&self.cache)
    }

    /// Debugs a keyword query end to end (Phases 1–3).
    pub fn debug(&self, input: &str) -> Result<DebugReport, KwError> {
        self.debug_with_strategy(input, self.config.strategy)
    }

    /// Like [`NonAnswerDebugger::debug`] but with an explicit strategy,
    /// letting callers compare strategies over one offline lattice.
    pub fn debug_with_strategy(
        &self,
        input: &str,
        strategy: StrategyKind,
    ) -> Result<DebugReport, KwError> {
        let start = Instant::now();
        let query = KeywordQuery::parse(input)?;

        let map_start = Instant::now();
        let mapping = map_keywords(&query, &self.index);
        let mapping_time = map_start.elapsed();

        let exchange = self.exchange.as_deref();
        let mut interpretations = Vec::with_capacity(mapping.interpretations.len());
        for interp in &mapping.interpretations {
            interpretations.push(self.debug_interpretation(
                interp,
                &mapping.keywords,
                strategy,
                exchange,
            )?);
        }
        let mut timing = PhaseTiming { mapping: mapping_time, ..PhaseTiming::default() };
        for interp in &interpretations {
            timing.accumulate(&interp.timing);
        }
        timing.total = start.elapsed();
        Ok(DebugReport {
            keywords: mapping.keywords,
            unknown_keywords: mapping.unknown,
            interpretations,
            mapping_time,
            total_time: timing.total,
            timing,
        })
    }

    /// Runs Phases 2–3 for one interpretation.
    fn debug_interpretation(
        &self,
        interp: &Interpretation,
        keywords: &[String],
        strategy: StrategyKind,
        exchange: Option<&crate::batch::WaveExchange>,
    ) -> Result<InterpretationOutcome, KwError> {
        let prune_start = Instant::now();
        let pruned = PrunedLattice::build(&self.lattice, interp);
        let pruning = prune_start.elapsed();
        let mut oracle = AlivenessOracle::new(
            &self.db,
            Some(&self.index),
            interp,
            keywords,
            self.config.memoize,
        )
        .with_budget(self.config.budget)
        .with_retry(self.config.retry);
        if let Some(chaos) = self.config.chaos {
            oracle = oracle.with_chaos(chaos);
        }
        if self.config.eval_cache {
            oracle = oracle.with_eval_cache(Arc::clone(&self.cache));
        }
        if self.config.online_pa {
            oracle = oracle.with_pa_stats(Arc::clone(&self.pa_stats));
        }
        let pa = if self.config.online_pa {
            self.pa_stats.estimate_pa(&pruned)
        } else if self.config.estimate_pa {
            crate::estimate::PaEstimator::new(&self.db, &self.index, interp, keywords)
                .estimate_pa(&self.lattice, &pruned)
        } else {
            self.config.pa
        };
        let traversal_start = Instant::now();
        let mut outcome = traversal::run_with(
            strategy,
            &self.lattice,
            &pruned,
            &mut oracle,
            pa,
            exchange,
        )?;
        let traversal_time = traversal_start.elapsed();
        // Phase-1 substrate accounting rides along in the probe counters so
        // every report surface sees it.
        outcome.probes.phase1_nodes_touched = pruned.phase1_nodes_touched();
        // Write-path gauges: the snapshot epoch this report was computed at,
        // and the lifetime invalidation/compaction counts of the substrate it
        // read. Gauges, not probe work — `ProbeCounters::delta` carries them
        // through windows unchanged.
        outcome.probes.epoch = self.db.epoch();
        outcome.probes.entries_invalidated = self.cache.invalidated();
        outcome.probes.compactions = self.index.compactions();

        let report_start = Instant::now();
        let keyword_tables = keywords
            .iter()
            .zip(interp.tables())
            .map(|(k, &t)| (k.clone(), self.db.table(t).schema().name.clone()))
            .collect();

        let mut answers = Vec::with_capacity(outcome.alive_mtns.len());
        for &m in &outcome.alive_mtns {
            answers.push(self.query_info(&pruned, m, &mut oracle, true)?);
        }
        let mut non_answers = Vec::with_capacity(outcome.dead_mtns.len());
        for ((&m, mpans), possible) in
            outcome.dead_mtns.iter().zip(&outcome.mpans).zip(&outcome.possible_mpans)
        {
            let query = self.query_info(&pruned, m, &mut oracle, false)?;
            let mut infos = Vec::with_capacity(mpans.len());
            for &p in mpans {
                infos.push(self.query_info(&pruned, p, &mut oracle, true)?);
            }
            let mut possible_infos = Vec::with_capacity(possible.len());
            for &p in possible {
                possible_infos.push(self.query_info(&pruned, p, &mut oracle, true)?);
            }
            non_answers.push(NonAnswerInfo {
                query,
                mpans: infos,
                possible_mpans: possible_infos,
            });
        }
        let mut unknown = Vec::with_capacity(outcome.unknown_mtns.len());
        for &m in &outcome.unknown_mtns {
            unknown.push(self.query_info(&pruned, m, &mut oracle, false)?);
        }
        let reporting = report_start.elapsed();

        Ok(InterpretationOutcome {
            keyword_tables,
            answers,
            non_answers,
            unknown,
            budget_exhausted: outcome.exhausted,
            prune_stats: pruned.stats().clone(),
            sql_queries: outcome.sql_queries,
            sql_time: outcome.sql_time,
            probes: outcome.probes,
            timing: PhaseTiming {
                pruning,
                traversal: traversal_time,
                sql: outcome.sql_time,
                reporting,
                ..PhaseTiming::default()
            },
        })
    }

    /// Renders one pruned-lattice node for the report, sampling tuples if the
    /// node is alive and sampling is enabled. The row is kept in the node's
    /// entry of the oracle's fact table, so a node reported twice (an MPAN
    /// shared by several dead MTNs, always as alive) renders its SQL and
    /// executes its sample once. Sampling degrades gracefully: a tripped
    /// budget or an injected fault yields an empty sample, not kept, rather
    /// than failing the whole report.
    fn query_info(
        &self,
        pruned: &PrunedLattice,
        dense: usize,
        oracle: &mut AlivenessOracle<'_>,
        alive: bool,
    ) -> Result<QueryInfo, KwError> {
        if let Some(info) = oracle.row(dense) {
            return Ok(info.clone());
        }
        let jnts = pruned.jnts(&self.lattice, dense);
        let sql = oracle.sql(jnts)?;
        let (sample_tuples, settled) = if !alive || self.config.sample_limit == 0 {
            (Vec::new(), true)
        } else {
            match oracle.sample_node(Some(dense), jnts, self.config.sample_limit) {
                Ok(tuples) => {
                    (tuples.iter().map(|t| render_tuple(&self.db, jnts, t)).collect(), true)
                }
                Err(KwError::BudgetExhausted(_)) => (Vec::new(), false),
                Err(KwError::Engine(e)) if e.is_fault() => (Vec::new(), false),
                Err(e) => return Err(e),
            }
        };
        let info = QueryInfo { sql, level: pruned.level(dense), sample_tuples };
        if settled {
            oracle.keep_row(dense, info.clone());
        }
        Ok(info)
    }
}

/// Renders one result tuple as `table0(v1, v2) ⋈ table1(...)`.
fn render_tuple(db: &Database, jnts: &Jnts, tuple: &[relengine::RowId]) -> String {
    let parts: Vec<String> = jnts
        .nodes()
        .iter()
        .zip(tuple)
        .map(|(ts, &rid)| {
            let table = db.table(ts.table);
            let values: Vec<String> =
                table.row(rid).iter().map(|v| v.to_string()).collect();
            format!("{}{}({})", table.schema().name, ts.copy, values.join(", "))
        })
        .collect();
    parts.join(" ⋈ ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use relengine::{DataType, DatabaseBuilder, Value};

    /// The paper's Figure 2 in miniature: saffron-colored things exist, scented
    /// candles exist, but no saffron-scented candle.
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
        db.insert_values("color", vec![Value::Int(1), Value::text("saffron")]).unwrap();
        db.insert_values("color", vec![Value::Int(2), Value::text("red")]).unwrap();
        // A red scented candle and a saffron scented oil.
        db.insert_values(
            "item",
            vec![Value::Int(1), Value::text("scented pillar"), Value::Int(1), Value::Int(2)],
        )
        .unwrap();
        db.insert_values(
            "item",
            vec![Value::Int(2), Value::text("scented burner"), Value::Int(2), Value::Int(1)],
        )
        .unwrap();
        db
    }

    fn debugger(strategy: StrategyKind) -> NonAnswerDebugger {
        NonAnswerDebugger::new(
            db(),
            DebugConfig { max_joins: 2, strategy, ..DebugConfig::default() },
        )
        .unwrap()
    }

    #[test]
    fn answer_query_reported_alive() {
        let d = debugger(StrategyKind::ScoreBasedHeuristic);
        let r = d.debug("red candle").unwrap();
        assert_eq!(r.answer_count(), 1);
        assert_eq!(r.non_answer_count(), 0);
        let a = &r.interpretations[0].answers[0];
        assert_eq!(a.level, 3);
        assert!(!a.sample_tuples.is_empty());
        assert!(a.sample_tuples[0].contains("scented pillar"), "{:?}", a.sample_tuples);
    }

    #[test]
    fn non_answer_explained_with_mpans() {
        let d = debugger(StrategyKind::ScoreBasedHeuristic);
        let r = d.debug("saffron candle").unwrap();
        assert_eq!(r.answer_count(), 0);
        assert_eq!(r.non_answer_count(), 1);
        let na = &r.interpretations[0].non_answers[0];
        assert!(!na.mpans.is_empty());
        // MPANs must mention both frontier causes: candles exist, and
        // saffron things exist.
        let all_sql: String =
            na.mpans.iter().map(|m| m.sql.as_str()).collect::<Vec<_>>().join(" | ");
        assert!(all_sql.contains("%candle%"), "{all_sql}");
        assert!(all_sql.contains("%saffron%"), "{all_sql}");
    }

    #[test]
    fn all_strategies_agree_on_output() {
        let d = debugger(StrategyKind::BruteForce);
        let base = d.debug("saffron candle").unwrap();
        for kind in StrategyKind::ALL {
            let r = d.debug_with_strategy("saffron candle", kind).unwrap();
            assert_eq!(r.answer_count(), base.answer_count(), "{kind}");
            assert_eq!(r.non_answer_count(), base.non_answer_count(), "{kind}");
            assert_eq!(r.mpan_count(), base.mpan_count(), "{kind}");
        }
    }

    #[test]
    fn unknown_keyword_short_circuits() {
        let d = debugger(StrategyKind::ScoreBasedHeuristic);
        let r = d.debug("saffron zanzibar").unwrap();
        assert_eq!(r.unknown_keywords, vec!["zanzibar"]);
        assert!(r.interpretations.is_empty());
        assert_eq!(r.sql_queries(), 0);
    }

    #[test]
    fn empty_query_is_error() {
        let d = debugger(StrategyKind::ScoreBasedHeuristic);
        assert!(matches!(d.debug("  !! "), Err(KwError::EmptyQuery)));
    }

    #[test]
    fn config_validation() {
        assert!(NonAnswerDebugger::new(
            db(),
            DebugConfig { max_joins: 99, ..DebugConfig::default() }
        )
        .is_err());
        assert!(NonAnswerDebugger::new(db(), DebugConfig { pa: 1.5, ..DebugConfig::default() })
            .is_err());
    }

    #[test]
    fn sampling_can_be_disabled() {
        let d = NonAnswerDebugger::new(
            db(),
            DebugConfig { max_joins: 2, sample_limit: 0, ..DebugConfig::default() },
        )
        .unwrap();
        let r = d.debug("red candle").unwrap();
        assert!(r.interpretations[0].answers[0].sample_tuples.is_empty());
    }

    #[test]
    fn report_display_is_readable() {
        let d = debugger(StrategyKind::ScoreBasedHeuristic);
        let r = d.debug("saffron candle").unwrap();
        let text = r.to_string();
        assert!(text.contains("DEAD"));
        assert!(text.contains("max alive sub-query"));
    }

    #[test]
    fn quiet_chaos_and_default_knobs_change_nothing() {
        let base = debugger(StrategyKind::ScoreBasedHeuristic)
            .debug("saffron candle")
            .unwrap();
        let d = NonAnswerDebugger::new(
            db(),
            DebugConfig {
                max_joins: 2,
                chaos: Some(FaultConfig::quiet(42)),
                ..DebugConfig::default()
            },
        )
        .unwrap();
        let r = d.debug("saffron candle").unwrap();
        // Byte-identical up to wall-clock timings (the only nondeterminism).
        let scrub = |s: &str| -> String {
            s.lines()
                .map(|l| match l.find(" SQL queries, ") {
                    Some(i) => format!("{} SQL queries, (t)", &l[..i]),
                    None => l.to_string(),
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(scrub(&r.to_string()), scrub(&base.to_string()), "quiet chaos is transparent");
        assert_eq!(r.sql_queries(), base.sql_queries());
        let timeless = |mut p: crate::metrics::ProbeCounters| {
            p.probe_time_ns = 0;
            p
        };
        assert_eq!(timeless(r.probes()), timeless(base.probes()), "same counters");
        assert!(r.is_complete() && base.is_complete());
        for (ri, bi) in r.interpretations.iter().zip(&base.interpretations) {
            assert_eq!(ri.answers, bi.answers);
            assert_eq!(ri.non_answers, bi.non_answers);
            assert_eq!(ri.unknown, bi.unknown);
        }
    }

    #[test]
    fn zero_probe_budget_reports_everything_unknown() {
        let d = NonAnswerDebugger::new(
            db(),
            DebugConfig {
                max_joins: 2,
                budget: ProbeBudget::probes(0),
                ..DebugConfig::default()
            },
        )
        .unwrap();
        let r = d.debug("saffron candle").unwrap();
        assert_eq!(r.answer_count(), 0);
        assert_eq!(r.non_answer_count(), 0);
        assert_eq!(r.unknown_count(), 1, "the MTN is reported, just unclassified");
        assert!(!r.is_complete());
        assert_eq!(r.sql_queries(), 0, "nothing executed");
        assert_eq!(r.probes().budget_exhausted, 1);
        let text = r.to_string();
        assert!(text.contains("UNKNOWN"), "{text}");
        assert!(text.contains("probe budget exhausted"), "{text}");
    }

    #[test]
    fn robustness_setters_update_config() {
        let mut d = debugger(StrategyKind::ScoreBasedHeuristic);
        d.set_budget(ProbeBudget::probes(5));
        d.set_retry(RetryPolicy::none());
        d.set_chaos(Some(FaultConfig::quiet(1)));
        assert_eq!(d.config().budget, ProbeBudget::probes(5));
        assert_eq!(d.config().retry, RetryPolicy::none());
        assert!(d.config().chaos.is_some());
        d.set_chaos(None);
        assert!(d.config().chaos.is_none());
    }

    #[test]
    fn shared_parts_sessions_agree_with_owner() {
        // The serving-layer split: one owner builds Phase 0, then O(1)
        // sessions attach to the same immutable substrate and must report
        // exactly what the owner reports — with private eval caches.
        let owner = debugger(StrategyKind::ScoreBasedHeuristic);
        let parts = owner.shared_parts();
        assert_eq!(parts.max_joins(), 2);
        assert_eq!(parts.database().tables().count(), owner.database().tables().count());

        let session = NonAnswerDebugger::from_shared(
            parts.clone(),
            DebugConfig { max_joins: 2, eval_cache: true, ..DebugConfig::default() },
        )
        .expect("O(1) session over shared parts");
        for query in ["saffron candle", "red candle", "scented oil"] {
            let a = owner.debug(query).unwrap();
            let b = session.debug(query).unwrap();
            assert_eq!(a.answer_count(), b.answer_count(), "{query}");
            assert_eq!(a.non_answer_count(), b.non_answer_count(), "{query}");
            assert_eq!(a.mpan_count(), b.mpan_count(), "{query}");
        }
        // The session warmed its own cache generation, not the owner's.
        assert!(session.eval_cache().selection_entries() > 0);
        assert_eq!(owner.eval_cache().selection_entries(), 0);
    }

    #[test]
    fn shared_cache_sessions_share_one_store() {
        let owner = debugger(StrategyKind::ScoreBasedHeuristic);
        let mut parts = owner.shared_parts();
        let store = parts.share_eval_cache(None);
        let config = DebugConfig { max_joins: 2, eval_cache: true, ..DebugConfig::default() };
        let a = NonAnswerDebugger::from_shared(parts.clone(), config).expect("session a");
        let b = NonAnswerDebugger::from_shared(parts.clone(), config).expect("session b");
        let ra = a.debug("saffron candle").unwrap();
        let warmed = store.bytes();
        assert!(warmed > 0, "first session populates the shared store");
        let rb = b.debug("saffron candle").unwrap();
        assert_eq!(store.bytes(), warmed, "second session adds nothing new");
        assert!(store.hits() > 0, "second session hits shared entries");
        assert_eq!(ra.answer_count(), rb.answer_count());
        assert_eq!(ra.non_answer_count(), rb.non_answer_count());
        assert_eq!(ra.mpan_count(), rb.mpan_count());
        // Both sessions see the same resident store through their accessor.
        assert_eq!(a.eval_cache().bytes(), b.eval_cache().bytes());
        assert!(a.shared_cache().is_some() && b.shared_cache().is_some());
        // shared_parts() re-exports the attachment for further siblings.
        assert!(a.shared_parts().shared_cache().is_some());
        // The opt-out handle yields private-cache sessions.
        let private =
            NonAnswerDebugger::from_shared(parts.without_shared_cache(), config).expect("session");
        assert!(private.shared_cache().is_none());
        private.debug("saffron candle").unwrap();
        assert_eq!(store.bytes(), warmed, "opted-out session never touches the store");
    }

    #[test]
    fn adopt_rejects_foreign_database() {
        let one = debugger(StrategyKind::ScoreBasedHeuristic);
        let two = debugger(StrategyKind::ScoreBasedHeuristic);
        let mut parts_one = one.shared_parts();
        let mut parts_two = two.shared_parts();
        assert_ne!(parts_one.db_id(), parts_two.db_id());
        let store = parts_one.share_eval_cache(Some(1 << 20));
        assert!(
            matches!(parts_two.adopt_eval_cache(store.clone()), Err(KwError::BadConfig(_))),
            "a cache from another database build must not attach"
        );
        // Same-identity adoption (another clone of the same substrate) is
        // fine.
        let mut sibling = one.shared_parts();
        sibling.adopt_eval_cache(store).expect("same identity adopts");
        assert!(sibling.shared_cache().is_some());
    }

    #[test]
    fn online_pa_matches_fixed_prior_output() {
        let base = debugger(StrategyKind::ScoreBasedHeuristic);
        let parts = base.shared_parts();
        let online = NonAnswerDebugger::from_shared(
            parts,
            DebugConfig { max_joins: 2, online_pa: true, ..DebugConfig::default() },
        )
        .expect("session");
        for query in ["saffron candle", "red candle", "scented oil", "saffron candle"] {
            let a = base.debug(query).unwrap();
            let b = online.debug(query).unwrap();
            assert_eq!(a.answer_count(), b.answer_count(), "{query}");
            assert_eq!(a.non_answer_count(), b.non_answer_count(), "{query}");
            assert_eq!(a.mpan_count(), b.mpan_count(), "{query}");
        }
        assert!(online.pa_stats().observations() > 0, "verdicts were recorded");
        // The estimator is the substrate's: the owner sees the same one.
        assert!(Arc::ptr_eq(base.pa_stats(), online.pa_stats()));
    }

    #[test]
    fn from_shared_validates_config_against_lattice() {
        let owner = debugger(StrategyKind::ScoreBasedHeuristic);
        let result = NonAnswerDebugger::from_shared(
            owner.shared_parts(),
            DebugConfig { max_joins: 3, ..DebugConfig::default() },
        );
        assert!(matches!(result, Err(KwError::BadConfig(_))), "lattice depth must match");
        let result = NonAnswerDebugger::from_shared(
            owner.shared_parts(),
            DebugConfig { max_joins: 2, pa: 7.0, ..DebugConfig::default() },
        );
        assert!(matches!(result, Err(KwError::BadConfig(_))), "config still validated");
    }
}

#[cfg(test)]
mod with_lattice_tests {
    use super::*;
    use crate::lattice_io::{load_lattice, save_lattice};
    use relengine::{DataType, DatabaseBuilder, Value};

    fn db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("color").column("id", DataType::Int).column("name", DataType::Text)
            .primary_key("id");
        b.table("item")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .column("color_id", DataType::Int)
            .primary_key("id");
        b.foreign_key("item", "color_id", "color", "id").expect("static");
        let mut db = b.finish().expect("static");
        db.insert_values("color", vec![Value::Int(1), Value::text("red")]).expect("row");
        db.insert_values("item", vec![Value::Int(1), Value::text("wax"), Value::Int(1)])
            .expect("row");
        db.finalize();
        db
    }

    #[test]
    fn persisted_lattice_round_trips_through_debugger() {
        let config = DebugConfig { max_joins: 2, sample_limit: 0, ..DebugConfig::default() };
        let first = NonAnswerDebugger::new(db(), config).expect("builds");
        let mut buf = Vec::new();
        save_lattice(first.lattice(), &mut buf).expect("saves");
        let reloaded = load_lattice(&mut buf.as_slice()).expect("loads");
        let second =
            NonAnswerDebugger::with_lattice(db(), reloaded, config).expect("reuses lattice");
        for q in ["red wax", "red item"] {
            let a = first.debug(q).expect("runs");
            let b = second.debug(q).expect("runs");
            assert_eq!(a.answer_count(), b.answer_count(), "{q}");
            assert_eq!(a.non_answer_count(), b.non_answer_count(), "{q}");
        }
    }

    #[test]
    fn mismatched_max_joins_rejected() {
        let first = NonAnswerDebugger::new(
            db(),
            DebugConfig { max_joins: 2, ..DebugConfig::default() },
        )
        .expect("builds");
        let mut buf = Vec::new();
        save_lattice(first.lattice(), &mut buf).expect("saves");
        let reloaded = load_lattice(&mut buf.as_slice()).expect("loads");
        let result = NonAnswerDebugger::with_lattice(
            db(),
            reloaded,
            DebugConfig { max_joins: 3, ..DebugConfig::default() },
        );
        assert!(matches!(result, Err(KwError::BadConfig(_))));
    }

    #[test]
    fn foreign_lattice_rejected() {
        // A lattice over a wider schema must not attach to a narrower db.
        let mut b = DatabaseBuilder::new();
        b.table("only").column("id", DataType::Int).column("t", DataType::Text);
        let small = b.finish().expect("static");
        let wide = NonAnswerDebugger::new(
            db(),
            DebugConfig { max_joins: 1, ..DebugConfig::default() },
        )
        .expect("builds");
        let mut buf = Vec::new();
        save_lattice(wide.lattice(), &mut buf).expect("saves");
        let reloaded = load_lattice(&mut buf.as_slice()).expect("loads");
        let result = NonAnswerDebugger::with_lattice(
            small,
            reloaded,
            DebugConfig { max_joins: 1, ..DebugConfig::default() },
        );
        assert!(matches!(result, Err(KwError::BadConfig(_))));
    }
}
