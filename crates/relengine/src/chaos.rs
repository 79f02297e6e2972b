//! Deterministic fault injection: the chaos layer under the executor.
//!
//! Production keyword-search debuggers run their probe SQL against an engine
//! that fails — connections drop, replicas lag, a pathological join stalls.
//! This module makes those failure modes *reproducible*: a [`FaultInjector`]
//! draws from a seeded [`SplitMix64`] stream and
//! decides, per execution attempt, whether to inject a transient failure
//! ([`EngineError::Transient`]), a permanent failure
//! ([`EngineError::Failed`]) or artificial latency before the real
//! execution. [`ChaosExecutor`] wraps a plain [`Executor`] and applies the
//! injector to every `exists`/`exists_retaining`/`execute`/`execute_reduced`
//! call.
//!
//! Determinism contract: the injector consumes exactly one decision per
//! attempt from a stream determined solely by [`FaultConfig::seed`], so the
//! same seed and the same sequence of attempts produce the same fault
//! schedule — the property the chaos integration suite and the `exp_chaos`
//! benchmark rely on. Injected faults always fire *before* the underlying
//! execution: a failed attempt never runs the query (so
//! [`ExecStats::queries`](crate::ExecStats) only counts real executions) and
//! results are never corrupted, only withheld.

use std::time::Duration;

use crate::catalog::Database;
use crate::error::EngineError;
use crate::exec::{Executor, MatchTuple, Reduced};
use crate::plan::JoinTreePlan;
use crate::rng::SplitMix64;
use crate::stats::ExecStats;

/// Configuration of a deterministic fault schedule.
///
/// Rates are expressed per mille (0..=1000) so schedules are exact integer
/// draws rather than float comparisons. The default configuration injects
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the decision stream; same seed, same schedule.
    pub seed: u64,
    /// Per-mille probability that an attempt fails transiently.
    pub transient_per_mille: u32,
    /// Per-mille probability that an attempt fails permanently.
    pub permanent_per_mille: u32,
    /// Per-mille probability that an attempt is delayed by `latency` before
    /// executing (the execution itself still succeeds).
    pub latency_per_mille: u32,
    /// The artificial delay injected when the latency draw fires.
    pub latency: Duration,
    /// Deterministic warm-up faults: the first `fail_first_transient`
    /// attempts fail transiently regardless of the rates. Lets tests pin
    /// down retry behavior exactly ("fail twice, then succeed").
    pub fail_first_transient: u32,
}

impl FaultConfig {
    /// A schedule that injects nothing (the happy path).
    pub fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transient_per_mille: 0,
            permanent_per_mille: 0,
            latency_per_mille: 0,
            latency: Duration::ZERO,
            fail_first_transient: 0,
        }
    }

    /// A transient-only schedule at the given per-mille rate.
    pub fn transient(seed: u64, per_mille: u32) -> FaultConfig {
        FaultConfig { transient_per_mille: per_mille, ..FaultConfig::quiet(seed) }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::quiet(0)
    }
}

/// The injector's verdict for one execution attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Execute normally.
    None,
    /// Delay by the configured latency, then execute normally.
    Delay(Duration),
    /// Fail the attempt with [`EngineError::Transient`]; retrying re-draws.
    Transient,
    /// Fail the attempt with [`EngineError::Failed`]; retrying cannot help.
    Permanent,
}

/// Counts of decisions an injector has made, for assertions and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Attempts that were allowed through untouched.
    pub passed: u64,
    /// Transient failures injected.
    pub transient: u64,
    /// Permanent failures injected.
    pub permanent: u64,
    /// Latency delays injected.
    pub delayed: u64,
}

impl FaultStats {
    /// Total faults injected (failures only; delays are slowdowns, not
    /// faults).
    pub fn faults(&self) -> u64 {
        self.transient + self.permanent
    }
}

/// A seeded source of per-attempt fault decisions.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: SplitMix64,
    attempts: u64,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for the given schedule.
    pub fn new(config: FaultConfig) -> FaultInjector {
        FaultInjector {
            config,
            rng: SplitMix64::seed_from_u64(config.seed),
            attempts: 0,
            stats: FaultStats::default(),
        }
    }

    /// The schedule this injector follows.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Decision counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Draws the decision for the next execution attempt.
    ///
    /// Failure draws take priority over the latency draw; all three channels
    /// are drawn every attempt so the decision stream stays aligned no matter
    /// which outcomes fire.
    pub fn decide(&mut self) -> FaultDecision {
        self.attempts += 1;
        let transient = self.config.transient_per_mille > 0
            && self.rng.gen_ratio(self.config.transient_per_mille.min(1000), 1000);
        let permanent = self.config.permanent_per_mille > 0
            && self.rng.gen_ratio(self.config.permanent_per_mille.min(1000), 1000);
        let delayed = self.config.latency_per_mille > 0
            && self.rng.gen_ratio(self.config.latency_per_mille.min(1000), 1000);
        if self.attempts <= u64::from(self.config.fail_first_transient) {
            self.stats.transient += 1;
            return FaultDecision::Transient;
        }
        if permanent {
            self.stats.permanent += 1;
            FaultDecision::Permanent
        } else if transient {
            self.stats.transient += 1;
            FaultDecision::Transient
        } else if delayed {
            self.stats.delayed += 1;
            FaultDecision::Delay(self.config.latency)
        } else {
            self.stats.passed += 1;
            FaultDecision::None
        }
    }

    /// Applies the next decision: sleeps on delays, errors on failures.
    fn guard(&mut self) -> Result<(), EngineError> {
        match self.decide() {
            FaultDecision::None => Ok(()),
            FaultDecision::Delay(d) => {
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
                Ok(())
            }
            FaultDecision::Transient => {
                Err(EngineError::Transient("injected transient fault".into()))
            }
            FaultDecision::Permanent => {
                Err(EngineError::Failed("injected permanent fault".into()))
            }
        }
    }
}

/// An [`Executor`] with a fault injector in front of every execution.
///
/// Mirrors the executor's probing API; each call first consults the
/// injector, so a faulted attempt returns an error *without* running the
/// query or touching [`ExecStats`]. Callers that retry transient errors get
/// a fresh draw per attempt.
pub struct ChaosExecutor<'a> {
    inner: Executor<'a>,
    injector: FaultInjector,
}

impl<'a> ChaosExecutor<'a> {
    /// Wraps a fresh executor over `db` with the given fault schedule.
    pub fn new(db: &'a Database, config: FaultConfig) -> ChaosExecutor<'a> {
        ChaosExecutor { inner: Executor::new(db), injector: FaultInjector::new(config) }
    }

    /// Wraps an existing executor (keeping its accumulated stats).
    pub fn wrap(inner: Executor<'a>, config: FaultConfig) -> ChaosExecutor<'a> {
        ChaosExecutor { inner, injector: FaultInjector::new(config) }
    }

    /// Unwraps back to the plain executor, discarding the fault schedule.
    pub fn into_inner(self) -> Executor<'a> {
        self.inner
    }

    /// Does the query return at least one tuple? May fail by injection.
    pub fn exists(&mut self, plan: &JoinTreePlan) -> Result<bool, EngineError> {
        self.injector.guard()?;
        self.inner.exists(plan)
    }

    /// [`Executor::exists_retaining`]: the aliveness test that keeps its
    /// reduced state. May fail by injection.
    pub fn exists_retaining(
        &mut self,
        plan: &JoinTreePlan,
    ) -> Result<Option<Reduced>, EngineError> {
        self.injector.guard()?;
        self.inner.exists_retaining(plan)
    }

    /// [`Executor::execute_reduced`]: tuples resumed from a reduced state.
    /// May fail by injection; a faulted attempt leaves `reduced` untouched,
    /// so a retry still resumes from it.
    pub fn execute_reduced(
        &mut self,
        plan: &JoinTreePlan,
        reduced: &mut Reduced,
        limit: usize,
    ) -> Result<Vec<MatchTuple>, EngineError> {
        self.injector.guard()?;
        self.inner.execute_reduced(plan, reduced, limit)
    }

    /// Evaluates the query, returning up to `limit` tuples. May fail by
    /// injection.
    pub fn execute(
        &mut self,
        plan: &JoinTreePlan,
        limit: usize,
    ) -> Result<Vec<MatchTuple>, EngineError> {
        self.injector.guard()?;
        self.inner.execute(plan, limit)
    }

    /// Statistics of the *real* executions (faulted attempts never count).
    pub fn stats(&self) -> &ExecStats {
        self.inner.stats()
    }

    /// Resets the execution statistics (not the fault schedule).
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// The injector's decision counters.
    pub fn fault_stats(&self) -> &FaultStats {
        self.injector.stats()
    }

    /// The database this executor runs against.
    pub fn database(&self) -> &'a Database {
        self.inner.database()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DatabaseBuilder;
    use crate::plan::PlanNode;
    use crate::predicate::Predicate;
    use crate::value::{DataType, Value};

    fn tiny_db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("t").column("id", DataType::Int).column("name", DataType::Text);
        let mut db = b.finish().unwrap();
        db.insert_values("t", vec![Value::Int(1), Value::text("hit")]).unwrap();
        db.finalize();
        db
    }

    fn probe_plan(db: &Database) -> JoinTreePlan {
        let t = db.table_id("t").unwrap();
        JoinTreePlan::new(vec![PlanNode::new(t, Predicate::any_text_contains("hit"))], vec![])
            .unwrap()
    }

    #[test]
    fn quiet_schedule_is_transparent() {
        let db = tiny_db();
        let plan = probe_plan(&db);
        let mut chaos = ChaosExecutor::new(&db, FaultConfig::quiet(7));
        for _ in 0..10 {
            assert!(chaos.exists(&plan).unwrap());
        }
        assert_eq!(chaos.stats().queries, 10);
        assert_eq!(chaos.fault_stats().faults(), 0);
        assert_eq!(chaos.fault_stats().passed, 10);
    }

    #[test]
    fn same_seed_same_schedule() {
        let mk = || {
            let mut inj = FaultInjector::new(FaultConfig {
                transient_per_mille: 300,
                permanent_per_mille: 100,
                latency_per_mille: 200,
                latency: Duration::ZERO,
                ..FaultConfig::quiet(42)
            });
            (0..200).map(|_| inj.decide()).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn rates_roughly_respected() {
        let mut inj = FaultInjector::new(FaultConfig::transient(3, 500));
        for _ in 0..1000 {
            inj.decide();
        }
        let t = inj.stats().transient;
        assert!((350..=650).contains(&t), "~half the draws transient, got {t}");
        assert_eq!(inj.stats().permanent, 0);
    }

    #[test]
    fn fail_first_forces_warmup_faults() {
        let db = tiny_db();
        let plan = probe_plan(&db);
        let mut chaos = ChaosExecutor::new(
            &db,
            FaultConfig { fail_first_transient: 2, ..FaultConfig::quiet(1) },
        );
        assert!(chaos.exists(&plan).unwrap_err().is_transient());
        assert!(chaos.exists(&plan).unwrap_err().is_transient());
        assert!(chaos.exists(&plan).unwrap());
        // Faulted attempts never ran the query.
        assert_eq!(chaos.stats().queries, 1);
        assert_eq!(chaos.fault_stats().transient, 2);
    }

    #[test]
    fn permanent_faults_are_not_transient() {
        let db = tiny_db();
        let plan = probe_plan(&db);
        let mut chaos = ChaosExecutor::new(
            &db,
            FaultConfig { permanent_per_mille: 1000, ..FaultConfig::quiet(5) },
        );
        let err = chaos.exists(&plan).unwrap_err();
        assert!(err.is_fault());
        assert!(!err.is_transient());
        assert_eq!(chaos.stats().queries, 0);
    }

    #[test]
    fn execute_is_also_guarded() {
        let db = tiny_db();
        let plan = probe_plan(&db);
        let mut chaos = ChaosExecutor::new(
            &db,
            FaultConfig { fail_first_transient: 1, ..FaultConfig::quiet(9) },
        );
        assert!(chaos.execute(&plan, 5).is_err());
        assert_eq!(chaos.execute(&plan, 5).unwrap().len(), 1);
        assert_eq!(chaos.stats().queries, 1);
        assert_eq!(chaos.database().total_rows(), 1);
        chaos.reset_stats();
        assert_eq!(chaos.stats().queries, 0);
    }

    #[test]
    fn retained_steps_are_guarded_once_each() {
        let db = tiny_db();
        let plan = probe_plan(&db);
        let mut plain = Executor::new(&db);
        let mut reduced = plain.exists_retaining(&plan).unwrap().expect("alive");
        let mut chaos = ChaosExecutor::wrap(
            plain,
            FaultConfig { fail_first_transient: 2, ..FaultConfig::quiet(4) },
        );
        assert!(chaos.exists_retaining(&plan).unwrap_err().is_transient());
        assert!(chaos.execute_reduced(&plan, &mut reduced, 5).unwrap_err().is_transient());
        // The faulted attempt left the state in place: the retry resumes.
        assert_eq!(chaos.execute_reduced(&plan, &mut reduced, 5).unwrap(), vec![vec![0]]);
        assert_eq!(chaos.stats().queries, 2, "the plain reduction and the resume");
        assert_eq!(chaos.fault_stats().transient, 2);
        assert_eq!(chaos.fault_stats().passed, 1);
    }

    #[test]
    fn wrap_preserves_inner_stats() {
        let db = tiny_db();
        let plan = probe_plan(&db);
        let mut plain = Executor::new(&db);
        plain.exists(&plan).unwrap();
        let chaos = ChaosExecutor::wrap(plain, FaultConfig::quiet(0));
        assert_eq!(chaos.stats().queries, 1);
    }
}
