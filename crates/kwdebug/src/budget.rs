//! Probe budgets and retry policies — the knobs of degraded mode.
//!
//! The paper's Phase 3 assumes every probe runs instantly and the traversal
//! runs to completion; a production debugger in the DISCOVER/DBXplorer
//! lineage must bound per-query work instead. [`ProbeBudget`] caps a
//! traversal's probe count, wall-clock time and tuple scans; [`RetryPolicy`]
//! governs how the oracle reacts to [`relengine::EngineError::Transient`]
//! failures (capped exponential backoff, no jitter, so retry schedules are
//! deterministic in tests). When a budget trips, the oracle reports
//! [`Exhausted`] and the traversal degrades to a *partial* report instead of
//! aborting — see [`crate::traversal`].
//!
//! ## Enforcement: [`BudgetGate`]
//!
//! [`ProbeBudget`] itself is a plain-value description of the caps; the
//! *stateful* enforcement lives in [`BudgetGate`], plain state owned by one
//! oracle. A probe slot is **reserved** before the probe executes
//! ([`BudgetGate::try_reserve`]) and **released** if the probe fails
//! without executing ([`BudgetGate::release`]), so the reserved count never
//! exceeds `max_probes` and equals the executed count between probes.
//! The trip state is sticky: the first cap to trip is the one every later
//! refusal reports. See DESIGN.md §8 for the per-node protocol.

use std::time::{Duration, Instant};

/// Limits on the work one interpretation's probing may perform.
///
/// All limits are optional; the default budget is unlimited, which leaves
/// every happy-path traversal byte-identical to the un-budgeted pipeline.
/// The budget is enforced by [`crate::oracle::AlivenessOracle`] *before*
/// each probe: a probe that would exceed a cap is never executed and the
/// oracle reports [`Exhausted`] from then on (budgets are sticky — once
/// tripped, every later probe is refused).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeBudget {
    /// Maximum SQL probes to execute (`None` = unlimited). A budget of
    /// `Some(0)` refuses every probe and yields an all-`Unknown` report.
    pub max_probes: Option<u64>,
    /// Wall-clock deadline, measured from the first probe attempt
    /// (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// Maximum engine tuples to scan across all probes (`None` = unlimited).
    pub max_tuples: Option<u64>,
}

impl ProbeBudget {
    /// The unlimited budget (the default; no behavior change).
    pub fn unlimited() -> ProbeBudget {
        ProbeBudget::default()
    }

    /// A budget of at most `n` probes.
    pub fn probes(n: u64) -> ProbeBudget {
        ProbeBudget { max_probes: Some(n), ..ProbeBudget::default() }
    }

    /// Caps wall-clock time from the first probe.
    pub fn with_deadline(mut self, deadline: Duration) -> ProbeBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Caps total engine tuples scanned.
    pub fn with_max_tuples(mut self, n: u64) -> ProbeBudget {
        self.max_tuples = Some(n);
        self
    }

    /// Whether no cap is set at all.
    pub fn is_unlimited(&self) -> bool {
        self.max_probes.is_none() && self.deadline.is_none() && self.max_tuples.is_none()
    }
}

/// Which cap of a [`ProbeBudget`] tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhausted {
    /// `max_probes` was reached.
    Probes,
    /// The wall-clock `deadline` passed.
    Deadline,
    /// `max_tuples` scans were exceeded.
    Tuples,
}

impl std::fmt::Display for Exhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exhausted::Probes => f.write_str("max probes reached"),
            Exhausted::Deadline => f.write_str("deadline passed"),
            Exhausted::Tuples => f.write_str("tuple-scan cap reached"),
        }
    }
}

/// How the oracle retries transient probe failures.
///
/// Backoff is capped exponential with no jitter: attempt `k` (0-based)
/// sleeps `min(base_backoff << k, max_backoff)` before retrying, so a fixed
/// fault schedule produces a fixed retry schedule — the determinism the
/// chaos tests rely on. Permanent failures are never retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 = fail immediately).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Never retry: any transient failure abandons the probe.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }

    /// Retry up to `max_retries` times with zero backoff (for fast tests).
    pub fn immediate(max_retries: u32) -> RetryPolicy {
        RetryPolicy { max_retries, base_backoff: Duration::ZERO, max_backoff: Duration::ZERO }
    }

    /// The deterministic backoff before retry number `attempt` (0-based):
    /// `min(base_backoff * 2^attempt, max_backoff)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .unwrap_or(self.max_backoff);
        exp.min(self.max_backoff)
    }
}

/// The enforcement state of one [`ProbeBudget`] window.
///
/// The gate is the budget's single source of truth: every probe and sample
/// of an oracle reserves its slot here, so the probe count never overshoots
/// `max_probes`.
///
/// Protocol per probe:
///
/// 1. [`BudgetGate::try_reserve`] — refuses (and stickily trips) if a cap is
///    already exceeded, otherwise reserves one probe slot;
/// 2. the probe executes;
/// 3. on a *failed* execution (abandoned probe, mid-retry deadline trip) the
///    caller returns the slot with [`BudgetGate::release`], preserving the
///    invariant that failed attempts never count against the budget.
///
/// The deadline clock starts at the first `try_reserve` (the first probe
/// attempt).
#[derive(Debug, Default)]
pub struct BudgetGate {
    budget: ProbeBudget,
    /// Probe slots handed out and not released; equals probes executed
    /// between probes.
    reserved: u64,
    /// First cap to trip (sticky), `None` while open.
    tripped: Option<Exhausted>,
    /// Wall-clock origin of the deadline, set at the first reservation.
    started: Option<Instant>,
}

impl BudgetGate {
    /// A gate enforcing `budget`, with a fresh window (no slots reserved, no
    /// trip, deadline clock unstarted).
    pub fn new(budget: ProbeBudget) -> BudgetGate {
        BudgetGate { budget, ..BudgetGate::default() }
    }

    /// The budget this gate enforces.
    pub fn budget(&self) -> ProbeBudget {
        self.budget
    }

    /// Why probing stopped, if a cap tripped.
    pub fn tripped(&self) -> Option<Exhausted> {
        self.tripped
    }

    /// Probe slots currently reserved (executed + in flight).
    pub fn reserved(&self) -> u64 {
        self.reserved
    }

    /// Trips the gate for `why` unless it already tripped, and returns the
    /// cause in force: the first trip's, since trips are sticky.
    pub fn trip(&mut self, why: Exhausted) -> Exhausted {
        *self.tripped.get_or_insert(why)
    }

    /// Reserves one probe slot, checking the caps in the oracle's historical
    /// order (probes, deadline, tuples — `tuples_scanned` is the caller's
    /// running total, typically its `tuples_scanned` counter). A refusal
    /// trips the gate stickily; once tripped every reservation is refused
    /// with the original cause.
    pub fn try_reserve(&mut self, tuples_scanned: u64) -> Result<(), Exhausted> {
        if let Some(why) = self.tripped {
            return Err(why);
        }
        let start = *self.started.get_or_insert_with(Instant::now);
        let why = if self.budget.max_probes.is_some_and(|m| self.reserved >= m) {
            Exhausted::Probes
        } else if self.budget.deadline.is_some_and(|d| start.elapsed() >= d) {
            Exhausted::Deadline
        } else if self.budget.max_tuples.is_some_and(|m| tuples_scanned >= m) {
            Exhausted::Tuples
        } else {
            self.reserved += 1;
            return Ok(());
        };
        Err(self.trip(why))
    }

    /// Returns a reserved slot after a probe failed without executing
    /// (abandoned, or tripped mid-retry), so failed attempts never count.
    pub fn release(&mut self) {
        self.reserved -= 1;
    }

    /// Whether the wall-clock deadline has passed (false when no deadline is
    /// set or the clock has not started). Used by the retry loop, which may
    /// outlive the deadline while backing off.
    pub fn deadline_passed(&self) -> bool {
        self.budget.deadline.is_some_and(|d| self.started.is_some_and(|s| s.elapsed() >= d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = ProbeBudget::default();
        assert!(b.is_unlimited());
        assert_eq!(b, ProbeBudget::unlimited());
    }

    #[test]
    fn budget_builders_compose() {
        let b = ProbeBudget::probes(10)
            .with_deadline(Duration::from_millis(5))
            .with_max_tuples(1000);
        assert_eq!(b.max_probes, Some(10));
        assert_eq!(b.deadline, Some(Duration::from_millis(5)));
        assert_eq!(b.max_tuples, Some(1000));
        assert!(!b.is_unlimited());
    }

    #[test]
    fn exhausted_display() {
        assert_eq!(Exhausted::Probes.to_string(), "max probes reached");
        assert_eq!(Exhausted::Deadline.to_string(), "deadline passed");
        assert_eq!(Exhausted::Tuples.to_string(), "tuple-scan cap reached");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(9),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(2));
        assert_eq!(p.backoff(1), Duration::from_millis(4));
        assert_eq!(p.backoff(2), Duration::from_millis(8));
        assert_eq!(p.backoff(3), Duration::from_millis(9), "capped");
        assert_eq!(p.backoff(63), Duration::from_millis(9), "huge shifts stay capped");
    }

    #[test]
    fn immediate_policy_never_sleeps() {
        let p = RetryPolicy::immediate(4);
        assert_eq!(p.max_retries, 4);
        for k in 0..8 {
            assert_eq!(p.backoff(k), Duration::ZERO);
        }
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }

    #[test]
    fn gate_reserves_exactly_max_probes() {
        let mut gate = BudgetGate::new(ProbeBudget::probes(2));
        assert!(gate.try_reserve(0).is_ok());
        assert!(gate.try_reserve(0).is_ok());
        assert_eq!(gate.try_reserve(0), Err(Exhausted::Probes), "the third refusal trips");
        assert_eq!(gate.try_reserve(0), Err(Exhausted::Probes), "sticky");
        assert_eq!(gate.tripped(), Some(Exhausted::Probes));
        assert_eq!(gate.reserved(), 2);
    }

    #[test]
    fn gate_release_refunds_failed_probes() {
        let mut gate = BudgetGate::new(ProbeBudget::probes(1));
        assert!(gate.try_reserve(0).is_ok());
        gate.release();
        assert!(gate.try_reserve(0).is_ok(), "released slot is reusable");
        assert!(gate.try_reserve(0).is_err());
    }

    #[test]
    fn gate_deadline_and_tuples_trip() {
        let mut gate = BudgetGate::new(ProbeBudget::default().with_deadline(Duration::ZERO));
        assert_eq!(gate.try_reserve(0), Err(Exhausted::Deadline));
        assert_eq!(gate.reserved(), 0, "deadline refusal returns the slot");
        assert!(gate.deadline_passed());

        let mut gate = BudgetGate::new(ProbeBudget::default().with_max_tuples(10));
        assert!(gate.try_reserve(9).is_ok());
        assert_eq!(gate.try_reserve(10), Err(Exhausted::Tuples));
    }

    #[test]
    fn gate_trip_is_first_writer_wins() {
        let mut gate = BudgetGate::new(ProbeBudget::unlimited());
        assert_eq!(gate.trip(Exhausted::Deadline), Exhausted::Deadline);
        assert_eq!(gate.trip(Exhausted::Tuples), Exhausted::Deadline, "original cause reported");
        assert_eq!(gate.tripped(), Some(Exhausted::Deadline));
        assert_eq!(gate.try_reserve(0), Err(Exhausted::Deadline));
    }
}
