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
//! ## Atomic enforcement: [`BudgetGate`]
//!
//! [`ProbeBudget`] itself is a plain-value description of the caps; the
//! *stateful* enforcement lives in [`BudgetGate`], which is entirely atomic,
//! so checking and reserving never block and never need `&mut`. Budget
//! atomicity is the invariant: a probe slot is **reserved** before the probe
//! executes ([`BudgetGate::try_reserve`]) and **released** if the probe fails
//! without executing ([`BudgetGate::release`]), so the number of reserved
//! slots can never exceed `max_probes`, even if threads race on one gate —
//! and since the oracle reserves each probe right before executing it, the
//! reserved count equals the executed count.
//! The trip state is sticky and first-writer-wins: the first cap to trip is
//! the one every later refusal reports. See DESIGN.md §8 ("Concurrency
//! model") for the full protocol.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
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

/// The result of a refused [`BudgetGate::try_reserve`] (or an explicit
/// [`BudgetGate::trip`]): which cap tripped, and whether this call was the
/// one that tripped it. Exactly one caller per gate observes `newly == true`
/// for a given trip — that caller increments the `budget_exhausted` metric,
/// preserving the "tripped exactly once" accounting under concurrency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trip {
    /// Which cap tripped (the first one to trip; sticky).
    pub why: Exhausted,
    /// Whether this call transitioned the gate from open to tripped.
    pub newly: bool,
}

/// Sticky trip state encoding for the gate's atomic (0 = open).
const TRIP_NONE: u8 = 0;
const TRIP_PROBES: u8 = 1;
const TRIP_DEADLINE: u8 = 2;
const TRIP_TUPLES: u8 = 3;

fn trip_code(why: Exhausted) -> u8 {
    match why {
        Exhausted::Probes => TRIP_PROBES,
        Exhausted::Deadline => TRIP_DEADLINE,
        Exhausted::Tuples => TRIP_TUPLES,
    }
}

fn trip_why(code: u8) -> Option<Exhausted> {
    match code {
        TRIP_PROBES => Some(Exhausted::Probes),
        TRIP_DEADLINE => Some(Exhausted::Deadline),
        TRIP_TUPLES => Some(Exhausted::Tuples),
        _ => None,
    }
}

/// Atomic, shareable enforcement state for one [`ProbeBudget`] window.
///
/// The gate is the budget's single source of truth: every probe and sample
/// of an oracle reserves its slot here, and the probe count can never
/// overshoot `max_probes`, even when reservations race. All state is atomic —
/// checking and reserving never block.
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
/// attempt), exactly like the pre-gate oracle's lazily-set start instant.
#[derive(Debug, Default)]
pub struct BudgetGate {
    budget: ProbeBudget,
    /// Probe slots handed out and not released; equals probes executed when
    /// no probe is in flight.
    reserved: AtomicU64,
    /// First cap to trip (sticky), `TRIP_NONE` while open.
    tripped: AtomicU8,
    /// Wall-clock origin of the deadline, set at the first reservation.
    started: OnceLock<Instant>,
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
        trip_why(self.tripped.load(Ordering::Acquire))
    }

    /// Probe slots currently reserved (executed + in flight).
    pub fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::Relaxed)
    }

    /// Trips the gate (sticky, first writer wins) and reports whether this
    /// call did the tripping.
    pub fn trip(&self, why: Exhausted) -> Trip {
        match self.tripped.compare_exchange(
            TRIP_NONE,
            trip_code(why),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Trip { why, newly: true },
            Err(prev) => Trip {
                why: trip_why(prev).unwrap_or(why),
                newly: false,
            },
        }
    }

    /// Reserves one probe slot, checking the caps in the oracle's historical
    /// order (probes, deadline, tuples — `tuples_scanned` is the caller's
    /// running total, typically `metrics.tuples_scanned`). A refusal trips
    /// the gate stickily; once tripped every reservation is refused with the
    /// original cause.
    pub fn try_reserve(&self, tuples_scanned: u64) -> Result<(), Trip> {
        if let Some(why) = self.tripped() {
            return Err(Trip { why, newly: false });
        }
        let start = *self.started.get_or_init(Instant::now);
        if let Some(m) = self.budget.max_probes {
            if self
                .reserved
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                    (c < m).then_some(c + 1)
                })
                .is_err()
            {
                return Err(self.trip(Exhausted::Probes));
            }
        } else {
            self.reserved.fetch_add(1, Ordering::AcqRel);
        }
        if self.budget.deadline.is_some_and(|d| start.elapsed() >= d) {
            self.release();
            return Err(self.trip(Exhausted::Deadline));
        }
        if self.budget.max_tuples.is_some_and(|m| tuples_scanned >= m) {
            self.release();
            return Err(self.trip(Exhausted::Tuples));
        }
        Ok(())
    }

    /// Returns a reserved slot after a probe failed without executing
    /// (abandoned, or tripped mid-retry), so failed attempts never count.
    pub fn release(&self) {
        self.reserved.fetch_sub(1, Ordering::AcqRel);
    }

    /// Whether the wall-clock deadline has passed (false when no deadline is
    /// set or the clock has not started). Used by the retry loop, which may
    /// outlive the deadline while backing off.
    pub fn deadline_passed(&self) -> bool {
        self.budget.deadline.is_some_and(|d| {
            self.started.get().is_some_and(|s| s.elapsed() >= d)
        })
    }

    /// Resets the window: slots, trip state and deadline clock (exclusive
    /// access — resets never race with reservations).
    pub fn reset(&mut self) {
        self.reserved.store(0, Ordering::Release);
        self.tripped.store(TRIP_NONE, Ordering::Release);
        self.started = OnceLock::new();
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
        let gate = BudgetGate::new(ProbeBudget::probes(2));
        assert!(gate.try_reserve(0).is_ok());
        assert!(gate.try_reserve(0).is_ok());
        let trip = gate.try_reserve(0).unwrap_err();
        assert_eq!(trip.why, Exhausted::Probes);
        assert!(trip.newly, "first refusal trips");
        let again = gate.try_reserve(0).unwrap_err();
        assert!(!again.newly, "sticky: later refusals do not re-trip");
        assert_eq!(gate.tripped(), Some(Exhausted::Probes));
        assert_eq!(gate.reserved(), 2);
    }

    #[test]
    fn gate_release_refunds_failed_probes() {
        let gate = BudgetGate::new(ProbeBudget::probes(1));
        assert!(gate.try_reserve(0).is_ok());
        gate.release();
        assert!(gate.try_reserve(0).is_ok(), "released slot is reusable");
        assert!(gate.try_reserve(0).is_err());
    }

    #[test]
    fn gate_deadline_and_tuples_trip() {
        let gate = BudgetGate::new(ProbeBudget::default().with_deadline(Duration::ZERO));
        assert_eq!(gate.try_reserve(0).unwrap_err().why, Exhausted::Deadline);
        assert_eq!(gate.reserved(), 0, "deadline refusal returns the slot");
        assert!(gate.deadline_passed());

        let gate = BudgetGate::new(ProbeBudget::default().with_max_tuples(10));
        assert!(gate.try_reserve(9).is_ok());
        assert_eq!(gate.try_reserve(10).unwrap_err().why, Exhausted::Tuples);
    }

    #[test]
    fn gate_reset_reopens_the_window() {
        let mut gate = BudgetGate::new(ProbeBudget::probes(1));
        assert!(gate.try_reserve(0).is_ok());
        assert!(gate.try_reserve(0).is_err());
        gate.reset();
        assert_eq!(gate.tripped(), None);
        assert_eq!(gate.reserved(), 0);
        assert!(gate.try_reserve(0).is_ok());
    }

    #[test]
    fn gate_never_overshoots_under_contention() {
        // 8 threads race for 100 slots; the total granted must be exactly 100.
        let gate = BudgetGate::new(ProbeBudget::probes(100));
        let granted = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        if gate.try_reserve(0).is_ok() {
                            granted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(granted.load(std::sync::atomic::Ordering::Relaxed), 100);
        assert_eq!(gate.reserved(), 100);
        assert_eq!(gate.tripped(), Some(Exhausted::Probes));
    }

    #[test]
    fn gate_trip_is_first_writer_wins() {
        let gate = BudgetGate::new(ProbeBudget::unlimited());
        assert!(gate.trip(Exhausted::Deadline).newly);
        let second = gate.trip(Exhausted::Tuples);
        assert!(!second.newly);
        assert_eq!(second.why, Exhausted::Deadline, "original cause reported");
        assert_eq!(gate.tripped(), Some(Exhausted::Deadline));
    }
}
