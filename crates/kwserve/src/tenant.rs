//! Per-tenant admission control and budgets.
//!
//! A *tenant* is the unit of resource isolation: every session declares one
//! in its `Hello`, and the server applies that tenant's [`TenantPolicy`] —
//! a cap on concurrent sessions (admission control) and a per-query
//! [`ProbeBudget`] (work control). The two compose: admission bounds how
//! many debuggers a tenant can have resident, the budget bounds how much
//! probing each of its queries may do, and a query that hits its budget
//! degrades to a *partial* report with sound MPAN bounds (PR 2's guarantee)
//! rather than failing — exactly what crosses the wire as a
//! degraded-flagged report.
//!
//! Overload adds a third, finer cap: [`TenantPolicy::max_inflight_requests`]
//! bounds how many `Debug` requests a tenant may have *executing at once*
//! across all its sessions. A tenant that fans one session's worth of quota
//! into a burst of expensive queries gets `Overloaded` (with a retry hint)
//! on the excess instead of starving its neighbours; the session itself
//! survives. Global capacity (the server-wide in-flight gate) is handled in
//! the server; this module is only about fairness *between* tenants.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use kwdebug::budget::ProbeBudget;

/// Resource limits for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Concurrent sessions this tenant may hold open (`usize::MAX` =
    /// unlimited). The `max_sessions + 1`-th `Hello` is rejected with
    /// `QuotaExhausted` — rejected, not queued, so one tenant can never
    /// occupy the whole worker pool.
    pub max_sessions: usize,
    /// Probe budget applied to every query of every session of this tenant
    /// (per interpretation, like [`kwdebug::DebugConfig::budget`]).
    /// Unlimited by default; a capped budget turns over-long queries into
    /// degraded partial reports instead of unbounded work.
    pub budget: ProbeBudget,
    /// Concurrent `Debug` requests this tenant may have executing at once,
    /// summed over all its sessions (`usize::MAX` = unlimited). The excess
    /// request is answered `Overloaded` with a retry hint — shed, not
    /// queued — while the session stays open.
    pub max_inflight_requests: usize,
    /// Opt this tenant out of the server's process-wide
    /// [`kwdebug::evalcache::EvalCache`] (when `ServeConfig::
    /// shared_cache` is enabled): its sessions get private, session-scoped
    /// caches instead. Isolation knob for tenants whose query mix would
    /// thrash the shared LRU, or whose workload must not influence (or be
    /// influenced by) co-tenants' cache residency. No effect when the server
    /// runs without a shared cache.
    pub private_cache: bool,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            max_sessions: usize::MAX,
            budget: ProbeBudget::unlimited(),
            max_inflight_requests: usize::MAX,
            private_cache: false,
        }
    }
}

impl TenantPolicy {
    /// A policy capping concurrent sessions only.
    pub fn sessions(max_sessions: usize) -> TenantPolicy {
        TenantPolicy { max_sessions, ..TenantPolicy::default() }
    }

    /// Adds a per-query probe budget to this policy.
    pub fn with_budget(mut self, budget: ProbeBudget) -> TenantPolicy {
        self.budget = budget;
        self
    }

    /// Caps concurrent in-flight `Debug` requests across the tenant's
    /// sessions.
    pub fn with_max_inflight(mut self, max_inflight_requests: usize) -> TenantPolicy {
        self.max_inflight_requests = max_inflight_requests;
        self
    }

    /// Opts this tenant out of the server's shared evaluation cache (see
    /// [`TenantPolicy::private_cache`]).
    pub fn with_private_cache(mut self) -> TenantPolicy {
        self.private_cache = true;
        self
    }
}

/// The server's tenant table: explicit policies per known tenant plus a
/// default for everyone else, and the live per-tenant session counts.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    policies: HashMap<String, TenantPolicy>,
    default: TenantPolicy,
    /// Live per-tenant counts (only tenants with ≥ 1 live session or request
    /// have an entry, so idle tenants cost nothing).
    active: Mutex<HashMap<String, Counts>>,
}

/// Live usage of one tenant: both counters under the same lock so sessions
/// and requests can never skew against each other.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    sessions: usize,
    requests: usize,
}

impl Counts {
    fn is_zero(&self) -> bool {
        self.sessions == 0 && self.requests == 0
    }
}

impl TenantRegistry {
    /// A registry where every tenant gets `default`.
    pub fn new(default: TenantPolicy) -> TenantRegistry {
        TenantRegistry { default, ..TenantRegistry::default() }
    }

    /// Sets an explicit policy for `tenant` (builder style).
    pub fn with_tenant(mut self, tenant: &str, policy: TenantPolicy) -> TenantRegistry {
        self.policies.insert(tenant.to_owned(), policy);
        self
    }

    /// The policy `tenant` is served under.
    pub fn policy(&self, tenant: &str) -> TenantPolicy {
        self.policies.get(tenant).copied().unwrap_or(self.default)
    }

    /// Live sessions `tenant` holds right now.
    pub fn active_sessions(&self, tenant: &str) -> usize {
        self.active.lock().expect("registry lock").get(tenant).map_or(0, |c| c.sessions)
    }

    /// `Debug` requests `tenant` has executing right now.
    pub fn active_requests(&self, tenant: &str) -> usize {
        self.active.lock().expect("registry lock").get(tenant).map_or(0, |c| c.requests)
    }

    /// Tries to admit one session for `tenant`: returns a [`SessionPermit`]
    /// that holds the slot until dropped, or `None` when the tenant is at
    /// its `max_sessions` quota. Check-and-increment happens under one lock,
    /// so racing `Hello`s can never overshoot the quota.
    pub fn try_admit(self: &Arc<Self>, tenant: &str) -> Option<SessionPermit> {
        let policy = self.policy(tenant);
        let mut active = self.active.lock().expect("registry lock");
        let counts = active.entry(tenant.to_owned()).or_default();
        if counts.sessions >= policy.max_sessions {
            return None;
        }
        counts.sessions += 1;
        Some(SessionPermit { registry: Arc::clone(self), tenant: tenant.to_owned() })
    }

    /// Tries to start one `Debug` request for `tenant`: returns a
    /// [`RequestPermit`] held for the duration of the request, or `None`
    /// when the tenant is at its `max_inflight_requests` cap (the caller
    /// answers `Overloaded` and keeps the session open). Same single-lock
    /// check-and-increment discipline as [`TenantRegistry::try_admit`].
    pub fn try_start_request(self: &Arc<Self>, tenant: &str) -> Option<RequestPermit> {
        let policy = self.policy(tenant);
        let mut active = self.active.lock().expect("registry lock");
        let counts = active.entry(tenant.to_owned()).or_default();
        if counts.requests >= policy.max_inflight_requests {
            return None;
        }
        counts.requests += 1;
        Some(RequestPermit { registry: Arc::clone(self), tenant: tenant.to_owned() })
    }

    fn release(&self, tenant: &str, f: impl FnOnce(&mut Counts)) {
        let mut active = self.active.lock().expect("registry lock");
        if let Some(counts) = active.get_mut(tenant) {
            f(counts);
            if counts.is_zero() {
                active.remove(tenant);
            }
        }
    }
}

/// An admitted session's slot; dropping it releases the tenant's quota.
#[derive(Debug)]
pub struct SessionPermit {
    registry: Arc<TenantRegistry>,
    tenant: String,
}

impl SessionPermit {
    /// The tenant this permit belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        self.registry.release(&self.tenant, |c| c.sessions -= 1);
    }
}

/// One executing `Debug` request's slot; dropping it (on any exit path,
/// including unwind) releases the tenant's in-flight cap.
#[derive(Debug)]
pub struct RequestPermit {
    registry: Arc<TenantRegistry>,
    tenant: String,
}

impl Drop for RequestPermit {
    fn drop(&mut self) {
        self.registry.release(&self.tenant, |c| c.requests -= 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_unlimited() {
        let p = TenantPolicy::default();
        assert_eq!(p.max_sessions, usize::MAX);
        assert!(p.budget.is_unlimited());
        assert_eq!(p.max_inflight_requests, usize::MAX);
    }

    #[test]
    fn request_cap_enforced_and_survives_unwind() {
        let reg = Arc::new(
            TenantRegistry::new(TenantPolicy::default())
                .with_tenant("bursty", TenantPolicy::default().with_max_inflight(2)),
        );
        let a = reg.try_start_request("bursty").expect("first request fits");
        let b = reg.try_start_request("bursty").expect("second request fits");
        assert_eq!(reg.active_requests("bursty"), 2);
        assert!(reg.try_start_request("bursty").is_none(), "cap of 2 is full");
        assert!(
            reg.try_start_request("other").is_some(),
            "caps are per tenant"
        );
        drop(a);
        drop(b);
        // A panicking request still releases its permit via Drop.
        let reg2 = Arc::clone(&reg);
        let _ = std::panic::catch_unwind(move || {
            let _p = reg2.try_start_request("bursty").unwrap();
            panic!("poisoned query");
        });
        assert_eq!(reg.active_requests("bursty"), 0, "no leaked request permits");
    }

    #[test]
    fn sessions_and_requests_are_independent_counts() {
        let reg = Arc::new(TenantRegistry::new(
            TenantPolicy::sessions(1).with_max_inflight(1),
        ));
        let s = reg.try_admit("t").unwrap();
        let r = reg.try_start_request("t").unwrap();
        assert_eq!(reg.active_sessions("t"), 1);
        assert_eq!(reg.active_requests("t"), 1);
        drop(s);
        assert_eq!(reg.active_sessions("t"), 0);
        assert_eq!(reg.active_requests("t"), 1, "request outlives its session's permit");
        drop(r);
        assert_eq!(reg.active_requests("t"), 0);
    }

    #[test]
    fn quota_enforced_and_released() {
        let reg = Arc::new(
            TenantRegistry::new(TenantPolicy::default())
                .with_tenant("small", TenantPolicy::sessions(1)),
        );
        let permit = reg.try_admit("small").expect("first session fits");
        assert_eq!(reg.active_sessions("small"), 1);
        assert!(reg.try_admit("small").is_none(), "quota of 1 is full");
        drop(permit);
        assert_eq!(reg.active_sessions("small"), 0);
        assert!(reg.try_admit("small").is_some(), "slot came back");
    }

    #[test]
    fn unknown_tenants_use_default() {
        let reg = Arc::new(TenantRegistry::new(TenantPolicy::sessions(2)));
        let a = reg.try_admit("anyone").unwrap();
        let _b = reg.try_admit("anyone").unwrap();
        assert!(reg.try_admit("anyone").is_none());
        assert!(reg.try_admit("someone-else").is_some(), "quotas are per tenant");
        drop(a);
        assert!(reg.try_admit("anyone").is_some());
    }

    #[test]
    fn admission_is_race_free() {
        let reg = Arc::new(TenantRegistry::new(TenantPolicy::sessions(10)));
        // Permits park here so none is released while threads still race.
        let held = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..5 {
                        if let Some(p) = reg.try_admit("t") {
                            held.lock().unwrap().push(p);
                        }
                    }
                });
            }
        });
        assert_eq!(held.lock().unwrap().len(), 10, "exactly the quota admitted");
        assert_eq!(reg.active_sessions("t"), 10);
        held.lock().unwrap().clear();
        assert_eq!(reg.active_sessions("t"), 0, "all permits released");
    }
}
