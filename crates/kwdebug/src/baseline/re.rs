//! Return Everything (RE): exhaustive runtime exploration without a lattice.

use std::time::Duration;

use crate::error::KwError;
use crate::lattice::Lattice;
use crate::oracle::AlivenessOracle;
use crate::prune::PrunedLattice;
use crate::traversal::{Status, TraversalOutcome};

/// Result of the RE baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReOutcome {
    /// The classification and MPANs (identical to any lattice traversal).
    pub outcome: TraversalOutcome,
}

/// Runs RE: execute every MTN, then every descendant of every dead MTN.
///
/// Without the lattice there is no sharing: a sub-query common to two dead
/// MTNs is executed once per MTN, and nothing is ever inferred. The resulting
/// classification is still exact, so the outcome's MPANs equal those of the
/// lattice traversals; only `sql_queries`/`sql_time` differ.
pub fn run_return_everything<'a>(
    lattice: &'a Lattice,
    pruned: &PrunedLattice,
    oracle: &mut AlivenessOracle<'a>,
) -> Result<ReOutcome, KwError> {
    let q0 = oracle.stats().queries;
    let t0 = oracle.stats().total_time;
    let m0 = *oracle.metrics();

    let mut status = vec![Status::Unknown; pruned.len()];
    let exec = |oracle: &mut AlivenessOracle<'a>, n: usize, status: &mut Vec<Status>| -> Result<bool, KwError> {
        // RE has no lattice, so it re-executes even already-seen nodes; the
        // recorded status is only for assembling the final report.
        let alive = oracle.is_alive(n, pruned.jnts(lattice, n))?;
        status[n] = if alive { Status::Alive } else { Status::Dead };
        Ok(alive)
    };

    let mut alive_mtns = Vec::new();
    let mut dead_mtns = Vec::new();
    for &m in pruned.mtns() {
        if exec(oracle, m, &mut status)? {
            alive_mtns.push(m);
        } else {
            dead_mtns.push(m);
        }
    }
    let mut mpans = Vec::new();
    for &m in &dead_mtns {
        for &d in pruned.desc_plus(m) {
            if d != m {
                exec(oracle, d, &mut status)?;
            }
        }
        mpans.push(crate::traversal::extract_mpans(pruned, &status, m));
    }

    Ok(ReOutcome {
        outcome: TraversalOutcome {
            alive_mtns,
            dead_mtns,
            possible_mpans: vec![Vec::new(); mpans.len()],
            mpans,
            unknown_mtns: Vec::new(),
            exhausted: None,
            sql_queries: oracle.stats().queries - q0,
            sql_time: oracle.stats().total_time.saturating_sub(t0).max(Duration::ZERO),
            probes: oracle.metrics().delta(m0),
        },
    })
}
