//! Return Nothing (RN): manual subset re-submission.
//!
//! With a standard KWS-S system a non-answer yields a blank page. A developer
//! who wants to know *why* re-submits modified queries by removing keywords:
//! for "k1 k2 k3" the queries "k1 k2", "k1 k3", "k2 k3", "k1", "k2" and "k3".
//! Each submission runs the ordinary pipeline — candidate networks (MTNs) are
//! generated for that subset and **all** of them are executed. The total SQL
//! work across all submissions is the cost of this approach; completeness is
//! lost (sub-queries with free leaves are never candidate networks, so some
//! MPANs are unreachable).

use std::time::Duration;

use relengine::Database;
use textindex::InvertedIndex;

use crate::binding::{map_keywords, KeywordQuery};
use crate::error::KwError;
use crate::lattice::Lattice;
use crate::oracle::AlivenessOracle;
use crate::prune::PrunedLattice;

/// Result of the RN baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnOutcome {
    /// Keyword-subset queries submitted (the original plus all proper
    /// non-empty subsets).
    pub submissions: u32,
    /// Candidate networks executed across all submissions.
    pub sql_queries: u64,
    /// Wall-clock SQL time across all submissions.
    pub sql_time: Duration,
    /// Submissions that produced at least one alive candidate network.
    pub submissions_with_answers: u32,
}

/// Runs RN for `query`: submits every non-empty keyword subset (the original
/// query first) and executes all candidate networks of each submission under
/// every interpretation.
pub fn run_return_nothing(
    db: &Database,
    index: &InvertedIndex,
    lattice: &Lattice,
    query: &KeywordQuery,
) -> Result<RnOutcome, KwError> {
    let n = query.len();
    debug_assert!(n <= 31, "subset enumeration uses a u32 mask");
    let full_mask = (1u32 << n) - 1;
    // Original query first, then subsets in decreasing keyword count — the
    // order a developer would plausibly try.
    let mut masks: Vec<u32> = (1..=full_mask).collect();
    masks.sort_unstable_by_key(|m| std::cmp::Reverse(m.count_ones()));

    let mut out = RnOutcome {
        submissions: 0,
        sql_queries: 0,
        sql_time: Duration::ZERO,
        submissions_with_answers: 0,
    };
    for mask in masks {
        let Some(sub) = query.subset(mask) else { continue };
        out.submissions += 1;
        let mapping = map_keywords(&sub, index);
        let mut any_alive = false;
        for interp in &mapping.interpretations {
            let pruned = PrunedLattice::build(lattice, interp);
            let mut oracle =
                AlivenessOracle::new(db, Some(index), interp, &mapping.keywords, false);
            for &m in pruned.mtns() {
                let alive = oracle.is_alive(m, pruned.jnts(lattice, m))?;
                any_alive |= alive;
            }
            out.sql_queries += oracle.stats().queries;
            out.sql_time += oracle.stats().total_time;
        }
        if any_alive {
            out.submissions_with_answers += 1;
        }
    }
    Ok(out)
}
