//! Output checks and the input-mix shares. Checks run off the clock; a
//! mismatch counts as a failed request and makes the command exit non-zero.

use std::collections::HashSet;

use kwdebug::metrics::ProbeCounters;
use kwdebug::DebugReport;

use crate::stats::ratio;
use crate::Outcome;

/// The canonical wire encoding of `report` with the probe-work counters
/// scrubbed: what two correct runs must agree on whatever caches, probe
/// order or strategy produced them (answers, non-answers, MPANs, their SQL
/// and sample tuples, Phase 1–2 statistics).
pub fn outcome(report: &DebugReport) -> Vec<u8> {
    let mut r = report.clone();
    for i in &mut r.interpretations {
        i.sql_queries = 0;
        i.probes = ProbeCounters::default();
    }
    kwserve::protocol::encode_report(&r)
}

/// What the measured queries turned out to be: the input-mix shares every
/// workload reports.
#[derive(Debug, Default)]
pub struct Mix {
    queries: u64,
    non_answer: u64,
    multi_interpretation: u64,
    distinct: HashSet<String>,
}

impl Mix {
    /// Adds one answered query.
    pub fn add(&mut self, query: &str, report: &DebugReport) {
        self.add_shape(
            query,
            report.non_answer_count() > 0,
            report.interpretations.len() > 1,
        );
    }

    /// Adds one answered query by its shape: whether its report has a
    /// non-answer, and whether it has more than one interpretation.
    pub fn add_shape(&mut self, query: &str, non_answer: bool, multi_interpretation: bool) {
        self.queries += 1;
        self.non_answer += u64::from(non_answer);
        self.multi_interpretation += u64::from(multi_interpretation);
        if !self.distinct.contains(query) {
            self.distinct.insert(query.to_owned());
        }
    }

    /// Records the shares of non-answer, multi-interpretation and distinct
    /// queries.
    pub fn record(&self, out: &mut Outcome) {
        let n = self.queries as f64;
        out.set("inputs.non_answer_share", ratio(self.non_answer as f64, n));
        out.set(
            "inputs.multi_interp_share",
            ratio(self.multi_interpretation as f64, n),
        );
        out.set(
            "inputs.distinct_share",
            ratio(self.distinct.len() as f64, n),
        );
    }
}
