//! Execution statistics.
//!
//! The paper measures traversal strategies by (a) the number of SQL queries
//! executed (Figure 11, Table 4) and (b) the total time spent executing them
//! (Figures 12, 14, 15). [`ExecStats`] captures both for our engine.

use std::time::Duration;

/// Counters accumulated by an [`crate::Executor`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of query executions (each `exists`, `exists_retaining`,
    /// `execute` or `execute_reduced` call is one).
    pub queries: u64,
    /// Rows touched across all executions (scan + semi-join work).
    pub rows_examined: u64,
    /// Total wall-clock time spent inside executions.
    pub total_time: Duration,
}

impl ExecStats {
    /// Records one finished execution.
    pub fn record(&mut self, elapsed: Duration) {
        self.queries += 1;
        self.total_time += elapsed;
    }

    /// Mean time per query, or zero if none ran.
    pub fn mean_time(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.total_time / self.queries as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_and_times() {
        let mut a = ExecStats::default();
        a.record(Duration::from_millis(10));
        a.record(Duration::from_millis(20));
        assert_eq!(a.queries, 2);
        assert_eq!(a.total_time, Duration::from_millis(30));
        assert_eq!(a.mean_time(), Duration::from_millis(15));
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(ExecStats::default().mean_time(), Duration::ZERO);
    }
}
