//! Probe-level observability: counters, timers and serializable snapshots.
//!
//! The paper's entire evaluation (§3) ranks strategies by *how many SQL
//! queries they execute* and *where the time goes*. This module makes those
//! quantities first-class: every [`crate::oracle::AlivenessOracle`] owns a
//! plain [`ProbeCounters`] block that the oracle and the Phase-3 traversals
//! increment as they work, and every layer above (traversal → debugger →
//! bench binaries) reads copies of it with delta semantics.
//!
//! Counter → paper cross-reference:
//!
//! | counter | incremented by | paper counterpart |
//! |---|---|---|
//! | `probes_executed` | oracle, per `is_alive`/`sample` execution | "# of SQL queries" (Figs. 11, 14; Table 4) |
//! | `probe_time_ns` | oracle, wall clock of each execution | "SQL time" (Figs. 12, 15) |
//! | `tuples_scanned` | oracle, engine rows examined per probe, plus the rows each keyword selection build reads (at most once per interpretation, cache or not) | cost model behind §3.4 |
//! | `memo_hits` | oracle, memoized verdict reuse (ablation knob) | beyond the paper (re-execution baseline) |
//! | `r1_inferences` | traversals, nodes classified alive by rule R1 | §2.4 rule 1 |
//! | `r2_inferences` | traversals, nodes classified dead by rule R2 | §2.4 rule 2 |
//! | `reuse_hits` | traversals, visits skipped because a node was already classified | the "WR" in BUWR/TDWR (Fig. 13) |
//! | `retries` | oracle, probe attempts re-issued after a transient fault | beyond the paper (degraded mode) |
//! | `faults_injected` | oracle, fault errors observed (injected or real) | beyond the paper (degraded mode) |
//! | `probes_abandoned` | oracle, probes given up on (node stays `Unknown`) | beyond the paper (degraded mode) |
//! | `budget_exhausted` | oracle, [`crate::budget::ProbeBudget`] cap trips | beyond the paper (degraded mode) |
//! | `phase1_nodes_touched` | debugger, keyword-copy-set index entries read by Phase 1: one per lookup plus one per total node id (DESIGN.md §9.2) | beyond the paper (compact substrate) |
//! | `selection_cache_hits` | oracle, keyword selections an interpretation took from [`crate::evalcache`] (at most one per bound keyword) | beyond the paper (evaluation cache) |
//! | `verdict_cache_hits` | oracle/dispatcher, probes answered (Alive *or* Dead) from a cached whole-network verdict | beyond the paper (evaluation cache) |
//! | `cache_bytes` | oracle, bytes added to the [`crate::evalcache::EvalCache`]: each new entry's payload plus its key's keyword bytes (a verdict: its whole key) | beyond the paper (evaluation cache) |
//! | `delta_postings_merged` | oracle, keyword selection builds whose posting list was merged on read over pending index deltas | beyond the paper (mutable databases) |
//! | `coalesced_probes` | driver, probes answered by another session's in-flight execution through a [`crate::batch::WaveExchange`] | beyond the paper (cross-session single-flight) |
//! | `epoch` | debugger, gauge of the session's pinned database write epoch | beyond the paper (mutable databases) |
//! | `entries_invalidated` | debugger, gauge of cache entries evicted by write-delta invalidation | beyond the paper (mutable databases) |
//! | `compactions` | debugger, gauge of the index's delta-postings compactions | beyond the paper (mutable databases) |
//!
//! The invariant the integration tests pin down: `probes_executed` equals the
//! engine's own `ExecStats::queries`, so a strategy can never misreport its
//! probe count. The oracle's block is plain owned data: one traversal probes
//! one node at a time, so every event is counted through `&mut`.
//!
//! [`MetricsSnapshot`] bundles one experiment record (probes + per-phase
//! timings + Phase-1/2 statistics) and renders it as a single stable-key JSON
//! object — hand-rolled like [`crate::lattice_io`], no external dependencies —
//! which the bench binaries write as `BENCH_*.json` lines. The keys of the
//! `probes` object are emitted in sorted order so bench diffs stay clean as
//! counters are added.

use std::time::Duration;

use crate::lattice::LevelStats;
use crate::prune::PruneStats;

/// The probe and inference counters of one oracle, or of a window of its
/// work, with delta and merge semantics.
///
/// An [`crate::oracle::AlivenessOracle`] owns one block: it counts its
/// probe-side events itself, and the Phase-3 strategies record their
/// inference and reuse events through `&mut ProbeCounters`. Copies taken
/// before and after a traversal subtract ([`ProbeCounters::delta`]) to
/// attribute counts to that traversal alone; per-interpretation counters
/// sum ([`ProbeCounters::accumulate`]) into per-query aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounters {
    /// SQL probes actually executed (`is_alive` misses + report samples).
    pub probes_executed: u64,
    /// Nanoseconds of wall-clock time spent inside probe executions.
    pub probe_time_ns: u64,
    /// Engine rows examined across all probes, plus the rows read to build
    /// each bound keyword's selection — at most once per interpretation,
    /// with an evaluation cache or without; a selection taken from the
    /// cache reads none.
    pub tuples_scanned: u64,
    /// Probes answered from a node's settled verdict (the memo).
    pub memo_hits: u64,
    /// Nodes classified alive by rule R1 (descendants of an executed alive
    /// node), excluding the executed node itself.
    pub r1_inferences: u64,
    /// Nodes classified dead by rule R2 (ancestors of an executed dead
    /// node), excluding the executed node itself.
    pub r2_inferences: u64,
    /// Traversal visits skipped because the node was already classified —
    /// cross-MTN sharing for the with-reuse strategies, within-MTN
    /// R1/R2 coverage for BU/TD.
    pub reuse_hits: u64,
    /// Probe attempts re-issued after a transient failure (one per retry,
    /// not per probe).
    pub retries: u64,
    /// Fault errors ([`relengine::EngineError::is_fault`]) observed by the
    /// oracle, whether or not a retry later succeeded.
    pub faults_injected: u64,
    /// Probes given up on after a permanent failure or exhausted retries;
    /// the node stays `Unknown` in the partial report.
    pub probes_abandoned: u64,
    /// Times a [`crate::budget::ProbeBudget`] cap tripped (at most once per
    /// oracle — budgets are sticky).
    pub budget_exhausted: u64,
    /// Keyword-copy-set index entries read by Phase 1: one per subset
    /// lookup plus one per total node id (see `DESIGN.md` §9.2). Phase 1's
    /// work, which follows its output rather than the lattice size.
    pub phase1_nodes_touched: u64,
    /// Keyword selections this interpretation took from the session
    /// [`crate::evalcache::EvalCache`] instead of building them: at most one
    /// per bound keyword, however many probes bind it.
    pub selection_cache_hits: u64,
    /// Probes answered without touching the engine because the evaluation
    /// cache held a completed verdict for the network's canonical binding key
    /// ([`crate::evalcache::network_key`]), alive or dead; counted like an
    /// inference, never as a probe.
    pub verdict_cache_hits: u64,
    /// Bytes this oracle newly added to the session evaluation cache, each
    /// entry's key keywords included; summed across a session the counter
    /// equals the cache's
    /// resident size (warm runs that add nothing report 0).
    pub cache_bytes: u64,
    /// Keyword selection builds (at most once per interpretation, and with
    /// a cache only on a miss) whose inverted-index posting list was
    /// assembled by a merge-on-read over pending write deltas
    /// ([`textindex::InvertedIndex::rows_containing`] returning an owned
    /// union) instead of a borrowed base list. 0 on fully-compacted indexes.
    pub delta_postings_merged: u64,
    /// Probes answered by another session's in-flight execution of the same
    /// canonical network, waited on through a cross-session
    /// [`crate::batch::WaveExchange`] — counted like an inference (never
    /// as `probes_executed`), mirroring the memo-hit accounting. The probe
    /// still charges this session's budget gate at its original dispatch
    /// slot, so budget-cut partials match unbatched runs.
    pub coalesced_probes: u64,
    /// Gauge: the database write epoch this session is pinned at (set once
    /// per debug call, not accumulated — see [`ProbeCounters::delta`]).
    pub epoch: u64,
    /// Gauge: total entries the attached evaluation cache has evicted through
    /// write-delta invalidation ([`crate::evalcache::EvalCache::invalidated`]);
    /// 0 without a cache.
    pub entries_invalidated: u64,
    /// Gauge: total delta-postings compactions the session's inverted index
    /// has performed ([`textindex::InvertedIndex::compactions`]); 0 without
    /// an index.
    pub compactions: u64,
}

impl ProbeCounters {
    /// Counts attributable to the window between `baseline` and `self`.
    /// The gauge fields (`epoch`, `entries_invalidated`, `compactions`) are
    /// state mirrors, not event counts, so the window carries `self`'s value
    /// unchanged instead of a meaningless subtraction.
    pub fn delta(self, baseline: ProbeCounters) -> ProbeCounters {
        ProbeCounters {
            probes_executed: self.probes_executed - baseline.probes_executed,
            probe_time_ns: self.probe_time_ns - baseline.probe_time_ns,
            tuples_scanned: self.tuples_scanned - baseline.tuples_scanned,
            memo_hits: self.memo_hits - baseline.memo_hits,
            r1_inferences: self.r1_inferences - baseline.r1_inferences,
            r2_inferences: self.r2_inferences - baseline.r2_inferences,
            reuse_hits: self.reuse_hits - baseline.reuse_hits,
            retries: self.retries - baseline.retries,
            faults_injected: self.faults_injected - baseline.faults_injected,
            probes_abandoned: self.probes_abandoned - baseline.probes_abandoned,
            budget_exhausted: self.budget_exhausted - baseline.budget_exhausted,
            phase1_nodes_touched: self.phase1_nodes_touched - baseline.phase1_nodes_touched,
            selection_cache_hits: self.selection_cache_hits - baseline.selection_cache_hits,
            verdict_cache_hits: self.verdict_cache_hits - baseline.verdict_cache_hits,
            cache_bytes: self.cache_bytes - baseline.cache_bytes,
            delta_postings_merged: self.delta_postings_merged - baseline.delta_postings_merged,
            coalesced_probes: self.coalesced_probes - baseline.coalesced_probes,
            epoch: self.epoch,
            entries_invalidated: self.entries_invalidated,
            compactions: self.compactions,
        }
    }

    /// Adds another window's counts into this one. Gauge fields take the
    /// maximum — accumulating per-interpretation windows of one debug call
    /// must report the call's (single) epoch and final cache/index state,
    /// not a sum of repeats.
    pub fn accumulate(&mut self, other: ProbeCounters) {
        self.probes_executed += other.probes_executed;
        self.probe_time_ns += other.probe_time_ns;
        self.tuples_scanned += other.tuples_scanned;
        self.memo_hits += other.memo_hits;
        self.r1_inferences += other.r1_inferences;
        self.r2_inferences += other.r2_inferences;
        self.reuse_hits += other.reuse_hits;
        self.retries += other.retries;
        self.faults_injected += other.faults_injected;
        self.probes_abandoned += other.probes_abandoned;
        self.budget_exhausted += other.budget_exhausted;
        self.phase1_nodes_touched += other.phase1_nodes_touched;
        self.selection_cache_hits += other.selection_cache_hits;
        self.verdict_cache_hits += other.verdict_cache_hits;
        self.cache_bytes += other.cache_bytes;
        self.delta_postings_merged += other.delta_postings_merged;
        self.coalesced_probes += other.coalesced_probes;
        self.epoch = self.epoch.max(other.epoch);
        self.entries_invalidated = self.entries_invalidated.max(other.entries_invalidated);
        self.compactions = self.compactions.max(other.compactions);
    }

    /// Probe time as a [`Duration`].
    pub fn probe_time(&self) -> Duration {
        Duration::from_nanos(self.probe_time_ns)
    }

    /// Total nodes classified without execution (R1 + R2 inferences).
    pub fn inferences(&self) -> u64 {
        self.r1_inferences + self.r2_inferences
    }
}

/// Wall-clock breakdown of one debug call across the paper's phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase 1 lookup: keyword → schema-term mapping (§3.3).
    pub mapping: Duration,
    /// Phases 1–2: lattice pruning and MTN identification (Figure 10).
    pub pruning: Duration,
    /// Phase 3: traversal, including SQL (Figures 11–12).
    pub traversal: Duration,
    /// SQL execution alone (subset of `traversal`).
    pub sql: Duration,
    /// Report assembly: SQL rendering and sample fetching.
    pub reporting: Duration,
    /// End-to-end elapsed time.
    pub total: Duration,
}

impl PhaseTiming {
    /// Adds another breakdown into this one, phase by phase.
    pub fn accumulate(&mut self, other: &PhaseTiming) {
        self.mapping += other.mapping;
        self.pruning += other.pruning;
        self.traversal += other.traversal;
        self.sql += other.sql;
        self.reporting += other.reporting;
        self.total += other.total;
    }
}

/// One serializable experiment record: identification, probe counters,
/// per-phase timings, and the Phase-0/1/2 statistics that already existed
/// ([`LevelStats`], [`PruneStats`]) folded into a single object.
///
/// [`MetricsSnapshot::to_json`] renders it as one JSON object with a stable
/// key order, suitable for newline-delimited `BENCH_*.json` files.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Emitting experiment (e.g. `exp_traversal`).
    pub experiment: String,
    /// Workload query id or raw keyword text.
    pub query: String,
    /// Traversal strategy short name (`BU`, `SBH`, ...), if one applies.
    pub strategy: String,
    /// Free-form run variant label (e.g. `fault_pm=50` for chaos sweeps);
    /// empty when the record has no sub-variant.
    pub variant: String,
    /// Dataset scale label (`tiny`..`paper`).
    pub scale: String,
    /// Lattice levels (`maxJoins + 1`).
    pub max_level: u64,
    /// Interpretations explored for the query.
    pub interpretations: u64,
    /// Resident bytes of the shared offline lattice arena (see
    /// [`crate::lattice::Lattice::memory_footprint`]); 0 when the record does
    /// not cover a lattice-backed run.
    pub lattice_bytes: u64,
    /// Probe and inference counters (summed over interpretations).
    pub probes: ProbeCounters,
    /// Per-phase wall-clock breakdown.
    pub phases: PhaseTiming,
    /// Phase-1/2 statistics, when the record covers a query run.
    pub prune: Option<PruneStats>,
    /// Phase-0 per-level lattice build statistics, when relevant.
    pub levels: Vec<LevelStats>,
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// Renders the record as one JSON object with stable key order.
    ///
    /// Durations are emitted as integer nanoseconds (`*_ns`), so records are
    /// byte-stable for identical inputs and need no float parsing.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut j = String::with_capacity(512);
        let _ = write!(
            j,
            "{{\"experiment\":\"{}\",\"query\":\"{}\",\"strategy\":\"{}\",\
             \"variant\":\"{}\",\"scale\":\"{}\",\"max_level\":{},\"interpretations\":{},\
             \"lattice_bytes\":{}",
            esc(&self.experiment),
            esc(&self.query),
            esc(&self.strategy),
            esc(&self.variant),
            esc(&self.scale),
            self.max_level,
            self.interpretations,
            self.lattice_bytes,
        );
        // Counter keys in sorted order, so diffs stay clean as counters grow.
        let p = &self.probes;
        let _ = write!(
            j,
            ",\"probes\":{{\"budget_exhausted\":{},\"cache_bytes\":{},\
             \"coalesced_probes\":{},\"compactions\":{},\
             \"delta_postings_merged\":{},\"entries_invalidated\":{},\"epoch\":{},\
             \"executed\":{},\
             \"faults_injected\":{},\
             \"memo_hits\":{},\"phase1_nodes_touched\":{},\
             \"probes_abandoned\":{},\
             \"r1_inferences\":{},\"r2_inferences\":{},\"retries\":{},\"reuse_hits\":{},\
             \"selection_cache_hits\":{},\
             \"time_ns\":{},\"tuples_scanned\":{},\"verdict_cache_hits\":{}}}",
            p.budget_exhausted,
            p.cache_bytes,
            p.coalesced_probes,
            p.compactions,
            p.delta_postings_merged,
            p.entries_invalidated,
            p.epoch,
            p.probes_executed,
            p.faults_injected,
            p.memo_hits,
            p.phase1_nodes_touched,
            p.probes_abandoned,
            p.r1_inferences,
            p.r2_inferences,
            p.retries,
            p.reuse_hits,
            p.selection_cache_hits,
            p.probe_time_ns,
            p.tuples_scanned,
            p.verdict_cache_hits,
        );
        let t = &self.phases;
        let _ = write!(
            j,
            ",\"phases\":{{\"mapping_ns\":{},\"pruning_ns\":{},\"traversal_ns\":{},\
             \"sql_ns\":{},\"reporting_ns\":{},\"total_ns\":{}}}",
            t.mapping.as_nanos(),
            t.pruning.as_nanos(),
            t.traversal.as_nanos(),
            t.sql.as_nanos(),
            t.reporting.as_nanos(),
            t.total.as_nanos(),
        );
        match &self.prune {
            None => j.push_str(",\"prune\":null"),
            Some(s) => {
                let _ = write!(
                    j,
                    ",\"prune\":{{\"lattice_nodes\":{},\"retained_phase1\":{},\
                     \"total_nodes\":{},\"mtn_count\":{},\"pruned_nodes\":{},\
                     \"mtn_descendants_total\":{},\"mtn_descendants_unique\":{}}}",
                    s.lattice_nodes,
                    s.retained_phase1,
                    s.total_nodes,
                    s.mtn_count,
                    s.pruned_nodes,
                    s.mtn_descendants_total,
                    s.mtn_descendants_unique,
                );
            }
        }
        j.push_str(",\"levels\":[");
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(
                j,
                "{{\"level\":{},\"generated\":{},\"duplicates\":{},\"kept\":{},\"elapsed_ns\":{}}}",
                i + 1,
                l.generated,
                l.duplicates,
                l.kept,
                l.elapsed.as_nanos(),
            );
        }
        j.push_str("]}");
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_and_accumulate() {
        let before = ProbeCounters {
            probes_executed: 3,
            r2_inferences: 2,
            epoch: 5,
            compactions: 1,
            ..ProbeCounters::default()
        };
        let mut after = before;
        after.probes_executed += 4;
        after.probe_time_ns += 70;
        after.reuse_hits += 1;
        let window = after.delta(before);
        assert_eq!(window.probes_executed, 4);
        assert_eq!(window.probe_time_ns, 70);
        assert_eq!(window.r2_inferences, 0);
        assert_eq!(window.reuse_hits, 1);
        assert_eq!(window.inferences(), 0);
        assert_eq!(window.epoch, 5, "gauges pass through a delta window");
        assert_eq!(window.compactions, 1);

        let mut sum = ProbeCounters::default();
        sum.accumulate(window);
        sum.accumulate(window);
        assert_eq!(sum.probes_executed, 8);
        assert_eq!(sum.probe_time(), Duration::from_nanos(140));
        assert_eq!(sum.epoch, 5, "gauges accumulate by max, not sum");
    }

    #[test]
    fn phase_timing_accumulates() {
        let mut a = PhaseTiming { mapping: Duration::from_nanos(5), ..PhaseTiming::default() };
        let b = PhaseTiming {
            mapping: Duration::from_nanos(7),
            sql: Duration::from_nanos(11),
            ..PhaseTiming::default()
        };
        a.accumulate(&b);
        assert_eq!(a.mapping, Duration::from_nanos(12));
        assert_eq!(a.sql, Duration::from_nanos(11));
        assert_eq!(a.pruning, Duration::ZERO);
    }

    #[test]
    fn json_is_stable_and_complete() {
        let snap = MetricsSnapshot {
            experiment: "exp_traversal".into(),
            query: "Q3".into(),
            strategy: "BUWR".into(),
            variant: "fault_pm=50".into(),
            scale: "small".into(),
            max_level: 5,
            interpretations: 1,
            lattice_bytes: 4096,
            probes: ProbeCounters {
                probes_executed: 12,
                probe_time_ns: 345,
                tuples_scanned: 678,
                memo_hits: 0,
                r1_inferences: 4,
                r2_inferences: 9,
                reuse_hits: 3,
                retries: 2,
                faults_injected: 5,
                probes_abandoned: 1,
                budget_exhausted: 1,
                phase1_nodes_touched: 42,
                selection_cache_hits: 13,
                verdict_cache_hits: 8,
                cache_bytes: 512,
                delta_postings_merged: 3,
                coalesced_probes: 4,
                epoch: 11,
                entries_invalidated: 7,
                compactions: 2,
            },
            phases: PhaseTiming {
                mapping: Duration::from_nanos(1),
                pruning: Duration::from_nanos(2),
                traversal: Duration::from_nanos(3),
                sql: Duration::from_nanos(4),
                reporting: Duration::from_nanos(5),
                total: Duration::from_nanos(6),
            },
            prune: Some(PruneStats {
                lattice_nodes: 100,
                retained_phase1: 20,
                total_nodes: 5,
                mtn_count: 2,
                pruned_nodes: 15,
                mtn_descendants_total: 8,
                mtn_descendants_unique: 6,
            }),
            levels: vec![LevelStats {
                generated: 10,
                duplicates: 4,
                kept: 6,
                elapsed: Duration::from_nanos(9),
            }],
        };
        let json = snap.to_json();
        assert_eq!(
            json,
            "{\"experiment\":\"exp_traversal\",\"query\":\"Q3\",\"strategy\":\"BUWR\",\
             \"variant\":\"fault_pm=50\",\
             \"scale\":\"small\",\"max_level\":5,\"interpretations\":1,\
             \"lattice_bytes\":4096,\
             \"probes\":{\"budget_exhausted\":1,\"cache_bytes\":512,\
             \"coalesced_probes\":4,\"compactions\":2,\
             \"delta_postings_merged\":3,\"entries_invalidated\":7,\"epoch\":11,\
             \"executed\":12,\
             \"faults_injected\":5,\
             \"memo_hits\":0,\"phase1_nodes_touched\":42,\
             \"probes_abandoned\":1,\
             \"r1_inferences\":4,\"r2_inferences\":9,\"retries\":2,\"reuse_hits\":3,\
             \"selection_cache_hits\":13,\
             \"time_ns\":345,\"tuples_scanned\":678,\"verdict_cache_hits\":8},\
             \"phases\":{\"mapping_ns\":1,\"pruning_ns\":2,\"traversal_ns\":3,\
             \"sql_ns\":4,\"reporting_ns\":5,\"total_ns\":6},\
             \"prune\":{\"lattice_nodes\":100,\"retained_phase1\":20,\"total_nodes\":5,\
             \"mtn_count\":2,\"pruned_nodes\":15,\"mtn_descendants_total\":8,\
             \"mtn_descendants_unique\":6},\
             \"levels\":[{\"level\":1,\"generated\":10,\"duplicates\":4,\"kept\":6,\
             \"elapsed_ns\":9}]}"
        );
        // The default record still renders a full object.
        let empty = MetricsSnapshot::default().to_json();
        assert!(empty.contains("\"prune\":null"));
        assert!(empty.ends_with("\"levels\":[]}"));
    }

    #[test]
    fn json_escapes_strings() {
        let snap = MetricsSnapshot {
            query: "say \"hi\"\\\n".into(),
            ..MetricsSnapshot::default()
        };
        assert!(snap.to_json().contains("say \\\"hi\\\"\\\\\\n"));
    }
}
