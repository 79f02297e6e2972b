//! # kwdebug — debugging non-answers in keyword search over structured data
//!
//! This crate is the core reproduction of *On Debugging Non-Answers in
//! Keyword Search Systems* (Baid, Wu, Sun, Doan, Naughton; EDBT 2015).
//!
//! A KWS-S system maps a keyword query `K` to many structured SQL queries
//! (candidate networks); when all of them return zero tuples the user sees
//! "no results found" and the developer has nothing to go on. This crate
//! implements the paper's four-phase pipeline that exposes *why*:
//!
//! * **Phase 0** ([`lattice`]): offline generation of a lattice of all
//!   join-query trees up to `maxJoins` joins over relation copies
//!   `R_0..R_{m+1}` (Algorithm 1), deduplicated with a canonical tree
//!   labeling ([`canonical`], Algorithm 2).
//! * **Phase 1** ([`binding`], [`prune`]): keywords are mapped to relations
//!   through an inverted index and bound to relation copies; lattice nodes
//!   containing unbound copies are pruned.
//! * **Phase 2** ([`mtn`]): identification of Minimal Total Nodes (MTNs) —
//!   the candidate networks — and restriction to MTNs plus descendants.
//! * **Phase 3** ([`traversal`]): classification of each MTN as alive
//!   (answer query) or dead (non-answer query) and discovery of each dead
//!   MTN's Maximal Partially Alive Nodes (MPANs) — the maximal non-empty
//!   sub-queries that explain the non-answer — while minimizing the number
//!   of SQL queries executed. Five strategies: bottom-up / top-down, both
//!   with and without cross-MTN reuse, and the score-based greedy heuristic
//!   of §2.5.3.
//!
//! The two baselines of §3.8 — *Return Nothing* and *Return Everything* —
//! live in [`baseline`]. The end-to-end system (the public entry point) is
//! [`debugger::NonAnswerDebugger`].
//!
//! ## Paper-to-module map
//!
//! | Paper concept | Where | Module |
//! |---|---|---|
//! | Join network of tuple sets (JNTS), §2.2 | tree-shaped join query over relation copies | [`jnts`] |
//! | Schema graph `G_S`, §2.2 | tables + foreign keys as an undirected graph | [`schema_graph`] |
//! | Lattice generation, Algorithm 1 | level-by-level expansion up to `maxJoins` | [`lattice`] |
//! | Canonical labels, Algorithm 2 | AHU-style tree canonization for dedup | [`canonical`] |
//! | Lattice persistence (offline Phase 0) | stable binary save/load | [`lattice_io`] |
//! | Keyword → relation mapping, §2.3/§3.3 | inverted-index lookup, interpretations | [`binding`] |
//! | Phase-1 pruning + Phase-2 MTNs, §2.4 | keyword-bound sub-lattice, minimal total nodes | [`prune`], [`mtn`] |
//! | Aliveness probe (`exists` SQL), §2.5 | SQL generation + execution + memo | [`oracle`] |
//! | Rules R1/R2 and traversals, §2.5 | BU, TD, BUWR (Algorithm 3), TDWR as one sweep; brute force | [`traversal`] |
//! | Score-based heuristic, §2.5.3 | greedy expected-benefit probe selection | [`traversal`] |
//! | Output `A(K) ∪ N(K) ∪ M(K)`, §2.1 | answers, non-answers, MPANs, SQL text | [`report`] |
//! | RN / RE baselines, §3.8 | no-lattice comparison points | [`baseline`] |
//! | Interactive debugging (extension) | step-wise probe/assert session on the SBH frontier | [`session`], [`diagnose`] |
//! | `p_a` estimation (future work, §4) | aliveness prior from catalog stats | [`estimate`] |
//! | MPAN filters (future work, §1) | post-hoc filtering/prioritization | [`filter`] |
//! | Experiment instrumentation, §3 | probe/inference counters, phase timings | [`metrics`] |
//! | Probe budgets / retries (extension) | caps, deadlines, backoff, degraded mode | [`budget`] |
//! | Fault injection (extension) | deterministic chaos harness for probes | [`relengine::chaos`] |
//! | Cross-probe evaluation cache (extension) | shared keyword selections and their join-column postings, whole-network verdicts | [`evalcache`] |
//! | Phase 1–2 scratch (extension) | output-sized per-build buffers, reusable by callers that build back to back | [`workspace`] |
//! | Multi-tenant serving (extension) | shared substrate ([`SharedParts`]), per-session debuggers over TCP | [`debugger`], `kwserve` |
//! | Mutable databases (extension) | epoch-stamped writes, incremental index deltas, layered invalidation | [`mutable`], [`evalcache`] |
//! | Cross-session single-flight probing (extension) | in-flight probe coalescing | [`batch`] |
//!
//! ## Observability
//!
//! Everything the paper's evaluation measures is counted by [`metrics`]:
//! the [`oracle`] counts SQL probes, probe time, scanned tuples and memo
//! hits; each traversal counts R1/R2 inferences and reuse hits; and
//! [`debugger`] stamps per-phase wall-clock timings
//! ([`metrics::PhaseTiming`]) onto every [`report::DebugReport`]. The
//! invariant `probes.probes_executed == ExecStats::queries` ties the
//! counters to the engine's ground truth and is asserted by the integration
//! tests. [`metrics::MetricsSnapshot::to_json`] renders one stable JSON
//! record per experiment run for scripted consumption.
//!
//! ```
//! use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
//! use kwdebug::traversal::StrategyKind;
//! # use relengine::{DatabaseBuilder, DataType, Value};
//! # let mut b = DatabaseBuilder::new();
//! # b.table("color").column("id", DataType::Int).column("name", DataType::Text).primary_key("id");
//! # b.table("item").column("id", DataType::Int).column("name", DataType::Text)
//! #     .column("color_id", DataType::Int).primary_key("id");
//! # b.foreign_key("item", "color_id", "color", "id").unwrap();
//! # let mut db = b.finish().unwrap();
//! # db.insert_values("color", vec![Value::Int(1), Value::text("saffron")]).unwrap();
//! # db.insert_values("color", vec![Value::Int(2), Value::text("red")]).unwrap();
//! # db.insert_values("item", vec![Value::Int(1), Value::text("vanilla candle"), Value::Int(2)]).unwrap();
//! # db.finalize();
//! let debugger = NonAnswerDebugger::new(db, DebugConfig {
//!     max_joins: 2,
//!     strategy: StrategyKind::ScoreBasedHeuristic,
//!     ..DebugConfig::default()
//! }).unwrap();
//! let report = debugger.debug("saffron candle").unwrap();
//! // "saffron candle" has no answers, but its single-keyword sub-queries live:
//! assert!(report.answer_count() == 0);
//! assert!(report.non_answer_count() > 0);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod batch;
pub mod binding;
pub mod budget;
pub mod canonical;
pub mod debugger;
pub mod diagnose;
pub mod error;
pub mod estimate;
pub mod evalcache;
pub mod filter;
pub mod jnts;
pub mod lattice;
pub mod lattice_io;
pub mod metrics;
pub mod mtn;
pub mod mutable;
pub mod oracle;
pub mod prune;
pub mod report;
pub mod schema_graph;
pub mod session;
pub mod traversal;
pub mod workspace;

pub use batch::{BatchConfig, WaveExchange};
pub use budget::{Exhausted, ProbeBudget, RetryPolicy};
pub use debugger::{DebugConfig, NonAnswerDebugger, SharedParts};
pub use mutable::MutableDatabase;
pub use error::KwError;
pub use estimate::OnlinePa;
pub use evalcache::EvalCache;
pub use jnts::{CopyIdx, Jnts, TupleSet};
pub use report::DebugReport;
pub use schema_graph::SchemaGraph;
