//! # relengine — in-memory relational engine substrate
//!
//! The EDBT 2015 paper *On Debugging Non-Answers in Keyword Search Systems*
//! runs its generated SQL queries against PostgreSQL. This crate is the
//! self-contained stand-in: an in-memory relational engine that supports
//! exactly the query class a KWS-S (keyword search over structured data)
//! system emits —
//!
//! * `SELECT *` over a **tree of relations** (a join network of tuple sets),
//! * joined on **key/foreign-key equi-join** edges taken from the schema graph,
//! * filtered per-relation by **keyword containment predicates**
//!   (`col LIKE '%kw%'` over the relation's text attributes),
//! * with the only question that matters for aliveness being *"does the query
//!   return at least one tuple?"* (plus bounded enumeration for display).
//!
//! Execution uses a Yannakakis-style bottom-up semi-join reduction (join
//! networks are trees, hence acyclic), which answers emptiness in one pass and
//! supports early-exit enumeration afterwards. Every execution is counted and
//! timed in [`ExecStats`] so the paper's "number of SQL queries executed" and
//! "SQL time" measurements (Figures 11, 12, 14, 15 and Table 4) can be
//! reproduced.
//!
//! ## Quick tour
//!
//! ```
//! use relengine::{DatabaseBuilder, DataType, Value, JoinTreePlan, PlanNode, PlanEdge,
//!                 Predicate, Executor};
//!
//! let mut b = DatabaseBuilder::new();
//! b.table("color")
//!     .column("id", DataType::Int)
//!     .column("name", DataType::Text)
//!     .primary_key("id");
//! b.table("item")
//!     .column("id", DataType::Int)
//!     .column("name", DataType::Text)
//!     .column("color_id", DataType::Int);
//! b.foreign_key("item", "color_id", "color", "id").unwrap();
//! let mut db = b.finish().unwrap();
//! db.insert_values("color", vec![Value::Int(1), Value::text("red")]).unwrap();
//! db.insert_values("item", vec![Value::Int(10), Value::text("red candle"), Value::Int(1)]).unwrap();
//! db.finalize();
//!
//! let color = db.table_id("color").unwrap();
//! let item = db.table_id("item").unwrap();
//! let plan = JoinTreePlan::new(
//!     vec![PlanNode::new(item, Predicate::any_text_contains("candle")),
//!          PlanNode::new(color, Predicate::any_text_contains("red"))],
//!     vec![PlanEdge { a: 0, a_col: 2, b: 1, b_col: 0 }],
//! ).unwrap();
//! let mut exec = Executor::new(&db);
//! assert!(exec.exists(&plan).unwrap());
//! assert_eq!(exec.stats().queries, 1);
//! ```

mod builder;
mod catalog;
pub mod chaos;
mod csv;
mod error;
mod exec;
mod explain;
mod plan;
mod predicate;
pub mod rng;
mod schema;
pub mod sortedvals;
mod sql;
mod stats;
mod table;
mod value;

pub use builder::{DatabaseBuilder, TableBuilder};
pub use catalog::{Database, DeltaKind, EpochDelta, ForeignKey, FkId, TableId};
pub use chaos::{ChaosExecutor, FaultConfig, FaultDecision, FaultInjector, FaultStats};
pub use csv::{dump_csv, load_csv};
pub use error::EngineError;
pub use exec::{Executor, MatchTuple, Reduced};
pub use explain::{estimate_cardinality, explain};
pub use plan::{JoinTreePlan, PlanEdge, PlanNode};
pub use predicate::{CompiledPredicate, Predicate};
pub use schema::{ColId, ColumnDef, TableSchema};
pub use sql::render_sql;
pub use stats::ExecStats;
pub use table::{Row, RowId, Table};
pub use value::{DataType, Value};
