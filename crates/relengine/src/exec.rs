//! Join-tree execution: emptiness checks and bounded enumeration.
//!
//! Join networks are trees, so queries are acyclic and a single bottom-up
//! semi-join pass (Yannakakis) decides emptiness exactly, whichever node it
//! is rooted at: after reducing every node against its children, a root row
//! survives if and only if it extends to a full match of the whole tree. The
//! pass is rooted where it does the fewest full-table semi-joins
//! ([`Executor::exists`]), so a free chain hanging below a keyword node is
//! reduced from its far end through the join-column indexes instead of by
//! scanning each link.
//!
//! Execution is two steps, each public and each counted as one query:
//!
//! 1. [`Executor::exists_retaining`] runs that pass and, when the query is
//!    alive, hands back the reduced live sets and the pass's root as an
//!    opaque [`Reduced`];
//! 2. [`Executor::execute_reduced`] resumes from a [`Reduced`]: it
//!    semi-joins back along the path from the root to node 0, and then
//!    enumerates top-down from node 0 with a result limit for early exit.
//!    Every node is then reduced against its whole node-0 subtree, so each
//!    row the enumeration visits extends to a tuple.
//!
//! [`Executor::exists`] is the first step with the state dropped, and
//! [`Executor::execute`] runs both steps back to back as one query; there
//! is one reduction code path. A caller that asked for aliveness first (the
//! `kwdebug` oracle's probes) keeps the [`Reduced`] and later samples tuples
//! from it without reducing again (Golenberg & Sagiv's enumeration from an
//! already-reduced state, with no dead ends).
//!
//! In the enumeration, a node's rows for its parent's join value come
//! straight from the table's index posting for that value, kept where they
//! are live; no per-probe `value → rows` map is built unless the join
//! column has no index. Postings ascend like every live set, so tuples come
//! out in lexicographic row-id order over the node-0 pre-order (neighbours
//! in edge order) — the order nested loops would give.
//!
//! Plan nodes may carry a pre-verified shared *selection*, optionally with
//! its value→rows postings per join column: the executor then skips
//! predicate evaluation for that node and answers its semi-joins from the
//! postings without re-reading rows. `kwdebug`'s oracle attaches one to
//! every keyword node it executes — built once per interpretation, or taken
//! from its evaluation cache, which adds only reuse across interpretations
//! and requests.
//!
//! Index lookups and the unindexed `value → rows` fallback hash join values
//! with the table module's fixed integer hasher (see its module docs).

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use crate::catalog::Database;
use crate::error::EngineError;
use crate::plan::JoinTreePlan;
use crate::sortedvals::{normalize, ValuePostings};
use crate::stats::ExecStats;
use crate::table::{IntMap, RowId, Table};

/// One result tuple: for each plan node (by index), the matched row id.
pub type MatchTuple = Vec<RowId>;

/// One enumeration step: bind `node` to the rows joining its already-bound
/// `parent` (`node.child_col = parent.parent_col`).
struct EnumStep {
    node: usize,
    parent: usize,
    parent_col: usize,
    child_col: usize,
    /// Join value → live rows, built only when `child_col` has no index;
    /// otherwise candidates come from the index posting.
    map: Option<IntMap<Vec<RowId>>>,
}

/// The set of live rows at a plan node during reduction.
#[derive(Debug, Clone)]
enum LiveSet {
    /// Every row of the table is (still) live.
    All,
    /// Exactly these rows are live (ascending row ids).
    Rows(Vec<RowId>),
    /// Exactly these rows are live, borrowed from a shared pre-verified
    /// selection — no copy is made until a semi-join actually filters it.
    Shared(Arc<Vec<RowId>>),
}

impl LiveSet {
    fn is_empty(&self, table: &Table) -> bool {
        match self {
            LiveSet::All => table.is_empty(),
            LiveSet::Rows(r) => r.is_empty(),
            LiveSet::Shared(r) => r.is_empty(),
        }
    }

    /// Whether live row `rid` is in the set. `All` admits every row it is
    /// asked about: callers pass index postings, which hold live rows only.
    fn admits(&self, rid: RowId) -> bool {
        match self {
            LiveSet::All => true,
            LiveSet::Rows(r) => r.binary_search(&rid).is_ok(),
            LiveSet::Shared(r) => r.binary_search(&rid).is_ok(),
        }
    }
}

/// Membership test for "does the child have a live row with this join value".
enum ValueMembership<'a> {
    Indexed(&'a Table, usize),
    Sorted(Vec<i64>),
    /// Pre-extracted values borrowed from the plan's `col_postings` — the
    /// untouched-selection case, where no row needs to be re-read.
    SortedRef(&'a [i64]),
}

impl ValueMembership<'_> {
    fn contains(&self, v: i64) -> bool {
        match self {
            ValueMembership::Indexed(t, col) => {
                t.lookup_indexed(*col, v).is_some_and(|rows| !rows.is_empty())
            }
            ValueMembership::Sorted(s) => s.binary_search(&v).is_ok(),
            ValueMembership::SortedRef(s) => s.binary_search(&v).is_ok(),
        }
    }

    fn as_sorted(&self) -> Option<&[i64]> {
        match self {
            ValueMembership::Indexed(..) => None,
            ValueMembership::Sorted(s) => Some(s),
            ValueMembership::SortedRef(s) => Some(s),
        }
    }
}

fn filter_rows(
    table: &Table,
    rows: &[RowId],
    col: usize,
    membership: &ValueMembership<'_>,
) -> Vec<RowId> {
    rows.iter()
        .copied()
        .filter(|&rid| table.row(rid)[col].as_int().is_some_and(|v| membership.contains(v)))
        .collect()
}

/// The ascending rows of `p` whose value lies in the sorted `vals` — a
/// semi-join answered purely from postings, with zero row reads. Iterates
/// whichever side is shorter; groups are disjoint so a final sort restores
/// row order without deduplication.
fn postings_semijoin(p: &ValuePostings, vals: &[i64]) -> Vec<RowId> {
    let mut out = Vec::new();
    if p.values().len() <= vals.len() {
        for (i, v) in p.values().iter().enumerate() {
            if vals.binary_search(v).is_ok() {
                out.extend_from_slice(p.rows_at(i));
            }
        }
    } else {
        for &v in vals {
            out.extend_from_slice(p.rows_for(v));
        }
    }
    out.sort_unstable();
    out
}

/// An alive query's state after the bottom-up semi-join pass: every plan
/// node's live rows, and the root the pass ran from. Returned by
/// [`Executor::exists_retaining`]; [`Executor::execute_reduced`] resumes
/// from it. Opaque, and only meaningful for the plan and database that
/// produced it.
#[derive(Debug)]
pub struct Reduced {
    live: Vec<LiveSet>,
    /// Every node is reduced against its subtree in the tree rooted here;
    /// 0 once the back-pass toward node 0 has run.
    root: usize,
}

impl Reduced {
    /// Whether the state has one live set per plan node, each within its
    /// node's table — enough that resuming it reads no row out of range.
    fn fits(&self, plan: &JoinTreePlan, db: &Database) -> bool {
        self.live.len() == plan.node_count()
            && self.live.iter().zip(plan.nodes()).all(|(set, node)| {
                let last = match set {
                    LiveSet::All => None,
                    LiveSet::Rows(r) => r.last(),
                    LiveSet::Shared(r) => r.last(),
                };
                last.is_none_or(|&rid| (rid as usize) < db.table(node.table).len())
            })
    }
}

/// Executes join-tree plans against a database, counting every execution.
///
/// One call to [`Executor::exists`], [`Executor::exists_retaining`],
/// [`Executor::execute`] or [`Executor::execute_reduced`] corresponds to one
/// "SQL query executed" in the paper's measurements.
pub struct Executor<'a> {
    db: &'a Database,
    stats: ExecStats,
}

impl<'a> Executor<'a> {
    /// Creates an executor over `db`.
    pub fn new(db: &'a Database) -> Self {
        Executor { db, stats: ExecStats::default() }
    }

    /// Accumulated execution statistics.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
    }

    /// The database this executor runs against.
    pub fn database(&self) -> &'a Database {
        self.db
    }

    /// Does the query return at least one tuple? (The paper's aliveness test.)
    pub fn exists(&mut self, plan: &JoinTreePlan) -> Result<bool, EngineError> {
        Ok(self.exists_retaining(plan)?.is_some())
    }

    /// The aliveness test that keeps its work: the reduced state when the
    /// query is alive, `None` when it is dead. Costs and counts exactly what
    /// [`Executor::exists`] does; [`Executor::execute_reduced`] then
    /// enumerates from the state without reducing again.
    pub fn exists_retaining(
        &mut self,
        plan: &JoinTreePlan,
    ) -> Result<Option<Reduced>, EngineError> {
        plan.validate(self.db)?;
        let start = Instant::now();
        let reduced = self.reduce(plan)?;
        self.stats.record(start.elapsed());
        Ok(reduced)
    }

    /// Evaluates the query, returning up to `limit` result tuples.
    ///
    /// Each tuple maps plan-node index to the matched row id. `limit == 0`
    /// means unlimited. Tuples come in nested-loop order: ascending row ids,
    /// node by node in the node-0 pre-order that takes neighbours in edge
    /// order, so a limit of `k` returns the first `k` of the full result.
    pub fn execute(
        &mut self,
        plan: &JoinTreePlan,
        limit: usize,
    ) -> Result<Vec<MatchTuple>, EngineError> {
        plan.validate(self.db)?;
        let start = Instant::now();
        let result = match self.reduce(plan)? {
            None => Vec::new(),
            Some(mut reduced) => self.resume(plan, &mut reduced, limit),
        };
        self.stats.record(start.elapsed());
        Ok(result)
    }

    /// [`Executor::execute`]'s tuples, resumed from the state
    /// [`Executor::exists_retaining`] returned for the same `plan`: only the
    /// back-pass toward node 0 and the enumeration run. The back-pass leaves
    /// `reduced` reduced toward node 0, so resuming it again enumerates
    /// straight away; a call that fails leaves it untouched. A state that
    /// cannot belong to `plan` (another node count, or rows beyond a node's
    /// table) is refused as an invalid plan.
    pub fn execute_reduced(
        &mut self,
        plan: &JoinTreePlan,
        reduced: &mut Reduced,
        limit: usize,
    ) -> Result<Vec<MatchTuple>, EngineError> {
        plan.validate(self.db)?;
        if !reduced.fits(plan, self.db) {
            return Err(EngineError::InvalidPlan("reduced state belongs to another plan".into()));
        }
        let start = Instant::now();
        let result = self.resume(plan, reduced, limit);
        self.stats.record(start.elapsed());
        Ok(result)
    }

    /// Counts result tuples, up to `cap` (0 = exact count, unbounded).
    pub fn count(&mut self, plan: &JoinTreePlan, cap: usize) -> Result<usize, EngineError> {
        Ok(self.execute(plan, cap)?.len())
    }

    /// Bottom-up semi-join reduction. Returns `None` as soon as any live set
    /// empties (the query is dead), otherwise the reduced state.
    ///
    /// The pass is rooted at [`Executor::cheapest_root`]; any root decides
    /// emptiness of an acyclic join exactly.
    fn reduce(&mut self, plan: &JoinTreePlan) -> Result<Option<Reduced>, EngineError> {
        let mut live: Vec<LiveSet> = Vec::with_capacity(plan.node_count());
        // Initial per-node filtering: selection (pre-verified, predicate
        // skipped) or candidates ∩ predicate.
        for node in plan.nodes() {
            let table = self.db.table(node.table);
            let set = if let Some(sel) = &node.selection {
                if let Some(&last) = sel.last() {
                    if (last as usize) >= table.len() {
                        return Err(EngineError::InvalidPlan(format!(
                            "selection row {last} out of range for table `{}`",
                            table.schema().name
                        )));
                    }
                }
                // Cache-backed node: no rows are read at all here.
                LiveSet::Shared(Arc::clone(sel))
            } else {
                // Compile once per node so substring needles are lowercased
                // outside the row loop.
                let compiled = (!node.predicate.is_true()).then(|| node.predicate.compile());
                match (&node.candidates, &compiled) {
                    (None, None) => LiveSet::All,
                    (None, Some(pred)) => {
                        let mut rows = Vec::new();
                        for (rid, row) in table.iter() {
                            self.stats.rows_examined += 1;
                            if pred.eval(table.schema(), row) {
                                rows.push(rid);
                            }
                        }
                        LiveSet::Rows(rows)
                    }
                    (Some(cands), _) => {
                        let mut rows = Vec::with_capacity(cands.len());
                        for &rid in cands {
                            if (rid as usize) >= table.len() {
                                return Err(EngineError::InvalidPlan(format!(
                                    "candidate row {rid} out of range for table `{}`",
                                    table.schema().name
                                )));
                            }
                            self.stats.rows_examined += 1;
                            if compiled
                                .as_ref()
                                .is_none_or(|p| p.eval(table.schema(), table.row(rid)))
                            {
                                rows.push(rid);
                            }
                        }
                        LiveSet::Rows(rows)
                    }
                }
            };
            if set.is_empty(table) {
                return Ok(None);
            }
            live.push(set);
        }

        let root = self.cheapest_root(plan, &live);
        // Children-before-parent semi-joins.
        for (node, parent_edge, parent) in plan.post_order(root) {
            if parent == usize::MAX {
                continue; // root has no parent to reduce
            }
            if !self.semijoin(plan, &mut live, node, parent, parent_edge) {
                return Ok(None);
            }
        }
        Ok(Some(Reduced { live, root }))
    }

    /// Finishes a reduced state: semi-joins back along the path from its
    /// root to node 0 — walking node 0's ancestors in the tree rooted at the
    /// root back down, each step reducing the next node toward node 0
    /// against the fully reduced one before it — so every node ends up
    /// reduced against its whole subtree in the tree rooted at node 0, as
    /// [`Executor::enumerate`] needs; then enumerates up to `limit` tuples.
    fn resume(
        &mut self,
        plan: &JoinTreePlan,
        reduced: &mut Reduced,
        limit: usize,
    ) -> Vec<MatchTuple> {
        if reduced.root != 0 {
            let mut up = vec![(usize::MAX, usize::MAX); plan.node_count()];
            for (node, parent_edge, parent) in plan.post_order(reduced.root) {
                up[node] = (parent_edge, parent);
            }
            let mut path = vec![0];
            let mut node = 0;
            while up[node].1 != usize::MAX {
                node = up[node].1;
                path.push(node);
            }
            for pair in path.windows(2).rev() {
                let (into, from) = (pair[0], pair[1]);
                if !self.semijoin(plan, &mut reduced.live, from, into, up[into].0) {
                    return Vec::new();
                }
            }
            reduced.root = 0;
        }
        self.enumerate(plan, &reduced.live, limit)
    }

    /// The root whose bottom-up pass does the least full-table semi-join
    /// work; node 0 on a tie. A full-table semi-join reduces an unfiltered
    /// ([`LiveSet::All`]) parent by an unfiltered child: the child offers
    /// no value-set, only its column index, so every live parent row is read.
    /// Any other semi-join reads only already-filtered rows or resolves
    /// through the parent's join-column index (`Database::finalize` indexes
    /// every FK endpoint). A free chain hanging below a keyword node costs a
    /// full scan per link rooted at node 0 but none rooted at the chain's
    /// far end. Plans have at most `maxJoins + 1` nodes, so every root is
    /// tried.
    fn cheapest_root(&self, plan: &JoinTreePlan, live: &[LiveSet]) -> usize {
        let cost = |root: usize| {
            let mut unfiltered: Vec<bool> =
                live.iter().map(|s| matches!(s, LiveSet::All)).collect();
            let mut rows = 0u64;
            for (node, _, parent) in plan.post_order(root) {
                if parent == usize::MAX {
                    continue;
                }
                if unfiltered[node] && unfiltered[parent] {
                    rows += self.db.table(plan.nodes()[parent].table).live_rows() as u64;
                }
                unfiltered[parent] = false;
            }
            rows
        };
        let mut best = (cost(0), 0);
        for root in 1..plan.node_count() {
            if best.0 == 0 {
                break;
            }
            let c = cost(root);
            if c < best.0 {
                best = (c, root);
            }
        }
        best.1
    }

    /// Reduces `live[into]` to the rows whose join value (across plan edge
    /// `edge`) some row of `live[from]` carries. Returns `false` when
    /// `live[into]` empties. Below, `from` is the semi-join's child and
    /// `into` its parent.
    fn semijoin(
        &mut self,
        plan: &JoinTreePlan,
        live: &mut [LiveSet],
        from: usize,
        into: usize,
        edge: usize,
    ) -> bool {
        let edge = plan.edges()[edge];
        let (child_col, parent_col) =
            if edge.a == from { (edge.a_col, edge.b_col) } else { (edge.b_col, edge.a_col) };
        let child_table = self.db.table(plan.nodes()[from].table);
        let collect_sorted = |rows: &[RowId]| {
            let mut vals = Vec::with_capacity(rows.len());
            for &rid in rows {
                if let Some(v) = child_table.row(rid)[child_col].as_int() {
                    vals.push(v);
                }
            }
            normalize(vals)
        };
        let membership = match &live[from] {
            LiveSet::Rows(rows) => ValueMembership::Sorted(collect_sorted(rows)),
            // `Shared` means the live set is still exactly the node's
            // selection, so the plan's pre-extracted value list (when the
            // builder supplied one) IS this membership set — no row reads.
            LiveSet::Shared(rows) => match plan.nodes()[from].postings(child_col) {
                Some(p) => ValueMembership::SortedRef(p.values()),
                None => ValueMembership::Sorted(collect_sorted(rows)),
            },
            LiveSet::All => {
                if child_table.has_index(child_col) {
                    ValueMembership::Indexed(child_table, child_col)
                } else {
                    let mut vals = Vec::new();
                    for (_, row) in child_table.iter() {
                        self.stats.rows_examined += 1;
                        if let Some(v) = row[child_col].as_int() {
                            vals.push(v);
                        }
                    }
                    ValueMembership::Sorted(normalize(vals))
                }
            }
        };
        let parent_table = self.db.table(plan.nodes()[into].table);
        let (filtered, rows_read): (Vec<RowId>, u64) = match &live[into] {
            // An unfiltered parent semi-joined against a sorted value-set
            // is the union of the index postings of those values when the
            // join column is indexed — groups are disjoint, so a sort
            // restores row order and no parent row is ever read.
            LiveSet::All => match membership.as_sorted() {
                Some(mvals) if parent_table.has_index(parent_col) => {
                    let mut rows: Vec<RowId> = Vec::new();
                    for &v in mvals {
                        if let Some(r) = parent_table.lookup_indexed(parent_col, v) {
                            rows.extend_from_slice(r);
                        }
                    }
                    rows.sort_unstable();
                    (rows, 0)
                }
                _ => (
                    parent_table
                        .iter()
                        .filter(|(_, row)| {
                            row[parent_col].as_int().is_some_and(|v| membership.contains(v))
                        })
                        .map(|(rid, _)| rid)
                        .collect(),
                    parent_table.live_rows() as u64,
                ),
            },
            LiveSet::Rows(rows) => {
                (filter_rows(parent_table, rows, parent_col, &membership), rows.len() as u64)
            }
            // A shared live set is still exactly the node's selection, so
            // when the plan carries that selection's postings for the join
            // column the semi-join is answered entirely from them — no
            // parent row is read. (NULL rows are absent from postings and
            // rejected by the row-wise check alike.)
            LiveSet::Shared(rows) => {
                match (plan.nodes()[into].postings(parent_col), membership.as_sorted()) {
                    (Some(pp), Some(mvals)) => (postings_semijoin(pp, mvals), 0),
                    _ => (
                        filter_rows(parent_table, rows, parent_col, &membership),
                        rows.len() as u64,
                    ),
                }
            }
        };
        // Every parent row was read to test its join value, so all of
        // them count — not just the survivors.
        self.stats.rows_examined += rows_read;
        if filtered.is_empty() {
            return false;
        }
        live[into] = LiveSet::Rows(filtered);
        true
    }

    /// Top-down enumeration from node 0 over fully reduced live sets (see
    /// [`Executor::resume`]), with no per-probe grouping.
    ///
    /// Nodes are assigned in pre-order (parent before child), so the only
    /// constraint on a node is the equi-join with its already-assigned
    /// parent. Its candidates for the parent's value are the table's index
    /// posting for that value on the node's join column, kept where the
    /// node's live set admits them. Postings are ascending, exactly like
    /// the live rows, so the tuples come out in the same order a per-node
    /// `value → live rows` map would give — the fallback kept only for a
    /// join column without an index. Every visited row extends to a full
    /// tuple, so a `limit` of `k` stops after `k` extensions.
    fn enumerate(
        &mut self,
        plan: &JoinTreePlan,
        live: &[LiveSet],
        limit: usize,
    ) -> Vec<MatchTuple> {
        let mut pre = plan.post_order(0);
        pre.reverse();
        let mut steps: Vec<EnumStep> = Vec::new();
        for &(node, parent_edge, parent) in &pre {
            if parent == usize::MAX {
                continue;
            }
            let edge = plan.edges()[parent_edge];
            let (child_col, parent_col) =
                if edge.a == node { (edge.a_col, edge.b_col) } else { (edge.b_col, edge.a_col) };
            let table = self.db.table(plan.nodes()[node].table);
            let map = (!table.has_index(child_col)).then(|| {
                let mut map = IntMap::<Vec<RowId>>::default();
                for &rid in self.materialize_rows(plan, node, &live[node]).iter() {
                    if let Some(v) = table.row(rid)[child_col].as_int() {
                        map.entry(v).or_default().push(rid);
                    }
                }
                map
            });
            steps.push(EnumStep { node, parent, parent_col, child_col, map });
        }

        let mut results = Vec::new();
        let mut assignment: Vec<RowId> = vec![0; plan.node_count()];
        for &root_row in self.materialize_rows(plan, 0, &live[0]).iter() {
            assignment[0] = root_row;
            if !self.backtrack(plan, live, &steps, 0, &mut assignment, &mut results, limit) {
                break;
            }
        }
        results
    }

    /// A reduced live set as a plain ascending row list, borrowed when it
    /// already is one.
    fn materialize_rows<'s>(
        &self,
        plan: &JoinTreePlan,
        node: usize,
        set: &'s LiveSet,
    ) -> Cow<'s, [RowId]> {
        match set {
            LiveSet::Rows(r) => Cow::Borrowed(r),
            LiveSet::Shared(r) => Cow::Borrowed(r.as_slice()),
            LiveSet::All => {
                let t = self.db.table(plan.nodes()[node].table);
                Cow::Owned(t.iter().map(|(rid, _)| rid).collect())
            }
        }
    }

    /// Assigns `steps[pos..]` in order; returns `false` once `limit` results
    /// have been collected.
    #[allow(clippy::too_many_arguments)]
    fn backtrack(
        &self,
        plan: &JoinTreePlan,
        live: &[LiveSet],
        steps: &[EnumStep],
        pos: usize,
        assignment: &mut Vec<RowId>,
        results: &mut Vec<MatchTuple>,
        limit: usize,
    ) -> bool {
        if pos == steps.len() {
            results.push(assignment.clone());
            return limit == 0 || results.len() < limit;
        }
        let step = &steps[pos];
        let parent_table = self.db.table(plan.nodes()[step.parent].table);
        let Some(v) = parent_table.row(assignment[step.parent])[step.parent_col].as_int() else {
            return true; // null join value: no extension on this branch
        };
        let table = self.db.table(plan.nodes()[step.node].table);
        let rows = match &step.map {
            Some(map) => map.get(&v).map_or(&[][..], Vec::as_slice),
            None => table.lookup_indexed(step.child_col, v).unwrap_or(&[]),
        };
        for &rid in rows {
            if step.map.is_none() && !live[step.node].admits(rid) {
                continue;
            }
            assignment[step.node] = rid;
            if !self.backtrack(plan, live, steps, pos + 1, assignment, results, limit) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DatabaseBuilder;
    use crate::plan::{PlanEdge, PlanNode};
    use crate::predicate::Predicate;
    use crate::value::{DataType, Value};

    /// color(id, name); item(id, name, color_id); tag(id, item_id, label)
    fn db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("color")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .primary_key("id");
        b.table("item")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .column("color_id", DataType::Int)
            .primary_key("id");
        b.table("tag")
            .column("id", DataType::Int)
            .column("item_id", DataType::Int)
            .column("label", DataType::Text)
            .primary_key("id");
        b.foreign_key("item", "color_id", "color", "id").unwrap();
        b.foreign_key("tag", "item_id", "item", "id").unwrap();
        let mut db = b.finish().unwrap();
        for (id, name) in [(1, "red"), (2, "yellow"), (3, "saffron")] {
            db.insert_values("color", vec![Value::Int(id), Value::text(name)]).unwrap();
        }
        for (id, name, cid) in [
            (1, "scented oil", 3),
            (2, "scented candle", 2),
            (3, "plain candle", 1),
        ] {
            db.insert_values("item", vec![Value::Int(id), Value::text(name), Value::Int(cid)])
                .unwrap();
        }
        for (id, iid, label) in [(1, 1, "luxury"), (2, 2, "gift"), (3, 2, "luxury")] {
            db.insert_values("tag", vec![Value::Int(id), Value::Int(iid), Value::text(label)])
                .unwrap();
        }
        db.finalize();
        db
    }

    fn plan2(db: &Database, item_kw: &str, color_kw: &str) -> JoinTreePlan {
        let item = db.table_id("item").unwrap();
        let color = db.table_id("color").unwrap();
        JoinTreePlan::new(
            vec![
                PlanNode::new(item, Predicate::any_text_contains(item_kw)),
                PlanNode::new(color, Predicate::any_text_contains(color_kw)),
            ],
            vec![PlanEdge { a: 0, a_col: 2, b: 1, b_col: 0 }],
        )
        .unwrap()
    }

    #[test]
    fn single_table_exists() {
        let db = db();
        let mut ex = Executor::new(&db);
        let item = db.table_id("item").unwrap();
        let p = JoinTreePlan::new(
            vec![PlanNode::new(item, Predicate::any_text_contains("candle"))],
            vec![],
        )
        .unwrap();
        assert!(ex.exists(&p).unwrap());
        let p = JoinTreePlan::new(
            vec![PlanNode::new(item, Predicate::any_text_contains("incense"))],
            vec![],
        )
        .unwrap();
        assert!(!ex.exists(&p).unwrap());
        assert_eq!(ex.stats().queries, 2);
    }

    #[test]
    fn two_way_join_alive_and_dead() {
        let db = db();
        let mut ex = Executor::new(&db);
        // "scented candle whose color is yellow" exists (item 2).
        assert!(ex.exists(&plan2(&db, "scented", "yellow")).unwrap());
        // "scented candle whose color is saffron": item 1 is saffron but is
        // an oil, not a candle; candle items are yellow/red.
        assert!(ex.exists(&plan2(&db, "scented", "saffron")).unwrap()); // scented oil is saffron
        assert!(!ex.exists(&plan2(&db, "candle", "saffron")).unwrap());
    }

    #[test]
    fn three_way_chain_join() {
        let db = db();
        let mut ex = Executor::new(&db);
        let item = db.table_id("item").unwrap();
        let color = db.table_id("color").unwrap();
        let tag = db.table_id("tag").unwrap();
        let plan = JoinTreePlan::new(
            vec![
                PlanNode::new(item, Predicate::True),
                PlanNode::new(color, Predicate::any_text_contains("yellow")),
                PlanNode::new(tag, Predicate::any_text_contains("luxury")),
            ],
            vec![
                PlanEdge { a: 0, a_col: 2, b: 1, b_col: 0 },
                PlanEdge { a: 2, a_col: 1, b: 0, b_col: 0 },
            ],
        )
        .unwrap();
        // item 2 is yellow and tagged luxury.
        let tuples = ex.execute(&plan, 0).unwrap();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0][0], 1); // item row id 1 == item id 2
    }

    #[test]
    fn enumeration_counts_cross_products_along_tree() {
        let db = db();
        let mut ex = Executor::new(&db);
        let item = db.table_id("item").unwrap();
        let tag = db.table_id("tag").unwrap();
        // item 2 has two tags -> two result tuples for "scented candle" + any tag.
        let plan = JoinTreePlan::new(
            vec![
                PlanNode::new(item, Predicate::any_text_contains("scented candle")),
                PlanNode::free(tag),
            ],
            vec![PlanEdge { a: 1, a_col: 1, b: 0, b_col: 0 }],
        )
        .unwrap();
        assert_eq!(ex.count(&plan, 0).unwrap(), 2);
        // Limit respected.
        assert_eq!(ex.execute(&plan, 1).unwrap().len(), 1);
    }

    #[test]
    fn candidates_prefilter() {
        let db = db();
        let mut ex = Executor::new(&db);
        let item = db.table_id("item").unwrap();
        // Candidate list excludes the matching row: dead despite predicate match.
        let p = JoinTreePlan::new(
            vec![PlanNode::new(item, Predicate::any_text_contains("oil")).with_candidates(vec![1, 2])],
            vec![],
        )
        .unwrap();
        assert!(!ex.exists(&p).unwrap());
        // Candidate list includes it: alive.
        let p = JoinTreePlan::new(
            vec![PlanNode::new(item, Predicate::any_text_contains("oil")).with_candidates(vec![0])],
            vec![],
        )
        .unwrap();
        assert!(ex.exists(&p).unwrap());
    }

    #[test]
    fn candidate_out_of_range_is_error() {
        let db = db();
        let mut ex = Executor::new(&db);
        let item = db.table_id("item").unwrap();
        let p = JoinTreePlan::new(
            vec![PlanNode::new(item, Predicate::True).with_candidates(vec![99])],
            vec![],
        )
        .unwrap();
        assert!(ex.exists(&p).is_err());
    }

    #[test]
    fn free_single_node_alive_iff_table_nonempty() {
        let mut b = DatabaseBuilder::new();
        b.table("empty").column("id", DataType::Int);
        let db = b.finish().unwrap();
        let mut ex = Executor::new(&db);
        let p = JoinTreePlan::new(vec![PlanNode::free(0)], vec![]).unwrap();
        assert!(!ex.exists(&p).unwrap());
    }

    #[test]
    fn null_fk_never_joins() {
        let mut b = DatabaseBuilder::new();
        b.table("a").column("id", DataType::Int).primary_key("id");
        b.table("b").column("id", DataType::Int).column("a_id", DataType::Int);
        b.foreign_key("b", "a_id", "a", "id").unwrap();
        let mut db = b.finish().unwrap();
        db.insert_values("a", vec![Value::Int(1)]).unwrap();
        db.insert_values("b", vec![Value::Int(1), Value::Null]).unwrap();
        db.finalize();
        let mut ex = Executor::new(&db);
        let p = JoinTreePlan::new(
            vec![PlanNode::free(0), PlanNode::free(1)],
            vec![PlanEdge { a: 1, a_col: 1, b: 0, b_col: 0 }],
        )
        .unwrap();
        assert!(!ex.exists(&p).unwrap());
    }

    #[test]
    fn self_join_same_table_two_instances() {
        // Two instances of `tag` joined through `item`: tags sharing an item.
        let db = db();
        let mut ex = Executor::new(&db);
        let item = db.table_id("item").unwrap();
        let tag = db.table_id("tag").unwrap();
        let plan = JoinTreePlan::new(
            vec![
                PlanNode::free(item),
                PlanNode::new(tag, Predicate::any_text_contains("gift")),
                PlanNode::new(tag, Predicate::any_text_contains("luxury")),
            ],
            vec![
                PlanEdge { a: 1, a_col: 1, b: 0, b_col: 0 },
                PlanEdge { a: 2, a_col: 1, b: 0, b_col: 0 },
            ],
        )
        .unwrap();
        let tuples = ex.execute(&plan, 0).unwrap();
        // Item 2 carries both a gift and a luxury tag.
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0][1], 1); // tag row 1 = gift
        assert_eq!(tuples[0][2], 2); // tag row 2 = luxury on item 2
    }

    #[test]
    fn selection_skips_predicate_and_matches_candidates_path() {
        let db = db();
        let item = db.table_id("item").unwrap();
        let color = db.table_id("color").unwrap();
        // Uncached: predicate over candidates. Cached: pre-verified selection.
        let edges = vec![PlanEdge { a: 0, a_col: 2, b: 1, b_col: 0 }];
        let uncached = JoinTreePlan::new(
            vec![
                PlanNode::new(item, Predicate::any_text_contains("candle"))
                    .with_candidates(vec![0, 1, 2]),
                PlanNode::new(color, Predicate::any_text_contains("yellow")),
            ],
            edges.clone(),
        )
        .unwrap();
        // Rows 1 and 2 are the candles; the predicate never runs for them.
        let cached = JoinTreePlan::new(
            vec![
                PlanNode::new(item, Predicate::any_text_contains("candle"))
                    .with_selection(Arc::new(vec![1, 2])),
                PlanNode::new(color, Predicate::any_text_contains("yellow")),
            ],
            edges,
        )
        .unwrap();
        let mut ex = Executor::new(&db);
        assert_eq!(ex.exists(&uncached).unwrap(), ex.exists(&cached).unwrap());
        assert_eq!(
            ex.execute(&uncached, 0).unwrap(),
            ex.execute(&cached, 0).unwrap()
        );
    }

    #[test]
    fn selection_out_of_range_is_error() {
        let db = db();
        let mut ex = Executor::new(&db);
        let p = JoinTreePlan::new(
            vec![PlanNode::free(0).with_selection(Arc::new(vec![99]))],
            vec![],
        )
        .unwrap();
        assert!(ex.exists(&p).is_err());
    }

    #[test]
    fn col_postings_on_text_column_is_invalid() {
        let db = db();
        let mut ex = Executor::new(&db);
        let item = db.table_id("item").unwrap();
        let p = JoinTreePlan::new(
            vec![PlanNode::free(item)
                .with_selection(Arc::new(vec![0]))
                .with_col_postings(1, Arc::new(ValuePostings::build(vec![(1, 0)])))],
            vec![],
        )
        .unwrap();
        assert!(ex.exists(&p).is_err());
    }

    #[test]
    fn rows_examined_counts_scanned_parent_rows() {
        let db = db();
        let mut ex = Executor::new(&db);
        let item = db.table_id("item").unwrap();
        let color = db.table_id("color").unwrap();
        // color (free root) ⋈ item[oil]: the initial filter scans all 3
        // items; the parent filter then resolves against color's primary-key
        // index — the sorted child value-set turns into index postings, so
        // no color row is read at all.
        let plan = JoinTreePlan::new(
            vec![
                PlanNode::free(color),
                PlanNode::new(item, Predicate::any_text_contains("oil")),
            ],
            vec![PlanEdge { a: 1, a_col: 2, b: 0, b_col: 0 }],
        )
        .unwrap();
        assert!(ex.exists(&plan).unwrap());
        assert_eq!(ex.stats().rows_examined, 3);
        // color (free root) ⋈ item (free child): the child stays behind its
        // column index (`ValueMembership::Indexed`, no sorted value-set), so
        // the parent filter falls back to scanning all 3 color rows.
        ex.reset_stats();
        let plan = JoinTreePlan::new(
            vec![PlanNode::free(color), PlanNode::free(item)],
            vec![PlanEdge { a: 1, a_col: 2, b: 0, b_col: 0 }],
        )
        .unwrap();
        assert!(ex.exists(&plan).unwrap());
        assert_eq!(ex.stats().rows_examined, 3);
    }

    #[test]
    fn free_chain_below_keyword_node_is_not_scanned() {
        let db = db();
        let mut ex = Executor::new(&db);
        let color = db.table_id("color").unwrap();
        let item = db.table_id("item").unwrap();
        let tag = db.table_id("tag").unwrap();
        // color[yellow] ⋈ item ⋈ tag, the free chain hanging below the
        // keyword node. Rooted at node 0, `tag` would reduce `item` while
        // both are unfiltered: a full scan of `item`. Rooted at `tag`, the
        // keyword rows flow down the chain through the FK indexes.
        let plan = JoinTreePlan::new(
            vec![
                PlanNode::new(color, Predicate::any_text_contains("yellow")),
                PlanNode::free(item),
                PlanNode::free(tag),
            ],
            vec![
                PlanEdge { a: 1, a_col: 2, b: 0, b_col: 0 },
                PlanEdge { a: 2, a_col: 1, b: 1, b_col: 0 },
            ],
        )
        .unwrap();
        assert!(ex.exists(&plan).unwrap());
        let free_rows = (db.table(item).live_rows() + db.table(tag).live_rows()) as u64;
        // Only the keyword scan of the 3 colors reads rows.
        assert_eq!(ex.stats().rows_examined, 3);
        assert!(ex.stats().rows_examined < free_rows);
        // Yellow item 2 carries two tags, enumerated in tag row order.
        assert_eq!(ex.execute(&plan, 0).unwrap(), vec![vec![1, 1, 1], vec![1, 1, 2]]);
    }

    #[test]
    fn reduced_state_of_another_plan_is_refused() {
        let db = db();
        let mut ex = Executor::new(&db);
        let two = plan2(&db, "scented", "yellow");
        let mut reduced = ex.exists_retaining(&two).unwrap().expect("alive");
        let color = db.table_id("color").unwrap();
        let one = JoinTreePlan::new(vec![PlanNode::free(color)], vec![]).unwrap();
        assert!(matches!(
            ex.execute_reduced(&one, &mut reduced, 0),
            Err(EngineError::InvalidPlan(_))
        ));
        assert_eq!(ex.stats().queries, 1, "a refused resume is no query");
        assert_eq!(ex.execute_reduced(&two, &mut reduced, 0).unwrap(), ex.execute(&two, 0).unwrap());
    }

    #[test]
    fn stats_accumulate_time() {
        let db = db();
        let mut ex = Executor::new(&db);
        ex.exists(&plan2(&db, "scented", "yellow")).unwrap();
        ex.exists(&plan2(&db, "scented", "yellow")).unwrap();
        assert_eq!(ex.stats().queries, 2);
        assert!(ex.stats().rows_examined > 0);
        ex.reset_stats();
        assert_eq!(ex.stats().queries, 0);
    }
}
