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
//! [`Executor::execute`] runs the same pass, semi-joins back along the path
//! from its root to node 0, and then enumerates top-down from node 0 with a
//! result limit for early exit. Every node is then reduced against its whole
//! node-0 subtree, so each row the enumeration visits extends to a tuple.
//! A node's rows for its parent's join value come straight from the
//! table's index posting for that value, kept where they are live; no
//! per-probe `value → rows` map is built unless the join column has no
//! index. Postings ascend like every live set, so tuples come out in
//! lexicographic row-id order over the node-0 pre-order (neighbours in
//! edge order) — the order nested loops would give.
//!
//! Two cache-oriented extensions feed the cross-probe evaluation cache
//! (`kwdebug`'s session cache): plan nodes may carry a pre-verified shared
//! *selection* (the executor then skips predicate evaluation for that node)
//! and sorted join-value *constraints* standing in for pruned child subtrees;
//! [`Executor::exists_harvesting`] additionally reports, per requested node,
//! the sorted join-value set that survived that node's subtree reduction —
//! exactly the set a later probe can reuse as a constraint.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::catalog::Database;
use crate::error::EngineError;
use crate::plan::{JoinTreePlan, PlanNode};
use crate::sortedvals::{intersect_sorted, normalize, ValuePostings};
use crate::stats::ExecStats;
use crate::table::{Row, RowId, Table};

/// One result tuple: for each plan node (by index), the matched row id.
pub type MatchTuple = Vec<RowId>;

/// Per-requested-node harvest output of [`Executor::exists_harvesting`]:
/// `Some(values)` when the subtree's surviving join-value set is known
/// (including the empty set when the subtree is known unsatisfiable),
/// `None` when the reduction never materialized it.
pub type HarvestOut = Vec<Option<Vec<i64>>>;

/// One enumeration step: bind `node` to the rows joining its already-bound
/// `parent` (`node.child_col = parent.parent_col`).
struct EnumStep {
    node: usize,
    parent: usize,
    parent_col: usize,
    child_col: usize,
    /// Join value → live rows, built only when `child_col` has no index;
    /// otherwise candidates come from the index posting.
    map: Option<HashMap<i64, Vec<RowId>>>,
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
    /// Exactly the rows of `sel` whose value in `col` lies in the sorted
    /// `vals`. Built when a selection's only constrained column carries
    /// pre-extracted values ([`PlanNode::col_postings`]): `vals` is then the
    /// constraint ∩ the selection's distinct values, so every element is
    /// witnessed by a row and the set is empty iff no row survives. Rows are
    /// materialized only when a later step genuinely needs them.
    Deferred { sel: Arc<Vec<RowId>>, col: usize, vals: Vec<i64> },
}

impl LiveSet {
    fn is_empty(&self, table: &Table) -> bool {
        match self {
            LiveSet::All => table.is_empty(),
            LiveSet::Rows(r) => r.is_empty(),
            LiveSet::Shared(r) => r.is_empty(),
            LiveSet::Deferred { vals, .. } => vals.is_empty(),
        }
    }

    /// Whether live row `rid` of `table` is in the set. `All` admits every
    /// row it is asked about: callers pass index postings, which hold live
    /// rows only.
    fn admits(&self, table: &Table, rid: RowId) -> bool {
        match self {
            LiveSet::All => true,
            LiveSet::Rows(r) => r.binary_search(&rid).is_ok(),
            LiveSet::Shared(r) => r.binary_search(&rid).is_ok(),
            LiveSet::Deferred { sel, col, vals } => {
                sel.binary_search(&rid).is_ok()
                    && table.row(rid)[*col].as_int().is_some_and(|v| vals.binary_search(&v).is_ok())
            }
        }
    }
}

/// The rows of `sel` whose `col` value is in sorted `vals` — materializing a
/// [`LiveSet::Deferred`]. Reads every selection row once.
fn deferred_rows(table: &Table, sel: &[RowId], col: usize, vals: &[i64]) -> Vec<RowId> {
    sel.iter()
        .copied()
        .filter(|&rid| {
            table.row(rid)[col].as_int().is_some_and(|v| vals.binary_search(&v).is_ok())
        })
        .collect()
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

/// A node's merged join-value constraints: same-column sets are intersected
/// once (galloping) before the row loop, so each row pays one binary search
/// per distinct constrained column.
enum ConstraintSet<'p> {
    Borrowed(&'p [i64]),
    Owned(Vec<i64>),
}

impl ConstraintSet<'_> {
    fn as_slice(&self) -> &[i64] {
        match self {
            ConstraintSet::Borrowed(s) => s,
            ConstraintSet::Owned(v) => v,
        }
    }
}

fn merged_constraints(node: &PlanNode) -> Vec<(usize, ConstraintSet<'_>)> {
    let mut out: Vec<(usize, ConstraintSet<'_>)> = Vec::new();
    for (col, vals) in &node.constraints {
        if let Some(existing) = out.iter_mut().find(|(c, _)| c == col) {
            existing.1 = ConstraintSet::Owned(intersect_sorted(existing.1.as_slice(), vals));
        } else {
            out.push((*col, ConstraintSet::Borrowed(vals)));
        }
    }
    out
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

/// Two-pointer intersection of ascending row-id slices.
fn intersect_rows(a: &[RowId], b: &[RowId]) -> Vec<RowId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn row_passes(row: &Row, cons: &[(usize, ConstraintSet<'_>)]) -> bool {
    cons.iter().all(|(col, set)| {
        row.get(*col)
            .and_then(|v| v.as_int())
            .is_some_and(|v| set.as_slice().binary_search(&v).is_ok())
    })
}

/// Collects subtree value-sets during a harvesting reduction and attributes
/// deaths: when a node's live set empties, every enclosing subtree (the node
/// and its ancestors toward the root) is known unsatisfiable, so their
/// harvests are the empty set.
struct Harvester<'h> {
    /// `req_pos[node]` = index into `out`, or `usize::MAX` if not requested.
    req_pos: Vec<usize>,
    /// Rooted parent links (`usize::MAX` at the root).
    parent_of: Vec<usize>,
    out: &'h mut HarvestOut,
}

impl Harvester<'_> {
    fn record(&mut self, node: usize, values: &[i64]) {
        let p = self.req_pos[node];
        if p != usize::MAX {
            self.out[p] = Some(values.to_vec());
        }
    }

    fn mark_dead(&mut self, mut node: usize) {
        while node != usize::MAX {
            let p = self.req_pos[node];
            if p != usize::MAX {
                self.out[p] = Some(Vec::new());
            }
            node = self.parent_of[node];
        }
    }
}

/// Executes join-tree plans against a database, counting every execution.
///
/// One call to [`Executor::exists`] or [`Executor::execute`] corresponds to
/// one "SQL query executed" in the paper's measurements.
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

    /// Folds another executor's statistics into this one's — how a pool
    /// owner merges the counts of per-worker executors after a parallel run.
    pub fn absorb_stats(&mut self, other: &ExecStats) {
        self.stats.merge(other);
    }

    /// The database this executor runs against.
    pub fn database(&self) -> &'a Database {
        self.db
    }

    /// Answers a single-node plan without reading any rows, when the shape
    /// allows it: every constraint sits on one column `c`, and either
    ///
    /// * the node is selection-backed and the plan carries the selection's
    ///   distinct values in `c` ([`PlanNode::col_postings`]) — liveness is
    ///   `values(c) ∩ every constraint ≠ ∅`, a pure galloping intersection; or
    /// * the node is free (no predicate, no candidates) and `c` is indexed —
    ///   liveness is "some constrained value has an index posting".
    ///
    /// NULL join values are absent from value lists, constraint sets and
    /// index postings alike, matching the row-wise check (which rejects NULL
    /// too). `None` means the shape doesn't apply and the caller runs the
    /// normal reduction.
    fn single_node_fast(&self, plan: &JoinTreePlan) -> Option<bool> {
        if plan.node_count() != 1 {
            return None;
        }
        let node = &plan.nodes()[0];
        let (first, rest) = node.constraints.split_first()?;
        let col = first.0;
        if rest.iter().any(|(c, _)| *c != col) {
            return None;
        }
        let merged = || {
            let mut acc = ConstraintSet::Borrowed(&first.1);
            for (_, set) in rest {
                if acc.as_slice().is_empty() {
                    break;
                }
                acc = ConstraintSet::Owned(intersect_sorted(acc.as_slice(), set));
            }
            acc
        };
        if let Some(sel) = &node.selection {
            let vals =
                node.col_postings.iter().find(|(c, _)| *c == col).map(|(_, p)| p.values())?;
            if sel.is_empty() {
                return Some(false);
            }
            return Some(!intersect_sorted(vals, merged().as_slice()).is_empty());
        }
        if node.candidates.is_none() && node.predicate.is_true() {
            let table = self.db.table(node.table);
            if table.has_index(col) {
                let acc = merged();
                return Some(acc.as_slice().iter().any(|&v| {
                    table.lookup_indexed(col, v).is_some_and(|rows| !rows.is_empty())
                }));
            }
        }
        None
    }

    /// Does the query return at least one tuple? (The paper's aliveness test.)
    pub fn exists(&mut self, plan: &JoinTreePlan) -> Result<bool, EngineError> {
        plan.validate(self.db)?;
        let start = Instant::now();
        let alive = match self.single_node_fast(plan) {
            Some(a) => a,
            None => self.reduce(plan, None, false)?.is_some(),
        };
        self.stats.record(start.elapsed());
        Ok(alive)
    }

    /// [`Executor::exists`] that additionally harvests, for each plan node
    /// listed in `harvest`, the sorted set of distinct join values (on that
    /// node's column toward its parent in the tree rooted at node 0) whose
    /// rows survive the node's entire subtree reduction — the value-set a
    /// parent-side semi-join sees, and exactly what the cross-probe subtree
    /// cache stores. Output slots are `None` when the reduction never
    /// materialized the set (dead before reaching the node, or the node
    /// stayed unfiltered behind a column index); a `Some(empty)` slot is a
    /// proof that the subtree is unsatisfiable. Counts as one query in
    /// [`ExecStats`], identically to `exists`.
    pub fn exists_harvesting(
        &mut self,
        plan: &JoinTreePlan,
        harvest: &[usize],
    ) -> Result<(bool, HarvestOut), EngineError> {
        plan.validate(self.db)?;
        for &node in harvest {
            if node >= plan.node_count() || node == 0 {
                return Err(EngineError::InvalidPlan(format!(
                    "harvest node #{node} is out of range or the root"
                )));
            }
        }
        let start = Instant::now();
        let mut out: HarvestOut = vec![None; harvest.len()];
        // A single-node plan has nothing harvestable (the root never is),
        // so the no-row fast path composes with harvesting trivially.
        let alive = match self.single_node_fast(plan) {
            Some(a) => a,
            None => self.reduce(plan, Some((harvest, &mut out)), false)?.is_some(),
        };
        self.stats.record(start.elapsed());
        Ok((alive, out))
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
        let result = match self.reduce(plan, None, true)? {
            None => Vec::new(),
            Some(live) => self.enumerate(plan, &live, limit),
        };
        self.stats.record(start.elapsed());
        Ok(result)
    }

    /// Counts result tuples, up to `cap` (0 = exact count, unbounded).
    pub fn count(&mut self, plan: &JoinTreePlan, cap: usize) -> Result<usize, EngineError> {
        Ok(self.execute(plan, cap)?.len())
    }

    /// Bottom-up semi-join reduction. Returns `None` as soon as any live set
    /// empties (the query is dead), otherwise the reduced live sets.
    ///
    /// With `harvest`, the pass is rooted at node 0 (the harvest keys are
    /// oriented from it) and subtree value-sets for the requested nodes are
    /// collected along the way (see [`Executor::exists_harvesting`]).
    /// Otherwise it is rooted at [`Executor::cheapest_root`]; any root decides
    /// emptiness of an acyclic join exactly. With `full`, the pass then
    /// semi-joins back along the path from that root to node 0, so every node
    /// ends up reduced against its whole subtree in the tree rooted at node 0
    /// — what [`Executor::enumerate`] needs to extend every row it visits.
    fn reduce(
        &mut self,
        plan: &JoinTreePlan,
        harvest: Option<(&[usize], &mut HarvestOut)>,
        full: bool,
    ) -> Result<Option<Vec<LiveSet>>, EngineError> {
        let n = plan.node_count();
        let mut harvester = harvest.map(|(requested, out)| {
            let mut req_pos = vec![usize::MAX; n];
            for (i, &node) in requested.iter().enumerate() {
                req_pos[node] = i;
            }
            let mut parent_of = vec![usize::MAX; n];
            for (node, _, parent) in plan.post_order(0) {
                parent_of[node] = parent;
            }
            Harvester { req_pos, parent_of, out }
        });

        let mut live: Vec<LiveSet> = Vec::with_capacity(n);
        // Initial per-node filtering: selection (pre-verified, predicate
        // skipped) or candidates ∩ predicate, then join-value constraints.
        for (i, node) in plan.nodes().iter().enumerate() {
            let table = self.db.table(node.table);
            let cons = merged_constraints(node);
            let set = if let Some(sel) = &node.selection {
                if let Some(&last) = sel.last() {
                    if (last as usize) >= table.len() {
                        return Err(EngineError::InvalidPlan(format!(
                            "selection row {last} out of range for table `{}`",
                            table.schema().name
                        )));
                    }
                }
                let deferrable = match &cons[..] {
                    // A single constrained column whose distinct selection
                    // values ride on the plan: the filter collapses to a
                    // value intersection, and the row set stays symbolic.
                    [(col, set)] => node
                        .col_postings
                        .iter()
                        .find(|(c, _)| c == col)
                        .map(|(_, p)| (*col, intersect_sorted(p.values(), set.as_slice()))),
                    _ => None,
                };
                let postings_of = |col: usize| {
                    node.col_postings.iter().find(|(c, _)| *c == col).map(|(_, p)| p.as_ref())
                };
                if cons.is_empty() {
                    // Cache-backed node: no rows are read at all here.
                    LiveSet::Shared(Arc::clone(sel))
                } else if let Some((col, vals)) = deferrable {
                    LiveSet::Deferred { sel: Arc::clone(sel), col, vals }
                } else if cons.iter().all(|(c, _)| postings_of(*c).is_some()) {
                    // Several constrained columns, each with postings: every
                    // per-column filter is a postings semi-join and the live
                    // set is their intersection — still no rows read.
                    let mut rows: Option<Vec<RowId>> = None;
                    for (col, set) in &cons {
                        let p = postings_of(*col).expect("checked above");
                        let r = postings_semijoin(p, set.as_slice());
                        rows = Some(match rows {
                            None => r,
                            Some(prev) => intersect_rows(&prev, &r),
                        });
                        if rows.as_ref().is_some_and(Vec::is_empty) {
                            break;
                        }
                    }
                    LiveSet::Rows(rows.unwrap_or_default())
                } else {
                    let mut rows = Vec::with_capacity(sel.len());
                    for &rid in sel.iter() {
                        self.stats.rows_examined += 1;
                        if row_passes(table.row(rid), &cons) {
                            rows.push(rid);
                        }
                    }
                    LiveSet::Rows(rows)
                }
            } else {
                // Compile once per node so substring needles are lowercased
                // outside the row loop.
                let compiled = (!node.predicate.is_true()).then(|| node.predicate.compile());
                match (&node.candidates, &compiled) {
                    (None, None) if cons.is_empty() => LiveSet::All,
                    // Free node whose constrained columns are all indexed:
                    // each constraint set resolves to a union of index
                    // postings (disjoint per value, so a sort restores row
                    // order), intersected across columns — no scan.
                    (None, None) if cons.iter().all(|(c, _)| table.has_index(*c)) => {
                        let mut rows: Option<Vec<RowId>> = None;
                        for (col, set) in &cons {
                            let mut r: Vec<RowId> = Vec::new();
                            for &v in set.as_slice() {
                                if let Some(p) = table.lookup_indexed(*col, v) {
                                    r.extend_from_slice(p);
                                }
                            }
                            r.sort_unstable();
                            rows = Some(match rows {
                                None => r,
                                Some(prev) => intersect_rows(&prev, &r),
                            });
                            if rows.as_ref().is_some_and(Vec::is_empty) {
                                break;
                            }
                        }
                        LiveSet::Rows(rows.unwrap_or_default())
                    }
                    (None, _) => {
                        let mut rows = Vec::new();
                        for (rid, row) in table.iter() {
                            self.stats.rows_examined += 1;
                            if compiled.as_ref().is_none_or(|p| p.eval(table.schema(), row))
                                && row_passes(row, &cons)
                            {
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
                                && row_passes(table.row(rid), &cons)
                            {
                                rows.push(rid);
                            }
                        }
                        LiveSet::Rows(rows)
                    }
                }
            };
            if set.is_empty(table) {
                if let Some(h) = harvester.as_mut() {
                    h.mark_dead(i);
                }
                return Ok(None);
            }
            live.push(set);
        }

        let root = if harvester.is_some() { 0 } else { self.cheapest_root(plan, &live) };
        let order = plan.post_order(root);
        // Children-before-parent semi-joins.
        for &(node, parent_edge, parent) in &order {
            if parent == usize::MAX {
                continue; // root has no parent to reduce
            }
            if !self.semijoin(plan, &mut live, node, parent, parent_edge, harvester.as_mut()) {
                return Ok(None);
            }
        }
        if full && root != 0 {
            // Walk node 0's ancestors (in the tree rooted at `root`) back
            // down from the root: each step reduces the next node toward
            // node 0 against the fully reduced one before it.
            let mut up = vec![(usize::MAX, usize::MAX); n];
            for &(node, parent_edge, parent) in &order {
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
                if !self.semijoin(plan, &mut live, from, into, up[into].0, None) {
                    return Ok(None);
                }
            }
        }
        Ok(Some(live))
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
    /// `live[into]` empties. `from`'s value-set is harvested when requested.
    /// Below, `from` is the semi-join's child and `into` its parent.
    fn semijoin(
        &mut self,
        plan: &JoinTreePlan,
        live: &mut [LiveSet],
        from: usize,
        into: usize,
        edge: usize,
        mut harvester: Option<&mut Harvester<'_>>,
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
        let child_plan = &plan.nodes()[from];
        let precomputed = |col: usize| {
            child_plan.col_postings.iter().find(|(c, _)| *c == col).map(|(_, p)| p.as_ref())
        };
        // A deferred child whose membership column differs from its
        // constrained column needs real rows after all.
        if matches!(&live[from], LiveSet::Deferred { col, .. } if *col != child_col) {
            if let LiveSet::Deferred { sel, col, vals } =
                std::mem::replace(&mut live[from], LiveSet::All)
            {
                live[from] = LiveSet::Rows(match precomputed(col) {
                    Some(p) => postings_semijoin(p, &vals),
                    None => {
                        self.stats.rows_examined += sel.len() as u64;
                        deferred_rows(child_table, &sel, col, &vals)
                    }
                });
            }
        }
        let membership = match &live[from] {
            LiveSet::Rows(rows) => ValueMembership::Sorted(collect_sorted(rows)),
            // `Shared` means the live set is still exactly the node's
            // selection, so the plan's pre-extracted value list (when the
            // builder supplied one) IS this membership set — no row reads.
            LiveSet::Shared(rows) => match precomputed(child_col) {
                Some(p) => ValueMembership::SortedRef(p.values()),
                None => ValueMembership::Sorted(collect_sorted(rows)),
            },
            // Materialized above unless `col == child_col`, in which
            // case the deferred value set IS the membership set.
            LiveSet::Deferred { vals, .. } => ValueMembership::Sorted(vals.clone()),
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
        // The materialized set is the node's complete subtree value-set
        // (its own children were already folded in), so it can be
        // harvested before the parent filter decides life or death.
        if let (Some(h), Some(vals)) = (harvester.as_mut(), membership.as_sorted()) {
            h.record(from, vals);
        }
        let parent_table = self.db.table(plan.nodes()[into].table);
        let parent_plan = &plan.nodes()[into];
        let parent_postings = |col: usize| {
            parent_plan.col_postings.iter().find(|(c, _)| *c == col).map(|(_, p)| p.as_ref())
        };
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
            LiveSet::Shared(rows) => match (parent_postings(parent_col), membership.as_sorted()) {
                (Some(pp), Some(mvals)) => (postings_semijoin(pp, mvals), 0),
                _ => (filter_rows(parent_table, rows, parent_col, &membership), rows.len() as u64),
            },
            // Deferred selection: with postings for both the constrained
            // column and the join column, each filter becomes a postings
            // semi-join and the row set is their intersection — again no
            // row reads. Otherwise one fused pass over the selection.
            LiveSet::Deferred { sel, col, vals } => {
                match (parent_postings(*col), parent_postings(parent_col), membership.as_sorted()) {
                    (Some(dp), Some(pp), Some(mvals)) => (
                        intersect_rows(&postings_semijoin(dp, vals), &postings_semijoin(pp, mvals)),
                        0,
                    ),
                    _ => (
                        sel.iter()
                            .copied()
                            .filter(|&rid| {
                                let row = parent_table.row(rid);
                                row[*col].as_int().is_some_and(|v| vals.binary_search(&v).is_ok())
                                    && row[parent_col]
                                        .as_int()
                                        .is_some_and(|v| membership.contains(v))
                            })
                            .collect(),
                        sel.len() as u64,
                    ),
                }
            }
        };
        // Every parent row was read to test its join value, so all of
        // them count — not just the survivors.
        self.stats.rows_examined += rows_read;
        if filtered.is_empty() {
            if let Some(h) = harvester {
                h.mark_dead(into);
            }
            return false;
        }
        live[into] = LiveSet::Rows(filtered);
        true
    }

    /// Top-down enumeration from node 0 over fully reduced live sets (see
    /// [`Executor::reduce`]'s `full`), with no per-probe grouping.
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
                let mut map: HashMap<i64, Vec<RowId>> = HashMap::new();
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
        &mut self,
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
            LiveSet::Deferred { sel, col, vals } => {
                Cow::Owned(match plan.nodes()[node].col_postings.iter().find(|(c, _)| c == col) {
                    Some((_, p)) => postings_semijoin(p, vals),
                    None => {
                        self.stats.rows_examined += sel.len() as u64;
                        deferred_rows(self.db.table(plan.nodes()[node].table), sel, *col, vals)
                    }
                })
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
            if step.map.is_none() && !live[step.node].admits(table, rid) {
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
    fn constraints_stand_in_for_pruned_subtree() {
        let db = db();
        let mut ex = Executor::new(&db);
        let item = db.table_id("item").unwrap();
        // Full plan: item ⋈ color[yellow]. Constrained plan: item alone, with
        // the yellow color ids (color id 2) as a constraint on item.color_id.
        let full = plan2(&db, "candle", "yellow");
        let constrained = JoinTreePlan::new(
            vec![PlanNode::new(item, Predicate::any_text_contains("candle"))
                .with_constraint(2, Arc::new(vec![2]))],
            vec![],
        )
        .unwrap();
        assert_eq!(ex.exists(&full).unwrap(), ex.exists(&constrained).unwrap());
        // Empty constraint set kills the plan outright.
        let dead = JoinTreePlan::new(
            vec![PlanNode::free(item).with_constraint(2, Arc::new(vec![]))],
            vec![],
        )
        .unwrap();
        assert!(!ex.exists(&dead).unwrap());
        // Two same-column constraints intersect: {1,2} ∩ {2,3} = {2}.
        let both = JoinTreePlan::new(
            vec![PlanNode::free(item)
                .with_constraint(2, Arc::new(vec![1, 2]))
                .with_constraint(2, Arc::new(vec![2, 3]))],
            vec![],
        )
        .unwrap();
        let tuples = ex.execute(&both, 0).unwrap();
        assert_eq!(tuples.len(), 1); // only item row 1 (color_id 2)
        assert_eq!(tuples[0][0], 1);
    }

    #[test]
    fn constraint_on_text_column_is_invalid() {
        let db = db();
        let mut ex = Executor::new(&db);
        let item = db.table_id("item").unwrap();
        let p = JoinTreePlan::new(
            vec![PlanNode::free(item).with_constraint(1, Arc::new(vec![1]))],
            vec![],
        )
        .unwrap();
        assert!(ex.exists(&p).is_err());
    }

    #[test]
    fn harvest_returns_subtree_value_sets() {
        let db = db();
        let mut ex = Executor::new(&db);
        // item[scented] (root) ⋈ color[any]: the color subtree's surviving
        // id set is all three color ids — but colors joined from item are
        // what the membership sees, so harvest node 1 = color ids {1,2,3}.
        let item = db.table_id("item").unwrap();
        let color = db.table_id("color").unwrap();
        let plan = JoinTreePlan::new(
            vec![
                PlanNode::new(item, Predicate::any_text_contains("scented")),
                PlanNode::new(color, Predicate::any_text_contains("saffron")),
            ],
            vec![PlanEdge { a: 0, a_col: 2, b: 1, b_col: 0 }],
        )
        .unwrap();
        let (alive, sets) = ex.exists_harvesting(&plan, &[1]).unwrap();
        assert!(alive); // scented oil is saffron
        assert_eq!(sets, vec![Some(vec![3])]); // saffron = color id 3
    }

    #[test]
    fn harvest_marks_dead_subtrees_empty() {
        let db = db();
        let mut ex = Executor::new(&db);
        let item = db.table_id("item").unwrap();
        let color = db.table_id("color").unwrap();
        let tag = db.table_id("tag").unwrap();
        // Chain rooted at tag: tag ⋈ item[no such kw] ⋈ color. The item
        // node's initial filter empties, which proves both the item subtree
        // and (transitively) nothing about the untouched color leaf — the
        // color set is never materialized, the item set is proven empty.
        let plan = JoinTreePlan::new(
            vec![
                PlanNode::free(tag),
                PlanNode::new(item, Predicate::any_text_contains("no-such-item")),
                PlanNode::free(color),
            ],
            vec![
                PlanEdge { a: 1, a_col: 0, b: 0, b_col: 1 },
                PlanEdge { a: 1, a_col: 2, b: 2, b_col: 0 },
            ],
        )
        .unwrap();
        let (alive, sets) = ex.exists_harvesting(&plan, &[1, 2]).unwrap();
        assert!(!alive);
        assert_eq!(sets[0], Some(vec![])); // item subtree proven unsatisfiable
        assert_eq!(sets[1], None); // color leaf never reached
    }

    #[test]
    fn harvest_rejects_root_and_out_of_range() {
        let db = db();
        let mut ex = Executor::new(&db);
        let plan = plan2(&db, "scented", "yellow");
        assert!(ex.exists_harvesting(&plan, &[0]).is_err());
        assert!(ex.exists_harvesting(&plan, &[5]).is_err());
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
