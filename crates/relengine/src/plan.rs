//! Join-tree query plans.
//!
//! A plan is the executable form of one lattice node: a tree of relation
//! instances (the copies) with a predicate per instance and a key/foreign-key
//! equi-join per tree edge. Plans are validated to be connected trees at
//! construction, mirroring the paper's observation that candidate join-query
//! networks "by definition must be a tree" (DISCOVER).

use std::sync::Arc;

use crate::catalog::{Database, TableId};
use crate::error::EngineError;
use crate::predicate::Predicate;
use crate::schema::ColId;
use crate::sortedvals::ValuePostings;
use crate::table::RowId;
use crate::value::DataType;

/// One relation instance in the join tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The underlying table.
    pub table: TableId,
    /// Instance-local filter (the instantiated keyword predicate, or
    /// [`Predicate::True`] for a free tuple set).
    pub predicate: Predicate,
    /// Optional pre-computed candidate row ids (e.g. from an inverted index
    /// posting list), sorted ascending. When present, only these rows are
    /// considered — the predicate is still verified against each.
    pub candidates: Option<Vec<RowId>>,
    /// Optional pre-*verified* selection (e.g. from the session-scoped
    /// selection cache), sorted ascending: exactly the rows satisfying
    /// `predicate`, shared without copying. When present it supersedes both
    /// `candidates` and the predicate — the executor uses these rows as-is
    /// and skips `Predicate::eval` entirely.
    pub selection: Option<Arc<Vec<RowId>>>,
    /// Pre-extracted value→rows postings of `selection`: for each listed
    /// column, `selection`'s rows grouped by their non-NULL integer value in
    /// it ([`ValuePostings`]). The executor trusts them (like `selection`
    /// itself) and uses them to answer both value-membership questions about
    /// the *untouched* selection and value→row lookups without re-reading
    /// any rows. Meaningless (and ignored) without `selection`.
    pub col_postings: Vec<(ColId, Arc<ValuePostings>)>,
    /// Display alias used by SQL rendering, e.g. `P1` or `I0`.
    pub alias: Option<String>,
}

impl PlanNode {
    /// Creates a node over `table` filtered by `predicate`.
    pub fn new(table: TableId, predicate: Predicate) -> Self {
        PlanNode {
            table,
            predicate,
            candidates: None,
            selection: None,
            col_postings: Vec::new(),
            alias: None,
        }
    }

    /// Creates an unfiltered (free tuple set) node.
    pub fn free(table: TableId) -> Self {
        PlanNode::new(table, Predicate::True)
    }

    /// Attaches pre-computed candidate rows (must be sorted ascending).
    pub fn with_candidates(mut self, candidates: Vec<RowId>) -> Self {
        debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
        self.candidates = Some(candidates);
        self
    }

    /// Attaches a pre-verified shared selection (must be sorted ascending and
    /// must equal the rows `predicate` would accept — the executor trusts it).
    pub fn with_selection(mut self, selection: Arc<Vec<RowId>>) -> Self {
        debug_assert!(selection.windows(2).all(|w| w[0] < w[1]));
        self.selection = Some(selection);
        self
    }

    /// Attaches the pre-extracted value→rows postings of the node's
    /// selection in `col` (must group exactly the selection's rows by their
    /// value in `col` — the executor trusts it).
    pub fn with_col_postings(mut self, col: ColId, postings: Arc<ValuePostings>) -> Self {
        debug_assert!(postings.values().windows(2).all(|w| w[0] < w[1]));
        self.col_postings.push((col, postings));
        self
    }

    /// The attached postings of the selection in `col`, if any.
    pub(crate) fn postings(&self, col: ColId) -> Option<&ValuePostings> {
        self.col_postings.iter().find(|(c, _)| *c == col).map(|(_, p)| p.as_ref())
    }

    /// Sets the display alias.
    pub fn with_alias(mut self, alias: impl Into<String>) -> Self {
        self.alias = Some(alias.into());
        self
    }
}

/// One equi-join edge between two plan nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEdge {
    /// Index of the first node in [`JoinTreePlan::nodes`].
    pub a: usize,
    /// Join column of node `a`.
    pub a_col: ColId,
    /// Index of the second node.
    pub b: usize,
    /// Join column of node `b`.
    pub b_col: ColId,
}

/// A validated join-tree plan.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinTreePlan {
    nodes: Vec<PlanNode>,
    edges: Vec<PlanEdge>,
    /// `adjacency[i]` lists `(edge index, neighbour node)` pairs for node `i`.
    adjacency: Vec<Vec<(usize, usize)>>,
}

impl JoinTreePlan {
    /// Builds a plan, checking that the nodes and edges form a connected tree
    /// (`|edges| == |nodes| - 1` and all nodes reachable) with in-range node
    /// and column references.
    pub fn new(nodes: Vec<PlanNode>, edges: Vec<PlanEdge>) -> Result<Self, EngineError> {
        if nodes.is_empty() {
            return Err(EngineError::InvalidPlan("plan must have at least one node".into()));
        }
        if edges.len() != nodes.len() - 1 {
            return Err(EngineError::InvalidPlan(format!(
                "a tree over {} nodes needs {} edges, got {}",
                nodes.len(),
                nodes.len() - 1,
                edges.len()
            )));
        }
        let mut adjacency = vec![Vec::new(); nodes.len()];
        for (ei, e) in edges.iter().enumerate() {
            if e.a >= nodes.len() || e.b >= nodes.len() {
                return Err(EngineError::InvalidPlan(format!(
                    "edge #{ei} references node out of range"
                )));
            }
            if e.a == e.b {
                return Err(EngineError::InvalidPlan(format!("edge #{ei} is a self-loop")));
            }
            adjacency[e.a].push((ei, e.b));
            adjacency[e.b].push((ei, e.a));
        }
        // Connectivity check (with the edge-count check this implies acyclicity).
        let mut seen = vec![false; nodes.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &(_, m) in &adjacency[n] {
                if !seen[m] {
                    seen[m] = true;
                    count += 1;
                    stack.push(m);
                }
            }
        }
        if count != nodes.len() {
            return Err(EngineError::InvalidPlan("plan graph is not connected".into()));
        }
        Ok(JoinTreePlan { nodes, edges, adjacency })
    }

    /// Validates the plan against a database: tables exist, join columns are
    /// in-range integer columns.
    pub fn validate(&self, db: &Database) -> Result<(), EngineError> {
        for n in &self.nodes {
            if n.table >= db.table_count() {
                return Err(EngineError::InvalidPlan(format!(
                    "plan references unknown table #{}",
                    n.table
                )));
            }
            for &(col, _) in &n.col_postings {
                let table = db.table(n.table);
                match table.schema().columns.get(col) {
                    None => {
                        return Err(EngineError::InvalidPlan(format!(
                            "col_postings column #{col} out of range for table `{}`",
                            table.schema().name
                        )))
                    }
                    Some(c) if c.ty != DataType::Int => {
                        return Err(EngineError::InvalidPlan(format!(
                            "col_postings column `{}`.`{}` is not INT",
                            table.schema().name, c.name
                        )))
                    }
                    _ => {}
                }
            }
        }
        for e in &self.edges {
            for (node, col) in [(e.a, e.a_col), (e.b, e.b_col)] {
                let table = db.table(self.nodes[node].table);
                match table.schema().columns.get(col) {
                    None => {
                        return Err(EngineError::InvalidPlan(format!(
                            "join column #{col} out of range for table `{}`",
                            table.schema().name
                        )))
                    }
                    Some(c) if c.ty != DataType::Int => {
                        return Err(EngineError::InvalidPlan(format!(
                            "join column `{}`.`{}` is not INT",
                            table.schema().name, c.name
                        )))
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// The plan's nodes.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The plan's edges.
    pub fn edges(&self) -> &[PlanEdge] {
        &self.edges
    }

    /// `(edge index, neighbour)` pairs incident to node `i`.
    pub fn neighbours(&self, i: usize) -> &[(usize, usize)] {
        &self.adjacency[i]
    }

    /// Number of relation instances.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of joins (`node_count - 1`).
    pub fn join_count(&self) -> usize {
        self.edges.len()
    }

    /// A post-order traversal from `root`: every node appears after all of
    /// its children; returns `(node, parent_edge, parent)` triples with the
    /// root last (`parent_edge`/`parent` are `usize::MAX` for the root).
    pub(crate) fn post_order(&self, root: usize) -> Vec<(usize, usize, usize)> {
        let mut order = Vec::with_capacity(self.nodes.len());
        // Iterative DFS recording (node, parent_edge, parent).
        let mut stack = vec![(root, usize::MAX, usize::MAX, false)];
        let mut visited = vec![false; self.nodes.len()];
        while let Some((n, pe, p, expanded)) = stack.pop() {
            if expanded {
                order.push((n, pe, p));
                continue;
            }
            if visited[n] {
                continue;
            }
            visited[n] = true;
            stack.push((n, pe, p, true));
            for &(ei, m) in &self.adjacency[n] {
                if !visited[m] {
                    stack.push((m, ei, n, false));
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> PlanNode {
        PlanNode::free(0)
    }

    #[test]
    fn single_node_plan() {
        let p = JoinTreePlan::new(vec![node()], vec![]).unwrap();
        assert_eq!(p.node_count(), 1);
        assert_eq!(p.join_count(), 0);
    }

    #[test]
    fn rejects_empty() {
        assert!(JoinTreePlan::new(vec![], vec![]).is_err());
    }

    #[test]
    fn rejects_wrong_edge_count() {
        assert!(JoinTreePlan::new(vec![node(), node()], vec![]).is_err());
        let e = PlanEdge { a: 0, a_col: 0, b: 1, b_col: 0 };
        assert!(JoinTreePlan::new(vec![node(), node()], vec![e, e]).is_err());
    }

    #[test]
    fn rejects_self_loop_and_out_of_range() {
        let e = PlanEdge { a: 0, a_col: 0, b: 0, b_col: 0 };
        assert!(JoinTreePlan::new(vec![node(), node()], vec![e]).is_err());
        let e = PlanEdge { a: 0, a_col: 0, b: 7, b_col: 0 };
        assert!(JoinTreePlan::new(vec![node(), node()], vec![e]).is_err());
    }

    #[test]
    fn rejects_disconnected_with_cycle() {
        // 4 nodes, 3 edges, but edges form a triangle on {0,1,2}: node 3 unreachable.
        let nodes = vec![node(), node(), node(), node()];
        let edges = vec![
            PlanEdge { a: 0, a_col: 0, b: 1, b_col: 0 },
            PlanEdge { a: 1, a_col: 0, b: 2, b_col: 0 },
            PlanEdge { a: 2, a_col: 0, b: 0, b_col: 0 },
        ];
        assert!(JoinTreePlan::new(nodes, edges).is_err());
    }

    #[test]
    fn post_order_visits_children_first() {
        // Path 0 - 1 - 2, rooted at 1.
        let nodes = vec![node(), node(), node()];
        let edges = vec![
            PlanEdge { a: 0, a_col: 0, b: 1, b_col: 0 },
            PlanEdge { a: 1, a_col: 0, b: 2, b_col: 0 },
        ];
        let p = JoinTreePlan::new(nodes, edges).unwrap();
        let order = p.post_order(1);
        assert_eq!(order.len(), 3);
        assert_eq!(order.last().unwrap().0, 1);
        // The two leaves report node 1 as parent.
        for &(n, _, parent) in &order[..2] {
            assert!(n == 0 || n == 2);
            assert_eq!(parent, 1);
        }
    }

    #[test]
    fn neighbours_adjacency() {
        let nodes = vec![node(), node(), node()];
        let edges = vec![
            PlanEdge { a: 0, a_col: 0, b: 1, b_col: 0 },
            PlanEdge { a: 1, a_col: 0, b: 2, b_col: 0 },
        ];
        let p = JoinTreePlan::new(nodes, edges).unwrap();
        assert_eq!(p.neighbours(1).len(), 2);
        assert_eq!(p.neighbours(0).len(), 1);
    }
}
