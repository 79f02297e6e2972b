//! Offline lattice generation (Phase 0, the paper's Algorithm 1).
//!
//! The lattice contains every join-query network a KWS-S system can explore,
//! up to `maxJoins` joins, organized hierarchically: level `k` holds the
//! networks with `k` relation instances (`k-1` joins), and a node's children
//! are exactly its maximal sub-networks (one leaf removed). The structure is
//! computed once, offline, from the schema graph alone — it bypasses the
//! costly candidate-network generation of traditional KWS-S systems and, at
//! query time, lets the traversal strategies (Phase 3) *infer* the emptiness
//! of many SQL queries instead of executing them.
//!
//! Copies: for each relation `R` the lattice uses a free copy `R_0` (the
//! empty-keyword tuple set) plus keyword copies `R_1..R_{m+1}`. Keyword
//! copies appear at most once per network (each is bound 1-1 to a keyword at
//! runtime); free copies may repeat, which is what allows e.g.
//! `Person1 — Writes0 — Publication0 — Writes0 — Person2` co-author networks.
//! Keyword copies are only generated for relations that have text attributes;
//! copies of pure-relationship tables could never be bound to any keyword and
//! would be pruned in every query (a space optimization the paper's DBLife
//! schema makes natural: its 9 relationship tables carry no text).
//!
//! Two pruning rules apply during generation:
//! 1. **duplicate elimination** via canonical byte keys ([`crate::canonical`],
//!    the paper's "Offline Pruning 1"), and
//! 2. **degenerate-join elimination**: a vertex never uses the same foreign
//!    key from its referencing side twice (both neighbours would be forced to
//!    be the same tuple), mirroring DISCOVER's candidate-network rules.
//!
//! # Storage: compact arena (DESIGN.md §9)
//!
//! The lattice is stored as a struct-of-arrays arena rather than a
//! `Vec<Node>` of per-node heap objects: node ids are dense and level-ordered
//! (`0..n` iterates bottom-up), children/parents adjacency lives in two
//! shared CSR (compressed sparse row) arrays, and two query-time indexes are
//! precomputed once here so Phases 1–2 ([`crate::prune`]) never have to scan
//! the whole lattice:
//!
//! * a **tuple-set postings index** mapping each `(table, copy)` to the
//!   ascending list of node ids whose network contains that tuple set, and
//! * a **free-leaf flag** per node (`has_free_leaf`), which turns the MTN
//!   minimality test into a precomputed bit.
//!
//! All arrays are plain `Vec`s with no interior mutability, so one `Lattice`
//! is freely shareable (`&Lattice` is `Sync`) across concurrent query
//! sessions.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use relengine::Database;

use crate::canonical::canonical_key;
use crate::jnts::{CopyIdx, Jnts, TupleSet};
use crate::schema_graph::SchemaGraph;

/// Identifier of a lattice node (dense, 0-based, ascending in level order).
pub type NodeId = u32;

/// Per-level generation statistics (reproduces Figure 9).
#[derive(Debug, Clone, Default)]
pub struct LevelStats {
    /// Networks produced by extension before duplicate elimination.
    pub generated: usize,
    /// Networks discarded as duplicates of an existing node.
    pub duplicates: usize,
    /// Nodes kept at this level.
    pub kept: usize,
    /// Wall-clock time spent building this level.
    pub elapsed: Duration,
}

/// Byte breakdown of the resident lattice arena (see
/// [`Lattice::memory_footprint`]).
#[derive(Debug, Clone, Default)]
pub struct LatticeFootprint {
    /// Total nodes in the arena.
    pub nodes: usize,
    /// Heap bytes held by the join networks (vertex and edge vectors).
    pub jnts_bytes: usize,
    /// Bytes of the CSR children/parents adjacency (offsets + ids).
    pub adjacency_bytes: usize,
    /// Bytes of the tuple-set postings index (offsets + ids).
    pub postings_bytes: usize,
    /// Bytes of the remaining per-node arrays (levels, identity ids,
    /// free-leaf flags) and per-level bookkeeping.
    pub index_bytes: usize,
}

impl LatticeFootprint {
    /// Total resident bytes across all arena arrays.
    pub fn total_bytes(&self) -> usize {
        self.jnts_bytes + self.adjacency_bytes + self.postings_bytes + self.index_bytes
    }
}

/// The full offline lattice, stored as a compact struct-of-arrays arena.
#[derive(Debug, Clone)]
pub struct Lattice {
    /// Join network of each node, indexed by `NodeId`.
    jnts: Vec<Jnts>,
    /// Level (= relation-instance count) of each node.
    node_levels: Vec<u32>,
    /// Identity array `[0, 1, .., n-1]`, kept so [`Lattice::level_nodes`] can
    /// hand out contiguous id slices (ids are level-ordered).
    ids: Vec<NodeId>,
    /// `level_start[k-1]..level_start[k]` is the id range of level `k`.
    level_start: Vec<usize>,
    /// CSR offsets into `child_ids`: children of `id` are
    /// `child_ids[child_off[id]..child_off[id+1]]`, ascending.
    child_off: Vec<usize>,
    /// CSR payload of children (maximal proper sub-networks, one level down).
    child_ids: Vec<NodeId>,
    /// CSR offsets into `parent_ids`.
    parent_off: Vec<usize>,
    /// CSR payload of parents (minimal proper super-networks, one level up).
    parent_ids: Vec<NodeId>,
    /// Postings stride: copies `0..=max_level` per table.
    copies_per_table: usize,
    /// Number of tables covered by the postings index.
    table_count: usize,
    /// CSR offsets into `posting_ids`, keyed by
    /// `table * copies_per_table + copy`.
    posting_off: Vec<usize>,
    /// CSR payload: ascending node ids containing each tuple set.
    posting_ids: Vec<NodeId>,
    /// Whether the node's network has more than one vertex and at least one
    /// free leaf — the precomputed complement of the MTN minimality test.
    free_leaf: Vec<bool>,
    max_joins: usize,
    stats: Vec<LevelStats>,
}

impl Lattice {
    /// Generates the lattice for `db` up to `max_joins` joins
    /// (`max_joins + 1` levels). This is the paper's Algorithm 1.
    pub fn build(db: &Database, graph: &SchemaGraph, max_joins: usize) -> Lattice {
        let max_level = max_joins + 1;
        let mut jnts: Vec<Jnts> = Vec::new();
        let mut tmp_children: Vec<Vec<NodeId>> = Vec::new();
        let mut level_counts: Vec<usize> = Vec::with_capacity(max_level);
        let mut stats: Vec<LevelStats> = Vec::with_capacity(max_level);

        // Base level: copies of every relation. Copy 0 always; keyword copies
        // 1..=max_joins+1 only for text-bearing relations.
        let t0 = Instant::now();
        let mut level_stats = LevelStats::default();
        for t in 0..db.table_count() {
            let max_copy = if graph.has_text(t) { max_level as CopyIdx } else { 0 };
            for copy in 0..=max_copy {
                jnts.push(Jnts::single(TupleSet::new(t, copy)));
                tmp_children.push(Vec::new());
                level_stats.generated += 1;
                level_stats.kept += 1;
            }
        }
        level_stats.elapsed = t0.elapsed();
        level_counts.push(jnts.len());
        stats.push(level_stats);

        // Higher levels by extension. Duplicate elimination interns the
        // canonical byte key of every generated network.
        let mut prev_range = 0..jnts.len();
        for _level in 2..=max_level {
            let t0 = Instant::now();
            let mut level_stats = LevelStats::default();
            let mut by_canon: HashMap<Vec<u8>, NodeId> = HashMap::new();
            let level_first = jnts.len();
            for g_id in prev_range.clone() {
                let g = jnts[g_id].clone();
                for at in 0..g.node_count() {
                    let table = g.nodes()[at].table;
                    for &incidence in graph.incident(table) {
                        // Degenerate-join rule: the referencing side of a key
                        // holds one value; it cannot join two neighbours.
                        if incidence.local_is_from && g.uses_fk_from(at, incidence.fk) {
                            continue;
                        }
                        let max_copy =
                            if graph.has_text(incidence.other) { max_level as CopyIdx } else { 0 };
                        for copy in 0..=max_copy {
                            if copy > 0 && g.contains(TupleSet::new(incidence.other, copy)) {
                                continue; // keyword copies are unique per network
                            }
                            let extended = g.extend(at, incidence, copy);
                            level_stats.generated += 1;
                            let key = canonical_key(&extended);
                            let target = match by_canon.get(key.as_slice()) {
                                Some(&existing) => {
                                    level_stats.duplicates += 1;
                                    existing
                                }
                                None => {
                                    let id = jnts.len() as NodeId;
                                    jnts.push(extended);
                                    tmp_children.push(Vec::new());
                                    by_canon.insert(key, id);
                                    level_stats.kept += 1;
                                    id
                                }
                            };
                            tmp_children[target as usize].push(g_id as NodeId);
                        }
                    }
                }
            }
            // A node can be linked to the same child through several
            // isomorphic extensions; keep links unique.
            for c in tmp_children.iter_mut().skip(level_first) {
                c.sort_unstable();
                c.dedup();
            }
            level_stats.elapsed = t0.elapsed();
            level_counts.push(jnts.len() - level_first);
            stats.push(level_stats);
            prev_range = level_first..jnts.len();
        }

        Lattice::assemble(jnts, tmp_children, level_counts, max_joins, stats)
    }

    /// Packs loose per-node data into the final arena: derives levels from
    /// the per-level counts, children/parents CSR from the child lists, and
    /// precomputes the postings index and free-leaf flags. Shared by
    /// [`Lattice::build`] and `Lattice::from_parts` (deserialization).
    fn assemble(
        jnts: Vec<Jnts>,
        tmp_children: Vec<Vec<NodeId>>,
        level_counts: Vec<usize>,
        max_joins: usize,
        stats: Vec<LevelStats>,
    ) -> Lattice {
        let n = jnts.len();
        debug_assert_eq!(n, tmp_children.len());
        debug_assert_eq!(n, level_counts.iter().sum::<usize>());

        let mut node_levels = Vec::with_capacity(n);
        let mut level_start = Vec::with_capacity(level_counts.len() + 1);
        level_start.push(0usize);
        for (k, &count) in level_counts.iter().enumerate() {
            node_levels.extend(std::iter::repeat_n(k as u32 + 1, count));
            level_start.push(level_start[k] + count);
        }
        let ids: Vec<NodeId> = (0..n as NodeId).collect();

        // Children CSR, then parents by inversion (children are deduped and
        // ascending, so each parent list comes out ascending and unique too).
        let mut child_off = Vec::with_capacity(n + 1);
        child_off.push(0usize);
        let mut child_ids = Vec::with_capacity(tmp_children.iter().map(Vec::len).sum());
        let mut parent_counts = vec![0usize; n];
        for c in &tmp_children {
            child_ids.extend_from_slice(c);
            child_off.push(child_ids.len());
            for &ci in c {
                parent_counts[ci as usize] += 1;
            }
        }
        drop(tmp_children);
        let mut parent_off = Vec::with_capacity(n + 1);
        parent_off.push(0usize);
        for &c in &parent_counts {
            parent_off.push(parent_off.last().unwrap() + c);
        }
        let mut parent_ids = vec![0 as NodeId; *parent_off.last().unwrap()];
        let mut parent_next = parent_off[..n].to_vec();
        for id in 0..n {
            for &ci in &child_ids[child_off[id]..child_off[id + 1]] {
                parent_ids[parent_next[ci as usize]] = id as NodeId;
                parent_next[ci as usize] += 1;
            }
        }

        // Tuple-set postings: ascending node ids per (table, copy). Repeated
        // free copies within one network must post the node once; since
        // nodes are visited in ascending id order, a duplicate within a node
        // is always the current last entry.
        let table_count = jnts
            .iter()
            .flat_map(|j| j.nodes().iter().map(|ts| ts.table + 1))
            .max()
            .unwrap_or(0);
        let copies_per_table = max_joins + 2; // copies 0..=max_level
        let mut postings: Vec<Vec<NodeId>> = vec![Vec::new(); table_count * copies_per_table];
        for (id, j) in jnts.iter().enumerate() {
            for ts in j.nodes() {
                let slot = &mut postings[ts.table * copies_per_table + ts.copy as usize];
                if slot.last() != Some(&(id as NodeId)) {
                    slot.push(id as NodeId);
                }
            }
        }
        let mut posting_off = Vec::with_capacity(postings.len() + 1);
        posting_off.push(0usize);
        let mut posting_ids = Vec::with_capacity(postings.iter().map(Vec::len).sum());
        for p in &postings {
            posting_ids.extend_from_slice(p);
            posting_off.push(posting_ids.len());
        }
        drop(postings);

        // MTN minimality precompute: a single-vertex network has no proper
        // sub-network, so only multi-vertex networks can fail on a free leaf.
        let free_leaf: Vec<bool> = jnts
            .iter()
            .map(|j| {
                j.node_count() > 1 && j.leaves().iter().any(|&l| j.nodes()[l].is_free())
            })
            .collect();

        Lattice {
            jnts,
            node_levels,
            ids,
            level_start,
            child_off,
            child_ids,
            parent_off,
            parent_ids,
            copies_per_table,
            table_count,
            posting_off,
            posting_ids,
            free_leaf,
            max_joins,
            stats,
        }
    }

    /// Reassembles a lattice from deserialized parts (see
    /// [`crate::lattice_io`]): the networks in level order, each node's child
    /// ids (ascending), and the per-level node counts. Callers must supply
    /// internally consistent data; `lattice_io` validates while reading.
    pub(crate) fn from_parts(
        jnts: Vec<Jnts>,
        children: Vec<Vec<NodeId>>,
        level_counts: Vec<usize>,
        max_joins: usize,
        stats: Vec<LevelStats>,
    ) -> Lattice {
        Lattice::assemble(jnts, children, level_counts, max_joins, stats)
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.jnts.len()
    }

    /// The join network of node `id`.
    pub fn jnts(&self, id: NodeId) -> &Jnts {
        &self.jnts[id as usize]
    }

    /// The level of node `id` (= relation instances in its network).
    pub fn level_of(&self, id: NodeId) -> u32 {
        self.node_levels[id as usize]
    }

    /// Children of `id`: its maximal proper sub-networks (one level down),
    /// ascending and unique.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.child_ids[self.child_off[id as usize]..self.child_off[id as usize + 1]]
    }

    /// Parents of `id`: its minimal proper super-networks (one level up),
    /// ascending and unique.
    pub fn parents(&self, id: NodeId) -> &[NodeId] {
        &self.parent_ids[self.parent_off[id as usize]..self.parent_off[id as usize + 1]]
    }

    /// Ascending ids of the nodes whose network contains the tuple set
    /// `(table, copy)`; empty for tuple sets outside the lattice.
    pub fn postings(&self, table: usize, copy: CopyIdx) -> &[NodeId] {
        let copy = copy as usize;
        if table >= self.table_count || copy >= self.copies_per_table {
            return &[];
        }
        let slot = table * self.copies_per_table + copy;
        &self.posting_ids[self.posting_off[slot]..self.posting_off[slot + 1]]
    }

    /// Number of tables covered by the postings index (tables with at least
    /// one copy in the lattice).
    pub fn table_count(&self) -> usize {
        self.table_count
    }

    /// Postings stride: valid copy indices are `0..copies_per_table()`
    /// (copy 0 is the free copy, `1..` the keyword copies).
    pub fn copies_per_table(&self) -> usize {
        self.copies_per_table
    }

    /// Whether the node's network has a free leaf (always `false` for
    /// single-vertex networks). A retained total node is an MTN iff this is
    /// `false` — see [`crate::mtn::is_mtn`].
    pub fn has_free_leaf(&self, id: NodeId) -> bool {
        self.free_leaf[id as usize]
    }

    /// Node ids at `level` (1-based); empty for out-of-range levels.
    pub fn level_nodes(&self, level: usize) -> &[NodeId] {
        if level == 0 || level >= self.level_start.len() {
            &[]
        } else {
            &self.ids[self.level_start[level - 1]..self.level_start[level]]
        }
    }

    /// Number of levels (`max_joins + 1`).
    pub fn level_count(&self) -> usize {
        self.level_start.len() - 1
    }

    /// The `maxJoins` the lattice was built for.
    pub fn max_joins(&self) -> usize {
        self.max_joins
    }

    /// Per-level generation statistics.
    pub fn stats(&self) -> &[LevelStats] {
        &self.stats
    }

    /// All node ids in level order (ids are dense and level-ordered, so this
    /// is simply `0..node_count`).
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.jnts.len() as NodeId
    }

    /// Byte breakdown of the resident arena, for capacity planning and the
    /// REPL's `:lattice` command.
    pub fn memory_footprint(&self) -> LatticeFootprint {
        let vecsz = |len: usize, elem: usize| len * elem;
        LatticeFootprint {
            nodes: self.node_count(),
            jnts_bytes: self.jnts.iter().map(Jnts::heap_bytes).sum::<usize>()
                + vecsz(self.jnts.len(), std::mem::size_of::<Jnts>()),
            adjacency_bytes: vecsz(self.child_off.len() + self.parent_off.len(), 8)
                + vecsz(self.child_ids.len() + self.parent_ids.len(), 4),
            postings_bytes: vecsz(self.posting_off.len(), 8)
                + vecsz(self.posting_ids.len(), 4),
            index_bytes: vecsz(self.node_levels.len(), 4)
                + vecsz(self.ids.len(), 4)
                + vecsz(self.level_start.len(), 8)
                + self.free_leaf.len()
                + vecsz(self.stats.len(), std::mem::size_of::<LevelStats>()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mtn::is_mtn;
    use relengine::{DataType, DatabaseBuilder};

    /// The paper's Example 2: R(a, b), S(c, d), one fk R.b -> S.c.
    fn example2_db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("R").column("a", DataType::Text).column("b", DataType::Int);
        b.table("S").column("c", DataType::Int).column("d", DataType::Text);
        b.foreign_key("R", "b", "S", "c").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn example2_lattice_shape() {
        let db = example2_db();
        let g = SchemaGraph::new(&db);
        let lat = Lattice::build(&db, &g, 1);
        // Base level: R0, R1, R2, S0, S1, S2 (m+1 = 2 keyword copies + free).
        assert_eq!(lat.level_nodes(1).len(), 6);
        // Level 2: Ri ⋈ Sj for i, j in {0,1,2} = 9 combinations.
        assert_eq!(lat.level_nodes(2).len(), 9);
        assert_eq!(lat.level_count(), 2);
        // The paper's Figure 4 shows the 4 keyword-copy-only combinations;
        // with the free copies the full count is 9.
        for &id in lat.level_nodes(2) {
            assert_eq!(lat.jnts(id).node_count(), 2);
            assert_eq!(lat.children(id).len(), 2); // R_i and S_j
            assert!(lat.parents(id).is_empty());
        }
    }

    #[test]
    fn duplicate_elimination_counts() {
        let db = example2_db();
        let g = SchemaGraph::new(&db);
        let lat = Lattice::build(&db, &g, 1);
        let s = &lat.stats()[1];
        // Each R_i ⋈ S_j is generated twice (once extending R_i, once S_j).
        assert_eq!(s.generated, 18);
        assert_eq!(s.duplicates, 9);
        assert_eq!(s.kept, 9);
    }

    #[test]
    fn parent_child_links_are_mutual_and_unique() {
        let db = example2_db();
        let g = SchemaGraph::new(&db);
        let lat = Lattice::build(&db, &g, 2);
        for id in lat.all_nodes() {
            for &c in lat.children(id) {
                assert!(lat.parents(c).contains(&id));
                assert_eq!(lat.level_of(c) + 1, lat.level_of(id));
            }
            let mut sorted = lat.children(id).to_vec();
            sorted.dedup();
            assert_eq!(sorted.len(), lat.children(id).len(), "duplicate child link");
        }
    }

    #[test]
    fn textless_tables_get_only_free_copies() {
        let mut b = DatabaseBuilder::new();
        b.table("person").column("id", DataType::Int).column("name", DataType::Text)
            .primary_key("id");
        b.table("writes").column("pid", DataType::Int).column("pubid", DataType::Int);
        b.foreign_key("writes", "pid", "person", "id").unwrap();
        let db = b.finish().unwrap();
        let g = SchemaGraph::new(&db);
        let lat = Lattice::build(&db, &g, 2);
        let base: Vec<_> =
            lat.level_nodes(1).iter().map(|&id| lat.jnts(id).nodes()[0]).collect();
        // person: copies 0..=3; writes: copy 0 only.
        assert_eq!(base.iter().filter(|ts| ts.table == 0).count(), 4);
        assert_eq!(base.iter().filter(|ts| ts.table == 1).count(), 1);
    }

    #[test]
    fn degenerate_double_reference_excluded() {
        // writes.pid references person. A network
        // person_a <- writes0 -> person_b via the SAME fk must not exist.
        let mut b = DatabaseBuilder::new();
        b.table("person").column("id", DataType::Int).column("name", DataType::Text)
            .primary_key("id");
        b.table("writes").column("pid", DataType::Int).column("pubid", DataType::Int);
        b.foreign_key("writes", "pid", "person", "id").unwrap();
        let db = b.finish().unwrap();
        let g = SchemaGraph::new(&db);
        let lat = Lattice::build(&db, &g, 2);
        for id in lat.all_nodes() {
            let j = lat.jnts(id);
            for v in 0..j.node_count() {
                let from_uses = j
                    .edges()
                    .iter()
                    .filter(|e| {
                        (e.a as usize == v && e.a_is_from) || (e.b as usize == v && !e.a_is_from)
                    })
                    .filter(|e| e.fk == 0)
                    .count();
                assert!(from_uses <= 1, "degenerate network in lattice");
            }
        }
    }

    #[test]
    fn growth_is_monotone_with_level() {
        let db = example2_db();
        let g = SchemaGraph::new(&db);
        let lat = Lattice::build(&db, &g, 3);
        assert_eq!(lat.level_count(), 4);
        assert_eq!(lat.node_count(), lat.all_nodes().count());
        // Every node's networks validate as trees and match their level.
        for id in lat.all_nodes() {
            assert!(lat.jnts(id).validate());
            assert_eq!(lat.jnts(id).node_count() as u32, lat.level_of(id));
        }
    }

    #[test]
    fn level_accessor_bounds() {
        let db = example2_db();
        let g = SchemaGraph::new(&db);
        let lat = Lattice::build(&db, &g, 1);
        assert!(lat.level_nodes(0).is_empty());
        assert!(lat.level_nodes(99).is_empty());
        assert_eq!(lat.max_joins(), 1);
    }

    #[test]
    fn postings_index_matches_membership() {
        let db = example2_db();
        let g = SchemaGraph::new(&db);
        let lat = Lattice::build(&db, &g, 2);
        for t in 0..2 {
            for copy in 0..=3u8 {
                let posted = lat.postings(t, copy);
                // Ascending, unique, and exactly the containing nodes.
                assert!(posted.windows(2).all(|w| w[0] < w[1]));
                for id in lat.all_nodes() {
                    let contains = lat.jnts(id).contains(TupleSet::new(t, copy));
                    assert_eq!(
                        posted.binary_search(&id).is_ok(),
                        contains,
                        "postings({t},{copy}) disagrees on node {id}"
                    );
                }
            }
        }
        // Out-of-range tuple sets have empty postings.
        assert!(lat.postings(99, 1).is_empty());
        assert!(lat.postings(0, 99).is_empty());
    }

    #[test]
    fn free_leaf_flag_matches_structure() {
        let db = example2_db();
        let g = SchemaGraph::new(&db);
        let lat = Lattice::build(&db, &g, 2);
        for id in lat.all_nodes() {
            let j = lat.jnts(id);
            let expect = j.node_count() > 1
                && j.leaves().iter().any(|&l| j.nodes()[l].is_free());
            assert_eq!(lat.has_free_leaf(id), expect, "node {id}");
        }
    }

    #[test]
    fn free_leaf_flag_agrees_with_is_mtn() {
        // For any retained total node, is_mtn == !has_free_leaf; exercise the
        // structural half on a real interpretation.
        use crate::binding::{map_keywords, KeywordQuery};
        use relengine::Value;
        use textindex::InvertedIndex;

        let mut db = example2_db();
        db.insert_values("R", vec![Value::text("alpha"), Value::Int(1)]).unwrap();
        db.insert_values("S", vec![Value::Int(1), Value::text("beta")]).unwrap();
        db.finalize();
        let g = SchemaGraph::new(&db);
        let lat = Lattice::build(&db, &g, 2);
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("alpha beta").unwrap();
        let m = map_keywords(&q, &idx);
        for interp in &m.interpretations {
            for id in lat.all_nodes() {
                let j = lat.jnts(id);
                if crate::mtn::is_retained(j, interp) && crate::mtn::is_total(j, interp) {
                    assert_eq!(is_mtn(j, interp), !lat.has_free_leaf(id));
                }
            }
        }
    }

    #[test]
    fn memory_footprint_is_nonzero_and_additive() {
        let db = example2_db();
        let g = SchemaGraph::new(&db);
        let lat = Lattice::build(&db, &g, 2);
        let fp = lat.memory_footprint();
        assert_eq!(fp.nodes, lat.node_count());
        assert!(fp.jnts_bytes > 0);
        assert!(fp.adjacency_bytes > 0);
        assert!(fp.postings_bytes > 0);
        assert_eq!(
            fp.total_bytes(),
            fp.jnts_bytes + fp.adjacency_bytes + fp.postings_bytes + fp.index_bytes
        );
    }
}
