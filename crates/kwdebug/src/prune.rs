//! Phase 1 + Phase 2: keyword-based pruning and the per-query sub-lattice.
//!
//! [`PrunedLattice`] is the runtime view of the offline lattice for one
//! interpretation of one keyword query: only the MTNs and their descendants
//! survive, re-indexed densely in level order, with materialized
//! ancestor/descendant closures. Everything Phase 3 needs — traversal orders,
//! R1/R2 propagation, MPAN extraction, SBH scoring — runs on this small
//! structure, matching the paper's observation that keyword pruning removes
//! ~98% of lattice nodes.
//!
//! # Substrate (DESIGN.md §9)
//!
//! Both phases run on the compact arena indexes of [`crate::lattice`] instead
//! of scanning every node's network:
//!
//! * **Phase 1** is a handful of lookups in the exact keyword-copy-set
//!   index. A node is retained iff its set of keyword copies is a subset of
//!   the interpretation's bound set `B` (it holds no unbound copy), and total
//!   iff the set equals `B` (interpretations bind distinct copies per
//!   keyword). So the totals are one lookup of `B`, and `retained_phase1` is
//!   the sum of the list lengths over the subsets of `B` no larger than the
//!   widest set in the lattice ([`crate::lattice::Lattice::copy_set_width`],
//!   `L`): at most `Σ_{i≤L} C(k, i)` lookups, whatever `k`. A total node is
//!   an MTN iff its precomputed [`crate::lattice::Lattice::has_free_leaf`]
//!   bit is clear. The 98% of the lattice that Phase 1 prunes is never
//!   touched.
//! * **Phase 2** walks down from the MTNs over the CSR children arrays one
//!   level at a time: a level's nodes are its MTNs and the children of the
//!   level above, sorted and deduplicated. The kept ids come out as the
//!   sorted `nodes` array, dense ids are binary searches in it, and the work
//!   is the kept sub-lattice's edges — no buffer is sized by the offline
//!   lattice.
//! * The descendant closure is a per-node bitset over dense indices
//!   (`word_count` `u64`s per node), computed bottom-up by OR-ing child rows;
//!   the `desc_plus`/`asc_plus` slices are packed once from those rows, and
//!   [`PrunedLattice::is_desc_or_self`] is a single bit test.
//!
//! Transient state lives in a [`crate::workspace::QueryWorkspace`], all of
//! it output-sized. [`PrunedLattice::build`] takes a fresh one;
//! [`PrunedLattice::build_with`] reuses a caller's, which leaves only the
//! dense output arrays of the `PrunedLattice` itself to allocate per query.

use crate::binding::Interpretation;
use crate::jnts::Jnts;
use crate::lattice::{Lattice, NodeId};
use crate::workspace::QueryWorkspace;

/// Label of the Phase 1–2 substrate implementation in effect. Benches record
/// it in their variant field so before/after rows in `results/` stay
/// distinguishable across substrate changes.
pub const SUBSTRATE: &str = "output-sized-prune";

/// Phase-1/2 statistics for one interpretation (reproduces §3.3 / Figure 10).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Nodes in the full offline lattice.
    pub lattice_nodes: usize,
    /// Nodes surviving Phase 1 (keyword-based pruning).
    pub retained_phase1: usize,
    /// Total nodes among the retained ones.
    pub total_nodes: usize,
    /// Number of MTNs.
    pub mtn_count: usize,
    /// Nodes in the final sub-lattice (MTNs plus descendants).
    pub pruned_nodes: usize,
    /// Σ over MTNs of their descendant count (with cross-MTN duplicates) —
    /// the `N` of Figure 13's reuse percentage.
    pub mtn_descendants_total: usize,
    /// Distinct descendants of all MTNs — the `N_u` of Figure 13.
    pub mtn_descendants_unique: usize,
}

impl PruneStats {
    /// Figure 13's percentage of reuse: `100 * (1 - N_u / N)`.
    pub fn reuse_percentage(&self) -> f64 {
        if self.mtn_descendants_total == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.mtn_descendants_unique as f64 / self.mtn_descendants_total as f64)
        }
    }
}

/// The per-interpretation sub-lattice: MTNs and their descendants, densely
/// re-indexed in ascending level order (so iterating `0..len` is a bottom-up
/// sweep and the reverse is top-down).
///
/// Adjacency and both closures are CSR-packed slices over the dense indices;
/// the descendant closure is additionally kept as per-node bitsets, making
/// [`PrunedLattice::is_desc_or_self`] O(1). All fields are plain `Vec`s, and
/// a built lattice is never mutated.
#[derive(Debug, Clone)]
pub struct PrunedLattice {
    /// Dense index → offline lattice node id (ascending, level-ordered).
    nodes: Vec<NodeId>,
    /// Level of each dense node.
    levels: Vec<u32>,
    /// CSR offsets/payload: children (dense) of each dense node, ascending.
    child_off: Vec<usize>,
    child_items: Vec<usize>,
    /// CSR offsets/payload: parents (dense, within the pruned set), ascending.
    parent_off: Vec<usize>,
    parent_items: Vec<usize>,
    /// `u64` words per descendant-closure row.
    word_count: usize,
    /// Descendant closure incl. self as bitsets: row `i` is
    /// `desc_words[i*word_count..(i+1)*word_count]` over dense indices.
    desc_words: Vec<u64>,
    /// CSR offsets/payload: descendant closure incl. self, ascending.
    desc_off: Vec<usize>,
    desc_items: Vec<usize>,
    /// CSR offsets/payload: ancestor closure incl. self, ascending.
    asc_off: Vec<usize>,
    asc_items: Vec<usize>,
    /// Dense indices of the MTNs, ascending.
    mtns: Vec<usize>,
    stats: PruneStats,
    /// Copy-set index entries read during Phase 1: one per lookup plus one
    /// per total node id (the work the index does in place of a full
    /// lattice scan).
    phase1_nodes_touched: u64,
}

/// Calls `f` on `subset` extended by every subset of `bound[from..]`, up to
/// `max_len` slots in all, each exactly once and in ascending slot order
/// (`bound` is ascending). `subset` is scratch, left as it was found.
fn for_each_subset(
    bound: &[u32],
    from: usize,
    max_len: usize,
    subset: &mut Vec<u32>,
    f: &mut impl FnMut(&[u32]),
) {
    f(subset);
    if subset.len() == max_len {
        return;
    }
    for i in from..bound.len() {
        subset.push(bound[i]);
        for_each_subset(bound, i + 1, max_len, subset, f);
        subset.pop();
    }
}

fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

impl PrunedLattice {
    /// Runs Phases 1 and 2 for one interpretation with a fresh scratch
    /// workspace. Its buffers are output-sized, so this costs a few small
    /// allocations; a caller building many sub-lattices back to back can
    /// hold a [`crate::workspace::QueryWorkspace`] and use
    /// [`PrunedLattice::build_with`]. The result is identical either way.
    pub fn build(lattice: &Lattice, interp: &Interpretation) -> PrunedLattice {
        PrunedLattice::build_with(lattice, interp, &mut QueryWorkspace::new())
    }

    /// Runs Phases 1 and 2 for one interpretation, reusing `ws` for all
    /// transient state.
    pub fn build_with(
        lattice: &Lattice,
        interp: &Interpretation,
        ws: &mut QueryWorkspace,
    ) -> PrunedLattice {
        let mut stats =
            PruneStats { lattice_nodes: lattice.node_count(), ..PruneStats::default() };
        let mut touched: u64 = 0;

        // Phase 1: B = the bound copies, as sorted index slots. A bound copy
        // the lattice cannot hold has no slot; no node is then total, but
        // the nodes within the rest of B are still retained.
        let k = interp.keyword_count();
        ws.bound.clear();
        ws.bound.extend((0..k).filter_map(|i| lattice.copy_slot(interp.tuple_set_of(i))));
        ws.bound.sort_unstable();
        let mut totals: &[NodeId] = &[];
        let mut lookup = |set: &[u32]| {
            let ids = lattice.nodes_with_copy_set(set);
            touched += 1;
            stats.retained_phase1 += ids.len();
            if set.len() == k {
                totals = ids;
            }
        };
        ws.subset.clear();
        for_each_subset(&ws.bound, 0, lattice.copy_set_width(), &mut ws.subset, &mut lookup);
        touched += totals.len() as u64;
        stats.total_nodes = totals.len();
        // MTNs: the (ascending) totals whose precomputed free-leaf bit is
        // clear.
        let mtn_ids = || totals.iter().copied().filter(|&id| !lattice.has_free_leaf(id));
        stats.mtn_count = mtn_ids().count();

        // Phase 2: the MTNs and their descendants, one level at a time from
        // the top. A level's nodes are its MTNs and the children of the level
        // above, sorted and deduplicated; every child is one level down, and
        // ids are level-ordered, so the blocks, each pushed descending, leave
        // `kept` descending. The work is the kept sub-lattice's edges;
        // nothing is lattice-sized.
        ws.kept.clear();
        ws.frontier.clear();
        let mut mtns_down = mtn_ids().rev().peekable();
        let mut level = mtns_down.peek().map_or(0, |&id| lattice.level_of(id));
        while level > 0 {
            while let Some(id) = mtns_down.next_if(|&id| lattice.level_of(id) == level) {
                ws.frontier.push(id);
            }
            ws.frontier.sort_unstable();
            ws.frontier.dedup();
            ws.kept.extend(ws.frontier.iter().rev());
            ws.next.clear();
            for &id in &ws.frontier {
                ws.next.extend(lattice.children(id));
            }
            std::mem::swap(&mut ws.frontier, &mut ws.next);
            level -= 1;
        }
        // Dense re-index in ascending id (= level) order.
        let nodes: Vec<NodeId> = ws.kept.iter().rev().copied().collect();
        let len = nodes.len();
        stats.pruned_nodes = len;
        let dense = |id: NodeId| nodes.binary_search(&id).expect("kept set is down-closed");
        let levels: Vec<u32> = nodes.iter().map(|&id| lattice.level_of(id)).collect();

        // Children CSR (the kept set is down-closed, so every child is kept;
        // lattice child lists are ascending and `dense` is monotone, so
        // dense children stay ascending), parents inverted.
        let mut child_off = Vec::with_capacity(len + 1);
        child_off.push(0usize);
        let mut child_items: Vec<usize> = Vec::new();
        let mut parent_counts = vec![0usize; len];
        for &id in &nodes {
            for &c in lattice.children(id) {
                let ci = dense(c);
                child_items.push(ci);
                parent_counts[ci] += 1;
            }
            child_off.push(child_items.len());
        }
        let mut parent_off = Vec::with_capacity(len + 1);
        parent_off.push(0usize);
        for &c in &parent_counts {
            parent_off.push(parent_off.last().unwrap() + c);
        }
        let mut parent_items = vec![0usize; *parent_off.last().unwrap()];
        let mut parent_next = parent_off[..len].to_vec();
        for i in 0..len {
            for &ci in &child_items[child_off[i]..child_off[i + 1]] {
                parent_items[parent_next[ci]] = i;
                parent_next[ci] += 1;
            }
        }

        // Descendant closure bottom-up as bitset rows: children have smaller
        // dense index (strictly lower level), so row `i` only ORs finished
        // rows from the prefix.
        let word_count = len.div_ceil(64);
        let mut desc_words = vec![0u64; len * word_count];
        for i in 0..len {
            let (lower, rest) = desc_words.split_at_mut(i * word_count);
            let row = &mut rest[..word_count];
            row[i / 64] |= 1u64 << (i % 64);
            for &c in &child_items[child_off[i]..child_off[i + 1]] {
                let src = &lower[c * word_count..(c + 1) * word_count];
                for (d, s) in row.iter_mut().zip(src) {
                    *d |= *s;
                }
            }
        }

        // Pack the closure slices (ascending by construction of the bit
        // scan); ancestors by inversion, which preserves ascending order.
        let closure_len = popcount(&desc_words);
        let mut desc_off = Vec::with_capacity(len + 1);
        desc_off.push(0usize);
        let mut desc_items: Vec<usize> = Vec::with_capacity(closure_len);
        let mut asc_counts = vec![0usize; len];
        for i in 0..len {
            for (wi, &word) in
                desc_words[i * word_count..(i + 1) * word_count].iter().enumerate()
            {
                let mut w = word;
                while w != 0 {
                    let d = wi * 64 + w.trailing_zeros() as usize;
                    desc_items.push(d);
                    asc_counts[d] += 1;
                    w &= w - 1;
                }
            }
            desc_off.push(desc_items.len());
        }
        let mut asc_off = Vec::with_capacity(len + 1);
        asc_off.push(0usize);
        for &c in &asc_counts {
            asc_off.push(asc_off.last().unwrap() + c);
        }
        let mut asc_items = vec![0usize; closure_len];
        let mut asc_next = asc_off[..len].to_vec();
        for i in 0..len {
            for &d in &desc_items[desc_off[i]..desc_off[i + 1]] {
                asc_items[asc_next[d]] = i;
                asc_next[d] += 1;
            }
        }

        // MTNs in dense space (ascending: totals are ascending and the dense
        // map is monotone).
        let mtns: Vec<usize> = mtn_ids().map(dense).collect();
        debug_assert!(mtns.windows(2).all(|w| w[0] < w[1]));

        for &m in &mtns {
            let row = &desc_words[m * word_count..(m + 1) * word_count];
            stats.mtn_descendants_total += popcount(row) - 1;
        }
        // Minimality means no MTN descends from another, so each MTN's self
        // bit in the union was contributed only by its own row; clearing the
        // self bits leaves exactly the union of proper-descendant sets.
        #[cfg(debug_assertions)]
        for &m1 in &mtns {
            for &m2 in &mtns {
                if m1 != m2 {
                    debug_assert!(
                        desc_words[m1 * word_count + m2 / 64] & (1u64 << (m2 % 64)) == 0,
                        "MTN {m2} descends from MTN {m1}"
                    );
                }
            }
        }
        ws.scratch.clear();
        ws.scratch.resize(word_count, 0);
        for &m in &mtns {
            for (dst, s) in
                ws.scratch.iter_mut().zip(&desc_words[m * word_count..(m + 1) * word_count])
            {
                *dst |= *s;
            }
        }
        for &m in &mtns {
            ws.scratch[m / 64] &= !(1u64 << (m % 64));
        }
        stats.mtn_descendants_unique = popcount(&ws.scratch);

        PrunedLattice {
            nodes,
            levels,
            child_off,
            child_items,
            parent_off,
            parent_items,
            word_count,
            desc_words,
            desc_off,
            desc_items,
            asc_off,
            asc_items,
            mtns,
            stats,
            phase1_nodes_touched: touched,
        }
    }

    /// Number of nodes in the sub-lattice.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the sub-lattice is empty (no MTNs exist).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The offline lattice node id of dense node `i`.
    pub fn lattice_id(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// The network of dense node `i`.
    pub fn jnts<'a>(&self, lattice: &'a Lattice, i: usize) -> &'a Jnts {
        lattice.jnts(self.nodes[i])
    }

    /// Level of dense node `i`.
    pub fn level(&self, i: usize) -> u32 {
        self.levels[i]
    }

    /// Children (dense) of node `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.child_items[self.child_off[i]..self.child_off[i + 1]]
    }

    /// Parents (dense, within the pruned set) of node `i`.
    pub fn parents(&self, i: usize) -> &[usize] {
        &self.parent_items[self.parent_off[i]..self.parent_off[i + 1]]
    }

    /// Descendants of `i` including `i`, ascending.
    pub fn desc_plus(&self, i: usize) -> &[usize] {
        &self.desc_items[self.desc_off[i]..self.desc_off[i + 1]]
    }

    /// Ancestors of `i` (within the pruned set) including `i`, ascending.
    pub fn asc_plus(&self, i: usize) -> &[usize] {
        &self.asc_items[self.asc_off[i]..self.asc_off[i + 1]]
    }

    /// Whether `d` is a descendant of `a` (or equal). A single bit test on
    /// the closure row of `a`.
    pub fn is_desc_or_self(&self, d: usize, a: usize) -> bool {
        self.desc_words[a * self.word_count + d / 64] & (1u64 << (d % 64)) != 0
    }

    /// Dense indices of the MTNs, ascending (= by level).
    pub fn mtns(&self) -> &[usize] {
        &self.mtns
    }

    /// Phase-1/2 statistics.
    pub fn stats(&self) -> &PruneStats {
        &self.stats
    }

    /// Copy-set index entries read by Phase 1 for this build: one per
    /// lookup plus one per total node id (the `phase1_nodes_touched`
    /// metric; compare against [`PruneStats::lattice_nodes`], the cost of a
    /// full scan).
    pub fn phase1_nodes_touched(&self) -> u64 {
        self.phase1_nodes_touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{map_keywords, KeywordQuery};
    use crate::schema_graph::SchemaGraph;
    use relengine::{DataType, DatabaseBuilder, Database, Value};
    use textindex::InvertedIndex;

    /// ptype(candle) <- item -> color(red): the paper's "red candle" example.
    fn db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("ptype")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .primary_key("id");
        b.table("item")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .column("ptype_id", DataType::Int)
            .column("color_id", DataType::Int)
            .primary_key("id");
        b.table("color")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .primary_key("id");
        b.foreign_key("item", "ptype_id", "ptype", "id").unwrap();
        b.foreign_key("item", "color_id", "color", "id").unwrap();
        let mut db = b.finish().unwrap();
        db.insert_values("ptype", vec![Value::Int(1), Value::text("candle")]).unwrap();
        db.insert_values("color", vec![Value::Int(1), Value::text("red")]).unwrap();
        db.insert_values(
            "item",
            vec![Value::Int(1), Value::text("plain holder"), Value::Int(1), Value::Int(1)],
        )
        .unwrap();
        db.finalize();
        db
    }

    fn pruned(max_joins: usize) -> (Lattice, PrunedLattice) {
        let db = db();
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, max_joins);
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("red candle").unwrap();
        let m = map_keywords(&q, &idx);
        assert_eq!(m.interpretations.len(), 1);
        let p = PrunedLattice::build(&lattice, &m.interpretations[0]);
        (lattice, p)
    }

    #[test]
    fn red_candle_has_single_mtn_at_level3() {
        let (lattice, p) = pruned(2);
        assert_eq!(p.mtns().len(), 1);
        let m = p.mtns()[0];
        assert_eq!(p.level(m), 3);
        let jnts = p.jnts(&lattice, m);
        // P1 - I0 - C1 (ptype copy 1, free item, color copy 1).
        let mut labels: Vec<(usize, u8)> =
            jnts.nodes().iter().map(|ts| (ts.table, ts.copy)).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec![(0, 1), (1, 0), (2, 1)]);
    }

    #[test]
    fn pruning_reduces_node_count() {
        let (lattice, p) = pruned(2);
        assert!(p.stats().retained_phase1 < lattice.node_count());
        assert!(p.stats().pruned_nodes <= p.stats().retained_phase1);
        assert_eq!(p.stats().lattice_nodes, lattice.node_count());
        assert_eq!(p.len(), p.stats().pruned_nodes);
    }

    #[test]
    fn closures_are_consistent() {
        let (_, p) = pruned(2);
        for i in 0..p.len() {
            assert!(p.desc_plus(i).contains(&i));
            assert!(p.asc_plus(i).contains(&i));
            for &c in p.children(i) {
                assert!(c < i || p.level(c) < p.level(i));
                assert!(p.is_desc_or_self(c, i));
            }
            for &d in p.desc_plus(i) {
                assert!(p.asc_plus(d).contains(&i));
            }
        }
    }

    #[test]
    fn mtn_descendants_stats() {
        let (_, p) = pruned(2);
        let s = p.stats();
        assert_eq!(s.mtn_count, 1);
        // Single MTN: unique == total, zero reuse.
        assert_eq!(s.mtn_descendants_total, s.mtn_descendants_unique);
        assert_eq!(s.reuse_percentage(), 0.0);
    }

    #[test]
    fn dense_order_is_level_order() {
        let (_, p) = pruned(2);
        for i in 1..p.len() {
            assert!(p.level(i - 1) <= p.level(i));
        }
    }

    #[test]
    fn empty_when_no_mtn() {
        // One keyword that only matches ptype, but lattice limited to 0 joins:
        // MTN exists at level 1, so instead query two keywords in tables that
        // cannot connect within the join budget.
        let db = db();
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, 0); // single-table queries only
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("red candle").unwrap();
        let m = map_keywords(&q, &idx);
        let p = PrunedLattice::build(&lattice, &m.interpretations[0]);
        // "red" and "candle" live in different tables: no single-table total node.
        assert!(p.is_empty());
        assert_eq!(p.stats().mtn_count, 0);
    }

    #[test]
    fn reuse_when_multiple_mtns_share_descendants() {
        // Query "red" alone at maxJoins 2: MTN is C1 itself (level 1), the
        // only MTN; descendants empty.
        let db = db();
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, 2);
        let idx = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("red").unwrap();
        let m = map_keywords(&q, &idx);
        let p = PrunedLattice::build(&lattice, &m.interpretations[0]);
        assert_eq!(p.mtns().len(), 1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.stats().mtn_descendants_total, 0);
    }

    #[test]
    fn phase1_touches_fewer_nodes_than_a_full_scan_would() {
        let (lattice, p) = pruned(2);
        assert!(p.phase1_nodes_touched() > 0);
        // Two bound copies under a width-3 index: 4 lookups, plus the one
        // total node's id.
        assert_eq!(p.phase1_nodes_touched(), 4 + p.stats().total_nodes as u64);
        assert!(
            p.phase1_nodes_touched() < lattice.node_count() as u64,
            "touched {} of {} nodes",
            p.phase1_nodes_touched(),
            lattice.node_count()
        );
    }

    #[test]
    fn reused_workspace_builds_identically() {
        let db = db();
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, 2);
        let idx = InvertedIndex::build(&db);
        let mut ws = QueryWorkspace::new();
        let mut builds = 0u64;
        // Alternate queries of different shapes through one workspace and
        // compare each against a fresh build.
        for q in ["red candle", "red", "candle", "red candle"] {
            let m = map_keywords(&KeywordQuery::parse(q).unwrap(), &idx);
            for interp in &m.interpretations {
                let fresh = PrunedLattice::build(&lattice, interp);
                let reused = PrunedLattice::build_with(&lattice, interp, &mut ws);
                builds += 1;
                assert_eq!(fresh.stats(), reused.stats(), "{q}");
                assert_eq!(fresh.mtns(), reused.mtns(), "{q}");
                assert_eq!(fresh.len(), reused.len(), "{q}");
                assert_eq!(fresh.phase1_nodes_touched(), reused.phase1_nodes_touched());
                for i in 0..fresh.len() {
                    assert_eq!(fresh.lattice_id(i), reused.lattice_id(i));
                    assert_eq!(fresh.children(i), reused.children(i));
                    assert_eq!(fresh.parents(i), reused.parents(i));
                    assert_eq!(fresh.desc_plus(i), reused.desc_plus(i));
                    assert_eq!(fresh.asc_plus(i), reused.asc_plus(i));
                }
            }
        }
        assert!(builds >= 4);
    }
}
