//! Reusable per-query scratch for Phase 1–2 (DESIGN.md §9).
//!
//! Building a [`crate::prune::PrunedLattice`] needs a few transient
//! buffers: the Phase-1 bound-copy slots and the subset being looked up in
//! the copy-set index, the Phase-2 level frontiers and the kept node ids,
//! and a bitset over the kept nodes for the MTN-descendant stats. Every one of
//! them is sized by the build's output, never by the offline lattice, so a
//! fresh [`QueryWorkspace`] costs a handful of small allocations; a caller
//! that builds many sub-lattices back to back can hold one and pass it to
//! [`crate::prune::PrunedLattice::build_with`] to skip even those.
//!
//! All buffers are length-reset, never shrunk, and every build clears
//! each one before reading it, so a reused workspace carries no state from
//! one build to the next.

use crate::lattice::NodeId;

/// Reusable scratch buffers for one in-flight Phase 1–2 build.
#[derive(Debug, Default)]
pub struct QueryWorkspace {
    /// Phase 1: the interpretation's bound copies as sorted index slots.
    pub(crate) bound: Vec<u32>,
    /// Phase 1: the subset of `bound` being looked up.
    pub(crate) subset: Vec<u32>,
    /// Phase 2: the lattice ids of the level being visited.
    pub(crate) frontier: Vec<NodeId>,
    /// Phase 2: the children of `frontier`, one level down.
    pub(crate) next: Vec<NodeId>,
    /// Phase 2: the kept lattice ids, descending.
    pub(crate) kept: Vec<NodeId>,
    /// Bitset over dense ids: union scratch for the MTN-descendant stats.
    pub(crate) scratch: Vec<u64>,
}

impl QueryWorkspace {
    /// A fresh, empty workspace. Buffers grow on first use and are then
    /// reused by every subsequent [`crate::prune::PrunedLattice::build_with`].
    pub fn new() -> QueryWorkspace {
        QueryWorkspace::default()
    }
}
