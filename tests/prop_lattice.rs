//! Randomized tests for lattice generation (Algorithm 1).
//!
//! Structural invariants over lattices built from random-sized DBLife-style
//! schemas and the toy schema:
//!
//! * **closure under sub-networks**: removing any leaf of any lattice node
//!   yields a network that is itself in the lattice, linked as a child;
//! * **dedup soundness**: no two nodes share a canonical label;
//! * **link symmetry**: parents/children are mutual and one level apart;
//! * **copy discipline**: keyword copies never repeat within a network, and
//!   text-less relations only ever appear as free copies.
//!
//! Random schemas are drawn from a seeded [`SplitMix64`] stream (the
//! registry-free stand-in for proptest), so every run checks the same
//! schema population.

use datagen::product_database;
use datagen::rng::SplitMix64;
use kwdebug::canonical::canonical_label;
use kwdebug::lattice::Lattice;
use kwdebug::SchemaGraph;
use std::collections::{HashMap, HashSet};

fn check_lattice_invariants(lattice: &Lattice, graph: &SchemaGraph) {
    // Copy-set index: every node is listed exactly once, and every set's
    // lookup finds its own list.
    let mut listed: Vec<u32> = Vec::new();
    for (set, ids) in lattice.copy_sets() {
        assert_eq!(lattice.nodes_with_copy_set(set), ids, "lookup of {set:?}");
        listed.extend_from_slice(ids);
    }
    listed.sort_unstable();
    assert!(listed.iter().copied().eq(lattice.all_nodes()), "a node is missing or listed twice");

    // Dedup soundness + index for the closure check.
    let mut by_label: HashMap<String, u32> = HashMap::new();
    for id in lattice.all_nodes() {
        let label = canonical_label(lattice.jnts(id));
        assert!(
            by_label.insert(label, id).is_none(),
            "two lattice nodes share a canonical label"
        );
    }

    for id in lattice.all_nodes() {
        let jnts = lattice.jnts(id);
        assert!(jnts.validate(), "node {id} is not a tree");
        assert_eq!(jnts.node_count() as u32, lattice.level_of(id));

        // Copy discipline.
        let mut seen: HashSet<(usize, u8)> = HashSet::new();
        for ts in jnts.nodes() {
            if ts.copy > 0 {
                assert!(graph.has_text(ts.table), "keyword copy of text-less table");
                assert!(seen.insert((ts.table, ts.copy)), "repeated keyword copy");
            }
        }

        // Link symmetry.
        for &c in lattice.children(id) {
            assert_eq!(lattice.level_of(c) + 1, lattice.level_of(id));
            assert!(lattice.parents(c).contains(&id));
        }
        for &p in lattice.parents(id) {
            assert_eq!(lattice.level_of(p), lattice.level_of(id) + 1);
            assert!(lattice.children(p).contains(&id));
        }

        // The copy-set index lists the node under its own keyword copies.
        let mut set: Vec<u32> =
            jnts.nodes().iter().filter_map(|&ts| lattice.copy_slot(ts)).collect();
        set.sort_unstable();
        assert_eq!(set.len(), jnts.nodes().iter().filter(|ts| !ts.is_free()).count());
        assert!(
            lattice.nodes_with_copy_set(&set).binary_search(&id).is_ok(),
            "node {id} missing from its copy set {set:?}"
        );

        // Free-leaf flag agrees with structure.
        let expect_free_leaf = jnts.node_count() > 1
            && jnts.leaves().iter().any(|&l| jnts.nodes()[l].is_free());
        assert_eq!(lattice.has_free_leaf(id), expect_free_leaf, "node {id}");

        // Closure under leaf removal: every maximal sub-network exists and
        // is linked as a child.
        if jnts.node_count() > 1 {
            for leaf in jnts.leaves() {
                let sub = jnts.remove_leaf(leaf);
                let label = canonical_label(&sub);
                let child = by_label
                    .get(&label)
                    .unwrap_or_else(|| panic!("sub-network of node {id} missing from lattice"));
                assert!(
                    lattice.children(id).contains(child),
                    "sub-network present but not linked as child"
                );
            }
        }
    }
}

#[test]
fn toydb_lattice_invariants() {
    let db = product_database();
    let graph = SchemaGraph::new(&db);
    for max_joins in 1..=3 {
        let lattice = Lattice::build(&db, &graph, max_joins);
        check_lattice_invariants(&lattice, &graph);
    }
}

/// Random schema: `n_ent` text entities, key-pair relationships wiring
/// random entity pairs.
#[test]
fn random_schema_lattice_invariants() {
    let mut rng = SplitMix64::seed_from_u64(0x1A01);
    for _case in 0..12 {
        let n_ent = rng.gen_range(1..4usize);
        let n_rel = rng.gen_range(1..5usize);
        let wiring: Vec<(usize, usize)> = (0..n_rel)
            .map(|_| (rng.gen_range(0..n_ent), rng.gen_range(0..n_ent)))
            .collect();
        let max_joins = rng.gen_range(1..4usize);

        let mut b = relengine::DatabaseBuilder::new();
        for e in 0..n_ent {
            b.table(&format!("ent{e}"))
                .column("id", relengine::DataType::Int)
                .column("name", relengine::DataType::Text)
                .primary_key("id");
        }
        for (ri, (a, z)) in wiring.iter().enumerate() {
            let name = format!("rel{ri}");
            b.table(&name)
                .column("a_id", relengine::DataType::Int)
                .column("b_id", relengine::DataType::Int);
            b.foreign_key(&name, "a_id", &format!("ent{a}"), "id").expect("declared");
            b.foreign_key(&name, "b_id", &format!("ent{z}"), "id").expect("declared");
        }
        let db = b.finish().expect("schema builds");
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, max_joins);
        check_lattice_invariants(&lattice, &graph);
    }
}
