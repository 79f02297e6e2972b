//! Lattice persistence: save the Phase-0 artifact, skip the rebuild.
//!
//! The offline lattice is the expensive part of setup — minutes at level 7 —
//! and it depends only on the schema graph and `maxJoins`, not on the data.
//! This module serializes a [`Lattice`] to a compact, versioned binary format
//! (hand-rolled little-endian writer; no external dependencies) so a
//! production deployment builds it once and reloads it on every restart.
//!
//! Format (`KWSLAT02`): header (magic, `max_joins`, level count, per-level
//! node counts), then every node in level order — vertex list, edge list,
//! child links ascending (parent links, the copy-set index and the free-leaf
//! flags are reconstructed by `Lattice::from_parts`, which keeps the file
//! small and version-stable across index changes). Reading validates
//! structure (tree-ness, level consistency, link ranges and order) and fails
//! with a typed error rather than panicking on corrupt input.
//!
//! Version 1 files (`KWSLAT01`, written before the compact-arena substrate of
//! DESIGN.md §9) are rejected with [`LatticeIoError::UnsupportedVersion`] —
//! rebuild and re-save the lattice with the current binary.

use std::io::{self, Read, Write};

use crate::jnts::{Jnts, JntsEdge, TupleSet};
use crate::lattice::{Lattice, LevelStats, NodeId};

const MAGIC: &[u8; 8] = b"KWSLAT02";
const MAGIC_V1: &[u8; 8] = b"KWSLAT01";

/// Errors raised while reading a serialized lattice.
#[derive(Debug)]
pub enum LatticeIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a lattice file at all.
    BadMagic,
    /// The input is a lattice file of an older, no longer supported format
    /// version (carries the version string found).
    UnsupportedVersion(String),
    /// Structurally invalid content (with a description).
    Corrupt(String),
}

impl std::fmt::Display for LatticeIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatticeIoError::Io(e) => write!(f, "i/o error: {e}"),
            LatticeIoError::BadMagic => write!(f, "not a KWSLAT02 lattice file"),
            LatticeIoError::UnsupportedVersion(v) => write!(
                f,
                "lattice file version {v} is no longer supported (current is KWSLAT02); \
                 rebuild the lattice and save it again"
            ),
            LatticeIoError::Corrupt(msg) => write!(f, "corrupt lattice file: {msg}"),
        }
    }
}

impl std::error::Error for LatticeIoError {}

impl From<io::Error> for LatticeIoError {
    fn from(e: io::Error) -> Self {
        LatticeIoError::Io(e)
    }
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> Result<u64, LatticeIoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32(r: &mut impl Read) -> Result<u32, LatticeIoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u8(r: &mut impl Read) -> Result<u8, LatticeIoError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Serializes a lattice to `w`.
pub fn save_lattice(lattice: &Lattice, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u64(w, lattice.max_joins() as u64)?;
    write_u64(w, lattice.level_count() as u64)?;
    for level in 1..=lattice.level_count() {
        write_u64(w, lattice.level_nodes(level).len() as u64)?;
    }
    for stats in lattice.stats() {
        write_u64(w, stats.generated as u64)?;
        write_u64(w, stats.duplicates as u64)?;
        write_u64(w, stats.kept as u64)?;
        write_u64(w, stats.elapsed.as_nanos() as u64)?;
    }
    for id in lattice.all_nodes() {
        let jnts = lattice.jnts(id);
        w.write_all(&[jnts.node_count() as u8])?;
        for ts in jnts.nodes() {
            write_u32(w, ts.table as u32)?;
            w.write_all(&[ts.copy])?;
        }
        for e in jnts.edges() {
            w.write_all(&[e.a, e.b, u8::from(e.a_is_from)])?;
            write_u32(w, e.fk as u32)?;
        }
        let children = lattice.children(id);
        write_u32(w, children.len() as u32)?;
        for &c in children {
            write_u32(w, c)?;
        }
    }
    Ok(())
}

/// Deserializes a lattice from `r`, validating structure. The derived arena
/// indexes (parents CSR, keyword-copy-set index, free-leaf flags) are rebuilt by
/// `Lattice::from_parts` from the validated networks and child links.
pub fn load_lattice(r: &mut impl Read) -> Result<Lattice, LatticeIoError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        if &magic == MAGIC_V1 {
            return Err(LatticeIoError::UnsupportedVersion(
                String::from_utf8_lossy(MAGIC_V1).into_owned(),
            ));
        }
        return Err(LatticeIoError::BadMagic);
    }
    let max_joins = read_u64(r)? as usize;
    let level_count = read_u64(r)? as usize;
    // Guard against absurd sizes before allocating: a corrupt header or node
    // section must produce a typed error, never a multi-gigabyte allocation
    // in `Lattice::from_parts` (which sizes its index slots from the
    // largest table id and `max_joins`).
    const MAX_NODES: u64 = 1 << 28;
    const MAX_LEVELS: usize = 64;
    const MAX_TABLES: usize = 1 << 12;
    if max_joins >= MAX_LEVELS {
        return Err(LatticeIoError::Corrupt(format!(
            "maxJoins {max_joins} exceeds sanity bound"
        )));
    }
    if level_count != max_joins + 1 {
        return Err(LatticeIoError::Corrupt(format!(
            "level count {level_count} does not match maxJoins {max_joins}"
        )));
    }
    let mut per_level = Vec::with_capacity(level_count);
    let mut total: u64 = 0;
    for _ in 0..level_count {
        let n = read_u64(r)?;
        total = total.saturating_add(n);
        if total > MAX_NODES {
            return Err(LatticeIoError::Corrupt("node count exceeds sanity bound".into()));
        }
        per_level.push(n as usize);
    }
    let mut stats = Vec::with_capacity(level_count);
    for _ in 0..level_count {
        let generated = read_u64(r)? as usize;
        let duplicates = read_u64(r)? as usize;
        let kept = read_u64(r)? as usize;
        let elapsed = std::time::Duration::from_nanos(read_u64(r)?);
        stats.push(LevelStats { generated, duplicates, kept, elapsed });
    }

    let total = total as usize;
    let mut jnts: Vec<Jnts> = Vec::with_capacity(total);
    let mut children: Vec<Vec<NodeId>> = Vec::with_capacity(total);
    let mut next_id: NodeId = 0;
    let mut prev_level_first: NodeId = 0;
    for (li, &count) in per_level.iter().enumerate() {
        let level = (li + 1) as u32;
        let level_first = next_id;
        for _ in 0..count {
            let n_vertices = read_u8(r)? as usize;
            if n_vertices != li + 1 {
                return Err(LatticeIoError::Corrupt(format!(
                    "node at level {level} has {n_vertices} vertices"
                )));
            }
            let mut vertices = Vec::with_capacity(n_vertices);
            for _ in 0..n_vertices {
                let table = read_u32(r)? as usize;
                if table >= MAX_TABLES {
                    return Err(LatticeIoError::Corrupt(format!(
                        "tuple-set table index {table} exceeds sanity bound"
                    )));
                }
                let copy = read_u8(r)?;
                if copy as usize >= max_joins + 2 {
                    return Err(LatticeIoError::Corrupt(format!(
                        "tuple-set copy {copy} outside the 0..=maxJoins+1 range"
                    )));
                }
                vertices.push(TupleSet::new(table, copy));
            }
            let mut edges = Vec::with_capacity(n_vertices.saturating_sub(1));
            for _ in 0..n_vertices.saturating_sub(1) {
                let a = read_u8(r)?;
                let b = read_u8(r)?;
                let a_is_from = match read_u8(r)? {
                    0 => false,
                    1 => true,
                    v => {
                        return Err(LatticeIoError::Corrupt(format!(
                            "invalid edge direction byte {v}"
                        )))
                    }
                };
                let fk = read_u32(r)? as usize;
                if a as usize >= n_vertices || b as usize >= n_vertices {
                    return Err(LatticeIoError::Corrupt("edge endpoint out of range".into()));
                }
                edges.push(JntsEdge { a, b, fk, a_is_from });
            }
            let network = Jnts::from_parts(vertices, edges)
                .ok_or_else(|| LatticeIoError::Corrupt("node is not a tree".into()))?;
            let n_children = read_u32(r)? as usize;
            if n_children > total {
                return Err(LatticeIoError::Corrupt("child count exceeds node count".into()));
            }
            let mut child_ids = Vec::with_capacity(n_children);
            for _ in 0..n_children {
                let c = read_u32(r)?;
                if c < prev_level_first || c >= level_first {
                    return Err(LatticeIoError::Corrupt(
                        "child link points outside the previous level".into(),
                    ));
                }
                if child_ids.last().is_some_and(|&last| c <= last) {
                    return Err(LatticeIoError::Corrupt(
                        "child links must be ascending and unique".into(),
                    ));
                }
                child_ids.push(c);
            }
            jnts.push(network);
            children.push(child_ids);
            next_id += 1;
        }
        prev_level_first = level_first;
    }

    Ok(Lattice::from_parts(jnts, children, per_level, max_joins, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_graph::SchemaGraph;
    use datagen_free::toy_store;
    use relengine::Database;

    /// A minimal store schema (kwdebug cannot depend on datagen — dev-deps
    /// don't apply to unit tests of this crate's lib target... they do, but
    /// keep this self-contained anyway).
    mod datagen_free {
        use relengine::{DataType, Database, DatabaseBuilder};

        pub fn toy_store() -> Database {
            let mut b = DatabaseBuilder::new();
            b.table("ptype").column("id", DataType::Int).column("name", DataType::Text)
                .primary_key("id");
            b.table("item")
                .column("id", DataType::Int)
                .column("name", DataType::Text)
                .column("ptype_id", DataType::Int)
                .primary_key("id");
            b.foreign_key("item", "ptype_id", "ptype", "id").expect("static");
            b.finish().expect("static")
        }
    }

    fn lattice_of(db: &Database, max_joins: usize) -> Lattice {
        let graph = SchemaGraph::new(db);
        Lattice::build(db, &graph, max_joins)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let db = toy_store();
        let original = lattice_of(&db, 3);
        let mut buf = Vec::new();
        save_lattice(&original, &mut buf).expect("writes");
        let loaded = load_lattice(&mut buf.as_slice()).expect("reads");

        assert_eq!(loaded.node_count(), original.node_count());
        assert_eq!(loaded.max_joins(), original.max_joins());
        assert_eq!(loaded.level_count(), original.level_count());
        assert_eq!(loaded.table_count(), original.table_count());
        for id in original.all_nodes() {
            assert_eq!(original.jnts(id), loaded.jnts(id), "node {id}");
            assert_eq!(original.level_of(id), loaded.level_of(id));
            assert_eq!(original.children(id), loaded.children(id));
            assert_eq!(original.parents(id), loaded.parents(id));
            assert_eq!(original.has_free_leaf(id), loaded.has_free_leaf(id));
        }
        // Derived copy-set index is rebuilt identically.
        assert_eq!(loaded.copy_set_width(), original.copy_set_width());
        assert!(original.copy_sets().eq(loaded.copy_sets()), "copy-set index differs");
        for (sa, sb) in original.stats().iter().zip(loaded.stats()) {
            assert_eq!(sa.generated, sb.generated);
            assert_eq!(sa.duplicates, sb.duplicates);
            assert_eq!(sa.kept, sb.kept);
        }
    }

    #[test]
    fn loaded_lattice_answers_queries_identically() {
        use crate::binding::{map_keywords, KeywordQuery};
        use crate::oracle::AlivenessOracle;
        use crate::prune::PrunedLattice;
        use crate::traversal::{self, StrategyKind};
        use relengine::Value;
        use textindex::InvertedIndex;

        let mut db = toy_store();
        db.insert_values("ptype", vec![Value::Int(1), Value::text("candle")]).expect("row");
        db.insert_values("item", vec![Value::Int(1), Value::text("waxy"), Value::Int(1)])
            .expect("row");
        db.finalize();
        let original = lattice_of(&db, 2);
        let mut buf = Vec::new();
        save_lattice(&original, &mut buf).expect("writes");
        let loaded = load_lattice(&mut buf.as_slice()).expect("reads");

        let index = InvertedIndex::build(&db);
        let q = KeywordQuery::parse("waxy candle").expect("parses");
        let mapping = map_keywords(&q, &index);
        let interp = &mapping.interpretations[0];
        let run = |lat: &Lattice| {
            let pruned = PrunedLattice::build(lat, interp);
            let mut oracle =
                AlivenessOracle::new(&db, Some(&index), interp, &mapping.keywords, false);
            traversal::run(StrategyKind::BruteForce, lat, &pruned, &mut oracle, 0.5)
                .expect("runs")
        };
        let a = run(&original);
        let b = run(&loaded);
        assert_eq!(a.alive_mtns, b.alive_mtns);
        assert_eq!(a.mpans, b.mpans);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load_lattice(&mut &b"NOTALATT"[..]).expect_err("rejects");
        assert!(matches!(err, LatticeIoError::BadMagic), "{err}");
    }

    #[test]
    fn v1_file_rejected_with_version_error() {
        // A v1 header followed by anything must fail fast with a message that
        // names both the found and the supported version.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"KWSLAT01");
        buf.extend_from_slice(&[0u8; 64]);
        let err = load_lattice(&mut buf.as_slice()).expect_err("rejects v1");
        assert!(matches!(err, LatticeIoError::UnsupportedVersion(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("KWSLAT01"), "{msg}");
        assert!(msg.contains("KWSLAT02"), "{msg}");
        assert!(msg.contains("rebuild"), "{msg}");
    }

    #[test]
    fn truncated_input_rejected() {
        let db = toy_store();
        let lattice = lattice_of(&db, 2);
        let mut buf = Vec::new();
        save_lattice(&lattice, &mut buf).expect("writes");
        for cut in [4, 12, buf.len() / 2, buf.len() - 1] {
            assert!(
                load_lattice(&mut &buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn corrupted_link_rejected() {
        let db = toy_store();
        let lattice = lattice_of(&db, 2);
        let mut buf = Vec::new();
        save_lattice(&lattice, &mut buf).expect("writes");
        // Smash every byte in turn; most corruptions hit a validated field.
        // Accept either an error or a still-consistent read (flipping e.g. a
        // duplicate-count stat is benign), but never panic and never attempt
        // an absurd allocation (a flipped table id or maxJoins must be caught
        // by the sanity bounds, not sized into the copy-set index).
        for pos in MAGIC.len()..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0xFF;
            let _ = load_lattice(&mut bad.as_slice());
        }
    }

    #[test]
    fn error_display() {
        assert!(LatticeIoError::BadMagic.to_string().contains("KWSLAT02"));
        assert!(LatticeIoError::Corrupt("x".into()).to_string().contains("x"));
        let io_err: LatticeIoError = io::Error::other("boom").into();
        assert!(io_err.to_string().contains("boom"));
    }
}
