//! Randomized tests for the relational engine substrate.
//!
//! The semi-join-reduction executor is checked against a brute-force
//! nested-loop reference on randomized data: same emptiness verdict, same
//! result multiset, limits respected; and the keyword predicate is checked
//! against the obvious lowercase-contains reference. Random join trees of
//! 2–5 nodes (module `trees`) also pin the tuple *order*: `execute(plan, k)`
//! must return the first `k` tuples of the nested-loop enumeration in
//! node-0 pre-order, and so must `execute_reduced` resumed from the state
//! `exists_retaining` kept.
//!
//! Cases are drawn from a seeded [`SplitMix64`] stream (the registry-free
//! stand-in for proptest), so failures replay deterministically.

use datagen::rng::SplitMix64;
use relengine::{
    DataType, Database, DatabaseBuilder, Executor, JoinTreePlan, PlanEdge, PlanNode, Predicate,
    Value,
};

/// Builds color(id, name) <- item(id, name, color_id) with the given rows.
fn build_db(colors: &[(i64, String)], items: &[(i64, String, Option<i64>)]) -> Database {
    let mut b = DatabaseBuilder::new();
    b.table("color")
        .column("id", DataType::Int)
        .column("name", DataType::Text);
    b.table("item")
        .column("id", DataType::Int)
        .column("name", DataType::Text)
        .column("color_id", DataType::Int);
    b.foreign_key("item", "color_id", "color", "id").expect("static");
    let mut db = b.finish().expect("static");
    for (id, name) in colors {
        db.insert_values("color", vec![Value::Int(*id), Value::text(name.clone())])
            .expect("typed row");
    }
    for (id, name, cid) in items {
        db.insert_values(
            "item",
            vec![
                Value::Int(*id),
                Value::text(name.clone()),
                cid.map_or(Value::Null, Value::Int),
            ],
        )
        .expect("typed row");
    }
    db.finalize();
    db
}

/// Reference: nested loops over the 2-node join with predicates.
fn reference_join(
    db: &Database,
    item_kw: &str,
    color_kw: &str,
) -> Vec<(relengine::RowId, relengine::RowId)> {
    let item = db.table(1);
    let color = db.table(0);
    let mut out = Vec::new();
    for (iid, irow) in item.iter() {
        if !irow[1].contains_ci(item_kw) {
            continue;
        }
        for (cid, crow) in color.iter() {
            if !crow[1].contains_ci(color_kw) {
                continue;
            }
            if irow[2].as_int() == crow[0].as_int() && irow[2].as_int().is_some() {
                out.push((iid, cid));
            }
        }
    }
    out
}

/// Random word over `[a-d]{0,4}` — short enough to collide often.
fn word(rng: &mut SplitMix64) -> String {
    let len = rng.gen_range(0..=4usize);
    (0..len).map(|_| (b'a' + rng.below(4) as u8) as char).collect()
}

fn colors_vec(rng: &mut SplitMix64) -> Vec<(i64, String)> {
    let n = rng.gen_range(0..6usize);
    (0..n).map(|_| (rng.gen_range(0i64..6), word(rng))).collect()
}

fn items_vec(rng: &mut SplitMix64, max: usize) -> Vec<(i64, String, Option<i64>)> {
    let n = rng.gen_range(0..max);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0i64..8),
                word(rng),
                rng.gen_ratio(1, 2).then(|| rng.gen_range(0i64..8)),
            )
        })
        .collect()
}

#[test]
fn executor_matches_nested_loop_reference() {
    let mut rng = SplitMix64::seed_from_u64(0xE701);
    for case in 0..64 {
        let colors = colors_vec(&mut rng);
        let items = items_vec(&mut rng, 8);
        let item_kw = word(&mut rng);
        let color_kw = word(&mut rng);

        let db = build_db(&colors, &items);
        let plan = JoinTreePlan::new(
            vec![
                PlanNode::new(1, Predicate::any_text_contains(item_kw.clone())),
                PlanNode::new(0, Predicate::any_text_contains(color_kw.clone())),
            ],
            vec![PlanEdge { a: 0, a_col: 2, b: 1, b_col: 0 }],
        )
        .expect("valid plan");

        let mut exec = Executor::new(&db);
        let expected = reference_join(&db, &item_kw, &color_kw);
        let exists = exec.exists(&plan).expect("runs");
        assert_eq!(exists, !expected.is_empty(), "case {case}");

        let mut got: Vec<(u32, u32)> = exec
            .execute(&plan, 0)
            .expect("runs")
            .into_iter()
            .map(|t| (t[0], t[1]))
            .collect();
        let mut want = expected.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");

        // Limits are respected and prefix-consistent in count.
        let limited = exec.execute(&plan, 2).expect("runs");
        assert_eq!(limited.len(), expected.len().min(2), "case {case}");
    }
}

#[test]
fn contains_ci_matches_lowercase_contains() {
    // The engine's LIKE is ASCII-case-insensitive (Unicode text matches
    // byte-exactly), so the reference comparison uses ASCII inputs.
    let mut rng = SplitMix64::seed_from_u64(0xE702);
    const NEEDLE_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    for case in 0..256 {
        let hay: String = {
            let len = rng.gen_range(0..=24usize);
            // Printable ASCII: 0x20 ..= 0x7E.
            (0..len).map(|_| (0x20 + rng.below(0x5F) as u8) as char).collect()
        };
        let needle: String = {
            let len = rng.gen_range(0..=6usize);
            (0..len)
                .map(|_| NEEDLE_CHARS[rng.gen_range(0..NEEDLE_CHARS.len())] as char)
                .collect()
        };
        let v = Value::text(hay.clone());
        let reference = hay.to_lowercase().contains(&needle.to_lowercase());
        assert_eq!(
            v.contains_ci(&needle.to_lowercase()),
            reference,
            "case {case}: hay={hay:?} needle={needle:?}"
        );
    }
}

#[test]
fn single_free_node_counts_all_rows() {
    let mut rng = SplitMix64::seed_from_u64(0xE703);
    for case in 0..64 {
        let items = items_vec(&mut rng, 8);
        let db = build_db(&[], &items);
        let plan = JoinTreePlan::new(vec![PlanNode::free(1)], vec![]).expect("valid plan");
        let mut exec = Executor::new(&db);
        assert_eq!(exec.count(&plan, 0).expect("runs"), items.len(), "case {case}");
    }
}

/// Three-node star: two item instances joined to the same color. Checks the
/// executor against nested loops on a genuinely branching tree (the shape
/// self-relationship networks produce).
mod star {
    use super::*;

    fn reference_star(
        db: &Database,
        kw1: &str,
        kw2: &str,
    ) -> Vec<(relengine::RowId, relengine::RowId, relengine::RowId)> {
        let item = db.table(1);
        let color = db.table(0);
        let mut out = Vec::new();
        for (cid, crow) in color.iter() {
            for (i1, r1) in item.iter() {
                if !r1[1].contains_ci(kw1) || r1[2].as_int() != crow[0].as_int() {
                    continue;
                }
                if r1[2].as_int().is_none() {
                    continue;
                }
                for (i2, r2) in item.iter() {
                    if !r2[1].contains_ci(kw2) || r2[2].as_int() != crow[0].as_int() {
                        continue;
                    }
                    out.push((cid, i1, i2));
                }
            }
        }
        out
    }

    #[test]
    fn star_join_matches_nested_loops() {
        let mut rng = SplitMix64::seed_from_u64(0xE704);
        for case in 0..48 {
            let colors: Vec<(i64, String)> = {
                let n = rng.gen_range(1..4usize);
                (0..n).map(|_| (rng.gen_range(0i64..4), word(&mut rng))).collect()
            };
            let items: Vec<(i64, String, Option<i64>)> = {
                let n = rng.gen_range(0..7usize);
                (0..n)
                    .map(|_| {
                        (
                            rng.gen_range(0i64..8),
                            word(&mut rng),
                            rng.gen_ratio(1, 2).then(|| rng.gen_range(0i64..4)),
                        )
                    })
                    .collect()
            };
            let kw1 = word(&mut rng);
            let kw2 = word(&mut rng);

            let db = super::build_db(&colors, &items);
            let plan = JoinTreePlan::new(
                vec![
                    PlanNode::free(0), // color at the center
                    PlanNode::new(1, Predicate::any_text_contains(kw1.clone())),
                    PlanNode::new(1, Predicate::any_text_contains(kw2.clone())),
                ],
                vec![
                    PlanEdge { a: 1, a_col: 2, b: 0, b_col: 0 },
                    PlanEdge { a: 2, a_col: 2, b: 0, b_col: 0 },
                ],
            )
            .expect("valid plan");
            let mut exec = Executor::new(&db);
            let mut got: Vec<(u32, u32, u32)> = exec
                .execute(&plan, 0)
                .expect("runs")
                .into_iter()
                .map(|t| (t[0], t[1], t[2]))
                .collect();
            let mut want = reference_star(&db, &kw1, &kw2);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(&got, &want, "case {case}");
            assert_eq!(exec.exists(&plan).expect("runs"), !want.is_empty(), "case {case}");
        }
    }
}

/// Random join trees of 2–5 nodes over venue ← paper ← writes → person, with
/// a self-FK on person and one undeclared (so unindexed) join column. Data
/// carries NULL FKs and tombstoned rows; nodes are free, keyword-filtered,
/// candidate-backed, selection-backed (with or without postings) and
/// optionally constrained, so every live-set shape reaches both the
/// reduction and the enumeration.
mod trees {
    use super::*;
    use relengine::sortedvals::ValuePostings;
    use relengine::{ColId, RowId};
    use std::sync::Arc;

    const VENUE: usize = 0;
    const PERSON: usize = 1;
    const PAPER: usize = 2;
    const WRITES: usize = 3;

    /// Joinable column pairs `(table, col, table, col)`: the four declared
    /// foreign keys, then person.fav_venue = venue.id, declared as none, so
    /// person.fav_venue carries no index.
    const LINKS: [(usize, ColId, usize, ColId); 5] = [
        (PERSON, 2, PERSON, 0),
        (PAPER, 2, VENUE, 0),
        (WRITES, 0, PERSON, 0),
        (WRITES, 1, PAPER, 0),
        (PERSON, 3, VENUE, 0),
    ];

    fn key(rng: &mut SplitMix64) -> Value {
        Value::Int(rng.gen_range(0i64..4))
    }

    /// A foreign-key value: NULL one time in four.
    fn fk(rng: &mut SplitMix64) -> Value {
        if rng.gen_ratio(1, 4) {
            Value::Null
        } else {
            key(rng)
        }
    }

    fn random_db(rng: &mut SplitMix64) -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("venue").column("id", DataType::Int).column("name", DataType::Text);
        b.table("person")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .column("mentor_id", DataType::Int)
            .column("fav_venue", DataType::Int);
        b.table("paper")
            .column("id", DataType::Int)
            .column("title", DataType::Text)
            .column("venue_id", DataType::Int);
        b.table("writes")
            .column("person_id", DataType::Int)
            .column("paper_id", DataType::Int)
            .column("role", DataType::Text);
        b.foreign_key("person", "mentor_id", "person", "id").expect("static");
        b.foreign_key("paper", "venue_id", "venue", "id").expect("static");
        b.foreign_key("writes", "person_id", "person", "id").expect("static");
        b.foreign_key("writes", "paper_id", "paper", "id").expect("static");
        let mut db = b.finish().expect("static");
        for _ in 0..rng.gen_range(1..5usize) {
            let row = vec![key(rng), Value::text(word(rng))];
            db.insert_values("venue", row).expect("typed row");
        }
        for _ in 0..rng.gen_range(2..8usize) {
            let row = vec![key(rng), Value::text(word(rng)), fk(rng), fk(rng)];
            db.insert_values("person", row).expect("typed row");
        }
        for _ in 0..rng.gen_range(2..8usize) {
            let row = vec![key(rng), Value::text(word(rng)), fk(rng)];
            db.insert_values("paper", row).expect("typed row");
        }
        for _ in 0..rng.gen_range(2..12usize) {
            let row = vec![fk(rng), fk(rng), Value::text(word(rng))];
            db.insert_values("writes", row).expect("typed row");
        }
        db.finalize();
        // Tombstone about one row in six, after the indexes exist.
        for t in 0..4 {
            for rid in 0..db.table(t).len() as RowId {
                if rng.gen_ratio(1, 6) {
                    db.delete_row(t, rid).expect("live row");
                }
            }
        }
        db
    }

    /// Live rows of `table` some text column of which contains `kw`.
    fn matching(db: &Database, table: usize, kw: &str) -> Vec<RowId> {
        db.table(table)
            .iter()
            .filter(|(_, row)| row.iter().any(|v| v.contains_ci(kw)))
            .map(|(rid, _)| rid)
            .collect()
    }

    /// A random node over `table` and the rows it admits (ascending).
    fn random_node(
        rng: &mut SplitMix64,
        db: &Database,
        table: usize,
        join_cols: &[ColId],
    ) -> (PlanNode, Vec<RowId>) {
        let t = db.table(table);
        // Short needles, so that keyword nodes keep some rows.
        let kw: String =
            (0..rng.gen_range(0..=2usize)).map(|_| (b'a' + rng.below(4) as u8) as char).collect();
        let pred = Predicate::any_text_contains(kw.clone());
        match rng.below(6) {
            0..=2 => (PlanNode::free(table), t.iter().map(|(rid, _)| rid).collect()),
            3 => (PlanNode::new(table, pred), matching(db, table, &kw)),
            4 => {
                let cands: Vec<RowId> =
                    t.iter().map(|(rid, _)| rid).filter(|_| rng.gen_ratio(2, 3)).collect();
                let admit =
                    matching(db, table, &kw).into_iter().filter(|r| cands.contains(r)).collect();
                (PlanNode::new(table, pred).with_candidates(cands), admit)
            }
            _ => {
                let sel = matching(db, table, &kw);
                let mut node = PlanNode::new(table, pred).with_selection(Arc::new(sel.clone()));
                for &c in join_cols {
                    if rng.gen_ratio(1, 2) {
                        let pairs = sel
                            .iter()
                            .filter_map(|&r| t.row(r)[c].as_int().map(|v| (v, r)))
                            .collect();
                        node = node.with_col_postings(c, Arc::new(ValuePostings::build(pairs)));
                    }
                }
                (node, sel)
            }
        }
    }

    /// Whether `node` is free: no filter of any kind.
    fn is_free(node: &PlanNode) -> bool {
        node.predicate.is_true()
            && node.candidates.is_none()
            && node.selection.is_none()
    }

    /// A random tree of 2–5 nodes whose edges follow [`LINKS`], with each
    /// node's admitted rows.
    fn random_tree(rng: &mut SplitMix64, db: &Database) -> (JoinTreePlan, Vec<Vec<RowId>>) {
        let n = rng.gen_range(2..=5usize);
        let mut tables = vec![rng.gen_range(0..4usize)];
        let mut edges = Vec::new();
        while tables.len() < n {
            let p = rng.gen_range(0..tables.len());
            let options: Vec<(ColId, usize, ColId)> = LINKS
                .iter()
                .flat_map(|&(ta, ca, tb, cb)| {
                    let fwd = (ta == tables[p]).then_some((ca, tb, cb));
                    let back = (tb == tables[p]).then_some((cb, ta, ca));
                    fwd.into_iter().chain(back)
                })
                .collect();
            let (pcol, table, ccol) = options[rng.gen_range(0..options.len())];
            let child = tables.len();
            tables.push(table);
            edges.push(if rng.gen_ratio(1, 2) {
                PlanEdge { a: p, a_col: pcol, b: child, b_col: ccol }
            } else {
                PlanEdge { a: child, a_col: ccol, b: p, b_col: pcol }
            });
        }
        // Edge order decides the pre-order; shuffle it (Fisher–Yates).
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range(0..=i));
        }
        let mut nodes = Vec::new();
        let mut admit = Vec::new();
        for (i, &table) in tables.iter().enumerate() {
            let join_cols: Vec<ColId> = edges
                .iter()
                .flat_map(|e| {
                    let a = (e.a == i).then_some(e.a_col);
                    let b = (e.b == i).then_some(e.b_col);
                    a.into_iter().chain(b)
                })
                .collect();
            let (node, rows) = random_node(rng, db, table, &join_cols);
            nodes.push(node);
            admit.push(rows);
        }
        (JoinTreePlan::new(nodes, edges).expect("valid tree"), admit)
    }

    /// A node with its link to the parent, `(parent, parent_col, own_col)`.
    type Visit = (usize, Option<(usize, ColId, ColId)>);

    /// Node-0 pre-order, neighbours taken in edge order.
    fn pre_order(plan: &JoinTreePlan) -> Vec<Visit> {
        fn visit(
            plan: &JoinTreePlan,
            node: usize,
            link: Option<(usize, ColId, ColId)>,
            out: &mut Vec<Visit>,
        ) {
            out.push((node, link));
            let parent = link.map(|l| l.0);
            for e in plan.edges() {
                if e.a == node && Some(e.b) != parent {
                    visit(plan, e.b, Some((node, e.a_col, e.b_col)), out);
                } else if e.b == node && Some(e.a) != parent {
                    visit(plan, e.a, Some((node, e.b_col, e.a_col)), out);
                }
            }
        }
        let mut out = Vec::new();
        visit(plan, 0, None, &mut out);
        out
    }

    /// Every result tuple, by nested loops over the admitted rows in node-0
    /// pre-order: lexicographic in that order.
    fn nested_loops(db: &Database, plan: &JoinTreePlan, admit: &[Vec<RowId>]) -> Vec<Vec<RowId>> {
        fn extend(
            db: &Database,
            plan: &JoinTreePlan,
            admit: &[Vec<RowId>],
            order: &[Visit],
            tuple: &mut Vec<RowId>,
            out: &mut Vec<Vec<RowId>>,
        ) {
            let Some(&(node, link)) = order.first() else {
                out.push(tuple.clone());
                return;
            };
            let row_of = |n: usize, rid: RowId| db.table(plan.nodes()[n].table).row(rid);
            for &rid in &admit[node] {
                if let Some((parent, pcol, col)) = link {
                    let want = row_of(parent, tuple[parent])[pcol].as_int();
                    if want.is_none() || row_of(node, rid)[col].as_int() != want {
                        continue;
                    }
                }
                tuple[node] = rid;
                extend(db, plan, admit, &order[1..], tuple, out);
            }
        }
        let mut out = Vec::new();
        let mut tuple = vec![0; plan.node_count()];
        extend(db, plan, admit, &pre_order(plan), &mut tuple, &mut out);
        out
    }

    #[test]
    fn random_trees_match_nested_loops_in_order() {
        let mut rng = SplitMix64::seed_from_u64(0xE705);
        let (mut free_chains, mut null_fks, mut tombstones, mut several) = (0, 0, 0, 0);
        for case in 0..600 {
            let db = random_db(&mut rng);
            let (plan, admit) = random_tree(&mut rng, &db);
            let want = nested_loops(&db, &plan, &admit);
            let mut exec = Executor::new(&db);
            assert_eq!(exec.exists(&plan).expect("runs"), !want.is_empty(), "case {case}");
            assert_eq!(exec.execute(&plan, 0).expect("runs"), want, "case {case}");
            for k in 1..=3 {
                let got = exec.execute(&plan, k).expect("runs");
                assert_eq!(got, want[..want.len().min(k)], "case {case}, limit {k}");
            }

            // The two-step path: retain the reduction, then resume from it.
            // Each step is one query, like `exists` and `execute`.
            let queries = exec.stats().queries;
            let retained = exec.exists_retaining(&plan).expect("runs");
            assert_eq!(retained.is_some(), !want.is_empty(), "case {case}");
            assert_eq!(exec.stats().queries, queries + 1, "case {case}");
            if retained.is_some() {
                for k in 0..=3 {
                    let mut reduced =
                        exec.exists_retaining(&plan).expect("runs").expect("alive");
                    let before = exec.stats().queries;
                    let got = exec.execute_reduced(&plan, &mut reduced, k).expect("runs");
                    assert_eq!(exec.stats().queries, before + 1, "case {case}, limit {k}");
                    let full = if k == 0 { want.len() } else { want.len().min(k) };
                    assert_eq!(got, want[..full], "case {case}, resumed limit {k}");
                    // The state stays resumable once reduced toward node 0.
                    let again = exec.execute_reduced(&plan, &mut reduced, k).expect("runs");
                    assert_eq!(again, got, "case {case}, resumed twice, limit {k}");
                }
            }

            let nodes = plan.nodes();
            free_chains += usize::from(
                plan.edges().iter().any(|e| is_free(&nodes[e.a]) && is_free(&nodes[e.b])),
            );
            null_fks += usize::from((0..4).any(|t| {
                db.table(t).iter().any(|(_, row)| row.iter().any(Value::is_null))
            }));
            tombstones += usize::from((0..4).any(|t| db.table(t).live_rows() < db.table(t).len()));
            several += usize::from(want.len() > 1);
        }
        // The generator must keep reaching the shapes this test exists for.
        for (what, count) in [
            ("free chains", free_chains),
            ("NULL FKs", null_fks),
            ("tombstones", tombstones),
            ("several result tuples", several),
        ] {
            assert!(count >= 60, "only {count} of 600 cases had {what}");
        }
    }
}
