//! Integration: report samples served from alive verdict-cache entries are
//! the samples an uncached run takes.
//!
//! An alive entry of the evaluation cache's verdict layer keeps the report
//! sample of one exact network layout (`kwdebug::evalcache`, CACHING.md).
//! The canonical verdict key is shared by networks that list their vertices
//! in different orders, so a sample is served only for a byte-equal layout
//! tag; a write to one of the network's tables drops the entry and its
//! sample with it. This suite checks those rules end to end: reports with
//! samples on are identical with the cache off, cold and warm, and served
//! samples equal fresh ones.

use std::sync::Arc;

use datagen::{generate_dblife, paper_queries, DblifeConfig};
use kwdebug::binding::{map_keywords, KeywordMapping, KeywordQuery};
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::oracle::AlivenessOracle;
use kwdebug::report::QueryInfo;
use kwdebug::schema_graph::Incidence;
use kwdebug::traversal::StrategyKind;
use kwdebug::{DebugReport, EvalCache, Jnts, ProbeBudget, TupleSet};
use relengine::{DataType, Database, DatabaseBuilder, RowId, Value};
use textindex::InvertedIndex;

const ALL_SIX: [StrategyKind; 6] = [
    StrategyKind::BottomUp,
    StrategyKind::TopDown,
    StrategyKind::BottomUpWithReuse,
    StrategyKind::TopDownWithReuse,
    StrategyKind::ScoreBasedHeuristic,
    StrategyKind::BruteForce,
];

/// Every report row with its samples, in report order: answers, then each
/// non-answer with its MPANs and possible MPANs.
fn rows(report: &DebugReport) -> Vec<&QueryInfo> {
    let mut rows = Vec::new();
    for i in &report.interpretations {
        rows.extend(&i.answers);
        for n in &i.non_answers {
            rows.push(&n.query);
            rows.extend(&n.mpans);
            rows.extend(&n.possible_mpans);
        }
        rows.extend(&i.unknown);
    }
    rows
}

/// Asserts a cache-on report equals the cache-off one in every section and
/// in every counter the cache does not legitimately move.
fn assert_same_report(off: &DebugReport, on: &DebugReport, ctx: &str) {
    assert_eq!(on.interpretations.len(), off.interpretations.len(), "{ctx}");
    for (a, b) in on.interpretations.iter().zip(&off.interpretations) {
        assert_eq!(a.answers, b.answers, "{ctx}: answers (SQL + samples)");
        assert_eq!(a.non_answers, b.non_answers, "{ctx}: non-answers + MPANs (samples)");
        assert_eq!(a.unknown, b.unknown, "{ctx}: unknown");
        assert_eq!(a.budget_exhausted, b.budget_exhausted, "{ctx}: exhaustion cause");
        assert_eq!(
            a.probes.probes_executed + a.probes.verdict_cache_hits,
            b.probes.probes_executed,
            "{ctx}: every skipped probe is a verdict hit"
        );
        assert_eq!(
            (a.probes.r1_inferences, a.probes.r2_inferences, a.probes.reuse_hits),
            (b.probes.r1_inferences, b.probes.r2_inferences, b.probes.reuse_hits),
            "{ctx}: traversal counters"
        );
    }
}

/// DBLife tiny with three samples per alive row, every strategy: the
/// cache-off report, a cold cache-on report and a warm one are identical.
/// Then a warm pass with a zero probe budget, which can execute nothing,
/// still shows samples: they were served from verdict entries, and each
/// equals the uncached sample of its row.
#[test]
fn samples_match_uncached_cold_and_warm_for_every_strategy() {
    let config = DebugConfig { max_joins: 3, sample_limit: 3, ..DebugConfig::default() };
    let off = NonAnswerDebugger::new(generate_dblife(&DblifeConfig::tiny()), config)
        .expect("system builds");
    let mut on = NonAnswerDebugger::new(
        generate_dblife(&DblifeConfig::tiny()),
        DebugConfig { eval_cache: true, ..config },
    )
    .expect("system builds");
    let queries: Vec<&str> = paper_queries().iter().take(4).map(|q| q.text).collect();
    for kind in ALL_SIX {
        on.reset_eval_cache();
        on.set_budget(ProbeBudget::unlimited());
        let base: Vec<DebugReport> =
            queries.iter().map(|q| off.debug_with_strategy(q, kind).expect("runs")).collect();
        for pass in ["cold", "warm"] {
            for (q, want) in queries.iter().zip(&base) {
                let got = on.debug_with_strategy(q, kind).expect("runs");
                assert_same_report(want, &got, &format!("{kind} {pass} {q:?}"));
            }
        }
        let samples =
            |r: &DebugReport| rows(r).iter().filter(|i| !i.sample_tuples.is_empty()).count();
        assert!(base.iter().map(samples).sum::<usize>() > 0, "{kind}: the workload samples");

        on.set_budget(ProbeBudget::probes(0));
        let mut served = 0;
        for (q, want) in queries.iter().zip(&base) {
            let got = on.debug_with_strategy(q, kind).expect("runs");
            for i in &got.interpretations {
                assert_eq!(i.probes.probes_executed, 0, "{kind} {q:?}: nothing executes");
            }
            let (got_rows, want_rows) = (rows(&got), rows(want));
            assert_eq!(got_rows.len(), want_rows.len(), "{kind} {q:?}: same rows");
            for (g, w) in got_rows.iter().zip(&want_rows) {
                assert_eq!(g.sql, w.sql, "{kind} {q:?}");
                if !g.sample_tuples.is_empty() {
                    assert_eq!(g.sample_tuples, w.sample_tuples, "{kind} {q:?}: served sample");
                    served += 1;
                }
            }
        }
        assert!(served > 0, "{kind}: the warm pass served samples from verdict entries");
    }
}

/// ptype(oil, candle) <- item -> color(red, saffron), with three red
/// candles and one saffron oil; foreign key 0 is `item.ptype_id`, 1 is
/// `item.color_id`.
fn store() -> Database {
    let mut b = DatabaseBuilder::new();
    b.table("ptype").column("id", DataType::Int).column("name", DataType::Text).primary_key("id");
    b.table("item")
        .column("id", DataType::Int)
        .column("name", DataType::Text)
        .column("ptype_id", DataType::Int)
        .column("color_id", DataType::Int)
        .primary_key("id");
    b.table("color").column("id", DataType::Int).column("name", DataType::Text).primary_key("id");
    b.foreign_key("item", "ptype_id", "ptype", "id").expect("static");
    b.foreign_key("item", "color_id", "color", "id").expect("static");
    let mut db = b.finish().expect("static");
    // `oil` first, so a candle's ptype row id (1) differs from a red
    // item's color row id (0).
    db.insert_values("ptype", vec![Value::Int(2), Value::text("oil")]).expect("row");
    db.insert_values("ptype", vec![Value::Int(1), Value::text("candle")]).expect("row");
    db.insert_values("color", vec![Value::Int(1), Value::text("red")]).expect("row");
    db.insert_values("color", vec![Value::Int(2), Value::text("saffron")]).expect("row");
    for (id, ptype, color) in [(1, 1, 1), (2, 1, 1), (3, 2, 2), (4, 1, 1)] {
        let row = vec![Value::Int(id), Value::text("item"), Value::Int(ptype), Value::Int(color)];
        db.insert_values("item", row).expect("row");
    }
    db.finalize();
    db
}

const PTYPE: usize = 0;
const ITEM: usize = 1;
const COLOR: usize = 2;

/// `item` with its referenced `ptype` and `color` copies (keyword copy 1)
/// as vertices 1 and 2, in the order given.
fn item_with(first: (usize, usize), second: (usize, usize)) -> Jnts {
    let inc = |(fk, other)| Incidence { fk, other, local_is_from: true };
    Jnts::single(TupleSet::new(ITEM, 0)).extend(0, inc(first), 1).extend(0, inc(second), 1)
}

fn mapping(index: &InvertedIndex, query: &str) -> KeywordMapping {
    map_keywords(&KeywordQuery::parse(query).expect("parses"), index)
}

/// Samples `j` with a fresh oracle: `(tuples, engine queries, verdict
/// hits)`. `cache` attaches the store; the network is probed first, so its
/// verdict entry exists.
fn sample(
    db: &Database,
    index: &InvertedIndex,
    m: &KeywordMapping,
    cache: Option<&Arc<EvalCache>>,
    j: &Jnts,
) -> (Vec<Vec<RowId>>, u64, u64) {
    let interp = &m.interpretations[0];
    let mut oracle = AlivenessOracle::new(db, Some(index), interp, &m.keywords, false);
    if let Some(cache) = cache {
        oracle = oracle.with_eval_cache(Arc::clone(cache));
    }
    assert!(oracle.is_alive(0, j).expect("probes"), "the network is alive");
    let tuples = oracle.sample(j, 2).expect("samples");
    (tuples, oracle.queries(), oracle.metrics().verdict_cache_hits)
}

/// Two networks with one canonical verdict key but different vertex
/// orders each get their own uncached tuples: the second misses the first
/// one's sample and leaves it in place.
#[test]
fn one_key_two_layouts_each_get_their_own_tuples() {
    let db = store();
    let index = InvertedIndex::build(&db);
    let m = mapping(&index, "candle red");
    let cache = Arc::new(EvalCache::with_identity(db.db_id(), db.epoch(), None));
    let pc = item_with((0, PTYPE), (1, COLOR));
    let cp = item_with((1, COLOR), (0, PTYPE));
    let (want_pc, _, _) = sample(&db, &index, &m, None, &pc);
    let (want_cp, _, _) = sample(&db, &index, &m, None, &cp);
    assert_ne!(want_pc, want_cp, "the layouts enumerate different tuples");

    // Cold: probe and sample `pc`, which publishes its sample.
    assert_eq!(sample(&db, &index, &m, Some(&cache), &pc), (want_pc.clone(), 2, 0));
    // `cp` shares the verdict (one hit) but not the sample (one execution).
    assert_eq!(sample(&db, &index, &m, Some(&cache), &cp), (want_cp, 1, 1));
    // `pc`'s sample is still the one kept: served with no execution.
    assert_eq!(sample(&db, &index, &m, Some(&cache), &pc), (want_pc, 0, 2));
}

/// A write to one of a network's tables drops its verdict entry and the
/// sample in it, so the next sample equals a fresh one at the new epoch; a
/// write to an unrelated table keeps the sample, and it is served.
#[test]
fn writes_drop_exactly_the_samples_over_written_tables() {
    let mut db = store();
    let cache = Arc::new(EvalCache::with_identity(db.db_id(), db.epoch(), None));
    // `red` binds color; the network item - color reads neither ptype.
    let j = Jnts::single(TupleSet::new(ITEM, 0))
        .extend(0, Incidence { fk: 1, other: COLOR, local_is_from: true }, 1);
    let warm = |db: &Database| {
        let index = InvertedIndex::build(db);
        let m = mapping(&index, "red");
        let (fresh, _, _) = sample(db, &index, &m, None, &j);
        (fresh, sample(db, &index, &m, Some(&cache), &j))
    };
    let (fresh, cold) = warm(&db);
    assert_eq!(cold, (fresh.clone(), 2, 0), "cold: probe and sample execute");
    let (_, hit) = warm(&db);
    assert_eq!(hit, (fresh.clone(), 0, 2), "warm: verdict and sample served");

    // An unrelated table's write keeps the entry and its sample.
    db.append_rows(PTYPE, vec![vec![Value::Int(3), Value::text("wax")]]).expect("write");
    assert_eq!(cache.invalidate(&db), 0);
    let (fresh_now, kept) = warm(&db);
    assert_eq!(fresh_now, fresh);
    assert_eq!(kept, (fresh.clone(), 0, 2), "the kept sample is served at the new epoch");

    // Repainting the first red item saffron changes the first two tuples;
    // the write drops the entry, sample included.
    let item = vec![Value::Int(1), Value::text("item"), Value::Int(1), Value::Int(2)];
    db.update_row(ITEM, 0, item).expect("write");
    assert!(cache.invalidate(&db) > 0);
    let (fresh_now, after) = warm(&db);
    assert_ne!(fresh_now, fresh, "the write moves the sample");
    assert_eq!(after, (fresh_now.clone(), 2, 0), "nothing is served after the write");
    let (_, rewarmed) = warm(&db);
    assert_eq!(rewarmed, (fresh_now, 0, 2), "the new epoch's sample is kept and served");
}
