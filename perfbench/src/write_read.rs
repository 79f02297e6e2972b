//! `write-read`: one thread over a `MutableDatabase` with a shared eval
//! cache. Each round applies a seeded write batch (keyword-bearing appends,
//! authorship links, an update, and deletes of the publications appended a
//! fixed number of rounds earlier, so the live size stays level), opens a
//! `session()` and answers a few queries from the seeded stream. The same
//! index and cache layers run here as in the read-only workloads, but
//! through delta postings, merge-on-read and selective invalidation.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::metrics::ProbeCounters;
use kwdebug::{DebugReport, MutableDatabase};
use relengine::{RowId, TableId};

use crate::check::{outcome, Mix};
use crate::hostspeed::HostSpeed;
use crate::inputs::{table2, QueryStream, Vocab, WriteBatch, WriteStream};
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{SpanId, Tracer};
use crate::{finish_setup, generate, peak_rss_mb, set_latency, timed_setup, Args, Outcome, LEVELS};

/// Queries answered per round.
const READS_PER_ROUND: usize = 3;
/// Rounds a batch's publications live before they are deleted.
const LIFETIME_ROUNDS: usize = 150;
/// Rounds after which `peak_rss_mb` is read: tombstoned rows and the delta
/// log stay resident, so memory grows with the rounds a run completes.
const RSS_AFTER: u64 = 500;
/// Byte budget of the shared evaluation cache (the serving default).
const CACHE_BUDGET: u64 = 64 << 20;

fn config() -> DebugConfig {
    DebugConfig {
        max_joins: LEVELS - 1,
        eval_cache: true,
        ..DebugConfig::default()
    }
}

fn build(seed: u64) -> MutableDatabase {
    let mut m =
        MutableDatabase::new(generate(seed), LEVELS - 1).expect("valid benchmark configuration");
    m.share_eval_cache(Some(CACHE_BUDGET));
    m
}

/// One database under the workload, with the rows it still has to delete.
struct Side {
    m: MutableDatabase,
    publication: TableId,
    writes: TableId,
    live: VecDeque<Vec<RowId>>,
}

impl Side {
    fn new(m: MutableDatabase) -> Side {
        Side {
            publication: m.table_id("publication").expect("dblife schema"),
            writes: m.table_id("writes").expect("dblife schema"),
            m,
            live: VecDeque::new(),
        }
    }

    /// Answers Table 2 once, before the clock starts.
    fn warm(&self) {
        let s = self.m.session(config()).expect("session");
        for q in table2() {
            let _ = s.debug(q);
        }
    }
}

/// What one round measured, in milliseconds unless named otherwise.
#[derive(Default)]
struct Round {
    append: Vec<f64>,
    update: Vec<f64>,
    delete: Vec<f64>,
    batch: f64,
    session_us: f64,
    pending_delta_rows: usize,
    /// Each read's latency and its complete report, or why it has none.
    reads: Vec<(f64, Result<DebugReport, String>)>,
    /// The whole round, timed apart from its spans.
    round_ns: u64,
}

/// The spans of one round; records nothing when the round is untraced.
struct Spans<'t> {
    tracer: Option<&'t mut Tracer>,
    request: u64,
}

impl Spans<'_> {
    fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let request = self.request;
        self.tracer
            .as_deref_mut()
            .map(|t| t.open(name, request, parent))
    }

    fn close(&mut self, span: Option<SpanId>) {
        if let (Some(t), Some(s)) = (self.tracer.as_deref_mut(), span) {
            t.close(s);
        }
    }
}

/// Times one write call, in a span under `parent` when tracing.
fn timed<T>(
    spans: &mut Spans<'_>,
    parent: Option<SpanId>,
    name: &'static str,
    samples: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> T {
    let span = spans.open(name, parent);
    let t0 = Instant::now();
    let r = f();
    samples.push(t0.elapsed().as_secs_f64() * 1e3);
    spans.close(span);
    r
}

/// One round on `side`: the write batch, a `session()`, then `queries`.
fn play_round(
    side: &mut Side,
    batch: &WriteBatch,
    queries: &[String],
    spans: &mut Spans<'_>,
) -> Result<Round, String> {
    let t_round = Instant::now();
    let root = spans.open("request", None);
    let mut r = Round::default();
    let (publication, writes) = (side.publication, side.writes);

    let t_batch = Instant::now();
    let wspan = spans.open("write.batch", root);
    let ids = timed(spans, wspan, "mutable.append", &mut r.append, || {
        side.m.append_rows(publication, batch.publications.clone())
    })
    .map_err(|e| format!("append failed: {e}"))?;
    timed(spans, wspan, "mutable.append", &mut r.append, || {
        side.m.append_rows(writes, batch.links.clone())
    })
    .map_err(|e| format!("link append failed: {e}"))?;
    let (target, values) = batch.update.clone();
    timed(spans, wspan, "mutable.update", &mut r.update, || {
        side.m.update_row(publication, ids[target], values)
    })
    .map_err(|e| format!("update failed: {e}"))?;
    side.live.push_back(ids);
    if side.live.len() > LIFETIME_ROUNDS {
        for id in side.live.pop_front().expect("non-empty") {
            timed(spans, wspan, "mutable.delete", &mut r.delete, || {
                side.m.delete_row(publication, id)
            })
            .map_err(|e| format!("delete failed: {e}"))?;
        }
    }
    spans.close(wspan);
    r.batch = t_batch.elapsed().as_secs_f64() * 1e3;
    r.pending_delta_rows = side.m.index().pending_delta_rows();

    let sspan = spans.open("mutable.session", root);
    let t0 = Instant::now();
    let session = side
        .m
        .session(config())
        .map_err(|e| format!("session failed: {e}"))?;
    r.session_us = t0.elapsed().as_secs_f64() * 1e6;
    spans.close(sspan);
    for q in queries {
        let rspan = spans.open("read", root);
        let t0 = Instant::now();
        let result = session.debug(q);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        spans.close(rspan);
        let result = match result {
            Ok(report) if report.is_complete() => Ok(report),
            Ok(_) => Err("incomplete report".to_owned()),
            Err(e) => Err(e.to_string()),
        };
        if let (Some(tracer), Some(s), Ok(report)) = (spans.tracer.as_deref_mut(), rspan, &result) {
            // The library's own phase timings, laid out in order.
            let t = &report.timing;
            let mut at = 0;
            for (name, d) in [
                ("binding.map", t.mapping),
                ("prune.build", t.pruning),
                ("traversal", t.traversal),
                ("report.assemble", t.reporting),
            ] {
                let span = tracer.synthetic(name, s, at, d.as_nanos() as u64);
                if name == "traversal" {
                    tracer.synthetic("relengine.exec", span, 0, t.sql.as_nanos() as u64);
                }
                at += d.as_nanos() as u64;
            }
        }
        r.reads.push((ms, result));
    }
    drop(session);
    spans.close(root);
    r.round_ns = t_round.elapsed().as_nanos() as u64;
    Ok(r)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (m, vocab) = timed_setup(
        &mut out,
        || build(args.seed),
        |m| Vocab::from_database(m.database()),
    );
    let side = Side::new(m);
    side.warm();
    // A traced run plays every round on two sides built from the same seed,
    // one traced and one not, so each traced read is paired with an
    // untraced read of the same query over the same state; the paired
    // differences give the tracing overhead. Which side is traced and
    // which goes first alternate, so that neither the sides' memory layout
    // nor warm processor caches favour the traced reads.
    let mut sides = vec![side];
    if args.trace {
        let twin = Side::new(build(args.seed));
        twin.warm();
        sides.push(twin);
    }
    let side = &sides[0];
    let persons = side
        .m
        .database()
        .table(side.m.table_id("person").expect("dblife schema"))
        .len() as i64;
    let titles = Vocab::from_tables(side.m.database(), |t| t == "publication");
    let mut batches = WriteStream::new(&titles, persons, args.seed);
    let mut stream = QueryStream::new(&vocab, args.seed, 0);
    let (mut append, mut update, mut delete, mut batch_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut session_us, mut pending, mut reads, mut overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut probes = ProbeCounters::default();
    let (mut map_ns, mut prune_ns, mut interps) = (0u128, 0u128, 0u64);
    let (mut traversal_ns, mut assemble_ns) = (0u128, 0u128);
    let mut mix = Mix::default();
    let mut tracer = Tracer::new();
    let mut latency_ns = BTreeMap::new();
    let cache = side
        .m
        .shared_cache()
        .expect("shared cache attached")
        .clone();
    let (hits0, misses0, evictions0, invalidated0) = (
        cache.hits(),
        cache.misses(),
        cache.evictions(),
        cache.invalidated(),
    );
    let compactions0 = side.m.index().compactions();
    let mut last_round: Vec<String> = Vec::new();

    let mut host = HostSpeed::new();
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds {
        if host.due() {
            host.checkpoint();
        }
        let t_round = Instant::now();
        let batch = batches.batch(round);
        let queries: Vec<String> = (0..READS_PER_ROUND).map(|_| stream.next_query()).collect();
        let (traced, first) = match sides.len() {
            1 => (0, 0),
            _ => ((round % 2) as usize, ((round / 2) % 2) as usize),
        };
        let mut played: [Option<Result<Round, String>>; 2] = [None, None];
        for k in [first, 1 - first] {
            if let Some(side) = sides.get_mut(k) {
                let mut spans = Spans {
                    tracer: (k == traced && args.trace).then_some(&mut tracer),
                    request: round,
                };
                played[k] = Some(play_round(side, &batch, &queries, &mut spans));
            }
        }
        let [r, paired] = [traced, 1 - traced].map(|k| played[k].take().transpose());
        let (r, paired) = match (r, paired) {
            (Ok(Some(r)), Ok(paired)) => (r, paired),
            (Err(e), _) | (_, Err(e)) => {
                out.mismatch(e);
                break;
            }
            (Ok(None), _) => unreachable!("the traced side always plays"),
        };
        append.extend(r.append);
        update.extend(r.update);
        delete.extend(r.delete);
        batch_ms.push((t_round, r.batch));
        session_us.push(r.session_us);
        pending.push(r.pending_delta_rows as f64);
        latency_ns.insert(round, r.round_ns);
        if let Some(p) = &paired {
            for ((q, (ms, a)), (plain_ms, b)) in queries.iter().zip(&r.reads).zip(&p.reads) {
                overhead.push(ms - plain_ms);
                let same = match (a, b) {
                    (Ok(a), Ok(b)) => outcome(a) == outcome(b),
                    (a, b) => a.is_err() && b.is_err(),
                };
                if !same {
                    out.mismatch(format!("traced and untraced reads of `{q}` differ"));
                }
            }
        }
        last_round.clear();
        for (q, (ms, result)) in queries.into_iter().zip(r.reads) {
            out.attempted += 1;
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    if out.failed == 0 {
                        out.notes.push(format!("read `{q}` failed: {e}"));
                    }
                    out.failed += 1;
                    continue;
                }
            };
            reads.push((t_round, ms));
            let t = &report.timing;
            map_ns += t.mapping.as_nanos();
            prune_ns += t.pruning.as_nanos();
            traversal_ns += t.traversal.as_nanos();
            assemble_ns += t.reporting.as_nanos();
            interps += report.interpretations.len() as u64;
            probes.accumulate(report.probes());
            mix.add(&q, &report);
            last_round.push(q);
        }
        round += 1;
        if round == RSS_AFTER {
            out.set("peak_rss_mb", peak_rss_mb());
        }
    }
    // What the rounds after the reading cost in memory.
    if let Some(&at) = out.metrics.get("peak_rss_mb") {
        let kb = (peak_rss_mb() - at) * 1024.0;
        out.set(
            "mutable.rss_kb_per_round",
            kb / (round - RSS_AFTER).max(1) as f64,
        );
    }
    host.checkpoint();

    set_latency(&mut out, &host, &reads);
    let batch_ms: Vec<f64> = batch_ms
        .iter()
        .map(|&(at, ms)| host.scale(at, ms))
        .collect();
    out.set("write_p50_ms", median(&batch_ms));
    out.set("write_p99_ms", percentile(&batch_ms, 0.99));
    out.set("mutable.append_ms", median(&append));
    out.set("mutable.update_ms", median(&update));
    out.set("mutable.delete_ms", median(&delete));
    out.set("mutable.session_us", median(&session_us));
    out.set("textindex.pending_delta_rows", mean(&pending));
    out.set(
        "textindex.compactions",
        (sides[0].m.index().compactions() - compactions0) as f64,
    );
    let n = reads.len().max(1) as f64;
    out.set(
        "textindex.delta_merged_per_query",
        probes.delta_postings_merged as f64 / n,
    );
    let (hits, misses) = (cache.hits() - hits0, cache.misses() - misses0);
    out.set(
        "evalcache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    out.set("evalcache.bytes", cache.bytes() as f64);
    out.set(
        "evalcache.evictions",
        (cache.evictions() - evictions0) as f64,
    );
    out.set(
        "evalcache.invalidated",
        (cache.invalidated() - invalidated0) as f64,
    );
    out.set(
        "evalcache.verdict_hits",
        probes.verdict_cache_hits as f64 / n,
    );
    out.set("relengine.probe_ms", probes.probe_time_ns as f64 / 1e6 / n);
    out.set(
        "relengine.probe_us",
        ratio(
            probes.probe_time_ns as f64 / 1e3,
            probes.probes_executed as f64,
        ),
    );
    out.set(
        "relengine.tuples_per_probe",
        ratio(probes.tuples_scanned as f64, probes.probes_executed as f64),
    );
    out.set("binding.map_us", map_ns as f64 / 1e3 / n);
    out.set("binding.interpretations", interps as f64 / n);
    out.set(
        "prune.build_us",
        ratio(prune_ns as f64 / 1e3, interps as f64),
    );
    out.set(
        "prune.nodes_touched",
        ratio(probes.phase1_nodes_touched as f64, interps as f64),
    );
    out.set(
        "traversal.self_ms",
        (traversal_ns as f64 - probes.probe_time_ns as f64) / 1e6 / n,
    );
    out.set("traversal.probes", probes.probes_executed as f64 / n);
    let inferred = (probes.r1_inferences + probes.r2_inferences + probes.reuse_hits) as f64;
    out.set(
        "traversal.inference_share",
        ratio(inferred, inferred + probes.probes_executed as f64),
    );
    out.set("traversal.memo_hits", probes.memo_hits as f64 / n);
    out.set("report.assemble_ms", assemble_ns as f64 / 1e6 / n);
    mix.record(&mut out);
    if args.trace {
        out.set("trace.overhead_ms", median(&overhead));
        out.add_self_times(&tracer, &latency_ns);
        out.tracer = Some(tracer);
    }

    // Off the clock: after the last round, the live session's reports must
    // equal those of a debugger rebuilt from scratch over the mutated tables.
    let session = sides[0].m.session(config()).expect("session");
    let rebuilt = NonAnswerDebugger::new(
        sides[0].m.database().clone(),
        DebugConfig {
            eval_cache: false,
            ..config()
        },
    )
    .expect("rebuild");
    for q in last_round.iter().map(String::as_str).chain(table2()) {
        match (session.debug(q), rebuilt.debug(q)) {
            (Ok(a), Ok(b)) if outcome(&a) == outcome(&b) => {}
            _ => out.mismatch(format!(
                "`{q}` after the last round differs from a rebuilt debugger"
            )),
        }
    }
    drop((session, rebuilt, sides));
    let vocab_of = |m: &MutableDatabase| Vocab::from_database(m.database());
    finish_setup(&mut out, || build(args.seed), vocab_of, &vocab);
    out
}
