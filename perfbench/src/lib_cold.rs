//! `lib-cold`: one caller, a closed loop of direct
//! `NonAnswerDebugger::debug_with_strategy` calls at the library defaults
//! (`sample_limit` 3, no eval cache, no memo, one worker), the strategy
//! rotating through the paper's five. Nothing caches between calls, so the
//! engine, traversal, Phase 1–2 pruning and report sampling do all the work.

use std::collections::BTreeMap;
use std::time::Instant;

use kwdebug::binding::{map_keywords, KeywordQuery};
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::metrics::{PhaseTiming, ProbeCounters};
use kwdebug::oracle::AlivenessOracle;
use kwdebug::prune::PrunedLattice;
use kwdebug::report::{InterpretationOutcome, NonAnswerInfo, QueryInfo};
use kwdebug::traversal::{self, StrategyKind};
use kwdebug::workspace::QueryWorkspace;
use kwdebug::{DebugReport, Jnts, KwError};
use relengine::Database;

use crate::check::{outcome, Mix};
use crate::hostspeed::HostSpeed;
use crate::inputs::{table2, QueryStream, Vocab};
use crate::stats::{beyond, mean, median, ratio};
use crate::trace::Tracer;
use crate::{finish_setup, generate, peak_rss_mb, set_latency, timed_setup, Args, Outcome, LEVELS};

/// Stream queries checked against every strategy and brute force, besides
/// the ten Table 2 queries.
const CHECKED_STREAM_QUERIES: usize = 6;
/// Leading timed queries re-run after the clock stops to check that their
/// probe, inference and tuple counts repeat exactly.
const REPEAT_CHECKED: usize = 20;
/// Untimed queries before the clock starts.
const WARMUP: usize = 20;
/// Timed queries after which `peak_rss_mb` is read.
const RSS_AFTER: u64 = 2000;

fn strategy(i: usize) -> StrategyKind {
    StrategyKind::ALL[i % StrategyKind::ALL.len()]
}

/// The counts that must repeat for a seed: probes, inferences, tuples.
fn counts(r: &DebugReport) -> (u64, u64, u64) {
    let p = r.probes();
    (p.probes_executed, p.inferences(), p.tuples_scanned)
}

/// Builds the debugger the workload measures.
pub fn build(seed: u64) -> NonAnswerDebugger {
    let config = DebugConfig {
        max_joins: LEVELS - 1,
        ..DebugConfig::default()
    };
    NonAnswerDebugger::new(generate(seed), config).expect("valid benchmark configuration")
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (sys, vocab) = timed_setup(
        &mut out,
        || build(args.seed),
        |s| Vocab::from_database(s.database()),
    );
    for q in QueryStream::new(&vocab, args.seed, 7).take(WARMUP) {
        let _ = sys.debug(&q);
    }
    let mut stream = QueryStream::new(&vocab, args.seed, 0);
    if args.trace {
        traced(args, &sys, &mut stream, &mut out);
    } else {
        timed(args, &sys, &mut stream, &mut out);
    }
    check_strategies(&sys, &vocab, args.seed, &mut out);
    drop(sys);
    let vocab_of = |s: &NonAnswerDebugger| Vocab::from_database(s.database());
    finish_setup(&mut out, || build(args.seed), vocab_of, &vocab);
    out
}

fn timed(args: &Args, sys: &NonAnswerDebugger, stream: &mut QueryStream<'_>, out: &mut Outcome) {
    let mut lat = Vec::new();
    let mut mix = Mix::default();
    let mut first: Vec<(String, (u64, u64, u64))> = Vec::new();
    let mut host = HostSpeed::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < args.seconds {
        if host.due() {
            host.checkpoint();
        }
        let q = stream.next_query();
        let t0 = Instant::now();
        let result = sys.debug_with_strategy(&q, strategy(i));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        if out.attempted == RSS_AFTER {
            out.set("peak_rss_mb", peak_rss_mb());
        }
        match result {
            Ok(r) if r.is_complete() => {
                lat.push((t0, ms));
                if first.len() < REPEAT_CHECKED {
                    first.push((q.clone(), counts(&r)));
                }
                mix.add(&q, &r);
            }
            Ok(_) => out.failed += 1,
            Err(e) => {
                if out.failed == 0 {
                    out.notes.push(format!("query `{q}` failed: {e}"));
                }
                out.failed += 1;
            }
        }
        i += 1;
    }
    host.checkpoint();
    set_latency(out, &host, &lat);
    mix.record(out);
    // Same inputs, same counts: re-run the leading queries.
    for (j, (q, c)) in first.iter().enumerate() {
        match sys.debug_with_strategy(q, strategy(j)) {
            Ok(r) if counts(&r) == *c => {}
            _ => out.mismatch(format!("counts of `{q}` did not repeat")),
        }
    }
}

/// Answers, non-answers and MPAN SQL must agree across the five paper
/// strategies and brute force on the checked queries.
fn check_strategies(sys: &NonAnswerDebugger, vocab: &Vocab, seed: u64, out: &mut Outcome) {
    let mut checked: Vec<String> = table2().iter().map(|q| q.to_string()).collect();
    checked.extend(QueryStream::new(vocab, seed, 0).take(CHECKED_STREAM_QUERIES));
    for q in &checked {
        let truth = match sys.debug_with_strategy(q, StrategyKind::BruteForce) {
            Ok(r) => outcome(&r),
            Err(e) => {
                out.mismatch(format!("brute force on `{q}` failed: {e}"));
                continue;
            }
        };
        for s in StrategyKind::ALL {
            match sys.debug_with_strategy(q, s) {
                Ok(r) if outcome(&r) == truth => {}
                _ => out.mismatch(format!("{s} disagrees with brute force on `{q}`")),
            }
        }
    }
}

/// Per-request accumulators of the traced run.
#[derive(Default)]
struct Layers {
    probes: ProbeCounters,
    interpretations: u64,
    requests: u64,
    map_ns: Vec<f64>,
    prune_ns: Vec<f64>,
    traversal_ns: u64,
    assemble_ns: u64,
    sample_ns: u64,
    samples: u64,
}

/// The traced run: every query goes once through the staged path with
/// spans and once through `debug_with_strategy` untraced, in alternating
/// order. The two reports must be identical; the latency difference is the
/// tracing overhead.
fn traced(args: &Args, sys: &NonAnswerDebugger, stream: &mut QueryStream<'_>, out: &mut Outcome) {
    let mut tracer = Tracer::new();
    let mut ws = QueryWorkspace::new();
    let mut layers = Layers::default();
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    // Each traced request's latency, timed around the staged call.
    let mut latency_ns = BTreeMap::new();
    let mut mix = Mix::default();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds {
        let q = stream.next_query();
        let s = strategy(i);
        let mut staged_leg = || {
            let t0 = Instant::now();
            let r = staged(sys, &q, s, &mut tracer, i as u64, &mut ws, &mut layers);
            let elapsed = t0.elapsed();
            latency_ns.insert(i as u64, elapsed.as_nanos() as u64);
            traced_ms.push(elapsed.as_secs_f64() * 1e3);
            r
        };
        let mut plain_leg = || {
            let t0 = Instant::now();
            let r = sys.debug_with_strategy(&q, s);
            plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            r
        };
        let legs = if i.is_multiple_of(2) {
            let a = staged_leg();
            (a, plain_leg())
        } else {
            let b = plain_leg();
            (staged_leg(), b)
        };
        out.attempted += 1;
        match legs {
            (Ok(a), Ok(b)) => {
                if kwserve::protocol::encode_report(&a) != kwserve::protocol::encode_report(&b) {
                    out.mismatch(format!("staged path differs from debug() on `{q}` ({s})"));
                }
                if !b.is_complete() {
                    out.failed += 1;
                }
                mix.add(&q, &b);
            }
            (a, b) => {
                if out.failed == 0 {
                    let e = a.err().or(b.err()).expect("one leg failed");
                    out.notes.push(format!("query `{q}` failed: {e}"));
                }
                out.failed += 1;
            }
        }
        i += 1;
    }
    let n = layers.requests.max(1) as f64;
    let p = layers.probes;
    out.set("relengine.probe_ms", p.probe_time_ns as f64 / 1e6 / n);
    out.set(
        "relengine.probe_us",
        ratio(p.probe_time_ns as f64 / 1e3, p.probes_executed as f64),
    );
    out.set(
        "relengine.tuples_per_probe",
        ratio(p.tuples_scanned as f64, p.probes_executed as f64),
    );
    out.set("binding.map_us", mean(&layers.map_ns) / 1e3);
    out.set("binding.interpretations", layers.interpretations as f64 / n);
    out.set("prune.build_us", mean(&layers.prune_ns) / 1e3);
    out.set(
        "prune.nodes_touched",
        ratio(p.phase1_nodes_touched as f64, layers.interpretations as f64),
    );
    out.set(
        "traversal.self_ms",
        (layers.traversal_ns as f64 - p.probe_time_ns as f64) / 1e6 / n,
    );
    out.set("traversal.probes", p.probes_executed as f64 / n);
    let inferred = (p.r1_inferences + p.r2_inferences + p.reuse_hits) as f64;
    out.set(
        "traversal.inference_share",
        ratio(inferred, inferred + p.probes_executed as f64),
    );
    out.set("traversal.memo_hits", p.memo_hits as f64 / n);
    out.set("report.assemble_ms", layers.assemble_ns as f64 / 1e6 / n);
    out.set("report.sample_ms", layers.sample_ns as f64 / 1e6 / n);
    out.set("report.samples", layers.samples as f64 / n);
    // Both legs ran the same query: the median of the paired differences.
    let diffs: Vec<f64> = traced_ms
        .iter()
        .zip(&plain_ms)
        .map(|(t, p)| t - p)
        .collect();
    out.set("trace.overhead_ms", median(&diffs));
    out.set("latency_p99_beyond", beyond(&plain_ms, 0.99) as f64);
    mix.record(out);
    out.add_self_times(&tracer, &latency_ns);
    out.tracer = Some(tracer);
}

/// One query through the same stages `debug_with_strategy` runs — keyword
/// mapping, `PrunedLattice::build_with`, a traversal over an
/// `AlivenessOracle`, then `sql`/`sample` for the report rows — each
/// wrapped in a span.
fn staged(
    sys: &NonAnswerDebugger,
    text: &str,
    strategy: StrategyKind,
    tracer: &mut Tracer,
    request: u64,
    ws: &mut QueryWorkspace,
    layers: &mut Layers,
) -> Result<DebugReport, KwError> {
    let start = Instant::now();
    let root = tracer.open("request", request, None);
    let config = sys.config();
    let query = KeywordQuery::parse(text)?;
    let span = tracer.open("binding.map", request, Some(root));
    let mapping = map_keywords(&query, sys.index());
    tracer.close(span);
    let mapping_time = start.elapsed();
    layers.map_ns.push(tracer.duration(span) as f64);

    let mut interpretations = Vec::with_capacity(mapping.interpretations.len());
    for interp in &mapping.interpretations {
        let span = tracer.open("prune.build", request, Some(root));
        let pruned = PrunedLattice::build_with(sys.lattice(), interp, ws);
        tracer.close(span);
        layers.prune_ns.push(tracer.duration(span) as f64);

        let mut oracle = AlivenessOracle::new(
            sys.database(),
            Some(sys.index()),
            interp,
            &mapping.keywords,
            config.memoize,
        )
        .with_budget(config.budget)
        .with_retry(config.retry);
        let span = tracer.open("traversal", request, Some(root));
        let mut trav = traversal::run(strategy, sys.lattice(), &pruned, &mut oracle, config.pa)?;
        tracer.close(span);
        tracer.synthetic("relengine.exec", span, 0, trav.probes.probe_time_ns);
        layers.traversal_ns += tracer.duration(span);
        trav.probes.phase1_nodes_touched = pruned.phase1_nodes_touched();
        trav.probes.epoch = sys.database().epoch();
        trav.probes.entries_invalidated = sys.eval_cache().invalidated();
        trav.probes.compactions = sys.index().compactions();

        let report = tracer.open("report.assemble", request, Some(root));
        let keyword_tables = mapping
            .keywords
            .iter()
            .zip(interp.tables())
            .map(|(k, &t)| (k.clone(), sys.database().table(t).schema().name.clone()))
            .collect();
        let mut info = |dense: usize, alive: bool, tracer: &mut Tracer, layers: &mut Layers| {
            let jnts = pruned.jnts(sys.lattice(), dense);
            let sql = oracle.sql(jnts)?;
            let mut sample_tuples = Vec::new();
            if alive && config.sample_limit > 0 {
                let span = tracer.open("report.sample", request, Some(report));
                let tuples = oracle.sample(jnts, config.sample_limit)?;
                tracer.close(span);
                layers.sample_ns += tracer.duration(span);
                layers.samples += 1;
                sample_tuples = tuples
                    .iter()
                    .map(|t| render_tuple(sys.database(), jnts, t))
                    .collect();
            }
            Ok::<_, KwError>(QueryInfo {
                sql,
                level: pruned.level(dense),
                sample_tuples,
            })
        };
        let mut answers = Vec::with_capacity(trav.alive_mtns.len());
        for &m in &trav.alive_mtns {
            answers.push(info(m, true, tracer, layers)?);
        }
        let mut non_answers = Vec::with_capacity(trav.dead_mtns.len());
        for (&m, mpans) in trav.dead_mtns.iter().zip(&trav.mpans) {
            let query = info(m, false, tracer, layers)?;
            let mut infos = Vec::with_capacity(mpans.len());
            for &p in mpans {
                infos.push(info(p, true, tracer, layers)?);
            }
            non_answers.push(NonAnswerInfo {
                query,
                mpans: infos,
                possible_mpans: Vec::new(),
            });
        }
        tracer.close(report);
        layers.assemble_ns += tracer.duration(report);
        layers.probes.accumulate(trav.probes);
        layers.interpretations += 1;
        interpretations.push(InterpretationOutcome {
            keyword_tables,
            answers,
            non_answers,
            unknown: Vec::new(),
            budget_exhausted: trav.exhausted,
            prune_stats: pruned.stats().clone(),
            sql_queries: trav.sql_queries,
            sql_time: trav.sql_time,
            probes: trav.probes,
            timing: PhaseTiming::default(),
        });
    }
    tracer.close(root);
    layers.requests += 1;
    let total_time = start.elapsed();
    Ok(DebugReport {
        keywords: mapping.keywords,
        unknown_keywords: mapping.unknown,
        interpretations,
        mapping_time,
        total_time,
        timing: PhaseTiming {
            mapping: mapping_time,
            total: total_time,
            ..PhaseTiming::default()
        },
    })
}

/// Renders one result tuple as the debugger's reports do:
/// `table0(v1, v2) ⋈ table1(...)`.
fn render_tuple(db: &Database, jnts: &Jnts, tuple: &[relengine::RowId]) -> String {
    let parts: Vec<String> = jnts
        .nodes()
        .iter()
        .zip(tuple)
        .map(|(ts, &rid)| {
            let table = db.table(ts.table);
            let values: Vec<String> = table.row(rid).iter().map(|v| v.to_string()).collect();
            format!("{}{}({})", table.schema().name, ts.copy, values.join(", "))
        })
        .collect();
    parts.join(" ⋈ ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_counts(seed: u64) -> Vec<(String, (u64, u64, u64))> {
        let sys = build(seed);
        let vocab = Vocab::from_database(sys.database());
        QueryStream::new(&vocab, seed, 0)
            .take(25)
            .enumerate()
            .map(|(i, q)| {
                let r = sys
                    .debug_with_strategy(&q, strategy(i))
                    .expect("query runs");
                (q, counts(&r))
            })
            .collect()
    }

    #[test]
    fn same_seed_same_counts_other_seed_other_inputs() {
        let a = stream_counts(5);
        assert_eq!(a, stream_counts(5));
        assert!(a.iter().any(|(_, c)| c.0 > 0));
        let b = stream_counts(6);
        assert_ne!(
            a.iter().map(|x| &x.0).collect::<Vec<_>>(),
            b.iter().map(|x| &x.0).collect::<Vec<_>>()
        );
    }
}
