//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lib-cold|serve-closed|write-read --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates medium-scale DBLife from the seed, builds the debugger at
//! maxJoins 4 (5 lattice levels), runs one workload for `--seconds`, checks
//! its outputs off the clock and prints every metric by name with its unit.
//! The last line of standard output is one JSON object: with `--trace 0` it
//! carries the end-to-end metrics of an untraced run, with `--trace 1` the
//! per-layer metrics of a traced run. The command exits non-zero when an
//! output check fails. See `perfbench/README.md` for the workloads and the
//! layer → metric → workload map.

mod check;
mod hostspeed;
mod inputs;
mod lib_cold;
mod serve_closed;
mod stats;
mod trace;
mod write_read;

use std::collections::BTreeMap;
use std::time::Instant;

use datagen::DblifeConfig;
use relengine::Database;

/// Lattice levels the benchmark builds (`maxJoins + 1`).
pub const LEVELS: usize = 5;
/// Times the set-up is built per run, half before the measured phase and
/// half after it; `setup_s` is the median of the builds, each timed between
/// two host-speed readings and scaled to the nominal speed (see
/// [`hostspeed`]).
const SETUP_REPS: usize = 16;

/// Metric names with their units.
type Metrics = [(&'static str, &'static str)];

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &Metrics = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (0 where the workload
/// bypasses the layer).
const PER_LAYER: &Metrics = &[
    ("relengine.probe_ms", "ms"),
    ("relengine.probe_us", "us"),
    ("relengine.tuples_per_probe", "count"),
    ("binding.map_us", "us"),
    ("binding.interpretations", "count"),
    ("prune.build_us", "us"),
    ("prune.nodes_touched", "count"),
    ("traversal.self_ms", "ms"),
    ("traversal.probes", "count"),
    ("traversal.inference_share", "ratio"),
    ("traversal.memo_hits", "count"),
    ("report.assemble_ms", "ms"),
    ("report.sample_ms", "ms"),
    ("report.samples", "count"),
    ("evalcache.hit_ratio", "ratio"),
    ("evalcache.bytes", "bytes"),
    ("evalcache.evictions", "count"),
    ("evalcache.verdict_hits", "count"),
    ("evalcache.invalidated", "count"),
    ("batch.merged_waves_per_req", "count"),
    ("batch.coalesce_ratio", "ratio"),
    ("batch.coalesced_probes", "count"),
    ("batch.submitted_per_req", "count"),
    ("kwserve.server_ms", "ms"),
    ("kwserve.wire_ms", "ms"),
    ("kwserve.connect_ms", "ms"),
    ("kwserve.probes_per_req", "count"),
    ("kwserve.degraded", "count"),
    ("kwserve.shed", "count"),
    ("mutable.append_ms", "ms"),
    ("mutable.update_ms", "ms"),
    ("mutable.delete_ms", "ms"),
    ("mutable.session_us", "us"),
    ("mutable.rss_kb_per_round", "KiB"),
    ("textindex.pending_delta_rows", "count"),
    ("textindex.compactions", "count"),
    ("textindex.delta_merged_per_query", "count"),
    ("self.bench_ms", "ms"),
    ("self.debugger_ms", "ms"),
    ("self.binding_ms", "ms"),
    ("self.prune_ms", "ms"),
    ("self.traversal_ms", "ms"),
    ("self.relengine_ms", "ms"),
    ("self.report_ms", "ms"),
    ("self.kwserve_ms", "ms"),
    ("self.mutable_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.requests", "count"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("failed_share", "ratio"),
    ("inputs.non_answer_share", "ratio"),
    ("inputs.multi_interp_share", "ratio"),
    ("inputs.distinct_share", "ratio"),
    ("latency_p99_beyond", "count"),
];

/// Maps a span name to the layer its self time is charged to.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "binding.map" => "self.binding_ms",
        "prune.build" => "self.prune_ms",
        "traversal" => "self.traversal_ms",
        "relengine.exec" => "self.relengine_ms",
        "report.assemble" | "report.sample" => "self.report_ms",
        "kwserve.wire" | "kwserve.server" => "self.kwserve_ms",
        "mutable.append" | "mutable.update" | "mutable.delete" | "mutable.session" => {
            "self.mutable_ms"
        }
        "read" => "self.debugger_ms",
        _ => "self.bench_ms",
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !["lib-cold", "serve-closed", "write-read"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be lib-cold, serve-closed or write-read (got `{}`)",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Requests attempted in the measured phase.
    pub attempted: u64,
    /// Errors, refusals and degraded reports among them.
    pub failed: u64,
    /// Output-check mismatches (off the clock; each also counts as failed).
    pub mismatches: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form lines printed with the metrics.
    pub notes: Vec<String>,
    /// The spans of a traced run, written out at exit.
    pub tracer: Option<trace::Tracer>,
    /// Every set-up build, in seconds: as timed, and scaled to the nominal
    /// host speed.
    pub setup_times: Vec<(f64, f64)>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records one output-check mismatch.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.mismatches <= 5 {
            self.notes.push(format!("MISMATCH {what}"));
        }
    }

    /// Charges the spans' self times to layers, per traced request, and
    /// checks each request's self times against `timed`, its latency as the
    /// benchmark timed it (request id → nanoseconds).
    pub fn add_self_times(&mut self, tracer: &trace::Tracer, timed: &BTreeMap<u64, u64>) {
        let (by_name, requests) = tracer.self_by_name();
        for (name, ns) in by_name {
            *self.metrics.entry(layer_of(name)).or_default() +=
                ns as f64 / 1e6 / requests.max(1) as f64;
        }
        let (bad, checked) = tracer.check_decomposition(timed);
        self.set("trace.requests", checked as f64);
        if bad > 0 {
            self.mismatch(format!(
                "{bad} of {checked} traced requests: self times do not sum to the timed latency"
            ));
        }
    }
}

/// Sets the latency and throughput metrics from `samples`, each a request's
/// start and its latency in milliseconds, scaled by `host` to the nominal
/// host speed; throughput counts the samples over the measured time. The
/// unscaled figures go to the notes.
pub fn set_latency(out: &mut Outcome, host: &hostspeed::HostSpeed, samples: &[(Instant, f64)]) {
    let raw: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let scaled: Vec<f64> = samples.iter().map(|&(at, ms)| host.scale(at, ms)).collect();
    let n = samples.len() as f64;
    out.set("latency_p50_ms", stats::median(&scaled));
    out.set("latency_p99_ms", stats::percentile(&scaled, 0.99));
    out.set("latency_p99_beyond", stats::beyond(&scaled, 0.99) as f64);
    out.set("throughput_qps", stats::ratio(n, host.scaled_seconds()));
    out.notes.push(format!(
        "as timed: latency p50 {:.4} ms, p99 {:.4} ms, throughput {:.2}/s; \
         host-speed readings {} (median {:.3} ms, nominal {} ms)",
        stats::median(&raw),
        stats::percentile(&raw, 0.99),
        stats::ratio(n, host.raw_seconds()),
        host.readings(),
        host.median_reading(),
        hostspeed::NOMINAL_MS
    ));
}

/// Generates the seeded medium-scale database.
pub fn generate(seed: u64) -> Database {
    datagen::generate_dblife(&DblifeConfig {
        seed,
        ..DblifeConfig::medium()
    })
}

/// Builds the set-up `reps` times, dropping each result before the next
/// build, records each build time, and returns the last result and its
/// vocabulary. Every build must yield the vocabulary of the first, or
/// `expected` when given (same seed, same inputs); a difference counts as
/// a mismatch.
fn time_builds<T>(
    out: &mut Outcome,
    reps: usize,
    mut build: impl FnMut() -> T,
    vocab_of: impl Fn(&T) -> inputs::Vocab,
    mut expected: Option<inputs::Vocab>,
) -> (T, inputs::Vocab) {
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (built, secs, scaled) = hostspeed::scaled_call(&mut build);
        out.setup_times.push((secs, scaled));
        let vocab = vocab_of(&built);
        match &expected {
            Some(v) if *v != vocab => out.mismatch("same seed built different inputs".into()),
            Some(_) => {}
            None => expected = Some(vocab),
        }
        last = Some(built);
    }
    let built = last.expect("at least one set-up");
    (built, expected.expect("at least one set-up"))
}

/// The first half of the timed set-ups, before the measured phase; returns
/// the last build, which the workload runs on, and its vocabulary.
pub fn timed_setup<T>(
    out: &mut Outcome,
    build: impl FnMut() -> T,
    vocab_of: impl Fn(&T) -> inputs::Vocab,
) -> (T, inputs::Vocab) {
    time_builds(out, SETUP_REPS / 2, build, vocab_of, None)
}

/// The second half of the timed set-ups, after the measured phase and the
/// output checks. The workload drops its own set-up first, so these builds
/// do not raise the peak resident set.
pub fn finish_setup<T>(
    out: &mut Outcome,
    build: impl FnMut() -> T,
    vocab_of: impl Fn(&T) -> inputs::Vocab,
    vocab: &inputs::Vocab,
) {
    let reps = SETUP_REPS - SETUP_REPS / 2;
    time_builds(out, reps, build, vocab_of, Some(vocab.clone()));
}

/// Peak resident set of this process, from `VmHWM` in `/proc/self/status`.
/// Workloads whose memory grows with the work done read it when they have
/// done a fixed amount (`RSS_AFTER`), so that it does not grow with the
/// host's speed.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git` without running
/// git; `unknown` outside a repository.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"stamp\":true,\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"profile\":\"{profile}\",\"scale\":\"medium\",\"levels\":{LEVELS},\
         \"commit\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        commit()
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let stamp = stamp(&args);
    let mut out = match args.workload.as_str() {
        "lib-cold" => lib_cold::run(&args),
        "serve-closed" => serve_closed::run(&args),
        _ => write_read::run(&args),
    };
    if !out.metrics.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", peak_rss_mb());
        if !args.trace {
            out.notes.push(
                "peak RSS read at the end: the run did not reach its fixed amount of work".into(),
            );
        }
    }
    let (raw, scaled): (Vec<f64>, Vec<f64>) = out.setup_times.iter().copied().unzip();
    out.set("setup_s", stats::median(&scaled));
    out.notes.push(format!(
        "setup: {} builds, median {:.4} s as timed, {:.4} s at nominal host speed",
        raw.len(),
        stats::median(&raw),
        stats::median(&scaled)
    ));
    if out.attempted == 0 {
        out.mismatch("no request was attempted".into());
    }
    out.failed += out.mismatches;
    out.set(
        "failed_share",
        stats::ratio(out.failed as f64, out.attempted as f64),
    );

    println!("# {stamp}");
    for note in &out.notes {
        println!("# {note}");
    }
    let (listed, other) = if args.trace {
        (PER_LAYER, END_TO_END)
    } else {
        (END_TO_END, PER_LAYER)
    };
    for (name, unit) in listed.iter().chain(other) {
        if let Some(v) = out.metrics.get(name) {
            println!("{name} = {v} {unit}");
        }
    }
    println!(
        "attempted = {} failed = {} (mismatches {})",
        out.attempted, out.failed, out.mismatches
    );
    if args.trace {
        let path = std::path::Path::new("perfbench/out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Some(tracer) = &out.tracer {
            match tracer.write_jsonl(&path, &stamp) {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => println!("# spans not written to {}: {e}", path.display()),
            }
        }
    }

    let mut fields = Vec::new();
    for (name, unit) in listed {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    let correct = out.mismatches == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
