//! Experiment E16 — serving-layer load generator (`kwserve` under
//! concurrency).
//!
//! Starts a real [`kwserve::Server`] on a loopback port over one shared
//! substrate, then sweeps closed-loop session counts: for each count `S`,
//! `S` client threads connect as tenants, each runs a fixed number of
//! Table 2 workload queries back to back over its own session, and every
//! request's client-side wall-clock is recorded. Reported per sweep point:
//! requests, wall time, throughput (QPS) and the latency distribution
//! (p50 / p99 / mean / max) — the serving numbers the library benches
//! cannot produce, because they include framing, socket hops and the
//! per-session state split.
//!
//! With `--overload` (E17's overload protocol) two extra points run through
//! a bounded-admission server: an *uncontended* point (`sessions ==
//! workers`) and an *overload* point (`sessions == 6 × workers` against an
//! in-flight gate of `2 × workers`). Shed clients honor the server's
//! `retry_after_ms` hint and reconnect; rows record shed counts, shed rate,
//! served-request p50/p99 (server-observed service time, so the comparison
//! isolates how the server treats admitted work rather than client-thread
//! scheduling delay) and **goodput** (served QPS). The acceptance
//! check is shed-not-collapse: goodput stays flat and served p99 under
//! overload stays within 2× the uncontended p99, because excess load is
//! refused in O(1) at accept instead of queueing behind busy workers.
//!
//! With `--warm` (E18's warm-multi-tenant protocol) three extra points run
//! 8 tenants with *overlapping* keyword workloads — every tenant walks the
//! same Table 2 queries, phase-shifted so each query is cold exactly once
//! and warm for every later tenant: once without a shared cache (each
//! request pays full probing), once with [`kwserve::ServeConfig::
//! shared_cache`] enabled (the process-wide store turns co-tenant repeats
//! into selection and verdict hits), and once with a deliberately
//! tiny byte budget (eviction pressure: the run must keep
//! `cache_bytes <= budget` while the eviction counter climbs). Rows record
//! aggregate QPS, server-counted probes per served request, and the
//! shared-cache counters; the binary asserts a warm canary report is
//! identical (modulo executed-query counts and timings) across all three
//! points — sharing the cache must never change answers.
//!
//! With `--batch` (E20's cross-session single-flight protocol) six extra
//! points run through a [`kwserve::ServeConfig::batching`] server with the
//! shared cache *off* (cold, so the exchange is the only probe-saving
//! mechanism): 8 tenants walk the same Table 2 queries aligned per request,
//! so concurrent sessions need the same probes at about the same time —
//! once with batching off (every tenant executes every probe) and once with
//! the exchange on (a probe another tenant is executing is waited on, not
//! run again). The gated pair models remote probes with a
//! latency-only fault schedule (every probe sleeps 1 ms); an ungated pair
//! repeats it at zero latency, where µs-scale probes rarely overlap in
//! flight. Rows record probes per served request, in-flight waits
//! (`merged`), the coalesce ratio and server-observed p50/p99. Two solo
//! points (one tenant, batching on/off, zero latency) pin the uncontended
//! path: no waits, and p50 within 10% of batching-off. The acceptance
//! check is `>= 2.0x` fewer probe executions per request with batching on
//! in the latency pair.
//!
//! Records go to `results/BENCH_exp_serve.json` via the shared writer
//! ([`bench::harness::write_records`]), one stable-JSON line per sweep
//! point. See `EXPERIMENTS.md` §E16/§E17/§E18/§E20 and `SERVING.md` for
//! interpretation.
//!
//! Usage: `exp_serve [--scale S] [--max-level N] [--seed N]
//! [--sessions 2,8,64] [--queries N] [--workers N] [--overload] [--warm]
//! [--batch]`
//! (workers defaults to the sweep point's session count, so every session
//! is served concurrently rather than queued in the accept backlog).

use std::sync::Barrier;
use std::time::{Duration, Instant};

use kwdebug::BatchConfig;
use relengine::FaultConfig;

use bench::harness::write_records;
use bench::{build_system, print_table, DataScale};
use kwserve::{
    ClientError, DebugClient, ErrorCode, ServeConfig, Server, SharedCacheConfig, TenantPolicy,
    TenantRegistry,
};

struct Args {
    scale: DataScale,
    max_level: usize,
    seed: u64,
    sessions: Vec<usize>,
    queries: usize,
    workers: Option<usize>,
    overload: bool,
    warm: bool,
    batch: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        scale: DataScale::Tiny,
        max_level: 3,
        seed: 7,
        sessions: vec![2, 8, 64],
        queries: 8,
        workers: None,
        overload: false,
        warm: false,
        batch: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                eprintln!("missing value for {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--scale" => {
                out.scale = DataScale::parse(value(i)).unwrap_or_else(|| {
                    eprintln!("unknown scale `{}` (tiny|small|medium|paper)", args[i + 1]);
                    std::process::exit(2);
                });
            }
            "--max-level" => out.max_level = expect_num(value(i), "--max-level"),
            "--seed" => out.seed = expect_num(value(i), "--seed"),
            "--queries" => out.queries = expect_num(value(i), "--queries"),
            "--workers" => out.workers = Some(expect_num(value(i), "--workers")),
            "--sessions" => {
                out.sessions = value(i)
                    .split(',')
                    .map(|s| expect_num(s, "--sessions"))
                    .collect();
            }
            "--overload" => {
                out.overload = true;
                i += 1;
                continue;
            }
            "--warm" => {
                out.warm = true;
                i += 1;
                continue;
            }
            "--batch" => {
                out.batch = true;
                i += 1;
                continue;
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --scale tiny|small|medium|paper  --max-level N  --seed N  \
                     --sessions N,N,...  --queries N  --workers N  --overload  --warm  --batch"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    out
}

fn expect_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a number, got `{s}`");
        std::process::exit(2);
    })
}

/// One sweep point's aggregated serving numbers.
struct SweepPoint {
    sessions: usize,
    workers: usize,
    queries: usize,
    degraded: usize,
    wall_ms: f64,
    qps: f64,
    p50_ns: u64,
    p99_ns: u64,
    mean_ns: u64,
    max_ns: u64,
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * pct / 100]
}

/// Runs one closed-loop sweep point: a fresh server, `sessions` concurrent
/// client threads, `queries` requests each.
fn run_point(
    system: &kwdebug::debugger::NonAnswerDebugger,
    sessions: usize,
    queries: usize,
    workers: usize,
) -> SweepPoint {
    let config = ServeConfig { workers, debug: *system.config(), ..ServeConfig::default() };
    let server = Server::start(
        system.shared_parts(),
        TenantRegistry::new(TenantPolicy::default()),
        config,
    )
    .expect("server binds on loopback");
    let addr = server.addr();
    let workload = datagen::paper_queries();

    let t0 = Instant::now();
    let mut all_latencies: Vec<u64> = Vec::with_capacity(sessions * queries);
    let mut degraded = 0usize;
    std::thread::scope(|s| {
        let workload = &workload;
        let handles: Vec<_> = (0..sessions)
            .map(|si| {
                s.spawn(move || {
                    let tenant = format!("tenant{}", si % 8);
                    let mut client =
                        DebugClient::connect(addr, &tenant).expect("session admitted");
                    let mut latencies = Vec::with_capacity(queries);
                    let mut degraded = 0usize;
                    for qi in 0..queries {
                        let q = &workload[(si + qi) % workload.len()];
                        let t = Instant::now();
                        let wire = client.debug(q.text).expect("query served");
                        latencies.push(t.elapsed().as_nanos() as u64);
                        degraded += wire.degraded as usize;
                    }
                    client.bye().expect("clean goodbye");
                    (latencies, degraded)
                })
            })
            .collect();
        for h in handles {
            let (lat, deg) = h.join().expect("session thread");
            all_latencies.extend(lat);
            degraded += deg;
        }
    });
    let wall = t0.elapsed();
    server.shutdown();

    all_latencies.sort_unstable();
    let n = all_latencies.len();
    let mean = if n == 0 { 0 } else { all_latencies.iter().sum::<u64>() / n as u64 };
    SweepPoint {
        sessions,
        workers,
        queries: n,
        degraded,
        wall_ms: wall.as_secs_f64() * 1e3,
        qps: if wall.is_zero() { 0.0 } else { n as f64 / wall.as_secs_f64() },
        p50_ns: percentile(&all_latencies, 50),
        p99_ns: percentile(&all_latencies, 99),
        mean_ns: mean,
        max_ns: all_latencies.last().copied().unwrap_or(0),
    }
}

/// One overload-protocol point's aggregated numbers (served requests only;
/// shed connections retry until admitted).
struct OverloadPoint {
    sessions: usize,
    workers: usize,
    served: usize,
    degraded: usize,
    sheds: u64,
    shed_rate: f64,
    wall_ms: f64,
    goodput_qps: f64,
    p50_ns: u64,
    p99_ns: u64,
}

/// Runs one point of the overload protocol: a bounded-admission server
/// (`max_inflight == 2 × workers`), `sessions` closed-loop clients that
/// honor `Overloaded` retry hints, `queries` requests per admitted session.
fn run_overload_point(
    system: &kwdebug::debugger::NonAnswerDebugger,
    sessions: usize,
    queries: usize,
    workers: usize,
) -> OverloadPoint {
    let config = ServeConfig {
        workers,
        max_inflight: workers * 2,
        poll_interval: Duration::from_millis(20),
        // Small enough that retrying shed clients keep the bounded queue
        // primed (a session on the tiny scale lasts well under a
        // millisecond) — the worker must never idle while load exists, or
        // goodput dips below capacity between admission waves.
        retry_after: Duration::from_millis(1),
        debug: *system.config(),
        ..ServeConfig::default()
    };
    let server = Server::start(
        system.shared_parts(),
        TenantRegistry::new(TenantPolicy::default()),
        config,
    )
    .expect("server binds on loopback");
    let addr = server.addr();
    let workload = datagen::paper_queries();

    let t0 = Instant::now();
    let mut all_latencies: Vec<u64> = Vec::with_capacity(sessions * queries);
    let mut degraded = 0usize;
    std::thread::scope(|s| {
        let workload = &workload;
        let handles: Vec<_> = (0..sessions)
            .map(|si| {
                s.spawn(move || {
                    let tenant = format!("tenant{}", si % 8);
                    let mut latencies = Vec::with_capacity(queries);
                    let mut degraded = 0usize;
                    // Admission loop: a shed is an O(1) refusal with a retry
                    // hint, so back off exactly as told and try again.
                    let mut client = None;
                    for _ in 0..100_000 {
                        match DebugClient::connect(addr, &tenant) {
                            Ok(c) => {
                                client = Some(c);
                                break;
                            }
                            Err(ClientError::Server {
                                code: ErrorCode::Overloaded,
                                retry_after_ms,
                                ..
                            }) => {
                                std::thread::sleep(Duration::from_millis(u64::from(
                                    retry_after_ms.max(1),
                                )));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(5)),
                        }
                    }
                    let Some(mut client) = client else { return (latencies, degraded) };
                    for qi in 0..queries {
                        let q = &workload[(si + qi) % workload.len()];
                        let wire = client.debug(q.text).expect("query served");
                        // Server-observed service time: the shed-not-collapse
                        // criterion is about how the *server* treats admitted
                        // requests; client-side clocks on a loaded box fold
                        // client-thread scheduling delay into the tail.
                        latencies.push(wire.server_ns);
                        degraded += wire.degraded as usize;
                    }
                    let _ = client.bye();
                    (latencies, degraded)
                })
            })
            .collect();
        for h in handles {
            let (lat, deg) = h.join().expect("session thread");
            all_latencies.extend(lat);
            degraded += deg;
        }
    });
    let wall = t0.elapsed();
    let metrics = server.shutdown();
    let sheds = metrics.sessions_shed.into_inner();
    let accepted = metrics.connections_accepted.into_inner();

    all_latencies.sort_unstable();
    let n = all_latencies.len();
    OverloadPoint {
        sessions,
        workers,
        served: n,
        degraded,
        sheds,
        shed_rate: if accepted == 0 { 0.0 } else { sheds as f64 / accepted as f64 },
        wall_ms: wall.as_secs_f64() * 1e3,
        goodput_qps: if wall.is_zero() { 0.0 } else { n as f64 / wall.as_secs_f64() },
        p50_ns: percentile(&all_latencies, 50),
        p99_ns: percentile(&all_latencies, 99),
    }
}

/// One warm-multi-tenant point's aggregated numbers (E18).
struct WarmPoint {
    variant: &'static str,
    tenants: usize,
    requests: usize,
    wall_ms: f64,
    qps: f64,
    probes_executed: u64,
    probes_per_request: f64,
    cache_bytes: u64,
    cache_evictions: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// Scrubbed warm-state canary report (executed-query counts and wall
    /// clocks blanked), for the cross-point identity assertion.
    canary: String,
}

/// Blanks the per-interpretation query count and wall clock of rendered
/// report lines — `(12 SQL queries, 1.3ms)` → `(q SQL queries, t)` — the
/// same scrub the cache-equivalence suites use: cached verdicts legitimately
/// shrink the executed-query count, everything else must match.
fn scrub(s: &str) -> String {
    s.lines()
        .map(|l| match l.find(" SQL queries, ") {
            Some(i) => match l[..i].rfind('(') {
                Some(j) => format!("{}(q SQL queries, t)", &l[..j]),
                None => l.to_string(),
            },
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs one E18 point: `tenants` closed-loop clients (one per tenant) walk
/// the same workload phase-shifted by their index, so every query is cold
/// exactly once and a co-tenant repeat everywhere else. After the load
/// phase, a canary client replays the first workload query against the
/// warm server and the scrubbed report is kept for cross-point comparison.
fn run_warm_point(
    system: &kwdebug::debugger::NonAnswerDebugger,
    tenants: usize,
    queries: usize,
    workers: usize,
    shared: Option<SharedCacheConfig>,
    variant: &'static str,
) -> WarmPoint {
    let config = ServeConfig {
        workers,
        // E18 measures cache behavior, not admission: every tenant (plus the
        // canary) must be resident at once, so the in-flight gate stays open.
        max_inflight: tenants + 1,
        debug: *system.config(),
        shared_cache: shared,
        ..ServeConfig::default()
    };
    let server = Server::start(
        system.shared_parts(),
        TenantRegistry::new(TenantPolicy::default()),
        config,
    )
    .expect("server binds on loopback");
    let addr = server.addr();
    let workload = datagen::paper_queries();

    let t0 = Instant::now();
    let mut requests = 0usize;
    std::thread::scope(|s| {
        let workload = &workload;
        let handles: Vec<_> = (0..tenants)
            .map(|ti| {
                s.spawn(move || {
                    let tenant = format!("tenant{ti}");
                    let mut client =
                        DebugClient::connect(addr, &tenant).expect("session admitted");
                    for qi in 0..queries {
                        let q = &workload[(ti + qi) % workload.len()];
                        client.debug(q.text).expect("query served");
                    }
                    client.bye().expect("clean goodbye");
                    queries
                })
            })
            .collect();
        for h in handles {
            requests += h.join().expect("tenant thread");
        }
    });
    let wall = t0.elapsed();

    let mut canary_client = DebugClient::connect(addr, "canary").expect("canary admitted");
    let canary =
        scrub(&canary_client.debug(workload[0].text).expect("canary served").report.to_string());
    canary_client.bye().expect("clean goodbye");

    let metrics = server.shutdown();
    let probes = metrics.probes_executed.into_inner();
    let ok = metrics.queries_ok.into_inner();
    WarmPoint {
        variant,
        tenants,
        requests,
        wall_ms: wall.as_secs_f64() * 1e3,
        qps: if wall.is_zero() { 0.0 } else { requests as f64 / wall.as_secs_f64() },
        probes_executed: probes,
        probes_per_request: if ok == 0 { 0.0 } else { probes as f64 / ok as f64 },
        cache_bytes: metrics.shared_cache_bytes.into_inner(),
        cache_evictions: metrics.shared_cache_evictions.into_inner(),
        cache_hits: metrics.shared_cache_hits.into_inner(),
        cache_misses: metrics.shared_cache_misses.into_inner(),
        canary,
    }
}

/// One cross-session batching point's aggregated numbers (E20).
struct BatchPoint {
    variant: &'static str,
    tenants: usize,
    probe_latency: Duration,
    requests: usize,
    wall_ms: f64,
    qps: f64,
    probes_executed: u64,
    probes_per_request: f64,
    merged_waves: u64,
    coalesce_ratio: f64,
    p50_ns: u64,
    p99_ns: u64,
}

/// Runs one E20 point: `tenants` closed-loop clients walk the same workload
/// *aligned per request* (a barrier before every query), so concurrent
/// sessions need the same probes at about the same time — the workload
/// shape single-flight exists for. A nonzero `probe_latency` makes every
/// probe sleep that long (a latency-only fault schedule).
/// Latencies are server-observed service times, the same clock as E17.
/// Shared cache stays off: batching must earn its probe savings alone, on a
/// cold store.
fn run_batch_point(
    system: &kwdebug::debugger::NonAnswerDebugger,
    tenants: usize,
    queries: usize,
    workers: usize,
    batching: Option<BatchConfig>,
    probe_latency: Duration,
    variant: &'static str,
) -> BatchPoint {
    let mut debug = *system.config();
    if !probe_latency.is_zero() {
        debug.chaos = Some(FaultConfig {
            latency_per_mille: 1000,
            latency: probe_latency,
            ..FaultConfig::quiet(0)
        });
    }
    let config = ServeConfig {
        workers,
        // E20 measures dispatch, not admission: every tenant resident.
        max_inflight: tenants + 1,
        debug,
        batching,
        ..ServeConfig::default()
    };
    let server = Server::start(
        system.shared_parts(),
        TenantRegistry::new(TenantPolicy::default()),
        config,
    )
    .expect("server binds on loopback");
    let addr = server.addr();
    let workload = datagen::paper_queries();
    let barrier = Barrier::new(tenants);

    let t0 = Instant::now();
    let mut all_latencies: Vec<u64> = Vec::with_capacity(tenants * queries);
    std::thread::scope(|s| {
        let workload = &workload;
        let barrier = &barrier;
        let handles: Vec<_> = (0..tenants)
            .map(|ti| {
                s.spawn(move || {
                    let tenant = format!("tenant{ti}");
                    let mut client =
                        DebugClient::connect(addr, &tenant).expect("session admitted");
                    let mut latencies = Vec::with_capacity(queries);
                    for qi in 0..queries {
                        // Align every tenant on the same query so their
                        // frontiers genuinely overlap in flight.
                        barrier.wait();
                        let q = &workload[qi % workload.len()];
                        let wire = client.debug(q.text).expect("query served");
                        latencies.push(wire.server_ns);
                    }
                    client.bye().expect("clean goodbye");
                    latencies
                })
            })
            .collect();
        for h in handles {
            all_latencies.extend(h.join().expect("tenant thread"));
        }
    });
    let wall = t0.elapsed();

    let (merged, submitted, coalesced) = server
        .wave_exchange()
        .map_or((0, 0, 0), |ex| (ex.merged_waves(), ex.submitted_probes(), ex.coalesced_probes()));
    let metrics = server.shutdown();
    let probes = metrics.probes_executed.into_inner();
    let ok = metrics.queries_ok.into_inner();
    all_latencies.sort_unstable();
    BatchPoint {
        variant,
        tenants,
        probe_latency,
        requests: all_latencies.len(),
        wall_ms: wall.as_secs_f64() * 1e3,
        qps: if wall.is_zero() { 0.0 } else { all_latencies.len() as f64 / wall.as_secs_f64() },
        probes_executed: probes,
        probes_per_request: if ok == 0 { 0.0 } else { probes as f64 / ok as f64 },
        merged_waves: merged,
        coalesce_ratio: if submitted == 0 { 0.0 } else { coalesced as f64 / submitted as f64 },
        p50_ns: percentile(&all_latencies, 50),
        p99_ns: percentile(&all_latencies, 99),
    }
}

fn batch_record(args: &Args, p: &BatchPoint, workers: usize) -> String {
    format!(
        "{{\"coalesce_ratio\":{:.4},\"experiment\":\"serve\",\"latency_p50_ns\":{},\
         \"latency_p99_ns\":{},\"max_level\":{},\"merged_waves\":{},\"probe_latency_us\":{},\
         \"probes_executed\":{},\"probes_per_request\":{:.3},\"qps\":{:.2},\"requests\":{},\
         \"scale\":\"{}\",\
         \"seed\":{},\"tenants\":{},\"variant\":\"{}\",\"wall_ms\":{:.3},\"workers\":{}}}",
        p.coalesce_ratio,
        p.p50_ns,
        p.p99_ns,
        args.max_level,
        p.merged_waves,
        p.probe_latency.as_micros(),
        p.probes_executed,
        p.probes_per_request,
        p.qps,
        p.requests,
        args.scale.name(),
        args.seed,
        p.tenants,
        p.variant,
        p.wall_ms,
        workers,
    )
}

fn warm_record(args: &Args, p: &WarmPoint, workers: usize) -> String {
    format!(
        "{{\"cache_bytes\":{},\"cache_evictions\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"experiment\":\"serve\",\"max_level\":{},\"probes_executed\":{},\
         \"probes_per_request\":{:.3},\"qps\":{:.2},\"requests\":{},\"scale\":\"{}\",\
         \"seed\":{},\"tenants\":{},\"variant\":\"{}\",\"wall_ms\":{:.3},\"workers\":{}}}",
        p.cache_bytes,
        p.cache_evictions,
        p.cache_hits,
        p.cache_misses,
        args.max_level,
        p.probes_executed,
        p.probes_per_request,
        p.qps,
        p.requests,
        args.scale.name(),
        args.seed,
        p.tenants,
        p.variant,
        p.wall_ms,
        workers,
    )
}

fn overload_record(args: &Args, variant: &str, p: &OverloadPoint) -> String {
    format!(
        "{{\"degraded\":{},\"experiment\":\"serve\",\"goodput_qps\":{:.2},\
         \"latency_p50_ns\":{},\"latency_p99_ns\":{},\"max_level\":{},\"scale\":\"{}\",\
         \"seed\":{},\"served\":{},\"sessions\":{},\"shed_rate\":{:.4},\"sheds\":{},\
         \"variant\":\"{}\",\"wall_ms\":{:.3},\"workers\":{}}}",
        p.degraded,
        p.goodput_qps,
        p.p50_ns,
        p.p99_ns,
        args.max_level,
        args.scale.name(),
        args.seed,
        p.served,
        p.sessions,
        p.shed_rate,
        p.sheds,
        variant,
        p.wall_ms,
        p.workers,
    )
}

fn main() {
    let args = parse_args();
    eprintln!(
        "building system (scale {}, level {}, seed {})...",
        args.scale.name(),
        args.max_level,
        args.seed
    );
    let system = build_system(args.scale, args.seed, args.max_level);
    eprintln!(
        "serving {} tuples / {} lattice nodes; sweeping sessions {:?} x {} queries each",
        system.database().total_rows(),
        system.lattice().node_count(),
        args.sessions,
        args.queries
    );

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &sessions in &args.sessions {
        let workers = args.workers.unwrap_or(sessions);
        let p = run_point(&system, sessions, args.queries, workers);
        let us = |ns: u64| ns as f64 / 1e3;
        rows.push(vec![
            p.sessions.to_string(),
            p.workers.to_string(),
            p.queries.to_string(),
            format!("{:.1}", p.wall_ms),
            format!("{:.0}", p.qps),
            format!("{:.1}", us(p.p50_ns)),
            format!("{:.1}", us(p.p99_ns)),
            format!("{:.1}", us(p.mean_ns)),
            format!("{:.1}", us(p.max_ns)),
        ]);
        records.push(format!(
            "{{\"degraded\":{},\"experiment\":\"serve\",\"latency_max_ns\":{},\
             \"latency_mean_ns\":{},\"latency_p50_ns\":{},\"latency_p99_ns\":{},\
             \"max_level\":{},\"qps\":{:.2},\"queries\":{},\"scale\":\"{}\",\"seed\":{},\
             \"sessions\":{},\"wall_ms\":{:.3},\"workers\":{}}}",
            p.degraded,
            p.max_ns,
            p.mean_ns,
            p.p50_ns,
            p.p99_ns,
            args.max_level,
            p.qps,
            p.queries,
            args.scale.name(),
            args.seed,
            p.sessions,
            p.wall_ms,
            p.workers,
        ));
    }

    println!("\nE16: closed-loop serving throughput and latency (client-side clocks)");
    print_table(
        &[
            "sessions", "workers", "requests", "wall ms", "QPS", "p50 us", "p99 us", "mean us",
            "max us",
        ],
        &rows,
    );
    println!();

    if args.overload {
        // Size the overload protocol to the machine: more worker threads
        // than cores just measures the scheduler, not the admission gate.
        let workers = args
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
            })
            .max(1);
        eprintln!(
            "overload protocol: workers {workers}, gate {}, sessions {} then {}",
            workers * 2,
            workers,
            workers * 6
        );
        // Same total request count on both points (p99 over a dozen samples
        // is a coin flip, so both points serve 24× the per-session query
        // budget): the uncontended point runs few long sessions, the
        // overload point spreads the same work over 6× the sessions.
        let base = run_overload_point(&system, workers, args.queries * 24, workers);
        let hot = run_overload_point(&system, workers * 6, args.queries * 4, workers);
        let us = |ns: u64| ns as f64 / 1e3;
        let overload_rows: Vec<Vec<String>> = [("uncontended", &base), ("overload", &hot)]
            .iter()
            .map(|(variant, p)| {
                vec![
                    (*variant).to_string(),
                    p.sessions.to_string(),
                    p.served.to_string(),
                    p.sheds.to_string(),
                    format!("{:.1}%", p.shed_rate * 100.0),
                    format!("{:.0}", p.goodput_qps),
                    format!("{:.1}", us(p.p50_ns)),
                    format!("{:.1}", us(p.p99_ns)),
                ]
            })
            .collect();
        println!("E17: overload shed-not-collapse (served requests only)");
        print_table(
            &["variant", "sessions", "served", "sheds", "shed rate", "goodput", "p50 us", "p99 us"],
            &overload_rows,
        );
        let ratio = if base.p99_ns == 0 { 0.0 } else { hot.p99_ns as f64 / base.p99_ns as f64 };
        println!(
            "\noverload p99 / uncontended p99 = {ratio:.2} (shed-not-collapse target: <= 2.0)"
        );
        println!();
        records.push(overload_record(&args, "uncontended", &base));
        records.push(overload_record(&args, "overload", &hot));
    }

    if args.warm {
        let tenants = 8;
        // Phase-shifted over a 10-query workload, each query is cold once
        // and a co-tenant repeat ~ (tenants × queries / 10 − 1) times; 3×
        // the per-session budget keeps the warm fraction high enough that
        // the steady state dominates the aggregate.
        let wq = args.queries * 3;
        let workers = args
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
            })
            .max(1);
        eprintln!("warm protocol: {tenants} tenants x {wq} overlapping queries, {workers} workers");
        let off = run_warm_point(&system, tenants, wq, workers, None, "warm_off");
        let on = run_warm_point(
            &system,
            tenants,
            wq,
            workers,
            Some(SharedCacheConfig::default()),
            "warm_shared",
        );
        // Over-budget point: a ceiling at a quarter of the measured warm
        // working set (whatever the scale) guarantees eviction pressure.
        let tiny_budget = (on.cache_bytes / 4).max(64);
        let tiny = run_warm_point(
            &system,
            tenants,
            wq,
            workers,
            Some(SharedCacheConfig { budget_bytes: Some(tiny_budget), online_pa: true }),
            "warm_shared_tiny_budget",
        );

        let warm_rows: Vec<Vec<String>> = [&off, &on, &tiny]
            .iter()
            .map(|p| {
                vec![
                    p.variant.to_string(),
                    p.requests.to_string(),
                    format!("{:.1}", p.wall_ms),
                    format!("{:.0}", p.qps),
                    p.probes_executed.to_string(),
                    format!("{:.2}", p.probes_per_request),
                    p.cache_hits.to_string(),
                    p.cache_misses.to_string(),
                    p.cache_evictions.to_string(),
                    p.cache_bytes.to_string(),
                ]
            })
            .collect();
        println!("E18: warm multi-tenant shared-cache protocol (8 overlapping tenants)");
        print_table(
            &[
                "variant", "requests", "wall ms", "QPS", "probes", "probes/req", "hits",
                "misses", "evictions", "bytes",
            ],
            &warm_rows,
        );
        let qps_ratio = if off.qps == 0.0 { 0.0 } else { on.qps / off.qps };
        let probe_ratio = if on.probes_per_request == 0.0 {
            0.0
        } else {
            off.probes_per_request / on.probes_per_request
        };
        println!(
            "\nshared-on / shared-off: {qps_ratio:.2}x QPS, {probe_ratio:.2}x fewer probes \
             per request (target: >= 2.0x on either axis)"
        );
        println!();

        // Sharing the cache must never change answers: the warm canary
        // reports agree across all three points once executed-query counts
        // and timings are blanked.
        assert_eq!(off.canary, on.canary, "E18: shared-cache canary report diverged");
        assert_eq!(off.canary, tiny.canary, "E18: tiny-budget canary report diverged");
        // The byte budget is a hard ceiling: the over-budget point (capped
        // at a quarter of the measured warm working set) must have evicted
        // while the final accounted footprint stays at or under the budget.
        assert!(tiny.cache_evictions > 0, "E18: over-budget run never evicted");
        assert!(
            tiny.cache_bytes <= tiny_budget,
            "E18: cache_bytes {} exceeds budget {tiny_budget}",
            tiny.cache_bytes
        );
        records.push(warm_record(&args, &off, workers));
        records.push(warm_record(&args, &on, workers));
        records.push(warm_record(&args, &tiny, workers));
    }

    if args.batch {
        let tenants = 8;
        let bq = args.queries * 2;
        // Every tenant must be resident and in flight at once for probes to
        // overlap, so the service capacity matches the tenant count.
        let workers = args.workers.unwrap_or(tenants).max(1);
        let on_knob = Some(BatchConfig);
        // A remote-probe model: every probe sleeps 1 ms.
        let lat = Duration::from_millis(1);
        let zero = Duration::ZERO;
        eprintln!("batch protocol: {tenants} tenants x {bq} aligned queries, {workers} workers");
        let off = run_batch_point(&system, tenants, bq, workers, None, lat, "batch_off");
        let on = run_batch_point(&system, tenants, bq, workers, on_knob, lat, "batch_on");
        // Ungated: µs-scale probes rarely overlap in flight.
        let off0 = run_batch_point(&system, tenants, bq, workers, None, zero, "batch_off_nolat");
        let on0 = run_batch_point(&system, tenants, bq, workers, on_knob, zero, "batch_on_nolat");
        // A solo tenant through a batching-enabled server never waits and
        // pays only a table lookup per probe.
        let sq = args.queries * 8;
        let solo_off = run_batch_point(&system, 1, sq, 2, None, zero, "batch_solo_off");
        let solo_on = run_batch_point(&system, 1, sq, 2, on_knob, zero, "batch_solo_on");

        let us = |ns: u64| ns as f64 / 1e3;
        let batch_rows: Vec<Vec<String>> = [&off, &on, &off0, &on0, &solo_off, &solo_on]
            .iter()
            .map(|p| {
                vec![
                    p.variant.to_string(),
                    p.tenants.to_string(),
                    p.probe_latency.as_millis().to_string(),
                    p.requests.to_string(),
                    format!("{:.0}", p.qps),
                    p.probes_executed.to_string(),
                    format!("{:.2}", p.probes_per_request),
                    p.merged_waves.to_string(),
                    format!("{:.2}", p.coalesce_ratio),
                    format!("{:.1}", us(p.p50_ns)),
                    format!("{:.1}", us(p.p99_ns)),
                ]
            })
            .collect();
        println!("E20: cross-session single-flight probing (8 aligned tenants, cold shared cache)");
        print_table(
            &[
                "variant", "tenants", "lat ms", "requests", "QPS", "probes", "probes/req",
                "merged", "coalesce", "p50 us", "p99 us",
            ],
            &batch_rows,
        );
        let ratio = |off: &BatchPoint, on: &BatchPoint| {
            if on.probes_per_request == 0.0 {
                0.0
            } else {
                off.probes_per_request / on.probes_per_request
            }
        };
        let probe_ratio = ratio(&off, &on);
        println!(
            "\nbatch-on / batch-off at 1 ms probes: {probe_ratio:.2}x fewer probe executions \
             per request (target: >= 2.0x)"
        );
        println!(
            "batch-on / batch-off at zero latency: {:.2}x fewer probe executions per request \
             (ungated)",
            ratio(&off0, &on0)
        );
        let solo_delta = if solo_off.p50_ns == 0 {
            0.0
        } else {
            solo_on.p50_ns as f64 / solo_off.p50_ns as f64
        };
        println!("solo p50 with batching on / off = {solo_delta:.2} (target: <= 1.10)");
        println!();
        assert!(
            probe_ratio >= 2.0,
            "E20: batching saved only {probe_ratio:.2}x probes per request (need >= 2.0x)"
        );
        assert!(on.merged_waves > 0, "E20: aligned tenants never waited on an in-flight probe");
        assert_eq!(solo_on.merged_waves, 0, "E20: a solo tenant waited on an in-flight probe");
        // 10% relative plus a small absolute floor — on the tiny scale a
        // request is tens of microseconds and scheduler jitter dominates.
        assert!(
            solo_on.p50_ns as f64 <= solo_off.p50_ns as f64 * 1.10 + 300_000.0,
            "E20: solo p50 {}ns vs {}ns off — the uncontended path must stay free",
            solo_on.p50_ns,
            solo_off.p50_ns
        );
        records.push(batch_record(&args, &off, workers));
        records.push(batch_record(&args, &on, workers));
        records.push(batch_record(&args, &off0, workers));
        records.push(batch_record(&args, &on0, workers));
        records.push(batch_record(&args, &solo_off, 2));
        records.push(batch_record(&args, &solo_on, 2));
    }

    write_records("exp_serve", &records);
}
