//! `serve-closed`: a `kwserve::Server` on loopback (2 workers, shared cache
//! and batching on at their defaults) and two tenant connections, each a
//! closed loop. Most requests draw from one Zipf-skewed query pool both
//! tenants share, warmed before the clock starts; a fixed seeded share are
//! fresh queries from each tenant's own stream, mostly never sent before,
//! whose probes miss the shared cache and reach the wave exchange. Both tenants are always in flight, so the
//! exchange sees concurrent sessions on every request.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use kwdebug::binding::{map_keywords, KeywordQuery};
use kwdebug::debugger::NonAnswerDebugger;
use kwdebug::metrics::ProbeCounters;
use kwdebug::prune::PrunedLattice;
use kwdebug::workspace::QueryWorkspace;
use kwdebug::BatchConfig;
use kwserve::{DebugClient, ServeConfig, Server, SharedCacheConfig, TenantPolicy, TenantRegistry};

use crate::check::{outcome, Mix};
use crate::hostspeed::{self, HostSpeed, SEGMENT};
use crate::inputs::{self, QueryStream, Vocab, ZipfPool};
use crate::stats::{mean, median, ratio};
use crate::trace::Tracer;
use crate::{finish_setup, lib_cold, peak_rss_mb, set_latency, timed_setup, Args, Outcome};

/// Distinct queries in the shared pool.
const POOL: usize = 2000;
/// Zipf exponent of the pool's popularity (synthetic: the repository has
/// no record of real traffic).
const ZIPF_S: f64 = 0.5;
/// One request in this many is a fresh query from the tenant's own
/// unbounded stream instead of a pool draw.
const FRESH_EVERY: u64 = 4;
/// Requests after which `peak_rss_mb` is read: the shared cache and the
/// kept replies grow with the requests a run completes.
const RSS_AFTER: u64 = 6000;
/// Distinct fresh queries per run whose replies are checked against a
/// direct `debug()`; pool queries are all checked.
const FRESH_CHECKED: usize = 300;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// The debugger (kept for the reference reports) and the server over its
/// shared parts; dropping it shuts the server down and joins its threads.
struct Served {
    sys: NonAnswerDebugger,
    server: Option<Server>,
}

impl Served {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn start(seed: u64) -> Served {
    let sys = lib_cold::build(seed);
    let config = ServeConfig {
        workers: 2,
        debug: *sys.config(),
        shared_cache: Some(SharedCacheConfig::default()),
        batching: Some(BatchConfig::default()),
        ..ServeConfig::default()
    };
    let server = Server::start(
        sys.shared_parts(),
        TenantRegistry::new(TenantPolicy::default()),
        config,
    )
    .expect("server starts on loopback");
    Served {
        sys,
        server: Some(server),
    }
}

/// One request as the client saw it.
struct Reply {
    query: String,
    sent: Instant,
    done: Instant,
    server_ns: u64,
    /// What the decoded report held; the error when the request failed or
    /// was refused.
    report: Result<Received, String>,
}

/// The parts of a decoded wire report the benchmark keeps.
struct Received {
    /// Hash of the report with its probe-work counters scrubbed.
    hash: u64,
    probes: ProbeCounters,
    degraded: bool,
    non_answer: bool,
    multi_interpretation: bool,
}

fn outcome_hash(report: &kwdebug::DebugReport) -> u64 {
    let mut h = DefaultHasher::new();
    outcome(report).hash(&mut h);
    h.finish()
}

/// One tenant's closed loop over one connection: sends the next query as
/// soon as the previous reply is in, until `next` runs dry.
fn tenant(
    addr: SocketAddr,
    name: &str,
    mut next: impl FnMut() -> Option<String>,
) -> (Vec<Reply>, Vec<f64>) {
    let mut connects = Vec::new();
    let connect = |connects: &mut Vec<f64>| {
        let c0 = Instant::now();
        let client = DebugClient::connect_with_timeout(addr, name, Some(Duration::from_secs(30)));
        connects.push(c0.elapsed().as_secs_f64() * 1e3);
        client.ok()
    };
    let mut client = connect(&mut connects);
    let mut replies = Vec::new();
    while let Some(query) = next() {
        if client.is_none() {
            client = connect(&mut connects);
        }
        let sent = Instant::now();
        let result = match client.as_mut() {
            Some(c) => c.debug(&query).map_err(|e| e.to_string()),
            None => Err("not connected".to_owned()),
        };
        let done = Instant::now();
        let server_ns = result.as_ref().map_or(0, |w| w.server_ns);
        let report = result.map(|w| Received {
            hash: outcome_hash(&w.report),
            probes: w.report.probes(),
            degraded: w.degraded,
            non_answer: w.report.non_answer_count() > 0,
            multi_interpretation: w.report.interpretations.len() > 1,
        });
        if report.is_err() {
            client = None;
        }
        replies.push(Reply {
            query,
            sent,
            done,
            server_ns,
            report,
        });
    }
    if let Some(c) = client {
        let _ = c.bye();
    }
    (replies, connects)
}

/// Runs one closed loop per tenant concurrently; tenant `t` draws its
/// queries from `source(t)`.
fn play<F: FnMut() -> Option<String> + Send>(
    addr: SocketAddr,
    source: impl Fn(usize) -> F,
) -> (Vec<Reply>, Vec<f64>) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = TENANTS
            .iter()
            .enumerate()
            .map(|(t, name)| {
                let next = source(t);
                scope.spawn(move || tenant(addr, name, next))
            })
            .collect();
        let (mut replies, mut connects) = (Vec::new(), Vec::new());
        for h in handles {
            let (r, c) = h.join().expect("tenant thread");
            replies.extend(r);
            connects.extend(c);
        }
        (replies, connects)
    })
}

/// Cumulative exchange and cache counters, read before and after the
/// measured phase.
#[derive(Clone, Copy, Default)]
struct Gauges {
    merged_waves: u64,
    submitted: u64,
    coalesced: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidated: u64,
}

fn gauges(server: &Server) -> Gauges {
    let mut g = Gauges::default();
    if let Some(x) = server.wave_exchange() {
        g.merged_waves = x.merged_waves();
        g.submitted = x.submitted_probes();
        g.coalesced = x.coalesced_probes();
    }
    if let Some(c) = server.shared_cache() {
        g.hits = c.hits();
        g.misses = c.misses();
        g.evictions = c.evictions();
        g.invalidated = c.invalidated();
    }
    g
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (served, vocab) = timed_setup(
        &mut out,
        || start(args.seed),
        |s| Vocab::from_database(s.sys.database()),
    );
    let pool = ZipfPool::new(&mut QueryStream::new(&vocab, args.seed, 1), POOL, ZIPF_S);
    let addr = served.server().addr();

    // Warm-up: every pool query once, split over the tenants, so pool
    // draws in the measured phase find a warm shared cache.
    play(addr, |t| {
        let mut queries = pool
            .queries()
            .iter()
            .skip(t)
            .step_by(TENANTS.len())
            .cloned();
        move || queries.next()
    });
    let before = gauges(served.server());
    let shed_before = shed(served.server());
    let tracer = Tracer::new();
    // The measured phase runs in segments of about `SEGMENT`. At each cut,
    // one before the first request and one after every segment, the
    // tenants wait until neither has a request in flight, then each takes a
    // host-speed reading at the same time, so that the load's processors
    // are read alike; the cut's reading is their mean.
    let segments = ((args.seconds / SEGMENT.as_secs_f64()).ceil() as u32).max(1);
    let cut = Barrier::new(TENANTS.len());
    let readings = Mutex::new(Vec::new());
    let host = Mutex::new(HostSpeed::new());
    let t0 = Instant::now();
    let sent = AtomicU64::new(0);
    let rss = Mutex::new(None);
    let (replies, connects) = play(addr, |t| {
        let mut rng = inputs::rng(args.seed, 10 + t as u64);
        let mut fresh = QueryStream::new(&vocab, args.seed, 2 + t as u64);
        let (pool, sent, rss, cut, readings, host) = (&pool, &sent, &rss, &cut, &readings, &host);
        let mut cuts = 0;
        move || {
            if cuts == 0 || t0.elapsed() >= SEGMENT * cuts {
                cut.wait();
                let start = Instant::now();
                let r = hostspeed::reading();
                readings.lock().unwrap().push((start, r));
                if cut.wait().is_leader() {
                    let taken: Vec<(Instant, f64)> = std::mem::take(&mut readings.lock().unwrap());
                    let start = taken
                        .iter()
                        .map(|r| r.0)
                        .min()
                        .expect("a reading per tenant");
                    let mean = taken.iter().map(|r| r.1).sum::<f64>() / taken.len() as f64;
                    host.lock().unwrap().push(start, Instant::now(), mean);
                }
                cut.wait();
                cuts += 1;
                if cuts > segments {
                    return None;
                }
            }
            if sent.fetch_add(1, Ordering::Relaxed) == RSS_AFTER {
                *rss.lock().unwrap() = Some(peak_rss_mb());
            }
            Some(if rng.below(FRESH_EVERY) == 0 {
                fresh.next_query()
            } else {
                pool.draw(&mut rng).to_owned()
            })
        }
    });
    let host = host.into_inner().unwrap();
    if let Some(mb) = rss.into_inner().unwrap() {
        out.set("peak_rss_mb", mb);
    }
    let after = gauges(served.server());
    let shed = shed(served.server()) - shed_before;

    let mut latency = Vec::new();
    let mut probes = ProbeCounters::default();
    let mut degraded = 0u64;
    for r in &replies {
        out.attempted += 1;
        match &r.report {
            Ok(got) if !got.degraded => {
                latency.push((r.sent, (r.done - r.sent).as_secs_f64() * 1e3));
                probes.accumulate(got.probes);
            }
            Ok(_) => {
                degraded += 1;
                out.failed += 1;
            }
            Err(e) => {
                if out.failed == 0 {
                    out.notes.push(format!("request `{}` failed: {e}", r.query));
                }
                out.failed += 1;
            }
        }
    }
    let ok = latency.len() as f64;
    set_latency(&mut out, &host, &latency);

    // Per-layer figures from what the program returns: counters on every
    // report, `server_ns` on every reply, the server's own gauges.
    let server_ms: Vec<f64> = replies.iter().map(|r| r.server_ns as f64 / 1e6).collect();
    let wire_ms: Vec<f64> = replies
        .iter()
        .filter(|r| r.report.is_ok())
        .map(|r| (r.done - r.sent).as_secs_f64() * 1e3 - r.server_ns as f64 / 1e6)
        .collect();
    out.set("kwserve.server_ms", median(&server_ms));
    out.set("kwserve.wire_ms", median(&wire_ms));
    out.set("kwserve.connect_ms", mean(&connects));
    out.set(
        "kwserve.probes_per_req",
        ratio(probes.probes_executed as f64, ok),
    );
    out.set("kwserve.degraded", degraded as f64);
    out.set("kwserve.shed", shed as f64);
    out.set("traversal.probes", ratio(probes.probes_executed as f64, ok));
    let inferred = (probes.r1_inferences + probes.r2_inferences + probes.reuse_hits) as f64;
    out.set(
        "traversal.inference_share",
        ratio(inferred, inferred + probes.probes_executed as f64),
    );
    out.set("traversal.memo_hits", ratio(probes.memo_hits as f64, ok));
    out.set(
        "relengine.tuples_per_probe",
        ratio(probes.tuples_scanned as f64, probes.probes_executed as f64),
    );
    let lookups = (after.hits - before.hits + after.misses - before.misses) as f64;
    out.set(
        "evalcache.hit_ratio",
        ratio((after.hits - before.hits) as f64, lookups),
    );
    out.set(
        "evalcache.bytes",
        served.server().shared_cache().map_or(0, |c| c.bytes()) as f64,
    );
    out.set(
        "evalcache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    out.set(
        "evalcache.verdict_hits",
        ratio(probes.verdict_cache_hits as f64, ok),
    );
    out.set(
        "evalcache.invalidated",
        (after.invalidated - before.invalidated) as f64,
    );
    out.set(
        "batch.merged_waves_per_req",
        ratio((after.merged_waves - before.merged_waves) as f64, ok),
    );
    let submitted = (after.submitted - before.submitted) as f64;
    out.set(
        "batch.coalesce_ratio",
        ratio((after.coalesced - before.coalesced) as f64, submitted),
    );
    out.set(
        "batch.coalesced_probes",
        (after.coalesced - before.coalesced) as f64,
    );
    out.set("batch.submitted_per_req", ratio(submitted, ok));
    if submitted == 0.0 {
        out.notes
            .push("WARNING the wave exchange received no probe in the measured phase".into());
    }

    // Output check, off the clock: each decoded reply must equal a direct
    // `debug()` of the same query, probe-work counters scrubbed. Every pool
    // query is checked; of the fresh ones only the first FRESH_CHECKED
    // distinct queries, to bound the check's time.
    let pooled: HashSet<&str> = pool.queries().iter().map(String::as_str).collect();
    let mut fresh_checked = 0;
    let mut mix = Mix::default();
    let mut reference: HashMap<&str, u64> = HashMap::new();
    for r in &replies {
        let Ok(got) = &r.report else { continue };
        mix.add_shape(&r.query, got.non_answer, got.multi_interpretation);
        let query = r.query.as_str();
        if !reference.contains_key(query) {
            if !pooled.contains(query) {
                if fresh_checked == FRESH_CHECKED {
                    continue;
                }
                fresh_checked += 1;
            }
            match served.sys.debug(query) {
                Ok(direct) => {
                    reference.insert(query, outcome_hash(&direct));
                }
                Err(e) => {
                    out.mismatch(format!("direct debug of `{query}` failed: {e}"));
                    continue;
                }
            }
        }
        if got.hash != reference[query] {
            out.mismatch(format!("wire report of `{query}` differs from debug()"));
        }
    }
    mix.record(&mut out);

    if args.trace {
        phase12(&served.sys, reference.keys().copied(), &mut out);
        // Spans are built after the run from the instants every request
        // records anyway, so tracing adds nothing to a request's latency and
        // `trace.overhead_ms` stays 0.
        // The round trip is the request's timed latency, so the check here
        // is that `server_ns` fits inside it.
        let mut tracer = tracer;
        let mut latency_ns = BTreeMap::new();
        for (i, r) in replies.iter().enumerate().filter(|(_, r)| r.report.is_ok()) {
            let req = i as u64;
            let (sent, done) = (tracer.at(r.sent), tracer.at(r.done));
            let wire = tracer.record("kwserve.wire", req, None, sent, done, false);
            tracer.synthetic("kwserve.server", wire, 0, r.server_ns);
            latency_ns.insert(req, (r.done - r.sent).as_nanos() as u64);
        }
        out.add_self_times(&tracer, &latency_ns);
        out.tracer = Some(tracer);
    }
    drop(served);
    let vocab_of = |s: &Served| Vocab::from_database(s.sys.database());
    finish_setup(&mut out, || start(args.seed), vocab_of, &vocab);
    out
}

fn shed(server: &Server) -> u64 {
    use std::sync::atomic::Ordering::Relaxed;
    let m = server.metrics();
    m.requests_shed.load(Relaxed) + m.sessions_shed.load(Relaxed)
}

/// Phase 1–2 cost of the served queries, measured through the library
/// after the run: the server pays it inside `server_ns` on every request,
/// cache hits or not, and it cannot be timed from outside the server.
fn phase12<'q>(sys: &NonAnswerDebugger, queries: impl Iterator<Item = &'q str>, out: &mut Outcome) {
    let mut ws = QueryWorkspace::new();
    let (mut map_ns, mut prune_ns) = (Vec::new(), Vec::new());
    let (mut interps, mut touched, mut n) = (0u64, 0u64, 0u64);
    for q in queries {
        let Ok(query) = KeywordQuery::parse(q) else {
            continue;
        };
        let t0 = Instant::now();
        let mapping = map_keywords(&query, sys.index());
        map_ns.push(t0.elapsed().as_nanos() as f64);
        n += 1;
        for interp in &mapping.interpretations {
            let t1 = Instant::now();
            let pruned = PrunedLattice::build_with(sys.lattice(), interp, &mut ws);
            prune_ns.push(t1.elapsed().as_nanos() as f64);
            touched += pruned.phase1_nodes_touched();
            interps += 1;
        }
    }
    out.set("binding.map_us", mean(&map_ns) / 1e3);
    out.set("binding.interpretations", ratio(interps as f64, n as f64));
    out.set("prune.build_us", mean(&prune_ns) / 1e3);
    out.set("prune.nodes_touched", ratio(touched as f64, interps as f64));
}
