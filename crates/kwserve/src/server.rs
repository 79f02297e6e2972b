//! The TCP server: acceptor + dispatch queue + session workers, admission
//! control and load shedding, connection deadlines, panic isolation, and
//! server-level metrics.
//!
//! ## Threading model
//!
//! [`Server::start`] binds one [`TcpListener`] and spawns **one acceptor
//! thread** plus [`ServeConfig::workers`] session workers. The acceptor
//! never does per-connection work: it accepts, tries to take a slot from the
//! bounded in-flight gate ([`ServeConfig::max_inflight`]), and either hands
//! the connection to a worker through an in-process queue or — past the
//! high-water mark — answers `Error(Overloaded)` with a
//! [`ServeConfig::retry_after`] hint and closes. That is the load-shedding
//! contract: above capacity the server *sheds in O(1)* instead of letting
//! connections pile up in the OS backlog behind busy workers, so the
//! `Overloaded` answer arrives within one accept round-trip rather than
//! after an unbounded queue drains. Per-tenant fairness is still the
//! [`TenantRegistry`]'s job (session quotas and per-tenant in-flight request
//! caps, see `kwserve::tenant`).
//!
//! ## Connection deadlines
//!
//! Three clocks guard each connection, all distinct from the shutdown poll
//! tick ([`ServeConfig::poll_interval`]):
//!
//! * [`ServeConfig::frame_deadline`] — slowloris defense: a peer that has
//!   *started* a frame must finish it within this window or is disconnected
//!   with `Error(Timeout)`. The incremental [`FrameReader`] keeps partial
//!   bytes across poll ticks (fixing a latent torn-frame bug in the old
//!   blocking reader) and timestamps the frame's first byte.
//! * [`ServeConfig::idle_timeout`] — optional idle-session reaping between
//!   frames (off by default: an idle-but-polite session is cheap).
//! * [`ServeConfig::write_deadline`] — a peer that stops draining its
//!   receive window cannot block a worker forever; a timed-out write
//!   counts as `deadlines_hit` and drops the connection.
//!
//! ## Panic isolation
//!
//! Every `Debug` request runs under `catch_unwind`: a poisoned query (or an
//! injected chaos panic) answers `Error(Internal)` if the stream is still
//! writable and kills only its own connection, never the worker. All
//! accounting that must survive a panic — tenant session/request permits,
//! the in-flight gate slot — is RAII, released on unwind like any other
//! exit path.
//!
//! ## Per-session state
//!
//! Every admitted session builds its own [`NonAnswerDebugger`] via
//! [`NonAnswerDebugger::from_shared`]: the tenant's budget over the one
//! shared immutable database/index/lattice.
//! The evaluation cache is private per session by default; with
//! [`ServeConfig::shared_cache`] set, sessions instead attach to one
//! process-wide [`EvalCache`] keyed by the substrate's database
//! identity `(db_id, epoch)` and bounded by a byte-budget LRU, so
//! overlapping-keyword
//! tenants reuse each other's selections and verdicts (DESIGN.md
//! §12, CACHING.md; tenants opt out via `TenantPolicy::private_cache`).
//! Session construction is O(1), so a connection costs no Phase-0 work.
//! Under pressure, a configured
//! [`ServeConfig::request_deadline`] is scaled down by gate occupancy (see
//! [`scaled_deadline`]) and folded into the session's [`ProbeBudget`], so
//! late requests degrade to *sound partial reports* instead of timing out
//! silently.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] flips an atomic flag, pokes one dummy connection to
//! wake the acceptor, and notifies the workers' queue condvar. Workers
//! mid-session notice the flag at their next poll tick, answer
//! `ShuttingDown`, and exit; queued-but-unserved connections are drained
//! with `ShuttingDown` too. In-flight requests finish normally — a debug
//! call is never interrupted.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use kwdebug::batch::{BatchConfig, WaveExchange};
use kwdebug::budget::ProbeBudget;
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger, SharedParts};
use kwdebug::evalcache::EvalCache;
use kwdebug::metrics::{MetricsSnapshot, PhaseTiming, ProbeCounters};
use kwdebug::KwError;

use crate::chaos::{roll, ChaosConfig, ChaosStream};
use crate::protocol::{
    decode_request, encode_report, encode_response, write_frame, ErrorCode, FrameReader,
    Request, Response,
};
use crate::tenant::{SessionPermit, TenantRegistry};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: SocketAddr,
    /// Worker threads — the concurrent-session *service* capacity.
    pub workers: usize,
    /// Session read timeout: how often an idle session checks the shutdown
    /// flag and its deadlines. Bounds shutdown latency, not request latency.
    pub poll_interval: Duration,
    /// High-water mark of the in-flight connection gate: connections being
    /// served plus connections queued for a worker. Past it, new connections
    /// are shed with `Overloaded`. `0` (the default) means auto:
    /// `2 × workers` — every worker busy plus one queued behind each.
    pub max_inflight: usize,
    /// Slowloris defense: a peer that has started a frame must deliver the
    /// whole frame within this window or is disconnected with
    /// `Error(Timeout)`.
    pub frame_deadline: Duration,
    /// Socket write timeout: a peer that stops draining its receive window
    /// for this long is disconnected (counted in `deadlines_hit`).
    pub write_deadline: Duration,
    /// Idle-session reaping: a session with no traffic for this long is
    /// disconnected with `Error(Timeout)`. `None` (default) keeps idle
    /// sessions forever, matching pre-hardening behavior.
    pub idle_timeout: Option<Duration>,
    /// Per-request wall-clock deadline folded into the session's
    /// [`ProbeBudget`] — scaled *down* under load (see [`scaled_deadline`])
    /// so that pressure degrades reports (soundly, with `Unknown` bounds)
    /// instead of queue-collapsing. `None` (default) propagates nothing.
    pub request_deadline: Option<Duration>,
    /// The `retry_after_ms` hint attached to `Overloaded` answers.
    pub retry_after: Duration,
    /// Deterministic network-fault injection on accepted streams (see
    /// `kwserve::chaos`). `None` (default) serves plain sockets; a quiet
    /// config is byte-for-byte transparent.
    pub chaos: Option<ChaosConfig>,
    /// Base per-session debugger configuration (strategy, memoization,
    /// eval-cache, ...). A tenant's non-unlimited budget overrides
    /// `debug.budget`; `debug.max_joins` must match the shared lattice.
    pub debug: DebugConfig,
    /// Process-wide evaluation cache shared across every session of every
    /// tenant (`None`, the default, keeps the PR 5 behavior: one private
    /// cache per session). When set, the server creates one
    /// [`EvalCache`] stamped with the substrate's database identity
    /// `(db_id, epoch)`, forces
    /// `debug.eval_cache` on, and hands the store to each admitted session —
    /// so a keyword one tenant warmed is free for the next. The byte-budget
    /// LRU bounds residency; tenants can opt out per policy
    /// (`TenantPolicy::private_cache`). See CACHING.md and SERVING.md §7.
    pub shared_cache: Option<SharedCacheConfig>,
    /// Cross-session single-flight probing (`None`, the default, keeps every
    /// session executing its own probes). When set, the server creates one
    /// [`WaveExchange`] and attaches it to each admitted session's debugger:
    /// a probe whose canonical network on the same `(db_id, epoch)` snapshot
    /// another session is executing *right now* waits on that execution
    /// instead of running again. Nothing ever waits for a peer to arrive, so
    /// uncontended requests pay only a table lookup per probe, and reports
    /// stay byte-identical to runs without an exchange. See DESIGN.md §14
    /// and SERVING.md.
    pub batching: Option<BatchConfig>,
}

/// Configuration of the process-wide shared evaluation cache
/// ([`ServeConfig::shared_cache`]).
#[derive(Debug, Clone, Copy)]
pub struct SharedCacheConfig {
    /// LRU byte budget of the store (`None` = unbounded — only sensible for
    /// benchmarks). Defaults to 64 MiB: enough to keep the hot keyword
    /// working set of dozens of tenants resident on the paper's scales while
    /// bounding worst-case memory per process.
    pub budget_bytes: Option<u64>,
    /// Also enable cross-session online `p_a` estimation
    /// (`DebugConfig::online_pa`): executed verdicts from all sessions drive
    /// SBH priors instead of the fixed 0.5. On by default — it never changes
    /// reports, only probe order.
    pub online_pa: bool,
}

impl Default for SharedCacheConfig {
    fn default() -> Self {
        SharedCacheConfig { budget_bytes: Some(64 << 20), online_pa: true }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 4,
            poll_interval: Duration::from_millis(100),
            max_inflight: 0,
            frame_deadline: Duration::from_secs(10),
            write_deadline: Duration::from_secs(10),
            idle_timeout: None,
            request_deadline: None,
            retry_after: Duration::from_millis(100),
            chaos: None,
            debug: DebugConfig::default(),
            shared_cache: None,
            batching: None,
        }
    }
}

impl ServeConfig {
    /// The effective in-flight gate capacity (resolves the `0` = auto rule).
    pub fn effective_max_inflight(&self) -> usize {
        if self.max_inflight == 0 {
            self.workers.max(1) * 2
        } else {
            self.max_inflight
        }
    }
}

/// Monotonic server-wide counters (relaxed atomics, mirrored after
/// [`kwdebug::metrics`]).
///
/// Accounting invariant (asserted by the chaos soak): once the server is
/// shut down,
/// `connections_accepted == sessions_shed + sessions_admitted +
/// sessions_rejected + conns_failed` and
/// `sessions_admitted == sessions_closed`.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Follower waits on another session's in-flight probe (gauge,
    /// refreshed at every Metrics read; 0 when batching is off).
    pub batch_merged_waves: AtomicU64,
    /// Per-mille share of looked-up probes answered by another session's
    /// in-flight execution: `coalesced * 1000 / submitted` (gauge; 0 when
    /// batching is off or nothing has been looked up).
    pub batch_coalesce_ratio: AtomicU64,
    /// Connections accepted by the acceptor (excludes the shutdown wake-up).
    pub connections_accepted: AtomicU64,
    /// Connections shed at accept with `Overloaded` (gate at high water).
    pub sessions_shed: AtomicU64,
    /// `Debug` requests shed with `Overloaded` (tenant in-flight cap); the
    /// session survives.
    pub requests_shed: AtomicU64,
    /// Sessions admitted (Hello accepted).
    pub sessions_admitted: AtomicU64,
    /// Sessions refused by tenant quota.
    pub sessions_rejected: AtomicU64,
    /// Sessions ended (any reason) after admission.
    pub sessions_closed: AtomicU64,
    /// Accepted connections that ended without ever holding a session and
    /// without a counted rejection (peer vanished, pre-Hello protocol error,
    /// socket setup failure, drained at shutdown).
    pub conns_failed: AtomicU64,
    /// Debug requests answered with a report.
    pub queries_ok: AtomicU64,
    /// Debug requests refused (`BadQuery`).
    pub queries_rejected: AtomicU64,
    /// Reports flagged degraded (budget tripped mid-traversal).
    pub reports_degraded: AtomicU64,
    /// Frames or requests rejected as malformed (oversized length prefix,
    /// undecodable payload, protocol-state violations).
    pub frames_rejected: AtomicU64,
    /// Connection deadlines tripped: slowloris frames, idle reaping, and
    /// stuck writes.
    pub deadlines_hit: AtomicU64,
    /// Database write epoch of the served snapshot (gauge, fixed for the
    /// server's lifetime — a server holds one immutable snapshot; restart
    /// with the mutated [`SharedParts`] to serve a newer epoch).
    pub epoch: AtomicU64,
    /// Panics caught by per-request isolation (the connection dies, the
    /// worker survives).
    pub panics_caught: AtomicU64,
    /// Faults injected by `ChaosStream`s (shared with every wrapped
    /// connection; 0 when chaos is off or quiet).
    pub chaos_faults_injected: Arc<AtomicU64>,
    /// Aliveness probes executed across every session's reports (the
    /// probes-per-request denominator of E18's cache-efficiency ratio).
    pub probes_executed: AtomicU64,
    /// Resident bytes of the shared evaluation cache (gauge, refreshed at
    /// every Metrics read; 0 when `shared_cache` is off).
    pub shared_cache_bytes: AtomicU64,
    /// Entries evicted by the shared cache's LRU byte budget.
    pub shared_cache_evictions: AtomicU64,
    /// Lookups answered from the shared cache, across all sessions/layers.
    pub shared_cache_hits: AtomicU64,
    /// Shared-cache lookups that found nothing.
    pub shared_cache_misses: AtomicU64,
}

impl ServerMetrics {
    /// One stable-JSON object (sorted keys), same discipline as
    /// [`kwdebug::metrics::MetricsSnapshot::to_json`].
    pub fn to_json(&self) -> String {
        format!(
            "{{\"batch_coalesce_ratio\":{},\"batch_merged_waves\":{},\
             \"chaos_faults_injected\":{},\"connections_accepted\":{},\"conns_failed\":{},\
             \"deadlines_hit\":{},\"epoch\":{},\"frames_rejected\":{},\"panics_caught\":{},\
             \"probes_executed\":{},\"queries_ok\":{},\"queries_rejected\":{},\
             \"reports_degraded\":{},\"requests_shed\":{},\"sessions_admitted\":{},\
             \"sessions_closed\":{},\"sessions_rejected\":{},\"sessions_shed\":{},\
             \"shared_cache_bytes\":{},\"shared_cache_evictions\":{},\
             \"shared_cache_hits\":{},\"shared_cache_misses\":{}}}",
            self.batch_coalesce_ratio.load(Ordering::Relaxed),
            self.batch_merged_waves.load(Ordering::Relaxed),
            self.chaos_faults_injected.load(Ordering::Relaxed),
            self.connections_accepted.load(Ordering::Relaxed),
            self.conns_failed.load(Ordering::Relaxed),
            self.deadlines_hit.load(Ordering::Relaxed),
            self.epoch.load(Ordering::Relaxed),
            self.frames_rejected.load(Ordering::Relaxed),
            self.panics_caught.load(Ordering::Relaxed),
            self.probes_executed.load(Ordering::Relaxed),
            self.queries_ok.load(Ordering::Relaxed),
            self.queries_rejected.load(Ordering::Relaxed),
            self.reports_degraded.load(Ordering::Relaxed),
            self.requests_shed.load(Ordering::Relaxed),
            self.sessions_admitted.load(Ordering::Relaxed),
            self.sessions_closed.load(Ordering::Relaxed),
            self.sessions_rejected.load(Ordering::Relaxed),
            self.sessions_shed.load(Ordering::Relaxed),
            self.shared_cache_bytes.load(Ordering::Relaxed),
            self.shared_cache_evictions.load(Ordering::Relaxed),
            self.shared_cache_hits.load(Ordering::Relaxed),
            self.shared_cache_misses.load(Ordering::Relaxed),
        )
    }
}

/// The bounded in-flight connection gate: a lock-free counter with a
/// capacity, handed out as RAII [`InflightSlot`]s so a slot can never leak —
/// not on clean close, not on error, not on panic (unwind drops it).
struct InflightGate {
    count: AtomicUsize,
    capacity: usize,
}

impl InflightGate {
    fn try_acquire(self: &Arc<Self>) -> Option<InflightSlot> {
        let mut current = self.count.load(Ordering::Relaxed);
        loop {
            if current >= self.capacity {
                return None;
            }
            match self.count.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(InflightSlot { gate: Arc::clone(self) }),
                Err(now) => current = now,
            }
        }
    }
}

/// One admitted connection's gate slot; dropping it (any exit path,
/// including unwind) frees the slot.
struct InflightSlot {
    gate: Arc<InflightGate>,
}

impl Drop for InflightSlot {
    fn drop(&mut self) {
        self.gate.count.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A connection the acceptor admitted, waiting for a worker.
struct PendingConn {
    stream: TcpStream,
    /// Held from accept to connection end; dropping releases the gate.
    slot: InflightSlot,
    /// Admission index — salts the connection's chaos schedule.
    index: u64,
}

/// State shared by the acceptor and every worker thread.
struct Shared {
    parts: SharedParts,
    registry: Arc<TenantRegistry>,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    next_session: AtomicU64,
    next_conn: AtomicU64,
    inflight: Arc<InflightGate>,
    queue: Mutex<VecDeque<PendingConn>>,
    queue_cv: Condvar,
    config: ServeConfig,
    /// The process-wide evaluation cache, when [`ServeConfig::shared_cache`]
    /// is set (also attached inside `parts`; kept here for metrics refresh).
    shared_cache: Option<Arc<EvalCache>>,
    /// The cross-session wave exchange, when [`ServeConfig::batching`] is
    /// set. Cloned into every admitted session's debugger.
    exchange: Option<Arc<WaveExchange>>,
}

impl Shared {
    /// Mirrors the shared store's live counters into [`ServerMetrics`]
    /// (gauges, overwritten on every refresh). No-op without a shared cache.
    fn refresh_cache_metrics(&self) {
        let Some(cache) = &self.shared_cache else { return };
        self.metrics.shared_cache_bytes.store(cache.bytes(), Ordering::Relaxed);
        self.metrics.shared_cache_evictions.store(cache.evictions(), Ordering::Relaxed);
        self.metrics.shared_cache_hits.store(cache.hits(), Ordering::Relaxed);
        self.metrics.shared_cache_misses.store(cache.misses(), Ordering::Relaxed);
    }

    /// Mirrors the wave exchange's live counters into [`ServerMetrics`]
    /// (gauges, overwritten on every refresh). No-op without batching.
    fn refresh_batch_metrics(&self) {
        let Some(exchange) = &self.exchange else { return };
        self.metrics.batch_merged_waves.store(exchange.merged_waves(), Ordering::Relaxed);
        let submitted = exchange.submitted_probes();
        let ratio = exchange.coalesced_probes() * 1000 / submitted.max(1);
        self.metrics.batch_coalesce_ratio.store(ratio, Ordering::Relaxed);
    }
}

/// A running debug service. Dropping without [`Server::shutdown`] detaches
/// the threads (they keep serving until the process exits); call `shutdown`
/// for a clean join.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `parts` under `config`, with `registry`
    /// deciding admission. Fails fast if `config.debug` does not fit the
    /// shared lattice (a misconfigured server should not accept a single
    /// connection).
    pub fn start(
        parts: SharedParts,
        registry: TenantRegistry,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let mut parts = parts;
        let mut config = config;
        // The shared-cache knob: build one process-wide store stamped with
        // this substrate's (db_id, epoch) identity and attach it to the parts
        // every session is spawned from. Sessions need the eval cache on to
        // consult it.
        let shared_cache = config.shared_cache.map(|sc| {
            config.debug.eval_cache = true;
            if sc.online_pa {
                config.debug.online_pa = true;
            }
            parts.share_eval_cache(sc.budget_bytes)
        });
        // The batching knob: one process-wide exchange, handed to every
        // session at admission.
        let exchange = config.batching.map(|_| Arc::new(WaveExchange::default()));
        // Surface config/lattice mismatches now, not per connection.
        NonAnswerDebugger::from_shared(parts.clone(), config.debug)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let capacity = config.effective_max_inflight();
        let epoch = parts.epoch();
        let shared = Arc::new(Shared {
            parts,
            registry: Arc::new(registry),
            metrics: ServerMetrics::default(),
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            next_conn: AtomicU64::new(0),
            inflight: Arc::new(InflightGate { count: AtomicUsize::new(0), capacity }),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            config,
            shared_cache,
            exchange,
        });
        shared.metrics.epoch.store(epoch, Ordering::Relaxed);
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("kwserve-accept".to_owned())
                    .spawn(move || acceptor_loop(&listener, &shared))?,
            );
        }
        for worker_id in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("kwserve-{worker_id}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(Server { addr, shared, threads })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters (shared-cache gauges refreshed on each call).
    pub fn metrics(&self) -> &ServerMetrics {
        self.shared.refresh_cache_metrics();
        self.shared.refresh_batch_metrics();
        &self.shared.metrics
    }

    /// The process-wide evaluation cache, when the server was started with
    /// [`ServeConfig::shared_cache`] (live counters for benches/dashboards).
    pub fn shared_cache(&self) -> Option<&Arc<EvalCache>> {
        self.shared.shared_cache.as_ref()
    }

    /// The cross-session wave exchange, when the server was started with
    /// [`ServeConfig::batching`] (live gauges for benches/tests).
    pub fn wave_exchange(&self) -> Option<&Arc<WaveExchange>> {
        self.shared.exchange.as_ref()
    }

    /// The admission registry (for live quota inspection).
    pub fn registry(&self) -> &TenantRegistry {
        &self.shared.registry
    }

    /// Connections currently holding an in-flight gate slot (serving or
    /// queued). Must be zero after [`Server::shutdown`] — the soak test's
    /// leak check.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.count.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// tell idle and queued sessions `ShuttingDown`, join every thread, and
    /// return the final counters.
    pub fn shutdown(self) -> ServerMetrics {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the acceptor blocked in accept() with one dummy connection,
        // and the workers waiting on the queue condvar.
        let _ = TcpStream::connect(self.addr);
        self.shared.queue_cv.notify_all();
        for handle in self.threads {
            let _ = handle.join();
        }
        self.shared.refresh_cache_metrics();
        self.shared.refresh_batch_metrics();
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.metrics,
            Err(_) => ServerMetrics::default(),
        }
    }
}

/// Scales a request deadline by gate pressure: full `base` while the gate is
/// at most half full, then shrinking linearly to `base / 4` at capacity.
/// Pure integer math so tests can pin exact values.
pub fn scaled_deadline(base: Duration, inflight: usize, capacity: usize) -> Duration {
    if capacity == 0 || inflight * 2 <= capacity {
        return base;
    }
    let over = (inflight.min(capacity) * 2 - capacity) as u64;
    let nanos = base.as_nanos().min(u128::from(u64::MAX)) as u64;
    let shrink = nanos / 4 * 3 / (capacity as u64) * over;
    Duration::from_nanos(nanos.saturating_sub(shrink))
}

/// Accept loop: admit through the gate or shed with `Overloaded`.
fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            // Woken by the shutdown dummy connection (or raced with it):
            // refuse politely and exit. Not counted as accepted.
            refuse(
                stream,
                shared,
                &Response::error(ErrorCode::ShuttingDown, "server shutting down"),
            );
            return;
        }
        shared.metrics.connections_accepted.fetch_add(1, Ordering::Relaxed);
        match shared.inflight.try_acquire() {
            Some(slot) => {
                let index = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                let mut queue = shared.queue.lock().expect("queue lock");
                queue.push_back(PendingConn { stream, slot, index });
                drop(queue);
                shared.queue_cv.notify_one();
            }
            None => {
                // Shed, don't queue: the whole point of the gate is that
                // this answer goes out immediately while workers are busy.
                shared.metrics.sessions_shed.fetch_add(1, Ordering::Relaxed);
                refuse(
                    stream,
                    shared,
                    &Response::overloaded(
                        shared.config.retry_after,
                        "server at in-flight capacity",
                    ),
                );
            }
        }
    }
}

/// Best-effort one-shot answer on a connection we will not serve. Bounded by
/// the write deadline so a hostile peer cannot stall the acceptor.
///
/// After the frame, the write side is shut down and the peer's unread bytes
/// (typically its in-flight `Hello`) are drained briefly: closing with
/// unread data in the receive buffer makes the kernel send RST and discard
/// our queued answer, so without the drain the shed client would see a
/// broken pipe instead of the typed `Overloaded` + retry hint. The drain is
/// tightly bounded (few reads, short timeout) so a hostile peer cannot turn
/// it into an acceptor stall.
fn refuse(stream: TcpStream, shared: &Shared, response: &Response) {
    if stream.set_write_timeout(Some(shared.config.write_deadline)).is_err() {
        return;
    }
    let mut stream = stream;
    if write_frame(&mut stream, &encode_response(response)).and_then(|()| stream.flush()).is_err()
    {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    if stream.set_read_timeout(Some(Duration::from_millis(25))).is_err() {
        return;
    }
    let mut sink = [0u8; 512];
    for _ in 0..16 {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break, // FIN received, or we gave up waiting
            Ok(_) => {}
        }
    }
}

/// Session worker: pull admitted connections off the queue and serve each to
/// completion. The per-connection `catch_unwind` is a backstop — request
/// panics are already isolated inside `serve_connection` — so one broken
/// connection can never take the worker down.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, shared.config.poll_interval)
                    .expect("queue lock");
                queue = guard;
            }
        };
        let Some(conn) = conn else { return };
        if shared.shutdown.load(Ordering::Acquire) {
            // Drain: this connection was admitted but never served.
            shared.metrics.conns_failed.fetch_add(1, Ordering::Relaxed);
            refuse(
                conn.stream,
                shared,
                &Response::error(ErrorCode::ShuttingDown, "server shutting down"),
            );
            continue;
        }
        let PendingConn { stream, slot, index } = conn;
        if catch_unwind(AssertUnwindSafe(|| serve_connection(stream, index, shared))).is_err() {
            // Should be unreachable (request panics are caught inside); if
            // the framing layer itself panics, record it and keep serving.
            shared.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
            shared.metrics.conns_failed.fetch_add(1, Ordering::Relaxed);
        }
        drop(slot);
    }
}

/// The stream a session runs over: plain, or wrapped in deterministic fault
/// injection.
enum Transport {
    Plain(TcpStream),
    Chaos(ChaosStream<TcpStream>),
}

impl std::io::Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Plain(s) => std::io::Read::read(s, buf),
            Transport::Chaos(s) => s.read(buf),
        }
    }
}

impl std::io::Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Transport::Plain(s) => s.write(buf),
            Transport::Chaos(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Transport::Plain(s) => s.flush(),
            Transport::Chaos(s) => s.flush(),
        }
    }
}

/// Frames a response onto the transport. A timed-out write counts as a hit
/// deadline; any failure means the connection is done.
fn send(transport: &mut Transport, shared: &Shared, response: &Response) -> bool {
    match write_frame(transport, &encode_response(response))
        .and_then(|()| std::io::Write::flush(transport))
    {
        Ok(()) => true,
        Err(e) => {
            if is_timeout(&e) {
                shared.metrics.deadlines_hit.fetch_add(1, Ordering::Relaxed);
            }
            false
        }
    }
}

/// Whether an IO error is this platform's socket-timeout signal.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// One admitted session's mutable state.
struct Session {
    debugger: NonAnswerDebugger,
    /// Holds the tenant quota slot; released on drop (i.e. disconnect).
    _permit: SessionPermit,
    id: u64,
    tenant: String,
    /// The session's configured budget before any per-request deadline is
    /// folded in (the fold must not compound across requests).
    base_budget: ProbeBudget,
    queries: u64,
    interpretations: u64,
    probes: ProbeCounters,
    phases: PhaseTiming,
    last_query: String,
}

impl Session {
    /// Cumulative session metrics as one stable-JSON record. `variant`
    /// carries the tenant, `query` the last query served.
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            experiment: "kwserve".to_owned(),
            query: self.last_query.clone(),
            strategy: self.debugger.config().strategy.name().to_owned(),
            variant: format!("tenant={};session={};queries={}", self.tenant, self.id, self.queries),
            scale: String::new(),
            max_level: (self.debugger.config().max_joins + 1) as u64,
            interpretations: self.interpretations,
            lattice_bytes: self.debugger.lattice().memory_footprint().total_bytes() as u64,
            probes: self.probes,
            phases: self.phases,
            prune: None,
            levels: Vec::new(),
        }
    }
}

/// Runs one admitted connection from handshake to disconnect.
fn serve_connection(stream: TcpStream, conn_index: u64, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    // A socket that cannot honor timeouts must be rejected at accept: it
    // could otherwise dribble or stall forever, immune to every deadline
    // below.
    if stream.set_read_timeout(Some(shared.config.poll_interval)).is_err()
        || stream.set_write_timeout(Some(shared.config.write_deadline)).is_err()
    {
        shared.metrics.conns_failed.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let mut transport = match shared.config.chaos {
        Some(config) => Transport::Chaos(ChaosStream::new(
            stream,
            config,
            conn_index,
            Arc::clone(&shared.metrics.chaos_faults_injected),
        )),
        None => Transport::Plain(stream),
    };
    let mut panic_rng = shared.config.chaos.map(|c| c.panic_rng(conn_index));
    let mut reader = FrameReader::new();
    let mut session: Option<Session> = None;
    let mut rejected = false;
    let mut last_activity = Instant::now();
    loop {
        let payload = match reader.poll(&mut transport) {
            Ok(Some(payload)) => payload,
            Ok(None) => break, // peer closed at a frame boundary
            Err(e) if is_timeout(&e) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    let _ = send(
                        &mut transport,
                        shared,
                        &Response::error(ErrorCode::ShuttingDown, "server shutting down"),
                    );
                    break;
                }
                if reader.mid_frame()
                    && reader.frame_age().is_some_and(|age| age > shared.config.frame_deadline)
                {
                    shared.metrics.deadlines_hit.fetch_add(1, Ordering::Relaxed);
                    let _ = send(
                        &mut transport,
                        shared,
                        &Response::error(
                            ErrorCode::Timeout,
                            "frame not completed within the frame deadline",
                        ),
                    );
                    break;
                }
                if !reader.mid_frame()
                    && shared
                        .config
                        .idle_timeout
                        .is_some_and(|idle| last_activity.elapsed() > idle)
                {
                    shared.metrics.deadlines_hit.fetch_add(1, Ordering::Relaxed);
                    let _ = send(
                        &mut transport,
                        shared,
                        &Response::error(ErrorCode::Timeout, "idle session reaped"),
                    );
                    break;
                }
                continue;
            }
            Err(e) => {
                // Oversized length prefixes are a protocol violation worth
                // answering; torn frames / resets mean the peer is gone.
                if e.kind() == std::io::ErrorKind::InvalidData {
                    shared.metrics.frames_rejected.fetch_add(1, Ordering::Relaxed);
                    let _ = send(
                        &mut transport,
                        shared,
                        &Response::error(ErrorCode::Malformed, "unreadable frame"),
                    );
                }
                break;
            }
        };
        let request = match decode_request(&payload) {
            Ok(request) => request,
            Err(e) => {
                shared.metrics.frames_rejected.fetch_add(1, Ordering::Relaxed);
                let code = if e.0.contains("version") {
                    ErrorCode::UnsupportedVersion
                } else {
                    ErrorCode::Malformed
                };
                let _ = send(&mut transport, shared, &Response::error(code, e.0));
                break;
            }
        };
        match (request, &mut session) {
            (Request::Hello { tenant, pin_epoch }, None) => {
                let epoch = shared.parts.epoch();
                if let Some(pin) = pin_epoch {
                    if pin != epoch {
                        // Refuse rather than silently serve a different
                        // database state than the client proved it saw.
                        shared.metrics.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                        rejected = true;
                        let _ = send(
                            &mut transport,
                            shared,
                            &Response::error(
                                ErrorCode::StaleEpoch,
                                format!("pinned epoch {pin}, server serves epoch {epoch}"),
                            ),
                        );
                        break;
                    }
                }
                match admit(shared, &tenant) {
                    Ok(new_session) => {
                        let id = new_session.id;
                        session = Some(new_session);
                        shared.metrics.sessions_admitted.fetch_add(1, Ordering::Relaxed);
                        if !send(
                            &mut transport,
                            shared,
                            &Response::Welcome { session_id: id, epoch },
                        ) {
                            break;
                        }
                    }
                    Err(response) => {
                        shared.metrics.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                        rejected = true;
                        let _ = send(&mut transport, shared, &response);
                        break;
                    }
                }
            }
            (Request::Hello { .. }, Some(_)) => {
                shared.metrics.frames_rejected.fetch_add(1, Ordering::Relaxed);
                let _ = send(
                    &mut transport,
                    shared,
                    &Response::error(ErrorCode::Malformed, "session already established"),
                );
                break;
            }
            (request, None) => {
                let _ = send(
                    &mut transport,
                    shared,
                    &Response::error(ErrorCode::NotReady, format!("{request:?} before Hello")),
                );
                break;
            }
            (Request::Debug { strategy, query }, Some(session)) => {
                let Some(request_permit) = shared.registry.try_start_request(&session.tenant)
                else {
                    shared.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
                    // Shed the request, keep the session: the tenant can
                    // back off and retry on this same connection.
                    if !send(
                        &mut transport,
                        shared,
                        &Response::overloaded(
                            shared.config.retry_after,
                            "tenant at in-flight request cap",
                        ),
                    ) {
                        break;
                    }
                    last_activity = Instant::now();
                    continue;
                };
                let inject_panic = panic_rng.as_mut().is_some_and(|rng| {
                    roll(rng, shared.config.chaos.map_or(0, |c| c.panic_per_mille))
                });
                // Everything the request holds (the tenant request permit)
                // moves into the closure, so an unwind releases it exactly
                // like a clean return — permits can never leak to a panic.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let _held = request_permit;
                    if inject_panic {
                        panic!("chaos: injected query panic");
                    }
                    run_debug(shared, session, strategy, &query)
                }));
                match outcome {
                    Ok(response) => {
                        if !send(&mut transport, shared, &response) {
                            break;
                        }
                    }
                    Err(_) => {
                        // The query poisoned this session (or chaos said it
                        // did): answer if the stream still works, then kill
                        // only this connection.
                        shared.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
                        let _ = send(
                            &mut transport,
                            shared,
                            &Response::error(
                                ErrorCode::Internal,
                                "internal error while serving query",
                            ),
                        );
                        break;
                    }
                }
            }
            (Request::Metrics, Some(session)) => {
                // Composite: server-wide robustness counters alongside the
                // session's own snapshot, both stable-sorted (`"server"` <
                // `"session"`). Shared-cache gauges are refreshed first so
                // the wire always carries current residency.
                shared.refresh_cache_metrics();
                shared.refresh_batch_metrics();
                let json = format!(
                    "{{\"server\":{},\"session\":{}}}",
                    shared.metrics.to_json(),
                    session.snapshot().to_json()
                );
                if !send(&mut transport, shared, &Response::MetricsJson { json }) {
                    break;
                }
            }
            (Request::Bye, Some(_)) => {
                let _ = send(&mut transport, shared, &Response::ByeAck);
                break;
            }
        }
        last_activity = Instant::now();
    }
    // Accounting: every accepted-and-served connection ends in exactly one
    // bucket — closed session, counted rejection, or failure.
    if session.is_some() {
        shared.metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
    } else if !rejected {
        shared.metrics.conns_failed.fetch_add(1, Ordering::Relaxed);
    }
    // Dropping `session` releases the tenant permit.
}

/// Admission: quota check, then an O(1) per-session debugger over the shared
/// substrate with the tenant's budget folded into the base config.
fn admit(shared: &Shared, tenant: &str) -> Result<Session, Response> {
    let permit = shared.registry.try_admit(tenant).ok_or_else(|| {
        Response::error(
            ErrorCode::QuotaExhausted,
            format!("tenant `{tenant}` is at its concurrent-session quota"),
        )
    })?;
    let policy = shared.registry.policy(tenant);
    let mut config = shared.config.debug;
    if !policy.budget.is_unlimited() {
        config.budget = policy.budget;
    }
    // Tenants opted out of the shared store get sessions over a cache-less
    // clone of the substrate: private evalcache, same shared p_a estimator.
    let parts = if policy.private_cache {
        shared.parts.without_shared_cache()
    } else {
        shared.parts.clone()
    };
    let mut debugger = NonAnswerDebugger::from_shared(parts, config)
        .map_err(|e| Response::error(ErrorCode::Internal, e.to_string()))?;
    // Batching: every session of every tenant shares one exchange. Its
    // cells are keyed by `(db_id, epoch)`, so even if sessions over distinct
    // snapshots ever shared a process, their probes could never coalesce; on
    // this server Hello.pin_epoch mismatches are refused before admission.
    debugger.set_wave_exchange(shared.exchange.clone());
    Ok(Session {
        debugger,
        _permit: permit,
        id: shared.next_session.fetch_add(1, Ordering::Relaxed),
        tenant: tenant.to_owned(),
        base_budget: config.budget,
        queries: 0,
        interpretations: 0,
        probes: ProbeCounters::default(),
        phases: PhaseTiming::default(),
        last_query: String::new(),
    })
}

fn run_debug(
    shared: &Shared,
    session: &mut Session,
    strategy: Option<kwdebug::traversal::StrategyKind>,
    query: &str,
) -> Response {
    let start = Instant::now();
    if let Some(base) = shared.config.request_deadline {
        // Fold the pressure-scaled request deadline into the session's base
        // budget (never loosening a stricter tenant deadline). Under load
        // this turns would-be stragglers into sound partial reports.
        let effective = scaled_deadline(
            base,
            shared.inflight.count.load(Ordering::Acquire),
            shared.inflight.capacity,
        );
        let mut budget = session.base_budget;
        budget.deadline = Some(budget.deadline.map_or(effective, |d| d.min(effective)));
        session.debugger.set_budget(budget);
    }
    let strategy = strategy.unwrap_or(session.debugger.config().strategy);
    match session.debugger.debug_with_strategy(query, strategy) {
        Ok(report) => {
            let degraded = !report.is_complete();
            session.queries += 1;
            session.interpretations += report.interpretations.len() as u64;
            session.probes.accumulate(report.probes());
            session.phases.accumulate(&report.timing);
            session.last_query = query.to_owned();
            shared.metrics.queries_ok.fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .probes_executed
                .fetch_add(report.probes().probes_executed, Ordering::Relaxed);
            if degraded {
                shared.metrics.reports_degraded.fetch_add(1, Ordering::Relaxed);
            }
            Response::Report {
                degraded,
                server_ns: start.elapsed().as_nanos() as u64,
                payload: encode_report(&report),
            }
        }
        Err(e @ (KwError::EmptyQuery | KwError::BadConfig(_))) => {
            shared.metrics.queries_rejected.fetch_add(1, Ordering::Relaxed);
            Response::error(ErrorCode::BadQuery, e.to_string())
        }
        Err(e) => {
            shared.metrics.queries_rejected.fetch_add(1, Ordering::Relaxed);
            Response::error(ErrorCode::Internal, e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_deadline_shrinks_linearly_under_pressure() {
        let base = Duration::from_millis(800);
        // At or below half capacity: untouched.
        assert_eq!(scaled_deadline(base, 0, 8), base);
        assert_eq!(scaled_deadline(base, 4, 8), base);
        // Full: a quarter of base.
        assert_eq!(scaled_deadline(base, 8, 8), Duration::from_millis(200));
        // Midway between half and full: halfway down, 5/8 of base.
        assert_eq!(scaled_deadline(base, 6, 8), Duration::from_millis(500));
        // Monotone and clamped.
        assert_eq!(scaled_deadline(base, 100, 8), Duration::from_millis(200));
        assert_eq!(scaled_deadline(base, 3, 0), base, "capacity 0 never scales");
    }

    #[test]
    fn inflight_gate_is_bounded_and_leak_free() {
        let gate = Arc::new(InflightGate { count: AtomicUsize::new(0), capacity: 2 });
        let a = gate.try_acquire().expect("slot 1");
        let b = gate.try_acquire().expect("slot 2");
        assert!(gate.try_acquire().is_none(), "gate full");
        drop(a);
        let c = gate.try_acquire().expect("slot freed");
        drop(b);
        drop(c);
        assert_eq!(gate.count.load(Ordering::Acquire), 0);
        // Unwind releases like any other path.
        let gate2 = Arc::clone(&gate);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _slot = gate2.try_acquire().unwrap();
            panic!("boom");
        }));
        assert_eq!(gate.count.load(Ordering::Acquire), 0, "no leak on panic");
    }

    #[test]
    fn server_metrics_json_is_sorted_and_stable() {
        let m = ServerMetrics::default();
        m.queries_ok.store(3, Ordering::Relaxed);
        let json = m.to_json();
        let keys: Vec<&str> = json
            .split('"')
            .skip(1)
            .step_by(2)
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "keys must be emitted sorted: {json}");
        assert!(json.contains("\"batch_coalesce_ratio\":0"));
        assert!(json.contains("\"batch_merged_waves\":0"));
        assert!(json.contains("\"queries_ok\":3"));
        assert!(json.contains("\"sessions_shed\":0"));
        assert!(json.contains("\"panics_caught\":0"));
        assert!(json.contains("\"probes_executed\":0"));
        assert!(json.contains("\"shared_cache_bytes\":0"));
        assert!(json.contains("\"shared_cache_evictions\":0"));
        assert!(json.contains("\"shared_cache_hits\":0"));
        assert!(json.contains("\"shared_cache_misses\":0"));
    }

    #[test]
    fn shared_cache_config_defaults_are_bounded() {
        let sc = SharedCacheConfig::default();
        assert_eq!(sc.budget_bytes, Some(64 << 20), "bounded by default");
        assert!(sc.online_pa, "online p_a rides along by default");
        assert!(ServeConfig::default().shared_cache.is_none(), "knob is opt-in");
    }

    #[test]
    fn batching_knob_is_opt_in() {
        assert!(ServeConfig::default().batching.is_none(), "knob is opt-in");
    }
}
