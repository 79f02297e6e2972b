//! The wire protocol: length-prefixed frames, message codecs, and the
//! canonical (deterministic) [`DebugReport`] encoding.
//!
//! Everything here is hand-rolled over `std` — same discipline as
//! [`kwdebug::lattice_io`]: explicit little-endian layouts, sanity bounds on
//! every length read from the wire, and typed decode errors instead of
//! panics. The complete layout specification (normative) lives in
//! `SERVING.md`; this module is its implementation and the doc comments here
//! follow the same message names.
//!
//! ## Framing
//!
//! Every message travels in one frame: a 4-byte little-endian payload length
//! followed by that many payload bytes. The first payload byte is the opcode;
//! the rest is the opcode-specific body. Frames larger than [`MAX_FRAME`]
//! are rejected before allocation, so a corrupt or hostile length prefix can
//! never trigger a huge allocation (the `lattice_io` fuzz lesson).
//!
//! ## Canonical report encoding
//!
//! [`encode_report`] renders a [`DebugReport`] into bytes that are
//! **bit-identical for equal reports**: every deterministic field is encoded
//! in a fixed order and the non-deterministic ones (wall-clock durations,
//! `probe_time_ns`, the cross-session `coalesced_probes`) are *excluded* —
//! zeroed on the wire and zero after [`decode_report`]. That is what lets
//! the loopback test assert `server payload == encode_report(direct call)`
//! byte for byte: the server provably computes the same answer as the
//! library. Latency is reported out-of-band (the `server_ns` field of
//! [`Response::Report`] and client-side clocks), never inside the canonical
//! payload.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use kwdebug::budget::Exhausted;
use kwdebug::metrics::{PhaseTiming, ProbeCounters};
use kwdebug::prune::PruneStats;
use kwdebug::report::{DebugReport, InterpretationOutcome, NonAnswerInfo, QueryInfo};
use kwdebug::traversal::StrategyKind;

/// Protocol magic, first field of every `Hello` (`b"KWSV"` little-endian).
pub const MAGIC: u32 = u32::from_le_bytes(*b"KWSV");

/// Protocol version carried in `Hello`; the server rejects mismatches with
/// [`ErrorCode::UnsupportedVersion`] rather than guessing. Version 2 added
/// the database epoch to `Welcome`, the optional `pin_epoch` to `Hello`,
/// and the four epoch/invalidation counters to the report probes block.
/// Version 3 dropped the two subtree-cache counters from the probes block.
/// Version 4 dropped the three counters of the deleted intra-request probe
/// pool from the probes block (23 → 20 `u64`s; SERVING.md §2 names them).
/// Version 5 dropped the reuse counter of the deleted Phase-2 workspace
/// pool from the probes block (20 → 19 `u64`s).
pub const VERSION: u16 = 5;

/// Upper bound on one frame's payload (32 MiB). Reports over DBLife at paper
/// scale are well under 1 MiB; anything larger than this is a corrupt or
/// hostile length prefix.
pub const MAX_FRAME: u32 = 32 << 20;

/// Version byte leading every canonical report payload.
const REPORT_CODEC_V1: u8 = 1;

/// Request opcodes (client → server).
mod req {
    pub const HELLO: u8 = 0x01;
    pub const DEBUG: u8 = 0x02;
    pub const METRICS: u8 = 0x03;
    pub const BYE: u8 = 0x04;
}

/// Response opcodes (server → client).
mod resp {
    pub const WELCOME: u8 = 0x81;
    pub const REPORT: u8 = 0x82;
    pub const METRICS_JSON: u8 = 0x83;
    pub const BYE_ACK: u8 = 0x84;
    pub const ERROR: u8 = 0xEE;
}

/// Why the server refused a request (the `code` of [`Response::Error`]).
///
/// Codes are stable wire values; add new ones at the end only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or message body could not be decoded. The server closes the
    /// connection after sending this — framing state is unrecoverable.
    Malformed = 1,
    /// `Hello` carried an unknown magic or protocol version.
    UnsupportedVersion = 2,
    /// Admission control refused the session: the tenant is at its
    /// concurrent-session quota. Retry later or against another tenant.
    QuotaExhausted = 3,
    /// The debug request itself was invalid (empty query, bad strategy);
    /// the session stays open.
    BadQuery = 4,
    /// A request arrived before `Hello` completed the handshake.
    NotReady = 5,
    /// The server is draining for shutdown; no further requests are served.
    ShuttingDown = 6,
    /// An internal error the client cannot fix; the session closes.
    Internal = 7,
    /// A connection deadline tripped: the peer dribbled a frame slower than
    /// the server's frame deadline (slowloris defense), sat idle past the
    /// idle timeout, or blocked the write path. The connection closes.
    Timeout = 8,
    /// Load shedding: the server's in-flight admission gate is at its
    /// high-water mark (connection refused, closed) or the tenant is at its
    /// concurrent-request cap (request refused, session survives). The
    /// response carries a `retry_after_ms` hint; back off at least that long
    /// before retrying — no work was done, so a retry is always safe.
    Overloaded = 9,
    /// `Hello` pinned a database epoch the server no longer serves (the
    /// database has been mutated past it). Reconnect without a pin — the
    /// `Welcome` of a fresh handshake carries the current epoch.
    StaleEpoch = 10,
}

impl ErrorCode {
    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::UnsupportedVersion),
            3 => Some(ErrorCode::QuotaExhausted),
            4 => Some(ErrorCode::BadQuery),
            5 => Some(ErrorCode::NotReady),
            6 => Some(ErrorCode::ShuttingDown),
            7 => Some(ErrorCode::Internal),
            8 => Some(ErrorCode::Timeout),
            9 => Some(ErrorCode::Overloaded),
            10 => Some(ErrorCode::StaleEpoch),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "malformed message",
            ErrorCode::UnsupportedVersion => "unsupported protocol version",
            ErrorCode::QuotaExhausted => "tenant session quota exhausted",
            ErrorCode::BadQuery => "bad debug request",
            ErrorCode::NotReady => "handshake not completed",
            ErrorCode::ShuttingDown => "server shutting down",
            ErrorCode::Internal => "internal server error",
            ErrorCode::Timeout => "connection deadline exceeded",
            ErrorCode::Overloaded => "server overloaded, retry later",
            ErrorCode::StaleEpoch => "pinned database epoch is stale",
        };
        f.write_str(s)
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Opens a session: protocol handshake plus tenant identification.
    /// Must be the first message on a connection.
    Hello {
        /// Tenant name for admission control and per-tenant budgets.
        tenant: String,
        /// Database epoch the client requires (`None` = serve whatever is
        /// current). When the server's database has moved past the pin it
        /// refuses the session with [`ErrorCode::StaleEpoch`] instead of
        /// silently answering from a different database state — the
        /// at-most-once analogue for reads: a reconnecting client can prove
        /// whether the world changed underneath it.
        pin_epoch: Option<u64>,
    },
    /// Runs one keyword query through the session's debugger.
    Debug {
        /// Per-request traversal strategy override (`None` = session
        /// default).
        strategy: Option<StrategyKind>,
        /// The raw keyword query text.
        query: String,
    },
    /// Requests the composite metrics record: server-wide counters
    /// (including the `shared_cache_*` gauges when the server runs a
    /// process-wide evaluation cache, see SERVING.md §7) alongside the
    /// session's cumulative stable-JSON
    /// [`kwdebug::metrics::MetricsSnapshot`].
    Metrics,
    /// Ends the session cleanly; the server answers [`Response::ByeAck`]
    /// and closes.
    Bye,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The session is admitted.
    Welcome {
        /// Server-assigned session id (unique per server lifetime).
        session_id: u64,
        /// Database write epoch the session's snapshot serves. Every report
        /// this session produces reflects exactly this epoch; clients
        /// comparing reports across sessions use it to tell recomputation
        /// differences from database changes.
        epoch: u64,
    },
    /// One debug report.
    Report {
        /// Whether the report is partial (a per-tenant budget cap tripped
        /// mid-traversal; the `unknown`/`possible_mpans` sections of the
        /// report carry the sound bounds — see SERVING.md §5).
        degraded: bool,
        /// Server-side wall-clock of the debug call in nanoseconds
        /// (out-of-band: not part of the canonical payload).
        server_ns: u64,
        /// Canonical report payload ([`encode_report`]).
        payload: Vec<u8>,
    },
    /// The composite metrics record.
    MetricsJson {
        /// One `{"server":…,"session":…}` line: sorted-key server counters
        /// (`ServerMetrics::to_json`, including `probes_executed` and the
        /// four `shared_cache_*` fields) plus the session's
        /// [`kwdebug::metrics::MetricsSnapshot::to_json`] record.
        json: String,
    },
    /// Clean goodbye; the server closes after sending this.
    ByeAck,
    /// A refusal; `code` says whether the session survives (see
    /// [`ErrorCode`]).
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Back-off hint in milliseconds, `0` = no hint. Only
        /// [`ErrorCode::Overloaded`] (and shutdown notices) set it; clients
        /// SHOULD wait at least this long before retrying.
        retry_after_ms: u32,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// An [`Response::Error`] without a back-off hint.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error { code, retry_after_ms: 0, message: message.into() }
    }

    /// A load-shedding [`ErrorCode::Overloaded`] refusal with its back-off
    /// hint.
    pub fn overloaded(retry_after: Duration, message: impl Into<String>) -> Response {
        Response::Error {
            code: ErrorCode::Overloaded,
            retry_after_ms: retry_after.as_millis().min(u128::from(u32::MAX)) as u32,
            message: message.into(),
        }
    }
}

/// A decode failure: the peer sent bytes this protocol version cannot read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- framing --

/// Writes one frame: `u32` little-endian payload length, then the payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload from a stream with **no read timeout set**.
/// Returns `Ok(None)` on clean EOF at a frame boundary (the peer closed).
/// A length prefix beyond [`MAX_FRAME`] is `InvalidData` — detected *before*
/// any allocation. Session loops that poll with a read timeout must use a
/// persistent [`FrameReader`] instead: this one-shot helper forgets partial
/// bytes on error, which is only sound when reads never time out.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    FrameReader::new().poll(r)
}

/// Incremental frame reader: accumulates one frame across any number of
/// short reads, so a read *timeout* mid-frame keeps the bytes already
/// received and the next [`FrameReader::poll`] resumes exactly where the
/// peer stalled — the property the server's poll loop needs to stay framed
/// while checking its shutdown flag. It also tracks when the current frame's
/// first byte arrived ([`FrameReader::frame_age`], the slowloris clock) and
/// counts lifetime bytes consumed ([`FrameReader::bytes_read`], the client's
/// at-most-once evidence).
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Bytes of the frame in progress (length prefix included).
    buf: Vec<u8>,
    /// Total frame size (4 + payload) once the length prefix is complete.
    need: Option<usize>,
    /// When the current frame's first byte arrived.
    started: Option<Instant>,
    /// Lifetime bytes consumed from the stream.
    total: u64,
}

impl FrameReader {
    /// A reader with no frame in progress.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Whether an incomplete frame is buffered (the peer started one and has
    /// not finished it).
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// How long the current frame has been in flight (first byte to now);
    /// `None` when no frame is in progress.
    pub fn frame_age(&self) -> Option<Duration> {
        self.started.map(|s| s.elapsed())
    }

    /// Lifetime bytes consumed from the stream across all frames, complete
    /// or partial.
    pub fn bytes_read(&self) -> u64 {
        self.total
    }

    /// Tries to complete one frame. `Ok(Some(payload))` on a full frame
    /// (the reader resets for the next one); `Ok(None)` on clean EOF at a
    /// frame boundary. Timeouts (`WouldBlock`/`TimedOut`) and other IO
    /// errors propagate with the partial bytes retained, so the caller can
    /// poll again; EOF mid-frame is `UnexpectedEof`. A length prefix beyond
    /// [`MAX_FRAME`] is `InvalidData`, detected *before* any allocation.
    pub fn poll<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Vec<u8>>> {
        loop {
            // Until the length prefix is in, we only ever ask for its
            // remainder; afterwards for the validated frame remainder — a
            // hostile prefix can never drive allocation past MAX_FRAME.
            let need = self.need.unwrap_or(4);
            while self.buf.len() < need {
                let mut chunk = [0u8; 16 * 1024];
                let want = (need - self.buf.len()).min(chunk.len());
                let n = r.read(&mut chunk[..want])?;
                if n == 0 {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "peer closed mid-frame",
                        ))
                    };
                }
                if self.started.is_none() {
                    self.started = Some(Instant::now());
                }
                self.total += n as u64;
                self.buf.extend_from_slice(&chunk[..n]);
            }
            if self.need.is_none() {
                let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes"));
                if len > MAX_FRAME {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
                    ));
                }
                self.need = Some(4 + len as usize);
                continue; // a zero-length payload is already complete
            }
            let payload = self.buf.split_off(4);
            self.buf.clear();
            self.need = None;
            self.started = None;
            return Ok(Some(payload));
        }
    }
}

// --------------------------------------------------------------- encoding --

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over one frame payload.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Rd<'a> {
        Rd { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError(format!("truncated at byte {}", self.pos)))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a length that must still fit in the remaining payload — a
    /// corrupt count can never over-allocate.
    fn len(&mut self, per_item: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(per_item.max(1)) > remaining {
            return Err(WireError(format!(
                "count {n} at byte {} exceeds remaining payload",
                self.pos
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError(format!("invalid UTF-8 at byte {}", self.pos)))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Wire code of a strategy (stable; `0xFF` = use the session default).
pub fn strategy_code(s: Option<StrategyKind>) -> u8 {
    match s {
        None => 0xFF,
        Some(StrategyKind::BottomUp) => 0,
        Some(StrategyKind::TopDown) => 1,
        Some(StrategyKind::BottomUpWithReuse) => 2,
        Some(StrategyKind::TopDownWithReuse) => 3,
        Some(StrategyKind::ScoreBasedHeuristic) => 4,
        Some(StrategyKind::BruteForce) => 5,
    }
}

/// Inverse of [`strategy_code`].
pub fn strategy_from_code(b: u8) -> Result<Option<StrategyKind>, WireError> {
    Ok(match b {
        0xFF => None,
        0 => Some(StrategyKind::BottomUp),
        1 => Some(StrategyKind::TopDown),
        2 => Some(StrategyKind::BottomUpWithReuse),
        3 => Some(StrategyKind::TopDownWithReuse),
        4 => Some(StrategyKind::ScoreBasedHeuristic),
        5 => Some(StrategyKind::BruteForce),
        other => return Err(WireError(format!("unknown strategy code {other}"))),
    })
}

/// Encodes a request into one frame payload.
pub fn encode_request(r: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match r {
        Request::Hello { tenant, pin_epoch } => {
            out.push(req::HELLO);
            put_u32(&mut out, MAGIC);
            put_u16(&mut out, VERSION);
            put_str(&mut out, tenant);
            match pin_epoch {
                None => out.push(0),
                Some(e) => {
                    out.push(1);
                    put_u64(&mut out, *e);
                }
            }
        }
        Request::Debug { strategy, query } => {
            out.push(req::DEBUG);
            out.push(strategy_code(*strategy));
            put_str(&mut out, query);
        }
        Request::Metrics => out.push(req::METRICS),
        Request::Bye => out.push(req::BYE),
    }
    out
}

/// Decodes a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut rd = Rd::new(payload);
    let op = rd.u8()?;
    let msg = match op {
        req::HELLO => {
            let magic = rd.u32()?;
            if magic != MAGIC {
                return Err(WireError(format!("bad magic {magic:#010x}")));
            }
            let version = rd.u16()?;
            if version != VERSION {
                return Err(WireError(format!("unsupported protocol version {version}")));
            }
            let tenant = rd.str()?;
            let pin_epoch = match rd.u8()? {
                0 => None,
                1 => Some(rd.u64()?),
                other => return Err(WireError(format!("bad pin-epoch flag {other}"))),
            };
            Request::Hello { tenant, pin_epoch }
        }
        req::DEBUG => {
            let strategy = strategy_from_code(rd.u8()?)?;
            Request::Debug { strategy, query: rd.str()? }
        }
        req::METRICS => Request::Metrics,
        req::BYE => Request::Bye,
        other => return Err(WireError(format!("unknown request opcode {other:#04x}"))),
    };
    rd.finish()?;
    Ok(msg)
}

/// Encodes a response into one frame payload.
pub fn encode_response(r: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match r {
        Response::Welcome { session_id, epoch } => {
            out.push(resp::WELCOME);
            put_u64(&mut out, *session_id);
            put_u64(&mut out, *epoch);
        }
        Response::Report { degraded, server_ns, payload } => {
            out.push(resp::REPORT);
            out.push(u8::from(*degraded));
            put_u64(&mut out, *server_ns);
            put_u32(&mut out, payload.len() as u32);
            out.extend_from_slice(payload);
        }
        Response::MetricsJson { json } => {
            out.push(resp::METRICS_JSON);
            put_str(&mut out, json);
        }
        Response::ByeAck => out.push(resp::BYE_ACK),
        Response::Error { code, retry_after_ms, message } => {
            out.push(resp::ERROR);
            out.push(*code as u8);
            put_u32(&mut out, *retry_after_ms);
            put_str(&mut out, message);
        }
    }
    out
}

/// Decodes a response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut rd = Rd::new(payload);
    let op = rd.u8()?;
    let msg = match op {
        resp::WELCOME => Response::Welcome { session_id: rd.u64()?, epoch: rd.u64()? },
        resp::REPORT => {
            let degraded = match rd.u8()? {
                0 => false,
                1 => true,
                other => return Err(WireError(format!("bad degraded flag {other}"))),
            };
            let server_ns = rd.u64()?;
            let n = rd.len(1)?;
            let payload = rd.take(n)?.to_vec();
            Response::Report { degraded, server_ns, payload }
        }
        resp::METRICS_JSON => Response::MetricsJson { json: rd.str()? },
        resp::BYE_ACK => Response::ByeAck,
        resp::ERROR => {
            let code = ErrorCode::from_u8(rd.u8()?)
                .ok_or_else(|| WireError("unknown error code".into()))?;
            let retry_after_ms = rd.u32()?;
            Response::Error { code, retry_after_ms, message: rd.str()? }
        }
        other => return Err(WireError(format!("unknown response opcode {other:#04x}"))),
    };
    rd.finish()?;
    Ok(msg)
}

// ------------------------------------------------- canonical report codec --

fn exhausted_code(e: Option<Exhausted>) -> u8 {
    match e {
        None => 0,
        Some(Exhausted::Probes) => 1,
        Some(Exhausted::Deadline) => 2,
        Some(Exhausted::Tuples) => 3,
    }
}

fn exhausted_from_code(b: u8) -> Result<Option<Exhausted>, WireError> {
    Ok(match b {
        0 => None,
        1 => Some(Exhausted::Probes),
        2 => Some(Exhausted::Deadline),
        3 => Some(Exhausted::Tuples),
        other => return Err(WireError(format!("unknown exhausted code {other}"))),
    })
}

fn put_query_info(out: &mut Vec<u8>, q: &QueryInfo) {
    put_str(out, &q.sql);
    put_u32(out, q.level);
    put_u32(out, q.sample_tuples.len() as u32);
    for t in &q.sample_tuples {
        put_str(out, t);
    }
}

fn read_query_info(rd: &mut Rd<'_>) -> Result<QueryInfo, WireError> {
    let sql = rd.str()?;
    let level = rd.u32()?;
    let n = rd.len(4)?;
    let mut sample_tuples = Vec::with_capacity(n);
    for _ in 0..n {
        sample_tuples.push(rd.str()?);
    }
    Ok(QueryInfo { sql, level, sample_tuples })
}

/// The deterministic subset of [`ProbeCounters`] in fixed field order.
/// `probe_time_ns` (wall clock) is forced to zero and `coalesced_probes`
/// (cross-session scheduling) is left off, so equal computations encode to
/// equal bytes.
fn put_probes(out: &mut Vec<u8>, p: &ProbeCounters) {
    put_u64(out, p.probes_executed);
    put_u64(out, 0); // probe_time_ns: wall clock, excluded
    put_u64(out, p.tuples_scanned);
    put_u64(out, p.memo_hits);
    put_u64(out, p.r1_inferences);
    put_u64(out, p.r2_inferences);
    put_u64(out, p.reuse_hits);
    put_u64(out, p.retries);
    put_u64(out, p.faults_injected);
    put_u64(out, p.probes_abandoned);
    put_u64(out, p.budget_exhausted);
    put_u64(out, p.phase1_nodes_touched);
    put_u64(out, p.selection_cache_hits);
    put_u64(out, p.verdict_cache_hits);
    put_u64(out, p.cache_bytes);
    put_u64(out, p.delta_postings_merged);
    put_u64(out, p.epoch);
    put_u64(out, p.entries_invalidated);
    put_u64(out, p.compactions);
}

fn read_probes(rd: &mut Rd<'_>) -> Result<ProbeCounters, WireError> {
    Ok(ProbeCounters {
        probes_executed: rd.u64()?,
        probe_time_ns: rd.u64()?,
        tuples_scanned: rd.u64()?,
        memo_hits: rd.u64()?,
        r1_inferences: rd.u64()?,
        r2_inferences: rd.u64()?,
        reuse_hits: rd.u64()?,
        retries: rd.u64()?,
        faults_injected: rd.u64()?,
        probes_abandoned: rd.u64()?,
        budget_exhausted: rd.u64()?,
        phase1_nodes_touched: rd.u64()?,
        selection_cache_hits: rd.u64()?,
        verdict_cache_hits: rd.u64()?,
        cache_bytes: rd.u64()?,
        delta_postings_merged: rd.u64()?,
        // coalesced_probes depends on which sessions happened to overlap in
        // flight — cross-session scheduling noise, excluded from the
        // canonical payload like `probe_time_ns`.
        coalesced_probes: 0,
        epoch: rd.u64()?,
        entries_invalidated: rd.u64()?,
        compactions: rd.u64()?,
    })
}

/// Encodes a report into its canonical wire payload: equal reports produce
/// equal bytes, and wall-clock noise is excluded entirely (see the module
/// docs). The layout is versioned by a leading byte so future codecs can
/// coexist.
pub fn encode_report(r: &DebugReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.push(REPORT_CODEC_V1);
    put_u32(&mut out, r.keywords.len() as u32);
    for k in &r.keywords {
        put_str(&mut out, k);
    }
    put_u32(&mut out, r.unknown_keywords.len() as u32);
    for k in &r.unknown_keywords {
        put_str(&mut out, k);
    }
    put_u32(&mut out, r.interpretations.len() as u32);
    for i in &r.interpretations {
        put_u32(&mut out, i.keyword_tables.len() as u32);
        for (k, t) in &i.keyword_tables {
            put_str(&mut out, k);
            put_str(&mut out, t);
        }
        put_u32(&mut out, i.answers.len() as u32);
        for q in &i.answers {
            put_query_info(&mut out, q);
        }
        put_u32(&mut out, i.non_answers.len() as u32);
        for n in &i.non_answers {
            put_query_info(&mut out, &n.query);
            put_u32(&mut out, n.mpans.len() as u32);
            for q in &n.mpans {
                put_query_info(&mut out, q);
            }
            put_u32(&mut out, n.possible_mpans.len() as u32);
            for q in &n.possible_mpans {
                put_query_info(&mut out, q);
            }
        }
        put_u32(&mut out, i.unknown.len() as u32);
        for q in &i.unknown {
            put_query_info(&mut out, q);
        }
        out.push(exhausted_code(i.budget_exhausted));
        let s = &i.prune_stats;
        for v in [
            s.lattice_nodes,
            s.retained_phase1,
            s.total_nodes,
            s.mtn_count,
            s.pruned_nodes,
            s.mtn_descendants_total,
            s.mtn_descendants_unique,
        ] {
            put_u64(&mut out, v as u64);
        }
        put_u64(&mut out, i.sql_queries);
        put_probes(&mut out, &i.probes);
    }
    out
}

/// Decodes a canonical report payload. Wall-clock fields (durations,
/// `probe_time_ns`) and `coalesced_probes` come back zero — they are not on
/// the wire.
pub fn decode_report(payload: &[u8]) -> Result<DebugReport, WireError> {
    let mut rd = Rd::new(payload);
    let version = rd.u8()?;
    if version != REPORT_CODEC_V1 {
        return Err(WireError(format!("unknown report codec version {version}")));
    }
    let n = rd.len(4)?;
    let mut keywords = Vec::with_capacity(n);
    for _ in 0..n {
        keywords.push(rd.str()?);
    }
    let n = rd.len(4)?;
    let mut unknown_keywords = Vec::with_capacity(n);
    for _ in 0..n {
        unknown_keywords.push(rd.str()?);
    }
    let n = rd.len(4)?;
    let mut interpretations = Vec::with_capacity(n);
    for _ in 0..n {
        let n = rd.len(8)?;
        let mut keyword_tables = Vec::with_capacity(n);
        for _ in 0..n {
            let k = rd.str()?;
            let t = rd.str()?;
            keyword_tables.push((k, t));
        }
        let n = rd.len(8)?;
        let mut answers = Vec::with_capacity(n);
        for _ in 0..n {
            answers.push(read_query_info(&mut rd)?);
        }
        let n = rd.len(8)?;
        let mut non_answers = Vec::with_capacity(n);
        for _ in 0..n {
            let query = read_query_info(&mut rd)?;
            let n = rd.len(8)?;
            let mut mpans = Vec::with_capacity(n);
            for _ in 0..n {
                mpans.push(read_query_info(&mut rd)?);
            }
            let n = rd.len(8)?;
            let mut possible_mpans = Vec::with_capacity(n);
            for _ in 0..n {
                possible_mpans.push(read_query_info(&mut rd)?);
            }
            non_answers.push(NonAnswerInfo { query, mpans, possible_mpans });
        }
        let n = rd.len(8)?;
        let mut unknown = Vec::with_capacity(n);
        for _ in 0..n {
            unknown.push(read_query_info(&mut rd)?);
        }
        let budget_exhausted = exhausted_from_code(rd.u8()?)?;
        let mut stats = [0u64; 7];
        for v in &mut stats {
            *v = rd.u64()?;
        }
        let prune_stats = PruneStats {
            lattice_nodes: stats[0] as usize,
            retained_phase1: stats[1] as usize,
            total_nodes: stats[2] as usize,
            mtn_count: stats[3] as usize,
            pruned_nodes: stats[4] as usize,
            mtn_descendants_total: stats[5] as usize,
            mtn_descendants_unique: stats[6] as usize,
        };
        let sql_queries = rd.u64()?;
        let probes = read_probes(&mut rd)?;
        interpretations.push(InterpretationOutcome {
            keyword_tables,
            answers,
            non_answers,
            unknown,
            budget_exhausted,
            prune_stats,
            sql_queries,
            sql_time: std::time::Duration::ZERO,
            probes,
            timing: PhaseTiming::default(),
        });
    }
    rd.finish()?;
    Ok(DebugReport {
        keywords,
        unknown_keywords,
        interpretations,
        mapping_time: std::time::Duration::ZERO,
        total_time: std::time::Duration::ZERO,
        timing: PhaseTiming::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> DebugReport {
        DebugReport {
            keywords: vec!["saffron".into(), "candle".into()],
            unknown_keywords: vec![],
            interpretations: vec![InterpretationOutcome {
                keyword_tables: vec![("saffron".into(), "color".into())],
                answers: vec![QueryInfo {
                    sql: "SELECT 1".into(),
                    level: 2,
                    sample_tuples: vec!["item(1)".into()],
                }],
                non_answers: vec![NonAnswerInfo {
                    query: QueryInfo { sql: "SELECT 0".into(), level: 3, sample_tuples: vec![] },
                    mpans: vec![QueryInfo {
                        sql: "SUB".into(),
                        level: 1,
                        sample_tuples: vec![],
                    }],
                    possible_mpans: vec![],
                }],
                unknown: vec![],
                budget_exhausted: Some(Exhausted::Deadline),
                prune_stats: PruneStats {
                    lattice_nodes: 10,
                    retained_phase1: 4,
                    total_nodes: 3,
                    mtn_count: 1,
                    pruned_nodes: 4,
                    mtn_descendants_total: 3,
                    mtn_descendants_unique: 3,
                },
                sql_queries: 7,
                sql_time: std::time::Duration::from_millis(3),
                probes: ProbeCounters {
                    probes_executed: 7,
                    probe_time_ns: 12345,
                    coalesced_probes: 2,
                    r2_inferences: 1,
                    delta_postings_merged: 3,
                    epoch: 5,
                    entries_invalidated: 11,
                    compactions: 1,
                    ..ProbeCounters::default()
                },
                timing: PhaseTiming::default(),
            }],
            mapping_time: std::time::Duration::from_millis(1),
            total_time: std::time::Duration::from_millis(5),
            timing: PhaseTiming::default(),
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Hello { tenant: "acme".into(), pin_epoch: None },
            Request::Hello { tenant: "acme".into(), pin_epoch: Some(17) },
            Request::Debug { strategy: None, query: "saffron candle".into() },
            Request::Debug {
                strategy: Some(StrategyKind::BottomUpWithReuse),
                query: "x".into(),
            },
            Request::Metrics,
            Request::Bye,
        ];
        for r in &reqs {
            assert_eq!(&decode_request(&encode_request(r)).unwrap(), r);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Welcome { session_id: 42, epoch: 7 },
            Response::Report { degraded: true, server_ns: 99, payload: vec![1, 2, 3] },
            Response::MetricsJson { json: "{}".into() },
            Response::ByeAck,
            Response::error(ErrorCode::QuotaExhausted, "full"),
            Response::overloaded(Duration::from_millis(250), "gate at high water"),
            Response::error(ErrorCode::Timeout, "frame too slow"),
            Response::error(ErrorCode::StaleEpoch, "database moved past pin 3"),
        ];
        for r in &resps {
            assert_eq!(&decode_response(&encode_response(r)).unwrap(), r);
        }
    }

    #[test]
    fn hello_rejects_bad_magic_and_version() {
        let hello = Request::Hello { tenant: "t".into(), pin_epoch: None };
        let mut p = encode_request(&hello);
        p[1] ^= 0xFF;
        assert!(decode_request(&p).is_err(), "bad magic");
        let mut p = encode_request(&hello);
        p[5] = 0x7F;
        assert!(decode_request(&p).is_err(), "bad version");
        let mut p = encode_request(&hello);
        *p.last_mut().unwrap() = 7;
        assert!(decode_request(&p).is_err(), "bad pin-epoch flag");
    }

    #[test]
    fn report_round_trips_without_wall_clock() {
        let r = sample_report();
        let bytes = encode_report(&r);
        let back = decode_report(&bytes).unwrap();
        assert_eq!(back.keywords, r.keywords);
        assert_eq!(back.interpretations[0].answers, r.interpretations[0].answers);
        assert_eq!(back.interpretations[0].non_answers, r.interpretations[0].non_answers);
        assert_eq!(back.interpretations[0].budget_exhausted, Some(Exhausted::Deadline));
        assert_eq!(back.interpretations[0].prune_stats, r.interpretations[0].prune_stats);
        assert_eq!(back.interpretations[0].sql_queries, 7);
        // Wall clock and scheduling noise are excluded from the wire.
        assert_eq!(back.total_time, std::time::Duration::ZERO);
        assert_eq!(back.interpretations[0].probes.probe_time_ns, 0);
        assert_eq!(back.interpretations[0].probes.coalesced_probes, 0);
        assert_eq!(back.interpretations[0].probes.probes_executed, 7);
        // The epoch/invalidation block added in protocol v2 is on the wire.
        assert_eq!(back.interpretations[0].probes.delta_postings_merged, 3);
        assert_eq!(back.interpretations[0].probes.epoch, 5);
        assert_eq!(back.interpretations[0].probes.entries_invalidated, 11);
        assert_eq!(back.interpretations[0].probes.compactions, 1);
        // Canonical: re-encoding the decoded report is byte-identical.
        assert_eq!(encode_report(&back), bytes);
    }

    #[test]
    fn canonical_encoding_ignores_timing_differences() {
        let a = sample_report();
        let mut b = sample_report();
        b.total_time = std::time::Duration::from_secs(9);
        b.interpretations[0].probes.probe_time_ns = 777;
        b.interpretations[0].probes.coalesced_probes = 5;
        assert_eq!(encode_report(&a), encode_report(&b));
    }

    #[test]
    fn decode_rejects_corruption() {
        let bytes = encode_report(&sample_report());
        assert!(decode_report(&bytes[..bytes.len() - 1]).is_err(), "truncation");
        let mut huge = bytes.clone();
        // Corrupt the keyword count to a huge value: must error, not allocate.
        huge[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_report(&huge).is_err());
    }

    #[test]
    fn frames_round_trip_and_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut rd = &buf[..];
        assert_eq!(read_frame(&mut rd).unwrap().unwrap(), b"hello");
        assert!(read_frame(&mut rd).unwrap().is_none(), "clean EOF");

        let mut bad = Vec::new();
        bad.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(read_frame(&mut &bad[..]).is_err(), "oversized frame refused");
    }

    /// A reader that yields at most `chunk` bytes per call and a timeout
    /// after each chunk — the shape of a dribbling (slowloris) peer under a
    /// socket read timeout.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        ready: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"));
            }
            self.ready = false;
            let n = self.chunk.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"slow but framed").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let total = wire.len();
        let mut dribble = Dribble { data: wire, pos: 0, chunk: 3, ready: false };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        // One byte every other call: every WouldBlock must leave framing
        // intact (the old one-shot read_frame lost partial bytes here).
        for _ in 0..10 * total {
            match reader.poll(&mut dribble) {
                Ok(Some(p)) => frames.push(p),
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(frames, vec![b"slow but framed".to_vec(), b"second".to_vec()]);
        assert_eq!(reader.bytes_read(), total as u64);
        assert!(!reader.mid_frame());
        assert!(reader.frame_age().is_none());
    }

    #[test]
    fn frame_reader_tracks_mid_frame_state() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        wire.truncate(6); // length prefix + 2 payload bytes, then stall
        let mut dribble = Dribble { data: wire, pos: 0, chunk: 16, ready: true };
        let mut reader = FrameReader::new();
        // Two polls drain the 6 available bytes (prefix, then 2 payload
        // bytes), each ending in a timeout with the frame incomplete.
        for _ in 0..2 {
            let err = reader.poll(&mut dribble).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        }
        assert!(reader.mid_frame(), "partial frame is buffered");
        assert!(reader.frame_age().is_some(), "slowloris clock is running");
        assert_eq!(reader.bytes_read(), 6);
    }

    #[test]
    fn frame_reader_rejects_oversized_and_torn_frames() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut reader = FrameReader::new();
        let err = reader.poll(&mut &oversized[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut torn = Vec::new();
        write_frame(&mut torn, b"whole").unwrap();
        torn.truncate(torn.len() - 2);
        let mut reader = FrameReader::new();
        let err = reader.poll(&mut &torn[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "EOF mid-frame is torn");
    }

    #[test]
    fn error_retry_hint_round_trips() {
        let r = Response::overloaded(Duration::from_millis(123), "busy");
        match decode_response(&encode_response(&r)).unwrap() {
            Response::Error { code, retry_after_ms, .. } => {
                assert_eq!(code, ErrorCode::Overloaded);
                assert_eq!(retry_after_ms, 123);
            }
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(ErrorCode::from_u8(8), Some(ErrorCode::Timeout));
        assert_eq!(ErrorCode::from_u8(9), Some(ErrorCode::Overloaded));
        assert_eq!(ErrorCode::from_u8(10), Some(ErrorCode::StaleEpoch));
        assert_eq!(ErrorCode::from_u8(11), None, "codes append at the end only");
    }

    #[test]
    fn strategy_codes_cover_all() {
        for s in StrategyKind::ALL.into_iter().chain([StrategyKind::BruteForce]) {
            assert_eq!(strategy_from_code(strategy_code(Some(s))).unwrap(), Some(s));
        }
        assert_eq!(strategy_from_code(0xFF).unwrap(), None);
        assert!(strategy_from_code(42).is_err());
    }
}
