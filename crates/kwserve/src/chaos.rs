//! Deterministic network chaos: seeded fault injection on accepted streams.
//!
//! This is the serving-layer sibling of [`relengine::chaos`]: the same
//! SplitMix64 discipline (one decision draw per IO call, per-mille rates, a
//! seed that fully determines the schedule), applied one layer up — to the
//! *bytes on the wire* instead of the probe executor. A
//! [`ChaosStream`] wraps each accepted connection when
//! [`crate::ServeConfig::chaos`] is set and injects, per read/write call:
//!
//! * **read stalls** — sleep before the read, the slow-network shape the
//!   frame deadline must survive;
//! * **bit flips** — corrupt one bit of the data moved, so decoders face
//!   torn frames (inbound flips exercise the server's typed `Malformed`
//!   path, outbound flips the client's wire-error handling);
//! * **partial writes** — a `write` moves only a prefix, exercising every
//!   `write_all` loop and frame-boundary assumption;
//! * **mid-frame resets** — the TCP connection is shut down in the middle of
//!   whatever was in flight, and every later IO call on the stream fails
//!   with `ConnectionReset`.
//!
//! A separate draw stream (same seed, salted) drives **panic injection** in
//! the server's request loop ([`ChaosConfig::panic_per_mille`]), proving the
//! `catch_unwind` isolation under the soak test.
//!
//! Determinism contract: one connection's schedule is a pure function of
//! `ChaosConfig::seed` and the connection's admission index (each accepted
//! connection salts the seed with its index). Faults are injected *around* the
//! real IO, never by fabricating data: bytes are flipped in a copy, reads
//! are delayed, connections are reset — a quiet config (`all rates 0`) is
//! byte-for-byte transparent, which is what lets the soak test assert
//! canonical-payload equality with chaos compiled in but quiet.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use relengine::rng::SplitMix64;

/// Configuration of a deterministic stream-fault schedule. Rates are per
/// mille (0..=1000), like [`relengine::FaultConfig`]; the default injects
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the decision streams; same seed (and connection index), same
    /// schedule.
    pub seed: u64,
    /// Per-mille probability that a read is delayed by [`ChaosConfig::stall`]
    /// before executing.
    pub read_stall_per_mille: u32,
    /// The artificial delay injected when the stall draw fires.
    pub stall: Duration,
    /// Per-mille probability that an IO call flips one bit of the data it
    /// moves (reads corrupt inbound frames, writes corrupt outbound ones).
    pub bitflip_per_mille: u32,
    /// Per-mille probability that a write moves only a prefix of its buffer
    /// (a legal short write; `write_all` loops must cope).
    pub partial_write_per_mille: u32,
    /// Per-mille probability that an IO call resets the connection mid-frame
    /// (TCP shutdown; all later calls fail with `ConnectionReset`).
    pub reset_per_mille: u32,
    /// Per-mille probability that a `Debug` request panics inside the
    /// server's session loop (drawn from a salted stream, not per IO call) —
    /// the poisoned-query simulation behind the panic-isolation guarantee.
    pub panic_per_mille: u32,
}

impl ChaosConfig {
    /// A schedule that injects nothing (byte-for-byte transparent).
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            read_stall_per_mille: 0,
            stall: Duration::ZERO,
            bitflip_per_mille: 0,
            partial_write_per_mille: 0,
            reset_per_mille: 0,
            panic_per_mille: 0,
        }
    }

    /// A moderate all-faults schedule for soak tests: stalls, flips, short
    /// writes, resets and panics all on, rates low enough that most
    /// exchanges still complete.
    pub fn soak(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            read_stall_per_mille: 40,
            stall: Duration::from_millis(2),
            bitflip_per_mille: 15,
            partial_write_per_mille: 120,
            reset_per_mille: 20,
            panic_per_mille: 15,
        }
    }

    /// Whether any fault can ever fire under this schedule.
    pub fn is_quiet(&self) -> bool {
        self.read_stall_per_mille == 0
            && self.bitflip_per_mille == 0
            && self.partial_write_per_mille == 0
            && self.reset_per_mille == 0
            && self.panic_per_mille == 0
    }

    /// The per-connection IO decision stream: the config seed salted with
    /// the connection's admission index.
    pub fn stream_rng(&self, conn_index: u64) -> SplitMix64 {
        SplitMix64::seed_from_u64(
            self.seed ^ conn_index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// The per-connection panic decision stream (salted differently from the
    /// IO stream so panics and IO faults are independent draws).
    pub fn panic_rng(&self, conn_index: u64) -> SplitMix64 {
        SplitMix64::seed_from_u64(
            self.seed
                ^ 0xA076_1D64_78BD_642F_u64
                ^ conn_index.wrapping_mul(0xE703_7ED1_A0B4_28DB),
        )
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::quiet(0)
    }
}

/// One per-mille draw from a decision stream.
pub(crate) fn roll(rng: &mut SplitMix64, per_mille: u32) -> bool {
    per_mille > 0 && rng.next_u64() % 1000 < u64::from(per_mille)
}

/// The subset of socket behavior [`ChaosStream`] needs beyond `Read + Write`
/// (a trait so tests can chaos-wrap in-memory streams).
pub trait Resettable {
    /// Hard-close both directions, so the peer sees a reset/EOF mid-frame.
    fn reset(&mut self);
}

impl Resettable for std::net::TcpStream {
    fn reset(&mut self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

/// A fault-injecting wrapper around one accepted stream. See the module docs
/// for the fault menu; every injected fault (stall, flip, short write,
/// reset) increments the shared `faults` counter, which the server surfaces
/// as `chaos_faults_injected`.
pub struct ChaosStream<S> {
    inner: S,
    config: ChaosConfig,
    rng: SplitMix64,
    faults: Arc<AtomicU64>,
    /// Sticky: once reset, every IO call fails.
    dead: bool,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` under `config`, drawing this connection's schedule from
    /// `conn_index` (see [`ChaosConfig::stream_rng`]). `faults` receives one
    /// increment per injected fault.
    pub fn new(
        inner: S,
        config: ChaosConfig,
        conn_index: u64,
        faults: Arc<AtomicU64>,
    ) -> ChaosStream<S> {
        let rng = config.stream_rng(conn_index);
        ChaosStream { inner, config, rng, faults, dead: false }
    }

    fn fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    fn reset_err() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos: injected reset")
    }
}

impl<S: Read + Write + Resettable> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(Self::reset_err());
        }
        if roll(&mut self.rng, self.config.reset_per_mille) {
            self.dead = true;
            self.inner.reset();
            self.fault();
            return Err(Self::reset_err());
        }
        if roll(&mut self.rng, self.config.read_stall_per_mille) {
            self.fault();
            std::thread::sleep(self.config.stall);
        }
        let flip = roll(&mut self.rng, self.config.bitflip_per_mille);
        // The bit position is drawn before the read so the decision stream
        // consumes a fixed number of draws per call regardless of `n`.
        let bit = self.rng.next_u64();
        let n = self.inner.read(buf)?;
        if flip && n > 0 {
            self.fault();
            buf[(bit as usize >> 3) % n] ^= 1 << (bit & 7);
        }
        Ok(n)
    }
}

impl<S: Read + Write + Resettable> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(Self::reset_err());
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        if roll(&mut self.rng, self.config.reset_per_mille) {
            self.dead = true;
            self.inner.reset();
            self.fault();
            return Err(Self::reset_err());
        }
        let short = roll(&mut self.rng, self.config.partial_write_per_mille);
        let cut = self.rng.next_u64();
        let flip = roll(&mut self.rng, self.config.bitflip_per_mille);
        let bit = self.rng.next_u64();
        let len = if short && buf.len() > 1 {
            self.fault();
            1 + (cut as usize % (buf.len() - 1))
        } else {
            buf.len()
        };
        if flip {
            self.fault();
            let mut copy = buf[..len].to_vec();
            let i = (bit as usize >> 3) % len;
            copy[i] ^= 1 << (bit & 7);
            self.inner.write(&copy)
        } else {
            self.inner.write(&buf[..len])
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(Self::reset_err());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory full-duplex half: reads from `rx`, appends writes to `tx`.
    #[derive(Default)]
    struct Pipe {
        rx: Vec<u8>,
        pos: usize,
        tx: Vec<u8>,
        was_reset: bool,
    }

    impl Read for Pipe {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = out.len().min(self.rx.len() - self.pos);
            out[..n].copy_from_slice(&self.rx[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.tx.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Resettable for Pipe {
        fn reset(&mut self) {
            self.was_reset = true;
        }
    }

    #[test]
    fn quiet_chaos_is_transparent() {
        let pipe = Pipe { rx: b"hello frames".to_vec(), ..Pipe::default() };
        let mut s = ChaosStream::new(pipe, ChaosConfig::quiet(7), 3, Arc::default());
        let mut buf = [0u8; 64];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello frames");
        s.write_all(b"echo").unwrap();
        assert_eq!(s.inner.tx, b"echo");
        assert_eq!(s.faults.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let config = ChaosConfig::soak(42);
        let run = || {
            let pipe = Pipe { rx: vec![0xAB; 256], ..Pipe::default() };
            let mut s = ChaosStream::new(pipe, config, 5, Arc::default());
            let mut out = Vec::new();
            let mut short_writes = Vec::new();
            for _ in 0..64 {
                let mut buf = [0u8; 8];
                match s.read(&mut buf) {
                    Ok(n) => out.extend_from_slice(&buf[..n]),
                    Err(_) => break,
                }
                match s.write(&[0xCD; 16]) {
                    Ok(n) => short_writes.push(n),
                    Err(_) => break,
                }
            }
            (out, short_writes, s.inner.tx.clone(), s.faults.load(Ordering::Relaxed))
        };
        assert_eq!(run(), run(), "schedule is a pure function of (seed, conn)");
    }

    #[test]
    fn reset_is_sticky() {
        let config = ChaosConfig { reset_per_mille: 1000, ..ChaosConfig::quiet(1) };
        let pipe = Pipe { rx: vec![1, 2, 3], ..Pipe::default() };
        let mut s = ChaosStream::new(pipe, config, 0, Arc::default());
        assert_eq!(s.read(&mut [0u8; 4]).unwrap_err().kind(), io::ErrorKind::ConnectionReset);
        assert!(s.inner.was_reset, "underlying stream was shut down");
        assert_eq!(s.write(&[9]).unwrap_err().kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(s.flush().unwrap_err().kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(s.faults.load(Ordering::Relaxed), 1, "one reset, counted once");
    }

    #[test]
    fn bitflips_corrupt_exactly_one_bit() {
        let config = ChaosConfig { bitflip_per_mille: 1000, ..ChaosConfig::quiet(9) };
        let payload = vec![0u8; 32];
        let pipe = Pipe { rx: payload.clone(), ..Pipe::default() };
        let mut s = ChaosStream::new(pipe, config, 1, Arc::default());
        let mut buf = [0u8; 32];
        let n = s.read(&mut buf).unwrap();
        let flipped: u32 = buf[..n].iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit differs");

        s.write_all(&[0u8; 16]).unwrap();
        let flipped: u32 = s.inner.tx.iter().map(|b| b.count_ones()).sum();
        assert!(flipped >= 1, "outbound data corrupted too");
    }

    #[test]
    fn partial_writes_move_a_prefix() {
        let config = ChaosConfig { partial_write_per_mille: 1000, ..ChaosConfig::quiet(3) };
        let mut s = ChaosStream::new(Pipe::default(), config, 2, Arc::default());
        let n = s.write(&[7u8; 100]).unwrap();
        assert!((1..100).contains(&n), "short write: {n}");
        assert_eq!(s.inner.tx.len(), n);
        // write_all still lands everything.
        s.inner.tx.clear();
        s.write_all(&[7u8; 100]).unwrap();
        assert_eq!(s.inner.tx.len(), 100);
    }
}
