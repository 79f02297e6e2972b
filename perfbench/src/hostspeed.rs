//! Host speed: a fixed reference workload, run between the measured
//! requests, that turns wall-clock times into times at a nominal host speed.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants of that
//! host slow it, in stretches that last from a fraction of a second to
//! minutes: a set-up build that takes 0.11 s in a quiet stretch takes 0.19 s
//! in a busy one, in the same process seconds apart, and whole runs have
//! seen the reference below take three times its quiet time. No run length
//! averages that out. So the measured phase is cut into
//! segments of about [`SEGMENT`]; at each cut the workload pauses, with
//! nothing of its own running, and the reference workload below is timed.
//! A time measured in a segment is scaled by `NOMINAL_MS / r`, `r` the mean
//! of the two readings around the segment: the end-to-end times the
//! benchmark reports are milliseconds at the speed the host has when the
//! reference takes `NOMINAL_MS`. Each run also prints its raw figures and
//! its readings.
//!
//! The reference shares no code with the program under test (only the
//! standard library's strings, hash map and sort), so a change to the
//! program cannot move it; it does the same kind of work as the program
//! (allocation, hashing, string building, sorting, branchy lookups), so it
//! slows with the host much as the program does.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The reference's time, in milliseconds, on an undisturbed core of the
/// 2-vCPU Xeon VM the benchmark was tuned on.
pub const NOMINAL_MS: f64 = 1.8;
/// Target length of a segment of the measured phase between readings.
pub const SEGMENT: Duration = Duration::from_millis(250);
/// Reference runs per reading; a reading is their median.
const REPS: usize = 3;

/// One run of the reference workload; returns its checksum so that it
/// cannot be optimised away.
fn reference() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let words: Vec<String> = (0..4000).map(|_| format!("w{:x}", next() % 3000)).collect();
    let mut postings: HashMap<&str, Vec<u32>> = HashMap::new();
    for (i, w) in words.iter().enumerate() {
        postings.entry(w.as_str()).or_default().push(i as u32);
    }
    let mut keys: Vec<u64> = (0..20_000).map(|_| next() % 100_000).collect();
    keys.sort_unstable();
    let mut acc = 0u64;
    for w in &words {
        acc += postings.get(w.as_str()).map_or(0, |p| p.len() as u64);
    }
    for _ in 0..20_000 {
        acc += u64::from(keys.binary_search(&(next() % 100_000)).is_ok());
    }
    acc
}

/// Times the reference [`REPS`] times; the median, in milliseconds.
pub fn reading() -> f64 {
    let mut ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(reference());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[REPS / 2]
}

/// Runs `f` between two readings; returns its result, its wall time in
/// seconds and that time scaled to the nominal host speed.
pub fn scaled_call<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = reading();
    let t0 = Instant::now();
    let r = f();
    let secs = t0.elapsed().as_secs_f64();
    let after = reading();
    (r, secs, secs * NOMINAL_MS / ((before + after) / 2.0))
}

/// The readings taken over a measured phase, with the instants at which
/// each began and ended.
#[derive(Default)]
pub struct HostSpeed {
    /// `(start, end, reading in ms)`, in time order.
    marks: Vec<(Instant, Instant, f64)>,
}

impl HostSpeed {
    /// No readings yet: the first segment starts when the first ends.
    pub fn new() -> HostSpeed {
        HostSpeed { marks: Vec::new() }
    }

    /// Ends the current segment with a reading and starts the next. Call it
    /// only while the workload has nothing in flight.
    pub fn checkpoint(&mut self) {
        let start = Instant::now();
        let r = reading();
        self.push(start, Instant::now(), r);
    }

    /// Records a reading taken elsewhere between `start` and `end`, such as
    /// the mean of readings taken on several threads at once.
    pub fn push(&mut self, start: Instant, end: Instant, reading: f64) {
        self.marks.push((start, end, reading));
    }

    /// Whether the current segment has run for [`SEGMENT`], or no reading
    /// has been taken.
    pub fn due(&self) -> bool {
        self.marks.last().is_none_or(|m| m.1.elapsed() >= SEGMENT)
    }

    /// `NOMINAL_MS / r` for the segment holding `at`, `r` the mean of the
    /// readings that bound it (the last reading alone past the last one).
    fn factor(&self, at: Instant) -> f64 {
        let i = self.marks.partition_point(|m| m.1 <= at).max(1) - 1;
        let r = match self.marks.get(i + 1) {
            Some(next) => (self.marks[i].2 + next.2) / 2.0,
            None => self.marks[i].2,
        };
        NOMINAL_MS / r
    }

    /// `raw` (any time unit), measured from `at`, at the nominal speed.
    pub fn scale(&self, at: Instant, raw: f64) -> f64 {
        raw * self.factor(at)
    }

    /// The measured time between the first and the last reading, readings
    /// excluded, in seconds at the nominal speed.
    pub fn scaled_seconds(&self) -> f64 {
        self.marks
            .windows(2)
            .map(|w| (w[1].0 - w[0].1).as_secs_f64() * NOMINAL_MS / ((w[0].2 + w[1].2) / 2.0))
            .sum()
    }

    /// The same span of wall-clock time, unscaled, in seconds.
    pub fn raw_seconds(&self) -> f64 {
        self.marks
            .windows(2)
            .map(|w| (w[1].0 - w[0].1).as_secs_f64())
            .sum()
    }

    /// The median reading, in milliseconds.
    pub fn median_reading(&self) -> f64 {
        let r: Vec<f64> = self.marks.iter().map(|m| m.2).collect();
        crate::stats::median(&r)
    }

    /// Readings taken.
    pub fn readings(&self) -> usize {
        self.marks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic() {
        assert_eq!(reference(), reference());
    }

    #[test]
    fn segments_scale_by_their_bounding_readings() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        let h = HostSpeed {
            marks: vec![
                (t, t + ms(2), NOMINAL_MS),
                (t + ms(102), t + ms(104), 3.0 * NOMINAL_MS),
                (t + ms(204), t + ms(206), 3.0 * NOMINAL_MS),
            ],
        };
        // First segment: mean reading 2 × nominal; second: 3 × nominal.
        assert!((h.scale(t + ms(50), 10.0) - 5.0).abs() < 1e-9);
        assert!((h.scale(t + ms(150), 9.0) - 3.0).abs() < 1e-9);
        assert!((h.raw_seconds() - 0.2).abs() < 1e-9);
        assert!((h.scaled_seconds() - (0.1 / 2.0 + 0.1 / 3.0)).abs() < 1e-9);
    }
}
