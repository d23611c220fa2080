//! The **timing channel**: wall-clock building blocks.
//!
//! This file is one of the two registered wall-clock files (see
//! aba-lint's `wall-clock-in-sim` rule scoping — `TIMING_PATHS` in
//! `crates/lint/src/rules.rs`). Everything in it is explicitly
//! non-deterministic: numbers read here vary run to run and machine to
//! machine, and must never flow into the deterministic channel or any
//! pinned artifact. Profiling output goes to separate files
//! (`*.timing.csv`, `*.profile.json`, `*.collapsed.txt`).
//!
//! Zero cost when disabled: nothing here is global or ambient. Callers
//! construct a [`WallClock`]/[`Stopwatch`] only when profiling is
//! requested, so a run without a profile directory performs no clock
//! reads at all.

use aba_analysis::percentile_nearest_rank;
use std::time::Instant;

/// A monotonic clock anchored at its creation, reporting microseconds
/// since the anchor — the timestamp base for profile trace exports.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Anchors a new clock at "now".
    #[allow(clippy::disallowed_methods)] // timing channel: the one sanctioned wall-clock read
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// Microseconds elapsed since the anchor.
    #[allow(clippy::disallowed_methods)] // timing channel
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Nanoseconds elapsed since the anchor.
    #[allow(clippy::disallowed_methods)] // timing channel
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

/// A one-shot span timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing.
    #[allow(clippy::disallowed_methods)] // timing channel
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Microseconds since [`Stopwatch::start`].
    #[allow(clippy::disallowed_methods)] // timing channel
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

/// Latency percentiles over a batch of nanosecond samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Minimum, ns.
    pub min_ns: u64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 90th percentile, ns.
    pub p90_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
    /// Arithmetic mean, ns.
    pub mean_ns: u64,
}

impl LatencySummary {
    /// CSV header matching [`LatencySummary::csv_row`].
    pub fn csv_header() -> &'static str {
        "label,count,min_ns,p50_ns,p90_ns,p99_ns,max_ns,mean_ns"
    }

    /// One CSV row, prefixed with `label`.
    pub fn csv_row(&self, label: &str) -> String {
        format!(
            "{label},{},{},{},{},{},{},{}",
            self.count,
            self.min_ns,
            self.p50_ns,
            self.p90_ns,
            self.p99_ns,
            self.max_ns,
            self.mean_ns
        )
    }
}

/// Sorts `samples` in place and summarizes them; `None` when empty.
/// Percentiles follow the workspace's nearest-rank convention
/// ([`percentile_nearest_rank`]).
pub fn summarize_latencies(samples: &mut [u64]) -> Option<LatencySummary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let count = samples.len();
    let sum: u128 = samples.iter().map(|&v| u128::from(v)).sum();
    Some(LatencySummary {
        count,
        min_ns: samples[0],
        p50_ns: percentile_nearest_rank(samples, 50.0),
        p90_ns: percentile_nearest_rank(samples, 90.0),
        p99_ns: percentile_nearest_rank(samples, 99.0),
        max_ns: samples[count - 1],
        mean_ns: (sum / count as u128) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        let s = summarize_latencies(&mut v).unwrap();
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p90_ns, 90);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.max_ns, 100);
        assert_eq!(summarize_latencies(&mut []), None);
        let s = summarize_latencies(&mut [7]).unwrap();
        assert_eq!((s.p50_ns, s.p90_ns, s.p99_ns), (7, 7, 7));
    }

    #[test]
    fn summary_orders_and_averages() {
        let mut samples = vec![30, 10, 20];
        let s = summarize_latencies(&mut samples).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.p50_ns, 20);
        assert_eq!(s.mean_ns, 20);
        assert_eq!(summarize_latencies(&mut []), None);
        assert_eq!(s.csv_row("cell_a"), "cell_a,3,10,20,30,30,30,20");
    }

    #[test]
    fn clocks_are_monotone() {
        let clock = WallClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
        let sw = Stopwatch::start();
        assert!(sw.elapsed_us() <= sw.elapsed_us().max(sw.elapsed_us()));
    }
}
