//! Statistics and the result line: nearest-rank percentiles, the
//! process's peak resident set, and the JSON object the benchmark prints
//! last.

use aba_analysis::percentile_nearest_rank;

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of unsorted samples, or
/// `None` for an empty sample.
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(percentile_nearest_rank(&sorted, p))
}

/// Samples strictly above the nearest-rank percentile's rank: the tail a
/// percentile rests on.
pub fn beyond_rank(count: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * count as f64).ceil() as usize;
    count - rank.min(count)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// The last line of the benchmark's output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_agrees_with_the_analysis_crate() {
        let samples = [40, 10, 30, 20];
        assert_eq!(percentile(&samples, 50.0), Some(20));
        assert_eq!(percentile(&samples, 90.0), Some(40));
        let sorted = [10, 20, 30, 40];
        for p in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            assert_eq!(
                percentile(&samples, p),
                Some(percentile_nearest_rank(&sorted, p))
            );
        }
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_counts_follow_the_rank() {
        assert_eq!(beyond_rank(100, 90.0), 10);
        assert_eq!(beyond_rank(99, 90.0), 9);
        assert_eq!(beyond_rank(4, 50.0), 2);
        assert_eq!(beyond_rank(0, 90.0), 0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().expect("linux /proc") > 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric::new("trials_per_s", 20.5, "1/s"),
                Metric::new("setup_s", 0.25, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"trials_per_s\": {\"value\": 20.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
