//! Order statistics the benchmark reports: medians, the percentile
//! ladder for the tail and the late/early ratio.

use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample; NaN for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of a sorted sample: the smallest value with at
/// least `p` of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest of p99/p95/p90 that has at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, with its label. A sample too small for p90 still
/// reports p90, labelled `p90*`, so a quick run prints a number.
pub fn tail(sorted: &[f64]) -> (&'static str, f64) {
    for (label, p) in [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)] {
        if !sorted.is_empty() && sorted.len() - rank(sorted.len(), p) >= TAIL_MIN_BEYOND {
            return (label, percentile(sorted, p));
        }
    }
    ("p90*", percentile(sorted, 0.90))
}

/// Median of the last fifth of a series over the median of its first
/// fifth, in the order the values were measured: above 1 means ops got
/// slower as the segment's state grew.
pub fn late_over_early(series: &[f64]) -> f64 {
    let fifth = (series.len() / 5).max(1).min(series.len());
    if fifth == 0 {
        return f64::NAN;
    }
    median(&series[series.len() - fifth..]) / median(&series[..fifth])
}

/// (p10, p50, p90) of a probe's samples.
pub fn p10_p50_p90(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    (percentile(&v, 0.10), median(&v), percentile(&v, 0.90))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_segments_ignores_one_slow_segment() {
        assert_eq!(
            median(&[850.0, 845.0, 851.0, 620.0, 848.0, 852.0, 849.0]),
            849.0
        );
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&ramp(1), 0.99), 1.0);
    }

    #[test]
    fn tail_ladder_needs_ten_samples_beyond() {
        // 10 500 samples: p99 leaves 105 beyond.
        assert_eq!(tail(&ramp(10_500)), ("p99", 10_395.0));
        // 1000: p99 leaves exactly 10.
        assert_eq!(tail(&ramp(1000)), ("p99", 990.0));
        // 999: p99 leaves 9, p95 leaves 49.
        assert_eq!(tail(&ramp(999)).0, "p95");
        // 210: p95 leaves 10.
        assert_eq!(tail(&ramp(210)), ("p95", 200.0));
        // 140: p95 leaves 7, p90 leaves 14.
        assert_eq!(tail(&ramp(140)), ("p90", 126.0));
        // 99: p90 leaves 9 — reported, but flagged.
        assert_eq!(tail(&ramp(99)).0, "p90*");
    }

    #[test]
    fn late_over_early_on_synthetic_ramps() {
        // Flat series: no growth.
        assert_eq!(late_over_early(&[2.0; 50]), 1.0);
        // 1..=100: first fifth median 10.5, last fifth median 90.5.
        let r = late_over_early(&ramp(100));
        assert!((r - 90.5 / 10.5).abs() < 1e-12, "{r}");
        // 16 chunks (the window workload): fifths of 3 chunks each.
        let chunks: Vec<f64> = (0..16).map(|i| 100.0 + 10.0 * i as f64).collect();
        assert!((late_over_early(&chunks) - 240.0 / 110.0).abs() < 1e-12);
        // One spike in the middle does not move it.
        let mut spiky = vec![1.0; 100];
        spiky[50] = 1000.0;
        assert_eq!(late_over_early(&spiky), 1.0);
        assert_eq!(late_over_early(&[3.0]), 1.0);
    }
}
