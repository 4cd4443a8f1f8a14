//! From a workload's segments to its metrics. Everything is computed per
//! segment and reported as the median across segments, except latency
//! percentiles, which are taken over the pooled ops of all segments, and
//! `setup_s`, which is the fastest segment's.
//! Nothing is a mean over the total wall time, so a slow phase of the
//! machine that hits one segment does not move the result.

use crate::json::Json;
use crate::segment::SegmentResult;
use crate::stats;

/// The end-to-end metrics of `BENCHMARK.json`, with their units, in the
/// order they are printed. Every workload reports every one. The count of
/// allocations does not move with the machine's speed, so same-code runs
/// agree on it within its bound; `setup_s` is the timing the contract
/// requires.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("allocs_per_op", "count")];

/// What the issue also named end-to-end and same-code runs on the shared
/// 2-vCPU box do not agree on within a tenth (README.md has the
/// evidence): the timings of the measured ops, a peak RSS that depends on
/// which threads held their buffers at once, and the bytes asked of the
/// allocator, which grow with every poll of a slower job. Printed with
/// every run and reported as layer metrics, without a bound.
pub const DEMOTED: [(&str, &str); 6] = [
    ("harness.ops_per_s", "1/s"),
    ("harness.op_latency_p50_ms", "ms"),
    ("harness.late_over_early", "ratio"),
    ("harness.cpu_ms_per_op", "ms"),
    ("harness.peak_rss_mb", "MB"),
    ("harness.alloc_kb_per_op", "kB"),
];

#[derive(Debug, Clone)]
pub struct Summary {
    pub workload: String,
    pub segments: usize,
    pub attempted: u64,
    pub failed: u64,
    /// One value per entry of [`END_TO_END`], in that order.
    pub end_to_end: Vec<f64>,
    /// One value per entry of [`DEMOTED`], in that order.
    pub demoted: Vec<f64>,
    /// Tail of the pooled latencies: the highest of p99/p95/p90 with at
    /// least ten ops beyond it (`harness.tail_ms`).
    pub tail_label: &'static str,
    pub pooled_ops: usize,
    pub tail_ms: f64,
    /// Bytes through the file interface per op (`rchar`/`wchar`): on the
    /// paper's NFS-shared log this is network traffic. Zero for
    /// `rack_des`, which is why it is a layer metric and not end-to-end.
    pub io_read_kb_per_op: f64,
    pub io_write_kb_per_op: f64,
    /// Median of the fixed kernel's timings around the segments.
    pub calib_ms: f64,
    /// Each segment's `ops_per_s` and fixed-kernel time, in run order.
    pub segment_rates: Vec<f64>,
    pub segment_calib_ms: Vec<f64>,
    /// Median of each extra the segments reported.
    pub extras: Vec<(String, f64)>,
}

fn per_segment(segments: &[SegmentResult], f: impl Fn(&SegmentResult) -> f64) -> Vec<f64> {
    segments.iter().map(f).collect()
}

pub fn summarize(workload: &str, segments: &[SegmentResult]) -> Summary {
    let ok_ops = |s: &SegmentResult| (s.attempted - s.failed).max(1) as f64;
    let median_of = |f: &dyn Fn(&SegmentResult) -> f64| stats::median(&per_segment(segments, f));
    let pooled = stats::sorted(
        &segments
            .iter()
            .flat_map(|s| s.lat_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let (tail_label, tail_ms) = stats::tail(&pooled);
    let rates = per_segment(segments, |s| ok_ops(s) / s.wall_s);
    let rate = stats::median(&rates);
    let mut extras: Vec<(String, f64)> = Vec::new();
    if let Some(first) = segments.first() {
        for (name, _) in &first.extras {
            let values: Vec<f64> = segments
                .iter()
                .filter_map(|s| s.extras.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                .collect();
            extras.push((name.clone(), stats::median(&values)));
        }
    }
    Summary {
        workload: workload.to_string(),
        segments: segments.len(),
        attempted: segments.iter().map(|s| s.attempted).sum(),
        failed: segments.iter().map(|s| s.failed).sum(),
        end_to_end: vec![
            // The fastest set-up, not the median one: a busy neighbour only
            // ever adds time, and the median of 7 flips between the
            // machine's two speeds from run to run.
            per_segment(segments, |s| s.setup_s)
                .into_iter()
                .fold(f64::INFINITY, f64::min),
            median_of(&|s| s.allocs / ok_ops(s)),
        ],
        demoted: vec![
            rate,
            stats::median(&pooled),
            median_of(&|s| stats::late_over_early(&s.series_ms)),
            median_of(&|s| s.cpu_ms / ok_ops(s)),
            median_of(&|s| s.peak_rss_mb),
            median_of(&|s| s.alloc_kb / ok_ops(s)),
        ],
        tail_label,
        pooled_ops: pooled.len(),
        tail_ms,
        io_read_kb_per_op: median_of(&|s| s.io_read_kb / ok_ops(s)),
        io_write_kb_per_op: median_of(&|s| s.io_write_kb / ok_ops(s)),
        calib_ms: stats::median(&segments.iter().flat_map(|s| s.calib_ms).collect::<Vec<_>>()),
        segment_calib_ms: per_segment(segments, |s| (s.calib_ms[0] + s.calib_ms[1]) / 2.0),
        segment_rates: rates,
        extras,
    }
}

/// `{"name": {"value": v, "unit": u}, …}`.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
}

impl Summary {
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self
                .end_to_end
                .iter()
                .chain(&self.demoted)
                .all(|v| v.is_finite())
    }

    pub fn ops_per_s(&self) -> f64 {
        self.demoted[0]
    }

    pub fn p50_ms(&self) -> f64 {
        self.demoted[1]
    }

    pub fn end_to_end_json(&self) -> Json {
        metrics_json(
            END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|(&(name, unit), &value)| (name, value, unit)),
        )
    }

    /// Human-readable block for stderr.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} — {} segments, {} ops attempted, {} failed\n",
            self.workload, self.segments, self.attempted, self.failed
        );
        let values = self.end_to_end.iter().chain(&self.demoted);
        for (&(name, unit), value) in END_TO_END.iter().chain(&DEMOTED).zip(values) {
            out += &format!("  {name:<26} {value:>14.4} {unit}\n");
        }
        out += &format!(
            "  harness.tail_ms {:.4} ({} of {} pooled ops)\n",
            self.tail_ms, self.tail_label, self.pooled_ops
        );
        // (max − min) ÷ median of the segments' `ops_per_s`.
        let (slowest, fastest) = self
            .segment_rates
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &r| {
                (lo.min(r), hi.max(r))
            });
        out += &format!(
            "  io_read_kb_per_op {:.3}  io_write_kb_per_op {:.3}  harness.calib_ms {:.3}  \
             harness.segment_spread {:.3}\n",
            self.io_read_kb_per_op,
            self.io_write_kb_per_op,
            self.calib_ms,
            (fastest - slowest) / self.ops_per_s()
        );
        out += &format!(
            "  per segment: ops_per_s {:.1?}  calib_ms {:.2?}\n",
            self.segment_rates, self.segment_calib_ms
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(rate: f64, lat: &[f64]) -> SegmentResult {
        SegmentResult {
            workload: "w".into(),
            setup_s: 0.5,
            wall_s: lat.len() as f64 / rate,
            attempted: lat.len() as u64,
            failed: 0,
            lat_ms: lat.to_vec(),
            series_ms: lat.to_vec(),
            cpu_ms: 2.0 * lat.len() as f64,
            peak_rss_mb: 10.0,
            io_read_kb: 3.0 * lat.len() as f64,
            io_write_kb: 0.0,
            allocs: 7.0 * lat.len() as f64,
            alloc_kb: 0.5 * lat.len() as f64,
            calib_ms: [4.0, 6.0],
            extras: vec![("x".into(), rate)],
        }
    }

    #[test]
    fn rates_are_medians_of_segments_and_latencies_are_pooled() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let mut segments = [
            segment(100.0, &lat),
            segment(10.0, &lat), // one segment hit a slow phase
            segment(102.0, &lat),
        ];
        segments[1].setup_s = 0.9;
        segments[2].setup_s = 0.45;
        let s = summarize("w", &segments);
        let get =
            |name: &str| s.end_to_end[END_TO_END.iter().position(|(n, _)| *n == name).unwrap()];
        assert!((s.ops_per_s() - 100.0).abs() < 1e-9);
        assert_eq!(s.p50_ms(), 50.5);
        // 300 pooled ops: p95 leaves 15 beyond, p99 only 3.
        assert_eq!((s.tail_label, s.tail_ms), ("p95", 95.0));
        assert_eq!(s.demoted[3..], [2.0, 10.0, 0.5]);
        // Set-up is the fastest segment's, everything else a median.
        assert_eq!(get("setup_s"), 0.45);
        assert_eq!(get("allocs_per_op"), 7.0);
        assert_eq!(s.io_read_kb_per_op, 3.0);
        assert_eq!(s.calib_ms, 5.0);
        assert_eq!(s.extras, vec![("x".to_string(), 100.0)]);
        assert_eq!((s.attempted, s.failed), (300, 0));
        assert!(s.correct());
    }

    #[test]
    fn failed_ops_are_counted_and_make_the_run_incorrect() {
        let mut seg = segment(100.0, &[1.0; 50]);
        seg.attempted = 52;
        seg.failed = 2;
        let s = summarize("w", &[seg]);
        assert_eq!((s.attempted, s.failed), (52, 2));
        assert!(!s.correct());
    }
}
