//! Runs segments and turns them into reports. Segments of different
//! workloads are run round-robin (`L1 W1 J1 D1 L2 W2 …`), so a slow phase
//! of the machine lasting seconds touches at most a segment or two of any
//! workload and the median across segments ignores it.

use crate::json::Json;
use crate::procfs;
use crate::report::{self, Summary};
use crate::segment::{self, Scratch, SegmentResult, SegmentSpec};
use std::path::Path;

/// `run_seconds` of `BENCHMARK.json`: what the segment counts and op
/// counts are sized for.
pub const RUN_SECONDS: u64 = 15;
/// Segments per workload in a run of [`RUN_SECONDS`].
pub const SEGMENTS: usize = 7;

pub struct RunConfig {
    pub seed: u64,
    pub segments: usize,
    pub quick: bool,
    pub workloads: Vec<String>,
}

/// Segments for a run that measures for `seconds`. Op counts per segment
/// never change — log length per sample must not — so run length scales
/// the number of segments.
pub fn segments_for(seconds: f64) -> usize {
    ((seconds * SEGMENTS as f64 / RUN_SECONDS as f64).round() as usize).max(1)
}

/// Run `cfg.segments` untraced segments of each workload, interleaved.
pub fn run_segments(cfg: &RunConfig, scratch: &Path) -> Result<Vec<Vec<SegmentResult>>, String> {
    let mut results = vec![Vec::new(); cfg.workloads.len()];
    for index in 0..cfg.segments as u64 {
        for (slot, workload) in results.iter_mut().zip(&cfg.workloads) {
            slot.push(segment::spawn(&SegmentSpec {
                workload: workload.clone(),
                index,
                seed: cfg.seed,
                quick: cfg.quick,
                dir: scratch.join(format!("{workload}-{index}")),
                trace: None,
            })?);
        }
    }
    Ok(results)
}

pub fn summaries(cfg: &RunConfig) -> Result<Vec<Summary>, String> {
    let scratch = Scratch::create()?;
    eprintln!("machine: {}", procfs::machine(scratch.path()));
    eprintln!(
        "logs and data: fresh directory per segment under {}; the stack's own flush policy \
         (LogFile::append never syncs, append_batch calls sync_data once per batch)",
        scratch.path().display()
    );
    let results = run_segments(cfg, scratch.path())?;
    Ok(cfg
        .workloads
        .iter()
        .zip(&results)
        .map(|(w, segments)| report::summarize(w, segments))
        .collect())
}

/// The contract's untraced run: one workload, one result line.
pub fn contract_run(workload: &str, seed: u64, seconds: f64) -> Result<bool, String> {
    let summary = summaries(&RunConfig {
        seed,
        segments: segments_for(seconds),
        quick: false,
        workloads: vec![workload.to_string()],
    })?
    .remove(0);
    eprint!("{}", summary.render());
    println!(
        "{}",
        report::result_line(
            summary.correct(),
            summary.attempted,
            summary.failed,
            summary.end_to_end_json()
        )
    );
    Ok(summary.correct())
}

/// `benchmark run`: every workload, a readable report on stderr and one
/// JSON document on stdout. Exits non-zero on any failed or wrong op.
pub fn full_run(cfg: &RunConfig) -> Result<bool, String> {
    let all = summaries(cfg)?;
    let mut fields = Vec::new();
    for s in &all {
        eprint!("{}", s.render());
        fields.push((
            s.workload.clone(),
            report::result_line(s.correct(), s.attempted, s.failed, s.end_to_end_json()),
        ));
    }
    println!("{}", Json::Obj(fields));
    Ok(all.iter().all(Summary::correct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_length_scales_the_segment_count_not_the_segment() {
        assert_eq!(segments_for(RUN_SECONDS as f64), SEGMENTS);
        assert_eq!(segments_for(1.0), 1);
        assert_eq!(segments_for(0.0), 1);
        assert_eq!(segments_for(2.0 * RUN_SECONDS as f64), 2 * SEGMENTS);
    }
}
