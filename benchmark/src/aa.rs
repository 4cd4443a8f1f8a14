//! The A/A noise gate: the same code measured twice must agree with
//! itself within the bounds `BENCHMARK.json` fixes, or the bounds (or the
//! benchmark) are wrong. Runs the full benchmark `2 × sets` times,
//! alternating the labels A and B, and compares the two labels' medians.
//! Both runs of a set use the same seed, so a difference is the machine's
//! and not the inputs'; the seed changes from set to set. The demoted
//! metrics, which carry no bound, are printed too: the table is the
//! evidence for leaving them out of the end-to-end list.

use crate::json::Json;
use crate::report::{Summary, DEMOTED, END_TO_END};
use crate::runner::{self, RunConfig};
use crate::stats;
use crate::workloads::WORKLOADS;

/// `bound` of each end-to-end metric, in [`END_TO_END`] order.
pub fn bounds() -> Result<Vec<f64>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let decl = Json::parse(&text)?;
    let metrics = decl
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    END_TO_END
        .iter()
        .map(|(name, _)| {
            metrics
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
                .ok_or_else(|| format!("BENCHMARK.json does not declare {name}"))?
                .num("bound")
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`; negative if better.
fn worse_by(name: &str, a: f64, b: f64) -> f64 {
    if name.ends_with("ops_per_s") {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn run(sets: usize, seed: u64, quick: bool) -> Result<bool, String> {
    let bounds = bounds()?;
    // runs[label][set] = one Summary per workload.
    let mut runs: [Vec<Vec<Summary>>; 2] = Default::default();
    for set in 0..sets {
        for (label, slot) in runs.iter_mut().enumerate() {
            eprintln!("A/A set {} of {sets}, label {}", set + 1, ["A", "B"][label]);
            let summaries = runner::summaries(&RunConfig {
                seed: seed + set as u64,
                segments: if quick { 1 } else { runner::SEGMENTS },
                quick,
                workloads: WORKLOADS.map(String::from).to_vec(),
            })?;
            if let Some(bad) = summaries.iter().find(|s| !s.correct()) {
                return Err(format!(
                    "{}: {} of {} ops failed",
                    bad.workload, bad.failed, bad.attempted
                ));
            }
            slot.push(summaries);
        }
    }
    let medians = |w: usize, f: &dyn Fn(&Summary) -> f64| -> [f64; 2] {
        [0, 1].map(|label| {
            stats::median(&runs[label].iter().map(|set| f(&set[w])).collect::<Vec<_>>())
        })
    };
    let mut within = true;
    println!("| workload | metric | median A | median B | B worse by | bound | calib_ms A / B |");
    println!("|---|---|---|---|---|---|---|");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let calib = medians(w, &|s| s.calib_ms);
        let bounded = END_TO_END.iter().zip(bounds.iter().map(Some));
        let unbounded = DEMOTED.iter().zip(std::iter::repeat(None));
        for (m, ((name, unit), bound)) in bounded.chain(unbounded).enumerate() {
            let [a, b] = medians(w, &|s| match m.checked_sub(END_TO_END.len()) {
                None => s.end_to_end[m],
                Some(t) => s.demoted[t],
            });
            let diff = worse_by(name, a, b);
            // Either label may play the parent: the gate is symmetric.
            let verdict = match bound {
                Some(bound) if diff.abs() > *bound => {
                    within = false;
                    format!("{:.0} % EXCEEDED", bound * 100.0)
                }
                Some(bound) => format!("{:.0} %", bound * 100.0),
                None => "none".to_string(),
            };
            println!(
                "| {workload} | {name} ({unit}) | {a:.4} | {b:.4} | {:+.1} % | {verdict} | {:.2} / {:.2} |",
                diff * 100.0,
                calib[0],
                calib[1],
            );
        }
    }
    if quick {
        println!("quick mode: bounds are not enforced");
        return Ok(true);
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_is_signed_by_the_metric_direction() {
        assert!((worse_by("harness.ops_per_s", 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by("harness.ops_per_s", 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worse_by("allocs_per_op", 2.0, 2.1) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound() {
        let b = bounds().unwrap();
        assert_eq!(b.len(), END_TO_END.len());
        assert!(b.iter().all(|&x| x > 0.0 && x <= 0.25));
    }
}
