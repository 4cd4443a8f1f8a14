//! Ablation studies for the design choices DESIGN.md §6 calls out.
//!
//! These go beyond the paper's figures: they vary one design parameter at
//! a time and report its effect, answering "why 600 MB partitions", "what
//! do more cores buy", "what would Infiniband change" (the paper's §VI
//! future work), and "what breaks without the integrity check".

use crate::table::{fmt_duration, TextTable};
use crate::{workloads, ExperimentConfig};
use mcsd_apps::WordCount;
use mcsd_cluster::{paper_testbed, Cluster, Fabric, NetworkModel, NodeName, NodeSpec};
use mcsd_core::driver::{ExecMode, NodeRunner};
use mcsd_core::McsdError;
use mcsd_phoenix::prelude::*;
use std::time::Duration;

/// Partition-size sweep: WC at "1G" on the duo SD node.
///
/// Returns `(label, elapsed, fragments, swapped_bytes)` per point; the
/// `native` point is the non-partitioned runtime.
pub fn partition_size_sweep(
    cfg: &ExperimentConfig,
) -> Result<Vec<(String, Duration, u64, u64)>, McsdError> {
    let cluster = paper_testbed(cfg.scale);
    let runner = NodeRunner::new(cluster.sd().clone(), cluster.disk);
    let input = workloads::wc_input(cfg, "1G")?;
    let mut out = Vec::new();
    for label in ["75M", "150M", "300M", "600M", "1.2G", "native"] {
        let mode = if label == "native" {
            ExecMode::Parallel
        } else {
            let bytes = cfg
                .scale
                .scaled(label)
                .ok_or_else(|| McsdError::BadScenario {
                    detail: format!("unknown partition label {label:?}"),
                })?;
            ExecMode::Partitioned {
                fragment_bytes: Some(bytes as usize),
            }
        };
        match runner.run_mode(&WordCount, &WordCount::merger(), &input, mode) {
            Ok(r) => out.push((
                label.to_string(),
                r.elapsed(),
                r.report.stats.fragments,
                r.report.stats.swapped_bytes,
            )),
            Err(_) => out.push((label.to_string(), Duration::MAX, 0, 0)),
        }
    }
    Ok(out)
}

/// Render the partition-size sweep.
pub fn partition_size_table(points: &[(String, Duration, u64, u64)]) -> TextTable {
    let mut t = TextTable::new(vec!["partition", "elapsed", "fragments", "swapped"]);
    for (label, d, frags, swapped) in points {
        let elapsed = if *d == Duration::MAX {
            "FAIL".to_string()
        } else {
            fmt_duration(*d)
        };
        t.row(vec![
            label.clone(),
            elapsed,
            frags.to_string(),
            swapped.to_string(),
        ]);
    }
    t
}

/// Core counts of the worker sweep.
const SWEEP_CORES: [usize; 4] = [1, 2, 4, 8];

/// The worker sweep's hypothetical SD node: `cores` host-speed cores.
fn sweep_node(cluster: &Cluster, cores: usize) -> NodeSpec {
    NodeSpec {
        cores,
        core_speed: 1.0,
        name: NodeName::new("sd-").at(cores as u32).with_suffix("core"),
        ..cluster.sd().clone()
    }
}

/// Worker-count sweep: WC "1G" partitioned on a hypothetical SD node with
/// 1–8 host-speed cores (the "what does a bigger embedded CPU buy" study).
pub fn worker_sweep(cfg: &ExperimentConfig) -> Result<Vec<(usize, Duration)>, McsdError> {
    let cluster = paper_testbed(cfg.scale);
    let input = workloads::wc_input(cfg, "1G")?;
    let fragment = Some(workloads::partition_bytes(cfg)?);
    let mut out = Vec::new();
    for cores in SWEEP_CORES {
        let runner = NodeRunner::new(sweep_node(&cluster, cores), cluster.disk);
        let r = runner.run_mode(
            &WordCount,
            &WordCount::merger(),
            &input,
            ExecMode::Partitioned {
                fragment_bytes: fragment,
            },
        )?;
        out.push((cores, r.elapsed()));
    }
    Ok(out)
}

/// Render the worker sweep.
pub fn worker_table(points: &[(usize, Duration)]) -> TextTable {
    let mut t = TextTable::new(vec!["cores", "elapsed", "speedup-vs-1core"]);
    let base = points.first().map(|(_, d)| d.as_secs_f64()).unwrap_or(1.0);
    for (cores, d) in points {
        t.row(vec![
            cores.to_string(),
            fmt_duration(*d),
            format!("{:.2}x", base / d.as_secs_f64().max(1e-12)),
        ]);
    }
    t
}

/// Network-fabric ablation (paper §VI: "replace Ethernet with
/// Infiniband"): the time to move a "1G" input from SD to host over each
/// fabric — the cost McSD's in-place processing avoids.
pub fn network_sweep(cfg: &ExperimentConfig) -> Result<Vec<(String, Duration)>, McsdError> {
    let bytes = cfg
        .scale
        .scaled("1G")
        .ok_or_else(|| McsdError::BadScenario {
            detail: "unknown size label \"1G\"".to_string(),
        })?;
    Ok([
        ("FastEthernet", Fabric::FastEthernet),
        ("GigabitEthernet", Fabric::GigabitEthernet),
        ("Infiniband", Fabric::Infiniband),
    ]
    .into_iter()
    .map(|(name, fabric)| {
        let net = NetworkModel::new(fabric);
        (name.to_string(), net.transfer_time(bytes))
    })
    .collect())
}

/// Render the network sweep.
pub fn network_table(points: &[(String, Duration)]) -> TextTable {
    let mut t = TextTable::new(vec!["fabric", "transfer(1G input)"]);
    for (name, d) in points {
        t.row(vec![name.clone(), fmt_duration(*d)]);
    }
    t
}

/// Multi-SD scale-out sweep (paper §VI: "the parallelisms among multiple
/// McSD smart disks"): WC at "2G" — a size a single node can only handle
/// partitioned — spread across 1–4 SD nodes.
pub fn multisd_sweep(cfg: &ExperimentConfig) -> Result<Vec<(usize, Duration)>, McsdError> {
    use mcsd_core::driver::ExecMode;
    use mcsd_core::multisd::MultiSdRunner;
    let input = workloads::wc_input(cfg, "2G")?;
    let mut out = Vec::new();
    for sd_count in [1usize, 2, 3, 4] {
        let cluster = mcsd_cluster::multi_sd_testbed(cfg.scale, sd_count);
        let runner = MultiSdRunner::new(cluster)?;
        let r = runner.run(
            &WordCount,
            &WordCount::merger(),
            &input,
            ExecMode::Partitioned {
                fragment_bytes: None,
            },
        )?;
        out.push((sd_count, r.elapsed));
    }
    Ok(out)
}

/// Render the multi-SD sweep.
pub fn multisd_table(points: &[(usize, Duration)]) -> TextTable {
    let mut t = TextTable::new(vec!["sd-nodes", "elapsed", "speedup-vs-1"]);
    let base = points.first().map(|(_, d)| d.as_secs_f64()).unwrap_or(1.0);
    for (n, d) in points {
        t.row(vec![
            n.to_string(),
            fmt_duration(*d),
            format!("{:.2}x", base / d.as_secs_f64().max(1e-12)),
        ]);
    }
    t
}

/// Delegating WC wrapper whose split spec skips the integrity check —
/// demonstrating why Fig. 7 exists.
#[derive(Clone)]
struct NoIntegrityWc;

impl Job for NoIntegrityWc {
    type Key = String;
    type Value = u64;

    fn map(&self, chunk: InputChunk<'_>, emitter: &mut Emitter<'_, String, u64>) {
        WordCount.map(chunk, emitter)
    }

    fn reduce(&self, key: &String, values: &mut ValueIter<'_, u64>) -> Option<u64> {
        WordCount.reduce(key, values)
    }

    fn has_combiner(&self) -> bool {
        true
    }

    fn combine(&self, acc: &mut u64, next: u64) {
        *acc += next;
    }

    fn split_spec(&self) -> SplitSpec {
        SplitSpec::bytes() // cut anywhere: words get broken at boundaries
    }

    fn output_order(&self) -> OutputOrder {
        OutputOrder::ByKey
    }

    fn footprint_factor(&self) -> f64 {
        3.0
    }

    fn name(&self) -> &str {
        "wordcount-nointegrity"
    }
}

/// Integrity-check ablation: partition a corpus with and without the
/// Fig. 7 boundary legalization and count the *incorrect word counts* the
/// naive cut introduces. Returns `(distinct_words_correct,
/// distinct_words_broken, differing_counts)`.
pub fn integrity_ablation(cfg: &ExperimentConfig) -> Result<(usize, usize, usize), McsdError> {
    let input = workloads::wc_input(cfg, "500M")?;
    let fragment = workloads::partition_bytes(cfg)? / 4;
    let rt = Runtime::new(PhoenixConfig::with_workers(2));
    let correct_whole = rt.run(&WordCount, &input)?;
    let mut correct: Vec<(String, u64)> = correct_whole.pairs;
    correct.sort();

    let part = PartitionedRuntime::new(rt, PartitionSpec::new(fragment));
    let broken_out = part.run(&NoIntegrityWc, &input, &WordCount::merger())?;
    let mut broken: Vec<(String, u64)> = broken_out.pairs;
    broken.sort();

    let correct_map: std::collections::HashMap<&String, u64> =
        correct.iter().map(|(k, v)| (k, *v)).collect();
    let mut differing = 0usize;
    for (k, v) in &broken {
        if correct_map.get(k) != Some(v) {
            differing += 1;
        }
    }
    differing += correct
        .iter()
        .filter(|(k, _)| !broken.iter().any(|(bk, _)| bk == k))
        .count();
    Ok((correct.len(), broken.len(), differing))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_sweep_has_all_points() {
        let cfg = ExperimentConfig::quick();
        let points = partition_size_sweep(&cfg).unwrap();
        assert_eq!(points.len(), 6);
        // Smaller partitions -> more fragments.
        let frags_150 = points.iter().find(|p| p.0 == "150M").unwrap().2;
        let frags_600 = points.iter().find(|p| p.0 == "600M").unwrap().2;
        assert!(frags_150 > frags_600);
        // The paper's 600M partition never swaps; native at 1G does.
        assert_eq!(points.iter().find(|p| p.0 == "600M").unwrap().3, 0);
        assert!(points.iter().find(|p| p.0 == "native").unwrap().3 > 0);
    }

    #[test]
    fn worker_sweep_is_monotone() {
        let cfg = ExperimentConfig::quick();
        let points = worker_sweep(&cfg).unwrap();
        let cores: Vec<usize> = points.iter().map(|p| p.0).collect();
        assert_eq!(cores, SWEEP_CORES);
        assert!(points.iter().all(|p| p.1 > Duration::ZERO));
        // Monotone in the model: one measured wall time charged at each
        // sweep node's core count. The points' own elapsed times are four
        // separate wall measurements, and adjacent ones invert under load.
        let cluster = paper_testbed(cfg.scale);
        let charged = SWEEP_CORES.map(|cores| {
            let node = mcsd_cluster::NodeExecutor::new(sweep_node(&cluster, cores));
            let node = node.with_machine_cores(1);
            node.virtual_compute(Duration::from_millis(100), cores)
        });
        assert!(charged.windows(2).all(|w| w[1] < w[0]), "{charged:?}");
    }

    #[test]
    fn network_sweep_orders_fabrics() {
        let cfg = ExperimentConfig::quick();
        let points = network_sweep(&cfg).unwrap();
        let get = |name: &str| points.iter().find(|p| p.0 == name).unwrap().1;
        assert!(get("Infiniband") < get("GigabitEthernet"));
        assert!(get("GigabitEthernet") < get("FastEthernet"));
    }

    #[test]
    fn integrity_check_prevents_broken_words() {
        let cfg = ExperimentConfig::quick();
        let (correct, _broken, differing) = integrity_ablation(&cfg).unwrap();
        assert!(correct > 0);
        // Cutting words at raw byte boundaries must corrupt some counts.
        assert!(
            differing > 0,
            "expected broken words without integrity check"
        );
    }

    #[test]
    fn multisd_sweep_scales() {
        let cfg = ExperimentConfig::quick();
        for attempt in 0..3 {
            let points = multisd_sweep(&cfg).unwrap();
            assert_eq!(points.len(), 4);
            let (one, four) = (points[0].1, points[3].1);
            if four < one {
                return;
            }
            eprintln!("attempt {attempt}: 4 SD nodes {four:?} !< 1 node {one:?}");
        }
        panic!("multi-SD sweep never scaled across 3 attempts");
    }

    #[test]
    fn tables_render() {
        let cfg = ExperimentConfig::quick();
        let s = partition_size_table(&partition_size_sweep(&cfg).unwrap()).render();
        assert!(s.contains("600M"));
        let s = network_table(&network_sweep(&cfg).unwrap()).render();
        assert!(s.contains("Infiniband"));
        let s = worker_table(&worker_sweep(&cfg).unwrap()).render();
        assert!(s.contains("speedup"));
    }
}
