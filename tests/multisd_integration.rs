//! Integration tests for the multi-SD scale-out extension at the
//! workspace level (facade crate surface).

use mcsd::framework::driver::ExecMode;
use mcsd::framework::multisd::MultiSdRunner;
use mcsd::prelude::*;

#[test]
fn scale_out_over_the_facade() {
    let cluster = mcsd::cluster::multi_sd_testbed(Scale::smoke(), 3);
    let runner = MultiSdRunner::new(cluster).unwrap();
    let input = TextGen::with_seed(12).generate(60_000);
    let out = runner
        .run(
            &WordCount,
            &WordCount::merger(),
            &input,
            ExecMode::Partitioned {
                fragment_bytes: None,
            },
        )
        .unwrap();
    assert_eq!(out.pairs, mcsd::apps::seq::wordcount(&input));
    assert_eq!(out.nodes(), 3);
    // Output respects the job's custom (frequency-descending) order.
    for w in out.pairs.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
}

#[test]
fn scale_out_handles_stringmatch_offsets_globally() {
    // Offsets must stay global across node spans, exactly as they do
    // across in-node fragments.
    let keys = mcsd::apps::datagen::keys_file(4, 7, 3);
    let encrypt = mcsd::apps::datagen::encrypt_file(50_000, &keys, 0.06, 9);
    let job = StringMatch::new(&keys);
    let cluster = mcsd::cluster::multi_sd_testbed(Scale::smoke(), 4);
    let runner = MultiSdRunner::new(cluster).unwrap();
    let out = runner
        .run(&job, &StringMatch::merger(), &encrypt, ExecMode::Parallel)
        .unwrap();
    assert_eq!(out.pairs, mcsd::apps::seq::stringmatch(&keys, &encrypt));
}

#[test]
fn heterogeneous_sd_fleet_is_bound_by_slowest() {
    // Make one SD node much slower; the fleet elapsed must be at least
    // that node's elapsed.
    let mut cluster = mcsd::cluster::multi_sd_testbed(Scale::smoke(), 3);
    for n in &mut cluster.nodes {
        n.memory_bytes = 64 << 20;
    }
    if let Some(node) = cluster.nodes.iter_mut().find(|n| n.name == "sd1") {
        node.core_speed = 0.1; // a decade-old drive controller
    }
    // The model's share of a span's compute: its input bytes over its
    // node's core speed. Measured compute is wall time, so it is not
    // compared across nodes.
    let speeds: Vec<(String, f64)> = cluster
        .nodes
        .iter()
        .map(|n| (n.name.to_string(), n.core_speed))
        .collect();
    let modelled = |r: &mcsd::framework::RunReport| {
        let speed = speeds.iter().find(|(name, _)| *name == r.node).unwrap().1;
        r.input_bytes as f64 / speed
    };
    let runner = MultiSdRunner::new(cluster).unwrap();
    let input = TextGen::with_seed(4).generate(40_000);
    let out = runner
        .run(&WordCount, &WordCount::merger(), &input, ExecMode::Parallel)
        .unwrap();
    let slow = out
        .per_node
        .iter()
        .find(|r| r.node == "sd1")
        .expect("sd1 report");
    assert!(out.elapsed >= slow.elapsed());
    // And the slow node dominates its healthy peers.
    for r in &out.per_node {
        if r.node != "sd1" {
            assert!(modelled(slow) > modelled(r), "{} vs sd1", r.node);
        }
    }
    assert_eq!(out.pairs, mcsd::apps::seq::wordcount(&input));
}
