//! End-to-end tests through the full stack: framework → smartFAM daemon →
//! modules → Phoenix → results back through the log files.

use mcsd::apps::{datagen, seq};
use mcsd::prelude::*;

fn big_memory_cluster() -> Cluster {
    let mut c = paper_testbed(Scale::default_experiment());
    for n in &mut c.nodes {
        n.memory_bytes = 256 << 20;
    }
    c
}

#[test]
fn all_three_benchmarks_offload_correctly() {
    let fw = McsdFramework::start(big_memory_cluster(), OffloadPolicy::DataIntensiveToSd)
        .expect("framework boots");

    // Word Count.
    let corpus = TextGen::with_seed(1).generate(30_000);
    fw.stage_data_local("c.txt", &corpus).unwrap();
    let (wc, _) = fw.wordcount("c.txt", Some("auto")).unwrap();
    assert_eq!(wc, seq::wordcount(&corpus));

    // String Match.
    let keys = datagen::keys_file(5, 8, 2);
    let encrypt = datagen::encrypt_file(25_000, &keys, 0.08, 3);
    fw.stage_data_local("e.bin", &encrypt).unwrap();
    fw.stage_data_local("k.txt", keys.join("\n").as_bytes())
        .unwrap();
    let (sm, _) = fw.stringmatch("e.bin", "k.txt", None).unwrap();
    assert_eq!(sm, seq::stringmatch(&keys, &encrypt));

    // Matrix Multiplication (compute-intensive: stays on the host).
    let (a, b) = datagen::matrix_pair(20, 15, 18, 4);
    let (c, _) = fw.matmul(&a, &b).unwrap();
    assert!(c.max_abs_diff(&seq::matmul(&a, &b)) < 1e-9);

    // Under the default policy only WC and SM went through the daemon.
    assert_eq!(fw.sd_node().daemon_stats().ok, 2);
    fw.stop();
}

#[test]
fn repeated_offloads_reuse_the_same_module_log() {
    let fw = McsdFramework::start(big_memory_cluster(), OffloadPolicy::DataIntensiveToSd)
        .expect("framework boots");
    for i in 0..4 {
        let corpus = TextGen::with_seed(i).generate(8_000);
        fw.stage_data_local("c.txt", &corpus).unwrap();
        let (wc, _) = fw.wordcount("c.txt", None).unwrap();
        assert_eq!(wc, seq::wordcount(&corpus), "round {i}");
    }
    assert_eq!(fw.sd_node().daemon_stats().ok, 4);
    fw.stop();
}

#[test]
fn partition_parameter_forms_agree() {
    let fw = McsdFramework::start(big_memory_cluster(), OffloadPolicy::DataIntensiveToSd)
        .expect("framework boots");
    let corpus = TextGen::with_seed(9).generate(40_000);
    fw.stage_data_local("c.txt", &corpus).unwrap();
    let (native, _) = fw.wordcount("c.txt", None).unwrap();
    let (auto, _) = fw.wordcount("c.txt", Some("auto")).unwrap();
    let (manual, _) = fw.wordcount("c.txt", Some("8K")).unwrap();
    assert_eq!(native, auto);
    assert_eq!(native, manual);
    fw.stop();
}

#[test]
fn missing_staged_file_is_a_clean_error() {
    let fw = McsdFramework::start(big_memory_cluster(), OffloadPolicy::DataIntensiveToSd)
        .expect("framework boots");
    let err = fw.wordcount("never-staged.txt", None).unwrap_err();
    assert!(err.to_string().contains("No such file") || err.to_string().contains("not found"));
    fw.stop();
}

#[test]
fn daemon_restart_mid_session_recovers() {
    let cluster = big_memory_cluster();
    let mut server = mcsd::framework::bridge::SdNodeServer::start(&cluster).unwrap();
    let corpus = TextGen::with_seed(21).generate(6_000);
    server.stage_local("c.txt", &corpus).unwrap();

    // First call succeeds normally.
    let client = server.host_client();
    let (payload, _) = client
        .invoke(
            "wordcount",
            &["c.txt".into()],
            std::time::Duration::from_secs(120),
        )
        .0
        .unwrap();
    assert!(!payload.is_empty());

    // Restart and call again over the same (replayed) log.
    server.restart_daemon().unwrap();
    let client = server.host_client();
    let (payload2, _) = client
        .invoke(
            "wordcount",
            &["c.txt".into()],
            std::time::Duration::from_secs(120),
        )
        .0
        .unwrap();
    assert_eq!(payload, payload2);
}

#[test]
fn policy_decides_placement_not_correctness() {
    // The same calls give identical results under opposite policies.
    let corpus = TextGen::with_seed(33).generate(12_000);
    let mut results = Vec::new();
    for policy in [OffloadPolicy::DataIntensiveToSd, OffloadPolicy::AlwaysHost] {
        let fw = McsdFramework::start(big_memory_cluster(), policy).unwrap();
        fw.stage_data_local("c.txt", &corpus).unwrap();
        let (wc, _) = fw.wordcount("c.txt", None).unwrap();
        results.push(wc);
        fw.stop();
    }
    assert_eq!(results[0], results[1]);
}
