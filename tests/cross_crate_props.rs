//! Cross-crate property tests: the same computation through every path of
//! the stack must agree with the sequential oracle.

use mcsd::framework::driver::{ExecMode, NodeRunner};
use mcsd::prelude::*;
use proptest::prelude::*;

fn text_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec("[a-f]{1,7}", 1..200).prop_map(|words| {
        let mut out = Vec::new();
        for (i, w) in words.iter().enumerate() {
            out.extend_from_slice(w.as_bytes());
            out.push(if i % 9 == 0 { b'\n' } else { b' ' });
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any text, any mode, any platform: results equal the oracle.
    #[test]
    fn node_runner_agrees_with_oracle(
        text in text_strategy(),
        quad in any::<bool>(),
        mode_sel in 0u8..3,
        fragment in 64usize..4096,
    ) {
        let cluster = paper_testbed(Scale { divisor: 2048 });
        let node = if quad { cluster.host().clone() } else { cluster.sd().clone() };
        // Plenty of memory: this test is about correctness, not the model.
        let node = NodeSpec { memory_bytes: 64 << 20, ..node };
        let runner = NodeRunner::new(node, cluster.disk);
        let mode = match mode_sel {
            0 => ExecMode::Sequential { footprint_factor: 1.2 },
            1 => ExecMode::Parallel,
            _ => ExecMode::Partitioned { fragment_bytes: Some(fragment) },
        };
        let out = runner.run_mode(&WordCount, &WordCount::merger(), &text, mode).unwrap();
        prop_assert_eq!(out.pairs, mcsd::apps::seq::wordcount(&text));
    }

    /// String Match through the runner agrees with the oracle, for any
    /// planted keys.
    #[test]
    fn stringmatch_agrees_with_oracle(
        seed in 0u64..500,
        plant in 0.0f64..0.3,
        fragment in 256usize..4096,
    ) {
        let keys = mcsd::apps::datagen::keys_file(4, 6, seed);
        let encrypt = mcsd::apps::datagen::encrypt_file(6_000, &keys, plant, seed ^ 1);
        let job = StringMatch::new(&keys);
        let cluster = paper_testbed(Scale { divisor: 2048 });
        let node = NodeSpec { memory_bytes: 64 << 20, ..cluster.sd().clone() };
        let runner = NodeRunner::new(node, cluster.disk);
        let whole = runner.run_mode(&job, &StringMatch::merger(), &encrypt, ExecMode::Parallel).unwrap();
        let part = runner.run_mode(
            &job,
            &StringMatch::merger(),
            &encrypt,
            ExecMode::Partitioned { fragment_bytes: Some(fragment) },
        ).unwrap();
        let oracle = mcsd::apps::seq::stringmatch(&keys, &encrypt);
        prop_assert_eq!(&whole.pairs, &oracle);
        prop_assert_eq!(&part.pairs, &oracle);
    }

    /// smartFAM frame codec round-trips arbitrary parameters.
    #[test]
    fn smartfam_codec_roundtrip(
        id in any::<u64>(),
        params in proptest::collection::vec(".{0,40}", 0..8),
    ) {
        use mcsd::smartfam::codec::{decode_frame, DecodeStep, Frame};
        let frame = Frame::request(id, params);
        let bytes = frame.encode();
        match decode_frame(&bytes) {
            DecodeStep::Complete { frame: decoded, consumed } => {
                prop_assert_eq!(decoded, frame);
                prop_assert_eq!(consumed, bytes.len());
            }
            other => prop_assert!(false, "decode failed: {:?}", other),
        }
    }

    /// Response frames round-trip arbitrary payloads.
    #[test]
    fn smartfam_response_roundtrip(
        id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        use mcsd::smartfam::codec::{decode_stream, Frame};
        let frame = Frame::response_ok(id, payload);
        let bytes = frame.encode();
        let (frames, pos) = decode_stream(&bytes, 0).unwrap();
        prop_assert_eq!(frames.len(), 1);
        prop_assert_eq!(&frames[0], &frame);
        prop_assert_eq!(pos, bytes.len());
    }

    /// The network model is monotone and superadditive-safe: moving more
    /// bytes never takes less time, and splitting a transfer in two never
    /// makes it cheaper than the whole (latency is per transfer).
    #[test]
    fn network_model_is_monotone(a in 0u64..10_000_000, b in 0u64..10_000_000) {
        let net = NetworkModel::paper_testbed();
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(net.transfer_time(small) <= net.transfer_time(large));
        prop_assert!(
            net.transfer_time(a) + net.transfer_time(b) >= net.transfer_time(a + b)
        );
    }

    /// Virtual compute time is monotone in work and antitone in cores —
    /// on every machine shape, not just the one running the test.
    #[test]
    fn virtual_compute_is_sane(
        wall_us in 1u64..1_000_000,
        cores_a in 1usize..9,
        cores_b in 1usize..9,
    ) {
        use mcsd::cluster::NodeExecutor;
        let wall = std::time::Duration::from_micros(wall_us);
        let (lo, hi) = if cores_a <= cores_b { (cores_a, cores_b) } else { (cores_b, cores_a) };
        for machine in [1, 2, 4, 8, 64] {
            let mk = |cores| {
                let mut n = NodeSpec::paper_host(NodeId(0), 1 << 20);
                n.cores = cores;
                NodeExecutor::new(n).with_machine_cores(machine)
            };
            prop_assert!(
                mk(lo).virtual_compute(wall, lo) >= mk(hi).virtual_compute(wall, hi),
                "machine with {} cores", machine
            );
            prop_assert!(mk(lo).virtual_compute(wall * 2, lo) >= mk(lo).virtual_compute(wall, lo));
        }
    }
}
