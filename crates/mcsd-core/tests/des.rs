//! Determinism, parity, and conservation contracts of the rack-scale
//! discrete-event scheduler (DESIGN.md §17).

use mcsd_cluster::{paper_testbed, RackSpec, Scale};
use mcsd_core::des::{self, DesConfig};
use mcsd_core::offload::{OffloadPolicy, Offloader};
use mcsd_obs::export::jsonl;
use mcsd_obs::Tracer;
use proptest::prelude::*;

/// §17 determinism: the same config produces a byte-identical event
/// trace and an equal `RackReport` across two independent runs.
#[test]
fn same_seed_two_runs_are_byte_identical() {
    let cfg = DesConfig::default_experiment(1_200, 42);
    let tracer_a = Tracer::enabled();
    let run_a = des::run(&cfg, &tracer_a);
    let tracer_b = Tracer::enabled();
    let run_b = des::run(&cfg, &tracer_b);
    assert_eq!(jsonl(&tracer_a), jsonl(&tracer_b), "trace bytes diverged");
    assert_eq!(run_a.report, run_b.report);
    assert_eq!(run_a.placements, run_b.placements);
    // And a different seed actually changes the schedule.
    let other = des::run(&DesConfig { seed: 43, ..cfg }, &Tracer::disabled());
    assert_ne!(other.report, run_a.report);
}

/// The 1k-job smoke test: every arrival is accounted for — completed or
/// shed, nothing lost — at the default experiment scale (104 nodes).
#[test]
fn seeded_1k_job_smoke_conserves_jobs() {
    let cfg = DesConfig::default_experiment(1_000, 7);
    let run = des::run(&cfg, &Tracer::disabled());
    assert_eq!(run.report.stats.arrivals, 1_000);
    assert!(run.report.stats.is_conserved());
    assert_eq!(
        run.report.stats.completed_jobs + run.report.stats.shed_jobs,
        1_000
    );
    assert_eq!(run.report.nodes, 104);
}

/// Shedding path: flood time zero with more jobs than one shard's
/// backlog holds and conservation must still balance, now with a
/// non-zero shed count.
#[test]
fn overflowing_a_shard_sheds_but_conserves() {
    let cfg = DesConfig {
        spec: RackSpec {
            racks: 1,
            hosts_per_rack: 1,
            sds_per_rack: 1,
            uplink_oversubscription: 4,
        },
        queue_depth: 2,
        arrival_spread_us: 0,
        ..DesConfig::default_experiment(100, 5)
    };
    let run = des::run(&cfg, &Tracer::disabled());
    assert!(run.report.stats.shed_jobs > 0, "tight queues must shed");
    assert!(run.report.stats.is_conserved());
}

/// FNV-1a (64-bit) over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The parity grid: 3 rack shapes × 5 arrival spreads × 3 queue depths
/// × 2 byte scales × 2 policies, 250 jobs each, the seed varying with
/// the position. Spreads 0/3/10/1 000 put many arrivals on one
/// microsecond; at the 1/2²⁴ scale a job runs for microseconds, so
/// completions land on arrivals' microseconds and on each other's too;
/// depths 1 and 2 shed hundreds of jobs on the small racks.
fn parity_grid() -> Vec<DesConfig> {
    let shape = |racks, hosts_per_rack, sds_per_rack| RackSpec {
        racks,
        hosts_per_rack,
        sds_per_rack,
        uplink_oversubscription: 4,
    };
    let mut grid = Vec::new();
    for spec in [
        RackSpec::default_experiment(),
        shape(1, 1, 1),
        shape(3, 1, 2),
    ] {
        for arrival_spread_us in [0, 3, 10, 1_000, 1_000_000] {
            for queue_depth in [1, 2, 64] {
                for scale in [Scale::default_experiment(), Scale { divisor: 1 << 24 }] {
                    for policy in [OffloadPolicy::Balanced, OffloadPolicy::AlwaysSd] {
                        let seed = grid.len() as u64;
                        grid.push(DesConfig {
                            spec,
                            scale,
                            policy,
                            queue_depth,
                            arrival_spread_us,
                            ..DesConfig::default_experiment(250, seed)
                        });
                    }
                }
            }
        }
    }
    grid
}

/// Digests of `format!("{run:?}")` followed by the enabled tracer's
/// JSONL export, one per [`parity_grid`] config, captured from the build
/// whose event loop kept every arrival in the binary heap (the parent of
/// the two-source merge). A mismatch means a placement, a shed decision,
/// a counter or a trace byte moved.
#[rustfmt::skip]
const PARITY_DIGESTS: [u64; 180] = [
    0xb7301a902029ab4f, 0x155f435b0076fa5e, 0x364f9035e85ba014, 0xd5e08d8172d31002, 0xf74ac0bf61be12ec,
    0xe1558cd49bb40f88, 0x5264190cbfa71f13, 0x8e6b03f1488f5d67, 0x9aa8ad313e048a1b, 0x1df3cc38914694ae,
    0xf7b21ad1d5d2474d, 0x572a6909a8b73f56, 0x1be18ab019f135e3, 0xe111dc1543148e2f, 0x8d43b4ac53141566,
    0x34ef5f0177ce517e, 0x569f080eee0195c4, 0x17a5bc43e8f7c152, 0x287a1ebae592c7aa, 0xdbe12e9d23c0cb8a,
    0x8be416ad0d39ce05, 0x6a0f21912b60ee37, 0x40ad887e7abb9743, 0xad6bf67524f1885a, 0x9f27f25e28514c25,
    0x3de71bb032ad6e45, 0x0480b45cf3a7f083, 0x4c316333b1783e7f, 0x00162325e5b458a6, 0xf8a01298966d3862,
    0xc9e40bf5c680bf09, 0x771e31b728d28dbd, 0x01eff6df7dc050e3, 0x9eb3d6280ebedf3c, 0x7e50274971975976,
    0xfdd95268d4e71bf9, 0x9f9f79694d78b441, 0x6a6186db0b7d900e, 0x28fabaf49e8c92f3, 0xa60a4b2ca95e1653,
    0x68a9d5559d10a8f8, 0x50f47c1c799a1b55, 0x69c8b4ea1bf5bf7f, 0xb4ab4ac1d1e04ef2, 0xa1a43d29a556f8f9,
    0xfb5f098b4cddb5b1, 0x2eff204fc19dd53d, 0x99c9aa0a59f9589f, 0xa3c6313c7b7a452c, 0x0135625c003f43a1,
    0xaa7c1a87000d217c, 0x3a828825f09e6631, 0xa67380462b210829, 0x41fa529c9cfb27a9, 0xc10c2aeadb7eab25,
    0x41f5b85e60697593, 0x86ca210b4f141efe, 0x941d63bafc05789a, 0xc213bfe5e6d75d5b, 0x704e49c99e6fa67e,
    0x1429de18eec52b49, 0xcf9d7080f2d21a2f, 0x87de7a3aca501103, 0xda994e3bf0c38f60, 0xbf751449ad9be4fe,
    0x482b65a9cb5f6c06, 0x995c07c9186c0635, 0x91cf408f576f10a3, 0x6d3c0d11ed0f9839, 0xa0986643956bc1bf,
    0xc792cb649bd72aa5, 0x1fa37938010a4d05, 0x6ebc10252dd86826, 0xe391c1fd24f4bd04, 0x1470d488be3d5eed,
    0x44c167a1d5e621cd, 0x45f2c44a41265a54, 0x2dee5cc17e2cbe91, 0x3b16d14648b8163b, 0x560eb216c90da99a,
    0xa6e17becd0e79cd7, 0x06b79a1646fc0fd4, 0x24c5824afe7c0040, 0xeb02dd864f407eac, 0x6a8a4cb517e8f2cf,
    0xbfb4e6a5c2cd5c1f, 0xc82b3881e4d8e03a, 0x7f10ff0eb26b4c94, 0x8e11d68cf30c8486, 0xde1d04eb9f99901b,
    0x780acac97bdb20f2, 0x50b7a0e0b69c9128, 0x4b7318175fac68f6, 0x8f6363fbecd87e2c, 0xaa4116de08c4f165,
    0x24f5773b8ba72c5b, 0x093bc2e2f1421df4, 0xc40e1605975de13f, 0x5df7b7d1413f2ad3, 0x5bf3e5dcb9dc8ea1,
    0xf07c9cda4e15b8b8, 0xe8c0bd546ac05c72, 0xafa0c1e6bbd6c6ef, 0x11bc58757e6f86c9, 0x1a7e18d1ab0d5bb7,
    0xecf592052db6688f, 0x400ec42a05f3ffa1, 0xe6acbfbd7ae60df2, 0x107d79b382b30351, 0xd5440971d2ffb769,
    0x3e5f91dfd3cf2c62, 0x929a8e30f29d22ba, 0xb2c5218ee396e32e, 0x5ffe301c5ac18d88, 0x3de1c6dc014a7b1a,
    0xf42a860d3c5651c1, 0x25585d058df2db08, 0xe47c379c70c8b279, 0x331b553ac078580d, 0x6751b4b4005c9468,
    0xb45b6d9da20a4d8d, 0xa322291585323d78, 0xec6bd9b5bbaf14f5, 0x251e5ba744867a83, 0x021eca3cef756e5d,
    0x3dd3873cd130e938, 0x9b53c5f9cec8ec78, 0xe4d68207f6467aaa, 0x1f2be49b4d596bb8, 0xdd4f5227bd2ae83a,
    0x52be6a427c058d48, 0x2717dd44dfcb3288, 0x1aa57686499302a4, 0x4110b0f5c1aa5351, 0x606ecbc4bbbb5709,
    0x8bc044ed93c54eed, 0xfa92c2eba28f06a1, 0xfaf50e85fda1c264, 0x4bf861e7c2b2ca42, 0x2e31808672fdfd24,
    0x9bebfa2df558fd13, 0x4688aad942260f42, 0x8ac6ae373d839c40, 0x2fe11d575d167c16, 0x3fee1f4cb9ef127c,
    0xfe99d6db67e2ff83, 0xa041257d2228c891, 0xdd1f7553c859ce12, 0xb414e063a5494851, 0x7e9dab4267684cb2,
    0x009e7c3bbb7276c0, 0xd719398c73a88901, 0x7ee246639f054ec2, 0x39a0871d87920770, 0x024c7119005b6ba6,
    0x28d8e086f5301efa, 0xa40c3480da0be5da, 0xc2b70977c62fef84, 0x765ab149766887d5, 0x2e17b8de842c8008,
    0xea39e051a8489e93, 0xd8afaa84f6bcc3b6, 0x0c0a80c3913badd6, 0x35a2b59c164c8b14, 0xf1b0edfc431a8f1f,
    0xd58c5930859af4d5, 0x036a389e50af3485, 0x0a8678345186112c, 0xee7e9ee9747cac5d, 0x5b2c00adc812a6e8,
    0x530d8020b335400d, 0xe9b77c47b0167b5a, 0x4e4c3acf41dca1ca, 0x46ba455cd30e9b6f, 0x934415917675ea64,
    0x27c1124994bde898, 0x4070309265c31863, 0x315fe8f6eff2d43a, 0x0cd4cd317e52265a, 0x00291295d6527902,
];

/// §17 parity against the all-in-one-heap loop: report, placements and
/// trace bytes are unchanged on every grid config.
#[test]
fn parity_grid_matches_the_pinned_digests() {
    let grid = parity_grid();
    assert_eq!(grid.len(), PARITY_DIGESTS.len());
    let mut shed = 0;
    for (i, (cfg, want)) in grid.iter().zip(PARITY_DIGESTS).enumerate() {
        let tracer = Tracer::enabled();
        let run = des::run(cfg, &tracer);
        shed += run.report.stats.shed_jobs;
        let hash = fnv1a(0xcbf2_9ce4_8422_2325, format!("{run:?}").as_bytes());
        let got = fnv1a(hash, jsonl(&tracer).as_bytes());
        assert_eq!(got, want, "config {i} diverged: {cfg:?}");
    }
    assert!(shed > 1_000, "the grid must exercise the shed path: {shed}");
}

/// The depth bounds a count, never a buffer: depths 0 (clamped to 1), 1
/// and `usize::MAX` on a small rack flooded at time zero and spread over
/// a millisecond conserve every job, and report, placements and trace
/// bytes match digests captured from the build whose shards queued in a
/// `VecDeque` each.
#[test]
fn queue_depth_extremes_match_the_pinned_digests() {
    #[rustfmt::skip]
    const DIGESTS: [u64; 6] = [
        0xfea1985091826493, 0xd4c696a9ba954401, // depth 0
        0xfea1985091826493, 0xd4c696a9ba954401, // depth 1
        0x096621ae79aa48c1, 0xe2a606d71cb065e0, // depth usize::MAX
    ];
    let mut got = Vec::new();
    for queue_depth in [0, 1, usize::MAX] {
        for arrival_spread_us in [0, 1_000] {
            let cfg = DesConfig {
                spec: RackSpec {
                    racks: 3,
                    hosts_per_rack: 1,
                    sds_per_rack: 2,
                    uplink_oversubscription: 4,
                },
                queue_depth,
                arrival_spread_us,
                ..DesConfig::default_experiment(300, 11)
            };
            let tracer = Tracer::enabled();
            let run = des::run(&cfg, &tracer);
            assert!(run.report.stats.is_conserved());
            assert_eq!(run.report.stats.arrivals, 300);
            let hash = fnv1a(0xcbf2_9ce4_8422_2325, format!("{run:?}").as_bytes());
            got.push(fnv1a(hash, jsonl(&tracer).as_bytes()));
        }
    }
    assert_eq!(got, DIGESTS);
}

proptest! {
    /// §17 parity: a 1-rack/1-host/1-SD `RackSpec` makes exactly the
    /// scheduling decisions `paper_testbed` makes — replaying the DES's
    /// synthesized profiles (in its decision order) through an
    /// `Offloader` built from the paper topology yields the identical
    /// decision sequence. Round-robin placement is stateful, so the
    /// whole sequence must agree, not just one call.
    #[test]
    fn rack_1x1x1_matches_paper_testbed_decisions(
        seed in 0u64..1_000,
        jobs in 1u64..64,
        spread in prop_oneof![Just(0u64), Just(1_000u64), Just(1_000_000u64)],
    ) {
        let cfg = DesConfig {
            spec: RackSpec {
                racks: 1,
                hosts_per_rack: 1,
                sds_per_rack: 1,
                uplink_oversubscription: 4,
            },
            jobs,
            seed,
            arrival_spread_us: spread,
            ..DesConfig::default_experiment(jobs, seed)
        };
        let topo = cfg.spec.build(cfg.scale);
        let workload = des::synthesize_workload(&cfg, &topo);
        let run = des::run(&cfg, &Tracer::disabled());
        prop_assert_eq!(run.placements.len() as u64, jobs);
        // The framework's scheduling function over the paper testbed.
        let mut paper = Offloader::for_nodes(
            OffloadPolicy::DataIntensiveToSd,
            &paper_testbed(Scale::default_experiment()).nodes,
        );
        for (job_id, decision) in &run.placements {
            let profile = &workload[*job_id as usize].profile;
            prop_assert_eq!(*decision, paper.decide(profile));
        }
    }
}
