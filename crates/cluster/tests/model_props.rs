//! Property tests for the cluster cost models — in particular the
//! *scale-invariance* property the entire experiment methodology rests on:
//! dividing every byte quantity by a constant divides every modelled time
//! by the same constant (up to fixed latencies), so ratios are preserved.

use mcsd_cluster::{
    paper_testbed, DiskModel, Fabric, NetworkModel, NodeId, NodeRole, NodeSpec, RackSpec,
    SandiaMicroBenchmark, Scale, SmbPattern, TimeBreakdown,
};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    /// Network payload time scales linearly with bytes.
    #[test]
    fn network_scale_invariance(bytes in 1_000u64..1_000_000_000, divisor in 2u64..1024) {
        let net = NetworkModel::paper_testbed();
        let latency = net.fabric.latency();
        let full = net.transfer_time(bytes) - latency;
        let scaled = net.transfer_time(bytes / divisor) - latency;
        // scaled ≈ full / divisor (integer division slack allowed)
        let expect = full.as_secs_f64() / divisor as f64;
        let got = scaled.as_secs_f64();
        prop_assert!((got - expect).abs() <= expect * 0.01 + 1e-9, "{got} vs {expect}");
    }

    /// Disk thrash penalty scales linearly with swapped bytes.
    #[test]
    fn disk_scale_invariance(bytes in 10_000u64..2_000_000_000, divisor in 2u64..1024) {
        let disk = DiskModel::paper_sata();
        let full = disk.thrash_penalty(bytes) - disk.access_latency;
        let scaled = disk.thrash_penalty(bytes / divisor) - disk.access_latency;
        let expect = full.as_secs_f64() / divisor as f64;
        let got = scaled.as_secs_f64();
        prop_assert!((got - expect).abs() <= expect * 0.01 + 1e-9, "{got} vs {expect}");
    }

    /// Memory verdicts are identical when memory and input scale together.
    #[test]
    fn memory_verdict_scale_invariance(
        total in 10_000u64..1_000_000_000,
        input_frac in 0.01f64..1.5,
        divisor in 2u64..512,
        factor in 1.0f64..4.0,
    ) {
        use mcsd_phoenix::{MemoryModel, MemoryVerdict};
        let input = (total as f64 * input_frac) as u64;
        let big = MemoryModel::new(total).verdict(input, factor);
        let small = MemoryModel::new(total / divisor).verdict(input / divisor, factor);
        let class = |v: &MemoryVerdict| match v {
            MemoryVerdict::Fits => 0,
            MemoryVerdict::Thrashing { .. } => 1,
            MemoryVerdict::Overflow { .. } => 2,
        };
        // Integer truncation can flip razor-edge cases; tolerate only
        // when the quantities are within 1% of the relevant boundary.
        if class(&big) != class(&small) {
            let m = MemoryModel::new(total);
            let near_hard = (input as f64 - m.hard_limit_bytes() as f64).abs()
                < 0.01 * m.hard_limit_bytes() as f64;
            let footprint = input as f64 * factor;
            let near_avail =
                (footprint - m.available_bytes() as f64).abs() < 0.01 * m.available_bytes() as f64;
            prop_assert!(near_hard || near_avail, "{big:?} vs {small:?}");
        }
    }

    /// SMB elapsed time is monotone in message size and rounds.
    #[test]
    fn smb_monotone(
        msg in 1u64..1_000_000,
        rounds in 1u64..100,
    ) {
        let smb = SandiaMicroBenchmark::new(NetworkModel::paper_testbed());
        let base = smb.run(SmbPattern::PingPong { message_bytes: msg, rounds });
        let bigger_msg = smb.run(SmbPattern::PingPong { message_bytes: msg * 2, rounds });
        let more_rounds = smb.run(SmbPattern::PingPong { message_bytes: msg, rounds: rounds * 2 });
        prop_assert!(bigger_msg.elapsed >= base.elapsed);
        prop_assert!(more_rounds.elapsed >= base.elapsed);
    }

    /// Background load only ever slows transfers down.
    #[test]
    fn background_load_is_a_tax(bytes in 1u64..100_000_000, load in 0.0f64..0.95) {
        let free = NetworkModel::paper_testbed();
        let loaded = free.with_background_load(load);
        prop_assert!(loaded.transfer_time(bytes) >= free.transfer_time(bytes));
    }

    /// TimeBreakdown addition is commutative and total() is additive.
    #[test]
    fn breakdown_algebra(
        a_us in 0u64..1_000_000, b_us in 0u64..1_000_000,
        c_us in 0u64..1_000_000, d_us in 0u64..1_000_000,
    ) {
        let x = TimeBreakdown::compute(Duration::from_micros(a_us))
            + TimeBreakdown::network(Duration::from_micros(b_us));
        let y = TimeBreakdown::disk(Duration::from_micros(c_us))
            + TimeBreakdown::overhead(Duration::from_micros(d_us));
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!((x + y).total(), x.total() + y.total());
    }

    /// A rack node's name says where it sits: `r{rack}h{i}` for the
    /// `i`-th host of its rack and `r{rack}sd{i}` for the `i`-th SD, with
    /// the rack the one `rack_of` computes from the id alone; the id lists
    /// hold exactly the nodes of each role, in id order.
    #[test]
    fn rack_names_follow_the_rack_major_layout(
        racks in 0u32..5,
        hosts_per_rack in 0u32..4,
        sds_per_rack in 0u32..4,
    ) {
        let spec = RackSpec { racks, hosts_per_rack, sds_per_rack, uplink_oversubscription: 4 };
        let topo = spec.build(Scale::default_experiment());
        prop_assert_eq!(topo.cluster.nodes.len(), spec.total_nodes() as usize);
        for (i, node) in topo.cluster.nodes.iter().enumerate() {
            prop_assert_eq!(node.id, NodeId(i as u32));
            let rack = topo.rack_of(node.id);
            let slot = node.id.0 - rack * spec.nodes_per_rack();
            let want = match node.role {
                NodeRole::Host => format!("r{rack}h{slot}"),
                _ => format!("r{rack}sd{}", slot - hosts_per_rack),
            };
            prop_assert_eq!(node.name.to_string(), want);
            prop_assert_eq!(node.role == NodeRole::Host, slot < hosts_per_rack);
        }
        let ids = |role| -> Vec<NodeId> {
            topo.cluster.nodes.iter().filter(|n| n.role == role).map(|n| n.id).collect()
        };
        prop_assert_eq!(topo.host_ids(), ids(NodeRole::Host));
        prop_assert_eq!(topo.sd_ids(), ids(NodeRole::SmartStorage));
    }

    /// Faster fabrics dominate for every size.
    #[test]
    fn fabric_ordering_holds_for_all_sizes(bytes in 1u64..1_000_000_000) {
        let fe = NetworkModel::new(Fabric::FastEthernet);
        let ge = NetworkModel::new(Fabric::GigabitEthernet);
        let ib = NetworkModel::new(Fabric::Infiniband);
        prop_assert!(ib.transfer_time(bytes) <= ge.transfer_time(bytes));
        prop_assert!(ge.transfer_time(bytes) <= fe.transfer_time(bytes));
    }
}

#[test]
fn paper_testbed_is_scale_parameterized() {
    let a = paper_testbed(Scale { divisor: 128 });
    let b = paper_testbed(Scale { divisor: 256 });
    assert_eq!(a.host().memory_bytes, 2 * b.host().memory_bytes);
    // Everything else identical.
    assert_eq!(a.network, b.network);
    assert_eq!(a.disk, b.disk);
    let names: Vec<String> = a.nodes.iter().map(|n| n.name.to_string()).collect();
    let names_b: Vec<String> = b.nodes.iter().map(|n| n.name.to_string()).collect();
    assert_eq!(names, names_b);
}

#[test]
fn single_core_variant_preserves_everything_but_cores() {
    let sd = NodeSpec::paper_sd(mcsd_cluster::NodeId(1), 1 << 20);
    let one = sd.single_core();
    assert_eq!(one.cores, 1);
    assert_eq!(one.core_speed, sd.core_speed);
    assert_eq!(one.memory_bytes, sd.memory_bytes);
    assert_eq!(one.role, sd.role);
}
