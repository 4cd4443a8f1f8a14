//! Network fabric models.
//!
//! The paper's testbed interconnect is Gigabit Ethernet ("the nodes in the
//! cluster are connected by Ethernet adapters, Ethernet cables, and one
//! 1Gbit switch", §V-A). Fig. 3 also mentions a fast-Ethernet variant, and
//! the conclusion proposes Infiniband as future work — both are provided as
//! presets so the `ablation_network` bench can compare them.

use crate::clock::TimeBreakdown;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A network fabric preset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fabric {
    /// 100 Mbit/s Fast Ethernet, ~0.2 ms latency.
    FastEthernet,
    /// 1 Gbit/s Ethernet, ~0.1 ms latency (the paper's testbed).
    GigabitEthernet,
    /// 40 Gbit/s QDR Infiniband, ~2 µs latency (paper §VI future work).
    Infiniband,
    /// Custom link.
    Custom {
        /// Bandwidth in bytes per second.
        bytes_per_sec: u64,
        /// One-way latency in nanoseconds.
        latency_ns: u64,
    },
}

impl Fabric {
    /// Link bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> u64 {
        match self {
            Fabric::FastEthernet => 100_000_000 / 8,
            Fabric::GigabitEthernet => 1_000_000_000 / 8,
            Fabric::Infiniband => 40_000_000_000 / 8,
            Fabric::Custom { bytes_per_sec, .. } => *bytes_per_sec,
        }
    }

    /// One-way latency.
    pub fn latency(&self) -> Duration {
        match self {
            Fabric::FastEthernet => Duration::from_micros(200),
            Fabric::GigabitEthernet => Duration::from_micros(100),
            Fabric::Infiniband => Duration::from_micros(2),
            Fabric::Custom { latency_ns, .. } => Duration::from_nanos(*latency_ns),
        }
    }

    /// This fabric's bandwidth divided by an oversubscription `ratio`,
    /// with one extra switch hop of latency — the top-of-rack uplink a
    /// rack of nodes shares when `ratio` racks' worth of leaf traffic
    /// funnels through one aggregation port (DESIGN.md §17).
    pub fn oversubscribed(&self, ratio: u64) -> Fabric {
        Fabric::Custom {
            bytes_per_sec: (self.bytes_per_sec() / ratio.max(1)).max(1),
            latency_ns: 2 * self.latency().as_nanos() as u64,
        }
    }
}

/// A model of the cluster interconnect, including protocol efficiency and
/// background load (the SMB "routine work" running on the other nodes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// The physical fabric.
    pub fabric: Fabric,
    /// Fraction of raw bandwidth reachable by NFS/TCP (protocol and stack
    /// overheads). ~0.85 for the paper-era GbE + NFS stack.
    pub efficiency: f64,
    /// Fraction of bandwidth consumed by background traffic, `0.0..1.0`.
    pub background_load: f64,
}

impl NetworkModel {
    /// A model with the given fabric and default efficiency, no load.
    pub fn new(fabric: Fabric) -> Self {
        NetworkModel {
            fabric,
            efficiency: 0.85,
            background_load: 0.0,
        }
    }

    /// The paper's testbed: Gigabit Ethernet.
    pub fn paper_testbed() -> Self {
        NetworkModel::new(Fabric::GigabitEthernet)
    }

    /// Set the background load fraction (builder style). Clamped to
    /// `[0.0, 0.95]` so the model never divides by zero.
    pub fn with_background_load(mut self, load: f64) -> Self {
        self.background_load = load.clamp(0.0, 0.95);
        self
    }

    /// Effective bandwidth after protocol efficiency and background load.
    pub fn effective_bytes_per_sec(&self) -> f64 {
        self.fabric.bytes_per_sec() as f64 * self.efficiency * (1.0 - self.background_load)
    }

    /// Virtual time to move `bytes` across the link once.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        let secs = bytes as f64 / self.effective_bytes_per_sec();
        self.fabric.latency() + Duration::from_secs_f64(secs)
    }

    /// [`TimeBreakdown`] for one transfer of `bytes`.
    pub fn charge_transfer(&self, bytes: u64) -> TimeBreakdown {
        TimeBreakdown::network(self.transfer_time(bytes))
    }
}

/// The two-tier rack interconnect (DESIGN.md §17): every node hangs off
/// its rack's leaf switch, and racks join through oversubscribed
/// top-of-rack uplinks. A transfer between two nodes of the same rack
/// crosses the leaf only; a cross-rack transfer pays the leaf hop *and*
/// the (slower, shared) uplink.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RackNetwork {
    /// Intra-rack leaf switch (full bisection within the rack).
    pub leaf: NetworkModel,
    /// Top-of-rack uplink shared by all cross-rack flows of one rack.
    pub uplink: NetworkModel,
}

impl RackNetwork {
    /// A rack network over `leaf` with its uplink oversubscribed by
    /// `ratio` (bandwidth divided by `ratio`, one extra hop of latency).
    pub fn oversubscribed(leaf: NetworkModel, ratio: u64) -> RackNetwork {
        RackNetwork {
            leaf,
            uplink: NetworkModel {
                fabric: leaf.fabric.oversubscribed(ratio),
                ..leaf
            },
        }
    }

    /// Virtual time to move `bytes` between two nodes: leaf-only when
    /// they share a rack, leaf hop + uplink when they do not.
    pub fn transfer_time(&self, same_rack: bool, bytes: u64) -> Duration {
        if same_rack {
            self.leaf.transfer_time(bytes)
        } else {
            self.leaf.fabric.latency() + self.uplink.transfer_time(bytes)
        }
    }

    /// [`TimeBreakdown`] for one transfer of `bytes` between two nodes.
    pub fn charge_transfer(&self, same_rack: bool, bytes: u64) -> TimeBreakdown {
        TimeBreakdown::network(self.transfer_time(same_rack, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbe_bandwidth() {
        assert_eq!(Fabric::GigabitEthernet.bytes_per_sec(), 125_000_000);
    }

    #[test]
    fn infiniband_is_faster_than_gbe() {
        assert!(Fabric::Infiniband.bytes_per_sec() > Fabric::GigabitEthernet.bytes_per_sec());
        assert!(Fabric::Infiniband.latency() < Fabric::GigabitEthernet.latency());
    }

    #[test]
    fn zero_bytes_is_free() {
        let net = NetworkModel::paper_testbed();
        assert_eq!(net.transfer_time(0), Duration::ZERO);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let net = NetworkModel::paper_testbed();
        let t1 = net.transfer_time(1_000_000);
        let t2 = net.transfer_time(2_000_000);
        let payload1 = t1 - Fabric::GigabitEthernet.latency();
        let payload2 = t2 - Fabric::GigabitEthernet.latency();
        let ratio = payload2.as_secs_f64() / payload1.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn background_load_slows_transfers() {
        let free = NetworkModel::paper_testbed();
        let loaded = NetworkModel::paper_testbed().with_background_load(0.5);
        assert!(loaded.transfer_time(10_000_000) > free.transfer_time(10_000_000));
    }

    #[test]
    fn background_load_is_clamped() {
        let n = NetworkModel::paper_testbed().with_background_load(2.0);
        assert!(n.background_load <= 0.95);
        assert!(n.effective_bytes_per_sec() > 0.0);
    }

    #[test]
    fn charge_transfer_fills_network_category() {
        let net = NetworkModel::paper_testbed();
        let t = net.charge_transfer(1_000_000);
        assert_eq!(t.compute, Duration::ZERO);
        assert_eq!(t.network, net.transfer_time(1_000_000));
    }

    #[test]
    fn custom_fabric() {
        let f = Fabric::Custom {
            bytes_per_sec: 500,
            latency_ns: 1_000_000,
        };
        assert_eq!(f.bytes_per_sec(), 500);
        assert_eq!(f.latency(), Duration::from_millis(1));
    }

    #[test]
    fn oversubscribed_fabric_divides_bandwidth_and_doubles_latency() {
        let up = Fabric::GigabitEthernet.oversubscribed(4);
        assert_eq!(up.bytes_per_sec(), 125_000_000 / 4);
        assert_eq!(up.latency(), Fabric::GigabitEthernet.latency() * 2);
        // Ratio 0 is clamped so the uplink never divides by zero.
        assert_eq!(
            Fabric::GigabitEthernet.oversubscribed(0).bytes_per_sec(),
            125_000_000
        );
    }

    #[test]
    fn cross_rack_transfer_is_slower_than_intra_rack() {
        let net = RackNetwork::oversubscribed(NetworkModel::paper_testbed(), 4);
        let bytes = 10_000_000;
        assert!(net.transfer_time(false, bytes) > net.transfer_time(true, bytes));
        // Intra-rack equals the plain leaf model.
        assert_eq!(
            net.transfer_time(true, bytes),
            net.leaf.transfer_time(bytes)
        );
    }

    #[test]
    fn rack_charge_transfer_fills_network_category() {
        let net = RackNetwork::oversubscribed(NetworkModel::paper_testbed(), 4);
        let t = net.charge_transfer(false, 1_000_000);
        assert_eq!(t.compute, Duration::ZERO);
        assert_eq!(t.network, net.transfer_time(false, 1_000_000));
    }

    #[test]
    fn gbe_transfer_of_500mb_is_seconds() {
        // Sanity against the paper's workload sizes: moving 500 MB over
        // GbE/NFS takes ~4.7 s in this model — the cost McSD avoids by
        // processing in place.
        let net = NetworkModel::paper_testbed();
        let t = net.transfer_time(500 * 1024 * 1024);
        assert!(
            t > Duration::from_secs(4) && t < Duration::from_secs(7),
            "{t:?}"
        );
    }
}
