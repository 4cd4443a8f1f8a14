//! The assembled cluster: the paper's 5-node testbed (Table I) and its
//! rack-scale generalization (DESIGN.md §17).

use crate::disk::DiskModel;
use crate::network::{NetworkModel, RackNetwork};
use crate::node::{NodeId, NodeName, NodeRole, NodeSpec};
use crate::scale::Scale;
use serde::{Deserialize, Serialize};

/// A cluster: nodes plus the shared interconnect and disk models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// All nodes, in id order.
    pub nodes: Vec<NodeSpec>,
    /// Interconnect model.
    pub network: NetworkModel,
    /// Disk model (swap penalties, local I/O).
    pub disk: DiskModel,
    /// The byte-scale the cluster was built at.
    pub scale: Scale,
}

impl Cluster {
    /// Look up a node by id.
    pub fn node(&self, id: NodeId) -> Option<&NodeSpec> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// The (first) host node.
    #[expect(
        clippy::expect_used,
        reason = "every cluster builder installs a host node; a roleless cluster is a construction bug that must fail loudly, and 13 call sites rely on the infallible signature"
    )]
    pub fn host(&self) -> &NodeSpec {
        self.nodes
            .iter()
            .find(|n| n.role == NodeRole::Host)
            .expect("a cluster has a host node")
    }

    /// All smart-storage nodes.
    pub fn sd_nodes(&self) -> Vec<&NodeSpec> {
        self.nodes
            .iter()
            .filter(|n| n.role == NodeRole::SmartStorage)
            .collect()
    }

    /// The first smart-storage node.
    #[expect(
        clippy::expect_used,
        reason = "same construction invariant as host(): the paper's topologies always carry an SD node"
    )]
    pub fn sd(&self) -> &NodeSpec {
        self.nodes
            .iter()
            .find(|n| n.role == NodeRole::SmartStorage)
            .expect("a cluster has an SD node")
    }

    /// All general-purpose compute nodes.
    pub fn compute_nodes(&self) -> Vec<&NodeSpec> {
        self.nodes
            .iter()
            .filter(|n| n.role == NodeRole::Compute)
            .collect()
    }

    /// Render the cluster configuration as a Table-I-style text table.
    pub fn table1(&self) -> String {
        let mut out = String::new();
        out.push_str("THE CONFIGURATION OF THE CLUSTER\n");
        out.push_str(&format!(
            "{:<12} {:<28} {:>5} {:>7} {:>12}\n",
            "Node", "CPU", "Cores", "Speed", "Memory(B)"
        ));
        for n in &self.nodes {
            out.push_str(&format!(
                "{:<12} {:<28} {:>5} {:>7.2} {:>12}\n",
                n.name, n.cpu, n.cores, n.core_speed, n.memory_bytes
            ));
        }
        out.push_str(&format!(
            "Network: {:?} ({} MB/s effective), Disk: {} MB/s, Scale: 1/{}\n",
            self.network.fabric,
            (self.network.effective_bytes_per_sec() / 1e6) as u64,
            self.disk.bytes_per_sec / 1_000_000,
            self.scale.divisor,
        ));
        out
    }
}

/// The paper's 5-node testbed at the given byte scale: one Core2 Quad host,
/// one Core2 Duo SD node, three Celeron compute nodes, all with (scaled)
/// 2 GB of memory, joined by Gigabit Ethernet (Table I).
pub fn paper_testbed(scale: Scale) -> Cluster {
    let memory = scale.bytes(2 * 1024 * 1024 * 1024);
    let mut nodes = vec![
        NodeSpec::paper_host(NodeId(0), memory),
        NodeSpec::paper_sd(NodeId(1), memory),
    ];
    for i in 0..3 {
        nodes.push(NodeSpec::paper_compute(NodeId(2 + i), i, memory));
    }
    Cluster {
        nodes,
        network: NetworkModel::paper_testbed(),
        disk: DiskModel::paper_sata(),
        scale,
    }
}

/// A testbed variant with `sd_count` smart-storage nodes (paper §VI future
/// work: "the parallelisms among multiple McSD smart disks").
pub fn multi_sd_testbed(scale: Scale, sd_count: usize) -> Cluster {
    let memory = scale.bytes(2 * 1024 * 1024 * 1024);
    let mut nodes = vec![NodeSpec::paper_host(NodeId(0), memory)];
    for i in 0..sd_count as u32 {
        nodes.push(NodeSpec::paper_sd_named(
            NodeId(1 + i),
            NodeName::new("sd").at(i),
            memory,
        ));
    }
    Cluster {
        nodes,
        network: NetworkModel::paper_testbed(),
        disk: DiskModel::paper_sata(),
        scale,
    }
}

/// Parameters of a rack-scale cluster (DESIGN.md §17): `racks` racks,
/// each holding `hosts_per_rack` host nodes and `sds_per_rack` SD nodes
/// behind a shared top-of-rack uplink oversubscribed by
/// `uplink_oversubscription`.
///
/// `RackSpec { racks: 1, hosts_per_rack: 1, sds_per_rack: 1, .. }`
/// degenerates to the paper testbed's host + SD pair — the
/// `rack_1x1x1_matches_paper_testbed_decisions` proptest in
/// `mcsd-core/tests/des.rs` pins that the offload policy cannot tell the
/// two apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RackSpec {
    /// Number of racks.
    pub racks: u32,
    /// Host computing nodes per rack.
    pub hosts_per_rack: u32,
    /// Smart-storage nodes per rack.
    pub sds_per_rack: u32,
    /// Top-of-rack uplink oversubscription ratio (leaf bandwidth divided
    /// by this; 1 = full bisection).
    pub uplink_oversubscription: u64,
}

impl RackSpec {
    /// The default rack-scale experiment: 8 racks of 4 hosts + 9 SD
    /// nodes behind 4:1 uplinks — 104 nodes, comfortably past the
    /// 100-node floor the §17 experiments target.
    pub fn default_experiment() -> RackSpec {
        RackSpec {
            racks: 8,
            hosts_per_rack: 4,
            sds_per_rack: 9,
            uplink_oversubscription: 4,
        }
    }

    /// Nodes per rack.
    pub fn nodes_per_rack(&self) -> u32 {
        self.hosts_per_rack + self.sds_per_rack
    }

    /// Total node count across all racks.
    pub fn total_nodes(&self) -> u32 {
        self.racks * self.nodes_per_rack()
    }

    /// Total SD node count across all racks.
    pub fn total_sds(&self) -> u32 {
        self.racks * self.sds_per_rack
    }

    /// Assemble the rack topology at the given byte scale. Node ids are
    /// rack-major — rack `r` owns ids `r * nodes_per_rack()` up to the
    /// next rack — with each rack's hosts (`r{r}h{i}`) before its SD
    /// nodes (`r{r}sd{i}`), so [`RackTopology::rack_of`] is pure
    /// arithmetic and never needs a lookup table.
    pub fn build(&self, scale: Scale) -> RackTopology {
        let memory = scale.bytes(2 * 1024 * 1024 * 1024);
        let mut nodes = Vec::with_capacity(self.total_nodes() as usize);
        for r in 0..self.racks {
            let base = r * self.nodes_per_rack();
            for h in 0..self.hosts_per_rack {
                nodes.push(NodeSpec::paper_host_named(
                    NodeId(base + h),
                    NodeName::new("h").at(h).in_rack(r),
                    memory,
                ));
            }
            for s in 0..self.sds_per_rack {
                nodes.push(NodeSpec::paper_sd_named(
                    NodeId(base + self.hosts_per_rack + s),
                    NodeName::new("sd").at(s).in_rack(r),
                    memory,
                ));
            }
        }
        let network = RackNetwork::oversubscribed(
            NetworkModel::paper_testbed(),
            self.uplink_oversubscription,
        );
        RackTopology {
            spec: *self,
            network,
            cluster: Cluster {
                nodes,
                network: network.leaf,
                disk: DiskModel::paper_sata(),
                scale,
            },
        }
    }
}

/// A built rack-scale cluster: the flat node list (as a [`Cluster`], so
/// every existing per-node model applies unchanged) plus the two-tier
/// [`RackNetwork`] and the spec that shaped it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackTopology {
    /// The shape this topology was built from.
    pub spec: RackSpec,
    /// All nodes in rack-major id order, with the leaf network as the
    /// flat cluster's interconnect.
    pub cluster: Cluster,
    /// The two-tier leaf/uplink interconnect.
    pub network: RackNetwork,
}

impl RackTopology {
    /// Which rack a node lives in (pure arithmetic on the rack-major id
    /// layout).
    pub fn rack_of(&self, id: NodeId) -> u32 {
        id.0 / self.spec.nodes_per_rack()
    }

    /// Whether two nodes share a rack (and therefore a leaf switch).
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// All SD node ids, in id order — index `i` here is the offload
    /// policy's `sd_index` space.
    pub fn sd_ids(&self) -> Vec<NodeId> {
        self.ids(self.spec.hosts_per_rack, self.spec.sds_per_rack)
    }

    /// All host node ids, in id order.
    pub fn host_ids(&self) -> Vec<NodeId> {
        self.ids(0, self.spec.hosts_per_rack)
    }

    /// Ids `offset..offset + count` of every rack, rack by rack — from
    /// the rack-major layout alone, in one allocation.
    fn ids(&self, offset: u32, count: u32) -> Vec<NodeId> {
        let per_rack = self.spec.nodes_per_rack();
        let mut ids = Vec::with_capacity((self.spec.racks * count) as usize);
        for r in 0..self.spec.racks {
            let base = r * per_rack + offset;
            ids.extend((base..base + count).map(NodeId));
        }
        ids
    }

    /// Virtual time to move `bytes` from node `from` to node `to`.
    pub fn transfer_time(&self, from: NodeId, to: NodeId, bytes: u64) -> std::time::Duration {
        self.network.transfer_time(self.same_rack(from, to), bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_has_five_nodes() {
        let c = paper_testbed(Scale::default_experiment());
        assert_eq!(c.nodes.len(), 5);
        assert_eq!(c.host().cores, 4);
        assert_eq!(c.sd().cores, 2);
        assert_eq!(c.compute_nodes().len(), 3);
    }

    #[test]
    fn memory_is_scaled() {
        let c = paper_testbed(Scale { divisor: 256 });
        assert_eq!(c.host().memory_bytes, 2 * 1024 * 1024 * 1024 / 256);
    }

    #[test]
    fn node_lookup() {
        let c = paper_testbed(Scale::default_experiment());
        assert_eq!(c.node(NodeId(0)).unwrap().name, "host");
        assert_eq!(c.node(NodeId(1)).unwrap().name, "sd");
        assert!(c.node(NodeId(99)).is_none());
    }

    #[test]
    fn table1_mentions_all_cpus() {
        let c = paper_testbed(Scale::default_experiment());
        let t = c.table1();
        assert!(t.contains("Q9400"));
        assert!(t.contains("E4400"));
        assert!(t.contains("Celeron"));
        assert!(t.contains("GigabitEthernet"));
    }

    #[test]
    fn multi_sd_testbed_scales_out() {
        let c = multi_sd_testbed(Scale::default_experiment(), 4);
        assert_eq!(c.sd_nodes().len(), 4);
        assert_eq!(c.nodes.len(), 5);
        assert_eq!(c.sd_nodes()[2].name, "sd2");
    }

    #[test]
    fn default_rack_spec_exceeds_one_hundred_nodes() {
        let spec = RackSpec::default_experiment();
        assert!(spec.total_nodes() >= 100, "{}", spec.total_nodes());
        let topo = spec.build(Scale::default_experiment());
        assert_eq!(topo.cluster.nodes.len(), spec.total_nodes() as usize);
        assert_eq!(topo.sd_ids().len(), spec.total_sds() as usize);
        assert_eq!(
            topo.host_ids().len(),
            (spec.racks * spec.hosts_per_rack) as usize
        );
    }

    #[test]
    fn rack_ids_are_rack_major_and_named_by_rack() {
        let spec = RackSpec {
            racks: 3,
            hosts_per_rack: 2,
            sds_per_rack: 3,
            uplink_oversubscription: 4,
        };
        let topo = spec.build(Scale::default_experiment());
        // Node ids are dense and ordered.
        for (i, n) in topo.cluster.nodes.iter().enumerate() {
            assert_eq!(n.id.0 as usize, i);
        }
        // Rack 1's first host sits right after rack 0's 5 nodes.
        let n = topo.cluster.node(NodeId(5)).unwrap();
        assert_eq!(n.name, "r1h0");
        assert_eq!(topo.rack_of(NodeId(5)), 1);
        // Rack 0's first SD follows its two hosts.
        assert_eq!(topo.cluster.node(NodeId(2)).unwrap().name, "r0sd0");
        assert!(topo.same_rack(NodeId(0), NodeId(4)));
        assert!(!topo.same_rack(NodeId(4), NodeId(5)));
    }

    #[test]
    fn rack_transfer_charges_uplink_only_across_racks() {
        let spec = RackSpec {
            racks: 2,
            hosts_per_rack: 1,
            sds_per_rack: 1,
            uplink_oversubscription: 8,
        };
        let topo = spec.build(Scale::default_experiment());
        let bytes = 5_000_000;
        let intra = topo.transfer_time(NodeId(0), NodeId(1), bytes);
        let cross = topo.transfer_time(NodeId(0), NodeId(3), bytes);
        assert!(cross > intra, "cross {cross:?} !> intra {intra:?}");
        assert_eq!(intra, topo.network.leaf.transfer_time(bytes));
    }

    #[test]
    fn one_by_one_rack_mirrors_the_paper_pair() {
        let spec = RackSpec {
            racks: 1,
            hosts_per_rack: 1,
            sds_per_rack: 1,
            uplink_oversubscription: 1,
        };
        let topo = spec.build(Scale::default_experiment());
        let paper = paper_testbed(Scale::default_experiment());
        assert_eq!(topo.cluster.host().cores, paper.host().cores);
        assert_eq!(topo.cluster.sd().cores, paper.sd().cores);
        assert_eq!(topo.cluster.sd().core_speed, paper.sd().core_speed);
        assert_eq!(topo.sd_ids(), vec![NodeId(1)]);
    }
}
