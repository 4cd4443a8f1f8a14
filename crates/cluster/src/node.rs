//! Node specifications (paper Table I).

use serde::{Deserialize, Serialize};

/// Identifier of a node within a [`crate::topology::Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Role a node plays in the two-layer McSD architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeRole {
    /// Host computing node — issues jobs, runs compute-intensive work.
    Host,
    /// Smart-storage (SD) node — multicore processor embedded next to the
    /// disk; runs offloaded data-intensive modules.
    SmartStorage,
    /// General-purpose compute node (the three Celeron nodes that run SMB
    /// routine work in the paper's testbed).
    Compute,
}

/// Hardware description of one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Identifier within the cluster.
    pub id: NodeId,
    /// Human-readable name (e.g. "host", "sd0").
    pub name: String,
    /// Role in the architecture.
    pub role: NodeRole,
    /// CPU model string, for Table I output.
    pub cpu: String,
    /// Number of cores. This caps the Phoenix worker count of any job run
    /// on the node.
    pub cores: usize,
    /// Per-core speed relative to the host's Core2 Quad Q9400 (1.0).
    pub core_speed: f64,
    /// Physical memory in bytes (possibly scaled; see [`crate::scale`]).
    pub memory_bytes: u64,
}

impl NodeSpec {
    /// The paper's host node: Intel Core2 Quad Q9400 (4 × 2.66 GHz), 2 GB.
    pub fn paper_host(id: NodeId, memory_bytes: u64) -> Self {
        Self::paper_host_named(id, "host".into(), memory_bytes)
    }

    /// [`NodeSpec::paper_host`] under the name a larger topology gives it.
    pub(crate) fn paper_host_named(id: NodeId, name: String, memory_bytes: u64) -> Self {
        NodeSpec {
            id,
            name,
            role: NodeRole::Host,
            cpu: "Intel Core2 Quad Q9400".into(),
            cores: 4,
            core_speed: 1.0,
            memory_bytes,
        }
    }

    /// The paper's SD node: Intel Core2 Duo E4400 (2 × 2.0 GHz), 2 GB.
    /// Per-core speed 2.0/2.66 ≈ 0.75 of the host's.
    pub fn paper_sd(id: NodeId, memory_bytes: u64) -> Self {
        Self::paper_sd_named(id, "sd".into(), memory_bytes)
    }

    /// [`NodeSpec::paper_sd`] under the name a larger topology gives it.
    pub(crate) fn paper_sd_named(id: NodeId, name: String, memory_bytes: u64) -> Self {
        NodeSpec {
            id,
            name,
            role: NodeRole::SmartStorage,
            cpu: "Intel Core2 Duo E4400".into(),
            cores: 2,
            core_speed: 0.75,
            memory_bytes,
        }
    }

    /// The paper's general-purpose nodes: Intel Celeron 450 (1 × 2.2 GHz),
    /// 2 GB. Per-core speed ≈ 0.7 of the host's (lower IPC and cache).
    pub fn paper_compute(id: NodeId, index: usize, memory_bytes: u64) -> Self {
        NodeSpec {
            id,
            name: format!("compute{index}"),
            role: NodeRole::Compute,
            cpu: "Intel Celeron 450".into(),
            cores: 1,
            core_speed: 0.70,
            memory_bytes,
        }
    }

    /// A single-core variant of this node — the paper's "traditional SD"
    /// baseline uses the same SD hardware restricted to one core.
    pub fn single_core(&self) -> NodeSpec {
        NodeSpec {
            cores: 1,
            name: format!("{}-1core", self.name),
            ..self.clone()
        }
    }

    /// The phoenix-crate memory model for this node.
    pub fn memory_model(&self) -> mcsd_phoenix::MemoryModel {
        mcsd_phoenix::MemoryModel::new(self.memory_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "node3");
    }

    #[test]
    fn paper_host_spec() {
        let h = NodeSpec::paper_host(NodeId(0), 2 << 30);
        assert_eq!(h.cores, 4);
        assert_eq!(h.role, NodeRole::Host);
        assert!((h.core_speed - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn paper_sd_is_slower_duo() {
        let sd = NodeSpec::paper_sd(NodeId(1), 2 << 30);
        assert_eq!(sd.cores, 2);
        assert_eq!(sd.role, NodeRole::SmartStorage);
        assert!(sd.core_speed < 1.0);
    }

    #[test]
    fn single_core_variant_keeps_speed() {
        let sd = NodeSpec::paper_sd(NodeId(1), 2 << 30);
        let t = sd.single_core();
        assert_eq!(t.cores, 1);
        assert_eq!(t.core_speed, sd.core_speed);
        assert_eq!(t.role, NodeRole::SmartStorage);
        assert!(t.name.contains("1core"));
    }

    #[test]
    fn memory_model_roundtrip() {
        let sd = NodeSpec::paper_sd(NodeId(1), 4096);
        assert_eq!(sd.memory_model().total_bytes, 4096);
    }

    #[test]
    fn compute_nodes_are_numbered() {
        let c = NodeSpec::paper_compute(NodeId(2), 1, 2 << 30);
        assert_eq!(c.name, "compute1");
        assert_eq!(c.cores, 1);
        assert_eq!(c.role, NodeRole::Compute);
    }
}
