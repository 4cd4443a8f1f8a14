//! Node specifications (paper Table I).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node within a [`crate::topology::Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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

/// A node's name, held as the parts it is rendered from so that naming a
/// node never allocates: an optional rack (`r{rack}`), a static stem, an
/// optional index and a static suffix — `host`, `sd3`, `compute1`,
/// `r2h0`, `r0sd4`, `sd-1core`. The string exists only where a report or
/// trace asks for it, through [`Display`](fmt::Display), which honours
/// width, fill and alignment; `==` against a `&str` compares the
/// rendering without building it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeName {
    rack: Option<u32>,
    stem: &'static str,
    index: Option<u32>,
    suffix: &'static str,
}

impl NodeName {
    /// A name that is just `stem`: `host`, `sd`.
    pub const fn new(stem: &'static str) -> NodeName {
        NodeName {
            rack: None,
            stem,
            index: None,
            suffix: "",
        }
    }

    /// This name numbered within its kind: `sd` at 3 is `sd3`.
    pub const fn at(self, index: u32) -> NodeName {
        NodeName {
            index: Some(index),
            ..self
        }
    }

    /// This name inside a rack: `h0` in rack 2 is `r2h0`.
    pub const fn in_rack(self, rack: u32) -> NodeName {
        NodeName {
            rack: Some(rack),
            ..self
        }
    }

    /// This name followed by `suffix`, which replaces any earlier one:
    /// `sd` with `-1core` is `sd-1core`.
    pub const fn with_suffix(self, suffix: &'static str) -> NodeName {
        NodeName { suffix, ..self }
    }

    fn write_parts(&self, out: &mut impl fmt::Write) -> fmt::Result {
        if let Some(rack) = self.rack {
            write!(out, "r{rack}")?;
        }
        out.write_str(self.stem)?;
        if let Some(index) = self.index {
            write!(out, "{index}")?;
        }
        out.write_str(self.suffix)
    }
}

impl fmt::Display for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.width().is_none() && f.precision().is_none() {
            return self.write_parts(f);
        }
        // Padding needs the whole name at once; only tables ask for it.
        let mut name = String::new();
        self.write_parts(&mut name)?;
        f.pad(&name)
    }
}

impl fmt::Debug for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{self}\"")
    }
}

impl PartialEq<str> for NodeName {
    fn eq(&self, other: &str) -> bool {
        /// Strips each rendered piece off the front of what is left.
        struct Strip<'a>(&'a str);
        impl fmt::Write for Strip<'_> {
            fn write_str(&mut self, piece: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(piece).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut rest = Strip(other);
        self.write_parts(&mut rest).is_ok() && rest.0.is_empty()
    }
}

impl PartialEq<&str> for NodeName {
    fn eq(&self, other: &&str) -> bool {
        self == *other
    }
}

/// Hardware description of one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Identifier within the cluster.
    pub id: NodeId,
    /// Name in reports and traces (e.g. "host", "sd0").
    pub name: NodeName,
    /// Role in the architecture.
    pub role: NodeRole,
    /// CPU model string, for Table I output.
    pub cpu: &'static str,
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
        Self::paper_host_named(id, NodeName::new("host"), memory_bytes)
    }

    /// [`NodeSpec::paper_host`] under the name a larger topology gives it.
    pub(crate) fn paper_host_named(id: NodeId, name: NodeName, memory_bytes: u64) -> Self {
        NodeSpec {
            id,
            name,
            role: NodeRole::Host,
            cpu: "Intel Core2 Quad Q9400",
            cores: 4,
            core_speed: 1.0,
            memory_bytes,
        }
    }

    /// The paper's SD node: Intel Core2 Duo E4400 (2 × 2.0 GHz), 2 GB.
    /// Per-core speed 2.0/2.66 ≈ 0.75 of the host's.
    pub fn paper_sd(id: NodeId, memory_bytes: u64) -> Self {
        Self::paper_sd_named(id, NodeName::new("sd"), memory_bytes)
    }

    /// [`NodeSpec::paper_sd`] under the name a larger topology gives it.
    pub(crate) fn paper_sd_named(id: NodeId, name: NodeName, memory_bytes: u64) -> Self {
        NodeSpec {
            id,
            name,
            role: NodeRole::SmartStorage,
            cpu: "Intel Core2 Duo E4400",
            cores: 2,
            core_speed: 0.75,
            memory_bytes,
        }
    }

    /// The paper's general-purpose nodes: Intel Celeron 450 (1 × 2.2 GHz),
    /// 2 GB. Per-core speed ≈ 0.7 of the host's (lower IPC and cache).
    pub fn paper_compute(id: NodeId, index: u32, memory_bytes: u64) -> Self {
        NodeSpec {
            id,
            name: NodeName::new("compute").at(index),
            role: NodeRole::Compute,
            cpu: "Intel Celeron 450",
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
            name: self.name.with_suffix("-1core"),
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
        assert_eq!(t.name, "sd-1core");
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

    #[test]
    fn every_name_form_renders_as_its_format_string() {
        let (r, i, n) = (7u32, 12u32, 4u32);
        let forms = [
            (NodeName::new("host"), "host".to_string()),
            (NodeName::new("sd"), "sd".to_string()),
            (NodeName::new("sd").at(i), format!("sd{i}")),
            (NodeName::new("compute").at(i), format!("compute{i}")),
            (NodeName::new("h").at(i).in_rack(r), format!("r{r}h{i}")),
            (NodeName::new("sd").at(i).in_rack(r), format!("r{r}sd{i}")),
            (
                NodeName::new("sd").at(i).in_rack(r).with_suffix("-1core"),
                format!("r{r}sd{i}-1core"),
            ),
            (
                NodeName::new("host").with_suffix("-1core"),
                "host-1core".into(),
            ),
            (
                NodeName::new("sd-").at(n).with_suffix("core"),
                format!("sd-{n}core"),
            ),
        ];
        for (name, old) in forms {
            assert_eq!(name.to_string(), old);
            assert_eq!(name, old.as_str());
            assert_eq!(format!("{name:?}"), format!("{old:?}"));
            // Table I pads names; width, fill, alignment and precision
            // must act as they do on the old `String`.
            assert_eq!(format!("{name:<12}|"), format!("{old:<12}|"));
            assert_eq!(format!("{name:>12}|"), format!("{old:>12}|"));
            assert_eq!(format!("{name:*^13}|"), format!("{old:*^13}|"));
            assert_eq!(format!("{name:.3}|"), format!("{old:.3}|"));
            assert_eq!(format!("{name:2}|"), format!("{old:2}|"));
        }
    }

    #[test]
    fn a_name_equals_only_its_whole_rendering() {
        let name = NodeName::new("sd").at(1).in_rack(0);
        assert_eq!(name, "r0sd1");
        for other in ["", "r0sd", "r0sd10", "r0sd1x", "sd1", "r1sd1"] {
            assert_ne!(name, other);
        }
    }
}
