#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! # mcsd-cluster
//!
//! The cluster substrate the McSD experiments run on. Two topologies are
//! provided:
//!
//! * [`topology::paper_testbed`] — the paper's 5-node testbed (Table I):
//!   one Core2 Quad host node, one Core2 Duo smart-storage (SD) node,
//!   three Celeron general-purpose compute nodes, a Gigabit Ethernet
//!   switch, NFS data sharing, and the Sandia Micro Benchmark (SMB) as
//!   background "routine work" ([`topology::multi_sd_testbed`] is its
//!   multi-SD variant);
//! * [`topology::RackSpec`] — the rack-scale generalization (DESIGN.md
//!   §17): `racks × (hosts_per_rack + sds_per_rack)` nodes in rack-major
//!   id order behind oversubscribed top-of-rack uplinks, modelled by the
//!   two-tier [`network::RackNetwork`] (intra-rack leaf vs cross-rack
//!   uplink bandwidth). A 1-rack/1-host/1-SD spec degenerates to the
//!   paper testbed's host + SD pair; the default experiment spec builds
//!   104 nodes for the `mcsd-core::des` discrete-event scheduler.
//!
//! ## Substitution note
//!
//! The paper evaluates on five physical machines. This crate substitutes a
//! *calibrated model*: real computation runs on thread pools capped at each
//! node's core count, wall-clock compute time is divided by the node's
//! per-core speed factor, and network/NFS/swap costs are charged
//! analytically into a [`TimeBreakdown`] from bandwidth/latency models. The
//! paper only reports *relative* speedups, which depend exactly on the
//! ratios this model preserves (core counts, clock ratios, link bandwidth,
//! disk bandwidth). See DESIGN.md §3.
//!
//! ## Modules
//!
//! * [`node`] — node specifications (role, cores, speed, memory).
//! * [`network`] — fabric models: Fast/Gigabit Ethernet, Infiniband.
//! * [`disk`] — disk model used for swap/thrash penalties.
//! * [`clock`] — the virtual-time ledger ([`TimeBreakdown`]).
//! * [`exec`] — capped-core executor that measures and scales compute.
//! * [`nfs`] — the NFS-style shared directory between host and SD nodes.
//! * [`topology`] — the assembled cluster; [`topology::paper_testbed`] and
//!   the rack-scale [`topology::RackSpec`] / [`topology::RackTopology`].
//! * [`smb`] — Sandia Micro Benchmark traffic emulation.
//! * [`scale`] — the paper-size ↔ experiment-size scaling rule.

pub mod clock;
pub mod disk;
pub mod exec;
pub mod network;
pub mod nfs;
pub mod node;
pub mod scale;
pub mod smb;
pub mod topology;

pub use clock::TimeBreakdown;
pub use disk::DiskModel;
pub use exec::NodeExecutor;
pub use network::{Fabric, NetworkModel, RackNetwork};
pub use nfs::{NfsClient, NfsShare};
pub use node::{NodeId, NodeName, NodeRole, NodeSpec};
pub use scale::Scale;
pub use smb::{SandiaMicroBenchmark, SmbPattern, SmbReport};
pub use topology::{multi_sd_testbed, paper_testbed, Cluster, RackSpec, RackTopology};
