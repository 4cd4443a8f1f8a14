#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! # McSD — Multicore-Enabled Smart Storage for Clusters
//!
//! A full Rust reproduction of *"Multicore-Enabled Smart Storage for
//! Clusters"* (IEEE CLUSTER 2012): a programming framework and runtime
//! that offloads data-intensive MapReduce computation from a cluster's
//! host computing nodes to multicore processors embedded in its storage
//! nodes, so bulk data never crosses the network.
//!
//! This facade crate re-exports the whole stack:
//!
//! | Layer | Crate | What it is |
//! |-------|-------|------------|
//! | [`phoenix`] | `mcsd-phoenix` | Phoenix-style shared-memory MapReduce runtime with the McSD out-of-core Partition/Merge extension (paper §IV-B/C) |
//! | [`cluster`] | `mcsd-cluster` | The modelled 5-node testbed: node specs, Gigabit Ethernet, NFS share, disk/swap model, virtual time (Table I) |
//! | [`smartfam`] | `mcsd-smartfam` | The file-alteration-monitor invocation mechanism: log files + watcher + daemon (paper §IV-A, Fig. 5) |
//! | [`framework`] | `mcsd-core` | The McSD framework: offload policy, node job driver, evaluation scenarios, live SD-node bridge |
//! | [`apps`] | `mcsd-apps` | Word Count, String Match, Matrix Multiplication + workload generators (paper §V-A) |
//! | [`obs`] | `mcsd-obs` | Deterministic observability: virtual-clock span tracing, the counter-family tables every stats struct is declared by, JSONL/Chrome trace exporters (DESIGN.md §12) |
//!
//! ## Quickstart
//!
//! ```
//! use mcsd::prelude::*;
//!
//! // A modelled paper testbed at 1/2048 scale, with a live SD node.
//! let cluster = mcsd::cluster::paper_testbed(Scale::smoke());
//! # let mut cluster = cluster;
//! # for n in &mut cluster.nodes { n.memory_bytes = 64 << 20; }
//! let framework = McsdFramework::start(cluster, OffloadPolicy::DataIntensiveToSd).unwrap();
//!
//! // Stage a corpus on the storage node and count words *in place*.
//! let corpus = TextGen::with_seed(7).generate(50_000);
//! framework.stage_data_local("corpus.txt", &corpus).unwrap();
//! let (counts, cost) = framework.wordcount("corpus.txt", Some("auto")).unwrap();
//!
//! assert_eq!(counts, mcsd::apps::seq::wordcount(&corpus));
//! // Only log-file traffic crossed the (modelled) network:
//! assert!(cost.network < framework.cluster().network.transfer_time(corpus.len() as u64));
//! framework.stop();
//! ```
//!
//! ## Reproduction artifacts
//!
//! * `mcsd-experiments` (in `crates/bench`) regenerates Table I and
//!   Figs. 8–10; see EXPERIMENTS.md for a reference run.
//! * DESIGN.md maps every paper system/figure to the modules here.

pub use mcsd_apps as apps;
pub use mcsd_cluster as cluster;
pub use mcsd_core as framework;
pub use mcsd_obs as obs;
pub use mcsd_phoenix as phoenix;
pub use mcsd_smartfam as smartfam;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use mcsd_apps::{MatMul, Matrix, StringMatch, TextGen, WordCount};
    pub use mcsd_cluster::{
        paper_testbed, Cluster, DiskModel, Fabric, NetworkModel, NodeId, NodeRole, NodeSpec, Scale,
        TimeBreakdown,
    };
    pub use mcsd_core::driver::{ExecMode, NodeRunner};
    pub use mcsd_core::offload::{JobProfile, OffloadDecision, OffloadPolicy};
    pub use mcsd_core::scenario::{PairRunner, PairScenario, PairWorkload};
    pub use mcsd_core::{McsdError, McsdFramework};
    pub use mcsd_phoenix::prelude::*;
    pub use mcsd_smartfam::{HostClient, ModuleRegistry, ProcessingModule};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_align() {
        // The facade must expose the same types the sub-crates define.
        let _: crate::phoenix::PhoenixConfig = crate::phoenix::PhoenixConfig::with_workers(1);
        let _: crate::cluster::Scale = crate::cluster::Scale::default_experiment();
        let cluster = crate::cluster::paper_testbed(crate::cluster::Scale::smoke());
        assert_eq!(cluster.nodes.len(), 5);
    }
}
