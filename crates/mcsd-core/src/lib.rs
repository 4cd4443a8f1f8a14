#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! # mcsd-core
//!
//! The McSD framework — the paper's primary contribution: "a programming
//! framework, which include MapReduce-like programming APIs and a runtime
//! environment for multicore-based smart storage in the context of
//! clusters" whose "APIs and runtime environment … automatically handles
//! computation offload, data partitioning, and load balancing" (§I).
//!
//! Built on the three substrates:
//!
//! * [`mcsd_phoenix`] — the extended Phoenix MapReduce runtime (map/reduce
//!   + Partition/Merge);
//! * [`mcsd_cluster`] — the modelled 5-node testbed (nodes, NFS, network,
//!   disk, virtual time);
//! * [`mcsd_smartfam`] — the log-file invocation mechanism between host
//!   and SD node.
//!
//! ## Layers
//!
//! * [`driver`] — run one MapReduce job "on a node": caps workers at the
//!   node's cores, applies the memory model, charges speed-scaled compute
//!   and swap penalties to the virtual clock.
//! * [`offload`] — the offload policy: which node should run a job.
//! * [`engine`] — the unified offload scheduler: the one copy of the
//!   decide → admit → steer → dispatch → retry → fallback → record state
//!   machine that both [`framework`] and [`multisd`] drive, and the sole
//!   owner of the per-SD circuit breakers driving health-aware steering
//!   and of memory-budget admission (adaptive re-partitioning of
//!   over-footprint jobs before they are offloaded).
//! * [`replication`] — replicated SD log groups: quorum appends, replica
//!   promotion on primary failure, and background re-protection back to
//!   full redundancy (DESIGN.md §15).
//! * [`chaos`] — deterministic chaos sweep: enumerate every fault point a
//!   scenario crosses, inject every action at each, audit cross-cutting
//!   safety invariants (DESIGN.md §16).
//! * [`des`] — rack-scale deterministic discrete-event scheduler:
//!   thousands of seeded concurrent jobs over a
//!   [`mcsd_cluster::RackSpec`] topology, placed by the engine's
//!   [`offload`] policy onto per-shard run queues (DESIGN.md §17).
//! * [`scenario`] — the paper's four multi-application execution scenarios
//!   (§V-C): host-only, traditional single-core SD, duo SD without
//!   partition, and the full McSD framework.
//! * [`modules`] — the three benchmark applications wrapped as smartFAM
//!   [`ProcessingModule`](mcsd_smartfam::ProcessingModule)s, as they would
//!   be preloaded on a McSD node.
//! * [`bridge`] — a *live* SD node: NFS share + smartFAM daemon + preloaded
//!   modules, plus the host-side client that offloads through it.
//! * [`framework`] — the top-level [`framework::McsdFramework`] facade.

pub mod bridge;
pub mod chaos;
pub mod des;
pub mod driver;
pub mod engine;
pub mod error;
pub mod framework;
pub mod modules;
pub mod multisd;
pub mod offload;
pub mod replication;
pub mod report;
pub mod scenario;

pub use chaos::{
    run_sweep, ChaosObservation, ChaosReport, ChaosScenario, ConservationCheck, Invariant,
    ReplicationRoundsScenario, Violation,
};
pub use des::{synthesize_workload, DesConfig, DesJob, RackRun, DES_TRACE_TRACK};
pub use driver::{ExecMode, NodeRunReport, NodeRunner};
pub use engine::{
    Admission, BreakerConfig, BreakerState, Engine, EngineConfig, MemoryAdmission, OffloadCall,
    SpanDisposition,
};
pub use error::McsdError;
pub use framework::{McsdFramework, ResilienceConfig};
pub use multisd::{MultiSdReport, MultiSdRunner, SpanOutcome};
pub use offload::{JobProfile, OffloadDecision, OffloadPolicy};
pub use replication::{ReplicationGroups, ReplicationSetup, RoundOutcome};
pub use report::{DesStats, RackReport, ReplicationStats, RunReport};
pub use scenario::{PairReport, PairRunner, PairScenario, PairWorkload};

// Fault-injection and replication surface, re-exported so experiment and
// test code can script failures without depending on mcsd-smartfam
// directly.
pub use mcsd_smartfam::{
    FaultAction, FaultInjector, FaultPlan, FaultSite, OverloadStats, ReplicaConfig,
    ResilienceStats, RetryPolicy,
};
