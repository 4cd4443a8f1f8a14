#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! # mcsd-smartfam
//!
//! **smartFAM** — the invocation mechanism that lets a host computing node
//! trigger data-intensive processing modules on a McSD smart-storage node
//! (paper §IV-A, Fig. 5).
//!
//! The paper's implementation has two components: "(1) the inotify program
//! — a Linux kernel subsystem that provides file system event notification;
//! and (2) a daemon program that invokes on-node data-intensive operations
//! or modules". Host and SD node communicate exclusively through
//! *per-module log files* in an NFS-shared folder: the host writes a
//! module's input parameters into its log file, inotify on the SD node
//! notices the change and wakes the daemon, the daemon runs the module, and
//! the results flow back through the same log file with the roles reversed.
//!
//! ## Substitution note
//!
//! The offline crate set has no inotify binding, so [`watch`] implements a
//! polling watcher with the same event semantics (created/modified/removed,
//! detected from length + mtime). The poll interval is configurable; tests
//! use 1–2 ms.
//!
//! ## Modules
//!
//! * [`codec`] — the length-prefixed, checksummed frame format used inside
//!   log files.
//! * [`watch`] — the polling file watcher (inotify substitute).
//! * [`log_file`] — append/scan access to one module's log file.
//! * [`module`] — the [`ProcessingModule`] trait and registry of
//!   "preloaded" data-intensive modules.
//! * [`daemon`] — the SD-side daemon: watch log files, dispatch modules,
//!   write results, heartbeat.
//! * [`host`] — the host-side client: write parameters, await results.
//! * [`faults`] — seeded deterministic fault injection (torn/corrupt
//!   appends, daemon crashes, heartbeat stalls, stale reads) plus the
//!   [`ResilienceStats`] counters shared by every recovery layer.
//! * [`replica`] — replicated module-log groups: quorum appends with
//!   read-back verification, epoch-fenced replica promotion, and
//!   background re-protection (DESIGN.md §15).
//! * [`batch`] — the batched/pipelined throughput mode: coalesced
//!   one-fsync append batches, the multi-worker serial-per-module
//!   dispatch pool, pipelined host windows, and the [`BatchStats`]
//!   counter family (DESIGN.md §18).

pub mod batch;
pub mod codec;
pub mod daemon;
pub mod error;
pub mod faults;
pub mod host;
pub mod log_file;
pub mod module;
pub mod replica;
pub mod watch;
mod window;

pub use batch::{BatchConfig, BatchStats, WindowConfig};
pub use codec::{Frame, FrameBody, HeartbeatLoad, HeartbeatRecord, Status};
pub use daemon::{Daemon, DaemonConfig, DaemonHandle, DaemonStats};
pub use error::SmartFamError;
pub use faults::{
    FaultAction, FaultInjector, FaultPlan, FaultSite, InjectedFault, OverloadStats,
    ResilienceStats, ScheduledFault,
};
pub use host::{HostClient, InvokeOutcome, Liveness, PendingCall, RetryPolicy, WindowRun};
pub use log_file::{BatchAppendOutcome, LogFile, LogRole};
pub use module::{ModuleError, ModuleRegistry, ProcessingModule};
pub use replica::{AppendOutcome, ReplicaConfig, ReplicaState, ReplicatedLog, ReprotectStep};
pub use watch::{FileWatcher, PollBackoff, WatchConfig, WatchEvent, WatchEventKind};
