//! Batched, pipelined smartFAM mode (DESIGN.md §18).
//!
//! The lockstep protocol pays one host→SD round trip and one durable
//! append per call. This module holds the shared configuration and the
//! counter family for the mode that lifts both costs (measured by the
//! `call_window16` workload against `call_lockstep`; `benchmark/README.md`):
//!
//! * the daemon coalesces queued work into **append batches** committed
//!   with a single fsync ([`crate::log_file::LogFile::append_batch`]),
//!   executed by a multi-worker pool that keeps serial-per-module order
//!   (the shard-per-owner model — each module is owned by exactly one
//!   worker, so no two requests of one module ever run concurrently);
//! * the host keeps a **pipelined in-flight window** per host↔SD pair
//!   ([`crate::host::HostClient::invoke_window`]): up to `depth` requests
//!   outstanding, completions matched by request id in any order, the
//!   window halved on `Overloaded` replies and regrown additively, every
//!   call budgeted, probed and retried under the client's retry policy.
//!
//! [`BatchStats`] is the seventh counter family (DESIGN.md §13).

use mcsd_obs::CounterFamily;
use std::time::Duration;

/// Configuration for the daemon's batched multi-worker dispatch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Dispatch workers. Modules are assigned to workers by a seeded
    /// hash, so each module's requests execute serially on one worker
    /// while distinct modules run concurrently.
    pub workers: usize,
    /// Most requests committed per batch. Batch boundaries are stamped
    /// on the virtual clock, so a full batch is also a deterministic
    /// replay unit.
    pub max_batch: usize,
    /// Seed for the module→worker assignment hash. Same seed ⇒ same
    /// assignment ⇒ same-seed traces stay byte-identical.
    pub seed: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            workers: 4,
            max_batch: 16,
            seed: 0x6d63_7364,
        }
    }
}

/// Configuration for the host's pipelined in-flight window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Maximum requests outstanding at once. Depth 1 degenerates to the
    /// lockstep protocol.
    pub depth: usize,
    /// Each call's deadline, counted from its first submit and split
    /// across its attempts: an attempt gets the deadline left divided by
    /// the attempts left ([`crate::host::RetryPolicy`]).
    pub call_timeout: Duration,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            depth: 16,
            call_timeout: Duration::from_secs(5),
        }
    }
}

impl WindowConfig {
    /// A window of the given depth with the default timeout.
    pub fn with_depth(depth: usize) -> WindowConfig {
        WindowConfig {
            depth: depth.max(1),
            ..WindowConfig::default()
        }
    }
}

/// Counters for the batched/pipelined dispatch path — the seventh
/// counter family (DESIGN.md §13). Daemon-side fields are mutated
/// only by the batch committer in `daemon.rs`; window fields only by the
/// host's window in `window.rs`; `absorb` (here) merges deltas.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Coalesced append batches committed (each with exactly one fsync).
    pub batches: u64,
    /// Response appends that rode in a batch instead of a lone append.
    pub coalesced_appends: u64,
    /// fsyncs actually issued by batch commits.
    pub fsyncs: u64,
    /// Sum of the in-flight depth observed at each pipelined submit;
    /// divide by attempts for mean window occupancy.
    pub window_occupancy: u64,
    /// Window shrink steps taken on `Overloaded`/breaker-class signals.
    pub window_shrinks: u64,
    /// Completions that arrived out of submit order within a window.
    pub reordered_completions: u64,
}

mcsd_obs::counter_family!(BatchStats {
    owner: "smartfam.batch",
    prefix: "batch",
    counters: [
        batches,
        coalesced_appends as "coalesced",
        fsyncs,
        window_occupancy as "occupancy",
        window_shrinks as "shrinks",
        reordered_completions as "reordered",
    ],
});

impl BatchStats {
    /// Merge counters from another collection period into this one.
    pub fn absorb(&mut self, other: &BatchStats) {
        CounterFamily::absorb(self, other);
    }

    /// Whether no batched or pipelined traffic was recorded at all.
    pub fn is_clean(&self) -> bool {
        *self == BatchStats::default()
    }
}

impl std::fmt::Display for BatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.report(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_config_floors_depth_at_one() {
        assert_eq!(WindowConfig::with_depth(0).depth, 1);
        assert_eq!(WindowConfig::with_depth(16).depth, 16);
    }
}
