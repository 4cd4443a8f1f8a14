//! Runtime configuration.

use crate::memory::MemoryModel;
use serde::{Deserialize, Serialize};

/// How the final output pairs of a job are ordered.
///
/// Phoenix sorts the final output; Word Count, for instance, prints words
/// "in accordance with the frequency in decreasing order" (paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputOrder {
    /// Ascending by key (Phoenix's default).
    ByKey,
    /// Job-defined ordering via [`crate::job::Job::compare_output`].
    Custom,
}

/// Configuration of a Phoenix [`crate::runtime::Runtime`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhoenixConfig {
    /// Number of worker threads used for the map, reduce and merge phases.
    /// This is how the McSD experiments emulate core counts: 1 = the
    /// paper's "sequential"/single-core runs, 2 = the Core2 Duo SD node,
    /// 4 = the Core2 Quad host node.
    pub workers: usize,
    /// Number of hash partitions the intermediate key space is divided
    /// into. Each partition is sorted/grouped and reduced independently.
    /// Defaults to `4 * workers` for load balance.
    pub reduce_partitions: usize,
    /// Target map-chunk size in bytes. The splitter rounds chunk boundaries
    /// to record/delimiter boundaries.
    pub chunk_bytes: usize,
    /// Memory model of the node the job runs on. `None` disables memory
    /// accounting (no overflow, no thrash reporting).
    pub memory: Option<MemoryModel>,
}

impl PhoenixConfig {
    /// Default chunk size: 64 KiB, in the spirit of Phoenix's cache-sized
    /// map task units.
    pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

    /// A configuration with `workers` threads and no memory model.
    pub fn with_workers(workers: usize) -> Self {
        PhoenixConfig {
            workers,
            reduce_partitions: 4 * workers.max(1),
            chunk_bytes: Self::DEFAULT_CHUNK_BYTES,
            memory: None,
        }
    }

    /// Attach a memory model (builder style).
    pub fn memory(mut self, model: MemoryModel) -> Self {
        self.memory = Some(model);
        self
    }

    /// Override the map-chunk size (builder style).
    pub fn chunk_bytes(mut self, bytes: usize) -> Self {
        self.chunk_bytes = bytes;
        self
    }

    /// Override the number of reduce partitions (builder style).
    pub fn reduce_partitions(mut self, partitions: usize) -> Self {
        self.reduce_partitions = partitions;
        self
    }

    /// Pick a chunk size adapted to an input of `input_bytes`: small
    /// enough that every worker gets several map tasks (dynamic load
    /// balance), large enough that per-task overhead stays negligible.
    /// Clamped to `[4 KiB, DEFAULT_CHUNK_BYTES]`.
    pub fn adaptive_chunk_bytes(&self, input_bytes: usize) -> usize {
        const MIN_CHUNK: usize = 4 * 1024;
        const TASKS_PER_WORKER: usize = 8;
        let target_tasks = self.workers.max(1) * TASKS_PER_WORKER;
        (input_bytes / target_tasks).clamp(MIN_CHUNK, Self::DEFAULT_CHUNK_BYTES)
    }

    /// Validate the configuration, returning a descriptive error on
    /// nonsensical settings.
    pub fn validate(&self) -> Result<(), crate::error::PhoenixError> {
        if self.workers == 0 {
            return Err(crate::error::PhoenixError::NoWorkers);
        }
        if self.reduce_partitions == 0 {
            return Err(crate::error::PhoenixError::NoReducePartitions);
        }
        Ok(())
    }
}

impl Default for PhoenixConfig {
    /// Default: one worker per available core, no memory model.
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        PhoenixConfig::with_workers(cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PhoenixError;

    #[test]
    fn with_workers_sets_partitions() {
        let c = PhoenixConfig::with_workers(4);
        assert_eq!(c.workers, 4);
        assert_eq!(c.reduce_partitions, 16);
        assert_eq!(c.chunk_bytes, PhoenixConfig::DEFAULT_CHUNK_BYTES);
        assert!(c.memory.is_none());
    }

    #[test]
    fn builder_chain() {
        let c = PhoenixConfig::with_workers(2)
            .chunk_bytes(1024)
            .reduce_partitions(3)
            .memory(MemoryModel::new(1 << 20));
        assert_eq!(c.chunk_bytes, 1024);
        assert_eq!(c.reduce_partitions, 3);
        assert_eq!(c.memory.unwrap().total_bytes, 1 << 20);
    }

    #[test]
    fn zero_workers_invalid() {
        let c = PhoenixConfig {
            workers: 0,
            ..PhoenixConfig::with_workers(1)
        };
        assert_eq!(c.validate(), Err(PhoenixError::NoWorkers));
    }

    #[test]
    fn zero_partitions_invalid() {
        let c = PhoenixConfig::with_workers(1).reduce_partitions(0);
        assert_eq!(c.validate(), Err(PhoenixError::NoReducePartitions));
    }

    #[test]
    fn adaptive_chunks_balance_and_clamp() {
        let c = PhoenixConfig::with_workers(4);
        // Large input: bounded above by the default chunk size.
        assert_eq!(
            c.adaptive_chunk_bytes(1 << 30),
            PhoenixConfig::DEFAULT_CHUNK_BYTES
        );
        // Mid-size input: roughly 8 tasks per worker.
        let chunk = c.adaptive_chunk_bytes(1 << 20);
        assert_eq!(chunk, (1 << 20) / 32);
        // Tiny input: clamped below.
        assert_eq!(c.adaptive_chunk_bytes(100), 4 * 1024);
    }

    #[test]
    fn default_uses_at_least_one_worker() {
        let c = PhoenixConfig::default();
        assert!(c.workers >= 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn zero_worker_builder_keeps_partitions_positive() {
        // with_workers(0) must not create a zero-partition config silently.
        let c = PhoenixConfig::with_workers(0);
        assert_eq!(c.reduce_partitions, 4);
        assert!(c.validate().is_err());
    }
}
