#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! # mcsd-phoenix
//!
//! A Phoenix-style shared-memory MapReduce runtime for multicore processors,
//! extended with the McSD out-of-core **Partition/Merge** stage.
//!
//! This crate reproduces the runtime substrate of *"Multicore-Enabled Smart
//! Storage for Clusters"* (IEEE CLUSTER 2012). The paper incorporates
//! Phoenix — Ranger et al.'s MapReduce implementation for shared-memory
//! multicore systems — into smart storage nodes, and extends it with a data
//! partitioning module so that jobs whose memory footprint exceeds node
//! memory can still run (paper §IV-B/C, Fig. 6 and Fig. 7).
//!
//! ## Architecture
//!
//! * [`Job`] — the user-facing MapReduce programming interface (`map`,
//!   `reduce`, optional `combine`), mirroring Phoenix's functional API.
//! * [`Runtime`] — the scheduler: splits the input into chunks, runs map
//!   workers on a capped pool of OS threads, hash-partitions intermediate
//!   pairs, groups them by hash, reduces them, and sorts the output once.
//! * [`splitter`] — chunking of byte inputs on record or delimiter
//!   boundaries.
//! * [`integrity`] — the paper's integrity-check procedure (Fig. 7): a
//!   fragment boundary is advanced to the next delimiter so no record is cut
//!   in half.
//! * [`partition`] — the two-stage Partition → MapReduce → Merge workflow
//!   (Fig. 6) that iterates the runtime over memory-sized fragments.
//! * [`memory`] — the node memory model: Phoenix's hard input-size limit
//!   (~60% of node memory) and the swap/thrash accounting used by the
//!   cluster-level virtual clock.
//!
//! ## Quick example
//!
//! ```
//! use mcsd_phoenix::prelude::*;
//!
//! /// Counts bytes by value.
//! struct ByteCount;
//!
//! impl Job for ByteCount {
//!     type Key = u8;
//!     type Value = u64;
//!
//!     fn map(&self, chunk: InputChunk<'_>, emitter: &mut Emitter<u8, u64>) {
//!         for &b in chunk.bytes() {
//!             emitter.emit(b, 1);
//!         }
//!     }
//!
//!     fn reduce(&self, _key: &u8, values: &mut ValueIter<'_, u64>) -> Option<u64> {
//!         Some(values.sum())
//!     }
//! }
//!
//! let cfg = PhoenixConfig::with_workers(2);
//! let runtime = Runtime::new(cfg);
//! let out = runtime.run(&ByteCount, b"abba").unwrap();
//! assert_eq!(out.pairs, vec![(b'a', 2), (b'b', 2)]);
//! ```

pub mod config;
pub mod emitter;
pub mod error;
pub mod hash;
pub mod integrity;
pub mod job;
pub mod memory;
pub mod partition;
pub mod runtime;
pub mod sort;
pub mod splitter;
pub mod stats;
pub mod stopwatch;

pub use config::{OutputOrder, PhoenixConfig};
pub use emitter::{Emitter, InterKey};
pub use error::PhoenixError;
pub use integrity::{Delimiter, IntegrityCheck};
pub use job::{InputChunk, Job, ValueIter};
pub use memory::{MemoryModel, MemoryVerdict};
pub use partition::{
    parse_size_label, Merger, PartitionPlan, PartitionSpec, PartitionedRuntime, SumMerger, SumRun,
};
pub use runtime::{JobOutput, Runtime};
pub use splitter::{SplitSpec, Splitter};
pub use stats::{JobStats, PhaseTimings};
pub use stopwatch::{wall_clock_ms, Stopwatch};

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::config::{OutputOrder, PhoenixConfig};
    pub use crate::emitter::{Emitter, InterKey};
    pub use crate::error::PhoenixError;
    pub use crate::integrity::{Delimiter, IntegrityCheck};
    pub use crate::job::{InputChunk, Job, ValueIter};
    pub use crate::memory::{MemoryModel, MemoryVerdict};
    pub use crate::partition::{Merger, PartitionSpec, PartitionedRuntime, SumMerger};
    pub use crate::runtime::{JobOutput, Runtime};
    pub use crate::splitter::{SplitSpec, Splitter};
    pub use crate::stats::JobStats;
}
