#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! # mcsd-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! McSD paper's evaluation (§V), plus the ablation studies called out in
//! DESIGN.md §6.
//!
//! Run `mcsd-experiments all` (release mode!) to print each experiment's
//! rows; EXPERIMENTS.md records a reference run against the paper's
//! numbers. Sizes are the paper's labels ("500M" … "2G") scaled down by a
//! uniform divisor (default 256) that preserves every ratio the speedups
//! depend on — see `mcsd-cluster`'s [`Scale`].

pub mod ablation;
pub mod demos;
pub mod fig8;
pub mod four_phase;
pub mod pairs;
pub mod table;
pub mod workloads;

use mcsd_cluster::Scale;

/// Shared experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Byte-scale divisor applied to all paper sizes.
    pub scale: Scale,
    /// Workload generator seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The default configuration (1/256 scale).
    pub fn default_run() -> Self {
        ExperimentConfig {
            scale: Scale::default_experiment(),
            seed: 0x5D_CAFE,
        }
    }

    /// A fast configuration for smoke tests (1/2048 scale).
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: Scale::smoke(),
            seed: 0x5D_CAFE,
        }
    }
}
