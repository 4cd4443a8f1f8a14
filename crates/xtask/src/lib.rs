#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! `mcsd-tidy`: the workspace's std-only cross-file analysis pass.
//!
//! McSD's headline results are ratios over the virtual-time ledger
//! (`mcsd_cluster::TimeBreakdown`), so wall-clock reads, unordered hash
//! iteration, or panics leaking into the simulation make every reproduced
//! figure untrustworthy. The per-line half of that policy is compiler
//! lints (the lib roots' header plus the root `clippy.toml`, DESIGN.md
//! §9); `tidy` keeps the rules no compiler lint can state. It is token
//! level: [`lex`] produces a full token stream per file, [`workspace`]
//! holds every lexed library file so the rules (counter ownership
//! MCSD009, determinism flow MCSD010) can reason across crates. Each
//! rule's facts are the code itself, plus one table the code
//! cannot state: [`ownership::WRITERS`], which files may write each
//! counter. Tidy reads no Markdown. [`manifest`] holds the workspace
//! hygiene of MCSD006. Stable diagnostic codes and an inline waiver
//! syntax:
//!
//! ```text
//! // tidy:allow(MCSD010) -- emission order only feeds a re-grouping
//! ```
//!
//! A waiver covers its own line and the line below it, must name the code
//! it waives, and must carry a `-- reason`; malformed or unused waivers
//! are themselves diagnostics (MCSD000). Run it as:
//!
//! ```text
//! cargo run -p xtask -- tidy
//! ```
//!
//! See DESIGN.md §14 "Static analysis" for the analyzer architecture and
//! the rule catalog.

pub mod determinism;
pub mod diag;
pub mod lex;
pub mod manifest;
pub mod ownership;
pub mod runner;
pub mod scan;
pub mod workspace;

pub use diag::{Code, Diagnostic};
pub use runner::{run_tidy, TidyReport};
