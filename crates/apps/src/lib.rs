#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! # mcsd-apps
//!
//! The three real-world benchmark applications the McSD paper evaluates
//! (§V-A), implemented against the `mcsd-phoenix` MapReduce API, plus the
//! workload generators that stand in for the paper's input files and
//! single-threaded sequential baselines:
//!
//! * **Word Count (WC)** — "counts the frequency of occurrence for each
//!   word in a set of files … the words are sorted and printed out in
//!   accordance with the frequency in decreasing order."
//! * **String Match (SM)** — "each Map searches one line in the 'encrypt'
//!   file to check whether the target string from a 'keys' file is in the
//!   line. Neither sort or the reduce stage is required."
//! * **Matrix Multiplication (MM)** — "each Map computes multiplication
//!   for a set of rows of the output matrix … the reduce task is just the
//!   identity function."
//!
//! Workloads are synthetic but shaped like the paper's: Zipf-distributed
//! text for WC, an "encrypt" file with planted keys for SM, dense random
//! matrices for MM.

pub mod datagen;
pub mod matmul;
pub mod search;
pub mod seq;
pub mod stringmatch;
pub mod textgen;
mod util;
pub mod wordcount;

pub use matmul::{MatMul, Matrix};
pub use stringmatch::{StringMatch, StringMatchInput};
pub use textgen::TextGen;
pub use wordcount::WordCount;
