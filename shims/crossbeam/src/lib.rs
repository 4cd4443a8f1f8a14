//! An empty package: `mcsd-cluster`, `mcsd-core`, `mcsd-phoenix` and
//! `mcsd-smartfam` still declare `crossbeam`, but no workspace code names
//! it (every channel is `std::sync::mpsc`). The declarations, and this
//! package, go when the benchmark's lock file next changes (ROADMAP item
//! 3(f)).
