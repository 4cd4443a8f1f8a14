#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! # mcsd-obs
//!
//! Deterministic observability for the McSD stack: hierarchical spans and
//! typed events stamped on **logical clocks** (never wall clock), plus the
//! [`CounterFamily`] tables: each stats struct of the stack declares its
//! counters once (owner, key prefix, fields) and merging, deltas, the
//! report line and the exported `counter` rows are generic over that.
//!
//! The paper evaluates McSD entirely through timing breakdowns (speedup
//! curves, co-running offload scenarios); this crate provides the
//! *within-run* visibility those figures need — where inside a run time
//! went, and when a breaker opened relative to a shed — without ever
//! touching `Instant::now` or `SystemTime::now`, so the same seed yields a
//! byte-identical trace (the wall-clock ban of DESIGN.md §9,
//! `clippy::disallowed_methods`, applies to this crate like every other).
//!
//! ## Clock domains
//!
//! Every track (timeline) declares one [`ClockDomain`]:
//!
//! * [`ClockDomain::Cluster`] — virtual microseconds from the analytic
//!   network/disk charges of `mcsd-cluster`'s `TimeBreakdown`.
//! * [`ClockDomain::Decision`] — control-plane decision quanta: one tick
//!   per admission decision or lifecycle event, the same logical clock the
//!   circuit breaker runs on.
//! * [`ClockDomain::Work`] — work-proportional ticks for Phoenix phases
//!   (bytes split, pairs emitted/merged), a deterministic proxy for the
//!   *measured* `PhaseTimings`, which are wall clock and therefore banned
//!   from traces.
//!
//! Events whose real-world cadence is wall-clock-driven (daemon heartbeats,
//! watcher polls) are recorded as **volatile**: they never advance a track
//! clock, never consume a durable sequence slot, and are excluded from the
//! default export, so their run-to-run count variance cannot break the
//! byte-determinism guarantee.
//!
//! ## Quick example
//!
//! ```
//! use mcsd_obs::{ClockDomain, Tracer};
//!
//! let tracer = Tracer::enabled();
//! let track = tracer.track("phoenix", ClockDomain::Work);
//! let job = tracer.open(track, "phoenix.job", &[("job", "wordcount")]);
//! // A formatted value goes through the lazy form: the closure runs
//! // only on an enabled tracer.
//! tracer.leaf_with(track, "phoenix.map", 10, |a| a.u64("map_tasks", 4));
//! tracer.close(track, job);
//!
//! let jsonl = mcsd_obs::export::jsonl(&tracer);
//! assert!(jsonl.contains("\"type\":\"span_open\""));
//! let chrome = mcsd_obs::export::chrome(&tracer);
//! assert!(chrome.starts_with('['));
//! ```
//!
//! ## Exporters
//!
//! * [`export::jsonl`] — one JSON object per line, versioned
//!   (`names::TRACE_FORMAT_VERSION`), documented in DESIGN.md §12.
//! * [`export::chrome`] — Chrome `trace_event` array, loadable in
//!   `chrome://tracing` or Perfetto for flamegraph-style inspection.

pub mod clock;
pub mod export;
pub mod metrics;
pub mod names;
pub mod trace;

pub use clock::ClockDomain;
pub use metrics::{Counter, CounterFamily, MetricSample};
pub use trace::{Attrs, SpanId, Tracer, TrackId};
