//! The tracer: hierarchical spans and typed events on per-track logical
//! clocks.
//!
//! A [`Tracer`] is a cheap-to-clone handle (the [`Tracer::disabled`]
//! variant holds no allocation at all and every operation is a no-op, the
//! same fast-path idiom as `FaultInjector::disabled`). Producers across
//! threads append to per-track record buffers; export sorts tracks by name
//! so registration races between threads cannot change the output bytes.
//!
//! ## Clock rules
//!
//! * Every durable record — span open, span close, instant event —
//!   advances its track's clock by one tick before stamping, so `at`
//!   values are strictly increasing per track.
//! * [`Tracer::advance`] adds extra ticks between open and close, which is
//!   how Phoenix phase spans get work-proportional widths.
//! * [`Tracer::volatile_event`] stamps at the *current* tick without
//!   advancing: volatile records (heartbeats, polls) are wall-cadenced, so
//!   letting them consume ticks would leak wall-clock variance into every
//!   later timestamp.
//!
//! ## Nesting guarantee
//!
//! [`Tracer::close`] closes every span opened after its argument first
//! (innermost-out), so exported span open/close records always nest
//! properly no matter how callers interleave — the property the crate's
//! proptest pins down.
//!
//! ## Lazy attributes
//!
//! Attribute values are `&str`. A call site that has to *format* a value
//! (a count, an id) uses the `_with` form of the record call and writes
//! the value through [`Attrs`] inside the closure, which runs only on an
//! enabled tracer — so a disabled tracer never pays for a `to_string()`.
//! The slice forms are the same calls with the attributes already at
//! hand.

use crate::clock::ClockDomain;
use parking_lot::Mutex;
use std::sync::Arc;

/// Handle to one named timeline inside a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(pub(crate) usize);

/// Handle to one open span on a track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u64);

/// Attribute writer handed to the closure of [`Tracer::open_with`],
/// [`Tracer::leaf_with`] and [`Tracer::event_with`]. Attributes are
/// exported in the order they are written.
#[derive(Debug)]
pub struct Attrs(Vec<(&'static str, String)>);

impl Attrs {
    /// Write a string-valued attribute.
    pub fn str(&mut self, key: &'static str, value: &str) {
        self.0.push((key, value.to_string()));
    }

    /// Write an integer-valued attribute, rendered in decimal.
    pub fn u64(&mut self, key: &'static str, value: u64) {
        self.display(key, value);
    }

    /// Write an attribute rendered through its `Display` — a value that
    /// is not a string until a recording tracer asks for one.
    pub fn display(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.0.push((key, value.to_string()));
    }
}

/// One durable or volatile record on a track.
#[derive(Debug, Clone)]
pub(crate) enum RecordKind {
    /// A span opened.
    Open {
        /// Per-track span id.
        span: u64,
        /// Catalogued span name.
        name: &'static str,
        /// Key/value attributes, in call-site order.
        attrs: Vec<(&'static str, String)>,
    },
    /// A span closed.
    Close {
        /// Per-track span id.
        span: u64,
        /// Catalogued span name (mirrored from the open for readability).
        name: &'static str,
    },
    /// An instant event.
    Instant {
        /// Catalogued event name.
        name: &'static str,
        /// Key/value attributes, in call-site order.
        attrs: Vec<(&'static str, String)>,
        /// Wall-cadenced record: excluded from the default export and
        /// stamped without advancing the track clock.
        volatile: bool,
    },
}

/// A record plus the tick it was stamped at.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    pub(crate) at: u64,
    pub(crate) kind: RecordKind,
}

/// Mutable state of one track.
#[derive(Debug)]
struct TrackState {
    name: String,
    domain: ClockDomain,
    clock: u64,
    next_span: u64,
    open: Vec<(u64, &'static str)>,
    records: Vec<Record>,
}

/// Read-only copy of a track handed to the exporters.
#[derive(Debug, Clone)]
pub(crate) struct TrackSnapshot {
    pub(crate) name: String,
    pub(crate) domain: ClockDomain,
    pub(crate) records: Vec<Record>,
}

#[derive(Debug)]
struct Inner {
    tracks: Mutex<Vec<TrackState>>,
}

/// The deterministic tracer.
///
/// Clone freely — clones share the same buffers. The [`Default`] value is
/// the disabled tracer, so embedding a `Tracer` field in an existing
/// struct changes nothing until a caller opts in with
/// [`Tracer::enabled`].
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                tracks: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op tracer: holds no allocation, every call returns
    /// immediately. This is the [`Default`], so tracing is strictly
    /// opt-in.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register (or look up) a track by name. A track has one clock
    /// domain: a repeat call with the same name returns the existing
    /// track, and debug builds assert it names the same domain. On a
    /// disabled tracer this returns a dummy id.
    pub fn track(&self, name: &str, domain: ClockDomain) -> TrackId {
        let Some(inner) = &self.inner else {
            return TrackId(0);
        };
        let mut tracks = inner.tracks.lock();
        if let Some(i) = tracks.iter().position(|t| t.name == name) {
            debug_assert_eq!(
                tracks[i].domain, domain,
                "track `{name}` has one clock domain"
            );
            return TrackId(i);
        }
        tracks.push(TrackState {
            name: name.to_string(),
            domain,
            clock: 0,
            next_span: 1,
            open: Vec::new(),
            records: Vec::new(),
        });
        TrackId(tracks.len() - 1)
    }

    /// Open a span: advances the track clock one tick and stamps the open
    /// record there. Returns the span's id for [`Tracer::close`].
    pub fn open(
        &self,
        track: TrackId,
        name: &'static str,
        attrs: &[(&'static str, &str)],
    ) -> SpanId {
        self.open_with(track, name, from_slice(attrs))
    }

    /// [`Tracer::open`] with attributes written by `fill`, which runs
    /// only when the tracer is enabled (before any tracer lock is taken).
    pub fn open_with(
        &self,
        track: TrackId,
        name: &'static str,
        fill: impl FnOnce(&mut Attrs),
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId(0);
        };
        let attrs = filled(fill);
        let mut tracks = inner.tracks.lock();
        let Some(t) = tracks.get_mut(track.0) else {
            return SpanId(0);
        };
        t.clock += 1;
        let span = t.next_span;
        t.next_span += 1;
        t.open.push((span, name));
        t.records.push(Record {
            at: t.clock,
            kind: RecordKind::Open { span, name, attrs },
        });
        SpanId(span)
    }

    /// Close a span. Any spans opened after it (its children) are closed
    /// first, innermost-out, each at its own tick — so open/close records
    /// always nest properly. Closing an unknown or already-closed span is
    /// a no-op.
    pub fn close(&self, track: TrackId, span: SpanId) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut tracks = inner.tracks.lock();
        let Some(t) = tracks.get_mut(track.0) else {
            return;
        };
        if !t.open.iter().any(|(id, _)| *id == span.0) {
            return;
        }
        while let Some((id, name)) = t.open.pop() {
            t.clock += 1;
            t.records.push(Record {
                at: t.clock,
                kind: RecordKind::Close { span: id, name },
            });
            if id == span.0 {
                break;
            }
        }
    }

    /// Advance a track's clock by `ticks` without recording anything —
    /// the width of whatever span is currently open grows by `ticks`.
    pub fn advance(&self, track: TrackId, ticks: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut tracks = inner.tracks.lock();
        if let Some(t) = tracks.get_mut(track.0) {
            t.clock += ticks;
        }
    }

    /// Convenience: open a span, advance `ticks`, close it — the shape of
    /// a Phoenix phase span whose width is its deterministic work volume.
    pub fn leaf(
        &self,
        track: TrackId,
        name: &'static str,
        ticks: u64,
        attrs: &[(&'static str, &str)],
    ) {
        self.leaf_with(track, name, ticks, from_slice(attrs));
    }

    /// [`Tracer::leaf`] with attributes written by `fill`, which runs
    /// only when the tracer is enabled.
    pub fn leaf_with(
        &self,
        track: TrackId,
        name: &'static str,
        ticks: u64,
        fill: impl FnOnce(&mut Attrs),
    ) {
        if !self.is_enabled() {
            return;
        }
        let span = self.open_with(track, name, fill);
        self.advance(track, ticks);
        self.close(track, span);
    }

    /// Record a durable instant event: advances the track clock one tick
    /// and stamps the event there.
    pub fn event(&self, track: TrackId, name: &'static str, attrs: &[(&'static str, &str)]) {
        self.instant(track, name, from_slice(attrs), false);
    }

    /// [`Tracer::event`] with attributes written by `fill`, which runs
    /// only when the tracer is enabled.
    pub fn event_with(&self, track: TrackId, name: &'static str, fill: impl FnOnce(&mut Attrs)) {
        self.instant(track, name, fill, false);
    }

    /// Record a volatile instant event — one whose real-world cadence is
    /// wall-clock-driven (heartbeats, watcher polls). Stamped at the
    /// *current* tick without advancing the clock, and excluded from the
    /// default export, so run-to-run count variance cannot perturb the
    /// durable trace bytes.
    pub fn volatile_event(
        &self,
        track: TrackId,
        name: &'static str,
        attrs: &[(&'static str, &str)],
    ) {
        self.instant(track, name, from_slice(attrs), true);
    }

    fn instant(
        &self,
        track: TrackId,
        name: &'static str,
        fill: impl FnOnce(&mut Attrs),
        volatile: bool,
    ) {
        let Some(inner) = &self.inner else {
            return;
        };
        let attrs = filled(fill);
        let mut tracks = inner.tracks.lock();
        let Some(t) = tracks.get_mut(track.0) else {
            return;
        };
        if !volatile {
            t.clock += 1;
        }
        t.records.push(Record {
            at: t.clock,
            kind: RecordKind::Instant {
                name,
                attrs,
                volatile,
            },
        });
    }

    /// Copy out every track, sorted by name so thread races over
    /// registration order cannot change export bytes.
    pub(crate) fn snapshot(&self) -> Vec<TrackSnapshot> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let tracks = inner.tracks.lock();
        let mut out: Vec<TrackSnapshot> = tracks
            .iter()
            .map(|t| TrackSnapshot {
                name: t.name.clone(),
                domain: t.domain,
                records: t.records.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// Run `fill` and hand back what it wrote.
fn filled(fill: impl FnOnce(&mut Attrs)) -> Vec<(&'static str, String)> {
    let mut attrs = Attrs(Vec::new());
    fill(&mut attrs);
    attrs.0
}

/// The slice forms' writer: every pair is at hand, so the vector is
/// built at its exact size.
fn from_slice<'a>(attrs: &'a [(&'static str, &'a str)]) -> impl FnOnce(&mut Attrs) + 'a {
    move |a| a.0 = attrs.iter().map(|(k, v)| (*k, (*v).to_string())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let t = tracer.track("x", ClockDomain::Work);
        let s = tracer.open(t, "phoenix.job", &[]);
        tracer.advance(t, 10);
        tracer.event(t, "sd.request", &[]);
        tracer.close(t, s);
        assert!(tracer.snapshot().is_empty());
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn lazy_forms_never_run_their_closure_when_disabled() {
        let tracer = Tracer::disabled();
        let t = tracer.track("x", ClockDomain::Work);
        let s = tracer.open_with(t, "phoenix.job", |_| panic!("open_with ran its closure"));
        tracer.leaf_with(t, "phoenix.map", 3, |_| panic!("leaf_with ran its closure"));
        tracer.event_with(t, "sd.request", |_| panic!("event_with ran its closure"));
        tracer.close(t, s);
    }

    #[test]
    fn slice_and_lazy_forms_export_the_same_bytes() {
        let by_slice = Tracer::enabled();
        let t = by_slice.track("work", ClockDomain::Work);
        let s = by_slice.open(t, "phoenix.job", &[("job", "wc"), ("span", "7")]);
        by_slice.leaf(t, "phoenix.map", 5, &[("map_tasks", "12")]);
        by_slice.event(t, "sd.request", &[("module", "wc"), ("attempt", "2")]);
        by_slice.event(t, "sd.dispatch", &[("lane", "03")]);
        by_slice.close(t, s);

        let lazily = Tracer::enabled();
        let t = lazily.track("work", ClockDomain::Work);
        let s = lazily.open_with(t, "phoenix.job", |a| {
            a.str("job", "wc");
            a.u64("span", 7);
        });
        lazily.leaf_with(t, "phoenix.map", 5, |a| a.u64("map_tasks", 12));
        lazily.event_with(t, "sd.request", |a| {
            a.str("module", "wc");
            a.u64("attempt", 2);
        });
        lazily.event_with(t, "sd.dispatch", |a| {
            a.display("lane", format_args!("{:02}", 3))
        });
        lazily.close(t, s);

        let bytes = crate::export::jsonl(&by_slice);
        assert!(bytes.contains("\"attempt\":\"2\""), "{bytes}");
        assert_eq!(bytes, crate::export::jsonl(&lazily));
        assert_eq!(
            crate::export::chrome(&by_slice),
            crate::export::chrome(&lazily)
        );
    }

    #[test]
    fn clock_advances_once_per_durable_record() {
        let tracer = Tracer::enabled();
        let t = tracer.track("work", ClockDomain::Work);
        let a = tracer.open(t, "phoenix.job", &[]); // at 1
        tracer.event(t, "sd.request", &[]); // at 2
        tracer.close(t, a); // at 3
        let snap = tracer.snapshot();
        let ats: Vec<u64> = snap[0].records.iter().map(|r| r.at).collect();
        assert_eq!(ats, vec![1, 2, 3]);
    }

    #[test]
    fn close_auto_closes_children_innermost_first() {
        let tracer = Tracer::enabled();
        let t = tracer.track("work", ClockDomain::Work);
        let outer = tracer.open(t, "phoenix.job", &[]);
        let _mid = tracer.open(t, "phoenix.map", &[]);
        let _inner = tracer.open(t, "phoenix.reduce", &[]);
        tracer.close(t, outer);
        let snap = tracer.snapshot();
        let closes: Vec<u64> = snap[0]
            .records
            .iter()
            .filter_map(|r| match &r.kind {
                RecordKind::Close { span, .. } => Some(*span),
                _ => None,
            })
            .collect();
        // Innermost (3) first, outer (1) last.
        assert_eq!(closes, vec![3, 2, 1]);
    }

    #[test]
    fn closing_twice_is_a_no_op() {
        let tracer = Tracer::enabled();
        let t = tracer.track("work", ClockDomain::Work);
        let s = tracer.open(t, "phoenix.job", &[]);
        tracer.close(t, s);
        tracer.close(t, s);
        let snap = tracer.snapshot();
        assert_eq!(snap[0].records.len(), 2);
    }

    #[test]
    fn volatile_events_do_not_advance_the_clock() {
        let tracer = Tracer::enabled();
        let t = tracer.track("decision", ClockDomain::Decision);
        tracer.event(t, "sd.request", &[]); // at 1
        tracer.volatile_event(t, "sd.heartbeat", &[("seq", "9")]); // at 1, volatile
        tracer.event(t, "sd.dispatch", &[]); // at 2
        let snap = tracer.snapshot();
        let ats: Vec<u64> = snap[0].records.iter().map(|r| r.at).collect();
        assert_eq!(ats, vec![1, 1, 2]);
    }

    #[test]
    fn track_registration_is_idempotent_and_snapshot_sorted() {
        let tracer = Tracer::enabled();
        let b = tracer.track("zeta", ClockDomain::Work);
        let a = tracer.track("alpha", ClockDomain::Decision);
        assert_eq!(tracer.track("zeta", ClockDomain::Work), b);
        assert_ne!(a, b);
        let names: Vec<String> = tracer.snapshot().into_iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["alpha".to_string(), "zeta".to_string()]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "one clock domain")]
    fn a_track_registered_in_a_second_domain_panics() {
        let tracer = Tracer::enabled();
        tracer.track("zeta", ClockDomain::Work);
        tracer.track("zeta", ClockDomain::Decision);
    }
}
