//! Trace exporters: JSON-lines and Chrome `trace_event`.
//!
//! Both are hand-rolled writers, not serde, so the output bytes are fully
//! under this module's control — field order, spacing, and escaping never
//! change between runs or toolchain versions, which is what lets CI assert
//! `diff`-equality of two same-seed traces.
//!
//! Ordering rules that make the bytes deterministic:
//!
//! * tracks are emitted sorted by name (registration order can race
//!   between threads);
//! * records within a track are emitted in append order (producers on one
//!   track are serialized by the McSD call structure);
//! * volatile records are excluded unless explicitly requested — their
//!   count is wall-cadenced and would differ between runs;
//! * counter rows are emitted in key-sorted order, whatever order the
//!   caller collected them in.

use crate::metrics::MetricSample;
use crate::names::TRACE_FORMAT_VERSION;
use crate::trace::{RecordKind, Tracer};

/// Options for [`jsonl_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonlOptions<'a> {
    /// Include volatile (wall-cadenced) records. The output is then *not*
    /// guaranteed byte-identical between runs; diagnostic use only.
    pub include_volatile: bool,
    /// Counter rows ([`crate::CounterFamily::samples`] of every family
    /// the run reports) to append as trailing `counter` lines.
    pub metrics: &'a [MetricSample],
}

/// Export the durable trace as JSON-lines (one object per line, versioned
/// header first). See DESIGN.md §12 for the line schema.
pub fn jsonl(tracer: &Tracer) -> String {
    jsonl_with(tracer, JsonlOptions::default())
}

/// [`jsonl`] with explicit options.
pub fn jsonl_with(tracer: &Tracer, opts: JsonlOptions<'_>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"v\":{TRACE_FORMAT_VERSION},\"type\":\"header\",\"format\":\"mcsd.trace\"}}\n"
    ));
    for track in tracer.snapshot() {
        out.push_str(&format!(
            "{{\"v\":{TRACE_FORMAT_VERSION},\"type\":\"track\",\"track\":\"{}\",\"clock\":\"{}\"}}\n",
            Escaped(&track.name),
            track.domain.as_str()
        ));
        for record in &track.records {
            match &record.kind {
                RecordKind::Open { span, name, attrs } => {
                    out.push_str(&format!(
                        "{{\"v\":{TRACE_FORMAT_VERSION},\"type\":\"span_open\",\"track\":\"{}\",\"at\":{},\"span\":{},\"name\":\"{}\"",
                        Escaped(&track.name),
                        record.at,
                        span,
                        Escaped(name)
                    ));
                    push_attrs(&mut out, attrs);
                    out.push_str("}\n");
                }
                RecordKind::Close { span, name } => {
                    out.push_str(&format!(
                        "{{\"v\":{TRACE_FORMAT_VERSION},\"type\":\"span_close\",\"track\":\"{}\",\"at\":{},\"span\":{},\"name\":\"{}\"}}\n",
                        Escaped(&track.name),
                        record.at,
                        span,
                        Escaped(name)
                    ));
                }
                RecordKind::Instant {
                    name,
                    attrs,
                    volatile,
                } => {
                    if *volatile && !opts.include_volatile {
                        continue;
                    }
                    out.push_str(&format!(
                        "{{\"v\":{TRACE_FORMAT_VERSION},\"type\":\"event\",\"track\":\"{}\",\"at\":{},\"name\":\"{}\"",
                        Escaped(&track.name),
                        record.at,
                        Escaped(name)
                    ));
                    if *volatile {
                        out.push_str(",\"volatile\":true");
                    }
                    push_attrs(&mut out, attrs);
                    out.push_str("}\n");
                }
            }
        }
    }
    let mut samples = opts.metrics.to_vec();
    samples.sort_by_key(|sample| sample.key);
    for sample in samples {
        out.push_str(&format!(
            "{{\"v\":{TRACE_FORMAT_VERSION},\"type\":\"counter\",\"key\":\"{}\",\"owner\":\"{}\",\"value\":{}}}\n",
            Escaped(sample.key),
            Escaped(sample.owner),
            sample.value
        ));
    }
    out
}

/// Export the durable trace in Chrome `trace_event` format — a JSON array
/// loadable in `chrome://tracing` or Perfetto. Each track becomes a named
/// thread (`tid` = sorted-track index) under `pid` 1; span open/close map
/// to `B`/`E`, events to instant `i` records; `ts` is the track's logical
/// tick (rendered by the viewer as microseconds).
pub fn chrome(tracer: &Tracer) -> String {
    let mut entries: Vec<String> = Vec::new();
    for (tid, track) in tracer.snapshot().iter().enumerate() {
        entries.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{} [{}]\"}}}}",
            Escaped(&track.name),
            track.domain.as_str()
        ));
        for record in &track.records {
            match &record.kind {
                RecordKind::Open { name, attrs, .. } => {
                    let mut entry = format!(
                        "{{\"name\":\"{}\",\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{}",
                        Escaped(name),
                        record.at
                    );
                    push_args(&mut entry, attrs);
                    entry.push('}');
                    entries.push(entry);
                }
                RecordKind::Close { name, .. } => {
                    entries.push(format!(
                        "{{\"name\":\"{}\",\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}",
                        Escaped(name),
                        record.at
                    ));
                }
                RecordKind::Instant {
                    name,
                    attrs,
                    volatile,
                } => {
                    if *volatile {
                        continue;
                    }
                    let mut entry = format!(
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"s\":\"t\"",
                        Escaped(name),
                        record.at
                    );
                    push_args(&mut entry, attrs);
                    entry.push('}');
                    entries.push(entry);
                }
            }
        }
    }
    let mut out = String::from("[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]\n");
    out
}

/// Append `,"attrs":{...}` (omitted when empty).
fn push_attrs(out: &mut String, attrs: &[(&'static str, String)]) {
    if attrs.is_empty() {
        return;
    }
    out.push_str(",\"attrs\":{");
    push_pairs(out, attrs);
    out.push('}');
}

/// Append `,"args":{...}` (omitted when empty) — the Chrome spelling.
fn push_args(out: &mut String, attrs: &[(&'static str, String)]) {
    if attrs.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    push_pairs(out, attrs);
    out.push('}');
}

fn push_pairs(out: &mut String, attrs: &[(&'static str, String)]) {
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":\"{}\"", Escaped(k), Escaped(v)));
    }
}

/// JSON string-escaping display adapter: `format!("\"{}\"", Escaped(s))`
/// is a JSON string literal for any `s`. The workspace's one JSON escaper;
/// every hand-rolled JSON writer goes through it.
pub struct Escaped<'a>(pub &'a str);

impl std::fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => std::fmt::Write::write_char(f, c)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockDomain;

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(
            Escaped("a\"b\\c\nd\te\u{1}").to_string(),
            "a\\\"b\\\\c\\nd\\te\\u0001"
        );
    }

    #[test]
    fn disabled_tracer_exports_header_only() {
        let tracer = Tracer::disabled();
        assert_eq!(
            jsonl(&tracer),
            "{\"v\":1,\"type\":\"header\",\"format\":\"mcsd.trace\"}\n"
        );
        assert_eq!(chrome(&tracer), "[\n\n]\n");
    }

    #[test]
    fn volatile_records_are_excluded_by_default() {
        let tracer = Tracer::enabled();
        let t = tracer.track("d", ClockDomain::Decision);
        tracer.event(t, "sd.request", &[]);
        tracer.volatile_event(t, "sd.heartbeat", &[]);
        let durable = jsonl(&tracer);
        assert!(!durable.contains("sd.heartbeat"));
        let full = jsonl_with(
            &tracer,
            JsonlOptions {
                include_volatile: true,
                metrics: &[],
            },
        );
        assert!(full.contains("\"name\":\"sd.heartbeat\",\"volatile\":true"));
        assert!(!chrome(&tracer).contains("sd.heartbeat"));
    }

    #[test]
    fn counters_are_appended_sorted() {
        let tracer = Tracer::enabled();
        let sample = |key, value| MetricSample {
            key,
            owner: "t",
            value,
        };
        let out = jsonl_with(
            &tracer,
            JsonlOptions {
                include_volatile: false,
                metrics: &[sample("z.metric", 2), sample("a.metric", 1)],
            },
        );
        let a = out.find("a.metric").unwrap();
        let z = out.find("z.metric").unwrap();
        assert!(a < z);
    }
}
