//! In-memory span recorder for the traced segment. Spans are taken from
//! the benchmark's side of each call into a layer (name, start, end,
//! parent, op id) and counters at the same boundaries; everything is kept
//! in memory and written as JSON lines when the segment ends. A disabled
//! recorder records nothing, so the untraced path pays one branch.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
    counters: Vec<(&'static str, u64, f64)>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` belonging to op `op`; its parent
    /// is whichever span is open around it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Record a count observed at a layer boundary during op `op`.
    pub fn count(&mut self, name: &'static str, op: u64, value: f64) {
        if self.enabled {
            self.counters.push((name, op, value));
        }
    }

    /// Write one JSON object per span, then one per counter.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("span", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("op", Json::Num(s.op as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        for (name, op, value) in &self.counters {
            let line = Json::obj([
                ("counter", Json::str(*name)),
                ("op", Json::Num(*op as f64)),
                ("value", Json::Num(*value)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_contain_their_children() {
        let mut rec = Recorder::new(true);
        let got = rec.span("op", 7, |rec| {
            rec.span("layer.a", 7, |_| ());
            rec.span("layer.b", 7, |rec| rec.count("layer.b.bytes", 7, 42.0));
            5
        });
        assert_eq!(got, 5);
        assert_eq!(rec.spans.len(), 3);
        let parents: Vec<_> = rec.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        let (op, a, b) = (&rec.spans[0], &rec.spans[1], &rec.spans[2]);
        assert!(op.start_ns <= a.start_ns && a.end_ns <= b.start_ns && b.end_ns <= op.end_ns);
        assert_eq!(rec.counters, vec![("layer.b.bytes", 7, 42.0)]);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_runs_the_body() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("op", 1, |rec| rec.span("inner", 1, |_| 3)), 3);
        rec.count("n", 1, 1.0);
        assert!(rec.spans.is_empty());
        assert!(rec.counters.is_empty());
    }
}
