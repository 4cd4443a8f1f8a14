// Fixture: hash-map iteration feeding output with no ordering step.
use std::collections::HashMap;

pub fn report(counts: HashMap<String, u64>) -> String {
    let mut out = String::new();
    for (k, v) in counts.iter() {
        out.push_str(&format!("{k}={v}\n"));
    }
    out
}

// The trace export's entry point is a sink: counter rows collected in hash
// order must pass a sort of their own before they reach it.
pub fn export(tracer: &Tracer, totals: HashMap<&'static str, u64>) -> String {
    let rows: Vec<MetricSample> = totals.iter().map(row).collect();
    jsonl_with(tracer, options(&rows))
}
