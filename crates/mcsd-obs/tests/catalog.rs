//! DESIGN.md §12 sync check: every span and event name in the code
//! catalog must appear (backtick-quoted) in the observability section of
//! DESIGN.md, so the documented trace format can never drift from what the
//! stack emits. The same idea as `mcsd-tidy`'s waiver-budget sync. (Counter
//! keys are held to §12 in both directions by the workspace's
//! `tests/counter_catalog.rs`, which can see every family's table.)

use mcsd_obs::names::{ALL_EVENTS, ALL_SPANS, TRACE_FORMAT_VERSION};

fn design_section_12() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let text = std::fs::read_to_string(path).expect("DESIGN.md must exist at the repo root");
    let start = text
        .find("## 12.")
        .expect("DESIGN.md must have a `## 12.` observability section");
    text[start..].to_string()
}

#[test]
fn every_cataloged_name_is_documented() {
    let section = design_section_12();
    let mut missing = Vec::new();
    for name in ALL_SPANS.iter().chain(&ALL_EVENTS) {
        if !section.contains(&format!("`{name}`")) {
            missing.push(*name);
        }
    }
    assert!(
        missing.is_empty(),
        "names emitted by the stack but absent from DESIGN.md §12: {missing:?}"
    );
}

#[test]
fn documented_format_version_matches_code() {
    let section = design_section_12();
    assert!(
        section.contains(&format!("format version {TRACE_FORMAT_VERSION}")),
        "DESIGN.md §12 must state `format version {TRACE_FORMAT_VERSION}`"
    );
}
