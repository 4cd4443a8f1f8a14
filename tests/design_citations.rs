//! Every `DESIGN.md §N` citation names a section DESIGN.md has, and the
//! four prose docs keep their line budget.
//!
//! Code, tests, CI and the other documents point at DESIGN.md by section
//! number. This test scans them — `crates/`, `src/`, `tests/`,
//! `examples/`, `.github/`, README, ARCHITECTURE, EXPERIMENTS and
//! ROADMAP — for `DESIGN §N` and `DESIGN.md §N`, and requires a `## N.`
//! heading in DESIGN.md for each, so a section that is renumbered or
//! removed fails here with every citation still pointing at it.
//! `benchmark/` is not scanned: it changes only with the benchmark.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const SCANNED_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", ".github"];
const SCANNED_DOCS: [&str; 4] = [
    "README.md",
    "ARCHITECTURE.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
];
/// The docs that state what the repo is, its rules and its evidence.
const BUDGETED_DOCS: [&str; 4] = [
    "DESIGN.md",
    "EXPERIMENTS.md",
    "README.md",
    "ARCHITECTURE.md",
];
/// Their lines together: a rule is stated once and a table kept only while
/// it is the latest answer to its question.
const DOC_LINE_BUDGET: usize = 2_000;

/// Every file under `dir`, build output excluded.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if !path.is_dir() {
            out.push(path);
        } else if path.file_name().is_some_and(|name| name != "target") {
            files_under(&path, out);
        }
    }
}

/// The section numbers DESIGN.md's `## N.` headings give.
fn sections(design: &str) -> BTreeSet<u32> {
    design
        .lines()
        .filter_map(|line| line.strip_prefix("## ")?.split_once('.')?.0.parse().ok())
        .collect()
}

/// Each `DESIGN §N` or `DESIGN.md §N` in `text`, as (line, N).
fn citations(text: &str) -> Vec<(usize, u32)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices("DESIGN") {
            let rest = &line[at + "DESIGN".len()..];
            let rest = rest.strip_prefix(".md").unwrap_or(rest);
            let Some(rest) = rest.strip_prefix(" §") else {
                continue;
            };
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if let Ok(section) = digits.parse() {
                out.push((i + 1, section));
            }
        }
    }
    out
}

#[test]
fn citation_parsing() {
    let text = "see DESIGN.md §12 and DESIGN §9\nDESIGN.md §N, DESIGN.md, §3\n(DESIGN §18)";
    assert_eq!(citations(text), [(1, 12), (1, 9), (3, 18)]);
    let design = "# T\n## 1. One\n### 1.2 Sub\n## 14. Static analysis\n##2. No\n";
    assert_eq!(sections(design), BTreeSet::from([1, 14]));
}

#[test]
fn every_design_citation_names_a_section() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let known = sections(&std::fs::read_to_string(root.join("DESIGN.md")).unwrap());
    let mut files: Vec<PathBuf> = SCANNED_DOCS.iter().map(|doc| root.join(doc)).collect();
    for dir in SCANNED_DIRS {
        files_under(&root.join(dir), &mut files);
    }
    files.sort();
    let mut cited = 0;
    let mut dangling = Vec::new();
    for file in &files {
        let text = String::from_utf8_lossy(&std::fs::read(file).unwrap()).into_owned();
        for (line, section) in citations(&text) {
            cited += 1;
            if !known.contains(&section) {
                let path = file.strip_prefix(root).unwrap_or(file).display();
                dangling.push(format!("{path}:{line}: §{section}"));
            }
        }
    }
    // 180 today: a floor far above zero proves the walk reached the tree.
    assert!(cited >= 100, "found only {cited} citations");
    assert!(
        dangling.is_empty(),
        "DESIGN.md has no `## N.` heading for:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn prose_docs_keep_their_line_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut total = 0;
    let mut each = Vec::new();
    for doc in BUDGETED_DOCS {
        let lines = std::fs::read_to_string(root.join(doc))
            .unwrap()
            .lines()
            .count();
        total += lines;
        each.push(format!("{doc} {lines}"));
    }
    assert!(
        total <= DOC_LINE_BUDGET,
        "the prose docs are {total} lines, over the budget of {DOC_LINE_BUDGET}: {}",
        each.join(", ")
    );
}
