//! Every `DESIGN.md §N` citation names a section DESIGN.md has, the
//! four prose docs keep their line budget, and so does the Rust.
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
/// The Rust under `crates/` and `shims/` that is not test code.
const NON_TEST_LINE_BUDGET: usize = 22_200;
/// All of that Rust, test code included.
const TOTAL_LINE_BUDGET: usize = 39_000;

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

/// `(non-test, test)` lines of one Rust file at `rel`: a file under a
/// `tests/`, `benches/` or `examples/` directory is all test, and any
/// other is test from its first `#[cfg(test)]` line to its end.
fn rust_split(rel: &Path, text: &str) -> (usize, usize) {
    let lines: Vec<&str> = text.lines().collect();
    let test_dir = rel.parent().is_some_and(|dir| {
        dir.iter()
            .any(|part| ["tests", "benches", "examples"].iter().any(|t| part == *t))
    });
    let first_test = if test_dir {
        0
    } else {
        lines
            .iter()
            .position(|line| line.trim_start().starts_with("#[cfg(test)]"))
            .unwrap_or(lines.len())
    };
    (first_test, lines.len() - first_test)
}

#[test]
fn rust_split_counts_from_the_first_test_line() {
    let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n}\n";
    assert_eq!(rust_split(Path::new("crates/x/src/lib.rs"), src), (1, 3));
    assert_eq!(
        rust_split(Path::new("crates/x/src/main.rs"), "fn main() {}\n"),
        (1, 0)
    );
    assert_eq!(rust_split(Path::new("crates/x/tests/t.rs"), src), (0, 4));
    assert_eq!(rust_split(Path::new("shims/y/benches/b.rs"), src), (0, 4));
}

/// The line budget ROADMAP sets for the Rust under `crates/` + `shims/`.
/// Run with `--nocapture` to read a change's non-test and test lines.
#[test]
fn rust_keeps_its_line_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "shims"] {
        files_under(&root.join(dir), &mut files);
    }
    let (mut non_test, mut test) = (0, 0);
    for file in files
        .iter()
        .filter(|f| f.extension().is_some_and(|e| e == "rs"))
    {
        let text = std::fs::read_to_string(file).unwrap();
        let (n, t) = rust_split(file.strip_prefix(root).unwrap_or(file), &text);
        non_test += n;
        test += t;
    }
    let total = non_test + test;
    println!("rust lines: non-test {non_test}, test {test}, total {total}");
    // A floor far above zero proves the walk reached the tree.
    assert!(non_test >= 10_000, "found only {non_test} non-test lines");
    assert!(
        non_test <= NON_TEST_LINE_BUDGET && total <= TOTAL_LINE_BUDGET,
        "the Rust is {non_test} non-test lines (budget {NON_TEST_LINE_BUDGET}) and \
         {total} in all with {test} test lines (budget {TOTAL_LINE_BUDGET})"
    );
}
