//! Every `DESIGN.md §N` citation names a section DESIGN.md has, every
//! test and function the docs, CI and the verify skill cite exists, the
//! four prose docs keep their line budget, so does the Rust, and the
//! member manifests and lib roots follow DESIGN §14's workspace rules.
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
const NON_TEST_LINE_BUDGET: usize = 20_050;
/// All of that Rust, test code included.
const TOTAL_LINE_BUDGET: usize = 36_150;
/// The header every lib root carries (DESIGN §9): missing docs are build
/// breaks, and the lint policy is armed for library code outside
/// `cfg(test)`. One line each, as rustfmt leaves them.
const LIB_HEADER: [&str; 5] = [
    "#![deny(missing_docs)]",
    "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]",
    "#![cfg_attr(not(test), deny(clippy::panic, clippy::print_stdout))]",
    "#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]",
    "#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]",
];
/// How many lines from the top of a lib root the header may sit.
const LIB_HEADER_WINDOW: usize = 30;

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

/// What breaks DESIGN §14 in one member manifest: each dependency line not
/// inheriting `workspace = true`, and a missing `[lints] workspace = true`.
/// Line-based: a manifest keeps one dependency per line, no `#` in strings.
fn manifest_findings(text: &str) -> Vec<String> {
    let (mut out, mut section, mut lints_inherited) = (Vec::new(), String::new(), false);
    for line in text.lines() {
        let code = line.split_once('#').map_or(line, |(code, _)| code);
        let line: String = code.split_whitespace().collect();
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.to_string();
            continue;
        }
        let inherits = line.contains("workspace=true");
        lints_inherited |= section == "lints" && inherits;
        if section.ends_with("dependencies") && line.contains('=') && !inherits {
            out.push(format!("`{line}` does not inherit `workspace = true`"));
        }
    }
    if !lints_inherited {
        out.push("no `[lints]` with `workspace = true`".to_string());
    }
    out
}

/// Each [`LIB_HEADER`] line a lib root lacks in its first
/// [`LIB_HEADER_WINDOW`] lines.
fn lib_root_findings(text: &str) -> Vec<String> {
    let head = text.lines().take(LIB_HEADER_WINDOW);
    LIB_HEADER
        .iter()
        .filter(|want| !head.clone().any(|line| line.trim() == **want))
        .map(|want| format!("no `{want}` in its first {LIB_HEADER_WINDOW} lines"))
        .collect()
}

/// DESIGN §14 over `crates/*` and the facade's lib root; `shims/` are
/// out of scope. The checkers first meet one violation of each kind.
#[test]
fn workspace_manifests_and_lib_roots_follow_the_rules() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nrand = { workspace = true }\n\
                    serde.workspace = true # shim\n\n[lints]\nworkspace = true\n";
    assert!(manifest_findings(manifest).is_empty());
    let pinned = manifest_findings(&manifest.replace("{ workspace = true }", "\"0.8\""));
    assert_eq!(
        pinned,
        ["`rand=\"0.8\"` does not inherit `workspace = true`"]
    );
    let no_lints = manifest_findings(&manifest[..manifest.find("[lints]").unwrap()]);
    assert_eq!(no_lints, ["no `[lints]` with `workspace = true`"]);
    let lib = format!("//! A crate.\n\n{}\n", LIB_HEADER.join("\n"));
    assert!(lib_root_findings(&lib).is_empty());
    let warned = lib_root_findings(&lib.replace("deny(missing_docs)", "warn(missing_docs)"));
    assert_eq!(
        warned,
        ["no `#![deny(missing_docs)]` in its first 30 lines"]
    );
    let missing = lib_root_findings(&lib.replace(LIB_HEADER[3], ""));
    assert_eq!(
        missing,
        [format!("no `{}` in its first 30 lines", LIB_HEADER[3])]
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("src/lib.rs")];
    files_under(&root.join("crates"), &mut files);
    files.sort();
    let (mut checked, mut broken) = (0, Vec::new());
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        let parts: Vec<&str> = rel.iter().filter_map(|part| part.to_str()).collect();
        let check = match parts[..] {
            ["crates", _, "Cargo.toml"] => manifest_findings,
            ["crates", _, "src", "lib.rs"] | ["src", "lib.rs"] => lib_root_findings,
            _ => continue,
        };
        checked += 1;
        let text = std::fs::read_to_string(file).unwrap();
        let at = rel.display();
        broken.extend(check(&text).into_iter().map(|f| format!("{at}: {f}")));
    }
    // A floor proves the walk reached the tree: seven crates and the facade.
    assert!(checked >= 15, "checked only {checked} files");
    assert!(broken.is_empty(), "DESIGN §14:\n{}", broken.join("\n"));
}

/// The files that tell a reader which test to run or which function to
/// read: CI and the four prose docs, and [`verify_notes`].
const NAMING_FILES: [&str; 5] = [
    ".github/workflows/ci.yml",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "README.md",
    "ARCHITECTURE.md",
];

/// A name one of [`NAMING_FILES`] cites.
#[derive(Debug, PartialEq)]
enum Cited {
    /// `--test <target>`.
    Target(String),
    /// `<module>::tests::<prefix>`: a test fn of `module` starts with `prefix`.
    ModuleTest(String, String),
    /// `` `<file>.rs::<fn>` ``: `file` (a path or a file name) defines `fn`.
    FileFn(String, String),
}

/// The verify skill's build-and-run notes, `skills/verify/SKILL.md` in a
/// directory at the root.
fn verify_notes(root: &Path) -> PathBuf {
    let dirs = std::fs::read_dir(root).unwrap().flatten();
    let mut notes = dirs.map(|dir| dir.path().join("skills/verify/SKILL.md"));
    notes
        .find(|path| path.is_file())
        .expect("the verify skill's notes")
}

fn ident_len(s: &str) -> usize {
    s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len())
}

/// Every [`Cited`] name in `text`, as (line, name).
fn cited_names(text: &str) -> Vec<(usize, Cited)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices("--test") {
            let rest = &line[at + "--test".len()..];
            let name = rest.trim_start();
            if name.len() == rest.len() {
                continue; // `--test-threads` and the like
            }
            let end = name
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(name.len());
            if end > 0 && !name.starts_with('-') {
                out.push((i + 1, Cited::Target(name[..end].to_string())));
            }
        }
        for (at, _) in line.match_indices("::tests::") {
            let module_start = line[..at]
                .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .map_or(0, |p| p + 1);
            let rest = &line[at + "::tests::".len()..];
            let prefix = &rest[..ident_len(rest)];
            if module_start < at && !prefix.is_empty() {
                let module = line[module_start..at].to_string();
                out.push((i + 1, Cited::ModuleTest(module, prefix.to_string())));
            }
        }
        for (at, _) in line.match_indices(".rs::") {
            let Some(tick) = line[..at].rfind('`') else {
                continue;
            };
            let file = &line[tick + 1..at];
            let rest = &line[at + ".rs::".len()..];
            let func = &rest[..ident_len(rest)];
            let path_like = |c: char| c.is_ascii_alphanumeric() || "_-/.".contains(c);
            if !file.is_empty() && file.chars().all(path_like) && !func.is_empty() {
                out.push((i + 1, Cited::FileFn(format!("{file}.rs"), func.to_string())));
            }
        }
    }
    out
}

/// Whether `text` defines a `fn` whose name is `name`, or starts with it
/// when `prefix` is set.
fn defines_fn(text: &str, name: &str, prefix: bool) -> bool {
    text.match_indices("fn ").any(|(at, _)| {
        let rest = &text[at + 3..];
        rest.starts_with(name) && (prefix || ident_len(rest) == name.len())
    })
}

/// What in `cited` names nothing: `targets` are the test target names and
/// `rust` every Rust file as (path from the root, text).
fn dangling_names(
    cited: &[(usize, Cited)],
    targets: &BTreeSet<String>,
    rust: &[(String, String)],
) -> Vec<String> {
    let stem_is = |path: &str, module: &str| {
        path.ends_with(&format!("/{module}.rs")) || path.ends_with(&format!("/{module}/mod.rs"))
    };
    let file_is = |path: &str, file: &str| {
        path == file || (!file.contains('/') && path.ends_with(&format!("/{file}")))
    };
    cited
        .iter()
        .filter(|(_, name)| match name {
            Cited::Target(t) => !targets.contains(t),
            Cited::ModuleTest(m, p) => !rust
                .iter()
                .any(|(path, text)| stem_is(path, m) && defines_fn(text, p, true)),
            Cited::FileFn(f, g) => !rust
                .iter()
                .any(|(path, text)| file_is(path, f) && defines_fn(text, g, false)),
        })
        .map(|(line, name)| format!("{line}: {name:?}"))
        .collect()
}

/// Each `--test`, `module::tests::` and `` `file.rs::fn` `` that CI, the
/// verify skill or a prose doc cites resolves: a deleted or renamed test
/// fails here with every citation of it still in place. The checker first
/// meets a dangling name of each kind.
#[test]
fn cited_tests_and_functions_exist() {
    let targets = BTreeSet::from(["stress".to_string()]);
    let rust = [(
        "crates/x/src/daemon.rs".to_string(),
        "fn process_log() {}\nmod tests {\n    fn restart_replays() {}\n}\n".to_string(),
    )];
    let good = "cargo test --test stress -- --test-threads 1\n\
                `daemon::tests::restart` and `daemon.rs::process_log`";
    let cited = cited_names(good);
    assert_eq!(cited.len(), 3, "{cited:?}");
    assert!(dangling_names(&cited, &targets, &rust).is_empty());
    let bad = "--test stres\ndaemon::tests::restart_replays_all `daemon.rs::process`";
    assert_eq!(
        dangling_names(&cited_names(bad), &targets, &rust),
        [
            "1: Target(\"stres\")",
            "2: ModuleTest(\"daemon\", \"restart_replays_all\")",
            "2: FileFn(\"daemon.rs\", \"process\")",
        ]
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark", "shims"] {
        files_under(&root.join(dir), &mut files);
    }
    let (mut targets, mut rust) = (BTreeSet::new(), Vec::new());
    for file in files
        .iter()
        .filter(|f| f.extension().is_some_and(|e| e == "rs"))
    {
        if file
            .parent()
            .and_then(Path::file_name)
            .is_some_and(|d| d == "tests")
        {
            let stem = file
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default();
            targets.insert(stem.to_string());
        }
        let rel = file.strip_prefix(root).unwrap_or(file);
        let text = std::fs::read_to_string(file).unwrap();
        rust.push((rel.to_string_lossy().replace('\\', "/"), text));
    }
    let (mut count, mut dangling) = (0, Vec::new());
    let mut docs: Vec<PathBuf> = NAMING_FILES.iter().map(|doc| root.join(doc)).collect();
    docs.push(verify_notes(root));
    for doc in &docs {
        let cited = cited_names(&std::fs::read_to_string(doc).unwrap());
        count += cited.len();
        let at = doc.strip_prefix(root).unwrap_or(doc).display();
        let missing = dangling_names(&cited, &targets, &rust);
        dangling.extend(missing.into_iter().map(|m| format!("{at}:{m}")));
    }
    // A floor far above zero proves the scan reached the files.
    assert!(count >= 40, "found only {count} cited names");
    assert!(
        dangling.is_empty(),
        "cited names that name nothing:\n{}",
        dangling.join("\n")
    );
}
