//! MCSD010: the determinism auditor.
//!
//! Two hazards can silently break the byte-identical-trace guarantee:
//!
//! * **Hash-order leaks** — iterating a `HashMap`/`HashSet` and letting
//!   the iteration order reach an exporter, report, or trace emission.
//!   A sort within a fixed window of lines both under-reports (a sort
//!   four lines later is invisible) and over-reports (iterations that
//!   never reach output). This pass is flow-aware: starting from the iteration it walks the rest of the
//!   enclosing function and only fires if an emission sink appears
//!   before any neutralizing sort/ordered-collection/reduction.
//! * **Clock-domain mismatches** — one trace track stamped with two
//!   `ClockDomain`s. Track-name constants are resolved workspace-wide, so
//!   the rule reads `tracer.track(SD_TRACE_TRACK, ClockDomain::Decision)`
//!   exactly as the runtime does, and every call for one name must agree
//!   with the first in walk (sorted-path) order. The code is the only
//!   catalog: a new track is one call.

use std::collections::BTreeMap;

use crate::diag::{Code, Diagnostic};
use crate::lex::TokenKind;
use crate::scan::is_ident_char;
use crate::workspace::{string_consts, SourceFile, Workspace};

/// Tokens that prove hash-order cannot reach output: an explicit sort,
/// an ordered collection, or an order-insensitive reduction.
const NEUTRAL: [&str; 9] = [
    "sort",
    "BTreeMap",
    "BTreeSet",
    ".len()",
    ".count()",
    ".sum",
    ".contains",
    ".get(",
    ".min(",
];

/// Emission sinks: places where element order becomes observable output
/// (trace events, metrics, report text, serialized artifacts).
const SINKS: [&str; 15] = [
    ".event(",
    ".event_with(",
    ".leaf(",
    ".leaf_with(",
    ".open_with(",
    ".volatile_event(",
    ".emit(",
    ".emit_ref(",
    "jsonl_with(",
    ".push_str(",
    "writeln!(",
    "write!(",
    ".to_json(",
    ".render(",
    ".serialize(",
];

/// Run the full MCSD010 pass: hash-to-sink flow per file, plus one clock
/// domain per track across the workspace.
pub fn check_determinism(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        check_hash_to_sink(file, &mut out);
    }
    check_track_domains(ws, &mut out);
    out
}

/// Part A: `HashMap`/`HashSet` iteration reaching a sink unsorted.
fn check_hash_to_sink(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let lines = &file.scanned.lines;
    let mut idents: Vec<String> = Vec::new();
    for line in lines {
        for container in ["HashMap", "HashSet"] {
            let mut search = 0;
            while let Some(pos) = line.code[search..].find(container) {
                let abs = search + pos;
                if let Some(ident) = binding_ident(&line.code, abs) {
                    if !idents.contains(&ident) {
                        idents.push(ident);
                    }
                }
                search = abs + container.len();
            }
        }
    }
    if idents.is_empty() {
        return;
    }
    let fn_spans = function_spans(file);
    let mut flagged: Vec<usize> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || flagged.contains(&idx) {
            continue;
        }
        for ident in &idents {
            if !iterates_over(&line.code, ident) {
                continue;
            }
            let line_no = idx + 1;
            let region_end = fn_spans
                .iter()
                .filter(|(start, end)| *start <= line_no && line_no <= *end)
                .map(|(_, end)| *end)
                .min()
                .unwrap_or(lines.len());
            // Walk forward: the first neutralizer wins; a sink before
            // any neutralizer is a leak.
            let mut verdict_sink = None;
            for (w, scanned) in lines
                .iter()
                .enumerate()
                .take(region_end.min(lines.len()))
                .skip(idx)
            {
                let code = &scanned.code;
                if NEUTRAL.iter().any(|tok| code.contains(tok)) {
                    break;
                }
                if let Some(sink) = SINKS.iter().find(|s| contains_pattern(code, s)) {
                    verdict_sink = Some((w + 1, *sink));
                    break;
                }
            }
            if let Some((sink_line, sink)) = verdict_sink {
                flagged.push(idx);
                out.push(Diagnostic {
                    code: Code::Mcsd010,
                    path: file.path.clone(),
                    line: line_no,
                    col: ident_col(&line.code, ident).unwrap_or(0),
                    message: format!(
                        "hash-ordered iteration over `{ident}` reaches `{sink}` on line {sink_line} with no intervening sort; iteration order leaks into output"
                    ),
                });
                break;
            }
        }
    }
}

/// Part B: every `.track(name, ClockDomain::X)` call for one resolved
/// name must stamp the domain of the first such call.
fn check_track_domains(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let consts = string_consts(ws);
    // Track name → (domain, path, line) of its first call site.
    let mut first: BTreeMap<String, (String, String, usize)> = BTreeMap::new();
    for file in &ws.files {
        let idx = file.code_token_indices();
        let tok = |i: usize| -> &crate::lex::Token { &file.tokens[idx[i]] };
        for w in 0..idx.len() {
            let t = tok(w);
            if !(t.kind == TokenKind::Ident && t.text == "track") {
                continue;
            }
            let prev_is_dot =
                w >= 1 && tok(w - 1).kind == TokenKind::Punct && tok(w - 1).text == ".";
            let next_is_paren = idx
                .get(w + 1)
                .map(|&i| &file.tokens[i])
                .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(");
            if !prev_is_dot || !next_is_paren || file.line_in_test(t.line) {
                continue;
            }
            let Some(arg) = idx.get(w + 2).map(|&i| &file.tokens[i]) else {
                continue;
            };
            let name = match arg.kind {
                TokenKind::Str => crate::workspace::str_value(arg),
                TokenKind::Ident => {
                    // Follow a path like `names::TRACK` to its last
                    // segment, then resolve through the const table.
                    let mut j = w + 2;
                    let mut last = arg.text.clone();
                    while idx
                        .get(j + 1)
                        .map(|&i| &file.tokens[i])
                        .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "::")
                    {
                        if let Some(seg) = idx.get(j + 2).map(|&i| &file.tokens[i]) {
                            if seg.kind == TokenKind::Ident {
                                last = seg.text.clone();
                                j += 2;
                                continue;
                            }
                        }
                        break;
                    }
                    consts.get(&last).cloned()
                }
                _ => None,
            };
            let Some(name) = name else { continue };
            // Find ClockDomain::X among the remaining call arguments.
            let mut domain = None;
            let mut paren = 0i64;
            let mut j = w + 1;
            while j < idx.len() {
                let c = tok(j);
                if c.kind == TokenKind::Punct {
                    match c.text.as_str() {
                        "(" => paren += 1,
                        ")" => {
                            paren -= 1;
                            if paren == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                } else if c.kind == TokenKind::Ident && c.text == "ClockDomain" {
                    let d = idx.get(j + 2).map(|&i| &file.tokens[i]);
                    if let Some(d) = d {
                        if d.kind == TokenKind::Ident {
                            domain = Some(d.text.clone());
                        }
                    }
                }
                j += 1;
            }
            let Some(domain) = domain else { continue };
            match first.get(&name) {
                None => {
                    first.insert(name, (domain, file.path.clone(), t.line));
                }
                Some((declared, path, line)) if *declared != domain => out.push(Diagnostic {
                    code: Code::Mcsd010,
                    path: file.path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "track `{name}` is stamped `ClockDomain::{domain}` here but `ClockDomain::{declared}` at {path}:{line}; a track has one clock domain"
                    ),
                }),
                Some(_) => {}
            }
        }
    }
}

/// (start_line, end_line) of every `fn` body in the file, from tokens.
fn function_spans(file: &SourceFile) -> Vec<(usize, usize)> {
    let idx = file.code_token_indices();
    let tok = |i: usize| -> &crate::lex::Token { &file.tokens[idx[i]] };
    let mut spans = Vec::new();
    for w in 0..idx.len() {
        let t = tok(w);
        if !(t.kind == TokenKind::Ident && t.text == "fn") {
            continue;
        }
        let mut j = w + 1;
        let mut body_start = None;
        while j < idx.len() {
            let c = tok(j);
            if c.kind == TokenKind::Punct {
                if c.text == "{" {
                    body_start = Some(j);
                    break;
                }
                if c.text == ";" {
                    break;
                }
            }
            j += 1;
        }
        let Some(open) = body_start else { continue };
        let mut depth = 0i64;
        let mut k = open;
        while k < idx.len() {
            let c = tok(k);
            if c.kind == TokenKind::Punct {
                match c.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        let end_line = if k < idx.len() {
            tok(k).line
        } else {
            file.scanned.lines.len()
        };
        spans.push((t.line, end_line));
    }
    spans
}

/// Extract the identifier being bound or typed as a hash container on
/// this masked line, given the char offset of the container token.
fn binding_ident(line: &str, container_pos: usize) -> Option<String> {
    let prefix = &line[..container_pos];
    let trimmed = prefix.trim_start();
    if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
        return None;
    }
    if let Some(let_pos) = prefix.rfind("let ") {
        let after = prefix[let_pos + 4..].trim_start();
        let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
        let ident: String = after.chars().take_while(|c| is_ident_char(*c)).collect();
        if !ident.is_empty() {
            return Some(ident);
        }
    }
    // Field or parameter position: `name: HashMap<..>` possibly wrapped,
    // e.g. `logs: Mutex<HashMap<..>>`. Find the last single `:` before the
    // container and require only type-ish characters in between.
    let bytes = prefix.as_bytes();
    let mut colon = None;
    let mut j = bytes.len();
    while j > 0 {
        j -= 1;
        if bytes[j] == b':' {
            if j > 0 && bytes[j - 1] == b':' {
                j -= 1; // skip `::`
                continue;
            }
            if bytes.get(j + 1) == Some(&b':') {
                continue;
            }
            colon = Some(j);
            break;
        }
    }
    let colon = colon?;
    let between = &prefix[colon + 1..];
    let type_ish = between.chars().all(|c| {
        is_ident_char(c) || matches!(c, ' ' | '<' | '>' | '&' | ':' | '\'' | ',' | '(' | ')')
    });
    if !type_ish {
        return None;
    }
    let ident_rev: String = prefix[..colon]
        .chars()
        .rev()
        .take_while(|c| is_ident_char(*c))
        .collect();
    let ident: String = ident_rev.chars().rev().collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

/// Does this masked line iterate over `ident`?
fn iterates_over(code: &str, ident: &str) -> bool {
    for method in [".iter()", ".into_iter()", ".keys()", ".values()", ".drain("] {
        let pat = format!("{ident}{method}");
        if contains_pattern(code, &pat) {
            return true;
        }
    }
    if code.contains("for ") {
        for form in [format!("in {ident}"), format!("in &{ident}")] {
            if contains_pattern(code, &form) {
                return true;
            }
        }
    }
    false
}

/// 1-based char column of the first boundary-guarded occurrence of
/// `ident` on the line.
fn ident_col(code: &str, ident: &str) -> Option<usize> {
    find_pattern(code, ident).map(|abs| code[..abs].chars().count() + 1)
}

/// Substring search with identifier-boundary guards: when the pattern
/// starts or ends with an identifier character, the neighbouring character
/// in the haystack must not be one (so `jsonl_with(` never matches
/// `to_jsonl_with(`, and `in m` never matches `in map`).
fn contains_pattern(haystack: &str, pattern: &str) -> bool {
    find_pattern(haystack, pattern).is_some()
}

/// Byte offset of the first boundary-guarded match (see
/// [`contains_pattern`]).
fn find_pattern(haystack: &str, pattern: &str) -> Option<usize> {
    if pattern.is_empty() {
        return None;
    }
    let first_ident = pattern.chars().next().is_some_and(is_ident_char);
    let last_ident = pattern.chars().next_back().is_some_and(is_ident_char);
    let bytes = haystack.as_bytes();
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(pattern) {
        let abs = start + pos;
        let end = abs + pattern.len();
        let pre_ok = !first_ident || abs == 0 || !is_ident_char(bytes[abs - 1] as char);
        let post_ok = !last_ident || end >= bytes.len() || !is_ident_char(bytes[end] as char);
        if pre_ok && post_ok {
            return Some(abs);
        }
        start = end;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files.iter().map(|(p, s)| SourceFile::new(p, s)).collect(),
        }
    }

    #[test]
    fn pattern_boundaries() {
        assert!(contains_pattern("jsonl_with(t, o)", "jsonl_with("));
        assert!(!contains_pattern("to_jsonl_with(t, o)", "jsonl_with("));
        assert!(contains_pattern("for k in m {", "in m"));
        assert!(!contains_pattern("for k in map {", "in m"));
        assert_eq!(ident_col("let mm = m.iter();", "m"), Some(10));
    }

    #[test]
    fn iteration_to_sink_fires() {
        let src = "fn f(m: HashMap<u32, u32>, out: &mut String) {\n    for (k, v) in &m {\n        out.push_str(\"x\");\n    }\n}\n";
        let diags = check_determinism(&ws(&[("crates/a/src/x.rs", src)]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].col > 0);
    }

    #[test]
    fn sort_far_after_the_loop_still_neutralizes() {
        // A fixed window of lines misses this shape: the sort is six
        // lines after the iteration and must count.
        let src = "fn f(m: HashMap<u32, u32>, out: &mut String) {\n    let mut v = Vec::new();\n    for (k, _) in &m {\n        v.push(*k);\n        v.push(*k + 1);\n        v.push(*k + 2);\n        v.push(*k + 3);\n        v.push(*k + 4);\n    }\n    v.sort_unstable();\n    for k in v {\n        out.push_str(\"x\");\n    }\n}\n";
        let diags = check_determinism(&ws(&[("crates/a/src/x.rs", src)]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn iteration_with_no_sink_is_clean() {
        let src = "fn f(m: HashMap<u32, u32>) -> u64 {\n    let mut total = 0;\n    for (_, v) in &m {\n        total += u64::from(*v);\n    }\n    total\n}\n";
        let diags = check_determinism(&ws(&[("crates/a/src/x.rs", src)]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn sink_in_a_later_function_does_not_count() {
        let src = "fn f(m: HashMap<u32, u32>) {\n    for (_, v) in &m {\n        let _ = v;\n    }\n}\nfn g(out: &mut String) {\n    out.push_str(\"x\");\n}\n";
        let diags = check_determinism(&ws(&[("crates/a/src/x.rs", src)]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn literals_and_consts_resolve_to_one_track() {
        let src = "pub const T: &str = \"host\";\nfn f(tr: &Tracer) {\n    tr.track(\"host\", ClockDomain::Decision);\n    tr.track(T, ClockDomain::Decision);\n    tr.track(\"other\", ClockDomain::Work);\n}\n";
        let diags = check_determinism(&ws(&[("crates/a/src/x.rs", src)]));
        assert!(diags.is_empty(), "{diags:?}");
    }
}
