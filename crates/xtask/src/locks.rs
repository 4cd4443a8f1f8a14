//! MCSD008: the static lock-acquisition graph.
//!
//! The engine keeps its state behind a `parking_lot::Mutex`, the tracer
//! and the smartFAM daemon and host add their own; a deadlock between
//! them would freeze the simulation silently. This pass reconstructs, from tokens alone:
//!
//! 1. **Lock declarations** — `name: Mutex<..>` / `name: RwLock<..>`
//!    fields, params, and statics, plus `let name = Mutex::new(..)`
//!    locals, attributed to their crate (`crate/name` is the graph node).
//! 2. **Acquisitions** — `recv.lock()` / `recv.read()` / `recv.write()`
//!    where `recv` resolves to a declared lock. Guard lifetime follows
//!    the binding form: `let g = ..` lives to end of block (or `drop(g)`),
//!    a `for`/`while`/`if`/`match` header temp lives to the end of the
//!    block it opens, and a bare statement temp dies at the `;`.
//! 3. **Edges** — acquiring B while holding A adds A→B. Ordering cycles
//!    (including re-acquiring a held lock) and blocking operations (file
//!    I/O, channel send/recv) performed while any lock is held are
//!    reported.
//!
//! The analysis is intraprocedural by design: a guard passed into a
//! callee that locks again is invisible. DESIGN.md §14 records that
//! limitation; the rule still covers every ordering bug expressible in a
//! single function body, which is where all current acquisitions live.

use std::collections::BTreeMap;

use crate::diag::{Code, Diagnostic};
use crate::lex::{Token, TokenKind};
use crate::workspace::{crate_of, SourceFile, Workspace};

/// Blocking method calls that must not run under a lock: file I/O and
/// synchronization primitives that can park the thread indefinitely.
const BLOCKING_METHODS: [&str; 14] = [
    "write_all",
    "read_to_end",
    "read_to_string",
    "flush",
    "sync_all",
    "sync_data",
    "send",
    "recv",
    "recv_timeout",
    "is_file",
    "is_dir",
    "exists",
    "metadata",
    "read_dir",
];

/// What acquisition methods a declared lock supports.
#[derive(Debug, Default, Clone, Copy)]
struct LockKind {
    mutex: bool,
    rwlock: bool,
}

/// A held lock and the scope that releases it.
struct Held {
    /// Graph node, `crate/name`.
    node: String,
    /// Binding identifier for `let g = ..` guards, for `drop(g)` release.
    guard: Option<String>,
    /// Brace depth this guard is tied to; the guard is released when
    /// depth drops below it.
    block_depth: i64,
    /// True for bare statement temps, additionally released at the next
    /// `;` at or below their depth.
    stmt_scoped: bool,
}

/// Where an edge was first observed.
#[derive(Debug, Clone)]
struct Site {
    path: String,
    line: usize,
    col: usize,
}

/// Run the MCSD008 analysis over the whole workspace.
pub fn check_locks(ws: &Workspace) -> Vec<Diagnostic> {
    let decls = collect_lock_decls(ws);
    let mut edges: BTreeMap<(String, String), Site> = BTreeMap::new();
    let mut out = Vec::new();
    for file in &ws.files {
        scan_file(file, &decls, &mut edges, &mut out);
    }
    report_cycles(&edges, &mut out);
    out
}

/// Pass 1: every `crate/name` that is declared as a Mutex or RwLock.
fn collect_lock_decls(ws: &Workspace) -> BTreeMap<(String, String), LockKind> {
    let mut decls: BTreeMap<(String, String), LockKind> = BTreeMap::new();
    for file in &ws.files {
        let krate = crate_of(&file.path).to_string();
        let idx = file.code_token_indices();
        let tok = |i: usize| -> &Token { &file.tokens[idx[i]] };
        for w in 0..idx.len() {
            let t = tok(w);
            if t.kind != TokenKind::Ident || (t.text != "Mutex" && t.text != "RwLock") {
                continue;
            }
            let is_mutex = t.text == "Mutex";
            let name = if next_punct_is(&file.tokens, &idx, w, "<") {
                typed_decl_name(file, &idx, w)
            } else {
                ctor_decl_name(file, &idx, w)
            };
            if let Some(name) = name {
                let entry = decls.entry((krate.clone(), name)).or_default();
                if is_mutex {
                    entry.mutex = true;
                } else {
                    entry.rwlock = true;
                }
            }
        }
    }
    decls
}

fn next_punct_is(tokens: &[Token], idx: &[usize], w: usize, text: &str) -> bool {
    idx.get(w + 1)
        .map(|&i| &tokens[i])
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// `name: [wrappers<]Mutex<..` — walk left over type-ish tokens to the
/// `:` and take the identifier before it.
fn typed_decl_name(file: &SourceFile, idx: &[usize], w: usize) -> Option<String> {
    let mut j = w;
    while j > 0 {
        j -= 1;
        let t = &file.tokens[idx[j]];
        match t.kind {
            TokenKind::Ident | TokenKind::Lifetime => continue,
            TokenKind::Punct if matches!(t.text.as_str(), "<" | ">" | "::" | "&") => continue,
            TokenKind::Punct if t.text == ":" => {
                let name = &file.tokens[*idx.get(j.checked_sub(1)?)?];
                if name.kind == TokenKind::Ident {
                    return Some(name.text.clone());
                }
                return None;
            }
            _ => return None,
        }
    }
    None
}

/// `let [mut] name = Mutex::new(..` — strict adjacency so constructor
/// calls buried in larger expressions don't register spurious locks.
fn ctor_decl_name(file: &SourceFile, idx: &[usize], w: usize) -> Option<String> {
    let t = |i: usize| -> Option<&Token> { idx.get(i).map(|&k| &file.tokens[k]) };
    if !(next_punct_is(&file.tokens, idx, w, "::")
        && t(w + 2).is_some_and(|x| x.kind == TokenKind::Ident && x.text == "new"))
    {
        return None;
    }
    let eq = t(w.checked_sub(1)?)?;
    if !(eq.kind == TokenKind::Punct && eq.text == "=") {
        return None;
    }
    let name = t(w.checked_sub(2)?)?;
    if name.kind != TokenKind::Ident {
        return None;
    }
    let intro = t(w.checked_sub(3)?)?;
    let is_let = |x: &Token| x.kind == TokenKind::Ident && x.text == "let";
    if is_let(intro) {
        return Some(name.text.clone());
    }
    if intro.kind == TokenKind::Ident && intro.text == "mut" {
        if let Some(le) = t(w.checked_sub(4)?) {
            if is_let(le) {
                return Some(name.text.clone());
            }
        }
    }
    None
}

/// Pass 2: walk one file tracking held guards, recording edges, self
/// re-acquisitions, and blocking calls under a lock.
fn scan_file(
    file: &SourceFile,
    decls: &BTreeMap<(String, String), LockKind>,
    edges: &mut BTreeMap<(String, String), Site>,
    out: &mut Vec<Diagnostic>,
) {
    let krate = crate_of(&file.path).to_string();
    let idx = file.code_token_indices();
    let tok = |i: usize| -> &Token { &file.tokens[idx[i]] };
    let mut depth: i64 = 0;
    let mut held: Vec<Held> = Vec::new();
    let mut blocked_lines: Vec<usize> = Vec::new();

    for w in 0..idx.len() {
        let t = tok(w);
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    held.retain(|h| h.block_depth <= depth);
                }
                ";" => held.retain(|h| !(h.stmt_scoped && h.block_depth >= depth)),
                _ => {}
            }
            continue;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        // drop(g) releases a named guard.
        if t.text == "drop" && next_punct_is(&file.tokens, &idx, w, "(") {
            if let Some(g) = idx.get(w + 2).map(|&i| &file.tokens[i]) {
                if g.kind == TokenKind::Ident {
                    held.retain(|h| h.guard.as_deref() != Some(g.text.as_str()));
                }
            }
            continue;
        }
        let in_test = file.line_in_test(t.line);
        // Acquisition: recv.lock() / recv.read() / recv.write().
        if matches!(t.text.as_str(), "lock" | "read" | "write")
            && next_punct_is(&file.tokens, &idx, w, "(")
            && w >= 2
            && tok(w - 1).kind == TokenKind::Punct
            && tok(w - 1).text == "."
            && tok(w - 2).kind == TokenKind::Ident
        {
            let recv = tok(w - 2).text.clone();
            if let Some(node) = resolve_lock(decls, &krate, &recv, &t.text) {
                if !in_test {
                    for h in &held {
                        if h.node == node {
                            out.push(Diagnostic {
                                code: Code::Mcsd008,
                                path: file.path.clone(),
                                line: t.line,
                                col: tok(w - 2).col,
                                message: format!(
                                    "lock `{node}` acquired while already held; parking_lot locks self-deadlock on re-entry"
                                ),
                            });
                        } else {
                            edges
                                .entry((h.node.clone(), node.clone()))
                                .or_insert_with(|| Site {
                                    path: file.path.clone(),
                                    line: t.line,
                                    col: tok(w - 2).col,
                                });
                        }
                    }
                }
                let chained = guard_is_chained(file, &idx, w);
                let (guard, block_depth, stmt_scoped) =
                    binding_shape(file, &idx, w, depth, chained);
                held.push(Held {
                    node,
                    guard,
                    block_depth,
                    stmt_scoped,
                });
            }
            continue;
        }
        // Blocking operation while a lock is held.
        if !held.is_empty() && !in_test && !blocked_lines.contains(&t.line) {
            let is_method = w >= 1
                && tok(w - 1).kind == TokenKind::Punct
                && tok(w - 1).text == "."
                && BLOCKING_METHODS.contains(&t.text.as_str())
                && next_punct_is(&file.tokens, &idx, w, "(");
            let is_fs_path = (t.text == "fs" || t.text == "File" || t.text == "OpenOptions")
                && next_punct_is(&file.tokens, &idx, w, "::");
            if is_method || is_fs_path {
                blocked_lines.push(t.line);
                let nodes: Vec<&str> = held.iter().map(|h| h.node.as_str()).collect();
                out.push(Diagnostic {
                    code: Code::Mcsd008,
                    path: file.path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "blocking operation `{}` while holding {}; release the guard (clone/drain under the lock) first",
                        t.text,
                        nodes.join(", ")
                    ),
                });
            }
        }
    }
}

/// Does `recv.method()` resolve to a declared lock compatible with the
/// method? Same-crate declarations win; a name declared in exactly one
/// other crate still resolves (shared types cross crate boundaries);
/// anything ambiguous is skipped rather than guessed.
fn resolve_lock(
    decls: &BTreeMap<(String, String), LockKind>,
    krate: &str,
    recv: &str,
    method: &str,
) -> Option<String> {
    let compatible = |k: &LockKind| match method {
        "lock" => k.mutex,
        _ => k.rwlock,
    };
    if let Some(kind) = decls.get(&(krate.to_string(), recv.to_string())) {
        return compatible(kind).then(|| format!("{krate}/{recv}"));
    }
    let foreign: Vec<&(String, String)> = decls.keys().filter(|(_, name)| name == recv).collect();
    match foreign.as_slice() {
        [(c, name)] => {
            let kind = &decls[&(c.clone(), name.clone())];
            compatible(kind).then(|| format!("{c}/{name}"))
        }
        _ => None,
    }
}

/// Is the guard produced at code-token index `w` immediately consumed by
/// a further projection (`.method()`, `[index]`, `?`)? Such a guard is a
/// temporary that dies at the end of its statement — `self.breakers
/// .lock().len()` holds nothing afterwards — unlike a plain `let g =
/// m.lock();` binding.
fn guard_is_chained(file: &SourceFile, idx: &[usize], w: usize) -> bool {
    let mut paren = 0i64;
    let mut j = w + 1;
    while j < idx.len() {
        let t = &file.tokens[idx[j]];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => {
                    paren -= 1;
                    if paren == 0 {
                        return idx.get(j + 1).map(|&i| &file.tokens[i]).is_some_and(|n| {
                            n.kind == TokenKind::Punct && matches!(n.text.as_str(), "." | "[" | "?")
                        });
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    false
}

/// Classify the statement that contains an acquisition at code-token
/// index `w`: a `let` binding (guard to end of block), a
/// `for`/`while`/`if`/`match` header (guard to end of the opened block —
/// Rust extends header temporaries, the classic `for x in m.lock().iter()`
/// deadlock), or a bare statement temp. A chained or deref-copied `let`
/// (`let n = m.lock().len()`, `let s = *m.lock()`) binds a value, not the
/// guard, so it degrades to a statement temp.
fn binding_shape(
    file: &SourceFile,
    idx: &[usize],
    w: usize,
    depth: i64,
    chained: bool,
) -> (Option<String>, i64, bool) {
    // Walk back to the statement start.
    let mut start = 0;
    let mut j = w;
    while j > 0 {
        j -= 1;
        let t = &file.tokens[idx[j]];
        if t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            start = j + 1;
            break;
        }
    }
    let first = &file.tokens[idx[start]];
    if first.kind == TokenKind::Ident {
        match first.text.as_str() {
            "let" => {
                if chained {
                    return (None, depth, true);
                }
                let mut k = start + 1;
                if idx
                    .get(k)
                    .map(|&i| &file.tokens[i])
                    .is_some_and(|t| t.kind == TokenKind::Ident && t.text == "mut")
                {
                    k += 1;
                }
                // `let v = *m.lock();` copies the value out and drops the
                // guard at the `;` (but `&*m.lock()` extends it — only a
                // bare `*` right after `=` demotes).
                let deref_copy = idx
                    .get(k + 2)
                    .map(|&i| &file.tokens[i])
                    .is_some_and(|d| d.kind == TokenKind::Punct && d.text == "*")
                    && idx
                        .get(k + 1)
                        .map(|&i| &file.tokens[i])
                        .is_some_and(|e| e.kind == TokenKind::Punct && e.text == "=");
                if deref_copy {
                    return (None, depth, true);
                }
                let guard = idx.get(k).map(|&i| &file.tokens[i]).and_then(|name| {
                    let eq = idx.get(k + 1).map(|&i| &file.tokens[i]);
                    let simple = name.kind == TokenKind::Ident
                        && eq.is_some_and(|e| {
                            e.kind == TokenKind::Punct && (e.text == "=" || e.text == ":")
                        });
                    simple.then(|| name.text.clone())
                });
                return (guard, depth, false);
            }
            "for" | "while" | "if" | "match" => return (None, depth + 1, false),
            _ => {}
        }
    }
    (None, depth, true)
}

/// Emit one diagnostic per lock-order cycle (non-trivial strongly
/// connected component), anchored at the lexicographically first edge
/// site inside the cycle.
fn report_cycles(edges: &BTreeMap<(String, String), Site>, out: &mut Vec<Diagnostic>) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
        adj.entry(to).or_default();
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let reach = |from: &str, to: &str| -> bool {
        let mut seen: Vec<&str> = Vec::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            for next in adj.get(n).into_iter().flatten() {
                if *next == to {
                    return true;
                }
                if !seen.contains(next) {
                    seen.push(next);
                    stack.push(next);
                }
            }
        }
        false
    };
    let mut grouped: Vec<Vec<&str>> = Vec::new();
    for &n in &nodes {
        if grouped.iter().any(|g| g.contains(&n)) {
            continue;
        }
        let mut scc: Vec<&str> = vec![n];
        for &m in &nodes {
            if m != n && reach(n, m) && reach(m, n) {
                scc.push(m);
            }
        }
        if scc.len() > 1 {
            scc.sort_unstable();
            grouped.push(scc);
        }
    }
    for scc in grouped {
        let mut sites: Vec<(&(String, String), &Site)> = edges
            .iter()
            .filter(|((a, b), _)| scc.contains(&a.as_str()) && scc.contains(&b.as_str()))
            .collect();
        sites.sort_by_key(|(_, s)| (s.path.clone(), s.line, s.col));
        let Some((_, anchor)) = sites.first() else {
            continue;
        };
        let edge_list: Vec<String> = sites
            .iter()
            .map(|((a, b), s)| format!("{a}->{b} ({}:{})", s.path, s.line))
            .collect();
        out.push(Diagnostic {
            code: Code::Mcsd008,
            path: anchor.path.clone(),
            line: anchor.line,
            col: anchor.col,
            message: format!(
                "lock-order cycle between {}; edges: {}",
                scc.join(", "),
                edge_list.join(", ")
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files.iter().map(|(p, s)| SourceFile::new(p, s)).collect(),
        }
    }

    const DECLS: &str = "struct S { a: Mutex<u32>, b: Mutex<u32>, r: RwLock<u32> }\n";

    #[test]
    fn ordered_acquisition_is_clean() {
        let src = format!(
            "{DECLS}impl S {{\n    fn f(&self) {{\n        let g = self.a.lock();\n        let h = self.b.lock();\n        *g + *h;\n    }}\n    fn g(&self) {{\n        let g = self.a.lock();\n        let h = self.b.lock();\n    }}\n}}\n"
        );
        let diags = check_locks(&ws(&[("crates/c/src/x.rs", &src)]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn conflicting_order_is_a_cycle() {
        let src = format!(
            "{DECLS}impl S {{\n    fn f(&self) {{\n        let g = self.a.lock();\n        let h = self.b.lock();\n    }}\n    fn g(&self) {{\n        let h = self.b.lock();\n        let g = self.a.lock();\n    }}\n}}\n"
        );
        let diags = check_locks(&ws(&[("crates/c/src/x.rs", &src)]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("lock-order cycle"));
        assert!(diags[0].message.contains("c/a"));
        assert!(diags[0].message.contains("c/b"));
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = format!(
            "{DECLS}impl S {{\n    fn f(&self) {{\n        let g = self.a.lock();\n        drop(g);\n        let h = self.a.lock();\n    }}\n}}\n"
        );
        let diags = check_locks(&ws(&[("crates/c/src/x.rs", &src)]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn reacquire_while_held_fires() {
        let src = format!(
            "{DECLS}impl S {{\n    fn f(&self) {{\n        let g = self.a.lock();\n        let h = self.a.lock();\n    }}\n}}\n"
        );
        let diags = check_locks(&ws(&[("crates/c/src/x.rs", &src)]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("already held"));
    }

    #[test]
    fn block_scope_releases_guard() {
        let src = format!(
            "{DECLS}impl S {{\n    fn f(&self) {{\n        {{ let g = self.a.lock(); }}\n        let h = self.a.lock();\n    }}\n}}\n"
        );
        let diags = check_locks(&ws(&[("crates/c/src/x.rs", &src)]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn statement_temp_dies_at_semicolon() {
        let src = format!(
            "{DECLS}impl S {{\n    fn f(&self) {{\n        self.a.lock().wrapping_add(1);\n        self.a.lock().wrapping_add(1);\n    }}\n}}\n"
        );
        let diags = check_locks(&ws(&[("crates/c/src/x.rs", &src)]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn chained_and_deref_let_bindings_are_statement_temps() {
        let src = format!(
            "{DECLS}impl S {{\n    fn f(&self) {{\n        let n = self.a.lock().wrapping_add(1);\n        let g = self.a.lock();\n    }}\n    fn g(&self) {{\n        let v = *self.a.lock();\n        let g = self.a.lock();\n    }}\n}}\n"
        );
        let diags = check_locks(&ws(&[("crates/c/src/x.rs", &src)]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn blocking_io_under_lock_fires() {
        let src = format!(
            "{DECLS}impl S {{\n    fn f(&self, p: &std::path::Path) {{\n        let g = self.a.lock();\n        if p.is_file() {{ }}\n    }}\n}}\n"
        );
        let diags = check_locks(&ws(&[("crates/c/src/x.rs", &src)]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("blocking operation `is_file`"));
        assert!(diags[0].message.contains("c/a"));
    }

    #[test]
    fn rwlock_methods_resolve_and_plain_reads_do_not() {
        let src = format!(
            "{DECLS}impl S {{\n    fn f(&self, mut file: std::fs::File) {{\n        let g = self.r.read();\n        let h = self.r.write();\n    }}\n    fn g(&self, buf: &mut Vec<u8>, mut file: std::fs::File) {{\n        file.read(buf);\n    }}\n}}\n"
        );
        let diags = check_locks(&ws(&[("crates/c/src/x.rs", &src)]));
        // read-then-write on the same RwLock while held: re-acquisition.
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("already held"));
    }

    #[test]
    fn header_temp_lives_for_the_loop_body() {
        let src = format!(
            "{DECLS}fn f(s: &S) {{\n    for v in s.a.lock().iter() {{\n        s.b.lock().wrapping_add(*v);\n    }}\n    for v in s.b.lock().iter() {{\n        s.a.lock().wrapping_add(*v);\n    }}\n}}\n"
        );
        let diags = check_locks(&ws(&[("crates/c/src/x.rs", &src)]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("lock-order cycle"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = format!(
            "{DECLS}#[cfg(test)]\nmod t {{\n    fn f(s: &super::S) {{\n        let g = s.a.lock();\n        let h = s.a.lock();\n    }}\n}}\n"
        );
        let diags = check_locks(&ws(&[("crates/c/src/x.rs", &src)]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn edges_join_across_files_in_a_crate() {
        let a = format!(
            "{DECLS}fn f(s: &S) {{\n    let g = s.a.lock();\n    let h = s.b.lock();\n}}\n"
        );
        let b = "fn g(s: &crate::S) {\n    let h = s.b.lock();\n    let g = s.a.lock();\n}\n";
        let diags = check_locks(&ws(&[
            ("crates/c/src/one.rs", &a),
            ("crates/c/src/two.rs", b),
        ]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("lock-order cycle"));
    }
}
