//! MCSD009: the counter-ownership auditor.
//!
//! The seven counter families — `OverloadStats`, `ResilienceStats`,
//! `DaemonStats`, `JobStats`, `ReplicationStats`, `DesStats`,
//! `BatchStats` — are structs of `u64` fields. Their keys and owners are
//! declared by their `counter_family!` tables (DESIGN.md §12); which
//! *files* may write each field is the one fact no table holds, so it
//! lives here, in [`WRITERS`], beside the rule that enforces it (DESIGN.md
//! §13). Three checks:
//!
//! 1. every `u64` field of a family needs a covering entry (finding at
//!    the field);
//! 2. every entry must name a family or field the workspace declares (a
//!    whole-file finding at this file, which no waiver covers);
//! 3. every `.field +=`/`-=`/`=` mutation of a family field in non-test
//!    library code must sit in a file its entry allows. Same-named fields
//!    across families share the union of their writers (the token stream
//!    cannot tell `ResilienceStats.replayed` from `DaemonStats.replayed`);
//!    DESIGN.md §14 records that limitation.
//!
//! A workspace that declares none of the families has nothing to check.

use std::collections::BTreeMap;

use crate::diag::{Code, Diagnostic};
use crate::lex::TokenKind;
use crate::workspace::Workspace;

const FAULTS: &str = "crates/smartfam/src/faults.rs";
const HOST: &str = "crates/smartfam/src/host.rs";
const DAEMON: &str = "crates/smartfam/src/daemon.rs";
const BATCH: &str = "crates/smartfam/src/batch.rs";
const ENGINE: &str = "crates/mcsd-core/src/engine.rs";
const BREAKER: &str = "crates/mcsd-core/src/breaker.rs";
const MULTISD: &str = "crates/mcsd-core/src/multisd.rs";
const REPLICATION: &str = "crates/mcsd-core/src/replication.rs";
const DES: &str = "crates/mcsd-core/src/des.rs";
const REPORT: &str = "crates/mcsd-core/src/report.rs";
const JOB_STATS: &str = "crates/phoenix/src/stats.rs";
const PARTITION: &str = "crates/phoenix/src/partition.rs";

/// Which files may write each counter. `Family` covers every `u64` field
/// of the family; `Family.field` overrides it for that field alone. The
/// file defining a family is always listed; `engine.rs` where
/// `resilience_report`/`overload_totals` fold daemon- and breaker-owned
/// counts into a merged view; `host.rs` for the window's per-call and
/// per-window counts.
pub const WRITERS: [(&str, &[&str]); 16] = [
    ("OverloadStats", &[FAULTS, ENGINE]),
    ("OverloadStats.half_open_probes", &[FAULTS, ENGINE, BREAKER]),
    ("ResilienceStats", &[FAULTS, ENGINE]),
    ("ResilienceStats.attempts", &[FAULTS, MULTISD, HOST]),
    ("ResilienceStats.retries", &[FAULTS, MULTISD, HOST]),
    ("ResilienceStats.redispatches", &[FAULTS, MULTISD]),
    (
        "ResilienceStats.corrupt_skipped_bytes",
        &[FAULTS, ENGINE, HOST],
    ),
    ("DaemonStats", &[DAEMON]),
    ("JobStats", &[JOB_STATS]),
    ("JobStats.output_pairs", &[JOB_STATS, PARTITION]),
    ("ReplicationStats", &[REPLICATION, REPORT]),
    ("DesStats", &[DES, REPORT]),
    ("BatchStats", &[BATCH, DAEMON]),
    ("BatchStats.window_occupancy", &[BATCH, HOST]),
    ("BatchStats.window_shrinks", &[BATCH, HOST]),
    ("BatchStats.reordered_completions", &[BATCH, HOST]),
];

/// Where [`WRITERS`] lives: the anchor of a finding against an entry.
const WRITERS_PATH: &str = "crates/xtask/src/ownership.rs";

/// A `u64` field of a family struct, with its definition site and the
/// files its entry lets write it.
#[derive(Debug)]
pub struct Counter<'w> {
    /// Family struct name, e.g. `OverloadStats`.
    pub family: String,
    /// Field name, e.g. `shed`.
    pub field: String,
    /// File that defines the struct.
    pub path: String,
    /// 1-based line of the field.
    pub line: usize,
    /// 1-based column of the field.
    pub col: usize,
    /// The field's own entry, else its family's; `None` when neither
    /// exists.
    pub writers: Option<&'w [&'w str]>,
}

impl Counter<'_> {
    /// Whether the entry `Family` or `Family.field` names this counter.
    pub fn named_by(&self, entry: &str) -> bool {
        match entry.split_once('.') {
            Some((family, field)) => self.family == family && self.field == field,
            None => self.family == entry,
        }
    }
}

/// Every `u64` field of every family `writers` names, resolved to the
/// files allowed to write it.
pub fn counters<'w>(ws: &Workspace, writers: &[(&'w str, &'w [&'w str])]) -> Vec<Counter<'w>> {
    let families: Vec<&str> = writers
        .iter()
        .map(|(entry, _)| entry.split('.').next().unwrap_or(entry))
        .collect();
    let mut out = collect_family_fields(ws, &families);
    for counter in &mut out {
        let own = format!("{}.{}", counter.family, counter.field);
        let entry = |name: &str| writers.iter().find(|(e, _)| *e == name).map(|(_, w)| *w);
        counter.writers = entry(&own).or_else(|| entry(&counter.family));
    }
    out
}

/// Run the MCSD009 checks: struct⇄`writers` coverage both ways, plus
/// mutation-site enforcement across all non-test library code.
pub fn check_ownership(ws: &Workspace, writers: &[(&str, &[&str])]) -> Vec<Diagnostic> {
    let counters = counters(ws, writers);
    if counters.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();

    // Direction 1: every struct counter needs a covering entry.
    for c in counters.iter().filter(|c| c.writers.is_none()) {
        out.push(Diagnostic {
            code: Code::Mcsd009,
            path: c.path.clone(),
            line: c.line,
            col: c.col,
            message: format!(
                "counter `{}.{}` has no `WRITERS` entry in {WRITERS_PATH}; add its family's or its own",
                c.family, c.field
            ),
        });
    }

    // Direction 2: every entry needs a real struct counter. Line 0 makes
    // the finding whole-file, so no waiver covers it.
    for (entry, _) in writers {
        if !counters.iter().any(|c| c.named_by(entry)) {
            out.push(Diagnostic::new(
                Code::Mcsd009,
                WRITERS_PATH,
                0,
                format!(
                    "`WRITERS` names `{entry}` but no such u64 counter exists in the workspace"
                ),
            ));
        }
    }

    // Mutation enforcement: union allowed lists over same-named fields.
    let mut allowed_by_field: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for c in &counters {
        let Some(files) = c.writers else { continue };
        let entry = allowed_by_field.entry(c.field.as_str()).or_default();
        for path in files {
            if !entry.contains(path) {
                entry.push(path);
            }
        }
    }

    for file in &ws.files {
        let idx = file.code_token_indices();
        for w in 0..idx.len() {
            let t = &file.tokens[idx[w]];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let Some(allowed) = allowed_by_field.get(t.text.as_str()) else {
                continue;
            };
            let prev_is_dot = w >= 1 && {
                let p = &file.tokens[idx[w - 1]];
                p.kind == TokenKind::Punct && p.text == "."
            };
            let mutates = idx.get(w + 1).map(|&i| &file.tokens[i]).is_some_and(|n| {
                n.kind == TokenKind::Punct
                    && matches!(
                        n.text.as_str(),
                        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^="
                    )
            });
            if !prev_is_dot || !mutates || file.line_in_test(t.line) {
                continue;
            }
            if !allowed.contains(&file.path.as_str()) {
                out.push(Diagnostic {
                    code: Code::Mcsd009,
                    path: file.path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "counter `{}` mutated outside its owning module(s) {}; see `WRITERS` in {WRITERS_PATH}",
                        t.text,
                        allowed.join(", ")
                    ),
                });
            }
        }
    }
    out
}

/// Find each family struct definition and collect its `u64` fields.
fn collect_family_fields<'w>(ws: &Workspace, families: &[&str]) -> Vec<Counter<'w>> {
    let mut out = Vec::new();
    for file in &ws.files {
        let idx = file.code_token_indices();
        let tok = |i: usize| -> &crate::lex::Token { &file.tokens[idx[i]] };
        for w in 0..idx.len() {
            let t = tok(w);
            if !(t.kind == TokenKind::Ident && t.text == "struct") {
                continue;
            }
            let Some(name) = idx.get(w + 1).map(|&i| &file.tokens[i]) else {
                continue;
            };
            if !families.contains(&name.text.as_str()) {
                continue;
            }
            // Find the struct body and walk its top-level fields.
            let mut j = w + 2;
            while j < idx.len() {
                let t = tok(j);
                if t.kind == TokenKind::Punct && t.text == "{" {
                    break;
                }
                if t.kind == TokenKind::Punct && t.text == ";" {
                    j = idx.len(); // unit struct, nothing to collect
                }
                j += 1;
            }
            let mut depth = 0i64;
            while j < idx.len() {
                let t = tok(j);
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        ":" if depth == 1 => {
                            let fname = j.checked_sub(1).map(tok);
                            let ftype = idx.get(j + 1).map(|&i| &file.tokens[i]);
                            let after = idx.get(j + 2).map(|&i| &file.tokens[i]);
                            if let (Some(fname), Some(ftype), Some(after)) = (fname, ftype, after) {
                                let is_u64_field = fname.kind == TokenKind::Ident
                                    && ftype.kind == TokenKind::Ident
                                    && ftype.text == "u64"
                                    && after.kind == TokenKind::Punct
                                    && (after.text == "," || after.text == "}");
                                if is_u64_field {
                                    out.push(Counter {
                                        family: name.text.clone(),
                                        field: fname.text.clone(),
                                        path: file.path.clone(),
                                        line: fname.line,
                                        col: fname.col,
                                        writers: None,
                                    });
                                }
                            }
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files.iter().map(|(p, s)| SourceFile::new(p, s)).collect(),
        }
    }

    const STRUCT_SRC: &str =
        "pub struct OverloadStats {\n    pub shed: u64,\n    pub expired: u64,\n}\n";

    const STATS: &[&str] = &["crates/a/src/stats.rs"];

    #[test]
    fn covered_fields_written_by_their_writers_are_clean() {
        let ws = ws(&[(
            "crates/a/src/stats.rs",
            &format!(
                "{STRUCT_SRC}impl OverloadStats {{ fn a(&mut self) {{ self.shed += 1; }} }}\n"
            ),
        )]);
        let diags = check_ownership(&ws, &[("OverloadStats", STATS)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn mutation_outside_owner_fires() {
        let ws = ws(&[
            ("crates/a/src/stats.rs", STRUCT_SRC),
            (
                "crates/b/src/rogue.rs",
                "fn f(s: &mut OverloadStats) { s.shed += 1; }\n",
            ),
        ]);
        let diags = check_ownership(&ws, &[("OverloadStats", STATS)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].path, "crates/b/src/rogue.rs");
        assert!(diags[0].message.contains("outside its owning module"));
    }

    #[test]
    fn uncovered_field_fires_at_the_field() {
        let ws = ws(&[("crates/a/src/stats.rs", STRUCT_SRC)]);
        let diags = check_ownership(&ws, &[("OverloadStats.shed", STATS)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(
            (diags[0].path.as_str(), diags[0].line),
            ("crates/a/src/stats.rs", 3)
        );
        assert!(diags[0].message.contains("OverloadStats.expired"));
    }

    #[test]
    fn stale_entry_fires_at_writers_unwaivably() {
        let ws = ws(&[("crates/a/src/stats.rs", STRUCT_SRC)]);
        let writers = [("OverloadStats", STATS), ("OverloadStats.ghost", STATS)];
        let diags = check_ownership(&ws, &writers);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].path.as_str(), diags[0].line), (WRITERS_PATH, 0));
        assert!(diags[0].message.contains("OverloadStats.ghost"));
    }

    #[test]
    fn a_workspace_declaring_no_family_has_nothing_to_check() {
        let ws = ws(&[("crates/a/src/lib.rs", "pub fn f() {}\n")]);
        assert!(check_ownership(&ws, &WRITERS).is_empty());
    }

    #[test]
    fn test_code_and_reads_are_exempt() {
        let ws = ws(&[
            ("crates/a/src/stats.rs", STRUCT_SRC),
            (
                "crates/b/src/reader.rs",
                "fn f(s: &OverloadStats) -> u64 { s.shed + s.expired }\n\
                 #[cfg(test)]\nmod t {\n    fn g(s: &mut OverloadStats) { s.shed += 1; }\n}\n",
            ),
        ]);
        let diags = check_ownership(&ws, &[("OverloadStats", STATS)]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
