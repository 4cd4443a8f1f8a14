//! MCSD009: the counter-ownership auditor.
//!
//! DESIGN.md §13 declares which module owns each counter family —
//! `OverloadStats`, `ResilienceStats`, `DaemonStats`, `JobStats`,
//! `ReplicationStats`, `DesStats`, `BatchStats` — so
//! that merged reports never double-count. Before this rule the table
//! was prose kept honest by hand; now the table itself is the machine
//! input. The §13 table rows sit between HTML-comment markers:
//!
//! ```text
//! <!-- mcsd009:counter-ownership-table:begin -->
//! | counter | owner | allowed mutation sites |
//! |---|---|---|
//! | `OverloadStats.shed` | smartFAM daemon | `crates/smartfam/src/faults.rs`, ... |
//! <!-- mcsd009:counter-ownership-table:end -->
//! ```
//!
//! Three checks keep doc and code bidirectionally synced:
//!
//! 1. every `u64` field of a family struct must have a table row
//!    (finding at the field definition when missing);
//! 2. every table row must name a real `u64` field (finding at the
//!    DESIGN.md row when stale);
//! 3. every `.field +=`/`-=`/`=` mutation of a family field in non-test
//!    library code must sit in a file the table allows. Same-named
//!    fields across families share the union of their allowed lists
//!    (the token stream cannot tell `ResilienceStats.replayed` from
//!    `DaemonStats.replayed`); DESIGN.md §14 records that limitation.

use std::collections::BTreeMap;

use crate::diag::{Code, Diagnostic};
use crate::lex::TokenKind;
use crate::workspace::Workspace;

/// The counter families under ownership control.
pub const FAMILIES: [&str; 7] = [
    "OverloadStats",
    "ResilienceStats",
    "DaemonStats",
    "JobStats",
    "ReplicationStats",
    "DesStats",
    "BatchStats",
];

/// One parsed row of the §13 table.
#[derive(Debug, Clone)]
pub struct OwnershipRow {
    /// Family struct name, e.g. `OverloadStats`.
    pub family: String,
    /// Field name, e.g. `shed`.
    pub field: String,
    /// Files allowed to mutate the counter (workspace-relative paths).
    pub allowed: Vec<String>,
    /// 1-based line of the row in the design doc.
    pub line: usize,
}

/// The parsed §13 ownership table.
#[derive(Debug, Default)]
pub struct OwnershipTable {
    /// All rows in document order.
    pub rows: Vec<OwnershipRow>,
}

const TABLE_BEGIN: &str = "<!-- mcsd009:counter-ownership-table:begin -->";
const TABLE_END: &str = "<!-- mcsd009:counter-ownership-table:end -->";

/// Parse the ownership table out of the design document. Structural
/// problems (missing markers, malformed rows) are diagnostics in their
/// own right: a table tidy cannot read is a table that enforces nothing.
pub fn parse_ownership_table(design: &str, design_path: &str) -> (OwnershipTable, Vec<Diagnostic>) {
    let mut table = OwnershipTable::default();
    let mut diags = Vec::new();
    let mut begin = None;
    let mut end = None;
    for (i, line) in design.lines().enumerate() {
        if line.trim() == TABLE_BEGIN {
            begin = Some(i + 1);
        } else if line.trim() == TABLE_END {
            end = Some(i + 1);
        }
    }
    let (Some(begin), Some(end)) = (begin, end) else {
        diags.push(Diagnostic::new(
            Code::Mcsd009,
            design_path,
            0,
            format!("counter-ownership table markers `{TABLE_BEGIN}` / `{TABLE_END}` not found; MCSD009 has nothing to enforce"),
        ));
        return (table, diags);
    };
    for (i, line) in design.lines().enumerate() {
        let line_no = i + 1;
        if line_no <= begin || line_no >= end {
            continue;
        }
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        // Header and separator rows carry no backticked counter.
        if trimmed.chars().all(|c| matches!(c, '|' | '-' | ':' | ' ')) {
            continue;
        }
        let cells: Vec<&str> = trimmed.trim_matches('|').split('|').collect();
        if cells.len() < 3 {
            diags.push(Diagnostic::new(
                Code::Mcsd009,
                design_path,
                line_no,
                "ownership row needs `| counter | owner | allowed mutation sites |`".to_string(),
            ));
            continue;
        }
        let Some(counter) = first_backticked(cells[0]) else {
            if backticked(cells[0]).is_empty() && cells[0].contains("counter") {
                continue; // header row
            }
            diags.push(Diagnostic::new(
                Code::Mcsd009,
                design_path,
                line_no,
                "ownership row's first cell must backtick `Family.field`".to_string(),
            ));
            continue;
        };
        let Some((family, field)) = counter.split_once('.') else {
            diags.push(Diagnostic::new(
                Code::Mcsd009,
                design_path,
                line_no,
                format!("counter `{counter}` must be written as `Family.field`"),
            ));
            continue;
        };
        let allowed = backticked(cells[2]);
        if allowed.is_empty() {
            diags.push(Diagnostic::new(
                Code::Mcsd009,
                design_path,
                line_no,
                format!("counter `{counter}` lists no allowed mutation sites"),
            ));
            continue;
        }
        table.rows.push(OwnershipRow {
            family: family.to_string(),
            field: field.to_string(),
            allowed,
            line: line_no,
        });
    }
    if table.rows.is_empty() && diags.is_empty() {
        diags.push(Diagnostic::new(
            Code::Mcsd009,
            design_path,
            begin,
            "counter-ownership table is empty".to_string(),
        ));
    }
    (table, diags)
}

fn backticked(cell: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = cell;
    while let Some(open) = rest.find('`') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('`') else { break };
        out.push(tail[..close].to_string());
        rest = &tail[close + 1..];
    }
    out
}

fn first_backticked(cell: &str) -> Option<String> {
    backticked(cell).into_iter().next()
}

/// A `u64` field of a family struct, with its definition site.
#[derive(Debug)]
struct FamilyField {
    family: String,
    field: String,
    path: String,
    line: usize,
    col: usize,
}

/// Run the MCSD009 checks: struct⇄table sync plus mutation-site
/// enforcement across all non-test library code.
pub fn check_ownership(
    ws: &Workspace,
    table: &OwnershipTable,
    design_path: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let fields = collect_family_fields(ws);

    // Direction 1: every struct counter needs a table row.
    for f in &fields {
        let covered = table
            .rows
            .iter()
            .any(|r| r.family == f.family && r.field == f.field);
        if !covered {
            out.push(Diagnostic {
                code: Code::Mcsd009,
                path: f.path.clone(),
                line: f.line,
                col: f.col,
                message: format!(
                    "counter `{}.{}` has no row in the DESIGN.md §13 ownership table",
                    f.family, f.field
                ),
            });
        }
    }

    // Direction 2: every table row needs a real struct counter.
    for row in &table.rows {
        let exists = fields
            .iter()
            .any(|f| f.family == row.family && f.field == row.field);
        if !exists {
            out.push(Diagnostic::new(
                Code::Mcsd009,
                design_path,
                row.line,
                format!(
                    "table names `{}.{}` but no such u64 counter exists in the workspace",
                    row.family, row.field
                ),
            ));
        }
    }

    // Mutation enforcement: union allowed lists over same-named fields.
    let mut allowed_by_field: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for row in &table.rows {
        let entry = allowed_by_field.entry(row.field.as_str()).or_default();
        for path in &row.allowed {
            if !entry.contains(&path.as_str()) {
                entry.push(path.as_str());
            }
        }
    }
    // Only field names that really are counters are enforced; a stale
    // table row must not start policing unrelated code.
    allowed_by_field.retain(|field, _| fields.iter().any(|f| f.field == *field));

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
                        "counter `{}` mutated outside its owning module(s) {}; see DESIGN.md §13",
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
fn collect_family_fields(ws: &Workspace) -> Vec<FamilyField> {
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
            if !FAMILIES.contains(&name.text.as_str()) {
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
                                    out.push(FamilyField {
                                        family: name.text.clone(),
                                        field: fname.text.clone(),
                                        path: file.path.clone(),
                                        line: fname.line,
                                        col: fname.col,
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

    fn design(rows: &str) -> String {
        format!("# doc\n\n{TABLE_BEGIN}\n| counter | owner | allowed mutation sites |\n|---|---|---|\n{rows}{TABLE_END}\n")
    }

    #[test]
    fn synced_table_and_code_are_clean() {
        let doc = design(
            "| `OverloadStats.shed` | daemon | `crates/a/src/stats.rs` |\n\
             | `OverloadStats.expired` | daemon | `crates/a/src/stats.rs` |\n",
        );
        let (table, errs) = parse_ownership_table(&doc, "DESIGN.md");
        assert!(errs.is_empty(), "{errs:?}");
        let ws = ws(&[(
            "crates/a/src/stats.rs",
            &format!(
                "{STRUCT_SRC}impl OverloadStats {{ fn a(&mut self) {{ self.shed += 1; }} }}\n"
            ),
        )]);
        let diags = check_ownership(&ws, &table, "DESIGN.md");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn mutation_outside_owner_fires() {
        let doc = design(
            "| `OverloadStats.shed` | daemon | `crates/a/src/stats.rs` |\n\
             | `OverloadStats.expired` | daemon | `crates/a/src/stats.rs` |\n",
        );
        let (table, _) = parse_ownership_table(&doc, "DESIGN.md");
        let ws = ws(&[
            ("crates/a/src/stats.rs", STRUCT_SRC),
            (
                "crates/b/src/rogue.rs",
                "fn f(s: &mut OverloadStats) { s.shed += 1; }\n",
            ),
        ]);
        let diags = check_ownership(&ws, &table, "DESIGN.md");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].path, "crates/b/src/rogue.rs");
        assert!(diags[0].message.contains("outside its owning module"));
    }

    #[test]
    fn struct_field_missing_from_table_fires_at_the_field() {
        let doc = design("| `OverloadStats.shed` | daemon | `crates/a/src/stats.rs` |\n");
        let (table, _) = parse_ownership_table(&doc, "DESIGN.md");
        let ws = ws(&[("crates/a/src/stats.rs", STRUCT_SRC)]);
        let diags = check_ownership(&ws, &table, "DESIGN.md");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].path, "crates/a/src/stats.rs");
        assert!(diags[0].message.contains("OverloadStats.expired"));
    }

    #[test]
    fn stale_table_row_fires_at_the_doc() {
        let doc = design(
            "| `OverloadStats.shed` | daemon | `crates/a/src/stats.rs` |\n\
             | `OverloadStats.expired` | daemon | `crates/a/src/stats.rs` |\n\
             | `OverloadStats.ghost` | nobody | `crates/a/src/stats.rs` |\n",
        );
        let (table, _) = parse_ownership_table(&doc, "DESIGN.md");
        let ws = ws(&[("crates/a/src/stats.rs", STRUCT_SRC)]);
        let diags = check_ownership(&ws, &table, "DESIGN.md");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].path, "DESIGN.md");
        assert!(diags[0].message.contains("OverloadStats.ghost"));
    }

    #[test]
    fn missing_markers_are_a_config_finding() {
        let (_, errs) = parse_ownership_table("no table here", "DESIGN.md");
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("markers"));
    }

    #[test]
    fn test_code_and_reads_are_exempt() {
        let doc = design(
            "| `OverloadStats.shed` | daemon | `crates/a/src/stats.rs` |\n\
             | `OverloadStats.expired` | daemon | `crates/a/src/stats.rs` |\n",
        );
        let (table, _) = parse_ownership_table(&doc, "DESIGN.md");
        let ws = ws(&[
            ("crates/a/src/stats.rs", STRUCT_SRC),
            (
                "crates/b/src/reader.rs",
                "fn f(s: &OverloadStats) -> u64 { s.shed + s.expired }\n\
                 #[cfg(test)]\nmod t {\n    fn g(s: &mut OverloadStats) { s.shed += 1; }\n}\n",
            ),
        ]);
        let diags = check_ownership(&ws, &table, "DESIGN.md");
        assert!(diags.is_empty(), "{diags:?}");
    }
}
