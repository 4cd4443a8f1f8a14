//! MCSD006: workspace hygiene checks over `Cargo.toml` manifests and
//! `lib.rs` headers.
//!
//! These are deliberately line-based (no TOML parser — tidy is std-only):
//! the workspace's manifests are machine-edited and keep one dependency
//! per line, which is itself part of the hygiene contract.

use crate::diag::{Code, Diagnostic};

/// Dependency sections whose entries must inherit from
/// `[workspace.dependencies]`.
const DEP_SECTIONS: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];

/// The header every library root must carry within its first lines:
/// missing docs are build breaks, and the lint policy of DESIGN.md §9
/// (with the lists in the root `clippy.toml`) is armed for the crate's
/// library code outside `cfg(test)`. Split so each line stays one line
/// under rustfmt, which wraps an attribute whose arguments pass 70 columns.
pub const LIB_HEADER: [&str; 5] = [
    "#![deny(missing_docs)]",
    "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]",
    "#![cfg_attr(not(test), deny(clippy::panic, clippy::print_stdout))]",
    "#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]",
    "#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]",
];

/// How many lines from the top of `lib.rs` the header may sit.
pub const LIB_HEADER_WINDOW: usize = 30;

/// Check one crate manifest: every dependency must be
/// `workspace = true`-inherited, and a `[lints] workspace = true` table
/// must be present.
pub fn check_manifest(rel_path: &str, content: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut section = String::new();
    let mut lints_section_line = 0usize;
    let mut lints_workspace = false;
    for (idx, raw) in content.lines().enumerate() {
        let line = strip_toml_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = section_header(line) {
            section = name.to_string();
            if section == "lints" {
                lints_section_line = idx + 1;
            }
            continue;
        }
        if section == "lints" && normalized(line).contains("workspace=true") {
            lints_workspace = true;
        }
        if DEP_SECTIONS.contains(&section.as_str()) && line.contains('=') {
            let dep = line.split(['=', '.']).next().unwrap_or("").trim();
            if !normalized(line).contains("workspace=true") {
                out.push(Diagnostic {
                    code: Code::Mcsd006,
                    path: rel_path.to_string(),
                    line: idx + 1,
                    col: 0,
                    message: format!(
                        "dependency `{dep}` must inherit from [workspace.dependencies] via `workspace = true`"
                    ),
                });
            }
        }
    }
    if lints_section_line == 0 || !lints_workspace {
        out.push(Diagnostic {
            code: Code::Mcsd006,
            path: rel_path.to_string(),
            line: lints_section_line,
            col: 0,
            message:
                "manifest must carry `[lints]\\nworkspace = true` so workspace lint policy applies"
                    .to_string(),
        });
    }
    out
}

/// Check that a library root carries every [`LIB_HEADER`] line within its
/// first [`LIB_HEADER_WINDOW`] lines; one finding per missing line.
pub fn check_lib_header(rel_path: &str, content: &str) -> Vec<Diagnostic> {
    LIB_HEADER
        .iter()
        .filter(|want| {
            !content
                .lines()
                .take(LIB_HEADER_WINDOW)
                .any(|l| l.trim() == **want)
        })
        .map(|want| {
            Diagnostic::new(
                Code::Mcsd006,
                rel_path,
                1,
                format!(
                    "library root must carry `{want}` within its first {LIB_HEADER_WINDOW} lines"
                ),
            )
        })
        .collect()
}

fn section_header(line: &str) -> Option<&str> {
    let inner = line.strip_prefix('[')?.strip_suffix(']')?;
    Some(inner.trim().trim_matches(|c| c == '[' || c == ']'))
}

fn strip_toml_comment(line: &str) -> &str {
    // Good enough for this workspace: no `#` appears inside manifest
    // strings, so the first `#` starts a comment.
    match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn normalized(line: &str) -> String {
    line.chars().filter(|c| !c.is_whitespace()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conforming_manifest_passes() {
        let toml = "[package]\nname = \"x\"\n\n[dependencies]\nrand = { workspace = true }\nserde.workspace = true\n\n[lints]\nworkspace = true\n";
        assert!(check_manifest("crates/x/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn non_workspace_dep_flagged() {
        let toml = "[dependencies]\nrand = \"0.8\"\n\n[lints]\nworkspace = true\n";
        let diags = check_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::Mcsd006);
        assert!(diags[0].message.contains("`rand`"));
    }

    #[test]
    fn missing_lints_table_flagged() {
        let toml = "[package]\nname = \"x\"\n";
        let diags = check_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("[lints]"));
    }

    #[test]
    fn lib_header_enforced() {
        let full = format!("//! docs\n{}\n", LIB_HEADER.join("\n"));
        assert!(check_lib_header("src/lib.rs", &full).is_empty());
        // `warn` instead of `deny` for missing docs.
        let diags = check_lib_header("src/lib.rs", &full.replace("deny(missing", "warn(missing"));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::Mcsd006);
        assert!(diags[0].message.contains("missing_docs"));
        // The lint-policy lines: absent, and `warn` instead of `deny`.
        let absent = full.replace(LIB_HEADER[3], "");
        let diags = check_lib_header("src/lib.rs", &absent);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("disallowed_methods"));
        let warned = full.replace("not(test), deny(", "not(test), warn(");
        assert_eq!(check_lib_header("src/lib.rs", &warned).len(), 4);
    }
}
