//! The workspace model shared by the token-level analysis passes.
//!
//! Every tidy rule reasons across files: MCSD009 reconciles struct
//! definitions with the `WRITERS` table, and MCSD010 resolves
//! track-name constants that are declared in one file and used in
//! another. [`Workspace`] carries every lexed library file so those passes
//! can run after the walk completes, plus the shared string-constant
//! lookup.

use std::collections::BTreeMap;

use crate::lex::{lex, Token, TokenKind};
use crate::scan::{scan_tokens, ScannedFile};

/// One lexed and scanned library source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators, e.g.
    /// `crates/phoenix/src/runtime.rs`.
    pub path: String,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Masked lines, test-region flags, and waivers.
    pub scanned: ScannedFile,
}

impl SourceFile {
    /// Lex and scan `source` once, as the file at `path`.
    pub fn new(path: &str, source: &str) -> SourceFile {
        let tokens = lex(source);
        let scanned = scan_tokens(source, &tokens);
        SourceFile {
            path: path.to_string(),
            tokens,
            scanned,
        }
    }

    /// True when `line` (1-based) falls inside a test region.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.scanned
            .lines
            .get(line.saturating_sub(1))
            .is_some_and(|l| l.in_test)
    }

    /// Indices of the non-comment tokens, in stream order. The analysis
    /// passes work on this projection so doc comments and inline comments
    /// can never satisfy a pattern.
    pub fn code_token_indices(&self) -> Vec<usize> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Every source file the tidy walk found, in walk (sorted-path) order.
#[derive(Debug, Default)]
pub struct Workspace {
    /// The lexed files.
    pub files: Vec<SourceFile>,
}

/// The inner text of a string-literal token: quotes and any `b`/`r`/`#`
/// prefix stripped, escapes left as written. Returns `None` for tokens
/// that are not string literals.
pub fn str_value(token: &Token) -> Option<String> {
    if token.kind != TokenKind::Str {
        return None;
    }
    let text = token.text.as_str();
    let text = text.strip_prefix('b').unwrap_or(text);
    if let Some(raw) = text.strip_prefix('r') {
        let hashes = raw.chars().take_while(|&c| c == '#').count();
        let raw = &raw[hashes..];
        let inner = raw.strip_prefix('"')?;
        let inner = inner.strip_suffix(&format!("\"{}", "#".repeat(hashes)))?;
        Some(inner.to_string())
    } else {
        let inner = text.strip_prefix('"')?.strip_suffix('"')?;
        Some(inner.to_string())
    }
}

/// Collect every `const NAME: &str = "...";` in non-test library code,
/// workspace-wide. Duplicate names keep the first (sorted-path) value;
/// the tidy walk order makes the result deterministic.
pub fn string_consts(ws: &Workspace) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for file in &ws.files {
        let idx = file.code_token_indices();
        for w in 0..idx.len() {
            let tok = &file.tokens[idx[w]];
            if !(tok.kind == TokenKind::Ident && tok.text == "const") {
                continue;
            }
            if file.line_in_test(tok.line) {
                continue;
            }
            let Some(name) = idx.get(w + 1).map(|&i| &file.tokens[i]) else {
                continue;
            };
            if name.kind != TokenKind::Ident {
                continue;
            }
            // Scan a short window for `= "value" ;` — enough for
            // `const N: &str = "v";` and `const N: &'static str = "v";`.
            let mut value = None;
            for step in w + 2..(w + 9).min(idx.len()) {
                let t = &file.tokens[idx[step]];
                if t.kind == TokenKind::Punct && t.text == "=" {
                    if let Some(next) = idx.get(step + 1).map(|&i| &file.tokens[i]) {
                        value = str_value(next);
                    }
                    break;
                }
                if t.kind == TokenKind::Punct && (t.text == ";" || t.text == "{") {
                    break;
                }
            }
            if let Some(v) = value {
                out.entry(name.text.clone()).or_insert(v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_values_unwrap_delimiters() {
        let toks = lex("\"plain\" r#\"raw\"# b\"bytes\"");
        assert_eq!(str_value(&toks[0]).as_deref(), Some("plain"));
        assert_eq!(str_value(&toks[1]).as_deref(), Some("raw"));
        assert_eq!(str_value(&toks[2]).as_deref(), Some("bytes"));
    }

    #[test]
    fn consts_collected_across_files() {
        let ws = Workspace {
            files: vec![
                SourceFile::new(
                    "crates/a/src/lib.rs",
                    "pub const TRACK: &str = \"mcsd\";\nconst OTHER: &'static str = \"host\";\n",
                ),
                SourceFile::new(
                    "crates/b/src/lib.rs",
                    "#[cfg(test)]\nmod t {\n    const IGNORED: &str = \"x\";\n}\nconst N: usize = 4;\n",
                ),
            ],
        };
        let consts = string_consts(&ws);
        assert_eq!(consts.get("TRACK").map(String::as_str), Some("mcsd"));
        assert_eq!(consts.get("OTHER").map(String::as_str), Some("host"));
        assert!(!consts.contains_key("IGNORED"));
        assert!(!consts.contains_key("N"));
    }
}
