//! The workspace model the token-level rule runs on.
//!
//! MCSD009 reasons across files: it reconciles struct definitions with
//! the `WRITERS` table and checks every mutation site. [`Workspace`]
//! carries every lexed library file so the pass can run after the walk
//! completes.

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
    /// Masked lines and test-region flags.
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

    /// Indices of the non-comment tokens, in stream order. MCSD009 works
    /// on this projection so doc comments and inline comments
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
