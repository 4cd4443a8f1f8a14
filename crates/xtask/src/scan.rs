//! Source scanning: masking of strings/comments and `cfg(test)` region
//! tracking.
//!
//! The scanner is a thin projection of the [`crate::lex`] token stream:
//! string/char literals and comments become runs of spaces in the masked
//! lines (so a brace or attribute inside them never counts), and
//! `#[cfg(test)]` / `#[test]` regions are tracked by brace depth over the
//! masked lines. The workspace shares the same token stream via
//! [`scan_tokens`], so each file is lexed exactly once.

use crate::lex::{lex, Token, TokenKind};

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct LineInfo {
    /// The line with string/char-literal contents and comments replaced by
    /// spaces; test-region tracking reads this, never the raw text.
    pub code: String,
    /// True when the line sits inside a `#[cfg(test)]` region or a
    /// `#[test]` function.
    pub in_test: bool,
}

/// The result of scanning one file.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Per-line masked code plus test-region flags, in file order.
    pub lines: Vec<LineInfo>,
}

/// Scan Rust source text into masked lines.
pub fn scan_source(source: &str) -> ScannedFile {
    scan_tokens(source, &lex(source))
}

/// Build a [`ScannedFile`] from an already-lexed token stream.
pub fn scan_tokens(source: &str, tokens: &[Token]) -> ScannedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut blank = vec![false; chars.len()];
    for tok in tokens {
        if let TokenKind::Str | TokenKind::Char | TokenKind::LineComment | TokenKind::BlockComment =
            tok.kind
        {
            for flag in blank.iter_mut().skip(tok.start).take(tok.len) {
                *flag = true;
            }
        }
    }

    let mut raw_lines: Vec<String> = Vec::new();
    let mut current = String::new();
    for (i, &c) in chars.iter().enumerate() {
        if c == '\n' {
            raw_lines.push(std::mem::take(&mut current));
        } else if blank[i] {
            current.push(' ');
        } else {
            current.push(c);
        }
    }
    if !current.is_empty() {
        raw_lines.push(current);
    }

    let mut lines = Vec::with_capacity(raw_lines.len());
    let mut pending_test = false;
    let mut depth: i64 = 0;
    let mut region_starts: Vec<i64> = Vec::new();

    for code in raw_lines {
        let has_test_attr = code.contains("#[cfg(test)]") || code.contains("#[test]");
        if has_test_attr {
            pending_test = true;
        }
        let in_test = pending_test || !region_starts.is_empty();
        for ch in code.chars() {
            if ch == '{' {
                if pending_test {
                    region_starts.push(depth);
                    pending_test = false;
                }
                depth += 1;
            } else if ch == '}' {
                depth -= 1;
                if region_starts.last() == Some(&depth) {
                    region_starts.pop();
                }
            }
        }
        lines.push(LineInfo { code, in_test });
    }

    ScannedFile { lines }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masked(src: &str) -> Vec<String> {
        scan_source(src).lines.into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn strings_and_comments_are_masked() {
        let lines = masked("let x = \"panic!(\"; // .unwrap()\nfoo();");
        assert!(!lines[0].contains("panic!("));
        assert!(!lines[0].contains(".unwrap()"));
        assert!(lines[0].contains("let x ="));
        assert_eq!(lines[1], "foo();");
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let lines = masked("let s = r#\"thread_rng\"#; let c = 'x'; let lt: &'static str = s;");
        assert!(!lines[0].contains("thread_rng"));
        assert!(lines[0].contains("&'static str"));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let lines = masked("let s = \"a\\\"b.unwrap()\"; bar();");
        assert!(!lines[0].contains(".unwrap()"));
        assert!(lines[0].contains("bar();"));
    }

    #[test]
    fn nested_block_comments() {
        let lines = masked("/* outer /* inner */ still.unwrap() */ code();");
        assert!(!lines[0].contains(".unwrap()"));
        assert!(lines[0].contains("code();"));
    }

    #[test]
    fn masked_lines_preserve_column_alignment() {
        let src = "emit(\"abc\", x);";
        let lines = masked(src);
        assert_eq!(lines[0].chars().count(), src.chars().count());
        assert_eq!(lines[0], "emit(     , x);");
    }

    #[test]
    fn cfg_test_region_tracked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}\n";
        let scanned = scan_source(src);
        let flags: Vec<bool> = scanned.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn test_fn_region_tracked() {
        let src = "fn lib() {}\n#[test]\nfn t() {\n    boom();\n}\nfn lib2() {}\n";
        let scanned = scan_source(src);
        let flags: Vec<bool> = scanned.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }
}
