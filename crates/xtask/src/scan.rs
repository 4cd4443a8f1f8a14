//! Source scanning: masking of strings/comments, `cfg(test)` region
//! tracking, and waiver parsing.
//!
//! Since the token-level rewrite, the scanner is a thin projection of the
//! [`crate::lex`] token stream: string/char literals and comments become
//! runs of spaces in the masked lines (so the line-based rules can never
//! fire inside them), waivers are parsed out of line-comment tokens, and
//! `#[cfg(test)]` / `#[test]` regions are tracked by brace depth over the
//! masked lines. The workspace analysis pass shares the same token stream
//! via [`scan_tokens`], so each file is lexed exactly once.

use crate::diag::{Code, RETIRED_CODES};
use crate::lex::{lex, Token, TokenKind};

pub use crate::lex::is_ident_char;

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct LineInfo {
    /// The line with string/char-literal contents and comments replaced by
    /// spaces; lint patterns match against this, never the raw text.
    pub code: String,
    /// True when the line sits inside a `#[cfg(test)]` region or a
    /// `#[test]` function.
    pub in_test: bool,
}

/// A parsed `// tidy:allow(...)` waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// 1-based line the waiver comment appears on. It suppresses matching
    /// diagnostics on this line and the one directly below it.
    pub line: usize,
    /// Codes the waiver names (empty when malformed).
    pub codes: Vec<Code>,
    /// `Some(explanation)` when the waiver fails to parse; such waivers
    /// suppress nothing and are reported as MCSD000.
    pub malformed: Option<String>,
}

/// The result of scanning one file.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Per-line masked code plus test-region flags, in file order.
    pub lines: Vec<LineInfo>,
    /// All waiver comments found, in file order.
    pub waivers: Vec<Waiver>,
}

/// Scan Rust source text into masked lines and waivers.
pub fn scan_source(source: &str) -> ScannedFile {
    scan_tokens(source, &lex(source))
}

/// Build a [`ScannedFile`] from an already-lexed token stream.
pub fn scan_tokens(source: &str, tokens: &[Token]) -> ScannedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut blank = vec![false; chars.len()];
    let mut waivers = Vec::new();
    for tok in tokens {
        match tok.kind {
            TokenKind::Str | TokenKind::Char | TokenKind::LineComment | TokenKind::BlockComment => {
                for flag in blank.iter_mut().skip(tok.start).take(tok.len) {
                    *flag = true;
                }
            }
            _ => {}
        }
        if tok.kind == TokenKind::LineComment {
            let trimmed = tok.text.trim();
            if trimmed.starts_with("tidy:allow") {
                waivers.push(parse_waiver(tok.line, trimmed));
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

    ScannedFile { lines, waivers }
}

fn parse_waiver(line: usize, text: &str) -> Waiver {
    let malformed = |msg: &str| Waiver {
        line,
        codes: Vec::new(),
        malformed: Some(msg.to_string()),
    };
    let Some(rest) = text.strip_prefix("tidy:allow") else {
        return malformed("waiver must start with `tidy:allow`");
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return malformed("expected `(` after `tidy:allow`");
    };
    let Some(close) = rest.find(')') else {
        return malformed("unclosed `(` in waiver");
    };
    let (code_list, tail) = rest.split_at(close);
    let tail = &tail[1..];
    let mut codes = Vec::new();
    for part in code_list.split(',') {
        let part = part.trim();
        match Code::parse(part) {
            Some(Code::Mcsd000) => {
                return malformed("MCSD000 cannot be waived");
            }
            Some(code) => codes.push(code),
            None => match RETIRED_CODES.iter().find(|(retired, _)| *retired == part) {
                Some((_, now)) => {
                    return malformed(&format!("retired code (DESIGN.md §14): {now}"))
                }
                None => return malformed("unknown diagnostic code in waiver"),
            },
        }
    }
    if codes.is_empty() {
        return malformed("waiver names no diagnostic codes");
    }
    let tail = tail.trim_start();
    match tail.strip_prefix("--") {
        Some(reason) if !reason.trim().is_empty() => Waiver {
            line,
            codes,
            malformed: None,
        },
        _ => malformed("waiver must end with `-- reason`"),
    }
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

    #[test]
    fn waiver_parses() {
        let src = "// tidy:allow(MCSD009, MCSD010) -- real I/O timing\nfoo();\n";
        let scanned = scan_source(src);
        assert_eq!(scanned.waivers.len(), 1);
        let w = &scanned.waivers[0];
        assert!(w.malformed.is_none());
        assert_eq!(w.codes, vec![Code::Mcsd009, Code::Mcsd010]);
        assert_eq!(w.line, 1);
    }

    #[test]
    fn waiver_without_reason_is_malformed() {
        let scanned = scan_source("// tidy:allow(MCSD010)\n");
        assert!(scanned.waivers[0].malformed.is_some());
    }

    #[test]
    fn waiver_with_unknown_code_is_malformed() {
        let scanned = scan_source("// tidy:allow(MCSD042) -- because\n");
        assert!(scanned.waivers[0].malformed.is_some());
    }

    #[test]
    fn waiver_with_retired_code_is_malformed() {
        for (code, now) in RETIRED_CODES {
            let scanned = scan_source(&format!("// tidy:allow({code}) -- from before\n"));
            let why = scanned.waivers[0].malformed.as_deref().unwrap_or("");
            assert_eq!(
                why,
                format!("retired code (DESIGN.md §14): {now}"),
                "{code}"
            );
            // Only a rule that became a compiler lint is waived with one.
            assert_eq!(
                why.contains("#[expect]"),
                why.contains("clippy"),
                "{code}: {why}"
            );
        }
    }

    #[test]
    fn doc_comment_does_not_become_waiver() {
        let scanned = scan_source("/// tidy:allow(MCSD010) -- mentioned in docs\n");
        assert!(scanned.waivers.is_empty());
    }
}
