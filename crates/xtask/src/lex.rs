//! A std-only Rust lexer: the token stream every tidy rule is built on.
//!
//! The lexer understands exactly as much Rust surface syntax as the rules
//! need — identifiers, lifetimes, numbers, string/char literals (including
//! raw and byte forms), nested block comments, and multi-character
//! punctuation — and records a character-indexed span for every token so
//! findings can point at an exact line and column. It deliberately does
//! not parse: the analysis passes ([`crate::ownership`],
//! [`crate::determinism`]) pattern-match over this stream with their own
//! small amounts of context (brace depth, statement boundaries).
//!
//! Spans are measured in characters, not bytes, matching the scanner's
//! char-oriented masking so line/column numbers agree between the masked
//! line checks and the token-level rules.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `let`, `Mutex`, ...).
    Ident,
    /// Lifetime such as `'a` (kept distinct from char literals).
    Lifetime,
    /// Numeric literal, including suffixed and based forms (`0x1F`, `3u64`).
    Num,
    /// String literal: `"..."`, `r#"..."#`, `b"..."`, `br#"..."#`.
    Str,
    /// Character literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// Punctuation; multi-character operators (`::`, `+=`, `==`, `..=`)
    /// are single tokens so `=` is never ambiguous downstream.
    Punct,
    /// A `//` comment. [`Token::text`] holds the content *after* the
    /// slashes (so `///` doc comments start with `/`).
    LineComment,
    /// A `/* ... */` comment, possibly nested and multi-line.
    BlockComment,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// The lexeme class.
    pub kind: TokenKind,
    /// Source text. Identical to the span for every kind except
    /// [`TokenKind::LineComment`], where it is the content after `//`.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
    /// 1-based character column the token starts at.
    pub col: usize,
    /// Character offset of the token's first character in the file.
    pub start: usize,
    /// Length of the token in characters (delimiters included).
    pub len: usize,
}

/// True for characters that can appear in a Rust identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

/// Three-character operators, matched before the two-character ones.
const PUNCT3: [&str; 3] = ["..=", "<<=", ">>="];
/// Two-character operators, matched before single characters.
const PUNCT2: [&str; 19] = [
    "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "&&",
    "||", "<<", "..",
];

/// Lex Rust source into a token stream. Never fails: unterminated
/// literals and comments simply extend to end of file.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
    out: Vec<Token>,
}

/// Position snapshot taken at the start of a token.
struct Mark {
    pos: usize,
    line: usize,
    col: usize,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn advance(&mut self) {
        if let Some(&c) = self.chars.get(self.pos) {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
    }

    fn advance_by(&mut self, n: usize) {
        for _ in 0..n {
            self.advance();
        }
    }

    fn mark(&self) -> Mark {
        Mark {
            pos: self.pos,
            line: self.line,
            col: self.col,
        }
    }

    fn emit(&mut self, kind: TokenKind, mark: &Mark) {
        let text: String = self.chars[mark.pos..self.pos].iter().collect();
        self.emit_text(kind, mark, text);
    }

    fn emit_text(&mut self, kind: TokenKind, mark: &Mark, text: String) {
        self.out.push(Token {
            kind,
            text,
            line: mark.line,
            col: mark.col,
            start: mark.pos,
            len: self.pos - mark.pos,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let next = self.peek(1);
            if c.is_whitespace() {
                self.advance();
            } else if c == '/' && next == Some('/') {
                self.line_comment();
            } else if c == '/' && next == Some('*') {
                self.block_comment();
            } else if c == '"' {
                let mark = self.mark();
                self.string_body(&mark);
            } else if (c == 'r' || c == 'b') && !self.prev_is_ident() && self.try_raw_or_byte() {
                // consumed by try_raw_or_byte
            } else if c == '\'' {
                self.char_or_lifetime();
            } else if c.is_ascii_digit() {
                self.number();
            } else if is_ident_start(c) {
                self.ident();
            } else {
                self.punct();
            }
        }
        self.out
    }

    fn prev_is_ident(&self) -> bool {
        self.pos > 0 && is_ident_char(self.chars[self.pos - 1])
    }

    fn line_comment(&mut self) {
        let mark = self.mark();
        self.advance_by(2);
        let content_start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.advance();
        }
        let text: String = self.chars[content_start..self.pos].iter().collect();
        self.emit_text(TokenKind::LineComment, &mark, text);
    }

    fn block_comment(&mut self) {
        let mark = self.mark();
        self.advance_by(2);
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.advance_by(2);
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.advance_by(2);
                }
                (Some(_), _) => self.advance(),
                (None, _) => break,
            }
        }
        self.emit(TokenKind::BlockComment, &mark);
    }

    /// Consume a `"..."` body starting at the opening quote; `mark` may
    /// point earlier when a `b`/`r#` prefix was already consumed.
    fn string_body(&mut self, mark: &Mark) {
        self.advance(); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '\\' && self.peek(1).is_some() {
                self.advance_by(2);
            } else if c == '"' {
                self.advance();
                break;
            } else {
                self.advance();
            }
        }
        self.emit(TokenKind::Str, mark);
    }

    /// Consume a raw-string body (`"..."#`*n*) after the opening quote.
    fn raw_string_body(&mut self, mark: &Mark, hashes: usize) {
        self.advance(); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '"' && self.hashes_at(self.pos + 1) >= hashes {
                self.advance_by(1 + hashes);
                break;
            }
            self.advance();
        }
        self.emit(TokenKind::Str, mark);
    }

    fn hashes_at(&self, mut i: usize) -> usize {
        let mut n = 0;
        while self.chars.get(i).copied() == Some('#') {
            n += 1;
            i += 1;
        }
        n
    }

    /// Handle `r"`, `r#"`, `b"`, `br#"`, and `b'` starts. Returns false
    /// when the `r`/`b` begins an ordinary identifier (e.g. `r#match` raw
    /// identifiers or plain words), leaving the position untouched.
    fn try_raw_or_byte(&mut self) -> bool {
        let mark = self.mark();
        let c = self.chars[self.pos];
        let mut j = self.pos + 1;
        if c == 'b' {
            match self.chars.get(j).copied() {
                Some('\'') => {
                    self.advance(); // the `b`
                    self.char_body(&mark);
                    return true;
                }
                Some('"') => {
                    self.advance();
                    self.string_body(&mark);
                    return true;
                }
                Some('r') => j += 1,
                _ => return false,
            }
        }
        let hashes = self.hashes_at(j);
        if self.chars.get(j + hashes).copied() == Some('"') {
            self.advance_by(j + hashes - self.pos);
            self.raw_string_body(&mark, hashes);
            true
        } else {
            false
        }
    }

    /// Consume a char literal from its opening quote; `mark` may include
    /// a `b` prefix already consumed.
    fn char_body(&mut self, mark: &Mark) {
        self.advance(); // opening quote
        if self.peek(0) == Some('\\') {
            self.advance();
            if self.peek(0) == Some('u') && self.peek(1) == Some('{') {
                while let Some(c) = self.peek(0) {
                    self.advance();
                    if c == '}' {
                        break;
                    }
                }
            } else if self.peek(0).is_some() {
                self.advance();
            }
        } else if self.peek(0).is_some() {
            self.advance();
        }
        if self.peek(0) == Some('\'') {
            self.advance();
        }
        self.emit(TokenKind::Char, mark);
    }

    fn char_or_lifetime(&mut self) {
        let mark = self.mark();
        let next = self.peek(1);
        if next == Some('\\') || (self.peek(2) == Some('\'') && next != Some('\'')) {
            self.char_body(&mark);
        } else {
            // Lifetime such as `'a` or `'static`.
            self.advance();
            while self.peek(0).is_some_and(is_ident_char) {
                self.advance();
            }
            self.emit(TokenKind::Lifetime, &mark);
        }
    }

    fn number(&mut self) {
        let mark = self.mark();
        while let Some(c) = self.peek(0) {
            let decimal_point = c == '.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && !matches!(self.out.last(), Some(t) if t.kind == TokenKind::Punct && t.text == ".");
            if is_ident_char(c) || decimal_point {
                self.advance();
            } else {
                break;
            }
        }
        self.emit(TokenKind::Num, &mark);
    }

    fn ident(&mut self) {
        let mark = self.mark();
        while self.peek(0).is_some_and(is_ident_char) {
            self.advance();
        }
        self.emit(TokenKind::Ident, &mark);
    }

    fn punct(&mut self) {
        let mark = self.mark();
        let rest: String = self.chars.iter().skip(self.pos).take(3).collect();
        let take = if PUNCT3.iter().any(|p| rest.starts_with(p)) {
            3
        } else if PUNCT2.iter().any(|p| rest.starts_with(p)) {
            2
        } else {
            1
        };
        self.advance_by(take);
        self.emit(TokenKind::Punct, &mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_punct() {
        let toks = kinds("let x = a.lock();");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "let".to_string()),
                (TokenKind::Ident, "x".to_string()),
                (TokenKind::Punct, "=".to_string()),
                (TokenKind::Ident, "a".to_string()),
                (TokenKind::Punct, ".".to_string()),
                (TokenKind::Ident, "lock".to_string()),
                (TokenKind::Punct, "(".to_string()),
                (TokenKind::Punct, ")".to_string()),
                (TokenKind::Punct, ";".to_string()),
            ]
        );
    }

    #[test]
    fn multi_char_punct_is_one_token() {
        let toks = kinds("a += b == c..=d :: e");
        let puncts: Vec<String> = toks
            .into_iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(puncts, vec!["+=", "==", "..=", "::"]);
    }

    #[test]
    fn strings_and_raw_strings() {
        let toks = kinds(r##"let s = r#"panic!"# ; let t = "x\"y";"##);
        let strs: Vec<String> = toks
            .into_iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[0].contains("panic!"));
        assert!(strs[1].contains("x\\\"y"));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("let c = 'x'; let s: &'static str = \"\"; let n = '\\n';");
        let chars = toks.iter().filter(|(k, _)| *k == TokenKind::Char).count();
        let lifetimes = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .count();
        assert_eq!(chars, 2);
        assert_eq!(lifetimes, 1);
    }

    #[test]
    fn comments_carry_content() {
        let toks = lex("code(); // tidy:allow(MCSD010) -- why\n/* block */");
        let line: Vec<&Token> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::LineComment)
            .collect();
        assert_eq!(line.len(), 1);
        assert_eq!(line[0].text, " tidy:allow(MCSD010) -- why");
        assert!(toks.iter().any(|t| t.kind == TokenKind::BlockComment));
    }

    #[test]
    fn doc_comment_text_keeps_third_slash() {
        let toks = lex("/// doc text");
        assert_eq!(toks[0].kind, TokenKind::LineComment);
        assert_eq!(toks[0].text, "/ doc text");
    }

    #[test]
    fn spans_are_char_indexed() {
        let src = "ab \"s\" cd";
        let toks = lex(src);
        assert_eq!(toks[1].kind, TokenKind::Str);
        assert_eq!(toks[1].start, 3);
        assert_eq!(toks[1].len, 3);
        assert_eq!(toks[2].text, "cd");
        assert_eq!(toks[2].col, 8);
    }

    #[test]
    fn lines_and_cols_advance() {
        let toks = lex("a\n  b\n\tc");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
        assert_eq!((toks[2].line, toks[2].col), (3, 2));
    }

    #[test]
    fn byte_literals() {
        let toks = kinds("let a = b'x'; let s = b\"bytes\"; let r = br#\"raw\"#;");
        let chars = toks.iter().filter(|(k, _)| *k == TokenKind::Char).count();
        let strs = toks.iter().filter(|(k, _)| *k == TokenKind::Str).count();
        assert_eq!(chars, 1);
        assert_eq!(strs, 2);
    }

    #[test]
    fn nested_block_comment() {
        let toks = lex("/* a /* b */ c */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert_eq!(toks[1].text, "x");
    }

    #[test]
    fn numbers_including_float_and_range() {
        let toks = kinds("1.5 + 0x1F + 3u64; for i in 0..10 {}");
        let nums: Vec<String> = toks
            .into_iter()
            .filter(|(k, _)| *k == TokenKind::Num)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(nums, vec!["1.5", "0x1F", "3u64", "0", "10"]);
    }
}
