//! Diagnostic codes and the diagnostic record.

use std::fmt;

/// Stable diagnostic codes. A code is never reused or renumbered, so CI
/// greps stay valid across versions; DESIGN.md §14's catalog lists the
/// retired ones and where each rule went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Workspace hygiene: dependency not inherited from
    /// `[workspace.dependencies]`, missing `[lints] workspace = true`, or
    /// a `lib.rs` missing the agreed lint-policy header.
    Mcsd006,
    /// Counter-ownership violation: a field of one of the counter families
    /// mutated outside the files [`crate::ownership::WRITERS`] allows, or
    /// `WRITERS` and the struct definitions disagreeing in either
    /// direction.
    Mcsd009,
}

impl Code {
    /// The stable textual form, e.g. `"MCSD009"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Mcsd006 => "MCSD006",
            Code::Mcsd009 => "MCSD009",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, pointing at a file and (1-based) line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which invariant was violated.
    pub code: Code,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number; 0 for whole-file findings.
    pub line: usize,
    /// 1-based character column; 0 when the finding spans the whole line.
    /// The token-level rule (MCSD009) always sets it.
    pub col: usize,
    /// Human-readable explanation of this specific finding.
    pub message: String,
}

impl Diagnostic {
    /// Build a whole-line diagnostic (column unknown).
    pub fn new(code: Code, path: &str, line: usize, message: String) -> Diagnostic {
        Diagnostic {
            code,
            path: path.to_string(),
            line,
            col: 0,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.col) {
            (0, _) => write!(f, "{} {}: {}", self.code, self.path, self.message),
            (line, 0) => write!(f, "{} {}:{}: {}", self.code, self.path, line, self.message),
            (line, col) => write!(
                f,
                "{} {}:{}:{}: {}",
                self.code, self.path, line, col, self.message
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let d = Diagnostic::new(
            Code::Mcsd006,
            "crates/x/src/lib.rs",
            7,
            "missing header".into(),
        );
        assert_eq!(
            d.to_string(),
            "MCSD006 crates/x/src/lib.rs:7: missing header"
        );
        let with_col = Diagnostic { col: 9, ..d };
        assert_eq!(
            with_col.to_string(),
            "MCSD006 crates/x/src/lib.rs:7:9: missing header"
        );
    }
}
