//! Diagnostic codes and the diagnostic record.

use std::fmt;

/// Stable diagnostic codes. Codes are append-only: a code is never reused
/// or renumbered, so waivers and CI greps stay valid across versions.
/// MCSD001–005, MCSD007 and MCSD008 are retired (see [`RETIRED_CODES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// A waiver comment that is malformed or matches no diagnostic.
    Mcsd000,
    /// Workspace hygiene: dependency not inherited from
    /// `[workspace.dependencies]`, missing `[lints] workspace = true`, or
    /// a `lib.rs` missing the agreed lint-policy header.
    Mcsd006,
    /// Counter-ownership violation: a field of one of the counter families
    /// mutated outside the files [`crate::ownership::WRITERS`] allows, or
    /// `WRITERS` and the struct definitions disagreeing in either
    /// direction.
    Mcsd009,
    /// Determinism hazard: `HashMap`/`HashSet` iteration whose results
    /// reach an exporter/report/trace sink with no intervening sort, or a
    /// trace call stamping its track with a `ClockDomain` other than the
    /// one the track's first call site stamps.
    Mcsd010,
}

/// Every enforceable code, in reporting order.
pub const ALL_CODES: [Code; 4] = [Code::Mcsd000, Code::Mcsd006, Code::Mcsd009, Code::Mcsd010];

/// Retired codes, never reused, each with where its rule went: a waiver
/// naming one is malformed (MCSD000) and says so.
pub const RETIRED_CODES: [(&str, &str); 7] = [
    (
        "MCSD001",
        "now `clippy::disallowed_methods`, waived with `#[expect]`",
    ),
    (
        "MCSD002",
        "now `clippy::{unwrap_used, expect_used, panic}`, waived with `#[expect]`",
    ),
    ("MCSD003", "now MCSD010, the flow-aware determinism rule"),
    (
        "MCSD004",
        "no rule replaces it; the `rand` shim has no unseeded constructor to call",
    ),
    (
        "MCSD005",
        "now `clippy::print_stdout` and `dbg_macro`, waived with `#[expect]`",
    ),
    (
        "MCSD007",
        "now `clippy.toml`'s `disallowed-*` lists, waived with `#[expect]`",
    ),
    (
        "MCSD008",
        "no rule replaces it; DESIGN.md §9 states the lock order, which review holds",
    ),
];

impl Code {
    /// The stable textual form, e.g. `"MCSD009"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Mcsd000 => "MCSD000",
            Code::Mcsd006 => "MCSD006",
            Code::Mcsd009 => "MCSD009",
            Code::Mcsd010 => "MCSD010",
        }
    }

    /// Parse `"MCSD009"`-style text (as written in waivers).
    pub fn parse(text: &str) -> Option<Code> {
        ALL_CODES.iter().copied().find(|c| c.as_str() == text)
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
    /// The token-level rules (MCSD009, MCSD010) always set it.
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
    fn codes_roundtrip_through_text() {
        for code in ALL_CODES {
            assert_eq!(Code::parse(code.as_str()), Some(code));
        }
        assert_eq!(Code::parse("MCSD999"), None);
        assert_eq!(Code::parse("mcsd009"), None);
        for (retired, _) in RETIRED_CODES {
            assert_eq!(Code::parse(retired), None, "{retired} is retired");
        }
    }

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
