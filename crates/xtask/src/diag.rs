//! Diagnostic codes and the diagnostic record.

use std::fmt;

/// Stable diagnostic codes. Codes are append-only: a code is never reused
/// or renumbered, so waivers and CI greps stay valid across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// A waiver comment that is malformed or matches no diagnostic.
    Mcsd000,
    /// Wall-clock read (`Instant::now`, `SystemTime::now`, `thread::sleep`)
    /// in simulation-crate library code outside the sanctioned stopwatch.
    Mcsd001,
    /// `unwrap()`/`expect()`/`panic!`/`todo!` in library code.
    Mcsd002,
    /// Unseeded RNG (`thread_rng`, `from_entropy`, `rand::random`).
    Mcsd004,
    /// `println!`/`print!`/`dbg!` in library code.
    Mcsd005,
    /// Workspace hygiene: dependency not inherited from
    /// `[workspace.dependencies]`, missing `[lints] workspace = true`, or
    /// a `lib.rs` missing the agreed deny header.
    Mcsd006,
    /// Scheduler policy leak: `CircuitBreaker`, `plan_admission`, or
    /// overload-counter mutation referenced from an mcsd-core module other
    /// than the engine-owned ones (engine.rs, breaker.rs, admission.rs,
    /// lib.rs re-exports).
    Mcsd007,
    /// Lock-order hazard: a cycle in the static lock-acquisition graph, a
    /// lock re-acquired while already held, or a lock held across blocking
    /// file I/O or a channel send/recv.
    Mcsd008,
    /// Counter-ownership violation: a counter family field (OverloadStats,
    /// ResilienceStats, DaemonStats, JobStats) mutated outside the modules
    /// the DESIGN.md §13 ownership table names, or the table and the
    /// struct definitions disagreeing in either direction.
    Mcsd009,
    /// Determinism hazard: `HashMap`/`HashSet` iteration whose results
    /// reach an exporter/report/trace sink with no intervening sort, or a
    /// trace call whose track is stamped with a `ClockDomain` other than
    /// the one the DESIGN.md §12 catalog declares.
    Mcsd010,
}

/// Every enforceable code, in reporting order.
pub const ALL_CODES: [Code; 10] = [
    Code::Mcsd000,
    Code::Mcsd001,
    Code::Mcsd002,
    Code::Mcsd004,
    Code::Mcsd005,
    Code::Mcsd006,
    Code::Mcsd007,
    Code::Mcsd008,
    Code::Mcsd009,
    Code::Mcsd010,
];

impl Code {
    /// The stable textual form, e.g. `"MCSD002"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Mcsd000 => "MCSD000",
            Code::Mcsd001 => "MCSD001",
            Code::Mcsd002 => "MCSD002",
            Code::Mcsd004 => "MCSD004",
            Code::Mcsd005 => "MCSD005",
            Code::Mcsd006 => "MCSD006",
            Code::Mcsd007 => "MCSD007",
            Code::Mcsd008 => "MCSD008",
            Code::Mcsd009 => "MCSD009",
            Code::Mcsd010 => "MCSD010",
        }
    }

    /// Parse `"MCSD001"`-style text (as written in waivers).
    pub fn parse(text: &str) -> Option<Code> {
        ALL_CODES.iter().copied().find(|c| c.as_str() == text)
    }

    /// One-line summary of what the code enforces.
    pub fn summary(self) -> &'static str {
        match self {
            Code::Mcsd000 => "malformed or unused tidy waiver",
            Code::Mcsd001 => "wall-clock time in simulation-crate library code",
            Code::Mcsd002 => "panic path (unwrap/expect/panic!/todo!) in library code",
            Code::Mcsd004 => "unseeded randomness outside test code",
            Code::Mcsd005 => "stdout debugging (println!/print!/dbg!) in library code",
            Code::Mcsd006 => "workspace hygiene (workspace deps, lints table, lib.rs header)",
            Code::Mcsd007 => {
                "scheduler policy (breaker/admission/overload counters) outside engine.rs"
            }
            Code::Mcsd008 => "lock-order cycle or lock held across blocking I/O / channel ops",
            Code::Mcsd009 => "counter mutated outside its DESIGN.md §13 owning module",
            Code::Mcsd010 => {
                "hash-ordered iteration reaching a sink unsorted, or trace clock-domain mismatch"
            }
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
    /// The token-level rules (MCSD008–010) always set it.
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

    /// Render as a stable single-line JSON object (machine output).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            self.code,
            escape_json(&self.path),
            self.line,
            self.col,
            escape_json(&self.message),
        )
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

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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
        assert_eq!(Code::parse("mcsd001"), None);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn display_forms() {
        let d = Diagnostic::new(
            Code::Mcsd002,
            "crates/x/src/lib.rs",
            7,
            "found `.unwrap()`".into(),
        );
        assert_eq!(
            d.to_string(),
            "MCSD002 crates/x/src/lib.rs:7: found `.unwrap()`"
        );
        assert!(d.to_json().contains("\"line\":7"));
        let with_col = Diagnostic { col: 9, ..d };
        assert_eq!(
            with_col.to_string(),
            "MCSD002 crates/x/src/lib.rs:7:9: found `.unwrap()`"
        );
    }
}
