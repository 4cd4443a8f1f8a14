//! Framework error type.

use mcsd_phoenix::PhoenixError;
use mcsd_smartfam::SmartFamError;
use std::fmt;

/// Errors surfaced by the McSD framework.
#[derive(Debug)]
pub enum McsdError {
    /// The Phoenix runtime failed (memory overflow, bad config, worker
    /// panic).
    Phoenix(PhoenixError),
    /// The smartFAM invocation path failed.
    SmartFam(SmartFamError),
    /// Filesystem error while staging data.
    Io(std::io::Error),
    /// A scenario was configured inconsistently.
    BadScenario {
        /// What was wrong.
        detail: String,
    },
    /// Memory-budget admission refused the job: even at the minimum
    /// re-partition fragment the input exceeds the target node's hard
    /// memory limit, so no adaptive shrinking can make it runnable there.
    MemoryOverflow {
        /// The job's input size.
        input_bytes: u64,
        /// The node's hard input limit.
        limit_bytes: u64,
        /// The re-partition floor that still did not fit.
        min_fragment_bytes: u64,
    },
}

impl fmt::Display for McsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McsdError::Phoenix(e) => write!(f, "phoenix runtime: {e}"),
            McsdError::SmartFam(e) => write!(f, "smartFAM: {e}"),
            McsdError::Io(e) => write!(f, "I/O: {e}"),
            McsdError::BadScenario { detail } => write!(f, "bad scenario: {detail}"),
            McsdError::MemoryOverflow {
                input_bytes,
                limit_bytes,
                min_fragment_bytes,
            } => write!(
                f,
                "memory admission refused: {input_bytes}B input exceeds the \
                 {limit_bytes}B hard limit even at the {min_fragment_bytes}B \
                 re-partition floor"
            ),
        }
    }
}

impl std::error::Error for McsdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McsdError::Phoenix(e) => Some(e),
            McsdError::SmartFam(e) => Some(e),
            McsdError::Io(e) => Some(e),
            McsdError::BadScenario { .. } | McsdError::MemoryOverflow { .. } => None,
        }
    }
}

impl From<PhoenixError> for McsdError {
    fn from(e: PhoenixError) -> Self {
        McsdError::Phoenix(e)
    }
}

impl From<SmartFamError> for McsdError {
    fn from(e: SmartFamError) -> Self {
        McsdError::SmartFam(e)
    }
}

impl From<std::io::Error> for McsdError {
    fn from(e: std::io::Error) -> Self {
        McsdError::Io(e)
    }
}

impl McsdError {
    /// Stable short name of the error variant for trace attributes —
    /// never embeds run-varying detail such as request ids (DESIGN.md
    /// §12). smartFAM errors delegate to [`SmartFamError::kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            McsdError::Phoenix(_) => "phoenix",
            McsdError::SmartFam(e) => e.kind(),
            McsdError::Io(_) => "io",
            McsdError::BadScenario { .. } => "bad_scenario",
            McsdError::MemoryOverflow { .. } => "memory_overflow",
        }
    }

    /// Whether this is an out-of-memory failure — either the Phoenix
    /// runtime overflowing mid-run (the condition partitioning exists to
    /// fix) or memory-budget admission refusing the job up front.
    pub fn is_memory_overflow(&self) -> bool {
        matches!(
            self,
            McsdError::Phoenix(PhoenixError::MemoryOverflow { .. })
                | McsdError::MemoryOverflow { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: McsdError = PhoenixError::NoWorkers.into();
        assert!(e.to_string().contains("phoenix"));
        assert!(!e.is_memory_overflow());

        let e: McsdError = PhoenixError::MemoryOverflow {
            input_bytes: 10,
            limit_bytes: 5,
        }
        .into();
        assert!(e.is_memory_overflow());

        let e: McsdError = SmartFamError::DaemonDead { module: "m".into() }.into();
        assert!(e.to_string().contains("smartFAM"));

        let e: McsdError = std::io::Error::other("disk on fire").into();
        assert!(e.to_string().contains("disk on fire"));

        let e = McsdError::MemoryOverflow {
            input_bytes: 900,
            limit_bytes: 750,
            min_fragment_bytes: 800,
        };
        assert!(e.is_memory_overflow());
        assert!(e.to_string().contains("admission refused"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn sources_chain() {
        let e: McsdError = PhoenixError::NoWorkers.into();
        assert!(std::error::Error::source(&e).is_some());
        let e = McsdError::BadScenario { detail: "x".into() };
        assert!(std::error::Error::source(&e).is_none());
    }
}
