//! smartFAM error types.

use std::fmt;
use std::io;
use std::time::Duration;

/// Errors produced by the smartFAM mechanism.
#[derive(Debug)]
pub enum SmartFamError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A log-file frame failed to decode (truncated write in progress or
    /// corruption).
    Corrupt {
        /// Byte offset of the bad frame.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A call did not complete within its deadline.
    Timeout {
        /// The module that was invoked.
        module: String,
        /// The request id.
        request_id: u64,
    },
    /// The invoked module reported a failure.
    ModuleFailed {
        /// The module that failed.
        module: String,
        /// The module's error message.
        message: String,
    },
    /// The daemon's heartbeat went stale (or the daemon never came up),
    /// so the call was abandoned without burning the full deadline.
    DaemonDead {
        /// The module that was being invoked.
        module: String,
    },
    /// An injected fault fired on the host side of the call (torn request
    /// append). Only produced under an active [`crate::FaultInjector`].
    FaultInjected {
        /// What the injector did.
        detail: String,
    },
    /// The daemon shed the request at admission: its in-flight and queue
    /// capacity were both full, so the request was rejected immediately
    /// (never executed) with a suggested retry delay.
    Overloaded {
        /// The module that was being invoked.
        module: String,
        /// The daemon's suggested retry delay.
        retry_after: Duration,
    },
    /// A replicated append could not gather its write quorum: too few
    /// group members acknowledged a verified copy of the frame.
    QuorumLost {
        /// Replicas that acknowledged the write.
        acked: usize,
        /// The configured write quorum.
        needed: usize,
    },
    /// A replicated append carried a stale group epoch — the writer was
    /// deposed by a promotion it has not observed, so the append is
    /// fenced off instead of splitting the log's history.
    Fenced {
        /// The epoch the stale writer presented.
        stale: u64,
        /// The group's current epoch.
        current: u64,
    },
}

impl SmartFamError {
    /// Whether this error is the daemon refusing a quarantined module —
    /// hosts should fail over immediately instead of retrying.
    pub fn is_quarantined(&self) -> bool {
        matches!(
            self,
            SmartFamError::ModuleFailed { message, .. }
                if message.contains(crate::faults::QUARANTINE_TOKEN)
        )
    }

    /// Stable short name of the error variant. Unlike [`fmt::Display`],
    /// this never embeds run-varying detail (request ids, offsets), so it
    /// is safe to put in a deterministic trace attribute (DESIGN.md §12).
    pub fn kind(&self) -> &'static str {
        match self {
            SmartFamError::Io(_) => "io",
            SmartFamError::Corrupt { .. } => "corrupt",
            SmartFamError::Timeout { .. } => "timeout",
            SmartFamError::ModuleFailed { .. } => "module_failed",
            SmartFamError::DaemonDead { .. } => "daemon_dead",
            SmartFamError::FaultInjected { .. } => "fault_injected",
            SmartFamError::Overloaded { .. } => "overloaded",
            SmartFamError::QuorumLost { .. } => "quorum_lost",
            SmartFamError::Fenced { .. } => "fenced",
        }
    }
}

impl fmt::Display for SmartFamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmartFamError::Io(e) => write!(f, "smartFAM I/O error: {e}"),
            SmartFamError::Corrupt { offset, detail } => {
                write!(f, "corrupt log frame at offset {offset}: {detail}")
            }
            SmartFamError::Timeout { module, request_id } => {
                write!(f, "request {request_id} to module {module:?} timed out")
            }
            SmartFamError::ModuleFailed { module, message } => {
                write!(f, "module {module:?} failed: {message}")
            }
            SmartFamError::DaemonDead { module } => {
                write!(
                    f,
                    "daemon heartbeat stale while invoking {module:?}; declared dead"
                )
            }
            SmartFamError::FaultInjected { detail } => {
                write!(f, "injected fault: {detail}")
            }
            SmartFamError::Overloaded {
                module,
                retry_after,
            } => {
                write!(
                    f,
                    "daemon overloaded; request to module {module:?} shed \
                     (retry after {retry_after:?})"
                )
            }
            SmartFamError::QuorumLost { acked, needed } => {
                write!(
                    f,
                    "replicated append lost its quorum: {acked} of {needed} \
                     required acknowledgements"
                )
            }
            SmartFamError::Fenced { stale, current } => {
                write!(
                    f,
                    "replicated append fenced: writer epoch {stale} is \
                     behind group epoch {current}"
                )
            }
        }
    }
}

impl std::error::Error for SmartFamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SmartFamError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SmartFamError {
    fn from(e: io::Error) -> Self {
        SmartFamError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e = SmartFamError::Timeout {
            module: "wc".into(),
            request_id: 7,
        };
        assert!(e.to_string().contains("wc"));
        assert!(e.to_string().contains('7'));

        let e = SmartFamError::Corrupt {
            offset: 99,
            detail: "bad checksum".into(),
        };
        assert!(e.to_string().contains("99"));
    }

    #[test]
    fn quarantine_classification() {
        let quarantined = SmartFamError::ModuleFailed {
            module: "wc".into(),
            message: format!(
                "module \"wc\" {} 3 consecutive failures",
                crate::faults::QUARANTINE_TOKEN
            ),
        };
        assert!(quarantined.is_quarantined());
        let ordinary = SmartFamError::ModuleFailed {
            module: "wc".into(),
            message: "out of memory".into(),
        };
        assert!(!ordinary.is_quarantined());
        let dead = SmartFamError::DaemonDead {
            module: "wc".into(),
        };
        assert!(!dead.is_quarantined());
        assert!(dead.to_string().contains("dead"));
    }

    #[test]
    fn overload_classification() {
        let shed = SmartFamError::Overloaded {
            module: "wc".into(),
            retry_after: Duration::from_millis(50),
        };
        assert!(shed.to_string().contains("shed"));
    }

    #[test]
    fn kind_is_stable_and_id_free() {
        let e = SmartFamError::Timeout {
            module: "wc".into(),
            request_id: 12345,
        };
        assert_eq!(e.kind(), "timeout");
        assert!(!e.kind().contains("12345"));
        assert_eq!(
            SmartFamError::DaemonDead {
                module: "wc".into()
            }
            .kind(),
            "daemon_dead"
        );
    }

    #[test]
    fn replication_errors_display_and_kind() {
        let lost = SmartFamError::QuorumLost {
            acked: 1,
            needed: 2,
        };
        assert_eq!(lost.kind(), "quorum_lost");
        assert!(lost.to_string().contains("1 of 2"));
        let fenced = SmartFamError::Fenced {
            stale: 0,
            current: 1,
        };
        assert_eq!(fenced.kind(), "fenced");
        assert!(fenced.to_string().contains("epoch 0"));
        assert!(fenced.to_string().contains("epoch 1"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let e: SmartFamError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
