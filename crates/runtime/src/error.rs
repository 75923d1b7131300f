//! The typed runtime-fault taxonomy: every way the execution engine
//! itself — not the measurement — can fail, as one enum.
//!
//! Before this module the runtime's failure story was ad hoc: a
//! panicking task aborted the whole scope, a missing result slot was
//! an `expect`, a full [`crate::queue::MemoryGate`] waited forever.
//! [`RuntimeError`] names each of those conditions so callers can
//! isolate them per task (a faulted die instead of a crashed lot),
//! retry them under a [`crate::supervisor::TaskPolicy`], or surface
//! them in a degraded `LotReport` — partial results as first-class
//! values.

use nfbist_soc::SocError;
use std::fmt;
use std::time::Duration;

/// A fault raised by the runtime layer while executing a task, as
/// opposed to a domain error raised by the measurement itself (those
/// arrive wrapped in [`RuntimeError::Soc`]).
///
/// # Examples
///
/// ```
/// use nfbist_runtime::error::RuntimeError;
///
/// let fault = RuntimeError::TaskPanicked {
///     index: 7,
///     message: "chaos: injected worker panic".to_string(),
/// };
/// assert!(fault.to_string().contains("task 7"));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The task body panicked; the unwind was caught at the task
    /// boundary and the payload rendered into `message`.
    TaskPanicked {
        /// Task (die) index.
        index: usize,
        /// Rendered panic payload.
        message: String,
    },
    /// The task ran past its per-task deadline; its (late) result was
    /// discarded deterministically.
    DeadlineExceeded {
        /// Task (die) index.
        index: usize,
        /// The deadline that was exceeded.
        deadline: Duration,
    },
    /// A result slot came back unfilled — the scheduling invariant
    /// ("every index claimed exactly once") was violated, most likely
    /// by a worker dying mid-claim.
    ResultMissing {
        /// Slot index that held no result.
        index: usize,
    },
    /// A one-shot task slot was already consumed when a worker claimed
    /// it — the twin of [`RuntimeError::ResultMissing`] on the input
    /// side.
    TaskMissing {
        /// Task index whose closure was gone.
        index: usize,
    },
    /// A memory-gate admission timed out: the requested cost never fit
    /// under the capacity within the wait bound.
    AdmissionTimeout {
        /// Bytes requested.
        requested: usize,
        /// Gate capacity in bytes.
        capacity: usize,
        /// How long the admission was allowed to wait.
        waited: Duration,
    },
    /// A simulated allocation failure (chaos injection): the task's
    /// transient buffers could not be obtained.
    AllocationFailed {
        /// Task (die) index.
        index: usize,
        /// Bytes the simulated allocation asked for.
        bytes: usize,
    },
    /// The task failed on every allowed attempt and was quarantined;
    /// `last` is the fault of the final attempt.
    Quarantined {
        /// Task (die) index.
        index: usize,
        /// Attempts made before giving up.
        attempts: usize,
        /// The final attempt's fault.
        last: Box<RuntimeError>,
    },
    /// A submission was rejected because the service is draining (or
    /// already stopped).
    ServiceShutdown,
    /// A ticket referenced no job the service holds: never issued,
    /// already taken, or abandoned by a drain.
    UnknownTicket {
        /// The unknown ticket id.
        id: u64,
    },
    /// A measurement-stack error, carried through the runtime
    /// unchanged.
    Soc(SocError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::TaskPanicked { index, message } => {
                write!(f, "task {index} panicked: {message}")
            }
            RuntimeError::DeadlineExceeded { index, deadline } => {
                write!(f, "task {index} exceeded its {deadline:?} deadline")
            }
            RuntimeError::ResultMissing { index } => {
                write!(f, "result slot {index} was never filled")
            }
            RuntimeError::TaskMissing { index } => {
                write!(f, "task slot {index} was already consumed")
            }
            RuntimeError::AdmissionTimeout {
                requested,
                capacity,
                waited,
            } => write!(
                f,
                "memory-gate admission of {requested} bytes (capacity {capacity}) timed out after {waited:?}"
            ),
            RuntimeError::AllocationFailed { index, bytes } => {
                write!(f, "task {index}: simulated allocation of {bytes} bytes failed")
            }
            RuntimeError::Quarantined {
                index,
                attempts,
                last,
            } => write!(
                f,
                "task {index} quarantined after {attempts} failed attempt(s); last fault: {last}"
            ),
            RuntimeError::ServiceShutdown => {
                write!(f, "the service is draining and accepts no new jobs")
            }
            RuntimeError::UnknownTicket { id } => {
                write!(f, "no job is held under ticket id {id}")
            }
            RuntimeError::Soc(e) => write!(f, "measurement error: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Soc(e) => Some(e),
            RuntimeError::Quarantined { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<SocError> for RuntimeError {
    fn from(e: SocError) -> Self {
        RuntimeError::Soc(e)
    }
}

/// Renders a caught panic payload into a human-readable message
/// (`&str` and `String` payloads verbatim, anything else a
/// placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(RuntimeError, &str)> = vec![
            (
                RuntimeError::TaskPanicked {
                    index: 3,
                    message: "boom".into(),
                },
                "task 3 panicked",
            ),
            (
                RuntimeError::DeadlineExceeded {
                    index: 1,
                    deadline: Duration::from_millis(250),
                },
                "deadline",
            ),
            (RuntimeError::ResultMissing { index: 9 }, "slot 9"),
            (RuntimeError::TaskMissing { index: 2 }, "task slot 2"),
            (
                RuntimeError::AdmissionTimeout {
                    requested: 64,
                    capacity: 32,
                    waited: Duration::from_millis(5),
                },
                "timed out",
            ),
            (
                RuntimeError::AllocationFailed {
                    index: 4,
                    bytes: 1024,
                },
                "allocation",
            ),
            (RuntimeError::ServiceShutdown, "draining"),
            (RuntimeError::UnknownTicket { id: 12 }, "ticket id 12"),
            (
                RuntimeError::Soc(SocError::InvalidParameter {
                    name: "x",
                    reason: "y",
                }),
                "measurement error",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err:?} must mention {needle:?}"
            );
        }
    }

    #[test]
    fn quarantine_chains_its_source() {
        let last = RuntimeError::TaskPanicked {
            index: 5,
            message: "boom".into(),
        };
        let q = RuntimeError::Quarantined {
            index: 5,
            attempts: 3,
            last: Box::new(last.clone()),
        };
        assert!(q.to_string().contains("after 3 failed"));
        assert_eq!(q.source().map(|s| s.to_string()), Some(last.to_string()));
        let soc = RuntimeError::from(SocError::InvalidParameter {
            name: "a",
            reason: "b",
        });
        assert!(soc.source().is_some());
        assert!(RuntimeError::ServiceShutdown.source().is_none());
    }

    #[test]
    fn panic_messages_render() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new("owned".to_string());
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(s.as_ref()), "non-string panic payload");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeError>();
    }
}
