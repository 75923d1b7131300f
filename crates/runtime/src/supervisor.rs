//! Per-task supervision: deadlines, bounded retry with deterministic
//! backoff, and quarantine — the policy layer that turns a runtime
//! fault into a recorded outcome instead of a crashed batch.
//!
//! Three pieces compose:
//!
//! * [`TaskPolicy`] declares what one task is allowed to cost: an
//!   optional per-attempt deadline, a retry budget, and a
//!   [`Backoff`] schedule between attempts. The schedule is a pure
//!   function of the attempt number — no clocks, no jitter — so a
//!   retried schedule replays identically.
//! * [`Watchdog`] is a single monitor thread waiting on a `Condvar`
//!   with `wait_timeout`: workers *arm* a [`WatchGuard`] before an
//!   attempt, the watchdog flags any guard whose deadline passes, and
//!   the worker observes the flag when the attempt returns. The flag
//!   is advisory-early (a stalled die shows up in health telemetry the
//!   moment it blows its deadline); the *authoritative* deadline
//!   verdict compares the attempt's own elapsed time against the
//!   policy, which is what keeps chaos schedules deterministic.
//! * [`TaskPolicy::supervise`] runs an attempt closure under
//!   `catch_unwind` (panic isolation), converts panics / timeouts /
//!   errors into [`RuntimeError`] faults, retries per the policy, and
//!   quarantines the task after the final failure.
//!
//! The invariant the whole module preserves: supervision never touches
//! a task's *inputs*. A surviving attempt returns exactly the bits an
//! unsupervised call would have returned.

use crate::error::{panic_message, RuntimeError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A deterministic retry-delay schedule: `delay(k)` for the pause
/// before retry `k+1` (after failed attempt `k`), a pure function of
/// `k`.
///
/// # Examples
///
/// ```
/// use nfbist_runtime::supervisor::Backoff;
/// use std::time::Duration;
///
/// let b = Backoff::exponential(Duration::from_millis(2), Duration::from_millis(5));
/// assert_eq!(b.delay(0), Duration::from_millis(2));
/// assert_eq!(b.delay(1), Duration::from_millis(4));
/// assert_eq!(b.delay(2), Duration::from_millis(5)); // capped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    exponential: bool,
}

impl Backoff {
    /// No pause between attempts (the default).
    pub const fn none() -> Self {
        Backoff {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            exponential: false,
        }
    }

    /// The same fixed pause before every retry.
    pub const fn fixed(delay: Duration) -> Self {
        Backoff {
            base: delay,
            cap: delay,
            exponential: false,
        }
    }

    /// Doubling from `base`, capped at `cap`.
    pub const fn exponential(base: Duration, cap: Duration) -> Self {
        Backoff {
            base,
            cap,
            exponential: true,
        }
    }

    /// The pause after failed attempt `attempt` (0-based). Purely a
    /// function of the attempt number — deterministic by construction.
    pub fn delay(&self, attempt: usize) -> Duration {
        if !self.exponential {
            return self.base;
        }
        let factor = 1u32 << attempt.min(20) as u32;
        self.base.saturating_mul(factor).min(self.cap)
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::none()
    }
}

/// What one supervised task is allowed to cost: per-attempt deadline,
/// retry budget, backoff schedule.
///
/// The default policy is the pre-fault-tolerance behavior with panic
/// isolation added: one attempt, no deadline, no backoff — a panic or
/// error becomes a quarantine record instead of a crashed batch.
///
/// # Examples
///
/// ```
/// use nfbist_runtime::supervisor::{Backoff, TaskPolicy};
/// use std::time::Duration;
///
/// let policy = TaskPolicy::new()
///     .deadline(Duration::from_secs(2))
///     .attempts(3)
///     .backoff(Backoff::fixed(Duration::from_millis(1)));
/// assert_eq!(policy.max_attempts(), 3);
/// assert_eq!(policy.deadline_duration(), Some(Duration::from_secs(2)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskPolicy {
    deadline: Option<Duration>,
    max_attempts: usize,
    backoff: Backoff,
}

impl TaskPolicy {
    /// One attempt, no deadline, no backoff.
    pub const fn new() -> Self {
        TaskPolicy {
            deadline: None,
            max_attempts: 1,
            backoff: Backoff::none(),
        }
    }

    /// Sets the per-attempt deadline (covers admission wait plus the
    /// task body). An attempt running past it is discarded and counts
    /// as a failure.
    pub const fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the total attempt budget (clamped to ≥ 1). A task failing
    /// every attempt is quarantined.
    pub fn attempts(mut self, n: usize) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Sets the backoff schedule between attempts.
    pub const fn backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// The per-attempt deadline, if any.
    pub const fn deadline_duration(&self) -> Option<Duration> {
        self.deadline
    }

    /// The attempt budget.
    pub const fn max_attempts(&self) -> usize {
        self.max_attempts
    }

    /// The backoff schedule.
    pub const fn backoff_schedule(&self) -> Backoff {
        self.backoff
    }

    /// Runs `attempt(k)` for `k = 0, 1, …` under panic isolation and
    /// the policy's deadline until one attempt succeeds or the budget
    /// is spent; the terminal failure is a
    /// [`RuntimeError::Quarantined`] carrying the last fault.
    ///
    /// Each attempt is wrapped in `catch_unwind` (with
    /// `AssertUnwindSafe`: attempts over shared measurement state are
    /// pure readers, and a failed attempt's partial writes never
    /// escape the attempt). When a [`Watchdog`] is supplied and the
    /// policy has a deadline, a [`WatchGuard`] is armed around the
    /// attempt so a stall is flagged the moment it blows the deadline;
    /// the authoritative timeout check compares the attempt's own
    /// elapsed time so the verdict does not depend on monitor-thread
    /// scheduling.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Quarantined`] after `max_attempts` failures
    /// (panic, deadline, or task error).
    pub fn supervise<T>(
        &self,
        index: usize,
        watchdog: Option<&Watchdog>,
        mut attempt: impl FnMut(usize) -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        let mut last: Option<RuntimeError> = None;
        for k in 0..self.max_attempts {
            if k > 0 {
                let pause = self.backoff.delay(k - 1);
                if pause > Duration::ZERO {
                    thread::sleep(pause);
                }
            }
            let guard = match (self.deadline, watchdog) {
                (Some(deadline), Some(dog)) => Some(dog.arm(deadline)),
                _ => None,
            };
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| attempt(k)));
            let elapsed = started.elapsed();
            let flagged = guard.as_ref().is_some_and(WatchGuard::expired);
            drop(guard);
            let fault = match outcome {
                Ok(Ok(value)) => {
                    // The elapsed-time comparison is authoritative; the
                    // watchdog flag only ever fires earlier, never
                    // differently.
                    match self.deadline {
                        Some(deadline) if flagged || elapsed > deadline => {
                            RuntimeError::DeadlineExceeded { index, deadline }
                        }
                        _ => return Ok(value),
                    }
                }
                Ok(Err(e)) => match (self.deadline, &e) {
                    // An admission timeout under a deadline is the
                    // deadline expiring in the gate's waiting room.
                    (Some(deadline), RuntimeError::AdmissionTimeout { .. }) => {
                        RuntimeError::DeadlineExceeded { index, deadline }
                    }
                    _ => e,
                },
                Err(payload) => RuntimeError::TaskPanicked {
                    index,
                    message: panic_message(payload.as_ref()),
                },
            };
            last = Some(fault);
        }
        Err(RuntimeError::Quarantined {
            index,
            attempts: self.max_attempts,
            last: Box::new(last.unwrap_or(RuntimeError::ResultMissing { index })),
        })
    }
}

impl Default for TaskPolicy {
    fn default() -> Self {
        Self::new()
    }
}

struct WatchEntry {
    id: u64,
    deadline: Instant,
    expired: Arc<AtomicBool>,
}

struct WatchState {
    entries: Vec<WatchEntry>,
    next_id: u64,
    shutdown: bool,
}

struct WatchShared {
    state: Mutex<WatchState>,
    changed: Condvar,
    expirations: AtomicU64,
}

impl WatchShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, WatchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The deadline monitor: one thread waiting on a `Condvar` with
/// `wait_timeout` for the earliest armed deadline, flagging stalled
/// tasks the moment they run over.
///
/// Dropping the watchdog shuts the monitor thread down and joins it.
///
/// # Examples
///
/// ```
/// use nfbist_runtime::supervisor::Watchdog;
/// use std::time::Duration;
///
/// let dog = Watchdog::new();
/// let guard = dog.arm(Duration::from_secs(60));
/// assert!(!guard.expired()); // nowhere near the deadline
/// drop(guard); // disarmed without expiring
/// assert_eq!(dog.expirations(), 0);
/// ```
#[derive(Debug)]
pub struct Watchdog {
    shared: Arc<WatchShared>,
    monitor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for WatchShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchShared")
            .field("expirations", &self.expirations.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Watchdog {
    /// Starts the monitor thread.
    pub fn new() -> Self {
        let shared = Arc::new(WatchShared {
            state: Mutex::new(WatchState {
                entries: Vec::new(),
                next_id: 0,
                shutdown: false,
            }),
            changed: Condvar::new(),
            expirations: AtomicU64::new(0),
        });
        let monitor_shared = Arc::clone(&shared);
        let monitor = thread::Builder::new()
            .name("nfbist-watchdog".to_string())
            .spawn(move || Self::monitor_loop(&monitor_shared))
            .ok();
        Watchdog { shared, monitor }
    }

    fn monitor_loop(shared: &WatchShared) {
        let mut state = shared.lock();
        loop {
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            // Flag and drop everything already over its deadline.
            let mut expired = 0u64;
            state.entries.retain(|entry| {
                if entry.deadline <= now {
                    entry.expired.store(true, Ordering::Release);
                    expired += 1;
                    false
                } else {
                    true
                }
            });
            if expired > 0 {
                shared.expirations.fetch_add(expired, Ordering::Relaxed);
            }
            // Sleep until the earliest pending deadline (or until a
            // new arm/disarm/shutdown pokes the condvar).
            let next = state.entries.iter().map(|e| e.deadline).min();
            state = match next {
                Some(deadline) => {
                    let wait = deadline.saturating_duration_since(now);
                    shared
                        .changed
                        .wait_timeout(state, wait)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => shared
                    .changed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Arms a deadline `timeout` from now; the returned guard's flag
    /// is set by the monitor if the deadline passes before the guard
    /// is dropped.
    pub fn arm(&self, timeout: Duration) -> WatchGuard {
        let expired = Arc::new(AtomicBool::new(false));
        let mut state = self.shared.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.entries.push(WatchEntry {
            id,
            deadline: Instant::now() + timeout,
            expired: Arc::clone(&expired),
        });
        drop(state);
        self.shared.changed.notify_all();
        WatchGuard {
            shared: Arc::clone(&self.shared),
            id,
            expired,
        }
    }

    /// Total deadlines the monitor has flagged over the watchdog's
    /// lifetime — health telemetry, not a correctness input.
    pub fn expirations(&self) -> u64 {
        self.shared.expirations.load(Ordering::Relaxed)
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.changed.notify_all();
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
    }
}

/// One armed deadline; dropping it disarms the watchdog entry (if it
/// has not already expired).
#[derive(Debug)]
pub struct WatchGuard {
    shared: Arc<WatchShared>,
    id: u64,
    expired: Arc<AtomicBool>,
}

impl WatchGuard {
    /// `true` once the monitor has flagged this deadline as blown.
    pub fn expired(&self) -> bool {
        self.expired.load(Ordering::Acquire)
    }
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.entries.retain(|e| e.id != self.id);
        drop(state);
        self.shared.changed.notify_all();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedules_are_deterministic() {
        assert_eq!(Backoff::none().delay(0), Duration::ZERO);
        assert_eq!(Backoff::none().delay(7), Duration::ZERO);
        assert_eq!(Backoff::default(), Backoff::none());
        let fixed = Backoff::fixed(Duration::from_millis(3));
        assert_eq!(fixed.delay(0), fixed.delay(9));
        let exp = Backoff::exponential(Duration::from_millis(1), Duration::from_millis(6));
        assert_eq!(
            (0..4).map(|k| exp.delay(k)).collect::<Vec<_>>(),
            vec![
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_millis(4),
                Duration::from_millis(6), // capped
            ]
        );
        // Huge attempt numbers neither overflow nor exceed the cap.
        assert_eq!(exp.delay(usize::MAX), Duration::from_millis(6));
    }

    #[test]
    fn policy_defaults_and_builders() {
        let p = TaskPolicy::new();
        assert_eq!(p, TaskPolicy::default());
        assert_eq!(p.max_attempts(), 1);
        assert_eq!(p.deadline_duration(), None);
        assert_eq!(p.backoff_schedule(), Backoff::none());
        assert_eq!(TaskPolicy::new().attempts(0).max_attempts(), 1);
    }

    #[test]
    fn success_passes_through_untouched() {
        let out = TaskPolicy::new()
            .supervise(0, None, |_| Ok::<_, RuntimeError>(41 + 1))
            .unwrap();
        assert_eq!(out, 42);
    }

    #[test]
    fn panic_is_isolated_and_quarantined() {
        let err = TaskPolicy::new()
            .supervise::<()>(3, None, |_| panic!("boom {}", 7))
            .unwrap_err();
        match err {
            RuntimeError::Quarantined {
                index,
                attempts,
                last,
            } => {
                assert_eq!((index, attempts), (3, 1));
                assert_eq!(
                    *last,
                    RuntimeError::TaskPanicked {
                        index: 3,
                        message: "boom 7".into()
                    }
                );
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn retry_recovers_a_transient_fault() {
        let mut calls = 0usize;
        let out = TaskPolicy::new()
            .attempts(3)
            .backoff(Backoff::fixed(Duration::from_millis(1)))
            .supervise(5, None, |attempt| {
                calls += 1;
                if attempt == 0 {
                    panic!("transient");
                }
                Ok::<_, RuntimeError>(attempt)
            })
            .unwrap();
        assert_eq!(out, 1, "second attempt must win");
        assert_eq!(calls, 2, "no attempts after the first success");
    }

    #[test]
    fn errors_count_against_the_attempt_budget() {
        let mut calls = 0usize;
        let err = TaskPolicy::new()
            .attempts(2)
            .supervise::<()>(1, None, |_| {
                calls += 1;
                Err(RuntimeError::AllocationFailed {
                    index: 1,
                    bytes: 64,
                })
            })
            .unwrap_err();
        assert_eq!(calls, 2);
        assert_eq!(
            err,
            RuntimeError::Quarantined {
                index: 1,
                attempts: 2,
                last: Box::new(RuntimeError::AllocationFailed {
                    index: 1,
                    bytes: 64
                }),
            }
        );
    }

    #[test]
    fn deadline_discards_a_late_result() {
        let dog = Watchdog::new();
        let policy = TaskPolicy::new().deadline(Duration::from_millis(20));
        let err = policy
            .supervise(2, Some(&dog), |_| {
                thread::sleep(Duration::from_millis(60));
                Ok::<_, RuntimeError>(99)
            })
            .unwrap_err();
        match err {
            RuntimeError::Quarantined { last, .. } => assert_eq!(
                *last,
                RuntimeError::DeadlineExceeded {
                    index: 2,
                    deadline: Duration::from_millis(20)
                }
            ),
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The monitor should have flagged the stall (health telemetry).
        assert!(dog.expirations() >= 1);
        // A fast attempt under the same policy is untouched.
        assert_eq!(
            policy.supervise(2, Some(&dog), |_| Ok::<_, RuntimeError>(7)),
            Ok(7)
        );
    }

    #[test]
    fn deadline_verdict_holds_without_a_watchdog() {
        // Elapsed-time comparison alone must catch the overrun.
        let err = TaskPolicy::new()
            .deadline(Duration::from_millis(10))
            .supervise(0, None, |_| {
                thread::sleep(Duration::from_millis(40));
                Ok::<_, RuntimeError>(())
            })
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Quarantined { .. }));
    }

    #[test]
    fn admission_timeout_is_reported_as_a_deadline_fault() {
        let deadline = Duration::from_millis(15);
        let err = TaskPolicy::new()
            .deadline(deadline)
            .supervise::<()>(4, None, |_| {
                Err(RuntimeError::AdmissionTimeout {
                    requested: 10,
                    capacity: 5,
                    waited: deadline,
                })
            })
            .unwrap_err();
        match err {
            RuntimeError::Quarantined { last, .. } => {
                assert_eq!(*last, RuntimeError::DeadlineExceeded { index: 4, deadline });
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn backoff_pauses_between_attempts_only() {
        let pause = Duration::from_millis(15);
        let policy = TaskPolicy::new().attempts(3).backoff(Backoff::fixed(pause));
        let mut starts = Vec::new();
        let began = Instant::now();
        let err = policy
            .supervise::<()>(0, None, |_| {
                starts.push(began.elapsed());
                Err(RuntimeError::ResultMissing { index: 0 })
            })
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Quarantined { attempts: 3, .. }));
        assert_eq!(starts.len(), 3);
        // Each retry waits at least one pause after the previous start.
        for pair in starts.windows(2) {
            assert!(pair[1] - pair[0] >= pause, "starts {starts:?}");
        }
    }

    #[test]
    fn quarantine_carries_the_final_attempts_fault() {
        let err = TaskPolicy::new()
            .attempts(3)
            .supervise::<()>(9, None, |attempt| {
                if attempt == 1 {
                    panic!("second attempt panics");
                }
                Err(RuntimeError::AllocationFailed {
                    index: 9,
                    bytes: attempt,
                })
            })
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Quarantined {
                index: 9,
                attempts: 3,
                last: Box::new(RuntimeError::AllocationFailed { index: 9, bytes: 2 }),
            }
        );
    }

    #[test]
    fn watchdog_guards_disarm_cleanly() {
        let dog = Watchdog::new();
        for _ in 0..16 {
            let g = dog.arm(Duration::from_secs(30));
            assert!(!g.expired());
        }
        assert_eq!(dog.expirations(), 0);
        // Entries with passed deadlines get flagged even when armed in
        // a burst.
        let guards: Vec<_> = (0..4).map(|_| dog.arm(Duration::from_millis(5))).collect();
        thread::sleep(Duration::from_millis(60));
        assert!(guards.iter().all(WatchGuard::expired));
        assert_eq!(dog.expirations(), 4);
    }
}
