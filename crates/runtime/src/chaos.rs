//! Seeded runtime fault injection: scheduled worker panics, slow-die
//! stalls, and allocation-failure simulation, reproducible bit for bit
//! from one seed.
//!
//! PR 4 injected faults into the *devices under test*; this module
//! injects them into the *runtime that screens them*. A
//! [`ChaosConfig`] derives, per task index, whether that task is
//! marked for a fault and which kind — via the same
//! [`derive_seed`](crate::batch::derive_seed()) walk every other seeded
//! subsystem uses — so a chaos run is as reproducible as a clean one:
//! the same seed marks the same dies with the same faults on any
//! machine, any worker count, any schedule.
//!
//! Faults are injected **before** the real task body runs (or instead
//! of it), never into its inputs, which is what makes the fleet's
//! fault-tolerance invariant testable: a die that survives chaos
//! returns exactly the bits it returns without chaos.
//!
//! The `NFBIST_CHAOS=<seed>` environment variable opts a whole test
//! run into a fixed schedule (see [`ChaosConfig::from_env`]); CI runs
//! the chaos-determinism suite once more under a seed of its own.

use crate::batch::derive_seed;
use crate::error::RuntimeError;
use std::sync::OnceLock;
use std::time::Duration;

/// Salt separating the chaos-mark derivation walk from measurement
/// and population walks (which derive from the raw lot seed).
const CHAOS_SALT: u64 = 0xC4A0_5C4A_05C4_A05C;

/// Prefix of every injected panic's message; the quiet panic hook
/// ([`install_quiet_panic_hook`]) recognizes and suppresses it.
pub const CHAOS_PANIC_PREFIX: &str = "nfbist chaos injection";

/// Environment variable holding the chaos seed for
/// [`ChaosConfig::from_env`].
pub const CHAOS_ENV: &str = "NFBIST_CHAOS";

/// The kind of runtime fault a marked task receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InjectedFault {
    /// The worker panics inside the task body.
    Panic,
    /// The task stalls long enough to blow any configured deadline.
    Stall,
    /// The task's transient allocation "fails"
    /// ([`RuntimeError::AllocationFailed`]).
    AllocFailure,
}

/// A seeded runtime fault-injection schedule.
///
/// Marking is per task index: `derive_seed(seed ^ SALT, index)` is
/// reduced modulo 1000 and compared against the per-mille rates, so
/// the marked set is a pure function of `(seed, index)` — independent
/// of workers, budgets, and attempt interleaving. Whether a marked
/// task *stays* faulted is per attempt: the first
/// [`ChaosConfig::faulty_attempts`] attempts fault, later ones pass
/// clean, which is how retry recovery is exercised deterministically.
///
/// # Examples
///
/// ```
/// use nfbist_runtime::chaos::ChaosConfig;
///
/// let chaos = ChaosConfig::new(42);
/// // The schedule is a pure function of the seed.
/// assert_eq!(chaos.scheduled_faults(64), ChaosConfig::new(42).scheduled_faults(64));
/// assert_ne!(chaos.scheduled_faults(64), ChaosConfig::new(43).scheduled_faults(64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    seed: u64,
    panic_per_mille: u16,
    stall_per_mille: u16,
    alloc_per_mille: u16,
    stall_extra: Duration,
    faulty_attempts: usize,
}

impl ChaosConfig {
    /// A schedule with the default rates: 10% panics, 5% stalls, 5%
    /// allocation failures, each marked task faulting on its first
    /// attempt only (so a 2-attempt policy recovers every die).
    pub const fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            panic_per_mille: 100,
            stall_per_mille: 50,
            alloc_per_mille: 50,
            stall_extra: Duration::from_millis(50),
            faulty_attempts: 1,
        }
    }

    /// The chaos seed.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the panic rate in per mille of task indices (clamped so
    /// all rates sum to ≤ 1000).
    pub fn panic_rate_per_mille(mut self, rate: u16) -> Self {
        self.panic_per_mille = rate.min(1000);
        self.clamp_rates()
    }

    /// Sets the stall rate in per mille of task indices.
    pub fn stall_rate_per_mille(mut self, rate: u16) -> Self {
        self.stall_per_mille = rate.min(1000);
        self.clamp_rates()
    }

    /// Sets the allocation-failure rate in per mille of task indices.
    pub fn alloc_rate_per_mille(mut self, rate: u16) -> Self {
        self.alloc_per_mille = rate.min(1000);
        self.clamp_rates()
    }

    /// How far past the deadline a stalled attempt sleeps (the stall
    /// is `deadline + extra`, so it always blows the deadline by a
    /// margin that does not depend on watchdog scheduling).
    pub const fn stall_extra(mut self, extra: Duration) -> Self {
        self.stall_extra = extra;
        self
    }

    /// How many leading attempts of a marked task fault before it runs
    /// clean (clamped to ≥ 1). Set at or above a policy's attempt
    /// budget to force quarantines; below it to exercise recovery.
    pub fn faulty_attempts(mut self, n: usize) -> Self {
        self.faulty_attempts = n.max(1);
        self
    }

    /// The configured faulty-attempt count.
    pub const fn faulty_attempt_count(&self) -> usize {
        self.faulty_attempts
    }

    fn clamp_rates(mut self) -> Self {
        // Rates partition [0, 1000); trim the later bands if the sum
        // overshoots.
        let p = self.panic_per_mille.min(1000);
        let s = self.stall_per_mille.min(1000 - p);
        let a = self.alloc_per_mille.min(1000 - p - s);
        self.panic_per_mille = p;
        self.stall_per_mille = s;
        self.alloc_per_mille = a;
        self
    }

    /// Reads `NFBIST_CHAOS` and builds the default-rate schedule from
    /// it; `None` when unset or unparsable.
    pub fn from_env() -> Option<Self> {
        parse_seed(&std::env::var(CHAOS_ENV).ok()?).map(Self::new)
    }

    /// The fault marked for task `index`, if any — a pure function of
    /// `(seed, index)`.
    pub fn fault_for(&self, index: usize) -> Option<InjectedFault> {
        let roll = (derive_seed(self.seed ^ CHAOS_SALT, index as u64) % 1000) as u16;
        if roll < self.panic_per_mille {
            Some(InjectedFault::Panic)
        } else if roll < self.panic_per_mille + self.stall_per_mille {
            Some(InjectedFault::Stall)
        } else if roll < self.panic_per_mille + self.stall_per_mille + self.alloc_per_mille {
            Some(InjectedFault::AllocFailure)
        } else {
            None
        }
    }

    /// Every `(index, fault)` pair marked over `0..n` — the oracle a
    /// determinism test compares a degraded report's faulted-die set
    /// against.
    pub fn scheduled_faults(&self, n: usize) -> Vec<(usize, InjectedFault)> {
        (0..n)
            .filter_map(|i| self.fault_for(i).map(|f| (i, f)))
            .collect()
    }

    /// Injects the scheduled fault for `(index, attempt)`, if any:
    /// panics for [`InjectedFault::Panic`], sleeps past `deadline` for
    /// [`InjectedFault::Stall`], and returns
    /// [`RuntimeError::AllocationFailed`] for
    /// [`InjectedFault::AllocFailure`]. Attempts at or beyond
    /// [`ChaosConfig::faulty_attempts`] pass clean (retry recovery).
    ///
    /// `cost` is the simulated allocation size reported by an
    /// allocation failure; `deadline` sizes the stall (`None` falls
    /// back to the stall-extra alone, which then only blows
    /// elapsed-time budgets shorter than it).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::AllocationFailed`] on an allocation-failure
    /// mark.
    pub fn inject(
        &self,
        index: usize,
        attempt: usize,
        deadline: Option<Duration>,
        cost: usize,
    ) -> Result<(), RuntimeError> {
        if attempt >= self.faulty_attempts {
            return Ok(());
        }
        match self.fault_for(index) {
            None => Ok(()),
            Some(InjectedFault::Panic) => {
                panic!("{CHAOS_PANIC_PREFIX}: worker panic at task {index}, attempt {attempt}")
            }
            Some(InjectedFault::Stall) => {
                let stall = deadline.unwrap_or(Duration::ZERO) + self.stall_extra;
                std::thread::sleep(stall);
                Ok(())
            }
            Some(InjectedFault::AllocFailure) => {
                Err(RuntimeError::AllocationFailed { index, bytes: cost })
            }
        }
    }
}

/// Parses a chaos seed as [`CHAOS_ENV`] carries it, ignoring
/// surrounding whitespace.
fn parse_seed(raw: &str) -> Option<u64> {
    raw.trim().parse().ok()
}

/// Installs (once per process) a panic hook that suppresses injected
/// chaos panics — whose messages start with [`CHAOS_PANIC_PREFIX`] —
/// and delegates everything else to the previous hook. Without it a
/// chaos run drowns the console in backtraces for panics that are the
/// whole point of the exercise.
pub fn install_quiet_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with(CHAOS_PANIC_PREFIX))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.starts_with(CHAOS_PANIC_PREFIX));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn marking_is_a_pure_function_of_seed_and_index() {
        let chaos = ChaosConfig::new(7);
        for i in 0..256 {
            assert_eq!(chaos.fault_for(i), chaos.fault_for(i));
        }
        assert_eq!(chaos.scheduled_faults(256), chaos.scheduled_faults(256));
        // Rates roughly respected over a large population.
        let marks = ChaosConfig::new(11).scheduled_faults(20_000);
        let panics = marks
            .iter()
            .filter(|(_, f)| *f == InjectedFault::Panic)
            .count();
        assert!((1_000..3_000).contains(&panics), "panic marks: {panics}");
    }

    #[test]
    fn rates_clamp_to_a_partition_of_one_thousand() {
        let chaos = ChaosConfig::new(0)
            .panic_rate_per_mille(900)
            .stall_rate_per_mille(900)
            .alloc_rate_per_mille(900);
        assert_eq!(
            (
                chaos.panic_per_mille,
                chaos.stall_per_mille,
                chaos.alloc_per_mille
            ),
            (900, 100, 0)
        );
        // Rate 1000 marks every index.
        let all = ChaosConfig::new(3).panic_rate_per_mille(1000);
        assert!((0..100).all(|i| all.fault_for(i) == Some(InjectedFault::Panic)));
        // Rate 0 everywhere marks none.
        let none = ChaosConfig::new(3)
            .panic_rate_per_mille(0)
            .stall_rate_per_mille(0)
            .alloc_rate_per_mille(0);
        assert!(none.scheduled_faults(100).is_empty());
    }

    #[test]
    fn injection_matches_the_mark() {
        install_quiet_panic_hook();
        let chaos = ChaosConfig::new(5).faulty_attempts(2);
        assert_eq!(chaos.faulty_attempt_count(), 2);
        for (i, fault) in chaos.scheduled_faults(64) {
            match fault {
                InjectedFault::Panic => {
                    let caught = std::panic::catch_unwind(|| chaos.inject(i, 0, None, 8));
                    let msg = crate::error::panic_message(caught.unwrap_err().as_ref());
                    assert!(msg.starts_with(CHAOS_PANIC_PREFIX), "message: {msg}");
                }
                InjectedFault::AllocFailure => {
                    assert_eq!(
                        chaos.inject(i, 1, None, 8),
                        Err(RuntimeError::AllocationFailed { index: i, bytes: 8 })
                    );
                }
                InjectedFault::Stall => {
                    // Stall extra only (no deadline): bounded sleep.
                    let tiny = chaos.stall_extra(Duration::from_millis(1));
                    assert_eq!(tiny.inject(i, 0, None, 8), Ok(()));
                }
            }
            // Beyond the faulty attempts the task runs clean.
            assert_eq!(chaos.inject(i, 2, None, 8), Ok(()));
        }
        // Unmarked indices are never touched on any attempt.
        let unmarked: Vec<usize> = (0..64).filter(|i| chaos.fault_for(*i).is_none()).collect();
        for i in unmarked {
            assert_eq!(chaos.inject(i, 0, None, 8), Ok(()));
        }
    }

    #[test]
    fn builder_settings_read_back_and_clamp() {
        let chaos = ChaosConfig::new(77);
        assert_eq!(chaos.seed(), 77);
        assert_eq!(chaos.faulty_attempt_count(), 1);
        // At least one faulty attempt, or a marked task would never fault.
        assert_eq!(chaos.faulty_attempts(0).faulty_attempt_count(), 1);
        assert_eq!(chaos.faulty_attempts(5).faulty_attempt_count(), 5);
        // The default rates mark about a fifth of all tasks, each kind
        // in its documented share.
        let marks = chaos.scheduled_faults(10_000);
        let share = |kind| marks.iter().filter(|(_, f)| *f == kind).count();
        assert!((1_500..2_500).contains(&marks.len()), "{}", marks.len());
        assert!(share(InjectedFault::Panic) > share(InjectedFault::Stall));
        assert!(share(InjectedFault::Panic) > share(InjectedFault::AllocFailure));
        // The schedule lists exactly the marked indices, in order.
        assert!(marks.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(marks.iter().all(|&(i, f)| chaos.fault_for(i) == Some(f)));
    }

    #[test]
    fn a_stall_outlasts_the_deadline_by_its_extra() {
        let chaos = ChaosConfig::new(2)
            .panic_rate_per_mille(0)
            .stall_rate_per_mille(1000)
            .stall_extra(Duration::from_millis(10));
        assert_eq!(chaos.fault_for(0), Some(InjectedFault::Stall));
        let deadline = Duration::from_millis(20);
        let began = std::time::Instant::now();
        assert_eq!(chaos.inject(0, 0, Some(deadline), 8), Ok(()));
        assert!(began.elapsed() >= deadline + Duration::from_millis(10));
        // A retry past the faulty attempts runs without the stall.
        let began = std::time::Instant::now();
        assert_eq!(chaos.inject(0, 1, Some(Duration::from_secs(60)), 8), Ok(()));
        assert!(began.elapsed() < Duration::from_secs(60));
    }

    #[test]
    fn env_parsing() {
        // The parser `from_env` applies to the variable's value; the
        // environment itself is process-global and stays untouched.
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed(" 42\n"), Some(42));
        assert_eq!(parse_seed("x"), None);
        assert_eq!(parse_seed(""), None);
    }
}
