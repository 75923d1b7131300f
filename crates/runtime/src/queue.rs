//! The sharded task queue and the global memory-admission gate — the
//! scheduling substrate of batch fan-out and fleet-scale screening.
//!
//! [`WorkQueue`] splits the task indices into per-worker **shards
//! with work stealing**: each worker owns a
//! contiguous index range and claims from it with one atomic
//! increment; a worker whose shard runs dry steals from its
//! neighbours' shards. Contiguous shards keep each worker walking
//! adjacent task indices (cache- and seed-walk-friendly) while
//! stealing keeps the pool busy when shard costs are skewed — a lot's
//! retest-heavy dies cluster spatially, so uniform pre-splitting alone
//! would idle half the pool. Results are **slot-indexed**: task `i`'s
//! output lands at index `i` no matter which worker ran it, which is
//! what keeps parallel schedules bit-identical to sequential ones.
//!
//! [`MemoryGate`] bounds how many bytes of task transient memory are
//! in flight at once. Workers *admit* a job's worst-case cost before
//! running it and release on drop; when the gate is full they block —
//! backpressure — so peak RSS is set by `min(workers, capacity/cost)`
//! jobs, **independent of how many tasks the queue holds**. Admission
//! order can never change results: tasks are pure functions of their
//! index, and the gate only delays starts.

use crate::error::{panic_message, RuntimeError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// A sharded work-stealing queue running `n` index-addressed tasks
/// across a fixed worker pool.
///
/// # Examples
///
/// ```
/// use nfbist_runtime::queue::WorkQueue;
///
/// let squares = WorkQueue::new(4).run(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkQueue {
    workers: usize,
}

impl WorkQueue {
    /// Creates a queue with `workers` worker threads (values below 1
    /// are clamped to 1; a single worker runs every task inline on the
    /// calling thread).
    pub fn new(workers: usize) -> Self {
        WorkQueue {
            workers: workers.max(1),
        }
    }

    /// Creates a queue sized to the machine
    /// (`std::thread::available_parallelism`, falling back to 1).
    pub fn with_available_parallelism() -> Self {
        Self::new(thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `task(i)` for every `i in 0..n` and returns the outputs in
    /// index order.
    ///
    /// Indices are pre-split into one contiguous shard per worker;
    /// worker `w` drains shard `w`, then steals from shards
    /// `w+1, w+2, …` (wrapping). With one worker (or at most one task)
    /// the queue degenerates to a plain sequential loop on the calling
    /// thread — no threads are spawned at all.
    ///
    /// A panicking task propagates the panic to the caller once the
    /// scope joins; for per-task isolation use
    /// [`WorkQueue::run_isolated`] instead. A violated scheduling
    /// invariant (a result slot left unfilled) panics with the
    /// [`RuntimeError::ResultMissing`] message — callers that want the
    /// typed error use [`WorkQueue::try_run`].
    pub fn run<T, F>(&self, n: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_run(n, task) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// The fallible twin of [`WorkQueue::run`]: missing or poisoned
    /// result slots come back as [`RuntimeError::ResultMissing`]
    /// instead of panicking the collection pass.
    ///
    /// Task panics still unwind through the scope join (the queue
    /// itself has no opinion on them); [`WorkQueue::run_isolated`] is
    /// the level that catches those.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ResultMissing`] for the first (lowest-index)
    /// slot no worker filled — only possible when the scheduling
    /// invariant is violated.
    pub fn try_run<T, F>(&self, n: usize, task: F) -> Result<Vec<T>, RuntimeError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers == 1 || n <= 1 {
            return Ok((0..n).map(task).collect());
        }
        let results = self.run_slots(n, &task);
        results
            .into_iter()
            .enumerate()
            .map(|(index, slot)| slot.ok_or(RuntimeError::ResultMissing { index }))
            .collect()
    }

    /// Runs `task(i)` for every `i in 0..n` with **per-task panic
    /// isolation**: each task executes under `catch_unwind`, so one
    /// panicking task yields an `Err` in its own slot while every
    /// other task runs to completion — no worker dies, no scope
    /// unwinds, no process abort.
    ///
    /// `AssertUnwindSafe` is sound here because a faulted task's
    /// result is *discarded wholesale* — the only state crossing the
    /// unwind boundary is the returned `Result`, never a partially
    /// mutated value.
    ///
    /// Slot `i` holds, in order of precedence:
    /// [`RuntimeError::TaskPanicked`] when task `i` panicked,
    /// [`RuntimeError::ResultMissing`] when its slot was never filled,
    /// otherwise `Ok` with the task's output.
    ///
    /// # Examples
    ///
    /// ```
    /// use nfbist_runtime::queue::WorkQueue;
    ///
    /// let out = WorkQueue::new(2).run_isolated(4, |i| {
    ///     assert!(i != 2, "task 2 is a bad die");
    ///     i * 10
    /// });
    /// assert_eq!(out[0], Ok(0));
    /// assert_eq!(out[1], Ok(10));
    /// assert!(out[2].is_err(), "the panic is isolated to slot 2");
    /// assert_eq!(out[3], Ok(30));
    /// ```
    pub fn run_isolated<T, F>(&self, n: usize, task: F) -> Vec<Result<T, RuntimeError>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let isolated = |i: usize| {
            catch_unwind(AssertUnwindSafe(|| task(i))).map_err(|payload| {
                RuntimeError::TaskPanicked {
                    index: i,
                    message: panic_message(payload.as_ref()),
                }
            })
        };
        if self.workers == 1 || n <= 1 {
            return (0..n).map(isolated).collect();
        }
        self.run_slots(n, &isolated)
            .into_iter()
            .enumerate()
            .map(|(index, slot)| slot.unwrap_or(Err(RuntimeError::ResultMissing { index })))
            .collect()
    }

    /// The shared scheduling core: sharded claiming with round-robin
    /// stealing, each output parked in its task's slot. Returns the
    /// raw slots; the callers decide how to treat holes.
    fn run_slots<T, F>(&self, n: usize, task: &F) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let shards = self.workers.min(n);
        // Shard s covers [s·n/shards, (s+1)·n/shards): contiguous,
        // near-equal, exhaustive.
        let cursors: Vec<AtomicUsize> = (0..shards)
            .map(|s| AtomicUsize::new(s * n / shards))
            .collect();
        let ends: Vec<usize> = (0..shards).map(|s| (s + 1) * n / shards).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

        thread::scope(|scope| {
            for w in 0..shards {
                let cursors = &cursors;
                let ends = &ends;
                let results = &results;
                scope.spawn(move || {
                    // Own shard first, then steal round-robin.
                    for k in 0..shards {
                        let s = (w + k) % shards;
                        loop {
                            let i = cursors[s].fetch_add(1, Ordering::Relaxed);
                            if i >= ends[s] {
                                break;
                            }
                            let out = task(i);
                            *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                        }
                    }
                });
            }
        });

        results
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }
}

impl Default for WorkQueue {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

/// A global memory-budget admission gate: at most `capacity` bytes of
/// admitted cost in flight at once; excess admissions block until
/// running jobs release theirs (backpressure).
///
/// A single job whose cost exceeds the whole capacity is **clamped to
/// the capacity** rather than deadlocked: it admits alone, runs, and
/// releases — the gate bounds concurrency, it does not reject work.
///
/// # Examples
///
/// ```
/// use nfbist_runtime::queue::MemoryGate;
///
/// let gate = MemoryGate::new(1 << 20); // 1 MiB in flight, max
/// {
///     let _job = gate.admit(512 * 1024);
///     assert_eq!(gate.in_flight(), 512 * 1024);
/// } // guard dropped: bytes released
/// assert_eq!(gate.in_flight(), 0);
/// ```
#[derive(Debug)]
pub struct MemoryGate {
    capacity: Option<usize>,
    in_flight: Mutex<usize>,
    released: Condvar,
}

impl MemoryGate {
    /// A gate admitting at most `capacity` bytes at once (clamped to
    /// ≥ 1).
    pub fn new(capacity: usize) -> Self {
        MemoryGate {
            capacity: Some(capacity.max(1)),
            in_flight: Mutex::new(0),
            released: Condvar::new(),
        }
    }

    /// A gate that never blocks (no global budget).
    pub fn unbounded() -> Self {
        MemoryGate {
            capacity: None,
            in_flight: Mutex::new(0),
            released: Condvar::new(),
        }
    }

    /// The byte capacity, or `None` for an unbounded gate.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Admitted bytes currently in flight.
    pub fn in_flight(&self) -> usize {
        *self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until `cost` bytes fit under the capacity, admits them,
    /// and returns the guard that releases them on drop. On an
    /// unbounded gate this never blocks; on a bounded gate a cost
    /// beyond the whole capacity is clamped to it (see the type docs).
    pub fn admit(&self, cost: usize) -> GateGuard<'_> {
        let Some(capacity) = self.capacity else {
            return GateGuard {
                gate: self,
                cost: 0,
            };
        };
        let cost = cost.min(capacity);
        let mut in_flight = self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *in_flight + cost > capacity {
            in_flight = self
                .released
                .wait(in_flight)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *in_flight += cost;
        GateGuard { gate: self, cost }
    }

    /// Like [`MemoryGate::admit`], but waits at most `timeout` — the
    /// `Condvar` wait is bounded (`wait_timeout`), so a gate starved
    /// by stalled holders can no longer park an admission forever.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::AdmissionTimeout`] when the cost still does not
    /// fit once `timeout` has elapsed.
    ///
    /// # Examples
    ///
    /// ```
    /// use nfbist_runtime::queue::MemoryGate;
    /// use std::time::Duration;
    ///
    /// let gate = MemoryGate::new(100);
    /// let held = gate.admit(100); // gate full
    /// assert!(gate
    ///     .admit_within(1, Duration::from_millis(10))
    ///     .is_err());
    /// drop(held);
    /// assert!(gate.admit_within(1, Duration::from_millis(10)).is_ok());
    /// ```
    pub fn admit_within(
        &self,
        cost: usize,
        timeout: Duration,
    ) -> Result<GateGuard<'_>, RuntimeError> {
        let Some(capacity) = self.capacity else {
            return Ok(GateGuard {
                gate: self,
                cost: 0,
            });
        };
        let clamped = cost.min(capacity);
        let deadline = Instant::now() + timeout;
        let mut in_flight = self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *in_flight + clamped > capacity {
            let now = Instant::now();
            if now >= deadline {
                return Err(RuntimeError::AdmissionTimeout {
                    requested: cost,
                    capacity,
                    waited: timeout,
                });
            }
            in_flight = self
                .released
                .wait_timeout(in_flight, deadline.saturating_duration_since(now))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        *in_flight += clamped;
        Ok(GateGuard {
            gate: self,
            cost: clamped,
        })
    }
}

/// The in-flight reservation of one admitted job; dropping it releases
/// the bytes and wakes blocked admissions.
#[derive(Debug)]
pub struct GateGuard<'a> {
    gate: &'a MemoryGate,
    cost: usize,
}

impl GateGuard<'_> {
    /// The admitted (possibly clamped) cost in bytes.
    pub fn cost(&self) -> usize {
        self.cost
    }
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        let mut in_flight = self
            .gate
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *in_flight = in_flight.saturating_sub(self.cost);
        drop(in_flight);
        self.gate.released.notify_all();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(WorkQueue::new(0).workers(), 1);
        assert_eq!(WorkQueue::new(5).workers(), 5);
        assert!(WorkQueue::with_available_parallelism().workers() >= 1);
        assert_eq!(
            WorkQueue::default(),
            WorkQueue::with_available_parallelism()
        );
    }

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1usize, 2, 3, 4, 9, 64] {
            for n in [0usize, 1, 2, 7, 23, 100] {
                let out = WorkQueue::new(workers).run(n, |i| i * 10);
                assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        WorkQueue::new(7).run(97, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_worker_runs_inline_on_the_calling_thread() {
        let caller = thread::current().id();
        let out = WorkQueue::new(1).run(4, |_| thread::current().id() == caller);
        assert!(out.into_iter().all(|b| b));
        // A single task avoids thread spawn even with many workers.
        let out = WorkQueue::new(8).run(1, |_| thread::current().id() == caller);
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn stealing_drains_a_skewed_shard() {
        // One pathological task at index 0 (shard 0); the other shard's
        // worker must finish its own range and steal the rest of shard
        // 0's work while worker 0 is stuck.
        let blocked = AtomicBool::new(true);
        let done = AtomicUsize::new(0);
        let out = WorkQueue::new(2).run(16, |i| {
            if i == 0 {
                // Wait until every other task has completed — only
                // possible if stealing works.
                while done.load(Ordering::Acquire) < 15 {
                    thread::yield_now();
                }
                blocked.store(false, Ordering::Release);
            } else {
                done.fetch_add(1, Ordering::AcqRel);
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        assert!(!blocked.load(Ordering::Acquire));
    }

    #[test]
    fn tasks_may_borrow_caller_data() {
        let data: Vec<u64> = (0..100).collect();
        let sums = WorkQueue::new(3).run(10, |i| data[i * 10..(i + 1) * 10].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn isolated_run_contains_panics_to_their_slot() {
        crate::chaos::install_quiet_panic_hook();
        for workers in [1usize, 2, 4, 8] {
            let out = WorkQueue::new(workers).run_isolated(16, |i| {
                if i % 5 == 0 {
                    panic!("bad die {i}");
                }
                i * 3
            });
            for (i, slot) in out.iter().enumerate() {
                if i % 5 == 0 {
                    assert_eq!(
                        slot,
                        &Err(RuntimeError::TaskPanicked {
                            index: i,
                            message: format!("bad die {i}"),
                        }),
                        "workers={workers}"
                    );
                } else {
                    assert_eq!(slot, &Ok(i * 3), "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn isolated_run_with_no_panics_matches_run() {
        for workers in [1usize, 3, 7] {
            let plain = WorkQueue::new(workers).run(23, |i| i * i);
            let isolated: Vec<usize> = WorkQueue::new(workers)
                .run_isolated(23, |i| i * i)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(plain, isolated);
        }
    }

    #[test]
    fn try_run_returns_results_in_order() {
        for workers in [1usize, 2, 5] {
            let out = WorkQueue::new(workers).try_run(9, |i| i + 1).unwrap();
            assert_eq!(out, (1..=9).collect::<Vec<_>>());
        }
        let empty: Vec<u32> = WorkQueue::new(4).try_run(0, |_| 1u32).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn gate_bounded_wait_times_out_instead_of_hanging() {
        let gate = MemoryGate::new(64);
        let held = gate.admit(64);
        let before = std::time::Instant::now();
        let err = gate
            .admit_within(16, Duration::from_millis(30))
            .expect_err("full gate must time the admission out");
        assert!(before.elapsed() >= Duration::from_millis(30));
        assert_eq!(
            err,
            RuntimeError::AdmissionTimeout {
                requested: 16,
                capacity: 64,
                waited: Duration::from_millis(30),
            }
        );
        drop(held);
        // With room available the bounded admission behaves like admit,
        // including the oversized-cost clamp.
        let guard = gate
            .admit_within(1 << 30, Duration::from_millis(10))
            .unwrap();
        assert_eq!(guard.cost(), 64);
        drop(guard);
        // Unbounded gates never time out.
        let unbounded = MemoryGate::unbounded();
        assert_eq!(
            unbounded
                .admit_within(usize::MAX, Duration::ZERO)
                .unwrap()
                .cost(),
            0
        );
    }

    #[test]
    fn gate_admits_within_capacity_without_blocking() {
        let gate = MemoryGate::new(100);
        assert_eq!(gate.capacity(), Some(100));
        let a = gate.admit(40);
        let b = gate.admit(60);
        assert_eq!(gate.in_flight(), 100);
        assert_eq!(a.cost(), 40);
        drop(a);
        assert_eq!(gate.in_flight(), 60);
        drop(b);
        assert_eq!(gate.in_flight(), 0);
        // Zero capacity clamps to 1 rather than deadlocking.
        assert_eq!(MemoryGate::new(0).capacity(), Some(1));
    }

    #[test]
    fn oversized_job_is_clamped_not_deadlocked() {
        let gate = MemoryGate::new(10);
        let guard = gate.admit(1_000_000);
        assert_eq!(guard.cost(), 10);
        assert_eq!(gate.in_flight(), 10);
    }

    #[test]
    fn unbounded_gate_never_blocks() {
        let gate = MemoryGate::unbounded();
        assert_eq!(gate.capacity(), None);
        let _a = gate.admit(usize::MAX);
        let _b = gate.admit(usize::MAX);
        assert_eq!(gate.in_flight(), 0, "unbounded admissions carry no cost");
    }

    #[test]
    fn a_blocked_admission_proceeds_once_a_holder_releases() {
        let gate = MemoryGate::new(10);
        let holder = gate.admit(8);
        let admitted = AtomicBool::new(false);
        thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                // 5 more bytes do not fit beside the 8 in flight.
                let guard = gate.admit(5);
                admitted.store(true, Ordering::Release);
                guard.cost()
            });
            thread::sleep(Duration::from_millis(30));
            assert!(!admitted.load(Ordering::Acquire), "admitted past capacity");
            assert_eq!(gate.in_flight(), 8);
            drop(holder);
            assert_eq!(waiter.join().unwrap(), 5);
        });
        assert!(admitted.load(Ordering::Acquire));
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn a_bounded_admission_succeeds_when_room_frees_in_time() {
        let gate = MemoryGate::new(4);
        let holder = gate.admit(4);
        thread::scope(|scope| {
            scope.spawn(move || {
                thread::sleep(Duration::from_millis(20));
                drop(holder);
            });
            let guard = gate
                .admit_within(3, Duration::from_secs(30))
                .expect("the release must wake the bounded wait");
            assert_eq!(guard.cost(), 3);
            assert_eq!(gate.in_flight(), 3);
        });
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn backpressure_bounds_concurrency() {
        // Capacity for exactly 2 unit-cost jobs: across 4 workers and
        // 32 tasks, no more than 2 may ever be inside the gate at once.
        let gate = MemoryGate::new(2);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        WorkQueue::new(4).run(32, |i| {
            let _slot = gate.admit(1);
            let now = running.fetch_add(1, Ordering::AcqRel) + 1;
            peak.fetch_max(now, Ordering::AcqRel);
            thread::yield_now();
            running.fetch_sub(1, Ordering::AcqRel);
            i
        });
        assert_eq!(gate.in_flight(), 0);
        assert!(
            peak.load(Ordering::Acquire) <= 2,
            "gate must cap concurrent admissions at capacity/cost (saw {})",
            peak.load(Ordering::Acquire)
        );
    }
}
