//! The supervised fleet plan: fan-out of independent jobs under a
//! global memory budget, behind both lot screening
//! ([`FleetPlan::screen_lot`], the parallel, backpressured,
//! **fault-tolerant** twin of `nfbist_soc::fleet::LotScreen::run`) and
//! monitoring fleets ([`FleetPlan::run_fleet`]; the plan is re-exported
//! as [`crate::monitor::MonitorPlan`]).
//!
//! A lot is thousands of die-screening jobs, each a pure function of
//! its die index. The plan fans them across a [`WorkQueue`] (sharded
//! claiming + work stealing) with every job first *admitted* through a
//! [`MemoryGate`]: the job's worst-case transient memory
//! (`LotScreen::die_cost_bytes`) must fit under the global budget
//! before it may run, and blocked workers simply wait — backpressure.
//! Peak RSS is therefore set by `min(workers, budget / die_cost)`
//! concurrent jobs, **independent of lot size**.
//!
//! Every job runs under the plan's [`TaskPolicy`]: panics are caught
//! at the job boundary, attempts past the per-job deadline are
//! discarded, failed jobs retry with deterministic backoff, and a job
//! that exhausts its budget is quarantined into a [`DieFault`] record
//! — so one bad die degrades the [`LotReport`] instead of crashing the
//! lot. An optional [`ChaosConfig`] injects seeded runtime faults
//! (worker panics, stalls, allocation failures) in front of the job
//! body, never into its inputs.
//!
//! Determinism is unconditional: die outcomes depend only on
//! `derive_seed(lot_seed, die_index)`, results are slot-indexed, and
//! `LotScreen::assemble_records` folds them in die order — so the
//! report is bit-identical across worker counts, budgets, and
//! admission orderings, and every die that *survives* a chaos run
//! returns exactly the bits of the clean run. The gate and the policy
//! can change *when* and *whether* a die's result is kept, never *what*
//! it measures.

use crate::chaos::{ChaosConfig, InjectedFault};
use crate::error::RuntimeError;
use crate::queue::{MemoryGate, WorkQueue};
use crate::supervisor::{TaskPolicy, Watchdog};
use nfbist_soc::fleet::{DieFault, DieFaultKind, DieRecord, LotReport, LotScreen};

/// A fleet execution plan: worker count, optional global memory budget
/// for admission control, per-job supervision policy, and optional
/// seeded fault injection.
///
/// # Examples
///
/// ```
/// use nfbist_analog::wafer::{DefectModel, Lot, ProcessVariation, WaferMap};
/// use nfbist_runtime::fleet::FleetPlan;
/// use nfbist_soc::coverage::FaultUniverse;
/// use nfbist_soc::fleet::LotScreen;
/// use nfbist_soc::screening::Screen;
/// use nfbist_soc::setup::BistSetup;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lot = Lot::new(
///     WaferMap::disc(5)?,
///     ProcessVariation::default(),
///     DefectModel::new().background(0.2)?,
///     11,
/// )?;
/// let mut setup = BistSetup::quick(0);
/// setup.samples = 1 << 13;
/// setup.nfft = 1_024;
/// let screening = LotScreen::new(
///     lot,
///     setup,
///     Screen::new(12.0, 3.0)?,
///     FaultUniverse::new().excess_noise(&[8.0])?,
/// )?;
/// // 2 workers, ~2 concurrent dies' worth of global budget: the
/// // report is bit-identical to `screening.run()`.
/// let report = FleetPlan::workers(2)
///     .memory_budget(2 * screening.die_cost_bytes())
///     .screen_lot(&screening)?;
/// assert_eq!(report, screening.run()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetPlan {
    workers: usize,
    budget: Option<usize>,
    policy: TaskPolicy,
    chaos: Option<ChaosConfig>,
}

/// The chaos hook handed to a supervised job body: injects the
/// scheduled fault for the current `(job, attempt)`, if any.
pub(crate) type Inject<'a> = &'a (dyn Fn() -> Result<(), RuntimeError> + Sync);

impl FleetPlan {
    /// A plan sized to the machine
    /// (`std::thread::available_parallelism`), unbudgeted, with the
    /// default one-attempt policy and no fault injection.
    pub fn new() -> Self {
        Self::workers(WorkQueue::with_available_parallelism().workers())
    }

    /// A single-worker plan: jobs run inline on the calling thread, in
    /// index order — the reference schedule.
    pub fn sequential() -> Self {
        Self::workers(1)
    }

    /// A plan with an explicit worker count (clamped to ≥ 1).
    pub fn workers(n: usize) -> Self {
        FleetPlan {
            workers: n.max(1),
            budget: None,
            policy: TaskPolicy::new(),
            chaos: None,
        }
    }

    /// The configured worker count.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Sets the global memory budget in bytes: at most this much
    /// admitted job cost in flight at once, enforced by a
    /// [`MemoryGate`] with backpressure. Unset means unbounded (the
    /// worker count alone caps concurrency).
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// The global memory budget, if set.
    pub fn memory_budget_bytes(&self) -> Option<usize> {
        self.budget
    }

    /// Sets the per-job supervision policy: deadline, retry budget,
    /// backoff. The default is one attempt, no deadline — panic
    /// isolation alone.
    pub const fn task_policy(mut self, policy: TaskPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The per-job supervision policy in force.
    pub const fn policy(&self) -> TaskPolicy {
        self.policy
    }

    /// Arms seeded runtime fault injection: each job consults the
    /// schedule before running (see [`ChaosConfig`]).
    pub const fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The armed chaos schedule, if any.
    pub const fn chaos_config(&self) -> Option<ChaosConfig> {
        self.chaos
    }

    /// The one supervised fan-out behind [`FleetPlan::screen_lot`] and
    /// [`FleetPlan::run_fleet`]: runs `body(i, inject)` for every job
    /// `i in 0..jobs` across the plan's workers, each attempt first
    /// admitted through the memory gate at `cost` bytes and supervised
    /// under the plan's policy (one watchdog for the whole fan-out,
    /// only when a deadline can expire). `inject` fires the attempt's
    /// scheduled chaos fault; the body calls it where the fault should
    /// land, normally first. Each slot holds the job's output or its
    /// terminal `(attempts, kind)`.
    pub(crate) fn fan_out<T, F>(
        &self,
        jobs: usize,
        cost: usize,
        body: F,
    ) -> Vec<Result<T, (usize, DieFaultKind)>>
    where
        T: Send,
        F: Fn(usize, Inject<'_>) -> Result<T, RuntimeError> + Sync,
    {
        let gate = match self.budget {
            Some(bytes) => MemoryGate::new(bytes),
            None => MemoryGate::unbounded(),
        };
        let deadline = self.policy.deadline_duration();
        let watchdog = deadline.map(|_| Watchdog::new());
        WorkQueue::new(self.workers)
            .run_isolated(jobs, |i| {
                self.policy.supervise(i, watchdog.as_ref(), |attempt| {
                    // Admission before acquisition: the job's transient
                    // buffers are only allocated once its cost fits
                    // under the global budget. The guard is held for
                    // the whole job. Under a deadline the wait itself
                    // is bounded.
                    let _in_flight = match deadline {
                        Some(limit) => gate.admit_within(cost, limit)?,
                        None => gate.admit(cost),
                    };
                    let inject = || match &self.chaos {
                        Some(chaos) => chaos.inject(i, attempt, deadline, cost),
                        None => Ok(()),
                    };
                    body(i, &inject)
                })
            })
            .into_iter()
            .map(|slot| slot.and_then(|inner| inner).map_err(terminal_fault))
            .collect()
    }

    /// Screens every die of the lot across the plan's workers, each
    /// die admitted through the global memory gate and supervised under
    /// the plan's [`TaskPolicy`], and folds the records into the lot
    /// report.
    ///
    /// A die whose every attempt fails (panic, deadline, allocation
    /// failure, screening error) becomes a
    /// [`DieRecord::Faulted`] entry and the report comes back
    /// *degraded* — surviving dies are still bit-identical to
    /// [`LotScreen::run`] for every worker count, budget, and chaos
    /// schedule.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] only for a malformed assembly (an
    /// impossible record set) — per-die faults are folded into the
    /// report, not returned.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use nfbist_analog::wafer::{DefectModel, Lot, ProcessVariation, WaferMap};
    /// use nfbist_runtime::chaos::ChaosConfig;
    /// use nfbist_runtime::fleet::FleetPlan;
    /// use nfbist_runtime::supervisor::TaskPolicy;
    /// use nfbist_soc::coverage::FaultUniverse;
    /// use nfbist_soc::fleet::LotScreen;
    /// use nfbist_soc::screening::Screen;
    /// use nfbist_soc::setup::BistSetup;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let lot = Lot::new(
    ///     WaferMap::disc(6)?,
    ///     ProcessVariation::default(),
    ///     DefectModel::new().background(0.2)?,
    ///     3,
    /// )?;
    /// let screening = LotScreen::new(
    ///     lot,
    ///     BistSetup::quick(0),
    ///     Screen::new(12.0, 3.0)?,
    ///     FaultUniverse::new().excess_noise(&[8.0])?,
    /// )?;
    /// // Inject seeded worker panics; quarantined dies degrade the
    /// // report instead of crashing the lot.
    /// let report = FleetPlan::workers(4)
    ///     .task_policy(TaskPolicy::new().attempts(2))
    ///     .chaos(ChaosConfig::new(99).faulty_attempts(2))
    ///     .screen_lot(&screening)?;
    /// println!("status: {:?}, faulted: {}", report.status(), report.faulted());
    /// # Ok(())
    /// # }
    /// ```
    pub fn screen_lot(&self, screening: &LotScreen) -> Result<LotReport, RuntimeError> {
        let adaptive = screening.adaptive_screen().is_some();
        let slots = self.fan_out(screening.dies(), screening.die_cost_bytes(), |i, inject| {
            // On an adaptive lot, panics and stalls are deferred into
            // the first sequential checkpoint so the fault lands
            // *mid-acquisition* — after the streaming chains hold
            // partial chunks — proving a quarantined die never leaks
            // partial data into the report's float folds. Allocation
            // failures model a failed *admission* and stay in front of
            // the die body (the probe cannot return an error anyway).
            let defer = adaptive
                && self.chaos.is_some_and(|chaos| {
                    matches!(
                        chaos.fault_for(i),
                        Some(InjectedFault::Panic | InjectedFault::Stall)
                    )
                });
            if defer {
                let probe = |checkpoint: usize| {
                    if checkpoint == 0 {
                        // Only Panic/Stall reach here; neither returns
                        // an error.
                        let _ = inject();
                    }
                };
                return screening
                    .screen_die_probed(i, &probe)
                    .map_err(RuntimeError::from);
            }
            inject()?;
            screening.screen_die(i).map_err(RuntimeError::from)
        });
        let records = slots
            .into_iter()
            .enumerate()
            .map(|(die, slot)| match slot {
                Ok(outcome) => DieRecord::Screened(outcome),
                Err((attempts, kind)) => DieRecord::Faulted(DieFault {
                    die,
                    attempts,
                    kind,
                }),
            })
            .collect();
        screening
            .assemble_records(records)
            .map_err(RuntimeError::from)
    }
}

impl Default for FleetPlan {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders a job's terminal runtime fault into the attempts it used and
/// the fault kind the soc-layer records carry. Quarantines unwrap to
/// their last fault; anything else was a single-attempt loss.
fn terminal_fault(fault: RuntimeError) -> (usize, DieFaultKind) {
    let (attempts, last) = match fault {
        RuntimeError::Quarantined { attempts, last, .. } => (attempts, *last),
        other => (1, other),
    };
    let kind = match last {
        RuntimeError::TaskPanicked { message, .. } => DieFaultKind::Panicked { message },
        RuntimeError::DeadlineExceeded { .. } => DieFaultKind::DeadlineExceeded,
        RuntimeError::AllocationFailed { .. } => DieFaultKind::AllocationFailed,
        other => DieFaultKind::Error {
            message: other.to_string(),
        },
    };
    (attempts, kind)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::supervisor::Backoff;
    use nfbist_analog::wafer::{DefectModel, Lot, ProcessVariation, WaferMap};
    use nfbist_soc::coverage::FaultUniverse;
    use nfbist_soc::fleet::LotStatus;
    use nfbist_soc::screening::{RetestPolicy, Screen};
    use nfbist_soc::setup::BistSetup;
    use std::time::Duration;

    fn small_screening(seed: u64) -> LotScreen {
        let lot = Lot::new(
            WaferMap::disc(5).unwrap(),
            ProcessVariation::default(),
            DefectModel::new().background(0.3).unwrap(),
            seed,
        )
        .unwrap();
        let mut setup = BistSetup::quick(0);
        setup.samples = 1 << 13;
        setup.nfft = 1_024;
        LotScreen::new(
            lot,
            setup,
            Screen::new(12.0, 3.0).unwrap(),
            FaultUniverse::new().excess_noise(&[2.0, 8.0]).unwrap(),
        )
        .unwrap()
        .retest(RetestPolicy::new(2, 2).unwrap())
    }

    #[test]
    fn plan_construction() {
        assert_eq!(FleetPlan::sequential().worker_count(), 1);
        assert_eq!(FleetPlan::workers(0).worker_count(), 1);
        assert!(FleetPlan::new().worker_count() >= 1);
        assert_eq!(FleetPlan::default(), FleetPlan::new());
        assert_eq!(FleetPlan::new().memory_budget_bytes(), None);
        assert_eq!(
            FleetPlan::workers(2)
                .memory_budget(1 << 20)
                .memory_budget_bytes(),
            Some(1 << 20)
        );
        assert_eq!(FleetPlan::new().policy(), TaskPolicy::new());
        assert_eq!(FleetPlan::new().chaos_config(), None);
        let plan = FleetPlan::workers(2)
            .task_policy(TaskPolicy::new().attempts(3))
            .chaos(ChaosConfig::new(9));
        assert_eq!(plan.policy().max_attempts(), 3);
        assert_eq!(plan.chaos_config().map(|c| c.seed()), Some(9));
    }

    #[test]
    fn terminal_faults_unwrap_quarantines() {
        let panicked = RuntimeError::TaskPanicked {
            index: 4,
            message: "boom".into(),
        };
        assert_eq!(
            terminal_fault(RuntimeError::Quarantined {
                index: 4,
                attempts: 3,
                last: Box::new(panicked.clone()),
            }),
            (
                3,
                DieFaultKind::Panicked {
                    message: "boom".into()
                }
            )
        );
        assert_eq!(
            terminal_fault(RuntimeError::AllocationFailed { index: 4, bytes: 8 }),
            (1, DieFaultKind::AllocationFailed)
        );
        assert!(matches!(
            terminal_fault(RuntimeError::ResultMissing { index: 4 }),
            (1, DieFaultKind::Error { .. })
        ));
    }

    #[test]
    fn parallel_budgeted_screening_is_bitwise_sequential() {
        let screening = small_screening(77);
        let reference = screening.run().unwrap();
        for plan in [
            FleetPlan::sequential(),
            FleetPlan::workers(3),
            // Budget for a single in-flight die: full serialization
            // through the gate, still identical.
            FleetPlan::workers(4).memory_budget(screening.die_cost_bytes()),
            // Supervision without faults must be invisible.
            FleetPlan::workers(3).task_policy(
                TaskPolicy::new()
                    .attempts(3)
                    .deadline(Duration::from_secs(120))
                    .backoff(Backoff::fixed(Duration::from_millis(1))),
            ),
        ] {
            assert_eq!(
                plan.screen_lot(&screening).unwrap(),
                reference,
                "schedule {plan:?} must not change the report"
            );
        }
    }

    #[test]
    fn chaos_quarantines_marked_dies_and_spares_the_rest() {
        crate::chaos::install_quiet_panic_hook();
        let screening = small_screening(42);
        let reference = screening.run().unwrap();
        // Every marked die faults on all attempts: it must be
        // quarantined; unmarked dies must be bit-identical to the
        // clean run.
        let chaos = ChaosConfig::new(13)
            .panic_rate_per_mille(150)
            .stall_rate_per_mille(0)
            .alloc_rate_per_mille(150)
            .faulty_attempts(2);
        let plan = FleetPlan::workers(4)
            .task_policy(TaskPolicy::new().attempts(2))
            .chaos(chaos);
        let report = plan.screen_lot(&screening).unwrap();
        let marked: Vec<usize> = chaos
            .scheduled_faults(screening.dies())
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert!(!marked.is_empty(), "seed must mark some dies");
        assert_eq!(report.status(), LotStatus::Degraded);
        assert_eq!(report.faulted(), marked.len());
        let faulted: Vec<usize> = report.faults().map(|f| f.die).collect();
        assert_eq!(faulted, marked, "exactly the marked dies must fault");
        for fault in report.faults() {
            assert_eq!(fault.attempts, 2);
            match chaos.fault_for(fault.die).unwrap() {
                InjectedFault::Panic => {
                    assert!(matches!(fault.kind, DieFaultKind::Panicked { .. }))
                }
                InjectedFault::AllocFailure => {
                    assert_eq!(fault.kind, DieFaultKind::AllocationFailed)
                }
                InjectedFault::Stall => unreachable!("stall rate is zero"),
            }
        }
        // Surviving dies carry the clean run's exact bits.
        for (record, clean) in report.records().iter().zip(reference.outcomes()) {
            if let Some(outcome) = record.outcome() {
                assert_eq!(outcome.die, clean.die);
                assert_eq!(outcome.nf_db.to_bits(), clean.nf_db.to_bits());
            }
        }
    }

    #[test]
    fn retry_recovers_chaos_faults_into_a_complete_report() {
        crate::chaos::install_quiet_panic_hook();
        let screening = small_screening(77);
        let reference = screening.run().unwrap();
        // Faults clear after the first attempt; a 2-attempt policy must
        // recover every die and reproduce the clean report bit for bit.
        let report = FleetPlan::workers(3)
            .task_policy(TaskPolicy::new().attempts(2))
            .chaos(
                ChaosConfig::new(21)
                    .panic_rate_per_mille(200)
                    .stall_rate_per_mille(0)
                    .alloc_rate_per_mille(100)
                    .faulty_attempts(1),
            )
            .screen_lot(&screening)
            .unwrap();
        assert_eq!(report.status(), LotStatus::Complete);
        assert_eq!(report, reference, "recovered lot must be bit-identical");
    }

    #[test]
    fn stalled_dies_blow_the_deadline_and_degrade_the_lot() {
        crate::chaos::install_quiet_panic_hook();
        let screening = small_screening(8);
        let chaos = ChaosConfig::new(5)
            .panic_rate_per_mille(0)
            .stall_rate_per_mille(120)
            .alloc_rate_per_mille(0)
            .stall_extra(Duration::from_millis(30))
            .faulty_attempts(1);
        let stalled: Vec<usize> = chaos
            .scheduled_faults(screening.dies())
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert!(!stalled.is_empty(), "seed must stall some dies");
        // The stall sleeps deadline + extra, so a short deadline keeps
        // the test fast while guaranteeing every stalled die blows it.
        let report = FleetPlan::workers(2)
            .task_policy(TaskPolicy::new().deadline(Duration::from_millis(1500)))
            .chaos(chaos)
            .screen_lot(&screening)
            .unwrap();
        assert_eq!(report.status(), LotStatus::Degraded);
        let faulted: Vec<usize> = report.faults().map(|f| f.die).collect();
        assert_eq!(faulted, stalled);
        for fault in report.faults() {
            assert_eq!(fault.kind, DieFaultKind::DeadlineExceeded);
        }
    }

    #[test]
    fn fan_out_holds_every_job_to_the_memory_budget() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Budget for two jobs of cost 10: at most two bodies may ever
        // run at once, whatever the worker count.
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let slots = FleetPlan::workers(4)
            .memory_budget(20)
            .fan_out(24, 10, |i, inject| {
                inject()?;
                let now = running.fetch_add(1, Ordering::AcqRel) + 1;
                peak.fetch_max(now, Ordering::AcqRel);
                std::thread::sleep(Duration::from_millis(1));
                running.fetch_sub(1, Ordering::AcqRel);
                Ok(i * 2)
            });
        assert_eq!(
            slots,
            (0..24).map(|i| Ok(i * 2)).collect::<Vec<_>>(),
            "slots come back in job order"
        );
        let peak = peak.load(Ordering::Acquire);
        assert!((1..=2).contains(&peak), "peak concurrency {peak}");
    }

    #[test]
    fn fan_out_injects_chaos_afresh_on_every_attempt() {
        crate::chaos::install_quiet_panic_hook();
        // Every job is marked for an allocation failure on its first
        // attempt only.
        let chaos = ChaosConfig::new(1)
            .panic_rate_per_mille(0)
            .stall_rate_per_mille(0)
            .alloc_rate_per_mille(1000)
            .faulty_attempts(1);
        let body = |i: usize, inject: Inject<'_>| inject().map(|()| i);
        let one_attempt = FleetPlan::workers(2).chaos(chaos).fan_out(5, 64, body);
        assert!(one_attempt
            .iter()
            .all(|slot| *slot == Err((1, DieFaultKind::AllocationFailed))));
        let retried = FleetPlan::workers(2)
            .task_policy(TaskPolicy::new().attempts(2))
            .chaos(chaos)
            .fan_out(5, 64, body);
        assert_eq!(retried, (0..5).map(Ok).collect::<Vec<_>>());
        // Without a schedule the hook is a no-op.
        let clean = FleetPlan::workers(2).fan_out(5, 64, body);
        assert_eq!(clean, retried);
    }

    #[test]
    fn fan_out_maps_body_errors_and_overruns_to_their_fault_kinds() {
        let plan = FleetPlan::workers(3).task_policy(
            TaskPolicy::new()
                .attempts(2)
                .deadline(Duration::from_millis(250)),
        );
        let slots = plan.fan_out(4, 1, |i, _inject| match i {
            1 => Err(RuntimeError::TaskMissing { index: i }),
            2 => {
                std::thread::sleep(Duration::from_millis(500));
                Ok(i)
            }
            _ => Ok(i),
        });
        assert_eq!(slots[0], Ok(0));
        assert_eq!(
            slots[1],
            Err((
                2,
                DieFaultKind::Error {
                    message: RuntimeError::TaskMissing { index: 1 }.to_string()
                }
            ))
        );
        assert_eq!(slots[2], Err((2, DieFaultKind::DeadlineExceeded)));
        assert_eq!(slots[3], Ok(3));
    }

    #[test]
    fn screening_errors_quarantine_dies_instead_of_failing_the_lot() {
        // The sequential `LotScreen::run` stops at the first failing
        // die; the plan records every die as an error fault instead.
        let screening = small_screening(5).dut_builder(|| {
            Err(nfbist_soc::SocError::InvalidParameter {
                name: "dut",
                reason: "this DUT cannot be built",
            })
        });
        assert!(screening.run().is_err());
        let report = FleetPlan::workers(2)
            .task_policy(TaskPolicy::new().attempts(2))
            .screen_lot(&screening)
            .unwrap();
        assert_eq!(report.status(), LotStatus::Degraded);
        assert_eq!(report.faulted(), screening.dies());
        assert_eq!(report.outcomes().count(), 0);
        for (die, fault) in report.faults().enumerate() {
            assert_eq!((fault.die, fault.attempts), (die, 2));
            assert!(
                matches!(&fault.kind, DieFaultKind::Error { message } if message.contains("this DUT cannot be built")),
                "{:?}",
                fault.kind
            );
        }
    }
}
