//! Fleet-scale continuous monitoring: many concurrent
//! [`MonitorSession`] missions under the one supervised, budgeted,
//! chaos-hardened [`crate::fleet::FleetPlan`] that also screens lots.
//!
//! A fielded product is not one monitored part but a population:
//! every unit runs its own unbounded acquisition → windowed-estimator
//! → CUSUM pipeline, and the maintenance backend wants the resulting
//! alarm timelines without one wedged unit taking the collector down.
//! [`MonitorPlan::run_fleet`] fans `n` missions across the plan's
//! workers through the same supervised fan-out as lot screening —
//! memory-gate admission, [`TaskPolicy`](crate::supervisor::TaskPolicy)
//! panic isolation, deadline, retry and quarantine, optional seeded
//! [`ChaosConfig`](crate::chaos::ChaosConfig) faults in front of the
//! mission body — and returns slot-indexed [`MonitorOutcome`]s.
//!
//! Determinism is inherited, not negotiated: a mission's timeline is a
//! pure function of its [`MonitorSession`] configuration (the builder
//! closure gets only the monitor index), results are slot-indexed, and
//! supervision changes *whether* a timeline is kept, never its bits —
//! so every monitor that survives a chaos run returns exactly the
//! clean run's timeline, for any worker count and budget.
//!
//! The long-running form is [`crate::service::Service`] over
//! [`MonitorFleet`] jobs: fleets submitted over time, graceful drain on
//! shutdown, health snapshots mid-flight.

use crate::error::RuntimeError;
use nfbist_soc::fleet::DieFaultKind;
use nfbist_soc::monitor::{AlarmKind, MonitorReport, MonitorSession};
use nfbist_soc::SocError;

/// The monitoring name of the one supervised plan: a plan that screens
/// lots also runs monitor fleets.
pub use crate::fleet::FleetPlan as MonitorPlan;

/// Builds the mission for one monitor index — the only input a fleet
/// monitor gets, so the whole fleet is a pure function of the closure.
pub type MonitorBuilder = dyn Fn(usize) -> Result<MonitorSession, SocError> + Send + Sync;

/// A monitor whose every supervised attempt failed, quarantined with
/// its terminal fault (the [`DieFaultKind`] taxonomy is shared with
/// lot screening — the faults are the same runtime faults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorFault {
    /// The monitor's fleet index.
    pub monitor: usize,
    /// Attempts consumed before quarantine.
    pub attempts: usize,
    /// The terminal fault.
    pub kind: DieFaultKind,
}

/// One fleet slot's outcome: the mission's full report, or the fault
/// that quarantined it.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorOutcome {
    /// The mission completed; the report carries the same bits a solo
    /// run of the same [`MonitorSession`] produces.
    Completed(MonitorReport),
    /// Every attempt faulted; no timeline was kept.
    Faulted(MonitorFault),
}

impl MonitorOutcome {
    /// The completed report, if the mission survived.
    pub fn report(&self) -> Option<&MonitorReport> {
        match self {
            MonitorOutcome::Completed(report) => Some(report),
            MonitorOutcome::Faulted(_) => None,
        }
    }

    /// The quarantine record, if the mission faulted.
    pub fn fault(&self) -> Option<&MonitorFault> {
        match self {
            MonitorOutcome::Completed(_) => None,
            MonitorOutcome::Faulted(fault) => Some(fault),
        }
    }
}

/// The slot-indexed outcome of one monitor fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorFleetReport {
    outcomes: Vec<MonitorOutcome>,
}

impl MonitorFleetReport {
    /// All outcomes, indexed by monitor.
    pub fn outcomes(&self) -> &[MonitorOutcome] {
        &self.outcomes
    }

    /// The fleet size.
    pub fn monitors(&self) -> usize {
        self.outcomes.len()
    }

    /// Monitors whose mission completed.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.report().is_some())
            .count()
    }

    /// Monitors lost to runtime faults.
    pub fn faulted(&self) -> usize {
        self.outcomes.iter().filter(|o| o.fault().is_some()).count()
    }

    /// `true` when at least one monitor was quarantined.
    pub fn degraded(&self) -> bool {
        self.faulted() > 0
    }

    /// Completed reports with their monitor indices, in fleet order.
    pub fn reports(&self) -> impl Iterator<Item = (usize, &MonitorReport)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.report().map(|r| (i, r)))
    }

    /// Quarantine records, in fleet order.
    pub fn faults(&self) -> impl Iterator<Item = &MonitorFault> {
        self.outcomes.iter().filter_map(MonitorOutcome::fault)
    }

    /// Monitors whose timeline contains at least one event of `kind`.
    pub fn monitors_with(&self, kind: AlarmKind) -> Vec<usize> {
        self.reports()
            .filter(|(_, r)| r.first_event(kind).is_some())
            .map(|(i, _)| i)
            .collect()
    }
}

impl MonitorPlan {
    /// Runs `monitors` missions across the plan's workers. `build`
    /// receives each monitor's fleet index and constructs its mission;
    /// `cost_bytes` is one mission's worst-case transient memory, the
    /// unit the admission gate charges (a mission's streaming working
    /// set — its chains' chunk buffers, the DUT's noise-synthesis
    /// blocks and the window's retained Welch segments — is a good
    /// value; see `MeasurementSession::streaming_chunk_samples`).
    ///
    /// A mission whose every attempt fails (panic, deadline,
    /// allocation failure, pipeline error) becomes a
    /// [`MonitorOutcome::Faulted`] slot; every other slot carries a
    /// report bit-identical to a solo run of the same mission — for
    /// any worker count, budget, and chaos schedule.
    ///
    /// # Examples
    ///
    /// ```
    /// use nfbist_runtime::monitor::MonitorPlan;
    /// use nfbist_soc::monitor::MonitorSession;
    /// use nfbist_soc::session::derive_seed;
    /// use nfbist_soc::setup::BistSetup;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // 4 independent missions over 2 workers; per-monitor seeds are
    /// // derived inside the builder, so the fleet reproduces exactly.
    /// let fleet = MonitorPlan::workers(2).run_fleet(4, 1 << 16, |i| {
    ///     let mut setup = BistSetup::quick(derive_seed(7, i as u64));
    ///     setup.samples = 1 << 14;
    ///     setup.nfft = 1_024;
    ///     MonitorSession::new(setup)
    /// });
    /// assert_eq!(fleet.completed(), 4);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_fleet<F>(&self, monitors: usize, cost_bytes: usize, build: F) -> MonitorFleetReport
    where
        F: Fn(usize) -> Result<MonitorSession, SocError> + Sync,
    {
        let outcomes = self
            .fan_out(monitors, cost_bytes, |i, inject| {
                inject()?;
                build(i)
                    .and_then(|mission| mission.run())
                    .map_err(RuntimeError::from)
            })
            .into_iter()
            .enumerate()
            .map(|(monitor, slot)| match slot {
                Ok(report) => MonitorOutcome::Completed(report),
                Err((attempts, kind)) => MonitorOutcome::Faulted(MonitorFault {
                    monitor,
                    attempts,
                    kind,
                }),
            })
            .collect();
        MonitorFleetReport { outcomes }
    }
}

/// A monitor fleet as one [`crate::service::Service`] job:
/// [`MonitorPlan::run_fleet`]'s arguments, owned.
pub struct MonitorFleet {
    pub(crate) monitors: usize,
    pub(crate) cost_bytes: usize,
    pub(crate) build: Box<MonitorBuilder>,
}

impl MonitorFleet {
    /// A fleet of `monitors` missions; `cost_bytes` and `build` are
    /// [`MonitorPlan::run_fleet`]'s parameters.
    pub fn new<F>(monitors: usize, cost_bytes: usize, build: F) -> Self
    where
        F: Fn(usize) -> Result<MonitorSession, SocError> + Send + Sync + 'static,
    {
        MonitorFleet {
            monitors,
            cost_bytes,
            build: Box::new(build),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::supervisor::TaskPolicy;
    use nfbist_soc::session::derive_seed;
    use nfbist_soc::setup::BistSetup;

    fn mission(seed: u64) -> Result<MonitorSession, SocError> {
        let mut setup = BistSetup::quick(seed);
        setup.samples = 1 << 14;
        setup.nfft = 1_024;
        Ok(MonitorSession::new(setup)?
            .estimator(
                nfbist_core::power_ratio::PsdRatioEstimator::new(20_000.0, 1_024, (100.0, 1_000.0))
                    .unwrap(),
            )
            .digitizer(nfbist_analog::converter::AdcDigitizer::new(12).unwrap())
            .warmup(4))
    }

    fn build(i: usize) -> Result<MonitorSession, SocError> {
        mission(derive_seed(31, i as u64))
    }

    #[test]
    fn fleet_is_bitwise_identical_across_schedules() {
        let reference = MonitorPlan::sequential().run_fleet(4, 1 << 16, build);
        assert_eq!(reference.completed(), 4);
        assert!(!reference.degraded());
        for plan in [
            MonitorPlan::workers(3),
            MonitorPlan::workers(4).memory_budget(1 << 16),
        ] {
            let fleet = plan.run_fleet(4, 1 << 16, build);
            assert_eq!(fleet, reference, "schedule {plan:?} changed a timeline");
        }
        // And each slot matches a solo run of the same mission.
        for (i, report) in reference.reports() {
            let solo = build(i).unwrap().run().unwrap();
            assert_eq!(report.alarm_signature(), solo.alarm_signature());
            assert_eq!(report.series_signature(), solo.series_signature());
        }
    }

    #[test]
    fn chaos_quarantines_marked_monitors_and_spares_the_rest() {
        crate::chaos::install_quiet_panic_hook();
        let chaos = ChaosConfig::new(7)
            .panic_rate_per_mille(250)
            .stall_rate_per_mille(0)
            .alloc_rate_per_mille(0)
            .faulty_attempts(1);
        let marked: Vec<usize> = chaos
            .scheduled_faults(6)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert!(!marked.is_empty(), "seed must mark some monitors");
        let clean = MonitorPlan::sequential().run_fleet(6, 1 << 16, build);
        let fleet = MonitorPlan::workers(3)
            .chaos(chaos)
            .run_fleet(6, 1 << 16, build);
        assert!(fleet.degraded());
        let faulted: Vec<usize> = fleet.faults().map(|f| f.monitor).collect();
        assert_eq!(faulted, marked, "exactly the marked monitors must fault");
        for fault in fleet.faults() {
            assert!(matches!(fault.kind, DieFaultKind::Panicked { .. }));
        }
        // Survivors carry the clean fleet's exact bits.
        for (i, report) in fleet.reports() {
            assert_eq!(
                report.alarm_signature(),
                clean.outcomes()[i].report().unwrap().alarm_signature()
            );
        }
    }

    #[test]
    fn retry_recovers_single_attempt_faults() {
        crate::chaos::install_quiet_panic_hook();
        let clean = MonitorPlan::sequential().run_fleet(4, 1 << 16, build);
        let fleet = MonitorPlan::workers(2)
            .task_policy(TaskPolicy::new().attempts(2))
            .chaos(
                ChaosConfig::new(19)
                    .panic_rate_per_mille(300)
                    .stall_rate_per_mille(0)
                    .alloc_rate_per_mille(100)
                    .faulty_attempts(1),
            )
            .run_fleet(4, 1 << 16, build);
        assert!(!fleet.degraded());
        assert_eq!(fleet, clean, "recovered fleet must be bit-identical");
    }

    #[test]
    fn builder_errors_quarantine_only_their_monitor() {
        let fleet = MonitorPlan::workers(2)
            .task_policy(TaskPolicy::new().attempts(2))
            .run_fleet(3, 1 << 16, |i| {
                if i == 1 {
                    Err(SocError::InvalidParameter {
                        name: "mission",
                        reason: "monitor 1 has no setup",
                    })
                } else {
                    build(i)
                }
            });
        assert_eq!(
            (fleet.monitors(), fleet.completed(), fleet.faulted()),
            (3, 2, 1)
        );
        let fault = fleet.outcomes()[1].fault().unwrap();
        assert_eq!((fault.monitor, fault.attempts), (1, 2));
        assert!(
            matches!(&fault.kind, DieFaultKind::Error { message } if message.contains("monitor 1 has no setup")),
            "{:?}",
            fault.kind
        );
        assert!(fleet.outcomes()[1].report().is_none());
        // The other slots are the solo runs of their missions.
        let indices: Vec<usize> = fleet.reports().map(|(i, _)| i).collect();
        assert_eq!(indices, [0, 2]);
        for (i, report) in fleet.reports() {
            assert!(fleet.outcomes()[i].fault().is_none());
            let solo = build(i).unwrap().run().unwrap();
            assert_eq!(report.series_signature(), solo.series_signature());
        }
    }

    #[test]
    fn allocation_chaos_quarantines_as_allocation_failures() {
        let chaos = ChaosConfig::new(3)
            .panic_rate_per_mille(0)
            .stall_rate_per_mille(0)
            .alloc_rate_per_mille(500);
        let marked: Vec<usize> = chaos
            .scheduled_faults(4)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert!(!marked.is_empty(), "seed must mark some monitors");
        let fleet = MonitorPlan::workers(2)
            .chaos(chaos)
            .run_fleet(4, 1 << 16, build);
        let faults: Vec<&MonitorFault> = fleet.faults().collect();
        assert_eq!(faults.iter().map(|f| f.monitor).collect::<Vec<_>>(), marked);
        for fault in faults {
            assert_eq!(fault.attempts, 1);
            assert_eq!(fault.kind, DieFaultKind::AllocationFailed);
        }
    }

    #[test]
    fn empty_fleet_reports_no_monitors() {
        let fleet = MonitorPlan::workers(4).run_fleet(0, 1 << 16, build);
        assert_eq!(fleet.monitors(), 0);
        assert_eq!((fleet.completed(), fleet.faulted()), (0, 0));
        assert!(!fleet.degraded());
        assert_eq!(fleet.reports().count(), 0);
        assert!(fleet.monitors_with(AlarmKind::WarmupComplete).is_empty());
    }

    #[test]
    fn monitors_with_lists_survivors_holding_the_event() {
        crate::chaos::install_quiet_panic_hook();
        let chaos = ChaosConfig::new(7)
            .panic_rate_per_mille(250)
            .stall_rate_per_mille(0)
            .alloc_rate_per_mille(0);
        let fleet = MonitorPlan::workers(2)
            .chaos(chaos)
            .run_fleet(6, 1 << 16, build);
        let survivors: Vec<usize> = fleet.reports().map(|(i, _)| i).collect();
        assert!(survivors.len() < 6, "seed must quarantine some monitors");
        // Every mission outlives its warm-up, so exactly the survivors
        // carry the warm-up event; a faulted monitor carries none.
        assert_eq!(fleet.monitors_with(AlarmKind::WarmupComplete), survivors);
        for (i, report) in fleet.reports() {
            let has_drift = report.first_event(AlarmKind::DriftAlarm).is_some();
            assert_eq!(
                fleet.monitors_with(AlarmKind::DriftAlarm).contains(&i),
                has_drift
            );
        }
    }
}
