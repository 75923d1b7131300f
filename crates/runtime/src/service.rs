//! The long-running supervised service: jobs submitted over time to a
//! dedicated service thread, graceful drain on shutdown, health
//! snapshots mid-flight.
//!
//! [`FleetPlan::screen_lot`] is one lot, one call, and
//! [`FleetPlan::run_fleet`] one monitor fleet. A production line is a
//! *stream* of lots arriving while earlier ones are still on the
//! tester, and a maintenance backend a stream of monitor fleets.
//! [`Service`] owns such a stream for any [`Job`]: the service thread
//! pops submitted jobs off a queue and runs each under the service's
//! [`FleetPlan`] — panic isolation, deadlines, retries and chaos
//! injection included — while callers hold a [`Ticket`] they can block
//! on ([`Service::wait`]) or poll ([`Service::try_take`]). The two jobs
//! are a lot screen ([`LotScreen`]) and a monitor fleet
//! ([`MonitorFleet`]).
//!
//! Shutdown is a **graceful drain**: [`Service::shutdown`] stops
//! accepting new jobs, finishes everything already queued, then joins
//! the service thread. Results of drained jobs stay collectable
//! afterwards. Dropping the service performs the same drain.
//!
//! Each job runs under its own `catch_unwind`, so even a fault that
//! escapes per-task isolation (a scheduler invariant violation, say)
//! is recorded against that job's ticket instead of killing the
//! service loop.

use crate::error::{panic_message, RuntimeError};
use crate::fleet::FleetPlan;
use crate::monitor::{MonitorFleet, MonitorFleetReport};
use nfbist_soc::fleet::{LotReport, LotScreen};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// A unit of work the [`Service`] runs under its plan: a lot screen or
/// a monitor fleet.
pub trait Job: Send + 'static {
    /// What one finished job files under its ticket.
    type Output: Send + 'static;

    /// Runs the whole job under `plan`.
    ///
    /// # Errors
    ///
    /// Whatever the job's plan entry point returns; per-task faults are
    /// folded into the output, not returned.
    fn run(&self, plan: &FleetPlan) -> Result<Self::Output, RuntimeError>;

    /// `(completed, faulted)` task counts of a finished job — dies or
    /// missions — for the service's health counters.
    fn tally(output: &Self::Output) -> (usize, usize);
}

impl Job for LotScreen {
    type Output = LotReport;

    fn run(&self, plan: &FleetPlan) -> Result<LotReport, RuntimeError> {
        plan.screen_lot(self)
    }

    fn tally(report: &LotReport) -> (usize, usize) {
        (report.dies() - report.faulted(), report.faulted())
    }
}

impl Job for MonitorFleet {
    type Output = MonitorFleetReport;

    fn run(&self, plan: &FleetPlan) -> Result<MonitorFleetReport, RuntimeError> {
        Ok(plan.run_fleet(self.monitors, self.cost_bytes, &*self.build))
    }

    fn tally(fleet: &MonitorFleetReport) -> (usize, usize) {
        (fleet.completed(), fleet.faulted())
    }
}

/// A claim on one submitted job's eventual output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    id: u64,
}

impl Ticket {
    /// The service-assigned job id (submission order, starting at 0).
    pub const fn id(&self) -> u64 {
        self.id
    }
}

/// A point-in-time view of the service's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Jobs submitted but not yet started.
    pub queued: usize,
    /// Whether a job is running right now.
    pub running: bool,
    /// Jobs finished (successfully or not) over the service lifetime.
    pub completed_jobs: u64,
    /// Tasks (dies, missions) completed across all finished jobs.
    pub completed_tasks: u64,
    /// Tasks lost to runtime faults across all finished jobs.
    pub faulted_tasks: u64,
    /// Whether the service is draining (no new submissions).
    pub draining: bool,
}

struct State<J: Job> {
    queue: VecDeque<(u64, J)>,
    results: HashMap<u64, Result<J::Output, RuntimeError>>,
    running: Option<u64>,
    next_id: u64,
    draining: bool,
    completed_jobs: u64,
    completed_tasks: u64,
    faulted_tasks: u64,
}

impl<J: Job> State<J> {
    fn pending(&self, id: u64) -> bool {
        self.running == Some(id) || self.queue.iter().any(|(qid, _)| *qid == id)
    }
}

struct Shared<J: Job> {
    state: Mutex<State<J>>,
    submitted: Condvar,
    finished: Condvar,
}

impl<J: Job> Shared<J> {
    fn lock(&self) -> MutexGuard<'_, State<J>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The long-running service; see the module docs.
///
/// # Examples
///
/// ```
/// use nfbist_analog::wafer::{DefectModel, Lot, ProcessVariation, WaferMap};
/// use nfbist_runtime::fleet::FleetPlan;
/// use nfbist_runtime::service::Service;
/// use nfbist_soc::coverage::FaultUniverse;
/// use nfbist_soc::fleet::LotScreen;
/// use nfbist_soc::screening::Screen;
/// use nfbist_soc::setup::BistSetup;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut service = Service::start(FleetPlan::workers(2));
/// let lot = Lot::new(
///     WaferMap::disc(4)?,
///     ProcessVariation::default(),
///     DefectModel::new().background(0.2)?,
///     5,
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
/// let ticket = service.submit(screening)?;
/// let report = service.wait(ticket)?;
/// assert!(report.dies() > 0);
/// service.shutdown(); // graceful drain
/// # Ok(())
/// # }
/// ```
pub struct Service<J: Job> {
    shared: Arc<Shared<J>>,
    plan: FleetPlan,
    worker: Option<JoinHandle<()>>,
}

impl<J: Job> std::fmt::Debug for Service<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("plan", &self.plan)
            .field("health", &self.health())
            .finish()
    }
}

impl<J: Job> Service<J> {
    /// Starts the service thread; every submitted job runs under
    /// `plan`.
    pub fn start(plan: FleetPlan) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                results: HashMap::new(),
                running: None,
                next_id: 0,
                draining: false,
                completed_jobs: 0,
                completed_tasks: 0,
                faulted_tasks: 0,
            }),
            submitted: Condvar::new(),
            finished: Condvar::new(),
        });
        let loop_shared = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("nfbist-service".to_string())
            .spawn(move || Self::service_loop(&loop_shared, plan))
            .ok();
        Service {
            shared,
            plan,
            worker,
        }
    }

    fn service_loop(shared: &Shared<J>, plan: FleetPlan) {
        loop {
            let (id, job) = {
                let mut state = shared.lock();
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        state.running = Some(job.0);
                        break job;
                    }
                    if state.draining {
                        return;
                    }
                    state = shared
                        .submitted
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Belt and braces: per-task isolation lives in the plan;
            // this unwind guard keeps even an engine-level panic from
            // killing the service loop.
            let result =
                catch_unwind(AssertUnwindSafe(|| job.run(&plan))).unwrap_or_else(|payload| {
                    Err(RuntimeError::TaskPanicked {
                        index: 0,
                        message: format!("job panicked: {}", panic_message(payload.as_ref())),
                    })
                });
            let mut state = shared.lock();
            state.completed_jobs += 1;
            if let Ok(output) = &result {
                let (completed, faulted) = J::tally(output);
                state.completed_tasks += completed as u64;
                state.faulted_tasks += faulted as u64;
            }
            state.results.insert(id, result);
            state.running = None;
            drop(state);
            shared.finished.notify_all();
        }
    }

    /// The plan every job runs under.
    pub const fn plan(&self) -> FleetPlan {
        self.plan
    }

    /// Submits a job and returns the ticket its output will be filed
    /// under.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ServiceShutdown`] once the service is draining.
    pub fn submit(&self, job: J) -> Result<Ticket, RuntimeError> {
        let mut state = self.shared.lock();
        if state.draining {
            return Err(RuntimeError::ServiceShutdown);
        }
        let id = state.next_id;
        state.next_id += 1;
        state.queue.push_back((id, job));
        drop(state);
        self.shared.submitted.notify_all();
        Ok(Ticket { id })
    }

    /// Takes the ticket's output if it is ready, without blocking.
    /// `Ok(None)` means the job is still queued or running.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownTicket`] for a ticket that was never
    /// issued or whose output was already taken; the job's own fault
    /// when it failed outright.
    pub fn try_take(&self, ticket: Ticket) -> Result<Option<J::Output>, RuntimeError> {
        let mut state = self.shared.lock();
        match state.results.remove(&ticket.id) {
            Some(result) => result.map(Some),
            None if state.pending(ticket.id) => Ok(None),
            None => Err(RuntimeError::UnknownTicket { id: ticket.id }),
        }
    }

    /// Blocks until the ticket's job has finished and returns its
    /// output (each ticket's output can be taken once).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownTicket`] for a ticket that was never
    /// issued, was already taken, or was abandoned by a drain before
    /// the job started; the job's own fault when it failed outright.
    pub fn wait(&self, ticket: Ticket) -> Result<J::Output, RuntimeError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(result) = state.results.remove(&ticket.id) {
                return result;
            }
            if !state.pending(ticket.id) {
                return Err(RuntimeError::UnknownTicket { id: ticket.id });
            }
            state = self
                .shared
                .finished
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A point-in-time health snapshot: queue depth, in-flight state,
    /// lifetime job/task counters, drain flag.
    pub fn health(&self) -> HealthSnapshot {
        let state = self.shared.lock();
        HealthSnapshot {
            queued: state.queue.len(),
            running: state.running.is_some(),
            completed_jobs: state.completed_jobs,
            completed_tasks: state.completed_tasks,
            faulted_tasks: state.faulted_tasks,
            draining: state.draining,
        }
    }

    /// Gracefully drains the service: refuses new submissions, finishes
    /// every queued job, joins the service thread. Outputs of drained
    /// jobs remain collectable through [`Service::wait`] /
    /// [`Service::try_take`]. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.lock().draining = true;
        self.shared.submitted.notify_all();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
        // Wake anyone blocked in wait() on a job that will never run.
        self.shared.finished.notify_all();
    }
}

impl<J: Job> Drop for Service<J> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::supervisor::TaskPolicy;
    use nfbist_analog::wafer::{DefectModel, Lot, ProcessVariation, WaferMap};
    use nfbist_soc::coverage::FaultUniverse;
    use nfbist_soc::fleet::LotStatus;
    use nfbist_soc::monitor::MonitorSession;
    use nfbist_soc::screening::Screen;
    use nfbist_soc::session::derive_seed;
    use nfbist_soc::setup::BistSetup;
    use nfbist_soc::SocError;

    fn tiny_screening(seed: u64) -> LotScreen {
        let lot = Lot::new(
            WaferMap::disc(4).unwrap(),
            ProcessVariation::default(),
            DefectModel::new().background(0.2).unwrap(),
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
            FaultUniverse::new().excess_noise(&[8.0]).unwrap(),
        )
        .unwrap()
    }

    fn mission(i: usize) -> Result<MonitorSession, SocError> {
        let mut setup = BistSetup::quick(derive_seed(5, i as u64));
        setup.samples = 1 << 14;
        setup.nfft = 1_024;
        MonitorSession::new(setup)
    }

    /// What a [`Scripted`] job does when the service runs it.
    enum Script {
        /// Finishes with `(completed, faulted)` tasks.
        Tasks(usize, usize),
        /// Returns an error instead of an output.
        Fail,
        /// Panics inside `Job::run`.
        Panic,
        /// Waits until the latch opens, then finishes with one task.
        Hold(Arc<(Mutex<bool>, Condvar)>),
    }

    /// A job with a scripted outcome that logs `(tag, plan workers)`
    /// when it starts, so the service loop is tested without screening
    /// anything.
    struct Scripted {
        tag: usize,
        script: Script,
        log: Arc<Mutex<Vec<(usize, usize)>>>,
    }

    impl Job for Scripted {
        type Output = (usize, usize);

        fn run(&self, plan: &FleetPlan) -> Result<(usize, usize), RuntimeError> {
            self.log
                .lock()
                .unwrap()
                .push((self.tag, plan.worker_count()));
            match &self.script {
                Script::Tasks(completed, faulted) => Ok((*completed, *faulted)),
                Script::Fail => Err(RuntimeError::ResultMissing { index: self.tag }),
                Script::Panic => panic!("scripted job {} panicked", self.tag),
                Script::Hold(latch) => {
                    let (open, opened) = &**latch;
                    let mut open = open.lock().unwrap();
                    while !*open {
                        open = opened.wait(open).unwrap();
                    }
                    Ok((1, 0))
                }
            }
        }

        fn tally(output: &(usize, usize)) -> (usize, usize) {
            *output
        }
    }

    fn scripted(tag: usize, script: Script, log: &Arc<Mutex<Vec<(usize, usize)>>>) -> Scripted {
        Scripted {
            tag,
            script,
            log: Arc::clone(log),
        }
    }

    fn open(latch: &(Mutex<bool>, Condvar)) {
        *latch.0.lock().unwrap() = true;
        latch.1.notify_all();
    }

    #[test]
    fn lots_stream_through_and_reports_match_direct_screening() {
        let service = Service::start(FleetPlan::workers(2));
        let tickets: Vec<Ticket> = (0..3)
            .map(|k| service.submit(tiny_screening(10 + k)).unwrap())
            .collect();
        assert_eq!(
            tickets.iter().map(Ticket::id).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        for (k, ticket) in tickets.into_iter().enumerate() {
            let report = service.wait(ticket).unwrap();
            let direct = tiny_screening(10 + k as u64).run().unwrap();
            assert_eq!(report, direct, "service lot {k} must match direct run");
            // A ticket's report can only be taken once.
            assert_eq!(
                service.wait(ticket),
                Err(RuntimeError::UnknownTicket { id: ticket.id() })
            );
        }
        let health = service.health();
        assert_eq!(health.completed_jobs, 3);
        assert_eq!(health.queued, 0);
        assert!(!health.draining);
        assert_eq!(health.faulted_tasks, 0);
        assert!(health.completed_tasks > 0);
    }

    #[test]
    fn monitor_fleets_stream_through_and_match_direct_runs() {
        let service = Service::start(FleetPlan::workers(2));
        let a = service
            .submit(MonitorFleet::new(2, 1 << 16, mission))
            .unwrap();
        let b = service
            .submit(MonitorFleet::new(3, 1 << 16, mission))
            .unwrap();
        assert_eq!((a.id(), b.id()), (0, 1));
        for (ticket, monitors) in [(a, 2), (b, 3)] {
            let direct = FleetPlan::workers(2).run_fleet(monitors, 1 << 16, mission);
            assert_eq!(service.wait(ticket).unwrap(), direct);
        }
        let health = service.health();
        assert_eq!(health.completed_jobs, 2);
        assert_eq!(health.completed_tasks, 5);
        assert_eq!(health.faulted_tasks, 0);
    }

    #[test]
    fn try_take_polls_without_blocking() {
        let service = Service::start(FleetPlan::workers(2));
        let ticket = service
            .submit(MonitorFleet::new(1, 1 << 16, mission))
            .unwrap();
        // Either still pending (Ok(None)) or already done — never an
        // error while the job is live.
        loop {
            match service.try_take(ticket) {
                Ok(None) => thread::yield_now(),
                Ok(Some(fleet)) => {
                    assert_eq!(fleet.completed(), 1);
                    break;
                }
                Err(e) => panic!("live ticket must not error: {e}"),
            }
        }
        assert!(matches!(
            service.try_take(ticket),
            Err(RuntimeError::UnknownTicket { .. })
        ));
        assert!(matches!(
            service.try_take(Ticket { id: 999 }),
            Err(RuntimeError::UnknownTicket { id: 999 })
        ));
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_refuses_new_ones() {
        let mut service = Service::start(FleetPlan::workers(2));
        let a = service.submit(tiny_screening(1)).unwrap();
        let b = service.submit(tiny_screening(2)).unwrap();
        service.shutdown();
        // Graceful drain: both queued lots finished.
        assert!(service.wait(a).is_ok());
        assert!(service.wait(b).is_ok());
        let health = service.health();
        assert_eq!(health.completed_jobs, 2);
        assert!(health.draining);
        // And no new work is accepted.
        assert_eq!(
            service.submit(tiny_screening(3)).unwrap_err(),
            RuntimeError::ServiceShutdown
        );
        // Idempotent.
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_monitor_fleets_too() {
        let mut service = Service::start(FleetPlan::workers(2));
        let a = service
            .submit(MonitorFleet::new(2, 1 << 16, mission))
            .unwrap();
        let b = service
            .submit(MonitorFleet::new(1, 1 << 16, mission))
            .unwrap();
        service.shutdown();
        // Both fleets finished during the drain and stay collectable.
        assert_eq!(service.try_take(b).unwrap().map(|f| f.completed()), Some(1));
        assert_eq!(service.wait(a).unwrap().completed(), 2);
        let health = service.health();
        assert_eq!((health.completed_jobs, health.completed_tasks), (2, 3));
        assert!(health.draining && !health.running);
        assert_eq!(
            service
                .submit(MonitorFleet::new(1, 1 << 16, mission))
                .unwrap_err(),
            RuntimeError::ServiceShutdown
        );
    }

    #[test]
    fn chaos_lots_come_back_degraded_not_crashed() {
        crate::chaos::install_quiet_panic_hook();
        let plan = FleetPlan::workers(2)
            .task_policy(TaskPolicy::new().attempts(1))
            .chaos(
                ChaosConfig::new(17)
                    .panic_rate_per_mille(300)
                    .stall_rate_per_mille(0)
                    .alloc_rate_per_mille(200),
            );
        let service = Service::start(plan);
        let ticket = service.submit(tiny_screening(6)).unwrap();
        let report = service.wait(ticket).unwrap();
        assert_eq!(report.status(), LotStatus::Degraded);
        assert!(report.faulted() > 0);
        let health = service.health();
        assert_eq!(health.faulted_tasks, report.faulted() as u64);
        assert_eq!(
            health.completed_tasks,
            (report.dies() - report.faulted()) as u64
        );
        // The service loop survived the injected panics.
        let clean = service.submit(tiny_screening(7));
        assert!(clean.is_ok());
    }

    #[test]
    fn jobs_run_one_at_a_time_in_submission_order_under_the_service_plan() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let plan = FleetPlan::workers(3);
        let service = Service::start(plan);
        assert_eq!(service.plan(), plan);
        let tickets: Vec<Ticket> = (0..5)
            .map(|k| {
                service
                    .submit(scripted(k, Script::Tasks(k, 0), &log))
                    .unwrap()
            })
            .collect();
        for (k, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.id(), k as u64);
            assert_eq!(service.wait(ticket).unwrap(), (k, 0));
        }
        let expected: Vec<(usize, usize)> = (0..5).map(|k| (k, 3)).collect();
        assert_eq!(*log.lock().unwrap(), expected);
    }

    #[test]
    fn a_panicking_job_is_filed_against_its_ticket_and_the_loop_survives() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let service = Service::start(FleetPlan::sequential());
        let bad = service.submit(scripted(0, Script::Panic, &log)).unwrap();
        let good = service
            .submit(scripted(1, Script::Tasks(4, 1), &log))
            .unwrap();
        assert_eq!(
            service.wait(bad),
            Err(RuntimeError::TaskPanicked {
                index: 0,
                message: "job panicked: scripted job 0 panicked".into(),
            })
        );
        assert_eq!(service.wait(good).unwrap(), (4, 1));
        let health = service.health();
        assert_eq!(health.completed_jobs, 2);
        // Only the job that returned an output adds to the task tallies.
        assert_eq!((health.completed_tasks, health.faulted_tasks), (4, 1));
    }

    #[test]
    fn a_failed_job_returns_its_error_once_and_tallies_no_tasks() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let service = Service::start(FleetPlan::sequential());
        let ticket = service.submit(scripted(6, Script::Fail, &log)).unwrap();
        assert_eq!(
            service.wait(ticket),
            Err(RuntimeError::ResultMissing { index: 6 })
        );
        // The fault was the ticket's one result.
        assert_eq!(
            service.try_take(ticket),
            Err(RuntimeError::UnknownTicket { id: 0 })
        );
        let health = service.health();
        assert_eq!(health.completed_jobs, 1);
        assert_eq!((health.completed_tasks, health.faulted_tasks), (0, 0));
    }

    #[test]
    fn health_shows_the_running_job_and_the_queue_behind_it() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let latch = Arc::new((Mutex::new(false), Condvar::new()));
        let service = Service::start(FleetPlan::sequential());
        let held = service
            .submit(scripted(0, Script::Hold(Arc::clone(&latch)), &log))
            .unwrap();
        let queued = service
            .submit(scripted(1, Script::Tasks(2, 0), &log))
            .unwrap();
        while !service.health().running {
            thread::yield_now();
        }
        let health = service.health();
        assert_eq!(
            health,
            HealthSnapshot {
                queued: 1,
                running: true,
                completed_jobs: 0,
                completed_tasks: 0,
                faulted_tasks: 0,
                draining: false,
            }
        );
        // Neither the running nor the queued job is ready yet.
        assert_eq!(service.try_take(held), Ok(None));
        assert_eq!(service.try_take(queued), Ok(None));
        open(&latch);
        assert_eq!(service.wait(held).unwrap(), (1, 0));
        assert_eq!(service.wait(queued).unwrap(), (2, 0));
        let health = service.health();
        assert_eq!((health.queued, health.running), (0, false));
        assert_eq!((health.completed_jobs, health.completed_tasks), (2, 3));
    }

    #[test]
    fn dropping_the_service_drains_every_queued_job() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let latch = Arc::new((Mutex::new(false), Condvar::new()));
        let service = Service::start(FleetPlan::sequential());
        service
            .submit(scripted(0, Script::Hold(Arc::clone(&latch)), &log))
            .unwrap();
        for k in 1..4 {
            service
                .submit(scripted(k, Script::Tasks(1, 0), &log))
                .unwrap();
        }
        // The first job cannot finish until the latch opens, so the
        // rest are still queued when the drop starts draining.
        let releaser = thread::spawn({
            let latch = Arc::clone(&latch);
            move || {
                thread::sleep(std::time::Duration::from_millis(20));
                open(&latch);
            }
        });
        drop(service);
        releaser.join().unwrap();
        let tags: Vec<usize> = log.lock().unwrap().iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, [0, 1, 2, 3]);
    }

    #[test]
    fn unissued_tickets_are_unknown_without_blocking() {
        let service: Service<Scripted> = Service::start(FleetPlan::sequential());
        assert_eq!(
            service.wait(Ticket { id: 7 }),
            Err(RuntimeError::UnknownTicket { id: 7 })
        );
        assert_eq!(
            service.try_take(Ticket { id: 0 }),
            Err(RuntimeError::UnknownTicket { id: 0 })
        );
        let rendered = format!("{service:?}");
        assert!(rendered.starts_with("Service"), "{rendered}");
        assert!(rendered.contains("queued: 0"), "{rendered}");
    }

    #[test]
    fn monitor_fleet_faults_reach_the_health_counters() {
        crate::chaos::install_quiet_panic_hook();
        let chaos = ChaosConfig::new(7)
            .panic_rate_per_mille(0)
            .stall_rate_per_mille(0)
            .alloc_rate_per_mille(400);
        let marked = chaos.scheduled_faults(4).len();
        assert!(marked > 0, "seed must mark some monitors");
        let service = Service::start(FleetPlan::workers(2).chaos(chaos));
        let ticket = service
            .submit(MonitorFleet::new(4, 1 << 16, mission))
            .unwrap();
        let fleet = service.wait(ticket).unwrap();
        assert_eq!(fleet.faulted(), marked);
        let health = service.health();
        assert_eq!(health.faulted_tasks, marked as u64);
        assert_eq!(health.completed_tasks, (4 - marked) as u64);
    }
}
