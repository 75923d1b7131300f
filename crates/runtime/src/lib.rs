//! # nfbist-runtime — parallel batch execution for the DATE'05 reproduction
//!
//! The paper's headline numbers come from *many* independent
//! acquisitions: Monte Carlo repeatability trials, `repeats(n)`
//! Y-averaging, the four-op-amp Table 3 sweep, per-point multipoint
//! estimates. Every one of those batches is embarrassingly parallel —
//! and, because the whole simulation is seeded, every one of them can
//! be parallel **without changing a single bit of output**.
//!
//! This crate is the seam that delivers it:
//!
//! * [`queue::WorkQueue`] — the scheduling substrate: a sharded
//!   work-stealing index queue over scoped threads (std-only, no
//!   external runtime) returning slot-indexed results, so reduction
//!   order never depends on scheduling, plus [`queue::MemoryGate`], the
//!   global memory-budget admission gate whose backpressure bounds
//!   peak RSS independent of batch size.
//! * [`batch::BatchPlan`] — batch entry points over the measurement
//!   stack: [`batch::BatchPlan::run_session`] fans a session's repeats
//!   out (bit-identical to `MeasurementSession::run`),
//!   [`batch::BatchPlan::run_monte_carlo`] fans whole trials,
//!   [`batch::BatchPlan::run_cells`] fans arbitrary sweep cells,
//!   [`batch::BatchPlan::run_multipoint`] fans a multipoint BIST's
//!   acquisitions and per-point estimates, and
//!   [`batch::BatchPlan::run_coverage`] fans a defect-coverage
//!   campaign's variant × trial cells.
//! * [`batch::SessionBatch`] — ordered Monte Carlo results with the
//!   summary statistics the repeatability experiments need.
//! * [`batch::derive_seed`] — deterministic per-index seed derivation
//!   (golden-ratio walk + SplitMix64 finalizer), hashed so trial-level
//!   seeds never alias the session's arithmetic per-repeat walk.
//! * [`fleet::FleetPlan`] — the one supervised plan for fleets of
//!   independent jobs: each admitted through the memory gate,
//!   supervised and optionally chaos-injected.
//!   [`fleet::FleetPlan::screen_lot`] screens thousands of dies into a
//!   `LotReport` that is bit-identical across worker counts, budgets
//!   and admission orderings; [`fleet::FleetPlan::run_fleet`] (the
//!   plan is re-exported as [`monitor::MonitorPlan`]) runs in-field
//!   `MonitorSession` missions with every surviving alarm timeline
//!   bit-identical to its solo run.
//! * [`error::RuntimeError`] — the typed runtime-fault taxonomy
//!   (panic, deadline, admission timeout, quarantine, …) that turned
//!   the engine's ad-hoc panics and `expect`s into recoverable
//!   values.
//! * [`supervisor`] — per-task fault tolerance: `catch_unwind` panic
//!   isolation, per-die deadlines enforced by a `Condvar`
//!   `wait_timeout` watchdog thread, bounded retry with deterministic
//!   backoff, quarantine after the attempt budget.
//! * [`chaos`] — the seeded runtime fault-injection harness:
//!   scheduled worker panics, slow-die stalls and allocation-failure
//!   simulation, reproducible bit for bit from one seed
//!   (`NFBIST_CHAOS` opts a whole test run in).
//! * [`service::Service`] — the long-running service: lot screens or
//!   monitor fleets ([`service::Job`]) submitted over time to a
//!   supervised worker loop, graceful drain on shutdown, health
//!   snapshots mid-flight.
//!
//! ## Example
//!
//! ```no_run
//! use nfbist_runtime::batch::{derive_seed, BatchPlan};
//! use nfbist_soc::session::MeasurementSession;
//! use nfbist_soc::setup::BistSetup;
//!
//! # fn main() -> Result<(), nfbist_soc::SocError> {
//! // 12 Monte Carlo trials across all cores; per-trial seeds derived
//! // deterministically, so the batch reproduces exactly on any
//! // machine and any worker count.
//! let batch = BatchPlan::new().run_monte_carlo(12, |trial| {
//!     MeasurementSession::new(BistSetup::quick(derive_seed(42, trial as u64)))
//! })?;
//! println!("NF spread over 12 trials: {:.3} dB", batch.nf_std_db()?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Library code must propagate faults through `RuntimeError`, never
// swallow them into a panic; the test modules opt back out locally.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod batch;
pub mod chaos;
pub mod error;
pub mod fleet;
pub mod monitor;
pub mod queue;
pub mod service;
pub mod supervisor;

pub use batch::{derive_seed, BatchPlan, SessionBatch};
pub use chaos::ChaosConfig;
pub use error::RuntimeError;
pub use fleet::FleetPlan;
pub use queue::{MemoryGate, WorkQueue};
pub use service::{HealthSnapshot, Job, Service, Ticket};
pub use supervisor::{Backoff, TaskPolicy, Watchdog};
