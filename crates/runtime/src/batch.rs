//! Batch plans over measurement sessions: deterministic parallel
//! fan-out of repeats, Monte Carlo trials, sweep cells and multipoint
//! slots.
//!
//! Determinism is the design constraint: a batch run with `N` workers
//! must produce **bit-identical** output to the same batch run with 1
//! worker (or the plain sequential API). Two properties deliver that:
//!
//! 1. Every task is self-contained and fully determined by its index —
//!    per-repeat seeds come from the session's own
//!    `(setup seed, repeat index)` derivation, per-trial seeds from
//!    [`derive_seed`].
//! 2. The [`WorkQueue`] is slot-indexed (task `i`'s result lands at
//!    index `i`), so reduction order never depends on scheduling.

use crate::error::RuntimeError;
use crate::queue::WorkQueue;
use nfbist_analog::component::Amplifier;
use nfbist_analog::noise::NoiseSourceState;
use nfbist_soc::coverage::{CoverageCampaign, CoverageReport};
use nfbist_soc::freqresp::{FrequencyResponseMeasurement, FrequencyResponseTester};
use nfbist_soc::multipoint::{MultipointBist, PointMeasurement};
use nfbist_soc::session::{Measurement, MeasurementSession};
use nfbist_soc::SocError;
use std::sync::{Mutex, PoisonError};

/// The golden-ratio increment seeding the derivation walk —
/// re-exported from the session itself
/// ([`nfbist_soc::session::REPEAT_SEED_STRIDE`]) so the two layers
/// share one constant.
pub const SEED_STRIDE: u64 = nfbist_soc::session::REPEAT_SEED_STRIDE;

/// Deterministic per-index seed derivation (golden-ratio walk +
/// SplitMix64 finalizer), re-exported from
/// [`nfbist_soc::session::derive_seed`] — the one canonical scheme
/// shared by trial fan-out here and the coverage campaign's cells.
pub use nfbist_soc::session::derive_seed;

/// How a batch is executed: the worker count of the [`WorkQueue`] it
/// fans out over.
///
/// # Examples
///
/// Fanning a session's repeats across workers, bit-identical to
/// `session.run()`:
///
/// ```no_run
/// use nfbist_runtime::batch::BatchPlan;
/// use nfbist_soc::session::MeasurementSession;
/// use nfbist_soc::setup::BistSetup;
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// let session = MeasurementSession::new(BistSetup::quick(7))?.repeats(8);
/// let parallel = BatchPlan::new().run_session(&session)?;
/// let sequential = session.run()?;
/// assert_eq!(parallel.nf.y, sequential.nf.y);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPlan {
    workers: usize,
}

impl BatchPlan {
    /// A plan sized to the machine's available parallelism.
    pub fn new() -> Self {
        BatchPlan {
            workers: WorkQueue::with_available_parallelism().workers(),
        }
    }

    /// A single-worker plan: every batch degenerates to the sequential
    /// path (useful as the determinism baseline).
    pub fn sequential() -> Self {
        BatchPlan { workers: 1 }
    }

    /// Overrides the worker count (clamped to at least 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// The effective worker count.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    fn queue(&self) -> WorkQueue {
        WorkQueue::new(self.workers)
    }

    /// Runs one session with its repeats fanned out across workers.
    ///
    /// The run-invariant front-end gain is computed once; each repeat
    /// is then an independent [`MeasurementSession::measure_repeat`]
    /// task seeded by its index, streaming its hot and then its cold
    /// record through the session's chunked chain, and the outcomes are
    /// recombined with the session's own
    /// [`MeasurementSession::combine`] — making the result
    /// bit-identical to [`MeasurementSession::run`] for any worker
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates acquisition, estimation and combination errors (the
    /// first failing repeat wins, in repeat order).
    pub fn run_session(&self, session: &MeasurementSession) -> Result<Measurement, SocError> {
        let gain = session.frontend_gain()?;
        let outcomes = self
            .queue()
            .run(session.repeat_count(), |r| session.measure_repeat(r, gain));
        session.combine(outcomes.into_iter().collect::<Result<Vec<_>, _>>()?)
    }

    /// Runs `trials` independent sessions — a Monte Carlo batch — with
    /// whole trials fanned out across workers. `build` receives the
    /// trial index and constructs that trial's session (typically from
    /// a seed derived via [`derive_seed`]); each task then builds *and*
    /// runs its session so per-trial state (estimator workspaces, DSP
    /// plans) never crosses a thread.
    ///
    /// # Errors
    ///
    /// Propagates the first failing trial, in trial order.
    pub fn run_monte_carlo<B>(&self, trials: usize, build: B) -> Result<SessionBatch, SocError>
    where
        B: Fn(usize) -> Result<MeasurementSession, SocError> + Sync,
    {
        let measurements = self
            .queue()
            .run(trials, |t| build(t).and_then(|session| session.run()))
            .into_iter()
            .collect::<Result<_, _>>()?;
        Ok(SessionBatch { measurements })
    }

    /// Fans arbitrary independent cells (table sweep rows, ablation
    /// arms, estimator comparisons) across workers, preserving cell
    /// order in the output. With one worker (or at most one cell) the
    /// cells run inline on the calling thread, in order.
    ///
    /// # Panics
    ///
    /// Propagates a panicking cell once the batch joins.
    pub fn run_cells<T, F>(&self, cells: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        // Each one-shot cell is parked in a slot its index claims once.
        let slots: Vec<Mutex<Option<F>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        self.queue().run(slots.len(), |i| {
            let cell = slots[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            match cell {
                Some(cell) => cell(),
                None => panic!("{}", RuntimeError::TaskMissing { index: i }),
            }
        })
    }

    /// Runs a defect-coverage campaign with every cell (fault variant
    /// × Monte Carlo trial) fanned out across workers, then reduces
    /// the slot-ordered outcomes with the campaign's own
    /// [`CoverageCampaign::assemble`] — so the [`CoverageReport`] is
    /// **bit-identical** to the sequential [`CoverageCampaign::run`]
    /// for any worker count.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use nfbist_runtime::batch::BatchPlan;
    /// use nfbist_soc::coverage::{CoverageCampaign, FaultUniverse};
    /// use nfbist_soc::screening::Screen;
    /// use nfbist_soc::setup::BistSetup;
    ///
    /// # fn main() -> Result<(), nfbist_soc::SocError> {
    /// let campaign = CoverageCampaign::new(
    ///     BistSetup::quick(42),
    ///     Screen::new(11.0, 3.0)?,
    ///     FaultUniverse::paper_grid()?,
    /// )?
    /// .trials(8);
    /// let parallel = BatchPlan::new().run_coverage(&campaign)?;
    /// assert_eq!(parallel, campaign.run()?); // any worker count
    /// println!("{parallel}");
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first failing cell, in cell order.
    pub fn run_coverage(&self, campaign: &CoverageCampaign) -> Result<CoverageReport, SocError> {
        let cells = self
            .queue()
            .run(campaign.cell_count(), |c| campaign.run_cell(c))
            .into_iter()
            .collect::<Result<_, _>>()?;
        campaign.assemble(cells)
    }

    /// Runs a frequency-response sweep with every sweep point fanned
    /// out across workers: each point is a pure function of
    /// `(tester, dut, index)` (repeat seeds derive from the tester's
    /// seed via [`derive_seed`]), so the slot-ordered points reassemble
    /// through [`FrequencyResponseTester::assemble`] into a measurement
    /// **bit-identical** to the sequential
    /// [`FrequencyResponseTester::measure`] for any worker count.
    ///
    /// Within each point the tester's configured repeats already run as
    /// SIMD lanes of one SoA Goertzel batch, so the two fan-out axes
    /// compose: points across workers, repeats across vector lanes.
    ///
    /// # Errors
    ///
    /// Propagates the first failing point, in sweep order.
    pub fn run_freqresp(
        &self,
        tester: &FrequencyResponseTester,
        dut: &Amplifier,
    ) -> Result<FrequencyResponseMeasurement, SocError> {
        let points = self
            .queue()
            .run(tester.frequencies().len(), |i| tester.measure_point(dut, i))
            .into_iter()
            .collect::<Result<_, _>>()?;
        tester.assemble(points)
    }

    /// Runs a multipoint BIST with the hot and cold cascade
    /// acquisitions performed concurrently and every test point's
    /// estimation fanned out across workers. Output is identical to
    /// [`MultipointBist::measure_all`].
    ///
    /// # Errors
    ///
    /// Propagates acquisition and estimation errors (acquisition
    /// first; then the first failing point, in point order).
    pub fn run_multipoint(&self, bist: &MultipointBist) -> Result<Vec<PointMeasurement>, SocError> {
        let states = [NoiseSourceState::Hot, NoiseSourceState::Cold];
        let acquired: Vec<_> = self
            .queue()
            .run(states.len(), |k| bist.acquire_all(states[k]))
            .into_iter()
            .collect::<Result<_, _>>()?;
        let (hot, cold) = (&acquired[0], &acquired[1]);

        // One estimator *clone* per point task: concurrent workers each
        // need their own FFT plan anyway (a shared cache would either
        // serialize them or thrash its try_lock fallback), and the
        // single planning cost per task amortizes over that task's full
        // hot+cold Welch run. The sequential `measure_all` keeps one
        // shared instance and hits its cache on every point.
        let base_estimator = bist.estimator()?;
        let estimators: Vec<_> = (0..hot.len()).map(|_| base_estimator.clone()).collect();
        self.queue()
            .run(hot.len(), |i| {
                bist.measure_point(&estimators[i], i, &hot[i], &cold[i])
            })
            .into_iter()
            .collect()
    }
}

impl Default for BatchPlan {
    fn default() -> Self {
        Self::new()
    }
}

/// The ordered results of a Monte Carlo batch, with the summary
/// statistics the repeatability experiments read off it.
#[derive(Debug, Clone)]
pub struct SessionBatch {
    measurements: Vec<Measurement>,
}

impl SessionBatch {
    /// The per-trial measurements, in trial order.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Consumes the batch, returning the measurements.
    pub fn into_measurements(self) -> Vec<Measurement> {
        self.measurements
    }

    /// Number of trials.
    pub fn len(&self) -> usize {
        self.measurements.len()
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.measurements.is_empty()
    }

    /// Mean measured noise figure across trials, in dB.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for an empty batch.
    pub fn mean_nf_db(&self) -> Result<f64, SocError> {
        if self.measurements.is_empty() {
            return Err(SocError::InvalidParameter {
                name: "batch",
                reason: "statistics need at least one trial",
            });
        }
        let sum: f64 = self.measurements.iter().map(|m| m.nf.figure.db()).sum();
        Ok(sum / self.measurements.len() as f64)
    }

    /// Sample standard deviation of the measured NF across trials, in
    /// dB (0 for a single trial).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for an empty batch.
    pub fn nf_std_db(&self) -> Result<f64, SocError> {
        if self.measurements.is_empty() {
            return Err(SocError::InvalidParameter {
                name: "batch",
                reason: "statistics need at least one trial",
            });
        }
        if self.measurements.len() == 1 {
            return Ok(0.0);
        }
        let dbs: Vec<f64> = self.measurements.iter().map(|m| m.nf.figure.db()).collect();
        Ok(nfbist_dsp::stats::sample_variance(&dbs)?.sqrt())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_deterministic_and_distinct() {
        assert_eq!(derive_seed(1234, 0), derive_seed(1234, 0));
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(1234, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "derived seeds must not collide");
        // Wrapping arithmetic keeps extreme bases valid.
        let _ = derive_seed(u64::MAX, u64::MAX);
    }

    #[test]
    fn trial_seeds_do_not_alias_the_repeat_walk() {
        // A session derives repeat seeds as `trial_seed + r·φ⁶⁴`. With
        // a plain arithmetic trial walk, trial t2's repeat 0 would
        // equal trial t1's repeat (t2−t1) — identical noise records.
        // The hashed derivation must keep every (trial, repeat) seed
        // distinct across a realistic grid.
        let base = 42u64;
        let mut all: Vec<u64> = Vec::new();
        for t in 0..32u64 {
            let trial_seed = derive_seed(base, t);
            for r in 0..32u64 {
                all.push(trial_seed.wrapping_add(r.wrapping_mul(SEED_STRIDE)));
            }
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(count, all.len(), "(trial, repeat) seed grid collided");
    }

    #[test]
    fn plan_worker_configuration() {
        assert_eq!(BatchPlan::sequential().worker_count(), 1);
        assert_eq!(BatchPlan::new().workers(0).worker_count(), 1);
        assert_eq!(BatchPlan::new().workers(6).worker_count(), 6);
    }

    #[test]
    fn cells_preserve_order() {
        let plan = BatchPlan::new().workers(3);
        // One-shot cells that move their captures out.
        let words: Vec<String> = (0..10).map(|i| format!("cell {i}")).collect();
        let out = plan.run_cells(words.iter().cloned().map(|w| move || w).collect());
        assert_eq!(out, words);
        // Zero or one cell runs inline on the calling thread.
        assert!(plan.run_cells(Vec::<fn() -> u8>::new()).is_empty());
        let caller = std::thread::current().id();
        let inline = plan.run_cells(vec![move || std::thread::current().id() == caller]);
        assert_eq!(inline, [true]);
    }

    #[test]
    fn every_cell_runs_exactly_once_on_any_worker_count() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for workers in [1usize, 2, 5] {
            let runs: Vec<AtomicUsize> = (0..13).map(|_| AtomicUsize::new(0)).collect();
            let cells: Vec<_> = (0..13)
                .map(|i| {
                    let runs = &runs;
                    move || runs[i].fetch_add(1, Ordering::Relaxed) + i
                })
                .collect();
            let out = BatchPlan::new().workers(workers).run_cells(cells);
            assert_eq!(out, (0..13).collect::<Vec<_>>(), "workers={workers}");
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn a_panicking_cell_propagates_to_the_caller() {
        crate::chaos::install_quiet_panic_hook();
        for workers in [1usize, 3] {
            let cells: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6)
                .map(|i| -> Box<dyn FnOnce() -> usize + Send> {
                    Box::new(move || {
                        if i == 4 {
                            panic!("{}: cell {i}", crate::chaos::CHAOS_PANIC_PREFIX);
                        }
                        i
                    })
                })
                .collect();
            let plan = BatchPlan::new().workers(workers);
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.run_cells(cells)));
            assert!(caught.is_err(), "workers={workers}");
        }
    }

    #[test]
    fn monte_carlo_reports_the_first_failing_trial_in_trial_order() {
        const NAMES: [&str; 6] = ["t0", "t1", "t2", "t3", "t4", "t5"];
        for workers in [1usize, 4] {
            let err = BatchPlan::new()
                .workers(workers)
                .run_monte_carlo(6, |t| {
                    Err(SocError::InvalidParameter {
                        name: NAMES[t],
                        reason: "trial rejected",
                    })
                })
                .unwrap_err();
            assert_eq!(
                err,
                SocError::InvalidParameter {
                    name: "t0",
                    reason: "trial rejected",
                },
                "workers={workers}"
            );
        }
        let empty = BatchPlan::new()
            .run_monte_carlo(0, |_| unreachable!("no trial to build"))
            .unwrap();
        assert!(empty.is_empty());
        assert!(empty.into_measurements().is_empty());
    }

    #[test]
    fn nf_spread_of_two_trials_is_their_sample_standard_deviation() {
        // Two trials a and b: the sample standard deviation is
        // |a − b|/√2 (the population form would give |a − b|/2).
        let batch = BatchPlan::sequential()
            .run_monte_carlo(2, |t| {
                let mut setup = nfbist_soc::setup::BistSetup::quick(derive_seed(12, t as u64));
                setup.samples = 1 << 15;
                MeasurementSession::new(setup)
            })
            .unwrap();
        let [a, b] = [0, 1].map(|t| batch.measurements()[t].nf.figure.db());
        assert!(a != b, "independent trials must scatter");
        let want = (a - b).abs() / std::f64::consts::SQRT_2;
        let got = batch.nf_std_db().unwrap();
        assert!((got - want).abs() <= 1e-12 * want, "spread {got} vs {want}");
    }

    #[test]
    fn empty_batch_statistics_are_rejected() {
        let batch = SessionBatch {
            measurements: Vec::new(),
        };
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        assert!(batch.mean_nf_db().is_err());
        assert!(batch.nf_std_db().is_err());
    }
}
