//! Fleet-scale lot screening: every die of a synthesized wafer
//! population through the full session → screen → retest flow.
//!
//! This is the production-line layer the paper's economics argument
//! (§1) assumes: the BIST cell is replicated on every die, so the
//! interesting object is no longer one measurement but a *lot* —
//! thousands of dies whose process parameters drift and whose defects
//! cluster spatially. The module glues the analog population model
//! ([`nfbist_analog::wafer::Lot`]) to the screening flow
//! ([`crate::screening::ScreeningRecipe`]):
//!
//! 1. [`LotScreen`] instantiates die `i` from the lot — process
//!    variation becomes `ExcessNoise`/`GainDeviation` faults, an
//!    assigned defect becomes a [`crate::coverage::FaultUniverse`]
//!    variant — and screens it with the per-die seed
//!    `derive_seed(lot_seed, i)`. A die outcome is a **pure function
//!    of its index**, so a scheduler can fan dies across any number
//!    of workers and reassemble bit-identical results.
//! 2. [`LotReport`] folds [`DieRecord`]s **in die order** into
//!    rolling yield / escape / retest-rate / test-time statistics (a
//!    dashboard that is meaningful mid-lot, not only at the end) and
//!    renders the classic wafer map (pass / fail / gross / unresolved
//!    / runtime-faulted per site). A record is either a measured
//!    [`DieOutcome`] or a [`DieFault`] — a die the *runtime* lost (a
//!    panicking worker, a blown deadline, an exhausted retry budget)
//!    rather than a die the screen rejected. A report carrying any
//!    fault is **degraded** ([`LotReport::degraded`]): its surviving
//!    dies are still bit-exact and slot-ordered, so partial results
//!    are first-class instead of an aborted lot.
//!
//! The parallel twin with admission control and backpressure is
//! `nfbist_runtime::fleet::FleetPlan::screen_lot`; its report is
//! bit-identical to the sequential [`LotScreen::run`] by
//! construction.

use crate::coverage::{DutBuilder, FaultUniverse};
use crate::screening::{
    CheckpointProbe, RetestPolicy, Screen, ScreeningRecipe, SequentialScreen, Verdict,
};
use crate::setup::BistSetup;
use crate::SocError;
use nfbist_analog::circuits::NonInvertingAmplifier;
use nfbist_analog::fault::AnalogFault;
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::units::Ohms;
use nfbist_analog::wafer::{Lot, WaferMap};

/// The outcome of screening one die, the unit a lot report folds.
///
/// # Examples
///
/// ```
/// use nfbist_soc::fleet::DieOutcome;
/// use nfbist_soc::screening::Verdict;
///
/// let die = DieOutcome {
///     die: 12,
///     defect: None,
///     verdict: Verdict::Fail,
///     retests: 0,
///     nf_db: f64::INFINITY,
///     test_samples: 1 << 15,
/// };
/// assert!(die.is_gross());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DieOutcome {
    /// Die index within the lot.
    pub die: usize,
    /// `Some(variant)` when the die carried a defect: the index of the
    /// fault-universe variant that was injected.
    pub defect: Option<usize>,
    /// Final screening verdict after retest escalation.
    pub verdict: Verdict,
    /// Retests performed (rounds beyond the first).
    pub retests: usize,
    /// NF measured in the final round, in dB (`f64::INFINITY` for an
    /// unmeasurable gross reject).
    pub nf_db: f64,
    /// Total samples acquired across all rounds, hot+cold, all repeats
    /// — the die's test-time cost.
    pub test_samples: u64,
}

impl DieOutcome {
    /// `true` when the die was a gross reject (unmeasurable — the
    /// Y-factor equation degenerated).
    pub fn is_gross(&self) -> bool {
        self.verdict == Verdict::Fail && self.nf_db == f64::INFINITY
    }
}

/// Why the runtime lost a die — a fault of the *screening machinery*,
/// not a verdict about the silicon.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DieFaultKind {
    /// The worker screening the die panicked.
    Panicked {
        /// Rendered panic message.
        message: String,
    },
    /// The die's screening job ran past its deadline and its (late)
    /// result was discarded.
    DeadlineExceeded,
    /// The die's transient buffers could not be allocated.
    AllocationFailed,
    /// The screening flow returned an error (configuration,
    /// estimation, admission, …), rendered into a message.
    Error {
        /// Rendered error message.
        message: String,
    },
}

/// A die the runtime failed to screen: which die, how many attempts
/// were made, and the final fault. Folded into a [`LotReport`] beside
/// measured outcomes, turning a crashed lot into a degraded one.
///
/// # Examples
///
/// ```
/// use nfbist_soc::fleet::{DieFault, DieFaultKind};
///
/// let fault = DieFault {
///     die: 4,
///     attempts: 3,
///     kind: DieFaultKind::DeadlineExceeded,
/// };
/// assert_eq!(fault.die, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DieFault {
    /// Die index within the lot.
    pub die: usize,
    /// Screening attempts made before the die was given up on.
    pub attempts: usize,
    /// The final attempt's fault.
    pub kind: DieFaultKind,
}

/// One folded entry of a [`LotReport`]: either a measured outcome or
/// a runtime fault.
#[derive(Debug, Clone, PartialEq)]
pub enum DieRecord {
    /// The die was screened and judged.
    Screened(DieOutcome),
    /// The runtime lost the die (panic / deadline / quarantine / …).
    Faulted(DieFault),
}

impl DieRecord {
    /// The die index this record describes.
    pub fn die(&self) -> usize {
        match self {
            DieRecord::Screened(outcome) => outcome.die,
            DieRecord::Faulted(fault) => fault.die,
        }
    }

    /// The measured outcome, when the die was screened.
    pub fn outcome(&self) -> Option<&DieOutcome> {
        match self {
            DieRecord::Screened(outcome) => Some(outcome),
            DieRecord::Faulted(_) => None,
        }
    }

    /// The runtime fault, when the die was lost.
    pub fn fault(&self) -> Option<&DieFault> {
        match self {
            DieRecord::Screened(_) => None,
            DieRecord::Faulted(fault) => Some(fault),
        }
    }
}

/// Whether a lot screen completed cleanly or lost dies to runtime
/// faults (see [`LotReport::status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LotStatus {
    /// Every die was screened and judged.
    Complete,
    /// At least one die was lost to a runtime fault; the surviving
    /// dies' outcomes are still exact.
    Degraded,
}

/// A wafer-lot screening plan: the lot population, the guard-banded
/// screen, the retest policy, and the defect fault universe.
///
/// # Examples
///
/// ```
/// use nfbist_analog::wafer::{DefectModel, Lot, ProcessVariation, WaferMap};
/// use nfbist_soc::coverage::FaultUniverse;
/// use nfbist_soc::fleet::LotScreen;
/// use nfbist_soc::screening::Screen;
/// use nfbist_soc::setup::BistSetup;
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// let lot = Lot::new(
///     WaferMap::disc(6)?,
///     ProcessVariation::default(),
///     DefectModel::new().background(0.2)?,
///     7,
/// )?;
/// let mut setup = BistSetup::quick(0); // seed is overridden by the lot
/// setup.samples = 1 << 13;
/// setup.nfft = 1_024;
/// let universe = FaultUniverse::new().excess_noise(&[8.0])?;
/// let screening = LotScreen::new(lot, setup, Screen::new(12.0, 3.0)?, universe)?;
/// let report = screening.run()?;
/// assert_eq!(report.dies(), screening.dies());
/// # Ok(())
/// # }
/// ```
pub struct LotScreen {
    lot: Lot,
    setup: BistSetup,
    screen: Screen,
    universe: FaultUniverse,
    retest: RetestPolicy,
    repeats: usize,
    streaming_chunk: Option<usize>,
    adaptive: Option<SequentialScreen>,
    build_dut: DutBuilder,
}

impl std::fmt::Debug for LotScreen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LotScreen")
            .field("dies", &self.lot.dies())
            .field("setup", &self.setup)
            .field("screen", &self.screen)
            .field("variants", &self.universe.len())
            .field("retest", &self.retest)
            .field("repeats", &self.repeats)
            .field("streaming_chunk", &self.streaming_chunk)
            .field("adaptive", &self.adaptive)
            .finish()
    }
}

impl LotScreen {
    /// Creates a lot screen. The setup's seed is overridden by the
    /// lot's seed (one seed determines the whole lot, population and
    /// measurements alike), and the lot's defect kinds are bound to
    /// the universe's *faulty* variants (variant 0 is the healthy
    /// design and is never assigned as a defect).
    ///
    /// Defaults: no retest escalation ([`RetestPolicy::single`]),
    /// 1 repeat, the paper's TL081 non-inverting prototype as the
    /// healthy DUT.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for an invalid setup or
    /// a universe without at least one faulty variant.
    pub fn new(
        lot: Lot,
        mut setup: BistSetup,
        screen: Screen,
        universe: FaultUniverse,
    ) -> Result<Self, SocError> {
        setup.validate()?;
        if universe.len() < 2 {
            return Err(SocError::InvalidParameter {
                name: "universe",
                reason: "a lot screen needs at least one faulty variant to assign to defects",
            });
        }
        setup.seed = lot.seed();
        let lot = lot.defect_kinds(universe.len() - 1);
        Ok(LotScreen {
            lot,
            setup,
            screen,
            universe,
            retest: RetestPolicy::single(),
            repeats: 1,
            streaming_chunk: None,
            adaptive: None,
            build_dut: Box::new(|| {
                Ok(Box::new(NonInvertingAmplifier::new(
                    OpampModel::tl081(),
                    Ohms::new(10_000.0),
                    Ohms::new(100.0),
                )?))
            }),
        })
    }

    /// Enables retest escalation with the given policy.
    pub fn retest(mut self, policy: RetestPolicy) -> Self {
        self.retest = policy;
        self
    }

    /// Sets the hot/cold repeats averaged per measurement (clamped to
    /// ≥ 1).
    pub fn repeats(mut self, n: usize) -> Self {
        self.repeats = n.max(1);
        self
    }

    /// Pins every die session's streaming chunk to `samples` (instead
    /// of the session default). Chunking affects peak
    /// memory and scheduling granularity only — die outcomes are
    /// bit-identical for every chunk size, which the adaptive
    /// determinism suite pins down.
    pub fn streaming_chunk(mut self, samples: usize) -> Self {
        self.streaming_chunk = Some(samples);
        self
    }

    /// Switches every die to *adaptive* (sequential, early-stopping)
    /// acquisition: instead of one fixed-length measurement plus retest
    /// escalation, each die grows its record through the checkpoint
    /// schedule of `seq` and stops the moment the running estimate
    /// clears or fails the limit
    /// ([`crate::screening::screen_sequential`]). The setup's record
    /// length becomes the hard cap, the retest policy plays no role,
    /// and [`DieOutcome::test_samples`] records what each die actually
    /// consumed — compare against
    /// [`LotScreen::fixed_die_samples`] via
    /// [`LotReport::test_time_reduction_vs`] for the lot-level
    /// mean-test-time reduction.
    ///
    /// The stopping decision stays a pure function of
    /// `derive_seed(lot_seed, die)`, so adaptive lot reports remain
    /// bit-identical across workers, budgets and chunk sizes.
    pub fn adaptive(mut self, seq: SequentialScreen) -> Self {
        self.adaptive = Some(seq);
        self
    }

    /// The sequential screen in force, when the lot is adaptive.
    pub fn adaptive_screen(&self) -> Option<&SequentialScreen> {
        self.adaptive.as_ref()
    }

    /// The per-die test-time bill of the *fixed* schedule without
    /// escalation, in samples (hot + cold, all repeats): the baseline
    /// an adaptive lot's [`LotReport::mean_test_samples`] is compared
    /// against.
    pub fn fixed_die_samples(&self) -> u64 {
        self.setup.samples as u64 * 2 * self.repeats as u64
    }

    /// Overrides the healthy-DUT builder (called once per measurement
    /// round).
    pub fn dut_builder<F>(mut self, build: F) -> Self
    where
        F: Fn() -> Result<Box<dyn nfbist_analog::dut::Dut>, SocError> + Send + Sync + 'static,
    {
        self.build_dut = Box::new(build);
        self
    }

    /// The lot under screen.
    pub fn lot(&self) -> &Lot {
        &self.lot
    }

    /// Number of dies in the lot.
    pub fn dies(&self) -> usize {
        self.lot.dies()
    }

    /// The screening limit in force.
    pub fn screen(&self) -> &Screen {
        &self.screen
    }

    /// The base measurement setup (seed = lot seed).
    pub fn setup(&self) -> &BistSetup {
        &self.setup
    }

    /// The defect fault universe.
    pub fn universe(&self) -> &FaultUniverse {
        &self.universe
    }

    /// The admission cost of one die job, in bytes — the unit a
    /// scheduler's global memory gate charges per in-flight die: four
    /// times the final escalation round's record at 8 bytes per
    /// sample.
    ///
    /// Every round streams its record through fixed-size chunks, so
    /// the charge is a scale for the gate, not a measure of a die's
    /// buffers; it grows with the record so that a gate budget written
    /// in die costs admits fewer dies as escalation lengthens their
    /// records.
    pub fn die_cost_bytes(&self) -> usize {
        // Adaptive acquisition never escalates past the setup's record
        // length: the cap itself is the worst case.
        let worst_samples = if self.adaptive.is_some() {
            self.setup.samples
        } else {
            self.setup.samples.saturating_mul(
                self.retest
                    .growth()
                    .saturating_pow((self.retest.max_rounds() as u32).saturating_sub(1)),
            )
        };
        worst_samples.saturating_mul(8).saturating_mul(4).max(1)
    }

    /// Screens die `i`: instantiates the die's process variation and
    /// defect (if any) as faults on the healthy design, then runs the
    /// guard-banded retest flow seeded by `derive_seed(lot_seed, i)`.
    ///
    /// Pure in `i`: the same index always produces the same outcome,
    /// regardless of call order, thread, or which other dies ran
    /// before — the invariant every parallel schedule relies on.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Analog`] for an out-of-range die index and
    /// propagates configuration errors (an *unmeasurable* die is a
    /// gross-reject [`Verdict::Fail`], not an error).
    pub fn screen_die(&self, i: usize) -> Result<DieOutcome, SocError> {
        self.screen_die_inner(i, None)
    }

    /// [`LotScreen::screen_die`] with a per-checkpoint
    /// [`CheckpointProbe`], meaningful only for an *adaptive* lot: the
    /// probe fires at every sequential checkpoint, which is where a
    /// fault-injecting runtime kills or stalls a die mid-acquisition
    /// (see [`crate::screening::screen_sequential_probed`]). On a
    /// fixed-schedule lot the probe is ignored.
    ///
    /// # Errors
    ///
    /// As [`LotScreen::screen_die`].
    pub fn screen_die_probed(
        &self,
        i: usize,
        probe: CheckpointProbe<'_>,
    ) -> Result<DieOutcome, SocError> {
        self.screen_die_inner(i, Some(probe))
    }

    fn screen_die_inner(
        &self,
        i: usize,
        probe: Option<CheckpointProbe<'_>>,
    ) -> Result<DieOutcome, SocError> {
        let die = self.lot.die(i)?;

        let mut recipe = ScreeningRecipe::new()
            .dut_builder(&*self.build_dut)
            .repeats(self.repeats);
        // Process variation: the healthy floor is the designed noise
        // (the population model already floors the multiplier at 1).
        if die.noise_scale > 1.0 {
            recipe = recipe.analog_fault(AnalogFault::ExcessNoise {
                factor: die.noise_scale,
            })?;
        }
        if die.gain_scale != 1.0 {
            recipe = recipe.analog_fault(AnalogFault::GainDeviation {
                factor: die.gain_scale,
            })?;
        }
        // A defect kind maps onto the universe's faulty variants
        // (variant 0 is the healthy design, never a defect).
        let defect = die.defect.map(|kind| 1 + kind % (self.universe.len() - 1));
        if let Some(variant_index) = defect {
            let variant = self
                .universe
                .get(variant_index)
                .expect("defect kinds are bound to the universe length");
            recipe = recipe
                .analog_faults(variant.analog_faults().iter().copied())?
                .bit_faults(variant.bit_faults().iter().copied())?;
        }
        if let Some(chunk) = self.streaming_chunk {
            recipe = recipe.streaming_chunk(chunk);
        }

        if let Some(seq) = &self.adaptive {
            let outcome = match probe {
                Some(probe) => {
                    recipe.screen_sequential_indexed_probed(seq, &self.setup, i as u64, probe)?
                }
                None => recipe.screen_sequential_indexed(seq, &self.setup, i as u64)?,
            };
            return Ok(DieOutcome {
                die: i,
                defect,
                verdict: outcome.verdict,
                // The checkpoint schedule replaces retest escalation.
                retests: 0,
                nf_db: outcome.nf_db,
                // Hot + cold per repeat; only the samples acquired
                // before the stop are billed.
                test_samples: outcome.samples as u64 * 2 * self.repeats as u64,
            });
        }

        let outcome = recipe.screen_indexed(&self.screen, &self.setup, &self.retest, i as u64)?;
        let final_round = outcome
            .rounds
            .last()
            .expect("screen_with_retest always records at least one round");
        Ok(DieOutcome {
            die: i,
            defect,
            verdict: outcome.verdict,
            retests: outcome.retests(),
            nf_db: final_round.nf_db,
            // Hot + cold per repeat, per round.
            test_samples: outcome.total_samples() * 2 * self.repeats as u64,
        })
    }

    /// Folds die outcomes — supplied in **any** order — into the lot
    /// report. Outcomes are re-ordered by die index before folding, so
    /// every schedule (sequential, work-stealing, backpressured)
    /// produces the same report bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] when `outcomes` is not
    /// exactly one outcome per die of the lot.
    pub fn assemble(&self, outcomes: Vec<DieOutcome>) -> Result<LotReport, SocError> {
        self.assemble_records(outcomes.into_iter().map(DieRecord::Screened).collect())
    }

    /// Folds die records — measured outcomes and runtime faults alike,
    /// supplied in **any** order — into the lot report. The
    /// fault-tolerant scheduler's entry point: a die the runtime lost
    /// arrives as [`DieRecord::Faulted`] and degrades the report
    /// instead of discarding the lot.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] when `records` is not
    /// exactly one record per die of the lot.
    pub fn assemble_records(&self, records: Vec<DieRecord>) -> Result<LotReport, SocError> {
        if records.len() != self.dies() {
            return Err(SocError::InvalidParameter {
                name: "records",
                reason: "record count must equal the lot's die count",
            });
        }
        let mut slots: Vec<Option<DieRecord>> = (0..self.dies()).map(|_| None).collect();
        for record in records {
            let slot = slots
                .get_mut(record.die())
                .ok_or(SocError::InvalidParameter {
                    name: "records",
                    reason: "die index beyond the lot",
                })?;
            if slot.is_some() {
                return Err(SocError::InvalidParameter {
                    name: "records",
                    reason: "duplicate record for one die",
                });
            }
            *slot = Some(record);
        }
        let mut report = LotReport::new();
        for slot in slots {
            report.push_record(slot.expect("counted: every slot filled exactly once"))?;
        }
        Ok(report)
    }

    /// Screens the whole lot sequentially, in die order. The parallel
    /// twin is `nfbist_runtime::fleet::FleetPlan::screen_lot`, whose
    /// report is bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates the first failing die, in die order.
    pub fn run(&self) -> Result<LotReport, SocError> {
        let outcomes = (0..self.dies())
            .map(|i| self.screen_die(i))
            .collect::<Result<Vec<_>, _>>()?;
        self.assemble(outcomes)
    }
}

/// Rolling lot statistics: the yield dashboard a production line
/// watches while the lot is still on the tester.
///
/// Records are folded **in die order** ([`LotReport::push_record`]
/// enforces it), so the floating-point accumulators — and with them
/// every statistic — are bit-identical no matter what schedule
/// produced the records. A die the runtime lost arrives as a
/// [`DieFault`] instead of an outcome: it contributes nothing to the
/// measurement statistics (its NF was never trusted) but still counts
/// against yield, and its presence marks the whole report
/// [`LotStatus::Degraded`].
///
/// # Examples
///
/// ```
/// use nfbist_soc::fleet::{DieOutcome, LotReport};
/// use nfbist_soc::screening::Verdict;
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// let mut report = LotReport::new();
/// report.push(DieOutcome {
///     die: 0,
///     defect: None,
///     verdict: Verdict::Pass,
///     retests: 0,
///     nf_db: 9.1,
///     test_samples: 1 << 14,
/// })?;
/// report.push(DieOutcome {
///     die: 1,
///     defect: Some(3),
///     verdict: Verdict::Fail,
///     retests: 1,
///     nf_db: 17.0,
///     test_samples: 3 << 14,
/// })?;
/// assert_eq!(report.dies(), 2);
/// assert_eq!(report.yield_fraction(), 0.5);
/// assert_eq!(report.detection_rate(), Some(1.0));
/// assert_eq!(report.rolling_yield(), &[1.0, 0.5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LotReport {
    records: Vec<DieRecord>,
    faulted: usize,
    pass: usize,
    fail: usize,
    unresolved: usize,
    gross: usize,
    defective: usize,
    detected: usize,
    escaped: usize,
    healthy_rejects: usize,
    retested: usize,
    total_retests: usize,
    test_samples: u64,
    nf_sum: f64,
    nf_count: usize,
    rolling_yield: Vec<f64>,
}

impl LotReport {
    /// An empty report; fold records with [`LotReport::push_record`]
    /// (or outcomes with [`LotReport::push`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds the next die outcome into the rolling statistics —
    /// shorthand for [`LotReport::push_record`] with a
    /// [`DieRecord::Screened`].
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] when `outcome.die` is
    /// not the next die in sequence — out-of-order folding would make
    /// the floating-point accumulators schedule-dependent, which is
    /// exactly what this type exists to prevent.
    pub fn push(&mut self, outcome: DieOutcome) -> Result<(), SocError> {
        self.push_record(DieRecord::Screened(outcome))
    }

    /// Folds the next die's runtime fault — shorthand for
    /// [`LotReport::push_record`] with a [`DieRecord::Faulted`].
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] when `fault.die` is not
    /// the next die in sequence.
    pub fn push_fault(&mut self, fault: DieFault) -> Result<(), SocError> {
        self.push_record(DieRecord::Faulted(fault))
    }

    /// Folds the next die record into the rolling statistics. A
    /// screened die updates the measurement accumulators; a faulted
    /// die only degrades the report — the runtime never trusted its
    /// numbers, so none enter any sum — while still counting against
    /// yield.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] when `record.die()` is
    /// not the next die in sequence — out-of-order folding would make
    /// the floating-point accumulators schedule-dependent, which is
    /// exactly what this type exists to prevent.
    pub fn push_record(&mut self, record: DieRecord) -> Result<(), SocError> {
        if record.die() != self.records.len() {
            return Err(SocError::InvalidParameter {
                name: "record",
                reason: "records must be folded in die order (use LotScreen::assemble_records)",
            });
        }
        match &record {
            DieRecord::Faulted(_) => self.faulted += 1,
            DieRecord::Screened(outcome) => {
                match outcome.verdict {
                    Verdict::Pass => self.pass += 1,
                    Verdict::Fail => self.fail += 1,
                    Verdict::Retest => self.unresolved += 1,
                }
                if outcome.is_gross() {
                    self.gross += 1;
                } else if outcome.nf_db.is_finite() {
                    self.nf_sum += outcome.nf_db;
                    self.nf_count += 1;
                }
                if outcome.defect.is_some() {
                    self.defective += 1;
                    match outcome.verdict {
                        Verdict::Fail => self.detected += 1,
                        Verdict::Pass => self.escaped += 1,
                        Verdict::Retest => {}
                    }
                } else if outcome.verdict == Verdict::Fail {
                    self.healthy_rejects += 1;
                }
                if outcome.retests > 0 {
                    self.retested += 1;
                    self.total_retests += outcome.retests;
                }
                self.test_samples += outcome.test_samples;
            }
        }
        self.records.push(record);
        self.rolling_yield
            .push(self.pass as f64 / self.records.len() as f64);
        Ok(())
    }

    /// Dies folded so far (screened and faulted alike).
    pub fn dies(&self) -> usize {
        self.records.len()
    }

    /// Every die record, in die order.
    pub fn records(&self) -> &[DieRecord] {
        &self.records
    }

    /// The measured outcomes, in die order, skipping faulted dies.
    pub fn outcomes(&self) -> impl Iterator<Item = &DieOutcome> {
        self.records.iter().filter_map(DieRecord::outcome)
    }

    /// The runtime faults, in die order.
    pub fn faults(&self) -> impl Iterator<Item = &DieFault> {
        self.records.iter().filter_map(DieRecord::fault)
    }

    /// Dies the runtime lost (panic / deadline / quarantine / …).
    pub fn faulted(&self) -> usize {
        self.faulted
    }

    /// `true` when at least one die was lost to a runtime fault.
    pub fn degraded(&self) -> bool {
        self.faulted > 0
    }

    /// [`LotStatus::Complete`] for a fully screened lot,
    /// [`LotStatus::Degraded`] when any die was lost to the runtime.
    pub fn status(&self) -> LotStatus {
        if self.degraded() {
            LotStatus::Degraded
        } else {
            LotStatus::Complete
        }
    }

    /// Dies judged Pass.
    pub fn passed(&self) -> usize {
        self.pass
    }

    /// Dies judged Fail (gross rejects included).
    pub fn failed(&self) -> usize {
        self.fail
    }

    /// Dies still in the guard band when the retest budget ran out.
    pub fn unresolved(&self) -> usize {
        self.unresolved
    }

    /// Gross rejects (unmeasurable dies), a subset of
    /// [`LotReport::failed`].
    pub fn gross(&self) -> usize {
        self.gross
    }

    /// Dies the population model made defective.
    pub fn defective(&self) -> usize {
        self.defective
    }

    /// Defective dies the screen caught (judged Fail).
    pub fn detected(&self) -> usize {
        self.detected
    }

    /// Defective dies that escaped (judged Pass — shipped defects).
    pub fn escaped(&self) -> usize {
        self.escaped
    }

    /// Healthy dies wrongly rejected (yield loss to the screen
    /// itself).
    pub fn healthy_rejects(&self) -> usize {
        self.healthy_rejects
    }

    /// Dies that needed at least one retest.
    pub fn retested(&self) -> usize {
        self.retested
    }

    /// Total retest rounds across the lot.
    pub fn total_retests(&self) -> usize {
        self.total_retests
    }

    /// Lot yield: fraction of dies judged Pass.
    pub fn yield_fraction(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.pass as f64 / self.records.len() as f64
        }
    }

    /// Yield after each die, in die order — the dashboard curve
    /// (`rolling_yield()[i]` is the yield over dies `0..=i`).
    pub fn rolling_yield(&self) -> &[f64] {
        &self.rolling_yield
    }

    /// Detection rate over defective dies, or `None` for a
    /// defect-free lot.
    pub fn detection_rate(&self) -> Option<f64> {
        (self.defective > 0).then(|| self.detected as f64 / self.defective as f64)
    }

    /// Escape rate over defective dies (shipped defects), or `None`
    /// for a defect-free lot.
    pub fn escape_rate(&self) -> Option<f64> {
        (self.defective > 0).then(|| self.escaped as f64 / self.defective as f64)
    }

    /// Fraction of dies that needed at least one retest.
    pub fn retest_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.retested as f64 / self.records.len() as f64
        }
    }

    /// Total samples acquired by the lot (hot+cold, all repeats and
    /// rounds) — its test-time bill.
    pub fn test_samples(&self) -> u64 {
        self.test_samples
    }

    /// Mean test time per die, in samples.
    pub fn mean_test_samples(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.test_samples as f64 / self.records.len() as f64
        }
    }

    /// Mean-test-time reduction of this lot versus a fixed-schedule
    /// baseline cost per die (`LotScreen::fixed_die_samples` for the
    /// escalation-free fixed schedule): a factor of 2.0 means the lot
    /// spent half the baseline's samples per die. Returns `None` for
    /// an empty report or a non-positive baseline.
    pub fn test_time_reduction_vs(&self, baseline_samples_per_die: f64) -> Option<f64> {
        let mean = self.mean_test_samples();
        (mean > 0.0 && baseline_samples_per_die > 0.0).then(|| baseline_samples_per_die / mean)
    }

    /// Mean measured NF in dB over the lot's measurable dies
    /// (`f64::INFINITY` when no die was measurable).
    pub fn mean_nf_db(&self) -> f64 {
        if self.nf_count == 0 {
            f64::INFINITY
        } else {
            self.nf_sum / self.nf_count as f64
        }
    }

    /// Renders the lot as the classic wafer map on its wafer geometry:
    /// `o` pass, `x` fail, `G` gross reject, `?` unresolved (retest
    /// budget exhausted), `!` runtime-faulted, `·` off-wafer.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] when the wafer's die
    /// count does not match the folded records.
    pub fn render_on(&self, wafer: &WaferMap) -> Result<String, SocError> {
        if wafer.dies() != self.records.len() {
            return Err(SocError::InvalidParameter {
                name: "wafer",
                reason: "wafer die count must match the report's records",
            });
        }
        Ok(wafer.render(|site| match &self.records[site.index] {
            DieRecord::Faulted(_) => '!',
            DieRecord::Screened(outcome) => {
                if outcome.is_gross() {
                    'G'
                } else {
                    match outcome.verdict {
                        Verdict::Pass => 'o',
                        Verdict::Fail => 'x',
                        Verdict::Retest => '?',
                    }
                }
            }
        }))
    }

    /// The report's headline statistics as a formatted table.
    pub fn to_table(&self) -> crate::report::Table {
        let mut table = crate::report::Table::new(vec!["Lot statistic", "Value"]);
        let pct = |x: f64| format!("{:.1} %", 100.0 * x);
        table.row(vec!["dies".to_string(), self.dies().to_string()]);
        table.row(vec![
            "status".to_string(),
            match self.status() {
                LotStatus::Complete => "complete".to_string(),
                LotStatus::Degraded => format!("degraded ({} faulted)", self.faulted),
            },
        ]);
        table.row(vec![
            "pass / fail / unresolved".to_string(),
            format!("{} / {} / {}", self.pass, self.fail, self.unresolved),
        ]);
        table.row(vec!["yield".to_string(), pct(self.yield_fraction())]);
        table.row(vec![
            "defective (detected / escaped)".to_string(),
            format!("{} ({} / {})", self.defective, self.detected, self.escaped),
        ]);
        table.row(vec!["gross rejects".to_string(), self.gross.to_string()]);
        table.row(vec![
            "healthy rejects".to_string(),
            self.healthy_rejects.to_string(),
        ]);
        table.row(vec![
            "retest rate".to_string(),
            format!("{} ({})", pct(self.retest_rate()), self.total_retests),
        ]);
        table.row(vec![
            "mean NF (dB)".to_string(),
            if self.mean_nf_db().is_finite() {
                format!("{:.2}", self.mean_nf_db())
            } else {
                "∞".to_string()
            },
        ]);
        table.row(vec![
            "mean test samples / die".to_string(),
            format!("{:.0}", self.mean_test_samples()),
        ]);
        table
    }
}

impl std::fmt::Display for LotReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfbist_analog::wafer::{DefectModel, ProcessVariation};

    fn tiny_setup(seed: u64) -> BistSetup {
        let mut setup = BistSetup::quick(seed);
        setup.samples = 1 << 13;
        setup.nfft = 1_024;
        setup
    }

    fn tiny_lot(seed: u64, background: f64) -> Lot {
        Lot::new(
            WaferMap::disc(6).unwrap(),
            ProcessVariation::default(),
            DefectModel::new().background(background).unwrap(),
            seed,
        )
        .unwrap()
    }

    fn calibrated_screen() -> Screen {
        // Limit 1.2 dB above the TL081 prototype's expected NF: room
        // for process variation, none for gross noise defects.
        let dut =
            NonInvertingAmplifier::new(OpampModel::tl081(), Ohms::new(10_000.0), Ohms::new(100.0))
                .unwrap();
        let expected = dut
            .expected_noise_figure_db(Ohms::new(2_000.0), 100.0, 1_000.0)
            .unwrap();
        Screen::new(expected + 1.2, 3.0).unwrap()
    }

    #[test]
    fn validation_and_accessors() {
        let screen = Screen::new(10.0, 3.0).unwrap();
        // Healthy-only universe: nothing to assign to defects.
        assert!(LotScreen::new(
            tiny_lot(1, 0.0),
            tiny_setup(1),
            screen,
            FaultUniverse::new()
        )
        .is_err());
        let mut bad = tiny_setup(1);
        bad.samples = 0;
        let universe = FaultUniverse::new().excess_noise(&[8.0]).unwrap();
        assert!(LotScreen::new(tiny_lot(1, 0.0), bad, screen, universe.clone()).is_err());

        let screening = LotScreen::new(tiny_lot(9, 0.0), tiny_setup(1), screen, universe).unwrap();
        assert_eq!(screening.setup().seed, screening.lot().seed());
        assert_eq!(screening.dies(), screening.lot().dies());
        assert_eq!(screening.universe().len(), 2);
        assert_eq!(screening.screen().limit_db(), 10.0);
        assert!(screening.screen_die(screening.dies()).is_err());
        assert!(format!("{screening:?}").contains("LotScreen"));
        // The admission cost scales with retest escalation…
        let base = screening.die_cost_bytes();
        assert_eq!(base, (1 << 13) * 8 * 4);
        let escalated = LotScreen::new(
            tiny_lot(9, 0.0),
            tiny_setup(1),
            screen,
            FaultUniverse::new().excess_noise(&[8.0]).unwrap(),
        )
        .unwrap()
        .retest(RetestPolicy::new(3, 4).unwrap());
        assert_eq!(escalated.die_cost_bytes(), base * 16);
    }

    #[test]
    fn dies_are_pure_and_assembly_is_order_free() {
        let universe = FaultUniverse::new().excess_noise(&[8.0]).unwrap();
        let screening = LotScreen::new(
            tiny_lot(33, 0.3),
            tiny_setup(0),
            calibrated_screen(),
            universe,
        )
        .unwrap()
        .retest(RetestPolicy::new(2, 2).unwrap());
        let a = screening.screen_die(7).unwrap();
        let b = screening.screen_die(7).unwrap();
        assert_eq!(a, b, "a die must be a pure function of its index");
        // Sequential run == assembled reversed outcomes.
        let report = screening.run().unwrap();
        let mut outcomes: Vec<DieOutcome> = (0..screening.dies())
            .map(|i| screening.screen_die(i).unwrap())
            .collect();
        outcomes.reverse();
        assert_eq!(report, screening.assemble(outcomes).unwrap());
        assert_eq!(report.dies(), screening.dies());
    }

    #[test]
    fn assemble_rejects_malformed_outcome_sets() {
        let universe = FaultUniverse::new().excess_noise(&[8.0]).unwrap();
        let screening = LotScreen::new(
            tiny_lot(5, 0.0),
            tiny_setup(0),
            Screen::new(10.0, 3.0).unwrap(),
            universe,
        )
        .unwrap();
        let outcome = |die: usize| DieOutcome {
            die,
            defect: None,
            verdict: Verdict::Pass,
            retests: 0,
            nf_db: 9.0,
            test_samples: 1,
        };
        assert!(screening.assemble(Vec::new()).is_err(), "wrong count");
        let dup: Vec<DieOutcome> = (0..screening.dies()).map(|_| outcome(0)).collect();
        assert!(screening.assemble(dup).is_err(), "duplicate die");
        let mut range: Vec<DieOutcome> = (0..screening.dies()).map(outcome).collect();
        range.last_mut().unwrap().die = screening.dies();
        assert!(screening.assemble(range).is_err(), "die beyond the lot");
        // And the report itself refuses out-of-order folding.
        let mut report = LotReport::new();
        assert!(report.push(outcome(3)).is_err());
        report.push(outcome(0)).unwrap();
        assert!(report.push(outcome(0)).is_err());
    }

    #[test]
    fn defective_lot_screens_to_a_meaningful_report() {
        // 40% background defects split between a moderate (2×, +3 dB)
        // and a gross (8×) noise fault: the screen must catch all of
        // them — the moderate ones with finite NF, the gross ones as
        // unmeasurable rejects — while healthy dies pass.
        let universe = FaultUniverse::new().excess_noise(&[2.0, 8.0]).unwrap();
        let screening = LotScreen::new(
            tiny_lot(101, 0.4),
            tiny_setup(0),
            calibrated_screen(),
            universe,
        )
        .unwrap()
        .retest(RetestPolicy::new(3, 4).unwrap());
        let report = screening.run().unwrap();
        assert!(report.defective() > 3, "seed must produce defects");
        assert!(report.defective() < report.dies(), "and healthy dies");
        assert_eq!(
            report.detection_rate(),
            Some(1.0),
            "8x noise defects must all be caught: {report}"
        );
        assert_eq!(report.escape_rate(), Some(0.0));
        assert_eq!(report.escaped(), 0);
        assert!(
            report.yield_fraction() > 0.3,
            "healthy dies must mostly pass: {report}"
        );
        assert_eq!(
            report.passed() + report.failed() + report.unresolved(),
            report.dies()
        );
        assert!(report.detected() <= report.failed());
        assert!(report.mean_nf_db().is_finite());
        assert!(report.test_samples() >= (report.dies() as u64) * 2 * (1 << 13));
        assert_eq!(report.rolling_yield().len(), report.dies());
        assert_eq!(
            report.rolling_yield().last().copied(),
            Some(report.yield_fraction())
        );
        // The wafer map renders one mark per site.
        let map = report.render_on(screening.lot().wafer()).unwrap();
        let marks = map
            .chars()
            .filter(|c| matches!(c, 'o' | 'x' | 'G' | '?'))
            .count();
        assert_eq!(marks, report.dies());
        assert!(map.contains('x'), "defects must appear on the map:\n{map}");
        // Mismatched wafer geometry is rejected.
        assert!(report.render_on(&WaferMap::disc(3).unwrap()).is_err());
        // Table smoke.
        let shown = report.to_string();
        assert!(shown.contains("yield") && shown.contains("dies"));
    }

    #[test]
    fn adaptive_lot_stops_early_and_reports_the_reduction() {
        // An adaptive lot at an operating point the sequential rule can
        // resolve (margin +2.5 dB, 2-sigma guard): healthy dies
        // early-pass, gross 8x-noise defects stop as soon as two
        // checkpoints confirm the unmeasurable line, and the report's
        // mean test time lands well under the fixed schedule's bill.
        let dut =
            NonInvertingAmplifier::new(OpampModel::tl081(), Ohms::new(10_000.0), Ohms::new(100.0))
                .unwrap();
        let expected = dut
            .expected_noise_figure_db(Ohms::new(2_000.0), 100.0, 1_000.0)
            .unwrap();
        let screen = Screen::new(expected + 2.5, 2.0).unwrap();
        let mut setup = BistSetup::quick(0); // seed overridden by the lot
        setup.samples = 1 << 16;
        setup.nfft = 1_024;
        let universe = FaultUniverse::new().excess_noise(&[8.0]).unwrap();
        let seq = SequentialScreen::new(screen, 0.05, 0.05)
            .unwrap()
            .min_samples(1 << 12);
        let screening = LotScreen::new(tiny_lot(101, 0.3), setup, screen, universe)
            .unwrap()
            .adaptive(seq)
            .streaming_chunk(1 << 11);
        assert!(screening.adaptive_screen().is_some());
        assert_eq!(screening.fixed_die_samples(), 2 << 16);
        // No escalation in adaptive mode: the cap is the worst case.
        assert_eq!(screening.die_cost_bytes(), (1 << 16) * 8 * 4);

        let report = screening.run().unwrap();
        // Dies are pure in their index, probe or not.
        let a = screening.screen_die(3).unwrap();
        assert_eq!(a, screening.screen_die(3).unwrap());
        assert_eq!(a, screening.screen_die_probed(3, &|_| {}).unwrap());
        // The checkpoint schedule replaces retest escalation.
        assert_eq!(report.retest_rate(), 0.0);
        assert!(report.defective() > 0 && report.passed() > 0);
        assert_eq!(report.detection_rate(), Some(1.0), "{report}");
        // Early stopping must actually bite: the lot spends less than
        // the fixed schedule per die, and says so.
        let reduction = report
            .test_time_reduction_vs(screening.fixed_die_samples() as f64)
            .unwrap();
        assert!(
            reduction >= 2.0,
            "adaptive lot must at least halve the mean test time: {reduction:.2}\n{report}"
        );
        // Some die stopped strictly before the cap.
        assert!(
            report
                .outcomes()
                .any(|o| o.test_samples < screening.fixed_die_samples()),
            "{report}"
        );

        // Reduction accessor edge cases.
        assert_eq!(LotReport::new().test_time_reduction_vs(100.0), None);
        assert_eq!(report.test_time_reduction_vs(0.0), None);
    }

    #[test]
    fn empty_report_edge_cases() {
        let report = LotReport::new();
        assert_eq!(report.dies(), 0);
        assert_eq!(report.yield_fraction(), 0.0);
        assert_eq!(report.retest_rate(), 0.0);
        assert_eq!(report.mean_test_samples(), 0.0);
        assert_eq!(report.mean_nf_db(), f64::INFINITY);
        assert_eq!(report.detection_rate(), None);
        assert_eq!(report.escape_rate(), None);
        assert_eq!(report.outcomes().count(), 0);
        assert_eq!(report.faults().count(), 0);
        assert_eq!(report.faulted(), 0);
        assert!(!report.degraded());
        assert_eq!(report.status(), LotStatus::Complete);
    }

    #[test]
    fn faulted_dies_degrade_the_report_without_touching_the_sums() {
        let outcome = |die: usize| DieOutcome {
            die,
            defect: None,
            verdict: Verdict::Pass,
            retests: 0,
            nf_db: 9.0,
            test_samples: 100,
        };
        let mut report = LotReport::new();
        report.push(outcome(0)).unwrap();
        report
            .push_fault(DieFault {
                die: 1,
                attempts: 2,
                kind: DieFaultKind::Panicked {
                    message: "worker died".to_string(),
                },
            })
            .unwrap();
        report.push(outcome(2)).unwrap();
        report.push(outcome(3)).unwrap();
        // Out-of-order faults are rejected exactly like outcomes.
        assert!(report
            .push_fault(DieFault {
                die: 7,
                attempts: 1,
                kind: DieFaultKind::DeadlineExceeded,
            })
            .is_err());

        assert_eq!(report.dies(), 4);
        assert_eq!(report.faulted(), 1);
        assert!(report.degraded());
        assert_eq!(report.status(), LotStatus::Degraded);
        assert_eq!(report.records().len(), 4);
        assert_eq!(report.outcomes().count(), 3);
        let fault = report.faults().next().unwrap();
        assert_eq!(fault.die, 1);
        assert_eq!(fault.attempts, 2);
        // The fault counts against yield but enters no accumulator.
        assert_eq!(report.passed(), 3);
        assert_eq!(report.yield_fraction(), 0.75);
        assert_eq!(report.rolling_yield(), &[1.0, 0.5, 2.0 / 3.0, 0.75]);
        assert_eq!(report.mean_nf_db(), 9.0);
        assert_eq!(report.test_samples(), 300);
        // The faulted die renders as '!' on the wafer map.
        let wafer = WaferMap::disc(2).unwrap();
        assert_eq!(wafer.dies(), 4);
        let map = report.render_on(&wafer).unwrap();
        assert!(map.contains('!'), "faulted die must be marked:\n{map}");
        // And the table announces the degradation.
        let shown = report.to_string();
        assert!(shown.contains("degraded (1 faulted)"), "{shown}");
    }

    #[test]
    fn every_outcome_class_lands_in_its_own_counter() {
        let die = |die: usize, defect, verdict, retests, nf_db| DieOutcome {
            die,
            defect,
            verdict,
            retests,
            nf_db,
            test_samples: 10 * (die as u64 + 1),
        };
        let mut report = LotReport::new();
        for outcome in [
            die(0, None, Verdict::Pass, 0, 9.0),
            // A healthy die rejected after one retest.
            die(1, None, Verdict::Fail, 1, 13.0),
            die(2, Some(1), Verdict::Fail, 0, 15.0),
            // An escape that took two retests.
            die(3, Some(1), Verdict::Pass, 2, 10.0),
            // A defect still in the guard band when the budget ran out.
            die(4, Some(2), Verdict::Retest, 2, 11.0),
            // A gross reject: caught, but its NF is unmeasurable.
            die(5, Some(2), Verdict::Fail, 0, f64::INFINITY),
        ] {
            report.push(outcome).unwrap();
        }
        assert_eq!(
            (report.passed(), report.failed(), report.unresolved()),
            (2, 3, 1)
        );
        assert_eq!(report.gross(), 1);
        assert_eq!(report.defective(), 4);
        assert_eq!((report.detected(), report.escaped()), (2, 1));
        assert_eq!(report.healthy_rejects(), 1);
        assert_eq!((report.retested(), report.total_retests()), (3, 5));
        assert_eq!(report.retest_rate(), 0.5);
        assert_eq!(report.detection_rate(), Some(0.5));
        assert_eq!(report.escape_rate(), Some(0.25));
        // The gross reject stays out of the NF mean.
        assert_eq!(report.mean_nf_db(), 58.0 / 5.0);
        assert_eq!(report.test_samples(), 210);
        assert_eq!(report.mean_test_samples(), 35.0);
        assert_eq!(
            report.rolling_yield(),
            &[1.0, 0.5, 1.0 / 3.0, 0.5, 0.4, 2.0 / 6.0]
        );
        let table = report.to_table();
        assert_eq!(table.len(), 10);
        let shown = table.to_string();
        for cell in [
            "complete",
            "2 / 3 / 1",
            "33.3 %",
            "4 (2 / 1)",
            "50.0 % (5)",
            "11.60",
        ] {
            assert!(shown.contains(cell), "missing {cell:?} in\n{shown}");
        }
        // A lot of nothing but gross rejects has no measurable NF.
        let mut gross = LotReport::new();
        gross
            .push(die(0, Some(1), Verdict::Fail, 0, f64::INFINITY))
            .unwrap();
        assert_eq!(gross.mean_nf_db(), f64::INFINITY);
        assert!(gross.to_string().contains('∞'));
    }

    #[test]
    fn assemble_records_reorders_and_round_trips() {
        let universe = FaultUniverse::new().excess_noise(&[8.0]).unwrap();
        let screening = LotScreen::new(
            tiny_lot(5, 0.0),
            tiny_setup(0),
            Screen::new(10.0, 3.0).unwrap(),
            universe,
        )
        .unwrap();
        let mut records: Vec<DieRecord> = (0..screening.dies())
            .map(|die| {
                if die % 3 == 1 {
                    DieRecord::Faulted(DieFault {
                        die,
                        attempts: 1,
                        kind: DieFaultKind::AllocationFailed,
                    })
                } else {
                    DieRecord::Screened(DieOutcome {
                        die,
                        defect: None,
                        verdict: Verdict::Pass,
                        retests: 0,
                        nf_db: 9.0,
                        test_samples: 1,
                    })
                }
            })
            .collect();
        records.reverse();
        let report = screening.assemble_records(records).unwrap();
        assert_eq!(report.dies(), screening.dies());
        assert!(report.degraded());
        assert_eq!(report.faulted(), (screening.dies() + 1) / 3);
        for fault in report.faults() {
            assert_eq!(fault.die % 3, 1);
            assert_eq!(fault.kind, DieFaultKind::AllocationFailed);
        }
    }
}
