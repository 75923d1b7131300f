//! Production-test screening: pass/fail decisions with guard bands.
//!
//! The paper's motivation is production test cost ("test costs must be
//! kept lower for the device to be competitive", §1). A BIST readout is
//! only useful on the line if its *uncertainty* is folded into the
//! limit: a DUT measured just under the NF limit may still be bad. This
//! module combines a measurement with the estimator's standard
//! deviation (from `nfbist_core::uncertainty`) into guard-banded
//! verdicts.

use crate::session::{derive_seed, MeasurementSession};
use crate::setup::BistSetup;
use crate::SocError;
use nfbist_analog::circuits::NonInvertingAmplifier;
use nfbist_analog::converter::OneBitDigitizer;
use nfbist_analog::dut::Dut;
use nfbist_analog::fault::{AnalogFault, BitFault, FaultyDigitizer, FaultyDut};
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::units::Ohms;
use nfbist_core::estimator::NfMeasurement;
use nfbist_core::uncertainty;

/// A screening verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Confidently inside the limit (measured ≤ limit − guard).
    Pass,
    /// Confidently outside the limit (measured ≥ limit + guard).
    Fail,
    /// Within the guard band — re-test with a longer acquisition.
    Retest,
}

/// A guard-banded NF screening limit.
///
/// # Examples
///
/// ```
/// use nfbist_soc::screening::{Screen, Verdict};
/// use nfbist_core::estimator::NfMeasurement;
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// // Limit 10 dB, 3-sigma guard from a 100k-effective-sample record.
/// let screen = Screen::new(10.0, 3.0)?;
/// let m = NfMeasurement::from_y(3.0, 2_900.0, 290.0).expect("measurement");
/// let verdict = screen.judge(&m, 100_000)?;
/// assert!(matches!(verdict, Verdict::Pass | Verdict::Retest | Verdict::Fail));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Screen {
    limit_db: f64,
    sigma_multiple: f64,
}

impl Screen {
    /// Creates a screen at `limit_db` with a guard band of
    /// `sigma_multiple` estimator standard deviations.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for a negative limit or
    /// non-positive sigma multiple.
    pub fn new(limit_db: f64, sigma_multiple: f64) -> Result<Self, SocError> {
        if !(limit_db >= 0.0) || !limit_db.is_finite() {
            return Err(SocError::InvalidParameter {
                name: "limit_db",
                reason: "must be non-negative and finite",
            });
        }
        if !(sigma_multiple > 0.0) || !sigma_multiple.is_finite() {
            return Err(SocError::InvalidParameter {
                name: "sigma_multiple",
                reason: "must be positive and finite",
            });
        }
        Ok(Screen {
            limit_db,
            sigma_multiple,
        })
    }

    /// The NF limit in dB.
    pub fn limit_db(&self) -> f64 {
        self.limit_db
    }

    /// Guard band width in dB for a measurement taken with
    /// `n_effective` independent samples per record.
    ///
    /// # Errors
    ///
    /// Propagates uncertainty-model errors.
    pub fn guard_db(&self, m: &NfMeasurement, n_effective: usize) -> Result<f64, SocError> {
        let sigma = uncertainty::nf_std_from_record_length(m.factor, 2_900.0, 290.0, n_effective)?;
        Ok(self.sigma_multiple * sigma)
    }

    /// Judges a measurement against the limit with the guard band.
    ///
    /// # Errors
    ///
    /// Propagates uncertainty-model errors.
    pub fn judge(&self, m: &NfMeasurement, n_effective: usize) -> Result<Verdict, SocError> {
        let guard = self.guard_db(m, n_effective)?;
        let nf = m.figure.db();
        if nf <= self.limit_db - guard {
            Ok(Verdict::Pass)
        } else if nf >= self.limit_db + guard {
            Ok(Verdict::Fail)
        } else {
            Ok(Verdict::Retest)
        }
    }

    /// The smallest effective record length for which a DUT measured at
    /// `measured_db` would leave the retest band (in either direction),
    /// or `None` if it sits exactly on the limit (no record length
    /// resolves it).
    ///
    /// # Errors
    ///
    /// Propagates uncertainty-model errors.
    pub fn record_length_to_resolve(
        &self,
        m: &NfMeasurement,
        max_n: usize,
    ) -> Result<Option<usize>, SocError> {
        let mut n = 1_000usize;
        while n <= max_n {
            if self.judge(m, n)? != Verdict::Retest {
                return Ok(Some(n));
            }
            n *= 2;
        }
        Ok(None)
    }
}

/// How a [`Verdict::Retest`] escalates: up to `max_rounds` total
/// measurement rounds, growing the record length by `growth`× per
/// round (longer records shrink the guard band until the DUT resolves
/// to [`Verdict::Pass`] or [`Verdict::Fail`]).
///
/// # Examples
///
/// ```
/// use nfbist_soc::screening::RetestPolicy;
///
/// let policy = RetestPolicy::new(3, 4)?;
/// assert_eq!(policy.max_rounds(), 3);
/// assert_eq!(policy.growth(), 4);
/// // A single-round policy never retests.
/// assert_eq!(RetestPolicy::single().max_rounds(), 1);
/// assert!(RetestPolicy::new(0, 2).is_err());
/// # Ok::<(), nfbist_soc::SocError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetestPolicy {
    max_rounds: usize,
    growth: usize,
}

impl RetestPolicy {
    /// Creates a policy with `max_rounds` total rounds (≥ 1) and a
    /// per-retest record-length multiplier `growth` (≥ 2).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for zero rounds or a
    /// growth factor below 2.
    pub fn new(max_rounds: usize, growth: usize) -> Result<Self, SocError> {
        if max_rounds == 0 {
            return Err(SocError::InvalidParameter {
                name: "max_rounds",
                reason: "at least one measurement round is required",
            });
        }
        if growth < 2 {
            return Err(SocError::InvalidParameter {
                name: "growth",
                reason: "the record length must at least double per retest",
            });
        }
        Ok(RetestPolicy { max_rounds, growth })
    }

    /// A one-round policy: judge once, never escalate (the final
    /// verdict may then be [`Verdict::Retest`]).
    pub fn single() -> Self {
        RetestPolicy {
            max_rounds: 1,
            growth: 2,
        }
    }

    /// Total measurement rounds allowed.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// Record-length multiplier applied per retest.
    pub fn growth(&self) -> usize {
        self.growth
    }
}

/// One measurement round within [`screen_with_retest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetestRound {
    /// Record length this round acquired.
    pub samples: usize,
    /// Measured NF in dB (`f64::INFINITY` for an unmeasurable DUT —
    /// see [`screen_with_retest`]).
    pub nf_db: f64,
    /// This round's verdict.
    pub verdict: Verdict,
}

/// The outcome of a guard-banded screening with retest escalation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreeningOutcome {
    /// The final verdict ([`Verdict::Retest`] only when the policy's
    /// round budget ran out with the DUT still inside the guard band).
    pub verdict: Verdict,
    /// Every round, in execution order (never empty).
    pub rounds: Vec<RetestRound>,
}

impl ScreeningOutcome {
    /// Number of retests performed (rounds beyond the first).
    pub fn retests(&self) -> usize {
        self.rounds.len().saturating_sub(1)
    }

    /// Total samples acquired per source state across all rounds — the
    /// test-time currency of a coverage campaign.
    pub fn total_samples(&self) -> u64 {
        self.rounds.iter().map(|r| r.samples as u64).sum()
    }
}

/// Runs the documented screening flow end to end: measure, judge
/// against the guard-banded limit, and on [`Verdict::Retest`] re-test
/// with a `growth`× longer acquisition, up to the policy's round
/// budget.
///
/// `build` constructs the round's [`MeasurementSession`] from the
/// round's setup (record length grown per round; the seed is
/// re-derived per round so retests draw fresh noise). This closure
/// indirection is what makes the loop expressible at all: a session's
/// record length is fixed at construction, so every escalation needs a
/// freshly built session.
///
/// The guard band is evaluated at the session's full averaging depth:
/// `2·B·T` effective samples per acquisition
/// ([`BistSetup::effective_samples`]) × the session's repeat count,
/// since the judged NF comes from the mean Y over the repeats and the
/// Y variance shrinks accordingly.
///
/// A DUT whose measurement is *degenerate* (estimated Y ≤ 1, or a
/// noise factor below the physical limit — gross faults can do both)
/// is an unambiguous production reject, not a tester failure: it is
/// reported as [`Verdict::Fail`] with `nf_db = f64::INFINITY` rather
/// than as an error. Configuration errors still propagate.
///
/// # Examples
///
/// ```
/// use nfbist_soc::screening::{screen_with_retest, RetestPolicy, Screen, Verdict};
/// use nfbist_soc::session::MeasurementSession;
/// use nfbist_soc::setup::BistSetup;
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// let mut setup = BistSetup::quick(11);
/// setup.samples = 1 << 13;
/// setup.nfft = 1_024;
/// // OP27 default DUT (≈3.7 dB) against a 10 dB limit: passes, and
/// // within the round budget.
/// let screen = Screen::new(10.0, 3.0)?;
/// let policy = RetestPolicy::new(3, 4)?;
/// let outcome = screen_with_retest(&screen, &setup, &policy, MeasurementSession::new)?;
/// assert_eq!(outcome.verdict, Verdict::Pass);
/// assert!(outcome.rounds.len() <= 3);
/// assert!(outcome.total_samples() >= (1 << 13) as u64);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates session construction errors and non-degenerate
/// measurement errors.
pub fn screen_with_retest<F>(
    screen: &Screen,
    setup: &BistSetup,
    policy: &RetestPolicy,
    build: F,
) -> Result<ScreeningOutcome, SocError>
where
    F: Fn(BistSetup) -> Result<MeasurementSession, SocError>,
{
    let mut samples = setup.samples;
    let mut rounds: Vec<RetestRound> = Vec::new();
    loop {
        let mut round_setup = setup.clone();
        round_setup.samples = samples;
        if !rounds.is_empty() {
            // Retests draw fresh noise: a marginal verdict must not be
            // re-judged on the very record that produced it.
            round_setup.seed = derive_seed(setup.seed, rounds.len() as u64);
        }
        let session = build(round_setup.clone())?;
        // The session averages Y over its repeats, so the estimator
        // variance — and with it the guard band — shrinks by the
        // repeat count.
        let n_effective = round_setup
            .effective_samples()
            .saturating_mul(session.repeat_count());
        let (nf_db, verdict) = match session.run() {
            Ok(m) => (m.nf.figure.db(), screen.judge(&m.nf, n_effective)?),
            // Unmeasurable ⇒ gross reject (see the function docs).
            Err(SocError::Core(e)) if e.indicates_unmeasurable_estimate() => {
                (f64::INFINITY, Verdict::Fail)
            }
            Err(e) => return Err(e),
        };
        rounds.push(RetestRound {
            samples,
            nf_db,
            verdict,
        });
        if verdict != Verdict::Retest || rounds.len() >= policy.max_rounds {
            return Ok(ScreeningOutcome { verdict, rounds });
        }
        samples = samples.saturating_mul(policy.growth);
    }
}

/// An observer a fault-injecting runtime hands to the sequential
/// screening loop: called once per checkpoint with the checkpoint
/// index, **after** that checkpoint's samples were acquired but before
/// the stop rule is consulted. A chaos harness panics or stalls inside
/// it to simulate a die failing mid-acquisition; the unwinding drops
/// the partially-filled accumulators on the floor, which is what keeps
/// a quarantined die from ever contributing partial chunks to a lot's
/// float folds.
pub type CheckpointProbe<'a> = &'a (dyn Fn(usize) + Send + Sync);

/// The stop rule's three-way answer at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SequentialDecision {
    /// The whole confidence interval clears the guard-banded limit
    /// from below: stop now, the DUT passes.
    Pass,
    /// The whole confidence interval clears the limit from above:
    /// stop now, the DUT fails.
    Fail,
    /// The interval straddles the guard band (or the estimate is not
    /// yet trustworthy): keep acquiring.
    Continue,
}

/// An SPRT-style sequential screen: drives the streaming pipeline
/// checkpoint by checkpoint and stops the moment the running NF
/// estimate clears the guard-banded limit with the configured
/// confidence — clearly-good and clearly-bad dies stop after the first
/// checkpoint instead of paying the full fixed-schedule record.
///
/// At each checkpoint the running estimate's model standard deviation
/// σ(n) (`nfbist_core::uncertainty`, the Welch variance-vs-record-length
/// trade) forms a one-sided test in each direction:
///
/// * **Pass** iff `nf + z_β·σ(n) ≤ limit − guard` — the probability a
///   truly-bad DUT looks this good is at most β (the escape budget);
/// * **Fail** iff `nf − z_α·σ(n) ≥ limit` — the probability a DUT that
///   actually meets the limit looks this bad is at most α (the
///   overkill budget);
/// * **Continue** otherwise.
///
/// The rule is deliberately asymmetric. `guard` is the underlying
/// [`Screen`]'s guard band evaluated at the **cap's** record length, so
/// an early *Pass* can never clear a DUT the full fixed-schedule
/// judgement would flag — escapes are the expensive error, and the
/// guard exists to bound them. An early *Fail* is judged against the
/// bare limit: a DUT confidently above the limit is one the fixed
/// schedule would at best send to retest purgatory, and delaying its
/// reject by the guard band only burns test time (the α budget alone
/// bounds the overkill risk). At the hard cap (the setup's configured
/// record length) the screen falls back to the fixed-schedule verdict
/// [`Screen::judge`] — a DUT the sequential rule never resolved gets
/// exactly the decision a single-round [`screen_with_retest`] would
/// give it, including the unmeasurable-DUT gross-reject convention.
///
/// # Examples
///
/// ```
/// use nfbist_soc::screening::{Screen, SequentialDecision, SequentialScreen};
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// let seq = SequentialScreen::new(Screen::new(10.0, 3.0)?, 0.05, 0.05)?;
/// // 2 dB under the limit with a tight interval: early Pass.
/// assert_eq!(seq.decide(8.0, 0.1, 0.5), SequentialDecision::Pass);
/// // Straddling the guard band: keep acquiring.
/// assert_eq!(seq.decide(9.8, 0.5, 0.5), SequentialDecision::Continue);
/// // Far above with confidence: early Fail.
/// assert_eq!(seq.decide(13.0, 0.3, 0.5), SequentialDecision::Fail);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialScreen {
    screen: Screen,
    alpha: f64,
    beta: f64,
    z_alpha: f64,
    z_beta: f64,
    min_samples: usize,
    growth: usize,
}

impl SequentialScreen {
    /// Wraps a guard-banded [`Screen`] into a sequential stop rule with
    /// error budgets `alpha` (failing a good DUT early) and `beta`
    /// (passing a bad DUT early). The one-sided normal quantiles
    /// z₁₋α / z₁₋β are precomputed here.
    ///
    /// Defaults: first checkpoint at 4096 samples, record doubling per
    /// checkpoint ([`SequentialScreen::min_samples`],
    /// [`SequentialScreen::growth`]).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] unless both budgets lie
    /// in `(0, 0.5)`.
    pub fn new(screen: Screen, alpha: f64, beta: f64) -> Result<Self, SocError> {
        if !(alpha > 0.0 && alpha < 0.5) {
            return Err(SocError::InvalidParameter {
                name: "alpha",
                reason: "the overkill error budget must lie in (0, 0.5)",
            });
        }
        if !(beta > 0.0 && beta < 0.5) {
            return Err(SocError::InvalidParameter {
                name: "beta",
                reason: "the escape error budget must lie in (0, 0.5)",
            });
        }
        let z_alpha = uncertainty::normal_quantile(1.0 - alpha)?;
        let z_beta = uncertainty::normal_quantile(1.0 - beta)?;
        Ok(SequentialScreen {
            screen,
            alpha,
            beta,
            z_alpha,
            z_beta,
            min_samples: 1 << 12,
            growth: 2,
        })
    }

    /// Sets the record length of the first checkpoint (clamped to ≥ 1;
    /// additionally raised to the setup's FFT length at screening time,
    /// below which no estimator can form a ratio).
    pub fn min_samples(mut self, samples: usize) -> Self {
        self.min_samples = samples.max(1);
        self
    }

    /// Sets the record-length multiplier between checkpoints (clamped
    /// to ≥ 2 — geometric growth keeps the checkpoint count, and with
    /// it the sequential test's multiplicity, logarithmic).
    pub fn growth(mut self, growth: usize) -> Self {
        self.growth = growth.max(2);
        self
    }

    /// The underlying guard-banded screen.
    pub fn screen(&self) -> &Screen {
        &self.screen
    }

    /// The overkill error budget α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The escape error budget β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The first checkpoint's record length.
    pub fn min_sample_count(&self) -> usize {
        self.min_samples
    }

    /// The per-checkpoint record-length multiplier.
    pub fn growth_factor(&self) -> usize {
        self.growth
    }

    /// The pure stop rule: given the running NF estimate `nf_db`, its
    /// model standard deviation `sigma_db` at the *current* record
    /// length, and the guard band `guard_db` at the *cap's* record
    /// length (applied on the Pass side only — see the type docs for
    /// why the rule is asymmetric), answers Pass / Fail / Continue.
    ///
    /// Degenerate inputs — a non-finite NF (the `f64::INFINITY`
    /// unmeasurable sentinel included), a zero, negative or non-finite
    /// σ (a zero-variance accumulator cannot be trusted, only
    /// distrusted), or a non-finite/negative guard — always answer
    /// [`SequentialDecision::Continue`]: the rule never converts a
    /// broken estimate into a spurious Pass (or Fail). Such a DUT runs
    /// to the cap, where the fixed-schedule fallback applies its own
    /// conventions.
    pub fn decide(&self, nf_db: f64, sigma_db: f64, guard_db: f64) -> SequentialDecision {
        if !nf_db.is_finite()
            || !sigma_db.is_finite()
            || !(sigma_db > 0.0)
            || !guard_db.is_finite()
            || guard_db < 0.0
        {
            return SequentialDecision::Continue;
        }
        let limit = self.screen.limit_db();
        if nf_db + self.z_beta * sigma_db <= limit - guard_db {
            SequentialDecision::Pass
        } else if nf_db - self.z_alpha * sigma_db >= limit {
            SequentialDecision::Fail
        } else {
            SequentialDecision::Continue
        }
    }
}

/// The outcome of one sequential (early-stopping) screening.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialOutcome {
    /// The final verdict. [`Verdict::Retest`] is only possible at the
    /// cap, where the fixed-schedule fallback may leave the DUT inside
    /// the guard band (exactly like a single-round
    /// [`screen_with_retest`]).
    pub verdict: Verdict,
    /// Measured NF in dB from the flushed estimate at the stopping
    /// point (`f64::INFINITY` for an unmeasurable DUT).
    pub nf_db: f64,
    /// Record length acquired per source state — the stopping point.
    pub samples: usize,
    /// Checkpoints evaluated (≥ 1).
    pub checkpoints: usize,
    /// `true` when the stop rule fired before the cap.
    pub stopped_early: bool,
}

impl SequentialOutcome {
    /// Samples acquired per source state — the test-time currency,
    /// directly comparable to [`ScreeningOutcome::total_samples`].
    pub fn total_samples(&self) -> u64 {
        self.samples as u64
    }
}

/// Runs a sequential (early-stopping) screening end to end: open the
/// streaming pipeline, advance every repeat to geometric checkpoints,
/// consult the stop rule on the interim estimate, and on Pass / Fail /
/// cap flush the pipeline tails and report.
///
/// The setup's configured record length is the **hard cap**; the first
/// checkpoint sits at [`SequentialScreen::min_samples`] (raised to the
/// FFT length). The stopping decision — like everything downstream of
/// it — is a pure function of `(setup seed, recipe)`: independent of
/// worker scheduling and streaming chunk sizes, which
/// is what lets a fleet fan adaptive screens out bit-identically.
///
/// The reported `nf_db` comes from the **flushed** estimate at the
/// stopping point and is bit-identical to a batch measurement of that
/// record length; at the cap the whole outcome matches what a
/// single-round fixed schedule would report for the same setup.
///
/// An unmeasurable DUT (estimated Y ≤ 1 at the stopping point) is a
/// gross reject — [`Verdict::Fail`] with `nf_db = f64::INFINITY` —
/// mirroring [`screen_with_retest`]. Grossly faulted DUTs also stop
/// *early*: two consecutive checkpoints whose interim estimate is
/// unmeasurable confirm the fault on independent data and reject
/// immediately, without paying the rest of the record.
///
/// A Pass needs **confirmation across checkpoints**: the rule only
/// releases a DUT early when the interim estimate agrees with the
/// previous checkpoint's measurable estimate to within the escape-risk
/// quantile of that estimate's uncertainty. The very first checkpoint
/// — and any checkpoint right after an unmeasurable one — can
/// therefore never Pass by itself. This blocks the one failure mode
/// the model-σ stop rule cannot see: a grossly faulted DUT whose
/// reference-line detector latches onto a noise peak at shallow
/// averaging, aliasing a plausible low NF that would otherwise convert
/// into a spurious early Pass before the false line collapses.
///
/// # Examples
///
/// ```
/// use nfbist_soc::screening::{screen_sequential, Screen, ScreeningRecipe, SequentialScreen, Verdict};
/// use nfbist_soc::setup::BistSetup;
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// let mut setup = BistSetup::quick(13);
/// setup.samples = 1 << 14;
/// setup.nfft = 1_024;
/// // The healthy TL081 prototype (≈12.8 dB) against an 18 dB limit: a
/// // clear pass, confirmed after two checkpoints instead of paying the
/// // full record.
/// let seq = SequentialScreen::new(Screen::new(18.0, 3.0)?, 0.05, 0.05)?
///     .min_samples(1 << 12);
/// let outcome = screen_sequential(&seq, &setup, |s| ScreeningRecipe::new().session(s))?;
/// assert_eq!(outcome.verdict, Verdict::Pass);
/// assert!(outcome.stopped_early);
/// assert!(outcome.samples < 1 << 14);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates session construction errors (including an estimator
/// without streaming support) and non-degenerate measurement errors.
pub fn screen_sequential<F>(
    seq: &SequentialScreen,
    setup: &BistSetup,
    build: F,
) -> Result<SequentialOutcome, SocError>
where
    F: Fn(BistSetup) -> Result<MeasurementSession, SocError>,
{
    screen_sequential_impl(seq, setup, build, None)
}

/// [`screen_sequential`] with a per-checkpoint [`CheckpointProbe`] —
/// the hook a fault-injecting runtime uses to kill or stall a die
/// *mid-acquisition* (see the probe type's docs).
///
/// # Errors
///
/// As [`screen_sequential`].
pub fn screen_sequential_probed<F>(
    seq: &SequentialScreen,
    setup: &BistSetup,
    build: F,
    probe: CheckpointProbe<'_>,
) -> Result<SequentialOutcome, SocError>
where
    F: Fn(BistSetup) -> Result<MeasurementSession, SocError>,
{
    screen_sequential_impl(seq, setup, build, Some(probe))
}

/// Minimum number of Welch segments a checkpoint must average before an
/// unmeasurable interim estimate counts toward the gross-reject streak.
/// Below this depth, reference-line detection is noisy enough that even
/// healthy DUTs occasionally fail to resolve the line; from four
/// averaged segments on, a missing line on two consecutive checkpoints
/// is reliable evidence of a gross fault rather than estimator
/// variance.
const GROSS_CONFIRM_SEGMENTS: usize = 4;

fn screen_sequential_impl<F>(
    seq: &SequentialScreen,
    setup: &BistSetup,
    build: F,
    probe: Option<CheckpointProbe<'_>>,
) -> Result<SequentialOutcome, SocError>
where
    F: Fn(BistSetup) -> Result<MeasurementSession, SocError>,
{
    let session = build(setup.clone())?;
    let cap = setup.samples;
    let repeats = session.repeat_count();
    // Guard band at the cap's averaging depth: early stops are judged
    // against the *final* guard, never a wider interim one.
    let n_eff_cap = setup.effective_samples().saturating_mul(repeats);
    let gain = session.frontend_gain()?;
    let mut chains = Vec::with_capacity(repeats);
    for r in 0..repeats {
        chains.push(session.begin_sequential(r, gain)?);
    }
    // No estimator forms a ratio below one FFT segment.
    let mut n_c = seq.min_samples.max(setup.nfft).min(cap);
    let mut checkpoints = 0usize;
    let mut decision = SequentialDecision::Continue;
    let mut unmeasurable_streak = 0usize;
    let mut prior_estimate: Option<(f64, f64)> = None;
    loop {
        for chain in chains.iter_mut() {
            chain.advance_to(n_c)?;
        }
        if let Some(probe) = probe {
            probe(checkpoints);
        }
        checkpoints += 1;
        if n_c >= cap {
            break;
        }
        let mut call = checkpoint_decision(seq, &chains, setup, n_c, n_eff_cap);
        // Two *consecutive* checkpoints whose interim estimate is
        // unmeasurable (Y ≤ 1, or the reference line buried below the
        // noise floor) is a gross fault confirmed on independent
        // additional data: reject now instead of riding the degenerate
        // estimate all the way to the cap. Two protections keep this
        // from overkilling measurable DUTs: a single unmeasurable
        // checkpoint never stops (a short-record fluke must not fail a
        // die the fixed schedule would have measured), and checkpoints
        // below [`GROSS_CONFIRM_SEGMENTS`] Welch segments do not count
        // at all — reference-line detection is only trustworthy once a
        // few segments have been averaged.
        if call.unmeasurable {
            if n_c >= setup.nfft.saturating_mul(GROSS_CONFIRM_SEGMENTS) {
                unmeasurable_streak += 1;
                if unmeasurable_streak >= 2 {
                    return Ok(SequentialOutcome {
                        verdict: Verdict::Fail,
                        nf_db: f64::INFINITY,
                        samples: n_c,
                        checkpoints,
                        stopped_early: true,
                    });
                }
            }
        } else {
            unmeasurable_streak = 0;
        }
        // A Pass must be *confirmed*: the interim estimate has to agree
        // with the previous checkpoint's measurable estimate within the
        // escape-risk quantile of that estimate's uncertainty. The model
        // σ is a function of the estimate itself, not of the data, so it
        // cannot see a false reference-line detection — a grossly
        // faulted DUT can alias a plausible low NF at one shallow
        // checkpoint before the line collapses at deeper averaging. A
        // bogus line does not survive a doubling of the record
        // consistently, while a true line's nested estimates move well
        // inside σ. The first checkpoint, or one right after an
        // unmeasurable checkpoint, therefore never Passes outright; Fail
        // needs no confirmation (the α risk is already bounded and the
        // fixed schedule gross-rejects such DUTs anyway).
        if call.decision == SequentialDecision::Pass {
            let confirmed = match (prior_estimate, call.estimate) {
                (Some((prev_nf, prev_sigma)), Some((nf, _))) => {
                    (nf - prev_nf).abs() <= seq.z_beta * prev_sigma
                }
                _ => false,
            };
            if !confirmed {
                call.decision = SequentialDecision::Continue;
            }
        }
        prior_estimate = call.estimate;
        decision = call.decision;
        if decision != SequentialDecision::Continue {
            break;
        }
        n_c = n_c.saturating_mul(seq.growth).min(cap);
    }
    let stopped_early = n_c < cap;
    let mut y_sum = 0.0;
    for chain in chains {
        match chain.finish() {
            Ok(r) => y_sum += r.ratio.ratio,
            // A repeat whose flushed estimate cannot even be formed
            // (e.g. the reference line swamped by a gross fault) is
            // the same gross reject the fixed schedule reports.
            Err(SocError::Core(e)) if e.indicates_unmeasurable_estimate() => {
                return Ok(SequentialOutcome {
                    verdict: Verdict::Fail,
                    nf_db: f64::INFINITY,
                    samples: n_c,
                    checkpoints,
                    stopped_early,
                });
            }
            Err(e) => return Err(e),
        }
    }
    let mean_y = y_sum / repeats as f64;
    match NfMeasurement::from_y(mean_y, setup.hot_kelvin, setup.cold_kelvin) {
        Ok(nf) => {
            let verdict = match decision {
                SequentialDecision::Pass => Verdict::Pass,
                SequentialDecision::Fail => Verdict::Fail,
                // Cap reached with the rule still undecided: the
                // fixed-schedule verdict at full depth.
                SequentialDecision::Continue => seq.screen.judge(&nf, n_eff_cap)?,
            };
            Ok(SequentialOutcome {
                verdict,
                nf_db: nf.figure.db(),
                samples: n_c,
                checkpoints,
                stopped_early,
            })
        }
        // Unmeasurable ⇒ gross reject, mirroring screen_with_retest.
        Err(e) if e.indicates_unmeasurable_estimate() => Ok(SequentialOutcome {
            verdict: Verdict::Fail,
            nf_db: f64::INFINITY,
            samples: n_c,
            checkpoints,
            stopped_early,
        }),
        Err(e) => Err(e.into()),
    }
}

/// What one checkpoint evaluation tells the sequential loop: the stop
/// rule's answer, plus whether the interim estimate was *unmeasurable*
/// (as opposed to merely undecided) — the loop counts consecutive
/// unmeasurable checkpoints towards an early gross reject.
struct CheckpointCall {
    decision: SequentialDecision,
    unmeasurable: bool,
    /// `(nf_db, sigma_db)` when a measurable interim estimate and its
    /// uncertainty were both formed — the evidence a later Pass must be
    /// confirmed against.
    estimate: Option<(f64, f64)>,
}

impl CheckpointCall {
    fn undecided(unmeasurable: bool) -> Self {
        CheckpointCall {
            decision: SequentialDecision::Continue,
            unmeasurable,
            estimate: None,
        }
    }
}

/// Evaluates the stop rule on the interim (unflushed) estimates at
/// record length `n_c`. Every failure mode — a snapshot the estimator
/// cannot form yet, a degenerate mean Y, an uncertainty-model error —
/// answers Continue: acquiring more is always safe, stopping is not.
/// Failures that specifically indicate an unmeasurable DUT (estimated
/// Y ≤ 1, reference line lost in the noise) are flagged as such so the
/// loop can confirm a gross fault across checkpoints.
fn checkpoint_decision(
    seq: &SequentialScreen,
    chains: &[crate::session::SequentialRepeat<'_>],
    setup: &BistSetup,
    n_c: usize,
    n_eff_cap: usize,
) -> CheckpointCall {
    let mut y_sum = 0.0;
    for chain in chains {
        match chain.snapshot() {
            Ok(r) => y_sum += r.ratio,
            Err(SocError::Core(e)) if e.indicates_unmeasurable_estimate() => {
                return CheckpointCall::undecided(true);
            }
            Err(_) => return CheckpointCall::undecided(false),
        }
    }
    let mean_y = y_sum / chains.len() as f64;
    let m = match NfMeasurement::from_y(mean_y, setup.hot_kelvin, setup.cold_kelvin) {
        Ok(m) => m,
        Err(e) => return CheckpointCall::undecided(e.indicates_unmeasurable_estimate()),
    };
    let n_eff_now = setup
        .effective_samples_for(n_c)
        .saturating_mul(chains.len());
    let sigma = match uncertainty::nf_std_from_record_length(m.factor, 2_900.0, 290.0, n_eff_now) {
        Ok(s) => s,
        Err(_) => return CheckpointCall::undecided(false),
    };
    let guard = match seq.screen.guard_db(&m, n_eff_cap) {
        Ok(g) => g,
        Err(_) => return CheckpointCall::undecided(false),
    };
    CheckpointCall {
        decision: seq.decide(m.figure.db(), sigma, guard),
        unmeasurable: false,
        estimate: Some((m.figure.db(), sigma)),
    }
}

/// A reusable per-DUT screening configuration: which healthy design to
/// build, which faults to compose onto it, and how many repeats to
/// average.
///
/// [`screen_with_retest`] needs its session rebuilt from scratch every
/// round (a session's record length is fixed at construction), so
/// every call-site used to re-implement the same closure: build the
/// healthy DUT, wrap it in [`FaultyDut`], wrap the ideal comparator in
/// [`FaultyDigitizer`], set repeats. A recipe
/// captures that dance once; [`ScreeningRecipe::screen`] runs the full
/// retest flow and [`ScreeningRecipe::screen_indexed`] additionally
/// derives the per-DUT seed from an index — the seed-stable form a
/// coverage campaign or a wafer-lot screen fans across workers.
///
/// # Examples
///
/// ```
/// use nfbist_soc::screening::{RetestPolicy, Screen, ScreeningRecipe, Verdict};
/// use nfbist_soc::setup::BistSetup;
/// use nfbist_analog::fault::AnalogFault;
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// let mut setup = BistSetup::quick(3);
/// setup.samples = 1 << 13;
/// setup.nfft = 1_024;
/// let screen = Screen::new(12.0, 3.0)?;
/// let policy = RetestPolicy::new(3, 4)?;
/// // The default TL081 prototype with an 8× noise defect: caught.
/// let recipe = ScreeningRecipe::new().analog_fault(AnalogFault::ExcessNoise { factor: 8.0 })?;
/// let outcome = recipe.screen(&screen, &setup, &policy)?;
/// assert_eq!(outcome.verdict, Verdict::Fail);
/// // The same recipe screens DUT after DUT, each seeded by its index.
/// let a = recipe.screen_indexed(&screen, &setup, &policy, 7)?;
/// assert_eq!(a, recipe.screen_indexed(&screen, &setup, &policy, 7)?);
/// # Ok(())
/// # }
/// ```
pub struct ScreeningRecipe<'a> {
    build_dut: Option<&'a (dyn Fn() -> Result<Box<dyn Dut>, SocError> + Send + Sync)>,
    analog: Vec<AnalogFault>,
    bit: Vec<BitFault>,
    repeats: usize,
    streaming_chunk: Option<usize>,
}

impl std::fmt::Debug for ScreeningRecipe<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScreeningRecipe")
            .field("custom_dut", &self.build_dut.is_some())
            .field("analog", &self.analog)
            .field("bit", &self.bit)
            .field("repeats", &self.repeats)
            .field("streaming_chunk", &self.streaming_chunk)
            .finish()
    }
}

impl Default for ScreeningRecipe<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> ScreeningRecipe<'a> {
    /// A fault-free recipe around the paper's TL081 non-inverting
    /// prototype, 1 repeat.
    pub fn new() -> Self {
        ScreeningRecipe {
            build_dut: None,
            analog: Vec::new(),
            bit: Vec::new(),
            repeats: 1,
            streaming_chunk: None,
        }
    }

    /// Overrides the healthy-DUT builder (called once per measurement
    /// round — every round measures a freshly built DUT).
    pub fn dut_builder(
        mut self,
        build: &'a (dyn Fn() -> Result<Box<dyn Dut>, SocError> + Send + Sync),
    ) -> Self {
        self.build_dut = Some(build);
        self
    }

    /// Composes an analog fault onto the DUT (builder style).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Analog`] for out-of-domain fault parameters.
    pub fn analog_fault(mut self, fault: AnalogFault) -> Result<Self, SocError> {
        fault.validate()?;
        self.analog.push(fault);
        Ok(self)
    }

    /// Composes every analog fault of an iterator onto the DUT.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Analog`] for out-of-domain fault parameters.
    pub fn analog_faults(
        mut self,
        faults: impl IntoIterator<Item = AnalogFault>,
    ) -> Result<Self, SocError> {
        for fault in faults {
            self = self.analog_fault(fault)?;
        }
        Ok(self)
    }

    /// Composes a 1-bit stream fault onto the front-end (builder
    /// style).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Analog`] for out-of-domain fault parameters.
    pub fn bit_fault(mut self, fault: BitFault) -> Result<Self, SocError> {
        fault.validate()?;
        self.bit.push(fault);
        Ok(self)
    }

    /// Composes every bit fault of an iterator onto the front-end.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Analog`] for out-of-domain fault parameters.
    pub fn bit_faults(
        mut self,
        faults: impl IntoIterator<Item = BitFault>,
    ) -> Result<Self, SocError> {
        for fault in faults {
            self = self.bit_fault(fault)?;
        }
        Ok(self)
    }

    /// Sets the hot/cold repeats averaged per measurement (clamped to
    /// ≥ 1).
    pub fn repeats(mut self, n: usize) -> Self {
        self.repeats = n.max(1);
        self
    }

    /// Overrides the streaming pipeline's chunk length (in samples) —
    /// a determinism-test hook: estimates and stopping decisions are
    /// invariant under it, so varying it must never change an outcome
    /// bit.
    pub fn streaming_chunk(mut self, samples: usize) -> Self {
        self.streaming_chunk = Some(samples);
        self
    }

    /// Builds one measurement round's session from the recipe: healthy
    /// DUT → [`FaultyDut`] → [`FaultyDigitizer`] over the ideal
    /// comparator → repeats → optional chunk override.
    ///
    /// # Errors
    ///
    /// Propagates DUT-builder and session-construction errors.
    pub fn session(&self, setup: BistSetup) -> Result<MeasurementSession, SocError> {
        let healthy: Box<dyn Dut> = match self.build_dut {
            Some(build) => build()?,
            None => Box::new(NonInvertingAmplifier::new(
                OpampModel::tl081(),
                Ohms::new(10_000.0),
                Ohms::new(100.0),
            )?),
        };
        let dut = FaultyDut::new(healthy).with_faults(self.analog.iter().copied())?;
        let digitizer =
            FaultyDigitizer::new(OneBitDigitizer::ideal()).with_faults(self.bit.iter().copied())?;
        let mut session = MeasurementSession::new(setup)?
            .dut(dut)
            .digitizer(digitizer)
            .repeats(self.repeats);
        if let Some(chunk) = self.streaming_chunk {
            session = session.streaming_chunk_len(chunk);
        }
        Ok(session)
    }

    /// Runs the full guard-banded retest flow on this recipe's DUT:
    /// [`screen_with_retest`] with [`ScreeningRecipe::session`] as the
    /// per-round builder.
    ///
    /// # Errors
    ///
    /// Propagates construction and non-degenerate measurement errors
    /// (an *unmeasurable* DUT is a [`Verdict::Fail`], not an error).
    pub fn screen(
        &self,
        screen: &Screen,
        setup: &BistSetup,
        policy: &RetestPolicy,
    ) -> Result<ScreeningOutcome, SocError> {
        screen_with_retest(screen, setup, policy, |round_setup| {
            self.session(round_setup)
        })
    }

    /// [`ScreeningRecipe::screen`] with the per-DUT seed derived from
    /// `index`: the screened setup's seed is
    /// `derive_seed(setup.seed, index)`, making the outcome a pure
    /// function of `(recipe, setup, index)` — the property that lets a
    /// campaign or lot screen fan DUTs across workers bit-identically.
    ///
    /// # Errors
    ///
    /// As [`ScreeningRecipe::screen`].
    pub fn screen_indexed(
        &self,
        screen: &Screen,
        setup: &BistSetup,
        policy: &RetestPolicy,
        index: u64,
    ) -> Result<ScreeningOutcome, SocError> {
        let mut indexed = setup.clone();
        indexed.seed = derive_seed(setup.seed, index);
        self.screen(screen, &indexed, policy)
    }

    /// Runs the sequential (early-stopping) flow on this recipe's DUT:
    /// [`screen_sequential`] with [`ScreeningRecipe::session`] as the
    /// builder. The setup's record length is the hard cap; the retest
    /// policy plays no role (escalation is replaced by the checkpoint
    /// schedule).
    ///
    /// # Errors
    ///
    /// As [`screen_sequential`].
    pub fn screen_sequential(
        &self,
        seq: &SequentialScreen,
        setup: &BistSetup,
    ) -> Result<SequentialOutcome, SocError> {
        screen_sequential(seq, setup, |s| self.session(s))
    }

    /// [`ScreeningRecipe::screen_sequential`] with the per-DUT seed
    /// derived from `index` — the exact derivation
    /// [`ScreeningRecipe::screen_indexed`] uses, so adaptive and fixed
    /// screens of the same die draw the same noise.
    ///
    /// # Errors
    ///
    /// As [`screen_sequential`].
    pub fn screen_sequential_indexed(
        &self,
        seq: &SequentialScreen,
        setup: &BistSetup,
        index: u64,
    ) -> Result<SequentialOutcome, SocError> {
        let mut indexed = setup.clone();
        indexed.seed = derive_seed(setup.seed, index);
        self.screen_sequential(seq, &indexed)
    }

    /// [`ScreeningRecipe::screen_sequential_indexed`] with a
    /// per-checkpoint [`CheckpointProbe`] (see
    /// [`screen_sequential_probed`]).
    ///
    /// # Errors
    ///
    /// As [`screen_sequential`].
    pub fn screen_sequential_indexed_probed(
        &self,
        seq: &SequentialScreen,
        setup: &BistSetup,
        index: u64,
        probe: CheckpointProbe<'_>,
    ) -> Result<SequentialOutcome, SocError> {
        let mut indexed = setup.clone();
        indexed.seed = derive_seed(setup.seed, index);
        screen_sequential_probed(seq, &indexed, |s| self.session(s), probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(nf_db: f64) -> NfMeasurement {
        // Invert eq. 8 to find the Y that produces the requested NF.
        let f = nfbist_core::figure::NoiseFigure::from_db(nf_db)
            .unwrap()
            .to_factor();
        let y = nfbist_core::yfactor::expected_y(f, 2_900.0, 290.0).unwrap();
        NfMeasurement::from_y(y, 2_900.0, 290.0).unwrap()
    }

    #[test]
    fn validation() {
        assert!(Screen::new(-1.0, 3.0).is_err());
        assert!(Screen::new(10.0, 0.0).is_err());
        assert!(Screen::new(10.0, f64::NAN).is_err());
        assert!(Screen::new(10.0, 3.0).is_ok());
        assert_eq!(Screen::new(10.0, 3.0).unwrap().limit_db(), 10.0);
    }

    #[test]
    fn clear_pass_and_fail() {
        let screen = Screen::new(10.0, 3.0).unwrap();
        let quiet = measurement(5.0);
        let noisy = measurement(15.0);
        assert_eq!(screen.judge(&quiet, 100_000).unwrap(), Verdict::Pass);
        assert_eq!(screen.judge(&noisy, 100_000).unwrap(), Verdict::Fail);
    }

    #[test]
    fn marginal_dut_lands_in_retest_with_short_records() {
        let screen = Screen::new(10.0, 3.0).unwrap();
        let marginal = measurement(9.98);
        // Very short record → wide guard → retest.
        assert_eq!(screen.judge(&marginal, 200).unwrap(), Verdict::Retest);
    }

    #[test]
    fn longer_records_shrink_the_guard() {
        let screen = Screen::new(10.0, 3.0).unwrap();
        let m = measurement(9.5);
        let wide = screen.guard_db(&m, 1_000).unwrap();
        let narrow = screen.guard_db(&m, 1_000_000).unwrap();
        assert!(narrow < wide / 10.0, "{narrow} vs {wide}");
    }

    #[test]
    fn retest_escalation_grows_the_record() {
        // Measure once to learn where this seed's NF lands, then put
        // the limit exactly on top of it: round 1 must land in the
        // guard band and escalate with a doubled record.
        let mut setup = BistSetup::quick(31);
        setup.samples = 1 << 13;
        setup.nfft = 1_024;
        let probe = MeasurementSession::new(setup.clone())
            .unwrap()
            .run()
            .unwrap();
        let screen = Screen::new(probe.nf.figure.db(), 3.0).unwrap();
        let policy = RetestPolicy::new(2, 2).unwrap();
        let outcome =
            screen_with_retest(&screen, &setup, &policy, MeasurementSession::new).unwrap();
        assert_eq!(outcome.rounds.len(), 2, "on-limit DUT must retest");
        assert_eq!(outcome.retests(), 1);
        assert_eq!(outcome.rounds[0].verdict, Verdict::Retest);
        assert_eq!(outcome.rounds[0].samples, 1 << 13);
        assert_eq!(outcome.rounds[1].samples, 1 << 14);
        assert_eq!(outcome.total_samples(), (1 << 13) + (1 << 14));
        // Round 2 drew fresh noise, so its NF is not a copy of round 1.
        assert_ne!(outcome.rounds[0].nf_db, outcome.rounds[1].nf_db);
    }

    #[test]
    fn retest_growth_is_bitwise_identical_across_chunk_sizes() {
        // Retest escalation grows the record 4× per round while every
        // round streams through fixed-size chunks — and the screening
        // outcome (NF per round, verdicts, sample counts) is
        // bit-identical for any chunk size.
        let mut setup = BistSetup::quick(31);
        setup.samples = 1 << 13;
        setup.nfft = 1_024;
        let probe = MeasurementSession::new(setup.clone())
            .unwrap()
            .run()
            .unwrap();
        // Limit on top of the measured NF → round 1 lands in the guard
        // band and escalates.
        let screen = Screen::new(probe.nf.figure.db(), 3.0).unwrap();
        let policy = RetestPolicy::new(3, 4).unwrap();
        let plain = screen_with_retest(&screen, &setup, &policy, MeasurementSession::new).unwrap();
        let chunked = screen_with_retest(&screen, &setup, &policy, |round_setup| {
            Ok(MeasurementSession::new(round_setup)?.streaming_chunk_len(1_024))
        })
        .unwrap();
        assert_eq!(plain, chunked, "ScreeningOutcome must match bitwise");
        assert!(plain.retests() >= 1, "the probe-limit setup must escalate");
    }

    #[test]
    fn unmeasurable_dut_is_a_gross_reject_not_an_error() {
        use nfbist_analog::fault::{AnalogFault, FaultyDut};

        // An interference tone 50× the reference noise RMS swamps both
        // source states: Y collapses to ≈1 and the Y-factor equation
        // degenerates. The screen must report Fail, not abort.
        let mut setup = BistSetup::quick(5);
        setup.samples = 1 << 13;
        setup.nfft = 1_024;
        let screen = Screen::new(10.0, 3.0).unwrap();
        let outcome = screen_with_retest(&screen, &setup, &RetestPolicy::single(), |round_setup| {
            let dut = FaultyDut::new(nfbist_analog::circuits::NonInvertingAmplifier::new(
                nfbist_analog::opamp::OpampModel::op27(),
                nfbist_analog::units::Ohms::new(10_000.0),
                nfbist_analog::units::Ohms::new(100.0),
            )?)
            .with_fault(AnalogFault::InterferenceTone {
                frequency: 500.0,
                amplitude_fraction: 50.0,
            })?;
            Ok(MeasurementSession::new(round_setup)?.dut(dut))
        })
        .unwrap();
        assert_eq!(outcome.verdict, Verdict::Fail);
        assert_eq!(outcome.rounds[0].nf_db, f64::INFINITY);
    }

    #[test]
    fn recipe_matches_the_handwritten_closure_bitwise() {
        // The recipe is sugar, not new behavior: its outcome must be
        // bit-identical to the closure dance it replaces.
        let mut setup = BistSetup::quick(21);
        setup.samples = 1 << 13;
        setup.nfft = 1_024;
        let screen = Screen::new(12.0, 3.0).unwrap();
        let policy = RetestPolicy::new(2, 2).unwrap();
        let noise = AnalogFault::ExcessNoise { factor: 4.0 };
        let stuck = BitFault::StuckBits {
            period: 16,
            value: true,
        };
        let recipe = ScreeningRecipe::new()
            .analog_fault(noise)
            .unwrap()
            .bit_fault(stuck)
            .unwrap()
            .repeats(2);
        let by_recipe = recipe.screen(&screen, &setup, &policy).unwrap();
        let by_hand = screen_with_retest(&screen, &setup, &policy, |round_setup| {
            let dut = FaultyDut::new(NonInvertingAmplifier::new(
                OpampModel::tl081(),
                Ohms::new(10_000.0),
                Ohms::new(100.0),
            )?)
            .with_faults([noise])?;
            let digitizer = FaultyDigitizer::new(OneBitDigitizer::ideal()).with_faults([stuck])?;
            Ok(MeasurementSession::new(round_setup)?
                .dut(dut)
                .digitizer(digitizer)
                .repeats(2))
        })
        .unwrap();
        assert_eq!(by_recipe, by_hand);
    }

    #[test]
    fn recipe_validation_chunking_and_indexing() {
        // Out-of-domain faults are rejected at recipe-build time.
        assert!(ScreeningRecipe::new()
            .analog_fault(AnalogFault::ExcessNoise { factor: 0.5 })
            .is_err());
        assert!(ScreeningRecipe::new()
            .bit_fault(BitFault::StuckBits {
                period: 0,
                value: true,
            })
            .is_err());
        assert!(format!("{:?}", ScreeningRecipe::default()).contains("ScreeningRecipe"));

        let mut setup = BistSetup::quick(23);
        setup.samples = 1 << 13;
        setup.nfft = 1_024;
        let screen = Screen::new(12.0, 3.0).unwrap();
        let policy = RetestPolicy::single();
        let recipe = ScreeningRecipe::new().repeats(0); // clamps to 1
        let chunked = ScreeningRecipe::new().streaming_chunk(1_024);
        assert_eq!(
            recipe.screen(&screen, &setup, &policy).unwrap(),
            chunked.screen(&screen, &setup, &policy).unwrap(),
            "a chunk size must never change a screening outcome"
        );
        // Indexed screening derives the documented seed.
        let direct = {
            let mut indexed = setup.clone();
            indexed.seed = derive_seed(setup.seed, 5);
            recipe.screen(&screen, &indexed, &policy).unwrap()
        };
        assert_eq!(
            recipe.screen_indexed(&screen, &setup, &policy, 5).unwrap(),
            direct
        );
        // A custom builder is honored.
        let build: &(dyn Fn() -> Result<Box<dyn Dut>, SocError> + Send + Sync) = &|| {
            Ok(Box::new(NonInvertingAmplifier::new(
                OpampModel::op27(),
                Ohms::new(10_000.0),
                Ohms::new(100.0),
            )?))
        };
        let quiet = ScreeningRecipe::new().dut_builder(build);
        let loud = ScreeningRecipe::new();
        let q = quiet.screen(&screen, &setup, &policy).unwrap();
        let l = loud.screen(&screen, &setup, &policy).unwrap();
        assert!(
            q.rounds[0].nf_db < l.rounds[0].nf_db,
            "the OP27 build must measure quieter than the TL081 default \
             ({} vs {})",
            q.rounds[0].nf_db,
            l.rounds[0].nf_db
        );
    }

    #[test]
    fn sequential_screen_validation_and_accessors() {
        let screen = Screen::new(10.0, 3.0).unwrap();
        assert!(SequentialScreen::new(screen, 0.0, 0.05).is_err());
        assert!(SequentialScreen::new(screen, 0.5, 0.05).is_err());
        assert!(SequentialScreen::new(screen, 0.05, -0.1).is_err());
        assert!(SequentialScreen::new(screen, 0.05, 0.6).is_err());
        let seq = SequentialScreen::new(screen, 0.05, 0.01)
            .unwrap()
            .min_samples(0)
            .growth(1);
        assert_eq!(seq.min_sample_count(), 1, "min samples clamps to 1");
        assert_eq!(seq.growth_factor(), 2, "growth clamps to 2");
        assert_eq!(seq.alpha(), 0.05);
        assert_eq!(seq.beta(), 0.01);
        assert_eq!(seq.screen().limit_db(), 10.0);
    }

    #[test]
    fn degenerate_stop_rule_inputs_always_continue() {
        // Satellite invariant: broken estimates must never convert
        // into a spurious early Pass (or Fail) — they Continue, and
        // the cap fallback applies its own conventions.
        let seq = SequentialScreen::new(Screen::new(10.0, 3.0).unwrap(), 0.05, 0.05).unwrap();
        // The unmeasurable-DUT sentinel.
        assert_eq!(
            seq.decide(f64::INFINITY, 0.1, 0.2),
            SequentialDecision::Continue
        );
        assert_eq!(
            seq.decide(f64::NEG_INFINITY, 0.1, 0.2),
            SequentialDecision::Continue
        );
        assert_eq!(seq.decide(f64::NAN, 0.1, 0.2), SequentialDecision::Continue);
        // A zero-variance accumulator cannot be trusted with a stop.
        assert_eq!(seq.decide(1.0, 0.0, 0.2), SequentialDecision::Continue);
        assert_eq!(seq.decide(1.0, -0.5, 0.2), SequentialDecision::Continue);
        assert_eq!(seq.decide(1.0, f64::NAN, 0.2), SequentialDecision::Continue);
        assert_eq!(
            seq.decide(1.0, f64::INFINITY, 0.2),
            SequentialDecision::Continue
        );
        // Broken guard bands likewise.
        assert_eq!(seq.decide(1.0, 0.1, f64::NAN), SequentialDecision::Continue);
        assert_eq!(seq.decide(1.0, 0.1, -0.1), SequentialDecision::Continue);
    }

    #[test]
    fn intervals_straddling_the_guard_band_continue() {
        let seq = SequentialScreen::new(Screen::new(10.0, 3.0).unwrap(), 0.05, 0.05).unwrap();
        let guard = 0.5;
        // Just under the pass threshold but with an interval reaching
        // into the band: Continue, never Pass.
        assert_eq!(seq.decide(9.4, 0.5, guard), SequentialDecision::Continue);
        // At or below the limit, no σ can stop the test: Pass is
        // blocked by the guard band, Fail by the limit itself.
        for sigma in [1e-6, 0.01, 0.1, 1.0, 10.0] {
            for nf in [9.51, 9.9, 10.0] {
                assert_eq!(
                    seq.decide(nf, sigma, guard),
                    SequentialDecision::Continue,
                    "nf {nf}, sigma {sigma}"
                );
            }
        }
        // Above the limit with the interval still reaching below it:
        // Continue, the evidence is not confident yet.
        for (nf, sigma) in [(10.1, 0.1), (10.49, 0.5), (12.0, 2.0)] {
            assert_eq!(
                seq.decide(nf, sigma, guard),
                SequentialDecision::Continue,
                "nf {nf}, sigma {sigma}"
            );
        }
        // The rule is asymmetric: a confident estimate above the limit
        // fails even inside the guard band (the fixed schedule would
        // only ever send such a DUT to retest purgatory) …
        assert_eq!(seq.decide(10.49, 0.01, guard), SequentialDecision::Fail);
        // … but any NF at or above limit − guard can never Pass, for
        // any positive σ — the "no spurious Pass" half of the
        // invariant is absolute.
        for sigma in [1e-9, 0.3, 5.0] {
            for nf in [9.5, 10.0, 12.0, 50.0] {
                assert_ne!(
                    seq.decide(nf, sigma, guard),
                    SequentialDecision::Pass,
                    "nf {nf}, sigma {sigma}"
                );
            }
        }
        // Tight intervals clear of the band do stop.
        assert_eq!(seq.decide(8.0, 0.05, guard), SequentialDecision::Pass);
        assert_eq!(seq.decide(12.0, 0.05, guard), SequentialDecision::Fail);
    }

    #[test]
    fn clear_duts_stop_early_and_match_a_short_fixed_run() {
        // The healthy TL081 prototype against a generous limit stops
        // as soon as a Pass is confirmed by two consecutive measurable
        // checkpoints — the second one, by construction — and its
        // reported NF is bit-identical to the fixed (batch)
        // measurement of that record length.
        let mut setup = BistSetup::quick(13);
        setup.samples = 1 << 14;
        setup.nfft = 1_024;
        let seq = SequentialScreen::new(Screen::new(18.0, 3.0).unwrap(), 0.05, 0.05)
            .unwrap()
            .min_samples(1 << 12);
        let recipe = ScreeningRecipe::new();
        let outcome = recipe.screen_sequential(&seq, &setup).unwrap();
        assert_eq!(outcome.verdict, Verdict::Pass);
        assert!(outcome.stopped_early);
        assert_eq!(outcome.samples, 1 << 13);
        assert_eq!(outcome.checkpoints, 2);
        assert_eq!(outcome.total_samples(), 1 << 13);
        let mut short = setup.clone();
        short.samples = outcome.samples;
        let batch = recipe.session(short).unwrap().run().unwrap();
        assert_eq!(outcome.nf_db.to_bits(), batch.nf.figure.db().to_bits());

        // A gross fault (excess noise burying the reference line, so
        // the interim estimate is unmeasurable) is confirmed across
        // two consecutive checkpoints and rejected early.
        let noisy = ScreeningRecipe::new()
            .analog_fault(AnalogFault::ExcessNoise { factor: 8.0 })
            .unwrap();
        let bad = noisy.screen_sequential(&seq, &setup).unwrap();
        assert_eq!(bad.verdict, Verdict::Fail);
        assert_eq!(bad.nf_db, f64::INFINITY);
        assert!(bad.stopped_early);
        assert_eq!(bad.samples, 1 << 13, "second checkpoint of 2·min");
        assert_eq!(bad.checkpoints, 2);
    }

    #[test]
    fn on_limit_dut_runs_to_the_cap_and_takes_the_fixed_verdict() {
        let mut setup = BistSetup::quick(31);
        setup.samples = 1 << 13;
        setup.nfft = 1_024;
        let probe = MeasurementSession::new(setup.clone())
            .unwrap()
            .run()
            .unwrap();
        // Limit exactly on the measured NF: the interval always
        // straddles, so the screen must run to the cap and fall back
        // to the fixed-schedule verdict for the full record.
        let screen = Screen::new(probe.nf.figure.db(), 3.0).unwrap();
        let seq = SequentialScreen::new(screen, 0.05, 0.05)
            .unwrap()
            .min_samples(1 << 11);
        let outcome = screen_sequential(&seq, &setup, MeasurementSession::new).unwrap();
        assert!(!outcome.stopped_early);
        assert_eq!(outcome.samples, 1 << 13);
        // min 2048 (nfft-clamped) → 4096 → 8192: three checkpoints.
        assert_eq!(outcome.checkpoints, 3);
        let fixed = screen_with_retest(
            &screen,
            &setup,
            &RetestPolicy::single(),
            MeasurementSession::new,
        )
        .unwrap();
        assert_eq!(outcome.verdict, fixed.verdict);
        assert_eq!(outcome.nf_db.to_bits(), fixed.rounds[0].nf_db.to_bits());
    }

    #[test]
    fn sequential_outcome_is_invariant_under_chunking() {
        let mut setup = BistSetup::quick(43);
        setup.samples = 1 << 14;
        setup.nfft = 1_024;
        let seq = SequentialScreen::new(Screen::new(10.0, 3.0).unwrap(), 0.05, 0.05)
            .unwrap()
            .min_samples(1 << 12);
        let recipe = ScreeningRecipe::new().repeats(2);
        let reference = recipe.screen_sequential_indexed(&seq, &setup, 3).unwrap();
        for chunk in [1_000usize, 1_025, 7_777] {
            let varied = ScreeningRecipe::new().repeats(2).streaming_chunk(chunk);
            let outcome = varied.screen_sequential_indexed(&seq, &setup, 3).unwrap();
            assert_eq!(outcome.verdict, reference.verdict);
            assert_eq!(outcome.samples, reference.samples);
            assert_eq!(outcome.checkpoints, reference.checkpoints);
            assert_eq!(
                outcome.nf_db.to_bits(),
                reference.nf_db.to_bits(),
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn unmeasurable_dut_is_a_gross_sequential_reject() {
        let mut setup = BistSetup::quick(5);
        setup.samples = 1 << 13;
        setup.nfft = 1_024;
        let seq = SequentialScreen::new(Screen::new(10.0, 3.0).unwrap(), 0.05, 0.05).unwrap();
        let recipe = ScreeningRecipe::new()
            .analog_fault(AnalogFault::InterferenceTone {
                frequency: 500.0,
                amplitude_fraction: 50.0,
            })
            .unwrap();
        let outcome = recipe.screen_sequential(&seq, &setup).unwrap();
        assert_eq!(outcome.verdict, Verdict::Fail);
        assert_eq!(outcome.nf_db, f64::INFINITY);
        // With only one checkpoint below the cap the two-checkpoint
        // gross-reject confirmation cannot fire: the degenerate
        // estimate rides Continue to the cap, where the flushed
        // unmeasurable estimate takes the fixed-schedule convention.
        assert!(!outcome.stopped_early);
    }

    #[test]
    fn checkpoint_probe_fires_once_per_checkpoint() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let mut setup = BistSetup::quick(31);
        setup.samples = 1 << 13;
        setup.nfft = 1_024;
        let probe_run = MeasurementSession::new(setup.clone())
            .unwrap()
            .run()
            .unwrap();
        let screen = Screen::new(probe_run.nf.figure.db(), 3.0).unwrap();
        let seq = SequentialScreen::new(screen, 0.05, 0.05)
            .unwrap()
            .min_samples(1 << 11);
        let seen = AtomicUsize::new(0);
        let probe: CheckpointProbe<'_> = &|checkpoint| {
            assert_eq!(checkpoint, seen.fetch_add(1, Ordering::SeqCst));
        };
        let outcome = ScreeningRecipe::new()
            .screen_sequential_indexed_probed(&seq, &setup, 0, probe)
            .unwrap_or_else(|e| panic!("probed screen failed: {e:?}"));
        assert_eq!(seen.load(Ordering::SeqCst), outcome.checkpoints);
    }

    #[test]
    fn guard_band_scales_with_the_sigma_multiple_and_one_over_root_n() {
        let m = measurement(9.0);
        let three = Screen::new(10.0, 3.0).unwrap();
        let six = Screen::new(10.0, 6.0).unwrap();
        for n in [1_000usize, 40_000, 1_000_000] {
            let g = three.guard_db(&m, n).unwrap();
            assert!(g > 0.0 && g.is_finite());
            assert!((six.guard_db(&m, n).unwrap() - 2.0 * g).abs() <= 1e-12 * g);
            // Four times the samples halves the guard band.
            assert!((three.guard_db(&m, 4 * n).unwrap() - g / 2.0).abs() <= 1e-12 * g);
        }
    }

    #[test]
    fn a_decisive_verdict_survives_every_longer_record() {
        // The guard band only narrows as records grow, so once a DUT
        // leaves the retest band it never returns to it — the premise
        // of both retest escalation and the resolution search.
        let screen = Screen::new(10.0, 3.0).unwrap();
        for tenth in 80..=120 {
            let m = measurement(f64::from(tenth) / 10.0);
            let mut settled: Option<Verdict> = None;
            for k in 0..14 {
                let verdict = screen.judge(&m, 1_000 << k).unwrap();
                match settled {
                    Some(v) => assert_eq!(verdict, v, "nf {} at 1000·2^{k}", tenth),
                    None if verdict != Verdict::Retest => settled = Some(verdict),
                    None => {}
                }
            }
            // The search reports the first decisive doubling.
            let found = screen.record_length_to_resolve(&m, 1_000 << 13).unwrap();
            if let Some(n) = found {
                assert_eq!(screen.judge(&m, n).unwrap(), settled.unwrap());
                if n > 1_000 {
                    assert_eq!(screen.judge(&m, n / 2).unwrap(), Verdict::Retest);
                }
            } else {
                assert_eq!(settled, None);
            }
        }
    }

    #[test]
    fn sequential_decisions_order_with_the_estimate_and_firm_up_with_sigma() {
        let seq = SequentialScreen::new(Screen::new(10.0, 3.0).unwrap(), 0.05, 0.1).unwrap();
        let rank = |d: SequentialDecision| match d {
            SequentialDecision::Pass => 0,
            SequentialDecision::Continue => 1,
            SequentialDecision::Fail => 2,
        };
        for guard in [0.0, 0.3, 1.0] {
            for sigma in [0.01, 0.1, 0.5, 2.0] {
                // Rising NF moves Pass → Continue → Fail, never back.
                let ranks: Vec<u8> = (0..=400)
                    .map(|i| rank(seq.decide(f64::from(i) * 0.05, sigma, guard)))
                    .collect();
                assert!(
                    ranks.windows(2).all(|w| w[0] <= w[1]),
                    "sigma {sigma}, guard {guard}"
                );
                // A tighter interval keeps every decisive answer.
                for i in 0..=400 {
                    let nf = f64::from(i) * 0.05;
                    let loose = seq.decide(nf, sigma, guard);
                    if loose != SequentialDecision::Continue {
                        assert_eq!(seq.decide(nf, sigma / 2.0, guard), loose, "nf {nf}");
                    }
                }
            }
        }
    }

    #[test]
    fn outcomes_bill_every_round() {
        let round = |samples, verdict| RetestRound {
            samples,
            nf_db: 9.0,
            verdict,
        };
        let escalated = ScreeningOutcome {
            verdict: Verdict::Pass,
            rounds: vec![
                round(1 << 13, Verdict::Retest),
                round(1 << 14, Verdict::Retest),
                round(1 << 15, Verdict::Pass),
            ],
        };
        assert_eq!(escalated.retests(), 2);
        assert_eq!(escalated.total_samples(), 7 << 13);
        let single = ScreeningOutcome {
            verdict: Verdict::Retest,
            rounds: vec![round(1 << 13, Verdict::Retest)],
        };
        assert_eq!((single.retests(), single.total_samples()), (0, 1 << 13));
        let stopped = SequentialOutcome {
            verdict: Verdict::Pass,
            nf_db: 9.0,
            samples: 1 << 12,
            checkpoints: 1,
            stopped_early: true,
        };
        assert_eq!(stopped.total_samples(), 1 << 12);
    }

    #[test]
    fn resolution_search_finds_a_length() {
        let screen = Screen::new(10.0, 3.0).unwrap();
        let m = measurement(9.7);
        let n = screen
            .record_length_to_resolve(&m, 1 << 30)
            .unwrap()
            .expect("0.3 dB margin is resolvable");
        // And the verdict at that length is indeed decisive.
        assert_ne!(screen.judge(&m, n).unwrap(), Verdict::Retest);
        // A DUT on the limit never resolves within the cap.
        let on_limit = measurement(10.0);
        assert_eq!(
            screen.record_length_to_resolve(&on_limit, 1 << 22).unwrap(),
            None
        );
    }
}
