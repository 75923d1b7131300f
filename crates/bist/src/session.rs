//! The generic measurement session: one acquisition/estimation path for
//! every combination of circuit, acquisition front-end and power-ratio
//! estimator.
//!
//! This is the crate's central abstraction. The paper's comparison —
//! the proposed 1-bit comparator BIST (Fig. 11) versus the conventional
//! ADC + analog-mux Y-factor bench (Fig. 4), evaluated with the three
//! power-ratio estimators of Table 2 — becomes an axis-by-axis swap:
//!
//! * [`Dut`] — *what* is measured: any circuit in `nfbist-analog`
//!   (non-inverting or inverting amplifier, attenuator/amplifier
//!   chains, whole cascades).
//! * [`Digitizer`] — *how* the signal is captured: the 1-bit comparator
//!   cell or an N-bit ADC behind a mux.
//! * [`PowerRatioEstimator`] — *how* the Y factor is formed: mean
//!   square, PSD band power, or the reference-normalized 1-bit
//!   estimator.
//!
//! A session always runs the same flow per acquisition: calibrated
//! hot/cold source → DUT (adding its own synthesized noise) →
//! front-end conditioning gain → digitizer → estimator → Y-factor
//! equations, with optional repeated acquisitions for averaging. The
//! flow is one chunked acquisition chain per source state, which
//! streams a fixed-size chunk at a time into the estimator's
//! accumulator, so no record is ever held whole.

use crate::resources::{digitizer_usage, ResourceUsage};
use crate::setup::BistSetup;
use crate::SocError;
use nfbist_analog::circuits::NonInvertingAmplifier;
use nfbist_analog::converter::{CaptureStream, Digitizer, OneBitDigitizer, Record};
use nfbist_analog::dut::{Dut, DutStream};
use nfbist_analog::noise::WhiteNoise;
use nfbist_analog::noise::{CalibratedNoiseSource, NoiseSourceState};
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::source::{SineSource, Waveform};
use nfbist_analog::units::Kelvin;
use nfbist_core::estimator::NfMeasurement;
use nfbist_core::power_ratio::{
    OneBitPowerRatio, OneBitRatioEstimate, PowerRatioEstimator, RatioEstimate,
};
use nfbist_core::streaming::{EstimatorWindow, RatioAccumulator};

/// The golden-ratio stride a session uses to derive per-repeat seeds
/// (`setup.seed + repeat·stride`, wrapping). Exported so batch-level
/// fan-out (`nfbist-runtime`) can derive per-trial/per-cell seeds with
/// the exact same scheme.
pub const REPEAT_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the seed for batch element `index` from a base seed: a
/// golden-ratio walk followed by the SplitMix64 finalizer.
///
/// The finalizer matters: sessions derive *repeat* seeds as the plain
/// arithmetic walk `seed + repeat·φ⁶⁴`, so if batch elements (Monte
/// Carlo trials, coverage cells) used the same walk, element `t+1`
/// repeat `0` would draw bit-identical noise to element `t` repeat `1`
/// and a batch with `repeats > 1` would silently understate its
/// element-to-element spread. Mixing the walk through a bijective hash
/// keeps the derivation deterministic and collision-free while
/// decorrelating it from the repeat walk.
///
/// This is the one canonical derivation; `nfbist-runtime` re-exports
/// it for trial fan-out and the coverage campaign uses it per cell.
///
/// # Examples
///
/// ```
/// use nfbist_soc::session::derive_seed;
///
/// // Deterministic, and distinct per index.
/// assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
/// assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
/// ```
pub fn derive_seed(base: u64, index: u64) -> u64 {
    // SplitMix64 output function over the walked state (a bijection on
    // u64, so distinct (base, index) walks stay distinct).
    let mut z = base.wrapping_add(index.wrapping_add(1).wrapping_mul(REPEAT_SEED_STRIDE));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome of one repeated acquisition within a session run.
#[derive(Debug, Clone)]
pub struct RepeatMeasurement {
    /// Noise figure derived from this repeat's Y ratio, or `None` when
    /// this repeat alone was degenerate (estimated Y ≤ 1) — its ratio
    /// still contributes to the run's mean Y.
    pub nf: Option<NfMeasurement>,
    /// The estimator's full report for this repeat.
    pub ratio: RatioEstimate,
}

impl RepeatMeasurement {
    /// Wraps one repeat's ratio with its noise figure. A single noisy
    /// repeat may estimate Y ≤ 1 (degenerate on its own) yet still
    /// contribute to a valid mean, so the per-repeat NF is optional
    /// rather than an abort.
    fn new(ratio: RatioEstimate, hot_kelvin: f64, cold_kelvin: f64) -> Self {
        let nf = NfMeasurement::from_y(ratio.ratio, hot_kelvin, cold_kelvin).ok();
        RepeatMeasurement { nf, ratio }
    }
}

/// The unified measurement report a [`MeasurementSession`] returns.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Noise figure from the mean Y ratio across repeats.
    pub nf: NfMeasurement,
    /// Analytic expectation from the DUT's noise model over the
    /// measurement band (Table 3's "Expected" column).
    pub expected_nf_db: f64,
    /// Sample standard deviation of the per-repeat NF in dB (0 for a
    /// single acquisition).
    pub nf_spread_db: f64,
    /// Reference amplitude at the digitizer input, in volts (0 when the
    /// front-end uses no reference).
    pub reference_amplitude: f64,
    /// Resource accounting for the whole run (records sized per
    /// acquisition; compute scaled by the repeat count).
    pub usage: ResourceUsage,
    /// Per-repeat outcomes, in acquisition order.
    pub repeats: Vec<RepeatMeasurement>,
    /// The DUT description.
    pub dut: String,
    /// The acquisition front-end description.
    pub digitizer: String,
    /// The estimator description.
    pub estimator: String,
}

impl Measurement {
    /// The 1-bit estimator intermediates of the first repeat (spectra,
    /// reference lines, normalization), when the session used the 1-bit
    /// estimator.
    pub fn one_bit_detail(&self) -> Option<&OneBitRatioEstimate> {
        self.repeats.first().and_then(|r| r.ratio.one_bit())
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} / {}]: measured {} (expected {:.2} dB, spread {:.3} dB, {} repeat{})",
            self.dut,
            self.digitizer,
            self.estimator,
            self.nf,
            self.expected_nf_db,
            self.nf_spread_db,
            self.repeats.len(),
            if self.repeats.len() == 1 { "" } else { "s" },
        )
    }
}

/// Builder and runner for a complete Y-factor noise-figure measurement.
///
/// Defaults reproduce the paper's prototype bench: the OP27
/// non-inverting amplifier DUT, the 1-bit comparator cell, the 1-bit
/// reference-normalized estimator, one acquisition pair.
///
/// # Examples
///
/// ```no_run
/// use nfbist_analog::circuits::NonInvertingAmplifier;
/// use nfbist_analog::opamp::OpampModel;
/// use nfbist_analog::units::Ohms;
/// use nfbist_soc::session::MeasurementSession;
/// use nfbist_soc::setup::BistSetup;
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// let dut = NonInvertingAmplifier::new(
///     OpampModel::tl081(),
///     Ohms::new(10_000.0),
///     Ohms::new(100.0),
/// )?;
/// let m = MeasurementSession::new(BistSetup::paper_prototype(42))?
///     .dut(dut)
///     .repeats(4)
///     .run()?;
/// println!("expected {:.2} dB, measured {:.2} dB", m.expected_nf_db, m.nf.figure.db());
/// # Ok(())
/// # }
/// ```
///
/// Swapping the acquisition axis turns the same session into the
/// conventional Fig. 4 bench:
///
/// ```no_run
/// use nfbist_analog::converter::AdcDigitizer;
/// use nfbist_core::power_ratio::PsdRatioEstimator;
/// use nfbist_soc::session::MeasurementSession;
/// use nfbist_soc::setup::BistSetup;
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// let setup = BistSetup::quick(7);
/// let m = MeasurementSession::new(setup.clone())?
///     .digitizer(AdcDigitizer::new(12)?)
///     .estimator(PsdRatioEstimator::new(
///         setup.sample_rate,
///         setup.nfft,
///         setup.noise_band,
///     )?)
///     .run()?;
/// println!("{m}");
/// # Ok(())
/// # }
/// ```
pub struct MeasurementSession {
    setup: BistSetup,
    dut: Box<dyn Dut>,
    digitizer: Box<dyn Digitizer>,
    estimator: Box<dyn PowerRatioEstimator>,
    repeats: usize,
    streaming_chunk: Option<usize>,
}

impl std::fmt::Debug for MeasurementSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeasurementSession")
            .field("setup", &self.setup)
            .field("dut", &self.dut.label())
            .field("digitizer", &self.digitizer.label())
            .field("estimator", &self.estimator.label())
            .field("repeats", &self.repeats)
            .field("streaming_chunk", &self.streaming_chunk)
            .finish()
    }
}

/// The chunk length, in samples, every acquisition chain streams at
/// unless [`MeasurementSession::streaming_chunk_len`] overrides it. A
/// chain's per-chunk buffers then stay at a few tens of KiB for any
/// record length, and the per-chunk overhead is negligible.
const STREAMING_CHUNK_SAMPLES: usize = 4_096;

impl MeasurementSession {
    /// Starts a session from a validated setup, with the paper's
    /// default DUT (OP27 non-inverting, Av = 101), the 1-bit comparator
    /// cell, and the setup-matched 1-bit estimator.
    ///
    /// # Errors
    ///
    /// Propagates [`BistSetup::validate`] failures and default
    /// component construction errors.
    pub fn new(setup: BistSetup) -> Result<Self, SocError> {
        setup.validate()?;
        let estimator = OneBitPowerRatio::new(
            setup.sample_rate,
            setup.nfft,
            setup.reference_frequency,
            setup.noise_band,
        )?;
        let dut = NonInvertingAmplifier::new(
            OpampModel::op27(),
            nfbist_analog::units::Ohms::new(10_000.0),
            nfbist_analog::units::Ohms::new(100.0),
        )?;
        Ok(MeasurementSession {
            setup,
            dut: Box::new(dut),
            digitizer: Box::new(OneBitDigitizer::ideal()),
            estimator: Box::new(estimator),
            repeats: 1,
            streaming_chunk: None,
        })
    }

    /// Selects the device under test.
    pub fn dut(mut self, dut: impl Dut + 'static) -> Self {
        self.dut = Box::new(dut);
        self
    }

    /// Selects the acquisition front-end.
    ///
    /// Note: the default estimator is the 1-bit reference-normalized
    /// one; when switching to a scale-preserving front-end such as
    /// `AdcDigitizer`, also select a matching estimator
    /// (`PsdRatioEstimator` or `MeanSquareEstimator`).
    pub fn digitizer(mut self, digitizer: impl Digitizer + 'static) -> Self {
        self.digitizer = Box::new(digitizer);
        self
    }

    /// Selects the power-ratio estimator.
    pub fn estimator(mut self, estimator: impl PowerRatioEstimator + 'static) -> Self {
        self.estimator = Box::new(estimator);
        self
    }

    /// Sets the number of repeated hot/cold acquisition pairs whose Y
    /// ratios are averaged (values below 1 are clamped to 1). Each
    /// repeat uses an independent seed derived from the setup seed.
    pub fn repeats(mut self, n: usize) -> Self {
        self.repeats = n.max(1);
        self
    }

    /// Overrides the chunk length (in samples) the acquisition chains
    /// stream at — chiefly a test hook for proving chunk-size
    /// invariance; values are clamped to `[1, samples]`.
    pub fn streaming_chunk_len(mut self, samples: usize) -> Self {
        self.streaming_chunk = Some(samples);
        self
    }

    /// The chunk length (in samples) the acquisition chains use: the
    /// [`MeasurementSession::streaming_chunk_len`] override when set,
    /// otherwise 4 096, clamped to `[1, samples]`.
    pub fn streaming_chunk_samples(&self) -> usize {
        self.streaming_chunk
            .unwrap_or(STREAMING_CHUNK_SAMPLES)
            .clamp(1, self.setup.samples.max(1))
    }

    /// The setup.
    pub fn setup(&self) -> &BistSetup {
        &self.setup
    }

    /// The selected DUT.
    pub fn dut_ref(&self) -> &dyn Dut {
        &*self.dut
    }

    /// The selected front-end.
    pub fn digitizer_ref(&self) -> &dyn Digitizer {
        &*self.digitizer
    }

    /// The selected estimator.
    pub fn estimator_ref(&self) -> &dyn PowerRatioEstimator {
        &*self.estimator
    }

    /// The configured repeat count.
    pub fn repeat_count(&self) -> usize {
        self.repeats
    }

    /// Seed for a given repeat index (repeat 0 is the setup seed).
    fn repeat_seed(&self, repeat: usize) -> u64 {
        self.setup
            .seed
            .wrapping_add((repeat as u64).wrapping_mul(REPEAT_SEED_STRIDE))
    }

    fn source(&self, repeat: usize) -> Result<CalibratedNoiseSource, SocError> {
        let mut src = CalibratedNoiseSource::new(
            Kelvin::new(self.setup.hot_kelvin),
            Kelvin::new(self.setup.cold_kelvin),
            self.setup.source_resistance,
            self.repeat_seed(repeat) ^ 0xA5A5_A5A5,
        )?;
        if self.setup.hot_calibration_error != 0.0 {
            src.set_hot_error(self.setup.hot_calibration_error)?;
        }
        Ok(src)
    }

    /// Analytic noise RMS at the DUT output for a source state (the
    /// calibration a real BIST would do with a short trial
    /// acquisition).
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn dut_output_rms(&self, state: NoiseSourceState) -> Result<f64, SocError> {
        let src = self.source(0)?;
        let nyquist = self.setup.sample_rate / 2.0;
        let source_density = src.voltage_density(state);
        let added =
            self.dut
                .mean_added_noise_density_sq(self.setup.source_resistance, 1.0, nyquist)?;
        let input_power = (source_density + added) * nyquist;
        Ok(self.dut.gain() * input_power.sqrt())
    }

    /// The conditioning gain between the DUT output and the digitizer,
    /// chosen by the front-end (the bench post-amplifier for the 1-bit
    /// cell; a range-fitting gain for an ADC).
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn frontend_gain(&self) -> Result<f64, SocError> {
        let hot_rms = self.dut_output_rms(NoiseSourceState::Hot)?;
        Ok(self
            .digitizer
            .frontend_gain(hot_rms, self.setup.post_gain)?)
    }

    /// Analytic noise RMS at the digitizer input for a source state.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn digitizer_noise_rms(&self, state: NoiseSourceState) -> Result<f64, SocError> {
        Ok(self.frontend_gain()? * self.dut_output_rms(state)?)
    }

    /// The reference amplitude the session will use: the configured
    /// fraction of the **cold** digitizer-input noise RMS (so the hot
    /// state, with more noise, sees a smaller relative reference — both
    /// states stay inside Fig. 10's valid region for realistic Y).
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn reference_amplitude(&self) -> Result<f64, SocError> {
        Ok(self.setup.reference_fraction * self.digitizer_noise_rms(NoiseSourceState::Cold)?)
    }

    /// The reference waveform of a materialized acquisition (all zeros
    /// when the front-end uses no reference).
    fn reference_waveform(&self) -> Result<Vec<f64>, SocError> {
        if self.digitizer.uses_reference() {
            Ok(
                SineSource::new(self.setup.reference_frequency, self.reference_amplitude()?)?
                    .generate(self.setup.samples, self.setup.sample_rate)?,
            )
        } else {
            Ok(vec![0.0; self.setup.samples])
        }
    }

    /// The seeded noise source and the DUT noise seed of one source
    /// state in one repeat — the one derivation both the acquisition
    /// chain and [`MeasurementSession::acquire`] use.
    fn state_source(
        &self,
        state: NoiseSourceState,
        repeat: usize,
    ) -> Result<(CalibratedNoiseSource, u64), SocError> {
        let mut src = self.source(repeat)?;
        // Distinct noise records per state: the source stream advances
        // one sample for the cold state, and the DUT noise seed is
        // salted by the state.
        let state_salt = match state {
            NoiseSourceState::Hot => 1u64,
            NoiseSourceState::Cold => 2u64,
        };
        if state == NoiseSourceState::Cold {
            let _ = src.generate(state, 1, self.setup.sample_rate)?;
        }
        let dut_seed = self
            .repeat_seed(repeat)
            .wrapping_add(state_salt)
            .wrapping_mul(0x9E37);
        Ok((src, dut_seed))
    }

    /// Runs one whole-record acquisition for repeat index `repeat`:
    /// source noise → DUT → front-end conditioning → digitizer (against
    /// the reference sine when the front-end uses one), each stage over
    /// the materialized record. The record holds exactly the samples
    /// [`MeasurementSession::run`] streams through its chain for the
    /// same state and repeat, which makes it the reference the chain
    /// is tested against.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn acquire(&self, state: NoiseSourceState, repeat: usize) -> Result<Record, SocError> {
        let (gain, reference) = self.conditioning()?;
        let fs = self.setup.sample_rate;
        let (mut src, dut_seed) = self.state_source(state, repeat)?;
        let source_noise = src.generate(state, self.setup.samples, fs)?;
        let dut_out =
            self.dut
                .process(&source_noise, self.setup.source_resistance, fs, dut_seed)?;
        let conditioned: Vec<f64> = dut_out.iter().map(|v| v * gain).collect();
        Ok(self.digitizer.acquire(&conditioned, &reference)?)
    }

    /// The run-invariant conditioning of a materialized acquisition:
    /// the front-end gain and the whole-record reference waveform.
    /// [`MeasurementSession::run`] needs only the gain, since its
    /// chains synthesize reference chunks on the fly.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn conditioning(&self) -> Result<(f64, Vec<f64>), SocError> {
        Ok((self.frontend_gain()?, self.reference_waveform()?))
    }

    /// Runs one complete repeat: the hot record streams through its
    /// acquisition chain into the estimator's cumulative accumulator,
    /// the chain is dropped, and the cold record streams through a
    /// chain of its own into the same accumulator, which then forms
    /// the ratio. Only one state's chain is alive at a time.
    ///
    /// `gain` is the run-invariant front-end gain
    /// ([`MeasurementSession::frontend_gain`]), hoisted out so a batch
    /// computes it once. Each repeat is fully determined by
    /// `(setup seed, repeat index)`, which is what makes fan-out across
    /// worker threads bit-identical to the sequential loop.
    ///
    /// # Errors
    ///
    /// Propagates acquisition and estimation errors.
    pub fn measure_repeat(&self, repeat: usize, gain: f64) -> Result<RepeatMeasurement, SocError> {
        let mut acc = self.estimator.begin(EstimatorWindow::Cumulative)?;
        let chunk = self.streaming_chunk_samples();
        for state in [NoiseSourceState::Hot, NoiseSourceState::Cold] {
            let mut chain = self.begin_state_chain(state, repeat, gain)?;
            let mut sink = |s: &[f64]| match state {
                NoiseSourceState::Hot => acc.push_hot(s),
                NoiseSourceState::Cold => acc.push_cold(s),
            };
            chain.advance_to(self.setup.samples, chunk, &mut sink)?;
            chain.finish(&mut sink)?;
        }
        Ok(RepeatMeasurement::new(
            acc.finish()?,
            self.setup.hot_kelvin,
            self.setup.cold_kelvin,
        ))
    }

    /// Opens a **resumable** repeat: both source-state acquisition
    /// chains plus the estimator's cumulative accumulator
    /// ([`EstimatorWindow::Cumulative`]), positioned at sample zero.
    /// The caller advances it checkpoint by checkpoint
    /// ([`SequentialRepeat::advance_to`]), consults interim estimates
    /// ([`SequentialRepeat::snapshot`]) and closes it whenever the
    /// decision is made ([`SequentialRepeat::finish`]) — the machinery
    /// a sequential (early-stopping) screen is built on.
    ///
    /// `gain` is the run-invariant front-end gain
    /// ([`MeasurementSession::frontend_gain`]), hoisted out so a screen
    /// can open many repeats without recomputing it.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn begin_sequential(
        &self,
        repeat: usize,
        gain: f64,
    ) -> Result<SequentialRepeat<'_>, SocError> {
        let acc = self.estimator.begin(EstimatorWindow::Cumulative)?;
        Ok(SequentialRepeat {
            hot: self.begin_state_chain(NoiseSourceState::Hot, repeat, gain)?,
            cold: self.begin_state_chain(NoiseSourceState::Cold, repeat, gain)?,
            acc,
            chunk_len: self.streaming_chunk_samples(),
            cap: self.setup.samples,
            hot_kelvin: self.setup.hot_kelvin,
            cold_kelvin: self.setup.cold_kelvin,
        })
    }

    /// Opens one source-state acquisition chain at sample zero, seeded
    /// as [`MeasurementSession::acquire`] seeds the same state and
    /// repeat, so the samples the chain emits match that record
    /// bitwise — for any chunking and any stopping point.
    pub(crate) fn begin_state_chain(
        &self,
        state: NoiseSourceState,
        repeat: usize,
        gain: f64,
    ) -> Result<StateChain<'_>, SocError> {
        let fs = self.setup.sample_rate;
        let (mut src, dut_seed) = self.state_source(state, repeat)?;
        let source_stream = src.stream(state, fs)?;
        let dut_stream = self
            .dut
            .process_stream(self.setup.source_resistance, fs, dut_seed)?;
        let capture = self.digitizer.begin_capture();
        let reference = if self.digitizer.uses_reference() {
            Some(SineSource::new(
                self.setup.reference_frequency,
                self.reference_amplitude()?,
            )?)
        } else {
            None
        };
        Ok(StateChain {
            sample_rate: fs,
            gain,
            source_stream,
            dut_stream,
            capture,
            reference,
            dut_out: Vec::new(),
            captured: Vec::new(),
            zeros: Vec::new(),
            produced: 0,
            emitted: 0,
        })
    }

    /// Assembles the final [`Measurement`] from per-repeat outcomes (in
    /// acquisition order): Y-factor on the mean ratio, NF spread,
    /// analytic expectation, and resource accounting scaled by the
    /// repeat count (saturating, so enormous batch configurations
    /// cannot overflow in release builds).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for an empty repeat list
    /// and propagates Y-factor/model errors.
    pub fn combine(&self, repeats: Vec<RepeatMeasurement>) -> Result<Measurement, SocError> {
        if repeats.is_empty() {
            return Err(SocError::InvalidParameter {
                name: "repeats",
                reason: "at least one repeat measurement is required",
            });
        }
        let y_sum: f64 = repeats.iter().map(|r| r.ratio.ratio).sum();
        let mean_y = y_sum / repeats.len() as f64;
        let nf = NfMeasurement::from_y(mean_y, self.setup.hot_kelvin, self.setup.cold_kelvin)?;
        let dbs: Vec<f64> = repeats
            .iter()
            .filter_map(|r| r.nf.map(|nf| nf.figure.db()))
            .collect();
        let nf_spread_db = if dbs.len() > 1 {
            nfbist_dsp::stats::sample_variance(&dbs)?.sqrt()
        } else {
            0.0
        };

        let expected_nf_db = self.dut.expected_noise_figure_db(
            self.setup.source_resistance,
            self.setup.noise_band.0,
            self.setup.noise_band.1,
        )?;

        let mut usage = digitizer_usage(
            self.setup.samples,
            self.setup.nfft,
            self.digitizer.bits_per_sample(),
        );
        usage.fft_count = usage.fft_count.saturating_mul(repeats.len());
        usage.estimated_flops = usage.estimated_flops.saturating_mul(repeats.len() as u64);

        let reference_amplitude = if self.digitizer.uses_reference() {
            self.reference_amplitude()?
        } else {
            0.0
        };

        Ok(Measurement {
            nf,
            expected_nf_db,
            nf_spread_db,
            reference_amplitude,
            usage,
            repeats,
            dut: self.dut.label(),
            digitizer: self.digitizer.label(),
            estimator: self.estimator.label(),
        })
    }

    /// Runs the complete measurement: `repeats` hot/cold acquisition
    /// pairs, the selected estimator on each, the Y-factor equation on
    /// the mean ratio, the analytic expectation, and resource
    /// accounting.
    ///
    /// The body is exactly [`MeasurementSession::frontend_gain`] → a
    /// sequential loop of [`MeasurementSession::measure_repeat`] →
    /// [`MeasurementSession::combine`]; the parallel batch runner in
    /// `nfbist-runtime` replaces only the loop, so its output is
    /// bit-identical by construction.
    ///
    /// # Errors
    ///
    /// Propagates acquisition and estimation errors.
    pub fn run(&self) -> Result<Measurement, SocError> {
        let gain = self.frontend_gain()?;
        let repeats = (0..self.repeats)
            .map(|r| self.measure_repeat(r, gain))
            .collect::<Result<_, _>>()?;
        self.combine(repeats)
    }
}

/// One source state's resumable acquisition pipeline: source noise →
/// DUT → conditioning gain → digitizer, positioned at an absolute
/// sample offset. Every stage carries its own sequential state, so
/// advancing the chain in any chunking emits the exact bit pattern of
/// the whole-record [`MeasurementSession::acquire`] — and stopping at
/// offset `n` leaves every stage in the state a record of length `n`
/// would have reached.
pub(crate) struct StateChain<'a> {
    sample_rate: f64,
    gain: f64,
    source_stream: WhiteNoise,
    dut_stream: Box<dyn DutStream + 'a>,
    capture: Box<dyn CaptureStream + 'a>,
    reference: Option<SineSource>,
    dut_out: Vec<f64>,
    captured: Vec<f64>,
    zeros: Vec<f64>,
    /// Source samples fed to the DUT so far.
    produced: usize,
    /// DUT samples seen by the digitizer so far.
    emitted: usize,
}

impl StateChain<'_> {
    /// Advances the chain until `target` source samples have been
    /// produced, feeding each captured chunk of expanded estimator
    /// samples to `sink`. A no-op when the chain is already there.
    pub(crate) fn advance_to(
        &mut self,
        target: usize,
        chunk_len: usize,
        sink: &mut dyn FnMut(&[f64]) -> Result<(), nfbist_core::CoreError>,
    ) -> Result<(), SocError> {
        let chunk_len = chunk_len.max(1);
        while self.produced < target {
            let m = chunk_len.min(target - self.produced);
            let source_chunk = self.source_stream.generate(m);
            self.produced += m;
            self.dut_out.clear();
            self.dut_stream.push(&source_chunk, &mut self.dut_out)?;
            self.condition_capture(sink)?;
        }
        Ok(())
    }

    /// Closes the chain at its current offset: flushes the DUT stream's
    /// tail and the digitizer's held-back samples into `sink`. After
    /// this the sink has received exactly the expanded record a
    /// whole-record acquisition of `self.produced` samples produces.
    fn finish(
        &mut self,
        sink: &mut dyn FnMut(&[f64]) -> Result<(), nfbist_core::CoreError>,
    ) -> Result<(), SocError> {
        self.dut_out.clear();
        self.dut_stream.finish(&mut self.dut_out)?;
        self.condition_capture(sink)?;
        debug_assert_eq!(
            self.emitted, self.produced,
            "every source sample must reach the digitizer"
        );
        self.captured.clear();
        self.capture.finish(&mut self.captured)?;
        sink(&self.captured)?;
        Ok(())
    }

    /// Conditions the pending DUT output chunk, digitizes it against
    /// the matching reference chunk (synthesized from the absolute
    /// sample offset) and forwards the captured samples to `sink`.
    fn condition_capture(
        &mut self,
        sink: &mut dyn FnMut(&[f64]) -> Result<(), nfbist_core::CoreError>,
    ) -> Result<(), SocError> {
        if self.dut_out.is_empty() {
            return Ok(());
        }
        for v in self.dut_out.iter_mut() {
            *v *= self.gain;
        }
        self.captured.clear();
        match &self.reference {
            Some(sine) => {
                let ref_chunk =
                    sine.generate_chunk(self.emitted, self.dut_out.len(), self.sample_rate)?;
                self.capture
                    .push(&self.dut_out, &ref_chunk, &mut self.captured)?;
            }
            None => {
                self.zeros.clear();
                self.zeros.resize(self.dut_out.len(), 0.0);
                self.capture
                    .push(&self.dut_out, &self.zeros, &mut self.captured)?;
            }
        }
        sink(&self.captured)?;
        self.emitted += self.dut_out.len();
        Ok(())
    }
}

/// A repeat held open for sequential (early-stopping) acquisition: the
/// hot and cold acquisition chains plus the estimator's accumulator.
///
/// Advance it to successive checkpoints, consult
/// [`SequentialRepeat::snapshot`] after each, and call
/// [`SequentialRepeat::finish`] the moment the decision is safe — the
/// finished measurement is **bit-identical** to a run whose record
/// length equals the stopping point, because every pipeline stage
/// evolves the exact state a shorter record would (the invariant the
/// sequential-stop tests pin down).
///
/// Borrowed from the session that opened it
/// ([`MeasurementSession::begin_sequential`]).
pub struct SequentialRepeat<'a> {
    hot: StateChain<'a>,
    cold: StateChain<'a>,
    acc: Box<dyn RatioAccumulator>,
    chunk_len: usize,
    cap: usize,
    hot_kelvin: f64,
    cold_kelvin: f64,
}

impl SequentialRepeat<'_> {
    /// Advances both source states to `samples` produced samples
    /// (clamped to the session's record length), pushing every captured
    /// chunk into the accumulator. A no-op when already there.
    ///
    /// # Errors
    ///
    /// Propagates acquisition and accumulation errors.
    pub fn advance_to(&mut self, samples: usize) -> Result<(), SocError> {
        let target = samples.min(self.cap);
        let SequentialRepeat {
            hot,
            cold,
            acc,
            chunk_len,
            ..
        } = self;
        hot.advance_to(target, *chunk_len, &mut |s| acc.push_hot(s))?;
        cold.advance_to(target, *chunk_len, &mut |s| acc.push_cold(s))?;
        Ok(())
    }

    /// Source samples acquired so far (per source state).
    pub fn samples_consumed(&self) -> usize {
        self.hot.produced
    }

    /// The session record length this repeat is capped at.
    pub fn sample_cap(&self) -> usize {
        self.cap
    }

    /// The interim ratio estimate over everything pushed so far —
    /// what a sequential screen's stop rule consults at a checkpoint.
    /// Does not flush the pipeline tails, so it slightly lags
    /// [`SequentialRepeat::finish`]; it is nevertheless a pure function
    /// of `(seed, repeat, samples consumed)`, independent of chunking.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors (e.g. too few samples pushed for
    /// the estimator to form a ratio yet).
    pub fn snapshot(&self) -> Result<RatioEstimate, SocError> {
        Ok(self.acc.snapshot()?)
    }

    /// Closes the repeat at its current stopping point: flushes the
    /// DUT and capture tails into the accumulator and forms the final
    /// ratio — bit-identical to a run whose record is
    /// [`SequentialRepeat::samples_consumed`] samples long.
    ///
    /// # Errors
    ///
    /// Propagates acquisition and estimation errors.
    pub fn finish(self) -> Result<RepeatMeasurement, SocError> {
        let SequentialRepeat {
            mut hot,
            mut cold,
            mut acc,
            hot_kelvin,
            cold_kelvin,
            ..
        } = self;
        hot.finish(&mut |s| acc.push_hot(s))?;
        cold.finish(&mut |s| acc.push_cold(s))?;
        Ok(RepeatMeasurement::new(
            acc.finish()?,
            hot_kelvin,
            cold_kelvin,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfbist_analog::converter::AdcDigitizer;
    use nfbist_analog::fault::{AnalogFault, FaultyDut};
    use nfbist_analog::units::Ohms;
    use nfbist_core::power_ratio::{MeanSquareEstimator, PsdRatioEstimator};

    fn dut(opamp: OpampModel) -> NonInvertingAmplifier {
        NonInvertingAmplifier::new(opamp, Ohms::new(10_000.0), Ohms::new(100.0)).unwrap()
    }

    /// Repeat `r` on the materialized reference path: both records
    /// acquired whole, expanded, and estimated in one batch call.
    fn materialized_repeat(session: &MeasurementSession, r: usize) -> RepeatMeasurement {
        let hot = session.acquire(NoiseSourceState::Hot, r).unwrap();
        let cold = session.acquire(NoiseSourceState::Cold, r).unwrap();
        let ratio = session
            .estimator_ref()
            .estimate(&hot.to_samples(), &cold.to_samples())
            .unwrap();
        let setup = session.setup();
        RepeatMeasurement::new(ratio, setup.hot_kelvin, setup.cold_kelvin)
    }

    /// The whole measurement assembled from materialized repeats.
    fn materialized_run(session: &MeasurementSession) -> Measurement {
        let repeats = (0..session.repeat_count())
            .map(|r| materialized_repeat(session, r))
            .collect();
        session.combine(repeats).unwrap()
    }

    #[test]
    fn run_matches_the_materialized_reference_bitwise() {
        // Every estimator/front-end pairing the crate ships, plus a
        // faulted DUT, at the default chunk and at one that divides
        // neither the record nor the Welch segment.
        let mut setup = BistSetup::quick(41);
        setup.samples = 1 << 14;
        setup.nfft = 1_024;
        let psd = || PsdRatioEstimator::new(setup.sample_rate, setup.nfft, setup.noise_band);
        let faulty = || {
            FaultyDut::new(dut(OpampModel::tl081()))
                .with_faults([
                    AnalogFault::ExcessNoise { factor: 3.0 },
                    AnalogFault::GainDeviation { factor: 0.8 },
                ])
                .unwrap()
        };
        let build = |case: usize| {
            let session = MeasurementSession::new(setup.clone()).unwrap().repeats(2);
            match case {
                0 => session.dut(dut(OpampModel::tl081())),
                1 => session
                    .dut(dut(OpampModel::tl081()))
                    .digitizer(AdcDigitizer::new(12).unwrap())
                    .estimator(psd().unwrap()),
                2 => session
                    .dut(dut(OpampModel::tl081()))
                    .digitizer(AdcDigitizer::new(12).unwrap())
                    .estimator(MeanSquareEstimator),
                _ => session.dut(faulty()),
            }
        };
        for case in 0..4 {
            let reference = build(case);
            let label = reference.estimator_ref().label();
            let materialized: Vec<_> = (0..2).map(|r| materialized_repeat(&reference, r)).collect();
            for chunk in [None, Some(1_000)] {
                let session = match chunk {
                    Some(n) => build(case).streaming_chunk_len(n),
                    None => build(case),
                };
                let run = session.run().unwrap();
                for (r, (got, want)) in run.repeats.iter().zip(&materialized).enumerate() {
                    let (got, want) = (&got.ratio, &want.ratio);
                    let what = format!("case {case} ({label}), chunk {chunk:?}, repeat {r}");
                    assert_eq!(got.ratio.to_bits(), want.ratio.to_bits(), "{what}");
                    assert_eq!(got.hot_power.to_bits(), want.hot_power.to_bits(), "{what}");
                    assert_eq!(
                        got.cold_power.to_bits(),
                        want.cold_power.to_bits(),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_setup_rejected() {
        let mut setup = BistSetup::quick(1);
        setup.samples = 0;
        assert!(MeasurementSession::new(setup).is_err());
    }

    #[test]
    fn hot_minus_cold_output_power_is_the_source_term_alone() {
        // The DUT's added noise is common to both states, so the
        // difference of the squared output RMS is the source's
        // 4k·R·(Th − Tc) over the Nyquist band times the power gain —
        // with the hot temperature the source actually emits.
        for error in [0.0, 0.1] {
            let mut setup = BistSetup::quick(1);
            setup.hot_calibration_error = error;
            let session = MeasurementSession::new(setup.clone())
                .unwrap()
                .dut(dut(OpampModel::tl081()));
            let hot = session.dut_output_rms(NoiseSourceState::Hot).unwrap();
            let cold = session.dut_output_rms(NoiseSourceState::Cold).unwrap();
            assert!(hot > cold && cold > 0.0);
            let gain = session.dut_ref().gain();
            let emitted_hot = setup.hot_kelvin * (1.0 + error);
            let expected = gain
                * gain
                * 4.0
                * nfbist_analog::constants::BOLTZMANN
                * setup.source_resistance.value()
                * (emitted_hot - setup.cold_kelvin)
                * setup.sample_rate
                / 2.0;
            let measured = hot * hot - cold * cold;
            assert!(
                ((measured - expected) / expected).abs() < 1e-9,
                "error {error}: {measured} vs {expected}"
            );
        }
    }

    #[test]
    fn component_accessors_expose_the_selection() {
        let session = MeasurementSession::new(BistSetup::quick(2)).unwrap();
        // Defaults: the paper's OP27 at Av = 101 and the 1-bit cell
        // with its sine reference.
        assert!((session.dut_ref().gain() - 101.0).abs() < 1e-9);
        assert!(session.digitizer_ref().uses_reference());
        let one_bit_label = session.estimator_ref().label();
        let setup = session.setup().clone();
        let est = PsdRatioEstimator::new(setup.sample_rate, setup.nfft, setup.noise_band).unwrap();
        let psd_label = est.label();
        assert_ne!(psd_label, one_bit_label);
        let adc = session
            .dut(
                NonInvertingAmplifier::new(
                    OpampModel::tl081(),
                    Ohms::new(1_000.0),
                    Ohms::new(100.0),
                )
                .unwrap(),
            )
            .digitizer(AdcDigitizer::new(12).unwrap())
            .estimator(est);
        assert!((adc.dut_ref().gain() - 11.0).abs() < 1e-9);
        assert!(!adc.digitizer_ref().uses_reference());
        assert_eq!(adc.estimator_ref().label(), psd_label);
        // Without a reference the waveform is silent, so the session's
        // reference amplitude plays no part in an ADC acquisition.
        let (_, reference) = adc.conditioning().unwrap();
        assert!(reference.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn acquisition_has_expected_shape() {
        let session = MeasurementSession::new(BistSetup::quick(3)).unwrap();
        let record = session.acquire(NoiseSourceState::Hot, 0).unwrap();
        assert_eq!(record.len(), session.setup().samples);
        // Zero-mean noise against a zero-mean reference: duty near
        // 50 %.
        let bits = record.as_bits().expect("1-bit default front-end");
        assert!((bits.duty() - 0.5).abs() < 0.02, "duty {}", bits.duty());
    }

    #[test]
    fn reference_amplitude_tracks_cold_rms() {
        let session = MeasurementSession::new(BistSetup::quick(5)).unwrap();
        let rms = session.digitizer_noise_rms(NoiseSourceState::Cold).unwrap();
        let amp = session.reference_amplitude().unwrap();
        assert!((amp / rms - 0.3).abs() < 1e-12);
        let hot_rms = session.digitizer_noise_rms(NoiseSourceState::Hot).unwrap();
        assert!(hot_rms > rms);
        // The 1-bit front-end applies exactly the configured post-gain.
        assert!((session.frontend_gain().unwrap() - session.setup().post_gain).abs() < 1e-12);
    }

    #[test]
    fn quick_measurement_recovers_expected_nf() {
        // The Table 3 shape on a reduced record: measured within 2 dB
        // of expected (the paper's own worst case) for a noisy and a
        // quiet op-amp. The CA3140's near-unity Y makes single quick
        // acquisitions high-variance, so it runs with Y-averaging
        // (which is exactly what `repeats` exists for).
        for (opamp, seed, repeats) in [
            (OpampModel::tl081(), 10u64, 1usize),
            (OpampModel::ca3140(), 8, 4),
        ] {
            let m = MeasurementSession::new(BistSetup::quick(seed))
                .unwrap()
                .dut(dut(opamp))
                .repeats(repeats)
                .run()
                .unwrap();
            assert!(
                (m.nf.figure.db() - m.expected_nf_db).abs() < 2.0,
                "{}: measured {:.2} vs expected {:.2}",
                m.dut,
                m.nf.figure.db(),
                m.expected_nf_db
            );
        }
    }

    #[test]
    fn measurement_reports_resources_and_labels() {
        let m = MeasurementSession::new(BistSetup::quick(6))
            .unwrap()
            .dut(dut(OpampModel::tl081()))
            .run()
            .unwrap();
        assert_eq!(m.usage.record_bytes, (1usize << 17) / 8);
        assert!(m.reference_amplitude > 0.0);
        assert!(m.one_bit_detail().unwrap().normalization.scale > 0.0);
        assert!(m.dut.contains("TL081"));
        assert!(m.digitizer.contains("1-bit"));
        assert!(m.estimator.contains("1-bit"));
        assert!(m.to_string().contains("measured"));
    }

    #[test]
    fn calibration_error_biases_measurement() {
        let mut setup = BistSetup::quick(7);
        setup.hot_calibration_error = 0.20; // gross 20 % error
        let biased = MeasurementSession::new(setup)
            .unwrap()
            .dut(dut(OpampModel::tl081()))
            .run()
            .unwrap();
        let clean = MeasurementSession::new(BistSetup::quick(7))
            .unwrap()
            .dut(dut(OpampModel::tl081()))
            .run()
            .unwrap();
        // Hotter-than-declared source → Y up → reported NF down.
        assert!(
            biased.nf.figure.db() < clean.nf.figure.db(),
            "biased {:.2} vs clean {:.2}",
            biased.nf.figure.db(),
            clean.nf.figure.db()
        );
    }

    #[test]
    fn acquisitions_are_deterministic_per_seed_and_repeat() {
        let s1 = MeasurementSession::new(BistSetup::quick(7)).unwrap();
        let s2 = MeasurementSession::new(BistSetup::quick(7)).unwrap();
        let a = s1.acquire(NoiseSourceState::Hot, 0).unwrap();
        let b = s2.acquire(NoiseSourceState::Hot, 0).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same record");
        // Different repeat indices draw different noise.
        let c = s1.acquire(NoiseSourceState::Hot, 1).unwrap();
        assert_ne!(a, c);
        // And hot/cold differ.
        let d = s1.acquire(NoiseSourceState::Cold, 0).unwrap();
        assert_ne!(a, d);
    }

    #[test]
    fn adc_session_expresses_the_fig4_baseline() {
        let setup = BistSetup::quick(9);
        let m = MeasurementSession::new(setup.clone())
            .unwrap()
            .dut(dut(OpampModel::tl081()))
            .digitizer(AdcDigitizer::new(12).unwrap())
            .estimator(
                PsdRatioEstimator::new(setup.sample_rate, setup.nfft, setup.noise_band).unwrap(),
            )
            .run()
            .unwrap();
        assert!(
            (m.nf.figure.db() - m.expected_nf_db).abs() < 1.0,
            "measured {:.2} vs expected {:.2}",
            m.nf.figure.db(),
            m.expected_nf_db
        );
        // No reference in the ADC path; multi-bit records dominate
        // memory.
        assert_eq!(m.reference_amplitude, 0.0);
        let one_bit = digitizer_usage(setup.samples, setup.nfft, 1);
        assert!(m.usage.record_bytes >= 16 * one_bit.record_bytes);
        assert!(m.digitizer.contains("ADC"));
    }

    #[test]
    fn adc_acquisition_stays_within_range() {
        let setup = BistSetup::quick(10);
        let session = MeasurementSession::new(setup)
            .unwrap()
            .dut(dut(OpampModel::ca3140()))
            .digitizer(AdcDigitizer::new(12).unwrap());
        let record = session.acquire(NoiseSourceState::Hot, 0).unwrap();
        let x = record.to_samples();
        let peak = nfbist_dsp::stats::peak(&x).unwrap();
        assert!(peak <= 1.0);
        // Clipping should be rare: the RMS sits near 0.2 of full scale.
        let rms = nfbist_dsp::stats::rms(&x).unwrap();
        assert!(rms > 0.1 && rms < 0.35, "rms {rms}");
    }

    #[test]
    fn decomposed_run_matches_manual_assembly() {
        let mut setup = BistSetup::quick(21);
        setup.samples = 1 << 15;
        let session = MeasurementSession::new(setup)
            .unwrap()
            .dut(dut(OpampModel::tl081()))
            .repeats(2);
        let direct = session.run().unwrap();
        // The same three public pieces the parallel runner uses.
        let gain = session.frontend_gain().unwrap();
        let repeats: Vec<_> = (0..2)
            .map(|r| session.measure_repeat(r, gain).unwrap())
            .collect();
        let assembled = session.combine(repeats).unwrap();
        assert_eq!(direct.nf.y, assembled.nf.y);
        assert_eq!(direct.nf.figure.db(), assembled.nf.figure.db());
        assert_eq!(direct.nf_spread_db, assembled.nf_spread_db);
        assert_eq!(direct.usage, assembled.usage);
        for (a, b) in direct.repeats.iter().zip(&assembled.repeats) {
            assert_eq!(a.ratio.ratio, b.ratio.ratio);
        }
        // Combining nothing is rejected.
        assert!(session.combine(Vec::new()).is_err());
    }

    #[test]
    fn state_chains_replay_the_batch_record_for_any_chunking() {
        let mut setup = BistSetup::quick(3);
        setup.samples = 1 << 13;
        setup.nfft = 1_024;
        let one_bit = MeasurementSession::new(setup.clone()).unwrap();
        let adc = MeasurementSession::new(setup.clone())
            .unwrap()
            .digitizer(AdcDigitizer::new(12).unwrap());
        for session in [&one_bit, &adc] {
            let gain = session.frontend_gain().unwrap();
            for state in [NoiseSourceState::Hot, NoiseSourceState::Cold] {
                let batch = session.acquire(state, 0).unwrap().to_samples();
                for chunk in [1_000usize, 4_096, 1 << 13] {
                    let mut chain = session.begin_state_chain(state, 0, gain).unwrap();
                    let mut streamed = Vec::new();
                    let mut sink = |s: &[f64]| {
                        streamed.extend_from_slice(s);
                        Ok(())
                    };
                    // Two legs: part way, then to the end of the record.
                    chain.advance_to(3_000, chunk, &mut sink).unwrap();
                    chain.advance_to(1 << 13, chunk, &mut sink).unwrap();
                    chain.finish(&mut sink).unwrap();
                    assert_eq!(streamed.len(), batch.len());
                    assert!(
                        streamed
                            .iter()
                            .zip(&batch)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{} {state:?} chunk {chunk}",
                        session.digitizer_ref().label()
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_run_is_bitwise_identical_to_batch_across_chunk_sizes() {
        let mut setup = BistSetup::quick(17);
        setup.samples = 1 << 14;
        setup.nfft = 1_024;
        let build = || {
            MeasurementSession::new(setup.clone())
                .unwrap()
                .dut(dut(OpampModel::tl081()))
                .repeats(2)
        };
        let batch = materialized_run(&build());
        // Chunk sizes below, at, and off the Welch segment length.
        for chunk in [1_000usize, 1_024, 1_025, 7_777] {
            let streamed = build().streaming_chunk_len(chunk).run().unwrap();
            assert_eq!(
                streamed.nf.y.to_bits(),
                batch.nf.y.to_bits(),
                "chunk {chunk}"
            );
            assert_eq!(
                streamed.nf.figure.db().to_bits(),
                batch.nf.figure.db().to_bits()
            );
            assert_eq!(
                streamed.nf_spread_db.to_bits(),
                batch.nf_spread_db.to_bits()
            );
            assert_eq!(streamed.usage, batch.usage);
            for (s, b) in streamed.repeats.iter().zip(&batch.repeats) {
                assert_eq!(s.ratio.ratio.to_bits(), b.ratio.ratio.to_bits());
                assert_eq!(s.ratio.hot_power.to_bits(), b.ratio.hot_power.to_bits());
                assert_eq!(s.ratio.cold_power.to_bits(), b.ratio.cold_power.to_bits());
            }
        }
    }

    #[test]
    fn sequential_stop_is_bitwise_identical_to_a_batch_run_of_that_length() {
        // The invariant the adaptive screen rests on: stopping a
        // SequentialRepeat at n_c and flushing equals a batch run whose
        // record length is n_c — for any chunking, at every checkpoint.
        let mut setup = BistSetup::quick(37);
        setup.samples = 1 << 14;
        setup.nfft = 1_024;
        for chunk in [512usize, 1_024, 3_333] {
            let session = MeasurementSession::new(setup.clone())
                .unwrap()
                .dut(dut(OpampModel::tl081()))
                .streaming_chunk_len(chunk);
            let gain = session.frontend_gain().unwrap();
            for n_c in [1usize << 12, 1 << 13, 3 * (1 << 12)] {
                let mut seq = session.begin_sequential(0, gain).unwrap();
                seq.advance_to(n_c).unwrap();
                assert_eq!(seq.samples_consumed(), n_c);
                assert_eq!(seq.sample_cap(), 1 << 14);
                // The snapshot is chunk-invariant even before flushing.
                let snap = seq.snapshot().unwrap();
                let reference_snap = {
                    let mut r = session.begin_sequential(0, gain).unwrap();
                    r.advance_to(n_c).unwrap();
                    r.snapshot().unwrap()
                };
                assert_eq!(snap.ratio.to_bits(), reference_snap.ratio.to_bits());
                let stopped = seq.finish().unwrap();
                let mut short = setup.clone();
                short.samples = n_c;
                let batch = materialized_run(
                    &MeasurementSession::new(short)
                        .unwrap()
                        .dut(dut(OpampModel::tl081())),
                );
                assert_eq!(
                    stopped.ratio.ratio.to_bits(),
                    batch.nf.y.to_bits(),
                    "chunk {chunk}, stop {n_c}"
                );
                assert_eq!(
                    stopped.nf.unwrap().figure.db().to_bits(),
                    batch.nf.figure.db().to_bits()
                );
            }
        }
    }

    #[test]
    fn streaming_adc_psd_session_matches_batch() {
        let mut setup = BistSetup::quick(19);
        setup.samples = 1 << 14;
        setup.nfft = 1_024;
        let build = || {
            MeasurementSession::new(setup.clone())
                .unwrap()
                .dut(dut(OpampModel::tl081()))
                .digitizer(AdcDigitizer::new(12).unwrap())
                .estimator(
                    PsdRatioEstimator::new(setup.sample_rate, setup.nfft, setup.noise_band)
                        .unwrap(),
                )
        };
        let batch = materialized_run(&build());
        let streamed = build().streaming_chunk_len(1_024).run().unwrap();
        assert_eq!(streamed.nf.y.to_bits(), batch.nf.y.to_bits());
        assert_eq!(
            streamed.reference_amplitude, 0.0,
            "no reference on the ADC path"
        );
    }

    #[test]
    fn streaming_chunk_is_the_override_or_4096_clamped_to_the_record() {
        let mut setup = BistSetup::quick(29);
        setup.samples = 1 << 17;
        let session = MeasurementSession::new(setup.clone()).unwrap();
        assert_eq!(session.streaming_chunk_samples(), 4_096);
        // A record shorter than the default chunk streams in one chunk.
        let mut short = setup.clone();
        short.samples = 3_000;
        let short = MeasurementSession::new(short).unwrap();
        assert_eq!(short.streaming_chunk_samples(), 3_000);
        // Explicit override clamps to the record.
        let forced = session.streaming_chunk_len(usize::MAX);
        assert_eq!(forced.streaming_chunk_samples(), 1 << 17);
        let tiny = MeasurementSession::new(setup)
            .unwrap()
            .streaming_chunk_len(0);
        assert_eq!(tiny.streaming_chunk_samples(), 1);
    }

    #[test]
    fn spread_of_two_repeats_is_their_sample_standard_deviation() {
        // Two repeats a and b: the sample standard deviation is
        // |a − b|/√2 (the population form would give |a − b|/2).
        let mut setup = BistSetup::quick(12);
        setup.samples = 1 << 15;
        let m = MeasurementSession::new(setup)
            .unwrap()
            .dut(dut(OpampModel::tl081()))
            .repeats(2)
            .run()
            .unwrap();
        let db = |r: &RepeatMeasurement| r.nf.expect("measurable repeat").figure.db();
        let (a, b) = (db(&m.repeats[0]), db(&m.repeats[1]));
        assert!(a != b, "independent repeats must scatter");
        let want = (a - b).abs() / std::f64::consts::SQRT_2;
        assert!(
            (m.nf_spread_db - want).abs() <= 1e-12 * want,
            "spread {} vs {want}",
            m.nf_spread_db
        );
    }

    #[test]
    fn repeats_average_and_report_spread() {
        let mut setup = BistSetup::quick(12);
        setup.samples = 1 << 15; // keep the repeated run fast
        let m = MeasurementSession::new(setup)
            .unwrap()
            .dut(dut(OpampModel::tl081()))
            .repeats(3)
            .run()
            .unwrap();
        assert_eq!(m.repeats.len(), 3);
        assert!(m.nf_spread_db > 0.0, "independent repeats must scatter");
        let mean_y: f64 =
            m.repeats.iter().map(|r| r.ratio.ratio).sum::<f64>() / m.repeats.len() as f64;
        assert!((m.nf.y - mean_y).abs() < 1e-12);
        // Compute cost scales with the repeat count (quick nfft 2048).
        let single = digitizer_usage(1 << 15, 2_048, 1);
        assert_eq!(m.usage.fft_count, 3 * single.fft_count);
        // repeats(0) clamps to one acquisition.
        assert_eq!(
            MeasurementSession::new(BistSetup::quick(1))
                .unwrap()
                .repeats(0)
                .repeat_count(),
            1
        );
    }
}
