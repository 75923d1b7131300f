//! Parametric fault injection: defective variants of any [`Dut`] and
//! any [`Digitizer`], for defect-coverage campaigns.
//!
//! The paper's argument is production test — a BIST earns its silicon
//! only if it *catches* defective parts. This module turns every
//! circuit in [`crate::circuits`] / [`crate::component`] and every
//! acquisition front-end in [`crate::converter`] into a fault target:
//!
//! * [`AnalogFault`] — parametric analog defects (input-path loss,
//!   gain drift, degraded op-amp noise, lost bandwidth, injected
//!   interference), composed onto any DUT by [`FaultyDut`];
//! * [`BitFault`] — digital defects on the stored 1-bit stream (stuck
//!   and flipped latch/memory cells), composed onto any front-end by
//!   [`FaultyDigitizer`].
//!
//! ## Production-test semantics
//!
//! A [`FaultyDut`] reports the **healthy** analytic model (`gain`,
//! `added_noise_density_sq`, expected NF) and injects faults only into
//! the signal path (`process`). This mirrors the production line: the
//! test plan — conditioning gains, screening limits, expected values —
//! is derived from the healthy design, while the physical part on the
//! socket may be defective. A session measuring a `FaultyDut`
//! therefore conditions and judges exactly as a real tester would.
//! [`FaultyDut::faulty_expected_noise_factor`] gives the analytic NF
//! the *defective* part should measure, for the fault classes that
//! shift it.
//!
//! Not every defect shifts the noise figure the same way. Input-path
//! loss and excess noise change the in-band hot/cold power ratio
//! directly. A pure output-gain deviation
//! ([`AnalogFault::GainDeviation`]) or a bandwidth loss
//! ([`AnalogFault::ReducedBandwidth`]) cancels out of the Y ratio
//! itself — but the 1-bit bench's reference amplitude is calibrated
//! for the *healthy* signal level, so such faults still move the
//! effective reference fraction off the paper's Fig. 10 working
//! point: mild deviations escape the NF screen, while gross ones
//! bias the normalization into detection or lose the reference line
//! outright (a gross reject). Fully characterizing those classes
//! needs the frequency-response BIST mode (paper §7); coverage
//! campaigns exist to quantify exactly this boundary.

use crate::bitstream::Bitstream;
use crate::converter::{CaptureStream, Digitizer, Record};
use crate::dut::{Dut, DutStream};
use crate::noise::ShapedNoise;
use crate::units::{Kelvin, Ohms};
use crate::AnalogError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt mixed into the per-fault noise-synthesis seeds so injected
/// fault noise never aliases the DUT's own synthesized noise stream.
const FAULT_SEED_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// A parametric analog defect, applied to a [`Dut`] by [`FaultyDut`].
///
/// # Examples
///
/// ```
/// use nfbist_analog::fault::AnalogFault;
///
/// let fault = AnalogFault::InputAttenuation { factor: 2.0 };
/// assert!(fault.validate().is_ok());
/// assert_eq!(fault.class(), "input_attenuation");
/// assert!(fault.to_string().contains("2.00"));
/// // Out-of-domain parameters are rejected.
/// assert!(AnalogFault::ExcessNoise { factor: 0.5 }.validate().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalogFault {
    /// Loss in the input path (cracked trace, drifted series
    /// resistance): the voltage reaching the DUT input is divided by
    /// `factor` (≥ 1) while the DUT's own noise is unchanged — so the
    /// measured NF **rises** by up to `factor²` in the added-noise
    /// term.
    InputAttenuation {
        /// Voltage attenuation factor (2.0 = the signal is halved,
        /// ≈ 6 dB of loss).
        factor: f64,
    },
    /// Output-gain drift (out-of-tolerance feedback network): the DUT
    /// output is multiplied by `factor`. The scale itself cancels in
    /// the Y ratio; what remains visible is the shifted
    /// signal-to-reference working point of the 1-bit bench (gain-down
    /// raises the effective reference fraction, gain-up sinks the
    /// reference toward the noise floor). Mild deviations therefore
    /// **escape** an NF screen; gross ones are caught indirectly.
    GainDeviation {
        /// Multiplicative gain error (0.5 = output 6 dB low).
        factor: f64,
    },
    /// Degraded op-amp noise (damaged input stage, ESD event): the
    /// input-referred added-noise *power* of the DUT is multiplied by
    /// `factor` (≥ 1). The excess is synthesized with the same
    /// spectral shape as the healthy added noise.
    ExcessNoise {
        /// Input-referred added-noise power multiplier.
        factor: f64,
    },
    /// Lost bandwidth (degraded GBW, drifted compensation): a
    /// one-pole low-pass at `corner_hz` is applied to the DUT output.
    /// Hot and cold records are filtered identically, so the in-band Y
    /// ratio barely moves; only the shifted reference working point
    /// (the filtered noise RMS drops while the reference stays put)
    /// leaks into the NF verdict. Proper detection needs the
    /// frequency-response mode.
    ReducedBandwidth {
        /// Corner frequency of the defect pole, in hertz.
        corner_hz: f64,
    },
    /// Injected interference (coupling from a neighbouring block): a
    /// deterministic sine at `frequency` is added to the DUT output.
    /// The amplitude is `amplitude_fraction` of the healthy DUT's
    /// analytic output noise RMS with the source at the 290 K
    /// reference temperature — an *absolute* level, identical in the
    /// hot and cold acquisitions, so an in-band tone compresses the Y
    /// ratio toward 1 and inflates the measured NF.
    InterferenceTone {
        /// Tone frequency in hertz.
        frequency: f64,
        /// Amplitude as a fraction of the cold-reference output noise
        /// RMS.
        amplitude_fraction: f64,
    },
}

impl AnalogFault {
    /// Checks the fault parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] describing the
    /// violated constraint.
    pub fn validate(&self) -> Result<(), AnalogError> {
        match *self {
            AnalogFault::InputAttenuation { factor } => {
                if !(factor >= 1.0) || !factor.is_finite() {
                    return Err(AnalogError::InvalidParameter {
                        name: "factor",
                        reason: "input attenuation must be at least 1 and finite",
                    });
                }
            }
            AnalogFault::GainDeviation { factor } => {
                if !(factor > 0.0) || !factor.is_finite() {
                    return Err(AnalogError::InvalidParameter {
                        name: "factor",
                        reason: "gain deviation must be positive and finite",
                    });
                }
            }
            AnalogFault::ExcessNoise { factor } => {
                if !(factor >= 1.0) || !factor.is_finite() {
                    return Err(AnalogError::InvalidParameter {
                        name: "factor",
                        reason: "excess noise factor must be at least 1 and finite",
                    });
                }
            }
            AnalogFault::ReducedBandwidth { corner_hz } => {
                if !(corner_hz > 0.0) || !corner_hz.is_finite() {
                    return Err(AnalogError::InvalidParameter {
                        name: "corner_hz",
                        reason: "corner frequency must be positive and finite",
                    });
                }
            }
            AnalogFault::InterferenceTone {
                frequency,
                amplitude_fraction,
            } => {
                if !(frequency > 0.0) || !frequency.is_finite() {
                    return Err(AnalogError::InvalidParameter {
                        name: "frequency",
                        reason: "tone frequency must be positive and finite",
                    });
                }
                if !(amplitude_fraction > 0.0) || !amplitude_fraction.is_finite() {
                    return Err(AnalogError::InvalidParameter {
                        name: "amplitude_fraction",
                        reason: "tone amplitude fraction must be positive and finite",
                    });
                }
            }
        }
        Ok(())
    }

    /// The fault class this defect belongs to (stable snake_case key,
    /// used for grouping in coverage reports).
    pub fn class(&self) -> &'static str {
        match self {
            AnalogFault::InputAttenuation { .. } => "input_attenuation",
            AnalogFault::GainDeviation { .. } => "gain_deviation",
            AnalogFault::ExcessNoise { .. } => "excess_noise",
            AnalogFault::ReducedBandwidth { .. } => "reduced_bandwidth",
            AnalogFault::InterferenceTone { .. } => "interference",
        }
    }
}

impl std::fmt::Display for AnalogFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AnalogFault::InputAttenuation { factor } => {
                write!(f, "input attenuation ÷{factor:.2}")
            }
            AnalogFault::GainDeviation { factor } => write!(f, "gain ×{factor:.2}"),
            AnalogFault::ExcessNoise { factor } => write!(f, "noise ×{factor:.2}"),
            AnalogFault::ReducedBandwidth { corner_hz } => {
                write!(f, "bandwidth {corner_hz:.0} Hz")
            }
            AnalogFault::InterferenceTone {
                frequency,
                amplitude_fraction,
            } => write!(f, "tone {frequency:.0} Hz @{amplitude_fraction:.2}·RMS"),
        }
    }
}

/// A defective variant of any [`Dut`]: the healthy analytic model with
/// a faulted signal path (see the [module docs](self) for why the
/// analytic side stays healthy).
///
/// Faults compose — the wrapper applies every injected fault, in
/// insertion order for the output-stage effects.
///
/// # Examples
///
/// ```
/// use nfbist_analog::circuits::NonInvertingAmplifier;
/// use nfbist_analog::dut::Dut;
/// use nfbist_analog::fault::{AnalogFault, FaultyDut};
/// use nfbist_analog::opamp::OpampModel;
/// use nfbist_analog::units::Ohms;
///
/// # fn main() -> Result<(), nfbist_analog::AnalogError> {
/// let healthy = NonInvertingAmplifier::new(
///     OpampModel::tl081(),
///     Ohms::new(10_000.0),
///     Ohms::new(100.0),
/// )?;
/// let rs = Ohms::new(2_000.0);
/// let expected = healthy.expected_noise_figure_db(rs, 100.0, 1_000.0)?;
///
/// let faulty = FaultyDut::new(healthy)
///     .with_fault(AnalogFault::InputAttenuation { factor: 2.0 })?;
/// // The analytic (test-plan) side stays healthy …
/// assert_eq!(faulty.expected_noise_figure_db(rs, 100.0, 1_000.0)?, expected);
/// // … while the defective part should *measure* several dB worse.
/// let defective = faulty.faulty_expected_noise_figure_db(rs, 100.0, 1_000.0)?;
/// assert!(defective > expected + 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FaultyDut<D> {
    inner: D,
    faults: Vec<AnalogFault>,
}

impl<D: Dut> FaultyDut<D> {
    /// Wraps a healthy DUT with no faults yet (an identity wrapper).
    pub fn new(inner: D) -> Self {
        FaultyDut {
            inner,
            faults: Vec::new(),
        }
    }

    /// Adds one fault (builder style).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for out-of-domain
    /// fault parameters.
    pub fn with_fault(mut self, fault: AnalogFault) -> Result<Self, AnalogError> {
        fault.validate()?;
        self.faults.push(fault);
        Ok(self)
    }

    /// Adds every fault in `faults`, in order.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for the first
    /// out-of-domain fault.
    pub fn with_faults(
        mut self,
        faults: impl IntoIterator<Item = AnalogFault>,
    ) -> Result<Self, AnalogError> {
        for fault in faults {
            self = self.with_fault(fault)?;
        }
        Ok(self)
    }

    /// The wrapped healthy DUT.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The injected faults, in application order.
    pub fn faults(&self) -> &[AnalogFault] {
        &self.faults
    }

    /// The noise factor the *defective* part should measure over the
    /// band, accounting for the fault classes that shift it
    /// analytically: [`AnalogFault::ExcessNoise`] multiplies the
    /// added-noise term and [`AnalogFault::InputAttenuation`] divides
    /// the source power seen by the DUT (`F' = 1 + k·a²·(F−1)` for
    /// noise factor `k` and attenuation `a`). Gain, bandwidth,
    /// interference and bit faults leave the analytic NF unchanged
    /// (their signatures are signal-level, not density-level).
    ///
    /// # Errors
    ///
    /// Propagates the healthy model's errors.
    pub fn faulty_expected_noise_factor(
        &self,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        let healthy = self.inner.expected_noise_factor(rs, f_lo, f_hi)?;
        let mut scale = 1.0;
        for fault in &self.faults {
            match *fault {
                AnalogFault::ExcessNoise { factor } => scale *= factor,
                AnalogFault::InputAttenuation { factor } => scale *= factor * factor,
                _ => {}
            }
        }
        Ok(1.0 + scale * (healthy - 1.0))
    }

    /// [`FaultyDut::faulty_expected_noise_factor`] in dB.
    ///
    /// # Errors
    ///
    /// Propagates the healthy model's errors.
    pub fn faulty_expected_noise_figure_db(
        &self,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        Ok(10.0 * self.faulty_expected_noise_factor(rs, f_lo, f_hi)?.log10())
    }

    /// Analytic output noise RMS of the healthy DUT with the source at
    /// the 290 K reference — the absolute level interference
    /// amplitudes are specified against.
    fn reference_output_rms(&self, rs: Ohms, sample_rate: f64) -> Result<f64, AnalogError> {
        let nyquist = sample_rate / 2.0;
        let source = rs.thermal_noise_density_sq(Kelvin::REFERENCE);
        let added = self.inner.mean_added_noise_density_sq(rs, 1.0, nyquist)?;
        Ok(self.inner.gain() * ((source + added) * nyquist).sqrt())
    }
}

impl<D: Dut> Dut for FaultyDut<D> {
    fn label(&self) -> String {
        if self.faults.is_empty() {
            self.inner.label()
        } else {
            let list: Vec<String> = self.faults.iter().map(|f| f.to_string()).collect();
            format!("{} [faults: {}]", self.inner.label(), list.join(", "))
        }
    }

    fn gain(&self) -> f64 {
        self.inner.gain()
    }

    fn added_noise_density_sq(&self, rs: Ohms, f: f64) -> f64 {
        self.inner.added_noise_density_sq(rs, f)
    }

    fn mean_added_noise_density_sq(
        &self,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        self.inner.mean_added_noise_density_sq(rs, f_lo, f_hi)
    }

    fn process(
        &self,
        input: &[f64],
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Vec<f64>, AnalogError> {
        // Input-path faults first: the DUT sees the attenuated signal.
        let mut attenuation = 1.0;
        for fault in &self.faults {
            if let AnalogFault::InputAttenuation { factor } = fault {
                attenuation *= factor;
            }
        }
        let mut out = if attenuation != 1.0 {
            let scaled: Vec<f64> = input.iter().map(|v| v / attenuation).collect();
            self.inner.process(&scaled, rs, sample_rate, seed)?
        } else {
            self.inner.process(input, rs, sample_rate, seed)?
        };

        // Output-stage faults, in insertion order.
        for (i, fault) in self.faults.iter().enumerate() {
            match *fault {
                AnalogFault::InputAttenuation { .. } => {}
                AnalogFault::GainDeviation { factor } => {
                    for v in &mut out {
                        *v *= factor;
                    }
                }
                AnalogFault::ExcessNoise { factor } => {
                    // Excess with the healthy spectral shape, at the
                    // output: (k−1)·added(f)·G².
                    let g = self.inner.gain();
                    let fault_seed =
                        seed.wrapping_add((i as u64 + 1).wrapping_mul(FAULT_SEED_SALT));
                    let mut noise = ShapedNoise::new(
                        |f| {
                            if f == 0.0 {
                                0.0
                            } else {
                                (factor - 1.0) * self.inner.added_noise_density_sq(rs, f) * g * g
                            }
                        },
                        sample_rate,
                        1 << 15,
                        fault_seed,
                    )?;
                    let extra = noise.generate(out.len())?;
                    for (v, n) in out.iter_mut().zip(&extra) {
                        *v += n;
                    }
                }
                AnalogFault::ReducedBandwidth { corner_hz } => {
                    let alpha = 1.0 - (-std::f64::consts::TAU * corner_hz / sample_rate).exp();
                    let mut y = 0.0;
                    for v in &mut out {
                        y += alpha * (*v - y);
                        *v = y;
                    }
                }
                AnalogFault::InterferenceTone {
                    frequency,
                    amplitude_fraction,
                } => {
                    let amplitude =
                        amplitude_fraction * self.reference_output_rms(rs, sample_rate)?;
                    let w = std::f64::consts::TAU * frequency / sample_rate;
                    for (idx, v) in out.iter_mut().enumerate() {
                        *v += amplitude * (w * idx as f64).sin();
                    }
                }
            }
        }
        Ok(out)
    }

    fn process_stream<'a>(
        &'a self,
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Box<dyn DutStream + 'a>, AnalogError> {
        // Input-path loss folds into a per-chunk input scale; every
        // output-stage fault becomes a stateful stage applied to the
        // inner stream's output as it emerges. Per-element arithmetic
        // and state evolution are exactly the batch `process`'s, so
        // chunked output concatenates bit-identically — which is what
        // lets a sequential screen snapshot a *faulty* DUT mid-record.
        let mut attenuation = 1.0;
        for fault in &self.faults {
            if let AnalogFault::InputAttenuation { factor } = fault {
                attenuation *= factor;
            }
        }
        let mut stages = Vec::new();
        for (i, fault) in self.faults.iter().enumerate() {
            match *fault {
                AnalogFault::InputAttenuation { .. } => {}
                AnalogFault::GainDeviation { factor } => {
                    stages.push(OutputFaultStage::Gain { factor });
                }
                AnalogFault::ExcessNoise { factor } => {
                    let g = self.inner.gain();
                    let fault_seed =
                        seed.wrapping_add((i as u64 + 1).wrapping_mul(FAULT_SEED_SALT));
                    let noise = ShapedNoise::new(
                        |f| {
                            if f == 0.0 {
                                0.0
                            } else {
                                (factor - 1.0) * self.inner.added_noise_density_sq(rs, f) * g * g
                            }
                        },
                        sample_rate,
                        1 << 15,
                        fault_seed,
                    )?;
                    stages.push(OutputFaultStage::ExcessNoise { noise });
                }
                AnalogFault::ReducedBandwidth { corner_hz } => {
                    let alpha = 1.0 - (-std::f64::consts::TAU * corner_hz / sample_rate).exp();
                    stages.push(OutputFaultStage::ReducedBandwidth { alpha, y: 0.0 });
                }
                AnalogFault::InterferenceTone {
                    frequency,
                    amplitude_fraction,
                } => {
                    let amplitude =
                        amplitude_fraction * self.reference_output_rms(rs, sample_rate)?;
                    let w = std::f64::consts::TAU * frequency / sample_rate;
                    stages.push(OutputFaultStage::InterferenceTone { amplitude, w });
                }
            }
        }
        Ok(Box::new(FaultyDutStream {
            inner: self.inner.process_stream(rs, sample_rate, seed)?,
            attenuation,
            stages,
            scaled: Vec::new(),
            produced: Vec::new(),
            emitted: 0,
        }))
    }
}

/// One output-stage fault as carried streaming state. Stages apply in
/// insertion order per chunk; each one's state (noise generator
/// position, filter memory, tone phase) evolves exactly as the batch
/// pass over the whole record would evolve it.
enum OutputFaultStage {
    /// Memoryless output scale.
    Gain { factor: f64 },
    /// Sequential synthesis of the excess-noise overlay — the same
    /// generator the batch path runs once over the full record.
    ExcessNoise { noise: ShapedNoise },
    /// One-pole low-pass with its output state carried across chunks.
    ReducedBandwidth { alpha: f64, y: f64 },
    /// Additive tone phased by the global output-sample index.
    InterferenceTone { amplitude: f64, w: f64 },
}

/// Streaming counterpart of [`FaultyDut::process`]: the healthy inner
/// stream with the fault stages applied to its output as it emerges.
struct FaultyDutStream<'a> {
    inner: Box<dyn DutStream + 'a>,
    attenuation: f64,
    stages: Vec<OutputFaultStage>,
    /// Reusable input-scaling buffer (input-attenuation faults).
    scaled: Vec<f64>,
    /// Reusable inner-output buffer the stages mutate in place.
    produced: Vec<f64>,
    /// Global output-sample index (tone phase anchor).
    emitted: usize,
}

impl FaultyDutStream<'_> {
    /// Runs every fault stage over `self.produced` in place, then
    /// appends it to `out` and advances the global sample index.
    fn apply_stages(&mut self, out: &mut Vec<f64>) -> Result<(), AnalogError> {
        if self.produced.is_empty() {
            return Ok(());
        }
        let len = self.produced.len();
        let base = self.emitted;
        for stage in &mut self.stages {
            match stage {
                OutputFaultStage::Gain { factor } => {
                    for v in &mut self.produced {
                        *v *= *factor;
                    }
                }
                OutputFaultStage::ExcessNoise { noise } => {
                    let extra = noise.generate(len)?;
                    for (v, n) in self.produced.iter_mut().zip(&extra) {
                        *v += n;
                    }
                }
                OutputFaultStage::ReducedBandwidth { alpha, y } => {
                    for v in &mut self.produced {
                        *y += *alpha * (*v - *y);
                        *v = *y;
                    }
                }
                OutputFaultStage::InterferenceTone { amplitude, w } => {
                    for (k, v) in self.produced.iter_mut().enumerate() {
                        *v += *amplitude * (*w * (base + k) as f64).sin();
                    }
                }
            }
        }
        out.extend_from_slice(&self.produced);
        self.emitted += len;
        Ok(())
    }
}

impl DutStream for FaultyDutStream<'_> {
    fn push(&mut self, input: &[f64], out: &mut Vec<f64>) -> Result<(), AnalogError> {
        if input.is_empty() {
            return Ok(());
        }
        self.produced.clear();
        if self.attenuation != 1.0 {
            self.scaled.clear();
            let a = self.attenuation;
            self.scaled.extend(input.iter().map(|v| v / a));
            self.inner.push(&self.scaled, &mut self.produced)?;
        } else {
            self.inner.push(input, &mut self.produced)?;
        }
        self.apply_stages(out)
    }

    fn finish(&mut self, out: &mut Vec<f64>) -> Result<(), AnalogError> {
        self.produced.clear();
        self.inner.finish(&mut self.produced)?;
        self.apply_stages(out)
    }
}

/// The time profile of a drifting defect's severity: 0 (healthy) to 1
/// (the composed faults at full strength), as a function of the
/// absolute sample index — the synthesizable models of aging and
/// temperature excursions a continuous monitor exists to catch.
///
/// # Examples
///
/// ```
/// use nfbist_analog::fault::DriftSchedule;
///
/// let ramp = DriftSchedule::Linear { onset: 100, ramp: 100 };
/// assert_eq!(ramp.severity(0), 0.0);
/// assert_eq!(ramp.severity(150), 0.5);
/// assert_eq!(ramp.severity(400), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftSchedule {
    /// Severity ramps linearly from 0 at `onset` to 1 at
    /// `onset + ramp` (a temperature ramp, a slow parametric drift).
    Linear {
        /// Sample index where the drift begins.
        onset: usize,
        /// Samples taken to reach full severity (≥ 1).
        ramp: usize,
    },
    /// Severity steps from 0 to 1 at `at` (a latent defect activating).
    Step {
        /// Sample index of the step.
        at: usize,
    },
    /// Severity approaches 1 exponentially after `onset` with time
    /// constant `tau` samples: `1 − exp(−(t − onset)/τ)` (classic
    /// aging saturation).
    Exponential {
        /// Sample index where the drift begins.
        onset: usize,
        /// Time constant in samples (≥ 1).
        tau: usize,
    },
}

impl DriftSchedule {
    /// Checks the schedule parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a zero ramp or
    /// time constant.
    pub fn validate(&self) -> Result<(), AnalogError> {
        match *self {
            DriftSchedule::Linear { ramp, .. } => {
                if ramp == 0 {
                    return Err(AnalogError::InvalidParameter {
                        name: "ramp",
                        reason: "linear drift ramp must span at least one sample",
                    });
                }
            }
            DriftSchedule::Step { .. } => {}
            DriftSchedule::Exponential { tau, .. } => {
                if tau == 0 {
                    return Err(AnalogError::InvalidParameter {
                        name: "tau",
                        reason: "exponential drift time constant must be at least one sample",
                    });
                }
            }
        }
        Ok(())
    }

    /// Severity in `[0, 1]` at absolute sample index `t`.
    pub fn severity(&self, t: usize) -> f64 {
        match *self {
            DriftSchedule::Linear { onset, ramp } => {
                if t < onset {
                    0.0
                } else {
                    (((t - onset) as f64) / ramp as f64).min(1.0)
                }
            }
            DriftSchedule::Step { at } => {
                if t >= at {
                    1.0
                } else {
                    0.0
                }
            }
            DriftSchedule::Exponential { onset, tau } => {
                if t < onset {
                    0.0
                } else {
                    1.0 - (-((t - onset) as f64) / tau as f64).exp()
                }
            }
        }
    }
}

impl std::fmt::Display for DriftSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DriftSchedule::Linear { onset, ramp } => {
                write!(f, "linear drift @{onset}+{ramp}")
            }
            DriftSchedule::Step { at } => write!(f, "step drift @{at}"),
            DriftSchedule::Exponential { onset, tau } => {
                write!(f, "exp drift @{onset} τ={tau}")
            }
        }
    }
}

/// Memoized severity lookup: severity is piecewise-constant over
/// `stride`-sample blocks (evaluated at each block's first sample), so
/// per-sample reads cost one division plus a cached compare. Both the
/// batch and streaming passes read severities through this cursor —
/// a pure function of the absolute sample index — which is what makes
/// the drifting output bit-identical across chunkings.
struct SeverityCursor {
    schedule: DriftSchedule,
    stride: usize,
    block: Option<usize>,
    s: f64,
}

impl SeverityCursor {
    fn new(schedule: DriftSchedule, stride: usize) -> Self {
        SeverityCursor {
            schedule,
            stride,
            block: None,
            s: 0.0,
        }
    }

    fn at(&mut self, t: usize) -> f64 {
        let b = t / self.stride;
        if self.block != Some(b) {
            self.block = Some(b);
            self.s = self.schedule.severity(b * self.stride);
        }
        self.s
    }
}

/// A [`Dut`] whose defect grows over the mission: the composed
/// [`AnalogFault`]s are applied at a time-varying severity following a
/// [`DriftSchedule`] over the absolute sample index. At severity 0 every
/// stage is the identity; at severity 1 the signal path matches
/// [`FaultyDut`] with the same faults.
///
/// Severity is quantized to `update_stride`-sample blocks (default
/// 1024), evaluated at each block's first sample — so the drifting
/// output, like every other streaming path, is **bit-identical across
/// chunk sizes**, and [`DriftingDut::process_stream`] concatenates to
/// exactly [`DriftingDut::process`].
///
/// Parameter interpolation per fault class at severity `s`:
/// input attenuation and gain deviate as `1 + s·(factor − 1)`, excess
/// noise adds `√s` of the full-severity overlay (excess *power* grows
/// as `s·(k − 1)`), the bandwidth pole's smoothing coefficient slides
/// from pass-through to the full-severity corner, and interference
/// amplitude scales linearly with `s`.
///
/// Like [`FaultyDut`], the analytic (test-plan) side stays healthy;
/// [`DriftingDut::drifting_expected_noise_factor_at`] predicts what the
/// degraded part should measure at a given mission point.
///
/// # Examples
///
/// ```
/// use nfbist_analog::circuits::NonInvertingAmplifier;
/// use nfbist_analog::fault::{AnalogFault, DriftSchedule, DriftingDut};
/// use nfbist_analog::opamp::OpampModel;
/// use nfbist_analog::units::Ohms;
///
/// # fn main() -> Result<(), nfbist_analog::AnalogError> {
/// let healthy = NonInvertingAmplifier::new(
///     OpampModel::tl081(),
///     Ohms::new(10_000.0),
///     Ohms::new(100.0),
/// )?;
/// let aging = DriftingDut::new(healthy, DriftSchedule::Linear { onset: 10_000, ramp: 50_000 })?
///     .with_fault(AnalogFault::ExcessNoise { factor: 4.0 })?;
/// assert_eq!(aging.severity_at(0), 0.0);
/// assert_eq!(aging.severity_at(100_000), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DriftingDut<D> {
    inner: D,
    faults: Vec<AnalogFault>,
    schedule: DriftSchedule,
    update_stride: usize,
}

impl<D: Dut> DriftingDut<D> {
    /// Wraps a healthy DUT with a drift schedule and no faults yet.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for an out-of-domain
    /// schedule.
    pub fn new(inner: D, schedule: DriftSchedule) -> Result<Self, AnalogError> {
        schedule.validate()?;
        Ok(DriftingDut {
            inner,
            faults: Vec::new(),
            schedule,
            update_stride: 1024,
        })
    }

    /// Adds one full-severity target fault (builder style).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for out-of-domain
    /// fault parameters.
    pub fn with_fault(mut self, fault: AnalogFault) -> Result<Self, AnalogError> {
        fault.validate()?;
        self.faults.push(fault);
        Ok(self)
    }

    /// Adds every fault in `faults`, in order.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for the first
    /// out-of-domain fault.
    pub fn with_faults(
        mut self,
        faults: impl IntoIterator<Item = AnalogFault>,
    ) -> Result<Self, AnalogError> {
        for fault in faults {
            self = self.with_fault(fault)?;
        }
        Ok(self)
    }

    /// Sets the severity quantization stride in samples (builder
    /// style; default 1024).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a zero stride.
    pub fn update_stride(mut self, stride: usize) -> Result<Self, AnalogError> {
        if stride == 0 {
            return Err(AnalogError::InvalidParameter {
                name: "update_stride",
                reason: "severity update stride must be at least one sample",
            });
        }
        self.update_stride = stride;
        Ok(self)
    }

    /// The wrapped healthy DUT.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The full-severity target faults, in application order.
    pub fn faults(&self) -> &[AnalogFault] {
        &self.faults
    }

    /// The drift schedule.
    pub fn schedule(&self) -> DriftSchedule {
        self.schedule
    }

    /// The severity quantization stride in samples.
    pub fn update_stride_samples(&self) -> usize {
        self.update_stride
    }

    /// The severity actually applied at absolute sample `t` (quantized
    /// to the update stride).
    pub fn severity_at(&self, t: usize) -> f64 {
        self.schedule.severity(t - t % self.update_stride)
    }

    /// The noise factor the degraded part should measure at mission
    /// point `t`: the [`FaultyDut::faulty_expected_noise_factor`]
    /// composition with each fault's parameters interpolated to the
    /// severity at `t` — `F'(t) = 1 + a(t)²·k(t)·(F − 1)`.
    ///
    /// # Errors
    ///
    /// Propagates the healthy model's errors.
    pub fn drifting_expected_noise_factor_at(
        &self,
        t: usize,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        let healthy = self.inner.expected_noise_factor(rs, f_lo, f_hi)?;
        let s = self.severity_at(t);
        let mut scale = 1.0;
        for fault in &self.faults {
            match *fault {
                AnalogFault::ExcessNoise { factor } => scale *= 1.0 + s * (factor - 1.0),
                AnalogFault::InputAttenuation { factor } => {
                    let a = 1.0 + s * (factor - 1.0);
                    scale *= a * a;
                }
                _ => {}
            }
        }
        Ok(1.0 + scale * (healthy - 1.0))
    }

    /// [`DriftingDut::drifting_expected_noise_factor_at`] in dB.
    ///
    /// # Errors
    ///
    /// Propagates the healthy model's errors.
    pub fn drifting_expected_noise_figure_db_at(
        &self,
        t: usize,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        Ok(10.0
            * self
                .drifting_expected_noise_factor_at(t, rs, f_lo, f_hi)?
                .log10())
    }

    fn cursor(&self) -> SeverityCursor {
        SeverityCursor::new(self.schedule, self.update_stride)
    }

    fn has_input_attenuation(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, AnalogFault::InputAttenuation { .. }))
    }

    /// Per-sample input divisor at severity `s`: the product of every
    /// input-attenuation fault interpolated to `1 + s·(a − 1)`.
    fn input_divisor(&self, s: f64) -> f64 {
        let mut div = 1.0;
        for fault in &self.faults {
            if let AnalogFault::InputAttenuation { factor } = *fault {
                div *= 1.0 + s * (factor - 1.0);
            }
        }
        div
    }

    /// Analytic output noise RMS of the healthy DUT with the source at
    /// the 290 K reference (interference amplitudes are absolute, as in
    /// [`FaultyDut`]).
    fn reference_output_rms(&self, rs: Ohms, sample_rate: f64) -> Result<f64, AnalogError> {
        let nyquist = sample_rate / 2.0;
        let source = rs.thermal_noise_density_sq(Kelvin::REFERENCE);
        let added = self.inner.mean_added_noise_density_sq(rs, 1.0, nyquist)?;
        Ok(self.inner.gain() * ((source + added) * nyquist).sqrt())
    }

    /// Builds the output-stage list shared by the batch and streaming
    /// passes (full-severity parameters; severity interpolation happens
    /// per sample at application time).
    fn build_stages(
        &self,
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Vec<DriftStage>, AnalogError> {
        let mut stages = Vec::new();
        for (i, fault) in self.faults.iter().enumerate() {
            match *fault {
                AnalogFault::InputAttenuation { .. } => {}
                AnalogFault::GainDeviation { factor } => {
                    stages.push(DriftStage::Gain { factor });
                }
                AnalogFault::ExcessNoise { factor } => {
                    let g = self.inner.gain();
                    let fault_seed =
                        seed.wrapping_add((i as u64 + 1).wrapping_mul(FAULT_SEED_SALT));
                    let noise = ShapedNoise::new(
                        |f| {
                            if f == 0.0 {
                                0.0
                            } else {
                                (factor - 1.0) * self.inner.added_noise_density_sq(rs, f) * g * g
                            }
                        },
                        sample_rate,
                        1 << 15,
                        fault_seed,
                    )?;
                    stages.push(DriftStage::ExcessNoise { noise });
                }
                AnalogFault::ReducedBandwidth { corner_hz } => {
                    let alpha = 1.0 - (-std::f64::consts::TAU * corner_hz / sample_rate).exp();
                    stages.push(DriftStage::ReducedBandwidth { alpha, y: 0.0 });
                }
                AnalogFault::InterferenceTone {
                    frequency,
                    amplitude_fraction,
                } => {
                    let amplitude =
                        amplitude_fraction * self.reference_output_rms(rs, sample_rate)?;
                    let w = std::f64::consts::TAU * frequency / sample_rate;
                    stages.push(DriftStage::InterferenceTone { amplitude, w });
                }
            }
        }
        Ok(stages)
    }
}

/// One drifting output stage: the full-severity parameters of the
/// matching [`OutputFaultStage`], applied per sample at the severity of
/// that sample's stride block.
enum DriftStage {
    /// `v *= 1 + s·(factor − 1)`.
    Gain { factor: f64 },
    /// `v += √s · n` with `n` from the full-severity overlay generator
    /// (which advances one draw per sample regardless of severity, so
    /// the sequence is chunking- and severity-independent).
    ExcessNoise { noise: ShapedNoise },
    /// One-pole smoother with `α_eff = 1 + s·(α − 1)` (pass-through at
    /// severity 0), output state carried across samples.
    ReducedBandwidth { alpha: f64, y: f64 },
    /// `v += s · amplitude · sin(w·t)`, phased by the absolute index.
    InterferenceTone { amplitude: f64, w: f64 },
}

impl DriftStage {
    /// Applies this stage to `chunk`, whose first sample sits at
    /// absolute output index `base`. Exactly this routine runs in both
    /// the batch and streaming passes, so their per-sample arithmetic
    /// cannot diverge.
    fn apply(
        &mut self,
        chunk: &mut [f64],
        base: usize,
        mut cursor: SeverityCursor,
    ) -> Result<(), AnalogError> {
        match self {
            DriftStage::Gain { factor } => {
                for (k, v) in chunk.iter_mut().enumerate() {
                    let s = cursor.at(base + k);
                    *v *= 1.0 + s * (*factor - 1.0);
                }
            }
            DriftStage::ExcessNoise { noise } => {
                let extra = noise.generate(chunk.len())?;
                for (k, (v, n)) in chunk.iter_mut().zip(&extra).enumerate() {
                    let s = cursor.at(base + k);
                    *v += s.sqrt() * n;
                }
            }
            DriftStage::ReducedBandwidth { alpha, y } => {
                for (k, v) in chunk.iter_mut().enumerate() {
                    let s = cursor.at(base + k);
                    let a = 1.0 + s * (*alpha - 1.0);
                    *y += a * (*v - *y);
                    *v = *y;
                }
            }
            DriftStage::InterferenceTone { amplitude, w } => {
                for (k, v) in chunk.iter_mut().enumerate() {
                    let s = cursor.at(base + k);
                    *v += s * *amplitude * (*w * (base + k) as f64).sin();
                }
            }
        }
        Ok(())
    }
}

impl<D: Dut> Dut for DriftingDut<D> {
    fn label(&self) -> String {
        if self.faults.is_empty() {
            self.inner.label()
        } else {
            let list: Vec<String> = self.faults.iter().map(|f| f.to_string()).collect();
            format!(
                "{} [{}: {}]",
                self.inner.label(),
                self.schedule,
                list.join(", ")
            )
        }
    }

    fn gain(&self) -> f64 {
        self.inner.gain()
    }

    fn added_noise_density_sq(&self, rs: Ohms, f: f64) -> f64 {
        self.inner.added_noise_density_sq(rs, f)
    }

    fn mean_added_noise_density_sq(
        &self,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        self.inner.mean_added_noise_density_sq(rs, f_lo, f_hi)
    }

    fn process(
        &self,
        input: &[f64],
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Vec<f64>, AnalogError> {
        let mut out = if self.has_input_attenuation() {
            let mut cursor = self.cursor();
            let scaled: Vec<f64> = input
                .iter()
                .enumerate()
                .map(|(t, v)| v / self.input_divisor(cursor.at(t)))
                .collect();
            self.inner.process(&scaled, rs, sample_rate, seed)?
        } else {
            self.inner.process(input, rs, sample_rate, seed)?
        };
        let mut stages = self.build_stages(rs, sample_rate, seed)?;
        for stage in &mut stages {
            stage.apply(&mut out, 0, self.cursor())?;
        }
        Ok(out)
    }

    fn process_stream<'a>(
        &'a self,
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Box<dyn DutStream + 'a>, AnalogError> {
        Ok(Box::new(DriftingDutStream {
            dut: self,
            inner: self.inner.process_stream(rs, sample_rate, seed)?,
            stages: self.build_stages(rs, sample_rate, seed)?,
            scaled: Vec::new(),
            produced: Vec::new(),
            fed: 0,
            emitted: 0,
        }))
    }
}

/// Streaming counterpart of [`DriftingDut::process`]: the healthy inner
/// stream with the drifting stages applied to its output as it emerges,
/// severities read off the absolute input/output indices.
struct DriftingDutStream<'a, D> {
    dut: &'a DriftingDut<D>,
    inner: Box<dyn DutStream + 'a>,
    stages: Vec<DriftStage>,
    /// Reusable input-scaling buffer (input-attenuation faults).
    scaled: Vec<f64>,
    /// Reusable inner-output buffer the stages mutate in place.
    produced: Vec<f64>,
    /// Global input-sample index (attenuation severity anchor).
    fed: usize,
    /// Global output-sample index (stage severity/phase anchor).
    emitted: usize,
}

impl<D: Dut> DriftingDutStream<'_, D> {
    fn apply_stages(&mut self, out: &mut Vec<f64>) -> Result<(), AnalogError> {
        if self.produced.is_empty() {
            return Ok(());
        }
        let base = self.emitted;
        for stage in &mut self.stages {
            stage.apply(&mut self.produced, base, self.dut.cursor())?;
        }
        out.extend_from_slice(&self.produced);
        self.emitted += self.produced.len();
        Ok(())
    }
}

impl<D: Dut> DutStream for DriftingDutStream<'_, D> {
    fn push(&mut self, input: &[f64], out: &mut Vec<f64>) -> Result<(), AnalogError> {
        if input.is_empty() {
            return Ok(());
        }
        self.produced.clear();
        if self.dut.has_input_attenuation() {
            self.scaled.clear();
            let mut cursor = self.dut.cursor();
            let base = self.fed;
            self.scaled.extend(
                input
                    .iter()
                    .enumerate()
                    .map(|(k, v)| v / self.dut.input_divisor(cursor.at(base + k))),
            );
            self.inner.push(&self.scaled, &mut self.produced)?;
        } else {
            self.inner.push(input, &mut self.produced)?;
        }
        self.fed += input.len();
        self.apply_stages(out)
    }

    fn finish(&mut self, out: &mut Vec<f64>) -> Result<(), AnalogError> {
        self.produced.clear();
        self.inner.finish(&mut self.produced)?;
        self.apply_stages(out)
    }
}

/// A digital defect on the stored 1-bit stream, applied by
/// [`FaultyDigitizer`]. Defect positions are fixed per wrapper — the
/// semantics of bad latch/memory *cells*, which sit at fixed addresses
/// — so records stay deterministic per seed.
///
/// # Examples
///
/// ```
/// use nfbist_analog::bitstream::Bitstream;
/// use nfbist_analog::fault::BitFault;
///
/// let bits: Bitstream = [true, false, true, false].into_iter().collect();
/// let fault = BitFault::StuckBits { period: 2, value: false };
/// let broken = fault.apply(&bits);
/// // Every 2nd cell (positions 0, 2, …) reads back stuck-at-0.
/// assert_eq!(broken.to_bipolar(), vec![-1.0, -1.0, -1.0, -1.0]);
/// assert_eq!(fault.class(), "stuck_bits");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BitFault {
    /// Every `period`-th stored bit (positions `0, period, 2·period,
    /// …`) reads back as `value` regardless of the comparator
    /// decision — a stuck latch or memory column.
    StuckBits {
        /// Defect spacing in samples (1 sticks every bit).
        period: usize,
        /// The value the defective cells are stuck at.
        value: bool,
    },
    /// A random-but-fixed subset of positions reads back inverted —
    /// scattered single-cell defects. Each position is defective with
    /// `probability`, drawn deterministically from `seed`.
    FlippedBits {
        /// Per-position defect probability, in `(0, 1]`.
        probability: f64,
        /// Seed fixing the defective positions.
        seed: u64,
    },
}

impl BitFault {
    /// Checks the fault parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] describing the
    /// violated constraint.
    pub fn validate(&self) -> Result<(), AnalogError> {
        match *self {
            BitFault::StuckBits { period, .. } => {
                if period == 0 {
                    return Err(AnalogError::InvalidParameter {
                        name: "period",
                        reason: "stuck-bit period must be at least 1",
                    });
                }
            }
            BitFault::FlippedBits { probability, .. } => {
                if !(probability > 0.0) || !(probability <= 1.0) {
                    return Err(AnalogError::InvalidParameter {
                        name: "probability",
                        reason: "flip probability must be in (0, 1]",
                    });
                }
            }
        }
        Ok(())
    }

    /// The fault class this defect belongs to (stable snake_case key).
    pub fn class(&self) -> &'static str {
        match self {
            BitFault::StuckBits { .. } => "stuck_bits",
            BitFault::FlippedBits { .. } => "flipped_bits",
        }
    }

    /// Applies the defect to a stored record, returning the corrupted
    /// stream (same length).
    pub fn apply(&self, bits: &Bitstream) -> Bitstream {
        match *self {
            BitFault::StuckBits { period, value } => bits
                .iter()
                .enumerate()
                .map(|(i, b)| if i.is_multiple_of(period) { value } else { b })
                .collect(),
            BitFault::FlippedBits { probability, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                bits.iter()
                    .map(|b| {
                        if rng.gen::<f64>() < probability {
                            !b
                        } else {
                            b
                        }
                    })
                    .collect()
            }
        }
    }
}

impl std::fmt::Display for BitFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BitFault::StuckBits { period, value } => {
                write!(f, "stuck@{} every {period}", u8::from(value))
            }
            BitFault::FlippedBits { probability, .. } => {
                write!(f, "flips p={probability:.3}")
            }
        }
    }
}

/// A defective variant of any [`Digitizer`]: the acquisition contract
/// (reference use, conditioning gain, bits per sample) is untouched,
/// but stored **1-bit** records pass through the injected
/// [`BitFault`]s in insertion order. Multi-bit sample records are
/// returned unchanged — these faults model the comparator cell's
/// latch/memory path (paper Fig. 6), which the ADC bench does not
/// share.
///
/// # Examples
///
/// ```
/// use nfbist_analog::converter::{Digitizer, OneBitDigitizer};
/// use nfbist_analog::fault::{BitFault, FaultyDigitizer};
///
/// # fn main() -> Result<(), nfbist_analog::AnalogError> {
/// let cell = FaultyDigitizer::new(OneBitDigitizer::ideal())
///     .with_fault(BitFault::StuckBits { period: 2, value: true })?;
/// let record = cell.acquire(&[-1.0, -1.0, -1.0, -1.0], &[0.0; 4])?;
/// // A healthy cell would store all zeros; the stuck cells read 1.
/// assert_eq!(record.to_samples(), vec![1.0, -1.0, 1.0, -1.0]);
/// assert!(cell.label().contains("stuck"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FaultyDigitizer<D> {
    inner: D,
    faults: Vec<BitFault>,
}

impl<D: Digitizer> FaultyDigitizer<D> {
    /// Wraps a healthy front-end with no faults yet.
    pub fn new(inner: D) -> Self {
        FaultyDigitizer {
            inner,
            faults: Vec::new(),
        }
    }

    /// Adds one bit fault (builder style).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for out-of-domain
    /// fault parameters.
    pub fn with_fault(mut self, fault: BitFault) -> Result<Self, AnalogError> {
        fault.validate()?;
        self.faults.push(fault);
        Ok(self)
    }

    /// Adds every fault in `faults`, in order.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for the first
    /// out-of-domain fault.
    pub fn with_faults(
        mut self,
        faults: impl IntoIterator<Item = BitFault>,
    ) -> Result<Self, AnalogError> {
        for fault in faults {
            self = self.with_fault(fault)?;
        }
        Ok(self)
    }

    /// The wrapped healthy front-end.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The injected faults, in application order.
    pub fn faults(&self) -> &[BitFault] {
        &self.faults
    }
}

impl<D: Digitizer> Digitizer for FaultyDigitizer<D> {
    fn label(&self) -> String {
        if self.faults.is_empty() {
            self.inner.label()
        } else {
            let list: Vec<String> = self.faults.iter().map(|f| f.to_string()).collect();
            format!("{} [faults: {}]", self.inner.label(), list.join(", "))
        }
    }

    fn bits_per_sample(&self) -> u32 {
        self.inner.bits_per_sample()
    }

    fn uses_reference(&self) -> bool {
        self.inner.uses_reference()
    }

    fn frontend_gain(&self, hot_rms: f64, post_gain: f64) -> Result<f64, AnalogError> {
        self.inner.frontend_gain(hot_rms, post_gain)
    }

    fn acquire(&self, signal: &[f64], reference: &[f64]) -> Result<Record, AnalogError> {
        match self.inner.acquire(signal, reference)? {
            Record::Bits(mut bits) => {
                for fault in &self.faults {
                    bits = fault.apply(&bits);
                }
                Ok(Record::Bits(bits))
            }
            samples @ Record::Samples(_) => Ok(samples),
        }
    }

    fn begin_capture<'a>(&'a self) -> Box<dyn CaptureStream + 'a> {
        // Bit faults only apply to stored 1-bit records (the batch
        // `acquire` leaves multi-bit sample records untouched), so a
        // multi-bit inner front-end — or a fault-free wrapper — streams
        // straight through.
        if self.faults.is_empty() || self.inner.bits_per_sample() != 1 {
            return self.inner.begin_capture();
        }
        let stages = self
            .faults
            .iter()
            .map(|fault| match *fault {
                BitFault::StuckBits { period, value } => BitFaultStage::Stuck { period, value },
                BitFault::FlippedBits { probability, seed } => BitFaultStage::Flipped {
                    probability,
                    rng: StdRng::seed_from_u64(seed),
                },
            })
            .collect();
        Box::new(FaultyCapture {
            inner: self.inner.begin_capture(),
            stages,
            produced: Vec::new(),
            emitted: 0,
        })
    }
}

/// One [`BitFault`] as carried streaming state: defect positions are
/// functions of the global stored-bit index (and, for flips, of a
/// per-position RNG draw), so each stage carries exactly what lets the
/// chunked pass visit the same positions as the batch pass.
enum BitFaultStage {
    /// Positions `0, period, 2·period, …` stuck at `value`.
    Stuck { period: usize, value: bool },
    /// One Bernoulli draw per position from the carried RNG — the same
    /// draw sequence [`BitFault::apply`] makes over the whole record.
    Flipped { probability: f64, rng: StdRng },
}

/// Streaming counterpart of the faulted [`FaultyDigitizer::acquire`]:
/// the inner front-end's capture with the bit faults applied to the
/// expanded `±1` samples as they emerge, indexed globally.
struct FaultyCapture<'a> {
    inner: Box<dyn CaptureStream + 'a>,
    stages: Vec<BitFaultStage>,
    /// Reusable buffer of freshly expanded inner samples.
    produced: Vec<f64>,
    /// Global stored-bit index of the next sample to corrupt.
    emitted: usize,
}

impl FaultyCapture<'_> {
    /// Corrupts `self.produced` in place (each `±1` sample is a stored
    /// bit), then appends it to `out` and advances the global index.
    fn apply_stages(&mut self, out: &mut Vec<f64>) {
        let base = self.emitted;
        for (k, v) in self.produced.iter_mut().enumerate() {
            let index = base + k;
            let mut bit = *v > 0.0;
            for stage in &mut self.stages {
                match stage {
                    BitFaultStage::Stuck { period, value } => {
                        if index.is_multiple_of(*period) {
                            bit = *value;
                        }
                    }
                    BitFaultStage::Flipped { probability, rng } => {
                        // Drawn unconditionally: `BitFault::apply`
                        // advances its RNG once per position whether
                        // or not the position flips.
                        if rng.gen::<f64>() < *probability {
                            bit = !bit;
                        }
                    }
                }
            }
            *v = if bit { 1.0 } else { -1.0 };
        }
        out.extend_from_slice(&self.produced);
        self.emitted += self.produced.len();
    }
}

impl CaptureStream for FaultyCapture<'_> {
    fn push(
        &mut self,
        signal: &[f64],
        reference: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), AnalogError> {
        self.produced.clear();
        self.inner.push(signal, reference, &mut self.produced)?;
        self.apply_stages(out);
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<f64>) -> Result<(), AnalogError> {
        self.produced.clear();
        self.inner.finish(&mut self.produced)?;
        self.apply_stages(out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::NonInvertingAmplifier;
    use crate::component::Amplifier;
    use crate::converter::{AdcDigitizer, OneBitDigitizer};
    use crate::opamp::OpampModel;

    fn paper_dut() -> NonInvertingAmplifier {
        NonInvertingAmplifier::new(OpampModel::tl081(), Ohms::new(10_000.0), Ohms::new(100.0))
            .unwrap()
    }

    #[test]
    fn fault_validation() {
        assert!(AnalogFault::InputAttenuation { factor: 0.5 }
            .validate()
            .is_err());
        assert!(AnalogFault::GainDeviation { factor: 0.0 }
            .validate()
            .is_err());
        assert!(AnalogFault::ExcessNoise { factor: 0.99 }
            .validate()
            .is_err());
        assert!(AnalogFault::ReducedBandwidth { corner_hz: -1.0 }
            .validate()
            .is_err());
        assert!(AnalogFault::InterferenceTone {
            frequency: 0.0,
            amplitude_fraction: 0.5
        }
        .validate()
        .is_err());
        assert!(AnalogFault::InterferenceTone {
            frequency: 500.0,
            amplitude_fraction: f64::NAN
        }
        .validate()
        .is_err());
        assert!(BitFault::StuckBits {
            period: 0,
            value: true
        }
        .validate()
        .is_err());
        assert!(BitFault::FlippedBits {
            probability: 0.0,
            seed: 1
        }
        .validate()
        .is_err());
        assert!(BitFault::FlippedBits {
            probability: 1.5,
            seed: 1
        }
        .validate()
        .is_err());
        // Builder surfaces the validation.
        assert!(FaultyDut::new(paper_dut())
            .with_fault(AnalogFault::ExcessNoise { factor: 0.1 })
            .is_err());
        assert!(FaultyDigitizer::new(OneBitDigitizer::ideal())
            .with_fault(BitFault::StuckBits {
                period: 0,
                value: false
            })
            .is_err());
    }

    #[test]
    fn analytic_model_stays_healthy() {
        let rs = Ohms::new(2_000.0);
        let healthy = paper_dut();
        let faulty = FaultyDut::new(paper_dut())
            .with_faults([
                AnalogFault::InputAttenuation { factor: 2.0 },
                AnalogFault::ExcessNoise { factor: 4.0 },
                AnalogFault::GainDeviation { factor: 0.5 },
            ])
            .unwrap();
        assert_eq!(Dut::gain(&faulty), Dut::gain(&healthy));
        assert_eq!(
            faulty.added_noise_density_sq(rs, 500.0),
            Dut::added_noise_density_sq(&healthy, rs, 500.0)
        );
        assert_eq!(
            faulty.expected_noise_figure_db(rs, 100.0, 1_000.0).unwrap(),
            healthy
                .expected_noise_figure_db(rs, 100.0, 1_000.0)
                .unwrap()
        );
        assert_eq!(faulty.faults().len(), 3);
        assert!(faulty.label().contains("faults:"));
        // No faults → identity wrapper with the inner label.
        let identity = FaultyDut::new(paper_dut());
        assert_eq!(identity.label(), paper_dut().label());
    }

    #[test]
    fn faulty_expectation_composes_noise_and_attenuation() {
        let rs = Ohms::new(2_000.0);
        let dut = FaultyDut::new(paper_dut())
            .with_faults([
                AnalogFault::InputAttenuation { factor: 2.0 },
                AnalogFault::ExcessNoise { factor: 3.0 },
                // NF-invisible classes must not shift the expectation.
                AnalogFault::GainDeviation { factor: 0.5 },
                AnalogFault::ReducedBandwidth { corner_hz: 500.0 },
            ])
            .unwrap();
        let healthy = paper_dut()
            .expected_noise_factor(rs, 100.0, 1_000.0)
            .unwrap();
        let faulty = dut
            .faulty_expected_noise_factor(rs, 100.0, 1_000.0)
            .unwrap();
        // F' = 1 + a²·k·(F−1) with a = 2, k = 3.
        assert!((faulty - (1.0 + 12.0 * (healthy - 1.0))).abs() < 1e-12);
        // And the healthy wrapper is the identity.
        let identity = FaultyDut::new(paper_dut());
        let same = identity
            .faulty_expected_noise_factor(rs, 100.0, 1_000.0)
            .unwrap();
        assert!((same - healthy).abs() < 1e-12);
    }

    #[test]
    fn gain_deviation_scales_the_output_exactly() {
        let fs = 20_000.0;
        let rs = Ohms::new(2_000.0);
        let tone: Vec<f64> = (0..4_096)
            .map(|i| 0.01 * (std::f64::consts::TAU * 500.0 * i as f64 / fs).sin())
            .collect();
        let healthy = Dut::process(&paper_dut(), &tone, rs, fs, 9).unwrap();
        let faulty = FaultyDut::new(paper_dut())
            .with_fault(AnalogFault::GainDeviation { factor: 0.5 })
            .unwrap();
        let broken = faulty.process(&tone, rs, fs, 9).unwrap();
        for (h, b) in healthy.iter().zip(&broken) {
            assert!((b - 0.5 * h).abs() < 1e-12);
        }
    }

    #[test]
    fn input_attenuation_halves_the_signal_but_not_the_noise() {
        let fs = 20_000.0;
        let rs = Ohms::new(2_000.0);
        // A noiseless behavioural stage isolates the signal path.
        let faulty = FaultyDut::new(Amplifier::ideal(10.0).unwrap())
            .with_fault(AnalogFault::InputAttenuation { factor: 2.0 })
            .unwrap();
        let out = faulty.process(&[1.0, -2.0], rs, fs, 0).unwrap();
        assert!((out[0] - 5.0).abs() < 1e-12);
        assert!((out[1] + 10.0).abs() < 1e-12);
        // On a noisy DUT, silence in → the DUT's own noise out,
        // unattenuated: same output power as healthy.
        let silence = vec![0.0; 65_536];
        let healthy_out = Dut::process(&paper_dut(), &silence, rs, fs, 5).unwrap();
        let faulty_dut = FaultyDut::new(paper_dut())
            .with_fault(AnalogFault::InputAttenuation { factor: 2.0 })
            .unwrap();
        let faulty_out = faulty_dut.process(&silence, rs, fs, 5).unwrap();
        let ph = nfbist_dsp::stats::mean_square(&healthy_out).unwrap();
        let pf = nfbist_dsp::stats::mean_square(&faulty_out).unwrap();
        assert!((ph - pf).abs() / ph < 1e-9, "{ph} vs {pf}");
    }

    #[test]
    fn excess_noise_raises_output_power_by_the_factor() {
        let fs = 20_000.0;
        let rs = Ohms::new(2_000.0);
        let silence = vec![0.0; 1 << 17];
        let healthy = Dut::process(&paper_dut(), &silence, rs, fs, 21).unwrap();
        let faulty = FaultyDut::new(paper_dut())
            .with_fault(AnalogFault::ExcessNoise { factor: 4.0 })
            .unwrap();
        let broken = faulty.process(&silence, rs, fs, 21).unwrap();
        let ph = nfbist_dsp::stats::mean_square(&healthy).unwrap();
        let pf = nfbist_dsp::stats::mean_square(&broken).unwrap();
        // Independent excess of (k−1)× the healthy power ⇒ total ≈ k×.
        assert!(
            (pf / ph - 4.0).abs() < 0.4,
            "power ratio {} (expected ≈4)",
            pf / ph
        );
    }

    #[test]
    fn reduced_bandwidth_attenuates_high_frequencies_more() {
        let fs = 20_000.0;
        let rs = Ohms::new(1_000.0);
        let faulty = FaultyDut::new(Amplifier::ideal(1.0).unwrap())
            .with_fault(AnalogFault::ReducedBandwidth { corner_hz: 200.0 })
            .unwrap();
        let n = 8_192;
        let tone = |f: f64| -> Vec<f64> {
            (0..n)
                .map(|i| (std::f64::consts::TAU * f * i as f64 / fs).sin())
                .collect()
        };
        let lo = faulty.process(&tone(100.0), rs, fs, 0).unwrap();
        let hi = faulty.process(&tone(2_000.0), rs, fs, 0).unwrap();
        let p_lo = nfbist_dsp::stats::mean_square(&lo[n / 2..]).unwrap();
        let p_hi = nfbist_dsp::stats::mean_square(&hi[n / 2..]).unwrap();
        assert!(p_lo > 4.0 * p_hi, "lo {p_lo} vs hi {p_hi}");
    }

    #[test]
    fn interference_tone_is_absolute_and_detectable() {
        let fs = 20_000.0;
        let rs = Ohms::new(2_000.0);
        let faulty = FaultyDut::new(paper_dut())
            .with_fault(AnalogFault::InterferenceTone {
                frequency: 500.0,
                amplitude_fraction: 1.0,
            })
            .unwrap();
        let silence = vec![0.0; 1 << 15];
        let out = faulty.process(&silence, rs, fs, 3).unwrap();
        // The tone stands out of the noise floor on a Goertzel line.
        let g = nfbist_dsp::goertzel::Goertzel::new(500.0, fs).unwrap();
        let line = g.power_iter(out.iter().copied()).unwrap();
        let total = nfbist_dsp::stats::mean_square(&out).unwrap();
        assert!(
            line / total > 0.3,
            "tone fraction {} of total power",
            line / total
        );
        // Identical absolute amplitude regardless of the input level:
        // the tone must NOT scale with a hot acquisition.
        let healthy_rms = faulty.reference_output_rms(rs, fs).unwrap();
        assert!(healthy_rms > 0.0);
    }

    #[test]
    fn stuck_and_flipped_bits_are_deterministic() {
        let bits: Bitstream = (0..1_000).map(|i| i % 3 == 0).collect();
        let stuck = BitFault::StuckBits {
            period: 4,
            value: true,
        };
        let broken = stuck.apply(&bits);
        assert_eq!(broken.len(), bits.len());
        for i in (0..1_000).step_by(4) {
            assert_eq!(broken.get(i), Some(true));
        }
        // Un-stuck positions are untouched.
        assert_eq!(broken.get(1), bits.get(1));

        let flip = BitFault::FlippedBits {
            probability: 1.0,
            seed: 5,
        };
        let inverted = flip.apply(&bits);
        for i in 0..1_000 {
            assert_eq!(inverted.get(i), bits.get(i).map(|b| !b));
        }
        // Fixed defect positions: two applications agree.
        let flip = BitFault::FlippedBits {
            probability: 0.2,
            seed: 5,
        };
        assert_eq!(flip.apply(&bits), flip.apply(&bits));
        let differing = (0..1_000)
            .filter(|&i| flip.apply(&bits).get(i) != bits.get(i))
            .count();
        assert!(
            (100..350).contains(&differing),
            "flip count {differing} for p = 0.2"
        );
    }

    #[test]
    fn faulty_digitizer_corrupts_bits_but_not_samples() {
        let signal = vec![-1.0; 64];
        let reference = vec![0.0; 64];
        let faulty = FaultyDigitizer::new(OneBitDigitizer::ideal())
            .with_fault(BitFault::StuckBits {
                period: 2,
                value: true,
            })
            .unwrap();
        assert_eq!(faulty.bits_per_sample(), 1);
        assert!(faulty.uses_reference());
        assert_eq!(faulty.frontend_gain(0.1, 100.0).unwrap(), 100.0);
        let record = faulty.acquire(&signal, &reference).unwrap();
        let bits = record.as_bits().unwrap();
        assert_eq!(bits.ones(), 32, "half the cells are stuck at 1");

        // The ADC path stores samples; bit faults do not apply.
        let adc = FaultyDigitizer::new(AdcDigitizer::new(12).unwrap())
            .with_fault(BitFault::StuckBits {
                period: 2,
                value: true,
            })
            .unwrap();
        let clean = AdcDigitizer::new(12)
            .unwrap()
            .acquire(&signal, &reference)
            .unwrap();
        let faulted = adc.acquire(&signal, &reference).unwrap();
        assert_eq!(clean.to_samples(), faulted.to_samples());
        assert!(!adc.uses_reference());
        // Identity wrapper keeps the inner label.
        assert_eq!(
            FaultyDigitizer::new(OneBitDigitizer::ideal()).label(),
            OneBitDigitizer::ideal().label()
        );
    }

    #[test]
    fn faults_compose_in_order() {
        let bits: Bitstream = (0..100).map(|_| false).collect();
        let d = FaultyDigitizer::new(OneBitDigitizer::ideal())
            .with_faults([
                BitFault::StuckBits {
                    period: 2,
                    value: true,
                },
                BitFault::FlippedBits {
                    probability: 1.0,
                    seed: 0,
                },
            ])
            .unwrap();
        assert_eq!(d.faults().len(), 2);
        // stuck-at-1 every 2, then invert all: even positions 0, odd 1.
        let record = d.acquire(&vec![-1.0; 100], &vec![0.0; 100]).unwrap();
        let out = record.as_bits().unwrap();
        for i in 0..100 {
            assert_eq!(out.get(i), Some(i % 2 == 1), "position {i}");
        }
        let _ = bits;
    }

    /// A deterministic pseudo-signal long enough to exercise chunk
    /// carries in every fault stage.
    fn test_input(n: usize) -> Vec<f64> {
        let mut state = 0x1234_5678_9abc_def0u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e-5
            })
            .collect()
    }

    #[test]
    fn faulty_dut_stream_is_bit_identical_to_batch_for_every_fault_class() {
        let rs = Ohms::new(2_000.0);
        let fs = 2.0e4;
        let seed = 77;
        let input = test_input(10_000);
        // Every fault class at once, so the stream exercises input
        // scaling and all four output stages with their carried state.
        let dut = FaultyDut::new(paper_dut())
            .with_faults([
                AnalogFault::InputAttenuation { factor: 1.5 },
                AnalogFault::GainDeviation { factor: 0.8 },
                AnalogFault::ExcessNoise { factor: 3.0 },
                AnalogFault::ReducedBandwidth { corner_hz: 700.0 },
                AnalogFault::InterferenceTone {
                    frequency: 500.0,
                    amplitude_fraction: 0.4,
                },
            ])
            .unwrap();
        let batch = dut.process(&input, rs, fs, seed).unwrap();
        for chunk_len in [1usize, 997, 4_096] {
            let mut stream = dut.process_stream(rs, fs, seed).unwrap();
            let mut out = Vec::new();
            for chunk in input.chunks(chunk_len) {
                stream.push(chunk, &mut out).unwrap();
            }
            stream.finish(&mut out).unwrap();
            assert_eq!(out.len(), batch.len(), "chunk {chunk_len}");
            for (i, (s, b)) in out.iter().zip(&batch).enumerate() {
                assert_eq!(s.to_bits(), b.to_bits(), "chunk {chunk_len}, sample {i}");
            }
        }
    }

    #[test]
    fn drift_schedule_shapes_and_validation() {
        assert!(DriftSchedule::Linear { onset: 0, ramp: 0 }
            .validate()
            .is_err());
        assert!(DriftSchedule::Exponential { onset: 0, tau: 0 }
            .validate()
            .is_err());
        assert!(DriftSchedule::Step { at: 0 }.validate().is_ok());

        let lin = DriftSchedule::Linear {
            onset: 100,
            ramp: 200,
        };
        assert_eq!(lin.severity(99), 0.0);
        assert_eq!(lin.severity(200), 0.5);
        assert_eq!(lin.severity(300), 1.0);
        assert_eq!(lin.severity(10_000), 1.0);

        let step = DriftSchedule::Step { at: 50 };
        assert_eq!(step.severity(49), 0.0);
        assert_eq!(step.severity(50), 1.0);

        let exp = DriftSchedule::Exponential { onset: 10, tau: 20 };
        assert_eq!(exp.severity(9), 0.0);
        assert!((exp.severity(30) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        // Monotone non-decreasing.
        let mut prev = 0.0;
        for t in 0..200 {
            let s = exp.severity(t);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn drifting_dut_builder_and_analytics() {
        let rs = Ohms::new(2_000.0);
        let schedule = DriftSchedule::Linear {
            onset: 0,
            ramp: 1 << 16,
        };
        assert!(
            DriftingDut::new(paper_dut(), DriftSchedule::Linear { onset: 0, ramp: 0 }).is_err()
        );
        let dut = DriftingDut::new(paper_dut(), schedule)
            .unwrap()
            .with_faults([
                AnalogFault::ExcessNoise { factor: 4.0 },
                AnalogFault::InputAttenuation { factor: 2.0 },
            ])
            .unwrap()
            .update_stride(512)
            .unwrap();
        assert!(dut.clone().update_stride(0).is_err());
        assert!(dut
            .clone()
            .with_fault(AnalogFault::ExcessNoise { factor: 0.5 })
            .is_err());
        assert_eq!(dut.update_stride_samples(), 512);
        assert_eq!(dut.schedule(), schedule);
        assert_eq!(dut.faults().len(), 2);
        assert!(dut.label().contains("drift"));
        // Severity is quantized to the stride.
        assert_eq!(dut.severity_at(511), 0.0);
        assert_eq!(dut.severity_at(513), dut.severity_at(1023));
        // Analytic model stays healthy; the drifting expectation spans
        // healthy → FaultyDut's full-severity value.
        let healthy = paper_dut()
            .expected_noise_factor(rs, 100.0, 1_000.0)
            .unwrap();
        assert_eq!(
            dut.expected_noise_factor(rs, 100.0, 1_000.0).unwrap(),
            healthy
        );
        let at_zero = dut
            .drifting_expected_noise_factor_at(0, rs, 100.0, 1_000.0)
            .unwrap();
        assert!((at_zero - healthy).abs() < 1e-12);
        let full = FaultyDut::new(paper_dut())
            .with_faults([
                AnalogFault::ExcessNoise { factor: 4.0 },
                AnalogFault::InputAttenuation { factor: 2.0 },
            ])
            .unwrap()
            .faulty_expected_noise_factor(rs, 100.0, 1_000.0)
            .unwrap();
        let at_end = dut
            .drifting_expected_noise_factor_at(1 << 20, rs, 100.0, 1_000.0)
            .unwrap();
        assert!((at_end - full).abs() < 1e-12);
        let mid = dut
            .drifting_expected_noise_factor_at(1 << 15, rs, 100.0, 1_000.0)
            .unwrap();
        assert!(mid > at_zero && mid < at_end);
    }

    #[test]
    fn drifting_dut_stream_is_bit_identical_to_batch_for_every_fault_class() {
        let rs = Ohms::new(2_000.0);
        let fs = 2.0e4;
        let seed = 91;
        let input = test_input(10_000);
        let dut = DriftingDut::new(
            paper_dut(),
            DriftSchedule::Exponential {
                onset: 1_500,
                tau: 2_000,
            },
        )
        .unwrap()
        .with_faults([
            AnalogFault::InputAttenuation { factor: 1.5 },
            AnalogFault::GainDeviation { factor: 0.8 },
            AnalogFault::ExcessNoise { factor: 3.0 },
            AnalogFault::ReducedBandwidth { corner_hz: 700.0 },
            AnalogFault::InterferenceTone {
                frequency: 500.0,
                amplitude_fraction: 0.4,
            },
        ])
        .unwrap()
        .update_stride(512)
        .unwrap();
        let batch = dut.process(&input, rs, fs, seed).unwrap();
        for chunk_len in [1usize, 997, 4_096] {
            let mut stream = dut.process_stream(rs, fs, seed).unwrap();
            let mut out = Vec::new();
            for chunk in input.chunks(chunk_len) {
                stream.push(chunk, &mut out).unwrap();
            }
            stream.finish(&mut out).unwrap();
            assert_eq!(out.len(), batch.len(), "chunk {chunk_len}");
            for (i, (s, b)) in out.iter().zip(&batch).enumerate() {
                assert_eq!(s.to_bits(), b.to_bits(), "chunk {chunk_len}, sample {i}");
            }
        }
    }

    #[test]
    fn drifting_dut_is_healthy_before_the_step_and_louder_after() {
        let rs = Ohms::new(2_000.0);
        let fs = 2.0e4;
        let seed = 13;
        let n = 1 << 15;
        let at = n / 2;
        let silence = vec![0.0; n];
        let healthy = Dut::process(&paper_dut(), &silence, rs, fs, seed).unwrap();
        // Memoryless stages only (no bandwidth pole), so severity 0 is
        // the exact identity per sample.
        let dut = DriftingDut::new(paper_dut(), DriftSchedule::Step { at })
            .unwrap()
            .with_faults([
                AnalogFault::GainDeviation { factor: 2.0 },
                AnalogFault::ExcessNoise { factor: 8.0 },
            ])
            .unwrap()
            .update_stride(256)
            .unwrap();
        let out = dut.process(&silence, rs, fs, seed).unwrap();
        for i in 0..at {
            assert_eq!(out[i].to_bits(), healthy[i].to_bits(), "sample {i}");
        }
        let before = nfbist_dsp::stats::mean_square(&out[..at]).unwrap();
        let after = nfbist_dsp::stats::mean_square(&out[at..]).unwrap();
        // Gain ×2 (power ×4) and noise ×8 ⇒ roughly 32× the power.
        assert!(after / before > 10.0, "ratio {}", after / before);
    }

    #[test]
    fn faulty_capture_stream_is_bit_identical_to_batch_acquire() {
        let d = FaultyDigitizer::new(OneBitDigitizer::ideal())
            .with_faults([
                BitFault::StuckBits {
                    period: 7,
                    value: true,
                },
                BitFault::FlippedBits {
                    probability: 0.05,
                    seed: 3,
                },
            ])
            .unwrap();
        let signal = test_input(5_000);
        let reference = vec![0.0; signal.len()];
        let batch = d.acquire(&signal, &reference).unwrap().to_samples();
        for chunk_len in [1usize, 333, 2_048] {
            let mut capture = d.begin_capture();
            let mut out = Vec::new();
            for (s, r) in signal.chunks(chunk_len).zip(reference.chunks(chunk_len)) {
                capture.push(s, r, &mut out).unwrap();
            }
            capture.finish(&mut out).unwrap();
            assert_eq!(out, batch, "chunk {chunk_len}");
        }
    }

    #[test]
    fn fault_free_and_multibit_captures_pass_straight_through() {
        // No faults: the wrapper must not pay the corruption pass.
        let clean = FaultyDigitizer::new(OneBitDigitizer::ideal());
        let signal = test_input(512);
        let zeros = vec![0.0; signal.len()];
        let mut capture = clean.begin_capture();
        let mut out = Vec::new();
        capture.push(&signal, &zeros, &mut out).unwrap();
        capture.finish(&mut out).unwrap();
        assert_eq!(out, clean.acquire(&signal, &zeros).unwrap().to_samples());
        // Multi-bit records are untouched by bit faults, streamed or not.
        let adc = FaultyDigitizer::new(AdcDigitizer::new(8).unwrap())
            .with_fault(BitFault::StuckBits {
                period: 2,
                value: true,
            })
            .unwrap();
        let mut capture = adc.begin_capture();
        let mut out = Vec::new();
        capture.push(&signal, &zeros, &mut out).unwrap();
        capture.finish(&mut out).unwrap();
        assert_eq!(out, adc.acquire(&signal, &zeros).unwrap().to_samples());
    }
}
