//! The batch path of `MeasurementSession::run`, rebuilt step for step
//! from the library's public functions so that every layer can be
//! timed from outside.
//!
//! The seed derivation copies the session's `acquire_conditioned`
//! (repeat 0): the source is seeded with `seed ^ 0xA5A5_A5A5`, the cold
//! state first draws one sample to advance the source stream, and the
//! DUT noise is seeded with `(seed + salt) · 0x9E37` where the salt is 1
//! for hot and 2 for cold. The estimator tail copies
//! `OneBitPowerRatio`'s defaults: Hann window, a ±2 % search window,
//! a ±3-bin line and harmonics 2–9 excluded. Callers compare the
//! resulting Y ratio bit for bit with `session.run()`, so any drift
//! between this copy and the library shows up as a failed check rather
//! than as a wrong profile.

use crate::measure::Spans;
use nfbist_analog::converter::Record;
use nfbist_analog::noise::{CalibratedNoiseSource, NoiseSourceState};
use nfbist_analog::units::Kelvin;
use nfbist_core::estimator::NfMeasurement;
use nfbist_core::normalize::{normalize_to_reference, ReferenceTracker};
use nfbist_core::power_ratio::{OneBitRatioEstimate, RatioDetail, RatioEstimate};
use nfbist_dsp::psd::{DspWorkspace, WelchConfig};
use nfbist_dsp::spectrum::Spectrum;
use nfbist_dsp::window::Window;
use nfbist_soc::session::{Measurement, MeasurementSession, RepeatMeasurement};
use nfbist_soc::setup::BistSetup;
use std::error::Error;
use std::time::Instant;

/// Reference harmonics `2f … 9f` excluded from the noise band (the
/// 1-bit estimator's default).
const EXCLUDED_HARMONICS: usize = 9;

/// Stage spans of one traced measurement, in the order the pipeline
/// runs them. `core.estimate` encloses both `dsp.welch` spans; every
/// other span is top-level.
pub const TOP_LEVEL_SPANS: [&str; 9] = [
    "soc.conditioning",
    "analog.source",
    "analog.dut",
    "soc.condition",
    "analog.digitize",
    "analog.expand",
    "core.estimate",
    "core.yfactor",
    "soc.combine",
];

/// One traced measurement: the session's result rebuilt outside it,
/// its stage spans and the work it did.
pub struct TracedMeasurement {
    pub measurement: Measurement,
    pub spans: Spans,
    /// Wall time of the whole traced measurement, in seconds.
    pub wall: f64,
    /// Noise samples delivered by the source and the DUT model.
    pub samples_synthesized: u64,
    /// Bytes of record-length buffers the batch path allocated.
    pub bytes_materialized: u64,
}

impl TracedMeasurement {
    /// `core.estimate` minus its two Welch spans: the normalization,
    /// exclusion and band-ratio tail.
    pub fn normalize_self_time(&self) -> f64 {
        self.spans.get("core.estimate") - self.spans.get("dsp.welch")
    }

    /// The share of the traced wall time the top-level spans cover.
    pub fn coverage(&self) -> f64 {
        TOP_LEVEL_SPANS
            .iter()
            .map(|name| self.spans.get(name))
            .sum::<f64>()
            / self.wall
    }
}

/// The traced batch pipeline for one setup: the Welch configuration,
/// reference tracker and a workspace whose FFT plan is built once,
/// as the session's estimator caches its own.
pub struct BatchPipeline {
    welch: WelchConfig,
    tracker: ReferenceTracker,
    workspace: DspWorkspace,
}

impl BatchPipeline {
    pub fn new(setup: &BistSetup) -> Result<Self, Box<dyn Error>> {
        let welch = WelchConfig::new(setup.nfft)?.window(Window::Hann);
        let tracker = ReferenceTracker::new(
            setup.reference_frequency,
            0.02 * setup.reference_frequency,
            3,
        )?;
        let mut workspace = DspWorkspace::new();
        workspace.plan(setup.nfft, Window::Hann)?;
        Ok(BatchPipeline {
            welch,
            tracker,
            workspace,
        })
    }

    /// Runs one measurement (repeat 0) of `session` through the traced
    /// copy of its batch path.
    pub fn run(
        &mut self,
        session: &MeasurementSession,
    ) -> Result<TracedMeasurement, Box<dyn Error>> {
        let start = Instant::now();
        let setup = session.setup();
        let mut spans = Spans::default();
        let mut work = Work::default();

        let (gain, reference) = spans.time("soc.conditioning", || session.conditioning())?;
        work.bytes += 8 * reference.len() as u64;
        let hot = acquire(
            session,
            NoiseSourceState::Hot,
            gain,
            &reference,
            &mut spans,
            &mut work,
        )?;
        let cold = acquire(
            session,
            NoiseSourceState::Cold,
            gain,
            &reference,
            &mut spans,
            &mut work,
        )?;
        drop(reference);
        let hot = spans.time("analog.expand", || hot.to_samples());
        let cold = spans.time("analog.expand", || cold.to_samples());
        work.bytes += 8 * (hot.len() + cold.len()) as u64;

        let estimate_start = Instant::now();
        let fs = setup.sample_rate;
        let (welch, ws) = (&self.welch, &mut self.workspace);
        let psd_hot = spans.time("dsp.welch", || welch.estimate_with(&hot, fs, ws))?;
        let psd_cold = spans.time("dsp.welch", || welch.estimate_with(&cold, fs, ws))?;
        let estimate = self.finish(setup, psd_hot, psd_cold)?;
        spans.add("core.estimate", estimate_start.elapsed().as_secs_f64());
        drop((hot, cold));

        let nf = spans.time("core.yfactor", || {
            NfMeasurement::from_y(estimate.ratio, setup.hot_kelvin, setup.cold_kelvin).ok()
        });
        let ratio = RatioEstimate {
            ratio: estimate.ratio,
            hot_power: estimate.hot_noise_power,
            cold_power: estimate.cold_noise_power,
            detail: RatioDetail::OneBit(Box::new(estimate)),
        };
        let measurement = spans.time("soc.combine", || {
            session.combine(vec![RepeatMeasurement { nf, ratio }])
        })?;
        Ok(TracedMeasurement {
            measurement,
            spans,
            wall: start.elapsed().as_secs_f64(),
            samples_synthesized: work.samples,
            bytes_materialized: work.bytes,
        })
    }

    /// The 1-bit estimator's tail: reference normalization, exclusion
    /// of the reference line and its harmonics, band-power ratio.
    fn finish(
        &self,
        setup: &BistSetup,
        psd_hot: Spectrum,
        psd_cold: Spectrum,
    ) -> Result<OneBitRatioEstimate, Box<dyn Error>> {
        let (psd_cold_norm, normalization) =
            normalize_to_reference(&psd_hot, &psd_cold, &self.tracker)?;
        let mut excluded: Vec<usize> = Vec::new();
        excluded.extend(&normalization.anchor_line.bins);
        excluded.extend(&normalization.scaled_line.bins);
        excluded.extend(self.tracker.harmonic_bins(
            &psd_hot,
            &normalization.anchor_line,
            EXCLUDED_HARMONICS,
        )?);
        excluded.sort_unstable();
        excluded.dedup();
        let (lo, hi) = setup.noise_band;
        let hot_noise = psd_hot.band_power_excluding(lo, hi, &excluded)?;
        let cold_noise_norm = psd_cold_norm.band_power_excluding(lo, hi, &excluded)?;
        if !(cold_noise_norm > 0.0) {
            return Err("normalized cold noise band carries no power".into());
        }
        Ok(OneBitRatioEstimate {
            ratio: hot_noise / cold_noise_norm,
            hot_noise_power: hot_noise,
            cold_noise_power: cold_noise_norm / normalization.scale,
            normalization,
            hot_spectrum: psd_hot,
            cold_spectrum_normalized: psd_cold_norm,
        })
    }
}

#[derive(Default)]
struct Work {
    samples: u64,
    bytes: u64,
}

/// One source state's acquisition: source noise → DUT → conditioning
/// gain → digitizer, seeded exactly as the session seeds repeat 0.
fn acquire(
    session: &MeasurementSession,
    state: NoiseSourceState,
    gain: f64,
    reference: &[f64],
    spans: &mut Spans,
    work: &mut Work,
) -> Result<Record, Box<dyn Error>> {
    let setup = session.setup();
    let (n, fs, rs) = (setup.samples, setup.sample_rate, setup.source_resistance);
    let seed = setup.seed;
    let salt = match state {
        NoiseSourceState::Hot => 1u64,
        NoiseSourceState::Cold => 2u64,
    };
    let source_noise = spans.time("analog.source", || {
        let mut src = CalibratedNoiseSource::new(
            Kelvin::new(setup.hot_kelvin),
            Kelvin::new(setup.cold_kelvin),
            rs,
            seed ^ 0xA5A5_A5A5,
        )?;
        if setup.hot_calibration_error != 0.0 {
            src.set_hot_error(setup.hot_calibration_error)?;
        }
        if state == NoiseSourceState::Cold {
            src.generate(state, 1, fs)?;
        }
        src.generate(state, n, fs)
    })?;
    let dut_out = spans.time("analog.dut", || {
        session.dut_ref().process(
            &source_noise,
            rs,
            fs,
            seed.wrapping_add(salt).wrapping_mul(0x9E37),
        )
    })?;
    let conditioned: Vec<f64> = spans.time("soc.condition", || {
        dut_out.iter().map(|v| v * gain).collect()
    });
    let record = spans.time("analog.digitize", || {
        session.digitizer_ref().acquire(&conditioned, reference)
    })?;
    let cold_advance = u64::from(state == NoiseSourceState::Cold);
    work.samples += source_noise.len() as u64 + cold_advance + dut_out.len() as u64;
    work.bytes += 8 * (source_noise.len() + dut_out.len() + conditioned.len()) as u64
        + record.memory_bytes() as u64;
    Ok(record)
}
