//! Chunked (bounded-memory) power-ratio estimation.
//!
//! The batch [`PowerRatioEstimator`] consumes whole hot/cold records,
//! tying acquisition length to RAM, yet the paper's accuracy improves
//! with *longer* records, so record length should be a pure test-*time*
//! cost — as in the hardware, where the correlator integrates on the
//! fly. [`PowerRatioEstimator::begin`] opens a [`RatioAccumulator`]
//! that consumes the two records chunk by chunk in `O(segment)` memory
//! under an [`EstimatorWindow`]:
//!
//! * [`EstimatorWindow::Cumulative`] keeps everything and finishes into
//!   the **identical** [`RatioEstimate`] (per `f64::to_bits`) the batch
//!   estimator computes over the concatenated records. Streaming
//!   sessions and sequential screens run on it.
//! * [`EstimatorWindow::Sliding`] and [`EstimatorWindow::Forgetting`]
//!   retire old data for in-field monitoring, where a drift after 10⁷
//!   healthy samples would be diluted away by a cumulative estimate.
//!
//! Two accumulators serve all three Table 2 estimators: running power
//! sums for [`MeanSquareEstimator`] (cumulatively, exactly the batch
//! fold), and one [`WelchAccumulator`] per record for
//! [`PsdRatioEstimator`] and [`OneBitPowerRatio`], feeding the spectral
//! tail their batch `estimate` ends in. [`windowed_nf_point`] turns any
//! snapshot into an NF estimate with a finite-window sigma, the
//! emission primitive of the monitor layer.
//!
//! ```
//! use nfbist_core::power_ratio::{PowerRatioEstimator, PsdRatioEstimator};
//! use nfbist_core::streaming::EstimatorWindow;
//!
//! # fn main() -> Result<(), nfbist_core::CoreError> {
//! let est = PsdRatioEstimator::new(20_000.0, 1_024, (100.0, 9_000.0))?;
//! let hot: Vec<f64> = (0..8_192).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
//! let cold: Vec<f64> = hot.iter().map(|v| v * 0.5).collect();
//!
//! let batch = est.estimate(&hot, &cold)?;
//! let mut acc = est.begin(EstimatorWindow::Cumulative)?;
//! for (h, c) in hot.chunks(700).zip(cold.chunks(700)) {
//!     acc.push_hot(h)?;
//!     acc.push_cold(c)?;
//! }
//! let streamed = acc.finish()?;
//! assert_eq!(streamed.ratio.to_bits(), batch.ratio.to_bits());
//! # Ok(())
//! # }
//! ```
//!
//! [`PowerRatioEstimator`]: crate::power_ratio::PowerRatioEstimator
//! [`PowerRatioEstimator::begin`]: crate::power_ratio::PowerRatioEstimator::begin
//! [`MeanSquareEstimator`]: crate::power_ratio::MeanSquareEstimator
//! [`PsdRatioEstimator`]: crate::power_ratio::PsdRatioEstimator
//! [`OneBitPowerRatio`]: crate::power_ratio::OneBitPowerRatio

use crate::figure::NoiseFactor;
use crate::power_ratio::{MeanSquareEstimator, RatioEstimate};
use crate::{uncertainty, yfactor, CoreError};
use nfbist_dsp::psd::{
    ForgettingWelch, RetentionStore, SlidingWelch, WelchAccumulator, WelchConfig,
};
use nfbist_dsp::spectrum::Spectrum;
use nfbist_dsp::DspError;

/// An in-flight ratio estimate: hot/cold chunks in, a
/// [`RatioEstimate`] over the current [`EstimatorWindow`] out at any
/// point.
///
/// Hot and cold pushes may be interleaved arbitrarily — the two
/// records accumulate independently; only the per-record chunk order
/// matters (and it is the record order). Every snapshot is a pure
/// function of the absolute sample streams: chunk boundaries never
/// change a bit.
pub trait RatioAccumulator: Send {
    /// Consumes one chunk of the hot record.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    fn push_hot(&mut self, chunk: &[f64]) -> Result<(), CoreError>;

    /// Consumes one chunk of the cold record.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    fn push_cold(&mut self, chunk: &[f64]) -> Result<(), CoreError>;

    /// Forms the ratio over the current window without disturbing the
    /// accumulation — the interim estimate a sequential screen consults
    /// at each checkpoint and a monitor emits. Cumulatively it is bitwise
    /// the batch estimate over everything pushed so far; over a sliding
    /// window the Welch-based estimators return bitwise the batch
    /// estimate over exactly the retained samples (the mean-square path
    /// regroups its fold blockwise, so it agrees to rounding only).
    ///
    /// # Errors
    ///
    /// The batch estimator's failure modes at the current window
    /// content: empty/short records and [`CoreError::Degenerate`]
    /// ratios.
    fn snapshot(&self) -> Result<RatioEstimate, CoreError>;

    /// Raw samples the current estimate rests on, the minimum over the
    /// hot and cold records: the span the averaged Welch segments cover,
    /// every pushed sample (cumulative mean square) or every completed
    /// block (sliding), and for a forgetting window the effective depth
    /// `(Σλᵏ)²/Σλ²ᵏ` in units. [`windowed_nf_point`] feeds it, scaled by
    /// the band-limiting fraction `2B/fs`, to
    /// [`uncertainty::nf_std_from_record_length`].
    fn effective_samples(&self) -> f64;

    /// Closes both records and forms the ratio — for a cumulative
    /// window, bitwise identical to the batch estimator over the
    /// concatenated records.
    ///
    /// # Errors
    ///
    /// Exactly the batch estimator's failure modes: empty/short records
    /// and [`CoreError::Degenerate`] ratios.
    fn finish(self: Box<Self>) -> Result<RatioEstimate, CoreError> {
        self.snapshot()
    }
}

/// Sample-block length the windowed mean-square accumulator retires
/// power sums in. The time-domain estimator has no natural segment
/// size, so its window is quantized in blocks of this many samples —
/// chosen to match the smallest Welch segment the stack uses, keeping
/// the three estimators' emission granularity comparable.
pub const MEAN_SQUARE_BLOCK_SAMPLES: usize = 1_024;

/// Window policy for a [`RatioAccumulator`]: how old data is retired as
/// new chunks arrive.
///
/// The unit is the estimator's own averaging quantum: Welch segments
/// for the PSD and 1-bit estimators, sample blocks of
/// [`MEAN_SQUARE_BLOCK_SAMPLES`] for the mean-square estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorWindow {
    /// Keep everything pushed, at equal weight — the snapshot carries
    /// the same bits as a batch estimate over the whole stream.
    Cumulative,
    /// Keep exactly the most recent `segments` averaging units and
    /// drop older ones bin-exactly — the snapshot carries the same
    /// bits as a batch estimate over the retained samples alone.
    Sliding {
        /// Retained unit count (≥ 1).
        segments: usize,
    },
    /// Exponentially forgetting average: each completed unit decays
    /// the running accumulation by `lambda`, for an effective depth of
    /// `(1 + λ)/(1 − λ)` units at steady state.
    Forgetting {
        /// Per-unit decay factor, strictly inside `(0, 1)`.
        lambda: f64,
    },
}

impl EstimatorWindow {
    /// Checks the policy parameters; [`EstimatorWindow::Cumulative`]
    /// has none and always passes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a zero sliding
    /// window or a forgetting factor outside the open unit interval.
    pub fn validate(&self) -> Result<(), CoreError> {
        match *self {
            EstimatorWindow::Cumulative => {}
            EstimatorWindow::Sliding { segments } => {
                if segments == 0 {
                    return Err(CoreError::InvalidParameter {
                        name: "segments",
                        reason: "sliding window needs at least one segment",
                    });
                }
            }
            EstimatorWindow::Forgetting { lambda } => {
                if !(lambda > 0.0 && lambda < 1.0) {
                    return Err(CoreError::InvalidParameter {
                        name: "lambda",
                        reason: "forgetting factor must lie strictly inside (0, 1)",
                    });
                }
            }
        }
        Ok(())
    }
}

/// One emission point of a windowed NF time series: the windowed
/// Y-factor estimate folded through eq. 8 with a finite-window sigma.
#[derive(Debug, Clone)]
pub struct WindowedNfPoint {
    /// The windowed ratio estimate the point was formed from.
    pub estimate: RatioEstimate,
    /// The DUT noise factor implied by the windowed Y ratio.
    pub factor: NoiseFactor,
    /// The noise figure in dB.
    pub nf_db: f64,
    /// Predicted standard deviation of `nf_db` for the current window
    /// depth (delta-method, [`uncertainty::nf_std_from_record_length`]).
    /// Non-finite while the window holds no effective samples.
    pub sigma_db: f64,
    /// The effective independent-sample count the sigma was computed
    /// at (window samples × the band-limiting fraction, floored).
    pub n_effective: usize,
}

/// Forms a [`WindowedNfPoint`] from an accumulator's current snapshot:
/// Y → noise factor via the declared source temperatures, sigma via the
/// delta-method variance at the window's effective depth.
///
/// `effective_fraction` is the band-limiting correction `2B/fs` in
/// `(0, 1]` — the fraction of raw samples that count as independent
/// (1 for the full-band mean-square estimator).
///
/// All arithmetic is pure `f64`, so the point is a deterministic
/// function of the accumulator state and the parameters — the bits the
/// monitor's alarm timeline is pinned on.
///
/// # Errors
///
/// Propagates snapshot errors (short window, degenerate ratio),
/// Y-factor domain errors (ratio outside `(1, Th/Tc)`), and rejects an
/// `effective_fraction` outside `(0, 1]`.
pub fn windowed_nf_point(
    acc: &dyn RatioAccumulator,
    hot_kelvin: f64,
    cold_kelvin: f64,
    effective_fraction: f64,
) -> Result<WindowedNfPoint, CoreError> {
    if !(effective_fraction > 0.0 && effective_fraction <= 1.0) {
        return Err(CoreError::InvalidParameter {
            name: "effective_fraction",
            reason: "band-limiting fraction must lie in (0, 1]",
        });
    }
    let estimate = acc.snapshot()?;
    let factor = yfactor::noise_factor_from_temperatures(estimate.ratio, hot_kelvin, cold_kelvin)?;
    let n_effective = (acc.effective_samples() * effective_fraction).floor() as usize;
    let sigma_db =
        uncertainty::nf_std_from_record_length(factor, hot_kelvin, cold_kelvin, n_effective)?;
    Ok(WindowedNfPoint {
        estimate,
        factor,
        nf_db: factor.to_figure().db(),
        sigma_db,
        n_effective,
    })
}

/// The tail of a Welch-based ratio estimator: hot and cold spectra in,
/// the ratio out. The PSD and 1-bit estimators' batch `estimate` and
/// their accumulators' snapshots both end in this one call.
pub(crate) trait SpectralRatio: Send + 'static {
    /// Forms the estimate from the two records' spectra.
    fn ratio_from_spectra(&self, hot: Spectrum, cold: Spectrum)
        -> Result<RatioEstimate, CoreError>;
}

/// Opens a Welch-ratio accumulator: one [`WelchAccumulator`] per record,
/// with the retention store `window` selects, feeding `tail`.
pub(crate) fn welch_ratio<T: SpectralRatio>(
    tail: T,
    config: WelchConfig,
    sample_rate: f64,
    window: EstimatorWindow,
) -> Result<Box<dyn RatioAccumulator>, CoreError> {
    window.validate()?;
    match window {
        EstimatorWindow::Cumulative => WelchRatio::open(
            || WelchAccumulator::cumulative(config.clone(), sample_rate),
            tail,
            window,
        ),
        EstimatorWindow::Sliding { segments } => WelchRatio::open(
            || SlidingWelch::new(config.clone(), sample_rate, segments),
            tail,
            window,
        ),
        EstimatorWindow::Forgetting { lambda } => WelchRatio::open(
            || ForgettingWelch::new(config.clone(), sample_rate, lambda),
            tail,
            window,
        ),
    }
}

/// The Welch-ratio accumulator shared by the PSD and 1-bit estimators.
struct WelchRatio<S, T> {
    hot: WelchAccumulator<S>,
    cold: WelchAccumulator<S>,
    tail: T,
    window: EstimatorWindow,
}

impl<S: RetentionStore + Send + 'static, T: SpectralRatio> WelchRatio<S, T> {
    fn open(
        make: impl Fn() -> Result<WelchAccumulator<S>, DspError>,
        tail: T,
        window: EstimatorWindow,
    ) -> Result<Box<dyn RatioAccumulator>, CoreError> {
        Ok(Box::new(WelchRatio {
            hot: make()?,
            cold: make()?,
            tail,
            window,
        }))
    }

    /// Raw samples inside one record's window: the retained span, or
    /// effective segments × segment length for a forgetting average.
    fn window_samples(&self, welch: &WelchAccumulator<S>) -> f64 {
        match self.window {
            EstimatorWindow::Forgetting { .. } => {
                welch.effective_segments() * welch.config().segment_len() as f64
            }
            _ => welch
                .retained_range()
                .map_or(0.0, |(start, end)| (end - start) as f64),
        }
    }
}

impl<S: RetentionStore + Send + 'static, T: SpectralRatio> RatioAccumulator for WelchRatio<S, T> {
    fn push_hot(&mut self, chunk: &[f64]) -> Result<(), CoreError> {
        Ok(self.hot.push(chunk)?)
    }

    fn push_cold(&mut self, chunk: &[f64]) -> Result<(), CoreError> {
        Ok(self.cold.push(chunk)?)
    }

    fn snapshot(&self) -> Result<RatioEstimate, CoreError> {
        self.tail
            .ratio_from_spectra(self.hot.finalize()?, self.cold.finalize()?)
    }

    fn effective_samples(&self) -> f64 {
        self.window_samples(&self.hot)
            .min(self.window_samples(&self.cold))
    }
}

/// Opens the mean-square accumulator: one [`PowerSum`] per record.
pub(crate) fn power_sums(window: EstimatorWindow) -> Result<Box<dyn RatioAccumulator>, CoreError> {
    window.validate()?;
    Ok(Box::new(PowerSums {
        hot: PowerSum::new(window),
        cold: PowerSum::new(window),
    }))
}

/// The time-domain mean-square ratio accumulator.
struct PowerSums {
    hot: PowerSum,
    cold: PowerSum,
}

impl RatioAccumulator for PowerSums {
    fn push_hot(&mut self, chunk: &[f64]) -> Result<(), CoreError> {
        self.hot.push(chunk);
        Ok(())
    }

    fn push_cold(&mut self, chunk: &[f64]) -> Result<(), CoreError> {
        self.cold.push(chunk);
        Ok(())
    }

    fn snapshot(&self) -> Result<RatioEstimate, CoreError> {
        match (self.hot.power(), self.cold.power()) {
            (Some(hot), Some(cold)) => MeanSquareEstimator::ratio_from_powers(hot, cold),
            _ => Err(CoreError::Dsp(DspError::EmptyInput {
                context: "mean_square",
            })),
        }
    }

    fn effective_samples(&self) -> f64 {
        self.hot.window_samples().min(self.cold.window_samples())
    }
}

/// One record's running power. For a cumulative window every sample
/// folds into `sum` in stream order — the same fold, in the same order,
/// as `stats::mean_square` over the whole record, so the result carries
/// identical bits. For a retiring window `sum` holds only the partial
/// block: each completed block of [`MEAN_SQUARE_BLOCK_SAMPLES`] retires
/// into `blocks`, so emissions are quantized at block rate exactly like
/// the Welch-based estimators are at segment rate, and chunk boundaries
/// never change any float op.
struct PowerSum {
    sum: f64,
    n: usize,
    /// Blocks completed over the whole stream (retiring windows only).
    retired: usize,
    blocks: Option<Blocks>,
}

/// The completed block sums a retiring window keeps: block `i` in ring
/// slot `i mod W`, or a λ-decayed sum with its weights `Σλᵏ`, `Σλ²ᵏ`.
enum Blocks {
    Sliding(Vec<f64>),
    Forgetting {
        lambda: f64,
        sum: f64,
        weight: f64,
        weight_sq: f64,
    },
}

impl PowerSum {
    fn new(window: EstimatorWindow) -> Self {
        let blocks = match window {
            EstimatorWindow::Cumulative => None,
            EstimatorWindow::Sliding { segments } => Some(Blocks::Sliding(vec![0.0; segments])),
            EstimatorWindow::Forgetting { lambda } => Some(Blocks::Forgetting {
                lambda,
                sum: 0.0,
                weight: 0.0,
                weight_sq: 0.0,
            }),
        };
        PowerSum {
            sum: 0.0,
            n: 0,
            retired: 0,
            blocks,
        }
    }

    fn push(&mut self, chunk: &[f64]) {
        let Some(blocks) = &mut self.blocks else {
            for &v in chunk {
                self.sum += v * v;
            }
            self.n += chunk.len();
            return;
        };
        for &v in chunk {
            self.sum += v * v;
            self.n += 1;
            if self.n < MEAN_SQUARE_BLOCK_SAMPLES {
                continue;
            }
            let block = std::mem::take(&mut self.sum);
            match blocks {
                Blocks::Sliding(ring) => {
                    let len = ring.len();
                    ring[self.retired % len] = block;
                }
                Blocks::Forgetting {
                    lambda,
                    sum,
                    weight,
                    weight_sq,
                } => {
                    *sum = *lambda * *sum + block;
                    *weight = *lambda * *weight + 1.0;
                    *weight_sq = *lambda * *lambda * *weight_sq + 1.0;
                }
            }
            self.n = 0;
            self.retired += 1;
        }
    }

    /// Mean-square power over the window, or `None` before it holds a
    /// sample (cumulative) or a completed block (retiring). The sliding
    /// fold over block sums runs oldest → newest from 0.0 —
    /// deterministic for any chunking, though regrouped relative to the
    /// per-sample batch fold.
    fn power(&self) -> Option<f64> {
        match &self.blocks {
            None => (self.n > 0).then(|| self.sum / self.n as f64),
            Some(_) if self.retired == 0 => None,
            Some(Blocks::Sliding(ring)) => {
                let kept = self.retired.min(ring.len());
                let sum =
                    (self.retired - kept..self.retired).fold(0.0, |s, i| s + ring[i % ring.len()]);
                Some(sum / (kept * MEAN_SQUARE_BLOCK_SAMPLES) as f64)
            }
            Some(Blocks::Forgetting { sum, weight, .. }) => {
                Some(sum / (weight * MEAN_SQUARE_BLOCK_SAMPLES as f64))
            }
        }
    }

    fn window_samples(&self) -> f64 {
        match &self.blocks {
            None => self.n as f64,
            Some(Blocks::Sliding(ring)) => {
                (self.retired.min(ring.len()) * MEAN_SQUARE_BLOCK_SAMPLES) as f64
            }
            Some(_) if self.retired == 0 => 0.0,
            Some(Blocks::Forgetting {
                weight, weight_sq, ..
            }) => weight * weight / weight_sq * MEAN_SQUARE_BLOCK_SAMPLES as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_ratio::{OneBitPowerRatio, PowerRatioEstimator, PsdRatioEstimator};
    use nfbist_analog::converter::OneBitDigitizer;
    use nfbist_analog::noise::WhiteNoise;
    use nfbist_analog::source::{SquareSource, Waveform};

    const FS: f64 = 20_000.0;

    fn records(n: usize) -> (Vec<f64>, Vec<f64>) {
        (
            WhiteNoise::new(2.0, 51).unwrap().generate(n),
            WhiteNoise::new(1.0, 52).unwrap().generate(n),
        )
    }

    fn stream_estimate(
        est: &dyn PowerRatioEstimator,
        hot: &[f64],
        cold: &[f64],
        chunk: usize,
    ) -> RatioEstimate {
        let mut acc = est.begin(EstimatorWindow::Cumulative).unwrap();
        for c in hot.chunks(chunk) {
            acc.push_hot(c).unwrap();
        }
        for c in cold.chunks(chunk) {
            acc.push_cold(c).unwrap();
        }
        acc.finish().unwrap()
    }

    #[test]
    fn mean_square_streaming_is_bitwise_identical() {
        let (hot, cold) = records(50_000);
        let est = MeanSquareEstimator;
        let batch = est.estimate(&hot, &cold).unwrap();
        for chunk in [1usize, 997, 50_000] {
            let streamed = stream_estimate(&est, &hot, &cold, chunk);
            assert_eq!(streamed.ratio.to_bits(), batch.ratio.to_bits());
            assert_eq!(streamed.hot_power.to_bits(), batch.hot_power.to_bits());
            assert_eq!(streamed.cold_power.to_bits(), batch.cold_power.to_bits());
        }
    }

    #[test]
    fn psd_streaming_is_bitwise_identical() {
        let (hot, cold) = records(30_000);
        let est = PsdRatioEstimator::new(FS, 1_024, (100.0, 9_000.0)).unwrap();
        let batch = PowerRatioEstimator::estimate(&est, &hot, &cold).unwrap();
        for chunk in [511usize, 1_024, 1_025, 30_000] {
            let streamed = stream_estimate(&est, &hot, &cold, chunk);
            assert_eq!(streamed.ratio.to_bits(), batch.ratio.to_bits());
            assert_eq!(streamed.hot_power.to_bits(), batch.hot_power.to_bits());
        }
    }

    #[test]
    fn one_bit_streaming_is_bitwise_identical_with_full_detail() {
        let n = 1 << 16;
        let hot = WhiteNoise::new(1.0, 61).unwrap().generate(n);
        let cold = WhiteNoise::new(0.5, 62).unwrap().generate(n);
        let reference = SquareSource::new(3_000.0, 0.1)
            .unwrap()
            .generate(n, FS)
            .unwrap();
        let d = OneBitDigitizer::ideal();
        let bh = d.digitize(&hot, &reference).unwrap().to_bipolar();
        let bc = d.digitize(&cold, &reference).unwrap().to_bipolar();

        let est = OneBitPowerRatio::new(FS, 2_048, 3_000.0, (100.0, 1_500.0)).unwrap();
        let batch = PowerRatioEstimator::estimate(&est, &bh, &bc).unwrap();
        for chunk in [777usize, 2_048, 4_099] {
            let streamed = stream_estimate(&est, &bh, &bc, chunk);
            assert_eq!(streamed.ratio.to_bits(), batch.ratio.to_bits());
            let (sd, bd) = (
                streamed.one_bit().expect("detail"),
                batch.one_bit().expect("detail"),
            );
            assert_eq!(
                sd.normalization.scale.to_bits(),
                bd.normalization.scale.to_bits()
            );
            assert_eq!(sd.hot_spectrum.density(), bd.hot_spectrum.density());
            assert_eq!(
                sd.cold_spectrum_normalized.density(),
                bd.cold_spectrum_normalized.density()
            );
        }
    }

    #[test]
    fn degenerate_and_empty_cases_match_batch_semantics() {
        // Empty records error like the batch estimator.
        let acc = MeanSquareEstimator
            .begin(EstimatorWindow::Cumulative)
            .unwrap();
        assert!(acc.finish().is_err());
        // A powerless cold record is Degenerate, not a panic.
        let mut acc = MeanSquareEstimator
            .begin(EstimatorWindow::Cumulative)
            .unwrap();
        acc.push_hot(&[1.0, -1.0]).unwrap();
        acc.push_cold(&[0.0, 0.0]).unwrap();
        assert!(matches!(acc.finish(), Err(CoreError::Degenerate { .. })));
        // Too-short PSD records error like "input shorter than one
        // segment".
        let est = PsdRatioEstimator::new(FS, 1_024, (100.0, 9_000.0)).unwrap();
        let mut acc = est.begin(EstimatorWindow::Cumulative).unwrap();
        acc.push_hot(&[0.5; 100]).unwrap();
        acc.push_cold(&[0.5; 100]).unwrap();
        assert!(acc.finish().is_err());
    }

    #[test]
    fn snapshot_matches_finish_and_leaves_the_accumulator_live() {
        // At every prefix length, snapshot() must carry exactly the
        // bits a fresh accumulator fed the same prefix would finish
        // with — and taking the snapshot must not disturb the
        // continued accumulation.
        let (hot, cold) = records(30_000);
        let est = PsdRatioEstimator::new(FS, 1_024, (100.0, 9_000.0)).unwrap();
        let mut acc = est.begin(EstimatorWindow::Cumulative).unwrap();
        let chunk = 7_000;
        let mut fed = 0usize;
        for (h, c) in hot.chunks(chunk).zip(cold.chunks(chunk)) {
            acc.push_hot(h).unwrap();
            acc.push_cold(c).unwrap();
            fed += h.len();
            let prefix = stream_estimate(&est, &hot[..fed], &cold[..fed], chunk);
            let snap = acc.snapshot().unwrap();
            assert_eq!(snap.ratio.to_bits(), prefix.ratio.to_bits());
            assert_eq!(snap.hot_power.to_bits(), prefix.hot_power.to_bits());
        }
        // The final finish is untouched by the interim snapshots.
        let batch = PowerRatioEstimator::estimate(&est, &hot, &cold).unwrap();
        assert_eq!(acc.finish().unwrap().ratio.to_bits(), batch.ratio.to_bits());

        // Same for the time-domain sums.
        let est = MeanSquareEstimator;
        let mut acc = est.begin(EstimatorWindow::Cumulative).unwrap();
        acc.push_hot(&hot[..1_000]).unwrap();
        acc.push_cold(&cold[..1_000]).unwrap();
        let snap = acc.snapshot().unwrap();
        let fresh = stream_estimate(&est, &hot[..1_000], &cold[..1_000], 100);
        assert_eq!(snap.ratio.to_bits(), fresh.ratio.to_bits());
        // An empty accumulator's snapshot errors like finish.
        let empty = MeanSquareEstimator
            .begin(EstimatorWindow::Cumulative)
            .unwrap();
        assert!(empty.snapshot().is_err());
    }

    fn windowed_feed(
        est: &dyn PowerRatioEstimator,
        window: EstimatorWindow,
        hot: &[f64],
        cold: &[f64],
        chunk: usize,
    ) -> Box<dyn RatioAccumulator> {
        let mut acc = est.begin(window).unwrap();
        for (h, c) in hot.chunks(chunk).zip(cold.chunks(chunk)) {
            acc.push_hot(h).unwrap();
            acc.push_cold(c).unwrap();
        }
        acc
    }

    #[test]
    fn sliding_windowed_psd_is_bitwise_batch_over_the_retained_samples() {
        // Once the ring wraps, the snapshot must forget everything
        // before the window: estimate over exactly the retained span
        // with the batch estimator and demand identical bits.
        let (hot, cold) = records(40_000);
        let nfft = 1_024usize;
        let window = 8usize;
        let est = PsdRatioEstimator::new(FS, nfft, (100.0, 9_000.0)).unwrap();
        for chunk in [997usize, nfft, 4_096] {
            let acc = windowed_feed(
                &est,
                EstimatorWindow::Sliding { segments: window },
                &hot,
                &cold,
                chunk,
            );
            let snap = acc.snapshot().unwrap();
            // Default Welch config: 50 % overlap → hop = nfft/2; the
            // retained span is the last `count` hop-spaced segments.
            let hop = nfft / 2;
            let seen = (hot.len() - nfft) / hop + 1;
            let count = seen.min(window);
            let (start, end) = ((seen - count) * hop, (seen - 1) * hop + nfft);
            let batch =
                PowerRatioEstimator::estimate(&est, &hot[start..end], &cold[start..end]).unwrap();
            assert_eq!(snap.ratio.to_bits(), batch.ratio.to_bits(), "chunk {chunk}");
            assert_eq!(snap.hot_power.to_bits(), batch.hot_power.to_bits());
            assert_eq!(snap.cold_power.to_bits(), batch.cold_power.to_bits());
            // Window full → effective depth saturated at the span.
            assert_eq!(acc.effective_samples(), (end - start) as f64);
        }
    }

    #[test]
    fn sliding_windowed_one_bit_is_bitwise_batch_over_the_retained_samples() {
        let n = 1 << 15;
        let hot = WhiteNoise::new(1.0, 61).unwrap().generate(n);
        let cold = WhiteNoise::new(0.5, 62).unwrap().generate(n);
        let reference = SquareSource::new(3_000.0, 0.1)
            .unwrap()
            .generate(n, FS)
            .unwrap();
        let d = OneBitDigitizer::ideal();
        let bh = d.digitize(&hot, &reference).unwrap().to_bipolar();
        let bc = d.digitize(&cold, &reference).unwrap().to_bipolar();

        let nfft = 2_048usize;
        let window = 6usize;
        let est = OneBitPowerRatio::new(FS, nfft, 3_000.0, (100.0, 1_500.0)).unwrap();
        for chunk in [777usize, nfft, 4_099] {
            let acc = windowed_feed(
                &est,
                EstimatorWindow::Sliding { segments: window },
                &bh,
                &bc,
                chunk,
            );
            let snap = acc.snapshot().unwrap();
            let hop = nfft / 2;
            let seen = (n - nfft) / hop + 1;
            let count = seen.min(window);
            let (start, end) = ((seen - count) * hop, (seen - 1) * hop + nfft);
            let batch =
                PowerRatioEstimator::estimate(&est, &bh[start..end], &bc[start..end]).unwrap();
            assert_eq!(snap.ratio.to_bits(), batch.ratio.to_bits(), "chunk {chunk}");
            let (sd, bd) = (snap.one_bit().unwrap(), batch.one_bit().unwrap());
            assert_eq!(
                sd.normalization.scale.to_bits(),
                bd.normalization.scale.to_bits()
            );
        }
    }

    #[test]
    fn sliding_windowed_mean_square_tracks_the_retained_blocks() {
        let (hot, cold) = records(50_000);
        let window = 12usize;
        let est = MeanSquareEstimator;
        let acc = windowed_feed(
            &est,
            EstimatorWindow::Sliding { segments: window },
            &hot,
            &cold,
            997,
        );
        let snap = acc.snapshot().unwrap();
        let blocks = hot.len() / MEAN_SQUARE_BLOCK_SAMPLES;
        let count = blocks.min(window);
        let end = blocks * MEAN_SQUARE_BLOCK_SAMPLES;
        let start = end - count * MEAN_SQUARE_BLOCK_SAMPLES;
        let batch = est.estimate(&hot[start..end], &cold[start..end]).unwrap();
        // The blockwise fold regroups the batch sum, so agreement is
        // to rounding, not bitwise.
        assert!((snap.ratio / batch.ratio - 1.0).abs() < 1e-12);
        assert_eq!(
            acc.effective_samples(),
            (count * MEAN_SQUARE_BLOCK_SAMPLES) as f64
        );
    }

    #[test]
    fn windowed_snapshots_are_chunk_invariant_bitwise() {
        // Forgetting (and sliding) snapshots must carry identical bits
        // for any chunking of the same streams — the invariant the
        // monitor alarm timeline is pinned on.
        let (hot, cold) = records(30_000);
        for window in [
            EstimatorWindow::Forgetting { lambda: 0.8 },
            EstimatorWindow::Sliding { segments: 5 },
        ] {
            let psd = PsdRatioEstimator::new(FS, 1_024, (100.0, 9_000.0)).unwrap();
            let ests: [&dyn PowerRatioEstimator; 2] = [&MeanSquareEstimator, &psd];
            for est in ests {
                let reference = windowed_feed(est, window, &hot, &cold, 30_000)
                    .snapshot()
                    .unwrap();
                for chunk in [1usize, 63, 1_024, 1_025, 7_000] {
                    let snap = windowed_feed(est, window, &hot, &cold, chunk)
                        .snapshot()
                        .unwrap();
                    assert_eq!(
                        snap.ratio.to_bits(),
                        reference.ratio.to_bits(),
                        "{} chunk {chunk} window {window:?}",
                        est.label()
                    );
                    assert_eq!(snap.hot_power.to_bits(), reference.hot_power.to_bits());
                }
            }
        }
    }

    #[test]
    fn forgetting_window_depth_saturates() {
        // λ = 0.5 → (1 + λ)/(1 − λ) = 3 effective segments.
        let (hot, cold) = records(40_960);
        let est = PsdRatioEstimator::new(FS, 1_024, (100.0, 9_000.0)).unwrap();
        let acc = windowed_feed(
            &est,
            EstimatorWindow::Forgetting { lambda: 0.5 },
            &hot,
            &cold,
            4_096,
        );
        let depth = acc.effective_samples() / 1_024.0;
        assert!((depth - 3.0).abs() < 1e-6, "effective depth {depth}");

        // Mean-square forgetting saturates at the same depth in
        // blocks.
        let acc = windowed_feed(
            &MeanSquareEstimator,
            EstimatorWindow::Forgetting { lambda: 0.5 },
            &hot,
            &cold,
            4_096,
        );
        let depth = acc.effective_samples() / MEAN_SQUARE_BLOCK_SAMPLES as f64;
        assert!((depth - 3.0).abs() < 1e-6, "effective depth {depth}");
    }

    #[test]
    fn windowed_nf_point_carries_sigma_and_is_deterministic() {
        // Hot record at 2× the cold power → Y = 2, safely inside
        // (1, Th/Tc) for the 2900/290 K pair.
        let (hot, cold) = records(40_000);
        let est = PsdRatioEstimator::new(FS, 1_024, (100.0, 9_000.0)).unwrap();
        let window = EstimatorWindow::Sliding { segments: 8 };
        let acc = windowed_feed(&est, window, &hot, &cold, 1_024);
        let fraction = 2.0 * (9_000.0 - 100.0) / FS;
        let point = windowed_nf_point(&*acc, 2_900.0, 290.0, fraction).unwrap();
        assert_eq!(
            point.nf_db.to_bits(),
            point.factor.to_figure().db().to_bits()
        );
        assert!(point.sigma_db.is_finite() && point.sigma_db > 0.0);
        assert_eq!(
            point.n_effective,
            (acc.effective_samples() * fraction).floor() as usize
        );
        // Bit-determinism across re-runs.
        let again = windowed_nf_point(&*acc, 2_900.0, 290.0, fraction).unwrap();
        assert_eq!(point.nf_db.to_bits(), again.nf_db.to_bits());
        assert_eq!(point.sigma_db.to_bits(), again.sigma_db.to_bits());
        // A shallower window must widen the predicted sigma.
        let shallow = windowed_feed(
            &est,
            EstimatorWindow::Sliding { segments: 2 },
            &hot,
            &cold,
            1_024,
        );
        let wide = windowed_nf_point(&*shallow, 2_900.0, 290.0, fraction).unwrap();
        assert!(wide.sigma_db > point.sigma_db);
        // The band-limiting fraction is validated.
        assert!(windowed_nf_point(&*acc, 2_900.0, 290.0, 0.0).is_err());
        assert!(windowed_nf_point(&*acc, 2_900.0, 290.0, 1.5).is_err());
    }

    #[test]
    fn windowed_validation_and_empty_snapshots() {
        for est in [
            &MeanSquareEstimator as &dyn PowerRatioEstimator,
            &PsdRatioEstimator::new(FS, 512, (100.0, 9_000.0)).unwrap(),
        ] {
            assert!(est.begin(EstimatorWindow::Sliding { segments: 0 }).is_err());
            for lambda in [0.0, 1.0, -0.5, f64::NAN] {
                assert!(est.begin(EstimatorWindow::Forgetting { lambda }).is_err());
            }
            // Nothing pushed yet → snapshot errors like the batch
            // estimator on an empty record.
            let acc = est.begin(EstimatorWindow::Sliding { segments: 3 }).unwrap();
            assert!(acc.snapshot().is_err());
            assert_eq!(acc.effective_samples(), 0.0);
        }
        assert!(EstimatorWindow::Sliding { segments: 1 }.validate().is_ok());
        assert!(EstimatorWindow::Forgetting { lambda: 0.9 }
            .validate()
            .is_ok());
    }

    #[test]
    fn discovery_through_trait_objects() {
        // Every Table 2 estimator opens every window through a boxed
        // trait object (and a box of a box), and its cumulative
        // accumulator finishes into the batch estimate's bits.
        let n = 1 << 15;
        let (hot, cold) = records(n);
        let reference = SquareSource::new(3_000.0, 0.1)
            .unwrap()
            .generate(n, FS)
            .unwrap();
        let d = OneBitDigitizer::ideal();
        let analog = (
            WhiteNoise::new(1.0, 61).unwrap().generate(n),
            WhiteNoise::new(0.5, 62).unwrap().generate(n),
        );
        let bh = d.digitize(&analog.0, &reference).unwrap().to_bipolar();
        let bc = d.digitize(&analog.1, &reference).unwrap().to_bipolar();
        type Case<'a> = (Box<dyn PowerRatioEstimator>, &'a [f64], &'a [f64]);
        let cases: Vec<Case> = vec![
            (Box::new(MeanSquareEstimator), &hot, &cold),
            (
                Box::new(PsdRatioEstimator::new(FS, 512, (100.0, 9_000.0)).unwrap()),
                &hot,
                &cold,
            ),
            (
                Box::new(OneBitPowerRatio::new(FS, 2_048, 3_000.0, (100.0, 1_500.0)).unwrap()),
                &bh,
                &bc,
            ),
        ];
        for (est, h, c) in cases {
            let boxed: Box<dyn PowerRatioEstimator> = Box::new(est);
            for window in [
                EstimatorWindow::Cumulative,
                EstimatorWindow::Sliding { segments: 6 },
                EstimatorWindow::Forgetting { lambda: 0.8 },
            ] {
                let acc = windowed_feed(&*boxed, window, h, c, 1_777);
                let snap = acc.snapshot().unwrap();
                assert!(snap.ratio > 1.0, "{} {window:?}", boxed.label());
                assert!(acc.effective_samples() > 0.0);
                if window == EstimatorWindow::Cumulative {
                    let batch = boxed.estimate(h, c).unwrap();
                    assert_eq!(snap.ratio.to_bits(), batch.ratio.to_bits());
                    assert_eq!(acc.finish().unwrap().ratio.to_bits(), batch.ratio.to_bits());
                }
            }
        }
    }

    #[test]
    fn cumulative_effective_samples_count_the_consumed_record() {
        // Welch: the span the averaged segments cover (the last
        // partial hop is not consumed yet); mean square: every pushed
        // sample. Both take the shorter of the two records.
        let (hot, cold) = records(30_000);
        let (hot, cold) = (&hot[..], &cold[..25_000]);
        let nfft = 1_024;
        let hop = nfft / 2;
        let psd = PsdRatioEstimator::new(FS, nfft, (100.0, 9_000.0)).unwrap();
        let mut acc = psd.begin(EstimatorWindow::Cumulative).unwrap();
        assert_eq!(acc.effective_samples(), 0.0);
        acc.push_hot(hot).unwrap();
        acc.push_cold(cold).unwrap();
        let seen = (cold.len() - nfft) / hop + 1;
        assert_eq!(acc.effective_samples(), ((seen - 1) * hop + nfft) as f64);

        let mut acc = MeanSquareEstimator
            .begin(EstimatorWindow::Cumulative)
            .unwrap();
        assert_eq!(acc.effective_samples(), 0.0);
        for (h, c) in hot.chunks(999).zip(cold.chunks(999)) {
            acc.push_hot(h).unwrap();
            acc.push_cold(c).unwrap();
        }
        assert_eq!(acc.effective_samples(), cold.len() as f64);
        assert!(EstimatorWindow::Cumulative.validate().is_ok());
    }
}
