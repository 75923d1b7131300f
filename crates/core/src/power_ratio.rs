//! The three noise-power-ratio estimators of the paper's Table 2:
//! time-domain mean-square, PSD band-power ratio, and the 1-bit PSD
//! ratio with reference normalization and exclusion — unified behind
//! the object-safe [`PowerRatioEstimator`] trait so measurement
//! sessions can swap them axis-by-axis. Each one estimates from whole
//! records ([`PowerRatioEstimator::estimate`]) or chunk by chunk
//! ([`PowerRatioEstimator::begin`], see [`crate::streaming`]).

use crate::normalize::{normalize_to_reference, Normalization, ReferenceTracker};
use crate::streaming::{self, EstimatorWindow, RatioAccumulator, SpectralRatio};
use crate::CoreError;
use nfbist_analog::bitstream::Bitstream;
use nfbist_dsp::psd::{DspWorkspace, WelchConfig};
use nfbist_dsp::spectrum::Spectrum;
use nfbist_dsp::window::Window;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// The workspace an estimate runs against: the estimator's cached one
/// when it is free, or a fresh throwaway under contention.
enum WorkspaceHandle<'a> {
    Cached(MutexGuard<'a, DspWorkspace>),
    Fresh(DspWorkspace),
}

impl Deref for WorkspaceHandle<'_> {
    type Target = DspWorkspace;
    fn deref(&self) -> &DspWorkspace {
        match self {
            WorkspaceHandle::Cached(guard) => guard,
            WorkspaceHandle::Fresh(ws) => ws,
        }
    }
}

impl DerefMut for WorkspaceHandle<'_> {
    fn deref_mut(&mut self) -> &mut DspWorkspace {
        match self {
            WorkspaceHandle::Cached(guard) => guard,
            WorkspaceHandle::Fresh(ws) => ws,
        }
    }
}

/// Grabs the estimator's cached [`DspWorkspace`] without blocking.
/// Under contention — several worker threads driving the *same*
/// estimator instance — the call falls back to a fresh local
/// workspace, so parallel fan-outs never serialize on the cache; the
/// contended call merely forfeits the steady-state allocation win
/// (results are bit-identical either way — the workspace holds only
/// plans and scratch, never data). A poisoned lock is recovered for
/// the same reason.
fn workspace_handle(ws: &Mutex<DspWorkspace>) -> WorkspaceHandle<'_> {
    match ws.try_lock() {
        Ok(guard) => WorkspaceHandle::Cached(guard),
        Err(TryLockError::Poisoned(poisoned)) => WorkspaceHandle::Cached(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => WorkspaceHandle::Fresh(DspWorkspace::new()),
    }
}

/// Checks the analysis configuration the two spectral estimators share:
/// a positive sample rate, a nonzero FFT size and a band
/// `0 <= f_lo < f_hi`, reported as the parameter `band_name`.
fn check_analysis(
    sample_rate: f64,
    nfft: usize,
    band: (f64, f64),
    band_name: &'static str,
) -> Result<(), CoreError> {
    let invalid = |name, reason| Err(CoreError::InvalidParameter { name, reason });
    if !(sample_rate > 0.0) {
        return invalid("sample_rate", "must be positive");
    }
    if nfft == 0 {
        return invalid("nfft", "must be nonzero");
    }
    if !(band.0 >= 0.0 && band.1 > band.0) {
        return invalid(band_name, "requires 0 <= f_lo < f_hi");
    }
    Ok(())
}

/// Welch spectra of the hot and cold records through an estimator's
/// cached workspace.
fn spectra(
    welch: &WelchConfig,
    sample_rate: f64,
    workspace: &Mutex<DspWorkspace>,
    hot: &[f64],
    cold: &[f64],
) -> Result<(Spectrum, Spectrum), CoreError> {
    let mut ws = workspace_handle(workspace);
    Ok((
        welch.estimate_with(hot, sample_rate, &mut ws)?,
        welch.estimate_with(cold, sample_rate, &mut ws)?,
    ))
}

/// Estimator-specific intermediate results carried by a
/// [`RatioEstimate`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum RatioDetail {
    /// Time-domain mean-square ratio: no intermediates beyond the
    /// powers.
    MeanSquare,
    /// PSD band-power ratio: the analysis configuration.
    Psd {
        /// Welch segment length used.
        nfft: usize,
        /// Integrated band in hertz.
        band: (f64, f64),
    },
    /// 1-bit estimator: full normalization bookkeeping and spectra.
    OneBit(Box<OneBitRatioEstimate>),
}

/// The uniform result every [`PowerRatioEstimator`] returns: the Y
/// ratio, the band powers it was formed from, and estimator-specific
/// intermediates for reporting.
#[derive(Debug, Clone)]
pub struct RatioEstimate {
    /// The estimated hot/cold noise power ratio (the Y factor).
    pub ratio: f64,
    /// Hot-record noise power entering the ratio.
    pub hot_power: f64,
    /// Cold-record noise power entering the ratio (before any
    /// normalization).
    pub cold_power: f64,
    /// Estimator-specific intermediates.
    pub detail: RatioDetail,
}

impl RatioEstimate {
    /// The 1-bit intermediates (spectra, reference lines,
    /// normalization), when this estimate came from the 1-bit
    /// estimator.
    pub fn one_bit(&self) -> Option<&OneBitRatioEstimate> {
        match &self.detail {
            RatioDetail::OneBit(e) => Some(e),
            _ => None,
        }
    }
}

/// A hot/cold noise-power-ratio estimator (one row of the paper's
/// Table 2), object-safe so a measurement session can hold any of
/// them.
///
/// Inputs are expanded sample buffers: `±1` samples for a digitized
/// bitstream (see `Record::to_samples` in `nfbist-analog`), plain
/// voltages for an ADC record.
///
/// # Examples
///
/// ```
/// use nfbist_core::power_ratio::{MeanSquareEstimator, PowerRatioEstimator};
///
/// # fn main() -> Result<(), nfbist_core::CoreError> {
/// let est: Box<dyn PowerRatioEstimator> = Box::new(MeanSquareEstimator);
/// let r = est.estimate(&[2.0, -2.0], &[1.0, -1.0])?;
/// assert!((r.ratio - 4.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub trait PowerRatioEstimator: Send + Sync {
    /// Human-readable description for reports.
    fn label(&self) -> String;

    /// Estimates the hot/cold noise power ratio from two records.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Degenerate`] when a usable ratio cannot be
    /// formed and propagates analysis errors.
    fn estimate(&self, hot: &[f64], cold: &[f64]) -> Result<RatioEstimate, CoreError>;

    /// Opens a chunked, bounded-memory accumulator for one hot/cold
    /// record pair under `window`. With
    /// [`EstimatorWindow::Cumulative`] it finishes into the bits
    /// [`PowerRatioEstimator::estimate`] computes over the concatenated
    /// records; the sliding and forgetting windows retire old data for
    /// continuous monitoring.
    ///
    /// # Errors
    ///
    /// Returns configuration errors (invalid window policy, FFT size
    /// or sample rate).
    fn begin(&self, window: EstimatorWindow) -> Result<Box<dyn RatioAccumulator>, CoreError>;
}

impl<E: PowerRatioEstimator + ?Sized> PowerRatioEstimator for Box<E> {
    fn label(&self) -> String {
        (**self).label()
    }

    fn estimate(&self, hot: &[f64], cold: &[f64]) -> Result<RatioEstimate, CoreError> {
        (**self).estimate(hot, cold)
    }

    fn begin(&self, window: EstimatorWindow) -> Result<Box<dyn RatioAccumulator>, CoreError> {
        (**self).begin(window)
    }
}

/// Table 2 row 1 as a [`PowerRatioEstimator`]: the ratio of
/// time-domain mean squares (see [`mean_square_ratio`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeanSquareEstimator;

impl PowerRatioEstimator for MeanSquareEstimator {
    fn label(&self) -> String {
        "time-domain mean-square ratio".to_string()
    }

    fn estimate(&self, hot: &[f64], cold: &[f64]) -> Result<RatioEstimate, CoreError> {
        Self::ratio_from_powers(
            nfbist_dsp::stats::mean_square(hot)?,
            nfbist_dsp::stats::mean_square(cold)?,
        )
    }

    fn begin(&self, window: EstimatorWindow) -> Result<Box<dyn RatioAccumulator>, CoreError> {
        streaming::power_sums(window)
    }
}

impl MeanSquareEstimator {
    /// The estimator tail shared by the batch path and the power-sum
    /// accumulator: the ratio of the two mean squares.
    pub(crate) fn ratio_from_powers(
        hot_power: f64,
        cold_power: f64,
    ) -> Result<RatioEstimate, CoreError> {
        if !(cold_power > 0.0) {
            return Err(CoreError::Degenerate {
                reason: "cold record carries no power",
            });
        }
        Ok(RatioEstimate {
            ratio: hot_power / cold_power,
            hot_power,
            cold_power,
            detail: RatioDetail::MeanSquare,
        })
    }
}

/// Table 2 row 2 as a [`PowerRatioEstimator`]: the ratio of Welch PSD
/// band powers (see [`psd_ratio`]).
///
/// Holds a [`DspWorkspace`] behind a mutex so the FFT plan and Welch
/// scratch buffers are built once and reused across every hot/cold
/// estimate (cloning starts a fresh, empty workspace).
#[derive(Debug)]
pub struct PsdRatioEstimator {
    sample_rate: f64,
    nfft: usize,
    band: (f64, f64),
    workspace: Mutex<DspWorkspace>,
}

impl Clone for PsdRatioEstimator {
    fn clone(&self) -> Self {
        PsdRatioEstimator {
            sample_rate: self.sample_rate,
            nfft: self.nfft,
            band: self.band,
            workspace: Mutex::new(DspWorkspace::new()),
        }
    }
}

impl PartialEq for PsdRatioEstimator {
    /// Configuration equality; the cached workspace is not part of the
    /// estimator's identity.
    fn eq(&self, other: &Self) -> bool {
        self.sample_rate == other.sample_rate && self.nfft == other.nfft && self.band == other.band
    }
}

impl PsdRatioEstimator {
    /// Creates the estimator.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a non-positive
    /// sample rate, a zero FFT size, or an empty/inverted band.
    pub fn new(sample_rate: f64, nfft: usize, band: (f64, f64)) -> Result<Self, CoreError> {
        check_analysis(sample_rate, nfft, band, "band")?;
        Ok(PsdRatioEstimator {
            sample_rate,
            nfft,
            band,
            workspace: Mutex::new(DspWorkspace::new()),
        })
    }

    /// The integrated band.
    pub fn band(&self) -> (f64, f64) {
        self.band
    }

    /// The Welch segment / FFT length.
    pub fn nfft(&self) -> usize {
        self.nfft
    }

    /// The sample rate in hertz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }
}

impl PowerRatioEstimator for PsdRatioEstimator {
    fn label(&self) -> String {
        format!(
            "PSD band-power ratio ({:.0}–{:.0} Hz, nfft {})",
            self.band.0, self.band.1, self.nfft
        )
    }

    fn estimate(&self, hot: &[f64], cold: &[f64]) -> Result<RatioEstimate, CoreError> {
        let welch = WelchConfig::new(self.nfft)?;
        let (psd_hot, psd_cold) = spectra(&welch, self.sample_rate, &self.workspace, hot, cold)?;
        self.ratio_from_spectra(psd_hot, psd_cold)
    }

    fn begin(&self, window: EstimatorWindow) -> Result<Box<dyn RatioAccumulator>, CoreError> {
        let welch = WelchConfig::new(self.nfft)?;
        streaming::welch_ratio(self.clone(), welch, self.sample_rate, window)
    }
}

impl SpectralRatio for PsdRatioEstimator {
    fn ratio_from_spectra(
        &self,
        psd_hot: Spectrum,
        psd_cold: Spectrum,
    ) -> Result<RatioEstimate, CoreError> {
        let hot_power = psd_hot.band_power(self.band.0, self.band.1)?;
        let cold_power = psd_cold.band_power(self.band.0, self.band.1)?;
        if !(cold_power > 0.0) {
            return Err(CoreError::Degenerate {
                reason: "cold band carries no power",
            });
        }
        Ok(RatioEstimate {
            ratio: hot_power / cold_power,
            hot_power,
            cold_power,
            detail: RatioDetail::Psd {
                nfft: self.nfft,
                band: self.band,
            },
        })
    }
}

impl PowerRatioEstimator for OneBitPowerRatio {
    fn label(&self) -> String {
        "1-bit reference-normalized PSD ratio".to_string()
    }

    fn estimate(&self, hot: &[f64], cold: &[f64]) -> Result<RatioEstimate, CoreError> {
        Ok(self.estimate_samples(hot, cold)?.into())
    }

    fn begin(&self, window: EstimatorWindow) -> Result<Box<dyn RatioAccumulator>, CoreError> {
        let welch = WelchConfig::new(self.nfft)?.window(self.window);
        streaming::welch_ratio(self.clone(), welch, self.sample_rate, window)
    }
}

impl SpectralRatio for OneBitPowerRatio {
    fn ratio_from_spectra(
        &self,
        psd_hot: Spectrum,
        psd_cold: Spectrum,
    ) -> Result<RatioEstimate, CoreError> {
        Ok(self.finish(psd_hot, psd_cold)?.into())
    }
}

/// Time-domain estimator: the ratio of mean-square values
/// (Table 2 row 1).
///
/// # Errors
///
/// Returns [`CoreError::Dsp`] for empty inputs and
/// [`CoreError::Degenerate`] when the cold record carries no power.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), nfbist_core::CoreError> {
/// let hot = [2.0, -2.0, 2.0, -2.0];
/// let cold = [1.0, -1.0, 1.0, -1.0];
/// let y = nfbist_core::power_ratio::mean_square_ratio(&hot, &cold)?;
/// assert!((y - 4.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn mean_square_ratio(hot: &[f64], cold: &[f64]) -> Result<f64, CoreError> {
    Ok(MeanSquareEstimator.estimate(hot, cold)?.ratio)
}

/// Spectral estimator: the ratio of PSD band powers (Table 2 row 2).
///
/// Integrates each record's Welch PSD over `band` and takes the ratio.
///
/// # Errors
///
/// Returns [`PsdRatioEstimator::new`]'s configuration errors, propagates
/// PSD and band errors, and returns [`CoreError::Degenerate`] for a
/// powerless cold band.
pub fn psd_ratio(
    hot: &[f64],
    cold: &[f64],
    sample_rate: f64,
    nfft: usize,
    band: (f64, f64),
) -> Result<f64, CoreError> {
    Ok(PsdRatioEstimator::new(sample_rate, nfft, band)?
        .estimate(hot, cold)?
        .ratio)
}

/// Result of a 1-bit power-ratio estimate, exposing the intermediate
/// quantities (C-INTERMEDIATE): the spectra, the reference lines and
/// the normalization.
#[derive(Debug, Clone)]
pub struct OneBitRatioEstimate {
    /// The estimated hot/cold noise power ratio (the Y factor).
    pub ratio: f64,
    /// In-band noise power of the hot bitstream (reference excluded).
    pub hot_noise_power: f64,
    /// In-band noise power of the cold bitstream, before normalization.
    pub cold_noise_power: f64,
    /// Reference normalization bookkeeping.
    pub normalization: Normalization,
    /// Welch PSD of the hot bitstream.
    pub hot_spectrum: Spectrum,
    /// Welch PSD of the cold bitstream, **after** normalization.
    pub cold_spectrum_normalized: Spectrum,
}

impl From<OneBitRatioEstimate> for RatioEstimate {
    /// The uniform report of a 1-bit estimate, carrying it whole as
    /// [`RatioDetail::OneBit`].
    fn from(est: OneBitRatioEstimate) -> Self {
        RatioEstimate {
            ratio: est.ratio,
            hot_power: est.hot_noise_power,
            cold_power: est.cold_noise_power,
            detail: RatioDetail::OneBit(Box::new(est)),
        }
    }
}

/// The paper's estimator: noise power ratio from two 1-bit records with
/// a shared constant-amplitude reference (Table 2 row 3, §5.2).
///
/// Pipeline per record: Welch PSD of the ±1 bitstream → locate the
/// reference line → normalize the cold spectrum so the lines coincide →
/// integrate the noise band with the reference (and optionally its
/// harmonics) excluded → ratio.
///
/// # Examples
///
/// See the crate-level example in [`crate`].
///
/// Holds a [`DspWorkspace`] behind a mutex so the Welch FFT plan and
/// scratch buffers are built once and reused across every hot/cold
/// estimate (cloning starts a fresh, empty workspace).
#[derive(Debug)]
pub struct OneBitPowerRatio {
    sample_rate: f64,
    nfft: usize,
    noise_band: (f64, f64),
    tracker: ReferenceTracker,
    excluded_harmonics: usize,
    window: Window,
    exclude_reference: bool,
    workspace: Mutex<DspWorkspace>,
}

impl Clone for OneBitPowerRatio {
    fn clone(&self) -> Self {
        OneBitPowerRatio {
            sample_rate: self.sample_rate,
            nfft: self.nfft,
            noise_band: self.noise_band,
            tracker: self.tracker,
            excluded_harmonics: self.excluded_harmonics,
            window: self.window,
            exclude_reference: self.exclude_reference,
            workspace: Mutex::new(DspWorkspace::new()),
        }
    }
}

impl OneBitPowerRatio {
    /// Creates an estimator.
    ///
    /// * `sample_rate` — the bitstream sample rate in Hz.
    /// * `nfft` — Welch segment length (any size; the paper used 10⁴).
    /// * `reference_frequency` — nominal reference tone frequency.
    /// * `noise_band` — `(f_lo, f_hi)` of the noise measurement band.
    ///
    /// Defaults: Hann window, ±2 % search window around the reference,
    /// a ±3-bin line width, harmonics 2–9 excluded, reference exclusion
    /// on.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for non-positive rates,
    /// a zero FFT size, or an empty/inverted noise band.
    pub fn new(
        sample_rate: f64,
        nfft: usize,
        reference_frequency: f64,
        noise_band: (f64, f64),
    ) -> Result<Self, CoreError> {
        check_analysis(sample_rate, nfft, noise_band, "noise_band")?;
        let tracker = ReferenceTracker::new(reference_frequency, 0.02 * reference_frequency, 3)?;
        Ok(OneBitPowerRatio {
            sample_rate,
            nfft,
            noise_band,
            tracker,
            excluded_harmonics: 9,
            window: Window::Hann,
            exclude_reference: true,
            workspace: Mutex::new(DspWorkspace::new()),
        })
    }

    /// Overrides the reference tracker (search window / line width).
    pub fn with_tracker(mut self, tracker: ReferenceTracker) -> Self {
        self.tracker = tracker;
        self
    }

    /// Sets how many reference harmonics (`2f … n·f`) to exclude from
    /// the noise band (0 disables harmonic exclusion).
    pub fn with_excluded_harmonics(mut self, n: usize) -> Self {
        self.excluded_harmonics = n;
        self
    }

    /// Selects the Welch analysis window.
    pub fn with_window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Disables exclusion of the reference bins from the noise
    /// integration — the ablation the paper implies when it notes the
    /// reference "must be excluded from the power ratio evaluation".
    pub fn with_reference_exclusion(mut self, on: bool) -> Self {
        self.exclude_reference = on;
        self
    }

    /// The configured noise band.
    pub fn noise_band(&self) -> (f64, f64) {
        self.noise_band
    }

    /// The Welch segment / FFT length.
    pub fn nfft(&self) -> usize {
        self.nfft
    }

    /// The sample rate in hertz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// The configured analysis window.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Runs the estimator on two packed bitstreams.
    ///
    /// The ±1 expansion of each record goes through the workspace's
    /// reusable staging buffer
    /// ([`DspWorkspace::take_record_buf`]), so the bit path
    /// materializes no per-call float vectors in the steady state —
    /// results are bit-identical to
    /// [`OneBitPowerRatio::estimate_samples`] on the expanded records.
    ///
    /// (The [`PowerRatioEstimator`] impl accepts pre-expanded sample
    /// buffers instead, which is what generic measurement sessions
    /// use.)
    ///
    /// # Errors
    ///
    /// Propagates PSD errors, reference-tracking failures
    /// ([`CoreError::Degenerate`] when a line cannot be found) and band
    /// errors.
    pub fn estimate_bits(
        &self,
        hot: &Bitstream,
        cold: &Bitstream,
    ) -> Result<OneBitRatioEstimate, CoreError> {
        let welch = WelchConfig::new(self.nfft)?.window(self.window);
        let (psd_hot, psd_cold) = {
            let mut ws = workspace_handle(&self.workspace);
            let mut buf = ws.take_record_buf();
            let expand_and_estimate =
                |bits: &Bitstream, buf: &mut Vec<f64>, ws: &mut DspWorkspace| {
                    buf.resize(bits.len(), 0.0);
                    bits.expand_bipolar_into(buf)?;
                    Ok::<_, CoreError>(welch.estimate_with(buf, self.sample_rate, ws)?)
                };
            // A failed hot estimate must not pay for a cold one, but the
            // staging buffer goes back to the workspace on every path.
            let psds = expand_and_estimate(hot, &mut buf, &mut ws).and_then(|psd_hot| {
                let psd_cold = expand_and_estimate(cold, &mut buf, &mut ws)?;
                Ok((psd_hot, psd_cold))
            });
            ws.return_record_buf(buf);
            psds?
        };
        self.finish(psd_hot, psd_cold)
    }

    /// Runs the estimator on pre-expanded ±1 sample buffers.
    ///
    /// # Errors
    ///
    /// Same as [`OneBitPowerRatio::estimate_bits`].
    pub fn estimate_samples(
        &self,
        hot: &[f64],
        cold: &[f64],
    ) -> Result<OneBitRatioEstimate, CoreError> {
        let welch = WelchConfig::new(self.nfft)?.window(self.window);
        let (psd_hot, psd_cold) = spectra(&welch, self.sample_rate, &self.workspace, hot, cold)?;
        self.finish(psd_hot, psd_cold)
    }

    /// The estimator tail shared by the bit and sample entry points
    /// (and by the chunked accumulator in [`crate::streaming`]):
    /// reference normalization, exclusion bookkeeping and the band
    /// ratio.
    pub(crate) fn finish(
        &self,
        psd_hot: Spectrum,
        psd_cold: Spectrum,
    ) -> Result<OneBitRatioEstimate, CoreError> {
        let (psd_cold_norm, normalization) =
            normalize_to_reference(&psd_hot, &psd_cold, &self.tracker)?;

        // Bins to exclude: the reference line in each spectrum plus its
        // harmonics (the line may sit at slightly different bins if the
        // generator drifted between acquisitions, so take the union).
        let mut excluded: Vec<usize> = Vec::new();
        if self.exclude_reference {
            excluded.extend(&normalization.anchor_line.bins);
            excluded.extend(&normalization.scaled_line.bins);
            if self.excluded_harmonics >= 2 {
                excluded.extend(self.tracker.harmonic_bins(
                    &psd_hot,
                    &normalization.anchor_line,
                    self.excluded_harmonics,
                )?);
            }
            excluded.sort_unstable();
            excluded.dedup();
        }

        let hot_noise =
            psd_hot.band_power_excluding(self.noise_band.0, self.noise_band.1, &excluded)?;
        let cold_noise_norm =
            psd_cold_norm.band_power_excluding(self.noise_band.0, self.noise_band.1, &excluded)?;
        if !(cold_noise_norm > 0.0) {
            return Err(CoreError::Degenerate {
                reason: "normalized cold noise band carries no power",
            });
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

#[cfg(test)]
mod tests {
    use super::*;
    use nfbist_analog::converter::OneBitDigitizer;
    use nfbist_analog::noise::WhiteNoise;
    use nfbist_analog::source::{SquareSource, Waveform};

    const FS: f64 = 20_000.0;

    fn digitized_pair(
        sigma_hot: f64,
        sigma_cold: f64,
        ref_level: f64,
        n: usize,
    ) -> (Bitstream, Bitstream) {
        let hot = WhiteNoise::new(sigma_hot, 11).unwrap().generate(n);
        let cold = WhiteNoise::new(sigma_cold, 22).unwrap().generate(n);
        let reference = SquareSource::new(3_000.0, ref_level)
            .unwrap()
            .generate(n, FS)
            .unwrap();
        let d = OneBitDigitizer::ideal();
        (
            d.digitize(&hot, &reference).unwrap(),
            d.digitize(&cold, &reference).unwrap(),
        )
    }

    #[test]
    fn config_validation() {
        assert!(OneBitPowerRatio::new(0.0, 1024, 3e3, (0.0, 1e3)).is_err());
        assert!(OneBitPowerRatio::new(FS, 0, 3e3, (0.0, 1e3)).is_err());
        assert!(OneBitPowerRatio::new(FS, 1024, 3e3, (1e3, 1e3)).is_err());
        assert!(OneBitPowerRatio::new(FS, 1024, 3e3, (-1.0, 1e3)).is_err());
    }

    #[test]
    fn mean_square_ratio_basics() {
        assert!(mean_square_ratio(&[], &[1.0]).is_err());
        assert!(mean_square_ratio(&[1.0], &[0.0]).is_err());
        let y = mean_square_ratio(&[3.0, -3.0], &[1.0, -1.0]).unwrap();
        assert!((y - 9.0).abs() < 1e-12);
    }

    #[test]
    fn psd_ratio_recovers_white_noise_ratio() {
        let hot = WhiteNoise::new(2.0, 1).unwrap().generate(200_000);
        let cold = WhiteNoise::new(1.0, 2).unwrap().generate(200_000);
        let y = psd_ratio(&hot, &cold, FS, 2048, (100.0, 9_000.0)).unwrap();
        assert!((y - 4.0).abs() < 0.15, "y {y}");
    }

    #[test]
    fn one_bit_recovers_known_ratio() {
        // True ratio 10 (like Th = 10·Tc through a noiseless DUT);
        // reference at 20 % of the cold σ.
        let (hot, cold) = digitized_pair(1.0, (0.1f64).sqrt(), 0.2 * (0.1f64).sqrt(), 1 << 19);
        let est = OneBitPowerRatio::new(FS, 2048, 3_000.0, (100.0, 1_500.0)).unwrap();
        let r = est.estimate_bits(&hot, &cold).unwrap();
        // The paper saw ~2.5 % error on a ratio of 3.5; the arcsine
        // compression grows the error with the ratio, so allow 12 % on
        // a ratio of 10 with this record length.
        assert!(
            (r.ratio - 10.0).abs() / 10.0 < 0.12,
            "estimated ratio {}",
            r.ratio
        );
    }

    #[test]
    fn tracker_override_steers_the_reference_search() {
        let (hot, cold) = digitized_pair(1.0, 0.5, 0.2 * 0.5, 1 << 16);
        let base = OneBitPowerRatio::new(FS, 2048, 3_000.0, (100.0, 1_500.0)).unwrap();
        // Searching ±20 Hz around 2 kHz misses the 3 kHz line.
        let blind = base
            .clone()
            .with_tracker(ReferenceTracker::new(2_000.0, 20.0, 3).unwrap());
        assert!(matches!(
            blind.estimate_bits(&hot, &cold),
            Err(CoreError::Degenerate { .. })
        ));
        // A wide line width at the right place finds it in both records
        // and claims the configured bins.
        let wide = base.with_tracker(ReferenceTracker::new(3_000.0, 100.0, 5).unwrap());
        let r = wide.estimate_bits(&hot, &cold).unwrap();
        for line in [&r.normalization.anchor_line, &r.normalization.scaled_line] {
            assert!(
                (line.frequency - 3_000.0).abs() <= FS / 2048.0,
                "{}",
                line.frequency
            );
            assert_eq!(line.bins.len(), 11);
            assert!(line.bins.contains(&line.bin));
        }
    }

    #[test]
    fn reference_exclusion_matters() {
        // Without excluding the reference bins the ratio collapses
        // toward 1 because both spectra contain the (equalized)
        // reference line. Put the reference *inside* the noise band to
        // maximize the effect.
        let n = 1 << 18;
        let hot = WhiteNoise::new(1.0, 5).unwrap().generate(n);
        let cold = WhiteNoise::new(0.5, 6).unwrap().generate(n);
        let reference = SquareSource::new(700.0, 0.15)
            .unwrap()
            .generate(n, FS)
            .unwrap();
        let d = OneBitDigitizer::ideal();
        let bh = d.digitize(&hot, &reference).unwrap();
        let bc = d.digitize(&cold, &reference).unwrap();

        let with = OneBitPowerRatio::new(FS, 2048, 700.0, (100.0, 1_500.0)).unwrap();
        let without = with.clone().with_reference_exclusion(false);
        let r_with = with.estimate_bits(&bh, &bc).unwrap().ratio;
        let r_without = without.estimate_bits(&bh, &bc).unwrap().ratio;
        assert!((r_with - 4.0).abs() / 4.0 < 0.12, "with exclusion {r_with}");
        assert!(
            r_without < r_with * 0.85,
            "exclusion made no difference: {r_without} vs {r_with}"
        );
    }

    #[test]
    fn bit_path_is_bit_identical_to_expanded_sample_path() {
        // The packed entry point stages its expansion through the
        // workspace record buffer; the result must be bit-identical to
        // estimating over a caller-expanded buffer.
        let (hot, cold) = digitized_pair(1.0, 0.5, 0.1, 1 << 16);
        let est = OneBitPowerRatio::new(FS, 2048, 3_000.0, (100.0, 1_500.0)).unwrap();
        let from_bits = est.estimate_bits(&hot, &cold).unwrap();
        let from_samples = est
            .estimate_samples(&hot.to_bipolar(), &cold.to_bipolar())
            .unwrap();
        assert_eq!(from_bits.ratio, from_samples.ratio);
        assert_eq!(from_bits.hot_noise_power, from_samples.hot_noise_power);
        assert_eq!(from_bits.cold_noise_power, from_samples.cold_noise_power);
        assert_eq!(
            from_bits.hot_spectrum.density(),
            from_samples.hot_spectrum.density()
        );
        // Records of different lengths reuse the same staging buffer.
        let (short_hot, short_cold) = digitized_pair(1.0, 0.5, 0.1, (1 << 16) - 777);
        let r = est.estimate_bits(&short_hot, &short_cold).unwrap();
        assert!(r.ratio > 0.0);
    }

    #[test]
    fn intermediate_results_are_consistent() {
        let (hot, cold) = digitized_pair(1.0, 0.5, 0.1, 1 << 17);
        let est = OneBitPowerRatio::new(FS, 2048, 3_000.0, (100.0, 1_500.0)).unwrap();
        let r = est.estimate_bits(&hot, &cold).unwrap();
        assert!(r.hot_noise_power > 0.0);
        assert!(r.cold_noise_power > 0.0);
        assert!(r.normalization.scale > 0.0);
        assert_eq!(r.hot_spectrum.nfft(), 2048);
        // The normalized cold spectrum's line matches the hot one's.
        let t = ReferenceTracker::new(3_000.0, 60.0, 3).unwrap();
        let lh = t.locate(&r.hot_spectrum).unwrap();
        let lc = t.locate(&r.cold_spectrum_normalized).unwrap();
        assert!((lh.power - lc.power).abs() / lh.power < 1e-9);
    }

    #[test]
    fn missing_reference_is_degenerate() {
        // Digitize with no reference at all: the tracker must refuse to
        // normalize against a floor fluctuation instead of silently
        // returning a ratio near 1.
        let n = 1 << 16;
        let hot = WhiteNoise::new(1.0, 7).unwrap().generate(n);
        let cold = WhiteNoise::new(0.5, 8).unwrap().generate(n);
        let zeros = vec![0.0; n];
        let d = OneBitDigitizer::ideal();
        let bh = d.digitize(&hot, &zeros).unwrap();
        let bc = d.digitize(&cold, &zeros).unwrap();
        let est = OneBitPowerRatio::new(FS, 2048, 3_000.0, (100.0, 1_500.0)).unwrap();
        assert!(matches!(
            est.estimate_bits(&bh, &bc),
            Err(crate::CoreError::Degenerate { .. })
        ));
    }

    #[test]
    fn harmonics_excluded_when_in_band() {
        // Reference at 400 Hz: harmonics at 800, 1200 Hz fall inside
        // the 100–1500 Hz noise band and would bias the ratio toward 1
        // if counted.
        let n = 1 << 18;
        let hot = WhiteNoise::new(1.0, 9).unwrap().generate(n);
        let cold = WhiteNoise::new(0.5, 10).unwrap().generate(n);
        let reference = SquareSource::new(400.0, 0.12)
            .unwrap()
            .generate(n, FS)
            .unwrap();
        let d = OneBitDigitizer::ideal();
        let bh = d.digitize(&hot, &reference).unwrap();
        let bc = d.digitize(&cold, &reference).unwrap();
        let with = OneBitPowerRatio::new(FS, 2048, 400.0, (100.0, 1_500.0)).unwrap();
        let without = with.clone().with_excluded_harmonics(0);
        let r_with = with.estimate_bits(&bh, &bc).unwrap().ratio;
        let r_without = without.estimate_bits(&bh, &bc).unwrap().ratio;
        assert!(
            (r_with - 4.0).abs() / 4.0 < 0.12,
            "with harmonics excluded {r_with}"
        );
        assert!(r_without < r_with, "{r_without} vs {r_with}");
    }

    #[test]
    fn trait_objects_cover_all_three_table2_rows() {
        // 4:1 analog records for the two analog-domain estimators; the
        // digitized pair for the 1-bit row.
        let n = 200_000;
        let hot = WhiteNoise::new(2.0, 41).unwrap().generate(n);
        let cold = WhiteNoise::new(1.0, 42).unwrap().generate(n);
        let (bh, bc) = digitized_pair(2.0, 1.0, 0.2, 1 << 18);

        type Case<'a> = (Box<dyn PowerRatioEstimator>, &'a [f64], &'a [f64], f64);
        let estimators: Vec<Case> = vec![
            (Box::new(MeanSquareEstimator), &hot, &cold, 0.03),
            (
                Box::new(PsdRatioEstimator::new(FS, 2_048, (100.0, 9_000.0)).unwrap()),
                &hot,
                &cold,
                0.05,
            ),
        ];
        for (est, h, c, tol) in &estimators {
            let r = est.estimate(h, c).unwrap();
            assert!(
                (r.ratio - 4.0).abs() / 4.0 < *tol,
                "{}: ratio {}",
                est.label(),
                r.ratio
            );
            assert!(r.hot_power > r.cold_power);
        }

        let one_bit: Box<dyn PowerRatioEstimator> =
            Box::new(OneBitPowerRatio::new(FS, 2_048, 3_000.0, (100.0, 1_500.0)).unwrap());
        let r = one_bit
            .estimate(&bh.to_bipolar(), &bc.to_bipolar())
            .unwrap();
        assert!(
            (r.ratio - 4.0).abs() / 4.0 < 0.10,
            "one-bit ratio {}",
            r.ratio
        );
        assert!(r.one_bit().is_some(), "1-bit detail must be attached");
        assert!(r.one_bit().unwrap().normalization.scale > 0.0);
    }

    #[test]
    fn psd_estimator_validation_and_detail() {
        assert!(PsdRatioEstimator::new(0.0, 1024, (0.0, 1e3)).is_err());
        assert!(PsdRatioEstimator::new(FS, 0, (0.0, 1e3)).is_err());
        assert!(PsdRatioEstimator::new(FS, 1024, (1e3, 1e3)).is_err());
        let est = PsdRatioEstimator::new(FS, 1024, (100.0, 2e3)).unwrap();
        assert_eq!(est.band(), (100.0, 2e3));
        let hot = WhiteNoise::new(1.0, 1).unwrap().generate(50_000);
        let cold = WhiteNoise::new(1.0, 2).unwrap().generate(50_000);
        let r = PowerRatioEstimator::estimate(&est, &hot, &cold).unwrap();
        match r.detail {
            RatioDetail::Psd { nfft, band } => {
                assert_eq!(nfft, 1024);
                assert_eq!(band, (100.0, 2e3));
            }
            ref other => panic!("wrong detail {other:?}"),
        }
        assert!(r.one_bit().is_none());
    }

    #[test]
    fn mean_square_estimator_degenerate_cases() {
        let est = MeanSquareEstimator;
        assert!(est.estimate(&[], &[1.0]).is_err());
        assert!(matches!(
            est.estimate(&[1.0], &[0.0]),
            Err(CoreError::Degenerate { .. })
        ));
        assert!(est.label().contains("mean-square"));
    }

    #[test]
    fn workspace_reuse_is_deterministic_and_estimators_stay_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MeanSquareEstimator>();
        assert_send_sync::<PsdRatioEstimator>();
        assert_send_sync::<OneBitPowerRatio>();

        let hot = WhiteNoise::new(2.0, 77).unwrap().generate(50_000);
        let cold = WhiteNoise::new(1.0, 78).unwrap().generate(50_000);
        let est = PsdRatioEstimator::new(FS, 1_024, (100.0, 9_000.0)).unwrap();
        // Same estimator instance, warm workspace: bit-identical ratios.
        let first = est.estimate(&hot, &cold).unwrap();
        let second = est.estimate(&hot, &cold).unwrap();
        assert_eq!(first.ratio, second.ratio);
        // A clone (fresh workspace) agrees exactly too, and compares
        // equal on configuration.
        let cloned = est.clone();
        assert_eq!(est, cloned);
        assert_eq!(cloned.estimate(&hot, &cold).unwrap().ratio, first.ratio);

        let (bh, bc) = digitized_pair(1.0, 0.5, 0.1, 1 << 16);
        let one_bit = OneBitPowerRatio::new(FS, 2_048, 3_000.0, (100.0, 1_500.0)).unwrap();
        let a = one_bit.estimate_bits(&bh, &bc).unwrap();
        let b = one_bit.estimate_bits(&bh, &bc).unwrap();
        assert_eq!(a.ratio, b.ratio);
        assert_eq!(
            one_bit.clone().estimate_bits(&bh, &bc).unwrap().ratio,
            a.ratio
        );
    }

    #[test]
    fn boxed_estimator_delegates() {
        let boxed: Box<dyn PowerRatioEstimator> = Box::new(MeanSquareEstimator);
        let double: Box<dyn PowerRatioEstimator> = Box::new(boxed);
        let r = double.estimate(&[3.0, -3.0], &[1.0, -1.0]).unwrap();
        assert!((r.ratio - 9.0).abs() < 1e-12);
        assert_eq!(double.label(), MeanSquareEstimator.label());
    }
}
