//! Power spectral density estimation.
//!
//! [`periodogram`] computes a single modified periodogram; [`WelchConfig`]
//! implements Welch's method of averaged, overlapped, windowed segments —
//! the estimator the paper's Matlab processing corresponds to (10⁶-sample
//! acquisitions split into 10⁴-point FFTs). [`WelchAccumulator`] runs the
//! same segment kernel over a record pushed chunk by chunk.
//!
//! Scaling follows the usual one-sided density convention: for a window
//! `w` with `U = Σw²`, the one-sided PSD is `|X[k]|²/(fs·U)` doubled on
//! all bins except DC and Nyquist. White noise of variance σ² then shows a
//! flat density of `σ²/(fs/2)`, and `Spectrum::total_power` recovers σ².

mod periodogram;
mod streaming;
mod welch;
mod workspace;

pub use periodogram::{periodogram, PeriodogramConfig};
pub use streaming::{
    DecayedSum, ForgettingWelch, RetentionStore, SegmentRing, SlidingWelch, WelchAccumulator,
};
pub use welch::WelchConfig;
pub use workspace::{DspWorkspace, PsdPlan};

use crate::complex::Complex64;
use crate::fft::{ArbitraryFft, RealFft};
use crate::DspError;

/// Internal dispatch between the packed real-FFT and Bluestein
/// engines, so PSD code accepts any FFT length.
///
/// Every size [`RealFft`] accepts runs through it — the powers of two
/// and the even `2^a·5^c` sizes such as the paper's 10⁴: half the
/// butterfly work, no convolution scratch, and only the `N/2 + 1`
/// one-sided bins ever materialized. The remaining sizes fall back to
/// Bluestein's full complex spectrum, of which the density pass reads
/// the non-redundant half.
#[derive(Debug, Clone)]
pub(crate) enum AnyFft {
    Real(RealFft),
    Arbitrary(ArbitraryFft),
}

impl AnyFft {
    /// Plans the engine for `n` points, chosen from the size alone.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFftSize`] for `n == 0`.
    pub(crate) fn new(n: usize) -> Result<Self, DspError> {
        match RealFft::new(n) {
            Ok(real) => Ok(AnyFft::Real(real)),
            Err(_) => Ok(AnyFft::Arbitrary(ArbitraryFft::new(n)?)),
        }
    }

    #[cfg(test)]
    pub(crate) fn size(&self) -> usize {
        match self {
            AnyFft::Real(f) => f.size(),
            AnyFft::Arbitrary(f) => f.size(),
        }
    }

    /// Scratch length the `_into` transform needs (0 for the packed
    /// real engine, the convolution length for Bluestein).
    pub(crate) fn scratch_len(&self) -> usize {
        match self {
            AnyFft::Real(_) => 0,
            AnyFft::Arbitrary(f) => f.scratch_len(),
        }
    }

    /// Length of the spectrum buffer this engine writes: the one-sided
    /// `n/2 + 1` bins for the real engine, the full `n` bins for
    /// Bluestein.
    pub(crate) fn spectrum_len(&self) -> usize {
        match self {
            AnyFft::Real(f) => f.output_len(),
            AnyFft::Arbitrary(f) => f.size(),
        }
    }

    /// Transforms a real buffer into `out` (length
    /// [`AnyFft::spectrum_len`]) without allocating; `scratch` must be
    /// [`AnyFft::scratch_len`] elements long. In both cases
    /// `out[..n/2 + 1]` holds the one-sided bins afterwards.
    pub(crate) fn forward_real_into(
        &self,
        x: &[f64],
        scratch: &mut [Complex64],
        out: &mut [Complex64],
    ) -> Result<(), DspError> {
        match self {
            AnyFft::Real(f) => f.forward_into(x, out),
            AnyFft::Arbitrary(f) => f.forward_real_into(x, scratch, out),
        }
    }
}

/// Converts a full complex spectrum of a real signal into one-sided PSD
/// densities with the scaling described in the module docs (test-only
/// wrapper over [`one_sided_density_accumulate`], which the estimators
/// use directly).
#[cfg(test)]
pub(crate) fn one_sided_density(
    spec: &[Complex64],
    sample_rate: f64,
    window_power: f64,
) -> Vec<f64> {
    let n = spec.len();
    let mut out = vec![0.0; n / 2 + 1];
    one_sided_density_accumulate(&spec[..n / 2 + 1], n, sample_rate, window_power, &mut out);
    out
}

/// Adds the one-sided densities of the `nfft/2 + 1` non-redundant bins
/// in `spec` onto `acc` (the Welch segment-averaging inner loop,
/// allocation-free). `spec` and `acc` must both hold `nfft/2 + 1`
/// entries — for the packed real engine that is the whole spectrum
/// buffer, for Bluestein the caller passes the lower half of the full
/// spectrum.
pub(crate) fn one_sided_density_accumulate(
    spec: &[Complex64],
    nfft: usize,
    sample_rate: f64,
    window_power: f64,
    acc: &mut [f64],
) {
    let half = nfft / 2 + 1;
    debug_assert_eq!(spec.len(), half);
    debug_assert_eq!(acc.len(), half);
    let base = 1.0 / (sample_rate * window_power);
    // Dispatched kernel: bit-identical across arms (DC/Nyquist handled
    // scalar inside; interior bins run 4 per register on AVX2).
    crate::simd::accumulate_one_sided(spec, nfft, base, acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_fft_dispatch() {
        assert!(matches!(AnyFft::new(1024).unwrap(), AnyFft::Real(_)));
        assert!(matches!(AnyFft::new(10_000).unwrap(), AnyFft::Real(_)));
        // 10 018 = 2·5 009 (prime): only Bluestein can take it.
        assert!(matches!(AnyFft::new(10_018).unwrap(), AnyFft::Arbitrary(_)));
        assert!(matches!(AnyFft::new(999).unwrap(), AnyFft::Arbitrary(_)));
        assert!(AnyFft::new(0).is_err());
        assert_eq!(AnyFft::new(10_018).unwrap().size(), 10_018);
    }

    #[test]
    fn one_sided_density_doubles_interior_bins() {
        // Spectrum of all-ones magnitude, N=8.
        let spec = vec![Complex64::ONE; 8];
        let d = one_sided_density(&spec, 1.0, 1.0);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], 1.0); // DC not doubled
        assert_eq!(d[4], 1.0); // Nyquist not doubled
        for &v in &d[1..4] {
            assert_eq!(v, 2.0);
        }
    }

    #[test]
    fn one_sided_density_odd_length_has_no_nyquist() {
        let spec = vec![Complex64::ONE; 7];
        let d = one_sided_density(&spec, 1.0, 1.0);
        assert_eq!(d.len(), 4);
        assert_eq!(d[0], 1.0);
        for &v in &d[1..4] {
            assert_eq!(v, 2.0);
        }
    }
}
