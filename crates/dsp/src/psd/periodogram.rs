//! Single-segment (modified) periodogram.

use crate::psd::{one_sided_density_accumulate, DspWorkspace};
use crate::simd::{self, SimdPolicy};
use crate::spectrum::Spectrum;
use crate::window::Window;
use crate::DspError;

/// Configuration for a modified periodogram.
///
/// # Examples
///
/// ```
/// use nfbist_dsp::psd::PeriodogramConfig;
/// use nfbist_dsp::window::Window;
///
/// # fn main() -> Result<(), nfbist_dsp::DspError> {
/// let x = vec![1.0; 256];
/// let psd = PeriodogramConfig::new()
///     .window(Window::Rectangular)
///     .estimate(&x, 1000.0)?;
/// // All power of a DC signal lands in bin 0.
/// assert!(psd.density()[0] > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PeriodogramConfig {
    window: Window,
    detrend: bool,
    simd: SimdPolicy,
}

impl PeriodogramConfig {
    /// Default configuration: rectangular window, no detrending.
    pub fn new() -> Self {
        PeriodogramConfig {
            window: Window::Rectangular,
            detrend: false,
            simd: SimdPolicy::Exact,
        }
    }

    /// Selects the analysis window.
    pub fn window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Enables mean removal before windowing. Useful when a DC offset
    /// would otherwise leak into low bins through the window skirts.
    pub fn detrend(mut self, on: bool) -> Self {
        self.detrend = on;
        self
    }

    /// Selects the SIMD reduction policy (default
    /// [`SimdPolicy::Exact`]; only the detrend mean is affected — see
    /// [`crate::simd`]).
    pub fn simd(mut self, policy: SimdPolicy) -> Self {
        self.simd = policy;
        self
    }

    /// Computes the periodogram of `x` at `sample_rate` Hz; the FFT length
    /// equals `x.len()` (any size — Bluestein handles the sizes the real
    /// FFT rejects).
    ///
    /// Plans the FFT per call; steady-state code should hold a
    /// [`DspWorkspace`] and use [`PeriodogramConfig::estimate_with`].
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty buffer and
    /// [`DspError::InvalidParameter`] for a non-positive sample rate.
    pub fn estimate(&self, x: &[f64], sample_rate: f64) -> Result<Spectrum, DspError> {
        self.estimate_with(x, sample_rate, &mut DspWorkspace::new())
    }

    /// Computes the periodogram reusing the plans and scratch buffers of
    /// `workspace`; only the returned [`Spectrum`]'s density vector is
    /// allocated. When no detrend or windowing copy is required
    /// (rectangular window, detrend off) the input is transformed
    /// directly, without staging it through the segment buffer.
    ///
    /// # Errors
    ///
    /// Same as [`PeriodogramConfig::estimate`].
    pub fn estimate_with(
        &self,
        x: &[f64],
        sample_rate: f64,
        workspace: &mut DspWorkspace,
    ) -> Result<Spectrum, DspError> {
        let n = x.len();
        let mut out = vec![0.0f64; n / 2 + 1];
        self.estimate_into(x, sample_rate, workspace, &mut out)?;
        Spectrum::new(out, sample_rate, n)
    }

    /// The fully allocation-free periodogram: writes the one-sided
    /// densities into the caller-owned `out` (length `x.len()/2 + 1`).
    ///
    /// # Errors
    ///
    /// Same as [`PeriodogramConfig::estimate`], plus
    /// [`DspError::LengthMismatch`] for a wrongly sized `out`.
    pub fn estimate_into(
        &self,
        x: &[f64],
        sample_rate: f64,
        workspace: &mut DspWorkspace,
        out: &mut [f64],
    ) -> Result<(), DspError> {
        if x.is_empty() {
            return Err(DspError::EmptyInput {
                context: "periodogram",
            });
        }
        if !(sample_rate > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        let n = x.len();
        if out.len() != n / 2 + 1 {
            return Err(DspError::LengthMismatch {
                expected: n / 2 + 1,
                actual: out.len(),
                context: "periodogram estimate_into (output)",
            });
        }
        let plan = workspace.plan(n, self.window)?;
        // The rectangular, no-detrend case needs no per-sample rewrite,
        // so the input feeds the FFT directly instead of being copied
        // into the segment buffer first.
        let src: &[f64] = if self.detrend || self.window != Window::Rectangular {
            plan.seg.copy_from_slice(x);
            if self.detrend {
                let mu = simd::sum(&plan.seg, self.simd) / n as f64;
                simd::subtract_scalar(&mut plan.seg, mu);
            }
            simd::apply_window(&mut plan.seg, &plan.coeffs);
            &plan.seg
        } else {
            x
        };
        plan.fft
            .forward_real_into(src, &mut plan.scratch, &mut plan.spec)?;
        out.fill(0.0);
        one_sided_density_accumulate(
            &plan.spec[..n / 2 + 1],
            n,
            sample_rate,
            plan.window_power,
            out,
        );
        Ok(())
    }
}

impl Default for PeriodogramConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience wrapper: rectangular-window periodogram of `x`.
///
/// # Errors
///
/// Same as [`PeriodogramConfig::estimate`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), nfbist_dsp::DspError> {
/// let x: Vec<f64> = (0..128).map(|n| (n as f64 * 0.3).sin()).collect();
/// let psd = nfbist_dsp::psd::periodogram(&x, 1000.0)?;
/// assert_eq!(psd.len(), 65);
/// # Ok(())
/// # }
/// ```
pub fn periodogram(x: &[f64], sample_rate: f64) -> Result<Spectrum, DspError> {
    PeriodogramConfig::new().estimate(x, sample_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn empty_and_bad_rate_rejected() {
        assert!(periodogram(&[], 1000.0).is_err());
        assert!(periodogram(&[1.0], 0.0).is_err());
        assert!(periodogram(&[1.0], -1.0).is_err());
    }

    #[test]
    fn parseval_total_power_equals_mean_square() {
        let n = 512;
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.17).sin() + 0.5).collect();
        let psd = periodogram(&x, 2000.0).unwrap();
        let ms = crate::stats::mean_square(&x).unwrap();
        assert!(
            (psd.total_power() - ms).abs() / ms < 1e-9,
            "{} vs {}",
            psd.total_power(),
            ms
        );
    }

    #[test]
    fn bin_centred_tone_power() {
        let n = 1024;
        let fs = 1024.0;
        let k0 = 100;
        let amp = 2.0;
        let x: Vec<f64> = (0..n)
            .map(|j| amp * (2.0 * PI * k0 as f64 * j as f64 / n as f64).sin())
            .collect();
        let psd = periodogram(&x, fs).unwrap();
        // Tone power = amp²/2.
        let p = psd.tone_power(k0, 1).unwrap();
        assert!((p - amp * amp / 2.0).abs() < 1e-9, "tone power {p}");
    }

    #[test]
    fn hann_window_preserves_tone_power_with_skirt() {
        let n = 1024;
        let fs = 1024.0;
        let k0 = 100;
        let x: Vec<f64> = (0..n)
            .map(|j| (2.0 * PI * k0 as f64 * j as f64 / n as f64).sin())
            .collect();
        let psd = PeriodogramConfig::new()
            .window(Window::Hann)
            .estimate(&x, fs)
            .unwrap();
        // Summing PSD·Δf over the tone's main lobe recovers the tone
        // power directly (the window normalization cancels).
        let p = psd.tone_power(k0, 2).unwrap();
        assert!((p - 0.5).abs() < 0.01, "main-lobe tone power {p}");
        // Reading only the single peak bin instead requires the ENBW
        // correction.
        let single = psd.tone_power(k0, 0).unwrap() * Window::Hann.enbw_bins(n);
        assert!(
            (single - 0.5).abs() < 0.01,
            "enbw-corrected single bin {single}"
        );
    }

    #[test]
    fn detrend_removes_dc() {
        let x = vec![5.0; 256];
        let psd = PeriodogramConfig::new()
            .detrend(true)
            .estimate(&x, 1000.0)
            .unwrap();
        assert!(psd.total_power() < 1e-20);
    }

    #[test]
    fn workspace_path_is_bit_identical_to_allocating_path() {
        let x: Vec<f64> = (0..600).map(|j| (j as f64 * 0.13).sin() + 0.2).collect();
        let mut ws = DspWorkspace::new();
        for window in [Window::Rectangular, Window::Hann] {
            for detrend in [false, true] {
                let cfg = PeriodogramConfig::new().window(window).detrend(detrend);
                let alloc = cfg.estimate(&x, 1_200.0).unwrap();
                let reused = cfg.estimate_with(&x, 1_200.0, &mut ws).unwrap();
                assert_eq!(alloc, reused, "window {window:?} detrend {detrend}");
            }
        }
        assert_eq!(ws.plan_count(), 2);
        // Wrongly sized output buffer rejected.
        let mut bad = vec![0.0; 600 / 2];
        assert!(PeriodogramConfig::new()
            .estimate_into(&x, 1_200.0, &mut ws, &mut bad)
            .is_err());
    }

    #[test]
    fn non_power_of_two_length() {
        let n = 300;
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.21).cos()).collect();
        let psd = periodogram(&x, 600.0).unwrap();
        assert_eq!(psd.len(), 151);
        let ms = crate::stats::mean_square(&x).unwrap();
        assert!((psd.total_power() - ms).abs() / ms < 1e-8);
    }
}
