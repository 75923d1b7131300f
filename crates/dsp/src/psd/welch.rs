//! Welch's method: averaged modified periodograms over overlapped
//! segments.

use crate::psd::{one_sided_density_accumulate, DspWorkspace, PsdPlan};
use crate::simd::{self, SimdPolicy};
use crate::spectrum::Spectrum;
use crate::window::Window;
use crate::DspError;

/// Processes one Welch segment — detrend, window, real FFT, one-sided
/// density accumulation into `out` — through an already-built plan.
///
/// This is the single segment kernel shared by the batch estimator
/// ([`WelchConfig::estimate_into`]) and the chunked accumulator
/// ([`crate::psd::WelchAccumulator`]); sharing it is what makes the two
/// paths bitwise-identical by construction.
///
/// The hot loops (detrend subtract, window multiply, FFT butterflies,
/// density accumulation) run through the [`crate::simd`] dispatch layer
/// and are bit-identical across arms; only the detrend *mean* is a
/// reduction, so `policy` decides whether it may reassociate
/// ([`SimdPolicy::Exact`], the default, keeps the scalar fold).
pub(crate) fn accumulate_segment(
    plan: &mut PsdPlan,
    detrend: bool,
    policy: SimdPolicy,
    sample_rate: f64,
    segment: &[f64],
    out: &mut [f64],
) -> Result<(), DspError> {
    let n = plan.size();
    plan.seg.copy_from_slice(segment);
    if detrend {
        let mu = simd::sum(&plan.seg, policy) / n as f64;
        simd::subtract_scalar(&mut plan.seg, mu);
    }
    simd::apply_window(&mut plan.seg, &plan.coeffs);
    plan.fft
        .forward_real_into(&plan.seg, &mut plan.scratch, &mut plan.spec)?;
    one_sided_density_accumulate(
        &plan.spec[..n / 2 + 1],
        n,
        sample_rate,
        plan.window_power,
        out,
    );
    Ok(())
}

/// Configuration for a Welch PSD estimate.
///
/// Defaults: Hann window, 50 % overlap, no detrending — matching the
/// conventional `pwelch` settings the paper's Matlab processing implies.
///
/// # Examples
///
/// ```
/// use nfbist_dsp::psd::WelchConfig;
/// use nfbist_dsp::window::Window;
///
/// # fn main() -> Result<(), nfbist_dsp::DspError> {
/// let x: Vec<f64> = (0..8192).map(|n| (n as f64 * 0.37).sin()).collect();
/// let psd = WelchConfig::new(1024)?
///     .window(Window::Hann)
///     .overlap(0.5)?
///     .estimate(&x, 10_000.0)?;
/// assert_eq!(psd.len(), 513);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WelchConfig {
    segment_len: usize,
    window: Window,
    overlap: f64,
    detrend: bool,
    simd: SimdPolicy,
}

impl WelchConfig {
    /// Creates a configuration with `segment_len`-point segments (this is
    /// also the FFT length; any size is accepted).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for a zero segment length.
    pub fn new(segment_len: usize) -> Result<Self, DspError> {
        if segment_len == 0 {
            return Err(DspError::InvalidParameter {
                name: "segment_len",
                reason: "must be nonzero",
            });
        }
        Ok(WelchConfig {
            segment_len,
            window: Window::Hann,
            overlap: 0.5,
            detrend: false,
            simd: SimdPolicy::Exact,
        })
    }

    /// Selects the analysis window (default Hann).
    pub fn window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Sets the fractional overlap in `[0, 1)` (default 0.5).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if outside `[0, 1)`.
    pub fn overlap(mut self, overlap: f64) -> Result<Self, DspError> {
        if !(0.0..1.0).contains(&overlap) {
            return Err(DspError::InvalidParameter {
                name: "overlap",
                reason: "must be in [0, 1)",
            });
        }
        self.overlap = overlap;
        Ok(self)
    }

    /// Enables per-segment mean removal.
    pub fn detrend(mut self, on: bool) -> Self {
        self.detrend = on;
        self
    }

    /// Selects the SIMD reduction policy (default
    /// [`SimdPolicy::Exact`], which keeps the estimate bit-for-bit
    /// identical across dispatch arms and machines; only the detrend
    /// mean is affected — see [`crate::simd`]).
    pub fn simd(mut self, policy: SimdPolicy) -> Self {
        self.simd = policy;
        self
    }

    /// Segment length (== FFT length).
    pub fn segment_len(&self) -> usize {
        self.segment_len
    }

    /// Number of segments the estimator will average for an input of
    /// `input_len` samples (zero if the input is shorter than one
    /// segment).
    pub fn segment_count(&self, input_len: usize) -> usize {
        if input_len < self.segment_len {
            return 0;
        }
        let hop = self.hop();
        1 + (input_len - self.segment_len) / hop
    }

    /// Hop between consecutive segment starts, in samples (at least 1).
    pub(crate) fn hop(&self) -> usize {
        let hop = ((1.0 - self.overlap) * self.segment_len as f64).round() as usize;
        hop.max(1)
    }

    /// The configured analysis window.
    pub fn window_kind(&self) -> Window {
        self.window
    }

    /// The configured fractional overlap.
    pub fn overlap_fraction(&self) -> f64 {
        self.overlap
    }

    /// `true` when per-segment mean removal is enabled.
    pub fn detrend_enabled(&self) -> bool {
        self.detrend
    }

    /// The configured SIMD reduction policy.
    pub fn simd_policy(&self) -> SimdPolicy {
        self.simd
    }

    /// Runs the estimator over `x` sampled at `sample_rate` Hz.
    ///
    /// Plans the FFT and allocates scratch per call; steady-state code
    /// should hold a [`DspWorkspace`] and use
    /// [`WelchConfig::estimate_with`] (or [`WelchConfig::estimate_into`]
    /// for a fully allocation-free inner loop) instead.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `x` is shorter than one
    /// segment, and [`DspError::InvalidParameter`] for a non-positive
    /// sample rate.
    pub fn estimate(&self, x: &[f64], sample_rate: f64) -> Result<Spectrum, DspError> {
        self.estimate_with(x, sample_rate, &mut DspWorkspace::new())
    }

    /// Runs the estimator reusing the plans and scratch buffers of
    /// `workspace`; only the returned [`Spectrum`]'s density vector is
    /// allocated.
    ///
    /// # Errors
    ///
    /// Same as [`WelchConfig::estimate`].
    pub fn estimate_with(
        &self,
        x: &[f64],
        sample_rate: f64,
        workspace: &mut DspWorkspace,
    ) -> Result<Spectrum, DspError> {
        let mut out = vec![0.0f64; self.segment_len / 2 + 1];
        self.estimate_into(x, sample_rate, workspace, &mut out)?;
        Spectrum::new(out, sample_rate, self.segment_len)
    }

    /// The fully allocation-free estimator: reuses `workspace` plans and
    /// scratch, and writes the one-sided densities into the caller-owned
    /// `out` (length `segment_len/2 + 1`). In the steady state — after
    /// the workspace holds this configuration's plan — a call performs
    /// no FFT planning and no heap allocation at all.
    ///
    /// # Errors
    ///
    /// Same as [`WelchConfig::estimate`], plus
    /// [`DspError::LengthMismatch`] for a wrongly sized `out`.
    pub fn estimate_into(
        &self,
        x: &[f64],
        sample_rate: f64,
        workspace: &mut DspWorkspace,
        out: &mut [f64],
    ) -> Result<(), DspError> {
        if !(sample_rate > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        let n = self.segment_len;
        if x.len() < n {
            return Err(DspError::EmptyInput {
                context: "welch (input shorter than one segment)",
            });
        }
        if out.len() != n / 2 + 1 {
            return Err(DspError::LengthMismatch {
                expected: n / 2 + 1,
                actual: out.len(),
                context: "welch estimate_into (output)",
            });
        }
        let plan = workspace.plan(n, self.window)?;
        let hop = self.hop();

        out.fill(0.0);
        let mut segments = 0usize;
        let mut start = 0usize;
        while start + n <= x.len() {
            accumulate_segment(
                plan,
                self.detrend,
                self.simd,
                sample_rate,
                &x[start..start + n],
                out,
            )?;
            segments += 1;
            start += hop;
        }
        let inv = 1.0 / segments as f64;
        for o in out.iter_mut() {
            *o *= inv;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Deterministic uniform LCG mapped to an approximately Gaussian
    /// variable by a 12-sum central limit construction.
    fn gaussian_like(n: usize, sigma: f64, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| sigma * ((0..12).map(|_| next()).sum::<f64>() - 6.0))
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(WelchConfig::new(0).is_err());
        assert!(WelchConfig::new(64).unwrap().overlap(1.0).is_err());
        assert!(WelchConfig::new(64).unwrap().overlap(-0.1).is_err());
        assert!(WelchConfig::new(64).unwrap().overlap(0.75).is_ok());
    }

    #[test]
    fn configuration_reads_back_and_defaults_to_the_paper_choice() {
        let default = WelchConfig::new(256).unwrap();
        assert_eq!(default.segment_len(), 256);
        assert_eq!(default.window_kind(), Window::Hann);
        assert_eq!(default.overlap_fraction(), 0.5);
        assert!(!default.detrend_enabled());
        assert_eq!(default.simd_policy(), SimdPolicy::Exact);
        let tuned = default
            .window(Window::Blackman)
            .overlap(0.75)
            .unwrap()
            .detrend(true)
            .simd(SimdPolicy::Relaxed);
        assert_eq!(tuned.window_kind(), Window::Blackman);
        assert_eq!(tuned.overlap_fraction(), 0.75);
        assert!(tuned.detrend_enabled());
        assert_eq!(tuned.simd_policy(), SimdPolicy::Relaxed);
        // A rejected overlap leaves nothing half-configured.
        assert!(tuned.clone().overlap(1.0).is_err());
        assert_eq!(tuned.overlap_fraction(), 0.75);
    }

    #[test]
    fn segment_count_arithmetic() {
        let cfg = WelchConfig::new(100).unwrap().overlap(0.5).unwrap();
        assert_eq!(cfg.segment_count(99), 0);
        assert_eq!(cfg.segment_count(100), 1);
        assert_eq!(cfg.segment_count(150), 2);
        assert_eq!(cfg.segment_count(1000), 19);
    }

    #[test]
    fn input_shorter_than_segment_rejected() {
        let cfg = WelchConfig::new(256).unwrap();
        assert!(cfg.estimate(&[0.0; 255], 1000.0).is_err());
    }

    #[test]
    fn white_noise_density_is_flat_at_sigma_squared_over_half_fs() {
        let fs = 10_000.0;
        let sigma = 0.5;
        let x = gaussian_like(200_000, sigma, 42);
        let psd = WelchConfig::new(1024).unwrap().estimate(&x, fs).unwrap();
        // Expected one-sided density: σ²/(fs/2).
        let expected = sigma * sigma / (fs / 2.0);
        // Average density across interior bins.
        let d = psd.density();
        let avg: f64 = d[1..d.len() - 1].iter().sum::<f64>() / (d.len() - 2) as f64;
        assert!(
            (avg - expected).abs() / expected < 0.05,
            "avg {avg} vs expected {expected}"
        );
        // Total power recovers the variance.
        assert!((psd.total_power() - sigma * sigma).abs() / (sigma * sigma) < 0.05);
    }

    #[test]
    fn tone_power_recovered_with_enbw_correction() {
        let fs = 8192.0;
        let n = 1 << 16;
        let nseg = 1024;
        let k0 = 128; // within each segment: 128·(fs/1024) = 1024 Hz
        let f0 = k0 as f64 * fs / nseg as f64;
        let amp = 0.3;
        let x: Vec<f64> = (0..n)
            .map(|j| amp * (2.0 * PI * f0 * j as f64 / fs).sin())
            .collect();
        let psd = WelchConfig::new(nseg).unwrap().estimate(&x, fs).unwrap();
        // Main-lobe sum recovers the tone power without any window
        // correction (see the periodogram tests for the single-bin form).
        let p = psd.tone_power(k0, 3).unwrap();
        assert!(
            (p - amp * amp / 2.0).abs() / (amp * amp / 2.0) < 0.05,
            "tone power {p}"
        );
    }

    #[test]
    fn averaging_reduces_variance() {
        let fs = 1000.0;
        let x = gaussian_like(64 * 256, 1.0, 7);
        let one_seg = WelchConfig::new(4096).unwrap().estimate(&x, fs).unwrap();
        let many_seg = WelchConfig::new(256).unwrap().estimate(&x, fs).unwrap();
        let spread = |s: &Spectrum| {
            let d = s.density();
            let m = d.iter().sum::<f64>() / d.len() as f64;
            d.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / d.len() as f64 / (m * m)
        };
        assert!(
            spread(&many_seg) < spread(&one_seg) / 4.0,
            "averaging did not reduce relative variance"
        );
    }

    #[test]
    fn workspace_path_is_bit_identical_to_allocating_path() {
        let fs = 20_000.0;
        let x = gaussian_like(30_000, 1.0, 99);
        let mut ws = DspWorkspace::new();
        for nfft in [1_024usize, 1_000] {
            for detrend in [false, true] {
                let cfg = WelchConfig::new(nfft)
                    .unwrap()
                    .window(Window::Hann)
                    .detrend(detrend);
                let alloc = cfg.estimate(&x, fs).unwrap();
                let reused = cfg.estimate_with(&x, fs, &mut ws).unwrap();
                assert_eq!(alloc, reused, "nfft {nfft} detrend {detrend}");
                // Second pass over the now-warm workspace: still identical.
                let again = cfg.estimate_with(&x, fs, &mut ws).unwrap();
                assert_eq!(alloc, again);
            }
        }
        assert_eq!(ws.plan_count(), 2, "one plan per (size, window)");
    }

    #[test]
    fn estimate_into_validates_output_length() {
        let x = gaussian_like(4_096, 1.0, 5);
        let cfg = WelchConfig::new(512).unwrap();
        let mut ws = DspWorkspace::new();
        let mut bad = vec![0.0; 512 / 2];
        assert!(cfg.estimate_into(&x, 1_000.0, &mut ws, &mut bad).is_err());
        let mut good = vec![0.0; 512 / 2 + 1];
        cfg.estimate_into(&x, 1_000.0, &mut ws, &mut good).unwrap();
        assert_eq!(good, cfg.estimate(&x, 1_000.0).unwrap().density());
    }

    #[test]
    fn non_power_of_two_segments() {
        let x = gaussian_like(50_000, 1.0, 3);
        let psd = WelchConfig::new(10_00)
            .unwrap()
            .estimate(&x, 5000.0)
            .unwrap();
        assert_eq!(psd.len(), 501);
        assert!((psd.total_power() - 1.0).abs() < 0.1);
    }
}
