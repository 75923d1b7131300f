//! Reusable DSP scratch state for allocation-free PSD estimation.
//!
//! The paper's hot path runs the same Welch analysis (10⁴-point
//! segments over 10⁶-sample records) on every acquisition of every
//! repeat of every experiment cell. Re-planning the FFT and
//! reallocating the segment/spectrum/accumulator buffers per call is
//! pure waste, so [`DspWorkspace`] caches a [`PsdPlan`] per
//! `(fft size, window)` pair and the estimators thread one workspace
//! through all of their estimates:
//!
//! ```
//! use nfbist_dsp::psd::{DspWorkspace, WelchConfig};
//!
//! # fn main() -> Result<(), nfbist_dsp::DspError> {
//! let x: Vec<f64> = (0..8192).map(|n| (n as f64 * 0.37).sin()).collect();
//! let cfg = WelchConfig::new(1024)?;
//! let mut ws = DspWorkspace::new();
//! let first = cfg.estimate_with(&x, 10_000.0, &mut ws)?; // plans + allocates once
//! let second = cfg.estimate_with(&x, 10_000.0, &mut ws)?; // reuses everything
//! assert_eq!(first, second);
//! assert_eq!(ws.plan_count(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! For a fully allocation-free steady state use
//! [`WelchConfig::estimate_into`](crate::psd::WelchConfig::estimate_into),
//! which also writes the output densities into caller-owned scratch.

use crate::complex::Complex64;
use crate::psd::AnyFft;
use crate::window::Window;
use crate::DspError;

/// A cached, reusable analysis plan for one `(fft size, window)` pair:
/// the planned FFT, the window coefficients and their power sum, and
/// every scratch buffer the segment loop needs.
///
/// Obtained from [`DspWorkspace::plan`]; the estimation entry points
/// ([`WelchConfig::estimate_with`](crate::psd::WelchConfig::estimate_with)
/// and friends) use it internally.
#[derive(Debug)]
pub struct PsdPlan {
    pub(crate) fft: AnyFft,
    window: Window,
    /// Window coefficients, length `n`.
    pub(crate) coeffs: Vec<f64>,
    /// `U = Σw²`, the PSD normalization denominator.
    pub(crate) window_power: f64,
    /// Windowed-segment staging buffer, length `n` (densities
    /// accumulate straight into the caller's output, so no separate
    /// accumulator lives here).
    pub(crate) seg: Vec<f64>,
    /// Complex spectrum buffer: the one-sided `n/2 + 1` bins for sizes
    /// the packed real FFT takes (powers of two and even `2^a·5^c`,
    /// the paper's 10⁴ among them), the full `n` bins for Bluestein
    /// sizes.
    pub(crate) spec: Vec<Complex64>,
    /// FFT-internal scratch (empty for the packed real engine, the
    /// convolution length for Bluestein sizes).
    pub(crate) scratch: Vec<Complex64>,
}

impl PsdPlan {
    fn new(n: usize, window: Window) -> Result<Self, DspError> {
        let fft = AnyFft::new(n)?;
        let coeffs = window.coefficients(n);
        let window_power: f64 = coeffs.iter().map(|w| w * w).sum();
        let scratch = vec![Complex64::ZERO; fft.scratch_len()];
        let spec = vec![Complex64::ZERO; fft.spectrum_len()];
        Ok(PsdPlan {
            fft,
            window,
            coeffs,
            window_power,
            seg: vec![0.0; n],
            spec,
            scratch,
        })
    }

    /// The planned FFT / segment length.
    pub fn size(&self) -> usize {
        self.seg.len()
    }

    /// The analysis window the plan was built for.
    pub fn window(&self) -> Window {
        self.window
    }
}

/// A cache of [`PsdPlan`]s keyed by `(fft size, window)`.
///
/// Holding one workspace across repeated estimates makes the Welch /
/// periodogram steady state allocation-free: planning and buffer
/// allocation happen on the first call for a given size and are
/// amortized over every later call. The workspace is deliberately
/// `!Sync`-by-use (methods take `&mut self`); share one per thread, or
/// guard it with a mutex when a `Sync` estimator needs interior
/// mutability.
#[derive(Debug, Default)]
pub struct DspWorkspace {
    plans: Vec<PsdPlan>,
    /// Reusable real-sample staging buffer for callers that must
    /// expand a packed record (e.g. a ±1 bitstream) before estimating;
    /// moved out/in with [`DspWorkspace::take_record_buf`] /
    /// [`DspWorkspace::return_record_buf`] so its capacity survives
    /// across estimates without fighting the borrow on the plan cache.
    record_buf: Option<Vec<f64>>,
}

impl DspWorkspace {
    /// Creates an empty workspace (no plans until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the reusable record staging buffer out of the workspace
    /// (an empty vector on first use). Callers resize and fill it,
    /// run their estimates — the workspace stays borrowable because
    /// the buffer is owned, not borrowed — and hand it back with
    /// [`DspWorkspace::return_record_buf`] so the steady state
    /// allocates nothing.
    pub fn take_record_buf(&mut self) -> Vec<f64> {
        self.record_buf.take().unwrap_or_default()
    }

    /// Returns a buffer taken with [`DspWorkspace::take_record_buf`],
    /// preserving its capacity for the next estimate.
    pub fn return_record_buf(&mut self, buf: Vec<f64>) {
        self.record_buf = Some(buf);
    }

    /// Returns the cached plan for `(n, window)`, building it on first
    /// use.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFftSize`] for `n == 0`.
    pub fn plan(&mut self, n: usize, window: Window) -> Result<&mut PsdPlan, DspError> {
        // Linear scan: a workspace holds a handful of plans at most,
        // and `Window` carries an `f64` parameter (Kaiser) that rules
        // out a hash key.
        if let Some(i) = self
            .plans
            .iter()
            .position(|p| p.size() == n && p.window() == window)
        {
            return Ok(&mut self.plans[i]);
        }
        self.plans.push(PsdPlan::new(n, window)?);
        Ok(self.plans.last_mut().expect("just pushed"))
    }

    /// Number of distinct plans currently cached.
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_cached_per_size_and_window() {
        let mut ws = DspWorkspace::new();
        ws.plan(256, Window::Hann).unwrap();
        ws.plan(256, Window::Hann).unwrap();
        assert_eq!(ws.plan_count(), 1);
        ws.plan(512, Window::Hann).unwrap();
        ws.plan(256, Window::Rectangular).unwrap();
        assert_eq!(ws.plan_count(), 3);
        // Kaiser windows with different β are distinct plans.
        ws.plan(256, Window::Kaiser(4.0)).unwrap();
        ws.plan(256, Window::Kaiser(4.0)).unwrap();
        ws.plan(256, Window::Kaiser(8.0)).unwrap();
        assert_eq!(ws.plan_count(), 5);
    }

    #[test]
    fn plan_buffers_match_fft_requirements() {
        let mut ws = DspWorkspace::new();
        // Power of two and the paper's 10⁴ = 2⁴·5⁴: packed real FFT, no
        // Bluestein scratch, one-sided spectrum only.
        for (n, bins) in [(1024, 513), (10_000, 5_001)] {
            let p = ws.plan(n, Window::Hann).unwrap();
            assert_eq!(p.size(), n);
            assert_eq!(p.scratch.len(), 0);
            assert_eq!(p.spec.len(), bins);
        }
        // 10 018 = 2·5 009 (prime) goes through Bluestein, which needs
        // the full spectrum buffer.
        let p = ws.plan(10_018, Window::Hann).unwrap();
        assert!(p.scratch.len() >= 2 * 10_018 - 1);
        assert_eq!(p.spec.len(), 10_018);
        assert_eq!(p.window(), Window::Hann);
    }

    #[test]
    fn record_buf_round_trips_with_capacity() {
        let mut ws = DspWorkspace::new();
        let mut buf = ws.take_record_buf();
        assert!(buf.is_empty());
        buf.resize(4_096, 0.5);
        let cap = buf.capacity();
        ws.return_record_buf(buf);
        let again = ws.take_record_buf();
        assert_eq!(again.capacity(), cap);
        assert_eq!(again.len(), 4_096);
        ws.return_record_buf(again);
    }

    #[test]
    fn zero_size_rejected() {
        assert!(DspWorkspace::new().plan(0, Window::Hann).is_err());
    }
}
