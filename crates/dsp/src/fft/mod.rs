//! Fast Fourier transforms.
//!
//! Three engines are provided:
//!
//! * [`Fft`] — a planned, iterative radix-2 Cooley–Tukey transform for
//!   power-of-two sizes, with branch-free forward/inverse butterfly
//!   loops and twiddle-free first stages.
//! * [`RealFft`] — the real-input engine behind the PSD estimators: it
//!   packs `N` real samples into an `N/2`-point complex transform and
//!   untangles the conjugate-symmetric spectrum into the `N/2 + 1`
//!   one-sided bins, halving the butterfly work. It takes every even `N`
//!   whose half factors into 2s and 5s: powers of two run the radix-2
//!   kernel, the rest an in-place radix-4/2/5 kernel. The paper's
//!   prototype used 10⁴-point FFTs, and `10⁴/2 = 2³·5⁴`.
//! * [`ArbitraryFft`] — Bluestein's chirp-z algorithm for any size,
//!   built on top of the radix-2 kernel. The PSD estimators use it only
//!   for sizes [`RealFft`] rejects: odd sizes, and halves with a prime
//!   factor other than 2 and 5.
//!
//! Conventions: the forward transform computes
//! `X[k] = Σ_n x[n]·e^{-j2πkn/N}` with no scaling; the inverse applies the
//! `1/N` factor. This matches Matlab, which the paper's processing used.
//!
//! # Examples
//!
//! ```
//! use nfbist_dsp::complex::Complex64;
//! use nfbist_dsp::fft::Fft;
//!
//! # fn main() -> Result<(), nfbist_dsp::DspError> {
//! let plan = Fft::new(8)?;
//! let x = vec![Complex64::ONE; 8];
//! let spec = plan.forward(&x)?;
//! // A DC-only signal transforms to a single bin of height N.
//! assert!((spec[0].re - 8.0).abs() < 1e-12);
//! assert!(spec[1..].iter().all(|z| z.abs() < 1e-12));
//! # Ok(())
//! # }
//! ```

mod bluestein;
mod mixed;
mod radix2;
mod real;

pub use bluestein::ArbitraryFft;
pub use real::RealFft;

use crate::complex::Complex64;
use crate::DspError;
use std::sync::OnceLock;

/// A planned radix-2 FFT of a fixed power-of-two size.
///
/// Plans precompute the stage-ordered twiddle tables and the
/// bit-reversal permutation so repeated transforms (e.g. Welch segment
/// averaging over a 10⁶-sample acquisition) do no trigonometry in the
/// hot loop, and the butterfly loops stream their twiddles in cache
/// order.
#[derive(Debug, Clone)]
pub struct Fft {
    size: usize,
    stage_twiddles: Vec<Complex64>,
    bit_rev: Vec<u32>,
    /// Lazily-built packed real engine backing
    /// [`Fft::forward_real_half`] (boxed: `RealFft` holds a half-size
    /// `Fft` of its own).
    real_half: OnceLock<Box<RealFft>>,
}

impl Fft {
    /// Plans an FFT of `size` points.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFftSize`] unless `size` is a power of
    /// two greater than zero.
    pub fn new(size: usize) -> Result<Self, DspError> {
        if size == 0 {
            return Err(DspError::InvalidFftSize {
                size,
                reason: "fft size must be nonzero",
            });
        }
        if !size.is_power_of_two() {
            return Err(DspError::InvalidFftSize {
                size,
                reason: "fft size must be a power of two (use ArbitraryFft otherwise)",
            });
        }
        Ok(Fft {
            size,
            stage_twiddles: radix2::make_stage_twiddles(size),
            bit_rev: radix2::make_bit_reversal(size),
            real_half: OnceLock::new(),
        })
    }

    /// The planned transform size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Forward transform of a complex buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `x.len() != self.size()`.
    pub fn forward(&self, x: &[Complex64]) -> Result<Vec<Complex64>, DspError> {
        self.check_len(x.len(), "fft forward")?;
        let mut buf = x.to_vec();
        self.forward_in_place(&mut buf)?;
        Ok(buf)
    }

    /// Forward transform, in place.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `buf.len() != self.size()`.
    pub fn forward_in_place(&self, buf: &mut [Complex64]) -> Result<(), DspError> {
        self.check_len(buf.len(), "fft forward_in_place")?;
        radix2::forward(buf, &self.stage_twiddles, &self.bit_rev);
        Ok(())
    }

    /// Inverse transform (applies the `1/N` scale).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `x.len() != self.size()`.
    pub fn inverse(&self, x: &[Complex64]) -> Result<Vec<Complex64>, DspError> {
        self.check_len(x.len(), "fft inverse")?;
        let mut buf = x.to_vec();
        self.inverse_in_place(&mut buf)?;
        Ok(buf)
    }

    /// Inverse transform in place (applies the `1/N` scale).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `buf.len() != self.size()`.
    pub fn inverse_in_place(&self, buf: &mut [Complex64]) -> Result<(), DspError> {
        self.check_len(buf.len(), "fft inverse_in_place")?;
        radix2::inverse(buf, &self.stage_twiddles, &self.bit_rev);
        let scale = 1.0 / self.size as f64;
        for z in buf.iter_mut() {
            *z = z.scale(scale);
        }
        Ok(())
    }

    /// Forward transform of a real buffer, returning the full complex
    /// spectrum (length `N`, conjugate-symmetric).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `x.len() != self.size()`.
    pub fn forward_real(&self, x: &[f64]) -> Result<Vec<Complex64>, DspError> {
        self.check_len(x.len(), "fft forward_real")?;
        let mut buf: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
        self.forward_in_place(&mut buf)?;
        Ok(buf)
    }

    /// Forward transform of a real buffer into a caller-owned output
    /// buffer — the zero-allocation variant of [`Fft::forward_real`]
    /// used by the PSD workspace hot path.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `x.len()` or `out.len()`
    /// differs from `self.size()`.
    pub fn forward_real_into(&self, x: &[f64], out: &mut [Complex64]) -> Result<(), DspError> {
        self.check_len(x.len(), "fft forward_real_into (input)")?;
        self.check_len(out.len(), "fft forward_real_into (output)")?;
        for (o, &v) in out.iter_mut().zip(x) {
            *o = Complex64::from_real(v);
        }
        radix2::forward(out, &self.stage_twiddles, &self.bit_rev);
        Ok(())
    }

    /// Forward transform of a real buffer, returning only the `N/2 + 1`
    /// non-redundant (one-sided) bins.
    ///
    /// Runs through the packed [`RealFft`] engine, so only half the
    /// butterfly work of [`Fft::forward_real`] is done and the mirrored
    /// upper bins are never computed or allocated. The real engine is
    /// planned once on first use and cached inside this plan.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `x.len() != self.size()`.
    pub fn forward_real_half(&self, x: &[f64]) -> Result<Vec<Complex64>, DspError> {
        self.check_len(x.len(), "fft forward_real_half")?;
        self.real_half
            .get_or_init(|| Box::new(RealFft::new(self.size).expect("size validated by Fft::new")))
            .forward(x)
    }

    fn check_len(&self, actual: usize, context: &'static str) -> Result<(), DspError> {
        if actual != self.size {
            return Err(DspError::LengthMismatch {
                expected: self.size,
                actual,
                context,
            });
        }
        Ok(())
    }
}

/// Computes the forward DFT directly from its definition in `O(N²)`.
///
/// Exists as an oracle for testing the fast transforms and is exported so
/// downstream test suites can do the same. Do not use it for real
/// workloads.
///
/// # Examples
///
/// ```
/// use nfbist_dsp::complex::Complex64;
/// use nfbist_dsp::fft::{dft_naive, Fft};
///
/// # fn main() -> Result<(), nfbist_dsp::DspError> {
/// let x: Vec<Complex64> = (0..8).map(|n| Complex64::new(n as f64, 0.0)).collect();
/// let fast = Fft::new(8)?.forward(&x)?;
/// let slow = dft_naive(&x);
/// for (a, b) in fast.iter().zip(&slow) {
///     assert!((*a - *b).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
pub fn dft_naive(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    let mut out = vec![Complex64::ZERO; n];
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &v) in x.iter().enumerate() {
            let theta = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
            acc += v * Complex64::cis(theta);
        }
        *slot = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "mismatch: {x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(Fft::new(0).is_err());
        assert!(Fft::new(3).is_err());
        assert!(Fft::new(12).is_err());
        assert!(Fft::new(1).is_ok());
        assert!(Fft::new(1024).is_ok());
    }

    #[test]
    fn size_one_is_identity() {
        let plan = Fft::new(1).unwrap();
        let x = [Complex64::new(2.5, -1.0)];
        assert_eq!(plan.forward(&x).unwrap(), vec![x[0]]);
        assert_eq!(plan.inverse(&x).unwrap(), vec![x[0]]);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let plan = Fft::new(16).unwrap();
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        let spec = plan.forward(&x).unwrap();
        for z in spec {
            assert!((z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let plan = Fft::new(n).unwrap();
        let k0 = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * PI * (k0 * j) as f64 / n as f64))
            .collect();
        let spec = plan.forward(&x).unwrap();
        assert!((spec[k0].re - n as f64).abs() < 1e-9);
        for (k, z) in spec.iter().enumerate() {
            if k != k0 {
                assert!(z.abs() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        for n in [2usize, 4, 8, 32, 128] {
            let x: Vec<Complex64> = (0..n)
                .map(|j| Complex64::new((j as f64 * 0.7).sin() + 0.3, (j as f64 * 1.3).cos() - 0.1))
                .collect();
            let fast = Fft::new(n).unwrap().forward(&x).unwrap();
            let slow = dft_naive(&x);
            assert_close(&fast, &slow, 1e-8 * n as f64);
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let n = 256;
        let plan = Fft::new(n).unwrap();
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::new((j as f64).sin(), (j as f64 * 0.5).cos()))
            .collect();
        let back = plan.inverse(&plan.forward(&x).unwrap()).unwrap();
        assert_close(&back, &x, 1e-10);
    }

    #[test]
    fn real_transform_is_conjugate_symmetric() {
        let n = 64;
        let plan = Fft::new(n).unwrap();
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.31).sin() + 0.2).collect();
        let spec = plan.forward_real(&x).unwrap();
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a - b).abs() < 1e-9, "symmetry broken at bin {k}");
        }
    }

    #[test]
    fn forward_real_into_matches_allocating_path_bitwise() {
        let n = 128;
        let plan = Fft::new(n).unwrap();
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.47).sin() - 0.1).collect();
        let alloc = plan.forward_real(&x).unwrap();
        let mut out = vec![Complex64::new(9.0, 9.0); n];
        plan.forward_real_into(&x, &mut out).unwrap();
        assert_eq!(alloc, out, "into-buffer path must be bit-identical");
        assert!(plan.forward_real_into(&x[..n - 1], &mut out).is_err());
        assert!(plan
            .forward_real_into(&x, &mut out[..n - 1].to_vec())
            .is_err());
    }

    #[test]
    fn forward_real_half_length() {
        let plan = Fft::new(32).unwrap();
        let x = vec![0.0; 32];
        assert_eq!(plan.forward_real_half(&x).unwrap().len(), 17);
        assert!(plan.forward_real_half(&x[..31]).is_err());
    }

    #[test]
    fn forward_real_half_matches_real_fft_bitwise_and_full_numerically() {
        let n = 64;
        let plan = Fft::new(n).unwrap();
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.29).sin() + 0.4).collect();
        let half = plan.forward_real_half(&x).unwrap();
        assert_eq!(half, RealFft::new(n).unwrap().forward(&x).unwrap());
        let full = plan.forward_real(&x).unwrap();
        for (k, (a, b)) in half.iter().zip(&full).enumerate() {
            assert!((*a - *b).abs() < 1e-9, "bin {k}: {a} vs {b}");
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let plan = Fft::new(n).unwrap();
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.11).cos()).collect();
        let spec = plan.forward_real(&x).unwrap();
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn length_mismatch_is_reported() {
        let plan = Fft::new(8).unwrap();
        let err = plan.forward(&[Complex64::ZERO; 4]).unwrap_err();
        assert!(matches!(
            err,
            DspError::LengthMismatch {
                expected: 8,
                actual: 4,
                ..
            }
        ));
    }

    #[test]
    fn linearity() {
        let n = 32;
        let plan = Fft::new(n).unwrap();
        let a: Vec<Complex64> = (0..n).map(|j| Complex64::new(j as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|j| Complex64::new(0.0, (j as f64).sin()))
            .collect();
        let lhs: Vec<Complex64> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x.scale(2.0) + y.scale(-3.0))
            .collect();
        let fl = plan.forward(&lhs).unwrap();
        let fa = plan.forward(&a).unwrap();
        let fb = plan.forward(&b).unwrap();
        for k in 0..n {
            let expect = fa[k].scale(2.0) + fb[k].scale(-3.0);
            assert!((fl[k] - expect).abs() < 1e-9);
        }
    }
}
