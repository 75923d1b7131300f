//! Packed real-input FFT: `N` real samples transformed through one
//! `N/2`-point complex FFT plus an `O(N)` untangling pass.
//!
//! Every spectral estimate in this workspace starts from a *real*
//! record (and, in the 1-bit BIST, a ±1-valued one), so a full `N`-point
//! complex transform wastes half its butterflies on the imaginary lane
//! of zeros. [`RealFft`] uses the classic pack/untangle identity
//! instead: place even samples in the real lane and odd samples in the
//! imaginary lane of an `N/2` complex buffer,
//!
//! `z[m] = x[2m] + j·x[2m+1]`,
//!
//! transform once, and split the result with the conjugate symmetry of
//! real-signal spectra. Writing `Z = FFT_{N/2}(z)`, the even- and
//! odd-sample spectra are
//!
//! `E[k] = (Z[k] + Z*[M−k])/2`, `O[k] = −j·(Z[k] − Z*[M−k])/2`,
//!
//! and the one-sided output is `X[k] = E[k] + W_N^k·O[k]` for
//! `k = 0..=M` with `M = N/2` (`X[M−k] = (E[k] − W_N^k·O[k])*` comes
//! for free, which is how the untangle pass runs in place over pairs of
//! bins). The remaining `N/2−1..N` bins are the conjugate mirror and
//! are never materialized. When `N ≡ 2 (mod 4)`, `M` is odd: every bin
//! pairs with a distinct partner and there is no self-conjugate bin.
//!
//! The `N/2`-point transform is the radix-2 [`Fft`] when `N` is a power
//! of two, and otherwise the mixed-radix kernel for halves whose only
//! prime factors are 2 and 5 — the paper's `N = 10⁴` among them. The
//! pack loop of the mixed-radix path writes each pair straight into the
//! kernel's digit-reversed input order.

use crate::complex::Complex64;
use crate::fft::mixed::MixedRadixFft;
use crate::fft::Fft;
use crate::DspError;

/// A planned FFT of real input with one-sided (`N/2 + 1` bin) output,
/// doing half the butterfly work of [`Fft::forward_real`].
///
/// # Examples
///
/// ```
/// use nfbist_dsp::fft::{Fft, RealFft};
///
/// # fn main() -> Result<(), nfbist_dsp::DspError> {
/// let n = 64;
/// let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.31).sin()).collect();
/// let one_sided = RealFft::new(n)?.forward(&x)?;
/// let full = Fft::new(n)?.forward_real(&x)?;
/// assert_eq!(one_sided.len(), n / 2 + 1);
/// for (a, b) in one_sided.iter().zip(&full) {
///     assert!((*a - *b).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RealFft {
    size: usize,
    /// The half-size complex plan (`None` for the degenerate size 1).
    inner: Option<HalfPlan>,
    /// Untangle twiddles `W_N^k = e^{-j2πk/N}` for `k` in
    /// `1..⌈N/4⌉` (`k = 0` is the DC/Nyquist special case and, when
    /// `N/2` is even, `k = N/4` is the self-conjugate bin; both are
    /// handled without a table lookup).
    twiddles: Vec<Complex64>,
}

/// The `N/2`-point complex transform inside a [`RealFft`].
#[derive(Debug, Clone)]
enum HalfPlan {
    /// Power-of-two halves.
    Radix2(Fft),
    /// Halves of the form `2^a·5^c` with `c ≥ 1`.
    Mixed(MixedRadixFft),
}

impl RealFft {
    /// Plans a real-input FFT of `size` points.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFftSize`] unless `size` is 1 or an
    /// even number whose half has no prime factor other than 2 and 5
    /// (every power of two, and the paper's 10⁴).
    pub fn new(size: usize) -> Result<Self, DspError> {
        if size == 0 {
            return Err(DspError::InvalidFftSize {
                size,
                reason: "fft size must be nonzero",
            });
        }
        let inner = if size == 1 {
            None
        } else if size.is_power_of_two() {
            Some(HalfPlan::Radix2(Fft::new(size / 2)?))
        } else {
            let mixed = size
                .is_multiple_of(2)
                .then(|| MixedRadixFft::new(size / 2))
                .flatten()
                .ok_or(DspError::InvalidFftSize {
                    size,
                    reason: "real fft size must be 1 or even with a half that has no prime \
                             factor other than 2 and 5 (use ArbitraryFft otherwise)",
                })?;
            Some(HalfPlan::Mixed(mixed))
        };
        let twiddles = (1..(size / 2).div_ceil(2))
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / size as f64))
            .collect();
        Ok(RealFft {
            size,
            inner,
            twiddles,
        })
    }

    /// The planned (real) input length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of one-sided output bins, `size/2 + 1` (1 for size 1).
    pub fn output_len(&self) -> usize {
        self.size / 2 + 1
    }

    /// Forward transform returning the `N/2 + 1` one-sided bins
    /// (DC through Nyquist, no scaling — matching [`Fft::forward`]
    /// conventions on the retained bins).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `x.len() != self.size()`.
    pub fn forward(&self, x: &[f64]) -> Result<Vec<Complex64>, DspError> {
        let mut out = vec![Complex64::ZERO; self.output_len()];
        self.forward_into(x, &mut out)?;
        Ok(out)
    }

    /// Forward transform into a caller-owned one-sided buffer — the
    /// zero-allocation variant used by the PSD workspace hot path. The
    /// first `N/2` slots of `out` double as the packed work buffer, so
    /// no scratch is needed.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `x.len() != self.size()`
    /// or `out.len() != self.output_len()`.
    pub fn forward_into(&self, x: &[f64], out: &mut [Complex64]) -> Result<(), DspError> {
        if x.len() != self.size {
            return Err(DspError::LengthMismatch {
                expected: self.size,
                actual: x.len(),
                context: "real fft forward_into (input)",
            });
        }
        if out.len() != self.output_len() {
            return Err(DspError::LengthMismatch {
                expected: self.output_len(),
                actual: out.len(),
                context: "real fft forward_into (output)",
            });
        }
        let Some(inner) = &self.inner else {
            // Size 1: the spectrum is the sample itself.
            out[0] = Complex64::from_real(x[0]);
            return Ok(());
        };
        let m = self.size / 2;

        // Pack: z[i] = x[2i] + j·x[2i+1] into the work prefix of `out`.
        match inner {
            HalfPlan::Radix2(fft) => {
                for (z, pair) in out[..m].iter_mut().zip(x.chunks_exact(2)) {
                    *z = Complex64::new(pair[0], pair[1]);
                }
                fft.forward_in_place(&mut out[..m])?;
            }
            HalfPlan::Mixed(plan) => {
                for (z, &i) in out[..m].iter_mut().zip(plan.input_order()) {
                    let i = 2 * i as usize;
                    *z = Complex64::new(x[i], x[i + 1]);
                }
                plan.forward_digit_reversed(&mut out[..m]);
            }
        }

        // Untangle in place, pairwise over (k, M−k).
        let z0 = out[0];
        for (k, &w) in (1..).zip(&self.twiddles) {
            let zk = out[k];
            let zc = out[m - k].conj();
            // E[k] = (Z[k] + Z*[M−k])/2, O[k] = −j·(Z[k] − Z*[M−k])/2.
            let e = (zk + zc).scale(0.5);
            let d = zk - zc;
            let o = Complex64::new(0.5 * d.im, -0.5 * d.re);
            let wo = w * o;
            out[k] = e + wo;
            out[m - k] = (e - wo).conj();
        }
        if m.is_multiple_of(2) {
            // Self-conjugate bin k = M/2: W_N^{M/2} = −j collapses the
            // untangle to a conjugation.
            out[m / 2] = out[m / 2].conj();
        }
        // DC and Nyquist, both purely real.
        out[0] = Complex64::from_real(z0.re + z0.im);
        out[m] = Complex64::from_real(z0.re - z0.im);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{dft_naive, ArbitraryFft};
    use std::f64::consts::PI;

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|j| (j as f64 * 0.47).sin() + 0.3 * (j as f64 * 1.13).cos() - 0.1)
            .collect()
    }

    /// Every even size up to 2¹⁴ that is not a power of two and whose
    /// half has no prime factor other than 2 and 5.
    fn mixed_radix_sizes() -> Vec<usize> {
        (2..=1usize << 14)
            .step_by(2)
            .filter(|&n| {
                let mut h = n / 2;
                while h.is_multiple_of(2) {
                    h /= 2;
                }
                while h.is_multiple_of(5) {
                    h /= 5;
                }
                h == 1 && !n.is_power_of_two()
            })
            .collect()
    }

    /// `X[k]` from its defining O(N) sum, with the phase `k·n mod N`
    /// reduced exactly so that the oracle's own error stays at rounding
    /// level.
    fn direct_bin(x: &[f64], k: usize) -> Complex64 {
        let n = x.len();
        x.iter()
            .enumerate()
            .map(|(j, &v)| Complex64::cis(-2.0 * PI * ((k * j) % n) as f64 / n as f64).scale(v))
            .sum()
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(RealFft::new(0).is_err());
        assert!(RealFft::new(3).is_err());
        assert!(RealFft::new(5).is_err());
        assert!(RealFft::new(24).is_err());
        assert!(RealFft::new(1_018).is_err());
        assert!(RealFft::new(1).is_ok());
        assert!(RealFft::new(2).is_ok());
        assert!(RealFft::new(10).is_ok());
        assert!(RealFft::new(1024).is_ok());
        assert!(RealFft::new(10_000).is_ok());
    }

    #[test]
    fn degenerate_sizes() {
        let x1 = [2.5];
        assert_eq!(
            RealFft::new(1).unwrap().forward(&x1).unwrap(),
            vec![Complex64::from_real(2.5)]
        );
        let x2 = [1.0, -3.0];
        let out = RealFft::new(2).unwrap().forward(&x2).unwrap();
        assert_eq!(out[0], Complex64::from_real(-2.0));
        assert_eq!(out[1], Complex64::from_real(4.0));
    }

    #[test]
    fn matches_naive_dft_one_sided() {
        // Powers of two, then every mixed-radix size up to 2¹⁴, among
        // them the N ≡ 2 (mod 4) sizes 10, 50, 250, 1 250 and 6 250,
        // whose odd half has no self-conjugate bin. The O(N²) oracle
        // runs on every bin up to 1 280 points and at 6 250; the other
        // sizes, the paper's 10⁴ included, compare a spread of bins with
        // their defining sum.
        let sizes = [2usize, 4, 8, 16, 64, 256]
            .into_iter()
            .chain(mixed_radix_sizes());
        for n in sizes {
            let x = real_signal(n);
            let fast = RealFft::new(n).unwrap().forward(&x).unwrap();
            assert_eq!(fast.len(), n / 2 + 1);
            let tol = 1e-9 * n as f64;
            if n <= 1_280 || n == 6_250 {
                let packed: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
                for (k, (a, b)) in fast.iter().zip(&dft_naive(&packed)).enumerate() {
                    assert!((*a - *b).abs() < tol, "n={n} bin {k}: {a} vs {b}");
                }
            } else {
                let spread = (0..n / 2).step_by(n / 64);
                for k in spread.chain([1, n / 4, n / 2 - 1, n / 2]) {
                    let b = direct_bin(&x, k);
                    assert!(
                        (fast[k] - b).abs() < tol,
                        "n={n} bin {k}: {} vs {b}",
                        fast[k]
                    );
                }
            }
        }
    }

    #[test]
    fn paper_size_matches_bluestein_to_rounding() {
        // At the paper's 10⁴ points every one-sided bin agrees with
        // Bluestein's full spectrum within 1e-12 of the largest bin.
        let n = 10_000;
        let x = real_signal(n);
        let fast = RealFft::new(n).unwrap().forward(&x).unwrap();
        let slow = ArbitraryFft::new(n).unwrap().forward_real(&x).unwrap();
        let peak = slow.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert!((*a - *b).abs() <= 1e-12 * peak, "bin {k}: {a} vs {b}");
        }
    }

    #[test]
    fn matches_complex_real_transform() {
        for n in [8usize, 32, 128, 1024] {
            let x = real_signal(n);
            let full = Fft::new(n).unwrap().forward_real(&x).unwrap();
            let half = RealFft::new(n).unwrap().forward(&x).unwrap();
            for (k, (a, b)) in half.iter().zip(&full).enumerate() {
                assert!((*a - *b).abs() < 1e-9 * n as f64, "n={n} bin {k}");
            }
        }
    }

    #[test]
    fn dc_and_nyquist_are_purely_real() {
        for n in [128usize, 250, 10_000] {
            let x = real_signal(n);
            let out = RealFft::new(n).unwrap().forward(&x).unwrap();
            assert_eq!(out[0].im, 0.0);
            assert_eq!(out[n / 2].im, 0.0);
            let sum: f64 = x.iter().sum();
            assert!((out[0].re - sum).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn into_variant_matches_allocating_path_bitwise() {
        for n in [256usize, 250] {
            let x = real_signal(n);
            let plan = RealFft::new(n).unwrap();
            let alloc = plan.forward(&x).unwrap();
            // Dirty output must not leak into the result.
            let mut out = vec![Complex64::new(9.0, -9.0); plan.output_len()];
            plan.forward_into(&x, &mut out).unwrap();
            assert_eq!(alloc, out, "n={n}: into-buffer path must be bit-identical");
        }
    }

    #[test]
    fn length_mismatches_rejected() {
        let plan = RealFft::new(16).unwrap();
        let x = [0.0; 16];
        let mut out = vec![Complex64::ZERO; plan.output_len()];
        assert!(plan.forward_into(&x[..15], &mut out).is_err());
        let mut bad = vec![Complex64::ZERO; plan.output_len() - 1];
        assert!(plan.forward_into(&x, &mut bad).is_err());
        assert!(plan.forward(&x[..3]).is_err());
    }

    #[test]
    fn parseval_energy_on_one_sided_bins() {
        for n in [512usize, 6_250] {
            let x = real_signal(n);
            let spec = RealFft::new(n).unwrap().forward(&x).unwrap();
            let time: f64 = x.iter().map(|v| v * v).sum();
            // One-sided Parseval: interior bins count twice.
            let mut freq = spec[0].norm_sqr() + spec[n / 2].norm_sqr();
            for z in &spec[1..n / 2] {
                freq += 2.0 * z.norm_sqr();
            }
            freq /= n as f64;
            assert!((time - freq).abs() < 1e-8 * (1.0 + time), "n={n}");
        }
    }
}
