//! Bluestein's chirp-z algorithm: DFTs of arbitrary length built from
//! power-of-two convolutions.
//!
//! Matlab transforms any length transparently; [`ArbitraryFft`] does the
//! same here, so a configuration may ask for any FFT size. The paper's
//! 10⁴-point segments do not need it: their real transform runs on the
//! mixed-radix path of [`crate::fft::RealFft`]. The PSD estimators reach
//! Bluestein only for odd sizes and for sizes whose half has a prime
//! factor other than 2 and 5.

use crate::complex::Complex64;
use crate::fft::Fft;
use crate::DspError;

/// A planned DFT of arbitrary (non-zero) size using Bluestein's algorithm.
///
/// Internally re-expresses the length-`N` DFT as a circular convolution of
/// length `M ≥ 2N-1` (the next power of two), so the cost is
/// `O(M log M)` regardless of the factorization of `N`.
///
/// # Examples
///
/// ```
/// use nfbist_dsp::complex::Complex64;
/// use nfbist_dsp::fft::ArbitraryFft;
///
/// # fn main() -> Result<(), nfbist_dsp::DspError> {
/// // A 10-point DFT (10 = 2·5 is not a power of two).
/// let plan = ArbitraryFft::new(10)?;
/// let x = vec![Complex64::ONE; 10];
/// let spec = plan.forward(&x)?;
/// assert!((spec[0].re - 10.0).abs() < 1e-9);
/// assert!(spec[1..].iter().all(|z| z.abs() < 1e-9));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ArbitraryFft {
    size: usize,
    inner: Fft,
    /// Chirp `a_n = e^{-jπn²/N}` for n in 0..N.
    chirp: Vec<Complex64>,
    /// FFT of the zero-padded, wrapped conjugate chirp.
    kernel_spectrum: Vec<Complex64>,
}

impl ArbitraryFft {
    /// Plans a DFT of `size` points.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFftSize`] if `size` is zero.
    pub fn new(size: usize) -> Result<Self, DspError> {
        if size == 0 {
            return Err(DspError::InvalidFftSize {
                size,
                reason: "fft size must be nonzero",
            });
        }
        let m = (2 * size - 1).next_power_of_two();
        let inner = Fft::new(m)?;

        // n² mod 2N computed incrementally to keep the phase argument
        // small for large N (direct n*n overflows the f64 mantissa around
        // N ≈ 10⁸; the modular form is exact for all practical sizes).
        let two_n = 2 * size;
        let mut chirp = Vec::with_capacity(size);
        let mut q: usize = 0; // q = n² mod 2N
        for n in 0..size {
            if n > 0 {
                // (n)² = (n-1)² + 2n - 1
                q = (q + 2 * n - 1) % two_n;
            }
            let theta = -std::f64::consts::PI * q as f64 / size as f64;
            chirp.push(Complex64::cis(theta));
        }

        // Kernel b_n = conj(a_n) arranged circularly: b[0..N) and the
        // mirrored tail b[M-n] for n in 1..N.
        let mut kernel = vec![Complex64::ZERO; m];
        for n in 0..size {
            let b = chirp[n].conj();
            kernel[n] = b;
            if n > 0 {
                kernel[m - n] = b;
            }
        }
        let kernel_spectrum = inner.forward(&kernel)?;

        Ok(ArbitraryFft {
            size,
            inner,
            chirp,
            kernel_spectrum,
        })
    }

    /// The planned transform size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Length of the caller-owned scratch buffer the `_into` transforms
    /// require (the internal power-of-two convolution length `M`).
    pub fn scratch_len(&self) -> usize {
        self.inner.size()
    }

    /// Forward DFT (no scaling), matching [`Fft::forward`] conventions.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `x.len() != self.size()`.
    pub fn forward(&self, x: &[Complex64]) -> Result<Vec<Complex64>, DspError> {
        if x.len() != self.size {
            return Err(DspError::LengthMismatch {
                expected: self.size,
                actual: x.len(),
                context: "arbitrary fft forward",
            });
        }
        let mut scratch = vec![Complex64::ZERO; self.scratch_len()];
        let mut out = vec![Complex64::ZERO; self.size];
        self.chirp_convolve(&mut scratch, &mut out, |n| x[n])?;
        Ok(out)
    }

    /// Forward DFT of a real buffer into a caller-owned output buffer,
    /// using caller-owned scratch of length [`ArbitraryFft::scratch_len`]
    /// — the zero-allocation variant used by the PSD workspace hot path.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] when `x`/`out` differ from
    /// `self.size()` or `scratch` from `self.scratch_len()`.
    pub fn forward_real_into(
        &self,
        x: &[f64],
        scratch: &mut [Complex64],
        out: &mut [Complex64],
    ) -> Result<(), DspError> {
        if x.len() != self.size {
            return Err(DspError::LengthMismatch {
                expected: self.size,
                actual: x.len(),
                context: "arbitrary fft forward_real_into (input)",
            });
        }
        self.chirp_convolve(scratch, out, |n| Complex64::from_real(x[n]))
    }

    /// The Bluestein body shared by the allocating and `_into` paths:
    /// chirp-premultiplied input → convolution with the planned kernel →
    /// chirp-postmultiplied output.
    fn chirp_convolve<G: Fn(usize) -> Complex64>(
        &self,
        scratch: &mut [Complex64],
        out: &mut [Complex64],
        input: G,
    ) -> Result<(), DspError> {
        if scratch.len() != self.scratch_len() {
            return Err(DspError::LengthMismatch {
                expected: self.scratch_len(),
                actual: scratch.len(),
                context: "arbitrary fft (scratch)",
            });
        }
        if out.len() != self.size {
            return Err(DspError::LengthMismatch {
                expected: self.size,
                actual: out.len(),
                context: "arbitrary fft (output)",
            });
        }
        for (n, (s, c)) in scratch[..self.size].iter_mut().zip(&self.chirp).enumerate() {
            *s = input(n) * *c;
        }
        for s in scratch[self.size..].iter_mut() {
            *s = Complex64::ZERO;
        }
        self.inner.forward_in_place(scratch)?;
        for (w, k) in scratch.iter_mut().zip(&self.kernel_spectrum) {
            *w *= *k;
        }
        self.inner.inverse_in_place(scratch)?;
        for ((o, s), c) in out.iter_mut().zip(scratch.iter()).zip(&self.chirp) {
            *o = *s * *c;
        }
        Ok(())
    }

    /// Inverse DFT with the `1/N` scale, matching [`Fft::inverse`].
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `x.len() != self.size()`.
    pub fn inverse(&self, x: &[Complex64]) -> Result<Vec<Complex64>, DspError> {
        if x.len() != self.size {
            return Err(DspError::LengthMismatch {
                expected: self.size,
                actual: x.len(),
                context: "arbitrary fft inverse",
            });
        }
        // IDFT(x) = conj(DFT(conj(x))) / N.
        let conj_in: Vec<Complex64> = x.iter().map(|z| z.conj()).collect();
        let spec = self.forward(&conj_in)?;
        let scale = 1.0 / self.size as f64;
        Ok(spec.iter().map(|z| z.conj().scale(scale)).collect())
    }

    /// Forward DFT of a real buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `x.len() != self.size()`.
    pub fn forward_real(&self, x: &[f64]) -> Result<Vec<Complex64>, DspError> {
        if x.len() != self.size {
            return Err(DspError::LengthMismatch {
                expected: self.size,
                actual: x.len(),
                context: "arbitrary fft forward_real",
            });
        }
        let buf: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
        self.forward(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_naive;

    #[test]
    fn rejects_zero_size() {
        assert!(ArbitraryFft::new(0).is_err());
    }

    #[test]
    fn matches_naive_dft_for_awkward_sizes() {
        for n in [1usize, 2, 3, 5, 7, 10, 12, 100, 101, 255] {
            let x: Vec<Complex64> = (0..n)
                .map(|j| Complex64::new((j as f64 * 0.37).sin(), (j as f64 * 0.91).cos()))
                .collect();
            let fast = ArbitraryFft::new(n).unwrap().forward(&x).unwrap();
            let slow = dft_naive(&x);
            for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    (*a - *b).abs() < 1e-7 * (n as f64).max(1.0),
                    "n={n} bin {k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn power_of_two_sizes_also_work() {
        let n = 16;
        let x: Vec<Complex64> = (0..n).map(|j| Complex64::new(j as f64, -1.0)).collect();
        let a = ArbitraryFft::new(n).unwrap().forward(&x).unwrap();
        let b = Fft::new(n).unwrap().forward(&x).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-8);
        }
    }

    #[test]
    fn roundtrip_non_power_of_two() {
        let n = 30;
        let plan = ArbitraryFft::new(n).unwrap();
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::new((j as f64).cos(), (j as f64 * 2.0).sin()))
            .collect();
        let back = plan.inverse(&plan.forward(&x).unwrap()).unwrap();
        for (a, b) in back.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-8);
        }
    }

    #[test]
    fn ten_thousand_point_tone() {
        // The paper's FFT size: 10⁴ points. A bin-centred tone must land
        // in exactly one bin.
        let n = 10_000;
        let plan = ArbitraryFft::new(n).unwrap();
        let k0 = 300;
        let x: Vec<f64> = (0..n)
            .map(|j| (2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64).cos())
            .collect();
        let spec = plan.forward_real(&x).unwrap();
        // cos splits between k0 and N-k0 with height N/2.
        assert!((spec[k0].abs() - n as f64 / 2.0).abs() < 1e-5 * n as f64);
        assert!((spec[n - k0].abs() - n as f64 / 2.0).abs() < 1e-5 * n as f64);
        let leakage: f64 = spec
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != k0 && *k != n - k0)
            .map(|(_, z)| z.abs())
            .fold(0.0, f64::max);
        assert!(leakage < 1e-6 * n as f64, "max leakage {leakage}");
    }

    #[test]
    fn length_mismatch_reported() {
        let plan = ArbitraryFft::new(5).unwrap();
        assert!(plan.forward(&[Complex64::ZERO; 4]).is_err());
        assert!(plan.inverse(&[Complex64::ZERO; 6]).is_err());
        assert!(plan.forward_real(&[0.0; 3]).is_err());
    }

    #[test]
    fn into_variant_matches_allocating_path_bitwise() {
        let n = 300;
        let plan = ArbitraryFft::new(n).unwrap();
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.83).sin()).collect();
        let alloc = plan.forward_real(&x).unwrap();
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        // Dirty scratch must not leak into the result.
        scratch.fill(Complex64::new(7.0, -3.0));
        let mut out = vec![Complex64::ZERO; n];
        plan.forward_real_into(&x, &mut scratch, &mut out).unwrap();
        assert_eq!(alloc, out, "into-buffer path must be bit-identical");
    }

    #[test]
    fn into_variant_rejects_bad_buffer_lengths() {
        let plan = ArbitraryFft::new(10).unwrap();
        let x = [0.0; 10];
        let mut good_scratch = vec![Complex64::ZERO; plan.scratch_len()];
        let mut out = vec![Complex64::ZERO; 10];
        assert!(plan
            .forward_real_into(&x[..9], &mut good_scratch, &mut out)
            .is_err());
        let mut bad_scratch = vec![Complex64::ZERO; plan.scratch_len() - 1];
        assert!(plan
            .forward_real_into(&x, &mut bad_scratch, &mut out)
            .is_err());
        let mut bad_out = vec![Complex64::ZERO; 9];
        assert!(plan
            .forward_real_into(&x, &mut good_scratch, &mut bad_out)
            .is_err());
    }
}
