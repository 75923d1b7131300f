//! In-place mixed-radix FFT for sizes `2^a·5^c`: the half-size complex
//! engine behind [`super::RealFft`] at sizes that are not powers of two,
//! such as the paper's 10⁴-point segments (`10⁴/2 = 2³·5⁴`), where
//! Bluestein's chirp-z would cost a 32 768-point convolution.
//!
//! The scheme is Singleton's in-place decimation in time ("An algorithm
//! for computing the mixed radix fast Fourier transform", 1969):
//!
//! * **Factorization.** `N = r₁·r₂·…·r_s`: radix-4 stages first, at
//!   most one radix-2 stage, then radix-5 stages.
//! * **Digit reversal.** The input element whose mixed-radix digits
//!   are `d_s … d₁` (`d_s` least significant, base `r_s`) belongs at the
//!   buffer position with the digits reversed (`d₁` least significant,
//!   base `r₁`). The caller writes each input there directly, using
//!   [`MixedRadixFft::input_order`], so no permutation pass runs.
//! * **Stages.** Stage `t` has radix `r = r_t` and combines, in every
//!   block of `L = r·l` points, the `r` interleaved sub-transforms of
//!   length `l = r₁⋯r_{t−1}`: `a_q = buf[j + q·l]` is multiplied by
//!   `W_L^{jq}`, and an `r`-point DFT over `q` writes bin `j + p·l`.
//!   Column `j = 0` needs no twiddles, so the first stage has none.
//!
//! Only the forward direction exists: the real-input forward transform
//! is its one caller.

use crate::complex::Complex64;

/// `cos(2π/5)`, `cos(4π/5)`, `sin(2π/5)` and `sin(4π/5)`, correctly
/// rounded: the radix-5 butterfly's rotation constants.
const C1: f64 = 0.30901699437494745;
const C2: f64 = -0.8090169943749475;
const S1: f64 = 0.9510565162951535;
const S2: f64 = 0.5877852522924731;

/// A planned forward DFT of a size whose only prime factors are 2 and 5.
#[derive(Debug, Clone)]
pub(crate) struct MixedRadixFft {
    /// Stage radices, in the order the stages run.
    radices: Vec<usize>,
    /// `input_order[p]` is the index of the input element that belongs
    /// at buffer position `p`.
    input_order: Vec<u32>,
    /// Per stage, `W_L^{jq}` for `j` in `1..l` and `q` in `1..r`,
    /// `j`-major: the order the butterflies read them.
    twiddles: Vec<Complex64>,
}

impl MixedRadixFft {
    /// Plans a transform of `size` points, or returns `None` unless
    /// `size` is a nonzero product of 2s and 5s.
    pub(crate) fn new(size: usize) -> Option<Self> {
        let radices = factor(size)?;
        let mut twiddles = Vec::new();
        let mut l = 1;
        for &r in &radices {
            let len = l * r;
            for j in 1..l {
                for q in 1..r {
                    let turns = (j * q) as f64 / len as f64;
                    twiddles.push(Complex64::cis(-2.0 * std::f64::consts::PI * turns));
                }
            }
            l = len;
        }
        let input_order = (0..size)
            .map(|pos| {
                let (mut rest, mut stride, mut index) = (pos, size, 0);
                for &r in &radices {
                    stride /= r;
                    index += rest % r * stride;
                    rest /= r;
                }
                index as u32
            })
            .collect();
        Some(MixedRadixFft {
            radices,
            input_order,
            twiddles,
        })
    }

    /// For each buffer position, the index of the input element the
    /// caller must place there before [`Self::forward_digit_reversed`].
    pub(crate) fn input_order(&self) -> &[u32] {
        &self.input_order
    }

    /// Forward transform (no scaling) of a buffer that holds its input
    /// in [`Self::input_order`]; the bins come out in natural order.
    pub(crate) fn forward_digit_reversed(&self, buf: &mut [Complex64]) {
        debug_assert_eq!(buf.len(), self.input_order.len());
        let mut l = 1;
        let mut offset = 0;
        for &r in &self.radices {
            let count = (l - 1) * (r - 1);
            let tw = &self.twiddles[offset..offset + count];
            match r {
                2 => stage(buf, l, tw, radix2),
                4 => stage(buf, l, tw, radix4),
                _ => stage(buf, l, tw, radix5),
            }
            offset += count;
            l *= r;
        }
    }
}

/// Splits `n` into stage radices (4s, at most one 2, then 5s), or
/// `None` if `n` is zero or has another prime factor.
fn factor(mut n: usize) -> Option<Vec<usize>> {
    if n == 0 {
        return None;
    }
    let mut radices = Vec::new();
    while n.is_multiple_of(4) {
        radices.push(4);
        n /= 4;
    }
    if n.is_multiple_of(2) {
        radices.push(2);
        n /= 2;
    }
    while n.is_multiple_of(5) {
        radices.push(5);
        n /= 5;
    }
    (n == 1).then_some(radices)
}

/// One radix-`R` stage over every block of `R·l` points. `twiddles`
/// holds the `R − 1` factors of each column `j ≥ 1`.
#[inline(always)]
fn stage<const R: usize>(
    buf: &mut [Complex64],
    l: usize,
    twiddles: &[Complex64],
    butterfly: impl Fn(&mut [Complex64; R]),
) {
    for block in buf.chunks_exact_mut(R * l) {
        let mut a: [Complex64; R] = std::array::from_fn(|q| block[q * l]);
        butterfly(&mut a);
        for (p, &v) in a.iter().enumerate() {
            block[p * l] = v;
        }
        for (j, w) in (1..l).zip(twiddles.chunks_exact(R - 1)) {
            let mut a: [Complex64; R] = std::array::from_fn(|q| block[j + q * l]);
            for (v, &w) in a[1..].iter_mut().zip(w) {
                *v *= w;
            }
            butterfly(&mut a);
            for (p, &v) in a.iter().enumerate() {
                block[j + p * l] = v;
            }
        }
    }
}

/// 2-point DFT.
#[inline(always)]
fn radix2(a: &mut [Complex64; 2]) {
    let [a0, a1] = *a;
    *a = [a0 + a1, a0 - a1];
}

/// 4-point forward DFT: `W₄ = −j`, so the odd outputs rotate
/// `a₁ − a₃` by a component swap.
#[inline(always)]
fn radix4(a: &mut [Complex64; 4]) {
    let [a0, a1, a2, a3] = *a;
    let (s02, d02) = (a0 + a2, a0 - a2);
    let (s13, d13) = (a1 + a3, a1 - a3);
    // −j·(a₁ − a₃).
    let r = Complex64::new(d13.im, -d13.re);
    *a = [s02 + s13, d02 + r, s02 - s13, d02 - r];
}

/// 5-point forward DFT from the symmetric pairs `a₁ ± a₄`, `a₂ ± a₃`:
/// bins `k` and `5 − k` share a real-weighted sum `b` and differ in the
/// sign of a `−j`-rotated term `u`.
#[inline(always)]
fn radix5(a: &mut [Complex64; 5]) {
    let [a0, a1, a2, a3, a4] = *a;
    let (s14, d14) = (a1 + a4, a1 - a4);
    let (s23, d23) = (a2 + a3, a2 - a3);
    let b1 = a0 + s14.scale(C1) + s23.scale(C2);
    let b2 = a0 + s14.scale(C2) + s23.scale(C1);
    let u1 = d14.scale(S1) + d23.scale(S2);
    let u2 = d14.scale(S2) - d23.scale(S1);
    // −j·u.
    let r1 = Complex64::new(u1.im, -u1.re);
    let r2 = Complex64::new(u2.im, -u2.re);
    *a = [a0 + s14 + s23, b1 + r1, b2 + r2, b2 - r2, b1 - r1];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_naive;

    #[test]
    fn factors_into_stage_radices() {
        assert_eq!(factor(5_000), Some(vec![4, 2, 5, 5, 5, 5]));
        assert_eq!(factor(625), Some(vec![5, 5, 5, 5]));
        assert_eq!(factor(64), Some(vec![4, 4, 4]));
        assert_eq!(factor(1), Some(vec![]));
        for bad in [0usize, 3, 6, 7, 509, 1_018] {
            assert_eq!(factor(bad), None, "{bad}");
        }
        assert!(MixedRadixFft::new(12).is_none());
    }

    #[test]
    fn input_order_is_a_permutation() {
        for n in [1usize, 2, 10, 40, 250, 5_000] {
            let plan = MixedRadixFft::new(n).unwrap();
            let mut seen = vec![false; n];
            for &i in plan.input_order() {
                assert!(!seen[i as usize], "n={n}: index {i} placed twice");
                seen[i as usize] = true;
            }
        }
        // 10 = 2·5: position p = d₁ + 2·d₂ holds input d₂ + 5·d₁.
        let plan = MixedRadixFft::new(10).unwrap();
        assert_eq!(plan.input_order(), &[0, 5, 1, 6, 2, 7, 3, 8, 4, 9]);
    }

    #[test]
    fn matches_naive_dft_on_complex_input() {
        for n in [
            1usize, 2, 4, 5, 8, 10, 20, 25, 40, 50, 100, 125, 200, 250, 1_000,
        ] {
            let x: Vec<Complex64> = (0..n)
                .map(|j| Complex64::new((j as f64 * 0.37).sin(), (j as f64 * 0.91).cos() - 0.2))
                .collect();
            let plan = MixedRadixFft::new(n).unwrap();
            let mut buf: Vec<Complex64> =
                plan.input_order().iter().map(|&i| x[i as usize]).collect();
            plan.forward_digit_reversed(&mut buf);
            for (k, (a, b)) in buf.iter().zip(&dft_naive(&x)).enumerate() {
                assert!(
                    (*a - *b).abs() < 1e-10 * n as f64,
                    "n={n} bin {k}: {a} vs {b}"
                );
            }
        }
    }
}
