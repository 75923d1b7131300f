//! Gaussian noise with an arbitrary prescribed one-sided PSD, via
//! frequency-domain synthesis.

use crate::noise::standard_normal;
use crate::AnalogError;
use nfbist_dsp::complex::Complex64;
use nfbist_dsp::fft::Fft;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, PoisonError};

/// The inverse-transform plan for `block_len`, built once per block
/// length and shared by every generator of that length on any thread.
/// A plan is read-only after construction, and a 2¹⁵-point one is
/// about 640 KiB; a faulted DUT stream holds two generators at once.
/// Plans live as long as the process, which uses a few block lengths.
fn shared_plan(block_len: usize) -> Result<Arc<Fft>, AnalogError> {
    static PLANS: Mutex<Vec<Arc<Fft>>> = Mutex::new(Vec::new());
    // The only update pushes a finished plan, so the list stays valid
    // even if a thread panicked while holding the lock.
    let mut plans = PLANS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(plan) = plans.iter().find(|p| p.size() == block_len) {
        return Ok(Arc::clone(plan));
    }
    let plan = Arc::new(Fft::new(block_len)?);
    plans.push(Arc::clone(&plan));
    Ok(plan)
}

/// Synthesizes Gaussian noise whose one-sided PSD follows a caller-
/// supplied density function (V²/Hz vs Hz).
///
/// The op-amp models use this to realize `en(f)² = en_white²·(1 + fc/f)`
/// voltage noise including the 1/f corner.
///
/// Synthesis works block-wise: independent Gaussian spectral coefficients
/// are drawn with variance proportional to the target density and
/// inverse-transformed. Blocks are generated independently, which leaves
/// a small spectral discontinuity at block joints; use a block length
/// much larger than the analysis segment (the circuit models' 2¹⁵
/// against the paper's 10⁴-point segments keeps the artifact below the
/// estimator noise floor).
///
/// # Examples
///
/// ```
/// use nfbist_analog::noise::ShapedNoise;
///
/// # fn main() -> Result<(), nfbist_analog::AnalogError> {
/// // Band-limited white noise: 1e-6 V²/Hz below 1 kHz, zero above.
/// let mut src = ShapedNoise::new(
///     |f| if f <= 1_000.0 { 1e-6 } else { 0.0 },
///     20_000.0,
///     1 << 14,
///     7,
/// )?;
/// let x = src.generate(5_000)?;
/// assert_eq!(x.len(), 5_000);
/// # Ok(())
/// # }
/// ```
pub struct ShapedNoise {
    /// Per-bin one-sided density evaluated at bin centres.
    bin_density: Vec<f64>,
    sample_rate: f64,
    block_len: usize,
    fft: Arc<Fft>,
    rng: StdRng,
    /// Leftover samples from the previous block.
    buffer: Vec<f64>,
    cursor: usize,
}

impl std::fmt::Debug for ShapedNoise {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShapedNoise")
            .field("sample_rate", &self.sample_rate)
            .field("block_len", &self.block_len)
            .finish_non_exhaustive()
    }
}

impl ShapedNoise {
    /// Creates a generator for the density function `density(f)` at
    /// `sample_rate` Hz with an internal synthesis block of `block_len`
    /// samples (power of two).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a non-positive
    /// sample rate or a non-power-of-two block length, and propagates a
    /// negative density as an error.
    pub fn new<F>(
        density: F,
        sample_rate: f64,
        block_len: usize,
        seed: u64,
    ) -> Result<Self, AnalogError>
    where
        F: Fn(f64) -> f64,
    {
        if !(sample_rate > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        if !block_len.is_power_of_two() || block_len < 2 {
            return Err(AnalogError::InvalidParameter {
                name: "block_len",
                reason: "must be a power of two of at least 2",
            });
        }
        let df = sample_rate / block_len as f64;
        let mut bin_density = Vec::with_capacity(block_len / 2 + 1);
        for k in 0..=block_len / 2 {
            let d = density(k as f64 * df);
            if !(d >= 0.0) || !d.is_finite() {
                return Err(AnalogError::InvalidParameter {
                    name: "density",
                    reason: "must be non-negative and finite at all bin frequencies",
                });
            }
            bin_density.push(d);
        }
        Ok(ShapedNoise {
            bin_density,
            sample_rate,
            block_len,
            fft: shared_plan(block_len)?,
            rng: StdRng::seed_from_u64(seed),
            buffer: Vec::new(),
            cursor: 0,
        })
    }

    /// The sample rate the density is defined against.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Generates `n` samples.
    ///
    /// # Errors
    ///
    /// Propagates FFT errors (which cannot occur for a validated
    /// configuration, but the signature stays honest).
    pub fn generate(&mut self, n: usize) -> Result<Vec<f64>, AnalogError> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if self.cursor >= self.buffer.len() {
                self.synthesize_block()?;
            }
            let take = (n - out.len()).min(self.buffer.len() - self.cursor);
            out.extend_from_slice(&self.buffer[self.cursor..self.cursor + take]);
            self.cursor += take;
        }
        Ok(out)
    }

    /// Draws the next block's spectrum, inverts it in place and keeps
    /// its real part in the reused sample buffer. The spectrum lives
    /// only while the block is synthesized, so an idle generator holds
    /// one block of `f64` samples.
    fn synthesize_block(&mut self) -> Result<(), AnalogError> {
        let n = self.block_len;
        let mut spec = vec![Complex64::ZERO; n];
        for k in 0..=n / 2 {
            // One-sided density S₁(f): the two-sided density is S₁/2 on
            // interior bins. A spectral coefficient X[k] with
            // E|X[k]|² = N·S₂(f_k)·fs reproduces the density after the
            // inverse transform.
            let one_sided = self.bin_density[k];
            let two_sided = if k == 0 || (n.is_multiple_of(2) && k == n / 2) {
                one_sided
            } else {
                one_sided / 2.0
            };
            let var = two_sided * self.sample_rate * n as f64;
            let amp = var.sqrt();
            let (re, im) = if k == 0 || (n.is_multiple_of(2) && k == n / 2) {
                // Real-only bins.
                (amp * standard_normal(&mut self.rng), 0.0)
            } else {
                (
                    amp * std::f64::consts::FRAC_1_SQRT_2 * standard_normal(&mut self.rng),
                    amp * std::f64::consts::FRAC_1_SQRT_2 * standard_normal(&mut self.rng),
                )
            };
            spec[k] = Complex64::new(re, im);
            if k != 0 && k != n / 2 {
                spec[n - k] = spec[k].conj();
            }
        }
        self.fft.inverse_in_place(&mut spec)?;
        self.buffer.clear();
        self.buffer.extend(spec.iter().map(|z| z.re));
        self.cursor = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfbist_dsp::psd::WelchConfig;

    #[test]
    fn validation() {
        assert!(ShapedNoise::new(|_| 1.0, 0.0, 1024, 0).is_err());
        assert!(ShapedNoise::new(|_| 1.0, 1e3, 1000, 0).is_err());
        assert!(ShapedNoise::new(|_| -1.0, 1e3, 1024, 0).is_err());
        assert!(ShapedNoise::new(|f| if f > 0.0 { f64::NAN } else { 1.0 }, 1e3, 1024, 0).is_err());
        assert!(ShapedNoise::new(|_| 1.0, 1e3, 1024, 0).is_ok());
    }

    #[test]
    fn flat_density_reproduces_white_noise() {
        let fs = 10_000.0;
        let target = 2e-4;
        let mut src = ShapedNoise::new(|_| target, fs, 1 << 14, 5).unwrap();
        let x = src.generate(200_000).unwrap();
        let psd = WelchConfig::new(1024).unwrap().estimate(&x, fs).unwrap();
        let d = psd.density();
        let avg = d[1..d.len() - 1].iter().sum::<f64>() / (d.len() - 2) as f64;
        assert!(
            (avg - target).abs() / target < 0.05,
            "avg {avg} vs {target}"
        );
        // Variance equals density × bandwidth.
        let var = nfbist_dsp::stats::variance(&x).unwrap();
        let expected = target * fs / 2.0;
        assert!((var - expected).abs() / expected < 0.05);
    }

    #[test]
    fn band_limited_density_is_respected() {
        let fs = 20_000.0;
        let mut src =
            ShapedNoise::new(|f| if f <= 1_000.0 { 1e-4 } else { 0.0 }, fs, 1 << 14, 11).unwrap();
        let x = src.generate(300_000).unwrap();
        let psd = WelchConfig::new(2048).unwrap().estimate(&x, fs).unwrap();
        let in_band = psd.band_power(100.0, 800.0).unwrap() / 700.0;
        let out_band = psd.band_power(3_000.0, 8_000.0).unwrap() / 5_000.0;
        assert!((in_band - 1e-4).abs() / 1e-4 < 0.1, "in-band {in_band}");
        assert!(out_band < in_band * 1e-3, "out-of-band {out_band}");
    }

    #[test]
    fn one_over_f_slope() {
        let fs = 10_000.0;
        let mut src =
            ShapedNoise::new(|f| if f < 1.0 { 1e-2 } else { 1e-2 / f }, fs, 1 << 15, 13).unwrap();
        let x = src.generate(400_000).unwrap();
        let psd = WelchConfig::new(4096).unwrap().estimate(&x, fs).unwrap();
        // Density at 100 Hz should be ~10× density at 1 kHz.
        let d100 = psd.band_power(80.0, 120.0).unwrap() / 40.0;
        let d1000 = psd.band_power(900.0, 1100.0).unwrap() / 200.0;
        let ratio = d100 / d1000;
        assert!((ratio - 10.0).abs() < 2.0, "1/f ratio {ratio}");
    }

    #[test]
    fn output_is_gaussian() {
        let mut src = ShapedNoise::new(|_| 1e-3, 1e4, 1 << 12, 17).unwrap();
        let x = src.generate(100_000).unwrap();
        let skew = nfbist_dsp::stats::skewness(&x).unwrap();
        let kurt = nfbist_dsp::stats::excess_kurtosis(&x).unwrap();
        assert!(skew.abs() < 0.05, "skew {skew}");
        assert!(kurt.abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn streaming_across_blocks_is_seamless_in_length() {
        let mut src = ShapedNoise::new(|_| 1e-3, 1e4, 1024, 3).unwrap();
        let a = src.generate(1000).unwrap();
        let b = src.generate(1000).unwrap();
        assert_eq!(a.len(), 1000);
        assert_eq!(b.len(), 1000);
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_by_seed() {
        let mut a = ShapedNoise::new(|_| 1e-3, 1e4, 1024, 21).unwrap();
        let mut b = ShapedNoise::new(|_| 1e-3, 1e4, 1024, 21).unwrap();
        assert_eq!(a.generate(256).unwrap(), b.generate(256).unwrap());
    }

    #[test]
    fn generators_of_one_block_length_share_one_plan() {
        let a = ShapedNoise::new(|_| 1e-3, 1e4, 1 << 11, 1).unwrap();
        let b = ShapedNoise::new(|f| 1e-3 / (1.0 + f), 2e4, 1 << 11, 2).unwrap();
        let other = ShapedNoise::new(|_| 1e-3, 1e4, 1 << 10, 1).unwrap();
        assert!(Arc::ptr_eq(&a.fft, &b.fft));
        assert!(!Arc::ptr_eq(&a.fft, &other.fft));
        assert_eq!(other.fft.size(), 1 << 10);
    }

    /// `n` samples of one generator with `block_len`-sample blocks,
    /// drawn on its own in `step`-sized calls.
    fn solo(seed: u64, block_len: usize, n: usize, step: usize) -> Vec<f64> {
        let mut g = ShapedNoise::new(|f| 1e-3 / (1.0 + f), 1e4, block_len, seed).unwrap();
        let mut out = Vec::new();
        while out.len() < n {
            out.extend(g.generate(step.min(n - out.len())).unwrap());
        }
        out
    }

    fn assert_same_bits(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn interleaved_generators_reproduce_their_solo_output() {
        // Two live generators on one shared plan, drawn alternately in
        // steps that straddle block boundaries at different phases.
        let n = 3_000;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut ga = ShapedNoise::new(|f| 1e-3 / (1.0 + f), 1e4, 1 << 9, 5).unwrap();
        let mut gb = ShapedNoise::new(|f| 1e-3 / (1.0 + f), 1e4, 1 << 9, 6).unwrap();
        assert!(Arc::ptr_eq(&ga.fft, &gb.fft));
        while a.len() < n {
            a.extend(ga.generate(300.min(n - a.len())).unwrap());
            b.extend(gb.generate(700.min(n - b.len())).unwrap());
        }
        b.extend(gb.generate(n - b.len()).unwrap());
        assert_same_bits(&a, &solo(5, 1 << 9, n, 1_000));
        assert_same_bits(&b, &solo(6, 1 << 9, n, 1_000));
    }

    #[test]
    fn generators_built_on_four_threads_match_the_sequential_output() {
        // A block length no other test here uses, so the four threads
        // race to build its plan; the sequential pass runs afterwards.
        let (block, n) = (1 << 8, 2_000);
        let barrier = std::sync::Barrier::new(4);
        let threaded: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|seed| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        solo(seed, block, n, 257)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (seed, t) in (0..4u64).zip(&threaded) {
            assert_same_bits(t, &solo(seed, block, n, 257));
        }
    }
}
