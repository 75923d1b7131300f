//! Noise synthesis: white Gaussian, arbitrary-PSD shaped, and the
//! calibrated hot/cold source the Y-factor method requires.
//!
//! All generators are seeded explicitly so every experiment in the
//! reproduction is deterministic.

mod calibrated;
mod shaped;
mod white;

pub use calibrated::{CalibratedNoiseSource, NoiseSourceState};
pub use shaped::ShapedNoise;
pub use white::WhiteNoise;

use rand::Rng;

/// Draws one standard-normal sample by the Box–Muller transform.
///
/// `rand_distr` is deliberately not a dependency (see DESIGN.md); this
/// is the only Gaussian primitive the simulator needs.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let z = nfbist_analog::noise::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller: u1 in (0, 1] avoids ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..100_000).map(|_| standard_normal(&mut rng)).collect();
        let mean = nfbist_dsp::stats::mean(&xs).unwrap();
        let var = nfbist_dsp::stats::variance(&xs).unwrap();
        let skew = nfbist_dsp::stats::skewness(&xs).unwrap();
        let kurt = nfbist_dsp::stats::excess_kurtosis(&xs).unwrap();
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        assert!(skew.abs() < 0.05, "skew {skew}");
        assert!(kurt.abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn standard_normal_tail_probability() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let beyond_2sigma = (0..n)
            .filter(|_| standard_normal(&mut rng).abs() > 2.0)
            .count();
        let frac = beyond_2sigma as f64 / n as f64;
        // P(|Z| > 2) ≈ 0.0455.
        assert!((frac - 0.0455).abs() < 0.005, "tail fraction {frac}");
    }
}
