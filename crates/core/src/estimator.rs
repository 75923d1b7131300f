//! End-to-end noise-figure estimation: glue between a power-ratio
//! estimate and the Y-factor equations.

use crate::figure::{NoiseFactor, NoiseFigure};
use crate::power_ratio::{OneBitPowerRatio, OneBitRatioEstimate};
use crate::yfactor;
use crate::CoreError;
use nfbist_analog::bitstream::Bitstream;

/// A complete noise-figure measurement result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NfMeasurement {
    /// The measured Y factor (hot/cold noise power ratio).
    pub y: f64,
    /// The derived noise factor.
    pub factor: NoiseFactor,
    /// The derived noise figure.
    pub figure: NoiseFigure,
}

impl NfMeasurement {
    /// Derives a measurement from a Y factor and the source
    /// temperatures (eq. 8).
    ///
    /// # Errors
    ///
    /// Propagates [`yfactor::noise_factor_from_temperatures`] errors.
    pub fn from_y(y: f64, hot_kelvin: f64, cold_kelvin: f64) -> Result<Self, CoreError> {
        let factor = yfactor::noise_factor_from_temperatures(y, hot_kelvin, cold_kelvin)?;
        Ok(NfMeasurement {
            y,
            factor,
            figure: factor.to_figure(),
        })
    }
}

impl std::fmt::Display for NfMeasurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Y={:.4} F={:.3} NF={:.2} dB",
            self.y,
            self.factor.value(),
            self.figure.db()
        )
    }
}

/// The full BIST estimator: 1-bit power ratio + Y-factor equation.
///
/// # Examples
///
/// ```
/// use nfbist_core::estimator::OneBitNfEstimator;
/// use nfbist_core::power_ratio::OneBitPowerRatio;
///
/// # fn main() -> Result<(), nfbist_core::CoreError> {
/// let ratio = OneBitPowerRatio::new(20_000.0, 2_048, 3_000.0, (100.0, 1_500.0))?;
/// let est = OneBitNfEstimator::new(ratio, 2_900.0, 290.0)?;
/// assert_eq!(est.hot_kelvin(), 2_900.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OneBitNfEstimator {
    ratio: OneBitPowerRatio,
    hot_kelvin: f64,
    cold_kelvin: f64,
}

impl OneBitNfEstimator {
    /// Combines a ratio estimator with declared source temperatures.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless
    /// `hot > cold ≥ 0`.
    pub fn new(
        ratio: OneBitPowerRatio,
        hot_kelvin: f64,
        cold_kelvin: f64,
    ) -> Result<Self, CoreError> {
        if !(hot_kelvin > cold_kelvin) || !(cold_kelvin >= 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "temperatures",
                reason: "requires hot > cold >= 0",
            });
        }
        Ok(OneBitNfEstimator {
            ratio,
            hot_kelvin,
            cold_kelvin,
        })
    }

    /// Declared hot temperature in kelvin.
    pub fn hot_kelvin(&self) -> f64 {
        self.hot_kelvin
    }

    /// Declared cold temperature in kelvin.
    pub fn cold_kelvin(&self) -> f64 {
        self.cold_kelvin
    }

    /// The underlying power-ratio estimator.
    pub fn ratio_estimator(&self) -> &OneBitPowerRatio {
        &self.ratio
    }

    /// Estimates the noise figure from hot/cold bitstreams, returning
    /// both the measurement and the ratio-level intermediates.
    ///
    /// # Errors
    ///
    /// Propagates ratio-estimation and Y-factor errors.
    pub fn estimate(
        &self,
        hot: &Bitstream,
        cold: &Bitstream,
    ) -> Result<(NfMeasurement, OneBitRatioEstimate), CoreError> {
        let ratio = self.ratio.estimate_bits(hot, cold)?;
        let nf = NfMeasurement::from_y(ratio.ratio, self.hot_kelvin, self.cold_kelvin)?;
        Ok((nf, ratio))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfbist_analog::converter::OneBitDigitizer;
    use nfbist_analog::noise::WhiteNoise;
    use nfbist_analog::source::{SquareSource, Waveform};

    #[test]
    fn measurement_from_y() {
        let m = NfMeasurement::from_y(3.4866, 10_000.0, 1_000.0).unwrap();
        assert!((m.factor.value() - 10.03).abs() < 0.01);
        assert!((m.figure.db() - 10.01).abs() < 0.01);
        assert!(m.to_string().contains("NF=10.01 dB"));
    }

    #[test]
    fn estimator_validation() {
        let ratio = OneBitPowerRatio::new(20_000.0, 1024, 3_000.0, (100.0, 1_500.0)).unwrap();
        assert!(OneBitNfEstimator::new(ratio.clone(), 290.0, 290.0).is_err());
        assert!(OneBitNfEstimator::new(ratio.clone(), 290.0, -1.0).is_err());
        assert!(OneBitNfEstimator::new(ratio, 2_900.0, 290.0).is_ok());
    }

    #[test]
    fn end_to_end_known_dut() {
        // Synthesize the Table 2 scenario directly: a DUT with F = 10
        // observed with Th = 10000 K, Tc = 1000 K. The expected Y is
        // (10000 + 2610)/(1000 + 2610) ≈ 3.4876.
        let fs = 20_000.0;
        let n = 1 << 19;
        let f_true = NoiseFactor::new(10.0).unwrap();
        let y_true = crate::yfactor::expected_y(f_true, 10_000.0, 1_000.0).unwrap();

        // Hot/cold records whose powers stand in the exact ratio.
        let sigma_cold = 0.5;
        let sigma_hot = sigma_cold * y_true.sqrt();
        let hot = WhiteNoise::new(sigma_hot, 31).unwrap().generate(n);
        let cold = WhiteNoise::new(sigma_cold, 32).unwrap().generate(n);
        let reference = SquareSource::new(3_000.0, 0.2 * sigma_cold)
            .unwrap()
            .generate(n, fs)
            .unwrap();
        let d = OneBitDigitizer::ideal();
        let bh = d.digitize(&hot, &reference).unwrap();
        let bc = d.digitize(&cold, &reference).unwrap();

        let ratio = OneBitPowerRatio::new(fs, 2_000, 3_000.0, (100.0, 1_500.0)).unwrap();
        let est = OneBitNfEstimator::new(ratio, 10_000.0, 1_000.0).unwrap();
        let (nf, inter) = est.estimate(&bh, &bc).unwrap();

        // Paper Table 2 1-bit row: NF 9.85 dB vs true 10 dB. Allow
        // ±1 dB here (shorter record than the paper's would allow).
        assert!(
            (nf.figure.db() - 10.0).abs() < 1.0,
            "NF {} (Y {})",
            nf.figure.db(),
            nf.y
        );
        assert!(inter.ratio > 1.0);
    }

    #[test]
    fn the_estimator_exposes_its_ratio_stage_and_temperatures() {
        let ratio = OneBitPowerRatio::new(20_000.0, 2_048, 3_000.0, (100.0, 1_500.0))
            .unwrap()
            .with_window(nfbist_dsp::window::Window::Blackman);
        let est = OneBitNfEstimator::new(ratio, 2_900.0, 290.0).unwrap();
        assert_eq!((est.hot_kelvin(), est.cold_kelvin()), (2_900.0, 290.0));
        let stage = est.ratio_estimator();
        assert_eq!(stage.sample_rate(), 20_000.0);
        assert_eq!(stage.nfft(), 2_048);
        assert_eq!(stage.noise_band(), (100.0, 1_500.0));
        assert_eq!(stage.window(), nfbist_dsp::window::Window::Blackman);
    }
}
