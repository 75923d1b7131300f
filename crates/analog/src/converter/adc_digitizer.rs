//! The conventional acquisition front-end of paper Fig. 4: analog mux
//! into the SoC's shared N-bit ADC, wrapped as a [`Digitizer`] so the
//! generic measurement path can drive it interchangeably with the 1-bit
//! comparator cell.

use crate::component::{AnalogMux, Block};
use crate::converter::acquisition::{CaptureStream, Digitizer, Record};
use crate::converter::Adc;
use crate::AnalogError;

/// Incremental capture for the ADC front-end: one mux instance
/// survives across chunks and the quantizer is memoryless, so chunked
/// acquisition reproduces the batch record sample for sample.
struct AdcCapture {
    mux: AnalogMux,
    adc: Adc,
    fed: bool,
}

impl CaptureStream for AdcCapture {
    fn push(
        &mut self,
        signal: &[f64],
        reference: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), AnalogError> {
        if signal.len() != reference.len() {
            return Err(AnalogError::LengthMismatch {
                expected: signal.len(),
                actual: reference.len(),
                context: "capture push",
            });
        }
        if signal.is_empty() {
            return Ok(());
        }
        let muxed = self.mux.process(signal);
        out.extend_from_slice(&self.adc.quantize(&muxed)?);
        self.fed = true;
        Ok(())
    }

    fn finish(&mut self, _out: &mut Vec<f64>) -> Result<(), AnalogError> {
        if !self.fed {
            return Err(AnalogError::EmptyInput { context: "acquire" });
        }
        Ok(())
    }
}

/// The ADC + analog-mux front-end (paper Fig. 4).
///
/// Unlike the comparator cell, the ADC preserves absolute scale — it
/// needs no reference waveform, but it *does* need the signal
/// conditioned into its input range: [`Digitizer::frontend_gain`]
/// places the hot-state RMS at a configurable fraction of full scale
/// (default 20 %, keeping clipping negligible for Gaussian noise).
///
/// # Examples
///
/// ```
/// use nfbist_analog::converter::{AdcDigitizer, Digitizer};
///
/// # fn main() -> Result<(), nfbist_analog::AnalogError> {
/// let adc = AdcDigitizer::new(12)?;
/// assert_eq!(adc.bits_per_sample(), 12);
/// assert!(!adc.uses_reference());
/// // A hot RMS of 0.05 V maps to a ×4 conditioning gain (0.2 / 0.05).
/// assert!((adc.frontend_gain(0.05, 1_156.0)? - 4.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AdcDigitizer {
    adc: Adc,
    mux: AnalogMux,
    target_fraction: f64,
}

impl AdcDigitizer {
    /// Builds the front-end with a `bits`-resolution ADC over ±1 V and
    /// a 2-channel mux.
    ///
    /// # Errors
    ///
    /// Propagates converter construction errors.
    pub fn new(bits: u32) -> Result<Self, AnalogError> {
        Ok(AdcDigitizer {
            adc: Adc::new(bits, 1.0)?,
            mux: AnalogMux::new(2)?,
            target_fraction: 0.2,
        })
    }

    /// Replaces the ADC model.
    pub fn with_adc(mut self, adc: Adc) -> Self {
        self.adc = adc;
        self
    }

    /// Replaces the mux model (e.g. with crosstalk/attenuation
    /// impairments for robustness studies).
    pub fn with_mux(mut self, mux: AnalogMux) -> Self {
        self.mux = mux;
        self
    }

    /// Sets the fraction of full scale the hot-state RMS is conditioned
    /// to (default 0.2).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] outside `(0, 1)`.
    pub fn with_target_fraction(mut self, fraction: f64) -> Result<Self, AnalogError> {
        if !(fraction > 0.0 && fraction < 1.0) {
            return Err(AnalogError::InvalidParameter {
                name: "fraction",
                reason: "must be in (0, 1)",
            });
        }
        self.target_fraction = fraction;
        Ok(self)
    }

    /// The ADC model.
    pub fn adc(&self) -> &Adc {
        &self.adc
    }
}

impl Digitizer for AdcDigitizer {
    fn label(&self) -> String {
        format!("{}-bit ADC behind analog mux", self.adc.bits())
    }

    fn bits_per_sample(&self) -> u32 {
        self.adc.bits()
    }

    fn uses_reference(&self) -> bool {
        false
    }

    fn frontend_gain(&self, hot_rms: f64, _post_gain: f64) -> Result<f64, AnalogError> {
        if !(hot_rms > 0.0) || !hot_rms.is_finite() {
            return Err(AnalogError::InvalidParameter {
                name: "hot_rms",
                reason: "must be positive and finite to scale into the ADC range",
            });
        }
        Ok(self.target_fraction * self.adc.full_scale() / hot_rms)
    }

    fn acquire(&self, signal: &[f64], _reference: &[f64]) -> Result<Record, AnalogError> {
        if signal.is_empty() {
            return Err(AnalogError::EmptyInput { context: "acquire" });
        }
        // Through the (imperfect) mux, then the ADC.
        let muxed = self.mux.clone().process(signal);
        Ok(Record::Samples(self.adc.quantize(&muxed)?))
    }

    fn begin_capture<'a>(&'a self) -> Box<dyn CaptureStream + 'a> {
        Box::new(AdcCapture {
            mux: self.mux.clone(),
            adc: self.adc,
            fed: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_configuration() {
        assert!(AdcDigitizer::new(0).is_err());
        let d = AdcDigitizer::new(12).unwrap();
        assert_eq!(d.adc().bits(), 12);
        assert!(d.clone().with_target_fraction(0.0).is_err());
        assert!(d.clone().with_target_fraction(1.0).is_err());
        let d = d.with_target_fraction(0.25).unwrap();
        assert!((d.frontend_gain(0.5, 999.0).unwrap() - 0.5).abs() < 1e-12);
        assert!(d.frontend_gain(0.0, 999.0).is_err());
    }

    #[test]
    fn acquire_quantizes_within_lsb_of_muxed_signal() {
        use crate::component::AnalogMux;
        // An ideal mux isolates the quantizer behaviour; the default
        // mux carries small insertion loss and distortion.
        let d = AdcDigitizer::new(12).unwrap().with_mux(
            AnalogMux::new(2)
                .unwrap()
                .with_impairments(0.0, 0.0, 1.0)
                .unwrap(),
        );
        let x = [0.25, -0.5, 0.8];
        let r = d.acquire(&x, &[]).unwrap();
        let samples = r.to_samples();
        let lsb = d.adc().lsb();
        for (a, b) in x.iter().zip(&samples) {
            assert!((a - b).abs() <= lsb / 2.0 + 1e-12, "{a} vs {b}");
        }
        assert!(d.acquire(&[], &[]).is_err());
    }

    #[test]
    fn a_replaced_converter_sets_resolution_range_and_gain() {
        let d = AdcDigitizer::new(12)
            .unwrap()
            .with_adc(Adc::new(8, 2.0).unwrap());
        assert_eq!(d.adc().bits(), 8);
        assert_eq!(d.bits_per_sample(), 8);
        assert!(d.label().starts_with("8-bit"));
        // The conditioning gain targets the new full scale.
        assert!((d.frontend_gain(0.1, 1.0).unwrap() - 0.2 * 2.0 / 0.1).abs() < 1e-12);
        // Every acquired sample sits on a code centre of the 8-bit,
        // ±2 V grid.
        let x: Vec<f64> = (0..200).map(|i| 2.5 * (i as f64 * 0.13).sin()).collect();
        let samples = d.acquire(&x, &[]).unwrap().to_samples();
        let lsb = d.adc().lsb();
        assert_eq!(lsb, 4.0 / 256.0);
        for v in &samples {
            let code = (v + 2.0) / lsb - 0.5;
            assert!((code - code.round()).abs() < 1e-9, "{v} is off the grid");
            assert!((0.0..256.0).contains(&code.round()));
        }
    }

    #[test]
    fn record_memory_dwarfs_one_bit() {
        use crate::converter::OneBitDigitizer;
        let n = 8_192;
        let x = vec![0.1; n];
        let adc = AdcDigitizer::new(12).unwrap().acquire(&x, &[]).unwrap();
        let bits = Digitizer::acquire(&OneBitDigitizer::ideal(), &x, &vec![0.0; n]).unwrap();
        assert!(adc.memory_bytes() >= 16 * bits.memory_bytes());
    }
}
