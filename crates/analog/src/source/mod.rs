//! Deterministic waveform sources: the reference signals presented to
//! the BIST comparator.
//!
//! The paper uses a constant-amplitude square wave in simulation (§5.2)
//! and a 3 kHz, 300 mVpp sine from an HP33120A in the prototype (§5.4).
//! Section 6 notes that even a *low-quality* generator is acceptable
//! because the normalization only tracks the fundamental — the
//! [`SquareSource`] exposes harmonic truncation and amplitude drift to
//! test exactly that claim.

mod sine;
mod square;

pub use sine::SineSource;
pub use square::SquareSource;

use crate::AnalogError;

/// A deterministic, time-parameterized waveform.
///
/// Object-safe so heterogeneous reference generators can be boxed into a
/// test setup.
pub trait Waveform {
    /// Instantaneous value at time `t` seconds.
    fn value_at(&self, t: f64) -> f64;

    /// Fundamental frequency in hertz.
    fn frequency(&self) -> f64;

    /// Amplitude of the fundamental component in volts (half the
    /// peak-to-peak value for a sine; `4A/π` relates a square wave's
    /// level `A` to its fundamental).
    fn fundamental_amplitude(&self) -> f64;

    /// Samples `n` points at `sample_rate` Hz starting from `t = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a non-positive
    /// sample rate.
    fn generate(&self, n: usize, sample_rate: f64) -> Result<Vec<f64>, AnalogError> {
        // Delegates to the chunked form so the two defaults cannot
        // drift apart — an impl overriding either one keeps
        // `generate(n) == concat(generate_chunk(..))` by construction.
        self.generate_chunk(0, n, sample_rate)
    }

    /// Samples `n` points starting at absolute sample index `offset` —
    /// the chunked form of [`Waveform::generate`]. Because every sample
    /// is computed from its absolute index, concatenated chunks are
    /// **bitwise identical** to one [`Waveform::generate`] call over the
    /// whole record; streaming acquisition relies on that.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a non-positive
    /// sample rate.
    ///
    /// # Examples
    ///
    /// ```
    /// use nfbist_analog::source::{SineSource, Waveform};
    ///
    /// # fn main() -> Result<(), nfbist_analog::AnalogError> {
    /// let s = SineSource::new(50.0, 1.0)?;
    /// let whole = s.generate(100, 1_000.0)?;
    /// let mut chunked = s.generate_chunk(0, 33, 1_000.0)?;
    /// chunked.extend(s.generate_chunk(33, 67, 1_000.0)?);
    /// assert_eq!(whole, chunked);
    /// # Ok(())
    /// # }
    /// ```
    fn generate_chunk(
        &self,
        offset: usize,
        n: usize,
        sample_rate: f64,
    ) -> Result<Vec<f64>, AnalogError> {
        if !(sample_rate > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        Ok((offset..offset + n)
            .map(|i| self.value_at(i as f64 / sample_rate))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_rejects_bad_rate() {
        let w = SineSource::new(10.0, 1.0).unwrap();
        assert!(w.generate(4, 0.0).is_err());
    }

    #[test]
    fn waveform_is_object_safe() {
        let sources: Vec<Box<dyn Waveform>> = vec![
            Box::new(SineSource::new(100.0, 1.0).unwrap()),
            Box::new(SquareSource::new(100.0, 1.0).unwrap()),
        ];
        for s in &sources {
            assert!(s.frequency() > 0.0);
            assert!(s.value_at(0.0).is_finite());
        }
    }
}
