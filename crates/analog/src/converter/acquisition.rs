//! The `Digitizer` abstraction: any acquisition front-end that turns a
//! conditioned analog signal into a stored record.
//!
//! The paper compares two front-ends for the same Y-factor measurement:
//! the proposed 1-bit comparator cell (Fig. 6/11) and the conventional
//! ADC behind an analog mux (Fig. 4). [`Digitizer`] captures the shared
//! contract so one generic acquisition path serves both, and [`Record`]
//! is the common currency the power-ratio estimators consume.

use crate::bitstream::Bitstream;
use crate::converter::OneBitDigitizer;
use crate::AnalogError;

/// One stored acquisition: either a packed 1-bit record or multi-bit
/// samples.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A packed comparator bitstream (1 bit/sample).
    Bits(Bitstream),
    /// Quantized multi-bit samples (stored as f64 voltages).
    Samples(Vec<f64>),
}

impl Record {
    /// Number of stored samples.
    pub fn len(&self) -> usize {
        match self {
            Record::Bits(b) => b.len(),
            Record::Samples(s) => s.len(),
        }
    }

    /// `true` for an empty record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the record occupies in acquisition memory (packed bits for
    /// the 1-bit record, 8 bytes/sample for the multi-bit one).
    pub fn memory_bytes(&self) -> usize {
        match self {
            Record::Bits(b) => b.memory_bytes(),
            Record::Samples(s) => s.len() * std::mem::size_of::<f64>(),
        }
    }

    /// Expands to the sample buffer the estimators consume: `±1` for a
    /// bitstream, the stored voltages otherwise.
    pub fn to_samples(&self) -> Vec<f64> {
        match self {
            Record::Bits(b) => b.to_bipolar(),
            Record::Samples(s) => s.clone(),
        }
    }

    /// The packed bitstream, when this is a 1-bit record.
    pub fn as_bits(&self) -> Option<&Bitstream> {
        match self {
            Record::Bits(b) => Some(b),
            Record::Samples(_) => None,
        }
    }
}

impl From<Bitstream> for Record {
    fn from(b: Bitstream) -> Self {
        Record::Bits(b)
    }
}

impl From<Vec<f64>> for Record {
    fn from(s: Vec<f64>) -> Self {
        Record::Samples(s)
    }
}

/// An acquisition front-end: conditions its input level, compares or
/// quantizes, and stores a [`Record`].
///
/// Object-safe by design — measurement sessions hold
/// `Box<dyn Digitizer>`.
///
/// # Examples
///
/// ```
/// use nfbist_analog::converter::{Digitizer, OneBitDigitizer};
///
/// # fn main() -> Result<(), nfbist_analog::AnalogError> {
/// let d: Box<dyn Digitizer> = Box::new(OneBitDigitizer::ideal());
/// assert_eq!(d.bits_per_sample(), 1);
/// assert!(d.uses_reference());
/// let record = d.acquire(&[1.0, -1.0, 0.5], &[0.0, 0.0, 0.8])?;
/// assert_eq!(record.to_samples(), vec![1.0, -1.0, -1.0]);
/// # Ok(())
/// # }
/// ```
pub trait Digitizer: Send + Sync {
    /// Human-readable description for reports.
    fn label(&self) -> String;

    /// Stored bits per sample (1 for the comparator cell; the converter
    /// resolution for an ADC).
    fn bits_per_sample(&self) -> u32;

    /// `true` when the front-end compares against a reference waveform
    /// (the 1-bit path); `false` when it preserves absolute scale and
    /// needs none (the ADC path).
    fn uses_reference(&self) -> bool;

    /// The voltage gain to apply between the DUT output and this
    /// front-end. `hot_rms` is the analytic hot-state noise RMS at the
    /// DUT output; `post_gain` is the configured conditioning gain of
    /// the 1-bit bench (which is scale-invariant, so it simply uses
    /// it). Scale-sensitive front-ends derive their own gain from
    /// `hot_rms` instead, to land the signal inside their input range.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] when a usable gain
    /// cannot be derived (e.g. a zero `hot_rms` for an ADC).
    fn frontend_gain(&self, hot_rms: f64, post_gain: f64) -> Result<f64, AnalogError>;

    /// Digitizes a conditioned signal (against `reference` when
    /// [`Digitizer::uses_reference`] is `true`).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::EmptyInput`] / [`AnalogError::LengthMismatch`]
    /// for malformed buffers and propagates converter errors.
    fn acquire(&self, signal: &[f64], reference: &[f64]) -> Result<Record, AnalogError>;

    /// Begins one streaming [`Digitizer::acquire`] pass: the returned
    /// [`CaptureStream`] accepts conditioned chunks and yields expanded
    /// estimator samples whose concatenation matches
    /// `acquire(whole).to_samples()`, in `O(chunk)` memory.
    fn begin_capture<'a>(&'a self) -> Box<dyn CaptureStream + 'a>;
}

impl<D: Digitizer + ?Sized> Digitizer for Box<D> {
    fn label(&self) -> String {
        (**self).label()
    }

    fn bits_per_sample(&self) -> u32 {
        (**self).bits_per_sample()
    }

    fn uses_reference(&self) -> bool {
        (**self).uses_reference()
    }

    fn frontend_gain(&self, hot_rms: f64, post_gain: f64) -> Result<f64, AnalogError> {
        (**self).frontend_gain(hot_rms, post_gain)
    }

    fn acquire(&self, signal: &[f64], reference: &[f64]) -> Result<Record, AnalogError> {
        (**self).acquire(signal, reference)
    }

    fn begin_capture<'a>(&'a self) -> Box<dyn CaptureStream + 'a> {
        (**self).begin_capture()
    }
}

/// A stateful, chunk-by-chunk view of one [`Digitizer::acquire`] pass:
/// the front-end half of bounded-memory acquisition.
///
/// Obtained from [`Digitizer::begin_capture`]. Conditioned signal
/// chunks (with their matching reference chunks, for reference-using
/// front-ends) go in; *expanded estimator samples* — `±1` for a 1-bit
/// cell, quantized voltages for an ADC — come out as input arrives, in
/// the same order and (for this crate's front-ends) with the same bits
/// as `acquire(whole).to_samples()`, because comparator/converter state
/// evolves sequentially either way.
pub trait CaptureStream {
    /// Feeds one conditioned chunk and its reference chunk (pass an
    /// equally sized zero chunk when the front-end uses no reference);
    /// appends newly available expanded samples to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::LengthMismatch`] for unequal chunk
    /// lengths and propagates converter errors.
    fn push(
        &mut self,
        signal: &[f64],
        reference: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), AnalogError>;

    /// Signals end-of-record; appends any remaining samples to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::EmptyInput`] when no sample was ever
    /// pushed (mirroring [`Digitizer::acquire`] on an empty record) and
    /// propagates converter errors.
    fn finish(&mut self, out: &mut Vec<f64>) -> Result<(), AnalogError>;
}

/// Incremental capture for the 1-bit comparator cell: one comparator
/// instance (hysteresis state included) survives across chunks, and
/// the decimation phase is tracked by absolute sample index — exactly
/// the sequence a whole-record [`OneBitDigitizer::digitize`] produces.
/// No packed record is stored at all: decisions leave as `±1.0`
/// estimator samples immediately.
struct OneBitCapture {
    comparator: crate::converter::Comparator,
    decimation: usize,
    index: usize,
}

impl CaptureStream for OneBitCapture {
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
        for (&s, &r) in signal.iter().zip(reference) {
            // The comparator sees every sample; decimation only drops
            // latches, exactly as in the batch acquisition loop.
            let decision = self.comparator.compare(s, r);
            if self.index.is_multiple_of(self.decimation) {
                out.push(if decision { 1.0 } else { -1.0 });
            }
            self.index += 1;
        }
        Ok(())
    }

    fn finish(&mut self, _out: &mut Vec<f64>) -> Result<(), AnalogError> {
        if self.index == 0 {
            return Err(AnalogError::EmptyInput {
                context: "begin_capture",
            });
        }
        Ok(())
    }
}

impl Digitizer for OneBitDigitizer {
    fn label(&self) -> String {
        "1-bit comparator cell".to_string()
    }

    fn bits_per_sample(&self) -> u32 {
        1
    }

    fn uses_reference(&self) -> bool {
        true
    }

    /// The 1-bit path is scale-invariant; the configured post-gain is
    /// used unchanged (it only matters against comparator
    /// imperfections).
    fn frontend_gain(&self, _hot_rms: f64, post_gain: f64) -> Result<f64, AnalogError> {
        if !(post_gain > 0.0) || !post_gain.is_finite() {
            return Err(AnalogError::InvalidParameter {
                name: "post_gain",
                reason: "must be positive and finite",
            });
        }
        Ok(post_gain)
    }

    fn acquire(&self, signal: &[f64], reference: &[f64]) -> Result<Record, AnalogError> {
        Ok(Record::Bits(self.digitize(signal, reference)?))
    }

    fn begin_capture<'a>(&'a self) -> Box<dyn CaptureStream + 'a> {
        Box::new(OneBitCapture {
            comparator: self.comparator().clone(),
            decimation: self.decimation(),
            index: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_both_shapes() {
        let bits = OneBitDigitizer::ideal()
            .digitize(&[1.0, -1.0], &[0.0, 0.0])
            .unwrap();
        let r = Record::from(bits.clone());
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.as_bits(), Some(&bits));
        assert_eq!(r.to_samples(), vec![1.0, -1.0]);
        assert_eq!(r.memory_bytes(), bits.memory_bytes());

        let s = Record::from(vec![0.25, -0.5, 0.75]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.as_bits(), None);
        assert_eq!(s.to_samples(), vec![0.25, -0.5, 0.75]);
        assert_eq!(s.memory_bytes(), 24);
    }

    #[test]
    fn one_bit_front_end_contract() {
        let d = OneBitDigitizer::ideal();
        assert_eq!(Digitizer::bits_per_sample(&d), 1);
        assert!(Digitizer::uses_reference(&d));
        assert_eq!(d.frontend_gain(0.1, 1_156.0).unwrap(), 1_156.0);
        assert!(d.frontend_gain(0.1, 0.0).is_err());
        assert!(matches!(
            d.acquire(&[0.5], &[0.0]).unwrap(),
            Record::Bits(_)
        ));
        assert!(d.acquire(&[], &[]).is_err());
    }
}

#[cfg(test)]
mod capture_tests {
    use super::*;
    use crate::converter::{AdcDigitizer, Comparator};
    use crate::noise::WhiteNoise;

    fn signals(n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut w = WhiteNoise::new(1.0, 21).unwrap();
        let signal = w.generate(n);
        let reference: Vec<f64> = (0..n)
            .map(|i| 0.3 * (std::f64::consts::TAU * 0.15 * i as f64).sin())
            .collect();
        (signal, reference)
    }

    fn run_capture(d: &dyn Digitizer, s: &[f64], r: &[f64], chunk: usize) -> Vec<f64> {
        let mut cap = d.begin_capture();
        let mut out = Vec::new();
        for (sc, rc) in s.chunks(chunk).zip(r.chunks(chunk)) {
            cap.push(sc, rc, &mut out).unwrap();
        }
        cap.finish(&mut out).unwrap();
        out
    }

    #[test]
    fn one_bit_capture_matches_batch_bitwise() {
        let (s, r) = signals(10_000);
        // Hysteresis makes the comparator stateful across chunk
        // boundaries — the capture must carry that state.
        let d =
            OneBitDigitizer::with_comparator(Comparator::ideal().with_hysteresis(0.05).unwrap());
        let batch = d.acquire(&s, &r).unwrap().to_samples();
        for chunk in [1usize, 63, 1_000, 10_000] {
            let streamed = run_capture(&d, &s, &r, chunk);
            assert_eq!(streamed, batch, "chunk {chunk}");
        }
    }

    #[test]
    fn decimated_capture_keeps_the_latch_phase_across_chunks() {
        let (s, r) = signals(1_000);
        let d = OneBitDigitizer::ideal().with_decimation(3).unwrap();
        let batch = d.acquire(&s, &r).unwrap().to_samples();
        let streamed = run_capture(&d, &s, &r, 7);
        assert_eq!(streamed, batch);
    }

    #[test]
    fn adc_capture_matches_batch_bitwise() {
        let (s, _) = signals(5_000);
        let zeros = vec![0.0; s.len()];
        let d = AdcDigitizer::new(12).unwrap();
        let batch = d.acquire(&s, &zeros).unwrap().to_samples();
        for chunk in [97usize, 2_048, 5_000] {
            let streamed = run_capture(&d, &s, &zeros, chunk);
            assert_eq!(streamed, batch, "chunk {chunk}");
        }
    }

    #[test]
    fn capture_error_semantics() {
        let d = OneBitDigitizer::ideal();
        let mut cap = d.begin_capture();
        let mut out = Vec::new();
        assert!(cap.push(&[1.0], &[0.0, 0.0], &mut out).is_err(), "mismatch");
        let mut cap = d.begin_capture();
        assert!(cap.finish(&mut out).is_err(), "empty capture");
    }
}
