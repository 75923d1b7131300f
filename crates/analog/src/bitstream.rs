//! Compact storage for 1-bit digitizer output, with bit-domain DSP
//! kernels.
//!
//! The SoC BIST stores comparator output in on-chip memory; one bit per
//! sample is the whole point of the low-cost digitizer (paper §4.3), so
//! the container is bit-packed and reports its memory footprint.
//!
//! The packing is not just storage: because the expanded samples are
//! exactly `±1`, several estimators reduce to integer bit arithmetic
//! on the packed words, 64 samples at a time:
//!
//! * lag products — `Σ x[i]·x[i+k] = (N−k) − 2·popcount(x ⊕ (x≫k))`,
//!   since a product of ±1 samples is `−1` exactly where the bits
//!   differ ([`Bitstream::lag_product`],
//!   [`Bitstream::autocorrelation`]);
//! * mean / bias — `Σ x[i] = 2·ones − N` ([`Bitstream::bipolar_sum`]);
//! * expansion — when a float buffer *is* needed (the Welch FFT path),
//!   [`Bitstream::expand_bipolar_into`] fills a caller-owned buffer
//!   word-by-word instead of allocating a fresh vector per record.
//!
//! All of these are bit-exact against the corresponding float-domain
//! computation on the expanded record: every intermediate is an
//! integer well inside the `f64` mantissa.
//!
//! The word-level kernels themselves (popcount, XOR-lag, bipolar
//! expansion) are delegated to the runtime-dispatched SIMD layer in
//! [`nfbist_dsp::simd`]; being integer/bit kernels they are
//! **bit-identical on every dispatch arm**, so nothing here depends on
//! which CPU runs the test.

use crate::AnalogError;
use nfbist_dsp::correlation::Bias;
use nfbist_dsp::simd;
use nfbist_dsp::soa::SoaRecords;

/// A packed record of comparator decisions.
///
/// Bits expand to `±1.0` samples for DSP processing via
/// [`Bitstream::to_bipolar`]; the bit-domain kernels listed in the
/// [module docs](self) avoid the expansion entirely.
///
/// # Examples
///
/// ```
/// use nfbist_analog::bitstream::Bitstream;
///
/// let bits: Bitstream = [true, false, true].into_iter().collect();
/// assert_eq!(bits.len(), 3);
/// assert_eq!(bits.to_bipolar(), vec![1.0, -1.0, 1.0]);
/// assert_eq!(bits.ones(), 2);
/// // Lag-1 products of the ±1 expansion, via XOR + popcount.
/// assert_eq!(bits.lag_product(1), Some(-2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitstream {
    words: Vec<u64>,
    len: usize,
}

impl Bitstream {
    /// Creates an empty bitstream.
    pub fn new() -> Self {
        Bitstream::default()
    }

    /// Creates an empty bitstream with capacity for `n` bits.
    pub fn with_capacity(n: usize) -> Self {
        Bitstream {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// Appends one bit.
    ///
    /// Bulk producers (acquisition loops) should prefer
    /// [`Bitstream::extend_from_bits`], which assembles whole `u64`
    /// words in a register instead of re-deriving the word/bit index
    /// per sample.
    pub fn push(&mut self, bit: bool) {
        let word_idx = self.len / 64;
        let bit_idx = self.len % 64;
        if word_idx == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word_idx] |= 1u64 << bit_idx;
        }
        self.len += 1;
    }

    /// Appends every bit of `bits` — the bulk fast path behind
    /// [`FromIterator`] and [`Extend`], and the acquisition loop of the
    /// 1-bit digitizer.
    ///
    /// Incoming bits are packed into a local `u64` that is flushed once
    /// per 64 samples, so the per-bit cost is one shift-or instead of a
    /// division, a bounds-checked word load and a read-modify-write.
    ///
    /// # Examples
    ///
    /// ```
    /// use nfbist_analog::bitstream::Bitstream;
    ///
    /// let mut bits = Bitstream::new();
    /// bits.extend_from_bits((0..130).map(|i| i % 3 == 0));
    /// assert_eq!(bits.len(), 130);
    /// assert_eq!(bits.get(129), Some(true));
    /// assert_eq!(bits.get(128), Some(false));
    /// ```
    pub fn extend_from_bits<I: IntoIterator<Item = bool>>(&mut self, bits: I) {
        let iter = bits.into_iter();
        self.words.reserve(iter.size_hint().0.div_ceil(64));
        // Resume inside the current partial word, if any.
        let mut fill = (self.len % 64) as u32;
        let mut word = if fill == 0 {
            0
        } else {
            self.words
                .pop()
                .expect("partial word exists when len % 64 != 0")
        };
        for bit in iter {
            word |= (bit as u64) << fill;
            fill += 1;
            if fill == 64 {
                self.words.push(word);
                word = 0;
                fill = 0;
            }
            self.len += 1;
        }
        if fill > 0 {
            self.words.push(word);
        }
    }

    /// Number of stored bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// Returns `None` past the end.
    pub fn get(&self, i: usize) -> Option<bool> {
        if i >= self.len {
            return None;
        }
        Some(self.words[i / 64] >> (i % 64) & 1 == 1)
    }

    /// Count of `true` bits (vectorized popcount on the packed words).
    pub fn ones(&self) -> usize {
        simd::popcount_words(&self.words) as usize
    }

    /// Fraction of `true` bits (0.5 for an unbiased comparator looking
    /// at zero-mean noise).
    ///
    /// Returns NaN for an empty stream.
    pub fn duty(&self) -> f64 {
        self.ones() as f64 / self.len as f64
    }

    /// Sum of the `±1` expansion, `Σ x[i] = 2·ones − N`, via popcount —
    /// no per-bit work, no float accumulation error.
    pub fn bipolar_sum(&self) -> i64 {
        2 * self.ones() as i64 - self.len as i64
    }

    /// Mean of the `±1` expansion (the comparator's DC bias, 0 for an
    /// ideal comparator on zero-mean noise).
    ///
    /// Returns NaN for an empty stream.
    pub fn bipolar_mean(&self) -> f64 {
        self.bipolar_sum() as f64 / self.len as f64
    }

    /// Number of positions `i < len − lag` where bit `i` differs from
    /// bit `i + lag`, computed word-by-word as
    /// `popcount(x ⊕ (x ≫ lag))`.
    ///
    /// Returns `None` when `lag >= len`.
    ///
    /// The word walk runs on the dispatched SIMD kernel
    /// ([`nfbist_dsp::simd::xor_popcount_lag`]): on AVX2+POPCNT the
    /// shifted stream is assembled and XOR-popcounted four words per
    /// register, with a scalar tail handling the ragged end — both arms
    /// count the exact same integer.
    pub fn xor_popcount_lag(&self, lag: usize) -> Option<usize> {
        if lag >= self.len {
            return None;
        }
        Some(simd::xor_popcount_lag(&self.words, self.len, lag))
    }

    /// Sum of lag-`lag` products of the `±1` expansion,
    /// `Σ_{i<N−lag} x[i]·x[i+lag]`: each product is `+1` where the bits
    /// agree and `−1` where they differ, so the sum is
    /// `(N − lag) − 2·popcount(x ⊕ (x ≫ lag))`.
    ///
    /// Returns `None` when `lag >= len`.
    pub fn lag_product(&self, lag: usize) -> Option<i64> {
        let differing = self.xor_popcount_lag(lag)?;
        Some((self.len - lag) as i64 - 2 * differing as i64)
    }

    /// Autocorrelation of the `±1` expansion for lags `0..=max_lag`
    /// via XOR + popcount — bit-exact with
    /// [`nfbist_dsp::correlation::autocorrelation`] on
    /// [`Bitstream::to_bipolar`] (the lag sums are integers, exactly
    /// representable in `f64`) at roughly a 64th of the work.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::EmptyInput`] for an empty stream and
    /// [`AnalogError::InvalidParameter`] if `max_lag >= len`.
    ///
    /// # Examples
    ///
    /// ```
    /// use nfbist_analog::bitstream::Bitstream;
    /// use nfbist_dsp::correlation::Bias;
    ///
    /// # fn main() -> Result<(), nfbist_analog::AnalogError> {
    /// // The alternating stream anti-correlates at lag 1.
    /// let bits: Bitstream = (0..4).map(|i| i % 2 == 0).collect();
    /// let r = bits.autocorrelation(1, Bias::Biased)?;
    /// assert_eq!(r, vec![1.0, -0.75]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn autocorrelation(&self, max_lag: usize, bias: Bias) -> Result<Vec<f64>, AnalogError> {
        if self.is_empty() {
            return Err(AnalogError::EmptyInput {
                context: "bitstream autocorrelation",
            });
        }
        if max_lag >= self.len {
            return Err(AnalogError::InvalidParameter {
                name: "max_lag",
                reason: "must be smaller than the stream length",
            });
        }
        let n = self.len;
        Ok((0..=max_lag)
            .map(|lag| {
                let acc = self.lag_product(lag).expect("lag < len") as f64;
                let denom = match bias {
                    Bias::Biased => n as f64,
                    Bias::Unbiased => (n - lag) as f64,
                };
                acc / denom
            })
            .collect())
    }

    /// Normalized autocorrelation `ρ[k] = R[k]/R[0]` of the `±1`
    /// expansion — the quantity inside the arcsine law (paper eq. 12).
    /// For a ±1 signal `R[0] = 1` exactly, so this is the biased
    /// [`Bitstream::autocorrelation`].
    ///
    /// # Errors
    ///
    /// Same as [`Bitstream::autocorrelation`].
    pub fn normalized_autocorrelation(&self, max_lag: usize) -> Result<Vec<f64>, AnalogError> {
        self.autocorrelation(max_lag, Bias::Biased)
    }

    /// Expands to `±1.0` samples (`true → +1`).
    pub fn to_bipolar(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len];
        self.expand_bipolar_into(&mut out)
            .expect("freshly sized buffer");
        out
    }

    /// Expands the `±1.0` samples into a caller-owned buffer — the
    /// zero-allocation variant of [`Bitstream::to_bipolar`] used by the
    /// 1-bit estimator hot path. Samples are produced word-by-word
    /// (one shift-and per bit, no per-bit word indexing).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::LengthMismatch`] unless
    /// `out.len() == self.len()`.
    pub fn expand_bipolar_into(&self, out: &mut [f64]) -> Result<(), AnalogError> {
        if out.len() != self.len {
            return Err(AnalogError::LengthMismatch {
                expected: self.len,
                actual: out.len(),
                context: "bitstream expand_bipolar_into",
            });
        }
        simd::expand_bipolar(&self.words, out);
        Ok(())
    }

    /// Expands several equal-length bitstreams into one sample-major
    /// [`SoaRecords`] batch — the fan-out layout the SIMD Goertzel
    /// readout ([`nfbist_dsp::goertzel::Goertzel::power_soa`]) consumes,
    /// with repeat `l` of sample `i` at `data[i * lanes + l]`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::EmptyInput`] for an empty list or
    /// zero-length streams and [`AnalogError::LengthMismatch`] when the
    /// streams disagree on length.
    ///
    /// # Examples
    ///
    /// ```
    /// use nfbist_analog::bitstream::Bitstream;
    ///
    /// # fn main() -> Result<(), nfbist_analog::AnalogError> {
    /// let a: Bitstream = [true, false, true].into_iter().collect();
    /// let b: Bitstream = [false, false, true].into_iter().collect();
    /// let batch = Bitstream::expand_many_bipolar(&[a, b])?;
    /// assert_eq!(batch.lanes(), 2);
    /// assert_eq!(batch.copy_lane(1), vec![-1.0, -1.0, 1.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn expand_many_bipolar(streams: &[Bitstream]) -> Result<SoaRecords, AnalogError> {
        let first = streams.first().ok_or(AnalogError::EmptyInput {
            context: "bitstream expand_many_bipolar",
        })?;
        let samples = first.len();
        if samples == 0 {
            return Err(AnalogError::EmptyInput {
                context: "bitstream expand_many_bipolar",
            });
        }
        let mut batch = SoaRecords::new(streams.len(), samples);
        let mut scratch = vec![0.0f64; samples];
        for (l, s) in streams.iter().enumerate() {
            if s.len() != samples {
                return Err(AnalogError::LengthMismatch {
                    expected: samples,
                    actual: s.len(),
                    context: "bitstream expand_many_bipolar",
                });
            }
            simd::expand_bipolar(&s.words, &mut scratch);
            batch.set_lane(l, &scratch);
        }
        Ok(batch)
    }

    /// Scalar word-walk expansion: applies `f` to each bit (0 or 1) of
    /// the stream, 64 samples per word load. `out` must be at most
    /// `self.len()` long. The hot `±1` path goes through the dispatched
    /// [`nfbist_dsp::simd::expand_bipolar`] instead; this generic form
    /// serves the remaining (cold) expansions such as
    /// [`Bitstream::to_unipolar`].
    fn expand_words_into(&self, out: &mut [f64], f: impl Fn(u64) -> f64) {
        for (chunk, &w) in out.chunks_mut(64).zip(&self.words) {
            let mut word = w;
            for o in chunk {
                *o = f(word & 1);
                word >>= 1;
            }
        }
    }

    /// Iterates over the `±1.0` expansion without materializing it
    /// (e.g. for single-bin Goertzel readout of a bitstream).
    pub fn iter_bipolar(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.iter().map(|b| if b { 1.0 } else { -1.0 })
    }

    /// Expands to `0.0 / 1.0` samples.
    pub fn to_unipolar(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len];
        self.expand_words_into(&mut out, |bit| bit as f64);
        out
    }

    /// Memory footprint of the packed representation in bytes.
    ///
    /// The SoC resource accountant uses this to budget acquisitions.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            stream: self,
            pos: 0,
        }
    }
}

impl FromIterator<bool> for Bitstream {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bs = Bitstream::new();
        bs.extend_from_bits(iter);
        bs
    }
}

impl Extend<bool> for Bitstream {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        self.extend_from_bits(iter);
    }
}

/// Iterator over the bits of a [`Bitstream`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    stream: &'a Bitstream,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.stream.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.stream.len - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Bitstream {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut bs = Bitstream::new();
        assert!(bs.is_empty());
        for i in 0..130 {
            bs.push(i % 3 == 0);
        }
        assert_eq!(bs.len(), 130);
        for i in 0..130 {
            assert_eq!(bs.get(i), Some(i % 3 == 0), "bit {i}");
        }
        assert_eq!(bs.get(130), None);
    }

    #[test]
    fn ones_and_duty() {
        let bs: Bitstream = [true, true, false, false].into_iter().collect();
        assert_eq!(bs.ones(), 2);
        assert_eq!(bs.duty(), 0.5);
        assert!(Bitstream::new().duty().is_nan());
    }

    #[test]
    fn bipolar_and_unipolar_expansion() {
        let bs: Bitstream = [true, false].into_iter().collect();
        assert_eq!(bs.to_bipolar(), vec![1.0, -1.0]);
        assert_eq!(bs.to_unipolar(), vec![1.0, 0.0]);
    }

    #[test]
    fn memory_footprint_is_one_bit_per_sample() {
        let bs: Bitstream = (0..1_000_000).map(|i| i % 2 == 0).collect();
        // 10⁶ bits ≈ 125 kB — the paper's full acquisition fits in
        // modest SoC memory.
        assert_eq!(bs.memory_bytes(), 1_000_000_usize.div_ceil(64) * 8);
        assert!(bs.memory_bytes() < 126_000);
    }

    #[test]
    fn iteration() {
        let bits = [true, false, true, true];
        let bs: Bitstream = bits.into_iter().collect();
        let collected: Vec<bool> = bs.iter().collect();
        assert_eq!(collected, bits);
        assert_eq!(bs.iter().len(), 4);
        let from_ref: Vec<bool> = (&bs).into_iter().collect();
        assert_eq!(from_ref, bits);
    }

    #[test]
    fn extend_appends() {
        let mut bs: Bitstream = [true].into_iter().collect();
        bs.extend([false, true]);
        assert_eq!(bs.to_bipolar(), vec![1.0, -1.0, 1.0]);
    }

    #[test]
    fn word_boundary_crossing() {
        let mut bs = Bitstream::with_capacity(65);
        for _ in 0..64 {
            bs.push(false);
        }
        bs.push(true);
        assert_eq!(bs.get(64), Some(true));
        assert_eq!(bs.ones(), 1);
    }

    /// Deterministic pseudo-random bit pattern for kernel tests.
    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 60) & 1 == 1
            })
            .collect()
    }

    #[test]
    fn extend_from_bits_matches_push_across_offsets() {
        // Start from every in-word offset so the resume-partial-word
        // path is exercised, including straddling word boundaries.
        for prefix in [0usize, 1, 37, 63, 64, 65, 127, 128] {
            let head = random_bits(prefix, 1);
            let tail = random_bits(200, 2);
            let mut by_push = Bitstream::new();
            for &b in head.iter().chain(&tail) {
                by_push.push(b);
            }
            let mut by_bulk = Bitstream::new();
            by_bulk.extend_from_bits(head.iter().copied());
            by_bulk.extend_from_bits(tail.iter().copied());
            assert_eq!(by_push, by_bulk, "prefix {prefix}");
        }
    }

    #[test]
    fn bipolar_sum_and_mean_via_popcount() {
        let bs: Bitstream = [true, true, false, true].into_iter().collect();
        assert_eq!(bs.bipolar_sum(), 2);
        assert_eq!(bs.bipolar_mean(), 0.5);
        let balanced: Bitstream = (0..1000).map(|i| i % 2 == 0).collect();
        assert_eq!(balanced.bipolar_sum(), 0);
    }

    #[test]
    fn lag_product_matches_float_products() {
        for n in [3usize, 63, 64, 65, 130, 1000] {
            let bits = random_bits(n, n as u64);
            let bs: Bitstream = bits.iter().copied().collect();
            let x = bs.to_bipolar();
            for lag in [0usize, 1, 2, 63, 64, 65, n - 1] {
                if lag >= n {
                    continue;
                }
                let expect: f64 = (0..n - lag).map(|i| x[i] * x[i + lag]).sum();
                assert_eq!(bs.lag_product(lag), Some(expect as i64), "n {n} lag {lag}");
            }
            assert_eq!(bs.lag_product(n), None);
        }
    }

    #[test]
    fn autocorrelation_matches_float_reference_bitwise() {
        use nfbist_dsp::correlation::autocorrelation;
        for n in [5usize, 64, 100, 129] {
            let bits = random_bits(n, 7 + n as u64);
            let bs: Bitstream = bits.iter().copied().collect();
            let x = bs.to_bipolar();
            for bias in [Bias::Biased, Bias::Unbiased] {
                let fast = bs.autocorrelation(n.min(20) - 1, bias).unwrap();
                let reference = autocorrelation(&x, n.min(20) - 1, bias).unwrap();
                assert_eq!(fast, reference, "n {n} bias {bias:?}");
            }
        }
        assert!(Bitstream::new().autocorrelation(0, Bias::Biased).is_err());
        let one: Bitstream = [true].into_iter().collect();
        assert!(one.autocorrelation(1, Bias::Biased).is_err());
        assert_eq!(one.normalized_autocorrelation(0).unwrap(), vec![1.0]);
    }

    #[test]
    fn expand_bipolar_into_matches_to_bipolar() {
        let bits = random_bits(130, 9);
        let bs: Bitstream = bits.iter().copied().collect();
        let mut out = vec![9.0; 130];
        bs.expand_bipolar_into(&mut out).unwrap();
        assert_eq!(out, bs.to_bipolar());
        assert!(bs.expand_bipolar_into(&mut out[..129]).is_err());
        let collected: Vec<f64> = bs.iter_bipolar().collect();
        assert_eq!(collected, out);
        assert_eq!(bs.iter_bipolar().len(), 130);
    }

    #[test]
    fn expand_many_bipolar_matches_per_stream_expansion() {
        let streams: Vec<Bitstream> = (0..5)
            .map(|r| random_bits(130, 40 + r).into_iter().collect())
            .collect();
        let batch = Bitstream::expand_many_bipolar(&streams).unwrap();
        assert_eq!(batch.lanes(), 5);
        assert_eq!(batch.samples(), 130);
        for (l, s) in streams.iter().enumerate() {
            assert_eq!(batch.copy_lane(l), s.to_bipolar(), "lane {l}");
        }
        // Validation: empty list, zero-length streams, ragged lengths.
        assert!(Bitstream::expand_many_bipolar(&[]).is_err());
        assert!(Bitstream::expand_many_bipolar(&[Bitstream::new()]).is_err());
        let ragged = [
            random_bits(10, 1).into_iter().collect::<Bitstream>(),
            random_bits(11, 2).into_iter().collect::<Bitstream>(),
        ];
        assert!(Bitstream::expand_many_bipolar(&ragged).is_err());
    }
}
