//! Chunked Welch estimation with bounded memory.
//!
//! The batch estimator ([`WelchConfig::estimate`]) needs the whole
//! record in RAM; in the real hardware the correlator integrates on the
//! fly, so record length is a *time* cost, not a *memory* cost.
//! [`WelchAccumulator`] restores that to the simulation: chunks of any
//! size arrive, segments straddling chunk boundaries are reassembled
//! through a carry of at most one segment, and each completed segment's
//! density goes to a [`RetentionStore`]:
//!
//! * [`DecayedSum`] at λ = 1 ([`WelchAccumulator::cumulative`]) keeps
//!   every segment; the estimate is **bitwise** the batch estimate over
//!   the concatenated record (same segment kernel, same order, one final
//!   scaling).
//! * [`SegmentRing`] ([`SlidingWelch`]) keeps the last `W`; the estimate
//!   is bitwise the batch estimate over the retained samples.
//! * [`DecayedSum`] at λ < 1 ([`ForgettingWelch`]) decays the running
//!   density per segment, for an effective depth of `(1 + λ)/(1 − λ)`.
//!
//! Segments complete at absolute stream positions, so every estimate is
//! bit-identical across chunk sizes. The stores allocate at
//! construction; after the first pushes, pushing and finalizing
//! allocate nothing (`crates/dsp/tests/alloc_free.rs`).

use crate::psd::welch::accumulate_segment;
use crate::psd::{DspWorkspace, WelchConfig};
use crate::spectrum::Spectrum;
use crate::DspError;

/// Where a [`WelchAccumulator`] keeps completed segment densities and
/// how it folds them into one estimate.
///
/// The accumulator owns everything the retention policies share: the
/// carry, the segment kernel, the hop, the segment counter and the
/// finalize checks. A store only supplies the buffer each segment's
/// density is accumulated into and the fold over what it retains;
/// `seen` is the accumulator's count of segments completed so far.
pub trait RetentionStore {
    /// The buffer of `segment_len/2 + 1` densities that segment `index`
    /// (counted from the start of the stream) adds its density into.
    fn slot(&mut self, index: usize) -> &mut [f64];

    /// Books the segment just added into its slot.
    fn commit(&mut self) {}

    /// How many of the `seen` segments the estimate draws on.
    fn retained(&self, seen: usize) -> usize;

    /// The equivalent number of equally weighted segments, the depth to
    /// feed a `1/√n` variance model (0 before the first segment);
    /// unweighted stores count their retained segments.
    fn effective_segments(&self, seen: usize) -> f64 {
        self.retained(seen) as f64
    }

    /// Writes the estimate, the weighted mean of the retained
    /// densities, into `out`; called only once a segment completed.
    fn fold_into(&self, seen: usize, out: &mut [f64]);

    /// Forgets every segment, keeping the allocation.
    fn clear(&mut self) {}
}

/// A ring of the last `W` segment densities: the sliding-window store.
/// Segment `i` lives in slot `i mod W`. The fold sums the retained
/// slots oldest to newest and scales by the count, the same left fold
/// the batch estimator performs.
#[derive(Debug, Clone)]
pub struct SegmentRing {
    slots: Vec<Vec<f64>>,
}

impl RetentionStore for SegmentRing {
    fn slot(&mut self, index: usize) -> &mut [f64] {
        let len = self.slots.len();
        let slot = &mut self.slots[index % len];
        slot.fill(0.0);
        slot
    }

    fn retained(&self, seen: usize) -> usize {
        seen.min(self.slots.len())
    }

    fn fold_into(&self, seen: usize, out: &mut [f64]) {
        let kept = self.retained(seen);
        out.fill(0.0);
        for index in seen - kept..seen {
            for (o, s) in out.iter_mut().zip(&self.slots[index % self.slots.len()]) {
                *o += s;
            }
        }
        let inv = 1.0 / kept as f64;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }
}

/// An exponentially decayed running sum: the forgetting and cumulative
/// store. Each segment density `Pᵢ` updates `a ← λ·a + Pᵢ` and
/// `w ← λ·w + 1`; the estimate is `a·(1/w)`. The slot is `a` itself,
/// scaled by λ before the segment adds `Pᵢ` into it. At λ = 1 the
/// scaling is exact, so the estimate carries the batch estimator's bits.
#[derive(Debug, Clone)]
pub struct DecayedSum {
    lambda: f64,
    sum: Vec<f64>,
    /// `Σ λ^k` over completed segments (the normalization weight).
    weight: f64,
    /// `Σ λ^{2k}`, tracked so the effective depth is exact.
    weight_sq: f64,
}

impl RetentionStore for DecayedSum {
    fn slot(&mut self, _index: usize) -> &mut [f64] {
        for a in self.sum.iter_mut() {
            *a *= self.lambda;
        }
        &mut self.sum
    }

    fn commit(&mut self) {
        self.weight = self.lambda * self.weight + 1.0;
        self.weight_sq = self.lambda * self.lambda * self.weight_sq + 1.0;
    }

    fn retained(&self, seen: usize) -> usize {
        seen
    }

    fn effective_segments(&self, seen: usize) -> f64 {
        if seen == 0 {
            return 0.0;
        }
        self.weight * self.weight / self.weight_sq
    }

    fn fold_into(&self, _seen: usize, out: &mut [f64]) {
        let inv = 1.0 / self.weight;
        for (o, a) in out.iter_mut().zip(&self.sum) {
            *o = a * inv;
        }
    }

    fn clear(&mut self) {
        self.sum.fill(0.0);
        self.weight = 0.0;
        self.weight_sq = 0.0;
    }
}

/// A push-based Welch accumulator over a conceptually unbounded record,
/// generic over the [`RetentionStore`] that decides which segments the
/// estimate keeps.
///
/// Feed chunks with [`WelchAccumulator::push`]; read the estimate at
/// any point with [`WelchAccumulator::finalize`] (non-destructive, so a
/// monitor can poll a live estimate mid-acquisition).
///
/// # Examples
///
/// ```
/// use nfbist_dsp::psd::{WelchAccumulator, WelchConfig};
///
/// # fn main() -> Result<(), nfbist_dsp::DspError> {
/// let x: Vec<f64> = (0..8192).map(|n| (n as f64 * 0.37).sin()).collect();
/// let cfg = WelchConfig::new(1024)?;
///
/// // Batch reference.
/// let batch = cfg.estimate(&x, 10_000.0)?;
///
/// // Same record pushed in odd-sized chunks: bitwise identical.
/// let mut acc = WelchAccumulator::cumulative(cfg, 10_000.0)?;
/// for chunk in x.chunks(777) {
///     acc.push(chunk)?;
/// }
/// assert_eq!(acc.finalize()?, batch);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WelchAccumulator<S> {
    config: WelchConfig,
    sample_rate: f64,
    workspace: DspWorkspace,
    /// Samples waiting for enough successors to complete a segment
    /// (global positions `[seen·hop, seen·hop + carry.len())`). Never
    /// grows beyond one segment length.
    carry: Vec<f64>,
    store: S,
    /// Segments completed over the whole stream, retained or not.
    seen: usize,
    pushed: usize,
}

/// The sliding-window Welch estimator: only the last `window_segments`
/// completed segments contribute, older ones retire as new ones arrive.
///
/// # Examples
///
/// ```
/// use nfbist_dsp::psd::{SlidingWelch, WelchConfig};
///
/// # fn main() -> Result<(), nfbist_dsp::DspError> {
/// let x: Vec<f64> = (0..8192).map(|n| (n as f64 * 0.37).sin()).collect();
/// let cfg = WelchConfig::new(1024)?;
///
/// let mut sw = SlidingWelch::new(cfg.clone(), 10_000.0, 4)?;
/// for chunk in x.chunks(777) {
///     sw.push(chunk)?;
/// }
/// // The window holds the last 4 segments; a batch estimate over the
/// // retained samples is bit-for-bit the same spectrum.
/// let (start, end) = sw.retained_range().unwrap();
/// assert_eq!(sw.finalize()?, cfg.estimate(&x[start..end], 10_000.0)?);
/// # Ok(())
/// # }
/// ```
pub type SlidingWelch = WelchAccumulator<SegmentRing>;

/// The exponentially forgetting Welch estimator (and, built with
/// [`WelchAccumulator::cumulative`], the plain running average).
///
/// # Examples
///
/// ```
/// use nfbist_dsp::psd::{ForgettingWelch, WelchConfig};
///
/// # fn main() -> Result<(), nfbist_dsp::DspError> {
/// let x: Vec<f64> = (0..8192).map(|n| (n as f64 * 0.37).sin()).collect();
/// let cfg = WelchConfig::new(1024)?;
/// let mut a = ForgettingWelch::new(cfg.clone(), 10_000.0, 0.8)?;
/// let mut b = ForgettingWelch::new(cfg, 10_000.0, 0.8)?;
/// for chunk in x.chunks(777) {
///     a.push(chunk)?;
/// }
/// b.push(&x)?;
/// assert_eq!(a.finalize()?, b.finalize()?); // chunking is invisible
/// # Ok(())
/// # }
/// ```
pub type ForgettingWelch = WelchAccumulator<DecayedSum>;

impl<S: RetentionStore> WelchAccumulator<S> {
    fn with_store(config: WelchConfig, sample_rate: f64, store: S) -> Result<Self, DspError> {
        if !(sample_rate > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        let n = config.segment_len();
        Ok(WelchAccumulator {
            config,
            sample_rate,
            workspace: DspWorkspace::new(),
            carry: Vec::with_capacity(n),
            store,
            seen: 0,
            pushed: 0,
        })
    }

    /// The Welch configuration being accumulated.
    pub fn config(&self) -> &WelchConfig {
        &self.config
    }

    /// The sample rate in hertz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Total samples pushed so far.
    pub fn samples_pushed(&self) -> usize {
        self.pushed
    }

    /// Segments completed over the whole stream, including retired ones.
    pub fn segments_seen(&self) -> usize {
        self.seen
    }

    /// Segments the estimate currently draws on.
    pub fn segments_retained(&self) -> usize {
        self.store.retained(self.seen)
    }

    /// The equivalent number of equally weighted segments,
    /// `(Σwᵢ)² / Σwᵢ²` over the retained segment weights: the retained
    /// count for a ring or a cumulative sum, growing from 1 toward
    /// `(1 + λ)/(1 − λ)` for a forgetting sum, 0 before the first
    /// segment.
    pub fn effective_segments(&self) -> f64 {
        self.store.effective_segments(self.seen)
    }

    /// Absolute sample positions `[start, end)` of the samples the
    /// retained segments cover, or `None` before the first complete
    /// segment. For a ring or a cumulative sum, a batch estimate over
    /// exactly this span of the pushed stream reproduces
    /// [`WelchAccumulator::finalize`] bit for bit.
    pub fn retained_range(&self) -> Option<(usize, usize)> {
        let kept = self.segments_retained();
        if kept == 0 {
            return None;
        }
        let hop = self.config.hop();
        Some((
            (self.seen - kept) * hop,
            (self.seen - 1) * hop + self.config.segment_len(),
        ))
    }

    /// Appends a chunk of samples (any length, including empty).
    ///
    /// Every segment the chunk completes is processed immediately and
    /// handed to the store — the chunk itself is never retained beyond
    /// the at-most-one-segment carry.
    ///
    /// # Errors
    ///
    /// Propagates FFT/plan errors (which cannot occur for a validated
    /// configuration, but the signature stays honest).
    pub fn push(&mut self, chunk: &[f64]) -> Result<(), DspError> {
        let n = self.config.segment_len();
        let hop = self.config.hop();
        let detrend = self.config.detrend_enabled();
        let policy = self.config.simd_policy();
        let plan = self.workspace.plan(n, self.config.window_kind())?;
        let mut rest = chunk;
        loop {
            // Top the carry up to exactly one segment.
            let take = (n - self.carry.len()).min(rest.len());
            self.carry.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.carry.len() < n {
                break;
            }
            accumulate_segment(
                plan,
                detrend,
                policy,
                self.sample_rate,
                &self.carry,
                self.store.slot(self.seen),
            )?;
            self.store.commit();
            self.seen += 1;
            // Advance by one hop; the overlap tail stays for the next
            // segment. `drain` shifts in place — no allocation.
            self.carry.drain(..hop.min(self.carry.len()));
        }
        self.pushed += chunk.len();
        Ok(())
    }

    /// The estimate over the retained segments, scaled exactly as the
    /// batch estimator scales its segment sum.
    ///
    /// Non-destructive — more chunks may be pushed afterwards and the
    /// estimate re-read.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] before the first complete
    /// segment (mirroring the batch estimator's "input shorter than one
    /// segment").
    pub fn finalize(&self) -> Result<Spectrum, DspError> {
        let mut out = vec![0.0f64; self.config.segment_len() / 2 + 1];
        self.finalize_into(&mut out)?;
        Spectrum::new(out, self.sample_rate, self.config.segment_len())
    }

    /// [`WelchAccumulator::finalize`] into a caller-owned buffer of
    /// `segment_len/2 + 1` densities (no allocation).
    ///
    /// # Errors
    ///
    /// Same as [`WelchAccumulator::finalize`], plus
    /// [`DspError::LengthMismatch`] for a wrongly sized `out`.
    pub fn finalize_into(&self, out: &mut [f64]) -> Result<(), DspError> {
        let half = self.config.segment_len() / 2 + 1;
        if out.len() != half {
            return Err(DspError::LengthMismatch {
                expected: half,
                actual: out.len(),
                context: "welch accumulator finalize (output)",
            });
        }
        if self.seen == 0 {
            return Err(DspError::EmptyInput {
                context: "welch accumulator (input shorter than one segment)",
            });
        }
        self.store.fold_into(self.seen, out);
        Ok(())
    }

    /// Clears the accumulated state (carry, store, counters) so the
    /// instance — and its cached FFT plan and buffers — can accumulate
    /// a fresh record.
    pub fn reset(&mut self) {
        self.carry.clear();
        self.store.clear();
        self.seen = 0;
        self.pushed = 0;
    }
}

impl WelchAccumulator<SegmentRing> {
    /// Creates a sliding estimator retaining the last `window_segments`
    /// segments (all ring slots are allocated here).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for a non-positive sample
    /// rate or a zero-length window.
    pub fn new(
        config: WelchConfig,
        sample_rate: f64,
        window_segments: usize,
    ) -> Result<Self, DspError> {
        if window_segments == 0 {
            return Err(DspError::InvalidParameter {
                name: "window_segments",
                reason: "sliding window must retain at least one segment",
            });
        }
        let bins = config.segment_len() / 2 + 1;
        let ring = SegmentRing {
            slots: vec![vec![0.0; bins]; window_segments],
        };
        Self::with_store(config, sample_rate, ring)
    }

    /// The window capacity in segments.
    pub fn window_segments(&self) -> usize {
        self.store.slots.len()
    }
}

impl WelchAccumulator<DecayedSum> {
    /// Creates a forgetting estimator with decay factor `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for a non-positive sample
    /// rate or a `lambda` outside the open interval `(0, 1)` (λ = 1 is
    /// [`WelchAccumulator::cumulative`]).
    pub fn new(config: WelchConfig, sample_rate: f64, lambda: f64) -> Result<Self, DspError> {
        if !(lambda > 0.0 && lambda < 1.0) {
            return Err(DspError::InvalidParameter {
                name: "lambda",
                reason: "forgetting factor must lie in (0, 1)",
            });
        }
        Self::decayed(config, sample_rate, lambda)
    }

    /// Creates a cumulative estimator: every segment keeps weight 1, so
    /// the estimate is bitwise the batch estimator over everything
    /// pushed.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for a non-positive sample
    /// rate.
    pub fn cumulative(config: WelchConfig, sample_rate: f64) -> Result<Self, DspError> {
        Self::decayed(config, sample_rate, 1.0)
    }

    fn decayed(config: WelchConfig, sample_rate: f64, lambda: f64) -> Result<Self, DspError> {
        let bins = config.segment_len() / 2 + 1;
        let store = DecayedSum {
            lambda,
            sum: vec![0.0; bins],
            weight: 0.0,
            weight_sq: 0.0,
        };
        Self::with_store(config, sample_rate, store)
    }

    /// The per-segment decay factor (1 for a cumulative estimator).
    pub fn lambda(&self) -> f64 {
        self.store.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;

    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn construction_validation() {
        let cfg = WelchConfig::new(64).unwrap();
        assert!(WelchAccumulator::cumulative(cfg.clone(), 0.0).is_err());
        assert!(WelchAccumulator::cumulative(cfg, 1_000.0).is_ok());
    }

    #[test]
    fn cumulative_retains_the_consumed_span_at_unit_weight() {
        let fs = 4_000.0;
        let x = noise(3_000, 9);
        let cfg = WelchConfig::new(256).unwrap();
        let mut acc = WelchAccumulator::cumulative(cfg.clone(), fs).unwrap();
        assert_eq!(acc.lambda(), 1.0);
        assert_eq!(acc.retained_range(), None);
        assert_eq!(acc.effective_segments(), 0.0);
        acc.push(&x).unwrap();
        let seen = cfg.segment_count(x.len());
        assert_eq!(acc.segments_seen(), seen);
        assert_eq!(acc.segments_retained(), seen);
        assert_eq!(acc.effective_segments(), seen as f64);
        let (start, end) = acc.retained_range().unwrap();
        assert_eq!((start, end), (0, (seen - 1) * 128 + 256));
        assert_eq!(
            acc.finalize().unwrap(),
            cfg.estimate(&x[start..end], fs).unwrap()
        );
    }

    #[test]
    fn matches_batch_bitwise_for_many_chunkings() {
        let fs = 20_000.0;
        let x = noise(10_240, 7);
        for nfft in [512usize, 500] {
            for detrend in [false, true] {
                let cfg = WelchConfig::new(nfft)
                    .unwrap()
                    .window(Window::Hann)
                    .detrend(detrend);
                let batch = cfg.estimate(&x, fs).unwrap();
                for chunk in [1usize, 63, nfft / 2, nfft, nfft + 1, 3 * nfft, x.len()] {
                    let mut sw = WelchAccumulator::cumulative(cfg.clone(), fs).unwrap();
                    for c in x.chunks(chunk) {
                        sw.push(c).unwrap();
                    }
                    assert_eq!(sw.samples_pushed(), x.len());
                    assert_eq!(sw.segments_seen(), cfg.segment_count(x.len()));
                    let streamed = sw.finalize().unwrap();
                    assert_eq!(
                        streamed, batch,
                        "nfft {nfft} detrend {detrend} chunk {chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlap_and_rectangular_window_also_match() {
        let fs = 8_000.0;
        let x = noise(6_000, 3);
        let cfg = WelchConfig::new(256)
            .unwrap()
            .window(Window::Rectangular)
            .overlap(0.75)
            .unwrap();
        let batch = cfg.estimate(&x, fs).unwrap();
        let mut sw = WelchAccumulator::cumulative(cfg, fs).unwrap();
        for c in x.chunks(97) {
            sw.push(c).unwrap();
        }
        assert_eq!(sw.finalize().unwrap(), batch);
    }

    #[test]
    fn finalize_is_nondestructive_and_progressive() {
        let fs = 1_000.0;
        let x = noise(4_096, 11);
        let cfg = WelchConfig::new(256).unwrap();
        let mut sw = WelchAccumulator::cumulative(cfg.clone(), fs).unwrap();
        sw.push(&x[..2_048]).unwrap();
        let mid = sw.finalize().unwrap();
        assert_eq!(mid, cfg.estimate(&x[..2_048], fs).unwrap());
        sw.push(&x[2_048..]).unwrap();
        let full = sw.finalize().unwrap();
        assert_eq!(full, cfg.estimate(&x, fs).unwrap());
    }

    #[test]
    fn empty_and_short_inputs_error_like_batch() {
        let cfg = WelchConfig::new(256).unwrap();
        let sw = WelchAccumulator::cumulative(cfg.clone(), 1_000.0).unwrap();
        assert!(sw.finalize().is_err(), "no segment yet");
        let mut sw = WelchAccumulator::cumulative(cfg, 1_000.0).unwrap();
        sw.push(&[]).unwrap();
        sw.push(&noise(255, 1)).unwrap();
        assert_eq!(sw.segments_seen(), 0);
        assert!(sw.finalize().is_err());
        let mut out = vec![0.0; 5];
        assert!(sw.finalize_into(&mut out).is_err(), "wrong output length");
    }

    #[test]
    fn carry_stays_bounded_by_one_segment() {
        let cfg = WelchConfig::new(128).unwrap();
        let mut sw = WelchAccumulator::cumulative(cfg, 1_000.0).unwrap();
        for c in noise(10_000, 5).chunks(1_000) {
            sw.push(c).unwrap();
            assert!(sw.carry.len() < 128, "carry {}", sw.carry.len());
            assert!(sw.carry.capacity() <= 128, "capacity grew");
        }
    }

    #[test]
    fn sliding_matches_batch_over_retained_window_bitwise() {
        let fs = 20_000.0;
        let x = noise(9_000, 17);
        for nfft in [512usize, 500] {
            for window in [1usize, 3, 8] {
                let cfg = WelchConfig::new(nfft).unwrap().window(Window::Hann);
                for chunk in [1usize, 63, nfft / 2, nfft, nfft + 1, x.len()] {
                    let mut sw = SlidingWelch::new(cfg.clone(), fs, window).unwrap();
                    for c in x.chunks(chunk) {
                        sw.push(c).unwrap();
                    }
                    assert_eq!(sw.segments_seen(), cfg.segment_count(x.len()));
                    assert_eq!(
                        sw.segments_retained(),
                        window.min(cfg.segment_count(x.len()))
                    );
                    let (start, end) = sw.retained_range().unwrap();
                    let batch = cfg.estimate(&x[start..end], fs).unwrap();
                    assert_eq!(
                        sw.finalize().unwrap(),
                        batch,
                        "nfft {nfft} window {window} chunk {chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn sliding_window_with_overlap_matches_batch() {
        let fs = 8_000.0;
        let x = noise(6_000, 29);
        let cfg = WelchConfig::new(256)
            .unwrap()
            .window(Window::Rectangular)
            .overlap(0.75)
            .unwrap();
        let mut sw = SlidingWelch::new(cfg.clone(), fs, 5).unwrap();
        for c in x.chunks(97) {
            sw.push(c).unwrap();
        }
        let (start, end) = sw.retained_range().unwrap();
        assert_eq!(
            sw.finalize().unwrap(),
            cfg.estimate(&x[start..end], fs).unwrap()
        );
    }

    #[test]
    fn sliding_validation_and_empty_state() {
        let cfg = WelchConfig::new(128).unwrap();
        assert!(SlidingWelch::new(cfg.clone(), 0.0, 4).is_err());
        assert!(SlidingWelch::new(cfg.clone(), 1_000.0, 0).is_err());
        let sw = SlidingWelch::new(cfg, 1_000.0, 4).unwrap();
        assert!(sw.retained_range().is_none());
        assert!(sw.finalize().is_err());
        assert_eq!(sw.window_segments(), 4);
    }

    #[test]
    fn sliding_reset_reuses_the_ring() {
        let fs = 2_000.0;
        let a = noise(2_048, 31);
        let b = noise(2_048, 32);
        let cfg = WelchConfig::new(512).unwrap();
        let mut sw = SlidingWelch::new(cfg.clone(), fs, 2).unwrap();
        sw.push(&a).unwrap();
        sw.reset();
        assert_eq!(sw.segments_seen(), 0);
        for c in b.chunks(300) {
            sw.push(c).unwrap();
        }
        let (start, end) = sw.retained_range().unwrap();
        assert_eq!(
            sw.finalize().unwrap(),
            cfg.estimate(&b[start..end], fs).unwrap()
        );
    }

    #[test]
    fn forgetting_is_chunk_invariant_bitwise() {
        let fs = 20_000.0;
        let x = noise(9_000, 23);
        for nfft in [512usize, 500] {
            let cfg = WelchConfig::new(nfft).unwrap().window(Window::Hann);
            let mut reference = ForgettingWelch::new(cfg.clone(), fs, 0.7).unwrap();
            reference.push(&x).unwrap();
            let want = reference.finalize().unwrap();
            for chunk in [1usize, 63, nfft / 2, nfft, nfft + 1] {
                let mut fw = ForgettingWelch::new(cfg.clone(), fs, 0.7).unwrap();
                for c in x.chunks(chunk) {
                    fw.push(c).unwrap();
                }
                assert_eq!(fw.segments_seen(), reference.segments_seen());
                assert_eq!(fw.finalize().unwrap(), want, "nfft {nfft} chunk {chunk}");
            }
        }
    }

    #[test]
    fn forgetting_weights_and_effective_depth() {
        let fs = 1_000.0;
        let cfg = WelchConfig::new(128).unwrap();
        let lambda = 0.5f64;
        let mut fw = ForgettingWelch::new(cfg, fs, lambda).unwrap();
        assert_eq!(fw.effective_segments(), 0.0);
        fw.push(&noise(128, 1)).unwrap();
        assert_eq!(fw.segments_seen(), 1);
        assert_eq!(fw.effective_segments(), 1.0);
        // Enough segments to approach the asymptotic depth (1+λ)/(1−λ).
        fw.push(&noise(128 * 64, 2)).unwrap();
        let depth = fw.effective_segments();
        let asymptote = (1.0 + lambda) / (1.0 - lambda);
        assert!(depth > 1.0 && depth <= asymptote + 1e-9, "depth {depth}");
        assert!((depth - asymptote).abs() < 1e-6, "depth {depth}");
    }

    #[test]
    fn forgetting_tracks_a_level_shift_faster_than_cumulative() {
        // Feed quiet noise then 16x louder noise: the forgetting
        // estimator's band power must sit far closer to the loud level
        // than the cumulative average does.
        let fs = 10_000.0;
        let cfg = WelchConfig::new(256).unwrap();
        let quiet = noise(256 * 32, 5);
        let loud: Vec<f64> = noise(256 * 32, 6).iter().map(|v| v * 4.0).collect();
        let mut fw = ForgettingWelch::new(cfg.clone(), fs, 0.5).unwrap();
        let mut cumulative = WelchAccumulator::cumulative(cfg, fs).unwrap();
        for x in [&quiet, &loud] {
            fw.push(x).unwrap();
            cumulative.push(x).unwrap();
        }
        let f = fw.finalize().unwrap().total_power();
        let c = cumulative.finalize().unwrap().total_power();
        let loud_power = 16.0 / 12.0; // uniform(-2,2) variance
        assert!(
            (f - loud_power).abs() < (c - loud_power).abs() / 4.0,
            "forgetting {f} cumulative {c}"
        );
    }

    #[test]
    fn forgetting_validation() {
        let cfg = WelchConfig::new(128).unwrap();
        assert!(ForgettingWelch::new(cfg.clone(), 0.0, 0.5).is_err());
        assert!(ForgettingWelch::new(cfg.clone(), 1_000.0, 0.0).is_err());
        assert!(ForgettingWelch::new(cfg.clone(), 1_000.0, 1.0).is_err());
        assert!(ForgettingWelch::new(cfg.clone(), 1_000.0, 0.99).is_ok());
        assert_eq!(
            ForgettingWelch::new(cfg, 1_000.0, 0.5).unwrap().lambda(),
            0.5
        );
    }

    #[test]
    fn reset_reuses_the_plan_for_a_fresh_record() {
        let fs = 2_000.0;
        let a = noise(2_048, 21);
        let b = noise(2_048, 22);
        let cfg = WelchConfig::new(512).unwrap();
        let mut sw = WelchAccumulator::cumulative(cfg.clone(), fs).unwrap();
        sw.push(&a).unwrap();
        let _ = sw.finalize().unwrap();
        sw.reset();
        assert_eq!(sw.segments_seen(), 0);
        assert_eq!(sw.samples_pushed(), 0);
        for c in b.chunks(300) {
            sw.push(c).unwrap();
        }
        assert_eq!(sw.finalize().unwrap(), cfg.estimate(&b, fs).unwrap());
        assert_eq!(sw.config().segment_len(), 512);
        assert_eq!(sw.sample_rate(), fs);
    }
}
