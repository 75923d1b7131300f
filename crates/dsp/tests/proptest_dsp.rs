//! Property-based tests for the DSP substrate: transform identities,
//! window invariants and spectrum arithmetic that must hold for *any*
//! input, not just the unit-test vectors.

use nfbist_dsp::complex::Complex64;
use nfbist_dsp::correlation::{autocorrelation, autocorrelation_fft, Bias};
use nfbist_dsp::db::{db_to_power_ratio, power_ratio_to_db};
use nfbist_dsp::fft::{dft_naive, ArbitraryFft, Fft, RealFft};
use nfbist_dsp::filter::{BandKind, FirSpec};
use nfbist_dsp::psd::periodogram;
use nfbist_dsp::spectrum::Spectrum;
use nfbist_dsp::stats;
use nfbist_dsp::window::Window;
use proptest::prelude::*;

fn finite_signal(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, 1..max_len)
}

fn pow2_len() -> impl Strategy<Value = usize> {
    (1u32..9).prop_map(|k| 1usize << k)
}

/// Sizes the packed real FFT takes, up to 2⁹: powers of two and even
/// `2^a·5^c` sizes, `N ≡ 2 (mod 4)` ones included.
const REAL_FFT_SIZES: [usize; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 10, 20, 40, 50, 80, 250, 500,
];

/// The Welch segment length of size class `seg_pow` (5 to 8) for each
/// engine: `0` the power of two `2^seg_pow` (radix-2), `1` an even
/// `2^a·5^c` size (mixed-radix; 50 and 250 have an odd half), `2` the
/// odd size `2^seg_pow − 7` (Bluestein).
fn segment_len(engine: usize, seg_pow: u32) -> usize {
    match engine {
        0 => 1 << seg_pow,
        1 => [50, 80, 250, 320][seg_pow as usize - 5],
        _ => (1 << seg_pow) - 7,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_roundtrip_is_identity(signal in finite_signal(256), seed_len in pow2_len()) {
        let n = seed_len;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(signal[i % signal.len()], signal[(i * 7 + 3) % signal.len()]))
            .collect();
        let plan = Fft::new(n).unwrap();
        let back = plan.inverse(&plan.forward(&x).unwrap()).unwrap();
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((*a - *b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn fft_preserves_energy(signal in finite_signal(128)) {
        let n = signal.len().next_power_of_two();
        let mut x = signal.clone();
        x.resize(n, 0.0);
        let spec = Fft::new(n).unwrap().forward_real(&x).unwrap();
        let time: f64 = x.iter().map(|v| v * v).sum();
        let freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time - freq).abs() <= 1e-6 * (1.0 + time));
    }

    #[test]
    fn real_fft_matches_naive_oracle(
        signal in finite_signal(128),
        size in 0..REAL_FFT_SIZES.len(),
    ) {
        let n = REAL_FFT_SIZES[size];
        let x: Vec<f64> = (0..n).map(|i| signal[i % signal.len()]).collect();
        let packed: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
        let oracle = dft_naive(&packed);
        let fast = RealFft::new(n).unwrap().forward(&x).unwrap();
        prop_assert_eq!(fast.len(), n / 2 + 1);
        for (k, (a, b)) in fast.iter().zip(&oracle).enumerate() {
            prop_assert!(
                (*a - *b).abs() < 1e-7 * n as f64 * 1e3,
                "n {} bin {}: {} vs {}", n, k, a, b
            );
        }
    }

    #[test]
    fn real_fft_agrees_with_complex_engine(signal in finite_signal(256), k in 1u32..10) {
        let n = 1usize << k;
        let x: Vec<f64> = (0..n).map(|i| signal[(i * 5 + 1) % signal.len()]).collect();
        let plan = Fft::new(n).unwrap();
        let full = plan.forward_real(&x).unwrap();
        let real_plan = RealFft::new(n).unwrap();
        let half = real_plan.forward(&x).unwrap();
        for (a, b) in half.iter().zip(&full) {
            prop_assert!((*a - *b).abs() < 1e-7 * n as f64 * 1e3);
        }
        // The planned one-sided convenience is the same engine — exact.
        prop_assert_eq!(&plan.forward_real_half(&x).unwrap(), &half);
        // And the zero-allocation entry point is bitwise-identical.
        let mut out = vec![Complex64::new(3.0, -3.0); real_plan.output_len()];
        real_plan.forward_into(&x, &mut out).unwrap();
        prop_assert_eq!(&out, &half);
    }

    #[test]
    fn one_sided_psd_matches_naive_for_any_engine(signal in finite_signal(48), n in 2usize..48) {
        // Exercises the one-sided density path through every FFT
        // engine: powers of two and even `2^a·5^c` sizes (10, 20, 40)
        // take the packed real FFT, other sizes Bluestein's full
        // spectrum.
        let fs = 1_000.0;
        let x: Vec<f64> = (0..n).map(|i| signal[i % signal.len()]).collect();
        let psd = periodogram(&x, fs).unwrap();
        let packed: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
        let oracle = dft_naive(&packed);
        let scale = 1.0 / (fs * n as f64);
        for (k, d) in psd.density().iter().enumerate() {
            let mut expect = oracle[k].norm_sqr() * scale;
            if k != 0 && !(n % 2 == 0 && k == n / 2) {
                expect *= 2.0;
            }
            prop_assert!(
                (d - expect).abs() <= 1e-6 * (1.0 + expect),
                "n {} bin {}: {} vs {}", n, k, d, expect
            );
        }
    }

    #[test]
    fn bluestein_matches_naive(len in 2usize..40, phase in 0.0f64..6.25) {
        let x: Vec<Complex64> = (0..len)
            .map(|i| Complex64::cis(phase * i as f64) * (1.0 + i as f64 * 0.1))
            .collect();
        let fast = ArbitraryFft::new(len).unwrap().forward(&x).unwrap();
        let slow = dft_naive(&x);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-6 * len as f64);
        }
    }

    #[test]
    fn parseval_for_periodogram(signal in finite_signal(200)) {
        let psd = periodogram(&signal, 1_000.0).unwrap();
        let ms = stats::mean_square(&signal).unwrap();
        prop_assert!((psd.total_power() - ms).abs() <= 1e-6 * (1.0 + ms));
    }

    #[test]
    fn windows_are_bounded_and_symmetric(n in 4usize..512) {
        for w in [Window::Hann, Window::Hamming, Window::Blackman, Window::FlatTop] {
            let c = w.coefficients(n);
            prop_assert_eq!(c.len(), n);
            for i in 1..n {
                prop_assert!((c[i] - c[n - i]).abs() < 1e-9);
            }
            // Cosine-sum windows stay within [-0.1, 1.1] (flat-top dips
            // slightly negative by design).
            prop_assert!(c.iter().all(|v| (-0.2..=1.2).contains(v)));
        }
    }

    #[test]
    fn enbw_is_at_least_one(n in 8usize..1024) {
        for w in [Window::Rectangular, Window::Hann, Window::Hamming, Window::Kaiser(6.0)] {
            prop_assert!(w.enbw_bins(n) >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn db_roundtrip(ratio in 1e-6f64..1e6) {
        let back = db_to_power_ratio(power_ratio_to_db(ratio));
        prop_assert!((back - ratio).abs() / ratio < 1e-9);
    }

    #[test]
    fn autocorrelation_peak_at_zero_lag(signal in finite_signal(200)) {
        let max_lag = (signal.len() - 1).min(20);
        let r = autocorrelation(&signal, max_lag, Bias::Biased).unwrap();
        for v in &r[1..] {
            prop_assert!(v.abs() <= r[0] + 1e-9);
        }
    }

    #[test]
    fn fft_autocorrelation_matches_direct(signal in finite_signal(150)) {
        let max_lag = (signal.len() - 1).min(16);
        let direct = autocorrelation(&signal, max_lag, Bias::Biased).unwrap();
        let fast = autocorrelation_fft(&signal, max_lag).unwrap();
        for (a, b) in direct.iter().zip(&fast) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn spectrum_band_power_is_monotone_in_band(
        density in prop::collection::vec(0.0f64..10.0, 9),
        hi_bin in 1usize..8,
    ) {
        let s = Spectrum::new(density, 1_600.0, 16).unwrap();
        let f_hi = s.bin_frequency(hi_bin);
        let narrow = s.band_power(0.0, f_hi).unwrap();
        let wide = s.band_power(0.0, s.nyquist()).unwrap();
        prop_assert!(narrow <= wide + 1e-12);
    }

    #[test]
    fn spectrum_exclusion_never_increases_power(
        density in prop::collection::vec(0.0f64..10.0, 9),
        excluded in prop::collection::vec(0usize..9, 0..5),
    ) {
        let s = Spectrum::new(density, 1_600.0, 16).unwrap();
        let all = s.band_power(0.0, s.nyquist()).unwrap();
        let some = s.band_power_excluding(0.0, s.nyquist(), &excluded).unwrap();
        prop_assert!(some <= all + 1e-12);
    }

    #[test]
    fn fir_filter_is_linear(
        a in finite_signal(64),
        k in -5.0f64..5.0,
    ) {
        let fir = FirSpec::new(BandKind::LowPass { cutoff: 100.0 }, 21)
            .unwrap()
            .design(1_000.0)
            .unwrap();
        let scaled_in: Vec<f64> = a.iter().map(|v| v * k).collect();
        let y1: Vec<f64> = fir.filter(&a).iter().map(|v| v * k).collect();
        let y2 = fir.filter(&scaled_in);
        for (p, q) in y1.iter().zip(&y2) {
            prop_assert!((p - q).abs() < 1e-6 * (1.0 + p.abs()));
        }
    }

    #[test]
    fn stats_variance_is_shift_invariant(signal in finite_signal(100), shift in -100.0f64..100.0) {
        let shifted: Vec<f64> = signal.iter().map(|v| v + shift).collect();
        let v1 = stats::variance(&signal).unwrap();
        let v2 = stats::variance(&shifted).unwrap();
        prop_assert!((v1 - v2).abs() < 1e-6 * (1.0 + v1.abs()));
    }

    #[test]
    fn mean_square_scales_quadratically(signal in finite_signal(100), k in 0.1f64..10.0) {
        let scaled: Vec<f64> = signal.iter().map(|v| v * k).collect();
        let p1 = stats::mean_square(&signal).unwrap();
        let p2 = stats::mean_square(&scaled).unwrap();
        prop_assert!((p2 - k * k * p1).abs() <= 1e-9 * (1.0 + p2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The chunked Welch accumulator must agree with the batch
    /// estimator to the last bit, for chunk sizes smaller than, equal
    /// to, and non-divisors of the segment length (and across the
    /// radix-2, mixed-radix and Bluestein engines, windows, and
    /// detrending).
    #[test]
    fn streaming_welch_is_bitwise_equal_to_batch(
        signal in finite_signal(96),
        seg_pow in 5u32..9,
        engine in 0usize..3,
        detrend in any::<bool>(),
        chunk_class in 0usize..3,
        jitter in 1usize..31,
    ) {
        use nfbist_dsp::psd::{StreamingWelch, WelchConfig};

        let nfft = segment_len(engine, seg_pow);
        let total = nfft * 5 + jitter; // several segments + ragged tail
        let x: Vec<f64> = (0..total).map(|i| signal[i % signal.len()]).collect();
        let chunk = match chunk_class {
            0 => jitter,                       // smaller than a segment
            1 => nfft,                         // exactly one segment
            _ => nfft + jitter,                // non-divisor straddler
        };

        let cfg = WelchConfig::new(nfft).unwrap().detrend(detrend);
        let batch = cfg.estimate(&x, 10_000.0).unwrap();
        let mut sw = StreamingWelch::new(cfg, 10_000.0).unwrap();
        for c in x.chunks(chunk) {
            sw.push(c).unwrap();
        }
        let streamed = sw.finalize().unwrap();
        prop_assert_eq!(streamed.len(), batch.len());
        for (s, b) in streamed.density().iter().zip(batch.density()) {
            prop_assert_eq!(s.to_bits(), b.to_bits());
        }
    }

    /// The sliding-window estimator's contract: at any point in the
    /// stream, its estimate equals a batch Welch run over **exactly the
    /// retained samples** to the last bit — for partially filled and
    /// wrapped windows, every chunking (smaller than, equal to, and a
    /// non-divisor of the segment), all three FFT engines, and every
    /// overlap class.
    #[test]
    fn sliding_welch_is_bitwise_batch_over_retained_samples(
        signal in finite_signal(96),
        seg_pow in 5u32..9,
        engine in 0usize..3,
        overlap_class in 0usize..4,
        window_segments in 1usize..6,
        total_mult in 1usize..6,
        chunk_class in 0usize..3,
        jitter in 1usize..31,
    ) {
        use nfbist_dsp::psd::{SlidingWelch, WelchConfig};

        let nfft = segment_len(engine, seg_pow);
        // Enough for 1..=5 whole segments plus a ragged tail, so the
        // window is exercised both before it fills and after it wraps.
        let total = nfft * total_mult + jitter;
        let x: Vec<f64> = (0..total).map(|i| signal[i % signal.len()]).collect();
        let chunk = match chunk_class {
            0 => jitter,        // smaller than a segment
            1 => nfft,          // exactly one segment
            _ => nfft + jitter, // non-divisor straddler
        };
        let overlap = [0.0, 0.25, 0.5, 0.75][overlap_class];

        let cfg = WelchConfig::new(nfft).unwrap().overlap(overlap).unwrap();
        let mut sw = SlidingWelch::new(cfg.clone(), 10_000.0, window_segments).unwrap();
        for c in x.chunks(chunk) {
            sw.push(c).unwrap();
        }
        prop_assert!(sw.segments_seen() >= 1);
        prop_assert_eq!(
            sw.segments_retained(),
            sw.segments_seen().min(window_segments)
        );
        let (start, end) = sw.retained_range().unwrap();
        prop_assert!(end <= total);
        let batch = cfg.estimate(&x[start..end], 10_000.0).unwrap();
        let windowed = sw.finalize().unwrap();
        prop_assert_eq!(windowed.len(), batch.len());
        for (w, b) in windowed.density().iter().zip(batch.density()) {
            prop_assert_eq!(w.to_bits(), b.to_bits());
        }
    }

    /// The forgetting estimator is a pure function of the pushed
    /// samples — chunking is invisible to the last bit — its first
    /// segment reproduces the batch estimate exactly (weight 1), and
    /// its effective depth stays within `[1, (1+λ)/(1-λ)]`.
    #[test]
    fn forgetting_welch_is_chunk_invariant_and_starts_at_batch(
        signal in finite_signal(96),
        seg_pow in 5u32..9,
        engine in 0usize..3,
        lambda in 0.05f64..0.95,
        total_mult in 1usize..6,
        chunk_class in 0usize..3,
        jitter in 1usize..31,
    ) {
        use nfbist_dsp::psd::{ForgettingWelch, WelchConfig};

        let nfft = segment_len(engine, seg_pow);
        let total = nfft * total_mult + jitter;
        let x: Vec<f64> = (0..total).map(|i| signal[i % signal.len()]).collect();
        let chunk = match chunk_class {
            0 => jitter,
            1 => nfft,
            _ => nfft + jitter,
        };

        let cfg = WelchConfig::new(nfft).unwrap();
        let mut chunked = ForgettingWelch::new(cfg.clone(), 10_000.0, lambda).unwrap();
        for c in x.chunks(chunk) {
            chunked.push(c).unwrap();
        }
        let mut whole = ForgettingWelch::new(cfg.clone(), 10_000.0, lambda).unwrap();
        whole.push(&x).unwrap();
        let a = chunked.finalize().unwrap();
        let b = whole.finalize().unwrap();
        for (p, q) in a.density().iter().zip(b.density()) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }

        // Effective depth: one equally weighted segment at the start,
        // saturating at the geometric-series limit.
        let limit = (1.0 + lambda) / (1.0 - lambda);
        prop_assert!(chunked.effective_segments() >= 1.0 - 1e-12);
        prop_assert!(chunked.effective_segments() <= limit + 1e-9);

        // With exactly one completed segment the decayed fold
        // degenerates to the plain batch estimate, bit for bit.
        let mut first = ForgettingWelch::new(cfg.clone(), 10_000.0, lambda).unwrap();
        first.push(&x[..nfft]).unwrap();
        prop_assert_eq!(first.segments_seen(), 1);
        let single = first.finalize().unwrap();
        let batch = cfg.estimate(&x[..nfft], 10_000.0).unwrap();
        for (s, r) in single.density().iter().zip(batch.density()) {
            prop_assert_eq!(s.to_bits(), r.to_bits());
        }
    }
}
