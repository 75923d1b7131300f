//! Property-based tests for the DSP substrate: transform identities,
//! window invariants and spectrum arithmetic that must hold for *any*
//! input, not just the unit-test vectors.

use nfbist_dsp::complex::Complex64;
use nfbist_dsp::correlation::{autocorrelation, autocorrelation_fft, Bias};
use nfbist_dsp::db::{db_to_power_ratio, power_ratio_to_db};
use nfbist_dsp::fft::{dft_naive, ArbitraryFft, Fft, RealFft};
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
    /// radix-2, mixed-radix and Bluestein engines, every overlap class,
    /// windows, and detrending).
    #[test]
    fn streaming_welch_is_bitwise_equal_to_batch(
        signal in finite_signal(96),
        seg_pow in 5u32..9,
        engine in 0usize..3,
        overlap_class in 0usize..4,
        detrend in any::<bool>(),
        chunk_class in 0usize..3,
        jitter in 1usize..31,
    ) {
        use nfbist_dsp::psd::{WelchAccumulator, WelchConfig};

        let nfft = segment_len(engine, seg_pow);
        let total = nfft * 5 + jitter; // several segments + ragged tail
        let x: Vec<f64> = (0..total).map(|i| signal[i % signal.len()]).collect();
        let chunk = match chunk_class {
            0 => jitter,                       // smaller than a segment
            1 => nfft,                         // exactly one segment
            _ => nfft + jitter,                // non-divisor straddler
        };
        let overlap = [0.0, 0.25, 0.5, 0.75][overlap_class];

        let cfg = WelchConfig::new(nfft)
            .unwrap()
            .overlap(overlap)
            .unwrap()
            .detrend(detrend);
        let batch = cfg.estimate(&x, 10_000.0).unwrap();
        let mut sw = WelchAccumulator::cumulative(cfg, 10_000.0).unwrap();
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

    /// The decayed store against its defining recursion: with `Pᵢ` the
    /// batch estimate of segment `i` alone, `a ← λ·a + Pᵢ`,
    /// `w ← λ·w + 1` and the estimate `a·(1/w)`, bit for bit — for the
    /// forgetting estimator and for the cumulative accumulator as
    /// λ = 1, on all three FFT engines, every overlap class and every
    /// chunking.
    #[test]
    fn decayed_welch_is_bitwise_the_recursion_over_single_segment_estimates(
        signal in finite_signal(96),
        seg_pow in 5u32..9,
        engine in 0usize..3,
        overlap_class in 0usize..4,
        forgetting in 0.05f64..0.95,
        cumulative in any::<bool>(),
        total_mult in 1usize..6,
        chunk_class in 0usize..3,
        jitter in 1usize..31,
    ) {
        use nfbist_dsp::psd::{ForgettingWelch, WelchAccumulator, WelchConfig};

        let fs = 10_000.0;
        let nfft = segment_len(engine, seg_pow);
        let total = nfft * total_mult + jitter;
        let x = cycled(&signal, total);
        let chunk = match chunk_class {
            0 => jitter,
            1 => nfft,
            _ => nfft + jitter,
        };
        let overlap = [0.0, 0.25, 0.5, 0.75][overlap_class];
        let cfg = WelchConfig::new(nfft).unwrap().overlap(overlap).unwrap();
        let (mut acc, lambda) = if cumulative {
            (WelchAccumulator::cumulative(cfg.clone(), fs).unwrap(), 1.0)
        } else {
            (ForgettingWelch::new(cfg.clone(), fs, forgetting).unwrap(), forgetting)
        };
        for c in x.chunks(chunk) {
            acc.push(c).unwrap();
        }

        let hop = (((1.0 - overlap) * nfft as f64).round() as usize).max(1);
        let seen = cfg.segment_count(total);
        prop_assert_eq!(acc.segments_seen(), seen);
        let mut a = vec![0.0f64; nfft / 2 + 1];
        let mut w = 0.0f64;
        for i in 0..seen {
            let p = cfg.estimate(&x[i * hop..i * hop + nfft], fs).unwrap();
            for (ak, pk) in a.iter_mut().zip(p.density()) {
                *ak = lambda * *ak + pk;
            }
            w = lambda * w + 1.0;
        }
        let inv = 1.0 / w;
        let got = acc.finalize().unwrap();
        prop_assert_eq!(got.len(), a.len());
        for (g, ak) in got.density().iter().zip(&a) {
            prop_assert_eq!(g.to_bits(), (ak * inv).to_bits());
        }
    }
}

/// `signal` resampled to exactly `n` points (cycling the draw).
fn cycled(signal: &[f64], n: usize) -> Vec<f64> {
    (0..n).map(|i| signal[i % signal.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn goertzel_matches_the_naive_dft_at_integer_bins(
        signal in finite_signal(96),
        n in 8usize..96,
        bin in 0usize..48,
    ) {
        let fs = 1_000.0;
        let x = cycled(&signal, n);
        // Goertzel plans strictly between DC and Nyquist.
        let k = 1 + bin % (n / 2 - 1);
        let goertzel = nfbist_dsp::goertzel::Goertzel::new(k as f64 * fs / n as f64, fs).unwrap();
        let packed: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
        let oracle = dft_naive(&packed)[k].norm_sqr();
        let energy: f64 = x.iter().map(|v| v * v).sum();
        let fast = goertzel.magnitude_sq(&x).unwrap();
        prop_assert!(
            (fast - oracle).abs() <= 1e-9 * n as f64 * (1.0 + energy),
            "n {} bin {}: {} vs {}", n, k, fast, oracle
        );
        // The streaming form is the same recurrence.
        prop_assert_eq!(goertzel.magnitude_sq_iter(x.iter().copied()).unwrap(), fast);
        // Amplitude and power are the documented rescalings.
        let amplitude = goertzel.amplitude(&x).unwrap();
        prop_assert_eq!(amplitude, 2.0 * fast.sqrt() / n as f64);
        prop_assert_eq!(goertzel.power(&x).unwrap(), amplitude * amplitude / 2.0);
    }

    #[test]
    fn goertzel_bank_and_soa_lanes_match_single_bins(
        signal in finite_signal(200),
        n in 16usize..200,
        lanes in 1usize..6,
    ) {
        let fs = 8_000.0;
        let freqs = [250.0, 1_000.0, 1_750.0];
        let records: Vec<Vec<f64>> = (0..lanes)
            .map(|l| (0..n).map(|i| signal[(i * (l + 1) + l) % signal.len()]).collect())
            .collect();
        let bank = nfbist_dsp::goertzel::GoertzelBank::new(&freqs, fs).unwrap();
        prop_assert_eq!(bank.len(), 3);
        let views: Vec<&[f64]> = records.iter().map(Vec::as_slice).collect();
        let batch = nfbist_dsp::soa::SoaRecords::from_records(&views);
        for (b, single) in bank.bins().iter().enumerate() {
            let expect = single.magnitude_sq(&records[0]).unwrap();
            let tol = 1e-9 * (1.0 + expect);
            prop_assert!((bank.magnitudes_sq(&records[0]).unwrap()[b] - expect).abs() <= tol);
            let per_lane = single.magnitude_sq_soa(&batch).unwrap();
            prop_assert_eq!(per_lane.len(), lanes);
            for (l, record) in records.iter().enumerate() {
                let lone = single.magnitude_sq(record).unwrap();
                prop_assert!((per_lane[l] - lone).abs() <= 1e-9 * (1.0 + lone));
            }
        }
    }

    #[test]
    fn cross_correlation_with_itself_is_the_autocorrelation(
        signal in finite_signal(120),
        lag_frac in 0.0f64..1.0,
    ) {
        let max_lag = ((signal.len() - 1) as f64 * lag_frac) as usize;
        for bias in [Bias::Biased, Bias::Unbiased] {
            let cross = nfbist_dsp::correlation::cross_correlation(&signal, &signal, max_lag, bias)
                .unwrap();
            prop_assert_eq!(cross, autocorrelation(&signal, max_lag, bias).unwrap());
        }
        // The two normalizations differ only by the lag's divisor.
        let biased = autocorrelation(&signal, max_lag, Bias::Biased).unwrap();
        let unbiased = autocorrelation(&signal, max_lag, Bias::Unbiased).unwrap();
        let n = signal.len() as f64;
        for (k, (b, u)) in biased.iter().zip(&unbiased).enumerate() {
            let scale = 1.0 + b.abs() * n;
            prop_assert!((b * n - u * (n - k as f64)).abs() <= 1e-9 * scale);
        }
    }

    #[test]
    fn normalized_autocorrelation_is_bounded_by_its_zero_lag(signal in finite_signal(150)) {
        prop_assume!(signal.iter().any(|&v| v != 0.0));
        let max_lag = (signal.len() - 1).min(20);
        let rho = nfbist_dsp::correlation::normalized_autocorrelation(&signal, max_lag).unwrap();
        prop_assert_eq!(rho.len(), max_lag + 1);
        prop_assert!((rho[0] - 1.0).abs() < 1e-12);
        for r in &rho {
            prop_assert!(r.abs() <= 1.0 + 1e-9, "rho {}", r);
        }
    }

    #[test]
    fn in_place_transforms_equal_the_allocating_ones(signal in finite_signal(64), k in 0u32..8) {
        let n = 1usize << k;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(signal[i % signal.len()], signal[(3 * i + 1) % signal.len()]))
            .collect();
        let plan = Fft::new(n).unwrap();
        let mut buf = x.clone();
        plan.forward_in_place(&mut buf).unwrap();
        prop_assert_eq!(&buf, &plan.forward(&x).unwrap());
        let mut back = buf.clone();
        plan.inverse_in_place(&mut back).unwrap();
        prop_assert_eq!(&back, &plan.inverse(&buf).unwrap());
        // A wrong-sized buffer is refused rather than partially transformed.
        let mut short = vec![Complex64::new(1.0, 0.0); n + 1];
        prop_assert!(plan.forward_in_place(&mut short).is_err());
        prop_assert!(short.iter().all(|z| *z == Complex64::new(1.0, 0.0)));
    }

    #[test]
    fn welch_segment_count_enumerates_the_segment_starts(
        segment in 1usize..300,
        len in 0usize..2_000,
        overlap in 0.0f64..0.95,
    ) {
        let cfg = nfbist_dsp::psd::WelchConfig::new(segment).unwrap().overlap(overlap).unwrap();
        let hop = (((1.0 - overlap) * segment as f64).round() as usize).max(1);
        let starts = (0..).map(|s| s * hop).take_while(|s| s + segment <= len).count();
        prop_assert_eq!(cfg.segment_count(len), starts);
    }

    #[test]
    fn moments_transform_with_sign_and_scale(signal in finite_signal(120), k in 0.1f64..10.0) {
        prop_assume!(stats::variance(&signal).unwrap() > 1e-6);
        let skew = stats::skewness(&signal).unwrap();
        let kurt = stats::excess_kurtosis(&signal).unwrap();
        let negated: Vec<f64> = signal.iter().map(|v| -v).collect();
        let scaled: Vec<f64> = signal.iter().map(|v| k * v + 3.0).collect();
        // Negation flips the skew; an affine map leaves both shape
        // statistics alone.
        prop_assert!((stats::skewness(&negated).unwrap() + skew).abs() < 1e-6 * (1.0 + skew.abs()));
        prop_assert!((stats::skewness(&scaled).unwrap() - skew).abs() < 1e-6 * (1.0 + skew.abs()));
        prop_assert!((stats::excess_kurtosis(&scaled).unwrap() - kurt).abs() < 1e-6 * (1.0 + kurt.abs()));
        // Excess kurtosis is bounded below by -2 for any distribution.
        prop_assert!(kurt >= -2.0 - 1e-9);
    }

    #[test]
    fn extremes_bound_every_sample(signal in finite_signal(200)) {
        let (lo, hi) = stats::min_max(&signal).unwrap();
        let peak = stats::peak(&signal).unwrap();
        prop_assert!(signal.iter().all(|&v| lo <= v && v <= hi));
        prop_assert!(signal.contains(&lo) && signal.contains(&hi));
        prop_assert_eq!(peak, lo.abs().max(hi.abs()));
        // RMS never exceeds the peak, so the crest factor is at least 1.
        prop_assume!(peak > 0.0);
        prop_assert!(stats::rms(&signal).unwrap() <= peak * (1.0 + 1e-12));
        prop_assert!(stats::crest_factor(&signal).unwrap() >= 1.0 - 1e-12);
    }

    #[test]
    fn histogram_accounts_for_every_value(
        values in prop::collection::vec(-20.0f64..20.0, 0..300),
        bins in 1usize..32,
    ) {
        let mut h = stats::Histogram::new(-10.0, 10.0, bins).unwrap();
        h.extend(values.iter().copied());
        prop_assert_eq!(h.counts().len(), bins);
        let inside = values.iter().filter(|v| (-10.0..=10.0).contains(*v)).count() as u64;
        prop_assert_eq!(h.counts().iter().sum::<u64>(), inside);
        prop_assert_eq!(h.total(), inside);
        prop_assert_eq!(h.outliers(), values.len() as u64 - inside);
        // Bin centres walk the range in equal steps.
        let width = 20.0 / bins as f64;
        for i in 0..bins {
            prop_assert!((h.bin_center(i) - (-10.0 + (i as f64 + 0.5) * width)).abs() < 1e-9);
        }
    }

    #[test]
    fn complex_modulus_is_multiplicative_and_division_inverts(
        a in (-1e3f64..1e3, -1e3f64..1e3),
        b in (-1e3f64..1e3, -1e3f64..1e3),
    ) {
        let (a, b) = (Complex64::new(a.0, a.1), Complex64::new(b.0, b.1));
        let scale = 1.0 + a.abs() * b.abs();
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() <= 1e-12 * scale);
        prop_assert!(((a * b.conj()).re - (a.re * b.re + a.im * b.im)).abs() <= 1e-12 * scale);
        prop_assume!(b.abs() > 1e-3);
        let q = (a * b) / b;
        prop_assert!((q - a).abs() <= 1e-9 * (1.0 + a.abs()));
        prop_assert!((b * b.recip() - Complex64::from_real(1.0)).abs() <= 1e-12);
    }

    #[test]
    fn soa_lanes_round_trip_and_scale_like_scalar_windows(
        signal in finite_signal(100),
        lanes in 1usize..9,
        samples in 1usize..40,
    ) {
        let records: Vec<Vec<f64>> = (0..lanes)
            .map(|l| (0..samples).map(|i| signal[(i + 13 * l) % signal.len()]).collect())
            .collect();
        let views: Vec<&[f64]> = records.iter().map(Vec::as_slice).collect();
        let mut batch = nfbist_dsp::soa::SoaRecords::from_records(&views);
        prop_assert_eq!((batch.lanes(), batch.samples()), (lanes, samples));
        for (l, record) in records.iter().enumerate() {
            prop_assert_eq!(&batch.copy_lane(l), record);
        }
        // Raw storage is sample-major.
        prop_assert_eq!(batch.data()[lanes * (samples - 1)], records[0][samples - 1]);
        batch.data_mut()[0] = 42.0;
        prop_assert_eq!(batch.copy_lane(0)[0], 42.0);
        batch.set_lane(0, &records[0]);
        // Per-sample scaling equals scaling each record on its own.
        let coeffs: Vec<f64> = (0..samples).map(|i| 0.5 + i as f64 / 7.0).collect();
        batch.scale_by_sample(&coeffs);
        for (l, record) in records.iter().enumerate() {
            let expect: Vec<f64> = record.iter().zip(&coeffs).map(|(v, c)| v * c).collect();
            prop_assert_eq!(batch.copy_lane(l), expect);
        }
    }
}

/// A spectrum of `bins` one-sided densities drawn from `values`.
fn spectrum_from(values: &[f64], bins: usize) -> Spectrum {
    let density: Vec<f64> = (0..bins).map(|k| values[k % values.len()].abs()).collect();
    Spectrum::new(density, 1_000.0, 2 * (bins - 1)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn band_power_partitions_into_excluded_and_kept_bins(
        values in finite_signal(64),
        bins in 2usize..80,
        centre in 0.0f64..1.0,
        half_width in 0usize..6,
    ) {
        let psd = spectrum_from(&values, bins);
        let nyquist = psd.nyquist();
        let whole = psd.band_power(0.0, nyquist).unwrap();
        let scale = 1e-12 * (1.0 + whole);
        prop_assert!((whole - psd.total_power()).abs() <= scale);
        // Excluding a tone's skirt removes exactly its tone power.
        let f = centre * nyquist;
        let skirt = psd.bins_around(f, half_width).unwrap();
        let k0 = psd.bin_of(f).unwrap();
        let kept = psd.band_power_excluding(0.0, nyquist, &skirt).unwrap();
        let tone = psd.tone_power(k0, half_width).unwrap();
        prop_assert!((kept + tone - whole).abs() <= scale);
        // The skirt is contiguous around the nearest bin and clipped to
        // the spectrum.
        prop_assert!(skirt.contains(&k0));
        prop_assert!(skirt.windows(2).all(|w| w[1] == w[0] + 1));
        prop_assert!(*skirt.last().unwrap() < bins);
    }

    #[test]
    fn scaling_a_spectrum_scales_its_powers_and_keeps_its_peak(
        values in finite_signal(64),
        bins in 2usize..80,
        k in 1e-3f64..1e3,
    ) {
        let psd = spectrum_from(&values, bins);
        let scaled = psd.scaled(k);
        prop_assert!((scaled.total_power() - k * psd.total_power()).abs() <= 1e-12 * (1.0 + k * psd.total_power()));
        prop_assert_eq!(scaled.peak().unwrap().bin, psd.peak().unwrap().bin);
        let mut in_place = psd.clone();
        in_place.scale(k);
        prop_assert_eq!(&in_place, &scaled);
        // The peak dominates every bin of its band.
        let peak = psd.peak().unwrap();
        prop_assert!(psd.density().iter().all(|&d| d <= peak.density));
        prop_assert_eq!(peak.frequency, psd.bin_frequency(peak.bin));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bluestein_inverse_roundtrips_any_size(signal in finite_signal(160), n in 1usize..160) {
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(signal[i % signal.len()], signal[(5 * i + 2) % signal.len()]))
            .collect();
        let plan = ArbitraryFft::new(n).unwrap();
        let back = plan.inverse(&plan.forward(&x).unwrap()).unwrap();
        let peak = x.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((*a - *b).abs() <= 1e-9 * (1.0 + peak), "n {}: {} vs {}", n, a, b);
        }
    }

    #[test]
    fn bluestein_real_paths_agree(signal in finite_signal(160), n in 1usize..160) {
        let x = cycled(&signal, n);
        let plan = ArbitraryFft::new(n).unwrap();
        let packed: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
        let real = plan.forward_real(&x).unwrap();
        prop_assert_eq!(&real, &plan.forward(&packed).unwrap());
        // The zero-allocation path is the same computation.
        let mut scratch = vec![Complex64::new(7.0, 7.0); plan.scratch_len()];
        let mut out = vec![Complex64::new(-7.0, 7.0); n];
        plan.forward_real_into(&x, &mut scratch, &mut out).unwrap();
        prop_assert_eq!(&out, &real);
        // A real input has a conjugate-symmetric spectrum.
        let peak = real.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for k in 1..n {
            prop_assert!((real[k] - real[n - k].conj()).abs() <= 1e-9 * (1.0 + peak));
        }
    }

    #[test]
    fn transforms_are_linear(
        a in finite_signal(128),
        b in finite_signal(128),
        k in -10.0f64..10.0,
        size in 0usize..6,
    ) {
        // A power of two, an even 2^a·5^c size and an odd Bluestein size.
        let n = [64usize, 128, 80, 250, 61, 97][size];
        let x = cycled(&a, n);
        let y = cycled(&b, n);
        let mix: Vec<f64> = x.iter().zip(&y).map(|(u, v)| k * u + v).collect();
        let fx = RealFft::new(n).map(|p| p.forward(&x).unwrap()).unwrap_or_else(|_| {
            ArbitraryFft::new(n).unwrap().forward_real(&x).unwrap()
        });
        let fy = RealFft::new(n).map(|p| p.forward(&y).unwrap()).unwrap_or_else(|_| {
            ArbitraryFft::new(n).unwrap().forward_real(&y).unwrap()
        });
        let fm = RealFft::new(n).map(|p| p.forward(&mix).unwrap()).unwrap_or_else(|_| {
            ArbitraryFft::new(n).unwrap().forward_real(&mix).unwrap()
        });
        let scale = n as f64 * 1e3 * (1.0 + k.abs());
        for ((m, u), v) in fm.iter().zip(&fx).zip(&fy) {
            prop_assert!((*m - (u.scale(k) + *v)).abs() <= 1e-9 * scale);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_single_segment_welch_estimate_is_the_periodogram(
        signal in finite_signal(200),
        n in 8usize..200,
        kind in 0usize..4,
    ) {
        use nfbist_dsp::psd::{PeriodogramConfig, WelchConfig};
        let window = [Window::Rectangular, Window::Hann, Window::Blackman, Window::FlatTop][kind];
        let x = cycled(&signal, n);
        let welch = WelchConfig::new(n).unwrap().window(window).estimate(&x, 1_000.0).unwrap();
        let single = PeriodogramConfig::new().window(window).estimate(&x, 1_000.0).unwrap();
        prop_assert_eq!(welch.len(), single.len());
        let peak = single.density().iter().fold(0.0f64, |m, v| m.max(*v));
        for (w, p) in welch.density().iter().zip(single.density()) {
            prop_assert!((w - p).abs() <= 1e-9 * (1.0 + peak), "{} vs {}", w, p);
        }
    }

    #[test]
    fn windowing_scales_each_sample_by_its_coefficient(n in 2usize..600, kind in 0usize..6) {
        let window = [
            Window::Rectangular,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::FlatTop,
            Window::Kaiser(6.0),
        ][kind];
        let w = window.coefficients(n);
        prop_assert_eq!(w.len(), n);
        let mut x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        window.apply(&mut x, n).unwrap();
        for (i, (v, c)) in x.iter().zip(&w).enumerate() {
            prop_assert_eq!(*v, (1.0 + i as f64) * c);
        }
        // A length mismatch is refused before anything is touched.
        let before = x.clone();
        prop_assert!(window.apply(&mut x, n + 1).is_err());
        prop_assert_eq!(&x, &before);
        // A DC record comes out of the window at its coherent gain, and
        // its power at the power gain.
        let mut dc = vec![1.0; n];
        window.apply(&mut dc, n).unwrap();
        let mean = dc.iter().sum::<f64>() / n as f64;
        prop_assert!((mean - window.coherent_gain(n)).abs() < 1e-12);
        let power: f64 = dc.iter().map(|v| v * v).sum();
        prop_assert!((power - window.power_gain(n)).abs() < 1e-9 * (1.0 + power));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn variance_forms_agree_with_each_other_and_the_mean_square(signal in finite_signal(200)) {
        let n = signal.len() as f64;
        let var = stats::variance(&signal).unwrap();
        let ms = stats::mean_square(&signal).unwrap();
        let mu = stats::mean(&signal).unwrap();
        // König–Huygens: ⟨x²⟩ = σ² + μ².
        prop_assert!((ms - (var + mu * mu)).abs() <= 1e-9 * (1.0 + ms));
        prop_assert!((stats::std_dev(&signal).unwrap() - var.sqrt()).abs() <= 1e-12 * (1.0 + var.sqrt()));
        prop_assert!((stats::rms(&signal).unwrap().powi(2) - ms).abs() <= 1e-9 * (1.0 + ms));
        if signal.len() >= 2 {
            // Bessel's correction rescales the same sum of squares.
            let sample = stats::sample_variance(&signal).unwrap();
            prop_assert!((sample * (n - 1.0) - var * n).abs() <= 1e-9 * (1.0 + var * n));
        } else {
            prop_assert!(stats::sample_variance(&signal).is_err());
        }
    }
}
