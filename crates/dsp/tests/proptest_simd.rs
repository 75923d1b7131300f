//! Property-based cross-arm contracts for the runtime-dispatched SIMD
//! kernels (`nfbist_dsp::simd`).
//!
//! Two classes of guarantee, exercised over every arm the host CPU
//! offers (`available_arms()` always ends in `Scalar`, so on any
//! machine at least the scalar arm runs and on AVX2/NEON hosts every
//! assertion really compares vector output against scalar output):
//!
//! * **Integer/bit kernels** (popcount, XOR-lag, ±1 expansion) are
//!   bit-identical on every arm for *any* input — including
//!   non-word-aligned lengths, odd lags and lags far past the end.
//! * **Float kernels** are bit-identical across arms as used by the
//!   estimators under the default [`SimdPolicy::Exact`]; only the
//!   `Relaxed` sum is allowed to differ, and then only within a small
//!   relative envelope of the exactly-rounded reference.
//!
//! On top of the raw kernels, whole estimators (Welch, the real FFT)
//! are run with the dispatch forced to each arm and must agree
//! bit-for-bit — the end-to-end form of the determinism contract that
//! `fleet_determinism` relies on.

use nfbist_dsp::complex::Complex64;
use nfbist_dsp::fft::RealFft;
use nfbist_dsp::psd::WelchConfig;
use nfbist_dsp::simd::{self, SimdPolicy};
use nfbist_dsp::window::Window;
use proptest::prelude::*;

fn finite_signal(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, 1..max_len)
}

fn words(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..max_len)
}

/// Exact 2-sum reference for the relaxed-sum envelope: Kahan
/// compensated summation, good to ~1 ulp of the true sum.
fn kahan_sum(x: &[f64]) -> f64 {
    let (mut s, mut c) = (0.0f64, 0.0f64);
    for &v in x {
        let y = v - c;
        let t = s + y;
        c = (t - s) - y;
        s = t;
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn popcount_is_bit_identical_across_arms(w in words(70)) {
        let reference: u64 = w.iter().map(|v| v.count_ones() as u64).sum();
        for &arm in simd::available_arms() {
            prop_assert_eq!(simd::popcount_words_with(arm, &w), reference);
        }
    }

    #[test]
    fn xor_lag_is_bit_identical_across_arms(
        w in words(40),
        // Deliberately ragged: len_bits anywhere inside (or at) the
        // packed capacity, lags word-aligned, odd, and out of range.
        len_off in 0usize..64,
        lag in 0usize..2_700,
    ) {
        let len_bits = (w.len() * 64).saturating_sub(len_off);
        // Mask stray bits past len_bits so the reference below can walk
        // bits naively.
        let mut w = w;
        if len_bits % 64 != 0 {
            if let Some(last) = w.last_mut() {
                *last &= (1u64 << (len_bits % 64)) - 1;
            }
        }
        let bit = |i: usize| w[i / 64] >> (i % 64) & 1;
        let reference: usize = if lag >= len_bits {
            0
        } else {
            (0..len_bits - lag).filter(|&i| bit(i) != bit(i + lag)).count()
        };
        for &arm in simd::available_arms() {
            prop_assert_eq!(simd::xor_popcount_lag_with(arm, &w, len_bits, lag), reference);
        }
    }

    #[test]
    fn expand_bipolar_is_bit_identical_across_arms(
        w in words(20),
        tail in 0usize..64,
    ) {
        // Non-word-multiple output lengths exercise the ragged tail.
        let len = (w.len() * 64).saturating_sub(tail);
        let mut reference = vec![0.0f64; len];
        for (i, r) in reference.iter_mut().enumerate() {
            *r = if w[i / 64] >> (i % 64) & 1 == 1 { 1.0 } else { -1.0 };
        }
        for &arm in simd::available_arms() {
            let mut out = vec![f64::NAN; len];
            simd::expand_bipolar_with(arm, &w, &mut out);
            for (a, b) in out.iter().zip(&reference) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn window_and_detrend_kernels_are_bit_identical_across_arms(
        seg in finite_signal(257),
        mu in -1e3f64..1e3,
    ) {
        let coeffs: Vec<f64> = (0..seg.len()).map(|i| (i as f64 * 0.37).cos()).collect();
        let arms = simd::available_arms();
        let mut outputs = Vec::new();
        for &arm in arms {
            let mut s = seg.clone();
            simd::subtract_scalar_with(arm, &mut s, mu);
            simd::apply_window_with(arm, &mut s, &coeffs);
            outputs.push(s);
        }
        let reference = outputs.last().unwrap(); // scalar is always last
        for o in &outputs {
            for (a, b) in o.iter().zip(reference) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn exact_sum_is_bit_identical_and_relaxed_sum_is_close(x in finite_signal(300)) {
        let reference = simd::sum_with(simd::SimdArm::Scalar, &x, SimdPolicy::Exact);
        let true_sum = kahan_sum(&x);
        let magnitude: f64 = x.iter().map(|v| v.abs()).sum();
        for &arm in simd::available_arms() {
            let exact = simd::sum_with(arm, &x, SimdPolicy::Exact);
            prop_assert_eq!(exact.to_bits(), reference.to_bits());
            // The relaxed reduction reassociates: bound its error by a
            // generous multiple of the condition-scaled epsilon.
            let relaxed = simd::sum_with(arm, &x, SimdPolicy::Relaxed);
            let bound = 1e-12 * magnitude.max(1.0);
            prop_assert!(
                (relaxed - true_sum).abs() <= bound,
                "{}: relaxed {} vs {} (bound {})", arm, relaxed, true_sum, bound
            );
        }
    }

    #[test]
    fn density_accumulate_is_bit_identical_across_arms(
        re in finite_signal(130),
        nfft_is_even in any::<bool>(),
    ) {
        let half = re.len();
        let nfft = if nfft_is_even { (half - 1) * 2 } else { half * 2 - 1 }.max(1);
        let spec: Vec<Complex64> = re
            .iter()
            .enumerate()
            .map(|(i, &r)| Complex64::new(r, r * 0.5 - i as f64))
            .collect();
        let mut reference = vec![0.1f64; half];
        simd::accumulate_one_sided_with(simd::SimdArm::Scalar, &spec, nfft, 1.25e-4, &mut reference);
        for &arm in simd::available_arms() {
            let mut acc = vec![0.1f64; half];
            simd::accumulate_one_sided_with(arm, &spec, nfft, 1.25e-4, &mut acc);
            for (a, b) in acc.iter().zip(&reference) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn butterfly_pairs_are_bit_identical_across_arms(
        re in finite_signal(97),
        conjugate in any::<bool>(),
    ) {
        let n = re.len();
        let lo: Vec<Complex64> = re.iter().map(|&r| Complex64::new(r, 1.0 - r)).collect();
        let hi: Vec<Complex64> = re.iter().map(|&r| Complex64::new(0.5 * r, r + 2.0)).collect();
        let tw: Vec<Complex64> = (0..n)
            .map(|i| {
                let th = i as f64 * 0.13;
                Complex64::new(th.cos(), -th.sin())
            })
            .collect();
        let (mut rlo, mut rhi) = (lo.clone(), hi.clone());
        simd::butterfly_pairs_with(simd::SimdArm::Scalar, &mut rlo, &mut rhi, &tw, conjugate);
        for &arm in simd::available_arms() {
            let (mut alo, mut ahi) = (lo.clone(), hi.clone());
            simd::butterfly_pairs_with(arm, &mut alo, &mut ahi, &tw, conjugate);
            for (a, b) in alo.iter().zip(&rlo).chain(ahi.iter().zip(&rhi)) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn goertzel_kernels_are_bit_identical_across_arms(
        x in finite_signal(200),
        lanes in 1usize..9,
    ) {
        // Bank form: one chain per bin, shared input samples.
        let coeffs: Vec<f64> = (0..lanes).map(|l| 1.9 - 0.1 * l as f64).collect();
        let mut ref_s1 = vec![0.0; lanes];
        let mut ref_s2 = vec![0.0; lanes];
        simd::goertzel_bank_run_with(
            simd::SimdArm::Scalar, &x, &coeffs, &mut ref_s1, &mut ref_s2,
        );
        for &arm in simd::available_arms() {
            let mut s1 = vec![0.0; lanes];
            let mut s2 = vec![0.0; lanes];
            simd::goertzel_bank_run_with(arm, &x, &coeffs, &mut s1, &mut s2);
            for (a, b) in s1.iter().zip(&ref_s1).chain(s2.iter().zip(&ref_s2)) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // SoA form: one chain per lane, sample-major interleaved data.
        let samples = x.len() / lanes;
        prop_assume!(samples > 0);
        let data = &x[..samples * lanes];
        let mut ref_s1 = vec![0.0; lanes];
        let mut ref_s2 = vec![0.0; lanes];
        simd::goertzel_soa_run_with(
            simd::SimdArm::Scalar, data, lanes, 1.7, &mut ref_s1, &mut ref_s2,
        );
        for &arm in simd::available_arms() {
            let mut s1 = vec![0.0; lanes];
            let mut s2 = vec![0.0; lanes];
            simd::goertzel_soa_run_with(arm, data, lanes, 1.7, &mut s1, &mut s2);
            for (a, b) in s1.iter().zip(&ref_s1).chain(s2.iter().zip(&ref_s2)) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn welch_estimate_is_bit_identical_across_forced_arms(
        x in prop::collection::vec(-10.0f64..10.0, 300..1200),
        detrend in any::<bool>(),
        mixed_radix in any::<bool>(),
    ) {
        // 250 = 2·5³ runs the mixed-radix real FFT, 128 the radix-2 one.
        let nfft = if mixed_radix { 250 } else { 128 };
        let cfg = WelchConfig::new(nfft).unwrap().window(Window::Hann).detrend(detrend);
        let mut spectra = Vec::new();
        for &arm in simd::available_arms() {
            let psd = simd::with_forced_arm(arm, || cfg.estimate(&x, 1_000.0).unwrap());
            spectra.push(psd);
        }
        let reference = spectra.last().unwrap(); // scalar arm
        for s in &spectra {
            for (a, b) in s.density().iter().zip(reference.density()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn real_fft_is_bit_identical_across_forced_arms(
        re in finite_signal(256),
        k in 3u32..9,
    ) {
        let n = 1usize << k;
        let x: Vec<f64> = (0..n).map(|i| re[i % re.len()]).collect();
        let plan = RealFft::new(n).unwrap();
        let mut spectra = Vec::new();
        for &arm in simd::available_arms() {
            spectra.push(simd::with_forced_arm(arm, || plan.forward(&x).unwrap()));
        }
        let reference = spectra.last().unwrap();
        for s in &spectra {
            for (a, b) in s.iter().zip(reference) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn soa_scaling_is_bit_identical_across_arms_and_lane_counts(
        x in finite_signal(300),
        lanes in 1usize..11,
    ) {
        let samples = x.len() / lanes;
        prop_assume!(samples > 0);
        let data = &x[..samples * lanes];
        let coeffs: Vec<f64> = (0..samples).map(|i| 0.25 + (i as f64 * 0.61).sin()).collect();
        // Sample-major layout: element i·lanes + l scales by coeffs[i].
        let expect: Vec<f64> = data
            .iter()
            .enumerate()
            .map(|(j, v)| v * coeffs[j / lanes])
            .collect();
        for &arm in simd::available_arms() {
            let mut out = data.to_vec();
            simd::scale_by_sample_with(arm, &mut out, lanes, &coeffs);
            for (a, b) in out.iter().zip(&expect) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
