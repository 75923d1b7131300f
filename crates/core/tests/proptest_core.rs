//! Property-based tests for the estimation core: the Y-factor algebra,
//! arcsine-law identities and figure conversions must hold over the
//! whole physical parameter space.

use nfbist_core::arcsine;
use nfbist_core::direct;
use nfbist_core::figure::{NoiseFactor, NoiseFigure};
use nfbist_core::uncertainty;
use nfbist_core::yfactor;
use proptest::prelude::*;

/// Strategy over physical noise factors (1 … 1000, i.e. NF 0–30 dB).
fn noise_factor() -> impl Strategy<Value = NoiseFactor> {
    (1.0f64..1000.0).prop_map(|f| NoiseFactor::new(f).unwrap())
}

/// Strategy over hot/cold temperature pairs with a usable ENR.
fn temperature_pair() -> impl Strategy<Value = (f64, f64)> {
    (300.0f64..20_000.0, 10.0f64..290.0).prop_map(|(th, tc)| (th.max(tc * 2.0), tc))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn yfactor_roundtrip_over_physical_space(f in noise_factor(), temps in temperature_pair()) {
        let (th, tc) = temps;
        let y = yfactor::expected_y(f, th, tc).unwrap();
        prop_assert!(y > 1.0);
        let back = yfactor::noise_factor_from_temperatures(y, th, tc).unwrap();
        prop_assert!((back.value() - f.value()).abs() / f.value() < 1e-6);
    }

    #[test]
    fn y_decreases_as_dut_gets_noisier(temps in temperature_pair(), f1 in 1.0f64..100.0, k in 1.01f64..10.0) {
        let (th, tc) = temps;
        let quiet = NoiseFactor::new(f1).unwrap();
        let noisy = NoiseFactor::new(f1 * k).unwrap();
        let y_quiet = yfactor::expected_y(quiet, th, tc).unwrap();
        let y_noisy = yfactor::expected_y(noisy, th, tc).unwrap();
        prop_assert!(y_noisy < y_quiet);
    }

    #[test]
    fn y_is_bounded_by_temperature_ratio(f in noise_factor(), temps in temperature_pair()) {
        let (th, tc) = temps;
        let y = yfactor::expected_y(f, th, tc).unwrap();
        // F = 1 gives the maximum Y = Th/Tc; added noise only compresses it.
        prop_assert!(y <= th / tc + 1e-9);
    }

    #[test]
    fn figure_factor_roundtrip(db in 0.0f64..40.0) {
        let f = NoiseFigure::from_db(db).unwrap().to_factor();
        prop_assert!((f.to_figure().db() - db).abs() < 1e-9);
    }

    #[test]
    fn equivalent_temperature_is_monotone(f1 in 1.0f64..500.0, delta in 0.01f64..500.0) {
        let a = NoiseFactor::new(f1).unwrap();
        let b = NoiseFactor::new(f1 + delta).unwrap();
        prop_assert!(b.equivalent_temperature() > a.equivalent_temperature());
    }

    #[test]
    fn arcsine_roundtrip(rho in -1.0f64..1.0) {
        let out = arcsine::arcsine_law(rho).unwrap();
        prop_assert!(out.abs() <= 1.0 + 1e-12);
        let back = arcsine::arcsine_law_inverse(out).unwrap();
        prop_assert!((back - rho).abs() < 1e-9);
    }

    #[test]
    fn arcsine_is_odd_and_monotone(rho in 0.0f64..1.0) {
        let pos = arcsine::arcsine_law(rho).unwrap();
        let neg = arcsine::arcsine_law(-rho).unwrap();
        prop_assert!((pos + neg).abs() < 1e-12);
        // |arcsine| ≥ linearized value (the law expands correlations).
        prop_assert!(pos >= arcsine::SMALL_SIGNAL_GAIN * rho - 1e-12);
    }

    #[test]
    fn direct_method_gain_error_is_multiplicative(
        f in 1.0f64..100.0,
        err in -0.5f64..0.5,
    ) {
        // The reported factor clamps at the physical limit; stay above
        // the clamp tolerance so the multiplicative identity applies.
        prop_assume!(f * (1.0 + err) * (1.0 + err) >= 0.6);
        let truth = NoiseFactor::new(f).unwrap();
        let reported = direct::reported_factor_with_gain_error(truth, err).unwrap();
        let expected = f * (1.0 + err) * (1.0 + err);
        prop_assert!((reported.value() - expected.max(1.0)).abs() < 1e-9 * expected);
    }

    #[test]
    fn direct_nf_error_matches_closed_form(err in -0.3f64..0.5) {
        let truth = NoiseFactor::new(50.0).unwrap();
        let reported = direct::reported_factor_with_gain_error(truth, err).unwrap();
        let delta = reported.to_figure().db() - truth.to_figure().db();
        prop_assert!((delta - direct::nf_error_db_for_gain_error(err)).abs() < 1e-9);
    }

    #[test]
    fn hot_uncertainty_error_is_zero_only_at_zero(
        f in 1.5f64..50.0,
        frac in -0.3f64..0.3,
    ) {
        let truth = NoiseFactor::new(f).unwrap();
        let e = uncertainty::nf_error_from_hot_uncertainty(truth, 2_900.0, 290.0, frac).unwrap();
        if frac.abs() < 1e-12 {
            prop_assert!(e.abs() < 1e-9);
        } else {
            // Error sign is opposite to the calibration error sign.
            prop_assert!(e * frac < 0.0, "frac {frac} err {e}");
        }
    }

    #[test]
    fn larger_records_never_increase_estimator_std(
        f in 1.5f64..50.0,
        n in 100usize..100_000,
        k in 2usize..10,
    ) {
        let truth = NoiseFactor::new(f).unwrap();
        let small = uncertainty::nf_std_from_record_length(truth, 2_900.0, 290.0, n).unwrap();
        let large = uncertainty::nf_std_from_record_length(truth, 2_900.0, 290.0, n * k).unwrap();
        prop_assert!(large <= small + 1e-15);
    }

    #[test]
    fn y_from_powers_is_scale_invariant(
        hot in 1.0f64..1e6,
        ratio in 1.001f64..100.0,
        scale in 1e-6f64..1e6,
    ) {
        let cold = hot / ratio;
        let y1 = yfactor::y_from_powers(hot, cold).unwrap();
        let y2 = yfactor::y_from_powers(hot * scale, cold * scale).unwrap();
        prop_assert!((y1 - y2).abs() < 1e-9 * y1);
    }

    #[test]
    fn normalized_power_form_equals_temperature_form(
        f in 1.0f64..100.0,
        temps in temperature_pair(),
    ) {
        let (th, tc) = temps;
        let factor = NoiseFactor::new(f).unwrap();
        let y = yfactor::expected_y(factor, th, tc).unwrap();
        let a = yfactor::noise_factor_from_temperatures(y, th, tc).unwrap();
        let b = yfactor::noise_factor_from_normalized_powers(y, th / yfactor::T0, tc / yfactor::T0)
            .unwrap();
        prop_assert!((a.value() - b.value()).abs() < 1e-9 * a.value());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snr_from_orthogonal_captures_recovers_the_constructed_ratio(
        a in 0.1f64..10.0,
        b in 0.1f64..10.0,
        quads in 1usize..200,
    ) {
        prop_assume!(a > b * 1e-3);
        // A ±a tone at fs/2 and a ±b pattern at fs/4 are orthogonal
        // over whole periods of four samples.
        let n = 4 * quads;
        let noise: Vec<f64> = (0..n).map(|i| if i % 4 < 2 { b } else { -b }).collect();
        let mixed: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { a } else { -a } + noise[i])
            .collect();
        let est = nfbist_core::snr::snr_from_captures(&mixed, &noise).unwrap();
        prop_assert!((est.noise_power - b * b).abs() <= 1e-12 * b * b);
        prop_assert!((est.signal_power - a * a).abs() <= 1e-9 * (a * a + b * b));
        prop_assert!((est.snr_db - 20.0 * (a / b).log10()).abs() < 1e-6);
        // Swapping the captures leaves no signal to find.
        prop_assert!(nfbist_core::snr::snr_from_captures(&noise, &mixed).is_err());
    }

    #[test]
    fn relative_response_ignores_a_common_power_scale(
        powers in prop::collection::vec(1e-6f64..1e6, 1..20),
        reference in 0usize..20,
        k in 1e-3f64..1e3,
    ) {
        use nfbist_core::frequency_response::{relative_response, SweepPoint};
        let reference = reference % powers.len();
        let sweep: Vec<SweepPoint> = powers
            .iter()
            .enumerate()
            .map(|(i, &p)| SweepPoint { frequency: 100.0 * (i + 1) as f64, line_power: p })
            .collect();
        let scaled: Vec<SweepPoint> = sweep
            .iter()
            .map(|p| SweepPoint { line_power: k * p.line_power, ..*p })
            .collect();
        let a = relative_response(&sweep, reference).unwrap();
        let b = relative_response(&scaled, reference).unwrap();
        prop_assert_eq!(a[reference].1, 0.0);
        for ((fa, ga), (fb, gb)) in a.iter().zip(&b) {
            prop_assert_eq!(fa, fb);
            prop_assert!((ga - gb).abs() < 1e-9, "{} vs {}", ga, gb);
        }
    }

    #[test]
    fn corner_interpolation_lands_on_the_crossing_segment(
        f1 in 10.0f64..1_000.0,
        span in 1.0f64..10_000.0,
        above in 0.0f64..3.0,
        below in 0.01f64..30.0,
    ) {
        use nfbist_core::frequency_response::corner_frequency;
        let f2 = f1 + span;
        // A flat passband point, one point above −3 dB and one below.
        let g1 = -3.0103 + above;
        let g2 = -3.0103 - below;
        let response = [(1.0, 0.0), (f1, g1), (f2, g2), (f2 * 2.0, g2 - 10.0)];
        let corner = corner_frequency(&response).unwrap().unwrap();
        prop_assert!((f1..=f2).contains(&corner), "{} outside [{}, {}]", corner, f1, f2);
        // Linear interpolation: the corner splits the segment in the
        // ratio of the gain distances to −3 dB.
        let t = above / (above + below);
        prop_assert!((corner - (f1 + t * span)).abs() <= 1e-9 * f2);
        // A response that never reaches −3 dB has no corner.
        prop_assert_eq!(corner_frequency(&response[..2]).unwrap(), None);
    }

    #[test]
    fn power_ratios_follow_gain_the_way_their_estimators_should(
        seed in 0u64..1_000,
        k in 0.1f64..10.0,
    ) {
        use nfbist_core::power_ratio::{mean_square_ratio, psd_ratio};
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut draw = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let hot: Vec<f64> = (0..512).map(|_| 2.0 * draw()).collect();
        let cold: Vec<f64> = (0..512).map(|_| draw()).collect();
        let hot_k: Vec<f64> = hot.iter().map(|v| k * v).collect();
        let cold_k: Vec<f64> = cold.iter().map(|v| k * v).collect();
        let y = mean_square_ratio(&hot, &cold).unwrap();
        // A gain on the hot record alone scales Y by its square; a gain
        // common to both records cancels (the Y-factor method's point).
        prop_assert!((mean_square_ratio(&hot_k, &cold).unwrap() - k * k * y).abs() <= 1e-9 * k * k * y);
        prop_assert!((mean_square_ratio(&hot_k, &cold_k).unwrap() - y).abs() <= 1e-9 * y);
        let band = (500.0, 4_000.0);
        let yp = psd_ratio(&hot, &cold, 10_000.0, 64, band).unwrap();
        let yp_k = psd_ratio(&hot_k, &cold_k, 10_000.0, 64, band).unwrap();
        prop_assert!((yp_k - yp).abs() <= 1e-9 * yp);
    }

    #[test]
    fn arcsine_sequence_helpers_act_lag_by_lag(
        rho in prop::collection::vec(-1.0f64..1.0, 0..40),
    ) {
        let out = arcsine::apply_to_sequence(&rho).unwrap();
        prop_assert_eq!(out.len(), rho.len());
        for (o, r) in out.iter().zip(&rho) {
            prop_assert_eq!(*o, arcsine::arcsine_law(*r).unwrap());
        }
        let back = arcsine::invert_sequence(&out).unwrap();
        for (b, r) in back.iter().zip(&rho) {
            prop_assert!((b - r).abs() < 1e-9);
        }
        // One out-of-range lag rejects the whole sequence.
        let mut bad = rho.clone();
        bad.push(1.5);
        prop_assert!(arcsine::apply_to_sequence(&bad).is_err());
        prop_assert!(arcsine::invert_sequence(&bad).is_err());
    }

    #[test]
    fn normal_quantile_is_antisymmetric_and_increasing(p in 1e-6f64..0.5, dp in 1e-6f64..0.4) {
        let q = uncertainty::normal_quantile(p).unwrap();
        let mirror = uncertainty::normal_quantile(1.0 - p).unwrap();
        prop_assert!((q + mirror).abs() < 1e-6 * (1.0 + q.abs()), "{} vs {}", q, mirror);
        prop_assert!(q <= 0.0);
        let higher = uncertainty::normal_quantile(p + dp).unwrap();
        prop_assert!(higher > q);
    }

    #[test]
    fn window_validation_accepts_exactly_the_documented_domain(
        segments in 0usize..64,
        lambda in -0.5f64..1.5,
    ) {
        use nfbist_core::streaming::EstimatorWindow;
        prop_assert_eq!(
            EstimatorWindow::Sliding { segments }.validate().is_ok(),
            segments >= 1
        );
        prop_assert_eq!(
            EstimatorWindow::Forgetting { lambda }.validate().is_ok(),
            lambda > 0.0 && lambda < 1.0
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reference_tracker_measures_a_line_above_a_flat_floor(
        offset in -20i64..21,
        half_width in 0usize..4,
        amplitude in 3.0f64..1e4,
        floor in 1e-6f64..1e3,
    ) {
        use nfbist_core::normalize::ReferenceTracker;
        use nfbist_dsp::spectrum::Spectrum;
        // 20 kHz over 1024 points: 19.53 Hz bins; the line sits within
        // ±20 bins of the 3 kHz nominal, inside a ±500 Hz search window.
        let (fs, nfft) = (20_000.0, 1_024usize);
        let df = fs / nfft as f64;
        let k = (3_000.0 / df).round() as i64 + offset;
        let k = k as usize;
        let mut density = vec![floor; nfft / 2 + 1];
        for d in &mut density[k - half_width..=k + half_width] {
            *d = amplitude * floor;
        }
        density[k] = 2.0 * amplitude * floor;
        let spectrum = Spectrum::new(density, fs, nfft).unwrap();
        let tracker = ReferenceTracker::new(3_000.0, 500.0, half_width).unwrap();
        let line = tracker.locate(&spectrum).unwrap();
        prop_assert_eq!(line.bin, k);
        prop_assert_eq!(line.frequency, spectrum.bin_frequency(k));
        prop_assert_eq!(line.bins, (k - half_width..=k + half_width).collect::<Vec<_>>());
        // The flanks are pure floor, so exactly the excess is counted.
        let excess = (2.0 * amplitude - 1.0 + 2.0 * half_width as f64 * (amplitude - 1.0)) * floor * df;
        prop_assert!((line.power - excess).abs() <= 1e-9 * excess, "{} vs {}", line.power, excess);
        // A spectrum with no line is degenerate, not a zero-power line.
        let flat = Spectrum::new(vec![floor; nfft / 2 + 1], fs, nfft).unwrap();
        prop_assert!(tracker.locate(&flat).is_err());
    }
}
