//! Property-based tests for the analog substrate: container round
//! trips, component scaling laws and converter invariants.

use nfbist_analog::bitstream::Bitstream;
use nfbist_analog::component::{Amplifier, Attenuator, Block};
use nfbist_analog::converter::{Adc, Comparator, OneBitDigitizer};
use nfbist_analog::noise::WhiteNoise;
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::source::{SineSource, SquareSource, Waveform};
use nfbist_analog::units::{Gain, Hertz, Kelvin, Ohms};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitstream_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        let bs: Bitstream = bits.iter().copied().collect();
        prop_assert_eq!(bs.len(), bits.len());
        let back: Vec<bool> = bs.iter().collect();
        prop_assert_eq!(&back, &bits);
        // Bipolar expansion is consistent with ones().
        let ones = bs.to_bipolar().iter().filter(|&&v| v > 0.0).count();
        prop_assert_eq!(ones, bs.ones());
        prop_assert_eq!(bs.ones() + bs.to_unipolar().iter().filter(|&&v| v == 0.0).count(), bits.len());
    }

    #[test]
    fn bitstream_memory_is_one_bit_per_sample(n in 0usize..10_000) {
        let bs: Bitstream = (0..n).map(|i| i % 2 == 0).collect();
        prop_assert_eq!(bs.memory_bytes(), n.div_ceil(64) * 8);
    }

    #[test]
    fn popcount_autocorrelation_matches_float_reference(
        // 2..300 sweeps through sub-word, word-aligned and straddling
        // lengths; the lag fraction covers lag 0 through len-1.
        bits in prop::collection::vec(any::<bool>(), 2..300),
        lag_frac in 0.0f64..1.0,
    ) {
        use nfbist_dsp::correlation::{autocorrelation, Bias};
        let bs: Bitstream = bits.iter().copied().collect();
        let max_lag = ((bits.len() - 1) as f64 * lag_frac) as usize;
        let x = bs.to_bipolar();
        for bias in [Bias::Biased, Bias::Unbiased] {
            let fast = bs.autocorrelation(max_lag, bias).unwrap();
            let reference = autocorrelation(&x, max_lag, bias).unwrap();
            // ±1 lag sums are exact integers, so the popcount kernel is
            // bitwise-identical to the float reference, not just close.
            prop_assert_eq!(&fast, &reference);
        }
    }

    #[test]
    fn bulk_bit_append_matches_per_bit_push(
        head in prop::collection::vec(any::<bool>(), 0..200),
        tail in prop::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut by_push = Bitstream::new();
        for &b in head.iter().chain(&tail) {
            by_push.push(b);
        }
        let mut by_bulk: Bitstream = head.iter().copied().collect();
        by_bulk.extend_from_bits(tail.iter().copied());
        prop_assert_eq!(&by_push, &by_bulk);
        // Word-wise expansion agrees with per-bit reads.
        let mut expanded = vec![0.0; by_push.len()];
        if !by_push.is_empty() {
            by_push.expand_bipolar_into(&mut expanded).unwrap();
            for (i, v) in expanded.iter().enumerate() {
                let expect = if by_push.get(i).unwrap() { 1.0 } else { -1.0 };
                prop_assert_eq!(*v, expect);
            }
        }
        // Popcount mean agrees with the float mean of the expansion.
        if !head.is_empty() {
            let hs: Bitstream = head.iter().copied().collect();
            let float_mean: f64 = hs.to_bipolar().iter().sum::<f64>() / head.len() as f64;
            prop_assert!((hs.bipolar_mean() - float_mean).abs() < 1e-12);
        }
    }

    #[test]
    fn amplifier_is_homogeneous(gain in -100.0f64..100.0, x in -10.0f64..10.0) {
        prop_assume!(gain != 0.0 && gain.abs() > 1e-6);
        let mut a = Amplifier::ideal(gain).unwrap();
        let y = a.process(&[x]);
        prop_assert!((y[0] - gain * x).abs() < 1e-9 * (1.0 + (gain * x).abs()));
    }

    #[test]
    fn attenuator_never_amplifies(db in 0.0f64..120.0, x in -100.0f64..100.0) {
        let mut att = Attenuator::from_db(db).unwrap();
        let y = att.process(&[x]);
        prop_assert!(y[0].abs() <= x.abs() + 1e-12);
        // 20 dB per decade.
        prop_assert!((att.linear_factor() - 10f64.powf(-db / 20.0)).abs() < 1e-12);
    }

    #[test]
    fn attenuator_step_quantization_bounded(db in 0.0f64..60.0, step in 0.25f64..6.0) {
        let att = Attenuator::from_db(db).unwrap().with_step(step).unwrap();
        prop_assert!((att.attenuation_db() - db).abs() <= step / 2.0 + 1e-9);
    }

    #[test]
    fn comparator_decisions_are_antisymmetric(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        prop_assume!((a - b).abs() > 1e-9);
        let mut c1 = Comparator::ideal();
        let mut c2 = Comparator::ideal();
        prop_assert_eq!(c1.compare(a, b), !c2.compare(b, a));
    }

    #[test]
    fn digitizer_output_is_sign_of_difference(
        signal in prop::collection::vec(-5.0f64..5.0, 1..100),
        reference in prop::collection::vec(-5.0f64..5.0, 1..100),
    ) {
        let n = signal.len().min(reference.len());
        let s = &signal[..n];
        let r = &reference[..n];
        let bits = OneBitDigitizer::ideal().digitize(s, r).unwrap();
        for i in 0..n {
            prop_assert_eq!(bits.get(i).unwrap(), s[i] > r[i]);
        }
    }

    #[test]
    fn adc_error_bounded_by_half_lsb(bits in 4u32..16, x in -0.999f64..0.999) {
        let adc = Adc::new(bits, 1.0).unwrap();
        let y = adc.quantize(&[x]).unwrap();
        prop_assert!((y[0] - x).abs() <= adc.lsb() / 2.0 + 1e-12);
    }

    #[test]
    fn adc_is_monotone(bits in 2u32..12, a in -1.0f64..1.0, b in -1.0f64..1.0) {
        let adc = Adc::new(bits, 1.0).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let q = adc.quantize(&[lo, hi]).unwrap();
        prop_assert!(q[0] <= q[1] + 1e-12);
    }

    #[test]
    fn gain_db_roundtrip(db in -80.0f64..80.0) {
        let g = Gain::from_db(db);
        prop_assert!((g.db() - db).abs() < 1e-9);
        prop_assert!((g.power() - g.linear() * g.linear()).abs() < 1e-9 * (1.0 + g.power()));
    }

    #[test]
    fn parallel_resistance_bounds(a in 1.0f64..1e6, b in 1.0f64..1e6) {
        let rp = Ohms::new(a).parallel(Ohms::new(b));
        prop_assert!(rp.value() <= a.min(b));
        prop_assert!(rp.value() >= a.min(b) / 2.0);
        // Symmetry.
        let rq = Ohms::new(b).parallel(Ohms::new(a));
        prop_assert!((rp.value() - rq.value()).abs() < 1e-9 * rp.value());
    }

    #[test]
    fn thermal_noise_scales_linearly_with_t_and_r(
        r in 1.0f64..1e6,
        t in 1.0f64..10_000.0,
        k in 2.0f64..10.0,
    ) {
        let base = Ohms::new(r).thermal_noise_density_sq(Kelvin::new(t));
        let scaled_t = Ohms::new(r).thermal_noise_density_sq(Kelvin::new(t * k));
        let scaled_r = Ohms::new(r * k).thermal_noise_density_sq(Kelvin::new(t));
        prop_assert!((scaled_t / base - k).abs() < 1e-9);
        prop_assert!((scaled_r / base - k).abs() < 1e-9);
    }

    #[test]
    fn sine_is_bounded_by_amplitude(f in 1.0f64..10_000.0, amp in 0.0f64..100.0, t in 0.0f64..1.0) {
        let s = SineSource::new(f, amp).unwrap();
        prop_assert!(s.value_at(t).abs() <= amp + 1e-12);
    }

    #[test]
    fn square_levels_are_exact(f in 1.0f64..1_000.0, level in 0.0f64..10.0, t in 0.0f64..1.0) {
        let sq = SquareSource::new(f, level).unwrap();
        let v = sq.value_at(t);
        prop_assert!((v - level).abs() < 1e-12 || (v + level).abs() < 1e-12);
    }

    #[test]
    fn opamp_density_decreases_with_frequency(f1 in 0.1f64..1e5, k in 1.1f64..100.0) {
        let m = OpampModel::op27();
        let lo = m.voltage_noise_density_sq(f1);
        let hi = m.voltage_noise_density_sq(f1 * k);
        prop_assert!(hi <= lo + 1e-24);
        // Never below the white floor.
        prop_assert!(hi >= m.en_white() * m.en_white() - 1e-30);
    }

    #[test]
    fn opamp_mean_density_brackets_endpoints(lo in 1.0f64..100.0, span in 2.0f64..100.0) {
        let m = OpampModel::ca3140();
        let hi = lo * span;
        let mean = m.mean_voltage_noise_density_sq(lo, hi).unwrap();
        let d_lo = m.voltage_noise_density_sq(lo);
        let d_hi = m.voltage_noise_density_sq(hi);
        prop_assert!(mean <= d_lo + 1e-24);
        prop_assert!(mean >= d_hi - 1e-24);
    }

    #[test]
    fn white_noise_determinism(sigma in 0.0f64..10.0, seed in any::<u64>()) {
        let a = WhiteNoise::new(sigma, seed).unwrap().generate(32);
        let b = WhiteNoise::new(sigma, seed).unwrap().generate(32);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn opamp_corner_form_is_exact(f in 0.1f64..1e6) {
        let m = OpampModel::new("x", 2e-9, Hertz::new(50.0), 1e-13, Hertz::new(10.0)).unwrap();
        let expected = 4e-18 * (1.0 + 50.0 / f.max(0.01));
        prop_assert!((m.voltage_noise_density_sq(f) - expected).abs() < 1e-27);
    }
}

/// Runs `dut` over `input` through its chunked stream, `chunk` samples
/// per push.
fn streamed(dut: &dyn nfbist_analog::dut::Dut, input: &[f64], chunk: usize, seed: u64) -> Vec<f64> {
    let mut stream = dut.process_stream(Ohms::new(2_000.0), 2e4, seed).unwrap();
    let mut out = Vec::new();
    for c in input.chunks(chunk) {
        stream.push(c, &mut out).unwrap();
    }
    stream.finish(&mut out).unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn white_noise_is_one_stream_across_calls(
        sigma in 0.0f64..10.0,
        seed in any::<u64>(),
        a in 0usize..200,
        b in 0usize..200,
    ) {
        let whole = WhiteNoise::new(sigma, seed).unwrap().generate(a + b);
        let mut split = WhiteNoise::new(sigma, seed).unwrap();
        let mut parts = split.generate(a);
        parts.extend(split.generate(b));
        prop_assert_eq!(&parts, &whole);
        let mut single = WhiteNoise::new(sigma, seed).unwrap();
        let drawn: Vec<f64> = (0..a + b).map(|_| single.next_sample()).collect();
        prop_assert_eq!(drawn, whole);
    }

    #[test]
    fn calibrated_source_streams_equal_whole_records(
        seed in any::<u64>(),
        n in 1usize..600,
        cut in 0.0f64..1.0,
        hot in any::<bool>(),
    ) {
        use nfbist_analog::noise::{CalibratedNoiseSource, NoiseSourceState};
        let state = if hot { NoiseSourceState::Hot } else { NoiseSourceState::Cold };
        let fresh = || {
            CalibratedNoiseSource::new(Kelvin::new(2_900.0), Kelvin::new(290.0), Ohms::new(2_000.0), seed)
                .unwrap()
        };
        let mut source = fresh();
        let whole = source.generate(state, n, 2e4).unwrap();
        let k = (n as f64 * cut) as usize;
        let mut stream = fresh().stream(state, 2e4).unwrap();
        let mut chunked = stream.generate(k);
        chunked.extend(stream.generate(n - k));
        prop_assert_eq!(&chunked, &whole);
        // Each call advances the source: the next record is fresh noise.
        let next = source.generate(state, n, 2e4).unwrap();
        prop_assert!(next != whole);
    }

    #[test]
    fn amplifier_and_faulty_streams_equal_batch_for_any_chunking(
        n in 1usize..2_500,
        chunk in 1usize..3_000,
        seed in any::<u64>(),
        excess in 1.0f64..6.0,
        corner in 200.0f64..5_000.0,
    ) {
        use nfbist_analog::circuits::{InvertingAmplifier, NonInvertingAmplifier};
        use nfbist_analog::fault::{AnalogFault, FaultyDut};
        let input: Vec<f64> = (0..n).map(|i| 1e-5 * ((i as f64) * 0.37).sin()).collect();
        let paper = NonInvertingAmplifier::new(OpampModel::tl081(), Ohms::new(10_000.0), Ohms::new(100.0))
            .unwrap();
        let duts: Vec<Box<dyn nfbist_analog::dut::Dut>> = vec![
            Box::new(paper.clone()),
            Box::new(
                InvertingAmplifier::new(OpampModel::op27(), Ohms::new(10_000.0), Ohms::new(1_000.0))
                    .unwrap(),
            ),
            Box::new(
                FaultyDut::new(paper)
                    .with_faults([
                        AnalogFault::ExcessNoise { factor: excess },
                        AnalogFault::ReducedBandwidth { corner_hz: corner },
                    ])
                    .unwrap(),
            ),
        ];
        for dut in &duts {
            let batch = dut.process(&input, Ohms::new(2_000.0), 2e4, seed).unwrap();
            let chunked = streamed(dut.as_ref(), &input, chunk, seed);
            prop_assert_eq!(chunked.len(), batch.len());
            for (s, b) in chunked.iter().zip(&batch) {
                prop_assert!(s.to_bits() == b.to_bits(), "{}", dut.label());
            }
        }
    }

    #[test]
    fn drift_severity_ramps_monotonically_from_zero_to_one(
        onset in 0usize..5_000,
        span in 1usize..5_000,
        probes in prop::collection::vec(0usize..20_000, 1..40),
    ) {
        use nfbist_analog::fault::DriftSchedule;
        let mut probes = probes;
        probes.sort_unstable();
        for schedule in [
            DriftSchedule::Linear { onset, ramp: span },
            DriftSchedule::Step { at: onset },
            DriftSchedule::Exponential { onset, tau: span },
        ] {
            prop_assert!(schedule.validate().is_ok());
            let mut previous = 0.0;
            for &t in &probes {
                let s = schedule.severity(t);
                prop_assert!((0.0..=1.0).contains(&s), "{} at {}: {}", schedule, t, s);
                prop_assert!(s >= previous, "{} must not recede at {}", schedule, t);
                if t < onset {
                    prop_assert_eq!(s, 0.0);
                }
                previous = s;
            }
        }
        // The linear ramp is complete one ramp after onset; the step is
        // complete at once.
        let linear = DriftSchedule::Linear { onset, ramp: span };
        prop_assert_eq!(linear.severity(onset + span), 1.0);
        prop_assert_eq!(DriftSchedule::Step { at: onset }.severity(onset), 1.0);
    }

    #[test]
    fn stuck_bits_force_exactly_the_periodic_cells(
        bits in prop::collection::vec(any::<bool>(), 0..400),
        period in 1usize..20,
        value in any::<bool>(),
    ) {
        use nfbist_analog::fault::BitFault;
        let stored: Bitstream = bits.iter().copied().collect();
        let read = BitFault::StuckBits { period, value }.apply(&stored);
        prop_assert_eq!(read.len(), bits.len());
        for (i, (r, b)) in read.iter().zip(&bits).enumerate() {
            let expect = if i % period == 0 { value } else { *b };
            prop_assert!(r == expect, "cell {}", i);
        }
    }

    #[test]
    fn flipped_bits_use_one_mask_whatever_the_data(
        a in prop::collection::vec(any::<bool>(), 1..400),
        probability in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        use nfbist_analog::fault::BitFault;
        let fault = BitFault::FlippedBits { probability, seed };
        let stored: Bitstream = a.iter().copied().collect();
        let read = fault.apply(&stored);
        // The defective cells are fixed by the seed: flipping twice
        // restores the record, and an all-zero record reads back as the
        // mask itself.
        prop_assert_eq!(&fault.apply(&read), &stored);
        let zeros: Bitstream = std::iter::repeat_n(false, a.len()).collect();
        let mask = fault.apply(&zeros);
        for ((r, s), m) in read.iter().zip(stored.iter()).zip(mask.iter()) {
            prop_assert_eq!(r, s ^ m);
        }
        if probability == 1.0 {
            prop_assert_eq!(mask.ones(), a.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn disc_maps_are_row_major_and_fourfold_symmetric(grid in 1usize..40) {
        use nfbist_analog::wafer::WaferMap;
        let map = WaferMap::disc(grid).unwrap();
        prop_assert!(map.dies() >= 1 && map.dies() <= grid * grid);
        let on: std::collections::HashSet<(usize, usize)> =
            map.sites().iter().map(|s| (s.row, s.col)).collect();
        for (i, site) in map.sites().iter().enumerate() {
            prop_assert_eq!(site.index, i);
            prop_assert!(site.radius <= 1.0);
            let mirror = grid - 1;
            prop_assert!(on.contains(&(mirror - site.row, site.col)));
            prop_assert!(on.contains(&(site.row, mirror - site.col)));
            prop_assert!(on.contains(&(site.col, site.row)));
        }
        prop_assert!(map.sites().windows(2).all(|w| (w[0].row, w[0].col) < (w[1].row, w[1].col)));
        // The rendering draws one mark per site on a grid × grid raster.
        let art = map.render(|_| 'o');
        prop_assert_eq!(art.lines().count(), grid);
        prop_assert!(art.lines().all(|l| l.split(' ').count() == grid));
        prop_assert_eq!(art.chars().filter(|&c| c == 'o').count(), map.dies());
    }

    #[test]
    fn lot_dies_are_pure_bounded_and_seeded_by_index(
        seed in any::<u64>(),
        grid in 2usize..14,
        kinds in 1usize..6,
        background in 0.0f64..1.0,
    ) {
        use nfbist_analog::wafer::{die_seed, DefectModel, Lot, ProcessVariation, WaferMap};
        let lot = Lot::new(
            WaferMap::disc(grid).unwrap(),
            ProcessVariation::default(),
            DefectModel::new().background(background).unwrap(),
            seed,
        )
        .unwrap()
        .defect_kinds(kinds);
        for i in (0..lot.dies()).rev() {
            let die = lot.die(i).unwrap();
            prop_assert_eq!(die, lot.die(i).unwrap());
            prop_assert_eq!(die.index, i);
            prop_assert_eq!(die.seed, die_seed(seed, i as u64));
            prop_assert!(die.noise_scale >= 1.0);
            prop_assert!(die.gain_scale > 0.0 && die.gain_scale.is_finite());
            prop_assert!(die.defect.is_none_or(|k| k < kinds));
        }
        prop_assert!(lot.die(lot.dies()).is_err());
        prop_assert!((lot.expected_defects() - background * lot.dies() as f64).abs() < 1e-9 * lot.dies() as f64);
    }

    #[test]
    fn defect_probability_sums_its_terms_and_saturates(
        background in 0.0f64..1.0,
        edge in 0.0f64..1.0,
        cluster_p in 0.0f64..1.0,
        radius in 0.05f64..1.0,
    ) {
        use nfbist_analog::wafer::{DefectModel, WaferMap};
        let map = WaferMap::disc(9).unwrap();
        let model = DefectModel::new()
            .background(background)
            .unwrap()
            .edge_gradient(edge)
            .unwrap()
            .cluster(0.0, 0.0, radius, cluster_p)
            .unwrap();
        for site in map.sites() {
            let inside = site.x * site.x + site.y * site.y <= radius * radius;
            let raw = background + edge * site.radius * site.radius + if inside { cluster_p } else { 0.0 };
            let p = model.defect_probability(site);
            prop_assert!((p - raw.min(1.0)).abs() < 1e-12, "site {}: {} vs {}", site.index, p, raw);
            prop_assert!((0.0..=1.0).contains(&p));
        }
        // Out-of-domain terms are refused.
        prop_assert!(DefectModel::new().background(1.5).is_err());
        prop_assert!(DefectModel::new().cluster(0.9, 0.9, 0.1, 0.5).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shaped_noise_is_one_stream_across_calls_and_blocks(
        seed in any::<u64>(),
        block_pow in 4u32..10,
        a in 0usize..1_500,
        b in 0usize..1_500,
    ) {
        use nfbist_analog::noise::ShapedNoise;
        let block = 1usize << block_pow;
        let density = |f: f64| 1e-6 / (1.0 + f / 100.0);
        let whole = ShapedNoise::new(density, 1e4, block, seed).unwrap().generate(a + b).unwrap();
        let mut split = ShapedNoise::new(density, 1e4, block, seed).unwrap();
        let mut parts = split.generate(a).unwrap();
        parts.extend(split.generate(b).unwrap());
        prop_assert_eq!(parts, whole);
    }

    #[test]
    fn hysteresis_holds_the_last_decision_inside_its_window(
        width in 0.0f64..2.0,
        offset in -0.5f64..0.5,
        inputs in prop::collection::vec(-3.0f64..3.0, 1..200),
    ) {
        let mut cmp = Comparator::ideal().with_offset(offset).unwrap().with_hysteresis(width).unwrap();
        let mut previous = false;
        for &v in &inputs {
            let diff = v - offset;
            let out = cmp.compare(v, 0.0);
            if diff.abs() > width / 2.0 {
                // Outside the window the comparator decides by sign.
                prop_assert_eq!(out, diff > 0.0);
            } else if diff.abs() < width / 2.0 {
                // Inside it, the previous decision stands.
                prop_assert_eq!(out, previous);
            }
            previous = out;
        }
        // Reset returns the memory to the low state.
        cmp.reset();
        if width > 0.0 {
            prop_assert!(!cmp.compare(offset, 0.0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn waveform_chunks_concatenate_to_the_whole_record(
        f in 1.0f64..5_000.0,
        level in 0.01f64..5.0,
        n in 1usize..600,
        cut in 0.0f64..1.0,
        harmonics in 0usize..6,
    ) {
        let fs = 20_000.0;
        let k = (n as f64 * cut) as usize;
        let sine = SineSource::new(f, level).unwrap().with_phase(0.3);
        let mut square = SquareSource::new(f, level).unwrap();
        if harmonics > 0 {
            square = square.with_harmonics(harmonics).unwrap();
        }
        let sources: [&dyn Waveform; 2] = [&sine, &square];
        for source in sources {
            let whole = source.generate(n, fs).unwrap();
            let mut chunked = source.generate_chunk(0, k, fs).unwrap();
            chunked.extend(source.generate_chunk(k, n - k, fs).unwrap());
            prop_assert_eq!(&chunked, &whole);
            // Every sample is the waveform at its own sampling instant.
            for (i, v) in whole.iter().enumerate() {
                prop_assert_eq!(*v, source.value_at(i as f64 / fs));
            }
        }
    }

    #[test]
    fn sine_power_over_whole_cycles_is_its_rms_squared(
        cycles in 1usize..20,
        per_cycle in 8usize..64,
        amplitude in 0.01f64..10.0,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let fs = 10_000.0;
        let f = fs / per_cycle as f64;
        let sine = SineSource::new(f, amplitude).unwrap().with_phase(phase);
        prop_assert!((sine.rms() - amplitude / 2f64.sqrt()).abs() < 1e-12 * amplitude);
        let x = sine.generate(cycles * per_cycle, fs).unwrap();
        let power = x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
        prop_assert!((power - sine.rms() * sine.rms()).abs() <= 1e-9 * amplitude * amplitude);
        prop_assert_eq!(sine.fundamental_amplitude(), amplitude);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bit_counts_add_under_concatenation(
        a in prop::collection::vec(any::<bool>(), 1..300),
        b in prop::collection::vec(any::<bool>(), 1..300),
    ) {
        let left: Bitstream = a.iter().copied().collect();
        let right: Bitstream = b.iter().copied().collect();
        let mut joined = left.clone();
        joined.extend_from_bits(b.iter().copied());
        prop_assert_eq!(joined.len(), a.len() + b.len());
        prop_assert_eq!(joined.ones(), left.ones() + right.ones());
        prop_assert_eq!(joined.bipolar_sum(), left.bipolar_sum() + right.bipolar_sum());
        // The ±1 mean is the duty cycle mapped onto [-1, 1].
        prop_assert!((joined.bipolar_mean() - (2.0 * joined.duty() - 1.0)).abs() < 1e-12);
        // Lag products count agreements minus disagreements, so they
        // never exceed the overlap and share its parity.
        for lag in [0usize, 1, 7, 64, 65] {
            if let Some(p) = joined.lag_product(lag) {
                let overlap = (joined.len() - lag) as i64;
                prop_assert!(p.abs() <= overlap);
                prop_assert_eq!((overlap - p) % 2, 0);
                prop_assert_eq!(
                    joined.xor_popcount_lag(lag).unwrap() as i64,
                    (overlap - p) / 2
                );
            } else {
                prop_assert!(lag >= joined.len());
            }
        }
        prop_assert_eq!(joined.lag_product(0), Some(joined.len() as i64));
    }
}
