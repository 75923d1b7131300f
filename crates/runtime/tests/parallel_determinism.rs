//! The batch engine's core contract: parallel execution is
//! **bit-for-bit identical** to sequential execution for the same
//! seeds — over the whole (trials × repeats × workers) grid, for both
//! the fast scale-preserving path and the full 1-bit estimator.

use nfbist_analog::circuits::NonInvertingAmplifier;
use nfbist_analog::converter::AdcDigitizer;
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::units::Ohms;
use nfbist_core::power_ratio::MeanSquareEstimator;
use nfbist_runtime::batch::{derive_seed, BatchPlan};
use nfbist_soc::multipoint::MultipointBist;
use nfbist_soc::session::{Measurement, MeasurementSession};
use nfbist_soc::setup::BistSetup;
use nfbist_soc::SocError;
use proptest::prelude::*;

/// A reduced setup that keeps the grid sweep fast: short records, tiny
/// FFT.
fn tiny_setup(seed: u64) -> BistSetup {
    BistSetup {
        samples: 1 << 12,
        nfft: 512,
        seed,
        ..BistSetup::paper_prototype(seed)
    }
}

/// A fast session: ADC front-end (scale-preserving) + time-domain
/// mean-square estimator, so a 4096-sample repeat costs microseconds.
fn fast_session(seed: u64, repeats: usize) -> Result<MeasurementSession, SocError> {
    let dut =
        NonInvertingAmplifier::new(OpampModel::tl081(), Ohms::new(10_000.0), Ohms::new(100.0))
            .expect("dut");
    Ok(MeasurementSession::new(tiny_setup(seed))?
        .dut(dut)
        .digitizer(AdcDigitizer::new(12)?)
        .estimator(MeanSquareEstimator)
        .repeats(repeats))
}

/// Bitwise equality of everything a `Measurement` reports: Y, F, NF,
/// spread, reference amplitude, per-repeat ratios and band powers.
fn assert_bit_identical(a: &Measurement, b: &Measurement) {
    assert_eq!(a.nf.y.to_bits(), b.nf.y.to_bits(), "mean Y differs");
    assert_eq!(
        a.nf.factor.value().to_bits(),
        b.nf.factor.value().to_bits(),
        "noise factor differs"
    );
    assert_eq!(
        a.nf.figure.db().to_bits(),
        b.nf.figure.db().to_bits(),
        "NF differs"
    );
    assert_eq!(
        a.nf_spread_db.to_bits(),
        b.nf_spread_db.to_bits(),
        "spread differs"
    );
    assert_eq!(
        a.reference_amplitude.to_bits(),
        b.reference_amplitude.to_bits()
    );
    assert_eq!(a.usage, b.usage);
    assert_eq!(a.repeats.len(), b.repeats.len());
    for (ra, rb) in a.repeats.iter().zip(&b.repeats) {
        assert_eq!(
            ra.ratio.ratio.to_bits(),
            rb.ratio.ratio.to_bits(),
            "per-repeat ratio differs"
        );
        assert_eq!(ra.ratio.hot_power.to_bits(), rb.ratio.hot_power.to_bits());
        assert_eq!(ra.ratio.cold_power.to_bits(), rb.ratio.cold_power.to_bits());
        assert_eq!(
            ra.nf.map(|nf| nf.figure.db().to_bits()),
            rb.nf.map(|nf| nf.figure.db().to_bits())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The trials × repeats grid: a parallel Monte Carlo batch must be
    /// bit-for-bit identical to the sequential batch for any worker
    /// count and any seed.
    #[test]
    fn parallel_session_batch_is_bit_identical_to_sequential(
        seed in 0u64..u64::MAX / 2,
        trials in 1usize..4,
        repeats in 1usize..4,
        workers in 2usize..5,
    ) {
        let build = |t: usize| fast_session(derive_seed(seed, t as u64), repeats);
        let sequential = BatchPlan::sequential()
            .run_monte_carlo(trials, build)
            .unwrap();
        let parallel = BatchPlan::new()
            .workers(workers)
            .run_monte_carlo(trials, build)
            .unwrap();
        prop_assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential
            .measurements()
            .iter()
            .zip(parallel.measurements())
        {
            assert_bit_identical(s, p);
        }
    }

    /// Repeat fan-out: `BatchPlan::run_session` must reproduce
    /// `MeasurementSession::run` exactly for any worker count.
    #[test]
    fn parallel_repeats_match_sequential_run(
        seed in 0u64..u64::MAX / 2,
        repeats in 1usize..6,
        workers in 1usize..5,
    ) {
        let session = fast_session(seed, repeats).unwrap();
        let sequential = session.run().unwrap();
        let parallel = BatchPlan::new().workers(workers).run_session(&session).unwrap();
        assert_bit_identical(&sequential, &parallel);
    }
}

/// The full 1-bit estimator path (Welch PSDs, reference normalization,
/// workspace reuse inside the estimator) through the parallel repeat
/// fan-out: one heavier case, still bit-identical.
#[test]
fn one_bit_session_parallel_repeats_are_bit_identical() {
    let mut setup = BistSetup::quick(17);
    setup.samples = 1 << 15;
    setup.nfft = 1_024;
    let build = || {
        let dut =
            NonInvertingAmplifier::new(OpampModel::tl081(), Ohms::new(10_000.0), Ohms::new(100.0))
                .expect("dut");
        MeasurementSession::new(setup.clone())
            .expect("session")
            .dut(dut)
            .repeats(4)
    };
    // Separate session instances so estimator workspaces are not
    // shared between the two runs.
    let sequential = build().run().expect("sequential run");
    let parallel = BatchPlan::new()
        .workers(4)
        .run_session(&build())
        .expect("parallel run");
    assert_bit_identical(&sequential, &parallel);
}

/// Multipoint fan-out (the §4.3 simultaneous-observation scenario):
/// parallel per-point estimation matches `measure_all`.
#[test]
fn multipoint_parallel_points_match_sequential() {
    let stage = |m: OpampModel| {
        Box::new(NonInvertingAmplifier::new(m, Ohms::new(1_000.0), Ohms::new(1_000.0)).unwrap())
            as Box<dyn nfbist_analog::dut::Dut>
    };
    let mut setup = BistSetup::quick(5);
    setup.samples = 1 << 15;
    setup.nfft = 1_024;
    let bist = MultipointBist::new(
        setup,
        vec![
            stage(OpampModel::op27()),
            stage(OpampModel::tl081()),
            stage(OpampModel::ca3140()),
        ],
    )
    .unwrap();
    let sequential = bist.measure_all().unwrap();
    let parallel = BatchPlan::new().workers(3).run_multipoint(&bist).unwrap();
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.stage, p.stage);
        assert_eq!(s.nf.y.to_bits(), p.nf.y.to_bits());
        assert_eq!(s.nf.figure.db().to_bits(), p.nf.figure.db().to_bits());
        assert_eq!(s.expected_nf_db.to_bits(), p.expected_nf_db.to_bits());
    }
}

/// Coverage-campaign fan-out: the parallel report must be bit-identical
/// to the sequential `CoverageCampaign::run` for any worker count —
/// including gross-reject cells (±∞ sentinels) and retest escalation.
#[test]
fn coverage_campaign_parallel_report_matches_sequential() {
    use nfbist_soc::coverage::{CoverageCampaign, FaultUniverse};
    use nfbist_soc::screening::{RetestPolicy, Screen};

    let mut setup = BistSetup::quick(23);
    setup.samples = 1 << 13;
    setup.nfft = 1_024;
    let universe = FaultUniverse::new()
        .input_attenuation(&[2.0])
        .unwrap()
        .gain_deviation(&[0.5])
        .unwrap()
        .interference(&[(500.0, 50.0)]) // gross: degenerates on purpose
        .unwrap();
    // Limit at the TL081's healthy expectation + margin (the campaign
    // default DUT).
    let expected =
        NonInvertingAmplifier::new(OpampModel::tl081(), Ohms::new(10_000.0), Ohms::new(100.0))
            .unwrap()
            .expected_noise_figure_db(Ohms::new(2_000.0), 100.0, 1_000.0)
            .unwrap();
    let campaign =
        CoverageCampaign::new(setup, Screen::new(expected + 1.2, 3.0).unwrap(), universe)
            .unwrap()
            .trials(3)
            .retest(RetestPolicy::new(2, 2).unwrap());
    let sequential = campaign.run().unwrap();
    for workers in [1usize, 2, 4] {
        let parallel = BatchPlan::new()
            .workers(workers)
            .run_coverage(&campaign)
            .unwrap();
        assert_eq!(
            sequential, parallel,
            "coverage report differs at {workers} workers"
        );
    }
    // And the cells really exercised the interesting outcomes: gross
    // rejects in the swamped class, no detections in the NF-blind one
    // (marginal cells may exhaust the round budget, but never Fail).
    assert!(sequential.class("interference").unwrap().gross > 0);
    assert_eq!(sequential.class("gain_deviation").unwrap().detected, 0);
}

#[test]
fn streaming_session_is_bit_identical_across_worker_counts() {
    // A session streaming 1 024-sample chunks, fanned across 1 and 3
    // workers, must recombine to the same bits — and to the sequential
    // run.
    let mut setup = BistSetup::quick(17);
    setup.samples = 1 << 14;
    setup.nfft = 1_024;
    let session = MeasurementSession::new(setup)
        .expect("session")
        .dut(
            NonInvertingAmplifier::new(OpampModel::tl081(), Ohms::new(10_000.0), Ohms::new(100.0))
                .expect("dut"),
        )
        .repeats(4)
        .streaming_chunk_len(1_024);
    let sequential = session.run().expect("sequential run");
    for workers in [1usize, 3] {
        let fanned = BatchPlan::new()
            .workers(workers)
            .run_session(&session)
            .expect("fanned run");
        assert_eq!(fanned.nf.y.to_bits(), sequential.nf.y.to_bits());
        assert_eq!(
            fanned.nf_spread_db.to_bits(),
            sequential.nf_spread_db.to_bits()
        );
        for (a, b) in fanned.repeats.iter().zip(&sequential.repeats) {
            assert_eq!(a.ratio.ratio.to_bits(), b.ratio.ratio.to_bits());
        }
    }
}

#[test]
fn freqresp_parallel_points_match_sequential() {
    // Sweep points fan out across workers while each point's repeats
    // run as SoA Goertzel lanes; the assembled measurement must be
    // bit-identical to the sequential sweep for any worker count.
    use nfbist_analog::component::Amplifier;
    use nfbist_soc::freqresp::FrequencyResponseTester;

    let tester = FrequencyResponseTester::new(
        20_000.0,
        6_000,
        0.25,
        1.0,
        vec![400.0, 1_000.0, 2_500.0, 5_000.0],
        13,
    )
    .expect("tester")
    .repeats(3);
    let dut = Amplifier::ideal(4.0)
        .expect("dut")
        .with_bandwidth(2_000.0, 20_000.0)
        .expect("bandwidth");
    let sequential = tester.measure(&dut).expect("sequential sweep");
    for workers in [1usize, 2, 4] {
        let fanned = BatchPlan::new()
            .workers(workers)
            .run_freqresp(&tester, &dut)
            .expect("fanned sweep");
        assert_eq!(fanned.response.len(), sequential.response.len());
        for ((fa, ga), (fb, gb)) in fanned.response.iter().zip(&sequential.response) {
            assert_eq!(fa.to_bits(), fb.to_bits(), "frequency at {workers} workers");
            assert_eq!(ga.to_bits(), gb.to_bits(), "gain at {workers} workers");
        }
        assert_eq!(
            fanned.corner_hz.map(f64::to_bits),
            sequential.corner_hz.map(f64::to_bits),
            "{workers} workers"
        );
    }
}
