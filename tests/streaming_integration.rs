//! End-to-end chunked acquisition: the session's chain (source → DUT
//! → conditioning → digitizer → streaming estimator) at the workspace
//! level where every crate's streaming piece composes. Each `batch`
//! below is the session run at its default chunk; the session's own
//! tests pin that run to the materialized whole-record reference.
//!
//! The contract under test: for the same seed, measurements are
//! **bitwise identical** (`f64::to_bits`) for every chunk size —
//! including chunk sizes smaller than, equal to, and non-divisors of
//! the Welch segment length — and for healthy and faulted DUTs alike.

use nfbist_analog::circuits::NonInvertingAmplifier;
use nfbist_analog::fault::{AnalogFault, FaultyDut};
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::units::Ohms;
use nfbist_runtime::BatchPlan;
use nfbist_soc::session::MeasurementSession;
use nfbist_soc::setup::BistSetup;

fn paper_dut(opamp: OpampModel) -> NonInvertingAmplifier {
    NonInvertingAmplifier::new(opamp, Ohms::new(10_000.0), Ohms::new(100.0))
        .expect("paper DUT values are valid")
}

fn reduced_setup(seed: u64) -> BistSetup {
    let mut setup = BistSetup::quick(seed);
    setup.samples = 1 << 15;
    setup.nfft = 2_048;
    setup
}

#[test]
fn one_bit_streaming_session_matches_batch_at_scale() {
    let setup = reduced_setup(3);
    let build = || {
        MeasurementSession::new(setup.clone())
            .expect("session")
            .dut(paper_dut(OpampModel::tl081()))
            .repeats(2)
    };
    let batch = build().run().expect("batch run");
    // The chunk sizes of the acceptance criterion: below, at, and off
    // the 2048-point segment length.
    for chunk in [1_000usize, 2_048, 2_049, 5_000] {
        let streamed = build()
            .streaming_chunk_len(chunk)
            .run()
            .expect("streaming run");
        assert_eq!(
            streamed.nf.y.to_bits(),
            batch.nf.y.to_bits(),
            "chunk {chunk}"
        );
        assert_eq!(
            streamed.nf.figure.db().to_bits(),
            batch.nf.figure.db().to_bits()
        );
        assert_eq!(
            streamed.nf_spread_db.to_bits(),
            batch.nf_spread_db.to_bits()
        );
        for (s, b) in streamed.repeats.iter().zip(&batch.repeats) {
            assert_eq!(s.ratio.ratio.to_bits(), b.ratio.ratio.to_bits());
        }
        // The 1-bit intermediates survive streaming estimation intact.
        let sd = streamed.one_bit_detail().expect("one-bit detail");
        let bd = batch.one_bit_detail().expect("one-bit detail");
        assert_eq!(
            sd.normalization.scale.to_bits(),
            bd.normalization.scale.to_bits()
        );
        assert_eq!(sd.hot_spectrum.density(), bd.hot_spectrum.density());
    }
}

#[test]
fn faulty_dut_streams_through_the_buffered_fallback() {
    // FaultyDut streams through its own incremental FaultyDutStream:
    // the healthy amplifier's stream with the fault stages (here the
    // excess-noise overlay, a second ShapedNoise generator) applied
    // chunk by chunk, which must still be bit-identical to the
    // reference run.
    let setup = reduced_setup(5);
    let build = || {
        let dut = FaultyDut::new(paper_dut(OpampModel::tl081()))
            .with_fault(AnalogFault::ExcessNoise { factor: 2.0 })
            .expect("fault");
        MeasurementSession::new(setup.clone())
            .expect("session")
            .dut(dut)
    };
    let batch = build().run().expect("batch run");
    let streamed = build()
        .streaming_chunk_len(1_024)
        .run()
        .expect("streaming run");
    assert_eq!(streamed.nf.y.to_bits(), batch.nf.y.to_bits());
    // The defect still shows up, streamed or not.
    assert!(streamed.nf.figure.db() > streamed.expected_nf_db + 2.0);
}

#[test]
fn streaming_monte_carlo_fans_out_bit_identically() {
    // Whole streaming sessions as Monte Carlo trials across workers.
    let plan_seq = BatchPlan::sequential();
    let plan_par = BatchPlan::new().workers(3);
    let build = |trial: usize| {
        let setup = reduced_setup(nfbist_runtime::batch::derive_seed(11, trial as u64));
        Ok(MeasurementSession::new(setup)?
            .dut(paper_dut(OpampModel::tl081()))
            .streaming_chunk_len(1_024))
    };
    let seq = plan_seq.run_monte_carlo(4, build).expect("sequential");
    let par = plan_par.run_monte_carlo(4, build).expect("parallel");
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.measurements().iter().zip(par.measurements()) {
        assert_eq!(a.nf.y.to_bits(), b.nf.y.to_bits());
    }
    assert_eq!(
        seq.mean_nf_db().unwrap().to_bits(),
        par.mean_nf_db().unwrap().to_bits()
    );
}
