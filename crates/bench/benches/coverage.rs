//! Criterion bench for the defect-coverage campaign engine: a small
//! fault universe screened end to end (session → screen → retest),
//! sequential vs fanned across workers, plus the per-cell cost of
//! fault injection itself (a faulted session vs a healthy one).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nfbist_analog::circuits::NonInvertingAmplifier;
use nfbist_analog::fault::{AnalogFault, FaultyDut};
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::units::Ohms;
use nfbist_runtime::{BatchPlan, WorkQueue};
use nfbist_soc::coverage::{CoverageCampaign, FaultUniverse};
use nfbist_soc::screening::Screen;
use nfbist_soc::session::MeasurementSession;
use nfbist_soc::setup::BistSetup;

fn tl081_expected_nf_db() -> f64 {
    NonInvertingAmplifier::new(OpampModel::tl081(), Ohms::new(10_000.0), Ohms::new(100.0))
        .expect("dut")
        .expected_noise_figure_db(Ohms::new(2_000.0), 100.0, 1_000.0)
        .expect("expected NF")
}

fn small_campaign() -> CoverageCampaign {
    let setup = BistSetup {
        samples: 1 << 14,
        nfft: 1_024,
        ..BistSetup::paper_prototype(77)
    };
    let universe = FaultUniverse::new()
        .input_attenuation(&[2.0])
        .expect("grid")
        .excess_noise(&[4.0])
        .expect("grid");
    CoverageCampaign::new(
        setup,
        Screen::new(tl081_expected_nf_db() + 1.2, 3.0).expect("screen"),
        universe,
    )
    .expect("campaign")
    .trials(4)
}

/// Whole-campaign throughput: 12 cells (3 variants × 4 trials),
/// sequential vs all-core fan-out. Output is bit-identical either way;
/// only the wall clock moves.
fn bench_campaign_throughput(c: &mut Criterion) {
    let campaign = small_campaign();
    let cells = campaign.cell_count() as u64;
    let all_cores = WorkQueue::with_available_parallelism().workers();

    let mut group = c.benchmark_group("coverage");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cells));
    for workers in [1usize, all_cores.max(2)] {
        group.bench_with_input(
            BenchmarkId::new("campaign_workers", workers),
            &workers,
            |b, &workers| {
                let plan = BatchPlan::new().workers(workers);
                b.iter(|| plan.run_coverage(&campaign).expect("campaign"));
            },
        );
    }
    group.finish();
}

/// The overhead of the fault wrapper on one measurement: a healthy
/// session vs the same session with an injected excess-noise fault
/// (which synthesizes one extra shaped-noise stream per acquisition).
fn bench_faulty_session_overhead(c: &mut Criterion) {
    let setup = BistSetup {
        samples: 1 << 14,
        nfft: 1_024,
        ..BistSetup::paper_prototype(78)
    };
    let dut = || {
        NonInvertingAmplifier::new(OpampModel::tl081(), Ohms::new(10_000.0), Ohms::new(100.0))
            .expect("dut")
    };

    let mut group = c.benchmark_group("coverage");
    group.sample_size(10);
    group.bench_function("session_healthy", |b| {
        let session = MeasurementSession::new(setup.clone())
            .expect("session")
            .dut(dut());
        b.iter(|| session.run().expect("run"));
    });
    group.bench_function("session_excess_noise_fault", |b| {
        let session = MeasurementSession::new(setup.clone())
            .expect("session")
            .dut(
                FaultyDut::new(dut())
                    .with_fault(AnalogFault::ExcessNoise { factor: 4.0 })
                    .expect("fault"),
            );
        b.iter(|| session.run().expect("run"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_campaign_throughput,
    bench_faulty_session_overhead
);
criterion_main!(benches);
