//! Criterion bench for the two layers of the batch-execution redesign:
//!
//! 1. **Welch hot path** at the paper's record size (10⁶ samples,
//!    10⁴-point segments): the per-call allocating entry point vs the
//!    workspace-reuse `estimate_into` path (zero planning, zero
//!    allocation in steady state).
//! 2. **Batch throughput**: a Monte Carlo batch of independent
//!    measurement sessions, sequential (1 worker) vs all-core fan-out
//!    through `nfbist-runtime`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nfbist_analog::bitstream::Bitstream;
use nfbist_analog::converter::{AdcDigitizer, OneBitDigitizer};
use nfbist_analog::noise::WhiteNoise;
use nfbist_core::power_ratio::PsdRatioEstimator;
use nfbist_dsp::psd::{DspWorkspace, WelchConfig};
use nfbist_runtime::batch::{derive_seed, BatchPlan};
use nfbist_runtime::WorkQueue;
use nfbist_soc::session::MeasurementSession;
use nfbist_soc::setup::BistSetup;

/// The paper's processing load: 10⁶ samples through 10⁴-point Welch
/// segments (199 mixed-radix real FFTs per estimate).
fn bench_welch_workspace_vs_allocating(c: &mut Criterion) {
    let samples = 1_000_000;
    let nfft = 10_000;
    let fs = 20_000.0;
    let x = WhiteNoise::new(1.0, 42).expect("noise").generate(samples);
    let cfg = WelchConfig::new(nfft).expect("config");

    let mut group = c.benchmark_group("welch_paper_size");
    group.throughput(Throughput::Elements(samples as u64));
    group.bench_function("allocating_per_call", |b| {
        b.iter(|| cfg.estimate(&x, fs).expect("estimate"));
    });
    group.bench_function("workspace_reuse", |b| {
        let mut ws = DspWorkspace::new();
        let mut out = vec![0.0f64; nfft / 2 + 1];
        // Warm the plan cache once so the measured loop is steady-state.
        cfg.estimate_into(&x, fs, &mut ws, &mut out)
            .expect("warm-up");
        b.iter(|| {
            cfg.estimate_into(&x, fs, &mut ws, &mut out)
                .expect("estimate")
        });
    });
    group.finish();
}

/// Monte Carlo batch throughput: whole trials fanned across workers.
/// On a multi-core host the N-worker row divides the sequential wall
/// clock by ~min(N, trials); output is bit-identical either way.
fn bench_batch_throughput(c: &mut Criterion) {
    let trials = 8usize;
    // ADC front-end + PSD-ratio estimator: Welch FFTs dominate the
    // cost (as in the paper's processing), and the scale-preserving
    // path has no reference-line tracking to degenerate at reduced
    // record lengths, so every derived trial seed is valid.
    let build = |t: usize| {
        let setup = BistSetup {
            samples: 1 << 15,
            nfft: 1_024,
            ..BistSetup::paper_prototype(derive_seed(7, t as u64))
        };
        let estimator = PsdRatioEstimator::new(setup.sample_rate, setup.nfft, setup.noise_band)?;
        Ok(MeasurementSession::new(setup)?
            .digitizer(AdcDigitizer::new(12)?)
            .estimator(estimator))
    };

    let all_cores = WorkQueue::with_available_parallelism().workers();
    let mut group = c.benchmark_group("monte_carlo_batch");
    group.throughput(Throughput::Elements(trials as u64));
    for workers in [1usize, all_cores.max(2)] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let plan = BatchPlan::new().workers(workers);
                b.iter(|| plan.run_monte_carlo(trials, build).expect("batch"));
            },
        );
    }
    group.finish();
}

/// One-bit autocorrelation at the paper's record size: XOR+popcount on
/// the packed words vs expanding to ±1 floats and multiplying (the
/// pre-bit-kernel path). The two produce bit-identical lag estimates.
fn bench_onebit_autocorr_popcount_vs_float(c: &mut Criterion) {
    use nfbist_dsp::correlation::{autocorrelation, Bias};

    let n = 1_000_000;
    let max_lag = 64;
    let x = WhiteNoise::new(1.0, 11).expect("noise").generate(n);
    let bits: Bitstream = OneBitDigitizer::ideal().digitize_sign(&x).expect("bits");

    let mut group = c.benchmark_group("onebit_autocorr");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("float_expand_direct", |b| {
        b.iter(|| autocorrelation(&bits.to_bipolar(), max_lag, Bias::Biased).expect("float"));
    });
    group.bench_function("popcount", |b| {
        b.iter(|| {
            bits.autocorrelation(max_lag, Bias::Biased)
                .expect("popcount")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_welch_workspace_vs_allocating,
    bench_batch_throughput,
    bench_onebit_autocorr_popcount_vs_float
);
criterion_main!(benches);
