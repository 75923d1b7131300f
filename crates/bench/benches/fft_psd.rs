//! Criterion bench: FFT and Welch PSD throughput — the SoC processing
//! cost side of the paper's resource-reuse argument.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nfbist_analog::noise::WhiteNoise;
use nfbist_dsp::complex::Complex64;
use nfbist_dsp::fft::{ArbitraryFft, Fft, RealFft};
use nfbist_dsp::psd::WelchConfig;

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[1_024usize, 4_096, 16_384] {
        let plan = Fft::new(n).expect("plan");
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), 0.0))
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("radix2", n), &n, |b, _| {
            b.iter(|| plan.forward(&x).expect("forward"));
        });
    }
    // The paper's exact size, 10⁴ points: Bluestein on complex input,
    // and the mixed-radix real engine the PSD estimators run there.
    let n = 10_000;
    let plan = ArbitraryFft::new(n).expect("plan");
    let x: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), 0.0))
        .collect();
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("bluestein/10000", |b| {
        b.iter(|| plan.forward(&x).expect("forward"));
    });
    let real_plan = RealFft::new(n).expect("plan");
    let xr: Vec<f64> = x.iter().map(|z| z.re).collect();
    let mut one_sided = vec![Complex64::ZERO; real_plan.output_len()];
    group.bench_function("real/10000", |b| {
        b.iter(|| {
            real_plan
                .forward_into(&xr, &mut one_sided)
                .expect("forward")
        });
    });
    group.finish();
}

/// Real-input transform: the packed one-sided engine vs widening to a
/// full N-point complex transform (the PR 2 path).
fn bench_fft_real_vs_complex(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_real");
    for &n in &[1_024usize, 4_096, 16_384] {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        group.throughput(Throughput::Elements(n as u64));

        let complex_plan = Fft::new(n).expect("plan");
        let mut full = vec![Complex64::ZERO; n];
        group.bench_with_input(BenchmarkId::new("complex_full", n), &n, |b, _| {
            b.iter(|| complex_plan.forward_real_into(&x, &mut full).expect("fft"));
        });

        let real_plan = RealFft::new(n).expect("plan");
        let mut one_sided = vec![Complex64::ZERO; real_plan.output_len()];
        group.bench_with_input(BenchmarkId::new("real_packed", n), &n, |b, _| {
            b.iter(|| real_plan.forward_into(&x, &mut one_sided).expect("fft"));
        });
    }
    group.finish();
}

fn bench_welch(c: &mut Criterion) {
    let fs = 20_000.0;
    let x = WhiteNoise::new(1.0, 1).expect("noise").generate(200_000);
    let mut group = c.benchmark_group("welch");
    group.throughput(Throughput::Elements(x.len() as u64));
    for &nfft in &[1_024usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("segment", nfft), &nfft, |b, &nfft| {
            let cfg = WelchConfig::new(nfft).expect("config");
            b.iter(|| cfg.estimate(&x, fs).expect("estimate"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fft, bench_fft_real_vs_complex, bench_welch);
criterion_main!(benches);
