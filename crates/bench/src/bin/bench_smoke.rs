//! Quick perf smoke for the spectral and bit-domain hot paths,
//! recording the perf trajectory (the PR 3 speedups, the PR 5
//! streaming case, the PR 6 fleet lot screen, and the PR 7 SIMD
//! dispatch arms) as a JSON point.
//!
//! Each case records the `workers` it ran with and the SIMD `dispatch`
//! arm that was active, so a result is interpretable on its own — the
//! PR 6 wafer case's ~1.0x "speedup" turned out to be exactly such a
//! context artifact: on a 1-core host `available_parallelism()` hands
//! the fleet queue a single worker, so the case measures scheduler
//! overhead, not fan-out (see its baseline note).
//!
//! Five engine comparisons, each new-engine vs the baseline it
//! replaced or competes with (baselines are reconstructed from the
//! still-public primitives, so the comparison stays honest after the
//! estimators themselves moved on):
//!
//! 0. **Fleet lot screening** — the parallel, memory-gated
//!    `FleetPlan::screen_lot` vs the sequential die loop
//!    (`LotScreen::run`). Runs first, before anything materializes a
//!    big record, and proves the fleet engine's memory bound: after
//!    screening one lot, screening a lot with 4x the dies must grow
//!    peak RSS by a small fraction of the larger lot's *total*
//!    transient cost (asserted — the gate, not the lot size, sets the
//!    peak), and the budgeted parallel report must equal the
//!    sequential one bit for bit.
//! 1. **Streaming Welch at 2²⁴ samples** — chunked `WelchAccumulator`
//!    vs the batch estimator over a materialized record. Proves
//!    bounded memory: the chunked pass's peak-RSS growth
//!    must stay a small fraction of the 128 MiB record (asserted), and
//!    the two estimates must agree bit for bit.
//! 2. **Welch at the paper's record class** — a 2²⁰-sample record
//!    through 4096-point Hann segments: workspace `estimate_into`
//!    (packed real FFT, one-sided spectrum) vs the PR 2 path (full
//!    `N`-point complex FFT per segment).
//! 3. **Single transform** — `RealFft::forward_into` vs
//!    `Fft::forward_real_into` at 4096 points.
//! 4. **One-bit autocorrelation** — XOR+popcount on the packed words
//!    vs expand-to-±1 + float lag products.
//!
//! Then five SIMD-dispatch comparisons (PR 7), one per ported hot
//! kernel, timing the best available arm against the same kernel
//! forced onto the scalar arm (`SimdArm::Scalar`) — on a scalar-only
//! host both sides run the same code and the speedup sits at ~1.0:
//!
//! 5. **Welch segment conditioning** — detrend subtract + window MAC.
//! 6. **Real-FFT butterflies** — a whole 4096-point `RealFft` forward.
//! 7. **Goertzel bank** — 8 simultaneous bins across SIMD lanes.
//! 8. **Bipolar expansion** — packed words to ±1.0 samples.
//! 9. **XOR+popcount lag** — the bit-domain autocorrelation kernel.
//!
//! And one decision-engine comparison (PR 9):
//!
//! 10. **Adaptive lot screening** — the sequential early-stopping
//!     engine (`LotScreen::adaptive`) vs the fixed schedule on the
//!     same lot at the same record cap: the wall-clock realization of
//!     the mean test-time reduction that `exp_coverage --adaptive`
//!     reports in samples.
//!
//! And one monitoring comparison (PR 10):
//!
//! 11. **Windowed NF emissions** — the monitoring hot loop's
//!     `SlidingWelch` (ring update + zero-alloc finalize at every
//!     emission) vs recomputing a batch Welch estimate over the
//!     retained span at every emission point; the two emission series
//!     are asserted bit-identical before timing.
//!
//! And one transform at the paper's segment size:
//!
//! 12. **10⁴-point real FFT** — `RealFft::forward_into` on its
//!     mixed-radix path vs Bluestein's `ArbitraryFft::forward_real_into`,
//!     which the PSD estimators used at this size before; every bin is
//!     asserted to agree within 1e-12 of the largest before timing.
//!
//! Usage: `bench_smoke [--json [PATH]] [--reps N] [--assert-simd]`.
//! With `--json` the results are written to `PATH` (default
//! `BENCH_pr10.json`); the JSON `cases` keys (`name`, `baseline`,
//! `baseline_ns`, `new_ns`, `speedup`, `workers`, `dispatch`) are
//! exactly the README perf-table columns, so the table regenerates
//! field for field. `--assert-simd` exits nonzero unless a vector arm
//! (AVX2/NEON) is actually dispatching — CI uses it to prove the
//! runner exercised the SIMD arms rather than silently falling back.

use std::time::Instant;

use nfbist_analog::bitstream::Bitstream;
use nfbist_analog::converter::OneBitDigitizer;
use nfbist_analog::noise::WhiteNoise;
use nfbist_bench::peak_rss_bytes;
use nfbist_dsp::complex::Complex64;
use nfbist_dsp::correlation::{autocorrelation, Bias};
use nfbist_dsp::fft::{ArbitraryFft, Fft, RealFft};
use nfbist_dsp::psd::{DspWorkspace, WelchConfig};
use nfbist_dsp::window::Window;

struct Case {
    name: &'static str,
    baseline: &'static str,
    baseline_ns: f64,
    new_ns: f64,
    /// Worker threads the "new" side ran with (1 for single-threaded
    /// kernels) — the PR 6 wafer case is only interpretable next to
    /// this number.
    workers: usize,
    /// SIMD arm the "new" side dispatched to (`avx2`/`neon`/`scalar`).
    dispatch: &'static str,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.baseline_ns / self.new_ns
    }
}

/// Mean wall-clock nanoseconds per call over `reps` calls (after one
/// warm-up call).
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

/// The PR 2 Welch inner loop: full `N`-point complex FFT per segment,
/// reconstructed from the public complex primitives with its scratch
/// state planned once up front (mirroring what `PsdPlan` cached then).
struct WelchComplexBaseline {
    fs: f64,
    coeffs: Vec<f64>,
    window_power: f64,
    fft: Fft,
    seg: Vec<f64>,
    spec: Vec<Complex64>,
}

impl WelchComplexBaseline {
    fn new(nfft: usize, fs: f64) -> Self {
        let coeffs = Window::Hann.coefficients(nfft);
        let window_power = coeffs.iter().map(|w| w * w).sum();
        WelchComplexBaseline {
            fs,
            coeffs,
            window_power,
            fft: Fft::new(nfft).expect("baseline plan"),
            seg: vec![0.0; nfft],
            spec: vec![Complex64::ZERO; nfft],
        }
    }

    fn estimate_into(&mut self, x: &[f64], out: &mut [f64]) {
        let nfft = self.seg.len();
        out.fill(0.0);
        let hop = nfft / 2;
        let mut segments = 0usize;
        let mut start = 0usize;
        while start + nfft <= x.len() {
            self.seg.copy_from_slice(&x[start..start + nfft]);
            for (v, w) in self.seg.iter_mut().zip(&self.coeffs) {
                *v *= w;
            }
            self.fft
                .forward_real_into(&self.seg, &mut self.spec)
                .expect("baseline fft");
            let base = 1.0 / (self.fs * self.window_power);
            for (k, (a, z)) in out.iter_mut().zip(self.spec.iter()).enumerate() {
                let mut d = z.norm_sqr() * base;
                if k != 0 && k != nfft / 2 {
                    d *= 2.0;
                }
                *a += d;
            }
            segments += 1;
            start += hop;
        }
        let inv = 1.0 / segments as f64;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }
}

/// A small wafer-lot screening for the fleet case: defects over a
/// disc, 2^13-sample dies, the TL081 production screen with one
/// retest round of 2x escalation.
fn lot_screening(grid: usize) -> nfbist_soc::fleet::LotScreen {
    use nfbist_analog::circuits::NonInvertingAmplifier;
    use nfbist_analog::opamp::OpampModel;
    use nfbist_analog::units::Ohms;
    use nfbist_analog::wafer::{DefectModel, Lot, ProcessVariation, WaferMap};
    use nfbist_soc::coverage::FaultUniverse;
    use nfbist_soc::fleet::LotScreen;
    use nfbist_soc::screening::{RetestPolicy, Screen};
    use nfbist_soc::setup::BistSetup;

    let lot = Lot::new(
        WaferMap::disc(grid).expect("wafer"),
        ProcessVariation::default(),
        DefectModel::new()
            .background(0.08)
            .expect("background")
            .edge_gradient(0.20)
            .expect("edge"),
        20_050_307,
    )
    .expect("lot");
    let mut setup = BistSetup::quick(0);
    setup.samples = 1 << 13;
    setup.nfft = 1_024;
    let expected =
        NonInvertingAmplifier::new(OpampModel::tl081(), Ohms::new(10_000.0), Ohms::new(100.0))
            .expect("dut")
            .expected_noise_figure_db(Ohms::new(2_000.0), 100.0, 1_000.0)
            .expect("expected NF");
    LotScreen::new(
        lot,
        setup,
        Screen::new(expected + 1.2, 3.0).expect("screen"),
        FaultUniverse::new()
            .excess_noise(&[2.0, 8.0])
            .expect("universe"),
    )
    .expect("lot screen")
    .retest(RetestPolicy::new(2, 2).expect("policy"))
}

/// The PR 9 comparison pair: the same defective lot at a 2^15-sample
/// cap, screened either by the fixed schedule (with one 2x retest
/// escalation round) or by the sequential early-stopping engine at
/// its operating point (limit +2.5 dB, 2-sigma guard, first
/// checkpoint at 2^12).
fn decision_lot_screening(grid: usize, adaptive: bool) -> nfbist_soc::fleet::LotScreen {
    use nfbist_analog::circuits::NonInvertingAmplifier;
    use nfbist_analog::opamp::OpampModel;
    use nfbist_analog::units::Ohms;
    use nfbist_analog::wafer::{DefectModel, Lot, ProcessVariation, WaferMap};
    use nfbist_soc::coverage::FaultUniverse;
    use nfbist_soc::fleet::LotScreen;
    use nfbist_soc::screening::{RetestPolicy, Screen, SequentialScreen};
    use nfbist_soc::setup::BistSetup;

    let lot = Lot::new(
        WaferMap::disc(grid).expect("wafer"),
        ProcessVariation::default(),
        DefectModel::new()
            .background(0.08)
            .expect("background")
            .edge_gradient(0.20)
            .expect("edge"),
        20_050_307,
    )
    .expect("lot");
    let mut setup = BistSetup::quick(0);
    setup.samples = 1 << 15;
    setup.nfft = 1_024;
    let expected =
        NonInvertingAmplifier::new(OpampModel::tl081(), Ohms::new(10_000.0), Ohms::new(100.0))
            .expect("dut")
            .expected_noise_figure_db(Ohms::new(2_000.0), 100.0, 1_000.0)
            .expect("expected NF");
    let screen = Screen::new(expected + 2.5, 2.0).expect("screen");
    let screening = LotScreen::new(
        lot,
        setup,
        screen,
        FaultUniverse::new()
            .excess_noise(&[2.0, 8.0])
            .expect("universe"),
    )
    .expect("lot screen");
    if adaptive {
        screening.adaptive(
            SequentialScreen::new(screen, 0.05, 0.05)
                .expect("sequential rule")
                .min_samples(1 << 12),
        )
    } else {
        screening.retest(RetestPolicy::new(2, 2).expect("policy"))
    }
}

fn run(reps: usize) -> Vec<Case> {
    let mut cases = Vec::new();
    let fs = 20_000.0;

    // --- Case 0 (first, before anything materializes a large record
    // that would lift the VmHWM high-water mark and mask the proof):
    // fleet lot screening, parallel + memory-gated vs sequential.
    {
        use nfbist_runtime::fleet::FleetPlan;

        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let small = lot_screening(8); // ~50 dies
        let large = lot_screening(16); // ~4x the dies
        let die_cost = large.die_cost_bytes();
        let budget = 2 * die_cost;
        let plan = FleetPlan::workers(workers).memory_budget(budget);

        // RSS proof: VmHWM is monotone, so screen the small lot first
        // to establish the working-set peak, then the 4x lot. The
        // *additional* peak growth must stay a small fraction of the
        // larger lot's total transient cost — the gate (2 dies in
        // flight), not the lot size, sets the peak.
        let rss_before = peak_rss_bytes();
        let report_small = plan.screen_lot(&small).expect("small lot");
        let rss_small = peak_rss_bytes();
        let report_large = plan.screen_lot(&large).expect("large lot");
        let rss_large = peak_rss_bytes();
        let large_total = large.dies() * die_cost;
        if let (Some(mid), Some(after)) = (rss_small, rss_large) {
            let delta = after.saturating_sub(mid);
            assert!(
                delta < (large_total / 8) as u64,
                "screening 4x the dies grew peak RSS by {delta} B — not bounded \
                 (the lot's total transient cost is {large_total} B)"
            );
        }

        // Determinism: the budgeted parallel report must carry the
        // same bits as the sequential die loop.
        let sequential = small.run().expect("sequential run");
        assert_eq!(report_small, sequential, "parallel lot != sequential lot");

        let new_ns = time_ns(reps, || plan.screen_lot(&small).expect("fleet"));
        let baseline_ns = time_ns(reps, || small.run().expect("sequential"));
        match (rss_before, rss_small, rss_large) {
            (Some(b), Some(m), Some(a)) => println!(
                "fleet RSS proof: small lot ({} dies) peaked at {:.1} MiB, the 4x lot \
                 ({} dies, {:.0} MiB total transient) added {:.1} MiB on top",
                small.dies(),
                m.saturating_sub(b) as f64 / (1 << 20) as f64,
                large.dies(),
                large_total as f64 / (1 << 20) as f64,
                a.saturating_sub(m) as f64 / (1 << 20) as f64,
            ),
            _ => println!("fleet RSS proof: /proc not available, skipped"),
        }
        drop(report_large);
        cases.push(Case {
            name: "wafer_lot_grid8_screen",
            // PR 6 recorded ~1.0x here and PR 7 ran it down: it is not
            // WorkQueue steal overhead drowning the per-die cost — on a
            // 1-core host available_parallelism() is 1, so the fleet
            // queue gets a single worker and the case degenerates to
            // sequential-vs-sequential (gate never contended). The
            // workers field now records that context with the number.
            baseline: "sequential die loop (LotScreen::run); ~1.0x is expected when \
                       workers=1 (1-core host): the queue degenerates to the \
                       sequential loop and only scheduler overhead is measured",
            baseline_ns,
            new_ns,
            workers,
            dispatch: nfbist_dsp::simd::active_arm().name(),
        });
    }

    // --- Case 1: streaming vs batch Welch over a 2^24-sample record.
    //
    // The streaming pass generates the record chunk by chunk straight
    // into `WelchAccumulator` — the 128 MiB record never exists — and
    // its peak-RSS delta must stay bounded by the chunk/segment
    // working set, not the record length. The batch pass then
    // materializes the same record; both estimates must agree to the
    // last bit.
    {
        use nfbist_dsp::psd::WelchAccumulator;

        let samples = 1usize << 24;
        let nfft = 4_096;
        let chunk = 1usize << 16;
        let record_bytes = samples * std::mem::size_of::<f64>();
        let cfg = WelchConfig::new(nfft).expect("config").window(Window::Hann);

        // RSS proof: one full bounded-memory pass, record never built.
        let rss_before = peak_rss_bytes();
        let mut sw = WelchAccumulator::cumulative(cfg.clone(), fs).expect("streaming");
        let mut gen = WhiteNoise::new(1.0, 42).expect("noise");
        let mut fed = 0usize;
        while fed < samples {
            let m = chunk.min(samples - fed);
            sw.push(&gen.generate(m)).expect("push");
            fed += m;
        }
        let mut out_streamed = vec![0.0f64; nfft / 2 + 1];
        sw.finalize_into(&mut out_streamed).expect("finalize");
        let streaming_peak_delta = match (rss_before, peak_rss_bytes()) {
            (Some(b), Some(a)) => Some(a.saturating_sub(b)),
            _ => None,
        };
        if let Some(delta) = streaming_peak_delta {
            assert!(
                delta < (record_bytes / 8) as u64,
                "streaming pass peak memory grew by {delta} B — not bounded \
                 (record is {record_bytes} B)"
            );
        }

        // Same seed, materialized: the batch estimate must carry the
        // same bits (this is the acceptance check of the PR).
        let x = WhiteNoise::new(1.0, 42).expect("noise").generate(samples);
        let rss_after_record = peak_rss_bytes();
        let mut ws = DspWorkspace::new();
        let mut out_batch = vec![0.0f64; nfft / 2 + 1];
        cfg.estimate_into(&x, fs, &mut ws, &mut out_batch)
            .expect("batch estimate");
        for (s, b) in out_streamed.iter().zip(&out_batch) {
            assert_eq!(s.to_bits(), b.to_bits(), "streaming != batch");
        }

        // Throughput: the pure estimator loop over an existing record
        // (chunked pushes vs one batch call).
        let new_ns = time_ns(reps, || {
            sw.reset();
            for c in x.chunks(chunk) {
                sw.push(c).expect("push");
            }
            sw.finalize_into(&mut out_streamed).expect("finalize")
        });
        let baseline_ns = time_ns(reps, || {
            cfg.estimate_into(&x, fs, &mut ws, &mut out_batch)
                .expect("estimate")
        });
        match (streaming_peak_delta, rss_before, rss_after_record) {
            (Some(delta), Some(_), Some(after)) => println!(
                "streaming RSS proof: peak grew {:.1} MiB during the chunked pass \
                 (record itself is {:.0} MiB; peak after materializing it: {:.0} MiB)",
                delta as f64 / (1 << 20) as f64,
                record_bytes as f64 / (1 << 20) as f64,
                after as f64 / (1 << 20) as f64,
            ),
            _ => println!("streaming RSS proof: /proc not available, skipped"),
        }
        cases.push(Case {
            name: "welch_2pow24_streaming",
            baseline: "batch Welch over a materialized 2^24-sample record",
            baseline_ns,
            new_ns,
            workers: 1,
            dispatch: nfbist_dsp::simd::active_arm().name(),
        });
    }

    // --- Case 2: Welch over a 2^20-sample record, 4096-point segments.
    {
        let samples = 1 << 20;
        let nfft = 4_096;
        let x = WhiteNoise::new(1.0, 42).expect("noise").generate(samples);
        let cfg = WelchConfig::new(nfft).expect("config").window(Window::Hann);
        let mut ws = DspWorkspace::new();
        let mut out_new = vec![0.0f64; nfft / 2 + 1];
        cfg.estimate_into(&x, fs, &mut ws, &mut out_new)
            .expect("warm-up");

        let mut baseline = WelchComplexBaseline::new(nfft, fs);
        let mut out_base = vec![0.0f64; nfft / 2 + 1];
        baseline.estimate_into(&x, &mut out_base);
        // The two engines must agree on the estimate itself.
        for (a, b) in out_new.iter().zip(&out_base) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "engines disagree");
        }

        let new_ns = time_ns(reps, || {
            cfg.estimate_into(&x, fs, &mut ws, &mut out_new)
                .expect("estimate")
        });
        let baseline_ns = time_ns(reps, || baseline.estimate_into(&x, &mut out_base));
        cases.push(Case {
            name: "welch_2pow20_nfft4096",
            baseline: "full complex-FFT segments (PR 2 path)",
            baseline_ns,
            new_ns,
            workers: 1,
            dispatch: nfbist_dsp::simd::active_arm().name(),
        });
    }

    // --- Case 3: one 4096-point transform, real vs complex engine.
    {
        let n = 4_096;
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.37).sin() + 0.2).collect();
        let real_plan = RealFft::new(n).expect("real plan");
        let complex_plan = Fft::new(n).expect("complex plan");
        let mut one_sided = vec![Complex64::ZERO; real_plan.output_len()];
        let mut full = vec![Complex64::ZERO; n];
        let new_ns = time_ns(reps * 64, || {
            real_plan
                .forward_into(&x, &mut one_sided)
                .expect("real fft")
        });
        let baseline_ns = time_ns(reps * 64, || {
            complex_plan
                .forward_real_into(&x, &mut full)
                .expect("complex fft")
        });
        cases.push(Case {
            name: "fft_real_vs_complex_4096",
            baseline: "Fft::forward_real_into (full N-point complex)",
            baseline_ns,
            new_ns,
            workers: 1,
            dispatch: nfbist_dsp::simd::active_arm().name(),
        });
    }

    // --- Case 4: one-bit autocorrelation, popcount vs float.
    {
        let n = 1 << 20;
        let max_lag = 64;
        let x = WhiteNoise::new(1.0, 7).expect("noise").generate(n);
        let bits: Bitstream = OneBitDigitizer::ideal().digitize_sign(&x).expect("bits");
        let popcount = bits
            .autocorrelation(max_lag, Bias::Biased)
            .expect("popcount");
        let float_ref = autocorrelation(&bits.to_bipolar(), max_lag, Bias::Biased).expect("float");
        assert_eq!(popcount, float_ref, "popcount kernel must be bit-exact");

        let new_ns = time_ns(reps, || {
            bits.autocorrelation(max_lag, Bias::Biased)
                .expect("popcount")
        });
        let baseline_ns = time_ns(reps, || {
            autocorrelation(&bits.to_bipolar(), max_lag, Bias::Biased).expect("float")
        });
        cases.push(Case {
            name: "onebit_autocorr_2pow20_lag64",
            baseline: "expand to ±1 + float lag products",
            baseline_ns,
            new_ns,
            workers: 1,
            dispatch: nfbist_dsp::simd::active_arm().name(),
        });
    }

    cases.extend(simd_cases(reps));

    // --- Case 10: the PR 9 sequential decision engine — the same lot
    // at the same 2^15-sample cap, screened adaptively vs by the fixed
    // schedule. The "speedup" here is the wall-clock realization of
    // the mean test-time reduction exp_coverage reports in samples:
    // healthy dies stop as soon as two checkpoints confirm a
    // guard-band-clear estimate, gross rejects as soon as two confirm
    // an unmeasurable one.
    {
        use nfbist_runtime::fleet::FleetPlan;

        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let fixed = decision_lot_screening(8, false);
        let adaptive = decision_lot_screening(8, true);
        let plan = FleetPlan::workers(workers);

        // Determinism self-check before timing: the fanned-out
        // adaptive report (stopping points included) must carry the
        // sequential loop's exact bits.
        let parallel = plan.screen_lot(&adaptive).expect("adaptive lot");
        let sequential = adaptive.run().expect("sequential adaptive lot");
        assert_eq!(parallel, sequential, "adaptive lot != sequential loop");
        // And early stopping must actually bite on this lot.
        assert!(
            parallel.mean_test_samples() < adaptive.fixed_die_samples() as f64,
            "no die stopped early"
        );

        let new_ns = time_ns(reps, || plan.screen_lot(&adaptive).expect("adaptive"));
        let baseline_ns = time_ns(reps, || plan.screen_lot(&fixed).expect("fixed"));
        cases.push(Case {
            name: "adaptive_lot_grid8_2pow15cap",
            baseline: "fixed-schedule LotScreen at the same cap and FleetPlan; the \
                       speedup is the realized mean test-time reduction",
            baseline_ns,
            new_ns,
            workers,
            dispatch: nfbist_dsp::simd::active_arm().name(),
        });
    }

    // --- Case 11: the PR 10 monitoring hot loop — a windowed NF
    // estimate at every emission point of a long stream. The sliding
    // ring pays one segment FFT per hop and a zero-alloc fold per
    // emission; the baseline re-runs a batch Welch estimate over the
    // same retained span each time. Both emission series must carry
    // the same bits (that is the sliding window's whole contract).
    {
        use nfbist_dsp::psd::SlidingWelch;

        let nfft = 1_024;
        let window_segments = 8usize;
        let emissions = 256usize;
        let stride = nfft; // one emission per fresh segment's worth
        let total = stride * emissions;
        let x = WhiteNoise::new(1.0, 11).expect("noise").generate(total);
        let cfg = WelchConfig::new(nfft).expect("config").window(Window::Hann);
        let mut ws = DspWorkspace::new();
        let mut out_sliding = vec![0.0f64; nfft / 2 + 1];
        let mut out_batch = vec![0.0f64; nfft / 2 + 1];

        // Bit-identity proof across every emission point.
        let mut sw = SlidingWelch::new(cfg.clone(), fs, window_segments).expect("sliding");
        for chunk in x.chunks(stride) {
            sw.push(chunk).expect("push");
            sw.finalize_into(&mut out_sliding).expect("finalize");
            let (start, end) = sw.retained_range().expect("range");
            cfg.estimate_into(&x[start..end], fs, &mut ws, &mut out_batch)
                .expect("batch");
            for (s, b) in out_sliding.iter().zip(&out_batch) {
                assert_eq!(s.to_bits(), b.to_bits(), "windowed emission != batch");
            }
        }

        let new_ns = time_ns(reps, || {
            sw.reset();
            for chunk in x.chunks(stride) {
                sw.push(chunk).expect("push");
                sw.finalize_into(&mut out_sliding).expect("finalize");
            }
        });
        let baseline_ns = time_ns(reps, || {
            sw.reset();
            for chunk in x.chunks(stride) {
                sw.push(chunk).expect("push");
                let (start, end) = sw.retained_range().expect("range");
                cfg.estimate_into(&x[start..end], fs, &mut ws, &mut out_batch)
                    .expect("batch");
            }
        });
        cases.push(Case {
            name: "windowed_emissions_256x1024",
            baseline: "batch Welch recomputed over the retained span at every \
                       emission point",
            baseline_ns,
            new_ns,
            workers: 1,
            dispatch: nfbist_dsp::simd::active_arm().name(),
        });
    }

    // --- Case 12: one transform at the paper's 10⁴ points, the
    // mixed-radix real FFT vs Bluestein. The one-sided bins must match
    // Bluestein's full spectrum before either side is timed.
    {
        let n = 10_000;
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.37).sin() + 0.2).collect();
        let real_plan = RealFft::new(n).expect("real plan");
        let bluestein = ArbitraryFft::new(n).expect("bluestein plan");
        let mut one_sided = vec![Complex64::ZERO; real_plan.output_len()];
        let mut full = vec![Complex64::ZERO; n];
        let mut scratch = vec![Complex64::ZERO; bluestein.scratch_len()];
        real_plan
            .forward_into(&x, &mut one_sided)
            .expect("real fft");
        bluestein
            .forward_real_into(&x, &mut scratch, &mut full)
            .expect("bluestein");
        let peak = full.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for (k, (a, b)) in one_sided.iter().zip(&full).enumerate() {
            assert!(
                (*a - *b).abs() <= 1e-12 * peak,
                "bin {k}: mixed-radix {a} vs Bluestein {b}"
            );
        }

        let new_ns = time_ns(reps * 16, || {
            real_plan
                .forward_into(&x, &mut one_sided)
                .expect("real fft")
        });
        let baseline_ns = time_ns(reps * 16, || {
            bluestein
                .forward_real_into(&x, &mut scratch, &mut full)
                .expect("bluestein")
        });
        cases.push(Case {
            name: "fft_real_10000",
            baseline: "ArbitraryFft::forward_real_into (Bluestein, full N-point spectrum)",
            baseline_ns,
            new_ns,
            workers: 1,
            dispatch: nfbist_dsp::simd::active_arm().name(),
        });
    }

    cases
}

/// The PR 7 SIMD-vs-scalar rows: each ported kernel timed on the best
/// available arm against the same kernel pinned to the scalar arm.
/// Integer kernels are asserted bit-identical across the two arms
/// before timing; float kernels run under the default `Exact` policy,
/// which is bit-identical by construction (and proptest-enforced in
/// `crates/dsp/tests/proptest_simd.rs`).
fn simd_cases(reps: usize) -> Vec<Case> {
    use nfbist_dsp::simd::{self, SimdArm};

    let mut cases = Vec::new();
    let arm = simd::active_arm();
    let dispatch = arm.name();

    // --- Case 5: Welch segment conditioning (detrend + window MAC).
    {
        let n = 4_096;
        let seg: Vec<f64> = (0..n).map(|j| (j as f64 * 0.37).sin() + 0.2).collect();
        let coeffs = Window::Hann.coefficients(n);
        let mut buf = seg.clone();
        let new_ns = time_ns(reps * 256, || {
            buf.copy_from_slice(&seg);
            simd::subtract_scalar_with(arm, &mut buf, 0.2);
            simd::apply_window_with(arm, &mut buf, &coeffs);
        });
        let baseline_ns = time_ns(reps * 256, || {
            buf.copy_from_slice(&seg);
            simd::subtract_scalar_with(SimdArm::Scalar, &mut buf, 0.2);
            simd::apply_window_with(SimdArm::Scalar, &mut buf, &coeffs);
        });
        cases.push(Case {
            name: "simd_window_mac_4096",
            baseline: "scalar arm of the same kernel",
            baseline_ns,
            new_ns,
            workers: 1,
            dispatch,
        });
    }

    // --- Case 6: whole real FFT (butterfly + density feed), forced
    // per arm through the thread-local dispatch override.
    {
        let n = 4_096;
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.53).cos() - 0.1).collect();
        let plan = RealFft::new(n).expect("real plan");
        let mut out = vec![Complex64::ZERO; plan.output_len()];
        let new_ns = simd::with_forced_arm(arm, || {
            time_ns(reps * 64, || {
                plan.forward_into(&x, &mut out).expect("real fft")
            })
        });
        let baseline_ns = simd::with_forced_arm(SimdArm::Scalar, || {
            time_ns(reps * 64, || {
                plan.forward_into(&x, &mut out).expect("real fft")
            })
        });
        cases.push(Case {
            name: "simd_realfft_4096",
            baseline: "scalar arm of the same butterfly kernels",
            baseline_ns,
            new_ns,
            workers: 1,
            dispatch,
        });
    }

    // --- Case 7: Goertzel bank, 8 bins in lockstep over 2^16 samples.
    {
        let n = 1usize << 16;
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.11).sin()).collect();
        let coeffs: Vec<f64> = (1..=8).map(|k| 1.95 - 0.05 * k as f64).collect();
        let mut s1 = vec![0.0f64; 8];
        let mut s2 = vec![0.0f64; 8];
        let mut check = |a: SimdArm| {
            s1.fill(0.0);
            s2.fill(0.0);
            simd::goertzel_bank_run_with(a, &x, &coeffs, &mut s1, &mut s2);
            (s1.clone(), s2.clone())
        };
        assert_eq!(
            check(arm),
            check(SimdArm::Scalar),
            "goertzel bank arms disagree"
        );
        let new_ns = time_ns(reps * 16, || {
            s1.fill(0.0);
            s2.fill(0.0);
            simd::goertzel_bank_run_with(arm, &x, &coeffs, &mut s1, &mut s2);
        });
        let baseline_ns = time_ns(reps * 16, || {
            s1.fill(0.0);
            s2.fill(0.0);
            simd::goertzel_bank_run_with(SimdArm::Scalar, &x, &coeffs, &mut s1, &mut s2);
        });
        cases.push(Case {
            name: "simd_goertzel_bank8_2pow16",
            baseline: "scalar arm of the same bank recurrence",
            baseline_ns,
            new_ns,
            workers: 1,
            dispatch,
        });
    }

    // --- Case 8: bipolar expansion of 2^20 packed bits.
    {
        let bits = 1usize << 20;
        let words: Vec<u64> = (0..bits / 64)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut out = vec![0.0f64; bits];
        let mut reference = vec![0.0f64; bits];
        simd::expand_bipolar_with(arm, &words, &mut out);
        simd::expand_bipolar_with(SimdArm::Scalar, &words, &mut reference);
        assert!(
            out.iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "bipolar expansion arms disagree"
        );
        let new_ns = time_ns(reps * 16, || {
            simd::expand_bipolar_with(arm, &words, &mut out)
        });
        let baseline_ns = time_ns(reps * 16, || {
            simd::expand_bipolar_with(SimdArm::Scalar, &words, &mut out)
        });
        cases.push(Case {
            name: "simd_bipolar_expand_2pow20",
            baseline: "scalar arm of the same word-walk expansion",
            baseline_ns,
            new_ns,
            workers: 1,
            dispatch,
        });
    }

    // --- Case 9: XOR+popcount lag kernel, odd lags over 2^20 bits.
    {
        let bits = 1usize << 20;
        let words: Vec<u64> = (0..bits / 64)
            .map(|i| (i as u64 ^ 0xA5A5).wrapping_mul(0xD134_2543_DE82_EF95))
            .collect();
        let lags = [1usize, 7, 63, 64, 65, 129];
        let run = |a: SimdArm| -> usize {
            lags.iter()
                .map(|&lag| simd::xor_popcount_lag_with(a, &words, bits, lag))
                .sum()
        };
        assert_eq!(run(arm), run(SimdArm::Scalar), "xor-lag arms disagree");
        let new_ns = time_ns(reps * 16, || run(arm));
        let baseline_ns = time_ns(reps * 16, || run(SimdArm::Scalar));
        cases.push(Case {
            name: "simd_xor_lag_2pow20_oddlags",
            baseline: "scalar arm of the same shifted-XOR popcount",
            baseline_ns,
            new_ns,
            workers: 1,
            dispatch,
        });
    }

    cases
}

fn write_json(path: &str, cases: &[Case]) -> std::io::Result<()> {
    let mut body =
        String::from("{\n  \"pr\": 10,\n  \"bench\": \"bench_smoke\",\n  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline\": \"{}\", \"baseline_ns\": {:.0}, \"new_ns\": {:.0}, \"speedup\": {:.3}, \"workers\": {}, \"dispatch\": \"{}\"}}{}\n",
            c.name,
            c.baseline,
            c.baseline_ns,
            c.new_ns,
            c.speedup(),
            c.workers,
            c.dispatch,
            if i + 1 == cases.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(path, body)
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut reps = 5usize;
    let mut assert_simd = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                let path = match args.peek() {
                    Some(p) if !p.starts_with("--") => args.next().expect("peeked"),
                    _ => "BENCH_pr10.json".to_string(),
                };
                json_path = Some(path);
            }
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps takes a positive integer");
            }
            "--assert-simd" => assert_simd = true,
            other => {
                eprintln!(
                    "unknown argument {other}; usage: \
                     bench_smoke [--json [PATH]] [--reps N] [--assert-simd]"
                );
                std::process::exit(2);
            }
        }
    }

    let arm = nfbist_dsp::simd::active_arm();
    println!("simd dispatch arm: {arm}");
    if assert_simd && arm == nfbist_dsp::simd::SimdArm::Scalar {
        eprintln!(
            "--assert-simd: active dispatch arm is scalar (no AVX2/NEON, or \
             NFBIST_SIMD forced it off) — this run would not exercise the \
             vector kernels"
        );
        std::process::exit(1);
    }

    let cases = run(reps);
    println!(
        "{:<32} {:>14} {:>14} {:>9} {:>8} {:>9}",
        "case", "baseline", "new", "speedup", "workers", "dispatch"
    );
    for c in &cases {
        println!(
            "{:<32} {:>11.3} ms {:>11.3} ms {:>8.2}x {:>8} {:>9}",
            c.name,
            c.baseline_ns / 1e6,
            c.new_ns / 1e6,
            c.speedup(),
            c.workers,
            c.dispatch,
        );
    }
    if let Some(path) = json_path {
        write_json(&path, &cases).expect("write json");
        println!("wrote {path}");
    }
}
