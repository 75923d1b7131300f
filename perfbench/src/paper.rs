//! `paper_measurement`: the paper's own unit of work.
//!
//! `MeasurementSession::new(BistSetup::paper_prototype(seed)).run()`
//! with the defaults — OP27 non-inverting DUT, ideal 1-bit comparator,
//! `OneBitPowerRatio` — on the batch path and one thread: 10⁶ samples
//! per hot and cold state, 10⁴-point Welch segments (a Bluestein FFT
//! size), then the Y-factor.

use crate::measure::{
    median, median_set_up, median_span, peak_rss_mib, per_call, quantile, repeat_for, timed,
    Checks, Counters, Outcome,
};
use crate::pipeline::{BatchPipeline, TracedMeasurement};
use crate::RunConfig;
use nfbist_dsp::psd::{DspWorkspace, WelchConfig};
use nfbist_dsp::window::Window;
use nfbist_soc::session::{Measurement, MeasurementSession};
use nfbist_soc::setup::BistSetup;
use std::error::Error;

/// Largest accepted distance between the measured and the analytic
/// noise figure, in dB. At 10⁶ samples per state the OP27's estimate
/// scatters by a few tenths of a dB; 1 dB leaves room for the model's
/// own bias while still catching a broken estimator.
const NF_TOLERANCE_DB: f64 = 1.0;

pub fn run(cfg: &RunConfig) -> Result<Outcome, Box<dyn Error>> {
    let setup = BistSetup::paper_prototype(cfg.seed);
    let mut out = Outcome::default();
    if cfg.trace {
        traced(cfg, &setup, &mut out)?;
    } else {
        end_to_end(cfg, &setup, &mut out)?;
    }
    Ok(out)
}

/// Construction through the end of the warm-up measurement, which
/// builds the estimator's FFT plan and the 10⁶-sample reference
/// waveform.
fn set_up(setup: &BistSetup) -> Result<(MeasurementSession, Measurement), Box<dyn Error>> {
    let session = MeasurementSession::new(setup.clone())?;
    let warm_up = session.run()?;
    Ok((session, warm_up))
}

fn end_to_end(cfg: &RunConfig, setup: &BistSetup, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let ((session, reference), setup_s) = median_set_up(|| set_up(setup))?;

    let runs = repeat_for(cfg.seconds, 3, || session.run());
    let unit_times: Vec<f64> = runs.iter().map(|(_, secs)| *secs).collect();
    for (result, _) in &runs {
        same_bits(&mut out.checks, &reference, result);
    }
    let traced = BatchPipeline::new(setup).and_then(|mut pipeline| pipeline.run(&session));
    if let Some(t) = out.checks.op("traced measurement", traced) {
        traced_bits(&mut out.checks, &reference, &t);
        check_outputs(setup, &reference, &t, &mut out.checks);
    }

    out.metric("setup_s", setup_s, "s");
    out.metric("items_per_s", 1.0 / median(&unit_times), "1/s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    out.detail(format!(
        "measurement_s {:.4} s (median of {} measurements; p10 {:.4} s, p25 {:.4} s, p90 {:.4} s), \
         NF {:.3} dB vs expected {:.3} dB",
        median(&unit_times),
        runs.len(),
        quantile(&unit_times, 0.1),
        quantile(&unit_times, 0.25),
        quantile(&unit_times, 0.9),
        reference.nf.figure.db(),
        reference.expected_nf_db
    ));
    Ok(())
}

fn traced(cfg: &RunConfig, setup: &BistSetup, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let (session, reference) = set_up(setup)?;
    let mut pipeline = BatchPipeline::new(setup)?;
    let plan_build: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| {
                DspWorkspace::new()
                    .plan(setup.nfft, Window::Hann)
                    .map(|_| ())
            })
            .1
        })
        .collect();
    let job_setup: Vec<f64> = (0..20)
        .map(|_| per_call(1_000, || MeasurementSession::new(setup.clone())))
        .collect();

    // Untraced and traced measurements alternate, so drift on the host
    // lands on both sides of `trace.overhead` alike.
    let mut jobs = Vec::new();
    let mut job_walls = Vec::new();
    let mut traces: Vec<TracedMeasurement> = Vec::new();
    repeat_for(cfg.seconds, 3, || {
        let ((result, job), wall) = timed(|| {
            let (result, job) = timed(|| session.run());
            same_bits(&mut out.checks, &reference, &result);
            (result, job)
        });
        drop(result);
        jobs.push(job);
        job_walls.push(wall);
        if let Some(t) = out.checks.op("traced measurement", pipeline.run(&session)) {
            traced_bits(&mut out.checks, &reference, &t);
            traces.push(t);
        }
    });
    let first = traces.first().ok_or("no traced measurement succeeded")?;
    let counters = check_outputs(setup, &reference, first, &mut out.checks);

    let ms = |name: &str| 1e3 * median_span(traces.iter().map(|t| &t.spans), name);
    let normalize: Vec<f64> = traces.iter().map(|t| t.normalize_self_time()).collect();
    let coverage: Vec<f64> = traces.iter().map(|t| t.coverage()).collect();
    let walls: Vec<f64> = traces.iter().map(|t| t.wall).collect();
    out.metric("analog.source_ms", ms("analog.source"), "ms");
    out.metric("analog.dut_ms", ms("analog.dut"), "ms");
    out.metric("soc.condition_ms", ms("soc.condition"), "ms");
    out.metric(
        "analog.digitize_ms",
        ms("analog.digitize") + ms("analog.expand"),
        "ms",
    );
    out.metric("dsp.welch_ms", ms("dsp.welch"), "ms");
    out.metric("core.normalize_ms", 1e3 * median(&normalize), "ms");
    out.metric(
        "core.yfactor_us",
        1e6 * median_span(traces.iter().map(|t| &t.spans), "core.yfactor"),
        "us",
    );
    out.metric("soc.conditioning_ms", ms("soc.conditioning"), "ms");
    out.metric("dsp.plan_build_us", 1e6 * median(&plan_build), "us");
    out.metric("soc.job_setup_us", 1e6 * median(&job_setup), "us");
    out.metric("soc.job_ms.p50", 1e3 * quantile(&jobs, 0.5), "ms");
    out.metric("soc.job_ms.p90", 1e3 * quantile(&jobs, 0.9), "ms");
    out.metric(
        "runtime.parallel_efficiency",
        jobs.iter().sum::<f64>() / job_walls.iter().sum::<f64>(),
        "ratio",
    );
    out.metric("soc.retest_rate", 0.0, "ratio");
    out.metric(
        "soc.useful_yield",
        f64::from(reference.repeats.iter().all(|r| r.nf.is_some())),
        "ratio",
    );
    out.metric("trace.coverage", median(&coverage), "ratio");
    out.metric(
        "trace.overhead",
        median(&walls) / median(&jobs) - 1.0,
        "ratio",
    );
    counters.push_metrics(out);

    let measurement_ms = 1e3 * median(&jobs);
    let per_state = |name: &str| ms(name) / 2.0;
    out.detail(format!(
        "measurement_s {:.4} s (median of {}); per state: source {:.1} ms, DUT {:.1} ms, \
         digitize {:.1} ms, expand {:.1} ms; Welch {:.1} ms = {:.1}% of the measurement",
        measurement_ms / 1e3,
        jobs.len(),
        per_state("analog.source"),
        per_state("analog.dut"),
        per_state("analog.digitize"),
        per_state("analog.expand"),
        ms("dsp.welch"),
        100.0 * ms("dsp.welch") / measurement_ms,
    ));
    Ok(())
}

/// One untraced measurement counts as an operation; it fails on an
/// error or on bits that differ from the seed's first measurement.
fn same_bits(
    checks: &mut Checks,
    reference: &Measurement,
    result: &Result<Measurement, nfbist_soc::SocError>,
) {
    match result {
        Ok(m) => checks.record(m.nf.y.to_bits() == reference.nf.y.to_bits(), || {
            "a repeated run of the seed gave different Y bits".into()
        }),
        Err(e) => checks.record(false, || format!("session.run: {e}")),
    }
}

/// The traced copy of the pipeline must reproduce the Y bits of
/// `session.run()`.
fn traced_bits(checks: &mut Checks, reference: &Measurement, traced: &TracedMeasurement) {
    checks.record(
        traced.measurement.nf.y.to_bits() == reference.nf.y.to_bits(),
        || "traced Y ratio differs from session.run()".into(),
    );
}

/// The output checks beyond bit identity: the NF lands within tolerance
/// of the analytic expectation, and the computed work counters match the
/// session's `usage.fft_count` and the traced pipeline's buffers.
fn check_outputs(
    setup: &BistSetup,
    reference: &Measurement,
    traced: &TracedMeasurement,
    checks: &mut Checks,
) -> Counters {
    let miss = (reference.nf.figure.db() - reference.expected_nf_db).abs();
    checks.record(miss < NF_TOLERANCE_DB, || {
        format!("NF misses the expectation by {miss:.3} dB (tolerance {NF_TOLERANCE_DB} dB)")
    });
    let segments = WelchConfig::new(setup.nfft).map_or(0, |w| w.segment_count(setup.samples));
    let mut c = Counters::default();
    c.add_batch_round(setup.samples, setup.nfft, segments);
    checks.record(c.welch_segments == reference.usage.fft_count as u64, || {
        format!(
            "computed {} Welch segments, the session accounts {}",
            c.welch_segments, reference.usage.fft_count
        )
    });
    checks.record(
        c.samples_synthesized == traced.samples_synthesized
            && c.bytes_materialized == traced.bytes_materialized,
        || "computed samples/bytes differ from the traced pipeline's buffers".into(),
    );
    c
}
