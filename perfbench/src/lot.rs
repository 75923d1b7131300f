//! `lot_screen`: a fixed-schedule wafer-lot screen through the fleet
//! runtime.
//!
//! The lot, defect model and TL081 screen are `bench_smoke`'s
//! `lot_screening`: 2¹³-sample dies at a 1024-point (power-of-two)
//! Welch size, one 2× retest round, screened by
//! `FleetPlan::workers(nproc).memory_budget(2 · die cost)`. Records are
//! many and small and every die builds a new session and FFT plan; the
//! Bluestein FFT is never used. Each die round's DUT noise synthesis
//! fills a whole 2¹⁵-sample block per state even for a 2¹³-sample
//! record, which makes it the largest stage of a round.

use crate::measure::{
    median, median_set_up, median_span, peak_rss_mib, per_call, quantile, repeat_for, timed,
    Checks, Counters, Outcome,
};
use crate::pipeline::{BatchPipeline, TracedMeasurement};
use crate::RunConfig;
use nfbist_analog::circuits::NonInvertingAmplifier;
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::units::Ohms;
use nfbist_analog::wafer::{DefectModel, Lot, ProcessVariation, WaferMap};
use nfbist_dsp::psd::{DspWorkspace, WelchConfig};
use nfbist_dsp::window::Window;
use nfbist_runtime::fleet::FleetPlan;
use nfbist_soc::coverage::FaultUniverse;
use nfbist_soc::fleet::{LotReport, LotScreen};
use nfbist_soc::screening::{RetestPolicy, Screen};
use nfbist_soc::session::{derive_seed, MeasurementSession};
use nfbist_soc::setup::BistSetup;
use std::error::Error;

/// Wafer grid of the lot (a disc of about 50 dies).
const GRID: usize = 8;
/// Retest rounds allowed, and the record growth per round.
const RETEST_ROUNDS: usize = 2;
const RETEST_GROWTH: usize = 2;

pub fn run(cfg: &RunConfig) -> Result<Outcome, Box<dyn Error>> {
    let mut out = Outcome::default();
    if cfg.trace {
        traced(cfg, &mut out)?;
    } else {
        end_to_end(cfg, &mut out)?;
    }
    Ok(out)
}

fn tl081() -> Result<NonInvertingAmplifier, Box<dyn Error>> {
    Ok(NonInvertingAmplifier::new(
        OpampModel::tl081(),
        Ohms::new(10_000.0),
        Ohms::new(100.0),
    )?)
}

/// The lot screen for `seed`: defects over a disc, 2¹³-sample dies,
/// the TL081 production screen (limit 1.2 dB above the expected NF,
/// 3σ guard band) with one 2× retest round.
fn lot_screen(seed: u64) -> Result<LotScreen, Box<dyn Error>> {
    let lot = Lot::new(
        WaferMap::disc(GRID)?,
        ProcessVariation::default(),
        DefectModel::new().background(0.08)?.edge_gradient(0.20)?,
        seed,
    )?;
    let mut setup = BistSetup::quick(0);
    setup.samples = 1 << 13;
    setup.nfft = 1_024;
    let expected = tl081()?.expected_noise_figure_db(Ohms::new(2_000.0), 100.0, 1_000.0)?;
    Ok(LotScreen::new(
        lot,
        setup,
        Screen::new(expected + 1.2, 3.0)?,
        FaultUniverse::new().excess_noise(&[2.0, 8.0])?,
    )?
    .retest(RetestPolicy::new(RETEST_ROUNDS, RETEST_GROWTH)?))
}

/// Construction through the end of the warm-up lot screen.
fn set_up(cfg: &RunConfig) -> Result<(LotScreen, FleetPlan, LotReport), Box<dyn Error>> {
    let screening = lot_screen(cfg.seed)?;
    let plan = FleetPlan::workers(cfg.workers).memory_budget(2 * screening.die_cost_bytes());
    let report = plan.screen_lot(&screening)?;
    Ok((screening, plan, report))
}

fn end_to_end(cfg: &RunConfig, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let ((screening, plan, reference), setup_s) = median_set_up(|| set_up(cfg))?;

    let runs = repeat_for(cfg.seconds, 3, || plan.screen_lot(&screening));
    let lot_times: Vec<f64> = runs.iter().map(|(_, secs)| *secs).collect();
    for (result, _) in &runs {
        same_report(&mut out.checks, &reference, result);
    }
    check_outputs(&screening, &reference, &mut out.checks);

    // Measurement rounds, not dies, are the work unit: how many dies
    // need a retest varies with the seed's lot, and each retest round
    // costs about one more die round.
    let rounds = (screening.dies() + reference.total_retests()) as f64;
    let lot_s = median(&lot_times);
    out.metric("setup_s", setup_s, "s");
    out.metric("items_per_s", rounds / lot_s, "1/s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    out.detail(format!(
        "dies_per_s {:.1}, rounds_per_s {:.1}: median lot {:.3} s over {} lots of {} dies \
         ({} retests, {} passed)",
        screening.dies() as f64 / lot_s,
        rounds / lot_s,
        lot_s,
        runs.len(),
        screening.dies(),
        reference.total_retests(),
        reference.passed()
    ));
    Ok(())
}

fn traced(cfg: &RunConfig, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let (screening, plan, reference) = set_up(cfg)?;
    let base = screening.setup().clone();
    let lot_seed = base.seed;

    let plan_build: Vec<f64> = (0..50)
        .map(|_| {
            timed(|| {
                DspWorkspace::new()
                    .plan(base.nfft, Window::Hann)
                    .map(|_| ())
            })
            .1
        })
        .collect();
    // Per-die set-up: the die's spec, its seeded setup and a fresh
    // session around the healthy DUT.
    let die_setup = |i: usize| -> Result<MeasurementSession, Box<dyn Error>> {
        screening.lot().die(i)?;
        let mut setup = base.clone();
        setup.seed = derive_seed(lot_seed, i as u64);
        Ok(MeasurementSession::new(setup)?.dut(tl081()?))
    };
    let job_setup: Vec<f64> = (0..screening.dies())
        .map(|i| per_call(100, || die_setup(i)))
        .collect();

    // One die per job on this thread, then the whole lot on the plan.
    let mut die_times = Vec::with_capacity(screening.dies());
    for i in 0..screening.dies() {
        let (result, secs) = timed(|| screening.screen_die(i));
        die_times.push(secs);
        let expected = reference.records()[i].outcome();
        match result {
            Ok(outcome) => out.checks.record(Some(&outcome) == expected, || {
                format!("die {i} screened alone differs from the fleet report")
            }),
            Err(e) => out.checks.record(false, || format!("die {i}: {e}")),
        }
    }
    let lot_budget = (cfg.seconds * 0.2).max(0.5);
    let lot_times: Vec<f64> = repeat_for(lot_budget, 3, || plan.screen_lot(&screening))
        .into_iter()
        .map(|(result, secs)| {
            same_report(&mut out.checks, &reference, &result);
            secs
        })
        .collect();

    // The stage split of one die round: the healthy DUT at the lot's
    // geometry and the first die seed the 1-bit estimator resolves.
    let (session, round) = (0..screening.dies())
        .find_map(|i| {
            let session = die_setup(i).ok()?;
            let round = session.run().ok()?;
            Some((session, round))
        })
        .ok_or("no die round of the lot resolved")?;
    let mut pipeline = BatchPipeline::new(session.setup())?;
    let mut rounds = Vec::new();
    let mut traces: Vec<TracedMeasurement> = Vec::new();
    let remaining = (cfg.seconds - lot_times.iter().sum::<f64>()).max(0.5);
    repeat_for(remaining, 3, || {
        let (result, secs) = timed(|| session.run());
        out.checks.record(
            result.is_ok_and(|m| m.nf.y.to_bits() == round.nf.y.to_bits()),
            || "a repeated die round gave different Y bits".into(),
        );
        rounds.push(secs);
        if let Some(t) = out.checks.op("traced die round", pipeline.run(&session)) {
            out.checks
                .record(t.measurement.nf.y.to_bits() == round.nf.y.to_bits(), || {
                    "traced die round Y ratio differs from session.run()".into()
                });
            traces.push(t);
        }
    });
    check_outputs(&screening, &reference, &mut out.checks);

    let ms = |name: &str| 1e3 * median_span(traces.iter().map(|t| &t.spans), name);
    let normalize: Vec<f64> = traces.iter().map(|t| t.normalize_self_time()).collect();
    let coverage: Vec<f64> = traces.iter().map(|t| t.coverage()).collect();
    let walls: Vec<f64> = traces.iter().map(|t| t.wall).collect();
    let die_total: f64 = die_times.iter().sum();
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
    out.metric("soc.job_ms.p50", 1e3 * quantile(&die_times, 0.5), "ms");
    out.metric("soc.job_ms.p90", 1e3 * quantile(&die_times, 0.9), "ms");
    out.metric(
        "runtime.parallel_efficiency",
        die_total / (cfg.workers as f64 * median(&lot_times)),
        "ratio",
    );
    out.metric("soc.retest_rate", reference.retest_rate(), "ratio");
    out.metric(
        "soc.useful_yield",
        (reference.dies() - reference.faulted()) as f64 / reference.dies() as f64,
        "ratio",
    );
    out.metric("trace.coverage", median(&coverage), "ratio");
    out.metric(
        "trace.overhead",
        median(&walls) / median(&rounds) - 1.0,
        "ratio",
    );
    lot_counters(&screening, &reference).push_metrics(out);
    for (defective, retests) in [(false, 0), (false, 1), (true, 0), (true, 1)] {
        let times: Vec<f64> = reference
            .outcomes()
            .zip(&die_times)
            .filter(|(o, _)| o.defect.is_some() == defective && o.retests == retests)
            .map(|(_, t)| 1e3 * t)
            .collect();
        out.detail(format!(
            "{} dies, {retests} retests: {} dies, median {:.2} ms",
            if defective { "defective" } else { "healthy" },
            times.len(),
            median(&times)
        ));
    }
    out.detail(format!(
        "{} dies, {} workers: die p50 {:.3} ms, p90 {:.3} ms, lot {:.1} ms; \
         die round {:.3} ms (Welch {:.3} ms)",
        screening.dies(),
        cfg.workers,
        1e3 * quantile(&die_times, 0.5),
        1e3 * quantile(&die_times, 0.9),
        1e3 * median(&lot_times),
        1e3 * median(&rounds),
        ms("dsp.welch"),
    ));
    Ok(())
}

/// One fleet screen counts every die as an operation (a faulted die
/// fails) plus one check that the report equals the first one.
fn same_report(
    checks: &mut Checks,
    reference: &LotReport,
    result: &Result<LotReport, nfbist_runtime::RuntimeError>,
) {
    match result {
        Ok(report) => {
            for record in report.records() {
                checks.record(record.fault().is_none(), || {
                    format!("die {} faulted: {:?}", record.die(), record.fault())
                });
            }
            checks.record(report == reference, || {
                "a repeated fleet screen gave a different report".into()
            });
        }
        Err(e) => checks.record(false, || format!("screen_lot: {e}")),
    }
}

/// The output checks: the fleet report equals the sequential
/// `LotScreen::run()`, and the computed test samples and retests match
/// the report's own.
fn check_outputs(screening: &LotScreen, reference: &LotReport, checks: &mut Checks) {
    match screening.run() {
        Ok(sequential) => checks.record(&sequential == reference, || {
            "FleetPlan report differs from LotScreen::run()".into()
        }),
        Err(e) => checks.record(false, || format!("LotScreen::run: {e}")),
    }
    let c = lot_counters(screening, reference);
    let rounds_samples: u64 = (c.samples_synthesized - (c.dies + c.retests)) / 2;
    checks.record(rounds_samples == reference.test_samples(), || {
        format!(
            "computed {rounds_samples} test samples, the report has {}",
            reference.test_samples()
        )
    });
    checks.record(c.retests == reference.total_retests() as u64, || {
        "computed retests differ from the report".into()
    });
}

/// The computed work counters of one lot: every die's rounds, each
/// `RETEST_GROWTH`× longer than the last.
fn lot_counters(screening: &LotScreen, reference: &LotReport) -> Counters {
    let base = screening.setup();
    let welch = WelchConfig::new(base.nfft).ok();
    let mut c = Counters {
        dies: screening.dies() as u64,
        ..Counters::default()
    };
    for outcome in reference.outcomes() {
        c.retests += outcome.retests as u64;
        for round in 0..=outcome.retests {
            let n = base.samples * RETEST_GROWTH.pow(round as u32);
            let segments = welch.as_ref().map_or(0, |w| w.segment_count(n));
            c.add_batch_round(n, base.nfft, segments);
        }
    }
    c
}
