//! `monitor_fleet`: the `exp_monitor` mission fleet.
//!
//! Every monitor runs a 12-bit ADC with the `PsdRatioEstimator`, an
//! 8-segment sliding window and one emission per 1024 samples through
//! the streaming chain, chunk by chunk; even-numbered monitors stay
//! healthy, odd-numbered ones drift (a linear 8× excess-noise ramp or
//! an exponential 4× noise plus attenuation curve). The fleet runs
//! through `MonitorPlan::workers(nproc).run_fleet`.

use crate::measure::{
    median, median_set_up, median_span, peak_rss_mib, per_call, quantile, repeat_for, timed,
    Checks, Counters, Outcome, Spans,
};
use crate::RunConfig;
use nfbist_analog::circuits::NonInvertingAmplifier;
use nfbist_analog::converter::AdcDigitizer;
use nfbist_analog::fault::{AnalogFault, DriftSchedule, DriftingDut};
use nfbist_analog::noise::{CalibratedNoiseSource, NoiseSourceState};
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::units::{Kelvin, Ohms};
use nfbist_core::power_ratio::PsdRatioEstimator;
use nfbist_core::streaming::EstimatorWindow;
use nfbist_core::{uncertainty, yfactor};
use nfbist_dsp::psd::{DspWorkspace, SlidingWelch, WelchConfig};
use nfbist_dsp::window::Window;
use nfbist_runtime::monitor::{MonitorFleetReport, MonitorPlan};
use nfbist_soc::monitor::{AlarmKind, MonitorReport, MonitorSession};
use nfbist_soc::session::derive_seed;
use nfbist_soc::setup::BistSetup;
use std::error::Error;
use std::time::Instant;

const MONITORS: usize = 8;
const NFFT: usize = 1_024;
/// Emissions per mission; one per `NFFT` samples.
const EMISSIONS: usize = 160;
const WINDOW_SEGMENTS: usize = 8;

/// The stage spans of the traced mission that are not nested in
/// another span.
const TOP_LEVEL_SPANS: [&str; 8] = [
    "soc.conditioning",
    "analog.source",
    "analog.dut",
    "soc.condition",
    "analog.digitize",
    "dsp.welch",
    "core.normalize",
    "core.yfactor",
];

/// Mission geometry shared by every monitor (`exp_monitor` without
/// `--quick`: 160 emissions, drift onset at a quarter of the mission).
#[derive(Clone, Copy)]
struct Mission {
    samples: usize,
    onset: usize,
    ramp: usize,
    tau: usize,
    limit_db: f64,
}

impl Mission {
    fn new() -> Result<Self, Box<dyn Error>> {
        let samples = EMISSIONS * NFFT;
        let setup = BistSetup::quick(0);
        let (f_lo, f_hi) = setup.noise_band;
        let rs = setup.source_resistance;
        let healthy = amp()?.expected_noise_figure_db(rs, f_lo, f_hi)?;
        let drifted = DriftingDut::new(amp()?, DriftSchedule::Step { at: 0 })?
            .with_fault(AnalogFault::ExcessNoise { factor: 8.0 })?
            .drifting_expected_noise_figure_db_at(0, rs, f_lo, f_hi)?;
        Ok(Mission {
            samples,
            onset: samples / 4,
            ramp: 5 * samples / 8,
            tau: 3 * samples / 8,
            // 85 % of the way from healthy to fully drifted: the ramp
            // crosses it late, so a working detector alarms first.
            limit_db: healthy + 0.85 * (drifted - healthy),
        })
    }

    /// Monitor `index`'s session, seeded from the run seed.
    fn session(&self, seed: u64, index: usize) -> Result<MonitorSession, nfbist_soc::SocError> {
        let mut setup = BistSetup::quick(derive_seed(seed, index as u64));
        setup.samples = self.samples;
        setup.nfft = NFFT;
        let estimator = PsdRatioEstimator::new(setup.sample_rate, setup.nfft, setup.noise_band)?;
        let monitor = MonitorSession::new(setup)?
            .digitizer(AdcDigitizer::new(12)?)
            .estimator(estimator)
            .window(EstimatorWindow::Sliding {
                segments: WINDOW_SEGMENTS,
            })
            .warmup(8)
            .cusum(0.5, 6.0)
            .nf_limit_db(self.limit_db);
        Ok(if index.is_multiple_of(2) {
            monitor.dut(amp()?)
        } else if (index / 2).is_multiple_of(2) {
            monitor.dut(
                DriftingDut::new(
                    amp()?,
                    DriftSchedule::Linear {
                        onset: self.onset,
                        ramp: self.ramp,
                    },
                )?
                .with_fault(AnalogFault::ExcessNoise { factor: 8.0 })?,
            )
        } else {
            monitor.dut(
                DriftingDut::new(
                    amp()?,
                    DriftSchedule::Exponential {
                        onset: self.onset,
                        tau: self.tau,
                    },
                )?
                .with_faults([
                    AnalogFault::ExcessNoise { factor: 4.0 },
                    AnalogFault::InputAttenuation { factor: 1.6 },
                ])?,
            )
        })
    }

    /// The admission cost the gate charges per mission (as
    /// `exp_monitor` does).
    fn cost_bytes(&self) -> usize {
        64 * self.samples
    }

    fn run_fleet(&self, plan: &MonitorPlan, seed: u64) -> MonitorFleetReport {
        plan.run_fleet(MONITORS, self.cost_bytes(), |i| self.session(seed, i))
    }
}

fn amp() -> Result<NonInvertingAmplifier, nfbist_soc::SocError> {
    Ok(NonInvertingAmplifier::new(
        OpampModel::op27(),
        Ohms::new(10_000.0),
        Ohms::new(100.0),
    )?)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, Box<dyn Error>> {
    let mut out = Outcome::default();
    if cfg.trace {
        traced(cfg, &mut out)?;
    } else {
        end_to_end(cfg, &mut out)?;
    }
    Ok(out)
}

/// Construction through the end of the warm-up fleet run.
fn set_up(cfg: &RunConfig) -> Result<(Mission, MonitorPlan, MonitorFleetReport), Box<dyn Error>> {
    let mission = Mission::new()?;
    let plan = MonitorPlan::workers(cfg.workers);
    let fleet = mission.run_fleet(&plan, cfg.seed);
    Ok((mission, plan, fleet))
}

fn end_to_end(cfg: &RunConfig, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let ((mission, plan, reference), setup_s) = median_set_up(|| set_up(cfg))?;

    let runs = repeat_for(cfg.seconds, 3, || mission.run_fleet(&plan, cfg.seed));
    let fleet_times: Vec<f64> = runs.iter().map(|(_, secs)| *secs).collect();
    for (fleet, _) in &runs {
        same_fleet(&mut out.checks, &reference, fleet);
    }
    check_outputs(&mission, cfg.seed, &reference, &mut out.checks);

    let emissions = fleet_counters(&mission, &reference).emissions as f64;
    let fleet_s = median(&fleet_times);
    out.metric("setup_s", setup_s, "s");
    out.metric("items_per_s", emissions / fleet_s, "1/s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    out.detail(format!(
        "emissions_per_s {:.1}: median fleet {:.4} s over {} fleets of {MONITORS} monitors",
        emissions / fleet_s,
        fleet_s,
        runs.len(),
    ));
    Ok(())
}

fn traced(cfg: &RunConfig, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let (mission, plan, reference) = set_up(cfg)?;
    let plan_build: Vec<f64> = (0..50)
        .map(|_| timed(|| DspWorkspace::new().plan(NFFT, Window::Hann).map(|_| ())).1)
        .collect();
    let job_setup: Vec<f64> = (0..MONITORS)
        .map(|i| per_call(100, || mission.session(cfg.seed, i)))
        .collect();

    // One mission per job on this thread, then the fleet on the plan.
    let mut mission_times = Vec::with_capacity(MONITORS);
    for i in 0..MONITORS {
        let (result, secs) = timed(|| mission.session(cfg.seed, i).and_then(|m| m.run()));
        mission_times.push(secs);
        let expected = reference.outcomes()[i].report();
        match result {
            Ok(report) => out.checks.record(Some(&report) == expected, || {
                format!("monitor {i} run alone differs from the fleet")
            }),
            Err(e) => out.checks.record(false, || format!("monitor {i}: {e}")),
        }
    }
    let fleet_budget = (cfg.seconds * 0.2).max(0.5);
    let fleet_times: Vec<f64> = repeat_for(fleet_budget, 3, || mission.run_fleet(&plan, cfg.seed))
        .into_iter()
        .map(|(fleet, secs)| {
            same_fleet(&mut out.checks, &reference, &fleet);
            secs
        })
        .collect();

    // The stage split of monitor 0's mission (healthy), traced through a
    // copy of the streaming chain and checked against its report.
    let session = mission.session(cfg.seed, 0)?;
    let expected = reference.outcomes()[0]
        .report()
        .ok_or("monitor 0 faulted")?
        .series_signature();
    let mut solo = Vec::new();
    let mut traces = Vec::new();
    let remaining = (cfg.seconds - fleet_times.iter().sum::<f64>()).max(0.5);
    repeat_for(remaining, 3, || {
        let (result, secs) = timed(|| session.run());
        out.checks.record(
            result.is_ok_and(|r| r.series_signature() == expected),
            || "a repeated mission gave a different NF series".into(),
        );
        solo.push(secs);
        if let Some(t) = out.checks.op("traced mission", traced_mission(&session)) {
            out.checks.record(t.series == expected, || {
                "traced mission NF series differs from MonitorSession::run()".into()
            });
            traces.push(t);
        }
    });
    check_outputs(&mission, cfg.seed, &reference, &mut out.checks);
    if traces.is_empty() {
        return Err("no traced mission succeeded".into());
    }

    let ms = |name: &str| 1e3 * median_span(traces.iter().map(|t| &t.spans), name);
    let coverage: Vec<f64> = traces
        .iter()
        .map(|t| TOP_LEVEL_SPANS.iter().map(|n| t.spans.get(n)).sum::<f64>() / t.wall)
        .collect();
    let walls: Vec<f64> = traces.iter().map(|t| t.wall).collect();
    out.metric("analog.source_ms", ms("analog.source"), "ms");
    out.metric("analog.dut_ms", ms("analog.dut"), "ms");
    out.metric("soc.condition_ms", ms("soc.condition"), "ms");
    out.metric("analog.digitize_ms", ms("analog.digitize"), "ms");
    out.metric("dsp.welch_ms", ms("dsp.welch"), "ms");
    out.metric("core.normalize_ms", ms("core.normalize"), "ms");
    out.metric("core.yfactor_us", 1e3 * ms("core.yfactor"), "us");
    out.metric("soc.conditioning_ms", ms("soc.conditioning"), "ms");
    out.metric("dsp.plan_build_us", 1e6 * median(&plan_build), "us");
    out.metric("soc.job_setup_us", 1e6 * median(&job_setup), "us");
    out.metric("soc.job_ms.p50", 1e3 * quantile(&mission_times, 0.5), "ms");
    out.metric("soc.job_ms.p90", 1e3 * quantile(&mission_times, 0.9), "ms");
    out.metric(
        "runtime.parallel_efficiency",
        mission_times.iter().sum::<f64>() / (cfg.workers as f64 * median(&fleet_times)),
        "ratio",
    );
    out.metric("soc.retest_rate", 0.0, "ratio");
    let c = fleet_counters(&mission, &reference);
    out.checks.record(
        (MONITORS * traces[0].segments) as u64 == c.welch_segments,
        || "computed Welch segments differ from the traced mission's".into(),
    );
    out.metric(
        "soc.useful_yield",
        c.emissions as f64 / (c.emissions + c.skipped_emissions) as f64,
        "ratio",
    );
    out.metric("trace.coverage", median(&coverage), "ratio");
    out.metric(
        "trace.overhead",
        median(&walls) / median(&solo) - 1.0,
        "ratio",
    );
    c.push_metrics(out);

    let per_sample = |name: &str| 1e6 * ms(name) / (2 * mission.samples) as f64;
    out.detail(format!(
        "mission p50 {:.2} ms, fleet {:.2} ms on {} workers; per sample (hot+cold): \
         source_stream {:.1} ns, dut_stream {:.1} ns, capture {:.1} ns, sliding_welch {:.1} ns",
        1e3 * quantile(&mission_times, 0.5),
        1e3 * median(&fleet_times),
        cfg.workers,
        per_sample("analog.source"),
        per_sample("analog.dut"),
        per_sample("analog.digitize"),
        per_sample("dsp.welch"),
    ));
    Ok(())
}

/// One fleet run counts every monitor as an operation (a faulted
/// monitor fails) plus one check that the fleet equals the first run.
fn same_fleet(checks: &mut Checks, reference: &MonitorFleetReport, fleet: &MonitorFleetReport) {
    for outcome in fleet.outcomes() {
        checks.record(outcome.fault().is_none(), || {
            format!("monitor faulted: {:?}", outcome.fault())
        });
    }
    checks.record(fleet == reference, || "a repeated fleet run differs".into());
}

/// The output checks: the fleet equals `MonitorPlan::sequential()`,
/// every limit crossing is preceded by a drift alarm, and the computed
/// emission count matches the reports.
fn check_outputs(
    mission: &Mission,
    seed: u64,
    reference: &MonitorFleetReport,
    checks: &mut Checks,
) {
    let sequential = mission.run_fleet(&MonitorPlan::sequential(), seed);
    checks.record(&sequential == reference, || {
        "MonitorPlan fleet differs from MonitorPlan::sequential()".into()
    });
    for (i, report) in reference.reports() {
        checks.record(drift_leads_limit(report), || {
            format!("monitor {i} crossed its limit without an earlier drift alarm")
        });
    }
    let c = fleet_counters(mission, reference);
    checks.record(
        c.emissions + c.skipped_emissions == (MONITORS * EMISSIONS) as u64,
        || "emitted plus skipped emissions differ from the mission schedule".into(),
    );
}

/// `true` when every limit violation comes after a drift alarm.
fn drift_leads_limit(report: &MonitorReport) -> bool {
    match (
        report.first_event(AlarmKind::DriftAlarm),
        report.first_event(AlarmKind::LimitViolation),
    ) {
        (_, None) => true,
        (Some(drift), Some(limit)) => drift.sample_index < limit.sample_index,
        (None, Some(_)) => false,
    }
}

/// The computed work counters of one fleet run. The streaming chain
/// never materializes a record, so no record bytes are counted.
fn fleet_counters(mission: &Mission, reference: &MonitorFleetReport) -> Counters {
    let segments = WelchConfig::new(NFFT).map_or(0, |w| w.segment_count(mission.samples)) as u64;
    let mut c = Counters {
        samples_synthesized: MONITORS as u64 * (4 * mission.samples as u64 + 1),
        ..Counters::default()
    };
    c.add_segments(MONITORS as u64 * 2 * segments, NFFT);
    for (_, report) in reference.reports() {
        c.emissions += report.points().len() as u64;
        c.skipped_emissions += report.skipped_emissions() as u64;
    }
    c
}

/// One traced mission: spans, wall time, the NF series signature and
/// the Welch segments both chains transformed.
struct TracedMission {
    spans: Spans,
    wall: f64,
    series: Vec<(usize, u64, u64)>,
    segments: usize,
}

/// One source state's streaming chain, seeded as the session's
/// `begin_state_chain` seeds repeat 0.
struct Chain<'a> {
    source: nfbist_analog::noise::WhiteNoise,
    dut: Box<dyn nfbist_analog::dut::DutStream + 'a>,
    capture: Box<dyn nfbist_analog::converter::CaptureStream + 'a>,
    welch: SlidingWelch,
    produced: usize,
    dut_out: Vec<f64>,
    captured: Vec<f64>,
    zeros: Vec<f64>,
}

impl<'a> Chain<'a> {
    /// Builds the chain, timing each stage's construction into its
    /// span.
    fn new(
        monitor: &'a MonitorSession,
        state: NoiseSourceState,
        spans: &mut Spans,
    ) -> Result<Self, Box<dyn Error>> {
        let session = monitor.session();
        let setup = session.setup();
        let (fs, rs, seed) = (setup.sample_rate, setup.source_resistance, setup.seed);
        let salt = match state {
            NoiseSourceState::Hot => 1u64,
            NoiseSourceState::Cold => 2u64,
        };
        let source = spans.time("analog.source", || {
            let mut src = CalibratedNoiseSource::new(
                Kelvin::new(setup.hot_kelvin),
                Kelvin::new(setup.cold_kelvin),
                rs,
                seed ^ 0xA5A5_A5A5,
            )?;
            if state == NoiseSourceState::Cold {
                src.generate(state, 1, fs)?;
            }
            src.stream(state, fs)
        })?;
        let dut = spans.time("analog.dut", || {
            session
                .dut_ref()
                .process_stream(rs, fs, seed.wrapping_add(salt).wrapping_mul(0x9E37))
        })?;
        let capture = spans.time("analog.digitize", || {
            session.digitizer_ref().begin_capture()
        });
        let welch = spans.time("dsp.welch", || {
            SlidingWelch::new(WelchConfig::new(setup.nfft)?, fs, WINDOW_SEGMENTS)
        })?;
        Ok(Chain {
            source,
            dut,
            capture,
            welch,
            produced: 0,
            dut_out: Vec::new(),
            captured: Vec::new(),
            zeros: Vec::new(),
        })
    }

    /// Source → DUT → gain → ADC capture → sliding Welch, chunk by
    /// chunk, until `target` source samples were produced.
    fn advance_to(
        &mut self,
        target: usize,
        chunk: usize,
        gain: f64,
        spans: &mut Spans,
    ) -> Result<(), Box<dyn Error>> {
        while self.produced < target {
            let m = chunk.min(target - self.produced);
            let source_chunk = spans.time("analog.source", || self.source.generate(m));
            self.produced += m;
            self.dut_out.clear();
            spans.time("analog.dut", || {
                self.dut.push(&source_chunk, &mut self.dut_out)
            })?;
            if self.dut_out.is_empty() {
                continue;
            }
            spans.time("soc.condition", || {
                for v in self.dut_out.iter_mut() {
                    *v *= gain;
                }
            });
            self.captured.clear();
            self.zeros.clear();
            self.zeros.resize(self.dut_out.len(), 0.0);
            spans.time("analog.digitize", || {
                self.capture
                    .push(&self.dut_out, &self.zeros, &mut self.captured)
            })?;
            spans.time("dsp.welch", || self.welch.push(&self.captured))?;
        }
        Ok(())
    }
}

/// Monitor `monitor`'s mission through a traced copy of its streaming
/// chain and windowed PSD estimator, emission by emission. The CUSUM
/// fold is not copied; its cost is what `trace.coverage` misses.
fn traced_mission(monitor: &MonitorSession) -> Result<TracedMission, Box<dyn Error>> {
    let start = Instant::now();
    let mut spans = Spans::default();
    let session = monitor.session();
    let setup = session.setup();
    let (hot_k, cold_k, band) = (setup.hot_kelvin, setup.cold_kelvin, setup.noise_band);
    let gain = spans.time("soc.conditioning", || session.frontend_gain())?;
    let mut hot = Chain::new(monitor, NoiseSourceState::Hot, &mut spans)?;
    let mut cold = Chain::new(monitor, NoiseSourceState::Cold, &mut spans)?;
    let chunk = session.streaming_chunk_samples();
    let stride = monitor.emission_stride_samples();
    let fraction = monitor.effective_fraction();
    let mut series = Vec::new();
    for emission in 1..=monitor.horizon_samples() / stride {
        let target = emission * stride;
        hot.advance_to(target, chunk, gain, &mut spans)?;
        cold.advance_to(target, chunk, gain, &mut spans)?;
        let spectra = spans.time("dsp.welch", || {
            Ok::<_, nfbist_dsp::DspError>((hot.welch.finalize()?, cold.welch.finalize()?))
        });
        let Ok((psd_hot, psd_cold)) = spectra else {
            continue;
        };
        let ratio = spans.time("core.normalize", || {
            let hot_power = psd_hot.band_power(band.0, band.1)?;
            let cold_power = psd_cold.band_power(band.0, band.1)?;
            Ok::<_, nfbist_dsp::DspError>((cold_power > 0.0).then(|| hot_power / cold_power))
        });
        let Ok(Some(ratio)) = ratio else {
            continue;
        };
        let window_samples =
            |w: &SlidingWelch| w.retained_range().map_or(0.0, |(s, e)| (e - s) as f64);
        let depth = window_samples(&hot.welch).min(window_samples(&cold.welch));
        let point = spans.time("core.yfactor", || {
            let factor = yfactor::noise_factor_from_temperatures(ratio, hot_k, cold_k)?;
            let n_effective = (depth * fraction).floor() as usize;
            let sigma = uncertainty::nf_std_from_record_length(factor, hot_k, cold_k, n_effective)?;
            Ok::<_, nfbist_core::CoreError>((factor.to_figure().db(), sigma))
        });
        match point {
            Ok((nf_db, sigma)) if sigma.is_finite() && sigma > 0.0 => {
                series.push((target, nf_db.to_bits(), sigma.to_bits()))
            }
            _ => continue,
        }
    }
    Ok(TracedMission {
        spans,
        wall: start.elapsed().as_secs_f64(),
        series,
        segments: hot.welch.segments_seen() + cold.welch.segments_seen(),
    })
}
