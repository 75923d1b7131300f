//! The monitoring subsystem's core contract: a mission's alarm
//! timeline — event kinds, absolute sample indices, NF estimates to
//! the last bit — is a pure function of `(seed, drift profile, window
//! config)`, identical across streaming chunk sizes, fleet worker
//! counts, and memory budgets; and runtime faults quarantine exactly
//! the monitor they hit without perturbing any other timeline.

use nfbist_analog::converter::AdcDigitizer;
use nfbist_analog::fault::{AnalogFault, DriftSchedule, DriftingDut};
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::units::Ohms;
use nfbist_core::power_ratio::PsdRatioEstimator;
use nfbist_core::streaming::EstimatorWindow;
use nfbist_runtime::batch::derive_seed;
use nfbist_runtime::chaos::{install_quiet_panic_hook, ChaosConfig};
use nfbist_runtime::monitor::{MonitorFleetReport, MonitorPlan};
use nfbist_soc::monitor::{AlarmKind, MonitorSession};
use nfbist_soc::setup::BistSetup;
use nfbist_soc::SocError;

const FLEET: usize = 4;
const BASE_SEED: u64 = 20_050_307;

fn amp() -> nfbist_analog::circuits::NonInvertingAmplifier {
    nfbist_analog::circuits::NonInvertingAmplifier::new(
        OpampModel::op27(),
        Ohms::new(10_000.0),
        Ohms::new(100.0),
    )
    .unwrap()
}

/// One fleet monitor's mission: PSD estimator over an 8-segment
/// sliding window; odd-indexed monitors age through an 8x excess-noise
/// step mid-mission, even-indexed monitors stay healthy. `chunk`
/// overrides the streaming chunk length, a knob the timeline must be
/// independent of.
fn mission(index: usize, chunk: Option<usize>) -> Result<MonitorSession, SocError> {
    let mut setup = BistSetup::quick(derive_seed(BASE_SEED, index as u64));
    setup.samples = 1 << 14;
    setup.nfft = 1_024;
    let estimator = PsdRatioEstimator::new(setup.sample_rate, setup.nfft, setup.noise_band)?;
    let mut monitor = MonitorSession::new(setup)?
        .digitizer(AdcDigitizer::new(12)?)
        .estimator(estimator)
        .window(EstimatorWindow::Sliding { segments: 8 })
        .warmup(4)
        .nf_limit_db(20.0);
    monitor = if index % 2 == 1 {
        monitor.dut(
            DriftingDut::new(amp(), DriftSchedule::Step { at: 6_000 })?
                .with_fault(AnalogFault::ExcessNoise { factor: 8.0 })?,
        )
    } else {
        monitor.dut(amp())
    };
    if let Some(samples) = chunk {
        monitor = monitor.streaming_chunk_len(samples);
    }
    Ok(monitor)
}

fn assert_fleet_bits_identical(a: &MonitorFleetReport, b: &MonitorFleetReport, label: &str) {
    assert_eq!(a.monitors(), b.monitors(), "{label}: fleet size");
    assert_eq!(a.faulted(), 0, "{label}: clean runs must not fault");
    assert_eq!(b.faulted(), 0, "{label}: clean runs must not fault");
    for ((i, ra), (_, rb)) in a.reports().zip(b.reports()) {
        assert_eq!(
            ra.alarm_signature(),
            rb.alarm_signature(),
            "{label}: monitor {i} alarm timeline"
        );
        assert_eq!(
            ra.series_signature(),
            rb.series_signature(),
            "{label}: monitor {i} NF series"
        );
        assert_eq!(
            ra.baseline_db().map(f64::to_bits),
            rb.baseline_db().map(f64::to_bits),
            "{label}: monitor {i} baseline"
        );
        assert_eq!(
            ra.skipped_emissions(),
            rb.skipped_emissions(),
            "{label}: monitor {i} skipped emissions"
        );
    }
}

/// The headline acceptance test: the same fleet run under every
/// combination of streaming chunk size (divisor, larger, non-divisor
/// of the segment length), worker count, and memory budget must
/// reproduce the reference timelines bit for bit.
#[test]
fn timelines_are_bit_identical_across_chunks_workers_and_budgets() {
    let reference = MonitorPlan::sequential().run_fleet(FLEET, 1 << 16, |i| mission(i, None));

    // The fleet must actually contain both timeline shapes: drifting
    // monitors alarm (and only after their defect activates), healthy
    // monitors stay quiet.
    let drifted = reference.monitors_with(AlarmKind::DriftAlarm);
    assert_eq!(drifted, vec![1, 3], "odd monitors must raise drift alarms");
    for (i, report) in reference.reports() {
        if i % 2 == 1 {
            let alarm = report.first_event(AlarmKind::DriftAlarm).unwrap();
            assert!(
                alarm.sample_index > 6_000,
                "monitor {i} alarmed at {} before its defect at 6000",
                alarm.sample_index
            );
        } else {
            assert!(report.first_event(AlarmKind::LimitViolation).is_none());
        }
        assert!(report.first_event(AlarmKind::WarmupComplete).is_some());
    }

    for chunk in [Some(1_024), Some(4_096), Some(1_000), None] {
        for workers in [1usize, 2, 8] {
            for budget in [None, Some(1usize << 16)] {
                let plan = match budget {
                    Some(bytes) => MonitorPlan::workers(workers).memory_budget(bytes),
                    None => MonitorPlan::workers(workers),
                };
                let fleet = plan.run_fleet(FLEET, 1 << 16, |i| mission(i, chunk));
                assert_fleet_bits_identical(
                    &reference,
                    &fleet,
                    &format!("chunk={chunk:?} workers={workers} budget={budget:?}"),
                );
            }
        }
    }
}

/// Fault isolation: a seeded panic injected into one monitor's mission
/// quarantines exactly that monitor; every surviving monitor's
/// timeline carries the clean run's exact bits.
#[test]
fn injected_panic_quarantines_one_monitor_without_perturbing_the_rest() {
    install_quiet_panic_hook();
    let clean = MonitorPlan::sequential().run_fleet(FLEET, 1 << 16, |i| mission(i, None));
    let chaos = ChaosConfig::new(1)
        .panic_rate_per_mille(250)
        .stall_rate_per_mille(0)
        .alloc_rate_per_mille(0)
        .faulty_attempts(1);
    let marked: Vec<usize> = chaos
        .scheduled_faults(FLEET)
        .into_iter()
        .map(|(i, _)| i)
        .collect();
    assert_eq!(marked.len(), 1, "seed 1 must mark exactly one monitor");

    let fleet = MonitorPlan::workers(2)
        .chaos(chaos)
        .run_fleet(FLEET, 1 << 16, |i| mission(i, None));
    assert!(fleet.degraded());
    let faulted: Vec<usize> = fleet.faults().map(|f| f.monitor).collect();
    assert_eq!(faulted, marked, "exactly the marked monitor must fault");
    assert_eq!(fleet.completed(), FLEET - 1);
    for (i, report) in fleet.reports() {
        let reference = clean.outcomes()[i].report().unwrap();
        assert_eq!(
            report.alarm_signature(),
            reference.alarm_signature(),
            "surviving monitor {i} timeline perturbed by the quarantine"
        );
        assert_eq!(
            report.series_signature(),
            reference.series_signature(),
            "surviving monitor {i} NF series perturbed by the quarantine"
        );
    }

    // A retry budget recovers the marked monitor completely.
    let recovered = MonitorPlan::workers(2)
        .task_policy(nfbist_runtime::supervisor::TaskPolicy::new().attempts(2))
        .chaos(chaos)
        .run_fleet(FLEET, 1 << 16, |i| mission(i, None));
    assert!(!recovered.degraded());
    assert_eq!(recovered, clean, "recovered fleet must be bit-identical");
}
