//! Continuous in-field monitoring: an unbounded acquisition pipeline
//! feeding a forgetting-window NF time series and a CUSUM drift
//! detector.
//!
//! A production screen ([`crate::screening`]) asks *"is this part good
//! right now?"* once. A fielded part keeps aging — temperature
//! excursions, parametric drift, latent defects activating — and the
//! paper's 1-bit BIST cell is cheap enough to leave **on** for the
//! whole mission. [`MonitorSession`] models that mission: the familiar
//! source → DUT → conditioning → digitizer pipeline runs continuously
//! at a bounded memory footprint, a windowed estimator (a
//! [`nfbist_core::streaming::RatioAccumulator`] opened with a sliding
//! or forgetting [`EstimatorWindow`]) keeps a *current-window*
//! noise-figure estimate with a matching delta-method sigma, and a
//! one-sided CUSUM statistic over the z-scored NF series turns that
//! time series into a typed, deterministic [`AlarmEvent`]
//! timeline.
//!
//! Determinism is the load-bearing property: the timeline is a pure
//! function of `(seed, drift profile, window config)`. Every pipeline
//! stage is chunk-invariant, emissions happen at absolute sample
//! offsets, and the CUSUM recursion is plain `f64` arithmetic — so the
//! identical bits come out for any streaming chunk size, any worker
//! count in the fleet fan-out, and any fleet memory budget. The
//! `monitor_determinism` integration tests pin this down with
//! `f64::to_bits` equality.
//!
//! # Detector
//!
//! After `warmup` emissions the monitor freezes a baseline `b` (the
//! mean of the warm-up NF estimates — learned, not analytic, so a
//! biased-but-stable estimator does not poison the statistic) and
//! emits [`AlarmKind::WarmupComplete`]. From then on each emission
//! forms `z = (NF − b)/σ` and folds it into the one-sided CUSUM
//! `S⁺ ← max(0, S⁺ + f·(z − k))`; `S⁺` crossing the threshold `h`
//! from below raises [`AlarmKind::DriftAlarm`].
//!
//! The freshness factor `f` is what makes the recursion honest under
//! overlap: consecutive windows share most of their samples when the
//! emission stride is shorter than the window span, so their z-scores
//! are strongly correlated and an unscaled CUSUM would count the same
//! evidence many times over. `f = fresh / window` (new estimator
//! samples since the last emission over the samples in the window,
//! clamped to 1) weights each emission by the fraction of genuinely
//! new information it carries — emitting 4× faster neither inflates
//! nor starves the statistic. The drift allowance `k` (in sigmas,
//! default 0.5) absorbs in-family noise and residual baseline error;
//! the threshold `h` (default 8) sets the false-alarm rate, with
//! expected detection delay ≈ `h / (f·(δ − k))` emissions for a true
//! shift of `δ` sigmas (see THEORY §5). An optional absolute limit adds
//! [`AlarmKind::LimitViolation`] when the NF estimate itself crosses
//! it — the "part is now out of spec" event, distinct from the
//! earlier "part is drifting" warning.

use crate::session::MeasurementSession;
use crate::setup::BistSetup;
use crate::SocError;
use nfbist_analog::converter::Digitizer;
use nfbist_analog::dut::Dut;
use nfbist_analog::noise::NoiseSourceState;
use nfbist_core::power_ratio::PowerRatioEstimator;
use nfbist_core::streaming::{windowed_nf_point, EstimatorWindow};

/// What a monitor emission event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlarmKind {
    /// The warm-up window closed and the baseline froze; drift and
    /// limit checks are armed from this emission on.
    WarmupComplete,
    /// The one-sided CUSUM statistic crossed its threshold from below:
    /// the NF series has drifted up relative to the frozen baseline.
    DriftAlarm,
    /// The windowed NF estimate crossed the configured absolute limit
    /// from below.
    LimitViolation,
}

impl AlarmKind {
    /// A stable small integer for signature/ordering purposes.
    pub const fn code(self) -> u8 {
        match self {
            AlarmKind::WarmupComplete => 0,
            AlarmKind::DriftAlarm => 1,
            AlarmKind::LimitViolation => 2,
        }
    }
}

impl std::fmt::Display for AlarmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlarmKind::WarmupComplete => write!(f, "warmup-complete"),
            AlarmKind::DriftAlarm => write!(f, "drift-alarm"),
            AlarmKind::LimitViolation => write!(f, "limit-violation"),
        }
    }
}

/// One event on the monitor's alarm timeline. Alarms are
/// **transition-based**: a drift alarm fires when the CUSUM crosses
/// `h` from below (not on every emission it stays above), and a limit
/// violation fires when the NF estimate crosses the limit from below.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlarmEvent {
    /// What happened.
    pub kind: AlarmKind,
    /// 1-based emission index the event fired at.
    pub emission: usize,
    /// Absolute source-sample offset of the emission.
    pub sample_index: usize,
    /// The windowed NF estimate at the event, in dB.
    pub nf_db: f64,
    /// The delta-method sigma of that estimate, in dB.
    pub sigma_db: f64,
    /// The CUSUM statistic after folding in this emission.
    pub cusum: f64,
}

/// One emission point of the monitored NF time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorPoint {
    /// 1-based emission index.
    pub emission: usize,
    /// Absolute source-sample offset of the emission.
    pub sample_index: usize,
    /// Windowed NF estimate in dB.
    pub nf_db: f64,
    /// Delta-method sigma of the estimate in dB at the current window
    /// depth.
    pub sigma_db: f64,
    /// Effective independent samples the sigma was computed at.
    pub n_effective: usize,
    /// The one-sided CUSUM statistic after this emission (0 during
    /// warm-up).
    pub cusum: f64,
}

/// The complete outcome of one monitoring mission: the NF time series,
/// the alarm timeline, and bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    points: Vec<MonitorPoint>,
    events: Vec<AlarmEvent>,
    baseline_db: Option<f64>,
    skipped_emissions: usize,
    horizon: usize,
}

impl MonitorReport {
    /// The emitted NF time series, in emission order.
    pub fn points(&self) -> &[MonitorPoint] {
        &self.points
    }

    /// The alarm timeline, in emission order.
    pub fn events(&self) -> &[AlarmEvent] {
        &self.events
    }

    /// The frozen warm-up baseline in dB (`None` when the mission
    /// ended before warm-up completed).
    pub fn baseline_db(&self) -> Option<f64> {
        self.baseline_db
    }

    /// Emissions whose snapshot could not form an estimate yet (window
    /// still filling, degenerate ratio) and were skipped.
    pub fn skipped_emissions(&self) -> usize {
        self.skipped_emissions
    }

    /// The mission length in source samples.
    pub fn horizon_samples(&self) -> usize {
        self.horizon
    }

    /// The first event of a given kind, if any.
    pub fn first_event(&self, kind: AlarmKind) -> Option<&AlarmEvent> {
        self.events.iter().find(|e| e.kind == kind)
    }

    /// The exact bit content of the alarm timeline: `(kind code,
    /// sample index, NF bits, CUSUM bits)` per event. Two reports with
    /// equal signatures raised bit-identical alarms at identical
    /// mission points — the form the determinism tests compare.
    pub fn alarm_signature(&self) -> Vec<(u8, usize, u64, u64)> {
        self.events
            .iter()
            .map(|e| {
                (
                    e.kind.code(),
                    e.sample_index,
                    e.nf_db.to_bits(),
                    e.cusum.to_bits(),
                )
            })
            .collect()
    }

    /// The exact bit content of the NF series: `(sample index, NF
    /// bits, sigma bits)` per emission point.
    pub fn series_signature(&self) -> Vec<(usize, u64, u64)> {
        self.points
            .iter()
            .map(|p| (p.sample_index, p.nf_db.to_bits(), p.sigma_db.to_bits()))
            .collect()
    }
}

/// A continuous monitoring mission over one DUT; see the module docs.
///
/// Wraps a [`MeasurementSession`] (same DUT/digitizer/estimator axes,
/// same seeding, same chunk-invariant streaming pipeline) and adds the
/// monitoring configuration: the estimator window, the emission
/// cadence, the mission horizon, and the CUSUM detector parameters.
///
/// # Examples
///
/// ```
/// use nfbist_core::streaming::EstimatorWindow;
/// use nfbist_soc::monitor::{AlarmKind, MonitorSession};
/// use nfbist_soc::setup::BistSetup;
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// let mut setup = BistSetup::quick(11);
/// setup.samples = 1 << 15;
/// setup.nfft = 1_024;
/// let report = MonitorSession::new(setup)?
///     .window(EstimatorWindow::Sliding { segments: 8 })
///     .warmup(4)
///     .run()?;
/// // A healthy part completes warm-up and raises no drift alarm.
/// assert!(report.first_event(AlarmKind::WarmupComplete).is_some());
/// assert!(report.first_event(AlarmKind::DriftAlarm).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MonitorSession {
    session: MeasurementSession,
    window: EstimatorWindow,
    emission_stride: usize,
    horizon: usize,
    warmup_emissions: usize,
    cusum_k: f64,
    cusum_h: f64,
    nf_limit_db: Option<f64>,
}

impl MonitorSession {
    /// Starts a monitor from a validated setup with the session
    /// defaults (paper DUT, 1-bit front-end and estimator) and the
    /// monitoring defaults: an 8-segment sliding window, one emission
    /// per `nfft` source samples, a mission horizon of `setup.samples`,
    /// 8 warm-up emissions, and a CUSUM detector with allowance
    /// `k = 0.5` and threshold `h = 8`.
    ///
    /// # Errors
    ///
    /// Propagates [`BistSetup::validate`] failures and component
    /// construction errors.
    pub fn new(setup: BistSetup) -> Result<Self, SocError> {
        let stride = setup.nfft;
        let horizon = setup.samples;
        Ok(MonitorSession {
            session: MeasurementSession::new(setup)?,
            window: EstimatorWindow::Sliding { segments: 8 },
            emission_stride: stride,
            horizon,
            warmup_emissions: 8,
            cusum_k: 0.5,
            cusum_h: 8.0,
            nf_limit_db: None,
        })
    }

    /// Selects the device under test (a
    /// [`nfbist_analog::fault::DriftingDut`] makes the mission
    /// interesting).
    pub fn dut(mut self, dut: impl Dut + 'static) -> Self {
        self.session = self.session.dut(dut);
        self
    }

    /// Selects the acquisition front-end.
    pub fn digitizer(mut self, digitizer: impl Digitizer + 'static) -> Self {
        self.session = self.session.digitizer(digitizer);
        self
    }

    /// Selects the power-ratio estimator; the monitor opens its
    /// accumulator with the configured window
    /// ([`PowerRatioEstimator::begin`]).
    pub fn estimator(mut self, estimator: impl PowerRatioEstimator + 'static) -> Self {
        self.session = self.session.estimator(estimator);
        self
    }

    /// Overrides the streaming chunk length in samples (a test hook
    /// for proving chunk-size invariance).
    pub fn streaming_chunk_len(mut self, samples: usize) -> Self {
        self.session = self.session.streaming_chunk_len(samples);
        self
    }

    /// Sets the estimator window policy (builder style): sliding or
    /// forgetting; [`MonitorSession::run`] rejects a cumulative window.
    pub fn window(mut self, window: EstimatorWindow) -> Self {
        self.window = window;
        self
    }

    /// Sets the emission cadence in source samples (builder style).
    pub fn emission_stride(mut self, samples: usize) -> Self {
        self.emission_stride = samples;
        self
    }

    /// Sets the mission length in source samples (builder style). The
    /// horizon is independent of `setup.samples` — a monitor outlives
    /// any single screening acquisition.
    pub fn horizon(mut self, samples: usize) -> Self {
        self.horizon = samples;
        self
    }

    /// Sets the number of warm-up emissions the baseline is learned
    /// over (builder style). Alarms are suppressed during warm-up.
    pub fn warmup(mut self, emissions: usize) -> Self {
        self.warmup_emissions = emissions;
        self
    }

    /// Sets the CUSUM drift allowance `k` and alarm threshold `h`,
    /// both in baseline sigmas (builder style).
    pub fn cusum(mut self, k: f64, h: f64) -> Self {
        self.cusum_k = k;
        self.cusum_h = h;
        self
    }

    /// Arms an absolute NF limit in dB: crossing it from below raises
    /// [`AlarmKind::LimitViolation`] (builder style).
    pub fn nf_limit_db(mut self, limit: f64) -> Self {
        self.nf_limit_db = Some(limit);
        self
    }

    /// The wrapped measurement session.
    pub fn session(&self) -> &MeasurementSession {
        &self.session
    }

    /// The estimator window policy.
    pub fn window_policy(&self) -> EstimatorWindow {
        self.window
    }

    /// The emission cadence in source samples.
    pub fn emission_stride_samples(&self) -> usize {
        self.emission_stride
    }

    /// The mission length in source samples.
    pub fn horizon_samples(&self) -> usize {
        self.horizon
    }

    /// The number of warm-up emissions.
    pub fn warmup_emissions(&self) -> usize {
        self.warmup_emissions
    }

    /// The CUSUM drift allowance in sigmas.
    pub fn cusum_k(&self) -> f64 {
        self.cusum_k
    }

    /// The CUSUM alarm threshold in sigmas.
    pub fn cusum_h(&self) -> f64 {
        self.cusum_h
    }

    /// The armed absolute NF limit in dB, if any.
    pub fn nf_limit(&self) -> Option<f64> {
        self.nf_limit_db
    }

    /// The band-limiting fraction `2B/fs` the sigma model scales raw
    /// window samples by — the share of samples that count as
    /// independent given the analysis band (clamped to 1). Used for
    /// all three estimators so their sigmas are comparable.
    pub fn effective_fraction(&self) -> f64 {
        let setup = self.session.setup();
        let width = setup.noise_band.1 - setup.noise_band.0;
        (2.0 * width / setup.sample_rate).min(1.0)
    }

    fn validate(&self) -> Result<(), SocError> {
        self.window.validate()?;
        if self.window == EstimatorWindow::Cumulative {
            return Err(SocError::InvalidParameter {
                name: "window",
                reason: "a monitor needs a retiring window: sliding or forgetting",
            });
        }
        if self.emission_stride == 0 {
            return Err(SocError::InvalidParameter {
                name: "emission_stride",
                reason: "emission cadence must be at least one sample",
            });
        }
        if self.horizon < self.emission_stride {
            return Err(SocError::InvalidParameter {
                name: "horizon",
                reason: "mission must span at least one emission stride",
            });
        }
        if self.warmup_emissions == 0 {
            return Err(SocError::InvalidParameter {
                name: "warmup",
                reason: "the baseline needs at least one warm-up emission",
            });
        }
        if !(self.cusum_k >= 0.0 && self.cusum_k.is_finite()) {
            return Err(SocError::InvalidParameter {
                name: "cusum_k",
                reason: "drift allowance must be finite and non-negative",
            });
        }
        if !(self.cusum_h > 0.0 && self.cusum_h.is_finite()) {
            return Err(SocError::InvalidParameter {
                name: "cusum_h",
                reason: "alarm threshold must be finite and positive",
            });
        }
        Ok(())
    }

    /// Runs the mission: advances both source-state chains emission by
    /// emission, snapshots the windowed estimator at each absolute
    /// stride multiple, and folds the NF series through the CUSUM
    /// detector into the alarm timeline.
    ///
    /// The timeline is a pure function of `(seed, DUT drift profile,
    /// window/detector config)` — bit-identical across streaming chunk
    /// sizes, which is what makes fleet-level fan-out free of
    /// scheduling artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for an out-of-domain
    /// monitor configuration (a cumulative window included — it would
    /// never forget the healthy past), and propagates pipeline errors.
    /// Emissions whose snapshot cannot form an estimate yet (window
    /// still filling) are counted as skipped, not errors.
    pub fn run(&self) -> Result<MonitorReport, SocError> {
        self.validate()?;
        let mut acc = self.session.estimator_ref().begin(self.window)?;
        let gain = self.session.frontend_gain()?;
        let mut hot = self
            .session
            .begin_state_chain(NoiseSourceState::Hot, 0, gain)?;
        let mut cold = self
            .session
            .begin_state_chain(NoiseSourceState::Cold, 0, gain)?;
        let chunk = self.session.streaming_chunk_samples();
        let setup = self.session.setup();
        let (hot_kelvin, cold_kelvin) = (setup.hot_kelvin, setup.cold_kelvin);
        let fraction = self.effective_fraction();

        let emissions = self.horizon / self.emission_stride;
        let mut points = Vec::with_capacity(emissions);
        let mut events = Vec::new();
        let mut skipped = 0usize;
        let mut warm_sum = 0.0;
        let mut warm_count = 0usize;
        let mut baseline: Option<f64> = None;
        let mut cusum = 0.0f64;
        let mut drift_high = false;
        let mut limit_high = false;
        // Estimator samples pushed so far / at the previous processed
        // emission — the freshness factor's numerator (see module docs).
        let mut pushed = 0usize;
        let mut prev_pushed = 0usize;

        for emission in 1..=emissions {
            let target = emission * self.emission_stride;
            hot.advance_to(target, chunk, &mut |s| {
                pushed += s.len();
                acc.push_hot(s)
            })?;
            cold.advance_to(target, chunk, &mut |s| acc.push_cold(s))?;
            let point = match windowed_nf_point(&*acc, hot_kelvin, cold_kelvin, fraction) {
                Ok(p) if p.sigma_db.is_finite() && p.sigma_db > 0.0 => p,
                _ => {
                    skipped += 1;
                    continue;
                }
            };
            match baseline {
                None => {
                    // Warm-up: accumulate the baseline, suppress alarms.
                    warm_sum += point.nf_db;
                    warm_count += 1;
                    points.push(MonitorPoint {
                        emission,
                        sample_index: target,
                        nf_db: point.nf_db,
                        sigma_db: point.sigma_db,
                        n_effective: point.n_effective,
                        cusum: 0.0,
                    });
                    if warm_count == self.warmup_emissions {
                        baseline = Some(warm_sum / warm_count as f64);
                        prev_pushed = pushed;
                        events.push(AlarmEvent {
                            kind: AlarmKind::WarmupComplete,
                            emission,
                            sample_index: target,
                            nf_db: point.nf_db,
                            sigma_db: point.sigma_db,
                            cusum: 0.0,
                        });
                    }
                }
                Some(base) => {
                    let fresh = (pushed - prev_pushed) as f64;
                    prev_pushed = pushed;
                    let freshness = (fresh / acc.effective_samples()).min(1.0);
                    let z = (point.nf_db - base) / point.sigma_db;
                    cusum = (cusum + freshness * (z - self.cusum_k)).max(0.0);
                    points.push(MonitorPoint {
                        emission,
                        sample_index: target,
                        nf_db: point.nf_db,
                        sigma_db: point.sigma_db,
                        n_effective: point.n_effective,
                        cusum,
                    });
                    let now_high = cusum > self.cusum_h;
                    if now_high && !drift_high {
                        events.push(AlarmEvent {
                            kind: AlarmKind::DriftAlarm,
                            emission,
                            sample_index: target,
                            nf_db: point.nf_db,
                            sigma_db: point.sigma_db,
                            cusum,
                        });
                    }
                    drift_high = now_high;
                    if let Some(limit) = self.nf_limit_db {
                        let now_over = point.nf_db > limit;
                        if now_over && !limit_high {
                            events.push(AlarmEvent {
                                kind: AlarmKind::LimitViolation,
                                emission,
                                sample_index: target,
                                nf_db: point.nf_db,
                                sigma_db: point.sigma_db,
                                cusum,
                            });
                        }
                        limit_high = now_over;
                    }
                }
            }
        }

        Ok(MonitorReport {
            points,
            events,
            baseline_db: baseline,
            skipped_emissions: skipped,
            horizon: self.horizon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfbist_analog::converter::AdcDigitizer;
    use nfbist_analog::fault::{AnalogFault, DriftSchedule, DriftingDut};
    use nfbist_analog::opamp::OpampModel;
    use nfbist_analog::units::Ohms;
    use nfbist_core::power_ratio::PsdRatioEstimator;

    fn amp() -> nfbist_analog::circuits::NonInvertingAmplifier {
        nfbist_analog::circuits::NonInvertingAmplifier::new(
            OpampModel::op27(),
            Ohms::new(10_000.0),
            Ohms::new(100.0),
        )
        .unwrap()
    }

    fn psd_monitor(seed: u64) -> MonitorSession {
        let mut setup = BistSetup::quick(seed);
        setup.samples = 1 << 15;
        setup.nfft = 1_024;
        let est = PsdRatioEstimator::new(setup.sample_rate, setup.nfft, setup.noise_band).unwrap();
        MonitorSession::new(setup)
            .unwrap()
            .dut(amp())
            .digitizer(AdcDigitizer::new(12).unwrap())
            .estimator(est)
            .window(EstimatorWindow::Sliding { segments: 8 })
            .warmup(4)
    }

    #[test]
    fn healthy_mission_completes_warmup_and_stays_quiet() {
        let report = psd_monitor(3).run().unwrap();
        assert!(report.baseline_db().unwrap().is_finite());
        let warm = report.first_event(AlarmKind::WarmupComplete).unwrap();
        assert_eq!(warm.cusum, 0.0);
        assert!(report.first_event(AlarmKind::DriftAlarm).is_none());
        assert!(report.first_event(AlarmKind::LimitViolation).is_none());
        assert!(report.points().len() > 8);
        // Every point sits at an absolute stride multiple.
        for p in report.points() {
            assert_eq!(p.sample_index % 1_024, 0);
            assert!(p.sigma_db > 0.0);
        }
    }

    #[test]
    fn timeline_is_bit_identical_across_chunk_sizes() {
        let reference = psd_monitor(9).run().unwrap();
        for session in [
            psd_monitor(9).streaming_chunk_len(997),
            psd_monitor(9).streaming_chunk_len(usize::MAX),
            psd_monitor(9).streaming_chunk_len(1_024),
        ] {
            let other = session.run().unwrap();
            assert_eq!(other.alarm_signature(), reference.alarm_signature());
            assert_eq!(other.series_signature(), reference.series_signature());
            assert_eq!(
                other.baseline_db().map(f64::to_bits),
                reference.baseline_db().map(f64::to_bits)
            );
        }
    }

    #[test]
    fn step_drift_raises_the_alarm_after_onset() {
        let onset = 12_000usize;
        let drifting = DriftingDut::new(amp(), DriftSchedule::Step { at: onset })
            .unwrap()
            .with_fault(AnalogFault::ExcessNoise { factor: 8.0 })
            .unwrap();
        let report = psd_monitor(5)
            .dut(drifting)
            .horizon(1 << 15)
            .nf_limit_db(30.0)
            .run()
            .unwrap();
        let alarm = report
            .first_event(AlarmKind::DriftAlarm)
            .expect("an 8x excess-noise step must trip the CUSUM");
        assert!(
            alarm.sample_index > onset,
            "alarm at {} cannot precede the defect at {onset}",
            alarm.sample_index
        );
        // No false alarm while the part was still healthy.
        let healthy_points = report
            .points()
            .iter()
            .filter(|p| p.sample_index <= onset)
            .count();
        assert!(healthy_points > 0);
        assert!(report
            .points()
            .iter()
            .take_while(|p| p.sample_index <= onset)
            .all(|p| p.cusum <= 8.0));
    }

    #[test]
    fn configuration_is_validated() {
        assert!(matches!(
            psd_monitor(1).emission_stride(0).run(),
            Err(SocError::InvalidParameter {
                name: "emission_stride",
                ..
            })
        ));
        assert!(matches!(
            psd_monitor(1).horizon(10).run(),
            Err(SocError::InvalidParameter {
                name: "horizon",
                ..
            })
        ));
        assert!(matches!(
            psd_monitor(1).warmup(0).run(),
            Err(SocError::InvalidParameter { name: "warmup", .. })
        ));
        assert!(matches!(
            psd_monitor(1).cusum(-1.0, 8.0).run(),
            Err(SocError::InvalidParameter {
                name: "cusum_k",
                ..
            })
        ));
        assert!(matches!(
            psd_monitor(1).cusum(0.5, 0.0).run(),
            Err(SocError::InvalidParameter {
                name: "cusum_h",
                ..
            })
        ));
        assert!(matches!(
            psd_monitor(1)
                .window(EstimatorWindow::Forgetting { lambda: 1.5 })
                .run(),
            Err(SocError::Core(_))
        ));
        assert!(matches!(
            psd_monitor(1).window(EstimatorWindow::Cumulative).run(),
            Err(SocError::InvalidParameter { name: "window", .. })
        ));
    }

    #[test]
    fn defaults_and_builder_settings_read_back() {
        let mut setup = BistSetup::quick(2);
        setup.samples = 1 << 15;
        setup.nfft = 1_024;
        let monitor = MonitorSession::new(setup.clone()).unwrap();
        assert_eq!(
            monitor.window_policy(),
            EstimatorWindow::Sliding { segments: 8 }
        );
        assert_eq!(monitor.emission_stride_samples(), 1_024);
        assert_eq!(monitor.horizon_samples(), 1 << 15);
        assert_eq!(monitor.warmup_emissions(), 8);
        assert_eq!((monitor.cusum_k(), monitor.cusum_h()), (0.5, 8.0));
        assert_eq!(monitor.nf_limit(), None);
        assert_eq!(monitor.session().setup(), &setup);
        let width = setup.noise_band.1 - setup.noise_band.0;
        let fraction = (2.0 * width / setup.sample_rate).min(1.0);
        assert_eq!(monitor.effective_fraction(), fraction);
        assert!(fraction > 0.0 && fraction <= 1.0);

        let tuned = monitor
            .window(EstimatorWindow::Forgetting { lambda: 0.9 })
            .emission_stride(2_048)
            .horizon(1 << 16)
            .warmup(3)
            .cusum(0.25, 5.0)
            .nf_limit_db(14.0);
        assert_eq!(
            tuned.window_policy(),
            EstimatorWindow::Forgetting { lambda: 0.9 }
        );
        assert_eq!(tuned.emission_stride_samples(), 2_048);
        assert_eq!(tuned.horizon_samples(), 1 << 16);
        assert_eq!(tuned.warmup_emissions(), 3);
        assert_eq!((tuned.cusum_k(), tuned.cusum_h()), (0.25, 5.0));
        assert_eq!(tuned.nf_limit(), Some(14.0));
    }

    #[test]
    fn report_bookkeeping_accounts_for_every_emission() {
        let monitor = psd_monitor(4).emission_stride(2_048);
        let report = monitor.run().unwrap();
        assert_eq!(report.horizon_samples(), 1 << 15);
        let emissions = (1 << 15) / 2_048;
        assert_eq!(
            report.points().len() + report.skipped_emissions(),
            emissions
        );
        // Points sit at increasing stride multiples; warm-up points
        // carry no CUSUM.
        for pair in report.points().windows(2) {
            assert!(pair[0].emission < pair[1].emission);
        }
        for (k, p) in report.points().iter().enumerate() {
            assert_eq!(p.sample_index, p.emission * 2_048);
            assert!(p.n_effective > 0);
            if k < 4 {
                assert_eq!(p.cusum, 0.0);
            }
        }
        // The warm-up event fires on the 4th estimate and the baseline
        // is the mean of the first four.
        let warm = report.first_event(AlarmKind::WarmupComplete).unwrap();
        assert_eq!(warm.emission, report.points()[3].emission);
        let mean = report.points()[..4].iter().map(|p| p.nf_db).sum::<f64>() / 4.0;
        assert_eq!(report.baseline_db(), Some(mean));
        assert_eq!(report.events()[0], *warm);
        assert_eq!(report.alarm_signature().len(), report.events().len());
        assert_eq!(report.series_signature().len(), report.points().len());
    }

    #[test]
    fn mission_shorter_than_its_warmup_learns_no_baseline() {
        let report = psd_monitor(6).warmup(64).run().unwrap();
        assert_eq!(report.baseline_db(), None);
        assert!(report.events().is_empty());
        assert!(!report.points().is_empty());
        assert!(report.points().iter().all(|p| p.cusum == 0.0));
    }

    #[test]
    fn limit_violation_fires_once_on_the_crossing() {
        // A limit far below any measured NF: every post-warm-up point is
        // over it, yet the timeline records only the first crossing.
        let report = psd_monitor(3).nf_limit_db(-50.0).run().unwrap();
        let violations: Vec<&AlarmEvent> = report
            .events()
            .iter()
            .filter(|e| e.kind == AlarmKind::LimitViolation)
            .collect();
        assert_eq!(violations.len(), 1);
        let warm = report.first_event(AlarmKind::WarmupComplete).unwrap();
        let first_after = report
            .points()
            .iter()
            .find(|p| p.emission > warm.emission)
            .unwrap();
        assert_eq!(violations[0].emission, first_after.emission);
        assert_eq!(violations[0].nf_db, first_after.nf_db);
        // Without a limit the same mission raises no violation.
        let unarmed = psd_monitor(3).run().unwrap();
        assert!(unarmed.first_event(AlarmKind::LimitViolation).is_none());
        assert_eq!(unarmed.series_signature(), report.series_signature());
    }

    #[test]
    fn alarm_kinds_have_distinct_codes_and_names() {
        let kinds = [
            AlarmKind::WarmupComplete,
            AlarmKind::DriftAlarm,
            AlarmKind::LimitViolation,
        ];
        assert_eq!(kinds.map(AlarmKind::code), [0, 1, 2]);
        assert_eq!(
            kinds.map(|k| k.to_string()),
            ["warmup-complete", "drift-alarm", "limit-violation"]
        );
    }

    #[test]
    fn forgetting_window_monitor_runs_too() {
        let report = psd_monitor(7)
            .window(EstimatorWindow::Forgetting { lambda: 0.8 })
            .run()
            .unwrap();
        assert!(report.baseline_db().is_some());
        assert!(report.first_event(AlarmKind::DriftAlarm).is_none());
    }
}
