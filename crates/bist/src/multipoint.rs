//! Simultaneous observation of several analog test points.
//!
//! Paper §4.3: because the digitizer is a single comparator, it "can be
//! permanently connected to the analog test point", and several test
//! points can be observed *simultaneously* — unlike the shared-ADC
//! setup, which must multiplex. This module models a cascade of
//! amplifier stages with one BIST cell per stage output and measures
//! every point's cumulative noise figure from a single pair of
//! hot/cold acquisitions.

use crate::setup::BistSetup;
use crate::SocError;
use nfbist_analog::circuits::{friis_noise_factor, CascadeStage};
use nfbist_analog::converter::OneBitDigitizer;
use nfbist_analog::dut::Dut;
use nfbist_analog::noise::{CalibratedNoiseSource, NoiseSourceState};
use nfbist_analog::source::{SineSource, Waveform};
use nfbist_analog::units::Kelvin;
use nfbist_core::estimator::{NfMeasurement, OneBitNfEstimator};
use nfbist_core::power_ratio::OneBitPowerRatio;

/// Result for one observed test point.
#[derive(Debug, Clone)]
pub struct PointMeasurement {
    /// Index of the stage whose output this point taps (0-based).
    pub stage: usize,
    /// Measured cumulative noise figure up to this point.
    pub nf: NfMeasurement,
    /// Friis expectation for the cumulative cascade up to this point.
    pub expected_nf_db: f64,
}

/// A cascade of [`Dut`] stages with a permanently attached digitizer
/// at every stage output. Stages may be heterogeneous — any `Dut`
/// implementor can sit at any position.
///
/// # Examples
///
/// ```no_run
/// use nfbist_analog::circuits::NonInvertingAmplifier;
/// use nfbist_analog::dut::Dut;
/// use nfbist_analog::opamp::OpampModel;
/// use nfbist_analog::units::Ohms;
/// use nfbist_soc::multipoint::MultipointBist;
/// use nfbist_soc::setup::BistSetup;
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// let stage = |m| NonInvertingAmplifier::new(m, Ohms::new(1_000.0), Ohms::new(1_000.0));
/// let cascade: Vec<Box<dyn Dut>> = vec![
///     Box::new(stage(OpampModel::op27())?),
///     Box::new(stage(OpampModel::tl081())?),
/// ];
/// let bist = MultipointBist::new(BistSetup::quick(1), cascade)?;
/// let points = bist.measure_all()?;
/// assert_eq!(points.len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct MultipointBist {
    setup: BistSetup,
    stages: Vec<Box<dyn Dut>>,
    digitizer: OneBitDigitizer,
}

impl std::fmt::Debug for MultipointBist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultipointBist")
            .field("setup", &self.setup)
            .field(
                "stages",
                &self.stages.iter().map(|s| s.label()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl MultipointBist {
    /// Builds the multipoint tester over a cascade of stages.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for an empty cascade and
    /// propagates setup validation.
    pub fn new(setup: BistSetup, stages: Vec<Box<dyn Dut>>) -> Result<Self, SocError> {
        setup.validate()?;
        if stages.is_empty() {
            return Err(SocError::InvalidParameter {
                name: "stages",
                reason: "cascade needs at least one stage",
            });
        }
        Ok(MultipointBist {
            setup,
            stages,
            digitizer: OneBitDigitizer::ideal(),
        })
    }

    /// Number of observed test points.
    pub fn points(&self) -> usize {
        self.stages.len()
    }

    /// The measurement setup.
    pub fn setup(&self) -> &BistSetup {
        &self.setup
    }

    /// Friis expectation of the cumulative noise figure at stage `i`'s
    /// output.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors; [`SocError::InvalidParameter`] for
    /// an out-of-range index.
    pub fn expected_nf_db(&self, point: usize) -> Result<f64, SocError> {
        if point >= self.stages.len() {
            return Err(SocError::InvalidParameter {
                name: "point",
                reason: "test point index out of range",
            });
        }
        // `validate` guarantees f_lo > 0, so the band is usable for
        // the 1/f-aware expectation integral as-is.
        let band = self.setup.noise_band;
        let mut cascade = Vec::with_capacity(point + 1);
        // First stage sees the source resistance; later stages see the
        // previous stage's (low) output impedance — approximate with
        // the same Rs for the noise analysis denominator, which keeps
        // every stage's F defined against the same reference.
        for stage in &self.stages[..=point] {
            let f = stage.expected_noise_factor(self.setup.source_resistance, band.0, band.1)?;
            cascade.push(CascadeStage::new(f, stage.gain() * stage.gain())?);
        }
        let f_total = friis_noise_factor(&cascade)?;
        Ok(10.0 * f_total.log10())
    }

    /// Acquires one record per test point for a given source state —
    /// all points observe the *same* physical noise realization, which
    /// is exactly what the simultaneous-observation argument promises.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn acquire_all(
        &self,
        state: NoiseSourceState,
    ) -> Result<Vec<nfbist_analog::bitstream::Bitstream>, SocError> {
        let n = self.setup.samples;
        let fs = self.setup.sample_rate;
        let mut src = CalibratedNoiseSource::new(
            Kelvin::new(self.setup.hot_kelvin),
            Kelvin::new(self.setup.cold_kelvin),
            self.setup.source_resistance,
            self.setup.seed ^ 0x5151_5151,
        )?;
        if state == NoiseSourceState::Cold {
            let _ = src.generate(state, 1, fs)?;
        }
        let mut signal = src.generate(state, n, fs)?;

        let mut records = Vec::with_capacity(self.stages.len());
        for (i, stage) in self.stages.iter().enumerate() {
            let salt = (i as u64 + 1).wrapping_mul(match state {
                NoiseSourceState::Hot => 0x1234_5678,
                NoiseSourceState::Cold => 0x8765_4321,
            });
            signal = stage.process(
                &signal,
                self.setup.source_resistance,
                fs,
                self.setup.seed.wrapping_add(salt),
            )?;
            // Per-point reference scaling: each BIST cell attenuates the
            // shared reference to the configured fraction of its local
            // cold noise RMS (modelled analytically).
            let local_rms = self.local_cold_rms(i)?;
            let reference = SineSource::new(
                self.setup.reference_frequency,
                self.setup.reference_fraction * local_rms,
            )?
            .generate(n, fs)?;
            records.push(self.digitizer.digitize(&signal, &reference)?);
        }
        Ok(records)
    }

    /// Analytic cold-state noise RMS at stage `i`'s output.
    fn local_cold_rms(&self, point: usize) -> Result<f64, SocError> {
        let nyquist = self.setup.sample_rate / 2.0;
        let mut density = 4.0
            * nfbist_analog::constants::BOLTZMANN
            * self.setup.cold_kelvin
            * self.setup.source_resistance.value();
        for stage in &self.stages[..=point] {
            let added =
                stage.mean_added_noise_density_sq(self.setup.source_resistance, 1.0, nyquist)?;
            density = (density + added) * stage.gain() * stage.gain();
        }
        Ok((density * nyquist).sqrt())
    }

    /// Builds the setup-matched NF estimator every test point shares.
    /// Construct it **once** per run and pass it to each
    /// [`MultipointBist::measure_point`] call: the estimator caches its
    /// Welch FFT plan and scratch internally, and supports concurrent
    /// callers, so one instance serves a whole (possibly parallel)
    /// multipoint sweep without re-planning per point.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn estimator(&self) -> Result<OneBitNfEstimator, SocError> {
        let ratio = OneBitPowerRatio::new(
            self.setup.sample_rate,
            self.setup.nfft,
            self.setup.reference_frequency,
            self.setup.noise_band,
        )?;
        Ok(OneBitNfEstimator::new(
            ratio,
            self.setup.hot_kelvin,
            self.setup.cold_kelvin,
        )?)
    }

    /// Estimates the cumulative noise figure at one test point from its
    /// already-acquired hot/cold records, using a shared estimator from
    /// [`MultipointBist::estimator`]. Each point's estimation is
    /// independent of every other point's, which is what lets the batch
    /// runner in `nfbist-runtime` fan the points out across workers.
    ///
    /// # Errors
    ///
    /// Propagates estimation errors; [`SocError::InvalidParameter`] for
    /// an out-of-range index.
    pub fn measure_point(
        &self,
        estimator: &OneBitNfEstimator,
        point: usize,
        hot: &nfbist_analog::bitstream::Bitstream,
        cold: &nfbist_analog::bitstream::Bitstream,
    ) -> Result<PointMeasurement, SocError> {
        let (nf, _) = estimator.estimate(hot, cold)?;
        Ok(PointMeasurement {
            stage: point,
            nf,
            expected_nf_db: self.expected_nf_db(point)?,
        })
    }

    /// Measures the cumulative noise figure at every test point from
    /// one hot and one cold multi-point acquisition.
    ///
    /// # Errors
    ///
    /// Propagates acquisition and estimation errors.
    pub fn measure_all(&self) -> Result<Vec<PointMeasurement>, SocError> {
        let hot = self.acquire_all(NoiseSourceState::Hot)?;
        let cold = self.acquire_all(NoiseSourceState::Cold)?;
        let estimator = self.estimator()?;
        hot.iter()
            .zip(&cold)
            .enumerate()
            .map(|(i, (h, c))| self.measure_point(&estimator, i, h, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfbist_analog::circuits::NonInvertingAmplifier;
    use nfbist_analog::opamp::OpampModel;
    use nfbist_analog::units::Ohms;

    fn stage(opamp: OpampModel, rf: f64, rg: f64) -> Box<dyn Dut> {
        Box::new(NonInvertingAmplifier::new(opamp, Ohms::new(rf), Ohms::new(rg)).unwrap())
    }

    #[test]
    fn validation() {
        assert!(MultipointBist::new(BistSetup::quick(0), vec![]).is_err());
        let mut bad = BistSetup::quick(0);
        bad.samples = 0;
        assert!(MultipointBist::new(bad, vec![stage(OpampModel::op27(), 1e3, 1e3)]).is_err());
    }

    #[test]
    fn expected_nf_is_monotone_along_cascade_with_noisy_tail() {
        // A quiet first stage with modest gain followed by a noisy
        // stage: the cumulative NF at point 1 exceeds point 0.
        let bist = MultipointBist::new(
            BistSetup::quick(1),
            vec![
                stage(OpampModel::op27(), 1_000.0, 1_000.0), // gain 2
                stage(OpampModel::ca3140(), 10_000.0, 100.0),
            ],
        )
        .unwrap();
        let nf0 = bist.expected_nf_db(0).unwrap();
        let nf1 = bist.expected_nf_db(1).unwrap();
        assert!(nf1 > nf0, "{nf0} → {nf1}");
        assert!(bist.expected_nf_db(2).is_err());
        assert_eq!(bist.points(), 2);
    }

    #[test]
    fn high_gain_first_stage_masks_noisy_second() {
        // Friis through the BIST lens: with Av = 101 up front, the
        // CA3140 behind barely moves the cumulative NF.
        let bist = MultipointBist::new(
            BistSetup::quick(2),
            vec![
                stage(OpampModel::op27(), 10_000.0, 100.0), // gain 101
                stage(OpampModel::ca3140(), 10_000.0, 100.0),
            ],
        )
        .unwrap();
        let nf0 = bist.expected_nf_db(0).unwrap();
        let nf1 = bist.expected_nf_db(1).unwrap();
        assert!(nf1 - nf0 < 0.05, "masking failed: {nf0} → {nf1}");
    }

    #[test]
    fn simultaneous_measurement_of_two_points() {
        let bist = MultipointBist::new(
            BistSetup::quick(7),
            vec![
                stage(OpampModel::tl081(), 1_000.0, 1_000.0),
                stage(OpampModel::ca3140(), 1_000.0, 1_000.0),
            ],
        )
        .unwrap();
        let points = bist.measure_all().unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(
                (p.nf.figure.db() - p.expected_nf_db).abs() < 2.0,
                "point {}: measured {:.2} vs expected {:.2}",
                p.stage,
                p.nf.figure.db(),
                p.expected_nf_db
            );
        }
        // Cumulative NF grows along this low-gain cascade.
        assert!(points[1].expected_nf_db > points[0].expected_nf_db);
    }

    #[test]
    fn heterogeneous_cascade_is_observable() {
        // The Dut trait at work: a noiseless behavioural gain block
        // sits between two op-amp stages, and every point still gets a
        // cumulative NF from the same acquisition pair.
        use nfbist_analog::component::Amplifier;
        let bist = MultipointBist::new(
            BistSetup::quick(4),
            vec![
                stage(OpampModel::op27(), 10_000.0, 100.0),
                Box::new(Amplifier::ideal(2.0).unwrap()),
                stage(OpampModel::ca3140(), 1_000.0, 1_000.0),
            ],
        )
        .unwrap();
        assert_eq!(bist.points(), 3);
        let points = bist.measure_all().unwrap();
        // A noiseless unity-NF stage behind gain 101 leaves the
        // cumulative expectation essentially unchanged.
        assert!(
            (points[1].expected_nf_db - points[0].expected_nf_db).abs() < 0.01,
            "{} vs {}",
            points[1].expected_nf_db,
            points[0].expected_nf_db
        );
        for p in &points {
            assert!(
                (p.nf.figure.db() - p.expected_nf_db).abs() < 2.0,
                "point {}: measured {:.2} vs expected {:.2}",
                p.stage,
                p.nf.figure.db(),
                p.expected_nf_db
            );
        }
    }

    #[test]
    fn one_acquisition_serves_every_point_reproducibly() {
        let bist = MultipointBist::new(
            BistSetup::quick(7),
            vec![
                stage(OpampModel::tl081(), 1_000.0, 1_000.0),
                stage(OpampModel::ca3140(), 1_000.0, 1_000.0),
            ],
        )
        .unwrap();
        let samples = bist.setup().samples;
        let hot = bist.acquire_all(NoiseSourceState::Hot).unwrap();
        let cold = bist.acquire_all(NoiseSourceState::Cold).unwrap();
        assert_eq!((hot.len(), cold.len()), (2, 2));
        assert!(hot.iter().chain(&cold).all(|r| r.len() == samples));
        assert!(hot.iter().zip(&cold).all(|(h, c)| h != c));
        // Estimating point by point over these records reproduces
        // measure_all, which acquires afresh: the acquisition is a pure
        // function of the setup.
        let estimator = bist.estimator().unwrap();
        let all = bist.measure_all().unwrap();
        for (i, point) in all.iter().enumerate() {
            let single = bist
                .measure_point(&estimator, i, &hot[i], &cold[i])
                .unwrap();
            assert_eq!(single.stage, i);
            assert_eq!(single.nf.y.to_bits(), point.nf.y.to_bits());
            assert_eq!(single.expected_nf_db, point.expected_nf_db);
        }
        assert!(bist
            .measure_point(&estimator, 2, &hot[0], &cold[0])
            .is_err());
    }
}
