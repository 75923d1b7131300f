//! Measurement configuration: the paper's Fig. 11 bench as data.

use crate::SocError;
use nfbist_analog::units::Ohms;

/// Configuration of a BIST noise-figure measurement.
///
/// Public fields by design: this is a plain configuration record the
/// experiment binaries tweak freely; [`BistSetup::validate`] guards the
/// invariants before a pipeline is built.
///
/// # Examples
///
/// ```
/// use nfbist_soc::setup::BistSetup;
///
/// let setup = BistSetup::paper_prototype(7);
/// assert_eq!(setup.reference_frequency, 3_000.0);
/// assert_eq!(setup.samples, 1_000_000);
/// assert_eq!(setup.nfft, 10_000);
/// assert!(setup.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BistSetup {
    /// Simulation/acquisition sample rate in hertz.
    pub sample_rate: f64,
    /// Samples per acquisition (the paper used 10⁶).
    pub samples: usize,
    /// Welch segment / FFT length (the paper used 10⁴).
    pub nfft: usize,
    /// Declared hot temperature of the noise source, kelvin.
    pub hot_kelvin: f64,
    /// Declared cold temperature, kelvin.
    pub cold_kelvin: f64,
    /// Source resistance presented to the DUT.
    pub source_resistance: Ohms,
    /// Reference tone frequency in hertz (3 kHz in the prototype).
    pub reference_frequency: f64,
    /// Reference amplitude as a fraction of the *cold* noise RMS at the
    /// comparator (the paper's Fig. 10 recommends 10–40 %).
    pub reference_fraction: f64,
    /// Noise measurement band `(f_lo, f_hi)` in hertz (≤1 kHz in the
    /// prototype).
    pub noise_band: (f64, f64),
    /// Post-amplifier voltage gain ahead of the comparator (Av = 1156
    /// in the prototype; the 1-bit path is scale-invariant so this only
    /// matters against comparator imperfections).
    pub post_gain: f64,
    /// Fractional calibration error on the emitted hot temperature
    /// (0 for a perfect source).
    pub hot_calibration_error: f64,
    /// RNG seed; every derived stream is deterministic in this.
    pub seed: u64,
}

impl BistSetup {
    /// The paper's prototype configuration (§5.4): 3 kHz reference,
    /// 1 kHz noise bandwidth, Th = 2900 K, T0 = 290 K, 10⁶ samples,
    /// 10⁴-point FFT, source resistance 2 kΩ, post-gain 1156.
    ///
    /// The sample rate (not reported in the paper — the scope handled
    /// acquisition) is set to 20 kHz, comfortably above the 3 kHz
    /// reference and its first harmonics.
    pub fn paper_prototype(seed: u64) -> Self {
        BistSetup {
            sample_rate: 20_000.0,
            samples: 1_000_000,
            nfft: 10_000,
            hot_kelvin: 2_900.0,
            cold_kelvin: 290.0,
            source_resistance: Ohms::new(2_000.0),
            reference_frequency: 3_000.0,
            reference_fraction: 0.3,
            noise_band: (100.0, 1_000.0),
            post_gain: 1_156.0,
            hot_calibration_error: 0.0,
            seed,
        }
    }

    /// A reduced configuration for fast tests and CI: 2¹⁷ samples,
    /// 2 048-point FFT, otherwise the paper's parameters.
    pub fn quick(seed: u64) -> Self {
        BistSetup {
            samples: 1 << 17,
            nfft: 2_048,
            ..Self::paper_prototype(seed)
        }
    }

    /// Effective number of independent samples per acquisition for
    /// uncertainty/guard-band purposes: `2·B·T` with `B` the noise
    /// bandwidth and `T = samples / sample_rate` the record duration
    /// (clamped to at least 1). This is the `n_effective` that
    /// [`crate::screening::Screen::judge`] and the coverage campaign
    /// feed the guard-band model.
    ///
    /// # Examples
    ///
    /// ```
    /// use nfbist_soc::setup::BistSetup;
    ///
    /// // Paper prototype: B = 900 Hz, T = 10⁶ / 20 kHz = 50 s.
    /// let setup = BistSetup::paper_prototype(0);
    /// assert_eq!(setup.effective_samples(), 90_000);
    /// ```
    pub fn effective_samples(&self) -> usize {
        self.effective_samples_for(self.samples)
    }

    /// [`BistSetup::effective_samples`] at an arbitrary record length
    /// instead of the configured one — the per-checkpoint `n_effective`
    /// a sequential (early-stopping) screen needs while the record is
    /// still growing.
    ///
    /// # Examples
    ///
    /// ```
    /// use nfbist_soc::setup::BistSetup;
    ///
    /// let setup = BistSetup::paper_prototype(0);
    /// assert_eq!(setup.effective_samples_for(setup.samples), 90_000);
    /// assert_eq!(setup.effective_samples_for(setup.samples / 2), 45_000);
    /// assert_eq!(setup.effective_samples_for(0), 1); // clamped
    /// ```
    pub fn effective_samples_for(&self, samples: usize) -> usize {
        let bandwidth = self.noise_band.1 - self.noise_band.0;
        let duration = samples as f64 / self.sample_rate;
        ((2.0 * bandwidth * duration) as usize).max(1)
    }

    /// Checks all invariants.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), SocError> {
        if !(self.sample_rate > 0.0) {
            return Err(SocError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        if self.samples == 0 {
            return Err(SocError::InvalidParameter {
                name: "samples",
                reason: "must be nonzero",
            });
        }
        if self.nfft == 0 || self.nfft > self.samples {
            return Err(SocError::InvalidParameter {
                name: "nfft",
                reason: "must be nonzero and at most the record length",
            });
        }
        if !(self.hot_kelvin > self.cold_kelvin) || !(self.cold_kelvin >= 0.0) {
            return Err(SocError::InvalidParameter {
                name: "temperatures",
                reason: "requires hot > cold >= 0",
            });
        }
        if !(self.source_resistance.value() > 0.0) {
            return Err(SocError::InvalidParameter {
                name: "source_resistance",
                reason: "must be positive",
            });
        }
        if !(self.reference_frequency > 0.0) || self.reference_frequency >= self.sample_rate / 2.0 {
            return Err(SocError::InvalidParameter {
                name: "reference_frequency",
                reason: "must be positive and below nyquist",
            });
        }
        if !(self.reference_fraction > 0.0) || !(self.reference_fraction < 1.0) {
            return Err(SocError::InvalidParameter {
                name: "reference_fraction",
                reason: "must be in (0, 1)",
            });
        }
        // f_lo must be strictly positive: the analytic expectation
        // integrates the op-amp 1/f noise model over the band, which
        // diverges at DC — and the measured/expected columns must
        // cover the same band to be comparable.
        if !(self.noise_band.0 > 0.0)
            || !(self.noise_band.1 > self.noise_band.0)
            || self.noise_band.1 >= self.sample_rate / 2.0
        {
            return Err(SocError::InvalidParameter {
                name: "noise_band",
                reason: "requires 0 < f_lo < f_hi < nyquist",
            });
        }
        if !(self.post_gain > 0.0) {
            return Err(SocError::InvalidParameter {
                name: "post_gain",
                reason: "must be positive",
            });
        }
        if !self.hot_calibration_error.is_finite() || self.hot_calibration_error <= -1.0 {
            return Err(SocError::InvalidParameter {
                name: "hot_calibration_error",
                reason: "must be finite and above -1",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prototype_is_valid() {
        assert!(BistSetup::paper_prototype(0).validate().is_ok());
        assert!(BistSetup::quick(0).validate().is_ok());
    }

    #[test]
    fn each_invariant_is_enforced() {
        let base = BistSetup::quick(0);
        type Mutation = Box<dyn Fn(&mut BistSetup)>;
        let mutations: Vec<(&str, Mutation)> = vec![
            ("sample_rate", Box::new(|s| s.sample_rate = 0.0)),
            ("samples", Box::new(|s| s.samples = 0)),
            ("nfft zero", Box::new(|s| s.nfft = 0)),
            ("nfft > samples", Box::new(|s| s.nfft = s.samples + 1)),
            ("temps", Box::new(|s| s.hot_kelvin = s.cold_kelvin)),
            ("cold", Box::new(|s| s.cold_kelvin = -1.0)),
            ("rs", Box::new(|s| s.source_resistance = Ohms::new(0.0))),
            ("ref freq", Box::new(|s| s.reference_frequency = 0.0)),
            (
                "ref freq nyquist",
                Box::new(|s| s.reference_frequency = s.sample_rate),
            ),
            ("ref frac", Box::new(|s| s.reference_fraction = 0.0)),
            ("ref frac 1", Box::new(|s| s.reference_fraction = 1.0)),
            ("band", Box::new(|s| s.noise_band = (500.0, 100.0))),
            ("band dc", Box::new(|s| s.noise_band = (0.0, 100.0))),
            (
                "band nyquist",
                Box::new(|s| s.noise_band = (100.0, s.sample_rate)),
            ),
            ("post gain", Box::new(|s| s.post_gain = 0.0)),
            ("cal error", Box::new(|s| s.hot_calibration_error = -1.0)),
        ];
        for (name, mutate) in mutations {
            let mut s = base.clone();
            mutate(&mut s);
            assert!(s.validate().is_err(), "mutation '{name}' not caught");
        }
    }

    #[test]
    fn quick_differs_only_in_record_sizes() {
        let p = BistSetup::paper_prototype(5);
        let q = BistSetup::quick(5);
        assert_eq!(p.reference_frequency, q.reference_frequency);
        assert_eq!(p.noise_band, q.noise_band);
        assert!(q.samples < p.samples);
        assert!(q.nfft < p.nfft);
    }

    #[test]
    fn effective_samples_are_twice_the_time_bandwidth_product() {
        let setup = BistSetup::quick(0);
        let bandwidth = setup.noise_band.1 - setup.noise_band.0;
        for seconds in [1usize, 2, 5] {
            let samples = seconds * setup.sample_rate as usize;
            assert_eq!(
                setup.effective_samples_for(samples),
                (2.0 * bandwidth * seconds as f64) as usize
            );
        }
        // Monotone in the record length, and the configured length is
        // the default.
        let counts: Vec<usize> = (0..64)
            .map(|k| setup.effective_samples_for(k * 1_000))
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            setup.effective_samples(),
            setup.effective_samples_for(setup.samples)
        );
        // A wider band buys proportionally more independent samples.
        let mut wide = setup.clone();
        wide.noise_band = (setup.noise_band.0, setup.noise_band.0 + 2.0 * bandwidth);
        let n = 4 * setup.sample_rate as usize;
        assert_eq!(
            wide.effective_samples_for(n),
            2 * setup.effective_samples_for(n)
        );
    }
}
