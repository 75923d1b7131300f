//! # nfbist-bench — experiment harness for the DATE'05 reproduction
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! shared scenario builders they use. Criterion benches live in
//! `benches/`.
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table 1 (reference NF values) | `exp_table1` |
//! | Fig. 7 (waveforms, hot/cold) | `exp_fig7` |
//! | Fig. 8 (bitstream PSDs) | `exp_fig8` |
//! | Fig. 9 (normalized PSDs, zoom) | `exp_fig9` |
//! | Table 2 (3 power-ratio methods) | `exp_table2` |
//! | Fig. 10 (error vs reference amplitude) | `exp_fig10` |
//! | Table 3 (4 op-amps, prototype) | `exp_table3` |
//! | Fig. 13 (prototype PSD) | `exp_fig13` |
//! | — (beyond the paper: defect coverage vs test time) | `exp_coverage` |
//! | — (beyond the paper: fleet-scale wafer/lot screening) | `exp_wafer` |
//!
//! Every binary accepts `--quick` to run a reduced record length for
//! smoke testing; without it the paper's sizes (10⁶ samples, 10⁴-point
//! FFT) are used.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nfbist_soc::report::{Series, Table};

use nfbist_analog::bitstream::Bitstream;
use nfbist_analog::converter::OneBitDigitizer;
use nfbist_analog::noise::WhiteNoise;
use nfbist_analog::source::{SquareSource, Waveform};
use nfbist_core::power_ratio::OneBitPowerRatio;
use nfbist_core::yfactor;
use nfbist_core::CoreError;

/// The simulated scenario behind the paper's §5.2 / Figs. 7–9 /
/// Table 2: hot and cold noise seen through an F = 10 DUT with
/// Th = 10000 K, Tc = 1000 K, plus a constant-amplitude square-wave
/// reference.
#[derive(Debug, Clone)]
pub struct Table2Scenario {
    /// Analog noise at the digitizer for the hot source state.
    pub hot: Vec<f64>,
    /// Analog noise for the cold state.
    pub cold: Vec<f64>,
    /// The shared reference waveform.
    pub reference: Vec<f64>,
    /// Digitized hot record.
    pub bits_hot: Bitstream,
    /// Digitized cold record.
    pub bits_cold: Bitstream,
    /// Sample rate in hertz.
    pub sample_rate: f64,
    /// Reference fundamental frequency in hertz.
    pub reference_frequency: f64,
    /// The exact noise power ratio the synthesis used.
    pub true_ratio: f64,
}

impl Table2Scenario {
    /// Paper parameters: Th = 10000 K, Tc = 1000 K, DUT F = 10
    /// (Te = 2610 K) — the true Y is (10000+2610)/(1000+2610) ≈ 3.493.
    ///
    /// `n` is the record length (the paper used 10⁶);
    /// `reference_fraction` scales the square wave relative to the
    /// cold noise RMS (0.3 reproduces the paper's working point).
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors.
    pub fn build(n: usize, reference_fraction: f64, seed: u64) -> Result<Self, CoreError> {
        let sample_rate = 10_000.0;
        let reference_frequency = 60.0;
        let f_dut = nfbist_core::figure::NoiseFactor::new(10.0)?;
        let true_ratio = yfactor::expected_y(f_dut, 10_000.0, 1_000.0)?;

        let sigma_cold = 1.0;
        let sigma_hot = sigma_cold * true_ratio.sqrt();
        let hot = WhiteNoise::new(sigma_hot, seed)?.generate(n);
        let cold = WhiteNoise::new(sigma_cold, seed ^ 0xFFFF)?.generate(n);
        let reference = SquareSource::new(reference_frequency, reference_fraction * sigma_cold)?
            .generate(n, sample_rate)?;

        let digitizer = OneBitDigitizer::ideal();
        let bits_hot = digitizer.digitize(&hot, &reference)?;
        let bits_cold = digitizer.digitize(&cold, &reference)?;

        Ok(Table2Scenario {
            hot,
            cold,
            reference,
            bits_hot,
            bits_cold,
            sample_rate,
            reference_frequency,
            true_ratio,
        })
    }

    /// A variant of the scenario with a 3 kHz **sine** reference at
    /// `fs = 20 kHz` — the prototype's operating point. Better
    /// conditioned than the 60 Hz square of the §5.2 demo (the
    /// reference line sits far from DC), so ablation studies isolate
    /// the effect under test.
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors.
    pub fn build_sine_reference(
        n: usize,
        reference_fraction: f64,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let sample_rate = 20_000.0;
        let reference_frequency = 3_000.0;
        let f_dut = nfbist_core::figure::NoiseFactor::new(10.0)?;
        let true_ratio = yfactor::expected_y(f_dut, 10_000.0, 1_000.0)?;

        let sigma_cold = 1.0;
        let sigma_hot = sigma_cold * true_ratio.sqrt();
        let hot = WhiteNoise::new(sigma_hot, seed)?.generate(n);
        let cold = WhiteNoise::new(sigma_cold, seed ^ 0xFFFF)?.generate(n);
        let reference = nfbist_analog::source::SineSource::new(
            reference_frequency,
            reference_fraction * sigma_cold,
        )?
        .generate(n, sample_rate)?;

        let digitizer = OneBitDigitizer::ideal();
        let bits_hot = digitizer.digitize(&hot, &reference)?;
        let bits_cold = digitizer.digitize(&cold, &reference)?;

        Ok(Table2Scenario {
            hot,
            cold,
            reference,
            bits_hot,
            bits_cold,
            sample_rate,
            reference_frequency,
            true_ratio,
        })
    }

    /// The estimator configuration matching this scenario.
    ///
    /// For the square-reference build, the noise band sits above the
    /// square wave's strong harmonics and those are excluded; for the
    /// sine build the band is the prototype's 100–1500 Hz.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn estimator(&self, nfft: usize) -> Result<OneBitPowerRatio, CoreError> {
        if self.reference_frequency < 100.0 {
            Ok(OneBitPowerRatio::new(
                self.sample_rate,
                nfft,
                self.reference_frequency,
                (500.0, 4_500.0),
            )?
            // Exclude square-wave harmonics reaching into the band.
            .with_excluded_harmonics(75))
        } else {
            OneBitPowerRatio::new(
                self.sample_rate,
                nfft,
                self.reference_frequency,
                (100.0, 1_500.0),
            )
        }
    }
}

/// Parses the conventional experiment flags: returns `true` when
/// `--quick` was passed.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// `true` when `--adaptive` was passed: experiment binaries that
/// support it then additionally run their screening flows under the
/// sequential (early-stopping) decision engine and report the
/// test-time reduction against the fixed schedule.
pub fn adaptive_flag() -> bool {
    std::env::args().any(|a| a == "--adaptive")
}

/// Parses `--workers N` (the batch-engine worker count); defaults to
/// the machine's available parallelism when absent or malformed.
pub fn workers_flag() -> usize {
    parse_value_flag("--workers").map_or_else(
        || nfbist_runtime::WorkQueue::with_available_parallelism().workers(),
        |n: usize| n.max(1),
    )
}

/// Parses `--dies N` (a lot-size target in dies); returns `default`
/// when absent or malformed. The wafer synthesis rounds the target up
/// to the nearest full disc, so the screened lot may hold slightly
/// more dies than requested.
pub fn dies_flag(default: usize) -> usize {
    parse_value_flag("--dies").unwrap_or(default).max(1)
}

/// Parses `--budget BYTES` (the fleet engine's global memory budget
/// for die-job admission); `None` when absent or malformed — callers
/// then pick their own default.
pub fn budget_flag() -> Option<usize> {
    parse_value_flag("--budget")
}

/// Parses `--monitors N` (the in-field monitoring fleet size); returns
/// `default` when absent or malformed.
pub fn monitors_flag(default: usize) -> usize {
    parse_value_flag("--monitors").unwrap_or(default).max(1)
}

/// Parses `--chaos SEED` (seeded runtime fault injection for the fleet
/// experiments). Without a valid flag it falls back to the
/// `NFBIST_CHAOS` environment variable
/// ([`nfbist_runtime::ChaosConfig::from_env`]), so a whole test run can
/// be opted in without touching the command line.
pub fn chaos_flag() -> Option<u64> {
    parse_value_flag("--chaos")
        .or_else(|| nfbist_runtime::ChaosConfig::from_env().map(|c| c.seed()))
}

/// Peak resident set size (`VmHWM`) in bytes, when the platform
/// exposes it (Linux `/proc`); `None` elsewhere.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The value after the first `flag` argument, parsed; `None` when the
/// flag is absent or its value malformed.
fn parse_value_flag<T: std::str::FromStr>(flag: &str) -> Option<T> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next().and_then(|v| v.parse().ok());
        }
    }
    None
}

/// Record length / FFT size for the current mode.
pub fn record_sizes(quick: bool) -> (usize, usize) {
    if quick {
        (1 << 17, 2_048)
    } else {
        (1_000_000, 10_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_consistently() {
        let s = Table2Scenario::build(1 << 14, 0.3, 1).unwrap();
        assert_eq!(s.hot.len(), 1 << 14);
        assert_eq!(s.bits_hot.len(), s.bits_cold.len());
        assert!((s.true_ratio - 3.493).abs() < 0.001);
        // Hot record carries true_ratio× the cold power.
        let ph = nfbist_dsp::stats::mean_square(&s.hot).unwrap();
        let pc = nfbist_dsp::stats::mean_square(&s.cold).unwrap();
        assert!((ph / pc - s.true_ratio).abs() / s.true_ratio < 0.05);
    }

    #[test]
    fn scenario_estimator_recovers_ratio() {
        let s = Table2Scenario::build(1 << 18, 0.3, 2).unwrap();
        let est = s.estimator(2_000).unwrap();
        let r = est.estimate_bits(&s.bits_hot, &s.bits_cold).unwrap();
        assert!(
            (r.ratio - s.true_ratio).abs() / s.true_ratio < 0.08,
            "ratio {} vs true {}",
            r.ratio,
            s.true_ratio
        );
    }

    #[test]
    fn value_flags_fall_back_when_absent() {
        // The test harness is never invoked with the experiment flags,
        // so both helpers take their fallback path here.
        assert_eq!(dies_flag(512), 512);
        assert_eq!(dies_flag(0), 1);
        assert_eq!(budget_flag(), None);
    }

    #[test]
    fn runtime_flags_fall_back_to_the_machine_and_the_environment() {
        assert!(!quick_flag() && !adaptive_flag());
        assert_eq!(
            workers_flag(),
            nfbist_runtime::WorkQueue::with_available_parallelism().workers()
        );
        assert_eq!(monitors_flag(6), 6);
        assert_eq!(monitors_flag(0), 1);
        // Without `--chaos` the seed is whatever `NFBIST_CHAOS` holds.
        assert_eq!(
            chaos_flag(),
            nfbist_runtime::ChaosConfig::from_env().map(|c| c.seed())
        );
    }

    #[test]
    fn peak_rss_is_reported_in_bytes_and_never_falls() {
        let Some(before) = peak_rss_bytes() else {
            // Only Linux exposes the high-water mark.
            return;
        };
        assert!(before > 0);
        // Touch 32 MiB: the high-water mark must cover it (a kB figure
        // mistaken for bytes would not).
        let block = vec![1u8; 32 << 20];
        assert_eq!(block.iter().map(|&b| u64::from(b)).sum::<u64>(), 32 << 20);
        let after = peak_rss_bytes().unwrap();
        assert!(after >= before);
        assert!(after >= 32 << 20, "peak {after} B after touching 32 MiB");
    }

    #[test]
    fn record_sizes_by_mode() {
        assert_eq!(record_sizes(false), (1_000_000, 10_000));
        assert!(record_sizes(true).0 < 1_000_000);
    }
}
