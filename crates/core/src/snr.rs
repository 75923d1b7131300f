//! Signal-to-noise ratio measurement (paper eq. 1).
//!
//! `SNR = 10·log10(Vs²/Vn²)` — the quantity whose input/output ratio
//! defines the noise factor (eq. 2). This module estimates it from
//! records both in the time domain (signal-present vs signal-absent
//! captures) and spectrally (tone power vs integrated noise floor).

use crate::CoreError;
use nfbist_dsp::psd::WelchConfig;
use nfbist_dsp::spectrum::Spectrum;

/// An SNR estimate with its components exposed (C-INTERMEDIATE).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnrEstimate {
    /// Signal power (mean square, V²).
    pub signal_power: f64,
    /// Noise power (mean square, V²).
    pub noise_power: f64,
    /// The ratio in dB (eq. 1).
    pub snr_db: f64,
}

/// Time-domain SNR from two captures: one with the signal present
/// (signal + noise) and one with it absent (noise only). The signal
/// power is the difference of mean squares — valid when signal and
/// noise are uncorrelated.
///
/// # Errors
///
/// Returns [`CoreError::Degenerate`] when the signal-present capture
/// does not exceed the noise capture in power, and propagates empty
/// input errors.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), nfbist_core::CoreError> {
/// // Square-wave "signal" of power 4 over noise of power 1.
/// let with: Vec<f64> = (0..1000).map(|i| if i % 2 == 0 { 2.0 } else { -2.0 }).collect();
/// let mixed: Vec<f64> = with.iter().enumerate()
///     .map(|(i, v)| v + if i % 4 < 2 { 1.0 } else { -1.0 })
///     .collect();
/// let noise: Vec<f64> = (0..1000).map(|i| if i % 4 < 2 { 1.0 } else { -1.0 }).collect();
/// let est = nfbist_core::snr::snr_from_captures(&mixed, &noise)?;
/// assert!((est.snr_db - 6.02).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
pub fn snr_from_captures(
    signal_plus_noise: &[f64],
    noise_only: &[f64],
) -> Result<SnrEstimate, CoreError> {
    let total = nfbist_dsp::stats::mean_square(signal_plus_noise)?;
    let noise = nfbist_dsp::stats::mean_square(noise_only)?;
    if !(total > noise) || !(noise > 0.0) {
        return Err(CoreError::Degenerate {
            reason: "signal-present capture does not exceed the noise-only capture",
        });
    }
    let signal = total - noise;
    Ok(SnrEstimate {
        signal_power: signal,
        noise_power: noise,
        snr_db: 10.0 * (signal / noise).log10(),
    })
}

/// Spectral SNR of a tone at `tone_frequency` against the noise
/// integrated over `noise_band` (tone bins excluded), from a single
/// record.
///
/// # Errors
///
/// Propagates PSD and band errors; [`CoreError::Degenerate`] for a
/// powerless noise band.
pub fn snr_spectral(
    record: &[f64],
    sample_rate: f64,
    nfft: usize,
    tone_frequency: f64,
    noise_band: (f64, f64),
) -> Result<SnrEstimate, CoreError> {
    let psd = WelchConfig::new(nfft)?.estimate(record, sample_rate)?;
    snr_from_spectrum(&psd, tone_frequency, noise_band)
}

/// Same as [`snr_spectral`] but on a precomputed spectrum.
///
/// # Errors
///
/// Same as [`snr_spectral`].
pub fn snr_from_spectrum(
    psd: &Spectrum,
    tone_frequency: f64,
    noise_band: (f64, f64),
) -> Result<SnrEstimate, CoreError> {
    let k0 = psd.bin_of(tone_frequency)?;
    let tone_bins: Vec<usize> = psd.bins_around(tone_frequency, 3)?;
    let signal_power = psd.tone_power(k0, 3)?;
    let noise_power = psd.band_power_excluding(noise_band.0, noise_band.1, &tone_bins)?;
    if !(noise_power > 0.0) {
        return Err(CoreError::Degenerate {
            reason: "noise band carries no power",
        });
    }
    Ok(SnrEstimate {
        signal_power,
        noise_power,
        snr_db: 10.0 * (signal_power / noise_power).log10(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfbist_analog::noise::WhiteNoise;
    use nfbist_analog::source::{SineSource, Waveform};

    #[test]
    fn capture_method_validation() {
        assert!(snr_from_captures(&[], &[1.0]).is_err());
        // Noise-only exceeding the mixed capture is degenerate.
        assert!(snr_from_captures(&[1.0, -1.0], &[3.0, -3.0]).is_err());
        assert!(snr_from_captures(&[1.0], &[0.0]).is_err());
    }

    #[test]
    fn capture_method_on_synthetic_mix() {
        let n = 200_000;
        let fs = 20_000.0;
        let tone = SineSource::new(1_000.0, 1.0)
            .unwrap()
            .generate(n, fs)
            .unwrap();
        let noise = WhiteNoise::new(0.25, 1).unwrap().generate(n);
        let mixed: Vec<f64> = tone.iter().zip(&noise).map(|(a, b)| a + b).collect();
        let fresh_noise = WhiteNoise::new(0.25, 2).unwrap().generate(n);
        let est = snr_from_captures(&mixed, &fresh_noise).unwrap();
        // Signal power 0.5, noise power 0.0625 → 9.03 dB.
        assert!((est.snr_db - 9.03).abs() < 0.2, "snr {}", est.snr_db);
        assert!((est.signal_power - 0.5).abs() < 0.02);
        assert!((est.noise_power - 0.0625).abs() < 0.005);
    }

    #[test]
    fn spectral_method_matches_construction() {
        let n = 1 << 18;
        let fs = 20_000.0;
        let amp = 0.5;
        let sigma = 0.2;
        let tone = SineSource::new(2_000.0, amp)
            .unwrap()
            .generate(n, fs)
            .unwrap();
        let noise = WhiteNoise::new(sigma, 3).unwrap().generate(n);
        let mixed: Vec<f64> = tone.iter().zip(&noise).map(|(a, b)| a + b).collect();
        let est = snr_spectral(&mixed, fs, 4_096, 2_000.0, (100.0, 9_000.0)).unwrap();
        // Tone power amp²/2 = 0.125; noise in 100–9000 Hz of the
        // σ² = 0.04 white floor ≈ 0.04·8900/10000 = 0.0356 → 5.45 dB.
        let expected = 10.0 * (0.125f64 / (0.04 * 8_900.0 / 10_000.0)).log10();
        assert!(
            (est.snr_db - expected).abs() < 0.3,
            "snr {} vs {expected}",
            est.snr_db
        );
    }

    #[test]
    fn spectrum_method_splits_tone_skirt_from_band_noise() {
        // A flat floor of 1 with a 7-bin tone skirt of 50 around
        // 2 kHz: the tone power is the skirt and the noise is the rest
        // of the band, exactly.
        let (fs, nfft) = (20_000.0, 1_000usize);
        let df = fs / nfft as f64;
        let mut density = vec![1.0; nfft / 2 + 1];
        for d in &mut density[97..=103] {
            *d = 50.0;
        }
        let psd = Spectrum::new(density, fs, nfft).unwrap();
        let est = snr_from_spectrum(&psd, 2_000.0, (1_000.0, 3_000.0)).unwrap();
        assert!((est.signal_power - 7.0 * 50.0 * df).abs() < 1e-9);
        // Bins 50..=150 minus the 7 skirt bins.
        assert!((est.noise_power - 94.0 * df).abs() < 1e-9);
        assert!((est.snr_db - 10.0 * (350.0f64 / 94.0).log10()).abs() < 1e-12);
        // The tone must lie in range, and a silent band is degenerate.
        assert!(snr_from_spectrum(&psd, 12_000.0, (1_000.0, 3_000.0)).is_err());
        let silent = Spectrum::new(vec![0.0; nfft / 2 + 1], fs, nfft).unwrap();
        assert!(matches!(
            snr_from_spectrum(&silent, 2_000.0, (1_000.0, 3_000.0)),
            Err(CoreError::Degenerate { .. })
        ));
    }

    #[test]
    fn spectral_method_degenerate_on_silence() {
        let tone = SineSource::new(2_000.0, 1.0)
            .unwrap()
            .generate(1 << 14, 20_000.0)
            .unwrap();
        // A pure tone has (numerically) zero noise-band power.
        let result = snr_spectral(&tone, 20_000.0, 2_048, 2_000.0, (100.0, 1_000.0));
        match result {
            Err(CoreError::Degenerate { .. }) => {}
            Ok(est) => assert!(est.snr_db > 60.0, "snr {}", est.snr_db),
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
