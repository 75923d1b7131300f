//! SoC resource accounting: what a BIST acquisition costs in memory and
//! arithmetic.
//!
//! Paper §1/§4: "in the SoC environment, as plenty of processing and
//! memory resources are available, it is possible to perform test
//! analysis by reusing these resources". This module quantifies the
//! claim — and the 1-bit digitizer's advantage over an ADC-based
//! capture.

use crate::SocError;

/// Estimated cost of one complete Y-factor measurement (two
/// acquisitions plus processing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Bytes to store one acquisition record.
    pub record_bytes: usize,
    /// Peak memory: both records plus one FFT working buffer.
    pub peak_memory_bytes: usize,
    /// Number of FFTs executed (Welch segments across both records).
    pub fft_count: usize,
    /// Estimated floating-point operations for the whole measurement.
    pub estimated_flops: u64,
}

/// Cost model for the proposed 1-bit capture: 1 bit/sample records,
/// Welch with 50 % overlap, `5·N·log₂N` flops per FFT.
pub fn one_bit_usage(samples: usize, nfft: usize) -> ResourceUsage {
    usage(samples, nfft, 1)
}

/// Cost model for an ADC capture at `bits` resolution (samples stored
/// in whole bytes, as a DMA engine would).
pub fn adc_usage(samples: usize, nfft: usize, bits: u32) -> ResourceUsage {
    usage(samples, nfft, (bits as usize).div_ceil(8) * 8)
}

/// Cost model for any acquisition front-end by its stored
/// `bits_per_sample` (see `Digitizer::bits_per_sample` in
/// `nfbist-analog`): 1-bit records pack tightly; multi-bit records are
/// stored in whole bytes, as a DMA engine would.
pub fn digitizer_usage(samples: usize, nfft: usize, bits_per_sample: u32) -> ResourceUsage {
    if bits_per_sample <= 1 {
        one_bit_usage(samples, nfft)
    } else {
        adc_usage(samples, nfft, bits_per_sample)
    }
}

fn usage(samples: usize, nfft: usize, bits_per_sample: usize) -> ResourceUsage {
    let record_bytes = (samples * bits_per_sample).div_ceil(8);
    // FFT working buffer: nfft complex f64 = 16 bytes each.
    let working = nfft * 16;
    let segments_per_record = if samples >= nfft {
        1 + (samples - nfft) / (nfft / 2).max(1)
    } else {
        0
    };
    let fft_count = 2 * segments_per_record;
    let flops_per_fft = (5 * nfft) as u64 * (nfft as f64).log2().ceil() as u64;
    ResourceUsage {
        record_bytes,
        peak_memory_bytes: 2 * record_bytes + working,
        fft_count,
        estimated_flops: fft_count as u64 * flops_per_fft,
    }
}

/// A memory budget the acquisition must fit.
///
/// # Examples
///
/// ```
/// use nfbist_soc::resources::{one_bit_usage, ResourceBudget};
///
/// // 10⁶ 1-bit samples fit easily in 512 kB of SoC SRAM…
/// let budget = ResourceBudget::new(512 * 1024);
/// assert!(budget.check(&one_bit_usage(1_000_000, 10_000)).is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceBudget {
    memory_bytes: usize,
}

impl ResourceBudget {
    /// Creates a budget of `memory_bytes` bytes.
    pub fn new(memory_bytes: usize) -> Self {
        ResourceBudget { memory_bytes }
    }

    /// The budgeted memory.
    pub fn memory_bytes(&self) -> usize {
        self.memory_bytes
    }

    /// Checks a usage estimate against the budget.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::BudgetExceeded`] when the peak memory does
    /// not fit.
    pub fn check(&self, usage: &ResourceUsage) -> Result<(), SocError> {
        if usage.peak_memory_bytes > self.memory_bytes {
            return Err(SocError::BudgetExceeded {
                requested_bytes: usage.peak_memory_bytes,
                budget_bytes: self.memory_bytes,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_acquisition_fits_small_sram() {
        // 10⁶ samples, 10⁴-point FFT: two 1-bit records = 250 kB, plus
        // a 160 kB FFT buffer.
        let u = one_bit_usage(1_000_000, 10_000);
        assert_eq!(u.record_bytes, 125_000);
        assert!(u.peak_memory_bytes < 512 * 1024);
        assert!(ResourceBudget::new(512 * 1024).check(&u).is_ok());
    }

    #[test]
    fn adc_capture_is_an_order_of_magnitude_bigger() {
        let one_bit = one_bit_usage(1_000_000, 10_000);
        let adc12 = adc_usage(1_000_000, 10_000, 12);
        // 12-bit stored as 2 bytes → 16× the record size.
        assert_eq!(adc12.record_bytes, 16 * one_bit.record_bytes);
        assert!(ResourceBudget::new(512 * 1024).check(&adc12).is_err());
    }

    #[test]
    fn segment_counting() {
        let u = one_bit_usage(10_000, 10_000);
        assert_eq!(u.fft_count, 2); // one segment per record
        let u = one_bit_usage(1_000_000, 10_000);
        // 1 + (1e6−1e4)/5e3 = 199 segments per record.
        assert_eq!(u.fft_count, 2 * 199);
        let u = one_bit_usage(100, 1_000);
        assert_eq!(u.fft_count, 0);
    }

    #[test]
    fn flops_scale_with_fft_count() {
        let small = one_bit_usage(100_000, 1_000);
        let large = one_bit_usage(1_000_000, 1_000);
        assert!(large.estimated_flops > 9 * small.estimated_flops);
    }

    #[test]
    fn budget_error_reports_both_numbers() {
        let u = adc_usage(1_000_000, 10_000, 16);
        let err = ResourceBudget::new(1024).check(&u).unwrap_err();
        match err {
            SocError::BudgetExceeded {
                requested_bytes,
                budget_bytes,
            } => {
                assert_eq!(budget_bytes, 1024);
                assert!(requested_bytes > 4_000_000);
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn cost_model_counts_the_segments_welch_averages() {
        for (samples, nfft) in [
            (1_000_000usize, 10_000usize),
            (1 << 15, 1_024),
            (5_000, 1_024),
        ] {
            let welch = nfbist_dsp::psd::WelchConfig::new(nfft)
                .unwrap()
                .overlap(0.5)
                .unwrap();
            let u = one_bit_usage(samples, nfft);
            assert_eq!(u.fft_count, 2 * welch.segment_count(samples));
        }
        // Too short for one segment: nothing to transform.
        assert_eq!(one_bit_usage(500, 1_024).fft_count, 0);
    }

    #[test]
    fn digitizer_usage_routes_by_stored_bit_depth() {
        let (n, nfft) = (1 << 16, 2_048);
        assert_eq!(digitizer_usage(n, nfft, 1), one_bit_usage(n, nfft));
        assert_eq!(digitizer_usage(n, nfft, 12), adc_usage(n, nfft, 12));
        // Multi-bit samples occupy whole bytes: 12 bits store as 16.
        assert_eq!(adc_usage(n, nfft, 12).record_bytes, 2 * n);
        assert_eq!(adc_usage(n, nfft, 8).record_bytes, n);
        assert_eq!(one_bit_usage(n, nfft).record_bytes, n / 8);
        // The front-end changes memory, never the processing bill.
        assert_eq!(
            adc_usage(n, nfft, 12).estimated_flops,
            one_bit_usage(n, nfft).estimated_flops
        );
    }
}
