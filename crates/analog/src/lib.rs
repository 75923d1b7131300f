//! # nfbist-analog — analog signal-level simulation substrate
//!
//! The DATE'05 paper *"Noise Figure Evaluation Using Low Cost BIST"*
//! evaluated its method on a physical prototype: an HP33120A noise
//! generator, a programmable attenuator, a non-inverting amplifier DUT
//! built around four different op-amps, a high-gain post-amplifier and a
//! voltage comparator acting as a 1-bit digitizer. This crate rebuilds
//! that bench as a sampled-signal simulator:
//!
//! * [`units`] / [`constants`] — physical quantities ([`units::Kelvin`],
//!   [`units::Ohms`], …) and the Boltzmann constant / 290 K reference.
//! * [`noise`] — white Gaussian synthesis, arbitrary-PSD shaped noise,
//!   and the calibrated hot/cold [`noise::CalibratedNoiseSource`] the
//!   Y-factor method requires.
//! * [`source`] — deterministic waveforms (sine, and square with
//!   optional harmonic truncation) for the reference input.
//! * [`opamp`] — datasheet-style op-amp noise models (`en`, `in`, 1/f
//!   corners) with the paper's four parts built in.
//! * [`circuits`] — the non-inverting amplifier DUT with full
//!   Motchenbacher-style noise analysis (expected noise figure), and
//!   Friis cascades.
//! * [`component`] — behavioural blocks: amplifiers with finite bandwidth
//!   and saturation, programmable attenuators, summers, analog muxes.
//! * [`converter`] — the 1-bit comparator digitizer (the paper's BIST
//!   cell), a conventional N-bit ADC used as a baseline, and the
//!   [`converter::Digitizer`] trait + [`converter::AdcDigitizer`]
//!   front-end that let the measurement layer drive either
//!   interchangeably.
//! * [`dut`] — the [`dut::Dut`] trait every measurable circuit
//!   implements (gain, input-referred noise model, noisy transfer
//!   simulation), including [`dut::DutChain`] cascades.
//! * [`fault`] — parametric fault injection: [`fault::FaultyDut`]
//!   composes analog defects (input-path loss, gain drift, excess
//!   noise, lost bandwidth, interference) onto any `Dut`, and
//!   [`fault::FaultyDigitizer`] composes stuck/flipped-cell defects
//!   onto any front-end's 1-bit stream — the raw material of
//!   defect-coverage campaigns.
//! * [`wafer`] — fleet-scale population synthesis: wafer-disc die
//!   maps, seeded per-die process variation, spatially correlated
//!   defect models (edge rings, cluster blobs) and the [`wafer::Lot`]
//!   type whose every die is a pure function of `(lot seed, index)`.
//! * [`signal`] / [`bitstream`] — sampled-signal and bit-record
//!   containers.
//!
//! ## Example: digitize noise against a sine reference
//!
//! ```
//! use nfbist_analog::converter::OneBitDigitizer;
//! use nfbist_analog::noise::WhiteNoise;
//! use nfbist_analog::source::{SineSource, Waveform};
//!
//! # fn main() -> Result<(), nfbist_analog::AnalogError> {
//! let fs = 100_000.0;
//! let n = 4096;
//! let mut noise = WhiteNoise::new(1.0, 7)?; // σ = 1 V, seed 7
//! let noise_v = noise.generate(n);
//! let reference = SineSource::new(3_000.0, 0.15)?.generate(n, fs)?;
//!
//! let digitizer = OneBitDigitizer::ideal();
//! let bits = digitizer.digitize(&noise_v, &reference)?;
//! assert_eq!(bits.len(), n);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bitstream;
pub mod circuits;
pub mod component;
pub mod constants;
pub mod converter;
pub mod dut;
pub mod fault;
pub mod noise;
pub mod opamp;
pub mod signal;
pub mod source;
pub mod units;
pub mod wafer;

mod error;

pub use error::AnalogError;
