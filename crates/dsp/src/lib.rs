//! # nfbist-dsp — digital signal processing substrate
//!
//! This crate provides the signal-processing machinery that the DATE'05
//! paper *"Noise Figure Evaluation Using Low Cost BIST"* performed in
//! Matlab: FFTs, power spectral density estimation, window functions,
//! autocorrelation and basic statistics. Everything is
//! implemented from scratch on `f64` buffers so the reproduction has no
//! opaque numeric dependencies.
//!
//! ## Quick tour
//!
//! ```
//! use nfbist_dsp::fft::Fft;
//! use nfbist_dsp::psd::WelchConfig;
//! use nfbist_dsp::window::Window;
//!
//! # fn main() -> Result<(), nfbist_dsp::DspError> {
//! // A 1 kHz tone sampled at 16 kHz.
//! let fs = 16_000.0;
//! let x: Vec<f64> = (0..4096)
//!     .map(|n| (2.0 * std::f64::consts::PI * 1000.0 * n as f64 / fs).sin())
//!     .collect();
//!
//! // Welch PSD with a Hann window.
//! let psd = WelchConfig::new(1024)?
//!     .window(Window::Hann)
//!     .overlap(0.5)?
//!     .estimate(&x, fs)?;
//! let peak = psd.peak_in_band(500.0, 1500.0)?;
//! assert!((peak.frequency - 1000.0).abs() < psd.resolution());
//!
//! // Or a raw FFT.
//! let plan = Fft::new(1024)?;
//! let spec = plan.forward_real(&x[..1024])?;
//! assert_eq!(spec.len(), 1024);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | Module | Contents |
//! |---|---|
//! | [`complex`] | Minimal `Complex64` arithmetic used by the FFTs |
//! | [`fft`] | Radix-2 FFT plans, the real-input FFT (radix-2, or radix-4/2/5 for even `2^a·5^c` sizes such as the paper's 10⁴), Bluestein for the other sizes |
//! | [`window`] | Window functions and their coherent/noise gains |
//! | [`psd`] | Periodogram and Welch PSD estimators producing [`spectrum::Spectrum`] |
//! | [`spectrum`] | One-sided PSD container: bin↔frequency maps, band power, peaks |
//! | [`correlation`] | Biased/unbiased auto- and cross-correlation (direct and FFT) |
//! | [`goertzel`] | Single-bin DFT for cheap reference-line tracking |
//! | [`simd`] | Runtime-dispatched SIMD kernels (AVX2/NEON/scalar) for the hot loops |
//! | [`soa`] | Structure-of-arrays record batches for vectorizing across repeats |
//! | [`stats`] | Mean, variance, RMS, mean-square, histogramming |
//! | [`db`] | Decibel conversions for power and amplitude quantities |

// Unsafe is denied crate-wide and re-allowed only inside `simd`, whose
// `std::arch` intrinsic calls are the single sanctioned exception (each
// carries a Safety comment; every other crate in the workspace stays
// `forbid(unsafe_code)`).
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod complex;
pub mod correlation;
pub mod db;
pub mod fft;
pub mod goertzel;
pub mod psd;
pub mod simd;
pub mod soa;
pub mod spectrum;
pub mod stats;
pub mod window;

mod error;

pub use error::DspError;
