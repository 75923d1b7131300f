//! # nfbist — umbrella crate for the DATE'05 noise-figure BIST reproduction
//!
//! Reproduction of Negreiros, Carro & Susin, *"Noise Figure Evaluation
//! Using Low Cost BIST"* (DATE 2005). This crate re-exports the
//! workspace's layers under one roof and hosts the workspace-level
//! examples and integration tests:
//!
//! * [`nfbist_dsp`] — FFTs, Welch PSDs, windows, Goertzel, statistics.
//! * [`nfbist_analog`] — the simulated analog bench: noise sources,
//!   op-amp models, DUT circuits (the [`nfbist_analog::dut::Dut`]
//!   trait), converters (the
//!   [`nfbist_analog::converter::Digitizer`] trait).
//! * [`nfbist_core`] — Y-factor equations, the arcsine law, and the
//!   Table 2 estimators behind
//!   [`nfbist_core::power_ratio::PowerRatioEstimator`].
//! * [`nfbist_soc`] — the SoC measurement environment, centred on
//!   [`nfbist_soc::session::MeasurementSession`].
//! * [`nfbist_runtime`] — the parallel execution engine:
//!   [`nfbist_runtime::BatchPlan`], deterministic fan-out of repeats,
//!   Monte Carlo trials, sweep cells and multipoint slots over
//!   [`nfbist_runtime::WorkQueue`], and the supervised
//!   [`nfbist_runtime::FleetPlan`] and [`nfbist_runtime::Service`] for
//!   lot screens and monitor fleets.
//! * [`nfbist_bench`] — experiment scenario builders shared by the
//!   paper-table binaries.
//!
//! See the repository `README.md` for the quickstart, the [`workflow`]
//! module for the end-to-end walkthrough (DUT → digitizer → estimator
//! → screen → coverage campaign), the [`theory`] module for the
//! paper-to-code map (Y-factor equations, arcsine law, Welch variance
//! vs test time), and `ARCHITECTURE.md` for how the traits map onto
//! the paper's figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc = include_str!("../docs/THEORY.md")]
pub mod theory {}

#[doc = include_str!("../docs/WORKFLOW.md")]
pub mod workflow {}

pub use nfbist_analog;
pub use nfbist_bench;
pub use nfbist_core;
pub use nfbist_dsp;
pub use nfbist_runtime;
pub use nfbist_soc;
