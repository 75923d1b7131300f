//! Behavioural analog blocks: amplifiers, attenuators, summers and
//! multiplexers.
//!
//! Blocks process sample buffers; they model the signal path of the
//! paper's prototype (Fig. 11): noise generator → attenuator → DUT →
//! post-amplifier → comparator.

mod amplifier;
mod attenuator;
mod mux;
mod summer;

pub use amplifier::Amplifier;
pub use attenuator::Attenuator;
pub use mux::AnalogMux;
pub use summer::sum_signals;

/// A stateful signal-processing block.
///
/// Object-safe so a signal path can hold heterogeneous stages.
pub trait Block {
    /// Processes a buffer of input samples into output samples.
    fn process(&mut self, input: &[f64]) -> Vec<f64>;

    /// Resets any internal state (filter memories etc.).
    fn reset(&mut self) {}

    /// Small-signal mid-band voltage gain of the block.
    fn nominal_gain(&self) -> f64 {
        1.0
    }
}
