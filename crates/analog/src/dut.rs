//! The `Dut` abstraction: any circuit whose noise figure the BIST can
//! measure.
//!
//! The paper's prototype measured one specific circuit (a non-inverting
//! op-amp amplifier), but nothing in the method is specific to it: the
//! Y-factor BIST needs only (a) a way to push the source noise through
//! the circuit while the circuit adds its own noise, and (b) an
//! analytic input-referred noise model so the *expected* noise figure
//! can be computed for comparison. [`Dut`] captures exactly that
//! contract, and is object-safe so a measurement session can hold any
//! circuit — the paper's amplifier, the inverting variant, passive
//! attenuators, or whole cascades ([`DutChain`]).

use crate::circuits::{InvertingAmplifier, NonInvertingAmplifier};
use crate::component::{Amplifier, Attenuator, Block};
use crate::noise::ShapedNoise;
use crate::units::{Kelvin, Ohms};
use crate::AnalogError;

/// A stateful, chunk-by-chunk view of one [`Dut::process`] pass: the
/// backbone of bounded-memory acquisition.
///
/// Obtained from [`Dut::process_stream`]. Input chunks go in through
/// [`DutStream::push`]; output samples come back out as input arrives,
/// in `O(chunk)` memory, in the same order — and, for every stream
/// this crate ships, with the **same bits** — as one whole-record
/// [`Dut::process`] call, because the underlying noise synthesis and
/// filter state evolve sequentially either way.
pub trait DutStream {
    /// Feeds one input chunk; appends whatever output samples become
    /// available to `out`.
    ///
    /// # Errors
    ///
    /// Propagates synthesis/model errors.
    fn push(&mut self, input: &[f64], out: &mut Vec<f64>) -> Result<(), AnalogError>;

    /// Signals end-of-record; appends any remaining output to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::EmptyInput`] when no sample was ever
    /// pushed (mirroring [`Dut::process`] on an empty record) and
    /// propagates model errors.
    fn finish(&mut self, out: &mut Vec<f64>) -> Result<(), AnalogError>;
}

/// Incremental stream for the noisy amplifier circuits: per-chunk
/// synthesis from the same sequential [`ShapedNoise`] generator one
/// batch `amplify` call would use, so concatenated chunks carry
/// identical bits.
struct NoisyGainStream {
    noise: ShapedNoise,
    gain: f64,
    fed: bool,
}

impl DutStream for NoisyGainStream {
    fn push(&mut self, input: &[f64], out: &mut Vec<f64>) -> Result<(), AnalogError> {
        if input.is_empty() {
            return Ok(());
        }
        let own = self.noise.generate(input.len())?;
        let g = self.gain;
        out.extend(input.iter().zip(&own).map(|(&x, &n)| g * (x + n)));
        self.fed = true;
        Ok(())
    }

    fn finish(&mut self, _out: &mut Vec<f64>) -> Result<(), AnalogError> {
        if !self.fed {
            return Err(AnalogError::EmptyInput {
                context: "process_stream",
            });
        }
        Ok(())
    }
}

/// Incremental stream for behavioural [`Block`] stages (ideal
/// amplifier, attenuator): the block's filter state lives across
/// chunks, so chunked processing equals the whole-record pass.
struct BlockDutStream<B: Block> {
    stage: B,
    fed: bool,
}

impl<B: Block> DutStream for BlockDutStream<B> {
    fn push(&mut self, input: &[f64], out: &mut Vec<f64>) -> Result<(), AnalogError> {
        if input.is_empty() {
            return Ok(());
        }
        out.extend(self.stage.process(input));
        self.fed = true;
        Ok(())
    }

    fn finish(&mut self, _out: &mut Vec<f64>) -> Result<(), AnalogError> {
        if !self.fed {
            return Err(AnalogError::EmptyInput {
                context: "process_stream",
            });
        }
        Ok(())
    }
}

/// Streaming composition of a [`DutChain`]: each stage's stream feeds
/// the next, and at finish every stage's tail is flushed through the
/// remainder of the chain in order.
struct ChainStream<'a> {
    stages: Vec<Box<dyn DutStream + 'a>>,
    /// Ping-pong buffers reused across pushes, so the steady-state
    /// chain cascade allocates nothing once their capacity has grown
    /// to one chunk.
    ping: Vec<f64>,
    pong: Vec<f64>,
    fed: bool,
}

impl ChainStream<'_> {
    /// Pushes `chunk` through stages `from..`, appending the final
    /// stage's output to `out`.
    fn cascade(
        &mut self,
        from: usize,
        chunk: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), AnalogError> {
        self.ping.clear();
        self.ping.extend_from_slice(chunk);
        for stage in &mut self.stages[from..] {
            self.pong.clear();
            stage.push(&self.ping, &mut self.pong)?;
            std::mem::swap(&mut self.ping, &mut self.pong);
        }
        out.extend_from_slice(&self.ping);
        Ok(())
    }
}

impl DutStream for ChainStream<'_> {
    fn push(&mut self, input: &[f64], out: &mut Vec<f64>) -> Result<(), AnalogError> {
        if input.is_empty() {
            return Ok(());
        }
        self.fed = true;
        if self.stages.is_empty() {
            out.extend_from_slice(input);
            return Ok(());
        }
        self.cascade(0, input, out)
    }

    fn finish(&mut self, out: &mut Vec<f64>) -> Result<(), AnalogError> {
        if !self.fed {
            return Err(AnalogError::EmptyInput {
                context: "process_stream",
            });
        }
        // Once per record, not per chunk — fresh buffers are fine.
        for i in 0..self.stages.len() {
            let mut flushed = Vec::new();
            self.stages[i].finish(&mut flushed)?;
            if i + 1 < self.stages.len() {
                self.cascade(i + 1, &flushed, out)?;
            } else {
                out.extend_from_slice(&flushed);
            }
        }
        Ok(())
    }
}

/// A device under test: a circuit with a known gain, an analytic
/// input-referred noise model, and a signal-level simulation of its
/// noisy transfer.
///
/// Object-safe by design — measurement sessions hold `Box<dyn Dut>`.
///
/// # Examples
///
/// ```
/// use nfbist_analog::circuits::NonInvertingAmplifier;
/// use nfbist_analog::dut::Dut;
/// use nfbist_analog::opamp::OpampModel;
/// use nfbist_analog::units::Ohms;
///
/// # fn main() -> Result<(), nfbist_analog::AnalogError> {
/// let dut: Box<dyn Dut> = Box::new(NonInvertingAmplifier::new(
///     OpampModel::op27(),
///     Ohms::new(10_000.0),
///     Ohms::new(100.0),
/// )?);
/// assert!((dut.gain() - 101.0).abs() < 1e-12);
/// let nf = dut.expected_noise_figure_db(Ohms::new(2_000.0), 100.0, 1_000.0)?;
/// assert!(nf > 0.0 && nf < 6.0);
/// # Ok(())
/// # }
/// ```
pub trait Dut: Send + Sync {
    /// Human-readable description for reports.
    fn label(&self) -> String;

    /// Magnitude of the mid-band voltage gain.
    fn gain(&self) -> f64;

    /// Input-referred noise density **squared** added by the circuit at
    /// frequency `f` for source resistance `rs`, in V²/Hz (the source's
    /// own thermal noise excluded).
    fn added_noise_density_sq(&self, rs: Ohms, f: f64) -> f64;

    /// Band average of [`Dut::added_noise_density_sq`] over
    /// `[f_lo, f_hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for an invalid band.
    fn mean_added_noise_density_sq(
        &self,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError>;

    /// Simulates the circuit: amplifies `input` (the voltage at the
    /// circuit input, already carrying the source's noise), adding the
    /// circuit's own synthesized noise. `seed` makes the added noise
    /// deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::EmptyInput`] for an empty record and
    /// propagates synthesis errors.
    fn process(
        &self,
        input: &[f64],
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Vec<f64>, AnalogError>;

    /// Expected noise factor over a band for source resistance `rs`:
    /// `F = 1 + added/(4kT₀·Rs)`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a non-positive
    /// source resistance or an invalid band.
    fn expected_noise_factor(&self, rs: Ohms, f_lo: f64, f_hi: f64) -> Result<f64, AnalogError> {
        if !(rs.value() > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "rs",
                reason: "source resistance must be positive",
            });
        }
        let source = rs.thermal_noise_density_sq(Kelvin::REFERENCE);
        let added = self.mean_added_noise_density_sq(rs, f_lo, f_hi)?;
        Ok(1.0 + added / source)
    }

    /// Expected noise figure in dB over a band.
    ///
    /// # Errors
    ///
    /// Same as [`Dut::expected_noise_factor`].
    fn expected_noise_figure_db(&self, rs: Ohms, f_lo: f64, f_hi: f64) -> Result<f64, AnalogError> {
        Ok(10.0 * self.expected_noise_factor(rs, f_lo, f_hi)?.log10())
    }

    /// Begins one streaming [`Dut::process`] pass: the returned
    /// [`DutStream`] accepts input chunks and yields output chunks
    /// whose concatenation matches a single whole-record `process`
    /// call with the same arguments, in `O(chunk)` memory.
    ///
    /// # Errors
    ///
    /// Returns construction-time model errors (e.g. an invalid source
    /// resistance).
    fn process_stream<'a>(
        &'a self,
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Box<dyn DutStream + 'a>, AnalogError>;
}

impl<D: Dut + ?Sized> Dut for Box<D> {
    fn label(&self) -> String {
        (**self).label()
    }

    fn gain(&self) -> f64 {
        (**self).gain()
    }

    fn added_noise_density_sq(&self, rs: Ohms, f: f64) -> f64 {
        (**self).added_noise_density_sq(rs, f)
    }

    fn mean_added_noise_density_sq(
        &self,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        (**self).mean_added_noise_density_sq(rs, f_lo, f_hi)
    }

    fn process(
        &self,
        input: &[f64],
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Vec<f64>, AnalogError> {
        (**self).process(input, rs, sample_rate, seed)
    }

    fn expected_noise_factor(&self, rs: Ohms, f_lo: f64, f_hi: f64) -> Result<f64, AnalogError> {
        (**self).expected_noise_factor(rs, f_lo, f_hi)
    }

    fn process_stream<'a>(
        &'a self,
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Box<dyn DutStream + 'a>, AnalogError> {
        (**self).process_stream(rs, sample_rate, seed)
    }
}

impl Dut for NonInvertingAmplifier {
    fn label(&self) -> String {
        format!(
            "non-inverting {} (Av = {:.0})",
            self.opamp().name(),
            NonInvertingAmplifier::gain(self)
        )
    }

    fn gain(&self) -> f64 {
        NonInvertingAmplifier::gain(self)
    }

    fn added_noise_density_sq(&self, rs: Ohms, f: f64) -> f64 {
        NonInvertingAmplifier::added_noise_density_sq(self, rs, f)
    }

    fn mean_added_noise_density_sq(
        &self,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        NonInvertingAmplifier::mean_added_noise_density_sq(self, rs, f_lo, f_hi)
    }

    fn process(
        &self,
        input: &[f64],
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Vec<f64>, AnalogError> {
        self.amplify(input, rs, sample_rate, seed)
    }

    fn process_stream<'a>(
        &'a self,
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Box<dyn DutStream + 'a>, AnalogError> {
        Ok(Box::new(NoisyGainStream {
            noise: self.noise_stream(rs, sample_rate, seed)?,
            gain: NonInvertingAmplifier::gain(self),
            fed: false,
        }))
    }
}

impl Dut for InvertingAmplifier {
    fn label(&self) -> String {
        format!(
            "inverting {} (Av = {:.0})",
            self.opamp().name(),
            InvertingAmplifier::gain(self)
        )
    }

    fn gain(&self) -> f64 {
        InvertingAmplifier::gain(self).abs()
    }

    /// The inverting stage's input resistor plays the source-resistance
    /// role, so its added noise does not depend on the external `rs`.
    fn added_noise_density_sq(&self, _rs: Ohms, f: f64) -> f64 {
        InvertingAmplifier::added_noise_density_sq(self, f)
    }

    fn mean_added_noise_density_sq(
        &self,
        _rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        if !(f_lo > 0.0 && f_hi > f_lo) {
            return Err(AnalogError::InvalidParameter {
                name: "band",
                reason: "requires 0 < f_lo < f_hi",
            });
        }
        // Trapezoidal average of the exact pointwise model; the density
        // is smooth and monotone in f, so a fixed grid is plenty.
        let steps = 64;
        let mut acc = 0.0;
        for k in 0..=steps {
            let f = f_lo + (f_hi - f_lo) * k as f64 / steps as f64;
            let w = if k == 0 || k == steps { 0.5 } else { 1.0 };
            acc += w * InvertingAmplifier::added_noise_density_sq(self, f);
        }
        Ok(acc / steps as f64)
    }

    fn process(
        &self,
        input: &[f64],
        _rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Vec<f64>, AnalogError> {
        self.amplify(input, sample_rate, seed)
    }

    fn process_stream<'a>(
        &'a self,
        _rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Box<dyn DutStream + 'a>, AnalogError> {
        Ok(Box::new(NoisyGainStream {
            noise: self.noise_stream(sample_rate, seed)?,
            // The batch `amplify` applies the signed gain.
            gain: InvertingAmplifier::gain(self),
            fed: false,
        }))
    }
}

impl Dut for Amplifier {
    fn label(&self) -> String {
        format!("ideal gain stage (Av = {:.2})", self.actual_gain())
    }

    fn gain(&self) -> f64 {
        self.actual_gain().abs()
    }

    /// The behavioural amplifier block is noiseless by construction.
    fn added_noise_density_sq(&self, _rs: Ohms, _f: f64) -> f64 {
        0.0
    }

    fn mean_added_noise_density_sq(
        &self,
        _rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        if !(f_lo > 0.0 && f_hi > f_lo) {
            return Err(AnalogError::InvalidParameter {
                name: "band",
                reason: "requires 0 < f_lo < f_hi",
            });
        }
        Ok(0.0)
    }

    fn process(
        &self,
        input: &[f64],
        _rs: Ohms,
        _sample_rate: f64,
        _seed: u64,
    ) -> Result<Vec<f64>, AnalogError> {
        if input.is_empty() {
            return Err(AnalogError::EmptyInput { context: "process" });
        }
        let mut stage = self.clone();
        Block::reset(&mut stage);
        Ok(Block::process(&mut stage, input))
    }

    fn process_stream<'a>(
        &'a self,
        _rs: Ohms,
        _sample_rate: f64,
        _seed: u64,
    ) -> Result<Box<dyn DutStream + 'a>, AnalogError> {
        let mut stage = self.clone();
        Block::reset(&mut stage);
        Ok(Box::new(BlockDutStream { stage, fed: false }))
    }
}

impl Dut for Attenuator {
    fn label(&self) -> String {
        format!("attenuator ({:.2} dB)", self.attenuation_db())
    }

    fn gain(&self) -> f64 {
        self.linear_factor()
    }

    /// The behavioural attenuator is modelled noiseless in the voltage
    /// domain (its matched-power noise figure is accounted for by the
    /// gain term in cascade analyses).
    fn added_noise_density_sq(&self, _rs: Ohms, _f: f64) -> f64 {
        0.0
    }

    fn mean_added_noise_density_sq(
        &self,
        _rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        if !(f_lo > 0.0 && f_hi > f_lo) {
            return Err(AnalogError::InvalidParameter {
                name: "band",
                reason: "requires 0 < f_lo < f_hi",
            });
        }
        Ok(0.0)
    }

    fn process(
        &self,
        input: &[f64],
        _rs: Ohms,
        _sample_rate: f64,
        _seed: u64,
    ) -> Result<Vec<f64>, AnalogError> {
        if input.is_empty() {
            return Err(AnalogError::EmptyInput { context: "process" });
        }
        let mut stage = self.clone();
        Ok(Block::process(&mut stage, input))
    }

    fn process_stream<'a>(
        &'a self,
        _rs: Ohms,
        _sample_rate: f64,
        _seed: u64,
    ) -> Result<Box<dyn DutStream + 'a>, AnalogError> {
        Ok(Box::new(BlockDutStream {
            stage: self.clone(),
            fed: false,
        }))
    }
}

/// A cascade of [`Dut`] stages measured as one device: gains multiply,
/// input-referred noise accumulates Friis-style (later stages' noise is
/// divided by the gain ahead of them), and the signal path runs the
/// stages in order.
///
/// # Examples
///
/// ```
/// use nfbist_analog::circuits::NonInvertingAmplifier;
/// use nfbist_analog::component::Attenuator;
/// use nfbist_analog::dut::{Dut, DutChain};
/// use nfbist_analog::opamp::OpampModel;
/// use nfbist_analog::units::Ohms;
///
/// # fn main() -> Result<(), nfbist_analog::AnalogError> {
/// let chain = DutChain::new()
///     .stage(Attenuator::from_db(6.0)?)
///     .stage(NonInvertingAmplifier::new(
///         OpampModel::op27(),
///         Ohms::new(10_000.0),
///         Ohms::new(100.0),
///     )?);
/// assert_eq!(chain.len(), 2);
/// assert!((chain.gain() - 101.0 * 10f64.powf(-6.0 / 20.0)).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct DutChain {
    stages: Vec<Box<dyn Dut>>,
}

impl std::fmt::Debug for DutChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DutChain")
            .field("stages", &self.label())
            .finish()
    }
}

impl DutChain {
    /// Creates an empty (identity) chain.
    pub fn new() -> Self {
        DutChain { stages: Vec::new() }
    }

    /// Appends a stage (builder style).
    pub fn stage(mut self, dut: impl Dut + 'static) -> Self {
        self.stages.push(Box::new(dut));
        self
    }

    /// Appends an already-boxed stage.
    pub fn push(&mut self, dut: Box<dyn Dut>) {
        self.stages.push(dut);
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` if the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Product of the gains of the first `upto` stages.
    fn gain_before(&self, upto: usize) -> f64 {
        self.stages[..upto].iter().map(|s| s.gain()).product()
    }
}

impl Dut for DutChain {
    fn label(&self) -> String {
        if self.stages.is_empty() {
            "empty chain".to_string()
        } else {
            self.stages
                .iter()
                .map(|s| s.label())
                .collect::<Vec<_>>()
                .join(" → ")
        }
    }

    fn gain(&self) -> f64 {
        self.gain_before(self.stages.len())
    }

    fn added_noise_density_sq(&self, rs: Ohms, f: f64) -> f64 {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let g = self.gain_before(i);
                s.added_noise_density_sq(rs, f) / (g * g)
            })
            .sum()
    }

    fn mean_added_noise_density_sq(
        &self,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        if !(f_lo > 0.0 && f_hi > f_lo) {
            return Err(AnalogError::InvalidParameter {
                name: "band",
                reason: "requires 0 < f_lo < f_hi",
            });
        }
        let mut total = 0.0;
        for (i, s) in self.stages.iter().enumerate() {
            let g = self.gain_before(i);
            total += s.mean_added_noise_density_sq(rs, f_lo, f_hi)? / (g * g);
        }
        Ok(total)
    }

    fn process(
        &self,
        input: &[f64],
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Vec<f64>, AnalogError> {
        if input.is_empty() {
            return Err(AnalogError::EmptyInput { context: "process" });
        }
        let mut buf = input.to_vec();
        for (i, s) in self.stages.iter().enumerate() {
            let stage_seed = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            buf = s.process(&buf, rs, sample_rate, stage_seed)?;
        }
        Ok(buf)
    }

    fn process_stream<'a>(
        &'a self,
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Box<dyn DutStream + 'a>, AnalogError> {
        // Per-stage seeds derived exactly as in the batch `process`
        // loop above, so the chained streams draw identical noise.
        let stages = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let stage_seed =
                    seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                s.process_stream(rs, sample_rate, stage_seed)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Box::new(ChainStream {
            stages,
            ping: Vec::new(),
            pong: Vec::new(),
            fed: false,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opamp::OpampModel;

    fn paper_dut() -> NonInvertingAmplifier {
        NonInvertingAmplifier::new(OpampModel::op27(), Ohms::new(10_000.0), Ohms::new(100.0))
            .unwrap()
    }

    #[test]
    fn trait_matches_inherent_for_noninverting() {
        let dut = paper_dut();
        let rs = Ohms::new(2_000.0);
        let via_trait: &dyn Dut = &dut;
        assert_eq!(via_trait.gain(), dut.gain());
        assert_eq!(
            via_trait.added_noise_density_sq(rs, 1_000.0),
            NonInvertingAmplifier::added_noise_density_sq(&dut, rs, 1_000.0)
        );
        assert!(
            (via_trait
                .expected_noise_figure_db(rs, 100.0, 1_000.0)
                .unwrap()
                - dut.expected_noise_figure_db(rs, 100.0, 1_000.0).unwrap())
            .abs()
                < 1e-12
        );
        assert!(via_trait.label().contains("OP27"));
    }

    #[test]
    fn inverting_band_average_brackets_endpoints() {
        let amp = InvertingAmplifier::new(
            OpampModel::ca3140(),
            Ohms::new(10_000.0),
            Ohms::new(1_000.0),
        )
        .unwrap();
        let rs = Ohms::new(1_000.0);
        let mean = Dut::mean_added_noise_density_sq(&amp, rs, 100.0, 1_000.0).unwrap();
        let lo = Dut::added_noise_density_sq(&amp, rs, 100.0);
        let hi = Dut::added_noise_density_sq(&amp, rs, 1_000.0);
        // 1/f noise falls with frequency, so the band mean sits between
        // the endpoint densities.
        assert!(mean <= lo && mean >= hi, "mean {mean} not in [{hi}, {lo}]");
        assert!(Dut::mean_added_noise_density_sq(&amp, rs, 0.0, 1e3).is_err());
    }

    #[test]
    fn passive_blocks_are_noiseless_duts() {
        let att = Attenuator::from_db(20.0).unwrap();
        let rs = Ohms::new(1_000.0);
        assert_eq!(Dut::added_noise_density_sq(&att, rs, 1e3), 0.0);
        assert!((Dut::gain(&att) - 0.1).abs() < 1e-12);
        let f = att.expected_noise_factor(rs, 100.0, 1_000.0).unwrap();
        assert_eq!(f, 1.0);
        let out = Dut::process(&att, &[1.0, -2.0], rs, 1e4, 0).unwrap();
        assert!((out[0] - 0.1).abs() < 1e-12);
        assert!(Dut::process(&att, &[], rs, 1e4, 0).is_err());

        let amp = Amplifier::ideal(5.0).unwrap();
        let out = Dut::process(&amp, &[2.0], rs, 1e4, 0).unwrap();
        assert!((out[0] - 10.0).abs() < 1e-12);
        assert_eq!(Dut::gain(&amp), 5.0);
    }

    #[test]
    fn chain_gain_and_noise_follow_friis_referral() {
        let rs = Ohms::new(2_000.0);
        let chain = DutChain::new()
            .stage(paper_dut())
            .stage(Amplifier::ideal(10.0).unwrap());
        assert!((chain.gain() - 1_010.0).abs() < 1e-9);
        // The noiseless second stage adds nothing, so the chain's
        // input-referred noise equals the first stage's.
        let solo = paper_dut();
        let d_chain = chain.added_noise_density_sq(rs, 1_000.0);
        let d_solo = Dut::added_noise_density_sq(&solo, rs, 1_000.0);
        assert!((d_chain - d_solo).abs() / d_solo < 1e-12);
        // And the expected NF matches the single-stage value.
        let nf_chain = chain.expected_noise_figure_db(rs, 100.0, 1_000.0).unwrap();
        let nf_solo = solo.expected_noise_figure_db(rs, 100.0, 1_000.0).unwrap();
        assert!((nf_chain - nf_solo).abs() < 1e-9);
    }

    #[test]
    fn chain_noise_dominated_by_first_stage() {
        // Friis through the trait: a noisy second stage behind the
        // paper's Av=101 first stage barely moves the input-referred
        // density.
        let rs = Ohms::new(2_000.0);
        let noisy_second =
            NonInvertingAmplifier::new(OpampModel::ca3140(), Ohms::new(10_000.0), Ohms::new(100.0))
                .unwrap();
        let chain = DutChain::new().stage(paper_dut()).stage(noisy_second);
        let d_chain = chain.added_noise_density_sq(rs, 1_000.0);
        let d_first = Dut::added_noise_density_sq(&paper_dut(), rs, 1_000.0);
        assert!(d_chain > d_first, "second stage must add something");
        assert!(
            (d_chain - d_first) / d_first < 0.02,
            "{d_chain} vs {d_first}"
        );
    }

    #[test]
    fn chain_processes_in_order_with_empty_identity() {
        let rs = Ohms::new(1_000.0);
        let empty = DutChain::new();
        assert!(empty.is_empty());
        assert_eq!(empty.gain(), 1.0);
        assert_eq!(empty.label(), "empty chain");
        let out = empty.process(&[1.5], rs, 1e4, 0).unwrap();
        assert_eq!(out, vec![1.5]);

        let mut chain = DutChain::new().stage(Amplifier::ideal(2.0).unwrap());
        chain.push(Box::new(Attenuator::from_db(6.020_599_913).unwrap()));
        assert_eq!(chain.len(), 2);
        let out = chain.process(&[1.0], rs, 1e4, 0).unwrap();
        assert!((out[0] - 1.0).abs() < 1e-9, "6 dB down from ×2: {}", out[0]);
        assert!(chain.label().contains("→"));
    }

    #[test]
    fn boxed_dut_delegates() {
        let boxed: Box<dyn Dut> = Box::new(paper_dut());
        assert_eq!(boxed.gain(), 101.0);
        let rs = Ohms::new(2_000.0);
        assert!(boxed.expected_noise_figure_db(rs, 100.0, 1_000.0).is_ok());
        let out = boxed.process(&[0.0; 16], rs, 2e4, 1).unwrap();
        assert_eq!(out.len(), 16);
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::opamp::OpampModel;

    fn paper_dut() -> NonInvertingAmplifier {
        NonInvertingAmplifier::new(OpampModel::op27(), Ohms::new(10_000.0), Ohms::new(100.0))
            .unwrap()
    }

    fn noise_input(n: usize, seed: u64) -> Vec<f64> {
        let mut w = crate::noise::WhiteNoise::new(1e-6, seed).unwrap();
        w.generate(n)
    }

    fn run_stream(dut: &dyn Dut, input: &[f64], chunk: usize) -> Vec<f64> {
        let rs = Ohms::new(2_000.0);
        let mut stream = dut.process_stream(rs, 2e4, 99).unwrap();
        let mut out = Vec::new();
        for c in input.chunks(chunk) {
            stream.push(c, &mut out).unwrap();
        }
        stream.finish(&mut out).unwrap();
        out
    }

    #[test]
    fn streamed_noninverting_matches_batch_bitwise() {
        let dut = paper_dut();
        let input = noise_input(10_000, 5);
        let batch = Dut::process(&dut, &input, Ohms::new(2_000.0), 2e4, 99).unwrap();
        for chunk in [1usize, 777, 4_096, 10_000] {
            let streamed = run_stream(&dut, &input, chunk);
            assert_eq!(streamed, batch, "chunk {chunk}");
        }
    }

    #[test]
    fn streamed_inverting_and_blocks_match_batch_bitwise() {
        let input = noise_input(5_000, 7);
        let rs = Ohms::new(2_000.0);
        let duts: Vec<Box<dyn Dut>> = vec![
            Box::new(
                InvertingAmplifier::new(
                    OpampModel::tl081(),
                    Ohms::new(10_000.0),
                    Ohms::new(1_000.0),
                )
                .unwrap(),
            ),
            Box::new(Amplifier::ideal(5.0).unwrap()),
            Box::new(Attenuator::from_db(6.0).unwrap()),
        ];
        for dut in &duts {
            let batch = dut.process(&input, rs, 2e4, 99).unwrap();
            let streamed = run_stream(dut.as_ref(), &input, 311);
            assert_eq!(streamed, batch, "{}", dut.label());
        }
    }

    #[test]
    fn streamed_chain_matches_batch_bitwise() {
        let chain = DutChain::new()
            .stage(Attenuator::from_db(6.0).unwrap())
            .stage(paper_dut())
            .stage(Amplifier::ideal(2.0).unwrap());
        let input = noise_input(4_096, 11);
        let batch = chain.process(&input, Ohms::new(2_000.0), 2e4, 99).unwrap();
        for chunk in [63usize, 1_000, 4_096] {
            let streamed = run_stream(&chain, &input, chunk);
            assert_eq!(streamed, batch, "chunk {chunk}");
        }
    }

    #[test]
    fn empty_streams_error_like_batch() {
        let dut = paper_dut();
        let mut stream = dut.process_stream(Ohms::new(2_000.0), 2e4, 0).unwrap();
        let mut out = Vec::new();
        stream.push(&[], &mut out).unwrap();
        assert!(stream.finish(&mut out).is_err(), "no samples ever pushed");
        // Invalid source resistance is caught at stream construction.
        assert!(dut.process_stream(Ohms::new(0.0), 2e4, 0).is_err());
    }
}
