//! Regenerates **Table 3** of the paper: noise figure results for the
//! four op-amps (OP27, OP07, TL081, CA3140) in the prototype setup of
//! Fig. 11 — non-inverting DUT (Av = 101), Th = 2900 K, T0 = 290 K,
//! 3 kHz sine reference, 1 kHz noise bandwidth, 10⁶ samples,
//! 10⁴-point FFT.
//!
//! The four op-amp rows are independent sweep cells, fanned out across
//! worker threads by the `nfbist-runtime` batch engine (`--workers N`,
//! default: all cores); each cell is seeded by its row index, so the
//! table is bit-identical for any worker count.

use nfbist_analog::circuits::NonInvertingAmplifier;
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::units::Ohms;
use nfbist_bench::{quick_flag, workers_flag};
use nfbist_runtime::BatchPlan;
use nfbist_soc::report::Table;
use nfbist_soc::session::{Measurement, MeasurementSession};
use nfbist_soc::setup::BistSetup;
use nfbist_soc::SocError;

fn measure_row(opamp: OpampModel, index: usize, quick: bool) -> Result<Measurement, SocError> {
    let dut = NonInvertingAmplifier::new(opamp, Ohms::new(10_000.0), Ohms::new(100.0))?;
    let setup = if quick {
        BistSetup::quick(2005 + index as u64)
    } else {
        BistSetup::paper_prototype(2005 + index as u64)
    };
    MeasurementSession::new(setup)?.dut(dut).run()
}

fn main() {
    let quick = quick_flag();
    let workers = workers_flag();
    println!("Table 3. Noise figure results for T0=290K and Th=2900K\n");

    // The paper's expected column, for side-by-side comparison.
    let paper_expected = [3.7, 6.5, 10.1, 16.2];
    let paper_measured = [3.69, 4.841, 9.698, 14.02];

    // One batch cell per op-amp row; cell order is preserved by the
    // batch plan, so the table rows come back in the paper's order.
    let cells: Vec<_> = OpampModel::paper_set()
        .into_iter()
        .enumerate()
        .map(|(i, opamp)| {
            move || {
                let name = opamp.name().to_string();
                let m = measure_row(opamp, i, quick).expect("measurement");
                (name, m)
            }
        })
        .collect();
    let rows = BatchPlan::new().workers(workers).run_cells(cells);

    let mut table = Table::new(vec![
        "Opamp",
        "Expected (ours)",
        "Measured (ours)",
        "Expected (paper)",
        "Measured (paper)",
    ]);
    for (i, (name, m)) in rows.into_iter().enumerate() {
        table.row(vec![
            name,
            format!("{:.2}", m.expected_nf_db),
            format!("{:.2}", m.nf.figure.db()),
            format!("{:.1}", paper_expected[i]),
            format!("{:.2}", paper_measured[i]),
        ]);
    }
    print!("{table}");
    println!(
        "\nshape criteria: ranking OP27 < OP07 < TL081 < CA3140 preserved;\n\
         each measured value within ~2 dB of its expectation (the paper's own\n\
         maximum absolute error). Expected values differ from the paper's\n\
         because they derive from our datasheet models and Rs = 2 kOhm (the\n\
         paper does not report its source resistance); see EXPERIMENTS.md."
    );
}
