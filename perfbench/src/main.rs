//! End-to-end and per-layer benchmark of the nfbist workspace.
//!
//! ```text
//! nfbist-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit SHA]
//! ```
//!
//! Workloads: `paper_measurement`, `lot_screen`, `monitor_fleet` (see
//! `BENCHMARK.json` for why each was chosen). The six library crates
//! are black boxes: every span is taken here, around calls to their
//! public functions.
//!
//! With `--trace 0` the run times the workload untraced and reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer
//! metrics from traced units of the same workload. Either way it checks
//! the workload's outputs and counts every failed operation or check.
//! Stdout carries a context line, detail lines, and as its last line
//! the result object `{"correct", "attempted", "failed", "metrics"}`.

mod lot;
mod measure;
mod monitor;
mod paper;
mod pipeline;

use measure::json_string;

/// What one invocation runs.
pub struct RunConfig {
    pub seed: u64,
    /// Seconds the measured phase runs for.
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for the fleet workloads: the host's core count.
    pub workers: usize,
}

struct Args {
    workload: String,
    commit: String,
    config: RunConfig,
}

const USAGE: &str =
    "usage: nfbist-perfbench --workload paper_measurement|lot_screen|monitor_fleet \
                     --seed N --seconds S --trace 0|1 [--commit SHA]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--commit" => commit = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        commit,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            workers,
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cfg = &args.config;
    // The paper measurement is single-threaded by definition; the fleet
    // workloads fan out over every core.
    let workers_used = if args.workload == "paper_measurement" {
        1
    } else {
        cfg.workers
    };
    println!(
        "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"workers\": {}, \"simd_arm\": {}, \"commit\": {}}}}}",
        json_string(&args.workload),
        cfg.seed,
        cfg.trace,
        cfg.workers,
        workers_used,
        json_string(nfbist_dsp::simd::active_arm().name()),
        json_string(&args.commit),
    );
    let result = match args.workload.as_str() {
        "paper_measurement" => paper::run(cfg),
        "lot_screen" => lot::run(cfg),
        "monitor_fleet" => monitor::run(cfg),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for line in &outcome.details {
        println!("# {line}");
    }
    for failure in &outcome.checks.failures {
        println!("# FAILED: {failure}");
    }
    println!(
        "# error_rate {} ({} failed of {} attempted)",
        outcome.checks.error_rate(),
        outcome.checks.failed,
        outcome.checks.attempted
    );
    for m in &outcome.metrics {
        println!(
            "# {} = {} {}",
            m.name,
            measure::json_number(m.value),
            m.unit
        );
    }
    println!("{}", outcome.result_json());
}
