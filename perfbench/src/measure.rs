//! Timing, tracing and reporting helpers shared by the three workloads.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! the library's public functions: a [`Spans`] value accumulates wall
//! time per stage name for one traced unit of work, in memory, and the
//! workload folds many of them into medians when the run ends.

use std::time::Instant;

/// One reported metric: a name from `BENCHMARK.json`, its value and
/// unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Human-readable detail lines printed ahead of the result line.
    pub details: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn detail(&mut self, line: String) {
        self.details.push(line);
    }

    /// The result object the benchmark prints as its last line.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// Counts operations and correctness checks. A failed operation (an
/// `Err` or degenerate result, a faulted die or monitor) and a failed
/// check both count in `failed`; `failed / attempted` is the
/// workload's error rate.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one operation or check; `describe` names a failure.
    pub fn record(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(describe());
            }
        }
    }

    /// Records an operation that returned a `Result`, passing the value
    /// on when it succeeded.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.record(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.record(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Deterministic work counters of one unit of work, computed from the
/// workload's configuration and the library's reports (not sampled
/// while the program runs).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Noise samples delivered by the source and DUT models.
    pub samples_synthesized: u64,
    /// Welch segments transformed, hot and cold.
    pub welch_segments: u64,
    /// Segment transforms through the Bluestein plan (sizes that are
    /// not a power of two).
    pub fft_bluestein: u64,
    /// Segment transforms through the packed real power-of-two plan.
    pub fft_pow2: u64,
    /// Bytes of record-length buffers the batch path allocates.
    pub bytes_materialized: u64,
    pub dies: u64,
    pub retests: u64,
    pub emissions: u64,
    pub skipped_emissions: u64,
}

impl Counters {
    /// Adds `segments` Welch segment transforms at FFT size `nfft`.
    pub fn add_segments(&mut self, segments: u64, nfft: usize) {
        self.welch_segments += segments;
        if nfft.is_power_of_two() {
            self.fft_pow2 += segments;
        } else {
            self.fft_bluestein += segments;
        }
    }

    /// Adds one batch hot/cold measurement round of `n` samples per
    /// state: per state the source record (plus the cold state's one
    /// advance sample), the DUT output, the conditioned signal, the
    /// packed 1-bit record and its ±1 expansion; once per round the
    /// reference waveform.
    pub fn add_batch_round(&mut self, n: usize, nfft: usize, segments_per_record: usize) {
        let (n64, packed) = (n as u64, 8 * n.div_ceil(64) as u64);
        self.samples_synthesized += 4 * n64 + 1;
        self.bytes_materialized += 2 * (32 * n64 + packed) + 8 * n64;
        self.add_segments(2 * segments_per_record as u64, nfft);
    }

    pub fn push_metrics(&self, out: &mut Outcome) {
        let c = |v: u64| v as f64;
        out.metric(
            "count.samples_synthesized",
            c(self.samples_synthesized),
            "count",
        );
        out.metric("count.welch_segments", c(self.welch_segments), "count");
        out.metric("count.fft_calls.bluestein", c(self.fft_bluestein), "count");
        out.metric("count.fft_calls.pow2", c(self.fft_pow2), "count");
        out.metric(
            "count.bytes_materialized",
            c(self.bytes_materialized),
            "count",
        );
        out.metric("count.dies", c(self.dies), "count");
        out.metric("count.retests", c(self.retests), "count");
        out.metric("count.emissions", c(self.emissions), "count");
        out.metric(
            "count.skipped_emissions",
            c(self.skipped_emissions),
            "count",
        );
    }
}

/// Wall time of one call, in seconds. The result passes through
/// `black_box`, so the compiler cannot drop the measured work.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Set-ups timed per end-to-end run; `setup_s` is their median, so one
/// slow set-up (the first touches cold pages and lazy statics) does not
/// move it.
const SETUP_REPS: usize = 5;

/// Runs `set_up` `SETUP_REPS` times; returns the last result and the
/// median wall time, in seconds.
pub fn median_set_up<T, E>(mut set_up: impl FnMut() -> Result<T, E>) -> Result<(T, f64), E> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (result, secs) = timed(&mut set_up);
        times.push(secs);
        last = Some(result?);
    }
    Ok((last.expect("SETUP_REPS is positive"), median(&times)))
}

/// Mean wall time per call over `calls` back-to-back calls, in
/// seconds: for operations too short to time one at a time.
pub fn per_call<T>(calls: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / calls.max(1) as f64
}

/// Calls `unit` until `seconds` of wall time have passed and at least
/// `min_units` calls were made; returns each call's result and wall
/// time.
pub fn repeat_for<T>(seconds: f64, min_units: usize, mut unit: impl FnMut() -> T) -> Vec<(T, f64)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_units || start.elapsed().as_secs_f64() < seconds {
        out.push(timed(&mut unit));
    }
    out
}

/// Per-stage wall time of one traced unit of work, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    entries: Vec<(&'static str, f64)>,
}

impl Spans {
    /// Runs `f` inside the span `name`, adding its wall time.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        self.add(name, secs);
        out
    }

    pub fn add(&mut self, name: &'static str, secs: f64) {
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += secs,
            None => self.entries.push((name, secs)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    }
}

/// The median over many traced units of one stage's span.
pub fn median_span<'a>(units: impl IntoIterator<Item = &'a Spans>, name: &str) -> f64 {
    median(&units.into_iter().map(|s| s.get(name)).collect::<Vec<_>>())
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// This process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Formats a float as a JSON number with all its digits (non-finite
/// values, which JSON cannot hold, become 0 and are caught by the
/// workload's own checks).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
