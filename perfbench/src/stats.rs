//! Sample statistics, the correctness tally and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q < 1) of a sample.
///
/// Refuses (returns `Err`) when fewer than ten samples lie beyond the
/// percentile: a tail read off a handful of points is noise, not a
/// measurement.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < 10 {
        return Err(format!(
            "p{} needs at least 10 samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Counts attempted operations and the ones that failed their check.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Gate {
    /// Records one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.mismatches.len() < 20 {
                self.mismatches.push(what());
            }
        }
    }

    /// Share of attempted operations that succeeded and passed.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// The metrics and notes one run produces.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Free-form `key: value` notes printed before the result line:
    /// budgets, input sizes, sample counts.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// A percentile metric, with its sample count noted; `Err` when the
    /// sample is too small to report it.
    pub fn percentile(
        &mut self,
        name: &str,
        samples: &[f64],
        q: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let value = percentile(samples, q).map_err(|e| format!("{name}: {e}"))?;
        self.metric(name, value, unit);
        self.note(&format!("{name}.samples"), samples.len());
        Ok(())
    }
}

/// JSON string literal (the notes carry only plain ASCII text).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (`{}` prints the shortest exact form).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The notes line and the result line, in print order.
pub fn render(report: &Report, gate: &Gate, correct: bool) -> (String, String) {
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let mismatches: Vec<String> = gate.mismatches.iter().map(|m| json_str(m)).collect();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    (
        format!(
            "{{\"notes\": {{{}}}, \"mismatches\": [{}]}}",
            notes.join(", "),
            mismatches.join(", ")
        ),
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            gate.attempted,
            gate.failed,
            metrics.join(", ")
        ),
    )
}
