//! Metric records, the result line, and small statistics helpers.

use std::fmt::Write as _;

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock of the simulator on this host.
    Host,
    /// Modelled-system time or counts, deterministic under a seed.
    Sim,
    /// Algorithm outcome of the quality pipeline, deterministic under a seed.
    Quality,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
            Kind::Quality => "quality",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
    pub value: f64,
    /// Estimator and sample count, or why the value is absent.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, kind: Kind, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            kind,
            value,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted: offered requests, or quality evaluations.
    pub attempted: u64,
    /// Operations that missed: not completed, or evaluations whose numbers
    /// were unusable.
    pub missed: u64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// FNV-1a digest of the simulated (or quality) outputs.
    pub digest: u64,
    /// Extra lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result object: exactly the `names` metrics, in order. A failed
    /// check marks every attempted operation failed.
    pub fn result_json(&self, names: &[(&str, &str)]) -> String {
        let correct = self.failures.is_empty();
        let failed = if correct { self.missed } else { self.attempted };
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            self.attempted.max(1)
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.get(name).map_or(f64::NAN, |m| m.value);
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set size, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Whether a percentile `p` over `n` samples has at least ten samples
/// beyond it, which is the condition for reporting it.
pub fn reportable(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p)).floor() >= 10.0
}

/// A latency percentile with its estimator and sample count beside it; the
/// value is NaN (printed as absent) when too few samples lie beyond it.
pub fn percentile_metric(
    name: &str,
    kind: Kind,
    value: f64,
    p: f64,
    n: usize,
    estimator: &str,
) -> Metric {
    if reportable(n, p) {
        Metric::new(name, "ms", kind, value).note(format!("{estimator}, n={n}"))
    } else {
        Metric::new(name, "ms", kind, f64::NAN).note(format!(
            "not reported: fewer than ten of n={n} samples beyond p{}",
            (p * 100.0).round()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_reportable() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(reportable(1000, 0.99));
        assert!(!reportable(999, 0.99));
        assert!(reportable(20, 0.5));
    }

    #[test]
    fn result_line_marks_failed_checks() {
        let mut o = Outcome {
            attempted: 5,
            ..Default::default()
        };
        o.push(Metric::new("host_s", "s", Kind::Host, 1.5));
        let ok = o.result_json(&[("host_s", "s")]);
        assert_eq!(
            ok,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"host_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        o.check(false, "broken");
        assert!(o.result_json(&[("host_s", "s")]).contains("\"failed\": 5"));
    }
}
