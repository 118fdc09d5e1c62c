//! Sample statistics and the result line.
//!
//! Every timing the benchmark reports is a median or a nearest-rank
//! percentile of one run's samples. A percentile is reported only when at
//! least [`MIN_BEYOND`] samples lie beyond it; a run that cannot support a
//! percentile it must report fails instead of printing a guess.

use std::fmt::Write as _;

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean of `xs`; `None` for an empty sample.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Nearest-rank `p`-quantile (`0 < p < 1`) of `xs`, or `None` when fewer
/// than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 || !(p > 0.0 && p < 1.0) {
        return None;
    }
    // 1-based rank k = ceil(p·n); the samples beyond it are ranks k+1..=n.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// True when `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Named metrics of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
    /// Metrics that could not be computed (a percentile without enough
    /// samples beyond it, an empty sample); each one fails the run.
    pub missing: Vec<String>,
    /// How many samples each timing metric was computed from.
    pub samples: Vec<(String, usize)>,
}

impl Metrics {
    /// Record `name` = `value` in `unit`, or note it missing when `None`
    /// or not finite.
    pub fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) if v.is_finite() => self.entries.push((name.to_string(), v, unit)),
            _ => self.missing.push(name.to_string()),
        }
    }

    /// Note that metric `name` was computed from `n` samples.
    pub fn note_samples(&mut self, name: &str, n: usize) {
        self.samples.push((name.to_string(), n));
    }

    /// Look a recorded metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// Every recorded metric name, in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.0.as_str())
    }

    /// Keep only the metrics whose names `keep` accepts.
    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.entries.retain(|e| keep(&e.0));
        self.missing.retain(|m| keep(m));
        self.samples.retain(|s| keep(&s.0));
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that round-trips,
            // so every measured digit survives.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1..=100: the nearest-rank p90 is 90, with exactly 10 beyond.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.90), Some(90.0));
        // p91 would leave only 9 beyond.
        assert_eq!(percentile(&xs, 0.91), None);
        // p99 needs at least 1000 samples.
        assert_eq!(percentile(&xs, 0.99), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(990.0));
        assert_eq!(percentile(&big[..999], 0.99), None);
        // p95 over 200 samples: rank 190, 10 beyond.
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&two_hundred, 0.95), Some(190.0));
        assert_eq!(percentile(&two_hundred[..199], 0.95), None);
        // The median is a percentile too.
        assert_eq!(percentile(&two_hundred, 0.5), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&xs, 1.0), None);
    }

    #[test]
    fn ties_count_as_samples_beyond_by_rank() {
        let mut xs = vec![1.0; 50];
        xs.extend(vec![5.0; 50]);
        assert_eq!(percentile(&xs, 0.5), Some(1.0));
        assert_eq!(percentile(&xs, 0.9), Some(5.0));
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "core.tier.enum_rejects",
            "serve.wal.commit_ms",
            "join-med",
            "9a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "p99%",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn result_line_keeps_every_digit_and_flags_missing() {
        let mut m = Metrics::default();
        m.put("a_ms", Some(1.234_567_890_123), "ms");
        m.put("b", None, "count");
        m.put("c", Some(f64::NAN), "count");
        assert_eq!(m.missing, vec!["b".to_string(), "c".to_string()]);
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}}}"
        );
    }
}
