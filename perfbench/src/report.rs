//! Summary statistics, the count-repeat report, and the result line.

use std::collections::BTreeMap;

/// Nearest-rank percentile (`q` in (0, 1]) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// Samples beyond the nearest-rank p90.
pub fn beyond_p90(n: usize) -> usize {
    n - ((0.9 * n as f64).ceil() as usize).min(n)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Deterministic counts, recorded per cycle position across the
/// cycle's repetitions within one run. A count whose value differs
/// between two repetitions of the same campaign is non-repeating: no
/// claim may rest on it.
#[derive(Default)]
pub struct CountRepeat {
    seen: BTreeMap<(usize, &'static str), u64>,
    varied: BTreeMap<&'static str, (u64, u64)>,
}

impl CountRepeat {
    pub fn record(&mut self, position: usize, name: &'static str, value: u64) {
        match self.seen.get(&(position, name)) {
            None => {
                self.seen.insert((position, name), value);
            }
            Some(&first) if first != value => {
                self.varied.entry(name).or_insert((first, value));
            }
            Some(_) => {}
        }
    }

    /// Names of the counts that did not repeat.
    pub fn non_repeating(&self) -> usize {
        self.varied.len()
    }

    /// One line per count: `repeats` or `NON-REPEATING (a vs b)`.
    pub fn print(&self, workload: &str) {
        let mut names: Vec<&'static str> = self.seen.keys().map(|(_, n)| *n).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            match self.varied.get(name) {
                None => println!("{workload}  count {name:24} repeats"),
                Some((a, b)) => println!(
                    "{workload}  count {name:24} NON-REPEATING ({a} vs {b} on one campaign)"
                ),
            }
        }
    }
}

/// Per-layer values by metric name; units live in the metric table.
pub type Layers = Vec<(&'static str, f64)>;

/// Named metrics in a fixed order, printed as human-readable lines and
/// as the final JSON result line.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.rows.push((name.to_string(), value, unit));
    }

    pub fn print_lines(&self, workload: &str) {
        for (name, value, unit) in &self.rows {
            println!("{workload}  {name:26} {value:>14.6} {unit}");
        }
    }

    /// The last line of the benchmark's standard output.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}
