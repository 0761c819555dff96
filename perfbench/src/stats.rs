//! The benchmark's own arithmetic: percentiles and the tail rule, medians,
//! ratios printed with their bases, the growth ratio and the
//! served-system selection rule. Self-tested in `tests/arithmetic.rs`.

use std::fmt;

/// Percentile levels the tail rule chooses among: label and the level in
/// parts per ten thousand (integers, so the "samples beyond" count is
/// exact rather than a float product).
pub const TAIL_LEVELS: [(&str, u64); 5] = [
    ("p50", 5_000),
    ("p90", 9_000),
    ("p99", 9_900),
    ("p99.9", 9_990),
    ("p99.99", 9_999),
];

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Samples lying beyond the level `per_10k` (parts per ten thousand) in a
/// sample of `n`.
pub fn samples_beyond(n: usize, per_10k: u64) -> u64 {
    n as u64 * (10_000 - per_10k) / 10_000
}

/// The highest level of [`TAIL_LEVELS`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it, as `(label, quantile)`; `None` when
/// even the median does not (fewer than 20 samples).
pub fn tail_level(n: usize) -> Option<(&'static str, f64)> {
    TAIL_LEVELS
        .iter()
        .rev()
        .find(|&&(_, per_10k)| samples_beyond(n, per_10k) >= MIN_BEYOND)
        .map(|&(label, per_10k)| (label, per_10k as f64 / 10_000.0))
}

/// Linear-interpolated quantile `q` of `values` (the same definition as
/// `sli_workload::percentile`); `None` on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    sli_workload::percentile(values, q)
}

/// Median of `values`; `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Arithmetic mean; zero on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A ratio that keeps its base, so it is never printed without it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// The ratio's value; zero when the base is zero (nothing attempted).
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.6} ({} / {})",
            self.value(),
            trim(self.num),
            trim(self.den)
        )
    }
}

/// Whole numbers print without a fraction, others with three decimals.
fn trim(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

/// Host cost growth over a measured phase: the mean of the last tenth of
/// `per_interaction` over the mean of its first tenth. The base is zero
/// (and the value therefore zero) with fewer than ten samples.
pub fn growth_ratio(per_interaction: &[f64]) -> Ratio {
    let tenth = per_interaction.len() / 10;
    if tenth == 0 {
        return Ratio::new(0.0, 0.0);
    }
    let first = mean(&per_interaction[..tenth]);
    let last = mean(&per_interaction[per_interaction.len() - tenth..]);
    Ratio::new(last, first)
}

/// Achieved over offered rate a rung must reach to count as free of a
/// growing backlog.
pub const BACKLOG_FLOOR: f64 = 0.95;

/// One rate of the served-system ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// The rate the generator offered, sessions per virtual second.
    pub offered_rps: f64,
    /// p95 of the per-interaction latency at this rate, ms.
    pub p95_ms: f64,
    /// Sessions that arrived in the measurement window.
    pub arrivals: u64,
    /// Sessions that completed in the same window.
    pub completions: u64,
}

impl Rung {
    /// Completions over arrivals in the window.
    pub fn achieved(&self) -> Ratio {
        Ratio::new(self.completions as f64, self.arrivals as f64)
    }

    /// Whether the rung meets the latency limit without a growing backlog.
    pub fn passes(&self, slo_ms: f64) -> bool {
        self.p95_ms <= slo_ms && self.achieved().value() >= BACKLOG_FLOOR
    }
}

/// The highest offered rate whose rung passes ([`Rung::passes`]); `None`
/// when no rung does. Rungs need not be sorted, and a failing rung below a
/// passing one does not hide it.
pub fn max_rps_at_slo(rungs: &[Rung], slo_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.passes(slo_ms))
        .map(|r| r.offered_rps)
        .max_by(f64::total_cmp)
}

/// The host time of a "median episode": for repeated episodes doing
/// identical work, the median of each step's time across the episodes,
/// summed over the steps. A burst of interference on the host slows the
/// steps it hits in one episode only, so the median discards it, while the
/// sum keeps every step's cost (growth along the run included).
///
/// Steps missing from a shorter episode are taken from the episodes that
/// have them.
pub fn median_episode_ns(episodes: &[&[u64]]) -> f64 {
    let steps = episodes.iter().map(|e| e.len()).max().unwrap_or(0);
    let mut column = Vec::with_capacity(episodes.len());
    (0..steps)
        .map(|i| {
            column.clear();
            column.extend(
                episodes
                    .iter()
                    .filter_map(|e| e.get(i))
                    .map(|&ns| ns as f64),
            );
            median(&column).unwrap_or(0.0)
        })
        .sum()
}
