//! Sample summaries: every timing the benchmark prints carries its sample
//! count, median, minimum and maximum, and quartiles where there are
//! enough samples for them to mean something.

use serde::value::Value;

/// Fewest samples for which quartiles are reported.
pub const MIN_QUARTILE_SAMPLES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// First and third quartile, present from [`MIN_QUARTILE_SAMPLES`] up.
    pub quartiles: Option<(f64, f64)>,
}

/// The `p`-quantile by the exclusive method (`statistics.quantiles` in
/// Python): position `p·(n+1)` on the 1-based sorted samples, linearly
/// interpolated and clamped to the extremes.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
}

/// Summarizes `samples`; an empty slice yields an all-zero summary with
/// `n == 0`.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Summary {
            n: 0,
            median: 0.0,
            min: 0.0,
            max: 0.0,
            quartiles: None,
        };
    }
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    Summary {
        n,
        median,
        min: sorted[0],
        max: sorted[n - 1],
        quartiles: (n >= MIN_QUARTILE_SAMPLES)
            .then(|| (quantile(&sorted, 0.25), quantile(&sorted, 0.75))),
    }
}

impl Summary {
    /// A single exact observation (a count, or a one-sample timing).
    pub fn single(value: f64) -> Self {
        Summary {
            n: 1,
            median: value,
            min: value,
            max: value,
            quartiles: None,
        }
    }

    /// Applies `f` to every statistic (unit conversions, reciprocals).
    /// `f` must be monotone; a decreasing `f` swaps the extremes.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        let (a, b) = (f(self.min), f(self.max));
        let q = self.quartiles.map(|(q1, q3)| (f(q1), f(q3)));
        Summary {
            n: self.n,
            median: f(self.median),
            min: a.min(b),
            max: a.max(b),
            quartiles: q.map(|(x, y)| (x.min(y), x.max(y))),
        }
    }

    /// Run-to-run spread as a share of the median: the interquartile
    /// distance where quartiles exist, the full range otherwise.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        let width = match self.quartiles {
            Some((q1, q3)) => q3 - q1,
            None => self.max - self.min,
        };
        (width / self.median).abs()
    }

    pub fn to_value(self) -> Vec<(String, Value)> {
        let mut out = vec![
            ("n".to_string(), Value::UInt(self.n as u64)),
            ("median".to_string(), Value::Float(self.median)),
            ("min".to_string(), Value::Float(self.min)),
            ("max".to_string(), Value::Float(self.max)),
        ];
        if let Some((q1, q3)) = self.quartiles {
            out.push(("q1".to_string(), Value::Float(q1)));
            out.push(("q3".to_string(), Value::Float(q3)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_extremes() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (3, 2.0, 1.0, 3.0));
        assert_eq!(s.quartiles, None, "three samples carry no quartiles");
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.quartiles, Some((2.75, 8.25)));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spread_falls_back_to_range_and_survives_inversion() {
        let s = summarize(&[9.0, 10.0, 11.0]);
        assert!((s.spread() - 0.2).abs() < 1e-12);
        let inv = s.map(|x| 1.0 / x);
        assert!(inv.min < inv.max && (inv.median - 0.1).abs() < 1e-12);
        assert_eq!(Summary::single(5.0).spread(), 0.0);
    }
}
