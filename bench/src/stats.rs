//! Order statistics over block samples.
//!
//! Interference on a shared host only ever *adds* time, so the harness
//! reports the lower quartile of equal-work blocks as the timing and keeps
//! the median and inter-quartile range as diagnostics.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (empty → 0).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Lower quartile, median, upper quartile.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quartiles {
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Self {
        Quartiles {
            p25: quantile(values, 0.25),
            p50: quantile(values, 0.5),
            p75: quantile(values, 0.75),
        }
    }

    /// Inter-quartile range as a share of the median (0 when the median is).
    pub fn iqr_ratio(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.p50
        }
    }
}

/// The spread the benchmark contract judges: `statistics.quantiles(v, n=4)`
/// of Python (exclusive method), first-to-third quartile distance as a
/// share of the median.
pub fn contract_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Python's exclusive method: position i·(n+1)/4, 1-based.
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let med = median(&sorted);
    if med == 0.0 {
        0.0
    } else {
        (cut(3) - cut(1)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
    }

    #[test]
    fn contract_spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((contract_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
