//! Summary statistics for replicated simulation runs.
//!
//! Every point in the paper's figures is the mean of ten independent runs;
//! Fig. 3b adds 95% confidence intervals. The intervals here use the
//! Student-t critical value for the actual replicate count.

use serde::{Deserialize, Serialize};

/// Two-sided 95% t critical values for `df = 1..=30`; beyond that the normal
/// approximation (1.96) is used. Standard table values.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The 95% two-sided t critical value for `df` degrees of freedom.
pub fn t_crit_95(df: usize) -> f64 {
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        T95[df - 1]
    } else {
        1.96
    }
}

/// Mean / spread / confidence summary of replicated measurements.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of replicates.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator); 0 for a single value.
    pub std_dev: f64,
    /// Half-width of the 95% confidence interval on the mean.
    pub ci95_half_width: f64,
}

impl Summary {
    /// Summarizes `values`. Panics on an empty slice.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize zero values");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let std_dev = if n > 1 {
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
            var.sqrt()
        } else {
            0.0
        };
        let ci95_half_width = if n > 1 {
            t_crit_95(n - 1) * std_dev / (n as f64).sqrt()
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            std_dev,
            ci95_half_width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_known_sample() {
        // {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, sample std sqrt(32/7).
        let s = Summary::from_values(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        // CI uses t(7) = 2.365.
        let expected_hw = 2.365 * s.std_dev / (8.0f64).sqrt();
        assert!((s.ci95_half_width - expected_hw).abs() < 1e-12);
    }

    #[test]
    fn single_value_has_degenerate_spread() {
        let s = Summary::from_values(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95_half_width, 0.0);
    }

    #[test]
    fn identical_values_have_zero_width() {
        let s = Summary::from_values(&[0.25; 10]);
        assert_eq!(s.mean, 0.25);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95_half_width, 0.0);
    }

    #[test]
    fn t_table_boundaries() {
        assert_eq!(t_crit_95(1), 12.706);
        assert_eq!(t_crit_95(9), 2.262); // the paper's 10-run case
        assert_eq!(t_crit_95(30), 2.042);
        assert_eq!(t_crit_95(31), 1.96);
        assert!(t_crit_95(0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "zero values")]
    fn empty_input_panics() {
        let _ = Summary::from_values(&[]);
    }
}
