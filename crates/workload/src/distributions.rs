//! Random variates used by the paper's workload model (§5):
//! exponential interarrival times, normal data sizes, uniform deadlines.
//!
//! Implemented directly over [`rand::Rng`] (inverse-CDF and Box–Muller)
//! instead of pulling in `rand_distr`, keeping the dependency set to the
//! in-repo stand-ins (`vendor/README.md`).

use rand::Rng;

/// Exponential distribution with the given mean (`1/λ`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// `mean` must be finite and positive.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be > 0"
        );
        Exponential { mean }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one variate by inverse CDF: `−mean · ln(1 − U)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen::<f64>() ∈ [0, 1): 1 − U ∈ (0, 1], so ln is finite and ≤ 0.
        let u: f64 = rng.gen();
        -self.mean * (1.0 - u).ln()
    }
}

/// Normal distribution via the Box–Muller transform.
///
/// Stateless: each call consumes two uniforms and returns one variate (the
/// antithetic twin is discarded, keeping sampling order-independent of call
/// sites — determinism across refactors matters more here than one extra
/// `gen` call).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// `std_dev` must be finite and non-negative.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(mean.is_finite(), "normal mean must be finite");
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "normal std dev must be finite and >= 0"
        );
        Normal { mean, std_dev }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller: z = √(−2 ln u1) · cos(2π u2), u1 ∈ (0, 1].
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.std_dev * z
    }

    /// Draws a strictly positive variate by rejection (resampling).
    ///
    /// The paper's data sizes are `N(Avgσ, Avgσ)`, which is negative ~16% of
    /// the time; sizes must be positive, so negative draws are resampled.
    /// With `mean = std_dev` the acceptance rate is
    /// ≈ 84%, so the loop terminates almost immediately.
    pub fn sample_positive<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let x = self.sample(rng);
            if x > 0.0 {
                return x;
            }
        }
    }
}

/// Pareto (power-law) distribution with the given scale `x_m` and shape
/// `α`: `P(X > x) = (x_m / x)^α` for `x ≥ x_m`.
///
/// The heavy-tailed size model (`SizeModel::HeavyTailed`) uses it for
/// task data sizes: with `α ≤ 2` the variance is infinite, so a stream
/// mixes many small tasks with rare huge ones — the regime where a
/// scheduler's queue depth and admission cost are stressed far beyond
/// what the paper's normal sizes produce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// `scale` and `shape` must be finite and positive.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "pareto scale must be > 0");
        assert!(shape.is_finite() && shape > 0.0, "pareto shape must be > 0");
        Pareto { scale, shape }
    }

    /// The distribution mean (`α·x_m / (α − 1)`); infinite for `α ≤ 1`.
    pub fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.scale / (self.shape - 1.0)
        }
    }

    /// Draws one variate by inverse CDF: `x_m / (1 − U)^{1/α}`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen::<f64>() ∈ [0, 1): 1 − U ∈ (0, 1], so the power is finite.
        let u: f64 = rng.gen();
        self.scale / (1.0 - u).powf(1.0 / self.shape)
    }
}

/// Continuous uniform distribution over `[low, high)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UniformRange {
    low: f64,
    high: f64,
}

impl UniformRange {
    /// Requires `low < high`, both finite.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(
            low.is_finite() && high.is_finite() && low < high,
            "need low < high"
        );
        UniformRange { low, high }
    }

    /// Draws one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.gen_range(self.low..self.high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    fn var_of(samples: &[f64]) -> f64 {
        let m = mean_of(samples);
        samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (samples.len() - 1) as f64
    }

    const N: usize = 200_000;

    #[test]
    fn exponential_moments_match() {
        let d = Exponential::new(1360.0);
        let mut r = rng(7);
        let xs: Vec<f64> = (0..N).map(|_| d.sample(&mut r)).collect();
        let m = mean_of(&xs);
        assert!(
            (m / 1360.0 - 1.0).abs() < 0.02,
            "mean {m} too far from 1360"
        );
        // Var = mean² for exponential.
        let v = var_of(&xs);
        assert!(
            (v / (1360.0 * 1360.0) - 1.0).abs() < 0.05,
            "variance off: {v}"
        );
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn normal_moments_match() {
        let d = Normal::new(200.0, 200.0);
        let mut r = rng(42);
        let xs: Vec<f64> = (0..N).map(|_| d.sample(&mut r)).collect();
        let m = mean_of(&xs);
        let v = var_of(&xs);
        assert!((m - 200.0).abs() < 2.0, "mean {m}");
        assert!((v.sqrt() / 200.0 - 1.0).abs() < 0.02, "std {}", v.sqrt());
        // Roughly 16% of mass below zero for mean = std.
        let neg = xs.iter().filter(|&&x| x < 0.0).count() as f64 / N as f64;
        assert!((neg - 0.1587).abs() < 0.01, "negative mass {neg}");
    }

    #[test]
    fn truncated_normal_is_positive_with_shifted_mean() {
        let d = Normal::new(200.0, 200.0);
        let mut r = rng(3);
        let xs: Vec<f64> = (0..N).map(|_| d.sample_positive(&mut r)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        // E[X | X>0] for N(μ, μ) is μ·(1 + φ(1)/Φ(1)) ≈ 1.288·μ.
        let m = mean_of(&xs);
        assert!(
            (m / (200.0 * 1.2876) - 1.0).abs() < 0.02,
            "truncated mean {m}"
        );
    }

    #[test]
    fn pareto_moments_and_tail_match() {
        let d = Pareto::new(100.0, 1.5);
        assert!((d.mean() - 300.0).abs() < 1e-9);
        let mut r = rng(5);
        let xs: Vec<f64> = (0..N).map(|_| d.sample(&mut r)).collect();
        assert!(xs.iter().all(|&x| x >= 100.0), "support starts at x_m");
        // Tail probability: P(X > 10·x_m) = 10^-1.5 ≈ 3.16%.
        let tail = xs.iter().filter(|&&x| x > 1000.0).count() as f64 / N as f64;
        assert!((tail - 0.0316).abs() < 0.005, "tail mass {tail}");
        // The sample mean of an infinite-variance law converges slowly;
        // only sanity-check the right order of magnitude.
        let m = mean_of(&xs);
        assert!((150.0..600.0).contains(&m), "mean {m}");
    }

    #[test]
    #[should_panic(expected = "shape must be > 0")]
    fn pareto_rejects_bad_shape() {
        let _ = Pareto::new(1.0, 0.0);
    }

    #[test]
    fn uniform_range_stays_in_bounds() {
        let d = UniformRange::new(10.0, 30.0);
        let mut r = rng(11);
        let xs: Vec<f64> = (0..N).map(|_| d.sample(&mut r)).collect();
        assert!(xs.iter().all(|&x| (10.0..30.0).contains(&x)));
        let m = mean_of(&xs);
        assert!((m - 20.0).abs() < 0.1, "uniform mean {m}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = Exponential::new(5.0);
        let a: Vec<f64> = {
            let mut r = rng(99);
            (0..100).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng(99);
            (0..100).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
        let c: Vec<f64> = {
            let mut r = rng(100);
            (0..100).map(|_| d.sample(&mut r)).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn exponential_rejects_bad_mean() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn uniform_rejects_inverted_bounds() {
        let _ = UniformRange::new(3.0, 3.0);
    }
}
