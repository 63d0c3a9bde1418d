//! Workload parameterization (§5 "Workload Generation").
//!
//! A simulation's workload is specified by `(N, Cms, Cps, SystemLoad, Avgσ,
//! DCRatio)`:
//!
//! * `SystemLoad = E(Avgσ, N) · λ` fixes the mean interarrival time
//!   `1/λ = E(Avgσ, N) / SystemLoad`;
//! * `DCRatio = AvgD / E(Avgσ, N)` fixes the mean relative deadline
//!   `AvgD = DCRatio · E(Avgσ, N)`;
//!
//! where `E(Avgσ, N)` is the execution time of an average-sized task on the
//! whole cluster.

use serde::{Deserialize, Serialize};

use rtdls_core::dlt::homogeneous;
use rtdls_core::prelude::ClusterParams;

/// Which per-task minimum execution time floors the deadline draw (the
/// paper's §5 under-determines this for the User-Split experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DeadlineFloor {
    /// `E(σ_i, N)` — the DLT-optimal minimum execution time, as the paper's
    /// §5 text states. Under this floor ~25% of baseline tasks have a
    /// user-split `N_min > N` (no equal split can meet the deadline), which
    /// User-Split algorithms must reject outright.
    #[default]
    OptimalExec,
    /// `σ_i·Cms + σ_i·Cps/N` — the *equal-split* minimum execution time.
    /// Guarantees `N_min ≤ N` for every task (the premise of §4.1.2's
    /// "[N_min, N] range"), which is the only reading consistent with the
    /// low User-Split reject ratios of Fig. 5a at light load. Used by the
    /// harness for the figures that compare against User-Split.
    UserSplitExec,
}

/// How negative draws of the `N(Avgσ, Avgσ)` size distribution are handled
/// (§5 says only "normally distributed"; sizes must be positive).
///
/// The choice moves the *realized* mean size and therefore the offered load:
/// plain positive-truncation inflates the mean to `≈1.2876·Avgσ`, so a
/// nominal `SystemLoad` of 1.0 would offer ~19% more work than one
/// full-cluster capacity — yet the paper's DCRatio=100 runs reject ≈0.3% at
/// `SystemLoad = 1.0`, which is only possible if the realized mean is ≈Avgσ.
/// Hence the calibrated default. The two models are the `calibrated+*` and
/// `raw+*` arms of ablation `abl-workload`
/// (`crates/bench/benches/ablations.rs`); the paper's absolute level is not
/// gated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SizeModel {
    /// Positive-truncated normal **rescaled so the realized mean is exactly
    /// `Avgσ`** — the `SystemLoad` axis then means what it says (default).
    #[default]
    Calibrated,
    /// Plain rejection sampling of `N(Avgσ, Avgσ)` until positive; realized
    /// mean `≈1.2876·Avgσ` (the `raw+resample` and `raw+clamp` arms of
    /// ablation `abl-workload`).
    TruncatedRaw,
    /// Heavy-tailed sizes: Pareto with shape [`HEAVY_TAIL_SHAPE`] (= 1.5 —
    /// finite mean, infinite variance), scale chosen so the mean is exactly
    /// `Avgσ`. Beyond the paper's workload model: many small tasks mixed
    /// with rare huge ones, the regime that stresses queue depth and
    /// admission cost (ROADMAP "heavy-tailed size distributions").
    HeavyTailed,
}

/// Pareto shape parameter of [`SizeModel::HeavyTailed`]. `1 < α ≤ 2`:
/// finite mean (so `SystemLoad` stays meaningful) but infinite variance
/// (a genuinely heavy tail).
pub const HEAVY_TAIL_SHAPE: f64 = 1.5;

/// `1 + φ(1)/Φ(1)`: the mean of a `N(μ, μ)` normal truncated to `(0, ∞)`,
/// in units of `μ` (standard normal pdf/cdf at `z = 1`).
pub const TRUNCATED_MEAN_FACTOR: f64 = 1.2875999709391783;

/// How the deadline draw is made to respect the floor ("a task relative
/// deadline `D_i` is chosen to be larger than its minimum execution time",
/// §5 — the paper does not say *how* it is chosen to be larger).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FloorMode {
    /// Redraw the `(σ_i, D_i)` pair until `D_i` exceeds the floor. No
    /// probability mass piles up at the floor and over-long tasks whose
    /// minimum execution exceeds the whole deadline range never appear.
    /// Default: reproduces the paper's absolute reject-ratio levels (the
    /// `*+resample` vs `*+clamp` arms of ablation `abl-workload`; the levels
    /// themselves are not gated).
    #[default]
    Resample,
    /// Clamp the drawn deadline up to the floor. Simpler, but concentrates
    /// a sizable fraction of tasks exactly at their minimum execution time
    /// (zero slack), inflating reject ratios at every load.
    Clamp,
}

/// Full workload specification for one simulation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Cluster the workload is sized against.
    pub params: ClusterParams,
    /// `SystemLoad` ∈ (0, ∞), typically swept over 0.1..=1.0.
    pub system_load: f64,
    /// Mean task data size `Avgσ`.
    pub avg_sigma: f64,
    /// Deadline/cost ratio `DCRatio` (≥ ~1 for schedulable workloads).
    pub dc_ratio: f64,
    /// Arrival horizon: tasks arrive over `[0, horizon)`
    /// (`TotalSimulationTime`, 10^7 in the paper).
    pub horizon: f64,
    /// Deadline floor rule (see [`DeadlineFloor`]).
    pub deadline_floor: DeadlineFloor,
    /// How draws below the floor are handled (see [`FloorMode`]).
    pub floor_mode: FloorMode,
    /// How negative size draws are handled (see [`SizeModel`]).
    pub size_model: SizeModel,
}

impl WorkloadSpec {
    /// The paper's baseline (§5.1): `N=16, Cms=1, Cps=100, Avgσ=200,
    /// DCRatio=2`, horizon `10^7`, at the given load.
    pub fn paper_baseline(system_load: f64) -> Self {
        WorkloadSpec {
            params: ClusterParams::paper_baseline(),
            system_load,
            avg_sigma: 200.0,
            dc_ratio: 2.0,
            horizon: 1e7,
            deadline_floor: DeadlineFloor::OptimalExec,
            floor_mode: FloorMode::Resample,
            size_model: SizeModel::Calibrated,
        }
    }

    /// Returns the spec with the given size model.
    pub fn with_size_model(mut self, model: SizeModel) -> Self {
        self.size_model = model;
        self
    }

    /// Returns the spec with the given deadline-floor rule.
    pub fn with_deadline_floor(mut self, floor: DeadlineFloor) -> Self {
        self.deadline_floor = floor;
        self
    }

    /// Returns the spec with the given floor handling mode.
    pub fn with_floor_mode(mut self, mode: FloorMode) -> Self {
        self.floor_mode = mode;
        self
    }

    /// The minimum execution time that floors a task's deadline draw, for a
    /// task of size `sigma`.
    pub fn deadline_floor_value(&self, sigma: f64) -> f64 {
        match self.deadline_floor {
            DeadlineFloor::OptimalExec => {
                homogeneous::exec_time(&self.params, sigma, self.params.num_nodes)
            }
            DeadlineFloor::UserSplitExec => {
                sigma * self.params.cms + sigma * self.params.cps / self.params.num_nodes as f64
            }
        }
    }

    /// Validates the numeric ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.system_load.is_finite() && self.system_load > 0.0) {
            return Err(format!("system_load must be > 0, got {}", self.system_load));
        }
        if !(self.avg_sigma.is_finite() && self.avg_sigma > 0.0) {
            return Err(format!("avg_sigma must be > 0, got {}", self.avg_sigma));
        }
        if !(self.dc_ratio.is_finite() && self.dc_ratio > 0.0) {
            return Err(format!("dc_ratio must be > 0, got {}", self.dc_ratio));
        }
        if !(self.horizon.is_finite() && self.horizon > 0.0) {
            return Err(format!("horizon must be > 0, got {}", self.horizon));
        }
        Ok(())
    }

    /// `E(Avgσ, N)`: execution time of an average task on the full cluster —
    /// the normalization constant behind both `SystemLoad` and `DCRatio`.
    pub fn avg_min_exec_time(&self) -> f64 {
        homogeneous::exec_time(&self.params, self.avg_sigma, self.params.num_nodes)
    }

    /// Mean interarrival time `1/λ = E(Avgσ, N) / SystemLoad`.
    pub fn mean_interarrival(&self) -> f64 {
        self.avg_min_exec_time() / self.system_load
    }

    /// Mean relative deadline `AvgD = DCRatio · E(Avgσ, N)`.
    pub fn avg_deadline(&self) -> f64 {
        self.dc_ratio * self.avg_min_exec_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_constants_are_the_papers() {
        let s = WorkloadSpec::paper_baseline(0.5);
        assert_eq!(s.params.num_nodes, 16);
        assert_eq!(s.avg_sigma, 200.0);
        assert_eq!(s.dc_ratio, 2.0);
        assert_eq!(s.horizon, 1e7);
        s.validate().unwrap();
    }

    #[test]
    fn load_and_interarrival_are_reciprocal() {
        // SystemLoad = E/λ⁻¹: doubling the load halves the interarrival.
        let lo = WorkloadSpec::paper_baseline(0.25);
        let hi = WorkloadSpec::paper_baseline(0.5);
        assert!((lo.mean_interarrival() / hi.mean_interarrival() - 2.0).abs() < 1e-12);
        // And SystemLoad = E(Avgσ,N) / interarrival.
        let s = WorkloadSpec::paper_baseline(0.7);
        let implied = s.avg_min_exec_time() / s.mean_interarrival();
        assert!((implied - 0.7).abs() < 1e-12);
    }

    #[test]
    fn avg_deadline_scales_with_dc_ratio() {
        let mut s = WorkloadSpec::paper_baseline(0.5);
        let base = s.avg_deadline();
        s.dc_ratio = 20.0;
        assert!((s.avg_deadline() / base - 10.0).abs() < 1e-12);
    }

    #[test]
    fn expected_arrivals_match_baseline_scale() {
        // E(200, 16) ≈ 1360 for the baseline; at load 1.0 over 10^7 units
        // that is ≈ 7350 tasks.
        let s = WorkloadSpec::paper_baseline(1.0);
        let e = s.avg_min_exec_time();
        assert!((1300.0..1400.0).contains(&e), "E = {e}");
        let n = s.horizon / s.mean_interarrival();
        assert!((7000.0..7700.0).contains(&n), "expected arrivals {n}");
    }

    #[test]
    fn deadline_floor_values_match_their_formulas() {
        let s = WorkloadSpec::paper_baseline(0.5);
        let sigma = 300.0;
        // OptimalExec: E(σ, N).
        let opt = s.deadline_floor_value(sigma);
        let expect = rtdls_core::dlt::homogeneous::exec_time(&s.params, sigma, s.params.num_nodes);
        assert!((opt - expect).abs() < 1e-9);
        // UserSplitExec: σ·Cms + σ·Cps/N = 300·1 + 300·100/16.
        let us = s
            .with_deadline_floor(DeadlineFloor::UserSplitExec)
            .deadline_floor_value(sigma);
        assert!((us - (300.0 + 300.0 * 100.0 / 16.0)).abs() < 1e-9);
        // The equal-split floor always dominates the optimal floor (OPR is
        // the optimal partition, so its execution time is minimal).
        assert!(us > opt);
    }

    #[test]
    fn builders_set_their_fields() {
        let s = WorkloadSpec::paper_baseline(0.5)
            .with_size_model(SizeModel::TruncatedRaw)
            .with_floor_mode(FloorMode::Clamp)
            .with_deadline_floor(DeadlineFloor::UserSplitExec);
        assert_eq!(s.size_model, SizeModel::TruncatedRaw);
        assert_eq!(s.floor_mode, FloorMode::Clamp);
        assert_eq!(s.deadline_floor, DeadlineFloor::UserSplitExec);
    }

    #[test]
    fn truncated_mean_factor_is_the_analytic_constant() {
        // 1 + φ(1)/Φ(1) with φ(1) = e^{-1/2}/√(2π).
        let phi1 = (-0.5f64).exp() / (2.0 * std::f64::consts::PI).sqrt();
        // Φ(1) via the complementary relation and the known value.
        let cap_phi1 = 0.841_344_746_068_542_9_f64;
        assert!((TRUNCATED_MEAN_FACTOR - (1.0 + phi1 / cap_phi1)).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut s = WorkloadSpec::paper_baseline(0.5);
        s.system_load = 0.0;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::paper_baseline(0.5);
        s.avg_sigma = -1.0;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::paper_baseline(0.5);
        s.dc_ratio = f64::NAN;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::paper_baseline(0.5);
        s.horizon = 0.0;
        assert!(s.validate().is_err());
    }
}
