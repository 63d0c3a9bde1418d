//! The paper's core construction (§4.1.1): casting a homogeneous cluster with
//! **different processor available times** into an equivalent heterogeneous
//! cluster allocated at a single instant, then applying DLT to that model.
//!
//! Given `n` homogeneous nodes with sorted available times `r_1 ≤ … ≤ r_n`,
//! the heterogeneous model allocates all nodes at `r_n` and absorbs each
//! node's Inserted Idle Time `r_n − r_i` into a *higher* processing power:
//!
//! ```text
//! Cps_i = E / (E + r_n − r_i) · Cps          (Eq. 1)
//! Cms_i = Cms                                 (Eq. 2)
//! ```
//!
//! where `E = E(σ, n)` is the no-IIT execution time of \[22\]. The optimal
//! single-round DLT partition of the heterogeneous model (all model nodes
//! finish simultaneously) is then
//!
//! ```text
//! X_i = Cps_{i−1} / (Cms + Cps_i)             α_i = X_i · α_{i−1}
//! α_1 = 1 / (1 + Σ_{i=2}^n Π_{j=2}^i X_j)     (Eq. 4–5)
//! Ê(σ, n) = σ·Cms + α_n·σ·Cps                 (Eq. 6, since Cps_n = Cps)
//! ```
//!
//! and the task completion estimate is `r_n + Ê`. Theorem 4 proves the
//! *actual* execution on the homogeneous cluster — transmissions serialized
//! in node order, node `i` starting no earlier than `r_i` — finishes on every
//! node no later than that estimate; [`HeterogeneousModel::actual_completion_bound`]
//! exposes the per-node bound `t̃_act_i` used in that proof.

use serde::{Deserialize, Serialize};

use crate::dlt::homogeneous;
use crate::error::ModelError;
use crate::params::ClusterParams;
use crate::time::SimTime;

/// The constructed heterogeneous model for one task on `n` nodes.
///
/// Immutable after construction; all derived quantities are computed once.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HeterogeneousModel {
    params: ClusterParams,
    sigma: f64,
    /// Sorted available times `r_1 ≤ … ≤ r_n`.
    releases: Vec<f64>,
    /// `E(σ, n)`: no-IIT execution time (homogeneous OPR, \[22\]).
    e_no_iit: f64,
    /// Heterogeneous unit processing costs `Cps_1 ≤ … ≤ Cps_n = Cps`.
    cps_het: Vec<f64>,
    /// Optimal partition fractions `α_1 > … > α_n`, summing to 1.
    alphas: Vec<f64>,
    /// `Ê(σ, n)`: execution time in the heterogeneous model.
    exec_time: f64,
}

impl HeterogeneousModel {
    /// Builds the model for load `sigma` over nodes available at `releases`.
    ///
    /// `releases` must be non-empty and sorted ascending (the paper orders
    /// `P_1..P_n` by available time); violations are construction errors.
    ///
    /// ```
    /// use rtdls_core::prelude::*;
    ///
    /// let params = ClusterParams::paper_baseline();
    /// // Two nodes idle now, two freeing at t = 500: Fig. 1b in miniature.
    /// let releases: Vec<SimTime> =
    ///     [0.0, 0.0, 500.0, 500.0].into_iter().map(SimTime::new).collect();
    /// let model = HeterogeneousModel::new(&params, 100.0, &releases).unwrap();
    ///
    /// // Utilizing the idle window strictly beats waiting for all four.
    /// assert!(model.exec_time() < model.e_no_iit());
    /// // Earlier nodes carry larger fractions.
    /// assert!(model.alphas()[0] > model.alphas()[3]);
    /// ```
    pub fn new(
        params: &ClusterParams,
        sigma: f64,
        releases: &[SimTime],
    ) -> Result<Self, ModelError> {
        check_inputs(sigma, releases)?;
        let mut cps_het = Vec::new();
        let mut alphas = Vec::new();
        let (e_no_iit, exec_time) =
            partition_into(params, sigma, releases, &mut cps_het, &mut alphas);
        Ok(HeterogeneousModel {
            params: *params,
            sigma,
            releases: releases.iter().map(|t| t.as_f64()).collect(),
            e_no_iit,
            cps_het,
            alphas,
            exec_time,
        })
    }

    /// Number of allocated nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.releases.len()
    }

    /// The load `σ`.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Partition fractions `α_1..α_n` (transmission order, strictly
    /// decreasing, sum 1).
    #[inline]
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// Sorted node available times `r_1..r_n`.
    #[inline]
    pub fn releases(&self) -> &[f64] {
        &self.releases
    }

    /// `r_n`: the latest available time = the model's common allocation time.
    #[inline]
    pub fn r_n(&self) -> f64 {
        *self.releases.last().expect("non-empty by construction")
    }

    /// `E(σ, n)`: the no-IIT execution time (the baseline this model improves
    /// on; also the scaling constant in Eq. 1).
    #[inline]
    pub fn e_no_iit(&self) -> f64 {
        self.e_no_iit
    }

    /// `Ê(σ, n)`: execution time in the heterogeneous model (Eq. 6).
    /// Always `≤ E(σ, n)` (Eq. 9).
    #[inline]
    pub fn exec_time(&self) -> f64 {
        self.exec_time
    }

    /// The task completion-time estimate `r_n + Ê(σ, n)` (Eq. 7) used by the
    /// schedulability test. Theorem 4: no node finishes later than this.
    #[inline]
    pub fn completion_estimate(&self) -> SimTime {
        SimTime::new(self.r_n() + self.exec_time)
    }

    /// Heterogeneous unit processing cost `Cps_i` (Eq. 1).
    #[inline]
    pub fn cps_het(&self, i: usize) -> f64 {
        self.cps_het[i]
    }

    /// Finish time of node `i` *within the model* measured from `r_n`:
    /// `Σ_{j≤i} α_j σ Cms + α_i σ Cps_i` (one line of Eq. 3).
    ///
    /// The optimal partition makes this equal to `Ê` for every `i` — exposed
    /// for verification in tests.
    pub fn model_finish_offset(&self, i: usize) -> f64 {
        let tx: f64 = self.alphas[..=i].iter().sum::<f64>() * self.sigma * self.params.cms;
        tx + self.alphas[i] * self.sigma * self.cps_het[i]
    }

    /// Theorem 4's upper bound on the *actual* completion time of node `i`
    /// on the homogeneous cluster:
    /// `t̃_act_i = Σ_{j≤i} α_j σ Cms + α_i σ Cps + r_i`.
    ///
    /// Guaranteed `≤ completion_estimate()`. The simulator's exact dispatch
    /// times are in turn `≤` this bound (the bound assumes the worst-case
    /// transmission delay `λ̃_i`).
    pub fn actual_completion_bound(&self, i: usize) -> SimTime {
        let tx: f64 = self.alphas[..=i].iter().sum::<f64>() * self.sigma * self.params.cms;
        SimTime::new(tx + self.alphas[i] * self.sigma * self.params.cps + self.releases[i])
    }

    /// Validates the model's defining invariants (used by tests and by the
    /// simulator's debug assertions). Returns a description of the first
    /// violated invariant, if any.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.n();
        let sum: f64 = self.alphas.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("alpha sum {sum} != 1"));
        }
        for w in self.alphas.windows(2) {
            if w[1] >= w[0] + 1e-15 {
                return Err(format!("alphas not non-increasing: {} -> {}", w[0], w[1]));
            }
        }
        for w in self.cps_het.windows(2) {
            if w[1] < w[0] - 1e-12 {
                return Err(format!("Cps_i not non-decreasing: {} -> {}", w[0], w[1]));
            }
        }
        let cps_n = self.cps_het[n - 1];
        if ((cps_n - self.params.cps) / self.params.cps).abs() > 1e-12 {
            return Err(format!("Cps_n {cps_n} != Cps {}", self.params.cps));
        }
        // Eq. 3: equal finish inside the model.
        for i in 0..n {
            let f = self.model_finish_offset(i);
            if ((f - self.exec_time) / self.exec_time).abs() > 1e-9 {
                return Err(format!(
                    "model node {i} finishes at {f}, expected Ê = {}",
                    self.exec_time
                ));
            }
        }
        // Eq. 9: Ê ≤ E.
        if self.exec_time > self.e_no_iit * (1.0 + 1e-12) {
            return Err(format!("Ê {} exceeds E {}", self.exec_time, self.e_no_iit));
        }
        // Theorem 4 per-node bounds never exceed the estimate.
        let est = self.completion_estimate().as_f64();
        for i in 0..n {
            let b = self.actual_completion_bound(i).as_f64();
            if b > est * (1.0 + 1e-9) + 1e-9 {
                return Err(format!(
                    "Theorem-4 bound of node {i} ({b}) exceeds estimate {est}"
                ));
            }
        }
        Ok(())
    }
}

/// What the construction requires of its inputs: at least one node, a
/// finite positive load, finite available times in ascending order. Checked
/// by [`HeterogeneousModel::new`] and by the planning kernel
/// (`strategy.rs`) alike.
pub(crate) fn check_inputs(sigma: f64, releases: &[SimTime]) -> Result<(), ModelError> {
    if releases.is_empty() {
        return Err(ModelError::InvalidParams("need at least one node"));
    }
    if !(sigma.is_finite() && sigma > 0.0) {
        return Err(ModelError::InvalidParams("sigma must be finite and > 0"));
    }
    if releases.iter().any(|t| !t.as_f64().is_finite()) {
        return Err(ModelError::InvalidParams("release times must be finite"));
    }
    if releases.windows(2).any(|w| w[1] < w[0]) {
        return Err(ModelError::InvalidParams(
            "release times must be sorted ascending",
        ));
    }
    Ok(())
}

/// The construction itself, into caller-owned buffers: `Cps_i` (Eq. 1) into
/// `cps_het`, the optimal fractions (Eq. 4–5) into `alphas`, and the pair
/// `(E(σ,n), Ê(σ,n))` (Eq. 6) returned. `releases` must have passed
/// [`check_inputs`]. The one copy of this arithmetic: the model and every
/// planning step run it.
pub(crate) fn partition_into(
    params: &ClusterParams,
    sigma: f64,
    releases: &[SimTime],
    cps_het: &mut Vec<f64>,
    alphas: &mut Vec<f64>,
) -> (f64, f64) {
    let n = releases.len();
    let r_n = releases[n - 1].as_f64();
    let e = homogeneous::exec_time(params, sigma, n);

    // Eq. 1: earlier-available nodes get proportionally more model power.
    cps_het.clear();
    cps_het.extend(
        releases
            .iter()
            .map(|r| e / (e + (r_n - r.as_f64())) * params.cps),
    );

    // Eq. 4–5 via prefix products of X_i, then a single normalization in
    // place:
    //   prefix_1 = 1, prefix_i = prefix_{i−1} · X_i,  α_i = prefix_i / Σ prefix.
    alphas.clear();
    alphas.reserve(n);
    alphas.push(1.0);
    for i in 1..n {
        let x_i = cps_het[i - 1] / (params.cms + cps_het[i]);
        alphas.push(alphas[i - 1] * x_i);
    }
    let total: f64 = alphas.iter().sum();
    for alpha in alphas.iter_mut() {
        *alpha /= total;
    }

    // Eq. 6 (Cps_n = Cps because the latest node has zero IIT).
    let exec_time = sigma * params.cms + alphas[n - 1] * sigma * params.cps;
    (e, exec_time)
}

/// Theorem 4's per-node bounds `t̃_act_1..t̃_act_n`
/// ([`HeterogeneousModel::actual_completion_bound`]) for a whole plan in one
/// pass, appended to `out`: the transmission prefix sum is carried instead
/// of being re-added per node, term for term in the same order.
pub(crate) fn completion_bounds_into(
    params: &ClusterParams,
    sigma: f64,
    alphas: &[f64],
    releases: &[SimTime],
    out: &mut Vec<SimTime>,
) {
    let mut sent = 0.0;
    out.extend(alphas.iter().zip(releases).map(|(&alpha, r)| {
        sent += alpha;
        let tx = sent * sigma * params.cms;
        SimTime::new(tx + alpha * sigma * params.cps + r.as_f64())
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> ClusterParams {
        ClusterParams::paper_baseline()
    }

    fn model(releases: &[f64], sigma: f64) -> HeterogeneousModel {
        let r: Vec<SimTime> = releases.iter().copied().map(SimTime::new).collect();
        HeterogeneousModel::new(&baseline(), sigma, &r).unwrap()
    }

    #[test]
    fn equal_release_times_reduce_to_homogeneous_model() {
        // With zero IITs the heterogeneous model *is* the homogeneous one.
        let m = model(&[10.0; 5], 200.0);
        let hom = homogeneous::alphas(&baseline(), 5);
        for (a, b) in m.alphas().iter().zip(hom.iter()) {
            assert!((a - b).abs() < 1e-12, "alpha mismatch {a} vs {b}");
        }
        let e = homogeneous::exec_time(&baseline(), 200.0, 5);
        assert!((m.exec_time() - e).abs() / e < 1e-12);
        assert!((m.completion_estimate().as_f64() - (10.0 + e)).abs() < 1e-9);
    }

    #[test]
    fn invariants_hold_on_staggered_releases() {
        let m = model(&[0.0, 5.0, 5.0, 120.0, 400.0], 200.0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn earlier_nodes_are_more_powerful_in_the_model() {
        let m = model(&[0.0, 100.0, 300.0], 200.0);
        assert!(m.cps_het(0) < m.cps_het(1));
        assert!(m.cps_het(1) < m.cps_het(2));
        assert!((m.cps_het(2) - baseline().cps).abs() < 1e-12);
    }

    #[test]
    fn iits_strictly_shrink_execution_time() {
        // Any positive IIT must make Ê < E (the whole point of the paper).
        let sigma = 200.0;
        let m = model(&[0.0, 50.0, 100.0, 150.0], sigma);
        assert!(m.exec_time() < m.e_no_iit());
        // And larger IITs shrink it further.
        let m2 = model(&[0.0, 100.0, 200.0, 300.0], sigma);
        assert!(m2.exec_time() < m.exec_time());
    }

    #[test]
    fn completion_estimate_is_rn_plus_exec() {
        let m = model(&[3.0, 7.0, 42.0], 100.0);
        assert!((m.completion_estimate().as_f64() - (42.0 + m.exec_time())).abs() < 1e-12);
        assert_eq!(m.r_n(), 42.0);
    }

    #[test]
    fn theorem4_bounds_do_not_exceed_estimate() {
        for releases in [
            vec![0.0, 0.0, 0.0],
            vec![0.0, 10.0, 20.0, 30.0, 1000.0],
            vec![5.0, 5.0, 6.0, 6.0, 7.0, 8.0],
        ] {
            let m = model(&releases, 321.0);
            let est = m.completion_estimate().as_f64();
            for i in 0..m.n() {
                let b = m.actual_completion_bound(i).as_f64();
                assert!(
                    b <= est * (1.0 + 1e-9),
                    "node {i} bound {b} > estimate {est} for {releases:?}"
                );
            }
        }
    }

    #[test]
    fn one_pass_bounds_are_the_accessors_bit_for_bit() {
        for releases in [
            vec![0.0],
            vec![0.0, 10.0, 20.0, 30.0, 1000.0],
            vec![5.0, 5.0, 6.0, 6.0, 7.0, 8.0, 8.5, 9.25, 100.0, 100.0],
        ] {
            let m = model(&releases, 321.0);
            let times: Vec<SimTime> = releases.iter().copied().map(SimTime::new).collect();
            let mut bounds = Vec::new();
            completion_bounds_into(&baseline(), 321.0, m.alphas(), &times, &mut bounds);
            let accessors: Vec<SimTime> =
                (0..m.n()).map(|i| m.actual_completion_bound(i)).collect();
            assert_eq!(bounds, accessors);
        }
    }

    #[test]
    fn single_node_degenerates_cleanly() {
        let m = model(&[17.0], 50.0);
        assert_eq!(m.alphas(), &[1.0]);
        let expect = 50.0 * (1.0 + 100.0);
        assert!((m.exec_time() - expect).abs() < 1e-9);
        assert!((m.completion_estimate().as_f64() - (17.0 + expect)).abs() < 1e-9);
        m.check_invariants().unwrap();
    }

    #[test]
    fn unsorted_releases_are_rejected() {
        let r = [SimTime::new(5.0), SimTime::new(1.0)];
        assert!(HeterogeneousModel::new(&baseline(), 10.0, &r).is_err());
        assert!(HeterogeneousModel::new(&baseline(), 10.0, &[]).is_err());
        assert!(HeterogeneousModel::new(&baseline(), -1.0, &[SimTime::ZERO]).is_err());
    }

    #[test]
    fn extreme_parameter_regimes_stay_finite() {
        for (cms, cps) in [(1.0, 10_000.0), (8.0, 10.0), (1.0, 10.0)] {
            let params = ClusterParams::new(16, cms, cps).unwrap();
            let r: Vec<SimTime> = (0..16).map(|i| SimTime::new(i as f64 * 100.0)).collect();
            let m = HeterogeneousModel::new(&params, 800.0, &r).unwrap();
            m.check_invariants().unwrap();
            assert!(m.exec_time().is_finite() && m.exec_time() > 0.0);
        }
    }
}
