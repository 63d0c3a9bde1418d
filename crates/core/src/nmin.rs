//! Minimum-node-count bounds (§4.1.1 B, "Derivation of an Upper-Bound for
//! n_min") and the fixed-point scan that couples the bound with node
//! availability (the `n ← ñ_min(t)` / "earliest `t` with `AN(t) ≥ n`"
//! interplay in the Fig. 2 pseudocode).
//!
//! For a task `T = (A, σ, D)` whose `n`-th node becomes available at `r_n`,
//! the deadline is guaranteed if
//!
//! ```text
//! n ≥ ñ_min = ⌈ ln γ / ln β ⌉,   γ = 1 − σ·Cms/(A + D − r_n),
//!                                 β = Cps/(Cms + Cps)
//! ```
//!
//! because `Ê(σ,n) ≤ E(σ,n)` (Eq. 9) and `r_n + E(σ,n) ≤ A + D` reduces to
//! `β^n ≤ γ` (Eq. 11–14). The same bound applies verbatim to the no-IIT OPR
//! baseline of \[22\], where all nodes start together at `r_n`.

use crate::error::Infeasible;
use crate::params::ClusterParams;
use crate::time::SimTime;

/// Relative tolerance when ceiling `ln γ / ln β`: a value within this of an
/// integer is treated as that integer, so floating-point noise does not
/// demand a spurious extra node. Safety is unaffected — the admission test
/// re-checks the resulting completion estimate against the deadline.
const CEIL_TOL: f64 = 1e-9;

/// `ñ_min`: the smallest node count whose worst-case (no-IIT) execution,
/// started at `r_n`, still meets the absolute deadline.
///
/// Errors distinguish the paper's two rejection causes: no slack at all
/// (`A + D − r_n ≤ 0`) and insufficient slack even for the input transmission
/// (`γ ≤ 0`). Both are monotone in `r_n`: once hit, every later start time is
/// also infeasible.
///
/// ```
/// use rtdls_core::prelude::*;
///
/// let params = ClusterParams::paper_baseline();
/// // A σ=200 task starting now with 2720 time units of slack needs 8 nodes…
/// let n = n_tilde_min(&params, 200.0, SimTime::ZERO, SimTime::new(2720.0)).unwrap();
/// assert_eq!(n, 8);
/// // …and with slack below the transmission time (σ·Cms = 200) no node
/// // count can help.
/// let err = n_tilde_min(&params, 200.0, SimTime::ZERO, SimTime::new(150.0));
/// assert_eq!(err, Err(Infeasible::NoTimeForTransmission));
/// ```
pub fn n_tilde_min(
    params: &ClusterParams,
    sigma: f64,
    r_n: SimTime,
    abs_deadline: SimTime,
) -> Result<usize, Infeasible> {
    debug_assert!(sigma > 0.0);
    let slack = abs_deadline.as_f64() - r_n.as_f64();
    if slack <= 0.0 {
        return Err(Infeasible::DeadlineBeforeStart);
    }
    let gamma = 1.0 - sigma * params.cms / slack;
    if gamma <= 0.0 {
        return Err(Infeasible::NoTimeForTransmission);
    }
    let beta = params.beta();
    // β ∈ (0,1) and γ ∈ (0,1): both logs are negative, the ratio positive.
    let raw = gamma.ln() / beta.ln();
    Ok(ceil_tolerant(raw).max(1))
}

/// The analytic infimum of slack (`A + D − r_n`) that *any* node count in
/// the cluster can meet: `σ·Cms / (1 − β^N)`.
///
/// Below this even all `N` nodes started together at `r_n` miss the
/// deadline (Eq. 14 with `n = N`); at or above it `ñ_min ≤ N`. The explain
/// engine seeds its counterfactual-deadline search here instead of probing
/// blindly from the rejected deadline upward.
pub fn min_feasible_slack(params: &ClusterParams, sigma: f64) -> f64 {
    debug_assert!(sigma > 0.0);
    // β^N by repeated multiplication, as `homogeneous::geometric_sum` builds
    // its powers: `f64::powi` may round differently from one call site to
    // the next in optimized builds, and both explanation searches seed
    // their horizon here — their answers must not depend on the inlining.
    let beta = params.beta();
    let beta_n = (0..params.num_nodes).fold(1.0, |pow, _| pow * beta);
    sigma * params.cms / (1.0 - beta_n)
}

/// Ceil with a relative tolerance around exact integers (see [`CEIL_TOL`]).
fn ceil_tolerant(x: f64) -> usize {
    debug_assert!(x.is_finite() && x >= 0.0, "ceil_tolerant input {x}");
    let nearest = x.round();
    let scale = nearest.abs().max(1.0);
    if (x - nearest).abs() <= CEIL_TOL * scale {
        nearest as usize
    } else {
        x.ceil() as usize
    }
}

/// Result of the fixed-point scan: the chosen node count and the start time
/// of the last node.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ScanResult {
    /// The minimal feasible node count under the earliest-nodes selection
    /// rule; the task is allocated exactly the `n` earliest-available nodes.
    pub n: usize,
    /// `r_n = max(release_n, now)` for that allocation.
    pub r_n: SimTime,
}

/// Couples `ñ_min` with node availability: find the smallest `n` such that
/// allocating the `n` earliest-available nodes satisfies `ñ_min(r_n) ≤ n`.
///
/// `sorted_releases` are the candidate start times of the `N` nodes in
/// ascending order, already clamped to the planning instant (`≥ now`). The
/// required count `ñ_min(r_n)` is non-decreasing in `n` (later `r_n` means
/// less slack) while the supply `n` increases by one each step, so the first
/// crossing is the minimal feasible allocation.
pub fn min_feasible_nodes(
    params: &ClusterParams,
    sigma: f64,
    sorted_releases: &[SimTime],
    abs_deadline: SimTime,
) -> Result<ScanResult, Infeasible> {
    debug_assert!(
        sorted_releases.windows(2).all(|w| w[0] <= w[1]),
        "release times must be sorted"
    );
    scan_feasible_nodes(params, sigma, sorted_releases.iter().copied(), abs_deadline)
}

/// [`min_feasible_nodes`] over times read in place (the planner scans its
/// availability snapshot without copying the cluster per plan).
pub(crate) fn scan_feasible_nodes(
    params: &ClusterParams,
    sigma: f64,
    sorted_releases: impl Iterator<Item = SimTime>,
    abs_deadline: SimTime,
) -> Result<ScanResult, Infeasible> {
    for (idx, r_n) in sorted_releases.enumerate() {
        let n = idx + 1;
        match n_tilde_min(params, sigma, r_n, abs_deadline) {
            Ok(required) if required <= n => return Ok(ScanResult { n, r_n }),
            Ok(_) => {}
            // Slack shrinks monotonically with n; these errors are terminal.
            Err(e) => return Err(e),
        }
    }
    Err(Infeasible::NotEnoughNodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlt::homogeneous;

    fn baseline() -> ClusterParams {
        ClusterParams::paper_baseline()
    }

    #[test]
    fn bound_is_sufficient_for_the_deadline() {
        // Brute-force cross-check: with n = ñ_min nodes starting at r_n,
        // r_n + E(σ,n) must meet the deadline, and usually n−1 must not
        // (the bound is tight up to the ceiling).
        let p = baseline();
        for sigma in [50.0, 200.0, 800.0] {
            for slack_mult in [1.2, 2.0, 5.0, 20.0] {
                let r_n = SimTime::new(100.0);
                let min_exec = homogeneous::exec_time(&p, sigma, p.num_nodes);
                let deadline = SimTime::new(100.0 + min_exec * slack_mult);
                let n = match n_tilde_min(&p, sigma, r_n, deadline) {
                    Ok(n) => n,
                    Err(_) => continue,
                };
                if n <= p.num_nodes {
                    let e = homogeneous::exec_time(&p, sigma, n);
                    assert!(
                        r_n.as_f64() + e <= deadline.as_f64() * (1.0 + 1e-9),
                        "ñ_min={n} insufficient: {} > {}",
                        r_n.as_f64() + e,
                        deadline.as_f64()
                    );
                    if n > 1 {
                        let e_less = homogeneous::exec_time(&p, sigma, n - 1);
                        assert!(
                            r_n.as_f64() + e_less > deadline.as_f64() * (1.0 - 1e-9),
                            "ñ_min={n} not minimal for sigma={sigma}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn min_feasible_slack_is_the_full_cluster_threshold() {
        let p = baseline();
        let sigma = 200.0;
        let floor = min_feasible_slack(&p, sigma);
        // Just above the floor the whole cluster suffices…
        let ok = n_tilde_min(&p, sigma, SimTime::ZERO, SimTime::new(floor * 1.0001)).unwrap();
        assert!(ok <= p.num_nodes, "n={ok} above floor");
        // …and just below it no node count does (an Err means
        // transmission-dominated, which is also infeasible).
        if let Ok(n) = n_tilde_min(&p, sigma, SimTime::ZERO, SimTime::new(floor * 0.9999)) {
            assert!(n > p.num_nodes, "n={n} below floor");
        }
        // The floor always covers the transmission time.
        assert!(floor > sigma * p.cms);
    }

    #[test]
    fn no_slack_is_deadline_before_start() {
        let p = baseline();
        let err = n_tilde_min(&p, 100.0, SimTime::new(50.0), SimTime::new(50.0));
        assert_eq!(err, Err(Infeasible::DeadlineBeforeStart));
        let err = n_tilde_min(&p, 100.0, SimTime::new(60.0), SimTime::new(50.0));
        assert_eq!(err, Err(Infeasible::DeadlineBeforeStart));
    }

    #[test]
    fn transmission_dominated_slack_is_rejected() {
        let p = baseline();
        // σ·Cms = 100 > slack = 50: even infinite nodes cannot help.
        let err = n_tilde_min(&p, 100.0, SimTime::ZERO, SimTime::new(50.0));
        assert_eq!(err, Err(Infeasible::NoTimeForTransmission));
        // Exactly equal (γ = 0) is also a rejection.
        let err = n_tilde_min(&p, 100.0, SimTime::ZERO, SimTime::new(100.0));
        assert_eq!(err, Err(Infeasible::NoTimeForTransmission));
    }

    #[test]
    fn generous_deadline_needs_one_node() {
        let p = baseline();
        let sigma = 10.0;
        let e1 = homogeneous::exec_time(&p, sigma, 1);
        let n = n_tilde_min(&p, sigma, SimTime::ZERO, SimTime::new(e1 * 2.0)).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn tighter_deadline_needs_more_nodes() {
        let p = baseline();
        let sigma = 200.0;
        let e16 = homogeneous::exec_time(&p, sigma, 16);
        let loose = n_tilde_min(&p, sigma, SimTime::ZERO, SimTime::new(e16 * 30.0)).unwrap();
        let tight = n_tilde_min(&p, sigma, SimTime::ZERO, SimTime::new(e16 * 1.05)).unwrap();
        assert!(tight > loose, "tight {tight} should exceed loose {loose}");
    }

    #[test]
    fn ceil_tolerant_snaps_near_integers() {
        assert_eq!(ceil_tolerant(3.0000000001), 3);
        assert_eq!(ceil_tolerant(2.9999999999), 3);
        assert_eq!(ceil_tolerant(3.1), 4);
        assert_eq!(ceil_tolerant(0.0), 0);
    }

    #[test]
    fn scan_finds_fixed_point_on_staggered_releases() {
        let p = baseline();
        let sigma = 200.0;
        // All nodes idle now: scan result must equal ñ_min(now).
        let releases: Vec<SimTime> = vec![SimTime::new(10.0); 16];
        let deadline = SimTime::new(10.0 + homogeneous::exec_time(&p, sigma, 4) * 1.0001);
        let res = min_feasible_nodes(&p, sigma, &releases, deadline).unwrap();
        assert_eq!(
            res.n,
            n_tilde_min(&p, sigma, SimTime::new(10.0), deadline).unwrap()
        );
        assert_eq!(res.r_n, SimTime::new(10.0));
    }

    #[test]
    fn scan_prefers_fewer_earlier_nodes_when_feasible() {
        let p = baseline();
        let sigma = 50.0;
        // Two nodes free now, the rest much later. A loose deadline should be
        // satisfied with the early nodes instead of waiting.
        let mut releases = vec![SimTime::ZERO, SimTime::ZERO];
        releases.extend(std::iter::repeat_n(SimTime::new(1e6), 14));
        let e2 = homogeneous::exec_time(&p, sigma, 2);
        let res = min_feasible_nodes(&p, sigma, &releases, SimTime::new(e2 * 1.01)).unwrap();
        assert!(res.n <= 2, "scan chose n={} instead of early nodes", res.n);
        assert_eq!(res.r_n, SimTime::ZERO);
    }

    #[test]
    fn scan_waits_for_more_nodes_under_tight_deadline() {
        let p = baseline();
        let sigma = 200.0;
        // One node free now; the rest shortly after. A deadline too tight for
        // one node forces the scan past n = 1.
        let mut releases = vec![SimTime::ZERO];
        releases.extend((1..16).map(|i| SimTime::new(i as f64)));
        let e16 = homogeneous::exec_time(&p, sigma, 16);
        let res = min_feasible_nodes(&p, sigma, &releases, SimTime::new(15.0 + e16 * 1.5)).unwrap();
        assert!(res.n > 1);
        // The guarantee holds for the chosen allocation.
        let e = homogeneous::exec_time(&p, sigma, res.n);
        assert!(res.r_n.as_f64() + e <= 15.0 + e16 * 1.5 + 1e-9);
    }

    #[test]
    fn scan_rejects_when_cluster_too_small() {
        let p = ClusterParams::new(2, 1.0, 100.0).unwrap();
        let sigma = 200.0;
        let releases = vec![SimTime::ZERO; 2];
        // Deadline tighter than E(σ,2) but looser than transmission: needs >2 nodes.
        let e2 = homogeneous::exec_time(&p, sigma, 2);
        let deadline = SimTime::new(sigma * p.cms + (e2 - sigma * p.cms) * 0.5);
        let err = min_feasible_nodes(&p, sigma, &releases, deadline);
        assert_eq!(err, Err(Infeasible::NotEnoughNodes));
    }

    #[test]
    fn scan_propagates_terminal_errors() {
        let p = baseline();
        let releases = vec![SimTime::new(100.0); 16];
        let err = min_feasible_nodes(&p, 10.0, &releases, SimTime::new(50.0));
        assert_eq!(err, Err(Infeasible::DeadlineBeforeStart));
    }
}
