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
//!
//! ## The scan without logarithms
//!
//! [`n_tilde_min`] is the definition, and what `OneShot` planning and the
//! explanation seed call. The fixed-point scan ([`min_feasible_nodes`]) asks
//! a narrower question at every node it tries — is `ñ_min(r_n) ≤ n`? — and
//! that question is Eq. 14 itself, before the logarithm was taken: `βⁿ ≤ γ`.
//! So the scan carries `βⁿ` along (one multiply per node, the way
//! `homogeneous::geometric_sum` builds its powers), computes `γ` exactly as
//! [`n_tilde_min`] does — same operations, same two terminal errors in the
//! same order — and compares. Two things separate the comparison from the
//! formula, and the guard band covers both:
//!
//! * **The tolerant ceiling.** [`n_tilde_min`] snaps `x = ln γ / ln β` to
//!   the nearest integer when it is within `CEIL_TOL` of it, relatively, so
//!   it answers "`≤ n`" exactly when `x ≤ n·(1 + CEIL_TOL)`, which is
//!   `γ ≥ βⁿ·exp(−n·CEIL_TOL·|ln β|)`: the formula's threshold sits *below*
//!   `βⁿ` by a relative `n·CEIL_TOL·|ln β|` (first order; `exp(−x) ≥ 1 − x`
//!   makes it a bound). The band takes twice that, which also absorbs any
//!   error of the library logarithm below `CEIL_TOL/2` relative (a correctly
//!   working `ln` is within a few 10⁻¹⁶). `|ln β|` itself is bounded without
//!   a logarithm by `(1 − β)/β` (from `ln x ≥ 1 − 1/x`) — loose for small
//!   `β`, where the band widens and more steps take the formula, never
//!   wrong.
//! * **Rounding.** The running product is off by at most `(n − 1)` half-ulps
//!   relative, and forming each threshold costs two more; `γ` and `β` are
//!   the same floats on both routes. The band adds `2·ε` per node
//!   (`ε = f64::EPSILON`, four half-ulps), and a product that has left the
//!   normal range is not compared at all.
//!
//! With `b = n·(2·CEIL_TOL·(1 − β)/β + 2ε)`: `γ ≥ βⁿ(1 + b)` implies
//! `x ≤ n`, so the formula — tolerant ceiling, rounding and all — answers
//! yes; `γ ≤ βⁿ(1 − b)` implies `x ≥ n·(1 + 2·CEIL_TOL)`, so it answers
//! no; anything between evaluates the formula, unchanged. The scan is a
//! shortcut to [`n_tilde_min`], never a second opinion: nothing here is
//! tuned, debug builds assert every step against it, and a proptest walks
//! the `βⁿ = γ` boundary ulp by ulp. On the paper's baseline (`β = 100/101`,
//! `N ≤ 64`) the band is about 10⁻⁹ at its widest and the formula runs on
//! half a percent of steps — the last ones of a deadline bisection.

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
    let gamma = gamma_at(params, sigma, r_n, abs_deadline)?;
    Ok(nodes_for(gamma, params.beta()))
}

/// `γ = 1 − σ·Cms/(A + D − r_n)`, or the terminal error of a start at `r_n`.
#[inline]
fn gamma_at(
    params: &ClusterParams,
    sigma: f64,
    r_n: SimTime,
    abs_deadline: SimTime,
) -> Result<f64, Infeasible> {
    debug_assert!(sigma > 0.0);
    let slack = abs_deadline.as_f64() - r_n.as_f64();
    if slack <= 0.0 {
        return Err(Infeasible::DeadlineBeforeStart);
    }
    let gamma = 1.0 - sigma * params.cms / slack;
    if gamma <= 0.0 {
        return Err(Infeasible::NoTimeForTransmission);
    }
    Ok(gamma)
}

/// `max(⌈ln γ / ln β⌉, 1)` with the tolerant ceiling.
#[inline]
fn nodes_for(gamma: f64, beta: f64) -> usize {
    // β ∈ (0,1) and γ ∈ (0,1): both logs are negative, the ratio positive.
    let raw = gamma.ln() / beta.ln();
    ceil_tolerant(raw).max(1)
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
///
/// Each step asks `ñ_min(r_n) ≤ n` and answers it by comparing `γ` with a
/// running `βⁿ` wherever the two are further apart than [`guard_band`]
/// (module docs, "The scan without logarithms"); inside the band the step is
/// [`n_tilde_min`]'s own formula. Debug builds hold every step against
/// [`n_tilde_min`] on the spot.
pub(crate) fn scan_feasible_nodes(
    params: &ClusterParams,
    sigma: f64,
    sorted_releases: impl Iterator<Item = SimTime>,
    abs_deadline: SimTime,
) -> Result<ScanResult, Infeasible> {
    let beta = params.beta();
    let band_per_node = guard_band(beta);
    let mut beta_n = 1.0;
    for (idx, r_n) in sorted_releases.enumerate() {
        let n = idx + 1;
        beta_n *= beta;
        // Slack shrinks monotonically with n; the errors are terminal.
        let gamma = gamma_at(params, sigma, r_n, abs_deadline)?;
        let band = n as f64 * band_per_node;
        // A running product that has left the normal range has lost the
        // relative accuracy the band assumes.
        let comparable = beta_n >= f64::MIN_POSITIVE;
        let enough = if comparable && gamma >= beta_n * (1.0 + band) {
            true
        } else if comparable && gamma <= beta_n * (1.0 - band) {
            false
        } else {
            nodes_for(gamma, beta) <= n
        };
        debug_assert_eq!(
            Ok(enough),
            n_tilde_min(params, sigma, r_n, abs_deadline).map(|required| required <= n),
            "the scan's shortcut disagrees with n_tilde_min at n = {n}"
        );
        if enough {
            return Ok(ScanResult { n, r_n });
        }
    }
    Err(Infeasible::NotEnoughNodes)
}

/// The relative half-width, per node tried, of the zone around `βⁿ` in which
/// the scan does not trust the comparison `γ ≷ βⁿ` and evaluates the formula
/// (derivation in the module docs). Infinite — no comparison is ever
/// trusted — for a `β` outside `(0, 1)`, which the cost model cannot produce
/// but rounding can (`Cms/Cps < 2⁻⁵³` gives `β = 1.0`).
#[inline]
fn guard_band(beta: f64) -> f64 {
    if !(beta > 0.0 && beta < 1.0) {
        return f64::INFINITY;
    }
    // |ln β| ≤ (1 − β)/β, from ln x ≥ 1 − 1/x: a bound without a log.
    let ln_beta_bound = (1.0 - beta) / beta;
    2.0 * CEIL_TOL * ln_beta_bound + 2.0 * f64::EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlt::homogeneous;
    use proptest::prelude::*;

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

    /// The scan as it was before it had a shortcut: the definition, node by
    /// node.
    fn literal_scan(
        p: &ClusterParams,
        sigma: f64,
        releases: &[SimTime],
        deadline: SimTime,
    ) -> Result<ScanResult, Infeasible> {
        for (idx, &r_n) in releases.iter().enumerate() {
            let n = idx + 1;
            if n_tilde_min(p, sigma, r_n, deadline)? <= n {
                return Ok(ScanResult { n, r_n });
            }
        }
        Err(Infeasible::NotEnoughNodes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The scan against its definition where they could part: the slack
        /// of one node count placed on the `βⁿ = γ` boundary, a few ulps or
        /// a relative 10⁻⁹ / 10⁻⁶ off it, and fractions of the tolerant
        /// ceiling's own zone (`n·CEIL_TOL·|ln β|`, relative to `γ`) off
        /// it — over four orders of magnitude of `Cms/Cps` either way (so
        /// `|ln β|` runs from 10⁻⁴ to 9) and clusters up to 256 nodes (so
        /// the running product underflows for the small `β`s; half the
        /// cases stay within four nodes, where `γ` is still large enough for
        /// the slack to place it that finely).
        #[test]
        fn scan_is_n_tilde_min_on_and_around_the_boundary(
            log_ratio in -3.0f64..4.0,
            num_nodes in 1usize..257,
            (at, shallow) in (0usize..256, 0u8..2),
            sigma in 1.0f64..2_000.0,
            staggered in 0u8..2,
            ulps in prop::sample::select(vec![0i64, 1, -1, 2, -2, 1_000, -1_000]),
            rel in prop::sample::select(vec![0.0, 1e-9, -1e-9, 1e-6, -1e-6]),
            zone in prop::sample::select(vec![0.0, 0.5, -0.5, 0.9, -0.9, 1.1, -1.1, 3.0, -3.0]),
        ) {
            let p = ClusterParams::new(num_nodes, 10f64.powf(log_ratio), 1.0).expect("valid params");
            let n = at % if shallow == 1 { num_nodes.min(4) } else { num_nodes } + 1;
            // Nodes up to the n-th free together or a step apart, the rest later.
            let step = if staggered == 1 { 0.5 } else { 0.0 };
            let releases: Vec<SimTime> = (0..num_nodes)
                .map(|i| SimTime::new(i.min(n - 1) as f64 * step + if i >= n { 3.0 } else { 0.0 }))
                .collect();
            // γ = βⁿ·(1 + zone·n·CEIL_TOL·|ln β|) at slack σ·Cms/(1 − γ).
            let beta_n = (0..n).fold(1.0, |pow, _| pow * p.beta());
            let gamma = beta_n * (1.0 + zone * n as f64 * CEIL_TOL * -p.beta().ln());
            let slack = sigma * p.cms / (1.0 - gamma) * (1.0 + rel);
            prop_assume!(slack.is_finite());
            let deadline = releases[n - 1].as_f64() + slack;
            let deadline = SimTime::new(f64::from_bits((deadline.to_bits() as i64 + ulps) as u64));
            prop_assert_eq!(
                min_feasible_nodes(&p, sigma, &releases, deadline),
                literal_scan(&p, sigma, &releases, deadline)
            );
        }
    }

    #[test]
    fn a_beta_that_rounds_to_one_is_never_compared() {
        // Cms/Cps below 2⁻⁵³: β = 1.0 and ln β = 0. Whatever the formula
        // makes of that, the scan makes the same.
        assert!(guard_band(1.0).is_infinite());
        assert!(guard_band(0.0).is_infinite());
        assert!(guard_band(f64::NAN).is_infinite());
        assert!(guard_band(0.5) > 0.0 && guard_band(0.5) < 1e-8);
    }

    #[test]
    fn scan_propagates_terminal_errors() {
        let p = baseline();
        let releases = vec![SimTime::new(100.0); 16];
        let err = min_feasible_nodes(&p, 10.0, &releases, SimTime::new(50.0));
        assert_eq!(err, Err(Infeasible::DeadlineBeforeStart));
    }
}
