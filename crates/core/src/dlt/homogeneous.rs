//! Single-round DLT on a homogeneous cluster with **simultaneous** allocation
//! (the model of the authors' prior work \[22\], used here both as the OPR
//! baseline and as the `E` term inside the heterogeneous construction).
//!
//! All `n` nodes become available at the same instant. The head node sends
//! chunk `α_i·σ` to node `i` sequentially; node `i` computes for
//! `α_i·σ·Cps`. The optimal partition (all nodes finish together) satisfies
//! `α_{i+1} = β·α_i` with `β = Cps/(Cms+Cps)`, giving the closed forms below.

use crate::params::ClusterParams;

/// `E(σ, n) = ((1-β) / (1-β^n)) · σ · (Cms + Cps)` — the optimal execution
/// time (from the first transmission to the last completion) of a load `σ`
/// on `n` simultaneously available nodes.
///
/// Monotonically decreasing in `n`; `E(σ, 1) = σ(Cms+Cps)`.
pub fn exec_time(params: &ClusterParams, sigma: f64, n: usize) -> f64 {
    debug_assert!(n >= 1, "exec_time needs at least one node");
    debug_assert!(sigma > 0.0);
    let beta = params.beta();
    // (1 - β) / (1 - β^n) is numerically delicate for β → 1 (large Cps/Cms):
    // both numerator and denominator approach 0. Rewrite the denominator via
    // the geometric sum 1 - β^n = (1 - β)·Σ_{j<n} β^j, which cancels exactly:
    //   E = σ (Cms+Cps) / Σ_{j=0}^{n-1} β^j.
    let denom: f64 = geometric_sum(beta, n);
    sigma * (params.cms + params.cps) / denom
}

/// `Σ_{j=0}^{n-1} β^j`, computed by direct summation (exact cancellation-free
/// form used by [`exec_time`] and the partition below). `n` is a node count,
/// bounded by cluster size, so the loop is trivially cheap.
#[inline]
fn geometric_sum(beta: f64, n: usize) -> f64 {
    let mut sum = 0.0;
    let mut pow = 1.0;
    for _ in 0..n {
        sum += pow;
        pow *= beta;
    }
    sum
}

/// The optimal partition fractions `α_1..α_n` for simultaneous allocation:
/// `α_i = β^{i-1} · (1-β)/(1-β^n)`, i.e. `α_i = β^{i-1} / Σ_{j<n} β^j`.
///
/// Returned in transmission order (node 1 receives the largest fraction).
/// The fractions sum to 1 and decrease geometrically.
pub fn alphas(params: &ClusterParams, n: usize) -> Vec<f64> {
    let mut out = Vec::new();
    alphas_into(params, n, &mut out);
    out
}

/// [`alphas`] appended to a caller-owned buffer (the planning kernel's).
pub(crate) fn alphas_into(params: &ClusterParams, n: usize, out: &mut Vec<f64>) {
    debug_assert!(n >= 1);
    let beta = params.beta();
    let denom = geometric_sum(beta, n);
    out.reserve(n);
    let mut pow = 1.0;
    for _ in 0..n {
        out.push(pow / denom);
        pow *= beta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(cms: f64, cps: f64) -> ClusterParams {
        ClusterParams::new(64, cms, cps).unwrap()
    }

    #[test]
    fn single_node_exec_time_is_transmit_plus_compute() {
        let params = p(1.0, 100.0);
        let e = exec_time(&params, 200.0, 1);
        assert!((e - 200.0 * 101.0).abs() < 1e-9);
    }

    #[test]
    fn exec_time_matches_paper_closed_form() {
        // E = (1-β)/(1-β^n) σ (Cms+Cps), computed the naive way, must agree
        // with the cancellation-free implementation.
        for (cms, cps) in [(1.0, 100.0), (8.0, 100.0), (1.0, 10.0), (1.0, 10_000.0)] {
            let params = p(cms, cps);
            let beta = params.beta();
            for n in [1usize, 2, 3, 7, 16, 64] {
                let sigma = 200.0;
                let naive = (1.0 - beta) / (1.0 - beta.powi(n as i32)) * sigma * (cms + cps);
                let ours = exec_time(&params, sigma, n);
                let rel = ((naive - ours) / naive).abs();
                assert!(
                    rel < 1e-9,
                    "mismatch n={n} cms={cms} cps={cps}: {naive} vs {ours}"
                );
            }
        }
    }

    #[test]
    fn exec_time_strictly_decreases_with_more_nodes() {
        let params = p(1.0, 100.0);
        let mut prev = f64::INFINITY;
        for n in 1..=64 {
            let e = exec_time(&params, 200.0, n);
            assert!(e < prev, "E not decreasing at n={n}");
            prev = e;
        }
    }

    #[test]
    fn exec_time_scales_linearly_in_sigma() {
        let params = p(1.0, 100.0);
        let e1 = exec_time(&params, 100.0, 8);
        let e2 = exec_time(&params, 200.0, 8);
        assert!((e2 / e1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn alphas_sum_to_one_and_decrease() {
        for (cms, cps) in [(1.0, 100.0), (4.0, 10.0), (1.0, 10_000.0)] {
            let params = p(cms, cps);
            for n in [1usize, 2, 5, 16, 64] {
                let a = alphas(&params, n);
                assert_eq!(a.len(), n);
                let sum: f64 = a.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "sum {sum} != 1 at n={n}");
                for w in a.windows(2) {
                    assert!(w[1] < w[0], "alphas must strictly decrease");
                }
                // Geometric ratio is exactly beta.
                for w in a.windows(2) {
                    assert!((w[1] / w[0] - params.beta()).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn all_nodes_finish_simultaneously_at_exec_time() {
        // The defining property of the optimal partition rule.
        let params = p(1.0, 100.0);
        let sigma = 500.0;
        for n in [2usize, 4, 16, 64] {
            let e = exec_time(&params, sigma, n);
            // Node i finishes when its chunk has been sent (after every
            // earlier chunk) and computed.
            let mut tx_end = 0.0;
            for (i, alpha) in alphas(&params, n).iter().enumerate() {
                tx_end += alpha * sigma * params.cms;
                let c = tx_end + alpha * sigma * params.cps;
                let rel = ((c - e) / e).abs();
                assert!(rel < 1e-9, "node {i} finishes at {c}, expected {e} (n={n})");
            }
        }
    }

    #[test]
    fn extreme_beta_remains_finite_and_positive() {
        // Cps/Cms = 10^4 → β ≈ 0.9999; the naive (1-β^n) form loses precision,
        // ours must stay clean.
        let params = p(1.0, 10_000.0);
        for n in [1usize, 16, 64] {
            let e = exec_time(&params, 1.0, n);
            assert!(e.is_finite() && e > 0.0);
        }
    }
}
