//! Independent numerical verification of the heterogeneous partition.
//!
//! The production code derives `α` through the paper's recurrence
//! (Eq. 4–5). This test re-derives it from first principles: the optimal
//! partition is defined by the *equal-finish* linear system (Eq. 3)
//!
//! ```text
//! Σ_{j≤i} α_j·σ·Cms + α_i·σ·Cps_i = T   for i = 1..n
//! Σ_i α_i = 1
//! ```
//!
//! with unknowns `α_1..α_n, T`. Solving that system directly with a dense
//! Gaussian elimination (`rtdls_check::independent`, sharing no code with
//! the library) must reproduce the library's partition and execution time.

use rtdls_check::independent::solve_equal_finish;
use rtdls_core::prelude::*;

#[test]
fn closed_form_partition_matches_direct_linear_solve() {
    let cases: Vec<(ClusterParams, Vec<f64>, f64)> = vec![
        (
            ClusterParams::paper_baseline(),
            vec![0.0, 0.0, 500.0, 500.0],
            100.0,
        ),
        (
            ClusterParams::paper_baseline(),
            vec![0.0, 100.0, 200.0, 300.0, 400.0],
            321.0,
        ),
        (
            ClusterParams::new(8, 8.0, 10.0).unwrap(),
            vec![0.0, 5.0, 5.0, 60.0, 61.0, 62.0, 400.0, 1000.0],
            55.5,
        ),
        (
            ClusterParams::new(16, 1.0, 10_000.0).unwrap(),
            (0..16).map(|i| 1_000.0 * i as f64).collect(),
            800.0,
        ),
    ];
    for (params, releases, sigma) in cases {
        let times: Vec<SimTime> = releases.iter().copied().map(SimTime::new).collect();
        let model = HeterogeneousModel::new(&params, sigma, &times).unwrap();
        let cps_het: Vec<f64> = (0..model.n()).map(|i| model.cps_het(i)).collect();
        let (alphas, t) = solve_equal_finish(sigma, params.cms, &cps_het);
        for (i, (ours, direct)) in model.alphas().iter().zip(&alphas).enumerate() {
            assert!(
                (ours - direct).abs() < 1e-9,
                "α_{i}: recurrence {ours} vs linear solve {direct} ({releases:?})"
            );
        }
        assert!(
            (model.exec_time() - t).abs() / t < 1e-9,
            "Ê: recurrence {} vs linear solve {t}",
            model.exec_time()
        );
    }
}

#[test]
fn homogeneous_partition_matches_direct_linear_solve() {
    // Simultaneous allocation is the degenerate case Cps_i = Cps.
    for (n, cms, cps) in [(4usize, 1.0, 100.0), (12, 4.0, 50.0), (16, 1.0, 10_000.0)] {
        let params = ClusterParams::new(n, cms, cps).unwrap();
        let sigma = 250.0;
        let (alphas, t) = solve_equal_finish(sigma, cms, &vec![cps; n]);
        let ours = homogeneous::alphas(&params, n);
        for (i, (a, d)) in ours.iter().zip(&alphas).enumerate() {
            assert!((a - d).abs() < 1e-9, "α_{i}: {a} vs {d}");
        }
        let e = homogeneous::exec_time(&params, sigma, n);
        assert!((e - t).abs() / t < 1e-9, "E: {e} vs {t}");
    }
}

#[test]
fn optimality_of_equal_finish_partition() {
    // The equal-finish partition minimizes the makespan: perturbing load
    // between any two nodes (keeping Σα = 1) can only increase the finish
    // time of one of them beyond Ê.
    let params = ClusterParams::paper_baseline();
    let releases: Vec<SimTime> = [0.0, 50.0, 120.0].into_iter().map(SimTime::new).collect();
    let sigma = 90.0;
    let model = HeterogeneousModel::new(&params, sigma, &releases).unwrap();
    let base = model.alphas().to_vec();
    let finish = |alphas: &[f64]| -> f64 {
        // Model-side finish times (all nodes allocated at r_n).
        let mut tx_end = 0.0;
        let mut worst: f64 = 0.0;
        for (i, &a) in alphas.iter().enumerate() {
            tx_end += a * sigma * params.cms;
            worst = worst.max(tx_end + a * sigma * model.cps_het(i));
        }
        worst
    };
    let base_makespan = finish(&base);
    assert!((base_makespan - model.exec_time()).abs() < 1e-9);
    for (from, to) in [(0usize, 1usize), (1, 2), (2, 0)] {
        for delta in [1e-3, 1e-2] {
            let mut perturbed = base.clone();
            perturbed[from] -= delta;
            perturbed[to] += delta;
            assert!(
                finish(&perturbed) > base_makespan - 1e-12,
                "perturbation ({from}->{to}, {delta}) should not beat the optimum"
            );
        }
    }
}
