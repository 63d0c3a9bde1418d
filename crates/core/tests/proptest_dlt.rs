//! Property-based tests for the DLT mathematics — the paper's Assertions 1–3,
//! Lemma 2, Eq. 9, and Theorem 4 checked over randomized inputs.

use proptest::prelude::*;
use rtdls_check::oracle::check_invariants;
use rtdls_core::prelude::*;

/// Strategy for realistic cluster parameters spanning the paper's sweeps
/// (`Cms ∈ [0.5, 16]`, `Cps ∈ [5, 20 000]`, `N ∈ [1, 128]`).
fn cluster_params() -> impl Strategy<Value = ClusterParams> {
    (1usize..=128, 0.5f64..16.0, 5.0f64..20_000.0)
        .prop_map(|(n, cms, cps)| ClusterParams::new(n, cms, cps).unwrap())
}

/// Sorted release times with both clustered and spread-out patterns.
fn release_times(max_n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..50_000.0, 1..=max_n).prop_map(|mut v| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    })
}

fn to_simtimes(v: &[f64]) -> Vec<SimTime> {
    v.iter().copied().map(SimTime::new).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The partition always sums to 1, is strictly positive, and is
    /// non-increasing in transmission order (Assertion 1 generalized).
    #[test]
    fn partition_is_a_decreasing_probability_vector(
        params in cluster_params(),
        releases in release_times(64),
        sigma in 1.0f64..5_000.0,
    ) {
        let m = HeterogeneousModel::new(&params, sigma, &to_simtimes(&releases)).unwrap();
        let alphas = m.alphas();
        let sum: f64 = alphas.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
        for &a in alphas {
            prop_assert!(a > 0.0, "non-positive fraction {a}");
        }
        for w in alphas.windows(2) {
            prop_assert!(w[1] <= w[0] * (1.0 + 1e-12), "increasing fractions {w:?}");
        }
    }

    /// Lemma 2: `α_i < (Cps_1 / Cps_i) · α_1` for i ≥ 2.
    #[test]
    fn lemma2_alpha_bound(
        params in cluster_params(),
        releases in release_times(64),
        sigma in 1.0f64..5_000.0,
    ) {
        let m = HeterogeneousModel::new(&params, sigma, &to_simtimes(&releases)).unwrap();
        let alphas = m.alphas();
        for i in 1..m.n() {
            let bound = m.cps_het(0) / m.cps_het(i) * alphas[0];
            prop_assert!(
                alphas[i] <= bound * (1.0 + 1e-9),
                "Lemma 2 violated at i={i}: {} > {bound}", alphas[i]
            );
        }
    }

    /// Eq. 9: `Ê(σ,n) ≤ E(σ,n)` — utilizing IITs never hurts; equality only
    /// when all release times coincide.
    #[test]
    fn iit_execution_never_exceeds_no_iit(
        params in cluster_params(),
        releases in release_times(64),
        sigma in 1.0f64..5_000.0,
    ) {
        let m = HeterogeneousModel::new(&params, sigma, &to_simtimes(&releases)).unwrap();
        prop_assert!(m.exec_time() <= m.e_no_iit() * (1.0 + 1e-9));
        let spread = releases.last().unwrap() - releases.first().unwrap();
        if spread > 1.0 && m.n() > 1 {
            prop_assert!(
                m.exec_time() < m.e_no_iit(),
                "positive IIT must strictly shrink execution"
            );
        }
    }

    /// Theorem 4 (analytical side): the per-node actual-completion bounds
    /// never exceed the completion estimate used by admission.
    #[test]
    fn theorem4_bounds_below_estimate(
        params in cluster_params(),
        releases in release_times(64),
        sigma in 1.0f64..5_000.0,
    ) {
        let m = HeterogeneousModel::new(&params, sigma, &to_simtimes(&releases)).unwrap();
        let est = m.completion_estimate().as_f64();
        for i in 0..m.n() {
            let b = m.actual_completion_bound(i).as_f64();
            prop_assert!(
                b <= est * (1.0 + 1e-9) + 1e-9,
                "node {i} bound {b} exceeds estimate {est}"
            );
        }
    }

    /// Every model the strategies can build satisfies the full invariant set.
    #[test]
    fn model_invariants_always_hold(
        params in cluster_params(),
        releases in release_times(64),
        sigma in 1.0f64..5_000.0,
    ) {
        let m = HeterogeneousModel::new(&params, sigma, &to_simtimes(&releases)).unwrap();
        if let Err(msg) = check_invariants(&m, &params) {
            prop_assert!(false, "invariant violated: {msg}");
        }
    }

    /// `ñ_min` soundness: starting `ñ_min` nodes at `r_n` meets the deadline
    /// under the no-IIT execution time, and the bound is minimal for that
    /// closed form (brute-force check).
    #[test]
    fn n_tilde_min_is_sound_and_tight(
        params in cluster_params(),
        sigma in 1.0f64..5_000.0,
        r_n in 0.0f64..10_000.0,
        slack_factor in 1.01f64..100.0,
    ) {
        // Deadline expressed relative to the full-cluster execution time so
        // feasible instances dominate.
        let e_full = homogeneous::exec_time(&params, sigma, params.num_nodes);
        let deadline = SimTime::new(r_n + e_full * slack_factor);
        match n_tilde_min(&params, sigma, SimTime::new(r_n), deadline) {
            Ok(n) => {
                let e = homogeneous::exec_time(&params, sigma, n);
                prop_assert!(
                    r_n + e <= deadline.as_f64() * (1.0 + 1e-9),
                    "ñ_min={n} misses: {} > {}", r_n + e, deadline.as_f64()
                );
                if n > 1 {
                    let e_less = homogeneous::exec_time(&params, sigma, n - 1);
                    prop_assert!(
                        r_n + e_less >= deadline.as_f64() * (1.0 - 1e-6),
                        "ñ_min={n} not minimal"
                    );
                }
            }
            Err(_) => {
                // Only legitimate when even unbounded parallelism fails:
                // the transmission alone must not fit.
                let slack = deadline.as_f64() - r_n;
                prop_assert!(
                    slack <= sigma * params.cms * (1.0 + 1e-9),
                    "rejected although transmission fits: slack={slack}"
                );
            }
        }
    }

    /// The fixed-point scan returns the minimal feasible node count under
    /// the earliest-nodes selection rule: every smaller count fails its own
    /// `ñ_min` test.
    #[test]
    fn scan_result_is_minimal_fixed_point(
        params in cluster_params(),
        releases in release_times(64),
        sigma in 1.0f64..5_000.0,
        slack_factor in 1.01f64..50.0,
    ) {
        prop_assume!(releases.len() <= params.num_nodes);
        let mut padded = releases.clone();
        padded.resize(params.num_nodes, *releases.last().unwrap());
        padded.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let times = to_simtimes(&padded);
        let e_full = homogeneous::exec_time(&params, sigma, params.num_nodes);
        let deadline = SimTime::new(padded[padded.len() - 1] + e_full * slack_factor);
        if let Ok(res) = min_feasible_nodes(&params, sigma, &times, deadline) {
            prop_assert!(res.n >= 1 && res.n <= params.num_nodes);
            // Chosen n passes.
            let req = n_tilde_min(&params, sigma, res.r_n, deadline).unwrap();
            prop_assert!(req <= res.n);
            // Every smaller n fails.
            for k in 1..res.n {
                let r_k = times[k - 1];
                if let Ok(req_k) = n_tilde_min(&params, sigma, r_k, deadline) { prop_assert!(req_k > k, "scan not minimal at k={k}") }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Admission soundness across all four strategies: an accepted plan's
    /// estimate meets the deadline and its node bookkeeping is consistent.
    #[test]
    fn accepted_plans_are_deadline_safe(
        (params, releases) in (1usize..=32, 0.5f64..16.0, 5.0f64..20_000.0).prop_flat_map(
            |(n, cms, cps)| {
                let params = ClusterParams::new(n, cms, cps).unwrap();
                (Just(params), proptest::collection::vec(0.0f64..50_000.0, n))
            },
        ),
        sigma in 1.0f64..2_000.0,
        rel_deadline in 10.0f64..1_000_000.0,
        user_frac in 0.0f64..1.0,
    ) {
        let mut releases = releases;
        releases.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rel: Vec<SimTime> = to_simtimes(&releases);
        let now = SimTime::ZERO;
        let avail = NodeAvailability::new(&rel, now);
        let user_n = user_split_n_min(&params, sigma, rel_deadline).map(|n_min| {
            let span = params.num_nodes.saturating_sub(n_min);
            n_min + (user_frac * span as f64) as usize
        });
        let task = Task::new(1, 0.0, sigma, rel_deadline)
            .with_user_nodes(user_n.filter(|&n| n <= params.num_nodes));
        for kind in [
            StrategyKind::DltIit,
            StrategyKind::OprMn,
            StrategyKind::OprAn,
            StrategyKind::UserSplit,
        ] {
            if let Ok(plan) = plan_task(kind, &task, &avail, &params, &PlanConfig::default()) {
                prop_assert!(
                    !plan.est_completion.definitely_after(task.absolute_deadline()),
                    "{kind:?} accepted a deadline miss"
                );
                prop_assert_eq!(plan.nodes.len(), plan.fractions.len());
                let mut seen = std::collections::HashSet::new();
                for n in &plan.nodes {
                    prop_assert!(seen.insert(*n), "duplicate node in plan");
                    prop_assert!(n.index() < params.num_nodes);
                }
                for (rel_est, start) in
                    plan.node_release_estimates.iter().zip(&plan.start_times)
                {
                    prop_assert!(rel_est >= start, "release estimate precedes start");
                }
            }
        }
    }
}

fn model(releases: &[f64], sigma: f64) -> HeterogeneousModel {
    HeterogeneousModel::new(
        &ClusterParams::paper_baseline(),
        sigma,
        &to_simtimes(releases),
    )
    .unwrap()
}

#[test]
fn invariants_hold_on_staggered_releases() {
    let m = model(&[0.0, 5.0, 5.0, 120.0, 400.0], 200.0);
    check_invariants(&m, &ClusterParams::paper_baseline()).unwrap();
}

#[test]
fn single_node_degenerates_cleanly() {
    let m = model(&[17.0], 50.0);
    assert_eq!(m.alphas(), &[1.0]);
    let expect = 50.0 * (1.0 + 100.0);
    assert!((m.exec_time() - expect).abs() < 1e-9);
    assert!((m.completion_estimate().as_f64() - (17.0 + expect)).abs() < 1e-9);
    check_invariants(&m, &ClusterParams::paper_baseline()).unwrap();
}

#[test]
fn extreme_parameter_regimes_stay_finite() {
    for (cms, cps) in [(1.0, 10_000.0), (8.0, 10.0), (1.0, 10.0)] {
        let params = ClusterParams::new(16, cms, cps).unwrap();
        let r: Vec<SimTime> = (0..16).map(|i| SimTime::new(i as f64 * 100.0)).collect();
        let m = HeterogeneousModel::new(&params, 800.0, &r).unwrap();
        check_invariants(&m, &params).unwrap();
        assert!(m.exec_time().is_finite() && m.exec_time() > 0.0);
    }
}
