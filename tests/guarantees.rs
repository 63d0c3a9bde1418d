//! End-to-end real-time guarantee tests: the paper's central claim — every
//! admitted task finishes by its deadline, and no later than its
//! admission-time estimate (Theorem 4) — checked across all eight
//! algorithms, every planning-knob combination, and randomized workloads.
//! Every strict run also certifies each plan it dispatches
//! (`common::Certified`).

mod common;

use common::run_certified;
use rtdls::prelude::*;

fn paper_workload(load: f64, seed: u64, horizon: f64) -> Vec<Task> {
    let mut spec = WorkloadSpec::paper_baseline(load);
    spec.horizon = horizon;
    WorkloadGenerator::new(spec, seed).collect()
}

/// Every algorithm, strict mode: a deadline miss or estimate overrun panics
/// inside the engine, so completing the run *is* the assertion; the metrics
/// double-check.
#[test]
fn no_accepted_task_ever_misses_under_any_algorithm() {
    let params = ClusterParams::paper_baseline();
    for algorithm in AlgorithmKind::ALL {
        for load in [0.4, 1.0] {
            for seed in 0..3 {
                let cfg = SimConfig::new(params, algorithm).strict();
                let report = run_certified(cfg, paper_workload(load, seed, 3e5));
                let m = &report.metrics;
                assert_eq!(m.deadline_misses, 0, "{algorithm} load={load} seed={seed}");
                assert_eq!(
                    m.estimate_overruns, 0,
                    "{algorithm} load={load} seed={seed}"
                );
                assert_eq!(
                    m.completed, m.accepted,
                    "{algorithm}: every accepted task must complete"
                );
            }
        }
    }
}

/// The guarantee holds under every combination of the model knobs that keep
/// the paper's assumptions (per-task link).
#[test]
fn guarantees_hold_under_all_planning_knobs() {
    let params = ClusterParams::paper_baseline();
    let tasks = paper_workload(0.9, 7, 3e5);
    for node_count in [NodeCountPolicy::FixedPoint, NodeCountPolicy::OneShot] {
        for release_estimate in [
            ReleaseEstimate::Exact,
            ReleaseEstimate::Uniform,
            ReleaseEstimate::TightPerNode,
        ] {
            for replan in [ReplanPolicy::OnRelease, ReplanPolicy::ArrivalsOnly] {
                let cfg = SimConfig::new(params, AlgorithmKind::EDF_DLT)
                    .strict()
                    .with_plan(PlanConfig {
                        node_count,
                        release_estimate,
                    })
                    .with_replan(replan);
                let report = run_certified(cfg, tasks.clone());
                assert_eq!(
                    report.metrics.deadline_misses, 0,
                    "{node_count:?}/{release_estimate:?}/{replan:?}"
                );
                assert_eq!(
                    report.metrics.estimate_overruns, 0,
                    "{node_count:?}/{release_estimate:?}/{replan:?}"
                );
            }
        }
    }
}

/// Guarantees hold on extreme cluster shapes too: communication-bound,
/// compute-bound, tiny, and large clusters.
#[test]
fn guarantees_hold_on_extreme_cluster_shapes() {
    for (n, cms, cps) in [
        (1usize, 1.0, 100.0),
        (4, 8.0, 10.0),
        (64, 1.0, 10_000.0),
        (3, 0.5, 0.7),
    ] {
        let params = ClusterParams::new(n, cms, cps).unwrap();
        let mut spec = WorkloadSpec::paper_baseline(0.8);
        spec.params = params;
        spec.horizon = 50.0 * spec.mean_interarrival(); // ~50 tasks
        for algorithm in [AlgorithmKind::EDF_DLT, AlgorithmKind::FIFO_DLT] {
            let cfg = SimConfig::new(params, algorithm).strict();
            let report = run_certified(cfg, WorkloadGenerator::new(spec, 11));
            assert_eq!(
                report.metrics.deadline_misses, 0,
                "N={n} Cms={cms} Cps={cps} {algorithm}"
            );
        }
    }
}

/// The execution trace is physically consistent (no node overlap, per-task
/// transmission serialization) on a loaded run for every algorithm.
#[test]
fn traces_are_physically_consistent() {
    let params = ClusterParams::paper_baseline();
    for algorithm in AlgorithmKind::ALL {
        let cfg = SimConfig::new(params, algorithm).strict().with_trace();
        let report = run_certified(cfg, paper_workload(1.0, 3, 2e5));
        let trace = report.trace.expect("traced");
        trace
            .check_consistency()
            .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
        // Chunks account for exactly the accepted tasks' data.
        for rec in trace.tasks.iter().filter(|t| t.accepted) {
            let total: f64 = trace.task_chunks(rec.task).map(|c| c.fraction).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{algorithm}: task {:?} fractions sum to {total}",
                rec.task
            );
        }
    }
}

/// The shared-link ablation intentionally breaks the admission analysis'
/// assumption; the engine must survive (no panic in non-strict mode) and
/// *report* any violations instead.
#[test]
fn shared_link_ablation_degrades_gracefully() {
    let params = ClusterParams::paper_baseline();
    let cfg = SimConfig::new(params, AlgorithmKind::EDF_DLT).with_link(LinkModel::SharedGlobal);
    let report = run_simulation(cfg, paper_workload(1.0, 5, 2e5));
    // All tasks still complete; misses are counted, not hidden.
    assert_eq!(report.metrics.completed, report.metrics.accepted);
    // (At this load the global link is heavily contended; whether misses
    // occur depends on the seed — the invariant is bookkeeping, not zero.)
    assert!(report.metrics.deadline_misses <= report.metrics.completed);
}
