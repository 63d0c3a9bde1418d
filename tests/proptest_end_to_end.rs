//! Property-based end-to-end tests: randomized clusters, workloads and
//! algorithm choices; the real-time guarantees and physical consistency must
//! hold in every case.

mod common;

use common::run_certified;
use proptest::prelude::*;
use rtdls::prelude::*;

/// Random but sane cluster + workload parameterizations.
fn sim_inputs() -> impl Strategy<Value = (ClusterParams, f64, f64, f64, u64)> {
    (
        2usize..=32,     // nodes
        0.5f64..8.0,     // cms
        5.0f64..2_000.0, // cps
        0.2f64..1.2,     // system load (can exceed 1)
        1.5f64..20.0,    // dc ratio
        0u64..1_000_000, // seed
    )
        .prop_map(|(n, cms, cps, load, dc, seed)| {
            (
                ClusterParams::new(n, cms, cps).unwrap(),
                load,
                dc,
                seed as f64,
                seed,
            )
        })
        .prop_map(|(params, load, dc, _, seed)| (params, load, dc, 40.0, seed))
}

fn algorithm_choice() -> impl Strategy<Value = AlgorithmKind> {
    prop::sample::select(AlgorithmKind::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any random configuration and any algorithm: zero deadline misses,
    /// zero estimate overruns, every accepted task completes, trace is
    /// physically consistent, and every dispatched plan passes the
    /// independent certificate. Strict mode and the certified head node
    /// convert violations into panics, so the run itself is most of the
    /// assertion.
    #[test]
    fn guarantees_hold_for_random_configurations(
        (params, load, dc, n_interarrivals, seed) in sim_inputs(),
        algorithm in algorithm_choice(),
    ) {
        let mut spec = WorkloadSpec::paper_baseline(load);
        spec.params = params;
        spec.dc_ratio = dc;
        spec.horizon = n_interarrivals * spec.mean_interarrival();
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, seed).collect();
        let cfg = SimConfig::new(params, algorithm).strict().with_trace();
        let report = run_certified(cfg, tasks.clone());
        let m = &report.metrics;
        prop_assert_eq!(m.arrivals as usize, tasks.len());
        prop_assert_eq!(m.accepted + m.rejected, m.arrivals);
        prop_assert_eq!(m.deadline_misses, 0);
        prop_assert_eq!(m.estimate_overruns, 0);
        prop_assert_eq!(m.completed, m.accepted);
        let trace = report.trace.expect("traced");
        if let Err(e) = trace.check_consistency() {
            prop_assert!(false, "inconsistent trace: {e}");
        }
        // Accepted tasks' recorded completions beat their deadlines.
        for rec in trace.tasks.iter().filter(|t| t.accepted) {
            let done = rec.actual_completion.expect("completed");
            prop_assert!(
                done.at_or_before_eps(rec.deadline),
                "task {:?} finished {done:?} after deadline {:?}",
                rec.task, rec.deadline
            );
        }
    }

    /// Determinism: identical (config, seed) pairs produce identical metrics
    /// regardless of thread availability (the engine is single-threaded by
    /// construction; this guards against accidental nondeterminism creeping
    /// into dispatch ordering).
    #[test]
    fn simulation_is_deterministic(
        (params, load, dc, n_interarrivals, seed) in sim_inputs(),
        algorithm in algorithm_choice(),
    ) {
        let mut spec = WorkloadSpec::paper_baseline(load);
        spec.params = params;
        spec.dc_ratio = dc;
        spec.horizon = (n_interarrivals / 2.0) * spec.mean_interarrival();
        let run = || {
            let tasks = WorkloadGenerator::new(spec, seed);
            let cfg = SimConfig::new(params, algorithm).strict();
            run_simulation(cfg, tasks).metrics
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.accepted, b.accepted);
        prop_assert_eq!(a.rejected, b.rejected);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert!((a.busy_time - b.busy_time).abs() < 1e-9);
        prop_assert!((a.total_response_time - b.total_response_time).abs() < 1e-9);
    }

    /// Work conservation: the busy node-time the simulator accounts equals
    /// the transmission+compute demand of the accepted tasks exactly.
    #[test]
    fn busy_time_equals_accepted_demand(
        (params, load, dc, n_interarrivals, seed) in sim_inputs(),
        algorithm in algorithm_choice(),
    ) {
        let mut spec = WorkloadSpec::paper_baseline(load);
        spec.params = params;
        spec.dc_ratio = dc;
        spec.horizon = (n_interarrivals / 2.0) * spec.mean_interarrival();
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, seed).collect();
        let cfg = SimConfig::new(params, algorithm).strict().with_trace();
        let report = run_simulation(cfg, tasks.clone());
        let trace = report.trace.expect("traced");
        let accepted_demand: f64 = trace
            .tasks
            .iter()
            .filter(|t| t.accepted)
            .map(|t| {
                let sigma = tasks.iter().find(|j| j.id == t.task).unwrap().data_size;
                sigma * (params.cms + params.cps)
            })
            .sum();
        let rel = if accepted_demand > 0.0 {
            (report.metrics.busy_time - accepted_demand).abs() / accepted_demand
        } else {
            report.metrics.busy_time.abs()
        };
        prop_assert!(rel < 1e-9, "busy {} vs demand {accepted_demand}", report.metrics.busy_time);
    }
}
