//! Property-based tests for the serving layer.
//!
//! Two families:
//!
//! * **Defer-queue liveness** — no ticket starves: under any policy and any
//!   admission behavior, every ticket leaves the queue within
//!   `max_retries` re-tests (or expiry), and re-tests always visit in age
//!   order.
//! * **ShardedGateway soundness end-to-end** — random clusters, shard counts,
//!   routings, and bursty workloads through the strict simulator: no
//!   phantom accepts (every accepted task, rescued ones included, completes
//!   inside its deadline — strict mode panics otherwise) and the gateway's
//!   books agree with the engine's.
//! * **Reservation soundness** — every `Reserved { start_at }` verdict is
//!   minimal and honest: the task was not admissible at submission time
//!   (δ > 0), no earlier dispatch instant admits it, and resubmitting at
//!   `start_at` (after the dispatches due by then commit) is accepted.

use proptest::prelude::*;

use rtdls_core::prelude::*;
use rtdls_service::prelude::*;
use rtdls_sim::prelude::*;
use rtdls_workload::prelude::*;

/// A single cluster: the one-shard gateway.
fn single(params: ClusterParams, algorithm: AlgorithmKind) -> ShardedGateway {
    ShardedGateway::new(
        params,
        1,
        algorithm,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap()
}

/// A stand-alone copy of a one-shard gateway's engine, for probing
/// hypotheticals without touching the gateway.
fn one_shard_controller(g: &ShardedGateway) -> AdmissionController {
    AdmissionController::from_state(g.shard_states().remove(0)).expect("a live shard's state")
}

fn defer_policy() -> impl Strategy<Value = DeferPolicy> {
    (1u32..6, 1usize..40, 1usize..50, 0u64..3).prop_map(
        |(max_retries, max_queue, retest_budget, age)| DeferPolicy {
            max_retries,
            max_queue,
            retest_budget,
            // 0 = unbounded age; otherwise an age small enough that the
            // liveness sweeps below actually cross it.
            max_age: (age > 0).then_some(age as f64 * 7.0),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Liveness: with an admission oracle that accepts pseudo-randomly (or
    /// never), every ticket departs after a bounded number of sweeps, and
    /// the queue never exceeds its capacity bound.
    #[test]
    fn deferred_queue_never_starves(
        policy in defer_policy(),
        n_tickets in 1usize..60,
        accept_one_in in 0u64..5, // 0 = never accept
        seed in 0u64..1_000,
    ) {
        let mut q = DeferredQueue::new(policy);
        let mut parked = 0usize;
        for i in 0..n_tickets {
            let task = Task::new(i as u64, 0.0, 100.0, 1e9);
            if q
                .push(task, TenantId::default(), QosClass::default(), SimTime::ZERO, SimTime::new(1e9), Infeasible::NotEnoughNodes)
                .is_some()
            {
                parked += 1;
            }
        }
        prop_assert!(q.len() <= policy.max_queue);
        prop_assert_eq!(q.len(), parked.min(policy.max_queue));

        // Worst case: every sweep re-tests only `retest_budget` tickets and
        // each ticket needs `max_retries` failures to leave. Add slack for
        // the interleaving, then require the queue to fully drain.
        let budget = policy.retest_budget.min(parked.max(1));
        let max_sweeps =
            2 + (parked * policy.max_retries as usize).div_ceil(budget) * 2;
        let mut counter = seed;
        let mut sweeps = 0usize;
        let mut departures = 0usize;
        while !q.is_empty() {
            sweeps += 1;
            prop_assert!(
                sweeps <= max_sweeps,
                "queue did not drain in {max_sweeps} sweeps (left: {})",
                q.len()
            );
            let mut last_age: Option<u64> = None;
            let (departed, _) = q.sweep(SimTime::new(sweeps as f64), |t| {
                // Age order: ticket ids are issued in age order and each
                // sweep must offer tasks oldest-first.
                if let Some(prev) = last_age {
                    assert!(t.id.0 > prev || t.id.0 >= prev, "age order violated");
                }
                last_age = Some(t.id.0);
                counter = counter.wrapping_mul(6364136223846793005).wrapping_add(1);
                accept_one_in > 0 && counter % (accept_one_in as u64 + 1) == 0
            });
            departures += departed.len();
            for (ticket, outcome) in &departed {
                prop_assert!(ticket.retries <= policy.max_retries);
                match outcome {
                    DeferOutcome::Evicted => {
                        prop_assert_eq!(ticket.retries, policy.max_retries)
                    }
                    DeferOutcome::Rescued => {}
                    DeferOutcome::Expired => {
                        // The latest feasible start (1e9) never passes in
                        // these sweeps; only the age bound can expire.
                        prop_assert!(
                            policy.max_age.is_some(),
                            "expiry without an age bound"
                        )
                    }
                    DeferOutcome::Flushed => {
                        prop_assert!(false, "no flush in this setup")
                    }
                }
            }
        }
        prop_assert_eq!(departures, parked, "every parked ticket departs exactly once");
    }

    /// Expiry liveness: tickets whose latest feasible start has passed leave
    /// on the next sweep regardless of retry budget.
    #[test]
    fn expired_tickets_always_depart(
        policy in defer_policy(),
        n_tickets in 1usize..30,
        latest in 1.0f64..100.0,
    ) {
        let mut q = DeferredQueue::new(policy);
        for i in 0..n_tickets {
            let task = Task::new(i as u64, 0.0, 100.0, 1e9);
            let _ = q.push(task, TenantId::default(), QosClass::default(), SimTime::ZERO, SimTime::new(latest), Infeasible::NotEnoughNodes);
        }
        let (departed, retests) = q.sweep(SimTime::new(latest + 1.0), |_| false);
        prop_assert_eq!(retests, 0, "expired tickets must not burn re-tests");
        prop_assert!(q.is_empty());
        prop_assert!(departed.iter().all(|(_, o)| *o == DeferOutcome::Expired));
    }
}

fn service_inputs() -> impl Strategy<Value = (ClusterParams, usize, Routing, f64, f64, u64)> {
    (
        4usize..=24, // nodes
        1usize..=4,  // shards
        prop::sample::select(vec![
            Routing::RoundRobin,
            Routing::LeastLoaded,
            Routing::BestFit,
        ]),
        0.3f64..1.3,   // system load
        2.0f64..10.0,  // dc ratio
        0u64..100_000, // seed
    )
        .prop_map(|(n, k, routing, load, dc, seed)| {
            (
                ClusterParams::new(n, 1.0, 100.0).unwrap(),
                k.min(n),
                routing,
                load,
                dc,
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end soundness: random sharded gateways under bursty load in
    /// strict mode. Strict mode panics on any deadline miss or estimate
    /// overrun, so the run completing is most of the assertion; the books
    /// must also balance between gateway and engine.
    #[test]
    fn sharded_gateway_has_no_phantom_accepts(
        (params, shards, routing, load, dc, seed) in service_inputs(),
        release_estimate in prop::sample::select(vec![
            ReleaseEstimate::Exact,
            ReleaseEstimate::Uniform,
            ReleaseEstimate::TightPerNode,
        ]),
    ) {
        let plan = PlanConfig { release_estimate, ..Default::default() };
        let mut spec = WorkloadSpec::paper_baseline(load);
        spec.params = params;
        spec.dc_ratio = dc;
        spec.horizon = 60.0 * spec.mean_interarrival();
        let profile = BurstProfile { rate_factor: 3.0, ..BurstProfile::moderate(&spec) };
        let tasks: Vec<Task> = BurstyPoisson::new(spec, profile, seed).collect();
        let n_tasks = tasks.len();

        let gateway = ShardedGateway::new(
            params,
            shards,
            AlgorithmKind::EDF_DLT,
            plan,
            routing,
            DeferPolicy::default(),
        )
        .unwrap();
        let cfg = SimConfig::new(params, AlgorithmKind::EDF_DLT)
            .with_plan(plan)
            .strict()
            .with_trace();
        let (report, gateway) =
            Simulation::with_frontend(cfg, gateway).run_returning_frontend(tasks);

        let m = &report.metrics;
        let g = gateway.metrics();
        prop_assert_eq!(m.arrivals as usize, n_tasks);
        prop_assert_eq!(g.submitted as usize, n_tasks);
        prop_assert_eq!(m.deadline_misses, 0);
        prop_assert_eq!(m.estimate_overruns, 0);
        prop_assert_eq!(m.completed, m.accepted, "no accepted task may vanish");
        prop_assert_eq!(g.accepted_total(), m.accepted, "gateway/engine agree on accepts");
        prop_assert_eq!(g.rejected_total(), m.rejected, "gateway/engine agree on rejects");
        prop_assert_eq!(
            g.accepted_total() + g.rejected_total(),
            g.submitted,
            "every submission resolves exactly once"
        );
        prop_assert_eq!(
            g.rescued + g.defer_evicted + g.defer_expired + g.defer_flushed,
            g.deferred,
            "every defer ticket resolves exactly once"
        );
        let trace = report.trace.expect("traced");
        if let Err(e) = trace.check_consistency() {
            prop_assert!(false, "inconsistent trace: {e}");
        }
        for rec in trace.tasks.iter().filter(|t| t.accepted) {
            let done = rec.actual_completion.expect("accepted tasks complete");
            prop_assert!(
                done.at_or_before_eps(rec.deadline),
                "task {:?} (possibly rescued) finished {done:?} after {:?}",
                rec.task,
                rec.deadline
            );
        }
    }

    /// A sharded gateway accepts nothing a strict per-shard test would not:
    /// determinism check — same seed, same gateway, same outcome.
    #[test]
    fn sharded_gateway_is_deterministic(
        (params, shards, routing, load, dc, seed) in service_inputs(),
    ) {
        let mut spec = WorkloadSpec::paper_baseline(load);
        spec.params = params;
        spec.dc_ratio = dc;
        spec.horizon = 30.0 * spec.mean_interarrival();
        let run = || {
            let tasks: Vec<Task> =
                WorkloadGenerator::new(spec, seed).collect();
            let gateway = ShardedGateway::new(
                params,
                shards,
                AlgorithmKind::EDF_DLT,
                PlanConfig::default(),
                routing,
                DeferPolicy::default(),
            )
            .unwrap();
            let cfg = SimConfig::new(params, AlgorithmKind::EDF_DLT).strict();
            let (report, gateway) =
                Simulation::with_frontend(cfg, gateway).run_returning_frontend(tasks);
            (report.metrics.accepted, report.metrics.rejected, gateway.metrics().rescued)
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Reservation soundness over random streams: whenever the gateway
    /// answers `Reserved { start_at }`, the promise is *minimal* (the task
    /// was not admissible at `now`, nor at any earlier dispatch instant)
    /// and *honest* (dispatching the queue through `start_at` and
    /// resubmitting there is accepted).
    #[test]
    fn reservations_are_minimal_and_honest(
        seed in 0u64..100_000,
        load in 0.8f64..2.5,
        dc in 1.2f64..3.5,
        algorithm in prop::sample::select(vec![
            AlgorithmKind::EDF_DLT,
            AlgorithmKind::EDF_OPR_MN,
        ]),
    ) {
        let params = ClusterParams::paper_baseline();
        let mut spec = WorkloadSpec::paper_baseline(load);
        spec.dc_ratio = dc;
        spec.horizon = 40.0 * spec.mean_interarrival();
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, seed).collect();
        prop_assume!(!tasks.is_empty());
        let mut gateway = single(params, algorithm);
        for t in &tasks {
            let now = t.arrival;
            // Advance the world: dispatch everything due by now.
            gateway.refill_due(now, &mut Vec::new());
            let before = one_shard_controller(&gateway);
            let req = SubmitRequest::new(*t).with_max_delay(Some(t.rel_deadline * 10.0));
            let verdict = gateway.submit_request(&req, now);
            if let Verdict::Reserved { start_at, .. } = verdict {
                prop_assert!(
                    start_at.definitely_after(now),
                    "a reservation on the rejected path promises δ > 0"
                );
                // Not admissible at submission time.
                prop_assert!(
                    !before.probe(t, now).is_accepted(),
                    "reserved a task that was admissible right away"
                );
                // Minimal: no earlier dispatch instant admits it.
                let earlier: Vec<SimTime> = before
                    .queue()
                    .iter()
                    .map(|(_, p)| p.first_start())
                    .filter(|s| s.definitely_after(now) && *s < start_at)
                    .collect();
                for s in earlier {
                    let mut world = before.clone();
                    let _ = Admission::take_due(&mut world, s);
                    prop_assert!(
                        !world.submit(*t, s).is_accepted(),
                        "start_at is not minimal: {s:?} already admits"
                    );
                }
                // Honest: resubmitting at start_at is accepted.
                let mut world = before.clone();
                let _ = Admission::take_due(&mut world, start_at);
                prop_assert!(
                    world.submit(*t, start_at).is_accepted(),
                    "promise {start_at:?} dishonored"
                );
            }
        }
    }

    /// The Reserved arm exercised *unconditionally*: randomized variants of
    /// the EDF priority-inversion scenario (an earlier-deadline small task
    /// would starve a snug waiting all-node task — rejected now, feasible
    /// the instant that task dispatches). Every draw must produce a
    /// `Reserved` verdict with the minimal honest start.
    #[test]
    fn crafted_starvation_always_reserves(
        avail in 500.0f64..5_000.0,
        sigma_w in 400.0f64..1_200.0,
        u in 0.4f64..0.9,   // waiting slack as a fraction of the 15-node penalty
        v in 0.35f64..0.85, // candidate slack as a fraction of the waiting slack
        sigma_c in 5.0f64..25.0,
    ) {
        use rtdls_core::dlt::homogeneous;
        let params = ClusterParams::paper_baseline();
        let e16 = homogeneous::exec_time(&params, sigma_w, 16);
        let e15 = homogeneous::exec_time(&params, sigma_w, 15);
        let slack_w = (e15 - e16) * u;
        let slack_c = slack_w * v;
        // The candidate must fit the whole cluster within its own slack
        // (post-dispatch feasibility) but not fit around the waiting task.
        prop_assume!(homogeneous::exec_time(&params, sigma_c, 16) < slack_c * 0.8);
        let algorithm = AlgorithmKind::EDF_OPR_MN;
        let mut gateway = single(params, algorithm);
        for node in 0..16 {
            gateway.node_released(node, SimTime::new(avail));
        }
        let w = Task::new(1, 0.0, sigma_w, avail + e16 + slack_w);
        let req_w = SubmitRequest::new(w);
        prop_assert!(gateway.submit_request(&req_w, SimTime::ZERO).is_accepted());
        let c = Task::new(2, 0.0, sigma_c, avail + e16 + slack_c);
        let req = SubmitRequest::new(c).with_max_delay(Some(avail * 2.0));
        let before = one_shard_controller(&gateway);
        let verdict = gateway.submit_request(&req, SimTime::ZERO);
        let Verdict::Reserved { start_at, .. } = verdict else {
            prop_assert!(false, "expected Reserved, got {verdict:?}");
            unreachable!()
        };
        prop_assert_eq!(start_at, SimTime::new(avail), "minimal start = the dispatch instant");
        prop_assert!(!before.probe(&c, SimTime::ZERO).is_accepted());
        let mut world = before;
        let due = Admission::take_due(&mut world, start_at);
        prop_assert_eq!(due.len(), 1);
        prop_assert!(world.submit(c, start_at).is_accepted(), "promise dishonored");
    }
}
