//! The differential oracle: every scenario is replayed through the
//! production engine — the diff-based [`AdmissionController`] — and the
//! literal Fig. 2 full replan, [`ReferenceController`], and the two must
//! agree **exactly** after every single operation: same decisions, same
//! plans, same committed releases, same serialized [`ControllerState`],
//! same backlog and dispatch horizon.
//!
//! Because the production engine can silently diverge (a reuse gate that
//! is one epsilon too permissive would admit a task the reference engine
//! rejects, or install a stale plan), this suite is the heart of the
//! engine's correctness story: scenarios cover streaming submissions,
//! same-instant bursts, dispatches, early node releases, replans, demote-style removals, mid-scenario restores from the
//! journaled image (a cold reuse cache), submissions stamped before the
//! scenario clock (a pass at an instant earlier than the one its cached
//! plans were planned at), and real workload streams (Poisson, bursty, and
//! heavy-tailed sizes) at >1000 generated cases.
//!
//! Refusal explanations are compared the same way, as whole values: the
//! production engine explains with a verdict walk per probe on its reuse
//! cache, the oracle with a from-scratch `schedulability_test` per probe.
//!
//! So is the reservation search: the production engine walks each future
//! dispatch instant once, applying the cached plans its reuse gate still
//! vouches for, the oracle replans the whole remaining queue per instant.
//! Both the search after `now` (`earliest_start_after`, what the service
//! asks a shard that has just refused, so it also runs after every refused
//! submission) and its composition with the test at `now`
//! (`earliest_feasible_start`) are compared.
//! Besides its own op the search also runs right after every restore (cold
//! cache: every gate misses) and every early release (stale cache: the
//! gates of what the release perturbs must fail); an explanation runs the
//! same search with no cache at all.
//!
//! And so is a refusal asked about again: the production engine remembers
//! the refusals it hands out and answers a re-submission from memory while
//! the walk reaches the task on unchanged inputs, the oracle replans. Tasks
//! either engine refused are re-submitted as-is by an op of their own and
//! right after everything that can change the answer under them — a
//! dispatch, an early release, a removal, a restore. (In debug builds every
//! remembered refusal that is used, and every instant the reservation search
//! skips, is also held against the literal test on the spot, so the whole
//! suite checks the shortcut wherever it fires.)
//!
//! After every operation each plan left in the queue — the two engines'
//! queues are equal by then — is certified
//! ([`rtdls_check::independent::certify`]) against the release vector it was
//! planned on: the partition, node count, timeline and deadline re-derived
//! from the paper's formulas by code that shares nothing with the planning
//! kernel both engines run. Agreement alone cannot catch a kernel that is
//! wrong in both.
//!
//! On divergence the failing scenario is greedily *shrunk* — ops are
//! removed one at a time while the divergence persists — and the minimal
//! reproducer is printed in the panic message.

mod differential;

use differential::*;
use proptest::prelude::*;
use rtdls_core::prelude::*;
use rtdls_workload::prelude::*;

fn algorithms() -> Vec<AlgorithmKind> {
    vec![
        AlgorithmKind::EDF_DLT,
        AlgorithmKind::FIFO_DLT,
        AlgorithmKind::EDF_OPR_MN,
        AlgorithmKind::EDF_USER_SPLIT,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]
    #[test]
    fn differential_random_ops(
        algorithm in prop::sample::select(algorithms()),
        raws in prop::collection::vec((0u8..12, 0.0..1.0, 0.0..1.0, 0.0..1.0), 1..30),
    ) {
        if let Err(e) = check_scenario(algorithm, &raws) {
            shrink_and_report(algorithm, &raws, e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    #[test]
    fn differential_dispatch_heavy(
        algorithm in prop::sample::select(vec![AlgorithmKind::EDF_DLT, AlgorithmKind::FIFO_DLT]),
        raws in prop::collection::vec(
            // Kinds 0/3/4 dominate: submissions interleaved with
            // dispatches, early releases and restores (kinds 4 and 8, each
            // followed by a reservation search), the reservation search
            // itself (kind 7), refusal explanations (kind 9) and refused
            // tasks asked about again (kind 10).
            (prop::sample::select(vec![0u8, 0, 0, 3, 4, 0, 7, 8, 9, 10]), 0.0..1.0, 0.0..1.0, 0.0..1.0),
            1..16,
        ),
    ) {
        if let Err(e) = check_scenario(algorithm, &raws) {
            shrink_and_report(algorithm, &raws, e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(220))]
    #[test]
    fn differential_workload_streams(
        seed in 0u64..1_000_000,
        load in 0.4..2.0,
        flavor in 0u8..3,
        algorithm in prop::sample::select(vec![AlgorithmKind::EDF_DLT, AlgorithmKind::FIFO_DLT]),
    ) {
        let mut spec = WorkloadSpec::paper_baseline(load);
        spec.dc_ratio = 6.0;
        spec.horizon = 1e9; // bound by take() below, not the horizon
        let tasks: Vec<Task> = match flavor {
            // Bursty arrivals (the gateway's stress regime).
            0 => {
                spec.horizon = 40.0 * spec.mean_interarrival();
                let profile = BurstProfile { rate_factor: 3.0, ..BurstProfile::moderate(&spec) };
                BurstyPoisson::new(spec, profile, seed).take(40).collect()
            }
            // Heavy-tailed sizes (rare huge tasks between many small ones).
            1 => {
                spec = spec.with_size_model(SizeModel::HeavyTailed);
                WorkloadGenerator::new(spec, seed).take(40).collect()
            }
            // The paper's plain Poisson/normal stream.
            _ => WorkloadGenerator::new(spec, seed).take(40).collect(),
        };
        prop_assume!(!tasks.is_empty());
        if let Err(e) = check_workload_stream(&tasks, algorithm, ClusterParams::paper_baseline()) {
            panic!(
                "differential oracle (workload stream): {e}\n\
                 seed={seed} load={load} flavor={flavor} algorithm={algorithm}"
            );
        }
    }
}

#[test]
fn steady_deep_queue_actually_exercises_the_diff_path() {
    // Guard against the production engine silently degrading to
    // replan-always (it would still pass every differential check): in the
    // steady deep-queue regime the reuse rate must be overwhelming.
    let params = ClusterParams::paper_baseline();
    let mut inc = AdmissionController::new(params, AlgorithmKind::EDF_DLT, PlanConfig::default());
    for i in 0..128u64 {
        let t = Task::new(i, 0.0, 100.0, 5e6 + i as f64 * 1e4);
        assert!(inc.submit(t, SimTime::ZERO).is_accepted());
    }
    let stats = inc.profile();
    assert!(
        stats.reuse_rate() > 0.9,
        "deep-queue streaming should be ~all reuse, got {:?}",
        stats
    );
    // 128 submissions into an EDF-ordered queue with increasing deadlines:
    // exactly one fresh plan each, everything before it reused.
    assert_eq!(stats.plans_computed, 128);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The workload-stream drive on `admit_deep`'s shape: 64 nodes, wide
    /// enough that the engine builds rebased snapshots from recorded orders
    /// (in a dev build, each held against a fresh sort on the spot), with
    /// the queue tens of tasks deep by the end of the stream.
    #[test]
    fn differential_deep_book(
        seed in 0u64..1_000_000,
        algorithm in prop::sample::select(vec![AlgorithmKind::EDF_DLT, AlgorithmKind::FIFO_DLT]),
    ) {
        let tasks = deep_stream(seed, DEEP_STREAM);
        if let Err(e) = check_workload_stream(&tasks, algorithm, deep_params()) {
            panic!("differential oracle (deep book): {e}\nseed={seed} algorithm={algorithm}");
        }
    }
}
