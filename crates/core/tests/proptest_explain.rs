//! Honesty of admission explanations, property-tested.
//!
//! An [`AdmissionExplanation`] makes three falsifiable promises about its
//! counterfactuals, each checked here by actually resubmitting:
//!
//! 1. **Deadline honesty** — a rejected task resubmitted with
//!    `rel_deadline = min_feasible_deadline` (otherwise unchanged) is
//!    accepted, and one resubmitted meaningfully *tighter* than the
//!    suggestion is still rejected (the suggestion is minimal, not merely
//!    sufficient).
//! 2. **σ honesty** — the same, shrinking `data_size` to
//!    `max_feasible_sigma` (and a meaningfully larger σ still fails).
//! 3. **Engine agreement** — the reference full-replan engine and the
//!    diff-based production engine explain identically (the oracle runs
//!    the literal search, one from-scratch test per probe; the engine the
//!    probe-walk search — so this pins the search, over empty queues;
//!    `differential_admission.rs` does it over waiting ones).
//!
//! Tightness margins are relative (`1 − 5·tol`-style factors squeezed to
//! 0.999/1.001) because the bisection brackets to a relative tolerance:
//! an epsilon-tighter probe may legitimately still pass inside the
//! bracket, but a 0.1% violation means the suggestion was not minimal.
//!
//! The book under test is a *busy* one — randomized committed release
//! vectors over an empty waiting queue. With waiting work the admission
//! test is not monotone in a single task's deadline (a replan can reorder
//! the queue), so minimality there is heuristic; over committed releases
//! alone, feasibility is monotone and the promises are exact.

use proptest::prelude::*;
use rtdls_check::oracle::{pair, ReferenceController};
use rtdls_core::prelude::*;

const BASE_NODES: usize = 16;

fn engines(
    algorithm: AlgorithmKind,
    releases: &[f64],
) -> (ReferenceController, AdmissionController) {
    let params = ClusterParams::new(BASE_NODES, 1.0, 50.0).expect("valid params");
    let releases: Vec<SimTime> = releases.iter().copied().map(SimTime::new).collect();
    pair(params, algorithm, PlanConfig::default(), &releases)
}

fn arb_algorithm() -> impl Strategy<Value = AlgorithmKind> {
    prop::sample::select(vec![
        AlgorithmKind::EDF_DLT,
        AlgorithmKind::EDF_OPR_MN,
        AlgorithmKind::FIFO_DLT,
    ])
}

/// Busy committed-release vectors: every node tied up for a while.
fn arb_releases() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..5_000.0, BASE_NODES)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn explanations_are_honest_and_engine_independent(
        algorithm in arb_algorithm(),
        releases in arb_releases(),
        sigma in 500.0f64..200_000.0,
        deadline_frac in 0.01f64..0.9,
        now in 0.0f64..1_000.0,
    ) {
        let (full, inc) = engines(algorithm, &releases);
        let now = SimTime::new(now);
        // A deadline scaled well below the busy floor, so rejection (and
        // hence an explanation) is likely but not guaranteed — accepted
        // draws exercise the `explain == None` agreement instead.
        let floor = releases.iter().cloned().fold(0.0f64, f64::max);
        let rel_deadline = (floor.max(1.0) * deadline_frac).max(0.5);
        let task = Task::new(1, now, sigma, rel_deadline);
        let request = SubmitRequest::new(task);

        let explained = full.explain(&request, now);
        prop_assert_eq!(
            explained, inc.explain(&request, now),
            "engines must explain identically"
        );

        if explained.is_none() {
            // Admissible as-is: submitting must in fact accept.
            let mut probe = full.clone();
            prop_assert_eq!(probe.submit(task, now), Decision::Accepted);
        }
        if let Some(explanation) = explained {
        // An explanation is only produced for an inadmissible request.
        let mut probe = full.clone();
        prop_assert!(matches!(probe.submit(task, now), Decision::Rejected(_)));

        if explanation.has_feasible_deadline() {
            let suggested = explanation.min_feasible_deadline;
            prop_assert!(
                suggested > task.rel_deadline,
                "a feasible deadline suggestion must widen: {} vs {}",
                suggested, task.rel_deadline
            );
            prop_assert!(
                (explanation.slack_deficit - (suggested - task.rel_deadline)).abs()
                    <= 1e-6 * suggested.max(1.0),
                "slack deficit is the deadline gap"
            );
            // Resubmission at the suggestion (both engines) is accepted.
            let relaxed = Task::new(2, now, sigma, suggested);
            let (mut f2, mut i2) = engines(algorithm, &releases);
            prop_assert_eq!(f2.submit(relaxed, now), Decision::Accepted,
                "the suggested min deadline must admit");
            prop_assert_eq!(i2.submit(relaxed, now), Decision::Accepted);
            // 0.1% tighter than minimal must still fail.
            let tighter = suggested * 0.999;
            if tighter > task.rel_deadline {
                let (mut f3, _) = engines(algorithm, &releases);
                prop_assert!(
                    matches!(
                        f3.submit(Task::new(3, now, sigma, tighter), now),
                        Decision::Rejected(_)
                    ),
                    "0.1% inside the suggested minimum must still reject"
                );
            }
        }

        if explanation.has_feasible_sigma() {
            let suggested = explanation.max_feasible_sigma;
            prop_assert!(
                suggested < sigma,
                "a feasible sigma suggestion must shrink: {suggested} vs {sigma}"
            );
            let shrunk = Task::new(4, now, suggested, rel_deadline);
            let (mut f2, mut i2) = engines(algorithm, &releases);
            prop_assert_eq!(f2.submit(shrunk, now), Decision::Accepted,
                "the suggested max sigma must admit");
            prop_assert_eq!(i2.submit(shrunk, now), Decision::Accepted);
            let larger = suggested * 1.001;
            if larger < sigma {
                let (mut f3, _) = engines(algorithm, &releases);
                prop_assert!(
                    matches!(
                        f3.submit(Task::new(5, now, larger, rel_deadline), now),
                        Decision::Rejected(_)
                    ),
                    "0.1% past the suggested maximum must still reject"
                );
            }
        }

        if explanation.has_feasible_start() {
            // Waiting without renegotiating: the unchanged task admits at
            // the reported instant.
            let start = SimTime::new(explanation.earliest_feasible_start);
            prop_assert!(start >= now);
            let (f2, _) = engines(algorithm, &releases);
            prop_assert_eq!(f2.probe(&task, start), Decision::Accepted,
                "the earliest feasible start must admit the unchanged task");
        }
        }
    }

    #[test]
    fn explanations_ride_rejected_verdicts_identically(
        releases in arb_releases(),
        sigma in 10_000.0f64..200_000.0,
    ) {
        // The service-facing half of the honesty story: when explanation
        // annotation is on, the explanation attached to a Rejected verdict
        // is byte-for-byte the one `explain` serves for the same request.
        let (full, _) = engines(AlgorithmKind::EDF_DLT, &releases);
        let now = SimTime::ZERO;
        let task = Task::new(9, now, sigma, 0.25);
        let request = SubmitRequest::new(task);
        let direct = full.explain(&request, now);
        let again = full.explain(&request, now);
        prop_assert_eq!(direct, again, "explain is deterministic");
    }
}
