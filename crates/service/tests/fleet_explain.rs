//! The fleet-level refusal explanation, checked from outside.
//!
//! `ShardedGateway::explain` opens one search per shard, races their
//! deadline brackets — abandoning a shard once its own bracket lies wholly
//! above another's — and finishes only the winner's. What a client must
//! receive is stated without any of that:
//! explain the request on every shard *in full*, then fold — any shard
//! feasible as-is → `None`; a feasible counterfactual deadline beats none;
//! a strictly shorter one wins; the first shard wins a tie. Here the
//! per-shard explanations come from the literal oracle
//! (`ReferenceController`, one from-scratch `schedulability_test` per
//! probe) rebuilt from each shard's journaled state, so the test shares
//! neither the fleet's shortcut nor the production search with the code it
//! checks.

use rtdls_check::oracle::ReferenceController;
use rtdls_core::dlt::homogeneous;
use rtdls_core::prelude::*;
use rtdls_service::prelude::*;
use rtdls_telemetry::{Stage, Telemetry};
use rtdls_workload::prelude::{WorkloadGenerator, WorkloadSpec};

/// The documented fold over complete per-shard explanations.
fn fold(per_shard: &[Option<AdmissionExplanation>]) -> Option<AdmissionExplanation> {
    let mut best: Option<AdmissionExplanation> = None;
    for ex in per_shard {
        let ex = (*ex)?;
        let better = match best {
            None => true,
            Some(cur) => match (ex.has_feasible_deadline(), cur.has_feasible_deadline()) {
                (true, true) => ex.min_feasible_deadline < cur.min_feasible_deadline,
                (true, false) => true,
                _ => false,
            },
        };
        if better {
            best = Some(ex);
        }
    }
    best
}

/// Every shard's own explanation, by the literal search.
fn per_shard(
    gateway: &ShardedGateway,
    request: &SubmitRequest,
    now: SimTime,
) -> Vec<Option<AdmissionExplanation>> {
    gateway
        .shard_states()
        .into_iter()
        .map(|state| {
            ReferenceController::from_state(state)
                .expect("a live shard's image restores")
                .explain(request, now)
        })
        .collect()
}

/// A tiny deterministic generator (the scenarios must not change between
/// runs: the coverage assertions below depend on what they contain).
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn gateway(
    nodes: usize,
    shards: usize,
    algorithm: AlgorithmKind,
    routing: Routing,
) -> ShardedGateway {
    let params = ClusterParams::new(nodes, 1.0, 100.0).expect("valid cluster");
    let mut g = ShardedGateway::new(
        params,
        shards,
        algorithm,
        PlanConfig::default(),
        routing,
        DeferPolicy::default(),
    )
    .expect("valid shard count");
    g.enable_explanations();
    g
}

/// One shard's journaled image, built directly on an engine: committed
/// releases per node, then the waiting tasks (all of which must be
/// admitted at time zero).
fn shard_image(algorithm: AlgorithmKind, releases: &[f64], waiting: &[Task]) -> ControllerState {
    let params = ClusterParams::new(releases.len(), 1.0, 100.0).expect("valid shard");
    let mut ctl = AdmissionController::new(params, algorithm, PlanConfig::default());
    for (node, release) in releases.iter().enumerate() {
        ctl.set_node_release(node, SimTime::new(*release));
    }
    for task in waiting {
        assert!(ctl.submit(*task, SimTime::ZERO).is_accepted(), "{task:?}");
    }
    ctl.state()
}

/// An explaining fleet assembled from shard images, in the order given.
fn fleet_of(algorithm: AlgorithmKind, shards: Vec<ControllerState>) -> ShardedGateway {
    let nodes = shards.iter().map(|s| s.params.num_nodes).sum();
    let mut g = ShardedGateway::from_parts(
        ClusterParams::new(nodes, 1.0, 100.0).expect("valid cluster"),
        algorithm,
        Routing::RoundRobin,
        0,
        shards,
        ServiceBook::new(DeferPolicy::default(), QuotaPolicy::default()),
    )
    .expect("the images tile the cluster");
    g.enable_explanations();
    g
}

/// What one scenario saw, for the coverage assertions.
#[derive(Default)]
struct Seen {
    refused: usize,
    feasible_as_is: usize,
    /// The winner was not shard 0 (so "first explanation" is not the rule).
    later_shard_won: usize,
    /// Some shard had no feasible deadline while another had one.
    none_lost_to_some: usize,
    /// Two shards tied for the best deadline with otherwise different
    /// explanations — the first-shard rule is observable.
    observable_tie: usize,
    verdicts_checked: usize,
}

/// Checks `explain` and the verdict's attachment for one request against
/// the fold of the per-shard literal explanations.
fn check(gateway: &ShardedGateway, request: &SubmitRequest, now: SimTime, seen: &mut Seen) {
    let shards = per_shard(gateway, request, now);
    let expected = fold(&shards);
    assert_eq!(
        gateway.explain(request, now),
        expected,
        "fleet explanation differs from the fold of {shards:?}"
    );
    let Some(winner) = expected else {
        seen.feasible_as_is += 1;
        return;
    };
    seen.refused += 1;
    let all: Vec<AdmissionExplanation> = shards.iter().map(|e| e.expect("refused")).collect();
    if all[0] != winner {
        seen.later_shard_won += 1;
    }
    if winner.has_feasible_deadline() && all.iter().any(|e| !e.has_feasible_deadline()) {
        seen.none_lost_to_some += 1;
    }
    let tied: Vec<&AdmissionExplanation> = all
        .iter()
        .filter(|e| e.min_feasible_deadline == winner.min_feasible_deadline)
        .collect();
    if tied.iter().any(|e| **e != winner) {
        assert_eq!(*tied[0], winner, "the first tied shard must win");
        seen.observable_tie += 1;
    }
    // A refusal verdict from the explaining gateway carries exactly that
    // value (every shard refuses, so the submit changes no shard before
    // the explanation is searched).
    let mut live = gateway.clone();
    match live.submit_request(request, now) {
        verdict @ (Verdict::Deferred { .. } | Verdict::Rejected { .. }) => {
            assert_eq!(verdict.explanation(), Some(winner));
            seen.verdicts_checked += 1;
        }
        other => panic!("every shard refuses, yet the verdict is {other:?}"),
    }
}

/// Fills the shards with same-instant work (round-robin dealing makes the
/// queues unequal in content, the uneven node split unequal in shape), then
/// asks about candidates across the feasible/infeasible boundary.
#[test]
fn fleet_explanation_is_the_fold_of_per_shard_explanations() {
    let mut seen = Seen::default();
    for (seed, algorithm) in [
        (1, AlgorithmKind::EDF_DLT),
        (2, AlgorithmKind::EDF_DLT),
        (3, AlgorithmKind::FIFO_DLT),
        (4, AlgorithmKind::EDF_OPR_MN),
    ] {
        let mut rng = Lcg(seed);
        // 14 nodes over 4 shards: 4, 4, 3, 3.
        let mut g = gateway(14, 4, algorithm, Routing::RoundRobin);
        let params = *g.params();
        let e4 = |sigma: f64| homogeneous::exec_time(&params, sigma, 4);
        let now = SimTime::ZERO;
        for id in 0..18u64 {
            let sigma = 50.0 + rng.unit() * 250.0;
            let task = Task::new(id, 0.0, sigma, e4(sigma) * (2.0 + rng.unit() * 10.0));
            let _ = g.submit_request(&SubmitRequest::new(task), now);
        }
        let lens = g.shard_queue_lens();
        assert!(
            lens.iter().all(|&l| l > 0),
            "every shard holds work: {lens:?}"
        );
        // A few dispatches commit, so shards differ in committed releases
        // as well as in what waits.
        g.drive(SimTime::ZERO);
        for k in 0..40u64 {
            let sigma = 30.0 + rng.unit() * 400.0;
            let factor = 0.3 + rng.unit() * 6.0;
            let task = Task::new(1_000 + k, 0.0, sigma, e4(sigma) * factor);
            check(&g, &SubmitRequest::new(task), now, &mut seen);
        }
    }
    assert!(seen.refused >= 40, "refusals: {}", seen.refused);
    assert!(seen.feasible_as_is >= 10, "as-is: {}", seen.feasible_as_is);
    assert!(seen.later_shard_won >= 10, "{}", seen.later_shard_won);
    assert_eq!(seen.verdicts_checked, seen.refused);
}

/// Shards that can offer no deadline at all, next to one that can and on
/// their own.
#[test]
fn shards_without_a_feasible_deadline_lose_to_any_offer() {
    let mut seen = Seen::default();
    // User-split planning serves exactly the node count the user asked for:
    // a request for 4 nodes has no feasible deadline on a 3-node shard.
    // 10 nodes over 3 shards: 4, 3, 3 — the big shard is busy (refuses
    // now, offers a deadline), the small ones can never serve it.
    let mut g = gateway(10, 3, AlgorithmKind::EDF_USER_SPLIT, Routing::RoundRobin);
    let params = *g.params();
    let e3 = homogeneous::exec_time(&params, 300.0, 3);
    let now = SimTime::ZERO;
    for id in 0..3u64 {
        let task = Task::new(id, 0.0, 300.0, e3 * 4.0).with_user_nodes(Some(3));
        assert!(g
            .submit_request(&SubmitRequest::new(task), now)
            .is_accepted());
    }
    // Dispatched: three nodes of every shard are committed until `e3`.
    g.drive(now);
    // Needs 4 nodes at once, sooner than shard 0 frees three of its own.
    let wide = Task::new(100, 0.0, 100.0, e3 * 0.5).with_user_nodes(Some(4));
    check(&g, &SubmitRequest::new(wide), now, &mut seen);
    assert_eq!(
        seen.none_lost_to_some, 1,
        "shard 0 offers, shards 1–2 cannot"
    );
    // Five nodes fit nowhere: the fleet has no deadline to offer either.
    let wider = Task::new(101, 0.0, 100.0, e3 * 0.5).with_user_nodes(Some(5));
    check(&g, &SubmitRequest::new(wider), now, &mut seen);
    assert_eq!(seen.refused, 2);
    let ex = g
        .explain(&SubmitRequest::new(wider), now)
        .expect("refused everywhere");
    assert!(!ex.has_feasible_deadline());
}

/// A shard that can offer a deadline behind shards that cannot: the first
/// shards never enter the race, and still lose to the last.
#[test]
fn a_late_shard_with_the_only_offer_wins() {
    let mut seen = Seen::default();
    // User-split again, the narrow shards first: only the last one has the
    // four nodes the request asks for, and it is busy.
    let algorithm = AlgorithmKind::EDF_USER_SPLIT;
    let g = fleet_of(
        algorithm,
        vec![
            shard_image(algorithm, &[0.0; 3], &[]),
            shard_image(algorithm, &[500.0; 3], &[]),
            shard_image(algorithm, &[4_000.0; 4], &[]),
        ],
    );
    let wide = Task::new(100, 0.0, 100.0, 3_000.0).with_user_nodes(Some(4));
    check(&g, &SubmitRequest::new(wide), SimTime::ZERO, &mut seen);
    assert_eq!((seen.refused, seen.later_shard_won), (1, 1));
    assert_eq!(seen.none_lost_to_some, 1);
}

/// Two shards with the same book next to a worse one: equal brackets at
/// every round of the race, so neither may abandon the other, and the
/// worse shard may not win.
#[test]
fn shards_with_identical_books_never_drop_each_other() {
    let mut seen = Seen::default();
    let algorithm = AlgorithmKind::EDF_DLT;
    let waiting = [
        Task::new(1, 0.0, 150.0, 9_000.0),
        Task::new(2, 0.0, 80.0, 14_000.0),
    ];
    let twin = shard_image(algorithm, &[1_000.0, 1_500.0, 2_000.0, 2_500.0], &waiting);
    let worse = shard_image(algorithm, &[3_000.0, 3_500.0, 4_000.0, 4_500.0], &waiting);
    for shards in [
        vec![twin.clone(), twin.clone(), worse.clone()],
        vec![worse.clone(), twin.clone(), twin.clone()],
        vec![twin.clone(), worse, twin.clone()],
    ] {
        let g = fleet_of(algorithm, shards);
        for rel_deadline in [2_000.0, 5_000.0, 8_000.0] {
            let tight = Task::new(100, 0.0, 200.0, rel_deadline);
            check(&g, &SubmitRequest::new(tight), SimTime::ZERO, &mut seen);
        }
    }
    assert_eq!(seen.refused, 9, "every candidate is refused everywhere");
    // The twins' offer wins wherever the twins stand.
    let g = fleet_of(algorithm, vec![twin.clone(), twin]);
    let tight = SubmitRequest::new(Task::new(100, 0.0, 200.0, 2_000.0));
    let both = per_shard(&g, &tight, SimTime::ZERO);
    assert_eq!(both[0], both[1]);
    assert_eq!(g.explain(&tight, SimTime::ZERO), both[0]);
}

/// The two-node book on which the test is not monotone in the deadline
/// (feasible at 1600, refused at 1850, feasible again near 2000), as one
/// shard of a fleet. Its search answers from its own bracket above 1850;
/// the fleet compares that answer with the other shard's, on either side
/// of it — and never asks the shard about the other shard's deadline, at
/// which it would have said something else.
#[test]
fn a_non_monotone_shard_is_judged_by_its_own_bracket() {
    let mut seen = Seen::default();
    let algorithm = AlgorithmKind::EDF_DLT;
    let waiting = [Task::new(1, 0.0, 10.0, 1_750.0)];
    let odd = shard_image(algorithm, &[0.0, 0.0], &waiting);
    let candidate = |d: f64| SubmitRequest::new(Task::new(2, 0.0, 20.0, d));
    let now = SimTime::ZERO;
    let alone = ReferenceController::from_state(odd.clone()).expect("restores");
    assert!(alone.probe(&candidate(1_600.0).task, now).is_accepted());
    let own_answer = alone
        .explain(&candidate(1_850.0), now)
        .expect("refused at 1850")
        .min_feasible_deadline;
    assert!(own_answer > 1_850.0);
    // The other shard: two nodes busy until `r`, nothing waiting, so it
    // offers `r` plus the two-node execution time.
    let two = ClusterParams::new(2, 1.0, 100.0).expect("valid shard");
    let e2 = homogeneous::exec_time(&two, 20.0, 2);
    for (offer, other_wins) in [
        (0.5 * (1_850.0 + own_answer), true),
        (own_answer + 100.0, false),
    ] {
        let r = offer - e2;
        for other_first in [false, true] {
            let other = shard_image(algorithm, &[r, r], &[]);
            let shards = if other_first {
                vec![other, odd.clone()]
            } else {
                vec![odd.clone(), other]
            };
            let g = fleet_of(algorithm, shards);
            let request = candidate(1_850.0);
            check(&g, &request, now, &mut seen);
            let answer = g
                .explain(&request, now)
                .expect("refused")
                .min_feasible_deadline;
            if other_wins {
                // Between the deadline the odd shard would admit and the
                // one its search reports.
                assert!(1_600.0 < answer && answer < own_answer, "{answer}");
                assert!((answer - offer).abs() < 1e-3, "{answer} vs {offer}");
            } else {
                assert_eq!(answer, own_answer);
            }
        }
    }
    assert_eq!(seen.refused, 4);
    assert_eq!(seen.later_shard_won, 2);
}

/// One same-instant burst on 8 shards × 8 nodes, twice what they can start
/// at once (the `edge_burst` shape): every refusal of the burst, explained
/// against eight full queues.
#[test]
fn a_burst_on_eight_full_shards_is_explained_as_the_fold() {
    let mut seen = Seen::default();
    let mut g = gateway(64, 8, AlgorithmKind::EDF_DLT, Routing::LeastLoaded);
    let mut spec = WorkloadSpec::paper_baseline(1.0);
    spec.params = *g.params();
    spec.dc_ratio = 20.0;
    spec.horizon = f64::MAX;
    let now = SimTime::new(1_000.0);
    for mut task in WorkloadGenerator::new(spec, 5).take(64) {
        task.arrival = now;
        let request = SubmitRequest::new(task);
        // Checked before it is submitted: a refusal parks the task, and an
        // explanation is about the book the refusal saw.
        check(&g, &request, now, &mut seen);
        let _ = g.submit_request(&request, now);
    }
    let lens = g.shard_queue_lens();
    assert!(
        lens.iter().all(|&l| l >= 3),
        "every shard is deep: {lens:?}"
    );
    assert!(seen.refused >= 10, "refusals: {}", seen.refused);
    assert!(seen.later_shard_won >= 5, "{}", seen.later_shard_won);
    assert_eq!(seen.verdicts_checked, seen.refused);
}

/// A tie the client can see: two shards that can offer nothing (each holds
/// an overdue plan nobody dispatched — every test a shard is asked then
/// fails on that plan, whatever the candidate), for different reasons. The
/// fleet's answer is the first shard's account, whole.
#[test]
fn the_first_shard_wins_an_observable_tie() {
    let mut seen = Seen::default();
    let mut g = gateway(8, 2, AlgorithmKind::EDF_DLT, Routing::RoundRobin);
    let params = *g.params();
    let busy_until = homogeneous::exec_time(&params, 400.0, 4);
    let submit = |g: &mut ShardedGateway, id: u64, sigma: f64, deadline: f64| {
        let task = Task::new(id, 0.0, sigma, deadline);
        assert!(g
            .submit_request(&SubmitRequest::new(task), SimTime::ZERO)
            .is_accepted());
    };
    // One four-node task per shard, dispatched at once: both shards are
    // committed until `busy_until`.
    submit(&mut g, 0, 400.0, busy_until * 1.01);
    submit(&mut g, 1, 400.0, busy_until * 1.01);
    g.drive(SimTime::ZERO);
    // One waiting task per shard, due at `busy_until`; nobody drives.
    submit(&mut g, 2, 100.0, busy_until * 2.0);
    submit(&mut g, 3, 400.0, busy_until * 3.0);
    assert_eq!(g.shard_queue_lens(), vec![1, 1]);
    // By now shard 0's plan is past its deadline and shard 1's can no
    // longer finish in what is left of its own.
    let now = SimTime::new(busy_until * 2.5);
    let late = Task::new(100, now.as_f64(), 50.0, busy_until * 10.0);
    check(&g, &SubmitRequest::new(late), now, &mut seen);
    assert_eq!(seen.refused, 1);
    assert_eq!(seen.observable_tie, 1, "the tie must be observable");
}

/// The explanation search is timed into its own phase, beside
/// `gateway/plan`: only for refusals, only on an explaining gateway.
#[test]
fn a_refusal_records_the_gateway_explain_phase_and_an_acceptance_does_not() {
    let count = |telemetry: &Telemetry, path: &str| {
        telemetry
            .phases()
            .iter()
            .find(|p| p.path == path)
            .map_or(0, |p| p.count)
    };
    let mut g = gateway(8, 2, AlgorithmKind::EDF_DLT, Routing::LeastLoaded);
    let telemetry = Telemetry::with_defaults();
    g.attach_telemetry(&telemetry);
    let now = SimTime::ZERO;
    let roomy = SubmitRequest::new(Task::new(1, 0.0, 100.0, 1e6));
    assert!(g.submit_request(&roomy, now).is_accepted());
    assert_eq!(count(&telemetry, "gateway/plan"), 1);
    assert_eq!(count(&telemetry, "gateway/explain"), 0);
    let hopeless = SubmitRequest::new(Task::new(2, 0.0, 1e5, 1.0));
    let verdict = g.submit_request(&hopeless, now);
    assert!(verdict.explanation().is_some(), "{verdict:?}");
    assert_eq!(count(&telemetry, "gateway/plan"), 2);
    assert_eq!(count(&telemetry, "gateway/explain"), 1);
    // Explanations off: the refusal is planned, not explained.
    g.book_mut().enable_explanations(false);
    let verdict = g.submit_request(&hopeless, now);
    assert!(verdict.explanation().is_none(), "{verdict:?}");
    assert_eq!(count(&telemetry, "gateway/plan"), 3);
    assert_eq!(count(&telemetry, "gateway/explain"), 1);
}

/// One handle records spans and phases, and where both time the same call
/// they carry one clock reading: over a generated stream on four shards,
/// the `Plan` spans' durations sum exactly to the `gateway/plan` phase's
/// total, span for interval.
#[test]
fn plan_spans_and_the_plan_phase_read_one_clock() {
    let mut g = gateway(32, 4, AlgorithmKind::EDF_DLT, Routing::LeastLoaded);
    let telemetry = Telemetry::with_defaults();
    g.attach_telemetry(&telemetry);
    let mut spec = WorkloadSpec::paper_baseline(1.0);
    spec.params = *g.params();
    spec.horizon = f64::MAX;
    let mut verdicts = 0;
    for task in WorkloadGenerator::new(spec, 11).take(300) {
        g.refill_due(task.arrival, &mut Vec::new());
        let _ = g.submit_request(&SubmitRequest::new(task), task.arrival);
        verdicts += 1;
    }
    let spans = telemetry.recent_spans(usize::MAX);
    assert_eq!(
        telemetry.spans_recorded(),
        spans.len() as u64,
        "ring kept all"
    );
    let plan_spans = spans.iter().filter(|s| s.stage == Stage::Plan);
    let (count, total_ns) = telemetry
        .phases()
        .into_iter()
        .find(|p| p.path == "gateway/plan")
        .map(|p| (p.count, p.total_ns))
        .expect("the plan phase is timed");
    assert_eq!(count, verdicts);
    assert_eq!(plan_spans.clone().count() as u64, count);
    assert_eq!(plan_spans.map(|s| s.duration_ns).sum::<u64>(), total_ns);
}
