//! Benchmarks of the Fig. 2 schedulability test — the whole-queue replan a
//! head node runs on every arrival. Cost grows with the waiting-queue depth,
//! which bounds the arrival rate a head node can sustain.
//!
//! `deep_book` is the production engine where the repository benchmark's
//! `admit_deep` workload keeps it: one 64-node shard, ≈ 46 tasks waiting, a
//! candidate that sorts mid-queue and is refused. `submit_deep` is the
//! failed pass (a task refused for the first time: walked, and remembered),
//! `retest_deep` the same ticket asked about again on the unchanged book
//! (answered from the engine's remembered refusal), `start_search_deep` the
//! reservation search that follows a refusal (every dispatch instant after
//! `now` up to the candidate's deadline, less the ones that repeat the last),
//! `explain_deep` that refusal explained (`open` →
//! `finish`: the deadline and σ bisections, each probe a verdict walk from
//! the queue ahead walked once per insertion point, and the same start
//! search) — traffic no
//! `BENCHMARK.json` workload sends a book this deep.
//! `explain_fleet` is one refusal explained by a fleet shaped like the
//! repository benchmark's `edge_burst` workload: 8 shards × 8 nodes, every
//! queue filled by one same-instant burst. `place` is one fresh walk step on
//! a 64-node shard, kept (into a pass's arena) and verdict-only. Printed,
//! not gated.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use rtdls_bench::{baseline, waiting_queue};
use rtdls_core::admission::schedulability_test;
use rtdls_core::prelude::*;
use rtdls_service::prelude::{DeferPolicy, Routing, ShardedGateway};
use rtdls_workload::prelude::{WorkloadGenerator, WorkloadSpec};

fn bench_schedulability_test(c: &mut Criterion) {
    let params = baseline();
    let cfg = PlanConfig::default();
    let releases = vec![SimTime::ZERO; params.num_nodes];
    let candidate = Task::new(10_000, 500.0, 200.0, 1e6).with_user_nodes(Some(6));

    let mut group = c.benchmark_group("schedulability_test");
    for queue_len in [0usize, 4, 16, 64] {
        let waiting = waiting_queue(queue_len);
        for algorithm in [AlgorithmKind::EDF_DLT, AlgorithmKind::EDF_USER_SPLIT] {
            group.bench_with_input(
                BenchmarkId::new(algorithm.paper_name(), queue_len),
                &waiting,
                |b, waiting| {
                    b.iter(|| {
                        schedulability_test(
                            &params,
                            algorithm,
                            &cfg,
                            SimTime::new(500.0),
                            black_box(&releases),
                            black_box(waiting),
                            Some(&candidate),
                        )
                        .expect("feasible queue")
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_controller_submit(c: &mut Criterion) {
    let params = baseline();
    // Steady-state controller with a primed queue; measure one submit.
    let mut group = c.benchmark_group("controller_submit");
    for queue_len in [4usize, 32] {
        group.bench_with_input(
            BenchmarkId::from_parameter(queue_len),
            &queue_len,
            |b, &queue_len| {
                let mut ctl =
                    AdmissionController::new(params, AlgorithmKind::EDF_DLT, PlanConfig::default());
                for t in waiting_queue(queue_len) {
                    let _ = ctl.submit(t, t.arrival);
                }
                let probe = Task::new(99_999, 1_000.0, 150.0, 1e6);
                b.iter(|| {
                    let mut c = ctl.clone();
                    black_box(c.submit(probe, SimTime::new(1_000.0)))
                })
            },
        );
    }
    group.finish();
}

/// A 64-node engine under pressure — `DEEP` tasks waiting behind staggered
/// committed work, each admitted with 15 % more deadline than the shortest
/// the book would still take, so plans spread over 4–15 nodes — and a
/// candidate that sorts mid-queue and is refused now but admissible once
/// half the queue has dispatched.
fn deep_book() -> (AdmissionController, Task) {
    const DEEP: usize = 46;
    let params = ClusterParams::new(64, 1.0, 100.0).expect("valid params");
    let mut ctl = AdmissionController::new(params, AlgorithmKind::EDF_DLT, PlanConfig::default());
    for node in 0..64 {
        ctl.set_node_release(node, SimTime::new(2_000.0 + 150.0 * node as f64));
    }
    let mut shortest = 0.0f64;
    let mut i = 0u64;
    while ctl.queue_len() < DEEP {
        let sigma = 150.0 + (i % 7) as f64 * 40.0;
        let mut d = shortest.max(2_000.0 + homogeneous::exec_time(&params, sigma, 64));
        while !ctl
            .probe(&Task::new(i, 0.0, sigma, d), SimTime::ZERO)
            .is_accepted()
        {
            d *= 1.02;
        }
        shortest = d;
        let _ = ctl.submit(Task::new(i, 0.0, sigma, d * 1.15), SimTime::ZERO);
        i += 1;
    }
    let mid = ctl.queue()[DEEP / 2].0.absolute_deadline().as_f64();
    let candidate = Task::new(10_000, 0.0, 200.0, mid);
    assert!(!ctl.probe(&candidate, SimTime::ZERO).is_accepted());
    let start = ctl.earliest_start_after(&candidate, SimTime::ZERO);
    assert!(
        start.is_some(),
        "the candidate must be refused now and admissible later, got {start:?}"
    );
    (ctl, candidate)
}

fn bench_deep_book(c: &mut Criterion) {
    let (mut ctl, candidate) = deep_book();
    let mut group = c.benchmark_group("deep_book");
    let mut next_id = candidate.id.0;
    group.bench_function("submit_deep", |b| {
        // Refused, so the book stays as it is; a new id each time, so the
        // engine has no refusal of this task to remember.
        b.iter(|| {
            next_id += 1;
            let first_time = Task {
                id: TaskId(next_id),
                ..candidate
            };
            black_box(ctl.submit(black_box(first_time), SimTime::ZERO))
        })
    });
    group.bench_function("retest_deep", |b| {
        b.iter(|| black_box(ctl.submit(black_box(candidate), SimTime::ZERO)))
    });
    group.bench_function("start_search_deep", |b| {
        b.iter(|| black_box(ctl.earliest_start_after(black_box(&candidate), SimTime::ZERO)))
    });
    let refused = SubmitRequest::new(candidate);
    group.bench_function("explain_deep", |b| {
        b.iter(|| black_box(ctl.explain(black_box(&refused), SimTime::ZERO)))
    });
    group.finish();
}

/// 8 shards × 8 nodes after one same-instant burst of twice what they can
/// start at once, and the first request of the burst no shard could take.
fn burst_fleet() -> (ShardedGateway, SubmitRequest, SimTime) {
    let params = ClusterParams::new(64, 1.0, 100.0).expect("valid params");
    let mut gateway = ShardedGateway::new(
        params,
        8,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .expect("valid shard count");
    let mut spec = WorkloadSpec::paper_baseline(1.0);
    spec.params = params;
    spec.dc_ratio = 20.0;
    spec.horizon = f64::MAX;
    let now = SimTime::new(1_000.0);
    let mut refused = None;
    for mut task in WorkloadGenerator::new(spec, 3).take(64) {
        task.arrival = now;
        let request = SubmitRequest::new(task);
        if !gateway.submit_request(&request, now).is_accepted() {
            refused.get_or_insert(request);
        }
    }
    let refused = refused.expect("the burst overfills the fleet");
    // Explained against the full queues the rest of the burst left behind.
    assert!(gateway.explain(&refused, now).is_some());
    (gateway, refused, now)
}

fn bench_explain_fleet(c: &mut Criterion) {
    let (gateway, refused, now) = burst_fleet();
    let mut group = c.benchmark_group("explain_fleet");
    group.bench_function("burst_refusal", |b| {
        b.iter(|| black_box(gateway.explain(black_box(&refused), now)))
    });
    group.finish();
}

/// One fresh step of the temp-schedule walk on a 64-node shard with
/// staggered releases and nothing waiting, both ways there are to take it.
/// `kept` is `probe_plan`: a one-step pass that plans the task and hands the
/// plan back (a pass set up on fresh buffers, the step into its arena, the
/// plan read back out as a value of its own). `verdict_only` is one probe
/// of a refusal explanation's deadline search, nothing kept but the answer:
/// an iteration opens the search on the refusal in hand and bisects it to
/// the end, and the throughput column counts its probes (most of them copy
/// the walk stood at their insertion point and take the step).
fn bench_place(c: &mut Criterion) {
    use rtdls_core::admission::{ExplainSearch, ProbeWalks};
    let params = ClusterParams::new(64, 1.0, 100.0).expect("valid params");
    let (algorithm, cfg, now) = (AlgorithmKind::EDF_DLT, PlanConfig::default(), SimTime::ZERO);
    let mut ctl = AdmissionController::new(params, algorithm, cfg);
    for node in 0..64 {
        ctl.set_node_release(node, SimTime::new(2_000.0 + 150.0 * node as f64));
    }
    let releases = ctl.committed_releases().to_vec();
    // What `wide` nodes manage from the moment the last of them is free.
    let lands_at = |wide: usize, factor: f64| {
        releases[wide - 1].as_f64() + homogeneous::exec_time(&params, 200.0, wide) * factor
    };
    let mut group = c.benchmark_group("place");
    let admitted = Task::new(1, 0.0, 200.0, lands_at(12, 1.0001));
    let plan = ctl.probe_plan(&admitted, now).expect("feasible");
    assert!(
        plan.n() >= 8,
        "the kept step plans a wide task: {}",
        plan.n()
    );
    group.bench_function("kept", |b| {
        b.iter(|| black_box(ctl.probe_plan(black_box(&admitted), now)))
    });
    // Too tight for the staggered shard now, fine with a longer deadline:
    // the search bisects between the two, a verdict-only step per probe.
    let refused = Task::new(2, 0.0, 200.0, lands_at(12, 0.9));
    let Decision::Rejected(cause) = ctl.probe(&refused, now) else {
        panic!("refused");
    };
    let bisect = |walks: &mut ProbeWalks| {
        let search = ExplainSearch::open(&ctl, walks, &refused, now, Some(cause));
        let mut search = search.expect("refused");
        while search.refine() {}
        search.probes()
    };
    let mut walks = ProbeWalks::default();
    group.throughput(Throughput::Elements(bisect(&mut walks)));
    group.bench_function("verdict_only", |b| b.iter(|| bisect(&mut walks)));
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_schedulability_test, bench_controller_submit, bench_place, bench_deep_book,
        bench_explain_fleet
}
criterion_main!(benches);
