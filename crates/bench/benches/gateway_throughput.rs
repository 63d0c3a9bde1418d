//! ShardedGateway admission throughput: the serving-layer perf baseline.
//!
//! Four questions, each a group:
//!
//! * `gateway_submit_stream` — decisions/second for a stream of single
//!   submissions, 1 shard vs. K shards (the sharding claim: admission
//!   cost sub-linear in cluster size, so more shards ⇒ more decisions/s at
//!   the same total node count).
//! * `gateway_submit_batch` — the same burst decided through `submit_batch`
//!   vs. one `submit_request` per task (the amortization claim).
//! * `gateway_reservations` — the request path under rejection-heavy
//!   load: the cost of carrying a `max_delay` tolerance (every rejection
//!   runs the earliest-feasible-start search) and of the full
//!   book→dispatch→activate reservation cycle.
//! * `gateway_tenant_mix` — the request path under a multi-tenant
//!   population with quotas, vs. the anonymous single-tenant envelope.
//!
//! Besides the criterion output, the bench writes a machine-readable
//! baseline to `target/gateway_throughput_baseline.json` so the serving
//! layer's perf trajectory is comparable across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use rtdls_core::prelude::*;
use rtdls_service::prelude::*;
use rtdls_workload::prelude::*;

/// An open-loop stream on a 64-node cluster. Deadlines are loose and the
/// load is high so the waiting queues grow deep — the regime where the
/// schedulability test's `O(queue × nodes)` cost dominates and shard-count
/// effects show.
fn stream(n_tasks: usize) -> (ClusterParams, Vec<Task>) {
    let params = ClusterParams::new(64, 1.0, 100.0).unwrap();
    let mut spec = WorkloadSpec::paper_baseline(2.0);
    spec.params = params;
    spec.dc_ratio = 50.0;
    spec.horizon = 1e9;
    let tasks: Vec<Task> = WorkloadGenerator::new(spec, 7).take(n_tasks).collect();
    (params, tasks)
}

fn gateway(params: ClusterParams, shards: usize) -> ShardedGateway {
    ShardedGateway::new(
        params,
        shards,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .expect("valid layout")
}

fn bench_submit_stream(c: &mut Criterion) {
    let (params, tasks) = stream(256);
    let mut group = c.benchmark_group("gateway_submit_stream");
    group.throughput(Throughput::Elements(tasks.len() as u64));
    for shards in [1usize, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("shards={shards}")),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut g = gateway(params, shards);
                    let mut accepted = 0u64;
                    for t in &tasks {
                        if g.submit_request(&SubmitRequest::new(*t), t.arrival)
                            .is_accepted()
                        {
                            accepted += 1;
                        }
                    }
                    black_box(accepted)
                })
            },
        );
    }
    group.finish();
}

fn bench_submit_batch(c: &mut Criterion) {
    let (params, tasks) = stream(128);
    // The whole stream arrives as one burst at t=0.
    let burst: Vec<Task> = tasks
        .iter()
        .map(|t| Task::new(t.id.0, 0.0, t.data_size, t.rel_deadline).with_user_nodes(t.user_nodes))
        .collect();
    let mut group = c.benchmark_group("gateway_submit_batch");
    group.throughput(Throughput::Elements(burst.len() as u64));
    for shards in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("one_submit_per_task", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut g = gateway(params, shards);
                    let mut accepted = 0u64;
                    for t in &burst {
                        if g.submit_request(&SubmitRequest::new(*t), SimTime::ZERO)
                            .is_accepted()
                        {
                            accepted += 1;
                        }
                    }
                    black_box(accepted)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("submit_batch", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut g = gateway(params, shards);
                    let ds = g.submit_batch(&burst, SimTime::ZERO);
                    black_box(ds.iter().filter(|d| d.is_accepted()).count())
                })
            },
        );
    }
    group.finish();
}

/// A rejection-heavy stream (tight deadlines at overload): the regime
/// where the reservation search actually runs on most submissions.
fn tight_stream(n_tasks: usize) -> (ClusterParams, Vec<Task>) {
    let params = ClusterParams::new(64, 1.0, 100.0).unwrap();
    let mut spec = WorkloadSpec::paper_baseline(3.0);
    spec.params = params;
    spec.dc_ratio = 2.0;
    spec.horizon = 1e9;
    let tasks: Vec<Task> = WorkloadGenerator::new(spec, 11).take(n_tasks).collect();
    (params, tasks)
}

/// One full reservation cycle on the EDF priority-inversion scenario:
/// book (engine search), dispatch the blocker, activate. Returns the
/// number of activated reservations (always 1; returned against DCE).
fn reservation_cycle(params: ClusterParams, shapes: &(f64, f64, f64)) -> u64 {
    let (avail, d_w, d_c) = *shapes;
    let mut g = ShardedGateway::new(
        params,
        1,
        AlgorithmKind::EDF_OPR_MN,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    for node in 0..params.num_nodes {
        rtdls_sim::frontend::Frontend::set_node_release(&mut g, node, SimTime::new(avail));
    }
    assert!(g
        .submit_request(
            &SubmitRequest::new(Task::new(1, 0.0, 800.0, d_w)),
            SimTime::ZERO
        )
        .is_accepted());
    let req = SubmitRequest::new(Task::new(2, 0.0, 10.0, d_c)).with_max_delay(Some(avail * 2.0));
    let verdict = g.submit_request(&req, SimTime::ZERO);
    assert!(verdict.is_reserved(), "scenario must reserve: {verdict:?}");
    let start = SimTime::new(avail);
    let _ = rtdls_sim::frontend::Frontend::take_due(&mut g, start);
    g.activate_reservations(start);
    g.metrics().reservations_activated
}

/// The reservation-cycle task shapes for the paper-baseline cluster.
fn starvation_shapes(params: &ClusterParams) -> (f64, f64, f64) {
    let e16 = rtdls_core::dlt::homogeneous::exec_time(params, 800.0, params.num_nodes);
    let e15 = rtdls_core::dlt::homogeneous::exec_time(params, 800.0, params.num_nodes - 1);
    let slack_w = (e15 - e16) * 0.75;
    (1000.0, 1000.0 + e16 + slack_w, 1000.0 + e16 + slack_w * 0.8)
}

fn bench_reservations(c: &mut Criterion) {
    let (params, tasks) = tight_stream(192);
    let mut group = c.benchmark_group("gateway_reservations");
    group.throughput(Throughput::Elements(tasks.len() as u64));
    for (name, max_delay_factor) in [("no_tolerance", None), ("with_tolerance", Some(5.0))] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &max_delay_factor,
            |b, &factor| {
                b.iter(|| {
                    let mut g = gateway(params, 4);
                    let mut accepted = 0u64;
                    for t in &tasks {
                        let req = SubmitRequest::new(*t)
                            .with_max_delay(factor.map(|f: f64| f * t.rel_deadline));
                        if g.submit_request(&req, t.arrival).is_accepted() {
                            accepted += 1;
                        }
                    }
                    black_box((accepted, g.metrics().reserved))
                })
            },
        );
    }
    group.finish();
    let p = ClusterParams::paper_baseline();
    let shapes = starvation_shapes(&p);
    let mut group = c.benchmark_group("gateway_reservation_cycle");
    group.throughput(Throughput::Elements(1));
    group.bench_function("book_dispatch_activate", |b| {
        b.iter(|| black_box(reservation_cycle(p, &shapes)))
    });
    group.finish();
}

fn bench_tenant_mix(c: &mut Criterion) {
    let (params, tasks) = stream(256);
    let mix = TenantMix {
        tenants: 8,
        premium_tenants: 1,
        best_effort_tenants: 3,
        max_delay_factor: None,
    };
    let quota = QuotaPolicy {
        max_inflight: Some(48),
        max_reservations: Some(8),
        ..Default::default()
    };
    let mut group = c.benchmark_group("gateway_tenant_mix");
    group.throughput(Throughput::Elements(tasks.len() as u64));
    group.bench_function("anonymous", |b| {
        b.iter(|| {
            let mut g = gateway(params, 8);
            let mut accepted = 0u64;
            for t in &tasks {
                if g.submit_request(&SubmitRequest::new(*t), t.arrival)
                    .is_accepted()
                {
                    accepted += 1;
                }
            }
            black_box(accepted)
        })
    });
    group.bench_function("eight_tenants_with_quotas", |b| {
        b.iter(|| {
            let mut g = gateway(params, 8).with_quota(quota);
            let mut accepted = 0u64;
            for t in &tasks {
                if g.submit_request(&mix.assign(*t), t.arrival).is_accepted() {
                    accepted += 1;
                }
            }
            black_box((accepted, g.metrics().tenants.len()))
        })
    });
    group.finish();
}

/// Median wall-clock seconds over five runs of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

#[derive(serde::Serialize)]
struct Baseline {
    stream_decisions_per_sec_8_shards: f64,
    request_decisions_per_sec_with_tolerance: f64,
    tenant_mix_decisions_per_sec_8_tenants: f64,
    reservation_cycles_per_sec: f64,
}

/// Emits the JSON baseline for the serving-layer perf trajectory. Skipped
/// under `-- --test`: the smoke run must stay a smoke (the real bench run
/// follows in CI and writes the file).
fn emit_baseline(_c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        println!("baseline emission skipped under --test");
        return;
    }
    let (params, tasks) = stream(256);
    let plain = median_secs(|| {
        let mut g = gateway(params, 8);
        for t in &tasks {
            black_box(
                g.submit_request(&SubmitRequest::new(*t), t.arrival)
                    .is_accepted(),
            );
        }
    });
    let (tparams, ttasks) = tight_stream(192);
    let tolerant = median_secs(|| {
        let mut g = gateway(tparams, 4);
        for t in &ttasks {
            let req = SubmitRequest::new(*t).with_max_delay(Some(5.0 * t.rel_deadline));
            black_box(g.submit_request(&req, t.arrival).is_accepted());
        }
    });
    let mix = TenantMix {
        tenants: 8,
        premium_tenants: 1,
        best_effort_tenants: 3,
        max_delay_factor: None,
    };
    let mixed = median_secs(|| {
        let mut g = gateway(params, 8);
        for t in &tasks {
            black_box(g.submit_request(&mix.assign(*t), t.arrival).is_accepted());
        }
    });
    let p = ClusterParams::paper_baseline();
    let shapes = starvation_shapes(&p);
    let cycle = median_secs(|| {
        black_box(reservation_cycle(p, &shapes));
    });
    let baseline = Baseline {
        stream_decisions_per_sec_8_shards: tasks.len() as f64 / plain,
        request_decisions_per_sec_with_tolerance: ttasks.len() as f64 / tolerant,
        tenant_mix_decisions_per_sec_8_tenants: tasks.len() as f64 / mixed,
        reservation_cycles_per_sec: 1.0 / cycle,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("serializable");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    let path = target.join("gateway_throughput_baseline.json");
    let _ = std::fs::create_dir_all(&target);
    std::fs::write(&path, &json).expect("write baseline");
    println!("baseline written to {}:\n{json}", path.display());
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_submit_stream, bench_submit_batch, bench_reservations, bench_tenant_mix,
        emit_baseline
}
criterion_main!(benches);
