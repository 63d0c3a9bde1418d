//! Microbenchmarks of the DLT mathematics — the per-arrival hot path of a
//! real cluster head node (a task's admission runs these once per waiting
//! task per arrival).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rtdls_bench::{baseline, staircase_releases};
use rtdls_core::dlt::heterogeneous::HeterogeneousModel;
use rtdls_core::dlt::homogeneous;
use rtdls_core::prelude::*;

fn bench_heterogeneous_model(c: &mut Criterion) {
    let params = baseline();
    let mut group = c.benchmark_group("heterogeneous_model_construction");
    for n in [2usize, 4, 8, 16, 64, 256] {
        let releases = staircase_releases(n, 50.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &releases, |b, releases| {
            b.iter(|| {
                HeterogeneousModel::new(&params, black_box(200.0), black_box(releases))
                    .expect("valid model")
            })
        });
    }
    group.finish();
}

fn bench_homogeneous_closed_forms(c: &mut Criterion) {
    let params = baseline();
    let mut group = c.benchmark_group("homogeneous_closed_forms");
    for n in [4usize, 16, 256] {
        group.bench_with_input(BenchmarkId::new("exec_time", n), &n, |b, &n| {
            b.iter(|| homogeneous::exec_time(&params, black_box(200.0), n))
        });
        group.bench_with_input(BenchmarkId::new("alphas", n), &n, |b, &n| {
            b.iter(|| homogeneous::alphas(&params, n))
        });
    }
    group.finish();
}

fn bench_nmin(c: &mut Criterion) {
    let params = baseline();
    let mut group = c.benchmark_group("nmin");
    group.bench_function("n_tilde_min", |b| {
        b.iter(|| {
            n_tilde_min(
                &params,
                black_box(200.0),
                black_box(SimTime::new(100.0)),
                black_box(SimTime::new(5_000.0)),
            )
        })
    });
    // A scan costs what it walks: on a 50-unit staircase, a deadline a hair
    // above `r_d + E(σ, d)` is met by the d earliest nodes and by no fewer,
    // so the scan stops at depth d; one a tenth short of what all 16 nodes
    // manage walks the whole cluster and runs out.
    let params = ClusterParams::new(16, 1.0, 100.0).expect("valid");
    let releases = staircase_releases(16, 50.0);
    let sigma = 200.0;
    let lands_at = |d: usize, factor: f64| {
        SimTime::new(releases[d - 1].as_f64() + homogeneous::exec_time(&params, sigma, d) * factor)
    };
    for depth in [4usize, 8, 16] {
        let deadline = lands_at(depth, 1.0001);
        let found = min_feasible_nodes(&params, sigma, &releases, deadline).expect("feasible");
        assert_eq!(found.n, depth, "the scan must stop at depth {depth}");
        group.bench_with_input(
            BenchmarkId::new("fixed_point_scan/stops_at", depth),
            &releases,
            |b, releases| {
                b.iter(|| min_feasible_nodes(&params, black_box(sigma), releases, deadline))
            },
        );
    }
    let deadline = lands_at(16, 0.9);
    assert_eq!(
        min_feasible_nodes(&params, sigma, &releases, deadline),
        Err(Infeasible::NotEnoughNodes)
    );
    group.bench_with_input(
        BenchmarkId::new("fixed_point_scan/runs_out_of", 16),
        &releases,
        |b, releases| b.iter(|| min_feasible_nodes(&params, black_box(sigma), releases, deadline)),
    );
    group.finish();
}

fn bench_plan_strategies(c: &mut Criterion) {
    let params = baseline();
    let releases = staircase_releases(16, 50.0);
    let avail = NodeAvailability::new(&releases, SimTime::ZERO);
    let cfg = PlanConfig::default();
    let task = Task::new(1, 0.0, 200.0, 30_000.0).with_user_nodes(Some(8));
    let mut group = c.benchmark_group("plan_task");
    for kind in [
        StrategyKind::DltIit,
        StrategyKind::OprMn,
        StrategyKind::OprAn,
        StrategyKind::UserSplit,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    plan_task(kind, black_box(&task), &avail, &params, &cfg).expect("feasible")
                })
            },
        );
    }
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(40)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_heterogeneous_model, bench_homogeneous_closed_forms, bench_nmin,
              bench_plan_strategies
}
criterion_main!(benches);
