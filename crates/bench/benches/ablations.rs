//! Ablation benches: each group fixes the paper's baseline
//! workload at load 0.8 and toggles one design knob, reporting both the
//! simulator cost and — via `eprintln` once per group — the reject-ratio
//! consequence, so `cargo bench` output doubles as the ablation table's
//! data source.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rtdls_core::prelude::*;
use rtdls_sim::prelude::*;
use rtdls_workload::prelude::*;

const LOAD: f64 = 0.8;
const HORIZON: f64 = 2e5;

fn workload(size_model: SizeModel, floor_mode: FloorMode) -> Vec<Task> {
    let mut spec = WorkloadSpec::paper_baseline(LOAD);
    spec.horizon = HORIZON;
    spec = spec.with_size_model(size_model).with_floor_mode(floor_mode);
    WorkloadGenerator::new(spec, 1).collect()
}

fn run(cfg: SimConfig, tasks: &[Task]) -> Metrics {
    run_simulation(cfg, tasks.iter().copied()).metrics
}

fn bench_abl_nselect(c: &mut Criterion) {
    let tasks = workload(SizeModel::Calibrated, FloorMode::Resample);
    let mut group = c.benchmark_group("abl-nselect");
    for node_count in [NodeCountPolicy::FixedPoint, NodeCountPolicy::OneShot] {
        let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT)
            .with_plan(PlanConfig {
                node_count,
                ..Default::default()
            });
        let m = run(cfg, &tasks);
        eprintln!(
            "abl-nselect {node_count:?}: reject_ratio={:.4}",
            m.reject_ratio()
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{node_count:?}")),
            &cfg,
            |b, &cfg| b.iter(|| black_box(run(cfg, &tasks).rejected)),
        );
    }
    group.finish();
}

fn bench_abl_replan(c: &mut Criterion) {
    let tasks = workload(SizeModel::Calibrated, FloorMode::Resample);
    let mut group = c.benchmark_group("abl-replan");
    for replan in [ReplanPolicy::OnRelease, ReplanPolicy::ArrivalsOnly] {
        let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT)
            .with_replan(replan);
        let m = run(cfg, &tasks);
        eprintln!(
            "abl-replan {replan:?}: reject_ratio={:.4}",
            m.reject_ratio()
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{replan:?}")),
            &cfg,
            |b, &cfg| b.iter(|| black_box(run(cfg, &tasks).rejected)),
        );
    }
    group.finish();
}

fn bench_abl_link(c: &mut Criterion) {
    let tasks = workload(SizeModel::Calibrated, FloorMode::Resample);
    let mut group = c.benchmark_group("abl-link");
    for link in [LinkModel::PerTask, LinkModel::SharedGlobal] {
        let cfg =
            SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT).with_link(link);
        let m = run(cfg, &tasks);
        eprintln!(
            "abl-link {link:?}: reject_ratio={:.4} deadline_misses={}",
            m.reject_ratio(),
            m.deadline_misses
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{link:?}")),
            &cfg,
            |b, &cfg| b.iter(|| black_box(run(cfg, &tasks).rejected)),
        );
    }
    group.finish();
}

fn bench_abl_estimate(c: &mut Criterion) {
    let tasks = workload(SizeModel::Calibrated, FloorMode::Resample);
    let mut group = c.benchmark_group("abl-estimate");
    for release_estimate in [
        ReleaseEstimate::Exact,
        ReleaseEstimate::TightPerNode,
        ReleaseEstimate::Uniform,
    ] {
        let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT)
            .with_plan(PlanConfig {
                release_estimate,
                ..Default::default()
            });
        let m = run(cfg, &tasks);
        eprintln!(
            "abl-estimate {release_estimate:?}: reject_ratio={:.4}",
            m.reject_ratio()
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{release_estimate:?}")),
            &cfg,
            |b, &cfg| b.iter(|| black_box(run(cfg, &tasks).rejected)),
        );
    }
    group.finish();
}

fn bench_abl_workload_model(c: &mut Criterion) {
    // Workload-side knobs: both change the task population, so each variant
    // generates its own stream.
    let mut group = c.benchmark_group("abl-workload");
    for (label, size_model, floor_mode) in [
        (
            "calibrated+resample",
            SizeModel::Calibrated,
            FloorMode::Resample,
        ),
        ("calibrated+clamp", SizeModel::Calibrated, FloorMode::Clamp),
        ("raw+resample", SizeModel::TruncatedRaw, FloorMode::Resample),
        ("raw+clamp", SizeModel::TruncatedRaw, FloorMode::Clamp),
    ] {
        let tasks = workload(size_model, floor_mode);
        let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT);
        let m = run(cfg, &tasks);
        eprintln!("abl-workload {label}: reject_ratio={:.4}", m.reject_ratio());
        group.bench_with_input(BenchmarkId::from_parameter(label), &tasks, |b, tasks| {
            b.iter(|| black_box(run(cfg, tasks).rejected))
        });
    }
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(900))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_abl_nselect, bench_abl_replan, bench_abl_link, bench_abl_estimate,
              bench_abl_workload_model
}
criterion_main!(benches);
