//! The admission engine against its reference: what the reuse cache saves,
//! measured head-to-head in one run. This is the only place the two are
//! timed against each other (criterion ids and baseline fields keep the
//! names `full` = [`ReferenceController`], `incremental` =
//! [`AdmissionController`]).
//!
//! Scenario: a steady gateway with a deep waiting queue (every node
//! committed into the future, EDF order, newcomers near the back) — the
//! regime where the literal full replan pays `O(queue)` planning calls per
//! submission and the production engine pays ~1.
//!
//! Groups:
//!
//! * `admission_submit` — one streaming submission into a primed queue
//!   (engine cloned per iteration, same for both, so the comparison is
//!   apples-to-apples), at queue depths 64 and 256.
//! * `admission_probe` — the non-mutating `probe_plan` (what BestFit
//!   routing does per shard per decision), no clone in the loop.
//!
//! Besides the criterion output, the bench writes a machine-readable
//! baseline to `target/incremental_admission_baseline.json` — full and
//! incremental numbers from the *same* run plus their ratio — which
//! `check_incremental_baseline` (the CI guard) compares against the
//! committed `crates/bench/baselines/incremental_admission.json`.
//!
//! `-- --test` runs a seconds-fast smoke pass (the CI hook): both engines
//! decide a primed-queue submission identically and the diff path shows a
//! reuse rate > 0.9, without the measurement loops.

use std::time::Instant;

use criterion::{black_box, BenchmarkId, Criterion};

use rtdls_core::admission::reference::ReferenceController;
use rtdls_core::prelude::*;

const PRIME_SIGMA: f64 = 200.0;

/// A controller primed with `depth` feasible waiting tasks forming a
/// saturated pipeline: task `i`'s deadline is a snug 8% above the earliest
/// completion achievable behind its `i` predecessors, so every plan needs
/// a wide allocation (the paper's `ñ_min` regime, where a planning call
/// actually costs something) and the queue stays deep. The probe task
/// rides at the back of the EDF order, one pipeline slot later.
fn primed<A: Admission>(depth: usize) -> (A, Task) {
    let params = ClusterParams::paper_baseline();
    let e16 = rtdls_core::dlt::homogeneous::exec_time(&params, PRIME_SIGMA, params.num_nodes);
    let mut ctl = A::new(params, AlgorithmKind::EDF_DLT, PlanConfig::default());
    for i in 0..depth as u64 {
        let t = Task::new(i, 0.0, PRIME_SIGMA, (i + 1) as f64 * e16 * 1.08);
        assert!(
            ctl.submit(t, SimTime::ZERO).is_accepted(),
            "priming task {i} must be feasible"
        );
    }
    let probe = Task::new(
        1_000_000,
        0.0,
        PRIME_SIGMA,
        (depth as f64 + 2.0) * e16 * 1.08,
    );
    (ctl, probe)
}

fn bench_submit(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_submit");
    for depth in [64usize, 256] {
        let (full, probe) = primed::<ReferenceController>(depth);
        group.bench_with_input(BenchmarkId::new("full", depth), &depth, |b, _| {
            b.iter(|| {
                let mut ctl = full.clone();
                black_box(ctl.submit(probe, SimTime::ZERO))
            })
        });
        let (inc, probe) = primed::<AdmissionController>(depth);
        group.bench_with_input(BenchmarkId::new("incremental", depth), &depth, |b, _| {
            b.iter(|| {
                let mut ctl = inc.clone();
                black_box(ctl.submit(probe, SimTime::ZERO))
            })
        });
    }
    group.finish();
}

fn bench_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_probe");
    for depth in [64usize, 256] {
        let (full, probe) = primed::<ReferenceController>(depth);
        group.bench_with_input(BenchmarkId::new("full", depth), &depth, |b, _| {
            b.iter(|| black_box(full.probe_plan(&probe, SimTime::ZERO)))
        });
        let (inc, probe) = primed::<AdmissionController>(depth);
        group.bench_with_input(BenchmarkId::new("incremental", depth), &depth, |b, _| {
            b.iter(|| black_box(inc.probe_plan(&probe, SimTime::ZERO)))
        });
    }
    group.finish();
}

/// Median seconds over 9 timed runs of `run` (each run re-executes `iters`
/// inner calls and reports the per-call cost).
fn median_ns(iters: u32, mut run: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                run();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Baseline {
    queue_depth: usize,
    full_submit_ns: f64,
    incremental_submit_ns: f64,
    speedup: f64,
}

/// Per-submission cost of streaming a `burst` of back-of-queue arrivals
/// into a clone of `ctl` — the gateway's steady-state shape: one clone
/// amortized over the whole burst, so the number measures the engines'
/// admission work, not fixture setup.
fn stream_ns<A: Admission>(ctl: &A, depth: usize, burst: u64) -> f64 {
    let params = *ctl.params();
    let e16 = rtdls_core::dlt::homogeneous::exec_time(&params, PRIME_SIGMA, params.num_nodes);
    median_ns(2, || {
        let mut c = ctl.clone();
        for i in 0..burst {
            let t = Task::new(
                2_000_000 + i,
                0.0,
                PRIME_SIGMA,
                (depth as f64 + 2.0 + i as f64) * e16 * 1.08,
            );
            let accepted = c.submit(t, SimTime::ZERO).is_accepted();
            black_box(accepted);
        }
    }) / burst as f64
}

/// Emits the JSON baseline the CI regression guard checks.
fn emit_baseline() {
    const DEPTH: usize = 256;
    const BURST: u64 = 32;
    let (full, _) = primed::<ReferenceController>(DEPTH);
    let full_ns = stream_ns(&full, DEPTH, BURST);
    let (inc, _) = primed::<AdmissionController>(DEPTH);
    let inc_ns = stream_ns(&inc, DEPTH, BURST);
    let baseline = Baseline {
        queue_depth: DEPTH,
        full_submit_ns: full_ns,
        incremental_submit_ns: inc_ns,
        speedup: full_ns / inc_ns,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("serializable");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    let path = target.join("incremental_admission_baseline.json");
    let _ = std::fs::create_dir_all(&target);
    std::fs::write(&path, &json).expect("write baseline");
    println!("baseline written to {}:\n{json}", path.display());
}

/// The `-- --test` CI smoke: conformance + diff-path liveness, no timing.
fn smoke() {
    let (mut full, probe) = primed::<ReferenceController>(64);
    let (mut inc, _) = primed::<AdmissionController>(64);
    assert_eq!(full.state(), inc.state(), "primed engines agree");
    let a = full.submit(probe, SimTime::ZERO);
    let b = inc.submit(probe, SimTime::ZERO);
    assert_eq!(a, b, "decisions agree");
    assert!(a.is_accepted());
    assert_eq!(full.state(), inc.state(), "post-submit state agrees");
    let stats = inc.profile();
    assert!(
        stats.reuse_rate() > 0.9,
        "diff path must be live in the steady regime: {stats:?}"
    );
    println!(
        "incremental_admission smoke ok: engines agree at depth 64, \
         reuse rate {:.3}",
        stats.reuse_rate()
    );
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        smoke();
        return;
    }
    let mut c = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));
    bench_submit(&mut c);
    bench_probe(&mut c);
    emit_baseline();
}
