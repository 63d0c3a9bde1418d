//! The admission engine against its reference: what the reuse cache saves,
//! measured head-to-head in one run. This is the only place the two are
//! timed against each other (criterion ids and the printed timings keep the
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
//! After the criterion output the bench times both engines streaming a
//! burst into the same primed queue and hands their ratio (`speedup`, full
//! over incremental) to `rtdls_bench::guard`: under the 3x acceptance
//! floor, or more than 20 % under the committed ratio, the run exits
//! non-zero. That the two decide identically, with the diff path live, is
//! `crates/core/tests/differential_admission.rs`'s job.
//!
//! The baseline, paper-baseline cluster, saturated 256-deep pipeline queue,
//! first recorded numbers on the reference machine:
//!
//! | Benchmark | `ReferenceController` | `AdmissionController` | speedup |
//! |-----------|------------:|------------:|--------:|
//! | streamed submission, depth 256 | ≈ 114 µs | ≈ 8.1 µs | **≈ 14×** |
//! | `probe_plan` (BestFit probe), depth 256 | ≈ 90 µs | ≈ 6.5 µs | ≈ 14× |
//! | streamed submission, depth 64 | ≈ 39 µs | ≈ 10 µs¹ | ≈ 4× |
//!
//! ¹ clone-per-iteration measurement; the streamed measure amortizes it.
//!
//! The guard's floor is 3×; the committed ratio it holds the run to is
//! 14.5× (the rows of `TABLE` in `crates/bench/src/lib.rs`, the one table
//! behind every gated bench).

use criterion::{black_box, BenchmarkId, Criterion};

use rtdls_check::oracle::ReferenceController;
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

/// Per-submission cost of streaming a `burst` of back-of-queue arrivals
/// into a clone of `ctl` — the gateway's steady-state shape: one clone
/// amortized over the whole burst, so the number measures the engines'
/// admission work, not fixture setup.
fn stream_ns<A: Admission>(ctl: &A, depth: usize, burst: u64) -> f64 {
    let params = *ctl.params();
    let e16 = rtdls_core::dlt::homogeneous::exec_time(&params, PRIME_SIGMA, params.num_nodes);
    // Nine samples of two clone-and-stream passes each.
    const PASSES: u64 = 2;
    let secs = rtdls_bench::median(9, || {
        for _ in 0..PASSES {
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
        }
    });
    secs * 1e9 / (PASSES * burst) as f64
}

/// Both engines on the same scenario in this process, and the gate on
/// their ratio.
fn guard_speedup() {
    const DEPTH: usize = 256;
    const BURST: u64 = 32;
    let (full, _) = primed::<ReferenceController>(DEPTH);
    let full_ns = stream_ns(&full, DEPTH, BURST);
    let (inc, _) = primed::<AdmissionController>(DEPTH);
    let inc_ns = stream_ns(&inc, DEPTH, BURST);
    println!("depth {DEPTH}: {full_ns:.0} ns full / {inc_ns:.0} ns incremental per submission");
    rtdls_bench::guard("incremental_admission", &[("speedup", full_ns / inc_ns)]);
}

fn main() {
    let mut c = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));
    bench_submit(&mut c);
    bench_probe(&mut c);
    guard_speedup();
}
