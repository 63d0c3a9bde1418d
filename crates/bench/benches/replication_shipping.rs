//! The shipping tax: what replication costs the primary's hot path.
//!
//! Replication is only deployable if the primary barely notices it.
//! Shipping on a [`JournaledGateway`] claims the per-submission overhead of
//! journal shipping — frame extraction, outbox bookkeeping, heartbeat
//! scheduling — stays under 10% of the bare journaled admission cost,
//! because the expensive parts (socket serialization, ack waits) are
//! either polled at heartbeat cadence or pushed off the decision path
//! entirely. This bench measures that claim head-to-head in one process:
//!
//! * `replication_shipping/bare_journaled` — a [`JournaledGateway`]
//!   serving a submission stream one turn per submission (`decide`, then
//!   `drive`), journal appends included, no shipping.
//! * `replication_shipping/shipping_outbox` — the same turns with shipping
//!   on (`JournaledGateway::start_shipping`), draining the outbox by hand:
//!   its `drive` pumps once the turn committed, the way the edge reactor's
//!   turn does.
//!
//! After the criterion output the bench times both once more, medians of
//! nine runs in this process, and hands `overhead` (`shipping/bare − 1`)
//! to `rtdls_bench::guard`: over the 10 % ceiling, or more than 14 points
//! past the committed reading, the run exits non-zero. That shipping
//! never changes a decision and that the shipped stream rebuilds the WAL
//! byte for byte is pinned by `crates/world/tests/shipping_props.rs` and
//! `crates/edge/tests/replicated.rs`.

use criterion::{black_box, Criterion};

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_service::prelude::*;

const STREAM: u64 = 256;

/// A feasible saturated pipeline, the `incremental_admission` fixture
/// shape: every task arrives at t=0 and task `i`'s deadline is a snug 8%
/// above the earliest completion behind its `i` predecessors. Every
/// decision plans against the whole growing queue (real admission work),
/// every decision accepts (identical journal volume on both sides).
fn workload() -> Vec<Task> {
    let params = ClusterParams::paper_baseline();
    let sigma = 20.0;
    let e16 = rtdls_core::dlt::homogeneous::exec_time(&params, sigma, params.num_nodes);
    (0..STREAM)
        .map(|i| Task::new(i, 0.0, sigma, (i + 1) as f64 * e16 * 1.08))
        .collect()
}

fn journaled() -> JournaledGateway {
    let gw = ShardedGateway::new(
        ClusterParams::paper_baseline(),
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    JournaledGateway::new(
        gw,
        JournalConfig {
            snapshot_every: 0,
            compact_on_snapshot: false,
        },
    )
}

/// One full stream through a bare journaled gateway, a turn per submission.
fn run_bare(tasks: &[Task]) -> u64 {
    let mut gw = journaled();
    let mut accepted = 0u64;
    for t in tasks {
        if gw.decide(&SubmitRequest::new(*t), t.arrival).is_accepted() {
            accepted += 1;
        }
        gw.drive(t.arrival);
    }
    accepted
}

/// The same turns with shipping on, whose `drive` pumps the way
/// the edge reactor's turn does. The outbox is drained as a transport
/// would drain it and every shipped frame is acked — the steady state of a
/// follower that keeps up, so the measurement excludes retransmission
/// storms a dead follower would cause (the transport detaches in that case
/// anyway).
fn run_shipping(tasks: &[Task]) -> (u64, usize) {
    let mut gw = journaled();
    gw.start_shipping(ShipConfig::default());
    let mut accepted = 0u64;
    let mut shipped_msgs = 0usize;
    for t in tasks {
        if gw.decide(&SubmitRequest::new(*t), t.arrival).is_accepted() {
            accepted += 1;
        }
        gw.drive(t.arrival);
        shipped_msgs += gw.take_outbox().len();
        let shipped = gw.shipper().map_or(0, Shipper::shipped);
        gw.on_ack(shipped, t.arrival);
    }
    (accepted, shipped_msgs)
}

fn bench_shipping(c: &mut Criterion) {
    let tasks = workload();
    let mut group = c.benchmark_group("replication_shipping");
    group.bench_function("bare_journaled", |b| b.iter(|| black_box(run_bare(&tasks))));
    group.bench_function("shipping_outbox", |b| {
        b.iter(|| black_box(run_shipping(&tasks)))
    });
    group.finish();
}

/// Both gateways on the same stream in this process, and the gate on the
/// fraction shipping adds.
fn guard_overhead() {
    let tasks = workload();
    let per_submit_ns = |secs: f64| secs * 1e9 / STREAM as f64;
    let bare_ns = per_submit_ns(rtdls_bench::median(9, || {
        black_box(run_bare(&tasks));
    }));
    let shipping_ns = per_submit_ns(rtdls_bench::median(9, || {
        black_box(run_shipping(&tasks));
    }));
    println!("{STREAM} submissions: {bare_ns:.0} ns bare / {shipping_ns:.0} ns shipping each");
    rtdls_bench::guard(
        "replication_shipping",
        &[("overhead", shipping_ns / bare_ns - 1.0)],
    );
}

fn main() {
    let mut c = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));
    bench_shipping(&mut c);
    guard_overhead();
}
