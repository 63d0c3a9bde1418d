//! The shipping tax: what replication costs the primary's hot path.
//!
//! Replication is only deployable if the primary barely notices it. The
//! [`ShippingGateway`] design claims the per-submission overhead of
//! journal shipping — frame extraction, outbox bookkeeping, heartbeat
//! scheduling — stays under 10% of the bare journaled admission cost,
//! because the expensive parts (socket serialization, ack waits) are
//! either polled at heartbeat cadence or pushed off the decision path
//! entirely. This bench measures that claim head-to-head in one process:
//!
//! * `replication_shipping/bare_journaled` — a [`JournaledGateway`]
//!   deciding a submission stream, journal appends included, no shipping.
//! * `replication_shipping/shipping_outbox` — the same stream through a
//!   [`ShippingGateway`] in outbox mode, pumping after every decision the
//!   way the edge reactor does.
//!
//! Besides the criterion output, the bench writes a machine-readable
//! baseline to `target/replication_shipping_baseline.json` — both costs
//! from the *same* run plus the overhead fraction — which
//! `check_replication_baseline` (the CI guard) compares against the
//! committed `crates/bench/baselines/replication_shipping.json` and the
//! 10% acceptance ceiling.
//!
//! `-- --test` runs a seconds-fast smoke pass: the shipped stream lands
//! byte-identically in a follower and decisions match the bare gateway,
//! without the measurement loops.

use std::time::Instant;

use criterion::{black_box, Criterion};

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_replica::prelude::*;
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

fn journaled() -> JournaledGateway<ShardedGateway> {
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

/// One full stream through a bare journaled gateway.
fn run_bare(tasks: &[Task]) -> u64 {
    let mut gw = journaled();
    let mut accepted = 0u64;
    for t in tasks {
        if gw
            .submit_request(&SubmitRequest::new(*t), t.arrival)
            .is_accepted()
        {
            accepted += 1;
        }
    }
    accepted
}

/// The same stream through a shipping gateway, pumped per decision the way
/// the edge reactor pumps per turn. The outbox is drained as a transport
/// would drain it and every shipped frame is acked — the steady state of a
/// follower that keeps up, so the measurement excludes retransmission
/// storms a dead follower would cause (the transport detaches in that case
/// anyway).
fn run_shipping(tasks: &[Task]) -> (u64, usize) {
    let mut gw = ShippingGateway::new(journaled(), ShipConfig::default());
    let mut accepted = 0u64;
    let mut shipped_msgs = 0usize;
    for t in tasks {
        // `decide` pumps after the decision, as the edge reactor's turn does.
        if gw.decide(&SubmitRequest::new(*t), t.arrival).is_accepted() {
            accepted += 1;
        }
        shipped_msgs += gw.take_outbox().len();
        gw.on_ack(gw.shipper().shipped(), t.arrival);
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

/// Median per-submission nanoseconds over 9 timed runs of `run`.
fn median_ns(mut run: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64() * 1e9 / STREAM as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Baseline {
    stream_len: u64,
    bare_submit_ns: f64,
    shipping_submit_ns: f64,
    /// `shipping/bare - 1`: the fraction of the bare cost shipping adds.
    overhead: f64,
}

/// Emits the JSON baseline the CI overhead guard checks.
fn emit_baseline() {
    let tasks = workload();
    let bare_ns = median_ns(|| {
        black_box(run_bare(&tasks));
    });
    let shipping_ns = median_ns(|| {
        black_box(run_shipping(&tasks));
    });
    let baseline = Baseline {
        stream_len: STREAM,
        bare_submit_ns: bare_ns,
        shipping_submit_ns: shipping_ns,
        overhead: shipping_ns / bare_ns - 1.0,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("serializable");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    let path = target.join("replication_shipping_baseline.json");
    let _ = std::fs::create_dir_all(&target);
    std::fs::write(&path, &json).expect("write baseline");
    println!("baseline written to {}:\n{json}", path.display());
}

/// The `-- --test` CI smoke: correctness of the measured path, no timing.
fn smoke() {
    let tasks = workload();

    // Decisions are unaffected by shipping.
    let bare_accepted = run_bare(&tasks);
    let (ship_accepted, shipped_msgs) = run_shipping(&tasks);
    assert_eq!(
        bare_accepted, ship_accepted,
        "shipping never changes a decision"
    );
    assert_eq!(
        ship_accepted, STREAM,
        "the pipeline fixture is fully feasible"
    );
    assert!(
        shipped_msgs as u64 > STREAM,
        "every decision ships at least its frame: {shipped_msgs}"
    );

    // And the shipped stream reconstructs the WAL byte-for-byte.
    let mut gw = ShippingGateway::new(journaled(), ShipConfig::default());
    let mut follower: Follower<ShardedGateway> = Follower::new(FollowerConfig::default());
    for t in &tasks[..32] {
        gw.decide(&SubmitRequest::new(*t), t.arrival);
        for msg in gw.take_outbox() {
            if let Some(ShipMsg::Ack { seq }) = follower.on_msg(t.arrival, msg).unwrap() {
                gw.on_ack(seq, t.arrival);
            }
        }
    }
    assert_eq!(
        follower.bytes(),
        gw.inner().journal().bytes(),
        "mirror equals WAL"
    );
    assert_eq!(gw.shipper().lag(gw.inner().journal()), 0, "fully acked");
    println!(
        "replication_shipping smoke ok: {ship_accepted}/{STREAM} accepted identically, \
         {shipped_msgs} messages shipped, 32-task mirror byte-identical"
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
    bench_shipping(&mut c);
    emit_baseline();
}
