//! Multi-reactor scaling: what sharding the edge buys.
//!
//! The same offered load (four tenant-pinned clients) against an
//! [`EdgeCluster`] of 1, 2 and 4 reactors — the one edge regime the
//! repository benchmark does not run (its `edge_*` workloads drive a single
//! pinned reactor; codec, loopback, durable and burst serving are measured
//! there, in steady state).
//!
//! After the criterion output the bench takes the median of five serves per
//! reactor count and hands `multi_speedup` (4 reactors over 1, both in this
//! process) and `multi4_rps` to `rtdls_bench::guard`: sharding that loses
//! to the single reactor, or a 4-reactor cluster under the committed
//! single-reactor figure, exits non-zero. Every iteration pays cluster
//! construction, thread spawn and connect, so the absolute numbers bound
//! nothing; the ratio is what is gated. That books reconcile across
//! reactors is `crates/edge/tests/multi_reactor.rs`'s job.

use criterion::{Criterion, Throughput};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rtdls_core::prelude::*;
use rtdls_edge::prelude::*;
use rtdls_service::prelude::*;
use rtdls_workload::prelude::*;

const CLIENTS: usize = 4;
const PER_CLIENT: usize = 128;

fn gateway() -> ShardedGateway {
    ShardedGateway::new(
        ClusterParams::new(64, 1.0, 100.0).unwrap(),
        8,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap()
}

fn requests_seeded(n: usize, seed: u64) -> Vec<SubmitRequest> {
    let mut spec = WorkloadSpec::paper_baseline(1.5);
    spec.params = ClusterParams::new(64, 1.0, 100.0).unwrap();
    spec.dc_ratio = 20.0;
    spec.horizon = 1e9;
    let mix = TenantMix {
        tenants: 8,
        premium_tenants: 1,
        best_effort_tenants: 3,
        max_delay_factor: None,
    };
    WorkloadGenerator::new(spec, seed)
        .take(n)
        .with_tenants(mix)
        .collect()
}

/// Four clients' batches for a cluster of `reactors`: client `j`'s whole
/// stream carries a tenant homed at reactor `j % reactors`, so the same
/// offered load spreads across however many reactors exist (and collapses
/// onto one for the single-reactor reference point).
fn cluster_batches(reactors: usize) -> Vec<Vec<SubmitRequest>> {
    (0..CLIENTS)
        .map(|j| {
            let home = j % reactors;
            let tenant = (0u32..1024)
                .map(TenantId)
                .find(|t| reactor_for_tenant(*t, reactors) == home)
                .expect("some tenant hashes to every reactor");
            let mut batch = requests_seeded(PER_CLIENT, 7 + j as u64);
            for r in &mut batch {
                r.tenant = tenant;
            }
            batch
        })
        .collect()
}

/// Serves every batch concurrently (one replay client each) against a
/// fresh `reactors`-wide cluster and returns the total verdict count.
fn serve_cluster_once(reactors: usize, batches: &[Vec<SubmitRequest>]) -> u64 {
    let gateways: Vec<_> = (0..reactors).map(|_| gateway()).collect();
    let cluster = EdgeCluster::bind("127.0.0.1:0", gateways, EdgeConfig::default()).expect("bind");
    let addr = cluster.local_addr();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let server = s.spawn(|| cluster.run(EdgeClock::real_time(), &stop));
        let clients: Vec<_> = batches
            .iter()
            .map(|batch| {
                let batch = batch.clone();
                s.spawn(move || {
                    ReplayClient::connect(addr)
                        .and_then(|client| client.bind(batch[0].tenant))
                        .expect("connect")
                        .run(batch, 32, Duration::from_millis(0), Duration::from_secs(30))
                        .expect("replay")
                })
            })
            .collect();
        let verdicts = clients
            .into_iter()
            .map(|h| {
                let report = h.join().expect("client thread");
                assert!(!report.timed_out, "cluster run must complete");
                report.verdicts()
            })
            .sum();
        stop.store(true, Ordering::Relaxed);
        let _ = server.join().expect("cluster threads");
        verdicts
    })
}

fn bench_multi_reactor(c: &mut Criterion) {
    let mut group = c.benchmark_group("edge_multi_reactor");
    group.throughput(Throughput::Elements((CLIENTS * PER_CLIENT) as u64));
    for reactors in [1usize, 2, 4] {
        let batches = cluster_batches(reactors);
        group.bench_function(format!("reactors_{reactors}"), |b| {
            b.iter(|| black_box(serve_cluster_once(reactors, &batches)))
        });
    }
    group.finish();
}

/// Requests per second at 1, 2 and 4 reactors in this process, and the gate
/// on what four buy over one.
fn guard_scaling() {
    let rps = |reactors: usize| {
        let batches = cluster_batches(reactors);
        let secs = rtdls_bench::median(5, || {
            black_box(serve_cluster_once(reactors, &batches));
        });
        (CLIENTS * PER_CLIENT) as f64 / secs
    };
    let (multi1, multi2, multi4) = (rps(1), rps(2), rps(4));
    println!("{multi1:.0} / {multi2:.0} / {multi4:.0} rps at 1 / 2 / 4 reactors");
    rtdls_bench::guard(
        "edge_throughput",
        &[("multi_speedup", multi4 / multi1), ("multi4_rps", multi4)],
    );
}

fn main() {
    let mut c = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    bench_multi_reactor(&mut c);
    guard_scaling();
}
