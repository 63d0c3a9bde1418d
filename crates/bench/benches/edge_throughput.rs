//! Edge serving throughput: the network front-end's perf baseline.
//!
//! Three questions, each a group:
//!
//! * `edge_codec` — frames encoded + decoded per second for a realistic
//!   submit message (the pure protocol cost, no sockets);
//! * `edge_loopback` — requests served per second over real loopback TCP,
//!   replay client → reactor → sharded gateway and back, bare vs. under a
//!   write-ahead journal (what durability costs at the wire);
//! * `edge_multi_reactor` — the same offered load (four tenant-pinned
//!   clients) against an [`EdgeCluster`] of 1, 2, and 4 reactors: what
//!   sharding the edge buys. The 4-reactor/1-reactor ratio is the
//!   acceptance gate (`check_edge_baseline`): sharding must never lose to
//!   the single reactor;
//! * plus a `-- --test` smoke (the CI hook) that serves a short stream —
//!   single-reactor and 2-reactor cluster — and asserts the client/server
//!   books reconcile.
//!
//! Besides the criterion output, the bench writes a machine-readable
//! baseline to `target/edge_throughput_baseline.json` so the edge's perf
//! trajectory is comparable across PRs.

use criterion::{Criterion, Throughput};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtdls_core::prelude::*;
use rtdls_edge::prelude::*;
use rtdls_edge::proto::{decode_client, encode_client};
use rtdls_journal::prelude::*;
use rtdls_service::prelude::*;
use rtdls_workload::prelude::*;

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

fn requests(n: usize) -> Vec<SubmitRequest> {
    requests_seeded(n, 7)
}

/// Four clients' batches for a cluster of `reactors`: client `j`'s whole
/// stream carries a tenant homed at reactor `j % reactors`, so the same
/// offered load spreads across however many reactors exist (and collapses
/// onto one for the single-reactor reference point).
fn cluster_batches(reactors: usize, clients: usize, n: usize) -> Vec<Vec<SubmitRequest>> {
    (0..clients)
        .map(|j| {
            let home = j % reactors;
            let tenant = (0u32..1024)
                .map(TenantId)
                .find(|t| reactor_for_tenant(*t, reactors) == home)
                .expect("some tenant hashes to every reactor");
            let mut batch = requests_seeded(n, 7 + j as u64);
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

/// Serves one request batch through a fresh edge server (own thread, own
/// gateway) and returns the verdict count — the unit both the bench and
/// the smoke repeat. With `telemetry` Some, the server records the full
/// tracing path (ingress minting, spans, phase timing).
fn serve_once_with<G: EdgeGateway + Send + 'static>(
    gateway: G,
    batch: &[SubmitRequest],
    telemetry: Option<&rtdls_telemetry::Telemetry>,
) -> u64 {
    let mut server = EdgeServer::bind("127.0.0.1:0", gateway, EdgeConfig::default()).expect("bind");
    if let Some(t) = telemetry {
        server.set_telemetry(t);
    }
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(EdgeClock::real_time(), &stop2));
    let report = ReplayClient::connect(addr)
        .expect("connect")
        .run(
            batch.to_vec(),
            32,
            Duration::from_millis(0),
            Duration::from_secs(30),
        )
        .expect("replay");
    stop.store(true, Ordering::Relaxed);
    let _ = handle.join().expect("server thread");
    assert!(!report.timed_out, "loopback run must complete");
    report.verdicts()
}

fn serve_once<G: EdgeGateway + Send + 'static>(gateway: G, batch: &[SubmitRequest]) -> u64 {
    serve_once_with(gateway, batch, None)
}

/// The same serve with the *full* observability plane on: decision tracing,
/// metrics-history sampling (aggressive 50ms cadence — far hotter than the
/// 1s an operator would run), and the hot-path phase profiler.
fn serve_once_observed(batch: &[SubmitRequest]) -> u64 {
    let telemetry = rtdls_telemetry::Telemetry::with_defaults();
    let mut server =
        EdgeServer::bind("127.0.0.1:0", gateway(), EdgeConfig::default()).expect("bind");
    server.set_telemetry(&telemetry);
    server.enable_profiler();
    server.enable_history(rtdls_telemetry::HistoryConfig {
        capacity: 240,
        cadence: 0.05,
    });
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(EdgeClock::real_time(), &stop2));
    let report = ReplayClient::connect(addr)
        .expect("connect")
        .run(
            batch.to_vec(),
            32,
            Duration::from_millis(0),
            Duration::from_secs(30),
        )
        .expect("replay");
    stop.store(true, Ordering::Relaxed);
    let _ = handle.join().expect("server thread");
    assert!(!report.timed_out, "observed run must complete");
    report.verdicts()
}

fn bench_codec(c: &mut Criterion) {
    let req = requests(1)[0];
    let msg = ClientMsg::Submit {
        seq: 1,
        request: req,
    };
    let mut group = c.benchmark_group("edge_codec");
    group.throughput(Throughput::Elements(1));
    group.bench_function("submit_roundtrip", |b| {
        b.iter(|| {
            let frame = encode_client(black_box(&msg));
            let mut dec = FrameDecoder::new(1 << 20);
            dec.push(&frame);
            let (_, payload) = dec.next_frame().unwrap().unwrap();
            black_box(decode_client(&payload).unwrap())
        })
    });
    group.finish();
}

fn bench_loopback(c: &mut Criterion) {
    let batch = requests(256);
    let mut group = c.benchmark_group("edge_loopback");
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("sharded_gateway", |b| {
        b.iter(|| black_box(serve_once(gateway(), &batch)))
    });
    group.bench_function("journaled_gateway", |b| {
        b.iter(|| {
            let journaled = JournaledGateway::new(gateway(), JournalConfig::default());
            black_box(serve_once(journaled, &batch))
        })
    });
    group.finish();

    // What full decision tracing costs at the wire: the same serve with a
    // telemetry handle attached (ingress minting, per-stage spans, phase
    // timing) vs. the bare path. The acceptance bar — telemetry-off must
    // stay within 5% of a build that never knew about telemetry — is
    // enforced by check_edge_baseline on the emitted JSON.
    let mut group = c.benchmark_group("edge_telemetry");
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("telemetry_off", |b| {
        b.iter(|| black_box(serve_once(gateway(), &batch)))
    });
    group.bench_function("telemetry_on", |b| {
        b.iter(|| {
            let telemetry = rtdls_telemetry::Telemetry::with_defaults();
            black_box(serve_once_with(gateway(), &batch, Some(&telemetry)))
        })
    });
    // The full plane: tracing + history sampling + profiler. Gated at 5%
    // over the bare path by check_edge_baseline (`history_overhead`).
    group.bench_function("observability_on", |b| {
        b.iter(|| black_box(serve_once_observed(&batch)))
    });
    group.finish();
}

fn bench_multi_reactor(c: &mut Criterion) {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 128;
    let mut group = c.benchmark_group("edge_multi_reactor");
    group.throughput(Throughput::Elements((CLIENTS * PER_CLIENT) as u64));
    for reactors in [1usize, 2, 4] {
        let batches = cluster_batches(reactors, CLIENTS, PER_CLIENT);
        group.bench_function(format!("reactors_{reactors}"), |b| {
            b.iter(|| black_box(serve_cluster_once(reactors, &batches)))
        });
    }
    group.finish();
}

fn bench_explain_slo(c: &mut Criterion) {
    // What admission explainability costs: the counterfactual search
    // (doubling + bisection over the schedulability test) on a busy book —
    // the worst case, since an admissible probe explains in one test.
    let params = ClusterParams::new(64, 1.0, 100.0).unwrap();
    let mut ctl = AdmissionController::new(params, AlgorithmKind::EDF_DLT, PlanConfig::default());
    for node in 0..64 {
        ctl.set_node_release(node, SimTime::new(500.0 + node as f64));
    }
    let hopeless = SubmitRequest::new(Task::new(1, 0.0, 50_000.0, 1.0));
    let mut group = c.benchmark_group("edge_explain_slo");
    group.throughput(Throughput::Elements(1));
    group.bench_function("explain_probe", |b| {
        b.iter(|| black_box(ctl.explain(black_box(&hopeless), SimTime::ZERO)))
    });

    // The same search where it has a queue to walk (the case above has no
    // waiting work, so no prefix to share between probes): one 8-node shard
    // of the serving gateway, six tasks waiting, and a refused candidate
    // that sorts behind five of them. Printed, not gated.
    let shard = ClusterParams::new(8, 1.0, 100.0).unwrap();
    let e8 = |sigma: f64| homogeneous::exec_time(&shard, sigma, 8);
    let mut queued = AdmissionController::new(shard, AlgorithmKind::EDF_DLT, PlanConfig::default());
    for i in 0..6u64 {
        let task = Task::new(i, 0.0, 200.0, e8(200.0) * (2.0 + 1.5 * i as f64));
        assert!(queued.submit(task, SimTime::ZERO).is_accepted());
    }
    let behind_five = SubmitRequest::new(Task::new(9, 0.0, 600.0, e8(200.0) * 8.5));
    let explained = queued
        .explain(&behind_five, SimTime::ZERO)
        .expect("the candidate is refused");
    assert!(explained.has_feasible_deadline() && queued.queue_len() == 6);
    group.bench_function("explain_probe_queued", |b| {
        b.iter(|| black_box(queued.explain(black_box(&behind_five), SimTime::ZERO)))
    });

    // What SLO burn-rate tracking costs at the wire: the same loopback
    // serve with a per-tenant/per-QoS tracker folding every decision vs.
    // the bare path. check_edge_baseline gates the ratio at 5%.
    let batch = requests(256);
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("slo_off", |b| {
        b.iter(|| black_box(serve_once(gateway(), &batch)))
    });
    group.bench_function("slo_on", |b| {
        b.iter(|| {
            let mut g = gateway();
            g.set_slo(SloTracker::new(SloPolicy::default()));
            black_box(serve_once(g, &batch))
        })
    });
    group.finish();
}

fn median_secs(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Interleaved overhead measurement: each round times the bare arm and the
/// instrumented arm back-to-back, yielding one per-round overhead ratio
/// (`1 - base/on`); the median over rounds discards the rounds where a
/// scheduler stall hit one arm. Far more stable for a gated ratio than
/// comparing two independently-measured medians, whose one-sided loopback
/// noise does not cancel. Returns `(median_on_secs, median_overhead)`.
fn paired_overhead(label: &str, mut base: impl FnMut(), mut on: impl FnMut()) -> (f64, f64) {
    let mut ons = Vec::new();
    let mut ratios = Vec::new();
    for _ in 0..15 {
        let t = std::time::Instant::now();
        base();
        let b = t.elapsed().as_secs_f64();
        let t = std::time::Instant::now();
        on();
        let o = t.elapsed().as_secs_f64();
        ons.push(o);
        ratios.push(1.0 - b / o);
    }
    ons.sort_by(f64::total_cmp);
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    println!(
        "{label} overhead rounds: min {:+.1}% median {:+.1}% max {:+.1}%",
        ratios[0] * 100.0,
        median * 100.0,
        ratios[ratios.len() - 1] * 100.0,
    );
    (ons[ons.len() / 2], median)
}

#[derive(serde::Serialize)]
struct Baseline {
    codec_roundtrips_per_sec: f64,
    loopback_requests_per_sec: f64,
    loopback_requests_per_sec_journaled: f64,
    loopback_requests_per_sec_telemetry: f64,
    /// Relative cost of serving with telemetry attached vs. without, both
    /// measured in this process (`1 - on/off`; negative = in the noise).
    telemetry_overhead: f64,
    /// Loopback serve with the full observability plane: tracing plus
    /// metrics-history sampling plus the hot-path profiler.
    loopback_requests_per_sec_history: f64,
    /// Relative cost of the full plane vs. the bare path (`1 - on/off`;
    /// negative = in the noise). The always-on acceptance bar.
    history_overhead: f64,
    /// Counterfactual searches per second on a busy 64-node book (the
    /// worst case an `Ops::Explain` probe or rejected-verdict annotation
    /// pays).
    explain_probes_per_sec: f64,
    loopback_requests_per_sec_slo: f64,
    /// Relative cost of serving with the SLO tracker folding every
    /// decision vs. the bare path (`1 - on/off`; negative = in the noise).
    slo_overhead: f64,
    /// Four concurrent clients against a 1-reactor cluster (the sharding
    /// reference point, same offered load as the multi-reactor rows).
    loopback_requests_per_sec_multi1: f64,
    /// The same load against 2 reactors.
    loopback_requests_per_sec_multi2: f64,
    /// The same load against 4 reactors.
    loopback_requests_per_sec_multi4: f64,
    /// `multi4 / multi1`, both measured in this process — the sharding
    /// acceptance ratio: the 4-reactor edge must not lose to the single
    /// reactor under identical offered load.
    multi_speedup: f64,
}

/// Emits the JSON baseline. Skipped under `-- --test` (the smoke stays a
/// smoke; CI runs the full bench right after and writes the file).
fn emit_baseline(_c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        println!("baseline emission skipped under --test");
        return;
    }
    let req = requests(1)[0];
    let msg = ClientMsg::Submit {
        seq: 1,
        request: req,
    };
    let n_codec = 20_000;
    let codec = median_secs(|| {
        for _ in 0..n_codec {
            let frame = encode_client(black_box(&msg));
            let mut dec = FrameDecoder::new(1 << 20);
            dec.push(&frame);
            let (_, payload) = dec.next_frame().unwrap().unwrap();
            black_box(decode_client(&payload).unwrap());
        }
    });
    let batch = requests(256);
    let plain = median_secs(|| {
        black_box(serve_once(gateway(), &batch));
    });
    let journaled = median_secs(|| {
        let j = JournaledGateway::new(gateway(), JournalConfig::default());
        black_box(serve_once(j, &batch));
    });
    // Each overhead ratio comes from its own interleaved pair, so both
    // arms see the same machine conditions round by round.
    let (with_telemetry, telemetry_overhead) = paired_overhead(
        "telemetry",
        || {
            black_box(serve_once(gateway(), &batch));
        },
        || {
            let telemetry = rtdls_telemetry::Telemetry::with_defaults();
            black_box(serve_once_with(gateway(), &batch, Some(&telemetry)));
        },
    );
    let (with_observability, history_overhead) = paired_overhead(
        "observability",
        || {
            black_box(serve_once(gateway(), &batch));
        },
        || {
            black_box(serve_once_observed(&batch));
        },
    );
    let (with_slo, slo_overhead) = paired_overhead(
        "slo",
        || {
            black_box(serve_once(gateway(), &batch));
        },
        || {
            let mut g = gateway();
            g.set_slo(SloTracker::new(SloPolicy::default()));
            black_box(serve_once(g, &batch));
        },
    );
    let params = ClusterParams::new(64, 1.0, 100.0).unwrap();
    let mut ctl = AdmissionController::new(params, AlgorithmKind::EDF_DLT, PlanConfig::default());
    for node in 0..64 {
        ctl.set_node_release(node, SimTime::new(500.0 + node as f64));
    }
    let hopeless = SubmitRequest::new(Task::new(1, 0.0, 50_000.0, 1.0));
    let n_explain = 2_000;
    let explain = median_secs(|| {
        for _ in 0..n_explain {
            black_box(ctl.explain(black_box(&hopeless), SimTime::ZERO));
        }
    });
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 128;
    let cluster_total = (CLIENTS * PER_CLIENT) as f64;
    let multi = |reactors: usize| {
        let batches = cluster_batches(reactors, CLIENTS, PER_CLIENT);
        cluster_total
            / median_secs(|| {
                black_box(serve_cluster_once(reactors, &batches));
            })
    };
    let multi1 = multi(1);
    let multi2 = multi(2);
    let multi4 = multi(4);
    let baseline = Baseline {
        codec_roundtrips_per_sec: n_codec as f64 / codec,
        loopback_requests_per_sec: batch.len() as f64 / plain,
        loopback_requests_per_sec_journaled: batch.len() as f64 / journaled,
        loopback_requests_per_sec_telemetry: batch.len() as f64 / with_telemetry,
        telemetry_overhead,
        loopback_requests_per_sec_history: batch.len() as f64 / with_observability,
        history_overhead,
        explain_probes_per_sec: n_explain as f64 / explain,
        loopback_requests_per_sec_slo: batch.len() as f64 / with_slo,
        slo_overhead,
        loopback_requests_per_sec_multi1: multi1,
        loopback_requests_per_sec_multi2: multi2,
        loopback_requests_per_sec_multi4: multi4,
        multi_speedup: multi4 / multi1,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("serializable");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    let path = target.join("edge_throughput_baseline.json");
    let _ = std::fs::create_dir_all(&target);
    std::fs::write(&path, &json).expect("write baseline");
    println!("baseline written to {}:\n{json}", path.display());
}

/// The `-- --test` CI smoke: a few hundred requests over real loopback,
/// client/server reconciliation asserted, no timing.
fn smoke() {
    let batch = requests(300);
    let server = EdgeServer::bind("127.0.0.1:0", gateway(), EdgeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(EdgeClock::real_time(), &stop2));
    let report = ReplayClient::connect(addr)
        .expect("connect")
        .run(
            batch.clone(),
            16,
            Duration::from_millis(50),
            Duration::from_secs(60),
        )
        .expect("replay");
    stop.store(true, Ordering::Relaxed);
    let (gateway, stats) = handle.join().expect("server thread");
    assert!(!report.timed_out);
    assert_eq!(report.verdicts(), batch.len() as u64, "one verdict each");
    assert_eq!(gateway.metrics().submitted, batch.len() as u64);
    assert_eq!(gateway.metrics().accepted_immediate, report.accepted);
    assert_eq!(stats.protocol_errors, 0);
    println!(
        "edge_throughput smoke ok: {} verdicts over loopback ({} accepted, {} deferred, \
         {} rejected), books reconcile",
        report.verdicts(),
        report.accepted,
        report.deferred,
        report.rejected,
    );

    // The sharded edge, same bar: four tenant-pinned clients against a
    // 2-reactor cluster, every submit answered.
    let batches = cluster_batches(2, 4, 64);
    let total: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let verdicts = serve_cluster_once(2, &batches);
    assert_eq!(verdicts, total, "one verdict per submit, cluster-wide");
    println!("edge_throughput cluster smoke ok: {verdicts} verdicts across 2 reactors");
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        smoke();
        return;
    }
    let mut c = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    bench_codec(&mut c);
    bench_loopback(&mut c);
    bench_multi_reactor(&mut c);
    bench_explain_slo(&mut c);
    emit_baseline(&mut c);
}
