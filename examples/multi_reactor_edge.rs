//! The sharded edge end to end: an [`EdgeCluster`] of two epoll reactors,
//! each group-committing its own WAL, serving tenant-bound clients over
//! real TCP — then killed and recovered per-reactor, restarting with the
//! same reactor count.
//!
//! ```text
//! cargo run --release --example multi_reactor_edge
//! ```
//!
//! Phase 1 binds one listener over two reactor threads, each owning a
//! journaled 2-shard gateway with its own WAL file. Two replay clients
//! connect, each bound by `Hello { tenant }` to a tenant hashed to a
//! different reactor, so one connection stays on the accepting reactor 0
//! and the other is adopted by reactor 1 before its first submit — after
//! which every decision for it is thread-local. Phase 2 "kills" the cluster (drops
//! every gateway, no finalize), rebuilds each reactor's book from its own
//! WAL alone, and re-binds with the same reactor count — the tenant hash
//! is deterministic, so every tenant lands back on the reactor holding
//! its recovered state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rtdls::prelude::*;

const REACTORS: usize = 2;

fn gateway() -> ShardedGateway {
    ShardedGateway::new(
        ClusterParams::paper_baseline(),
        2,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .expect("valid shard layout")
}

/// A stream whose every submit carries `tenant` — one connection's
/// traffic, pinned to that tenant's home reactor end to end.
fn stream(n: usize, seed: u64, tenant: TenantId) -> Vec<SubmitRequest> {
    let mix = TenantMix {
        tenants: 8,
        premium_tenants: 1,
        best_effort_tenants: 3,
        max_delay_factor: None,
    };
    let spec = WorkloadSpec::paper_baseline(1.3);
    let mut requests: Vec<SubmitRequest> = WorkloadGenerator::new(spec, seed)
        .take(n)
        .with_tenants(mix)
        .collect();
    for r in &mut requests {
        r.tenant = tenant;
    }
    requests
}

/// Serves one batch per client against a fresh cluster built from
/// `gateways`, returning each reactor's (gateway, stats) plus the reports.
fn serve<G: EdgeGateway + Send>(
    gateways: Vec<G>,
    cfg: EdgeConfig,
    clock: EdgeClock,
    batches: Vec<Vec<SubmitRequest>>,
) -> (Vec<(G, EdgeStats)>, Vec<ReplayReport>) {
    let cluster = EdgeCluster::bind("127.0.0.1:0", gateways, cfg).expect("bind");
    let addr = cluster.local_addr();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let server = s.spawn(|| cluster.run(clock, &stop));
        let clients: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                s.spawn(move || {
                    ReplayClient::connect(addr)
                        .and_then(|client| client.bind(batch[0].tenant))
                        .expect("connect")
                        .run(
                            batch,
                            16,
                            Duration::from_millis(100),
                            Duration::from_secs(60),
                        )
                        .expect("replay")
                })
            })
            .collect();
        let reports = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        (server.join().expect("cluster threads"), reports)
    })
}

fn main() {
    let pid = std::process::id();
    let wals: Vec<std::path::PathBuf> = (0..REACTORS)
        .map(|i| std::env::temp_dir().join(format!("rtdls-cluster-demo-{pid}-{i}.wal")))
        .collect();
    let journal_cfg = JournalConfig {
        snapshot_every: 64,
        compact_on_snapshot: true,
    };
    // One tenant per reactor, chosen by the same hash the cluster pins
    // with — so the demo provably exercises both reactors.
    let tenants: Vec<TenantId> = (0..REACTORS)
        .map(|home| {
            (0u32..1024)
                .map(TenantId)
                .find(|t| reactor_for_tenant(*t, REACTORS) == home)
                .expect("some tenant hashes to every reactor")
        })
        .collect();
    println!(
        "=== phase 1: {REACTORS} reactors, one WAL each, tenants {:?} pinned by hash ===",
        tenants.iter().map(|t| t.0).collect::<Vec<_>>()
    );

    let gateways: Vec<_> = wals
        .iter()
        .map(|w| {
            let sink = FileSink::create(w)
                .expect("create WAL")
                .with_fsync_policy(FsyncPolicy::Batch(16));
            JournaledGateway::with_sink(gateway(), journal_cfg, Box::new(sink))
        })
        .collect();
    let batches: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| stream(200, i as u64, *t))
        .collect();
    let (dead, reports) = serve(
        gateways,
        EdgeConfig::default(),
        EdgeClock::real_time(),
        batches,
    );
    for (i, r) in reports.iter().enumerate() {
        assert!(!r.timed_out, "every submit must be answered");
        assert_eq!(r.verdicts(), 200, "one verdict per submit");
        println!(
            "client {i}: {} submitted | {} accepted, {} deferred, {} reserved, {} rejected",
            r.submitted, r.accepted, r.deferred, r.reserved, r.rejected
        );
    }
    for (i, (g, stats)) in dead.iter().enumerate() {
        assert_eq!(
            g.metrics().submitted,
            200,
            "each reactor decided exactly its tenant's stream"
        );
        println!(
            "reactor {i}: {} submits, {} adopted conn(s), {} frames out",
            stats.submits, stats.conns_adopted, stats.frames_sent
        );
    }
    let stats = EdgeStats::merged(&dead.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    assert_eq!(stats.conns_adopted, 1, "the off-zero tenant was adopted");
    // The "crash": drop every reactor's gateway; only the WALs survive.
    drop(dead);

    println!("\n=== phase 2: recover each reactor's WAL, re-bind with the same count ===");
    let recover_at = SimTime::new(1e6);
    let mut recovered = Vec::new();
    for (i, w) in wals.iter().enumerate() {
        let (g, rec) = recover_file_with_policy::<ShardedGateway>(
            w,
            recover_at,
            journal_cfg,
            FsyncPolicy::Batch(16),
        )
        .expect("recovery");
        println!(
            "reactor {i}: {} frame(s) replayed from {}, book at {} submits",
            rec.frames_decoded,
            w.display(),
            g.metrics().submitted
        );
        assert_eq!(g.metrics().submitted, 200, "the book survived the crash");
        recovered.push(g);
    }
    // Same reactor count (the hash sends every tenant home); connection
    // ids bumped past generation 1's so freshly minted task ids can never
    // collide with journaled pre-crash ones.
    let cfg = EdgeConfig {
        first_conn_id: 1 << 20,
        ..Default::default()
    };
    let batches: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| stream(100, 100 + i as u64, *t))
        .collect();
    let (after, reports) = serve(
        recovered,
        cfg,
        EdgeClock::starting_at(recover_at, 1.0),
        batches,
    );
    for r in &reports {
        assert!(!r.timed_out);
        assert_eq!(r.verdicts(), 100, "the restarted cluster serves");
    }
    for (i, (g, _)) in after.iter().enumerate() {
        assert_eq!(
            g.metrics().submitted,
            300,
            "reactor {i}: one continuous admission history across the crash"
        );
    }
    println!(
        "\nmulti-reactor demo OK: 600 requests across {REACTORS} reactors and a kill/recover \
         boundary"
    );
    for w in &wals {
        let _ = std::fs::remove_file(w);
        let _ = std::fs::remove_file(w.with_extension("wal.spare"));
    }
}
