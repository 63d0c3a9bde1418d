//! Loopback walkthrough of the network edge: a journaled sharded gateway
//! served over real TCP by the hand-rolled reactor, driven by the replay
//! client, then killed and recovered from its WAL file.
//!
//! ```text
//! cargo run --release --example edge_server
//! ```
//!
//! Phase 1 starts an [`EdgeServer`] over a 4-shard `JournaledGateway`
//! (group-commit fsync, one commit per reactor turn) and plays a 400
//! request multi-tenant stream against it through [`ReplayClient`] —
//! every verdict arrives over the socket, and parked-task resolutions are
//! *pushed* to the client as they happen. Phase 2 "kills" the server,
//! rebuilds the gateway from the journal file alone, and serves a second
//! stream against the recovered book — the restart is invisible to the
//! admission history.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtdls::prelude::*;

fn gateway() -> ShardedGateway {
    ShardedGateway::new(
        ClusterParams::paper_baseline(),
        4,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .expect("valid shard layout")
    .with_quota(QuotaPolicy {
        max_inflight: Some(8),
        ..Default::default()
    })
}

fn stream(n: usize, seed: u64) -> Vec<SubmitRequest> {
    let mix = TenantMix {
        tenants: 8,
        premium_tenants: 1,
        best_effort_tenants: 3,
        max_delay_factor: None,
    };
    let spec = WorkloadSpec::paper_baseline(1.3);
    WorkloadGenerator::new(spec, 4242)
        .take(n)
        .map(move |t| Task::new(t.id.0 + seed * 1_000_000, 0.0, t.data_size, t.rel_deadline))
        .with_tenants(mix)
        .collect()
}

fn serve(
    gateway: JournaledGateway<ShardedGateway>,
    clock: EdgeClock,
    requests: Vec<SubmitRequest>,
) -> (JournaledGateway<ShardedGateway>, EdgeStats, ReplayReport) {
    let server = EdgeServer::bind("127.0.0.1:0", gateway, EdgeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(clock, &stop2));
    let report = ReplayClient::connect(addr)
        .expect("connect")
        .run(
            requests,
            16,
            Duration::from_millis(100),
            Duration::from_secs(60),
        )
        .expect("replay");
    stop.store(true, Ordering::Relaxed);
    let (gateway, stats) = handle.join().expect("server thread");
    (gateway, stats, report)
}

fn main() {
    let wal = std::env::temp_dir().join(format!("rtdls-edge-demo-{}.wal", std::process::id()));
    let journal_cfg = JournalConfig {
        snapshot_every: 64,
        compact_on_snapshot: true,
    };

    println!("=== phase 1: serve a 400-request stream over TCP ===");
    let sink = FileSink::create(&wal)
        .expect("create WAL")
        .with_fsync_policy(FsyncPolicy::Batch(16));
    let journaled = JournaledGateway::with_sink(gateway(), journal_cfg, Box::new(sink));
    let (dead, stats, report) = serve(journaled, EdgeClock::real_time(), stream(400, 0));
    println!(
        "client : {} submitted | {} accepted, {} deferred, {} reserved, {} rejected, {} throttled | \
         {} pushed update(s)",
        report.submitted,
        report.accepted,
        report.deferred,
        report.reserved,
        report.rejected,
        report.throttled,
        report.updates.len(),
    );
    println!(
        "edge   : {} conn(s), {} frames in, {} frames out, {} edge-throttled",
        stats.connections_accepted, stats.frames_received, stats.frames_sent, stats.edge_throttled
    );
    assert!(!report.timed_out, "every submit must be answered");
    assert_eq!(report.verdicts(), 400, "one verdict per submit");
    let m = dead.metrics();
    assert_eq!(m.submitted, 400);
    assert_eq!(m.accepted_immediate, report.accepted);
    assert_eq!(m.throttled, report.throttled);
    println!("server : {m}");
    // The "crash": drop the gateway without finalize; only the WAL survives.
    drop(dead);

    println!(
        "\n=== phase 2: recover from {} and keep serving ===",
        wal.display()
    );
    let recover_at = SimTime::new(1e6);
    let (recovered, rec) = recover_file_with_policy::<ShardedGateway>(
        &wal,
        recover_at,
        journal_cfg,
        FsyncPolicy::Batch(16),
    )
    .expect("recovery");
    println!(
        "recovery: {} frame(s), {} input(s) replayed, {} demoted, tail {:?}",
        rec.frames_decoded,
        rec.events_replayed,
        rec.demoted.len(),
        rec.tail
    );
    assert_eq!(
        recovered.metrics().submitted,
        400,
        "the book survived the crash"
    );
    let (after, _, report2) = serve(
        recovered,
        EdgeClock::starting_at(recover_at, 1.0),
        stream(200, 1),
    );
    assert!(!report2.timed_out);
    assert_eq!(report2.verdicts(), 200, "the restarted edge serves");
    let m = after.metrics();
    assert_eq!(m.submitted, 600, "one continuous admission history");
    println!("server : {m}");
    println!("\nedge demo OK: 600 requests served across a kill/recover boundary");
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(wal.with_extension("wal.spare"));
}
