//! The observability-plane capstone: after a full simulated failover, the
//! *promoted* gateway goes behind a real edge server, and one ops query
//! with one trace id reconstructs the cross-node timeline — primary-side
//! plan/append/ship spans, follower-side replay, and the promotion fence —
//! over the wire, exactly as `rtdls-top --trace` would render it. The
//! primary process (and its flight recorder) is long dead by then; every
//! span served came off the shipped frames.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtdls_core::prelude::*;
use rtdls_edge::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_replica::prelude::*;
use rtdls_service::prelude::*;
use rtdls_sim::config::SimConfig;
use rtdls_sim::engine::Simulation;
use rtdls_sim::net::FaultPlan;
use rtdls_telemetry::{Stage, Telemetry};

const KILL_AT: f64 = 2_000.0;

fn primary() -> JournaledGateway<ShardedGateway> {
    let gateway = ShardedGateway::new(
        ClusterParams::paper_baseline(),
        2,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    JournaledGateway::new(
        gateway,
        JournalConfig {
            snapshot_every: 0,
            compact_on_snapshot: false,
        },
    )
}

fn plan(seed: u64) -> FailoverPlan {
    FailoverPlan::kill_at(SimTime::new(KILL_AT), seed)
        .with_fault(FaultPlan::clean(seed).with_delay(1.0, 6.0))
}

fn workload() -> Vec<Task> {
    (0..12u64)
        .map(|i| Task::new(i, i as f64 * 150.0, 20.0, 1_200.0))
        .collect()
}

#[test]
fn promoted_edge_serves_the_cross_node_timeline_over_the_wire() {
    // Two recorders model two processes; only the follower's survives.
    let primary_recorder = Telemetry::with_defaults();
    let follower_recorder = Telemetry::with_defaults();
    let mut frontend = ReplicaFrontend::new(primary(), plan(42));
    frontend.attach_primary_telemetry(&primary_recorder);
    frontend.attach_follower_telemetry(&follower_recorder);
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT)
        .with_tenants(TenantMix::uniform(3));
    let mut sim = Simulation::with_frontend(cfg, frontend);
    sim.prime(workload());
    while sim.step() {}
    let (_report, frontend) = sim.finish();
    assert!(frontend.outcome().promoted_at.is_some(), "must fail over");
    drop(primary_recorder); // the head node is gone

    // The survivor: the promoted gateway fronted by a fresh edge server,
    // serving the follower-process recorder.
    let promoted = frontend.into_gateway().expect("promotion yields a gateway");
    assert_eq!(promoted.journal().epoch(), 1, "promoted into epoch 1");
    let trace = follower_recorder
        .trace_of(1)
        .expect("shipped frames re-associated task 1 with its trace");
    let mut server =
        EdgeServer::bind("127.0.0.1:0", promoted, EdgeConfig::default()).expect("bind edge");
    server.set_telemetry(&follower_recorder);
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let server_stop = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(EdgeClock::real_time(), &server_stop));

    let deadline = Duration::from_secs(5);
    let mut ops = OpsClient::connect(addr).expect("connect ops");

    // Identity over the wire names the post-failover epoch.
    let (epoch, ack_lag) = ops.identity(deadline).expect("identity");
    assert_eq!(epoch, 1, "the edge reports the promoted epoch");
    assert_eq!(ack_lag, None, "a plain journaled gateway has no shipper");

    // One trace id, queried like `rtdls-top --trace <id>`, yields the
    // ordered cross-node timeline.
    let spans = ops.trace(trace, deadline).expect("trace report");
    assert!(!spans.is_empty() && spans.iter().all(|s| s.trace == trace));
    let position = |stage: Stage| spans.iter().position(|s| s.stage == stage);
    let plan_at = position(Stage::Plan).expect("primary's plan span served");
    let append_at = position(Stage::JournalAppend).expect("primary's append span served");
    let ship_at = position(Stage::ShipFrame).expect("primary's ship span served");
    let replay_at = position(Stage::FollowerReplay).expect("follower's replay span served");
    let promote_at = position(Stage::Promote).expect("promotion span served");
    assert!(
        plan_at < ship_at && append_at < ship_at && ship_at < replay_at && replay_at < promote_at,
        "timeline out of order over the wire: {spans:#?}"
    );

    // The promoted trace also shows up in the recent-traces listing.
    let recent = ops.recent_traces(deadline).expect("recent traces");
    assert!(recent.contains(&trace), "trace {trace} listed: {recent:?}");

    stop.store(true, Ordering::Relaxed);
    let (_gateway, _stats) = handle.join().expect("edge thread");
}

/// The codec has its own rows in the profiler: over a loopback burst,
/// `edge/decode` ran once per frame received and `edge/encode` once per
/// frame queued (every one of which was then sent), nested inside the
/// turn's `edge/read` / `edge/drive` phases.
#[test]
fn the_profiler_counts_one_decode_per_frame_in_and_one_encode_per_frame_out() {
    use rtdls_edge::codec::{FrameDecoder, DEFAULT_MAX_FRAME};
    use rtdls_edge::proto::encode_client;
    use std::io::{Read, Write};

    let gateway = ShardedGateway::new(
        ClusterParams::paper_baseline(),
        2,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let mut server = EdgeServer::bind("127.0.0.1:0", gateway, EdgeConfig::default()).unwrap();
    server.enable_profiler();
    let now = SimTime::ZERO;
    let mut client = std::net::TcpStream::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(2)))
        .unwrap();

    // One write of forty submits: every frame in decodes, every frame out
    // is the hello, a verdict or a pushed update.
    let submits = 40u64;
    let mut burst = Vec::new();
    for seq in 0..submits {
        burst.extend(encode_client(&ClientMsg::Submit {
            seq,
            request: SubmitRequest::new(Task::new(seq, 0.0, 200.0, 2_000.0))
                .with_max_delay(Some(1_000.0)),
        }));
    }
    client.write_all(&burst).unwrap();
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
    let mut frames_read = 0u64;
    for _ in 0..2_000 {
        server.poll(now);
        let mut buf = [0u8; 8192];
        if let Ok(n) = client.read(&mut buf) {
            decoder.push(&buf[..n]);
        }
        while decoder.next_frame().unwrap().is_some() {
            frames_read += 1;
        }
        if frames_read > submits && server.stats().frames_sent == frames_read {
            break;
        }
    }
    let stats = server.stats();
    assert_eq!(stats.frames_received, submits);
    assert_eq!(
        stats.frames_sent,
        1 + submits + stats.updates_pushed,
        "hello, one verdict a submit, the pushed updates"
    );
    assert_eq!(frames_read, stats.frames_sent, "everything queued was sent");
    let phases = server.profiler().snapshot();
    let count = |path: &str| {
        phases
            .iter()
            .find(|p| p.path == path)
            .unwrap_or_else(|| panic!("no {path} phase in {phases:?}"))
            .count
    };
    assert_eq!(count("edge/decode"), stats.frames_received);
    assert_eq!(count("edge/encode"), stats.frames_sent);
    assert!(count("edge/read") > 0 && count("edge/flush") > 0);
}
