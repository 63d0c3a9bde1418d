//! The observability-plane capstone: after a full failover in the crash
//! world, the *promoted* gateway goes behind an edge server over the
//! in-memory transport, and one ops query with one trace id reconstructs
//! the cross-node timeline — primary-side plan/append/ship spans,
//! follower-side replay, and the promotion fence — over the wire, exactly
//! as `rtdls-top --trace` would render it. The primary process (and its
//! flight recorder) is long dead by then; every span served came off the
//! shipped frames.

use rtdls_core::prelude::*;
use rtdls_edge::prelude::*;
use rtdls_edge::proto::{OpsQuery, OpsReport};
use rtdls_journal::prelude::*;
use rtdls_sim::config::SimConfig;
use rtdls_sim::engine::Simulation;
use rtdls_telemetry::{Stage, Telemetry};
use rtdls_world::mem::{mem_server, InlineClient, Mem, MemClient};
use rtdls_world::{baseline_gateway, Comeback, FaultPlan, Follow, Kill, Scenario, World};

const KILL_AT: f64 = 2_000.0;

fn scenario(seed: u64) -> Scenario {
    Scenario::new(JournalConfig {
        snapshot_every: 0,
        compact_on_snapshot: false,
    })
    .kill(Kill::At(SimTime::new(KILL_AT)), Comeback::Promote)
    .follow(Follow {
        link: FaultPlan::clean(seed).with_delay(1.0, 6.0),
        ..Follow::clean(seed)
    })
}

fn workload() -> Vec<Task> {
    (0..12u64)
        .map(|i| Task::new(i, i as f64 * 150.0, 20.0, 1_200.0))
        .collect()
}

/// Sends one ops query and turns the server until its report arrives.
fn ask(
    client: &mut InlineClient<MemClient>,
    server: &mut EdgeServer<JournaledGateway, Mem>,
    query: OpsQuery,
) -> OpsReport {
    client.send(&ClientMsg::Ops { query });
    loop {
        if let ServerMsg::OpsReport { report } = client.recv(server, SimTime::ZERO) {
            return report;
        }
    }
}

#[test]
fn promoted_edge_serves_the_cross_node_timeline_over_the_wire() {
    // Two recorders model two processes; only the follower's survives.
    let primary_recorder = Telemetry::with_defaults();
    let follower_recorder = Telemetry::with_defaults();
    let mut world = World::new(baseline_gateway(2), scenario(42));
    world.attach_telemetry(&primary_recorder, &follower_recorder);
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT)
        .with_tenants(TenantMix::uniform(3));
    let mut sim = Simulation::with_frontend(cfg, world);
    sim.prime(workload());
    while sim.step() {}
    let (_report, world) = sim.finish();
    assert!(world.record().promoted_at.is_some(), "must fail over");
    drop(primary_recorder); // the head node is gone

    // The survivor: the promoted gateway fronted by a fresh edge server,
    // serving the follower-process recorder.
    let promoted = world.into_gateway().expect("promotion yields a gateway");
    assert_eq!(promoted.journal().epoch(), 1, "promoted into epoch 1");
    let trace = follower_recorder
        .trace_of(1)
        .expect("shipped frames re-associated task 1 with its trace");
    let (mut server, net) = mem_server(promoted, EdgeConfig::default());
    server.set_telemetry(&follower_recorder);
    let mut ops = InlineClient::connect(&net);

    // Identity over the wire names the post-failover epoch.
    let OpsReport::Stats { epoch, ack_lag, .. } = ask(&mut ops, &mut server, OpsQuery::Stats)
    else {
        panic!("expected a Stats report");
    };
    assert_eq!(epoch, 1, "the edge reports the promoted epoch");
    assert_eq!(ack_lag, None, "a plain journaled gateway has no shipper");

    // One trace id, queried like `rtdls-top --trace <id>`, yields the
    // ordered cross-node timeline.
    let OpsReport::Trace { spans, .. } = ask(&mut ops, &mut server, OpsQuery::Trace { id: trace })
    else {
        panic!("expected a Trace report");
    };
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
    let OpsReport::RecentTraces { traces: recent } =
        ask(&mut ops, &mut server, OpsQuery::RecentTraces)
    else {
        panic!("expected a RecentTraces report");
    };
    assert!(recent.contains(&trace), "trace {trace} listed: {recent:?}");
}

/// The codec has its own rows in the phase table: over a burst,
/// `edge/decode` ran once per frame received and `edge/encode` once per
/// frame queued (every one of which was then sent), nested inside the
/// turn's `edge/read` / `edge/drive` phases.
#[test]
fn the_edge_phases_count_one_decode_per_frame_in_and_one_encode_per_frame_out() {
    use rtdls_edge::proto::encode_client;

    let (mut server, net) = mem_server(baseline_gateway(2), EdgeConfig::default());
    let telemetry = Telemetry::with_defaults();
    server.set_telemetry(&telemetry);
    let mut client = InlineClient::connect(&net);

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
    client.send_raw(&burst);
    let mut frames_read = 0u64;
    for _ in 0..2_000 {
        server.poll(SimTime::ZERO);
        while client.try_next().is_some() {
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
    let phases = telemetry.phases();
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
