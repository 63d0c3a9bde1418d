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
use rtdls_journal::wire::decode_frames;
use rtdls_service::prelude::*;
use rtdls_sim::config::SimConfig;
use rtdls_sim::engine::Simulation;
use rtdls_telemetry::{Stage, Telemetry};
use rtdls_workload::prelude::*;
use rtdls_world::mem::{InlineClient, Mem, MemClient, MemNet};
use rtdls_world::{baseline_gateway, reservation, saturated_until};
use rtdls_world::{Comeback, FaultPlan, Follow, Kill, Scenario, World};

type Conn = InlineClient<MemClient>;

const T0: SimTime = SimTime::ZERO;

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
    let net = MemNet::default();
    let mem = net.transports(1).pop().unwrap();
    let mut server = EdgeServer::with_transport(mem, promoted, EdgeConfig::default());
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

    let scenario = Scenario::new(JournalConfig::default());
    let mut world = World::edge(vec![baseline_gateway(2)], scenario, EdgeConfig::default());
    let telemetry = Telemetry::with_defaults();
    world.reactors_mut()[0].set_telemetry(&telemetry);
    let mut client = Conn::connect(&world.net().clone());

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
        world.poll(T0);
        while client.try_next().is_some() {
            frames_read += 1;
        }
        if frames_read > submits && world.stats()[0].frames_sent == frames_read {
            break;
        }
    }
    let stats = world.stats()[0];
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

/// The reservation scenario on a telemetry-attached edge: once the promise
/// is pushed, the ops channel rebuilds both flows' timelines by trace id
/// and counts them in its stats.
#[test]
fn the_ops_channel_rebuilds_a_reserved_flows_timeline_by_trace_id() {
    let avail = SimTime::new(1000.0);
    let scenario = Scenario::new(JournalConfig::default());
    let gateways = vec![saturated_until(avail)];
    let mut world = World::edge(gateways, scenario, EdgeConfig::default());
    world.reactors_mut()[0].set_telemetry(&Telemetry::with_defaults());
    let net = world.net().clone();
    let mut client = Conn::greeted(&net, &mut world, T0);
    let [blocker, candidate] = reservation(avail, TenantId(7));
    assert!(client.submit(0, blocker, &mut world, T0).is_accepted());
    let verdict = client.submit(1, candidate, &mut world, T0);
    assert!(matches!(verdict, Verdict::Reserved { .. }), "{verdict:?}");
    let msg = client.recv(&mut world, avail);
    assert!(matches!(msg, ServerMsg::Update { .. }), "{msg:?}");
    timelines(
        &mut Conn::greeted(&net, &mut world, avail),
        &mut world,
        avail,
    );
}

/// Over `ops`: both flows' timelines, seq-ordered with timed stages, and
/// the stats of a reactor that decided them.
fn timelines(ops: &mut Conn, world: &mut World, now: SimTime) {
    let mut ask = |query| ops.ops(query, world, now);
    let OpsReport::RecentTraces { traces } = ask(OpsQuery::RecentTraces) else {
        panic!("expected recent traces");
    };
    assert!(traces.len() >= 2, "both submissions minted traces");
    let timelines: Vec<_> = (traces.into_iter())
        .map(|id| match ask(OpsQuery::Trace { id }) {
            OpsReport::Trace { spans, .. } => spans,
            other => panic!("{other:?}"),
        })
        .collect();
    let stages_of = |task: u64| -> Vec<Stage> {
        let spans = timelines.iter().find(|s| s.iter().any(|s| s.task == task));
        let spans = spans.unwrap();
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
        let timed = [Stage::Plan, Stage::JournalAppend, Stage::Activate];
        for s in spans.iter().filter(|s| timed.contains(&s.stage)) {
            assert!(s.duration_ns > 0, "{s:?} is timed");
        }
        spans.iter().map(|s| s.stage).collect()
    };
    use Stage::*;
    assert_eq!(stages_of(1), [EdgeReceive, Route, Plan, JournalAppend]);
    let activation = [Reserve, JournalAppend, Route, Activate, PushUpdate];
    assert_eq!(stages_of(2)[..2], [EdgeReceive, Plan]);
    assert_eq!(stages_of(2)[2..], activation, "through the push");
    let OpsReport::Stats { samples, .. } = ask(OpsQuery::Stats) else {
        panic!("expected stats");
    };
    let get = |name| samples.iter().find(|s| s.name == name).map(|s| s.value);
    let two = ["rtdls_edge_submits", "rtdls_gateway_submitted"];
    assert_eq!(two.map(get), [Some(2.0); 2]);
    let one = [
        "rtdls_gateway_reservations_activated",
        "rtdls_edge_updates_pushed",
    ];
    assert_eq!(one.map(get), [Some(1.0); 2]);
    assert_eq!(get("rtdls_edge_pending"), Some(0.0), "the promise resolved");
    assert!(get("rtdls_journal_events_appended") >= Some(2.0));
}

/// The SLO story: a flash crowd walks the acceptance alarm healthy →
/// burning → breached as watched through `Ops::Slo`; each breach journals
/// a forensic record (offenders, timelines); a kill and a restart from the
/// WAL keep the latched breach counts; and the restarted edge's `Explain`
/// counterfactual admits at its suggestion, not 0.1% tighter.
#[test]
fn a_flash_crowd_breach_is_observable_forensic_and_durable_over_the_wire() {
    let mut spec = WorkloadSpec::paper_baseline(0.4);
    let scale = spec.mean_interarrival();
    spec.horizon = 400.0 * scale;
    let (at, duration) = (150.0 * scale, 80.0 * scale);
    let crowd = FlashCrowd {
        at,
        duration,
        rate_factor: 12.0,
    };
    let tasks: Vec<Task> = crowd.stream(spec, 99).collect();
    assert!(tasks.len() > 500, "real traffic, got {}", tasks.len());
    // max_queue 0: overload rejects outright, feeding the SLO at decide
    // time. The tracker goes in the way recovery installs one.
    let mut image = GatewaySnapshot::capture(&baseline_gateway(2));
    image.defer.policy.max_queue = 0;
    let (short_window, long_window) = (30.0 * scale, 150.0 * scale);
    image.slo = SloTracker::new(SloPolicy {
        acceptance_target: 0.93,
        short_window,
        long_window,
        ..SloPolicy::default()
    });
    let journal = JournalConfig {
        snapshot_every: 100_000,
        compact_on_snapshot: false,
    };
    let end = SimTime::new(spec.horizon);
    let restart = SimTime::new(spec.horizon + 1e3);
    let scenario = Scenario::new(journal).kill(Kill::At(restart), Comeback::Image);
    let gateways = vec![image.restore().unwrap()];
    let mut world = World::edge(gateways, scenario, EdgeConfig::default());
    world.reactors_mut()[0].set_telemetry(&Telemetry::with_defaults());
    let net = world.net().clone();
    let mut client = Conn::greeted(&net, &mut world, T0);
    // The hottest acceptance state and the latched breaches.
    let acceptance = |rows: Vec<SloStatusRow>| {
        let rows = rows
            .into_iter()
            .filter(|r| r.objective == SloObjective::Acceptance);
        let rows: Vec<_> = rows.map(|r| (r.state, r.breaches)).collect();
        let hottest = rows.iter().map(|r| r.0).max_by_key(|s| s.severity());
        (
            hottest.unwrap_or(SloHealth::Healthy),
            rows.iter().map(|r| r.1).sum::<u64>(),
        )
    };
    let slo =
        |client: &mut Conn, world: &mut World, now| match client.ops(OpsQuery::Slo, world, now) {
            OpsReport::Slo { rows } => acceptance(rows),
            other => panic!("{other:?}"),
        };
    let (mut observed, mut explained) = (Vec::new(), 0);
    for (i, task) in tasks.iter().enumerate() {
        let request = SubmitRequest::new(*task).with_tenant(TenantId(1));
        let now = task.arrival;
        let verdict = client.submit(i as u64, request, &mut world, now);
        explained += matches!(
            verdict,
            Verdict::Rejected {
                explain: Some(_),
                ..
            }
        ) as usize;
        if i % 10 == 0 {
            observed.push(slo(&mut client, &mut world, now).0);
        }
    }
    assert!(explained > 0, "rejections carry explanations");
    let seen = |state| observed.iter().position(|o| *o == state);
    let breached = seen(SloHealth::Breached).expect("the crowd breaches");
    let burning = seen(SloHealth::Burning).expect("a burning phase");
    assert!(burning < breached, "burning@{burning}, breached@{breached}");
    assert!(observed[..burning].contains(&SloHealth::Healthy), "warmup");
    let breaches = slo(&mut client, &mut world, end).1;
    assert!(breaches >= 1);

    let wal = world.reactors()[0].gateway().journal().bytes();
    let (frames, tail) = decode_frames(wal);
    assert!(tail.is_clean());
    let audited: Vec<_> = (frames.iter())
        .filter_map(|f| match serde_json::from_slice(f.payload) {
            Ok(JournalEvent::SloBreach { breach }) => Some(breach),
            _ => None,
        })
        .collect();
    assert!(!audited.is_empty(), "breaches are journaled");
    for breach in &audited {
        assert_eq!(breach.version, SLO_BREACH_VERSION);
        assert_eq!(breach.row.state, SloHealth::Breached);
        if breach.transition.tenant.is_some() {
            assert!(!breach.recent_tasks.is_empty(), "offenders named");
            assert!(!breach.timelines.is_empty(), "timelines dumped");
        }
    }

    world.poll(restart);
    assert_eq!(world.record().restarted_at, Some(restart));
    let rows = world.reactors()[0].gateway().slo_rows();
    assert_eq!(acceptance(rows).1, breaches, "latched breaches survive");
    let mut client = Conn::greeted(&net, &mut world, restart);
    let at = |id, d| SubmitRequest::new(Task::new(id, restart, 30_000.0, d));
    let query = OpsQuery::Explain {
        request: at(1_000_000, 0.001),
    };
    let report = client.ops(query, &mut world, restart);
    let OpsReport::Explain {
        explanation: Some(why),
        ..
    } = report
    else {
        panic!("a hopeless request explains itself: {report:?}");
    };
    assert!(why.has_feasible_deadline());
    let min = why.min_feasible_deadline;
    let relaxed = client.submit(0, at(1_000_001, min), &mut world, restart);
    assert!(relaxed.is_accepted(), "admits at the suggested deadline");
    let tighter = client.submit(1, at(1_000_002, min * 0.999), &mut world, restart);
    assert!(matches!(tighter, Verdict::Rejected { .. }), "{tighter:?}");
}
