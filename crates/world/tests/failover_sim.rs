//! The capstone failover acceptance test.
//!
//! One seeded scenario exercises the whole tentpole: a sharded journaled
//! primary ships its log through a lossy, reordering, duplicating link; a
//! netsplit opens; the primary is killed mid-split with admitted work
//! still waiting; the follower promotes on heartbeat silence after the
//! split heals, re-admits strictly (demotions journaled under the new
//! epoch), and the zombie primary's late appends bounce off the epoch
//! fence. The promoted state must equal a reference recovery of the
//! shipped prefix (the world asserts it at every promotion), and the whole
//! scenario must replay bit-identically from its seed.

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_journal::wire::{decode_frames, RecordKind};
use rtdls_replica::prelude::*;
use rtdls_sim::config::SimConfig;
use rtdls_sim::engine::{SimReport, Simulation};
use rtdls_telemetry::{Stage, Telemetry};
use rtdls_world::{baseline_gateway, Comeback, FaultPlan, Follow, Kill, Scenario, World};

const KILL_AT: f64 = 2_000.0;
const SPLIT_FROM: f64 = 1_910.0;
const SPLIT_UNTIL: f64 = 2_600.0;
const PROMOTE_AFTER: f64 = 2_000.0;

/// Genesis-only snapshots: the shipped prefix is the primary's whole log,
/// so every frame it ever journaled reaches the reference recovery.
const GENESIS_ONLY: JournalConfig = JournalConfig {
    snapshot_every: 0,
    compact_on_snapshot: false,
};

/// Periodic snapshots that compact the log: the bit-identity check runs
/// this arm too, so snapshots written mid-run are compared byte for byte.
const COMPACTING: JournalConfig = JournalConfig {
    snapshot_every: 64,
    compact_on_snapshot: true,
};

/// The scripted workload. Absolute-time landmarks:
///
/// * steady phase (0‥1800): replicates under loss/reordering/duplication;
/// * a stacked burst at 1900 whose tail is still *waiting* when the
///   primary dies — its staggered deadlines were admitted with slack that
///   the long outage consumes, so strict re-admission at promotion must
///   demote the tightest survivors;
/// * arrivals inside the netsplit window (1950, 1980): admitted and
///   journaled by the primary but never shipped — they die with it (the
///   zombie's content);
/// * arrivals during the outage (2200, 2400): nobody answers — lost;
/// * post-promotion arrivals (4200‥6300): served by the new primary.
fn workload() -> Vec<Task> {
    let mut tasks = Vec::new();
    for i in 0..12u64 {
        tasks.push(Task::new(i, i as f64 * 150.0, 20.0, 1_200.0));
    }
    for k in 0..10u64 {
        tasks.push(Task::new(
            100 + k,
            1_900.0,
            60.0,
            1_000.0 + 400.0 * k as f64,
        ));
    }
    tasks.push(Task::new(200, 1_950.0, 30.0, 5_000.0));
    tasks.push(Task::new(201, 1_980.0, 30.0, 5_000.0));
    tasks.push(Task::new(210, 2_200.0, 20.0, 4_000.0));
    tasks.push(Task::new(211, 2_400.0, 20.0, 4_000.0));
    for i in 0..8u64 {
        tasks.push(Task::new(
            300 + i,
            4_200.0 + i as f64 * 300.0,
            20.0,
            8_000.0,
        ));
    }
    // The simulator orders arrivals by (time, id) itself.
    tasks
}

fn scenario(seed: u64, journal: JournalConfig) -> Scenario {
    Scenario::new(journal)
        .kill(Kill::At(SimTime::new(KILL_AT)), Comeback::Promote)
        .follow(Follow {
            link: FaultPlan::clean(seed)
                .with_loss(0.05)
                .with_duplication(0.10)
                .with_delay(1.0, 8.0)
                .with_split(SimTime::new(SPLIT_FROM), SimTime::new(SPLIT_UNTIL)),
            acks: FaultPlan::clean(seed.wrapping_mul(31).wrapping_add(7)).with_delay(1.0, 5.0),
            ship: ShipConfig {
                heartbeat_every: 40.0,
                retransmit_after: 120.0,
            },
            follower: FollowerConfig {
                promote_after: PROMOTE_AFTER,
            },
        })
}

fn sim_cfg() -> SimConfig {
    SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT)
        .with_tenants(TenantMix::uniform(3))
}

/// Runs `tasks` through `world` to completion, non-strict: a failover
/// loses in-flight guarantees by design (the outage window rejects,
/// unshipped admissions die with the primary), so it is judged by its
/// record instead.
fn run_world(cfg: SimConfig, world: World, tasks: Vec<Task>) -> (SimReport, World) {
    Simulation::with_frontend(cfg, world).run_returning_frontend(tasks)
}

fn run(seed: u64, journal: JournalConfig) -> (SimReport, World) {
    let world = World::new(baseline_gateway(2), scenario(seed, journal));
    run_world(sim_cfg(), world, workload())
}

/// Task ids carried by the submissions of a WAL.
fn submitted_ids(bytes: &[u8]) -> Vec<u64> {
    let (frames, _) = decode_frames(bytes);
    frames
        .iter()
        .filter_map(|f| match JournalEvent::decode_input(f.payload).ok()?? {
            JournalEvent::RequestSubmitted { request, .. } => Some(request.task.id.0),
            _ => None,
        })
        .collect()
}

#[test]
fn killed_primary_under_netsplit_fails_over_and_fences_the_zombie() {
    let (report, world) = run(42, GENESIS_ONLY);
    let out = world.record();

    // The kill fired at its scheduled instant, inside the netsplit.
    let killed_at = out.killed_at.expect("primary was killed");
    assert_eq!(killed_at, SimTime::new(KILL_AT));
    assert!(killed_at > SimTime::new(SPLIT_FROM) && killed_at < SimTime::new(SPLIT_UNTIL));
    assert!(out.link.split_dropped > 0, "the split actually ate traffic");
    assert!(out.link.lost > 0 && out.link.duplicated > 0);

    // The follower promoted on heartbeat silence — after the split healed
    // (netsplit-then-heal: the heal alone must not resurrect the dead
    // primary in the failure detector) — under the next epoch.
    let promoted_at = out.promoted_at.expect("follower promoted");
    assert!(promoted_at > killed_at);
    assert!(promoted_at > SimTime::new(SPLIT_UNTIL));
    let promotion = out.promotion.clone().expect("promotion record");
    assert_eq!(promotion.epoch, 1);
    let follower = world.follower().expect("the follower is the fence");
    assert_eq!(follower.epoch(), 1);

    // Strict re-admission journaled demotions: part of the burst stack was
    // still waiting, and the outage consumed its admission-time slack.
    assert!(
        !promotion.demoted.is_empty(),
        "the outage made waiting work infeasible: {promotion:?}"
    );

    // The zombie existed (the primary died with unacked appends) and every
    // late frame it shipped was fenced — follower state frozen since
    // promotion, mirror byte-identical to the shipped prefix.
    assert!(out.zombie_frames > 0, "netsplit left an unacked tail");
    assert!(out.follower.fenced >= out.zombie_frames);
    assert_eq!(follower.bytes(), &out.shipped_prefix[..]);
    assert_eq!(follower.next_seq() as usize, {
        let (frames, _) = decode_frames(&out.shipped_prefix);
        frames.len()
    });

    // The in-split arrivals were admitted and journaled by the primary but
    // the split kept them out of the shipped prefix: real, provably lost
    // write history — the zombie's content.
    let primary_saw = submitted_ids(&out.primary_wal);
    let follower_saw = submitted_ids(&out.shipped_prefix);
    for id in [200u64, 201u64] {
        assert!(primary_saw.contains(&id), "primary journaled task {id}");
        assert!(
            !follower_saw.contains(&id),
            "task {id} must not have reached the follower"
        );
        assert!(
            world.plan_of(TaskId(id)).is_none(),
            "task {id} must not survive into the promoted gateway"
        );
    }

    // The new primary's genesis is journaled under the bumped epoch (the
    // world checked that the demotions follow it).
    let promoted_wal = world.gateway().expect("promoted gateway").journal();
    assert_eq!(promoted_wal.epoch(), 1);
    let (frames, tail) = decode_frames(promoted_wal.bytes());
    assert!(tail.is_clean() && frames[0].kind == RecordKind::Snapshot);
    let genesis: GatewaySnapshot = serde_json::from_slice(frames[0].payload).unwrap();
    assert_eq!(genesis.epoch, 1);

    // Life goes on: the outage window bounced arrivals, the promoted
    // primary served the post-outage ones.
    assert!(
        out.lost_submissions > 0,
        "the outage window rejected arrivals"
    );
    assert!(report.metrics.completed > 0);
}

#[test]
fn one_trace_id_reconstructs_the_cross_node_timeline_after_failover() {
    // Two recorders model two processes: the primary's dies with the kill;
    // only the follower's survives to answer timeline queries.
    let primary_recorder = Telemetry::with_defaults();
    let follower_recorder = Telemetry::with_defaults();
    let mut world = World::new(baseline_gateway(2), scenario(42, GENESIS_ONLY));
    world.attach_telemetry(&primary_recorder, &follower_recorder);
    let (_report, world) = run_world(sim_cfg(), world, workload());
    assert!(
        world.record().promoted_at.is_some(),
        "scenario must fail over"
    );

    // Task 1 was admitted, journaled, and shipped long before the kill.
    // Drop the primary's recorder — the query must succeed without it.
    drop(primary_recorder);
    let trace = follower_recorder
        .trace_of(1)
        .expect("shipped frame re-associated task 1 with its trace");
    let spans = follower_recorder.trace_spans(trace);
    assert!(spans.iter().all(|s| s.trace == trace));
    let position = |stage: Stage| spans.iter().position(|s| s.stage == stage);
    let plan_at = position(Stage::Plan).expect("primary's plan span shipped across");
    let append_at = position(Stage::JournalAppend).expect("primary's append span shipped across");
    let ship_at = position(Stage::ShipFrame).expect("primary's ship span shipped across");
    let replay_at = position(Stage::FollowerReplay).expect("follower recorded its replay");
    let promote_at = position(Stage::Promote).expect("promotion fenced the trace");
    assert!(
        plan_at < ship_at && append_at < ship_at && ship_at < replay_at && replay_at < promote_at,
        "timeline out of order: {spans:#?}"
    );
    assert!(
        spans[promote_at].outcome.contains("epoch 1"),
        "promotion span names the new epoch: {:?}",
        spans[promote_at]
    );

    // Post-promotion mints must not collide with ingested primary ids.
    let fresh = follower_recorder.mint();
    assert!(
        fresh > trace,
        "local mint counter was fenced past ingested traces"
    );
}

#[test]
fn the_whole_scenario_replays_bit_identically_from_its_seed() {
    for journal in [GENESIS_ONLY, COMPACTING] {
        for seed in 42..=49 {
            let (r1, w1) = run(seed, journal);
            let (r2, w2) = run(seed, journal);
            // The record covers every byte that matters: the shipped
            // prefix, the promoted genesis snapshot, the dead primary's
            // WAL, all link/follower/shipper counters.
            let out = w1.record();
            assert_eq!(out, w2.record(), "{journal:?} seed {seed}");
            // Every seed fails over. The world held the mirror to a prefix
            // of the primary's WAL after every event, and the promotion to
            // a recovery of what was shipped (cold replay + the buffered
            // outage releases + the same strict re-admission pass at the
            // promotion instant, bit for bit) with its demotions journaled.
            assert!(out.promoted_genesis.is_some(), "{journal:?} seed {seed}");
            assert_eq!(r1.metrics.accepted, r2.metrics.accepted);
            assert_eq!(r1.metrics.rejected, r2.metrics.rejected);
            assert_eq!(r1.metrics.completed, r2.metrics.completed);
            assert_eq!(r1.metrics.deadline_misses, r2.metrics.deadline_misses);
            if journal.compact_on_snapshot {
                // The primary compacted before it died: its log opens on a
                // snapshot taken mid-run, not on the genesis image.
                let (frames, _) = decode_frames(&out.primary_wal);
                let opening: GatewaySnapshot = serde_json::from_slice(frames[0].payload).unwrap();
                assert!(opening.metrics.submitted > 0, "seed {seed}");
            }

            // A different seed misbehaves differently.
            let (_, w3) = run(seed + 1, journal);
            assert_ne!(out, w3.record(), "{journal:?} seed {seed}");
        }
    }
}

#[test]
fn the_control_arm_never_kills_and_never_promotes() {
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT);
    let control = Scenario::new(GENESIS_ONLY).follow(Follow::clean(7));
    let (report, world) = run_world(
        cfg,
        World::new(baseline_gateway(2), control),
        (0..10u64)
            .map(|i| Task::new(i, i as f64 * 200.0, 20.0, 2_000.0))
            .collect(),
    );
    let out = world.record();
    assert_eq!(out.killed_at, None);
    assert_eq!(out.promoted_at, None);
    assert_eq!(out.lost_submissions, 0);
    assert!(!world.follower().unwrap().promoted());
    assert_eq!(report.metrics.completed, report.metrics.accepted);
    assert_eq!(report.metrics.deadline_misses, 0);
}

#[test]
fn over_clean_links_the_kill_fires_on_time_in_an_idle_tail() {
    // Zero-delay links: every frame and heartbeat a turn ships reaches the
    // follower, and its ack the primary, inside that turn. The channel's
    // only remaining timers are the heartbeat cadence and the kill, so the
    // kill lands at its instant with the cluster long idle.
    let kill_at = SimTime::new(5_000.3);
    let scenario = Scenario::new(GENESIS_ONLY)
        .kill(Kill::At(kill_at), Comeback::Promote)
        .follow(Follow::clean(11));
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT);
    let tasks = (0..5u64)
        .map(|i| Task::new(i, i as f64 * 100.0, 20.0, 2_000.0))
        .collect();
    let (report, world) = run_world(cfg, World::new(baseline_gateway(2), scenario), tasks);
    let out = world.record();
    assert_eq!(report.metrics.accepted, 5);
    assert_eq!(report.metrics.completed, 5);
    assert_eq!(out.killed_at, Some(kill_at), "the kill fired on time");
    assert_eq!(
        out.zombie_frames, 0,
        "every frame was acked before the kill"
    );
    assert_eq!(out.shipped_prefix, out.primary_wal);
    let ship = ShipConfig::default();
    let silence = FollowerConfig::default().promote_after;
    let promoted_at = out.promoted_at.expect("the follower promoted").as_f64();
    assert!(
        promoted_at > kill_at.as_f64() - ship.heartbeat_every + silence
            && promoted_at <= kill_at.as_f64() + silence,
        "promoted {silence} after the last heartbeat: {promoted_at}"
    );
    assert!(out.promoted_genesis.is_some());
}

#[test]
fn a_dispatch_the_standby_never_heard_of_runs_once() {
    // The one path on which a task's dispatch is offered twice: the primary
    // accepts A (shipped and acked), dispatches it in a later turn whose
    // frames a netsplit eats, and dies. The promoted standby still holds A
    // as waiting, re-admits it and offers it again; the engine has already
    // run it and drops the second offer.
    let params = ClusterParams::paper_baseline();
    // B takes all sixteen nodes at once; A waits behind it with room to
    // spare, so its dispatch is a turn of its own.
    let e16 = rtdls_core::dlt::homogeneous::exec_time(&params, 200.0, 16);
    let a = Task::new(2, 10.0, 20.0, 1e6);
    let tasks = vec![Task::new(1, 0.0, 200.0, e16 * 1.01), a];
    let cfg = SimConfig::new(params, AlgorithmKind::EDF_DLT).with_trace();
    let run = |scenario: Scenario| {
        let mut sim = Simulation::with_frontend(cfg, World::new(baseline_gateway(1), scenario));
        sim.prime(tasks.clone());
        while sim.step() {}
        let duplicates = sim.duplicate_dispatches();
        let (report, world) = sim.finish();
        (report, world.record(), duplicates)
    };

    let (control, _, duplicates) = run(Scenario::new(GENESIS_ONLY).follow(Follow::clean(5)));
    assert_eq!(duplicates, 0);
    let trace = control.trace.expect("traced");
    let chunks = trace.task_chunks(a.id).count();
    let dispatched_at = trace.task_chunks(a.id).next().expect("A ran").tx_start;
    assert!(dispatched_at > a.arrival, "A waited for B's nodes");

    let kill_at = SimTime::new(dispatched_at.as_f64() + 1.0);
    let split = FaultPlan::clean(5).with_split(dispatched_at, SimTime::new(kill_at.as_f64() + 1.0));
    let (report, out, duplicates) = run(Scenario::new(GENESIS_ONLY)
        .kill(Kill::At(kill_at), Comeback::Promote)
        .follow(Follow {
            link: split,
            ..Follow::clean(5)
        }));
    assert_eq!(out.killed_at, Some(kill_at));
    assert!(out.promoted_at.is_some(), "the standby took over");
    assert!(
        out.link.split_dropped > 0,
        "the dispatch's frames were lost"
    );
    assert_eq!(duplicates, 1, "the standby offered A again");
    let trace = report.trace.expect("traced");
    assert_eq!(trace.task_chunks(a.id).count(), chunks, "A ran once");
    assert_eq!(
        trace.task_chunks(a.id).next().map(|c| c.tx_start),
        Some(dispatched_at)
    );
    assert_eq!(report.metrics.accepted, 2);
    assert_eq!(report.metrics.completed, 2);
    assert_eq!(report.metrics.deadline_misses, 0);
}
