//! The capstone failover acceptance test.
//!
//! One seeded scenario exercises the whole tentpole: a sharded journaled
//! primary ships its log through a lossy, reordering, duplicating link; a
//! netsplit opens; the primary is killed mid-split with admitted work
//! still waiting; the follower promotes on heartbeat silence after the
//! split heals, re-admits strictly (demotions journaled under the new
//! epoch), and the zombie primary's late appends bounce off the epoch
//! fence. The promoted state must equal a reference recovery of the
//! shipped prefix, and the whole scenario must replay bit-identically
//! from its seed.

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_journal::wire::{decode_frames, RecordKind};
use rtdls_replica::prelude::*;
use rtdls_service::prelude::*;
use rtdls_sim::config::SimConfig;
use rtdls_sim::engine::{SimReport, Simulation};
use rtdls_sim::net::FaultPlan;
use rtdls_telemetry::{Stage, Telemetry};

const KILL_AT: f64 = 2_000.0;
const SPLIT_FROM: f64 = 1_910.0;
const SPLIT_UNTIL: f64 = 2_600.0;
const PROMOTE_AFTER: f64 = 2_000.0;

/// Byte-determinism requires genesis-only snapshots: later snapshots embed
/// wall-clock latency histograms, the one thing replay cannot reproduce.
fn journal_cfg() -> JournalConfig {
    JournalConfig {
        snapshot_every: 0,
        compact_on_snapshot: false,
    }
}

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
    JournaledGateway::new(gateway, journal_cfg())
}

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
    tasks.sort_by(|a, b| {
        a.arrival
            .as_f64()
            .total_cmp(&b.arrival.as_f64())
            .then(a.id.0.cmp(&b.id.0))
    });
    tasks
}

fn plan(seed: u64) -> FailoverPlan {
    FailoverPlan::kill_at(SimTime::new(KILL_AT), seed)
        .with_fault(
            FaultPlan::clean(seed)
                .with_loss(0.05)
                .with_duplication(0.10)
                .with_delay(1.0, 8.0)
                .with_split(SimTime::new(SPLIT_FROM), SimTime::new(SPLIT_UNTIL)),
        )
        .with_ack_fault(
            FaultPlan::clean(seed.wrapping_mul(31).wrapping_add(7)).with_delay(1.0, 5.0),
        )
        .with_ship(ShipConfig {
            heartbeat_every: 40.0,
            retransmit_after: 120.0,
        })
        .with_follower(FollowerConfig {
            promote_after: PROMOTE_AFTER,
        })
        .with_journal(journal_cfg())
}

fn run(seed: u64) -> (SimReport, ReplicaFrontend<ShardedGateway>) {
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT)
        .with_tenants(TenantMix::uniform(3));
    run_failover(cfg, primary(), plan(seed), workload())
}

/// Task ids carried by the input (submission) events of a WAL.
fn submitted_ids(bytes: &[u8]) -> Vec<u64> {
    let (frames, _) = decode_frames(bytes);
    frames
        .iter()
        .filter(|f| f.kind == RecordKind::Event)
        .filter_map(|f| {
            let ev: JournalEvent =
                serde_json::from_str(std::str::from_utf8(&f.payload).ok()?).ok()?;
            match ev {
                JournalEvent::Submitted { task, .. } => Some(vec![task.id.0]),
                JournalEvent::RequestSubmitted { request, .. } => Some(vec![request.task.id.0]),
                JournalEvent::BatchSubmitted { tasks, .. } => {
                    Some(tasks.iter().map(|t| t.id.0).collect())
                }
                _ => None,
            }
        })
        .flatten()
        .collect()
}

/// The promoted gateway's state equals a reference recovery of the
/// shipped prefix: cold replay + the buffered outage releases + the same
/// strict re-admission pass at the promotion instant.
fn assert_promotion_is_a_recovery_of_the_shipped_prefix(out: &FailoverOutcome) {
    let promoted_at = out.promoted_at.expect("follower promoted");
    let promotion = out.promotion.clone().expect("promotion record");
    let (mut reference, replay_report) =
        replay::<ShardedGateway>(&out.shipped_prefix).expect("shipped prefix replays");
    assert!(replay_report.tail.is_clean());
    for &(node, time) in &out.buffered_releases {
        reference.node_released(node, time);
    }
    let _ = reference.book_mut().take_breach_log();
    let (reference, ref_demoted) = requalify(reference, promoted_at, journal_cfg(), None, 1);
    let genesis = out.promoted_genesis.clone().expect("promotion snapshot");
    let ref_state = reference.inner().capture().normalized();
    assert_eq!(
        genesis.shards, ref_state.shards,
        "per-shard ControllerState diverged from the reference recovery"
    );
    assert_eq!(genesis, ref_state, "full gateway state diverged");
    assert_eq!(promotion.demoted, ref_demoted);
}

#[test]
fn killed_primary_under_netsplit_fails_over_and_fences_the_zombie() {
    let (report, frontend) = run(42);
    let out = frontend.outcome();

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
    assert_eq!(frontend.follower().epoch(), 1);

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
    assert_eq!(frontend.follower().bytes(), &out.shipped_prefix[..]);
    assert_eq!(frontend.follower().next_seq() as usize, {
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
            frontend.plan_of(TaskId(id)).is_none(),
            "task {id} must not survive into the promoted gateway"
        );
    }

    assert_promotion_is_a_recovery_of_the_shipped_prefix(&out);

    // Demotions (and the new primary's genesis) are journaled under the
    // bumped epoch.
    let promoted_wal = frontend.gateway().expect("promoted gateway").journal();
    assert_eq!(promoted_wal.epoch(), 1);
    let (frames, tail) = decode_frames(promoted_wal.bytes());
    assert!(tail.is_clean());
    let genesis_epoch = frames
        .iter()
        .find(|f| f.kind == RecordKind::Snapshot)
        .map(|f| {
            let snap: GatewaySnapshot =
                serde_json::from_str(std::str::from_utf8(&f.payload).unwrap()).unwrap();
            snap.epoch
        })
        .expect("promoted journal has a genesis snapshot");
    assert_eq!(genesis_epoch, 1);
    let journaled_demotions: Vec<u64> = frames
        .iter()
        .filter(|f| f.kind == RecordKind::Event)
        .filter_map(|f| {
            let ev: JournalEvent =
                serde_json::from_str(std::str::from_utf8(&f.payload).ok()?).ok()?;
            match ev {
                JournalEvent::Demoted { task, .. } => Some(task),
                _ => None,
            }
        })
        .collect();
    let expected: Vec<u64> = promotion.demoted.iter().map(|t| t.0).collect();
    assert_eq!(journaled_demotions, expected);

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
    let mut frontend = ReplicaFrontend::new(primary(), plan(42));
    frontend.attach_primary_telemetry(&primary_recorder);
    frontend.attach_follower_telemetry(&follower_recorder);
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT)
        .with_tenants(TenantMix::uniform(3));
    let mut sim = Simulation::with_frontend(cfg, frontend);
    sim.prime(workload());
    while sim.step() {}
    let (_report, frontend) = sim.finish();
    let out = frontend.outcome();
    assert!(out.promoted_at.is_some(), "scenario must fail over");

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
    for seed in 42..=49 {
        let (r1, f1) = run(seed);
        let (r2, f2) = run(seed);
        // The forensic outcome covers every byte that matters: the shipped
        // prefix, the promoted genesis snapshot, the dead primary's WAL,
        // all link/follower/shipper counters.
        assert_eq!(f1.outcome(), f2.outcome(), "seed {seed}");
        assert_eq!(r1.metrics.accepted, r2.metrics.accepted);
        assert_eq!(r1.metrics.rejected, r2.metrics.rejected);
        assert_eq!(r1.metrics.completed, r2.metrics.completed);
        assert_eq!(r1.metrics.deadline_misses, r2.metrics.deadline_misses);

        // A different seed misbehaves differently.
        let (_, f3) = run(seed + 1);
        assert_ne!(f1.outcome(), f3.outcome(), "seed {seed}");
    }
}

#[test]
fn every_seed_promotes_a_recovery_of_its_shipped_prefix() {
    for seed in 42..=49 {
        let (_, frontend) = run(seed);
        let out = frontend.outcome();
        assert_promotion_is_a_recovery_of_the_shipped_prefix(&out);
        // What reached the follower is a prefix of what the primary
        // journaled: frames leave only whole, in order, after their commit.
        assert!(
            out.primary_wal.starts_with(&out.shipped_prefix),
            "seed {seed}: the mirror is not a prefix of the primary's WAL"
        );
    }
}

#[test]
fn the_control_arm_never_kills_and_never_promotes() {
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT);
    let (report, frontend) = run_failover(
        cfg,
        primary(),
        FailoverPlan::no_kill(7),
        (0..10u64)
            .map(|i| Task::new(i, i as f64 * 200.0, 20.0, 2_000.0))
            .collect(),
    );
    let out = frontend.outcome();
    assert_eq!(out.killed_at, None);
    assert_eq!(out.promoted_at, None);
    assert_eq!(out.lost_submissions, 0);
    assert!(!frontend.follower().promoted());
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
    let plan = FailoverPlan::kill_at(kill_at, 11).with_journal(journal_cfg());
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT);
    let tasks = (0..5u64)
        .map(|i| Task::new(i, i as f64 * 100.0, 20.0, 2_000.0))
        .collect();
    let (report, frontend) = run_failover(cfg, primary(), plan, tasks);
    let out = frontend.outcome();
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
    assert_promotion_is_a_recovery_of_the_shipped_prefix(&out);
}
