//! The head node dies mid-stream and restarts from its write-ahead log,
//! inside the serving stack: the world is the one frontend the *strict*
//! simulator drives for the whole run, and the head dies and comes back
//! behind it — from the WAL image it leaves in memory, or from a WAL file.
//! Strict mode panics on any deadline miss or estimate overrun, for tasks
//! admitted before *or* after the crash, so a completing run is the proof;
//! the world itself asserts at the restart that every demotion is
//! journaled, the books balance and no acknowledged turn was lost.

use rtdls_core::prelude::*;
use rtdls_journal::disk::Std;
use rtdls_journal::prelude::*;
use rtdls_journal::wire::RecordKind;
use rtdls_service::prelude::*;
use rtdls_sim::prelude::*;
use rtdls_workload::prelude::*;
use rtdls_world::{baseline_gateway, Comeback, Kill, Scenario, World};

fn bursty_tasks(seed: u64) -> Vec<Task> {
    let mut spec = WorkloadSpec::paper_baseline(1.1);
    spec.dc_ratio = 6.0;
    spec.horizon = 50.0 * spec.mean_interarrival();
    let profile = BurstProfile {
        rate_factor: 3.0,
        ..BurstProfile::moderate(&spec)
    };
    BurstyPoisson::new(spec, profile, seed).collect()
}

/// Four shards, defer-queue-exercising.
fn gateway(plan: PlanConfig, max_retries: u32) -> ShardedGateway {
    let defer = DeferPolicy {
        max_retries,
        ..Default::default()
    };
    let (params, algorithm) = (ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT);
    ShardedGateway::new(params, 4, algorithm, plan, Routing::LeastLoaded, defer).unwrap()
}

const JOURNAL: JournalConfig = JournalConfig {
    snapshot_every: 16,
    compact_on_snapshot: true,
};

/// The strict simulator serves `bursty_tasks(7)` on a world under
/// `scenario`.
fn serve(scenario: Scenario) -> (SimReport, World) {
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT).strict();
    let world = World::new(gateway(PlanConfig::default(), 32), scenario);
    Simulation::with_frontend(cfg, world).run_returning_frontend(bursty_tasks(7))
}

#[test]
fn a_restart_before_a_chosen_turn_keeps_every_guarantee_and_every_count() {
    // The control arm: a kill past the end never fires, and nothing
    // recovers.
    let never = Kill::BeforeTurn(u64::MAX);
    let (uncrashed, world) = serve(Scenario::new(JOURNAL).kill(never, Comeback::Image));
    let record = world.record();
    assert_eq!((record.killed_at, record.restarted_at), (None, None));
    assert_eq!(uncrashed.metrics.deadline_misses, 0);
    assert_eq!(uncrashed.metrics.completed, uncrashed.metrics.accepted);
    // The run serves 192 turns; a kill at its 200th event fell before
    // turn 111, and 192 restarts before the last one.
    for kill_before in [3u64, 10, 40, 90, 111, 192] {
        let kill = Kill::BeforeTurn(kill_before);
        let (report, world) = serve(Scenario::new(JOURNAL).kill(kill, Comeback::Image));
        assert!(
            world.record().restarted_at.is_some(),
            "turn {kill_before} lies inside the run"
        );
        let m = &report.metrics;
        assert_eq!(m.deadline_misses, 0, "kill_before={kill_before}");
        assert_eq!(m.estimate_overruns, 0, "kill_before={kill_before}");
        assert_eq!(
            (m.accepted, m.rejected, m.completed),
            (
                uncrashed.metrics.accepted,
                uncrashed.metrics.rejected,
                uncrashed.metrics.completed
            ),
            "kill_before={kill_before}: the restart changed no outcome"
        );
        // The recovered gateway carried its cumulative metrics across the
        // crash: it has seen every arrival the engine delivered.
        assert_eq!(
            world.gateway().unwrap().metrics().submitted,
            m.arrivals,
            "kill_before={kill_before}: metrics survived the crash"
        );
    }
}

/// The strict simulator serves `tasks` on `gateway`, journaling under
/// `journal` to a WAL file on the real disk, killed before turn
/// `kill_before` and restarted from the file alone: the only artifact that
/// crosses the crash. The world asserts, the moment recovery returns, that
/// it rewrote the file into the recovered journal; after the run every
/// guarantee held, the metrics crossed the crash, and the file is the live
/// log: one compacted snapshot and what followed it.
fn restart_from_file(
    name: &str,
    gateway: ShardedGateway,
    plan: PlanConfig,
    journal: JournalConfig,
    kill_before: u64,
    tasks: Vec<Task>,
) {
    let pid = std::process::id();
    let path = std::env::temp_dir().join(format!("rtdls-{name}-{pid}.wal"));
    let scenario = Scenario::new(journal).kill(Kill::BeforeTurn(kill_before), Comeback::Disk);
    let world = World::on_disk(gateway, scenario, Std, &path);
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT);
    let cfg = cfg.with_plan(plan).strict();
    let (report, world) = Simulation::with_frontend(cfg, world).run_returning_frontend(tasks);
    let recovery = world
        .record()
        .recovery
        .expect("the kill fell inside the run");
    assert!(recovery.frames_decoded > 0, "recovery read the journal");
    let m = &report.metrics;
    assert_eq!((m.deadline_misses, m.estimate_overruns), (0, 0));
    let live = world.gateway().unwrap();
    assert_eq!(live.metrics().submitted, m.arrivals, "the metrics crossed");
    let wal = FileSink::read(&path).expect("read WAL");
    assert_eq!(wal, live.journal().bytes());
    let (frames, tail) = rtdls_journal::wire::decode_frames(&wal);
    assert!(tail.is_clean());
    let snapshots = frames.iter().filter(|f| f.kind == RecordKind::Snapshot);
    assert_eq!(snapshots.count(), 1, "a compacted WAL keeps one snapshot");
    drop(world);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("wal.spare"));
}

/// The full loop through a WAL *file*: a 4-shard journaled gateway serves a
/// bursty stream, dies two-thirds of the way through, is rebuilt from the
/// file alone, and finishes the stream under the strict simulator.
#[test]
fn a_restart_from_a_wal_file_finishes_with_all_guarantees() {
    let plan = PlanConfig {
        release_estimate: ReleaseEstimate::Uniform,
        ..Default::default()
    };
    // Bursty, deadline-rich, defer-queue-exercising.
    let mut spec = WorkloadSpec::paper_baseline(1.2);
    spec.dc_ratio = 6.0;
    spec.horizon = 1e5;
    let profile = BurstProfile {
        rate_factor: 4.0,
        ..BurstProfile::moderate(&spec)
    };
    let tasks: Vec<Task> = BurstyPoisson::new(spec, profile, 42).collect();
    assert!(tasks.len() > 20, "workload too small to exercise a crash");
    let journal = JournalConfig {
        snapshot_every: 64,
        compact_on_snapshot: true,
    };
    let kill_before = 2 * tasks.len() as u64 / 3;
    let gateway = gateway(plan, 64);
    restart_from_file(
        "restart-from-file",
        gateway,
        plan,
        journal,
        kill_before,
        tasks,
    );
}

/// Two shards compacting every 32 inputs die early in the stream.
#[test]
fn recovery_through_a_journal_file_survives_process_boundaries() {
    let journal = JournalConfig {
        snapshot_every: 32,
        compact_on_snapshot: true,
    };
    let (gateway, plan) = (baseline_gateway(2), PlanConfig::default());
    restart_from_file(
        "crash-recovery",
        gateway,
        plan,
        journal,
        30,
        bursty_tasks(99),
    );
}
