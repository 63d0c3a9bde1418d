//! Durable before acknowledged, under power loss at every filesystem call.
//!
//! A journaled gateway serves in turns — `decide` × k, then `drive`, whose
//! commit is the point after which the turn's verdicts may leave the
//! process — as the head node of a crash world (`rtdls-world`), over the
//! real `FileSink` on its model disk (`rtdls_world::disk::Model`): each file
//! keeps what its page cache holds and what a power loss keeps, and names
//! become durable only at a directory sync. At a chosen call the power goes
//! (in the torn variant a write in flight lands its first half) and the
//! process halts there; the journal's held turn dies with it. Whatever the
//! kill point, recovery must hold every submit of every turn whose commit
//! returned — and a second power loss during recovery's own rewrite of the
//! log must lose none of them either.
//!
//! The turns come two ways: uneven same-instant batches shaped like the
//! edge reactor's, and the discrete-event simulator's events — with node
//! releases fed back between them, outside any turn.

use rtdls::journal::recover_file_on;
use rtdls::prelude::*;
use std::ops::RangeInclusive;

use rtdls_world::disk::{every_power_loss, Call, Model};
use rtdls_world::{baseline_gateway, until_power_loss, Platter, Record, Scenario, World};

/// The log's paths on the model disk: in a directory, and a bare name,
/// whose directory `FileSink` must sync as `.` after an exchange.
const LOGS: [&str; 2] = ["/model/journal.wal", "journal.wal"];

fn requests(seed: u64, n: usize) -> Vec<SubmitRequest> {
    WorkloadGenerator::new(WorkloadSpec::paper_baseline(1.0), seed)
        .take(n)
        .map(SubmitRequest::new)
        .collect()
}

/// Uneven turns, so a run is sometimes one submit and sometimes longer
/// than the batch window.
const TURN_SIZES: [usize; 5] = [8, 3, 1, 8, 5];

/// Compactions every 24 inputs: several fall inside held turns.
const JOURNAL: JournalConfig = JournalConfig {
    snapshot_every: 24,
    compact_on_snapshot: true,
};

/// A crash world whose head journals at `log` on `disk` (armed or not)
/// under `policy`, never coming back.
fn world(log: &str, policy: FsyncPolicy, disk: &Model) -> World<Model> {
    let scenario = Scenario::new(JOURNAL).fsync(policy);
    World::on_disk(baseline_gateway(2), scenario, disk.clone(), log)
}

/// A power loss before any log was durable: nothing to recover, and
/// nothing was acknowledged.
fn assert_no_log(what: &str, survivors: &[u8]) {
    let replayed = replay::<ShardedGateway>(survivors);
    let bytes = survivors.len();
    let no_log = matches!(replayed, Err(JournalError::NoSnapshot));
    assert!(no_log, "{what}: a log survived the genesis ({bytes} bytes)");
}

/// Each log path under each fsync policy.
fn logs_and_policies() -> impl Iterator<Item = (&'static str, FsyncPolicy)> {
    let policies = [FsyncPolicy::Batch(16), FsyncPolicy::EveryAppend];
    LOGS.into_iter()
        .flat_map(move |log| policies.map(|policy| (log, policy)))
}

/// What a run left behind.
struct Outcome {
    /// The disk as the power loss left it.
    disk: Model,
    /// The sink's counters (on a run that was not killed).
    stats: Option<SinkStats>,
    /// After each turn whose commit returned: submits so far, and the
    /// gateway's state. Empty if the power went in the genesis.
    committed: Vec<(u64, GatewaySnapshot)>,
}

/// Serves `requests` in uneven same-instant turns, as an edge reactor
/// would, until they run out or `disk` loses power.
fn serve_turns(log: &str, requests: &[SubmitRequest], policy: FsyncPolicy, disk: Model) -> Outcome {
    let mut world = world(log, policy, &disk);
    let (mut committed, mut rest) = (Vec::new(), requests);
    let mut sizes = TURN_SIZES.iter().cycle();
    while let Some(gateway) = world.gateway() {
        let acknowledged = world.record().acknowledged;
        committed.push((acknowledged, GatewaySnapshot::capture(gateway.inner())));
        let (turn, later) = rest.split_at((*sizes.next().unwrap()).min(rest.len()));
        let Some(now) = turn.last().map(|r| r.task.arrival) else {
            break;
        };
        rest = later;
        for request in turn {
            let _ = world.decide(request, now);
        }
        world.drive(now);
    }
    let stats = world.gateway().and_then(|g| g.journal().sink_stats());
    // A graceful stop would write; a crash world's head never stops so.
    std::mem::forget(world);
    Outcome {
        disk,
        stats,
        committed,
    }
}

#[test]
fn power_loss_at_every_sink_call_keeps_every_committed_turn() {
    let requests = requests(17, 60);
    let arrivals: Vec<Task> = requests.iter().map(|r| r.task).collect();
    for (log, policy) in logs_and_policies() {
        let whole = serve_turns(log, &requests, policy, Model::new(log));
        assert_eq!(whole.committed.last().unwrap().0, requests.len() as u64);
        let (turns, stats) = (whole.committed.len() as u64 - 1, whole.stats.unwrap());
        assert!(
            stats.writes <= 1 + turns && stats.syncs <= 1 + turns,
            "{log}, {policy:?}: at most a hand-over and a flush per turn, got {stats:?} \
             for {turns} turns"
        );
        let rewrites = whole.disk.exchanges();
        assert!(
            rewrites >= 3,
            "{log}, {policy:?}: compactions fell inside the run ({rewrites} rewrites)"
        );
        every_power_loss(whole.disk.calls(), |call, torn| {
            let run = serve_turns(log, &requests, policy, Model::new(log).armed(call, torn));
            let killed = run.disk.killed();
            let what =
                format!("{log}, {policy:?}, killed at call {call} ({killed:?}), torn={torn}");
            let survivors = run.disk.survivors();
            let Some(acknowledged) = run.committed.len().checked_sub(1) else {
                assert_no_log(&what, &survivors);
                return killed;
            };
            // At least every turn acknowledged, at most the dying one.
            let (floor, _) = whole.committed[acknowledged];
            let (ceiling, _) = whole.committed[acknowledged + 1];
            let gateway = replay_survivors(&what, &survivors, floor..=ceiling, torn, &arrivals);
            if !torn {
                // Whole runs or nothing: the survivors end on a turn
                // boundary and replay to exactly the state the live gateway
                // had there.
                let held = gateway.metrics().submitted;
                let boundary = whole.committed.iter().find(|(submits, _)| *submits == held);
                let boundary =
                    boundary.unwrap_or_else(|| panic!("{what}: {held} is no turn boundary"));
                assert_eq!(GatewaySnapshot::capture(&gateway), boundary.1, "{what}");
            }
            killed
        });
    }
}

/// Replays what survived a power loss, which must hold a submit count in
/// `bounds` and, unless a write was torn, end on a clean tail; the full
/// recovery (re-verification, fresh journal) must accept the same bytes.
fn replay_survivors(
    what: &str,
    survivors: &[u8],
    bounds: RangeInclusive<u64>,
    torn: bool,
    arrivals: &[Task],
) -> ShardedGateway {
    let (gateway, report) =
        replay::<ShardedGateway>(survivors).unwrap_or_else(|e| panic!("{what}: {e}"));
    let held = gateway.metrics().submitted;
    assert!(
        bounds.contains(&held),
        "{what}: recovered {held}, not in {bounds:?}"
    );
    let torn_tail = matches!(report.tail, TailStatus::Truncated { .. });
    assert!(
        report.tail.is_clean() || torn && torn_tail,
        "{what}: {:?}",
        report.tail
    );
    let now = arrivals[held.max(1) as usize - 1].arrival;
    let (recovered, _) =
        recover(survivors, now, JOURNAL, None).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(recovered.metrics().submitted, held, "{what}");
    gateway
}

/// The kill points a crash test must reach, by where the power went:
/// between the spare's `sync_data` and the exchange, between the exchange
/// and the directory sync, inside a zero-fill write, and (counted apart)
/// before the genesis log was durable.
#[derive(Debug, Default)]
struct Reached {
    before_exchange: usize,
    before_dir_sync: usize,
    zero_fill: usize,
    genesis: usize,
}

impl Reached {
    fn count(&mut self, killed: Option<Call>) {
        match killed {
            Some(Call::Exchange) => self.before_exchange += 1,
            Some(Call::SyncDir) => self.before_dir_sync += 1,
            Some(Call::Write { zeros: true }) => self.zero_fill += 1,
            _ => {}
        }
    }
}

#[test]
fn a_second_power_loss_in_the_post_recovery_rewrite_keeps_every_committed_turn() {
    let requests = requests(17, 60);
    let policy = FsyncPolicy::Batch(16);
    let mut reached = Reached::default();
    for log in LOGS {
        let whole = serve_turns(log, &requests, policy, Model::new(log));
        for call in 0..whole.disk.calls() {
            let run = serve_turns(log, &requests, policy, Model::new(log).armed(call, false));
            let disk = run.disk;
            reached.count(disk.killed());
            let what = format!("{log}, first power loss at call {call}");
            let Some(&(acknowledged, _)) = run.committed.last() else {
                reached.genesis += 1;
                assert_no_log(&what, &disk.survivors());
                continue;
            };
            // Recovery after the crash (`recover_file_with_policy` on the
            // model: read the log, recover, attach a sink that keeps the file
            // until its atomic rewrite), cut by a second power loss at call
            // `second` of it.
            let crashed = disk.reboot();
            let bytes = FileSink::read_on(&crashed, log).unwrap();
            let held = replay::<ShardedGateway>(&bytes)
                .unwrap()
                .0
                .metrics()
                .submitted;
            assert!(
                held >= acknowledged,
                "{what}: recovered {held} < {acknowledged}"
            );
            let now = requests[held.max(1) as usize - 1].task.arrival;
            let rewrite = |second: usize| {
                let disk = crashed.reboot().armed(second, false);
                let recovered =
                    until_power_loss(|| recover_file_on(disk.clone(), log, now, JOURNAL, policy));
                if let Some(recovered) = recovered {
                    let (recovered, _) = recovered.unwrap_or_else(|e| panic!("{what}: {e}"));
                    std::mem::forget(recovered);
                }
                disk
            };
            // The last `second` cuts the power right after recovery returned.
            let calls = rewrite(usize::MAX).calls();
            for second in 0..=calls {
                let disk = rewrite(second);
                reached.count(disk.killed());
                let survivors = disk.survivors();
                let (gateway, _) = replay::<ShardedGateway>(&survivors)
                    .unwrap_or_else(|e| panic!("{what}, second at call {second}: {e}"));
                assert_eq!(
                    gateway.metrics().submitted,
                    held,
                    "{what}, second at call {second} ({:?})",
                    disk.killed()
                );
            }
        }
    }
    // Every window of the sink's rewrite was cut at least once, so a change
    // to `FileSink` cannot drop one from this test unnoticed.
    assert!(
        reached.before_exchange > 0
            && reached.before_dir_sync > 0
            && reached.zero_fill > 0
            && reached.genesis > 0,
        "{reached:?}"
    );
}

/// The simulator serves `tasks` strictly on a world over `disk`, until they
/// are done or the head is: the record, and the disk.
fn simulate(log: &str, tasks: &[Task], policy: FsyncPolicy, disk: Model) -> (Record, Model) {
    let world = world(log, policy, &disk);
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT).strict();
    let mut sim = Simulation::with_frontend(cfg, world);
    sim.prime(tasks.iter().copied());
    while sim.frontend().gateway().is_some() && sim.step() {}
    let record = sim.frontend().record();
    if sim.frontend().gateway().is_none() {
        std::mem::forget(sim);
    } else {
        let (_, world) = sim.finish();
        std::mem::forget(world);
    }
    (record, disk)
}

#[test]
fn power_loss_in_a_simulated_run_keeps_every_completed_arrival() {
    let tasks: Vec<Task> = requests(23, 12).into_iter().map(|r| r.task).collect();
    for (log, policy) in logs_and_policies() {
        let (whole, whole_disk) = simulate(log, &tasks, policy, Model::new(log));
        assert_eq!(whole.acknowledged, tasks.len() as u64);
        every_power_loss(whole_disk.calls(), |call, torn| {
            let what = format!("{log}, {policy:?}, killed at call {call}, torn={torn}");
            let (run, disk) = simulate(log, &tasks, policy, Model::new(log).armed(call, torn));
            let survivors = disk.survivors();
            if run.stillborn {
                assert_no_log(&what, &survivors);
            } else {
                // At least every completed arrival, at most every decided.
                let bounds = run.acknowledged..=run.decided;
                replay_survivors(&what, &survivors, bounds, torn, &tasks);
            }
            disk.killed()
        });
    }
}
