//! Durable before acknowledged, under power loss at every sink call.
//!
//! A journaled gateway is driven in serving turns — `decide` × k, then
//! `drive`, whose commit is the point after which the turn's verdicts may
//! leave the process — over a sink that models a disk: it keeps what was
//! written, remembers how much of that was synced, and at a chosen call
//! loses power. What survives is only the synced prefix (plus, in the torn
//! variant, the first half of the write in flight); the journal's held
//! turn dies with the process. Whatever the kill point, recovery must hold
//! every submit of every turn whose commit returned.
//!
//! Two drivers make the turns: a hand-written loop shaped like the edge
//! reactor's (uneven same-instant batches), and the discrete-event
//! simulator, whose turns are its events — with node releases fed back
//! between them, outside any turn.

use std::sync::{Arc, Mutex};

use rtdls::journal::wire::frame_count;
use rtdls::prelude::*;

#[derive(Default)]
struct Disk {
    /// The file's contents, page cache included.
    written: Vec<u8>,
    /// How much of `written` a power loss keeps.
    synced: usize,
    /// Frames written since the last sync (what `Batch` counts).
    unsynced_frames: usize,
    /// Sink calls completed, and how many of them were rewrites.
    calls: usize,
    rewrites: usize,
    /// The call during which the power goes.
    kill_at: usize,
    /// Whether an append in flight at the kill lands its first half.
    torn: bool,
    dead: bool,
}

impl Disk {
    fn sync(&mut self) {
        self.synced = self.written.len();
        self.unsynced_frames = 0;
    }

    /// Counts one sink call; `false` once the power is gone.
    fn powered(&mut self) -> bool {
        if !self.dead && self.calls == self.kill_at {
            self.dead = true;
        }
        if !self.dead {
            self.calls += 1;
        }
        !self.dead
    }
}

/// A `FileSink` in miniature over a [`Disk`]: the same policy rule, an
/// atomic rewrite, and no I/O.
struct PowerLossSink {
    disk: Arc<Mutex<Disk>>,
    policy: FsyncPolicy,
}

impl JournalSink for PowerLossSink {
    fn append(&mut self, run: &[u8]) {
        let mut disk = self.disk.lock().unwrap();
        let was_dead = disk.dead;
        if !disk.powered() {
            if !was_dead && disk.torn {
                // The write was in flight: its first half reached the
                // platter (and, writes being ordered, all before it).
                disk.written.extend_from_slice(&run[..run.len() / 2]);
                disk.sync();
            }
            return;
        }
        disk.written.extend_from_slice(run);
        let frames = frame_count(run);
        disk.unsynced_frames += frames;
        if self.policy.sync_due(frames, disk.unsynced_frames) {
            disk.sync();
        }
    }

    fn reset(&mut self, bytes: &[u8]) {
        let mut disk = self.disk.lock().unwrap();
        if disk.powered() {
            // Staged, synced, renamed: the old log or the new, never a mix.
            disk.written = bytes.to_vec();
            disk.rewrites += 1;
            disk.sync();
        }
    }

    fn flush(&mut self) {
        let mut disk = self.disk.lock().unwrap();
        if disk.powered() {
            disk.sync();
        }
    }
}

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

/// What a run left behind.
struct Outcome {
    /// What a power loss at the kill point keeps of the file.
    survivors: Vec<u8>,
    /// Sink calls completed (all of them, on a run that was not killed),
    /// and the rewrites among them.
    calls: usize,
    rewrites: usize,
    /// After each turn whose commit returned: submits so far, and the
    /// gateway's state.
    committed: Vec<(u64, GatewaySnapshot)>,
}

/// A journaled gateway over a fresh [`Disk`] that loses power at sink call
/// `kill_at`.
fn powered_gateway(
    policy: FsyncPolicy,
    kill_at: usize,
    torn: bool,
) -> (JournaledGateway<ShardedGateway>, Arc<Mutex<Disk>>) {
    let disk = Arc::new(Mutex::new(Disk {
        kill_at,
        torn,
        ..Disk::default()
    }));
    let sink = PowerLossSink {
        disk: Arc::clone(&disk),
        policy,
    };
    let gateway = ShardedGateway::new(
        ClusterParams::paper_baseline(),
        2,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let gateway = JournaledGateway::with_sink(gateway, JOURNAL, Box::new(sink));
    (gateway, disk)
}

fn drive_until_power_loss(
    requests: &[SubmitRequest],
    policy: FsyncPolicy,
    kill_at: usize,
    torn: bool,
) -> Outcome {
    let (mut gateway, disk) = powered_gateway(policy, kill_at, torn);
    let mut committed = vec![(0, gateway.inner().capture())];
    let mut rest = requests;
    let mut sizes = TURN_SIZES.iter().cycle();
    while !rest.is_empty() {
        let (turn, later) = rest.split_at((*sizes.next().unwrap()).min(rest.len()));
        rest = later;
        let now = turn.last().unwrap().task.arrival;
        for request in turn {
            let _ = gateway.decide(request, now);
        }
        gateway.drive(now);
        if disk.lock().unwrap().dead {
            // The process died somewhere in this turn: its commit never
            // returned and none of its verdicts left.
            break;
        }
        let submitted = gateway.metrics().submitted;
        committed.push((submitted, gateway.inner().capture()));
    }
    // The process is gone, and with it whatever the journal still held.
    std::mem::forget(gateway);
    let disk = disk.lock().unwrap();
    Outcome {
        survivors: disk.written[..disk.synced].to_vec(),
        calls: disk.calls,
        rewrites: disk.rewrites,
        committed,
    }
}

#[test]
fn power_loss_at_every_sink_call_keeps_every_committed_turn() {
    let requests = requests(17, 60);
    for policy in [FsyncPolicy::Batch(16), FsyncPolicy::EveryAppend] {
        let whole = drive_until_power_loss(&requests, policy, usize::MAX, false);
        assert_eq!(whole.committed.last().unwrap().0, requests.len() as u64);
        let turns = whole.committed.len() - 1;
        assert!(
            whole.calls <= 1 + 2 * turns,
            "{policy:?}: at most a hand-over and a flush per turn, got {} calls \
             for {turns} turns",
            whole.calls
        );
        assert!(
            whole.rewrites >= 3,
            "{policy:?}: compactions fell inside the run ({} rewrites)",
            whole.rewrites
        );
        // Call 0 is the genesis rewrite: a kill there leaves no log at all.
        for kill_at in 1..whole.calls {
            for torn in [false, true] {
                let what = format!("{policy:?}, killed at sink call {kill_at}, torn={torn}");
                let run = drive_until_power_loss(&requests, policy, kill_at, torn);
                let acknowledged = run.committed.len() - 1;
                let (gateway, report) = replay::<ShardedGateway>(&run.survivors)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let held = gateway.metrics().submitted;
                let (floor, _) = whole.committed[acknowledged];
                let (ceiling, _) = whole.committed[acknowledged + 1];
                assert!(
                    (floor..=ceiling).contains(&held),
                    "{what}: {acknowledged} turns acknowledged ({floor} submits), \
                     the dying turn ends at {ceiling}, recovered {held}"
                );
                if !torn {
                    // Whole runs or nothing: the survivors end on a turn
                    // boundary and replay to exactly the state the live
                    // gateway had there.
                    assert!(report.tail.is_clean(), "{what}: {:?}", report.tail);
                    let boundary = whole
                        .committed
                        .iter()
                        .find(|(submits, _)| *submits == held)
                        .unwrap_or_else(|| panic!("{what}: {held} is not a turn boundary"));
                    assert_eq!(gateway.capture(), boundary.1, "{what}");
                } else {
                    assert!(
                        matches!(
                            report.tail,
                            TailStatus::Clean | TailStatus::Truncated { .. }
                        ),
                        "{what}: {:?}",
                        report.tail
                    );
                }
                // And the full recovery (re-verification, fresh journal)
                // accepts the same bytes.
                let now = requests[held.max(1) as usize - 1].task.arrival;
                let (recovered, _) = recover::<ShardedGateway>(&run.survivors, now, JOURNAL, None)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(recovered.metrics().submitted, held, "{what}");
            }
        }
    }
}

/// What a simulator-driven run left behind.
struct SimOutcome {
    survivors: Vec<u8>,
    calls: usize,
    /// Submits decided by the events that completed while the power was
    /// on — every one of them committed — and by the event it went in.
    acknowledged: u64,
    decided: u64,
}

fn simulate_until_power_loss(
    tasks: &[Task],
    policy: FsyncPolicy,
    kill_at: usize,
    torn: bool,
) -> SimOutcome {
    let (gateway, disk) = powered_gateway(policy, kill_at, torn);
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT).strict();
    let mut sim = Simulation::with_frontend(cfg, gateway);
    sim.prime(tasks.iter().copied());
    let mut acknowledged = 0;
    let decided = loop {
        let stepped = sim.step();
        let decided = sim.frontend().metrics().submitted;
        if disk.lock().unwrap().dead || !stepped {
            break decided;
        }
        acknowledged = decided;
    };
    if !disk.lock().unwrap().dead {
        let (_, gateway) = sim.finish();
        std::mem::forget(gateway);
    } else {
        std::mem::forget(sim);
    }
    let disk = disk.lock().unwrap();
    SimOutcome {
        survivors: disk.written[..disk.synced].to_vec(),
        calls: disk.calls,
        acknowledged,
        decided,
    }
}

#[test]
fn power_loss_in_a_simulated_run_keeps_every_completed_arrival() {
    let tasks: Vec<Task> = requests(23, 12).into_iter().map(|r| r.task).collect();
    for policy in [FsyncPolicy::Batch(16), FsyncPolicy::EveryAppend] {
        let whole = simulate_until_power_loss(&tasks, policy, usize::MAX, false);
        assert_eq!(whole.acknowledged, tasks.len() as u64);
        for kill_at in 1..whole.calls {
            for torn in [false, true] {
                let what = format!("{policy:?}, killed at sink call {kill_at}, torn={torn}");
                let run = simulate_until_power_loss(&tasks, policy, kill_at, torn);
                let (gateway, report) = replay::<ShardedGateway>(&run.survivors)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let held = gateway.metrics().submitted;
                assert!(
                    (run.acknowledged..=run.decided).contains(&held),
                    "{what}: {} arrivals completed, {} decided, recovered {held}",
                    run.acknowledged,
                    run.decided
                );
                if !torn {
                    assert!(report.tail.is_clean(), "{what}: {:?}", report.tail);
                }
                let now = tasks[held.max(1) as usize - 1].arrival;
                let (recovered, _) = recover::<ShardedGateway>(&run.survivors, now, JOURNAL, None)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(recovered.metrics().submitted, held, "{what}");
            }
        }
    }
}
