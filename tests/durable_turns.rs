//! Durable before acknowledged, under power loss at every filesystem call.
//!
//! A journaled gateway is driven in serving turns — `decide` × k, then
//! `drive`, whose commit is the point after which the turn's verdicts may
//! leave the process — over the real `FileSink` on a model disk. Each file
//! keeps the bytes its page cache holds and the bytes a power loss keeps,
//! and `sync_data` copies the first to the second; names become durable
//! only at a directory sync. At a chosen call the power goes (in the torn
//! variant a write in flight lands its first half, and that file's earlier
//! writes with it); the journal's held turn dies with the process. Whatever
//! the kill point, recovery must hold every submit of every turn whose
//! commit returned — and a second power loss during recovery's own rewrite
//! of the log must lose none of them either.
//!
//! Two drivers make the turns: a hand-written loop shaped like the edge
//! reactor's (uneven same-instant batches), and the discrete-event
//! simulator, whose turns are its events — with node releases fed back
//! between them, outside any turn.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use rtdls::journal::disk::{Disk, Open};
use rtdls::journal::recover_file_on;
use rtdls::prelude::*;

/// The log's paths on the model disk: in a directory, and a bare name,
/// whose directory `FileSink` must sync as `.` after an exchange.
const LOGS: [&str; 2] = ["/model/journal.wal", "journal.wal"];

/// A filesystem call, as the power loss saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Call {
    Open,
    Len,
    Read,
    Write { zeros: bool },
    Sync,
    Exchange,
    SyncDir,
}

/// One file: what the page cache holds, and what a power loss keeps.
#[derive(Clone, Debug, Default)]
struct Inode {
    cached: Vec<u8>,
    durable: Vec<u8>,
}

#[derive(Clone, Debug)]
struct Fs {
    /// The log's path (one of [`LOGS`]).
    log: &'static str,
    inodes: Vec<Inode>,
    /// The directory as the page cache holds it, and as a power loss
    /// keeps it.
    names: HashMap<PathBuf, usize>,
    durable_names: HashMap<PathBuf, usize>,
    /// Calls completed, and the exchanges among them.
    calls: usize,
    exchanges: usize,
    /// The call during which the power goes.
    kill_at: usize,
    /// Whether a write in flight at the kill lands its first half.
    torn: bool,
    /// The call the power went in.
    killed: Option<Call>,
}

impl Fs {
    /// Counts one call; `false` once the power is gone.
    fn powered(&mut self, call: Call) -> bool {
        if self.killed.is_none() && self.calls == self.kill_at {
            self.killed = Some(call);
        }
        if self.killed.is_none() {
            self.calls += 1;
        }
        self.killed.is_none()
    }
}

/// A model disk. Once the power is gone every call returns `Ok` and does
/// nothing: the process runs on as a ghost, and what it does never reaches
/// the disk.
#[derive(Clone, Debug)]
struct Model(Arc<Mutex<Fs>>);

/// The handle a ghost gets from `open`.
const GHOST: usize = usize::MAX;

impl Model {
    /// A blank disk for the log at `log` that loses power at call
    /// `kill_at`.
    fn new(log: &'static str, kill_at: usize, torn: bool) -> Self {
        Model(Arc::new(Mutex::new(Fs {
            log,
            inodes: Vec::new(),
            names: HashMap::new(),
            durable_names: HashMap::new(),
            calls: 0,
            exchanges: 0,
            kill_at,
            torn,
            killed: None,
        })))
    }

    fn fs(&self) -> MutexGuard<'_, Fs> {
        self.0.lock().expect("no model call panics")
    }

    /// The disk after the power comes back, on its own copy: every page
    /// cache holds what was durable, and the power stays on.
    fn reboot(&self) -> Model {
        let mut fs = self.fs().clone();
        fs.names = fs.durable_names.clone();
        for inode in &mut fs.inodes {
            inode.cached = inode.durable.clone();
        }
        (fs.calls, fs.kill_at, fs.killed) = (0, usize::MAX, None);
        Model(Arc::new(Mutex::new(fs)))
    }

    /// Cuts the power `after` calls from now.
    fn arm(&self, after: usize) {
        let mut fs = self.fs();
        fs.kill_at = fs.calls.saturating_add(after);
    }

    fn calls(&self) -> usize {
        self.fs().calls
    }

    fn killed(&self) -> Option<Call> {
        self.fs().killed
    }

    fn log(&self) -> &'static str {
        self.fs().log
    }

    /// What a reboot finds at the log's path, read the way recovery reads
    /// it.
    fn survivors(&self) -> Vec<u8> {
        let disk = self.reboot();
        if !disk.fs().names.contains_key(Path::new(self.log())) {
            // The log's name never reached the disk.
            return Vec::new();
        }
        FileSink::read_on(&disk, self.log()).unwrap()
    }
}

impl Disk for Model {
    type File = usize;

    fn open(&self, path: &Path, how: Open) -> io::Result<usize> {
        let mut fs = self.fs();
        if !fs.powered(Call::Open) {
            return Ok(GHOST);
        }
        let inode = match (fs.names.get(path).copied(), how) {
            (Some(inode), _) => inode,
            (None, Open::Read) => return Err(io::ErrorKind::NotFound.into()),
            (None, _) => {
                fs.inodes.push(Inode::default());
                let inode = fs.inodes.len() - 1;
                fs.names.insert(path.to_path_buf(), inode);
                inode
            }
        };
        if how == Open::Truncate {
            fs.inodes[inode].cached.clear();
        }
        Ok(inode)
    }

    fn len(&self, &file: &usize) -> io::Result<u64> {
        let mut fs = self.fs();
        if !fs.powered(Call::Len) {
            return Ok(0);
        }
        Ok(fs.inodes[file].cached.len() as u64)
    }

    fn read_exact_at(&self, &file: &usize, buf: &mut [u8], at: u64) -> io::Result<()> {
        let mut fs = self.fs();
        if !fs.powered(Call::Read) {
            return Ok(());
        }
        let at = at as usize;
        let bytes = fs.inodes[file].cached.get(at..at + buf.len());
        buf.copy_from_slice(bytes.ok_or(io::ErrorKind::UnexpectedEof)?);
        Ok(())
    }

    fn read_prefix(&self, &file: &usize, len: u64, out: &mut Vec<u8>) -> io::Result<()> {
        let mut fs = self.fs();
        if !fs.powered(Call::Read) {
            return Ok(());
        }
        let cached = &fs.inodes[file].cached;
        out.extend_from_slice(&cached[..cached.len().min(len as usize)]);
        Ok(())
    }

    fn write_all_at(&self, &file: &usize, buf: &[u8], at: u64) -> io::Result<()> {
        let mut fs = self.fs();
        let dying = fs.killed.is_none() && fs.calls == fs.kill_at;
        let zeros = buf.iter().all(|&b| b == 0);
        let (buf, landed) = if fs.powered(Call::Write { zeros }) {
            (buf, false)
        } else if dying && fs.torn {
            // The write was in flight: its first half reached the platter
            // and, writes being ordered, this file's writes before it.
            (&buf[..buf.len() / 2], true)
        } else {
            return Ok(());
        };
        let inode = &mut fs.inodes[file];
        let (at, end) = (at as usize, at as usize + buf.len());
        if inode.cached.len() < end {
            inode.cached.resize(end, 0);
        }
        inode.cached[at..end].copy_from_slice(buf);
        if landed {
            inode.durable = inode.cached.clone();
        }
        Ok(())
    }

    fn sync_data(&self, &file: &usize) -> io::Result<()> {
        let mut fs = self.fs();
        if fs.powered(Call::Sync) {
            let inode = &mut fs.inodes[file];
            inode.durable = inode.cached.clone();
        }
        Ok(())
    }

    fn exchange(&self, a: &Path, b: &Path) -> io::Result<()> {
        let mut fs = self.fs();
        if fs.powered(Call::Exchange) {
            let (Some(ia), Some(ib)) = (fs.names.get(a).copied(), fs.names.get(b).copied()) else {
                return Err(io::ErrorKind::NotFound.into());
            };
            fs.names.insert(a.to_path_buf(), ib);
            fs.names.insert(b.to_path_buf(), ia);
            fs.exchanges += 1;
        }
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut fs = self.fs();
        if fs.powered(Call::SyncDir) {
            let parent = Path::new(fs.log).parent().unwrap();
            let parent = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            assert_eq!(dir, parent);
            fs.durable_names = fs.names.clone();
        }
        Ok(())
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

/// A journaled gateway whose `FileSink` writes `log` on a fresh [`Model`]
/// that loses power at call `kill_at`. If the power went already, it went
/// while the genesis log was being laid down.
fn powered_gateway(
    log: &'static str,
    policy: FsyncPolicy,
    kill_at: usize,
    torn: bool,
) -> (JournaledGateway, Model) {
    let disk = Model::new(log, kill_at, torn);
    let sink = FileSink::open_on(disk.clone(), log, true)
        .unwrap()
        .with_fsync_policy(policy);
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

/// A power loss before any log was durable: nothing to recover, and
/// nothing was acknowledged.
fn assert_no_log(what: &str, survivors: &[u8]) {
    assert!(
        matches!(
            replay::<ShardedGateway>(survivors),
            Err(JournalError::NoSnapshot)
        ),
        "{what}: a log survived the genesis ({} bytes)",
        survivors.len()
    );
}

/// What a run left behind.
struct Outcome {
    /// The disk as the power loss left it.
    disk: Model,
    /// The sink's counters (on a run that was not killed).
    stats: SinkStats,
    /// After each turn whose commit returned: submits so far, and the
    /// gateway's state. Empty if the power went in the genesis.
    committed: Vec<(u64, GatewaySnapshot)>,
}

fn drive_until_power_loss(
    log: &'static str,
    requests: &[SubmitRequest],
    policy: FsyncPolicy,
    kill_at: usize,
    torn: bool,
) -> Outcome {
    let (mut gateway, disk) = powered_gateway(log, policy, kill_at, torn);
    let mut committed = Vec::new();
    if disk.killed().is_none() {
        committed.push((0, GatewaySnapshot::capture(gateway.inner())));
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
            if disk.killed().is_some() {
                // The process died somewhere in this turn: its commit never
                // returned and none of its verdicts left.
                break;
            }
            let submitted = gateway.metrics().submitted;
            committed.push((submitted, GatewaySnapshot::capture(gateway.inner())));
        }
    }
    let stats = gateway.journal().sink_stats().unwrap();
    // The process is gone, and with it whatever the journal still held.
    std::mem::forget(gateway);
    Outcome {
        disk,
        stats,
        committed,
    }
}

/// Each log path under each fsync policy.
fn logs_and_policies() -> impl Iterator<Item = (&'static str, FsyncPolicy)> {
    let policies = [FsyncPolicy::Batch(16), FsyncPolicy::EveryAppend];
    LOGS.into_iter()
        .flat_map(move |log| policies.map(|policy| (log, policy)))
}

#[test]
fn power_loss_at_every_sink_call_keeps_every_committed_turn() {
    let requests = requests(17, 60);
    for (log, policy) in logs_and_policies() {
        let whole = drive_until_power_loss(log, &requests, policy, usize::MAX, false);
        assert_eq!(whole.committed.last().unwrap().0, requests.len() as u64);
        let turns = whole.committed.len() as u64 - 1;
        let stats = whole.stats;
        assert!(
            stats.writes <= 1 + turns && stats.syncs <= 1 + turns,
            "{log}, {policy:?}: at most a hand-over and a flush per turn, got {stats:?} \
             for {turns} turns"
        );
        let rewrites = whole.disk.fs().exchanges;
        assert!(
            rewrites >= 3,
            "{log}, {policy:?}: compactions fell inside the run ({rewrites} rewrites)"
        );
        for kill_at in 0..whole.disk.calls() {
            let mut in_write = true;
            for torn in [false, true] {
                if torn && !in_write {
                    // No write was in flight: the untorn run covered it.
                    continue;
                }
                let what = format!("{log}, {policy:?}, killed at call {kill_at}, torn={torn}");
                let run = drive_until_power_loss(log, &requests, policy, kill_at, torn);
                let killed = run.disk.killed();
                in_write = matches!(killed, Some(Call::Write { .. }));
                let survivors = run.disk.survivors();
                let Some(acknowledged) = run.committed.len().checked_sub(1) else {
                    assert_no_log(&what, &survivors);
                    continue;
                };
                let (gateway, report) = replay::<ShardedGateway>(&survivors)
                    .unwrap_or_else(|e| panic!("{what} ({killed:?}): {e}"));
                let held = gateway.metrics().submitted;
                let (floor, _) = whole.committed[acknowledged];
                let (ceiling, _) = whole.committed[acknowledged + 1];
                assert!(
                    (floor..=ceiling).contains(&held),
                    "{what} ({killed:?}): {acknowledged} turns acknowledged ({floor} \
                     submits), the dying turn ends at {ceiling}, recovered {held}"
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
                    assert_eq!(GatewaySnapshot::capture(&gateway), boundary.1, "{what}");
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
                let (recovered, _) = recover(&survivors, now, JOURNAL, None)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(recovered.metrics().submitted, held, "{what}");
            }
        }
    }
}

/// The kill points a crash test must reach, by where the power went.
#[derive(Debug, Default)]
struct Reached {
    /// Between the spare's `sync_data` and the exchange.
    before_exchange: usize,
    /// Between the exchange and the directory sync.
    before_dir_sync: usize,
    /// Inside a zero-fill write.
    zero_fill: usize,
    /// Before the genesis log was durable.
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
        let whole = drive_until_power_loss(log, &requests, policy, usize::MAX, false);
        for first in 0..whole.disk.calls() {
            let run = drive_until_power_loss(log, &requests, policy, first, false);
            reached.count(run.disk.killed());
            let what = format!("{log}, first power loss at call {first}");
            let Some(&(acknowledged, _)) = run.committed.last() else {
                reached.genesis += 1;
                assert_no_log(&what, &run.disk.survivors());
                continue;
            };
            // Recovery after the crash (`recover_file_with_policy` on the
            // model: read the log, recover, attach a sink that keeps the file
            // until its atomic rewrite), cut by a second power loss at call
            // `second` of it.
            let crashed = run.disk.reboot();
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
                let disk = crashed.reboot();
                disk.arm(second);
                match recover_file_on(disk.clone(), log, now, JOURNAL, policy) {
                    Ok((recovered, _)) => std::mem::forget(recovered),
                    // A read cut short reads nothing to recover from.
                    Err(e) => assert!(disk.killed().is_some(), "{what}: {e}"),
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

/// What a simulator-driven run left behind.
struct SimOutcome {
    disk: Model,
    /// Submits decided by the events that completed while the power was
    /// on — every one of them committed — and by the event it went in.
    /// `None` if the power went in the genesis.
    acknowledged: Option<u64>,
    decided: u64,
}

fn simulate_until_power_loss(
    log: &'static str,
    tasks: &[Task],
    policy: FsyncPolicy,
    kill_at: usize,
    torn: bool,
) -> SimOutcome {
    let (gateway, disk) = powered_gateway(log, policy, kill_at, torn);
    if disk.killed().is_some() {
        std::mem::forget(gateway);
        return SimOutcome {
            disk,
            acknowledged: None,
            decided: 0,
        };
    }
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT).strict();
    let mut sim = Simulation::with_frontend(cfg, gateway);
    sim.prime(tasks.iter().copied());
    let mut acknowledged = 0;
    let decided = loop {
        let stepped = sim.step();
        let decided = sim.frontend().metrics().submitted;
        if disk.killed().is_some() || !stepped {
            break decided;
        }
        acknowledged = decided;
    };
    if disk.killed().is_none() {
        let (_, gateway) = sim.finish();
        std::mem::forget(gateway);
    } else {
        std::mem::forget(sim);
    }
    SimOutcome {
        disk,
        acknowledged: Some(acknowledged),
        decided,
    }
}

#[test]
fn power_loss_in_a_simulated_run_keeps_every_completed_arrival() {
    let tasks: Vec<Task> = requests(23, 12).into_iter().map(|r| r.task).collect();
    for (log, policy) in logs_and_policies() {
        let whole = simulate_until_power_loss(log, &tasks, policy, usize::MAX, false);
        assert_eq!(whole.acknowledged, Some(tasks.len() as u64));
        for kill_at in 0..whole.disk.calls() {
            let mut in_write = true;
            for torn in [false, true] {
                if torn && !in_write {
                    continue;
                }
                let what = format!("{log}, {policy:?}, killed at call {kill_at}, torn={torn}");
                let run = simulate_until_power_loss(log, &tasks, policy, kill_at, torn);
                in_write = matches!(run.disk.killed(), Some(Call::Write { .. }));
                let survivors = run.disk.survivors();
                let Some(acknowledged) = run.acknowledged else {
                    assert_no_log(&what, &survivors);
                    continue;
                };
                let (gateway, report) =
                    replay::<ShardedGateway>(&survivors).unwrap_or_else(|e| panic!("{what}: {e}"));
                let held = gateway.metrics().submitted;
                assert!(
                    (acknowledged..=run.decided).contains(&held),
                    "{what}: {acknowledged} arrivals completed, {} decided, recovered {held}",
                    run.decided
                );
                if !torn {
                    assert!(report.tail.is_clean(), "{what}: {:?}", report.tail);
                }
                let now = tasks[held.max(1) as usize - 1].arrival;
                let (recovered, _) = recover(&survivors, now, JOURNAL, None)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(recovered.metrics().submitted, held, "{what}");
            }
        }
    }
}
