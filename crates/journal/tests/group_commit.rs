//! The serving turn as the journal's unit of sink I/O: what a turn
//! (`decide` × k, then `drive`) costs the sink, what the file holds
//! afterwards, and that what is appended outside a turn is still handed
//! over as it happens.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_service::prelude::*;
use rtdls_workload::prelude::*;

type JG = JournaledGateway;

/// One call the journal made into its sink (`Append` carries the frames
/// the run held).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Call {
    Append(usize),
    Reset,
    Flush,
}

/// A `FileSink` that logs every call made into it.
struct SpySink {
    inner: FileSink,
    log: Arc<Mutex<Vec<Call>>>,
}

impl JournalSink for SpySink {
    fn append(&mut self, run: &[u8]) {
        let frames = rtdls_journal::wire::frame_count(run);
        self.log.lock().unwrap().push(Call::Append(frames));
        self.inner.append(run);
    }
    fn reset(&mut self, bytes: &[u8]) {
        self.log.lock().unwrap().push(Call::Reset);
        self.inner.reset(bytes);
    }
    fn flush(&mut self) {
        self.log.lock().unwrap().push(Call::Flush);
        self.inner.flush();
    }
    fn stats(&self) -> SinkStats {
        self.inner.stats()
    }
}

fn wal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rtdls-group-commit-{tag}-{}.wal",
        std::process::id()
    ))
}

fn spied_gateway(
    path: &PathBuf,
    policy: FsyncPolicy,
    snapshot_every: usize,
) -> (JG, Arc<Mutex<Vec<Call>>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = SpySink {
        inner: FileSink::create(path).unwrap().with_fsync_policy(policy),
        log: Arc::clone(&log),
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
    let cfg = JournalConfig {
        snapshot_every,
        compact_on_snapshot: true,
    };
    (
        JournaledGateway::with_sink(gateway, cfg, Box::new(sink)),
        log,
    )
}

/// Turns of up to eight same-instant submits each, at the instant the
/// turn's last task arrives.
fn turns(seed: u64, n: usize) -> Vec<(SimTime, Vec<SubmitRequest>)> {
    let tasks: Vec<Task> = WorkloadGenerator::new(WorkloadSpec::paper_baseline(0.9), seed)
        .take(n)
        .collect();
    tasks
        .chunks(8)
        .map(|turn| {
            let now = turn.last().unwrap().arrival;
            (now, turn.iter().map(|t| SubmitRequest::new(*t)).collect())
        })
        .collect()
}

#[test]
fn a_held_turn_is_one_append_and_one_sync() {
    for policy in [FsyncPolicy::Batch(16), FsyncPolicy::EveryAppend] {
        let path = wal_path("turn");
        let (mut gateway, log) = spied_gateway(&path, policy, 0);
        assert_eq!(*log.lock().unwrap(), [Call::Reset], "genesis");
        for (now, requests) in turns(5, 24) {
            log.lock().unwrap().clear();
            let before = gateway.journal().sink_stats().unwrap();
            let frames_before = gateway.journal().next_seq();
            for request in &requests {
                let _ = gateway.decide(request, now);
            }
            assert!(
                log.lock().unwrap().is_empty(),
                "{policy:?}: the sink sees nothing of a turn before its commit"
            );
            gateway.drive(now);
            let k = (gateway.journal().next_seq() - frames_before) as usize;
            assert!(k >= 2 * requests.len(), "request + verdict per submit");
            assert_eq!(
                *log.lock().unwrap(),
                [Call::Append(k), Call::Flush],
                "{policy:?}: one hand-over of the turn's {k} frames, then the flush"
            );
            let after = gateway.journal().sink_stats().unwrap();
            assert_eq!(after.writes - before.writes, 1, "{policy:?}");
            assert_eq!(after.syncs - before.syncs, 1, "{policy:?}");
            assert_eq!(after.appends - before.appends, k as u64, "{policy:?}");
            assert_eq!(FileSink::read(&path).unwrap(), gateway.journal().bytes());
        }
        drop(gateway);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("wal.spare"));
    }
}

#[test]
fn a_snapshot_inside_a_held_turn_is_one_reset_and_the_same_file() {
    // Twenty input events per snapshot: compactions land mid-turn.
    let held_path = wal_path("snap-held");
    let through_path = wal_path("snap-through");
    let (mut held, log) = spied_gateway(&held_path, FsyncPolicy::Batch(16), 20);
    let (mut through, _) = spied_gateway(&through_path, FsyncPolicy::Batch(16), 20);
    let mut snapshot_turns = 0;
    for (now, requests) in turns(11, 96) {
        log.lock().unwrap().clear();
        let snapshots_before = held.journal().snapshots_appended();
        let syncs_before = held.journal().sink_stats().unwrap().syncs;
        for request in &requests {
            let a = held.decide(request, now);
            let b = through.submit_request(request, now);
            assert_eq!(a, b, "holding a turn changes no verdict");
        }
        held.drive(now);
        through.drive(now);

        // The image is what writing the submits through puts in the file,
        // frame by frame; after the commit the held file is that image too.
        assert_eq!(
            FileSink::read(&through_path).unwrap(),
            through.journal().bytes()
        );
        assert_eq!(FileSink::read(&held_path).unwrap(), held.journal().bytes());
        assert!(
            held.journal().bytes() == through.journal().bytes(),
            "holding a turn changes no byte of the log"
        );
        if held.journal().snapshots_appended() > snapshots_before {
            snapshot_turns += 1;
            assert_eq!(
                *log.lock().unwrap(),
                [Call::Reset, Call::Flush],
                "the rewrite carries the turn: no append for the frames the \
                 snapshot supersedes, none for the tail behind it"
            );
            let syncs = held.journal().sink_stats().unwrap().syncs - syncs_before;
            assert_eq!(syncs, 1, "the rewrite's own durability point, no other");
        }
    }
    assert!(snapshot_turns >= 3, "compactions fell inside held turns");
    drop((held, through));
    let _ = std::fs::remove_file(&held_path);
    let _ = std::fs::remove_file(held_path.with_extension("wal.spare"));
    let _ = std::fs::remove_file(&through_path);
    let _ = std::fs::remove_file(through_path.with_extension("wal.spare"));
}

#[test]
fn what_is_appended_outside_a_turn_is_synced_per_event() {
    let path = wal_path("turnless");
    let (mut gateway, log) = spied_gateway(&path, FsyncPolicy::EveryAppend, 0);
    let turns = turns(3, 8);
    let (now, requests) = &turns[0];
    log.lock().unwrap().clear();
    for request in requests {
        let _ = gateway.submit_request(request, *now);
        assert_eq!(
            FileSink::read(&path).unwrap(),
            gateway.journal().bytes(),
            "an append that returned is in the file"
        );
    }
    // A node release fed back between turns, as the simulator feeds it.
    gateway.node_released(0, *now);
    let calls = log.lock().unwrap().clone();
    assert!(calls.len() >= 2 * requests.len());
    assert!(
        calls.iter().all(|c| *c == Call::Append(1)),
        "one frame per append, no holding: {calls:?}"
    );
    let stats = gateway.journal().sink_stats().unwrap();
    assert_eq!(stats.appends, calls.len() as u64);
    assert_eq!(
        stats.writes,
        1 + stats.appends,
        "genesis rewrite + one each"
    );
    assert_eq!(stats.syncs, 1 + stats.appends, "every append synced");
    drop(gateway);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("wal.spare"));
}

#[test]
fn a_graceful_stop_writes_the_held_tail() {
    // Dropped with a turn still held, and finalized with one: either way
    // the file ends up holding the whole image.
    for finalize in [false, true] {
        let path = wal_path("stop");
        let (mut gateway, _) = spied_gateway(&path, FsyncPolicy::Batch(16), 0);
        let genesis = FileSink::read(&path).unwrap();
        let turns = turns(9, 8);
        let (now, requests) = &turns[0];
        for request in requests {
            let _ = gateway.decide(request, *now);
        }
        assert_eq!(
            FileSink::read(&path).unwrap(),
            genesis,
            "the turn is held: nothing written yet"
        );
        if finalize {
            gateway.finalize(*now);
            let stats = gateway.journal().sink_stats().unwrap();
            assert_eq!(stats.max_batch, stats.appends, "and synced, in one batch");
        }
        let image = gateway.journal().bytes().to_vec();
        assert!(image.len() > genesis.len());
        drop(gateway);
        assert_eq!(FileSink::read(&path).unwrap(), image, "finalize={finalize}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("wal.spare"));
    }
}
