//! Journal subsystem perf baseline: append throughput and recovery time.
//!
//! Three questions, each a group:
//!
//! * `journal_append` — records/second for write-ahead appends (framing +
//!   checksum + JSON payload) into an in-memory journal.
//! * `journal_recover` — full recovery time (decode + snapshot restore +
//!   tail replay) as a function of log length, genesis-only journals
//!   (worst case: the whole history replays).
//! * `journal_recover_compacted` — the same logs under a snapshot cadence:
//!   recovery restores the last snapshot and replays only the short tail
//!   (the compaction claim).
//!
//! A fourth group, `group_commit/turn_of_17`, is printed and not gated (its
//! number is the sandbox's disk): what one serving turn of 8 submits — 17
//! frames — costs a file WAL in writes, syncs and microseconds when the
//! turn is held for its commit (the `EdgeGateway` path) and when every
//! event is handed over as it happens (the `Frontend` path).
//!
//! Besides the criterion output, the bench writes a machine-readable
//! baseline to `target/journal_replay_baseline.json` so the perf trajectory
//! can be tracked run over run.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_service::prelude::*;
use rtdls_sim::prelude::*;
use rtdls_workload::prelude::*;

fn stream(n_tasks: usize) -> (ClusterParams, Vec<Task>) {
    let params = ClusterParams::paper_baseline();
    let mut spec = WorkloadSpec::paper_baseline(1.0);
    spec.dc_ratio = 20.0;
    spec.horizon = 1e9;
    let tasks: Vec<Task> = WorkloadGenerator::new(spec, 11).take(n_tasks).collect();
    (params, tasks)
}

fn gateway(params: ClusterParams) -> ShardedGateway {
    ShardedGateway::new(
        params,
        4,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .expect("valid layout")
}

/// Builds a journal by streaming `n` submissions through a journaled
/// gateway, dispatching as time advances so the waiting queue stays shallow
/// (the steady-state regime of a live gateway).
fn build_journal(n: usize, snapshot_every: usize) -> Vec<u8> {
    let (params, tasks) = stream(n);
    let mut j = JournaledGateway::new(
        gateway(params),
        JournalConfig {
            snapshot_every,
            compact_on_snapshot: true,
        },
    );
    for t in &tasks {
        j.submit_request(&SubmitRequest::new(*t), t.arrival);
        let _ = Frontend::take_due(&mut j, t.arrival);
    }
    j.journal().bytes().to_vec()
}

fn bench_append(c: &mut Criterion) {
    let (_, tasks) = stream(512);
    let mut group = c.benchmark_group("journal_append");
    group.throughput(Throughput::Elements(tasks.len() as u64));
    group.bench_function("submitted_events", |b| {
        b.iter(|| {
            let mut j = Journal::in_memory(JournalConfig {
                snapshot_every: 0,
                compact_on_snapshot: false,
            });
            for t in &tasks {
                j.append_event(&JournalEvent::Submitted {
                    task: *t,
                    at: t.arrival,
                });
            }
            black_box(j.bytes().len())
        })
    });
    group.finish();
}

fn bench_recover(c: &mut Criterion) {
    let mut group = c.benchmark_group("journal_recover");
    for n in [128usize, 512, 2048] {
        let bytes = build_journal(n, 0); // genesis-only: replay everything
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("events={n}")),
            &n,
            |b, _| {
                b.iter(|| {
                    let (g, report) = replay::<ShardedGateway>(black_box(&bytes)).unwrap();
                    black_box((g.metrics().submitted, report.events_replayed))
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("journal_recover_compacted");
    for n in [128usize, 512, 2048] {
        let bytes = build_journal(n, 256);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("events={n}")),
            &n,
            |b, _| {
                b.iter(|| {
                    let (g, report) = replay::<ShardedGateway>(black_box(&bytes)).unwrap();
                    black_box((g.metrics().submitted, report.events_replayed))
                })
            },
        );
    }
    group.finish();
}

/// One manually-timed median, in seconds.
fn median_secs(mut run: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

#[derive(serde::Serialize)]
struct Baseline {
    append_records_per_sec: f64,
    recover_events_per_sec_genesis_2048: f64,
    recover_events_per_sec_compacted_2048: f64,
    wal_bytes_per_event_genesis_2048: f64,
}

/// Emits the JSON baseline for the perf trajectory.
fn emit_baseline(_c: &mut Criterion) {
    let (_, tasks) = stream(512);
    let append = median_secs(|| {
        let mut j = Journal::in_memory(JournalConfig {
            snapshot_every: 0,
            compact_on_snapshot: false,
        });
        for t in &tasks {
            j.append_event(&JournalEvent::Submitted {
                task: *t,
                at: t.arrival,
            });
        }
        black_box(j.bytes().len());
    });
    let genesis = build_journal(2048, 0);
    let compacted = build_journal(2048, 256);
    let recover_genesis = median_secs(|| {
        black_box(
            replay::<ShardedGateway>(&genesis)
                .unwrap()
                .1
                .events_replayed,
        );
    });
    let recover_compacted = median_secs(|| {
        black_box(
            replay::<ShardedGateway>(&compacted)
                .unwrap()
                .1
                .events_replayed,
        );
    });
    let baseline = Baseline {
        append_records_per_sec: tasks.len() as f64 / append,
        recover_events_per_sec_genesis_2048: 2048.0 / recover_genesis,
        recover_events_per_sec_compacted_2048: 2048.0 / recover_compacted,
        wal_bytes_per_event_genesis_2048: genesis.len() as f64 / 2048.0,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("serializable");
    // The bench runs with cwd = the package root; resolve the *workspace*
    // target dir so the artifact never lands in the source tree.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    let path = target.join("journal_replay_baseline.json");
    let _ = std::fs::create_dir_all(&target);
    std::fs::write(&path, &json).expect("write baseline");
    println!("baseline written to {}:\n{json}", path.display());
}

/// Prints `group_commit/turn_of_17` (see the module docs): the same 64
/// turns through a `Batch(16)` file WAL, held and handed over per event.
fn group_commit_turn(_c: &mut Criterion) {
    // A lightly loaded stream: every submit is accepted, so a turn is 8
    // requests + 8 verdicts + the turn's one dispatch record.
    let params = ClusterParams::paper_baseline();
    let mut spec = WorkloadSpec::paper_baseline(0.3);
    spec.dc_ratio = 20.0;
    spec.horizon = 1e9;
    let tasks: Vec<Task> = WorkloadGenerator::new(spec, 11).take(8 * 64).collect();
    let dir = std::env::temp_dir().join(format!("rtdls-journal-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    for held in [true, false] {
        let label = if held { "held" } else { "frontend" };
        let sink = FileSink::create(dir.join(format!("{label}.wal")))
            .expect("bench WAL")
            .with_fsync_policy(FsyncPolicy::Batch(16));
        let cfg = JournalConfig {
            snapshot_every: 0,
            compact_on_snapshot: false,
        };
        let mut j = JournaledGateway::with_sink(gateway(params), cfg, Box::new(sink));
        let before = j.journal().sink_stats().expect("sinked");
        let start = Instant::now();
        for turn in tasks.chunks(8) {
            let now = turn.last().expect("non-empty").arrival;
            for t in turn {
                let request = SubmitRequest::new(*t);
                if held {
                    black_box(j.decide(&request, now));
                } else {
                    black_box(j.submit_request(&request, now));
                }
            }
            if held {
                j.drive(now);
            } else {
                // What `drive` applies, without opening a turn.
                let _ = Frontend::take_due(&mut j, now);
                j.on_event(now);
                j.activate(now);
                let _ = j.drain_resolutions();
                j.commit(now);
            }
        }
        let elapsed = start.elapsed();
        let after = j.journal().sink_stats().expect("sinked");
        let turns = tasks.len().div_ceil(8) as f64;
        println!(
            "group_commit/turn_of_17/{label:<8}  {:.1} frames  {:.2} writes  {:.2} syncs  {:.1} us  per turn",
            (after.appends - before.appends) as f64 / turns,
            (after.writes - before.writes) as f64 / turns,
            (after.syncs - before.syncs) as f64 / turns,
            elapsed.as_secs_f64() * 1e6 / turns,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_append, bench_recover, emit_baseline, group_commit_turn
}
criterion_main!(benches);
