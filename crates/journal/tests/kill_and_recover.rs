//! The kill-and-recover acceptance scenario as a workspace test, so
//! `cargo test --workspace` proves the full kill→recover→resume loop: a
//! 4-shard journaled gateway serves a bursty stream into a WAL *file*, dies
//! at an arbitrary event index, is rebuilt from the file alone, and
//! finishes the stream under the strict simulator (which panics on any
//! violated guarantee).

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_journal::wire;
use rtdls_service::prelude::*;
use rtdls_sim::prelude::*;
use rtdls_workload::prelude::*;

type JG = JournaledGateway<ShardedGateway>;

#[test]
fn kill_and_recover_through_a_wal_file_finishes_with_all_guarantees() {
    let params = ClusterParams::paper_baseline();
    let algorithm = AlgorithmKind::EDF_DLT;
    let plan = PlanConfig {
        release_estimate: ReleaseEstimate::Uniform,
        ..Default::default()
    };

    // The example's workload, shrunk to test scale (same shape: bursty,
    // deadline-rich, defer-queue-exercising).
    let mut spec = WorkloadSpec::paper_baseline(1.2);
    spec.dc_ratio = 6.0;
    spec.horizon = 1e5;
    let profile = BurstProfile {
        rate_factor: 4.0,
        ..BurstProfile::moderate(&spec)
    };
    let tasks: Vec<Task> = BurstyPoisson::new(spec, profile, 42).collect();
    assert!(tasks.len() > 20, "workload too small to exercise a crash");

    let wal_path = std::env::temp_dir().join(format!(
        "rtdls-kill-and-recover-test-{}.wal",
        std::process::id()
    ));
    let journal_cfg = JournalConfig {
        snapshot_every: 64,
        compact_on_snapshot: true,
    };
    let gateway = ShardedGateway::new(
        params,
        4,
        algorithm,
        plan,
        Routing::LeastLoaded,
        DeferPolicy {
            max_retries: 64,
            ..Default::default()
        },
    )
    .expect("valid shard layout");
    let journaled = JournaledGateway::with_sink(
        gateway,
        journal_cfg,
        Box::new(FileSink::create(&wal_path).expect("create WAL")),
    );

    let kill_at = 2 * tasks.len() as u64 / 3;
    let cfg = SimConfig::new(params, algorithm).with_plan(plan).strict();
    let path_for_recovery = wal_path.clone();
    let (report, recovered, crashed) = run_with_crash(
        cfg,
        journaled,
        tasks,
        CrashPlan::at_event(kill_at),
        move |_dead: &JG, now| {
            // The only artifact that crosses the crash is the file on disk.
            let (recovered, rec) =
                recover_file::<ShardedGateway>(&path_for_recovery, now, journal_cfg)
                    .expect("recovery from WAL");
            assert!(rec.frames_decoded > 0, "recovery read the journal");
            recovered
        },
    );
    assert!(crashed, "the kill index must fall inside the run");

    // The example's closing assertions, verbatim.
    let m = recovered.metrics();
    assert_eq!(
        report.metrics.deadline_misses, 0,
        "no admitted deadline missed"
    );
    assert_eq!(report.metrics.estimate_overruns, 0);
    assert_eq!(
        m.submitted, report.metrics.arrivals,
        "cumulative metrics crossed the crash intact"
    );
    let wal = FileSink::read(&wal_path).expect("read WAL");
    let (frames, tail) = wire::decode_frames(&wal);
    assert!(tail.is_clean());
    assert!(
        frames.iter().any(|f| f.kind == wire::RecordKind::Snapshot),
        "compacted WAL keeps a snapshot"
    );
    let _ = std::fs::remove_file(&wal_path);
}
