//! Property-based tests for the journal subsystem.
//!
//! Three families:
//!
//! * **Replay determinism** — `recover(journal(events)) == live_state(events)`:
//!   for arbitrary workloads, shard counts, routings, snapshot cadences, and
//!   kill points, restoring the last snapshot and replaying the input tail
//!   rebuilds the live gateway *exactly* (modulo wall-clock latency samples,
//!   which measure real time and cannot replay).
//! * **Torn tails** — truncating or corrupting the log at an arbitrary byte
//!   never panics recovery and never loses a record before the damage
//!   point: recovery comes back with a clean prefix of the history (or
//!   reports the genesis snapshot itself as lost).
//! * **Frame endings** — no frame ends in a 0x00 byte, so dropping a WAL
//!   file's zero tail (`FileSink::read`) is exact.

use proptest::prelude::*;

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_service::prelude::*;
use rtdls_sim::prelude::*;
use rtdls_workload::prelude::*;

fn service_inputs() -> impl Strategy<Value = (ClusterParams, usize, Routing, f64, f64, u64)> {
    (
        4usize..=20, // nodes
        1usize..=4,  // shards
        prop::sample::select(vec![
            Routing::RoundRobin,
            Routing::LeastLoaded,
            Routing::BestFit,
        ]),
        0.4f64..1.4,   // system load
        2.0f64..10.0,  // dc ratio
        0u64..100_000, // seed
    )
        .prop_map(|(n, k, routing, load, dc, seed)| {
            (
                ClusterParams::new(n, 1.0, 100.0).unwrap(),
                k.min(n),
                routing,
                load,
                dc,
                seed,
            )
        })
}

fn workload(params: ClusterParams, load: f64, dc: f64, seed: u64) -> Vec<Task> {
    let mut spec = WorkloadSpec::paper_baseline(load);
    spec.params = params;
    spec.dc_ratio = dc;
    spec.horizon = 40.0 * spec.mean_interarrival();
    let profile = BurstProfile {
        rate_factor: 3.0,
        ..BurstProfile::moderate(&spec)
    };
    BurstyPoisson::new(spec, profile, seed).collect()
}

fn journaled(
    params: ClusterParams,
    shards: usize,
    routing: Routing,
    snapshot_every: usize,
) -> JournaledGateway<ShardedGateway> {
    let gateway = ShardedGateway::new(
        params,
        shards,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        routing,
        DeferPolicy {
            max_retries: 8,
            ..Default::default()
        },
    )
    .unwrap();
    JournaledGateway::new(
        gateway,
        JournalConfig {
            snapshot_every,
            compact_on_snapshot: true,
        },
    )
}

/// Drives a strict simulation for at most `kill_at` events and hands back
/// the paused simulation (dead or drained).
fn drive(
    params: ClusterParams,
    tasks: Vec<Task>,
    gateway: JournaledGateway<ShardedGateway>,
    kill_at: u64,
) -> Simulation<JournaledGateway<ShardedGateway>> {
    let cfg = SimConfig::new(params, AlgorithmKind::EDF_DLT).strict();
    let mut sim = Simulation::with_frontend(cfg, gateway);
    sim.prime(tasks);
    while sim.events_processed() < kill_at && sim.step() {}
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole property: at *any* kill point, under *any* snapshot
    /// cadence, replaying the journal reproduces the live gateway state
    /// exactly.
    #[test]
    fn recover_equals_live_state_at_any_kill_point(
        (params, shards, routing, load, dc, seed) in service_inputs(),
        snapshot_every in 0usize..24,
        kill_at in 1u64..160,
    ) {
        let tasks = workload(params, load, dc, seed);
        let sim = drive(params, tasks, journaled(params, shards, routing, snapshot_every), kill_at);
        let live = sim.frontend().inner().capture().normalized();
        let bytes = sim.frontend().journal().bytes().to_vec();

        let (replayed, report) = replay::<ShardedGateway>(&bytes).unwrap();
        prop_assert!(report.tail.is_clean());
        prop_assert_eq!(replayed.capture().normalized(), live);
    }

    /// A `FileSink` keeps zeros ahead of its log and `FileSink::read`
    /// drops the zero tail, which is exact only because no frame ends in a
    /// 0x00 byte.
    #[test]
    fn no_frame_ends_in_a_zero_byte(
        (params, shards, routing, load, dc, seed) in service_inputs(),
        snapshot_every in 0usize..24,
        kill_at in 1u64..160,
    ) {
        let tasks = workload(params, load, dc, seed);
        let sim = drive(params, tasks, journaled(params, shards, routing, snapshot_every), kill_at);
        let bytes = sim.frontend().journal().bytes();
        let (frames, tail) = rtdls_journal::wire::decode_frames(bytes);
        prop_assert!(tail.is_clean());
        for f in &frames {
            let end = f.offset + rtdls_journal::wire::HEADER_LEN + f.payload.len();
            prop_assert!(bytes[end - 1] != 0, "the frame at {} ends in 0x00", f.offset);
        }
    }

    /// Compaction invariance: aggressive snapshotting (tiny cadence, log
    /// compacted down to one snapshot + short tail) recovers the same state
    /// as a genesis-only journal over the same inputs.
    #[test]
    fn snapshot_cadence_never_changes_the_recovered_state(
        (params, shards, routing, load, dc, seed) in service_inputs(),
        kill_at in 1u64..120,
    ) {
        let tasks = workload(params, load, dc, seed);
        let genesis_only =
            drive(params, tasks.clone(), journaled(params, shards, routing, 0), kill_at);
        let compacting =
            drive(params, tasks, journaled(params, shards, routing, 4), kill_at);
        let (a, _) =
            replay::<ShardedGateway>(genesis_only.frontend().journal().bytes()).unwrap();
        let (b, rep_b) =
            replay::<ShardedGateway>(compacting.frontend().journal().bytes()).unwrap();
        prop_assert_eq!(a.capture().normalized(), b.capture().normalized());
        // The compacted log replays from a much later snapshot. (The tail
        // can exceed the cadence by the handful of inputs appended between
        // two cadence checks, but never by a whole epoch.)
        prop_assert!(
            rep_b.events_replayed <= 20,
            "compacted log should have a short tail, replayed {}",
            rep_b.events_replayed
        );
    }

    /// Torn-tail safety: truncating the log at an arbitrary byte offset
    /// loses at most the records at the cut — recovery still restores a
    /// clean prefix of the history, or reports the genesis snapshot lost.
    #[test]
    fn truncated_logs_recover_a_prefix_without_panicking(
        (params, shards, routing, load, dc, seed) in service_inputs(),
        kill_at in 1u64..100,
        cut_frac in 0.0f64..1.0,
    ) {
        let tasks = workload(params, load, dc, seed);
        // Genesis-only journal: the genesis snapshot frame must survive for
        // recovery to have an anchor.
        let sim = drive(params, tasks, journaled(params, shards, routing, 0), kill_at);
        let bytes = sim.frontend().journal().bytes();
        let (frames, _) = rtdls_journal::wire::decode_frames(bytes);
        let genesis_end = frames[1..]
            .first()
            .map(|f| f.offset)
            .unwrap_or(bytes.len());
        let cut = (cut_frac * bytes.len() as f64) as usize;
        let torn = &bytes[..cut.min(bytes.len())];

        match replay::<ShardedGateway>(torn) {
            Ok((g, report)) => {
                prop_assert!(cut >= genesis_end, "genesis survived only past its end");
                prop_assert!(report.frames_decoded <= frames.len());
                // The recovered prefix is a valid gateway: capture works
                // and re-verification at the final time cannot panic.
                let mut g = g;
                let _ = g.reverify(sim.now());
            }
            Err(JournalError::NoSnapshot) => {
                prop_assert!(cut < genesis_end, "genesis lost only when cut inside it");
            }
            Err(e) => prop_assert!(false, "unexpected recovery error: {e}"),
        }
    }

    /// Bit-rot safety: flipping one byte strictly after the genesis
    /// snapshot is always detected (checksum) and never loses records
    /// before the damaged frame — recovery succeeds from the surviving
    /// prefix.
    #[test]
    fn corrupted_tails_are_detected_and_skipped(
        (params, shards, routing, load, dc, seed) in service_inputs(),
        kill_at in 1u64..100,
        flip_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let tasks = workload(params, load, dc, seed);
        let sim = drive(params, tasks, journaled(params, shards, routing, 0), kill_at);
        let bytes = sim.frontend().journal().bytes();
        let (frames, _) = rtdls_journal::wire::decode_frames(bytes);
        prop_assume!(frames.len() >= 2); // need at least one event after genesis
        let genesis_end = frames[1].offset;
        let span = bytes.len() - genesis_end;
        let pos = genesis_end + ((flip_frac * span as f64) as usize).min(span - 1);

        let mut bad = bytes.to_vec();
        bad[pos] ^= 1 << flip_bit;
        let (g, report) = replay::<ShardedGateway>(&bad)
            .expect("genesis intact: recovery must succeed");
        prop_assert!(!report.tail.is_clean(), "damage must be detected");
        prop_assert!(report.frames_decoded < frames.len());
        // All records before the damaged frame were kept: replaying the
        // undamaged prefix of the same length gives the identical state.
        let damaged_frame_start = frames
            .iter()
            .map(|f| f.offset)
            .filter(|&o| o <= pos)
            .max()
            .unwrap();
        let (prefix_g, prefix_rep) =
            replay::<ShardedGateway>(&bytes[..damaged_frame_start]).unwrap();
        prop_assert_eq!(prefix_rep.frames_decoded, report.frames_decoded);
        prop_assert_eq!(
            g.capture().normalized(),
            prefix_g.capture().normalized()
        );
    }
}
