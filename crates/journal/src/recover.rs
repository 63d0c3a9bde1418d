//! Crash recovery: snapshot restore + tail replay + strict re-admission.
//!
//! [`recover`] rebuilds the [`ShardedGateway`] from nothing but journal
//! bytes:
//!
//! 1. **Decode** the log ([`wire`](crate::wire)), tolerating a torn or
//!    corrupt tail — at most the records at the damage point are lost,
//!    never earlier ones. Checksums are verified; payloads are not copied.
//! 2. **Restore** the last intact snapshot with
//!    [`GatewaySnapshot::restore`] (every journal starts with a genesis
//!    snapshot, so one always exists in an undamaged log).
//! 3. **Replay** the input events appended after that snapshot through the
//!    gateway's ordinary code paths ([`apply_event`]), read by
//!    [`JournalEvent::decode_input`] as the warm standby reads them: audit
//!    records are counted by their tag, never decoded. The gateway is a deterministic state machine over
//!    its inputs and a snapshot holds nothing else, so the replayed state's
//!    capture equals the live pre-crash capture exactly.
//! 4. **Re-verify**: re-run the strict Fig. 2 admission test over every
//!    recovered waiting plan at the recovery instant. Time passed while the
//!    gateway was down; any plan that no longer survives the strict test is
//!    *demoted* to the defer queue (journaled as
//!    [`JournalEvent::Demoted`]) rather than kept as a guarantee the
//!    cluster can no longer honor.
//!
//! The result is wrapped in a fresh [`JournaledGateway`] whose journal
//! begins with a post-recovery snapshot — recovery doubles as compaction.
//! Wall-clock measurements are not state: the recovered (or promoted)
//! gateway's latency histograms and decision window start at its first
//! live decision, while every counter carries over.

use std::path::Path;

use rtdls_core::prelude::{SimTime, SubmitRequest, TaskId};
use rtdls_service::prelude::{EdgeGateway, ShardedGateway};
use rtdls_sim::serve::{Serve, Turn};

use crate::disk::{Disk, Std};
use crate::event::JournalEvent;
use crate::journal::{FileSink, FsyncPolicy, Journal, JournalConfig, JournalSink};
use crate::snapshot::{GatewaySnapshot, JournalError};
use crate::wire::{decode_frames, RecordKind, TailStatus};
use crate::JournaledGateway;

/// What a recovery did, for operators and tests.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryReport {
    /// Frames that participated in this recovery: the restored snapshot
    /// plus every frame after it. Frames *before* the last snapshot (in a
    /// non-compacted log) are superseded by it and not counted.
    pub frames_decoded: usize,
    /// Input events replayed after the restored snapshot.
    pub events_replayed: usize,
    /// Audit records observed after the restored snapshot (not replayed).
    pub audit_records: usize,
    /// How the log's tail looked (anything but `Clean` means the final
    /// record(s) were lost to the crash).
    pub tail: TailStatus,
    /// Tasks the strict re-admission pass demoted out of the waiting queue.
    pub demoted: Vec<TaskId>,
    /// The recovery instant the re-admission pass ran at.
    pub recovered_at: SimTime,
    /// The promotion epoch the recovered gateway journals under: the
    /// restored snapshot's epoch (a promoted follower stamps every snapshot
    /// it writes one higher than its old primary did).
    pub epoch: u64,
}

/// Applies one replayed input event to a bare gateway through its ordinary
/// code paths. Audit events are ignored (replay regenerates them). `turn`
/// is the replay's kept buffer: a dispatch or a drain fills it, and the
/// next one spends it, as a driver's turn is spent.
pub fn apply_event(gateway: &mut ShardedGateway, event: &JournalEvent, turn: &mut Turn) {
    match event {
        // No writer emits `Submitted` any more; WALs that hold it replay it
        // as what it always was, a submission under the default envelope.
        JournalEvent::Submitted { task, at } => {
            let _ = gateway.decide(&SubmitRequest::new(*task), *at);
        }
        // Nor `BatchSubmitted`: its members replay as what the batched path
        // promised to decide like, default-envelope submissions in policy
        // order.
        JournalEvent::BatchSubmitted { tasks, at } => {
            let mut tasks = tasks.clone();
            gateway.algorithm().policy.sort(&mut tasks);
            for task in tasks {
                let _ = gateway.decide(&SubmitRequest::new(task), *at);
            }
        }
        JournalEvent::RequestSubmitted { request, at } => {
            let _ = gateway.decide(request, *at);
        }
        JournalEvent::ActivationDue { at } => {
            gateway.activate_reservations(*at);
            // Replay regenerates (and discards) the activation audit; the
            // recovery journal re-audits from its own fresh activations.
            let _ = gateway.book_mut().take_activation_log();
        }
        JournalEvent::Completed { node, at } => gateway.node_released(*node, *at),
        JournalEvent::DispatchDue { at } => {
            // The physical dispatch already happened pre-crash; replay only
            // re-commits its release bookkeeping.
            gateway.refill_due(*at, &mut turn.dispatched);
        }
        JournalEvent::Replanned { at } => {
            let _ = gateway.replan_waiting(*at);
        }
        JournalEvent::Retested { at } => gateway.retest_deferred(*at),
        JournalEvent::Finalized { .. } => gateway.flush_parked(),
        JournalEvent::Drained => {
            gateway.drain_resolutions(&mut turn.resolved);
        }
        // Audit records carry no state.
        JournalEvent::Accepted { .. }
        | JournalEvent::Deferred { .. }
        | JournalEvent::Rejected { .. }
        | JournalEvent::Rescued { .. }
        | JournalEvent::Demoted { .. }
        | JournalEvent::Reserved { .. }
        | JournalEvent::ReservationActivated { .. }
        | JournalEvent::Throttled { .. }
        | JournalEvent::SloBreach { .. } => {}
    }
}

/// Steps 1–3 of recovery: decode, restore the last snapshot, replay the
/// tail. Returns the rebuilt bare gateway (no re-verification yet, no new
/// journal) plus the partial report — the exact pre-crash state, which the
/// replay-determinism tests compare against the live gateway.
/// `G` is always [`ShardedGateway`]; it is kept so the spelling
/// `replay::<ShardedGateway>` still compiles.
pub fn replay<G: From<ShardedGateway>>(bytes: &[u8]) -> Result<(G, RecoveryReport), JournalError> {
    let (frames, tail) = decode_frames(bytes);
    let last = frames
        .iter()
        .rposition(|f| f.kind == RecordKind::Snapshot)
        .ok_or(JournalError::NoSnapshot)?;
    let snapshot: GatewaySnapshot = serde_json::from_slice(frames[last].payload)?;
    let epoch = snapshot.epoch;
    let mut gateway = snapshot.restore()?;
    let frames_decoded = frames.len() - last; // the snapshot and its tail
    let (mut events_replayed, mut turn) = (0, Turn::default());
    for frame in &frames[last + 1..] {
        if let Some(event) = JournalEvent::decode_input(frame.payload)? {
            apply_event(&mut gateway, &event, &mut turn);
            events_replayed += 1;
        }
    }
    let audit_records = frames_decoded - 1 - events_replayed;
    Ok((
        gateway.into(),
        RecoveryReport {
            frames_decoded,
            events_replayed,
            audit_records,
            tail,
            demoted: Vec::new(),
            recovered_at: SimTime::ZERO,
            epoch,
        },
    ))
}

/// Full recovery (steps 1–4) into a fresh journal: rebuild from `bytes`,
/// re-verify every recovered plan at `now` (demoting what no longer passes
/// the strict test), and wrap the result in a [`JournaledGateway`] whose
/// new journal opens with a post-recovery snapshot followed by the demotion
/// audit records.
pub fn recover(
    bytes: &[u8],
    now: SimTime,
    cfg: JournalConfig,
    sink: Option<Box<dyn JournalSink>>,
) -> Result<(JournaledGateway, RecoveryReport), JournalError> {
    let (gateway, mut report) = replay(bytes)?;
    let (journaled, demoted) = requalify(gateway, now, cfg, sink, report.epoch);
    report.demoted = demoted;
    report.recovered_at = now;
    Ok((journaled, report))
}

/// Step 4 of recovery, shared with warm-standby promotion: drop what replay
/// left in the breach log and the metrics' wall-clock half, re-verify every
/// waiting plan at `now` (demoting what no longer passes the strict test),
/// wrap the gateway in a fresh [`JournaledGateway`] journaling under
/// `epoch`, and journal the demotions after the genesis snapshot. Returns
/// the wrapper and the demoted task ids.
pub fn requalify(
    mut gateway: ShardedGateway,
    now: SimTime,
    cfg: JournalConfig,
    sink: Option<Box<dyn JournalSink>>,
    epoch: u64,
) -> (JournaledGateway, Vec<TaskId>) {
    gateway.book_mut().forget_replay();
    let demoted: Vec<TaskId> = gateway.reverify(now).iter().map(|t| t.id).collect();
    let mut journal = match sink {
        Some(sink) => Journal::with_sink(cfg, sink),
        None => Journal::in_memory(cfg),
    };
    journal.set_epoch(epoch);
    let mut journaled = JournaledGateway::with_journal(gateway, journal);
    journaled.mark_recovered(now);
    for task in &demoted {
        journaled
            .journal_mut()
            .append_event(&JournalEvent::Demoted {
                task: task.0,
                at: now,
            });
    }
    // Demotions are attainment-SLO events: if the re-admission pass tipped
    // a scope into breach, that breach is new (post-crash) and belongs in
    // the fresh journal.
    journaled.audit_breaches();
    (journaled, demoted)
}

/// The file round trip: read `path`, recover at `now`, and re-journal into
/// the same file under `policy` (the rewrite compacts the log down to the
/// post-recovery snapshot). The file is only rewritten — by the sink's
/// atomic exchange with its retired log — *after* recovery has succeeded,
/// so a failed recovery (or a crash mid-rewrite) always leaves the original
/// journal intact for a retry or an operator post-mortem.
///
/// The [`FsyncPolicy`] is process configuration, not journaled state, so recovery
/// cannot infer it from the log: a group-commit edge passes its own to keep
/// its durability/cost point across a restart.
/// `G` is always [`ShardedGateway`]; it is kept so the spelling
/// `recover_file_with_policy::<ShardedGateway>` still compiles.
pub fn recover_file_with_policy<G>(
    path: impl AsRef<Path>,
    now: SimTime,
    cfg: JournalConfig,
    policy: FsyncPolicy,
) -> Result<(JournaledGateway<G>, RecoveryReport), JournalError>
where
    JournaledGateway: Into<JournaledGateway<G>>,
{
    recover_file_on(Std, path, now, cfg, policy).map(|(j, report)| (j.into(), report))
}

/// [`recover_file_with_policy`] on `disk`.
pub fn recover_file_on<D: Disk + 'static>(
    disk: D,
    path: impl AsRef<Path>,
    now: SimTime,
    cfg: JournalConfig,
    policy: FsyncPolicy,
) -> Result<(JournaledGateway, RecoveryReport), JournalError> {
    let bytes = FileSink::read_on(&disk, &path)?;
    let (mut journaled, report) = recover(&bytes, now, cfg, None)?;
    let sink = FileSink::open_on(disk, &path, false)?.with_fsync_policy(policy);
    journaled.journal_mut().attach_sink(Box::new(sink));
    Ok((journaled, report))
}
