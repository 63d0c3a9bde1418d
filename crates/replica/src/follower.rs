//! The follower side: warm-standby replay, epoch fencing, promotion.
//!
//! A [`Follower`] receives the primary's [`ShipMsg`] stream and maintains
//! two things in lockstep:
//!
//! * a **mirror** — the byte-for-byte concatenation of every frame it has
//!   applied, i.e. the shipped prefix of the primary's journal. Recovering
//!   from the mirror with [`replay`] must always reproduce the standby
//!   exactly — the invariant the property tests pin.
//! * a **warm standby** gateway — the mirror's state, maintained
//!   *incrementally*: each snapshot frame restores it, each input event
//!   frame is read by [`JournalEvent::decode_input`] and applied by
//!   [`apply_event`], the reader and dispatcher crash recovery replays
//!   with. Promotion therefore starts from an
//!   already-current gateway instead of replaying a whole log after the
//!   disaster.
//!
//! **Idempotence & reordering.** Frames are addressed by the primary
//! journal's frame sequence number. Anything below `next_seq` has already
//! been applied and is counted as a duplicate, never re-applied; anything
//! ahead of `next_seq` parks in an out-of-order buffer and drains once the
//! gap fills. A buffered **snapshot** frame beyond a gap is a fast-forward
//! point: it supersedes every missing frame (that is exactly what a
//! compacting snapshot means), so the follower jumps to it rather than
//! waiting for retransmissions of bytes the primary may have already
//! compacted away.
//!
//! **Fencing.** The follower tracks the highest epoch it has ever seen and
//! ignores — without acking, without touching its failure detector — any
//! message from a lower epoch. After promotion bumps the epoch, the
//! still-running follower object *is* the fence: a zombie primary's late
//! appends carry the old epoch and land in [`FollowerStats::fenced`],
//! provably never in the state.

use std::collections::BTreeMap;

use rtdls_core::prelude::{SimTime, TaskId};
use rtdls_journal::prelude::*;
use rtdls_journal::wire::{decode_frames, RecordKind, TailStatus};
use rtdls_journal::{apply_event, requalify};
use rtdls_service::prelude::ShardedGateway;
use rtdls_telemetry::{Span, Stage, Telemetry};

/// One out-of-order frame parked until its gap fills: the encoded bytes
/// plus the trace label and shipped primary spans that rode the wire.
#[derive(Clone, Debug)]
struct BufferedFrame {
    bytes: Vec<u8>,
    trace: u64,
    spans: Vec<Span>,
}

/// Follower tunables, in sim-seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FollowerConfig {
    /// Promote after this long without hearing from the primary (frames
    /// and heartbeats both count as hearing).
    pub promote_after: f64,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        FollowerConfig {
            promote_after: 150.0,
        }
    }
}

/// Cumulative follower counters, for assertions and the metrics fold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FollowerStats {
    /// Frames applied to the standby (snapshots + events).
    pub applied: u64,
    /// Snapshot frames restored (including fast-forwards).
    pub snapshots_restored: u64,
    /// Frames discarded as already-applied (offset below `next_seq` or
    /// already buffered) — the idempotence counter.
    pub duplicates: u64,
    /// Messages discarded because they carried a stale epoch — the
    /// zombie-fence counter.
    pub fenced: u64,
    /// Gap jumps taken to a buffered snapshot frame.
    pub fast_forwards: u64,
    /// Largest out-of-order buffer depth observed.
    pub buffered_high_water: u64,
    /// Heartbeats received.
    pub heartbeats: u64,
}

/// What a promotion produced, for the ops record and the tests.
#[derive(Clone, Debug, PartialEq)]
pub struct Promotion {
    /// The new epoch the promoted gateway journals under.
    pub epoch: u64,
    /// Tasks the strict re-admission pass demoted to the defer queue
    /// (journaled as `Demoted` under the new epoch).
    pub demoted: Vec<TaskId>,
    /// The follower's applied frame count at promotion — the length of the
    /// shipped prefix the new primary's state is built from.
    pub applied_seq: u64,
}

/// A warm standby replaying one shard primary's shipped journal.
pub struct Follower {
    cfg: FollowerConfig,
    /// The standby gateway; `None` until the first snapshot frame lands.
    standby: Option<ShardedGateway>,
    /// Byte-identical copy of the applied journal prefix.
    mirror: Vec<u8>,
    /// Next frame sequence number the standby expects.
    next_seq: u64,
    /// Highest epoch ever seen (bumped past the primary's on promotion).
    epoch: u64,
    /// Out-of-order frames parked until their gap fills, keyed by seq.
    buffer: BTreeMap<u64, BufferedFrame>,
    /// Last instant anything arrived from the current epoch's primary.
    last_heard: Option<SimTime>,
    /// Highest head offset any heartbeat advertised.
    primary_head: u64,
    promoted: bool,
    stats: FollowerStats,
    /// Trace handle: when enabled, each applied frame's replay (and the
    /// shipped primary spans that rode with it) records into this
    /// follower's own flight recorder under the originating trace, so a
    /// post-failover timeline is answerable from the promoted side alone.
    telemetry: Telemetry,
}

impl Follower {
    /// A follower that has heard nothing yet.
    pub fn new(cfg: FollowerConfig) -> Self {
        Follower {
            cfg,
            standby: None,
            mirror: Vec::new(),
            next_seq: 0,
            epoch: 0,
            buffer: BTreeMap::new(),
            last_heard: None,
            primary_head: 0,
            promoted: false,
            stats: FollowerStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a trace handle: replay and promotion start recording
    /// `FollowerReplay`/`Promote` spans (plus the shipped primary spans)
    /// into this follower's own recorder, and the handle is forwarded to
    /// the gateway a later [`Follower::promote`] returns.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// Handles one channel message at sim-time `now`, returning the ack to
    /// send back (if any). Acks are cumulative — always the next expected
    /// sequence number — so a lost ack is repaired by any later one.
    pub fn on_msg(&mut self, now: SimTime, msg: ShipMsg) -> Result<Option<ShipMsg>, JournalError> {
        match msg {
            // Acks are primary-bound; a follower receiving one ignores it.
            ShipMsg::Ack { .. } => Ok(None),
            ShipMsg::Heartbeat { epoch, head } => {
                if epoch < self.epoch {
                    self.stats.fenced += 1;
                    return Ok(None);
                }
                self.epoch = epoch;
                self.last_heard = Some(now);
                self.primary_head = self.primary_head.max(head);
                self.stats.heartbeats += 1;
                Ok(Some(ShipMsg::Ack { seq: self.next_seq }))
            }
            ShipMsg::Frame {
                epoch,
                seq,
                bytes,
                trace,
                spans,
            } => {
                if epoch < self.epoch {
                    self.stats.fenced += 1;
                    return Ok(None);
                }
                self.epoch = epoch;
                self.last_heard = Some(now);
                if seq < self.next_seq || self.buffer.contains_key(&seq) {
                    self.stats.duplicates += 1;
                } else {
                    self.buffer.insert(
                        seq,
                        BufferedFrame {
                            bytes,
                            trace,
                            spans,
                        },
                    );
                    self.stats.buffered_high_water =
                        self.stats.buffered_high_water.max(self.buffer.len() as u64);
                    self.drain(now)?;
                }
                Ok(Some(ShipMsg::Ack { seq: self.next_seq }))
            }
        }
    }

    /// Applies buffered frames: in-order as long as `next_seq` is present,
    /// then fast-forwards to the newest buffered snapshot if a gap blocks
    /// further progress (the snapshot supersedes the missing frames).
    fn drain(&mut self, now: SimTime) -> Result<(), JournalError> {
        loop {
            if let Some(frame) = self.buffer.remove(&self.next_seq) {
                self.apply(now, &frame)?;
                continue;
            }
            let jump = self
                .buffer
                .iter()
                .rev()
                .find_map(|(&seq, frame)| Self::is_snapshot(&frame.bytes).then_some(seq));
            match jump {
                Some(seq) => {
                    let frame = self.buffer.remove(&seq).expect("jump target buffered");
                    self.buffer.retain(|&s, _| s > seq);
                    self.apply(now, &frame)?;
                    self.next_seq = seq + 1;
                    self.stats.fast_forwards += 1;
                }
                None => return Ok(()),
            }
        }
    }

    fn is_snapshot(bytes: &[u8]) -> bool {
        let (frames, _) = decode_frames(bytes);
        frames
            .first()
            .is_some_and(|f| f.kind == RecordKind::Snapshot)
    }

    /// Applies one shipped frame to the standby and appends it to the
    /// mirror. Advances `next_seq` by one (the fast-forward path then
    /// overwrites it with the jump target).
    ///
    /// When a trace handle is attached, the primary's shipped spans are
    /// re-sequenced into this follower's recorder (fresh local `seq`, same
    /// stage/timing), then a [`Stage::FollowerReplay`] span marks the
    /// apply itself — so one trace id answers for the whole cross-node
    /// timeline from the follower's ops channel after the primary is gone.
    fn apply(&mut self, now: SimTime, frame: &BufferedFrame) -> Result<(), JournalError> {
        let timer = self.telemetry.timer();
        let (frames, tail) = decode_frames(&frame.bytes);
        if tail != TailStatus::Clean || frames.len() != 1 {
            return Err(JournalError::Corrupt(
                "shipped frame did not decode to exactly one clean record".into(),
            ));
        }
        let record = &frames[0];
        let mut trace = frame.trace;
        let mut task = 0u64;
        match record.kind {
            RecordKind::Snapshot => {
                let snap: GatewaySnapshot = serde_json::from_slice(record.payload)?;
                self.standby = Some(snap.restore()?);
                self.stats.snapshots_restored += 1;
            }
            // Audit records ship (the mirror is a faithful prefix) but only
            // input events drive the state machine, read by the same reader
            // recovery's replay uses.
            RecordKind::Event => {
                if let Some(event) = JournalEvent::decode_input(record.payload)? {
                    if let JournalEvent::RequestSubmitted { request, .. } = &event {
                        // Untraced transports (or a telemetry-off primary)
                        // ship trace 0; the trace minted at submission
                        // still rides the WAL payload itself.
                        if trace == 0 {
                            trace = request.trace;
                        }
                        task = request.task.id.0;
                    }
                    if let Some(standby) = self.standby.as_mut() {
                        apply_event(standby, &event, &mut Turn::default());
                    }
                }
            }
        }
        if self.telemetry.is_enabled() {
            // Ingested ids were minted by the primary's counter; fence the
            // local counter past them so post-promotion mints stay unique.
            self.telemetry.reserve_traces(trace + 1);
            for span in &frame.spans {
                self.telemetry.reserve_traces(span.trace + 1);
                self.telemetry.record_ns(
                    span.trace,
                    span.stage,
                    span.shard,
                    span.task,
                    &span.outcome,
                    span.at,
                    span.duration_ns,
                );
                if span.task != 0 {
                    self.telemetry.remember(span.task, span.trace);
                }
            }
            let outcome = format!("applied seq {}", self.next_seq);
            self.telemetry.record(
                trace,
                Stage::FollowerReplay,
                None,
                task,
                &outcome,
                now,
                timer,
            );
            if task != 0 && trace != 0 {
                self.telemetry.remember(task, trace);
            }
        }
        self.mirror.extend_from_slice(&frame.bytes);
        self.next_seq += 1;
        self.stats.applied += 1;
        Ok(())
    }

    /// Whether the failure detector has fired: a standby exists and the
    /// primary has been silent for [`FollowerConfig::promote_after`] — the
    /// clock has reached [`promote_at`](Follower::promote_at).
    pub fn should_promote(&self, now: SimTime) -> bool {
        self.promote_at().is_some_and(|at| now >= at)
    }

    /// The earliest instant promotion could fire absent further traffic
    /// (`None` if already promoted, no standby exists, or nothing has ever
    /// been heard).
    pub fn promote_at(&self) -> Option<SimTime> {
        if self.promoted || self.standby.is_none() {
            return None;
        }
        self.last_heard
            .map(|t| SimTime::new(t.as_f64() + self.cfg.promote_after))
    }

    /// Promotes the standby to primary: bumps the epoch (fencing every
    /// message the dead primary may still emit), then runs the **same
    /// strict re-admission pass as crash recovery** — every recovered plan
    /// is re-verified at `now`, the no-longer-feasible ones demoted to the
    /// defer queue and journaled as `Demoted` under the new epoch.
    ///
    /// The follower object stays alive after promotion *as the fence*:
    /// feed it the zombie's late traffic and watch
    /// [`FollowerStats::fenced`] grow while the state provably doesn't.
    pub fn promote(
        &mut self,
        now: SimTime,
        cfg: JournalConfig,
        sink: Option<Box<dyn JournalSink>>,
    ) -> Result<(JournaledGateway, Promotion), JournalError> {
        let standby = self.standby.take().ok_or(JournalError::NoSnapshot)?;
        self.epoch += 1;
        self.promoted = true;
        let (mut journaled, demoted) = requalify(standby, now, cfg, sink, self.epoch);
        if self.telemetry.is_enabled() {
            // Fence every in-flight trace with a promotion marker, so a
            // timeline query after failover shows *where* ownership moved.
            let outcome = format!("promoted to epoch {}", self.epoch);
            for trace in self.telemetry.recent_traces(32) {
                self.telemetry
                    .record(trace, Stage::Promote, None, 0, &outcome, now, None);
            }
            // The promoted gateway inherits this recorder: post-failover
            // traffic lands in the same flight recorder as replayed history.
            journaled.attach_telemetry(&self.telemetry);
        }
        Ok((
            journaled,
            Promotion {
                epoch: self.epoch,
                demoted,
                applied_seq: self.next_seq,
            },
        ))
    }

    /// Mutable access to the standby: node releases that arrive while no
    /// primary serves reach it before the promotion's re-admission pass.
    pub fn standby_mut(&mut self) -> Option<&mut ShardedGateway> {
        self.standby.as_mut()
    }

    /// The standby gateway, if a snapshot has landed.
    pub fn standby(&self) -> Option<&ShardedGateway> {
        self.standby.as_ref()
    }

    /// The applied journal prefix, byte-identical to what the primary
    /// shipped and the follower applied.
    pub fn bytes(&self) -> &[u8] {
        &self.mirror
    }

    /// Next frame sequence number the standby expects.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Highest epoch ever seen (post-promotion: the promoted epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Replication lag from the follower's view: advertised head minus
    /// applied frames. `None` until the first current-epoch message lands —
    /// a follower that has heard *nothing* is not "caught up", and callers
    /// alerting on lag must tell the two apart (0 used to mean both).
    pub fn lag(&self) -> Option<u64> {
        self.last_heard?;
        Some(self.primary_head.saturating_sub(self.next_seq))
    }

    /// Last instant anything arrived from a current-epoch primary.
    pub fn last_heard(&self) -> Option<SimTime> {
        self.last_heard
    }

    /// Whether this follower has promoted.
    pub fn promoted(&self) -> bool {
        self.promoted
    }

    /// Cumulative counters.
    pub fn stats(&self) -> FollowerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::prelude::*;
    use rtdls_service::prelude::*;

    fn journaled(snapshot_every: usize, compact: bool) -> JournaledGateway {
        let gw = ShardedGateway::new(
            ClusterParams::paper_baseline(),
            1,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .unwrap();
        JournaledGateway::new(
            gw,
            JournalConfig {
                snapshot_every,
                compact_on_snapshot: compact,
            },
        )
    }

    fn ship_all(gw: &JournaledGateway, ship: &mut Shipper, fol: &mut Follower, now: SimTime) {
        for msg in ship.poll(gw.journal(), now) {
            if let Some(ShipMsg::Ack { seq }) = fol.on_msg(now, msg).unwrap() {
                ship.on_ack(seq, now);
            }
        }
    }

    #[test]
    fn in_order_stream_builds_a_byte_identical_mirror() {
        let mut gw = journaled(0, false);
        let mut ship = Shipper::new(ShipConfig::default());
        let mut fol = Follower::new(FollowerConfig::default());
        for i in 0..5 {
            gw.submit_request(
                &SubmitRequest::new(Task::new(i, 0.0, 500.0, 30_000.0)),
                SimTime::new(i as f64),
            );
            ship_all(&gw, &mut ship, &mut fol, SimTime::new(i as f64));
        }
        assert_eq!(fol.bytes(), gw.journal().bytes(), "mirror == primary log");
        assert_eq!(fol.next_seq(), gw.journal().next_seq());
        assert_eq!(ship.lag(gw.journal()), 0);
        // The warm standby equals a cold replay of the mirror.
        let (cold, _) = replay::<ShardedGateway>(fol.bytes()).unwrap();
        assert_eq!(
            GatewaySnapshot::capture(fol.standby().unwrap()),
            GatewaySnapshot::capture(&cold)
        );
    }

    #[test]
    fn duplicates_and_reordering_never_double_apply() {
        let mut gw = journaled(0, false);
        let mut ship = Shipper::new(ShipConfig::default());
        let mut fol = Follower::new(FollowerConfig::default());
        for i in 0..4 {
            gw.submit_request(
                &SubmitRequest::new(Task::new(i, 0.0, 500.0, 30_000.0)),
                SimTime::ZERO,
            );
        }
        let msgs = ship.poll(gw.journal(), SimTime::ZERO);
        let frames: Vec<ShipMsg> = msgs
            .iter()
            .filter(|m| matches!(m, ShipMsg::Frame { .. }))
            .cloned()
            .collect();
        // Deliver in reverse, then the whole batch again, then once more.
        for round in 0..3 {
            for msg in frames.iter().rev() {
                let _ = fol.on_msg(SimTime::new(round as f64), msg.clone()).unwrap();
            }
        }
        assert_eq!(fol.next_seq(), gw.journal().next_seq());
        assert_eq!(fol.bytes(), gw.journal().bytes());
        assert_eq!(fol.stats().applied, gw.journal().next_seq());
        assert!(fol.stats().duplicates >= 2 * gw.journal().next_seq());
        let (cold, _) = replay::<ShardedGateway>(fol.bytes()).unwrap();
        assert_eq!(
            GatewaySnapshot::capture(fol.standby().unwrap()),
            GatewaySnapshot::capture(&cold)
        );
    }

    #[test]
    fn a_gap_blocks_until_filled_then_drains_in_order() {
        let mut gw = journaled(0, false);
        let mut ship = Shipper::new(ShipConfig::default());
        let mut fol = Follower::new(FollowerConfig::default());
        for i in 0..3 {
            gw.submit_request(
                &SubmitRequest::new(Task::new(i, 0.0, 500.0, 30_000.0)),
                SimTime::ZERO,
            );
        }
        let frames: Vec<ShipMsg> = ship
            .poll(gw.journal(), SimTime::ZERO)
            .into_iter()
            .filter(|m| matches!(m, ShipMsg::Frame { .. }))
            .collect();
        // Withhold frame 1 (an event record): 2.. park in the buffer.
        for (i, msg) in frames.iter().enumerate() {
            if i == 1 {
                continue;
            }
            let _ = fol.on_msg(SimTime::ZERO, msg.clone()).unwrap();
        }
        assert_eq!(fol.next_seq(), 1, "stuck at the gap");
        assert!(fol.stats().buffered_high_water >= 2);
        let ack = fol.on_msg(SimTime::ZERO, frames[1].clone()).unwrap();
        assert_eq!(
            ack,
            Some(ShipMsg::Ack {
                seq: frames.len() as u64
            })
        );
        assert_eq!(fol.bytes(), gw.journal().bytes());
    }

    #[test]
    fn a_snapshot_beyond_a_gap_fast_forwards() {
        // Compacting primary: the shipper's clamp means the follower may
        // receive a snapshot whose seq is far beyond what it has applied,
        // with the gap frames compacted out of existence. It must jump.
        let mut gw = journaled(2, true);
        let mut ship = Shipper::new(ShipConfig::default());
        let mut fol = Follower::new(FollowerConfig::default());
        // Let the log compact *before* the first poll: the early frames
        // are gone; shipping starts at the compacting snapshot.
        for i in 0..8 {
            gw.submit_request(
                &SubmitRequest::new(Task::new(i, 0.0, 500.0, 30_000.0)),
                SimTime::ZERO,
            );
        }
        assert!(gw.journal().base_seq() > 0);
        ship_all(&gw, &mut ship, &mut fol, SimTime::ZERO);
        assert_eq!(fol.next_seq(), gw.journal().next_seq());
        assert!(fol.stats().fast_forwards >= 1, "jumped the compacted gap");
        // The mirror holds the anchored suffix; replay still works.
        let (cold, _) = replay::<ShardedGateway>(fol.bytes()).unwrap();
        assert_eq!(
            GatewaySnapshot::capture(fol.standby().unwrap()),
            GatewaySnapshot::capture(&cold)
        );
    }

    #[test]
    fn stale_epochs_are_fenced_and_do_not_feed_the_failure_detector() {
        let mut gw = journaled(0, false);
        let mut ship = Shipper::new(ShipConfig::default());
        let mut fol = Follower::new(FollowerConfig::default());
        gw.submit_request(
            &SubmitRequest::new(Task::new(1, 0.0, 500.0, 30_000.0)),
            SimTime::ZERO,
        );
        ship_all(&gw, &mut ship, &mut fol, SimTime::ZERO);
        let before = GatewaySnapshot::capture(fol.standby().unwrap());
        let heard = fol.last_heard();

        // A message from epoch 0 after the follower has moved to epoch 5.
        let _ = fol.on_msg(
            SimTime::new(1.0),
            ShipMsg::Heartbeat {
                epoch: 5,
                head: fol.next_seq(),
            },
        );
        let stale = ShipMsg::frame(0, fol.next_seq(), vec![1, 2, 3]);
        let reply = fol.on_msg(SimTime::new(2.0), stale).unwrap();
        assert_eq!(reply, None, "fenced traffic is not even acked");
        assert_eq!(fol.stats().fenced, 1);
        assert_eq!(
            GatewaySnapshot::capture(fol.standby().unwrap()),
            before,
            "state untouched"
        );
        assert_ne!(heard, fol.last_heard(), "heartbeat updated the detector");
        assert_eq!(fol.last_heard(), Some(SimTime::new(1.0)), "zombie did not");
    }

    #[test]
    fn promotion_bumps_the_epoch_requalifies_and_fences_the_zombie() {
        let mut gw = journaled(0, false);
        let mut ship = Shipper::new(ShipConfig::default());
        let cfg = FollowerConfig {
            promote_after: 50.0,
        };
        let mut fol = Follower::new(cfg);
        for i in 0..3 {
            gw.submit_request(
                &SubmitRequest::new(Task::new(i, 0.0, 500.0, 30_000.0)),
                SimTime::ZERO,
            );
        }
        ship_all(&gw, &mut ship, &mut fol, SimTime::ZERO);
        assert!(!fol.should_promote(SimTime::new(10.0)));
        assert_eq!(fol.promote_at(), Some(SimTime::new(50.0)));
        assert!(fol.should_promote(SimTime::new(60.0)));

        let prefix = fol.bytes().to_vec();
        let (promoted, record) = fol
            .promote(SimTime::new(60.0), JournalConfig::default(), None)
            .unwrap();
        assert_eq!(record.epoch, 1);
        assert_eq!(promoted.journal().epoch(), 1);
        assert_eq!(record.applied_seq, fol.next_seq());
        assert!(fol.promoted());
        assert!(!fol.should_promote(SimTime::new(1e9)), "promotes once");

        // The promoted state equals a reference recovery of the prefix:
        // replay, then the strict re-admission pass under the new epoch.
        let (replayed, _) = replay::<ShardedGateway>(&prefix).unwrap();
        let (reference, _) = requalify(
            replayed,
            SimTime::new(60.0),
            JournalConfig::default(),
            None,
            1,
        );
        assert_eq!(
            GatewaySnapshot::capture(promoted.inner()),
            GatewaySnapshot::capture(reference.inner())
        );

        // The zombie's late append, stamped with the dead epoch, fences.
        let zombie = ShipMsg::frame(0, 99, vec![0xde]);
        assert_eq!(fol.on_msg(SimTime::new(61.0), zombie).unwrap(), None);
        assert_eq!(fol.stats().fenced, 1);
    }

    /// Replay re-makes past decisions at replay speed; neither a recovered
    /// nor a promoted gateway books them as its own wall-clock samples or
    /// rate. Its first live decision is its first sample.
    #[test]
    fn recovery_and_promotion_start_the_wall_clock_empty() {
        let mut gw = journaled(0, false);
        let mut ship = Shipper::new(ShipConfig::default());
        let mut fol = Follower::new(FollowerConfig::default());
        for i in 0..20 {
            gw.submit_request(
                &SubmitRequest::new(Task::new(i, 0.0, 500.0, 30_000.0)),
                SimTime::ZERO,
            );
        }
        ship_all(&gw, &mut ship, &mut fol, SimTime::ZERO);
        let now = SimTime::new(1.0);
        let (recovered, _) =
            recover(gw.journal().bytes(), now, JournalConfig::default(), None).unwrap();
        let (promoted, _) = fol.promote(now, JournalConfig::default(), None).unwrap();
        for mut restarted in [recovered, promoted] {
            assert_eq!(restarted.metrics().submitted, 20, "counters carry over");
            assert_eq!(restarted.metrics().decision_latency().count(), 0);
            assert_eq!(restarted.metrics().decisions_per_sec(), 0.0);
            restarted.submit_request(
                &SubmitRequest::new(Task::new(99, 1.0, 500.0, 30_000.0)),
                now,
            );
            assert_eq!(restarted.metrics().decision_latency().count(), 1);
        }
    }

    #[test]
    fn the_promoted_epoch_survives_compaction_and_a_file_restart() {
        let mut gw = journaled(0, false);
        let mut ship = Shipper::new(ShipConfig::default());
        let mut fol = Follower::new(FollowerConfig::default());
        for i in 0..3 {
            gw.submit_request(
                &SubmitRequest::new(Task::new(i, 0.0, 500.0, 30_000.0)),
                SimTime::ZERO,
            );
        }
        ship_all(&gw, &mut ship, &mut fol, SimTime::ZERO);

        // Promote onto a WAL file that compacts every second input, so the
        // promoted gateway's genesis snapshot is compacted away and the
        // file holds only snapshots written after promotion.
        let path = std::env::temp_dir().join(format!(
            "rtdls-promoted-epoch-test-{}.wal",
            std::process::id()
        ));
        let cfg = JournalConfig {
            snapshot_every: 2,
            compact_on_snapshot: true,
        };
        let sink = FileSink::create(&path).unwrap();
        let (mut promoted, record) = fol
            .promote(SimTime::new(200.0), cfg, Some(Box::new(sink)))
            .unwrap();
        assert_eq!(record.epoch, 1);
        for i in 10..15 {
            promoted.submit_request(
                &SubmitRequest::new(Task::new(i, 200.0, 500.0, 30_000.0)),
                SimTime::new(200.0),
            );
        }
        assert!(
            promoted.journal().snapshots_appended() >= 2,
            "at least one compacting snapshot after the genesis"
        );
        drop(promoted);

        let wal = FileSink::read(&path).unwrap();
        let (frames, tail) = decode_frames(&wal);
        assert!(tail.is_clean());
        let epochs: Vec<u64> = frames
            .iter()
            .filter(|f| f.kind == RecordKind::Snapshot)
            .map(|f| {
                serde_json::from_slice::<GatewaySnapshot>(f.payload)
                    .unwrap()
                    .epoch
            })
            .collect();
        assert!(!epochs.is_empty(), "the file opens with a snapshot");
        assert!(epochs.iter().all(|&e| e == 1), "snapshot epochs {epochs:?}");

        // A restart from the file journals under the promoted epoch.
        let (restarted, report) = recover_file_with_policy::<ShardedGateway>(
            &path,
            SimTime::new(300.0),
            cfg,
            FsyncPolicy::Batch(8),
        )
        .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(restarted.journal().epoch(), 1);
        drop(restarted);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("wal.spare"));
    }
}
