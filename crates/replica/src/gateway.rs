//! [`ShippingGateway`]: a journaled primary with replication riding along.
//!
//! This is the deployable bundle the edge serves, and the primary the
//! failover harness kills: a [`JournaledGateway`] plus the [`Shipper`] on
//! its journal. Once per turn, after its `drive` has committed, freshly
//! appended journal frames become outbound [`ShipMsg`]s in an outbox: the
//! journal image holds a turn's frames from the moment they are decided,
//! but none of them leaves the process before the turn is durable.
//!
//! The gateway touches no socket. Its owner carries the outbox: the
//! failover harness and the benches drain [`take_outbox`] and feed acks to
//! [`on_ack`]; the edge reactor swaps the outbox for acks as bytes through
//! [`EdgeGateway::swap_ship_bytes`] after every `drive`, writing them to
//! its follower link, one more non-blocking socket in its epoll set. A
//! follower that stops reading costs the primary its link, never its
//! turn: replication is an availability feature, not a durability gate.
//!
//! [`take_outbox`]: ShippingGateway::take_outbox
//! [`on_ack`]: ShippingGateway::on_ack

use rtdls_core::prelude::{AdmissionFailure, SimTime, SubmitRequest, TaskId, TaskPlan};
use rtdls_journal::prelude::{JournaledGateway, Recoverable};
use rtdls_service::prelude::{EdgeGateway, ServiceBook, ShardedGateway, Verdict};
use rtdls_sim::serve::{Resolution, Serve, Turn};
use rtdls_telemetry::{MetricsRegistry, Telemetry};

use crate::net::{decode_msg, encode_msg};
use crate::ship::{ShipConfig, ShipMsg, Shipper};
use crate::telemetry::fold_replication_metrics;

/// A journaled gateway that ships its journal as it grows.
pub struct ShippingGateway<G: Recoverable> {
    inner: JournaledGateway<G>,
    shipper: Shipper,
    outbox: Vec<ShipMsg>,
}

impl<G: Recoverable> ShippingGateway<G> {
    /// Wraps `inner`, shipping under `cfg`. Outbound messages buffer in the
    /// outbox until [`take_outbox`](ShippingGateway::take_outbox) or
    /// [`EdgeGateway::swap_ship_bytes`] drains it.
    pub fn new(inner: JournaledGateway<G>, cfg: ShipConfig) -> Self {
        ShippingGateway {
            inner,
            shipper: Shipper::new(cfg),
            outbox: Vec::new(),
        }
    }

    /// Ships everything appended since the last pump into the outbox —
    /// after a commit, never inside a turn.
    fn pump(&mut self, now: SimTime) {
        self.outbox
            .extend(self.shipper.poll(self.inner.journal(), now));
    }

    /// Applies one follower ack.
    pub fn on_ack(&mut self, seq: u64, now: SimTime) {
        self.shipper.on_ack(seq, now);
    }

    /// Drains the buffered outbound messages.
    pub fn take_outbox(&mut self) -> Vec<ShipMsg> {
        std::mem::take(&mut self.outbox)
    }

    /// The wrapped journaled gateway.
    pub fn inner(&self) -> &JournaledGateway<G> {
        &self.inner
    }

    /// Unwraps, dropping the replication channel.
    pub fn into_inner(self) -> JournaledGateway<G> {
        self.inner
    }

    /// The shipper (ship/ack offsets, retransmission stats).
    pub fn shipper(&self) -> &Shipper {
        &self.shipper
    }
}

impl<G: Recoverable> EdgeGateway for ShippingGateway<G> {
    fn bare(&self) -> &ShardedGateway {
        self.inner.bare()
    }

    fn book_mut(&mut self) -> &mut ServiceBook {
        self.inner.book_mut()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    /// Frames appended but not yet acked by the follower — the admitted
    /// history a failover right now would lose. `None` when no follower
    /// has ever acked (nothing is known about the other side).
    fn ack_lag(&self) -> Option<u64> {
        (self.shipper.acked() > 0).then(|| self.shipper.lag(self.inner.journal()))
    }

    /// Everything the journaled gateway folds, plus the `rtdls_replica_*`
    /// offsets and lag. Whether a follower is linked is the edge's to say.
    fn fold_metrics(&self, reg: &mut MetricsRegistry) {
        self.inner.fold_metrics(reg);
        fold_replication_metrics(reg, &self.shipper, self.inner.journal());
    }

    /// Applies the follower's acks and hands over the outbox in the `RS`
    /// framing of [`crate::net`].
    fn swap_ship_bytes(
        &mut self,
        now: SimTime,
        acks: &[u8],
        frames: &mut Vec<u8>,
    ) -> Result<usize, String> {
        let mut used = 0;
        while let Some((msg, len)) = decode_msg(&acks[used..]).map_err(|e| e.to_string())? {
            let ShipMsg::Ack { seq } = msg else {
                return Err("a follower sent something other than an ack".into());
            };
            self.shipper.on_ack(seq, now);
            used += len;
        }
        for msg in self.outbox.drain(..) {
            encode_msg(&msg, frames);
        }
        Ok(used)
    }

    /// Attaches to both the wrapped gateway (the journal and the planning
    /// core) and the shipper, so shipped frames carry the request's trace
    /// id and its primary-side spans across the wire, and the shipper's
    /// poll/ack phases are timed.
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.attach_telemetry(telemetry);
        self.shipper.attach_telemetry(telemetry);
    }
}

impl<G: Recoverable> Serve for ShippingGateway<G> {
    type Outcome = Verdict;

    /// Decides inside the turn: the decision's frames ship with the turn,
    /// once its `drive` has made them durable.
    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        self.inner.decide(request, now)
    }

    /// The journaled turn, then the pump: replication lag is bounded by
    /// the serving turn cadence, not a side thread.
    fn drive_into(&mut self, now: SimTime, turn: &mut Turn) {
        self.inner.drive_into(now, turn);
        self.pump(now);
    }

    /// The journaled turn's timed work; nothing ships before its drive.
    fn catch_up(&mut self, now: SimTime, turn: &mut Turn) {
        self.inner.catch_up(now, turn)
    }

    /// The journaled gateway's timed work, or the next heartbeat: an idle
    /// primary still owes its follower a sign of life (the first one at
    /// once), or the standby would promote itself.
    fn next_due(&self) -> Option<SimTime> {
        let beat = self.shipper.next_heartbeat().unwrap_or(SimTime::ZERO);
        Some(self.inner.next_due().map_or(beat, |due| due.min(beat)))
    }

    fn finalize(&mut self, now: SimTime) -> Vec<Resolution> {
        let resolved = self.inner.finalize(now);
        self.pump(now);
        resolved
    }

    fn replan_waiting(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        self.inner.replan_waiting(now)
    }

    fn committed_release(&self, node: usize) -> SimTime {
        self.inner.committed_release(node)
    }

    fn node_released(&mut self, node: usize, at: SimTime) {
        self.inner.node_released(node, at);
    }

    fn plan_of(&self, task: TaskId) -> Option<&TaskPlan> {
        self.inner.plan_of(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::follower::{Follower, FollowerConfig};
    use rtdls_core::prelude::*;
    use rtdls_journal::prelude::*;
    use rtdls_service::prelude::*;

    fn primary() -> JournaledGateway<ShardedGateway> {
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
                snapshot_every: 0,
                compact_on_snapshot: false,
            },
        )
    }

    /// Task ids of the `RequestSubmitted` frames among `msgs`.
    fn shipped_requests(msgs: &[ShipMsg]) -> Vec<u64> {
        msgs.iter()
            .filter_map(|m| match m {
                ShipMsg::Frame { bytes, .. } => {
                    let (frames, _) = rtdls_journal::wire::decode_frames(bytes);
                    match JournalEvent::decode_input(frames[0].payload).ok()?? {
                        JournalEvent::RequestSubmitted { request, .. } => Some(request.task.id.0),
                        _ => None,
                    }
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_decision_leaves_the_process_only_with_its_turn() {
        let mut gw = ShippingGateway::new(primary(), ShipConfig::default());
        let now = SimTime::ZERO;
        for id in 0..4u64 {
            let request = SubmitRequest::new(Task::new(id, 0.0, 20.0, 2_000.0));
            assert!(gw.decide(&request, now).is_accepted());
        }
        // Decided, in the journal's image, not yet durable: nothing ships.
        assert!(gw.inner().journal().next_seq() > 4);
        assert!(shipped_requests(&gw.take_outbox()).is_empty());
        // The turn's timed work run ahead of its drive: journaled, unshipped.
        let seq = gw.inner().journal().next_seq();
        let mut turn = Turn::default();
        gw.catch_up(now, &mut turn);
        assert_eq!(turn.dispatched.len(), 4);
        assert!(gw.inner().journal().next_seq() > seq);
        let outbox = gw.take_outbox();
        assert!(!outbox.iter().any(|m| matches!(m, ShipMsg::Frame { .. })));
        gw.drive(now);
        assert_eq!(shipped_requests(&gw.take_outbox()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn outbox_mode_ships_on_pump_and_applies_manual_acks() {
        let mut gw = ShippingGateway::new(primary(), ShipConfig::default());
        gw.decide(
            &SubmitRequest::new(Task::new(1, 0.0, 20.0, 2_000.0)),
            SimTime::ZERO,
        );
        gw.drive(SimTime::ZERO);
        let msgs = gw.take_outbox();
        assert!(
            msgs.iter().any(|m| matches!(m, ShipMsg::Frame { .. })),
            "{msgs:?}"
        );
        let mut follower: Follower<ShardedGateway> = Follower::new(FollowerConfig::default());
        let mut last_ack = None;
        for msg in msgs {
            if let Some(ShipMsg::Ack { seq }) = follower.on_msg(SimTime::ZERO, msg).unwrap() {
                last_ack = Some(seq);
            }
        }
        gw.on_ack(last_ack.expect("follower acked"), SimTime::ZERO);
        assert_eq!(gw.shipper().lag(gw.inner().journal()), 0);
        assert_eq!(follower.bytes(), gw.inner().journal().bytes());

        // Shipping never changes a decision: `decide` answers what a bare
        // journaled gateway answers, refusals included.
        let mut bare = primary();
        let mut shipping = ShippingGateway::new(primary(), ShipConfig::default());
        let mut accepted = 0;
        for id in 0..40u64 {
            let deadline = 300.0 * (1 + id % 8) as f64;
            let request = SubmitRequest::new(Task::new(id, 0.0, 200.0, deadline));
            let verdict = shipping.decide(&request, SimTime::ZERO);
            assert_eq!(verdict, bare.submit_request(&request, SimTime::ZERO));
            accepted += verdict.is_accepted() as usize;
        }
        assert!(0 < accepted && accepted < 40, "both outcomes: {accepted}");
        shipping.drive(SimTime::ZERO);
        assert!(shipping.take_outbox().len() > 40, "every decision shipped");
    }

    #[test]
    fn fold_covers_gateway_and_replication_views() {
        let mut gw = ShippingGateway::new(primary(), ShipConfig::default());
        gw.decide(
            &SubmitRequest::new(Task::new(1, 0.0, 20.0, 2_000.0)),
            SimTime::ZERO,
        );
        gw.drive(SimTime::ZERO);
        let mut reg = MetricsRegistry::new();
        gw.fold_metrics(&mut reg);
        let text = reg.to_prometheus();
        assert!(text.contains("rtdls_gateway_submitted"), "{text}");
        assert!(text.contains("rtdls_journal_events_appended"), "{text}");
        assert!(text.contains("rtdls_replica_shipped_offset"), "{text}");
    }
}
