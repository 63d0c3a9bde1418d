//! [`ShippingGateway`]: a journaled primary with replication riding along.
//!
//! This is the deployable bundle the edge serves, and the primary the
//! failover harness kills: a [`JournaledGateway`] plus the [`Shipper`] on
//! its journal, and optionally a live TCP [`ShipClient`] to a follower.
//! Once per turn, after its `drive` has committed, freshly appended journal
//! frames become outbound [`ShipMsg`]s and any acks the follower sent back
//! are drained: the journal image holds a turn's frames from the moment
//! they are decided, but none of them leaves the process before the turn
//! is durable.
//!
//! Shipping must never make the admission hot path hostage to the
//! follower:
//!
//! * frames go out through a **non-blocking-ish** send (a dead follower
//!   surfaces as an error; the transport is dropped, a counter ticks, and
//!   the primary keeps serving solo — replication is an availability
//!   feature, not a durability gate);
//! * acks are only *polled* at heartbeat cadence, not awaited — they feed
//!   retransmission bookkeeping and the lag gauge, neither of which is
//!   latency-critical.
//!
//! Without a transport attached, outbound messages accumulate in an
//! outbox the owner drains by hand — the mode tests, benches, and custom
//! transports use.

use std::time::Duration;

use rtdls_core::prelude::{AdmissionFailure, SimTime, SubmitRequest, TaskId, TaskPlan};
use rtdls_journal::prelude::{JournaledGateway, Recoverable};
use rtdls_service::prelude::{EdgeGateway, ServiceBook, ShardedGateway, Verdict};
use rtdls_sim::serve::{Resolution, Serve, Turn};
use rtdls_telemetry::{MetricsRegistry, Profiler, Telemetry};

use crate::net::ShipClient;
use crate::ship::{ShipConfig, ShipMsg, Shipper};
use crate::telemetry::fold_replication_metrics;

/// How long one ack poll may block the pump. Acks are polled once per
/// heartbeat interval, so this bounds the shipping tax on an edge turn.
const ACK_POLL_BUDGET: Duration = Duration::from_millis(1);

/// A journaled gateway that ships its journal as it grows.
pub struct ShippingGateway<G: Recoverable> {
    inner: JournaledGateway<G>,
    shipper: Shipper,
    transport: Option<ShipClient>,
    outbox: Vec<ShipMsg>,
    last_ack_poll: Option<SimTime>,
    heartbeat_every: f64,
    transport_errors: u64,
}

impl<G: Recoverable> ShippingGateway<G> {
    /// Wraps `inner`, shipping under `cfg`. No transport is attached yet:
    /// outbound messages buffer in the outbox until
    /// [`attach`](ShippingGateway::attach) or
    /// [`take_outbox`](ShippingGateway::take_outbox).
    pub fn new(inner: JournaledGateway<G>, cfg: ShipConfig) -> Self {
        let heartbeat_every = cfg.heartbeat_every;
        ShippingGateway {
            inner,
            shipper: Shipper::new(cfg),
            transport: None,
            outbox: Vec::new(),
            last_ack_poll: None,
            heartbeat_every,
            transport_errors: 0,
        }
    }

    /// Attaches a live connection to a follower. Anything already in the
    /// outbox is flushed through it first (the follower deduplicates by
    /// offset, so a re-send is harmless).
    pub fn attach(&mut self, transport: ShipClient) {
        self.transport = Some(transport);
        let queued: Vec<ShipMsg> = self.outbox.drain(..).collect();
        for msg in queued {
            self.send(msg);
        }
    }

    /// Whether a transport is currently attached (it detaches itself on
    /// the first send error).
    pub fn connected(&self) -> bool {
        self.transport.is_some()
    }

    /// Ships everything appended since the last pump and polls for acks —
    /// after a commit, never inside a turn.
    fn pump(&mut self, now: SimTime) {
        for msg in self.shipper.poll(self.inner.journal(), now) {
            self.send(msg);
        }
        self.poll_acks(now);
    }

    fn send(&mut self, msg: ShipMsg) {
        match &mut self.transport {
            Some(client) => {
                if let Err(_e) = client.send(&msg) {
                    // The follower is gone (or the pipe broke). Shipping
                    // is best-effort by design: drop the transport, count
                    // the loss, keep serving. Unacked frames stay owned by
                    // the shipper and re-ship wholesale on reattach.
                    self.transport = None;
                    self.transport_errors += 1;
                    self.outbox.push(msg);
                }
            }
            None => self.outbox.push(msg),
        }
    }

    fn poll_acks(&mut self, now: SimTime) {
        if self.transport.is_none() {
            return;
        }
        let due = match self.last_ack_poll {
            None => true,
            Some(last) => now.as_f64() - last.as_f64() >= self.heartbeat_every,
        };
        if !due {
            return;
        }
        self.last_ack_poll = Some(now);
        // Drain whatever is already buffered; the budget bounds the wait
        // for the first message, subsequent reads hit warm buffers.
        while let Some(client) = self.transport.as_mut() {
            match client.recv_timeout(ACK_POLL_BUDGET) {
                Ok(Some(ShipMsg::Ack { seq })) => self.shipper.on_ack(seq, now),
                Ok(Some(_)) => {} // followers only send acks; ignore
                Ok(None) => break,
                Err(_) => {
                    self.transport = None;
                    self.transport_errors += 1;
                }
            }
        }
    }

    /// Applies one ack by hand — the outbox-mode counterpart of the
    /// transport's ack poll.
    pub fn on_ack(&mut self, seq: u64, now: SimTime) {
        self.shipper.on_ack(seq, now);
    }

    /// Drains the buffered outbound messages (outbox mode).
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

    /// Send failures observed so far (each one detaches the transport).
    pub fn transport_errors(&self) -> u64 {
        self.transport_errors
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
        if self.shipper.acked() == 0 && self.transport.is_none() && self.transport_errors == 0 {
            return None;
        }
        Some(
            self.inner
                .journal()
                .next_seq()
                .saturating_sub(self.shipper.acked()),
        )
    }

    /// Everything the journaled gateway folds, plus the `rtdls_replica_*`
    /// offsets/lag and the transport health gauges.
    fn fold_metrics(&self, reg: &mut MetricsRegistry) {
        self.inner.fold_metrics(reg);
        fold_replication_metrics(reg, &self.shipper, self.inner.journal());
        reg.gauge(
            "rtdls_replica_connected",
            &[],
            if self.transport.is_some() { 1.0 } else { 0.0 },
        );
        reg.counter("rtdls_replica_transport_errors", &[], self.transport_errors);
    }

    /// Attaches to both the wrapped gateway and the shipper, so shipped
    /// frames carry the request's trace id and its primary-side spans
    /// across the wire.
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.attach_telemetry(telemetry);
        self.shipper.attach_telemetry(telemetry);
    }

    /// Attaches to the journal, the planning core, and the shipper's
    /// poll/ack phases.
    fn attach_profiler(&mut self, profiler: &Profiler) {
        self.inner.attach_profiler(profiler);
        self.shipper.attach_profiler(profiler);
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
    fn drive(&mut self, now: SimTime) -> Turn {
        let turn = self.inner.drive(now);
        self.pump(now);
        turn
    }

    fn next_due(&self) -> Option<SimTime> {
        self.inner.next_due()
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
    use crate::net::FollowerServer;
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
                    let ev: JournalEvent = serde_json::from_slice(&frames[0].payload).ok()?;
                    match ev {
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
    fn tcp_transport_replicates_into_a_follower_server() {
        let follower: Follower<ShardedGateway> = Follower::new(FollowerConfig::default());
        let mut server = FollowerServer::bind("127.0.0.1:0", follower).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let n = server
                .serve_connection(Duration::from_millis(400))
                .expect("serve");
            (server, n)
        });

        let mut gw = ShippingGateway::new(primary(), ShipConfig::default());
        gw.attach(ShipClient::connect(addr).expect("connect"));
        for (i, t) in [0.0, 10.0, 20.0].iter().enumerate() {
            gw.decide(
                &SubmitRequest::new(Task::new(i as u64, *t, 20.0, 2_000.0)),
                SimTime::new(*t),
            );
            gw.drive(SimTime::new(*t));
        }
        let wal = gw.inner().journal().bytes().to_vec();
        drop(gw); // primary "dies": socket closes, server returns on EOF

        let (server, processed) = handle.join().expect("server thread");
        assert!(processed >= 4, "genesis + three submissions: {processed}");
        assert_eq!(server.follower().bytes(), &wal[..]);
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
        assert!(text.contains("rtdls_replica_connected 0"), "{text}");
    }
}
