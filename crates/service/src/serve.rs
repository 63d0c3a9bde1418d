//! [`EdgeGateway`]: the one serving trait every gateway layer implements.
//!
//! A serving stack is a bare [`ShardedGateway`] under zero or more
//! wrappers (write-ahead journaling, journal shipping). Whatever the
//! stack's height, a driver — the network edge's reactor, a bench ladder,
//! a recovery pass — talks to it through this trait. A layer states only
//! what differs for it: how a submission is decided, what a serving turn
//! must commit, and how to reach the bare gateway, its book and the layer
//! that applies state changes. Everything else is provided once, here, in
//! terms of those.
//!
//! **The turn contract.** A driver works in serving turns: any number of
//! [`decide`](EdgeGateway::decide) calls, then one
//! [`drive`](EdgeGateway::drive), which ends in
//! [`commit`](EdgeGateway::commit). Nothing decided or applied since the
//! last `commit` may be acknowledged to anyone outside the process — a
//! verdict written to a socket, an update pushed — until the next `commit`
//! has returned: a durable layer makes the turn's record durable there and
//! not before. The reactor's turn is exactly this (serve, `drive`, then
//! flush the sockets).

use rtdls_core::prelude::{AdmissionExplanation, SimTime, SubmitRequest};
use rtdls_sim::frontend::Frontend;
use rtdls_telemetry::{MetricsRegistry, Profiler, Telemetry};

use crate::book::ServiceBook;
use crate::observe::DecisionUpdate;
use crate::request::Verdict;
use crate::shard::ShardedGateway;
use crate::slo::SloStatusRow;

/// The serving surface of a gateway stack (see the module docs).
pub trait EdgeGateway {
    /// The layer whose [`Frontend`] calls apply this stack's state changes:
    /// the bare gateway itself, or the journaling wrapper over it (which
    /// logs every change before applying it).
    type Driver: Frontend;

    /// The bare gateway under every wrapper — the read side of the stack.
    fn bare(&self) -> &ShardedGateway;

    /// The bare gateway's book. Outside `rtdls-service` only its
    /// process-local channels are reachable through this (observation,
    /// explanations, telemetry handles, audit logs), none of which is
    /// journaled state.
    fn book_mut(&mut self) -> &mut ServiceBook;

    /// The state-changing layer (see [`EdgeGateway::Driver`]). What is
    /// applied through it is part of the current turn (see the module
    /// docs): follow it with a [`commit`](EdgeGateway::commit), as
    /// [`drive`](EdgeGateway::drive) does.
    fn driver(&mut self) -> &mut Self::Driver;

    /// Decides one submission at the server clock's `now`. The verdict is
    /// part of the current turn: it may leave the process only after the
    /// next [`commit`](EdgeGateway::commit) (see the module docs).
    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict;

    /// Ends the serving turn — what a layer owes before the turn's
    /// verdicts may be acknowledged: a journaling wrapper hands the turn's
    /// frames to its sink as one write and syncs it, a shipping one pumps
    /// its channel. The bare gateway owes nothing.
    fn commit(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Advances time-driven serving work to `now`: commit due dispatches,
    /// re-test the defer queue, activate due reservations, retire the
    /// engine-facing resolution channel (drivers of this trait consume the
    /// richer [`DecisionUpdate`] stream instead), then [`commit`] the turn —
    /// the decisions made since the last one included. Call it once per
    /// turn, after the turn's `decide`s and before acknowledging them.
    ///
    /// [`commit`]: EdgeGateway::commit
    fn drive(&mut self, now: SimTime) {
        let driver = self.driver();
        let _ = driver.take_due(now);
        driver.on_event(now);
        driver.activate(now);
        let _ = driver.drain_resolutions();
        self.commit(now);
    }

    /// The earliest instant at which timed work becomes due — the next
    /// planned dispatch, reservation activation, or defer-ticket expiry
    /// deadline (expiry must be detected, and its resolution pushed, even
    /// when no other event ever arrives); `None` = nothing scheduled. A
    /// driver calls [`drive`](EdgeGateway::drive) only when this is reached
    /// or a submission arrived, so an idle stack never busy-sweeps the
    /// books — and a journaled one never appends no-op re-test events.
    fn next_due(&self) -> Option<SimTime> {
        let bare = self.bare();
        [
            bare.next_dispatch_due(),
            bare.next_wakeup(),
            bare.deferred().next_deadline(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Drains the parked-task updates recorded since the last call (empty
    /// unless [`enable_observation`](EdgeGateway::enable_observation) ran).
    /// Not journaled: the durable record of the same facts is the audit
    /// stream, which replay regenerates.
    fn take_updates(&mut self) -> Vec<DecisionUpdate> {
        self.book_mut().take_updates()
    }

    /// Turns the parked-task update stream on. Process-local: a recovered
    /// stack starts unobserved and its owner re-enables this.
    fn enable_observation(&mut self) {
        self.book_mut().observe_decisions(true);
    }

    /// Turns admission explanations on refusal verdicts on. Process-local
    /// like observation, so a replayed WAL decides identically whether or
    /// not the live run explained its refusals.
    fn enable_explanations(&mut self) {
        self.book_mut().enable_explanations(true);
    }

    /// The deadline-SLO status table (the ops channel's `Slo` surface).
    fn slo_rows(&self) -> Vec<SloStatusRow> {
        self.bare().slo().rows()
    }

    /// Explains why `request` would fail admission at `now` without
    /// submitting it (the ops channel's `Explain` surface); `None` =
    /// admissible as-is.
    fn explain(&self, request: &SubmitRequest, now: SimTime) -> Option<AdmissionExplanation> {
        self.bare().explain(request, now)
    }

    /// Folds the stack's native stats into the unified metrics registry
    /// (the ops channel's `Stats` surface). Wrappers add their own series.
    fn fold_metrics(&self, reg: &mut MetricsRegistry) {
        self.bare().fold_metrics(reg);
    }

    /// The promotion epoch — which generation of the shard answers. 0 for
    /// a stack that is not journaled or never failed over.
    fn epoch(&self) -> u64 {
        0
    }

    /// Frames appended but not yet acked by a replication follower; `None`
    /// = does not replicate, or nothing known about the other side.
    fn ack_lag(&self) -> Option<u64> {
        None
    }

    /// Attaches a decision-tracing handle: spans from the decision flow
    /// land in the handle's shared flight recorder (`Route` spans carry the
    /// chosen shard), and untraced in-process submissions get a trace id
    /// minted at ingress. Process-local, re-attached after recovery.
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.book_mut().set_telemetry(telemetry.clone());
    }

    /// Attaches a hot-path profiler handle: the routed admission/plan
    /// phase of every decision starts timing into `gateway/plan`, a
    /// refusal's reservation search into `gateway/reserve` and its
    /// explanation search into `gateway/explain`, and every sweep of the
    /// defer queue into `gateway/retest`.
    fn attach_profiler(&mut self, profiler: &Profiler) {
        self.book_mut().set_profiler(profiler.clone());
    }
}
