//! [`EdgeGateway`]: the service-level extension of the serving trait.
//!
//! A serving stack is a bare [`ShardedGateway`] under zero or more
//! wrappers (write-ahead journaling, journal shipping). Whatever the
//! stack's height, a driver — the network edge's reactor, the simulator, a
//! bench ladder, a recovery pass — drives it through [`Serve`]: `decide`
//! × k, then `drive`, whose return is the point after which the turn's
//! verdicts may leave the process (the turn contract in
//! [`rtdls_sim::serve`]). Each layer writes its turn once.
//!
//! On top of that, this trait is the ops surface every layer shares: the
//! bare gateway and its book under the wrappers, the parked-task update
//! stream, explanations, SLO rows, metrics and the replication view. A
//! layer states only what it adds; the rest is provided here in terms of
//! [`bare`](EdgeGateway::bare) and [`book_mut`](EdgeGateway::book_mut).

use rtdls_core::prelude::{AdmissionExplanation, SimTime, SubmitRequest};
use rtdls_sim::serve::Serve;
use rtdls_telemetry::{MetricsRegistry, Telemetry};

use crate::book::ServiceBook;
use crate::observe::DecisionUpdate;
use crate::request::Verdict;
use crate::shard::ShardedGateway;
use crate::slo::SloStatusRow;

/// The serving surface of a gateway stack (see the module docs).
pub trait EdgeGateway: Serve<Outcome = Verdict> {
    /// The bare gateway under every wrapper — the read side of the stack.
    fn bare(&self) -> &ShardedGateway;

    /// The bare gateway's book. Outside `rtdls-service` only its
    /// process-local channels are reachable through this (observation,
    /// explanations, telemetry handles, audit logs), none of which is
    /// journaled state.
    fn book_mut(&mut self) -> &mut ServiceBook;

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

    /// Swaps replication bytes with a follower link, after every `drive`
    /// and whenever the link read something: appends what the stack
    /// shipped since the last call to `frames`, and returns how many bytes
    /// of `acks` it took (whole frames; a torn tail waits). `Err` = not
    /// acks: the caller drops the link. By default nothing replicates.
    fn swap_ship_bytes(
        &mut self,
        _now: SimTime,
        acks: &[u8],
        _frames: &mut Vec<u8>,
    ) -> Result<usize, String> {
        Ok(acks.len())
    }

    /// Attaches the observability handle: spans from the decision flow
    /// land in the handle's shared flight recorder (`Route` spans carry the
    /// chosen shard), untraced in-process submissions get a trace id
    /// minted at ingress, and phases start timing — the routed admission
    /// test of every decision into `gateway/plan` (the `Plan` span carries
    /// the same reading), a refusal's reservation search into
    /// `gateway/reserve` (and its `Reserve` span) and its explanation
    /// search into `gateway/explain`, and every sweep of the defer queue
    /// into `gateway/retest`. Process-local, re-attached after recovery.
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.book_mut().set_telemetry(telemetry.clone());
    }
}
