//! [`JournaledGateway`]: the write-ahead-logging wrapper around the
//! [`ShardedGateway`].
//!
//! Serves the same turns as the wrapped gateway ([`Serve`]), so it drops
//! into the network edge, a `Simulation::with_frontend` run or a bench
//! unchanged. Every state-mutating step is journaled **before** it is
//! applied (write-ahead order): a crash between the journal append and the
//! in-memory mutation replays the command on recovery and lands in the same
//! state. Read-only calls are not journaled.
//!
//! Input events that would be no-ops (an empty defer queue swept, a replan
//! of an empty queue, a dispatch poll with nothing due) are skipped — a
//! driver drives far more often than state changes, and replaying a no-op
//! is itself a no-op, so the log stays proportional to *actual* state
//! changes.
//!
//! A turn — `decide` × k, then `drive` — is the journal's unit of sink
//! I/O: its frames wait in the journal's image and reach the sink as one
//! write and one sync when `drive` commits (see [`Journal::flush`]), so
//! nothing of the turn is durable, or acknowledged, before. What is
//! applied outside a turn (a node release fed back between turns, a
//! replan, the turnless [`submit_request`](JournaledGateway::submit_request))
//! is handed to the sink as it is appended.

use rtdls_core::prelude::{
    AdmissionFailure, SimTime, SubmitRequest, Task, TaskId, TaskPlan, TenantId,
};
use rtdls_service::prelude::{EdgeGateway, ServiceBook, ServiceMetrics, ShardedGateway, Verdict};
use rtdls_sim::serve::{Resolution, Serve, Turn};
use rtdls_telemetry::{MetricsRegistry, Stage, Telemetry};

use crate::event::JournalEvent;
use crate::journal::{Journal, JournalConfig, JournalSink};
use crate::snapshot::GatewaySnapshot;

/// A gateway whose every decision-relevant input is write-ahead journaled,
/// with periodic compacting snapshots of the full gateway state.
/// `G` is always [`ShardedGateway`]; it is kept so the spelling
/// `JournaledGateway<ShardedGateway>` still compiles.
pub struct JournaledGateway<G = ShardedGateway> {
    inner: G,
    journal: Journal,
    /// Process-local recording handle (never journaled; see
    /// [`EdgeGateway::attach_telemetry`]). Disabled by default.
    telemetry: Telemetry,
    /// Set when this gateway was rebuilt by [`recover`](crate::recover):
    /// the instant the re-admission pass ran at, stamped onto the
    /// `Recovery` span once telemetry is attached.
    recovered_at: Option<SimTime>,
}

impl JournaledGateway {
    /// Wraps `inner`, writing the genesis snapshot into a fresh in-memory
    /// journal (use [`with_sink`](JournaledGateway::with_sink) for
    /// durability beyond the process).
    pub fn new(inner: ShardedGateway, cfg: JournalConfig) -> Self {
        Self::with_journal(inner, Journal::in_memory(cfg))
    }

    /// Wraps `inner`, mirroring the journal into `sink` (e.g. a
    /// [`FileSink`](crate::journal::FileSink)).
    pub fn with_sink(
        inner: ShardedGateway,
        cfg: JournalConfig,
        sink: Box<dyn JournalSink>,
    ) -> Self {
        Self::with_journal(inner, Journal::with_sink(cfg, sink))
    }

    /// Wraps `inner` over an existing (empty) journal, writing the genesis
    /// snapshot (stamped with the journal's epoch). Recovery uses this to
    /// hand back a re-journaled gateway.
    pub(crate) fn with_journal(inner: ShardedGateway, mut journal: Journal) -> Self {
        let mut genesis = GatewaySnapshot::capture(&inner);
        genesis.epoch = journal.epoch();
        journal.append_snapshot(&genesis);
        JournaledGateway {
            inner,
            journal,
            telemetry: Telemetry::disabled(),
            recovered_at: None,
        }
    }

    /// Marks this gateway as recovery-built (see `recovered_at`).
    pub(crate) fn mark_recovered(&mut self, at: SimTime) {
        self.recovered_at = Some(at);
    }

    /// The wrapped gateway.
    pub fn inner(&self) -> &ShardedGateway {
        &self.inner
    }

    /// The journal (its [`bytes`](Journal::bytes) are what survives a
    /// crash).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Direct mutable journal access (e.g. to append recovery audit
    /// records).
    pub(crate) fn journal_mut(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// The wrapped gateway's cumulative metrics.
    pub fn metrics(&self) -> &ServiceMetrics {
        self.inner.metrics()
    }

    /// Decides one submission envelope at time `now`, journaling the full
    /// request first (write-ahead: tenant, QoS, and tolerance all shape the
    /// verdict, so replay needs all of them) and the verdict (with the
    /// installed plan, for accepted tasks) after.
    pub fn submit_request(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        // Mint the trace *before* the write-ahead append so the WAL carries
        // it: a replay then reproduces the same request the live run
        // decided (the wrapped gateway sees a nonzero trace and won't
        // re-mint).
        let mut request = *request;
        if request.trace == 0 {
            request.trace = self.telemetry.mint();
        }
        let ahead = self.telemetry.timer();
        self.journal
            .append_event(&JournalEvent::RequestSubmitted { request, at: now });
        let ahead_ns = Telemetry::elapsed_ns(ahead);
        let verdict = self.inner.decide(&request, now);
        let audit = self.telemetry.timer();
        self.audit_verdict(request.task.id, request.tenant, &verdict);
        self.audit_breaches();
        self.maybe_snapshot();
        if self.telemetry.is_enabled() {
            // One logical append stage: the write-ahead command plus the
            // audit record, with the decision itself excluded from the
            // duration. Recorded after the decision so the span sequence
            // reads route → plan → journal append.
            self.telemetry.record_ns(
                request.trace,
                Stage::JournalAppend,
                None,
                request.task.id.0,
                "appended",
                now,
                ahead_ns + Telemetry::elapsed_ns(audit),
            );
        }
        verdict
    }

    fn audit_verdict(&mut self, task: TaskId, tenant: TenantId, verdict: &Verdict) {
        let ev = match verdict {
            Verdict::Accepted => JournalEvent::Accepted {
                task: task.0,
                plan: match self.inner.plan_of(task) {
                    Some(plan) => plan.clone(),
                    None => return, // defensively skip a plan-less accept
                },
            },
            Verdict::Reserved { start_at, ticket } => JournalEvent::Reserved {
                task: task.0,
                ticket: *ticket,
                start_at: *start_at,
            },
            Verdict::Deferred { ticket, .. } => JournalEvent::Deferred {
                task: task.0,
                ticket: *ticket,
            },
            Verdict::Rejected { cause, .. } => JournalEvent::Rejected {
                task: task.0,
                cause: *cause,
            },
            Verdict::Throttled => JournalEvent::Throttled {
                task: task.0,
                tenant: tenant.0,
            },
        };
        self.journal.append_event(&ev);
    }

    /// Appends the activation audit records the last activation sweep
    /// produced (a miss's defer-or-reject fallback is audited by the
    /// resolution drain like any other ticket outcome).
    fn audit_activations(&mut self) {
        for rec in self.inner.book_mut().take_activation_log() {
            self.journal
                .append_event(&JournalEvent::ReservationActivated {
                    task: rec.task,
                    ticket: rec.ticket,
                    at: rec.at,
                    admitted: rec.admitted,
                });
        }
    }

    /// Appends any SLO-breach records the last decision or sweep cut —
    /// the durable half of breach-triggered forensics (the in-memory half
    /// is the flight-recorder dump the service layer fires).
    pub(crate) fn audit_breaches(&mut self) {
        for breach in self.inner.book_mut().take_breach_log() {
            self.journal
                .append_event(&JournalEvent::SloBreach { breach });
        }
    }

    fn maybe_snapshot(&mut self) {
        if self.journal.wants_snapshot() {
            let mut snap = GatewaySnapshot::capture(&self.inner);
            snap.epoch = self.journal.epoch();
            self.journal.append_snapshot(&snap);
        }
    }
}

impl core::fmt::Debug for JournaledGateway {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("JournaledGateway")
            .field("journal", &self.journal)
            .finish_non_exhaustive()
    }
}

impl EdgeGateway for JournaledGateway {
    fn bare(&self) -> &ShardedGateway {
        &self.inner
    }

    fn book_mut(&mut self) -> &mut ServiceBook {
        self.inner.book_mut()
    }

    /// The promotion epoch this gateway journals under (0 for a gateway
    /// that never failed over).
    fn epoch(&self) -> u64 {
        self.journal.epoch()
    }

    /// Adds this journal's durability counters to the wrapped stack's.
    fn fold_metrics(&self, reg: &mut MetricsRegistry) {
        self.inner.fold_metrics(reg);
        crate::telemetry::fold_journal_metrics(reg, &self.journal);
    }

    /// Attaches to this wrapper, its journal (append/write/fsync phases)
    /// *and* the wrapped gateway, so journal appends and the service
    /// layer's decision stages record into the same flight recorder and
    /// phase table. Attaching to a recovery-built gateway records
    /// a `Recovery` span and dumps the recorder to stderr (the
    /// crash-recovery black-box hook).
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        self.journal.attach_telemetry(telemetry);
        self.inner.attach_telemetry(telemetry);
        if let Some(at) = self.recovered_at {
            self.telemetry.record(
                self.telemetry.mint(),
                Stage::Recovery,
                None,
                0,
                "recovered",
                at,
                None,
            );
            self.telemetry.dump_to_stderr("crash recovery");
        }
    }
}

impl Serve for JournaledGateway {
    type Outcome = Verdict;

    /// [`submit_request`](JournaledGateway::submit_request) as part of the
    /// serving turn: the request and its verdict are journaled in memory
    /// and become durable when the turn's `drive` commits.
    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        self.journal.hold_turn();
        self.submit_request(request, now)
    }

    /// The wrapped gateway's turn, each step journaled before it is
    /// applied (and skipped when it would change nothing), then the group
    /// commit: everything journaled since the last commit reaches the sink
    /// as one write and is synced once, whatever the sink's
    /// [`FsyncPolicy`](crate::journal::FsyncPolicy). In an edge cluster
    /// each reactor owns its own journal file, so the single-writer
    /// crash-safety argument is per-reactor and unchanged.
    fn drive_into(&mut self, now: SimTime, turn: &mut Turn) {
        self.catch_up(now, turn);
        self.journal.flush();
    }

    /// The turn's timed work, journaled into the held turn: the turn's
    /// drive commits it with the decisions between (one group commit).
    fn catch_up(&mut self, now: SimTime, turn: &mut Turn) {
        self.journal.hold_turn();
        self.dispatch_due(now, &mut turn.dispatched);
        self.retest(now);
        self.activate_due(now);
        self.drain(&mut turn.resolved);
    }

    fn next_due(&self) -> Option<SimTime> {
        self.inner.next_due()
    }

    /// End of stream: the flush is journaled, then the drain of what it
    /// resolved, and everything journaled is durable on return.
    fn finalize(&mut self, now: SimTime) -> Vec<Resolution> {
        self.journal
            .append_event(&JournalEvent::Finalized { at: now });
        self.inner.flush_parked();
        let mut resolved = Vec::new();
        self.drain(&mut resolved);
        self.journal.flush();
        resolved
    }

    fn replan_waiting(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        // Every waiting task has a planned dispatch: none = nothing waits.
        if self.inner.next_dispatch_due().is_some() {
            self.journal
                .append_event(&JournalEvent::Replanned { at: now });
        }
        self.inner.replan_waiting(now)
    }

    fn committed_release(&self, node: usize) -> SimTime {
        self.inner.committed_release(node)
    }

    fn node_released(&mut self, node: usize, at: SimTime) {
        self.journal
            .append_event(&JournalEvent::Completed { node, at });
        self.inner.node_released(node, at);
        self.maybe_snapshot();
    }

    fn plan_of(&self, task: TaskId) -> Option<&TaskPlan> {
        self.inner.plan_of(task)
    }
}

/// The turn's steps, each journaled write-ahead only when it changes
/// something — the poll conditions mirror the gateway's own.
impl JournaledGateway {
    fn dispatch_due(&mut self, now: SimTime, due: &mut Vec<(Task, TaskPlan)>) {
        let due_now = self
            .inner
            .next_dispatch_due()
            .is_some_and(|t| t.at_or_before_eps(now));
        if !due_now {
            // Nothing falls due: this only hands the spent entries back.
            return self.inner.refill_due(now, due);
        }
        self.journal
            .append_event(&JournalEvent::DispatchDue { at: now });
        self.inner.refill_due(now, due);
        debug_assert!(!due.is_empty(), "poll condition mirrors take_due");
        self.maybe_snapshot();
    }

    fn retest(&mut self, now: SimTime) {
        if !self.inner.deferred().is_empty() {
            self.journal
                .append_event(&JournalEvent::Retested { at: now });
            self.inner.retest_deferred(now);
            self.audit_breaches();
            self.maybe_snapshot();
        }
    }

    fn activate_due(&mut self, now: SimTime) {
        let due = self
            .inner
            .reservations()
            .next_activation()
            .is_some_and(|t| t.at_or_before_eps(now));
        if due {
            self.journal
                .append_event(&JournalEvent::ActivationDue { at: now });
            self.inner.activate_reservations(now);
            self.audit_activations();
            self.audit_breaches();
            self.maybe_snapshot();
        }
    }

    /// Clearing the pending list is a state change: journaled as an input
    /// (write-ahead), then the per-task verdicts as audit records.
    fn drain(&mut self, resolved: &mut Vec<Resolution>) {
        if self.inner.pending_resolutions().is_empty() {
            return resolved.clear();
        }
        self.journal.append_event(&JournalEvent::Drained);
        self.inner.drain_resolutions(resolved);
        for (task, cause) in resolved.iter() {
            let ev = match cause {
                None => JournalEvent::Rescued { task: task.id.0 },
                Some(cause) => JournalEvent::Rejected {
                    task: task.id.0,
                    cause: *cause,
                },
            };
            self.journal.append_event(&ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::prelude::*;
    use rtdls_service::prelude::{DeferPolicy, Routing};

    fn gateway() -> ShardedGateway {
        ShardedGateway::new(
            ClusterParams::paper_baseline(),
            1,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .unwrap()
    }

    #[test]
    fn submit_request_mints_into_the_wal_and_records_the_append_span() {
        let mut j = JournaledGateway::new(gateway(), JournalConfig::default());
        let telemetry = Telemetry::with_defaults();
        j.attach_telemetry(&telemetry);
        let req = SubmitRequest::new(Task::new(1, 0.0, 200.0, 30_000.0));
        assert_eq!(req.trace, 0, "caller left the request untraced");
        let verdict = j.submit_request(&req, SimTime::ZERO);
        assert!(verdict.is_accepted());

        // The WAL's RequestSubmitted carries the minted (nonzero) trace.
        let wal = String::from_utf8_lossy(j.journal().bytes()).into_owned();
        assert!(wal.contains("\"trace\""), "trace persisted in the WAL");
        // The append span closes the trace's decision timeline so far:
        // route/plan first (recorded by the wrapped gateway), then append.
        let spans = telemetry.recent_spans(16);
        let append = spans
            .iter()
            .find(|s| s.stage == Stage::JournalAppend)
            .expect("append span recorded");
        assert!(append.trace != 0);
        assert_eq!(append.task, 1);
        let timeline = telemetry.trace_spans(append.trace);
        assert_eq!(
            timeline.last().map(|s| s.stage),
            Some(Stage::JournalAppend),
            "append is the last stage recorded for the submission"
        );
    }

    #[test]
    fn telemetry_off_leaves_the_wal_byte_identical() {
        let run = |telemetry: Option<Telemetry>| {
            let mut j = JournaledGateway::new(gateway(), JournalConfig::default());
            if let Some(t) = &telemetry {
                j.attach_telemetry(t);
            }
            let req = SubmitRequest::new(Task::new(1, 0.0, 200.0, 30_000.0));
            let _ = j.submit_request(&req, SimTime::ZERO);
            j.journal().bytes().to_vec()
        };
        let disabled = run(None);
        let enabled = run(Some(Telemetry::with_defaults()));
        assert_ne!(disabled, enabled, "enabled run persists trace ids");
        // A disabled handle mints the untraced sentinel, so its WAL matches
        // the never-attached one byte for byte (legacy encoding preserved).
        let sentinel = run(Some(Telemetry::disabled()));
        assert_eq!(disabled, sentinel);
    }

    #[test]
    fn recovery_records_a_recovery_span_on_attach() {
        let mut j = JournaledGateway::new(gateway(), JournalConfig::default());
        let _ = j.submit_request(
            &SubmitRequest::new(Task::new(1, 0.0, 200.0, 30_000.0)),
            SimTime::ZERO,
        );
        let wal = j.journal().bytes().to_vec();
        drop(j);

        let (mut recovered, _report) =
            crate::recover(&wal, SimTime::new(5.0), JournalConfig::default(), None).unwrap();
        let telemetry = Telemetry::with_defaults();
        recovered.attach_telemetry(&telemetry);
        let spans = telemetry.recent_spans(4);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, Stage::Recovery);
        assert_eq!(spans[0].at, SimTime::new(5.0));
        // A fresh (non-recovered) gateway attaches silently.
        let mut fresh = JournaledGateway::new(gateway(), JournalConfig::default());
        let t2 = Telemetry::with_defaults();
        fresh.attach_telemetry(&t2);
        assert_eq!(t2.spans_recorded(), 0);
    }
}
