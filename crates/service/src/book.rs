//! [`ServiceBook`]: the [`ShardedGateway`]'s gateway-level bookkeeping —
//! the defer queue, the reservation book, the tenant ledger, quota policy,
//! metrics, and the engine-visible resolutions — plus the request/verdict
//! decision flow the gateway drives over its routed shard set.
//!
//! [`ShardedGateway`]: crate::shard::ShardedGateway

use std::time::Instant;

use rtdls_core::prelude::{
    Admission, AdmissionController, AlgorithmKind, ClusterParams, Decision, Infeasible, QosClass,
    SimTime, SubmitRequest, Task, TenantId,
};
use rtdls_telemetry::{Profiler, Stage, Telemetry};

use crate::defer::{latest_feasible_start, DeferOutcome, DeferPolicy, DeferTicket, DeferredQueue};
use crate::metrics::ServiceMetrics;
use crate::observe::DecisionUpdate;
use crate::request::{QuotaPolicy, Verdict};
use crate::reserve::{ActivationRecord, ReservationBook};
use crate::shard::RoutedShards;
use crate::slo::{SloBreach, SloObjective, SloTracker, SLO_BREACH_VERSION};
use crate::tenant::TenantLedger;

/// Recently decided task ids retained per tenant for breach forensics.
const RECENT_TASKS_PER_TENANT: usize = 8;

/// The serving-layer state the gateway embeds: everything a journal
/// snapshots besides the admission engines themselves.
///
/// The durable fields are crate-private: outside this crate a
/// `&mut ServiceBook` (see [`EdgeGateway::book_mut`]) reaches only the
/// process-local channels — observation, explanations, telemetry, the
/// audit logs — so no caller can change journaled state behind a
/// journaling wrapper's back. Read them through the gateway's accessors.
///
/// [`EdgeGateway::book_mut`]: crate::serve::EdgeGateway::book_mut
#[derive(Clone, Debug)]
pub struct ServiceBook {
    /// Parked near-miss tickets.
    pub(crate) defer: DeferredQueue,
    /// Booked future admissions.
    pub(crate) reservations: ReservationBook,
    /// Waiting-task → tenant ownership (quota input).
    pub(crate) ledger: TenantLedger,
    /// Per-tenant admission quotas.
    pub(crate) quota: QuotaPolicy,
    /// Cumulative gateway statistics.
    pub(crate) metrics: ServiceMetrics,
    /// Verdicts reached for pending (deferred/reserved) tasks since the
    /// last engine drain.
    pub(crate) resolutions: Vec<(Task, Option<Infeasible>)>,
    /// Activation attempts since the last audit drain (journal-only;
    /// regenerated on replay, so not part of the captured state).
    activation_log: Vec<ActivationRecord>,
    /// Parked-task updates since the last observer drain (edge-only;
    /// recorded only while `observe` is set, so simulator-driven gateways
    /// pay nothing). Process-local like the latency samples: not captured
    /// in snapshots, and a journal replay regenerates nothing into it.
    updates: Vec<DecisionUpdate>,
    /// Whether parked-task updates are being recorded.
    observe: bool,
    /// Decision-tracing handle. Process-local like `observe`: disabled by
    /// default (the zero-telemetry path is one `Option` check), never
    /// captured in snapshots, re-attached by the owner after recovery.
    telemetry: Telemetry,
    /// Hot-path profiler handle (phase timing on the plan, reserve,
    /// explain and defer re-test paths). Same discipline as `telemetry`:
    /// disabled by default, process-local.
    profiler: Profiler,
    /// Deadline-SLO tracker. Durable: sim-time driven and deterministic, it
    /// rides inside gateway snapshots so alarm states and breach counts
    /// survive kill/recover.
    pub(crate) slo: SloTracker,
    /// Breach audit records cut since the last journal drain. The records
    /// themselves are made durable by the journal's audit append; the
    /// *channel* is process-local like `activation_log`.
    breach_log: Vec<SloBreach>,
    /// Per-tenant recently decided task ids (forensics context for breach
    /// records), id-sorted. Process-local.
    recents: Vec<(u32, Vec<u64>)>,
    /// Whether refusal verdicts carry an [`AdmissionExplanation`]. Off by
    /// default — the counterfactual searches cost real planning work — and
    /// enabled by the network edge. Process-local, like `observe`.
    ///
    /// [`AdmissionExplanation`]: rtdls_core::prelude::AdmissionExplanation
    explain_enabled: bool,
}

impl ServiceBook {
    /// A fresh book under the given defer and quota policies.
    pub fn new(defer_policy: DeferPolicy, quota: QuotaPolicy) -> Self {
        ServiceBook::from_parts(
            DeferredQueue::new(defer_policy),
            ReservationBook::new(),
            TenantLedger::new(),
            quota,
            ServiceMetrics::new(),
            Vec::new(),
            SloTracker::default(),
        )
    }

    /// Reassembles a book from journaled parts (the recovery-side
    /// counterpart of the gateway's accessors).
    pub fn from_parts(
        defer: DeferredQueue,
        reservations: ReservationBook,
        ledger: TenantLedger,
        quota: QuotaPolicy,
        metrics: ServiceMetrics,
        resolutions: Vec<(Task, Option<Infeasible>)>,
        slo: SloTracker,
    ) -> Self {
        ServiceBook {
            defer,
            reservations,
            ledger,
            quota,
            metrics,
            resolutions,
            activation_log: Vec::new(),
            updates: Vec::new(),
            observe: false,
            telemetry: Telemetry::disabled(),
            profiler: Profiler::disabled(),
            slo,
            breach_log: Vec::new(),
            recents: Vec::new(),
            explain_enabled: false,
        }
    }

    /// Attaches a decision-tracing handle (a clone; all clones share one
    /// recorder). Like [`observe_decisions`](ServiceBook::observe_decisions)
    /// this is process-local state the owner re-attaches after recovery.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached tracing handle (disabled unless the owner enabled it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attaches a hot-path profiler handle (a clone; all clones share one
    /// phase table). Process-local like the telemetry handle.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The attached profiler handle (disabled unless the owner enabled it).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// A tenant's current undispatched liabilities: waiting + deferred +
    /// reserved tasks.
    pub fn inflight(&self, tenant: TenantId) -> u32 {
        self.ledger.count_for(tenant)
            + self.defer.count_for(tenant)
            + self.reservations.count_for(tenant)
    }

    /// Drains the activation audit records accumulated since the last
    /// call (for write-ahead journaling; process-local, like latency).
    pub fn take_activation_log(&mut self) -> Vec<ActivationRecord> {
        std::mem::take(&mut self.activation_log)
    }

    /// Enables or disables parked-task decision observation (see
    /// [`DecisionUpdate`]). Off by default so simulator-driven gateways
    /// never accumulate an undrained channel; the network edge turns it on.
    pub fn observe_decisions(&mut self, on: bool) {
        self.observe = on;
        if !on {
            self.updates.clear();
        }
    }

    /// Drains the parked-task updates recorded since the last call.
    pub fn take_updates(&mut self) -> Vec<DecisionUpdate> {
        std::mem::take(&mut self.updates)
    }

    fn push_update(&mut self, update: DecisionUpdate) {
        if self.observe {
            self.updates.push(update);
        }
    }

    /// Enables or disables admission explanations on refusal verdicts.
    /// Off by default (the counterfactual searches probe each shard's book
    /// dozens of times); the network edge turns it on.
    pub fn enable_explanations(&mut self, on: bool) {
        self.explain_enabled = on;
    }

    /// Drains the SLO-breach audit records cut since the last call (for
    /// write-ahead journaling; process-local, like `activation_log`).
    pub fn take_breach_log(&mut self) -> Vec<SloBreach> {
        std::mem::take(&mut self.breach_log)
    }

    /// A tenant's most recently decided task ids, oldest first.
    pub fn recent_tasks(&self, tenant: TenantId) -> Vec<u64> {
        self.recents
            .iter()
            .find(|(id, _)| *id == tenant.0)
            .map(|(_, ring)| ring.clone())
            .unwrap_or_default()
    }

    fn note_recent(&mut self, tenant: TenantId, task: u64) {
        let pos = self.recents.partition_point(|(id, _)| *id < tenant.0);
        if self.recents.get(pos).is_none_or(|(id, _)| *id != tenant.0) {
            self.recents.insert(pos, (tenant.0, Vec::new()));
        }
        let ring = &mut self.recents[pos].1;
        ring.push(task);
        if ring.len() > RECENT_TASKS_PER_TENANT {
            ring.remove(0);
        }
    }
}

/// Feeds one objective event into the SLO tracker and cuts breach
/// forensics for every transition into `Breached`: the offending tenant's
/// recent tasks and their flight-recorder timelines go into a versioned
/// [`SloBreach`] record (journaled by the owner via
/// [`ServiceBook::take_breach_log`]), and the flight recorder dumps to
/// stderr — the black box fires exactly when the promise breaks.
pub(crate) fn record_slo(
    book: &mut ServiceBook,
    tenant: TenantId,
    qos: QosClass,
    objective: SloObjective,
    good: bool,
    now: SimTime,
) {
    if now == SimTime::FAR_FUTURE {
        // End-of-stream flushes carry no meaningful clock; feeding them
        // would teleport every window into the far future.
        return;
    }
    for transition in book.slo.record(tenant, qos, objective, good, now) {
        if !transition.is_breach() {
            continue;
        }
        let row = book
            .slo
            .row_for(transition.tenant, transition.qos, transition.objective)
            .expect("a transition's scope always has a row");
        let recent_tasks = match transition.tenant {
            Some(id) => book.recent_tasks(TenantId(id)),
            None => Vec::new(),
        };
        let mut timelines = Vec::new();
        if book.telemetry.is_enabled() {
            for &task in &recent_tasks {
                if let Some(trace) = book.telemetry.trace_of(task) {
                    for span in book.telemetry.trace_spans(trace) {
                        timelines.push(span.to_string());
                    }
                }
            }
            book.telemetry.dump_to_stderr(&format!(
                "slo breach: {} {} at t={}",
                row.scope(),
                transition.objective.label(),
                now.as_f64(),
            ));
        }
        book.breach_log.push(SloBreach {
            version: SLO_BREACH_VERSION,
            transition,
            row,
            recent_tasks,
            timelines,
        });
    }
}

/// Books the tickets that left the defer queue in one sweep: metric
/// counters (global and per-tenant), ledger entries for rescued tasks,
/// and the engine-visible resolutions (`None` = rescued/accepted,
/// `Some(cause)` = rejected).
pub(crate) fn apply_departures(
    book: &mut ServiceBook,
    departed: Vec<(DeferTicket, DeferOutcome)>,
    now: SimTime,
) {
    for (ticket, outcome) in departed {
        let admitted = matches!(outcome, DeferOutcome::Rescued);
        let cause = (!admitted).then_some(ticket.cause);
        let (outcome_label, counter) = match outcome {
            DeferOutcome::Rescued => ("Rescued", &mut book.metrics.rescued),
            DeferOutcome::Expired => ("Expired", &mut book.metrics.defer_expired),
            DeferOutcome::Evicted => ("Evicted", &mut book.metrics.defer_evicted),
            DeferOutcome::Flushed => ("Flushed", &mut book.metrics.defer_flushed),
        };
        *counter += 1;
        if book.telemetry.is_enabled() {
            let trace = book.telemetry.trace_of(ticket.task.id.0).unwrap_or(0);
            book.telemetry.record(
                trace,
                Stage::Resolve,
                None,
                ticket.task.id.0,
                outcome_label,
                now,
                None,
            );
        }
        book.push_update(DecisionUpdate::Resolved {
            task: ticket.task.id.0,
            ticket: Some(ticket.id),
            admitted,
            cause,
        });
        // A deferred request's acceptance SLO is judged here, where its
        // fate becomes known; a rescue is also an attained guarantee.
        record_slo(
            book,
            ticket.tenant,
            ticket.qos,
            SloObjective::Acceptance,
            admitted,
            now,
        );
        if admitted {
            record_slo(
                book,
                ticket.tenant,
                ticket.qos,
                SloObjective::Attainment,
                true,
                now,
            );
        }
        let tenant = book.metrics.tenants.counters_mut(ticket.tenant);
        if admitted {
            tenant.accepted += 1;
            book.ledger.insert(ticket.task.id, ticket.tenant);
        } else {
            tenant.rejected += 1;
        }
        book.resolutions.push((ticket.task, cause));
    }
}

/// The Defer-or-Reject verdict for a request every admission target
/// rejected (and that did not qualify for a reservation): park it when a
/// cluster of `widest_params` shape could still meet the deadline with
/// slack (and the queue has room), reject otherwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn defer_or_reject(
    book: &mut ServiceBook,
    widest_params: &ClusterParams,
    algorithm: AlgorithmKind,
    task: Task,
    tenant: TenantId,
    qos: QosClass,
    now: SimTime,
    cause: Infeasible,
) -> Verdict {
    if let Some(latest) = latest_feasible_start(widest_params, algorithm, &task) {
        if latest.definitely_after(now) {
            if let Some(id) = book.defer.push(task, tenant, qos, now, latest, cause) {
                book.metrics.deferred += 1;
                book.metrics.tenants.counters_mut(tenant).deferred += 1;
                return Verdict::deferred(id);
            }
        }
    }
    book.metrics.rejected_immediate += 1;
    book.metrics.rejection_causes.record(cause);
    book.metrics.tenants.counters_mut(tenant).rejected += 1;
    Verdict::rejected(cause)
}

/// The request/verdict decision flow over the gateway's routed shard set:
/// the core verdict ([`decide_request_inner`]) plus the
/// observability wrap-up — refusal explanations (when enabled), the
/// forensics recent-task ring, and the acceptance/attainment SLO feeds.
///
/// SLO bookkeeping: Accepted and Reserved count as acceptance-good at
/// decision time (Accepted also attains immediately; a reservation's
/// attainment is judged at activation). Rejected and Throttled count as
/// acceptance-bad. Deferred counts nothing yet — its fate lands in
/// [`apply_departures`] when the ticket resolves.
pub(crate) fn decide_request(
    book: &mut ServiceBook,
    widest_params: &ClusterParams,
    algorithm: AlgorithmKind,
    request: &SubmitRequest,
    now: SimTime,
    engine: &mut RoutedShards<'_>,
) -> Verdict {
    let mut verdict = decide_request_inner(book, widest_params, algorithm, request, now, engine);
    book.note_recent(request.tenant, request.task.id.0);
    if book.explain_enabled
        && matches!(verdict, Verdict::Rejected { .. } | Verdict::Deferred { .. })
    {
        let explain_phase = book.profiler.start();
        verdict = verdict.with_explanation(engine.explain(request, now));
        book.profiler.stop("gateway/explain", explain_phase);
    }
    let (tenant, qos) = (request.tenant, request.qos);
    let acceptance = match verdict {
        Verdict::Accepted | Verdict::Reserved { .. } => Some(true),
        Verdict::Rejected { .. } | Verdict::Throttled => Some(false),
        Verdict::Deferred { .. } => None,
    };
    if let Some(good) = acceptance {
        record_slo(book, tenant, qos, SloObjective::Acceptance, good, now);
    }
    if let Verdict::Accepted = verdict {
        record_slo(book, tenant, qos, SloObjective::Attainment, true, now);
    }
    verdict
}

/// Order of business: quota gate → admission test → reservation search →
/// defer-or-reject. The caller books the submission count and latency
/// afterwards via [`record_request`].
fn decide_request_inner(
    book: &mut ServiceBook,
    widest_params: &ClusterParams,
    algorithm: AlgorithmKind,
    request: &SubmitRequest,
    now: SimTime,
    engine: &mut RoutedShards<'_>,
) -> Verdict {
    let tenant = request.tenant;
    // Count the tenant's liabilities only when a cap could actually bind:
    // the three book scans are O(queue) and sit on the hot path. At its
    // per-shard cap on every shard the tenant has nowhere to route: a quota
    // refusal like any other (the admission test never runs).
    let quota_binds = book.quota.applies_to(request.qos) && book.quota.max_inflight.is_some();
    let over_quota = quota_binds
        && !book
            .quota
            .admits_inflight(request.qos, book.inflight(tenant));
    if over_quota || engine.all_routes_throttled() {
        book.metrics.throttled += 1;
        book.metrics.tenants.counters_mut(tenant).throttled += 1;
        book.telemetry.record(
            request.trace,
            Stage::Plan,
            None,
            request.task.id.0,
            "Throttled",
            now,
            None,
        );
        return Verdict::Throttled;
    }
    let task_id = request.task.id.0;
    let trace = request.trace;
    let plan_timer = book.telemetry.timer();
    let plan_phase = book.profiler.start();
    let (decision, shard) = engine.submit(&request.task, now);
    book.profiler.stop("gateway/plan", plan_phase);
    if let Some(s) = shard {
        book.telemetry
            .record(trace, Stage::Route, Some(s), task_id, "routed", now, None);
    }
    match decision {
        Decision::Accepted => {
            book.telemetry.record(
                trace,
                Stage::Plan,
                shard,
                task_id,
                "Accepted",
                now,
                plan_timer,
            );
            book.telemetry.remember(task_id, trace);
            book.ledger.insert(request.task.id, tenant);
            book.metrics.accepted_immediate += 1;
            book.metrics.tenants.counters_mut(tenant).accepted += 1;
            Verdict::Accepted
        }
        Decision::Rejected(cause) => {
            if book.telemetry.is_enabled() {
                book.telemetry.record(
                    trace,
                    Stage::Plan,
                    shard,
                    task_id,
                    &format!("{cause:?}"),
                    now,
                    plan_timer,
                );
            }
            if let Some(max_delay) = request.max_delay {
                let can_book = book
                    .quota
                    .admits_reservation(request.qos, book.reservations.count_for(tenant));
                if can_book {
                    let reserve_timer = book.telemetry.timer();
                    let reserve_phase = book.profiler.start();
                    let earliest = engine.earliest_feasible_start(&request.task, now);
                    book.profiler.stop("gateway/reserve", reserve_phase);
                    if let Some(start_at) = earliest {
                        if start_at.at_or_before_eps(now + SimTime::new(max_delay)) {
                            let ticket = book.reservations.book(
                                request.task,
                                tenant,
                                request.qos,
                                now,
                                start_at,
                                cause,
                            );
                            book.metrics.reserved += 1;
                            book.metrics.tenants.counters_mut(tenant).reserved += 1;
                            book.telemetry.record(
                                trace,
                                Stage::Reserve,
                                shard,
                                task_id,
                                "Reserved",
                                now,
                                reserve_timer,
                            );
                            book.telemetry.remember(task_id, trace);
                            return Verdict::Reserved { start_at, ticket };
                        }
                    }
                }
            }
            let verdict = defer_or_reject(
                book,
                widest_params,
                algorithm,
                request.task,
                tenant,
                request.qos,
                now,
                cause,
            );
            if let Verdict::Deferred { .. } = verdict {
                book.telemetry.record(
                    trace,
                    Stage::DeferPark,
                    shard,
                    task_id,
                    "Deferred",
                    now,
                    None,
                );
                book.telemetry.remember(task_id, trace);
            }
            verdict
        }
    }
}

/// Activates every reservation whose `start_at` has been reached: the real
/// admission test re-runs at `now`; a pass admits the task with the full
/// deadline guarantee, a miss falls back to the defer-or-reject protocol.
pub(crate) fn activate_due(
    book: &mut ServiceBook,
    widest_params: &ClusterParams,
    algorithm: AlgorithmKind,
    now: SimTime,
    engine: &mut RoutedShards<'_>,
) {
    for res in book.reservations.take_due(now) {
        let trace = book.telemetry.trace_of(res.task.id.0).unwrap_or(0);
        let activate_timer = book.telemetry.timer();
        let (decision, shard) = engine.submit(&res.task, now);
        let admitted = decision.is_accepted();
        if admitted {
            // The initial reserved submit never routed (the engine punted to
            // the reservation book), so a reserved flow's routing decision
            // happens here — record it so the timeline carries one.
            book.telemetry.record(
                trace,
                Stage::Route,
                shard,
                res.task.id.0,
                "routed",
                now,
                None,
            );
        }
        book.telemetry.record(
            trace,
            Stage::Activate,
            shard,
            res.task.id.0,
            if admitted { "admitted" } else { "miss" },
            now,
            activate_timer,
        );
        book.activation_log.push(ActivationRecord {
            ticket: res.ticket,
            task: res.task.id.0,
            at: now,
            admitted,
        });
        book.push_update(DecisionUpdate::Activated {
            ticket: res.ticket,
            task: res.task.id.0,
            at: now,
            admitted,
        });
        // A reservation was an issued guarantee: activation is where it
        // either holds (attained) or is withdrawn (a miss).
        record_slo(
            book,
            res.tenant,
            res.qos,
            SloObjective::Attainment,
            admitted,
            now,
        );
        if admitted {
            book.ledger.insert(res.task.id, res.tenant);
            book.metrics.reservations_activated += 1;
            book.metrics.tenants.counters_mut(res.tenant).accepted += 1;
            book.resolutions.push((res.task, None));
        } else {
            let cause = match decision {
                Decision::Rejected(cause) => cause,
                Decision::Accepted => unreachable!("admitted handled above"),
            };
            book.metrics.reservation_misses += 1;
            let verdict = defer_or_reject(
                book,
                widest_params,
                algorithm,
                res.task,
                res.tenant,
                res.qos,
                now,
                cause,
            );
            if let Verdict::Rejected { cause, .. } = verdict {
                // The miss resolved terminally right here; deferred misses
                // resolve later through the sweep like any other ticket.
                book.resolutions.push((res.task, Some(cause)));
                book.telemetry.record(
                    trace,
                    Stage::Resolve,
                    None,
                    res.task.id.0,
                    "Rejected",
                    now,
                    None,
                );
                book.push_update(DecisionUpdate::Resolved {
                    task: res.task.id.0,
                    ticket: None,
                    admitted: false,
                    cause: Some(cause),
                });
            }
        }
    }
}

/// End of stream: every still-parked ticket and unactivated reservation
/// resolves as rejected.
pub(crate) fn flush_all(book: &mut ServiceBook) {
    for res in book.reservations.flush() {
        book.metrics.reservations_flushed += 1;
        book.metrics.tenants.counters_mut(res.tenant).rejected += 1;
        book.resolutions.push((res.task, Some(res.cause)));
        if book.telemetry.is_enabled() {
            let trace = book.telemetry.trace_of(res.task.id.0).unwrap_or(0);
            book.telemetry.record(
                trace,
                Stage::Resolve,
                None,
                res.task.id.0,
                "Flushed",
                SimTime::FAR_FUTURE,
                None,
            );
        }
        book.push_update(DecisionUpdate::Resolved {
            task: res.task.id.0,
            ticket: Some(res.ticket),
            admitted: false,
            cause: Some(res.cause),
        });
    }
    let flushed = book.defer.flush();
    // End of stream: there is no meaningful clock left to stamp.
    apply_departures(book, flushed, SimTime::FAR_FUTURE);
}

/// Post-recovery re-verification of one controller's waiting queue: re-runs
/// the strict Fig. 2 test (a replan) at `now`, and while it fails, removes
/// the infeasible task and re-enters it through Defer-or-Reject — *demotion*.
/// Every remaining plan afterwards carries the usual deadline guarantee.
///
/// Demotion is deliberately conservative: a replan failure can also stem
/// from the FixedPoint `ñ_min` non-monotonicity (see the engine's `settle`),
/// in which case the demoted task was arguably still servable under its old
/// plan — but parking it in the defer queue never breaks a guarantee, and
/// the very next re-test sweep can rescue it.
///
/// Returns the demoted tasks in demotion order.
pub(crate) fn reverify_controller(
    ctl: &mut AdmissionController,
    book: &mut ServiceBook,
    widest_params: &ClusterParams,
    algorithm: AlgorithmKind,
    now: SimTime,
) -> Vec<Task> {
    let mut demoted = Vec::new();
    while let Err(failure) = ctl.replan(now) {
        let Some(task) = ctl.remove_waiting(failure.task) else {
            // Defensive: an infeasibility blamed on a task we do not hold
            // cannot be fixed by demotion; keep the admission-time plans.
            break;
        };
        // The demoted task's liability leaves the waiting ledger; its
        // tenant follows it into the defer queue (anonymous when the task
        // predates tenancy tracking). The tenant book mirrors the global
        // correction: the original accept stays gross, `demoted` nets it
        // out, and the defer/reject re-entry below books the new fate.
        let tenant = book.ledger.remove(task.id).unwrap_or_default();
        book.metrics.demoted += 1;
        book.metrics.tenants.counters_mut(tenant).demoted += 1;
        // A demotion withdraws an already-issued guarantee — the
        // attainment SLO's bad event, whatever the re-entry verdict.
        record_slo(
            book,
            tenant,
            QosClass::default(),
            SloObjective::Attainment,
            false,
            now,
        );
        let verdict = defer_or_reject(
            book,
            widest_params,
            algorithm,
            task,
            tenant,
            QosClass::default(),
            now,
            failure.reason,
        );
        if matches!(verdict, Verdict::Rejected { .. }) {
            // Defer-or-Reject books rejections under `rejected_immediate`
            // (its submission-path meaning); a demotion past hope is a
            // *withdrawn* guarantee, not a submission verdict — move it to
            // its own counter so the two histories stay distinguishable.
            book.metrics.rejected_immediate -= 1;
            book.metrics.demote_rejected += 1;
        }
        demoted.push(task);
    }
    demoted
}

/// Books one decision globally and under the request's tenant, its
/// wall-clock half (window and latency sample) included.
pub(crate) fn record_request(metrics: &mut ServiceMetrics, start: Instant, tenant: TenantId) {
    metrics.submitted += 1;
    metrics.tenants.counters_mut(tenant).submitted += 1;
    metrics.record_decision(start, tenant);
}
