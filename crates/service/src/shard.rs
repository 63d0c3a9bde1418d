//! The admission gateway: request/verdict serving over `K` cluster shards.
//!
//! [`ShardedGateway`] turns the admission engine's binary Accept/Reject
//! into the serving protocol ([`ShardedGateway::submit_request`] →
//! [`Verdict`]):
//!
//! * **Accepted** — the Fig. 2 test passed; the task joins a shard's
//!   waiting queue with its full deadline guarantee.
//! * **Reserved** — the test failed now, but the engines'
//!   `earliest_feasible_start` found an instant `start_at` within the
//!   request's `max_delay` tolerance at which it passes: the task is
//!   booked in a [`ReservationBook`] and auto-activates when the clock
//!   reaches `start_at` (activation re-runs the real test, so the
//!   guarantee is never faked).
//! * **Deferred** — the test failed, no reservation was possible, but only
//!   for lack of *current* capacity: the task parks in a
//!   [`DeferredQueue`] and is re-tested on every admission/completion
//!   event.
//! * **Rejected** — the test failed and no later start could succeed.
//! * **Throttled** — the tenant is over its [`QuotaPolicy`] limits.
//!
//! A single cluster is the one-shard case (`num_shards = 1`).
//!
//! # Sharded dispatch
//!
//! The Fig. 2 schedulability test walks a temp schedule over the whole
//! waiting queue on every arrival — every position is checked, and from the
//! first one whose planning inputs changed, re-planned over all nodes. On
//! one big cluster both factors grow with cluster size, so admission cost
//! grows superlinearly with offered load. [`ShardedGateway`] partitions the
//! cluster into `K` independent shards, each with its own
//! [`AdmissionController`] over `N/K` nodes and its own (shorter) waiting
//! queue: one decision touches a single shard, keeping admission cost
//! sub-linear in total cluster size at the price of losing cross-shard
//! task placement (a task runs entirely within one shard).
//!
//! Routing between shards is pluggable ([`Routing`]):
//!
//! * **RoundRobin** — cheapest; statistically balanced under uniform load;
//! * **LeastLoaded** — routes by committed-backlog estimate
//!   ([`AdmissionController::backlog`]);
//! * **BestFit** — probes every shard ([`AdmissionController::probe_plan`])
//!   and picks the earliest estimated completion among the acceptors.
//!
//! If the routed shard rejects, the other shards are tried in routing order
//! before the task is deferred or rejected, so a sharded gateway never
//! phantom-rejects a task some shard could take. The defer queue and
//! metrics are gateway-global, shared across shards.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use rtdls_core::admission::ExplainSearch;
use rtdls_core::error::ModelError;
use rtdls_core::prelude::{
    Admission, AdmissionController, AdmissionExplanation, AdmissionFailure, AlgorithmKind,
    ClusterParams, ControllerState, Decision, Infeasible, NodeId, PlanConfig, SimTime,
    SubmitRequest, Task, TaskId, TaskPlan,
};
use rtdls_sim::serve::{Resolution, Serve, Turn};

use crate::book::{self, ServiceBook};
use crate::defer::{DeferPolicy, DeferredQueue};
use crate::metrics::ServiceMetrics;
use crate::request::{QuotaPolicy, Verdict};
use crate::reserve::ReservationBook;
use crate::serve::EdgeGateway;
use crate::tenant::TenantLedger;

/// How submissions are routed across shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Routing {
    /// Cycle through shards; O(1) routing work.
    RoundRobin,
    /// Route to the shard with the smallest committed backlog.
    LeastLoaded,
    /// Probe all shards, pick the earliest estimated completion.
    BestFit,
}

/// One shard: an admission engine plus its node-id offset into the
/// global cluster.
#[derive(Clone, Debug)]
struct Shard {
    ctl: AdmissionController,
    offset: usize,
}

impl Shard {
    fn len(&self) -> usize {
        self.ctl.params().num_nodes
    }
}

/// Translates a shard-local plan into the engine's global node space.
fn globalize(mut plan: TaskPlan, offset: usize) -> TaskPlan {
    for node in &mut plan.nodes {
        *node = NodeId(node.0 + offset as u32);
    }
    plan
}

/// No routing restrictions: the empty per-shard skip mask.
const NO_SKIP: &[bool] = &[];

/// Whether routing may consider shard `s` under the skip mask (empty mask
/// = no restriction; a fully-set mask is the caller's responsibility to
/// catch beforehand — here it simply excludes everything).
fn routable(skip: &[bool], s: usize) -> bool {
    skip.get(s).copied() != Some(true)
}

/// Tries shards in routing order, skipping every shard whose `skip` bit is
/// set (quota-throttled for this request's tenant); `Ok(shard)` on the
/// first acceptance, `Err(a rejection cause)` when every candidate rejects
/// (or none remain).
fn try_admit(
    shards: &mut [Shard],
    routing: Routing,
    cursor: &mut usize,
    task: &Task,
    now: SimTime,
    skip: &[bool],
) -> Result<usize, Infeasible> {
    let k = shards.len();
    if routing == Routing::BestFit {
        // Probe every shard once; the probe *is* the submit's test, so the
        // winner's submit is guaranteed to accept and losers are never
        // re-tested.
        let mut best: Option<(SimTime, usize)> = None;
        let mut first_cause = None;
        for (i, shard) in shards.iter().enumerate() {
            if !routable(skip, i) {
                continue;
            }
            match shard.ctl.probe_plan(task, now) {
                Ok(plan) => {
                    let key = (plan.est_completion, i);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                Err(failure) => {
                    first_cause.get_or_insert(failure.reason);
                }
            }
        }
        return match best {
            Some((_, s)) => {
                let accepted = shards[s].ctl.submit(*task, now).is_accepted();
                debug_assert!(accepted, "probe and submit run the same test");
                Ok(s)
            }
            None => Err(first_cause.unwrap_or(Infeasible::NotEnoughNodes)),
        };
    }
    let order: Vec<usize> = match routing {
        Routing::RoundRobin => {
            let start = *cursor;
            *cursor = (*cursor + 1) % k;
            (0..k).map(|i| (start + i) % k).collect()
        }
        Routing::LeastLoaded => {
            let mut idx: Vec<usize> = (0..k).collect();
            let backlogs: Vec<f64> = shards.iter().map(|s| s.ctl.backlog(now)).collect();
            idx.sort_by(|&a, &b| backlogs[a].total_cmp(&backlogs[b]).then(a.cmp(&b)));
            idx
        }
        Routing::BestFit => unreachable!("handled above"),
    };
    let mut first_cause = None;
    for s in order {
        if !routable(skip, s) {
            continue;
        }
        match shards[s].ctl.submit(*task, now) {
            Decision::Accepted => return Ok(s),
            Decision::Rejected(cause) => {
                first_cause.get_or_insert(cause);
            }
        }
    }
    Err(first_cause.unwrap_or(Infeasible::NotEnoughNodes))
}

/// The engine side of the decision flow in [`book`]: it submits through
/// [`try_admit`] (routing order, spillover) and takes the reservation
/// search over all shards. `skip` is the per-shard quota-throttle mask for
/// the request in flight (empty = unrestricted — activation and defer
/// re-tests route freely so promises are honored).
pub(crate) struct RoutedShards<'a> {
    shards: &'a mut [Shard],
    routing: Routing,
    cursor: &'a mut usize,
    skip: &'a [bool],
}

impl RoutedShards<'_> {
    /// The mutating admission test, with the shard an accepted task was
    /// routed to (the decision-tracing `Route` span input).
    pub(crate) fn submit(&mut self, task: &Task, now: SimTime) -> (Decision, Option<u32>) {
        match try_admit(self.shards, self.routing, self.cursor, task, now, self.skip) {
            Ok(shard) => (Decision::Accepted, Some(shard as u32)),
            Err(cause) => (Decision::Rejected(cause), None),
        }
    }

    /// The reservation search (non-mutating on the engines) right after
    /// [`submit`](Self::submit) refused `task` at `now`: a shard routing tried
    /// is asked only for later instants, one the quota mask skipped in full.
    pub(crate) fn earliest_feasible_start(&self, task: &Task, now: SimTime) -> Option<SimTime> {
        let search = |(s, shard): (usize, &Shard)| match routable(self.skip, s) {
            true => shard.ctl.earliest_start_after(task, now),
            false => shard.ctl.earliest_feasible_start(task, now),
        };
        self.shards.iter().enumerate().filter_map(search).min()
    }

    /// `true` when per-shard quota caps ([`QuotaPolicy::max_shard_inflight`])
    /// leave this request no shard to route to.
    pub(crate) fn all_routes_throttled(&self) -> bool {
        !self.skip.is_empty() && self.skip.iter().all(|&s| s)
    }

    /// The admission explanation for a request every shard refuses
    /// (non-mutating; `None` when it is feasible somewhere as-is).
    pub(crate) fn explain(
        &self,
        request: &SubmitRequest,
        now: SimTime,
    ) -> Option<AdmissionExplanation> {
        best_explanation(self.shards, request, now)
    }
}

/// The cluster-level explanation for a request every shard refuses: each
/// shard opens its own search, and the shard offering the *shortest*
/// verified counterfactual deadline wins — a resubmission relaxed to that
/// deadline would be admitted by that shard, so the suggestion stays
/// honest across the whole fleet. Shards without a feasible deadline lose
/// to any shard with one, and the first shard wins a tie; `None` only when
/// some shard does not refuse (feasible there as-is). Only the winner's
/// search is finished (the σ and start counterfactuals): the losers' would
/// be thrown away.
fn best_explanation(
    shards: &[Shard],
    request: &SubmitRequest,
    now: SimTime,
) -> Option<AdmissionExplanation> {
    race_deadline_searches(shards, request, now).map(|(winner, _)| winner.finish())
}

/// Runs the shards' deadline searches side by side and returns the one
/// whose finished explanation the fleet reports, with the probes all the
/// other searches spent.
///
/// The searches are bisected in rounds, one step each, and a search is
/// abandoned as soon as its *own* bracket lies wholly above another live
/// search's: the deadline a search will report lies in `(failing, passing]`
/// of its current bracket whatever its tests answer from here on, so a
/// shard whose failing end has reached another's passing end will offer
/// strictly more than that shard does — it can neither win nor tie. Shards
/// with equal brackets never drop each other, a shard with no feasible
/// deadline has no bracket to be dropped by (and loses the fold below to
/// any offer), and every surviving search tests exactly the midpoints it
/// would have tested alone. Refining every search to the end instead costs
/// `edge_burst` 63 % (`BENCH_memo.json`).
///
/// What stays unsound: skipping a shard because it fails the test at a
/// deadline *another* shard found. With waiting work the test is not
/// monotone in the deadline (a longer one moves the request behind a
/// waiting task that then takes its nodes), so a shard that fails at `d`
/// can still verify a deadline shorter than `d` — that shortcut changed
/// fleet answers when it was tried. No shard is ever probed at a deadline
/// derived from another shard, and the winner's deadline is tight at its
/// own bracket, not a global minimum.
fn race_deadline_searches<'a>(
    shards: &'a [Shard],
    request: &SubmitRequest,
    now: SimTime,
) -> Option<(ExplainSearch<'a>, u64)> {
    let mut live = Vec::with_capacity(shards.len());
    for shard in shards {
        // Feasible as-is on this shard: nothing to explain.
        live.push(ExplainSearch::open(&shard.ctl, &request.task, now)?);
    }
    let mut other_probes = 0;
    loop {
        let best_passing = live
            .iter()
            .filter_map(|s| s.deadline_bracket())
            .map(|b| b.passing)
            .fold(f64::INFINITY, f64::min);
        live.retain(|s| {
            let beaten = s
                .deadline_bracket()
                .is_some_and(|b| b.failing >= best_passing);
            if beaten {
                other_probes += s.probes();
            }
            !beaten
        });
        // A lone contender is tightened by `finish`, like a search that
        // never had a rival.
        let contenders = live
            .iter()
            .filter(|s| s.deadline_bracket().is_some())
            .count();
        if contenders < 2 {
            break;
        }
        let mut stepped = false;
        for search in &mut live {
            stepped |= search.refine();
        }
        if !stepped {
            break;
        }
    }
    // Every bracket left is converged (or alone): the passing ends are the
    // offers, and no offer loses to any. `min_by` keeps the first of equal
    // minima, so the first shard wins a tie.
    let offer = |s: &ExplainSearch<'_>| s.deadline_bracket().map_or(f64::INFINITY, |b| b.passing);
    let winner = (0..live.len())
        .min_by(|&a, &b| offer(&live[a]).total_cmp(&offer(&live[b])))
        .expect("at least one shard");
    let winner = live.swap_remove(winner);
    other_probes += live.iter().map(ExplainSearch::probes).sum::<u64>();
    Some((winner, other_probes))
}

/// Online admission gateway over `K` independent cluster shards, each an
/// [`AdmissionController`] over its own nodes and waiting queue.
#[derive(Clone, Debug)]
pub struct ShardedGateway {
    params: ClusterParams,
    algorithm: AlgorithmKind,
    shards: Vec<Shard>,
    /// The largest shard's cluster shape — what defer eligibility and
    /// reservation bounds are judged against (tasks never span shards, so
    /// it is the best any future re-test can offer). Shard sizes are fixed
    /// at construction, and so is this.
    widest_params: ClusterParams,
    routing: Routing,
    cursor: usize,
    book: ServiceBook,
}

/// The shape of the largest of `shards`.
fn widest_params(shards: &[Shard]) -> ClusterParams {
    *shards
        .iter()
        .map(|s| s.ctl.params())
        .max_by_key(|p| p.num_nodes)
        .expect("at least one shard")
}

impl ShardedGateway {
    /// Partitions `params.num_nodes` nodes into `num_shards` contiguous
    /// shards (sizes differing by at most one). Errors when `num_shards` is
    /// zero or exceeds the node count.
    pub fn new(
        params: ClusterParams,
        num_shards: usize,
        algorithm: AlgorithmKind,
        cfg: PlanConfig,
        routing: Routing,
        defer_policy: DeferPolicy,
    ) -> Result<Self, ModelError> {
        if num_shards == 0 {
            return Err(ModelError::InvalidParams("num_shards must be >= 1"));
        }
        if num_shards > params.num_nodes {
            return Err(ModelError::InvalidParams("num_shards exceeds node count"));
        }
        let base = params.num_nodes / num_shards;
        let extra = params.num_nodes % num_shards;
        let mut shards = Vec::with_capacity(num_shards);
        let mut offset = 0;
        for i in 0..num_shards {
            let size = base + usize::from(i < extra);
            let shard_params = ClusterParams::new(size, params.cms, params.cps)?;
            shards.push(Shard {
                ctl: AdmissionController::new(shard_params, algorithm, cfg),
                offset,
            });
            offset += size;
        }
        Ok(ShardedGateway {
            params,
            algorithm,
            widest_params: widest_params(&shards),
            shards,
            routing,
            cursor: 0,
            book: ServiceBook::new(defer_policy, QuotaPolicy::default()),
        })
    }

    /// Sets the per-tenant quota policy (builder style).
    pub fn with_quota(mut self, quota: QuotaPolicy) -> Self {
        self.book.quota = quota;
        self
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The global cluster parameters this gateway fronts.
    pub fn params(&self) -> &ClusterParams {
        &self.params
    }

    /// The routing policy.
    pub fn routing(&self) -> Routing {
        self.routing
    }

    /// The algorithm every shard runs.
    pub fn algorithm(&self) -> AlgorithmKind {
        self.algorithm
    }

    /// Gateway statistics so far.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.book.metrics
    }

    /// Currently parked defer tickets.
    pub fn deferred(&self) -> &DeferredQueue {
        &self.book.defer
    }

    /// Currently booked reservations (gateway-global; activation routes
    /// across all shards).
    pub fn reservations(&self) -> &ReservationBook {
        &self.book.reservations
    }

    /// The waiting-task tenant ledger.
    pub fn ledger(&self) -> &TenantLedger {
        &self.book.ledger
    }

    /// The per-tenant quota policy in force.
    pub fn quota(&self) -> &QuotaPolicy {
        &self.book.quota
    }

    /// The deadline-SLO tracker (durable gateway state).
    pub fn slo(&self) -> &crate::slo::SloTracker {
        &self.book.slo
    }

    /// Replaces the SLO tracker — recovery installs the snapshotted
    /// tracker here, and owners use it to set a non-default policy.
    pub fn set_slo(&mut self, slo: crate::slo::SloTracker) {
        self.book.slo = slo;
    }

    /// The cluster-level explanation for a request every shard would
    /// refuse right now (`None` when some shard admits it as-is) — the
    /// `Ops::Explain` query surface. The shortest verified counterfactual
    /// deadline across shards wins, the first shard on a tie.
    pub fn explain(&self, request: &SubmitRequest, now: SimTime) -> Option<AdmissionExplanation> {
        best_explanation(&self.shards, request, now)
    }

    /// Waiting-queue lengths per shard (a load-balance diagnostic).
    pub fn shard_queue_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.ctl.queue_len()).collect()
    }

    /// The round-robin routing cursor (part of the durable state: replaying
    /// a journal must deal submissions to the same shards).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Per-shard controller states, in shard order — the durable image of
    /// the gateway book a journal snapshots.
    pub fn shard_states(&self) -> Vec<ControllerState> {
        self.shards.iter().map(|s| s.ctl.state()).collect()
    }

    /// Verdicts reached for pending (deferred/reserved) tasks but not yet
    /// drained into a turn (`None` = accepted, `Some(cause)` = rejected).
    /// Part of the durable state: a snapshot taken between a re-test sweep
    /// and the drain must not lose these.
    pub fn pending_resolutions(&self) -> &[Resolution] {
        &self.book.resolutions
    }

    /// Hands over (and forgets) the verdicts reached for pending tasks
    /// since the last call — the last step of a turn.
    pub fn drain_resolutions(&mut self) -> Vec<Resolution> {
        std::mem::take(&mut self.book.resolutions)
    }

    /// Removes and returns every waiting task due for dispatch at `now`,
    /// node ids global — the first step of a turn. Shard-major, controller
    /// order within each shard. The within-shard order is load-bearing: a
    /// shard's temp schedule commits nodes in policy order, and dispatching
    /// a successor before its predecessor would let it occupy a node the
    /// predecessor's plan still needs (shards never share nodes, so
    /// cross-shard order is free — keeping shard-major order is simply
    /// deterministic).
    pub fn take_due(&mut self, now: SimTime) -> Vec<(Task, TaskPlan)> {
        let mut due = Vec::new();
        for shard in &mut self.shards {
            for (task, plan) in shard.ctl.take_due(now) {
                due.push((task, globalize(plan, shard.offset)));
            }
        }
        self.book.ledger.prune_dispatched(&due);
        due
    }

    /// The earliest planned first transmission across the shards' queues.
    pub fn next_dispatch_due(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .filter_map(|s| s.ctl.next_dispatch_due())
            .min()
    }

    /// End of stream: every defer ticket and reservation still parked
    /// resolves as a rejection (drained by the next
    /// [`drain_resolutions`](ShardedGateway::drain_resolutions)).
    pub fn flush_parked(&mut self) {
        book::flush_all(&mut self.book);
    }

    /// Reassembles a sharded gateway from journaled parts. Shard offsets are
    /// re-derived from the shard sizes in order; errors when the shard
    /// node counts do not tile `params.num_nodes` or a shard's unit costs
    /// disagree with the cluster's.
    pub fn from_parts(
        params: ClusterParams,
        algorithm: AlgorithmKind,
        routing: Routing,
        cursor: usize,
        shard_states: Vec<ControllerState>,
        book: ServiceBook,
    ) -> Result<Self, ModelError> {
        if shard_states.is_empty() {
            return Err(ModelError::InvalidParams("at least one shard state"));
        }
        let mut shards = Vec::with_capacity(shard_states.len());
        let mut offset = 0;
        for state in shard_states {
            let shard_params = state.params;
            if shard_params.cms != params.cms || shard_params.cps != params.cps {
                return Err(ModelError::InvalidParams(
                    "shard unit costs disagree with the cluster's",
                ));
            }
            shards.push(Shard {
                ctl: AdmissionController::from_state(state)?,
                offset,
            });
            offset += shard_params.num_nodes;
        }
        if offset != params.num_nodes {
            return Err(ModelError::InvalidParams(
                "shard sizes do not tile the cluster's node count",
            ));
        }
        if cursor >= shards.len() {
            // The live gateway keeps its cursor strictly below the shard
            // count; anything else is a corrupted or version-skewed image.
            return Err(ModelError::InvalidParams(
                "routing cursor outside the shard range",
            ));
        }
        Ok(ShardedGateway {
            params,
            algorithm,
            widest_params: widest_params(&shards),
            shards,
            routing,
            cursor,
            book,
        })
    }

    /// Re-verifies every shard's waiting plans against the strict admission
    /// test at time `now`, demoting any no-longer-feasible task to the
    /// shared defer queue (or rejecting it when even an idle shard could
    /// not make its deadline any more). Recovery runs this after a
    /// snapshot + tail-replay restore; it is also safe to call at any
    /// quiescent point. Returns all demoted tasks across shards.
    pub fn reverify(&mut self, now: SimTime) -> Vec<Task> {
        let algorithm = self.algorithm;
        let mut demoted = Vec::new();
        for shard in &mut self.shards {
            demoted.extend(book::reverify_controller(
                &mut shard.ctl,
                &mut self.book,
                &self.widest_params,
                algorithm,
                now,
            ));
        }
        demoted
    }

    /// How many *waiting* tasks `tenant` holds on each shard, by joining
    /// the shard queues against the tenant ledger — O(shards × queue),
    /// paid only when a per-shard cap is in force.
    fn shard_held_counts(&self, tenant: rtdls_core::prelude::TenantId) -> Vec<u32> {
        let ledger = &self.book.ledger;
        self.shards
            .iter()
            .map(|s| {
                s.ctl
                    .queue()
                    .iter()
                    .filter(|(t, _)| ledger.tenant_of(t.id) == Some(tenant))
                    .count() as u32
            })
            .collect()
    }

    /// The per-shard quota-throttle mask for one submission: `mask[s]` is
    /// `true` when `tenant` already holds [`QuotaPolicy::max_shard_inflight`]
    /// waiting tasks on shard `s`, so routing must skip it. Empty (no
    /// restriction) when no per-shard cap is set or the tier is exempt.
    fn shard_throttle_mask(
        &self,
        tenant: rtdls_core::prelude::TenantId,
        qos: rtdls_core::prelude::QosClass,
    ) -> Vec<bool> {
        let Some(cap) = self.book.quota.max_shard_inflight else {
            return Vec::new();
        };
        if !self.book.quota.applies_to(qos) {
            return Vec::new();
        }
        self.shard_held_counts(tenant)
            .into_iter()
            .map(|held| held >= cap)
            .collect()
    }

    /// Folds this gateway's native stats — service counters, tenant books,
    /// per-shard planning profiles and queue depths — into the unified
    /// registry. The edge's ops channel polls this.
    pub fn fold_metrics(&self, reg: &mut rtdls_telemetry::MetricsRegistry) {
        crate::telemetry::fold_service_metrics(reg, self.metrics());
        crate::telemetry::fold_slo(reg, &self.book.slo);
        let mut waiting = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            let depth = shard.ctl.queue_len();
            waiting += depth;
            let label = i.to_string();
            reg.gauge(
                "rtdls_shard_queue_depth",
                &[("shard", &label)],
                depth as f64,
            );
            crate::telemetry::fold_engine_profile(reg, &shard.ctl.profile(), i as u32);
        }
        reg.gauge("rtdls_gateway_waiting", &[], waiting as f64);
    }

    /// Decides one submission envelope at time `now` — the serving
    /// surface. The admission test routes across shards
    /// ([`Routing`]); the reservation search takes the earliest feasible
    /// start over *all* shards (activation re-routes, so any shard may
    /// honor the promise).
    pub fn submit_request(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        let start = Instant::now();
        let algorithm = self.algorithm;
        let skip = self.shard_throttle_mask(request.tenant, request.qos);
        // In-process callers submit untraced requests; mint the trace id
        // here (the ingress point) when tracing is on. `mint` returns the
        // untraced sentinel 0 when the handle is disabled.
        let mut request = *request;
        if request.trace == 0 {
            request.trace = self.book.telemetry().mint();
        }
        let request = &request;
        let verdict = book::decide_request(
            &mut self.book,
            &self.widest_params,
            algorithm,
            request,
            now,
            &mut RoutedShards {
                shards: &mut self.shards,
                routing: self.routing,
                cursor: &mut self.cursor,
                skip: &skip,
            },
        );
        book::record_request(&mut self.book.metrics, start, request.tenant);
        verdict
    }

    /// Re-tests the defer queue against current capacity across all shards.
    pub fn retest_deferred(&mut self, now: SimTime) {
        let shards = &mut self.shards;
        let routing = self.routing;
        let cursor = &mut self.cursor;
        let retest_phase = self.book.profiler().start();
        let (departed, retests) = self.book.defer.sweep(now, |task| {
            try_admit(shards, routing, cursor, task, now, NO_SKIP).is_ok()
        });
        self.book.profiler().stop("gateway/retest", retest_phase);
        self.book.metrics.retests += retests;
        book::apply_departures(&mut self.book, departed, now);
    }

    /// Activates every reservation whose `start_at` has been reached,
    /// routing each across shards like any submission. The engine drives
    /// this after the dispatches at each instant commit.
    pub fn activate_reservations(&mut self, now: SimTime) {
        book::activate_due(
            &mut self.book,
            &self.widest_params,
            self.algorithm,
            now,
            &mut RoutedShards {
                shards: &mut self.shards,
                routing: self.routing,
                cursor: &mut self.cursor,
                skip: NO_SKIP,
            },
        );
    }

    fn shard_of(&self, node: usize) -> (usize, usize) {
        for (i, shard) in self.shards.iter().enumerate() {
            if node >= shard.offset && node < shard.offset + shard.len() {
                return (i, node - shard.offset);
            }
        }
        panic!(
            "node {node} outside the {}-node cluster",
            self.params.num_nodes
        );
    }
}

impl EdgeGateway for ShardedGateway {
    fn bare(&self) -> &Self {
        self
    }

    fn book_mut(&mut self) -> &mut ServiceBook {
        &mut self.book
    }
}

impl Serve for ShardedGateway {
    type Outcome = Verdict;

    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        self.submit_request(request, now)
    }

    /// Dispatch what fell due, re-test the defer queue against the freed
    /// capacity, activate due reservations against the post-dispatch book
    /// (a reservation's `start_at` is typically exactly a dispatch
    /// instant), then drain what the turn resolved. The bare gateway owes
    /// nothing to commit.
    fn drive(&mut self, now: SimTime) -> Turn {
        let dispatched = self.take_due(now);
        self.retest_deferred(now);
        self.activate_reservations(now);
        Turn {
            dispatched,
            resolved: self.drain_resolutions(),
        }
    }

    /// The next planned dispatch, reservation activation or defer-ticket
    /// deadline (expiry must be detected, and its resolution pushed, even
    /// when no other event ever arrives). A driver drives only when this is
    /// reached or a submission arrived, so an idle stack never busy-sweeps
    /// the books — and a journaled one never appends no-op re-test events.
    fn next_due(&self) -> Option<SimTime> {
        [
            self.next_dispatch_due(),
            self.book.reservations.next_activation(),
            self.book.defer.next_deadline(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn finalize(&mut self, _now: SimTime) -> Vec<Resolution> {
        self.flush_parked();
        self.drain_resolutions()
    }

    fn replan_waiting(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        for shard in &mut self.shards {
            shard.ctl.replan(now)?;
        }
        Ok(())
    }

    fn committed_release(&self, node: usize) -> SimTime {
        let (s, local) = self.shard_of(node);
        self.shards[s].ctl.committed_releases()[local]
    }

    fn node_released(&mut self, node: usize, at: SimTime) {
        let (s, local) = self.shard_of(node);
        self.shards[s].ctl.set_node_release(local, at);
    }

    /// Note: the returned plan is in *shard-local* node ids (drivers read
    /// its timing fields; dispatched plans come globalized in the turn).
    fn plan_of(&self, task: TaskId) -> Option<&TaskPlan> {
        self.shards.iter().find_map(|s| s.ctl.find_plan(task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::dlt::homogeneous;
    use rtdls_core::prelude::{QosClass, TenantId};

    /// One task under the default envelope (anonymous tenant, no
    /// reservation tolerance).
    fn submit(g: &mut ShardedGateway, task: Task, now: SimTime) -> Verdict {
        g.submit_request(&SubmitRequest::new(task), now)
    }

    /// A single cluster: the one-shard gateway.
    fn single() -> ShardedGateway {
        sharded(1, Routing::LeastLoaded)
    }

    fn sharded(k: usize, routing: Routing) -> ShardedGateway {
        ShardedGateway::new(
            ClusterParams::paper_baseline(),
            k,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            routing,
            DeferPolicy::default(),
        )
        .unwrap()
    }

    #[test]
    fn shard_partition_covers_all_nodes_exactly_once() {
        for k in [1, 3, 4, 5, 16] {
            let g = sharded(k, Routing::RoundRobin);
            let mut covered = [false; 16];
            for shard in &g.shards {
                for i in 0..shard.len() {
                    let global = shard.offset + i;
                    assert!(!covered[global], "node {global} covered twice (k={k})");
                    covered[global] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "k={k} leaves nodes uncovered");
            let sizes: Vec<usize> = g.shards.iter().map(Shard::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced shards {sizes:?}");
        }
    }

    #[test]
    fn invalid_shard_counts_error() {
        let p = ClusterParams::paper_baseline();
        let mk = |k| {
            ShardedGateway::new(
                p,
                k,
                AlgorithmKind::EDF_DLT,
                PlanConfig::default(),
                Routing::RoundRobin,
                DeferPolicy::default(),
            )
        };
        assert!(mk(0).is_err());
        assert!(mk(17).is_err());
        assert!(mk(16).is_ok());
    }

    #[test]
    fn round_robin_spreads_accepted_tasks() {
        let mut g = sharded(4, Routing::RoundRobin);
        for i in 0..8 {
            let d = submit(&mut g, Task::new(i, 0.0, 50.0, 1e6), SimTime::ZERO);
            assert!(d.is_accepted());
        }
        assert_eq!(g.shard_queue_lens(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn least_loaded_balances_uneven_bursts() {
        let mut g = sharded(4, Routing::LeastLoaded);
        // A big task lands somewhere; the next ones must avoid that shard.
        assert!(submit(&mut g, Task::new(0, 0.0, 800.0, 1e6), SimTime::ZERO).is_accepted());
        for i in 1..4 {
            assert!(submit(&mut g, Task::new(i, 0.0, 50.0, 1e6), SimTime::ZERO).is_accepted());
        }
        let lens = g.shard_queue_lens();
        assert_eq!(lens.iter().sum::<usize>(), 4);
        assert_eq!(
            *lens.iter().max().unwrap(),
            1,
            "no shard should get two: {lens:?}"
        );
    }

    #[test]
    fn best_fit_prefers_the_earliest_completion() {
        let p = ClusterParams::paper_baseline();
        let e8 = homogeneous::exec_time(&p, 400.0, 8);
        let mut g = sharded(2, Routing::BestFit);
        // A deadline-tight task grabs all of shard 0 (idle tie breaks to 0)…
        assert!(submit(&mut g, Task::new(0, 0.0, 400.0, e8 * 1.2), SimTime::ZERO).is_accepted());
        // …so the next task completes at ≈2·e8 there but ≈e8 on shard 1:
        // best-fit must route it to shard 1 even though both would accept.
        assert!(submit(&mut g, Task::new(1, 0.0, 400.0, e8 * 2.5), SimTime::ZERO).is_accepted());
        let lens = g.shard_queue_lens();
        assert_eq!(lens, vec![1, 1], "best-fit avoids the busy shard: {lens:?}");
    }

    #[test]
    fn spillover_tries_other_shards_before_rejecting() {
        // Shard 0 saturated; round-robin still admits via shard 1.
        let p = ClusterParams::paper_baseline();
        let mut g = sharded(2, Routing::RoundRobin);
        let e8 = homogeneous::exec_time(&p, 400.0, 8);
        // Two tight tasks fill both shards' immediate capacity...
        assert!(submit(&mut g, Task::new(0, 0.0, 400.0, e8 * 1.05), SimTime::ZERO).is_accepted());
        assert!(submit(&mut g, Task::new(1, 0.0, 400.0, e8 * 1.05), SimTime::ZERO).is_accepted());
        // ...a third tight task fails on its routed shard AND the other.
        let d = submit(&mut g, Task::new(2, 0.0, 400.0, e8 * 1.05), SimTime::ZERO);
        assert!(!d.is_accepted());
        // But a task with queueing slack is accepted by *some* shard even
        // though round-robin would naively route it to the busy one.
        let d = submit(&mut g, Task::new(3, 0.0, 400.0, e8 * 4.0), SimTime::ZERO);
        assert!(d.is_accepted(), "spillover must find shard capacity: {d:?}");
    }

    #[test]
    fn take_due_globalizes_node_ids() {
        let mut g = sharded(4, Routing::RoundRobin);
        for i in 0..4 {
            assert!(submit(&mut g, Task::new(i, 0.0, 50.0, 1e6), SimTime::ZERO).is_accepted());
        }
        let due = g.take_due(SimTime::ZERO);
        assert_eq!(due.len(), 4);
        let mut seen_nodes: Vec<u32> = Vec::new();
        for (_, plan) in &due {
            for node in &plan.nodes {
                assert!(node.index() < 16, "global node id out of range");
                seen_nodes.push(node.0);
            }
        }
        seen_nodes.sort_unstable();
        seen_nodes.dedup();
        // Four tasks on four distinct shards: nodes from all four quarters.
        assert!(seen_nodes.iter().any(|&n| n < 4));
        assert!(seen_nodes.iter().any(|&n| n >= 12));
    }

    #[test]
    fn quota_aware_routing_skips_tenant_saturated_shards() {
        use crate::request::QuotaPolicy;
        use rtdls_core::prelude::{QosClass, SubmitRequest, TenantId};
        let mut g = sharded(2, Routing::LeastLoaded).with_quota(QuotaPolicy {
            max_shard_inflight: Some(1),
            ..Default::default()
        });
        let mk = |id| SubmitRequest::new(Task::new(id, 0.0, 50.0, 1e6)).with_tenant(TenantId(3));
        // Tenant 3 parks one task on shard 0 (idle tie breaks to 0)…
        assert!(g.submit_request(&mk(1), SimTime::ZERO).is_accepted());
        // …then another tenant loads shard 1 heavily.
        let big = SubmitRequest::new(Task::new(2, 0.0, 800.0, 1e6)).with_tenant(TenantId(9));
        assert!(g.submit_request(&big, SimTime::ZERO).is_accepted());
        assert_eq!(g.shard_queue_lens(), vec![1, 1]);
        // Tenant 3's next task: least-loaded favors shard 0, but the tenant
        // is at its per-shard cap there — routing must skip to shard 1.
        assert!(g.submit_request(&mk(3), SimTime::ZERO).is_accepted());
        assert_eq!(
            g.shard_queue_lens(),
            vec![1, 2],
            "the saturated shard was skipped"
        );
        // At cap on every shard: throttled before the admission test.
        let v = g.submit_request(&mk(4), SimTime::ZERO);
        assert_eq!(v, Verdict::Throttled);
        assert_eq!(g.metrics().throttled, 1);
        // Another tenant routes freely, and premium bypasses the cap.
        let other = SubmitRequest::new(Task::new(5, 0.0, 50.0, 1e6)).with_tenant(TenantId(7));
        assert!(g.submit_request(&other, SimTime::ZERO).is_accepted());
        let premium = mk(6).with_qos(QosClass::Premium);
        assert!(g.submit_request(&premium, SimTime::ZERO).is_accepted());
        // Dispatch frees the waiting liabilities: the tenant submits again.
        g.take_due(SimTime::ZERO);
        assert!(g.submit_request(&mk(7), SimTime::ZERO).is_accepted());
        // One shard: nowhere to spread to, so the cap bounds the tenant's
        // waiting tasks outright — still a throttle, never an admission test.
        let mut g = single().with_quota(QuotaPolicy {
            max_shard_inflight: Some(1),
            ..Default::default()
        });
        assert!(g.submit_request(&mk(1), SimTime::ZERO).is_accepted());
        assert_eq!(g.submit_request(&mk(2), SimTime::ZERO), Verdict::Throttled);
        assert_eq!(g.metrics().throttled, 1);
        assert_eq!(g.shard_queue_lens(), vec![1]);
        g.take_due(SimTime::ZERO);
        assert!(g.submit_request(&mk(3), SimTime::ZERO).is_accepted());
    }

    #[test]
    fn a_reservation_asks_a_capped_shard_the_full_search() {
        use crate::request::QuotaPolicy;
        // Shard 0 refuses the candidate now and takes it once its waiting
        // all-node task dispatches at 1000 (the canonical reservation scenario
        // on 8 nodes); shard 1 would take it now, but tenant 3 is at its cap
        // there. Routing tries shard 0 alone, so the search asks shard 0 only
        // for later instants, and shard 1 the full search — which answers
        // `now`: a reservation due at once, on the shard the quota skipped.
        let p = ClusterParams::paper_baseline();
        let (e8, e7) = (
            homogeneous::exec_time(&p, 800.0, 8),
            homogeneous::exec_time(&p, 800.0, 7),
        );
        let slack_w = (e7 - e8) * 0.75;
        let avail = SimTime::new(1000.0);
        let mut g = ShardedGateway::new(
            p,
            2,
            AlgorithmKind::EDF_OPR_MN,
            PlanConfig::default(),
            Routing::RoundRobin,
            DeferPolicy::default(),
        )
        .unwrap()
        .with_quota(QuotaPolicy {
            max_shard_inflight: Some(1),
            ..Default::default()
        });
        for node in 0..8 {
            g.node_released(node, avail);
        }
        let w = SubmitRequest::new(Task::new(1, 0.0, 800.0, 1000.0 + e8 + slack_w))
            .with_tenant(TenantId(9));
        assert!(g.submit_request(&w, SimTime::ZERO).is_accepted());
        let held = SubmitRequest::new(Task::new(2, 0.0, 50.0, 1e6)).with_tenant(TenantId(3));
        assert!(g.submit_request(&held, SimTime::ZERO).is_accepted());
        assert_eq!(g.shard_queue_lens(), vec![1, 1]);
        // Too long for the slack `w` has left on one node, short on all 8.
        assert!(homogeneous::exec_time(&p, 20.0, 8) < slack_w * 0.8);
        let c = Task::new(3, 0.0, 20.0, 1000.0 + e8 + slack_w * 0.8);
        let now = SimTime::ZERO;
        let (refusing, capped) = (&g.shards[0].ctl, &g.shards[1].ctl);
        assert!(!refusing.probe(&c, now).is_accepted());
        let later = refusing.earliest_start_after(&c, now);
        let full = capped.earliest_feasible_start(&c, now);
        assert_eq!((later, full), (Some(avail), Some(now)));
        // Asked for later instants only, the capped shard would answer
        // otherwise: the test tells the two searches apart.
        assert_ne!(capped.earliest_start_after(&c, now), full);
        let req = SubmitRequest::new(c)
            .with_tenant(TenantId(3))
            .with_max_delay(Some(2000.0));
        let verdict = g.submit_request(&req, now);
        let Verdict::Reserved { start_at, .. } = verdict else {
            panic!("expected Reserved, got {verdict:?}");
        };
        assert_eq!(Some(start_at), later.min(full));
    }

    #[test]
    fn every_routing_closes_the_books() {
        let p = ClusterParams::paper_baseline();
        let e16 = homogeneous::exec_time(&p, 400.0, 16);
        let burst: Vec<Task> = (0..20)
            .map(|i| Task::new(i, 0.0, 400.0, e16 * (1.5 + (i % 7) as f64)))
            .collect();
        for routing in [Routing::RoundRobin, Routing::LeastLoaded, Routing::BestFit] {
            let mut g = sharded(4, routing);
            for t in &burst {
                submit(&mut g, *t, SimTime::ZERO);
            }
            let m = g.metrics();
            assert_eq!(m.submitted, 20);
            assert_eq!(
                m.accepted_immediate + m.rejected_immediate + m.deferred,
                20,
                "{routing:?}"
            );
        }
    }

    #[test]
    fn feasible_task_is_accepted() {
        let mut g = single();
        let d = submit(&mut g, Task::new(1, 0.0, 200.0, 30_000.0), SimTime::ZERO);
        assert_eq!(d, Verdict::Accepted);
        assert_eq!(g.metrics().accepted_immediate, 1);
        assert_eq!(g.metrics().submitted, 1);
        assert!(g.metrics().decision_latency.count() == 1);
        // The default envelope books the anonymous tenant.
        let t0 = g.metrics().tenants.get(TenantId(0)).unwrap();
        assert_eq!(t0.submitted, 1);
        assert_eq!(t0.accepted, 1);
        assert_eq!(t0.decision_latency.count(), 1);
        assert_eq!(g.ledger().count_for(TenantId(0)), 1);
    }

    #[test]
    fn hopeless_task_is_rejected_not_deferred() {
        let mut g = single();
        // Deadline below the transmission time: even an idle cluster fails.
        let d = submit(&mut g, Task::new(1, 0.0, 200.0, 100.0), SimTime::ZERO);
        assert_eq!(d, Verdict::rejected(Infeasible::NoTimeForTransmission));
        assert_eq!(g.metrics().deferred, 0);
        assert!(g.deferred().is_empty());
    }

    #[test]
    fn near_miss_task_is_deferred_then_rescued() {
        let p = ClusterParams::paper_baseline();
        let mut g = single();
        let e16 = homogeneous::exec_time(&p, 800.0, 16);
        // Saturate the cluster with a task that holds every node until e16…
        assert!(submit(&mut g, Task::new(1, 0.0, 800.0, e16 * 1.05), SimTime::ZERO).is_accepted());
        // …then offer a task that cannot finish behind it (queued completion
        // ≈ 2·e16 > 1.5·e16) but would fit an idle cluster with slack.
        let near_miss = Task::new(2, 0.0, 800.0, e16 * 1.5);
        let d = submit(&mut g, near_miss, SimTime::ZERO);
        assert!(d.is_deferred(), "expected Deferred, got {d:?}");
        assert_eq!(g.metrics().deferred, 1);
        // Dispatch the blocker, then let its nodes come back *earlier* than
        // the committed estimate (the slack conservative release estimates
        // produce); the re-test sweep must rescue the parked task.
        g.take_due(SimTime::ZERO);
        let early = SimTime::new(e16 * 0.3);
        for node in 0..16 {
            g.node_released(node, early);
        }
        g.retest_deferred(early);
        assert_eq!(g.metrics().rescued, 1);
        assert!(g.deferred().is_empty());
        let resolutions = g.drain_resolutions();
        assert_eq!(resolutions.len(), 1);
        assert_eq!(resolutions[0].0.id, near_miss.id);
        assert!(resolutions[0].1.is_none(), "rescued = accepted resolution");
        assert!((g.metrics().defer_rescue_rate() - 1.0).abs() < 1e-12);
        // The rescued plan carries the usual deadline guarantee.
        let plan = g.plan_of(near_miss.id).expect("rescued plan");
        assert!(!plan
            .est_completion
            .definitely_after(near_miss.absolute_deadline()));
    }

    /// The canonical reservation scenario: an EDF-early small task starves
    /// a waiting all-node OPR task (rejected now), but becomes admissible
    /// the instant that task dispatches — the priority inversion the
    /// "accept at t₀+δ" verdict resolves. Returns the gateway (all 16
    /// nodes committed to `t=1000`, the big task waiting with
    /// `first_start = 1000`) and the small candidate.
    fn reservation_scenario() -> (ShardedGateway, Task, SimTime) {
        let p = ClusterParams::paper_baseline();
        let e16 = homogeneous::exec_time(&p, 800.0, 16);
        let e15 = homogeneous::exec_time(&p, 800.0, 15);
        // Slacks: the waiting task's slack is below the 15-node penalty (so
        // it needs all 16 nodes), and the candidate's slack accommodates a
        // full-cluster run of its small load but not a 1-node run.
        let slack_w = (e15 - e16) * 0.75;
        let slack_c = slack_w * 0.8;
        assert!(homogeneous::exec_time(&p, 10.0, 16) < slack_c);
        let mut g = ShardedGateway::new(
            p,
            1,
            AlgorithmKind::EDF_OPR_MN,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .unwrap();
        let avail = SimTime::new(1000.0);
        for node in 0..16 {
            g.node_released(node, avail);
        }
        let w = Task::new(1, 0.0, 800.0, 1000.0 + e16 + slack_w);
        assert!(submit(&mut g, w, SimTime::ZERO).is_accepted());
        assert_eq!(g.plan_of(w.id).unwrap().first_start(), avail);
        let c = Task::new(2, 0.0, 10.0, 1000.0 + e16 + slack_c);
        // Sanity: the plain submission is rejected (c would be planned
        // before w under EDF and starve it).
        assert!(!submit(&mut g.clone(), c, SimTime::ZERO).is_accepted());
        (g, c, avail)
    }

    #[test]
    fn reservation_is_booked_and_activates_on_time() {
        let (mut g, c, avail) = reservation_scenario();
        let req = SubmitRequest::new(c)
            .with_tenant(TenantId(7))
            .with_max_delay(Some(2000.0));
        let verdict = g.submit_request(&req, SimTime::ZERO);
        let Verdict::Reserved { start_at, ticket } = verdict else {
            panic!("expected Reserved, got {verdict:?}");
        };
        assert_eq!(ticket, 0);
        assert_eq!(start_at, avail, "earliest start = the blocker's dispatch");
        assert_eq!(g.reservations().len(), 1);
        assert_eq!(g.metrics().reserved, 1);
        assert_eq!(g.reservations().next_activation(), Some(start_at));
        // Honesty: dispatch the blocker, then activating exactly at
        // start_at admits the task.
        let due = g.take_due(start_at);
        assert_eq!(due.len(), 1, "the waiting blocker dispatches");
        g.activate_reservations(start_at);
        assert_eq!(g.metrics().reservations_activated, 1);
        assert!(g.reservations().is_empty());
        assert_eq!(g.reservations().next_activation(), None);
        let resolutions = g.drain_resolutions();
        assert_eq!(resolutions.len(), 1);
        assert!(resolutions[0].1.is_none(), "activated = accepted");
        let log = g.book_mut().take_activation_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].admitted);
        assert_eq!(log[0].ticket, 0);
        // Tenant books the accept; the admitted plan holds the guarantee.
        assert_eq!(g.metrics().tenants.get(TenantId(7)).unwrap().accepted, 1);
        assert_eq!(g.metrics().accepted_total(), 2);
        let plan = g.plan_of(c.id).expect("activated plan");
        assert!(!plan.est_completion.definitely_after(c.absolute_deadline()));
    }

    #[test]
    fn the_race_returns_the_fold_of_full_searches_for_under_half_their_probes() {
        use rtdls_workload::prelude::{WorkloadGenerator, WorkloadSpec};
        // One same-instant burst on 8 shards × 8 nodes, twice what they can
        // start at once: every shard ends up with a full queue and the
        // rest of the burst is refused everywhere.
        let params = ClusterParams::new(64, 1.0, 100.0).unwrap();
        let mut g = ShardedGateway::new(
            params,
            8,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .unwrap();
        let mut spec = WorkloadSpec::paper_baseline(1.0);
        spec.params = params;
        spec.dc_ratio = 20.0;
        spec.horizon = f64::MAX;
        let now = SimTime::new(1_000.0);
        let mut refused = Vec::new();
        for mut task in WorkloadGenerator::new(spec, 3).take(64) {
            task.arrival = now;
            if !submit(&mut g, task, now).is_accepted() {
                refused.push(SubmitRequest::new(task));
            }
        }
        assert!(refused.len() >= 10, "refused: {}", refused.len());
        let depths = g.shard_queue_lens();
        assert!(depths.iter().all(|&depth| depth >= 3), "{depths:?}");

        let (mut full_probes, mut raced_probes) = (0, 0);
        for request in &refused {
            // Every shard's search run to the end, then the documented
            // fold: a feasible deadline beats none, a strictly shorter one
            // wins, the first shard wins a tie.
            let mut fold: Option<AdmissionExplanation> = None;
            for shard in &g.shards {
                let mut search = ExplainSearch::open(&shard.ctl, &request.task, now)
                    .expect("refused everywhere");
                while search.refine() {}
                full_probes += search.probes();
                let ex = search.finish();
                let better = fold.is_none_or(|cur| {
                    ex.has_feasible_deadline()
                        && (!cur.has_feasible_deadline()
                            || ex.min_feasible_deadline < cur.min_feasible_deadline)
                });
                if better {
                    fold = Some(ex);
                }
            }
            let (mut winner, other_probes) =
                race_deadline_searches(&g.shards, request, now).expect("refused everywhere");
            while winner.refine() {}
            raced_probes += other_probes + winner.probes();
            assert_eq!(Some(winner.finish()), fold);
            assert_eq!(g.explain(request, now), fold);
        }
        // A race that tightened every bracket would spend what the full
        // searches do; one that dropped wrongly would have failed above.
        assert!(
            raced_probes * 2 < full_probes,
            "race {raced_probes} vs full {full_probes}"
        );
    }

    #[test]
    fn profiler_times_the_reservation_search_and_the_defer_sweep() {
        // `gateway/reserve` is the start search alone: a verdict that never
        // reaches it (an acceptance) records none, a `Reserved` one does.
        // `gateway/retest` is one entry per defer sweep.
        use rtdls_telemetry::Profiler;
        let count = |profiler: &Profiler, path: &str| {
            profiler
                .snapshot()
                .iter()
                .find(|p| p.path == path)
                .map_or(0, |p| p.count)
        };
        let mut g = single();
        let profiler = Profiler::enabled();
        g.attach_profiler(&profiler);
        let roomy = SubmitRequest::new(Task::new(1, 0.0, 100.0, 1e6)).with_max_delay(Some(2000.0));
        assert!(g.submit_request(&roomy, SimTime::ZERO).is_accepted());
        assert_eq!(count(&profiler, "gateway/plan"), 1);
        assert_eq!(count(&profiler, "gateway/reserve"), 0);

        let (mut g, c, _) = reservation_scenario();
        let profiler = Profiler::enabled();
        g.attach_profiler(&profiler);
        let req = SubmitRequest::new(c).with_max_delay(Some(2000.0));
        let verdict = g.submit_request(&req, SimTime::ZERO);
        assert!(matches!(verdict, Verdict::Reserved { .. }), "{verdict:?}");
        assert_eq!(count(&profiler, "gateway/plan"), 1);
        assert_eq!(count(&profiler, "gateway/reserve"), 1);
        assert_eq!(count(&profiler, "gateway/retest"), 0);
        g.retest_deferred(SimTime::ZERO);
        assert_eq!(count(&profiler, "gateway/retest"), 1);

        // What a sweep costs the engine: a parked ticket asked about again
        // with nothing changed around it (the task ahead of it dispatched as
        // planned, every node busy past the new instant) is refused from the
        // engine's memory, and counted.
        let e16 = homogeneous::exec_time(&ClusterParams::paper_baseline(), 800.0, 16);
        let mut g = single();
        assert!(submit(&mut g, Task::new(1, 0.0, 800.0, e16 * 1.05), SimTime::ZERO).is_accepted());
        let parked = submit(&mut g, Task::new(2, 0.0, 800.0, e16 * 1.5), SimTime::ZERO);
        assert!(matches!(parked, Verdict::Deferred { .. }), "{parked:?}");
        g.take_due(SimTime::ZERO);
        let before = g.shards[0].ctl.profile();
        g.retest_deferred(SimTime::new(1.0));
        let after = g.shards[0].ctl.profile();
        assert_eq!(g.metrics().retests, 1);
        assert_eq!(after.refusals_reused - before.refusals_reused, 1);
        assert_eq!(after.plans_computed, before.plans_computed);
    }

    #[test]
    fn decision_updates_stream_parked_task_fates_only_while_observed() {
        use crate::observe::DecisionUpdate;
        // Activation path: a booked reservation's activation is pushed.
        let (mut g, c, _) = reservation_scenario();
        g.enable_observation();
        let req = SubmitRequest::new(c).with_max_delay(Some(2000.0));
        let Verdict::Reserved { start_at, ticket } = g.submit_request(&req, SimTime::ZERO) else {
            panic!("expected Reserved");
        };
        g.take_due(start_at);
        g.activate_reservations(start_at);
        let updates = g.take_updates();
        assert_eq!(
            updates,
            vec![DecisionUpdate::Activated {
                ticket,
                task: c.id.0,
                at: start_at,
                admitted: true,
            }]
        );
        assert!(updates[0].is_terminal());
        assert!(g.take_updates().is_empty(), "channel drains");
        // Rescue path: a defer ticket's departure is pushed.
        let p = ClusterParams::paper_baseline();
        let mut g = single();
        g.enable_observation();
        let e16 = homogeneous::exec_time(&p, 800.0, 16);
        assert!(submit(&mut g, Task::new(1, 0.0, 800.0, e16 * 1.05), SimTime::ZERO).is_accepted());
        let near_miss = Task::new(2, 0.0, 800.0, e16 * 1.5);
        let Verdict::Deferred { ticket, .. } = submit(&mut g, near_miss, SimTime::ZERO) else {
            panic!("expected Deferred");
        };
        g.take_due(SimTime::ZERO);
        let early = SimTime::new(e16 * 0.3);
        for node in 0..16 {
            g.node_released(node, early);
        }
        g.retest_deferred(early);
        let updates = g.take_updates();
        assert_eq!(
            updates,
            vec![DecisionUpdate::Resolved {
                task: near_miss.id.0,
                ticket: Some(ticket),
                admitted: true,
                cause: None,
            }]
        );
        // Observation off (the default): nothing accumulates.
        let (mut g, c, _) = reservation_scenario();
        let req = SubmitRequest::new(c).with_max_delay(Some(2000.0));
        assert!(g.submit_request(&req, SimTime::ZERO).is_reserved());
        g.take_due(SimTime::new(1000.0));
        g.activate_reservations(SimTime::new(1000.0));
        assert!(g.take_updates().is_empty());
    }

    #[test]
    fn reservation_beyond_tolerance_falls_back_to_defer() {
        let (mut g, c, _) = reservation_scenario();
        // The earliest feasible start is t=1000; a tolerance of 500 cannot
        // reach it: no reservation, ordinary defer-or-reject.
        let req = SubmitRequest::new(c).with_max_delay(Some(500.0));
        let verdict = g.submit_request(&req, SimTime::ZERO);
        assert!(!verdict.is_reserved(), "got {verdict:?}");
        assert_eq!(g.metrics().reserved, 0);
    }

    #[test]
    fn tenant_quota_throttles_before_the_admission_test() {
        let mut g = single().with_quota(QuotaPolicy {
            max_inflight: Some(2),
            ..Default::default()
        });
        let mk =
            |id: u64| SubmitRequest::new(Task::new(id, 0.0, 50.0, 1e6)).with_tenant(TenantId(1));
        assert!(g.submit_request(&mk(1), SimTime::ZERO).is_accepted());
        assert!(g.submit_request(&mk(2), SimTime::ZERO).is_accepted());
        let v = g.submit_request(&mk(3), SimTime::ZERO);
        assert_eq!(v, Verdict::Throttled);
        assert_eq!(g.metrics().throttled, 1);
        assert_eq!(g.metrics().tenants.get(TenantId(1)).unwrap().throttled, 1);
        // Another tenant is unaffected…
        let other = SubmitRequest::new(Task::new(4, 0.0, 50.0, 1e6)).with_tenant(TenantId(2));
        assert!(g.submit_request(&other, SimTime::ZERO).is_accepted());
        // …and a premium request from the throttled tenant bypasses quota.
        let premium = mk(5).with_qos(QosClass::Premium);
        assert!(g.submit_request(&premium, SimTime::ZERO).is_accepted());
        // Dispatch frees the liability: the tenant can submit again.
        g.take_due(SimTime::ZERO);
        assert_eq!(g.ledger().count_for(TenantId(1)), 0);
        assert!(g.submit_request(&mk(6), SimTime::ZERO).is_accepted());
        // Books balance: accepted + rejected = submitted.
        let m = g.metrics();
        assert_eq!(m.accepted_total() + m.rejected_total(), m.submitted);
    }

    #[test]
    fn finalize_flushes_remaining_tickets_and_reservations_as_rejections() {
        let (mut g, c, _) = reservation_scenario();
        // A near-miss without a tolerance parks in the defer queue…
        assert!(submit(&mut g, c, SimTime::ZERO).is_deferred());
        // …and the same shape with one books a reservation.
        let c2 = Task::new(3, 0.0, c.data_size, c.rel_deadline);
        let req = SubmitRequest::new(c2).with_max_delay(Some(2000.0));
        assert!(g.submit_request(&req, SimTime::ZERO).is_reserved());
        // The stream ends before either resolves.
        let resolutions = g.finalize(SimTime::ZERO);
        assert_eq!(resolutions.len(), 2);
        assert!(
            resolutions.iter().all(|(_, cause)| cause.is_some()),
            "flushed = rejected resolution"
        );
        assert_eq!(g.metrics().defer_flushed, 1);
        assert_eq!(g.metrics().reservations_flushed, 1);
        assert!(g.reservations().is_empty());
        assert_eq!(
            g.metrics().accepted_total() + g.metrics().rejected_total(),
            g.metrics().submitted
        );
    }
}
