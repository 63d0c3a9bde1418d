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

use rtdls_core::admission::{ExplainSearch, ProbeWalks};
use rtdls_core::error::ModelError;
use rtdls_core::prelude::{
    Admission, AdmissionController, AdmissionExplanation, AdmissionFailure, AlgorithmKind,
    ClusterParams, ControllerState, Decision, Infeasible, PlanConfig, SimTime, SubmitRequest, Task,
    TaskId, TaskPlan,
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

/// No routing restrictions: the empty per-shard skip mask.
const NO_SKIP: &[bool] = &[];

/// Whether routing may consider shard `s` under the skip mask (empty mask
/// = no restriction; a fully-set mask is the caller's responsibility to
/// catch beforehand — here it simply excludes everything).
fn routable(skip: &[bool], s: usize) -> bool {
    skip.get(s).copied() != Some(true)
}

/// What the gateway keeps from a refusal to its explanation: the refusals
/// of the request in flight by the shards [`RoutedShards::submit`] tried, in
/// the order it tried them, and the walks each shard's search probes on,
/// kept like an engine's pass. `order` is the buffer `submit` lays its
/// routing order out in, `(backlog, shard)` under `LeastLoaded`.
#[derive(Clone, Debug, Default)]
struct Refusals {
    causes: Vec<(usize, Infeasible)>,
    walks: Vec<ProbeWalks>,
    order: Vec<(f64, usize)>,
}

/// The engine side of the decision flow in [`book`]: it submits in routing
/// order with spillover and takes the reservation search over all shards.
/// `skip` is the per-shard quota-throttle mask for the request in flight
/// (empty = unrestricted — activation and defer re-tests route freely so
/// promises are honored).
pub(crate) struct RoutedShards<'a> {
    shards: &'a mut [Shard],
    routing: Routing,
    cursor: &'a mut usize,
    skip: &'a [bool],
    refusals: &'a mut Refusals,
}

impl RoutedShards<'_> {
    /// The mutating admission test: tries shards in routing order, skipping
    /// every shard whose `skip` bit is set (quota-throttled for this
    /// request's tenant), with the shard an accepted task was routed to
    /// (the decision-tracing `Route` span input); a rejection carries the
    /// first refusal's cause (`NotEnoughNodes` when no shard is left). The
    /// refusals are kept for an explanation to open on.
    pub(crate) fn submit(&mut self, task: &Task, now: SimTime) -> (Decision, Option<u32>) {
        let k = self.shards.len();
        let (refused, order) = (&mut self.refusals.causes, &mut self.refusals.order);
        refused.clear();
        order.clear();
        match self.routing {
            Routing::RoundRobin => {
                let start = *self.cursor;
                *self.cursor = (start + 1) % k;
                order.extend((0..k).map(|i| (0.0, (start + i) % k)));
            }
            Routing::LeastLoaded => {
                order.extend(self.shards.iter().map(|s| s.ctl.backlog(now)).zip(0..k));
                // Shard indices are distinct: the unstable sort is the
                // stable order and never allocates.
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            }
            // Probe every shard once; the probe *is* the submit's test, so the
            // best fit's submit accepts and the others are never re-tested.
            Routing::BestFit => {
                let mut best: Option<(SimTime, usize)> = None;
                for s in (0..k).filter(|&s| routable(self.skip, s)) {
                    match self.shards[s].ctl.probe_plan(task, now) {
                        Ok(plan) => {
                            let fit = (plan.est_completion, s);
                            best = Some(best.map_or(fit, |best| best.min(fit)));
                        }
                        Err(failure) => refused.push((s, failure.reason)),
                    }
                }
                if let Some((_, s)) = best {
                    let accepted = self.shards[s].ctl.submit(*task, now).is_accepted();
                    debug_assert!(accepted, "probe and submit run the same test");
                    return (Decision::Accepted, Some(s as u32));
                }
            }
        }
        for &(_, s) in order.iter().filter(|&&(_, s)| routable(self.skip, s)) {
            match self.shards[s].ctl.submit(*task, now) {
                Decision::Accepted => return (Decision::Accepted, Some(s as u32)),
                Decision::Rejected(cause) => refused.push((s, cause)),
            }
        }
        let cause = refused
            .first()
            .map_or(Infeasible::NotEnoughNodes, |&(_, cause)| cause);
        (Decision::Rejected(cause), None)
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

    /// The admission explanation of the refusal [`submit`](Self::submit)
    /// just gave (non-mutating on the engines), opened on its refusals.
    pub(crate) fn explain(
        &mut self,
        request: &SubmitRequest,
        now: SimTime,
    ) -> Option<AdmissionExplanation> {
        let fleet = explain_fleet(self.shards, self.refusals, &request.task, now, self.skip);
        fleet.map(|(explanation, _)| explanation)
    }
}

/// The cluster-level explanation for a request every shard `skip` leaves
/// refuses (a resubmission is masked from the others again), with the
/// deadline probes the race spent. Each shard opens a search on its own
/// walks in `refusals`, on its refusal there where that is in hand, and the
/// shard offering the *shortest* verified counterfactual deadline wins — a
/// resubmission relaxed to that deadline would be admitted by that shard,
/// so the suggestion stays honest across the fleet. Shards without a
/// feasible deadline lose to any shard with one, and the first shard wins a
/// tie; `None` when one of them does not refuse (feasible there as-is) or
/// none is left. Only the winner's search is finished (the σ and start
/// counterfactuals): the losers' would be thrown away.
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
fn explain_fleet(
    shards: &[Shard],
    refusals: &mut Refusals,
    task: &Task,
    now: SimTime,
    skip: &[bool],
) -> Option<(AdmissionExplanation, u64)> {
    let Refusals { causes, walks, .. } = refusals;
    walks.resize_with(shards.len(), ProbeWalks::default);
    let mut live = Vec::with_capacity(shards.len());
    let routed = shards.iter().zip(walks).enumerate();
    for (s, (shard, walks)) in routed.filter(|&(s, _)| routable(skip, s)) {
        let cause = causes
            .iter()
            .find_map(|&(tried, cause)| (tried == s).then_some(cause));
        // Feasible as-is on this shard: nothing to explain.
        live.push(ExplainSearch::open(&shard.ctl, walks, task, now, cause)?);
    }
    let mut probes = 0;
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
                probes += s.probes();
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
    let winner = (0..live.len()).min_by(|&a, &b| offer(&live[a]).total_cmp(&offer(&live[b])))?;
    let mut winner = live.swap_remove(winner);
    while winner.refine() {}
    probes += winner.probes() + live.iter().map(ExplainSearch::probes).sum::<u64>();
    Some((winner.finish(), probes))
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
    refusals: Refusals,
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
        let mut states = Vec::with_capacity(num_shards);
        for i in 0..num_shards {
            let size = base + usize::from(i < extra);
            let shard_params = ClusterParams::new(size, params.cms, params.cps)?;
            states.push(AdmissionController::new(shard_params, algorithm, cfg).state());
        }
        let book = ServiceBook::new(defer_policy, QuotaPolicy::default());
        Self::from_parts(params, algorithm, routing, 0, states, book)
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

    /// The cluster-level explanation for a request every shard its tenant
    /// may route to would refuse right now (`None` when one admits it as-is,
    /// or per-shard caps leave none) — the `Ops::Explain` query surface, on
    /// fresh walks. The shortest verified counterfactual deadline across
    /// those shards wins, the first shard on a tie.
    pub fn explain(&self, request: &SubmitRequest, now: SimTime) -> Option<AdmissionExplanation> {
        let skip = self.shard_throttle_mask(request.tenant, request.qos);
        let fresh = &mut Refusals::default();
        let fleet = explain_fleet(&self.shards, fresh, &request.task, now, &skip);
        fleet.map(|(explanation, _)| explanation)
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
    /// since the last call into `resolved` — the last step of a turn. What
    /// `resolved` held is spent: the two buffers swap.
    pub fn drain_resolutions(&mut self, resolved: &mut Vec<Resolution>) {
        resolved.clear();
        std::mem::swap(resolved, &mut self.book.resolutions);
    }

    /// Refills `due` with every waiting task due for dispatch at `now`,
    /// node ids global — the first step of a turn. Shard-major, controller
    /// order within each shard. The within-shard order is load-bearing: a
    /// shard's temp schedule commits nodes in policy order, and dispatching
    /// a successor before its predecessor would let it occupy a node the
    /// predecessor's plan still needs (shards never share nodes, so
    /// cross-shard order is free — keeping shard-major order is simply
    /// deterministic). What `due` holds on entry is spent, not kept (the
    /// turn contract in [`rtdls_sim::serve`]; [`Admission::take_due_into`]
    /// appends): each plan goes back to the shard whose nodes it names.
    pub fn refill_due(&mut self, now: SimTime, due: &mut Vec<(Task, TaskPlan)>) {
        for (_, plan) in due.drain(..) {
            let node = plan.nodes.first().map_or(0, |n| n.index());
            if let Some(shard) = self.shards.iter_mut().rfind(|s| s.offset <= node) {
                shard.ctl.recycle(plan);
            }
        }
        for shard in &mut self.shards {
            let from = due.len();
            shard.ctl.take_due_into(now, due);
            for node in due[from..].iter_mut().flat_map(|(_, plan)| &mut plan.nodes) {
                node.0 += shard.offset as u32;
            }
        }
        self.book.ledger.prune_dispatched(due);
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
            refusals: Refusals::default(),
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
        // The tenant's *waiting* tasks a shard, the queues joined against the
        // ledger: O(shards × queue), paid only when a cap is in force.
        let ledger = &self.book.ledger;
        let mine = |(task, _): &&(Task, TaskPlan)| ledger.tenant_of(task.id) == Some(tenant);
        let held = |shard: &Shard| shard.ctl.queue().iter().filter(mine).count() as u32;
        self.shards.iter().map(|shard| held(shard) >= cap).collect()
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
        let widest = self.widest_params;
        let (service, mut engine) = self.routed(&skip);
        let verdict = book::decide_request(service, &widest, algorithm, request, now, &mut engine);
        book::record_request(&mut self.book.metrics, start, request.tenant);
        verdict
    }

    /// Re-tests the defer queue against current capacity across all shards.
    pub fn retest_deferred(&mut self, now: SimTime) {
        let retest_timer = self.book.telemetry().timer();
        let (service, mut engine) = self.routed(NO_SKIP);
        let retest = |task: &Task| engine.submit(task, now).0.is_accepted();
        let (departed, retests) = service.defer.sweep(now, retest);
        service.telemetry().phase("gateway/retest", retest_timer);
        service.metrics.retests += retests;
        book::apply_departures(service, departed, now);
    }

    /// Activates every reservation whose `start_at` has been reached,
    /// routing each across shards like any submission. The engine drives
    /// this after the dispatches at each instant commit.
    pub fn activate_reservations(&mut self, now: SimTime) {
        let (algorithm, widest) = (self.algorithm, self.widest_params);
        let (service, mut engine) = self.routed(NO_SKIP);
        book::activate_due(service, &widest, algorithm, now, &mut engine);
    }

    /// The book, and the shards as its decision flow routes over them under
    /// the quota mask `skip`.
    fn routed<'a>(&'a mut self, skip: &'a [bool]) -> (&'a mut ServiceBook, RoutedShards<'a>) {
        let engine = RoutedShards {
            shards: &mut self.shards,
            routing: self.routing,
            cursor: &mut self.cursor,
            skip,
            refusals: &mut self.refusals,
        };
        (&mut self.book, engine)
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
    fn drive_into(&mut self, now: SimTime, turn: &mut Turn) {
        self.refill_due(now, &mut turn.dispatched);
        self.retest_deferred(now);
        self.activate_reservations(now);
        self.drain_resolutions(&mut turn.resolved);
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
        std::mem::take(&mut self.book.resolutions)
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

    /// Every waiting task due at `now`, into a fresh vector.
    fn take_due(g: &mut ShardedGateway, now: SimTime) -> Vec<(Task, TaskPlan)> {
        let mut due = Vec::new();
        g.refill_due(now, &mut due);
        due
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
        let due = take_due(&mut g, SimTime::ZERO);
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

    /// `refill_due` consumes what `due` holds rather than appending to it:
    /// the spent plans go back to their shard, and the next insertion there
    /// is planned into one of their buffers.
    #[test]
    fn refill_due_spends_what_due_holds() {
        let mut g = sharded(2, Routing::RoundRobin);
        let mut due = Vec::new();
        for i in 0..4 {
            assert!(submit(&mut g, Task::new(i, 0.0, 50.0, 1e6), SimTime::ZERO).is_accepted());
        }
        g.refill_due(SimTime::ZERO, &mut due);
        assert_eq!(due.len(), 4);
        let spent: Vec<_> = due.iter().map(|(_, plan)| plan.nodes.as_ptr()).collect();
        // Nothing new falls due: the spent entries go, none is kept.
        g.refill_due(SimTime::ZERO, &mut due);
        assert!(due.is_empty());
        let now = SimTime::new(1.0);
        assert!(submit(&mut g, Task::new(9, 1.0, 50.0, 1e6), now).is_accepted());
        let at = g.next_dispatch_due().expect("one waiting");
        g.refill_due(at, &mut due);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0.id, TaskId(9));
        assert!(
            spent.contains(&due[0].1.nodes.as_ptr()),
            "a recycled buffer"
        );
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
        take_due(&mut g, SimTime::ZERO);
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
        take_due(&mut g, SimTime::ZERO);
        assert!(g.submit_request(&mk(3), SimTime::ZERO).is_accepted());
    }

    #[test]
    fn a_tenant_at_a_shard_cap_is_explained_by_the_shards_it_may_route_to() {
        use crate::request::QuotaPolicy;
        // Tenant 3 holds a roomy task on shard 0 and is at its cap there;
        // tenant 9 fills shard 1 with a tight all-node task. Tenant 3's next
        // task only shard 0 could take, so it is refused on shard 1 and
        // parked. The explanation must name what shard 1 would take: a
        // resubmission is masked from shard 0 again.
        let p = ClusterParams::paper_baseline();
        let (e8, e4) = (
            homogeneous::exec_time(&p, 800.0, 8),
            homogeneous::exec_time(&p, 400.0, 8),
        );
        let mut g = sharded(2, Routing::LeastLoaded).with_quota(QuotaPolicy {
            max_shard_inflight: Some(1),
            ..Default::default()
        });
        g.book_mut().enable_explanations(true);
        let mine = |task| SubmitRequest::new(task).with_tenant(TenantId(3));
        let held = mine(Task::new(1, 0.0, 50.0, 1e6));
        assert!(g.submit_request(&held, SimTime::ZERO).is_accepted());
        let fill = SubmitRequest::new(Task::new(2, 0.0, 800.0, e8 * 1.05)).with_tenant(TenantId(9));
        assert!(g.submit_request(&fill, SimTime::ZERO).is_accepted());
        assert_eq!(g.shard_queue_lens(), vec![1, 1]);
        let task = Task::new(3, 0.0, 400.0, e4 * 1.5);
        assert!(g.shards[0].ctl.probe(&task, SimTime::ZERO).is_accepted());
        let verdict = g.submit_request(&mine(task), SimTime::ZERO);
        assert!(matches!(verdict, Verdict::Deferred { .. }), "{verdict:?}");
        let ex = verdict.explanation().expect("explained");
        assert!(ex.has_feasible_deadline());
        let relaxed = Task {
            rel_deadline: ex.min_feasible_deadline,
            ..task
        };
        assert!(g.shards[1].ctl.probe(&relaxed, SimTime::ZERO).is_accepted());
        // The ops query masks alike, and answers the same.
        assert_eq!(g.explain(&mine(task), SimTime::ZERO), Some(ex));
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
        assert_eq!(g.metrics().decision_latency().count(), 1);
        // The default envelope books the anonymous tenant.
        let t0 = g.metrics().tenants.get(TenantId(0)).unwrap();
        assert_eq!(t0.submitted, 1);
        assert_eq!(t0.accepted, 1);
        let t0_latency = g.metrics().tenant_latency(TenantId(0)).unwrap();
        assert_eq!(t0_latency.count(), 1);
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
        take_due(&mut g, SimTime::ZERO);
        let early = SimTime::new(e16 * 0.3);
        for node in 0..16 {
            g.node_released(node, early);
        }
        g.retest_deferred(early);
        assert_eq!(g.metrics().rescued, 1);
        assert!(g.deferred().is_empty());
        let mut resolutions = Vec::new();
        g.drain_resolutions(&mut resolutions);
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
        let due = take_due(&mut g, start_at);
        assert_eq!(due.len(), 1, "the waiting blocker dispatches");
        g.activate_reservations(start_at);
        assert_eq!(g.metrics().reservations_activated, 1);
        assert!(g.reservations().is_empty());
        assert_eq!(g.reservations().next_activation(), None);
        let mut resolutions = Vec::new();
        g.drain_resolutions(&mut resolutions);
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
        let mut refusals = Refusals::default();
        for request in &refused {
            // Every shard's search run to the end, then the documented
            // fold: a feasible deadline beats none, a strictly shorter one
            // wins, the first shard wins a tie. Each search opened on the
            // shard's refusal in hand is the one opened plain, one probe
            // fewer: the same bracket, the same finished explanation.
            let mut fold: Option<AdmissionExplanation> = None;
            let mut causes = Vec::new();
            for (s, shard) in g.shards.iter().enumerate() {
                let Decision::Rejected(cause) = shard.ctl.probe(&request.task, now) else {
                    panic!("refused everywhere");
                };
                causes.push((s, cause));
                let (mut plain, mut in_hand) = (ProbeWalks::default(), ProbeWalks::default());
                let task = &request.task;
                let mut search = ExplainSearch::open(&shard.ctl, &mut plain, task, now, None)
                    .expect("refused everywhere");
                let opened = ExplainSearch::open(&shard.ctl, &mut in_hand, task, now, Some(cause))
                    .expect("refused");
                assert_eq!(opened.deadline_bracket(), search.deadline_bracket());
                assert_eq!(opened.probes() + 1, search.probes());
                while search.refine() {}
                full_probes += search.probes();
                let ex = search.finish();
                assert_eq!(opened.finish(), ex);
                let better = fold.is_none_or(|cur| {
                    ex.has_feasible_deadline()
                        && (!cur.has_feasible_deadline()
                            || ex.min_feasible_deadline < cur.min_feasible_deadline)
                });
                if better {
                    fold = Some(ex);
                }
            }
            let mut race = |in_hand: &[(usize, Infeasible)]| {
                refusals.causes.clear();
                refusals.causes.extend_from_slice(in_hand);
                let fleet = explain_fleet(&g.shards, &mut refusals, &request.task, now, NO_SKIP);
                fleet.expect("refused everywhere")
            };
            let (plain_fold, plain) = race(&[]);
            let (in_hand_fold, in_hand) = race(&causes);
            assert_eq!(
                plain,
                in_hand + g.shards.len() as u64,
                "one probe fewer a shard"
            );
            raced_probes += plain;
            assert_eq!(Some(plain_fold), fold);
            assert_eq!(Some(in_hand_fold), fold);
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
    fn telemetry_times_the_reservation_search_and_the_defer_sweep() {
        // `gateway/reserve` is the start search alone: a verdict that never
        // reaches it (an acceptance) records none, a `Reserved` one does,
        // and its `Reserve` span carries the same reading.
        // `gateway/retest` is one entry per defer sweep.
        use rtdls_telemetry::{Stage, Telemetry};
        let phase = |telemetry: &Telemetry, path: &str| {
            telemetry
                .phases()
                .iter()
                .find(|p| p.path == path)
                .map_or((0, 0), |p| (p.count, p.total_ns))
        };
        let count = |telemetry: &Telemetry, path: &str| phase(telemetry, path).0;
        let mut g = single();
        let telemetry = Telemetry::with_defaults();
        g.attach_telemetry(&telemetry);
        let roomy = SubmitRequest::new(Task::new(1, 0.0, 100.0, 1e6)).with_max_delay(Some(2000.0));
        assert!(g.submit_request(&roomy, SimTime::ZERO).is_accepted());
        assert_eq!(count(&telemetry, "gateway/plan"), 1);
        assert_eq!(count(&telemetry, "gateway/reserve"), 0);

        let (mut g, c, _) = reservation_scenario();
        let telemetry = Telemetry::with_defaults();
        g.attach_telemetry(&telemetry);
        let req = SubmitRequest::new(c).with_max_delay(Some(2000.0));
        let verdict = g.submit_request(&req, SimTime::ZERO);
        assert!(matches!(verdict, Verdict::Reserved { .. }), "{verdict:?}");
        assert_eq!(count(&telemetry, "gateway/plan"), 1);
        assert_eq!(count(&telemetry, "gateway/reserve"), 1);
        let reserve_spans: Vec<u64> = telemetry
            .recent_spans(64)
            .iter()
            .filter(|s| s.stage == Stage::Reserve)
            .map(|s| s.duration_ns)
            .collect();
        assert_eq!(reserve_spans, vec![phase(&telemetry, "gateway/reserve").1]);
        assert_eq!(count(&telemetry, "gateway/retest"), 0);
        g.retest_deferred(SimTime::ZERO);
        assert_eq!(count(&telemetry, "gateway/retest"), 1);

        // What a sweep costs the engine: a parked ticket asked about again
        // with nothing changed around it (the task ahead of it dispatched as
        // planned, every node busy past the new instant) is refused from the
        // engine's memory, and counted.
        let e16 = homogeneous::exec_time(&ClusterParams::paper_baseline(), 800.0, 16);
        let mut g = single();
        assert!(submit(&mut g, Task::new(1, 0.0, 800.0, e16 * 1.05), SimTime::ZERO).is_accepted());
        let parked = submit(&mut g, Task::new(2, 0.0, 800.0, e16 * 1.5), SimTime::ZERO);
        assert!(matches!(parked, Verdict::Deferred { .. }), "{parked:?}");
        take_due(&mut g, SimTime::ZERO);
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
        take_due(&mut g, start_at);
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
        take_due(&mut g, SimTime::ZERO);
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
        take_due(&mut g, SimTime::new(1000.0));
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
        take_due(&mut g, SimTime::ZERO);
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
