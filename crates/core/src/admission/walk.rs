//! One step of the Fig. 2 temp schedule — the kernel every production walk
//! runs on.
//!
//! A walk takes tasks in policy order and plans each against the release
//! vector the tasks before it have built. A [`Walk`] holds that vector *and*
//! its sorted availability at the walk's planning instant, and offers the
//! three steps there are. Two plan a task fresh, on the planning kernel of
//! `strategy.rs` and into a scratch the walk keeps for all of its steps:
//! [`place`](Walk::place) copies the plan out (the engine's passes keep what
//! they plan; four vectors are allocated for it), [`test`](Walk::test)
//! wants the verdict only and allocates nothing (every probe of an
//! explanation, every instant of a reservation search). The third,
//! [`apply`](Walk::apply), takes a plan already known to be what `place`
//! would return (the engine's reuse cache). Whichever it is, the plan's
//! release estimates are written back — by the fresh steps straight from
//! the scratch, through the availability's head — and the walk moves on. A
//! run of cached plans may instead be taken at once, by a
//! [`rebase`](Walk::rebase) on the last one's recorded inputs (the lemma in
//! `incremental.rs` says when).
//!
//! Availability stays sorted *across* steps instead of being re-sorted per
//! step: a plan occupies exactly the `n` earliest entries, so after it only
//! that head has moved
//! ([`NodeAvailability::retime_head`](crate::strategy::NodeAvailability)).
//! The order is maintained lazily — first built when a task is planned
//! fresh, and a step's head is merged back only when a later step plans
//! again — so a walk that applies cached plans and plans one newcomer sorts
//! once, and a walk's last step is never merged at all. Re-sorting at every
//! step instead makes `admit_deep` 2.5× as slow (`BENCH_memo.json`).
//!
//! The oracle ([`schedulability_test`](super::schedulability_test),
//! [`ReferenceController`](super::reference::ReferenceController)) shares
//! nothing with this file but `plan_task`: it takes a fresh, fully sorted
//! snapshot at every step, and every plan it asks for comes back as a value
//! of its own.

use crate::params::{ClusterParams, NodeId};
use crate::strategy::{
    plan_into, NodeAvailability, NodeCountPolicy, PlanConfig, PlanScratch, Planned, StrategyKind,
    TaskPlan,
};
use crate::task::Task;
use crate::time::SimTime;

use super::AdmissionFailure;

/// The inputs a walk had built when it took a step: what that step's
/// outcome — and, through the steps after it, the rest of the walk — is a
/// pure function of (the reuse invariant in `incremental.rs`).
#[derive(Clone, Debug, Default, PartialEq)]
pub(super) struct PlanMeta {
    /// The planning instant of the walk.
    pub(super) planned_at: SimTime,
    /// The (pre-clamp) release vector the walk had built; length =
    /// `num_nodes`.
    pub(super) observed: Vec<SimTime>,
    /// `observed` is exactly that of the queue position ahead with its plan
    /// written (the lemma in `incremental.rs`); set true only by
    /// [`of`](Self::of).
    pub(super) follows: bool,
}

impl PlanMeta {
    /// The inputs a step of `walk` would plan on now, recorded for the
    /// queue position that step takes.
    pub(super) fn of(walk: &mut Walk) -> Self {
        let follows = walk.since_record == Some(1);
        walk.since_record = Some(0);
        PlanMeta {
            planned_at: walk.now,
            observed: walk.releases.clone(),
            follows,
        }
    }

    /// The walk's inputs into a kept buffer (no queue position's).
    pub(super) fn record(&mut self, walk: &Walk) {
        self.planned_at = walk.now;
        self.observed.clone_from(&walk.releases);
    }

    /// The reuse predicate: whether a step of `walk` now would plan on
    /// exactly these inputs — every node's availability equal after the
    /// clamp at each side's planning instant, and under
    /// [`NodeCountPolicy::OneShot`], which evaluates ñ_min at the raw
    /// instant, the instants equal too.
    pub(super) fn holds_for(&self, walk: &Walk, cfg: &PlanConfig) -> bool {
        if cfg.node_count == NodeCountPolicy::OneShot && self.planned_at != walk.now {
            return false;
        }
        self.observed.len() == walk.releases.len()
            && self
                .observed
                .iter()
                .zip(&walk.releases)
                .all(|(&o, &r)| o.max(self.planned_at) == r.max(walk.now))
    }
}

/// The state of one temp-schedule walk at one planning instant.
#[derive(Clone)]
pub(super) struct Walk {
    now: SimTime,
    /// Per-node release times as the walk has built them (index = node id,
    /// not clamped to `now`).
    releases: Vec<SimTime>,
    /// `releases` at `now` in availability order — meaningful only once
    /// `built`, and then up to date except for its `stale_head`.
    avail: NodeAvailability,
    built: bool,
    /// How many leading entries of `avail` the last step re-released
    /// without re-sorting them yet.
    stale_head: usize,
    /// Scratch for sorting a head.
    head: Vec<(SimTime, NodeId)>,
    /// Scratch a fresh step plans in: allocated by the walk's first fresh
    /// step, reused by every one after it.
    scratch: PlanScratch,
    /// `Some(n)`: `releases` is the vector last recorded from this walk
    /// ([`PlanMeta::of`]) with `n` plans written since.
    since_record: Option<u8>,
}

impl Walk {
    /// A walk starting from `releases` at the planning instant `now`.
    pub(super) fn new(releases: &[SimTime], now: SimTime) -> Self {
        Walk {
            now,
            releases: releases.to_vec(),
            avail: NodeAvailability::new(&[], now),
            built: false,
            stale_head: 0,
            head: Vec::new(),
            scratch: PlanScratch::default(),
            since_record: None,
        }
    }

    /// Starts over from `releases` at `now`, keeping the allocations.
    pub(super) fn restart(&mut self, releases: &[SimTime], now: SimTime) {
        self.now = now;
        self.releases.clear();
        self.releases.extend_from_slice(releases);
        self.built = false;
        self.stale_head = 0;
        self.since_record = None;
    }

    /// Stands the walk on `meta`'s recorded vector with `plan` written, for
    /// a caller that knows this clamps at `now` to what writing back the
    /// plans it skipped would have built (the lemma in `incremental.rs`).
    pub(super) fn rebase(&mut self, meta: &PlanMeta, plan: &TaskPlan) {
        self.releases.clone_from(&meta.observed);
        plan.write_releases(&mut self.releases);
        self.built = false;
        self.stale_head = 0;
        self.since_record = Some(1);
    }

    /// The walk's planning instant.
    #[inline]
    pub(super) fn now(&self) -> SimTime {
        self.now
    }

    /// Whether the walk keeps its availability sorted (it has planned).
    #[inline]
    pub(super) fn built(&self) -> bool {
        self.built
    }

    /// The release vector the steps so far have built.
    #[cfg(test)]
    pub(super) fn releases(&self) -> &[SimTime] {
        &self.releases
    }

    /// Brings the sorted availability up to date with `releases`.
    fn settle(&mut self) -> &NodeAvailability {
        if !self.built {
            self.avail.rebuild(&self.releases, self.now);
            self.built = true;
        } else if self.stale_head > 0 {
            self.avail
                .retime_head(self.stale_head, &self.releases, &mut self.head);
        }
        self.stale_head = 0;
        &self.avail
    }

    /// How many of the (settled) availability's earliest nodes `plan`
    /// starts on, in order.
    fn head_of(&self, plan: &TaskPlan) -> usize {
        plan.nodes
            .iter()
            .zip(self.avail.nodes())
            .take_while(|(a, b)| **a == *b)
            .count()
    }

    /// The fresh step both [`place`](Walk::place) and [`test`](Walk::test)
    /// take: plans `task` into the walk's scratch and writes its release
    /// estimates back, straight from there through the availability's head.
    fn plan(
        &mut self,
        strategy: StrategyKind,
        task: &Task,
        params: &ClusterParams,
        cfg: &PlanConfig,
    ) -> Result<Planned, AdmissionFailure> {
        self.settle();
        let planned = plan_into(strategy, task, &self.avail, params, cfg, &mut self.scratch)
            .map_err(|reason| AdmissionFailure {
                task: task.id,
                reason,
            })?;
        debug_assert!(
            !planned.est.definitely_after(task.absolute_deadline()),
            "strategy returned a plan missing its deadline"
        );
        // Planned on this availability, so on its earliest nodes.
        self.stale_head = planned.nodes;
        planned.write_releases(&self.avail, &self.scratch, &mut self.releases);
        self.since_record = self.since_record.map(|n| n.saturating_add(1));
        Ok(planned)
    }

    /// Plans `task` against the walk, writes its release estimates back and
    /// returns the plan, copied out of the scratch — the step of a walk that
    /// keeps what it plans (the engine's passes).
    pub(super) fn place(
        &mut self,
        strategy: StrategyKind,
        task: &Task,
        params: &ClusterParams,
        cfg: &PlanConfig,
    ) -> Result<TaskPlan, AdmissionFailure> {
        let planned = self.plan(strategy, task, params, cfg)?;
        // The head is merged back only by the next step's `settle`.
        Ok(planned.to_plan(task.id, &self.avail, &self.scratch))
    }

    /// [`place`](Walk::place) for a walk that wants the verdict only (every
    /// probe and search): the same step, the same releases written, no plan
    /// materialised and nothing allocated.
    pub(super) fn test(
        &mut self,
        strategy: StrategyKind,
        task: &Task,
        params: &ClusterParams,
        cfg: &PlanConfig,
    ) -> Result<(), AdmissionFailure> {
        self.plan(strategy, task, params, cfg).map(drop)
    }

    /// Takes `plan` as this step's plan: the caller has established that
    /// [`place`](Walk::place) would return exactly it (the engine's reuse
    /// gate holds), so only the write-back is left.
    #[inline]
    pub(super) fn apply(&mut self, plan: &TaskPlan) {
        if self.built {
            self.settle();
            // A plan occupies the earliest nodes, round after round for a
            // multi-round one. Anything else cannot come out of `plan_task`
            // on this availability; should it ever, sort afresh.
            let n = self.head_of(plan);
            let on_head = n > 0
                && plan.nodes[n..]
                    .chunks(n)
                    .all(|round| round == &plan.nodes[..round.len()]);
            debug_assert!(on_head, "applied plan is not on the earliest nodes");
            self.built = on_head;
            self.stale_head = n;
        }
        plan.write_releases(&mut self.releases);
        self.since_record = self.since_record.map(|n| n.saturating_add(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{plan_task, NodeCountPolicy, ReleaseEstimate};
    use proptest::prelude::*;

    const NODES: usize = 12;

    fn strategies() -> Vec<StrategyKind> {
        vec![
            StrategyKind::DltIit,
            StrategyKind::DltMultiRound { rounds: 3 },
            StrategyKind::OprMn,
            StrategyKind::OprAn,
            StrategyKind::UserSplit,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// After every step — kept, verdict-only or applied — the kernel's
        /// availability is entry for entry what a fresh sort of its releases
        /// gives, with release vectors on a coarse grid (ties, so the
        /// node-id tie-break decides), a clamp that swallows some of them,
        /// and plans that revisit their nodes (multi-round). A second walk
        /// takes every step verdict-only: it must fail where the first one
        /// fails, with the same failure, and otherwise leave bit for bit the
        /// same releases and the same availability behind.
        #[test]
        fn availability_stays_what_a_fresh_sort_builds(
            strategy in prop::sample::select(strategies()),
            estimate in prop::sample::select(vec![
                ReleaseEstimate::Exact,
                ReleaseEstimate::Uniform,
                ReleaseEstimate::TightPerNode,
            ]),
            node_count in prop::sample::select(vec![
                NodeCountPolicy::FixedPoint,
                NodeCountPolicy::OneShot,
            ]),
            releases in proptest::collection::vec(0u32..6, NODES),
            now in 0u32..4,
            tasks in proptest::collection::vec((0.0f64..1.0, 0u32..8, 1usize..NODES + 1, 0u8..2), 1..10),
        ) {
            // Transmission-heavy, so multi-round plans really are chosen.
            let params = ClusterParams::new(NODES, 8.0, 100.0).expect("valid params");
            let cfg = PlanConfig { release_estimate: estimate, node_count };
            let grid = 500.0;
            let releases: Vec<SimTime> =
                releases.iter().map(|&r| SimTime::new(r as f64 * grid)).collect();
            let now = SimTime::new(now as f64 * grid);
            let mut walk = Walk::new(&releases, now);
            let mut verdicts = Walk::new(&releases, now);
            for (id, (sigma, slack, user, fresh)) in tasks.into_iter().enumerate() {
                let task = Task::new(id as u64, 0.0, 20.0 + sigma * 300.0, 4_000.0 + slack as f64 * 6_000.0)
                    .with_user_nodes(Some(user));
                // What the literal walk would plan at this step.
                let literal = plan_task(
                    strategy, &task, &NodeAvailability::new(walk.releases(), now), &params, &cfg,
                ).map_err(|reason| AdmissionFailure { task: task.id, reason });
                let tested = verdicts.test(strategy, &task, &params, &cfg);
                prop_assert_eq!(tested.err(), literal.as_ref().err().copied());
                match (literal, fresh) {
                    (Ok(plan), 0) => walk.apply(&plan),
                    (literal, _) => {
                        let placed = walk.place(strategy, &task, &params, &cfg);
                        prop_assert_eq!(&placed, &literal);
                    }
                }
                let bits = |w: &Walk| w.releases().iter().map(|r| r.as_f64().to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&verdicts), bits(&walk));
                let expected = NodeAvailability::new(walk.releases(), now);
                for kept in [walk.settle(), verdicts.settle()] {
                    prop_assert!(kept.times().eq(expected.times()));
                    prop_assert!(kept.nodes().eq(expected.nodes()));
                }
            }
        }
    }

    /// Unreachable behind the reuse gate. Should it ever happen, a debug
    /// build raises the alarm and a release build re-sorts — never a wrong
    /// order.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "not on the earliest nodes"))]
    fn a_plan_off_the_head_falls_back_to_a_fresh_sort() {
        let params = ClusterParams::new(4, 1.0, 100.0).expect("valid params");
        let cfg = PlanConfig::default();
        let mut walk = Walk::new(&[SimTime::ZERO; 4], SimTime::ZERO);
        let task = Task::new(1, 0.0, 50.0, 1e6);
        let plan = walk
            .place(StrategyKind::DltIit, &task, &params, &cfg)
            .expect("feasible");
        // The same plan again, on nodes that are no longer the earliest.
        walk.apply(&plan);
        let expected = NodeAvailability::new(walk.releases(), SimTime::ZERO);
        let kept = walk.settle();
        assert!(kept.times().eq(expected.times()));
        assert!(kept.nodes().eq(expected.nodes()));
    }
}
