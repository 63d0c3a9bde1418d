//! One step of the Fig. 2 temp schedule — the kernel every production walk
//! runs on.
//!
//! A walk takes tasks in policy order and plans each against the release
//! vector the tasks before it have built. A [`Walk`] holds that vector *and*
//! its sorted availability at the walk's planning instant, and offers the
//! three steps there are. Two plan a task fresh, on the planning kernel of
//! `strategy.rs` and into a scratch the walk keeps for all of its steps:
//! [`keep`](Walk::keep) appends the plan to a [`Tail`] (the engine's passes
//! keep what they plan, end to end in one arena that allocates nothing once
//! warm, and install a new position into a spare plan, [`Spares`]),
//! [`test`](Walk::test) wants the verdict only (every probe of an
//! explanation, every instant of a reservation search). The third,
//! [`apply`](Walk::apply), takes a plan already known to be what `keep`
//! would plan (the engine's reuse cache; [`keep_cached`](Walk::keep_cached)
//! also appends it to a tail). Whichever it is, the plan's release estimates
//! are written back — by the fresh steps straight from the scratch, through
//! the availability's head — and the walk moves on. A run of cached plans
//! may instead be taken at once, by a [`rebase`](Walk::rebase) on the last
//! one's recorded inputs (the lemma in `incremental.rs` says when).
//!
//! Availability stays sorted *across* steps instead of being re-sorted per
//! step: a plan occupies exactly the `n` earliest entries, and only that
//! head moves, merged back from the end of a window sliding in a buffer of
//! twice the cluster
//! ([`NodeAvailability::retime_head`](crate::strategy::NodeAvailability)).
//! The order is built lazily, when a task is first planned fresh, and each
//! head merged back only when a later step plans again. From
//! [`SEED_MIN_NODES`] nodes on, a kept position records the order it was
//! planned on ([`PlanMeta::order`]), and a walk [`rebase`](Walk::rebase)d
//! there builds from that record instead of sorting
//! (`NodeAvailability::reseed`); sorts are left only on books no position
//! was planned on (the committed releases, a search instant's post-dispatch
//! book). On `admit_deep` (64 nodes) full sorts per decision fall 0.89 →
//! 0.44 and `retime_head` ≈ 790 → ≈ 560 TSC cycles a call, op_us 0.87×
//! (`BENCH_admit_deep.json`, `issue_37`). Smaller clusters (`edge_burst`'s
//! 8-node shards, `paper_sim`'s 16) record nothing: every kept position
//! would pay a copy of the order, to save sorts of a few hundred cycles.
//!
//! The oracle ([`schedulability_test`](super::schedulability_test), and the
//! `rtdls-check` engine built on it) shares
//! nothing with this file but `plan_task`: it takes a fresh, fully sorted
//! snapshot at every step, and every plan it asks for comes back as a value
//! of its own.

use std::ops::Range;

use crate::params::{ClusterParams, NodeId};
use crate::strategy::{
    plan_into, plan_on, NodeAvailability, NodeCountPolicy, PlanConfig, PlanScratch, Planned,
    StrategyKind, TaskPlan,
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
    /// [`Tail::install`], from the walk that kept the position.
    pub(super) follows: bool,
    /// The availability order (node ids) the position's plan was planned
    /// on, for a walk [`rebase`](Walk::rebase)d here to build from.
    /// Invariant: the plan occupies its head — the first `n` nodes, round
    /// after round. Empty where not recorded (below [`SEED_MIN_NODES`], and
    /// in any record but a kept position's).
    pub(super) order: Vec<NodeId>,
}

impl PlanMeta {
    /// The walk's inputs into a kept buffer.
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

/// A kept plan but for its chunks, which lie at `chunks` in its tail's
/// per-chunk vectors, and how its inputs were recorded.
#[derive(Clone, Debug)]
struct Head {
    task: Task,
    strategy: StrategyKind,
    est: SimTime,
    chunks: Range<usize>,
    /// The [`PlanMeta::follows`] of its inputs.
    follows: bool,
    /// Where its [`PlanMeta::order`] lies in its tail's `orders`.
    order: Range<usize>,
}

/// The replacement tail a pass plans — the queue positions from `from` to
/// the back, each with its plan and the inputs it was planned on — in one
/// arena the engine keeps from pass to pass.
///
/// The plans lie end to end: the per-chunk vectors of a [`TaskPlan`],
/// concatenated, and a [`Head`] a plan for the rest. The inputs are not a
/// vector a position: each position's is the one ahead's with that one's
/// plan written (the lemma's (i) in `incremental.rs`), so the tail keeps the
/// first position's and rebuilds the others from it.
#[derive(Clone, Debug, Default)]
pub(super) struct Tail {
    /// The queue position of the first plan.
    pub(super) from: usize,
    /// The first position's inputs (`follows` is each head's own).
    first: PlanMeta,
    heads: Vec<Head>,
    nodes: Vec<NodeId>,
    starts: Vec<SimTime>,
    fractions: Vec<f64>,
    releases: Vec<SimTime>,
    /// Every plan's availability order, end to end (none below
    /// [`SEED_MIN_NODES`]).
    orders: Vec<NodeId>,
}

impl Tail {
    /// Empties the tail, to start at queue position `from` where `walk`
    /// stands.
    pub(super) fn open(&mut self, from: usize, walk: &Walk) {
        self.from = from;
        self.first.record(walk);
        self.heads.clear();
        self.nodes.clear();
        self.starts.clear();
        self.fractions.clear();
        self.releases.clear();
        self.orders.clear();
    }

    /// The tail's tasks, in queue order.
    pub(super) fn tasks(&self) -> impl ExactSizeIterator<Item = &Task> {
        self.heads.iter().map(|head| &head.task)
    }

    /// Heads the chunks and the order appended since the last plan.
    fn push(&mut self, task: &Task, strategy: StrategyKind, est: SimTime, follows: bool) {
        let ends = self
            .heads
            .last()
            .map(|head| (head.chunks.end, head.order.end));
        let (chunks, order) = ends.unwrap_or_default();
        self.heads.push(Head {
            task: *task,
            strategy,
            est,
            chunks: chunks..self.nodes.len(),
            follows,
            order: order..self.orders.len(),
        });
    }

    /// Plan `j`'s release estimates into `releases` (index = node id).
    fn write_releases(&self, j: usize, releases: &mut [SimTime]) {
        for c in self.heads[j].chunks.clone() {
            releases[self.nodes[c].index()] = self.releases[c];
        }
    }

    /// The inputs queue position `at` was planned on, into a kept buffer.
    pub(super) fn inputs_at(&self, at: usize, inputs: &mut PlanMeta) {
        inputs.planned_at = self.first.planned_at;
        inputs.observed.clone_from(&self.first.observed);
        for ahead in 0..at - self.from {
            self.write_releases(ahead, &mut inputs.observed);
        }
    }

    /// Refills `plan` with plan `j`, through the buffers it has.
    pub(super) fn fill(&self, j: usize, plan: &mut TaskPlan) {
        let head = &self.heads[j];
        plan.task = head.task.id;
        plan.strategy = head.strategy;
        plan.est_completion = head.est;
        let c = head.chunks.clone();
        plan.nodes.clear();
        plan.nodes.extend_from_slice(&self.nodes[c.clone()]);
        plan.start_times.clear();
        plan.start_times.extend_from_slice(&self.starts[c.clone()]);
        plan.fractions.clear();
        plan.fractions.extend_from_slice(&self.fractions[c.clone()]);
        plan.node_release_estimates.clear();
        plan.node_release_estimates
            .extend_from_slice(&self.releases[c]);
    }

    /// Writes the tail over `queue` and its inputs over `meta` from position
    /// `from` on, in place: each position's plan and inputs are refilled
    /// through the buffers already there, and what the old queue held past
    /// the tail goes. Where the tail holds a task the old queue does not
    /// have next — the candidate — a position is inserted, into a spare
    /// plan and inputs where the pool has them: warm, nothing is allocated
    /// but for a buffer too small for its new plan.
    pub(super) fn install(
        &mut self,
        queue: &mut Vec<(Task, TaskPlan)>,
        meta: &mut Vec<Option<PlanMeta>>,
        spares: &mut Spares,
    ) {
        // Each position's inputs, rebuilt in the first's buffer.
        let mut observed = std::mem::take(&mut self.first.observed);
        for (j, head) in self.heads.iter().enumerate() {
            let q = self.from + j;
            if queue.get(q).is_none_or(|(task, _)| *task != head.task) {
                let mut plan = spares.plans.pop().unwrap_or_default();
                self.fill(j, &mut plan);
                queue.insert(q, (head.task, plan));
                meta.insert(q, spares.inputs.pop());
            } else {
                self.fill(j, &mut queue[q].1);
            }
            let inputs = meta[q].get_or_insert_with(PlanMeta::default);
            inputs.planned_at = self.first.planned_at;
            inputs.observed.clone_from(&observed);
            inputs.follows = head.follows;
            inputs.order.clear();
            inputs
                .order
                .extend_from_slice(&self.orders[head.order.clone()]);
            self.write_releases(j, &mut observed);
        }
        self.first.observed = observed;
        queue.truncate(self.from + self.heads.len());
        meta.truncate(self.from + self.heads.len());
    }
}

/// Spent plans and inputs, which [`Tail::install`] refills before it
/// allocates. Every entry left the engine's queue, so the pool holds at
/// most the queue's peak length (rounded up to its capacity).
#[derive(Clone, Debug, Default)]
pub(super) struct Spares {
    pub(super) plans: Vec<TaskPlan>,
    pub(super) inputs: Vec<PlanMeta>,
}

/// The cluster size from which walks record and build from orders (the
/// module docs' crossover).
pub(super) const SEED_MIN_NODES: usize = 32;

/// The state of one temp-schedule walk at one planning instant.
#[derive(Clone, Debug, Default)]
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
    /// ([`mark`](Walk::mark)) with `n` plans written since.
    since_record: Option<u8>,
    /// `Some((q, n))` while `releases` is what a [`rebase`](Walk::rebase)
    /// on position `q`, its plan on `n` nodes, left: the next build starts
    /// from `q`'s order.
    seed: Option<(usize, usize)>,
}

impl Walk {
    /// Starts over from `releases` at `now`, keeping the allocations.
    pub(super) fn restart(&mut self, releases: &[SimTime], now: SimTime) {
        self.now = now;
        self.releases.clear();
        self.releases.extend_from_slice(releases);
        self.built = false;
        self.stale_head = 0;
        self.since_record = None;
        self.seed = None;
    }

    /// Stands the walk on `meta`'s recorded vector with `plan` written —
    /// position `at`'s — for a caller that knows this clamps at `now` to
    /// what writing back the plans it skipped would have built (the lemma
    /// in `incremental.rs`; `meta` planned no later than `now`). No order is
    /// copied: a next fresh step builds from `at`'s in the book it is given.
    pub(super) fn rebase(&mut self, at: usize, meta: &PlanMeta, plan: &TaskPlan) {
        debug_assert!(meta.planned_at <= self.now, "a rebase on a later record");
        self.releases.clone_from(&meta.observed);
        plan.write_releases(&mut self.releases);
        self.built = false;
        self.stale_head = 0;
        self.since_record = Some(1);
        self.seed = (!meta.order.is_empty()).then(|| {
            let on_head = plan.nodes.iter().zip(&meta.order);
            (at, on_head.take_while(|(a, b)| a == b).count())
        });
    }

    /// Stands the walk where `stood` stands, keeping its own allocations:
    /// the scratches are not copied (a step writes them before reading).
    pub(super) fn copy_from(&mut self, stood: &Walk) {
        self.releases.clone_from(&stood.releases);
        self.avail.copy_from(&stood.avail);
        (self.now, self.built, self.stale_head) = (stood.now, stood.built, stood.stale_head);
        (self.since_record, self.seed) = (stood.since_record, stood.seed);
    }

    /// Records a queue position where the walk stands: whether its vector
    /// follows the position recorded last (one plan written since), and the
    /// count starts over.
    pub(super) fn mark(&mut self) -> bool {
        let follows = self.since_record == Some(1);
        self.since_record = Some(0);
        follows
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

    /// Brings the sorted availability up to date with `releases`: built
    /// from the seed's order in `book` (the queue's records) after a rebase,
    /// else sorted, and once built by merging back the stale head.
    pub(super) fn settle(&mut self, book: &[Option<PlanMeta>]) -> &NodeAvailability {
        if !self.built {
            let (releases, now) = (&self.releases, self.now);
            let seed = self.seed.take();
            match seed.and_then(|(q, n)| Some((&book.get(q)?.as_ref()?.order, n))) {
                Some((order, n)) => {
                    self.avail.reseed(order, n, releases, now, &mut self.head);
                    let sorted = || NodeAvailability::new(releases, now);
                    debug_assert!(
                        self.avail.nodes().eq(sorted().nodes()),
                        "a seeded snapshot is not what a fresh sort builds"
                    );
                }
                None => self.avail.rebuild(releases, now),
            }
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

    /// The fresh step, verdict-only (every search, and a probe's walk
    /// behind) and the first half of [`keep`](Walk::keep)'s: plans `task`
    /// into the walk's scratch and writes its release estimates back, from
    /// there through the availability's head — no plan kept, nothing
    /// allocated. `book` is the queue's records, which a rebase seeds from.
    pub(super) fn test(
        &mut self,
        strategy: StrategyKind,
        task: &Task,
        params: &ClusterParams,
        cfg: &PlanConfig,
        book: &[Option<PlanMeta>],
    ) -> Result<Planned, AdmissionFailure> {
        self.settle(book);
        let planned = plan_into(strategy, task, &self.avail, params, cfg, &mut self.scratch)
            .map_err(AdmissionFailure::of(task))?;
        Ok(self.write_back(planned))
    }

    /// [`test`](Walk::test) on the settled availability's `n` earliest
    /// nodes, its deadline unread (a probe's record checks it, `explain.rs`).
    pub(super) fn place(
        &mut self,
        strategy: StrategyKind,
        n: usize,
        task: &Task,
        params: &ClusterParams,
        cfg: &PlanConfig,
    ) -> Planned {
        let (avail, scratch) = (&self.avail, &mut self.scratch);
        let planned = plan_on(strategy, n, task, avail, params, cfg, scratch);
        self.write_back(planned)
    }

    /// Writes the plan just planned back, from the scratch.
    fn write_back(&mut self, planned: Planned) -> Planned {
        // Planned on this availability, so on its earliest nodes.
        self.stale_head = planned.nodes;
        planned.write_releases(&self.avail, &self.scratch, &mut self.releases);
        self.since_record = self.since_record.map(|n| n.saturating_add(1));
        planned
    }

    /// Records the position, plans `task` against the walk, writes its
    /// release estimates back and appends the plan to `tail`, copied from the
    /// scratch, with the order it was planned on — the step of a walk that
    /// keeps what it plans (the engine's passes).
    pub(super) fn keep(
        &mut self,
        strategy: StrategyKind,
        task: &Task,
        params: &ClusterParams,
        cfg: &PlanConfig,
        book: &[Option<PlanMeta>],
        tail: &mut Tail,
    ) -> Result<(), AdmissionFailure> {
        let follows = self.mark();
        let planned = self.test(strategy, task, params, cfg, book)?;
        // The head is merged back only by the next step's `settle`: the
        // plan's nodes are still the availability's earliest.
        self.record_order(tail);
        let (starts, fractions, releases) = self.scratch.chunks();
        tail.nodes.extend(planned.chunk_nodes(&self.avail));
        tail.starts.extend_from_slice(starts);
        tail.fractions.extend_from_slice(fractions);
        tail.releases.extend_from_slice(releases);
        tail.push(task, planned.strategy, planned.est, follows);
        Ok(())
    }

    /// Appends to `tail` the order the step just taken was planned on, its
    /// plan still on the head, where the walk keeps one and records.
    fn record_order(&self, tail: &mut Tail) {
        if self.built && self.releases.len() >= SEED_MIN_NODES {
            tail.orders.extend(self.avail.nodes());
        }
    }

    /// Takes `plan` as this step's plan: the caller has established that
    /// [`keep`](Walk::keep) would plan exactly it (the engine's reuse gate
    /// holds), so only the write-back is left.
    #[inline]
    pub(super) fn apply(&mut self, plan: &TaskPlan) {
        // The vector no longer is what a rebase left.
        self.seed = None;
        if self.built {
            self.settle(&[]);
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

    /// Records the position, [`apply`](Walk::apply)s `plan` and appends it to
    /// `tail` with the order it is applied on — a cached plan kept behind a
    /// change.
    pub(super) fn keep_cached(&mut self, task: &Task, plan: &TaskPlan, tail: &mut Tail) {
        let follows = self.mark();
        self.apply(plan);
        self.record_order(tail);
        tail.nodes.extend_from_slice(&plan.nodes);
        tail.starts.extend_from_slice(&plan.start_times);
        tail.fractions.extend_from_slice(&plan.fractions);
        tail.releases
            .extend_from_slice(&plan.node_release_estimates);
        tail.push(task, plan.strategy, plan.est_completion, follows);
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::strategy::{plan_task, NodeCountPolicy, ReleaseEstimate};
    use proptest::prelude::*;

    impl Walk {
        /// The release vector the steps so far have built.
        fn releases(&self) -> &[SimTime] {
            &self.releases
        }
    }

    /// Plan `j` of `tail` as a value of its own.
    fn plan_of(tail: &Tail, j: usize) -> TaskPlan {
        let mut plan = TaskPlan::default();
        tail.fill(j, &mut plan);
        plan
    }

    /// A walk starting from `releases` at the planning instant `now`.
    pub(in crate::admission) fn walk_at(releases: &[SimTime], now: SimTime) -> Walk {
        let mut walk = Walk::default();
        walk.restart(releases, now);
        walk
    }

    /// A cluster below the crossover, and one above it.
    const SMALL: usize = 12;
    const LARGE: usize = SEED_MIN_NODES + 8;

    fn strategies() -> Vec<StrategyKind> {
        vec![
            StrategyKind::DltIit,
            StrategyKind::DltMultiRound { rounds: 3 },
            StrategyKind::OprMn,
            StrategyKind::OprAn,
            StrategyKind::UserSplit,
        ]
    }

    /// Whether `walk`'s settled availability is entry for entry what a fresh
    /// sort of its releases gives.
    fn sorted_afresh(walk: &mut Walk, book: &[Option<PlanMeta>]) -> bool {
        let expected = NodeAvailability::new(walk.releases(), walk.now());
        let kept = walk.settle(book);
        kept.times().eq(expected.times()) && kept.nodes().eq(expected.nodes())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// After every step — kept, verdict-only or applied — the kernel's
        /// availability is entry for entry what a fresh sort of its releases
        /// gives, with release vectors on a coarse grid (ties, so the
        /// node-id tie-break decides), a clamp that swallows some of them,
        /// plans that revisit their nodes (multi-round), and enough steps to
        /// slide the availability's window past the end of its buffer. A kept
        /// step's plan, read back from the tail, is the one `plan_task`
        /// returns. A second walk takes every step verdict-only: it must fail
        /// where the first one fails, with the same failure, and otherwise
        /// leave bit for bit the same releases and the same availability
        /// behind. The tail, installed, is every plan kept or applied, each
        /// on the vector it was planned on and — on the large cluster, from
        /// the first fresh step on — with the order it was planned on, its
        /// plan on the head. Last, a walk rebased on one installed position
        /// at a later instant, where the clamp lifts entries, plans the tasks
        /// again from there: its first snapshot is built from the recorded
        /// order, and every snapshot is still a fresh sort's.
        #[test]
        fn availability_stays_what_a_fresh_sort_builds(
            nodes in prop::sample::select(vec![SMALL, LARGE]),
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
            releases in proptest::collection::vec(0u32..6, LARGE),
            now in 0u32..4,
            tasks in proptest::collection::vec((0.0f64..1.0, 0u32..8, 0.0f64..1.0, 0u8..2), 1..24),
            (pick, later) in (0.0f64..1.0, 0u32..4),
        ) {
            // Transmission-heavy, so multi-round plans really are chosen.
            let params = ClusterParams::new(nodes, 8.0, 100.0).expect("valid params");
            let cfg = PlanConfig { release_estimate: estimate, node_count };
            let grid = 500.0;
            let releases: Vec<SimTime> =
                releases[..nodes].iter().map(|&r| SimTime::new(r as f64 * grid)).collect();
            let now = SimTime::new(now as f64 * grid);
            let tasks: Vec<(Task, u8)> = tasks
                .into_iter()
                .enumerate()
                .map(|(id, (sigma, slack, user, fresh))| {
                    let user = 1 + (user * nodes as f64) as usize % nodes;
                    let task = Task::new(id as u64, 0.0, 20.0 + sigma * 300.0, 4_000.0 + slack as f64 * 6_000.0)
                        .with_user_nodes(Some(user));
                    (task, fresh)
                })
                .collect();
            let mut walk = walk_at(&releases, now);
            let mut verdicts = walk_at(&releases, now);
            let (mut tail, mut kept) = (Tail::default(), Vec::new());
            tail.open(0, &walk);
            for &(task, fresh) in &tasks {
                // What the literal walk would plan at this step.
                let literal = plan_task(
                    strategy, &task, &NodeAvailability::new(walk.releases(), now), &params, &cfg,
                ).map_err(|reason| AdmissionFailure { task: task.id, reason });
                let tested = verdicts.test(strategy, &task, &params, &cfg, &[]);
                prop_assert_eq!(tested.err(), literal.as_ref().err().copied());
                let observed = walk.releases().to_vec();
                // An order is recorded where the walk keeps one: from its
                // first fresh step or its first settle on.
                let ordered = nodes >= SEED_MIN_NODES && (walk.built() || fresh != 0);
                match (literal, fresh) {
                    (Ok(plan), 0) => {
                        walk.keep_cached(&task, &plan, &mut tail);
                        kept.push((plan, observed, ordered));
                    }
                    (literal, _) => {
                        let placed = walk
                            .keep(strategy, &task, &params, &cfg, &[], &mut tail)
                            .map(|()| plan_of(&tail, tail.tasks().len() - 1));
                        prop_assert_eq!(&placed, &literal);
                        if let Ok(plan) = placed {
                            kept.push((plan, observed, ordered));
                        }
                    }
                }
                let bits = |w: &Walk| w.releases().iter().map(|r| r.as_f64().to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&verdicts), bits(&walk));
                prop_assert!(sorted_afresh(&mut walk, &[]));
                prop_assert!(sorted_afresh(&mut verdicts, &[]));
            }
            let (mut queue, mut meta) = (Vec::new(), Vec::new());
            tail.install(&mut queue, &mut meta, &mut Spares::default());
            prop_assert_eq!(queue.len(), kept.len());
            for (((_, installed), inputs), (plan, observed, ordered)) in queue.iter().zip(&meta).zip(&kept) {
                prop_assert_eq!(installed, plan);
                let inputs = inputs.as_ref().expect("installed inputs");
                prop_assert_eq!(&inputs.observed, observed);
                if *ordered {
                    let order = NodeAvailability::new(observed, now);
                    prop_assert!(order.nodes().eq(inputs.order.iter().copied()));
                    // The plan on the head, round after round.
                    let on = inputs.order.iter().zip(&installed.nodes);
                    let n = on.take_while(|(a, b)| a == b).count();
                    prop_assert!(n > 0);
                    prop_assert!(installed.nodes.chunks(n).all(|round| round == &installed.nodes[..round.len()]));
                } else {
                    prop_assert!(inputs.order.is_empty());
                }
            }
            // The rebase, and the tasks planned again from there.
            if queue.is_empty() {
                return;
            }
            let p = (pick * queue.len() as f64) as usize;
            let later = SimTime::new(now.as_f64() + later as f64 * grid);
            let mut rebased = walk_at(&releases, later);
            rebased.rebase(p, meta[p].as_ref().expect("installed inputs"), &queue[p].1);
            let mut expected = kept[p].1.clone();
            queue[p].1.write_releases(&mut expected);
            prop_assert_eq!(rebased.releases(), &expected[..]);
            for (task, _) in &tasks {
                let literal = plan_task(
                    strategy, task, &NodeAvailability::new(rebased.releases(), later), &params, &cfg,
                ).map_err(|reason| AdmissionFailure { task: task.id, reason });
                let tested = rebased.test(strategy, task, &params, &cfg, &meta);
                prop_assert_eq!(tested.err(), literal.err());
                prop_assert!(sorted_afresh(&mut rebased, &meta));
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
        let mut walk = walk_at(&[SimTime::ZERO; 4], SimTime::ZERO);
        let mut tail = Tail::default();
        let task = Task::new(1, 0.0, 50.0, 1e6);
        walk.keep(StrategyKind::DltIit, &task, &params, &cfg, &[], &mut tail)
            .expect("feasible");
        // The same plan again, on nodes that are no longer the earliest.
        walk.apply(&plan_of(&tail, 0));
        assert!(sorted_afresh(&mut walk, &[]));
    }
}
