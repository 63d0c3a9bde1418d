//! The production admission engine: incremental (diff-based) maintenance
//! of the Fig. 2 temp schedule.
//!
//! A literal reading of Fig. 2 re-plans the whole waiting queue on every
//! arrival — `O(queue)` planning calls per event, the dominant cost at
//! gateway scale (that literal reading is kept as the test oracle,
//! [`ReferenceController`](super::reference::ReferenceController)).
//! [`AdmissionController`] keeps, for every waiting task, the exact
//! planning inputs its current plan was derived from, and on each event
//! re-plans only the tasks whose inputs actually changed.
//!
//! ## The reuse invariant
//!
//! A queued plan was produced by `plan_task(strategy, task, avail, params,
//! cfg)` where `avail` is fully determined by the release vector `R` the
//! temp-schedule walk had built up to that task's policy position, clamped
//! at the planning instant `t₀`: the availability entries are
//! `max(R[j], t₀)`. `plan_task` is a pure function, so the cached plan is
//! *exactly* what a fresh full replan at `now` would produce whenever
//!
//! ```text
//! ∀ j:  max(observed[j], t₀) == max(R'[j], now)
//! ```
//!
//! where `observed` is the release vector the cached plan saw and `R'` is
//! the vector the current walk has built. (Under
//! [`NodeCountPolicy::OneShot`] the planning instant additionally enters
//! the node-count bound directly, so reuse there also requires `t₀ ==
//! now`.) The walk applies each reused plan's release updates and keeps
//! going; the first position where the gate fails is re-planned — which is
//! the *fallback to a full replan* for that task and, transitively, for any
//! successor whose inputs its new plan perturbs.
//!
//! In the steady gateway regime — deep queue, every node committed into the
//! future, newcomers inserting near the back of the EDF order — the gate
//! holds for the whole prefix and a submission costs **one** planning call
//! instead of `queue + 1`. Whenever history shifts under the queue (an
//! early node release via `set_node_release`, a dispatch that commits
//! different nodes, a recovery restore with a cold cache), the gate fails
//! and the engine transparently degrades to a full replan. With no plan
//! reused, `admit_deep` runs 2.8× as long (`BENCH_memo.json`).
//!
//! ### The prefix, by proof
//!
//! Nor need the gate be *compared* all along that prefix. A position's
//! `PlanMeta` *follows* when its `observed` is exactly the position ahead's
//! with that one's plan written: a pass records so for every position of
//! the tail it installs that the walk reached straight from the one ahead
//! (`Walk::mark`; reused positions behind a change are re-recorded, not
//! cloned), and `take_due` and `remove_waiting` unchain what they close up
//! behind. The same fact is why a tail's inputs are
//! stored as its first position's vector plus its plans (`walk.rs`,
//! `Tail`): each next vector is the last with one plan written.
//!
//! **Lemma.** If the gate holds at `q − 1` for a walk on `R` at `now` that
//! then writes plan `q − 1`, it holds at `q` when (i) `follows[q]`, (ii)
//! `t[q−1] ≤ t[q] ≤ now` (the recorded instants), (iii) plan `q − 1` has
//! no release estimate before `now` or `t[q] = now`, and (iv) under
//! `OneShot`, `t[q] = now` — which (ii) gives once the gate at `q − 1`
//! held. *Proof.* Where the plan leaves node `j` alone, `observed` holds `o`
//! and the walk `r`: `max(o, t[q]) = max(max(o, t[q−1]), t[q]) = max(max(r,
//! now), t[q]) = max(r, now)` by (ii) and the gate at `q − 1`. Where it
//! writes, both hold its estimate `e`, and `max(e, t[q]) = max(e, now)` by
//! (ii) and (iii). ∎
//!
//! So `AdmissionController::held_run` compares a gate only where the chain
//! cannot vouch — first in its run, behind a position skipped, planned or
//! not followed, or a condition unmet — and elsewhere reads plan `q − 1`'s
//! chunks, not the cluster. On a walk that has not planned yet it writes no
//! reused plan back either: at a held position with `t ≤ now`, `observed`
//! clamps at `now` to the walk's own vector, which is all a plan reads, so
//! the walk is rebased once on the run's last record (`Walk::rebase`) where
//! it next plans or compares — and the next position recorded follows.
//! Every walk over waiting positions takes it: a pass up to the candidate,
//! the searches everywhere (`walk_positions`, `probe.rs`). A debug build
//! holds every gate and every rebase against a walk that writes each plan
//! back. Comparing every gate instead costs `admit_deep` 23 %
//! (`BENCH_memo.json`).
//!
//! The invariant does not care *why* the walk's vector is what it is: the
//! reservation search walks the book as it will stand at each later
//! dispatch instant `t` ([`Admission::earliest_start_after`]), and a
//! dispatch commits exactly the releases the plans behind it observed
//! ([`take_due`](Admission::take_due)), so with every node busy past `t`
//! the gate holds there too — and fails where the clamp at `t` or an
//! out-of-order dispatch moved an input.
//!
//! ### Verdicts, by the same argument
//!
//! A refusal is as reusable as a plan. Once a walk stands at the candidate's
//! insertion point, what is left of it — the candidate's plan, then the
//! waiting tasks behind it in order, each planned (or its cached plan taken,
//! which is the same plan) against what the steps before it wrote — is a
//! chain of pure functions of three things: the vector the walk has built so
//! far *as the planner sees it* (clamped at the planning instant, plus the
//! instant itself under `OneShot`: exactly what the plan gate compares), the
//! candidate, and those tasks. If the chain failed once, it fails again, on
//! the same task with the same reason, whenever all three are equal. So
//! `submit` remembers each refusal it hands out (a small ring, one slot a
//! task id): the candidate whole, the walk's inputs at the insertion point, the
//! waiting tasks from there *up to and including the one whose plan failed*,
//! and the [`AdmissionFailure`]; and every pass that brings a candidate to
//! its insertion point looks there first. A hit returns the remembered
//! failure and plans nothing — the defer queue's re-tests of a ticket whose
//! neighbourhood has not moved.
//!
//! `behind` stops at the failing task because the walk did: nothing past it
//! was ever looked at, so nothing past it can change the answer, and an
//! arrival or a removal back there leaves the memory valid. Anything ahead
//! of the failure does count — an arrival accepted ahead of the candidate
//! moves the vector, one between it and the failure changes `behind`, a
//! dispatch or an early release moves the vector unless the clamp hides it —
//! and fails the comparison; the pass then simply walks on. An *acceptance*
//! is never remembered: it is installed, the book changes under it, and the
//! same task is not asked about again. The ring is derived state like the
//! plan cache — not in [`ControllerState`], cold after `from_state` — and in
//! debug builds every hit is checked against the literal
//! [`schedulability_test`] on the spot. (The reservation search skips an
//! instant that would repeat the last one's failure by the same argument,
//! `probe.rs`.)
//!
//! Because reuse is gated on provable input equality, the engine is
//! decision-, plan-, and state-identical to the reference controller; the
//! differential oracle suite (`tests/differential_admission.rs`) replays
//! randomized scenarios through both and asserts exact equality after every
//! operation, including across a cold-cache restore.
//!
//! [`NodeCountPolicy::OneShot`]: crate::strategy::NodeCountPolicy::OneShot

use std::convert::Infallible;
use std::ops::Range;

use crate::algorithm::AlgorithmKind;
use crate::error::{Infeasible, ModelError};
use crate::params::ClusterParams;
use crate::request::SubmitRequest;
use crate::strategy::{PlanConfig, TaskPlan};
use crate::task::{Task, TaskId};
use crate::time::SimTime;

use super::walk::{PlanMeta, Tail, Walk};
use super::{
    schedulability_test, Admission, AdmissionExplanation, AdmissionFailure, ControllerState,
    Decision, EngineProfile, ExplainSearch,
};

/// How many refusals the engine remembers. The askers that come back are
/// the service layer's parked tickets — the defer queue re-submits each of
/// them on every event until it expires — and a deep, overloaded shard holds
/// a handful of those at a time. Eight covers that with room, and keeps the
/// per-candidate lookup a scan of one cache line of ids. Without the ring
/// `admit_deep` runs 21 % slower (`BENCH_memo.json`).
const REFUSALS_KEPT: usize = 8;

/// A refusal `submit` handed out, with everything the walk did from the
/// candidate's insertion point on — the verdict half of the reuse invariant.
#[derive(Clone, Debug)]
struct Refusal {
    /// The candidate, whole.
    task: Task,
    /// The walk's inputs where the candidate was inserted.
    inputs: PlanMeta,
    /// The waiting tasks the walk took after the candidate, in order, up to
    /// and including the one whose plan failed (empty: the candidate's own).
    behind: Vec<Task>,
    failure: AdmissionFailure,
}

/// The engine's memory of refusals: derived state like the plan cache,
/// validated against the walk at every use, cold after a restore.
#[derive(Clone, Debug, Default)]
struct Refusals {
    /// The ids of the tasks in `kept`, slot for slot: what every candidate
    /// is looked up in, one cache line whatever the refusals hold.
    ids: Vec<TaskId>,
    /// The last refusals handed out, at most [`REFUSALS_KEPT`], one per
    /// task id.
    kept: Vec<Refusal>,
    /// The slot the next newly refused id replaces once `kept` is full.
    oldest: usize,
}

impl Refusals {
    fn slot_of(&self, id: TaskId) -> Option<usize> {
        self.ids.iter().position(|&kept| kept == id)
    }
}

/// A pass that ended in a refusal.
struct Refused {
    failure: AdmissionFailure,
    /// What `submit` remembers the refusal by, when the pass planned the
    /// candidate: the queue positions the walk took behind it, up to and
    /// including the one whose plan failed (empty: the candidate's own).
    /// The walk's inputs where the candidate went in are its tail's there.
    /// `None` when the pass stopped ahead of the candidate or was answered
    /// from the ring.
    walked: Option<Range<usize>>,
}

/// One pass's working state, which the engine keeps from pass to pass so
/// that no buffer of it regrows: the walk, and the replacement tail it plans
/// into one arena — every queue position from `tail.from` on, the
/// candidate's included. The positions ahead of it stay as they are, not
/// even cloned; `Tail::install` writes the tail over the rest in place (the
/// one way a pass changes the book), and a refused pass touches nothing of
/// the book. Derived state like the plan cache: not in [`ControllerState`],
/// cold after `from_state`.
#[derive(Clone, Debug, Default)]
struct Pass {
    walk: Walk,
    tail: Tail,
}

/// The head node's admission engine, with incremental temp-schedule
/// maintenance. Observably identical to the literal Fig. 2 replan
/// ([`ReferenceController`](super::reference::ReferenceController)) — same
/// decisions, plans, releases, and serialized state for every call
/// sequence — but `O(changed tasks)` planning calls per event instead of
/// `O(queue)`.
#[derive(Clone, Debug)]
pub struct AdmissionController {
    params: ClusterParams,
    algorithm: AlgorithmKind,
    cfg: PlanConfig,
    /// Per-node release time of committed (dispatched) work.
    releases: Vec<SimTime>,
    /// Waiting tasks with their current plans, in policy order.
    queue: Vec<(Task, TaskPlan)>,
    /// Parallel to `queue`: the cached planning inputs. `None` means the
    /// plan must be recomputed before it can be trusted (cold cache, e.g.
    /// right after `from_state`).
    meta: Vec<Option<PlanMeta>>,
    refusals: Refusals,
    profile: EngineProfile,
    /// The last pass's working state, boxed so that the engine stays small
    /// to move; `None` while a pass has it, or cold.
    kept: Option<Box<Pass>>,
}

impl AdmissionController {
    /// Reuse counters accumulated by the mutating operations so far —
    /// including the work done by passes that ended in a rejection, so the
    /// reuse rate honestly reflects rejection-heavy streams. Probes are
    /// non-mutating and not counted.
    pub fn profile(&self) -> EngineProfile {
        self.profile
    }

    /// Whether the cached plan of waiting position `q` is provably what a
    /// fresh plan at `walk`'s next step would produce, by comparison.
    fn reusable(&self, q: usize, walk: &Walk, work: &mut EngineProfile) -> bool {
        self.meta[q].as_ref().is_some_and(|m| {
            work.gates_compared += 1;
            m.holds_for(walk, &self.cfg)
        })
    }

    /// Steps the waiting positions in `range` that `skip` does not drop:
    /// where the reuse gate holds — proved or compared, the module docs'
    /// prefix walk — the cached plan is taken; where it fails, `fresh` steps
    /// the task and says whether to go on. Returns where it stopped: the
    /// range's end, or the position `fresh` stopped at, not stepped.
    pub(super) fn held_run<E>(
        &self,
        walk: &mut Walk,
        range: Range<usize>,
        skip: impl Fn(usize) -> bool,
        work: &mut EngineProfile,
        mut fresh: impl FnMut(&Task, &mut Walk) -> Result<bool, E>,
    ) -> Result<usize, E> {
        let (now, end, defer) = (walk.now(), range.end, !walk.built());
        // The last position stepped while its gate held (index, inputs,
        // plan), and whether its plan is still to be written into the walk,
        // with the run's ahead of it.
        let mut last: Option<(usize, &PlanMeta, &TaskPlan)> = None;
        let mut pending = false;
        // The debug build's cross-check: a walk that writes every plan back.
        let mut literal = cfg!(debug_assertions).then(|| walk.clone());
        let unmoved = |walk: &Walk, literal: &Walk| {
            let mut here = PlanMeta::default();
            here.record(walk);
            let moved = !here.holds_for(literal, &self.cfg);
            assert!(!moved, "a rebase moved the walk");
        };
        for q in range.filter(|&q| !skip(q)) {
            let ((task, plan), meta) = (&self.queue[q], self.meta[q].as_ref());
            // The lemma's (i)–(iii), the gate ahead having held.
            let proven = meta.zip(last).is_some_and(|(meta, (p, prev, ahead))| {
                let t = meta.planned_at;
                p + 1 == q
                    && meta.follows
                    && prev.planned_at <= t
                    && t <= now
                    && (t == now || ahead.node_release_estimates.iter().all(|&e| e >= now))
            });
            if !proven {
                if let (true, Some((_, prev, ahead))) = (std::mem::take(&mut pending), last) {
                    walk.rebase(prev, ahead);
                }
                work.gates_compared += u64::from(meta.is_some());
            }
            let held = meta.filter(|m| proven || m.holds_for(walk, &self.cfg));
            if let Some(literal) = &mut literal {
                let literally = meta.is_some_and(|m| m.holds_for(literal, &self.cfg));
                assert_eq!(literally, held.is_some(), "gate {q} misjudged");
            }
            if let Some(meta) = held {
                work.plans_reused += 1;
                last = Some((q, meta, plan));
                // Where `observed` clamps at `now` to the walk's vector.
                pending = defer && meta.planned_at <= now;
                if !pending {
                    walk.apply(plan);
                }
                if let Some(literal) = &mut literal {
                    literal.apply(plan);
                }
                continue;
            }
            last = None;
            if let Some(literal) = &literal {
                unmoved(walk, literal);
            }
            if !fresh(task, walk)? {
                return Ok(q);
            }
            if let Some(literal) = &mut literal {
                literal.clone_from(walk);
            }
        }
        if let (true, Some((_, prev, ahead))) = (pending, last) {
            walk.rebase(prev, ahead);
        }
        if let Some(literal) = &literal {
            unmoved(walk, literal);
        }
        Ok(end)
    }

    /// The waiting positions in `range` that `skip` does not drop,
    /// verdict-only: [`held_run`](Self::held_run), each position whose gate
    /// fails planned for its verdict.
    pub(super) fn walk_positions(
        &self,
        walk: &mut Walk,
        range: Range<usize>,
        skip: impl Fn(usize) -> bool,
    ) -> Result<(), AdmissionFailure> {
        let test = |task: &Task, walk: &mut Walk| self.test(task, walk).map(|()| true);
        let mut uncounted = EngineProfile::default();
        let walked = self.held_run(walk, range, skip, &mut uncounted, test);
        walked.map(drop)
    }

    /// Where `task` would go into the queue: the full engine appends a
    /// candidate and stable-sorts, so behind every waiting task with a key
    /// at or below its own.
    #[inline]
    pub(super) fn insertion_point(&self, task: &Task) -> usize {
        let policy = self.algorithm.policy;
        let key = policy.key(task);
        self.queue.partition_point(|(w, _)| policy.key(w) <= key)
    }

    /// The verdict-only step of a task that is not in the book (a candidate,
    /// or a variation of one).
    #[inline]
    pub(super) fn test(&self, task: &Task, walk: &mut Walk) -> Result<(), AdmissionFailure> {
        walk.test(self.algorithm.strategy, task, &self.params, &self.cfg)
    }

    /// Plans one task fresh at the walk's current step into the tail.
    fn plan_fresh(
        &self,
        task: &Task,
        walk: &mut Walk,
        tail: &mut Tail,
        work: &mut EngineProfile,
    ) -> Result<(), AdmissionFailure> {
        // The attempt counts as work whether or not it succeeds — a failed
        // planning call cost just as much CPU.
        work.plans_computed += 1;
        walk.keep(self.algorithm.strategy, task, &self.params, &self.cfg, tail)
    }

    /// The remembered failure of a walk that went on from the candidate's
    /// insertion point exactly as `walk` is about to (the verdict half of
    /// the reuse invariant): the same candidate, inputs that pass the plan
    /// gate's own predicate, and the same waiting tasks behind it up to the
    /// one that failed.
    fn recall(&self, candidate: &Task, at: usize, walk: &Walk) -> Option<AdmissionFailure> {
        let refusal = &self.refusals.kept[self.refusals.slot_of(candidate.id)?];
        // A queue that ends before `behind` does compares unequal.
        let behind = self.queue[at..].iter().map(|(t, _)| t);
        let unchanged = refusal.task == *candidate
            && refusal.inputs.holds_for(walk, &self.cfg)
            && refusal.behind.iter().eq(behind.take(refusal.behind.len()));
        unchanged.then_some(refusal.failure)
    }

    /// The candidate's own step, ahead of queue position `at`: a remembered
    /// refusal under equal inputs is the answer, otherwise it is planned.
    fn plan_candidate(
        &self,
        candidate: &Task,
        at: usize,
        walk: &mut Walk,
        tail: &mut Tail,
        work: &mut EngineProfile,
    ) -> Result<(), Refused> {
        if let Some(failure) = self.recall(candidate, at, walk) {
            work.refusals_reused += 1;
            debug_assert_eq!(
                self.literal_test(candidate, walk.now()).err(),
                Some(failure),
                "a remembered refusal is not what the walk would answer"
            );
            return Err(Refused {
                failure,
                walked: None,
            });
        }
        self.plan_fresh(candidate, walk, tail, work)
            .map_err(|failure| Refused {
                failure,
                walked: Some(at..at),
            })
    }

    /// The Fig. 2 test as the oracle runs it — what the debug build holds
    /// every remembered refusal and every skipped search instant against.
    pub(super) fn literal_test(
        &self,
        candidate: &Task,
        now: SimTime,
    ) -> Result<(), AdmissionFailure> {
        let waiting: Vec<Task> = self.queue.iter().map(|(t, _)| *t).collect();
        schedulability_test(
            &self.params,
            self.algorithm,
            &self.cfg,
            now,
            &self.releases,
            &waiting,
            Some(candidate),
        )
        .map(drop)
    }

    /// Remembers the refusal of `task` `pass` ended in, in its id's own ring
    /// slot if it has one, else in the oldest. Steady state allocates
    /// nothing: the inputs — the vector the candidate's plan was attempted
    /// on — and `behind` are overwritten in place.
    fn remember(&mut self, task: Task, refused: Refused, pass: &Pass) {
        let Some(behind) = refused.walked else {
            return;
        };
        let own = self.refusals.slot_of(task.id);
        let Refusals { ids, kept, oldest } = &mut self.refusals;
        let slot = match own {
            Some(own) => own,
            None if kept.len() < REFUSALS_KEPT => {
                ids.push(task.id);
                kept.push(Refusal {
                    task,
                    inputs: PlanMeta::default(),
                    behind: Vec::new(),
                    failure: refused.failure,
                });
                kept.len() - 1
            }
            None => {
                let slot = *oldest;
                *oldest = (slot + 1) % REFUSALS_KEPT;
                slot
            }
        };
        ids[slot] = task.id;
        let refusal = &mut kept[slot];
        refusal.task = task;
        refusal.failure = refused.failure;
        pass.tail.inputs_at(behind.start, &mut refusal.inputs);
        refusal.behind.clear();
        refusal
            .behind
            .extend(self.queue[behind].iter().map(|(t, _)| *t));
    }

    /// One walk over `waiting ∪ candidate` in policy order, on `pass`: the
    /// leading run of cached plans whose inputs are provably unchanged is
    /// *kept in place* ([`held_run`](Self::held_run): never copied, mostly
    /// not even compared); from the first changed position — the candidate's
    /// insertion point or a failed reuse gate — a replacement tail is planned
    /// into `pass.tail`, inside which still-valid cached plans are
    /// re-recorded rather than re-planned. The book is untouched — the
    /// caller decides whether to install the tail, or to remember the
    /// refusal.
    fn pass(
        &self,
        pass: &mut Pass,
        now: SimTime,
        candidate: Option<&Task>,
        work: &mut EngineProfile,
    ) -> Result<(), Refused> {
        let at = candidate.map_or(self.queue.len(), |c| self.insertion_point(c));
        let Pass { walk, tail } = pass;
        walk.restart(&self.releases, now);
        let stop = |_: &Task, _: &mut Walk| Ok::<_, Infallible>(false);
        let Ok(prefix) = self.held_run(walk, 0..at, |_| false, work, stop);
        tail.open(prefix, walk);
        let mut cand_planned = false;
        for i in prefix..=self.queue.len() {
            if let Some(c) = candidate.filter(|_| i == at) {
                self.plan_candidate(c, at, walk, tail, work)?;
                cand_planned = true;
            }
            let Some((task, plan)) = self.queue.get(i) else {
                break;
            };
            // Where the run stopped short of the candidate, its gate failed.
            if (i > prefix || i == at) && self.reusable(i, walk, work) {
                walk.keep_cached(task, plan, tail);
                work.plans_reused += 1;
            } else if let Err(failure) = self.plan_fresh(task, walk, tail, work) {
                // By position, not by `failure.task`: the candidate may
                // carry the id of a waiting task.
                let walked = cand_planned.then_some(at..i + 1);
                return Err(Refused { failure, walked });
            }
        }
        Ok(())
    }

    /// Runs `f` on the pass state the engine keeps (a cold one the first
    /// time) and keeps it again.
    fn with_pass<R>(&mut self, f: impl FnOnce(&mut Self, &mut Pass) -> R) -> R {
        let mut pass = self.kept.take().unwrap_or_default();
        let result = f(self, &mut pass);
        self.kept = Some(pass);
        result
    }

    /// Folds a (possibly failed) pass's work counters into the cumulative
    /// profile.
    fn book_work(&mut self, work: EngineProfile) {
        self.profile.plans_reused += work.plans_reused;
        self.profile.plans_computed += work.plans_computed;
        self.profile.gates_compared += work.gates_compared;
        self.profile.refusals_reused += work.refusals_reused;
    }

    /// Waiting position `q` has a new position ahead of it.
    fn unchain(&mut self, q: usize) {
        if let Some(Some(meta)) = self.meta.get_mut(q) {
            meta.follows = false;
        }
    }
}

impl Admission for AdmissionController {
    fn new(params: ClusterParams, algorithm: AlgorithmKind, cfg: PlanConfig) -> Self {
        AdmissionController {
            params,
            algorithm,
            cfg,
            releases: vec![SimTime::ZERO; params.num_nodes],
            queue: Vec::new(),
            meta: Vec::new(),
            refusals: Refusals::default(),
            profile: EngineProfile::default(),
            kept: None,
        }
    }

    fn params(&self) -> &ClusterParams {
        &self.params
    }

    fn algorithm(&self) -> AlgorithmKind {
        self.algorithm
    }

    fn config(&self) -> &PlanConfig {
        &self.cfg
    }

    fn committed_releases(&self) -> &[SimTime] {
        &self.releases
    }

    fn queue(&self) -> &[(Task, TaskPlan)] {
        &self.queue
    }

    /// On acceptance only the tasks whose planning inputs changed are
    /// re-planned; a refusal is remembered, so that asking again about an
    /// unchanged neighbourhood plans nothing.
    fn submit(&mut self, task: Task, now: SimTime) -> Decision {
        self.with_pass(|engine, pass| {
            let mut work = EngineProfile::default();
            let result = engine.pass(pass, now, Some(&task), &mut work);
            engine.book_work(work);
            match result {
                Ok(()) => {
                    pass.tail.install(&mut engine.queue, &mut engine.meta);
                    Decision::Accepted
                }
                Err(refused) => {
                    let reason = refused.failure.reason;
                    engine.remember(task, refused, pass);
                    Decision::Rejected(reason)
                }
            }
        })
    }

    /// Reuses the cached prefix, so a probe costs one planning call (plus
    /// any perturbed suffix) instead of a full pass.
    fn probe_plan(&self, task: &Task, now: SimTime) -> Result<TaskPlan, AdmissionFailure> {
        let mut pass = Pass::default();
        self.pass(&mut pass, now, Some(task), &mut EngineProfile::default())
            .map_err(|refused| refused.failure)?;
        // Match the reference engine exactly: the first id match over the
        // whole plan list in policy order (prefix first, then the rebuilt
        // tail) — load-bearing if the probed id shadows a waiting task's.
        self.queue[..pass.tail.from]
            .iter()
            .find(|(t, _)| t.id == task.id)
            .map(|(_, p)| p.clone())
            .or_else(|| {
                let j = pass.tail.tasks().position(|t| t.id == task.id);
                j.map(|j| pass.tail.plan(j))
            })
            .ok_or(AdmissionFailure {
                task: task.id,
                reason: Infeasible::CompletionAfterDeadline,
            })
    }

    /// `probe.rs`'s start search, on this engine's cache.
    fn earliest_start_after(&self, task: &Task, now: SimTime) -> Option<SimTime> {
        self.start_search(task, now)
    }

    /// One [`ExplainSearch`], opened and finished.
    fn explain(&self, request: &SubmitRequest, now: SimTime) -> Option<AdmissionExplanation> {
        ExplainSearch::open(self, &request.task, now).map(ExplainSearch::finish)
    }

    /// Positions whose inputs are unchanged keep their plans without a
    /// planning call.
    fn replan(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        if self.queue.is_empty() {
            return Ok(());
        }
        self.with_pass(|engine, pass| {
            let mut work = EngineProfile::default();
            let result = engine.pass(pass, now, None, &mut work);
            engine.book_work(work);
            result.map_err(|refused| refused.failure)?;
            pass.tail.install(&mut engine.queue, &mut engine.meta);
            Ok(())
        })
    }

    /// The committed values are exactly the release updates the remaining
    /// cached plans already observed from this task's temp-schedule slot,
    /// so a dispatch of a queue *prefix* leaves every remaining plan's
    /// reuse gate intact — the steady-state path stays diff-only.
    fn take_due(&mut self, now: SimTime) -> Vec<(Task, TaskPlan)> {
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].1.first_start().at_or_before_eps(now) {
                let (task, plan) = self.queue.remove(i);
                self.meta.remove(i);
                self.unchain(i);
                plan.write_releases(&mut self.releases);
                due.push((task, plan));
            } else {
                i += 1;
            }
        }
        due
    }

    /// Cached plans that observed the previous value fail their reuse gate
    /// and re-plan on the next pass — the fallback the module docs describe.
    fn set_node_release(&mut self, node: usize, time: SimTime) {
        self.releases[node] = time;
    }

    fn remove_waiting(&mut self, id: TaskId) -> Option<Task> {
        let pos = self.queue.iter().position(|(t, _)| t.id == id)?;
        let (task, _) = self.queue.remove(pos);
        self.meta.remove(pos);
        self.unchain(pos);
        Some(task)
    }

    /// The reuse cache is derived state and deliberately not part of the
    /// image — both engines share one [`ControllerState`] shape.
    fn state(&self) -> ControllerState {
        ControllerState {
            params: self.params,
            algorithm: self.algorithm,
            cfg: self.cfg,
            releases: self.releases.clone(),
            queue: self.queue.clone(),
        }
    }

    /// Restores with a *cold* reuse cache: the first pass after a restore
    /// re-plans every position (exactly what the reference engine does on
    /// every pass), re-warming the cache.
    fn from_state(state: ControllerState) -> Result<Self, ModelError> {
        state.validate()?;
        let meta = vec![None; state.queue.len()];
        Ok(AdmissionController {
            params: state.params,
            algorithm: state.algorithm,
            cfg: state.cfg,
            releases: state.releases,
            queue: state.queue,
            meta,
            refusals: Refusals::default(),
            profile: EngineProfile::default(),
            kept: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::reference::ReferenceController;
    use super::*;
    use crate::dlt::homogeneous;
    use crate::strategy::NodeCountPolicy;

    fn params() -> ClusterParams {
        ClusterParams::paper_baseline()
    }

    fn both(algorithm: AlgorithmKind) -> (ReferenceController, AdmissionController) {
        (
            ReferenceController::new(params(), algorithm, PlanConfig::default()),
            AdmissionController::new(params(), algorithm, PlanConfig::default()),
        )
    }

    fn task(id: u64, arrival: f64, sigma: f64, rel_deadline: f64) -> Task {
        Task::new(id, arrival, sigma, rel_deadline)
    }

    fn assert_same_state(full: &ReferenceController, inc: &AdmissionController) {
        assert_eq!(full.state(), inc.state(), "engines diverged");
    }

    #[test]
    fn mirrors_full_engine_over_a_mixed_sequence() {
        let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
        let p = params();
        let e16 = homogeneous::exec_time(&p, 400.0, 16);
        let seq: Vec<Task> = vec![
            task(1, 0.0, 400.0, e16 * 8.0),
            task(2, 5.0, 200.0, e16 * 6.0),
            task(3, 5.0, 200.0, 100.0), // hopeless
            task(4, 9.0, 300.0, e16 * 12.0),
        ];
        for t in &seq {
            let now = t.arrival;
            assert_eq!(full.submit(*t, now), inc.submit(*t, now), "{t:?}");
            assert_same_state(&full, &inc);
        }
        assert_eq!(
            full.take_due(SimTime::new(9.0)),
            inc.take_due(SimTime::new(9.0))
        );
        assert_same_state(&full, &inc);
        // Early release → replans diverge from cache, still identical.
        full.set_node_release(0, SimTime::new(10.0));
        inc.set_node_release(0, SimTime::new(10.0));
        assert_eq!(
            full.replan(SimTime::new(10.0)).is_ok(),
            inc.replan(SimTime::new(10.0)).is_ok()
        );
        assert_same_state(&full, &inc);
    }

    #[test]
    fn deep_queue_submit_reuses_the_prefix() {
        let (_, mut inc) = both(AlgorithmKind::EDF_DLT);
        // Feasible deep queue: loose, strictly increasing deadlines.
        for i in 0..64 {
            let t = task(i, 0.0, 100.0, 1e7 + i as f64 * 1e4);
            assert!(inc.submit(t, SimTime::ZERO).is_accepted());
        }
        let before = inc.profile();
        let probe = task(999, 0.0, 100.0, 9e8);
        assert!(inc.submit(probe, SimTime::ZERO).is_accepted());
        let work = work_since(&inc, before);
        assert_eq!(
            work.plans_computed, 1,
            "a back-of-queue submit must plan exactly the newcomer"
        );
        assert_eq!(work.plans_reused, 64);
        // Compared at the head of the queue, proved behind it.
        assert_eq!(work.gates_compared, 1);
    }

    #[test]
    fn cold_cache_after_from_state_stays_conformant() {
        let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
        for i in 0..8 {
            let t = task(i, 0.0, 150.0, 5e5 + i as f64 * 1e4);
            full.submit(t, SimTime::ZERO);
            inc.submit(t, SimTime::ZERO);
        }
        let mut thawed = AdmissionController::from_state(inc.state()).unwrap();
        let t = task(100, 1.0, 200.0, 8e5);
        assert_eq!(
            full.submit(t, SimTime::new(1.0)),
            thawed.submit(t, SimTime::new(1.0))
        );
        assert_eq!(full.state(), thawed.state());
        // The pass after the restore re-warmed the cache: the next
        // back-of-queue submit is diff-only again.
        let before = thawed.profile();
        let t2 = task(101, 1.0, 200.0, 9e5);
        assert!(thawed.submit(t2, SimTime::new(1.0)).is_accepted());
        assert_eq!(thawed.profile().plans_computed - before.plans_computed, 1);
    }

    #[test]
    fn rejection_keeps_state_and_cache_intact() {
        let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
        let p = params();
        let e16 = homogeneous::exec_time(&p, 800.0, 16);
        for i in 0..4 {
            let t = task(i, 0.0, 800.0, e16 * (1.2 + i as f64));
            assert_eq!(full.submit(t, SimTime::ZERO), inc.submit(t, SimTime::ZERO));
        }
        // An overload candidate rejected by both; nothing may change.
        let bad = task(50, 0.0, 800.0, e16 * 1.1);
        assert_eq!(
            full.submit(bad, SimTime::ZERO),
            inc.submit(bad, SimTime::ZERO)
        );
        assert!(!full.submit(bad, SimTime::ZERO).is_accepted());
        assert_same_state(&full, &inc);
        // And the cache still serves the prefix on the next acceptance.
        let before = inc.profile();
        let ok = task(51, 0.0, 100.0, e16 * 40.0);
        assert_eq!(
            full.submit(ok, SimTime::ZERO),
            inc.submit(ok, SimTime::ZERO)
        );
        assert_same_state(&full, &inc);
        assert!(inc.profile().plans_reused > before.plans_reused);
    }

    #[test]
    fn a_queue_that_cannot_replan_refuses_a_newcomer_and_keeps_its_plan() {
        // The waiting task's deadline has passed by the time the newcomer
        // arrives: the queue alone cannot be replanned, so the newcomer is
        // refused on its behalf and the installed plan stays.
        let p = params();
        let e16 = homogeneous::exec_time(&p, 400.0, 16);
        let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
        let w = task(1, 0.0, 400.0, e16 * 1.05);
        assert_eq!(full.submit(w, SimTime::ZERO), inc.submit(w, SimTime::ZERO));
        let plan_before = inc.queue()[0].1.clone();
        let late = SimTime::new(e16 * 3.0);
        let newcomer = task(2, late.as_f64(), 50.0, 1e9);
        let decision = inc.submit(newcomer, late);
        assert!(!decision.is_accepted());
        assert_eq!(full.submit(newcomer, late), decision);
        assert_eq!(inc.queue_len(), 1);
        assert_eq!(inc.queue()[0].1, plan_before);
        assert_same_state(&full, &inc);
    }

    #[test]
    fn probe_plan_matches_full_engine_and_does_not_mutate() {
        let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
        for i in 0..6 {
            let t = task(i, 0.0, 150.0, 4e5 + i as f64 * 3e4);
            full.submit(t, SimTime::ZERO);
            inc.submit(t, SimTime::ZERO);
        }
        let probe = task(77, 2.0, 300.0, 6e5);
        let a = full.probe_plan(&probe, SimTime::new(2.0));
        let b = inc.probe_plan(&probe, SimTime::new(2.0));
        assert_eq!(a, b);
        assert_same_state(&full, &inc);
    }

    #[test]
    fn probe_with_shadowed_id_matches_full_engine() {
        // A probe whose id duplicates a waiting task's must return the
        // same plan the reference engine returns (the first id match in
        // policy order — the waiting task's plan, not the candidate's).
        let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
        for i in 0..4 {
            let t = task(i, 0.0, 150.0, 3e5 + i as f64 * 2e4);
            assert_eq!(full.submit(t, SimTime::ZERO), inc.submit(t, SimTime::ZERO));
        }
        // Same id as waiting task 1, later deadline → planned after it.
        let shadow = task(1, 0.0, 300.0, 7e5);
        let a = full.probe_plan(&shadow, SimTime::ZERO);
        let b = inc.probe_plan(&shadow, SimTime::ZERO);
        assert_eq!(a, b);
        assert_same_state(&full, &inc);
    }

    #[test]
    fn rejected_passes_still_book_their_planning_work() {
        // A rejection-heavy stream must not inflate the reuse rate: the
        // work done by failed passes counts too.
        let p = params();
        let e16 = homogeneous::exec_time(&p, 800.0, 16);
        let (_, mut inc) = both(AlgorithmKind::EDF_DLT);
        assert!(inc
            .submit(task(0, 0.0, 800.0, e16 * 1.2), SimTime::ZERO)
            .is_accepted());
        let before = inc.profile();
        // Hopeless newcomer: its own plan fails after the prefix walk.
        assert!(!inc
            .submit(task(1, 0.0, 800.0, e16 * 0.5), SimTime::ZERO)
            .is_accepted());
        let after = inc.profile();
        assert!(
            after.plans_computed > before.plans_computed
                || after.plans_reused > before.plans_reused,
            "rejected pass left no trace in the stats: {after:?}"
        );
    }

    #[test]
    fn one_shot_node_count_disables_cross_instant_reuse() {
        // OneShot evaluates ñ_min at the raw instant, so a cached plan from
        // t=0 must not be reused at t=1 even with identical availability.
        let cfg = PlanConfig {
            node_count: NodeCountPolicy::OneShot,
            ..Default::default()
        };
        let mut full = ReferenceController::new(params(), AlgorithmKind::EDF_DLT, cfg);
        let mut inc = AdmissionController::new(params(), AlgorithmKind::EDF_DLT, cfg);
        for i in 0..4 {
            let t = task(i, 0.0, 200.0, 5e5 + i as f64 * 1e4);
            assert_eq!(full.submit(t, SimTime::ZERO), inc.submit(t, SimTime::ZERO));
        }
        let t = task(10, 1.0, 200.0, 6e5);
        assert_eq!(
            full.submit(t, SimTime::new(1.0)),
            inc.submit(t, SimTime::new(1.0))
        );
        assert_eq!(full.state(), inc.state());
    }

    #[test]
    fn start_search_commits_due_plans_in_queue_order() {
        // The due set need not be a queue prefix, and where two due plans
        // share a node the later one *in the queue* wins, even if it became
        // due at an earlier instant. Two nodes, FIFO; A waits ahead of B:
        //   A = {node 0: starts 50, released 80}
        //   B = {node 1: starts 10, released 60; node 0: starts 100,
        //        released 200}
        // At t = 10 only B is due; at t = 50 both are, and node 0 must read
        // B's 200, not A's 80 — which a search that carried its releases
        // from instant to instant and wrote A last would get wrong. C needs
        // both nodes by ≈ 100 to meet its deadline: with node 0 at 80 it
        // would be promised t = 50, with node 0 at 200 nothing ever admits
        // it.
        use crate::params::NodeId;
        use crate::strategy::StrategyKind;
        let params = ClusterParams::new(2, 1.0, 100.0).unwrap();
        let plan = |task: u64, chunks: &[(u32, f64, f64)]| TaskPlan {
            task: TaskId(task),
            strategy: StrategyKind::DltIit,
            nodes: chunks.iter().map(|c| NodeId(c.0)).collect(),
            start_times: chunks.iter().map(|c| SimTime::new(c.1)).collect(),
            fractions: vec![1.0 / chunks.len() as f64; chunks.len()],
            est_completion: SimTime::new(chunks.iter().map(|c| c.2).fold(0.0, f64::max)),
            node_release_estimates: chunks.iter().map(|c| SimTime::new(c.2)).collect(),
        };
        let a = task(1, 0.0, 5.0, 1e6);
        let b = task(2, 1.0, 5.0, 1e6);
        let state = ControllerState {
            params,
            algorithm: AlgorithmKind::FIFO_DLT,
            cfg: PlanConfig::default(),
            releases: vec![SimTime::ZERO; 2],
            queue: vec![
                (a, plan(1, &[(0, 50.0, 80.0)])),
                (b, plan(2, &[(1, 10.0, 60.0), (0, 100.0, 200.0)])),
            ],
        };
        let full = ReferenceController::from_state(state.clone()).unwrap();
        let inc = AdmissionController::from_state(state).unwrap();
        let now = SimTime::new(2.0);
        let c = task(3, 2.0, 10.0, 618.0);
        assert_eq!(full.earliest_feasible_start(&c, now), None);
        assert_eq!(inc.earliest_feasible_start(&c, now), None);
        // The scenario has teeth: were node 0 free at 80, t = 50 would do.
        let mut early = full.clone();
        let _ = early.take_due(SimTime::new(50.0));
        early.set_node_release(0, SimTime::new(80.0));
        assert!(early.probe(&c, SimTime::new(50.0)).is_accepted());
    }

    #[test]
    fn start_search_replans_what_an_out_of_order_dispatch_perturbs() {
        // A warm cache and a due plan *behind* a non-due one: B's plan is
        // edited to start at 500, before A's 1000, so at t = 500 B's
        // releases are committed while A — whose cached inputs never saw
        // them — still waits ahead of it. A's reuse gate must fail there
        // (and what follows is judged against the re-planned A), or the
        // search would walk a book the oracle never sees.
        let (_, mut inc) = both(AlgorithmKind::EDF_DLT);
        for node in 0..16 {
            inc.set_node_release(node, SimTime::new(1_000.0 + 100.0 * node as f64));
        }
        let e16 = homogeneous::exec_time(&params(), 50.0, 16);
        for i in 0..4 {
            let t = task(i, 0.0, 50.0, 2_500.0 + e16 * (2.0 + 0.3 * i as f64));
            assert!(inc.submit(t, SimTime::ZERO).is_accepted());
        }
        assert!(inc.meta.iter().all(Option::is_some), "cache is warm");
        assert_eq!(inc.queue[0].1.first_start(), SimTime::new(1_000.0));
        inc.queue[1].1.start_times[0] = SimTime::new(500.0);
        let full = ReferenceController::from_state(inc.state()).unwrap();
        let mut outcomes = Vec::new();
        for sigma in [20.0, 50.0, 200.0] {
            for factor in [0.3, 0.8, 1.2, 2.0, 4.0] {
                let c = task(99, 0.0, sigma, 2_500.0 + e16 * factor);
                let at = inc.earliest_feasible_start(&c, SimTime::ZERO);
                assert_eq!(at, full.earliest_feasible_start(&c, SimTime::ZERO), "{c:?}");
                outcomes.push(at);
            }
        }
        // Never, now, and the instant only B's early dispatch offers.
        for outcome in [None, Some(SimTime::ZERO), Some(SimTime::new(500.0))] {
            assert!(
                outcomes.contains(&outcome),
                "{outcome:?} not in {outcomes:?}"
            );
        }
    }

    /// A cold two-node FIFO engine for the start search, with hand-made
    /// plans: `(arrival, σ, relative deadline, node, first start, release)`
    /// per waiting task, ids from 1 in queue order.
    fn searched_book(
        committed: [f64; 2],
        rows: &[(f64, f64, f64, u32, f64, f64)],
    ) -> AdmissionController {
        use crate::params::NodeId;
        use crate::strategy::StrategyKind;
        let hand_made = |(i, &(arrival, sigma, rel_deadline, node, start, release))| {
            let task = task(i as u64 + 1, arrival, sigma, rel_deadline);
            let plan = TaskPlan {
                task: task.id,
                strategy: StrategyKind::DltIit,
                nodes: vec![NodeId(node)],
                start_times: vec![SimTime::new(start)],
                fractions: vec![1.0],
                est_completion: SimTime::new(release),
                node_release_estimates: vec![SimTime::new(release)],
            };
            (task, plan)
        };
        AdmissionController::from_state(ControllerState {
            params: ClusterParams::new(2, 1.0, 100.0).unwrap(),
            algorithm: AlgorithmKind::FIFO_DLT,
            cfg: PlanConfig::default(),
            releases: committed.map(SimTime::new).to_vec(),
            queue: rows.iter().enumerate().map(hand_made).collect(),
        })
        .unwrap()
    }

    #[test]
    fn a_dispatch_from_behind_the_task_is_walked_not_skipped() {
        // Two instants at which the task stands on the same vector — both
        // plans that come due commit what was committed already — but at
        // the second the heavy task behind it has been dispatched: the
        // first instant failed on that task, the second admits. Only the
        // count of positions still waiting tells them apart.
        let inc = searched_book(
            [1_000.0; 2],
            &[
                (0.0, 1.0, 1e6, 0, 100.0, 1_000.0),
                (2.0, 10.0, 1_598.0, 1, 200.0, 1_000.0),
            ],
        );
        let c = task(100, 1.0, 10.0, 2_999.0);
        let now = SimTime::new(1.0);
        let found = inc.earliest_start_after(&c, now);
        assert_eq!(found, Some(SimTime::new(200.0)));
        // The oracle agrees, and blames the heavy task until then.
        let oracle = ReferenceController::from_state(inc.state()).unwrap();
        assert_eq!(oracle.earliest_feasible_start(&c, now), found);
        assert_eq!(
            oracle.probe_plan(&c, now).unwrap_err().task,
            inc.queue[1].0.id
        );
    }

    #[test]
    fn an_instant_whose_clamp_moves_a_release_is_walked_not_skipped() {
        // Three instants, the same raw vector at the task's position each
        // time (the plans ahead of it write the same releases whether they
        // are dispatched or applied). At 120 it also clamps as it did at
        // 100, so that instant is skipped; at 400 the clamp lifts node 0
        // from 150 to 400, and the walk goes on to the task behind.
        let mut inc = searched_book(
            [100.0, 120.0],
            &[
                (0.0, 1.0, 1e6, 0, 100.0, 140.0),
                (0.1, 1.0, 1e6, 0, 120.0, 150.0),
                (0.2, 1.0, 1e6, 1, 400.0, 500.0),
                // Hopeless, and never dispatched within the search's
                // horizon: every instant fails on it.
                (2.0, 10.0, 10.0, 0, 9_000.0, 9_100.0),
            ],
        );
        let now = SimTime::new(1.0);
        // The cached plans ahead of the task are vouched for — each as if
        // planned on what the ones before it wrote — so the walks apply
        // them; the one behind it is planned.
        let mut walk = Walk::new(&inc.releases, now);
        for q in 0..3 {
            inc.meta[q] = Some(recorded(&mut walk));
            walk.apply(&inc.queue[q].1);
        }
        let c = task(100, 1.0, 10.0, 2_999.0);
        super::super::probe::WALKED_ON.take();
        assert_eq!(inc.earliest_start_after(&c, now), None);
        assert_eq!(
            super::super::probe::WALKED_ON.take(),
            vec![SimTime::new(100.0), SimTime::new(400.0)]
        );
    }

    // The prefix lemma's side conditions, one test each. On a book the
    // engine built itself, (ii)'s left half and (iii) never bind: a walk
    // rebases only on a position recorded no later than the one it records
    // next, and a plan frees no node before the node was available. The
    // lemma does not rest on either fact, so their tests vouch for
    // hand-made books by hand. A dropped condition turns its test red in a
    // debug build through the helper's own cross-check, and in any build
    // through the test's count of compared gates or its oracle; a pass
    // that cloned what it keeps would leave it unchained, which only the
    // count shows.

    /// The inputs a step of `walk` would plan on now, recorded as a pass
    /// records the position that step takes.
    fn recorded(walk: &mut Walk) -> PlanMeta {
        let mut inputs = PlanMeta::default();
        inputs.record(walk);
        inputs.follows = walk.mark();
        inputs
    }

    /// Vouches for every cached plan of `inc` as a walk at `at` would have
    /// recorded it, each on what the ones before it wrote (so each follows
    /// the one ahead).
    fn vouch(inc: &mut AdmissionController, at: f64) {
        let mut walk = Walk::new(&inc.releases, SimTime::new(at));
        for q in 0..inc.queue.len() {
            inc.meta[q] = Some(recorded(&mut walk));
            walk.apply(&inc.queue[q].1);
        }
    }

    /// The prefix helper over the whole queue at `now`: where it stopped,
    /// and how many gates it compared.
    fn held(inc: &AdmissionController, now: f64) -> (usize, u64) {
        let mut walk = Walk::new(&inc.releases, SimTime::new(now));
        let mut work = EngineProfile::default();
        let stop = |_: &Task, _: &mut Walk| Ok::<_, Infallible>(false);
        let Ok(stop) = inc.held_run(&mut walk, 0..inc.queue.len(), |_| false, &mut work, stop);
        (stop, work.gates_compared)
    }

    /// A book every node of which is committed until 5 000.
    fn busy(cfg: PlanConfig) -> (ReferenceController, AdmissionController) {
        let mut full = ReferenceController::new(params(), AlgorithmKind::EDF_DLT, cfg);
        let mut inc = AdmissionController::new(params(), AlgorithmKind::EDF_DLT, cfg);
        for node in 0..16 {
            full.set_node_release(node, SimTime::new(5_000.0));
            inc.set_node_release(node, SimTime::new(5_000.0));
        }
        (full, inc)
    }

    #[test]
    fn a_pass_before_a_cached_positions_planning_instant_compares_its_gate() {
        // (ii), right half. a is planned at 40 and b at 100 behind it, so b
        // follows a; then c is submitted at 50, before b's planning instant.
        // b's gate holds at 50 as well — but a run that took it as proved
        // would stand on b's record, which at 50 says nothing about a's
        // node: the walk would plan c as if a had never taken it.
        let (_, mut inc) = busy(PlanConfig::default());
        assert!(inc
            .submit(task(1, 40.0, 50.0, 1e6), SimTime::new(40.0))
            .is_accepted());
        assert!(inc
            .submit(task(2, 100.0, 50.0, 1e6), SimTime::new(100.0))
            .is_accepted());
        assert!(inc.meta[1].as_ref().is_some_and(|m| m.follows));
        assert_ne!(inc.queue[0].1.nodes, inc.queue[1].1.nodes);
        let (decision, work) = ask_again(&mut inc, task(3, 50.0, 50.0, 2e6), SimTime::new(50.0));
        assert!(decision.is_accepted());
        assert_eq!((work.gates_compared, work.plans_computed), (2, 1));
        // At 100 the chain vouches for b again; c, recorded at 50 behind a
        // walk that took b's plan directly, does not follow it.
        let (_, work) = ask_again(&mut inc, task(4, 100.0, 50.0, 3e6), SimTime::new(100.0));
        assert_eq!((work.gates_compared, work.plans_reused), (2, 3));
    }

    #[test]
    fn a_gate_recorded_before_the_one_ahead_is_compared() {
        // (ii), left half. Node 1 is committed until 100, a (node 0, 500 →
        // 600) waits ahead of b. b's inputs were recorded at 100 behind a's
        // plan, a's at 150: b follows a but was planned before it. At 150
        // node 1 clamps to 150 for a and for the walk, but b saw it at 100.
        let mut inc = searched_book(
            [500.0, 100.0],
            &[
                (0.0, 1.0, 1e6, 0, 500.0, 600.0),
                (0.1, 1.0, 1e6, 1, 600.0, 700.0),
            ],
        );
        vouch(&mut inc, 100.0);
        let mut at_150 = Walk::new(&inc.releases, SimTime::new(150.0));
        inc.meta[0] = Some(recorded(&mut at_150));
        assert!(inc.meta[1].as_ref().is_some_and(|m| m.follows));
        assert_eq!(held(&inc, 150.0), (1, 2));
    }

    #[test]
    fn a_gate_behind_a_plan_released_before_now_is_compared() {
        // (iii). a releases node 0 at 140 — due since 100, and not yet
        // dispatched when a walk at 150 comes by (a serving turn decides
        // before it drives). b was recorded at 0 behind it and saw 140 where
        // the walk at 150 sees 150.
        let mut inc = searched_book(
            [200.0, 200.0],
            &[
                (0.0, 1.0, 1e6, 0, 100.0, 140.0),
                (0.1, 1.0, 1e6, 1, 300.0, 400.0),
            ],
        );
        vouch(&mut inc, 0.0);
        assert_eq!(held(&inc, 150.0), (1, 2));
        // At b's own instant the chain vouches for it.
        assert_eq!(held(&inc, 0.0), (2, 1));
    }

    #[test]
    fn a_position_closed_up_behind_is_compared_not_proved() {
        // (i), kept true by unchaining. Removing b from a, b, c leaves c
        // recorded behind b's plan but standing behind a's: its gate is
        // compared, and fails (b's node is free again).
        let (_, mut inc) = busy(PlanConfig::default());
        for id in 1..=3 {
            let t = task(id, 0.0, 50.0, 1e6 + id as f64 * 1e3);
            assert!(inc.submit(t, SimTime::ZERO).is_accepted());
        }
        assert!(inc.remove_waiting(TaskId(2)).is_some());
        let (decision, work) = ask_again(&mut inc, task(4, 0.0, 50.0, 2e6), SimTime::ZERO);
        assert!(decision.is_accepted());
        assert_eq!((work.gates_compared, work.plans_computed), (2, 2));
        // A dispatch from the middle of a, x, b that lowers node 1 from 1 000
        // to 800 (hand-made: no plan of the engine's frees a node early),
        // hidden from a by the clamp at 1 000 but not from b, recorded at 500.
        let mut inc = searched_book(
            [1_000.0; 2],
            &[
                (0.0, 1.0, 1e6, 0, 1_001.0, 1_100.0),
                (0.1, 1.0, 1e6, 1, 400.0, 800.0),
                (0.2, 1.0, 1e6, 0, 1_100.0, 1_200.0),
            ],
        );
        vouch(&mut inc, 500.0);
        assert_eq!(inc.take_due(SimTime::new(1_000.0)).len(), 1);
        assert_eq!(held(&inc, 1_000.0), (1, 2));
    }

    #[test]
    fn a_pass_rerecords_what_it_keeps_behind_a_new_member() {
        // b leaves and comes back, planned where it was on what it was
        // planned on: c's gate holds behind it and c is kept — re-recorded
        // behind b's plan, not cloned unchained.
        let (mut full, mut inc) = busy(PlanConfig::default());
        let [a, b, c] = [1, 2, 3].map(|id| task(id, 0.0, 50.0, 1e6 + id as f64 * 1e3));
        for t in [a, b, c] {
            assert_eq!(full.submit(t, SimTime::ZERO), inc.submit(t, SimTime::ZERO));
        }
        assert_eq!(full.remove_waiting(b.id), inc.remove_waiting(b.id));
        let before = inc.profile();
        let decision = inc.submit(b, SimTime::ZERO);
        assert_eq!(full.submit(b, SimTime::ZERO), decision);
        assert_same_state(&full, &inc);
        let work = work_since(&inc, before);
        assert_eq!((work.plans_computed, work.plans_reused), (1, 2));
        // A later pass proves every gate behind the first.
        let (_, work) = ask_again(&mut inc, task(4, 10.0, 50.0, 2e6), SimTime::new(10.0));
        assert_eq!((work.gates_compared, work.plans_reused), (1, 3));
    }

    #[test]
    fn one_shot_proves_within_an_instant_and_never_across() {
        // (iv) needs no check of its own: under OneShot the gate ahead held
        // only at its own instant, and (ii) pins the next one to it.
        let cfg = PlanConfig {
            node_count: NodeCountPolicy::OneShot,
            ..Default::default()
        };
        let (_, mut inc) = busy(cfg);
        for id in 1..=4 {
            let t = task(id, 0.0, 50.0, 1e6 + id as f64 * 1e3);
            assert!(inc.submit(t, SimTime::ZERO).is_accepted());
        }
        let (_, work) = ask_again(&mut inc, task(10, 0.0, 50.0, 2e6), SimTime::ZERO);
        assert_eq!((work.gates_compared, work.plans_reused), (1, 4));
        // Clamp-equal at 10, but ñ_min is evaluated at the raw instant: the
        // head's gate fails, and nothing behind it is proved.
        for (id, at) in [(11, 10.0), (12, 0.0)] {
            let (_, work) = ask_again(&mut inc, task(id, at, 50.0, 3e6), SimTime::new(at));
            assert_eq!(work.plans_reused, 0, "at {at}");
        }
        let (_, work) = ask_again(&mut inc, task(13, 0.0, 50.0, 4e6), SimTime::ZERO);
        assert_eq!((work.gates_compared, work.plans_reused), (1, 7));
    }

    /// A book in which a ticket is refused on behalf of a waiting task two
    /// positions behind it, every node committed until 500 (so instants
    /// before that clamp alike): in EDF order a first task, then where
    /// `ticket` goes, then `b`, then `f`, whose deadline leaves room for a sliver of extra
    /// work ahead of it but not for the ticket.
    struct Neighbourhood {
        inc: AdmissionController,
        ticket: Task,
        b: Task,
        f: Task,
    }

    fn neighbourhood(cfg: PlanConfig) -> Neighbourhood {
        let mut inc = AdmissionController::new(params(), AlgorithmKind::EDF_DLT, cfg);
        for node in 0..16 {
            inc.set_node_release(node, SimTime::new(500.0));
        }
        let a = task(1, 0.0, 100.0, 2_500.0);
        let b = task(2, 0.0, 100.0, 4_500.0);
        assert!(inc.submit(a, SimTime::ZERO).is_accepted());
        assert!(inc.submit(b, SimTime::ZERO).is_accepted());
        // The shortest deadline f can meet behind a and b, plus a little.
        let (mut failing, mut passing) = (4_500.0, 1e6);
        while passing - failing > 1.0 {
            let mid = 0.5 * (failing + passing);
            match inc.probe(&task(3, 0.0, 800.0, mid), SimTime::ZERO) {
                Decision::Accepted => passing = mid,
                Decision::Rejected(_) => failing = mid,
            }
        }
        let f = task(3, 0.0, 800.0, passing + 40.0);
        assert!(inc.submit(f, SimTime::ZERO).is_accepted());
        let ticket = task(9, 0.0, 40.0, 3_000.0);
        Neighbourhood { inc, ticket, b, f }
    }

    /// The neighbourhood with the ticket refused once, at time zero.
    fn refused(cfg: PlanConfig) -> Neighbourhood {
        let mut n = neighbourhood(cfg);
        assert!(!n.inc.submit(n.ticket, SimTime::ZERO).is_accepted());
        n
    }

    /// Submits the ticket again at `now`, checks the decision against the
    /// oracle on the same book, and returns it with the work it took.
    fn ask_again(
        inc: &mut AdmissionController,
        ticket: Task,
        now: SimTime,
    ) -> (Decision, EngineProfile) {
        let mut oracle = ReferenceController::from_state(inc.state()).unwrap();
        let before = inc.profile();
        let decision = inc.submit(ticket, now);
        assert_eq!(decision, oracle.submit(ticket, now));
        assert_eq!(inc.state(), oracle.state());
        (decision, work_since(inc, before))
    }

    /// The work `inc` booked since its profile read `before`.
    fn work_since(inc: &AdmissionController, before: EngineProfile) -> EngineProfile {
        let after = inc.profile();
        EngineProfile {
            plans_reused: after.plans_reused - before.plans_reused,
            plans_computed: after.plans_computed - before.plans_computed,
            gates_compared: after.gates_compared - before.gates_compared,
            refusals_reused: after.refusals_reused - before.refusals_reused,
        }
    }

    /// The book and its cache of planning inputs, bit for bit, as text.
    fn book_bits(inc: &AdmissionController) -> String {
        let bits = |m: &PlanMeta| {
            let observed: Vec<u64> = m.observed.iter().map(|r| r.as_f64().to_bits()).collect();
            (m.planned_at.as_f64().to_bits(), observed, m.follows)
        };
        let cache: Vec<_> = inc.meta.iter().map(|m| m.as_ref().map(bits)).collect();
        format!("{} {cache:?}", serde_json::to_string(&inc.state()).unwrap())
    }

    #[test]
    fn a_refusal_is_remembered_while_its_neighbourhood_stands() {
        let mut n = neighbourhood(PlanConfig::default());
        let walked = n.inc.probe_plan(&n.ticket, SimTime::ZERO).unwrap_err();
        assert_eq!(walked.task, n.f.id, "the scenario refuses on behalf of f");
        // The pass plans the ticket and b into its tail before f fails, and
        // leaves the book as it was, bit for bit.
        let book = book_bits(&n.inc);
        assert!(!n.inc.submit(n.ticket, SimTime::ZERO).is_accepted());
        assert_eq!(book_bits(&n.inc), book);
        // What was kept: the walk from the ticket up to the task that failed.
        assert_eq!(n.inc.refusals.kept.len(), 1);
        assert_eq!(n.inc.refusals.kept[0].behind, vec![n.b, n.f]);
        // The probe is now answered from the ring, with the same failure...
        assert_eq!(n.inc.probe_plan(&n.ticket, SimTime::ZERO), Err(walked));
        // ...and so is the re-test, at any instant that clamps alike.
        for now in [0.0, 100.0, 499.0] {
            let (decision, work) = ask_again(&mut n.inc, n.ticket, SimTime::new(now));
            assert_eq!(decision, Decision::Rejected(walked.reason));
            assert_eq!(work.plans_computed, 0, "at {now}");
            assert_eq!(work.refusals_reused, 1, "at {now}");
        }
        assert_eq!(n.inc.refusals.kept.len(), 1, "a hit writes nothing");
    }

    /// A re-test that must be walked: it plans, and reuses no refusal.
    fn assert_walked(work: EngineProfile) {
        assert!(work.plans_computed > 0, "{work:?}");
        assert_eq!(work.refusals_reused, 0, "{work:?}");
    }

    #[test]
    fn an_arrival_ahead_of_the_ticket_forgets_the_refusal() {
        let mut n = refused(PlanConfig::default());
        // A sliver ahead of the ticket: the vector it is inserted on moves.
        let sliver = task(20, 0.0, 1.0, 2_800.0);
        assert!(n.inc.submit(sliver, SimTime::ZERO).is_accepted());
        let (_, work) = ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
        assert_walked(work);
    }

    #[test]
    fn an_arrival_between_the_ticket_and_the_failure_forgets_the_refusal() {
        let mut n = refused(PlanConfig::default());
        // Same vector at the insertion point, one more task behind it.
        let sliver = task(20, 0.0, 1.0, 3_500.0);
        assert!(n.inc.submit(sliver, SimTime::ZERO).is_accepted());
        let at = n.inc.queue.iter().position(|(t, _)| *t == sliver).unwrap();
        assert_eq!(n.inc.queue[at + 1].0, n.b, "the sliver sorts ahead of b");
        let (_, work) = ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
        assert_walked(work);
    }

    #[test]
    fn removing_the_task_that_failed_admits_the_ticket() {
        let mut n = refused(PlanConfig::default());
        assert_eq!(n.inc.remove_waiting(n.f.id), Some(n.f));
        let (decision, work) = ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
        assert!(decision.is_accepted());
        assert_walked(work);
    }

    #[test]
    fn an_earlier_release_on_a_node_the_ticket_needs_admits_it() {
        let mut n = refused(PlanConfig::default());
        for node in 0..16 {
            n.inc.set_node_release(node, SimTime::ZERO);
        }
        let (decision, work) = ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
        assert!(decision.is_accepted());
        assert_walked(work);
    }

    #[test]
    fn an_instant_past_an_idle_nodes_release_forgets_the_refusal() {
        // Every node is released at 500: at 600 the clamp moves them all.
        let mut n = refused(PlanConfig::default());
        let (_, work) = ask_again(&mut n.inc, n.ticket, SimTime::new(600.0));
        assert_walked(work);
    }

    #[test]
    fn one_shot_remembers_a_refusal_for_its_own_instant_only() {
        let cfg = PlanConfig {
            node_count: NodeCountPolicy::OneShot,
            ..Default::default()
        };
        let mut inc = AdmissionController::new(params(), AlgorithmKind::EDF_DLT, cfg);
        for node in 0..16 {
            inc.set_node_release(node, SimTime::new(500.0));
        }
        for i in 0..3 {
            let t = task(i, 0.0, 100.0, 1e5 + i as f64 * 1e4);
            assert!(inc.submit(t, SimTime::ZERO).is_accepted());
        }
        // No node count gets this one done in time: its own plan fails.
        let ticket = task(9, 0.0, 800.0, 600.0);
        assert!(!inc.submit(ticket, SimTime::ZERO).is_accepted());
        assert!(inc.refusals.kept[0].behind.is_empty());
        let (_, work) = ask_again(&mut inc, ticket, SimTime::ZERO);
        assert_eq!((work.plans_computed, work.refusals_reused), (0, 1));
        // Clamp-equal, but ñ_min is evaluated at the raw instant.
        let (_, work) = ask_again(&mut inc, ticket, SimTime::new(100.0));
        assert_walked(work);
    }

    #[test]
    fn a_restored_engine_remembers_no_refusal() {
        let n = refused(PlanConfig::default());
        let mut thawed = AdmissionController::from_state(n.inc.state()).unwrap();
        assert!(thawed.refusals.kept.is_empty());
        let (decision, work) = ask_again(&mut thawed, n.ticket, SimTime::ZERO);
        assert!(!decision.is_accepted());
        assert_walked(work);
    }

    #[test]
    fn a_ticket_shadowing_the_failing_tasks_id_keeps_the_right_neighbourhood() {
        // The ticket carries the id of the waiting task that fails behind
        // it, so the failure names both: what is kept goes by the queue
        // position the pass was planning, and still ends at that task.
        let mut n = neighbourhood(PlanConfig::default());
        n.ticket.id = n.f.id;
        let refusal = n.inc.probe_plan(&n.ticket, SimTime::ZERO).unwrap_err();
        assert_eq!(refusal.task, n.ticket.id);
        assert!(!n.inc.submit(n.ticket, SimTime::ZERO).is_accepted());
        assert_eq!(n.inc.refusals.kept[0].behind, vec![n.b, n.f]);
        // Kept as the ticket's own failure, it would outlive f's removal.
        assert_eq!(n.inc.remove_waiting(n.f.id), Some(n.f));
        let (decision, work) = ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
        assert!(decision.is_accepted());
        assert_walked(work);
    }

    #[test]
    fn the_ring_keeps_the_last_refusals_one_slot_an_id() {
        let mut n = refused(PlanConfig::default());
        // Variations of the ticket, each refused: distinct tasks, own slots.
        for i in 0..REFUSALS_KEPT as u64 + 2 {
            let other = Task {
                id: TaskId(100 + i),
                ..n.ticket
            };
            assert!(!n.inc.submit(other, SimTime::ZERO).is_accepted());
            assert!(n.inc.refusals.kept.len() <= REFUSALS_KEPT);
        }
        // The ticket's own slot was the oldest: gone, so it is walked, and
        // written back without growing the ring.
        let (_, work) = ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
        assert_walked(work);
        let (_, work) = ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
        assert_eq!((work.plans_computed, work.refusals_reused), (0, 1));
        // The same id in another shape is not the task that was refused:
        // walked, and given the id's slot.
        let reshaped = Task {
            data_size: n.ticket.data_size * 1.5,
            ..n.ticket
        };
        let (decision, work) = ask_again(&mut n.inc, reshaped, SimTime::ZERO);
        assert!(!decision.is_accepted());
        assert_walked(work);
        let refusals = &n.inc.refusals;
        assert_eq!(refusals.kept.len(), REFUSALS_KEPT);
        assert!(refusals
            .ids
            .iter()
            .eq(refusals.kept.iter().map(|r| &r.task.id)));
        let own = refusals.ids.iter().filter(|&&id| id == n.ticket.id);
        assert_eq!(own.count(), 1);
        assert_eq!(
            refusals.kept[refusals.slot_of(n.ticket.id).unwrap()].task,
            reshaped
        );
    }

    #[test]
    fn state_round_trips_and_remove_waiting_conforms() {
        let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
        for i in 0..5 {
            let t = task(i, 0.0, 150.0, 4e5 + i as f64 * 2e4);
            full.submit(t, SimTime::ZERO);
            inc.submit(t, SimTime::ZERO);
        }
        assert_eq!(
            full.remove_waiting(TaskId(2)),
            inc.remove_waiting(TaskId(2))
        );
        assert_eq!(
            full.remove_waiting(TaskId(99)),
            inc.remove_waiting(TaskId(99))
        );
        assert_same_state(&full, &inc);
        let json = serde_json::to_string(&inc.state()).unwrap();
        let back: ControllerState = serde_json::from_str(&json).unwrap();
        let thawed = AdmissionController::from_state(back).unwrap();
        assert_eq!(thawed.state(), inc.state());
    }
}
