//! Many what-if admission tests against one book: the probe walk and the
//! start search.
//!
//! The counterfactual searches behind a refusal explanation
//! ([`ExplainSearch`](super::ExplainSearch)) ask the Fig. 2 question dozens
//! of times about *one* book and *one* task whose deadline or size is being
//! varied. The literal test
//! ([`schedulability_test`](super::schedulability_test)) re-sorts and
//! re-plans the whole waiting queue and materialises every plan for each of
//! them. A [`ProbeWalk`] does the shared part once — the waiting tasks in
//! policy order, the positions ahead of the task's own insertion point
//! walked into a kept [`Walk`] state, and, as probes ask for them, the
//! states after each further waiting task (the *chain*) — and each probe
//! copies the state at its candidate's insertion point into one reused
//! scratch walk and plans only the candidate and what sorts behind it,
//! keeping nothing but the verdict: every step here is the walk's
//! verdict-only one ([`Walk::test`]), which materialises no plan and
//! allocates nothing, and a chain link hands its step buffers on to the
//! link built from it ([`Walk::fork`]). A deadline search moves the
//! candidate toward the back of the queue, where almost nothing is left to
//! plan.
//!
//! The reservation search ([`earliest_future_start`]) asks it once per
//! future dispatch instant, about books that differ only in which waiting
//! plans have been dispatched: order, keys and instants are computed once,
//! and a waiting position whose cached plan the engine's reuse gate still
//! vouches for *at that instant* is applied, not planned. Most instants are
//! not walked to the end at all: a dispatch commits what the plans behind it
//! already observed, so instant after instant the walk arrives at the task's
//! position on the same clamped vector with the same tasks still waiting
//! behind it — and from there it could only repeat, step for step, the
//! instant before, which failed (the search would have stopped there
//! otherwise). Such an instant is refused on arrival; one where a task
//! behind the searched one has been dispatched, or where the clamp at the
//! new instant lifts a release, is walked on.
//!
//! `plan_task` is a pure function of the release vector the walk has built,
//! so both answer exactly what the literal test answers: the same
//! `Ok`/`Err` and the same first failure (the unit tests here check that
//! against the literal test over random books).

use crate::algorithm::AlgorithmKind;
use crate::params::ClusterParams;
use crate::strategy::{PlanConfig, TaskPlan};
use crate::task::Task;
use crate::time::SimTime;

use super::walk::{PlanMeta, Walk};
use super::{schedulability_test, AdmissionFailure};

/// One book (committed releases + waiting tasks) at one instant, prepared
/// for repeated feasibility probes of variations of one task.
pub(super) struct ProbeWalk<'a> {
    pub(super) params: &'a ClusterParams,
    pub(super) algorithm: AlgorithmKind,
    pub(super) cfg: &'a PlanConfig,
    pub(super) now: SimTime,
    pub(super) committed: &'a [SimTime],
    /// The waiting tasks in policy order (stable, so equal keys keep their
    /// queue order — what the literal test's sort produces).
    ordered: Vec<Task>,
    /// How many leading `ordered` tasks sort at or before the walk's own
    /// task: the shared prefix every probe at or after that key walks
    /// through unchanged.
    prefix_len: usize,
    /// `chain[j]` is the walk after the prefix and the next `j` waiting
    /// tasks, no candidate among them — or the first failure on the way
    /// there, which is then the first failure of every probe landing at or
    /// behind that point. `chain[0]` (the prefix) is built up front, the
    /// links behind it when a probe first lands behind them.
    chain: Vec<Result<Walk, AdmissionFailure>>,
    /// The per-probe walk, reused across probes.
    scratch: Walk,
    /// Tests answered so far.
    probes: u64,
}

impl<'a> ProbeWalk<'a> {
    /// Prepares the walk for probes of `task` and of variations of it that
    /// sort no earlier (a longer deadline, a different size).
    pub(super) fn new(
        params: &'a ClusterParams,
        algorithm: AlgorithmKind,
        cfg: &'a PlanConfig,
        now: SimTime,
        committed: &'a [SimTime],
        waiting: impl Iterator<Item = Task>,
        task: &Task,
    ) -> Self {
        debug_assert_eq!(committed.len(), params.num_nodes);
        let policy = algorithm.policy;
        let mut ordered: Vec<Task> = waiting.collect();
        policy.sort(&mut ordered);
        // The literal test appends the candidate and stable-sorts, so the
        // candidate lands *after* any waiting task with an equal key.
        let own = policy.key(task);
        let prefix_len = ordered.partition_point(|w| policy.key(w) <= own);
        let mut walk = Walk::new(committed, now);
        let prefix = ordered[..prefix_len]
            .iter()
            .try_for_each(|w| walk.test(algorithm.strategy, w, params, cfg))
            .map(|()| walk);
        ProbeWalk {
            params,
            algorithm,
            cfg,
            now,
            committed,
            ordered,
            prefix_len,
            chain: vec![prefix],
            scratch: Walk::new(&[], now),
            probes: 0,
        }
    }

    /// How many tests this walk has answered.
    pub(super) fn probes(&self) -> u64 {
        self.probes
    }

    /// The Fig. 2 test for `candidate` against the walk's book: `Ok` iff
    /// `schedulability_test(.., waiting, Some(candidate))` passes, and the
    /// same first failure when it does not.
    pub(super) fn probe(&mut self, candidate: &Task) -> Result<(), AdmissionFailure> {
        self.probes += 1;
        let policy = self.algorithm.policy;
        let key = policy.key(candidate);
        // A probe sorting strictly ahead of the last prefix task would land
        // inside the prefix: the literal test answers that one.
        let prefix_last = self.prefix_len.checked_sub(1).map(|i| &self.ordered[i]);
        if prefix_last.is_some_and(|last| key < policy.key(last)) {
            return schedulability_test(
                self.params,
                self.algorithm,
                self.cfg,
                self.now,
                self.committed,
                &self.ordered,
                Some(candidate),
            )
            .map(drop);
        }
        let (strategy, params, cfg) = (self.algorithm.strategy, self.params, self.cfg);
        // The candidate lands after every waiting task with a key at or
        // below its own, as in the literal test's stable sort.
        let behind = &self.ordered[self.prefix_len..];
        let at = behind.partition_point(|w| policy.key(w) <= key);
        while self.chain.len() <= at {
            let j = self.chain.len() - 1;
            let next = match &mut self.chain[j] {
                Err(failure) => Err(*failure),
                Ok(link) => {
                    // Settled before it is copied, here and below, so the
                    // copies do not each repeat its last step's merge.
                    let mut walk = link.fork();
                    walk.test(strategy, &behind[j], params, cfg).map(|()| walk)
                }
            };
            self.chain.push(next);
        }
        let link = self.chain[at].as_mut().map_err(|f| *f)?;
        link.settle();
        let walk = &mut self.scratch;
        walk.copy_from(link);
        walk.test(strategy, candidate, params, cfg)?;
        for w in &behind[at..] {
            walk.test(strategy, w, params, cfg)?;
        }
        Ok(())
    }
}

/// The instants after `now` of [`Admission::earliest_feasible_start`]
/// (which documents why dispatch instants up to the task's deadline are the
/// only candidates): the first such `first_start(p) > now` in `queue` at
/// which `task` passes the test against the post-dispatch book, or `None`.
/// The caller has already failed the test at `now` itself.
///
/// `reusable(q, walk)` is the engine's reuse gate for the cached plan of
/// `queue[q]`: `true` only when planning that task at `walk`'s next step
/// provably returns `queue[q].1` again. A caller without a cache answers
/// `false` and every position is planned — one search either way.
///
/// An instant whose walk reaches the task's position on the inputs the last
/// instant to get there had — the same vector after the clamp, the same
/// positions behind it still waiting — is not walked further: from there on
/// it would repeat that instant's steps one for one, and that instant
/// failed, or the search would have stopped at it.
///
/// [`Admission::earliest_feasible_start`]: super::Admission::earliest_feasible_start
#[allow(clippy::too_many_arguments)]
pub(super) fn earliest_future_start(
    params: &ClusterParams,
    algorithm: AlgorithmKind,
    cfg: &PlanConfig,
    now: SimTime,
    committed_releases: &[SimTime],
    queue: &[(Task, TaskPlan)],
    task: &Task,
    reusable: impl Fn(usize, &Walk) -> bool,
) -> Option<SimTime> {
    let deadline = task.absolute_deadline();
    let mut instants: Vec<SimTime> = queue
        .iter()
        .map(|(_, plan)| plan.first_start())
        .filter(|start| start.definitely_after(now) && !start.definitely_after(deadline))
        .collect();
    instants.sort_unstable();
    instants.dedup();
    if instants.is_empty() {
        return None;
    }
    // The waiting positions in policy order (stable, as the literal test
    // sorts them; dropping the dispatched ones from it keeps it so), and
    // where the task lands among them: after any equal key.
    let policy = algorithm.policy;
    let mut order: Vec<usize> = (0..queue.len()).collect();
    order.sort_by_key(|&q| policy.key(&queue[q].0));
    let own = policy.key(task);
    let (ahead, behind) =
        order.split_at(order.partition_point(|&q| policy.key(&queue[q].0) <= own));
    let strategy = algorithm.strategy;
    let mut walk = Walk::new(&[], now);
    let mut releases = Vec::with_capacity(committed_releases.len());
    // The last instant whose walk got as far as the task: its inputs there,
    // and how many of `behind` were still waiting (`None`: no instant yet).
    let mut seen = PlanMeta::default();
    let mut seen_waiting = None;
    instants.into_iter().find(|&t| {
        // The activation protocol is "dispatches at `t` commit first, then
        // the task is submitted", so each instant is tested against the
        // post-dispatch book. The dispatches are simulated exactly as
        // `take_due` would: every due plan's release estimates committed in
        // queue order — the due set need not be a queue prefix, and where
        // two due plans share a node the later *in the queue* must win,
        // whichever became due first — and the rest kept waiting.
        let due = |q: usize| queue[q].1.first_start().at_or_before_eps(t);
        releases.clear();
        releases.extend_from_slice(committed_releases);
        for (q, (_, plan)) in queue.iter().enumerate() {
            if due(q) {
                plan.write_releases(&mut releases);
            }
        }
        walk.restart(&releases, t);
        let step = |walk: &mut Walk, q: usize| {
            let (waiting, plan) = &queue[q];
            if due(q) {
                Ok(())
            } else if reusable(q, walk) {
                walk.apply(plan);
                Ok(())
            } else {
                walk.test(strategy, waiting, params, cfg)
            }
        };
        if ahead.iter().try_for_each(|&q| step(&mut walk, q)).is_err() {
            return false;
        }
        // Dispatches only accumulate from instant to instant, so an equal
        // count is the same set of positions.
        let waiting = behind.iter().filter(|&&q| !due(q)).count();
        if seen_waiting == Some(waiting) && seen.holds_for(&walk, cfg) {
            debug_assert!(
                {
                    let left: Vec<Task> = (0..queue.len())
                        .filter(|&q| !due(q))
                        .map(|q| queue[q].0)
                        .collect();
                    schedulability_test(params, algorithm, cfg, t, &releases, &left, Some(task))
                        .is_err()
                },
                "a skipped instant would have admitted the task"
            );
            return false;
        }
        seen.record(&walk);
        seen_waiting = Some(waiting);
        walk.test(strategy, task, params, cfg)
            .and_then(|()| behind.iter().try_for_each(|&q| step(&mut walk, q)))
            .is_ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlt::homogeneous;
    use proptest::prelude::*;

    const NODES: usize = 8;

    /// A random book and walk task, decoded from unit-interval draws so
    /// deadlines sit around what the cluster can serve (a mix of passing
    /// and failing walks) and land on a coarse grid (so keys tie). Waiting
    /// task `heavy`, if there is one, is far too large for its deadline:
    /// wherever it sorts, the walk fails on it.
    fn book(
        releases: &[f64],
        waiting: &[(f64, f64)],
        own: (f64, f64),
        heavy: usize,
    ) -> (ClusterParams, Vec<SimTime>, Vec<Task>, Task) {
        let params = ClusterParams::new(NODES, 1.0, 100.0).expect("valid params");
        let e = |sigma: f64| homogeneous::exec_time(&params, sigma, NODES);
        let grid = e(100.0);
        let mk = |id: u64, (s, d): (f64, f64)| {
            let sigma = 20.0 + s * 180.0;
            // Deadlines on a grid of a few steps: ties are common.
            let steps = 2.0 + (d * 10.0).floor();
            Task::new(id, 0.0, sigma, steps * grid)
        };
        let committed = releases
            .iter()
            .map(|r| SimTime::new(r * grid))
            .collect::<Vec<_>>();
        let queue = waiting
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let task = mk(i as u64 + 1, *w);
                Task {
                    data_size: task.data_size * if i == heavy { 1e4 } else { 1.0 },
                    ..task
                }
            })
            .collect();
        (params, committed, queue, mk(100, own))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The probe walk answers exactly what the literal test answers —
        /// verdict and first failure — for the walk's own task, for
        /// variations sorting behind it in any order of asking (a probe
        /// landing ahead of the chain's end starts from the earlier link),
        /// for variations sorting *ahead* of the shared prefix (the literal
        /// fallback), for keys that tie a waiting task's, and with a
        /// waiting task that cannot be planned anywhere in the order (an
        /// `Err` link hands its failure to every probe behind it).
        #[test]
        fn probe_walk_matches_the_literal_test(
            algorithm in prop::sample::select(vec![
                AlgorithmKind::EDF_DLT,
                AlgorithmKind::FIFO_DLT,
                AlgorithmKind::EDF_OPR_MN,
            ]),
            releases in proptest::collection::vec(0.0f64..1.5, NODES),
            waiting in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..7),
            own in (0.0f64..1.0, 0.0f64..1.0),
            variations in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0u64..3), 1..8),
            now in 0.0f64..0.5,
            // Half the books have no unplannable task.
            heavy in 0usize..14,
        ) {
            let (params, committed, queue, task) = book(&releases, &waiting, own, heavy);
            let cfg = PlanConfig::default();
            let now = SimTime::new(now * 1_000.0);
            let mut walk = ProbeWalk::new(
                &params, algorithm, &cfg, now, &committed, queue.iter().copied(), &task,
            );
            let literal = |t: &Task| {
                schedulability_test(&params, algorithm, &cfg, now, &committed, &queue, Some(t))
                    .map(drop)
            };
            prop_assert_eq!(walk.probe(&task), literal(&task));
            let grid = homogeneous::exec_time(&params, 100.0, NODES);
            for (s, d, id_kind) in variations {
                let varied = Task {
                    // Shorter *and* longer deadlines than the walk's own,
                    // on the waiting tasks' grid.
                    rel_deadline: (1.0 + (d * 12.0).floor()) * grid,
                    data_size: 20.0 + s * 380.0,
                    // An id below, among and above the waiting ids: the
                    // key's final tie-break goes both ways.
                    id: crate::task::TaskId([0, 3, 100][id_kind as usize]),
                    ..task
                };
                prop_assert_eq!(walk.probe(&varied), literal(&varied), "{:?}", varied);
            }
            // Long, short, long: behind the whole queue (the chain is built
            // to its end), back at the walk's own position, part of the way
            // out, and out again.
            let (own, far) = (task.rel_deadline, 13.0 * grid);
            for rel_deadline in [far, own, far, own + 2.0 * grid, far, own + grid] {
                let varied = Task { rel_deadline, ..task };
                prop_assert_eq!(walk.probe(&varied), literal(&varied), "{:?}", varied);
            }
            // Every waiting task's key tied exactly — id and all, so the
            // candidate lands right after it — and missed by one id either
            // way.
            for w in &queue {
                for id in [w.id.0 - 1, w.id.0, w.id.0 + 1] {
                    let varied = Task {
                        rel_deadline: w.rel_deadline,
                        id: crate::task::TaskId(id),
                        ..task
                    };
                    prop_assert_eq!(walk.probe(&varied), literal(&varied), "{:?}", varied);
                }
            }
        }
    }

    #[test]
    fn a_failing_prefix_fails_every_probe_behind_it_with_its_failure() {
        // Waiting task 1 can no longer be planned at `now` (its deadline
        // has passed), and sorts ahead of the candidate: the literal test
        // blames task 1 whatever the candidate looks like, and so must the
        // walk — from the recorded prefix failure, without planning.
        let params = ClusterParams::new(NODES, 1.0, 100.0).expect("valid params");
        let cfg = PlanConfig::default();
        let committed = vec![SimTime::ZERO; NODES];
        let stale = Task::new(1, 0.0, 100.0, 50.0);
        let task = Task::new(2, 1_000.0, 100.0, 1e6);
        let now = SimTime::new(1_000.0);
        let mut walk = ProbeWalk::new(
            &params,
            AlgorithmKind::EDF_DLT,
            &cfg,
            now,
            &committed,
            [stale].into_iter(),
            &task,
        );
        let literal = schedulability_test(
            &params,
            AlgorithmKind::EDF_DLT,
            &cfg,
            now,
            &committed,
            &[stale],
            Some(&task),
        )
        .map(drop);
        assert_eq!(literal.unwrap_err().task, stale.id);
        assert_eq!(walk.probe(&task), literal);
        let roomier = Task {
            rel_deadline: 1e9,
            ..task
        };
        assert_eq!(walk.probe(&roomier), literal);
    }

    #[test]
    fn a_failing_middle_task_fails_every_probe_behind_it_with_its_failure() {
        // Waiting task 2 is far too large for its deadline and sorts behind
        // the candidate's own position, between two plannable tasks. A
        // probe landing ahead of it meets it on its own walk; a probe
        // landing behind it — right behind, or behind task 3 as well —
        // gets the failure from the chain link, the candidate unplanned.
        // Either way the literal test blames task 2, and so must the walk.
        let params = ClusterParams::new(NODES, 1.0, 100.0).expect("valid params");
        let cfg = PlanConfig::default();
        let committed = vec![SimTime::ZERO; NODES];
        let waiting = [
            Task::new(1, 0.0, 100.0, 20_000.0),
            Task::new(2, 0.0, 1e6, 40_000.0),
            Task::new(3, 0.0, 100.0, 60_000.0),
        ];
        let task = Task::new(100, 0.0, 100.0, 10_000.0);
        let now = SimTime::ZERO;
        let mut walk = ProbeWalk::new(
            &params,
            AlgorithmKind::EDF_DLT,
            &cfg,
            now,
            &committed,
            waiting.into_iter(),
            &task,
        );
        // Long first: the chain is built through the failure to its end.
        for rel_deadline in [70_000.0, 10_000.0, 30_000.0, 50_000.0, 70_000.0] {
            let varied = Task {
                rel_deadline,
                ..task
            };
            let literal = schedulability_test(
                &params,
                AlgorithmKind::EDF_DLT,
                &cfg,
                now,
                &committed,
                &waiting,
                Some(&varied),
            )
            .map(drop);
            assert_eq!(literal.unwrap_err().task, waiting[1].id);
            assert_eq!(walk.probe(&varied), literal, "deadline {rel_deadline}");
        }
        // Without the heavy task the same probes pass: it is the failure.
        let light = [waiting[0], waiting[2]];
        assert!(schedulability_test(
            &params,
            AlgorithmKind::EDF_DLT,
            &cfg,
            now,
            &committed,
            &light,
            Some(&task),
        )
        .is_ok());
    }

    /// A two-node FIFO book for the start search, with hand-made plans:
    /// `(arrival, σ, relative deadline, node, first start, release)` per
    /// waiting task, ids from 1 in queue order.
    fn searched_book(rows: &[(f64, f64, f64, u32, f64, f64)]) -> Vec<(Task, TaskPlan)> {
        use crate::params::NodeId;
        use crate::strategy::StrategyKind;
        rows.iter()
            .enumerate()
            .map(
                |(i, &(arrival, sigma, rel_deadline, node, start, release))| {
                    let task = Task::new(i as u64 + 1, arrival, sigma, rel_deadline);
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
                },
            )
            .collect()
    }

    #[test]
    fn a_dispatch_from_behind_the_task_is_walked_not_skipped() {
        // Two instants at which the task stands on the same vector — both
        // plans that come due commit what was committed already — but at
        // the second the heavy task behind it has been dispatched: the
        // first instant failed on that task, the second admits. Only the
        // count of positions still waiting tells them apart.
        let params = ClusterParams::new(2, 1.0, 100.0).expect("valid params");
        let cfg = PlanConfig::default();
        let committed = vec![SimTime::new(1_000.0); 2];
        let queue = searched_book(&[
            (0.0, 1.0, 1e6, 0, 100.0, 1_000.0),
            (2.0, 10.0, 1_598.0, 1, 200.0, 1_000.0),
        ]);
        let task = Task::new(100, 1.0, 10.0, 2_999.0);
        let now = SimTime::new(1.0);
        let found = earliest_future_start(
            &params,
            AlgorithmKind::FIFO_DLT,
            &cfg,
            now,
            &committed,
            &queue,
            &task,
            |_, _| false,
        );
        assert_eq!(found, Some(SimTime::new(200.0)));
        // The oracle agrees, and blames the heavy task until then.
        use super::super::reference::ReferenceController;
        use super::super::{Admission, ControllerState};
        let oracle = ReferenceController::from_state(ControllerState {
            params,
            algorithm: AlgorithmKind::FIFO_DLT,
            cfg,
            releases: committed,
            queue: queue.clone(),
        })
        .expect("valid state");
        assert_eq!(oracle.earliest_feasible_start(&task, now), found);
        assert_eq!(
            oracle.probe_plan(&task, now).unwrap_err().task,
            queue[1].0.id
        );
    }

    #[test]
    fn an_instant_whose_clamp_moves_a_release_is_walked_not_skipped() {
        // Three instants, the same raw vector at the task's position each
        // time (the plans ahead of it write the same releases whether they
        // are dispatched or applied). At 120 it also clamps as it did at
        // 100, so that instant is skipped; at 400 the clamp lifts node 0
        // from 150 to 400, and the walk goes on to the task behind.
        let params = ClusterParams::new(2, 1.0, 100.0).expect("valid params");
        let cfg = PlanConfig::default();
        let committed = vec![SimTime::new(100.0); 2];
        let queue = searched_book(&[
            (0.0, 1.0, 1e6, 0, 100.0, 140.0),
            (0.1, 1.0, 1e6, 0, 120.0, 150.0),
            (0.2, 1.0, 1e6, 1, 400.0, 500.0),
            // Hopeless, and never dispatched within the search's horizon:
            // every instant fails on it.
            (2.0, 10.0, 10.0, 0, 9_000.0, 9_100.0),
        ]);
        let task = Task::new(100, 1.0, 10.0, 2_999.0);
        let walked = std::cell::RefCell::new(Vec::new());
        let found = earliest_future_start(
            &params,
            AlgorithmKind::FIFO_DLT,
            &cfg,
            SimTime::new(1.0),
            &committed,
            &queue,
            &task,
            |q, walk| {
                // The cached plans ahead of the task are vouched for; the
                // one behind it is planned, and seen to be.
                if q == 3 {
                    walked.borrow_mut().push(walk.now());
                }
                q < 3
            },
        );
        assert_eq!(found, None);
        assert_eq!(
            walked.into_inner(),
            vec![SimTime::new(100.0), SimTime::new(400.0)]
        );
    }
}
