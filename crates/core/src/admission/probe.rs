//! Many what-if admission tests against the engine's book: the verdict walk
//! and the start search.
//!
//! The counterfactual searches behind a refusal explanation
//! ([`ExplainSearch`](super::ExplainSearch)) ask the Fig. 2 question dozens
//! of times about *one* book and *one* task whose deadline or size is being
//! varied, the reservation search once per dispatch instant after `now`. All
//! of them walk the engine's own queue on its cache, verdict-only, on
//! [`AdmissionController::walk_positions`] (gates proved or compared as the
//! lemma in `incremental.rs` allows; where one fails, the task planned for
//! its verdict), and allocate nothing per step.
//!
//! A what-if test at one instant has two halves. The first walks the queue
//! ahead of the insertion point from the committed releases (on a settled
//! book a proved run and one rebase) and reads nothing of the candidate
//! ([`AdmissionController::stand`]); the second tests the candidate there
//! and walks the queue behind it. A search keeps the walk the first half
//! left at the last insertion point and copies it for every probe landing
//! there (`ProbeWalks`, `explain.rs`): no policy key reads σ, so the σ
//! search stands once, and so does a converging deadline bracket.
//!
//! The start search ([`AdmissionController::start_search`]) builds each
//! instant's post-dispatch book from the last one's, and walks books that
//! differ only in which waiting plans have been dispatched, so instant after
//! instant the walk arrives at the task's position on the same clamped
//! vector with the same tasks waiting behind it (the reuse invariant,
//! `incremental.rs`) — and from there could only repeat, step for step, the
//! instant before, which failed. Such an instant is refused on arrival; one
//! where a task behind the searched one has been dispatched, or where the
//! clamp at the new instant lifts a release, is walked on. Walking every
//! instant instead costs `admit_deep` 24 % (`BENCH_memo.json`).
//!
//! The unit tests here hold both against the literal test over random
//! books, cold (every position planned) and warm (cached plans applied).

use crate::task::Task;
use crate::time::SimTime;

use super::walk::{PlanMeta, Walk};
use super::{Admission, AdmissionController};

impl AdmissionController {
    /// [`Admission::earliest_start_after`] on this engine, which says why
    /// dispatch instants up to the task's deadline are the only candidates;
    /// which of them are refused on arrival is in the module docs. Every
    /// instant restarts `walk`.
    pub(super) fn start_search(
        &self,
        task: &Task,
        now: SimTime,
        walk: &mut Walk,
    ) -> Option<SimTime> {
        let (queue, cfg) = (self.queue(), self.config());
        let deadline = task.absolute_deadline();
        // The waiting positions in the order they fall due: the plans due at
        // an instant are a prefix of it, each instant's extending the last's.
        let mut by_start: Vec<(SimTime, usize)> = queue
            .iter()
            .enumerate()
            .map(|(q, (_, plan))| (plan.first_start(), q))
            .collect();
        by_start.sort_unstable();
        let mut last = None;
        let mut instants = by_start
            .iter()
            .map(|&(start, _)| start)
            .skip_while(|start| !start.definitely_after(now))
            .take_while(|start| !start.definitely_after(deadline))
            .filter(|&start| last.replace(start) != Some(start));
        // The queue is in policy order, and dropping the dispatched
        // positions from it keeps it so.
        let at = self.insertion_point(task);
        // The post-dispatch book, carried from instant to instant: the
        // releases, which due plan wrote each node last (its position + 1;
        // 0: none), how many of `by_start` have fallen due, and how many
        // positions behind the task are still waiting.
        let mut releases = self.committed_releases().to_vec();
        let mut owner = vec![0; releases.len()];
        let (mut fallen, mut waiting) = (0, queue.len() - at);
        // The last instant whose walk got as far as the task: its inputs
        // there, and how many positions behind it were still waiting
        // (`None`: no instant yet).
        let mut seen = PlanMeta::default();
        let mut seen_waiting = None;
        instants.find(|&t| {
            // The activation protocol is "dispatches at `t` commit first,
            // then the task is submitted", so each instant is tested against
            // the post-dispatch book, as `take_due` would leave it: every due
            // plan's release estimates committed in queue order, the rest
            // kept waiting. The due set need not be a queue prefix, and where
            // two due plans share a node the later *in the queue* must win,
            // whichever became due first: a plan falling due writes only the
            // nodes no due plan behind it in the queue has written.
            let due = |q: usize| queue[q].1.first_start().at_or_before_eps(t);
            let falling = by_start[fallen..].iter();
            for &(_, q) in falling.take_while(|(start, _)| start.at_or_before_eps(t)) {
                let plan = &queue[q].1;
                for (node, &release) in plan.nodes.iter().zip(&plan.node_release_estimates) {
                    let n = node.index();
                    if owner[n] <= q + 1 {
                        (releases[n], owner[n]) = (release, q + 1);
                    }
                }
                waiting -= usize::from(q >= at);
                fallen += 1;
            }
            walk.restart(&releases, t);
            if self.walk_positions(walk, 0..at, due).is_err() {
                return false;
            }
            // Dispatches only accumulate from instant to instant, so an equal
            // count is the same set of positions.
            if seen_waiting == Some(waiting) && seen.holds_for(walk, cfg) {
                debug_assert!(
                    {
                        let mut dispatched = self.clone();
                        let _ = dispatched.take_due(t);
                        dispatched.literal_test(task, t).is_err()
                    },
                    "a skipped instant would have admitted the task"
                );
                return false;
            }
            seen.record(walk);
            seen_waiting = Some(waiting);
            #[cfg(test)]
            WALKED_ON.with(|instants| instants.borrow_mut().push(t));
            self.test(task, walk)
                .and_then(|()| self.walk_positions(walk, at..queue.len(), due))
                .is_ok()
        })
    }
}

#[cfg(test)]
thread_local! {
    /// The instants the calling thread's start searches walked past the
    /// task's position (the others were refused ahead of it, or skipped).
    pub(super) static WALKED_ON: std::cell::RefCell<Vec<SimTime>> = Default::default();
}

#[cfg(test)]
mod tests {
    use super::super::{ControllerState, ProbeWalks};
    use super::*;
    use crate::algorithm::AlgorithmKind;
    use crate::dlt::homogeneous;
    use crate::params::ClusterParams;
    use crate::strategy::{PlanConfig, StrategyKind, TaskPlan};
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

    /// A cold engine holding exactly `waiting` (unplannable tasks and all)
    /// behind `committed`: restored, so no plan in it is vouched for and
    /// every position of every walk is planned.
    fn restored(
        params: ClusterParams,
        algorithm: AlgorithmKind,
        committed: &[SimTime],
        waiting: &[Task],
    ) -> AdmissionController {
        let mut ordered = waiting.to_vec();
        algorithm.policy.sort(&mut ordered);
        // A one-chunk placeholder, never dispatched within a test and never
        // read by a walk (no cached inputs vouch for it).
        let unplanned = |task: &Task| TaskPlan {
            task: task.id,
            strategy: StrategyKind::DltIit,
            nodes: vec![crate::params::NodeId(0)],
            start_times: vec![SimTime::FAR_FUTURE],
            fractions: vec![1.0],
            est_completion: SimTime::FAR_FUTURE,
            node_release_estimates: vec![SimTime::FAR_FUTURE],
        };
        AdmissionController::from_state(ControllerState {
            params,
            algorithm,
            cfg: PlanConfig::default(),
            releases: committed.to_vec(),
            queue: ordered.iter().map(|t| (*t, unplanned(t))).collect(),
        })
        .expect("valid state")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// A search's probe path ([`ProbeWalks`]: one walk stood at the last
        /// insertion point and copied by every probe landing there) answers
        /// exactly what the literal test answers — verdict and first failure
        /// — for the searched task, for variations sorting behind it in any
        /// order of asking, one set of walks reused across them all, so the
        /// stood walk is met again at a point left earlier and replaced at
        /// every other, for variations sorting *ahead* of it, for
        /// keys that tie a waiting task's, and with a waiting task that
        /// cannot be planned anywhere in the order (its failure is every
        /// probe's behind it). The reservation search answers `now` exactly
        /// when the literal test passes there. On a cold engine — the book
        /// restored as drawn, every position planned — and on a warm one:
        /// what of the book `submit` admits, its cached plans applied
        /// wherever the candidate has not perturbed them.
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
            let now = SimTime::new(now * 1_000.0);
            let cold = restored(params, algorithm, &committed, &queue);
            let mut warm = AdmissionController::new(params, algorithm, PlanConfig::default());
            for (node, release) in committed.iter().enumerate() {
                warm.set_node_release(node, *release);
            }
            for waiting in &queue {
                let _ = warm.submit(*waiting, now);
            }
            let grid = homogeneous::exec_time(&params, 100.0, NODES);
            for engine in [&cold, &warm] {
                prop_assert_eq!(
                    engine.earliest_feasible_start(&task, now) == Some(now),
                    engine.literal_test(&task, now).is_ok()
                );
                let mut walks = ProbeWalks::default();
                let mut probe = |candidate: &Task| walks.verdict(engine, candidate, now);
                prop_assert_eq!(probe(&task), engine.literal_test(&task, now));
                for &(s, d, id_kind) in &variations {
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
                    prop_assert_eq!(probe(&varied), engine.literal_test(&varied, now), "{:?}", varied);
                }
                // Long, short, long: behind the whole queue, back at the
                // searched task's own position, part of the way out, and out
                // again.
                let (own, far) = (task.rel_deadline, 13.0 * grid);
                for rel_deadline in [far, own, far, own + 2.0 * grid, far, own + grid] {
                    let varied = Task { rel_deadline, ..task };
                    prop_assert_eq!(probe(&varied), engine.literal_test(&varied, now), "{:?}", varied);
                }
                // Every waiting task's key tied exactly — id and all, so the
                // candidate lands right after it — and missed by one id
                // either way.
                for (w, _) in engine.queue() {
                    for id in [w.id.0 - 1, w.id.0, w.id.0 + 1] {
                        let varied = Task {
                            rel_deadline: w.rel_deadline,
                            id: crate::task::TaskId(id),
                            ..task
                        };
                        prop_assert_eq!(probe(&varied), engine.literal_test(&varied, now), "{:?}", varied);
                    }
                }
            }
        }
    }

    #[test]
    fn a_node_written_by_two_due_plans_keeps_the_later_one_in_the_queue() {
        // One node. Waiting task 2 sorts behind task 1 but falls due first
        // (at 100, against 200), and both write the node: at 200 the book
        // `take_due` leaves has task 2's estimate, 300, not task 1's, 500 —
        // the later in the queue wins, whichever fell due first. The
        // candidate passes from 300 (done at 401, due 500), not from 500.
        // (`tests/engine_vs_oracle.rs` holds the oracle to the same answer.)
        let params = ClusterParams::new(1, 1.0, 100.0).expect("valid params");
        let plan = |task: u64, start: f64, release: f64| TaskPlan {
            task: crate::task::TaskId(task),
            strategy: StrategyKind::DltIit,
            nodes: vec![crate::params::NodeId(0)],
            start_times: vec![SimTime::new(start)],
            fractions: vec![1.0],
            est_completion: SimTime::new(release),
            node_release_estimates: vec![SimTime::new(release)],
        };
        let (first, second) = (Task::new(1, 0.0, 1.0, 150.0), Task::new(2, 0.0, 1.0, 200.0));
        let state = ControllerState {
            params,
            algorithm: AlgorithmKind::EDF_DLT,
            cfg: PlanConfig::default(),
            releases: vec![SimTime::ZERO],
            queue: vec![
                (first, plan(1, 200.0, 500.0)),
                (second, plan(2, 100.0, 300.0)),
            ],
        };
        let engine = AdmissionController::from_state(state).expect("valid state");
        let task = Task::new(3, 0.0, 1.0, 500.0);
        let now = SimTime::ZERO;
        // Refused now (task 2 misses behind task 1) and at 100 (task 1,
        // still waiting, starts at 300).
        assert!(engine.literal_test(&task, now).is_err());
        assert_eq!(
            engine.earliest_start_after(&task, now),
            Some(SimTime::new(200.0))
        );
    }

    #[test]
    fn a_failing_prefix_fails_every_probe_behind_it_with_its_failure() {
        // Waiting task 1 can no longer be planned at `now` (its deadline
        // has passed), and sorts ahead of the candidate: the literal test
        // blames task 1 whatever the candidate looks like, and so must the
        // walk — on task 1, without planning the candidate.
        let params = ClusterParams::new(NODES, 1.0, 100.0).expect("valid params");
        let stale = Task::new(1, 0.0, 100.0, 50.0);
        let task = Task::new(2, 1_000.0, 100.0, 1e6);
        let now = SimTime::new(1_000.0);
        let engine = restored(
            params,
            AlgorithmKind::EDF_DLT,
            &[SimTime::ZERO; NODES],
            &[stale],
        );
        let mut walks = ProbeWalks::default();
        let literal = engine.literal_test(&task, now);
        assert_eq!(literal.unwrap_err().task, stale.id);
        assert_eq!(walks.verdict(&engine, &task, now), literal);
        let roomier = Task {
            rel_deadline: 1e9,
            ..task
        };
        assert_eq!(walks.verdict(&engine, &roomier, now), literal);
    }

    #[test]
    fn a_failing_middle_task_fails_every_probe_behind_it_with_its_failure() {
        // Waiting task 2 is far too large for its deadline and sorts behind
        // the candidate's own position, between two plannable tasks. A
        // probe landing ahead of it meets it on its own walk; a probe
        // landing behind it — right behind, or behind task 3 as well —
        // meets it ahead of the candidate, the candidate unplanned.
        // Either way the literal test blames task 2, and so must the walk.
        let params = ClusterParams::new(NODES, 1.0, 100.0).expect("valid params");
        let committed = [SimTime::ZERO; NODES];
        let waiting = [
            Task::new(1, 0.0, 100.0, 20_000.0),
            Task::new(2, 0.0, 1e6, 40_000.0),
            Task::new(3, 0.0, 100.0, 60_000.0),
        ];
        let task = Task::new(100, 0.0, 100.0, 10_000.0);
        let now = SimTime::ZERO;
        let engine = restored(params, AlgorithmKind::EDF_DLT, &committed, &waiting);
        let mut walks = ProbeWalks::default();
        // Long first, then short: one walk reused, whatever was asked before.
        for rel_deadline in [70_000.0, 10_000.0, 30_000.0, 50_000.0, 70_000.0] {
            let varied = Task {
                rel_deadline,
                ..task
            };
            let literal = engine.literal_test(&varied, now);
            assert_eq!(literal.unwrap_err().task, waiting[1].id);
            let verdict = walks.verdict(&engine, &varied, now);
            assert_eq!(verdict, literal, "deadline {rel_deadline}");
        }
        // Without the heavy task the same probes pass: it is the failure.
        let light = restored(
            params,
            AlgorithmKind::EDF_DLT,
            &committed,
            &[waiting[0], waiting[2]],
        );
        assert!(light.literal_test(&task, now).is_ok());
    }
}
