//! Refusal explanations: why a submission failed the Fig. 2 test, and what
//! would have passed.
//!
//! The search is resumable ([`ExplainSearch`]): [`open`] finds the binding
//! cause and a [`Bracket`] around the counterfactual deadline, each
//! [`refine`] halves that bracket once, and [`finish`] tightens what is
//! left of it and adds the counterfactual size and start. A single
//! explanation is `open` → `finish`. A fleet compares shards by deadline
//! alone, so it opens a search per shard, refines them side by side,
//! abandons a search whose bracket already lies wholly above another's, and
//! finishes only the winner's. Every probe is one verdict walk
//! (`AdmissionController::verdict`, `probe.rs`) over the engine's own book
//! and cache, from the front of the queue, on one walk the search reuses.
//!
//! [`open`]: ExplainSearch::open
//! [`refine`]: ExplainSearch::refine
//! [`finish`]: ExplainSearch::finish

use serde::{Deserialize, Serialize};

use crate::error::Infeasible;
use crate::task::Task;
use crate::time::SimTime;

use super::walk::Walk;
use super::{Admission, AdmissionController};

/// A structured account of why a submission failed the schedulability test
/// at a given instant, with honest counterfactuals: every suggested value
/// was verified by actually running the test against the engine's observed
/// book (committed releases + waiting queue), so resubmitting at the
/// suggestion — against an unchanged book — passes by construction.
///
/// Attached to `Rejected`/`Deferred` verdicts as an additive wire field and
/// served on demand by the ops channel's `Explain` query. All-scalar and
/// `Copy`; "no suggestion" travels as documented sentinel values so the
/// struct stays trivially serializable.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct AdmissionExplanation {
    /// The binding rejection cause at the probe instant.
    pub cause: Infeasible,
    /// The probe instant the explanation is relative to. Feasibility
    /// between dispatch instants is decided at the interval's left endpoint
    /// (availability is `max(r, t)`, non-decreasing in `t`), so this is the
    /// binding dispatch instant for the verdict it explains.
    pub at: SimTime,
    /// How much more relative deadline the request needed:
    /// `min_feasible_deadline − rel_deadline`. 0 when no feasible deadline
    /// was found within the search horizon.
    pub slack_deficit: f64,
    /// A relative deadline *verified* to pass the test with the request
    /// otherwise unchanged — the feasible end of a bisection bracket whose
    /// other end, a relative 10⁻⁹ below it, fails; 0 when none was found. Honest by resubmission and tight at its own bracket, but not
    /// guaranteed the global minimum: against committed releases alone the
    /// test is monotone in the deadline and the two coincide; with waiting
    /// work it is not (under EDF a longer deadline moves the request behind
    /// a waiting task that then takes its nodes), so a shorter feasible
    /// deadline can exist outside the bracket.
    pub min_feasible_deadline: f64,
    /// The largest data size σ (bisection-tight) that passes the test with
    /// the request otherwise unchanged; 0 when even a near-zero σ fails.
    pub max_feasible_sigma: f64,
    /// The earliest instant `t ≥ at` at which the unchanged request would
    /// pass (the reservation search); negative when no dispatch of the
    /// current queue ever makes room.
    pub earliest_feasible_start: f64,
}

impl AdmissionExplanation {
    /// `true` when a feasible counterfactual deadline was found.
    pub fn has_feasible_deadline(&self) -> bool {
        self.min_feasible_deadline > 0.0
    }

    /// `true` when a feasible counterfactual data size was found.
    pub fn has_feasible_sigma(&self) -> bool {
        self.max_feasible_sigma > 0.0
    }

    /// `true` when waiting (without renegotiating) eventually admits.
    pub fn has_feasible_start(&self) -> bool {
        self.earliest_feasible_start >= 0.0
    }
}

/// Relative convergence tolerance for the counterfactual bisections: the
/// reported suggestion is the *feasible* end of a bracket this tight, so a
/// renegotiated request even marginally looser is also feasible.
pub(super) const EXPLAIN_TOL: f64 = 1e-9;

/// A counterfactual bisection in progress: a value known to fail the test
/// and one known to pass it (either may be the larger). The value the
/// search will report — the passing end once [`done`](Bracket::done) — lies
/// in `(failing, passing]` of every bracket on the way there, whatever the
/// test answers in between: that is all a caller may conclude from an
/// unfinished bracket (the test is not monotone, so nothing follows about
/// values outside it).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Bracket {
    /// The end known to fail.
    pub failing: f64,
    /// The end known to pass.
    pub passing: f64,
    /// Evaluations left before the search stops regardless.
    budget: u32,
}

impl Bracket {
    fn new(failing: f64, passing: f64) -> Self {
        Bracket {
            failing,
            passing,
            budget: 64,
        }
    }

    /// `true` once the bracket is [`EXPLAIN_TOL`]-tight (or its evaluation
    /// budget is spent): `passing` is then the search's answer.
    pub fn done(&self) -> bool {
        self.budget == 0
            || (self.passing - self.failing).abs()
                <= EXPLAIN_TOL * self.passing.max(self.failing).max(1.0)
    }

    /// Tests the midpoint and moves the end it agrees with there.
    fn step(&mut self, feasible: impl FnOnce(f64) -> bool) {
        debug_assert!(!self.done(), "stepping a converged bracket");
        self.budget -= 1;
        let mid = 0.5 * (self.failing + self.passing);
        if feasible(mid) {
            self.passing = mid;
        } else {
            self.failing = mid;
        }
    }
}

/// A refusal explanation in progress: the cause and a bracket around the
/// counterfactual deadline are known ([`ExplainSearch::open`]), the bracket
/// can be halved step by step ([`ExplainSearch::refine`]), and the
/// counterfactual size and start are still to be searched
/// ([`ExplainSearch::finish`]).
pub struct ExplainSearch<'a> {
    /// The engine whose book at `now`, the refusal's instant, every probe
    /// tests against.
    engine: &'a AdmissionController,
    now: SimTime,
    /// The walk every probe restarts, reused across probes.
    walk: Walk,
    /// Tests answered so far.
    probes: u64,
    task: Task,
    cause: Infeasible,
    /// `None` when no feasible deadline was found within the horizon.
    deadline: Option<Bracket>,
}

impl<'a> ExplainSearch<'a> {
    /// One probe: whether `candidate` passes against the book.
    fn passes(&mut self, candidate: &Task) -> bool {
        self.probes += 1;
        let verdict = self.engine.verdict(candidate, self.now, &mut self.walk);
        verdict.is_ok()
    }

    /// One probe of a deadline search: whether the task passes with the
    /// relative deadline `d`.
    fn passes_by(&mut self, d: f64) -> bool {
        let relaxed = Task {
            rel_deadline: d,
            ..self.task
        };
        self.passes(&relaxed)
    }

    /// Runs the Fig. 2 test for `task` at `now` against `engine`'s book —
    /// `None` when it is in fact feasible as-is — and, for a refusal,
    /// brackets the counterfactual deadline: the upper probe is seeded at
    /// the analytic full-cluster slack floor
    /// ([`crate::nmin::min_feasible_slack`]) measured from the latest
    /// committed release and doubled until feasible; the refused deadline
    /// is the bracket's failing end. Bisecting it down is
    /// [`refine`](ExplainSearch::refine)'s.
    pub fn open(engine: &'a AdmissionController, task: &Task, now: SimTime) -> Option<Self> {
        let mut walk = Walk::new(&[], now);
        let cause = match engine.verdict(task, now, &mut walk) {
            Ok(()) => return None,
            Err(f) => f.reason,
        };
        let mut search = ExplainSearch {
            engine,
            now,
            walk,
            probes: 1,
            task: *task,
            cause,
            deadline: None,
        };

        // The original deadline is known-infeasible (that is the rejection
        // being explained), so it anchors the bracket's low end once a
        // feasible high end is found.
        let horizon = {
            let committed = engine.committed_releases().iter().copied();
            let last_release = committed.fold(now, SimTime::max);
            let floor = crate::nmin::min_feasible_slack(engine.params(), task.data_size);
            (last_release.as_f64() - task.arrival.as_f64()).max(0.0) + floor
        };
        let mut hi = task.rel_deadline.max(horizon);
        let mut found = search.passes_by(hi);
        for _ in 0..64 {
            if found || !hi.is_finite() {
                break;
            }
            hi *= 2.0;
            found = hi.is_finite() && search.passes_by(hi);
        }
        search.deadline = found.then(|| Bracket::new(task.rel_deadline, hi));
        Some(search)
    }

    /// Where the counterfactual deadline search stands — the one thing a
    /// fleet compares its shards' searches by: what
    /// [`AdmissionExplanation::min_feasible_deadline`] will be lies in
    /// `(failing, passing]`, and is `passing` once the bracket is
    /// [`done`](Bracket::done). `None` when no feasible deadline was found.
    pub fn deadline_bracket(&self) -> Option<Bracket> {
        self.deadline
    }

    /// One bisection step of the deadline search; `false` when there was
    /// none to take (converged, or no feasible deadline to converge on).
    /// The midpoints a search tests depend on nothing but its own book, so
    /// searches refined in any interleaving end where they would alone.
    pub fn refine(&mut self) -> bool {
        let Some(mut bracket) = self.deadline.filter(|b| !b.done()) else {
            return false;
        };
        bracket.step(|d| self.passes_by(d));
        self.deadline = Some(bracket);
        true
    }

    /// How many tests this search has run so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Completes the explanation: the deadline bracket is tightened the
    /// rest of the way, the σ search bisects between a near-zero size and
    /// the rejected size the way the deadline search does, and the
    /// reservation search ([`Admission::earliest_start_after`]) names
    /// the earliest later instant the unchanged request would pass at.
    pub fn finish(mut self) -> AdmissionExplanation {
        while self.refine() {}
        // 0 stands for "no feasible deadline found".
        let min_feasible_deadline = self.deadline.map_or(0.0, |b| b.passing);
        let task = self.task;
        let mut feasible = |s: f64| {
            self.passes(&Task {
                data_size: s,
                ..task
            })
        };
        // Near-zero is the best case; if even that fails the deadline is
        // hopeless at any size and no suggestion is made.
        let tiny = task.data_size * 1e-9;
        let max_feasible_sigma = if tiny > 0.0 && feasible(tiny) {
            let mut sigma = Bracket::new(task.data_size, tiny);
            while !sigma.done() {
                sigma.step(&mut feasible);
            }
            sigma.passing
        } else {
            0.0
        };

        // `open` failed the test at `now` itself, so only later instants
        // are left to search — by the engine's own search.
        let now = self.now;
        let earliest = self.engine.earliest_start_after(&task, now);
        AdmissionExplanation {
            cause: self.cause,
            at: now,
            slack_deficit: if min_feasible_deadline > 0.0 {
                min_feasible_deadline - task.rel_deadline
            } else {
                0.0
            },
            min_feasible_deadline,
            max_feasible_sigma,
            earliest_feasible_start: earliest.map(|t| t.as_f64()).unwrap_or(-1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::reference::ReferenceController;
    use super::*;
    use crate::algorithm::AlgorithmKind;
    use crate::params::ClusterParams;
    use crate::strategy::PlanConfig;

    #[test]
    fn explain_is_none_for_feasible_and_honest_for_infeasible() {
        use crate::request::SubmitRequest;
        let p = ClusterParams::paper_baseline();
        let mut c = AdmissionController::new(p, AlgorithmKind::EDF_DLT, PlanConfig::default());
        // Busy cluster: every node committed until t = 5000.
        for node in 0..p.num_nodes {
            c.set_node_release(node, SimTime::new(5000.0));
        }
        let roomy = SubmitRequest::new(Task::new(1, 0.0, 200.0, 50_000.0));
        assert!(c.explain(&roomy, SimTime::ZERO).is_none());
        // A deadline entirely inside the busy window can never be met.
        let tight = Task::new(2, 0.0, 200.0, 300.0);
        let ex = c
            .explain(&SubmitRequest::new(tight), SimTime::ZERO)
            .unwrap();
        assert_eq!(ex.at, SimTime::ZERO);
        assert_eq!(ex.cause, Infeasible::DeadlineBeforeStart);
        assert!(ex.has_feasible_deadline());
        assert!((ex.slack_deficit - (ex.min_feasible_deadline - 300.0)).abs() < 1e-9);
        // Honesty: the suggestion passes, marginally tighter does not.
        let ok = Task {
            rel_deadline: ex.min_feasible_deadline,
            ..tight
        };
        assert!(c.probe(&ok, SimTime::ZERO).is_accepted());
        let tighter = Task {
            rel_deadline: ex.min_feasible_deadline * 0.999,
            ..tight
        };
        assert!(!c.probe(&tighter, SimTime::ZERO).is_accepted());
        // No size fits a deadline that expires before any node frees, and
        // with an empty waiting queue no dispatch ever makes room.
        assert!(!ex.has_feasible_sigma());
        assert!(!ex.has_feasible_start());
    }

    #[test]
    fn explain_sigma_counterfactual_is_honest() {
        use crate::dlt::homogeneous;
        use crate::request::SubmitRequest;
        let p = ClusterParams::paper_baseline();
        let c = AdmissionController::new(p, AlgorithmKind::EDF_DLT, PlanConfig::default());
        // Idle cluster, but σ is twice what the deadline can absorb.
        let sigma = 800.0;
        let e16 = homogeneous::exec_time(&p, sigma, p.num_nodes);
        let heavy = Task::new(3, 0.0, sigma, e16 * 0.5);
        let ex = c
            .explain(&SubmitRequest::new(heavy), SimTime::ZERO)
            .unwrap();
        assert!(ex.has_feasible_sigma());
        assert!(ex.max_feasible_sigma < sigma);
        let ok = Task {
            data_size: ex.max_feasible_sigma,
            ..heavy
        };
        assert!(c.probe(&ok, SimTime::ZERO).is_accepted());
        let heavier = Task {
            data_size: ex.max_feasible_sigma * 1.001,
            ..heavy
        };
        assert!(!c.probe(&heavier, SimTime::ZERO).is_accepted());
        // The oracle's literal search explains identically.
        let oracle = ReferenceController::new(p, AlgorithmKind::EDF_DLT, PlanConfig::default());
        assert_eq!(
            oracle.explain(&SubmitRequest::new(heavy), SimTime::ZERO),
            Some(ex)
        );
    }

    #[test]
    fn a_bracket_holds_its_answer_at_every_step_whatever_the_test_answers() {
        // What a fleet's race relies on, on a test that is not monotone
        // (passes below 0.2 and from 0.7 up): the answer lies in
        // `(failing, passing]` of every bracket on the way to it.
        let feasible = |x: f64| !(0.2..0.7).contains(&x);
        let mut bracket = Bracket::new(0.5, 1.0);
        let mut on_the_way = vec![bracket];
        while !bracket.done() {
            bracket.step(feasible);
            on_the_way.push(bracket);
        }
        assert!(feasible(bracket.passing) && !feasible(bracket.failing));
        assert!(bracket.passing - bracket.failing <= EXPLAIN_TOL);
        for earlier in on_the_way {
            assert!(earlier.failing < bracket.passing && bracket.passing <= earlier.passing);
        }
        // Either end may be the larger (the σ search's failing end is).
        let mut down = Bracket::new(1.0, 0.0);
        while !down.done() {
            down.step(|x| x <= 0.25);
        }
        assert!(down.passing <= 0.25 && 0.25 - down.passing <= EXPLAIN_TOL);
        // A bracket too wide to tighten stops after 64 evaluations, and
        // the tolerance is checked before each of them.
        let mut evaluations = 0;
        let mut wide = Bracket::new(0.0, 1e300);
        while !wide.done() {
            wide.step(|_| {
                evaluations += 1;
                true
            });
        }
        assert_eq!(evaluations, 64);
        assert!(Bracket::new(1.0, 1.0 + 1e-10).done());
    }

    #[test]
    fn a_search_refined_step_by_step_ends_where_finish_alone_does() {
        // The non-monotone two-node book of the test below, refused at 1850.
        let p = ClusterParams::new(2, 1.0, 100.0).unwrap();
        let mut c = AdmissionController::new(p, AlgorithmKind::EDF_DLT, PlanConfig::default());
        assert!(c
            .submit(Task::new(1, 0.0, 10.0, 1750.0), SimTime::ZERO)
            .is_accepted());
        let task = Task::new(2, 0.0, 20.0, 1850.0);
        let open = || ExplainSearch::open(&c, &task, SimTime::ZERO).expect("refused");
        let alone = open().finish();
        let mut stepped = open();
        let mut brackets = vec![stepped.deadline_bracket().expect("a feasible deadline")];
        assert_eq!(brackets[0].failing, 1850.0);
        let opened_with = stepped.probes();
        while stepped.refine() {
            brackets.push(stepped.deadline_bracket().expect("kept"));
        }
        assert!(brackets.len() > 20, "the bracket was found, not tightened");
        assert_eq!(
            stepped.probes(),
            opened_with + brackets.len() as u64 - 1,
            "one probe per step"
        );
        let last = *brackets.last().expect("at least the opening bracket");
        assert!(last.done() && !stepped.refine());
        let explained = stepped.finish();
        assert_eq!(explained, alone);
        assert_eq!(explained.min_feasible_deadline, last.passing);
        for b in brackets {
            assert!(b.failing < last.passing && last.passing <= b.passing);
        }
    }

    #[test]
    fn feasibility_is_not_monotone_in_the_deadline_once_work_is_waiting() {
        // Why `min_feasible_deadline` promises "verified, tight at its
        // bracket" and not "globally minimal", and why a fleet may not
        // prune a shard by testing it at another shard's deadline.
        //
        // Two idle nodes. W (σ 10, deadline 1750) waits; on its own it is
        // planned on one node, until 1010. C (σ 20) needs both nodes from
        // the start to finish by 1600 — and with that deadline EDF plans it
        // *ahead* of W: C holds both nodes until ≈ 1015, W follows on both
        // and finishes ≈ 1522, inside its 1750. With deadline 1850 C sorts
        // *behind* W, W takes its one node until 1010, and what is left
        // cannot finish σ 20 by 1850. A longer deadline still (one node
        // alone needs 2020) passes again.
        let p = ClusterParams::new(2, 1.0, 100.0).unwrap();
        let mut c = AdmissionController::new(p, AlgorithmKind::EDF_DLT, PlanConfig::default());
        assert!(c
            .submit(Task::new(1, 0.0, 10.0, 1750.0), SimTime::ZERO)
            .is_accepted());
        let candidate = |d: f64| Task::new(2, 0.0, 20.0, d);
        assert!(c.probe(&candidate(1600.0), SimTime::ZERO).is_accepted());
        assert!(!c.probe(&candidate(1850.0), SimTime::ZERO).is_accepted());
        assert!(c.probe(&candidate(2100.0), SimTime::ZERO).is_accepted());
        // The explanation of the refusal at 1850 is honest — its deadline
        // admits — though a *shorter* one (1600) would have too.
        let ex = c
            .explain(
                &crate::request::SubmitRequest::new(candidate(1850.0)),
                SimTime::ZERO,
            )
            .unwrap();
        assert!(ex.min_feasible_deadline > 1850.0);
        assert!(c
            .probe(&candidate(ex.min_feasible_deadline), SimTime::ZERO)
            .is_accepted());
    }
}
