//! The differential oracle: every scenario is replayed through the
//! production engine — the diff-based [`AdmissionController`] — and the
//! literal Fig. 2 full replan, [`ReferenceController`], and the two must
//! agree **exactly** after every single operation: same decisions, same
//! plans, same committed releases, same serialized [`ControllerState`],
//! same backlog and dispatch horizon.
//!
//! Because the production engine can silently diverge (a reuse gate that
//! is one epsilon too permissive would admit a task the reference engine
//! rejects, or install a stale plan), this suite is the heart of the
//! engine's correctness story: scenarios cover streaming submissions,
//! same-instant bursts, dispatches, early node releases, replans, demote-style removals, mid-scenario restores from the
//! journaled image (a cold reuse cache), submissions stamped before the
//! scenario clock (a pass at an instant earlier than the one its cached
//! plans were planned at), and real workload streams (Poisson, bursty, and
//! heavy-tailed sizes) at >1000 generated cases.
//!
//! Refusal explanations are compared the same way, as whole values: the
//! production engine explains with a verdict walk per probe on its reuse
//! cache, the oracle with a from-scratch `schedulability_test` per probe.
//!
//! So is the reservation search: the production engine walks each future
//! dispatch instant once, applying the cached plans its reuse gate still
//! vouches for, the oracle replans the whole remaining queue per instant.
//! Both the search after `now` (`earliest_start_after`, what the service
//! asks a shard that has just refused, so it also runs after every refused
//! submission) and its composition with the test at `now`
//! (`earliest_feasible_start`) are compared.
//! Besides its own op the search also runs right after every restore (cold
//! cache: every gate misses) and every early release (stale cache: the
//! gates of what the release perturbs must fail); an explanation runs the
//! same search with no cache at all.
//!
//! And so is a refusal asked about again: the production engine remembers
//! the refusals it hands out and answers a re-submission from memory while
//! the walk reaches the task on unchanged inputs, the oracle replans. Tasks
//! either engine refused are re-submitted as-is by an op of their own and
//! right after everything that can change the answer under them — a
//! dispatch, an early release, a removal, a restore. (In debug builds every
//! remembered refusal that is used, and every instant the reservation search
//! skips, is also held against the literal test on the spot, so the whole
//! suite checks the shortcut wherever it fires.)
//!
//! On divergence the failing scenario is greedily *shrunk* — ops are
//! removed one at a time while the divergence persists — and the minimal
//! reproducer is printed in the panic message.

use proptest::prelude::*;
use rtdls_core::admission::reference::ReferenceController;
use rtdls_core::dlt::homogeneous;
use rtdls_core::prelude::*;
use rtdls_workload::prelude::*;

/// One scripted operation, derived from raw generated floats so scenarios
/// stay self-contained and trivially shrinkable.
#[derive(Clone, Debug)]
enum Op {
    Submit {
        sigma: f64,
        dc: f64,
        dt: f64,
        user: Option<usize>,
    },
    Probe {
        sigma: f64,
        dc: f64,
    },
    EarliestFeasibleStart {
        sigma: f64,
        dc: f64,
    },
    Explain {
        sigma: f64,
        dc: f64,
    },
    TakeDue {
        dt: f64,
    },
    /// An early node release, then a reservation search against the now
    /// stale reuse cache.
    EarlyRelease {
        node: usize,
        frac: f64,
        sigma: f64,
        dc: f64,
    },
    Replan {
        dt: f64,
    },
    RemoveWaiting {
        pick: usize,
    },
    /// Crash recovery at engine level: both engines are rebuilt from the
    /// production engine's journaled image; then a reservation search
    /// against the cold reuse cache.
    Thaw {
        sigma: f64,
        dc: f64,
    },
    /// One task refused earlier in the run, submitted again as it was.
    Resubmit {
        pick: usize,
    },
    /// A submission stamped `back` before the scenario clock: a pass at an
    /// instant earlier than the ones the cached plans were planned at.
    SubmitEarlier {
        sigma: f64,
        dc: f64,
        back: f64,
    },
}

/// Decodes a raw generated tuple into an [`Op`]. Pure, so the same raw
/// scenario always replays identically.
fn decode(raw: &(u8, f64, f64, f64)) -> Op {
    let (kind, a, b, c) = *raw;
    let sigma = 10.0 + a * 790.0;
    let user = (b > 0.25).then(|| 1 + (a * 97.0) as usize % 16);
    match kind % 12 {
        // Submissions get double weight (0 and 1): they are the hot path.
        0 | 1 => Op::Submit {
            sigma,
            dc: 0.3 + b * 15.0,
            dt: c * 1_500.0,
            user,
        },
        2 => Op::Probe {
            sigma,
            dc: 0.3 + b * 15.0,
        },
        3 => Op::TakeDue { dt: a * 2_000.0 },
        4 => Op::EarlyRelease {
            node: (a * 1_000.0) as usize,
            frac: b,
            sigma: 10.0 + c * 790.0,
            dc: 0.2 + (c * 7.0).fract() * 3.0,
        },
        5 => Op::Replan { dt: a * 500.0 },
        6 => Op::RemoveWaiting {
            pick: (a * 1_000.0) as usize,
        },
        8 => Op::Thaw {
            sigma,
            dc: 0.2 + b * 3.0,
        },
        // Tight factors again, spread wider: an explanation is only
        // searched for a refusal, and where the candidate sorts in the
        // waiting queue decides how much of the walk is shared.
        9 => Op::Explain {
            sigma,
            dc: 0.2 + b * 6.0,
        },
        10 => Op::Resubmit {
            pick: (a * 1_000.0) as usize,
        },
        11 => Op::SubmitEarlier {
            sigma,
            dc: 0.3 + b * 15.0,
            back: c * 1_500.0,
        },
        // Deliberately tight deadline factors: the reservation search only
        // does interesting work on tasks the plain test rejects.
        _ => Op::EarliestFeasibleStart {
            sigma,
            dc: 0.2 + b * 3.0,
        },
    }
}

/// Both engines side by side, plus the scenario clock and id allocator.
struct Harness {
    full: ReferenceController,
    inc: AdmissionController,
    now: f64,
    next_id: u64,
    /// The tasks refused most recently — more of them than the production
    /// engine remembers refusals.
    refused: Vec<Task>,
}

/// How many refused tasks the harness keeps asking about.
const REFUSED_KEPT: usize = 12;

impl Harness {
    fn new(algorithm: AlgorithmKind) -> Self {
        let params = ClusterParams::paper_baseline();
        let cfg = PlanConfig::default();
        Harness {
            full: ReferenceController::new(params, algorithm, cfg),
            inc: AdmissionController::new(params, algorithm, cfg),
            now: 0.0,
            next_id: 0,
            refused: Vec::new(),
        }
    }

    /// Submits `task` to both engines at the scenario clock; a refused task
    /// is kept for asking again, an admitted one no longer is.
    fn submit(&mut self, task: Task) -> Result<(), String> {
        let now = SimTime::new(self.now);
        let a = self.full.submit(task, now);
        let b = self.inc.submit(task, now);
        if a != b {
            return Err(format!("decision on {task:?} diverged {a:?} vs {b:?}"));
        }
        self.refused.retain(|t| *t != task);
        if !a.is_accepted() {
            if self.refused.len() == REFUSED_KEPT {
                self.refused.remove(0);
            }
            self.refused.push(task);
        }
        Ok(())
    }

    /// Asks again about every refused task, as it was, with the engines'
    /// whole state compared after each.
    fn resubmit_refused(&mut self, context: &str) -> Result<(), String> {
        for task in self.refused.clone() {
            self.submit(task)
                .map_err(|e| format!("{context}: asked again: {e}"))?;
            self.check(&format!("{context}: asked again about {:?}", task.id))?;
        }
        Ok(())
    }

    fn mk_task(&mut self, sigma: f64, dc: f64, user: Option<usize>) -> Task {
        let p = *self.full.params();
        let e16 = homogeneous::exec_time(&p, sigma, p.num_nodes);
        let id = self.next_id;
        self.next_id += 1;
        Task::new(id, self.now, sigma, dc * e16).with_user_nodes(user)
    }

    /// Asserts full observable equality between the two engines.
    fn check(&self, context: &str) -> Result<(), String> {
        let (fs, is) = (self.full.state(), self.inc.state());
        if fs != is {
            return Err(format!(
                "{context}: ControllerState diverged\n full: {fs:?}\n incr: {is:?}"
            ));
        }
        let now = SimTime::new(self.now);
        if self.full.backlog(now) != self.inc.backlog(now) {
            return Err(format!("{context}: backlog diverged"));
        }
        if self.full.next_dispatch_due() != self.inc.next_dispatch_due() {
            return Err(format!("{context}: next_dispatch_due diverged"));
        }
        Ok(())
    }

    /// Replaces the production engine with one restored from its own
    /// image — reuse cache cold, as after crash recovery — and checks that
    /// the oracle restored from that image is the oracle that lived through
    /// the scenario, so the image loses nothing either engine decides on.
    fn thaw(&mut self, context: &str) -> Result<(), String> {
        let image = self.inc.state();
        let oracle = ReferenceController::from_state(image.clone())
            .map_err(|e| format!("{context}: oracle refused the image: {e}"))?;
        if oracle.state() != self.full.state() {
            return Err(format!("{context}: restored oracle diverged"));
        }
        self.full = oracle;
        self.inc = AdmissionController::from_state(image)
            .map_err(|e| format!("{context}: engine refused its own image: {e}"))?;
        Ok(())
    }

    /// The production search against the literal one, the whole
    /// explanation compared.
    fn check_explain(&self, task: &Task) -> Result<(), String> {
        let now = SimTime::new(self.now);
        let request = SubmitRequest::new(*task);
        let a = self.full.explain(&request, now);
        let b = self.inc.explain(&request, now);
        if a != b {
            return Err(format!("explain diverged {a:?} vs {b:?}"));
        }
        // `None` iff the plain probe accepts.
        if a.is_none() != self.full.probe(task, now).is_accepted() {
            return Err(format!("explain {a:?} disagrees with the probe"));
        }
        Ok(())
    }

    /// The start search after `now` on both engines, which must agree and
    /// never name an instant at or before `now`.
    fn check_start_after(&self, task: &Task) -> Result<Option<SimTime>, String> {
        let now = SimTime::new(self.now);
        let a = self.full.earliest_start_after(task, now);
        let b = self.inc.earliest_start_after(task, now);
        if a != b {
            return Err(format!("earliest_start_after diverged {a:?} vs {b:?}"));
        }
        if a.is_some_and(|t| t <= now) {
            return Err(format!("earliest_start_after {a:?} is not after {now:?}"));
        }
        Ok(a)
    }

    /// The production reservation search against the literal one, plus
    /// the contract checks against the reference engine itself: Some(now)
    /// iff the plain probe accepts, the search after `now` otherwise — on
    /// each engine — and a promised start honors the dispatch-then-resubmit
    /// protocol.
    fn check_earliest_start(&self, task: &Task) -> Result<(), String> {
        let now = SimTime::new(self.now);
        let a = self.full.earliest_feasible_start(task, now);
        let b = self.inc.earliest_feasible_start(task, now);
        if a != b {
            return Err(format!("earliest_feasible_start diverged {a:?} vs {b:?}"));
        }
        let after = self.check_start_after(task)?;
        let probe_accepts = self.full.probe(task, now).is_accepted();
        let composed = if probe_accepts { Some(now) } else { after };
        if a != composed {
            return Err(format!(
                "{a:?} is not the probe ({probe_accepts}) then the search after ({after:?})"
            ));
        }
        if self.inc.probe(task, now).is_accepted() != probe_accepts {
            return Err(format!("probe diverged on {task:?}"));
        }
        if let Some(start) = a.filter(|s| s.definitely_after(now)) {
            let mut replay = self.full.clone();
            let _ = replay.take_due(start);
            if !replay.submit(*task, start).is_accepted() {
                return Err(format!("promised start {start:?} dishonored"));
            }
        }
        Ok(())
    }

    /// Applies one op to both engines, checking decision and state
    /// equality.
    fn apply(&mut self, i: usize, op: &Op) -> Result<(), String> {
        match op {
            Op::Submit {
                sigma,
                dc,
                dt,
                user,
            } => {
                self.now += dt;
                let task = self.mk_task(*sigma, *dc, *user);
                self.submit(task)
                    .map_err(|e| format!("op {i} {op:?}: {e}"))?;
                // What the service asks a shard that has just refused.
                if self.refused.last() == Some(&task) {
                    self.check_start_after(&task)
                        .map_err(|e| format!("op {i} {op:?}: after the refusal: {e}"))?;
                }
            }
            Op::Probe { sigma, dc } => {
                let task = self.mk_task(*sigma, *dc, None);
                let now = SimTime::new(self.now);
                let a = self.full.probe_plan(&task, now);
                let b = self.inc.probe_plan(&task, now);
                if a != b {
                    return Err(format!("op {i} {op:?}: probe diverged {a:?} vs {b:?}"));
                }
            }
            Op::EarliestFeasibleStart { sigma, dc } => {
                let task = self.mk_task(*sigma, *dc, None);
                self.check_earliest_start(&task)
                    .map_err(|e| format!("op {i} {op:?}: {e}"))?;
            }
            Op::Explain { sigma, dc } => {
                let task = self.mk_task(*sigma, *dc, None);
                self.check_explain(&task)
                    .map_err(|e| format!("op {i} {op:?}: {e}"))?;
            }
            Op::TakeDue { dt } => {
                self.now += dt;
                let now = SimTime::new(self.now);
                let a = self.full.take_due(now);
                let b = self.inc.take_due(now);
                if a != b {
                    return Err(format!("op {i} {op:?}: take_due diverged {a:?} vs {b:?}"));
                }
                self.resubmit_refused(&format!("op {i} {op:?}"))?;
            }
            Op::EarlyRelease {
                node,
                frac,
                sigma,
                dc,
            } => {
                let node = node % self.full.params().num_nodes;
                // Pull the node's committed release part-way back toward
                // `now` — the "node freed earlier than estimated" event.
                let rel = self.full.committed_releases()[node].as_f64();
                let time = SimTime::new(self.now + frac * (rel - self.now).max(0.0));
                self.full.set_node_release(node, time);
                self.inc.set_node_release(node, time);
                let task = self.mk_task(*sigma, *dc, None);
                self.check_earliest_start(&task)
                    .map_err(|e| format!("op {i} {op:?}: after the release: {e}"))?;
                self.resubmit_refused(&format!("op {i} {op:?}"))?;
            }
            Op::Replan { dt } => {
                self.now += dt;
                let now = SimTime::new(self.now);
                let a = self.full.replan(now);
                let b = self.inc.replan(now);
                if a != b {
                    return Err(format!("op {i} {op:?}: replan diverged {a:?} vs {b:?}"));
                }
            }
            Op::RemoveWaiting { pick } => {
                if self.full.queue_len() > 0 {
                    let id = self.full.queue()[pick % self.full.queue_len()].0.id;
                    let a = self.full.remove_waiting(id);
                    let b = self.inc.remove_waiting(id);
                    if a != b {
                        return Err(format!("op {i} {op:?}: remove diverged {a:?} vs {b:?}"));
                    }
                    self.resubmit_refused(&format!("op {i} {op:?}"))?;
                }
            }
            Op::Thaw { sigma, dc } => {
                self.thaw(&format!("op {i} {op:?}"))?;
                let task = self.mk_task(*sigma, *dc, None);
                self.check_earliest_start(&task)
                    .map_err(|e| format!("op {i} {op:?}: after the thaw: {e}"))?;
                self.resubmit_refused(&format!("op {i} {op:?}"))?;
            }
            Op::Resubmit { pick } => {
                if !self.refused.is_empty() {
                    let task = self.refused[pick % self.refused.len()];
                    self.submit(task)
                        .map_err(|e| format!("op {i} {op:?}: {e}"))?;
                }
            }
            Op::SubmitEarlier { sigma, dc, back } => {
                let clock = self.now;
                self.now = (clock - back).max(0.0);
                let task = self.mk_task(*sigma, *dc, None);
                let submitted = self.submit(task);
                self.now = clock;
                submitted.map_err(|e| format!("op {i} {op:?}: {e}"))?;
            }
        }
        self.check(&format!("op {i} {op:?}"))
    }
}

/// Replays one raw scenario through both engines; `Err` describes the
/// first divergence.
fn check_scenario(algorithm: AlgorithmKind, raws: &[(u8, f64, f64, f64)]) -> Result<(), String> {
    let mut h = Harness::new(algorithm);
    h.check("initial")?;
    for (i, raw) in raws.iter().enumerate() {
        let op = decode(raw);
        h.apply(i, &op)?;
    }
    Ok(())
}

/// Greedy delta-debugging: drop raw ops one at a time while the divergence
/// persists, then panic with the minimal reproducer.
fn shrink_and_report(
    algorithm: AlgorithmKind,
    raws: &[(u8, f64, f64, f64)],
    first_error: String,
) -> ! {
    let mut ops = raws.to_vec();
    loop {
        let mut reduced = false;
        let mut i = ops.len();
        while i > 0 {
            i -= 1;
            let mut cand = ops.clone();
            cand.remove(i);
            if check_scenario(algorithm, &cand).is_err() {
                ops = cand;
                reduced = true;
                break;
            }
        }
        if !reduced {
            break;
        }
    }
    let minimal_error = check_scenario(algorithm, &ops).unwrap_err();
    let decoded: Vec<Op> = ops.iter().map(decode).collect();
    panic!(
        "differential oracle: engines diverged.\n\
         original error: {first_error}\n\
         minimal scenario ({} ops, algorithm {algorithm}):\n{decoded:#?}\n\
         raw tuples for replay: {ops:?}\n\
         minimal error: {minimal_error}",
        ops.len()
    );
}

fn algorithms() -> Vec<AlgorithmKind> {
    vec![
        AlgorithmKind::EDF_DLT,
        AlgorithmKind::FIFO_DLT,
        AlgorithmKind::EDF_OPR_MN,
        AlgorithmKind::EDF_USER_SPLIT,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]
    #[test]
    fn differential_random_ops(
        algorithm in prop::sample::select(algorithms()),
        raws in prop::collection::vec((0u8..12, 0.0..1.0, 0.0..1.0, 0.0..1.0), 1..30),
    ) {
        if let Err(e) = check_scenario(algorithm, &raws) {
            shrink_and_report(algorithm, &raws, e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    #[test]
    fn differential_dispatch_heavy(
        algorithm in prop::sample::select(vec![AlgorithmKind::EDF_DLT, AlgorithmKind::FIFO_DLT]),
        raws in prop::collection::vec(
            // Kinds 0/3/4 dominate: submissions interleaved with
            // dispatches, early releases and restores (kinds 4 and 8, each
            // followed by a reservation search), the reservation search
            // itself (kind 7), refusal explanations (kind 9) and refused
            // tasks asked about again (kind 10).
            (prop::sample::select(vec![0u8, 0, 0, 3, 4, 0, 7, 8, 9, 10]), 0.0..1.0, 0.0..1.0, 0.0..1.0),
            1..16,
        ),
    ) {
        if let Err(e) = check_scenario(algorithm, &raws) {
            shrink_and_report(algorithm, &raws, e);
        }
    }
}

/// Drives both engines with a real workload stream: submissions at their
/// arrival instants, a dispatch sweep before each, an early release every
/// seventh task, a restore every eleventh, a removal every thirteenth — the
/// tasks refused so far asked about again after each of those — and a
/// closing burst, submitted one by one in policy order at one instant.
fn check_workload_stream(tasks: &[Task], algorithm: AlgorithmKind) -> Result<(), String> {
    let mut h = Harness::new(algorithm);
    let (head, tail) = tasks.split_at(tasks.len().saturating_sub(5));
    for (i, t) in head.iter().enumerate() {
        h.now = t.arrival.as_f64();
        let now = t.arrival;
        let a = h.full.take_due(now);
        let b = h.inc.take_due(now);
        if a != b {
            return Err(format!("task {i}: take_due diverged"));
        }
        if !a.is_empty() {
            h.resubmit_refused(&format!("task {i}: after the dispatch"))?;
        }
        if i % 7 == 3 {
            let node = i % h.full.params().num_nodes;
            let rel = h.full.committed_releases()[node].as_f64();
            let time = SimTime::new(h.now + 0.5 * (rel - h.now).max(0.0));
            h.full.set_node_release(node, time);
            h.inc.set_node_release(node, time);
            // The reservation search for the incoming task against the
            // stale cache, as asked and with the deadline cut until the
            // queue refuses it — then the replan.
            let tight = Task {
                rel_deadline: t.rel_deadline * 0.3,
                ..*t
            };
            for probe in [t, &tight] {
                h.check_earliest_start(probe)
                    .map_err(|e| format!("task {i}: after the release: {e}"))?;
            }
            h.resubmit_refused(&format!("task {i}: after the release"))?;
            let ra = h.full.replan(now);
            let rb = h.inc.replan(now);
            if ra != rb {
                return Err(format!("task {i}: replan diverged {ra:?} vs {rb:?}"));
            }
        }
        if i % 11 == 6 {
            h.thaw(&format!("task {i}"))?;
            h.check_earliest_start(t)
                .map_err(|e| format!("task {i}: after the thaw: {e}"))?;
            h.resubmit_refused(&format!("task {i}: after the thaw"))?;
        }
        if i % 13 == 9 && h.full.queue_len() > 0 {
            let id = h.full.queue()[i % h.full.queue_len()].0.id;
            if h.full.remove_waiting(id) != h.inc.remove_waiting(id) {
                return Err(format!("task {i}: remove diverged"));
            }
            h.resubmit_refused(&format!("task {i}: after the removal"))?;
        }
        if i % 5 == 2 {
            // A reservation search for the incoming task before deciding
            // it: both engines must name the same instant (or none).
            h.check_earliest_start(t)
                .map_err(|e| format!("task {i}: {e}"))?;
        }
        if i % 3 == 1 {
            // And an explanation, as asked — `None` for most of a stream —
            // and with the deadline cut until the queue refuses it.
            h.check_explain(t).map_err(|e| format!("task {i}: {e}"))?;
            let tight = Task {
                rel_deadline: t.rel_deadline * 0.3,
                ..*t
            };
            h.check_explain(&tight)
                .map_err(|e| format!("task {i} (tight): {e}"))?;
        }
        h.submit(*t).map_err(|e| format!("task {i}: {e}"))?;
        h.check(&format!("task {i}"))?;
    }
    if let Some(last) = tail.last() {
        h.now = last.arrival.as_f64();
        let mut burst = tail.to_vec();
        algorithm.policy.sort(&mut burst);
        for t in burst {
            h.submit(t).map_err(|e| format!("closing burst: {e}"))?;
            h.check("closing burst")?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(220))]
    #[test]
    fn differential_workload_streams(
        seed in 0u64..1_000_000,
        load in 0.4..2.0,
        flavor in 0u8..3,
        algorithm in prop::sample::select(vec![AlgorithmKind::EDF_DLT, AlgorithmKind::FIFO_DLT]),
    ) {
        let mut spec = WorkloadSpec::paper_baseline(load);
        spec.dc_ratio = 6.0;
        spec.horizon = 1e9; // bound by take() below, not the horizon
        let tasks: Vec<Task> = match flavor {
            // Bursty arrivals (the gateway's stress regime).
            0 => {
                spec.horizon = 40.0 * spec.mean_interarrival();
                let profile = BurstProfile { rate_factor: 3.0, ..BurstProfile::moderate(&spec) };
                BurstyPoisson::new(spec, profile, seed).take(40).collect()
            }
            // Heavy-tailed sizes (rare huge tasks between many small ones).
            1 => {
                spec = spec.with_size_model(SizeModel::HeavyTailed);
                WorkloadGenerator::new(spec, seed).take(40).collect()
            }
            // The paper's plain Poisson/normal stream.
            _ => WorkloadGenerator::new(spec, seed).take(40).collect(),
        };
        prop_assume!(!tasks.is_empty());
        if let Err(e) = check_workload_stream(&tasks, algorithm) {
            panic!(
                "differential oracle (workload stream): {e}\n\
                 seed={seed} load={load} flavor={flavor} algorithm={algorithm}"
            );
        }
    }
}

#[test]
fn steady_deep_queue_actually_exercises_the_diff_path() {
    // Guard against the production engine silently degrading to
    // replan-always (it would still pass every differential check): in the
    // steady deep-queue regime the reuse rate must be overwhelming.
    let params = ClusterParams::paper_baseline();
    let mut inc = AdmissionController::new(params, AlgorithmKind::EDF_DLT, PlanConfig::default());
    for i in 0..128u64 {
        let t = Task::new(i, 0.0, 100.0, 5e6 + i as f64 * 1e4);
        assert!(inc.submit(t, SimTime::ZERO).is_accepted());
    }
    let stats = inc.profile();
    assert!(
        stats.reuse_rate() > 0.9,
        "deep-queue streaming should be ~all reuse, got {:?}",
        stats
    );
    // 128 submissions into an EDF-ordered queue with increasing deadlines:
    // exactly one fresh plan each, everything before it reused.
    assert_eq!(stats.plans_computed, 128);
}
