//! Task partitioning + node-assignment strategies (§4.1, §4.2 Decision #2/#3).
//!
//! A *strategy* turns one task plus a snapshot of node availability into a
//! [`TaskPlan`]: which nodes, in what transmission order, with what load
//! fractions, and — crucially for admission control — a completion-time
//! estimate that is provably an upper bound on the actual completion.
//!
//! Four strategies are implemented:
//!
//! * [`StrategyKind::DltIit`] — **the paper's contribution**: nodes start at
//!   their individual available times; partition from the heterogeneous
//!   model (§4.1.1); node count from the `ñ_min` fixed-point scan.
//! * [`StrategyKind::OprMn`] — the baseline of \[22\]: same node count logic
//!   but all nodes idle until the `n`-th is free (IITs wasted), homogeneous
//!   OPR partition.
//! * [`StrategyKind::OprAn`] — run every task on all `N` nodes (mentioned in
//!   §5 as rarely used in practice; included for completeness).
//! * [`StrategyKind::UserSplit`] — the current-practice emulation (§4.1.2):
//!   the user pre-splits into `n` equal chunks, `n` drawn once per task.

use serde::{Deserialize, Serialize};

use crate::dlt::heterogeneous::HeterogeneousModel;
use crate::dlt::homogeneous;
use crate::error::Infeasible;
use crate::nmin::scan_feasible_nodes;
use crate::params::{ClusterParams, NodeId};
use crate::task::{Task, TaskId};
use crate::time::SimTime;

/// Which partitioning/assignment rule to apply.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum StrategyKind {
    /// DLT-based partitioning with different processor available times
    /// (utilizes IITs; §4.1.1).
    DltIit,
    /// Multi-round (multi-installment) DLT partitioning — the paper's §6
    /// future-work direction, following the multi-installment theory the
    /// paper cites (\[10\]): each node receives its load in the given number
    /// of rounds so later nodes start computing sooner and transmission
    /// overlaps computation. Adaptive: falls back to the single-round plan
    /// whenever that one's completion estimate is better, so it never
    /// accepts less than [`StrategyKind::DltIit`].
    DltMultiRound {
        /// Number of installments per node (≥ 2 to differ from single-round).
        rounds: u8,
    },
    /// Optimal Partitioning Rule, Minimum number of Nodes, simultaneous
    /// start (no IIT use; baseline from \[22\]).
    OprMn,
    /// Optimal Partitioning Rule on All N Nodes, simultaneous start.
    OprAn,
    /// User-split equal partitioning on a user-requested node count
    /// (utilizes IITs; §4.1.2).
    UserSplit,
}

impl StrategyKind {
    /// Short name as used in the paper's algorithm nomenclature
    /// (extensions follow the same convention: `DLT-MR<rounds>`).
    pub fn paper_name(self) -> String {
        match self {
            StrategyKind::DltIit => "DLT".to_string(),
            StrategyKind::DltMultiRound { rounds } => format!("DLT-MR{rounds}"),
            StrategyKind::OprMn => "OPR-MN".to_string(),
            StrategyKind::OprAn => "OPR-AN".to_string(),
            StrategyKind::UserSplit => "UserSplit".to_string(),
        }
    }

    /// Whether the strategy lets a task start on a node before *all* its
    /// nodes are available (i.e., whether it utilizes Inserted Idle Times).
    pub fn utilizes_iits(self) -> bool {
        matches!(
            self,
            StrategyKind::DltIit | StrategyKind::DltMultiRound { .. } | StrategyKind::UserSplit
        )
    }
}

/// How an accepted task advances the node release times inside the
/// temp-schedule (ablation knob; see DESIGN.md §6).
///
/// This choice shapes the whole availability landscape: with staggered
/// per-node releases, successor tasks see nodes freeing at *different* times
/// — the very situation (Fig. 1b) the DLT-IIT strategy exploits. Uniform
/// bookkeeping erases that staggering after every task, which suppresses
/// nearly all of the IIT benefit (see EXPERIMENTS.md, ablation
/// `abl-estimate`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum ReleaseEstimate {
    /// Each node is released at its **exact** completion time, obtained by
    /// replaying the plan's transmission/compute timeline (the same
    /// computation the cluster head performs at dispatch; execution in the
    /// model is deterministic, so these are true values, each `≤ e_i` by
    /// Theorem 4). Default — this is the only mode in which a simulated
    /// cluster develops the staggered availability of the paper's Fig. 1.
    #[default]
    Exact,
    /// Fig. 2 pseudocode, read conservatively: every assigned node is
    /// released at the task's single completion estimate `e_i`.
    Uniform,
    /// Analytical middle ground: each node is released at its Theorem-4
    /// per-node completion bound `t̃_act_i ≤ e_i`.
    TightPerNode,
}

/// How the node count `n` is chosen for the DLT / OPR-MN strategies
/// (the `n ← ñ_min(t)` line of Fig. 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum NodeCountPolicy {
    /// Resolve the pseudocode's `n ← ñ_min(t)` / "earliest `t` with
    /// `AN(t) ≥ n`" coupling consistently: scan `n = 1..N` for the smallest
    /// `n` with `ñ_min(r_n) ≤ n`, re-evaluating the bound at the start time
    /// the allocation actually implies. Default — this reading reproduces
    /// the paper's cross-figure ordering structure (DLT < OPR-MN in Fig. 3
    /// *and* DLT < User-Split at DCRatio 2 in Fig. 5a; see EXPERIMENTS.md).
    #[default]
    FixedPoint,
    /// The alternative literal reading: `ñ_min` is evaluated **once** at the
    /// test instant `t` (as if the task could start immediately); the task
    /// then waits for that many nodes, and is rejected if the wait defeats
    /// the deadline — no retry with more nodes. Matches the paper's
    /// OPR-MN absolute levels at the baseline but inverts the Fig. 5a
    /// ordering; kept as ablation `abl-nselect`.
    OneShot,
}

/// Knobs that modify planning without changing the algorithm identity.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct PlanConfig {
    /// Release-time bookkeeping mode for the temp schedule.
    pub release_estimate: ReleaseEstimate,
    /// Node-count selection mode for DLT / OPR-MN.
    pub node_count: NodeCountPolicy,
}

/// A snapshot of when each node can next start serving a task, taken at a
/// planning instant `now`: the effective availability of node `k` is
/// `max(Release(node_k), now)` (a node released in the past is available
/// *now*, not retroactively).
#[derive(Clone, Debug)]
pub struct NodeAvailability {
    /// `(available_time, node)` sorted ascending, ties by node id.
    entries: Vec<(SimTime, NodeId)>,
    /// The planning instant the snapshot was taken at.
    now: SimTime,
}

impl NodeAvailability {
    /// Builds the snapshot from the committed release vector (indexed by
    /// node id) and the planning instant.
    pub fn new(releases: &[SimTime], now: SimTime) -> Self {
        let mut avail = NodeAvailability {
            entries: Vec::new(),
            now,
        };
        avail.rebuild(releases, now);
        avail
    }

    /// Re-takes the snapshot in place, keeping the allocation.
    pub(crate) fn rebuild(&mut self, releases: &[SimTime], now: SimTime) {
        self.now = now;
        self.entries.clear();
        self.entries.extend(
            releases
                .iter()
                .enumerate()
                .map(|(i, &r)| (r.max(now), NodeId(i as u32))),
        );
        self.entries.sort_unstable();
    }

    /// Brings the snapshot up to date after the releases of its `n`
    /// earliest nodes changed — what placing a plan does, since a plan
    /// occupies exactly [`earliest(n)`](Self::earliest). The head is
    /// re-timed from `releases`, sorted on its own (in `head`, a scratch
    /// buffer) and merged with the untouched, still sorted tail. The
    /// `(time, node)` order is total, so the result is entry for entry what
    /// `new(releases, now)` builds, without sorting the whole cluster.
    pub(crate) fn retime_head(
        &mut self,
        n: usize,
        releases: &[SimTime],
        head: &mut Vec<(SimTime, NodeId)>,
    ) {
        let now = self.now;
        head.clear();
        head.extend(
            self.entries[..n]
                .iter()
                .map(|&(_, node)| (releases[node.index()].max(now), node)),
        );
        head.sort_unstable();
        // Forward merge in place: output slot `i + j - n` trails the tail
        // cursor `j` until the head runs out, and what is then left of the
        // tail already sits where it belongs.
        let (mut i, mut j) = (0, n);
        while i < head.len() {
            let slot = i + j - n;
            if j < self.entries.len() && self.entries[j] < head[i] {
                self.entries[slot] = self.entries[j];
                j += 1;
            } else {
                self.entries[slot] = head[i];
                i += 1;
            }
        }
    }

    /// Makes this snapshot a copy of `other`, keeping the allocation.
    pub(crate) fn copy_from(&mut self, other: &NodeAvailability) {
        self.entries.clone_from(&other.entries);
        self.now = other.now;
    }

    /// The planning instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes in the cluster.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.entries.len()
    }

    /// The available times in ascending order, read in place.
    pub(crate) fn times(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.entries.iter().map(|e| e.0)
    }

    /// The nodes in availability order (the order of [`times`](Self::times)).
    pub(crate) fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.1)
    }

    /// Sorted available times (ascending), as an owned copy.
    pub fn sorted_times(&self) -> Vec<SimTime> {
        self.times().collect()
    }

    /// The `n` earliest-available nodes, in availability order.
    pub fn earliest(&self, n: usize) -> (Vec<NodeId>, Vec<SimTime>) {
        let nodes = self.entries[..n].iter().map(|e| e.1).collect();
        let times = self.entries[..n].iter().map(|e| e.0).collect();
        (nodes, times)
    }
}

/// A concrete, admission-checked execution plan for one task.
///
/// The plan is a sequence of *chunks* in transmission order. Single-round
/// strategies emit one chunk per node; the multi-round strategy emits
/// several chunks per node (`nodes` then contains repeats — consecutive
/// rounds revisit the same nodes).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TaskPlan {
    /// The planned task.
    pub task: TaskId,
    /// Strategy that produced the plan.
    pub strategy: StrategyKind,
    /// Chunk target nodes in transmission order (earliest-available first;
    /// may repeat for multi-round plans).
    pub nodes: Vec<NodeId>,
    /// Per chunk: the earliest instant its transmission may start
    /// (the node's available time for DLT/UserSplit; the common start for
    /// OPR; the replayed transmission start for later rounds).
    pub start_times: Vec<SimTime>,
    /// Load fractions `α_i` per chunk (sum 1).
    pub fractions: Vec<f64>,
    /// The completion estimate `e_i` checked against the deadline; an upper
    /// bound on every chunk's actual completion (Theorem 4 for single-round
    /// DLT; an exact replay for multi-round/UserSplit).
    pub est_completion: SimTime,
    /// Per chunk: the node release time recorded in the temp schedule after
    /// this plan is (tentatively) placed (later chunks on the same node
    /// supersede earlier ones).
    pub node_release_estimates: Vec<SimTime>,
}

impl TaskPlan {
    /// Number of chunks (= nodes for single-round strategies).
    #[inline]
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct nodes the plan occupies.
    pub fn distinct_nodes(&self) -> usize {
        let mut nodes: Vec<NodeId> = self.nodes.clone();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// When the plan's first transmission is due — the instant at which the
    /// task, if still at this plan, commits and starts executing.
    #[inline]
    pub fn first_start(&self) -> SimTime {
        self.start_times[0]
    }

    /// Records the plan's node releases in `releases` (index = node id):
    /// how a placed plan advances the temp schedule and how a dispatch
    /// commits. Later chunks on one node supersede earlier ones.
    #[inline]
    pub(crate) fn write_releases(&self, releases: &mut [SimTime]) {
        for (node, &rel) in self.nodes.iter().zip(&self.node_release_estimates) {
            releases[node.index()] = rel;
        }
    }

    fn validate(&self) {
        debug_assert_eq!(self.nodes.len(), self.start_times.len());
        debug_assert_eq!(self.nodes.len(), self.fractions.len());
        debug_assert_eq!(self.nodes.len(), self.node_release_estimates.len());
        debug_assert!(
            (self.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9,
            "fractions must sum to 1"
        );
        debug_assert!(
            self.start_times.windows(2).all(|w| w[0] <= w[1]),
            "start times must be non-decreasing in transmission order"
        );
    }
}

/// Plans `task` under `kind` against the availability snapshot.
///
/// Returns the plan or the reason the task cannot meet its deadline (which
/// the admission layer turns into a rejection).
pub fn plan_task(
    kind: StrategyKind,
    task: &Task,
    avail: &NodeAvailability,
    params: &ClusterParams,
    cfg: &PlanConfig,
) -> Result<TaskPlan, Infeasible> {
    let plan = match kind {
        StrategyKind::DltIit => plan_dlt_iit(task, avail, params, cfg)?,
        StrategyKind::DltMultiRound { rounds } => {
            plan_dlt_multi_round(task, avail, params, cfg, rounds)?
        }
        StrategyKind::OprMn => plan_opr(task, avail, params, cfg, false)?,
        StrategyKind::OprAn => plan_opr(task, avail, params, cfg, true)?,
        StrategyKind::UserSplit => plan_user_split(task, avail, params)?,
    };
    plan.validate();
    Ok(plan)
}

/// The `n ← ñ_min(t)` step under the configured [`NodeCountPolicy`].
fn select_node_count(
    task: &Task,
    avail: &NodeAvailability,
    params: &ClusterParams,
    cfg: &PlanConfig,
) -> Result<usize, Infeasible> {
    let deadline = task.absolute_deadline();
    match cfg.node_count {
        NodeCountPolicy::OneShot => {
            // Evaluate the bound as if the task started right now; the
            // subsequent deadline check on the completion estimate rejects
            // the task if the wait for these nodes proves too long.
            let n = crate::nmin::n_tilde_min(params, task.data_size, avail.now(), deadline)?;
            if n > avail.num_nodes() {
                Err(Infeasible::NotEnoughNodes)
            } else {
                Ok(n)
            }
        }
        NodeCountPolicy::FixedPoint => {
            Ok(scan_feasible_nodes(params, task.data_size, avail.times(), deadline)?.n)
        }
    }
}

/// §4.1.1: heterogeneous-model partitioning over individual available times.
fn plan_dlt_iit(
    task: &Task,
    avail: &NodeAvailability,
    params: &ClusterParams,
    cfg: &PlanConfig,
) -> Result<TaskPlan, Infeasible> {
    let deadline = task.absolute_deadline();
    let n = select_node_count(task, avail, params, cfg)?;
    let (nodes, starts) = avail.earliest(n);

    let model = HeterogeneousModel::new(params, task.data_size, &starts)
        .expect("sorted positive inputs by construction");
    let est = model.completion_estimate();
    // Load-bearing under OneShot (the wait can defeat the optimistic n);
    // a pure float-noise guard under FixedPoint.
    if est.definitely_after(deadline) {
        return Err(Infeasible::CompletionAfterDeadline);
    }
    let releases = match cfg.release_estimate {
        ReleaseEstimate::Exact => {
            exact_completions(params, task.data_size, model.alphas(), &starts)
        }
        ReleaseEstimate::Uniform => vec![est; n],
        ReleaseEstimate::TightPerNode => (0..n).map(|i| model.actual_completion_bound(i)).collect(),
    };
    Ok(TaskPlan {
        task: task.id,
        strategy: StrategyKind::DltIit,
        nodes,
        start_times: starts,
        fractions: model.alphas().to_vec(),
        est_completion: est,
        node_release_estimates: releases,
    })
}

/// \[22\]'s OPR baseline: all nodes start together once the last is free.
/// `all_nodes` selects the AN variant (every task on the full cluster).
fn plan_opr(
    task: &Task,
    avail: &NodeAvailability,
    params: &ClusterParams,
    cfg: &PlanConfig,
    all_nodes: bool,
) -> Result<TaskPlan, Infeasible> {
    let deadline = task.absolute_deadline();
    let n = if all_nodes {
        avail.num_nodes()
    } else {
        select_node_count(task, avail, params, cfg)?
    };
    let (nodes, starts) = avail.earliest(n);
    let t_start = *starts.last().expect("n >= 1");
    let e = homogeneous::exec_time(params, task.data_size, n);
    let est = t_start + SimTime::new(e);
    if est.definitely_after(deadline) {
        return Err(Infeasible::CompletionAfterDeadline);
    }
    Ok(TaskPlan {
        task: task.id,
        strategy: if all_nodes {
            StrategyKind::OprAn
        } else {
            StrategyKind::OprMn
        },
        nodes,
        // No IIT use: every node waits for the common start.
        start_times: vec![t_start; n],
        fractions: homogeneous::alphas(params, n),
        est_completion: est,
        // OPR's equal-finish property makes the estimate exact per node.
        node_release_estimates: vec![est; n],
    })
}

/// §4.1.2: user splits the task into `n` equal chunks; chunks are dispatched
/// sequentially, each node starting as soon as it is available and the
/// preceding transmission has finished (Eq. 15).
fn plan_user_split(
    task: &Task,
    avail: &NodeAvailability,
    params: &ClusterParams,
) -> Result<TaskPlan, Infeasible> {
    let n = task.user_nodes.ok_or(Infeasible::UserRequestInfeasible)?;
    if n == 0 || n > avail.num_nodes() {
        return Err(Infeasible::UserRequestInfeasible);
    }
    let deadline = task.absolute_deadline();
    let (nodes, starts) = avail.earliest(n);
    let chunk = task.data_size / n as f64;
    let tx = chunk * params.cms;
    let per_node = tx + chunk * params.cps;

    let mut s = Vec::with_capacity(n);
    let mut completions = Vec::with_capacity(n);
    let mut prev_tx_end = f64::NEG_INFINITY;
    for &r in &starts {
        let si = r.as_f64().max(prev_tx_end);
        prev_tx_end = si + tx;
        s.push(SimTime::new(si));
        completions.push(SimTime::new(si + per_node));
    }
    let est = *completions.last().expect("n >= 1");
    if est.definitely_after(deadline) {
        return Err(Infeasible::CompletionAfterDeadline);
    }
    Ok(TaskPlan {
        task: task.id,
        strategy: StrategyKind::UserSplit,
        nodes,
        start_times: s,
        fractions: vec![1.0 / n as f64; n],
        est_completion: est,
        // Eq. 15 gives exact per-node completions for the equal split.
        node_release_estimates: completions,
    })
}

/// §6 future work: multi-round (multi-installment) DLT partitioning.
///
/// Node count and per-node totals come from the single-round heterogeneous
/// model; each node's total is then delivered in `rounds` equal
/// installments, round-robin in node order, so a node starts computing after
/// receiving only `1/rounds` of its data and later installments stream in
/// while it computes. The completion estimate is an *exact replay* of that
/// chunk timeline (the same arithmetic the dispatch engine performs), so
/// admission remains sound. Adaptive: if the single-round plan's estimate is
/// at least as good (communication-cheap regimes where extra round trips buy
/// nothing), the single-round plan is returned instead.
fn plan_dlt_multi_round(
    task: &Task,
    avail: &NodeAvailability,
    params: &ClusterParams,
    cfg: &PlanConfig,
    rounds: u8,
) -> Result<TaskPlan, Infeasible> {
    let single = plan_dlt_iit(task, avail, params, cfg)?;
    if rounds <= 1 {
        return Ok(single);
    }
    let n = single.n();
    let m = rounds as usize;
    let sigma = task.data_size;
    let deadline = task.absolute_deadline();

    // Chunk sequence: rounds × nodes, node order within each round, each
    // chunk 1/m of the node's single-round fraction.
    let mut nodes = Vec::with_capacity(n * m);
    let mut fractions = Vec::with_capacity(n * m);
    let mut avail_constraint = Vec::with_capacity(n * m);
    for _ in 0..m {
        for i in 0..n {
            nodes.push(single.nodes[i]);
            fractions.push(single.fractions[i] / m as f64);
            avail_constraint.push(single.start_times[i]);
        }
    }

    // Exact replay: per-chunk transmission serialization + per-node busy
    // chaining. `start_times[c]` records the replayed transmission start so
    // the engine reproduces the identical schedule.
    let mut node_free: Vec<SimTime> = single.start_times.clone();
    let mut start_times = Vec::with_capacity(n * m);
    let mut completions = Vec::with_capacity(n * m);
    let mut prev_tx_end = f64::NEG_INFINITY;
    for c in 0..n * m {
        let i = c % n; // node index within the round
        let tx_start = avail_constraint[c]
            .as_f64()
            .max(node_free[i].as_f64())
            .max(prev_tx_end);
        let tx_end = tx_start + fractions[c] * sigma * params.cms;
        let compute_end = tx_end + fractions[c] * sigma * params.cps;
        // The node is busy (receiving or computing) from tx_start on; the
        // next installment cannot occupy it before this one completes.
        node_free[i] = SimTime::new(compute_end);
        start_times.push(SimTime::new(tx_start));
        completions.push(SimTime::new(compute_end));
        prev_tx_end = tx_end;
    }
    let est = *completions.iter().max().expect("non-empty");
    if est.definitely_after(deadline) {
        // The single-round plan already passed its own check.
        return Ok(single);
    }
    if est >= single.est_completion {
        return Ok(single);
    }
    Ok(TaskPlan {
        task: task.id,
        strategy: StrategyKind::DltMultiRound { rounds },
        nodes,
        start_times,
        fractions,
        est_completion: est,
        node_release_estimates: completions,
    })
}

/// Replays a plan's execution timeline exactly: transmission to node `i`
/// starts once the node is available *and* the task's preceding chunk has
/// been sent, then compute follows. These are the true completion times the
/// cluster realizes for this plan (the dispatch engine performs the same
/// arithmetic), each bounded by the task's completion estimate (Theorem 4).
pub fn exact_completions(
    params: &ClusterParams,
    sigma: f64,
    fractions: &[f64],
    starts: &[SimTime],
) -> Vec<SimTime> {
    let mut out = Vec::with_capacity(fractions.len());
    let mut prev_tx_end = f64::NEG_INFINITY;
    for (&alpha, &r) in fractions.iter().zip(starts) {
        let tx_start = r.as_f64().max(prev_tx_end);
        let tx_end = tx_start + alpha * sigma * params.cms;
        out.push(SimTime::new(tx_end + alpha * sigma * params.cps));
        prev_tx_end = tx_end;
    }
    out
}

/// `N_min = ⌈σ·Cps / (D − σ·Cms)⌉` (§4.1.2): the fewest nodes with which the
/// task could meet its *relative* deadline if started immediately on arrival.
/// `None` when no node count suffices (`D ≤ σ·Cms`).
pub fn user_split_n_min(params: &ClusterParams, sigma: f64, rel_deadline: f64) -> Option<usize> {
    let slack = rel_deadline - sigma * params.cms;
    if slack <= 0.0 {
        return None;
    }
    let raw = sigma * params.cps / slack;
    Some((raw.ceil() as usize).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TIME_EPS;

    fn baseline() -> ClusterParams {
        ClusterParams::paper_baseline()
    }

    fn all_idle(n: usize) -> Vec<SimTime> {
        vec![SimTime::ZERO; n]
    }

    fn avail(releases: &[f64], now: f64) -> NodeAvailability {
        let r: Vec<SimTime> = releases.iter().copied().map(SimTime::new).collect();
        NodeAvailability::new(&r, SimTime::new(now))
    }

    #[test]
    fn availability_clamps_to_now_and_sorts() {
        let a = avail(&[50.0, 5.0, 20.0], 10.0);
        let times = a.sorted_times();
        assert_eq!(
            times,
            vec![SimTime::new(10.0), SimTime::new(20.0), SimTime::new(50.0)]
        );
        let (nodes, starts) = a.earliest(2);
        assert_eq!(nodes, vec![NodeId(1), NodeId(2)]);
        assert_eq!(starts[0], SimTime::new(10.0));
    }

    #[test]
    fn availability_breaks_ties_by_node_id() {
        let a = avail(&[7.0, 7.0, 7.0], 0.0);
        let (nodes, _) = a.earliest(3);
        assert_eq!(nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn dlt_plan_on_idle_cluster_matches_opr_mn() {
        // With all nodes equally available there are no IITs: the DLT-IIT
        // plan must coincide with the OPR-MN plan.
        let p = baseline();
        let task = Task::new(1, 0.0, 200.0, 3000.0);
        let a = NodeAvailability::new(&all_idle(16), SimTime::ZERO);
        let cfg = PlanConfig::default();
        let dlt = plan_task(StrategyKind::DltIit, &task, &a, &p, &cfg).unwrap();
        let opr = plan_task(StrategyKind::OprMn, &task, &a, &p, &cfg).unwrap();
        assert_eq!(dlt.n(), opr.n());
        assert!((dlt.est_completion.as_f64() - opr.est_completion.as_f64()).abs() < 1e-6);
        for (x, y) in dlt.fractions.iter().zip(&opr.fractions) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn dlt_beats_opr_mn_with_staggered_releases() {
        // Half the cluster is free now, half much later: the IIT-utilizing
        // plan must finish strictly earlier than the wait-for-all plan.
        let p = baseline();
        let sigma = 200.0;
        let mut rel = vec![0.0; 8];
        rel.extend([2000.0; 8]);
        let a = avail(&rel, 0.0);
        let task = Task::new(1, 0.0, sigma, 25_000.0);
        let cfg = PlanConfig::default();
        let dlt = plan_task(StrategyKind::DltIit, &task, &a, &p, &cfg).unwrap();
        let opr = plan_task(StrategyKind::OprMn, &task, &a, &p, &cfg).unwrap();
        if dlt.n() == opr.n() && dlt.n() > 8 {
            assert!(
                dlt.est_completion < opr.est_completion,
                "DLT {:?} should beat OPR {:?}",
                dlt.est_completion,
                opr.est_completion
            );
        }
        // In all cases the estimate respects the deadline.
        assert!(!dlt
            .est_completion
            .definitely_after(task.absolute_deadline()));
        assert!(!opr
            .est_completion
            .definitely_after(task.absolute_deadline()));
    }

    #[test]
    fn opr_an_uses_every_node() {
        let p = baseline();
        let task = Task::new(1, 0.0, 200.0, 1e9);
        let a = NodeAvailability::new(&all_idle(16), SimTime::ZERO);
        let plan = plan_task(StrategyKind::OprAn, &task, &a, &p, &PlanConfig::default()).unwrap();
        assert_eq!(plan.n(), 16);
        let e16 = homogeneous::exec_time(&p, 200.0, 16);
        assert!((plan.est_completion.as_f64() - e16).abs() < 1e-9);
    }

    #[test]
    fn user_split_serializes_transmissions() {
        let p = baseline();
        let sigma = 160.0;
        let task = Task::new(1, 0.0, sigma, 1e9).with_user_nodes(Some(4));
        let a = NodeAvailability::new(&all_idle(16), SimTime::ZERO);
        let plan = plan_task(
            StrategyKind::UserSplit,
            &task,
            &a,
            &p,
            &PlanConfig::default(),
        )
        .unwrap();
        assert_eq!(plan.n(), 4);
        let tx = sigma / 4.0 * p.cms; // 40
        for (i, s) in plan.start_times.iter().enumerate() {
            assert!((s.as_f64() - i as f64 * tx).abs() < 1e-9);
        }
        let per_node = tx + sigma / 4.0 * p.cps;
        assert!((plan.est_completion.as_f64() - (3.0 * tx + per_node)).abs() < 1e-9);
    }

    #[test]
    fn user_split_without_request_is_infeasible() {
        let p = baseline();
        let task = Task::new(1, 0.0, 200.0, 1e9); // no user_nodes
        let a = NodeAvailability::new(&all_idle(16), SimTime::ZERO);
        let err = plan_task(
            StrategyKind::UserSplit,
            &task,
            &a,
            &p,
            &PlanConfig::default(),
        );
        assert_eq!(err, Err(Infeasible::UserRequestInfeasible));
    }

    #[test]
    fn user_split_nmin_formula() {
        let p = baseline();
        // σ=200: transmission 200, compute 20000. D=10200 → slack 10000 →
        // Nmin = ceil(20000/10000) = 2.
        assert_eq!(user_split_n_min(&p, 200.0, 10_200.0), Some(2));
        // D barely above transmission time → huge Nmin.
        let n = user_split_n_min(&p, 200.0, 201.0).unwrap();
        assert!(n >= 20_000);
        // D below transmission time → no feasible count.
        assert_eq!(user_split_n_min(&p, 200.0, 199.0), None);
        assert_eq!(user_split_n_min(&p, 200.0, 200.0), None);
    }

    #[test]
    fn missed_deadline_is_rejected_not_planned() {
        let p = baseline();
        // Deadline too tight for the whole cluster.
        let e16 = homogeneous::exec_time(&p, 200.0, 16);
        let task = Task::new(1, 0.0, 200.0, e16 * 0.5);
        let a = NodeAvailability::new(&all_idle(16), SimTime::ZERO);
        for kind in [StrategyKind::DltIit, StrategyKind::OprMn] {
            let err = plan_task(kind, &task, &a, &p, &PlanConfig::default());
            assert!(err.is_err(), "{kind:?} should reject");
        }
        // OPR-AN rejects via the explicit completion check.
        let err = plan_task(StrategyKind::OprAn, &task, &a, &p, &PlanConfig::default());
        assert_eq!(err, Err(Infeasible::CompletionAfterDeadline));
    }

    #[test]
    fn estimates_never_exceed_deadline_on_accept() {
        let p = baseline();
        let a = avail(&[0.0, 10.0, 20.0, 30.0, 500.0, 600.0, 700.0, 800.0], 0.0);
        let cfg = PlanConfig::default();
        for sigma in [10.0, 100.0, 500.0] {
            for d in [2_000.0, 20_000.0, 200_000.0] {
                let task = Task::new(1, 0.0, sigma, d).with_user_nodes(Some(4));
                for kind in [
                    StrategyKind::DltIit,
                    StrategyKind::OprMn,
                    StrategyKind::OprAn,
                    StrategyKind::UserSplit,
                ] {
                    if let Ok(plan) = plan_task(kind, &task, &a, &p, &cfg) {
                        assert!(
                            plan.est_completion.as_f64()
                                <= task.absolute_deadline().as_f64() + TIME_EPS,
                            "{kind:?} accepted but estimate misses deadline"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tight_release_estimates_are_no_later_than_uniform() {
        let p = baseline();
        let a = avail(&[0.0, 100.0, 200.0, 300.0], 0.0);
        let task = Task::new(1, 0.0, 200.0, 1e9);
        let uni = plan_task(
            StrategyKind::DltIit,
            &task,
            &a,
            &p,
            &PlanConfig {
                release_estimate: ReleaseEstimate::Uniform,
                ..Default::default()
            },
        )
        .unwrap();
        let tight = plan_task(
            StrategyKind::DltIit,
            &task,
            &a,
            &p,
            &PlanConfig {
                release_estimate: ReleaseEstimate::TightPerNode,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(uni.n(), tight.n());
        for (t, u) in tight
            .node_release_estimates
            .iter()
            .zip(&uni.node_release_estimates)
        {
            assert!(t <= u, "tight estimate must not exceed uniform");
        }
    }

    #[test]
    fn strategy_metadata() {
        assert!(StrategyKind::DltIit.utilizes_iits());
        assert!(StrategyKind::UserSplit.utilizes_iits());
        assert!(StrategyKind::DltMultiRound { rounds: 2 }.utilizes_iits());
        assert!(!StrategyKind::OprMn.utilizes_iits());
        assert!(!StrategyKind::OprAn.utilizes_iits());
        assert_eq!(StrategyKind::DltIit.paper_name(), "DLT");
        assert_eq!(
            StrategyKind::DltMultiRound { rounds: 4 }.paper_name(),
            "DLT-MR4"
        );
    }

    #[test]
    fn multi_round_single_installment_degenerates_to_single_round() {
        let p = baseline();
        let task = Task::new(1, 0.0, 200.0, 30_000.0);
        let a = NodeAvailability::new(&all_idle(16), SimTime::ZERO);
        let cfg = PlanConfig::default();
        let single = plan_task(StrategyKind::DltIit, &task, &a, &p, &cfg).unwrap();
        let mr1 = plan_task(
            StrategyKind::DltMultiRound { rounds: 1 },
            &task,
            &a,
            &p,
            &cfg,
        )
        .unwrap();
        assert_eq!(single.nodes, mr1.nodes);
        assert_eq!(single.est_completion, mr1.est_completion);
    }

    #[test]
    fn multi_round_never_estimates_later_than_single_round() {
        // The adaptive fallback guarantees est(MR) ≤ est(DLT) pointwise.
        let p = baseline();
        let cfg = PlanConfig::default();
        for releases in [vec![0.0; 16], {
            let mut r: Vec<f64> = (0..16).map(|i| 100.0 * i as f64).collect();
            r.reverse();
            r
        }] {
            let a = avail(&releases, 0.0);
            for sigma in [50.0, 200.0, 800.0] {
                let task = Task::new(1, 0.0, sigma, 1e6);
                let single = plan_task(StrategyKind::DltIit, &task, &a, &p, &cfg).unwrap();
                for rounds in [2u8, 3, 4, 8] {
                    let mr = plan_task(StrategyKind::DltMultiRound { rounds }, &task, &a, &p, &cfg)
                        .unwrap();
                    assert!(
                        mr.est_completion <= single.est_completion,
                        "MR{rounds} estimate {:?} worse than single {:?} (σ={sigma})",
                        mr.est_completion,
                        single.est_completion
                    );
                }
            }
        }
    }

    #[test]
    fn multi_round_improves_when_transmission_matters() {
        // Communication-heavy regime (Cms comparable to Cps): installments
        // let later nodes start computing much earlier, so the multi-round
        // estimate must strictly beat single-round.
        let p = ClusterParams::new(16, 8.0, 100.0).unwrap();
        let task = Task::new(1, 0.0, 400.0, 1e9);
        let a = NodeAvailability::new(&all_idle(16), SimTime::ZERO);
        let cfg = PlanConfig::default();
        // Force a wide allocation by requesting via deadline: use DltIit's
        // plan for reference n, then compare directly.
        let single = plan_task(StrategyKind::DltIit, &task, &a, &p, &cfg).unwrap();
        let mr = plan_task(
            StrategyKind::DltMultiRound { rounds: 4 },
            &task,
            &a,
            &p,
            &cfg,
        )
        .unwrap();
        if single.n() > 1 {
            assert!(
                mr.est_completion < single.est_completion,
                "MR4 {:?} should strictly beat single-round {:?}",
                mr.est_completion,
                single.est_completion
            );
            assert_eq!(mr.strategy, StrategyKind::DltMultiRound { rounds: 4 });
        }
    }

    #[test]
    fn multi_round_plan_shape_is_consistent() {
        let p = baseline();
        let task = Task::new(1, 0.0, 300.0, 5_000.0);
        let a = avail(&[0.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0], 0.0);
        let cfg = PlanConfig::default();
        let mr = plan_task(
            StrategyKind::DltMultiRound { rounds: 3 },
            &task,
            &a,
            &p,
            &cfg,
        )
        .unwrap();
        if let StrategyKind::DltMultiRound { rounds } = mr.strategy {
            let n = mr.distinct_nodes();
            assert_eq!(mr.n(), n * rounds as usize, "rounds × nodes chunks");
            // Fractions sum to 1 across all chunks.
            assert!((mr.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // Transmission starts are serialized (non-decreasing).
            for w in mr.start_times.windows(2) {
                assert!(w[0] <= w[1]);
            }
            // Release estimates are the exact replay: the maximum equals the
            // completion estimate.
            let max_rel = mr.node_release_estimates.iter().max().unwrap();
            assert_eq!(*max_rel, mr.est_completion);
        }
        // (If the adaptive fallback chose single-round here, the workload
        // regime makes installments unprofitable — also a valid outcome.)
    }
}
