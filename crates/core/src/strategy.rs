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
//!
//! ## One planning kernel
//!
//! Each strategy's arithmetic exists once, in `plan_into`: it plans into
//! buffers its caller owns (`PlanScratch`: per-chunk starts, the prefix
//! products of Eq. 4–5 turned into `α` in place, per-chunk release
//! estimates, and `Cps_i` of Eq. 1) and returns what it decided (`Planned`:
//! the strategy, how many of the earliest-available nodes it took, the
//! completion estimate). It keeps the heterogeneous model's input checks
//! and checks the estimate against the deadline itself. Three callers read
//! the result three ways: [`plan_task`] — the public function, and the one
//! thing the admission oracle shares with the production walks — runs the
//! kernel on fresh buffers and moves them into a [`TaskPlan`]; a walk's
//! kept step appends the plan, from the walk's own scratch, to the arena
//! its pass keeps (`admission/walk.rs`, no allocation once warm); a walk's
//! verdict-only step (every probe of an explanation or reservation search)
//! writes the release estimates through the availability's head and
//! allocates nothing. The heterogeneous recurrence itself
//! (`dlt::heterogeneous::partition_into`) is also what
//! [`HeterogeneousModel::new`](crate::dlt::heterogeneous::HeterogeneousModel::new)
//! builds on.

use serde::{Deserialize, Serialize};

use crate::dlt::{heterogeneous, homogeneous};
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
/// temp-schedule (an ablation knob).
///
/// This choice shapes the whole availability landscape: with staggered
/// per-node releases, successor tasks see nodes freeing at *different* times
/// — the very situation (Fig. 1b) the DLT-IIT strategy exploits. Uniform
/// bookkeeping erases that staggering after every task, which suppresses
/// nearly all of the IIT benefit (ablation `abl-estimate` in
/// `crates/bench/benches/ablations.rs`; not gated).
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
    /// *and* DLT < User-Split at DCRatio 2 in Fig. 5a; gated by
    /// `dlt_beats_opr_mn_at_every_load` and
    /// `dlt_beats_user_split_at_tight_deadlines` in `tests/paper_claims.rs`).
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
    /// occupies exactly the `n` earliest entries. The head is
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
}

/// Plans `task` under `kind` against the availability snapshot.
///
/// Returns the plan or the reason the task cannot meet its deadline (which
/// the admission layer turns into a rejection). This is the planning kernel
/// ([`plan_into`]) on fresh buffers, which then *are* the plan's vectors.
pub fn plan_task(
    kind: StrategyKind,
    task: &Task,
    avail: &NodeAvailability,
    params: &ClusterParams,
    cfg: &PlanConfig,
) -> Result<TaskPlan, Infeasible> {
    let mut scratch = PlanScratch::default();
    let planned = plan_into(kind, task, avail, params, cfg, &mut scratch)?;
    Ok(TaskPlan {
        task: task.id,
        strategy: planned.strategy,
        nodes: planned.chunk_nodes(avail).collect(),
        start_times: scratch.starts,
        fractions: scratch.fractions,
        est_completion: planned.est,
        node_release_estimates: scratch.releases,
    })
}

/// The buffers one planning step works in, owned by whoever takes the steps
/// (a walk keeps one set for all of its steps; [`plan_task`] brings a fresh
/// one). After a successful [`plan_into`] the per-chunk vectors hold the
/// plan, chunk for chunk in transmission order.
#[derive(Clone, Debug, Default)]
pub(crate) struct PlanScratch {
    /// Per chunk: the earliest instant its transmission may start.
    starts: Vec<SimTime>,
    /// Per chunk: prefix products of `X_i` while the partition is built,
    /// the load fractions `α` once it is.
    fractions: Vec<f64>,
    /// Per chunk: the node release estimate.
    releases: Vec<SimTime>,
    /// Per node: the heterogeneous model's `Cps_i` (Eq. 1).
    cps_het: Vec<f64>,
    /// Per node: when its latest installment completes (multi-round replay).
    node_free: Vec<f64>,
}

/// What [`plan_into`] decided; the chunks themselves are in the scratch it
/// planned into, and the nodes are the availability's earliest.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Planned {
    /// The strategy the plan is of (a multi-round request may settle for the
    /// single-round plan).
    pub(crate) strategy: StrategyKind,
    /// How many of the earliest-available nodes the plan occupies.
    pub(crate) nodes: usize,
    /// Number of chunks: `nodes`, times the rounds of a multi-round plan.
    /// Chunk `c` goes to the `c mod nodes`-th earliest node.
    chunks: usize,
    /// The completion estimate, checked against the deadline.
    pub(crate) est: SimTime,
}

impl PlanScratch {
    /// The per-chunk vectors of the plan last planned here: transmission
    /// starts, load fractions and release estimates.
    pub(crate) fn chunks(&self) -> (&[SimTime], &[f64], &[SimTime]) {
        (&self.starts, &self.fractions, &self.releases)
    }
}

impl Planned {
    /// [`TaskPlan::write_releases`] without the plan: the release estimates
    /// go from the scratch to the nodes at the head of `avail`, chunk by
    /// chunk, so a later chunk on one node supersedes an earlier one.
    #[inline]
    pub(crate) fn write_releases(
        self,
        avail: &NodeAvailability,
        scratch: &PlanScratch,
        releases: &mut [SimTime],
    ) {
        for (node, &rel) in self.chunk_nodes(avail).zip(&scratch.releases) {
            releases[node.index()] = rel;
        }
    }

    /// The node of every chunk, in transmission order: the availability's
    /// head, round after round.
    pub(crate) fn chunk_nodes(self, avail: &NodeAvailability) -> impl Iterator<Item = NodeId> + '_ {
        let head = &avail.entries[..self.nodes];
        head.iter().map(|e| e.1).cycle().take(self.chunks)
    }
}

/// The planning kernel: one task under `kind` against the availability
/// snapshot, planned into `scratch`. Every strategy's arithmetic lives here
/// and only here — [`plan_task`] moves the result into a plan, a walk's kept
/// step appends it to its pass's arena, and a walk's verdict-only step reads
/// nothing but the release estimates.
pub(crate) fn plan_into(
    kind: StrategyKind,
    task: &Task,
    avail: &NodeAvailability,
    params: &ClusterParams,
    cfg: &PlanConfig,
    scratch: &mut PlanScratch,
) -> Result<Planned, Infeasible> {
    scratch.starts.clear();
    scratch.fractions.clear();
    scratch.releases.clear();
    let planned = match kind {
        StrategyKind::DltIit => plan_dlt_iit(task, avail, params, cfg, scratch)?,
        StrategyKind::DltMultiRound { rounds } => {
            plan_dlt_multi_round(task, avail, params, cfg, rounds, scratch)?
        }
        StrategyKind::OprMn => plan_opr(task, avail, params, cfg, false, scratch)?,
        StrategyKind::OprAn => plan_opr(task, avail, params, cfg, true, scratch)?,
        StrategyKind::UserSplit => plan_user_split(task, avail, params, scratch)?,
    };
    debug_assert_eq!(scratch.starts.len(), planned.chunks);
    debug_assert_eq!(scratch.fractions.len(), planned.chunks);
    debug_assert_eq!(scratch.releases.len(), planned.chunks);
    debug_assert!(
        (scratch.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9,
        "fractions must sum to 1"
    );
    debug_assert!(
        scratch.starts.windows(2).all(|w| w[0] <= w[1]),
        "start times must be non-decreasing in transmission order"
    );
    Ok(planned)
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
    scratch: &mut PlanScratch,
) -> Result<Planned, Infeasible> {
    let deadline = task.absolute_deadline();
    let n = select_node_count(task, avail, params, cfg)?;
    let PlanScratch {
        starts,
        fractions,
        releases,
        cps_het,
        ..
    } = scratch;
    starts.extend(avail.times().take(n));

    heterogeneous::check_inputs(task.data_size, starts)
        .expect("sorted positive inputs by construction");
    let (_, exec_time) =
        heterogeneous::partition_into(params, task.data_size, starts, cps_het, fractions);
    // Eq. 7: the model's nodes are all allocated at r_n.
    let est = SimTime::new(starts[n - 1].as_f64() + exec_time);
    // Load-bearing under OneShot (the wait can defeat the optimistic n);
    // a pure float-noise guard under FixedPoint.
    if est.definitely_after(deadline) {
        return Err(Infeasible::CompletionAfterDeadline);
    }
    match cfg.release_estimate {
        ReleaseEstimate::Exact => {
            exact_completions_into(params, task.data_size, fractions, starts, releases)
        }
        ReleaseEstimate::Uniform => releases.resize(n, est),
        ReleaseEstimate::TightPerNode => heterogeneous::completion_bounds_into(
            params,
            task.data_size,
            fractions,
            starts,
            releases,
        ),
    }
    Ok(Planned {
        strategy: StrategyKind::DltIit,
        nodes: n,
        chunks: n,
        est,
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
    scratch: &mut PlanScratch,
) -> Result<Planned, Infeasible> {
    let deadline = task.absolute_deadline();
    let n = if all_nodes {
        avail.num_nodes()
    } else {
        select_node_count(task, avail, params, cfg)?
    };
    let t_start = avail.entries[..n].last().expect("n >= 1").0;
    let e = homogeneous::exec_time(params, task.data_size, n);
    let est = t_start + SimTime::new(e);
    if est.definitely_after(deadline) {
        return Err(Infeasible::CompletionAfterDeadline);
    }
    // No IIT use: every node waits for the common start.
    scratch.starts.resize(n, t_start);
    homogeneous::alphas_into(params, n, &mut scratch.fractions);
    // OPR's equal-finish property makes the estimate exact per node.
    scratch.releases.resize(n, est);
    Ok(Planned {
        strategy: if all_nodes {
            StrategyKind::OprAn
        } else {
            StrategyKind::OprMn
        },
        nodes: n,
        chunks: n,
        est,
    })
}

/// §4.1.2: user splits the task into `n` equal chunks; chunks are dispatched
/// sequentially, each node starting as soon as it is available and the
/// preceding transmission has finished (Eq. 15).
fn plan_user_split(
    task: &Task,
    avail: &NodeAvailability,
    params: &ClusterParams,
    scratch: &mut PlanScratch,
) -> Result<Planned, Infeasible> {
    let n = task.user_nodes.ok_or(Infeasible::UserRequestInfeasible)?;
    if n == 0 || n > avail.num_nodes() {
        return Err(Infeasible::UserRequestInfeasible);
    }
    let deadline = task.absolute_deadline();
    let chunk = task.data_size / n as f64;
    let tx = chunk * params.cms;
    let per_node = tx + chunk * params.cps;

    scratch.starts.reserve(n);
    scratch.releases.reserve(n);
    let mut prev_tx_end = f64::NEG_INFINITY;
    for r in avail.times().take(n) {
        let si = r.as_f64().max(prev_tx_end);
        prev_tx_end = si + tx;
        scratch.starts.push(SimTime::new(si));
        // Eq. 15 gives exact per-node completions for the equal split.
        scratch.releases.push(SimTime::new(si + per_node));
    }
    let est = *scratch.releases.last().expect("n >= 1");
    if est.definitely_after(deadline) {
        return Err(Infeasible::CompletionAfterDeadline);
    }
    scratch.fractions.resize(n, 1.0 / n as f64);
    Ok(Planned {
        strategy: StrategyKind::UserSplit,
        nodes: n,
        chunks: n,
        est,
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
    scratch: &mut PlanScratch,
) -> Result<Planned, Infeasible> {
    let single = plan_dlt_iit(task, avail, params, cfg, scratch)?;
    if rounds <= 1 {
        return Ok(single);
    }
    let n = single.nodes;
    let m = rounds as usize;
    let sigma = task.data_size;
    let deadline = task.absolute_deadline();
    let PlanScratch {
        starts,
        fractions,
        releases,
        node_free,
        ..
    } = scratch;

    // The multi-round chunks go behind the single-round plan's `n`: rounds ×
    // nodes, node order within each round, each chunk 1/m of the node's
    // single-round fraction.
    fractions.reserve(n * m);
    for _ in 0..m {
        for i in 0..n {
            fractions.push(fractions[i] / m as f64);
        }
    }

    // Exact replay: per-chunk transmission serialization + per-node busy
    // chaining. The replayed transmission start is what the plan records, so
    // the engine reproduces the identical schedule.
    node_free.clear();
    node_free.extend(starts[..n].iter().map(|t| t.as_f64()));
    starts.reserve(n * m);
    releases.reserve(n * m);
    let mut prev_tx_end = f64::NEG_INFINITY;
    for round in 1..=m {
        for i in 0..n {
            let fraction = fractions[round * n + i];
            let tx_start = starts[i].as_f64().max(node_free[i]).max(prev_tx_end);
            let tx_end = tx_start + fraction * sigma * params.cms;
            let compute_end = tx_end + fraction * sigma * params.cps;
            // The node is busy (receiving or computing) from tx_start on;
            // the next installment cannot occupy it before this one
            // completes.
            node_free[i] = compute_end;
            starts.push(SimTime::new(tx_start));
            releases.push(SimTime::new(compute_end));
            prev_tx_end = tx_end;
        }
    }
    let est = *releases[n..].iter().max().expect("non-empty");
    // A replay past the deadline loses to the single-round plan, which
    // passed its own check; so does one that is no better.
    if est.definitely_after(deadline) || est >= single.est {
        starts.truncate(n);
        fractions.truncate(n);
        releases.truncate(n);
        return Ok(single);
    }
    starts.drain(..n);
    fractions.drain(..n);
    releases.drain(..n);
    Ok(Planned {
        strategy: StrategyKind::DltMultiRound { rounds },
        nodes: n,
        chunks: n * m,
        est,
    })
}

/// Replays a plan's execution timeline exactly, appending each chunk's
/// completion to `out`: transmission to node `i` starts once the node is
/// available *and* the task's preceding chunk has been sent, then compute
/// follows. These are the true completion times the cluster realizes for
/// this plan (the dispatch engine performs the same arithmetic), each
/// bounded by the task's completion estimate (Theorem 4).
fn exact_completions_into(
    params: &ClusterParams,
    sigma: f64,
    fractions: &[f64],
    starts: &[SimTime],
    out: &mut Vec<SimTime>,
) {
    let mut prev_tx_end = f64::NEG_INFINITY;
    out.extend(fractions.iter().zip(starts).map(|(&alpha, &r)| {
        let tx_start = r.as_f64().max(prev_tx_end);
        let tx_end = tx_start + alpha * sigma * params.cms;
        prev_tx_end = tx_end;
        SimTime::new(tx_end + alpha * sigma * params.cps)
    }));
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
        assert!(a.nodes().take(2).eq([NodeId(1), NodeId(2)]));
    }

    #[test]
    fn availability_breaks_ties_by_node_id() {
        let a = avail(&[7.0, 7.0, 7.0], 0.0);
        assert!(a.nodes().eq([NodeId(0), NodeId(1), NodeId(2)]));
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
