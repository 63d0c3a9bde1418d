//! Checks re-derived from the paper's formulas, sharing no code with the
//! planner they check.
//!
//! Everything here may name the workspace's *data types* — [`Task`],
//! [`TaskPlan`], [`StrategyKind`], [`ClusterParams`], [`SimTime`],
//! [`NodeId`] — and nothing that computes: no planning kernel, no DLT
//! model, no `ñ_min` scan, no admission engine. A CI step greps this file
//! for a path into any of those modules and fails on one, so a check here
//! cannot quietly call the code it checks (Gallet, Robert & Vivien,
//! arXiv cs/0702066: every implementation of a published "optimal"
//! schedule agreed with that schedule, and the schedule was wrong).
//!
//! Two things live here:
//!
//! * [`solve_equal_finish`] — the optimal single-round partition as the
//!   solution of its defining linear system (Eq. 3: every node finishes at
//!   `T`, `Σα = 1`), by a dense Gaussian elimination ([`solve_dense`])
//!   instead of the paper's recurrence (Eq. 4–5).
//! * [`certify`] — the plan certificate: a plan, the release vector it was
//!   planned against and the cluster it runs on in, `Ok` or the first
//!   clause the plan breaks.

#![allow(clippy::needless_range_loop)] // translated numeric reference code

use std::fmt;

use rtdls_core::params::{ClusterParams, NodeId};
use rtdls_core::prelude::{StrategyKind, TaskPlan};
use rtdls_core::task::Task;
use rtdls_core::time::SimTime;

/// Dense Gaussian elimination with partial pivoting. `a` is row-major
/// `n×n`, `b` the right-hand side; returns `x` with `a·x = b`. Panics on a
/// singular system.
pub fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty system");
        a.swap(col, pivot);
        b.swap(col, pivot);
        assert!(a[col][col].abs() > 1e-14, "singular system");
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    x
}

/// The equal-finish partition of load `sigma` over nodes with unit
/// processing costs `cps` (in transmission order) behind one link at unit
/// cost `cms`, solved directly:
///
/// ```text
/// Σ_{j≤i} α_j·σ·Cms + α_i·σ·Cps_i = T   for i = 1..n
/// Σ_i α_i = 1
/// ```
///
/// Returns `(α, T)`. With every `Cps_i = Cps` this is the homogeneous
/// partition and `T = E(σ, n)`; with Eq. 1's `Cps_i` it is the paper's
/// heterogeneous model and `T = Ê(σ, n)`.
pub fn solve_equal_finish(sigma: f64, cms: f64, cps: &[f64]) -> (Vec<f64>, f64) {
    let n = cps.len();
    // Unknowns x = [α_1..α_n, T]; n equal-finish rows + 1 normalization row.
    let mut a = vec![vec![0.0; n + 1]; n + 1];
    let mut b = vec![0.0; n + 1];
    for i in 0..n {
        for j in 0..=i {
            a[i][j] += sigma * cms;
        }
        a[i][i] += sigma * cps[i];
        a[i][n] = -1.0; // − T
    }
    for j in 0..n {
        a[n][j] = 1.0;
    }
    b[n] = 1.0;
    let x = solve_dense(a, b);
    (x[..n].to_vec(), x[n])
}

/// Which promise of the certificate a plan broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clause {
    /// The plan is not a plan of this task on this cluster: empty, chunk
    /// vectors of different lengths, a node outside the cluster, a repeated
    /// node in a single-round plan.
    Shape,
    /// A load fraction is negative or not finite, or they do not sum to 1.
    Fractions,
    /// A chunk's transmission may start before its node is released.
    Release,
    /// A release estimate or the completion estimate is earlier than the
    /// computation it covers finishes.
    Estimate,
    /// The plan completes after the task's absolute deadline.
    Deadline,
    /// The node count is not the one Eq. 11–14 give.
    NodeCount,
    /// The fractions or the completion estimate are not the equal-finish
    /// partition's (Eq. 1 and 3, or the strategy's own rule).
    Partition,
    /// A chunk of a single-round DLT plan finishes after `r_n + Ê`
    /// (Theorem 4).
    Theorem4,
}

/// A plan that failed its certificate: the clause and what was found.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The clause broken.
    pub clause: Clause,
    /// What the plan says against what the formulas give.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.clause, self.detail)
    }
}

impl std::error::Error for Violation {}

fn violation(clause: Clause, detail: String) -> Result<(), Violation> {
    Err(Violation { clause, detail })
}

/// Absolute slack on a time comparison: the workspace's `TIME_EPS` plus a
/// relative part for times far from zero.
fn time_tol(t: f64) -> f64 {
    1e-6 + 1e-9 * t.abs()
}

/// How far a load fraction may sit from the equal-finish solution.
const FRACTION_TOL: f64 = 1e-8;

/// Relative slack on `ln γ / ln β` when it is compared with an integer.
const NODES_TOL: f64 = 1e-7;

/// Certifies `plan` for `task` on `cluster`, against `releases` — the
/// release vector it was planned on, by node id (committed work and every
/// plan ahead of it; a vector earlier than that, such as only what is
/// committed, certifies too). Re-derives from the paper's formulas, in this
/// order:
///
/// 1. the plan's shape, and `α ≥ 0`, `Σα = 1`;
/// 2. the chunks' timeline: one link at `Cms`, transmissions in chunk
///    order, each starting no earlier than its recorded start, its node's
///    release and the previous transmission's end; a node's computation
///    ends `α·σ·Cps` after its transmission, and a node met again (a
///    multi-round plan) receives its next chunk only once it has computed
///    the last. Every chunk's release estimate and the completion estimate
///    cover that timeline;
/// 3. completion and estimate by `arrival + D`;
/// 4. per strategy: the node count — Eq. 11–14's `ñ_min`, derived here,
///    for DLT and OPR-MN; `N` for OPR-AN; the user's count for UserSplit —
///    and the partition: the equal-finish solution ([`solve_equal_finish`])
///    for DLT (over Eq. 1's `Cps_i`) and OPR (over `Cps`), equal chunks for
///    UserSplit, each node's single-round share split evenly over the rounds
///    of a multi-round plan;
/// 5. for single-round DLT, Theorem 4: no chunk finishes after `r_n + Ê`.
///
/// Where the node count is read off the plan: `n` agrees with
/// `ñ_min(r_n)` — what `NodeCountPolicy::FixedPoint` picks — or is at most
/// `ñ_min(r_1)` — what `OneShot` picks at an instant no later than the
/// first node's availability. A multi-round plan does not record the
/// availabilities its rounds were built on, so its node count and shares
/// are checked only against each other.
pub fn certify(
    cluster: &ClusterParams,
    task: &Task,
    releases: &[SimTime],
    plan: &TaskPlan,
) -> Result<(), Violation> {
    let chunks = plan.nodes.len();
    if plan.task != task.id
        || chunks == 0
        || plan.start_times.len() != chunks
        || plan.fractions.len() != chunks
        || plan.node_release_estimates.len() != chunks
        || releases.len() != cluster.num_nodes
    {
        return violation(
            Clause::Shape,
            format!(
                "{chunks} chunks of task {:?} planned for task {:?}",
                plan.task, task.id
            ),
        );
    }
    if let Some(node) = plan.nodes.iter().find(|n| n.index() >= cluster.num_nodes) {
        return violation(Clause::Shape, format!("node {node:?} outside the cluster"));
    }
    if plan.fractions.iter().any(|a| !(a.is_finite() && *a >= 0.0)) {
        return violation(Clause::Fractions, format!("{:?}", plan.fractions));
    }
    let total: f64 = plan.fractions.iter().sum();
    if (total - 1.0).abs() > 1e-9 {
        return violation(Clause::Fractions, format!("Σα = {total}"));
    }

    let sigma = task.data_size;
    let (cms, cps) = (cluster.cms, cluster.cps);
    let mut node_done = vec![f64::NEG_INFINITY; cluster.num_nodes];
    let mut prev_tx_end = f64::NEG_INFINITY;
    let mut completions = Vec::with_capacity(chunks);
    for c in 0..chunks {
        let node = plan.nodes[c].index();
        let start = plan.start_times[c].as_f64();
        let release = releases[node].as_f64();
        if start < release - time_tol(release) {
            return violation(
                Clause::Release,
                format!("chunk {c} may start at {start} on node {node}, released at {release}"),
            );
        }
        let tx_start = start.max(release).max(prev_tx_end).max(node_done[node]);
        let alpha = plan.fractions[c];
        let tx_end = tx_start + alpha * sigma * cms;
        let compute_end = tx_end + alpha * sigma * cps;
        let estimate = plan.node_release_estimates[c].as_f64();
        if compute_end > estimate + time_tol(estimate) {
            return violation(
                Clause::Estimate,
                format!(
                    "chunk {c} computes until {compute_end}, its node is released at {estimate}"
                ),
            );
        }
        prev_tx_end = tx_end;
        node_done[node] = compute_end;
        completions.push(compute_end);
    }
    let completion = completions
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let est = plan.est_completion.as_f64();
    if completion > est + time_tol(est) {
        return violation(
            Clause::Estimate,
            format!("the plan completes at {completion}, estimated {est}"),
        );
    }
    let deadline = task.arrival.as_f64() + task.rel_deadline;
    if est.max(completion) > deadline + time_tol(deadline) {
        return violation(
            Clause::Deadline,
            format!("completes at {completion}, estimated {est}, deadline {deadline}"),
        );
    }

    let starts: Vec<f64> = plan.start_times.iter().map(|t| t.as_f64()).collect();
    match plan.strategy {
        StrategyKind::DltIit => {
            single_round(plan)?;
            if starts.windows(2).any(|w| w[1] < w[0]) {
                return violation(
                    Clause::Shape,
                    format!("availabilities out of order: {starts:?}"),
                );
            }
            node_count(cluster, task, chunks, starts[0], starts[chunks - 1])?;
            let r_n = starts[chunks - 1];
            let (_, e) = solve_equal_finish(sigma, cms, &vec![cps; chunks]);
            // Eq. 1: each node's idle time before r_n absorbed into its speed.
            let cps_het: Vec<f64> = starts.iter().map(|r| e / (e + (r_n - r)) * cps).collect();
            let (alphas, e_hat) = solve_equal_finish(sigma, cms, &cps_het);
            partition(plan, &alphas, r_n + e_hat)?;
            let bound = r_n + e_hat;
            if let Some(c) = (0..chunks).find(|&c| completions[c] > bound + time_tol(bound)) {
                return violation(
                    Clause::Theorem4,
                    format!(
                        "chunk {c} computes until {}, past r_n + Ê = {bound}",
                        completions[c]
                    ),
                );
            }
        }
        StrategyKind::OprMn | StrategyKind::OprAn => {
            single_round(plan)?;
            let t_start = starts[0];
            if starts.iter().any(|&s| s != t_start) {
                return violation(Clause::Shape, format!("OPR starts apart: {starts:?}"));
            }
            if plan.strategy == StrategyKind::OprAn {
                if chunks != cluster.num_nodes {
                    return violation(
                        Clause::NodeCount,
                        format!("OPR-AN on {chunks} of {} nodes", cluster.num_nodes),
                    );
                }
            } else {
                node_count(cluster, task, chunks, t_start, t_start)?;
            }
            let (alphas, e) = solve_equal_finish(sigma, cms, &vec![cps; chunks]);
            partition(plan, &alphas, t_start + e)?;
        }
        StrategyKind::UserSplit => {
            single_round(plan)?;
            if task.user_nodes != Some(chunks) {
                return violation(
                    Clause::NodeCount,
                    format!("{chunks} chunks, the user asked for {:?}", task.user_nodes),
                );
            }
            partition(plan, &vec![1.0 / chunks as f64; chunks], completion)?;
        }
        StrategyKind::DltMultiRound { rounds } => {
            let rounds = rounds as usize;
            let n = chunks / rounds.max(1);
            let round_robin = rounds >= 2
                && n * rounds == chunks
                && (n..chunks).all(|c| plan.nodes[c] == plan.nodes[c % n]);
            let mut heads: Vec<NodeId> = plan.nodes[..n.min(chunks)].to_vec();
            heads.sort_unstable();
            heads.dedup();
            if !round_robin || heads.len() != n {
                return violation(
                    Clause::Shape,
                    format!("{chunks} chunks are not {rounds} rounds over distinct nodes"),
                );
            }
            if let Some(c) = (n..chunks)
                .find(|&c| (plan.fractions[c] - plan.fractions[c % n]).abs() > FRACTION_TOL)
            {
                return violation(
                    Clause::Partition,
                    format!(
                        "chunk {c} carries {}, its node's first {}",
                        plan.fractions[c],
                        plan.fractions[c % n]
                    ),
                );
            }
        }
    }
    Ok(())
}

/// A single-round plan uses each of its nodes once.
fn single_round(plan: &TaskPlan) -> Result<(), Violation> {
    let mut nodes = plan.nodes.clone();
    nodes.sort_unstable();
    nodes.dedup();
    if nodes.len() != plan.nodes.len() {
        return violation(Clause::Shape, format!("a node repeats in {:?}", plan.nodes));
    }
    Ok(())
}

/// The plan's fractions are `alphas` and its completion estimate is `est`.
fn partition(plan: &TaskPlan, alphas: &[f64], est: f64) -> Result<(), Violation> {
    if let Some(c) =
        (0..alphas.len()).find(|&c| (plan.fractions[c] - alphas[c]).abs() > FRACTION_TOL)
    {
        return violation(
            Clause::Partition,
            format!(
                "α_{c} = {}, the equal-finish partition gives {}",
                plan.fractions[c], alphas[c]
            ),
        );
    }
    let planned = plan.est_completion.as_f64();
    if (planned - est).abs() > time_tol(est) {
        return violation(
            Clause::Partition,
            format!("estimated completion {planned}, the formulas give {est}"),
        );
    }
    Ok(())
}

/// Eq. 11–14: with `γ(r) = 1 − σ·Cms/(A + D − r)` and
/// `β = Cps/(Cms + Cps)`, `n` nodes whose last is available at `r` meet
/// the deadline under the no-IIT time when `βⁿ ≤ γ(r)`, so
/// `ñ_min(r) = max(1, ⌈ln γ / ln β⌉)`. The plan's `n` must be
/// `ñ_min(r_n)`, or at most `ñ_min(r_1)`.
fn node_count(
    cluster: &ClusterParams,
    task: &Task,
    n: usize,
    r_1: f64,
    r_n: f64,
) -> Result<(), Violation> {
    let beta = cluster.cps / (cluster.cms + cluster.cps);
    let deadline = task.arrival.as_f64() + task.rel_deadline;
    // The range ñ_min(r) may take once `ln γ / ln β` is read with a
    // relative tolerance, or `None` when no node count can meet the
    // deadline from `r` (Eq. 13: no slack, or not even for transmission).
    let n_min = |r: f64| -> Option<(usize, usize)> {
        let gamma = 1.0 - task.data_size * cluster.cms / (deadline - r);
        if deadline - r <= 0.0 || gamma <= 0.0 {
            return None;
        }
        let x = gamma.ln() / beta.ln();
        let nodes = |x: f64| (x.ceil() as usize).max(1);
        Some((
            nodes(x - NODES_TOL * x.max(1.0)),
            nodes(x + NODES_TOL * x.max(1.0)),
        ))
    };
    let Some((lo, hi)) = n_min(r_n) else {
        return violation(
            Clause::NodeCount,
            format!("no node count meets the deadline {deadline} from r_n = {r_n}"),
        );
    };
    let one_shot = n_min(r_1).is_some_and(|(_, hi_1)| n <= hi_1);
    if !((lo..=hi).contains(&n) || one_shot) {
        return violation(
            Clause::NodeCount,
            format!("{n} nodes, ñ_min(r_n = {r_n}) is {lo}..={hi}"),
        );
    }
    Ok(())
}
