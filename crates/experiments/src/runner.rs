//! Simulation runners: one seeded run, replicated runs, and a parallel
//! executor for whole parameter sweeps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::{AlgorithmKind, PlanConfig};
use rtdls_sim::prelude::{run_simulation, LinkModel, Metrics, ReplanPolicy, SimConfig};
use rtdls_workload::prelude::{WorkloadGenerator, WorkloadSpec};

use crate::stats::Summary;

/// Options shared by every run of a sweep.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RunOptions {
    /// Number of replicated runs per point (the paper uses 10).
    pub replicates: u64,
    /// Base seed; replicate `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// Replanning policy for the simulator.
    pub replan: ReplanPolicy,
    /// Link model for the simulator.
    pub link: LinkModel,
    /// Planning knobs (node-count policy, release estimates).
    pub plan: PlanConfig,
    /// Worker threads for sweeps (0 = available parallelism).
    pub threads: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            replicates: 10,
            base_seed: 0x5eed,
            replan: ReplanPolicy::default(),
            link: LinkModel::default(),
            plan: PlanConfig::default(),
            threads: 0,
        }
    }
}

impl RunOptions {
    /// Resolved worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Runs one seeded simulation of `algorithm` over `workload`.
///
/// Guarantee checking is strict under the per-task link model (violations
/// are bugs there); the shared-link ablation records violations in the
/// metrics instead.
pub fn run_one(
    workload: &WorkloadSpec,
    algorithm: AlgorithmKind,
    seed: u64,
    opts: &RunOptions,
) -> Metrics {
    let tasks = WorkloadGenerator::new(*workload, seed);
    let mut cfg = SimConfig::new(workload.params, algorithm)
        .with_replan(opts.replan)
        .with_link(opts.link)
        .with_plan(opts.plan);
    if opts.link == LinkModel::PerTask {
        cfg = cfg.strict();
    }
    run_simulation(cfg, tasks).metrics
}

/// The replicated result for one (workload, algorithm) point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PointResult {
    /// The algorithm measured.
    pub algorithm: AlgorithmKind,
    /// Reject ratio per replicate, in seed order.
    pub reject_ratios: Vec<f64>,
    /// Summary over the replicates (the figure value ± CI).
    pub summary: Summary,
    /// Mean node utilization over replicates.
    pub mean_utilization: f64,
    /// Mean response time over replicates (completed tasks).
    pub mean_response_time: f64,
    /// Mean of mean-nodes-per-accepted-task over replicates.
    pub mean_nodes_per_task: f64,
    /// Total deadline misses across replicates (0 under the paper's model).
    pub deadline_misses: u64,
}

/// Runs `opts.replicates` seeded simulations sequentially and summarizes.
/// (Parallelism is applied across sweep points, not within one point.)
pub fn run_replicated(
    workload: &WorkloadSpec,
    algorithm: AlgorithmKind,
    opts: &RunOptions,
) -> PointResult {
    let metrics: Vec<Metrics> = (0..opts.replicates)
        .map(|k| run_one(workload, algorithm, opts.base_seed + k, opts))
        .collect();
    summarize_point(workload, algorithm, metrics)
}

fn summarize_point(
    workload: &WorkloadSpec,
    algorithm: AlgorithmKind,
    metrics: Vec<Metrics>,
) -> PointResult {
    let reject_ratios: Vec<f64> = metrics.iter().map(|m| m.reject_ratio()).collect();
    let n = metrics.len() as f64;
    let mean_utilization = metrics
        .iter()
        .map(|m| m.utilization(workload.params.num_nodes, workload.horizon))
        .sum::<f64>()
        / n;
    let mean_response_time = metrics.iter().map(|m| m.mean_response_time()).sum::<f64>() / n;
    let mean_nodes_per_task = metrics.iter().map(|m| m.mean_nodes_per_task()).sum::<f64>() / n;
    let deadline_misses = metrics.iter().map(|m| m.deadline_misses).sum();
    PointResult {
        algorithm,
        summary: Summary::from_values(&reject_ratios),
        reject_ratios,
        mean_utilization,
        mean_response_time,
        mean_nodes_per_task,
        deadline_misses,
    }
}

/// A unit of sweep work: one (workload, algorithm) point.
#[derive(Clone, Debug)]
pub struct SweepJob {
    /// Workload for this point.
    pub workload: WorkloadSpec,
    /// Algorithm for this point.
    pub algorithm: AlgorithmKind,
}

/// Executes `jobs` across `opts.effective_threads()` worker threads.
/// Every job runs all its replicates; results come back in job order.
///
/// Each (job, seed) pair is independent — classic embarrassing parallelism —
/// so a lock-free job counter plus per-thread result buffers is all the
/// coordination needed.
pub fn run_sweep(jobs: &[SweepJob], opts: &RunOptions) -> Vec<PointResult> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let threads = opts.effective_threads().min(jobs.len());
    if threads <= 1 {
        return jobs
            .iter()
            .map(|j| run_replicated(&j.workload, j.algorithm, opts))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<PointResult>>> = Mutex::new(vec![None; jobs.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let job = &jobs[i];
                let result = run_replicated(&job.workload, job.algorithm, opts);
                results.lock().expect("no poisoned workers")[i] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|r| r.expect("every job produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(load: f64) -> WorkloadSpec {
        let mut s = WorkloadSpec::paper_baseline(load);
        s.horizon = 2e5; // a few hundred tasks — enough for smoke statistics
        s
    }

    #[test]
    fn one_run_is_deterministic_per_seed() {
        let spec = quick_spec(0.6);
        let opts = RunOptions::default();
        let a = run_one(&spec, AlgorithmKind::EDF_DLT, 3, &opts);
        let b = run_one(&spec, AlgorithmKind::EDF_DLT, 3, &opts);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.deadline_misses, 0);
    }

    #[test]
    fn replicates_differ_across_seeds_but_summary_holds() {
        let spec = quick_spec(0.8);
        let opts = RunOptions {
            replicates: 4,
            ..Default::default()
        };
        let point = run_replicated(&spec, AlgorithmKind::EDF_DLT, &opts);
        assert_eq!(point.reject_ratios.len(), 4);
        assert_eq!(point.summary.n, 4);
        assert!(point.summary.mean >= 0.0 && point.summary.mean <= 1.0);
        assert_eq!(point.deadline_misses, 0);
        assert!(point.mean_utilization > 0.0 && point.mean_utilization <= 1.0);
    }

    #[test]
    fn sweep_parallel_matches_sequential() {
        let jobs: Vec<SweepJob> = [0.4, 0.9]
            .iter()
            .flat_map(|&load| {
                [AlgorithmKind::EDF_DLT, AlgorithmKind::EDF_OPR_MN]
                    .into_iter()
                    .map(move |algorithm| SweepJob {
                        workload: quick_spec(load),
                        algorithm,
                    })
            })
            .collect();
        let seq = RunOptions {
            replicates: 2,
            threads: 1,
            ..Default::default()
        };
        let par = RunOptions {
            replicates: 2,
            threads: 4,
            ..Default::default()
        };
        let a = run_sweep(&jobs, &seq);
        let b = run_sweep(&jobs, &par);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.reject_ratios, y.reject_ratios,
                "parallelism changed results"
            );
        }
    }

    #[test]
    fn dlt_never_rejects_more_than_opr_mn_on_shared_seeds() {
        // The paper's headline claim on a small scale: same workload, same
        // seeds — the IIT-utilizing algorithm accepts at least as much.
        let spec = quick_spec(1.0);
        let opts = RunOptions {
            replicates: 3,
            ..Default::default()
        };
        let dlt = run_replicated(&spec, AlgorithmKind::EDF_DLT, &opts);
        let opr = run_replicated(&spec, AlgorithmKind::EDF_OPR_MN, &opts);
        assert!(
            dlt.summary.mean <= opr.summary.mean + 0.02,
            "EDF-DLT ({}) should not reject noticeably more than EDF-OPR-MN ({})",
            dlt.summary.mean,
            opr.summary.mean
        );
    }

    #[test]
    fn empty_sweep_is_empty() {
        assert!(run_sweep(&[], &RunOptions::default()).is_empty());
    }
}
