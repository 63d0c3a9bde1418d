//! Simulation metrics.
//!
//! The paper's headline metric is the **Task Reject Ratio** (rejections over
//! arrivals, §5). The collector additionally tracks the quantities that
//! explain *why* an algorithm wins: node utilization, inserted idle time
//! actually incurred, response times, and — as a correctness check, not a
//! performance number — deadline misses among accepted tasks (always 0 when
//! the model assumptions hold).

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::{Infeasible, SimTime};

/// Aggregated outcome of one simulation run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Tasks that arrived (admission decisions made).
    pub arrivals: u64,
    /// Tasks admitted.
    pub accepted: u64,
    /// Tasks rejected at admission.
    pub rejected: u64,
    /// Rejections because the deadline passed before any node could start.
    pub rejected_deadline_before_start: u64,
    /// Rejections because the slack could not even cover the transmission.
    pub rejected_no_transmission_time: u64,
    /// Rejections because no node count within the cluster sufficed.
    pub rejected_not_enough_nodes: u64,
    /// Rejections because the completion estimate overshot the deadline
    /// (the only cause the IIT-utilizing estimate can rescue).
    pub rejected_completion_after_deadline: u64,
    /// Rejections because the user-split request was infeasible.
    pub rejected_user_infeasible: u64,
    /// Accepted tasks that finished within the simulation.
    pub completed: u64,
    /// Accepted tasks that finished after their absolute deadline.
    /// A non-zero value indicates a broken model assumption (e.g. the
    /// shared-link ablation) — never observed under the paper's model.
    pub deadline_misses: u64,
    /// Accepted tasks whose actual completion exceeded the admission-time
    /// estimate (violating Theorem 4; same caveat as `deadline_misses`).
    pub estimate_overruns: u64,
    /// Σ over dispatched chunks of `tx_start − node-available-time`: idle
    /// node time between becoming free and starting the next chunk.
    pub inserted_idle_time: f64,
    /// Σ over dispatched chunks of busy time (transmission + compute).
    pub busy_time: f64,
    /// Σ of `completion − arrival` over completed tasks.
    pub total_response_time: f64,
    /// Largest observed `completion − arrival`.
    pub max_response_time: f64,
    /// Σ of nodes allocated per accepted task (for mean allocation size).
    pub total_nodes_allocated: u64,
    /// Σ over dispatched tasks of `(r_n + E(σ,n)) − est_completion`: the
    /// time the IIT-utilizing estimate saved versus the no-IIT baseline
    /// estimate on the same allocation (0 for OPR plans by construction).
    pub estimate_iit_gain: f64,
    /// Number of dispatched tasks (denominator for `estimate_iit_gain`).
    pub dispatched: u64,
    /// Time of the last event processed.
    pub end_time: f64,
}

impl Metrics {
    /// Rejections over arrivals — the paper's Task Reject Ratio.
    /// Zero when nothing arrived.
    pub fn reject_ratio(&self) -> f64 {
        self.rejected as f64 / self.arrivals.max(1) as f64
    }

    /// Mean response time of completed tasks.
    pub fn mean_response_time(&self) -> f64 {
        self.total_response_time / self.completed.max(1) as f64
    }

    /// Mean nodes allocated per accepted task.
    pub fn mean_nodes_per_task(&self) -> f64 {
        self.total_nodes_allocated as f64 / self.accepted.max(1) as f64
    }

    /// Fraction of `num_nodes × horizon` node-time spent busy.
    pub fn utilization(&self, num_nodes: usize, horizon: f64) -> f64 {
        let denom = num_nodes as f64 * horizon;
        if denom <= 0.0 {
            0.0
        } else {
            self.busy_time / denom
        }
    }
}

/// Incremental collector used by the engine.
#[derive(Clone, Debug, Default)]
pub struct MetricsCollector {
    m: Metrics,
}

impl MetricsCollector {
    /// Fresh collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an arrival plus its admission decision (with the rejection
    /// cause when rejected).
    pub fn on_admission(&mut self, rejection: Option<Infeasible>) {
        self.m.arrivals += 1;
        match rejection {
            None => self.m.accepted += 1,
            Some(cause) => {
                self.m.rejected += 1;
                match cause {
                    Infeasible::DeadlineBeforeStart => self.m.rejected_deadline_before_start += 1,
                    Infeasible::NoTimeForTransmission => self.m.rejected_no_transmission_time += 1,
                    Infeasible::NotEnoughNodes => self.m.rejected_not_enough_nodes += 1,
                    Infeasible::CompletionAfterDeadline => {
                        self.m.rejected_completion_after_deadline += 1
                    }
                    Infeasible::UserRequestInfeasible => self.m.rejected_user_infeasible += 1,
                }
            }
        }
    }

    /// Records a dispatched chunk's timeline.
    pub fn on_chunk(&mut self, node_available: SimTime, tx_start: SimTime, compute_end: SimTime) {
        self.m.inserted_idle_time += (tx_start - node_available).as_f64().max(0.0);
        self.m.busy_time += (compute_end - tx_start).as_f64();
    }

    /// Records the node count granted to an accepted task at dispatch.
    pub fn on_dispatch(&mut self, n_nodes: usize) {
        self.m.total_nodes_allocated += n_nodes as u64;
        self.m.dispatched += 1;
    }

    /// Records the admission-time estimate improvement of the IIT-utilizing
    /// model over the no-IIT estimate for the same allocation.
    pub fn on_admission_gain(&mut self, estimate_gain: f64) {
        self.m.estimate_iit_gain += estimate_gain.max(0.0);
    }

    /// Records a task completing all chunks.
    pub fn on_task_complete(
        &mut self,
        arrival: SimTime,
        deadline: SimTime,
        estimate: SimTime,
        completion: SimTime,
    ) {
        self.m.completed += 1;
        let resp = (completion - arrival).as_f64();
        self.m.total_response_time += resp;
        if resp > self.m.max_response_time {
            self.m.max_response_time = resp;
        }
        if completion.definitely_after(deadline) {
            self.m.deadline_misses += 1;
        }
        if completion.definitely_after(estimate) {
            self.m.estimate_overruns += 1;
        }
    }

    /// Stamps the final event time.
    pub fn set_end_time(&mut self, t: SimTime) {
        self.m.end_time = t.as_f64();
    }

    /// Consumes the collector.
    pub fn finish(self) -> Metrics {
        self.m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_ratio_counts_decisions() {
        let mut c = MetricsCollector::new();
        for rejection in [None, None, Some(Infeasible::NotEnoughNodes), None] {
            c.on_admission(rejection);
        }
        let m = c.finish();
        assert_eq!(m.arrivals, 4);
        assert_eq!(m.accepted, 3);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.rejected_not_enough_nodes, 1);
        assert_eq!(m.rejected_completion_after_deadline, 0);
        assert!((m.reject_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_zero_ratios() {
        let m = MetricsCollector::new().finish();
        assert_eq!(m.reject_ratio(), 0.0);
        assert_eq!(m.mean_response_time(), 0.0);
        assert_eq!(m.mean_nodes_per_task(), 0.0);
        assert_eq!(m.utilization(16, 0.0), 0.0);
    }

    #[test]
    fn chunk_accounting_accumulates_idle_and_busy() {
        let mut c = MetricsCollector::new();
        // Node free at 10, starts at 15, finishes at 40: idle 5, busy 25.
        c.on_chunk(SimTime::new(10.0), SimTime::new(15.0), SimTime::new(40.0));
        // Back-to-back chunk: zero idle.
        c.on_chunk(SimTime::new(40.0), SimTime::new(40.0), SimTime::new(55.0));
        let m = c.finish();
        assert!((m.inserted_idle_time - 5.0).abs() < 1e-12);
        assert!((m.busy_time - 40.0).abs() < 1e-12);
        assert!((m.utilization(2, 100.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn completion_checks_deadline_and_estimate() {
        let mut c = MetricsCollector::new();
        // Met both.
        c.on_task_complete(
            SimTime::ZERO,
            SimTime::new(100.0),
            SimTime::new(90.0),
            SimTime::new(80.0),
        );
        // Missed deadline and estimate.
        c.on_task_complete(
            SimTime::ZERO,
            SimTime::new(100.0),
            SimTime::new(90.0),
            SimTime::new(120.0),
        );
        let m = c.finish();
        assert_eq!(m.completed, 2);
        assert_eq!(m.deadline_misses, 1);
        assert_eq!(m.estimate_overruns, 1);
        assert!((m.mean_response_time() - 100.0).abs() < 1e-12);
        assert!((m.max_response_time - 120.0).abs() < 1e-12);
    }
}
