//! Shared fixtures for the benchmark suite.
//!
//! The benches live in `benches/`:
//!
//! * `partition_micro` — the DLT math hot paths (model construction,
//!   partition computation, `ñ_min`).
//! * `admission_micro` — the Fig. 2 schedulability test at several queue
//!   depths, and the production engine's refused pass and reservation
//!   search against a deep book on a 64-node shard.
//! * `figures_sim` — one group per paper figure: a scaled-down simulation of
//!   that figure's parameter point (the full-scale regeneration lives in the
//!   `figures` binary of `rtdls-experiments`).
//! * `ablations` — the DESIGN.md §6 design-choice knobs.

use rtdls_core::prelude::*;

/// A committed-release vector with a staircase pattern: node `k` frees at
/// `k · step` (the Fig. 1b landscape the heterogeneous model exists for).
pub fn staircase_releases(n: usize, step: f64) -> Vec<SimTime> {
    (0..n).map(|k| SimTime::new(k as f64 * step)).collect()
}

/// A waiting queue of `len` feasible tasks with staggered deadlines on the
/// paper's baseline cluster.
pub fn waiting_queue(len: usize) -> Vec<Task> {
    (0..len as u64)
        .map(|i| {
            Task::new(i, (i as f64) * 10.0, 150.0 + (i % 7) as f64 * 40.0, 1e6)
                .with_user_nodes(Some(2 + (i as usize % 8)))
        })
        .collect()
}

/// The baseline cluster.
pub fn baseline() -> ClusterParams {
    ClusterParams::paper_baseline()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_well_formed() {
        let r = staircase_releases(16, 100.0);
        assert_eq!(r.len(), 16);
        assert!(r.windows(2).all(|w| w[0] < w[1]));
        let q = waiting_queue(8);
        assert_eq!(q.len(), 8);
        assert!(q.iter().all(|t| t.user_nodes.is_some()));
    }
}
