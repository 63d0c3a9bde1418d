//! The task-stream generator (§5 "Workload Generation").
//!
//! For a [`WorkloadSpec`] and a seed, produces the paper's aperiodic task
//! set deterministically:
//!
//! * interarrival times `~ Exp(1/λ)` with `1/λ = E(Avgσ,N)/SystemLoad`;
//! * data sizes `σ_i ~ N(Avgσ, Avgσ)`, resampled until positive;
//! * relative deadlines `D_i ~ U[AvgD/2, 3·AvgD/2)` with
//!   `AvgD = DCRatio · E(Avgσ,N)`, floored at the task's own minimum
//!   execution time `E(σ_i, N)` ("chosen to be larger than its minimum
//!   execution time", §5);
//! * a user-requested node count `n_i ~ U{N_min(σ_i, D_i), …, N}` for the
//!   User-Split algorithms (§4.1.2), drawn for *every* task so the same
//!   seed yields the identical task stream no matter which algorithm
//!   consumes it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rtdls_core::prelude::{user_split_n_min, Task};

use crate::distributions::{Exponential, Normal, Pareto, UniformRange};
use crate::spec::{FloorMode, SizeModel, WorkloadSpec, HEAVY_TAIL_SHAPE, TRUNCATED_MEAN_FACTOR};

/// Deterministic task-stream generator; implements [`Iterator`].
#[derive(Clone, Debug)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    rng: SmallRng,
    interarrival: Exponential,
    size: Normal,
    heavy_size: Pareto,
    deadline: UniformRange,
    next_id: u64,
    clock: f64,
    exhausted: bool,
}

impl WorkloadGenerator {
    /// Draws one data size according to the spec's [`SizeModel`].
    fn sample_size(&mut self) -> f64 {
        match self.spec.size_model {
            // Rescale the positive-truncated draw so the realized mean is
            // exactly Avgσ — the SystemLoad axis then offers exactly the
            // nominal fraction of full-cluster capacity.
            SizeModel::Calibrated => {
                self.size.sample_positive(&mut self.rng) / TRUNCATED_MEAN_FACTOR
            }
            SizeModel::TruncatedRaw => self.size.sample_positive(&mut self.rng),
            // Pareto with mean Avgσ: always positive by construction.
            SizeModel::HeavyTailed => self.heavy_size.sample(&mut self.rng),
        }
    }

    /// Creates the generator. Panics on an invalid spec (validate first when
    /// the spec is user input).
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        spec.validate().expect("invalid workload spec");
        let avg_d = spec.avg_deadline();
        WorkloadGenerator {
            rng: SmallRng::seed_from_u64(seed),
            interarrival: Exponential::new(spec.mean_interarrival()),
            size: Normal::new(spec.avg_sigma, spec.avg_sigma),
            // Scale so the Pareto mean is exactly Avgσ:
            // mean = α·x_m/(α−1) ⇒ x_m = Avgσ·(α−1)/α.
            heavy_size: Pareto::new(
                spec.avg_sigma * (HEAVY_TAIL_SHAPE - 1.0) / HEAVY_TAIL_SHAPE,
                HEAVY_TAIL_SHAPE,
            ),
            deadline: UniformRange::new(avg_d / 2.0, avg_d * 1.5),
            next_id: 0,
            clock: 0.0,
            exhausted: false,
            spec,
        }
    }

    /// The spec this generator draws from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }
}

impl Iterator for WorkloadGenerator {
    type Item = Task;

    fn next(&mut self) -> Option<Task> {
        if self.exhausted {
            return None;
        }
        self.clock += self.interarrival.sample(&mut self.rng);
        if self.clock >= self.spec.horizon {
            self.exhausted = true;
            return None;
        }
        // Deadlines are "chosen to be larger than [the] minimum execution
        // time" (§5): either by redrawing the (σ, D) pair until the floor is
        // respected (default) or by clamping the draw up to the floor.
        let (sigma, rel_deadline) = match self.spec.floor_mode {
            FloorMode::Resample => {
                let mut attempts = 0u32;
                loop {
                    let sigma = self.sample_size();
                    let draw = self.deadline.sample(&mut self.rng);
                    if draw > self.spec.deadline_floor_value(sigma) {
                        break (sigma, draw);
                    }
                    attempts += 1;
                    assert!(
                        attempts < 100_000,
                        "deadline resampling does not terminate; the spec's \
                         dc_ratio is too small for its size distribution"
                    );
                }
            }
            FloorMode::Clamp => {
                let sigma = self.sample_size();
                let draw = self.deadline.sample(&mut self.rng);
                let min_exec = self.spec.deadline_floor_value(sigma);
                (sigma, draw.max(min_exec * (1.0 + 1e-9)))
            }
        };

        // User-split request: uniformly between the fewest nodes that could
        // work and the whole cluster. Drawn unconditionally to keep the RNG
        // stream identical across algorithms.
        let n_max = self.spec.params.num_nodes;
        let user_nodes = match user_split_n_min(&self.spec.params, sigma, rel_deadline) {
            Some(n_min) if n_min <= n_max => Some(self.rng.gen_range(n_min..=n_max)),
            _ => {
                // Keep the stream aligned even when the request is hopeless.
                let _ = self.rng.gen_range(0..=1usize);
                None
            }
        };

        let id = self.next_id;
        self.next_id += 1;
        Some(Task::new(id, self.clock, sigma, rel_deadline).with_user_nodes(user_nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeadlineFloor;
    use rtdls_core::dlt::homogeneous;

    fn gen(load: f64, seed: u64) -> WorkloadGenerator {
        WorkloadGenerator::new(WorkloadSpec::paper_baseline(load), seed)
    }

    fn short_spec(load: f64) -> WorkloadSpec {
        let mut s = WorkloadSpec::paper_baseline(load);
        s.horizon = 1e6;
        s
    }

    #[test]
    fn arrivals_are_increasing_and_within_horizon() {
        let tasks: Vec<Task> = gen(0.5, 1).collect();
        assert!(!tasks.is_empty());
        for w in tasks.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        assert!(tasks.last().unwrap().arrival.as_f64() < 1e7);
        // Ids are sequential from zero.
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id.0, i as u64);
        }
    }

    #[test]
    fn task_count_tracks_system_load() {
        let n_low = gen(0.1, 7).count();
        let n_high = gen(1.0, 7).count();
        let ratio = n_high as f64 / n_low as f64;
        assert!(
            (ratio - 10.0).abs() < 1.0,
            "count ratio {ratio}, expected ~10"
        );
        // Absolute scale: ~7350 tasks at load 1.0 (±5%).
        assert!(
            (6900..7800).contains(&n_high),
            "load-1.0 count {n_high} outside expected band"
        );
    }

    #[test]
    fn sizes_are_positive_with_truncated_mean() {
        // TruncatedRaw + Clamp draws (σ, D) independently, so sizes follow
        // the pure positive-truncated normal with mean ≈ 1.2876·200 ≈ 257.5.
        let spec = WorkloadSpec::paper_baseline(1.0)
            .with_floor_mode(FloorMode::Clamp)
            .with_size_model(SizeModel::TruncatedRaw);
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, 21).collect();
        assert!(tasks.iter().all(|t| t.data_size > 0.0));
        let mean = tasks.iter().map(|t| t.data_size).sum::<f64>() / tasks.len() as f64;
        assert!((mean / 257.5 - 1.0).abs() < 0.05, "size mean {mean}");
    }

    #[test]
    fn calibrated_sizes_have_the_nominal_mean() {
        // The calibrated model delivers realized mean ≈ Avgσ (modulo the
        // slight thinning by the deadline-floor resampling), so the
        // SystemLoad axis offers the nominal load.
        let spec = WorkloadSpec::paper_baseline(1.0).with_floor_mode(FloorMode::Clamp);
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, 21).collect();
        let mean = tasks.iter().map(|t| t.data_size).sum::<f64>() / tasks.len() as f64;
        assert!((mean / 200.0 - 1.0).abs() < 0.05, "size mean {mean}");
    }

    #[test]
    fn heavy_tailed_sizes_are_heavy_tailed_but_feasible() {
        // The Pareto model must actually produce a heavier tail than the
        // truncated normal (whose draws essentially never exceed ~4·Avgσ),
        // while the deadline-floor resampling keeps every emitted task
        // individually schedulable.
        let spec = WorkloadSpec::paper_baseline(1.0)
            .with_floor_mode(FloorMode::Clamp)
            .with_size_model(SizeModel::HeavyTailed);
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, 21).collect();
        assert!(tasks.iter().all(|t| t.data_size > 0.0));
        // Support starts at x_m = Avgσ/3.
        let x_m = spec.avg_sigma * (HEAVY_TAIL_SHAPE - 1.0) / HEAVY_TAIL_SHAPE;
        assert!(tasks.iter().all(|t| t.data_size >= x_m - 1e-9));
        // Unclamped draws have mean Avgσ; the sample mean of an
        // infinite-variance law wanders, so only order-of-magnitude.
        let mean = tasks.iter().map(|t| t.data_size).sum::<f64>() / tasks.len() as f64;
        assert!((100.0..600.0).contains(&mean), "size mean {mean}");
        // Tail: a visible fraction of tasks beyond 3·Avgσ (the truncated
        // normal puts ~zero mass there); P(X > 3Avgσ) = (1/9)^1.5 ≈ 3.7%.
        let tail = tasks
            .iter()
            .filter(|t| t.data_size > 3.0 * spec.avg_sigma)
            .count() as f64
            / tasks.len() as f64;
        assert!((0.01..0.10).contains(&tail), "tail mass {tail}");
        // Under Resample mode every emitted deadline clears its floor.
        let spec_rs = WorkloadSpec::paper_baseline(1.0).with_size_model(SizeModel::HeavyTailed);
        let tasks_rs: Vec<Task> = WorkloadGenerator::new(spec_rs, 3).collect();
        for t in &tasks_rs {
            assert!(t.rel_deadline > spec_rs.deadline_floor_value(t.data_size));
        }
    }

    #[test]
    fn resampling_suppresses_over_long_tasks() {
        // Resample mode (default) rejects (σ, D) pairs whose minimum
        // execution exceeds the deadline draw, thinning the large-σ tail:
        // the mean lands at or below the unconditional mean and no task's
        // floor exceeds its deadline.
        let spec = WorkloadSpec::paper_baseline(1.0);
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, 21).collect();
        assert!(tasks.iter().all(|t| t.data_size > 0.0));
        let mean = tasks.iter().map(|t| t.data_size).sum::<f64>() / tasks.len() as f64;
        assert!((160.0..205.0).contains(&mean), "size mean {mean}");
        for t in &tasks {
            assert!(t.rel_deadline > spec.deadline_floor_value(t.data_size));
        }
    }

    #[test]
    fn deadlines_respect_floor_and_range() {
        // Resample mode: every deadline is strictly above the floor AND
        // inside the uniform band (no clamped outliers).
        let spec = WorkloadSpec::paper_baseline(1.0);
        let avg_d = spec.avg_deadline();
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, 5).collect();
        for t in &tasks {
            let min_exec = homogeneous::exec_time(&spec.params, t.data_size, spec.params.num_nodes);
            assert!(t.rel_deadline > min_exec, "deadline at/below floor");
            assert!(
                (avg_d / 2.0..avg_d * 1.5).contains(&t.rel_deadline),
                "deadline {} outside the uniform band",
                t.rel_deadline
            );
        }
    }

    #[test]
    fn clamp_mode_piles_mass_at_the_floor() {
        let spec = WorkloadSpec::paper_baseline(1.0).with_floor_mode(FloorMode::Clamp);
        let avg_d = spec.avg_deadline();
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, 5).collect();
        let mut floored = 0usize;
        for t in &tasks {
            let min_exec = homogeneous::exec_time(&spec.params, t.data_size, spec.params.num_nodes);
            assert!(t.rel_deadline >= min_exec);
            if t.rel_deadline >= avg_d * 1.5 || (t.rel_deadline / min_exec - 1.0).abs() < 1e-6 {
                floored += 1;
            }
        }
        assert!(
            floored as f64 / tasks.len() as f64 > 0.05,
            "clamping should leave visible mass at the floor"
        );
    }

    #[test]
    fn user_nodes_lie_in_the_valid_range() {
        // Under the user-split deadline floor every task has a feasible
        // request, drawn from [N_min, N].
        let spec =
            WorkloadSpec::paper_baseline(1.0).with_deadline_floor(DeadlineFloor::UserSplitExec);
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, 13).collect();
        for t in &tasks {
            let n = t
                .user_nodes
                .expect("user-split floor guarantees feasibility");
            let n_min = user_split_n_min(&spec.params, t.data_size, t.rel_deadline).unwrap();
            assert!(n >= n_min && n <= 16, "user n {n} outside [{n_min}, 16]");
        }
    }

    #[test]
    fn optimal_floor_leaves_a_user_split_infeasible_fraction() {
        // With the paper-text floor E(σ, N), a task whose deadline falls in
        // the window [E(σ,N), σCms + σCps/N) cannot be met by any equal
        // split: the generator marks it None. Under resampling this is a
        // small (~4%) but non-zero fraction — consistent with the small
        // offset of the User-Split curves above DLT at light load in
        // Fig. 5a. (Under Clamp mode it balloons to ~25%.)
        let spec = WorkloadSpec::paper_baseline(1.0); // OptimalExec floor
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, 13).collect();
        let none =
            tasks.iter().filter(|t| t.user_nodes.is_none()).count() as f64 / tasks.len() as f64;
        assert!(
            (0.005..0.15).contains(&none),
            "expected a small infeasible fraction, got {none}"
        );
        let clamped = WorkloadSpec::paper_baseline(1.0).with_floor_mode(FloorMode::Clamp);
        let tasks_c: Vec<Task> = WorkloadGenerator::new(clamped, 13).collect();
        let none_c =
            tasks_c.iter().filter(|t| t.user_nodes.is_none()).count() as f64 / tasks_c.len() as f64;
        assert!(
            (0.10..0.45).contains(&none_c),
            "expected a sizable infeasible fraction under Clamp, got {none_c}"
        );
        // And every None is genuinely hopeless for an equal split.
        for t in tasks
            .iter()
            .chain(&tasks_c)
            .filter(|t| t.user_nodes.is_none())
        {
            let floor = t.data_size * spec.params.cms
                + t.data_size * spec.params.cps / spec.params.num_nodes as f64;
            assert!(t.rel_deadline < floor, "None but equal split feasible");
        }
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a: Vec<Task> = WorkloadGenerator::new(short_spec(0.5), 99).collect();
        let b: Vec<Task> = WorkloadGenerator::new(short_spec(0.5), 99).collect();
        assert_eq!(a, b);
        let c: Vec<Task> = WorkloadGenerator::new(short_spec(0.5), 100).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn dc_ratio_scales_mean_deadline() {
        let mut loose = short_spec(0.5);
        loose.dc_ratio = 20.0;
        let tight = short_spec(0.5); // dc_ratio = 2
        let mean = |spec: WorkloadSpec| {
            let ts: Vec<Task> = WorkloadGenerator::new(spec, 3).collect();
            ts.iter().map(|t| t.rel_deadline).sum::<f64>() / ts.len() as f64
        };
        let ratio = mean(loose) / mean(tight);
        // The floor compresses the tight side a little; expect ≈ 9–10×.
        assert!((8.0..11.0).contains(&ratio), "deadline ratio {ratio}");
    }

    #[test]
    fn interarrival_mean_matches_spec() {
        let spec = WorkloadSpec::paper_baseline(1.0);
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, 17).collect();
        let mut gaps = Vec::with_capacity(tasks.len());
        let mut prev = 0.0;
        for t in &tasks {
            gaps.push(t.arrival.as_f64() - prev);
            prev = t.arrival.as_f64();
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let expected = spec.mean_interarrival();
        assert!(
            (mean / expected - 1.0).abs() < 0.05,
            "interarrival {mean} vs {expected}"
        );
    }
}
