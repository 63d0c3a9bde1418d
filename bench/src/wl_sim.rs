//! `paper_sim`: the paper's §5 evaluation grid through the simulator.
//!
//! N = 16, Cms 1, Cps 100, Avgσ 200, DCRatio 2; SystemLoad
//! {0.2, 0.4, 0.6, 0.8, 1.0} × {EDF-DLT, FIFO-DLT, EDF-OPR-MN, EDF-OPR-AN},
//! every cell in strict mode (a deadline miss or an estimate overrun
//! panics), one sweep of the 20 cells per block. This is the `sim` event
//! loop plus `core` partitioning under genuinely different processor
//! available times: nodes free up one by one as chunks finish.

use std::time::Instant;

use rtdls::core::prelude::{AlgorithmKind, ClusterParams, Task};
use rtdls::sim::prelude::{Metrics, SimConfig, Simulation};
use rtdls::workload::prelude::{WorkloadGenerator, WorkloadSpec};

use crate::harness::{time_direct, Checks, Sample, SetupSplit, Workload};

/// The grid's load axis.
pub const LOADS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];
/// The grid's algorithm axis.
pub const ALGORITHMS: [AlgorithmKind; 4] = [
    AlgorithmKind::EDF_DLT,
    AlgorithmKind::FIFO_DLT,
    AlgorithmKind::EDF_OPR_MN,
    AlgorithmKind::EDF_OPR_AN,
];
/// Arrival horizon of every cell, simulated seconds.
pub const HORIZON: f64 = 1.0e7;
/// A sweep slower than this misses its limit.
pub const LIMIT_NS: u64 = 1_000_000_000;

/// One cell's outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Cell {
    pub arrivals: u64,
    pub rejected: u64,
    pub misses: u64,
}

impl Cell {
    fn of(m: &Metrics) -> Cell {
        Cell {
            arrivals: m.arrivals,
            rejected: m.rejected,
            misses: m.deadline_misses + m.estimate_overruns,
        }
    }
}

pub struct SimWorkload {
    pub params: ClusterParams,
    /// One task list per load, shared by the four algorithms.
    pub tasks: Vec<Vec<Task>>,
    /// The first sweep's cells, load-major; every later sweep must match.
    pub first: Option<Vec<Cell>>,
    mismatched_blocks: u64,
}

/// The strict-mode configuration of one cell.
pub fn cell_config(params: ClusterParams, algorithm: AlgorithmKind) -> SimConfig {
    SimConfig::new(params, algorithm).strict()
}

impl SimWorkload {
    pub fn setup(seed: u64) -> (Self, SetupSplit) {
        let started = Instant::now();
        let tasks: Vec<Vec<Task>> = LOADS
            .iter()
            .map(|&load| {
                let mut spec = WorkloadSpec::paper_baseline(load);
                spec.horizon = HORIZON;
                WorkloadGenerator::new(spec, seed).collect()
            })
            .collect();
        let workload = SimWorkload {
            params: ClusterParams::paper_baseline(),
            tasks,
            first: None,
            mismatched_blocks: 0,
        };
        (
            workload,
            SetupSplit {
                generate_s: started.elapsed().as_secs_f64(),
                construct_s: 0.0,
                ..SetupSplit::default()
            },
        )
    }

    /// Tasks simulated per sweep.
    pub fn ops(&self) -> u64 {
        (self.tasks.iter().map(Vec::len).sum::<usize>() * ALGORITHMS.len()) as u64
    }

    fn sweep(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(LOADS.len() * ALGORITHMS.len());
        for tasks in &self.tasks {
            for &algorithm in &ALGORITHMS {
                let report =
                    Simulation::new(cell_config(self.params, algorithm)).run(tasks.iter().copied());
                cells.push(Cell::of(&report.metrics));
            }
        }
        cells
    }
}

impl Workload for SimWorkload {
    fn block(&mut self) -> Sample {
        let (cells, wall_ns, cpu_ns) = time_direct(|| self.sweep());
        let ops: u64 = cells.iter().map(|c| c.arrivals).sum();
        let failed: u64 = cells.iter().map(|c| c.misses).sum();
        if *self.first.get_or_insert_with(|| cells.clone()) != cells {
            self.mismatched_blocks += 1;
        }
        Sample {
            wall_ns,
            cpu_ns,
            ops,
            within_limit: if wall_ns <= LIMIT_NS {
                ops - failed.min(ops)
            } else {
                0
            },
            failed,
            ..Sample::default()
        }
    }

    fn header(&self) -> Vec<(&'static str, String)> {
        vec![
            ("cells", (LOADS.len() * ALGORITHMS.len()).to_string()),
            ("horizon", format!("{HORIZON:e}")),
            ("ops_per_block", self.ops().to_string()),
            ("sweep_limit_s", (LIMIT_NS as f64 / 1e9).to_string()),
        ]
    }

    fn verify(&mut self, checks: &mut Checks) {
        checks.equal("sim.blocks_repeat_exactly", self.mismatched_blocks, 0);
        let cells = self.first.clone().unwrap_or_default();
        checks.equal(
            "sim.every_task_decided",
            cells.iter().map(|c| c.arrivals).sum::<u64>(),
            self.ops(),
        );
        checks.equal(
            "sim.no_miss_no_overrun",
            cells.iter().map(|c| c.misses).sum::<u64>(),
            0,
        );
        // The paper's headline (§5.1): utilising inserted idle time never
        // rejects more than the best baseline on the same tasks.
        let rejected = |a: usize| -> u64 {
            cells
                .iter()
                .skip(a)
                .step_by(ALGORITHMS.len())
                .map(|c| c.rejected)
                .sum()
        };
        checks.check(
            "regime.dlt_rejects_no_more_than_opr_mn",
            rejected(0) <= rejected(2) && rejected(2) > 0,
            format!(
                "EDF-DLT rejects {}, EDF-OPR-MN {}, EDF-OPR-AN {} over the grid",
                rejected(0),
                rejected(2),
                rejected(3)
            ),
        );
    }

    fn fingerprint(&self) -> Vec<u64> {
        self.first
            .iter()
            .flatten()
            .flat_map(|c| [c.arrivals, c.rejected])
            .collect()
    }
}
