//! Integration tests for the paper's *qualitative* claims — the orderings
//! and convergences its figures report, checked at reduced scale so they run
//! in CI time. The full-scale reproduction is the `figures` binary
//! (`figures --list` names every figure); its results are not recorded or
//! gated anywhere.
//!
//! Each run is the experiments runner's (`run_one`: strict, per-task link),
//! with the head node certifying every plan it dispatches
//! (`common::Certified`).

mod common;

use common::run_certified;
use rtdls::core::prelude::PlanConfig;
use rtdls::experiments::runner::RunOptions;
use rtdls::experiments::stats::Summary;
use rtdls::prelude::*;

fn spec(load: f64, dc_ratio: f64) -> WorkloadSpec {
    let mut s = WorkloadSpec::paper_baseline(load);
    s.dc_ratio = dc_ratio;
    s.horizon = 1e6;
    s
}

/// One seeded run as `rtdls::experiments::runner::run_one` makes it, every
/// dispatched plan certified.
fn run_one(
    workload: &WorkloadSpec,
    algorithm: AlgorithmKind,
    seed: u64,
    opts: &RunOptions,
) -> Metrics {
    assert_eq!(opts.link, LinkModel::PerTask, "strict runs only");
    let cfg = SimConfig::new(workload.params, algorithm)
        .with_replan(opts.replan)
        .with_link(opts.link)
        .with_plan(opts.plan)
        .strict();
    run_certified(cfg, WorkloadGenerator::new(*workload, seed)).metrics
}

/// The mean reject ratio over `opts.replicates` seeds, as
/// `run_replicated` summarizes it.
fn mean_reject(workload: &WorkloadSpec, algorithm: AlgorithmKind, opts: &RunOptions) -> f64 {
    let ratios: Vec<f64> = (0..opts.replicates)
        .map(|k| run_one(workload, algorithm, opts.base_seed + k, opts).reject_ratio())
        .collect();
    Summary::from_values(&ratios).mean
}

/// Fig. 3 claim: EDF-DLT's reject ratio never exceeds EDF-OPR-MN's
/// (same workloads, same seeds), at every load.
#[test]
fn dlt_beats_opr_mn_at_every_load() {
    let opts = RunOptions {
        replicates: 5,
        ..Default::default()
    };
    for load in [0.2, 0.5, 0.8, 1.0] {
        let w = spec(load, 2.0);
        let dlt = mean_reject(&w, AlgorithmKind::EDF_DLT, &opts);
        let opr = mean_reject(&w, AlgorithmKind::EDF_OPR_MN, &opts);
        assert!(
            dlt <= opr + 1e-9,
            "load {load}: EDF-DLT {dlt} should not exceed EDF-OPR-MN {opr}"
        );
    }
}

/// Fig. 9 claim: the same ordering holds under FIFO.
#[test]
fn fifo_dlt_beats_fifo_opr_mn() {
    let opts = RunOptions {
        replicates: 5,
        ..Default::default()
    };
    for load in [0.5, 1.0] {
        let w = spec(load, 2.0);
        let dlt = mean_reject(&w, AlgorithmKind::FIFO_DLT, &opts);
        let opr = mean_reject(&w, AlgorithmKind::FIFO_OPR_MN, &opts);
        assert!(dlt <= opr + 1e-9, "load {load}: {dlt} vs {opr}");
    }
}

/// Fig. 4/9 claim: as DCRatio grows the DLT and OPR-MN curves converge —
/// looser deadlines mean fewer nodes per task, fewer IITs, less to gain.
#[test]
fn dlt_and_opr_converge_at_high_dc_ratio() {
    let opts = RunOptions {
        replicates: 5,
        ..Default::default()
    };
    let gap = |dc: f64| {
        let w = spec(1.0, dc);
        mean_reject(&w, AlgorithmKind::EDF_OPR_MN, &opts)
            - mean_reject(&w, AlgorithmKind::EDF_DLT, &opts)
    };
    let tight = gap(2.0);
    let loose = gap(100.0);
    assert!(
        loose <= tight + 1e-3,
        "gap should shrink with DCRatio: dc=2 gap {tight}, dc=100 gap {loose}"
    );
    // At DCRatio 100 the two are essentially identical (paper Fig. 4d).
    assert!(
        loose.abs() < 0.01,
        "dc=100 gap {loose} should be negligible"
    );
}

/// Fig. 4 claim: reject ratios fall as DCRatio rises (looser deadlines).
#[test]
fn reject_ratio_decreases_with_dc_ratio() {
    let opts = RunOptions {
        replicates: 5,
        ..Default::default()
    };
    let mut prev = f64::INFINITY;
    for dc in [2.0, 3.0, 10.0, 100.0] {
        let w = spec(0.8, dc);
        let rr = mean_reject(&w, AlgorithmKind::EDF_DLT, &opts);
        assert!(
            rr <= prev + 0.01,
            "reject ratio should fall with DCRatio, {rr} after {prev}"
        );
        prev = rr;
    }
}

/// Fig. 5a claim: at the baseline DCRatio=2, the automatic DLT partitioning
/// beats manual user splitting.
#[test]
fn dlt_beats_user_split_at_tight_deadlines() {
    let opts = RunOptions {
        replicates: 5,
        ..Default::default()
    };
    for load in [0.4, 0.8] {
        let w = spec(load, 2.0);
        let dlt = mean_reject(&w, AlgorithmKind::EDF_DLT, &opts);
        let us = mean_reject(&w, AlgorithmKind::EDF_USER_SPLIT, &opts);
        assert!(
            dlt < us,
            "load {load}: EDF-DLT {dlt} should beat EDF-UserSplit {us} at DCRatio 2"
        );
    }
}

/// Reject ratios increase monotonically (within noise) with SystemLoad.
#[test]
fn reject_ratio_increases_with_load() {
    let opts = RunOptions {
        replicates: 5,
        ..Default::default()
    };
    let mut prev = -1.0;
    for load in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let rr = mean_reject(&spec(load, 2.0), AlgorithmKind::EDF_DLT, &opts);
        assert!(
            rr >= prev - 0.01,
            "reject ratio fell from {prev} to {rr} at load {load}"
        );
        prev = rr;
    }
}

/// The ñ_min-bound guarantee is not vacuous: at tight deadlines the DLT
/// estimate Ê strictly beats the no-IIT estimate in aggregate
/// (`estimate_iit_gain > 0`), while OPR-MN's gain is identically zero.
#[test]
fn iit_gain_is_positive_for_dlt_and_zero_for_opr() {
    let opts = RunOptions::default();
    let w = spec(1.0, 2.0);
    let dlt = run_one(&w, AlgorithmKind::EDF_DLT, 3, &opts);
    let opr = run_one(&w, AlgorithmKind::EDF_OPR_MN, 3, &opts);
    assert!(dlt.estimate_iit_gain > 0.0, "DLT should bank IIT gains");
    assert!(
        opr.estimate_iit_gain.abs() < 1e-9,
        "OPR-MN has no IIT gain by construction"
    );
}

/// Same-seed comparability: both algorithms see the *identical* task stream
/// (the generator draws user-split node counts unconditionally).
#[test]
fn algorithms_consume_identical_workloads() {
    let w = spec(0.7, 2.0);
    let a: Vec<Task> = WorkloadGenerator::new(w, 9).collect();
    let b: Vec<Task> = WorkloadGenerator::new(w, 9).collect();
    assert_eq!(a, b);
}

/// The knobs matter in the direction the design doc claims: FixedPoint
/// accepts at least as much as OneShot (it retries with more nodes).
#[test]
fn fixed_point_accepts_no_less_than_one_shot() {
    let w = spec(0.9, 2.0);
    for algorithm in [AlgorithmKind::EDF_DLT, AlgorithmKind::EDF_OPR_MN] {
        let fixed = RunOptions {
            replicates: 5,
            plan: PlanConfig {
                node_count: NodeCountPolicy::FixedPoint,
                ..Default::default()
            },
            ..Default::default()
        };
        let oneshot = RunOptions {
            replicates: 5,
            plan: PlanConfig {
                node_count: NodeCountPolicy::OneShot,
                ..Default::default()
            },
            ..Default::default()
        };
        let rr_fixed = mean_reject(&w, algorithm, &fixed);
        let rr_oneshot = mean_reject(&w, algorithm, &oneshot);
        assert!(
            rr_fixed <= rr_oneshot + 0.01,
            "{algorithm}: FixedPoint {rr_fixed} vs OneShot {rr_oneshot}"
        );
    }
}
