//! What the repository benchmark cannot see, and the one guard over it.
//!
//! `rtdls-perfbench` (`bench/`, workloads and bounds in `BENCHMARK.json`)
//! measures the stack end to end and layer by layer. The benches kept in
//! `benches/` time only what it has no view of:
//!
//! * `incremental_admission` — the admission engine against its reference
//!   (the literal full replan), in one process: what the reuse cache saves.
//! * `replication_shipping` — the shipping tax on the primary's hot path.
//! * `edge_throughput` — the same offered load against 1, 2 and 4 reactors.
//! * `partition_micro`, `admission_micro` — the paper's own kernels (DLT
//!   math, the Fig. 2 test, walk steps); printed, not gated.
//! * `ablations` — one design-choice knob per `abl-*` group (node-count
//!   selection, replanning, link model, release estimates, workload model).
//!
//! The first three end by handing the values they just measured to
//! [`guard`], which holds them against the rows of [`TABLE`] that name the
//! bench and exits non-zero on a violated row: the bench run is the gate.

use std::time::Instant;

use rtdls_core::prelude::*;

/// What a guarded reading is held to.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// At least this (an acceptance floor).
    Min(f64),
    /// At most this (an acceptance ceiling).
    Max(f64),
    /// A higher-is-better ratio may fall short of the `committed` run's by
    /// at most the fraction `tolerance` of it.
    MinOf { committed: f64, tolerance: f64 },
    /// A lower-is-better fraction may exceed the `committed` run's by at
    /// most `tolerance` (absolute).
    MaxOver { committed: f64, tolerance: f64 },
}

/// One gate: `field`, as reported by `bench`, must satisfy `bound`.
pub struct Row {
    pub bench: &'static str,
    pub field: &'static str,
    pub bound: Bound,
}

/// Every gate of the suite. The committed readings are ratios of two
/// timings taken in one process on one scenario, so they carry across
/// machines better than either timing; when the CI reference machine
/// changes, copy the fresh printed ratio over `committed` and keep the
/// acceptance bars (`Min`/`Max`) and tolerances.
pub const TABLE: &[Row] = &[
    // Engine vs reference, streamed submissions at queue depth 256: the
    // ≥ 3× acceptance bar, and no more than 20 % under the committed ratio.
    Row {
        bench: "incremental_admission",
        field: "speedup",
        bound: Bound::Min(3.0),
    },
    Row {
        bench: "incremental_admission",
        field: "speedup",
        bound: Bound::MinOf {
            committed: 14.5,
            tolerance: 0.2,
        },
    },
    // Shipping may tax bare journaled admission by at most 10 %, and may
    // not creep more than 14 points past the committed −4 % (in the noise).
    Row {
        bench: "replication_shipping",
        field: "overhead",
        bound: Bound::Max(0.1),
    },
    Row {
        bench: "replication_shipping",
        field: "overhead",
        bound: Bound::MaxOver {
            committed: -0.04,
            tolerance: 0.14,
        },
    },
    // Sharding the edge must never lose to one reactor under the same
    // offered load, and four reactors must beat the committed
    // single-reactor serve (1 197 rps: deliberately modest, so the
    // comparison holds across machines).
    Row {
        bench: "edge_throughput",
        field: "multi_speedup",
        bound: Bound::Min(1.0),
    },
    Row {
        bench: "edge_throughput",
        field: "multi4_rps",
        bound: Bound::Min(1197.0),
    },
];

/// The rows of `table` naming `bench` that `measured` violates, one message
/// each. A row whose field the bench did not report is violated, and so is
/// a bench no row names — a gate that silently checks nothing is the
/// failure this replaces.
fn violations(table: &[Row], bench: &str, measured: &[(&str, f64)]) -> Vec<String> {
    let rows: Vec<&Row> = table.iter().filter(|r| r.bench == bench).collect();
    if rows.is_empty() {
        return vec![format!(
            "{bench}: no row of the guard table names this bench"
        )];
    }
    rows.into_iter()
        .filter_map(|row| {
            let field = row.field;
            let Some(&(_, value)) = measured.iter().find(|(name, _)| *name == field) else {
                return Some(format!("{bench}.{field}: the bench did not report it"));
            };
            let (limit, is_floor) = match row.bound {
                Bound::Min(floor) => (floor, true),
                Bound::Max(ceiling) => (ceiling, false),
                Bound::MinOf {
                    committed,
                    tolerance,
                } => (committed * (1.0 - tolerance), true),
                Bound::MaxOver {
                    committed,
                    tolerance,
                } => (committed + tolerance, false),
            };
            // A NaN reading satisfies no comparison and so fails its row.
            let holds = if is_floor {
                value >= limit
            } else {
                value <= limit
            };
            (!holds).then(|| {
                let side = if is_floor { "under" } else { "over" };
                format!(
                    "{bench}.{field} = {value:.4} is {side} {limit:.4} ({:?})",
                    row.bound
                )
            })
        })
        .collect()
}

/// Holds the values `bench` just measured against its rows of [`TABLE`]
/// and exits the process non-zero if any row is violated.
pub fn guard(bench: &str, measured: &[(&str, f64)]) {
    for (field, value) in measured {
        println!("{bench}.{field} = {value:.4}");
    }
    let failed = violations(TABLE, bench, measured);
    for message in &failed {
        eprintln!("FAIL: {message}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
    println!("{bench}: guard OK");
}

/// Median wall-clock seconds of `runs` timed calls of `f`.
pub fn median(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

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

    const SAMPLE: &[Row] = &[
        Row {
            bench: "b",
            field: "speedup",
            bound: Bound::Min(3.0),
        },
        Row {
            bench: "b",
            field: "overhead",
            bound: Bound::Max(0.1),
        },
        Row {
            bench: "b",
            field: "ratio",
            bound: Bound::MinOf {
                committed: 10.0,
                tolerance: 0.2,
            },
        },
        Row {
            bench: "b",
            field: "creep",
            bound: Bound::MaxOver {
                committed: -0.04,
                tolerance: 0.14,
            },
        },
        Row {
            bench: "other",
            field: "speedup",
            bound: Bound::Min(100.0),
        },
    ];

    const CLEAN: [(&str, f64); 4] = [
        ("speedup", 3.0),
        ("overhead", 0.1),
        ("ratio", 8.0),
        ("creep", 0.1),
    ];

    /// `CLEAN` with `field` set to `value`.
    fn with(field: &str, value: f64) -> Vec<(&'static str, f64)> {
        CLEAN
            .iter()
            .map(|&(name, v)| (name, if name == field { value } else { v }))
            .collect()
    }

    #[test]
    fn a_clean_table_passes_at_its_limits_and_other_benches_rows_are_ignored() {
        assert_eq!(violations(SAMPLE, "b", &CLEAN), Vec::<String>::new());
    }

    #[test]
    fn each_kind_of_violated_row_fails_alone_and_is_named() {
        for (field, bad) in [
            ("speedup", 2.99),
            ("overhead", 0.11),
            ("ratio", 7.9),
            ("creep", 0.11),
            ("ratio", f64::NAN),
        ] {
            let failed = violations(SAMPLE, "b", &with(field, bad));
            assert_eq!(failed.len(), 1, "{field} = {bad}: {failed:?}");
            assert!(failed[0].starts_with(&format!("b.{field} ")), "{failed:?}");
        }
    }

    #[test]
    fn a_field_the_bench_did_not_report_fails_its_row() {
        let failed = violations(SAMPLE, "b", &CLEAN[1..]);
        assert_eq!(failed, ["b.speedup: the bench did not report it"]);
    }

    #[test]
    fn a_bench_no_row_names_fails() {
        assert_eq!(violations(SAMPLE, "typo", &CLEAN).len(), 1);
    }
}
