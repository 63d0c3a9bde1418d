//! Figure definitions: every figure of the paper's evaluation (§5 and the
//! appendix), expressed as parameter sweeps over the baseline configuration.
//!
//! Each *panel* is one plot: Task Reject Ratio vs SystemLoad for two
//! algorithms at one parameter setting. The baseline (§5.1) is
//! `N=16, Cms=1, Cps=100, Avgσ=200, DCRatio=2`, ten runs per point,
//! `TotalSimulationTime = 10^7`.

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::AlgorithmKind;
use rtdls_workload::prelude::WorkloadSpec;

use crate::runner::{run_sweep, PointResult, RunOptions, SweepJob};

/// The system loads swept in every figure.
pub fn paper_loads() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

/// Workload parameters a panel overrides relative to the paper baseline.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PanelParams {
    /// Cluster size `N`.
    pub num_nodes: usize,
    /// Unit transmission cost `Cms`.
    pub cms: f64,
    /// Unit processing cost `Cps`.
    pub cps: f64,
    /// Mean data size `Avgσ`.
    pub avg_sigma: f64,
    /// Deadline/cost ratio.
    pub dc_ratio: f64,
}

impl Default for PanelParams {
    fn default() -> Self {
        // §5.1 baseline.
        PanelParams {
            num_nodes: 16,
            cms: 1.0,
            cps: 100.0,
            avg_sigma: 200.0,
            dc_ratio: 2.0,
        }
    }
}

impl PanelParams {
    /// Realizes a [`WorkloadSpec`] at `load` with the given horizon.
    pub fn workload(&self, load: f64, horizon: f64) -> WorkloadSpec {
        let mut spec = WorkloadSpec::paper_baseline(load);
        spec.params = rtdls_core::prelude::ClusterParams::new(self.num_nodes, self.cms, self.cps)
            .expect("panel parameters are valid");
        spec.avg_sigma = self.avg_sigma;
        spec.dc_ratio = self.dc_ratio;
        spec.horizon = horizon;
        spec
    }

    fn label(&self) -> String {
        format!(
            "nodes={}, Cms={}, Cps={}, average data size = {}, dcratio={}",
            self.num_nodes, self.cms, self.cps, self.avg_sigma, self.dc_ratio
        )
    }
}

/// One plot of the paper.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PanelSpec {
    /// Panel id, e.g. `fig04b`.
    pub id: String,
    /// Human caption matching the paper's sub-figure caption.
    pub caption: String,
    /// Parameter setting.
    pub params: PanelParams,
    /// The two (or more) algorithms compared.
    pub algorithms: Vec<AlgorithmKind>,
    /// Render 95% confidence intervals (Fig. 3b).
    pub with_ci: bool,
}

/// A figure: one or more panels.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FigureSpec {
    /// Figure id, e.g. `fig04`.
    pub id: String,
    /// The paper's figure title.
    pub title: String,
    /// Panels in sub-figure order.
    pub panels: Vec<PanelSpec>,
}

/// Measured curves for one panel.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PanelResult {
    /// The panel definition.
    pub spec: PanelSpec,
    /// Loads swept (row axis).
    pub loads: Vec<f64>,
    /// `points[l][a]` = result at `loads[l]` for `spec.algorithms[a]`.
    pub points: Vec<Vec<PointResult>>,
}

/// Measured curves for a whole figure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FigureResult {
    /// The figure definition.
    pub spec: FigureSpec,
    /// Results per panel, in panel order.
    pub panels: Vec<PanelResult>,
}

fn panel(
    id: &str,
    params: PanelParams,
    algorithms: [AlgorithmKind; 2],
    with_ci: bool,
) -> PanelSpec {
    PanelSpec {
        id: id.to_string(),
        caption: params.label(),
        params,
        algorithms: algorithms.to_vec(),
        with_ci,
    }
}

const LETTERS: [char; 8] = ['a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'];

/// A figure whose panels sweep one parameter.
fn sweep_figure(
    id: &str,
    title: &str,
    algorithms: [AlgorithmKind; 2],
    mutate: impl Fn(&mut PanelParams, f64),
    values: &[f64],
) -> FigureSpec {
    let panels = values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let mut p = PanelParams::default();
            mutate(&mut p, v);
            panel(&format!("{id}{}", LETTERS[i]), p, algorithms, false)
        })
        .collect();
    FigureSpec {
        id: id.to_string(),
        title: title.to_string(),
        panels,
    }
}

/// All figures of the paper, in order (`figures --list` prints the index).
pub fn all_figures() -> Vec<FigureSpec> {
    let edf_iit = [AlgorithmKind::EDF_DLT, AlgorithmKind::EDF_OPR_MN];
    let fifo_iit = [AlgorithmKind::FIFO_DLT, AlgorithmKind::FIFO_OPR_MN];
    let edf_us = [AlgorithmKind::EDF_DLT, AlgorithmKind::EDF_USER_SPLIT];
    let fifo_us = [AlgorithmKind::FIFO_DLT, AlgorithmKind::FIFO_USER_SPLIT];
    let cps_values = [10.0, 50.0, 500.0, 1000.0, 5000.0, 10_000.0];

    // Fig. 3: benefits of utilizing IITs — baseline + 95% CI variant.
    let mut figures = vec![FigureSpec {
        id: "fig03".into(),
        title: "Benefits of Utilizing IITs (baseline)".into(),
        panels: vec![
            panel("fig03a", PanelParams::default(), edf_iit, false),
            panel("fig03b", PanelParams::default(), edf_iit, true),
        ],
    }];
    // Fig. 4: DCRatio effects, EDF.
    figures.push(sweep_figure(
        "fig04",
        "Benefits of Utilizing IITs: DCRatio Effects (EDF)",
        edf_iit,
        |p, v| p.dc_ratio = v,
        &[3.0, 10.0, 20.0, 100.0],
    ));
    // Fig. 5: DLT vs User-Split, baseline and DCRatio=10.
    figures.push(sweep_figure(
        "fig05",
        "DLT-Based vs. User-Split Algorithms (EDF)",
        edf_us,
        |p, v| p.dc_ratio = v,
        &[2.0, 10.0],
    ));
    // Fig. 6: Avgσ effects, EDF (IIT benefits).
    figures.push(sweep_figure(
        "fig06",
        "Benefits of Utilizing IITs: Avg sigma Effects (EDF)",
        edf_iit,
        |p, v| p.avg_sigma = v,
        &[100.0, 200.0, 400.0, 800.0],
    ));
    // Fig. 7: Cms effects, EDF. (The paper's 7c axis label says Cms=2 but the
    // caption says Cms=4 — the caption is taken as authoritative.)
    figures.push(sweep_figure(
        "fig07",
        "Benefits of Utilizing IITs: Cms Effects (EDF)",
        edf_iit,
        |p, v| p.cms = v,
        &[1.0, 2.0, 4.0, 8.0],
    ));
    // Fig. 8: Cps effects, EDF.
    figures.push(sweep_figure(
        "fig08",
        "Benefits of Utilizing IITs: Cps Effects (EDF)",
        edf_iit,
        |p, v| p.cps = v,
        &cps_values,
    ));
    // Fig. 9–12: the FIFO mirrors of Fig. 4, 6, 7, 8.
    figures.push(sweep_figure(
        "fig09",
        "Benefits of Utilizing IITs: DCRatio Effects (FIFO)",
        fifo_iit,
        |p, v| p.dc_ratio = v,
        &[3.0, 10.0, 20.0, 100.0],
    ));
    figures.push(sweep_figure(
        "fig10",
        "Benefits of Utilizing IITs: Avg sigma Effects (FIFO)",
        fifo_iit,
        |p, v| p.avg_sigma = v,
        &[100.0, 200.0, 400.0, 800.0],
    ));
    figures.push(sweep_figure(
        "fig11",
        "Benefits of Utilizing IITs: Cms Effects (FIFO)",
        fifo_iit,
        |p, v| p.cms = v,
        &[1.0, 2.0, 4.0, 8.0],
    ));
    figures.push(sweep_figure(
        "fig12",
        "Benefits of Utilizing IITs: Cps Effects (FIFO)",
        fifo_iit,
        |p, v| p.cps = v,
        &cps_values,
    ));
    // Fig. 13: DLT vs User-Split, Avgσ effects (EDF).
    figures.push(sweep_figure(
        "fig13",
        "DLT-Based vs. User-Split: Avg sigma Effects (EDF)",
        edf_us,
        |p, v| p.avg_sigma = v,
        &[100.0, 200.0, 400.0, 800.0],
    ));
    // Fig. 14: DLT vs User-Split, Cps effects + DCRatio effects (EDF).
    let mut fig14 = sweep_figure(
        "fig14",
        "DLT-Based vs. User-Split Algorithms (EDF)",
        edf_us,
        |p, v| p.cps = v,
        &cps_values,
    );
    for (i, dc) in [3.0, 10.0].iter().enumerate() {
        let p = PanelParams {
            dc_ratio: *dc,
            ..Default::default()
        };
        fig14
            .panels
            .push(panel(&format!("fig14{}", LETTERS[6 + i]), p, edf_us, false));
    }
    figures.push(fig14);
    // Fig. 15: DLT vs User-Split, Avgσ effects (FIFO).
    figures.push(sweep_figure(
        "fig15",
        "DLT-Based vs. User-Split: Avg sigma Effects (FIFO)",
        fifo_us,
        |p, v| p.avg_sigma = v,
        &[100.0, 200.0, 400.0, 800.0],
    ));
    // Fig. 16: DLT vs User-Split, Cps + DCRatio effects (FIFO).
    let mut fig16 = sweep_figure(
        "fig16",
        "DLT-Based vs. User-Split Algorithms (FIFO)",
        fifo_us,
        |p, v| p.cps = v,
        &cps_values,
    );
    for (i, dc) in [3.0, 10.0].iter().enumerate() {
        let p = PanelParams {
            dc_ratio: *dc,
            ..Default::default()
        };
        fig16.panels.push(panel(
            &format!("fig16{}", LETTERS[6 + i]),
            p,
            fifo_us,
            false,
        ));
    }
    figures.push(fig16);

    figures
}

/// Experiments beyond the paper: the §6 future-work direction (multi-round
/// scheduling, following the multi-installment theory of the paper's \[10\])
/// evaluated in the same harness.
pub fn extension_figures() -> Vec<FigureSpec> {
    use rtdls_core::prelude::{Policy, StrategyKind};
    let mr = |rounds: u8| AlgorithmKind {
        policy: Policy::Edf,
        strategy: StrategyKind::DltMultiRound { rounds },
    };
    // Panel a: the paper baseline (compute-bound, Cms=1) — installments buy
    // little. Panel b/c: communication-heavier regimes where they matter.
    let p_base = PanelParams::default();
    let p_cms4 = PanelParams {
        cms: 4.0,
        ..Default::default()
    };
    let p_cms8 = PanelParams {
        cms: 8.0,
        ..Default::default()
    };
    let panels = vec![
        PanelSpec {
            id: "ext01a".into(),
            caption: "multi-round extension, baseline (Cms=1)".into(),
            params: p_base,
            algorithms: vec![AlgorithmKind::EDF_DLT, mr(2), mr(4)],
            with_ci: false,
        },
        PanelSpec {
            id: "ext01b".into(),
            caption: "multi-round extension, Cms=4".into(),
            params: p_cms4,
            algorithms: vec![AlgorithmKind::EDF_DLT, mr(2), mr(4)],
            with_ci: false,
        },
        PanelSpec {
            id: "ext01c".into(),
            caption: "multi-round extension, Cms=8".into(),
            params: p_cms8,
            algorithms: vec![AlgorithmKind::EDF_DLT, mr(2), mr(4)],
            with_ci: false,
        },
    ];
    vec![FigureSpec {
        id: "ext01".into(),
        title: "Extension (§6 future work): multi-round DLT scheduling".into(),
        panels,
    }]
}

/// Looks a figure up by id (`fig03` … `fig16`, `ext01`), case-insensitive.
pub fn figure_by_id(id: &str) -> Option<FigureSpec> {
    let id = id.to_ascii_lowercase();
    all_figures()
        .into_iter()
        .chain(extension_figures())
        .find(|f| f.id == id)
}

/// Runs every panel of `figure` over `loads`, `opts.replicates` seeds per
/// point, parallelized across all points.
pub fn run_figure(
    figure: &FigureSpec,
    loads: &[f64],
    horizon: f64,
    opts: &RunOptions,
) -> FigureResult {
    // Flatten (panel, load, algorithm) into one sweep for max parallelism.
    let mut jobs = Vec::new();
    for p in &figure.panels {
        for &load in loads {
            for &algorithm in &p.algorithms {
                jobs.push(SweepJob {
                    workload: p.params.workload(load, horizon),
                    algorithm,
                });
            }
        }
    }
    let mut results = run_sweep(&jobs, opts).into_iter();
    let panels = figure
        .panels
        .iter()
        .map(|p| {
            let points = loads
                .iter()
                .map(|_| {
                    p.algorithms
                        .iter()
                        .map(|_| results.next().expect("job count"))
                        .collect()
                })
                .collect();
            PanelResult {
                spec: p.clone(),
                loads: loads.to_vec(),
                points,
            }
        })
        .collect();
    FigureResult {
        spec: figure.clone(),
        panels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_inventory_matches_the_paper() {
        let figs = all_figures();
        assert_eq!(figs.len(), 14, "figures 3 through 16");
        let by_id = |id: &str| figs.iter().find(|f| f.id == id).unwrap();
        assert_eq!(by_id("fig03").panels.len(), 2);
        assert_eq!(by_id("fig04").panels.len(), 4);
        assert_eq!(by_id("fig05").panels.len(), 2);
        assert_eq!(by_id("fig08").panels.len(), 6);
        assert_eq!(by_id("fig14").panels.len(), 8);
        assert_eq!(by_id("fig16").panels.len(), 8);
        // Total panels across all figures.
        let total: usize = figs.iter().map(|f| f.panels.len()).sum();
        assert_eq!(total, 64);
        // Every panel compares exactly two algorithms; fig03b carries CIs.
        for f in &figs {
            for p in &f.panels {
                assert_eq!(p.algorithms.len(), 2, "{}", p.id);
            }
        }
        assert!(by_id("fig03").panels[1].with_ci);
    }

    #[test]
    fn panel_ids_are_unique() {
        let figs = all_figures();
        let mut ids: Vec<&str> = figs
            .iter()
            .flat_map(|f| f.panels.iter().map(|p| p.id.as_str()))
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate panel ids");
    }

    #[test]
    fn figure_lookup_is_case_insensitive() {
        assert!(figure_by_id("FIG03").is_some());
        assert!(figure_by_id("fig16").is_some());
        assert!(figure_by_id("ext01").is_some());
        assert!(figure_by_id("fig99").is_none());
    }

    #[test]
    fn extension_figure_compares_multi_round_variants() {
        let ext = extension_figures();
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].panels.len(), 3);
        for p in &ext[0].panels {
            assert_eq!(p.algorithms.len(), 3);
            assert_eq!(p.algorithms[0], AlgorithmKind::EDF_DLT);
            assert_eq!(p.algorithms[1].paper_name(), "EDF-DLT-MR2");
            assert_eq!(p.algorithms[2].paper_name(), "EDF-DLT-MR4");
        }
    }

    #[test]
    fn paper_loads_are_the_ten_levels() {
        let loads = paper_loads();
        assert_eq!(loads.len(), 10);
        assert!((loads[0] - 0.1).abs() < 1e-12);
        assert!((loads[9] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_figure_shapes_results_correctly() {
        // A miniature run: two loads, one seed, tiny horizon.
        let fig = figure_by_id("fig03").unwrap();
        let small = FigureSpec {
            id: fig.id.clone(),
            title: fig.title.clone(),
            panels: vec![fig.panels[0].clone()],
        };
        let opts = RunOptions {
            replicates: 1,
            ..Default::default()
        };
        let result = run_figure(&small, &[0.3, 0.8], 5e4, &opts);
        assert_eq!(result.panels.len(), 1);
        let p = &result.panels[0];
        assert_eq!(p.loads, vec![0.3, 0.8]);
        assert_eq!(p.points.len(), 2);
        assert_eq!(p.points[0].len(), 2);
        assert_eq!(p.points[0][0].algorithm, AlgorithmKind::EDF_DLT);
        assert_eq!(p.points[0][1].algorithm, AlgorithmKind::EDF_OPR_MN);
    }

    #[test]
    fn workload_realization_applies_overrides() {
        let p = PanelParams {
            cps: 5000.0,
            avg_sigma: 800.0,
            ..Default::default()
        };
        let w = p.workload(0.4, 1e6);
        assert_eq!(w.params.cps, 5000.0);
        assert_eq!(w.avg_sigma, 800.0);
        assert_eq!(w.system_load, 0.4);
        assert_eq!(w.horizon, 1e6);
        w.validate().unwrap();
    }
}
