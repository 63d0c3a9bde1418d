//! Simulation configuration.

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::{AlgorithmKind, ClusterParams, PlanConfig, TenantMix};

/// When the waiting queue is re-planned against fresher node state.
///
/// The paper's Fig. 2 test runs on arrivals; whether the authors' simulator
/// also exploited early (actual < estimated) node releases is unspecified.
/// Both behaviors are implemented (ablation: the `abl-replan` bench group).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum ReplanPolicy {
    /// Re-plan whenever a node releases earlier than its estimate (default:
    /// "a task utilizes a processor as soon as it becomes available").
    #[default]
    OnRelease,
    /// Re-plan only inside the arrival-time schedulability test (a literal
    /// reading of Fig. 2); dispatches follow admission-time plans.
    ArrivalsOnly,
}

/// How the head node's outgoing link is contended (ablation: the `abl-link`
/// bench group).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum LinkModel {
    /// Chunk transmissions are serialized *within* a task but tasks do not
    /// contend with each other (switched cluster; matches the paper's
    /// completion-time analysis — default).
    #[default]
    PerTask,
    /// One global link: all transmissions serialize across tasks. Breaks the
    /// admission analysis' assumptions; kept for the ablation study.
    SharedGlobal,
}

/// Everything needed to run one simulation (workload arrives separately).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Cluster description.
    pub params: ClusterParams,
    /// Scheduling algorithm (policy × strategy).
    pub algorithm: AlgorithmKind,
    /// Planning knobs (release-estimate mode).
    pub plan: PlanConfig,
    /// Re-planning granularity.
    pub replan: ReplanPolicy,
    /// Link contention model.
    pub link: LinkModel,
    /// Tenant/QoS population model. When set, every arrival is wrapped in
    /// its deterministic [`SubmitRequest`] envelope (tenant id, QoS class,
    /// reservation tolerance) and decided through [`Serve::decide`];
    /// `None` submits every task under the default envelope
    /// (`SubmitRequest::new`).
    ///
    /// [`SubmitRequest`]: rtdls_core::request::SubmitRequest
    /// [`Serve::decide`]: crate::serve::Serve::decide
    pub tenant_mix: Option<TenantMix>,
    /// Record a full execution trace (memory-heavy; for tests/examples).
    pub record_trace: bool,
    /// Panic if an accepted task misses its deadline or overshoots its
    /// estimate (on by default in tests via `SimConfig::strict`). When off,
    /// violations are only counted in the metrics.
    pub strict_guarantees: bool,
}

impl SimConfig {
    /// A configuration with paper-default model choices.
    pub fn new(params: ClusterParams, algorithm: AlgorithmKind) -> Self {
        SimConfig {
            params,
            algorithm,
            plan: PlanConfig::default(),
            replan: ReplanPolicy::default(),
            link: LinkModel::default(),
            tenant_mix: None,
            record_trace: false,
            strict_guarantees: false,
        }
    }

    /// Enables the multi-tenant submission envelope.
    pub fn with_tenants(mut self, mix: TenantMix) -> Self {
        self.tenant_mix = Some(mix);
        self
    }

    /// Enables panicking on any real-time guarantee violation.
    pub fn strict(mut self) -> Self {
        self.strict_guarantees = true;
        self
    }

    /// Enables execution-trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Overrides the replanning policy.
    pub fn with_replan(mut self, replan: ReplanPolicy) -> Self {
        self.replan = replan;
        self
    }

    /// Overrides the link model.
    pub fn with_link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Overrides the planning knobs.
    pub fn with_plan(mut self, plan: PlanConfig) -> Self {
        self.plan = plan;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_sets_fields() {
        let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT)
            .strict()
            .with_trace()
            .with_replan(ReplanPolicy::ArrivalsOnly)
            .with_link(LinkModel::SharedGlobal);
        assert!(cfg.strict_guarantees);
        assert!(cfg.record_trace);
        assert_eq!(cfg.replan, ReplanPolicy::ArrivalsOnly);
        assert_eq!(cfg.link, LinkModel::SharedGlobal);
    }

    #[test]
    fn defaults_match_paper_model() {
        let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT);
        assert_eq!(cfg.replan, ReplanPolicy::OnRelease);
        assert_eq!(cfg.link, LinkModel::PerTask);
        assert!(!cfg.record_trace);
        assert!(!cfg.strict_guarantees);
    }
}
