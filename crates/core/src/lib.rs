//! # rtdls-core
//!
//! Core library for **real-time divisible load scheduling with different
//! processor available times** — a from-scratch implementation of
//! Lin, Lu, Deogun & Goddard (Univ. of Nebraska–Lincoln, TR-UNL-CSE-2007-0013
//! / ICPP 2007).
//!
//! Arbitrarily divisible (embarrassingly parallel) workloads — CMS/ATLAS-style
//! physics analyses, sequence search, parameter sweeps — can be split into
//! independently sized chunks. Scheduling such a job on a cluster classically
//! waits until enough processors are *simultaneously* free, wasting the
//! **Inserted Idle Times (IITs)** of processors that freed up early. This
//! crate implements the paper's remedy:
//!
//! 1. **Heterogeneous model construction** ([`dlt::heterogeneous`]): a
//!    homogeneous cluster whose nodes become available at different times
//!    `r_1 ≤ … ≤ r_n` is recast as a heterogeneous cluster allocated at one
//!    instant `r_n`, each node's IIT absorbed into a higher model speed.
//! 2. **DLT partitioning** over that model: load fractions `α`, execution
//!    time `Ê(σ,n)`, and the node-count bound `ñ_min` (module [`nmin`]).
//! 3. **Admission control** ([`admission`]): the paper's Fig. 2
//!    schedulability test over EDF/FIFO policies and four partitioning
//!    strategies ([`strategy`]), guaranteeing every admitted task meets its
//!    deadline (Theorem 4 makes the estimates safe upper bounds).
//!
//! The discrete-event cluster simulator (`rtdls-sim`), workload generator
//! (`rtdls-workload`), and the paper's full evaluation harness
//! (`rtdls-experiments`) build on this crate.
//!
//! ## Quick example
//!
//! ```
//! use rtdls_core::prelude::*;
//!
//! // A 16-node cluster, unit transmission cost 1, unit compute cost 100.
//! let params = ClusterParams::new(16, 1.0, 100.0).unwrap();
//! let mut ctl = AdmissionController::new(
//!     params,
//!     AlgorithmKind::EDF_DLT,
//!     PlanConfig::default(),
//! );
//!
//! // A divisible job: arrives at t=0, 200 units of data, deadline 30 000.
//! let job = Task::new(1, 0.0, 200.0, 30_000.0);
//! assert!(ctl.submit(job, SimTime::ZERO).is_accepted());
//!
//! // The plan says which nodes run which fraction, and when.
//! let (_, plan) = &ctl.queue()[0];
//! assert!(plan.n() >= 1);
//! assert!(!plan.est_completion.definitely_after(job.absolute_deadline()));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod algorithm;
pub mod dlt;
pub mod error;
pub mod nmin;
pub mod params;
pub mod policy;
pub mod request;
pub mod strategy;
pub mod task;
pub mod time;

/// One-stop imports for typical users of the crate.
pub mod prelude {
    pub use crate::admission::{
        schedulability_test, Admission, AdmissionController, AdmissionExplanation,
        AdmissionFailure, ControllerState, Decision, EngineProfile,
    };
    pub use crate::algorithm::AlgorithmKind;
    pub use crate::dlt::heterogeneous::HeterogeneousModel;
    pub use crate::dlt::homogeneous;
    pub use crate::error::{Infeasible, ModelError};
    pub use crate::nmin::{min_feasible_nodes, min_feasible_slack, n_tilde_min};
    pub use crate::params::{ClusterParams, NodeId};
    pub use crate::policy::Policy;
    pub use crate::request::{QosClass, SubmitRequest, TenantId, TenantMix};
    pub use crate::strategy::{
        plan_task, user_split_n_min, NodeAvailability, NodeCountPolicy, PlanConfig,
        ReleaseEstimate, StrategyKind, TaskPlan,
    };
    pub use crate::task::{Task, TaskId};
    pub use crate::time::SimTime;
}
