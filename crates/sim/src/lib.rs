//! # rtdls-sim
//!
//! Discrete-event cluster simulator for real-time divisible load scheduling —
//! the evaluation substrate of Lin et al. (ICPP 2007).
//!
//! The simulator models the paper's cluster (§3): a head node that admits
//! tasks, partitions their loads, and sequentially transmits chunks to `N`
//! identical worker nodes; workers compute their chunks independently and
//! release. The engine ([`engine::Simulation`]) executes whatever plans the
//! `rtdls-core` admission layer produces and *verifies* the theory at run
//! time: every accepted task's actual completion is checked against its
//! admission-time estimate (Theorem 4) and its deadline.
//!
//! The head node is anything that implements [`serve::Serve`], the one
//! serving trait: the bare [`AdmissionController`] (the paper's baseline)
//! or a whole `rtdls-service` gateway stack, journaled and shipped. The
//! engine drives it in the serving turns the network edge drives —
//! `decide` each arrival, then `drive`, whose returned dispatches it
//! executes — so group commit and "nothing acknowledged before its turn's
//! commit" hold, and are checked, in every seeded run.
//!
//! [`AdmissionController`]: rtdls_core::prelude::AdmissionController
//!
//! ```
//! use rtdls_core::prelude::*;
//! use rtdls_sim::prelude::*;
//!
//! let cfg = SimConfig::new(
//!     ClusterParams::paper_baseline(),
//!     AlgorithmKind::EDF_DLT,
//! ).strict();
//! let tasks = vec![
//!     Task::new(1, 0.0, 200.0, 50_000.0),
//!     Task::new(2, 100.0, 400.0, 80_000.0),
//! ];
//! let report = run_simulation(cfg, tasks);
//! assert_eq!(report.metrics.accepted, 2);
//! assert_eq!(report.metrics.deadline_misses, 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod serve;
pub mod trace;

/// One-stop imports for running simulations.
pub mod prelude {
    pub use crate::config::{LinkModel, ReplanPolicy, SimConfig};
    pub use crate::engine::{run_simulation, SimReport, Simulation};
    pub use crate::metrics::Metrics;
    pub use crate::serve::{Resolution, Serve, SubmitOutcome, Turn};
    pub use crate::trace::{ChunkRecord, TaskRecord, Trace};
}
