//! # rtdls — Real-Time Divisible Load Scheduling
//!
//! A complete, from-scratch Rust implementation of
//! **"Real-Time Divisible Load Scheduling with Different Processor Available
//! Times"** (Lin, Lu, Deogun, Goddard — Univ. of Nebraska–Lincoln,
//! TR-UNL-CSE-2007-0013 / ICPP 2007), including the paper's full simulation
//! substrate and evaluation harness.
//!
//! This facade crate re-exports the eight workspace crates:
//!
//! | Crate | What it provides |
//! |-------|------------------|
//! | [`core`] | DLT mathematics, the heterogeneous model for different processor available times, partitioning strategies, EDF/FIFO policies, the Fig. 2 schedulability test |
//! | [`sim`] | the discrete-event cluster simulator (head node, workers, dispatch, metrics, traces) and the one serving trait, [`Serve`](sim::serve::Serve), it drives in the turns the edge drives |
//! | [`workload`] | the paper's workload generator (`SystemLoad`, `DCRatio`, normal sizes, uniform deadlines) plus bursty open-loop arrival streams |
//! | [`service`] | the online serving layer: admission gateways with Accept/Defer/Reject and sharded multi-cluster dispatch |
//! | [`journal`] | durability for the serving layer: write-ahead journaling of every gateway decision, compacting snapshots, crash recovery with strict re-admission, and journal shipping (off by default) |
//! | [`replica`] | failover: the warm standby a journaled head ships to, and epoch-fenced promotion (the crash world that kills, restarts and fails it over is the dev-only `rtdls-world`) |
//! | [`edge`] | the network front-end: a hand-rolled non-blocking reactor serving the request/verdict protocol over TCP, with streamed reservation updates |
//! | [`experiments`] | the figure harness reproducing Fig. 3–16 and the §5.2 aggregate |
//!
//! ## Quickstart
//!
//! ```
//! use rtdls::prelude::*;
//!
//! // A 16-node cluster with the paper's unit costs.
//! let params = ClusterParams::paper_baseline();
//!
//! // Generate one hour of the paper's baseline workload at 60% load.
//! let mut spec = WorkloadSpec::paper_baseline(0.6);
//! spec.horizon = 1e5;
//! let tasks: Vec<Task> = WorkloadGenerator::new(spec, 42).collect();
//!
//! // Simulate the paper's headline algorithm with runtime verification of
//! // every real-time guarantee.
//! let cfg = SimConfig::new(params, AlgorithmKind::EDF_DLT).strict();
//! let report = run_simulation(cfg, tasks);
//!
//! println!("reject ratio: {:.3}", report.metrics.reject_ratio());
//! assert_eq!(report.metrics.deadline_misses, 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use rtdls_core as core;
pub use rtdls_edge as edge;
pub use rtdls_experiments as experiments;
pub use rtdls_journal as journal;
pub use rtdls_replica as replica;
pub use rtdls_service as service;
pub use rtdls_sim as sim;
pub use rtdls_workload as workload;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use rtdls_core::prelude::*;
    pub use rtdls_edge::prelude::*;
    pub use rtdls_journal::prelude::*;
    pub use rtdls_replica::prelude::*;
    pub use rtdls_service::prelude::*;
    pub use rtdls_sim::prelude::*;
    pub use rtdls_workload::prelude::*;
}
