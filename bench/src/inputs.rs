//! What every workload is made of: the shared request stream, the shared
//! gateway shape, and the *turn script* — the exact sequence of
//! `(instant, requests)` a stack is driven with, whether over a socket or
//! by direct calls.
//!
//! All serving workloads draw from one generator configuration and serve
//! through one gateway shape unless a workload says otherwise, so a
//! difference between two workloads is the layer under test, not the input.

use std::collections::HashMap;
use std::ops::Range;

use rtdls::core::prelude::{
    AlgorithmKind, ClusterParams, PlanConfig, SimTime, SubmitRequest, Task, TaskId, TenantMix,
};
use rtdls::service::prelude::{DeferPolicy, Routing, ShardedGateway};
use rtdls::workload::prelude::{IntoRequests, WorkloadGenerator, WorkloadSpec};

/// Nodes in every serving workload's cluster.
pub const SERVING_NODES: usize = 64;

/// Simulated seconds between two reactor turns in a direct replay of a
/// socket workload: more than the longest relative deadline in the stream
/// (1.5 × AvgD ≈ 12.7e3 s at DCRatio 20), so by the next turn every plan
/// is dispatched and every defer ticket has expired — the regime the
/// socket workloads are in at [`EDGE_CLOCK_SCALE`]. (There the reactor
/// needs a few empty turns to cross that span; a direct rung crosses it in
/// one, which is part of what the budget's residue holds.)
pub const TURN_GAP: f64 = 2.0e4;

/// Simulated seconds per wall second on the socket workloads. At 2e9 one
/// wall microsecond is 2 000 simulated seconds and the shortest turn
/// (8 verdicts) spans ≈ 2e5: the cluster is idle between turns at any
/// plausible serving rate, so the regime is set by the window alone and
/// work per op does not depend on wall time. Not higher, because a block
/// must end before the clock reaches ≈ 1e9 simulated seconds: beyond that
/// one `f64` step approaches the engine's comparison tolerance (1e-6) and
/// borderline tests start to depend on the wall time a frame arrived at.
pub const EDGE_CLOCK_SCALE: f64 = 2.0e9;

/// The serving cluster: 64 nodes, the paper's unit costs.
pub fn serving_params() -> ClusterParams {
    ClusterParams::new(SERVING_NODES, 1.0, 100.0).expect("valid serving cluster")
}

/// The shared 8-tenant mix (one premium, three best-effort tenants).
pub fn tenant_mix() -> TenantMix {
    TenantMix {
        tenants: 8,
        premium_tenants: 1,
        best_effort_tenants: 3,
        max_delay_factor: None,
    }
}

/// The first `n` requests of the shared serving stream for `seed`:
/// Avgσ 200 on the serving cluster at the given DCRatio and SystemLoad.
pub fn serving_requests(
    seed: u64,
    n: usize,
    dc_ratio: f64,
    system_load: f64,
    mix: TenantMix,
) -> Vec<SubmitRequest> {
    let mut spec = WorkloadSpec::paper_baseline(system_load);
    spec.params = serving_params();
    spec.dc_ratio = dc_ratio;
    spec.horizon = f64::MAX;
    WorkloadGenerator::new(spec, seed)
        .take(n)
        .with_tenants(mix)
        .collect()
}

/// Rescales `requests` in place so that the load they realise is exactly
/// the nominal `system_load`: arrival gaps are stretched until the span
/// equals `n` nominal interarrival times, sizes until their mean is Avgσ.
///
/// A Poisson stream of a few hundred arrivals realises its nominal load
/// only to within ± 5 %, and under overload the share of submissions the
/// gateway cannot take at once — the expensive ones — follows the realised
/// load: uncalibrated, `admit_deep` cost 286–520 µs per decision depending
/// on the seed. Calibrated, every seed offers the same load and the
/// workload differs by seed only in which tasks arrive when.
pub fn calibrate_load(requests: &mut [SubmitRequest], starts_at: f64, system_load: f64) {
    let Some(last) = requests.last() else { return };
    let n = requests.len() as f64;
    let mut spec = WorkloadSpec::paper_baseline(system_load);
    spec.params = serving_params();
    let stretch = n * spec.mean_interarrival() / (last.task.arrival.as_f64() - starts_at);
    let mean_sigma = requests.iter().map(|r| r.task.data_size).sum::<f64>() / n;
    for r in requests.iter_mut() {
        let gap = r.task.arrival.as_f64() - starts_at;
        r.task.arrival = SimTime::new(starts_at + gap * stretch);
        r.task.data_size *= spec.avg_sigma / mean_sigma;
    }
}

/// The shared gateway shape over `shards` shards of the serving cluster.
pub fn serving_gateway(shards: usize) -> ShardedGateway {
    ShardedGateway::new(
        serving_params(),
        shards,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .expect("valid shard count")
}

/// One reactor turn's worth of input: the requests that arrive together
/// and the instant they arrive at.
#[derive(Clone, Debug)]
pub struct Turn {
    /// The serving instant of the turn.
    pub now: SimTime,
    /// Indices into [`Script::requests`].
    pub requests: Range<usize>,
}

/// A workload's exact input sequence.
#[derive(Clone, Debug)]
pub struct Script {
    /// Every request, arrival already stamped with its turn's instant.
    pub requests: Vec<SubmitRequest>,
    /// The turns, in serving order.
    pub turns: Vec<Turn>,
    /// Whether the stack is driven again, [`TURN_GAP`] apart, until no
    /// timed work is due (what a reactor does between socket turns), or
    /// exactly once per turn (a direct caller).
    pub settle: bool,
    /// Stamped task id → index into `requests`.
    by_id: HashMap<u64, usize>,
}

impl Script {
    /// The script a socket workload produces at the given window: lock-step
    /// batches of `window` same-instant submits, [`TURN_GAP`] apart, ids
    /// and arrivals as the edge stamps them on connection `conn`.
    pub fn windowed(requests: &[SubmitRequest], window: usize, conn: u64) -> Script {
        let mut stamped = requests.to_vec();
        let mut turns = Vec::new();
        for (k, chunk) in stamped.chunks_mut(window).enumerate() {
            // Each batch lands after the previous one settled twice over.
            let now = SimTime::new((k as f64 + 1.0) * 4.0 * TURN_GAP);
            for r in chunk.iter_mut() {
                r.task.arrival = now;
                r.task.id = TaskId((conn << 32) | r.task.id.0);
            }
            let start = k * window;
            turns.push(Turn {
                now,
                requests: start..start + chunk.len(),
            });
        }
        Script::assemble(stamped, turns, true)
    }

    /// One request per turn, served at its own arrival stamp.
    pub fn per_arrival(requests: Vec<SubmitRequest>) -> Script {
        let turns = requests
            .iter()
            .enumerate()
            .map(|(i, r)| Turn {
                now: r.task.arrival,
                requests: i..i + 1,
            })
            .collect();
        Script::assemble(requests, turns, false)
    }

    fn assemble(requests: Vec<SubmitRequest>, turns: Vec<Turn>, settle: bool) -> Script {
        let by_id = requests
            .iter()
            .enumerate()
            .map(|(i, r)| (r.task.id.0, i))
            .collect();
        Script {
            requests,
            turns,
            settle,
            by_id,
        }
    }

    /// Requests in the script.
    pub fn ops(&self) -> u64 {
        self.requests.len() as u64
    }

    /// The task with the given (stamped) id.
    pub fn task(&self, id: u64) -> Option<Task> {
        self.by_id.get(&id).map(|&i| self.requests[i].task)
    }
}
