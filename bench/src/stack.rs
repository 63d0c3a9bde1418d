//! Driving a [`Script`] through a stack by direct calls.
//!
//! The same function serves the `admit_deep` workload (gateway, untraced)
//! and the ladder's lower rungs (engine, gateway, journaled — traced): the
//! calls are the ones the reactor makes per turn — `decide` each arrival,
//! `drive`, drain the update stream — through the `EdgeGateway` surface
//! the edge itself serves, so a rung is the socket workload minus the
//! sockets.

use std::time::Instant;

use rtdls::core::prelude::{
    Admission, AdmissionController, AlgorithmKind, ClusterParams, PlanConfig, SimTime, Task,
};
use rtdls::edge::EdgeGateway;
use rtdls::service::prelude::DecisionUpdate;

use crate::edge::{Tally, VerdictKind};
use crate::inputs::{Script, TURN_GAP};
use crate::trace::Recorder;

/// Settle drives after a turn are capped: a book that always has timed
/// work due (it should not, [`TURN_GAP`] apart) cannot hang the run.
const MAX_SETTLE_DRIVES: usize = 6;

/// One `drive` of a gateway pass.
#[derive(Clone, Debug)]
pub struct DriveRecord {
    /// The turn the drive belongs to.
    pub turn: u32,
    /// The instant it drove to.
    pub now: SimTime,
    /// Tasks the gateway admitted in this drive, after their submit
    /// (defer rescues, reservation activations), in reported order.
    pub admitted: Vec<Task>,
}

/// What one pass of a script through a gateway stack produced.
#[derive(Clone, Debug, Default)]
pub struct PassOutcome {
    pub tally: Tally,
    /// Decision updates drained, terminal or not.
    pub updates: u64,
    /// Every `drive` the pass made, when asked to keep them: the engine
    /// rung replays exactly these instants and late admissions.
    pub drive_log: Vec<DriveRecord>,
    /// `drive` calls made.
    pub drives: u32,
    /// Decisions that took longer than the limit handed to [`run_gateway`].
    pub over_limit: u64,
}

/// How a gateway pass is run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassOpts {
    /// Bound on a single decision (`decide` plus its share of the turn's
    /// drives) for the within-limit count; 0 takes no per-turn clock.
    pub limit_ns: u64,
    /// Keep the [`DriveRecord`]s (an untimed recording pass).
    pub keep_drive_log: bool,
}

/// Plays `script` through `gateway`. Spans: `turn` › `decide`, `drive`,
/// `updates`.
pub fn run_gateway<G: EdgeGateway>(
    gateway: &mut G,
    script: &Script,
    rec: &mut Recorder,
    opts: PassOpts,
) -> PassOutcome {
    run_gateway_observed(gateway, script, rec, opts, |_| {})
}

/// [`run_gateway`], showing the gateway to `observe` before every turn
/// (the check passes read queue depths this way).
pub fn run_gateway_observed<G: EdgeGateway>(
    gateway: &mut G,
    script: &Script,
    rec: &mut Recorder,
    opts: PassOpts,
    mut observe: impl FnMut(&G),
) -> PassOutcome {
    let limit_ns = opts.limit_ns;
    let mut out = PassOutcome::default();
    for (t, turn) in script.turns.iter().enumerate() {
        observe(gateway);
        let turn_span = rec.open("turn", t as u32);
        let clock = (limit_ns > 0).then(Instant::now);
        for i in turn.requests.clone() {
            let request = &script.requests[i];
            let span = rec.open("decide", i as u32);
            let verdict = gateway.decide(request, turn.now);
            rec.close(span);
            out.tally.count(VerdictKind::of(&verdict));
        }
        let t = t as u32;
        drive(gateway, (t, turn.now), script, rec, opts, &mut out);
        if script.settle {
            let mut now = turn.now;
            for _ in 0..MAX_SETTLE_DRIVES {
                let Some(due) = gateway.next_due() else { break };
                now = SimTime::new((now.as_f64() + TURN_GAP).max(due.as_f64()));
                drive(gateway, (t, now), script, rec, opts, &mut out);
            }
        }
        if let Some(clock) = clock {
            let per_decision =
                clock.elapsed().as_nanos() as u64 / turn.requests.len().max(1) as u64;
            if per_decision > limit_ns {
                out.over_limit += turn.requests.len() as u64;
            }
        }
        rec.close(turn_span);
    }
    out
}

fn drive<G: EdgeGateway>(
    gateway: &mut G,
    (turn, now): (u32, SimTime),
    script: &Script,
    rec: &mut Recorder,
    opts: PassOpts,
    out: &mut PassOutcome,
) {
    let span = rec.open("drive", out.drives);
    gateway.drive(now);
    rec.close(span);
    let span = rec.open("updates", out.drives);
    let updates = gateway.take_updates();
    rec.close(span);
    out.updates += updates.len() as u64;
    out.drives += 1;
    if opts.keep_drive_log {
        let admitted = updates
            .iter()
            .filter(|u| match u {
                DecisionUpdate::Resolved { admitted, .. }
                | DecisionUpdate::Activated { admitted, .. } => *admitted,
            })
            .filter_map(|u| script.task(u.task()))
            .collect();
        out.drive_log.push(DriveRecord {
            turn,
            now,
            admitted,
        });
    }
}

/// The engines a `ShardedGateway` of the same shape instantiates, driven
/// without the gateway: one `AdmissionController` per shard, submissions
/// dealt least-backlog-first with spill-over as `Routing::LeastLoaded`
/// does, so the engines see the calls the gateway would make to decide
/// each arrival once.
#[derive(Clone)]
pub struct EngineBank {
    engines: Vec<AdmissionController>,
}

impl EngineBank {
    pub fn new(params: ClusterParams, shards: usize, algorithm: AlgorithmKind) -> Self {
        let base = params.num_nodes / shards;
        let extra = params.num_nodes % shards;
        let engines = (0..shards)
            .map(|i| {
                let size = base + usize::from(i < extra);
                let shard = ClusterParams::new(size, params.cms, params.cps).expect("shard params");
                AdmissionController::new(shard, algorithm, PlanConfig::default())
            })
            .collect();
        EngineBank { engines }
    }

    /// Tasks waiting across all engines.
    pub fn depth(&self) -> usize {
        self.engines.iter().map(Admission::queue_len).sum()
    }

    /// The committed release vector of the deepest engine (a sample of the
    /// "different processor available times" the planner works against).
    pub fn sample_releases(&self) -> (ClusterParams, Vec<SimTime>) {
        let engine = self
            .engines
            .iter()
            .max_by_key(|e| e.queue_len())
            .expect("at least one engine");
        (*engine.params(), engine.committed_releases().to_vec())
    }

    fn admit(&mut self, task: Task, now: SimTime, rec: &mut Recorder, op: u32) -> bool {
        let mut order: Vec<usize> = (0..self.engines.len()).collect();
        if order.len() > 1 {
            let backlogs: Vec<f64> = self.engines.iter().map(|e| e.backlog(now)).collect();
            order.sort_by(|&a, &b| backlogs[a].total_cmp(&backlogs[b]).then(a.cmp(&b)));
        }
        for s in order {
            let span = rec.open("submit", op);
            let accepted = self.engines[s].submit(task, now).is_accepted();
            rec.close(span);
            if accepted {
                return true;
            }
        }
        false
    }

    fn take_due(&mut self, now: SimTime, rec: &mut Recorder, op: u32) {
        let span = rec.open("take_due", op);
        for engine in &mut self.engines {
            let _ = engine.take_due(now);
        }
        rec.close(span);
    }
}

/// What the engine rung observed.
#[derive(Clone, Debug, Default)]
pub struct EngineOutcome {
    /// Tasks the engines hold or dispatched (must equal the gateway's
    /// accepted total when the replay is faithful).
    pub admitted: u64,
    /// Waiting-queue depth seen by each arrival.
    pub depths: Vec<u32>,
    /// Release vectors sampled along the way, with their shard's params.
    pub release_samples: Vec<(ClusterParams, Vec<SimTime>, Task)>,
}

/// Plays `script` through bare engines: every arrival submitted once, and
/// — following the `drive_log` of a gateway pass over the same script — due
/// plans taken at every instant the gateway drove to and every task the
/// gateway admitted late (rescue, activation) admitted at the same drive.
/// Spans: `turn` › `submit`, `take_due`.
pub fn run_engines(
    bank: &mut EngineBank,
    script: &Script,
    drive_log: &[DriveRecord],
    rec: &mut Recorder,
) -> EngineOutcome {
    let mut out = EngineOutcome::default();
    let mut drives = drive_log.iter().peekable();
    let mut drive_no = 0u32;
    let sample_every = (script.requests.len() / 64).max(1);
    for (t, turn) in script.turns.iter().enumerate() {
        let turn_span = rec.open("turn", t as u32);
        for i in turn.requests.clone() {
            let task = script.requests[i].task;
            out.depths.push(bank.depth() as u32);
            if i % sample_every == 0 {
                let (params, releases) = bank.sample_releases();
                out.release_samples.push((params, releases, task));
            }
            out.admitted += u64::from(bank.admit(task, turn.now, rec, i as u32));
        }
        while let Some(drive) = drives.next_if(|d| d.turn == t as u32) {
            bank.take_due(drive.now, rec, drive_no);
            for task in &drive.admitted {
                out.admitted += u64::from(bank.admit(*task, drive.now, rec, drive_no));
            }
            drive_no += 1;
        }
        rec.close(turn_span);
    }
    out
}
