//! The deterministic whole-system failover harness.
//!
//! [`ReplicaFrontend`] packages a complete replication deployment — a
//! journaled shard primary behind the one shipping wrapper
//! ([`ShippingGateway`], in outbox mode), two [`FaultyLink`]s (frames out,
//! acks back), and a warm-standby [`Follower`] — behind the serving trait
//! the simulator drives ([`Serve`]), so the discrete-event engine drives
//! the *entire* failover story as one seeded, replayable run, in the same
//! turns the edge serves:
//!
//! 1. **Primary phase** — every turn the primary drives ships what it
//!    committed; the harness carries the outbox through the lossy link,
//!    the follower replays the frames and acks, the acks come back through
//!    [`ShippingGateway::on_ack`]. Heartbeat cadence is part of
//!    [`Serve::next_due`], so the channel stays live even when the cluster
//!    is idle.
//! 2. **Kill** — at [`FailoverPlan::kill_at`] the primary process dies
//!    mid-stream: its in-memory gateway is dropped, its unacked journal
//!    tail is stashed as the **zombie** (the appends a partitioned primary
//!    still believes it committed). Submissions now bounce, node releases
//!    buffer — the modeled worker nodes outlive the head node.
//! 3. **Promotion** — when the follower's heartbeat silence exceeds its
//!    timeout, the harness applies the buffered releases to the standby,
//!    promotes it under `epoch + 1` (strict re-admission, demotions
//!    journaled — exactly crash recovery's pass), and serves from the
//!    promoted gateway, which nobody follows. The zombie's late appends are
//!    then delivered to the still-alive follower and provably fenced.
//!
//! Every random draw in the run comes from the engine's deterministic
//! event order plus the two links' seeded RNGs: the same
//! [`FailoverPlan`] over the same workload replays bit-identically,
//! mirror bytes included.

use rtdls_core::prelude::{
    AdmissionFailure, Infeasible, SimTime, SubmitRequest, Task, TaskId, TaskPlan,
};
use rtdls_journal::prelude::{
    EdgeGateway, GatewaySnapshot, JournalConfig, JournaledGateway, Recoverable,
};
use rtdls_service::prelude::Verdict;
use rtdls_sim::config::SimConfig;
use rtdls_sim::engine::{SimReport, Simulation};
use rtdls_sim::net::{FaultPlan, FaultyLink, LinkStats};
use rtdls_sim::serve::{Resolution, Serve, Turn};

use crate::follower::{Follower, FollowerConfig, FollowerStats, Promotion};
use crate::gateway::ShippingGateway;
use crate::ship::{ShipConfig, ShipMsg, ShipStats};

/// Everything that can go wrong, and when: the script for one seeded
/// failover scenario.
#[derive(Clone, Debug)]
pub struct FailoverPlan {
    /// Sim-time at which the primary process dies. `f64::INFINITY` (the
    /// [`FailoverPlan::no_kill`] control arm) means it never does.
    pub kill_at: SimTime,
    /// Fault model for the primary → follower frame link.
    pub fault: FaultPlan,
    /// Fault model for the follower → primary ack link.
    pub ack_fault: FaultPlan,
    /// Shipping cadence (heartbeats, retransmission).
    pub ship: ShipConfig,
    /// Follower failure-detector tunables.
    pub follower: FollowerConfig,
    /// Journal config the promoted gateway runs under.
    pub journal: JournalConfig,
}

impl FailoverPlan {
    /// Kill the primary at `kill_at`, over clean links seeded from `seed`.
    pub fn kill_at(kill_at: SimTime, seed: u64) -> Self {
        FailoverPlan {
            kill_at,
            fault: FaultPlan::clean(seed),
            ack_fault: FaultPlan::clean(seed.wrapping_add(1)),
            ship: ShipConfig::default(),
            follower: FollowerConfig::default(),
            journal: JournalConfig::default(),
        }
    }

    /// The control arm: the primary never dies.
    pub fn no_kill(seed: u64) -> Self {
        Self::kill_at(SimTime::new(f64::INFINITY), seed)
    }

    /// Replaces the frame-link fault model.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Replaces the ack-link fault model.
    pub fn with_ack_fault(mut self, fault: FaultPlan) -> Self {
        self.ack_fault = fault;
        self
    }

    /// Replaces the shipping cadence.
    pub fn with_ship(mut self, ship: ShipConfig) -> Self {
        self.ship = ship;
        self
    }

    /// Replaces the follower tunables.
    pub fn with_follower(mut self, follower: FollowerConfig) -> Self {
        self.follower = follower;
        self
    }

    /// Replaces the promoted gateway's journal config.
    pub fn with_journal(mut self, journal: JournalConfig) -> Self {
        self.journal = journal;
        self
    }
}

/// The process answering for the shard, by phase of the failover.
enum Process<G: Recoverable> {
    /// The original primary, shipping to the follower.
    Primary(ShippingGateway<G>),
    /// The outage window: nobody answers.
    Down,
    /// The promoted follower. Nobody follows it, so it ships nothing.
    Promoted(JournaledGateway<G>),
}

impl<G: Recoverable> Process<G> {
    fn serving(&self) -> Option<&dyn Serve<Outcome = Verdict>> {
        match self {
            Process::Primary(gw) => Some(gw),
            Process::Down => None,
            Process::Promoted(gw) => Some(gw),
        }
    }

    fn serving_mut(&mut self) -> Option<&mut dyn Serve<Outcome = Verdict>> {
        match self {
            Process::Primary(gw) => Some(gw),
            Process::Down => None,
            Process::Promoted(gw) => Some(gw),
        }
    }
}

/// The forensic record of one failover run, for assertions and ops.
#[derive(Clone, Debug, PartialEq)]
pub struct FailoverOutcome {
    /// When the primary died (`None` in the control arm).
    pub killed_at: Option<SimTime>,
    /// When the follower promoted.
    pub promoted_at: Option<SimTime>,
    /// What promotion produced (new epoch, demotions, prefix length).
    pub promotion: Option<Promotion>,
    /// The follower's applied journal prefix at the promotion instant —
    /// the bytes a reference recovery must reproduce the new primary from.
    pub shipped_prefix: Vec<u8>,
    /// The promoted gateway's normalized state immediately after the
    /// re-admission pass (before any post-promotion traffic).
    pub promoted_genesis: Option<GatewaySnapshot>,
    /// The dead primary's full journal at the kill instant (includes the
    /// unshipped tail the failover necessarily loses).
    pub primary_wal: Vec<u8>,
    /// Frames the dead primary had appended but the follower never acked —
    /// delivered post-promotion as the zombie's late traffic.
    pub zombie_frames: u64,
    /// Node releases that arrived during the outage window, replayed into
    /// the standby before promotion.
    pub buffered_releases: Vec<(usize, SimTime)>,
    /// Submissions rejected because they arrived during the outage.
    pub lost_submissions: u64,
    /// Follower counters (fenced, duplicates, fast-forwards…).
    pub follower: FollowerStats,
    /// Frame-link traffic accounting.
    pub link: LinkStats,
    /// Ack-link traffic accounting.
    pub acks: LinkStats,
    /// Shipper counters.
    pub ship: ShipStats,
}

/// A primary + channel + follower deployment served as one [`Serve`].
pub struct ReplicaFrontend<G: Recoverable> {
    plan: FailoverPlan,
    process: Process<G>,
    /// Primary → follower frames and heartbeats.
    link: FaultyLink<ShipMsg>,
    /// Follower → primary acks.
    acks: FaultyLink<ShipMsg>,
    follower: Follower<G>,
    /// Node releases seen while Down, replayed at promotion.
    buffered_releases: Vec<(usize, SimTime)>,
    /// The dead primary's unacked tail, re-delivered post-promotion.
    zombie: Vec<ShipMsg>,
    /// The dead primary's shipping counters.
    shipped: ShipStats,
    killed_at: Option<SimTime>,
    promoted_at: Option<SimTime>,
    promotion: Option<Promotion>,
    shipped_prefix: Vec<u8>,
    promoted_genesis: Option<GatewaySnapshot>,
    primary_wal: Vec<u8>,
    zombie_frames: u64,
    lost_submissions: u64,
}

impl<G: Recoverable> ReplicaFrontend<G> {
    /// Deploys `primary` with a fresh follower under `plan`.
    pub fn new(primary: JournaledGateway<G>, plan: FailoverPlan) -> Self {
        ReplicaFrontend {
            process: Process::Primary(ShippingGateway::new(primary, plan.ship)),
            link: FaultyLink::new(plan.fault.clone()),
            acks: FaultyLink::new(plan.ack_fault.clone()),
            follower: Follower::new(plan.follower),
            plan,
            buffered_releases: Vec::new(),
            zombie: Vec::new(),
            shipped: ShipStats::default(),
            killed_at: None,
            promoted_at: None,
            promotion: None,
            shipped_prefix: Vec::new(),
            promoted_genesis: None,
            primary_wal: Vec::new(),
            zombie_frames: 0,
            lost_submissions: 0,
        }
    }

    /// One channel round at sim-time `now`: kill if due, carry what the
    /// primary shipped into the link, deliver frames to the follower,
    /// deliver acks back, promote if due. Called at the top of every
    /// timestamped serving call, so the channel advances exactly as fast as
    /// the event clock, and again at the end of a turn, so what the turn
    /// shipped over a zero-delay link arrives — and is acked — at once.
    fn pump(&mut self, now: SimTime) {
        if matches!(self.process, Process::Primary(_)) && now >= self.plan.kill_at {
            self.kill(now);
        }
        if let Process::Primary(gw) = &mut self.process {
            for msg in gw.take_outbox() {
                self.link.send(now, msg);
            }
        }
        for msg in self.link.deliver_due(now) {
            let reply = self
                .follower
                .on_msg(now, msg)
                .expect("shipped frames decode cleanly");
            if let Some(ack) = reply {
                self.acks.send(now, ack);
            }
        }
        for msg in self.acks.deliver_due(now) {
            // Acks addressed to a dead primary die with it.
            if let (Process::Primary(gw), ShipMsg::Ack { seq }) = (&mut self.process, msg) {
                gw.on_ack(seq, now);
            }
        }
        if matches!(self.process, Process::Down) && self.follower.should_promote(now) {
            self.promote(now);
        }
    }

    /// The primary process dies: drop its in-memory state, keep its
    /// journal bytes for forensics, and stash the unacked tail as the
    /// zombie — stamped with the dying epoch, exactly as a partitioned
    /// primary would later try to ship it.
    fn kill(&mut self, now: SimTime) {
        let Process::Primary(dead) = std::mem::replace(&mut self.process, Process::Down) else {
            unreachable!("only a live primary is killed");
        };
        let journal = dead.inner().journal();
        self.primary_wal = journal.bytes().to_vec();
        let epoch = journal.epoch();
        let (start, frames) = journal.frames_from(dead.shipper().acked());
        self.zombie = frames
            .iter()
            .enumerate()
            .map(|(i, bytes)| ShipMsg::frame(epoch, start + i as u64, bytes.to_vec()))
            .collect();
        self.zombie_frames = self.zombie.len() as u64;
        self.shipped = dead.shipper().stats();
        self.killed_at = Some(now);
    }

    /// Heartbeat silence exceeded the follower's timeout: promote.
    fn promote(&mut self, now: SimTime) {
        self.shipped_prefix = self.follower.bytes().to_vec();
        // Node releases that landed during the outage reach the standby
        // before the re-admission pass judges feasibility.
        if let Some(standby) = self.follower.standby_mut() {
            for &(node, time) in &self.buffered_releases {
                standby.node_released(node, time);
            }
        }
        let (promoted, record) = self
            .follower
            .promote(now, self.plan.journal, None)
            .expect("should_promote implies a standby exists");
        self.promoted_genesis = Some(promoted.inner().capture().normalized());
        self.promotion = Some(record);
        self.promoted_at = Some(now);
        // The zombie wakes up and ships its tail. The still-alive follower
        // object is the fence: every frame carries the dead epoch.
        for msg in std::mem::take(&mut self.zombie) {
            let _ = self.follower.on_msg(now, msg);
        }
        self.process = Process::Promoted(promoted);
    }

    /// Attaches a trace handle to the *primary process*: the primary
    /// gateway records its pipeline spans into it, and its shipper copies
    /// each frame's spans onto the wire. Models the head node's recorder —
    /// it dies with the kill.
    pub fn attach_primary_telemetry(&mut self, telemetry: &rtdls_telemetry::Telemetry) {
        if let Process::Primary(gw) = &mut self.process {
            gw.attach_telemetry(telemetry);
        }
    }

    /// Attaches a trace handle to the *follower process*: replayed frames
    /// re-record the shipped primary spans plus their own
    /// `follower_replay` spans, and promotion hands the handle to the
    /// promoted gateway. Models the standby node's recorder — the one that
    /// survives the failover.
    pub fn attach_follower_telemetry(&mut self, telemetry: &rtdls_telemetry::Telemetry) {
        self.follower.attach_telemetry(telemetry);
    }

    /// Consumes the frontend, returning the live gateway (promoted after a
    /// failover) — e.g. to put it behind an edge server and serve timeline
    /// queries from the surviving process.
    pub fn into_gateway(self) -> Option<JournaledGateway<G>> {
        match self.process {
            Process::Primary(gw) => Some(gw.into_inner()),
            Process::Down => None,
            Process::Promoted(gw) => Some(gw),
        }
    }

    /// The live gateway, if any (primary before the kill, promoted after).
    pub fn gateway(&self) -> Option<&JournaledGateway<G>> {
        match &self.process {
            Process::Primary(gw) => Some(gw.inner()),
            Process::Down => None,
            Process::Promoted(gw) => Some(gw),
        }
    }

    /// The follower (post-promotion: the fence).
    pub fn follower(&self) -> &Follower<G> {
        &self.follower
    }

    /// The forensic record of the run so far.
    pub fn outcome(&self) -> FailoverOutcome {
        let ship = match &self.process {
            Process::Primary(gw) => gw.shipper().stats(),
            _ => self.shipped,
        };
        FailoverOutcome {
            killed_at: self.killed_at,
            promoted_at: self.promoted_at,
            promotion: self.promotion.clone(),
            shipped_prefix: self.shipped_prefix.clone(),
            promoted_genesis: self.promoted_genesis.clone(),
            primary_wal: self.primary_wal.clone(),
            zombie_frames: self.zombie_frames,
            buffered_releases: self.buffered_releases.clone(),
            lost_submissions: self.lost_submissions,
            follower: self.follower.stats(),
            link: self.link.stats(),
            acks: self.acks.stats(),
            ship,
        }
    }
}

impl<G: Recoverable> Serve for ReplicaFrontend<G> {
    type Outcome = Verdict;

    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        self.pump(now);
        match self.process.serving_mut() {
            Some(gw) => gw.decide(request, now),
            None => {
                self.lost_submissions += 1;
                Verdict::rejected(Infeasible::NotEnoughNodes)
            }
        }
    }

    /// The live gateway's turn — the primary's ships what it committed —
    /// then a channel round that carries it to the follower.
    fn drive(&mut self, now: SimTime) -> Turn {
        self.pump(now);
        let turn = self
            .process
            .serving_mut()
            .map(|gw| gw.drive(now))
            .unwrap_or_default();
        self.pump(now);
        turn
    }

    fn next_due(&self) -> Option<SimTime> {
        // With a kill planned, the channel stays due-driven: heartbeats
        // tick, the kill fires on time even in an idle lull. The no-kill
        // control arm lets the channel idle out with the event queue
        // instead of heartbeating forever.
        let (kill, heartbeat) = match &self.process {
            Process::Primary(gw) if self.plan.kill_at.as_f64().is_finite() => {
                (Some(self.plan.kill_at), gw.shipper().next_heartbeat())
            }
            _ => (None, None),
        };
        let promote = match self.process {
            Process::Down => self.follower.promote_at(),
            _ => None,
        };
        [
            self.process.serving().and_then(|gw| gw.next_due()),
            kill,
            heartbeat,
            promote,
            self.link.next_delivery(),
            self.acks.next_delivery(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn finalize(&mut self, now: SimTime) -> Vec<Resolution> {
        self.pump(now);
        let resolved = self
            .process
            .serving_mut()
            .map(|gw| gw.finalize(now))
            .unwrap_or_default();
        self.pump(now);
        resolved
    }

    fn replan_waiting(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        self.process
            .serving_mut()
            .map_or(Ok(()), |gw| gw.replan_waiting(now))
    }

    fn committed_release(&self, node: usize) -> SimTime {
        self.process
            .serving()
            .map_or(SimTime::ZERO, |gw| gw.committed_release(node))
    }

    fn node_released(&mut self, node: usize, at: SimTime) {
        self.pump(at);
        match self.process.serving_mut() {
            Some(gw) => gw.node_released(node, at),
            // The worker node released; the head node isn't there to hear
            // it. Buffer for the promoted successor.
            None => self.buffered_releases.push((node, at)),
        }
    }

    fn plan_of(&self, task: TaskId) -> Option<&TaskPlan> {
        self.process.serving().and_then(|gw| gw.plan_of(task))
    }
}

/// Runs `tasks` through a replicated deployment of `primary` under `plan`,
/// to completion. Panics if `cfg` is strict: a failover loses in-flight
/// guarantees by design (the outage window rejects, unshipped admissions
/// die with the primary), so the run must be driven non-strict and judged
/// by its [`FailoverOutcome`] instead.
pub fn run_failover<G: Recoverable>(
    cfg: SimConfig,
    primary: JournaledGateway<G>,
    plan: FailoverPlan,
    tasks: Vec<Task>,
) -> (SimReport, ReplicaFrontend<G>) {
    assert!(
        !cfg.strict_guarantees,
        "failover scenarios model guarantee loss; drive them non-strict"
    );
    let frontend = ReplicaFrontend::new(primary, plan);
    let mut sim = Simulation::with_frontend(cfg, frontend);
    sim.prime(tasks);
    while sim.step() {}
    sim.finish()
}
