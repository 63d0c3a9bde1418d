//! The deterministic whole-system failover harness.
//!
//! [`ReplicaFrontend`] packages a complete replication deployment — a
//! journaled shard primary, the [`Shipper`] on its journal, two
//! [`FaultyLink`]s (frames out, acks back), and a warm-standby
//! [`Follower`] — behind the simulator's [`Frontend`] trait, so the
//! discrete-event engine drives the *entire* failover story as one seeded,
//! replayable run:
//!
//! 1. **Primary phase** — every frontend call pumps the channel: new
//!    journal frames ship through the lossy link, the follower replays
//!    them and acks, heartbeats keep the failure detector fed. Heartbeat
//!    cadence is driven through [`Frontend::next_wakeup`], so the channel
//!    stays live even when the cluster is idle.
//! 2. **Kill** — at [`FailoverPlan::kill_at`] the primary process dies
//!    mid-stream: its in-memory gateway is dropped, its unacked journal
//!    tail is stashed as the **zombie** (the appends a partitioned primary
//!    still believes it committed). Submissions now bounce, node releases
//!    buffer — the modeled worker nodes outlive the head node.
//! 3. **Promotion** — when the follower's heartbeat silence exceeds its
//!    timeout, the harness applies the buffered releases to the standby,
//!    promotes it under `epoch + 1` (strict re-admission, demotions
//!    journaled — exactly crash recovery's pass), and re-points the
//!    frontend at the promoted gateway. The zombie's late appends are then
//!    delivered to the still-alive follower and provably fenced.
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
use rtdls_sim::config::SimConfig;
use rtdls_sim::engine::{SimReport, Simulation};
use rtdls_sim::frontend::{Frontend, SubmitOutcome};
use rtdls_sim::net::{FaultPlan, FaultyLink, LinkStats};

use crate::follower::{Follower, FollowerConfig, FollowerStats, Promotion};
use crate::ship::{ShipConfig, ShipMsg, ShipStats, Shipper};

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

/// Which process currently answers for the shard.
pub enum Role<G: Recoverable> {
    /// The original primary is alive.
    Primary(JournaledGateway<G>),
    /// The primary is dead and the follower has not yet promoted: the
    /// outage window. Submissions are rejected, releases buffer.
    Down,
    /// The promoted follower answers.
    Promoted(JournaledGateway<G>),
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

/// A primary + channel + follower deployment driven as one [`Frontend`].
pub struct ReplicaFrontend<G: Recoverable> {
    plan: FailoverPlan,
    role: Role<G>,
    shipper: Shipper,
    /// Primary → follower frames and heartbeats.
    link: FaultyLink<ShipMsg>,
    /// Follower → primary acks.
    acks: FaultyLink<ShipMsg>,
    follower: Follower<G>,
    /// Node releases seen while Down, replayed at promotion.
    buffered_releases: Vec<(usize, SimTime)>,
    /// The dead primary's unacked tail, re-delivered post-promotion.
    zombie: Vec<ShipMsg>,
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
        let shipper = Shipper::new(plan.ship);
        let link = FaultyLink::new(plan.fault.clone());
        let acks = FaultyLink::new(plan.ack_fault.clone());
        let follower = Follower::new(plan.follower);
        ReplicaFrontend {
            plan,
            role: Role::Primary(primary),
            shipper,
            link,
            acks,
            follower,
            buffered_releases: Vec::new(),
            zombie: Vec::new(),
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

    /// One channel round at sim-time `now`: kill if due, ship, deliver
    /// frames to the follower, deliver acks back, promote if due. Called
    /// at the top of every timestamped frontend method, so the channel
    /// advances exactly as fast as the event clock.
    fn pump(&mut self, now: SimTime) {
        if matches!(self.role, Role::Primary(_)) && now >= self.plan.kill_at {
            self.kill(now);
        }
        self.ship(now);
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
            if let (Role::Primary(_), ShipMsg::Ack { seq }) = (&self.role, &msg) {
                self.shipper.on_ack(*seq, now);
            }
        }
        if matches!(self.role, Role::Down) && self.follower.should_promote(now) {
            self.promote(now);
        }
    }

    /// Ships whatever the journal owes the channel (primary phase only).
    fn ship(&mut self, now: SimTime) {
        if let Role::Primary(gw) = &self.role {
            for msg in self.shipper.poll(gw.journal(), now) {
                self.link.send(now, msg);
            }
        }
    }

    /// The primary process dies: drop its in-memory state, keep its
    /// journal bytes for forensics, and stash the unacked tail as the
    /// zombie — stamped with the dying epoch, exactly as a partitioned
    /// primary would later try to ship it.
    fn kill(&mut self, now: SimTime) {
        let dead = std::mem::replace(&mut self.role, Role::Down);
        if let Role::Primary(gw) = dead {
            self.primary_wal = gw.journal().bytes().to_vec();
            let epoch = gw.journal().epoch();
            let (start, frames) = gw.journal().frames_from(self.shipper.acked());
            self.zombie = frames
                .iter()
                .enumerate()
                .map(|(i, bytes)| ShipMsg::frame(epoch, start + i as u64, bytes.to_vec()))
                .collect();
            self.zombie_frames = self.zombie.len() as u64;
            self.killed_at = Some(now);
        }
    }

    /// Heartbeat silence exceeded the follower's timeout: promote.
    fn promote(&mut self, now: SimTime) {
        self.shipped_prefix = self.follower.bytes().to_vec();
        // Node releases that landed during the outage reach the standby
        // before the re-admission pass judges feasibility.
        if let Some(standby) = self.follower.standby_mut() {
            for &(node, time) in &self.buffered_releases {
                Frontend::set_node_release(standby, node, time);
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
        self.role = Role::Promoted(promoted);
    }

    /// Attaches a trace handle to the *primary process*: the primary
    /// gateway records its pipeline spans into it, and the shipper copies
    /// each frame's spans onto the wire. Models the head node's recorder —
    /// it dies with the kill.
    pub fn attach_primary_telemetry(&mut self, telemetry: &rtdls_telemetry::Telemetry) {
        if let Role::Primary(g) = &mut self.role {
            g.attach_telemetry(telemetry);
        }
        self.shipper.attach_telemetry(telemetry);
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
        match self.role {
            Role::Primary(g) | Role::Promoted(g) => Some(g),
            Role::Down => None,
        }
    }

    /// Which process currently answers for the shard.
    pub fn role(&self) -> &Role<G> {
        &self.role
    }

    /// The live gateway, if any (primary before the kill, promoted after).
    pub fn gateway(&self) -> Option<&JournaledGateway<G>> {
        match &self.role {
            Role::Primary(g) | Role::Promoted(g) => Some(g),
            Role::Down => None,
        }
    }

    /// The follower (post-promotion: the fence).
    pub fn follower(&self) -> &Follower<G> {
        &self.follower
    }

    /// The shipper (meaningful during the primary phase).
    pub fn shipper(&self) -> &Shipper {
        &self.shipper
    }

    /// The forensic record of the run so far.
    pub fn outcome(&self) -> FailoverOutcome {
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
            ship: self.shipper.stats(),
        }
    }
}

impl<G: Recoverable> Frontend for ReplicaFrontend<G> {
    fn submit_request(&mut self, request: &SubmitRequest, now: SimTime) -> SubmitOutcome {
        self.pump(now);
        let out = match &mut self.role {
            Role::Primary(g) => Frontend::submit_request(g, request, now),
            Role::Down => {
                self.lost_submissions += 1;
                SubmitOutcome::Rejected(Infeasible::NotEnoughNodes)
            }
            Role::Promoted(g) => Frontend::submit_request(g, request, now),
        };
        self.ship(now);
        out
    }

    fn replan(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        self.pump(now);
        let out = match &mut self.role {
            Role::Primary(g) => Frontend::replan(g, now),
            Role::Down => Ok(()),
            Role::Promoted(g) => Frontend::replan(g, now),
        };
        self.ship(now);
        out
    }

    fn take_due(&mut self, now: SimTime) -> Vec<(Task, TaskPlan)> {
        self.pump(now);
        let out = match &mut self.role {
            Role::Primary(g) => Frontend::take_due(g, now),
            Role::Down => Vec::new(),
            Role::Promoted(g) => Frontend::take_due(g, now),
        };
        self.ship(now);
        out
    }

    fn next_dispatch_due(&self) -> Option<SimTime> {
        match &self.role {
            Role::Primary(g) | Role::Promoted(g) => Frontend::next_dispatch_due(g),
            Role::Down => None,
        }
    }

    fn committed_release(&self, node: usize) -> SimTime {
        match &self.role {
            Role::Primary(g) | Role::Promoted(g) => Frontend::committed_release(g, node),
            Role::Down => SimTime::ZERO,
        }
    }

    fn set_node_release(&mut self, node: usize, time: SimTime) {
        self.pump(time);
        match &mut self.role {
            Role::Primary(g) => Frontend::set_node_release(g, node, time),
            // The worker node released; the head node isn't there to hear
            // it. Buffer for the promoted successor.
            Role::Down => self.buffered_releases.push((node, time)),
            Role::Promoted(g) => Frontend::set_node_release(g, node, time),
        }
        self.ship(time);
    }

    fn waiting_len(&self) -> usize {
        match &self.role {
            Role::Primary(g) | Role::Promoted(g) => Frontend::waiting_len(g),
            Role::Down => 0,
        }
    }

    fn find_plan(&self, task: TaskId) -> Option<&TaskPlan> {
        match &self.role {
            Role::Primary(g) | Role::Promoted(g) => Frontend::find_plan(g, task),
            Role::Down => None,
        }
    }

    fn on_event(&mut self, now: SimTime) {
        self.pump(now);
        match &mut self.role {
            Role::Primary(g) => Frontend::on_event(g, now),
            Role::Down => {}
            Role::Promoted(g) => Frontend::on_event(g, now),
        }
        self.ship(now);
    }

    fn activate(&mut self, now: SimTime) {
        self.pump(now);
        match &mut self.role {
            Role::Primary(g) => Frontend::activate(g, now),
            Role::Down => {}
            Role::Promoted(g) => Frontend::activate(g, now),
        }
        self.ship(now);
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        let mut candidates: Vec<SimTime> = Vec::new();
        match &self.role {
            Role::Primary(g) => {
                if let Some(w) = Frontend::next_wakeup(g) {
                    candidates.push(w);
                }
                // With a kill planned, the channel stays wakeup-driven:
                // heartbeats tick, the kill fires on time even in an idle
                // lull. The no-kill control arm lets the channel idle out
                // with the event queue instead of heartbeating forever.
                if self.plan.kill_at.as_f64().is_finite() {
                    candidates.push(self.plan.kill_at);
                    if let Some(hb) = self.shipper.next_heartbeat() {
                        candidates.push(hb);
                    }
                }
            }
            Role::Down => {
                if let Some(p) = self.follower.promote_at() {
                    candidates.push(p);
                }
            }
            Role::Promoted(g) => {
                if let Some(w) = Frontend::next_wakeup(g) {
                    candidates.push(w);
                }
            }
        }
        if let Some(d) = self.link.next_delivery() {
            candidates.push(d);
        }
        if let Some(d) = self.acks.next_delivery() {
            candidates.push(d);
        }
        candidates
            .into_iter()
            .min_by(|a, b| a.as_f64().total_cmp(&b.as_f64()))
    }

    fn drain_resolutions(&mut self) -> Vec<(Task, Option<Infeasible>)> {
        match &mut self.role {
            Role::Primary(g) | Role::Promoted(g) => Frontend::drain_resolutions(g),
            Role::Down => Vec::new(),
        }
    }

    fn finalize(&mut self, now: SimTime) {
        self.pump(now);
        match &mut self.role {
            Role::Primary(g) => Frontend::finalize(g, now),
            Role::Down => {}
            Role::Promoted(g) => Frontend::finalize(g, now),
        }
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
