//! # rtdls-world
//!
//! One deterministic crash world for the serving stack (a dev-dependency
//! only). A [`World`] is a [`Serve`] owning a head node — a
//! [`JournaledGateway`], or a [`ShippingGateway`] with a follower,
//! journaling in memory or through a [`FileSink`] on a [`Platter`] — and
//! an optional [`Follower`] behind two [`FaultyLink`]s. A [`Scenario`] is
//! data: when the head dies ([`Kill`]), how it comes back ([`Comeback`]),
//! the links and the configs; a power loss is armed on the model disk
//! itself ([`disk::Model::armed`]), and kills the head wherever it falls. The world asserts, in every scenario: after
//! every channel round, that the follower's mirror is a byte-prefix of
//! what the primary holds durably (its disk, else its WAL image;
//! non-compacting logs); at every restart or promotion, that the books
//! balance, every demotion is journaled and a promotion is a recovery of
//! the shipped prefix; at a restart, that it holds every submit of every
//! turn whose `drive` returned. A scenario replays bit-identically.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disk;
pub mod mem;
pub mod net;

use std::path::PathBuf;

use rtdls_core::prelude::{
    AdmissionFailure, AlgorithmKind, ClusterParams, Infeasible, PlanConfig, SimTime, SubmitRequest,
    TaskId, TaskPlan,
};
use rtdls_journal::disk::Std;
use rtdls_journal::wire::{decode_frames, RecordKind};
use rtdls_journal::{
    recover, recover_file_on, replay, requalify, FileSink, FsyncPolicy, GatewaySnapshot,
    JournalConfig, JournalEvent, JournaledGateway, RecoveryReport,
};
use rtdls_replica::prelude::{
    Follower, FollowerConfig, FollowerStats, Promotion, ShipConfig, ShipMsg, ShippingGateway,
};
use rtdls_replica::ship::ShipStats;
use rtdls_service::prelude::{DeferPolicy, EdgeGateway, Routing, ShardedGateway, Verdict};
use rtdls_sim::serve::{Resolution, Serve, Turn};
use rtdls_telemetry::Telemetry;

pub use disk::{until_power_loss, Platter};
pub use net::{FaultPlan, FaultyLink, LinkStats};

/// The head node most scenarios serve: `shards` shards of the paper's
/// baseline cluster under EDF-DLT, least-loaded routing, default policies.
pub fn baseline_gateway(shards: usize) -> ShardedGateway {
    let (params, algorithm) = (ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT);
    let (plan, routing) = (PlanConfig::default(), Routing::LeastLoaded);
    ShardedGateway::new(
        params,
        shards,
        algorithm,
        plan,
        routing,
        DeferPolicy::default(),
    )
    .expect("the baseline shards")
}

/// When the head node dies (at most once), short of a power loss.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kill {
    /// Never.
    Never,
    /// At the first call after its turn `n - 1` committed.
    BeforeTurn(u64),
    /// At the first call at or after an instant (kept due, with the
    /// primary's heartbeats).
    At(SimTime),
}

/// How the head node comes back. A restart ends replication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Comeback {
    /// It does not: later submissions are lost.
    Never,
    /// A restart at once from the WAL image it left in memory.
    Image,
    /// A restart at once from its rebooted disk (`recover_file_on`).
    Disk,
    /// The follower promotes on heartbeat silence; nobody follows it.
    Promote,
}

/// The follower's side of a scenario: its links and tunables.
#[derive(Clone, Debug, PartialEq)]
pub struct Follow {
    /// Primary → follower frames and heartbeats.
    pub link: FaultPlan,
    /// Follower → primary acks.
    pub acks: FaultPlan,
    /// Shipping cadence (heartbeats, retransmission).
    pub ship: ShipConfig,
    /// Failure-detector tunables.
    pub follower: FollowerConfig,
}

impl Follow {
    /// Clean links seeded from `seed` and `seed + 1`, default tunables.
    pub fn clean(seed: u64) -> Self {
        Follow {
            link: FaultPlan::clean(seed),
            acks: FaultPlan::clean(seed.wrapping_add(1)),
            ship: ShipConfig::default(),
            follower: FollowerConfig::default(),
        }
    }
}

/// Everything that goes wrong, and how the head comes back: one scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// When the head dies.
    pub kill: Kill,
    /// How it comes back.
    pub comeback: Comeback,
    /// The follower, if the head ships to one.
    pub follow: Option<Follow>,
    /// The journal config of the head and of whatever replaces it.
    pub journal: JournalConfig,
    /// The fsync policy of a head on a disk, and of a restart from it.
    pub fsync: FsyncPolicy,
}

impl Scenario {
    /// Nothing goes wrong: a lone head journaling under `journal`.
    pub fn new(journal: JournalConfig) -> Self {
        Scenario {
            kill: Kill::Never,
            comeback: Comeback::Never,
            follow: None,
            journal,
            fsync: FsyncPolicy::EveryAppend,
        }
    }

    /// Kills the head per `kill`, bringing it back per `comeback`.
    pub fn kill(mut self, kill: Kill, comeback: Comeback) -> Self {
        (self.kill, self.comeback) = (kill, comeback);
        self
    }

    /// The head ships to a follower per `follow`.
    pub fn follow(mut self, follow: Follow) -> Self {
        self.follow = Some(follow);
        self
    }

    /// Sets the fsync policy.
    pub fn fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }
}

/// The forensic record of a run, for assertions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    /// The power went before the head's genesis log was laid down.
    pub stillborn: bool,
    /// When the head died.
    pub killed_at: Option<SimTime>,
    /// When it restarted.
    pub restarted_at: Option<SimTime>,
    /// The restart's recovery report.
    pub recovery: Option<RecoveryReport>,
    /// When the follower promoted.
    pub promoted_at: Option<SimTime>,
    /// What the promotion produced.
    pub promotion: Option<Promotion>,
    /// The follower's mirror at the promotion.
    pub shipped_prefix: Vec<u8>,
    /// The promoted gateway's state after its re-admission pass.
    pub promoted_genesis: Option<GatewaySnapshot>,
    /// The dead head's WAL image, unshipped tail included.
    pub primary_wal: Vec<u8>,
    /// The dead primary's unacked frames, delivered after the promotion.
    pub zombie_frames: u64,
    /// Node releases heard while no head served.
    pub buffered_releases: Vec<(usize, SimTime)>,
    /// Submissions that found no head.
    pub lost_submissions: u64,
    /// Submissions a live head decided; a comeback voids those of the
    /// turn the head died in, which its successor never held.
    pub decided: u64,
    /// Of those, the ones in turns whose `drive` returned.
    pub acknowledged: u64,
    /// Follower counters.
    pub follower: FollowerStats,
    /// Frame-link accounting.
    pub link: LinkStats,
    /// Ack-link accounting.
    pub acks: LinkStats,
    /// The primary's shipping counters (frozen at its death).
    pub ship: ShipStats,
}

/// The process answering for the shard.
enum Head {
    Journaled(JournaledGateway),
    /// A primary shipping to the follower.
    Shipping(ShippingGateway),
}

impl Head {
    fn journaled(&self) -> &JournaledGateway {
        match self {
            Head::Journaled(gw) => gw,
            Head::Shipping(gw) => gw.inner(),
        }
    }

    fn serving_mut(&mut self) -> &mut dyn Serve<Outcome = Verdict> {
        match self {
            Head::Journaled(gw) => gw,
            Head::Shipping(gw) => gw,
        }
    }
}

/// The follower and its two links.
struct Channel {
    follower: Follower,
    link: FaultyLink<ShipMsg>,
    acks: FaultyLink<ShipMsg>,
}

/// A head node, its disk and its follower, served as one [`Serve`] under a
/// [`Scenario`] (see the crate docs).
pub struct World<D: Platter = Std> {
    scenario: Scenario,
    head: Option<Head>,
    /// The head's disk and log path; the rebooted copy after a restart.
    disk: Option<(D, PathBuf)>,
    channel: Option<Channel>,
    /// The dead primary's unacked tail, delivered after the promotion.
    zombie: Vec<ShipMsg>,
    /// Serving turns committed.
    turns: u64,
    /// Mirror length at the last prefix check that passed.
    checked: usize,
    record: Record,
}

impl World<Std> {
    /// `gateway` as the head node, journaling in memory.
    pub fn new(gateway: ShardedGateway, scenario: Scenario) -> Self {
        Self::build(gateway, scenario, None)
    }
}

impl<D: Platter> World<D> {
    /// `gateway` as the head node, journaling through a [`FileSink`] at
    /// `path` on `disk`.
    pub fn on_disk(
        gateway: ShardedGateway,
        scenario: Scenario,
        disk: D,
        path: impl Into<PathBuf>,
    ) -> Self {
        Self::build(gateway, scenario, Some((disk, path.into())))
    }

    fn build(gateway: ShardedGateway, scenario: Scenario, disk: Option<(D, PathBuf)>) -> Self {
        let (journal, fsync) = (scenario.journal, scenario.fsync);
        let journaled = until_power_loss(|| match &disk {
            Some((disk, path)) => {
                let sink = FileSink::open_on(disk.clone(), path, true)
                    .expect("the log opens")
                    .with_fsync_policy(fsync);
                JournaledGateway::with_sink(gateway, journal, Box::new(sink))
            }
            None => JournaledGateway::new(gateway, journal),
        });
        let head = journaled.map(|gw| match &scenario.follow {
            Some(follow) => Head::Shipping(ShippingGateway::new(gw, follow.ship)),
            None => Head::Journaled(gw),
        });
        let channel = scenario.follow.as_ref().map(|follow| Channel {
            follower: Follower::new(follow.follower),
            link: FaultyLink::new(follow.link.clone()),
            acks: FaultyLink::new(follow.acks.clone()),
        });
        let stillborn = head.is_none();
        World {
            scenario,
            disk,
            channel,
            zombie: Vec::new(),
            turns: 0,
            checked: 0,
            record: Record {
                stillborn,
                killed_at: stillborn.then_some(SimTime::ZERO),
                ..Record::default()
            },
            head,
        }
    }

    /// Attaches one recorder to the head's process (its spans ride the
    /// shipped frames; it dies with the head) and one to the follower's
    /// (replayed spans, the promotion fence; the promoted gateway inherits
    /// it).
    pub fn attach_telemetry(&mut self, head: &Telemetry, follower: &Telemetry) {
        match &mut self.head {
            Some(Head::Journaled(gw)) => gw.attach_telemetry(head),
            Some(Head::Shipping(gw)) => gw.attach_telemetry(head),
            None => {}
        }
        if let Some(channel) = &mut self.channel {
            channel.follower.attach_telemetry(follower);
        }
    }

    /// The live head's journaled gateway (the primary, restarted or
    /// promoted), if a head is up.
    pub fn gateway(&self) -> Option<&JournaledGateway> {
        self.head.as_ref().map(Head::journaled)
    }

    /// The live head, if it journals without shipping (restarted or
    /// promoted) — e.g. to serve it behind an edge server.
    pub fn into_gateway(self) -> Option<JournaledGateway> {
        match self.head {
            Some(Head::Journaled(gw)) => Some(gw),
            _ => None,
        }
    }

    /// The follower (after a promotion: the fence), while replication runs.
    pub fn follower(&self) -> Option<&Follower> {
        self.channel.as_ref().map(|c| &c.follower)
    }

    /// The record of the run so far.
    pub fn record(&self) -> Record {
        let mut record = self.record.clone();
        if let Some(channel) = &self.channel {
            record.follower = channel.follower.stats();
            record.link = channel.link.stats();
            record.acks = channel.acks.stats();
        }
        if let Some(Head::Shipping(gw)) = &self.head {
            record.ship = gw.shipper().stats();
        }
        record
    }

    /// Runs `call` on the live head; `None` if none is up or the power
    /// went in the call, which kills it.
    fn on_head<T>(&mut self, now: SimTime, call: impl FnOnce(&mut Head) -> T) -> Option<T> {
        let head = self.head.as_mut()?;
        let done = until_power_loss(|| call(head));
        if done.is_none() {
            self.kill(now);
        }
        done
    }

    /// The kill when due, a channel round at `now`, the comeback when due,
    /// and the mirror check: at the top of every call, and at the end of a
    /// turn.
    fn tick(&mut self, now: SimTime) {
        let due = match self.scenario.kill {
            Kill::BeforeTurn(n) => self.turns + 1 >= n,
            Kill::At(at) => now >= at,
            Kill::Never => false,
        };
        if due && self.head.is_some() && self.record.killed_at.is_none() {
            self.kill(now);
        }
        if let Some(channel) = &mut self.channel {
            if let Some(Head::Shipping(gw)) = &mut self.head {
                for msg in gw.take_outbox() {
                    channel.link.send(now, msg);
                }
            }
            for msg in channel.link.deliver_due(now) {
                let reply = channel.follower.on_msg(now, msg);
                if let Some(ack) = reply.expect("shipped frames decode cleanly") {
                    channel.acks.send(now, ack);
                }
            }
            for msg in channel.acks.deliver_due(now) {
                // Acks addressed to a dead primary die with it.
                if let (Some(Head::Shipping(gw)), ShipMsg::Ack { seq }) = (&mut self.head, msg) {
                    gw.on_ack(seq, now);
                }
            }
        }
        if self.head.is_none() {
            self.come_back(now);
        }
        self.check();
    }

    /// The head process dies: no destructor runs, what it had handed to its
    /// link is on the wire, and its unacked journal tail is kept as the
    /// zombie — stamped with the dying epoch, as a partitioned primary
    /// would later try to ship it.
    fn kill(&mut self, now: SimTime) {
        let mut dead = self.head.take().expect("only a live head dies");
        self.record.killed_at = Some(now);
        self.record.primary_wal = dead.journaled().journal().bytes().to_vec();
        if let (Head::Shipping(gw), Some(channel)) = (&mut dead, &mut self.channel) {
            for msg in gw.take_outbox() {
                channel.link.send(now, msg);
            }
            let journal = gw.inner().journal();
            let epoch = journal.epoch();
            let (start, frames) = journal.frames_from(gw.shipper().acked());
            self.zombie = frames
                .iter()
                .enumerate()
                .map(|(i, bytes)| ShipMsg::frame(epoch, start + i as u64, bytes.to_vec()))
                .collect();
            self.record.zombie_frames = self.zombie.len() as u64;
            self.record.ship = gw.shipper().stats();
        }
        std::mem::forget(dead);
    }

    /// The comeback, once due: a promotion waits for heartbeat silence; a
    /// restart is tried once, at the head's death.
    fn come_back(&mut self, now: SimTime) {
        let journal = self.scenario.journal;
        let comeback = self.scenario.comeback;
        if comeback == Comeback::Promote {
            return self.promote(now);
        }
        self.scenario.comeback = Comeback::Never;
        let recovered = match comeback {
            Comeback::Never | Comeback::Promote => return,
            Comeback::Image => recover(&self.record.primary_wal, now, journal, None),
            Comeback::Disk => {
                let (disk, path) = self.disk.as_mut().expect("a restart from disk needs one");
                *disk = disk.reboot();
                recover_file_on(disk.clone(), &*path, now, journal, self.scenario.fsync)
            }
        };
        let (mut gw, report) = match recovered {
            Ok(recovered) => recovered,
            // The power went before the genesis log was durable: nothing
            // to come back from, and nothing was acknowledged.
            Err(e) => return assert_eq!(self.record.acknowledged, 0, "recovery failed: {e}"),
        };
        if let Some((disk, path)) = &self.disk {
            // Recovery rewrote the log it read, durably, before it returned:
            // the file is the recovered journal, one compacted snapshot and
            // its demotions.
            let on_disk = FileSink::read_on(&disk.reboot(), path).expect("the rewritten log");
            assert_eq!(on_disk, gw.journal().bytes(), "the log is not the recovery");
            let (frames, tail) = decode_frames(&on_disk);
            let snapshots = frames.iter().filter(|f| f.kind == RecordKind::Snapshot);
            assert!(tail.is_clean() && snapshots.count() == 1, "one snapshot");
        }
        assert!(
            comeback == Comeback::Disk || report.tail.is_clean(),
            "an image has no torn tail"
        );
        audit_comeback(&gw, &report.demoted);
        let (held, acked) = (gw.metrics().submitted, self.record.acknowledged);
        assert!(
            held >= acked,
            "a restart holds {held} of {acked} acknowledged submits"
        );
        for &(node, at) in &self.record.buffered_releases {
            gw.node_released(node, at);
        }
        self.record.restarted_at = Some(now);
        self.record.recovery = Some(report);
        self.record.decided = self.record.acknowledged;
        self.head = Some(Head::Journaled(gw));
        self.channel = None;
    }

    /// Heartbeat silence exceeded the follower's timeout: promote, and
    /// hold the promoted state to a recovery of the shipped prefix.
    fn promote(&mut self, now: SimTime) {
        let Some(channel) = self
            .channel
            .as_mut()
            .filter(|c| c.follower.should_promote(now))
        else {
            return;
        };
        let prefix = channel.follower.bytes().to_vec();
        // Node releases that landed during the outage reach the standby
        // before the re-admission pass judges feasibility.
        let releases = &self.record.buffered_releases;
        if let Some(standby) = channel.follower.standby_mut() {
            for &(node, at) in releases {
                standby.node_released(node, at);
            }
        }
        let (promoted, promotion) = channel
            .follower
            .promote(now, self.scenario.journal, None)
            .expect("should_promote implies a standby exists");
        let (mut reference, replayed) =
            replay::<ShardedGateway>(&prefix).expect("the shipped prefix replays");
        assert!(replayed.tail.is_clean());
        for &(node, at) in releases {
            reference.node_released(node, at);
        }
        let (reference, demoted) =
            requalify(reference, now, self.scenario.journal, None, promotion.epoch);
        let genesis = GatewaySnapshot::capture(promoted.inner());
        assert_eq!(
            genesis,
            GatewaySnapshot::capture(reference.inner()),
            "the promoted state is not a recovery of the shipped prefix"
        );
        assert_eq!(promotion.demoted, demoted);
        audit_comeback(&promoted, &promotion.demoted);
        // The zombie wakes up and ships its tail. The still-alive follower
        // is the fence: every frame carries the dead epoch.
        for msg in std::mem::take(&mut self.zombie) {
            let _ = channel.follower.on_msg(now, msg);
        }
        self.record.shipped_prefix = prefix;
        self.record.promoted_genesis = Some(genesis);
        self.record.promotion = Some(promotion);
        self.record.promoted_at = Some(now);
        self.record.decided = self.record.acknowledged;
        self.head = Some(Head::Journaled(promoted));
    }

    /// The mirror is a byte-prefix of what the primary holds durably (a
    /// non-compacting log's durable bytes only grow, so a prefix that held
    /// holds until the mirror grows).
    fn check(&mut self) {
        let mirror = self
            .channel
            .as_ref()
            .map_or(&[][..], |c| c.follower.bytes());
        if self.scenario.journal.compact_on_snapshot || mirror.len() == self.checked {
            return;
        }
        let on_disk;
        let durable = match (&self.disk, &self.head) {
            (Some((disk, path)), _) => {
                on_disk = FileSink::read_on(&disk.reboot(), path).unwrap_or_default();
                &on_disk[..]
            }
            (None, Some(Head::Shipping(gw))) => gw.inner().journal().bytes(),
            (None, _) => &self.record.primary_wal[..],
        };
        assert!(
            durable.starts_with(mirror),
            "the follower holds {} bytes the primary never made durable ({} durable)",
            mirror.len(),
            durable.len()
        );
        self.checked = mirror.len();
    }
}

/// What a restart or a promotion owes: every demotion journaled in the new
/// log, and the books balanced (accepted + rejected + parked == submitted).
fn audit_comeback(gw: &JournaledGateway, demoted: &[TaskId]) {
    let (frames, _) = decode_frames(gw.journal().bytes());
    let journaled: Vec<TaskId> = frames
        .iter()
        .filter_map(|f| match serde_json::from_slice(f.payload) {
            Ok(JournalEvent::Demoted { task, .. }) => Some(TaskId(task)),
            _ => None,
        })
        .collect();
    assert_eq!(journaled, demoted, "demotions journaled");
    let m = gw.metrics();
    assert_eq!(m.demoted, demoted.len() as u64);
    let parked = m.deferred - (m.rescued + m.defer_evicted + m.defer_expired + m.defer_flushed);
    assert_eq!(parked as usize, gw.inner().deferred().len());
    assert_eq!(
        m.accepted_total() + m.rejected_total() + parked,
        m.submitted,
        "the books balance at the comeback"
    );
}

impl<D: Platter> Serve for World<D> {
    type Outcome = Verdict;

    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        self.tick(now);
        if self.head.is_some() {
            self.record.decided += 1;
        }
        let verdict = self.on_head(now, |head| head.serving_mut().decide(request, now));
        verdict.unwrap_or_else(|| {
            self.record.lost_submissions += 1;
            Verdict::rejected(Infeasible::NotEnoughNodes)
        })
    }

    /// The live head's turn — a primary's ships what it committed — then a
    /// channel round that carries it to the follower.
    fn drive_into(&mut self, now: SimTime, turn: &mut Turn) {
        self.tick(now);
        let mut driven = self.on_head(now, |head| head.serving_mut().drive_into(now, turn));
        if driven.is_none() {
            // Nothing of a turn whose commit never returned leaves; a head
            // that comes back at once runs the turn's timed work.
            *turn = Turn::default();
            self.tick(now);
            driven = self.on_head(now, |head| head.serving_mut().drive_into(now, turn));
        }
        if driven.is_some() {
            self.turns += 1;
            self.record.acknowledged = self.record.decided;
        }
        self.tick(now);
    }

    fn next_due(&self) -> Option<SimTime> {
        // With a kill timed, the channel stays due-driven: heartbeats
        // tick, and the kill fires on time even in an idle lull. Otherwise
        // the channel idles out with the event queue instead of
        // heartbeating forever.
        let kill = match (self.scenario.kill, &self.head) {
            (Kill::At(at), Some(_)) if self.record.killed_at.is_none() => Some(at),
            _ => None,
        };
        let heartbeat = match &self.head {
            Some(Head::Shipping(gw)) if kill.is_some() => gw.shipper().next_heartbeat(),
            _ => None,
        };
        let promote = match (&self.head, &self.channel) {
            (None, Some(channel)) if self.scenario.comeback == Comeback::Promote => {
                channel.follower.promote_at()
            }
            _ => None,
        };
        let links = self.channel.as_ref().map_or([None, None], |c| {
            [c.link.next_delivery(), c.acks.next_delivery()]
        });
        [
            self.head.as_ref().and_then(|h| h.journaled().next_due()),
            kill,
            heartbeat,
            promote,
        ]
        .into_iter()
        .chain(links)
        .flatten()
        .min()
    }

    fn finalize(&mut self, now: SimTime) -> Vec<Resolution> {
        self.tick(now);
        let resolved = self.on_head(now, |head| head.serving_mut().finalize(now));
        self.tick(now);
        resolved.unwrap_or_default()
    }

    fn replan_waiting(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        self.tick(now);
        let replanned = self.on_head(now, |head| head.serving_mut().replan_waiting(now));
        replanned.unwrap_or(Ok(()))
    }

    fn committed_release(&self, node: usize) -> SimTime {
        self.head
            .as_ref()
            .map_or(SimTime::ZERO, |h| h.journaled().committed_release(node))
    }

    fn node_released(&mut self, node: usize, at: SimTime) {
        self.tick(at);
        if self
            .on_head(at, |head| head.serving_mut().node_released(node, at))
            .is_none()
        {
            // The worker node released; no head heard it. Its successor will.
            self.record.buffered_releases.push((node, at));
        }
    }

    fn plan_of(&self, task: TaskId) -> Option<&TaskPlan> {
        self.head.as_ref().and_then(|h| h.journaled().plan_of(task))
    }
}
