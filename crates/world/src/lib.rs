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
//!
//! The head can also be an edge: [`World::edge`] runs N reactors, one
//! journaled head each, on one in-memory net ([`mem`]), turned by
//! [`World::poll`] or by [`World::run`] playing [`Client`]s; the same
//! kill and comeback apply to the whole edge, and the world audits the
//! wire after every turn (see the `edge` module).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disk;
mod edge;
pub mod mem;
pub mod net;

use std::path::PathBuf;

use rtdls_core::dlt::homogeneous;
use rtdls_core::prelude::{
    AdmissionFailure, AlgorithmKind, ClusterParams, Infeasible, PlanConfig, SimTime, SubmitRequest,
    Task, TaskId, TaskPlan, TenantId, TenantMix,
};
use rtdls_edge::prelude::{reactor_for_tenant, EdgeConfig, EdgeServer, EdgeStats};
use rtdls_journal::disk::Std;
use rtdls_journal::wire::{decode_frames, RecordKind};
use rtdls_journal::{
    recover, recover_file_on, replay, requalify, FileSink, FsyncPolicy, GatewaySnapshot,
    JournalConfig, JournalError, JournalEvent, JournaledGateway, RecoveryReport,
};
use rtdls_replica::prelude::{
    Follower, FollowerConfig, FollowerStats, Promotion, ShipConfig, ShipMsg, ShippingGateway,
};
use rtdls_replica::ship::ShipStats;
use rtdls_service::prelude::{
    DeferPolicy, EdgeGateway, Routing, ServiceMetrics, ShardedGateway, Verdict,
};
use rtdls_sim::serve::{Resolution, Serve, Turn};
use rtdls_telemetry::Telemetry;
use rtdls_workload::prelude::{IntoRequests, WorkloadGenerator, WorkloadSpec};

pub use disk::{until_power_loss, Platter};
pub use edge::{Client, Tally};
use edge::{Edge, Session};
use mem::{Mem, MemNet};
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

/// The reservation scenario's head: one EDF-OPR-MN shard of the baseline
/// cluster whose 16 nodes are all committed until `avail`.
pub fn saturated_until(avail: SimTime) -> ShardedGateway {
    let (params, algorithm) = (ClusterParams::paper_baseline(), AlgorithmKind::EDF_OPR_MN);
    let (plan, routing) = (PlanConfig::default(), Routing::LeastLoaded);
    let mut gateway =
        ShardedGateway::new(params, 1, algorithm, plan, routing, DeferPolicy::default())
            .expect("one shard");
    for node in 0..16 {
        gateway.node_released(node, avail);
    }
    gateway
}

/// Its two submits for `tenant`: an all-node blocker (task 1) that waits
/// for the nodes, and a small EDF-earlier candidate (task 2, tolerating
/// 2 000 s of delay) that can only book a reservation at the blocker's
/// dispatch, `avail`.
pub fn reservation(avail: SimTime, tenant: TenantId) -> [SubmitRequest; 2] {
    let p = ClusterParams::paper_baseline();
    let e16 = homogeneous::exec_time(&p, 800.0, 16);
    let slack = (homogeneous::exec_time(&p, 800.0, 15) - e16) * 0.75;
    let end = avail.as_f64() + e16;
    let candidate = SubmitRequest::new(Task::new(2, 0.0, 10.0, end + slack * 0.8));
    [
        SubmitRequest::new(Task::new(1, 0.0, 800.0, end + slack)).with_tenant(tenant),
        candidate.with_tenant(tenant).with_max_delay(Some(2000.0)),
    ]
}

/// On `baseline_gateway(1)`, two submits for `tenant` at instant 0: an
/// all-node task 1 that is accepted, and a near miss, task 2, that parks
/// as a defer ticket expiring at half the blocker's run (`e16 / 2`).
pub fn near_miss(tenant: TenantId) -> [SubmitRequest; 2] {
    let e16 = homogeneous::exec_time(&ClusterParams::paper_baseline(), 800.0, 16);
    [(1, 1.05), (2, 1.5)]
        .map(|(id, d)| SubmitRequest::new(Task::new(id, 0.0, 800.0, e16 * d)).with_tenant(tenant))
}

/// The first tenant homed on reactor `home` of an edge of `reactors`.
pub fn tenant_homed_at(home: usize, reactors: usize) -> TenantId {
    let homed = |t: &TenantId| reactor_for_tenant(*t, reactors) == home;
    (0..1024)
        .map(TenantId)
        .find(homed)
        .expect("a tenant for each home")
}

/// `n` requests of the paper's baseline workload at load 1.2 from `seed`,
/// spread over six tenants (one premium, two best-effort) — or all for
/// `tenant`, one client's traffic.
pub fn requests(n: usize, seed: u64, tenant: Option<TenantId>) -> Vec<SubmitRequest> {
    let mix = TenantMix {
        tenants: 6,
        premium_tenants: 1,
        best_effort_tenants: 2,
        max_delay_factor: None,
    };
    let stream = WorkloadGenerator::new(WorkloadSpec::paper_baseline(1.2), seed).take(n);
    let mut requests: Vec<SubmitRequest> = stream.with_tenants(mix).collect();
    if let Some(tenant) = tenant {
        requests.iter_mut().for_each(|r| r.tenant = tenant);
    }
    requests
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
    /// The verdicts an edge's connections carried, by their tenants' home
    /// reactor.
    pub wire: Vec<Tally>,
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
    /// The edge, when reactors serve the heads (one each) over the net.
    edge: Option<Edge>,
    /// The disk and the log paths (one a head); the rebooted copy after a
    /// restart.
    disk: Option<(D, Vec<PathBuf>)>,
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

    /// An edge of `gateways.len()` reactors on a fresh net, each serving
    /// its gateway as a head journaling in memory.
    pub fn edge(gateways: Vec<ShardedGateway>, scenario: Scenario, cfg: EdgeConfig) -> Self {
        Self::build_edge(gateways, scenario, cfg, None)
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
        Self::build(gateway, scenario, Some((disk, vec![path.into()])))
    }

    /// An edge of `gateways.len()` reactors on a fresh net, reactor `i`'s
    /// head journaling through a [`FileSink`] at `dir/reactor-i.wal` on
    /// `disk`.
    pub fn edge_on_disk(
        gateways: Vec<ShardedGateway>,
        scenario: Scenario,
        cfg: EdgeConfig,
        disk: D,
        dir: impl Into<PathBuf>,
    ) -> Self {
        let dir = dir.into();
        let logs = (0..gateways.len()).map(|i| dir.join(format!("reactor-{i}.wal")));
        Self::build_edge(gateways, scenario, cfg, Some((disk, logs.collect())))
    }

    fn build_edge(
        gateways: Vec<ShardedGateway>,
        scenario: Scenario,
        cfg: EdgeConfig,
        disk: Option<(D, Vec<PathBuf>)>,
    ) -> Self {
        assert!(scenario.follow.is_none(), "no follower behind an edge yet");
        let mut edge = Edge::new(gateways.len(), cfg);
        let heads = until_power_loss(|| {
            let heads = gateways.into_iter().enumerate();
            heads
                .map(|(i, g)| journaled(g, &scenario, &disk, i))
                .collect()
        });
        let stillborn = heads.is_none();
        if let Some(heads) = heads {
            edge.revive(heads);
        }
        Self::assemble(scenario, disk, None, Some(edge), stillborn)
    }

    fn build(gateway: ShardedGateway, scenario: Scenario, disk: Option<(D, Vec<PathBuf>)>) -> Self {
        let journaled = until_power_loss(|| journaled(gateway, &scenario, &disk, 0));
        let head = journaled.map(|gw| match &scenario.follow {
            Some(follow) => Head::Shipping(ShippingGateway::new(gw, follow.ship)),
            None => Head::Journaled(gw),
        });
        let stillborn = head.is_none();
        Self::assemble(scenario, disk, head, None, stillborn)
    }

    fn assemble(
        scenario: Scenario,
        disk: Option<(D, Vec<PathBuf>)>,
        head: Option<Head>,
        edge: Option<Edge>,
        stillborn: bool,
    ) -> Self {
        let channel = scenario.follow.as_ref().map(|follow| Channel {
            follower: Follower::new(follow.follower),
            link: FaultyLink::new(follow.link.clone()),
            acks: FaultyLink::new(follow.acks.clone()),
        });
        World {
            scenario,
            head,
            edge,
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
    pub fn into_gateway(mut self) -> Option<JournaledGateway> {
        match self.head.take() {
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
        if let Some(edge) = &self.edge {
            record.wire = edge.tally.clone();
        }
        record
    }

    /// Whether a head serves: the lone one, or the edge's reactors.
    fn up(&self) -> bool {
        self.head.is_some() || self.edge.as_ref().is_some_and(|e| !e.reactors.is_empty())
    }

    fn edge_mut(&mut self) -> &mut Edge {
        self.edge.as_mut().expect("a world with an edge")
    }

    /// The edge's reactors, in reactor order (none while it is down).
    pub fn reactors(&self) -> &[EdgeServer<JournaledGateway, Mem>] {
        &self.edge.as_ref().expect("a world with an edge").reactors
    }

    /// The reactors' books, in reactor order.
    pub fn books(&self) -> Vec<&ServiceMetrics> {
        self.reactors()
            .iter()
            .map(|r| r.gateway().metrics())
            .collect()
    }

    /// The submits each reactor's book holds, in reactor order.
    pub fn submitted(&self) -> Vec<u64> {
        self.books().iter().map(|m| m.submitted).collect()
    }

    /// The reactors' counters, in reactor order.
    pub fn stats(&self) -> Vec<EdgeStats> {
        self.reactors().iter().map(|r| *r.stats()).collect()
    }

    /// The edge's reactors, to attach telemetry or a follower link.
    pub fn reactors_mut(&mut self) -> &mut [EdgeServer<JournaledGateway, Mem>] {
        &mut self.edge_mut().reactors
    }

    /// The net clients connect through.
    pub fn net(&self) -> &MemNet {
        &self.edge.as_ref().expect("a world with an edge").net
    }

    /// One turn of the edge at `now`: the kill when due, every reactor's
    /// turn in reactor order (a power loss in one kills the whole edge),
    /// the comeback when due, and the audit of the wire (see the crate
    /// docs). On a disk, each reactor's log as a reboot finds it is then
    /// its journal: nothing a turn acknowledged is still volatile.
    pub fn poll(&mut self, now: SimTime) {
        self.tick(now);
        let edge = self.edge_mut();
        let mut dead = false;
        for (r, reactor) in edge.reactors.iter_mut().enumerate() {
            dead = until_power_loss(|| reactor.poll(now)).is_none();
            if dead {
                break;
            }
            edge.acked[r] = reactor.gateway().metrics().submitted;
        }
        if dead {
            self.kill(now);
            self.tick(now);
        } else if self.up() {
            self.turns += 1;
        }
        if let (Some((disk, logs)), Some(edge)) = (&self.disk, &self.edge) {
            let disk = disk.reboot();
            for (reactor, log) in edge.reactors.iter().zip(logs) {
                let on_disk = FileSink::read_on(&disk, log).expect("a live reactor's log");
                assert_eq!(on_disk, reactor.gateway().journal().bytes(), "{log:?} lags");
            }
        }
        self.edge_mut().audit();
    }

    /// Plays `clients` against the edge at the world's clock until each has
    /// every request answered (or gave up, or the edge is gone for good).
    /// The clock moves to the next instant a client or a reactor has
    /// something to do, and stays while a client awaits a verdict.
    pub fn run(&mut self, clients: Vec<Client>) {
        let mut sessions: Vec<Session> = clients.into_iter().map(Session::new).collect();
        let (mut now, mut idle) = (SimTime::ZERO, 0);
        loop {
            let up = self.up();
            for session in &mut sessions {
                session.act(self.net(), up, now);
            }
            self.poll(now);
            sessions.iter_mut().for_each(Session::read);
            let gone = !self.up() && self.scenario.comeback == Comeback::Never;
            let kill = match self.scenario.kill {
                Kill::At(at) if self.record.killed_at.is_none() => Some(at),
                _ => None,
            };
            let clients = sessions.iter().filter_map(|s| s.due(now)).min();
            let Some(next) = clients.filter(|_| !gone) else {
                break;
            };
            let next = [Some(next), kill, self.edge_mut().next_due()];
            let next = next.into_iter().flatten().min().unwrap().max(now);
            idle = if next == now { idle + 1 } else { 0 };
            assert!(idle < 100_000, "the edge stalled at {now:?}");
            now = next;
        }
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
        if due && self.up() && self.record.killed_at.is_none() {
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
        if !self.up() {
            self.come_back(now);
        }
        self.check();
    }

    /// The head process dies: no destructor runs, what it had handed to its
    /// link is on the wire, and its unacked journal tail is kept as the
    /// zombie — stamped with the dying epoch, as a partitioned primary
    /// would later try to ship it.
    fn kill(&mut self, now: SimTime) {
        self.record.killed_at = Some(now);
        if let Some(edge) = &mut self.edge {
            return edge.kill();
        }
        let mut dead = self.head.take().expect("only a live head dies");
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
    /// restart is tried once, at the head's death, of every head (the
    /// edge's, one a reactor).
    fn come_back(&mut self, now: SimTime) {
        let comeback = self.scenario.comeback;
        if comeback == Comeback::Promote {
            return self.promote(now);
        }
        self.scenario.comeback = Comeback::Never;
        if comeback == Comeback::Never {
            return;
        }
        if let Some((disk, _)) = self.disk.as_mut().filter(|_| comeback == Comeback::Disk) {
            *disk = disk.reboot();
        }
        let (images, acked) = match &self.edge {
            Some(edge) => (edge.images.clone(), edge.acked.clone()),
            None => (
                vec![self.record.primary_wal.clone()],
                vec![self.record.acknowledged],
            ),
        };
        let mut heads = Vec::new();
        for (i, image) in images.iter().enumerate() {
            match self.restart(comeback, image, i, acked[i], now) {
                Ok((gw, report)) => heads.push((gw, report)),
                // The power went before a genesis log was durable: nothing
                // to come back from, and nothing was acknowledged.
                Err(e) => return assert_eq!(acked.iter().sum::<u64>(), 0, "recovery failed: {e}"),
            }
        }
        self.record.restarted_at = Some(now);
        self.record.recovery = heads.first().map(|(_, report)| report.clone());
        self.record.decided = self.record.acknowledged;
        let mut heads = heads.into_iter().map(|(gw, _)| gw);
        if let Some(edge) = &mut self.edge {
            edge.revive(heads.collect());
            return edge.audit();
        }
        let mut gw = heads.next().expect("one head");
        for &(node, at) in &self.record.buffered_releases {
            gw.node_released(node, at);
        }
        self.head = Some(Head::Journaled(gw));
        self.channel = None;
    }

    /// Head `i`'s restart, from its WAL image or from its log on the
    /// rebooted disk, held to what a restart owes: a recovery from the disk
    /// rewrote the log it read, durably, before it returned; the books and
    /// demotions pass [`audit_comeback`]; and it holds every one of the
    /// `acked` submits of turns whose drive returned.
    fn restart(
        &self,
        comeback: Comeback,
        image: &[u8],
        i: usize,
        acked: u64,
        now: SimTime,
    ) -> Result<(JournaledGateway, RecoveryReport), JournalError> {
        let (journal, fsync) = (self.scenario.journal, self.scenario.fsync);
        let (gw, report) = match (&self.disk, comeback) {
            (Some((disk, logs)), Comeback::Disk) => {
                let recovered = recover_file_on(disk.clone(), &logs[i], now, journal, fsync)?;
                // The file is the recovered journal: one compacted
                // snapshot and its demotions.
                let on_disk = FileSink::read_on(&disk.reboot(), &logs[i]).expect("the log");
                assert_eq!(
                    on_disk,
                    recovered.0.journal().bytes(),
                    "the log is not the recovery"
                );
                let (frames, tail) = decode_frames(&on_disk);
                let snapshots = frames.iter().filter(|f| f.kind == RecordKind::Snapshot);
                assert!(tail.is_clean() && snapshots.count() == 1, "one snapshot");
                recovered
            }
            (None, Comeback::Disk) => panic!("a restart from disk needs one"),
            _ => {
                let recovered = recover(image, now, journal, None)?;
                assert!(recovered.1.tail.is_clean(), "an image has no torn tail");
                recovered
            }
        };
        audit_comeback(&gw, &report.demoted);
        let held = gw.metrics().submitted;
        assert!(
            held >= acked,
            "a restart holds {held} of {acked} acknowledged submits"
        );
        Ok((gw, report))
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
            (Some((disk, logs)), _) => {
                on_disk = FileSink::read_on(&disk.reboot(), &logs[0]).unwrap_or_default();
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

/// `gateway` as a head journaling under `scenario`: through a [`FileSink`]
/// at log `i` on the disk, or in memory.
fn journaled<D: Platter>(
    gateway: ShardedGateway,
    scenario: &Scenario,
    disk: &Option<(D, Vec<PathBuf>)>,
    i: usize,
) -> JournaledGateway {
    let Some((disk, logs)) = disk else {
        return JournaledGateway::new(gateway, scenario.journal);
    };
    let sink = FileSink::open_on(disk.clone(), &logs[i], true).expect("the log opens");
    let sink = Box::new(sink.with_fsync_policy(scenario.fsync));
    JournaledGateway::with_sink(gateway, scenario.journal, sink)
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

/// The end of a world with an edge, scripted or played by
/// [`World::run`]: the wire audited to its last byte, then each book
/// reconciled with the wire (see the `edge` module). A test that already
/// failed is not failed again.
impl<D: Platter> Drop for World<D> {
    fn drop(&mut self) {
        if let Some(edge) = self.edge.as_mut().filter(|_| !std::thread::panicking()) {
            edge.audit();
            edge.reconcile();
        }
    }
}

/// An [`InlineClient`](mem::InlineClient) turns a world's edge: each turn
/// is [`World::poll`], audit included.
impl<D: Platter> mem::Edge for World<D> {
    fn poll(&mut self, now: SimTime) {
        World::poll(self, now)
    }
}
