//! # rtdls-world
//!
//! One deterministic crash world for the serving stack (a dev-dependency
//! only). A [`World`] is a [`Serve`] owning a head node — a
//! [`JournaledGateway`], journaling in memory or through a [`FileSink`] on
//! a [`Platter`], and shipping when the scenario has a [`Follower`] — on
//! one in-memory net ([`mem`]), where the follower sits behind a
//! [`MemNet::link`] whose two directions fail per their [`FaultPlan`]s. A
//! [`Scenario`] is data: when the head dies ([`Kill`]), how it comes back
//! ([`Comeback`]), the links and the configs; a power loss is armed on the
//! model disk itself ([`disk::Model::armed`]), and kills the head wherever
//! it falls. The world asserts, in every scenario: after every channel
//! round, that each follower's mirror is a byte-prefix of what its primary
//! holds durably (its disk, else its WAL image; non-compacting logs); at
//! every restart or promotion, that the books balance, every demotion is
//! journaled and a promotion is a recovery of the shipped prefix; at a
//! restart, that it holds every submit of every turn whose `drive`
//! returned. A scenario replays bit-identically.
//!
//! The head can also be an edge: [`World::edge`] runs N reactors, one
//! journaled head each (and one follower each, on its reactor's link), on
//! the same net, turned by [`World::poll`] or by [`World::run`] playing
//! [`Client`]s; the same kill and comeback apply to the whole edge, and
//! the world audits the wire after every turn (see the `edge` module).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disk;
mod edge;
pub mod mem;

use std::borrow::Cow;
use std::io::{Read, Write};
use std::path::PathBuf;

use rtdls_core::dlt::homogeneous;
use rtdls_core::prelude::{
    AdmissionFailure, AlgorithmKind, ClusterParams, Infeasible, PlanConfig, SimTime, SubmitRequest,
    Task, TaskId, TaskPlan, TenantId, TenantMix,
};
use rtdls_edge::prelude::{reactor_for_tenant, EdgeConfig, EdgeServer, EdgeStats};
use rtdls_journal::disk::Std;
use rtdls_journal::ship::{decode_msg, encode_msg, ShipStats};
use rtdls_journal::wire::{decode_frames, RecordKind};
use rtdls_journal::{
    recover, recover_file_on, replay, requalify, FileSink, FsyncPolicy, GatewaySnapshot,
    JournalConfig, JournalError, JournalEvent, JournaledGateway, RecoveryReport, ShipConfig,
    ShipMsg,
};
use rtdls_replica::{Follower, FollowerConfig, FollowerStats, Promotion};
use rtdls_service::prelude::{
    DeferPolicy, EdgeGateway, Routing, ServiceMetrics, ShardedGateway, Verdict,
};
use rtdls_sim::serve::{Resolution, Serve, Turn};
use rtdls_telemetry::Telemetry;
use rtdls_workload::prelude::{IntoRequests, WorkloadGenerator, WorkloadSpec};

pub use disk::{until_power_loss, Platter};
pub use edge::{Client, Tally};
use edge::{Edge, Session};
use mem::{ClientEnd, Mem, MemClient, MemNet, MemStream};
pub use mem::{FaultPlan, LinkStats};

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

/// How the head node (the lone one, or every reactor of an edge) comes
/// back. A restart ends replication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Comeback {
    /// It does not: later submissions are lost.
    Never,
    /// A restart at once from the WAL image it left in memory.
    Image,
    /// A restart at once from its rebooted disk (`recover_file_on`).
    Disk,
    /// The followers promote on heartbeat silence (an edge's, each its
    /// reactor's, once every one may); nobody follows them.
    Promote,
}

/// The follower's side of a scenario (one follower a head): its link's
/// two directions and its tunables.
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
    /// The follower, if the head ships to one (each reactor of an edge to
    /// its own).
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

/// The forensic record of a run, for assertions. Of an edge's followers
/// and primaries, the first reactor's.
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
    /// What the link did toward the follower.
    pub link: LinkStats,
    /// What it did to the acks.
    pub acks: LinkStats,
    /// The primary's shipping counters (frozen at its death).
    pub ship: ShipStats,
    /// The verdicts an edge's connections carried, by their tenants' home
    /// reactor.
    pub wire: Vec<Tally>,
}

/// A follower on the standby's end of its head's link.
struct Channel {
    follower: Follower,
    end: MemClient,
    /// Bytes read off the link that are not a whole message yet.
    read: Vec<u8>,
    /// The dead primary's unacked tail, delivered after the promotion.
    zombie: Vec<ShipMsg>,
    /// Mirror length at the last prefix check that passed.
    checked: usize,
}

impl Channel {
    /// The follower applies what the link delivered and acks it, in one
    /// write.
    fn hear(&mut self, now: SimTime) {
        self.end.receive(&mut self.read);
        let (mut used, mut acks) = (0, Vec::new());
        while let Some((msg, len)) = decode_msg(&self.read[used..]).expect("whole messages") {
            used += len;
            let reply = self.follower.on_msg(now, msg);
            if let Some(ack) = reply.expect("shipped frames decode cleanly") {
                encode_msg(&ack, &mut acks);
            }
        }
        self.read.drain(..used);
        if !acks.is_empty() {
            self.end.send(&acks);
        }
    }

    /// Promotes the standby (the outage's node releases reach it before
    /// the re-admission pass judges feasibility) and holds it to a
    /// recovery of the shipped prefix; then the zombie wakes up and ships
    /// its tail into the still-alive follower, the fence. The promoted
    /// head and the prefix.
    fn promote(
        &mut self,
        now: SimTime,
        releases: &[(usize, SimTime)],
        journal: JournalConfig,
    ) -> (JournaledGateway, Promotion, Vec<u8>) {
        let prefix = self.follower.bytes().to_vec();
        let standby = self
            .follower
            .standby_mut()
            .expect("a follower that may promote");
        let mut reference = replay::<ShardedGateway>(&prefix).expect("the shipped prefix replays");
        assert!(reference.1.tail.is_clean());
        for &(node, at) in releases {
            standby.node_released(node, at);
            reference.0.node_released(node, at);
        }
        let (promoted, promotion) = (self.follower.promote(now, journal, None))
            .expect("should_promote implies a standby exists");
        let (reference, demoted) = requalify(reference.0, now, journal, None, promotion.epoch);
        assert_eq!(
            GatewaySnapshot::capture(promoted.inner()),
            GatewaySnapshot::capture(reference.inner()),
            "the promoted state is not a recovery of the shipped prefix"
        );
        assert_eq!(promotion.demoted, demoted);
        audit_comeback(&promoted, &promotion.demoted);
        for msg in std::mem::take(&mut self.zombie) {
            let _ = self.follower.on_msg(now, msg);
        }
        (promoted, promotion, prefix)
    }
}

/// A head node (or an edge of them), its disk and its followers, served as
/// one [`Serve`] under a [`Scenario`] (see the crate docs).
pub struct World<D: Platter = Std> {
    scenario: Scenario,
    /// The lone head, when no edge serves.
    head: Option<JournaledGateway>,
    /// The edge, when reactors serve the heads (one each) over the net.
    edge: Option<Edge>,
    net: MemNet,
    /// The disk and the log paths (one a head); the rebooted copy after a
    /// restart.
    disk: Option<(D, Vec<PathBuf>)>,
    /// The lone head's end of its follower link, and the acks it read.
    link: Option<(MemStream, Vec<u8>)>,
    /// One a head, while replication runs.
    channels: Vec<Channel>,
    /// The dead heads' WAL images.
    images: Vec<Vec<u8>>,
    /// Serving turns committed.
    turns: u64,
    record: Record,
}

impl World<Std> {
    /// `gateway` as the head node, journaling in memory.
    pub fn new(gateway: ShardedGateway, scenario: Scenario) -> Self {
        Self::build(vec![gateway], scenario, None, None)
    }

    /// An edge of `gateways.len()` reactors on a fresh net, each serving
    /// its gateway as a head journaling in memory.
    pub fn edge(gateways: Vec<ShardedGateway>, scenario: Scenario, cfg: EdgeConfig) -> Self {
        Self::build(gateways, scenario, Some(cfg), None)
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
        Self::build(
            vec![gateway],
            scenario,
            None,
            Some((disk, vec![path.into()])),
        )
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
        Self::build(gateways, scenario, Some(cfg), Some((disk, logs.collect())))
    }

    /// The heads over `gateways` — shipping, each on its own link, when the
    /// scenario has a follower — lone or behind an edge.
    fn build(
        gateways: Vec<ShardedGateway>,
        scenario: Scenario,
        edge: Option<EdgeConfig>,
        disk: Option<(D, Vec<PathBuf>)>,
    ) -> Self {
        let n = gateways.len();
        let heads = until_power_loss(|| {
            let heads = gateways.into_iter().enumerate();
            let heads = heads.map(|(i, g)| journaled(g, &scenario, &disk, i));
            heads.collect::<Vec<_>>()
        });
        let net = MemNet::default();
        let mut world = World {
            edge: edge.map(|cfg| Edge::new(n, cfg, net.clone())),
            head: None,
            net,
            disk,
            link: None,
            channels: Vec::new(),
            images: vec![Vec::new(); n],
            turns: 0,
            record: Record {
                stillborn: heads.is_none(),
                killed_at: heads.is_none().then_some(SimTime::ZERO),
                ..Record::default()
            },
            scenario,
        };
        let Some(mut heads) = heads else {
            return world;
        };
        let mut ends = Vec::new();
        if let Some(follow) = world.scenario.follow.clone() {
            for head in &mut heads {
                head.start_shipping(follow.ship);
                let (primary, standby) = world.net.link(follow.link.clone(), follow.acks.clone());
                world.channels.push(Channel {
                    follower: Follower::new(follow.follower),
                    end: standby,
                    read: Vec::new(),
                    zombie: Vec::new(),
                    checked: 0,
                });
                ends.push(primary);
            }
        }
        world.revive(heads);
        for (i, end) in ends.into_iter().enumerate() {
            match &mut world.edge {
                Some(edge) => edge.reactors[i].follow(end).expect("the link registers"),
                None => world.link = Some((end, Vec::new())),
            }
        }
        world
    }

    /// Attaches one recorder to the heads' process (its spans ride the
    /// shipped frames; it dies with the heads) and one to the followers'
    /// (replayed spans, the promotion fence; a promoted gateway inherits
    /// it).
    pub fn attach_telemetry(&mut self, head: &Telemetry, follower: &Telemetry) {
        if let Some(gw) = &mut self.head {
            gw.attach_telemetry(head);
        }
        for reactor in self.reactors_mut() {
            reactor.set_telemetry(head);
        }
        for channel in &mut self.channels {
            channel.follower.attach_telemetry(follower);
        }
    }

    /// The live lone head's journaled gateway (the primary, restarted or
    /// promoted), if it is up.
    pub fn gateway(&self) -> Option<&JournaledGateway> {
        self.head.as_ref()
    }

    /// The first follower (after a promotion: the fence), while
    /// replication runs.
    pub fn follower(&self) -> Option<&Follower> {
        self.channels.first().map(|c| &c.follower)
    }

    /// The record of the run so far.
    pub fn record(&self) -> Record {
        let mut record = self.record.clone();
        if let Some(channel) = self.channels.first() {
            record.follower = channel.follower.stats();
            (record.link, record.acks) = channel.end.link_stats();
        }
        if let Some(shipper) = self.heads().first().and_then(|gw| gw.shipper()) {
            record.ship = shipper.stats();
        }
        if let Some(edge) = &self.edge {
            record.wire = edge.tally.clone();
        }
        record
    }

    /// The live heads: the lone one, or the edge's, in reactor order.
    fn heads(&self) -> Vec<&JournaledGateway> {
        match &self.edge {
            Some(edge) => edge.reactors.iter().map(|r| r.gateway()).collect(),
            None => self.head.iter().collect(),
        }
    }

    /// Whether a head serves: the lone one, or the edge's reactors.
    fn up(&self) -> bool {
        self.head.is_some() || !self.reactors().is_empty()
    }

    /// The edge's reactors, in reactor order (none while it is down, or
    /// without an edge).
    pub fn reactors(&self) -> &[EdgeServer<JournaledGateway, Mem>] {
        self.edge.as_ref().map_or(&[], |e| &e.reactors)
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

    /// The edge's reactors, to attach telemetry or another follower link.
    pub fn reactors_mut(&mut self) -> &mut [EdgeServer<JournaledGateway, Mem>] {
        self.edge.as_mut().map_or(&mut [], |e| &mut e.reactors)
    }

    /// The net clients connect through and the follower links run on.
    pub fn net(&self) -> &MemNet {
        &self.net
    }

    /// One turn of the edge at `now`: the kill when due, every reactor's
    /// turn in reactor order (a power loss in one kills the whole edge),
    /// the comeback when due, and the audit of the wire (see the crate
    /// docs). On a disk, each reactor's log as a reboot finds it is then
    /// its journal: nothing a turn acknowledged is still volatile.
    pub fn poll(&mut self, now: SimTime) {
        self.tick(now);
        let Some(edge) = &mut self.edge else {
            return;
        };
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
        if let Some((disk, logs)) = &self.disk {
            let disk = disk.reboot();
            for (reactor, log) in self.reactors().iter().zip(logs) {
                let on_disk = FileSink::read_on(&disk, log).expect("a live reactor's log");
                assert_eq!(on_disk, reactor.gateway().journal().bytes(), "{log:?} lags");
            }
        }
        if let Some(edge) = &mut self.edge {
            edge.audit();
        }
    }

    /// Plays `clients` against the edge at the world's clock until each has
    /// every request answered (or gave up, or the edge is gone for good).
    /// The clock moves to the next instant a client (while the edge is up),
    /// a reactor, a link or the comeback has something to do, and stays
    /// while a client awaits a verdict.
    pub fn run(&mut self, clients: Vec<Client>) {
        let mut sessions: Vec<Session> = clients.into_iter().map(Session::new).collect();
        let (mut now, mut idle) = (SimTime::ZERO, 0);
        loop {
            let up = self.up();
            for session in &mut sessions {
                session.act(&self.net, up, now);
            }
            self.poll(now);
            sessions.iter_mut().for_each(Session::read);
            let gone = !self.up() && self.scenario.comeback == Comeback::Never;
            let clients = sessions.iter().filter_map(|s| s.due(now)).min();
            if clients.is_none() || gone {
                break;
            }
            let next = [clients.filter(|_| self.up()), self.due()];
            let Some(next) = next.into_iter().flatten().min() else {
                break;
            };
            let next = next.max(now);
            idle = if next == now { idle + 1 } else { 0 };
            assert!(idle < 100_000, "the edge stalled at {now:?}");
            now = next;
        }
    }

    /// The next instant the world has work: the heads' timed work (a lone
    /// head's heartbeats only with a kill timed, so an idle channel runs
    /// out with the event queue), the kill, the comeback's promotion, and
    /// the links' deliveries.
    fn due(&self) -> Option<SimTime> {
        let kill = match self.scenario.kill {
            Kill::At(at) if self.up() && self.record.killed_at.is_none() => Some(at),
            _ => None,
        };
        let heads = match (&self.head, &self.edge) {
            (Some(gw), _) if kill.is_none() => gw.inner().next_due(),
            (Some(gw), _) => gw.next_due(),
            (None, Some(edge)) => edge.next_due(),
            (None, None) => None,
        };
        let promote = match self.scenario.comeback {
            Comeback::Promote if !self.up() => {
                let at = self.channels.iter().map(|c| c.follower.promote_at());
                at.collect::<Option<Vec<_>>>()
                    .and_then(|at| at.into_iter().max())
            }
            _ => None,
        };
        [heads, kill, promote, self.net.next_delivery()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Runs `call` on the live lone head; `None` if none is up or the
    /// power went in the call, which kills it.
    fn on_head<T>(
        &mut self,
        now: SimTime,
        call: impl FnOnce(&mut JournaledGateway) -> T,
    ) -> Option<T> {
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
        self.net.release(now);
        self.swap(now);
        for channel in &mut self.channels {
            channel.hear(now);
        }
        self.swap(now);
        if !self.up() {
            self.come_back(now);
        }
        self.check();
    }

    /// The lone head's side of its link, as a reactor's ship step does it
    /// (an edge's reactors swap their own): the acks that arrived for the
    /// shipped frames, in one write.
    fn swap(&mut self, now: SimTime) {
        let (Some(gw), Some((end, acks))) = (&mut self.head, &mut self.link) else {
            return;
        };
        let _ = end.read_to_end(acks);
        let mut frames = Vec::new();
        let used = gw.swap_ship_bytes(now, acks, &mut frames);
        acks.drain(..used.expect("the follower sends acks"));
        if !frames.is_empty() {
            end.write_all(&frames)
                .expect("the follower reads every round");
        }
    }

    /// The heads die: no destructor runs, what they wrote to their links
    /// (a lone head's outbox included) is on the wire, and each primary's
    /// unacked journal tail is kept as its zombie — stamped with the dying
    /// epoch, as a partitioned primary would later try to ship it.
    fn kill(&mut self, now: SimTime) {
        self.record.killed_at = Some(now);
        let heads = self.heads();
        let images: Vec<Vec<u8>> = heads
            .iter()
            .map(|gw| gw.journal().bytes().to_vec())
            .collect();
        let zombies: Vec<Vec<ShipMsg>> = heads.iter().map(|gw| zombie(gw)).collect();
        if let Some(shipper) = heads.first().and_then(|gw| gw.shipper()) {
            self.record.ship = shipper.stats();
        }
        for (channel, zombie) in self.channels.iter_mut().zip(zombies) {
            self.record.zombie_frames += zombie.len() as u64;
            channel.zombie = zombie;
        }
        self.record.primary_wal = images[0].clone();
        self.images = images;
        match &mut self.edge {
            Some(edge) => edge.kill(),
            None => {
                // The outbox counts as written: a primary that shipped
                // before its commit is caught by the mirror check.
                self.swap(now);
                std::mem::forget(self.head.take());
                self.link = None;
            }
        }
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
        let acked = match &self.edge {
            Some(edge) => edge.acked.clone(),
            None => vec![self.record.acknowledged],
        };
        let mut heads = Vec::new();
        for (i, image) in self.images.iter().enumerate() {
            match self.restart(comeback, image, i, acked[i], now) {
                Ok(head) => heads.push(head),
                // The power went before a genesis log was durable: nothing
                // to come back from, and nothing was acknowledged.
                Err(e) => return assert_eq!(acked.iter().sum::<u64>(), 0, "recovery failed: {e}"),
            }
        }
        self.record.restarted_at = Some(now);
        self.record.recovery = heads.first().map(|(_, report)| report.clone());
        self.record.decided = self.record.acknowledged;
        let mut heads: Vec<_> = heads.into_iter().map(|(gw, _)| gw).collect();
        // The node releases no head heard (only a lone head hears any).
        for &(node, at) in &self.record.buffered_releases {
            heads[0].node_released(node, at);
        }
        self.channels.clear();
        self.revive(heads);
    }

    /// `heads` serve: the lone one, or the edge's reactors over them.
    fn revive(&mut self, heads: Vec<JournaledGateway>) {
        match &mut self.edge {
            Some(edge) => {
                edge.revive(heads);
                edge.audit();
            }
            None => self.head = heads.into_iter().next(),
        }
    }

    /// The restart of head `i`, from its WAL image or from its log on the
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

    /// Heartbeat silence exceeded every follower's timeout: each promotes,
    /// held to a recovery of its shipped prefix, and the heads serve again.
    fn promote(&mut self, now: SimTime) {
        let silent = self.channels.iter().all(|c| c.follower.should_promote(now));
        if self.channels.is_empty() || !silent {
            return;
        }
        let (releases, journal) = (&self.record.buffered_releases, self.scenario.journal);
        let promoted: Vec<_> = (self.channels.iter_mut())
            .map(|c| c.promote(now, releases, journal))
            .collect();
        let (gw, promotion, prefix) = &promoted[0];
        self.record.promoted_genesis = Some(GatewaySnapshot::capture(gw.inner()));
        self.record.promotion = Some(promotion.clone());
        self.record.shipped_prefix = prefix.clone();
        self.record.promoted_at = Some(now);
        self.record.decided = self.record.acknowledged;
        self.revive(promoted.into_iter().map(|(gw, ..)| gw).collect());
    }

    /// Each follower's mirror is a byte-prefix of what its primary holds
    /// durably (a non-compacting log's durable bytes only grow, so a prefix
    /// that held holds until the mirror grows).
    fn check(&mut self) {
        if self.scenario.journal.compact_on_snapshot {
            return;
        }
        for i in 0..self.channels.len() {
            let mirror = self.channels[i].follower.bytes();
            if mirror.len() == self.channels[i].checked {
                continue;
            }
            let durable = match (&self.disk, self.heads().get(i)) {
                (Some((disk, logs)), _) => {
                    Cow::Owned(FileSink::read_on(&disk.reboot(), &logs[i]).unwrap_or_default())
                }
                (None, Some(gw)) => Cow::Borrowed(gw.journal().bytes()),
                (None, None) => Cow::Borrowed(&self.images[i][..]),
            };
            assert!(
                durable.starts_with(mirror),
                "follower {i} holds {} bytes the primary never made durable ({} durable)",
                mirror.len(),
                durable.len()
            );
            self.channels[i].checked = mirror.len();
        }
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

/// A dying primary's unacked journal tail, as it would ship it.
fn zombie(gw: &JournaledGateway) -> Vec<ShipMsg> {
    let (Some(shipper), journal) = (gw.shipper(), gw.journal()) else {
        return Vec::new();
    };
    let (epoch, (start, frames)) = (journal.epoch(), journal.frames_from(shipper.acked()));
    let frames = frames.iter().enumerate();
    frames
        .map(|(i, bytes)| ShipMsg::frame(epoch, start + i as u64, bytes.to_vec()))
        .collect()
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
        let verdict = self.on_head(now, |gw| gw.decide(request, now));
        verdict.unwrap_or_else(|| {
            self.record.lost_submissions += 1;
            Verdict::rejected(Infeasible::NotEnoughNodes)
        })
    }

    /// The live head's turn — a primary's ships what it committed — then a
    /// channel round that carries it to the follower.
    fn drive_into(&mut self, now: SimTime, turn: &mut Turn) {
        self.tick(now);
        let mut driven = self.on_head(now, |gw| gw.drive_into(now, turn));
        if driven.is_none() {
            // Nothing of a turn whose commit never returned leaves; a head
            // that comes back at once runs the turn's timed work.
            *turn = Turn::default();
            self.tick(now);
            driven = self.on_head(now, |gw| gw.drive_into(now, turn));
        }
        if driven.is_some() {
            self.turns += 1;
            self.record.acknowledged = self.record.decided;
        }
        self.tick(now);
    }

    fn next_due(&self) -> Option<SimTime> {
        self.due()
    }

    fn finalize(&mut self, now: SimTime) -> Vec<Resolution> {
        self.tick(now);
        let resolved = self.on_head(now, |gw| gw.finalize(now));
        self.tick(now);
        resolved.unwrap_or_default()
    }

    fn replan_waiting(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        self.tick(now);
        let replanned = self.on_head(now, |gw| gw.replan_waiting(now));
        replanned.unwrap_or(Ok(()))
    }

    fn committed_release(&self, node: usize) -> SimTime {
        self.head
            .as_ref()
            .map_or(SimTime::ZERO, |gw| gw.committed_release(node))
    }

    fn node_released(&mut self, node: usize, at: SimTime) {
        self.tick(at);
        if self.on_head(at, |gw| gw.node_released(node, at)).is_none() {
            // The worker node released; no head heard it. Its successor will.
            self.record.buffered_releases.push((node, at));
        }
    }

    fn plan_of(&self, task: TaskId) -> Option<&TaskPlan> {
        self.head.as_ref().and_then(|gw| gw.plan_of(task))
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
