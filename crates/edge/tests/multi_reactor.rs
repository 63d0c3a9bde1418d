//! The sharded edge: N reactors on `rtdls_world`'s in-memory net, reactor
//! 0 handing each connection bound by `Hello { tenant }` to its tenant's
//! home, where the world audits every submit is decided. Here: fan-out,
//! routing refusals, per-reactor WALs across a kill, a promise pushed by
//! its home, and (on real sockets) the same fan-out on an epoll cluster.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rtdls_core::prelude::*;
use rtdls_edge::prelude::*;
use rtdls_edge::proto::encode_client;
use rtdls_journal::disk::Std;
use rtdls_journal::prelude::*;
use rtdls_service::prelude::*;
use rtdls_telemetry::Telemetry;
use rtdls_world::disk::{Model, Platter};
use rtdls_world::mem::{InlineClient, MemClient};
use rtdls_world::{
    baseline_gateway, near_miss, requests, reservation, saturated_until, tenant_homed_at,
};
use rtdls_world::{Client, Comeback, Kill, Scenario, World};

type Conn = InlineClient<MemClient>;

const T0: SimTime = SimTime::ZERO;

/// A reactor per gateway, each journaling in memory.
fn world(gateways: Vec<ShardedGateway>) -> World {
    let scenario = Scenario::new(JournalConfig::default());
    World::edge(gateways, scenario, EdgeConfig::default())
}

/// A connection bound to `tenant`.
fn bound(world: &mut World, tenant: TenantId) -> Conn {
    let mut conn = Conn::greeted(&world.net().clone(), world, T0);
    conn.hello(Some(tenant));
    conn
}

/// A small submit of `tenant`'s task `id`, for an idle book.
fn small(id: u64, tenant: TenantId) -> SubmitRequest {
    SubmitRequest::new(Task::new(id, 0.0, 100.0, 1.0e6)).with_tenant(tenant)
}

/// Six tenants' streams of 50, one connection each, over four reactors.
const REACTORS: usize = 4;

fn tenants() -> [TenantId; 6] {
    [0, 1, 2, 3, 4, 5].map(TenantId)
}

fn stream(tenant: TenantId) -> Vec<SubmitRequest> {
    requests(50, 100 + u64::from(tenant.0), Some(tenant))
}

/// Each reactor decided exactly its tenants' streams; the edge adopted
/// every connection homed off reactor 0 once.
fn fanned_out(books: &[&ServiceMetrics], stats: &[EdgeStats]) {
    let homes = tenants().map(|t| reactor_for_tenant(t, REACTORS));
    assert!(homes.iter().any(|&h| h != homes[0]), "{homes:?}");
    for (r, book) in books.iter().enumerate() {
        let homed = homes.iter().filter(|&&h| h == r).count() as u64;
        assert_eq!(book.submitted, homed * 50, "reactor {r}");
    }
    let stats = EdgeStats::merged(stats);
    assert_eq!((stats.submits, stats.protocol_errors), (300, 0));
    let away = homes.iter().filter(|&&h| h != 0).count() as u64;
    assert_eq!(stats.conns_adopted, away, "one adoption each");
}

#[test]
fn bound_streams_across_reactors_reconcile_exactly() {
    let mut world = world(vec![baseline_gateway(2); REACTORS]);
    let clients = tenants().map(|t| Client::new(stream(t), 16).bound(t));
    world.run(clients.to_vec());
    fanned_out(&world.books(), &world.stats());
}

/// The same fan-out over epoll and loopback TCP, one reactor thread each.
#[test]
fn the_epoll_cluster_serves_bound_streams_across_reactors() {
    let (gateways, cfg) = (vec![baseline_gateway(2); REACTORS], EdgeConfig::default());
    let cluster = EdgeCluster::bind("127.0.0.1:0", gateways, cfg).unwrap();
    let addr = cluster.local_addr();
    let stop = AtomicBool::new(false);
    let (linger, limit) = (Duration::from_millis(150), Duration::from_secs(60));
    let (results, reports) = std::thread::scope(|s| {
        let server = s.spawn(|| cluster.run(EdgeClock::real_time(), &stop));
        let clients = tenants().map(|t| {
            let client = ReplayClient::connect(addr).and_then(|c| c.bind(t));
            s.spawn(move || client?.run(stream(t), 16, linger, limit))
        });
        // Joined before the stop, so a failing client stops the reactors.
        let reports = clients.map(|c| c.join());
        stop.store(true, Ordering::Relaxed);
        (server.join().unwrap(), reports)
    });
    for report in reports {
        let r = report.unwrap().unwrap();
        assert!(!r.timed_out && r.errors.is_empty(), "{r:?}");
        assert_eq!(r.verdicts(), 50, "one verdict per submit");
    }
    let books: Vec<_> = results.iter().map(|(g, _)| g.metrics()).collect();
    let stats: Vec<_> = results.iter().map(|(_, s)| *s).collect();
    fanned_out(&books, &stats);
    assert_eq!(EdgeStats::merged(&stats).connections_accepted, 6);
}

/// Reactors on their own WALs on `disk`, killed mid-stream and restarted
/// from the disk with the same count (every tenant hashes back to its
/// book) and fresh connection ids: each book is one continuous history.
fn killed_mid_stream<D: Platter>(n: usize, disk: D, dir: &Path) {
    let client = |t: TenantId| Client::new(requests(80, 40 + u64::from(t.0), Some(t)), 8);
    let tenants = (0..n).map(|r| tenant_homed_at(r, n));
    let clients: Vec<_> = tenants.map(|t| client(t).bound(t)).collect();
    let journal = JournalConfig {
        snapshot_every: 32,
        compact_on_snapshot: true,
    };
    let kill = Kill::At(clients[0].requests[50].task.arrival);
    let scenario = Scenario::new(journal)
        .kill(kill, Comeback::Disk)
        .fsync(FsyncPolicy::Batch(8));
    let (gateways, cfg) = (vec![baseline_gateway(2); n], EdgeConfig::default());
    let mut world = World::edge_on_disk(gateways, scenario, cfg, disk, dir);
    world.run(clients);
    let recovery = world.record().recovery;
    assert!(recovery.is_some_and(|r| r.frames_decoded > 0), "restarted");
    assert_eq!(world.submitted(), vec![80; n], "one continuous book each");
}

#[test]
fn a_killed_edge_recovers_each_reactor_from_its_own_wal() {
    let disk = Model::new("/model/reactor-0.wal");
    killed_mid_stream(2, disk.clone(), Path::new("/model"));
    assert!(disk.exchanges() > 0, "compactions rewrote the logs");
    // A lone reactor on a real WAL file.
    let dir = std::env::temp_dir().join(format!("rtdls-edge-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    killed_mid_stream(1, Std, &dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One unbound connection alternating a tenant homed on reactor 0 and one
/// homed on reactor 1, all in one write: the accepting reactor decides the
/// first submit; the first submit homed elsewhere is refused with an
/// `Error` naming the home reactor and the `Hello { tenant }` that reaches
/// it, and the connection drains.
#[test]
fn an_unbound_connection_is_decided_only_on_its_tenants_home() {
    let tenants = [0, 1].map(|home| tenant_homed_at(home, 2));
    let mut world = world(vec![baseline_gateway(2); 2]);
    let mut client = Conn::greeted(&world.net().clone(), &mut world, T0);
    let frames = (0..100u64).flat_map(|seq| {
        let request = small(seq, tenants[seq as usize % 2]);
        encode_client(&ClientMsg::Submit { seq, request })
    });
    client.send_raw(&frames.collect::<Vec<u8>>());
    assert!(client.closed(&mut world, T0), "the connection drains");
    let msgs: Vec<_> = std::iter::from_fn(|| client.try_next()).collect();
    let [ServerMsg::Verdict { seq: 0, .. }, ServerMsg::Error { seq, message }] = &msgs[..] else {
        panic!("the first submit's verdict, then a refusal: {msgs:?}");
    };
    assert_eq!(*seq, Some(1), "the first foreign submit is refused");
    assert!(message.contains("homed on reactor 1"), "{message}");
    assert!(message.contains("Hello { tenant }"), "{message}");
}

/// Two bound sockets, the impostor's tenant homed on the accepting reactor
/// and the victim's on the last one (handed off when there are two): the
/// impostor's submit for the victim's tenant is refused and its connection
/// drains; the victim's submits before and after are decided on its home.
#[test]
fn an_impostor_is_refused_with_or_without_a_hand_off() {
    for n in [1, 2] {
        let victim_tenant = tenant_homed_at(n - 1, n);
        let impostor_tenant = TenantId(victim_tenant.0 + 1);
        assert_eq!(reactor_for_tenant(impostor_tenant, n), 0);
        let mut world = world(vec![baseline_gateway(2); n]);
        let mut victim = bound(&mut world, victim_tenant);
        let mut impostor = bound(&mut world, impostor_tenant);
        let request = small(1, victim_tenant);
        assert!(victim.submit(0, request, &mut world, T0).is_accepted());
        let submit = ClientMsg::Submit { seq: 0, request };
        let msg = impostor.ask(&submit, &mut world, T0);
        let (v, i, seq) = (victim_tenant.0, impostor_tenant.0, Some(0));
        let message = format!("connection is bound to tenant {i}, not {v}");
        assert_eq!(msg, ServerMsg::Error { seq, message });
        assert!(impostor.closed(&mut world, T0), "the impostor drains");
        let request = small(2, victim_tenant);
        assert!(victim.submit(1, request, &mut world, T0).is_accepted());
        let stats = world.stats();
        let errors = stats.iter().map(|s| s.protocol_errors).sum::<u64>();
        assert_eq!((stats[0].protocol_errors, errors), (1, 1));
        let adopted = EdgeStats::merged(&stats).conns_adopted;
        assert_eq!(adopted, n as u64 - 1, "the victim handed off home");
        let open = world.reactors().iter().map(|r| r.connections());
        assert_eq!(open.sum::<usize>(), 1, "the victim stays");
    }
}

/// The reservation scenario on a lone reactor, and on two with only the
/// tenant's home (reactor 1) saturated: the home alone makes the promise
/// and pushes its activation, at the blocker's dispatch, with the client
/// sending nothing more. Each reactor has its own telemetry: an ops
/// connection bound to the tenant reads its home's phase table and traces.
#[test]
fn a_reserved_verdict_streams_its_activation_from_its_home_reactor() {
    let avail = SimTime::new(1000.0);
    for n in [1, 2] {
        let tenant = tenant_homed_at(n - 1, n);
        let mut gateways = vec![baseline_gateway(1); n - 1];
        gateways.push(saturated_until(avail));
        let mut world = world(gateways);
        for reactor in world.reactors_mut() {
            reactor.set_telemetry(&Telemetry::with_defaults());
        }
        let mut client = bound(&mut world, tenant);
        let [blocker, candidate] = reservation(avail, tenant);
        assert!(client.submit(0, blocker, &mut world, T0).is_accepted());
        let verdict = client.submit(1, candidate, &mut world, T0);
        let Verdict::Reserved { start_at, ticket } = verdict else {
            panic!("{verdict:?}");
        };
        assert_eq!(start_at, avail, "promised at the blocker's dispatch");
        let msg = client.recv(&mut world, avail);
        assert!(
            matches!(msg, ServerMsg::Update { update: DecisionUpdate::Activated {
                ticket: t, task: 2, at, admitted: true } } if t == ticket && at == avail),
            "{msg:?}"
        );
        let stats = world.stats();
        assert_eq!(world.books()[n - 1].reservations_activated, 1);
        let merged = EdgeStats::merged(&stats);
        let pushed = (stats[n - 1].updates_pushed, merged.updates_pushed);
        assert_eq!(pushed, (1, 1), "the home alone pushed");
        assert_eq!(merged.conns_adopted, n as u64 - 1, "handed off home");
        assert_eq!(merged.updates_dropped, 0);
        let mut ops = bound(&mut world, tenant);
        let report = ops.ops(OpsQuery::Profile, &mut world, avail);
        let OpsReport::Profile { phases } = report else {
            panic!("{report:?}");
        };
        let paths: Vec<&str> = phases.iter().map(|p| p.path.as_str()).collect();
        let home = ["edge/read", "gateway/plan"]
            .iter()
            .all(|p| paths.contains(p));
        assert!(home, "{paths:?}");
        let report = ops.ops(OpsQuery::RecentTraces, &mut world, avail);
        let traced = matches!(report, OpsReport::RecentTraces { traces } if !traces.is_empty());
        assert!(traced, "the home traced its submits");
    }
}

/// A connection that parked a task on the accepting reactor and then binds
/// to a tenant homed elsewhere is refused (`Error`, then drain): a hand-off
/// would leave the task's pending entry on reactor 0 and its socket on
/// reactor 1, and drop the resolution.
#[test]
fn a_bind_that_would_move_a_parked_task_is_refused() {
    let mut world = world(vec![baseline_gateway(1); 2]);
    let mut client = Conn::greeted(&world.net().clone(), &mut world, T0);
    let [blocker, near] = near_miss(TenantId(1));
    assert!(client.submit(0, blocker, &mut world, T0).is_accepted());
    let verdict = client.submit(1, near, &mut world, T0);
    assert!(matches!(verdict, Verdict::Deferred { .. }), "{verdict:?}");
    client.hello(Some(TenantId(0)));
    let msg = client.recv(&mut world, T0);
    let ServerMsg::Error { seq: None, message } = msg else {
        panic!("{msg:?}");
    };
    assert!(message.contains("parked"), "{message}");
    assert!(client.closed(&mut world, T0), "the connection drains");
    let s = world.stats();
    let moved = [
        s[1].conns_adopted,
        s[0].updates_dropped,
        s[0].pending_evicted,
    ];
    assert_eq!(moved, [0, 0, 1], "no hand-off; the entry went with it");
}
