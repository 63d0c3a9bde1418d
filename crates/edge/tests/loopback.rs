//! The edge over the wire, one reactor: scripted sessions and client
//! streams against an edge in `rtdls_world`'s in-memory net, audited by the
//! world after every turn. Here: conformance, pushed resolutions, hostile
//! peers, the drain clock, the turn order, group commit and a power cut at
//! every file call, and epoll serving byte for byte what the net serves.

use std::collections::HashSet;
use std::time::Duration;

use rtdls_core::dlt::homogeneous;
use rtdls_core::prelude::*;
use rtdls_edge::codec::{Direction, HEADER_LEN, MAGIC};
use rtdls_edge::prelude::*;
use rtdls_edge::proto::encode_client;
use rtdls_journal::prelude::*;
use rtdls_journal::wire::{checksum, encode_frame};
use rtdls_service::prelude::*;
use rtdls_world::disk::{every_power_loss, Model};
use rtdls_world::mem::{Dial, Edge, InlineClient, MemClient};
use rtdls_world::{
    baseline_gateway, near_miss, requests, reservation, saturated_until, tenant_homed_at,
};
use rtdls_world::{Client, Comeback, Kill, Scenario, Tally, World};

type Conn = InlineClient<MemClient>;

const T0: SimTime = SimTime::ZERO;

/// A lone reactor serving `gateway`, journaling in memory.
fn world(gateway: ShardedGateway, cfg: EdgeConfig) -> World {
    World::edge(vec![gateway], Scenario::new(JournalConfig::default()), cfg)
}

/// Past `near_miss`'s ticket expiry.
fn late() -> SimTime {
    SimTime::new(2.0 * homogeneous::exec_time(&ClusterParams::paper_baseline(), 800.0, 16))
}

/// The `rtdls_edge_pending` gauge, read over an ops connection.
fn pending(world: &mut World, now: SimTime) -> f64 {
    let mut ops = Conn::greeted(&world.net().clone(), world, now);
    let report = ops.ops(OpsQuery::Stats, world, now);
    let OpsReport::Stats { samples, .. } = report else {
        panic!("{report:?}");
    };
    let gauge = samples.iter().find(|s| s.name == "rtdls_edge_pending");
    gauge.unwrap().value
}

#[test]
fn a_mixed_tenant_stream_reconciles_the_wire_with_the_book() {
    let quota = QuotaPolicy {
        max_inflight: Some(6),
        ..Default::default()
    };
    let gateway = baseline_gateway(4).with_quota(quota);
    let mut world = world(gateway, EdgeConfig::default());
    world.run(vec![Client::new(requests(300, 11, None), 16)]);
    let t = world.record().wire[0];
    assert_eq!(t.decided() + t.throttled, 300, "a verdict each");
    assert!(t.accepted > 0, "an idle cluster accepts the head");
    assert!(t.rejected + t.deferred + t.throttled > 0, "{t:?}");
    let s = world.stats()[0];
    assert_eq!((s.protocol_errors, s.connections_accepted), (0, 1));
}

/// Task ids are client-chosen: three connections park task 2. One
/// vanishes without a `Bye`, and its pending entry goes with it; the other
/// two each get their own expiry (keyed by `(connection, task)`), pushed
/// with no client traffic.
#[test]
fn identical_task_ids_get_their_own_expiry_and_a_dead_one_leaks_nothing() {
    let mut world = world(baseline_gateway(1), EdgeConfig::default());
    let net = world.net().clone();
    let mut clients = [0, 1, 2].map(|_| Conn::greeted(&net, &mut world, T0));
    let [blocker, near] = near_miss(TenantId(0));
    assert!(clients[0].submit(0, blocker, &mut world, T0).is_accepted());
    let tickets = clients
        .each_mut()
        .map(|c| match c.submit(1, near, &mut world, T0) {
            Verdict::Deferred { ticket, .. } => ticket,
            other => panic!("expected Deferred, got {other:?}"),
        });
    assert_eq!(HashSet::from(tickets).len(), 3, "distinct parked tasks");
    assert_eq!(pending(&mut world, T0), 3.0, "no aliasing");
    let [alice, bob, carol] = clients;
    drop(carol);
    assert_eq!(pending(&mut world, T0), 2.0, "its entry went with it");
    world.poll(T0);
    assert_eq!(world.reactors()[0].connections(), 2);
    assert_eq!(world.stats()[0].pending_evicted, 1);
    for (mut client, ticket) in [alice, bob].into_iter().zip(tickets) {
        let msg = client.recv(&mut world, late());
        assert!(
            matches!(msg, ServerMsg::Update { update: DecisionUpdate::Resolved {
                task: 2, ticket: Some(t), admitted: false, cause: Some(_) } } if t == ticket),
            "{msg:?}"
        );
    }
    // The dead connection's expiry had no one to go to.
    let s = world.stats()[0];
    assert_eq!((s.updates_pushed, s.updates_dropped), (2, 1));
    assert_eq!(pending(&mut world, late()), 0.0);
}

/// A frame no decoder may take — garbage, an oversized length prefix, an
/// unsupported version, or a submit whose task no scheduler could hold,
/// an integer its field cannot hold, nesting past the parser's cap of 128
/// or a key sent twice — is answered `Error` on its own connection, which
/// closes, and never reaches the planner; the next connection is served,
/// even framed in header version 1 (FNV-1a), as clients from before
/// version 2 frame it.
#[test]
fn a_hostile_frame_fails_its_own_connection_and_the_reactor_serves_on() {
    let mut gateway = baseline_gateway(2);
    gateway.enable_explanations();
    let mut world = world(gateway, EdgeConfig::default());
    let net = world.net().clone();
    let request = SubmitRequest::new(Task::new(1, 0.0, 100.0, 50_000.0));
    let json = |msg| String::from_utf8(encode_client(&msg)[HEADER_LEN..].to_vec());
    let submit = json(ClientMsg::Submit { seq: 1, request }).unwrap();
    let query = OpsQuery::Explain { request };
    let explain = json(ClientMsg::Ops { query }).unwrap();
    let [open, close] = ["[", "]"].map(|b| b.repeat(10_000));
    let deep = format!("\"seq\":1,\"deep\":{open}{close},");
    let mut oversized = b"RE\x01\x01".to_vec();
    oversized.extend(u32::MAX.to_le_bytes().into_iter().chain([0; 8]));
    let (protocol, tenant) = (999, None);
    let hello = ClientMsg::Hello { protocol, tenant };
    let mut rows = vec![
        (b"XXXXXXXXXXXXXXXXXXXXXXXX".to_vec(), "corrupt"),
        (oversized, "oversized"),
        (encode_client(&hello), "unsupported"),
    ];
    let (size, deadline) = ("\"data_size\":100.0", "\"rel_deadline\":50000.0");
    for (payload, field, poison) in [
        (&submit, "\"seq\":1,", deep.as_str()),
        (&submit, "\"seq\":1,", "\"seq\":1,\"seq\":1,"),
        (&submit, size, "\"data_size\":0"),
        (&submit, size, "\"data_size\":-100.0"),
        (&submit, deadline, "\"rel_deadline\":1e999"),
        (&submit, deadline, "\"rel_deadline\":0.0"),
        (&explain, size, "\"data_size\":0"),
        (&submit, "\"tenant\":0", "\"tenant\":4294967301"),
        (&submit, "\"user_nodes\":null", "\"user_nodes\":-1"),
        (&submit, "\"seq\":1,", "\"seq\":1.5,"),
    ] {
        assert!(payload.contains(field), "{field} not in {payload}");
        let hostile = payload.replace(field, poison).into_bytes();
        let frame = encode_frame(MAGIC, Direction::FromClient as u8, &hostile);
        rows.push((frame, "undecodable"));
    }
    for (k, (frame, refusal)) in rows.iter().enumerate() {
        let mut violator = Conn::greeted(&net, &mut world, T0);
        violator.send_raw(frame);
        let msg = violator.recv(&mut world, T0);
        assert!(
            matches!(&msg, ServerMsg::Error { message, .. } if message.contains(refusal)),
            "row {k}: {msg:?}"
        );
        assert!(violator.closed(&mut world, T0), "row {k} is closed");
        let mut client = Conn::greeted(&net, &mut world, T0);
        let task = Task::new(10 + k as u64, 0.0, 100.0, 50_000.0);
        let request = SubmitRequest::new(task);
        let mut v1 = encode_client(&ClientMsg::Submit { seq: 7, request });
        let sum = checksum(1, v1[3], &v1[HEADER_LEN..]);
        v1[2] = 1;
        v1[8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        client.send_raw(&v1);
        let msg = client.recv(&mut world, T0);
        assert!(
            matches!(&msg, ServerMsg::Verdict { seq: 7, verdict, .. } if verdict.is_accepted()),
            "row {k}: {msg:?}"
        );
        client.send(&ClientMsg::Bye);
        assert!(client.closed(&mut world, T0), "row {k}: Bye closes");
        assert_eq!(world.stats()[0].protocol_errors, k as u64 + 1);
    }
}

#[test]
fn edge_backpressure_throttles_without_reaching_the_gateway() {
    // A zero-length write queue means every submit finds it "full".
    let cfg = EdgeConfig {
        write_queue_limit: 0,
        ..Default::default()
    };
    let mut world = world(baseline_gateway(2), cfg);
    world.run(vec![Client::new(requests(5, 1, None), 1)]);
    assert_eq!(world.record().wire[0].throttled, 5);
    assert_eq!(world.stats()[0].edge_throttled, 5);
    assert_eq!(world.books()[0].submitted, 0, "no admission test ran");
}

/// Connection ids are the high half of every minted task id, so an edge
/// hands out none past `u32::MAX`: it refuses those connections, sends
/// them nothing, and each served client's ticket resolves to it.
#[test]
fn connections_past_the_id_space_are_refused_never_aliased() {
    let cfg = EdgeConfig {
        first_conn_id: u64::from(u32::MAX) - 1,
        ..Default::default()
    };
    let mut world = world(baseline_gateway(1), cfg);
    let net = world.net().clone();
    let mut clients = vec![Conn::greeted(&net, &mut world, T0)];
    clients.extend((0..3).map(|_| Conn::connect(&net)));
    let [blocker, near] = near_miss(TenantId(0));
    assert!(clients[0].submit(0, blocker, &mut world, T0).is_accepted());
    let hello = clients[1].recv(&mut world, T0);
    assert!(matches!(hello, ServerMsg::Hello { .. }), "{hello:?}");
    // Every client parks a task under the same client-chosen id.
    for client in &mut clients[..2] {
        let verdict = client.submit(1, near, &mut world, T0);
        assert!(matches!(verdict, Verdict::Deferred { .. }), "{verdict:?}");
    }
    for (i, client) in clients.iter_mut().enumerate().skip(2) {
        let (seq, request) = (1, near);
        client.send(&ClientMsg::Submit { seq, request });
        assert!(client.closed(&mut world, T0), "client {i} is refused");
        assert!(client.received.is_empty(), "client {i} got nothing");
    }
    // Each ticket's resolution goes to its own connection (the world
    // audits that an update reaches only the connection parking it).
    world.poll(late());
    let s = world.stats()[0];
    assert_eq!((s.connections_accepted, s.connections_refused), (2, 2));
    assert_eq!((s.updates_pushed, s.updates_dropped), (2, 0));
}

/// Drain reaping runs on the simulated clock: a draining connection with
/// unflushed frames survives any number of turns while sim time stands
/// still, and is reaped once sim time passes `drain_timeout`.
#[test]
fn drain_reaping_follows_the_simulated_clock_not_the_wall_clock() {
    let cfg = EdgeConfig {
        drain_timeout: Duration::from_millis(50),
        ..Default::default()
    };
    let mut world = world(baseline_gateway(2), cfg);
    let mut client = Conn::greeted(&world.net().clone(), &mut world, T0);
    // Unread ops reports overfill the connection's buffer: its outbound
    // queue stays non-empty, and only the drain deadline can close it.
    let wedged = |s: EdgeStats| s.frames_sent + 64 <= s.frames_received;
    let query = OpsQuery::Stats;
    let report = ClientMsg::Ops { query };
    for _ in 0..4000 {
        if wedged(world.stats()[0]) {
            break;
        }
        (0..8).for_each(|_| client.send(&report));
        world.poll(T0);
    }
    assert!(wedged(world.stats()[0]), "{:?}", world.stats()[0]);
    let seen = world.stats()[0].frames_received;
    client.send(&ClientMsg::Bye);
    (0..100).for_each(|_| world.poll(T0));
    assert!(world.stats()[0].frames_received > seen, "the Bye was read");
    let open = |world: &World| world.reactors()[0].connections();
    assert_eq!(open(&world), 1, "wall time alone reaps no drain");
    world.poll(SimTime::new(0.04));
    assert_eq!(open(&world), 1, "short of the simulated deadline");
    world.poll(SimTime::new(0.06));
    assert_eq!(open(&world), 0, "fifty simulated milliseconds");
}

/// `requests(48, 31, tenant)` in windows of eight, each arriving at its
/// last request's instant.
fn windows(tenant: Option<TenantId>) -> Vec<SubmitRequest> {
    let mut stream = requests(48, 31, tenant);
    for window in stream.chunks_mut(8) {
        let at = window[7].task.arrival;
        window.iter_mut().for_each(|r| r.task.arrival = at);
    }
    stream
}

/// Windows of eight submits, compactions inside turns. Turned by hand at
/// the windows' instants, each window is one turn whose frames take one
/// write and one sync (a compaction's rewrite is both), and some turn also
/// runs dispatches due since the last. Then the power goes at each file
/// call, torn writes included, on one reactor and on two (a cut in reactor
/// 1's turn falls after reactor 0 sent its verdicts): every comeback from
/// the disk holds every verdict on the wire, so none left before durable.
#[test]
fn a_power_cut_at_any_file_call_finds_every_sent_verdict_durable() {
    let model = || Model::new("/model/reactor-0.wal");
    let journal = JournalConfig {
        snapshot_every: 20,
        compact_on_snapshot: true,
    };
    let on_model = |n, disk: &Model, comeback| {
        let scenario = Scenario::new(journal).kill(Kill::Never, comeback);
        let scenario = scenario.fsync(FsyncPolicy::Batch(16));
        let (gateways, cfg) = (vec![baseline_gateway(2); n], EdgeConfig::default());
        World::edge_on_disk(gateways, scenario, cfg, disk.clone(), "/model")
    };
    let mut world = on_model(1, &model(), Comeback::Never);
    let mut client = Conn::greeted(&world.net().clone(), &mut world, T0);
    let mut overdue = 0;
    for (turn, window) in windows(None).chunks(8).enumerate() {
        let now = window[0].task.arrival;
        let counts = |world: &World<Model>| {
            let gateway = world.reactors()[0].gateway();
            let sink = gateway.journal().sink_stats().unwrap();
            [gateway.metrics().submitted, sink.writes, sink.syncs]
        };
        let before = counts(&world);
        let due = world.reactors()[0].gateway().next_due();
        overdue += usize::from(due.is_some_and(|t| t < now));
        for (i, &request) in window.iter().enumerate() {
            let seq = (turn * 8 + i) as u64;
            client.send(&ClientMsg::Submit { seq, request });
        }
        world.poll(now);
        let delta: [u64; 3] = std::array::from_fn(|i| counts(&world)[i] - before[i]);
        assert_eq!(delta, [8, 1, 1], "turn {turn}: submits, writes, syncs");
        let msgs = std::iter::from_fn(|| client.try_next());
        let verdicts = msgs.filter(|m| matches!(m, ServerMsg::Verdict { .. }));
        assert_eq!(verdicts.count(), 8, "turn {turn}: sent once durable");
    }
    assert!(overdue > 0, "no window's turn also ran overdue work");
    assert!(world.reactors()[0].gateway().journal().snapshots_appended() >= 3);
    drop(world);
    let one = vec![Client::new(windows(None), 8)];
    let two = [0, 1].map(|r| tenant_homed_at(r, 2));
    let two = two.map(|t| Client::new(windows(Some(t)), 8).bound(t));
    for clients in [one, two.to_vec()] {
        let n = clients.len();
        let run = |disk: &Model, comeback| {
            let mut world = on_model(n, disk, comeback);
            world.run(clients.clone());
            world.record()
        };
        let disk = model();
        let wire = run(&disk, Comeback::Never).wire;
        assert_eq!(wire.iter().map(Tally::decided).sum::<u64>(), 48 * n as u64);
        let mut restarts = 0;
        every_power_loss(disk.calls(), |call, torn| {
            let disk = model().armed(call, torn);
            let record = run(&disk, Comeback::Disk);
            assert!(record.killed_at.is_some(), "{n} reactors, call {call}");
            restarts += usize::from(record.restarted_at.is_some());
            disk.killed()
        });
        assert!(restarts > 0);
    }
}

/// A turn commits the timed work already due before it decides the
/// submits it read, as the simulator orders them. Task 2 waits behind task
/// 1's 16 nodes with half a second of slack; a submit a second after task
/// 2's dispatch came due is decided once that dispatch is committed
/// (accepted), never against the overdue plan (which would defer it).
#[test]
fn a_turn_commits_due_work_before_deciding_its_submits() {
    let e16 = homogeneous::exec_time(&ClusterParams::paper_baseline(), 800.0, 16);
    let mut world = world(baseline_gateway(1), EdgeConfig::default());
    let mut client = Conn::greeted(&world.net().clone(), &mut world, T0);
    for (id, deadline) in [(1, e16 * 1.0001), (2, e16 * 2.0 + 0.5)] {
        let request = SubmitRequest::new(Task::new(id, 0.0, 800.0, deadline));
        assert!(client.submit(id, request, &mut world, T0).is_accepted());
    }
    let due = world.reactors()[0].gateway().next_due();
    let now = SimTime::new(due.expect("task 2 waits").as_f64() + 1.0);
    let request = SubmitRequest::new(Task::new(3, now, 800.0, e16 * 3.0));
    assert!(client.submit(3, request, &mut world, now).is_accepted());
}

/// Hello, two submits, the second's pushed activation, an ops `Explain`
/// (reading no wall clock), a second connection's protocol violation, then
/// `Bye`: every byte each connection received, in connection order.
fn scripted_session(server: &mut impl Edge, to: &impl Dial, avail: SimTime) -> Vec<Vec<u8>> {
    let mut client = InlineClient::greeted(to, server, T0);
    client.hello(None);
    let [blocker, candidate] = reservation(avail, TenantId(0));
    assert!(client.submit(0, blocker, server, T0).is_accepted());
    let verdict = client.submit(1, candidate, server, T0);
    assert!(matches!(verdict, Verdict::Reserved { .. }), "{verdict:?}");
    let msg = client.recv(server, avail);
    assert!(matches!(msg, ServerMsg::Update { .. }), "{msg:?}");
    let request = SubmitRequest::new(Task::new(3, avail, 30_000.0, 0.001));
    let report = client.ops(OpsQuery::Explain { request }, server, avail);
    let OpsReport::Explain { explanation, .. } = report else {
        panic!("{report:?}");
    };
    assert!(explanation.is_some(), "a hopeless request is explained");
    let mut violator = InlineClient::greeted(to, server, avail);
    violator.send_raw(b"XXXXXXXXXXXXXXXXXXXXXXXX");
    let msg = violator.recv(server, avail);
    assert!(matches!(msg, ServerMsg::Error { .. }), "{msg:?}");
    assert!(violator.closed(server, avail), "the violator is closed");
    client.send(&ClientMsg::Bye);
    assert!(client.closed(server, avail), "Bye closes the connection");
    vec![client.received, violator.received]
}

/// The in-memory net cannot drift from production: one scripted session,
/// served over epoll and over the world's net from identical gateways at
/// identical instants, sends every connection the same bytes.
#[test]
fn the_in_memory_transport_serves_byte_for_byte_what_epoll_serves() {
    let avail = SimTime::new(1000.0);
    let cfg = EdgeConfig::default();
    let journaled = JournaledGateway::new(saturated_until(avail), JournalConfig::default());
    let mut epoll = EdgeServer::bind("127.0.0.1:0", journaled, cfg).unwrap();
    let addr = epoll.local_addr();
    let over_epoll = scripted_session(&mut epoll, &addr, avail);
    let mut world = world(saturated_until(avail), cfg);
    let net = world.net().clone();
    let over_mem = scripted_session(&mut world, &net, avail);
    assert!(over_epoll.iter().all(|bytes| !bytes.is_empty()));
    assert_eq!(over_mem, over_epoll, "byte-identical server output");
    assert_eq!(world.stats()[0], *epoll.stats());
    let connections = world.reactors()[0].connections();
    assert_eq!((epoll.connections(), connections), (0, 0));
}
