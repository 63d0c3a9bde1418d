//! Seeded mutation loops over every decoder that reads bytes another
//! process wrote: the edge's frame decoder and its `ClientMsg`/`ServerMsg`
//! payloads, the ship transport's `read_msg` and its `ShipMsg` payload, and
//! the journal's `decode_frames` and its `JournalEvent` payload — plus the
//! acks a follower link feeds a live reactor.
//!
//! The corpus is real traffic: a generated multi-tenant stream decided by a
//! journaled, explaining gateway gives the submits, the verdicts (deferrals
//! and rejections with their explanations, reservations), the pushed
//! updates and the WAL frames. Each case damages one valid encoding —
//! bytes of the frame, or one node of the payload's JSON tree — and allows
//! two outcomes: an error (on a live reactor, a protocol violation on that
//! connection alone), or a value that re-encodes to an equal value. Never
//! a panic, never a buffer sized by what a prefix announces, never a stack
//! sized by how deep a payload nests.
//!
//! Every payload that reaches a typed decoder is also decoded the long way
//! round — text → `Value` tree → text → type — and the two must agree: the
//! typed path builds no tree, so the tree is its differential oracle.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use rtdls_core::prelude::*;
use rtdls_edge::codec::{Direction, FrameDecoder, HEADER_LEN};
use rtdls_edge::prelude::*;
use rtdls_edge::proto::{encode_client, encode_server, OpsQuery};
use rtdls_journal::prelude::*;
use rtdls_journal::ship::encode_msg;
use rtdls_journal::wire::{self, RecordKind};
use rtdls_replica::net::{read_msg, write_msg};
use rtdls_service::prelude::*;
use rtdls_workload::prelude::*;
use rtdls_world::mem::{ClientEnd, Edge, InlineClient, MemClient};
use rtdls_world::{baseline_gateway, FaultPlan, Follow, Scenario, World};

const SEEDS: [u64; 3] = [1, 2, 3];
/// Cases per seed and loop: ≈ 6 000 in all, a second or two.
const CASES: usize = 250;

struct Corpus {
    client: Vec<ClientMsg>,
    server: Vec<ServerMsg>,
    ship: Vec<ShipMsg>,
    events: Vec<JournalEvent>,
}

/// Valid messages of every kind, from one overloaded burst served by a
/// journaled gateway.
fn corpus(seed: u64) -> Corpus {
    let gateway = ShardedGateway::new(
        ClusterParams::paper_baseline(),
        2,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let mut gateway = JournaledGateway::new(gateway, JournalConfig::default());
    gateway.enable_explanations();
    let mix = TenantMix {
        tenants: 5,
        premium_tenants: 1,
        best_effort_tenants: 2,
        max_delay_factor: Some(0.5),
    };
    let requests: Vec<SubmitRequest> =
        WorkloadGenerator::new(WorkloadSpec::paper_baseline(2.5), seed)
            .take(60)
            .with_tenants(mix)
            .collect();
    let mut client = vec![
        ClientMsg::Hello {
            protocol: 1,
            tenant: None,
        },
        ClientMsg::Hello {
            protocol: 1,
            tenant: Some(TenantId(3)),
        },
        ClientMsg::Bye,
        ClientMsg::Ops {
            query: OpsQuery::History {
                series: "rtdls_gateway_submitted".to_string(),
                range: 60.0,
            },
        },
        ClientMsg::Ops {
            query: OpsQuery::Trace { id: 7 },
        },
    ];
    let mut server = vec![
        ServerMsg::Hello { protocol: 1 },
        ServerMsg::Error {
            seq: Some(3),
            message: "undecodable message".to_string(),
        },
    ];
    for (seq, request) in requests.iter().enumerate() {
        let request = request.with_trace(seq as u64 % 3);
        let now = request.task.arrival;
        client.push(ClientMsg::Submit {
            seq: seq as u64,
            request,
        });
        client.push(ClientMsg::Ops {
            query: OpsQuery::Explain { request },
        });
        server.push(ServerMsg::Verdict {
            seq: seq as u64,
            task: request.task.id.0,
            verdict: gateway.decide(&request, now),
        });
        gateway.drive(now);
        let updates = gateway.take_updates();
        server.extend(
            updates
                .into_iter()
                .map(|update| ServerMsg::Update { update }),
        );
    }
    let kinds = |want: fn(&Verdict) -> bool| {
        server
            .iter()
            .any(|m| matches!(m, ServerMsg::Verdict { verdict, .. } if want(verdict)))
    };
    assert!(kinds(Verdict::is_accepted) && kinds(Verdict::is_deferred));
    assert!(kinds(|v| v.explanation().is_some()), "explained refusals");

    let (frames, tail) = wire::decode_frames(gateway.journal().bytes());
    assert!(tail.is_clean());
    let mut ship = vec![
        ShipMsg::Heartbeat { epoch: 2, head: 40 },
        ShipMsg::Ack { seq: 17 },
    ];
    let mut events = Vec::new();
    for (seq, frame) in frames.iter().enumerate() {
        let bytes = wire::encode_frame(wire::MAGIC, frame.kind as u8, frame.payload);
        ship.push(ShipMsg::frame(1, seq as u64, bytes));
        if frame.kind == RecordKind::Event {
            let text = std::str::from_utf8(frame.payload).unwrap();
            events.push(serde_json::from_str(text).unwrap());
        }
    }
    assert!(events.len() > 100, "{} journaled events", events.len());
    Corpus {
        client,
        server,
        ship,
        events,
    }
}

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Damages `bytes` the way a bad link, a torn write or a hostile peer does.
fn mutate_bytes(rng: &mut SmallRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = rng.gen_range(0..out.len());
    match rng.gen_range(0..8u32) {
        0 => out[at] ^= 1 << rng.gen_range(0..8u32),
        1 => out[at] = rng.gen_range(0..=255u8),
        2 => out.truncate(at),
        3 => out.insert(at, rng.gen_range(0..=255u8)),
        // The length prefix, from slightly off to 4 GiB.
        4 if out.len() >= HEADER_LEN => {
            let len = match rng.gen_range(0..3u32) {
                0 => u32::MAX,
                1 => rng.gen_range(0..=u32::MAX),
                _ => (out.len() - HEADER_LEN) as u32 ^ (1 << rng.gen_range(0..12u32)),
            };
            out[4..8].copy_from_slice(&len.to_le_bytes());
        }
        // The header version: 1, read but not over a version-2 checksum,
        // or a version no reader knows.
        6 if out.len() >= HEADER_LEN => out[2] = [0, 1, 3, 255][rng.gen_range(0..4usize)],
        // A run of open brackets, deeper than the parser's cap.
        5 => drop(out.splice(at..at, [b'['; 300])),
        _ => out.extend_from_slice(&bytes[..at]),
    }
    out
}

/// The `n`-th node of the tree in pre-order.
fn nth_mut<'a>(v: &'a mut Value, n: &mut usize) -> Option<&'a mut Value> {
    if *n == 0 {
        return Some(v);
    }
    *n -= 1;
    match v {
        Value::Seq(items) => items.iter_mut().find_map(|item| nth_mut(item, n)),
        Value::Map(entries) => entries.iter_mut().find_map(|(_, item)| nth_mut(item, n)),
        _ => None,
    }
}

fn count(v: &Value) -> usize {
    1 + match v {
        Value::Seq(items) => items.iter().map(count).sum(),
        Value::Map(entries) => entries.iter().map(|(_, item)| count(item)).sum(),
        _ => 0,
    }
}

/// The JSON of one of `values` with one node replaced by something its
/// type may not hold, or one key dropped.
fn mutate_field<T: Serialize>(rng: &mut SmallRng, values: &[T]) -> String {
    let text = serde_json::to_string(pick(rng, values)).unwrap();
    let mut tree: Value = serde_json::from_str(&text).unwrap();
    let mut n = rng.gen_range(0..count(&tree));
    let node = nth_mut(&mut tree, &mut n).expect("index within the tree");
    let hostile = [
        Value::Int(-1),
        Value::Int(0),
        Value::Int((1 << 32) + 5),
        Value::Int(i64::MIN),
        Value::UInt(u64::MAX),
        Value::Num(1.5),
        Value::Num(-3.5),
        Value::Num(1e30),
        Value::Num(-0.0),
        Value::Null,
        Value::Bool(true),
        Value::Str(String::new()),
        Value::Str("Accepted".to_string()),
        Value::Seq(vec![Value::Int(1); 70]),
        Value::Map(Vec::new()),
        // Nested past the parser's cap of 128.
        (0..200).fold(Value::Int(1), |inner, _| Value::Seq(vec![inner])),
    ];
    match node {
        Value::Map(entries) if !entries.is_empty() && rng.gen_bool(0.5) => {
            entries.remove(rng.gen_range(0..entries.len()));
        }
        _ => *node = pick(rng, &hostile).clone(),
    }
    let text = serde_json::to_string(&tree).unwrap();
    // A literal no `Value` holds: a float too large for f64.
    if rng.gen_bool(0.05) {
        return text.replacen(".0", ".0e999", 1);
    }
    text
}

/// The rule of the file: `text` is refused, or is a value that survives its
/// own encoding — and the tree agrees. Typed decoding of `text` and typed
/// decoding of `text` taken through a `Value` and rendered back both refuse
/// or both give the same value, and what the typed encoder writes re-parses
/// to a tree that renders to the same bytes.
fn refused_or_stable<T>(text: &str)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let typed = serde_json::from_str::<T>(text);
    let by_tree = serde_json::from_str::<Value>(text)
        .and_then(|tree| serde_json::from_str::<T>(&serde_json::to_string(&tree).unwrap()));
    match (&typed, &by_tree) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "typed and tree decoding differ: {text}"),
        (Err(_), Err(_)) => {}
        _ => panic!("typed {typed:?} but by tree {by_tree:?}: {text}"),
    }
    let Ok(value) = typed else {
        return;
    };
    let again = serde_json::to_string(&value).unwrap();
    let tree: Value = serde_json::from_str(&again).expect("typed encoding is JSON");
    assert_eq!(serde_json::to_string(&tree).unwrap(), again);
    match serde_json::from_str::<T>(&again) {
        Ok(back) => assert_eq!(back, value, "unstable under re-encoding: {text}"),
        Err(e) => panic!("decoded {text} but not its re-encoding {again}: {e}"),
    }
}

#[test]
fn typed_and_tree_decoding_agree_on_the_whole_corpus() {
    fn all<T>(msgs: &[T])
    where
        T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
    {
        for msg in msgs {
            let text = serde_json::to_string(msg).unwrap();
            assert_eq!(serde_json::from_str::<T>(&text).as_ref(), Ok(msg), "{text}");
            refused_or_stable::<T>(&text);
        }
    }
    for seed in SEEDS {
        let corpus = corpus(seed);
        all(&corpus.client);
        all(&corpus.server);
        all(&corpus.ship);
        all(&corpus.events);
    }
}

#[test]
fn a_mutated_field_is_refused_or_decodes_to_a_stable_value() {
    for seed in SEEDS {
        let corpus = corpus(seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..CASES {
            refused_or_stable::<ClientMsg>(&mutate_field(&mut rng, &corpus.client));
            refused_or_stable::<ServerMsg>(&mutate_field(&mut rng, &corpus.server));
            refused_or_stable::<ShipMsg>(&mutate_field(&mut rng, &corpus.ship));
            refused_or_stable::<JournalEvent>(&mutate_field(&mut rng, &corpus.events));
        }
    }
}

#[test]
fn mutated_edge_frames_fail_the_stream_or_decode_clean_under_the_cap() {
    let cap = 4096;
    for seed in SEEDS {
        let corpus = corpus(seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..2 * CASES {
            let frame = if rng.gen_bool(0.5) {
                encode_client(pick(&mut rng, &corpus.client))
            } else {
                encode_server(pick(&mut rng, &corpus.server))
            };
            if frame.len() > cap {
                continue;
            }
            let mut stream = mutate_bytes(&mut rng, &frame);
            stream.extend_from_slice(&frame);
            let mut dec = FrameDecoder::new(cap);
            let chunk = rng.gen_range(1..200usize);
            let mut peak = 0;
            'stream: for piece in stream.chunks(chunk) {
                dec.push(piece);
                loop {
                    match dec.next_frame_ref() {
                        Ok(Some((direction, payload))) => {
                            let Ok(text) = std::str::from_utf8(payload) else {
                                continue;
                            };
                            match direction {
                                Direction::FromClient => refused_or_stable::<ClientMsg>(text),
                                Direction::FromServer => refused_or_stable::<ServerMsg>(text),
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            assert!(
                                dec.next_frame_ref().is_err(),
                                "a failed stream stays failed"
                            );
                            break 'stream;
                        }
                    }
                }
                peak = peak.max(dec.capacity());
            }
            // What arrived, bounded by one capped frame and a read chunk,
            // doubled by `Vec` growth — never what a prefix announced.
            let bound = 2 * (cap + HEADER_LEN + stream.len().min(cap) + chunk);
            assert!(peak <= bound, "decoder grew to {peak} (> {bound})");
        }
    }
}

#[test]
fn mutated_wal_images_lose_only_their_tail() {
    for seed in SEEDS {
        let corpus = corpus(seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..CASES {
            let events: Vec<&JournalEvent> =
                (0..4).map(|_| pick(&mut rng, &corpus.events)).collect();
            let mut wal = Vec::new();
            let mut ends = Vec::new();
            for ev in &events {
                let payload = serde_json::to_string(ev).unwrap();
                wal.extend(wire::encode_frame(
                    wire::MAGIC,
                    RecordKind::Event as u8,
                    payload.as_bytes(),
                ));
                ends.push(wal.len());
            }
            let damaged = mutate_bytes(&mut rng, &wal);
            let intact = damaged
                .iter()
                .zip(&wal)
                .position(|(a, b)| a != b)
                .unwrap_or(damaged.len().min(wal.len()));
            let (frames, _) = wire::decode_frames(&damaged);
            assert!(wire::frame_count(&damaged) >= frames.len());
            // Every frame wholly before the damage survives, as itself.
            let survivors = ends.iter().filter(|&&end| end <= intact).count();
            assert!(frames.len() >= survivors, "lost an undamaged frame");
            for (frame, ev) in frames.iter().zip(&events).take(survivors) {
                let text = std::str::from_utf8(frame.payload).unwrap();
                assert_eq!(&serde_json::from_str::<JournalEvent>(text).unwrap(), *ev);
            }
            // A later frame that still passes its checksum is refused or
            // stable like any other payload.
            for frame in frames.iter().skip(survivors) {
                if let Ok(text) = std::str::from_utf8(frame.payload) {
                    refused_or_stable::<JournalEvent>(text);
                }
            }
        }
    }
}

#[test]
fn mutated_ship_frames_are_refused_or_read_back_clean() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let exchange = |bytes: &[u8]| {
        let mut peer = TcpStream::connect(addr).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        peer.write_all(bytes).unwrap();
        drop(peer);
        read_msg(&mut stream)
    };
    for seed in SEEDS {
        let corpus = corpus(seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..CASES {
            let msg = pick(&mut rng, &corpus.ship);
            let mut peer = TcpStream::connect(addr).unwrap();
            let (mut stream, _) = listener.accept().unwrap();
            write_msg(&mut peer, msg).unwrap();
            drop(peer);
            let mut frame = Vec::new();
            stream.read_to_end(&mut frame).unwrap();
            assert_eq!(exchange(&frame).unwrap().as_ref(), Some(msg));
            // Only damage past the frame's end leaves it readable.
            if let Ok(Some(back)) = exchange(&mutate_bytes(&mut rng, &frame)) {
                assert_eq!(&back, msg);
            }
        }
    }
}

/// The cap refuses hostile prefixes, never a real frame: the largest frame
/// the biggest benchmark fleet journals (the `recover` shape: 8 shards of a
/// 64-node cluster, 8 tenants, load 1.2, compacting snapshots) ships whole.
#[test]
fn the_largest_bench_fleet_snapshot_ships_under_the_cap() {
    let params = ClusterParams::new(64, 1.0, 100.0).unwrap();
    let gateway = ShardedGateway::new(
        params,
        8,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let mut gateway = JournaledGateway::new(gateway, JournalConfig::default());
    let mix = TenantMix {
        tenants: 8,
        premium_tenants: 1,
        best_effort_tenants: 3,
        max_delay_factor: Some(0.5),
    };
    let mut spec = WorkloadSpec::paper_baseline(1.2);
    spec.params = params;
    spec.dc_ratio = 20.0;
    spec.horizon = f64::MAX;
    for request in WorkloadGenerator::new(spec, 1)
        .take(1_500)
        .with_tenants(mix)
    {
        let now = request.task.arrival;
        gateway.decide(&request, now);
        gateway.drive(now);
    }
    let (frames, _) = wire::decode_frames(gateway.journal().bytes());
    let largest = frames.iter().max_by_key(|f| f.payload.len()).unwrap();
    assert_eq!(largest.kind, RecordKind::Snapshot);
    let bytes = wire::encode_frame(wire::MAGIC, largest.kind as u8, largest.payload);
    let shipped = serde_json::to_string(&ShipMsg::frame(1, 0, bytes.clone())).unwrap();
    // ≈ 27 KB as a frame, ≈ 90 KB as a message: under a 64th of the cap.
    assert!(
        shipped.len() * 64 < wire::MAX_SHIP_FRAME,
        "{}",
        shipped.len()
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (mut stream, _) = listener.accept().unwrap();
    let sender = std::thread::spawn(move || write_msg(&mut peer, &ShipMsg::frame(1, 0, bytes)));
    assert!(matches!(
        read_msg(&mut stream),
        Ok(Some(ShipMsg::Frame { .. }))
    ));
    sender.join().unwrap().unwrap();
}

/// The same damage against a live reactor: whatever a connection sends, the
/// reactor answers it or fails that connection, and goes on serving.
#[test]
fn a_live_reactor_outlives_every_mutated_client_frame() {
    let scenario = Scenario::new(JournalConfig::default());
    let mut world = World::edge(vec![baseline_gateway(2)], scenario, EdgeConfig::default());
    let net = world.net().clone();
    let now = SimTime::new(1.0e6);
    let mut served = 0u64;
    for seed in SEEDS {
        let corpus = corpus(seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        for case in 0..CASES {
            let frame = if rng.gen_bool(0.5) {
                let frame = encode_client(pick(&mut rng, &corpus.client));
                mutate_bytes(&mut rng, &frame)
            } else {
                let payload = mutate_field(&mut rng, &corpus.client);
                wire::encode_frame(
                    rtdls_edge::codec::MAGIC,
                    Direction::FromClient as u8,
                    payload.as_bytes(),
                )
            };
            let mut conn = InlineClient::connect(&net);
            conn.send_raw(&frame);
            for _ in 0..4 {
                world.poll(now);
            }
            drop(conn);
            if case % 50 != 49 {
                continue;
            }
            // An honest client is still served.
            served += 1;
            let mut honest = InlineClient::greeted(&net, &mut world, now);
            assert!(
                answered(&mut world, &mut honest, served, now),
                "seed {seed} case {case}: the reactor stopped serving"
            );
        }
    }
    for _ in 0..50 {
        world.poll(now);
    }
    assert_eq!(
        world.reactors()[0].connections(),
        0,
        "every connection was reaped"
    );
    assert!(world.stats()[0].protocol_errors > 0);
}

/// Submits one task on `conn` and turns `server` until its verdict is
/// back; whether it came.
fn answered(
    server: &mut impl Edge,
    conn: &mut InlineClient<MemClient>,
    seq: u64,
    now: SimTime,
) -> bool {
    let task = Task::new(1_000_000 + seq, now.as_f64(), 10.0, 1.0e6);
    let request = SubmitRequest::new(task);
    conn.send(&ClientMsg::Submit { seq, request });
    loop {
        match conn.recv(server, now) {
            ServerMsg::Verdict { seq: got, .. } => return got == seq,
            ServerMsg::Update { .. } => continue,
            _ => return false,
        }
    }
}

/// Acks are bytes from outside the program too: a follower link that sends
/// a bad magic, a length prefix over the cap, a flipped checksum or a
/// message that is not an ack is dropped and counted, and a client on the
/// same reactor keeps getting its verdicts.
#[test]
fn hostile_follower_bytes_end_the_link_not_the_edge() {
    let mut ack = Vec::new();
    encode_msg(&ShipMsg::Ack { seq: 1 }, &mut ack);
    let mut bad_magic = ack.clone();
    bad_magic[..2].copy_from_slice(b"XX");
    let mut oversized = ack[..HEADER_LEN].to_vec();
    oversized[4..8].copy_from_slice(&(wire::MAX_SHIP_FRAME as u32 + 1).to_le_bytes());
    let mut flipped = ack.clone();
    *flipped.last_mut().unwrap() ^= 0x01;
    let mut not_an_ack = Vec::new();
    encode_msg(&ShipMsg::Heartbeat { epoch: 0, head: 0 }, &mut not_an_ack);
    let now = SimTime::new(1.0e6);
    for (what, hostile) in [
        ("bad magic", bad_magic),
        ("length prefix over the cap", oversized),
        ("flipped checksum", flipped),
        ("not an ack", not_an_ack),
    ] {
        // A shipping edge whose reactor's link is handed to a hostile
        // standby before its first turn.
        let scenario = Scenario::new(JournalConfig::default()).follow(Follow::clean(1));
        let mut world = World::edge(vec![baseline_gateway(2)], scenario, EdgeConfig::default());
        let net = world.net().clone();
        let (primary_end, mut standby) = net.link(FaultPlan::clean(3), FaultPlan::clean(4));
        world.reactors_mut()[0].follow(primary_end).unwrap();
        let mut client = InlineClient::greeted(&net, &mut world, now);
        assert!(answered(&mut world, &mut client, 1, now), "{what}");
        // An honest ack first: the link takes it.
        standby.send(&ack);
        standby.send(&hostile);
        for _ in 0..2_000 {
            if world.stats()[0].links_dropped > 0 {
                break;
            }
            world.poll(now);
        }
        assert_eq!(
            world.stats()[0].links_dropped,
            1,
            "{what}: the link survived"
        );
        let shipper = world.reactors()[0].gateway().shipper();
        assert_eq!(shipper.map(Shipper::acked), Some(1), "{what}");
        assert!(answered(&mut world, &mut client, 2, now), "{what}");
    }
}
