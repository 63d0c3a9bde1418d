//! Sharded-edge acceptance: a real [`EdgeCluster`] — N reactor threads,
//! epoll-driven, connections bound by `Hello { tenant }` to their tenant's
//! home reactor — over real loopback TCP.
//!
//! The properties:
//!
//! * **Reconciliation** — a mixed-tenant stream fanned across ≥2 reactors
//!   reconciles client- and server-side books *exactly*, and every
//!   connection's submits land on (only) its tenant's home reactor.
//! * **Routing** — every submit is decided on its tenant's home reactor or
//!   refused: an unbound connection's submit homed elsewhere, and a bound
//!   connection's submit for another tenant, fail that connection alone.
//! * **Durability** — a journaled cluster (one WAL file per reactor)
//!   killed mid-stream recovers every reactor's book from its own WAL and
//!   restarts with the same reactor count, so every tenant hashes back to
//!   the reactor holding its recovered state.
//! * **Push affinity** — a `Reserved` promise activated by reactor A's
//!   gateway is pushed on the connection pinned to reactor A; the other
//!   reactor never sees the update (the pending entry and the socket live
//!   on the same thread by construction).
//! * **Per-reactor telemetry** — each reactor carries its own handle, read
//!   by an ops connection bound to one of its tenants.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rtdls_core::dlt::homogeneous;
use rtdls_core::prelude::*;
use rtdls_edge::codec::{FrameDecoder, DEFAULT_MAX_FRAME};
use rtdls_edge::prelude::*;
use rtdls_edge::proto::{decode_server, encode_client};
use rtdls_journal::prelude::*;
use rtdls_service::prelude::*;
use rtdls_workload::prelude::*;

fn sharded(shards: usize) -> ShardedGateway {
    ShardedGateway::new(
        ClusterParams::paper_baseline(),
        shards,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap()
}

/// A request stream whose every submit carries `tenant` — one client
/// connection's traffic, pinned end to end to that tenant's home reactor.
fn tenant_stream(n: usize, seed: u64, tenant: TenantId) -> Vec<SubmitRequest> {
    let mix = TenantMix {
        tenants: 6,
        premium_tenants: 1,
        best_effort_tenants: 2,
        max_delay_factor: None,
    };
    let spec = WorkloadSpec::paper_baseline(1.2);
    let mut requests: Vec<SubmitRequest> = WorkloadGenerator::new(spec, seed)
        .take(n)
        .with_tenants(mix)
        .collect();
    for r in &mut requests {
        r.tenant = tenant;
    }
    requests
}

/// The first tenant id whose home is reactor `home` in a cluster of
/// `reactors` — the test's way of steering a connection deterministically.
fn tenant_homed_at(home: usize, reactors: usize) -> TenantId {
    (0u32..1024)
        .map(TenantId)
        .find(|t| reactor_for_tenant(*t, reactors) == home)
        .expect("some tenant hashes to every reactor")
}

#[test]
fn mixed_tenant_stream_across_reactors_reconciles_exactly() {
    const REACTORS: usize = 4;
    const PER_CLIENT: usize = 50;
    let tenants: Vec<TenantId> = (0..6).map(TenantId).collect();
    let homes: HashSet<usize> = tenants
        .iter()
        .map(|t| reactor_for_tenant(*t, REACTORS))
        .collect();
    assert!(homes.len() >= 2, "the tenant set spans reactors: {homes:?}");

    let gateways: Vec<_> = (0..REACTORS).map(|_| sharded(2)).collect();
    let cluster = EdgeCluster::bind("127.0.0.1:0", gateways, EdgeConfig::default()).unwrap();
    let addr = cluster.local_addr();
    let stop = AtomicBool::new(false);
    let (results, reports) = std::thread::scope(|s| {
        let server = s.spawn(|| cluster.run(EdgeClock::real_time(), &stop));
        let stopping = StopOnDrop(&stop);
        let clients: Vec<_> = tenants
            .iter()
            .map(|t| {
                let stream = tenant_stream(PER_CLIENT, 100 + t.0 as u64, *t);
                s.spawn(move || {
                    ReplayClient::connect(addr)
                        .and_then(|client| client.bind(stream[0].tenant))
                        .unwrap()
                        .run(
                            stream,
                            16,
                            Duration::from_millis(150),
                            Duration::from_secs(60),
                        )
                        .unwrap()
                })
            })
            .collect();
        let reports: Vec<ReplayReport> = clients.into_iter().map(|h| h.join().unwrap()).collect();
        drop(stopping);
        (server.join().unwrap(), reports)
    });

    let total = (tenants.len() * PER_CLIENT) as u64;
    for r in &reports {
        assert!(!r.timed_out, "all verdicts arrived: {r:?}");
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.verdicts(), PER_CLIENT as u64, "one verdict per submit");
    }
    // Client-side tallies and the union of per-reactor books are the same
    // history, outcome by outcome.
    let sum_c = |f: fn(&ReplayReport) -> u64| reports.iter().map(f).sum::<u64>();
    let metrics: Vec<_> = results.iter().map(|(g, _)| g.metrics()).collect();
    assert_eq!(metrics.iter().map(|m| m.submitted).sum::<u64>(), total);
    assert_eq!(
        metrics.iter().map(|m| m.accepted_immediate).sum::<u64>(),
        sum_c(|r| r.accepted)
    );
    assert_eq!(
        metrics.iter().map(|m| m.deferred).sum::<u64>(),
        sum_c(|r| r.deferred)
    );
    assert_eq!(
        metrics.iter().map(|m| m.reserved).sum::<u64>(),
        sum_c(|r| r.reserved)
    );
    assert_eq!(
        metrics.iter().map(|m| m.rejected_immediate).sum::<u64>(),
        sum_c(|r| r.rejected)
    );
    // Shard affinity is exact: reactor i's book holds precisely the
    // streams of the tenants hashed to it.
    for (i, m) in metrics.iter().enumerate() {
        let expected = tenants
            .iter()
            .filter(|t| reactor_for_tenant(**t, REACTORS) == i)
            .count() as u64
            * PER_CLIENT as u64;
        assert_eq!(
            m.submitted, expected,
            "reactor {i} serves exactly its tenants' submits"
        );
    }
    let stats = EdgeStats::merged(&results.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    assert_eq!(stats.submits, total);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.connections_accepted, tenants.len() as u64);
    let away_from_zero = tenants
        .iter()
        .filter(|t| reactor_for_tenant(**t, REACTORS) != 0)
        .count() as u64;
    assert_eq!(
        stats.conns_adopted, away_from_zero,
        "every off-zero-homed connection was adopted exactly once"
    );
}

#[test]
fn killed_cluster_recovers_per_reactor_wals_with_the_same_reactor_count() {
    const REACTORS: usize = 2;
    let pid = std::process::id();
    let wals: Vec<std::path::PathBuf> = (0..REACTORS)
        .map(|i| std::env::temp_dir().join(format!("rtdls-cluster-{pid}-{i}.wal")))
        .collect();
    for w in &wals {
        let _ = std::fs::remove_file(w);
        let _ = std::fs::remove_file(w.with_extension("wal.spare"));
    }
    let journal_cfg = JournalConfig {
        snapshot_every: 32,
        compact_on_snapshot: true,
    };
    let tenants: Vec<TenantId> = (0..REACTORS)
        .map(|i| tenant_homed_at(i, REACTORS))
        .collect();
    let streams: Vec<Vec<SubmitRequest>> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| tenant_stream(80, 40 + i as u64, *t))
        .collect();

    let run_halves = |cluster: EdgeCluster<_>, halves: Vec<Vec<SubmitRequest>>| {
        let addr = cluster.local_addr();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let server = s.spawn(|| cluster.run(EdgeClock::real_time(), &stop));
            let stopping = StopOnDrop(&stop);
            let clients: Vec<_> = halves
                .into_iter()
                .map(|half| {
                    s.spawn(move || {
                        ReplayClient::connect(addr)
                            .and_then(|client| client.bind(half[0].tenant))
                            .unwrap()
                            .run(half, 8, Duration::from_millis(50), Duration::from_secs(60))
                            .unwrap()
                    })
                })
                .collect();
            let reports: Vec<ReplayReport> =
                clients.into_iter().map(|h| h.join().unwrap()).collect();
            drop(stopping);
            (server.join().unwrap(), reports)
        })
    };

    // Generation 1: a journaled cluster — one WAL file per reactor, each
    // group-committed by its own reactor thread — serves the first halves,
    // then is killed (gateways dropped, no finalize).
    {
        let gateways: Vec<_> = wals
            .iter()
            .map(|w| {
                let sink = FileSink::create(w)
                    .unwrap()
                    .with_fsync_policy(FsyncPolicy::Batch(8));
                JournaledGateway::with_sink(sharded(2), journal_cfg, Box::new(sink))
            })
            .collect();
        let cluster = EdgeCluster::bind("127.0.0.1:0", gateways, EdgeConfig::default()).unwrap();
        let halves: Vec<_> = streams.iter().map(|s| s[..50].to_vec()).collect();
        let (dead, reports) = run_halves(cluster, halves);
        for r in &reports {
            assert!(!r.timed_out);
            assert_eq!(r.verdicts(), 50);
        }
        drop(dead); // the "crash": every reactor's in-memory book is gone
    }

    // Recovery: each WAL alone rebuilds its reactor's book. Placement is
    // deterministic (FNV over the tenant id), so slot i's recovered
    // gateway is exactly the one tenant i's connections will hash back to.
    let recover_at = SimTime::new(10_000.0);
    let mut recovered = Vec::new();
    for w in &wals {
        let (g, report) = recover_file_with_policy::<ShardedGateway>(
            w,
            recover_at,
            journal_cfg,
            FsyncPolicy::Batch(8),
        )
        .unwrap();
        assert!(report.frames_decoded > 0);
        assert_eq!(
            g.metrics().submitted,
            50,
            "each reactor's WAL holds exactly its tenant's first half"
        );
        recovered.push(g);
    }

    // Generation 2: same reactor count, connection ids bumped past the
    // first generation's so freshly minted task ids can never collide
    // with still-journaled pre-crash ones.
    let cfg = EdgeConfig {
        first_conn_id: 1 << 20,
        ..Default::default()
    };
    let cluster = EdgeCluster::bind("127.0.0.1:0", recovered, cfg).unwrap();
    let halves: Vec<_> = streams.iter().map(|s| s[50..].to_vec()).collect();
    let (results, reports) = run_halves(cluster, halves);
    for r in &reports {
        assert!(!r.timed_out);
        assert_eq!(r.verdicts(), 30, "the restarted cluster serves");
    }
    for (i, (g, _)) in results.iter().enumerate() {
        assert_eq!(
            g.metrics().submitted,
            80,
            "reactor {i}: one continuous book across the crash"
        );
    }
    for w in &wals {
        let _ = std::fs::remove_file(w);
        let _ = std::fs::remove_file(w.with_extension("wal.spare"));
    }
}

/// A blocking wire-speaking client for a cluster running in background
/// threads (the inline single-threaded harness cannot drive a cluster).
struct WireClient {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl WireClient {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .unwrap();
        WireClient {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME),
        }
    }

    fn send(&mut self, msg: &ClientMsg) {
        self.stream.write_all(&encode_client(msg)).unwrap();
    }

    /// Binds the connection to `tenant`, as a tenant's client must before
    /// submitting to a cluster whose accepting reactor is not its home.
    fn bind(&mut self, tenant: TenantId) {
        self.send(&ClientMsg::Hello {
            protocol: PROTOCOL_VERSION,
            tenant: Some(tenant),
        });
    }

    fn recv(&mut self, deadline: Duration) -> ServerMsg {
        self.next_or_close(deadline)
            .expect("server closed the connection")
    }

    /// The next message, or `None` once the server has closed the
    /// connection and every frame it sent was read.
    fn next_or_close(&mut self, deadline: Duration) -> Option<ServerMsg> {
        let start = Instant::now();
        loop {
            if let Some((_, payload)) = self.decoder.next_frame_ref().unwrap() {
                return Some(decode_server(payload).unwrap());
            }
            assert!(start.elapsed() < deadline, "no message within {deadline:?}");
            let mut buf = [0u8; 8192];
            match self.stream.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return None,
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }
}

/// Sets the cluster's stop flag when dropped, so a failed assertion in a
/// client stops the reactors instead of hanging the test.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A submit of `tenant`'s task `id`, small enough for an idle book.
fn submit(seq: u64, id: u64, tenant: TenantId) -> ClientMsg {
    ClientMsg::Submit {
        seq,
        request: SubmitRequest::new(Task::new(id, 0.0, 100.0, 1.0e6)).with_tenant(tenant),
    }
}

/// One unbound connection alternating tenant 1 (home reactor 0) and tenant
/// 0 (home reactor 1): every verdict comes from its tenant's home book.
/// The accepting reactor decides tenant 1's first submit; the first submit
/// homed elsewhere is refused with an `Error` naming the home reactor and
/// the `Hello { tenant }` that reaches it, and the connection drains.
#[test]
fn an_unbound_connection_is_decided_only_on_its_tenants_home() {
    const REACTORS: usize = 2;
    let tenants = [TenantId(1), TenantId(0)];
    let homes = tenants.map(|t| reactor_for_tenant(t, REACTORS));
    assert_eq!(homes, [0, 1]);
    let gateways: Vec<_> = (0..REACTORS).map(|_| sharded(2)).collect();
    let cluster = EdgeCluster::bind("127.0.0.1:0", gateways, EdgeConfig::default()).unwrap();
    let addr = cluster.local_addr();
    let stop = AtomicBool::new(false);
    let (results, verdicts, errors) = std::thread::scope(|s| {
        let server = s.spawn(|| cluster.run(EdgeClock::real_time(), &stop));
        let stopping = StopOnDrop(&stop);
        let mut client = WireClient::connect(addr);
        // All 100 in one write: the connection may close after any of them.
        let frames: Vec<u8> = (0..100u64)
            .flat_map(|seq| encode_client(&submit(seq, seq, tenants[seq as usize % 2])))
            .collect();
        client.stream.write_all(&frames).unwrap();
        let (mut verdicts, mut errors) = (Vec::new(), Vec::new());
        while verdicts.len() + errors.len() < 100 {
            let Some(msg) = client.next_or_close(Duration::from_secs(20)) else {
                break;
            };
            match msg {
                ServerMsg::Verdict { seq, .. } => verdicts.push(seq),
                ServerMsg::Error { seq, message } => errors.push((seq, message)),
                _ => {}
            }
        }
        drop(stopping);
        (server.join().unwrap(), verdicts, errors)
    });
    for (i, (g, _)) in results.iter().enumerate() {
        let homed_here = verdicts
            .iter()
            .filter(|seq| homes[**seq as usize % 2] == i)
            .count() as u64;
        assert_eq!(
            g.metrics().submitted,
            homed_here,
            "reactor {i} decided exactly the verdicts of its own tenants ({verdicts:?})"
        );
    }
    assert_eq!(verdicts, [0], "tenant 1's first submit, on its home");
    assert_eq!(errors.len(), 1, "{errors:?}");
    let (seq, message) = &errors[0];
    assert_eq!(*seq, Some(1), "the first foreign submit is refused");
    assert!(
        message.contains("homed on reactor 1") && message.contains("Hello { tenant }"),
        "{message}"
    );
}

/// Two bound sockets, the impostor's tenant homed on the accepting reactor
/// and the victim's handed off to reactor 1: the impostor's submit for the
/// victim's tenant is refused with an `Error` and its connection drains;
/// the victim's submits before and after are decided on its home.
#[test]
fn an_impostor_is_refused_across_a_hand_off() {
    const REACTORS: usize = 2;
    let victim_tenant = tenant_homed_at(1, REACTORS);
    let impostor_tenant = tenant_homed_at(0, REACTORS);
    let gateways: Vec<_> = (0..REACTORS).map(|_| sharded(2)).collect();
    let cluster = EdgeCluster::bind("127.0.0.1:0", gateways, EdgeConfig::default()).unwrap();
    let addr = cluster.local_addr();
    let stop = AtomicBool::new(false);
    let wait = Duration::from_secs(10);
    let results = std::thread::scope(|s| {
        let server = s.spawn(|| cluster.run(EdgeClock::real_time(), &stop));
        let stopping = StopOnDrop(&stop);
        let mut victim = WireClient::connect(addr);
        let mut impostor = WireClient::connect(addr);
        for (client, tenant) in [
            (&mut victim, victim_tenant),
            (&mut impostor, impostor_tenant),
        ] {
            client.bind(tenant);
            assert!(matches!(client.recv(wait), ServerMsg::Hello { .. }));
        }
        victim.send(&submit(0, 1, victim_tenant));
        let msg = victim.recv(wait);
        assert!(matches!(msg, ServerMsg::Verdict { seq: 0, .. }), "{msg:?}");
        impostor.send(&submit(0, 1, victim_tenant));
        let msg = impostor.recv(wait);
        assert!(
            matches!(&msg, ServerMsg::Error { seq: Some(0), message }
                if message.contains(&format!("bound to tenant {}", impostor_tenant.0))),
            "{msg:?}"
        );
        assert!(
            impostor.next_or_close(wait).is_none(),
            "the impostor drains"
        );
        victim.send(&submit(1, 2, victim_tenant));
        let msg = victim.recv(wait);
        assert!(matches!(msg, ServerMsg::Verdict { seq: 1, .. }), "{msg:?}");
        drop(stopping);
        server.join().unwrap()
    });
    let (g0, s0) = &results[0];
    let (g1, s1) = &results[1];
    assert_eq!(g1.metrics().submitted, 2, "the victim's home decided both");
    assert_eq!(
        g0.metrics().submitted,
        0,
        "the impostor's submit reached no book"
    );
    assert_eq!(s1.conns_adopted, 1, "the victim was handed off");
    assert_eq!((s0.protocol_errors, s1.protocol_errors), (1, 0));
}

/// One telemetry handle per reactor: an ops connection bound to a tenant
/// homed on reactor 1 reads reactor 1's phase table and traces.
#[test]
fn each_cluster_reactor_carries_its_own_telemetry() {
    const REACTORS: usize = 2;
    let tenant = tenant_homed_at(1, REACTORS);
    let gateways: Vec<_> = (0..REACTORS).map(|_| sharded(2)).collect();
    let mut cluster = EdgeCluster::bind("127.0.0.1:0", gateways, EdgeConfig::default()).unwrap();
    for reactor in cluster.reactors_mut() {
        reactor.set_telemetry(&rtdls_telemetry::Telemetry::new(Default::default()));
    }
    let addr = cluster.local_addr();
    let stop = AtomicBool::new(false);
    let wait = Duration::from_secs(10);
    std::thread::scope(|s| {
        let server = s.spawn(|| cluster.run(EdgeClock::real_time(), &stop));
        let stopping = StopOnDrop(&stop);
        let report = ReplayClient::connect(addr)
            .and_then(|client| client.bind(tenant))
            .unwrap()
            .run(
                tenant_stream(40, 7, tenant),
                8,
                Duration::from_millis(50),
                Duration::from_secs(60),
            )
            .unwrap();
        assert_eq!(report.verdicts(), 40, "{report:?}");
        let mut ops = OpsClient::connect(addr)
            .and_then(|client| client.bind(tenant))
            .unwrap();
        let phases = ops.profile(wait).unwrap();
        let paths: Vec<&str> = phases.iter().map(|p| p.path.as_str()).collect();
        assert!(
            paths.contains(&"edge/read") && paths.contains(&"gateway/plan"),
            "{paths:?}"
        );
        assert!(!ops.recent_traces(wait).unwrap().is_empty());
        drop(stopping);
        server.join().unwrap();
    });
}

/// The canonical reservation scenario, served by a 2-reactor cluster: the
/// tenant hashes to reactor 1, so the connection (accepted on reactor 0)
/// is adopted there; when reactor 1's gateway activates the promise, the
/// push must leave on that same reactor's connection.
#[test]
fn reserved_activation_pushes_on_the_owning_reactor() {
    const REACTORS: usize = 2;
    let tenant = tenant_homed_at(1, REACTORS);
    let p = ClusterParams::paper_baseline();
    let e16 = homogeneous::exec_time(&p, 800.0, 16);
    let e15 = homogeneous::exec_time(&p, 800.0, 15);
    let slack_w = (e15 - e16) * 0.75;
    let slack_c = slack_w * 0.8;
    let avail = SimTime::new(1000.0);
    // Only reactor 1's gateway is saturated until t=1000 — proof that the
    // verdicts below came from the home reactor's book, not reactor 0's.
    let gateways: Vec<ShardedGateway> = (0..REACTORS)
        .map(|i| {
            let mut g = ShardedGateway::new(
                p,
                1,
                AlgorithmKind::EDF_OPR_MN,
                PlanConfig::default(),
                Routing::LeastLoaded,
                DeferPolicy::default(),
            )
            .unwrap();
            if i == 1 {
                for node in 0..16 {
                    g.node_released(node, avail);
                }
            }
            g
        })
        .collect();
    let cluster = EdgeCluster::bind("127.0.0.1:0", gateways, EdgeConfig::default()).unwrap();
    let addr = cluster.local_addr();
    let stop = AtomicBool::new(false);
    // 250 simulated seconds per wall second: the submits land within the
    // first few sim seconds, the t=1000 activation ~4 wall seconds in.
    let clock = EdgeClock::starting_at(SimTime::ZERO, 250.0);
    let results = std::thread::scope(|s| {
        let server = s.spawn(|| cluster.run(clock, &stop));
        let stopping = StopOnDrop(&stop);
        let mut client = WireClient::connect(addr);
        client.bind(tenant);
        assert!(matches!(
            client.recv(Duration::from_secs(10)),
            ServerMsg::Hello {
                protocol: PROTOCOL_VERSION
            }
        ));
        // The all-node blocker, decided by reactor 1, the bound tenant's
        // home.
        client.send(&ClientMsg::Submit {
            seq: 0,
            request: SubmitRequest::new(Task::new(1, 0.0, 800.0, 1000.0 + e16 + slack_w))
                .with_tenant(tenant),
        });
        let msg = client.recv(Duration::from_secs(10));
        assert!(
            matches!(
                msg,
                ServerMsg::Verdict {
                    seq: 0,
                    task: 1,
                    verdict: Verdict::Accepted
                }
            ),
            "{msg:?}"
        );
        // The starved candidate books a reservation at the blocker's
        // dispatch.
        client.send(&ClientMsg::Submit {
            seq: 1,
            request: SubmitRequest::new(Task::new(2, 0.0, 10.0, 1000.0 + e16 + slack_c))
                .with_tenant(tenant)
                .with_max_delay(Some(2000.0)),
        });
        let msg = client.recv(Duration::from_secs(10));
        let ServerMsg::Verdict {
            seq: 1,
            task: 2,
            verdict: Verdict::Reserved { start_at, ticket },
        } = msg
        else {
            panic!("expected Reserved, got {msg:?}");
        };
        assert_eq!(start_at, avail, "promised at the blocker's dispatch");
        // The cluster's clock reaches start_at; reactor 1 activates the
        // reservation and pushes the resolution — the client sends
        // nothing further.
        let msg = client.recv(Duration::from_secs(30));
        let ServerMsg::Update {
            update:
                DecisionUpdate::Activated {
                    ticket: pushed_ticket,
                    task: 2,
                    admitted: true,
                    ..
                },
        } = msg
        else {
            panic!("expected the pushed activation, got {msg:?}");
        };
        assert_eq!(pushed_ticket, ticket, "the promise the client holds");
        drop(stopping);
        server.join().unwrap()
    });
    let (g0, s0) = &results[0];
    let (g1, s1) = &results[1];
    assert_eq!(s0.connections_accepted, 1, "reactor 0 accepted");
    assert_eq!(s1.conns_adopted, 1, "reactor 1 adopted the connection");
    assert_eq!(g1.metrics().submitted, 2, "the home reactor decided both");
    assert_eq!(g0.metrics().submitted, 0, "reactor 0's book untouched");
    assert_eq!(g1.metrics().reservations_activated, 1);
    assert_eq!(
        s1.updates_pushed, 1,
        "the activation left on the owning reactor"
    );
    assert_eq!(s0.updates_pushed, 0, "no cross-reactor misdelivery");
    assert_eq!(s1.updates_dropped + s0.updates_dropped, 0);
}

/// Placement hashes the tenant id with FNV-1a 64 whatever checksum the
/// frames carry: a tenant's reactor, and so its WAL, must not move between
/// releases.
#[test]
fn tenant_placement_is_pinned() {
    let homes = |reactors| -> Vec<usize> {
        (0u32..16)
            .map(|t| reactor_for_tenant(TenantId(t), reactors))
            .collect()
    };
    assert_eq!(homes(4), [1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 2]);
    assert_eq!(homes(3), [2, 1, 2, 1, 0, 1, 2, 1, 1, 0, 1, 0, 2, 0, 1, 0]);
}
