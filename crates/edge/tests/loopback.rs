//! End-to-end edge acceptance tests: a wire-speaking client against the
//! reactor.
//!
//! Three acceptance properties:
//!
//! * **Verdict conformance** — a mixed multi-tenant stream submitted over
//!   a real loopback socket receives byte-decodable v2 verdicts whose
//!   client-side counts reconcile exactly with the server-side gateway book.
//! * **Verdict streaming** — a `Reserved` promise resolves by a *pushed*
//!   activation update, with the client never sending another byte
//!   (driven inline under a manual clock, so the activation instant is
//!   deterministic).
//! * **Durability** — a journaled edge killed mid-stream recovers its book
//!   from the WAL file alone and keeps serving the remainder.
//!
//! The inline tests turn the reactor by hand over the in-memory transport
//! (`rtdls_world::mem::Mem`), at instants they choose; the threaded smokes run it on
//! epoll. `the_in_memory_transport_serves_byte_for_byte_what_epoll_serves`
//! holds the two transports to the same output.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtdls_core::dlt::homogeneous;
use rtdls_core::prelude::*;
use rtdls_edge::prelude::*;
use rtdls_edge::proto::encode_client;
use rtdls_journal::prelude::*;
use rtdls_service::prelude::*;
use rtdls_workload::prelude::*;
use rtdls_world::mem::{mem_server, Dial, InlineClient, Mem, MemClient, MemNet, Probe};

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

fn request_stream(n: usize, seed: u64) -> Vec<SubmitRequest> {
    let mix = TenantMix {
        tenants: 6,
        premium_tenants: 1,
        best_effort_tenants: 2,
        max_delay_factor: None,
    };
    let spec = WorkloadSpec::paper_baseline(1.2);
    WorkloadGenerator::new(spec, seed)
        .take(n)
        .with_tenants(mix)
        .collect()
}

/// Serves `gateway` on an ephemeral port in a background thread until the
/// returned stop flag is set; the join handle yields the gateway back.
fn spawn_server<G: EdgeGateway + Send + 'static>(
    gateway: G,
    clock: EdgeClock,
) -> (
    std::net::SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<(G, EdgeStats)>,
) {
    let server = EdgeServer::bind("127.0.0.1:0", gateway, EdgeConfig::default()).unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(clock, &stop2));
    (addr, stop, handle)
}

#[test]
fn loopback_mixed_tenant_stream_reconciles_client_and_server_books() {
    let gateway = sharded(4).with_quota(QuotaPolicy {
        max_inflight: Some(6),
        ..Default::default()
    });
    let (addr, stop, handle) = spawn_server(gateway, EdgeClock::real_time());
    let requests = request_stream(300, 11);
    let report = ReplayClient::connect(addr)
        .unwrap()
        .run(
            requests,
            16,
            Duration::from_millis(150),
            Duration::from_secs(60),
        )
        .unwrap();
    stop.store(true, Ordering::Relaxed);
    let (gateway, stats) = handle.join().unwrap();

    assert!(!report.timed_out, "all verdicts arrived: {report:?}");
    assert_eq!(report.submitted, 300);
    assert_eq!(report.verdicts(), 300, "one verdict per submit");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.accepted > 0, "an idle cluster accepts the head");
    assert!(
        report.rejected + report.deferred + report.throttled > 0,
        "an overloaded burst cannot be all-accepted: {report:?}"
    );
    // The client's tally and the gateway's book are the same history.
    let m = gateway.metrics();
    assert_eq!(m.submitted, 300);
    assert_eq!(m.accepted_immediate, report.accepted);
    assert_eq!(m.deferred, report.deferred);
    assert_eq!(m.reserved, report.reserved);
    assert_eq!(m.rejected_immediate, report.rejected);
    assert_eq!(m.throttled, report.throttled);
    // Every pushed update concerned a parked (deferred/reserved) task.
    assert!(report.updates.len() as u64 <= report.deferred + report.reserved);
    assert_eq!(stats.submits, 300);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.connections_accepted, 1);
}

/// The canonical reservation scenario from the service layer, served over
/// the wire: all 16 nodes committed until t=1000, a waiting all-node task,
/// and a small EDF-earlier candidate that is only admissible once the
/// blocker dispatches.
#[test]
fn reserved_verdict_streams_its_activation_without_polling() {
    let p = ClusterParams::paper_baseline();
    let e16 = homogeneous::exec_time(&p, 800.0, 16);
    let e15 = homogeneous::exec_time(&p, 800.0, 15);
    let slack_w = (e15 - e16) * 0.75;
    let slack_c = slack_w * 0.8;
    let avail = SimTime::new(1000.0);
    let (mut server, net) = mem_server(saturated_until(avail), EdgeConfig::default());
    let mut client = InlineClient::connect(&net);
    let t0 = SimTime::ZERO;

    assert!(matches!(
        client.recv(&mut server, t0),
        ServerMsg::Hello {
            protocol: PROTOCOL_VERSION
        }
    ));
    // The all-node blocker is accepted.
    let w = Task::new(1, 0.0, 800.0, 1000.0 + e16 + slack_w);
    client.send(&ClientMsg::Submit {
        seq: 0,
        request: SubmitRequest::new(w),
    });
    let msg = client.recv(&mut server, t0);
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
    // The starved candidate books a reservation at the blocker's dispatch.
    let c = Task::new(2, 0.0, 10.0, 1000.0 + e16 + slack_c);
    client.send(&ClientMsg::Submit {
        seq: 1,
        request: SubmitRequest::new(c)
            .with_tenant(TenantId(7))
            .with_max_delay(Some(2000.0)),
    });
    let msg = client.recv(&mut server, t0);
    let ServerMsg::Verdict {
        seq: 1,
        task: 2,
        verdict: Verdict::Reserved { start_at, ticket },
    } = msg
    else {
        panic!("expected Reserved, got {msg:?}");
    };
    assert_eq!(start_at, avail, "promised at the blocker's dispatch");
    // The clock reaches start_at: the edge dispatches the blocker,
    // activates the reservation, and PUSHES the resolution — the client
    // sends nothing further.
    let msg = client.recv(&mut server, avail);
    assert_eq!(
        msg,
        ServerMsg::Update {
            update: DecisionUpdate::Activated {
                ticket,
                task: 2,
                at: avail,
                admitted: true,
            }
        },
        "the activation streamed to the still-connected client"
    );
    let g = server.gateway();
    assert_eq!(g.metrics().reservations_activated, 1);
    assert_eq!(server.stats().updates_pushed, 1);
}

/// A `Deferred` promise must resolve even on an edge that never receives
/// another byte: the defer queue's expiry deadline is part of the
/// reactor's timed-work schedule, so the sweep runs — and pushes the
/// resolution — with zero client traffic.
#[test]
fn defer_expiry_is_pushed_on_an_otherwise_idle_server() {
    let p = ClusterParams::paper_baseline();
    let e16 = homogeneous::exec_time(&p, 800.0, 16);
    let gateway = ShardedGateway::new(
        p,
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let (mut server, net) = mem_server(gateway, EdgeConfig::default());
    let mut client = InlineClient::connect(&net);
    let t0 = SimTime::ZERO;
    assert!(matches!(
        client.recv(&mut server, t0),
        ServerMsg::Hello { .. }
    ));
    // A blocker saturates the cluster; the near miss parks with
    // latest_start = 0.5·e16 (its deadline minus an idle-cluster run).
    client.send(&ClientMsg::Submit {
        seq: 0,
        request: SubmitRequest::new(Task::new(1, 0.0, 800.0, e16 * 1.05)),
    });
    assert!(matches!(
        client.recv(&mut server, t0),
        ServerMsg::Verdict {
            verdict: Verdict::Accepted,
            ..
        }
    ));
    client.send(&ClientMsg::Submit {
        seq: 1,
        request: SubmitRequest::new(Task::new(2, 0.0, 800.0, e16 * 1.5)),
    });
    let msg = client.recv(&mut server, t0);
    let ServerMsg::Verdict {
        task: 2,
        verdict: Verdict::Deferred { ticket, .. },
        ..
    } = msg
    else {
        panic!("expected Deferred, got {msg:?}");
    };
    // The client goes silent; only the clock advances past the deadline.
    let late = SimTime::new(e16 * 2.0);
    let msg = client.recv(&mut server, late);
    assert!(
        matches!(
            msg,
            ServerMsg::Update {
                update: DecisionUpdate::Resolved {
                    task: 2,
                    ticket: Some(t),
                    admitted: false,
                    cause: Some(_),
                }
            } if t == ticket
        ),
        "the expiry streamed without any client traffic: {msg:?}"
    );
}

#[test]
fn protocol_violations_are_answered_and_close_the_connection() {
    // Garbage bytes → Error + close.
    let (mut server, net) = mem_server(sharded(2), EdgeConfig::default());
    let mut client = InlineClient::connect(&net);
    let now = SimTime::ZERO;
    assert!(matches!(
        client.recv(&mut server, now),
        ServerMsg::Hello { .. }
    ));
    client.send_raw(b"XXXXXXXXXXXXXXXXXXXXXXXX");
    let msg = client.recv(&mut server, now);
    assert!(
        matches!(&msg, ServerMsg::Error { message, .. } if message.contains("corrupt")),
        "{msg:?}"
    );
    for _ in 0..20 {
        server.poll(now);
    }
    assert_eq!(server.connections(), 0, "violator was disconnected");
    assert_eq!(server.stats().protocol_errors, 1);

    // An oversized length prefix is refused before any allocation.
    let mut client = InlineClient::connect(&net);
    assert!(matches!(
        client.recv(&mut server, now),
        ServerMsg::Hello { .. }
    ));
    let mut hdr = Vec::new();
    hdr.extend_from_slice(b"RE");
    hdr.push(1);
    hdr.push(1);
    hdr.extend_from_slice(&u32::MAX.to_le_bytes());
    hdr.extend_from_slice(&[0u8; 8]);
    client.send_raw(&hdr);
    let msg = client.recv(&mut server, now);
    assert!(
        matches!(&msg, ServerMsg::Error { message, .. } if message.contains("oversized")),
        "{msg:?}"
    );

    // A protocol-version mismatch fails fast.
    let mut client = InlineClient::connect(&net);
    assert!(matches!(
        client.recv(&mut server, now),
        ServerMsg::Hello { .. }
    ));
    client.send(&ClientMsg::Hello {
        protocol: 999,
        tenant: None,
    });
    let msg = client.recv(&mut server, now);
    assert!(matches!(&msg, ServerMsg::Error { message, .. } if message.contains("unsupported")));
}

/// Two sockets bound by `Hello { tenant }` to two tenants on one reactor.
/// The impostor's submit for the victim's tenant is answered `Error` and
/// its connection drains; the victim's submits before and after are
/// decided as if nothing happened.
#[test]
fn a_bound_socket_cannot_speak_for_another_tenant() {
    let (mut server, net) = mem_server(sharded(2), EdgeConfig::default());
    let now = SimTime::ZERO;
    let (victim_tenant, impostor_tenant) = (TenantId(1), TenantId(2));
    let submit = |seq, tenant| ClientMsg::Submit {
        seq,
        request: SubmitRequest::new(Task::new(seq + 1, 0.0, 100.0, 1.0e6)).with_tenant(tenant),
    };
    let mut victim = InlineClient::connect(&net);
    let mut impostor = InlineClient::connect(&net);
    for (client, tenant) in [
        (&mut victim, victim_tenant),
        (&mut impostor, impostor_tenant),
    ] {
        assert!(matches!(
            client.recv(&mut server, now),
            ServerMsg::Hello { .. }
        ));
        client.send(&ClientMsg::Hello {
            protocol: PROTOCOL_VERSION,
            tenant: Some(tenant),
        });
    }
    victim.send(&submit(0, victim_tenant));
    let msg = victim.recv(&mut server, now);
    assert!(matches!(msg, ServerMsg::Verdict { seq: 0, .. }), "{msg:?}");

    impostor.send(&submit(0, victim_tenant));
    let msg = impostor.recv(&mut server, now);
    assert!(
        matches!(&msg, ServerMsg::Error { seq: Some(0), message }
            if message == "connection is bound to tenant 2, not 1"),
        "{msg:?}"
    );
    assert!(impostor.closed(&mut server, now), "the impostor drains");

    victim.send(&submit(1, victim_tenant));
    let msg = victim.recv(&mut server, now);
    assert!(matches!(msg, ServerMsg::Verdict { seq: 1, .. }), "{msg:?}");
    assert_eq!(server.connections(), 1, "the victim stays connected");
    assert_eq!(server.stats().protocol_errors, 1);
    assert_eq!(server.gateway().metrics().submitted, 2, "only the victim's");
}

/// A `Submit` (or an ops `Explain`) whose task no scheduler could hold —
/// zero or negative size, a non-positive or infinite deadline — is a decode
/// error on the connection that sent it. It never reaches the planner (where
/// a zero size used to panic the reactor thread, taking every connection
/// with it, and an infinite deadline was simply accepted), and the reactor
/// goes on serving everyone else. So is an integer its field cannot hold:
/// decoded with `as`, tenant 2³² + 5 spoke for tenant 5, a node count of −1
/// became `usize::MAX`, and sequence 1.5 was answered as sequence 1. And so
/// is nesting deeper than the parser's cap of 128 — a well-framed 10 000
/// bytes of `[[[[…` used to recurse the reactor's thread off its stack and
/// abort the process — and a key sent twice, which used to be first-wins.
#[test]
fn a_hostile_submit_fails_its_own_connection_and_the_reactor_serves_on() {
    use rtdls_edge::codec::{Direction, HEADER_LEN, MAGIC};
    use rtdls_journal::wire::encode_frame;

    let mut gateway = sharded(2);
    gateway.enable_explanations();
    let (mut server, net) = mem_server(gateway, EdgeConfig::default());
    let now = SimTime::ZERO;
    let task = Task::new(1, 0.0, 100.0, 50_000.0);
    let payload_of = |msg: &ClientMsg| {
        String::from_utf8(encode_client(msg)[HEADER_LEN..].to_vec()).expect("JSON payload")
    };
    let submit = payload_of(&ClientMsg::Submit {
        seq: 1,
        request: SubmitRequest::new(task),
    });
    let explain = payload_of(&ClientMsg::Ops {
        query: OpsQuery::Explain {
            request: SubmitRequest::new(task),
        },
    });
    let deep = format!(
        "\"seq\":1,\"deep\":{}{},",
        "[".repeat(10_000),
        "]".repeat(10_000)
    );
    let hostile = [
        (&submit, "\"seq\":1,", deep.as_str()),
        (&submit, "\"seq\":1,", "\"seq\":1,\"seq\":1,"),
        (&submit, "\"data_size\":100.0", "\"data_size\":0"),
        (&submit, "\"data_size\":100.0", "\"data_size\":-100.0"),
        (
            &submit,
            "\"rel_deadline\":50000.0",
            "\"rel_deadline\":1e999",
        ),
        (&submit, "\"rel_deadline\":50000.0", "\"rel_deadline\":0.0"),
        (&explain, "\"data_size\":100.0", "\"data_size\":0"),
        (&submit, "\"tenant\":0", "\"tenant\":4294967301"),
        (&submit, "\"user_nodes\":null", "\"user_nodes\":-1"),
        (&submit, "\"seq\":1,", "\"seq\":1.5,"),
    ];
    let rows = hostile.len() as u64;
    for (k, (payload, field, poison)) in hostile.into_iter().enumerate() {
        assert!(payload.contains(field), "{field} not in {payload}");
        let poison_name = &poison[..poison.len().min(40)];
        let mut violator = InlineClient::connect(&net);
        assert!(matches!(
            violator.recv(&mut server, now),
            ServerMsg::Hello { .. }
        ));
        let frame = encode_frame(
            MAGIC,
            Direction::FromClient as u8,
            payload.replace(field, poison).as_bytes(),
        );
        violator.send_raw(&frame);
        let msg = violator.recv(&mut server, now);
        assert!(
            matches!(&msg, ServerMsg::Error { message, .. } if message.contains("undecodable")),
            "{poison_name}: {msg:?}"
        );
        for _ in 0..20 {
            server.poll(now);
        }
        assert_eq!(
            server.connections(),
            0,
            "{poison_name}: violator disconnected"
        );
        assert_eq!(server.stats().protocol_errors, k as u64 + 1);

        // The next connection is served as if nothing had happened.
        let mut client = InlineClient::connect(&net);
        assert!(matches!(
            client.recv(&mut server, now),
            ServerMsg::Hello { .. }
        ));
        client.send(&ClientMsg::Submit {
            seq: 7,
            request: SubmitRequest::new(Task::new(10 + k as u64, 0.0, 100.0, 50_000.0)),
        });
        let msg = client.recv(&mut server, now);
        assert!(
            matches!(&msg, ServerMsg::Verdict { seq: 7, verdict, .. } if verdict.is_accepted()),
            "{poison_name}: {msg:?}"
        );
        client.send(&ClientMsg::Bye);
        for _ in 0..20 {
            server.poll(now);
        }
        assert_eq!(server.connections(), 0);
    }
    assert_eq!(
        server.gateway().metrics().submitted,
        rows,
        "none of the hostile submits reached the gateway"
    );
}

#[test]
fn edge_backpressure_throttles_without_reaching_the_gateway() {
    // A zero-length write queue means every submit finds it "full".
    let cfg = EdgeConfig {
        write_queue_limit: 0,
        ..Default::default()
    };
    let (mut server, net) = mem_server(sharded(2), cfg);
    let mut client = InlineClient::connect(&net);
    let now = SimTime::ZERO;
    assert!(matches!(
        client.recv(&mut server, now),
        ServerMsg::Hello { .. }
    ));
    client.send(&ClientMsg::Submit {
        seq: 0,
        request: SubmitRequest::new(Task::new(1, 0.0, 50.0, 1e6)),
    });
    let msg = client.recv(&mut server, now);
    assert!(
        matches!(
            msg,
            ServerMsg::Verdict {
                verdict: Verdict::Throttled,
                ..
            }
        ),
        "{msg:?}"
    );
    assert_eq!(server.stats().edge_throttled, 1);
    assert_eq!(
        server.gateway().metrics().submitted,
        0,
        "the admission test never ran"
    );
}

/// The observability acceptance path: a telemetry-attached journaled edge
/// serves a reservation flow end to end, and the ops channel reconstructs
/// both full timelines — the accepted blocker's (edge receive → route →
/// plan → journal append) and the reserved candidate's (edge receive →
/// reserve → journal append → route at activation → activate → pushed
/// update) — by trace id, with the timed stages carrying real durations.
#[test]
fn ops_channel_reconstructs_a_reserved_flows_full_timeline_by_trace_id() {
    use rtdls_telemetry::{Stage, Telemetry, TelemetryConfig};

    let p = ClusterParams::paper_baseline();
    let e16 = homogeneous::exec_time(&p, 800.0, 16);
    let e15 = homogeneous::exec_time(&p, 800.0, 15);
    let slack_w = (e15 - e16) * 0.75;
    let slack_c = slack_w * 0.8;
    let gateway = ShardedGateway::new(
        p,
        1,
        AlgorithmKind::EDF_OPR_MN,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let mut journaled = JournaledGateway::new(gateway, JournalConfig::default());
    let avail = SimTime::new(1000.0);
    for node in 0..16 {
        journaled.node_released(node, avail);
    }
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let (mut server, net) = mem_server(journaled, EdgeConfig::default());
    server.set_telemetry(&telemetry);
    let mut client = InlineClient::connect(&net);
    let t0 = SimTime::ZERO;
    assert!(matches!(
        client.recv(&mut server, t0),
        ServerMsg::Hello { .. }
    ));

    // The all-node blocker is accepted; the starved candidate reserves.
    client.send(&ClientMsg::Submit {
        seq: 0,
        request: SubmitRequest::new(Task::new(1, 0.0, 800.0, 1000.0 + e16 + slack_w)),
    });
    assert!(matches!(
        client.recv(&mut server, t0),
        ServerMsg::Verdict {
            verdict: Verdict::Accepted,
            ..
        }
    ));
    client.send(&ClientMsg::Submit {
        seq: 1,
        request: SubmitRequest::new(Task::new(2, 0.0, 10.0, 1000.0 + e16 + slack_c))
            .with_tenant(TenantId(7))
            .with_max_delay(Some(2000.0)),
    });
    assert!(matches!(
        client.recv(&mut server, t0),
        ServerMsg::Verdict {
            task: 2,
            verdict: Verdict::Reserved { .. },
            ..
        }
    ));
    // The clock reaches the promise: activation streams back.
    assert!(matches!(
        client.recv(&mut server, avail),
        ServerMsg::Update {
            update: DecisionUpdate::Activated {
                task: 2,
                admitted: true,
                ..
            }
        }
    ));

    // Reconstruct both timelines over the wire, exactly as rtdls-top would.
    let mut ops = InlineClient::connect(&net);
    assert!(matches!(
        ops.recv(&mut server, avail),
        ServerMsg::Hello { .. }
    ));
    ops.send(&ClientMsg::Ops {
        query: OpsQuery::RecentTraces,
    });
    let ServerMsg::OpsReport {
        report: OpsReport::RecentTraces { traces },
    } = ops.recv(&mut server, avail)
    else {
        panic!("expected RecentTraces report");
    };
    assert!(
        traces.len() >= 2,
        "both submissions minted traces: {traces:?}"
    );
    let mut timelines = Vec::new();
    for id in &traces {
        ops.send(&ClientMsg::Ops {
            query: OpsQuery::Trace { id: *id },
        });
        let ServerMsg::OpsReport {
            report: OpsReport::Trace { spans, .. },
        } = ops.recv(&mut server, avail)
        else {
            panic!("expected Trace report");
        };
        timelines.push(spans);
    }
    let stages_of = |task: u64| -> Vec<Stage> {
        let spans = timelines
            .iter()
            .find(|spans| spans.iter().any(|s| s.task == task))
            .unwrap_or_else(|| panic!("no timeline mentions task {task}"));
        assert!(
            spans.windows(2).all(|w| w[0].seq < w[1].seq),
            "timeline is seq-ordered"
        );
        // The timed stages carry real wall-clock durations.
        for s in spans.iter() {
            if matches!(
                s.stage,
                Stage::Plan | Stage::JournalAppend | Stage::Activate
            ) {
                assert!(s.duration_ns > 0, "{:?} span is timed: {s:?}", s.stage);
            }
        }
        spans.iter().map(|s| s.stage).collect()
    };
    assert_eq!(
        stages_of(1),
        vec![
            Stage::EdgeReceive,
            Stage::Route,
            Stage::Plan,
            Stage::JournalAppend
        ],
        "the accepted blocker's journey"
    );
    assert_eq!(
        stages_of(2),
        vec![
            Stage::EdgeReceive,
            Stage::Plan,
            Stage::Reserve,
            Stage::JournalAppend,
            Stage::Route,
            Stage::Activate,
            Stage::PushUpdate
        ],
        "the reserved candidate's journey, through activation and push"
    );

    // The unified stats snapshot covers every layer over the same channel.
    ops.send(&ClientMsg::Ops {
        query: OpsQuery::Stats,
    });
    let ServerMsg::OpsReport {
        report: OpsReport::Stats { samples, .. },
    } = ops.recv(&mut server, avail)
    else {
        panic!("expected Stats report");
    };
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(get("rtdls_edge_submits"), 2.0);
    assert_eq!(get("rtdls_gateway_submitted"), 2.0);
    assert_eq!(get("rtdls_gateway_reservations_activated"), 1.0);
    assert!(get("rtdls_journal_events_appended") >= 2.0);
    assert_eq!(get("rtdls_edge_pending"), 0.0, "the promise resolved");
    assert_eq!(get("rtdls_edge_updates_pushed"), 1.0);
}

/// A client that disconnects with parked work must not leak pending-map
/// entries: the reaper purges them (and counts the eviction) as soon as
/// the connection closes.
#[test]
fn pending_entries_are_evicted_when_their_connection_dies() {
    let p = ClusterParams::paper_baseline();
    let e16 = homogeneous::exec_time(&p, 800.0, 16);
    let gateway = ShardedGateway::new(
        p,
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let (mut server, net) = mem_server(gateway, EdgeConfig::default());
    let now = SimTime::ZERO;
    {
        let mut client = InlineClient::connect(&net);
        assert!(matches!(
            client.recv(&mut server, now),
            ServerMsg::Hello { .. }
        ));
        // Saturate, then park a near miss as a defer ticket.
        client.send(&ClientMsg::Submit {
            seq: 0,
            request: SubmitRequest::new(Task::new(1, 0.0, 800.0, e16 * 1.05)),
        });
        assert!(matches!(
            client.recv(&mut server, now),
            ServerMsg::Verdict {
                verdict: Verdict::Accepted,
                ..
            }
        ));
        client.send(&ClientMsg::Submit {
            seq: 1,
            request: SubmitRequest::new(Task::new(2, 0.0, 800.0, e16 * 1.5)),
        });
        assert!(matches!(
            client.recv(&mut server, now),
            ServerMsg::Verdict {
                verdict: Verdict::Deferred { .. },
                ..
            }
        ));
        assert_eq!(
            pending(&mut server, &net, now),
            1.0,
            "the parked task is tracked"
        );
        // The client vanishes without a Bye.
    }
    for _ in 0..200 {
        server.poll(now);
        if server.connections() == 0 {
            break;
        }
    }
    assert_eq!(server.connections(), 0, "the dead connection was reaped");
    assert_eq!(
        pending(&mut server, &net, now),
        0.0,
        "its pending entry went with it (no leak)"
    );
    assert_eq!(server.stats().pending_evicted, 1);
}

/// The edge's pending-pushback entries as an operator reads them: the
/// `rtdls_edge_pending` gauge, asked over an ops connection of its own.
fn pending<G: EdgeGateway>(server: &mut EdgeServer<G, Mem>, net: &MemNet, now: SimTime) -> f64 {
    let mut ops = InlineClient::connect(net);
    assert!(matches!(ops.recv(server, now), ServerMsg::Hello { .. }));
    ops.send(&ClientMsg::Ops {
        query: OpsQuery::Stats,
    });
    let ServerMsg::OpsReport {
        report: OpsReport::Stats { samples, .. },
    } = ops.recv(server, now)
    else {
        panic!("expected Stats report");
    };
    let gauge = samples.iter().find(|s| s.name == "rtdls_edge_pending");
    gauge.expect("the edge exports its pending entries").value
}

/// Two independent clients are entitled to both call their task `2`: task
/// ids are client-chosen, so the pending-pushback map must key by the
/// server-minted `(connection, task)` pair, not the bare client id.
/// Before namespacing, the second submit's entry overwrote the first and
/// one client received the other's pushed resolution (and the starved one
/// nothing at all).
#[test]
fn identical_task_ids_on_concurrent_connections_get_their_own_updates() {
    let p = ClusterParams::paper_baseline();
    let e16 = homogeneous::exec_time(&p, 800.0, 16);
    let gateway = ShardedGateway::new(
        p,
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let (mut server, net) = mem_server(gateway, EdgeConfig::default());
    let t0 = SimTime::ZERO;
    let mut alice = InlineClient::connect(&net);
    let mut bob = InlineClient::connect(&net);
    assert!(matches!(
        alice.recv(&mut server, t0),
        ServerMsg::Hello { .. }
    ));
    assert!(matches!(bob.recv(&mut server, t0), ServerMsg::Hello { .. }));
    // Alice saturates the cluster, then parks task 2 as a defer ticket.
    alice.send(&ClientMsg::Submit {
        seq: 0,
        request: SubmitRequest::new(Task::new(1, 0.0, 800.0, e16 * 1.05)),
    });
    assert!(matches!(
        alice.recv(&mut server, t0),
        ServerMsg::Verdict {
            verdict: Verdict::Accepted,
            ..
        }
    ));
    alice.send(&ClientMsg::Submit {
        seq: 1,
        request: SubmitRequest::new(Task::new(2, 0.0, 800.0, e16 * 1.5)),
    });
    let ServerMsg::Verdict {
        task: 2,
        verdict: Verdict::Deferred {
            ticket: alice_ticket,
            ..
        },
        ..
    } = alice.recv(&mut server, t0)
    else {
        panic!("expected Alice's defer");
    };
    // Bob parks a task with the *identical* client-chosen id 2.
    bob.send(&ClientMsg::Submit {
        seq: 1,
        request: SubmitRequest::new(Task::new(2, 0.0, 800.0, e16 * 1.5)),
    });
    let ServerMsg::Verdict {
        task: 2,
        verdict: Verdict::Deferred {
            ticket: bob_ticket, ..
        },
        ..
    } = bob.recv(&mut server, t0)
    else {
        panic!("expected Bob's defer");
    };
    assert_ne!(alice_ticket, bob_ticket, "two distinct parked tasks");
    assert_eq!(
        pending(&mut server, &net, t0),
        2.0,
        "both entries tracked — identical client ids must not alias"
    );
    // Both tickets expire; each client receives exactly its own
    // resolution, tagged with the id *it* chose.
    let late = SimTime::new(e16 * 2.0);
    let msg = alice.recv(&mut server, late);
    assert!(
        matches!(
            msg,
            ServerMsg::Update {
                update: DecisionUpdate::Resolved {
                    task: 2,
                    ticket: Some(t),
                    admitted: false,
                    ..
                }
            } if t == alice_ticket
        ),
        "Alice's own ticket resolved to Alice: {msg:?}"
    );
    let msg = bob.recv(&mut server, late);
    assert!(
        matches!(
            msg,
            ServerMsg::Update {
                update: DecisionUpdate::Resolved {
                    task: 2,
                    ticket: Some(t),
                    admitted: false,
                    ..
                }
            } if t == bob_ticket
        ),
        "Bob's own ticket resolved to Bob: {msg:?}"
    );
    assert_eq!(server.stats().updates_pushed, 2);
    assert_eq!(server.stats().updates_dropped, 0);
    assert_eq!(pending(&mut server, &net, late), 0.0);
}

/// Connection ids are the high half of every minted task id, so an edge
/// hands out none past `u32::MAX`: it refuses those connections and counts
/// them. Before the bound, a release build minted the next id's tasks into
/// connection 0's and 1's space (their resolutions went to connections
/// that do not exist), and a dev build's mint assertion fired.
#[test]
fn connections_past_the_id_space_are_refused_never_aliased() {
    let p = ClusterParams::paper_baseline();
    let e16 = homogeneous::exec_time(&p, 800.0, 16);
    let gateway = ShardedGateway::new(
        p,
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let cfg = EdgeConfig {
        first_conn_id: u64::from(u32::MAX) - 1,
        ..Default::default()
    };
    let (mut server, net) = mem_server(gateway, cfg);
    let t0 = SimTime::ZERO;
    let mut clients: Vec<_> = (0..4).map(|_| InlineClient::connect(&net)).collect();
    assert!(matches!(
        clients[0].recv(&mut server, t0),
        ServerMsg::Hello { .. }
    ));
    clients[0].send(&ClientMsg::Submit {
        seq: 0,
        request: SubmitRequest::new(Task::new(1, 0.0, 800.0, e16 * 1.05)),
    });
    assert!(matches!(
        clients[0].recv(&mut server, t0),
        ServerMsg::Verdict {
            verdict: Verdict::Accepted,
            ..
        }
    ));
    // Every client parks a task under the same client-chosen id.
    for client in &mut clients {
        client.send(&ClientMsg::Submit {
            seq: 1,
            request: SubmitRequest::new(Task::new(2, 0.0, 800.0, e16 * 1.5)),
        });
    }
    assert!(matches!(
        clients[1].recv(&mut server, t0),
        ServerMsg::Hello { .. }
    ));
    for client in &mut clients[..2] {
        assert!(matches!(
            client.recv(&mut server, t0),
            ServerMsg::Verdict {
                task: 2,
                verdict: Verdict::Deferred { .. },
                ..
            }
        ));
    }
    for (i, client) in clients.iter_mut().enumerate().skip(2) {
        assert!(client.closed(&mut server, t0), "client {i} is refused");
        assert!(client.received.is_empty(), "client {i} was sent nothing");
    }
    assert_eq!(server.stats().connections_accepted, 2);
    assert_eq!(server.stats().connections_refused, 2);
    // The ticket of each served client resolves to that client.
    let late = SimTime::new(e16 * 2.0);
    for client in &mut clients[..2] {
        assert!(matches!(
            client.recv(&mut server, late),
            ServerMsg::Update {
                update: DecisionUpdate::Resolved { task: 2, .. }
            }
        ));
    }
    assert_eq!(server.stats().updates_pushed, 2);
    assert_eq!(server.stats().updates_dropped, 0);
}

/// Drain reaping runs on the *simulated* clock, not the wall clock: a
/// draining connection with unflushed frames survives any number of turns
/// while sim time stands still, and is reaped the moment sim time passes
/// `drain_timeout` — even within the same wall millisecond. The pre-fix
/// reaper stamped `Instant::now()` at drain start, so a manual clock could
/// not hold a connection open (nor close one promptly).
#[test]
fn drain_reaping_follows_the_simulated_clock_not_the_wall_clock() {
    let cfg = EdgeConfig {
        drain_timeout: Duration::from_millis(50),
        ..Default::default()
    };
    let (mut server, net) = mem_server(sharded(2), cfg);
    let mut client = InlineClient::connect(&net);
    let t0 = SimTime::ZERO;
    assert!(matches!(
        client.recv(&mut server, t0),
        ServerMsg::Hello { .. }
    ));
    // Wedge the write path: unread ops reports overfill the connection's
    // buffer, so its outbound queue stays non-empty and only the drain
    // deadline can close it.
    let mut wedged = false;
    for _ in 0..4000 {
        for _ in 0..8 {
            client.send(&ClientMsg::Ops {
                query: OpsQuery::Stats,
            });
        }
        server.poll(t0);
        let stats = server.stats();
        if stats.frames_sent + 64 <= stats.frames_received {
            wedged = true;
            break;
        }
    }
    assert!(wedged, "the buffer must fill: {:?}", server.stats());
    // The client says goodbye but never reads its remaining frames.
    let seen = server.stats().frames_received;
    client.send(&ClientMsg::Bye);
    for _ in 0..2000 {
        server.poll(t0);
        if server.stats().frames_received > seen {
            break;
        }
    }
    assert_eq!(server.connections(), 1, "draining, not yet closed");
    // Turns go by, however long they take on the wall clock, while the
    // simulated clock stands still: the connection must survive.
    for _ in 0..10 {
        server.poll(t0);
    }
    assert_eq!(
        server.connections(),
        1,
        "wall time alone must not reap a draining connection"
    );
    // Just short of the simulated deadline: still alive.
    server.poll(SimTime::new(0.04));
    assert_eq!(server.connections(), 1);
    // Past it — with essentially no additional wall time: reaped.
    server.poll(SimTime::new(0.06));
    assert_eq!(
        server.connections(),
        0,
        "fifty simulated milliseconds close the drain"
    );
}

#[test]
fn killed_journaled_edge_recovers_from_the_wal_and_keeps_serving() {
    let wal = std::env::temp_dir().join(format!("rtdls-edge-restart-{}.wal", std::process::id()));
    let journal_cfg = JournalConfig {
        snapshot_every: 32,
        compact_on_snapshot: true,
    };
    let stream = request_stream(80, 23);
    let (first_half, second_half) = stream.split_at(50);

    // Generation 1: a journaled edge with group-commit fsync serves the
    // first half of the stream, then is killed (no finalize, no flush —
    // the gateway object is simply dropped).
    let first_report;
    {
        let sink = FileSink::create(&wal)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::Batch(8));
        let journaled = JournaledGateway::with_sink(sharded(2), journal_cfg, Box::new(sink));
        let (addr, stop, handle) = spawn_server(journaled, EdgeClock::real_time());
        first_report = ReplayClient::connect(addr)
            .unwrap()
            .run(
                first_half.to_vec(),
                8,
                Duration::from_millis(50),
                Duration::from_secs(60),
            )
            .unwrap();
        stop.store(true, Ordering::Relaxed);
        let (dead, _) = handle.join().unwrap();
        drop(dead); // the "crash": in-memory state is gone
    }
    assert!(!first_report.timed_out);
    assert_eq!(first_report.verdicts(), 50);

    // Generation 2: rebuilt from the WAL file alone, resuming the clock at
    // the recovery instant so serving time never rewinds.
    let recover_at = SimTime::new(10_000.0);
    let (recovered, report) = recover_file_with_policy::<ShardedGateway>(
        &wal,
        recover_at,
        journal_cfg,
        FsyncPolicy::Batch(8),
    )
    .unwrap();
    assert!(report.frames_decoded > 0);
    assert_eq!(
        recovered.metrics().submitted,
        50,
        "the recovered book covers generation 1"
    );
    let (addr, stop, handle) = spawn_server(recovered, EdgeClock::starting_at(recover_at, 1.0));
    let second_report = ReplayClient::connect(addr)
        .unwrap()
        .run(
            second_half.to_vec(),
            8,
            Duration::from_millis(50),
            Duration::from_secs(60),
        )
        .unwrap();
    stop.store(true, Ordering::Relaxed);
    let (gateway, _) = handle.join().unwrap();

    assert!(!second_report.timed_out);
    assert_eq!(second_report.verdicts(), 30, "the restarted edge serves");
    assert_eq!(
        gateway.metrics().submitted,
        80,
        "one continuous book across the crash"
    );
    // The WAL on disk tells the same story as the in-memory journal.
    let on_disk = FileSink::read(&wal).unwrap();
    let (_, tail) = rtdls_journal::wire::decode_frames(&on_disk);
    assert!(tail.is_clean());
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(wal.with_extension("wal.spare"));
}

/// A `FileSink` that, at every call the journal makes into it, looks at the
/// client's end of the connection: whatever the reactor has decided this
/// turn, none of it may be readable there before the sink's `flush` has
/// returned.
struct AckSpySink {
    inner: FileSink,
    /// A view of the client's end, once the test has connected.
    client: Arc<std::sync::Mutex<Option<Probe>>>,
    /// Frames handed over since the last flush.
    pending_frames: usize,
    /// Flushes that made frames durable while the client saw nothing.
    guarded_flushes: Arc<std::sync::atomic::AtomicUsize>,
}

impl AckSpySink {
    fn assert_client_sees_nothing(&self, during: &str) {
        if let Some(client) = self.client.lock().unwrap().as_ref() {
            assert_eq!(
                client.readable(),
                0,
                "a verdict reached the client before its frames were durable ({during})"
            );
        }
    }
}

impl JournalSink for AckSpySink {
    fn append(&mut self, run: &[u8]) {
        self.assert_client_sees_nothing("append");
        self.pending_frames += rtdls_journal::wire::frame_count(run);
        self.inner.append(run);
    }
    fn reset(&mut self, bytes: &[u8]) {
        self.assert_client_sees_nothing("reset");
        self.pending_frames += rtdls_journal::wire::frame_count(bytes);
        self.inner.reset(bytes);
    }
    fn flush(&mut self) {
        self.assert_client_sees_nothing("flush, before the sync");
        self.inner.flush();
        self.assert_client_sees_nothing("flush, after the sync");
        if self.pending_frames > 0 && self.client.lock().unwrap().is_some() {
            self.guarded_flushes.fetch_add(1, Ordering::Relaxed);
        }
        self.pending_frames = 0;
    }
    fn stats(&self) -> SinkStats {
        self.inner.stats()
    }
}

/// Durable before acknowledged, observed from the client's side of the
/// connection: in every reactor turn the journal's write and sync complete
/// while the turn's verdicts are still unsent — and when the turn returns
/// they are all there.
#[test]
fn no_verdict_byte_is_readable_before_its_turn_is_durable() {
    let wal = std::env::temp_dir().join(format!("rtdls-edge-ack-{}.wal", std::process::id()));
    let client_slot = Arc::new(std::sync::Mutex::new(None));
    let guarded = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let sink = AckSpySink {
        inner: FileSink::create(&wal)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::Batch(16)),
        client: Arc::clone(&client_slot),
        pending_frames: 0,
        guarded_flushes: Arc::clone(&guarded),
    };
    let journal_cfg = JournalConfig {
        snapshot_every: 20, // compactions fall inside turns
        compact_on_snapshot: true,
    };
    let journaled = JournaledGateway::with_sink(sharded(2), journal_cfg, Box::new(sink));
    let (mut server, net) = mem_server(journaled, EdgeConfig::default());
    let mut client = InlineClient::connect(&net);
    assert!(matches!(
        client.recv(&mut server, SimTime::ZERO),
        ServerMsg::Hello { .. }
    ));
    *client_slot.lock().unwrap() = Some(client.end.probe());
    let probe = client.end.probe();

    let requests = request_stream(48, 31);
    let mut seq = 0u64;
    let mut overdue_turns = 0;
    for (turn, window) in requests.chunks(8).enumerate() {
        let now = window.last().unwrap().task.arrival;
        let mut burst = Vec::new();
        for request in window {
            burst.extend(encode_client(&ClientMsg::Submit {
                seq,
                request: *request,
            }));
            seq += 1;
        }
        // Dispatches planned by earlier windows came due in between: the
        // window's turn runs them before its decisions, in the same commit.
        overdue_turns += usize::from(server.gateway().next_due().is_some_and(|t| t < now));
        client.send_raw(&burst);
        let submitted_before = server.gateway().metrics().submitted;
        let guarded_before = guarded.load(Ordering::Relaxed);
        // One turn: read, decide × 8, drive → commit (the spy looks at the
        // client's end inside it), and only then the flush.
        server.poll(now);
        assert_eq!(
            server.gateway().metrics().submitted - submitted_before,
            window.len() as u64,
            "turn {turn}: the whole window was served in one turn"
        );
        assert_eq!(
            guarded.load(Ordering::Relaxed) - guarded_before,
            1,
            "turn {turn}: one flush made the turn's frames durable, unseen"
        );
        // The probe is not blind: now the verdicts are there.
        assert!(
            probe.readable() > 0,
            "turn {turn}: verdicts left right after the commit"
        );
        // Read the connection dry (so the next turn starts with nothing
        // readable): the window's verdicts, plus any pushed updates.
        let mut verdicts = 0;
        while let Some(msg) = client.try_next() {
            if matches!(msg, ServerMsg::Verdict { .. }) {
                verdicts += 1;
            }
        }
        assert_eq!(probe.readable(), 0, "turn {turn}: read dry");
        assert_eq!(
            verdicts,
            window.len(),
            "turn {turn}: one verdict per submit"
        );
        assert_eq!(
            FileSink::read(&wal).unwrap(),
            server.gateway().journal().bytes(),
            "turn {turn}: every acknowledged verdict's frames are in the file"
        );
    }
    assert!(server.gateway().journal().snapshots_appended() >= 3);
    assert!(overdue_turns > 0, "no window's turn also ran overdue work");
    drop(server);
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(wal.with_extension("wal.spare"));
}

/// The full SLO observability acceptance story over the wire, on a manual
/// clock: a flash crowd drives a journaled edge's acceptance alarm
/// *healthy → burning → breached* as watched live through `Ops::Slo`;
/// every breach auto-dumps a forensic audit record (offender task ids +
/// flight-recorder timelines) into the WAL; a kill + recovery rebuilds
/// the SLO tracker (latched breach counts included) from the WAL alone;
/// and the restarted edge's `Ops::Explain` counterfactual is proven
/// honest by actually resubmitting at the suggestion.
#[test]
fn flash_crowd_breach_is_observable_forensic_and_durable_over_the_wire() {
    let wal = std::env::temp_dir().join(format!("rtdls-edge-slo-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(wal.with_extension("wal.spare"));

    // The scenario: calm paper traffic, a 12x crowd, then calm again —
    // identical shape to the simulator acceptance test, but every arrival
    // travels the real protocol at its own simulated instant.
    let mut spec = WorkloadSpec::paper_baseline(0.4);
    let scale = spec.mean_interarrival();
    spec.horizon = 400.0 * scale;
    let crowd = FlashCrowd {
        at: 150.0 * scale,
        duration: 80.0 * scale,
        rate_factor: 12.0,
    };
    let tasks: Vec<Task> = crowd.stream(spec, 99).collect();
    assert!(tasks.len() > 500, "real traffic, got {}", tasks.len());

    let policy = SloPolicy {
        acceptance_target: 0.93,
        short_window: 30.0 * scale,
        long_window: 150.0 * scale,
        ..SloPolicy::default()
    };
    // max_queue 0: overload rejects outright instead of parking tickets,
    // so the acceptance SLO is fed entirely at decide time.
    let gateway = ShardedGateway::new(
        ClusterParams::paper_baseline(),
        2,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy {
            max_queue: 0,
            ..Default::default()
        },
    )
    .unwrap();
    // The tracker goes in the way recovery installs one: in an image.
    let mut image = GatewaySnapshot::capture(&gateway);
    image.slo = SloTracker::new(policy);
    let gateway = image.restore().unwrap();
    let journal_cfg = JournalConfig {
        snapshot_every: 100_000, // genesis snapshot only: the whole WAL survives
        compact_on_snapshot: false,
    };
    let sink = FileSink::create(&wal)
        .unwrap()
        .with_fsync_policy(FsyncPolicy::Batch(16));
    let journaled = JournaledGateway::with_sink(gateway, journal_cfg, Box::new(sink));

    let telemetry = rtdls_telemetry::Telemetry::new(rtdls_telemetry::TelemetryConfig::default());
    let (mut server, net) = mem_server(journaled, EdgeConfig::default());
    server.set_telemetry(&telemetry);
    let mut client = InlineClient::connect(&net);
    let t0 = SimTime::ZERO;
    assert!(matches!(
        client.recv(&mut server, t0),
        ServerMsg::Hello { .. }
    ));

    let slo_rows = |client: &mut InlineClient<MemClient>,
                    server: &mut EdgeServer<JournaledGateway, Mem>,
                    now: SimTime| {
        client.send(&ClientMsg::Ops {
            query: rtdls_edge::proto::OpsQuery::Slo,
        });
        match client.recv(server, now) {
            ServerMsg::OpsReport {
                report: rtdls_edge::proto::OpsReport::Slo { rows },
            } => rows,
            other => panic!("expected an SLO report, got {other:?}"),
        }
    };
    // The hottest acceptance state across scopes at one poll (no rows yet
    // = healthy: nothing has armed).
    let acceptance_state = |rows: &[SloStatusRow]| {
        rows.iter()
            .filter(|r| r.objective == SloObjective::Acceptance)
            .map(|r| r.state)
            .max_by_key(|s| s.severity())
            .unwrap_or(SloHealth::Healthy)
    };

    let mut observed: Vec<SloHealth> = Vec::new();
    let mut explained_rejects = 0usize;
    for (i, task) in tasks.iter().enumerate() {
        let now = task.arrival;
        client.send(&ClientMsg::Submit {
            seq: i as u64,
            request: SubmitRequest::new(*task).with_tenant(TenantId(1)),
        });
        match client.recv(&mut server, now) {
            ServerMsg::Verdict { verdict, .. } => {
                if let Verdict::Rejected { explain, .. } = verdict {
                    if explain.is_some() {
                        explained_rejects += 1;
                    }
                }
            }
            other => panic!("expected a verdict, got {other:?}"),
        }
        if i % 10 == 0 {
            observed.push(acceptance_state(&slo_rows(&mut client, &mut server, now)));
        }
    }
    assert!(
        explained_rejects > 0,
        "rejected verdicts carry explanations on an explaining edge"
    );

    // The alarm was watched walking healthy -> burning -> breached.
    let first_burning = observed.iter().position(|s| *s == SloHealth::Burning);
    let first_breached = observed.iter().position(|s| *s == SloHealth::Breached);
    let breached_at = first_breached.expect("the crowd must breach the acceptance SLO");
    let burning_at = first_burning.expect("a burning phase precedes the breach");
    assert!(
        burning_at < breached_at,
        "burn precedes breach: burning@{burning_at}, breached@{breached_at}"
    );
    assert!(
        observed[..burning_at].contains(&SloHealth::Healthy),
        "the warmup was observed healthy"
    );

    // Pre-kill ground truth for the durability half.
    let end = SimTime::new(spec.horizon);
    let final_rows = slo_rows(&mut client, &mut server, end);
    let breaches_of = |rows: &[SloStatusRow]| -> u64 {
        rows.iter()
            .filter(|r| r.objective == SloObjective::Acceptance)
            .map(|r| r.breaches)
            .sum()
    };
    let pre_kill_breaches = breaches_of(&final_rows);
    assert!(pre_kill_breaches >= 1);

    // Kill: drop the server (and with it the journaled gateway).
    drop(server);
    drop(client);

    // The WAL holds the versioned breach audit records with their
    // forensic evidence: offender ids and flight-recorder timelines.
    let bytes = FileSink::read(&wal).unwrap();
    let (frames, tail) = rtdls_journal::wire::decode_frames(&bytes);
    assert!(tail.is_clean());
    let mut audited = Vec::new();
    for frame in frames {
        if frame.kind != rtdls_journal::wire::RecordKind::Event {
            continue;
        }
        let event: JournalEvent =
            serde_json::from_str(std::str::from_utf8(frame.payload).unwrap()).unwrap();
        if let JournalEvent::SloBreach { breach } = event {
            audited.push(breach);
        }
    }
    assert!(
        !audited.is_empty(),
        "breach transitions are journaled as audit records"
    );
    for breach in &audited {
        assert_eq!(breach.version, SLO_BREACH_VERSION);
        assert_eq!(breach.row.state, SloHealth::Breached);
        if breach.transition.tenant.is_some() {
            assert!(
                !breach.recent_tasks.is_empty(),
                "tenant breaches name recent offender tasks"
            );
            assert!(
                !breach.timelines.is_empty(),
                "a telemetry-attached edge dumps offender timelines"
            );
        }
    }

    // Recovery from the WAL alone: the SLO tracker (latched breach
    // counts included) is part of the recovered book.
    let recover_at = SimTime::new(spec.horizon + 1_000.0);
    let (recovered, _report) = recover_file_with_policy::<ShardedGateway>(
        &wal,
        recover_at,
        journal_cfg,
        FsyncPolicy::Batch(16),
    )
    .unwrap();
    assert_eq!(
        breaches_of(&recovered.slo_rows()),
        pre_kill_breaches,
        "latched breach counts survive kill + recovery"
    );

    // Generation 2 serves, and its Ops::Explain counterfactual is honest:
    // resubmitting at the suggested minimum deadline is accepted, and
    // 0.1% tighter (exact over the recovered empty queue) still rejects.
    let (mut server, net) = mem_server(recovered, EdgeConfig::default());
    let mut client = InlineClient::connect(&net);
    assert!(matches!(
        client.recv(&mut server, recover_at),
        ServerMsg::Hello { .. }
    ));
    let hopeless = SubmitRequest::new(Task::new(1_000_000, recover_at, 30_000.0, 0.001));
    client.send(&ClientMsg::Ops {
        query: rtdls_edge::proto::OpsQuery::Explain { request: hopeless },
    });
    let explanation = match client.recv(&mut server, recover_at) {
        ServerMsg::OpsReport {
            report: rtdls_edge::proto::OpsReport::Explain { explanation, .. },
        } => explanation.expect("a hopeless request explains itself"),
        other => panic!("expected an explanation, got {other:?}"),
    };
    assert!(explanation.has_feasible_deadline());
    let relaxed = Task::new(
        1_000_001,
        recover_at,
        30_000.0,
        explanation.min_feasible_deadline,
    );
    client.send(&ClientMsg::Submit {
        seq: 0,
        request: SubmitRequest::new(relaxed),
    });
    assert!(
        matches!(
            client.recv(&mut server, recover_at),
            ServerMsg::Verdict {
                verdict: Verdict::Accepted,
                ..
            }
        ),
        "the suggested minimum deadline admits on resubmission"
    );
    let tighter = Task::new(
        1_000_002,
        recover_at,
        30_000.0,
        explanation.min_feasible_deadline * 0.999,
    );
    client.send(&ClientMsg::Submit {
        seq: 1,
        request: SubmitRequest::new(tighter),
    });
    assert!(
        matches!(
            client.recv(&mut server, recover_at),
            ServerMsg::Verdict {
                verdict: Verdict::Rejected { .. },
                ..
            }
        ),
        "tighter than the suggested minimum still rejects"
    );

    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(wal.with_extension("wal.spare"));
}

/// A client from before header version 2 frames its submits in version 1,
/// checksummed with FNV-1a; the reactor reads and serves them as ever.
#[test]
fn a_version_1_submit_frame_is_served() {
    use rtdls_edge::codec::HEADER_LEN;
    use rtdls_journal::wire::checksum;

    let (mut server, net) = mem_server(sharded(2), EdgeConfig::default());
    let now = SimTime::ZERO;
    let mut client = InlineClient::connect(&net);
    assert!(matches!(
        client.recv(&mut server, now),
        ServerMsg::Hello { .. }
    ));
    let mut frame = encode_client(&ClientMsg::Submit {
        seq: 3,
        request: SubmitRequest::new(Task::new(1, 0.0, 100.0, 50_000.0)),
    });
    let sum = checksum(1, frame[3], &frame[HEADER_LEN..]);
    frame[2] = 1;
    frame[8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    client.send_raw(&frame);
    let msg = client.recv(&mut server, now);
    assert!(
        matches!(&msg, ServerMsg::Verdict { seq: 3, verdict, .. } if verdict.is_accepted()),
        "{msg:?}"
    );
    assert_eq!(server.stats().protocol_errors, 0);
}

/// A turn commits the timed work already due before it decides the
/// submits it read, as the simulator orders them. Task 2 waits behind task
/// 1's 16 nodes with half a second of slack; a submit arriving a second
/// after task 2's dispatch came due, in the same turn, is decided once
/// that dispatch is committed (accepted), never against the overdue plan
/// (which would re-plan task 2 past its deadline and defer the submit).
#[test]
fn a_turn_commits_due_work_before_deciding_its_submits() {
    let p = ClusterParams::paper_baseline();
    let e16 = homogeneous::exec_time(&p, 800.0, 16);
    let (mut server, net) = mem_server(sharded(1), EdgeConfig::default());
    let mut client = InlineClient::connect(&net);
    let t0 = SimTime::ZERO;
    assert!(matches!(
        client.recv(&mut server, t0),
        ServerMsg::Hello { .. }
    ));
    for (seq, deadline) in [(1, e16 * 1.0001), (2, e16 * 2.0 + 0.5)] {
        client.send(&ClientMsg::Submit {
            seq,
            request: SubmitRequest::new(Task::new(seq, 0.0, 800.0, deadline)),
        });
        let msg = client.recv(&mut server, t0);
        assert!(
            matches!(&msg, ServerMsg::Verdict { verdict, .. } if verdict.is_accepted()),
            "{msg:?}"
        );
    }
    let due = server
        .gateway()
        .next_due()
        .expect("task 2 waits for task 1");
    let now = SimTime::new(due.as_f64() + 1.0);
    client.send(&ClientMsg::Submit {
        seq: 3,
        request: SubmitRequest::new(Task::new(3, now.as_f64(), 800.0, e16 * 3.0)),
    });
    let msg = client.recv(&mut server, now);
    assert!(
        matches!(&msg, ServerMsg::Verdict { seq: 3, verdict, .. } if verdict.is_accepted()),
        "{msg:?}"
    );
}

/// The reservation scenario's gateway: all 16 nodes committed until
/// `avail`, so an all-node blocker waits for them and a small EDF-earlier
/// candidate can only book a reservation at the blocker's dispatch.
fn saturated_until(avail: SimTime) -> ShardedGateway {
    let mut gateway = ShardedGateway::new(
        ClusterParams::paper_baseline(),
        1,
        AlgorithmKind::EDF_OPR_MN,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    for node in 0..16 {
        gateway.node_released(node, avail);
    }
    gateway
}

/// One scripted session against `server`: hello, two submits, the pushed
/// activation of the second's reservation, an ops `Explain`, a second
/// connection's protocol violation, then `Bye`. Returns every byte each
/// connection received, in connection order.
fn scripted_session<G: EdgeGateway, T: rtdls_edge::poll::Transport, D: Dial>(
    server: &mut EdgeServer<G, T>,
    to: &D,
    avail: SimTime,
) -> Vec<Vec<u8>> {
    let p = ClusterParams::paper_baseline();
    let e16 = homogeneous::exec_time(&p, 800.0, 16);
    let e15 = homogeneous::exec_time(&p, 800.0, 15);
    let slack_w = (e15 - e16) * 0.75;
    let t0 = SimTime::ZERO;
    let mut client = InlineClient::connect(to);
    assert!(matches!(client.recv(server, t0), ServerMsg::Hello { .. }));
    client.send(&ClientMsg::Hello {
        protocol: PROTOCOL_VERSION,
        tenant: None,
    });
    client.send(&ClientMsg::Submit {
        seq: 0,
        request: SubmitRequest::new(Task::new(1, 0.0, 800.0, 1000.0 + e16 + slack_w)),
    });
    let msg = client.recv(server, t0);
    assert!(matches!(&msg, ServerMsg::Verdict { seq: 0, verdict, .. } if verdict.is_accepted()));
    client.send(&ClientMsg::Submit {
        seq: 1,
        request: SubmitRequest::new(Task::new(2, 0.0, 10.0, 1000.0 + e16 + slack_w * 0.8))
            .with_max_delay(Some(2000.0)),
    });
    let msg = client.recv(server, t0);
    assert!(
        matches!(
            msg,
            ServerMsg::Verdict {
                verdict: Verdict::Reserved { .. },
                ..
            }
        ),
        "{msg:?}"
    );
    let msg = client.recv(server, avail);
    assert!(matches!(msg, ServerMsg::Update { .. }), "{msg:?}");
    // An ops query whose answer reads no wall clock (`Stats` carries
    // measured latencies): why a hopeless request would be refused.
    client.send(&ClientMsg::Ops {
        query: OpsQuery::Explain {
            request: SubmitRequest::new(Task::new(3, avail.as_f64(), 30_000.0, 0.001)),
        },
    });
    let msg = client.recv(server, avail);
    assert!(
        matches!(
            &msg,
            ServerMsg::OpsReport {
                report: OpsReport::Explain {
                    explanation: Some(_),
                    ..
                }
            }
        ),
        "{msg:?}"
    );

    let mut violator = InlineClient::connect(to);
    assert!(matches!(
        violator.recv(server, avail),
        ServerMsg::Hello { .. }
    ));
    violator.send_raw(b"XXXXXXXXXXXXXXXXXXXXXXXX");
    let msg = violator.recv(server, avail);
    assert!(matches!(msg, ServerMsg::Error { .. }), "{msg:?}");
    assert!(violator.closed(server, avail), "the violator is closed");

    client.send(&ClientMsg::Bye);
    assert!(client.closed(server, avail), "Bye closes the connection");
    assert_eq!(server.connections(), 0);
    vec![client.received, violator.received]
}

/// The in-memory transport cannot drift from production: one scripted
/// session, served over epoll and over `rtdls_world::mem::Mem` from identical
/// gateways at identical instants, sends every connection the same bytes.
#[test]
fn the_in_memory_transport_serves_byte_for_byte_what_epoll_serves() {
    let avail = SimTime::new(1000.0);
    let cfg = EdgeConfig::default();
    let mut epoll = EdgeServer::bind("127.0.0.1:0", saturated_until(avail), cfg).unwrap();
    let addr = epoll.local_addr();
    let over_epoll = scripted_session(&mut epoll, &addr, avail);
    let (mut mem, net) = mem_server(saturated_until(avail), cfg);
    let over_mem = scripted_session(&mut mem, &net, avail);
    assert!(over_epoll.iter().all(|bytes| !bytes.is_empty()));
    assert_eq!(over_mem, over_epoll, "byte-identical server output");
    assert_eq!(mem.stats(), epoll.stats());
}
