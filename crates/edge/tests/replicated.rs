//! A replicated edge deployment, end to end over real sockets: an edge
//! server fronting a [`ShippingGateway`] whose journal streams over its
//! follower link into a [`FollowerServer`] warm standby, with the whole
//! observability plane on, while every query `rtdls-top` sends is answered
//! over the wire — and the link's two ways to fail a primary: a standby
//! that stops reading, and a primary that goes quiet.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtdls_core::prelude::*;
use rtdls_edge::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_replica::net::{read_msg, write_msg};
use rtdls_replica::prelude::*;
use rtdls_service::prelude::*;
use rtdls_telemetry::{HistoryConfig, MetricKind, MetricSample, MetricsRegistry, Telemetry};
use rtdls_world::baseline_gateway;

/// Names in README § Unified metrics that a single short replicated run
/// cannot produce, each with the reason.
const UNREACHED: [(&str, &str); 1] = [(
    "rtdls_tenant_demoted",
    "only a recovery that demotes a tenant's reservations emits it",
)];

/// Every full `rtdls_*` name the README's metrics table documents.
fn documented_metric_names() -> Vec<String> {
    let readme = include_str!("../../../README.md");
    let start = readme
        .find("### Unified metrics")
        .expect("README has the metrics section");
    let section = &readme[start..];
    let section = &section[..section[4..].find("\n### ").map_or(section.len(), |e| e + 4)];
    let mut names: Vec<String> = Vec::new();
    for (at, _) in section.match_indices("rtdls_") {
        let glued = section[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let name: String = section[at..]
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        if !glued && !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// Whether `samples` carry `name`, as a scalar or as a flattened histogram.
fn exported(samples: &[MetricSample], name: &str) -> bool {
    let count = format!("{name}_count");
    samples.iter().any(|s| s.name == name || s.name == count)
}

fn journaled_primary() -> JournaledGateway {
    JournaledGateway::new(baseline_gateway(2), NO_COMPACTION)
}

const NO_COMPACTION: JournalConfig = JournalConfig {
    snapshot_every: 0,
    compact_on_snapshot: false,
};

#[test]
fn edge_over_shipping_gateway_replicates_and_reports_lag() {
    // The warm standby, accepting one primary.
    let follower = Follower::new(FollowerConfig::default());
    let mut standby = FollowerServer::bind("127.0.0.1:0", follower).expect("bind standby");
    let standby_addr = standby.local_addr().expect("standby addr");
    let standby_thread = std::thread::spawn(move || {
        let processed = standby
            .serve_connection(Duration::from_secs(5))
            .expect("standby serves");
        (standby, processed)
    });

    // The primary edge, shipping as it serves: telemetry (spans and
    // phases) and history on (a cadence fast enough for this short run to
    // land samples). Its WAL is a file, so the sink's series exist too.
    let wal = std::env::temp_dir().join(format!("rtdls-replicated-{}.wal", std::process::id()));
    let sink = FileSink::create(&wal).expect("create the primary's WAL");
    let primary = JournaledGateway::with_sink(baseline_gateway(2), NO_COMPACTION, Box::new(sink));
    let gateway = ShippingGateway::new(primary, ShipConfig::default());
    let mut server =
        EdgeServer::bind("127.0.0.1:0", gateway, EdgeConfig::default()).expect("bind edge");
    let link = TcpStream::connect(standby_addr).expect("connect standby");
    server.follow(link).expect("link the standby");
    server.set_telemetry(&Telemetry::with_defaults());
    server.enable_history(HistoryConfig {
        capacity: 240,
        cadence: 0.05,
    });
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let server_stop = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(EdgeClock::real_time(), &server_stop));

    // Submit through the real protocol: eight that fit and one hopeless
    // refusal (so the rejection breakdown has a row).
    let requests = (1..=9u64).map(|id| {
        let deadline = if id == 9 { 0.001 } else { 30_000.0 };
        SubmitRequest::new(Task::new(id, 0.0, 200.0, deadline))
    });
    let client = ReplayClient::connect(addr).expect("connect replay");
    let report = client
        .run(
            requests,
            4,
            Duration::from_millis(50),
            Duration::from_secs(5),
        )
        .expect("replay run");
    assert_eq!(report.verdicts(), 9, "every submit answered: {report:?}");

    // The ops channel reports the replication view rtdls-top renders.
    let deadline = Duration::from_secs(5);
    let mut ops = OpsClient::connect(addr).expect("connect ops");
    let samples = ops.stats(deadline).expect("stats");
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(get("rtdls_replica_connected"), 1.0);
    assert!(get("rtdls_replica_appended_offset") >= 10.0, "genesis + 9");
    assert_eq!(
        get("rtdls_replica_shipped_offset"),
        get("rtdls_replica_appended_offset"),
        "decide() pumps in the same turn, so nothing admitted sits unshipped"
    );
    assert!(get("rtdls_replica_frames_shipped") >= 10.0);
    assert_eq!(get("rtdls_journal_epoch"), 0.0);
    assert_eq!(get("rtdls_edge_submits"), 9.0);
    assert_eq!(get("rtdls_gateway_submitted"), 9.0);
    // The phase table is part of the folded snapshot.
    let drive_turns = samples
        .iter()
        .find(|s| {
            s.name == "rtdls_profile_ns_count"
                && s.labels == [("phase".to_string(), "edge/drive".to_string())]
        })
        .map_or(0.0, |s| s.value);
    assert!(drive_turns >= 1.0, "phase timing accumulated");
    // Acks come back on the link's own readiness, so wait for the first.
    let asked = Instant::now();
    let (epoch, ack_lag) = loop {
        let (epoch, ack_lag) = ops.identity(deadline).expect("identity");
        if ack_lag.is_some() || asked.elapsed() > deadline {
            break (epoch, ack_lag);
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(epoch, 0, "pre-failover primary");
    assert!(ack_lag.is_some(), "a linked standby's acks report ack lag");

    // A scrape: the registry rebuilt from the wire samples renders an
    // exposition whose every metric line is `name[{labels}] value`.
    let mut reg = MetricsRegistry::new();
    for s in &samples {
        let labels: Vec<(&str, &str)> = s
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        match s.kind {
            MetricKind::Counter => reg.counter(&s.name, &labels, s.value as u64),
            MetricKind::Gauge => reg.gauge(&s.name, &labels, s.value),
        }
    }
    let exposition = reg.to_prometheus();
    let metric_lines: Vec<&str> = exposition
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert!(metric_lines.len() >= samples.len());
    for line in &metric_lines {
        let (name, value) = line.rsplit_once(' ').expect("metric line splits");
        assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line:?}");
    }
    assert!(exposition.contains("rtdls_replica_lag") && exposition.contains("rtdls_edge_submits"));

    // Traces, SLO table and what-if probes, as `--trace`, `--slo` and an
    // `Explain` query would fetch them.
    let traces = ops.recent_traces(deadline).expect("recent traces");
    let newest = *traces.last().expect("submissions minted traces");
    assert!(!ops.trace(newest, deadline).expect("trace").is_empty());
    let rows = ops.slo(deadline).expect("slo report");
    assert!(
        rows.iter()
            .any(|r| r.objective == SloObjective::Acceptance && r.good > 0),
        "accepted submissions fed the acceptance SLO: {rows:?}"
    );
    let hopeless = SubmitRequest::new(Task::new(900, 0.0, 30_000.0, 0.001));
    let explanation = ops
        .explain(&hopeless, deadline)
        .expect("explain report")
        .expect("a hopeless request has an explanation");
    assert!(explanation.min_feasible_deadline > 0.001, "{explanation:?}");
    let easy = SubmitRequest::new(Task::new(901, 0.0, 200.0, 1.0e6));
    assert!(
        ops.explain(&easy, deadline)
            .expect("explain report")
            .is_none(),
        "an admissible request needs no explanation"
    );

    // History (`--history`): the empty series is the catalog; a named one
    // returns its retained ring.
    let (points, available) = ops.history("", 0.0, deadline).expect("history catalog");
    assert!(points.is_empty(), "catalog query carries no points");
    assert!(
        available.iter().any(|s| s == "rtdls_edge_submits"),
        "{available:?}"
    );
    let (points, _) = ops
        .history("rtdls_edge_submits", 0.0, deadline)
        .expect("history series");
    assert!(!points.is_empty(), "the submit series has sampled points");

    // Profile (`--profile`): the reactor's and the shipper's phases.
    let phases = ops.profile(deadline).expect("profile report");
    assert!(
        phases.iter().any(|p| p.path == "edge/drive" && p.count > 0)
            && phases.iter().any(|p| p.path.starts_with("ship/")),
        "{phases:?}"
    );

    // Tear the primary down; the standby finishes draining on EOF.
    stop.store(true, Ordering::Relaxed);
    let (gateway, stats) = handle.join().expect("edge thread");
    assert_eq!(stats.submits, 9);
    let wal_bytes = gateway.inner().journal().bytes().to_vec();
    drop(gateway);
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(wal.with_extension("wal.spare"));
    let wal = wal_bytes;
    let (standby, processed) = standby_thread.join().expect("standby thread");
    assert!(processed >= 10, "standby saw the whole stream: {processed}");

    // Every metric the README documents is exported by the primary's
    // `Ops::Stats` or by the follower's fold.
    let mut follower_reg = MetricsRegistry::new();
    fold_follower_metrics(&mut follower_reg, standby.follower());
    let follower_samples = follower_reg.flatten();
    let documented = documented_metric_names();
    assert!(documented.len() >= 30, "{documented:?}");
    for name in &documented {
        let reached = exported(&samples, name) || exported(&follower_samples, name);
        let excused = UNREACHED.iter().any(|(n, _)| n == name);
        assert!(
            reached != excused,
            "{name}: reached {reached}, excused {excused}"
        );
    }

    // The mirror is byte-identical to the primary's WAL: a failover here
    // would lose nothing.
    assert_eq!(standby.follower().bytes(), &wal[..]);
    let (cold, report) = replay::<ShardedGateway>(standby.follower().bytes()).expect("replays");
    assert!(report.tail.is_clean());
    assert_eq!(
        GatewaySnapshot::capture(&cold),
        gateway_snapshot_of(&wal),
        "standby state equals a cold recovery of the primary's WAL"
    );
}

/// The captured state of a cold replay of `wal` — the reference state.
fn gateway_snapshot_of(wal: &[u8]) -> GatewaySnapshot {
    let (gw, _) = replay::<ShardedGateway>(wal).expect("wal replays");
    GatewaySnapshot::capture(&gw)
}

/// Both ends of one loopback connection: the primary's, the standby's.
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let primary = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (standby, _) = listener.accept().expect("accept");
    (primary, standby)
}

/// Submits enough refusals to fill the kernel's loopback buffers and then
/// the link's queue past its cap. Each is refused with its explanation
/// journaled: ≈ 300 B of journal, ≈ 1.4 KB as ship messages. With Linux's
/// default 4 MiB `tcp_wmem` ceiling the link drops between 6 000 and 8 000
/// submits; this sends half again as many.
const WEDGE_SUBMITS: u64 = 12_000;

/// How long the whole wedge run may take, dev build included.
const WEDGE_BOUND: Duration = Duration::from_secs(60);

/// A standby that accepts and never reads costs the primary its link, not
/// its clients: every submit gets its verdict in bounded time, and the
/// link is dropped and counted once. A primary that wrote to the standby
/// with a blocking `write_all` on the reactor thread stopped for good once
/// the kernel's buffers were full, at ≈ 0.9 MB of journal.
#[test]
fn a_standby_that_never_reads_loses_its_link_not_the_clients() {
    let gateway = ShippingGateway::new(journaled_primary(), ShipConfig::default());
    let mut server =
        EdgeServer::bind("127.0.0.1:0", gateway, EdgeConfig::default()).expect("bind edge");
    let (link, standby) = socket_pair();
    server.follow(link).expect("link the standby");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let server_stop = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(EdgeClock::real_time(), &server_stop));

    let started = Instant::now();
    let hopeless =
        (1..=WEDGE_SUBMITS).map(|id| SubmitRequest::new(Task::new(id, 0.0, 30_000.0, 0.001)));
    let report = ReplayClient::connect(addr)
        .expect("connect replay")
        .run(hopeless, 64, Duration::ZERO, WEDGE_BOUND)
        .expect("replay run");
    let took = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    let (_, stats) = handle.join().expect("edge thread");
    assert!(!report.timed_out, "{report:?}");
    assert_eq!(report.verdicts(), WEDGE_SUBMITS);
    assert!(took < WEDGE_BOUND, "{took:?}");
    assert_eq!(stats.links_dropped, 1, "{stats:?}");
    drop(standby);
}

/// An idle linked primary heartbeats on its own timer: over four heartbeat
/// intervals without a submit, the standby hears at least four beats and
/// never decides the primary is dead. Driven inline on a manual clock.
#[test]
fn an_idle_linked_primary_keeps_its_standby_from_promoting() {
    let cfg = ShipConfig::default();
    let gateway = ShippingGateway::new(journaled_primary(), cfg);
    let mut server =
        EdgeServer::bind("127.0.0.1:0", gateway, EdgeConfig::default()).expect("bind edge");
    let (link, mut standby) = socket_pair();
    server.follow(link).expect("link the standby");
    standby
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    let mut follower = Follower::new(FollowerConfig::default());
    assert!(4.0 * cfg.heartbeat_every > FollowerConfig::default().promote_after);

    let step = cfg.heartbeat_every / 10.0;
    let mut now = SimTime::ZERO;
    for _ in 0..=40 {
        server.poll(now);
        loop {
            match read_msg(&mut standby) {
                Ok(Some(msg)) => {
                    if let Some(ack) = follower.on_msg(now, msg).expect("applies") {
                        write_msg(&mut standby, &ack).expect("ack");
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                other => panic!("standby read {other:?}"),
            }
        }
        now += SimTime::new(step);
    }
    assert!(follower.stats().heartbeats >= 4, "{:?}", follower.stats());
    assert!(!follower.should_promote(now));
    assert_eq!(server.stats().links_dropped, 0);
    assert!(server.gateway().ack_lag().is_some(), "acks came back");
}
