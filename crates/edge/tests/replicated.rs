//! A replicated edge deployment, end to end over real sockets: an edge
//! server fronting a [`ShippingGateway`] whose journal streams over TCP
//! into a [`FollowerServer`] warm standby, with the whole observability
//! plane on, while every query `rtdls-top` sends is answered over the wire.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtdls_core::prelude::*;
use rtdls_edge::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_replica::prelude::*;
use rtdls_service::prelude::*;
use rtdls_telemetry::{HistoryConfig, MetricKind, MetricsRegistry, Telemetry};

fn journaled_primary() -> JournaledGateway<ShardedGateway> {
    let gateway = ShardedGateway::new(
        ClusterParams::paper_baseline(),
        2,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    JournaledGateway::new(
        gateway,
        JournalConfig {
            snapshot_every: 0,
            compact_on_snapshot: false,
        },
    )
}

#[test]
fn edge_over_shipping_gateway_replicates_and_reports_lag() {
    // The warm standby, accepting one primary.
    let follower: Follower<ShardedGateway> = Follower::new(FollowerConfig::default());
    let mut standby = FollowerServer::bind("127.0.0.1:0", follower).expect("bind standby");
    let standby_addr = standby.local_addr().expect("standby addr");
    let standby_thread = std::thread::spawn(move || {
        let processed = standby
            .serve_connection(Duration::from_secs(5))
            .expect("standby serves");
        (standby, processed)
    });

    // The primary edge, shipping as it serves: tracing, profiler and
    // history on (a cadence fast enough for this short run to land samples).
    let mut gateway = ShippingGateway::new(journaled_primary(), ShipConfig::default());
    gateway.attach(ShipClient::connect(standby_addr).expect("connect standby"));
    let mut server =
        EdgeServer::bind("127.0.0.1:0", gateway, EdgeConfig::default()).expect("bind edge");
    server.set_telemetry(&Telemetry::with_defaults());
    server.enable_profiler();
    server.enable_history(HistoryConfig {
        capacity: 240,
        cadence: 0.05,
    });
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let server_stop = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(EdgeClock::real_time(), &server_stop));

    // Submit through the real protocol.
    let requests = (1..=8u64).map(|id| SubmitRequest::new(Task::new(id, 0.0, 200.0, 30_000.0)));
    let client = ReplayClient::connect(addr).expect("connect replay");
    let report = client
        .run(
            requests,
            4,
            Duration::from_millis(50),
            Duration::from_secs(5),
        )
        .expect("replay run");
    assert_eq!(report.verdicts(), 8, "every submit answered: {report:?}");

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
    assert!(get("rtdls_replica_appended_offset") >= 9.0, "genesis + 8");
    assert_eq!(
        get("rtdls_replica_shipped_offset"),
        get("rtdls_replica_appended_offset"),
        "decide() pumps in the same turn, so nothing admitted sits unshipped"
    );
    assert!(get("rtdls_replica_frames_shipped") >= 9.0);
    assert_eq!(get("rtdls_journal_epoch"), 0.0);
    assert_eq!(get("rtdls_edge_submits"), 8.0);
    assert_eq!(get("rtdls_gateway_submitted"), 8.0);
    assert!(get("rtdls_edge_turns") >= 1.0, "phase timing accumulated");
    let (epoch, ack_lag) = ops.identity(deadline).expect("identity");
    assert_eq!(epoch, 0, "pre-failover primary");
    assert!(ack_lag.is_some(), "an attached transport reports ack lag");

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
    assert_eq!(stats.submits, 8);
    let wal = gateway.inner().journal().bytes().to_vec();
    drop(gateway);
    let (standby, processed) = standby_thread.join().expect("standby thread");
    assert!(processed >= 9, "standby saw the whole stream: {processed}");

    // The mirror is byte-identical to the primary's WAL: a failover here
    // would lose nothing.
    assert_eq!(standby.follower().bytes(), &wal[..]);
    let (cold, report) = replay::<ShardedGateway>(standby.follower().bytes()).expect("replays");
    assert!(report.tail.is_clean());
    assert_eq!(
        cold.capture().normalized(),
        gateway_snapshot_of(&wal),
        "standby state equals a cold recovery of the primary's WAL"
    );
}

/// Normalized snapshot of a cold replay of `wal` — the reference state.
fn gateway_snapshot_of(wal: &[u8]) -> GatewaySnapshot {
    let (gw, _) = replay::<ShardedGateway>(wal).expect("wal replays");
    gw.capture().normalized()
}
