//! A replicated edge in the crash world: a reactor whose journaled head
//! ships over its follower link into the world's warm standby, with the
//! whole observability plane on, while every query `rtdls-top` sends is
//! answered over the wire — and the link's ways to fail a primary: a
//! standby that stops reading, a primary that goes quiet, and a link that
//! delays and splits.

use rtdls_core::prelude::*;
use rtdls_edge::prelude::*;
use rtdls_edge::proto::{OpsQuery, OpsReport};
use rtdls_journal::prelude::*;
use rtdls_replica::prelude::*;
use rtdls_service::prelude::*;
use rtdls_telemetry::{HistoryConfig, MetricKind, MetricSample, MetricsRegistry, Telemetry};
use rtdls_world::disk::Model;
use rtdls_world::mem::{InlineClient, MemClient};
use rtdls_world::{baseline_gateway, Client, FaultPlan, Follow, Scenario, World};

type Conn = InlineClient<MemClient>;

const NO_COMPACTION: JournalConfig = JournalConfig {
    snapshot_every: 0,
    compact_on_snapshot: false,
};

/// Names in README § Unified metrics that a single short replicated run
/// cannot produce, each with the reason.
const UNREACHED: [(&str, &str); 1] = [(
    "rtdls_tenant_demoted",
    "only a recovery that demotes a tenant's reservations emits it",
)];

/// Every `rtdls_*` name the README's metrics table documents. A name
/// abbreviated after a slash (`rtdls_journal_sink_appends` / `_writes`)
/// replaces as many trailing words of the name before it as it has.
fn documented_metric_names() -> Vec<String> {
    let readme = include_str!("../../../README.md");
    let start = readme
        .find("### Unified metrics")
        .expect("README has the metrics section");
    let section = &readme[start..];
    let section = &section[..section[4..].find("\n### ").map_or(section.len(), |e| e + 4)];
    let (mut names, mut last): (Vec<String>, Option<String>) = (Vec::new(), None);
    for (at, _) in section.match_indices('`') {
        let name = section[at + 1..].chars();
        let name: String = name
            .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        let name = match &last {
            _ if name.starts_with("rtdls_") => name,
            Some(last) if name.len() > 1 && name.starts_with('_') => {
                let words: Vec<&str> = last.split('_').collect();
                let keep = words.len() - name[1..].split('_').count();
                words[..keep].join("_") + &name
            }
            _ => continue,
        };
        last = Some(name.clone());
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// The name a sample is documented under: a histogram's flattened
/// series count as its base name.
fn base_name(sample: &str) -> &str {
    ["_count", "_sum", "_bucket", "_p50", "_p90", "_p99"]
        .iter()
        .find_map(|suffix| sample.strip_suffix(suffix))
        .unwrap_or(sample)
}

#[test]
fn a_replicated_edge_ships_its_wal_and_answers_every_ops_query() {
    // The primary's WAL is a file on the model disk, so the sink's series
    // exist too; telemetry (spans and phases) and history are on.
    let disk = Model::new("/model/reactor-0.wal");
    let scenario = Scenario::new(NO_COMPACTION).follow(Follow::clean(1));
    let cfg = EdgeConfig::default();
    let gateways = vec![baseline_gateway(2)];
    let mut world = World::edge_on_disk(gateways, scenario, cfg, disk, "/model");
    world.reactors_mut()[0].set_telemetry(&Telemetry::with_defaults());
    world.reactors_mut()[0].enable_history(HistoryConfig {
        capacity: 240,
        cadence: 0.05,
    });
    let net = world.net().clone();

    // Eight submits that fit and one hopeless refusal (so the rejection
    // breakdown has a row).
    let mut now = SimTime::new(1.0);
    let mut client = Conn::greeted(&net, &mut world, now);
    for id in 1..=9u64 {
        let deadline = if id == 9 { 0.001 } else { 30_000.0 };
        let request = SubmitRequest::new(Task::new(id, 0.0, 200.0, deadline));
        let verdict = client.submit(id, request, &mut world, now);
        assert_eq!(verdict.is_accepted(), id != 9, "{verdict:?}");
    }
    // A few turns for the acks to come back and history to sample.
    for _ in 0..4 {
        now += SimTime::new(0.1);
        world.poll(now);
    }

    // The ops channel reports the replication view rtdls-top renders.
    let mut ops = Conn::greeted(&net, &mut world, now);
    let OpsReport::Stats {
        samples,
        epoch,
        ack_lag,
    } = ops.ops(OpsQuery::Stats, &mut world, now)
    else {
        panic!("expected a Stats report");
    };
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
        "each turn pumps after its commit, so nothing admitted sits unshipped"
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
    let OpsReport::RecentTraces { traces } = ops.ops(OpsQuery::RecentTraces, &mut world, now)
    else {
        panic!("expected recent traces");
    };
    let id = *traces.last().expect("submissions minted traces");
    let OpsReport::Trace { spans, .. } = ops.ops(OpsQuery::Trace { id }, &mut world, now) else {
        panic!("expected a trace");
    };
    assert!(!spans.is_empty());
    let OpsReport::Slo { rows } = ops.ops(OpsQuery::Slo, &mut world, now) else {
        panic!("expected the SLO table");
    };
    assert!(
        rows.iter()
            .any(|r| r.objective == SloObjective::Acceptance && r.good > 0),
        "accepted submissions fed the acceptance SLO: {rows:?}"
    );
    let mut explain = |request| match ops.ops(OpsQuery::Explain { request }, &mut world, now) {
        OpsReport::Explain { explanation, .. } => explanation,
        other => panic!("expected an explanation, got {other:?}"),
    };
    let hopeless = SubmitRequest::new(Task::new(900, 0.0, 30_000.0, 0.001));
    let explanation = explain(hopeless).expect("a hopeless request has an explanation");
    assert!(explanation.min_feasible_deadline > 0.001, "{explanation:?}");
    let easy = SubmitRequest::new(Task::new(901, 0.0, 200.0, 1.0e6));
    assert!(explain(easy).is_none(), "an admissible request needs none");

    // History (`--history`): the empty series is the catalog; a named one
    // returns its retained ring.
    let mut history = |series: &str| {
        let query = OpsQuery::History {
            series: series.to_string(),
            range: 0.0,
        };
        match ops.ops(query, &mut world, now) {
            OpsReport::History {
                points, available, ..
            } => (points, available),
            other => panic!("expected history, got {other:?}"),
        }
    };
    let (points, available) = history("");
    assert!(points.is_empty(), "catalog query carries no points");
    assert!(
        available.iter().any(|s| s == "rtdls_edge_submits"),
        "{available:?}"
    );
    let (points, _) = history("rtdls_edge_submits");
    assert!(!points.is_empty(), "the submit series has sampled points");

    // Profile (`--profile`): the reactor's and the shipper's phases.
    let OpsReport::Profile { phases } = ops.ops(OpsQuery::Profile, &mut world, now) else {
        panic!("expected the profile");
    };
    assert!(
        phases.iter().any(|p| p.path == "edge/drive" && p.count > 0)
            && phases.iter().any(|p| p.path.starts_with("ship/")),
        "{phases:?}"
    );

    // The mirror is byte-identical to the primary's WAL, and the standby
    // equals the live head's state: a failover here would lose nothing.
    let follower = world.follower().expect("the standby");
    let head = world.reactors()[0].gateway();
    assert!(follower.stats().applied >= 10, "{:?}", follower.stats());
    assert_eq!(follower.bytes(), head.journal().bytes());
    assert_eq!(
        GatewaySnapshot::capture(follower.standby().expect("a standby")),
        GatewaySnapshot::capture(head.inner()),
        "standby state equals the primary's"
    );

    // README § Unified metrics and the series a replicated edge exports
    // (the primary's `Ops::Stats` and the follower's fold) name each
    // other, both ways.
    let mut follower_reg = MetricsRegistry::new();
    fold_follower_metrics(&mut follower_reg, follower);
    let exported: Vec<MetricSample> = samples.into_iter().chain(follower_reg.flatten()).collect();
    let exported: Vec<&str> = exported.iter().map(|s| base_name(&s.name)).collect();
    let documented = documented_metric_names();
    assert!(documented.len() >= 30, "{documented:?}");
    for name in &documented {
        let reached = exported.contains(&name.as_str());
        let excused = UNREACHED.iter().any(|(n, _)| n == name);
        assert!(
            reached != excused,
            "{name}: reached {reached}, excused {excused}"
        );
    }
    let undocumented: Vec<&&str> = (exported.iter())
        .filter(|name| !documented.iter().any(|d| d == *name))
        .collect();
    assert!(undocumented.is_empty(), "not in README: {undocumented:?}");
}

/// Submits enough refusals to fill the link's 64 KiB in-memory buffer and
/// then its queue past [`LINK_QUEUE_CAP`] (4 MiB): each is refused with its
/// explanation journaled, ≈ 1.4 KB as ship messages.
const WEDGE_SUBMITS: u64 = 4_000;

/// A standby that is linked and never reads costs the primary its link,
/// not its clients: every submit gets its verdict, and the link is dropped
/// and counted once. A primary that wrote to the standby with a blocking
/// write on the reactor thread stopped for good once the buffers were full.
#[test]
fn a_standby_that_never_reads_loses_its_link_not_the_clients() {
    let scenario = Scenario::new(NO_COMPACTION).follow(Follow::clean(2));
    let mut world = World::edge(vec![baseline_gateway(2)], scenario, EdgeConfig::default());
    let (link, _standby) = world.net().link(FaultPlan::clean(3), FaultPlan::clean(4));
    world.reactors_mut()[0]
        .follow(link)
        .expect("link the standby");
    let hopeless =
        (1..=WEDGE_SUBMITS).map(|id| SubmitRequest::new(Task::new(id, 0.0, 30_000.0, 0.001)));
    world.run(vec![Client::new(hopeless.collect(), 64)]);
    let stats = world.stats()[0];
    assert_eq!(stats.submits, WEDGE_SUBMITS, "{stats:?}");
    assert_eq!(stats.links_dropped, 1, "{stats:?}");
}

/// An idle linked primary heartbeats on its own timer: over four heartbeat
/// intervals without a submit, the standby hears at least four beats and
/// never decides the primary is dead.
#[test]
fn an_idle_linked_primary_keeps_its_standby_from_promoting() {
    let cfg = ShipConfig::default();
    let scenario = Scenario::new(NO_COMPACTION).follow(Follow::clean(5));
    let mut world = World::edge(vec![baseline_gateway(2)], scenario, EdgeConfig::default());
    assert!(4.0 * cfg.heartbeat_every > FollowerConfig::default().promote_after);
    let mut now = SimTime::ZERO;
    for _ in 0..=40 {
        world.poll(now);
        now += SimTime::new(cfg.heartbeat_every / 10.0);
    }
    let follower = world.follower().expect("the standby");
    assert!(follower.stats().heartbeats >= 4, "{:?}", follower.stats());
    assert!(!follower.should_promote(now));
    assert_eq!(world.stats()[0].links_dropped, 0);
    let head = world.reactors()[0].gateway();
    assert!(head.ack_lag().is_some(), "acks came back");
}

/// An edge reactor's link delays every write by 1–8 s and splits for a
/// window shorter than the standby's silence budget. The world holds the
/// mirror to a prefix of the WAL after every turn; the split leaves the
/// mirror behind, the shipper's retransmission closes the gap after it
/// heals, and the standby never decides the primary is dead.
#[test]
fn an_edge_link_that_delays_and_splits_catches_up_without_a_promotion() {
    let (from, until) = (SimTime::new(300.0), SimTime::new(420.0));
    let follow = Follow {
        link: FaultPlan::clean(7)
            .with_delay(1.0, 8.0)
            .with_split(from, until),
        acks: FaultPlan::clean(8).with_delay(1.0, 3.0),
        ship: ShipConfig {
            heartbeat_every: 20.0,
            retransmit_after: 60.0,
        },
        follower: FollowerConfig {
            promote_after: 150.0,
        },
    };
    assert!((until - from).as_f64() < follow.follower.promote_after);
    let scenario = Scenario::new(NO_COMPACTION).follow(follow);
    let mut world = World::edge(vec![baseline_gateway(2)], scenario, EdgeConfig::default());
    let net = world.net().clone();
    let mut client = Conn::greeted(&net, &mut world, SimTime::ZERO);
    let mut behind_at_heal = 0;
    for step in 0..=240u64 {
        let now = SimTime::new(step as f64 * 5.0);
        if step % 4 == 0 && step < 160 {
            let request = SubmitRequest::new(Task::new(step, now.as_f64(), 20.0, 2_000.0));
            client.send(&ClientMsg::Submit { seq: step, request });
        }
        // A turn's channel round comes first: over a perfect link the
        // mirror then holds everything the turns before shipped.
        let shipped = world.reactors()[0].gateway().journal().bytes().len();
        world.poll(now);
        let follower = world.follower().expect("the standby");
        assert!(!follower.should_promote(now), "promotable at {now:?}");
        if now == until {
            behind_at_heal = shipped - follower.bytes().len();
        }
    }
    assert!(behind_at_heal > 0, "the split held the mirror back");
    let record = world.record();
    assert!(record.link.split_dropped > 0, "{:?}", record.link);
    assert!(record.ship.retransmitted > 0, "{:?}", record.ship);
    let head = world.reactors()[0].gateway();
    assert_eq!(
        world.follower().expect("the standby").bytes(),
        head.journal().bytes(),
        "caught up"
    );
    assert_eq!(record.promoted_at, None);
}
