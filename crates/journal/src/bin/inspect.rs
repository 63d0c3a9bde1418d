//! `journalctl`-style audit inspector for rtdls WAL files.
//!
//! Walks a journal's frames ([`wire::decode_frames`]) and pretty-prints
//! each record with its byte offset: snapshots as one-line gateway
//! summaries, inputs as the replayed command stream, and audit records as
//! the decision history — accepted plans, defer tickets, demotions, and
//! the v2 reservation / activation / quota events. The tail status closes
//! the listing, so a torn or corrupt log is visible at a glance.
//!
//! ```text
//! Usage: inspect <journal-file> [--inputs | --audit] [--limit N] [--json]
//! ```
//!
//! `--json` switches to a machine-readable mode for edge/ops tooling: one
//! JSON object per line — `{"offset":…,"version":1|2,"kind":"snapshot"|
//! "event","class":"input"|"audit","record":…}` with the frame's header
//! version (a WAL begun before version 2 mixes both) and the record's own
//! JSON embedded verbatim — closed by `{"omitted":…}` when `--limit` truncates,
//! a `{"durability":…}` summary of the physical log (bytes, record and
//! snapshot counts), and a final `{"tail":…}` status object.
//!
//! The file is read as recovery reads it ([`FileSink::read`]: the zero
//! tail a live log keeps ahead of its end is dropped). The exit status is 0
//! only for a log read whole with a clean tail.
//!
//! [`FileSink::read`]: rtdls_journal::FileSink::read

use std::process::ExitCode;

use rtdls_journal::event::JournalEvent;
use rtdls_journal::snapshot::GatewaySnapshot;
use rtdls_journal::wire::{self, Frame, RecordKind, TailStatus};

/// One line per snapshot: the gateway shape and the sizes of its books.
fn describe_snapshot(snap: &GatewaySnapshot) -> String {
    let queues: Vec<usize> = snap.shards.iter().map(|s| s.queue.len()).collect();
    format!(
        "SNAPSHOT {} {} nodes × {} shard(s) | waiting {:?} | defer {} | reservations {} | \
         tenants {} | submitted {} accepted {} rejected {}",
        if snap.shards.len() > 1 {
            "sharded"
        } else {
            "single"
        },
        snap.params.num_nodes,
        snap.shards.len(),
        queues,
        snap.defer.tickets.len(),
        snap.reservations.reservations.len(),
        snap.metrics.tenants.len(),
        snap.metrics.submitted,
        snap.metrics.accepted_total(),
        snap.metrics.rejected_total(),
    )
}

/// One line per event, input commands prefixed `IN`, audit records `AUDIT`.
fn describe_event(ev: &JournalEvent) -> String {
    let class = if ev.is_input() { "IN   " } else { "AUDIT" };
    let body = match ev {
        JournalEvent::Submitted { task, at } => format!(
            "submit task {} (σ={} D={}) at {at}",
            task.id.0, task.data_size, task.rel_deadline
        ),
        JournalEvent::RequestSubmitted { request, at } => format!(
            "request task {} tenant {} {:?} max_delay {:?} at {at}",
            request.task.id.0, request.tenant.0, request.qos, request.max_delay
        ),
        JournalEvent::BatchSubmitted { tasks, at } => {
            let ids: Vec<u64> = tasks.iter().map(|t| t.id.0).collect();
            format!("batch of {} {ids:?} at {at}", tasks.len())
        }
        JournalEvent::Completed { node, at } => format!("node {node} released at {at}"),
        JournalEvent::DispatchDue { at } => format!("dispatch due at {at}"),
        JournalEvent::Replanned { at } => format!("replanned at {at}"),
        JournalEvent::Retested { at } => format!("defer sweep at {at}"),
        JournalEvent::ActivationDue { at } => format!("reservation activation sweep at {at}"),
        JournalEvent::Finalized { at } => format!("finalized at {at}"),
        JournalEvent::Drained => "resolutions drained".to_string(),
        JournalEvent::Accepted { task, plan } => format!(
            "task {task} ACCEPTED on {} node(s), est completion {}",
            plan.distinct_nodes(),
            plan.est_completion
        ),
        JournalEvent::Deferred { task, ticket } => {
            format!("task {task} DEFERRED under ticket {ticket}")
        }
        JournalEvent::Rejected { task, cause } => format!("task {task} REJECTED: {cause}"),
        JournalEvent::Rescued { task } => format!("task {task} RESCUED from the defer queue"),
        JournalEvent::Demoted { task, at } => {
            format!("task {task} DEMOTED by recovery re-verification at {at}")
        }
        JournalEvent::Reserved {
            task,
            ticket,
            start_at,
        } => format!("task {task} RESERVED (ticket {ticket}) to start at {start_at}"),
        JournalEvent::ReservationActivated {
            task,
            ticket,
            at,
            admitted,
        } => format!(
            "reservation {ticket} (task {task}) activated at {at}: {}",
            if *admitted { "ADMITTED" } else { "MISSED" }
        ),
        JournalEvent::Throttled { task, tenant } => {
            format!("task {task} THROTTLED (tenant {tenant} over quota)")
        }
        JournalEvent::SloBreach { breach } => format!(
            "SLO BREACH {} {} at {} (short burn {:.2}, long burn {:.2}, {} recent task(s), {} timeline line(s))",
            breach.row.scope(),
            breach.transition.objective.label(),
            breach.transition.at,
            breach.row.short_burn,
            breach.row.long_burn,
            breach.recent_tasks.len(),
            breach.timelines.len(),
        ),
    };
    format!("{class} {body}")
}

/// Each frame with its event decoded, unless `filter` drops it: None =
/// everything, Some(true) = inputs only, Some(false) = audit records only
/// (snapshots and undecodable events always print).
fn select(
    frames: &[Frame],
    filter: Option<bool>,
) -> impl Iterator<Item = (&Frame, Option<Result<JournalEvent, serde::Error>>)> {
    frames.iter().filter_map(move |frame| {
        let ev = (frame.kind == RecordKind::Event)
            .then(|| serde_json::from_slice::<JournalEvent>(&frame.payload));
        match (&ev, filter) {
            (Some(Ok(ev)), Some(inputs_only)) if ev.is_input() != inputs_only => None,
            _ => Some((frame, ev)),
        }
    })
}

/// `entries` cut to `limit`, `marker(n)` standing for the `n` cut: the
/// filter ran first, so the marker counts exactly what the listing omits.
fn cut(mut entries: Vec<String>, limit: usize, marker: impl Fn(usize) -> String) -> Vec<String> {
    let omitted = entries.len().saturating_sub(limit);
    if omitted > 0 {
        entries.truncate(limit);
        entries.push(marker(omitted));
    }
    entries
}

/// Renders the whole log, [`select`]ed by `filter`, cut at `limit`.
fn render(wal: &[u8], filter: Option<bool>, limit: usize) -> (Vec<String>, TailStatus) {
    let (frames, tail) = wire::decode_frames(wal);
    let entries = select(&frames, filter).map(|(frame, ev)| {
        let line = match ev {
            None => match serde_json::from_slice::<GatewaySnapshot>(&frame.payload) {
                Ok(snap) => describe_snapshot(&snap),
                Err(e) => format!("SNAPSHOT <undecodable: {e}>"),
            },
            Some(Ok(ev)) => describe_event(&ev),
            Some(Err(e)) => format!("EVENT <undecodable: {e}>"),
        };
        format!("{:>10}  {line}", frame.offset)
    });
    (
        cut(entries.collect(), limit, |n| {
            format!("… {n} more record(s)")
        }),
        tail,
    )
}

/// Renders the whole log as JSON lines (see the module docs for the
/// shape). Same `filter`/`limit` semantics as [`render`]; undecodable
/// payloads become `{"undecodable": "<error>"}` records rather than
/// aborting the listing.
fn render_json(wal: &[u8], filter: Option<bool>, limit: usize) -> (Vec<String>, TailStatus) {
    use serde::Value;
    let (frames, tail) = wire::decode_frames(wal);
    let entries = select(&frames, filter).map(|(frame, ev)| {
        let record: Value = serde_json::from_slice(&frame.payload).unwrap_or_else(|e| {
            Value::Map(vec![("undecodable".to_string(), Value::Str(e.to_string()))])
        });
        let kind = if ev.is_some() { "event" } else { "snapshot" };
        let mut obj = vec![
            ("offset".to_string(), Value::Int(frame.offset as i64)),
            ("version".into(), Value::Int(frame.version.into())),
            ("kind".to_string(), Value::Str(kind.to_string())),
        ];
        if let Some(Ok(ev)) = ev {
            let class = if ev.is_input() { "input" } else { "audit" };
            obj.push(("class".to_string(), Value::Str(class.to_string())));
        }
        obj.push(("record".to_string(), record));
        serde_json::to_string(&Value::Map(obj)).expect("serializable")
    });
    let mut lines = cut(entries.collect(), limit, |n| format!("{{\"omitted\":{n}}}"));
    // Physical durability summary (unfiltered): what actually survives on
    // disk, for edge/ops tooling that watches WAL growth and compaction.
    let snapshots = frames
        .iter()
        .filter(|f| f.kind == RecordKind::Snapshot)
        .count();
    lines.push(format!(
        "{{\"durability\":{{\"bytes\":{},\"records\":{},\"snapshots\":{},\"events\":{}}}}}",
        wal.len(),
        frames.len(),
        snapshots,
        frames.len() - snapshots,
    ));
    let tail_line = match tail {
        TailStatus::Clean => "{\"tail\":\"clean\"}".to_string(),
        TailStatus::Truncated { offset } => {
            format!("{{\"tail\":\"truncated\",\"offset\":{offset}}}")
        }
        TailStatus::Corrupt { offset } => format!("{{\"tail\":\"corrupt\",\"offset\":{offset}}}"),
    };
    lines.push(tail_line);
    (lines, tail)
}

const USAGE: &str = "Usage: inspect <journal-file> [--inputs | --audit] [--limit N] [--json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut filter = None;
    let mut limit = usize::MAX;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--inputs" => filter = Some(true),
            "--audit" => filter = Some(false),
            "--json" => json = true,
            "--limit" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => limit = n,
                None => {
                    eprintln!("--limit needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => path = Some(other.to_string()),
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let wal = match rtdls_journal::FileSink::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (lines, tail) = if json {
        render_json(&wal, filter, limit)
    } else {
        println!("{path}: {} byte(s)", wal.len());
        render(&wal, filter, limit)
    };
    for line in lines {
        println!("{line}");
    }
    match tail {
        _ if json => {}
        TailStatus::Clean => println!("tail: clean"),
        TailStatus::Truncated { offset } => {
            println!("tail: TORN WRITE at byte {offset} (records before it are intact)")
        }
        TailStatus::Corrupt { offset } => {
            println!("tail: CORRUPT at byte {offset} (records before it are intact)")
        }
    }
    if tail.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::prelude::*;
    use rtdls_journal::prelude::*;
    use rtdls_service::prelude::*;

    /// A small real WAL: one accept, one reject, a dispatch, a tenant's
    /// premium request.
    fn sample_wal() -> Vec<u8> {
        let gateway = ShardedGateway::new(
            ClusterParams::paper_baseline(),
            2,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::RoundRobin,
            DeferPolicy::default(),
        )
        .unwrap();
        let mut j = JournaledGateway::new(gateway, JournalConfig::default());
        assert!(j
            .submit_request(
                &SubmitRequest::new(Task::new(1, 0.0, 200.0, 30_000.0)),
                SimTime::ZERO
            )
            .is_accepted());
        let _ = j.submit_request(
            &SubmitRequest::new(Task::new(2, 0.0, 200.0, 10.0)),
            SimTime::ZERO,
        );
        let _ = j.drive(SimTime::ZERO);
        let req = SubmitRequest::new(Task::new(3, 1.0, 100.0, 50_000.0))
            .with_tenant(TenantId(5))
            .with_qos(QosClass::Premium);
        assert!(j.submit_request(&req, SimTime::new(1.0)).is_accepted());
        j.journal().bytes().to_vec()
    }

    #[test]
    fn renders_every_frame_with_offsets_and_clean_tail() {
        let wal = sample_wal();
        let (lines, tail) = render(&wal, None, usize::MAX);
        assert_eq!(tail, TailStatus::Clean);
        let text = lines.join("\n");
        assert!(text.contains("SNAPSHOT sharded"), "{text}");
        assert!(text.contains("request task 1 tenant 0"), "{text}");
        assert!(text.contains("ACCEPTED"), "{text}");
        assert!(text.contains("REJECTED"), "{text}");
        assert!(text.contains("dispatch due"), "{text}");
        assert!(text.contains("request task 3 tenant 5 Premium"), "{text}");
        // Every line leads with its frame byte offset.
        assert!(lines.iter().all(|l| l
            .trim_start()
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit())));
        // A WAL from before the v1 writer was retired still prints as it
        // always did: single-cluster genesis, `Submitted`, the batch.
        let legacy = include_bytes!("../../tests/fixtures/legacy_single_cluster.wal");
        let (lines, tail) = render(legacy, None, usize::MAX);
        assert_eq!(tail, TailStatus::Clean);
        let text = lines.join("\n");
        assert!(text.contains("SNAPSHOT single"), "{text}");
        assert!(text.contains("submit task 1"), "{text}");
        assert!(text.contains("batch of 2 [5, 6]"), "{text}");
    }

    #[test]
    fn input_and_audit_filters_partition_the_events() {
        let wal = sample_wal();
        let (all, _) = render(&wal, None, usize::MAX);
        let (inputs, _) = render(&wal, Some(true), usize::MAX);
        let (audit, _) = render(&wal, Some(false), usize::MAX);
        // 1 snapshot line is in all three listings.
        assert_eq!(inputs.len() + audit.len(), all.len() + 1);
        assert!(inputs.iter().any(|l| l.contains("IN   ")));
        assert!(audit.iter().all(|l| !l.contains("IN   ")));
    }

    #[test]
    fn limit_truncates_with_an_accurate_marker() {
        let wal = sample_wal();
        let (all, _) = render(&wal, None, usize::MAX);
        let (lines, _) = render(&wal, None, 2);
        assert_eq!(lines.len(), 3);
        assert_eq!(
            *lines.last().unwrap(),
            format!("… {} more record(s)", all.len() - 2)
        );
        // Under a filter the marker counts only the filtered remainder.
        let (audit, _) = render(&wal, Some(false), usize::MAX);
        let (limited, _) = render(&wal, Some(false), 2);
        assert_eq!(
            *limited.last().unwrap(),
            format!("… {} more record(s)", audit.len() - 2)
        );
    }

    #[test]
    fn json_mode_emits_one_parseable_object_per_record() {
        let wal = sample_wal();
        let (lines, tail) = render_json(&wal, None, usize::MAX);
        assert_eq!(tail, TailStatus::Clean);
        // Every line is a standalone JSON object (JSON-lines contract).
        let objects: Vec<serde::Value> = lines
            .iter()
            .map(|l| serde_json::from_str(l).expect("each line parses"))
            .collect();
        let kind_of = |v: &serde::Value| {
            v.get("kind").and_then(|k| match k {
                serde::Value::Str(s) => Some(s.clone()),
                _ => None,
            })
        };
        assert_eq!(kind_of(&objects[0]).as_deref(), Some("snapshot"));
        assert!(objects[0].get("offset").is_some());
        assert!(objects[..objects.len() - 2]
            .iter()
            .all(|o| o.get("version") == Some(&serde::Value::Int(2))));
        // A WAL written before version 2 lists as version 1.
        let legacy = include_bytes!("../../tests/fixtures/legacy_single_cluster.wal");
        let (lines, tail) = render_json(legacy, None, usize::MAX);
        assert_eq!(tail, TailStatus::Clean);
        assert!(lines[0].starts_with("{\"offset\":0,\"version\":1,"));
        assert!(
            objects[0].get("segment").is_none(),
            "single-file listings carry no segment ids"
        );
        assert!(
            objects[0]
                .get("record")
                .and_then(|r| r.get("shards"))
                .is_some(),
            "the snapshot's own JSON is embedded verbatim"
        );
        // Events carry an input/audit class and their full record.
        let event = objects
            .iter()
            .find(|o| kind_of(o).as_deref() == Some("event"))
            .unwrap();
        assert!(matches!(
            event.get("class"),
            Some(serde::Value::Str(c)) if c == "input" || c == "audit"
        ));
        // The listing closes with the durability summary and tail status.
        let last = objects.last().unwrap();
        assert!(matches!(last.get("tail"), Some(serde::Value::Str(s)) if s == "clean"));
        let durability = objects[objects.len() - 2]
            .get("durability")
            .expect("durability summary precedes the tail");
        assert_eq!(
            durability.get("bytes"),
            Some(&serde::Value::Int(wal.len() as i64))
        );
        assert_eq!(durability.get("snapshots"), Some(&serde::Value::Int(1)));
        // The machine count matches the human listing's record count.
        let (human, _) = render(&wal, None, usize::MAX);
        assert_eq!(
            objects.len(),
            human.len() + 2,
            "records + durability + tail objects"
        );
    }

    #[test]
    fn json_mode_respects_filters_limits_and_damage() {
        let wal = sample_wal();
        let (all, _) = render_json(&wal, None, usize::MAX);
        let (inputs, _) = render_json(&wal, Some(true), usize::MAX);
        let (audit, _) = render_json(&wal, Some(false), usize::MAX);
        // snapshot + durability + tail appear in both filtered listings.
        assert_eq!(inputs.len() + audit.len(), all.len() + 3);
        assert!(inputs.iter().any(|l| l.contains("\"class\":\"input\"")));
        assert!(audit.iter().all(|l| !l.contains("\"class\":\"input\"")));
        // --limit truncates with a machine-readable omission marker.
        let (limited, _) = render_json(&wal, None, 2);
        assert_eq!(limited.len(), 5, "2 records + omitted + durability + tail");
        let marker: serde::Value = serde_json::from_str(&limited[2]).unwrap();
        assert_eq!(
            marker.get("omitted"),
            Some(&serde::Value::Int((all.len() - 2 - 2) as i64))
        );
        // A torn tail is reported as a JSON object too.
        let mut torn = wal;
        let cut = torn.len() - 3;
        torn.truncate(cut);
        let (lines, tail) = render_json(&torn, None, usize::MAX);
        assert!(matches!(tail, TailStatus::Truncated { .. }));
        let last: serde::Value = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert!(matches!(last.get("tail"), Some(serde::Value::Str(s)) if s == "truncated"));
        assert!(last.get("offset").is_some());
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let mut wal = sample_wal();
        let cut = wal.len() - 3;
        wal.truncate(cut);
        let (lines, tail) = render(&wal, None, usize::MAX);
        assert!(matches!(tail, TailStatus::Truncated { .. }));
        assert!(!lines.is_empty(), "intact frames still render");
    }
}
