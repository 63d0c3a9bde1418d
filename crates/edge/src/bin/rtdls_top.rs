//! `rtdls-top`: a live-ops console for a running edge server.
//!
//! Polls the edge's ops channel (`ClientMsg::Ops` → `ServerMsg::OpsReport`)
//! over an ordinary protocol connection — no side port, no signal handler,
//! no server restart — and renders the unified metrics snapshot plus the
//! recently active traces.
//!
//! ```text
//! rtdls-top <addr>                 # refresh every 2s until interrupted
//! rtdls-top --once <addr>          # one poll, then exit
//! rtdls-top --json <addr>          # one poll, JSON-lines samples
//! rtdls-top --trace <id> <addr>    # one trace's recorded timeline
//! rtdls-top --slo <addr>           # the deadline-SLO status table
//! rtdls-top --history <series> <addr>  # one series' retained points
//! rtdls-top --profile <addr>       # the hot-path phase profile tree
//! ```
//!
//! Watch mode additionally renders a sparkline panel from the server's
//! metrics history ring when [`EdgeServer::enable_history`] is on. Every
//! query the console sends is exercised over a real (replicated) edge by
//! `crates/edge/tests/replicated.rs`.

use std::time::Duration;

use rtdls_edge::prelude::*;
use rtdls_telemetry::{render_tree, MetricKind, MetricSample, SeriesPoint, Span};

const POLL_DEADLINE: Duration = Duration::from_secs(5);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--once") => require_addr(&args, 1)
            .map(|a| poll_once(a, false))
            .unwrap_or(2),
        Some("--json") => require_addr(&args, 1)
            .map(|a| poll_once(a, true))
            .unwrap_or(2),
        Some("--trace") => match (
            args.get(1).and_then(|s| s.parse::<u64>().ok()),
            require_addr(&args, 2),
        ) {
            (Some(id), Some(addr)) => show_trace(addr, id),
            _ => usage(),
        },
        Some("--history") => match (args.get(1).cloned(), require_addr(&args, 2)) {
            (Some(series), Some(addr)) => show_history(addr, series),
            _ => usage(),
        },
        Some("--profile") => require_addr(&args, 1).map(show_profile).unwrap_or(2),
        Some("--slo") => require_addr(&args, 1).map(show_slo).unwrap_or(2),
        Some(addr) if !addr.starts_with('-') => watch(addr.to_string()),
        _ => usage(),
    };
    std::process::exit(code);
}

fn usage() -> i32 {
    eprintln!(
        "usage: rtdls-top <addr> | --once <addr> | --json <addr> | --trace <id> <addr> | \
         --slo <addr> | --history <series> <addr> | --profile <addr>"
    );
    2
}

fn require_addr(args: &[String], at: usize) -> Option<String> {
    let addr = args.get(at).cloned();
    if addr.is_none() {
        let _ = usage();
    }
    addr
}

/// One poll: fetch, render (text or JSON lines), exit.
fn poll_once(addr: String, json: bool) -> i32 {
    match fetch(&addr) {
        Ok((samples, traces, panel)) => {
            if json {
                for s in &samples {
                    println!("{}", sample_json(s));
                }
            } else {
                render(&addr, &samples, &traces, &panel);
            }
            0
        }
        Err(e) => {
            eprintln!("rtdls-top: {addr}: {e}");
            1
        }
    }
}

/// Refresh loop (2s cadence) until the connection breaks or ^C.
fn watch(addr: String) -> i32 {
    loop {
        match fetch(&addr) {
            Ok((samples, traces, panel)) => {
                // ANSI clear+home, like any self-respecting top.
                print!("\x1b[2J\x1b[H");
                render(&addr, &samples, &traces, &panel);
            }
            Err(e) => {
                eprintln!("rtdls-top: {addr}: {e}");
                return 1;
            }
        }
        std::thread::sleep(Duration::from_secs(2));
    }
}

fn show_trace(addr: String, id: u64) -> i32 {
    let mut client = match OpsClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rtdls-top: {addr}: {e}");
            return 1;
        }
    };
    match client.trace(id, POLL_DEADLINE) {
        Ok(spans) if spans.is_empty() => {
            println!("trace {id}: no recorded spans (unknown id, or overwritten in the ring)");
            0
        }
        Ok(spans) => {
            println!("trace {id} — {} span(s):", spans.len());
            print_timeline(&spans);
            0
        }
        Err(e) => {
            eprintln!("rtdls-top: {addr}: {e}");
            1
        }
    }
}

fn show_slo(addr: String) -> i32 {
    let mut client = match OpsClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rtdls-top: {addr}: {e}");
            return 1;
        }
    };
    match client.slo(POLL_DEADLINE) {
        Ok(rows) if rows.is_empty() => {
            println!("slo: no tracked scopes yet (no decisions observed)");
            0
        }
        Ok(rows) => {
            println!(
                "{:<16} {:<11} {:>6} {:>6} {:>11} {:>10} {:>9} {:>8}",
                "scope", "objective", "good", "bad", "short-burn", "long-burn", "state", "breaches"
            );
            for r in &rows {
                println!(
                    "{:<16} {:<11} {:>6} {:>6} {:>11.2} {:>10.2} {:>9} {:>8}",
                    r.scope(),
                    r.objective.label(),
                    r.good,
                    r.bad,
                    r.short_burn,
                    r.long_burn,
                    r.state.label(),
                    r.breaches
                );
            }
            0
        }
        Err(e) => {
            eprintln!("rtdls-top: {addr}: {e}");
            1
        }
    }
}

/// The watch-mode sparkline panel: series name plus its retained points.
type HistoryPanel = Vec<(String, Vec<SeriesPoint>)>;

fn fetch(addr: &str) -> std::io::Result<(Vec<MetricSample>, Vec<u64>, HistoryPanel)> {
    let mut client = OpsClient::connect(addr)?;
    let samples = client.stats(POLL_DEADLINE)?;
    let traces = client.recent_traces(POLL_DEADLINE)?;
    // History panel: catalog round trip, then the points of a small set of
    // load-bearing series. Empty catalog = history disabled server-side.
    let (_, available) = client.history("", 0.0, POLL_DEADLINE)?;
    let mut panel = Vec::new();
    for name in pick_panel_series(&available) {
        let (points, _) = client.history(&name, 0.0, POLL_DEADLINE)?;
        panel.push((name, points));
    }
    Ok((samples, traces, panel))
}

/// Picks which series the watch panel plots: the headline throughput and
/// replication-lag series when tracked, padded with whatever else the store
/// retains, capped so the panel stays one glance tall.
fn pick_panel_series(available: &[String]) -> Vec<String> {
    const PREFERRED: [&str; 4] = [
        "rtdls_edge_submits",
        "rtdls_edge_turns",
        "rtdls_gateway_submitted",
        "rtdls_replica_lag_frames",
    ];
    let mut picked: Vec<String> = PREFERRED
        .iter()
        .filter(|p| available.iter().any(|a| a == *p))
        .map(|p| p.to_string())
        .collect();
    for name in available {
        if picked.len() >= 6 {
            break;
        }
        if !picked.contains(name) {
            picked.push(name.clone());
        }
    }
    picked
}

/// Renders up to `width` newest points as a unicode bar strip, normalized
/// to the window's own min..max (a flat series renders all-low).
fn sparkline(points: &[SeriesPoint], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = &points[points.len().saturating_sub(width)..];
    if tail.is_empty() {
        return "(no points yet)".to_string();
    }
    let lo = tail.iter().map(|p| p.value).fold(f64::INFINITY, f64::min);
    let hi = tail
        .iter()
        .map(|p| p.value)
        .fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    tail.iter()
        .map(|p| {
            let norm = if span > 0.0 {
                (p.value - lo) / span
            } else {
                0.0
            };
            BARS[((norm * 7.0).round() as usize).min(7)]
        })
        .collect()
}

fn render(addr: &str, samples: &[MetricSample], traces: &[u64], panel: &HistoryPanel) {
    println!("rtdls-top — {addr} — {} samples", samples.len());
    println!();
    let mut sorted: Vec<&MetricSample> = samples.iter().collect();
    sorted.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    for s in sorted {
        let labels = if s.labels.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{{{}}}", parts.join(","))
        };
        let kind = match s.kind {
            MetricKind::Counter => "c",
            MetricKind::Gauge => "g",
        };
        println!("  {:<52} {kind} {}", format!("{}{labels}", s.name), s.value);
    }
    println!();
    // Rejection-cause breakdown: which admission wall the refused work hit.
    let mut causes: Vec<(&str, f64)> = samples
        .iter()
        .filter(|s| s.name == "rtdls_gateway_rejections")
        .filter_map(|s| {
            s.labels
                .iter()
                .find(|(k, _)| k == "cause")
                .map(|(_, v)| (v.as_str(), s.value))
        })
        .collect();
    if !causes.is_empty() {
        causes.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let total: f64 = causes.iter().map(|(_, v)| v).sum();
        println!("rejections by cause ({total} total):");
        for (cause, count) in causes {
            println!("  {cause:<32} {count}");
        }
        println!();
    }
    // Replication health: one line saying how much admitted history a
    // failover right now would lose, and whether the follower is attached.
    let lookup = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
    if let Some(lag) = lookup("rtdls_replica_lag") {
        let epoch = lookup("rtdls_replica_epoch").unwrap_or(0.0);
        let appended = lookup("rtdls_replica_appended_offset").unwrap_or(0.0);
        let shipped = lookup("rtdls_replica_shipped_offset").unwrap_or(0.0);
        let acked = lookup("rtdls_replica_acked_offset").unwrap_or(0.0);
        let link = match lookup("rtdls_replica_connected") {
            Some(v) if v > 0.0 => "follower attached",
            Some(_) => "NO FOLLOWER",
            None => "transport unknown",
        };
        println!(
            "replication: epoch {epoch} — appended {appended} / shipped {shipped} / acked {acked} — lag {lag} frame(s) — {link}"
        );
        println!();
    }
    if let Some(lag) = lookup("rtdls_follower_lag") {
        let epoch = lookup("rtdls_follower_epoch").unwrap_or(0.0);
        let applied = lookup("rtdls_follower_applied_offset").unwrap_or(0.0);
        let promoted = lookup("rtdls_follower_promoted").unwrap_or(0.0) > 0.0;
        println!(
            "follower: epoch {epoch} — applied {applied} — lag {lag} frame(s){}",
            if promoted { " — PROMOTED" } else { "" }
        );
        println!();
    }
    if !panel.is_empty() {
        println!("history (newest right, window-normalized):");
        for (name, points) in panel {
            let last = points.last().map_or(0.0, |p| p.value);
            println!("  {name:<40} {} {last}", sparkline(points, 32));
        }
        println!();
    }
    if traces.is_empty() {
        println!("recent traces: none recorded");
    } else {
        let ids: Vec<String> = traces.iter().map(u64::to_string).collect();
        println!("recent traces (newest last): {}", ids.join(" "));
    }
}

/// `--history`: dump one series' retained ring (or the catalog on a miss).
fn show_history(addr: String, series: String) -> i32 {
    let mut client = match OpsClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rtdls-top: {addr}: {e}");
            return 1;
        }
    };
    match client.history(&series, 0.0, POLL_DEADLINE) {
        Ok((points, available)) => {
            if points.is_empty() {
                println!("series {series:?}: no recorded points");
                if available.is_empty() {
                    println!("(history disabled on this server — see EdgeServer::enable_history)");
                } else {
                    println!("tracked series:");
                    for name in &available {
                        println!("  {name}");
                    }
                }
            } else {
                println!(
                    "{series} — {} point(s)  {}",
                    points.len(),
                    sparkline(&points, 60)
                );
                for p in &points {
                    println!("  {:>14.3}s  {}", p.at.as_f64(), p.value);
                }
            }
            0
        }
        Err(e) => {
            eprintln!("rtdls-top: {addr}: {e}");
            1
        }
    }
}

/// `--profile`: render the hot-path phase tree the profiler accumulated.
fn show_profile(addr: String) -> i32 {
    let mut client = match OpsClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rtdls-top: {addr}: {e}");
            return 1;
        }
    };
    match client.profile(POLL_DEADLINE) {
        Ok(phases) if phases.is_empty() => {
            println!("profiler: no phases recorded (disabled, or no traffic yet)");
            0
        }
        Ok(phases) => {
            print!("{}", render_tree(&phases));
            0
        }
        Err(e) => {
            eprintln!("rtdls-top: {addr}: {e}");
            1
        }
    }
}

fn print_timeline(spans: &[Span]) {
    for s in spans {
        println!("  {s}");
    }
}

fn sample_json(s: &MetricSample) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = write!(out, "{{\"name\":\"{}\"", s.name);
    for (k, v) in &s.labels {
        let _ = write!(out, ",\"{k}\":\"{v}\"");
    }
    let kind = match s.kind {
        MetricKind::Counter => "counter",
        MetricKind::Gauge => "gauge",
    };
    let _ = write!(out, ",\"kind\":\"{kind}\",\"value\":{}}}", s.value);
    out
}
