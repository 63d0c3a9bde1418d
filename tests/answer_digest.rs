//! Every answer the stack gives on four seeded streams, pinned by digest.
//!
//! Engine, oracle and every planner share one kernel, so no test inside the
//! tree can tell that an edit to it kept the answers — only a replay against
//! the commit before can. This file is that replay, committed: it rebuilds
//! four seeded streams, writes one line per answer
//! with every float as its `f64::to_bits`, and holds the FNV-1a 64 of each
//! stream against `tests/answer_digest.golden`.
//!
//! * `admit/*` — the `admit_deep` shape: one 64-node shard, long deadlines,
//!   offered load 1.5, reservations on, so the waiting queue runs tens of
//!   tasks deep. Each request is one serving turn — `decide` at its
//!   arrival, `drive` to the same instant, drain the update stream — on a
//!   `ShardedGateway` (`admit/sharded`) and on a `JournaledGateway`
//!   (`admit/journaled`, whose answers must also equal the bare ones), plus
//!   the WAL bytes the journaled one wrote (`admit/wal`).
//! * `edge/burst` — the `edge_burst` shape: 8 shards of 8 nodes, windows
//!   of 64 same-instant submits, explanations on. Before each `decide` the
//!   stream records the fleet's explanation of that request (the
//!   `Ops::Explain` surface); each verdict carries its own; after each
//!   turn the gateway is settled the way a reactor settles it.
//! * `sim/grid` — `Simulation::new` over a reduced §5 grid (N = 16,
//!   DCRatio 2, two loads, four algorithms, strict), every trace record
//!   and the run's metrics.
//! * `plan/kernel` — the planning kernel on its own, where the streams
//!   above never take it: `plan_task` under every `StrategyKind`, every
//!   `ReleaseEstimate` and both `NodeCountPolicy`s, `min_feasible_nodes`
//!   and `HeterogeneousModel::new`, on release snapshots drawn by a
//!   xorshift in this file. One line per plan or refusal; every plan is
//!   also certified (`rtdls_check::independent::certify`), which the
//!   digest cannot do: it pins answers, not their correctness.
//!
//! A dev build (tier-1) runs the `small` size of every stream in a few
//! seconds; a release build the `full` one. When an answer is meant to
//! change, the digest changes in the same commit with the reason in
//! CHANGES.md. To see *which* answer moved, dump both sides and diff:
//!
//! ```text
//! cargo test --test answer_digest -- --ignored --nocapture
//! ```
//!
//! writes each stream of the build's size to
//! `target/tmp/answer_digest/<stream>.txt` (and the WAL itself to
//! `admit-wal.bin`) and prints the golden lines.

use std::fmt::Write as _;

use rtdls::journal::wire::{checksum, decode_frames, fnv1a64, FNV_OFFSET, HEADER_LEN, VERSION};
use rtdls::prelude::*;
use rtdls_check::independent::certify;
use serde::{Serialize, Value};

/// The committed digests: `<stream> <size> <answers> <fnv64>` per line.
const GOLDEN: &str = include_str!("answer_digest.golden");

/// Simulated seconds between two windows' settle drives (the bench's
/// `TURN_GAP`): longer than any relative deadline in the edge stream, so a
/// window's tickets have all expired by the next one.
const TURN_GAP: f64 = 2.0e4;

/// Settle drives after a window are capped, as a reactor's are bounded by
/// its next window.
const MAX_SETTLE_DRIVES: usize = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Size {
    Small,
    Full,
}

impl Size {
    /// The size this build runs: tier-1 is a dev build.
    fn of_build() -> Size {
        if cfg!(debug_assertions) {
            Size::Small
        } else {
            Size::Full
        }
    }

    fn name(self) -> &'static str {
        match self {
            Size::Small => "small",
            Size::Full => "full",
        }
    }

    fn pick(self, small: usize, full: usize) -> usize {
        match self {
            Size::Small => small,
            Size::Full => full,
        }
    }
}

/// One stream's answers, a line each.
#[derive(Default)]
struct Stream {
    lines: Vec<String>,
    /// The bytes behind the stream, where it has any: dump mode writes
    /// them next to the text (`admit-wal.bin`, a WAL `inspect` reads).
    bytes: Vec<u8>,
}

impl Stream {
    /// Appends `tag` and `value` rendered with every float as its bits.
    fn push(&mut self, tag: &str, value: &impl Serialize) {
        let text = serde_json::to_string(value).expect("answers serialize");
        let tree: Value = serde_json::from_str(&text).expect("answers parse back");
        let mut line = format!("{tag} ");
        render(&tree, &mut line);
        self.lines.push(line);
    }

    fn digest(&self) -> u64 {
        self.lines.iter().fold(FNV_OFFSET, |h, line| {
            fnv1a64(fnv1a64(h, line.as_bytes()), b"\n")
        })
    }
}

/// Compact JSON-like text in which every float is `0x` + its 64 bits, so
/// two streams agree exactly when every answer agrees bit for bit.
fn render(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => write!(out, "{b}").unwrap(),
        Value::Int(i) => write!(out, "{i}").unwrap(),
        Value::UInt(u) => write!(out, "{u}").unwrap(),
        Value::Num(x) => write!(out, "0x{:016x}", x.to_bits()).unwrap(),
        Value::Str(s) => write!(out, "{s:?}").unwrap(),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "{key}:").unwrap();
                render(item, out);
            }
            out.push('}');
        }
    }
}

/// The serving streams' cluster: 64 nodes at the paper's unit costs.
fn serving_params() -> ClusterParams {
    ClusterParams::new(64, 1.0, 100.0).unwrap()
}

/// The serving streams' 8-tenant mix (one premium, three best-effort).
fn tenant_mix() -> TenantMix {
    TenantMix {
        tenants: 8,
        premium_tenants: 1,
        best_effort_tenants: 3,
        max_delay_factor: None,
    }
}

fn serving_requests(
    seed: u64,
    n: usize,
    dc_ratio: f64,
    load: f64,
    mix: TenantMix,
) -> Vec<SubmitRequest> {
    let mut spec = WorkloadSpec::paper_baseline(load);
    spec.params = serving_params();
    spec.dc_ratio = dc_ratio;
    spec.horizon = f64::MAX;
    WorkloadGenerator::new(spec, seed)
        .take(n)
        .with_tenants(mix)
        .collect()
}

fn gateway(shards: usize) -> ShardedGateway {
    ShardedGateway::new(
        serving_params(),
        shards,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap()
}

/// One serving turn's drive and the updates it pushed.
fn drive<G: EdgeGateway>(gateway: &mut G, now: SimTime, out: &mut Stream) {
    gateway.drive(now);
    for update in gateway.take_updates() {
        out.push("update", &update);
    }
}

/// The `admit_deep` shape: one request per turn, decided and driven at its
/// own arrival.
fn admit<G: EdgeGateway>(gateway: &mut G, requests: &[SubmitRequest]) -> Stream {
    let mut out = Stream::default();
    gateway.enable_observation();
    for request in requests {
        let now = request.task.arrival;
        let verdict = gateway.decide(request, now);
        out.push(&format!("verdict {}", request.task.id.0), &verdict);
        drive(gateway, now, &mut out);
    }
    out
}

fn admit_requests(size: Size) -> Vec<SubmitRequest> {
    let mix = tenant_mix().with_max_delay_factor(4.0);
    serving_requests(1, size.pick(800, 6_000), 40.0, 1.5, mix)
}

/// The `admit/*` streams: the bare gateway's answers, the journaled
/// gateway's (asserted equal to them), and the journaled gateway's WAL.
fn admit_streams(size: Size) -> Vec<(&'static str, Stream)> {
    let requests = admit_requests(size);
    let sharded = admit(&mut gateway(1), &requests);
    // Genesis-only snapshots: the stream is the genesis image and one
    // frame per event. A periodic snapshot would replay byte for byte too
    // (a snapshot holds nothing wall-clock), but would move the digest.
    let cfg = JournalConfig {
        snapshot_every: 0,
        compact_on_snapshot: false,
    };
    let mut journaled = JournaledGateway::new(gateway(1), cfg);
    let answers = admit(&mut journaled, &requests);
    assert!(
        answers.lines == sharded.lines,
        "journaling changed an answer"
    );
    // Frame by frame, so a dump diffs record by record, then the FNV of
    // the bytes themselves, headers included. The digest was recorded
    // under header version 1, so each header is hashed as version 1 wrote
    // it: a version-2 header (checked here, and verified by the decode) is
    // the same function of tag and payload with another checksum. The v2
    // bytes themselves are pinned by `wire`'s `a_v2_frame_is_these_bytes`.
    let bytes = journaled.journal().bytes();
    let (frames, tail) = decode_frames(bytes);
    assert!(tail.is_clean());
    let mut as_v1 = bytes.to_vec();
    let mut wal = Stream {
        bytes: bytes.to_vec(),
        ..Stream::default()
    };
    for frame in frames {
        assert_eq!(frame.version, VERSION);
        let head = &mut as_v1[frame.offset..frame.offset + HEADER_LEN];
        let sum = checksum(1, head[3], &frame.payload);
        head[2] = 1;
        head[8..].copy_from_slice(&sum.to_le_bytes());
        let payload = String::from_utf8(frame.payload).expect("JSON payloads");
        wal.lines.push(format!("{:?} {payload}", frame.kind));
    }
    wal.lines
        .push(format!("bytes 0x{:016x}", fnv1a64(FNV_OFFSET, &as_v1)));
    vec![
        ("admit/sharded", sharded),
        ("admit/journaled", answers),
        ("admit/wal", wal),
    ]
}

/// The `edge_burst` shape: windows of 64 same-instant submits on 8 shards,
/// explained, then settled.
fn edge_stream(size: Size) -> Stream {
    let requests = serving_requests(1, size.pick(384, 3_200), 20.0, 1.0, tenant_mix());
    let mut gateway = gateway(8);
    gateway.enable_observation();
    gateway.enable_explanations();
    let mut out = Stream::default();
    for (k, window) in requests.chunks(64).enumerate() {
        let now = SimTime::new((k as f64 + 1.0) * 4.0 * TURN_GAP);
        for request in window {
            let mut request = *request;
            request.task.arrival = now;
            request.task.id = TaskId((1 << 32) | request.task.id.0);
            let id = request.task.id.0;
            out.push(&format!("explain {id}"), &gateway.explain(&request, now));
            let verdict = gateway.decide(&request, now);
            out.push(&format!("verdict {id}"), &verdict);
        }
        drive(&mut gateway, now, &mut out);
        let mut at = now;
        for _ in 0..MAX_SETTLE_DRIVES {
            let Some(due) = gateway.next_due() else { break };
            at = SimTime::new((at.as_f64() + TURN_GAP).max(due.as_f64()));
            drive(&mut gateway, at, &mut out);
        }
    }
    out
}

/// The reduced §5 grid through the paper's own head node.
fn sim_stream(size: Size) -> Stream {
    let horizon = size.pick(200_000, 4_000_000) as f64;
    let mut out = Stream::default();
    for load in [0.4, 1.0] {
        let mut spec = WorkloadSpec::paper_baseline(load);
        spec.horizon = horizon;
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, 7).collect();
        for algorithm in [
            AlgorithmKind::EDF_DLT,
            AlgorithmKind::FIFO_DLT,
            AlgorithmKind::EDF_OPR_MN,
            AlgorithmKind::EDF_OPR_AN,
        ] {
            let cfg = SimConfig::new(ClusterParams::paper_baseline(), algorithm)
                .strict()
                .with_trace();
            let report = Simulation::new(cfg).run(tasks.iter().copied());
            let trace = report.trace.expect("traced");
            for task in &trace.tasks {
                out.push("task", task);
            }
            for chunk in &trace.chunks {
                out.push("chunk", chunk);
            }
            out.push("metrics", &report.metrics);
        }
    }
    out
}

/// A 64-bit xorshift: the kernel stream's inputs, the same on every
/// commit whatever the workload generator does.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

fn bits(x: f64) -> String {
    format!("0x{:016x}", x.to_bits())
}

/// The planning kernel on xorshift release snapshots: per snapshot the
/// `ñ_min` scan, the heterogeneous model on the nodes it chose, and a plan
/// under every strategy and knob.
fn kernel_stream(size: Size) -> Stream {
    const STRATEGIES: [StrategyKind; 6] = [
        StrategyKind::DltIit,
        StrategyKind::DltMultiRound { rounds: 2 },
        StrategyKind::DltMultiRound { rounds: 4 },
        StrategyKind::OprMn,
        StrategyKind::OprAn,
        StrategyKind::UserSplit,
    ];
    const ESTIMATES: [ReleaseEstimate; 3] = [
        ReleaseEstimate::Exact,
        ReleaseEstimate::Uniform,
        ReleaseEstimate::TightPerNode,
    ];
    const POLICIES: [NodeCountPolicy; 2] = [NodeCountPolicy::FixedPoint, NodeCountPolicy::OneShot];
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut out = Stream::default();
    for k in 0..size.pick(150, 1_500) {
        let nodes = rng.int(1, 32);
        let params = ClusterParams::new(nodes, rng.uniform(0.2, 4.0), rng.uniform(10.0, 400.0))
            .expect("positive costs");
        let now = rng.uniform(0.0, 1e4);
        let sigma = rng.uniform(1.0, 500.0);
        // From "only transmission fits" to "one node would do", then some
        // of it spent waiting for nodes that free up later.
        let work = sigma * params.cms + sigma * params.cps / rng.int(1, nodes) as f64;
        let rel_deadline = work * rng.uniform(0.6, 3.0);
        let releases: Vec<SimTime> = (0..nodes)
            .map(|_| SimTime::new(now + rel_deadline * rng.uniform(-0.5, 1.0)))
            .collect();
        let task = Task::new(k as u64, now, sigma, rel_deadline)
            .with_user_nodes(Some(rng.int(1, nodes + 2)));
        let avail = NodeAvailability::new(&releases, task.arrival);
        let sorted = avail.sorted_times();
        let n = match min_feasible_nodes(&params, sigma, &sorted, task.absolute_deadline()) {
            Ok(scan) => {
                let line = format!("nmin {k} {} {}", scan.n, bits(scan.r_n.as_f64()));
                out.lines.push(line);
                scan.n
            }
            Err(cause) => {
                out.push(&format!("nmin {k}"), &cause);
                nodes
            }
        };
        let mut line = format!("model {k}");
        match HeterogeneousModel::new(&params, sigma, &sorted[..n]) {
            Ok(model) => {
                for x in [model.exec_time(), model.e_no_iit()] {
                    write!(line, " {}", bits(x)).unwrap();
                }
                for (i, &alpha) in model.alphas().iter().enumerate() {
                    write!(line, " {}/{}", bits(alpha), bits(model.cps_het(i))).unwrap();
                }
            }
            Err(err) => write!(line, " {err:?}").unwrap(),
        }
        out.lines.push(line);
        for strategy in STRATEGIES {
            for release_estimate in ESTIMATES {
                for node_count in POLICIES {
                    let cfg = PlanConfig {
                        release_estimate,
                        node_count,
                    };
                    let tag = format!(
                        "plan {k} {} {release_estimate:?} {node_count:?}",
                        strategy.paper_name()
                    );
                    match plan_task(strategy, &task, &avail, &params, &cfg) {
                        Ok(plan) => {
                            if let Err(v) = certify(&params, &task, &releases, &plan) {
                                panic!("{tag}: {v}\n{task:?}\n{plan:?}");
                            }
                            out.push(&tag, &plan)
                        }
                        Err(cause) => out.push(&tag, &cause),
                    }
                }
            }
        }
    }
    out
}

fn streams(size: Size) -> Vec<(&'static str, Stream)> {
    let mut all = admit_streams(size);
    all.push(("edge/burst", edge_stream(size)));
    all.push(("sim/grid", sim_stream(size)));
    all.push(("plan/kernel", kernel_stream(size)));
    all
}

fn golden_line(name: &str, size: Size, stream: &Stream) -> String {
    format!(
        "{name} {} {} 0x{:016x}",
        size.name(),
        stream.lines.len(),
        stream.digest()
    )
}

#[test]
fn every_answer_matches_its_committed_digest() {
    let size = Size::of_build();
    let mut moved = Vec::new();
    for (name, stream) in streams(size) {
        let line = golden_line(name, size, &stream);
        let pinned = GOLDEN
            .lines()
            .find(|l| l.starts_with(&format!("{name} {} ", size.name())))
            .unwrap_or_else(|| panic!("no golden line for {name} at {}", size.name()));
        if pinned != line {
            moved.push(format!("  pinned {pinned}\n  now    {line}"));
        }
    }
    assert!(
        moved.is_empty(),
        "answers moved (dump both sides with `-- --ignored` and diff):\n{}",
        moved.join("\n")
    );
}

#[test]
#[ignore = "dump mode: writes every stream of this build's size for a diff"]
fn dump_answer_streams() {
    let size = Size::of_build();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("answer_digest");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, stream) in streams(size) {
        let path = dir.join(format!("{}.txt", name.replace('/', "-")));
        std::fs::write(&path, stream.lines.join("\n") + "\n").unwrap();
        if !stream.bytes.is_empty() {
            std::fs::write(path.with_extension("bin"), &stream.bytes).unwrap();
        }
        println!("{}", golden_line(name, size, &stream));
        eprintln!("wrote {}", path.display());
    }
}
