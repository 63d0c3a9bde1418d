//! The traced run: the stack-height ladder.
//!
//! `--trace 1` replays a workload's exact inputs through successively
//! taller stacks and records a span around every call the harness makes:
//!
//! * **engine** — `Admission::submit` / `take_due` on the engines a
//!   `ShardedGateway::new` of the same shape instantiates;
//! * **gateway** — the `ShardedGateway`, through the `EdgeGateway` calls
//!   the reactor makes;
//! * **journaled** — the `JournaledGateway` over the timed sink;
//! * **edge** / **recover** / **sim** — the workload itself.
//!
//! A layer's self time is its rung minus the rung below (minus the sink's
//! spans for `journal`). The run prints the budget — Σ layer self times
//! against the untraced `op_us`, the difference being
//! `harness.residue_ratio` — obtained without touching the program. Every
//! rung is timed like an end-to-end run: equal-work blocks, interference
//! compensation, lower quartile.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rtdls::core::prelude::{
    min_feasible_nodes, plan_task, AlgorithmKind, HeterogeneousModel, NodeAvailability, PlanConfig,
    SubmitRequest,
};
use rtdls::edge::codec::{FrameDecoder, DEFAULT_MAX_FRAME};
use rtdls::edge::proto::{
    decode_client, decode_server, encode_client, encode_server, ClientMsg, ServerMsg,
};
use rtdls::edge::EdgeGateway;
use rtdls::journal::prelude::{replay, requalify, JournalConfig};
use rtdls::journal::wire::decode_frames;
use rtdls::service::prelude::{ShardedGateway, Verdict};
use rtdls::sim::prelude::Simulation;

use crate::edge::Tally;
use crate::harness::{
    run_blocks, time_direct, Checks, Metric, Probers, RunEnv, Sample, Timing, Workload,
};
use crate::inputs::{serving_gateway, serving_params, Script, Turn};
use crate::stack::{
    run_engines, run_gateway, DriveRecord, EngineBank, EngineOutcome, PassOpts, PassOutcome,
};
use crate::stats::{median, quantile};
use crate::trace::{render_json, NameTotal, Recorder};
use crate::wl_admit::AdmitWorkload;
use crate::wl_edge::{durable_gateway, EdgeWorkload, Kind, SHARDS};
use crate::wl_recover::RecoverWorkload;
use crate::wl_sim::{cell_config, SimWorkload, ALGORITHMS};
use crate::{RunArgs, WorkloadId};

/// Every per-layer metric, in report order: `(name, unit, better)`. The
/// same list, in the same order, is `per_layer` in `BENCHMARK.json`; a
/// metric a workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("core.het_model_us", "us", "lower"),
    ("core.min_nodes_us", "us", "lower"),
    ("core.plan_task_us", "us", "lower"),
    ("core.submit_us", "us", "lower"),
    ("core.queue_depth_p50", "count", "lower"),
    ("core.self_us_per_op", "us", "lower"),
    ("service.decide_us", "us", "lower"),
    ("service.drive_us", "us", "lower"),
    ("service.self_us_per_op", "us", "lower"),
    ("service.defer_retests_per_op", "1/op", "lower"),
    ("service.defer_rescue_ratio", "ratio", "higher"),
    ("service.updates_per_op", "1/op", "lower"),
    ("service.verdict.accepted", "ratio", "higher"),
    ("service.verdict.reserved", "ratio", "higher"),
    ("service.verdict.deferred", "ratio", "lower"),
    ("service.verdict.rejected", "ratio", "lower"),
    ("service.verdict.throttled", "ratio", "lower"),
    ("journal.self_us_per_op", "us", "lower"),
    ("journal.sink_append_us_per_op", "us", "lower"),
    ("journal.sink_flush_us", "us", "lower"),
    ("journal.flushes_per_op", "1/op", "lower"),
    ("journal.bytes_per_op", "B/op", "lower"),
    ("journal.snapshots", "count", "lower"),
    ("journal.snapshot_us", "us", "lower"),
    ("journal.decode_us_per_frame", "us", "lower"),
    ("journal.restore_us", "us", "lower"),
    ("journal.replay_us_per_event", "us", "lower"),
    ("journal.requalify_us", "us", "lower"),
    ("journal.demoted", "count", "lower"),
    ("edge.self_us_per_op", "us", "lower"),
    ("edge.server_cpu_us_per_op", "us", "lower"),
    ("edge.server_idle_ratio", "ratio", "lower"),
    ("edge.codec_client_us", "us", "lower"),
    ("edge.codec_server_us", "us", "lower"),
    ("edge.rtt_p50_us", "us", "lower"),
    ("edge.rtt_p99_us", "us", "lower"),
    ("edge.frames_in", "count", "lower"),
    ("edge.frames_out", "count", "lower"),
    ("sim.event_us", "us", "lower"),
    ("sim.events_per_task", "1/op", "lower"),
    ("sim.self_us_per_task", "us", "lower"),
    ("sim.reject_ratio.EDF-DLT", "ratio", "lower"),
    ("sim.reject_ratio.FIFO-DLT", "ratio", "lower"),
    ("sim.reject_ratio.EDF-OPR-MN", "ratio", "lower"),
    ("sim.reject_ratio.EDF-OPR-AN", "ratio", "lower"),
    ("workload.generate_us_per_task", "us", "lower"),
    ("setup.generate_s", "s", "lower"),
    ("setup.construct_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("harness.generator_cpu_us_per_op", "us", "lower"),
    ("harness.op_us_median", "us", "lower"),
    ("harness.block_iqr_ratio", "ratio", "lower"),
    ("harness.interference", "ratio", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.residue_ratio", "ratio", "lower"),
];

/// What a traced run reports.
pub struct TraceReport {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

/// The per-layer values of one run, by name.
#[derive(Default)]
struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _, _)| *n == name),
            "{name} is not a declared layer metric"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    fn into_metrics(self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|(name, unit, _)| {
                let value = self
                    .values
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                Metric::new(*name, value, unit)
            })
            .collect()
    }
}

/// One rung of the ladder, measured.
struct Rung {
    name: &'static str,
    timing: Timing,
    rec: Recorder,
}

impl Rung {
    /// Compensated wall µs per op (lower quartile over blocks).
    fn op_us(&self) -> f64 {
        self.timing.op_us.p25
    }

    /// Compensated CPU µs per op.
    fn cpu_us(&self) -> f64 {
        self.timing.cpu_us.p25
    }

    /// Mean duration of the rung's `name` spans in µs, brought to the
    /// probe's nominal speed by the rung's own compensation ratio.
    fn span_us(&self, name: &str) -> f64 {
        self.rec.total(name).mean_us() * self.compensation()
    }

    fn compensation(&self) -> f64 {
        if self.timing.op_us_raw.p50 > 0.0 {
            self.timing.op_us.p50 / self.timing.op_us_raw.p50
        } else {
            1.0
        }
    }
}

/// Measures one rung: blocks of `pass` for `seconds`, spans into a recorder
/// of the rung's own.
fn measure_rung(
    name: &'static str,
    env: &RunEnv,
    probers: &mut Probers,
    seconds: f64,
    mut pass: impl FnMut(&mut Recorder) -> Sample,
) -> Rung {
    let mut rec = Recorder::new(name, env.origin, true);
    // One untimed pass first: page faults and cold caches are set-up.
    pass(&mut Recorder::disabled());
    let samples = run_blocks(|| pass(&mut rec), probers, seconds, 3, usize::MAX);
    Rung {
        name,
        timing: Timing::of(&samples),
        rec,
    }
}

/// A direct (same-thread) pass as a [`Sample`].
fn direct_sample(ops: u64, f: impl FnOnce()) -> Sample {
    let ((), wall_ns, cpu_ns) = time_direct(f);
    Sample {
        wall_ns,
        cpu_ns,
        ops,
        within_limit: ops,
        ..Sample::default()
    }
}

/// One drive per turn at the turn's own instant, nothing admitted late:
/// the drive log of a caller that has no gateway (the simulator's engine).
fn arrival_drive_log(turns: &[Turn]) -> Vec<DriveRecord> {
    turns
        .iter()
        .enumerate()
        .map(|(t, turn)| DriveRecord {
            turn: t as u32,
            now: turn.now,
            admitted: Vec::new(),
        })
        .collect()
}

/// A fresh gateway as the edge binds it: update stream and explanation
/// annotation on.
fn edge_bound<G: EdgeGateway>(mut gateway: G) -> G {
    gateway.enable_observation();
    gateway.enable_explanations();
    gateway
}

pub fn run_traced(args: RunArgs, env: &RunEnv) -> TraceReport {
    let mut layers = Layers::default();
    let mut checks = Checks::default();
    let mut recorders: Vec<Recorder> = Vec::new();
    let (attempted, failed) = match args.workload {
        WorkloadId::AdmitDeep => trace_admit(args, env, &mut layers, &mut checks, &mut recorders),
        WorkloadId::Recover => trace_recover(args, env, &mut layers, &mut checks, &mut recorders),
        WorkloadId::PaperSim => trace_sim(args, env, &mut layers, &mut checks, &mut recorders),
        _ => trace_edge(args, env, &mut layers, &mut checks, &mut recorders),
    };
    let path = env
        .out_dir
        .join(format!("trace-{}.json", args.workload.name()));
    let refs: Vec<&Recorder> = recorders.iter().collect();
    match std::fs::write(&path, render_json(args.workload.name(), &refs)) {
        Ok(()) => println!("trace: spans written to {}", path.display()),
        Err(e) => checks.check("trace.file_written", false, e.to_string()),
    }
    TraceReport {
        checks,
        metrics: layers.into_metrics(),
        attempted,
        failed,
    }
}

/// Blocks of the real, untraced workload: the `op_us` the budget must add
/// up to. Returns the timing and the workload (verified).
fn untraced_reference<W: Workload>(
    workload: &mut W,
    env: &RunEnv,
    seconds: f64,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Timing {
    let started = Instant::now();
    workload.warm_up();
    layers.set("setup.warmup_s", started.elapsed().as_secs_f64());
    let mut probers = env.probers_for(workload);
    let samples = run_blocks(|| workload.block(), &mut probers, seconds, 3, usize::MAX);
    workload.verify(checks);
    Timing::of(&samples)
}

fn set_harness(layers: &mut Layers, untraced: &Timing, traced_top_op_us: f64, budget_sum: f64) {
    layers.set("harness.generator_cpu_us_per_op", untraced.generator_cpu_us);
    layers.set("harness.op_us_median", untraced.op_us.p50);
    layers.set("harness.block_iqr_ratio", untraced.op_us.iqr_ratio());
    layers.set("harness.interference", untraced.interference.p50);
    let op_us = untraced.op_us.p25;
    if op_us > 0.0 {
        layers.set(
            "harness.trace_overhead_ratio",
            (traced_top_op_us - op_us) / op_us,
        );
        layers.set("harness.residue_ratio", (op_us - budget_sum) / op_us);
    }
}

fn set_verdicts(layers: &mut Layers, tally: &Tally) {
    let share = |n: u64| n as f64 / tally.total().max(1) as f64;
    layers.set("service.verdict.accepted", share(tally.accepted));
    layers.set("service.verdict.reserved", share(tally.reserved));
    layers.set("service.verdict.deferred", share(tally.deferred));
    layers.set("service.verdict.rejected", share(tally.rejected));
    layers.set("service.verdict.throttled", share(tally.throttled));
}

fn print_budget(rows: &[(&str, f64)], op_us: f64, unit: &str) {
    let sum: f64 = rows.iter().map(|(_, v)| v).sum();
    println!("budget (us per {unit}, layer self times at the probe's nominal speed)");
    for (name, value) in rows {
        println!(
            "  {:<28} {:>12.3}  {:>6.1} %",
            name,
            value,
            value / op_us.max(1e-12) * 100.0
        );
    }
    println!(
        "  {:<28} {:>12.3}  {:>6.1} %",
        "sum of layers",
        sum,
        sum / op_us.max(1e-12) * 100.0
    );
    println!("  {:<28} {:>12.3}", "untraced op_us", op_us);
    println!(
        "  {:<28} {:>12.3}  {:>6.1} %",
        "residue",
        op_us - sum,
        (op_us - sum) / op_us.max(1e-12) * 100.0
    );
}

/// The three core kernels on release vectors sampled from the engine rung.
fn core_micro(layers: &mut Layers, outcome: &EngineOutcome, algorithm: AlgorithmKind) {
    let cfg = PlanConfig::default();
    let samples = &outcome.release_samples;
    if samples.is_empty() {
        return;
    }
    const ROUNDS: usize = 200;
    let mut het = NameTotal::default();
    let mut nodes = NameTotal::default();
    let mut plan = NameTotal::default();
    for _ in 0..ROUNDS {
        for (params, releases, task) in samples {
            let avail = NodeAvailability::new(releases, task.arrival);
            let sorted = avail.sorted_times();
            let started = Instant::now();
            let scan =
                min_feasible_nodes(params, task.data_size, &sorted, task.absolute_deadline());
            nodes.total_ns += started.elapsed().as_nanos() as u64;
            nodes.count += 1;
            let n = std::hint::black_box(&scan)
                .as_ref()
                .map_or(sorted.len(), |s| s.n);
            let started = Instant::now();
            let model = HeterogeneousModel::new(params, task.data_size, &sorted[..n]);
            het.total_ns += started.elapsed().as_nanos() as u64;
            het.count += 1;
            std::hint::black_box(&model);
            let started = Instant::now();
            let planned = plan_task(algorithm.strategy, task, &avail, params, &cfg);
            plan.total_ns += started.elapsed().as_nanos() as u64;
            plan.count += 1;
            std::hint::black_box(&planned);
        }
    }
    layers.set("core.het_model_us", het.mean_us());
    layers.set("core.min_nodes_us", nodes.mean_us());
    layers.set("core.plan_task_us", plan.mean_us());
}

/// Encode + decode of a submit and of its verdict, without sockets.
fn codec_micro(layers: &mut Layers, requests: &[SubmitRequest]) {
    let sample: Vec<&SubmitRequest> = requests.iter().take(256).collect();
    const ROUNDS: usize = 20;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for (seq, request) in sample.iter().enumerate() {
            let frame = encode_client(&ClientMsg::Submit {
                seq: seq as u64,
                request: **request,
            });
            let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
            decoder.push(&frame);
            if let Ok(Some((_, payload))) = decoder.next_frame_ref() {
                std::hint::black_box(decode_client(payload).is_ok());
            }
        }
    }
    let per = |elapsed: std::time::Duration| {
        elapsed.as_nanos() as f64 / 1e3 / (ROUNDS * sample.len()).max(1) as f64
    };
    layers.set("edge.codec_client_us", per(started.elapsed()));
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for (seq, request) in sample.iter().enumerate() {
            let frame = encode_server(&ServerMsg::Verdict {
                seq: seq as u64,
                task: request.task.id.0,
                verdict: Verdict::Accepted,
            });
            let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
            decoder.push(&frame);
            if let Ok(Some((_, payload))) = decoder.next_frame_ref() {
                std::hint::black_box(decode_server(payload).is_ok());
            }
        }
    }
    layers.set("edge.codec_server_us", per(started.elapsed()));
}

/// What the gateway-level rungs of a serving workload need.
struct ServingLadder {
    script: Script,
    shards: usize,
    /// The state every block starts from (`None`: a fresh gateway bound
    /// the way the edge binds it).
    book: Option<ShardedGateway>,
    /// The engines in the same state (`None`: fresh).
    engines: Option<EngineBank>,
    drive_log: Vec<DriveRecord>,
    /// What the recording pass saw; every rung must see the same.
    recorded: PassOutcome,
}

impl ServingLadder {
    fn gateway(&self) -> ShardedGateway {
        match &self.book {
            Some(book) => book.clone(),
            None => edge_bound(serving_gateway(self.shards)),
        }
    }

    fn bank(&self) -> EngineBank {
        match &self.engines {
            Some(bank) => bank.clone(),
            None => EngineBank::new(serving_params(), self.shards, AlgorithmKind::EDF_DLT),
        }
    }

    /// The engine and gateway rungs, each for `seconds`.
    fn measure(
        &self,
        env: &RunEnv,
        seconds: f64,
        checks: &mut Checks,
    ) -> (Rung, EngineOutcome, Rung) {
        let mut probers = env.probers(false, false);
        let ops = self.script.ops();
        let mut outcome = EngineOutcome::default();
        let engine = measure_rung("engine", env, &mut probers, seconds, |rec| {
            let mut bank = self.bank();
            direct_sample(ops, || {
                outcome = run_engines(&mut bank, &self.script, &self.drive_log, rec);
            })
        });
        let mut tally = Tally::default();
        let gateway = measure_rung("gateway", env, &mut probers, seconds, |rec| {
            let mut gateway = self.gateway();
            direct_sample(ops, || {
                tally = run_gateway(&mut gateway, &self.script, rec, PassOpts::default()).tally;
            })
        });
        checks.equal("ladder.gateway_rung_tally", tally, self.recorded.tally);
        (engine, outcome, gateway)
    }
}

fn set_serving_layers(layers: &mut Layers, engine: &Rung, outcome: &EngineOutcome, gateway: &Rung) {
    layers.set("core.submit_us", engine.span_us("submit"));
    let depths: Vec<f64> = outcome.depths.iter().map(|&d| f64::from(d)).collect();
    layers.set("core.queue_depth_p50", median(&depths));
    layers.set("core.self_us_per_op", engine.op_us());
    layers.set("service.decide_us", gateway.span_us("decide"));
    layers.set("service.drive_us", gateway.span_us("drive"));
    layers.set("service.self_us_per_op", gateway.op_us() - engine.op_us());
    core_micro(layers, outcome, AlgorithmKind::EDF_DLT);
}

fn trace_edge(
    args: RunArgs,
    env: &RunEnv,
    layers: &mut Layers,
    checks: &mut Checks,
    recorders: &mut Vec<Recorder>,
) -> (u64, u64) {
    let kind = args.workload.edge_kind().expect("socket workload");
    let share = args.seconds / if kind == Kind::Durable { 5.0 } else { 4.0 };

    // The real thing, untraced — what the budget has to explain — and the
    // same thing traced (round trips kept, sink timed), block by block in
    // turn so both see the same host and the same disk.
    let (mut plain, split) = EdgeWorkload::setup(kind, args.seed, env, false);
    let (mut traced, _) = EdgeWorkload::setup(kind, args.seed, env, true);
    layers.set("setup.generate_s", split.generate_s);
    layers.set("setup.construct_s", split.construct_s);
    layers.set(
        "workload.generate_us_per_task",
        split.generate_s * 1e6 / plain.requests.len().max(1) as f64,
    );
    let started = Instant::now();
    plain.warm_up();
    layers.set("setup.warmup_s", started.elapsed().as_secs_f64());
    traced.warm_up();
    let mut probers = env.probers_for(&plain);
    let sink_log = traced.sink_log.clone();
    let sink_total_us = || {
        sink_log.as_ref().map_or(0.0, |log| {
            let log = log.lock().expect("sink recorder is never poisoned");
            ["sink.append", "sink.flush", "sink.reset"]
                .iter()
                .map(|n| log.total(n).total_us())
                .sum()
        })
    };
    // Time in the sink per op, one entry per traced block.
    let mut sink_us_per_op = Vec::new();
    let mut turn = 0usize;
    let samples = run_blocks(
        || {
            turn += 1;
            if turn % 2 == 1 {
                plain.block()
            } else {
                let before = sink_total_us();
                let sample = traced.block();
                sink_us_per_op.push((sink_total_us() - before) / sample.ops.max(1) as f64);
                sample
            }
        },
        &mut probers,
        2.0 * share,
        6,
        usize::MAX,
    );
    let of_parity = |parity: usize| -> Vec<Sample> {
        samples
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, s)| *s)
            .collect()
    };
    let untraced = Timing::of(&of_parity(0));
    let traced_blocks = of_parity(1);
    let top = Timing::of(&traced_blocks);
    // The sink's share of a verdict: what the socket run itself spent in
    // it, block by block at the disk's nominal speed, lower quartile like
    // every other row of the budget.
    let sink_us: Vec<f64> = sink_us_per_op
        .iter()
        .zip(&traced_blocks)
        .map(|(us, block)| us / block.disk_interference.max(0.1))
        .collect();
    drop(sink_log);
    plain.verify(checks);
    let mut top_checks = Checks::default();
    traced.verify(&mut top_checks);
    checks
        .items
        .extend(top_checks.items.into_iter().filter(|c| !c.ok).map(|mut c| {
            c.name = format!("traced.{}", c.name);
            c
        }));
    let requests = plain.requests.clone();
    drop(plain);

    // The lower rungs replay the script the socket run produces.
    let script = Script::windowed(&requests, kind.shape().window, 1);
    let recorded = run_gateway(
        &mut edge_bound(serving_gateway(SHARDS)),
        &script,
        &mut Recorder::disabled(),
        PassOpts {
            keep_drive_log: true,
            ..PassOpts::default()
        },
    );
    let ladder = ServingLadder {
        script,
        shards: SHARDS,
        book: None,
        engines: None,
        drive_log: recorded.drive_log.clone(),
        recorded,
    };
    let (engine, outcome, gateway) = ladder.measure(env, share, checks);
    set_serving_layers(layers, &engine, &outcome, &gateway);

    let mut budget = vec![
        ("core", engine.op_us()),
        ("service", gateway.op_us() - engine.op_us()),
    ];
    let mut below = &gateway;
    let mut journaled: Option<Rung> = None;
    if kind == Kind::Durable {
        let log = Arc::new(Mutex::new(Recorder::new(
            "journaled.sink",
            env.origin,
            true,
        )));
        let wal = env.out_dir.join(format!("wal-ladder-{}.bin", args.seed));
        let ops = ladder.script.ops();
        let rung = measure_rung(
            "journaled",
            env,
            &mut env.probers(false, true),
            share,
            |rec| {
                let mut stack = edge_bound(durable_gateway(&wal, Some(Arc::clone(&log))));
                direct_sample(ops, || {
                    run_gateway(&mut stack, &ladder.script, rec, PassOpts::default());
                })
            },
        );
        let _ = std::fs::remove_file(&wal);
        let log = Arc::into_inner(log)
            .expect("the rung's gateways are gone")
            .into_inner()
            .expect("sink recorder is never poisoned");
        let journaled = journaled.insert(rung);
        // The untimed first pass of the rung also went through the sink;
        // scale by passes so the totals cover the timed blocks only.
        let passes = (journaled.timing.blocks + 1) as f64;
        let sink_us_per_op = ["sink.append", "sink.flush", "sink.reset"]
            .iter()
            .map(|n| log.total(n).total_us())
            .sum::<f64>()
            / passes
            / ops.max(1) as f64
            * journaled.compensation();
        budget.push((
            "journal (self)",
            journaled.op_us() - gateway.op_us() - sink_us_per_op,
        ));
        layers.set(
            "journal.self_us_per_op",
            journaled.op_us() - gateway.op_us() - sink_us_per_op,
        );
        recorders.push(log);
        below = journaled;
    }

    let edge_self = top.cpu_us.p25 - below.cpu_us();
    budget.push(("edge (reactor cpu - below)", edge_self));
    layers.set("edge.self_us_per_op", edge_self);
    layers.set("edge.server_cpu_us_per_op", untraced.cpu_us.p25);
    layers.set("edge.server_idle_ratio", untraced.idle_ratio);
    let rtts: Vec<f64> = traced
        .rtts_ns
        .iter()
        .map(|&ns| f64::from(ns) / 1e3)
        .collect();
    layers.set("edge.rtt_p50_us", quantile(&rtts, 0.5));
    layers.set("edge.rtt_p99_us", quantile(&rtts, 0.99));
    codec_micro(layers, &requests);

    let books = traced.books.clone();
    let ops = books.submitted.max(1) as f64;
    layers.set("edge.frames_in", books.edge.frames_received as f64);
    layers.set("edge.frames_out", books.edge.frames_sent as f64);
    layers.set("service.defer_retests_per_op", books.retests as f64 / ops);
    layers.set(
        "service.defer_rescue_ratio",
        books.rescued as f64 / books.verdicts[2].max(1) as f64,
    );
    layers.set(
        "service.updates_per_op",
        books.edge.updates_pushed as f64 / ops,
    );
    set_verdicts(layers, &traced.client_tally);
    if let Some(log) = traced.sink_log.take() {
        layers.set("journal.flushes_per_op", books.sink.syncs as f64 / ops);
        layers.set(
            "journal.bytes_per_op",
            books.sink.bytes_written as f64 / ops,
        );
        layers.set("journal.snapshots", books.journal_snapshots as f64);
        drop(traced);
        let log = Arc::into_inner(log)
            .expect("the reactors are gone")
            .into_inner()
            .expect("sink recorder is never poisoned");
        layers.set(
            "journal.sink_append_us_per_op",
            log.total("sink.append").total_us() / ops,
        );
        layers.set("journal.sink_flush_us", log.total("sink.flush").mean_us());
        layers.set("journal.snapshot_us", log.total("sink.reset").mean_us());
        budget.push(("journal (sink: write+fsync)", quantile(&sink_us, 0.25)));
        recorders.push(log);
    }

    let sum: f64 = budget.iter().map(|(_, v)| v).sum();
    print_budget(&budget, untraced.op_us.p25, "verdict");
    set_harness(layers, &untraced, top.op_us.p25, sum);
    recorders.extend(journaled.map(|rung| rung.rec));
    recorders.push(engine.rec);
    recorders.push(gateway.rec);
    (untraced.attempted, untraced.failed)
}

fn trace_admit(
    args: RunArgs,
    env: &RunEnv,
    layers: &mut Layers,
    checks: &mut Checks,
    recorders: &mut Vec<Recorder>,
) -> (u64, u64) {
    let share = args.seconds / 3.0;
    let (mut workload, split) = AdmitWorkload::setup(args.seed);
    layers.set("setup.generate_s", split.generate_s);
    layers.set("setup.construct_s", split.construct_s);
    layers.set(
        "workload.generate_us_per_task",
        split.generate_s * 1e6 / (crate::wl_admit::PREWARM + crate::wl_admit::OPS_PER_BLOCK) as f64,
    );
    let untraced = untraced_reference(&mut workload, env, share, layers, checks);

    // Bring engines to the pre-warmed book's state by replaying what the
    // gateway did during the pre-warm, then record the block itself.
    let record = PassOpts {
        keep_drive_log: true,
        ..PassOpts::default()
    };
    let mut fresh = serving_gateway(1);
    fresh.enable_observation();
    let prewarm = run_gateway(
        &mut fresh,
        &workload.prewarm,
        &mut Recorder::disabled(),
        record,
    );
    let mut engines = EngineBank::new(serving_params(), 1, AlgorithmKind::EDF_DLT);
    run_engines(
        &mut engines,
        &workload.prewarm,
        &prewarm.drive_log,
        &mut Recorder::disabled(),
    );
    let recorded = run_gateway(
        &mut workload.book.clone(),
        &workload.script,
        &mut Recorder::disabled(),
        record,
    );
    let ladder = ServingLadder {
        script: workload.script.clone(),
        shards: 1,
        book: Some(workload.book.clone()),
        engines: Some(engines),
        drive_log: recorded.drive_log.clone(),
        recorded,
    };
    let (engine, outcome, gateway) = ladder.measure(env, share, checks);
    set_serving_layers(layers, &engine, &outcome, &gateway);
    let m = workload.book.metrics();
    let ops = ladder.script.ops().max(1) as f64;
    set_verdicts(layers, &ladder.recorded.tally);
    layers.set(
        "service.updates_per_op",
        ladder.recorded.updates as f64 / ops,
    );
    {
        // Re-test and rescue counts of the block alone: a pass over a
        // clone of the book, minus what the pre-warm had already booked.
        let mut gateway = workload.book.clone();
        run_gateway(
            &mut gateway,
            &workload.script,
            &mut Recorder::disabled(),
            PassOpts::default(),
        );
        let after = gateway.metrics();
        layers.set(
            "service.defer_retests_per_op",
            (after.retests - m.retests) as f64 / ops,
        );
        let deferred = (after.deferred - m.deferred).max(1) as f64;
        layers.set(
            "service.defer_rescue_ratio",
            (after.rescued - m.rescued) as f64 / deferred,
        );
    }

    let budget = [
        ("core", engine.op_us()),
        ("service", gateway.op_us() - engine.op_us()),
    ];
    print_budget(&budget, untraced.op_us.p25, "decision");
    set_harness(layers, &untraced, gateway.op_us(), gateway.op_us());
    recorders.push(engine.rec);
    recorders.push(gateway.rec);
    (untraced.attempted, untraced.failed)
}

fn trace_recover(
    args: RunArgs,
    env: &RunEnv,
    layers: &mut Layers,
    checks: &mut Checks,
    recorders: &mut Vec<Recorder>,
) -> (u64, u64) {
    let share = args.seconds / 4.0;
    let (mut workload, split) = RecoverWorkload::setup(args.seed, env);
    layers.set("setup.generate_s", split.generate_s);
    layers.set("setup.construct_s", split.construct_s);
    layers.set(
        "workload.generate_us_per_task",
        split.generate_s * 1e6 / crate::wl_recover::REQUESTS as f64,
    );
    let untraced = untraced_reference(&mut workload, env, share, layers, checks);

    // What replay re-executes, without the journal: the journaled stream
    // through bare engines and a bare gateway.
    let mut fresh = serving_gateway(SHARDS);
    fresh.enable_observation();
    let recorded = run_gateway(
        &mut fresh.clone(),
        &workload.script,
        &mut Recorder::disabled(),
        PassOpts {
            keep_drive_log: true,
            ..PassOpts::default()
        },
    );
    let ladder = ServingLadder {
        script: workload.script.clone(),
        shards: SHARDS,
        book: Some(fresh),
        engines: None,
        drive_log: recorded.drive_log.clone(),
        recorded,
    };
    let (mut engine, outcome, mut gateway) = ladder.measure(env, share, checks);
    // The rungs ran the stream once per block; a recover block replays
    // `ops_per_block` events. Express both per replayed event.
    let events = untraced.ops_per_block.max(1);
    engine.timing = rescale(&engine.timing, ladder.script.ops(), events);
    gateway.timing = rescale(&gateway.timing, ladder.script.ops(), events);
    set_serving_layers(layers, &engine, &outcome, &gateway);
    set_verdicts(layers, &ladder.recorded.tally);

    // The recovery itself, in its public steps.
    let mut rec = Recorder::new("recover", env.origin, true);
    let (tail, snapshot) = (&workload.images[0], &workload.images[1]);
    let mut tail_frames = 1usize;
    let mut demoted = 0usize;
    for _ in 0..3 {
        for (image, decode, rebuild) in [
            (tail, "decode.tail", "replay.tail"),
            (snapshot, "decode.snapshot", "replay.snapshot"),
        ] {
            let span = rec.open(decode, 0);
            let frames = decode_frames(&image.bytes).0.len();
            rec.close(span);
            if image.name == tail.name {
                tail_frames = frames.max(1);
            }
            let span = rec.open(rebuild, 0);
            let rebuilt = replay::<ShardedGateway>(&image.bytes);
            rec.close(span);
            if let Ok((gateway, report)) = rebuilt {
                let span = rec.open("requalify", 0);
                let (_journaled, out) = requalify(
                    gateway,
                    workload.recover_at,
                    JournalConfig::default(),
                    None,
                    report.epoch,
                );
                rec.close(span);
                demoted = out.len();
            }
        }
    }
    let tail_events = tail.report.as_ref().map_or(1, |r| r.events_replayed.max(1)) as f64;
    let snap_events = snapshot.report.as_ref().map_or(0, |r| r.events_replayed) as f64;
    layers.set(
        "journal.decode_us_per_frame",
        rec.total("decode.tail").mean_us() / tail_frames as f64,
    );
    // The tail image is almost all replay; the snapshot image almost all
    // restore. Solve the two for the per-event and the per-restore cost.
    let per_event =
        (rec.total("replay.tail").mean_us() - rec.total("decode.tail").mean_us()) / tail_events;
    layers.set("journal.replay_us_per_event", per_event);
    layers.set(
        "journal.restore_us",
        (rec.total("replay.snapshot").mean_us()
            - rec.total("decode.snapshot").mean_us()
            - per_event * snap_events)
            .max(0.0),
    );
    layers.set("journal.requalify_us", rec.total("requalify").mean_us());
    layers.set("journal.demoted", demoted as f64);

    let journal_self = untraced.op_us.p25 - gateway.op_us();
    layers.set("journal.self_us_per_op", journal_self);
    let budget = [
        ("core", engine.op_us()),
        ("service", gateway.op_us() - engine.op_us()),
        ("journal (recover - gateway)", journal_self),
    ];
    print_budget(&budget, untraced.op_us.p25, "replayed event");
    set_harness(layers, &untraced, untraced.op_us.p25, untraced.op_us.p25);
    recorders.push(engine.rec);
    recorders.push(gateway.rec);
    recorders.push(rec);
    (untraced.attempted, untraced.failed)
}

/// `timing` with its per-op numbers re-expressed for a different op count
/// per block (`from` ops measured, `to` ops claimed).
fn rescale(timing: &Timing, from: u64, to: u64) -> Timing {
    let k = from as f64 / to.max(1) as f64;
    let scale = |q: crate::stats::Quartiles| crate::stats::Quartiles {
        p25: q.p25 * k,
        p50: q.p50 * k,
        p75: q.p75 * k,
    };
    Timing {
        op_us: scale(timing.op_us),
        cpu_us: scale(timing.cpu_us),
        op_us_raw: scale(timing.op_us_raw),
        attempted: (timing.attempted as f64 / k) as u64,
        ..timing.clone()
    }
}

fn trace_sim(
    args: RunArgs,
    env: &RunEnv,
    layers: &mut Layers,
    checks: &mut Checks,
    recorders: &mut Vec<Recorder>,
) -> (u64, u64) {
    let share = args.seconds / 3.0;
    let (mut workload, split) = SimWorkload::setup(args.seed);
    layers.set("setup.generate_s", split.generate_s);
    layers.set(
        "workload.generate_us_per_task",
        split.generate_s * 1e6 / workload.tasks.iter().map(Vec::len).sum::<usize>().max(1) as f64,
    );
    let untraced = untraced_reference(&mut workload, env, share, layers, checks);
    let ops = workload.ops();
    let mut probers = env.probers(false, false);

    // Engine rung: the same tasks, cell by cell, through the bare engine —
    // submit at arrival, take what is due at arrival.
    let scripts: Vec<Script> = workload
        .tasks
        .iter()
        .map(|tasks| Script::per_arrival(tasks.iter().map(|t| SubmitRequest::new(*t)).collect()))
        .collect();
    let logs: Vec<Vec<DriveRecord>> = scripts
        .iter()
        .map(|s| arrival_drive_log(&s.turns))
        .collect();
    let mut outcome = EngineOutcome::default();
    let engine = measure_rung("engine", env, &mut probers, share, |rec| {
        direct_sample(ops, || {
            for (script, log) in scripts.iter().zip(&logs) {
                for &algorithm in &ALGORITHMS {
                    let mut bank = EngineBank::new(workload.params, 1, algorithm);
                    let cell = run_engines(&mut bank, script, log, rec);
                    if algorithm == AlgorithmKind::EDF_DLT {
                        outcome = cell;
                    }
                }
            }
        })
    });

    // Sim rung: the sweep through the stepped API, counting events.
    let mut events = 0u64;
    let mut rejected = [0u64; ALGORITHMS.len()];
    let mut arrivals = [0u64; ALGORITHMS.len()];
    let sim = measure_rung("sim", env, &mut probers, share, |rec| {
        events = 0;
        rejected = [0; ALGORITHMS.len()];
        arrivals = [0; ALGORITHMS.len()];
        direct_sample(ops, || {
            for (load, tasks) in workload.tasks.iter().enumerate() {
                for (a, &algorithm) in ALGORITHMS.iter().enumerate() {
                    let span = rec.open("cell", (load * ALGORITHMS.len() + a) as u32);
                    let mut sim = Simulation::new(cell_config(workload.params, algorithm));
                    sim.prime(tasks.iter().copied());
                    while sim.step() {}
                    events += sim.events_processed();
                    let (report, _) = sim.finish();
                    rec.close(span);
                    rejected[a] += report.metrics.rejected;
                    arrivals[a] += report.metrics.arrivals;
                }
            }
        })
    });
    checks.equal("ladder.sim_rung_tasks", arrivals.iter().sum::<u64>(), ops);

    layers.set("core.submit_us", engine.span_us("submit"));
    let depths: Vec<f64> = outcome.depths.iter().map(|&d| f64::from(d)).collect();
    layers.set("core.queue_depth_p50", median(&depths));
    layers.set("core.self_us_per_op", engine.op_us());
    core_micro(layers, &outcome, AlgorithmKind::EDF_DLT);
    layers.set("sim.events_per_task", events as f64 / ops.max(1) as f64);
    layers.set(
        "sim.event_us",
        sim.op_us() * ops as f64 / events.max(1) as f64,
    );
    layers.set("sim.self_us_per_task", sim.op_us() - engine.op_us());
    for (a, name) in [
        "sim.reject_ratio.EDF-DLT",
        "sim.reject_ratio.FIFO-DLT",
        "sim.reject_ratio.EDF-OPR-MN",
        "sim.reject_ratio.EDF-OPR-AN",
    ]
    .into_iter()
    .enumerate()
    {
        layers.set(name, rejected[a] as f64 / arrivals[a].max(1) as f64);
    }

    let budget = [
        ("core", engine.op_us()),
        ("sim (sweep - engine rung)", sim.op_us() - engine.op_us()),
    ];
    print_budget(&budget, untraced.op_us.p25, "task");
    set_harness(layers, &untraced, sim.op_us(), sim.op_us());
    println!(
        "rungs: {} {:.3} us/task, {} {:.3} us/task",
        engine.name,
        engine.op_us(),
        sim.name,
        sim.op_us()
    );
    recorders.push(engine.rec);
    recorders.push(sim.rec);
    (untraced.attempted, untraced.failed)
}
