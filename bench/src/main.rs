//! `rtdls-perfbench`: the repository benchmark.
//!
//! ```text
//! rtdls-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rtdls-perfbench quick [--seed <n>]        every workload's checks, 3 blocks each
//! rtdls-perfbench aa <k> [--seconds <s>] [--workload <name>]
//!                                           two interleaved sets of k runs, judged
//!                                           against the bounds in BENCHMARK.json
//! rtdls-perfbench pin <seed>...             print expected.json for these seeds
//! ```
//!
//! It measures from outside only: it calls public functions of `core`,
//! `service`, `journal`, `edge`, `sim` and `workload`, injects a timed
//! `JournalSink`, and owns the threads it spawns. See `README.md`.

mod aa;
mod edge;
mod expected;
mod harness;
mod inputs;
mod ladder;
mod probe;
mod stack;
mod stats;
mod sys;
mod trace;
mod wl_admit;
mod wl_edge;
mod wl_recover;
mod wl_sim;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use harness::{
    print_metrics, result_line, run_blocks, Checks, Metric, RunEnv, SetupSplit, Timing, Workload,
    SETUPS_PER_RUN,
};

/// The six workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    EdgeLight,
    EdgeDurable,
    EdgeBurst,
    AdmitDeep,
    Recover,
    PaperSim,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 6] = [
        WorkloadId::EdgeLight,
        WorkloadId::EdgeDurable,
        WorkloadId::EdgeBurst,
        WorkloadId::AdmitDeep,
        WorkloadId::Recover,
        WorkloadId::PaperSim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::EdgeLight => "edge_light",
            WorkloadId::EdgeDurable => "edge_durable",
            WorkloadId::EdgeBurst => "edge_burst",
            WorkloadId::AdmitDeep => "admit_deep",
            WorkloadId::Recover => "recover",
            WorkloadId::PaperSim => "paper_sim",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The socket workload behind this id, if it is one.
    pub fn edge_kind(self) -> Option<wl_edge::Kind> {
        match self {
            WorkloadId::EdgeLight => Some(wl_edge::Kind::Light),
            WorkloadId::EdgeDurable => Some(wl_edge::Kind::Durable),
            WorkloadId::EdgeBurst => Some(wl_edge::Kind::Burst),
            _ => None,
        }
    }
}

/// `bench/`, wherever this checkout is.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Sets a workload up: generation, construction, and the fixed-work warm-up
/// pass (one block, discarded).
fn set_up(id: WorkloadId, seed: u64, env: &RunEnv) -> (Box<dyn Workload>, SetupSplit) {
    let (mut workload, mut split): (Box<dyn Workload>, SetupSplit) = match id {
        WorkloadId::AdmitDeep => {
            let (w, s) = wl_admit::AdmitWorkload::setup(seed);
            (Box::new(w), s)
        }
        WorkloadId::Recover => {
            let (w, s) = wl_recover::RecoverWorkload::setup(seed, env);
            (Box::new(w), s)
        }
        WorkloadId::PaperSim => {
            let (w, s) = wl_sim::SimWorkload::setup(seed);
            (Box::new(w), s)
        }
        _ => {
            let kind = id
                .edge_kind()
                .expect("the remaining ids are socket workloads");
            let (w, s) = wl_edge::EdgeWorkload::setup(kind, seed, env, false);
            (Box::new(w), s)
        }
    };
    let started = Instant::now();
    split.warmup = workload.warm_up();
    split.warmup_s = started.elapsed().as_secs_f64();
    (workload, split)
}

/// One run's arguments.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub workload: WorkloadId,
    pub seed: u64,
    pub seconds: f64,
    /// `quick`: one set-up and three blocks — the warm-up pass, one timed
    /// block, the check pass — with no timing claims.
    pub quick: bool,
}

/// What an end-to-end run measured.
pub struct RunReport {
    pub timing: Timing,
    pub setups: Vec<SetupSplit>,
    pub checks: Checks,
    pub fingerprint: Vec<u64>,
}

impl RunReport {
    /// `setup_s`: the median over the run's complete set-ups, each divided
    /// by the interference factor around it.
    pub fn setup_s(&self) -> f64 {
        let totals: Vec<f64> = self.setups.iter().map(SetupSplit::compensated).collect();
        stats::median(&totals)
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", self.setup_s(), "s"),
            Metric::new("op_us", self.timing.op_us.p25, "us"),
            Metric::new("cpu_us_per_op", self.timing.cpu_us.p25, "us"),
            Metric::new(
                "within_limit_ratio",
                self.timing.within_limit_ratio(),
                "ratio",
            ),
            Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MB"),
        ]
    }
}

/// Sets up (several times), measures blocks for `args.seconds`, verifies.
pub fn run_end_to_end(args: RunArgs, env: &RunEnv) -> RunReport {
    let setups_wanted = if args.quick { 1 } else { SETUPS_PER_RUN };
    let mut setups = Vec::new();
    let mut current: Option<Box<dyn Workload>> = None;
    let mut probers = env.probers(
        args.workload.edge_kind().is_some(),
        args.workload == WorkloadId::EdgeDurable,
    );
    let mut before = probers.sample();
    for _ in 0..setups_wanted {
        // The previous set-up owns files and a thread the next one reuses.
        drop(current.take());
        let (workload, mut split) = set_up(args.workload, args.seed, env);
        let after = probers.sample();
        split.warmup.interference = (before.0 + after.0) / 2.0;
        split.warmup.disk_interference = (before.1 + after.1) / 2.0;
        before = after;
        setups.push(split);
        current = Some(workload);
    }
    let mut workload = current.expect("at least one set-up");
    print_header(args, env, workload.as_ref());

    let mut probers = env.probers_for(workload.as_ref());
    let samples = if args.quick {
        // The warm-up pass, one timed block, and the check pass.
        run_blocks(|| workload.block(), &mut probers, 0.0, 1, 1)
    } else {
        run_blocks(
            || workload.block(),
            &mut probers,
            args.seconds,
            3,
            usize::MAX,
        )
    };
    let timing = Timing::of(&samples);

    let mut checks = Checks::default();
    workload.verify(&mut checks);
    checks.equal("ops.none_failed", timing.failed, 0);
    let fingerprint = workload.fingerprint();
    match expected::lookup(args.workload.name(), args.seed) {
        Some(want) => checks.equal("expected.fingerprint", fingerprint.clone(), want),
        None => println!(
            "note: seed {} is not pinned in expected.json; block-to-block equality and regime checks only",
            args.seed
        ),
    }
    RunReport {
        timing,
        setups,
        checks,
        fingerprint,
    }
}

fn print_header(args: RunArgs, env: &RunEnv, workload: &dyn Workload) {
    let mut fields = vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("nproc", env.cpus.len().to_string()),
        (
            "pinned",
            match (env.generator_cpu, env.reactor_cpu) {
                (Some(g), Some(r)) => format!("generator@{g},reactor@{r}"),
                _ => "no".to_string(),
            },
        ),
        ("out_fs", sys::filesystem_of(&env.out_dir)),
    ];
    fields.extend(workload.header());
    let line: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("header {}", line.join(" "));
}

fn print_timing(timing: &Timing, setups: &[SetupSplit]) {
    println!(
        "blocks={} ops_per_block={} attempted={} failed={}",
        timing.blocks, timing.ops_per_block, timing.attempted, timing.failed
    );
    println!(
        "op_us        p25 {:.3}  median {:.3}  p75 {:.3}  iqr/median {:.4}{}",
        timing.op_us.p25,
        timing.op_us.p50,
        timing.op_us.p75,
        timing.op_us.iqr_ratio(),
        if timing.noisy() { "  NOISY" } else { "" }
    );
    println!(
        "op_us raw    p25 {:.3}  median {:.3}  p75 {:.3}  iqr/median {:.4}  (as measured, before interference compensation)",
        timing.op_us_raw.p25,
        timing.op_us_raw.p50,
        timing.op_us_raw.p75,
        timing.op_us_raw.iqr_ratio()
    );
    println!(
        "interference p25 {:.3}  median {:.3}  p75 {:.3}  (probe time over its nominal {} ns); disk median {:.3}",
        timing.interference.p25,
        timing.interference.p50,
        timing.interference.p75,
        probe::NOMINAL_NS,
        timing.disk_interference.p50
    );
    println!(
        "cpu_us/op    p25 {:.3}  median {:.3}  p75 {:.3}  idle_ratio {:.4}  generator_cpu_us/op {:.3}",
        timing.cpu_us.p25,
        timing.cpu_us.p50,
        timing.cpu_us.p75,
        timing.idle_ratio,
        timing.generator_cpu_us
    );
    for (i, s) in setups.iter().enumerate() {
        println!(
            "setup[{i}]     generate {:.4} s  construct {:.4} s  warmup {:.4} s  total {:.4} s  interference {:.3}",
            s.generate_s,
            s.construct_s,
            s.warmup_s,
            s.total(),
            s.warmup.interference
        );
    }
}

/// The contract's entry point: one workload, one seed, one result line.
fn run_single(args: RunArgs, trace: bool) -> ExitCode {
    let env = RunEnv::prepare(out_dir());
    if trace {
        let report = ladder::run_traced(args, &env);
        report.checks.print();
        print_metrics("per-layer metrics", &report.metrics);
        println!(
            "{}",
            result_line(
                report.checks.all_ok(),
                report.attempted,
                report.failed,
                &report.metrics
            )
        );
    } else {
        let report = run_end_to_end(args, &env);
        print_timing(&report.timing, &report.setups);
        report.checks.print();
        let metrics = report.end_to_end();
        print_metrics("end-to-end metrics", &metrics);
        println!(
            "{}",
            result_line(
                report.checks.all_ok(),
                report.timing.attempted,
                report.timing.failed,
                &metrics
            )
        );
    }
    ExitCode::SUCCESS
}

/// `quick`: every workload's correctness checks, three blocks each.
fn run_quick(seed: u64) -> ExitCode {
    let env = RunEnv::prepare(out_dir());
    let started = Instant::now();
    let mut failed = Vec::new();
    for workload in WorkloadId::ALL {
        let report = run_end_to_end(
            RunArgs {
                workload,
                seed,
                seconds: 0.0,
                quick: true,
            },
            &env,
        );
        report.checks.print();
        if !report.checks.all_ok() {
            failed.push(workload.name());
        }
    }
    println!(
        "quick: {} workloads in {:.2} s, no timing claims; {}",
        WorkloadId::ALL.len(),
        started.elapsed().as_secs_f64(),
        if failed.is_empty() {
            "all checks pass".to_string()
        } else {
            format!("FAILED: {}", failed.join(", "))
        }
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `pin`: prints `expected.json` for the given seeds.
fn run_pin(seeds: &[u64]) -> ExitCode {
    let env = RunEnv::prepare(out_dir());
    let mut rows = Vec::new();
    for &seed in seeds {
        let mut row = Vec::new();
        for workload in WorkloadId::ALL {
            let args = RunArgs {
                workload,
                seed,
                seconds: 0.0,
                quick: true,
            };
            // Only the fingerprint matters here; the file follows the
            // runs' own output, after a marker line.
            let report = run_end_to_end(args, &env);
            if !report
                .checks
                .items
                .iter()
                .all(|c| c.ok || c.name == "expected.fingerprint")
            {
                report.checks.print();
                eprintln!(
                    "refusing to pin {} at seed {seed}: a check fails",
                    workload.name()
                );
                return ExitCode::FAILURE;
            }
            row.push((workload.name().to_string(), report.fingerprint));
        }
        rows.push((seed, row));
    }
    println!("-----8<----- expected.json");
    print!("{}", expected::render(&rows));
    ExitCode::SUCCESS
}

struct Flags {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => {
                flags.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

fn usage() -> String {
    let names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage:\n  rtdls-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n  rtdls-perfbench quick [--seed <n>]\n  rtdls-perfbench aa <k> [--seconds <s>] [--workload <name>]\n  rtdls-perfbench pin <seed>...",
        names.join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let workload = match flags.workload.as_deref().map(WorkloadId::parse) {
        Some(None) => {
            eprintln!("error: unknown workload\n{}", usage());
            return ExitCode::from(2);
        }
        Some(Some(w)) => Some(w),
        None => None,
    };
    match flags.positional.first().map(String::as_str) {
        None => {
            let (Some(workload), Some(seconds)) = (workload, flags.seconds) else {
                eprintln!("error: --workload and --seconds are required\n{}", usage());
                return ExitCode::from(2);
            };
            run_single(
                RunArgs {
                    workload,
                    seed: flags.seed,
                    seconds,
                    quick: false,
                },
                flags.trace,
            )
        }
        Some("quick") => run_quick(flags.seed),
        Some("aa") => {
            let Some(k) = flags
                .positional
                .get(1)
                .and_then(|k| k.parse::<usize>().ok())
            else {
                eprintln!("error: aa needs a run count\n{}", usage());
                return ExitCode::from(2);
            };
            aa::run(k.max(1), flags.seconds, workload)
        }
        Some("pin") => {
            let seeds: Result<Vec<u64>, _> =
                flags.positional[1..].iter().map(|s| s.parse()).collect();
            match seeds {
                Ok(seeds) if !seeds.is_empty() => run_pin(&seeds),
                _ => {
                    eprintln!("error: pin needs seeds\n{}", usage());
                    ExitCode::from(2)
                }
            }
        }
        Some(other) => {
            eprintln!("error: unknown command {other}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `BENCHMARK.json` and the binary must name the same workloads and the
    /// same per-layer metrics, in the same order, with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            let Some(Value::Seq(entries)) = doc.get(key) else {
                panic!("{key} missing");
            };
            entries
                .iter()
                .map(|e| match e.get(field) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key}.{field}: {other:?}"),
                })
                .collect()
        };
        let workloads: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads", "name"), workloads);
        let layers: Vec<&str> = ladder::LAYER_METRICS.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names("per_layer", "name"), layers);
        let units: Vec<&str> = ladder::LAYER_METRICS.iter().map(|(_, u, _)| *u).collect();
        assert_eq!(names("per_layer", "unit"), units);
        assert_eq!(
            names("end_to_end", "name"),
            [
                "setup_s",
                "op_us",
                "cpu_us_per_op",
                "within_limit_ratio",
                "peak_rss_mb"
            ]
        );
    }
}
