//! How a timing is taken.
//!
//! A run's measured section is a sequence of *equal-work blocks*: the same
//! seeded inputs every block (a fresh connection replaying the same frames,
//! a clone of the same pre-warmed book, one recovery of the same image, one
//! sweep of the same grid). Around every block the interference probe
//! ([`crate::probe`]) samples how slow the host is right now, and the
//! block's CPU time is divided by that factor. Each timing metric is then
//! the **lower quartile over the compensated blocks**; the block median,
//! the inter-quartile range and the raw (uncompensated) quartiles are
//! printed as diagnostics, and a run whose compensated IQR exceeds
//! [`NOISY_IQR`] of its median is flagged `noisy`.

use std::path::PathBuf;
use std::time::Instant;

use crate::probe::{DiskProber, Prober};
use crate::stats::{median, Quartiles};
use crate::sys;

/// Block IQR ÷ median above which a run is flagged noisy.
pub const NOISY_IQR: f64 = 0.15;

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUPS_PER_RUN: usize = 3;

/// One equal-work block, as the workload measured it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall time of the block's timed section.
    pub wall_ns: u64,
    /// CPU the system under test used: the reactor thread on socket
    /// workloads (process minus generator thread), the process otherwise.
    pub cpu_ns: u64,
    /// CPU the generator thread used (socket workloads; 0 otherwise).
    pub generator_cpu_ns: u64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that completed correctly within the workload's limit.
    pub within_limit: u64,
    /// Operations that failed, were refused by error, or came back wrong.
    pub failed: u64,
    /// The host's interference factor around the block (probe time over
    /// its nominal time; filled by [`run_blocks`]).
    pub interference: f64,
    /// The disk's interference factor around the block (1 unless the
    /// workload waits on `fsync`; filled by [`run_blocks`]).
    pub disk_interference: f64,
}

impl Default for Sample {
    /// An empty block on a quiet host (both interference factors 1).
    fn default() -> Self {
        Sample {
            wall_ns: 0,
            cpu_ns: 0,
            generator_cpu_ns: 0,
            ops: 0,
            within_limit: 0,
            failed: 0,
            interference: 1.0,
            disk_interference: 1.0,
        }
    }
}

impl Sample {
    /// CPU time at the probe's nominal speed.
    pub fn cpu_compensated_ns(&self) -> f64 {
        self.cpu_ns as f64 / self.interference.max(0.1)
    }

    /// Wall time with its CPU share compensated by the CPU probe and its
    /// waiting share by the disk probe (as measured when the workload does
    /// not wait on the disk).
    pub fn wall_compensated_ns(&self) -> f64 {
        let waiting = self.wall_ns.saturating_sub(self.cpu_ns) as f64;
        self.cpu_compensated_ns() + waiting / self.disk_interference.max(0.1)
    }
}

/// One named pass/fail check with what was observed.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The correctness verdict of a run.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub items: Vec<Check>,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.items.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Passes when `got == want`, reporting both.
    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, got: T, want: T) {
        let ok = got == want;
        self.check(name, ok, format!("got {got:?}, want {want:?}"));
    }

    pub fn all_ok(&self) -> bool {
        self.items.iter().all(|c| c.ok)
    }

    pub fn print(&self) {
        for c in &self.items {
            let mark = if c.ok { "ok  " } else { "FAIL" };
            println!("check {mark} {:<34} {}", c.name, c.detail);
        }
    }
}

/// A workload the harness can set up, run block by block, and verify.
pub trait Workload {
    /// Runs one equal-work block.
    fn block(&mut self) -> Sample;

    /// The fixed-work warm-up pass of a set-up: one block, discarded.
    fn warm_up(&mut self) -> Sample {
        self.block()
    }

    /// Header fields specific to the workload (window, clock scale, ops
    /// per block, …), as `key=value` pairs.
    fn header(&self) -> Vec<(&'static str, String)>;

    /// The untimed correctness pass and end-of-run reconciliation. Called
    /// once, after the last block; consumes whatever the checks need.
    fn verify(&mut self, checks: &mut Checks);

    /// The exact counts one block produces (see `expected.rs`). Valid
    /// once `verify` has run.
    fn fingerprint(&self) -> Vec<u64>;

    /// Whether the block's work runs on the reactor thread's CPU (socket
    /// workloads) rather than the caller's.
    fn works_on_reactor(&self) -> bool {
        false
    }

    /// Whether the time a block spends off the CPU is `fsync` wait.
    fn waits_on_disk(&self) -> bool {
        false
    }
}

/// Where a run executes: its scratch directory, its time origin, and the
/// CPUs its two busy threads are pinned to.
#[derive(Clone, Debug)]
pub struct RunEnv {
    /// `bench/out/`, created on demand.
    pub out_dir: PathBuf,
    /// The instant spans are measured from.
    pub origin: Instant,
    /// CPUs this process may use.
    pub cpus: Vec<usize>,
    /// Where the generator (the calling thread) is pinned, if anywhere.
    pub generator_cpu: Option<usize>,
    /// Where a reactor thread is pinned, if anywhere.
    pub reactor_cpu: Option<usize>,
}

impl RunEnv {
    /// The probes for work done on the reactor's CPU or on the caller's,
    /// with the disk probe when the workload waits on `fsync`.
    pub fn probers(&self, on_reactor: bool, on_disk: bool) -> Probers {
        let cpu = if on_reactor {
            self.reactor_cpu
        } else {
            self.generator_cpu
        };
        Probers {
            cpu: Prober::new(cpu, self.generator_cpu),
            disk: on_disk
                .then(|| DiskProber::create(&self.out_dir.join("disk-probe.bin")).ok())
                .flatten(),
        }
    }

    /// The probes a workload asks for.
    pub fn probers_for(&self, workload: &dyn Workload) -> Probers {
        self.probers(workload.works_on_reactor(), workload.waits_on_disk())
    }

    /// Creates `out_dir` and pins the calling thread. With two or more
    /// CPUs the generator takes the first and the reactor the second; with
    /// one, nothing is pinned.
    pub fn prepare(out_dir: PathBuf) -> RunEnv {
        std::fs::create_dir_all(&out_dir).expect("bench/out is creatable");
        let cpus = sys::allowed_cpus();
        let (generator_cpu, reactor_cpu) = match cpus[..] {
            [first, second, ..] => (Some(first), Some(second)),
            _ => (None, None),
        };
        if let Some(cpu) = generator_cpu {
            sys::pin_current_thread(cpu);
        }
        RunEnv {
            out_dir,
            origin: Instant::now(),
            cpus,
            generator_cpu,
            reactor_cpu,
        }
    }
}

/// Where set-up time went.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSplit {
    /// Workload generation (request stream, task lists).
    pub generate_s: f64,
    /// Everything built from the inputs: frames, gateways, WAL images,
    /// the reactor thread.
    pub construct_s: f64,
    /// The fixed-work warm-up pass: one block, discarded (wall time of the
    /// whole call, connection set-up included).
    pub warmup_s: f64,
    /// What the warm-up block itself measured.
    pub warmup: Sample,
}

impl SetupSplit {
    pub fn total(&self) -> f64 {
        self.generate_s + self.construct_s + self.warmup_s
    }

    /// The set-up's time with the interference factors around it taken
    /// out: everything on the CPU by the CPU probe's, the warm-up block's
    /// waiting share by the disk probe's.
    pub fn compensated(&self) -> f64 {
        let block = &self.warmup;
        let block_wall = block.wall_ns as f64 / 1e9;
        let outside_block = (self.total() - block_wall).max(0.0);
        outside_block / block.interference.max(0.1) + block.wall_compensated_ns() / 1e9
    }
}

/// Block timings of one run, reduced.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    pub blocks: usize,
    pub ops_per_block: u64,
    pub attempted: u64,
    pub failed: u64,
    pub within_limit: u64,
    /// Compensated wall µs per op over blocks.
    pub op_us: Quartiles,
    /// Compensated system-under-test CPU µs per op over blocks.
    pub cpu_us: Quartiles,
    /// Wall µs per op over blocks, as measured.
    pub op_us_raw: Quartiles,
    /// Interference factor over blocks.
    pub interference: Quartiles,
    /// Disk interference factor over blocks.
    pub disk_interference: Quartiles,
    /// Generator CPU µs per op, block median.
    pub generator_cpu_us: f64,
    /// 1 − system CPU ÷ wall, over all blocks.
    pub idle_ratio: f64,
}

impl Timing {
    pub fn of(samples: &[Sample]) -> Timing {
        let per_op = |f: fn(&Sample) -> f64| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.ops > 0)
                .map(|s| f(s) / 1e3 / s.ops as f64)
                .collect()
        };
        let sum = |f: fn(&Sample) -> u64| samples.iter().map(f).sum::<u64>();
        let wall = sum(|s| s.wall_ns);
        Timing {
            blocks: samples.len(),
            ops_per_block: samples.first().map_or(0, |s| s.ops),
            attempted: sum(|s| s.ops),
            failed: sum(|s| s.failed),
            within_limit: sum(|s| s.within_limit),
            op_us: Quartiles::of(&per_op(Sample::wall_compensated_ns)),
            cpu_us: Quartiles::of(&per_op(Sample::cpu_compensated_ns)),
            op_us_raw: Quartiles::of(&per_op(|s| s.wall_ns as f64)),
            interference: Quartiles::of(
                &samples.iter().map(|s| s.interference).collect::<Vec<_>>(),
            ),
            disk_interference: Quartiles::of(
                &samples
                    .iter()
                    .map(|s| s.disk_interference)
                    .collect::<Vec<_>>(),
            ),
            generator_cpu_us: median(&per_op(|s| s.generator_cpu_ns as f64)),
            idle_ratio: if wall == 0 {
                0.0
            } else {
                1.0 - sum(|s| s.cpu_ns) as f64 / wall as f64
            },
        }
    }

    pub fn within_limit_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.within_limit as f64 / self.attempted as f64
        }
    }

    pub fn noisy(&self) -> bool {
        self.op_us.iqr_ratio() > NOISY_IQR
    }
}

/// Runs blocks until `seconds` of wall time have passed (at least
/// `min_blocks`, at most `max_blocks`), sampling the interference probe
/// before the first block and after every block; a block's factor is the
/// mean of the two samples around it.
pub fn run_blocks(
    mut block: impl FnMut() -> Sample,
    probers: &mut Probers,
    seconds: f64,
    min_blocks: usize,
    max_blocks: usize,
) -> Vec<Sample> {
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut before = probers.sample();
    while samples.len() < max_blocks
        && (samples.len() < min_blocks || started.elapsed().as_secs_f64() < seconds)
    {
        let mut sample = block();
        let after = probers.sample();
        sample.interference = (before.0 + after.0) / 2.0;
        sample.disk_interference = (before.1 + after.1) / 2.0;
        before = after;
        samples.push(sample);
    }
    samples
}

/// The CPU probe and, for a workload that waits on `fsync`, the disk probe.
pub struct Probers {
    pub cpu: Prober,
    pub disk: Option<DiskProber>,
}

impl Probers {
    /// `(cpu factor, disk factor)`; the disk factor is 1 without a probe.
    pub fn sample(&mut self) -> (f64, f64) {
        (
            self.cpu.sample(),
            self.disk.as_mut().map_or(1.0, DiskProber::sample),
        )
    }
}

/// Times one block outside the workload: wall and process CPU around `f`.
/// For workloads whose system under test runs on the calling thread.
pub fn time_direct<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let cpu = sys::process_cpu_ns();
    let wall = Instant::now();
    let out = f();
    let wall_ns = wall.elapsed().as_nanos() as u64;
    (out, wall_ns, sys::process_cpu_ns() - cpu)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line the contract asks for: one JSON object, last on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Prints metrics as an aligned `name value unit` table.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
}
