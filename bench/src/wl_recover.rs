//! `recover`: the journal's read side.
//!
//! Set-up journals one fixed mixed stream (accepts, reservations, defers,
//! rejections, dispatches, re-tests, activations) into two WAL images: an
//! *uncompacted* one — genesis snapshot plus the whole history as a long
//! tail — and a *compacted* one — the last periodic snapshot plus a short
//! tail. A block is one `recover_file_with_policy` of each: frame decode,
//! snapshot restore, input replay through the gateway's ordinary paths,
//! strict re-admission, and the atomic rewrite of the log. This is the
//! counterpart of `edge_durable`, which exercises the write side.

use std::path::PathBuf;
use std::time::Instant;

use rtdls::core::prelude::SimTime;
use rtdls::journal::prelude::{
    recover_file_with_policy, replay, FsyncPolicy, JournalConfig, JournaledGateway, RecoveryReport,
};
use rtdls::service::prelude::{MetricsSnapshot, ShardedGateway};

use crate::harness::{Checks, RunEnv, Sample, SetupSplit, Workload};
use crate::inputs::{serving_gateway, serving_requests, tenant_mix, Script};
use crate::stack::{run_gateway, PassOpts};
use crate::sys;
use crate::trace::Recorder;
use crate::wl_edge::SHARDS;

/// Requests journaled into each image.
pub const REQUESTS: usize = 12_000;
/// One recovery slower than this misses its limit.
pub const LIMIT_NS: u64 = 1_000_000_000;
/// How long after the last journaled arrival the recovery happens, in
/// simulated seconds: long enough that the strict re-admission pass finds
/// plans the clock has overtaken.
pub const DOWNTIME: f64 = 9_000.0;

/// One WAL image and what recovering it must report.
pub struct Image {
    pub name: &'static str,
    pub path: PathBuf,
    pub bytes: Vec<u8>,
    /// The first recovery's report; every later one must equal it.
    pub report: Option<RecoveryReport>,
}

pub struct RecoverWorkload {
    /// The journaled stream (the ladder replays it through bare stacks).
    pub script: Script,
    pub images: [Image; 2],
    work: PathBuf,
    /// The instant every recovery re-admits at.
    pub recover_at: SimTime,
    /// The live gateway's books when journaling stopped.
    live: MetricsSnapshot,
    mismatched_blocks: u64,
    fs: String,
}

/// Journals `script` through a fresh gateway under `cfg` and returns the
/// log bytes and the live gateway's final books.
fn journal_image(script: &Script, cfg: JournalConfig) -> (Vec<u8>, MetricsSnapshot) {
    let mut gateway = JournaledGateway::new(serving_gateway(SHARDS), cfg);
    run_gateway(
        &mut gateway,
        script,
        &mut Recorder::disabled(),
        PassOpts::default(),
    );
    (
        gateway.journal().bytes().to_vec(),
        gateway.metrics().snapshot(),
    )
}

impl RecoverWorkload {
    pub fn setup(seed: u64, env: &RunEnv) -> (Self, SetupSplit) {
        let started = Instant::now();
        let mix = tenant_mix().with_max_delay_factor(0.5);
        let requests = serving_requests(seed, REQUESTS, 20.0, 1.2, mix);
        let generate_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let recover_at = SimTime::new(
            requests
                .last()
                .expect("non-empty stream")
                .task
                .arrival
                .as_f64()
                + DOWNTIME,
        );
        let script = Script::per_arrival(requests);
        let uncompacted = JournalConfig {
            snapshot_every: 0,
            compact_on_snapshot: false,
        };
        let (tail_bytes, live) = journal_image(&script, uncompacted);
        let (snap_bytes, _) = journal_image(&script, JournalConfig::default());
        let image = |name: &'static str, bytes: Vec<u8>| {
            let path = env.out_dir.join(format!("recover-{name}-{seed}.img"));
            std::fs::write(&path, &bytes).expect("bench/out is writable");
            Image {
                name,
                path,
                bytes,
                report: None,
            }
        };
        let workload = RecoverWorkload {
            script,
            images: [image("tail", tail_bytes), image("snapshot", snap_bytes)],
            work: env.out_dir.join(format!("recover-work-{seed}.wal")),
            recover_at,
            live,
            mismatched_blocks: 0,
            fs: sys::filesystem_of(&env.out_dir),
        };
        (
            workload,
            SetupSplit {
                generate_s,
                construct_s: started.elapsed().as_secs_f64(),
                ..SetupSplit::default()
            },
        )
    }

    /// One recovery of image `i` from a fresh copy: `(report, wall, cpu)`.
    fn recover_one(&mut self, i: usize) -> (RecoveryReport, u64, u64) {
        // Recovery rewrites the file it reads, so each one gets its own copy.
        std::fs::copy(&self.images[i].path, &self.work).expect("image copies into bench/out");
        let cpu = sys::process_cpu_ns();
        let wall = Instant::now();
        let (gateway, report) = recover_file_with_policy::<ShardedGateway>(
            &self.work,
            self.recover_at,
            JournalConfig::default(),
            FsyncPolicy::EveryAppend,
        )
        .unwrap_or_else(|e| panic!("recovering the {} image failed: {e}", self.images[i].name));
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let cpu_ns = sys::process_cpu_ns() - cpu;
        drop(gateway);
        let image = &mut self.images[i];
        if *image.report.get_or_insert_with(|| report.clone()) != report {
            self.mismatched_blocks += 1;
        }
        (report, wall_ns, cpu_ns)
    }
}

impl Workload for RecoverWorkload {
    fn block(&mut self) -> Sample {
        let mut sample = Sample::default();
        for i in 0..self.images.len() {
            let (report, wall_ns, cpu_ns) = self.recover_one(i);
            let events = report.events_replayed as u64;
            sample.wall_ns += wall_ns;
            sample.cpu_ns += cpu_ns;
            sample.ops += events;
            if wall_ns <= LIMIT_NS && report.tail.is_clean() {
                sample.within_limit += events;
            }
            if !report.tail.is_clean() {
                sample.failed += events;
            }
        }
        sample
    }

    fn header(&self) -> Vec<(&'static str, String)> {
        vec![
            ("journaled_requests", REQUESTS.to_string()),
            ("tail_image_bytes", self.images[0].bytes.len().to_string()),
            (
                "snapshot_image_bytes",
                self.images[1].bytes.len().to_string(),
            ),
            ("image_fs", self.fs.clone()),
            ("recovery_limit_s", (LIMIT_NS as f64 / 1e9).to_string()),
        ]
    }

    fn verify(&mut self, checks: &mut Checks) {
        checks.equal("recover.blocks_repeat_exactly", self.mismatched_blocks, 0);
        // Replay alone (no re-admission) must land in the live gateway's
        // exact books, from either image.
        let counts = |m: &MetricsSnapshot| {
            [
                m.submitted,
                m.accepted_immediate,
                m.reserved,
                m.deferred,
                m.rejected_immediate,
                m.rescued,
                m.reservations_activated,
                m.reservation_misses,
                m.defer_expired,
                m.retests,
            ]
        };
        for image in &self.images {
            match replay::<ShardedGateway>(&image.bytes) {
                Ok((gateway, report)) => {
                    checks.equal(
                        &format!("recover.{}_replays_live_books", image.name),
                        counts(&gateway.metrics().snapshot()),
                        counts(&self.live),
                    );
                    checks.check(
                        &format!("recover.{}_tail_clean", image.name),
                        report.tail.is_clean(),
                        format!("{:?}", report.tail),
                    );
                }
                Err(e) => checks.check(
                    &format!("recover.{}_replays_live_books", image.name),
                    false,
                    e.to_string(),
                ),
            }
        }
        let events = |i: usize| {
            self.images[i]
                .report
                .as_ref()
                .map_or(0, |r| r.events_replayed)
        };
        checks.check(
            "regime.long_tail_vs_short_tail",
            events(0) >= 10 * events(1).max(1) && events(1) > 0,
            format!(
                "tail image replays {} events, snapshot image {}",
                events(0),
                events(1)
            ),
        );
        // Both images describe the same history: the strict pass demotes
        // the same tasks whichever one is recovered.
        let demoted = |i: usize| self.images[i].report.as_ref().map(|r| r.demoted.clone());
        checks.check(
            "recover.images_agree_on_demotions",
            demoted(0) == demoted(1),
            format!(
                "{} vs {} demoted",
                demoted(0).map_or(0, |d| d.len()),
                demoted(1).map_or(0, |d| d.len())
            ),
        );
    }

    fn fingerprint(&self) -> Vec<u64> {
        self.images
            .iter()
            .flat_map(|image| {
                let r = image.report.as_ref();
                [
                    r.map_or(0, |r| r.events_replayed as u64),
                    r.map_or(0, |r| r.audit_records as u64),
                    r.map_or(0, |r| r.demoted.len() as u64),
                ]
            })
            .collect()
    }
}

impl Drop for RecoverWorkload {
    fn drop(&mut self) {
        for image in &self.images {
            let _ = std::fs::remove_file(&image.path);
        }
        let _ = std::fs::remove_file(&self.work);
    }
}
