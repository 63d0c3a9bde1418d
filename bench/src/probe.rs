//! The interference probe.
//!
//! On a shared host the same instructions take 1.5–2.5× longer for seconds
//! to minutes at a time (a busy sibling thread, a neighbour thrashing the
//! cache): whole runs land in a slow phase, so no statistic over a run's
//! own blocks — median, lower quartile or minimum — repeats from run to run
//! (measured here: 15–22 % quartile spread of the block p25 across
//! back-to-back 10 s runs of `paper_sim`).
//!
//! The probe is a fixed kernel of the benchmark's own — small vectors,
//! sorting, float recurrences, number formatting and parsing: the
//! instruction mix of planning plus a JSON codec — that calls nothing of the
//! program under test, so no change to the program can move it. It runs for
//! ≈ 10 ms before and after every block on the CPU that does the block's
//! work, and how long it takes against its nominal time is the host's
//! *interference factor* for that block. The harness divides the block's
//! CPU time by that factor; the time a block spent off the CPU is left as
//! measured, except on the workload that waits for `fsync`, where a disk
//! probe ([`DiskProber`]) plays the same part for the waiting share. On the
//! same 100 s of `paper_sim` blocks this took the spread of the block p25
//! over 10 s windows from 22 % to 3.4 %; the raw timings are printed beside
//! the compensated ones in every run.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{Seek, SeekFrom, Write as _};
use std::path::Path;
use std::time::Instant;

use crate::sys;

/// Nanoseconds one [`probe_once`] takes on the reference sandbox when it
/// is quiet. A constant of the benchmark: on another machine every
/// compensated time is scaled by the same factor, which cancels when two
/// versions of the program are compared on that machine.
pub const NOMINAL_NS: f64 = 270_000.0;

/// [`probe_once`] calls per sample (≈ 10 ms).
const ITERS_PER_SAMPLE: u32 = 30;

/// One round of the kernel: deterministic work, returns a value that
/// depends on all of it.
fn probe_once(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    let mut text = String::with_capacity(1024);
    for round in 0..40u64 {
        let mut v: Vec<(f64, u32)> = (0..64u32)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % 100_000) as f64 / 7.0, i)
            })
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut alpha = vec![0.0f64; v.len()];
        let mut sum = 0.0;
        for (a, (r, _)) in alpha.iter_mut().zip(&v) {
            *a = 1.0 / (1.0 + r * 0.01 + sum * 0.5);
            sum += *a;
        }
        text.clear();
        for (a, (r, n)) in alpha.iter().zip(&v).take(16) {
            let _ = write!(text, "{{\"a\":{},\"r\":{r},\"n\":{n}}},", a / sum);
        }
        for field in text.split(',') {
            if let Some(number) = field.strip_prefix("{\"a\":") {
                acc = acc.wrapping_add(number.parse::<f64>().map_or(0, f64::to_bits));
            }
        }
        acc = acc.wrapping_add(round);
    }
    acc
}

/// Samples the interference factor on one CPU.
#[derive(Clone, Copy, Debug)]
pub struct Prober {
    /// The CPU whose interference is sampled (`None`: wherever we are).
    cpu: Option<usize>,
    /// Where the calling thread lives otherwise.
    home: Option<usize>,
}

impl Prober {
    /// A prober for work done on `cpu` by a caller pinned to `home`.
    pub fn new(cpu: Option<usize>, home: Option<usize>) -> Prober {
        Prober { cpu, home }
    }

    /// Runs the kernel once and returns how many times its nominal time it
    /// took: 1.0 on the quiet reference sandbox, 1.5–2.5 in a slow phase.
    pub fn sample(&self) -> f64 {
        let moved = self.cpu != self.home;
        if let (true, Some(cpu)) = (moved, self.cpu) {
            sys::pin_current_thread(cpu);
        }
        let started = Instant::now();
        let mut acc = 0u64;
        for i in 0..ITERS_PER_SAMPLE {
            acc = acc.wrapping_add(probe_once(u64::from(i) + 1));
        }
        std::hint::black_box(acc);
        let ns = started.elapsed().as_nanos() as f64 / f64::from(ITERS_PER_SAMPLE);
        if let (true, Some(home)) = (moved, self.home) {
            sys::pin_current_thread(home);
        }
        ns / NOMINAL_NS
    }
}

/// Microseconds one write-and-sync of [`DiskProber`] takes on the reference
/// sandbox's disk when it is quiet.
pub const DISK_NOMINAL_US: f64 = 230.0;

/// Syncs per disk sample.
const SYNCS_PER_SAMPLE: u32 = 16;

/// Samples how slow the disk under `bench/out/` is right now: a workload
/// that waits for `fsync` shares the device with the host's other tenants,
/// and that wait swings by tens of percent independently of the CPU.
pub struct DiskProber {
    file: File,
}

impl DiskProber {
    /// A prober writing to (and truncating) `path`.
    pub fn create(path: &Path) -> std::io::Result<DiskProber> {
        Ok(DiskProber {
            file: File::create(path)?,
        })
    }

    /// Appends a 4 KiB record and syncs it, a few times; returns the mean
    /// latency over its nominal value.
    pub fn sample(&mut self) -> f64 {
        let record = [0x5au8; 4096];
        let started = Instant::now();
        for _ in 0..SYNCS_PER_SAMPLE {
            if self.file.write_all(&record).is_err() || self.file.sync_data().is_err() {
                return 1.0;
            }
        }
        let us = started.elapsed().as_nanos() as f64 / 1e3 / f64::from(SYNCS_PER_SAMPLE);
        let _ = self.file.set_len(0);
        let _ = self.file.seek(SeekFrom::Start(0));
        us / DISK_NOMINAL_US
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic() {
        assert_eq!(probe_once(7), probe_once(7));
        assert_ne!(probe_once(7), probe_once(8));
    }
}
