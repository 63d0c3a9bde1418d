//! The few OS facts the harness needs: CPU clocks per thread and per
//! process, thread-to-CPU pinning, peak resident memory, and the name of
//! the filesystem under a path.
//!
//! Declared directly over `extern "C"`, as `rtdls::edge::poll` does for
//! epoll: the container has no `libc` crate.

use std::os::raw::{c_int, c_long};
use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

fn cpu_clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is writable and its byte length is passed alongside.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Pins the calling thread to `cpu`. Best effort: a refusal leaves the
/// thread where it was and returns `false`.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is readable and its byte length is passed alongside;
    // pid 0 addresses the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// `VmHWM` of this process in MiB: the most memory it ever held resident.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mounts` (`"unknown"` when that cannot be read).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}
