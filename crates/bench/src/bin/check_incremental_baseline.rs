//! CI regression guard for what the admission engine's reuse cache saves over
//! the reference full replan.
//!
//! Reads the baseline the `incremental_admission` bench just emitted
//! (`target/incremental_admission_baseline.json`) and compares it against
//! the committed reference (`crates/bench/baselines/incremental_admission.json`).
//! Fails (exit 1) when:
//!
//! * the measured full/incremental speedup falls below the committed
//!   `min_speedup` floor (the ISSUE acceptance bar: ≥ 3x at queue depth
//!   256), or
//! * the speedup regressed more than 20% relative to the committed run's
//!   ratio — a machine-independent signal, since both engines are measured
//!   in the same process on the same scenario.
//!
//! Absolute nanosecond numbers from the committed run are reported for
//! context only; they are machine-specific and never gate.
//!
//! Note the speedup *ratio* is itself somewhat machine-dependent (it
//! balances clone/queue-management cost against planning FP cost). The
//! committed baseline is meant to be regenerated on the CI reference
//! machine whenever that machine changes: copy the fresh
//! `target/incremental_admission_baseline.json` numbers over the committed
//! file, keeping `min_speedup` (the acceptance bar) and the tolerance.

use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct Measured {
    queue_depth: usize,
    full_submit_ns: f64,
    incremental_submit_ns: f64,
    speedup: f64,
}

#[derive(Serialize, Deserialize)]
struct Committed {
    queue_depth: usize,
    full_submit_ns: f64,
    incremental_submit_ns: f64,
    speedup: f64,
    /// Hard floor on the measured speedup (acceptance criterion).
    min_speedup: f64,
    /// Allowed relative regression of the speedup vs. the committed run.
    regression_tolerance: f64,
}

fn read<T: Deserialize>(path: &std::path::Path) -> T {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

fn main() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let committed: Committed = read(&manifest.join("baselines/incremental_admission.json"));
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| manifest.join("../../target"));
    let measured_path = target.join("incremental_admission_baseline.json");
    let measured: Measured = read(&measured_path);

    assert_eq!(
        measured.queue_depth, committed.queue_depth,
        "baseline scenario changed; regenerate the committed baseline"
    );
    println!(
        "committed: {:.0} ns full / {:.0} ns incremental ({:.1}x)\n\
         measured:  {:.0} ns full / {:.0} ns incremental ({:.1}x)",
        committed.full_submit_ns,
        committed.incremental_submit_ns,
        committed.speedup,
        measured.full_submit_ns,
        measured.incremental_submit_ns,
        measured.speedup,
    );

    let mut failed = false;
    if measured.speedup < committed.min_speedup {
        eprintln!(
            "FAIL: measured speedup {:.2}x below the {:.1}x floor",
            measured.speedup, committed.min_speedup
        );
        failed = true;
    }
    let floor = committed.speedup * (1.0 - committed.regression_tolerance);
    if measured.speedup < floor {
        eprintln!(
            "FAIL: measured speedup {:.2}x regressed >{:.0}% vs the committed {:.2}x \
             (floor {floor:.2}x)",
            measured.speedup,
            committed.regression_tolerance * 100.0,
            committed.speedup,
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("incremental admission baseline OK");
}
