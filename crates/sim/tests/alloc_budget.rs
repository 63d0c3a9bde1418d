//! What one simulated task allocates in `paper_sim`'s shape: the paper's
//! §5 cluster (16 nodes, DCRatio 2) under each of the grid's four
//! algorithms, in strict mode.
//!
//! The simulator keeps one `Turn` and hands it to every drive, and the head
//! node takes each dispatched plan back as a buffer its next admission
//! refills, so a warm step allocates nothing: what is left is the
//! amortized growth of the run's own books (the set of dispatched task ids
//! grows with the stream). This is the `sim` row of the allocation table
//! (`BENCH_alloc.json`).
//!
//! Allocations are counted by this binary's own global allocator, per
//! thread, and asserted in release builds only (a dev build's engine
//! cross-checks on cloned walks). Run it as
//! `cargo test --release -p rtdls-sim --test alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtdls_core::prelude::*;
use rtdls_sim::prelude::{SimConfig, Simulation};
use rtdls_workload::prelude::{WorkloadGenerator, WorkloadSpec};

/// The system allocator, counting the allocations (and reallocations) the
/// calling thread asks for.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed on to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and how many allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_warm_simulated_task_allocates_next_to_nothing() {
    let budget = 0.05;
    for algorithm in [
        AlgorithmKind::EDF_DLT,
        AlgorithmKind::FIFO_DLT,
        AlgorithmKind::EDF_OPR_MN,
        AlgorithmKind::EDF_OPR_AN,
    ] {
        let mut spec = WorkloadSpec::paper_baseline(0.8);
        spec.horizon = 2.0e6;
        let tasks: Vec<Task> = WorkloadGenerator::new(spec, 1).collect();
        let cfg = SimConfig::new(ClusterParams::paper_baseline(), algorithm).strict();
        let mut sim = Simulation::new(cfg);
        sim.prime(tasks.iter().copied());
        // Warm: the first half of the stream.
        let half = SimTime::new(spec.horizon / 2.0);
        while sim.now() < half && sim.step() {}
        let measured = tasks.iter().filter(|t| t.arrival >= sim.now()).count();
        let ((), n) = allocations(|| while sim.step() {});
        let (report, _) = sim.finish();
        assert_eq!(report.metrics.deadline_misses, 0);
        let per_task = n as f64 / measured as f64;
        eprintln!(
            "{algorithm:?}: {n} allocations over {measured} tasks, {per_task:.4} a task \
             (budget {budget})"
        );
        if !cfg!(debug_assertions) {
            assert!(per_task <= budget, "{algorithm:?}: {per_task} > {budget}");
        }
    }
}
