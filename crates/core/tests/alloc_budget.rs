//! What one decision allocates on a deep book.
//!
//! A pass plans its replacement tail into one arena the engine keeps from
//! pass to pass, and `install` writes that tail over the queue's own plans
//! where they lie, so a warm engine allocates for the position the queue
//! grows by and for a plan buffer too small for its new plan — not per
//! re-planned position. The book is the repository benchmark's `admit_deep`
//! shape: one 64-node shard, 46 tasks waiting behind staggered committed
//! work.
//!
//! Allocations are counted by this binary's own global allocator, per
//! thread, and asserted in release builds only: a dev build's cross-check of
//! the prefix lemma clones its walk on purpose. Run it as
//! `cargo test --release -p rtdls-core --test alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtdls_core::prelude::*;

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

/// Holds a count to its budget where it is meaningful (see the module docs).
fn within(what: &str, allocations: usize, budget: usize) {
    eprintln!("{what}: {allocations} allocations (budget {budget})");
    if !cfg!(debug_assertions) {
        assert!(allocations <= budget, "{what}: {allocations} > {budget}");
    }
}

const DEEP: usize = 46;

/// `admission_micro`'s deep book: every task admitted with 15 % more
/// deadline than the shortest the book would still take, so plans spread
/// over 4–15 nodes.
fn deep_book() -> AdmissionController {
    let params = ClusterParams::new(64, 1.0, 100.0).expect("valid params");
    let mut ctl = AdmissionController::new(params, AlgorithmKind::EDF_DLT, PlanConfig::default());
    for node in 0..64 {
        ctl.set_node_release(node, SimTime::new(2_000.0 + 150.0 * node as f64));
    }
    let mut shortest = 0.0f64;
    let mut i = 0u64;
    while ctl.queue_len() < DEEP {
        let sigma = 150.0 + (i % 7) as f64 * 40.0;
        let mut d = shortest.max(2_000.0 + homogeneous::exec_time(&params, sigma, 64));
        while !ctl
            .probe(&Task::new(i, 0.0, sigma, d), SimTime::ZERO)
            .is_accepted()
        {
            d *= 1.02;
        }
        shortest = d;
        let _ = ctl.submit(Task::new(i, 0.0, sigma, d * 1.15), SimTime::ZERO);
        i += 1;
    }
    ctl
}

/// A small task that sorts just ahead of waiting position `at` and is
/// admitted, and how many positions admitting it plans fresh.
fn sliver(ctl: &AdmissionController, id: u64, sigma: f64, at: usize) -> (Task, u64) {
    let deadline = ctl.queue()[at].0.absolute_deadline().as_f64() - 1.0;
    let task = Task::new(id, 0.0, sigma, deadline);
    let mut trial = ctl.clone();
    let before = trial.profile().plans_computed;
    assert!(trial.submit(task, SimTime::ZERO).is_accepted(), "{task:?}");
    (task, trial.profile().plans_computed - before)
}

#[test]
fn an_accepted_deep_submit_allocates_per_decision_not_per_position() {
    let mut ctl = deep_book();
    // Warm: the engine's pass state has planned a deep tail once, and every
    // plan behind the insertion point has been re-planned in place.
    let (warm, _) = sliver(&ctl, 1_000, 20.0, 5);
    assert!(ctl.submit(warm, SimTime::ZERO).is_accepted());
    assert_eq!(ctl.remove_waiting(warm.id), Some(warm));
    for (id, sigma, at) in [(1_001, 10.0, 10), (1_002, 20.0, 20), (1_003, 5.0, 28)] {
        let (task, fresh) = sliver(&ctl, id, sigma, at);
        assert!(fresh >= 18, "{fresh} positions re-planned");
        let (decision, n) = allocations(|| ctl.submit(task, SimTime::ZERO));
        assert!(decision.is_accepted());
        within(&format!("accepted, {fresh} planned fresh"), n, 16);
        assert_eq!(ctl.remove_waiting(task.id), Some(task));
    }
}

#[test]
fn a_refused_submit_allocates_next_to_nothing_and_touches_nothing() {
    let mut ctl = deep_book();
    let mid = ctl.queue()[DEEP / 2].0.absolute_deadline().as_f64();
    let refused = |id: u64| Task::new(id, 0.0, 200.0, mid);
    // Warm: the refusal ring is full, so every new refusal takes over a slot.
    for id in 0..10 {
        assert!(!ctl
            .submit(refused(10_000 + id), SimTime::ZERO)
            .is_accepted());
    }
    // `state()` in JSON: every float in round-trip form, so equal text is
    // equal bits. (The engine's private cache is held bit for bit by
    // `incremental.rs`'s `a_refusal_is_remembered_while_its_neighbourhood_stands`.)
    let state = serde_json::to_string(&ctl.state()).expect("encodes");
    for id in 10..13 {
        let (decision, n) = allocations(|| ctl.submit(refused(10_000 + id), SimTime::ZERO));
        assert!(!decision.is_accepted());
        within("refused", n, 8);
    }
    assert_eq!(serde_json::to_string(&ctl.state()).expect("encodes"), state);
}
