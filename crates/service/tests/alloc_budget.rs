//! What explaining one refusal, routing one refusal and re-testing one
//! deferred request allocate on a warm fleet.
//!
//! A gateway explains a refusal on the walks it keeps, one set per shard,
//! opened on the refusals `submit` has just handed out, so a warm
//! explanation allocates for the race's list of searches and the winner's
//! reservation search — not per shard, not per probe. The fleet is
//! `admission_micro`'s `explain_fleet` burst: 8 shards × 8 nodes after one
//! same-instant burst of twice what they can start at once.
//!
//! An explanation is what a refused submission allocates with explanations
//! on beyond what the same submission allocates with them off, on two
//! gateways built alike. Routing lays its order out in a buffer the gateway
//! keeps, so neither an unexplained refusal nor a defer re-test allocates
//! for it: what is left is the shards' own refusals. A re-test is what a
//! sweep re-testing the oldest ticket allocates beyond the same sweep
//! re-testing none, on two gateways built alike.
//!
//! Allocations are counted by this binary's own global allocator, per
//! thread, and asserted in release builds only: a dev build cross-checks
//! the refusals in hand and the held runs on cloned walks. Run it as
//! `cargo test --release -p rtdls-service --test alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtdls_core::prelude::*;
use rtdls_service::prelude::{DeferPolicy, EdgeGateway, Routing, ShardedGateway};
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

/// The burst fleet with explanations on, and the refusals of the burst.
fn burst_fleet(now: SimTime) -> (ShardedGateway, Vec<SubmitRequest>) {
    burst_fleet_under(now, DeferPolicy::default())
}

/// [`burst_fleet`] parking its deferred requests under `defer`.
fn burst_fleet_under(now: SimTime, defer: DeferPolicy) -> (ShardedGateway, Vec<SubmitRequest>) {
    let params = ClusterParams::new(64, 1.0, 100.0).expect("valid params");
    let mut gateway = ShardedGateway::new(
        params,
        8,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        defer,
    )
    .expect("valid shard count");
    gateway.book_mut().enable_explanations(true);
    let mut spec = WorkloadSpec::paper_baseline(1.0);
    spec.params = params;
    spec.dc_ratio = 20.0;
    spec.horizon = f64::MAX;
    let mut refused = Vec::new();
    for mut task in WorkloadGenerator::new(spec, 3).take(64) {
        task.arrival = now;
        let request = SubmitRequest::new(task);
        let verdict = gateway.submit_request(&request, now);
        if !verdict.is_accepted() {
            assert!(verdict.explanation().is_some(), "{verdict:?}");
            refused.push(request);
        }
    }
    (gateway, refused)
}

#[test]
fn a_warm_fleet_explanation_allocates_per_explanation_not_per_probe() {
    let now = SimTime::new(1_000.0);
    let (mut explained, refused) = burst_fleet(now);
    let (mut unexplained, _) = burst_fleet(now);
    unexplained.book_mut().enable_explanations(false);
    assert!(refused.len() >= 10, "refused: {}", refused.len());
    let mut worst = 0;
    for (i, request) in refused.iter().enumerate() {
        // The same refusal again, under a fresh id: nothing remembered.
        let again = SubmitRequest::new(Task {
            id: TaskId(10_000 + i as u64),
            ..request.task
        });
        let (bare, without) = allocations(|| unexplained.submit_request(&again, now));
        let (verdict, with) = allocations(|| explained.submit_request(&again, now));
        assert_eq!(verdict, bare.with_explanation(verdict.explanation()));
        assert!(verdict.explanation().is_some(), "{verdict:?}");
        eprintln!(
            "refusal {i}: {without} allocations unexplained, {with} explained: {} explaining",
            with - without
        );
        worst = worst.max(with - without);
    }
    let budget = 8;
    eprintln!("a fleet explanation: at most {worst} allocations (budget {budget})");
    if !cfg!(debug_assertions) {
        assert!(worst <= budget, "{worst} > {budget}");
    }
}

#[test]
fn a_warm_fleet_routes_a_refusal_and_a_retest_without_allocating() {
    let now = SimTime::new(1_000.0);
    let (mut fleet, refused) = burst_fleet(now);
    fleet.book_mut().enable_explanations(false);
    let mut worst_refusal = 0;
    for (i, request) in refused.iter().enumerate() {
        let again = SubmitRequest::new(Task {
            id: TaskId(10_000 + i as u64),
            ..request.task
        });
        let (verdict, n) = allocations(|| fleet.submit_request(&again, now));
        assert!(!verdict.is_accepted(), "{verdict:?}");
        eprintln!("refusal {i}: {n} allocations");
        worst_refusal = worst_refusal.max(n);
    }
    // One re-test: the oldest ticket's, beyond a sweep that re-tests none,
    // until a re-test rescues it (the two queues then differ).
    let at_most = |retest_budget| DeferPolicy {
        retest_budget,
        ..DeferPolicy::default()
    };
    let (mut one, _) = burst_fleet_under(now, at_most(1));
    let (mut none, _) = burst_fleet_under(now, at_most(0));
    assert!(
        one.deferred().len() >= 10,
        "parked: {}",
        one.deferred().len()
    );
    let mut worst_retest = 0;
    let mut retests = 0;
    for step in 1..=40 {
        let later = now + SimTime::new(step as f64);
        let ((), with) = allocations(|| one.retest_deferred(later));
        let ((), without) = allocations(|| none.retest_deferred(later));
        assert_eq!((one.metrics().retests, none.metrics().retests), (step, 0));
        if one.deferred().len() != none.deferred().len() {
            break;
        }
        eprintln!("re-test at {later:?}: {with} allocations, {without} without it");
        worst_retest = worst_retest.max(with.saturating_sub(without));
        retests += 1;
    }
    assert!(retests >= 10, "re-tests measured: {retests}");
    // The shards' own refusals: read 0–5 a refusal and 0–1 a re-test; with
    // the routing order built in two fresh vectors, 2–7 and 2–3.
    let (refusal_budget, retest_budget) = (5, 1);
    eprintln!(
        "at most {worst_refusal} allocations a refusal (budget {refusal_budget}), \
         {worst_retest} a re-test (budget {retest_budget})"
    );
    if !cfg!(debug_assertions) {
        assert!(
            worst_refusal <= refusal_budget,
            "{worst_refusal} > {refusal_budget}"
        );
        assert!(
            worst_retest <= retest_budget,
            "{worst_retest} > {retest_budget}"
        );
    }
}
