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
//! The table (`BENCH_alloc.json`) holds one row per operation on a warm
//! gateway, each split by layer: the bare gateway (`service`, the engine's
//! own allocations included), what a write-ahead journal adds to encode the
//! records (`journal`), what an attached telemetry handle adds
//! (`telemetry`), and what an explanation adds to a refusal (`explain`).
//! Dispatched plans come back to the shards as buffers through the turn the
//! driver keeps, so an accepted submit, a dispatching drive and an empty
//! sweep allocate nothing.
//!
//! Allocations are counted by this binary's own global allocator, per
//! thread, and asserted in release builds only: a dev build cross-checks
//! the refusals in hand and the held runs on cloned walks. Run it as
//! `cargo test --release -p rtdls-service --test alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtdls_core::prelude::*;
use rtdls_journal::prelude::{JournalConfig, JournaledGateway};
use rtdls_service::prelude::{
    DeferPolicy, EdgeGateway, Routing, Serve, ShardedGateway, Turn, Verdict,
};
use rtdls_telemetry::Telemetry;
use rtdls_workload::prelude::{IntoRequests, WorkloadGenerator, WorkloadSpec};

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

/// The table's rows: an operation on a warm gateway, and its budget per
/// layer — `service`, `journal`, `telemetry`, `explain` — where the layer
/// has a part in it (`None`: it has none). Each budget is the worst case
/// the stream below measured (`BENCH_alloc.json` holds the table). What is
/// left: every refusal of a request with a reservation tolerance runs the
/// start search on each shard on fresh buffers (a defer, a reservation, a
/// rejection); an SLO breach record (the accepted submit's 4); and with
/// telemetry attached, a breach record carries the span timelines of its
/// tenant's recent tasks, as text.
const TABLE: [(&str, [Option<usize>; 4]); 9] = [
    ("accepted submit", [Some(4), Some(5), Some(2), None]),
    ("defer", [Some(113), Some(0), Some(3), None]),
    ("reject", [Some(48), Some(0), Some(2), None]),
    ("reject, explained", [None, None, None, Some(5)]),
    ("reservation search", [Some(113), Some(0), Some(3), None]),
    ("dispatching drive", [Some(0), None, None, None]),
    ("empty sweep", [Some(0), None, None, None]),
    ("re-testing sweep", [Some(4), None, None, None]),
    ("turn commit", [None, Some(4), Some(1527), None]),
];

const LAYERS: [&str; 4] = ["service", "journal", "telemetry", "explain"];

/// The worst count seen per row and layer.
#[derive(Default)]
struct Table([[Option<usize>; 4]; 9]);

impl Table {
    fn note(&mut self, row: usize, layer: usize, n: usize) {
        let cell = &mut self.0[row][layer];
        *cell = Some(cell.unwrap_or(0).max(n));
    }

    /// Prints the table and holds it to [`TABLE`] (release builds only).
    fn check(&self) {
        let mut over = Vec::new();
        for ((what, budgets), seen) in TABLE.iter().zip(&self.0) {
            for ((layer, budget), seen) in LAYERS.iter().zip(budgets).zip(seen) {
                eprintln!("{what} / {layer}: at most {seen:?} allocations (budget {budget:?})");
                assert_eq!(
                    seen.is_some(),
                    budget.is_some(),
                    "{what} / {layer}: measured"
                );
                if seen > budget {
                    over.push(format!("{what} / {layer}: {seen:?} > {budget:?}"));
                }
            }
        }
        if !cfg!(debug_assertions) {
            assert!(over.is_empty(), "{over:?}");
        }
    }
}

/// The table's stream: `edge_burst`'s shape — 8 shards of 8 nodes, the
/// 8-tenant mix with reservation tolerance, turns of 16 same-instant
/// requests — at a load where every outcome occurs, each turn driven
/// `TURN` after the one before so that plans dispatch and tickets are
/// re-tested in between.
fn table_stream() -> Vec<Vec<SubmitRequest>> {
    let params = ClusterParams::new(64, 1.0, 100.0).expect("valid params");
    let mut spec = WorkloadSpec::paper_baseline(1.5);
    spec.params = params;
    spec.dc_ratio = 20.0;
    spec.horizon = f64::MAX;
    let mix = TenantMix {
        tenants: 8,
        premium_tenants: 1,
        best_effort_tenants: 3,
        max_delay_factor: Some(0.25),
    };
    let requests: Vec<SubmitRequest> = WorkloadGenerator::new(spec, 7)
        .take(1_600)
        .with_tenants(mix)
        .collect();
    requests.chunks(16).map(<[SubmitRequest]>::to_vec).collect()
}

const TURN: f64 = 400.0;

/// Where the stream's second pass starts: after every plan and ticket of
/// the first is gone.
const SECOND: f64 = 1e6;

#[test]
fn the_allocation_table_holds_per_operation_and_layer() {
    let gateway = || {
        ShardedGateway::new(
            ClusterParams::new(64, 1.0, 100.0).expect("valid params"),
            8,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .expect("valid shard count")
    };
    let mut bare = gateway();
    let mut explained = gateway();
    explained.book_mut().enable_explanations(true);
    let mut traced = gateway();
    traced.attach_telemetry(&Telemetry::with_defaults());
    // Snapshots off: the journal layer is the records' encoding.
    let cfg = JournalConfig {
        snapshot_every: 0,
        compact_on_snapshot: false,
    };
    let mut journaled = JournaledGateway::new(gateway(), cfg);
    let mut turns = [Turn::default(), Turn::default(), Turn::default()];
    let mut table = Table::default();
    // The stream twice: the first pass warms every buffer to the depths
    // the stream reaches, the second is measured.
    let stream = table_stream();
    let pass = |start: f64| {
        let at = move |i: usize| SimTime::new(start + i as f64 * TURN);
        let settle = (SimTime::new(start + SECOND - TURN), &[][..]);
        let turns = stream.iter().enumerate().map(move |(i, r)| (at(i), &r[..]));
        turns.chain([settle])
    };
    let schedule = pass(0.0).chain(pass(SECOND)).chain(pass(2.0 * SECOND));
    for (now, requests) in schedule {
        let mut note = |row: usize, layer: usize, n: usize| {
            if now.as_f64() >= 2.0 * SECOND {
                table.note(row, layer, n);
            }
        };
        for request in requests {
            let request = SubmitRequest {
                task: Task {
                    arrival: now,
                    ..request.task
                },
                ..*request
            };
            let (verdict, n) = allocations(|| bare.submit_request(&request, now));
            let (_, with_explanation) = allocations(|| explained.submit_request(&request, now));
            let (_, with_telemetry) = allocations(|| traced.submit_request(&request, now));
            let (journaled_verdict, with_journal) = allocations(|| journaled.decide(&request, now));
            assert_eq!(journaled_verdict, verdict);
            let row = match verdict {
                Verdict::Accepted => 0,
                Verdict::Deferred { .. } => 1,
                Verdict::Rejected { .. } => 2,
                Verdict::Reserved { .. } => 4,
                Verdict::Throttled => continue,
            };
            note(row, 0, n);
            note(row, 1, with_journal.saturating_sub(n));
            note(row, 2, with_telemetry.saturating_sub(n));
            if row != 0 && row != 4 {
                note(3, 3, with_explanation.saturating_sub(n));
            }
        }
        // The bare gateway's turn step by step, as its `drive_into` runs
        // it; the others whole.
        let [turn, traced_turn, journaled_turn] = &mut turns;
        let (parked, retests) = (bare.deferred().len(), bare.metrics().retests);
        let ((), dispatch) = allocations(|| bare.refill_due(now, &mut turn.dispatched));
        let ((), sweep) = allocations(|| bare.retest_deferred(now));
        let ((), rest) = allocations(|| {
            bare.activate_reservations(now);
            bare.drain_resolutions(&mut turn.resolved);
        });
        let ((), with_telemetry) = allocations(|| traced.drive_into(now, traced_turn));
        let ((), with_journal) = allocations(|| journaled.drive_into(now, journaled_turn));
        explained.drive(now);
        assert_eq!(*journaled_turn, *turn);
        if !turn.dispatched.is_empty() {
            note(5, 0, dispatch);
        }
        // A sweep that re-tested nothing and retired nothing, or one that
        // re-tested.
        if bare.metrics().retests > retests {
            note(7, 0, sweep);
        } else if parked > 0 && bare.deferred().len() == parked {
            note(6, 0, sweep);
        }
        let drive = dispatch + sweep + rest;
        note(8, 1, with_journal.saturating_sub(drive));
        note(8, 2, with_telemetry.saturating_sub(drive));
    }
    table.check();
}
