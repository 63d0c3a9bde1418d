//! A slice of the differential suite's deep-book configuration, run with the
//! tier-1 tests: `admit_deep`'s shape (64 nodes, the queue tens of tasks
//! deep) driven through the production engine and the oracle side by side,
//! agreeing after every operation and every queued plan certified. At this
//! width the engine builds the snapshot of a rebased walk from the order the
//! position was planned on, and a dev build holds each such build against a
//! fresh sort. The full run is `differential_deep_book` in `rtdls-core`'s
//! `differential_admission.rs`.

#[allow(dead_code)]
#[path = "../crates/core/tests/differential/mod.rs"]
mod differential;

use differential::{check_workload_stream, deep_params, deep_stream, DEEP_STREAM};
use rtdls_core::prelude::AlgorithmKind;

#[test]
fn a_deep_book_agrees_with_the_oracle() {
    for (seed, algorithm) in [(1, AlgorithmKind::EDF_DLT), (2, AlgorithmKind::FIFO_DLT)] {
        let tasks = deep_stream(seed, DEEP_STREAM);
        if let Err(e) = check_workload_stream(&tasks, algorithm, deep_params()) {
            panic!("deep book, seed {seed}, {algorithm}: {e}");
        }
    }
}
