//! The exhaustive books at their full bound (`books::exhaust(1)`). Ignored
//! by default — a few minutes in a dev build; CI runs it as
//! `cargo test --release -p rtdls-check --test books -- --include-ignored`.
//! The root package's `exhaustive_books.rs` runs a slice in the tier-1
//! tests.

use rtdls_check::books::exhaust;

#[test]
#[ignore = "the full bound: run it --release"]
fn every_small_book_agrees_op_by_op() {
    let tally = exhaust(1).unwrap_or_else(|e| panic!("{e}"));
    eprintln!("{tally:?}");
    assert!(tally.books > 10_000, "{tally:?}");
}
