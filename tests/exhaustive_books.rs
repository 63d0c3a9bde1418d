//! A slice of the exhaustive small books (`rtdls_check::books`): one book
//! in 11 of every book on 2–3 nodes with up to three waiting tasks, each
//! run op by op through the production engine and its oracle, compared
//! after every op, every installed plan certified. CI runs the full bound
//! in release (`rtdls-check`'s `books` test).

use rtdls_check::books::exhaust;

#[test]
fn a_slice_of_the_small_books_agrees_op_by_op() {
    let tally = exhaust(11).unwrap_or_else(|e| panic!("{e}"));
    eprintln!("{tally:?}");
    assert!(tally.books > 100 && tally.certified > 0, "{tally:?}");
}
