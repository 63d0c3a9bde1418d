//! # rtdls-check
//!
//! The checks, in one place and outside the shipped library: a
//! dev-dependency of the workspace's tests and benches, never a normal
//! dependency of anything (CI asserts that no shipped package's dependency
//! tree contains it).
//!
//! * [`oracle`] — the literal Fig. 2 engine ([`oracle::ReferenceController`])
//!   the production admission engine is held against, the helpers that
//!   build and compare the two, and the heterogeneous model's invariants.
//!   It shares the planning kernel with what it checks.
//! * [`independent`] — what shares nothing with the kernel: the plan
//!   certificate ([`independent::certify`]) and the dense solve of the
//!   equal-finish system it re-derives the partition with.
//! * [`books`] — every small book (2–3 nodes, up to three waiting tasks,
//!   an integer grid) run op by op through both engines, compared after
//!   every op and certified ([`books::exhaust`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod books;
pub mod independent;
pub mod oracle;
