//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `table*`/`fig*` binary calls a library function from
//! [`experiments`], prints the paper's values next to the measured ones,
//! and writes a JSON record under `results/` (see [`tables::save_json`]).
//! Run them all with:
//!
//! ```text
//! cargo run --release -p catdet-bench --bin table1
//! cargo run --release -p catdet-bench --bin table2
//! ...
//! cargo run --release -p catdet-bench --bin fig7
//! ```
//!
//! Scale: experiments default to the full KITTI-like dataset (21 sequences
//! × 381 frames, matching the benchmark's 8 008 frames). Set
//! `CATDET_QUICK=1` to run ~8x smaller versions while iterating.
//!
//! The records are written by [`json`]: pretty, with a two-space indent;
//! a row is an object of its fields in declaration order; a float always
//! carries a `.` (`2.0`), an `f32` widened to `f64` first (`0.01f32` is
//! `0.009999999776482582`); `None` is `null`; `Vec`s and tuples are arrays
//! (`[]` when empty); strings escape `"`, `\` and control characters. A
//! non-finite float has no JSON form: the binary warns and writes no file.

#![warn(missing_docs)]

pub mod experiments;
pub mod json;
pub mod scale;
pub mod tables;

pub use scale::Scale;
