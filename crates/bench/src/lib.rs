//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `table*`/`fig*` binary calls a library function from
//! [`experiments`], prints the paper's values next to the measured ones,
//! and writes a JSON record under `results/`. Run them all with:
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

#![warn(missing_docs)]

pub mod experiments;
pub mod scale;
pub mod tables;

pub use scale::Scale;
