//! # rr-bench — benchmark support
//!
//! The benches live in `benches/` (plain `fn main` binaries timed by the
//! in-tree [`harness`] — the build must resolve offline, so Criterion is
//! not available). Both have a committed baseline that `ci.sh` gates:
//!
//! * `micro` (`BENCH_micro.json`) — kernel throughput: event queue,
//!   simulator events, XML codec, RNG, tree queries.
//! * `model` (`BENCH_model.json`) — the distinct-state reduction rr-flow's
//!   ample sets buy on every tree, and the depth a fixed budget reaches.
//!
//! The paper's tables and figures are reproduced by `repro`, and what a user
//! waits for end to end is timed by the `benchmark/` package.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod harness;
