//! # rr-harness — the experiment harness
//!
//! Regenerates every table and figure of *Reducing Recovery Time in a Small
//! Recursively Restartable System* (DSN 2002) against the simulated Mercury
//! ground station.
//! [`experiments::EXPERIMENTS`] is the one list of them — the paper's Tables
//! 1, 2 and 4, Table 3 with Figures 2–6, the "factor of four" headline, the
//! §5.2 pass, the §2.2/§4.4/§7 ablations, and the beyond-the-paper campaigns
//! (correlated faults, endurance, chaos, overload, checkpoint, por, abs);
//! each function's own doc names the artifact it regenerates. Every one of
//! them builds, warms, injects, runs and measures its stations through
//! [`trial::Trial`].
//!
//! The `repro` binary drives the suite, and `rr-audit` the four audits
//! (`lint`, `model`, `flow`, `abs`):
//!
//! ```text
//! repro all --trials 100 --report EXPERIMENTS.md
//! repro table4 --trials 20
//! rr-audit model tests/model-fixtures/clean.scenario
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod abs;
pub mod chaos;
pub mod checkpoint;
pub mod experiments;
pub mod flow;
pub mod golden;
pub mod overload;
mod par;
pub mod report;
pub mod tables;
pub mod trial;

pub use abs::{abs_params, certify_decisions, decision_table_json, parse_abs_fixture};
pub use chaos::{ChaosConfig, ChaosReport};
pub use checkpoint::{CheckpointConfig, CheckpointReport};
pub use experiments::{Experiment, RunConfig};
pub use overload::{OverloadConfig, OverloadLoad, OverloadReport};
pub use trial::{OracleKind, Trial};
