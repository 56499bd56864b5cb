//! # recursive-restartability
//!
//! Umbrella crate for the reproduction of *Reducing Recovery Time in a Small
//! Recursively Restartable System* (Candea, Cutler, Fox, Doshi, Garg, Gowda —
//! DSN 2002). Re-exports the workspace crates:
//!
//! * [`rr_core`] — restart trees, transformations, oracles, recoverer,
//!   policies, MTTF/MTTR analysis, the automatic tree optimizer.
//! * [`rr_sim`] — the deterministic discrete-event simulation kernel.
//! * [`mercury_msg`] — the XML command language.
//! * [`mercury`] — the simulated Mercury ground station (components, FD,
//!   REC, orbit model, fault injection, measurement).
//! * [`rr_harness`] — the experiment harness regenerating every table and
//!   figure of the paper.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the paper-vs-measured record. The runnable
//! examples live in `examples/`:
//!
//! ```text
//! cargo run --example quickstart
//! cargo run --example tree_evolution
//! cargo run --example ground_station --release
//! cargo run --example faulty_oracle --release
//! cargo run --example learning_oracle --release
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub use mercury;
pub use mercury_msg;
pub use rr_core;
pub use rr_harness;
pub use rr_sim;
