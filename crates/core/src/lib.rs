//! # rr-core — recursive restartability
//!
//! A library implementation of the concepts in *Reducing Recovery Time in a
//! Small Recursively Restartable System* (Candea, Cutler, Fox, Doshi, Garg,
//! Gowda — DSN 2002): restart trees, restart groups, oracles, recoverers,
//! restart policies, the MTTF/MTTR algebra, and the tree transformations that
//! reduce a system's mean time to recover.
//!
//! ## Concepts
//!
//! * [`tree::RestartTree`] — a hierarchy of *restart cells*; pushing a cell's
//!   button restarts every component in its subtree. Subtrees are *restart
//!   groups* (§3.1–3.2).
//! * [`transform`] — the paper's tree transformations: depth augmentation,
//!   component splitting, group consolidation and node promotion (§4), plus
//!   their inverses.
//! * [`oracle`] — the restart policy: perfect, naive, faulty (§4.4) and
//!   learning (§7 future work) oracles.
//! * [`recoverer::Recoverer`] — turns failure reports into restart decisions,
//!   tracking escalation and applying a [`policy::RestartPolicy`] so hard
//!   failures are not restarted forever.
//! * [`model::FailureModel`] — which failures occur, how often, what cures
//!   them (the `f_ci` values of §4).
//! * [`deadline::DeadlineModel`] — per-component pass deadlines and
//!   criticalities; batch recovery plans are issued most-urgent first.
//! * [`analysis`] — availability and expected-MTTR computation under a
//!   pluggable [`analysis::CostModel`].
//! * [`optimize`] — automatic restart-tree search (§7 future work): hill
//!   climbing over the transformation moves re-derives the paper's trees.
//! * [`render`] — ASCII tree rendering (the reproduction of Figures 2–6).
//!
//! ## Example
//!
//! ```
//! use rr_core::oracle::{Failure, PerfectOracle};
//! use rr_core::policy::RestartPolicy;
//! use rr_core::recoverer::{Recoverer, RecoveryDecision};
//! use rr_core::tree::TreeSpec;
//! use rr_sim::SimTime;
//!
//! let tree = TreeSpec::cell("system")
//!     .with_child(TreeSpec::cell("R_a").with_component("a"))
//!     .with_child(TreeSpec::cell("R_b").with_component("b"))
//!     .build()?;
//! let mut rec = Recoverer::new(tree, PerfectOracle::new(), RestartPolicy::new());
//! match rec.on_failure(Failure::solo("a"), SimTime::from_secs(5)) {
//!     RecoveryDecision::Restart { components, .. } => assert_eq!(components, vec!["a"]),
//!     other => panic!("unexpected: {other:?}"),
//! }
//! # Ok::<(), rr_core::TreeError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod advisor;
pub mod analysis;
pub mod deadline;
pub mod enumerate;
pub mod error;
pub mod model;
pub mod optimize;
pub mod oracle;
pub mod policy;
pub mod recoverer;
pub mod render;
pub mod schedule;
pub mod transform;
pub mod tree;

pub use advisor::{advise, Advice, OracleAssumption};
pub use analysis::{availability, CostModel, OracleQuality, SimpleCostModel};
pub use deadline::{DeadlineModel, Urgency};
pub use error::{AnalysisError, ModelError, TreeError};
pub use model::{FailureMode, FailureModel};
pub use oracle::{Failure, FaultyOracle, LearningOracle, NaiveOracle, Oracle, PerfectOracle};
pub use policy::{GiveUpReason, RecoveryMode, RestartPolicy};
pub use recoverer::{DecisionTally, EpisodeView, Recoverer, RecoveryDecision};
pub use schedule::{
    is_antichain, plan_episodes, EpisodePlan, PlanStats, PlannedEpisode, Suspicion,
};
pub use tree::{NodeId, RestartTree, TreeSpec};
