//! # rr-lint — static verification of the configuration surface
//!
//! The paper's tree transformations and its MTTF/MTTR algebra
//! (`MTTF_G ≤ min MTTF_ci`, `MTTR_G ≥ max MTTR_ci`, §3–4) define invariants
//! that every restart tree, restart policy, failure model, recovery schedule
//! and fault script must satisfy. Violating them used to surface *dynamically*
//! — deep inside a simulation, as a wedged episode or a nonsense availability
//! figure. This crate rejects ill-formed configurations **before anything
//! runs**, with compiler-quality diagnostics: a stable code, a deny/warn
//! severity, a span-like path into the offending node, and a fix hint.
//!
//! ## Entry points
//!
//! | function | surface checked |
//! |---|---|
//! | [`lint_tree`] / [`lint_tree_spec`] | restart-tree well-formedness |
//! | [`lint_policy`] | restart-policy soundness (escalation, backoff, storm budget) |
//! | [`lint_model`] | failure-model ↔ tree completeness |
//! | [`lint_suspicions`] | oracle suspicion→cell map validity |
//! | [`lint_algebra`] | annotated-group MTTF/MTTR against the paper's inequalities |
//! | [`lint_plan`] | episode-plan antichain preconditions |
//! | [`lint_fault_script`] | fault-script sanity (targets, order, observability) |
//! | [`lint_fd`] | failure-detector timing feasibility |
//! | [`lint_abs`] | profitability-certification (rr-abs) decision tables |
//!
//! Three families are checked by the crate that owns their input, which
//! reads its own type and emits this crate's [`Diagnostic`]s:
//! `RRL7xx` (model-checker exploration bounds) and `RRL95x` (the rr-flow
//! dependence table) by `rr_model::lint_model_bounds` and
//! `rr_model::lint_flow`; `RRL8xx` (deadline/admission) and `RRL90x`
//! (checkpoint/rehydrate) by mercury's `StationConfig::lint`, which also
//! runs the tree, FD and policy lints above.
//!
//! Each returns a [`Report`]; reports merge, render human-readable text
//! ([`Report::to_human`]) or JSON ([`Report::to_json`]), and gate execution
//! via [`Report::has_deny`]. The full diagnostic catalog (code → meaning,
//! severity, hint) is [`catalog::CATALOG`].
//!
//! ## Example
//!
//! ```
//! use rr_core::tree::TreeSpec;
//!
//! // An empty leaf cell: its restart button restarts nothing.
//! let tree = TreeSpec::cell("root")
//!     .with_child(TreeSpec::cell("R_a").with_component("a"))
//!     .with_child(TreeSpec::cell("R_ghost"))
//!     .build()?;
//! let report = rr_lint::lint_tree(&tree);
//! assert_eq!(report.codes(), vec!["RRL003"]);
//! assert!(!report.has_deny(), "an empty leaf is a warning, not a deny");
//! # Ok::<(), rr_core::TreeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod abs;
pub mod algebra;
pub mod catalog;
pub mod diag;
pub mod fd;
pub mod model;
pub mod policy;
pub mod schedule;
pub mod script;
pub mod tree;

pub use abs::{lint_abs, AbsDecision, AbsParams};
pub use algebra::{lint_algebra, GroupClaim, MemberStat};
pub use catalog::CodeInfo;
pub use diag::{Diagnostic, Report, Severity};
pub use fd::{lint_fd, FdParams};
pub use model::{lint_model, lint_suspicions};
pub use policy::{lint_policy, PolicyParams};
pub use schedule::lint_plan;
pub use script::{lint_fault_script, ScriptContext};
pub use tree::{cell_path, lint_tree, lint_tree_spec};
