//! # rr-model — bounded model checking for the recovery protocol
//!
//! `rr-lint` (see `crates/lint`) verifies *static* configurations; this crate
//! verifies the *dynamic* protocol. It extracts the recovery pipeline as an
//! explicit state machine — pending faults, FD suspicion state, the episode
//! plan queue with its antichain and LCA merges, per-cell restart status and
//! quarantine bookkeeping — and exhaustively explores **every interleaving**
//! of the protocol's atomic steps up to a configurable depth:
//!
//! * fault arrival ([`Action::Inject`]),
//! * suspicion firing, alone or as a correlated batch ([`Action::Suspect`],
//!   [`Action::SuspectBatch`] — the latter drives the parallel planner's
//!   merge logic),
//! * restart completion, cold or via verified checkpoint replay
//!   ([`Action::Complete`], [`Action::CompleteRehydrated`] — the latter
//!   enabled when the scenario declares `rehydrate`, so the crash-safe
//!   store's fast path interleaves with everything else),
//! * cure confirmation ([`Action::Confirm`]),
//! * ping-epoch rollover ([`Action::Rollover`], which re-arms detection and
//!   drives escalation),
//! * admission-controller deferral and drain ([`Action::Defer`],
//!   [`Action::Admit`] — enabled when the scenario declares `admission`, so
//!   load shedding interleaves with planning and merges).
//!
//! Crucially the machine drives the **real** [`rr_core::Recoverer`] — not a
//! re-implementation — so what is checked is the shipped planner/merge/policy
//! code. Exploration is iterative-deepening DFS with canonical-state
//! signatures for deduplication, so the first violation found has a
//! **minimal-length, replayable** counterexample ([`checker::Counterexample`],
//! rendered in the golden-trace line format).
//!
//! Checked safety invariants (see [`machine::ViolationKind`]):
//!
//! * in-flight restarts always form an antichain (no cell restarts
//!   concurrently with an ancestor or descendant — no double restarts),
//! * no accepted suspicion is ever lost: every reported, uncured component is
//!   tracked by an open episode, a covering in-flight restart, or quarantine,
//! * every issued restart covers all the origins it answers (restart order
//!   respects the tree's dependency structure),
//! * quarantine is monotone, and no restart is issued for a quarantined
//!   component.
//!
//! Liveness is checked **under fairness**: at every quiescent state (no
//! action enabled) each injected fault must have reached cured or
//! quarantined, and no deadline-covered component may starve in the
//! admission controller's deferral queue. Interleavings that cycle forever without quiescing (e.g. a
//! suspicion re-armed by every epoch rollover) are exactly the unfair
//! schedules the assumption excludes; see DESIGN.md §12 for the soundness
//! caveats.
//!
//! The second half of the crate is the [`hb`] **happens-before verifier**:
//! `rr-sim`'s telemetry registry stamps every episode event with a vector
//! clock ([`rr_sim::VectorClock`]), and [`hb::verify_registry`] checks a
//! recorded stream post-hoc for causal-order violations — an episode
//! reported ready before its restart, a cure for an episode that was merged
//! away, stale-epoch attribution and the like.
//!
//! Deliberately broken protocol drivers for fixture tests are modelled as
//! [`scenario::Mutation`]s (a rogue restart that bypasses the planner, a
//! dropped failure report, a starved admission drain tick, a rehydration
//! from an unverified stale checkpoint); the checker must reject them
//! deterministically.
//!
//! The checker lints its own inputs before it runs ([`lint`]): exploration
//! feasibility ([`lint_model_bounds`], `RRL7xx`) and the soundness of the
//! rr-flow dependence table ([`lint_flow`], `RRL95x`), emitted as
//! `rr_lint` diagnostics.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod checker;
pub mod flow;
pub mod hb;
pub mod lint;
pub mod machine;
pub mod scenario;

pub use checker::{check, replay, CheckConfig, CheckOutcome, Counterexample};
pub use flow::{analyze, FlowAnalysis, FlowContext};
pub use hb::{verify, verify_registry, HbViolation};
pub use lint::{lint_flow, lint_model_bounds};
pub use machine::{Action, Model, ModelError, State, Violation, ViolationKind};
pub use scenario::{FaultSpec, Mutation, OracleKind, PorAssumption, Scenario, ScenarioError};

/// Default exploration depth (number of interleaved protocol steps). Deep
/// enough to cover inject → suspect → merge → escalate → quarantine chains
/// for every default scenario — with several steps of slack past the
/// longest such chain — while staying well inside the state budget. The
/// headroom over the old bound of 13 comes from rr-flow's partial-order
/// reduction ([`flow`], on by default via [`CheckConfig::por`]): the
/// signature space (not the trace tree) is what bounds the default
/// scenarios, it is depth-independent, and the reduction shrinks it several
/// fold, so the audit over trees I–V completes at this depth within the
/// same 2M-state budget as the unreduced audit did at 13.
pub const DEFAULT_DEPTH: usize = 16;

/// Default bound on states the checker will visit before declaring a run
/// infeasible. [`lint_model_bounds`]' RRL701 flags scenarios whose estimated state
/// space exceeds this before anyone burns the CPU finding out.
pub const DEFAULT_STATE_BUDGET: u64 = 2_000_000;

/// The deepest episode-plan queue (simultaneous suspicions in one batch)
/// the default audit exercises — the widest leaf antichain of trees I–V.
/// [`lint_model_bounds`]' RRL702 flags configurations that can queue deeper than this,
/// because behaviour beyond the checked bound is unverified.
pub const CHECKED_QUEUE_BOUND: usize = 6;
