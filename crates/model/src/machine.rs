//! The recovery protocol as an explicit state machine.
//!
//! A [`Model`] binds a restart tree to a [`Scenario`]; a [`State`] is one
//! global configuration of the protocol. The state wraps the **real**
//! [`Recoverer`] (cloned at every step — this is why `rr-core` grew a `Clone`
//! impl and the [`Recoverer::open_episodes`] extraction hook), plus the
//! environment the recoverer reacts to: which faults are pending / active /
//! resolved, which components the failure detector has convicted this ping
//! epoch, and which suspicions a mutated (buggy) driver has mishandled.
//!
//! [`Model::enabled`] enumerates the atomic protocol steps possible in a
//! state; [`Model::apply`] executes one and checks every safety invariant on
//! the successor, returning a [`Violation`] the moment one breaks.

use std::collections::BTreeSet;

use rr_core::oracle::{Failure, Oracle, RestartOutcome};
use rr_core::policy::RestartPolicy;
use rr_core::recoverer::{Recoverer, RecoveryDecision};
use rr_core::schedule::is_antichain;
use rr_core::tree::{NodeId, RestartTree};
use rr_core::{NaiveOracle, PerfectOracle};
use rr_sim::SimTime;

use crate::scenario::{Mutation, OracleKind, PorAssumption, Scenario};

/// The escalation limit every [`Model`] binds its restart policy to. Small
/// enough that give-up/quarantine paths are reachable within the default
/// exploration depth; exported to the crate so rr-flow's static
/// escalation-chain analysis and the RRL95x lints reason about the same
/// bound the checker actually runs with.
pub(crate) const MODEL_ESCALATION_LIMIT: u32 = 3;

/// A cloneable oracle for the modelled recoverer. (`Box<dyn Oracle>` is not
/// `Clone`, and the checker forks the recoverer at every explored state.)
#[derive(Debug, Clone, Copy)]
pub enum ModelOracle {
    /// Minimal restart policy with ground-truth cure knowledge.
    Perfect(PerfectOracle),
    /// Own cell first, escalate on persistence.
    Naive(NaiveOracle),
}

impl ModelOracle {
    /// The oracle for a scenario's [`OracleKind`].
    pub fn new(kind: OracleKind) -> ModelOracle {
        match kind {
            OracleKind::Perfect => ModelOracle::Perfect(PerfectOracle::new()),
            OracleKind::Naive => ModelOracle::Naive(NaiveOracle::new()),
        }
    }
}

impl Oracle for ModelOracle {
    fn recommend(
        &mut self,
        tree: &RestartTree,
        failure: &Failure,
        attempt: u32,
        last: Option<NodeId>,
    ) -> NodeId {
        match self {
            ModelOracle::Perfect(o) => o.recommend(tree, failure, attempt, last),
            ModelOracle::Naive(o) => o.recommend(tree, failure, attempt, last),
        }
    }

    fn observe(&mut self, failure: &Failure, outcome: RestartOutcome) {
        match self {
            ModelOracle::Perfect(o) => o.observe(failure, outcome),
            ModelOracle::Naive(o) => o.observe(failure, outcome),
        }
    }

    fn describe(&self) -> String {
        match self {
            ModelOracle::Perfect(o) => o.describe(),
            ModelOracle::Naive(o) => o.describe(),
        }
    }
}

/// Where one injected fault is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStatus {
    /// Not injected yet (the adversary may still inject it).
    Pending,
    /// Injected and uncured: its component is down.
    Active,
    /// A restart covering its cure set completed.
    Cured,
    /// The policy gave up on it.
    Quarantined,
}

impl FaultStatus {
    fn sig_char(self) -> char {
        match self {
            FaultStatus::Pending => 'p',
            FaultStatus::Active => 'a',
            FaultStatus::Cured => 'c',
            FaultStatus::Quarantined => 'q',
        }
    }
}

/// One atomic protocol step. Actions carry component names (not indices) so
/// a counterexample trace is readable on its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// The adversary injects the fault manifesting in `component`.
    Inject {
        /// The fault's component.
        component: String,
    },
    /// The failure detector convicts `component` and reports it.
    Suspect {
        /// The convicted component.
        component: String,
    },
    /// The failure detector convicts several components in the same instant
    /// and reports them as one batch (the correlated-failure path that
    /// drives the parallel planner's antichain/merge logic).
    SuspectBatch {
        /// The convicted components, in deterministic order.
        components: Vec<String>,
    },
    /// The in-flight restart owned by `owner` completes (all components of
    /// its cell are booted again).
    Complete {
        /// The episode owner.
        owner: String,
    },
    /// The in-flight restart owned by `owner` completes by *rehydrating*:
    /// every restarted component replays its verified checkpoint instead of
    /// cold-booting. Only enabled when the scenario declares `rehydrate`;
    /// indistinguishable from [`Action::Complete`] to the recoverer, which
    /// is exactly the safety claim the checker discharges.
    CompleteRehydrated {
        /// The episode owner.
        owner: String,
    },
    /// The cure of `owner`'s episode is confirmed (its origins answered
    /// liveness pings after the restart).
    Confirm {
        /// The episode owner.
        owner: String,
    },
    /// The FD's ping epoch rolls over: suspicion latches clear, so persisting
    /// failures are re-detected (and escalate).
    Rollover,
    /// The admission controller defers the conviction of `component` under
    /// overload: the report is accepted and queued, but no restart launches
    /// yet. Only enabled when the scenario declares `admission`.
    Defer {
        /// The deferred component.
        component: String,
    },
    /// The admission controller's drain step admits the queued report for
    /// `component`, forwarding it to the recoverer (a no-op if the fault
    /// resolved or quarantined while queued).
    Admit {
        /// The admitted component.
        component: String,
    },
}

impl Action {
    /// A golden-trace-style label (`inject:pbcom`, `detect:fedr`, …).
    pub fn label(&self) -> String {
        match self {
            Action::Inject { component } => format!("inject:{component}"),
            Action::Suspect { component } => format!("detect:{component}"),
            Action::SuspectBatch { components } => {
                format!("detect:{}", components.join("+"))
            }
            Action::Complete { owner } => format!("ready:{owner}"),
            Action::CompleteRehydrated { owner } => format!("rehydrate:{owner}"),
            Action::Confirm { owner } => format!("cured:{owner}"),
            Action::Rollover => "epoch:rollover".to_string(),
            Action::Defer { component } => format!("defer:{component}"),
            Action::Admit { component } => format!("admit:{component}"),
        }
    }
}

/// Which safety property broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two concurrent restarts overlap (ancestor/descendant or duplicate):
    /// a component would be restarted twice.
    Antichain,
    /// An accepted suspicion is tracked by nothing — no open episode, no
    /// covering in-flight restart, no quarantine. The component is lost.
    ComponentLost,
    /// A restart decision does not cover all the origins it claims to
    /// answer.
    UncoveredOrigin,
    /// A component left quarantine without operator intervention.
    QuarantineRegressed,
    /// A restart was issued for a quarantined component.
    RestartAfterQuarantine,
    /// A quiescent state (no action enabled) with an unresolved fault: under
    /// fairness every injected fault must reach cured or quarantined.
    Liveness,
    /// A deadline-covered component starved: its restart request sits in the
    /// admission controller's deferral queue in a quiescent state, so under
    /// fairness it will never be admitted.
    Starvation,
}

impl ViolationKind {
    /// Stable kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::Antichain => "antichain-broken",
            ViolationKind::ComponentLost => "component-lost",
            ViolationKind::UncoveredOrigin => "uncovered-origin",
            ViolationKind::QuarantineRegressed => "quarantine-regressed",
            ViolationKind::RestartAfterQuarantine => "restart-after-quarantine",
            ViolationKind::Liveness => "liveness-unresolved-fault",
            ViolationKind::Starvation => "deferred-starved",
        }
    }
}

/// A broken invariant, with human-readable specifics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// What exactly went wrong (components, cells, origins involved).
    pub detail: String,
}

/// A scenario-validation or exploration-budget error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    /// What went wrong.
    pub message: String,
    /// The deepening bound at which the state budget ran out (every bound
    /// below it completed); `None` for a scenario-validation error.
    pub depth: Option<usize>,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model: {}", self.message)
    }
}

impl std::error::Error for ModelError {}

/// One global configuration of the protocol.
#[derive(Debug, Clone)]
pub struct State {
    /// The real recoverer, forked per explored state.
    rec: Recoverer<ModelOracle>,
    /// Lifecycle of each scenario fault, index-aligned with
    /// [`Model::faults`].
    fault_status: Vec<FaultStatus>,
    /// Components the FD has convicted this ping epoch (cleared by
    /// [`Action::Rollover`]); a latched component is not re-reported.
    suspected: BTreeSet<String>,
    /// Components whose conviction was ever accepted for reporting.
    reported: BTreeSet<String>,
    /// Components the policy gave up on (monotone).
    quarantined: BTreeSet<String>,
    /// Components whose accepted report sits in the admission controller's
    /// deferral queue, awaiting an [`Action::Admit`] drain step.
    deferred: BTreeSet<String>,
    /// Components resurrected from a stale checkpoint by the
    /// [`Mutation::StaleRehydrate`] driver: they beacon healthily, so the FD
    /// can no longer convict them, but their fault is still active.
    masked: BTreeSet<String>,
    /// Cells restarted by a mutated driver behind the planner's back.
    rogue_cells: Vec<NodeId>,
    /// Logical step counter: step *n*'s action executes at *n* seconds.
    step: u32,
}

impl State {
    /// The canonical signature used for state deduplication: everything that
    /// influences future behaviour, and nothing that does not. Absolute
    /// times are excluded — sound because the model policy's rate window
    /// (3600 s) exceeds any reachable path length (one second per step, far
    /// fewer than 3600 steps), so the policy sees only the restart *counts*,
    /// which the signature includes via the open episodes and per-component
    /// history lengths.
    pub fn signature(&self, model: &Model) -> String {
        let mut sig = String::new();
        self.write_signature(model, &mut sig);
        sig
    }

    /// Appends [`State::signature`] to `sig` (the checker names every
    /// generated state through one reused buffer).
    pub(crate) fn write_signature(&self, model: &Model, sig: &mut String) {
        use std::fmt::Write as _;
        let tree = model.tree();
        for ep in self.rec.open_episodes() {
            let cell = ep.cell.map_or("-", |n| tree.label(n));
            let _ = write!(
                sig,
                "e{}:{}:{cell}:{}:",
                ep.owner,
                ep.attempt,
                u8::from(ep.in_flight)
            );
            push_joined(sig, ep.origins);
            sig.push(';');
        }
        sig.push('|');
        for status in &self.fault_status {
            sig.push(status.sig_char());
        }
        sig.push('|');
        for (tag, set) in [
            ('s', &self.suspected),
            ('r', &self.reported),
            ('q', &self.quarantined),
            ('d', &self.deferred),
            ('m', &self.masked),
        ] {
            sig.push(tag);
            push_joined(sig, set);
            sig.push('|');
        }
        let mut rogue: Vec<&str> = self.rogue_cells.iter().map(|&n| tree.label(n)).collect();
        rogue.sort_unstable();
        let _ = write!(sig, "g{}|h", rogue.join(","));
        for component in &model.components {
            let _ = write!(sig, "{}", self.rec.policy().recent_restarts(component));
        }
    }

    /// Components quarantined so far.
    pub fn quarantined(&self) -> &BTreeSet<String> {
        &self.quarantined
    }

    /// Status of the fault at `index`.
    pub fn fault_status(&self, index: usize) -> FaultStatus {
        self.fault_status[index]
    }

    /// Components currently parked in the admission deferral queue.
    pub fn deferred(&self) -> &BTreeSet<String> {
        &self.deferred
    }

    /// Components a stale-rehydrate driver has hidden from the FD.
    pub fn masked(&self) -> &BTreeSet<String> {
        &self.masked
    }

    /// Components the FD has convicted this ping epoch (latched until the
    /// next rollover).
    pub(crate) fn suspected(&self) -> &BTreeSet<String> {
        &self.suspected
    }

    /// The cells of all restarts currently in flight.
    pub(crate) fn in_flight_cells(&self) -> Vec<NodeId> {
        self.rec.in_flight_cells()
    }

    /// The cell of `owner`'s in-flight restart, if any.
    pub(crate) fn in_flight_cell_of(&self, owner: &str) -> Option<NodeId> {
        self.rec
            .open_episodes()
            .find(|ep| ep.owner == owner && ep.in_flight)
            .and_then(|ep| ep.cell)
    }

    /// `true` if some open episode answers for `component`.
    fn tracks(&self, component: &str) -> bool {
        self.rec
            .open_episodes()
            .any(|ep| ep.origins.contains(component))
    }
}

/// Appends the members of `set`, comma-separated, to `out`.
fn push_joined(out: &mut String, set: &BTreeSet<String>) {
    for (i, member) in set.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(member);
    }
}

/// A restart tree bound to a scenario: the transition system the checker
/// explores.
pub struct Model {
    tree: RestartTree,
    /// Every component of `tree`, sorted: the order of the restart counts in
    /// a [`State::signature`].
    components: Vec<String>,
    faults: Vec<Failure>,
    oracle: ModelOracle,
    policy: RestartPolicy,
    mutation: Option<Mutation>,
    admission: bool,
    rehydrate: bool,
    por_assume: Option<PorAssumption>,
}

impl Model {
    /// Binds `tree` to `scenario`, validating that every fault component and
    /// cure-set member exists in the tree.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] naming the first unknown component.
    pub fn new(tree: RestartTree, scenario: &Scenario) -> Result<Model, ModelError> {
        let mut faults = Vec::new();
        for spec in &scenario.faults {
            for member in &spec.cure_set {
                if tree.cell_of_component(member).is_none() {
                    return Err(ModelError {
                        message: format!(
                            "fault `{}`: component `{member}` is not in the tree",
                            spec.component
                        ),
                        depth: None,
                    });
                }
            }
            faults.push(Failure::correlated(&spec.component, spec.cure_set.clone()));
        }
        if scenario.mutation == Some(Mutation::StarveDeferred) && !scenario.admission {
            return Err(ModelError {
                message: "mutation starve-deferred requires the `admission` directive".into(),
                depth: None,
            });
        }
        if scenario.mutation == Some(Mutation::StaleRehydrate) && !scenario.rehydrate {
            return Err(ModelError {
                message: "mutation stale-rehydrate requires the `rehydrate` directive".into(),
                depth: None,
            });
        }
        // A tight escalation limit keeps give-up/quarantine paths reachable
        // within the default exploration depth; the default rate window
        // (3600 s) dwarfs every path length, which is what makes excluding
        // absolute times from state signatures sound (see
        // [`State::signature`]).
        let policy = RestartPolicy::new().with_escalation_limit(MODEL_ESCALATION_LIMIT);
        Ok(Model {
            components: tree.components(),
            tree,
            faults,
            oracle: ModelOracle::new(scenario.oracle),
            policy,
            mutation: scenario.mutation,
            admission: scenario.admission,
            rehydrate: scenario.rehydrate,
            por_assume: scenario.por_assume,
        })
    }

    /// The bound restart tree.
    pub fn tree(&self) -> &RestartTree {
        &self.tree
    }

    /// The scenario faults, in declaration order.
    pub fn faults(&self) -> &[Failure] {
        &self.faults
    }

    /// The oracle this model binds (stateless, so freely copyable — which is
    /// what lets rr-flow precompute escalation chains statically).
    pub(crate) fn oracle(&self) -> ModelOracle {
        self.oracle
    }

    /// The seeded protocol bug, if any.
    pub(crate) fn mutation(&self) -> Option<Mutation> {
        self.mutation
    }

    /// Whether the admission controller is modelled.
    pub(crate) fn admission(&self) -> bool {
        self.admission
    }

    /// Whether checkpoint rehydration is modelled.
    pub(crate) fn rehydrate(&self) -> bool {
        self.rehydrate
    }

    /// The forced (unsound) independence assumption, if any (fixtures only).
    pub(crate) fn por_assume(&self) -> Option<PorAssumption> {
        self.por_assume
    }

    /// The initial state: nothing injected, nothing suspected.
    pub fn initial(&self) -> State {
        State {
            rec: Recoverer::new(self.tree.clone(), self.oracle, self.policy.clone()),
            fault_status: vec![FaultStatus::Pending; self.faults.len()],
            suspected: BTreeSet::new(),
            reported: BTreeSet::new(),
            quarantined: BTreeSet::new(),
            deferred: BTreeSet::new(),
            masked: BTreeSet::new(),
            rogue_cells: Vec::new(),
            step: 0,
        }
    }

    fn fault_index(&self, component: &str) -> Option<usize> {
        self.faults.iter().position(|f| f.component == component)
    }

    /// The components currently down and eligible for (re-)conviction.
    fn suspect_targets(&self, state: &State) -> Vec<String> {
        self.faults
            .iter()
            .enumerate()
            .filter(|(i, f)| {
                state.fault_status[*i] == FaultStatus::Active
                    && !state.suspected.contains(&f.component)
                    && !state.quarantined.contains(&f.component)
                    && !state.deferred.contains(&f.component)
                    && !state.masked.contains(&f.component)
            })
            .map(|(_, f)| f.component.clone())
            .collect()
    }

    /// Every action enabled in `state`, in deterministic order.
    pub fn enabled(&self, state: &State) -> Vec<Action> {
        let mut actions = Vec::new();
        for (i, fault) in self.faults.iter().enumerate() {
            if state.fault_status[i] == FaultStatus::Pending {
                actions.push(Action::Inject {
                    component: fault.component.clone(),
                });
            }
        }
        let targets = self.suspect_targets(state);
        for component in &targets {
            actions.push(Action::Suspect {
                component: component.clone(),
            });
            if self.admission {
                actions.push(Action::Defer {
                    component: component.clone(),
                });
            }
        }
        if targets.len() >= 2 {
            actions.push(Action::SuspectBatch {
                components: targets,
            });
        }
        if self.mutation != Some(Mutation::StarveDeferred) {
            for component in &state.deferred {
                actions.push(Action::Admit {
                    component: component.clone(),
                });
            }
        }
        for ep in state.rec.open_episodes() {
            let owner = || ep.owner.to_string();
            if ep.in_flight {
                actions.push(Action::Complete { owner: owner() });
                if self.rehydrate {
                    actions.push(Action::CompleteRehydrated { owner: owner() });
                }
            } else if ep.cell.is_some() && self.origins_cured(state, ep.origins) {
                actions.push(Action::Confirm { owner: owner() });
            }
        }
        if !state.suspected.is_empty() {
            actions.push(Action::Rollover);
        }
        actions
    }

    fn origins_cured(&self, state: &State, origins: &BTreeSet<String>) -> bool {
        origins.iter().all(|origin| {
            self.fault_index(origin)
                .is_none_or(|i| state.fault_status[i] == FaultStatus::Cured)
        })
    }

    /// Executes `action` on `state` and checks every safety invariant on the
    /// successor.
    ///
    /// # Errors
    ///
    /// Returns the [`Violation`] if an invariant breaks; the successor state
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `action` is not enabled in `state` (checker bug, not a
    /// protocol violation).
    pub fn apply(&self, state: &State, action: &Action) -> Result<State, Violation> {
        let mut next = state.clone();
        next.step += 1;
        let now = SimTime::from_secs(u64::from(next.step));
        let mut decisions: Vec<RecoveryDecision> = Vec::new();
        match action {
            Action::Inject { component } => {
                let i = self.expect_fault(component);
                assert_eq!(
                    state.fault_status[i],
                    FaultStatus::Pending,
                    "inject enabled"
                );
                next.fault_status[i] = FaultStatus::Active;
            }
            Action::Suspect { component } => {
                next.suspected.insert(component.clone());
                next.reported.insert(component.clone());
                let i = self.expect_fault(component);
                match self.mutation {
                    Some(Mutation::DropReport) => {}
                    Some(Mutation::BypassPlanner) => {
                        let cell = self.rogue_cell(&self.faults[i]);
                        next.rogue_cells.push(cell);
                    }
                    // Starve-deferred only breaks the drain tick and
                    // stale-rehydrate only breaks checkpoint verification;
                    // direct suspicions still reach the recoverer.
                    None | Some(Mutation::StarveDeferred | Mutation::StaleRehydrate) => {
                        decisions.push(next.rec.on_failure(self.faults[i].clone(), now));
                    }
                }
            }
            Action::SuspectBatch { components } => {
                let mut batch = Vec::new();
                for component in components {
                    next.suspected.insert(component.clone());
                    next.reported.insert(component.clone());
                    let i = self.expect_fault(component);
                    match self.mutation {
                        Some(Mutation::DropReport) => {}
                        Some(Mutation::BypassPlanner) => {
                            let cell = self.rogue_cell(&self.faults[i]);
                            next.rogue_cells.push(cell);
                        }
                        None | Some(Mutation::StarveDeferred | Mutation::StaleRehydrate) => {
                            batch.push(self.faults[i].clone());
                        }
                    }
                }
                if !batch.is_empty() {
                    decisions.extend(next.rec.on_failures(batch, now));
                }
            }
            Action::Complete { owner } => {
                let cell = next
                    .in_flight_cell_of(owner)
                    .unwrap_or_else(|| panic!("complete enabled for {owner}"));
                next.rec.on_restart_complete(owner, now);
                let covered = self.tree.components_under(cell);
                for (i, fault) in self.faults.iter().enumerate() {
                    if next.fault_status[i] == FaultStatus::Active
                        && fault.cure_set.iter().all(|c| covered.contains(c))
                    {
                        next.fault_status[i] = FaultStatus::Cured;
                    }
                }
                // A cold boot rebuilds state from scratch, so it also cures
                // whatever a stale rehydration left masked in this cell.
                for component in &covered {
                    next.masked.remove(component);
                }
            }
            Action::CompleteRehydrated { owner } => {
                let cell = next
                    .in_flight_cell_of(owner)
                    .unwrap_or_else(|| panic!("rehydrated complete enabled for {owner}"));
                next.rec.on_restart_complete(owner, now);
                let covered = self.tree.components_under(cell);
                for (i, fault) in self.faults.iter().enumerate() {
                    if next.fault_status[i] == FaultStatus::Active
                        && fault.cure_set.iter().all(|c| covered.contains(c))
                    {
                        if self.mutation == Some(Mutation::StaleRehydrate) {
                            // Unverified replay: the component resumes from
                            // a stale checkpoint and beacons healthily, but
                            // the fault survives in the resurrected state —
                            // the FD can no longer see it.
                            next.masked.insert(fault.component.clone());
                        } else {
                            // A verified checkpoint replays to exactly the
                            // pre-crash state the cure semantics promise.
                            next.fault_status[i] = FaultStatus::Cured;
                        }
                    }
                }
            }
            Action::Confirm { owner } => {
                next.rec.on_cured(owner, now);
            }
            Action::Rollover => {
                next.suspected.clear();
            }
            Action::Defer { component } => {
                next.suspected.insert(component.clone());
                next.reported.insert(component.clone());
                next.deferred.insert(component.clone());
            }
            Action::Admit { component } => {
                next.deferred.remove(component);
                let i = self.expect_fault(component);
                if next.fault_status[i] == FaultStatus::Active
                    && !next.quarantined.contains(component)
                {
                    decisions.push(next.rec.on_failure(self.faults[i].clone(), now));
                }
            }
        }
        self.absorb_decisions(state, &mut next, &decisions)?;
        self.check_invariants(state, &next, action)?;
        Ok(next)
    }

    fn expect_fault(&self, component: &str) -> usize {
        self.fault_index(component)
            .unwrap_or_else(|| panic!("no fault for component {component}"))
    }

    /// The cell a planner-bypassing driver would restart for `failure`: what
    /// the oracle recommends on a first attempt.
    fn rogue_cell(&self, failure: &Failure) -> NodeId {
        let mut oracle = self.oracle;
        oracle.recommend(&self.tree, failure, 0, None)
    }

    /// Folds the recoverer's decisions into the model state: give-ups
    /// quarantine every origin whose episode vanished, and each restart
    /// decision is itself invariant-checked.
    fn absorb_decisions(
        &self,
        before: &State,
        next: &mut State,
        decisions: &[RecoveryDecision],
    ) -> Result<(), Violation> {
        let mut gave_up = false;
        for decision in decisions {
            match decision {
                RecoveryDecision::Restart {
                    components,
                    origins,
                    ..
                } => {
                    for origin in origins {
                        if next.quarantined.contains(origin) {
                            return Err(Violation {
                                kind: ViolationKind::RestartAfterQuarantine,
                                detail: format!("restart issued for quarantined origin `{origin}`"),
                            });
                        }
                        if !components.contains(origin) {
                            return Err(Violation {
                                kind: ViolationKind::UncoveredOrigin,
                                detail: format!(
                                    "restart set [{}] does not cover origin `{origin}`",
                                    components.join(", ")
                                ),
                            });
                        }
                    }
                }
                RecoveryDecision::AlreadyRecovering { .. } => {}
                RecoveryDecision::GiveUp { .. } => gave_up = true,
            }
        }
        if gave_up {
            // The recoverer dropped the abandoned episodes wholesale; every
            // origin that was tracked before and is tracked no longer has
            // been given up on.
            let tracked_before = Self::tracked_origins(before);
            let tracked_after = Self::tracked_origins(next);
            for origin in tracked_before.difference(&tracked_after) {
                next.quarantined.insert(origin.clone());
                if let Some(i) = self.fault_index(origin) {
                    if next.fault_status[i] == FaultStatus::Active {
                        next.fault_status[i] = FaultStatus::Quarantined;
                    }
                }
            }
            // A suspicion refused on arrival never had an episode: the
            // give-up decision's component covers it below via `reported`.
            for (i, fault) in self.faults.iter().enumerate() {
                if next.fault_status[i] == FaultStatus::Active
                    && next.reported.contains(&fault.component)
                    && !next.deferred.contains(&fault.component)
                    && !tracked_after.contains(&fault.component)
                    && !self.covered_in_flight(next, &fault.component)
                {
                    next.quarantined.insert(fault.component.clone());
                    next.fault_status[i] = FaultStatus::Quarantined;
                }
            }
        }
        Ok(())
    }

    fn tracked_origins(state: &State) -> BTreeSet<String> {
        state
            .rec
            .open_episodes()
            .flat_map(|ep| ep.origins.iter().cloned())
            .collect()
    }

    fn covered_in_flight(&self, state: &State, component: &str) -> bool {
        state.rec.in_flight_cells().into_iter().any(|cell| {
            self.tree
                .components_under(cell)
                .iter()
                .any(|c| c == component)
        })
    }

    /// The global safety invariants, checked on every successor state.
    fn check_invariants(
        &self,
        before: &State,
        next: &State,
        action: &Action,
    ) -> Result<(), Violation> {
        // I1: concurrent restarts form an antichain — including any restart
        // a mutated driver issued behind the planner's back.
        let mut cells = next.rec.in_flight_cells();
        cells.extend(next.rogue_cells.iter().copied());
        if !is_antichain(&self.tree, &cells) {
            let labels: Vec<&str> = cells.iter().map(|&n| self.tree.label(n)).collect();
            return Err(Violation {
                kind: ViolationKind::Antichain,
                detail: format!(
                    "overlapping concurrent restarts after `{}`: [{}]",
                    action.label(),
                    labels.join(", ")
                ),
            });
        }
        // I2: quarantine is monotone.
        if let Some(escapee) = before
            .quarantined
            .iter()
            .find(|c| !next.quarantined.contains(*c))
        {
            return Err(Violation {
                kind: ViolationKind::QuarantineRegressed,
                detail: format!("`{escapee}` left quarantine"),
            });
        }
        // I3: an accepted suspicion is never lost. Checked right after the
        // report is accepted — later the component may legitimately be
        // untracked-but-down again (restart completed without curing; the
        // next epoch re-reports it).
        let reported_now: &[String] = match action {
            Action::Suspect { component }
            | Action::Defer { component }
            | Action::Admit { component } => std::slice::from_ref(component),
            Action::SuspectBatch { components } => components,
            _ => &[],
        };
        for component in reported_now {
            let resolved = self
                .fault_index(component)
                .is_some_and(|i| matches!(next.fault_status[i], FaultStatus::Cured));
            if !next.tracks(component)
                && !self.covered_in_flight(next, component)
                && !next.quarantined.contains(component)
                && !next.deferred.contains(component)
                && !resolved
            {
                return Err(Violation {
                    kind: ViolationKind::ComponentLost,
                    detail: format!(
                        "report for `{component}` accepted but no episode, covering \
                         restart, or quarantine tracks it"
                    ),
                });
            }
        }
        Ok(())
    }

    /// The liveness-under-fairness check, evaluated at quiescent states (no
    /// action enabled): every injected fault must be cured or quarantined.
    pub fn check_quiescent(&self, state: &State) -> Result<(), Violation> {
        // The starvation invariant: a quiescent state must not park an
        // unresolved component in the deferral queue — under fairness the
        // drain step would otherwise have admitted it by now.
        for component in &state.deferred {
            if self
                .fault_index(component)
                .is_some_and(|i| state.fault_status[i] == FaultStatus::Active)
            {
                return Err(Violation {
                    kind: ViolationKind::Starvation,
                    detail: format!(
                        "deferred restart for `{component}` was never admitted; the \
                         component starves in the queue"
                    ),
                });
            }
        }
        for (i, fault) in self.faults.iter().enumerate() {
            if state.fault_status[i] == FaultStatus::Active {
                return Err(Violation {
                    kind: ViolationKind::Liveness,
                    detail: format!(
                        "quiescent state with fault on `{}` neither cured nor quarantined",
                        fault.component
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use rr_core::TreeSpec;

    fn tree_iv() -> RestartTree {
        TreeSpec::cell("mercury")
            .with_child(TreeSpec::cell("R_mbus").with_component("mbus"))
            .with_child(
                TreeSpec::cell("R_[fedr,pbcom]")
                    .with_child(TreeSpec::cell("R_fedr").with_component("fedr"))
                    .with_child(TreeSpec::cell("R_pbcom").with_component("pbcom")),
            )
            .with_child(TreeSpec::cell("R_[ses,str]").with_components(["ses", "str"]))
            .with_child(TreeSpec::cell("R_rtu").with_component("rtu"))
            .build()
            .unwrap()
    }

    fn model(text: &str) -> Model {
        Model::new(tree_iv(), &scenario::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn rejects_unknown_components() {
        let s = scenario::parse("tree IV\nfault nosuch\n").unwrap();
        assert!(Model::new(tree_iv(), &s).is_err());
    }

    #[test]
    fn initial_state_enables_only_injections() {
        let m = model("tree IV\nfault pbcom\nfault rtu\n");
        let s = m.initial();
        let acts = m.enabled(&s);
        assert_eq!(acts.len(), 2);
        assert!(acts.iter().all(|a| matches!(a, Action::Inject { .. })));
    }

    #[test]
    fn happy_path_cures_the_fault() {
        let m = model("tree IV\nfault pbcom\n");
        let mut s = m.initial();
        for action in [
            Action::Inject {
                component: "pbcom".into(),
            },
            Action::Suspect {
                component: "pbcom".into(),
            },
            Action::Complete {
                owner: "pbcom".into(),
            },
            Action::Confirm {
                owner: "pbcom".into(),
            },
            Action::Rollover,
        ] {
            assert!(m.enabled(&s).contains(&action), "{action:?} enabled");
            s = m.apply(&s, &action).unwrap();
        }
        assert_eq!(s.fault_status(0), FaultStatus::Cured);
        assert!(m.enabled(&s).is_empty());
        assert!(m.check_quiescent(&s).is_ok());
    }

    #[test]
    fn batch_suspicion_merges_overlapping_cells() {
        // fedr's fault needs fedr+pbcom: the perfect oracle plans the parent
        // cell, absorbing pbcom's own episode in the same batch.
        let m = model("tree IV\nfault pbcom\nfault fedr cures fedr pbcom\n");
        let mut s = m.initial();
        for action in [
            Action::Inject {
                component: "pbcom".into(),
            },
            Action::Inject {
                component: "fedr".into(),
            },
            Action::SuspectBatch {
                components: vec!["fedr".into(), "pbcom".into()],
            },
        ] {
            s = m.apply(&s, &action).unwrap();
        }
        let mut in_flight: Vec<String> = s
            .rec
            .open_episodes()
            .filter(|ep| ep.in_flight)
            .map(|ep| ep.owner.to_string())
            .collect();
        assert_eq!(in_flight.len(), 1, "one merged episode");
        let owner = in_flight.remove(0);
        let s = m
            .apply(
                &s,
                &Action::Complete {
                    owner: owner.clone(),
                },
            )
            .unwrap();
        assert_eq!(s.fault_status(0), FaultStatus::Cured);
        assert_eq!(s.fault_status(1), FaultStatus::Cured);
    }

    #[test]
    fn drop_report_mutation_loses_the_component() {
        let m = model("tree IV\nfault rtu\nmutate drop-report\n");
        let s = m.initial();
        let s = m
            .apply(
                &s,
                &Action::Inject {
                    component: "rtu".into(),
                },
            )
            .unwrap();
        let violation = m
            .apply(
                &s,
                &Action::Suspect {
                    component: "rtu".into(),
                },
            )
            .unwrap_err();
        assert_eq!(violation.kind, ViolationKind::ComponentLost);
    }

    #[test]
    fn bypass_planner_mutation_breaks_the_antichain() {
        // Two rogue restarts of overlapping cells (pbcom's own cell and its
        // parent via fedr's correlated cure set).
        let m = model("tree IV\nfault pbcom\nfault fedr cures fedr pbcom\nmutate bypass-planner\n");
        let mut s = m.initial();
        for component in ["pbcom", "fedr"] {
            s = m
                .apply(
                    &s,
                    &Action::Inject {
                        component: component.into(),
                    },
                )
                .unwrap();
        }
        // First rogue restart: lost-component fires only if untracked; the
        // rogue cell *does* cover pbcom physically, but nothing in the
        // recoverer tracks it.
        let out = m.apply(
            &s,
            &Action::Suspect {
                component: "pbcom".into(),
            },
        );
        let violation = match out {
            Err(v) => v,
            Ok(next) => m
                .apply(
                    &next,
                    &Action::Suspect {
                        component: "fedr".into(),
                    },
                )
                .unwrap_err(),
        };
        assert!(matches!(
            violation.kind,
            ViolationKind::ComponentLost | ViolationKind::Antichain
        ));
    }

    #[test]
    fn defer_then_admit_cures_the_fault() {
        let m = model("tree IV\nadmission\nfault pbcom\n");
        let mut s = m.initial();
        let inject = Action::Inject {
            component: "pbcom".into(),
        };
        let defer = Action::Defer {
            component: "pbcom".into(),
        };
        s = m.apply(&s, &inject).unwrap();
        assert!(m.enabled(&s).contains(&defer), "defer is an alternative");
        s = m.apply(&s, &defer).unwrap();
        // While deferred the component is neither re-suspected nor lost, and
        // the drain step is enabled.
        assert!(s.deferred().contains("pbcom"));
        assert!(!m
            .enabled(&s)
            .iter()
            .any(|a| matches!(a, Action::Suspect { .. } | Action::SuspectBatch { .. })));
        for action in [
            Action::Admit {
                component: "pbcom".into(),
            },
            Action::Complete {
                owner: "pbcom".into(),
            },
            Action::Confirm {
                owner: "pbcom".into(),
            },
            Action::Rollover,
        ] {
            assert!(m.enabled(&s).contains(&action), "{action:?} enabled");
            s = m.apply(&s, &action).unwrap();
        }
        assert_eq!(s.fault_status(0), FaultStatus::Cured);
        assert!(s.deferred().is_empty());
        assert!(m.check_quiescent(&s).is_ok());
    }

    #[test]
    fn starve_deferred_mutation_trips_the_starvation_invariant() {
        let m = model("tree IV\nadmission\nfault pbcom\nmutate starve-deferred\n");
        let mut s = m.initial();
        for action in [
            Action::Inject {
                component: "pbcom".into(),
            },
            Action::Defer {
                component: "pbcom".into(),
            },
            Action::Rollover,
        ] {
            s = m.apply(&s, &action).unwrap();
        }
        // The drain tick never fires: nothing is enabled, and the quiescent
        // check pins the starved component by name.
        assert!(m.enabled(&s).is_empty(), "starved queue is quiescent");
        let violation = m.check_quiescent(&s).unwrap_err();
        assert_eq!(violation.kind, ViolationKind::Starvation);
        assert!(violation.detail.contains("pbcom"));
    }

    #[test]
    fn rehydrated_completion_cures_like_a_cold_boot() {
        let m = model("tree IV\nrehydrate\nfault pbcom\n");
        let mut s = m.initial();
        for action in [
            Action::Inject {
                component: "pbcom".into(),
            },
            Action::Suspect {
                component: "pbcom".into(),
            },
        ] {
            s = m.apply(&s, &action).unwrap();
        }
        // Both completion flavours are on offer for the in-flight restart.
        let enabled = m.enabled(&s);
        assert!(enabled.iter().any(|a| matches!(a, Action::Complete { .. })));
        let rehy = Action::CompleteRehydrated {
            owner: "pbcom".into(),
        };
        assert!(enabled.contains(&rehy));
        s = m.apply(&s, &rehy).unwrap();
        assert_eq!(s.fault_status(0), FaultStatus::Cured);
        for action in [
            Action::Confirm {
                owner: "pbcom".into(),
            },
            Action::Rollover,
        ] {
            s = m.apply(&s, &action).unwrap();
        }
        assert!(m.enabled(&s).is_empty());
        assert!(m.check_quiescent(&s).is_ok());
        // Without the directive the rehydrated flavour never appears.
        let cold = model("tree IV\nfault pbcom\n");
        let mut s = cold.initial();
        for action in [
            Action::Inject {
                component: "pbcom".into(),
            },
            Action::Suspect {
                component: "pbcom".into(),
            },
        ] {
            s = cold.apply(&s, &action).unwrap();
        }
        assert!(!cold
            .enabled(&s)
            .iter()
            .any(|a| matches!(a, Action::CompleteRehydrated { .. })));
    }

    #[test]
    fn stale_rehydrate_mutation_trips_the_liveness_invariant() {
        let m = model("tree IV\nrehydrate\nfault rtu\nmutate stale-rehydrate\n");
        let mut s = m.initial();
        for action in [
            Action::Inject {
                component: "rtu".into(),
            },
            Action::Suspect {
                component: "rtu".into(),
            },
            Action::CompleteRehydrated {
                owner: "rtu".into(),
            },
            Action::Rollover,
        ] {
            assert!(m.enabled(&s).contains(&action), "{action:?} enabled");
            s = m.apply(&s, &action).unwrap();
        }
        // The component beacons healthily from stale state: the FD cannot
        // re-convict it, and the fault is neither cured nor quarantined.
        assert!(s.masked().contains("rtu"));
        assert_eq!(s.fault_status(0), FaultStatus::Active);
        assert!(m.enabled(&s).is_empty(), "masked fault is quiescent");
        let violation = m.check_quiescent(&s).unwrap_err();
        assert_eq!(violation.kind, ViolationKind::Liveness);
        assert!(violation.detail.contains("rtu"));
    }

    #[test]
    fn defer_requires_the_admission_directive() {
        let m = model("tree IV\nfault pbcom\n");
        let s = m
            .apply(
                &m.initial(),
                &Action::Inject {
                    component: "pbcom".into(),
                },
            )
            .unwrap();
        assert!(!m
            .enabled(&s)
            .iter()
            .any(|a| matches!(a, Action::Defer { .. })));
        let s = scenario::parse("tree IV\nadmission\nfault pbcom\nmutate starve-deferred\n")
            .map(|mut sc| {
                sc.admission = false;
                sc
            })
            .unwrap();
        assert!(Model::new(tree_iv(), &s).is_err());
    }

    #[test]
    fn signatures_collapse_commuting_interleavings() {
        let m = model("tree IV\nfault pbcom\nfault rtu\n");
        let s = m.initial();
        let ab = m
            .apply(
                &m.apply(
                    &s,
                    &Action::Inject {
                        component: "pbcom".into(),
                    },
                )
                .unwrap(),
                &Action::Inject {
                    component: "rtu".into(),
                },
            )
            .unwrap();
        let ba = m
            .apply(
                &m.apply(
                    &s,
                    &Action::Inject {
                        component: "rtu".into(),
                    },
                )
                .unwrap(),
                &Action::Inject {
                    component: "pbcom".into(),
                },
            )
            .unwrap();
        assert_eq!(ab.signature(&m), ba.signature(&m));
    }
}
