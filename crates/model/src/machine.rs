//! The recovery protocol as an explicit state machine.
//!
//! A [`Model`] binds a restart tree to a [`Scenario`]; a [`State`] is one
//! global configuration of the protocol. The state wraps the **real**
//! [`Recoverer`] (cloned at every step — this is why `rr-core` grew a `Clone`
//! impl and the [`Recoverer::open_episodes`] extraction hook), plus the
//! environment the recoverer reacts to: which faults are pending / active /
//! resolved, which components the failure detector has convicted this ping
//! epoch, and which suspicions a mutated (buggy) driver has mishandled.
//! Those component sets are [`CompSet`] bitmasks over the model's sorted
//! components, so forking a state copies words, not strings.
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
use rr_sim::{intern, CompId, SimTime};

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

/// A set of one [`Model`]'s components: bit `i` stands for
/// `model.components()[i]`. The components are sorted, so a set iterates
/// its members in name order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompSet(u64);

impl CompSet {
    /// The most components a set holds; [`Model::new`] refuses a larger tree.
    const CAPACITY: usize = u64::BITS as usize;

    /// `true` if component `i` is a member.
    pub fn contains(self, i: usize) -> bool {
        self.0 >> i & 1 == 1
    }

    /// `true` if the set has no member.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The members' indices, ascending.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let i = rest.trailing_zeros() as usize;
            rest &= rest.checked_sub(1)?;
            Some(i)
        })
    }

    fn insert(&mut self, i: usize) {
        self.0 |= 1 << i;
    }

    fn remove(&mut self, i: usize) {
        self.0 &= !(1 << i);
    }

    fn union(self, other: CompSet) -> CompSet {
        CompSet(self.0 | other.0)
    }

    fn minus(self, other: CompSet) -> CompSet {
        CompSet(self.0 & !other.0)
    }

    fn is_subset(self, other: CompSet) -> bool {
        self.minus(other).is_empty()
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
    suspected: CompSet,
    /// Components whose conviction was ever accepted for reporting.
    reported: CompSet,
    /// Components the policy gave up on (monotone).
    quarantined: CompSet,
    /// Components whose accepted report sits in the admission controller's
    /// deferral queue, awaiting an [`Action::Admit`] drain step.
    deferred: CompSet,
    /// Components resurrected from a stale checkpoint by the
    /// [`Mutation::StaleRehydrate`] driver: they beacon healthily, so the FD
    /// can no longer convict them, but their fault is still active.
    masked: CompSet,
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
    ///
    /// The signature is a byte key, meaningful only against other states of
    /// the same `model`: components are named by their index into
    /// [`Model::components`], cells by their rank among the tree's cells,
    /// and every variable-length part carries its length, so two keys are
    /// equal exactly when the states agree on all of the above.
    pub fn signature(&self, model: &Model) -> Vec<u8> {
        let mut key = Vec::new();
        self.write_signature(model, &mut key);
        key
    }

    /// Appends [`State::signature`] to `key` (the checker names every
    /// generated state through one reused buffer).
    pub(crate) fn write_signature(&self, model: &Model, key: &mut Vec<u8>) {
        // Episodes, by owner: owner, attempt, cell (0 for none, else rank
        // + 1), in-flight flag, then the origins with their count first.
        // Component indices and counts of components fit a byte, because
        // `Model::new` refuses a tree of more than 64 components.
        let count_at = key.len();
        key.push(0);
        for ep in self.rec.open_episodes() {
            key[count_at] += 1;
            key.push(model.component_index(ep.owner) as u8);
            push_varint(key, u64::from(ep.attempt));
            push_varint(key, ep.cell.map_or(0, |n| model.cell_rank(n) as u64 + 1));
            key.push(u8::from(ep.in_flight));
            key.push(ep.origins.len() as u8);
            for origin in ep.origins {
                key.push(model.component_index(origin) as u8);
            }
        }
        key.extend(self.fault_status.iter().map(|&status| status as u8));
        for set in [
            self.suspected,
            self.reported,
            self.quarantined,
            self.deferred,
            self.masked,
        ] {
            key.extend_from_slice(&set.0.to_le_bytes()[..model.mask_bytes]);
        }
        let mut rogue: Vec<usize> = self
            .rogue_cells
            .iter()
            .map(|&n| model.cell_rank(n))
            .collect();
        rogue.sort_unstable();
        push_varint(key, rogue.len() as u64);
        for rank in rogue {
            push_varint(key, rank as u64);
        }
        let policy = self.rec.policy();
        for &id in &model.comp_ids {
            push_varint(key, policy.recent_restarts(id) as u64);
        }
    }

    /// The real recoverer this state forks.
    pub fn recoverer(&self) -> &Recoverer<ModelOracle> {
        &self.rec
    }

    /// Status of the fault at `index`.
    pub fn fault_status(&self, index: usize) -> FaultStatus {
        self.fault_status[index]
    }

    /// Components the FD has convicted this ping epoch (latched until the
    /// next rollover).
    pub fn suspected(&self) -> CompSet {
        self.suspected
    }

    /// Components whose conviction was ever accepted for reporting.
    pub fn reported(&self) -> CompSet {
        self.reported
    }

    /// Components quarantined so far.
    pub fn quarantined(&self) -> CompSet {
        self.quarantined
    }

    /// Components currently parked in the admission deferral queue.
    pub fn deferred(&self) -> CompSet {
        self.deferred
    }

    /// Components a stale-rehydrate driver has hidden from the FD.
    pub fn masked(&self) -> CompSet {
        self.masked
    }

    /// Cells a planner-bypassing driver restarted, in the order it did.
    pub fn rogue_cells(&self) -> &[NodeId] {
        &self.rogue_cells
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

/// Appends `n` to `key` in seven-bit groups, low first, the high bit set on
/// all but the last: small numbers take one byte, and no encoding is a
/// prefix of another.
fn push_varint(key: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        key.push(n as u8 | 0x80);
        n >>= 7;
    }
    key.push(n as u8);
}

/// The index of `name` in the sorted `components`, if it is one.
fn index_in(components: &[String], name: &str) -> Option<usize> {
    components.binary_search_by(|c| c.as_str().cmp(name)).ok()
}

/// A restart tree bound to a scenario: the transition system the checker
/// explores.
pub struct Model {
    tree: RestartTree,
    /// Every component of `tree`, sorted: bit `i` of a [`CompSet`] and the
    /// `i`-th restart count in a [`State::signature`] stand for the `i`-th.
    components: Vec<String>,
    /// `components`' interned handles, for the restart counts.
    comp_ids: Vec<CompId>,
    /// The bytes of a [`CompSet`] a signature writes: enough for every
    /// component.
    mask_bytes: usize,
    /// Every live cell, by id, with the components restarting it restarts.
    /// A cell's position here is its rank in a signature.
    cells: Vec<(NodeId, CompSet)>,
    faults: Vec<Failure>,
    /// Per fault: the index of its component, and its cure set.
    fault_comps: Vec<usize>,
    cure_sets: Vec<CompSet>,
    /// Per component: the first fault manifesting in it, if any.
    fault_of: Vec<Option<usize>>,
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
    /// Returns a [`ModelError`] naming the first unknown component, or if the
    /// tree has more components than a [`CompSet`] holds (64).
    pub fn new(tree: RestartTree, scenario: &Scenario) -> Result<Model, ModelError> {
        let components = tree.components();
        if components.len() > CompSet::CAPACITY {
            return Err(ModelError {
                message: format!(
                    "the tree has {} components; a model holds at most {}",
                    components.len(),
                    CompSet::CAPACITY
                ),
                depth: None,
            });
        }
        let index = |name: &str| {
            index_in(&components, name)
                .unwrap_or_else(|| unreachable!("`{name}` is a component of the tree"))
        };
        let set_of = |names: &[String]| {
            let mut set = CompSet::default();
            for name in names {
                set.insert(index(name));
            }
            set
        };
        let mut faults = Vec::new();
        let mut fault_comps = Vec::new();
        let mut cure_sets = Vec::new();
        let mut fault_of = vec![None; components.len()];
        for spec in &scenario.faults {
            for member in std::iter::once(&spec.component).chain(&spec.cure_set) {
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
            let comp = index(&spec.component);
            fault_of[comp].get_or_insert(faults.len());
            fault_comps.push(comp);
            cure_sets.push(set_of(&spec.cure_set));
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
        let mut cells: Vec<(NodeId, CompSet)> = tree
            .cells()
            .into_iter()
            .map(|cell| (cell, set_of(&tree.components_under(cell))))
            .collect();
        cells.sort_unstable_by_key(|&(cell, _)| cell);
        Ok(Model {
            comp_ids: components.iter().map(|name| intern(name)).collect(),
            mask_bytes: components.len().div_ceil(8),
            components,
            cells,
            tree,
            faults,
            fault_comps,
            cure_sets,
            fault_of,
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

    /// Every component of the tree, sorted: the members a [`CompSet`]'s
    /// indices name.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// The index of component `name` into [`Model::components`].
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a component of the tree.
    pub(crate) fn component_index(&self, name: &str) -> usize {
        index_in(&self.components, name)
            .unwrap_or_else(|| panic!("`{name}` is not a component of the tree"))
    }

    /// The first fault manifesting in component `comp`, if any.
    pub(crate) fn fault_of(&self, comp: usize) -> Option<usize> {
        self.fault_of[comp]
    }

    /// The rank of `cell` among the tree's live cells.
    fn cell_rank(&self, cell: NodeId) -> usize {
        self.cells
            .binary_search_by_key(&cell, |&(id, _)| id)
            .unwrap_or_else(|_| panic!("not a live cell: {cell}"))
    }

    /// The components restarting `cell` restarts.
    fn under(&self, cell: NodeId) -> CompSet {
        self.cells[self.cell_rank(cell)].1
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
            suspected: CompSet::default(),
            reported: CompSet::default(),
            quarantined: CompSet::default(),
            deferred: CompSet::default(),
            masked: CompSet::default(),
            rogue_cells: Vec::new(),
            step: 0,
        }
    }

    fn fault_index(&self, component: &str) -> Option<usize> {
        self.faults.iter().position(|f| f.component == component)
    }

    /// The components currently down and eligible for (re-)conviction.
    fn suspect_targets(&self, state: &State) -> Vec<String> {
        let ineligible = state
            .suspected
            .union(state.quarantined)
            .union(state.deferred)
            .union(state.masked);
        self.faults
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                state.fault_status[i] == FaultStatus::Active
                    && !ineligible.contains(self.fault_comps[i])
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
            for comp in state.deferred.iter() {
                actions.push(Action::Admit {
                    component: self.components[comp].clone(),
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
                let i = self.expect_fault(component);
                next.suspected.insert(self.fault_comps[i]);
                next.reported.insert(self.fault_comps[i]);
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
                    let i = self.expect_fault(component);
                    next.suspected.insert(self.fault_comps[i]);
                    next.reported.insert(self.fault_comps[i]);
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
                let covered = self.under(cell);
                for (i, cure) in self.cure_sets.iter().enumerate() {
                    if next.fault_status[i] == FaultStatus::Active && cure.is_subset(covered) {
                        next.fault_status[i] = FaultStatus::Cured;
                    }
                }
                // A cold boot rebuilds state from scratch, so it also cures
                // whatever a stale rehydration left masked in this cell.
                next.masked = next.masked.minus(covered);
            }
            Action::CompleteRehydrated { owner } => {
                let cell = next
                    .in_flight_cell_of(owner)
                    .unwrap_or_else(|| panic!("rehydrated complete enabled for {owner}"));
                next.rec.on_restart_complete(owner, now);
                let covered = self.under(cell);
                for (i, cure) in self.cure_sets.iter().enumerate() {
                    if next.fault_status[i] == FaultStatus::Active && cure.is_subset(covered) {
                        if self.mutation == Some(Mutation::StaleRehydrate) {
                            // Unverified replay: the component resumes from
                            // a stale checkpoint and beacons healthily, but
                            // the fault survives in the resurrected state —
                            // the FD can no longer see it.
                            next.masked.insert(self.fault_comps[i]);
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
                next.suspected = CompSet::default();
            }
            Action::Defer { component } => {
                let comp = self.fault_comps[self.expect_fault(component)];
                next.suspected.insert(comp);
                next.reported.insert(comp);
                next.deferred.insert(comp);
            }
            Action::Admit { component } => {
                let i = self.expect_fault(component);
                next.deferred.remove(self.fault_comps[i]);
                if next.fault_status[i] == FaultStatus::Active
                    && !next.quarantined.contains(self.fault_comps[i])
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
                        if next.quarantined.contains(self.component_index(origin)) {
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
            let tracked_before = self.tracked_origins(before);
            let tracked_after = self.tracked_origins(next);
            for comp in tracked_before.minus(tracked_after).iter() {
                next.quarantined.insert(comp);
                if let Some(i) = self.fault_of[comp] {
                    if next.fault_status[i] == FaultStatus::Active {
                        next.fault_status[i] = FaultStatus::Quarantined;
                    }
                }
            }
            // A suspicion refused on arrival never had an episode: the
            // give-up decision's component covers it below via `reported`.
            for (i, &comp) in self.fault_comps.iter().enumerate() {
                if next.fault_status[i] == FaultStatus::Active
                    && next.reported.contains(comp)
                    && !next.deferred.contains(comp)
                    && !tracked_after.contains(comp)
                    && !self.covered_in_flight(next, comp)
                {
                    next.quarantined.insert(comp);
                    next.fault_status[i] = FaultStatus::Quarantined;
                }
            }
        }
        Ok(())
    }

    fn tracked_origins(&self, state: &State) -> CompSet {
        let mut tracked = CompSet::default();
        for ep in state.rec.open_episodes() {
            for origin in ep.origins {
                tracked.insert(self.component_index(origin));
            }
        }
        tracked
    }

    fn covered_in_flight(&self, state: &State, comp: usize) -> bool {
        state
            .rec
            .open_episodes()
            .any(|ep| ep.in_flight && ep.cell.is_some_and(|cell| self.under(cell).contains(comp)))
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
        if let Some(escapee) = before.quarantined.minus(next.quarantined).iter().next() {
            return Err(Violation {
                kind: ViolationKind::QuarantineRegressed,
                detail: format!("`{}` left quarantine", self.components[escapee]),
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
            let comp = self.component_index(component);
            let resolved = self.fault_of[comp]
                .is_some_and(|i| matches!(next.fault_status[i], FaultStatus::Cured));
            if !next.tracks(component)
                && !self.covered_in_flight(next, comp)
                && !next.quarantined.contains(comp)
                && !next.deferred.contains(comp)
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
        for comp in state.deferred.iter() {
            if self.fault_of[comp].is_some_and(|i| state.fault_status[i] == FaultStatus::Active) {
                return Err(Violation {
                    kind: ViolationKind::Starvation,
                    detail: format!(
                        "deferred restart for `{}` was never admitted; the component starves \
                         in the queue",
                        self.components[comp]
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

    /// A tree of `n` components `c00`, `c01`, ... under one cell.
    fn flat_tree(n: usize) -> RestartTree {
        TreeSpec::cell("root")
            .with_components((0..n).map(|i| format!("c{i:02}")))
            .build()
            .unwrap()
    }

    #[test]
    fn a_tree_wider_than_a_component_set_is_refused() {
        let s = scenario::parse("tree IV\nfault c00\n").unwrap();
        let err = Model::new(flat_tree(65), &s).err().expect("65 components");
        assert!(err.message.contains("65 components"), "{err}");
        // The widest tree a set holds keeps its last component's bit.
        let s = scenario::parse("tree IV\nfault c63\n").unwrap();
        let m = Model::new(flat_tree(64), &s).unwrap();
        let mut state = m.initial();
        for action in [
            Action::Inject {
                component: "c63".into(),
            },
            Action::Suspect {
                component: "c63".into(),
            },
        ] {
            state = m.apply(&state, &action).unwrap();
        }
        assert_eq!(state.reported().iter().collect::<Vec<_>>(), [63]);
        assert!(state.suspected().contains(m.component_index("c63")));
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
        assert!(s.deferred().contains(m.component_index("pbcom")));
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
        assert!(s.masked().contains(m.component_index("rtu")));
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
