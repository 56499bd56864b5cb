//! Exhaustive bounded exploration with minimal counterexamples.
//!
//! Iterative-deepening DFS over [`Model`] states: the checker explores every
//! interleaving of enabled actions up to a depth bound, deduplicating states
//! by their canonical [`State::signature`] (within one bound a signature is
//! re-expanded only when revisited with more remaining budget, which keeps
//! pruning sound per iteration). Because the depth bound grows one step at a
//! time and action order is deterministic, the **first** violation found has
//! a minimal-length trace, and [`replay`] can re-execute it step by step —
//! the counterexample is evidence, not just a claim.
//!
//! One table of distinct states, keyed by the full signature and kept across
//! all bounds, remembers what each state does (its enabled actions, their
//! successors or the violation one raised, the ample choice), so a state is
//! forked, stepped and signed once however often it is visited. That rests
//! on one assumption, the one deduplication always rested on: states of
//! equal signature behave equally (`tests/signature_equivalence.rs`).
//!
//! With [`CheckConfig::por`] on (the default) the search consults
//! [`FlowContext::ample`] at every expanded state: when the static analysis
//! certifies a singleton ample set, only that action is recursed into and
//! the remaining interleavings of the commuting cluster are pruned. Three
//! guards keep the reduction sound end to end:
//!
//! * **probing** — every enabled action is still *applied* at every expanded
//!   state, so safety violations surfacing in `apply` (antichain breaks,
//!   rogue restarts, suspicion loss) are caught even on pruned branches;
//!   only the recursion is reduced;
//! * **cycle proviso** — if the ample successor is already on the current
//!   DFS path, the state is expanded fully instead, so the
//!   liveness-under-fairness check cannot be starved around a reduced cycle
//!   (the protocol's state graph is in fact acyclic — every action bumps a
//!   monotone counter — so the proviso is insurance, not a hot path);
//! * **re-minimization** — a reduced search may reach a violation by a
//!   non-minimal trace, so [`check`] re-runs the *full* search bounded by
//!   the reduced trace's length and reports that counterexample, keeping
//!   minimized counterexamples byte-identical with and without reduction.

use std::rc::Rc;

use rr_sim::FxHashMap;

use crate::flow::FlowContext;
use crate::machine::{Action, Model, ModelError, State, Violation};

/// Exploration bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Maximum interleaving depth (protocol steps per trace).
    pub max_depth: usize,
    /// Hard cap on visited states; exceeding it aborts with an error (the
    /// RRL701 lint estimates this *before* running).
    pub state_budget: u64,
    /// Apply rr-flow's ample-set partial-order reduction (default). Turn
    /// off to force full interleaving exploration — the `--no-por` escape
    /// hatch and the reference side of the differential suite.
    pub por: bool,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            max_depth: crate::DEFAULT_DEPTH,
            state_budget: crate::DEFAULT_STATE_BUDGET,
            por: true,
        }
    }
}

/// A violating run: the broken invariant plus the minimal action trace that
/// reaches it from the initial state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The invariant that broke (or the liveness property).
    pub violation: Violation,
    /// The actions from the initial state, in order; replay with
    /// [`replay`].
    pub trace: Vec<Action>,
}

impl Counterexample {
    /// Renders the trace in the golden-trace line format
    /// (`<nanos> mark <label>`), one protocol step per second of virtual
    /// time, so CI prints counterexamples exactly like trace diffs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, action) in self.trace.iter().enumerate() {
            let nanos = (i as u64 + 1) * 1_000_000_000;
            out.push_str(&format!("{nanos} mark {}\n", action.label()));
        }
        out.push_str(&format!(
            "violation {}: {}\n",
            self.violation.kind.name(),
            self.violation.detail
        ));
        out
    }
}

/// What an exploration did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// States visited across all deepening iterations (with revisits).
    pub states_explored: u64,
    /// Distinct canonical signatures seen in the deepest iteration.
    pub distinct_states: u64,
    /// The depth bound actually explored.
    pub depth: usize,
    /// Quiescent states (no action enabled) that passed the liveness check.
    pub quiescent_states: u64,
    /// The first violation found, with its minimal trace.
    pub violation: Option<Counterexample>,
}

/// One distinct state: created the first time its signature is generated,
/// kept for every later visit at every bound.
struct Node {
    /// The first concrete state that reached the signature (not the one on
    /// the path of a later visit). Dropped once probed or found quiescent, so
    /// the table holds states only for the unexpanded frontier.
    state: Option<State>,
    /// `enabled(state)`, from the first visit.
    actions: Vec<Action>,
    known: Known,
}

/// What the table knows a node does.
enum Known {
    /// Generated by a probe, not visited yet.
    Nothing,
    /// Visited only where the depth ran out: some action is enabled.
    Enabled,
    /// No action is enabled; what the liveness check found wrong, if anything.
    Quiescent(Option<Violation>),
    /// Every enabled action applied cleanly: its successor's node id, in
    /// action order, and the ample choice.
    Successors {
        next: Rc<[usize]>,
        ample: Option<usize>,
    },
    /// `actions[at]` raised `violation`; no later action was applied.
    Violation { at: usize, violation: Violation },
}

/// The visit that overran the state budget.
struct BudgetExhausted;

struct Search<'m> {
    model: &'m Model,
    /// The ample-set oracle; `None` explores every interleaving.
    flow: Option<&'m FlowContext>,
    /// The table, and its index by full signature: equality on the whole
    /// string, so no two states are ever merged by a hash. Lookup-only
    /// (never iterated), so the deterministic `FxHashMap` is safe.
    nodes: Vec<Node>,
    index: FxHashMap<String, usize>,
    /// The one buffer every generated state is named in.
    key: String,
    /// Per bound, by node id: the most remaining depth the node was entered
    /// with; re-enter only with strictly more.
    seen: Vec<Option<usize>>,
    /// Per bound, by node id: on the current DFS path (the cycle proviso's
    /// witness set).
    on_stack: Vec<bool>,
    /// The current path as `(node, index into its actions)`.
    trace: Vec<(usize, usize)>,
    /// Visits left to this bound, and made in it.
    budget: u64,
    states_explored: u64,
    quiescent_states: u64,
}

impl Search<'_> {
    /// The node of `state`'s signature, created if this is its first
    /// generation.
    fn intern(&mut self, state: State) -> usize {
        self.key.clear();
        state.write_signature(self.model, &mut self.key);
        if let Some(&id) = self.index.get(self.key.as_str()) {
            return id;
        }
        let id = self.nodes.len();
        self.index.insert(self.key.clone(), id);
        self.nodes.push(Node {
            state: Some(state),
            actions: Vec::new(),
            known: Known::Nothing,
        });
        self.seen.push(None);
        self.on_stack.push(false);
        id
    }

    /// First visit: names the enabled actions and settles quiescence.
    fn visit(&mut self, id: usize) {
        let node = &mut self.nodes[id];
        let Some(state) = &node.state else {
            unreachable!("an unvisited node holds its state");
        };
        node.actions = self.model.enabled(state);
        if node.actions.is_empty() {
            node.known = Known::Quiescent(self.model.check_quiescent(state).err());
            node.state = None;
        } else {
            node.known = Known::Enabled;
        }
    }

    /// First expansion: applies *every* enabled action, so safety violations
    /// raised by `apply` are never missed even when recursion is pruned.
    fn probe(&mut self, id: usize) {
        let Some(state) = self.nodes[id].state.take() else {
            unreachable!("an unprobed node holds its state");
        };
        let actions = std::mem::take(&mut self.nodes[id].actions);
        let mut next = Vec::with_capacity(actions.len());
        let mut raised = None;
        for (at, action) in actions.iter().enumerate() {
            match self.model.apply(&state, action) {
                Ok(successor) => next.push(self.intern(successor)),
                Err(violation) => {
                    raised = Some(Known::Violation { at, violation });
                    break;
                }
            }
        }
        let known = raised.unwrap_or_else(|| Known::Successors {
            next: next.into(),
            ample: self
                .flow
                .and_then(|flow| flow.ample(self.model, &state, &actions)),
        });
        self.nodes[id].actions = actions;
        self.nodes[id].known = known;
    }

    /// The current path, extended by `last`, as the actions taken.
    fn counterexample(&self, last: Option<(usize, usize)>, violation: Violation) -> Counterexample {
        let trace = self
            .trace
            .iter()
            .chain(&last)
            .map(|&(node, at)| self.nodes[node].actions[at].clone())
            .collect();
        Counterexample { violation, trace }
    }

    fn dfs(
        &mut self,
        id: usize,
        remaining: usize,
    ) -> Result<Option<Counterexample>, BudgetExhausted> {
        self.states_explored += 1;
        if self.states_explored > self.budget {
            return Err(BudgetExhausted);
        }
        if let Known::Nothing = self.nodes[id].known {
            self.visit(id);
        }
        if let Known::Quiescent(stranded) = &self.nodes[id].known {
            self.quiescent_states += 1;
            let stranded = stranded.clone();
            return Ok(stranded.map(|violation| self.counterexample(None, violation)));
        }
        if remaining == 0 {
            return Ok(None);
        }
        // The probe is made, and read, only here: a node first seen where
        // the depth ran out is not expanded early.
        if let Known::Enabled = self.nodes[id].known {
            self.probe(id);
        }
        let (next, ample) = match &self.nodes[id].known {
            Known::Successors { next, ample } => (Rc::clone(next), *ample),
            Known::Violation { at, violation } => {
                return Ok(Some(
                    self.counterexample(Some((id, *at)), violation.clone()),
                ));
            }
            Known::Nothing | Known::Enabled | Known::Quiescent(_) => {
                unreachable!("probed above")
            }
        };
        let chosen = match ample {
            // Cycle proviso (liveness condition C3): a reduced step that
            // closes a cycle through the current path could postpone the
            // pruned actions forever; expand fully instead.
            Some(i) if !self.on_stack[next[i]] => i..i + 1,
            _ => 0..next.len(),
        };
        let left = remaining - 1;
        for at in chosen {
            let successor = next[at];
            if self.seen[successor].is_some_and(|had| had >= left) {
                continue;
            }
            self.seen[successor] = Some(left);
            self.trace.push((id, at));
            self.on_stack[successor] = true;
            let found = self.dfs(successor, left)?;
            self.on_stack[successor] = false;
            self.trace.pop();
            if found.is_some() {
                return Ok(found);
            }
        }
        Ok(None)
    }
}

fn explore(
    model: &Model,
    cfg: &CheckConfig,
    flow: Option<&FlowContext>,
) -> Result<CheckOutcome, ModelError> {
    let mut search = Search {
        model,
        flow,
        nodes: Vec::new(),
        index: FxHashMap::default(),
        key: String::new(),
        seen: Vec::new(),
        on_stack: Vec::new(),
        trace: Vec::new(),
        budget: 0,
        states_explored: 0,
        quiescent_states: 0,
    };
    let initial = search.intern(model.initial());
    search.on_stack[initial] = true;
    let mut outcome = CheckOutcome {
        states_explored: 0,
        distinct_states: 0,
        depth: 0,
        quiescent_states: 0,
        violation: None,
    };
    for bound in 1..=cfg.max_depth.max(1) {
        search.seen.fill(None);
        search.budget = cfg.state_budget.saturating_sub(outcome.states_explored);
        search.states_explored = 0;
        search.quiescent_states = 0;
        let found = search
            .dfs(initial, bound)
            .map_err(|BudgetExhausted| ModelError {
                message: format!(
                    "depth {bound}: state budget {} exhausted — shrink the scenario or raise \
                     the bound (rr-lint RRL701 estimates this up front)",
                    search.budget
                ),
                depth: Some(bound),
            })?;
        outcome.states_explored += search.states_explored;
        outcome.distinct_states = search.seen.iter().flatten().count() as u64 + 1;
        outcome.depth = bound;
        outcome.quiescent_states = search.quiescent_states;
        if let Some(counterexample) = found {
            outcome.violation = Some(counterexample);
            return Ok(outcome);
        }
    }
    Ok(outcome)
}

/// Exhaustively explores `model` up to `cfg.max_depth`, iterative-deepening
/// so the first counterexample found is minimal.
///
/// With `cfg.por` on, the search is reduced by rr-flow's ample sets (see the
/// module docs for the soundness guards). A violation found by the reduced
/// search is re-minimized by a full search bounded at the reduced trace's
/// length, so the reported counterexample is byte-identical to what full
/// exploration would print; if that re-run cannot complete within the state
/// budget, the reduced (still replayable, possibly non-minimal)
/// counterexample is reported instead.
///
/// A table node holds the first concrete state that reached its signature,
/// not the one on the reported path, so the violation reported is the one
/// the trace [`replay`]s to.
///
/// # Errors
///
/// Returns a [`ModelError`] if the state budget is exhausted before the
/// exploration completes, or if a counterexample does not replay to the kind
/// of violation the search found (states of equal signature behaved
/// differently: an internal error, never a pass).
pub fn check(model: &Model, cfg: &CheckConfig) -> Result<CheckOutcome, ModelError> {
    let flow = cfg.por.then(|| FlowContext::new(model));
    let mut outcome = explore(model, cfg, flow.as_ref())?;
    if let (true, Some(reduced_ce)) = (cfg.por, &outcome.violation) {
        let minimize = CheckConfig {
            max_depth: reduced_ce.trace.len(),
            state_budget: cfg.state_budget,
            por: false,
        };
        if let Ok(CheckOutcome {
            violation: Some(minimal),
            ..
        }) = explore(model, &minimize, None)
        {
            outcome.violation = Some(minimal);
        }
    }
    if let Some(found) = &mut outcome.violation {
        match replay(model, &found.trace) {
            Some(replayed) if replayed.kind == found.violation.kind => found.violation = replayed,
            replayed => {
                return Err(ModelError {
                    message: format!(
                        "internal: the search found {} but its trace replays to {replayed:?}:\n{}",
                        found.violation.kind.name(),
                        found.render()
                    ),
                    depth: None,
                });
            }
        }
    }
    Ok(outcome)
}

/// Re-executes a counterexample trace from the initial state, returning the
/// violation it reproduces (`None` if the trace no longer violates — i.e.
/// the counterexample went stale against the current code).
pub fn replay(model: &Model, trace: &[Action]) -> Option<Violation> {
    let mut state = model.initial();
    for action in trace {
        if !model.enabled(&state).contains(action) {
            return None;
        }
        match model.apply(&state, action) {
            Ok(next) => state = next,
            Err(violation) => return Some(violation),
        }
    }
    if model.enabled(&state).is_empty() {
        model.check_quiescent(&state).err()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Model, ViolationKind};
    use crate::scenario;
    use rr_core::tree::{RestartTree, TreeSpec};

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
    fn clean_scenario_explores_with_zero_violations() {
        let m = model("tree IV\nfault pbcom\nfault fedr cures fedr pbcom\n");
        let outcome = check(&m, &CheckConfig::default()).unwrap();
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(
            outcome.quiescent_states > 0,
            "liveness was actually checked"
        );
        assert!(outcome.distinct_states > 10);
    }

    #[test]
    fn naive_oracle_escalation_is_clean_too() {
        let m = model("tree IV\noracle naive\nfault fedr cures fedr pbcom\n");
        let outcome = check(&m, &CheckConfig::default()).unwrap();
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    }

    #[test]
    fn drop_report_yields_minimal_counterexample() {
        let m = model("tree IV\nfault rtu\nmutate drop-report\n");
        let outcome = check(&m, &CheckConfig::default()).unwrap();
        let ce = outcome.violation.expect("must be rejected");
        assert_eq!(ce.violation.kind, ViolationKind::ComponentLost);
        // Minimal: inject, then the dropped report. Nothing shorter exists.
        assert_eq!(ce.trace.len(), 2);
        assert_eq!(replay(&m, &ce.trace), Some(ce.violation.clone()));
        assert!(ce.render().contains("mark inject:rtu"));
        assert!(ce.render().contains("violation component-lost"));
    }

    #[test]
    fn bypass_planner_yields_replayable_counterexample() {
        let m = model("tree IV\nfault pbcom\nfault fedr cures fedr pbcom\nmutate bypass-planner\n");
        let outcome = check(&m, &CheckConfig::default()).unwrap();
        let ce = outcome.violation.expect("must be rejected");
        assert_eq!(replay(&m, &ce.trace), Some(ce.violation.clone()));
    }

    #[test]
    fn admission_scenario_explores_clean() {
        let m = model("tree IV\nadmission\nfault pbcom\nfault fedr cures fedr pbcom\n");
        let outcome = check(&m, &CheckConfig::default()).unwrap();
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.quiescent_states > 0);
    }

    #[test]
    fn starve_deferred_yields_minimal_starvation_counterexample() {
        let m = model("tree IV\nadmission\nfault rtu\nmutate starve-deferred\n");
        let outcome = check(&m, &CheckConfig::default()).unwrap();
        let ce = outcome.violation.expect("must be rejected");
        assert_eq!(ce.violation.kind, ViolationKind::Starvation);
        // Minimal: inject, defer, rollover — then the queue is stuck for good.
        assert_eq!(ce.trace.len(), 3);
        assert_eq!(replay(&m, &ce.trace), Some(ce.violation.clone()));
        assert!(ce.render().contains("mark defer:rtu"));
        assert!(ce.render().contains("violation deferred-starved"));
    }

    #[test]
    fn determinism_same_scenario_same_counterexample() {
        let text = "tree IV\nfault pbcom\nfault fedr cures fedr pbcom\nmutate bypass-planner\n";
        let a = check(&model(text), &CheckConfig::default()).unwrap();
        let b = check(&model(text), &CheckConfig::default()).unwrap();
        assert_eq!(a.violation, b.violation);
        assert_eq!(a.states_explored, b.states_explored);
    }

    #[test]
    fn state_budget_exhaustion_is_an_error_not_a_pass() {
        let m = model("tree IV\nfault pbcom\nfault rtu\nfault mbus\n");
        let tiny = CheckConfig {
            max_depth: 12,
            state_budget: 50,
            por: false,
        };
        let err = check(&m, &tiny).unwrap_err();
        let bound = err
            .depth
            .expect("a budget error carries the bound that tripped");
        assert!(
            err.message
                .starts_with(&format!("depth {bound}: state budget ")),
            "{err}"
        );
    }
}
