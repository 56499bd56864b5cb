//! rr-flow: static action-independence analysis for the recovery protocol,
//! and the ample-set partial-order reduction it feeds.
//!
//! The checker's action alphabet (inject / suspect / suspect-batch /
//! complete / complete-rehydrated / confirm / rollover / defer / admit) acts
//! on well-separated pieces of protocol state: a fault's lifecycle slot, a
//! component's suspicion latch, an episode's plan-queue slot (a restart
//! cell), the admission deferral queue, the stale-rehydrate mask. Which
//! cells an action can ever touch is a *static* property of the tree, the
//! oracle and the fault set: the oracle is stateless, so the full escalation
//! chain of every fault — first recommendation, then parent per re-detection
//! up to the first cell covering the cure set — is computable before
//! exploration starts. Two actions are independent iff their footprints are
//! disjoint under the §3.2 tree algebra: two cells interfere iff one is an
//! ancestor of the other ([`rr_core::tree::RestartTree::overlaps`]), because
//! that is exactly when the planner's LCA merge promotion entangles their
//! episodes.
//!
//! [`FlowContext::ample`] turns the analysis into an **ample set** for the
//! checker: at each state it proposes (at most) one enabled action whose
//! singleton preserves every checked property — the pruned interleavings
//! either commute with it outright or differ from the kept one only by a
//! stutter (a transient detector-latch set that converges at the next
//! rollover). The candidate classes, in priority order, each with the
//! argument for why nothing observable is lost:
//!
//! 1. **Terminal tail** — every fault is cured or quarantined. The only
//!    enabled actions are completions that cure nothing, confirmations,
//!    pure-dequeue admits and latch-clearing rollovers, all pairwise
//!    commuting forever; any one of them is ample. Collapses the k! orders
//!    of the end-game to a single path.
//! 2. **Confirm** — the episode's origins are all cured, so they are never
//!    re-reported, never merged (the planner merges in-flight episodes
//!    only), and never quarantined; confirmation touches nothing any other
//!    action reads.
//! 3. **Inject** — an injection only flips its own fault pending → active
//!    and arms its suspectability bit; the readers of that bit (the
//!    fault's own detection, batches containing it) only become enabled in
//!    the ample successor's future, and completions cure exactly their
//!    reported origins, so both inject orders and the inject/complete
//!    orders converge. Mutation-free scenarios only, and stood down while
//!    admission moves are enabled.
//! 4. **Quiet-phase complete** — every suspicion the detector could fire
//!    targets a component covered by an in-flight restart, so each one is
//!    an AlreadyRecovering latch write (stutter); completions of distinct
//!    episodes cure disjoint fault sets (two antichain-incomparable cells
//!    cannot cover the same component). Serialize on the first completion.
//! 5. **Serialized detection** — the live faults are pairwise independent
//!    (no chain cell of one overlaps another's interference footprint):
//!    separate cells, separate episodes, no reachable LCA merge, and a
//!    correlated batch decomposes into the sequential suspicions. Fire the
//!    first fresh suspicion; all orders converge to the same signature.
//! 6. **Single-cell detection** — every live fault's chain is one shared
//!    cell (tree I's shape), so every suspicion and batch plans or joins
//!    the episode at that cell with origins accumulating; orders converge.
//! 7. **Stale-latch rollover** — nothing in flight and every latched
//!    component's fault is terminal: the rollover clears latches that can
//!    never re-fire and cannot escalate or re-arm anything the
//!    alternatives depend on.
//! 8. **Complete** — ample iff the episode's cell overlaps no cell in any
//!    non-terminal fault's escalation chain. Then completing cures and
//!    unmasks nothing (a covering cell would overlap the chain), no future
//!    plan or merge can reach the cell (merge targets stay within chain
//!    cells and the in-flight antichain), and the rehydrated twin produces
//!    a signature-identical successor, so exploring one of the pair loses
//!    nothing.
//! 9. **Rollover** — ample iff nothing can be suspected: no current
//!    targets, no pending injection to create one, and no masked component
//!    that an in-flight completion could unmask into one.
//! 10. **Suspect, single actor** — ample iff this is the only suspectable
//!     component, every other fault is terminal, no latch is set (else
//!     rollover is enabled and the pair does not commute), nothing is in
//!     flight or deferred, and the admission controller is off (else the
//!     defer alternative is mutually disabling). Serializes the
//!     suspect → complete → re-suspect escalation chains that dominate the
//!     naive-oracle state space.
//! 11. **Admit, single actor** — the drain-step analogue of 10.
//!
//! Classes 3–7 are *effect-equivalence* reductions, not textbook persistent
//! sets: the epoch rollover couples every detector latch, so condition C1
//! fails formally even where the pruned orders provably converge. Their
//! justification is the confluence arguments above plus the differential
//! property suite, which replays every tree × oracle × mutation flavour
//! with the reduction on and off and demands identical verdicts. They are
//! therefore gated to mutation-free scenarios with no admission move
//! enabled, where the convergence arguments hold unconditionally.
//!
//! When the scenario seeds a [`Mutation`], the chains are extended
//! conservatively to the root: a stale rehydration can strand an episode
//! above its cure cell, so the tight chain bound no longer holds. Reduction
//! on mutated scenarios is mostly disabled — their violations are shallow
//! and found by probing anyway (the checker applies *every* enabled action
//! at every visited state; only recursion is pruned).
//!
//! [`Mutation`]: crate::scenario::Mutation
//!
//! [`analyze`] renders the same footprint model as a report: per-fault
//! escalation chains, the template-level dependence matrix, and the
//! fault-interference graph (RRL95x lints and the `rr-audit flow` audit
//! consume it). A scenario's [`PorAssumption`] deliberately falsifies both
//! the matrix and the ample choice — the differential mode must catch the
//! drift, which is the por-unsound fixture's job.
//!
//! Soundness caveats are spelled out in DESIGN.md §16: the cycle-closing
//! proviso for liveness lives in the checker (a reduced successor on the
//! current DFS path forces full expansion), and the differential suite
//! validates verdict equality on every tree × oracle × mutation flavour.

use std::collections::{BTreeMap, BTreeSet};

use rr_core::oracle::{Failure, Oracle};
use rr_core::tree::{NodeId, RestartTree};

use crate::machine::{Action, FaultStatus, Model, ModelOracle, State, MODEL_ESCALATION_LIMIT};
use crate::scenario::PorAssumption;

/// `true` if restarting `cell` restarts every component in `set`.
fn cell_covers_set(tree: &RestartTree, cell: NodeId, set: &[String]) -> bool {
    set.iter().all(|c| tree.covers(cell, c))
}

/// The cells `failure`'s episode can ever occupy: the oracle's first
/// recommendation, then one parent per re-detection, up to and including the
/// first cell whose subtree covers the whole cure set (a completed restart
/// there cures the fault, so escalation never passes it). With `to_root`
/// the chain runs all the way up regardless — the conservative bound used
/// when a mutation can strand an uncured fault above its cure cell.
fn escalation_chain(
    tree: &RestartTree,
    mut oracle: ModelOracle,
    failure: &Failure,
    to_root: bool,
) -> Vec<NodeId> {
    let mut chain = vec![oracle.recommend(tree, failure, 0, None)];
    loop {
        let last = *chain
            .last()
            .unwrap_or_else(|| unreachable!("chain nonempty"));
        if cell_covers_set(tree, last, &failure.cure_set) && !to_root {
            break;
        }
        match tree.parent(last) {
            Some(parent) => chain.push(parent),
            None => break,
        }
    }
    chain
}

/// The precomputed dependence data [`FlowContext::ample`] consults at every
/// explored state. Built once per [`Model`]; everything here is derived from
/// the tree, the (stateless) oracle and the fault set alone.
pub struct FlowContext {
    /// Per fault (index-aligned with [`Model::faults`]): its escalation
    /// chain of cells.
    chains: Vec<Vec<NodeId>>,
    /// Per fault: every cell that overlaps some chain cell — the fault's
    /// full interference footprint under the §3.2 algebra.
    interferes: Vec<BTreeSet<NodeId>>,
    /// `chain_covers_cure[j][i]`: some cell in fault `j`'s chain covers
    /// fault `i`'s entire cure set (so a completion of `j`'s episode could
    /// cure `i`).
    chain_covers_cure: Vec<Vec<bool>>,
    por_assume: Option<PorAssumption>,
}

impl FlowContext {
    /// Precomputes the dependence data for `model`.
    pub fn new(model: &Model) -> FlowContext {
        let tree = model.tree();
        let conservative = model.mutation().is_some();
        let chains: Vec<Vec<NodeId>> = model
            .faults()
            .iter()
            .map(|f| escalation_chain(tree, model.oracle(), f, conservative))
            .collect();
        let cells = tree.cells();
        let interferes: Vec<BTreeSet<NodeId>> = chains
            .iter()
            .map(|chain| {
                cells
                    .iter()
                    .copied()
                    .filter(|&c| chain.iter().any(|&d| tree.overlaps(c, d)))
                    .collect()
            })
            .collect();
        let covering_cells: Vec<BTreeSet<NodeId>> = model
            .faults()
            .iter()
            .map(|f| {
                cells
                    .iter()
                    .copied()
                    .filter(|&c| cell_covers_set(tree, c, &f.cure_set))
                    .collect()
            })
            .collect();
        let chain_covers_cure: Vec<Vec<bool>> = chains
            .iter()
            .map(|chain| {
                covering_cells
                    .iter()
                    .map(|covers| chain.iter().any(|c| covers.contains(c)))
                    .collect()
            })
            .collect();
        FlowContext {
            chains,
            interferes,
            chain_covers_cure,
            por_assume: model.por_assume(),
        }
    }

    /// The escalation chains, for reporting.
    pub fn chains(&self) -> &[Vec<NodeId>] {
        &self.chains
    }

    /// Proposes the index (into `actions`) of an enabled action whose
    /// singleton is a sound ample set in `state`, or `None` if no candidate
    /// class matches and the checker must expand fully. `actions` must be
    /// exactly `model.enabled(state)`.
    pub fn ample(&self, model: &Model, state: &State, actions: &[Action]) -> Option<usize> {
        // The deliberately unsound fixture override: pretend suspicions
        // commute with everything, pruning the defer/batch alternatives.
        if self.por_assume == Some(PorAssumption::SuspectsIndependent) {
            if let Some(i) = actions
                .iter()
                .position(|a| matches!(a, Action::Suspect { .. }))
            {
                return Some(i);
            }
        }
        let non_terminal: Vec<usize> = (0..model.faults().len())
            .filter(|&i| {
                matches!(
                    state.fault_status(i),
                    FaultStatus::Pending | FaultStatus::Active
                )
            })
            .collect();

        // 1. Terminal tail: every remaining action commutes with every
        // other, now and forever. Any one of them is ample.
        if non_terminal.is_empty() {
            return Some(0);
        }

        // 2. Confirm: cured origins are never re-reported or merged.
        if let Some(i) = actions
            .iter()
            .position(|a| matches!(a, Action::Confirm { .. }))
        {
            return Some(i);
        }

        let any_pending = non_terminal
            .iter()
            .any(|&j| state.fault_status(j) == FaultStatus::Pending);
        let no_queue_moves = !actions
            .iter()
            .any(|a| matches!(a, Action::Defer { .. } | Action::Admit { .. }));

        // 3. Inject serialization: an injection only flips its own fault
        // from pending to active and arms its suspectability bit. The
        // readers of that bit — the fault's own detection, and batches
        // containing it — only become enabled *after* the injection, i.e.
        // in the ample successor's future, which the reduced search keeps.
        // Completions never touch it: a restart cures exactly the origins
        // reported to its episode, so a fault injected before or after a
        // completion ends up in the same slot either way. Orders with other
        // injections converge to the same signature outright. Mutated
        // drivers (dropped reports, rogue plans) make detection effects
        // order-sensitive, so the class keeps the shared mutation-free
        // gate; admission moves reorder the queue injections feed, so they
        // disable it too.
        if model.mutation().is_none() && no_queue_moves {
            if let Some(i) = actions
                .iter()
                .position(|a| matches!(a, Action::Inject { .. }))
            {
                return Some(i);
            }
        }

        // Classes 4–7 prune the failure-detector latch noise. They share a
        // gate: mutation-free scenario (a mutated driver distorts
        // suspect/complete effects — rogue plans, stale masks — so every
        // latch write may matter), every fault injected, and no admission
        // moves enabled (defer/admit reorder the queue the latches feed).
        // Probing still applies every pruned action at every visited state.
        if model.mutation().is_none() && !any_pending && no_queue_moves {
            let flights = state.in_flight_cells();
            let tree = model.tree();
            let covered = |c: &str| flights.iter().any(|&cell| tree.covers(cell, c));

            // 4. Quiet phase: every suspicion the detector could fire
            // targets a component already covered by an in-flight restart,
            // so the recoverer would answer AlreadyRecovering — each such
            // suspect is a pure latch write whose only observable effect is
            // delaying its own re-firing to the next epoch (a stutter under
            // every checked property). Completions are the only progress
            // actions, they cure pairwise disjoint fault sets (two
            // antichain-incomparable cells cannot cover the same
            // component), and the suspicion/rollover latch cluster commutes
            // around them up to that stutter. Serialize on the first
            // completion and prune the latch noise.
            let suspects_noop = actions.iter().all(|a| match a {
                Action::Suspect { component } => covered(component),
                Action::SuspectBatch { components } => components.iter().all(|c| covered(c)),
                _ => true,
            });
            if suspects_noop {
                if let Some(i) = actions.iter().position(|a| {
                    matches!(
                        a,
                        Action::Complete { .. } | Action::CompleteRehydrated { .. }
                    )
                }) {
                    return Some(i);
                }
            }

            // 5. Serialized detection: when the live faults are pairwise
            // independent (no chain cell of one overlaps the interference
            // footprint of another), their suspicions commute — separate
            // cells, separate episodes, no LCA merge is reachable, and a
            // correlated batch decomposes into the sequential suspicions
            // (same episodes, same latches). Fire the first suspicion of a
            // not-yet-covered fault; the pruned orders and the batch
            // converge to the same signature.
            let independent = non_terminal.iter().all(|&i| {
                non_terminal.iter().all(|&j| {
                    i == j
                        || self.chains[i]
                            .iter()
                            .all(|c| !self.interferes[j].contains(c))
                })
            });
            if independent {
                if let Some(i) = actions
                    .iter()
                    .position(|a| matches!(a, Action::Suspect { component } if !covered(component)))
                {
                    return Some(i);
                }
            }

            // 6. Single-cell detection: every live fault's chain is the
            // same lone cell (tree I's shape — one restart group), so
            // every suspicion and every batch plans or joins an episode at
            // that one cell with its origins accumulating. Any firing
            // order, and the batch, converge to the same episode state;
            // serialize on the first fresh suspicion.
            let lone_cell = self
                .chains
                .first()
                .and_then(|c| (c.len() == 1).then(|| c[0]));
            let single_cell = lone_cell.is_some_and(|cell| {
                non_terminal
                    .iter()
                    .all(|&i| self.chains[i].len() == 1 && self.chains[i][0] == cell)
            });
            if single_cell {
                if let Some(i) = actions
                    .iter()
                    .position(|a| matches!(a, Action::Suspect { component } if !covered(component)))
                {
                    return Some(i);
                }
            }

            // 7. Stale-latch rollover: nothing is in flight and every
            // latched component's fault is already terminal, so this
            // rollover only clears latches that can never re-fire — it
            // cannot escalate an episode or re-arm a live suspicion the
            // alternatives depend on. The remaining alternatives (fresh
            // suspicions of live faults) commute with it up to the
            // transient latch set.
            if flights.is_empty() {
                let latched_terminal = state.suspected().iter().all(|comp| {
                    match model.faults().iter().position(|f| f.component == *comp) {
                        Some(j) => !matches!(
                            state.fault_status(j),
                            FaultStatus::Pending | FaultStatus::Active
                        ),
                        None => true,
                    }
                });
                if latched_terminal {
                    if let Some(i) = actions.iter().position(|a| matches!(a, Action::Rollover)) {
                        return Some(i);
                    }
                }
            }
        }

        // 8. Complete whose cell is outside every live chain's footprint.
        for (i, action) in actions.iter().enumerate() {
            if let Action::Complete { owner } = action {
                let Some(cell) = state.in_flight_cell_of(owner) else {
                    continue;
                };
                if non_terminal
                    .iter()
                    .all(|&j| !self.interferes[j].contains(&cell))
                {
                    return Some(i);
                }
            }
        }

        let any_suspectable = actions
            .iter()
            .any(|a| matches!(a, Action::Suspect { .. } | Action::Defer { .. }));

        // 9. Rollover that cannot race a suspicion: no target exists and
        // none can appear before the latches clear.
        if !any_suspectable && !any_pending {
            let unmaskable = !state.masked().is_empty() && !state.in_flight_cells().is_empty();
            if !unmaskable {
                if let Some(i) = actions.iter().position(|a| matches!(a, Action::Rollover)) {
                    return Some(i);
                }
            }
        }

        // 10. Single-actor suspect: the lone live fault walking its
        // escalation chain with nothing else in motion.
        if !model.admission()
            && state.suspected().is_empty()
            && state.deferred().is_empty()
            && state.in_flight_cells().is_empty()
        {
            let suspects: Vec<usize> = actions
                .iter()
                .enumerate()
                .filter(|(_, a)| matches!(a, Action::Suspect { .. }))
                .map(|(i, _)| i)
                .collect();
            if let [lone] = suspects[..] {
                if let Action::Suspect { component } = &actions[lone] {
                    let lone_live = non_terminal.len() == 1
                        && model.faults()[non_terminal[0]].component == *component;
                    if lone_live {
                        return Some(lone);
                    }
                }
            }
        }

        // 11. Single-actor admit: the drain-step analogue of 10.
        if !any_suspectable
            && !any_pending
            && state.deferred().len() == 1
            && state.in_flight_cells().is_empty()
        {
            for (i, action) in actions.iter().enumerate() {
                if let Action::Admit { component } = action {
                    let lone_live = non_terminal
                        .iter()
                        .all(|&j| model.faults()[j].component == *component);
                    if lone_live {
                        return Some(i);
                    }
                }
            }
        }

        None
    }
}

/// The static dependence report: what [`FlowContext`] knows, rendered for
/// the RRL95x lints, the `rr-audit flow` audit and the property suites.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowAnalysis {
    /// Fault components, in scenario declaration order.
    pub faults: Vec<String>,
    /// Per fault: the escalation chain as `(cell label, covers-cure-set)`
    /// pairs, first recommendation first.
    pub chains: Vec<Vec<(String, bool)>>,
    /// The escalation limit the bound policy gives up at — chains must
    /// reach a covering cell within this many attempts or the fault can
    /// only quarantine.
    pub escalation_limit: usize,
    /// Action templates, one per action class × fault the scenario can
    /// produce (labelled like trace marks: `inject:rtu`, `detect:rtu`, …),
    /// plus the global `epoch:rollover`.
    pub templates: Vec<String>,
    /// `dependent[a][b]`: templates `a` and `b` share a footprint resource
    /// with a conflicting access. Symmetric with a true diagonal — unless a
    /// [`PorAssumption`] deliberately broke it.
    pub dependent: Vec<Vec<bool>>,
    /// `fault_interference[i][j]`: the two faults' chains contain
    /// overlapping cells, so their episodes can entangle via LCA merge
    /// promotion. Symmetric, true diagonal.
    pub fault_interference: Vec<Vec<bool>>,
}

/// The protocol resources an action template reads or writes. Cell-granular
/// where the tree algebra is the arbiter (episode slots), component- or
/// fault-granular elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Resource {
    /// Fault `i`'s lifecycle slot (pending / active / cured / quarantined).
    Fault(usize),
    /// Fault `i`'s suspicion latch.
    Latch(usize),
    /// Component `i`'s batch-membership bit: whether `i` is currently
    /// suspectable. A batch suspicion exists exactly for the set of raised
    /// bits, so actions that flip a bit conflict with suspicions that read
    /// it — but a suspicion only *reads* the bits of components whose
    /// escalation chains interfere with its own (a batch over disjoint
    /// chains plans exactly like sequential solo suspicions, so its
    /// membership is immaterial there).
    BatchBit(usize),
    /// The episode plan-queue slot at a restart cell.
    Episode(NodeId),
    /// Fault `i`'s slot in the admission deferral queue.
    Deferral(usize),
    /// Fault `i`'s stale-rehydrate mask bit.
    Mask(usize),
}

/// How a template touches a resource. Two commuting writes (e.g. two
/// confirmations releasing disjoint episodes through the same queue) do not
/// conflict; a full write conflicts with everything but absence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Read,
    Commuting,
    Full,
}

fn conflicts(a: Access, b: Access) -> bool {
    a != b || a == Access::Full
}

/// Merges `access` into `fp`, keeping the strongest level per resource.
fn touch(fp: &mut BTreeMap<Resource, Access>, resource: Resource, access: Access) {
    let slot = fp.entry(resource).or_insert(access);
    let rank = |a: Access| match a {
        Access::Read => 0,
        Access::Commuting => 1,
        Access::Full => 2,
    };
    if rank(access) > rank(*slot) {
        *slot = access;
    }
}

/// Computes the static dependence report for `model` (see [`FlowAnalysis`]).
/// A batch suspicion's footprint is the union of its members' `detect`
/// templates, so the per-component templates cover the whole alphabet.
pub fn analyze(model: &Model) -> FlowAnalysis {
    let tree = model.tree();
    let ctx = FlowContext::new(model);
    let faults: Vec<String> = model.faults().iter().map(|f| f.component.clone()).collect();
    let chains: Vec<Vec<(String, bool)>> = model
        .faults()
        .iter()
        .zip(&ctx.chains)
        .map(|(f, chain)| {
            chain
                .iter()
                .map(|&c| {
                    (
                        tree.label(c).to_string(),
                        cell_covers_set(tree, c, &f.cure_set),
                    )
                })
                .collect()
        })
        .collect();

    let mut templates: Vec<String> = Vec::new();
    let mut footprints: Vec<BTreeMap<Resource, Access>> = Vec::new();
    let mut add = |label: String, fp: BTreeMap<Resource, Access>| {
        templates.push(label);
        footprints.push(fp);
    };
    for (i, fault) in model.faults().iter().enumerate() {
        let component = &fault.component;
        let chain = &ctx.chains[i];
        // The faults a completion of this chain could cure (or, under a
        // stale rehydration, mask).
        let curable: Vec<usize> = (0..model.faults().len())
            .filter(|&k| ctx.chain_covers_cure[i][k])
            .collect();

        // The merge partners whose batch membership this fault's suspicion
        // actually reads: only interference makes co-membership matter.
        let partners: Vec<usize> = (0..model.faults().len())
            .filter(|&k| k != i && ctx.chains[k].iter().any(|c| ctx.interferes[i].contains(c)))
            .collect();

        let mut fp = BTreeMap::new();
        touch(&mut fp, Resource::Fault(i), Access::Full);
        touch(&mut fp, Resource::BatchBit(i), Access::Full);
        add(format!("inject:{component}"), fp);

        let mut fp = BTreeMap::new();
        touch(&mut fp, Resource::Fault(i), Access::Read);
        touch(&mut fp, Resource::Latch(i), Access::Full);
        touch(&mut fp, Resource::BatchBit(i), Access::Full);
        for &k in &partners {
            touch(&mut fp, Resource::BatchBit(k), Access::Read);
        }
        for &c in chain {
            touch(&mut fp, Resource::Episode(c), Access::Full);
        }
        add(format!("detect:{component}"), fp);

        if model.admission() {
            let mut fp = BTreeMap::new();
            touch(&mut fp, Resource::Latch(i), Access::Full);
            touch(&mut fp, Resource::Deferral(i), Access::Full);
            touch(&mut fp, Resource::BatchBit(i), Access::Full);
            add(format!("defer:{component}"), fp);

            let mut fp = BTreeMap::new();
            touch(&mut fp, Resource::Deferral(i), Access::Full);
            touch(&mut fp, Resource::Fault(i), Access::Read);
            touch(&mut fp, Resource::BatchBit(i), Access::Full);
            for &c in chain {
                touch(&mut fp, Resource::Episode(c), Access::Full);
            }
            add(format!("admit:{component}"), fp);
        }

        let mut ready = BTreeMap::new();
        for &c in chain {
            touch(&mut ready, Resource::Episode(c), Access::Full);
        }
        for &k in &curable {
            // Curing (or unmasking) flips what is suspectable, hence the
            // cured components' batch-membership bits.
            touch(&mut ready, Resource::Fault(k), Access::Full);
            touch(&mut ready, Resource::Mask(k), Access::Full);
            touch(&mut ready, Resource::BatchBit(k), Access::Full);
        }
        add(format!("ready:{component}"), ready.clone());
        if model.rehydrate() {
            add(format!("rehydrate:{component}"), ready);
        }

        let mut fp = BTreeMap::new();
        for &c in chain {
            touch(&mut fp, Resource::Episode(c), Access::Commuting);
        }
        add(format!("cured:{component}"), fp);
    }
    let mut fp = BTreeMap::new();
    for i in 0..model.faults().len() {
        touch(&mut fp, Resource::Latch(i), Access::Full);
    }
    add("epoch:rollover".to_string(), fp);

    let n = templates.len();
    let mut dependent = vec![vec![false; n]; n];
    for a in 0..n {
        for b in 0..n {
            if a == b {
                // Reflexive-safe: an action never commutes with itself —
                // a sound reduction may drop orders, never occurrences.
                dependent[a][b] = true;
                continue;
            }
            dependent[a][b] = footprints[a].iter().any(|(resource, &acc_a)| {
                footprints[b]
                    .get(resource)
                    .is_some_and(|&acc_b| conflicts(acc_a, acc_b))
            });
        }
    }
    if model.por_assume() == Some(PorAssumption::SuspectsIndependent) {
        // The unsound fixture override, applied one-way: suspect rows are
        // zeroed but their columns are not, so the matrix turns asymmetric
        // — exactly the shape RRL953 rejects.
        for (idx, label) in templates.iter().enumerate() {
            if label.starts_with("detect:") {
                for cell in dependent[idx].iter_mut() {
                    *cell = false;
                }
            }
        }
    }

    let m = faults.len();
    let fault_interference: Vec<Vec<bool>> = (0..m)
        .map(|i| {
            (0..m)
                .map(|j| i == j || ctx.chains[i].iter().any(|c| ctx.interferes[j].contains(c)))
                .collect()
        })
        .collect();

    FlowAnalysis {
        faults,
        chains,
        escalation_limit: MODEL_ESCALATION_LIMIT as usize,
        templates,
        dependent,
        fault_interference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CheckConfig;
    use crate::scenario;
    use rr_core::tree::TreeSpec;

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

    fn labels(tree: &RestartTree, chain: &[NodeId]) -> Vec<String> {
        chain.iter().map(|&c| tree.label(c).to_string()).collect()
    }

    #[test]
    fn perfect_oracle_chain_is_the_lowest_cover() {
        let m = model("tree IV\nfault fedr cures fedr pbcom\n");
        let ctx = FlowContext::new(&m);
        assert_eq!(labels(m.tree(), &ctx.chains[0]), ["R_[fedr,pbcom]"]);
    }

    #[test]
    fn naive_oracle_chain_climbs_to_the_cure_cell() {
        let m = model("tree IV\noracle naive\nfault fedr cures fedr pbcom\n");
        let ctx = FlowContext::new(&m);
        assert_eq!(
            labels(m.tree(), &ctx.chains[0]),
            ["R_fedr", "R_[fedr,pbcom]"]
        );
    }

    #[test]
    fn mutations_extend_chains_conservatively_to_the_root() {
        let m = model("tree IV\nfault rtu\nmutate drop-report\n");
        let ctx = FlowContext::new(&m);
        assert_eq!(labels(m.tree(), &ctx.chains[0]), ["R_rtu", "mercury"]);
    }

    #[test]
    fn injection_is_ample_in_clean_scenarios_but_not_under_mutation() {
        // Injections only flip their own fault's slot: the initial state's
        // competing injections serialize on the first one, interfering cure
        // sets or not.
        for text in [
            "tree IV\nfault rtu\nfault ses\n",
            "tree IV\nfault pbcom\nfault fedr cures fedr pbcom\n",
        ] {
            let m = model(text);
            let ctx = FlowContext::new(&m);
            let s = m.initial();
            let actions = m.enabled(&s);
            let idx = ctx.ample(&m, &s, &actions).expect("injection is ample");
            assert_eq!(
                actions[idx],
                Action::Inject {
                    component: actions
                        .iter()
                        .find_map(|a| match a {
                            Action::Inject { component } => Some(component.clone()),
                            _ => None,
                        })
                        .expect("an injection is enabled initially"),
                }
            );
        }

        // A mutated driver makes detection effects order-sensitive, so the
        // class stands down and the checker explores both inject orders.
        let m = model("tree IV\nfault rtu\nfault ses\nmutate drop-report\n");
        let ctx = FlowContext::new(&m);
        let s = m.initial();
        let actions = m.enabled(&s);
        assert_eq!(ctx.ample(&m, &s, &actions), None);
    }

    #[test]
    fn por_assume_override_forces_the_suspect() {
        let m = model("tree IV\nadmission\nfault rtu\npor-assume suspects-independent\n");
        let ctx = FlowContext::new(&m);
        let s = m.initial();
        let s = m
            .apply(
                &s,
                &Action::Inject {
                    component: "rtu".into(),
                },
            )
            .unwrap();
        let actions = m.enabled(&s);
        assert!(actions.iter().any(|a| matches!(a, Action::Defer { .. })));
        let idx = ctx.ample(&m, &s, &actions).expect("override always fires");
        assert_eq!(
            actions[idx],
            Action::Suspect {
                component: "rtu".into()
            }
        );
    }

    #[test]
    fn analysis_matrix_is_symmetric_with_true_diagonal() {
        let m = model("tree IV\nadmission\nrehydrate\nfault pbcom\nfault fedr cures fedr pbcom\n");
        let a = analyze(&m);
        let n = a.templates.len();
        assert_eq!(a.dependent.len(), n);
        for r in 0..n {
            assert_eq!(a.dependent[r].len(), n);
            assert!(a.dependent[r][r], "{} must self-conflict", a.templates[r]);
            for c in 0..n {
                assert_eq!(
                    a.dependent[r][c], a.dependent[c][r],
                    "{} vs {}",
                    a.templates[r], a.templates[c]
                );
            }
        }
        // Interference witness: fedr's chain cell is pbcom's parent.
        assert!(a.fault_interference[0][1]);
        assert!(a.fault_interference[1][0]);
    }

    #[test]
    fn disjoint_faults_do_not_interfere() {
        let m = model("tree IV\nfault rtu\nfault ses\n");
        let a = analyze(&m);
        assert!(!a.fault_interference[0][1]);
        assert!(a.fault_interference[0][0]);
        // And their inject templates are independent.
        let rtu = a.templates.iter().position(|t| t == "inject:rtu").unwrap();
        let ready_ses = a.templates.iter().position(|t| t == "ready:ses").unwrap();
        assert!(!a.dependent[rtu][ready_ses]);
    }

    #[test]
    fn por_assume_breaks_the_matrix_asymmetrically() {
        let m = model("tree IV\nfault rtu\npor-assume suspects-independent\n");
        let a = analyze(&m);
        let detect = a.templates.iter().position(|t| t == "detect:rtu").unwrap();
        assert!(a.dependent[detect].iter().all(|&d| !d));
        let ready = a.templates.iter().position(|t| t == "ready:rtu").unwrap();
        assert!(a.dependent[ready][detect], "columns stay — asymmetric");
    }

    #[test]
    fn reduction_preserves_clean_verdicts_and_shrinks_the_space() {
        let text = "tree IV\nfault rtu\nfault ses\n";
        let m = model(text);
        let full = crate::checker::check(
            &m,
            &CheckConfig {
                por: false,
                ..CheckConfig::default()
            },
        )
        .unwrap();
        let reduced = crate::checker::check(&m, &CheckConfig::default()).unwrap();
        assert!(full.violation.is_none());
        assert!(reduced.violation.is_none());
        assert!(
            reduced.distinct_states < full.distinct_states,
            "reduced {} vs full {}",
            reduced.distinct_states,
            full.distinct_states
        );
        assert!(reduced.quiescent_states > 0, "liveness still checked");
    }
}
