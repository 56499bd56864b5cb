//! The recoverer: turns failure reports into restart decisions (§3.3).
//!
//! "The restart tree plays a central role in keeping a recursively
//! restartable system alive, in conjunction with a recoverer, which performs
//! the actual restarts." The [`Recoverer`] here is execution-agnostic: it
//! owns the tree, an [`Oracle`] and a [`RestartPolicy`], tracks failure
//! *episodes*, and returns [`RecoveryDecision`]s. The caller (Mercury's `REC`
//! process, or rr-model's state machine) actually kills and respawns processes
//! and reports back.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use rr_sim::{SimDuration, SimTime};

use crate::deadline::DeadlineModel;
use crate::oracle::{Failure, Oracle, RestartOutcome};
use crate::policy::{GiveUpReason, RestartPolicy};
use crate::schedule::{plan_episodes, Suspicion};
use crate::tree::{NodeId, RestartTree};

/// What the recoverer wants done about a reported failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryDecision {
    /// Restart the given cell (i.e. all `components`, together).
    Restart {
        /// The cell whose button to push.
        node: NodeId,
        /// The components under that cell, in sorted order.
        components: Vec<String>,
        /// 0-based escalation attempt within the failure episode.
        attempt: u32,
        /// How long to wait before pushing the button (the policy's
        /// exponential backoff; zero unless backoff is configured and the
        /// cell was restarted recently).
        delay: SimDuration,
        /// The originating suspicions this episode answers. The first entry
        /// is the episode owner (its key for
        /// [`Recoverer::on_restart_complete`] / [`Recoverer::on_cured`]);
        /// any further entries are suspicions whose episodes were merged
        /// into this one by promotion to the least common ancestor, and
        /// whose previously-issued restarts are superseded.
        origins: Vec<String>,
    },
    /// A restart of a cell covering this component is already in flight;
    /// the new report is subsumed by it.
    AlreadyRecovering {
        /// The in-flight cell.
        node: NodeId,
    },
    /// The policy refused further restarts; escalate to a human operator.
    GiveUp {
        /// The component whose episode was abandoned.
        component: String,
        /// Why.
        reason: GiveUpReason,
    },
}

#[derive(Debug, Clone)]
struct Episode {
    failure: Failure,
    attempt: u32,
    last_node: Option<NodeId>,
    /// `true` once the restart has been issued but not yet completed.
    in_flight: bool,
    /// The suspicions this episode answers: just the owner, until an LCA
    /// merge folds other episodes' origins in.
    origins: BTreeSet<String>,
}

/// Aggregate counts of every decision the recoverer has made, in a shape
/// convenient for export into a telemetry registry (each field maps onto one
/// oracle-decision counter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionTally {
    /// Restarts issued (one per [`RecoveryDecision::Restart`]).
    pub restarts: u64,
    /// Episodes abandoned to quarantine.
    pub give_ups: u64,
    /// In-flight episodes absorbed into a promoted (LCA-merged) restart.
    pub merges: u64,
    /// Failure reports swallowed because a covering restart was already in
    /// flight.
    pub already_recovering: u64,
}

/// A borrowed view of one open failure episode, exposed for model checking
/// and invariant auditing ([`Recoverer::open_episodes`]).
///
/// A view carries everything an external checker needs to reconstruct the
/// protocol state — owner, escalation depth, target cell, in-flight flag and
/// merged origins — without reaching into the recoverer's internals and
/// without copying any of it.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeView<'a> {
    /// The episode's owner component (its key for completion and cure calls).
    pub owner: &'a str,
    /// 0-based escalation attempt the episode has reached.
    pub attempt: u32,
    /// The cell targeted by the latest restart, if one was issued.
    pub cell: Option<NodeId>,
    /// `true` while the latest restart is issued but not yet complete.
    pub in_flight: bool,
    /// The originating suspicions folded into this episode.
    pub origins: &'a BTreeSet<String>,
}

/// Tracks failure episodes and produces restart decisions.
///
/// Protocol, per failure episode:
///
/// 1. [`Recoverer::on_failure`] — returns the cell to restart (or a give-up).
/// 2. caller performs the restart, then calls
///    [`Recoverer::on_restart_complete`].
/// 3. if the failure re-manifests, another [`Recoverer::on_failure`]
///    escalates; if it does not, the caller confirms with
///    [`Recoverer::on_cured`], which also feeds the learning oracle.
///
/// A recoverer over a cloneable oracle is itself cloneable: the clone shares
/// only the immutable tree with the original, which is what lets a model
/// checker fork the *real* protocol implementation at a state and explore
/// every interleaving of the actions enabled there.
#[derive(Clone)]
pub struct Recoverer<O> {
    /// Behind an `Arc` (not `Rc`, so the recoverer stays `Send`): a fork
    /// copies the episodes and the restart history, never the tree.
    tree: Arc<RestartTree>,
    oracle: O,
    policy: RestartPolicy,
    /// Open episodes keyed by owner component. Ordered so that iteration
    /// (and therefore merge resolution and decision order) is deterministic.
    episodes: BTreeMap<String, Episode>,
    /// Deadline model ordering batch plans by slack. Empty by default, in
    /// which case planning keeps the tree's pre-order (the pre-deadline
    /// behaviour, byte-identical in traces).
    deadlines: DeadlineModel,
    restarts_issued: u64,
    give_ups: u64,
    merges: u64,
    already_recovering: u64,
}

impl<O: fmt::Debug> fmt::Debug for Recoverer<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recoverer")
            .field("oracle", &self.oracle)
            .field("open_episodes", &self.episodes.len())
            .field("restarts_issued", &self.restarts_issued)
            .field("give_ups", &self.give_ups)
            .field("merges", &self.merges)
            .field("already_recovering", &self.already_recovering)
            .finish()
    }
}

impl<O: Oracle> Recoverer<O> {
    /// Creates a recoverer over `tree` with the given oracle and policy.
    pub fn new(tree: RestartTree, oracle: O, policy: RestartPolicy) -> Recoverer<O> {
        Recoverer {
            tree: Arc::new(tree),
            oracle,
            policy,
            episodes: BTreeMap::new(),
            deadlines: DeadlineModel::new(),
            restarts_issued: 0,
            give_ups: 0,
            merges: 0,
            already_recovering: 0,
        }
    }

    /// The restart tree being operated.
    pub fn tree(&self) -> &RestartTree {
        &self.tree
    }

    /// The oracle (e.g. to inspect learned estimates).
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// The deadline model (empty unless one was set).
    pub fn deadline_model(&self) -> &DeadlineModel {
        &self.deadlines
    }

    /// Mutable access to the deadline model, so the driver can advance
    /// deadlines as passes come and go.
    pub fn deadline_model_mut(&mut self) -> &mut DeadlineModel {
        &mut self.deadlines
    }

    /// Total restarts issued.
    pub fn restarts_issued(&self) -> u64 {
        self.restarts_issued
    }

    /// Total abandoned episodes.
    pub fn give_ups(&self) -> u64 {
        self.give_ups
    }

    /// A snapshot of every decision counter, for export into telemetry.
    pub fn decision_tally(&self) -> DecisionTally {
        DecisionTally {
            restarts: self.restarts_issued,
            give_ups: self.give_ups,
            merges: self.merges,
            already_recovering: self.already_recovering,
        }
    }

    /// The cell of an in-flight restart already covering `component`, if any.
    fn covering_in_flight(&self, component: &str) -> Option<NodeId> {
        self.episodes.values().find_map(|ep| {
            let node = ep.last_node.filter(|_| ep.in_flight)?;
            self.tree
                .components_under(node)
                .iter()
                .any(|c| c == component)
                .then_some(node)
        })
    }

    /// Opens (or escalates) `failure`'s episode and asks the oracle for the
    /// target cell. Returns `(attempt, cell)`.
    fn prepare(&mut self, failure: &Failure) -> (u32, NodeId) {
        let episode = self
            .episodes
            .entry(failure.component.clone())
            .and_modify(|ep| {
                // Re-detection after a completed restart: escalate.
                ep.attempt += 1;
                ep.failure = failure.clone();
                ep.in_flight = false;
            })
            .or_insert_with(|| Episode {
                failure: failure.clone(),
                attempt: 0,
                last_node: None,
                in_flight: false,
                origins: BTreeSet::from([failure.component.clone()]),
            });
        let node = self
            .oracle
            .recommend(&self.tree, failure, episode.attempt, episode.last_node);
        (episode.attempt, node)
    }

    /// Issues the restart for `owner`'s episode targeting `node`, first
    /// merging away any **overlapping** in-flight episode: a cell may never
    /// restart concurrently with an episode touching its ancestor or
    /// descendant, so the target is promoted to the least common ancestor
    /// (repeatedly, since promotion can create new overlaps) and the
    /// absorbed episodes fold their origins and escalation depth into this
    /// one. Afterwards the in-flight cells again form an antichain.
    fn issue(
        &mut self,
        owner: String,
        mut node: NodeId,
        mut attempt: u32,
        mut origins: BTreeSet<String>,
        now: SimTime,
    ) -> RecoveryDecision {
        origins.insert(owner.clone());
        loop {
            let absorbed = self.episodes.iter().find_map(|(key, ep)| {
                let n = ep.last_node.filter(|_| ep.in_flight && *key != owner)?;
                self.tree.overlaps(n, node).then(|| key.clone())
            });
            let Some(key) = absorbed else { break };
            self.merges += 1;
            let ep = self
                .episodes
                .remove(&key)
                .unwrap_or_else(|| unreachable!("episode key just seen"));
            if let Some(n) = ep.last_node {
                if n != node {
                    node = self.tree.lca(node, n);
                }
            }
            attempt = attempt.max(ep.attempt);
            origins.extend(ep.origins);
        }
        let components = self.tree.components_under(node);

        if let Err(reason) = self.policy.check(attempt, &components, now) {
            for origin in &origins {
                self.episodes.remove(origin);
            }
            self.give_ups += 1;
            return RecoveryDecision::GiveUp {
                component: owner,
                reason,
            };
        }

        // Consolidate: the owner's entry carries the merged episode; other
        // origins' entries (absorbed, or same-batch co-planned) disappear.
        for origin in &origins {
            if origin != &owner {
                self.episodes.remove(origin);
            }
        }
        let episode = self
            .episodes
            .get_mut(&owner)
            .unwrap_or_else(|| unreachable!("owner episode open"));
        episode.attempt = attempt;
        episode.last_node = Some(node);
        episode.in_flight = true;
        episode.origins = origins.clone();
        let delay = self.policy.restart_delay(&components, now);
        self.policy.record_restart(&components, now);
        self.restarts_issued += 1;
        let mut origin_list = vec![owner.clone()];
        origin_list.extend(origins.into_iter().filter(|o| *o != owner));
        RecoveryDecision::Restart {
            node,
            components,
            attempt,
            delay,
            origins: origin_list,
        }
    }

    /// Handles a failure report from the failure detector.
    pub fn on_failure(&mut self, failure: Failure, now: SimTime) -> RecoveryDecision {
        // If a restart already in flight covers this component, the failure
        // report is expected (the component is down *because* it is being
        // restarted) — do not start a second episode.
        if let Some(node) = self.covering_in_flight(&failure.component) {
            self.already_recovering += 1;
            return RecoveryDecision::AlreadyRecovering { node };
        }
        let owner = failure.component.clone();
        let (attempt, node) = self.prepare(&failure);
        self.issue(owner, node, attempt, BTreeSet::new(), now)
    }

    /// Handles a **batch** of concurrently-reported failures: plans the
    /// maximal antichain of target cells ([`plan_episodes`]) so suspicions
    /// whose cells overlap are recovered by one merged episode instead of
    /// racing restarts, then issues each planned episode. Independent
    /// episodes come back as separate [`RecoveryDecision::Restart`]s, safe
    /// to drive concurrently.
    pub fn on_failures(&mut self, failures: Vec<Failure>, now: SimTime) -> Vec<RecoveryDecision> {
        let mut decisions = Vec::new();
        let mut suspicions: Vec<Suspicion> = Vec::new();
        let mut attempts: BTreeMap<String, u32> = BTreeMap::new();
        for failure in failures {
            if let Some(node) = self.covering_in_flight(&failure.component) {
                decisions.push(RecoveryDecision::AlreadyRecovering { node });
                continue;
            }
            if attempts.contains_key(&failure.component) {
                continue; // duplicate report within the batch
            }
            let component = failure.component.clone();
            let (attempt, cell) = self.prepare(&failure);
            attempts.insert(component.clone(), attempt);
            suspicions.push(Suspicion { component, cell });
        }
        let mut plan = plan_episodes(&self.tree, &suspicions)
            .unwrap_or_else(|e| unreachable!("oracle cells are live: {e}"));
        plan.order_by_urgency(&self.deadlines, now);
        for planned in plan.episodes {
            // Deepest escalation among the merged origins carries over; the
            // owner is the first origin (deterministic: sorted order).
            let attempt = planned
                .origins
                .iter()
                .filter_map(|o| attempts.get(o))
                .copied()
                .max()
                .unwrap_or(0);
            let owner = planned.origins[0].clone();
            let origins: BTreeSet<String> = planned.origins.into_iter().collect();
            decisions.push(self.issue(owner, planned.cell, attempt, origins, now));
        }
        decisions
    }

    /// Reports that the restart issued for `component`'s episode has
    /// completed (all components are booted again). The episode stays open
    /// until [`Recoverer::on_cured`] or a re-detected failure.
    pub fn on_restart_complete(&mut self, component: &str, _now: SimTime) {
        if let Some(ep) = self.episodes.get_mut(component) {
            ep.in_flight = false;
        }
    }

    /// Confirms that `component`'s failure is cured; closes the episode and
    /// feeds the oracle positive feedback for the last restarted cell.
    pub fn on_cured(&mut self, component: &str, _now: SimTime) {
        if let Some(ep) = self.episodes.remove(component) {
            if let Some(node) = ep.last_node {
                self.oracle
                    .observe(&ep.failure, RestartOutcome { node, cured: true });
            }
        }
    }

    /// Records negative feedback for the previous attempt of an episode.
    /// Called internally by `on_failure` escalation in spirit; exposed so
    /// drivers that detect persistence out-of-band can teach the oracle.
    pub fn on_not_cured(&mut self, component: &str) {
        if let Some(ep) = self.episodes.get(component) {
            if let Some(node) = ep.last_node {
                self.oracle
                    .observe(&ep.failure, RestartOutcome { node, cured: false });
            }
        }
    }

    /// `true` if the component currently has an open failure episode.
    pub fn is_recovering(&self, component: &str) -> bool {
        self.episodes.contains_key(component)
    }

    /// `true` if a restart for `component`'s episode has been issued but not
    /// yet reported complete.
    pub fn is_in_flight(&self, component: &str) -> bool {
        self.episodes.get(component).is_some_and(|ep| ep.in_flight)
    }

    /// The originating suspicions of `component`'s open episode (sorted),
    /// or `None` if it has no open episode. A singleton unless other
    /// episodes were merged into this one; a cure of the episode cures
    /// every origin listed.
    pub fn episode_origins(&self, component: &str) -> Option<Vec<String>> {
        self.episodes
            .get(component)
            .map(|ep| ep.origins.iter().cloned().collect())
    }

    /// The cells of all in-flight episodes — by construction an antichain
    /// (see [`crate::schedule`]).
    pub fn in_flight_cells(&self) -> Vec<NodeId> {
        self.episodes
            .values()
            .filter(|ep| ep.in_flight)
            .filter_map(|ep| ep.last_node)
            .collect()
    }

    /// The restart policy this recoverer enforces.
    pub fn policy(&self) -> &RestartPolicy {
        &self.policy
    }

    /// Every open episode, sorted by owner, borrowed. This is the
    /// protocol-state extraction hook used by `rr-model`: together with the
    /// per-component restart counters from [`Recoverer::policy`] it captures
    /// everything that influences future decisions, so two recoverers whose
    /// views are equal behave identically.
    pub fn open_episodes(&self) -> impl Iterator<Item = EpisodeView<'_>> {
        self.episodes.iter().map(|(owner, ep)| EpisodeView {
            owner,
            attempt: ep.attempt,
            cell: ep.last_node,
            in_flight: ep.in_flight,
            origins: &ep.origins,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{NaiveOracle, PerfectOracle};
    use crate::tree::TreeSpec;
    use rr_sim::SimDuration;

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

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn solo_failure_restarts_own_cell() {
        let mut rec = Recoverer::new(tree_iv(), PerfectOracle::new(), RestartPolicy::new());
        let decision = rec.on_failure(Failure::solo("rtu"), t(10));
        match decision {
            RecoveryDecision::Restart { components, .. } => {
                assert_eq!(components, vec!["rtu"]);
            }
            other => panic!("unexpected decision {other:?}"),
        }
        assert!(rec.is_recovering("rtu"));
        rec.on_restart_complete("rtu", t(16));
        rec.on_cured("rtu", t(17));
        assert!(!rec.is_recovering("rtu"));
        assert_eq!(rec.restarts_issued(), 1);
    }

    #[test]
    fn consolidated_cell_restarts_both() {
        let mut rec = Recoverer::new(tree_iv(), PerfectOracle::new(), RestartPolicy::new());
        let decision = rec.on_failure(Failure::solo("ses"), t(0));
        match decision {
            RecoveryDecision::Restart { components, .. } => {
                assert_eq!(components, vec!["ses", "str"]);
            }
            other => panic!("unexpected decision {other:?}"),
        }
    }

    #[test]
    fn in_flight_restart_subsumes_covered_failures() {
        // While the [ses,str] cell restarts, str's "failure" (it is down
        // because we killed it) must not open a second episode.
        let mut rec = Recoverer::new(tree_iv(), PerfectOracle::new(), RestartPolicy::new());
        let d1 = rec.on_failure(Failure::solo("ses"), t(0));
        let node = match d1 {
            RecoveryDecision::Restart { node, .. } => node,
            other => panic!("unexpected {other:?}"),
        };
        let d2 = rec.on_failure(Failure::solo("str"), t(1));
        assert_eq!(d2, RecoveryDecision::AlreadyRecovering { node });
        assert_eq!(rec.restarts_issued(), 1);
    }

    #[test]
    fn redetection_escalates_with_naive_oracle() {
        let mut rec = Recoverer::new(tree_iv(), NaiveOracle::new(), RestartPolicy::new());
        let joint = Failure::correlated("pbcom", ["fedr", "pbcom"]);
        let d1 = rec.on_failure(joint.clone(), t(0));
        let first = match d1 {
            RecoveryDecision::Restart {
                node, components, ..
            } => {
                assert_eq!(components, vec!["pbcom"]);
                node
            }
            other => panic!("unexpected {other:?}"),
        };
        rec.on_restart_complete("pbcom", t(21));
        rec.on_not_cured("pbcom");
        // Failure persists → escalate to the joint cell.
        let d2 = rec.on_failure(joint, t(23));
        match d2 {
            RecoveryDecision::Restart {
                node, components, ..
            } => {
                assert_ne!(node, first);
                assert_eq!(components, vec!["fedr", "pbcom"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn escalation_limit_gives_up() {
        let policy = RestartPolicy::new().with_escalation_limit(2);
        let mut rec = Recoverer::new(tree_iv(), NaiveOracle::new(), policy);
        let f = Failure::solo("mbus");
        for i in 0..2 {
            let d = rec.on_failure(f.clone(), t(i * 30));
            assert!(
                matches!(d, RecoveryDecision::Restart { .. }),
                "attempt {i}: {d:?}"
            );
            rec.on_restart_complete("mbus", t(i * 30 + 10));
        }
        let d = rec.on_failure(f, t(100));
        assert_eq!(
            d,
            RecoveryDecision::GiveUp {
                component: "mbus".into(),
                reason: GiveUpReason::EscalationExhausted
            }
        );
        assert_eq!(rec.give_ups(), 1);
        assert!(!rec.is_recovering("mbus"));
    }

    #[test]
    fn restart_storm_gives_up() {
        let policy = RestartPolicy::new().with_rate_limit(2, SimDuration::from_secs(1000));
        let mut rec = Recoverer::new(tree_iv(), PerfectOracle::new(), policy);
        for i in 0..2 {
            let d = rec.on_failure(Failure::solo("rtu"), t(i * 50));
            assert!(matches!(d, RecoveryDecision::Restart { .. }));
            rec.on_restart_complete("rtu", t(i * 50 + 6));
            rec.on_cured("rtu", t(i * 50 + 7));
        }
        let d = rec.on_failure(Failure::solo("rtu"), t(200));
        assert_eq!(
            d,
            RecoveryDecision::GiveUp {
                component: "rtu".into(),
                reason: GiveUpReason::RestartStorm
            }
        );
    }

    #[test]
    fn overlapping_episode_merges_to_lca() {
        // fedr's restart is in flight at R_fedr when a correlated pbcom
        // failure demands R_[fedr,pbcom] — an ancestor of the in-flight
        // cell. The episodes must merge (promotion to the LCA), not race.
        let mut rec = Recoverer::new(tree_iv(), PerfectOracle::new(), RestartPolicy::new());
        let d1 = rec.on_failure(Failure::solo("fedr"), t(0));
        assert!(matches!(d1, RecoveryDecision::Restart { .. }));
        let joint = Failure::correlated("pbcom", ["fedr", "pbcom"]);
        let d2 = rec.on_failure(joint, t(1));
        match d2 {
            RecoveryDecision::Restart {
                node,
                components,
                origins,
                ..
            } => {
                assert_eq!(rec.tree().label(node), "R_[fedr,pbcom]");
                assert_eq!(components, vec!["fedr", "pbcom"]);
                assert_eq!(origins, vec!["pbcom", "fedr"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The absorbed episode is folded into the owner's.
        assert!(!rec.is_recovering("fedr"));
        assert!(rec.is_recovering("pbcom"));
        assert_eq!(rec.episode_origins("pbcom").unwrap(), vec!["fedr", "pbcom"]);
        assert!(super::super::schedule::is_antichain(
            rec.tree(),
            &rec.in_flight_cells()
        ));
        rec.on_restart_complete("pbcom", t(25));
        rec.on_cured("pbcom", t(28));
        assert!(!rec.is_recovering("pbcom"));
    }

    #[test]
    fn batch_of_independent_failures_yields_parallel_episodes() {
        let mut rec = Recoverer::new(tree_iv(), PerfectOracle::new(), RestartPolicy::new());
        let decisions = rec.on_failures(vec![Failure::solo("rtu"), Failure::solo("fedr")], t(0));
        assert_eq!(decisions.len(), 2);
        let mut restarted: Vec<Vec<String>> = Vec::new();
        for d in decisions {
            match d {
                RecoveryDecision::Restart { components, .. } => restarted.push(components),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(restarted, vec![vec!["fedr"], vec!["rtu"]]);
        assert!(super::super::schedule::is_antichain(
            rec.tree(),
            &rec.in_flight_cells()
        ));
        assert_eq!(rec.restarts_issued(), 2);
    }

    #[test]
    fn batch_of_overlapping_failures_yields_one_merged_episode() {
        let mut rec = Recoverer::new(tree_iv(), PerfectOracle::new(), RestartPolicy::new());
        let decisions = rec.on_failures(
            vec![
                Failure::solo("fedr"),
                Failure::correlated("pbcom", ["fedr", "pbcom"]),
            ],
            t(0),
        );
        assert_eq!(decisions.len(), 1, "{decisions:?}");
        match &decisions[0] {
            RecoveryDecision::Restart {
                node,
                components,
                origins,
                ..
            } => {
                assert_eq!(rec.tree().label(*node), "R_[fedr,pbcom]");
                assert_eq!(*components, vec!["fedr", "pbcom"]);
                assert_eq!(*origins, vec!["fedr", "pbcom"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rec.restarts_issued(), 1, "one restart, not a race");
    }

    #[test]
    fn batch_issues_in_deadline_order_when_model_set() {
        let mut rec = Recoverer::new(tree_iv(), PerfectOracle::new(), RestartPolicy::new());
        let batch = vec![Failure::solo("fedr"), Failure::solo("rtu")];
        // Pre-order baseline: fedr's cell precedes rtu's.
        let decisions = rec.on_failures(batch.clone(), t(0));
        let order: Vec<_> = decisions
            .iter()
            .map(|d| match d {
                RecoveryDecision::Restart { origins, .. } => origins[0].clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, vec!["fedr", "rtu"]);

        // With rtu holding the tighter pass deadline, it is issued first.
        let mut rec = Recoverer::new(tree_iv(), PerfectOracle::new(), RestartPolicy::new());
        let model = rec.deadline_model_mut();
        model.set_deadline("rtu", t(40));
        model.set_deadline("fedr", t(400));
        let decisions = rec.on_failures(batch, t(0));
        let order: Vec<_> = decisions
            .iter()
            .map(|d| match d {
                RecoveryDecision::Restart { origins, .. } => origins[0].clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, vec!["rtu", "fedr"]);
        assert_eq!(rec.deadline_model().deadline_of("rtu"), Some(t(40)));
    }

    #[test]
    fn batch_subsumes_covered_failures() {
        let mut rec = Recoverer::new(tree_iv(), PerfectOracle::new(), RestartPolicy::new());
        let d1 = rec.on_failure(Failure::solo("ses"), t(0));
        let node = match d1 {
            RecoveryDecision::Restart { node, .. } => node,
            other => panic!("unexpected {other:?}"),
        };
        // str is down because the [ses,str] cell is mid-restart; rtu is a
        // genuinely new, independent failure.
        let decisions = rec.on_failures(vec![Failure::solo("str"), Failure::solo("rtu")], t(1));
        assert_eq!(decisions.len(), 2);
        assert_eq!(decisions[0], RecoveryDecision::AlreadyRecovering { node });
        assert!(matches!(
            &decisions[1],
            RecoveryDecision::Restart { components, .. } if *components == vec!["rtu"]
        ));
    }

    #[test]
    fn merge_inherits_deepest_escalation() {
        let mut rec = Recoverer::new(tree_iv(), PerfectOracle::new(), RestartPolicy::new());
        let f = Failure::solo("fedr");
        // Drive fedr's episode to attempt 1 with the restart in flight.
        assert!(matches!(
            rec.on_failure(f.clone(), t(0)),
            RecoveryDecision::Restart { attempt: 0, .. }
        ));
        rec.on_restart_complete("fedr", t(6));
        assert!(matches!(
            rec.on_failure(f, t(8)),
            RecoveryDecision::Restart { attempt: 1, .. }
        ));
        // fedr's attempt-1 cell is R_[fedr,pbcom] (the perfect oracle climbs
        // on escalation). A failure needing [mbus, fedr] targets the root,
        // which overlaps it: the merge absorbs fedr's episode — and inherits
        // its escalation depth.
        let wide = Failure::correlated("mbus", ["mbus", "fedr"]);
        match rec.on_failure(wide, t(9)) {
            RecoveryDecision::Restart {
                node,
                attempt,
                origins,
                ..
            } => {
                assert_eq!(node, rec.tree().root());
                assert_eq!(attempt, 1);
                assert_eq!(origins, vec!["mbus", "fedr"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(super::super::schedule::is_antichain(
            rec.tree(),
            &rec.in_flight_cells()
        ));
    }

    #[test]
    fn learning_oracle_gets_feedback_through_recoverer() {
        use crate::oracle::LearningOracle;
        let mut rec = Recoverer::new(tree_iv(), LearningOracle::new(0.5), RestartPolicy::new());
        let f = Failure::solo("fedr");
        let own = rec.tree().cell_of_component("fedr").unwrap();
        for i in 0..5 {
            let d = rec.on_failure(f.clone(), t(i * 100));
            assert!(matches!(d, RecoveryDecision::Restart { .. }));
            rec.on_restart_complete("fedr", t(i * 100 + 6));
            rec.on_cured("fedr", t(i * 100 + 7));
        }
        assert!(rec.oracle().estimate("fedr", own) > 0.7);
    }
}
