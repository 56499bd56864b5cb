//! Oracles: the restart policy that decides *which* cell to restart (§3.3).
//!
//! "A recoverer does not make any decisions as to which component needs to be
//! restarted — that is captured in the oracle, which represents the restart
//! policy. Based on information about which component has failed, the oracle
//! tells the recoverer which node in the tree to restart."
//!
//! Implementations:
//!
//! * [`PerfectOracle`] — embodies the *minimal restart policy* of §3.3: for a
//!   minimally n-curable failure it recommends exactly n. This is the
//!   `A_oracle` assumption; the paper's experiments realize it by telling the
//!   oracle the ground-truth cure requirement.
//! * [`NaiveOracle`] — knows nothing about failure correlation: always starts
//!   at the failed component's own cell and escalates on persistence. This is
//!   the oracle the paper describes operating tree III, which restarts
//!   ses, is told about the induced str failure, and then restarts str.
//! * [`FaultyOracle`] — the §4.4 experiment: behaves like [`PerfectOracle`]
//!   except that, with configurable probability, it guesses too low
//!   (recommends the failed component's own cell when a higher restart was
//!   minimally required).
//! * [`LearningOracle`] — the future-work oracle of §7: learns the `f_ci`
//!   cure probabilities from restart outcomes and converges toward the
//!   minimal restart policy without ground-truth knowledge.

use std::collections::HashMap;
use std::fmt;

use rr_sim::SimRng;

use crate::tree::{NodeId, RestartTree};

/// A failure episode as reported to the oracle.
///
/// `component` is the observable part (which liveness ping went unanswered).
/// `cure_set` is the ground truth injected by the fault model: the minimal
/// set of components whose joint restart cures the failure. Only oracles that
/// model perfect knowledge ([`PerfectOracle`], and [`FaultyOracle`] when it
/// does not err) read it; [`NaiveOracle`] and [`LearningOracle`] ignore it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The component whose failure was detected.
    pub component: String,
    /// Ground-truth minimal cure set (always contains `component`).
    pub cure_set: Vec<String>,
}

impl Failure {
    /// A failure curable by restarting just the component it manifests in.
    pub fn solo(component: impl Into<String>) -> Failure {
        let component = component.into();
        Failure {
            cure_set: vec![component.clone()],
            component,
        }
    }

    /// A failure that manifests in `component` but is only curable by
    /// restarting all of `cure_set` together (which must include
    /// `component`).
    ///
    /// # Panics
    ///
    /// Panics if `cure_set` does not contain `component`.
    pub fn correlated<I, S>(component: impl Into<String>, cure_set: I) -> Failure
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let component = component.into();
        let cure_set: Vec<String> = cure_set.into_iter().map(Into::into).collect();
        assert!(
            cure_set.contains(&component),
            "cure set must include the component the failure manifests in"
        );
        Failure {
            component,
            cure_set,
        }
    }
}

/// What happened after a recommended restart — fed back to oracles that learn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartOutcome {
    /// The cell that was restarted.
    pub node: NodeId,
    /// `true` if the failure did not re-manifest.
    pub cured: bool,
}

/// The restart policy: recommends a cell to restart for a failure.
pub trait Oracle {
    /// Recommends the cell to restart.
    ///
    /// `attempt` is 0 for the first recommendation of an episode; when a
    /// restart fails to cure, the recoverer calls again with `attempt + 1`
    /// and `last` set to the previously restarted cell, and the oracle is
    /// expected to move **up** the tree (§3.3).
    fn recommend(
        &mut self,
        tree: &RestartTree,
        failure: &Failure,
        attempt: u32,
        last: Option<NodeId>,
    ) -> NodeId;

    /// Feedback after a restart completes and the cure is (or is not)
    /// confirmed. Default: ignored.
    fn observe(&mut self, failure: &Failure, outcome: RestartOutcome) {
        let _ = (failure, outcome);
    }

    /// Short name for reports ("perfect", "faulty(0.30)", …).
    fn describe(&self) -> String;
}

impl fmt::Debug for dyn Oracle + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Oracle({})", self.describe())
    }
}

impl<T: Oracle + ?Sized> Oracle for Box<T> {
    fn recommend(
        &mut self,
        tree: &RestartTree,
        failure: &Failure,
        attempt: u32,
        last: Option<NodeId>,
    ) -> NodeId {
        (**self).recommend(tree, failure, attempt, last)
    }

    fn observe(&mut self, failure: &Failure, outcome: RestartOutcome) {
        (**self).observe(failure, outcome);
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// Escalation: the parent of `last`, or the root if `last` is the root.
/// All provided oracles use this for attempts after the first.
pub fn escalate(tree: &RestartTree, last: NodeId) -> NodeId {
    tree.parent(last).unwrap_or(last)
}

/// The minimal-restart-policy oracle (`A_oracle`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfectOracle;

impl PerfectOracle {
    /// Creates a perfect oracle.
    pub fn new() -> PerfectOracle {
        PerfectOracle
    }
}

impl Oracle for PerfectOracle {
    fn recommend(
        &mut self,
        tree: &RestartTree,
        failure: &Failure,
        _attempt: u32,
        last: Option<NodeId>,
    ) -> NodeId {
        if let Some(last) = last {
            // A perfect oracle's first recommendation cures any restart-curable
            // failure; being asked again means a *new* (possibly induced)
            // failure arrived mid-episode. Climb, as the paper's oracle does.
            return escalate(tree, last);
        }
        tree.lowest_cover(&failure.cure_set)
            .unwrap_or_else(|_| tree.root())
    }

    fn describe(&self) -> String {
        "perfect".to_string()
    }
}

/// An oracle with no correlated-failure knowledge: starts at the failed
/// component's cell and escalates one level per failed attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NaiveOracle;

impl NaiveOracle {
    /// Creates a naive oracle.
    pub fn new() -> NaiveOracle {
        NaiveOracle
    }
}

impl Oracle for NaiveOracle {
    fn recommend(
        &mut self,
        tree: &RestartTree,
        failure: &Failure,
        _attempt: u32,
        last: Option<NodeId>,
    ) -> NodeId {
        match last {
            Some(last) => escalate(tree, last),
            None => tree
                .cell_of_component(&failure.component)
                .unwrap_or_else(|| tree.root()),
        }
    }

    fn describe(&self) -> String {
        "naive".to_string()
    }
}

/// The §4.4 faulty oracle: perfect, except that with probability
/// `error_rate` it guesses too low on failures whose minimal cure is above
/// the failed component's own cell.
pub struct FaultyOracle {
    error_rate: f64,
    rng: SimRng,
    mistakes: u64,
    recommendations: u64,
}

impl fmt::Debug for FaultyOracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyOracle")
            .field("error_rate", &self.error_rate)
            .field("mistakes", &self.mistakes)
            .field("recommendations", &self.recommendations)
            .finish()
    }
}

impl FaultyOracle {
    /// Creates a faulty oracle that errs with probability `error_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `error_rate` is not in `[0, 1]`.
    pub fn new(error_rate: f64, rng: SimRng) -> FaultyOracle {
        assert!(
            (0.0..=1.0).contains(&error_rate),
            "error rate {error_rate} outside [0, 1]"
        );
        FaultyOracle {
            error_rate,
            rng,
            mistakes: 0,
            recommendations: 0,
        }
    }

    /// How many first-attempt recommendations it has made.
    pub fn recommendations(&self) -> u64 {
        self.recommendations
    }
}

impl Oracle for FaultyOracle {
    fn recommend(
        &mut self,
        tree: &RestartTree,
        failure: &Failure,
        _attempt: u32,
        last: Option<NodeId>,
    ) -> NodeId {
        if let Some(last) = last {
            return escalate(tree, last);
        }
        self.recommendations += 1;
        let correct = tree
            .lowest_cover(&failure.cure_set)
            .unwrap_or_else(|_| tree.root());
        let own = tree
            .cell_of_component(&failure.component)
            .unwrap_or_else(|| tree.root());
        // A mistake is only possible when the tree offers a too-low button:
        // in tree V, pbcom's own cell *is* the joint cell, so the guess-too-low
        // mistake is structurally impossible (§4.4).
        if own != correct && self.rng.chance(self.error_rate) {
            self.mistakes += 1;
            own
        } else {
            correct
        }
    }

    fn describe(&self) -> String {
        format!("faulty({:.2})", self.error_rate)
    }
}

/// The learning oracle proposed as future work in §7: estimates, per failed
/// component, the probability that a restart at each cell of its escalation
/// path cures the failure (the `f_ci` values), and recommends the lowest cell
/// whose smoothed estimate clears a confidence threshold.
pub struct LearningOracle {
    /// Laplace-smoothed (successes, trials) per (component, cell).
    counts: HashMap<(String, NodeId), (u64, u64)>,
    /// Recommend the lowest cell with estimated cure probability ≥ threshold.
    threshold: f64,
}

impl fmt::Debug for LearningOracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LearningOracle")
            .field("threshold", &self.threshold)
            .field("tracked", &self.counts.len())
            .finish()
    }
}

impl LearningOracle {
    /// Creates a learning oracle with the given confidence threshold
    /// (e.g. 0.5: recommend the lowest cell believed to cure at least half
    /// of this component's failures).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `(0, 1)`.
    pub fn new(threshold: f64) -> LearningOracle {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold {threshold} outside (0, 1)"
        );
        LearningOracle {
            counts: HashMap::new(),
            threshold,
        }
    }

    /// The smoothed estimate that restarting `cell` cures a failure of
    /// `component`: `(successes + 1) / (trials + 2)`. Untried cells start
    /// optimistic at 0.5.
    pub fn estimate(&self, component: &str, cell: NodeId) -> f64 {
        let (s, t) = self
            .counts
            .get(&(component.to_string(), cell))
            .copied()
            .unwrap_or((0, 0));
        (s as f64 + 1.0) / (t as f64 + 2.0)
    }
}

impl Oracle for LearningOracle {
    fn recommend(
        &mut self,
        tree: &RestartTree,
        failure: &Failure,
        _attempt: u32,
        last: Option<NodeId>,
    ) -> NodeId {
        if let Some(last) = last {
            return escalate(tree, last);
        }
        let path = tree
            .restart_path(&failure.component)
            .unwrap_or_else(|_| vec![tree.root()]);
        for &cell in &path {
            if self.estimate(&failure.component, cell) >= self.threshold {
                return cell;
            }
        }
        *path
            .last()
            .unwrap_or_else(|| unreachable!("path includes the root"))
    }

    fn observe(&mut self, failure: &Failure, outcome: RestartOutcome) {
        let entry = self
            .counts
            .entry((failure.component.clone(), outcome.node))
            .or_insert((0, 0));
        entry.1 += 1;
        if outcome.cured {
            entry.0 += 1;
        }
    }

    fn describe(&self) -> String {
        format!("learning({:.2})", self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeSpec;

    /// Tree IV: mbus | [fedr,pbcom]{fedr|pbcom} | {ses,str} | rtu.
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

    /// Tree V: pbcom promoted onto the joint cell.
    fn tree_v() -> RestartTree {
        let mut tree = tree_iv();
        crate::transform::promote_component(&mut tree, "pbcom").unwrap();
        tree
    }

    #[test]
    fn perfect_oracle_recommends_minimal_cell() {
        let tree = tree_iv();
        let mut oracle = PerfectOracle::new();
        let solo = Failure::solo("fedr");
        let cell = oracle.recommend(&tree, &solo, 0, None);
        assert_eq!(tree.label(cell), "R_fedr");

        let joint = Failure::correlated("pbcom", ["fedr", "pbcom"]);
        let cell = oracle.recommend(&tree, &joint, 0, None);
        assert_eq!(tree.label(cell), "R_[fedr,pbcom]");
        assert_eq!(oracle.describe(), "perfect");
    }

    #[test]
    fn naive_oracle_starts_low_and_escalates() {
        let tree = tree_iv();
        let mut oracle = NaiveOracle::new();
        let joint = Failure::correlated("pbcom", ["fedr", "pbcom"]);
        let first = oracle.recommend(&tree, &joint, 0, None);
        assert_eq!(tree.label(first), "R_pbcom");
        let second = oracle.recommend(&tree, &joint, 1, Some(first));
        assert_eq!(tree.label(second), "R_[fedr,pbcom]");
        let third = oracle.recommend(&tree, &joint, 2, Some(second));
        assert_eq!(third, tree.root());
        // Escalating from the root stays at the root.
        let fourth = oracle.recommend(&tree, &joint, 3, Some(third));
        assert_eq!(fourth, tree.root());
    }

    #[test]
    fn faulty_oracle_err_rate_is_respected() {
        let tree = tree_iv();
        let mut oracle = FaultyOracle::new(0.3, SimRng::new(42));
        let joint = Failure::correlated("pbcom", ["fedr", "pbcom"]);
        let n = 10_000;
        let mut low = 0;
        for _ in 0..n {
            let cell = oracle.recommend(&tree, &joint, 0, None);
            if tree.label(cell) == "R_pbcom" {
                low += 1;
            } else {
                assert_eq!(tree.label(cell), "R_[fedr,pbcom]");
            }
        }
        let rate = low as f64 / n as f64;
        assert!((0.27..0.33).contains(&rate), "mistake rate {rate}");
        assert_eq!(oracle.mistakes, low);
        assert_eq!(oracle.recommendations(), n);
    }

    #[test]
    fn faulty_oracle_cannot_undershoot_in_tree_v() {
        // §4.4: "Tree V forces the two components to be restarted together on
        // all pbcom failures" — there is no too-low button.
        let tree = tree_v();
        let mut oracle = FaultyOracle::new(1.0, SimRng::new(7));
        let joint = Failure::correlated("pbcom", ["fedr", "pbcom"]);
        for _ in 0..100 {
            let cell = oracle.recommend(&tree, &joint, 0, None);
            assert_eq!(tree.components_under(cell), vec!["fedr", "pbcom"]);
        }
        assert_eq!(oracle.mistakes, 0);
    }

    #[test]
    fn faulty_oracle_never_errs_on_solo_failures() {
        let tree = tree_iv();
        let mut oracle = FaultyOracle::new(1.0, SimRng::new(8));
        let solo = Failure::solo("rtu");
        let cell = oracle.recommend(&tree, &solo, 0, None);
        assert_eq!(tree.label(cell), "R_rtu");
        assert_eq!(oracle.mistakes, 0);
    }

    #[test]
    fn faulty_zero_rate_is_perfect() {
        let tree = tree_iv();
        let mut faulty = FaultyOracle::new(0.0, SimRng::new(9));
        let mut perfect = PerfectOracle::new();
        let joint = Failure::correlated("pbcom", ["fedr", "pbcom"]);
        for _ in 0..50 {
            assert_eq!(
                faulty.recommend(&tree, &joint, 0, None),
                perfect.recommend(&tree, &joint, 0, None)
            );
        }
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn faulty_rejects_bad_rate() {
        FaultyOracle::new(1.5, SimRng::new(1));
    }

    #[test]
    fn learning_oracle_converges_to_joint_restart() {
        let tree = tree_iv();
        let mut oracle = LearningOracle::new(0.5);
        let joint_failure = Failure::correlated("pbcom", ["fedr", "pbcom"]);
        let own = tree.cell_of_component("pbcom").unwrap();
        let joint = tree.parent(own).unwrap();

        // Feed it episodes: restarting pbcom alone never cures; the joint
        // cell always does.
        for _ in 0..20 {
            let first = oracle.recommend(&tree, &joint_failure, 0, None);
            oracle.observe(
                &joint_failure,
                RestartOutcome {
                    node: first,
                    cured: first == joint,
                },
            );
            if first != joint {
                let second = oracle.recommend(&tree, &joint_failure, 1, Some(first));
                oracle.observe(
                    &joint_failure,
                    RestartOutcome {
                        node: second,
                        cured: second == joint,
                    },
                );
            }
        }
        // After enough evidence it should skip the pbcom-only cell.
        let rec = oracle.recommend(&tree, &joint_failure, 0, None);
        assert_eq!(
            rec,
            joint,
            "learned estimate: {}",
            oracle.estimate("pbcom", own)
        );
        assert!(oracle.estimate("pbcom", own) < 0.5);
        assert!(oracle.estimate("pbcom", joint) > 0.5);
    }

    #[test]
    fn learning_oracle_stays_low_for_solo_failures() {
        let tree = tree_iv();
        let mut oracle = LearningOracle::new(0.5);
        let solo = Failure::solo("fedr");
        let own = tree.cell_of_component("fedr").unwrap();
        for _ in 0..10 {
            let rec = oracle.recommend(&tree, &solo, 0, None);
            assert_eq!(rec, own);
            oracle.observe(
                &solo,
                RestartOutcome {
                    node: rec,
                    cured: true,
                },
            );
        }
        assert!(oracle.estimate("fedr", own) > 0.8);
    }

    #[test]
    fn correlated_failure_requires_membership() {
        let f = Failure::correlated("a", ["a", "b"]);
        assert_eq!(f.component, "a");
        assert_eq!(f.cure_set, vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "cure set must include")]
    fn correlated_rejects_foreign_component() {
        Failure::correlated("a", ["b", "c"]);
    }

    #[test]
    fn describe_strings() {
        assert_eq!(NaiveOracle::new().describe(), "naive");
        assert_eq!(
            FaultyOracle::new(0.3, SimRng::new(1)).describe(),
            "faulty(0.30)"
        );
        assert_eq!(LearningOracle::new(0.5).describe(), "learning(0.50)");
    }
}
