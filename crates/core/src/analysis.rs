//! MTTF/MTTR algebra and analytic recovery-time prediction.
//!
//! §3.2 gives the restart-group algebra (`MTTF_G ≤ min MTTF_ci`,
//! `MTTR_G ≥ max MTTR_ci`) and §4.1 the tree-II bound
//! `MTTR_G ≤ Σ f_ci · MTTR_ci`. This module provides those relations plus an
//! analytic model of expected recovery time for a (tree, failure model,
//! oracle quality) triple, using a pluggable [`CostModel`] for restart costs.
//! The analytic predictions cross-validate the simulation: the test suite
//! checks that simulated Table 4 entries agree with the closed form.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{AnalysisError, ModelError, TreeError};
use crate::model::{FailureMode, FailureModel};
use crate::schedule::{plan_episodes, Suspicion};
use crate::tree::RestartTree;

/// Steady-state availability from mean time to failure and recovery:
/// `MTTF / (MTTF + MTTR)` (§3).
///
/// # Errors
///
/// Returns [`AnalysisError::NonPositive`] unless both arguments are positive
/// and finite.
///
/// ```
/// use rr_core::analysis::availability;
/// let a = availability(3600.0, 24.75)?;
/// assert!((a - 0.99317).abs() < 1e-4);
/// # Ok::<(), rr_core::AnalysisError>(())
/// ```
pub fn availability(mttf_s: f64, mttr_s: f64) -> Result<f64, AnalysisError> {
    if !(mttf_s.is_finite() && mttf_s > 0.0) {
        return Err(AnalysisError::NonPositive {
            what: "MTTF",
            value: mttf_s,
        });
    }
    if !(mttr_s.is_finite() && mttr_s > 0.0) {
        return Err(AnalysisError::NonPositive {
            what: "MTTR",
            value: mttr_s,
        });
    }
    Ok(mttf_s / (mttf_s + mttr_s))
}

/// Group MTTF bound of §3.2: a group fails when any member fails.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptyGroup`] if `member_mttfs_s` is empty.
pub fn group_mttf_bound_s(member_mttfs_s: &[f64]) -> Result<f64, AnalysisError> {
    if member_mttfs_s.is_empty() {
        return Err(AnalysisError::EmptyGroup {
            what: "group_mttf_bound_s",
        });
    }
    Ok(member_mttfs_s.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Group MTTR bound of §3.2: recovering a group takes at least as long as its
/// slowest member.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptyGroup`] if `member_mttrs_s` is empty.
pub fn group_mttr_bound_s(member_mttrs_s: &[f64]) -> Result<f64, AnalysisError> {
    if member_mttrs_s.is_empty() {
        return Err(AnalysisError::EmptyGroup {
            what: "group_mttr_bound_s",
        });
    }
    Ok(member_mttrs_s.iter().copied().fold(0.0, f64::max))
}

/// Restart-cost model: how long restarts and detections take.
pub trait CostModel {
    /// Mean seconds from a failure occurring to the recoverer knowing about
    /// it ("downtime starts when the failure occurs, not when it is
    /// detected", §3.2).
    fn detection_s(&self) -> f64;

    /// Mean extra seconds to re-detect a failure that persists after a
    /// completed (but wrong) restart.
    fn redetection_s(&self) -> f64;

    /// Mean seconds to restart exactly `components` concurrently, measured to
    /// the instant the *slowest* of them logs functionally-ready.
    fn restart_s(&self, components: &[String]) -> f64;

    /// Extra seconds charged when `component` is restarted a second time in
    /// a single episode (e.g. pbcom's serial renegotiation backing off after
    /// rapid successive restarts).
    fn rapid_restart_penalty_s(&self, component: &str) -> f64 {
        let _ = component;
        0.0
    }
}

/// A calibrated cost model sufficient for every experiment in the paper.
///
/// `restart_s` is `max_i(boot_i + solo_sync_penalty_i) · contention(k)` where
/// `contention(k) = 1 + q·(k−1)²` for `k` concurrently restarting components.
/// The quadratic form captures the paper's observation that "a whole system
/// restart causes contention for resources that is not present when
/// restarting just one component" while a two-component joint restart costs
/// nearly the same as its slowest member (tree IV/V measurements).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimpleCostModel {
    detection_s: f64,
    redetection_s: f64,
    boot_s: BTreeMap<String, f64>,
    contention_quadratic: f64,
    /// component → (sync peer, extra seconds when restarted without peer).
    solo_sync_penalty: BTreeMap<String, (String, f64)>,
    rapid_restart_penalty: BTreeMap<String, f64>,
}

impl SimpleCostModel {
    /// Creates a model with the given detection latencies.
    ///
    /// # Panics
    ///
    /// Panics if either latency is negative or not finite.
    pub fn new(detection_s: f64, redetection_s: f64) -> SimpleCostModel {
        assert!(detection_s.is_finite() && detection_s >= 0.0);
        assert!(redetection_s.is_finite() && redetection_s >= 0.0);
        SimpleCostModel {
            detection_s,
            redetection_s,
            ..SimpleCostModel::default()
        }
    }

    /// Sets a component's boot time (seconds to functionally-ready).
    #[must_use]
    pub fn with_boot(mut self, component: impl Into<String>, boot_s: f64) -> Self {
        assert!(
            boot_s.is_finite() && boot_s >= 0.0,
            "invalid boot time {boot_s}"
        );
        self.boot_s.insert(component.into(), boot_s);
        self
    }

    /// Sets the quadratic contention coefficient.
    #[must_use]
    pub fn with_contention(mut self, q: f64) -> Self {
        assert!(q.is_finite() && q >= 0.0, "invalid contention {q}");
        self.contention_quadratic = q;
        self
    }

    /// Declares that `component` blocks re-synchronizing with `peer` when
    /// restarted alone, costing `penalty_s` extra (the ses/str coupling of
    /// §4.3).
    #[must_use]
    pub fn with_sync_pair(
        mut self,
        component: impl Into<String>,
        peer: impl Into<String>,
        penalty_s: f64,
    ) -> Self {
        assert!(penalty_s.is_finite() && penalty_s >= 0.0);
        self.solo_sync_penalty
            .insert(component.into(), (peer.into(), penalty_s));
        self
    }

    /// Sets the rapid-restart penalty for a component.
    #[must_use]
    pub fn with_rapid_restart_penalty(mut self, component: impl Into<String>, s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0);
        self.rapid_restart_penalty.insert(component.into(), s);
        self
    }

    /// The boot time configured for `component`, if any.
    pub fn boot_s(&self, component: &str) -> Option<f64> {
        self.boot_s.get(component).copied()
    }

    /// The contention multiplier for `k` concurrent restarts.
    fn contention_factor(&self, k: usize) -> f64 {
        if k <= 1 {
            1.0
        } else {
            1.0 + self.contention_quadratic * ((k - 1) as f64).powi(2)
        }
    }

    /// Every configured `(component, boot seconds)` pair — the hook rr-abs
    /// uses to widen a calibrated point model into an interval model.
    pub fn boot_times(&self) -> impl Iterator<Item = (&str, f64)> {
        self.boot_s.iter().map(|(c, s)| (c.as_str(), *s))
    }

    /// Every configured `(component, sync peer, solo penalty seconds)`
    /// triple (§4.3 coupling).
    pub fn sync_pairs(&self) -> impl Iterator<Item = (&str, &str, f64)> {
        self.solo_sync_penalty
            .iter()
            .map(|(c, (peer, s))| (c.as_str(), peer.as_str(), *s))
    }

    /// Every configured `(component, rapid-restart penalty seconds)` pair.
    pub fn rapid_restart_penalties(&self) -> impl Iterator<Item = (&str, f64)> {
        self.rapid_restart_penalty
            .iter()
            .map(|(c, s)| (c.as_str(), *s))
    }

    /// The quadratic contention coefficient `q`: `k` concurrent restarts
    /// each slow by `1 + q·(k−1)²`.
    pub fn contention_quadratic(&self) -> f64 {
        self.contention_quadratic
    }
}

impl CostModel for SimpleCostModel {
    fn detection_s(&self) -> f64 {
        self.detection_s
    }

    fn redetection_s(&self) -> f64 {
        self.redetection_s
    }

    fn restart_s(&self, components: &[String]) -> f64 {
        let mut slowest: f64 = 0.0;
        for comp in components {
            let boot = self.boot_s.get(comp).copied().unwrap_or(0.0);
            let penalty = match self.solo_sync_penalty.get(comp) {
                Some((peer, penalty)) if !components.contains(peer) => *penalty,
                _ => 0.0,
            };
            slowest = slowest.max(boot + penalty);
        }
        slowest * self.contention_factor(components.len())
    }

    fn rapid_restart_penalty_s(&self, component: &str) -> f64 {
        self.rapid_restart_penalty
            .get(component)
            .copied()
            .unwrap_or(0.0)
    }
}

/// Analytic oracle quality, mirroring the oracles of
/// [`oracle`](crate::oracle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OracleQuality {
    /// Always recommends the minimal cure cell (`A_oracle`).
    Perfect,
    /// With probability `undershoot`, first recommends the failed
    /// component's own cell when the minimal cure is higher (§4.4's faulty
    /// oracle), then escalates level by level.
    Faulty {
        /// Probability of a guess-too-low mistake.
        undershoot: f64,
    },
    /// Always starts at the failed component's own cell and escalates —
    /// equivalent to `Faulty { undershoot: 1.0 }`.
    Naive,
}

/// Expected recovery seconds for one failure mode under the given tree,
/// cost model and oracle quality.
///
/// # Errors
///
/// Returns [`TreeError`] if the mode references components not in the tree.
pub fn expected_mode_recovery_s(
    tree: &RestartTree,
    mode: &FailureMode,
    cost: &dyn CostModel,
    quality: OracleQuality,
) -> Result<f64, TreeError> {
    let minimal = tree.lowest_cover(&mode.cure_set)?;
    let own = tree
        .cell_of_component(&mode.trigger)
        .ok_or_else(|| TreeError::UnknownComponent(mode.trigger.clone()))?;

    let perfect_cost = cost.detection_s() + cost.restart_s(&tree.components_under(minimal));
    let undershoot = match quality {
        OracleQuality::Perfect => return Ok(perfect_cost),
        OracleQuality::Faulty { undershoot } => undershoot,
        OracleQuality::Naive => 1.0,
    };
    if own == minimal || undershoot == 0.0 {
        // The tree structurally prevents guess-too-low for this mode
        // (node promotion's effect), or the oracle never errs.
        return Ok(perfect_cost);
    }

    // Wrong-guess path: restart at the component's own cell, then climb one
    // level per re-detection until reaching the minimal cell.
    let mut wrong_cost = cost.detection_s();
    let mut restarted_counts: BTreeMap<String, u32> = BTreeMap::new();
    let mut cur = own;
    loop {
        let comps = tree.components_under(cur);
        wrong_cost += cost.restart_s(&comps);
        for c in &comps {
            let count = restarted_counts.entry(c.clone()).or_insert(0);
            *count += 1;
            if *count > 1 {
                wrong_cost += cost.rapid_restart_penalty_s(c);
            }
        }
        if cur == minimal {
            break;
        }
        wrong_cost += cost.redetection_s();
        cur = tree.parent(cur).unwrap_or(cur);
    }

    Ok((1.0 - undershoot) * perfect_cost + undershoot * wrong_cost)
}

/// Expected recovery seconds for `modes` failing together when REC handles
/// them *serially*: one episode at a time, each restarting its own minimal
/// cure cell, later suspicions waiting for earlier ones to drain. Detection
/// is paid once (the failures are simultaneous and FD's sweep finds them in
/// the same round); restart costs accumulate.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptyGroup`] if `modes` is empty, or a tree error
/// if a mode references components not in the tree.
pub fn expected_serial_group_recovery_s(
    tree: &RestartTree,
    modes: &[FailureMode],
    cost: &dyn CostModel,
) -> Result<f64, AnalysisError> {
    if modes.is_empty() {
        return Err(AnalysisError::EmptyGroup {
            what: "expected_serial_group_recovery_s",
        });
    }
    let mut total = cost.detection_s();
    for mode in modes {
        let cell = tree.lowest_cover(&mode.cure_set)?;
        total += cost.restart_s(&tree.components_under(cell));
    }
    Ok(total)
}

/// Expected recovery seconds for `modes` failing together when REC plans one
/// *antichain* of episodes and drives them concurrently: overlapping cure
/// cells merge by promotion to their least common ancestor, independent ones
/// restart in parallel. The group completes when the slowest component of the
/// union is back, and contention is charged over everything rebooting at
/// once — so `restart_s(union)` is exactly the parallel completion cost.
///
/// With a sub-additive cost model (contention below the cost of booting
/// twice), this is never above [`expected_serial_group_recovery_s`] — the
/// analytic face of the scheduler's "parallel no worse than serial" property.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptyGroup`] if `modes` is empty, or a tree error
/// if a mode references components not in the tree.
pub fn expected_parallel_group_recovery_s(
    tree: &RestartTree,
    modes: &[FailureMode],
    cost: &dyn CostModel,
) -> Result<f64, AnalysisError> {
    if modes.is_empty() {
        return Err(AnalysisError::EmptyGroup {
            what: "expected_parallel_group_recovery_s",
        });
    }
    let suspicions = modes
        .iter()
        .map(|mode| Suspicion::covering(tree, &mode.trigger, &mode.cure_set))
        .collect::<Result<Vec<_>, _>>()?;
    let plan = plan_episodes(tree, &suspicions)?;
    let union: BTreeSet<String> = plan
        .episodes
        .iter()
        .flat_map(|ep| ep.components.iter().cloned())
        .collect();
    let union: Vec<String> = union.into_iter().collect();
    Ok(cost.detection_s() + cost.restart_s(&union))
}

/// Expected system MTTR: mode probabilities weighting mode recovery
/// times — the generalization of the §4.1 formula to arbitrary trees and
/// oracles.
///
/// # Errors
///
/// Returns [`AnalysisError::Model`] if `model` has no modes, or
/// [`AnalysisError::Tree`] if the model references components not in the
/// tree.
pub fn expected_system_mttr_s(
    tree: &RestartTree,
    model: &FailureModel,
    cost: &dyn CostModel,
    quality: OracleQuality,
) -> Result<f64, AnalysisError> {
    if model.modes().is_empty() {
        return Err(ModelError::EmptyModel {
            query: "expected_system_mttr_s",
        }
        .into());
    }
    let mut total = 0.0;
    for mode in model.modes() {
        let p = model.mode_probability(mode)?;
        total += p * expected_mode_recovery_s(tree, mode, cost, quality)?;
    }
    Ok(total)
}

/// Expected steady-state availability of the system under `A_entire`.
///
/// # Errors
///
/// Returns [`AnalysisError`] if the model is empty or references components
/// not in the tree.
pub fn expected_availability(
    tree: &RestartTree,
    model: &FailureModel,
    cost: &dyn CostModel,
    quality: OracleQuality,
) -> Result<f64, AnalysisError> {
    let mttr = expected_system_mttr_s(tree, model, cost, quality)?;
    availability(model.system_mttf_s()?, mttr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeSpec;

    fn cost() -> SimpleCostModel {
        SimpleCostModel::new(0.9, 2.0)
            .with_boot("mbus", 4.83)
            .with_boot("fedr", 4.86)
            .with_boot("pbcom", 20.34)
            .with_boot("ses", 5.25)
            .with_boot("str", 5.11)
            .with_boot("rtu", 4.69)
            .with_contention(0.0119)
            .with_sync_pair("ses", "str", 3.35)
            .with_sync_pair("str", "ses", 3.75)
            .with_rapid_restart_penalty("pbcom", 4.0)
    }

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

    fn tree_v() -> RestartTree {
        let mut t = tree_iv();
        crate::transform::promote_component(&mut t, "pbcom").unwrap();
        t
    }

    #[test]
    fn availability_basics() {
        assert!((availability(99.0, 1.0).unwrap() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn availability_rejects_degenerate_inputs() {
        assert!(matches!(
            availability(0.0, 1.0),
            Err(AnalysisError::NonPositive { what: "MTTF", .. })
        ));
        assert!(matches!(
            availability(99.0, f64::NAN),
            Err(AnalysisError::NonPositive { what: "MTTR", .. })
        ));
    }

    #[test]
    fn group_bounds() {
        assert_eq!(group_mttf_bound_s(&[100.0, 50.0, 75.0]).unwrap(), 50.0);
        assert_eq!(group_mttr_bound_s(&[5.0, 21.0, 9.0]).unwrap(), 21.0);
        assert!(matches!(
            group_mttf_bound_s(&[]),
            Err(AnalysisError::EmptyGroup { .. })
        ));
        assert!(matches!(
            group_mttr_bound_s(&[]),
            Err(AnalysisError::EmptyGroup { .. })
        ));
    }

    #[test]
    fn restart_cost_uses_slowest_with_contention() {
        let c = cost();
        let one = c.restart_s(&["rtu".to_string()]);
        assert!((one - 4.69).abs() < 1e-9);
        let all: Vec<String> = ["mbus", "fedr", "pbcom", "ses", "str", "rtu"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let full = c.restart_s(&all);
        // 6 components: contention factor 1 + 0.0119·25.
        assert!((full - 20.34 * (1.0 + 0.0119 * 25.0)).abs() < 1e-9);
        assert!(c.contention_factor(1) == 1.0 && c.contention_factor(2) > 1.0);
    }

    #[test]
    fn sync_penalty_applies_only_when_peer_absent() {
        let c = cost();
        let solo = c.restart_s(&["ses".to_string()]);
        assert!((solo - (5.25 + 3.35)).abs() < 1e-9);
        let joint = c.restart_s(&["ses".to_string(), "str".to_string()]);
        // No penalty; slowest is ses's 5.25, times pair contention.
        assert!((joint - 5.25 * (1.0 + 0.0119)).abs() < 1e-9);
        assert!(joint < solo, "consolidation must beat sequential resync");
    }

    #[test]
    fn tree_iv_perfect_matches_paper_shape() {
        // Perfect-oracle recovery for each solo mode lands near Table 4 row IV.
        let tree = tree_iv();
        let c = cost();
        let cases = [
            ("mbus", 5.73),
            ("ses", 6.25),
            ("str", 6.11),
            ("rtu", 5.59),
            ("fedr", 5.76),
            ("pbcom", 21.24),
        ];
        for (comp, paper) in cases {
            let mode = FailureMode::solo(comp, comp, 1.0).unwrap();
            let got = expected_mode_recovery_s(&tree, &mode, &c, OracleQuality::Perfect).unwrap();
            let rel = (got - paper).abs() / paper;
            assert!(rel < 0.05, "{comp}: predicted {got:.2}, paper {paper}");
        }
    }

    #[test]
    fn faulty_oracle_costs_more_only_when_undershoot_possible() {
        let tree = tree_iv();
        let c = cost();
        let joint =
            FailureMode::correlated("pbcom-joint", "pbcom", ["fedr", "pbcom"], 1.0).unwrap();
        let perfect = expected_mode_recovery_s(&tree, &joint, &c, OracleQuality::Perfect).unwrap();
        let faulty =
            expected_mode_recovery_s(&tree, &joint, &c, OracleQuality::Faulty { undershoot: 0.3 })
                .unwrap();
        assert!(faulty > perfect);
        // Paper: 29.19 s for tree IV under the 30%-faulty oracle.
        assert!((faulty - 29.19).abs() / 29.19 < 0.05, "faulty {faulty:.2}");

        // Tree V structurally removes the mistake: faulty == perfect.
        let tv = tree_v();
        let v_faulty =
            expected_mode_recovery_s(&tv, &joint, &c, OracleQuality::Faulty { undershoot: 0.3 })
                .unwrap();
        let v_perfect = expected_mode_recovery_s(&tv, &joint, &c, OracleQuality::Perfect).unwrap();
        assert_eq!(v_faulty, v_perfect);
        // Paper: 21.63 s in tree V.
        assert!(
            (v_faulty - 21.63).abs() / 21.63 < 0.05,
            "tree V {v_faulty:.2}"
        );
    }

    #[test]
    fn naive_equals_faulty_one() {
        let tree = tree_iv();
        let c = cost();
        let joint =
            FailureMode::correlated("pbcom-joint", "pbcom", ["fedr", "pbcom"], 1.0).unwrap();
        let naive = expected_mode_recovery_s(&tree, &joint, &c, OracleQuality::Naive).unwrap();
        let faulty1 =
            expected_mode_recovery_s(&tree, &joint, &c, OracleQuality::Faulty { undershoot: 1.0 })
                .unwrap();
        assert_eq!(naive, faulty1);
    }

    #[test]
    fn system_mttr_weights_by_mode_probability() {
        let tree = tree_iv();
        let c = cost();
        let model = FailureModel::new()
            .with_mode(FailureMode::solo("fedr", "fedr", 6.0).unwrap())
            .with_mode(FailureMode::solo("rtu", "rtu", 0.2).unwrap());
        let sys = expected_system_mttr_s(&tree, &model, &c, OracleQuality::Perfect).unwrap();
        let fedr =
            expected_mode_recovery_s(&tree, &model.modes()[0], &c, OracleQuality::Perfect).unwrap();
        let rtu =
            expected_mode_recovery_s(&tree, &model.modes()[1], &c, OracleQuality::Perfect).unwrap();
        let expected = (6.0 * fedr + 0.2 * rtu) / 6.2;
        assert!((sys - expected).abs() < 1e-9);
    }

    #[test]
    fn availability_improves_with_better_tree() {
        // Tree I (single group) vs tree IV: same failure model, same costs.
        let tree_i = TreeSpec::cell("mercury")
            .with_components(["mbus", "fedr", "pbcom", "ses", "str", "rtu"])
            .build()
            .unwrap();
        let model = FailureModel::new()
            .with_mode(FailureMode::solo("fedr", "fedr", 6.0).unwrap())
            .with_mode(FailureMode::solo("ses", "ses", 0.2).unwrap())
            .with_mode(FailureMode::solo("rtu", "rtu", 0.2).unwrap());
        let c = cost();
        let a1 = expected_availability(&tree_i, &model, &c, OracleQuality::Perfect).unwrap();
        let a4 = expected_availability(&tree_iv(), &model, &c, OracleQuality::Perfect).unwrap();
        assert!(a4 > a1, "tree IV {a4} should beat tree I {a1}");
    }

    #[test]
    fn parallel_group_beats_serial_for_independent_faults() {
        // rtu and fedr fail together in tree IV: their cells are disjoint,
        // so the parallel plan restarts both at once and finishes with the
        // slowest, while the serial baseline pays both boots back to back.
        let tree = tree_iv();
        let c = cost();
        let modes = [
            FailureMode::solo("rtu", "rtu", 1.0).unwrap(),
            FailureMode::solo("fedr", "fedr", 1.0).unwrap(),
        ];
        let serial = expected_serial_group_recovery_s(&tree, &modes, &c).unwrap();
        let parallel = expected_parallel_group_recovery_s(&tree, &modes, &c).unwrap();
        // Serial: 0.9 + 4.69 + 4.86. Parallel: 0.9 + max(4.69, 4.86)·(1+q).
        assert!((serial - (0.9 + 4.69 + 4.86)).abs() < 1e-9);
        assert!((parallel - (0.9 + 4.86 * (1.0 + 0.0119))).abs() < 1e-9);
        assert!(parallel < serial);
    }

    #[test]
    fn parallel_group_merges_overlapping_faults_to_lca() {
        // fedr and the joint pbcom failure overlap: the plan promotes to
        // R_[fedr,pbcom], one episode, cost of the joint pair restart.
        let tree = tree_iv();
        let c = cost();
        let modes = [
            FailureMode::solo("fedr", "fedr", 1.0).unwrap(),
            FailureMode::correlated("pbcom-joint", "pbcom", ["fedr", "pbcom"], 1.0).unwrap(),
        ];
        let parallel = expected_parallel_group_recovery_s(&tree, &modes, &c).unwrap();
        let pair: Vec<String> = vec!["fedr".into(), "pbcom".into()];
        assert!((parallel - (0.9 + c.restart_s(&pair))).abs() < 1e-9);
        // The serial baseline restarts R_fedr, then the joint cell: strictly
        // more work than the merged single episode.
        let serial = expected_serial_group_recovery_s(&tree, &modes, &c).unwrap();
        assert!(parallel < serial);
    }

    #[test]
    fn group_recovery_of_single_mode_matches_perfect_mode_recovery() {
        // A group of one is just the perfect-oracle mode recovery: the
        // parallel algebra degenerates cleanly.
        let tree = tree_iv();
        let c = cost();
        let mode = FailureMode::solo("rtu", "rtu", 1.0).unwrap();
        let solo = expected_mode_recovery_s(&tree, &mode, &c, OracleQuality::Perfect).unwrap();
        let group =
            expected_parallel_group_recovery_s(&tree, std::slice::from_ref(&mode), &c).unwrap();
        assert!((solo - group).abs() < 1e-9);
        let serial = expected_serial_group_recovery_s(&tree, &[mode], &c).unwrap();
        assert!((solo - serial).abs() < 1e-9);
    }

    #[test]
    fn unknown_components_error() {
        let tree = tree_iv();
        let c = cost();
        let mode = FailureMode::solo("ghost", "ghost", 1.0).unwrap();
        assert!(expected_mode_recovery_s(&tree, &mode, &c, OracleQuality::Perfect).is_err());
    }
}
