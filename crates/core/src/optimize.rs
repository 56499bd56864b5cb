//! Automatic restart-tree optimization — the "specific algorithms for
//! transforming restart trees" the paper leaves as future work (§7).
//!
//! Given a failure model, a cost model and an oracle quality, the optimizer
//! searches the space of restart trees reachable through the paper's
//! transformations (augment, group, consolidate, promote, demote, flatten)
//! for the tree minimizing analytic expected system MTTR. The search is a
//! steepest-descent hill climb over single-transformation neighbourhoods;
//! because every paper transformation and its inverse are in the move set,
//! the climb can both grow and shrink the tree.
//!
//! The headline test (and `repro ablation-optimizer`) shows the optimizer
//! re-deriving the paper's hand-designed trees: starting from the trivial
//! tree I it reaches a tree equivalent to tree IV under a perfect oracle, and
//! to tree V under the §4.4 faulty oracle.

use crate::analysis::{expected_system_mttr_s, CostModel, OracleQuality};
use crate::error::{AnalysisError, TreeError};
use crate::model::FailureModel;
use crate::transform::{
    consolidate, consolidate_one_sided, demote_component, depth_augment, flatten, group_cells,
    promote_component,
};
use crate::tree::{NodeId, RestartTree};

/// One applied transformation, for reporting the optimizer's derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Move {
    /// Depth-augmented a cell into singleton children.
    AugmentSingletons(String),
    /// Grouped sibling cells under a new intermediate cell.
    Group(Vec<String>),
    /// Consolidated sibling cells into one.
    Consolidate(Vec<String>),
    /// One-sided consolidation: grouped two siblings and absorbed the second
    /// into the joint cell (the paper's view of node promotion, §4.4).
    ConsolidateOneSided {
        /// The sibling that keeps its own restart button.
        keep: String,
        /// The sibling absorbed into the joint cell.
        absorb: String,
    },
    /// Promoted a component into its parent cell.
    Promote(String),
    /// Demoted a component into its own child cell.
    Demote(String),
    /// Flattened a subtree.
    Flatten(String),
}

impl std::fmt::Display for Move {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Move::AugmentSingletons(cell) => write!(f, "augment {cell} into singletons"),
            Move::Group(cells) => write!(f, "group [{}]", cells.join(", ")),
            Move::Consolidate(cells) => write!(f, "consolidate [{}]", cells.join(", ")),
            Move::ConsolidateOneSided { keep, absorb } => {
                write!(f, "one-sided consolidate: absorb {absorb}, keep {keep}")
            }
            Move::Promote(c) => write!(f, "promote {c}"),
            Move::Demote(c) => write!(f, "demote {c}"),
            Move::Flatten(cell) => write!(f, "flatten {cell}"),
        }
    }
}

/// The result of an optimization run.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The best tree found.
    pub tree: RestartTree,
    /// Its analytic expected MTTR in seconds.
    pub expected_mttr_s: f64,
    /// The move sequence that produced it.
    pub derivation: Vec<Move>,
}

/// Configuration for [`optimize_tree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Stop after this many accepted moves (defends against pathological
    /// cost models).
    pub max_moves: usize,
    /// A candidate must improve expected MTTR by more than this (seconds) to
    /// be accepted — prevents churning on ties.
    pub min_improvement_s: f64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            max_moves: 64,
            min_improvement_s: 1e-9,
        }
    }
}

fn neighbourhood(tree: &RestartTree) -> Vec<(Move, RestartTree)> {
    let mut out = Vec::new();

    // Augment any cell holding ≥2 components into singletons.
    for cell in tree.cells() {
        let comps = tree.components_at(cell).to_vec();
        if comps.len() >= 2 {
            let partition: Vec<Vec<String>> = comps.iter().map(|c| vec![c.clone()]).collect();
            let mut t = tree.clone();
            if depth_augment(&mut t, cell, &partition).is_ok() {
                out.push((Move::AugmentSingletons(tree.label(cell).to_string()), t));
            }
        }
    }

    // Pairwise group / consolidate of sibling cells.
    for parent in tree.cells() {
        let children = tree.children(parent).to_vec();
        for i in 0..children.len() {
            for j in (i + 1)..children.len() {
                let pair = [children[i], children[j]];
                let labels = vec![
                    tree.label(pair[0]).to_string(),
                    tree.label(pair[1]).to_string(),
                ];
                let mut t = tree.clone();
                if group_cells(&mut t, &pair).is_ok() {
                    out.push((Move::Group(labels.clone()), t));
                }
                let mut t = tree.clone();
                if consolidate(&mut t, &pair).is_ok() {
                    out.push((Move::Consolidate(labels.clone()), t));
                }
                for (keep, absorb) in [(pair[0], pair[1]), (pair[1], pair[0])] {
                    let mut t = tree.clone();
                    if consolidate_one_sided(&mut t, keep, absorb).is_ok() {
                        out.push((
                            Move::ConsolidateOneSided {
                                keep: tree.label(keep).to_string(),
                                absorb: tree.label(absorb).to_string(),
                            },
                            t,
                        ));
                    }
                }
            }
        }
    }

    // Promote / demote every component.
    for comp in tree.components() {
        let mut t = tree.clone();
        if promote_component(&mut t, &comp).is_ok() {
            out.push((Move::Promote(comp.clone()), t));
        }
        let mut t = tree.clone();
        if demote_component(&mut t, &comp).is_ok() {
            out.push((Move::Demote(comp.clone()), t));
        }
    }

    // Flatten every internal non-root cell (and the root).
    for cell in tree.cells() {
        if !tree.children(cell).is_empty() {
            let mut t = tree.clone();
            if flatten(&mut t, cell).is_ok() {
                out.push((Move::Flatten(tree.label(cell).to_string()), t));
            }
        }
    }

    out
}

/// Hill-climbs from `start` to a locally optimal restart tree.
///
/// # Errors
///
/// Returns [`AnalysisError`] if the failure model references components absent
/// from `start`.
pub fn optimize_tree(
    start: &RestartTree,
    model: &FailureModel,
    cost: &dyn CostModel,
    quality: OracleQuality,
    config: OptimizerConfig,
) -> Result<Optimized, AnalysisError> {
    model
        .validate_against(start)
        .map_err(|missing| TreeError::UnknownComponent(missing.join(", ")))?;

    let mut current = start.clone();
    let mut current_cost = expected_system_mttr_s(&current, model, cost, quality)?;
    let mut derivation = Vec::new();

    for _ in 0..config.max_moves {
        let mut best: Option<(Move, RestartTree, f64)> = None;
        for (mv, candidate) in neighbourhood(&current) {
            debug_assert!(candidate.validate().is_ok(), "move {mv} broke the tree");
            let Ok(c) = expected_system_mttr_s(&candidate, model, cost, quality) else {
                continue;
            };
            if c < current_cost - config.min_improvement_s
                && best.as_ref().is_none_or(|(_, _, b)| c < *b)
            {
                best = Some((mv, candidate, c));
            }
        }
        match best {
            Some((mv, tree, c)) => {
                derivation.push(mv);
                current = tree;
                current_cost = c;
            }
            None => break,
        }
    }

    Ok(Optimized {
        tree: current,
        expected_mttr_s: current_cost,
        derivation,
    })
}

/// Convenience: the cell of `tree` whose subtree exactly covers `components`,
/// if one exists. Useful for asserting that an optimized tree contains a
/// particular restart group.
pub fn find_group(tree: &RestartTree, components: &[&str]) -> Option<NodeId> {
    let mut want: Vec<String> = components.iter().map(|s| s.to_string()).collect();
    want.sort();
    tree.cells()
        .into_iter()
        .find(|&c| tree.components_under(c) == want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SimpleCostModel;
    use crate::model::FailureMode;
    use crate::tree::TreeSpec;

    /// The post-split Mercury component set with calibrated costs.
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

    /// Mercury's failure model: Table 1 rates plus the correlated modes of
    /// §4.2/§4.3.
    fn model() -> FailureModel {
        FailureModel::new()
            .with_mode(FailureMode::solo("mbus", "mbus", 1.0 / (30.0 * 24.0)).unwrap())
            .with_mode(FailureMode::solo("fedr", "fedr", 5.0).unwrap())
            .with_mode(FailureMode::solo("pbcom", "pbcom", 0.05).unwrap())
            .with_mode(
                FailureMode::correlated("pbcom-joint", "pbcom", ["fedr", "pbcom"], 0.4).unwrap(),
            )
            .with_mode(FailureMode::correlated("ses", "ses", ["ses", "str"], 0.2).unwrap())
            .with_mode(FailureMode::correlated("str", "str", ["ses", "str"], 0.2).unwrap())
            .with_mode(FailureMode::solo("rtu", "rtu", 0.2).unwrap())
    }

    fn tree_i() -> RestartTree {
        TreeSpec::cell("mercury")
            .with_components(["mbus", "fedr", "pbcom", "ses", "str", "rtu"])
            .build()
            .unwrap()
    }

    #[test]
    fn optimizer_improves_on_tree_i() {
        let c = cost();
        let m = model();
        let start = tree_i();
        let start_cost = expected_system_mttr_s(&start, &m, &c, OracleQuality::Perfect).unwrap();
        let opt = optimize_tree(
            &start,
            &m,
            &c,
            OracleQuality::Perfect,
            OptimizerConfig::default(),
        )
        .unwrap();
        opt.tree.validate().unwrap();
        assert!(
            opt.expected_mttr_s < start_cost / 2.0,
            "optimizer {:.2}s vs tree I {:.2}s",
            opt.expected_mttr_s,
            start_cost
        );
        assert!(!opt.derivation.is_empty());
    }

    #[test]
    fn optimizer_discovers_ses_str_consolidation() {
        let opt = optimize_tree(
            &tree_i(),
            &model(),
            &cost(),
            OracleQuality::Perfect,
            OptimizerConfig::default(),
        )
        .unwrap();
        // The optimized tree must contain a restart group of exactly
        // {ses, str} (tree IV's consolidated cell).
        let cell = find_group(&opt.tree, &["ses", "str"]);
        assert!(cell.is_some(), "no [ses,str] group in:\n{}", opt.tree);
    }

    #[test]
    fn optimizer_discovers_joint_fedr_pbcom_group() {
        let opt = optimize_tree(
            &tree_i(),
            &model(),
            &cost(),
            OracleQuality::Perfect,
            OptimizerConfig::default(),
        )
        .unwrap();
        // With f_{fedr,pbcom} > 0, a joint restart button must exist (§4.2)
        // while fedr keeps its own (fedr fails often and boots fast).
        assert!(
            find_group(&opt.tree, &["fedr", "pbcom"]).is_some(),
            "{}",
            opt.tree
        );
        assert!(find_group(&opt.tree, &["fedr"]).is_some(), "{}", opt.tree);
    }

    #[test]
    fn faulty_oracle_drives_promotion_to_tree_v_shape() {
        let opt = optimize_tree(
            &tree_i(),
            &model(),
            &cost(),
            OracleQuality::Faulty { undershoot: 0.3 },
            OptimizerConfig::default(),
        )
        .unwrap();
        // Under a faulty oracle the optimum removes pbcom's solo button:
        // pbcom's own cell must cover fedr too (tree V), so the
        // guess-too-low mistake is impossible.
        let pbcom_cell = opt.tree.cell_of_component("pbcom").unwrap();
        let under = opt.tree.components_under(pbcom_cell);
        assert_eq!(under, vec!["fedr", "pbcom"], "{}", opt.tree);
        // fedr keeps its cheap solo button.
        assert!(find_group(&opt.tree, &["fedr"]).is_some(), "{}", opt.tree);
    }

    #[test]
    fn perfect_oracle_keeps_pbcom_solo_button() {
        // With a perfect oracle, tree IV is never worse than tree V
        // ("tree IV is strictly more flexible", §4.4) — pbcom should keep a
        // solo cell because solo pbcom failures exist.
        let opt = optimize_tree(
            &tree_i(),
            &model(),
            &cost(),
            OracleQuality::Perfect,
            OptimizerConfig::default(),
        )
        .unwrap();
        assert!(find_group(&opt.tree, &["pbcom"]).is_some(), "{}", opt.tree);
    }

    #[test]
    fn optimizer_is_idempotent_at_local_optimum() {
        let c = cost();
        let m = model();
        let first = optimize_tree(
            &tree_i(),
            &m,
            &c,
            OracleQuality::Perfect,
            OptimizerConfig::default(),
        )
        .unwrap();
        let second = optimize_tree(
            &first.tree,
            &m,
            &c,
            OracleQuality::Perfect,
            OptimizerConfig::default(),
        )
        .unwrap();
        assert!(second.derivation.is_empty());
        assert!((second.expected_mttr_s - first.expected_mttr_s).abs() < 1e-9);
    }

    #[test]
    fn optimizer_rejects_incomplete_trees() {
        let tree = TreeSpec::cell("r").with_component("fedr").build().unwrap();
        let err = optimize_tree(
            &tree,
            &model(),
            &cost(),
            OracleQuality::Perfect,
            OptimizerConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::Tree(TreeError::UnknownComponent(_))
        ));
    }

    #[test]
    fn move_display() {
        assert_eq!(Move::Promote("pbcom".into()).to_string(), "promote pbcom");
        assert!(Move::Consolidate(vec!["a".into(), "b".into()])
            .to_string()
            .contains("a, b"));
    }

    #[test]
    fn find_group_exact_match_only() {
        let tree = tree_i();
        assert!(find_group(&tree, &["mbus"]).is_none());
        assert!(find_group(&tree, &["fedr", "mbus", "pbcom", "rtu", "ses", "str"]).is_some());
    }
}
