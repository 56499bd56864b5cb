//! Exhaustive restart-tree enumeration for small component sets.
//!
//! The hill-climbing [`optimizer`](crate::optimize) searches the tree space
//! through transformation moves; this module *enumerates* the space outright
//! (feasible up to ~5 components) so the optimizer's local optima can be
//! checked against the true global optimum — the strongest evidence that
//! "identify specific algorithms for transforming restart trees" (§7) is
//! answered correctly.
//!
//! A restart tree over a component set `S` is, canonically:
//!
//! * a root cell with some attached subset `A ⊆ S`, and
//! * a partition of `S \ A` into blocks, each recursively a subtree —
//!
//! with one normalization: a cell with no attached components and exactly one
//! child is collapsed (it adds a restart button identical to its child's).

use std::collections::BTreeMap;

use crate::transform::group_label;
use crate::tree::{RestartTree, TreeSpec};

/// Enumerates every canonical restart tree over `components`.
///
/// # Panics
///
/// Panics if more than 5 components are given (the space explodes) or the
/// set is empty.
pub fn enumerate_trees(components: &[String]) -> Vec<RestartTree> {
    assert!(!components.is_empty(), "no components");
    assert!(
        components.len() <= 5,
        "exhaustive enumeration is limited to 5 components ({} given)",
        components.len()
    );
    let mut memo = BTreeMap::new();
    enumerate_specs(components.to_vec(), &mut memo)
        .into_iter()
        .map(|spec| {
            spec.build()
                .unwrap_or_else(|e| unreachable!("enumerated specs are valid: {e}"))
        })
        .collect()
}

/// Enumerated subtree specs over a sorted component set, memoized.
fn enumerate_specs(
    mut set: Vec<String>,
    memo: &mut BTreeMap<Vec<String>, Vec<TreeSpec>>,
) -> Vec<TreeSpec> {
    set.sort();
    if let Some(hit) = memo.get(&set) {
        return hit.clone();
    }
    let n = set.len();
    let mut out = Vec::new();
    // Choose the attached subset A by bitmask.
    for mask in 0..(1u32 << n) {
        let attached: Vec<String> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| set[i].clone())
            .collect();
        let rest: Vec<String> = (0..n)
            .filter(|i| mask & (1 << i) == 0)
            .map(|i| set[i].clone())
            .collect();
        if rest.is_empty() {
            // Leaf cell holding everything.
            out.push(TreeSpec::cell(group_label(&set)).with_components(attached));
            continue;
        }
        for blocks in set_partitions(&rest) {
            // Normalization: an empty cell with a single child is redundant.
            if attached.is_empty() && blocks.len() == 1 {
                continue;
            }
            // Cartesian product of the children's enumerations.
            let child_options: Vec<Vec<TreeSpec>> = blocks
                .iter()
                .map(|b| enumerate_specs(b.clone(), memo))
                .collect();
            let mut partials: Vec<Vec<TreeSpec>> = vec![Vec::new()];
            for options in &child_options {
                let mut next = Vec::with_capacity(partials.len() * options.len());
                for partial in &partials {
                    for option in options {
                        let mut p = partial.clone();
                        p.push(option.clone());
                        next.push(p);
                    }
                }
                partials = next;
            }
            for children in partials {
                let mut spec = TreeSpec::cell(group_label(&set)).with_components(attached.clone());
                for child in children {
                    spec = spec.with_child(child);
                }
                out.push(spec);
            }
        }
    }
    memo.insert(set, out.clone());
    out
}

/// All partitions of `items` into non-empty unordered blocks (Bell-number
/// many), with blocks in a canonical order.
fn set_partitions(items: &[String]) -> Vec<Vec<Vec<String>>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    let first = items[0].clone();
    let rest = &items[1..];
    let mut out = Vec::new();
    for sub in set_partitions(rest) {
        // Put `first` into each existing block…
        for i in 0..sub.len() {
            let mut clone = sub.clone();
            clone[i].insert(0, first.clone());
            out.push(clone);
        }
        // …or into a new block of its own.
        let mut clone = sub;
        clone.insert(0, vec![first.clone()]);
        out.push(clone);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{expected_system_mttr_s, CostModel, OracleQuality, SimpleCostModel};
    use crate::model::{FailureMode, FailureModel};
    use crate::optimize::{optimize_tree, OptimizerConfig};

    /// The globally optimal restart tree over `components`, found by
    /// trying every one: `(tree, expected MTTR seconds)`.
    fn exhaustive_best(
        components: &[String],
        model: &FailureModel,
        cost: &dyn CostModel,
        quality: OracleQuality,
    ) -> (RestartTree, f64) {
        enumerate_trees(components)
            .into_iter()
            .map(|tree| {
                let c = expected_system_mttr_s(&tree, model, cost, quality).unwrap();
                (tree, c)
            })
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .expect("at least one tree enumerated")
    }

    fn comps(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn partition_counts_are_bell_numbers() {
        assert_eq!(set_partitions(&comps(&["a"])).len(), 1);
        assert_eq!(set_partitions(&comps(&["a", "b"])).len(), 2);
        assert_eq!(set_partitions(&comps(&["a", "b", "c"])).len(), 5);
        assert_eq!(set_partitions(&comps(&["a", "b", "c", "d"])).len(), 15);
    }

    #[test]
    fn enumeration_counts_small_sets() {
        // n=1: just the leaf.
        assert_eq!(enumerate_trees(&comps(&["a"])).len(), 1);
        // n=2: {ab} leaf; {a}+child(b); {b}+child(a); children (a)(b) = 4.
        assert_eq!(enumerate_trees(&comps(&["a", "b"])).len(), 4);
        // n=3: grows quickly but stays canonical (no duplicate shapes).
        let trees = enumerate_trees(&comps(&["a", "b", "c"]));
        let mut specs: Vec<String> = trees.iter().map(|t| format!("{t}")).collect();
        let total = specs.len();
        specs.sort();
        specs.dedup();
        assert_eq!(specs.len(), total, "enumeration produced duplicates");
        assert!(total > 10, "n=3 should have a rich space, got {total}");
    }

    #[test]
    fn every_enumerated_tree_is_valid_and_complete() {
        let set = comps(&["a", "b", "c", "d"]);
        for tree in enumerate_trees(&set) {
            tree.validate().unwrap();
            assert_eq!(tree.components(), set);
        }
    }

    /// The headline check: on the 4-component Mercury sub-model the hill
    /// climb from the trivial tree reaches the true global optimum.
    #[test]
    fn hill_climb_matches_exhaustive_optimum() {
        let set = comps(&["fedr", "pbcom", "ses", "str"]);
        let cost = SimpleCostModel::new(1.0, 2.0)
            .with_boot("fedr", 4.76)
            .with_boot("pbcom", 20.24)
            .with_boot("ses", 5.15)
            .with_boot("str", 5.01)
            .with_contention(0.0119)
            .with_sync_pair("ses", "str", 3.3)
            .with_sync_pair("str", "ses", 3.7)
            .with_rapid_restart_penalty("pbcom", 4.0);
        let model = FailureModel::new()
            .with_mode(FailureMode::solo("fedr", "fedr", 6.0).unwrap())
            .with_mode(FailureMode::solo("pbcom", "pbcom", 0.05).unwrap())
            .with_mode(
                FailureMode::correlated("pbcom-joint", "pbcom", ["fedr", "pbcom"], 0.4).unwrap(),
            )
            .with_mode(FailureMode::correlated("ses", "ses", ["ses"], 0.2).unwrap())
            .with_mode(FailureMode::correlated("str", "str", ["str"], 0.2).unwrap());

        for quality in [
            OracleQuality::Perfect,
            OracleQuality::Faulty { undershoot: 0.3 },
        ] {
            let (best_tree, best_cost) = exhaustive_best(&set, &model, &cost, quality);
            let start = TreeSpec::cell("root")
                .with_components(set.clone())
                .build()
                .unwrap();
            let climbed =
                optimize_tree(&start, &model, &cost, quality, OptimizerConfig::default()).unwrap();
            assert!(
                (climbed.expected_mttr_s - best_cost).abs() < 1e-9,
                "{quality:?}: hill climb {:.4}s vs exhaustive {:.4}s\nclimbed:\n{}\nbest:\n{}",
                climbed.expected_mttr_s,
                best_cost,
                climbed.tree,
                best_tree
            );
        }
    }
}
