//! Linear cost forms: symbolic recovery costs over named cost terms.
//!
//! Naively subtracting two interval MTTRs loses everything to the dependency
//! problem — `[a,b] − [a,b] = [a−b, b−a]`, not `0` — because interval
//! arithmetic forgets that both sides read the *same* uncertain parameters.
//! A [`CostForm`] keeps the cost symbolic instead: a linear combination of
//! [`Term`]s (detect latency, re-detect latency, restart of a specific
//! component set, a rapid-restart penalty). Two forms built over the same
//! parameters subtract *term-wise*, so shared terms cancel exactly before any
//! interval is introduced, and only the genuine difference between two
//! restart trees reaches interval evaluation. This is what lets the advisor
//! certify `MTTR_before − MTTR_after > 0` over a whole parameter box when the
//! raw subtraction would straddle zero.
//!
//! [`mode_recovery_form`] mirrors
//! [`expected_mode_recovery_s`](rr_core::analysis::expected_mode_recovery_s)
//! step for step; the agreement is enforced by tests evaluating both at
//! sampled points.

use std::collections::{BTreeMap, BTreeSet};

use rr_core::analysis::OracleQuality;
use rr_core::model::FailureMode;
use rr_core::tree::RestartTree;
use rr_core::TreeError;

use crate::cost::IntervalCostModel;
use crate::interval::Interval;

/// One symbolic cost parameter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Term {
    /// Failure-detection latency (paid once per episode).
    Detect,
    /// Re-detection latency after a completed-but-wrong restart.
    Redetect,
    /// Restarting exactly this component set concurrently.
    Restart(BTreeSet<String>),
    /// The rapid-restart penalty of one component.
    Rapid(String),
}

/// A linear combination `Σ wᵢ · termᵢ` of cost terms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostForm {
    terms: BTreeMap<Term, f64>,
}

impl CostForm {
    /// The zero form.
    pub fn new() -> CostForm {
        CostForm::default()
    }

    /// Adds `weight · term`, dropping the term if its weight cancels to
    /// exactly zero.
    fn add_term(&mut self, term: Term, weight: f64) {
        use std::collections::btree_map::Entry;
        match self.terms.entry(term) {
            Entry::Vacant(slot) => {
                if weight != 0.0 {
                    slot.insert(weight);
                }
            }
            Entry::Occupied(mut slot) => {
                *slot.get_mut() += weight;
                if *slot.get() == 0.0 {
                    slot.remove();
                }
            }
        }
    }

    /// Adds `scale · other` term-wise.
    fn add_scaled(&mut self, other: &CostForm, scale: f64) {
        for (term, w) in &other.terms {
            self.add_term(term.clone(), w * scale);
        }
    }

    /// `self − other`, with syntactically identical terms cancelling exactly
    /// (equal weights subtract to `0.0` and vanish).
    #[must_use]
    pub fn sub(&self, other: &CostForm) -> CostForm {
        let mut out = self.clone();
        out.add_scaled(other, -1.0);
        out
    }

    /// The terms with non-zero weight, in term order.
    pub fn terms(&self) -> impl Iterator<Item = (&Term, f64)> {
        self.terms.iter().map(|(t, w)| (t, *w))
    }

    /// Whether the form is identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Abstract evaluation: each term's interval from `cost`, combined with
    /// outward rounding.
    pub fn eval(&self, cost: &IntervalCostModel) -> Interval {
        let zero = Interval::point(0.0).unwrap_or_else(|e| unreachable!("0 is finite: {e}"));
        self.terms.iter().fold(zero, |acc, (term, w)| {
            let iv = match term {
                Term::Detect => cost.detection(),
                Term::Redetect => cost.redetection(),
                Term::Restart(comps) => {
                    let comps: Vec<String> = comps.iter().cloned().collect();
                    cost.restart(&comps)
                }
                Term::Rapid(c) => cost.rapid_restart_penalty(c),
            };
            acc.add(iv.scale(*w))
        })
    }
}

/// The symbolic expected recovery cost of one failure mode — the form whose
/// evaluation reproduces
/// [`expected_mode_recovery_s`](rr_core::analysis::expected_mode_recovery_s).
///
/// # Errors
///
/// Returns [`TreeError`] if the mode references components not in the tree.
pub fn mode_recovery_form(
    tree: &RestartTree,
    mode: &FailureMode,
    quality: OracleQuality,
) -> Result<CostForm, TreeError> {
    let minimal = tree.lowest_cover(&mode.cure_set)?;
    let own = tree
        .cell_of_component(&mode.trigger)
        .ok_or_else(|| TreeError::UnknownComponent(mode.trigger.clone()))?;

    let mut perfect = CostForm::new();
    perfect.add_term(Term::Detect, 1.0);
    perfect.add_term(
        Term::Restart(tree.components_under(minimal).into_iter().collect()),
        1.0,
    );
    let undershoot = match quality {
        OracleQuality::Perfect => return Ok(perfect),
        OracleQuality::Faulty { undershoot } => undershoot,
        OracleQuality::Naive => 1.0,
    };
    if own == minimal || undershoot == 0.0 {
        return Ok(perfect);
    }

    // Wrong-guess path, mirroring the concrete climb: restart the trigger's
    // own cell, re-detect, climb one level, until the minimal cell restarts.
    let mut wrong = CostForm::new();
    wrong.add_term(Term::Detect, 1.0);
    let mut restarted_counts: BTreeMap<String, u32> = BTreeMap::new();
    let mut cur = own;
    loop {
        let comps = tree.components_under(cur);
        wrong.add_term(Term::Restart(comps.iter().cloned().collect()), 1.0);
        for c in &comps {
            let count = restarted_counts.entry(c.clone()).or_insert(0);
            *count += 1;
            if *count > 1 {
                wrong.add_term(Term::Rapid(c.clone()), 1.0);
            }
        }
        if cur == minimal {
            break;
        }
        wrong.add_term(Term::Redetect, 1.0);
        cur = tree.parent(cur).unwrap_or(cur);
    }

    let mut total = CostForm::new();
    total.add_scaled(&perfect, 1.0 - undershoot);
    total.add_scaled(&wrong, undershoot);
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_core::analysis::{expected_mode_recovery_s, CostModel, SimpleCostModel};
    use rr_core::tree::TreeSpec;

    use crate::boxes::ParamBox;

    /// Concrete evaluation at a point cost model: the value
    /// [`CostForm::eval`] must enclose whenever its cost encloses `point`.
    fn eval_point(form: &CostForm, point: &dyn CostModel) -> f64 {
        form.terms
            .iter()
            .map(|(term, w)| {
                let v = match term {
                    Term::Detect => point.detection_s(),
                    Term::Redetect => point.redetection_s(),
                    Term::Restart(comps) => {
                        let comps: Vec<String> = comps.iter().cloned().collect();
                        point.restart_s(&comps)
                    }
                    Term::Rapid(c) => point.rapid_restart_penalty_s(c),
                };
                w * v
            })
            .sum()
    }

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

    #[test]
    fn form_point_eval_matches_concrete_recovery() {
        let tree = tree_iv();
        let c = cost();
        let joint =
            FailureMode::correlated("pbcom-joint", "pbcom", ["fedr", "pbcom"], 1.0).unwrap();
        for quality in [
            OracleQuality::Perfect,
            OracleQuality::Faulty { undershoot: 0.3 },
            OracleQuality::Naive,
        ] {
            for mode in [&FailureMode::solo("ses", "ses", 1.0).unwrap(), &joint] {
                let form = mode_recovery_form(&tree, mode, quality).unwrap();
                let direct = expected_mode_recovery_s(&tree, mode, &c, quality).unwrap();
                let via_form = eval_point(&form, &c);
                assert!(
                    (direct - via_form).abs() < 1e-9,
                    "{}/{quality:?}: {direct} vs {via_form}",
                    mode.name
                );
            }
        }
    }

    #[test]
    fn abstract_eval_encloses_point_eval() {
        let tree = tree_iv();
        let base = cost();
        let pbox = ParamBox::drift(IntervalCostModel::dim_names(&base), 0.2).unwrap();
        let icost = IntervalCostModel::from_base(&base, &pbox).unwrap();
        let joint =
            FailureMode::correlated("pbcom-joint", "pbcom", ["fedr", "pbcom"], 1.0).unwrap();
        let form =
            mode_recovery_form(&tree, &joint, OracleQuality::Faulty { undershoot: 0.3 }).unwrap();
        let abs = form.eval(&icost);
        for t in [0.0, 0.3, 0.5, 0.8, 1.0] {
            let point = pbox.sample_with(|_, lo, hi| lo + t * (hi - lo));
            let concrete = IntervalCostModel::concrete_at(&base, &point);
            assert!(abs.contains(eval_point(&form, &concrete)), "t = {t}");
        }
    }

    #[test]
    fn identical_forms_cancel_exactly() {
        let tree = tree_iv();
        let mode = FailureMode::solo("rtu", "rtu", 1.0).unwrap();
        let f = mode_recovery_form(&tree, &mode, OracleQuality::Perfect).unwrap();
        assert!(f.sub(&f).is_zero());
        // Shared terms cancel even between different oracle qualities when
        // the tree makes own == minimal (no wrong path exists for rtu).
        let g = mode_recovery_form(&tree, &mode, OracleQuality::Naive).unwrap();
        assert!(f.sub(&g).is_zero());
    }

    #[test]
    fn subtraction_keeps_only_the_difference() {
        // ses solo restart in tree III (own cell) vs tree IV (joint cell):
        // Detect cancels, the two Restart terms remain.
        let tree_iii = TreeSpec::cell("mercury")
            .with_child(TreeSpec::cell("R_ses").with_component("ses"))
            .with_child(TreeSpec::cell("R_str").with_component("str"))
            .build()
            .unwrap();
        let tree_iv = TreeSpec::cell("mercury")
            .with_child(TreeSpec::cell("R_[ses,str]").with_components(["ses", "str"]))
            .build()
            .unwrap();
        let mode = FailureMode::solo("ses", "ses", 1.0).unwrap();
        let before = mode_recovery_form(&tree_iii, &mode, OracleQuality::Perfect).unwrap();
        let after = mode_recovery_form(&tree_iv, &mode, OracleQuality::Perfect).unwrap();
        let delta = before.sub(&after);
        let terms: Vec<_> = delta.terms().collect();
        assert_eq!(terms.len(), 2, "Detect must cancel: {terms:?}");
        assert!(terms.iter().all(|(t, _)| matches!(t, Term::Restart(_))));
        // And the delta evaluates to the concrete restart-cost difference.
        let c = cost();
        let solo = c.restart_s(&["ses".to_string()]);
        let joint = c.restart_s(&["ses".to_string(), "str".to_string()]);
        assert!((eval_point(&delta, &c) - (solo - joint)).abs() < 1e-9);
    }
}
