//! Transformation scenarios: a before/after tree pair over a shared failure
//! and cost model, with profitability evaluated both abstractly (over a
//! [`ParamBox`]) and concretely (at a sampled point).
//!
//! Profitability is `MTTR_before − MTTR_after` in expected seconds per
//! failure: positive means the transformation pays off. The abstract
//! evaluation goes through [`mode_recovery_form`] so that cost terms the two
//! trees share cancel symbolically before intervals are introduced (see
//! [`form`](crate::form)); the concrete evaluation calls the unmodified
//! [`rr_core::analysis::expected_system_mttr_s`] twice, which is exactly what
//! the soundness suite checks the abstract result against.

use std::collections::BTreeMap;

use rr_core::analysis::{expected_system_mttr_s, OracleQuality, SimpleCostModel};
use rr_core::model::{FailureMode, FailureModel};
use rr_core::tree::RestartTree;
use rr_core::TreeError;

use crate::algebra::mode_probabilities;
use crate::boxes::ParamBox;
use crate::cost::IntervalCostModel;
use crate::error::AbsError;
use crate::form::mode_recovery_form;
use crate::interval::Interval;

/// A candidate tree transformation under a drifting parameter environment.
#[derive(Debug, Clone)]
pub struct Scenario {
    name: String,
    before: RestartTree,
    after: RestartTree,
    quality: OracleQuality,
    base_modes: Vec<FailureMode>,
    base_cost: SimpleCostModel,
}

impl Scenario {
    /// Builds a scenario. Both trees must attach every component the modes
    /// mention.
    ///
    /// # Errors
    ///
    /// Returns [`AbsError::Analysis`] with the first unattached component if
    /// a mode references a component missing from either tree, or
    /// [`AbsError::EmptyBox`] if `base_modes` is empty.
    pub fn new(
        name: impl Into<String>,
        before: RestartTree,
        after: RestartTree,
        quality: OracleQuality,
        base_modes: Vec<FailureMode>,
        base_cost: SimpleCostModel,
    ) -> Result<Scenario, AbsError> {
        if base_modes.is_empty() {
            return Err(AbsError::EmptyBox);
        }
        let model: FailureModel = base_modes.iter().cloned().collect();
        for tree in [&before, &after] {
            if let Err(missing) = model.validate_against(tree) {
                let first = missing.into_iter().next().unwrap_or_default();
                return Err(TreeError::UnknownComponent(first).into());
            }
        }
        Ok(Scenario {
            name: name.into(),
            before,
            after,
            quality,
            base_modes,
            base_cost,
        })
    }

    /// The scenario's name (e.g. `"split-fedrcom"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tree before the transformation.
    pub fn before(&self) -> &RestartTree {
        &self.before
    }

    /// The tree after the transformation.
    pub fn after(&self) -> &RestartTree {
        &self.after
    }

    /// The oracle quality both trees are evaluated under.
    pub fn quality(&self) -> OracleQuality {
        self.quality
    }

    /// Every parameter dimension this scenario reads: the cost dimensions of
    /// the base model plus one `rate:<mode>` dimension per failure mode, in
    /// sorted order. A drift box over these covers the scenario completely.
    pub fn dim_names(&self) -> Vec<String> {
        let mut names = IntervalCostModel::dim_names(&self.base_cost);
        names.extend(self.base_modes.iter().map(|m| format!("rate:{}", m.name)));
        names.sort();
        names.dedup();
        names
    }

    /// The base failure-mode rate scaled by the box's `rate:<mode>`
    /// multiplier interval.
    fn rate_interval(&self, mode: &FailureMode, pbox: &ParamBox) -> Result<Interval, AbsError> {
        let m = pbox.multiplier(&format!("rate:{}", mode.name));
        Ok(Interval::point(mode.rate_per_hour)?.mul(m))
    }

    /// Sound enclosure of `MTTR_before − MTTR_after` over every point of
    /// `pbox`: per-mode recovery forms subtract symbolically, each surviving
    /// delta is weighted by its interval mode probability.
    ///
    /// # Errors
    ///
    /// Returns [`AbsError`] if a mode references components outside a tree or
    /// a rate interval degenerates to zero.
    pub fn abstract_profit(&self, pbox: &ParamBox) -> Result<Interval, AbsError> {
        let icost = IntervalCostModel::from_base(&self.base_cost, pbox)?;
        let rates = self
            .base_modes
            .iter()
            .map(|m| self.rate_interval(m, pbox))
            .collect::<Result<Vec<_>, _>>()?;
        let probs = mode_probabilities(&rates)?;

        let mut profit = Interval::point(0.0)?;
        for (mode, p) in self.base_modes.iter().zip(probs) {
            let before = mode_recovery_form(&self.before, mode, self.quality)?;
            let after = mode_recovery_form(&self.after, mode, self.quality)?;
            let delta = before.sub(&after);
            if delta.is_zero() {
                // The transformation does not touch this mode's recovery:
                // exactly zero contribution, no interval blow-up.
                continue;
            }
            profit = profit.add(p.mul(delta.eval(&icost)));
        }
        Ok(profit)
    }

    /// The concrete failure model at a sampled point of the box.
    fn concrete_model(&self, point: &BTreeMap<String, f64>) -> FailureModel {
        self.base_modes
            .iter()
            .map(|m| {
                let mult = ParamBox::point_multiplier(point, &format!("rate:{}", m.name));
                FailureMode {
                    rate_per_hour: m.rate_per_hour * mult,
                    ..m.clone()
                }
            })
            .collect()
    }

    /// Concrete `MTTR_before − MTTR_after` at a sampled point, computed by
    /// the unmodified core algebra ([`expected_system_mttr_s`] twice) — the
    /// reference value [`abstract_profit`](Self::abstract_profit) must
    /// enclose.
    ///
    /// # Errors
    ///
    /// Returns [`AbsError::Analysis`] if the core evaluation fails.
    pub fn concrete_profit(&self, point: &BTreeMap<String, f64>) -> Result<f64, AbsError> {
        let cost = IntervalCostModel::concrete_at(&self.base_cost, point);
        let model = self.concrete_model(point);
        let before = expected_system_mttr_s(&self.before, &model, &cost, self.quality)?;
        let after = expected_system_mttr_s(&self.after, &model, &cost, self.quality)?;
        Ok(before - after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_core::tree::TreeSpec;

    fn base_cost() -> SimpleCostModel {
        SimpleCostModel::new(0.9, 2.0)
            .with_boot("ses", 5.25)
            .with_boot("str", 5.11)
            .with_contention(0.0119)
            .with_sync_pair("ses", "str", 3.35)
            .with_sync_pair("str", "ses", 3.75)
    }

    fn consolidate_scenario() -> Scenario {
        let before = TreeSpec::cell("mercury")
            .with_child(TreeSpec::cell("R_ses").with_component("ses"))
            .with_child(TreeSpec::cell("R_str").with_component("str"))
            .build()
            .unwrap();
        let after = TreeSpec::cell("mercury")
            .with_child(TreeSpec::cell("R_[ses,str]").with_components(["ses", "str"]))
            .build()
            .unwrap();
        Scenario::new(
            "consolidate-ses-str",
            before,
            after,
            OracleQuality::Perfect,
            // Solo cures: in tree III each solo restart pays the sync
            // penalty, in tree IV the joint cell restarts both at once.
            vec![
                FailureMode::solo("ses", "ses", 0.2).unwrap(),
                FailureMode::solo("str", "str", 0.2).unwrap(),
            ],
            base_cost(),
        )
        .unwrap()
    }

    #[test]
    fn point_box_profit_matches_concrete() {
        let s = consolidate_scenario();
        let empty = ParamBox::new();
        let abs = s.abstract_profit(&empty).unwrap();
        let concrete = s.concrete_profit(&BTreeMap::new()).unwrap();
        assert!(
            (abs.midpoint() - concrete).abs() < 1e-9,
            "abs {abs} vs concrete {concrete}"
        );
        assert!(abs.width() < 1e-9, "point box must stay tight: {abs}");
        // Consolidating the correlated ses/str pair pays off (tree III → IV).
        assert!(abs.strictly_positive());
    }

    #[test]
    fn drifted_profit_encloses_sampled_points() {
        let s = consolidate_scenario();
        let pbox = ParamBox::drift(s.dim_names(), 0.2).unwrap();
        let abs = s.abstract_profit(&pbox).unwrap();
        for t in [0.0, 0.2, 0.5, 0.9, 1.0] {
            let point = pbox.sample_with(|_, lo, hi| lo + t * (hi - lo));
            let concrete = s.concrete_profit(&point).unwrap();
            assert!(abs.contains(concrete), "t = {t}: {concrete} not in {abs}");
        }
    }

    #[test]
    fn dim_names_include_rates_and_costs() {
        let s = consolidate_scenario();
        let names = s.dim_names();
        for expect in ["rate:ses", "rate:str", "boot:ses", "sync:str", "detect"] {
            assert!(names.iter().any(|n| n == expect), "{expect} missing");
        }
    }

    #[test]
    fn scenario_rejects_unattached_components() {
        let before = TreeSpec::cell("m").with_component("a").build().unwrap();
        let after = before.clone();
        let err = Scenario::new(
            "bad",
            before,
            after,
            OracleQuality::Perfect,
            vec![FailureMode::solo("ghost", "ghost", 1.0).unwrap()],
            SimpleCostModel::new(1.0, 1.0),
        )
        .unwrap_err();
        assert!(matches!(err, AbsError::Analysis(_)));
    }
}
