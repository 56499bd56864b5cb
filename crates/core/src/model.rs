//! Failure models: which failures occur, how often, and what cures them.
//!
//! The paper characterizes failures by where they manifest (a component), how
//! often (Table 1's MTTFs) and what minimally cures them (the `f_ci`
//! probabilities of §4.1–4.4). A [`FailureModel`] is a list of
//! [`FailureMode`]s carrying exactly that information; it drives both the
//! synthetic fault injection in the simulator and the analytic expected-MTTR
//! computation in [`analysis`](crate::analysis).

use crate::error::ModelError;
use crate::tree::RestartTree;

/// One class of failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureMode {
    /// Human-readable name (e.g. `"pbcom-joint"`).
    pub name: String,
    /// The component the failure manifests in (whose ping goes unanswered).
    pub trigger: String,
    /// The minimal set of components whose joint restart cures it. Always
    /// contains `trigger`.
    pub cure_set: Vec<String>,
    /// Occurrence rate, in failures per hour of operation.
    pub rate_per_hour: f64,
}

impl FailureMode {
    /// A mode curable by restarting only the component it manifests in.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidRate`] if `rate_per_hour` is not positive
    /// and finite.
    pub fn solo(
        name: impl Into<String>,
        trigger: impl Into<String>,
        rate_per_hour: f64,
    ) -> Result<Self, ModelError> {
        let trigger = trigger.into();
        Self::correlated(name, trigger.clone(), [trigger], rate_per_hour)
    }

    /// A mode that manifests in `trigger` but needs all of `cure_set`
    /// restarted together.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TriggerOutsideCureSet`] if `cure_set` does not
    /// contain `trigger`, or [`ModelError::InvalidRate`] if `rate_per_hour`
    /// is not positive and finite.
    pub fn correlated<I, S>(
        name: impl Into<String>,
        trigger: impl Into<String>,
        cure_set: I,
        rate_per_hour: f64,
    ) -> Result<Self, ModelError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let name = name.into();
        if !(rate_per_hour.is_finite() && rate_per_hour > 0.0) {
            return Err(ModelError::InvalidRate {
                mode: name,
                rate: rate_per_hour,
            });
        }
        let trigger = trigger.into();
        let cure_set: Vec<String> = cure_set.into_iter().map(Into::into).collect();
        if !cure_set.contains(&trigger) {
            return Err(ModelError::TriggerOutsideCureSet {
                mode: name,
                trigger,
            });
        }
        Ok(FailureMode {
            name,
            trigger,
            cure_set,
            rate_per_hour,
        })
    }

    /// The mode's mean time to failure, in seconds.
    pub fn mttf_s(&self) -> f64 {
        3600.0 / self.rate_per_hour
    }
}

/// A complete failure model: the set of failure modes a system exhibits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureModel {
    modes: Vec<FailureMode>,
}

impl FailureModel {
    /// An empty model.
    pub fn new() -> FailureModel {
        FailureModel::default()
    }

    /// Adds a mode.
    pub fn push(&mut self, mode: FailureMode) {
        self.modes.push(mode);
    }

    /// Builder-style [`push`](Self::push).
    #[must_use]
    pub fn with_mode(mut self, mode: FailureMode) -> FailureModel {
        self.push(mode);
        self
    }

    /// The modes, in insertion order.
    pub fn modes(&self) -> &[FailureMode] {
        &self.modes
    }

    /// Total failure rate (per hour) across all modes.
    fn total_rate_per_hour(&self) -> f64 {
        self.modes.iter().map(|m| m.rate_per_hour).sum()
    }

    /// The probability that a manifested failure is this mode — the paper's
    /// `f` values, e.g. `f_{fedr,pbcom}` (§4.2).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyModel`] if the model has no modes.
    pub fn mode_probability(&self, mode: &FailureMode) -> Result<f64, ModelError> {
        let total = self.total_rate_per_hour();
        if total <= 0.0 {
            return Err(ModelError::EmptyModel {
                query: "mode_probability",
            });
        }
        Ok(mode.rate_per_hour / total)
    }

    /// System MTTF in seconds under `A_entire` (any component failure takes
    /// the whole system down): the inverse of the total failure rate. This is
    /// the algebraic form of `MTTF_G ≤ min(MTTF_ci)` for independent
    /// exponential components.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyModel`] if the model has no modes.
    pub fn system_mttf_s(&self) -> Result<f64, ModelError> {
        let total = self.total_rate_per_hour();
        if total <= 0.0 {
            return Err(ModelError::EmptyModel {
                query: "system_mttf_s",
            });
        }
        Ok(3600.0 / total)
    }

    /// The aggregate failure rate attributed to one component (sum over the
    /// modes that manifest in it), per hour.
    fn component_rate_per_hour(&self, component: &str) -> f64 {
        self.modes
            .iter()
            .filter(|m| m.trigger == component)
            .map(|m| m.rate_per_hour)
            .sum()
    }

    /// The component's MTTF in seconds, or `None` if no mode manifests in it.
    pub fn component_mttf_s(&self, component: &str) -> Option<f64> {
        let rate = self.component_rate_per_hour(component);
        (rate > 0.0).then(|| 3600.0 / rate)
    }

    /// Checks that every component mentioned by any mode is attached in
    /// `tree`.
    ///
    /// # Errors
    ///
    /// Returns the sorted list of unattached component names.
    pub fn validate_against(&self, tree: &RestartTree) -> Result<(), Vec<String>> {
        let mut missing: Vec<String> = Vec::new();
        for mode in &self.modes {
            for comp in std::iter::once(&mode.trigger).chain(mode.cure_set.iter()) {
                if tree.cell_of_component(comp).is_none() && !missing.contains(comp) {
                    missing.push(comp.clone());
                }
            }
        }
        if missing.is_empty() {
            Ok(())
        } else {
            missing.sort();
            Err(missing)
        }
    }
}

impl FromIterator<FailureMode> for FailureModel {
    fn from_iter<T: IntoIterator<Item = FailureMode>>(iter: T) -> Self {
        FailureModel {
            modes: iter.into_iter().collect(),
        }
    }
}

impl Extend<FailureMode> for FailureModel {
    fn extend<T: IntoIterator<Item = FailureMode>>(&mut self, iter: T) {
        self.modes.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeSpec;

    fn sample() -> FailureModel {
        FailureModel::new()
            .with_mode(FailureMode::solo("fedr-crash", "fedr", 6.0).unwrap()) // MTTF 10 min
            .with_mode(FailureMode::solo("ses-crash", "ses", 0.2).unwrap()) // MTTF 5 h
            .with_mode(
                FailureMode::correlated("pbcom-joint", "pbcom", ["fedr", "pbcom"], 0.05).unwrap(),
            )
    }

    #[test]
    fn rates_and_probabilities() {
        let model = sample();
        assert!((model.total_rate_per_hour() - 6.25).abs() < 1e-12);
        let p = model.mode_probability(&model.modes()[0]).unwrap();
        assert!((p - 6.0 / 6.25).abs() < 1e-12);
        let sum: f64 = model
            .modes()
            .iter()
            .map(|m| model.mode_probability(m).unwrap())
            .sum();
        assert!((sum - 1.0).abs() < 1e-12, "f_ci sum to 1 (A_cure)");
    }

    #[test]
    fn empty_model_queries_are_typed_errors() {
        let empty = FailureModel::new();
        let probe = FailureMode::solo("x", "c", 1.0).unwrap();
        assert_eq!(
            empty.mode_probability(&probe),
            Err(ModelError::EmptyModel {
                query: "mode_probability"
            })
        );
        assert_eq!(
            empty.system_mttf_s(),
            Err(ModelError::EmptyModel {
                query: "system_mttf_s"
            })
        );
    }

    #[test]
    fn mttf_relationships() {
        let model = sample();
        // System MTTF is at most the smallest component MTTF (§3.2).
        let sys = model.system_mttf_s().unwrap();
        for comp in ["fedr", "ses", "pbcom"] {
            let c = model.component_mttf_s(comp).unwrap();
            assert!(sys <= c + 1e-9, "system {sys} vs {comp} {c}");
        }
        assert!((model.component_mttf_s("fedr").unwrap() - 600.0).abs() < 1e-9);
        assert_eq!(model.component_mttf_s("mbus"), None);
    }

    #[test]
    fn mode_mttf_matches_rate() {
        let m = FailureMode::solo("x", "c", 2.0).unwrap();
        assert!((m.mttf_s() - 1800.0).abs() < 1e-12);
    }

    #[test]
    fn validate_against_finds_missing() {
        let model = sample();
        let tree = TreeSpec::cell("root")
            .with_components(["fedr", "pbcom"])
            .build()
            .unwrap();
        let missing = model.validate_against(&tree).unwrap_err();
        assert_eq!(missing, vec!["ses".to_string()]);

        let full = TreeSpec::cell("root")
            .with_components(["fedr", "pbcom", "ses"])
            .build()
            .unwrap();
        assert!(model.validate_against(&full).is_ok());
    }

    #[test]
    fn correlated_requires_trigger_in_cure_set() {
        let err = FailureMode::correlated("bad", "a", ["b"], 1.0).unwrap_err();
        assert_eq!(
            err,
            ModelError::TriggerOutsideCureSet {
                mode: "bad".into(),
                trigger: "a".into(),
            }
        );
        assert!(err.to_string().contains("cure set must contain"));
    }

    #[test]
    fn rejects_degenerate_rates() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = FailureMode::solo("bad", "a", bad).unwrap_err();
            assert!(
                matches!(err, ModelError::InvalidRate { ref mode, .. } if mode == "bad"),
                "rate {bad}: {err}"
            );
        }
    }

    #[test]
    fn collect_from_iterator() {
        let model: FailureModel = vec![FailureMode::solo("a", "a", 1.0).unwrap()]
            .into_iter()
            .collect();
        assert_eq!(model.modes().len(), 1);
    }
}
