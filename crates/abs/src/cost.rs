//! The interval cost model: [`SimpleCostModel`] with every calibrated
//! parameter widened to an interval.
//!
//! Dimension naming convention (shared with [`ParamBox`] and the scenario
//! layer): `detect`, `redetect`, `contention` for the scalar knobs,
//! `boot:<component>`, `sync:<component>`, `rapid:<component>` for the
//! per-component ones, and `rate:<mode>` for failure-mode rates (handled by
//! the scenario, not here). Each dimension is a *multiplier* on the base
//! model's calibrated value.

use std::collections::BTreeMap;

use rr_core::analysis::{CostModel, SimpleCostModel};

use crate::boxes::ParamBox;
use crate::error::AbsError;
use crate::interval::Interval;

/// A cost model whose parameters are intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalCostModel {
    detection: Interval,
    redetection: Interval,
    boot: BTreeMap<String, Interval>,
    contention_quadratic: Interval,
    /// component → (sync peer, solo penalty interval).
    sync: BTreeMap<String, (String, Interval)>,
    rapid: BTreeMap<String, Interval>,
}

/// Widens `base * multiplier` into an interval.
fn widen(base: f64, m: Interval) -> Result<Interval, AbsError> {
    Interval::point(base).map(|b| b.mul(m))
}

impl IntervalCostModel {
    /// Lifts `base` over `pbox`: every parameter becomes
    /// `base value × multiplier interval` (unbound dimensions stay points).
    ///
    /// # Errors
    ///
    /// Returns [`AbsError::MalformedInterval`] if a base parameter is not
    /// finite.
    pub fn from_base(base: &SimpleCostModel, pbox: &ParamBox) -> Result<Self, AbsError> {
        let mut boot = BTreeMap::new();
        for (comp, s) in base.boot_times() {
            boot.insert(
                comp.to_string(),
                widen(s, pbox.multiplier(&format!("boot:{comp}")))?,
            );
        }
        let mut sync = BTreeMap::new();
        for (comp, peer, s) in base.sync_pairs() {
            sync.insert(
                comp.to_string(),
                (
                    peer.to_string(),
                    widen(s, pbox.multiplier(&format!("sync:{comp}")))?,
                ),
            );
        }
        let mut rapid = BTreeMap::new();
        for (comp, s) in base.rapid_restart_penalties() {
            rapid.insert(
                comp.to_string(),
                widen(s, pbox.multiplier(&format!("rapid:{comp}")))?,
            );
        }
        Ok(IntervalCostModel {
            detection: widen(base.detection_s(), pbox.multiplier("detect"))?,
            redetection: widen(base.redetection_s(), pbox.multiplier("redetect"))?,
            boot,
            contention_quadratic: widen(
                base.contention_quadratic(),
                pbox.multiplier("contention"),
            )?,
            sync,
            rapid,
        })
    }

    /// Every cost dimension name `base` exposes, in sorted order — the
    /// dimensions a full-drift box should bind.
    pub fn dim_names(base: &SimpleCostModel) -> Vec<String> {
        let mut names = vec![
            "contention".to_string(),
            "detect".to_string(),
            "redetect".to_string(),
        ];
        names.extend(base.boot_times().map(|(c, _)| format!("boot:{c}")));
        names.extend(base.sync_pairs().map(|(c, _, _)| format!("sync:{c}")));
        names.extend(
            base.rapid_restart_penalties()
                .map(|(c, _)| format!("rapid:{c}")),
        );
        names.sort();
        names
    }

    /// Instantiates `base` at a sampled point of the box (the concrete model
    /// the soundness suite evaluates).
    pub fn concrete_at(base: &SimpleCostModel, point: &BTreeMap<String, f64>) -> SimpleCostModel {
        let m = |name: String| ParamBox::point_multiplier(point, &name);
        let mut c = SimpleCostModel::new(
            base.detection_s() * m("detect".into()),
            base.redetection_s() * m("redetect".into()),
        )
        .with_contention(base.contention_quadratic() * m("contention".into()));
        for (comp, s) in base.boot_times() {
            c = c.with_boot(comp, s * m(format!("boot:{comp}")));
        }
        for (comp, peer, s) in base.sync_pairs() {
            c = c.with_sync_pair(comp, peer, s * m(format!("sync:{comp}")));
        }
        for (comp, s) in base.rapid_restart_penalties() {
            c = c.with_rapid_restart_penalty(comp, s * m(format!("rapid:{comp}")));
        }
        c
    }

    /// Detection latency interval.
    pub fn detection(&self) -> Interval {
        self.detection
    }

    /// Re-detection latency interval.
    pub fn redetection(&self) -> Interval {
        self.redetection
    }

    /// Rapid-restart penalty interval for `component` (point 0 if none).
    pub fn rapid_restart_penalty(&self, component: &str) -> Interval {
        self.rapid.get(component).copied().unwrap_or_else(|| {
            Interval::point(0.0).unwrap_or_else(|e| unreachable!("0 is finite: {e}"))
        })
    }

    /// The contention multiplier interval for `k` concurrent restarts:
    /// `1 + q·(k−1)²`, mirroring [`SimpleCostModel`]'s.
    fn contention_factor(&self, k: usize) -> Interval {
        let one = Interval::point(1.0).unwrap_or_else(|e| unreachable!("1 is finite: {e}"));
        if k <= 1 {
            return one;
        }
        let sq = ((k - 1) as f64).powi(2);
        one.add(self.contention_quadratic.scale(sq))
    }

    /// Interval restart cost for exactly `components` concurrently,
    /// mirroring [`SimpleCostModel`]'s `restart_s`: the slowest member's
    /// boot (plus its solo-sync penalty when its peer is absent) times the
    /// contention factor.
    pub fn restart(&self, components: &[String]) -> Interval {
        let zero = Interval::point(0.0).unwrap_or_else(|e| unreachable!("0 is finite: {e}"));
        let mut slowest = zero;
        for comp in components {
            let boot = self.boot.get(comp).copied().unwrap_or(zero);
            let penalty = match self.sync.get(comp) {
                Some((peer, penalty)) if !components.contains(peer) => *penalty,
                _ => zero,
            };
            slowest = slowest.max(boot.add(penalty));
        }
        slowest.mul(self.contention_factor(components.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimpleCostModel {
        SimpleCostModel::new(0.9, 2.0)
            .with_boot("ses", 5.25)
            .with_boot("str", 5.11)
            .with_boot("pbcom", 20.34)
            .with_contention(0.0119)
            .with_sync_pair("ses", "str", 3.35)
            .with_rapid_restart_penalty("pbcom", 4.0)
    }

    #[test]
    fn point_box_reproduces_base_costs() {
        let model = IntervalCostModel::from_base(&base(), &ParamBox::new()).unwrap();
        let solo = model.restart(&["ses".to_string()]);
        let concrete = base().restart_s(&["ses".to_string()]);
        assert!(solo.contains(concrete));
        assert!(solo.width() < 1e-9, "point box should stay nearly exact");
        let pair = model.restart(&["ses".to_string(), "str".to_string()]);
        assert!(pair.contains(base().restart_s(&["ses".to_string(), "str".to_string()])));
    }

    #[test]
    fn drifted_box_encloses_sampled_costs() {
        let pbox = ParamBox::drift(IntervalCostModel::dim_names(&base()), 0.2).unwrap();
        let model = IntervalCostModel::from_base(&base(), &pbox).unwrap();
        for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let point = pbox.sample_with(|_, lo, hi| lo + t * (hi - lo));
            let concrete = IntervalCostModel::concrete_at(&base(), &point);
            for comps in [
                vec!["ses".to_string()],
                vec!["ses".to_string(), "str".to_string()],
                vec!["pbcom".to_string(), "ses".to_string(), "str".to_string()],
            ] {
                assert!(
                    model.restart(&comps).contains(concrete.restart_s(&comps)),
                    "restart({comps:?}) at t={t}"
                );
            }
            assert!(model.detection().contains(concrete.detection_s()));
            assert!(model.redetection().contains(concrete.redetection_s()));
            assert!(model
                .rapid_restart_penalty("pbcom")
                .contains(concrete.rapid_restart_penalty_s("pbcom")));
        }
    }

    #[test]
    fn dim_names_cover_every_parameter() {
        let names = IntervalCostModel::dim_names(&base());
        for expect in [
            "detect",
            "redetect",
            "contention",
            "boot:ses",
            "boot:str",
            "boot:pbcom",
            "sync:ses",
            "rapid:pbcom",
        ] {
            assert!(names.iter().any(|n| n == expect), "{expect} missing");
        }
    }
}
