//! `model_audit`: the explicit-state checker to a verdict on two committed
//! scenarios, each explored in full and again under partial-order reduction.
//! No simulator, no codec: checker and state-signature work shows here only.

use std::hash::{DefaultHasher, Hash, Hasher};

use mercury::station::TreeVariant;
use rr_abs::refine::RefineConfig;
use rr_harness::certify_decisions;
use rr_model::checker::{check, CheckConfig, CheckOutcome};
use rr_model::machine::Model;
use rr_model::{flow, scenario, DEFAULT_DEPTH, DEFAULT_STATE_BUDGET};

use super::{median, Outcome, Workload};
use crate::trace::Tracer;

/// `(short name, scenario text)`; the name is part of the span names.
const SCENARIOS: [(&str, &str); 2] = [
    ("iv_d12", include_str!("../../scenarios/iv_d12.scn")),
    ("v_rehy_d12", include_str!("../../scenarios/v_rehy_d12.scn")),
];

/// Span names per scenario and exploration mode (full, reduced).
const CHECK_SPANS: [[&str; 2]; 2] = [
    ["model.check.iv_d12.full", "model.check.iv_d12.reduced"],
    [
        "model.check.v_rehy_d12.full",
        "model.check.v_rehy_d12.reduced",
    ],
];

pub struct ModelAudit {
    scale_div: u64,
    /// `CheckOutcome`s of the last repetition, in `CHECK_SPANS` order.
    last: Vec<CheckOutcome>,
}

impl ModelAudit {
    /// The checker takes no random input, so the seed is not used: the
    /// scenarios are the committed files.
    pub fn new(scale_div: u64) -> ModelAudit {
        ModelAudit {
            scale_div,
            last: Vec::new(),
        }
    }

    fn run(&mut self, scale_div: u64, t: &mut Tracer) -> Outcome {
        let root = t.enter("bench.repetition");
        let mut digest = DefaultHasher::new();
        let mut out = Outcome::default();
        let mut outcomes = Vec::new();
        for ((_, text), spans) in SCENARIOS.iter().zip(CHECK_SPANS) {
            let open = t.enter("model.build");
            let parsed = scenario::parse(text).ok();
            let model = parsed.as_ref().and_then(|scenario| {
                let variant = match scenario.tree.as_str() {
                    "IV" => TreeVariant::IV,
                    _ => TreeVariant::V,
                };
                Model::new(variant.tree().ok()?, scenario).ok()
            });
            t.exit(open, 0);
            out.attempted += 3;
            let (Some(scenario), Some(model)) = (parsed, model) else {
                out.failed += 3;
                continue;
            };
            let analysis = t.time("flow.analyze", || flow::analyze(&model));
            analysis.templates.hash(&mut digest);
            let max_depth = scaled_depth(scenario.depth.unwrap_or(DEFAULT_DEPTH), scale_div);
            for (por, span) in [false, true].into_iter().zip(spans) {
                let config = CheckConfig {
                    max_depth,
                    state_budget: DEFAULT_STATE_BUDGET,
                    por,
                };
                let open = t.enter(span);
                let verdict = check(&model, &config);
                let explored = verdict.as_ref().map_or(0, |v| v.states_explored);
                t.exit(open, explored);
                match verdict {
                    Ok(outcome) if outcome.violation.is_none() => {
                        (
                            outcome.states_explored,
                            outcome.distinct_states,
                            outcome.quiescent_states,
                            outcome.depth,
                        )
                            .hash(&mut digest);
                        out.units += 1.0;
                        outcomes.push(outcome);
                    }
                    // A violation or an exhausted state budget.
                    _ => out.failed += 1,
                }
            }
        }
        let certified = t.time("abs.certify_decisions", || {
            certify_decisions(RefineConfig::default())
        });
        out.attempted += 1;
        if certified.is_empty() {
            out.failed += 1;
        }
        certified.len().hash(&mut digest);
        t.exit(root, 0);
        out.digest = digest.finish();
        self.last = outcomes;
        out
    }
}

/// One more level of depth nearly doubles the time to a verdict, so a size
/// divisor of 5 takes three levels off a scenario's bound and one of 50 six.
fn scaled_depth(full: usize, scale_div: u64) -> usize {
    let levels = ((scale_div as f64).ln() / 1.9f64.ln()).round() as usize;
    full.saturating_sub(levels).max(2)
}

impl Workload for ModelAudit {
    fn warm_up(&mut self) -> Outcome {
        self.run(self.scale_div * 5, &mut Tracer::new())
    }

    fn repetition(&mut self, t: &mut Tracer) -> Outcome {
        self.run(self.scale_div, t)
    }

    fn layer_metrics(&self, t: &Tracer) -> Vec<(&'static str, f64)> {
        let ms = |name: &str| median(&t.durations_s(name)) * 1e3;
        let states_per_s = |mode: usize| {
            let (s, states) = CHECK_SPANS
                .iter()
                .map(|spans| t.totals(spans[mode]))
                .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            if s == 0.0 {
                0.0
            } else {
                states as f64 / s
            }
        };
        let sum = |mode: usize, field: fn(&CheckOutcome) -> u64| -> f64 {
            self.last
                .iter()
                .skip(mode)
                .step_by(2)
                .map(field)
                .sum::<u64>() as f64
        };
        vec![
            ("model.states_explored.full", sum(0, |o| o.states_explored)),
            (
                "model.states_explored.reduced",
                sum(1, |o| o.states_explored),
            ),
            ("model.distinct.full", sum(0, |o| o.distinct_states)),
            ("model.distinct.reduced", sum(1, |o| o.distinct_states)),
            ("model.states_per_s.full", states_per_s(0)),
            ("model.states_per_s.reduced", states_per_s(1)),
            ("model.check_ms.iv_d12.full", ms(CHECK_SPANS[0][0])),
            ("model.check_ms.iv_d12.reduced", ms(CHECK_SPANS[0][1])),
            ("model.check_ms.v_rehy_d12.full", ms(CHECK_SPANS[1][0])),
            ("model.check_ms.v_rehy_d12.reduced", ms(CHECK_SPANS[1][1])),
            ("model.build_ms", ms("model.build")),
            ("flow.analyze_ms", ms("flow.analyze")),
            ("abs.certify_ms", ms("abs.certify_decisions")),
        ]
    }
}
