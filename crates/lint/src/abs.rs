//! Profitability-certification (rr-abs) soundness lints (`RRL97x`).
//!
//! rr-abs certifies each §4 tree transformation over a parameter *box*
//! (every calibrated rate and cost drifting independently) and emits a
//! decision table: a three-valued verdict (`always` / `never` / `depends`)
//! plus the interval profit evidence behind it. These lints gate that table
//! the way the other `RRLxxx` families gate trees and policies: a verdict
//! that contradicts the committed expectation or its own interval evidence
//! is denied ([`RRL971`]), a box whose bisection budget ran out before the
//! verdict resolved is flagged ([`RRL972`]), and a structurally malformed
//! box or interval is denied before any quantified claim is read
//! ([`RRL973`]).
//!
//! The input is the decision table itself, [`AbsParams`]: the format that
//! `rr-audit abs` renders from each certification (and writes as
//! `abs-decisions.json`) and that hand-written `tests/abs-fixtures/*.abs`
//! files parse into, so a fixture can state a table no certification run
//! would produce.
//!
//! [`RRL971`]: catalog::ABS_PROFITABILITY_CONTRADICTION
//! [`RRL972`]: catalog::ABS_REGION_UNREFINABLE
//! [`RRL973`]: catalog::ABS_BOX_MALFORMED

use crate::catalog;
use crate::diag::{Diagnostic, Report};

/// One certified transformation decision, as the decision table records it.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsDecision {
    /// The scenario name (e.g. `"promote-pbcom"`).
    pub name: String,
    /// The verdict the committed decision table expects
    /// (`"always"` / `"never"` / `"depends"`).
    pub expected_verdict: String,
    /// The verdict this certification run produced.
    pub verdict: String,
    /// Lower endpoint of the profitability hull (seconds of expected MTTR
    /// saved per failure; positive favors the transformation).
    pub profit_lo_s: f64,
    /// Upper endpoint of the profitability hull.
    pub profit_hi_s: f64,
    /// The parameter box: `(dimension, lo multiplier, hi multiplier)`.
    pub box_dims: Vec<(String, f64, f64)>,
    /// Fraction of the box volume still `depends` after refinement.
    pub depends_fraction: f64,
    /// Bisections the refinement performed.
    pub splits: usize,
    /// The refinement's split budget.
    pub max_splits: usize,
}

/// A full decision table to lint.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsParams {
    /// The decisions, in table order.
    pub decisions: Vec<AbsDecision>,
}

const VERDICTS: &[&str] = &["always", "never", "depends"];

/// Structural validation of one decision; pushes [`RRL973`] diagnostics and
/// reports whether the decision is sound enough to interpret further.
///
/// [`RRL973`]: catalog::ABS_BOX_MALFORMED
fn check_shape(decision: &AbsDecision, path: &str, report: &mut Report) -> bool {
    let mut ok = true;
    let fail = |report: &mut Report, message: String| {
        report.push(Diagnostic::new(
            &catalog::ABS_BOX_MALFORMED,
            path.to_string(),
            message,
        ));
    };
    if decision.box_dims.is_empty() {
        fail(
            report,
            "the parameter box binds no dimensions: the verdict quantifies \
             over nothing"
                .to_string(),
        );
        ok = false;
    }
    for (i, (dim, lo, hi)) in decision.box_dims.iter().enumerate() {
        if !(lo.is_finite() && hi.is_finite() && 0.0 < *lo && lo <= hi) {
            fail(
                report,
                format!("dimension {dim:?} has malformed bounds [{lo}, {hi}]"),
            );
            ok = false;
        }
        if decision.box_dims[..i].iter().any(|(d, _, _)| d == dim) {
            fail(report, format!("dimension {dim:?} is bound twice"));
            ok = false;
        }
    }
    if !(decision.profit_lo_s.is_finite()
        && decision.profit_hi_s.is_finite()
        && decision.profit_lo_s <= decision.profit_hi_s)
    {
        fail(
            report,
            format!(
                "profit interval [{}, {}] is malformed",
                decision.profit_lo_s, decision.profit_hi_s
            ),
        );
        ok = false;
    }
    if !(0.0..=1.0).contains(&decision.depends_fraction) {
        fail(
            report,
            format!(
                "depends-fraction {} is outside [0, 1]",
                decision.depends_fraction
            ),
        );
        ok = false;
    }
    ok
}

/// Lints an rr-abs decision table: malformed boxes or intervals are denied
/// ([`RRL973`]), verdicts contradicting the expectation or their own profit
/// evidence are denied ([`RRL971`]), and decisions still `depends` after the
/// refinement budget are flagged ([`RRL972`]).
///
/// [`RRL971`]: catalog::ABS_PROFITABILITY_CONTRADICTION
/// [`RRL972`]: catalog::ABS_REGION_UNREFINABLE
/// [`RRL973`]: catalog::ABS_BOX_MALFORMED
pub fn lint_abs(params: &AbsParams) -> Report {
    let mut report = Report::new();

    for decision in &params.decisions {
        let path = format!("abs.decisions.{}", decision.name);
        if !check_shape(decision, &path, &mut report) {
            continue;
        }

        let verdict_known = VERDICTS.contains(&decision.verdict.as_str());
        if !verdict_known || decision.verdict != decision.expected_verdict {
            report.push(Diagnostic::new(
                &catalog::ABS_PROFITABILITY_CONTRADICTION,
                path.clone(),
                format!(
                    "certified verdict {:?} does not match the committed \
                     decision {:?} (profit hull [{:.4}, {:.4}] s over a \
                     {}-dimensional box)",
                    decision.verdict,
                    decision.expected_verdict,
                    decision.profit_lo_s,
                    decision.profit_hi_s,
                    decision.box_dims.len()
                ),
            ));
        }

        // The interval evidence must support the claimed verdict: `always`
        // needs a strictly positive hull, `never` a non-positive one.
        let contradicted = match decision.verdict.as_str() {
            "always" => decision.profit_lo_s <= 0.0,
            "never" => decision.profit_hi_s > 0.0,
            _ => false,
        };
        if contradicted {
            report.push(Diagnostic::new(
                &catalog::ABS_PROFITABILITY_CONTRADICTION,
                path.clone(),
                format!(
                    "verdict {:?} is not supported by its own profit hull \
                     [{:.4}, {:.4}] s: the certificate claims a sign the \
                     interval does not have",
                    decision.verdict, decision.profit_lo_s, decision.profit_hi_s
                ),
            ));
        }

        if decision.verdict == "depends" {
            report.push(Diagnostic::new(
                &catalog::ABS_REGION_UNREFINABLE,
                path,
                format!(
                    "{:.1}% of the box is still undecided after {} of {} \
                     splits: the break-even surface crosses the drift box \
                     (or the abstraction is too coarse), so the committed \
                     point decision is fragile there",
                    decision.depends_fraction * 100.0,
                    decision.splits,
                    decision.max_splits
                ),
            ));
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sound_decision() -> AbsDecision {
        AbsDecision {
            name: "split-fedrcom".into(),
            expected_verdict: "always".into(),
            verdict: "always".into(),
            profit_lo_s: 0.8,
            profit_hi_s: 14.2,
            box_dims: vec![
                ("rate:fedr".into(), 0.8, 1.2),
                ("boot:pbcom".into(), 0.8, 1.2),
            ],
            depends_fraction: 0.0,
            splits: 0,
            max_splits: 4096,
        }
    }

    #[test]
    fn sound_table_is_clean() {
        let report = lint_abs(&AbsParams {
            decisions: vec![sound_decision()],
        });
        assert!(report.is_clean(), "{}", report.to_human());
    }

    #[test]
    fn verdict_mismatch_is_denied() {
        let mut d = sound_decision();
        d.verdict = "never".into();
        d.profit_lo_s = -3.0;
        d.profit_hi_s = -0.5;
        let report = lint_abs(&AbsParams { decisions: vec![d] });
        assert!(report.fired("RRL971"));
        assert!(report.has_deny());
    }

    #[test]
    fn unsupported_verdict_is_denied_even_when_expected() {
        // Table says `always`, run says `always`, but the hull reaches zero:
        // the certificate does not actually prove the claim.
        let mut d = sound_decision();
        d.profit_lo_s = -0.01;
        let report = lint_abs(&AbsParams { decisions: vec![d] });
        assert!(report.fired("RRL971"));
    }

    #[test]
    fn unknown_verdict_string_is_a_contradiction() {
        let mut d = sound_decision();
        d.verdict = "probably".into();
        let report = lint_abs(&AbsParams { decisions: vec![d] });
        assert!(report.fired("RRL971"));
    }

    #[test]
    fn residual_depends_warns() {
        let mut d = sound_decision();
        d.expected_verdict = "depends".into();
        d.verdict = "depends".into();
        d.profit_lo_s = -1.0;
        d.profit_hi_s = 2.0;
        d.depends_fraction = 0.3;
        d.splits = 4096;
        let report = lint_abs(&AbsParams { decisions: vec![d] });
        assert!(report.fired("RRL972"));
        assert!(!report.has_deny(), "{}", report.to_human());
    }

    #[test]
    fn malformed_boxes_are_denied_before_interpretation() {
        for mutate in [
            (|d: &mut AbsDecision| d.box_dims.clear()) as fn(&mut AbsDecision),
            |d| d.box_dims[0].1 = 0.0,
            |d| d.box_dims[0].2 = f64::NAN,
            |d| d.box_dims[0] = ("boot:pbcom".into(), 0.8, 1.2),
            |d| d.box_dims[1] = ("x".into(), 1.2, 0.8),
            |d| d.profit_lo_s = f64::INFINITY,
            |d| d.depends_fraction = 1.5,
        ] {
            let mut d = sound_decision();
            mutate(&mut d);
            let report = lint_abs(&AbsParams { decisions: vec![d] });
            assert!(report.fired("RRL973"), "{}", report.to_human());
            assert!(report.has_deny());
            // Shape failures stop further interpretation of that decision.
            assert!(!report.fired("RRL971"), "{}", report.to_human());
        }
    }
}
