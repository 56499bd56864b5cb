//! The rr-abs profitability certification of the three §4 decisions, the
//! decision table rr-lint's `RRL97x` checks read, and the committed
//! artifact `rr-audit abs --json` writes and the golden suite compares.
//!
//! The paper commits to three tree transformations (§4.2–§4.4) on the
//! strength of *point* estimates measured on one afternoon's Mercury. rr-abs
//! re-derives each decision over a parameter **box** — every calibrated rate
//! and cost drifting ±20% independently — and certifies a three-valued
//! verdict per decision. This module builds the three scenarios from the
//! shipped Mercury configuration, runs the certification, renders each
//! result as a row of `rr_lint::AbsParams` (the decision-table format that
//! `tests/abs-fixtures/*.abs` files also parse into), and renders the table
//! both as an experiment section and as the deterministic JSON artifact
//! diffed against `tests/golden/abs-decisions.json`.

use rr_abs::refine::{certify, ProfitabilityMap, RefineConfig};
use rr_abs::{ParamBox, Scenario, Verdict};
use rr_core::analysis::OracleQuality;
use rr_core::tree::{RestartTree, TreeSpec};
use rr_lint::{AbsDecision, AbsParams};
use rr_sim::telemetry::json_string;

use mercury::config::{names, StationConfig};
use mercury::station::TreeVariant;

/// The drift applied to every parameter dimension in the built-in audit:
/// each calibrated rate and cost may sit anywhere within ±20% of its
/// measured value, independently.
const DRIFT_FRAC: f64 = 0.2;

/// One §4 decision: the transformation scenario plus the verdict the paper
/// (and the committed decision table) expects the certification to produce.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The before/after scenario under the Mercury calibration.
    pub scenario: Scenario,
    /// The verdict the committed table expects (`Always` for all three §4
    /// transformations).
    pub expected: Verdict,
}

/// A decision together with its certified profitability map.
#[derive(Debug, Clone)]
pub struct CertifiedDecision {
    /// The decision that was certified.
    pub decision: Decision,
    /// The drift box the certification quantified over.
    pub root: ParamBox,
    /// The certified partition of that box.
    pub map: ProfitabilityMap,
}

fn built(spec: &TreeSpec) -> RestartTree {
    spec.build()
        .unwrap_or_else(|e| unreachable!("static tree builds: {e:?}"))
}

fn variant_tree(v: TreeVariant) -> RestartTree {
    v.tree()
        .unwrap_or_else(|e| unreachable!("paper tree {v} builds: {e:?}"))
}

/// The split-station analogue of tree II with the §4.2 split *not yet
/// applied*: fedr and pbcom share one leaf cell, so either one failing
/// restarts both — the same recovery behaviour as the monolithic fedrcom,
/// but over the split component set, which lets the before/after pair share
/// one failure model.
fn joint_fedrcom_tree() -> RestartTree {
    built(
        &TreeSpec::cell("mercury")
            .with_child(TreeSpec::cell("R_mbus").with_component(names::MBUS))
            .with_child(
                TreeSpec::cell("R_fedrcom")
                    .with_component(names::FEDR)
                    .with_component(names::PBCOM),
            )
            .with_child(TreeSpec::cell("R_ses").with_component(names::SES))
            .with_child(TreeSpec::cell("R_str").with_component(names::STR))
            .with_child(TreeSpec::cell("R_rtu").with_component(names::RTU)),
    )
}

fn scenario(
    name: &str,
    before: RestartTree,
    after: RestartTree,
    quality: OracleQuality,
    cfg: &StationConfig,
    advisory: bool,
) -> Scenario {
    let model = if advisory {
        cfg.advisory_failure_model()
    } else {
        cfg.paper_failure_model()
    };
    Scenario::new(
        name,
        before,
        after,
        quality,
        model.modes().to_vec(),
        cfg.cost_model(),
    )
    .unwrap_or_else(|e| unreachable!("shipped Mercury scenario {name} is valid: {e}"))
}

/// The three §4 decisions under the shipped Mercury calibration
/// ([`StationConfig::paper`]), in paper order.
///
/// * `split-fedrcom` (§4.2): a joint \[fedr,pbcom\] leaf cell versus tree
///   III's split subtree, under the paper failure model — fedr's 6/h crash
///   rate stops dragging the stable pbcom down with it.
/// * `consolidate-ses-str` (§4.3): tree III versus tree IV under the
///   advisory correlation view (`f_{ses,str} ≈ 1`): a correlated ses/str
///   failure restarts the whole station in tree III but one small cell in
///   tree IV.
/// * `promote-pbcom` (§4.4): tree IV versus tree V under the §4.4 faulty
///   oracle (30% guess-too-low) and the advisory model — promotion deletes
///   the wrong-guess restart+re-detect+rapid-penalty path for the dominant
///   correlated mode.
fn paper_decisions() -> Vec<Decision> {
    let cfg = StationConfig::paper();
    vec![
        Decision {
            scenario: scenario(
                "split-fedrcom",
                joint_fedrcom_tree(),
                variant_tree(TreeVariant::III),
                OracleQuality::Perfect,
                &cfg,
                false,
            ),
            expected: Verdict::Always,
        },
        Decision {
            scenario: scenario(
                "consolidate-ses-str",
                variant_tree(TreeVariant::III),
                variant_tree(TreeVariant::IV),
                OracleQuality::Perfect,
                &cfg,
                true,
            ),
            expected: Verdict::Always,
        },
        Decision {
            scenario: scenario(
                "promote-pbcom",
                variant_tree(TreeVariant::IV),
                variant_tree(TreeVariant::V),
                OracleQuality::Faulty { undershoot: 0.3 },
                &cfg,
                true,
            ),
            expected: Verdict::Always,
        },
    ]
}

/// Certifies every built-in decision over a ±20 % drift box
/// covering all of its parameter dimensions.
pub fn certify_decisions(config: RefineConfig) -> Vec<CertifiedDecision> {
    paper_decisions()
        .into_iter()
        .map(|decision| {
            let root = ParamBox::drift(decision.scenario.dim_names(), DRIFT_FRAC)
                .unwrap_or_else(|e| unreachable!("{DRIFT_FRAC} is a valid drift: {e}"));
            let map = certify(&decision.scenario, &root, config).unwrap_or_else(|e| {
                unreachable!(
                    "shipped scenario {} certifies: {e}",
                    decision.scenario.name()
                )
            });
            CertifiedDecision {
                decision,
                root,
                map,
            }
        })
        .collect()
}

/// Renders certified decisions as the decision table `lint_abs` checks.
pub fn abs_params(certified: &[CertifiedDecision]) -> AbsParams {
    AbsParams {
        decisions: certified
            .iter()
            .map(|c| {
                let hull = c
                    .map
                    .profit_hull()
                    .unwrap_or_else(|| unreachable!("certify records at least one region"));
                AbsDecision {
                    name: c.map.scenario.clone(),
                    expected_verdict: c.decision.expected.as_str().to_string(),
                    verdict: c.map.verdict().as_str().to_string(),
                    profit_lo_s: hull.lo(),
                    profit_hi_s: hull.hi(),
                    box_dims: c
                        .root
                        .dims()
                        .map(|(name, iv)| (name.to_string(), iv.lo(), iv.hi()))
                        .collect(),
                    depends_fraction: c.map.depends_fraction(),
                    splits: c.map.splits,
                    max_splits: c.map.config.max_splits,
                }
            })
            .collect(),
    }
}

/// Renders a decision table as deterministic JSON (shortest-roundtrip `f64`
/// formatting, stable key order), byte-diffable against the committed
/// `tests/golden/abs-decisions.json`. All inputs are products of the static
/// calibration and directed-rounding interval arithmetic, so the bytes are
/// identical on every conforming IEEE-754 platform.
pub fn decision_table_json(params: &AbsParams) -> String {
    let mut out = String::from("{\n  \"drift\": ");
    out.push_str(&DRIFT_FRAC.to_string());
    out.push_str(",\n  \"decisions\": [\n");
    for (i, d) in params.decisions.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": {},\n", json_string(&d.name)));
        out.push_str(&format!(
            "      \"expected_verdict\": {},\n",
            json_string(&d.expected_verdict)
        ));
        out.push_str(&format!(
            "      \"verdict\": {},\n",
            json_string(&d.verdict)
        ));
        out.push_str(&format!("      \"profit_lo_s\": {},\n", d.profit_lo_s));
        out.push_str(&format!("      \"profit_hi_s\": {},\n", d.profit_hi_s));
        out.push_str(&format!(
            "      \"depends_fraction\": {},\n",
            d.depends_fraction
        ));
        out.push_str(&format!("      \"splits\": {},\n", d.splits));
        out.push_str(&format!("      \"max_splits\": {},\n", d.max_splits));
        out.push_str("      \"box\": [\n");
        for (j, (name, lo, hi)) in d.box_dims.iter().enumerate() {
            out.push_str(&format!(
                "        [{}, {lo}, {hi}]{}\n",
                json_string(name),
                if j + 1 < d.box_dims.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < params.decisions.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `.abs` decision-table fixture (the line format the CI fixture
/// pair under `tests/abs-fixtures/` uses) into lint params.
///
/// ```text
/// # comment
/// decision <name>            # opens a decision
/// expected <verdict>
/// verdict <verdict>
/// profit <lo_s> <hi_s>
/// dim <name> <lo> <hi>       # repeatable
/// depends <fraction>
/// splits <used> <budget>
/// ```
///
/// # Errors
///
/// Returns a human-readable message naming the offending line. Unknown
/// verdict strings and malformed numbers *inside a well-formed line shape*
/// are deliberately let through: those are exactly what `lint_abs` exists
/// to reject, and the broken fixture exercises that path.
pub fn parse_abs_fixture(text: &str) -> Result<AbsParams, String> {
    let mut decisions: Vec<AbsDecision> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let keyword = words.next().unwrap_or("");
        let rest: Vec<&str> = words.collect();
        let ctx = |msg: &str| format!("line {}: {msg}: {raw:?}", lineno + 1);
        let num = |w: &str, what: &str| -> Result<f64, String> {
            w.parse::<f64>()
                .map_err(|_| ctx(&format!("{what} is not a number")))
        };
        if keyword == "decision" {
            let [name] = rest.as_slice() else {
                return Err(ctx("expected `decision <name>`"));
            };
            decisions.push(AbsDecision {
                name: (*name).to_string(),
                expected_verdict: String::new(),
                verdict: String::new(),
                profit_lo_s: 0.0,
                profit_hi_s: 0.0,
                box_dims: Vec::new(),
                depends_fraction: 0.0,
                splits: 0,
                max_splits: 0,
            });
            continue;
        }
        let Some(d) = decisions.last_mut() else {
            return Err(ctx("directive before any `decision`"));
        };
        match (keyword, rest.as_slice()) {
            ("expected", [v]) => d.expected_verdict = (*v).to_string(),
            ("verdict", [v]) => d.verdict = (*v).to_string(),
            ("profit", [lo, hi]) => {
                d.profit_lo_s = num(lo, "profit lo")?;
                d.profit_hi_s = num(hi, "profit hi")?;
            }
            ("dim", [name, lo, hi]) => {
                d.box_dims
                    .push(((*name).to_string(), num(lo, "dim lo")?, num(hi, "dim hi")?));
            }
            ("depends", [f]) => d.depends_fraction = num(f, "depends fraction")?,
            ("splits", [used, budget]) => {
                d.splits = used
                    .parse()
                    .map_err(|_| ctx("splits used is not an integer"))?;
                d.max_splits = budget
                    .parse()
                    .map_err(|_| ctx("splits budget is not an integer"))?;
            }
            _ => return Err(ctx("unknown or malformed directive")),
        }
    }
    if decisions.is_empty() {
        return Err("fixture declares no decisions".to_string());
    }
    Ok(AbsParams { decisions })
}

/// Renders the certified decision table as an experiment section.
pub fn experiment(_run: crate::RunConfig) -> crate::Experiment {
    let mut exp = crate::Experiment {
        id: "abs".into(),
        title: "rr-abs interval certification of the §4 transformation decisions".into(),
        tables: Vec::new(),
        blocks: Vec::new(),
        observations: Vec::new(),
    };
    exp.blocks.push(
        "Not a paper table: this certifies the paper's own decisions. Each\n\
         §4 transformation was committed on point estimates from one\n\
         calibration run; rr-abs re-derives the profit Δ = MTTR_before −\n\
         MTTR_after with interval arithmetic while every rate and cost\n\
         drifts ±20% independently. `always` means the certificate proves\n\
         Δ > 0 at every point of the drift box — the decision survives any\n\
         mis-calibration within the box, not just the measured afternoon.\n\
         Shared recovery terms cancel symbolically before intervals are\n\
         introduced, so the enclosures stay tight enough to decide.\n"
            .to_string(),
    );

    let certified = certify_decisions(RefineConfig::default());
    let params = abs_params(&certified);
    let mut table = crate::tables::Table::new(
        format!(
            "§4 decision certificates over a ±{:.0}% drift box",
            DRIFT_FRAC * 100.0
        ),
        vec![
            "Decision".into(),
            "Expected".into(),
            "Certified".into(),
            "Profit lo (s)".into(),
            "Profit hi (s)".into(),
            "Dims".into(),
            "Splits".into(),
        ],
    );
    for d in &params.decisions {
        table.push_row(vec![
            d.name.clone(),
            d.expected_verdict.clone(),
            d.verdict.clone(),
            format!("{:.4}", d.profit_lo_s),
            format!("{:.4}", d.profit_hi_s),
            d.box_dims.len().to_string(),
            format!("{}", d.splits),
        ]);
    }
    exp.tables.push(table);

    // Anchor the interval evidence to the concrete algebra: the base-point
    // profit (every multiplier at 1) must sit inside each certified hull.
    for c in &certified {
        let base = c.root.sample_with(|_, _, _| 1.0);
        let point = c
            .decision
            .scenario
            .concrete_profit(&base)
            .unwrap_or_else(|e| unreachable!("base point evaluates: {e}"));
        let hull = c
            .map
            .profit_hull()
            .unwrap_or_else(|| unreachable!("certify records at least one region"));
        exp.observations.push((
            format!("{}: base-point profit vs hull midpoint (s)", c.map.scenario),
            point,
            hull.midpoint(),
        ));
    }
    exp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_paper_decisions_certify_always() {
        let certified = certify_decisions(RefineConfig::default());
        assert_eq!(certified.len(), 3);
        for c in &certified {
            assert_eq!(
                c.map.verdict(),
                Verdict::Always,
                "{}: {:?}",
                c.map.scenario,
                c.map.profit_hull()
            );
            assert_eq!(c.map.depends_fraction(), 0.0);
        }
        let names: Vec<&str> = certified.iter().map(|c| c.map.scenario.as_str()).collect();
        assert_eq!(
            names,
            ["split-fedrcom", "consolidate-ses-str", "promote-pbcom"]
        );
    }

    #[test]
    fn certified_table_lints_clean() {
        let params = abs_params(&certify_decisions(RefineConfig::default()));
        let report = rr_lint::lint_abs(&params);
        assert!(report.is_clean(), "{}", report.to_human());
    }

    #[test]
    fn sampled_points_never_contradict_the_certificates() {
        // The hard soundness constraint: no concrete valuation inside the
        // box may disagree with an `always` certificate.
        for c in certify_decisions(RefineConfig::default()) {
            for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let point = c.root.sample_with(|_, lo, hi| lo + frac * (hi - lo));
                let profit = c.decision.scenario.concrete_profit(&point).unwrap();
                assert!(
                    profit > 0.0,
                    "{} unprofitable ({profit} s) at fraction {frac} of the box",
                    c.map.scenario
                );
            }
        }
    }

    #[test]
    fn json_artifact_is_stable_and_parseable_shape() {
        let params = abs_params(&certify_decisions(RefineConfig::default()));
        let a = decision_table_json(&params);
        let b = decision_table_json(&params);
        assert_eq!(a, b);
        assert!(a.contains("\"split-fedrcom\""));
        assert!(a.contains("\"verdict\": \"always\""));
    }

    #[test]
    fn fixture_roundtrip_and_errors() {
        let text = "\
# a comment
decision split-fedrcom
expected always
verdict always
profit 0.5 14.0
dim rate:fedr-crash 0.8 1.2
dim boot:pbcom 0.8 1.2
depends 0
splits 0 4096
";
        let params = parse_abs_fixture(text).unwrap();
        assert_eq!(params.decisions.len(), 1);
        let d = &params.decisions[0];
        assert_eq!(d.name, "split-fedrcom");
        assert_eq!(d.box_dims.len(), 2);
        assert_eq!(d.max_splits, 4096);
        assert!(rr_lint::lint_abs(&params).is_clean());

        assert!(parse_abs_fixture("").is_err());
        assert!(parse_abs_fixture("expected always\n").is_err());
        assert!(parse_abs_fixture("decision a\nprofit 1\n").is_err());
        assert!(parse_abs_fixture("decision a\nprofit x y\n").is_err());
        assert!(parse_abs_fixture("decision a\nfrobnicate 1\n").is_err());
    }
}
