//! `rr-audit`: the four static and exhaustive audits of the reproduction,
//! one subcommand each.
//!
//! ```text
//! rr-audit lint  [--format human|json] [--deny-warnings] [script.fault ...]
//! rr-audit model [--depth N] [--skip-hb] [--no-por] [--differential] [scenario.scenario ...]
//! rr-audit flow  [--deny-warnings] [--quiet] [scenario.scenario ...]
//! rr-audit abs   [--deny-warnings] [--quiet] [--json PATH] [table.abs ...]
//! ```
//!
//! `lint` (DESIGN.md §11) statically verifies the configuration surface,
//! `model` (§12) exhaustively explores the recovery protocol's interleavings
//! and verifies recorded telemetry streams for happens-before violations,
//! `flow` (§16) computes and lints the static action-independence analysis
//! behind the checker's partial-order reduction, and `abs` (§17) certifies
//! the three §4 transformation decisions over a ±20% drift box. With no file
//! arguments each runs its built-in audit — `model` and `flow` over
//! [`rr_harness::flow::builtin_scenarios`] — and otherwise the given
//! fixture files; each subcommand's usage text below says the rest.
//!
//! Every subcommand shares one argument parser, accepts only the flags its
//! [`SUBCOMMANDS`] row lists, and exits `0` clean, `1` findings (a deny
//! diagnostic, any diagnostic under `--deny-warnings`, a violation or
//! differential drift), `2` usage, I/O or exploration error. Adding an audit
//! is one function and one row.

use std::process::ExitCode;

use mercury::config::{names, StationConfig};
use mercury::station::TreeVariant;
use rr_abs::refine::RefineConfig;
use rr_core::analysis::{group_mttf_bound_s, group_mttr_bound_s};
use rr_core::model::FailureModel;
use rr_core::schedule::{plan_episodes, Suspicion};
use rr_core::tree::RestartTree;
use rr_harness::abs::{abs_params, certify_decisions, decision_table_json, parse_abs_fixture};
use rr_harness::flow::builtin_scenarios;
use rr_harness::golden::{golden_scenarios, lint_scenario, run_golden_scenario_telemetry};
use rr_lint::{
    catalog, lint_abs, lint_algebra, lint_fault_script, lint_model, lint_plan, lint_suspicions,
    AbsParams, Diagnostic, GroupClaim, MemberStat, Report, ScriptContext,
};
use rr_model::{
    analyze, check, hb, lint_flow, lint_model_bounds, scenario, CheckConfig, FlowAnalysis, Model,
    Scenario, DEFAULT_DEPTH, DEFAULT_STATE_BUDGET,
};

/// One audit: its name on the command line, the flags it accepts, its usage
/// text, and its body. The body returns `Ok(true)` when clean, `Ok(false)`
/// on findings (already printed), and `Err` for an I/O or exploration error.
struct Subcommand {
    name: &'static str,
    flags: &'static [&'static str],
    usage: &'static str,
    run: fn(&Options) -> Result<bool, String>,
}

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "lint",
        flags: &["--format", "--deny-warnings"],
        usage: "usage: rr-audit lint [--format human|json] [--deny-warnings] [script.fault ...]

Statically verifies restart trees, policies, failure models, oracle
suspicions, episode plans, MTTF/MTTR claims, and fault scripts. Exit
code 0 = clean, 1 = findings, 2 = usage or I/O error.",
        run: run_lint,
    },
    Subcommand {
        name: "model",
        flags: &["--depth", "--skip-hb", "--no-por", "--differential"],
        usage: "usage: rr-audit model [--depth N] [--skip-hb] [--no-por] [--differential] \
[scenario.scenario ...]

Exhaustively explores the recovery protocol's interleavings up to a depth
bound, checking safety invariants and liveness-under-fairness, and verifies
recorded telemetry streams for happens-before violations. Exploration is
reduced by rr-flow's static independence analysis unless --no-por is given;
--differential runs both full and reduced exploration and rejects any
verdict drift between them. Exit code 0 = clean, 1 = violation or drift
(counterexample printed), 2 = usage or exploration error.",
        run: run_model,
    },
    Subcommand {
        name: "flow",
        flags: &["--deny-warnings", "--quiet"],
        usage: "usage: rr-audit flow [--deny-warnings] [--quiet] [scenario.scenario ...]

Computes rr-flow's static action-dependence analysis for each scenario (the
built-in tree I-V audit matrix when none are given), prints chains,
interference and independence statistics, and lints the result (RRL95x).
Exit code 0 = clean, 1 = findings, 2 = usage or I/O error.",
        run: run_flow,
    },
    Subcommand {
        name: "abs",
        flags: &["--deny-warnings", "--quiet", "--json"],
        usage: "usage: rr-audit abs [--deny-warnings] [--quiet] [--json PATH] [table.abs ...]

Certifies the paper's three 4.x tree transformations over a +/-20% parameter
drift box with interval abstract interpretation (the built-in Mercury audit
when no tables are given), prints the decision table, and lints it (RRL97x).
--json writes the deterministic decision-table artifact for golden diffing.
Exit code 0 = clean, 1 = findings, 2 = usage or I/O error.",
        run: run_abs,
    },
];

const USAGE: &str = "usage: rr-audit <lint|model|flow|abs> [flags] [files]

Audits the reproduction: static configuration lints, bounded model checking
of the recovery protocol, static action-independence analysis, and interval
certification of the tree transformations. `rr-audit <subcommand> --help`
lists a subcommand's flags. Exit code 0 = clean, 1 = findings, 2 = usage,
I/O or exploration error.";

/// Every flag of every subcommand; [`parse_args`] fills in only the ones the
/// chosen subcommand accepts.
#[derive(Default)]
struct Options {
    format_json: bool,
    deny_warnings: bool,
    quiet: bool,
    json: Option<String>,
    depth: Option<usize>,
    skip_hb: bool,
    no_por: bool,
    differential: bool,
    files: Vec<String>,
}

/// Parses a subcommand's arguments. `Err("")` asks for the usage text.
fn parse_args(accepted: &[&str], args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') && !accepted.contains(&flag) => {
                return Err(format!("unknown flag {flag:?}"))
            }
            "--format" => {
                let value = it.next().ok_or("--format needs a value (human|json)")?;
                opts.format_json = match value.as_str() {
                    "human" => false,
                    "json" => true,
                    other => return Err(format!("unknown format {other:?} (human|json)")),
                };
            }
            "--depth" => {
                let value = it.next().ok_or("--depth needs a number")?;
                let parsed: usize = value.parse().map_err(|_| format!("bad depth {value:?}"))?;
                if parsed == 0 {
                    return Err("depth must be at least 1".to_string());
                }
                opts.depth = Some(parsed);
            }
            "--json" => {
                let path = it.next().ok_or("--json needs a path")?;
                opts.json = Some(path.to_string());
            }
            "--deny-warnings" => opts.deny_warnings = true,
            "--quiet" => opts.quiet = true,
            "--skip-hb" => opts.skip_hb = true,
            "--no-por" => opts.no_por = true,
            "--differential" => opts.differential = true,
            path => opts.files.push(path.to_string()),
        }
    }
    Ok(opts)
}

/// Prints a lint report and decides the verdict: clean unless it carries a
/// deny diagnostic, or any diagnostic under `--deny-warnings`.
fn finish(report: &Report, opts: &Options) -> bool {
    if opts.format_json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_human());
    }
    !(report.has_deny() || (opts.deny_warnings && !report.is_clean()))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprintln!("rr-audit: missing subcommand\n{USAGE}");
        return ExitCode::from(2);
    };
    if name == "--help" || name == "-h" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(sub) = SUBCOMMANDS.iter().find(|s| s.name == name) else {
        eprintln!("rr-audit: unknown subcommand {name:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match parse_args(sub.flags, rest) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => {
            println!("{}", sub.usage);
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("rr-{}: {msg}\n{}", sub.name, sub.usage);
            return ExitCode::from(2);
        }
    };
    match (sub.run)(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("rr-{}: {msg}", sub.name);
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------- lint --

/// The failure models that describe a given variant's component set.
fn models_for(cfg: &StationConfig, variant: TreeVariant) -> Vec<(&'static str, FailureModel)> {
    if variant.is_split() {
        vec![
            ("paper-model", cfg.paper_failure_model()),
            ("advisory-model", cfg.advisory_failure_model()),
        ]
    } else {
        vec![("unsplit-model", cfg.unsplit_failure_model())]
    }
}

/// One covering suspicion per component: the oracle's ground state. Every
/// entry must survive [`lint_suspicions`] and plan into a clean episode set.
fn ground_suspicions(tree: &RestartTree) -> Vec<Suspicion> {
    tree.components()
        .iter()
        .filter_map(|comp| Suspicion::covering(tree, comp.clone(), &[comp.as_str()]).ok())
        .collect()
}

/// §3.2 algebra claims for every multi-component cell, with member MTTFs
/// from the failure model and member MTTRs from the configuration's
/// detection + boot timing. The claims are stated at the paper's bounds, so
/// a finding here means the algebra checker and the analysis module disagree.
fn algebra_claims(
    cfg: &StationConfig,
    tree: &RestartTree,
    model: &FailureModel,
) -> Vec<GroupClaim> {
    let cost = cfg.cost_model();
    let mut claims = Vec::new();
    for cell in tree.cells() {
        let comps = tree.components_under(cell);
        if comps.len() < 2 {
            continue;
        }
        let members: Vec<MemberStat> = comps
            .iter()
            .filter_map(|c| {
                let mttf_s = model.component_mttf_s(c)?;
                let mttr_s = cfg.fd.mean_detection_s() + cost.boot_s(c).unwrap_or(0.0);
                Some(MemberStat {
                    name: c.clone(),
                    mttf_s,
                    mttr_s,
                })
            })
            .collect();
        if members.is_empty() {
            continue;
        }
        let mttf_s = group_mttf_bound_s(&members.iter().map(|m| m.mttf_s).collect::<Vec<_>>())
            .unwrap_or_else(|e| unreachable!("members is non-empty: {e}"));
        let mttr_s = group_mttr_bound_s(&members.iter().map(|m| m.mttr_s).collect::<Vec<_>>())
            .unwrap_or_else(|e| unreachable!("members is non-empty: {e}"));
        claims.push(GroupClaim {
            group: tree.label(cell).to_string(),
            mttf_s,
            mttr_s,
            members,
        });
    }
    claims
}

/// Lints the whole built-in configuration surface.
fn lint_defaults() -> Report {
    let mut report = Report::new();
    let scenarios = builtin_scenarios();
    for (cfg_name, cfg) in [
        ("paper", StationConfig::paper()),
        ("hardened", StationConfig::hardened()),
        // Exercises the RRL8xx deadline/admission feasibility lints with the
        // controller enabled (paper and hardened leave it off, so only the
        // always-on pass-feasibility check runs for them).
        ("admission", StationConfig::admission()),
    ] {
        for variant in TreeVariant::ALL {
            let prefix = format!("{cfg_name}/tree-{variant}");
            let tree = match variant.tree() {
                Ok(t) => t,
                Err(e) => {
                    report.push(Diagnostic::new(
                        &catalog::TREE_MALFORMED,
                        prefix,
                        format!("tree variant {variant} does not build: {e}"),
                    ));
                    continue;
                }
            };
            report.merge(cfg.lint(&tree).prefixed(&prefix));
            for (model_name, model) in models_for(&cfg, variant) {
                report.merge(lint_model(&model, &tree).prefixed(&format!("{prefix}/{model_name}")));
            }
            let suspicions = ground_suspicions(&tree);
            report.merge(lint_suspicions(&tree, &suspicions).prefixed(&format!("{prefix}/oracle")));
            match plan_episodes(&tree, &suspicions) {
                Ok(plan) => {
                    report.merge(lint_plan(&tree, &plan).prefixed(&format!("{prefix}/planner")));
                    // The widest ground-suspicion plan is the deepest episode
                    // queue this variant can produce; it must stay within the
                    // bound rr-model's default scenarios verified, and those
                    // scenarios (two faults at the default depth) must
                    // themselves be explorable within the state budget.
                    report.merge(
                        lint_model_bounds(
                            2,
                            tree.components().len(),
                            &CheckConfig::default(),
                            plan.episodes.len(),
                        )
                        .prefixed(&format!("{prefix}/model")),
                    );
                }
                Err(e) => report.push(Diagnostic::new(
                    &catalog::PLAN_UNKNOWN_CELL,
                    format!("{prefix}/planner"),
                    format!("episode planning failed: {e}"),
                )),
            }
            // Algebra only varies with the model, not the config's FD knobs;
            // once per variant is enough. The same goes for the rr-flow
            // dependence analysis of the variant's built-in pair scenario.
            if cfg_name == "paper" {
                for (model_name, model) in models_for(&cfg, variant) {
                    report.merge(
                        lint_algebra(&algebra_claims(&cfg, &tree, &model))
                            .prefixed(&format!("{prefix}/{model_name}")),
                    );
                }
                let pair = format!("tree-{variant}/perfect/pair");
                if let Some((_, sc)) = scenarios.iter().find(|(name, _)| *name == pair) {
                    match Model::new(tree.clone(), sc) {
                        Ok(model) => report
                            .merge(lint_flow(&analyze(&model)).prefixed(&format!("{prefix}/flow"))),
                        Err(e) => report.push(Diagnostic::new(
                            &catalog::FLOW_TABLE_UNSOUND,
                            format!("{prefix}/flow"),
                            format!("built-in pair scenario does not build: {e}"),
                        )),
                    }
                }
            }
        }
    }
    for sc in golden_scenarios() {
        report.merge(lint_scenario(&sc).prefixed(&format!("golden/{}", sc.name)));
    }
    // The rr-abs profitability certificates for the three §4 decisions: the
    // interval evidence must support each committed verdict (RRL97x).
    report
        .merge(lint_abs(&abs_params(&certify_decisions(RefineConfig::default()))).prefixed("abs"));
    report
}

/// Lints one fault-script file against the union of split and unsplit
/// component names under the paper configuration's detector.
fn lint_script_file(path: &str) -> Result<Report, String> {
    let text = read(path)?;
    let mut components: Vec<String> = names::UNSPLIT.iter().map(|s| s.to_string()).collect();
    for name in names::SPLIT {
        if !components.iter().any(|c| c == name) {
            components.push(name.to_string());
        }
    }
    let infrastructure = [names::FD.to_string(), names::REC.to_string()];
    let fd = StationConfig::paper().fd;
    let ctx = ScriptContext {
        components: &components,
        infrastructure: &infrastructure,
        fd: Some(&fd),
    };
    Ok(lint_fault_script(&text, &ctx).prefixed(path))
}

fn run_lint(opts: &Options) -> Result<bool, String> {
    let mut report = if opts.files.is_empty() {
        lint_defaults()
    } else {
        Report::new()
    };
    for path in &opts.files {
        report.merge(lint_script_file(path)?);
    }
    Ok(finish(&report, opts))
}

// --------------------------------------------------------------- model --

/// Resolves one scenario's exploration config and model, running the static
/// feasibility lints on the way.
fn build_model(
    name: &str,
    sc: &Scenario,
    depth_flag: Option<usize>,
    por: bool,
) -> Result<(Model, CheckConfig), String> {
    let variant: TreeVariant = sc.tree.parse().map_err(|e| format!("{name}: {e}"))?;
    let tree = variant
        .tree()
        .map_err(|e| format!("{name}: tree variant {variant} does not build: {e}"))?;
    let cfg = CheckConfig {
        max_depth: sc.depth.or(depth_flag).unwrap_or(DEFAULT_DEPTH),
        state_budget: DEFAULT_STATE_BUDGET,
        por,
    };
    // The same RRL7xx lints `rr-audit lint` ships; a scenario's plan queue
    // is at most one episode per fault.
    let faults = sc.faults.len();
    let bounds = lint_model_bounds(faults, variant.components().len(), &cfg, faults);
    if !bounds.is_clean() {
        print!("{}", bounds.to_human());
    }
    if bounds.fired("RRL701") {
        return Err(format!(
            "{name}: exploration statically infeasible, refusing to start"
        ));
    }
    let model = Model::new(tree, sc).map_err(|e| format!("{name}: {e}"))?;
    Ok((model, cfg))
}

fn print_violation(name: &str, outcome: &rr_model::CheckOutcome) {
    let Some(cex) = &outcome.violation else {
        return;
    };
    println!(
        "rr-model {name}: VIOLATION {} after {} states",
        cex.violation.kind.name(),
        outcome.states_explored
    );
    println!(
        "minimized counterexample ({} steps, replayable):",
        cex.trace.len()
    );
    print!("{}", cex.render());
}

/// Builds and explores one scenario. `Ok(true)` means clean, `Ok(false)`
/// means a violation was found (counterexample already printed).
fn check_scenario(
    name: &str,
    sc: &Scenario,
    depth_flag: Option<usize>,
    por: bool,
) -> Result<bool, String> {
    let (model, cfg) = build_model(name, sc, depth_flag, por)?;
    let outcome = check(&model, &cfg).map_err(|e| format!("{name}: {e}"))?;
    match &outcome.violation {
        None => {
            println!(
                "rr-model {name}: depth {} explored {} states ({} distinct, {} quiescent), \
                 no violations",
                outcome.depth,
                outcome.states_explored,
                outcome.distinct_states,
                outcome.quiescent_states
            );
            Ok(true)
        }
        Some(_) => {
            print_violation(name, &outcome);
            Ok(false)
        }
    }
}

/// Explores one scenario **both** fully and reduced and rejects any verdict
/// drift between the two. `Ok(true)` means clean under both; `Ok(false)`
/// means either a violation (agreed by both, counterexample printed) or
/// drift (one search's verdict differs — the unsound-reduction signature).
fn differential_scenario(
    name: &str,
    sc: &Scenario,
    depth_flag: Option<usize>,
) -> Result<bool, String> {
    let (model, full_cfg) = build_model(name, sc, depth_flag, false)?;
    let reduced_cfg = CheckConfig {
        por: true,
        ..full_cfg
    };
    let full = check(&model, &full_cfg).map_err(|e| format!("{name} (full): {e}"))?;
    let reduced = check(&model, &reduced_cfg).map_err(|e| format!("{name} (reduced): {e}"))?;
    let ratio = if reduced.distinct_states > 0 {
        full.distinct_states as f64 / reduced.distinct_states as f64
    } else {
        1.0
    };
    match (&full.violation, &reduced.violation) {
        (None, None) => {
            println!(
                "rr-model {name}: differential OK — clean both ways, {} vs {} distinct \
                 states ({ratio:.2}x reduction)",
                full.distinct_states, reduced.distinct_states
            );
            Ok(true)
        }
        (Some(f), Some(r)) if f == r => {
            println!("rr-model {name}: differential OK — both searches reject identically");
            print_violation(name, &full);
            Ok(false)
        }
        (Some(_), Some(_)) => {
            println!(
                "rr-model {name}: DIFFERENTIAL DRIFT — both reject but counterexamples \
                 differ (reduction broke minimization)"
            );
            print_violation(&format!("{name} (full)"), &full);
            print_violation(&format!("{name} (reduced)"), &reduced);
            Ok(false)
        }
        (Some(_), None) => {
            println!(
                "rr-model {name}: DIFFERENTIAL DRIFT — full exploration finds a violation \
                 the reduced search misses (unsound reduction)"
            );
            print_violation(name, &full);
            Ok(false)
        }
        (None, Some(_)) => {
            println!(
                "rr-model {name}: DIFFERENTIAL DRIFT — reduced search reports a violation \
                 full exploration refutes"
            );
            print_violation(name, &reduced);
            Ok(false)
        }
    }
}

/// Replays every golden scenario with telemetry enabled and verifies the
/// recorded episode stream's causal order.
fn verify_golden_hb() -> bool {
    let mut clean = true;
    for sc in golden_scenarios() {
        let (_trace, registry) = run_golden_scenario_telemetry(&sc);
        let violations = hb::verify_registry(&registry);
        if violations.is_empty() {
            println!(
                "rr-model hb {}: {} events, causally consistent",
                sc.name,
                registry.events().len()
            );
        } else {
            clean = false;
            println!(
                "rr-model hb {}: {} happens-before violation(s)",
                sc.name,
                violations.len()
            );
            for v in &violations {
                println!("  {v}");
            }
        }
    }
    clean
}

fn run_model(opts: &Options) -> Result<bool, String> {
    let run = |name: &str, sc: &Scenario| {
        if opts.differential {
            differential_scenario(name, sc, opts.depth)
        } else {
            check_scenario(name, sc, opts.depth, !opts.no_por)
        }
    };
    let mut clean = true;
    if opts.files.is_empty() {
        for (name, sc) in builtin_scenarios() {
            clean &= run(&name, &sc)?;
        }
        if !opts.skip_hb {
            clean &= verify_golden_hb();
        }
    }
    for path in &opts.files {
        let sc = scenario::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        clean &= run(path, &sc)?;
    }
    Ok(clean)
}

// ---------------------------------------------------------------- flow --

/// Prints one scenario's analysis summary: chains, interference edges, and
/// how much of the action-pair space is provably independent.
fn print_flow_summary(name: &str, analysis: &FlowAnalysis) {
    let n = analysis.templates.len();
    let total_pairs = n * (n - 1) / 2;
    let independent = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .filter(|&(a, b)| !analysis.dependent[a][b] && !analysis.dependent[b][a])
        .count();
    let interfering: Vec<String> = (0..analysis.faults.len())
        .flat_map(|i| ((i + 1)..analysis.faults.len()).map(move |j| (i, j)))
        .filter(|&(i, j)| analysis.fault_interference[i][j])
        .map(|(i, j)| format!("{}~{}", analysis.faults[i], analysis.faults[j]))
        .collect();
    println!(
        "rr-flow {name}: {n} templates, {independent}/{total_pairs} pairs independent, \
         {} fault(s), interference [{}]",
        analysis.faults.len(),
        interfering.join(", ")
    );
    for (component, chain) in analysis.faults.iter().zip(&analysis.chains) {
        let rendered: Vec<String> = chain
            .iter()
            .map(|(cell, covers)| {
                if *covers {
                    format!("{cell}(cures)")
                } else {
                    cell.clone()
                }
            })
            .collect();
        println!("  chain {component}: {}", rendered.join(" -> "));
    }
}

/// Analyzes and lints one scenario, merging findings into `report`.
fn audit_flow(name: &str, sc: &Scenario, quiet: bool, report: &mut Report) -> Result<(), String> {
    let variant: TreeVariant = sc.tree.parse().map_err(|e| format!("{name}: {e}"))?;
    let tree = variant
        .tree()
        .map_err(|e| format!("{name}: tree variant {variant} does not build: {e}"))?;
    let model = Model::new(tree, sc).map_err(|e| format!("{name}: {e}"))?;
    let analysis = analyze(&model);
    if !quiet {
        print_flow_summary(name, &analysis);
    }
    report.merge(lint_flow(&analysis).prefixed(name));
    Ok(())
}

fn run_flow(opts: &Options) -> Result<bool, String> {
    let mut report = Report::new();
    if opts.files.is_empty() {
        for (name, sc) in builtin_scenarios() {
            audit_flow(&name, &sc, opts.quiet, &mut report)?;
        }
    }
    for path in &opts.files {
        let sc = scenario::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        audit_flow(path, &sc, opts.quiet, &mut report)?;
    }
    Ok(finish(&report, opts))
}

// ----------------------------------------------------------------- abs --

/// Prints one decision table's summary rows.
fn print_abs_summary(name: &str, params: &AbsParams) {
    for d in &params.decisions {
        println!(
            "rr-abs {name}: {} expected={} certified={} profit=[{:.4}, {:.4}] s \
             over {} dims, {} split(s), {:.1}% undecided",
            d.name,
            d.expected_verdict,
            d.verdict,
            d.profit_lo_s,
            d.profit_hi_s,
            d.box_dims.len(),
            d.splits,
            d.depends_fraction * 100.0
        );
    }
}

/// Lints one decision table, merging path-prefixed findings into `report`.
fn audit_abs(name: &str, params: &AbsParams, quiet: bool, report: &mut Report) {
    if !quiet {
        print_abs_summary(name, params);
    }
    report.merge(lint_abs(params).prefixed(name));
}

fn run_abs(opts: &Options) -> Result<bool, String> {
    let mut report = Report::new();
    if opts.files.is_empty() {
        let params = abs_params(&certify_decisions(RefineConfig::default()));
        audit_abs("mercury", &params, opts.quiet, &mut report);
        if let Some(path) = &opts.json {
            std::fs::write(path, decision_table_json(&params))
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        }
    } else if opts.json.is_some() {
        return Err("--json only applies to the built-in audit, not fixture tables".to_string());
    }
    for path in &opts.files {
        let params = parse_abs_fixture(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        audit_abs(path, &params, opts.quiet, &mut report);
    }
    Ok(finish(&report, opts))
}
