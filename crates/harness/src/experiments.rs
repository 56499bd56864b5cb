//! The experiment suite: one function per table/figure of the paper.
//!
//! Each experiment returns an [`Experiment`] holding the rendered tables and
//! the paper-vs-measured record used to generate `EXPERIMENTS.md`. All
//! experiments run the *actual station simulation* (fresh station per trial,
//! cold-started and settled, then one injected failure, measured exactly as
//! §4.1 describes); the analytic model from `rr_core::analysis` is shown
//! alongside as a cross-check where it applies.
//!
//! Trials are independent, so every trial loop fans out over the machine's
//! cores through `par_map`, and every table stays byte-identical for any
//! worker count: a station lives and dies inside its job, what one trial
//! hands the next is drawn before the fan-out, and sums fold the
//! index-ordered results (DESIGN.md §18).

use std::error::Error;

use mercury::config::{calib, names, StationConfig};
use mercury::measure::{measure_recovery, telemetry_frames, MeasureError};
use mercury::scenario::PassScenario;
use mercury::station::TreeVariant;
use rr_core::analysis::{
    availability, expected_mode_recovery_s, expected_system_mttr_s, OracleQuality,
};
use rr_core::model::FailureMode;
use rr_core::optimize::{optimize_tree, OptimizerConfig};
use rr_core::render::render_tree;
use rr_sim::{intern, Dist, FaultKind, FaultScript, Mark, SimDuration, SimRng, SimTime, Summary};

use crate::par::par_map;
use crate::tables::{secs, versus, Table};
use crate::trial::{settle_after, JointCure, OracleKind, Trial, TrialOutcome};

/// Unwraps a failure mode built from literal experiment rates, which are
/// valid by construction.
fn mode(m: Result<FailureMode, rr_core::ModelError>) -> FailureMode {
    m.unwrap_or_else(|e| unreachable!("literal experiment rates are valid: {e}"))
}

/// Experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Trials per measured cell (the paper uses 100).
    pub trials: usize,
    /// Base seed. Trial `i` of a measured cell runs on station seed
    /// `(seed + i) · 2654435761` (wrapping); the other campaigns offset it
    /// per trial in their own way.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            trials: 100,
            seed: 0xD52002,
        }
    }
}

/// A completed experiment: rendered output plus the structured record.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Identifier (e.g. `table2`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Rendered tables/figures.
    pub tables: Vec<Table>,
    /// Free-form rendered blocks (tree drawings etc.).
    pub blocks: Vec<String>,
    /// Paper-vs-measured observations: `(label, paper value, measured)`.
    pub observations: Vec<(String, f64, f64)>,
}

impl Experiment {
    fn new(id: &str, title: &str) -> Experiment {
        Experiment {
            id: id.to_string(),
            title: title.to_string(),
            tables: Vec::new(),
            blocks: Vec::new(),
            observations: Vec::new(),
        }
    }

    /// Renders everything as plain text.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n\n", self.id, self.title);
        for b in &self.blocks {
            out.push_str(b);
            out.push('\n');
        }
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }

    /// Worst relative error across the paper-vs-measured observations.
    pub fn worst_relative_error(&self) -> f64 {
        self.observations
            .iter()
            .map(|(_, paper, measured)| ((measured - paper) / paper).abs())
            .fold(0.0, f64::max)
    }
}

/// Measures mean recovery time for killing `component` under the given tree
/// and oracle, over `trials` fresh stations.
///
/// `correlated_pbcom` selects the §4.4 joint-cure failure instead of a plain
/// kill (only meaningful for pbcom on split trees).
pub fn measure_cell(
    variant: TreeVariant,
    oracle: OracleKind,
    component: &str,
    correlated_pbcom: bool,
    run: RunConfig,
) -> Summary {
    Summary::of(&measure_cell_samples(
        variant,
        oracle,
        component,
        correlated_pbcom,
        run,
    ))
}

/// Like [`measure_cell`], but returns the raw per-trial recovery times.
///
/// # Panics
///
/// If a trial cannot be built, played or measured, with its reason and its
/// index (`trial {i} (…): {reason}`, [`Trial::value`]).
pub fn measure_cell_samples(
    variant: TreeVariant,
    oracle: OracleKind,
    component: &str,
    correlated_pbcom: bool,
    run: RunConfig,
) -> Vec<f64> {
    measure_cells(&[cell(variant, oracle, component, correlated_pbcom)], run)
}

/// One measured cell: `component` killed (or, `correlated_pbcom`, the §4.4
/// joint pbcom failure injected) on a paper station under the tree and
/// oracle, and measured 150 s on: long enough for the worst escalated
/// episode (≈48 s) plus slack. [`measure_cells`] sets each trial's seed and
/// phase.
fn cell(
    variant: TreeVariant,
    oracle: OracleKind,
    component: &str,
    correlated_pbcom: bool,
) -> Trial {
    Trial {
        oracle,
        script: FaultScript::new().with_fault(SimTime::ZERO, component, FaultKind::Crash),
        joint: correlated_pbcom.then_some(JointCure::Poisoned),
        horizon: SimDuration::from_secs(150),
        ..Trial::new(StationConfig::paper(), variant, 0)
    }
}

/// The recovery times of `run.trials` trials of every cell, cell after cell
/// (`chunks(run.trials)` takes them apart again).
fn measure_cells(cells: &[Trial], run: RunConfig) -> Vec<f64> {
    fan_out(cells, run, run.seed ^ 0x9E3779B97F4A7C15, Trial::recovery_s)
}

/// What `read` makes of `run.trials` trials of every template, template
/// after template. Trial `i` of a template runs on seed
/// `(seed + i) · 2654435761` at phase `i` of `phase_offsets(phase_seed)`.
/// Template × trial is one job list, so a table of short cells still fills
/// every core and nothing fans out twice.
fn fan_out<T: Send>(
    templates: &[Trial],
    run: RunConfig,
    phase_seed: u64,
    read: impl Fn(&Trial) -> Result<T, Box<dyn Error>> + Sync,
) -> Vec<T> {
    let phases = phase_offsets(phase_seed, run.trials);
    par_map(templates.len() * run.trials, |job| {
        let i = job % run.trials;
        let trial = Trial {
            seed: run.seed.wrapping_add(i as u64).wrapping_mul(2654435761),
            phase: phases[i],
            ..templates[job / run.trials].clone()
        };
        trial.value(i, &read)
    })
}

/// One injection-phase offset per trial: a uniformly random fraction of the
/// FD ping period, so that repeated trials inject at a uniformly random phase
/// of the detection cycle. The generator is the one value a trial hands the
/// next, so the offsets are drawn here, in trial order, before the trials
/// fan out.
fn phase_offsets(rng_seed: u64, trials: usize) -> Vec<SimDuration> {
    let period = StationConfig::paper().fd.ping_period_s;
    let mut rng = SimRng::new(rng_seed);
    (0..trials)
        .map(|_| SimDuration::from_secs_f64(rng.uniform(0.0, period)))
        .collect()
}

/// How a correlated-fault scenario injects its failures.
#[derive(Debug, Clone, Copy)]
enum CorrelatedKind {
    /// Two components in independent cells killed at the same instant.
    Pair(&'static str, &'static str),
    /// Kill fedr, then 1 s later the §4.4 correlated pbcom failure while
    /// fedr's episode is still in flight — forcing an LCA merge under the
    /// parallel scheduler.
    FedrThenJointPbcom,
}

impl CorrelatedKind {
    /// The injections, times from the first.
    fn script(self) -> FaultScript {
        let [a, b] = self.components();
        let stagger = match self {
            CorrelatedKind::Pair(..) => SimTime::ZERO,
            CorrelatedKind::FedrThenJointPbcom => SimTime::from_secs(1),
        };
        FaultScript::new()
            .with_fault(SimTime::ZERO, a, FaultKind::Crash)
            .with_fault(stagger, b, FaultKind::Crash)
    }

    /// The injected components, for measurement.
    fn components(self) -> [&'static str; 2] {
        match self {
            CorrelatedKind::Pair(a, b) => [a, b],
            CorrelatedKind::FedrThenJointPbcom => [names::FEDR, names::PBCOM],
        }
    }

    /// The failure modes, for the analytic group-recovery cross-check.
    fn modes(self) -> Vec<FailureMode> {
        match self {
            CorrelatedKind::Pair(a, b) => {
                vec![
                    mode(FailureMode::solo(a, a, 1.0)),
                    mode(FailureMode::solo(b, b, 1.0)),
                ]
            }
            CorrelatedKind::FedrThenJointPbcom => vec![
                mode(FailureMode::solo(names::FEDR, names::FEDR, 1.0)),
                mode(FailureMode::correlated(
                    "joint",
                    names::PBCOM,
                    [names::FEDR, names::PBCOM],
                    1.0,
                )),
            ],
        }
    }
}

/// Measures group recovery (seconds until *both* injected failures are
/// recovered, per the §4.1 definition applied per component) for a
/// correlated-fault scenario, serially or in parallel.
fn measure_correlated(
    variant: TreeVariant,
    kind: CorrelatedKind,
    serial: bool,
    run: RunConfig,
) -> Summary {
    let mut config = StationConfig::paper();
    config.serial_recovery = serial;
    let script = kind.script();
    let scenario = Trial {
        joint: matches!(kind, CorrelatedKind::FedrThenJointPbcom).then_some(JointCure::Hint),
        horizon: settle_after(&script, SimDuration::from_secs(200)),
        script,
        ..Trial::new(config, variant, 0)
    };
    let samples = fan_out(&[scenario], run, run.seed ^ 0x5EB1A1, |trial| {
        Ok(group_recovery_s(&trial.run()?, kind)?)
    });
    Summary::of(&samples)
}

/// Seconds from the start until the slower of `kind`'s two components is
/// functionally ready for good. Readiness (not per-episode attribution) is
/// the metric because the serial baseline can recover a deferred component
/// through another episode's deadline escalation, which never issues a
/// restart under the deferred component's own name.
fn group_recovery_s(outcome: &TrialOutcome, kind: CorrelatedKind) -> Result<f64, MeasureError> {
    let comps = kind.components().map(intern);
    let mut last_ready = [None; 2];
    let marks = outcome.station.trace().marks();
    for (at, mark) in marks.filter(|&(at, _)| at >= outcome.start) {
        for (comp, last) in comps.iter().zip(&mut last_ready) {
            if *mark == Mark::Ready(*comp) {
                *last = Some(at);
            }
        }
    }
    let mut group = 0.0f64;
    for (comp, ready) in comps.iter().zip(last_ready) {
        let ready = ready.ok_or_else(|| MeasureError::NeverReady(comp.to_string()))?;
        group = group.max(ready.saturating_since(outcome.start).as_secs_f64());
    }
    Ok(group)
}

/// **Correlated faults** — sequential vs parallel recovery of concurrent
/// failures (the dependency-aware scheduler's headline table). Independent
/// cells recover concurrently; overlapping suspicions merge by promotion to
/// their least common ancestor instead of racing.
pub fn correlated_faults(run: RunConfig) -> Experiment {
    use rr_core::analysis::{expected_parallel_group_recovery_s, expected_serial_group_recovery_s};

    let mut exp = Experiment::new(
        "correlated",
        "Correlated-fault recovery: sequential vs parallel scheduler",
    );
    let cfg = StationConfig::paper();
    let cost = cfg.cost_model();
    let mut table = Table::new(
        "Group recovery (s): time until every injected failure is cured",
        vec![
            "Scenario".into(),
            "Sequential".into(),
            "Parallel".into(),
            "Speedup".into(),
            "Analytic seq".into(),
            "Analytic par".into(),
        ],
    );
    let scenarios: Vec<(String, TreeVariant, CorrelatedKind)> = vec![
        (
            "II: rtu + ses simultaneous".into(),
            TreeVariant::II,
            CorrelatedKind::Pair(names::RTU, names::SES),
        ),
        (
            "III: fedr + pbcom simultaneous".into(),
            TreeVariant::III,
            CorrelatedKind::Pair(names::FEDR, names::PBCOM),
        ),
        (
            "IV: rtu + fedr simultaneous".into(),
            TreeVariant::IV,
            CorrelatedKind::Pair(names::RTU, names::FEDR),
        ),
        (
            "IV: fedr, then joint pbcom (merge)".into(),
            TreeVariant::IV,
            CorrelatedKind::FedrThenJointPbcom,
        ),
        (
            "V: rtu + ses simultaneous".into(),
            TreeVariant::V,
            CorrelatedKind::Pair(names::RTU, names::SES),
        ),
        (
            "V: fedr, then joint pbcom (merge)".into(),
            TreeVariant::V,
            CorrelatedKind::FedrThenJointPbcom,
        ),
    ];
    let trials = run.trials.clamp(3, 20);
    let run = RunConfig { trials, ..run };
    for (label, variant, kind) in scenarios {
        let serial = measure_correlated(variant, kind, true, run);
        let parallel = measure_correlated(variant, kind, false, run);
        let tree = variant
            .tree()
            .unwrap_or_else(|e| panic!("{}: {e:?}", "paper tree builds"));
        let modes = kind.modes();
        let a_seq = expected_serial_group_recovery_s(&tree, &modes, &cost)
            .unwrap_or_else(|e| panic!("{}: {e:?}", "valid modes"));
        let a_par = expected_parallel_group_recovery_s(&tree, &modes, &cost)
            .unwrap_or_else(|e| panic!("{}: {e:?}", "valid modes"));
        table.push_row(vec![
            label.clone(),
            secs(serial.mean),
            secs(parallel.mean),
            format!("{:.2}x", serial.mean / parallel.mean),
            secs(a_seq),
            secs(a_par),
        ]);
        exp.observations
            .push((format!("{label} (seq vs par)"), serial.mean, parallel.mean));
    }
    exp.blocks.push(
        "The parallel scheduler plans one antichain of episodes per FD sweep:\n\
         independent subtrees reboot concurrently (group recovery tracks the\n\
         slowest member instead of the sum) and overlapping suspicions merge\n\
         into a single promoted episode instead of re-killing each other.\n"
            .to_string(),
    );
    exp.blocks.push(
        "The analytic sequential column is a lower bound that ignores\n\
         cross-cell boot dependencies: when fedr and pbcom fail together,\n\
         the sequential baseline restarts fedr first, fedr's boot wedges on\n\
         the still-dead pbcom (whose own recovery is deferred behind the\n\
         open episode), and only the restart deadline breaks the deadlock by\n\
         escalating to the joint [fedr, pbcom] cell. The parallel plan never\n\
         creates that wait-for cycle — both cells reboot at once.\n"
            .to_string(),
    );
    exp.tables.push(table);
    exp
}

/// **Table 1** — observed per-component MTTFs.
///
/// The paper's Table 1 is operator-estimated; we inject synthetic failure
/// processes with those MTTFs and verify the empirical means match. This
/// validates the fault generator every other experiment relies on.
pub fn table1(run: RunConfig) -> Experiment {
    let mut exp = Experiment::new("table1", "Observed per-component MTTFs");
    let cfg = StationConfig::paper();
    let model = cfg.unsplit_failure_model();
    let mut table = Table::new(
        "Table 1: per-component MTTF (seconds)",
        vec![
            "Component".into(),
            "Paper MTTF".into(),
            "Configured".into(),
            "Empirical mean (n=5000)".into(),
        ],
    );
    let paper: &[(&str, f64, &str)] = &[
        (names::MBUS, 730.0 * 3600.0, "1 month"),
        (names::FEDRCOM, 600.0, "10 min"),
        (names::SES, 5.0 * 3600.0, "5 hr"),
        (names::STR, 5.0 * 3600.0, "5 hr"),
        (names::RTU, 5.0 * 3600.0, "5 hr"),
    ];
    let mut rng = SimRng::new(run.seed);
    for (comp, paper_mttf, paper_str) in paper {
        let configured = model
            .component_mttf_s(comp)
            .unwrap_or_else(|| panic!("mode exists"));
        let dist = Dist::exponential(configured);
        let n = 5000;
        let mean = (0..n).map(|_| dist.sample_secs(&mut rng)).sum::<f64>() / n as f64;
        table.push_row(vec![
            comp.to_string(),
            format!("{paper_str} ({paper_mttf:.0}s)"),
            format!("{configured:.0}s"),
            format!("{mean:.0}s"),
        ]);
        exp.observations
            .push((format!("mttf:{comp}"), *paper_mttf, mean));
    }
    exp.tables.push(table);
    exp
}

/// **Table 2** — recovery time under trees I and II (100 trials per cell).
pub fn table2(run: RunConfig) -> Experiment {
    let mut exp = Experiment::new(
        "table2",
        "Tree II recovery: detection + recovery time per failed component",
    );
    let components = [
        names::MBUS,
        names::SES,
        names::STR,
        names::RTU,
        names::FEDRCOM,
    ];
    let paper_i = [24.75, 24.75, 24.75, 24.75, 24.75];
    let paper_ii = [5.73, 9.50, 9.76, 5.59, 20.93];

    let mut table = Table::new(
        "Table 2: recovery time (seconds), trees I and II",
        vec![
            "Failed node".into(),
            "MTTR tree I".into(),
            "MTTR tree II".into(),
            "CoV (II)".into(),
        ],
    );
    // Each component under tree I, then under tree II.
    let cells: Vec<Trial> = components
        .iter()
        .flat_map(|&component| {
            [TreeVariant::I, TreeVariant::II]
                .map(|variant| cell(variant, OracleKind::Perfect, component, false))
        })
        .collect();
    let samples = measure_cells(&cells, run);
    let per_component = samples.chunks(2 * run.trials);
    for (idx, (comp, both_trees)) in components.iter().zip(per_component).enumerate() {
        let (samples_i, samples_ii) = both_trees.split_at(run.trials);
        let s_i = Summary::of(samples_i);
        let s_ii = Summary::of(samples_ii);
        table.push_row(vec![
            comp.to_string(),
            versus(paper_i[idx], s_i.mean),
            versus(paper_ii[idx], s_ii.mean),
            format!("{:.3}", s_ii.cov),
        ]);
        exp.observations
            .push((format!("treeI:{comp}"), paper_i[idx], s_i.mean));
        exp.observations
            .push((format!("treeII:{comp}"), paper_ii[idx], s_ii.mean));
        // The §3.2 small-CoV claim, made visible for one representative cell.
        if *comp == names::SES {
            let mut hist = rr_sim::Histogram::new(s_ii.min - 0.25, s_ii.max + 0.25, 10);
            for &x in samples_ii {
                hist.add(x);
            }
            exp.blocks.push(format!(
                "Distribution of ses recovery times under tree II (n={}, cov={:.3}):\n{}",
                s_ii.count,
                s_ii.cov,
                hist.render(40)
            ));
        }
    }
    exp.tables.push(table);
    exp
}

/// The Table 4 row specification: which tree, which oracle, and the paper's
/// numbers per column.
struct Table4Row {
    variant: TreeVariant,
    oracle: OracleKind,
    label: &'static str,
    /// (component, paper value, use the correlated pbcom injection).
    cells: Vec<(&'static str, f64, bool)>,
}

fn table4_rows() -> Vec<Table4Row> {
    use TreeVariant::*;
    vec![
        Table4Row {
            variant: I,
            oracle: OracleKind::Perfect,
            label: "I / perfect",
            cells: vec![
                (names::MBUS, 24.75, false),
                (names::SES, 24.75, false),
                (names::STR, 24.75, false),
                (names::RTU, 24.75, false),
                (names::FEDRCOM, 24.75, false),
            ],
        },
        Table4Row {
            variant: II,
            oracle: OracleKind::Perfect,
            label: "II / perfect",
            cells: vec![
                (names::MBUS, 5.73, false),
                (names::SES, 9.50, false),
                (names::STR, 9.76, false),
                (names::RTU, 5.59, false),
                (names::FEDRCOM, 20.93, false),
            ],
        },
        Table4Row {
            variant: III,
            oracle: OracleKind::Perfect,
            label: "III / perfect",
            cells: vec![
                (names::MBUS, 5.73, false),
                (names::SES, 9.50, false),
                (names::STR, 9.76, false),
                (names::RTU, 5.59, false),
                (names::FEDR, 5.76, false),
                (names::PBCOM, 21.24, false),
            ],
        },
        Table4Row {
            variant: IV,
            oracle: OracleKind::Perfect,
            label: "IV / perfect",
            cells: vec![
                (names::MBUS, 5.73, false),
                (names::SES, 6.25, false),
                (names::STR, 6.11, false),
                (names::RTU, 5.59, false),
                (names::FEDR, 5.76, false),
                (names::PBCOM, 21.24, false),
            ],
        },
        Table4Row {
            variant: IV,
            oracle: OracleKind::Faulty(0.3),
            label: "IV / faulty",
            cells: vec![
                (names::MBUS, 5.73, false),
                (names::SES, 6.25, false),
                (names::STR, 6.11, false),
                (names::RTU, 5.59, false),
                (names::FEDR, 5.76, false),
                (names::PBCOM, 29.19, true),
            ],
        },
        Table4Row {
            variant: V,
            oracle: OracleKind::Faulty(0.3),
            label: "V / faulty",
            cells: vec![
                (names::MBUS, 5.73, false),
                (names::SES, 6.25, false),
                (names::STR, 6.11, false),
                (names::RTU, 5.59, false),
                (names::FEDR, 5.76, false),
                (names::PBCOM, 21.63, true),
            ],
        },
    ]
}

/// **Table 4** — overall MTTRs: trees I–V × failed component × oracle.
/// Includes the §4.2 (fedr/pbcom split), §4.3 (ses/str consolidation) and
/// §4.4 (node promotion under a faulty oracle) measurements.
pub fn table4(run: RunConfig) -> Experiment {
    let mut exp = Experiment::new("table4", "Overall MTTRs (seconds) for trees I-V");
    let mut table = Table::new(
        "Table 4: rows are tree/oracle, columns are failed components",
        vec![
            "Tree/Oracle".into(),
            "Component".into(),
            "Recovery (s)".into(),
            "95% CI".into(),
            "Analytic".into(),
        ],
    );
    let cfg = StationConfig::paper();
    let cost = cfg.cost_model();
    let rows = table4_rows();
    let entries: Vec<_> = rows
        .iter()
        .flat_map(|row| row.cells.iter().map(move |entry| (row, entry)))
        .collect();
    let cells: Vec<Trial> = entries
        .iter()
        .map(|&(row, &(component, _, correlated))| {
            cell(row.variant, row.oracle, component, correlated)
        })
        .collect();
    let samples = measure_cells(&cells, run);
    for ((row, (comp, paper, correlated)), samples) in
        entries.into_iter().zip(samples.chunks(run.trials))
    {
        let tree = row
            .variant
            .tree()
            .unwrap_or_else(|e| panic!("{}: {e:?}", "paper tree builds"));
        let s = Summary::of(samples);
        // Analytic cross-check.
        let mode = if *correlated {
            mode(FailureMode::correlated(
                "joint",
                *comp,
                [names::FEDR, names::PBCOM],
                1.0,
            ))
        } else {
            mode(FailureMode::solo("solo", *comp, 1.0))
        };
        let quality = match row.oracle {
            OracleKind::Perfect | OracleKind::Learning => OracleQuality::Perfect,
            OracleKind::Faulty(p) => OracleQuality::Faulty { undershoot: p },
        };
        let analytic = expected_mode_recovery_s(&tree, &mode, &cost, quality)
            .unwrap_or_else(|e| panic!("{}: {e:?}", "mode valid"));
        table.push_row(vec![
            row.label.to_string(),
            comp.to_string(),
            versus(*paper, s.mean),
            format!("±{:.2}", s.ci95),
            secs(analytic),
        ]);
        exp.observations
            .push((format!("{}:{comp}", row.label), *paper, s.mean));
    }
    exp.tables.push(table);
    exp
}

/// **Table 3 + Figures 2–6** — the tree evolution: renders every tree,
/// checks the structural claims of Table 3 programmatically.
pub fn figures(_run: RunConfig) -> Experiment {
    let mut exp = Experiment::new(
        "figures",
        "Restart trees I-V (Figures 3-6) and the Figure 2 example",
    );

    // Figure 2's example tree.
    let fig2 = rr_core::TreeSpec::cell("R_ABC")
        .with_child(rr_core::TreeSpec::cell("R_A").with_component("A"))
        .with_child(
            rr_core::TreeSpec::cell("R_BC")
                .with_child(rr_core::TreeSpec::cell("R_B").with_component("B"))
                .with_child(rr_core::TreeSpec::cell("R_C").with_component("C")),
        )
        .build()
        .unwrap_or_else(|e| panic!("{}: {e:?}", "figure 2 tree"));
    exp.blocks.push(format!(
        "Figure 2 (example restart tree):\n{}",
        render_tree(&fig2)
    ));
    exp.observations.push((
        "fig2:restart-groups".into(),
        5.0,
        fig2.groups().len() as f64,
    ));

    let mut table = Table::new(
        "Table 3: structural properties of trees I-V",
        vec![
            "Tree".into(),
            "Cells".into(),
            "Groups".into(),
            "pbcom solo button".into(),
            "[fedr,pbcom] button".into(),
            "[ses,str] cell".into(),
        ],
    );
    for variant in TreeVariant::ALL {
        let tree = variant
            .tree()
            .unwrap_or_else(|e| panic!("{}: {e:?}", "paper tree builds"));
        tree.validate()
            .unwrap_or_else(|e| panic!("{}: {e:?}", "paper trees are valid"));
        exp.blocks.push(format!(
            "Tree {variant} (Figure {}):\n{}",
            match variant {
                TreeVariant::I => "3 left",
                TreeVariant::II => "3 right",
                TreeVariant::III => "4",
                TreeVariant::IV => "5",
                TreeVariant::V => "6",
            },
            render_tree(&tree)
        ));
        let has = |set: &[&str]| rr_core::optimize::find_group(&tree, set).is_some();
        table.push_row(vec![
            variant.to_string(),
            tree.cell_count().to_string(),
            tree.groups().len().to_string(),
            if variant.is_split() {
                has(&[names::PBCOM]).to_string()
            } else {
                "n/a".into()
            },
            if variant.is_split() {
                has(&[names::FEDR, names::PBCOM]).to_string()
            } else {
                "n/a".into()
            },
            if variant.is_split() {
                has(&[names::SES, names::STR]).to_string()
            } else {
                "n/a".into()
            },
        ]);
    }
    exp.tables.push(table);

    // Table 3's "useful when…" column, evaluated mechanically: the advisor
    // inspects each tree against the Mercury failure model and recommends
    // exactly the paper's next transformation.
    let cfg = StationConfig::paper();
    let cost = cfg.cost_model();
    let model = cfg.advisory_failure_model();
    let mut advisor_table = Table::new(
        "Table 3 (advisor view): what each tree still needs",
        vec!["Tree".into(), "Advisor recommendations".into()],
    );
    for variant in [TreeVariant::III, TreeVariant::IV, TreeVariant::V] {
        let advice = rr_core::advisor::advise(
            &variant
                .tree()
                .unwrap_or_else(|e| panic!("{}: {e:?}", "paper tree builds")),
            &model,
            &cost,
            rr_core::advisor::OracleAssumption::MayErr,
        );
        let text = if advice.is_empty() {
            "none — every Table 3 condition is satisfied".to_string()
        } else {
            advice
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        };
        advisor_table.push_row(vec![variant.to_string(), text]);
        exp.observations.push((
            format!("advisor:tree-{variant}-recommendations"),
            match variant {
                TreeVariant::V => 0.0,
                _ => 1.0,
            },
            f64::from(u8::from(!advice.is_empty())),
        ));
    }
    exp.tables.push(advisor_table);
    exp
}

/// **Headline** — "recovery time improved by a factor of four": the
/// failure-rate-weighted expected MTTR per tree, with availability.
pub fn headline(run: RunConfig) -> Experiment {
    let mut exp = Experiment::new(
        "headline",
        "Expected system MTTR and availability per tree (factor-of-four claim)",
    );
    let cfg = StationConfig::paper();
    let cost = cfg.cost_model();
    let mut table = Table::new(
        "Expected MTTR (failure-rate weighted) and availability",
        vec![
            "Tree".into(),
            "Oracle".into(),
            "Expected MTTR (s)".into(),
            "Availability".into(),
            "Downtime / month".into(),
        ],
    );
    let mut tree_i_mttr = None;
    let mut tree_v_mttr = None;
    for (variant, quality, label) in [
        (TreeVariant::I, OracleQuality::Perfect, "perfect"),
        (TreeVariant::II, OracleQuality::Perfect, "perfect"),
        (TreeVariant::III, OracleQuality::Perfect, "perfect"),
        (TreeVariant::IV, OracleQuality::Perfect, "perfect"),
        (
            TreeVariant::IV,
            OracleQuality::Faulty { undershoot: 0.3 },
            "faulty(0.3)",
        ),
        (
            TreeVariant::V,
            OracleQuality::Faulty { undershoot: 0.3 },
            "faulty(0.3)",
        ),
    ] {
        let tree = variant
            .tree()
            .unwrap_or_else(|e| panic!("{}: {e:?}", "paper tree builds"));
        let model = if variant.is_split() {
            cfg.paper_failure_model()
        } else {
            cfg.unsplit_failure_model()
        };
        let mttr = expected_system_mttr_s(&tree, &model, &cost, quality)
            .unwrap_or_else(|e| panic!("{}: {e:?}", "valid model"));
        let mttf = model
            .system_mttf_s()
            .unwrap_or_else(|e| panic!("{}: {e:?}", "non-empty model"));
        let avail =
            availability(mttf, mttr).unwrap_or_else(|e| panic!("{}: {e:?}", "positive MTTF/MTTR"));
        let downtime_month = (1.0 - avail) * 30.44 * 86_400.0;
        table.push_row(vec![
            variant.to_string(),
            label.to_string(),
            secs(mttr),
            format!("{avail:.6}"),
            format!("{downtime_month:.0}s"),
        ]);
        if variant == TreeVariant::I {
            tree_i_mttr = Some(mttr);
        }
        if variant == TreeVariant::V {
            tree_v_mttr = Some(mttr);
        }
    }
    let (i, v) = (
        tree_i_mttr.unwrap_or_else(|| panic!("tree I")),
        tree_v_mttr.unwrap_or_else(|| panic!("tree V")),
    );
    exp.blocks.push(format!(
        "Recovery-time improvement, tree I → tree V: {:.2}x (paper claims ~4x)\n",
        i / v
    ));
    // A figure-style view of the same result.
    let chart_rows: Vec<(String, f64)> = table
        .rows()
        .iter()
        .map(|r| {
            (
                format!("tree {} ({})", r[0], r[1]),
                r[2].parse::<f64>().unwrap_or(0.0),
            )
        })
        .collect();
    exp.blocks.push(format!(
        "Expected system MTTR (seconds):\n{}",
        crate::tables::bar_chart(&chart_rows, 48)
    ));
    exp.observations
        .push(("improvement-factor".into(), 4.0, i / v));
    let _ = run;
    exp.tables.push(table);
    exp
}

/// **§5.2** — not all downtime is the same: telemetry frames lost when a
/// failure strikes during a satellite pass, tree I vs tree V.
pub fn pass_data_loss(run: RunConfig) -> Experiment {
    let mut exp = Experiment::new(
        "pass",
        "Science-data loss during a pass (§5.2): tree I vs tree V",
    );
    let mut table = Table::new(
        "Telemetry frames captured during one pass with one rtu failure mid-pass",
        vec![
            "Tree".into(),
            "Frames (no failure)".into(),
            "Frames (failure)".into(),
            "Frames lost".into(),
        ],
    );
    let trials = run.trials.clamp(1, 10); // passes are long; a few suffice
    for variant in [TreeVariant::I, TreeVariant::V] {
        // Each trial is a pair of passes on one seed: clean, then faulty.
        let frames = par_map(2 * trials, |pass| {
            let (seed, inject) = (run.seed + (pass / 2) as u64, pass % 2 == 1);
            let mut cfg = StationConfig::paper();
            let plan = PassScenario::plan(&cfg, "opal", 120.0, 30.0, 20.0);
            cfg.pass_epoch_offset_s = plan.epoch_offset_s;
            Trial::new(cfg, variant, seed).value(pass, |trial| {
                let mut station = trial.start()?;
                let start = station.now();
                plan.start_tracking(&mut station);
                if inject {
                    // Fail rtu two minutes into the pass.
                    let until = plan.rise_sim_time() + SimDuration::from_secs(120);
                    station.run_for(until.saturating_since(station.now()));
                    station.inject_kill(names::RTU)?;
                }
                let end = plan.set_sim_time() + SimDuration::from_secs(10);
                station.run_for(end.saturating_since(station.now()));
                Ok(telemetry_frames(station.trace(), start, station.now()) as f64)
            })
        });
        let mean_from = |first: usize| {
            let passes = frames.iter().skip(first).step_by(2);
            passes.fold(0.0, |total, pass| total + pass) / trials as f64
        };
        let (clean, faulty) = (mean_from(0), mean_from(1));
        table.push_row(vec![
            variant.to_string(),
            format!("{clean:.0}"),
            format!("{faulty:.0}"),
            format!("{:.0}", clean - faulty),
        ]);
        exp.observations
            .push((format!("frames-lost:{variant}"), 0.0, clean - faulty));
    }
    exp.blocks.push(
        "A short MTTR keeps the loss to a few frames; a full reboot (tree I)\n\
         loses tens of seconds of science data and risks dropping the whole\n\
         pass if the link breaks (§5.2).\n"
            .to_string(),
    );
    exp.tables.push(table);
    exp
}

/// **Ablation** — oracle error-rate sweep: where does tree V overtake
/// tree IV? (The paper fixes p = 0.3 "arbitrarily".)
pub fn ablation_oracle_sweep(run: RunConfig) -> Experiment {
    let mut exp = Experiment::new(
        "ablation-oracle",
        "Oracle error-rate sweep: pbcom-joint recovery, tree IV vs V",
    );
    let cfg = StationConfig::paper();
    let cost = cfg.cost_model();
    let mode = mode(FailureMode::correlated(
        "joint",
        names::PBCOM,
        [names::FEDR, names::PBCOM],
        1.0,
    ));
    let mut table = Table::new(
        "Expected recovery (s) for the correlated pbcom failure",
        vec![
            "Error rate".into(),
            "Tree IV".into(),
            "Tree V".into(),
            "V wins".into(),
        ],
    );
    let tree_iv = TreeVariant::IV
        .tree()
        .unwrap_or_else(|e| panic!("{}: {e:?}", "paper tree builds"));
    let tree_v = TreeVariant::V
        .tree()
        .unwrap_or_else(|e| panic!("{}: {e:?}", "paper tree builds"));
    // The 30%-mixture has high per-trial variance; use the full trial budget
    // for the simulated spot check.
    let trials = run.trials.max(5);
    for p in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let iv = expected_mode_recovery_s(
            &tree_iv,
            &mode,
            &cost,
            OracleQuality::Faulty { undershoot: p },
        )
        .unwrap_or_else(|e| panic!("{}: {e:?}", "valid"));
        let v = expected_mode_recovery_s(
            &tree_v,
            &mode,
            &cost,
            OracleQuality::Faulty { undershoot: p },
        )
        .unwrap_or_else(|e| panic!("{}: {e:?}", "valid"));
        // Spot-check one simulated point per rate.
        if (p - 0.3).abs() < 1e-9 {
            let sim = measure_cell(
                TreeVariant::IV,
                OracleKind::Faulty(p),
                names::PBCOM,
                true,
                RunConfig { trials, ..run },
            );
            exp.observations
                .push(("sweep:iv@0.3 (sim vs analytic)".into(), iv, sim.mean));
        }
        table.push_row(vec![
            format!("{p:.1}"),
            secs(iv),
            secs(v),
            (v < iv || (v - iv).abs() < 1e-9).to_string(),
        ]);
    }
    exp.blocks.push(
        "Tree V's promotion is free insurance: it matches tree IV at p=0 and\n\
         dominates for every positive error rate.\n"
            .to_string(),
    );
    exp.tables.push(table);
    exp
}

/// **Ablation** — detection-period sweep: the paper picks 1 s "to minimize
/// detection time without overloading mbus".
pub fn ablation_ping_period(run: RunConfig) -> Experiment {
    let mut exp = Experiment::new(
        "ablation-ping",
        "FD ping-period sweep: detection latency vs bus load",
    );
    let mut table = Table::new(
        "rtu recovery under tree II as the ping period varies",
        vec![
            "Ping period (s)".into(),
            "Mean recovery (s)".into(),
            "Pings/minute on mbus".into(),
        ],
    );
    let trials = run.trials.clamp(5, 30);
    for period in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let samples = par_map(trials, |i| {
            let seed = run.seed + 7000 + i as u64;
            let mut config = StationConfig::paper();
            config.fd.ping_period_s = period;
            config.fd.ping_timeout_s = (0.4 * period).clamp(0.1, 2.0);
            // The cure-confirmation window must scale with detection latency
            // (config validation enforces this ordering).
            config.cure_confirm_s =
                calib::POISON_CRASH_DELAY_S + config.fd.mean_detection_s() + 1.0;
            let phase = SimRng::new(seed ^ 0xA5A5).uniform(0.0, period);
            let trial = Trial {
                config,
                seed,
                phase: SimDuration::from_secs_f64(phase),
                horizon: SimDuration::from_secs(90),
                ..cell(TreeVariant::II, OracleKind::Perfect, names::RTU, false)
            };
            trial.value(i, Trial::recovery_s)
        });
        let s = Summary::of(&samples);
        let pings_per_minute = 60.0 / period * names::UNSPLIT.len() as f64;
        table.push_row(vec![
            format!("{period}"),
            secs(s.mean),
            format!("{pings_per_minute:.0}"),
        ]);
        if (period - 1.0).abs() < 1e-9 {
            exp.observations.push(("ping@1s:rtu".into(), 5.59, s.mean));
        }
    }
    exp.tables.push(table);
    exp
}

/// **Ablation** — the learning oracle (§7 future work): does it converge to
/// the minimal restart policy for the correlated pbcom failure?
fn ablation_learning(run: RunConfig) -> Experiment {
    let mut exp = Experiment::new(
        "ablation-learning",
        "Learning oracle: estimating f_ci from restart outcomes",
    );
    let mut table = Table::new(
        "Successive correlated-pbcom episodes under tree IV with a learning oracle",
        vec!["Episode".into(), "Attempts".into(), "Recovery (s)".into()],
    );
    // One long-lived station; repeated episodes teach the oracle.
    let trial = Trial {
        oracle: OracleKind::Learning,
        ..Trial::new(StationConfig::paper(), TreeVariant::IV, run.seed + 31)
    };
    let episodes = trial.value(0, |trial| {
        let mut station = trial.start()?;
        let mut episodes = Vec::new();
        for _ in 0..6 {
            let injected = station.inject_correlated_pbcom()?;
            station.run_for(SimDuration::from_secs(150));
            episodes.push(measure_recovery(station.trace(), names::PBCOM, injected)?);
            // Let the system settle (and incarnations age) between episodes.
            station.run_for(SimDuration::from_secs(60));
        }
        Ok(episodes)
    });
    for (ep, m) in episodes.iter().enumerate() {
        table.push_row(vec![
            (ep + 1).to_string(),
            m.attempts.to_string(),
            secs(m.recovery_s()),
        ]);
    }
    let first_attempts = episodes.first().map_or(0, |m| m.attempts);
    let last_attempts = episodes.last().map_or(0, |m| m.attempts);
    exp.blocks.push(format!(
        "First episode took {first_attempts} attempts; after learning, episodes take \
         {last_attempts} (the oracle now recommends the joint cell directly).\n"
    ));
    exp.observations.push((
        "learning:final-attempts".into(),
        1.0,
        f64::from(last_attempts),
    ));
    exp.tables.push(table);
    exp
}

/// **Ablation** — the automatic tree optimizer (§7 future work): re-derives
/// the paper's trees from the trivial tree.
pub fn ablation_optimizer(_run: RunConfig) -> Experiment {
    let mut exp = Experiment::new(
        "ablation-optimizer",
        "Automatic restart-tree search re-derives the hand-designed trees",
    );
    let cfg = StationConfig::paper();
    let cost = cfg.cost_model();
    let model = cfg.paper_failure_model();
    let start = rr_core::TreeSpec::cell("mercury")
        .with_components(names::SPLIT)
        .build()
        .unwrap_or_else(|e| panic!("{}: {e:?}", "tree I over split components"));

    for (quality, label) in [
        (OracleQuality::Perfect, "perfect oracle"),
        (
            OracleQuality::Faulty { undershoot: 0.3 },
            "faulty oracle (p=0.3)",
        ),
    ] {
        let opt = optimize_tree(&start, &model, &cost, quality, OptimizerConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e:?}", "optimizable"));
        let derivation: Vec<String> = opt.derivation.iter().map(|m| format!("  - {m}")).collect();
        exp.blocks.push(format!(
            "Optimized tree under {label} (expected MTTR {:.2}s):\n{}\nDerivation:\n{}\n",
            opt.expected_mttr_s,
            render_tree(&opt.tree),
            derivation.join("\n"),
        ));
        exp.observations.push((
            format!("optimizer:{label}"),
            1.0, // the [ses,str] consolidation must be found in either case
            f64::from(u8::from(
                rr_core::optimize::find_group(&opt.tree, &[names::SES, names::STR]).is_some(),
            )),
        ));
    }
    exp
}

/// **Endurance** — hours of operation under the full Table 1 failure mix:
/// measured availability per tree, validating the analytic
/// `MTTF/(MTTF+MTTR)` model against the live system (the availability claim
/// behind the paper's headline).
pub fn endurance(run: RunConfig) -> Experiment {
    use mercury::measure::system_downtime;

    let mut exp = Experiment::new(
        "endurance",
        "Measured availability over 6 simulated hours under the Table 1 failure mix",
    );
    let cfg = StationConfig::paper();
    let cost = cfg.cost_model();
    let horizon_s = 6.0 * 3600.0;
    let trials = run.trials.clamp(1, 3);

    let mut table = Table::new(
        "Availability: simulated vs analytic",
        vec![
            "Tree".into(),
            "Failures injected".into(),
            "Downtime (s)".into(),
            "Availability (sim)".into(),
            "Availability (analytic)".into(),
        ],
    );

    let variants = [TreeVariant::I, TreeVariant::II, TreeVariant::V];
    let model_of = |variant: TreeVariant| {
        if variant.is_split() {
            cfg.paper_failure_model()
        } else {
            cfg.unsplit_failure_model()
        }
    };
    // Tree × trial is one job list: a trial is six simulated hours, and three
    // of them would not fill the cores. Each yields (failures injected,
    // downtime in seconds, availability).
    let horizon = SimDuration::from_secs_f64(horizon_s);
    let runs = par_map(variants.len() * trials, |job| {
        let (variant, t) = (variants[job / trials], job % trials);
        let seed = run.seed + 100 + t as u64;
        // The failure schedule from the model, times from the start. (The
        // joint pbcom mode needs the poison hook; its rate is small and it is
        // exercised by table4, so endurance injects it as a plain kill.) A
        // fault on a component already down is skipped.
        let mut rng = SimRng::new(seed ^ 0xFA17);
        let mut script = FaultScript::new();
        let end = SimTime::from_secs_f64(horizon_s);
        for mode in model_of(variant).modes() {
            let d = Dist::exponential(mode.mttf_s());
            script.merge(FaultScript::poisson_like(&mode.trigger, &d, end, &mut rng));
        }
        let trial = Trial {
            script,
            // Let the final episode drain.
            horizon: horizon + SimDuration::from_secs(60),
            ..Trial::new(cfg.clone(), variant, seed)
        };
        trial.value(t, |trial| {
            let outcome = trial.run()?;
            let (station, start) = (&outcome.station, outcome.start);
            let (down, avail) = system_downtime(
                station.trace(),
                station.components(),
                start,
                start + horizon,
            );
            Ok((trial.script.faults().len(), down.as_secs_f64(), avail))
        })
    });

    for (variant, runs) in variants.into_iter().zip(runs.chunks(trials)) {
        let model = model_of(variant);
        let mut injected_total = 0usize;
        let mut downtime_total = 0.0;
        let mut avail_total = 0.0;
        for &(injected, downtime_s, avail) in runs {
            injected_total += injected;
            downtime_total += downtime_s;
            avail_total += avail;
        }
        let analytic = expected_availability_for(&model, &cost, variant).unwrap_or(f64::NAN);
        let sim_avail = avail_total / trials as f64;
        table.push_row(vec![
            variant.to_string(),
            (injected_total / trials).to_string(),
            format!("{:.1}", downtime_total / trials as f64),
            format!("{sim_avail:.6}"),
            format!("{analytic:.6}"),
        ]);
        exp.observations
            .push((format!("availability:{variant}"), analytic, sim_avail));
    }
    exp.blocks.push(
        "Partial restarts convert most of tree I's downtime into uptime; the\n\
         analytic MTTF/(MTTF+MTTR) model tracks the measured availability.\n"
            .to_string(),
    );
    exp.tables.push(table);
    exp
}

fn expected_availability_for(
    model: &rr_core::model::FailureModel,
    cost: &rr_core::SimpleCostModel,
    variant: TreeVariant,
) -> Option<f64> {
    use rr_core::analysis::expected_availability;
    expected_availability(
        &variant
            .tree()
            .unwrap_or_else(|e| panic!("{}: {e:?}", "paper tree builds")),
        model,
        cost,
        OracleQuality::Perfect,
    )
    .ok()
}

/// **Ablation** — proactive rejuvenation (§3/§7): beacon-driven preventive
/// restarts pre-empt pbcom's aging failures.
fn ablation_rejuvenation(run: RunConfig) -> Experiment {
    let mut exp = Experiment::new(
        "ablation-rejuvenation",
        "Beacon-driven rejuvenation vs aging failures",
    );
    let mut table = Table::new(
        "2 hours of frequent fedr failures (which age pbcom)",
        vec![
            "Rejuvenation".into(),
            "Aging crashes".into(),
            "Planned rejuvenations".into(),
        ],
    );
    for (threshold, label) in [(None, "off"), (Some(0.5), "aging >= 0.5")] {
        let mut cfg = StationConfig::paper();
        cfg.rejuvenation_aging_threshold = threshold;
        // fedr crashes with a 10-minute MTTF for two hours; a crash due while
        // fedr is already down is skipped.
        let mut rng = SimRng::new(run.seed ^ 0x0DD);
        let two_hours = SimTime::from_secs(2 * 3600);
        let fedr = Dist::exponential(600.0);
        let script = FaultScript::poisson_like(names::FEDR, &fedr, two_hours, &mut rng);
        let trial = Trial {
            horizon: settle_after(&script, SimDuration::from_secs(120)),
            script,
            ..Trial::new(cfg, TreeVariant::III, run.seed + 55)
        };
        let (aging, rejuv) = trial.value(0, |trial| {
            let outcome = trial.run()?;
            let pbcom = intern(names::PBCOM);
            let count = |mark| outcome.station.trace().times_of(mark).count();
            Ok((
                count(Mark::AgingCrash(pbcom)),
                count(Mark::Rejuvenate(pbcom)),
            ))
        });
        table.push_row(vec![
            label.to_string(),
            aging.to_string(),
            rejuv.to_string(),
        ]);
        exp.observations.push((
            format!("aging-crashes:{label}"),
            if threshold.is_none() { 1.0 } else { 0.0 },
            aging as f64,
        ));
    }
    exp.blocks.push(
        "With rejuvenation on, REC restarts pbcom at a moment of its choosing\n\
         (planned, cheap downtime) before the aging bug fires.\n"
            .to_string(),
    );
    exp.tables.push(table);
    exp
}

/// Every experiment, in report order: the name `repro` takes on the command
/// line (also the experiment's [`Experiment::id`] and its `## name` section
/// in EXPERIMENTS.md) and the function that runs it. [`all`], `repro`'s
/// dispatch and its usage line are all derived from this one table.
#[allow(clippy::type_complexity)]
pub const EXPERIMENTS: &[(&str, fn(RunConfig) -> Experiment)] = &[
    ("table1", table1),
    ("table2", table2),
    ("figures", figures),
    ("table4", table4),
    ("correlated", correlated_faults),
    ("headline", headline),
    ("endurance", endurance),
    ("pass", pass_data_loss),
    ("ablation-oracle", ablation_oracle_sweep),
    ("ablation-ping", ablation_ping_period),
    ("ablation-learning", ablation_learning),
    ("ablation-optimizer", ablation_optimizer),
    ("ablation-rejuvenation", ablation_rejuvenation),
    ("chaos", crate::chaos::experiment),
    ("overload", crate::overload::experiment),
    ("checkpoint", crate::checkpoint::experiment),
    ("por", crate::flow::experiment),
    ("abs", crate::abs::experiment),
];

/// Runs every experiment in [`EXPERIMENTS`].
pub fn all(run: RunConfig) -> Vec<Experiment> {
    EXPERIMENTS.iter().map(|(_, f)| f(run)).collect()
}

#[cfg(test)]
mod tests {
    use std::panic::catch_unwind;

    use super::*;
    use crate::par::with_workers;

    const TINY: RunConfig = RunConfig { trials: 3, seed: 7 };

    /// The flattened cell × trial job list.
    #[test]
    fn table4_renders_the_same_on_one_worker_and_on_three() {
        let inline = with_workers(1, || table4(TINY)).render();
        assert_eq!(with_workers(3, || table4(TINY)).render(), inline);
    }

    /// The folds over per-trial tuples, three trees by three trials.
    #[test]
    fn endurance_renders_the_same_on_one_worker_and_on_three() {
        let inline = with_workers(1, || endurance(TINY)).render();
        assert_eq!(with_workers(3, || endurance(TINY)).render(), inline);
    }

    /// A trial that cannot be measured panics with the reason, and the
    /// benchmark's seed search (`benchmark/`, `measurable_seed`) steps past
    /// such seeds by catching exactly that panic: it must reach the caller
    /// with its message whether the trial ran inline or on a worker.
    #[test]
    fn an_unmeasurable_trial_panics_on_the_caller_with_its_reason() {
        for (workers, trials) in [(1, 1), (2, 4)] {
            let run = RunConfig { trials, seed: 33 };
            let caught = catch_unwind(|| {
                with_workers(workers, || {
                    measure_cell_samples(TreeVariant::I, OracleKind::Perfect, "mbus", false, run)
                })
            });
            let payload = caught.expect_err("seed 33 kills mbus inside the FD ping round");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(
                message.contains("trial 0") && message.contains("no restart issued for mbus"),
                "{workers} workers: {message}"
            );
        }
    }
}
