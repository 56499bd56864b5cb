//! Chaos campaigns: randomized fault schedules under degraded communication.
//!
//! A campaign drives one station through a sequence of injected faults —
//! crashes, hangs, and zombies, optionally with loss on every link — and then
//! audits the trace against the robustness invariants the hardened
//! configuration promises:
//!
//! 1. **Every injected failure is cured or explicitly quarantined.** No
//!    fault may linger undetected or leave an episode open forever.
//! 2. **Restarts stay within budget.** No component accumulates more restart
//!    episodes than `max_restarts_per_window` allows.
//! 3. **No unattributed recovery action.** Every recovery-action mark must
//!    belong to a component that was injected or that genuinely crashed on
//!    its own — anything else is a false positive of the failure detector.
//!    Episodes the parallel scheduler merged into an overlapping one are
//!    attributed to their originating suspicions, not dropped. Which marks
//!    are actions and which certify a failure is `is_action` and
//!    `certifies_failure`; DESIGN.md §10 tabulates the marks.
//!
//! The paper's §2.2 failure detector trusts a single missed ping; under
//! degraded links that convicts innocent components. The campaign is the
//! regression harness for the hardened K-of-N suspicion, the beacon-staleness
//! zombie defense, restart backoff, and quarantine.

use std::collections::{BTreeMap, BTreeSet};

use mercury::config::{names, StationConfig};
use mercury::measure::measure_recovery;
use mercury::station::{Station, StationError, TreeVariant};
use rr_sim::{
    intern, EpisodeStage, FaultKind, LinkQuality, Mark, Registry, SimDuration, SimRng, SimTime,
    Trace,
};

use crate::tables::Table;
use crate::trial::Trial;

/// `true` for a recovery action that needs attribution: a detection, a
/// stale beacon, a restart, a give-up or a quarantine.
fn is_action(mark: &Mark) -> bool {
    matches!(
        mark,
        Mark::Stage(EpisodeStage::Suspected | EpisodeStage::Quarantined, _)
            | Mark::Stale(_)
            | Mark::Restart { .. }
            | Mark::GiveUp { .. }
    )
}

/// `true` for a mark certifying a *genuine* failure of its component: an
/// injection, or a crash the component itself reports.
fn certifies_failure(mark: &Mark) -> bool {
    matches!(
        mark,
        Mark::Stage(EpisodeStage::Injected, _)
            | Mark::InducedCrash(_)
            | Mark::AgingCrash(_)
            | Mark::PoisonCrash(_)
    )
}

/// The fault kinds a campaign draws from, in the order it rotates through
/// them.
const CHAOS_KINDS: [FaultKind; 3] = [FaultKind::Crash, FaultKind::Hang, FaultKind::Zombie];

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Station configuration (defaults to [`StationConfig::hardened`]).
    pub station: StationConfig,
    /// Number of faults to inject, one at a time.
    pub faults: usize,
    /// Loss probability applied to *every* link after warm-up (0 disables).
    pub link_loss: f64,
    /// Settle time after each cure before the next injection, so induced
    /// cascades (old-peer resyncs, aging) finish inside the episode.
    pub settle_s: f64,
    /// How long an injection may take to cure or quarantine before the
    /// campaign declares invariant 1 violated.
    pub cure_deadline_s: f64,
    /// Campaign seed; fault targets and kinds are drawn deterministically.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            station: StationConfig::hardened(),
            faults: 4,
            link_loss: 0.05,
            settle_s: 60.0,
            cure_deadline_s: 400.0,
            seed: 0xC4A0_5D52,
        }
    }
}

/// One injected fault and its observed outcome.
#[derive(Debug, Clone)]
pub struct ChaosInjection {
    /// Target component.
    pub component: String,
    /// Fault kind.
    pub kind: FaultKind,
    /// Injection time.
    pub at: SimTime,
    /// Measured recovery time in seconds (`None` when the episode did not
    /// cure, e.g. because the component was quarantined).
    pub recovery_s: Option<f64>,
    /// Whether REC quarantined the component instead of curing it.
    pub quarantined: bool,
}

/// The outcome of one campaign: injections, restart counts, and violations.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The tree the campaign ran against.
    pub variant: TreeVariant,
    /// Every injected fault with its outcome.
    pub injections: Vec<ChaosInjection>,
    /// Restart episodes per failed component (from restart trace marks).
    pub restarts: BTreeMap<String, usize>,
    /// Invariant violations; empty on a clean campaign.
    pub violations: Vec<String>,
    /// The station's recovery-episode telemetry: per-component MTTR
    /// histograms, restart and oracle-decision counters, FD ping-latency
    /// stats, and the structured episode stream. Empty when the campaign's
    /// [`StationConfig`] disables telemetry.
    pub telemetry: Registry,
}

impl ChaosReport {
    /// `true` when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one chaos campaign against a fresh station on `variant`.
///
/// The station is cold-started and settled, link degradation is switched on,
/// and `cfg.faults` randomized faults are injected one at a time, each given
/// `cure_deadline_s` to cure or quarantine. The trace is then audited for the
/// module-level invariants. A station that cannot be built (an invalid
/// configuration, an rr-lint denial) runs nothing: the refusal is the
/// report's violations, not a panic deep inside the simulation.
pub fn run_campaign(variant: TreeVariant, cfg: &ChaosConfig) -> ChaosReport {
    let mut rng = SimRng::new(
        cfg.seed
            .wrapping_add((variant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let trial = Trial::new(cfg.station.clone(), variant, rng.next_u64());
    campaign(&trial, cfg, &mut rng).unwrap_or_else(|refused| ChaosReport {
        variant,
        injections: Vec::new(),
        restarts: BTreeMap::new(),
        violations: refusal(refused),
        telemetry: Registry::new(),
    })
}

/// A station error as campaign violations: each rr-lint denial as
/// `rr-lint {code} at {path}: {message}`, each violated configuration
/// constraint on its own line, anything else as its message.
fn refusal(error: StationError) -> Vec<String> {
    match error {
        StationError::Lint(diagnostics) => diagnostics
            .iter()
            .filter(|d| d.severity() == rr_lint::Severity::Deny)
            .map(|d| format!("rr-lint {} at {}: {}", d.code(), d.path, d.message))
            .collect(),
        StationError::InvalidConfig(errors) => errors
            .into_iter()
            .map(|e| format!("invalid station configuration: {e}"))
            .collect(),
        error => vec![error.to_string()],
    }
}

/// [`run_campaign`] on the trial's station, drawing targets and kinds from
/// `rng`.
fn campaign(
    trial: &Trial,
    cfg: &ChaosConfig,
    rng: &mut SimRng,
) -> Result<ChaosReport, StationError> {
    let mut station = trial.start()?;
    if cfg.link_loss > 0.0 {
        station.degrade_all_links(Some(LinkQuality::lossy(cfg.link_loss)));
    }
    let campaign_start = station.now();
    let components: Vec<String> = station.components().to_vec();

    let mut injections: Vec<ChaosInjection> = Vec::new();
    for i in 0..cfg.faults {
        let kind = CHAOS_KINDS[i % CHAOS_KINDS.len()];
        // A zombified bus still relays liveness traffic (the zombie filter
        // admits it), so the fault manifests as every *other* component's
        // beacons going stale at once — attribution of the resulting
        // restarts is ambiguous, so campaigns only zombify leaf components.
        let component = loop {
            let c = rng
                .choose(&components)
                .unwrap_or_else(|| panic!("variant has components"))
                .clone();
            if kind != FaultKind::Zombie || c != names::MBUS {
                break c;
            }
        };
        let at = station.inject(&component, kind)?;
        let deadline = at + SimDuration::from_secs_f64(cfg.cure_deadline_s);
        let comp = intern(&component);
        let (cured, quarantined) = loop {
            station.run_for(SimDuration::from_secs(5));
            let seen = |mark: Mark| station.trace().times_of(mark).any(|t| t >= at);
            if seen(Mark::Cured(comp)) {
                break (true, false);
            }
            if seen(Mark::Stage(EpisodeStage::Quarantined, comp)) {
                break (false, true);
            }
            if station.now() >= deadline {
                break (false, false);
            }
        };
        let recovery_s = if cured {
            measure_recovery(station.trace(), &component, at)
                .ok()
                .map(|m| m.recovery_s())
        } else {
            None
        };
        injections.push(ChaosInjection {
            component,
            kind,
            at,
            recovery_s,
            quarantined,
        });
        station.run_for(SimDuration::from_secs_f64(cfg.settle_s));
    }

    // Let in-flight cascades (induced peer crashes, confirmation windows)
    // finish before the audit.
    station.run_for(SimDuration::from_secs_f64(cfg.settle_s));
    let telemetry = station.telemetry();
    Ok(audit(
        trial.variant,
        cfg,
        &station,
        campaign_start,
        injections,
        telemetry,
    ))
}

/// Computes the set of components whose recovery actions are attributable to
/// a certified failure: the injected components, any that crashed on their
/// own (`certifies_failure`), and the closure of that set under two episode
/// relations, iterated to a fixpoint:
///
/// * **Group membership** — a genuine episode's restart deliberately kills
///   every cell member (the restart mark carries the full set), so those
///   members' detections are recovery side effects, not false positives.
/// * **Episode merges** — when the parallel scheduler absorbs a suspicion
///   into an overlapping episode it marks the merge, and every later action
///   of the promoted episode is keyed by the surviving owner.
///   If the absorbed origin's failure was genuine, the merged episode
///   answers that suspicion and its owner-keyed restarts are attributed to
///   it rather than counted as unattributed.
///
/// The fixpoint is needed because a member's or owner's own marks may
/// precede (in scan order) the episode that legitimizes them.
fn attributable_components(trace: &Trace, injected: &BTreeSet<String>) -> BTreeSet<String> {
    let mut genuine: BTreeSet<String> = injected.clone();
    for (_, mark) in trace.marks().filter(|(_, m)| certifies_failure(m)) {
        genuine.insert(mark.head().1.to_string());
    }
    loop {
        let mut grew = false;
        for (_, mark) in trace.marks() {
            match mark {
                Mark::Merge { from, into } if genuine.contains(from.resolve()) => {
                    grew |= genuine.insert(into.to_string());
                }
                Mark::Restart { owner, set, .. } if genuine.contains(owner.resolve()) => {
                    for member in set {
                        grew |= genuine.insert(member.to_string());
                    }
                }
                _ => {}
            }
        }
        if !grew {
            break;
        }
    }
    genuine
}

/// Audits the finished trace against the module-level invariants.
fn audit(
    variant: TreeVariant,
    cfg: &ChaosConfig,
    station: &Station,
    campaign_start: SimTime,
    injections: Vec<ChaosInjection>,
    telemetry: Registry,
) -> ChaosReport {
    let mut violations: Vec<String> = Vec::new();

    // Invariant 1: every injection cured or explicitly quarantined.
    for inj in &injections {
        if inj.recovery_s.is_none() && !inj.quarantined {
            violations.push(format!(
                "{} of {} at {} neither cured nor quarantined within {} s",
                inj.kind, inj.component, inj.at, cfg.cure_deadline_s
            ));
        }
    }

    let injected: BTreeSet<String> = injections.iter().map(|i| i.component.clone()).collect();
    let genuine = attributable_components(station.trace(), &injected);

    let mut restarts: BTreeMap<String, usize> = BTreeMap::new();
    for (at, mark) in station.trace().marks() {
        if at < campaign_start || !is_action(mark) {
            continue;
        }
        let (tag, comp) = mark.head();
        let comp = comp.resolve();
        if let Mark::Restart { .. } = mark {
            *restarts.entry(comp.to_string()).or_insert(0) += 1;
        }
        // Invariant 3: no recovery action without a certified failure.
        if !genuine.contains(comp) {
            violations.push(format!(
                "unattributed {tag}:{comp} at {at} (false positive)"
            ));
        }
    }

    // Invariant 2: restart episodes per component stay within the budget.
    let budget = cfg.station.policy.max_restarts_per_window as usize;
    for (comp, n) in &restarts {
        if *n > budget {
            violations.push(format!(
                "{comp} accumulated {n} restart episodes, over the budget of {budget}"
            ));
        }
    }

    ChaosReport {
        variant,
        injections,
        restarts,
        violations,
        telemetry,
    }
}

/// Runs the default chaos campaign on every tree plus the hour-of-loss
/// false-positive check, rendered as an experiment section for the report.
///
/// The paper column of the observations is the invariant target (zero): the
/// hardened station must convict no innocent component and leave no injected
/// fault unhandled.
pub fn experiment(run: crate::RunConfig) -> crate::Experiment {
    let mut table = Table::new(
        "Chaos campaign: 4 randomized faults per tree under 5% loss on every link",
        vec![
            "tree".into(),
            "injected".into(),
            "cured".into(),
            "quarantined".into(),
            "mean recovery (s)".into(),
            "restart episodes".into(),
            "violations".into(),
        ],
    );
    let mut total_violations = 0usize;
    for variant in TreeVariant::ALL {
        let cfg = ChaosConfig {
            seed: run.seed,
            ..ChaosConfig::default()
        };
        let report = run_campaign(variant, &cfg);
        let cured: Vec<f64> = report
            .injections
            .iter()
            .filter_map(|i| i.recovery_s)
            .collect();
        let mean = if cured.is_empty() {
            0.0
        } else {
            cured.iter().sum::<f64>() / cured.len() as f64
        };
        let injected = report
            .injections
            .iter()
            .map(|i| format!("{}:{}", i.kind, i.component))
            .collect::<Vec<_>>()
            .join(" ");
        total_violations += report.violations.len();
        table.push_row(vec![
            variant.to_string(),
            injected,
            cured.len().to_string(),
            report
                .injections
                .iter()
                .filter(|i| i.quarantined)
                .count()
                .to_string(),
            format!("{mean:.2}"),
            report.restarts.values().sum::<usize>().to_string(),
            report.violations.len().to_string(),
        ]);
    }

    // The headline hardening claim: one simulated hour at 5% loss on every
    // link, hardened preset, zero recovery actions of any kind.
    let hour = Trial::new(StationConfig::hardened(), TreeVariant::II, run.seed);
    let false_positives = hour.value(0, |trial| {
        let mut station = trial.start()?;
        station.degrade_all_links(Some(LinkQuality::lossy(0.05)));
        let start = station.now();
        station.run_for(SimDuration::from_secs(3600));
        let marks = station.trace().marks();
        Ok(marks
            .filter(|&(at, mark)| at >= start && is_action(mark))
            .count())
    });

    crate::Experiment {
        id: "chaos".into(),
        title: "Chaos campaign — degraded links, randomized faults, invariant audit".into(),
        tables: vec![table],
        blocks: vec![
            "Beyond the paper's SIGKILL: crash/hang/zombie schedules under 5% \
             message loss on every link, hardened FD/REC configuration \
             (8-consecutive-miss suspicion, restart backoff, beacon-staleness \
             zombie defense, quarantine). Invariants audited per campaign: \
             every injection cured or explicitly quarantined, restart \
             episodes within budget, zero unattributed recovery actions."
                .into(),
        ],
        observations: vec![
            (
                "chaos invariant violations, trees I–V".into(),
                0.0,
                total_violations as f64,
            ),
            (
                "FD false positives in 1 h at 5% loss (hardened)".into(),
                0.0,
                false_positives as f64,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_sim::TraceKind;

    /// A trace where fedr's genuine episode is absorbed into pbcom's: the
    /// promoted restart is keyed by pbcom, which never failed on its own.
    fn merged_trace() -> Trace {
        let mut tr = Trace::new();
        let t = SimTime::ZERO;
        tr.record(t, None, TraceKind::Mark, "inject:fedr");
        tr.record(t, None, TraceKind::Mark, "detect:fedr");
        tr.record(t, None, TraceKind::Mark, "detect:pbcom");
        tr.record(t, None, TraceKind::Mark, "merge:fedr->pbcom");
        tr.record(t, None, TraceKind::Mark, "restart:pbcom:0:fedr+pbcom");
        tr
    }

    #[test]
    fn merged_episode_is_attributed_to_its_originating_suspicion() {
        let tr = merged_trace();
        let injected: BTreeSet<String> = [String::from("fedr")].into();
        let genuine = attributable_components(&tr, &injected);
        assert!(
            genuine.contains("pbcom"),
            "merge:fedr->pbcom must attribute the promoted episode's owner"
        );
        assert!(genuine.contains("fedr"));
    }

    #[test]
    fn merge_from_an_innocent_origin_does_not_attribute() {
        let mut tr = Trace::new();
        tr.record(SimTime::ZERO, None, TraceKind::Mark, "merge:ses->str");
        let genuine = attributable_components(&tr, &BTreeSet::new());
        assert!(
            genuine.is_empty(),
            "a merge between unconvicted components certifies nothing: {genuine:?}"
        );
    }

    #[test]
    fn attribution_closes_over_merge_then_membership() {
        // fedr genuine → merge legitimizes owner pbcom → pbcom's promoted
        // restart legitimizes every cell member it reboots.
        let mut tr = merged_trace();
        tr.record(
            SimTime::ZERO,
            None,
            TraceKind::Mark,
            "restart:pbcom:1:fedr+fedrcom+pbcom",
        );
        let injected: BTreeSet<String> = [String::from("fedr")].into();
        let genuine = attributable_components(&tr, &injected);
        assert!(genuine.contains("fedrcom"), "{genuine:?}");
    }

    #[test]
    fn a_small_campaign_on_tree_i_is_clean() {
        let cfg = ChaosConfig {
            faults: 2,
            link_loss: 0.0,
            ..ChaosConfig::default()
        };
        let report = run_campaign(TreeVariant::I, &cfg);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.injections.len(), 2);
        for inj in &report.injections {
            assert!(inj.recovery_s.is_some(), "{} not cured", inj.component);
            assert!(!inj.quarantined);
        }
    }
}
