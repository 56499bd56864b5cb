//! Recovery-time measurement, exactly as the paper defines it (§4.1):
//!
//! "We log the time when the signal is sent; once the component determines
//! it is functionally ready, it logs a timestamped message. The difference
//! between these two times is what we consider to be the recovery time."
//!
//! An *episode* starts at the component's injection mark and is recovered
//! when every component restarted by the episode's final (curing) restart
//! attempt has logged ready. For tree I this is the whole station (recovery =
//! slowest component); for a tree-V pbcom failure it is the joint
//! [fedr, pbcom] pair. The marks read here are [`rr_sim::Mark`]s; DESIGN.md
//! §10 tabulates them.

use rr_sim::{intern, CompId, EpisodeStage, Mark, SimTime, Trace, TraceKind};

/// One measured recovery episode.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryMeasurement {
    /// The component whose failure was injected.
    pub component: String,
    /// Injection time.
    pub injected_at: SimTime,
    /// When the final restart's last component became ready.
    pub recovered_at: SimTime,
    /// Restart attempts observed (1 = the oracle's first guess cured it).
    pub attempts: u32,
    /// Components restarted by the final attempt.
    pub final_restart_set: Vec<String>,
}

impl RecoveryMeasurement {
    /// The recovery time in seconds — the paper's measured quantity.
    pub fn recovery_s(&self) -> f64 {
        self.recovered_at
            .saturating_since(self.injected_at)
            .as_secs_f64()
    }
}

/// Why a recovery could not be measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureError {
    /// No injection mark for the component at or after the given time.
    NoInjection(String),
    /// The recoverer never issued a restart for the episode.
    NoRestart(String),
    /// The policy gave up on the episode.
    GaveUp(String),
    /// A restarted component never logged ready (simulation not run long
    /// enough, or a real bug).
    NeverReady(String),
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::NoInjection(c) => write!(f, "no injection recorded for {c}"),
            MeasureError::NoRestart(c) => write!(f, "no restart issued for {c}"),
            MeasureError::GaveUp(c) => write!(f, "recovery of {c} was abandoned"),
            MeasureError::NeverReady(c) => write!(f, "{c} never became ready"),
        }
    }
}

impl std::error::Error for MeasureError {}

/// Measures the recovery of the failure injected into `component` at or
/// after `after`.
///
/// # Errors
///
/// Returns a [`MeasureError`] describing what is missing from the trace.
pub fn measure_recovery(
    trace: &Trace,
    component: &str,
    after: SimTime,
) -> Result<RecoveryMeasurement, MeasureError> {
    let comp = intern(component);
    let injected_at = trace
        .times_of(Mark::Stage(EpisodeStage::Injected, comp))
        .find(|&t| t >= after)
        .ok_or_else(|| MeasureError::NoInjection(component.to_string()))?;

    // All restart attempts for this episode after the injection. The episode
    // starts keyed by the component that failed; a merge into another
    // episode means that key's restarts belong to this recovery too.
    let mut keys = vec![comp];
    let mut attempts: Vec<(SimTime, &[CompId])> = Vec::new();
    let mut gave_up = false;
    for (at, mark) in trace.marks() {
        if at < injected_at {
            continue;
        }
        match mark {
            Mark::Merge { from, into } if keys.contains(from) && !keys.contains(into) => {
                keys.push(*into);
            }
            Mark::Restart { owner, set, .. } if keys.contains(owner) => attempts.push((at, set)),
            Mark::GiveUp { comp: who, .. } if keys.contains(who) => gave_up = true,
            // Episode closed (merged episodes mark every origin cured);
            // later restarts belong to a new episode.
            Mark::Cured(c) if *c == comp && !attempts.is_empty() => break,
            _ => {}
        }
    }
    if gave_up {
        return Err(MeasureError::GaveUp(component.to_string()));
    }
    let &(final_time, final_set) = attempts
        .last()
        .ok_or_else(|| MeasureError::NoRestart(component.to_string()))?;

    // Recovery completes when every component of the final restart logs
    // ready at or after the final restart was issued.
    let mut recovered_at = SimTime::ZERO;
    for &member in final_set {
        let ready = trace
            .times_of(Mark::Ready(member))
            .find(|&t| t >= final_time)
            .ok_or_else(|| MeasureError::NeverReady(member.to_string()))?;
        recovered_at = recovered_at.max(ready);
    }

    Ok(RecoveryMeasurement {
        component: component.to_string(),
        injected_at,
        recovered_at,
        attempts: attempts.len() as u32,
        final_restart_set: final_set.iter().map(ToString::to_string).collect(),
    })
}

/// Computes the total system downtime in `[from, to)` under the paper's
/// `A_entire` assumption: the system is down whenever *any* component is
/// down (from its crash/hang/kill until its next ready mark).
///
/// Returns `(downtime, availability)` where availability is the uptime
/// fraction of the window.
///
/// # Panics
///
/// Panics if `to < from`.
pub fn system_downtime(
    trace: &Trace,
    components: &[String],
    from: SimTime,
    to: SimTime,
) -> (rr_sim::SimDuration, f64) {
    assert!(to >= from, "empty window");
    // One pass: each component's current outage start, and the closed
    // outages. Their union is integer time, so the order they close in
    // cannot change it.
    let mut down_since: Vec<(CompId, Option<SimTime>)> =
        components.iter().map(|c| (intern(c), None)).collect();
    let mut intervals: Vec<(SimTime, SimTime)> = Vec::new();
    for ev in trace.iter() {
        if ev.time >= to {
            break;
        }
        let (who, ready) = match (ev.kind, ev.mark()) {
            (TraceKind::Crashed | TraceKind::Hung | TraceKind::Zombified, _) => {
                (ev.text().map(intern), false)
            }
            (_, Some(Mark::Ready(c))) => (Some(*c), true),
            _ => continue,
        };
        let Some((_, since)) = down_since.iter_mut().find(|(c, _)| Some(*c) == who) else {
            continue;
        };
        if !ready {
            since.get_or_insert(ev.time.max(from));
        } else if let Some(start) = since.take() {
            if ev.time > from {
                intervals.push((start.max(from), ev.time.min(to)));
            }
        }
    }
    intervals.extend(
        down_since
            .into_iter()
            .filter_map(|(_, since)| Some((since?.max(from), to))),
    );
    intervals.sort_by_key(|&(s, _)| s);
    let mut total = rr_sim::SimDuration::ZERO;
    let mut cursor = from;
    for (start, end) in intervals {
        let start = start.max(cursor);
        if end > start {
            total += end.since(start);
            cursor = end;
        }
    }
    let window = to.since(from).as_secs_f64();
    let availability = if window == 0.0 {
        1.0
    } else {
        1.0 - total.as_secs_f64() / window
    };
    (total, availability)
}

/// Counts telemetry frames recorded in `[from, to)` — the §5.2 "not all
/// downtime is the same" metric: frames lost during a pass are science data
/// lost.
pub fn telemetry_frames(trace: &Trace, from: SimTime, to: SimTime) -> usize {
    trace
        .window(from, to)
        .filter(|e| {
            e.kind == TraceKind::Mark && e.text().is_some_and(|l| l.starts_with("telemetry:"))
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn mark(trace: &mut Trace, at: f64, label: &str) {
        trace.record(t(at), None, TraceKind::Mark, label);
    }

    #[test]
    fn measures_single_attempt_episode() {
        let mut tr = Trace::new();
        mark(&mut tr, 100.0, "inject:rtu");
        mark(&mut tr, 100.9, "restart:rtu:0:rtu");
        mark(&mut tr, 105.6, "ready:rtu");
        mark(&mut tr, 107.0, "cured:rtu");
        let m = measure_recovery(&tr, "rtu", t(99.0)).unwrap();
        assert_eq!(m.attempts, 1);
        assert_eq!(m.final_restart_set, vec!["rtu"]);
        assert!((m.recovery_s() - 5.6).abs() < 1e-9);
    }

    #[test]
    fn measures_escalated_episode_to_final_attempt() {
        let mut tr = Trace::new();
        mark(&mut tr, 0.0, "inject:pbcom");
        mark(&mut tr, 1.0, "restart:pbcom:0:pbcom");
        mark(&mut tr, 21.3, "ready:pbcom");
        mark(&mut tr, 23.5, "restart:pbcom:1:fedr+pbcom");
        mark(&mut tr, 28.2, "ready:fedr");
        mark(&mut tr, 47.9, "ready:pbcom");
        mark(&mut tr, 50.0, "cured:pbcom");
        let m = measure_recovery(&tr, "pbcom", t(0.0)).unwrap();
        assert_eq!(m.attempts, 2);
        assert_eq!(m.final_restart_set, vec!["fedr", "pbcom"]);
        assert!((m.recovery_s() - 47.9).abs() < 1e-9);
    }

    #[test]
    fn whole_system_restart_waits_for_slowest() {
        let mut tr = Trace::new();
        mark(&mut tr, 10.0, "inject:rtu");
        mark(&mut tr, 11.0, "restart:rtu:0:fedrcom+mbus+rtu+ses+str");
        mark(&mut tr, 16.6, "ready:rtu");
        mark(&mut tr, 16.8, "ready:mbus");
        mark(&mut tr, 18.0, "ready:ses");
        mark(&mut tr, 18.2, "ready:str");
        mark(&mut tr, 34.7, "ready:fedrcom");
        let m = measure_recovery(&tr, "rtu", t(0.0)).unwrap();
        assert!((m.recovery_s() - 24.7).abs() < 1e-9);
    }

    #[test]
    fn later_episodes_are_not_conflated() {
        let mut tr = Trace::new();
        mark(&mut tr, 0.0, "inject:ses");
        mark(&mut tr, 1.0, "restart:ses:0:ses");
        mark(&mut tr, 9.5, "ready:ses");
        mark(&mut tr, 12.0, "cured:ses");
        // A second, separate episode (the induced str failure cascade).
        mark(&mut tr, 14.0, "restart:str:0:str");
        mark(&mut tr, 23.8, "ready:str");
        let m = measure_recovery(&tr, "ses", t(0.0)).unwrap();
        assert_eq!(m.attempts, 1);
        assert!((m.recovery_s() - 9.5).abs() < 1e-9);
    }

    #[test]
    fn merged_episode_attributes_promoted_restart_to_each_origin() {
        // fedr's solo episode is absorbed into pbcom's promoted one: both
        // components' recoveries are measured against the joint restart.
        let mut tr = Trace::new();
        mark(&mut tr, 0.0, "inject:fedr");
        mark(&mut tr, 0.0, "inject:pbcom");
        mark(&mut tr, 1.0, "restart:fedr:0:fedr");
        mark(&mut tr, 2.0, "merge:fedr->pbcom");
        mark(&mut tr, 2.0, "restart:pbcom:0:fedr+pbcom");
        mark(&mut tr, 8.0, "ready:fedr");
        mark(&mut tr, 9.5, "ready:pbcom");
        mark(&mut tr, 12.0, "cured:fedr");
        mark(&mut tr, 12.0, "cured:pbcom");
        let fedr = measure_recovery(&tr, "fedr", t(0.0)).unwrap();
        assert_eq!(fedr.attempts, 2);
        assert_eq!(fedr.final_restart_set, vec!["fedr", "pbcom"]);
        assert!((fedr.recovery_s() - 9.5).abs() < 1e-9);
        let pbcom = measure_recovery(&tr, "pbcom", t(0.0)).unwrap();
        assert_eq!(pbcom.attempts, 1);
        assert!((pbcom.recovery_s() - 9.5).abs() < 1e-9);
    }

    #[test]
    fn merged_episode_giveup_is_reported_for_absorbed_origin() {
        let mut tr = Trace::new();
        mark(&mut tr, 0.0, "inject:fedr");
        mark(&mut tr, 1.0, "restart:fedr:0:fedr");
        mark(&mut tr, 2.0, "merge:fedr->pbcom");
        mark(&mut tr, 2.0, "restart:pbcom:0:fedr+pbcom");
        mark(&mut tr, 30.0, "giveup:pbcom:escalation exhausted");
        assert_eq!(
            measure_recovery(&tr, "fedr", t(0.0)),
            Err(MeasureError::GaveUp("fedr".into()))
        );
    }

    #[test]
    fn errors_are_specific() {
        let tr = Trace::new();
        assert_eq!(
            measure_recovery(&tr, "rtu", t(0.0)),
            Err(MeasureError::NoInjection("rtu".into()))
        );

        let mut tr = Trace::new();
        mark(&mut tr, 0.0, "inject:rtu");
        assert_eq!(
            measure_recovery(&tr, "rtu", t(0.0)),
            Err(MeasureError::NoRestart("rtu".into()))
        );

        mark(&mut tr, 1.0, "restart:rtu:0:rtu");
        assert_eq!(
            measure_recovery(&tr, "rtu", t(0.0)),
            Err(MeasureError::NeverReady("rtu".into()))
        );

        let mut tr = Trace::new();
        mark(&mut tr, 0.0, "inject:rtu");
        mark(&mut tr, 1.0, "restart:rtu:0:rtu");
        mark(
            &mut tr,
            30.0,
            "giveup:rtu:restart storm: hard failure suspected",
        );
        assert_eq!(
            measure_recovery(&tr, "rtu", t(0.0)),
            Err(MeasureError::GaveUp("rtu".into()))
        );
    }

    #[test]
    fn downtime_unions_overlapping_outages() {
        let mut tr = Trace::new();
        let comps = vec!["a".to_string(), "b".to_string()];
        // a down [10, 20); b down [15, 30): union is [10, 30) = 20s.
        tr.record(t(10.0), None, TraceKind::Crashed, "a");
        tr.record(t(15.0), None, TraceKind::Crashed, "b");
        tr.record(t(20.0), None, TraceKind::Mark, "ready:a");
        tr.record(t(30.0), None, TraceKind::Mark, "ready:b");
        let (down, avail) = system_downtime(&tr, &comps, t(0.0), t(100.0));
        assert!((down.as_secs_f64() - 20.0).abs() < 1e-9);
        assert!((avail - 0.8).abs() < 1e-9);
    }

    #[test]
    fn downtime_clamps_to_window_and_handles_open_outages() {
        let mut tr = Trace::new();
        let comps = vec!["a".to_string()];
        tr.record(t(90.0), None, TraceKind::Hung, "a");
        // never recovers within the window
        let (down, avail) = system_downtime(&tr, &comps, t(50.0), t(100.0));
        assert!((down.as_secs_f64() - 10.0).abs() < 1e-9);
        assert!((avail - 0.8).abs() < 1e-9);
        // Fully-up window.
        let (down, avail) = system_downtime(&tr, &comps, t(0.0), t(50.0));
        assert_eq!(down.as_secs_f64(), 0.0);
        assert_eq!(avail, 1.0);
    }

    #[test]
    fn telemetry_counts_window() {
        let mut tr = Trace::new();
        for i in 0..10 {
            mark(&mut tr, 100.0 + i as f64, &format!("telemetry:opal:{i}"));
        }
        mark(&mut tr, 105.5, "ready:rtu");
        assert_eq!(telemetry_frames(&tr, t(100.0), t(105.0)), 5);
        assert_eq!(telemetry_frames(&tr, t(0.0), t(1000.0)), 10);
    }
}
