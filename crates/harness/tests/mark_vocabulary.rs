#![allow(clippy::disallowed_methods)]
//! DESIGN.md §10 tabulates the trace's protocol marks. This renders the
//! table from [`rr_sim::Mark`] (label, variant, golden, episode stage) and
//! requires DESIGN.md to contain it verbatim, so the two cannot drift apart.

use std::collections::BTreeSet;

use rr_harness::golden::normalize;
use rr_sim::{intern, EpisodeStage, Mark, SimTime, Trace};

/// The episode stage that records the same fact as `mark`, if any.
fn stage(mark: &Mark) -> Option<EpisodeStage> {
    match mark {
        Mark::Stage(stage, _) => Some(*stage),
        Mark::Merge { .. } => Some(EpisodeStage::Merged),
        Mark::Restart { .. } => Some(EpisodeStage::Restarting),
        _ => None,
    }
}

#[test]
fn design_md_states_the_mark_vocabulary() {
    let c = intern("{c}");
    let set = vec![intern("{a}"), intern("{b}")];
    let crash = "a failure the component reports; `Injected` is the injector's";
    let rows = [
        (
            Mark::Stage(EpisodeStage::Injected, c),
            "`Station::inject` / `inject_correlated_pbcom`",
            "measure, chaos",
            "",
        ),
        (
            Mark::Stage(EpisodeStage::Suspected, c),
            "fd",
            "chaos, telemetry",
            "",
        ),
        (
            Mark::Stage(EpisodeStage::Quarantined, c),
            "rec",
            "chaos, overload, telemetry",
            "",
        ),
        (
            Mark::Stage(EpisodeStage::Deferred, c),
            "rec",
            "overload, telemetry",
            "",
        ),
        (
            Mark::Stage(EpisodeStage::Shed, c),
            "rec",
            "overload, telemetry",
            "",
        ),
        (
            Mark::Merge {
                from: intern("{from}"),
                into: intern("{into}"),
            },
            "rec",
            "measure, chaos, telemetry",
            "",
        ),
        (
            Mark::Restart {
                owner: intern("{owner}"),
                attempt: 0,
                set,
            },
            "rec",
            "measure, chaos, overload, telemetry",
            "",
        ),
        (
            Mark::GiveUp {
                comp: c,
                reason: "{reason}".into(),
            },
            "rec",
            "measure, chaos, telemetry",
            "written beside `quarantine:`, which is `Quarantined`",
        ),
        (
            Mark::Stale(c),
            "rec",
            "chaos",
            "REC's zombie check; FD's conviction is `detect:`",
        ),
        (
            Mark::Alive(c),
            "fd",
            "golden only",
            "FD's evidence that a restart took",
        ),
        (
            Mark::Cured(c),
            "rec",
            "measure, chaos, telemetry",
            "per origin; `Cured` is per episode",
        ),
        (
            Mark::Ready(c),
            "every component",
            "measure, warm-up, experiments, telemetry",
            "per component; `Ready` is per episode",
        ),
        (
            Mark::Rejuvenate(c),
            "rec",
            "experiments",
            "a planned restart opens no episode",
        ),
        (
            Mark::InducedCrash(c),
            "ses, str",
            "chaos, checkpoint",
            crash,
        ),
        (Mark::AgingCrash(c), "pbcom", "chaos, experiments", crash),
        (Mark::PoisonCrash(c), "pbcom", "chaos", crash),
    ];
    let mut table = String::from(
        "| Label | Variant | Writer | Readers | Golden | Episode stage |\n\
         |---|---|---|---|---|---|\n",
    );
    for (mark, writer, readers, no_stage) in &rows {
        // The attempt renders as a number; the table names it.
        let label = mark.to_string().replace(":0:", ":{n}:");
        let debug = format!("{mark:?}");
        let variant = debug
            .split(|ch: char| !ch.is_ascii_alphanumeric())
            .next()
            .unwrap_or_default();
        let mut trace = Trace::new();
        trace.record_mark(SimTime::ZERO, None, mark.clone());
        let golden = if normalize(&trace, SimTime::ZERO).is_empty() {
            "no"
        } else {
            "yes"
        };
        let stage = stage(mark).map_or(format!("— ({no_stage})"), |s| format!("`{s:?}`"));
        table.push_str(&format!(
            "| `{label}` | `{variant}` | {writer} | {readers} | {golden} | {stage} |\n"
        ));
    }
    let tags: BTreeSet<_> = rows.iter().map(|r| r.0.head().0).collect();
    assert_eq!(tags.len(), 16, "one row per kind of mark");
    let design = include_str!("../../../DESIGN.md");
    assert!(
        design.contains(&table),
        "DESIGN.md §10 must contain this table verbatim:\n{table}"
    );
}
