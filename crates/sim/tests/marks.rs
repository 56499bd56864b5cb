#![allow(clippy::disallowed_methods)]
//! The trace's protocol vocabulary: every [`Mark`] parses back from the
//! label it renders, text marks are stored typed, and a lookup by label
//! finds exactly what comparing rendered labels would.

use rr_sim::{check, intern, EpisodeStage, Label, Mark, Sim, SimRng, SimTime, Trace, TraceKind};

/// A random mark of a random kind, every kind equally likely.
fn any_mark(rng: &mut SimRng) -> Mark {
    let name = |rng: &mut SimRng| intern(&check::ident(rng, 8));
    let c = name(rng);
    match rng.next_below(16) {
        0 => Mark::Stage(EpisodeStage::Injected, c),
        1 => Mark::Stage(EpisodeStage::Suspected, c),
        2 => Mark::Stage(EpisodeStage::Quarantined, c),
        3 => Mark::Stage(EpisodeStage::Deferred, c),
        4 => Mark::Stage(EpisodeStage::Shed, c),
        5 => Mark::Merge {
            from: c,
            into: name(rng),
        },
        6 => Mark::Restart {
            owner: c,
            attempt: rng.next_below(5) as u32,
            set: check::vec_of(rng, 1, 4, name),
        },
        7 => Mark::GiveUp {
            comp: c,
            reason: check::printable(rng, 40),
        },
        8 => Mark::Stale(c),
        9 => Mark::Alive(c),
        10 => Mark::Cured(c),
        11 => Mark::Ready(c),
        12 => Mark::Rejuvenate(c),
        13 => Mark::InducedCrash(c),
        14 => Mark::AgingCrash(c),
        _ => Mark::PoisonCrash(c),
    }
}

#[test]
fn every_mark_parses_back_from_its_label() {
    let mut tags = std::collections::BTreeSet::new();
    check::run("mark round trip", 512, |rng| {
        let mark = any_mark(rng);
        tags.insert(mark.head().0);
        assert_eq!(mark.to_string().parse::<Mark>(), Ok(mark));
    });
    assert_eq!(tags.len(), 16, "{tags:?}");
}

#[test]
fn text_marks_are_stored_typed_and_free_text_stays_text() {
    let mut sim: Sim<()> = Sim::new(1);
    sim.mark("restart:a:1:a+b");
    sim.mark("telemetry:opal:3");
    sim.mark("restart:a:01:a");
    let labels: Vec<_> = sim.trace().iter().map(|e| e.label.clone()).collect();
    let restart = Mark::Restart {
        owner: intern("a"),
        attempt: 1,
        set: vec![intern("a"), intern("b")],
    };
    assert_eq!(labels[0], Label::Mark(restart));
    // Not this vocabulary, or not as `Display` renders it: kept verbatim.
    assert_eq!(labels[1], Label::Text("telemetry:opal:3".into()));
    assert_eq!(labels[2], Label::Text("restart:a:01:a".into()));
}

#[test]
fn typed_lookup_agrees_with_matching_rendered_labels() {
    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }
    // The lookup before marks were typed: render every record and compare
    // the text.
    fn by_text(tr: &Trace, t: SimTime, label: &str) -> Option<SimTime> {
        tr.iter()
            .filter(|e| e.kind == TraceKind::Mark && e.label.to_string() == label)
            .map(|e| e.time)
            .find(|&at| at >= t)
    }
    check::run("typed lookup", 128, |rng| {
        let names = ["x", "y", "ses"];
        let mut tr = Trace::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let name = names[rng.next_below(3) as usize];
            let label = match rng.next_below(4) {
                0 => format!("ready:{name}"),
                1 => format!("ready-ish:{name}"),
                2 => name.to_string(),
                _ => any_mark(rng).to_string(),
            };
            tr.record(t(f64::from(i)), None, TraceKind::Mark, label.as_str());
            tr.record(t(f64::from(i)), None, TraceKind::Crashed, name);
            labels.push(label);
        }
        for label in labels.iter().map(String::as_str).chain(["ready:x", "x"]) {
            let from = t(rng.next_below(30) as f64);
            assert_eq!(
                tr.first_mark_at_or_after(from, label),
                by_text(&tr, from, label),
                "{label}"
            );
        }
    });
}
