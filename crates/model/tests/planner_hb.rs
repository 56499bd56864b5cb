#![allow(clippy::disallowed_methods)]
//! Property: every telemetry episode stream the planner produces passes the
//! happens-before verifier — in batch (parallel planner) and serial mode.
//!
//! The generator drives the real [`Recoverer`] with random suspicion batches
//! over random trees and writes the protocol marks **exactly** the way
//! `mercury`'s station does (`detect:` per suspect; `merge:` for the
//! non-owner origins, then the `restart:`; a `ready:` per member; a
//! `cured:` per origin), folding each into the registry, so the property
//! covers the wiring the simulator uses, not a toy recorder.

use rr_core::oracle::Failure;
use rr_core::policy::RestartPolicy;
use rr_core::recoverer::{Recoverer, RecoveryDecision};
use rr_core::tree::{RestartTree, TreeSpec};
use rr_core::PerfectOracle;
use rr_sim::telemetry::Registry;
use rr_sim::{check, intern, EpisodeStage, Mark, SimRng, SimTime};

use rr_model::hb;

fn tree_flat() -> RestartTree {
    TreeSpec::cell("mercury")
        .with_child(TreeSpec::cell("R_a").with_component("a"))
        .with_child(TreeSpec::cell("R_b").with_component("b"))
        .with_child(TreeSpec::cell("R_c").with_component("c"))
        .build()
        .unwrap()
}

fn tree_nested() -> RestartTree {
    TreeSpec::cell("mercury")
        .with_child(TreeSpec::cell("R_mbus").with_component("mbus"))
        .with_child(
            TreeSpec::cell("R_[fedr,pbcom]")
                .with_child(TreeSpec::cell("R_fedr").with_component("fedr"))
                .with_child(TreeSpec::cell("R_pbcom").with_component("pbcom")),
        )
        .with_child(TreeSpec::cell("R_[ses,str]").with_components(["ses", "str"]))
        .with_child(TreeSpec::cell("R_rtu").with_component("rtu"))
        .build()
        .unwrap()
}

fn tree_deep() -> RestartTree {
    TreeSpec::cell("root")
        .with_child(
            TreeSpec::cell("mid")
                .with_child(TreeSpec::cell("R_x").with_component("x"))
                .with_child(
                    TreeSpec::cell("low")
                        .with_child(TreeSpec::cell("R_y").with_component("y"))
                        .with_child(TreeSpec::cell("R_z").with_component("z")),
                ),
        )
        .with_child(TreeSpec::cell("R_w").with_component("w"))
        .build()
        .unwrap()
}

/// Marks a batch of decisions the way `mercury::rec::apply_decision` does.
fn record_decisions(reg: &mut Registry, decisions: &[RecoveryDecision], now: SimTime) {
    for decision in decisions {
        match decision {
            RecoveryDecision::Restart {
                components,
                attempt,
                origins,
                ..
            } => {
                let owner = intern(&origins[0]);
                for origin in &origins[1..] {
                    let merge = Mark::Merge {
                        from: intern(origin),
                        into: owner,
                    };
                    reg.record(now, &merge);
                }
                let restart = Mark::Restart {
                    owner,
                    attempt: *attempt,
                    set: components.iter().map(|c| intern(c)).collect(),
                };
                reg.record(now, &restart);
            }
            RecoveryDecision::AlreadyRecovering { .. } => {}
            RecoveryDecision::GiveUp { component, reason } => {
                let comp = intern(component);
                let give_up = Mark::GiveUp {
                    comp,
                    reason: reason.to_string(),
                };
                reg.record(now, &give_up);
                reg.record(now, &Mark::Stage(EpisodeStage::Quarantined, comp));
            }
        }
    }
}

/// Drives random suspicion rounds through the recoverer, recording
/// telemetry; the recorded stream must verify causally clean.
fn drive(rng: &mut SimRng, serial: bool) {
    let tree = match rng.next_below(3) {
        0 => tree_flat(),
        1 => tree_nested(),
        _ => tree_deep(),
    };
    let components = tree.components();
    let mut rec = Recoverer::new(tree.clone(), PerfectOracle::new(), RestartPolicy::new());
    let mut reg = Registry::new();
    let mut tick: u64 = 0;
    let mut now = || {
        tick += 1;
        SimTime::from_secs(tick)
    };

    let rounds = 1 + rng.next_below(3);
    for _ in 0..rounds {
        // A random batch of distinct suspects, some with correlated cures.
        let mut pool = components.clone();
        rng.shuffle(&mut pool);
        let batch_len = 1 + rng.next_below(pool.len().min(4) as u64) as usize;
        let mut failures = Vec::new();
        for comp in pool.iter().take(batch_len) {
            let mut cure = vec![comp.clone()];
            if rng.chance(0.4) {
                if let Some(extra) = rng.choose(&components).cloned() {
                    if !cure.contains(&extra) {
                        cure.push(extra);
                    }
                }
            }
            failures.push(Failure::correlated(comp.clone(), cure));
        }
        for f in &failures {
            let suspected = Mark::Stage(EpisodeStage::Suspected, intern(&f.component));
            reg.record(now(), &suspected);
        }
        let decide_at = now();
        let decisions: Vec<RecoveryDecision> = if serial {
            failures
                .into_iter()
                .map(|f| rec.on_failure(f, decide_at))
                .collect()
        } else {
            rec.on_failures(failures, decide_at)
        };
        record_decisions(&mut reg, &decisions, decide_at);

        // Complete every in-flight restart: members report ready, then the
        // cure is (usually) confirmed. Occasionally leave the episode open
        // so the next round escalates it.
        let in_flight: Vec<_> = rec
            .open_episodes()
            .filter(|ep| ep.in_flight)
            .map(|ep| (ep.owner.to_string(), ep.cell.unwrap()))
            .collect();
        for (owner, cell) in in_flight {
            for member in tree.components_under(cell) {
                reg.record(now(), &Mark::Ready(intern(&member)));
            }
            rec.on_restart_complete(&owner, now());
            if rng.chance(0.7) {
                let at = now();
                for origin in rec.episode_origins(&owner).unwrap_or_default() {
                    reg.record(at, &Mark::Cured(intern(&origin)));
                }
                rec.on_cured(&owner, now());
            }
        }
    }

    let violations = hb::verify_registry(&reg);
    assert!(
        violations.is_empty(),
        "planner stream (serial={serial}) violated happens-before: {violations:?}\n\
         events: {:#?}",
        reg.events()
    );
}

#[test]
fn parallel_planner_streams_pass_the_hb_verifier() {
    check::run("parallel planner streams are causally clean", 96, |rng| {
        drive(rng, false);
    });
}

#[test]
fn serial_planner_streams_pass_the_hb_verifier() {
    check::run("serial planner streams are causally clean", 96, |rng| {
        drive(rng, true);
    });
}
