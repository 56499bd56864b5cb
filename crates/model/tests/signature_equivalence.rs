#![allow(clippy::disallowed_methods)]
//! The one assumption the checker's state table rests on: two states with
//! equal [`State::signature`] behave equally — the same actions enabled, and
//! per action the same successor signature or the same violation. Dedup
//! always assumed it; the table (`checker.rs`) also reuses a state's probe
//! for every later arrival, so a signature that forgot something would merge
//! two different futures silently.
//!
//! The walk is the full interleaving tree of the real [`Model`], public API
//! only, and compares **every generated successor before any dedup** with
//! what the first state of its signature did: at generation, not at visit,
//! because a walker that compares only when it re-expands never looks at the
//! arrivals dedup throws away, and those are the collisions that matter.
//!
//! What it catches: with the in-flight flag dropped from the signature,
//! [`WITNESS`] (a naive oracle whose first restart under-covers the cure
//! set, so "restart in flight" and "restart done, fault still there" collide)
//! reports its first mismatch at depth 3. What it does not catch, even walked
//! to depth 10 in a release build (3.4 million re-arrivals): dropping the
//! `h…` restart counts, or the episode `attempt`. On paths this short both
//! move in step with fields that stay in the signature, which is what the
//! 3600 s window argument in `State::signature` predicts.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;

use mercury::station::TreeVariant;
use rr_model::{scenario, Model, State, ViolationKind};

/// Deep enough that every scenario re-arrives (commuting injections alone
/// do at depth 2) and escalation has started; sized so the whole walk takes
/// about two seconds in the debug profile.
const DEPTH: usize = 6;

/// The scenario the seeded mutant (in-flight flag dropped) fails on.
const WITNESS: &str = "tree II\noracle naive\nfault str cures ses str\n";

/// What a state does: per enabled action its label and the successor's
/// signature, or the violation's kind and detail.
type Behaviour = Vec<(String, Result<String, (ViolationKind, String)>)>;

/// Mutations with the directive each needs to be expressible.
const MUTATIONS: [(&str, &str); 4] = [
    ("mutate drop-report\n", ""),
    ("mutate bypass-planner\n", ""),
    ("mutate starve-deferred\n", "admission\n"),
    ("mutate stale-rehydrate\n", "rehydrate\n"),
];

fn scenarios() -> Vec<(String, String)> {
    let mut out = vec![("witness".to_string(), WITNESS.to_string())];
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/model-fixtures");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("fixture directory lists")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    files.sort();
    for path in files {
        let text = fs::read_to_string(&path).expect("fixture reads");
        out.push((path.display().to_string(), text));
    }
    for variant in TreeVariant::ALL {
        for oracle in ["perfect", "naive"] {
            let head = format!("tree {variant}\noracle {oracle}\n");
            for flavour in ["", "rehydrate\n", "admission\n"] {
                let text = format!("{head}{flavour}fault str cures ses str\nfault rtu\n");
                out.push((text.replace('\n', "; "), text));
            }
            for (mutation, needs) in MUTATIONS {
                let text = format!("{head}{needs}fault rtu\nfault ses\n{mutation}");
                out.push((text.replace('\n', "; "), text));
            }
        }
    }
    out
}

/// What the walk of one scenario has seen.
struct Walk<'m> {
    name: &'m str,
    model: &'m Model,
    /// The behaviour of the first state that reached each signature.
    first: HashMap<String, Behaviour>,
    /// Later states compared with it, and those that differed.
    arrivals: u64,
    mismatches: Vec<String>,
}

impl Walk<'_> {
    /// Applies every enabled action of `state` and compares what they did
    /// with the first state of the same signature, then follows **every**
    /// successor, whether its signature is new or not: a later arrival is a
    /// different concrete state, and so are its descendants.
    fn visit(&mut self, state: &State, depth: usize) {
        let mut behaviour = Behaviour::new();
        let mut successors = Vec::new();
        for action in self.model.enabled(state) {
            let outcome = match self.model.apply(state, &action) {
                Ok(next) => {
                    let signature = next.signature(self.model);
                    successors.push(next);
                    Ok(signature)
                }
                Err(violation) => Err((violation.kind, violation.detail)),
            };
            behaviour.push((action.label(), outcome));
        }
        let signature = state.signature(self.model);
        match self.first.get(&signature) {
            Some(expected) => {
                self.arrivals += 1;
                if *expected != behaviour {
                    self.mismatches.push(format!(
                        "{}: depth {depth}, signature {signature}:\n  first {expected:?}\n  later \
                         {behaviour:?}",
                        self.name
                    ));
                }
            }
            None => {
                self.first.insert(signature, behaviour);
            }
        }
        if depth < DEPTH {
            for next in &successors {
                self.visit(next, depth + 1);
            }
        }
    }
}

#[test]
fn states_of_equal_signature_behave_equally() {
    let scenarios = scenarios();
    let mut arrivals = 0;
    let mut mismatches = Vec::new();
    for (name, text) in &scenarios {
        let sc = scenario::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let variant: TreeVariant = sc.tree.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
        let model = Model::new(variant.tree().expect("paper tree builds"), &sc)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut walk = Walk {
            name,
            model: &model,
            first: HashMap::new(),
            arrivals: 0,
            mismatches: Vec::new(),
        };
        walk.visit(&model.initial(), 0);
        assert!(walk.arrivals > 0, "{name}: no signature was reached twice");
        arrivals += walk.arrivals;
        mismatches.extend(walk.mismatches);
    }
    println!(
        "signature_equivalence: {} scenarios to depth {DEPTH}, {arrivals} re-arrivals compared, \
         {} mismatches",
        scenarios.len(),
        mismatches.len()
    );
    assert!(
        mismatches.is_empty(),
        "{} of {arrivals} re-arrivals behaved unlike the first state of their signature; the \
         first few:\n{}",
        mismatches.len(),
        mismatches[..mismatches.len().min(5)].join("\n")
    );
}
