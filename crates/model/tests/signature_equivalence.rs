#![allow(clippy::disallowed_methods)]
//! The one assumption the checker's state table rests on: two states with
//! equal [`State::signature`] behave equally — the same actions enabled, and
//! per action the same successor signature or the same violation. Dedup
//! always assumed it; the table (`checker.rs`) also reuses a state's probe
//! for every later arrival, so a signature that forgot something would merge
//! two different futures silently.
//!
//! The signature is a byte key. [`reference_signature`] is the text form it
//! replaced, kept here as the reference: on every generated state, two keys
//! are equal exactly when their texts are, so the key splits states where
//! the text did and the checker's visit order and counts stay as they were.
//!
//! The walk is the full interleaving tree of the real [`Model`], public API
//! only, and compares **every generated successor before any dedup** with
//! what the first state of its signature did: at generation, not at visit,
//! because a walker that compares only when it re-expands never looks at the
//! arrivals dedup throws away, and those are the collisions that matter.
//!
//! What it catches: a key without the in-flight byte merges "restart in
//! flight" with "restart done, fault still there" on [`WITNESS`] (a naive
//! oracle whose first restart under-covers the cure set), first seen at
//! depth 3; a key without the restart counts merges states whose texts
//! differ, first seen at depth 4 of `clean.scenario`. The behaviour
//! comparison alone misses the second, because on paths this short the
//! counts move in step with fields that stay in the key. What it does not
//! catch: a key without the origins' count, which the episode count and the
//! fixed-width fields after the episodes keep unambiguous on every state
//! reached.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use mercury::station::TreeVariant;
use rr_model::machine::{CompSet, FaultStatus};
use rr_model::{scenario, Model, State, ViolationKind};
use rr_sim::intern;

/// Deep enough that every scenario re-arrives (commuting injections alone
/// do at depth 2) and escalation has started; sized so the whole walk takes
/// about two seconds in the debug profile.
const DEPTH: usize = 6;

/// The scenario the seeded mutant (in-flight flag dropped) fails on.
const WITNESS: &str = "tree II\noracle naive\nfault str cures ses str\n";

/// What a state does: per enabled action its label and the successor's
/// signature, or the violation's kind and detail.
type Behaviour = Vec<(String, Result<Vec<u8>, (ViolationKind, String)>)>;

/// The signature as text, as the checker once keyed its table: the
/// reference the byte key is held to. Names where the key has indices,
/// cell labels where it has ranks, separators where it has lengths; the
/// restart counts are run together, which is unambiguous while every count
/// is one digit.
fn reference_signature(state: &State, model: &Model) -> String {
    let tree = model.tree();
    let joined = |names: Vec<&str>| names.join(",");
    let names = |set: CompSet| joined(set.iter().map(|i| model.components()[i].as_str()).collect());
    let mut sig = String::new();
    for ep in state.recoverer().open_episodes() {
        let cell = ep.cell.map_or("-", |n| tree.label(n));
        let origins = joined(ep.origins.iter().map(String::as_str).collect());
        let in_flight = u8::from(ep.in_flight);
        let _ = write!(
            sig,
            "e{}:{}:{cell}:{in_flight}:{origins};",
            ep.owner, ep.attempt
        );
    }
    sig.push('|');
    for i in 0..model.faults().len() {
        sig.push(match state.fault_status(i) {
            FaultStatus::Pending => 'p',
            FaultStatus::Active => 'a',
            FaultStatus::Cured => 'c',
            FaultStatus::Quarantined => 'q',
        });
    }
    sig.push('|');
    for (tag, set) in [
        ('s', state.suspected()),
        ('r', state.reported()),
        ('q', state.quarantined()),
        ('d', state.deferred()),
        ('m', state.masked()),
    ] {
        let _ = write!(sig, "{tag}{}|", names(set));
    }
    let mut rogue: Vec<&str> = state.rogue_cells().iter().map(|&n| tree.label(n)).collect();
    rogue.sort_unstable();
    let _ = write!(sig, "g{}|h", rogue.join(","));
    let policy = state.recoverer().policy();
    for component in model.components() {
        let _ = write!(sig, "{}", policy.recent_restarts(intern(component)));
    }
    sig
}

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
    first: HashMap<Vec<u8>, Behaviour>,
    /// Every generated state's key with its reference text, both ways, and
    /// how many states were named.
    text_of: HashMap<Vec<u8>, String>,
    key_of: HashMap<String, Vec<u8>>,
    named: u64,
    /// Later states compared with the first, and those that differed.
    arrivals: u64,
    mismatches: Vec<String>,
}

impl Walk<'_> {
    /// Names a generated state both ways, and records a mismatch unless its
    /// key and its reference text each meet only the other's partners.
    fn name_state(&mut self, state: &State, depth: usize) -> Vec<u8> {
        self.named += 1;
        let key = state.signature(self.model);
        let text = reference_signature(state, self.model);
        let had_text = self
            .text_of
            .entry(key.clone())
            .or_insert_with(|| text.clone());
        if *had_text != text {
            self.mismatches.push(format!(
                "{}: depth {depth}: one key {key:?} for two texts:\n  {had_text}\n  {text}",
                self.name
            ));
        }
        let had_key = self
            .key_of
            .entry(text.clone())
            .or_insert_with(|| key.clone());
        if *had_key != key {
            self.mismatches.push(format!(
                "{}: depth {depth}: two keys for one text {text}:\n  {had_key:?}\n  {key:?}",
                self.name
            ));
        }
        key
    }

    /// Applies every enabled action of `state` and compares what they did
    /// with the first state of the same signature, then follows **every**
    /// successor, whether its signature is new or not: a later arrival is a
    /// different concrete state, and so are its descendants.
    fn visit(&mut self, state: &State, key: Vec<u8>, depth: usize) {
        let mut behaviour = Behaviour::new();
        let mut successors = Vec::new();
        for action in self.model.enabled(state) {
            let outcome = match self.model.apply(state, &action) {
                Ok(next) => {
                    let signature = self.name_state(&next, depth + 1);
                    successors.push((next, signature.clone()));
                    Ok(signature)
                }
                Err(violation) => Err((violation.kind, violation.detail)),
            };
            behaviour.push((action.label(), outcome));
        }
        match self.first.get(&key) {
            Some(expected) => {
                self.arrivals += 1;
                if *expected != behaviour {
                    self.mismatches.push(format!(
                        "{}: depth {depth}, signature {}:\n  first {expected:?}\n  later \
                         {behaviour:?}",
                        self.name,
                        reference_signature(state, self.model)
                    ));
                }
            }
            None => {
                self.first.insert(key, behaviour);
            }
        }
        if depth < DEPTH {
            for (next, signature) in successors {
                self.visit(&next, signature, depth + 1);
            }
        }
    }
}

#[test]
fn states_of_equal_signature_behave_equally() {
    let scenarios = scenarios();
    let mut arrivals = 0;
    let mut named = 0;
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
            text_of: HashMap::new(),
            key_of: HashMap::new(),
            named: 0,
            arrivals: 0,
            mismatches: Vec::new(),
        };
        let initial = model.initial();
        let key = walk.name_state(&initial, 0);
        walk.visit(&initial, key, 0);
        assert!(walk.arrivals > 0, "{name}: no signature was reached twice");
        arrivals += walk.arrivals;
        named += walk.named;
        mismatches.extend(walk.mismatches);
    }
    println!(
        "signature_equivalence: {} scenarios to depth {DEPTH}, {named} states named, {arrivals} \
         re-arrivals compared, {} mismatches",
        scenarios.len(),
        mismatches.len()
    );
    assert!(
        mismatches.is_empty(),
        "{} mismatches among {named} named states and {arrivals} re-arrivals (a key that splits \
         states unlike the reference text, or a re-arrival that behaved unlike the first state \
         of its signature); the first few:\n{}",
        mismatches.len(),
        mismatches[..mismatches.len().min(5)].join("\n")
    );
}
