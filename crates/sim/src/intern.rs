//! Component-name interning: `u32` handles instead of `String`s on hot paths.
//!
//! Every layer of the system keys something by component name — telemetry
//! metric labels, vector-clock entries, restart-policy history, model-checker
//! signatures. Cloning and hashing those `String`s dominates the per-event
//! cost once the engine itself is fast. [`intern`] maps each distinct name to
//! a dense [`CompId`] handle exactly once per process; afterwards the handle
//! is `Copy`, hashes as a single `u32`, compares in one instruction and
//! resolves back to a `&'static str` without allocation.
//!
//! Interned strings are leaked (once per *distinct* name per process — the
//! simulator's vocabulary is a few dozen component names, so the leak is
//! bounded and deliberate). The pool is process-global so ids are stable
//! within a run, but **assignment order depends on which thread interns
//! first**: no output may depend on the numeric order of `CompId`s. Anything
//! user-visible (exports, `Display`) must sort by the *resolved string*, as
//! [`crate::VectorClock`] and the telemetry exporters do.

use std::fmt;
use std::sync::{OnceLock, RwLock};

use crate::hash::FxHashMap;

/// A dense handle for an interned component name.
///
/// Obtain one with [`intern`]; get the name back with [`CompId::resolve`].
/// Equality and hashing are on the handle, so two `CompId`s are equal iff
/// their source strings are equal (within one process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompId(u32);

/// The process-global intern pool.
struct Pool {
    by_name: FxHashMap<&'static str, CompId>,
    names: Vec<&'static str>,
}

fn pool() -> &'static RwLock<Pool> {
    static POOL: OnceLock<RwLock<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        RwLock::new(Pool {
            by_name: [("", CompId::EMPTY)].into_iter().collect(),
            names: vec![""],
        })
    })
}

/// Interns `name`, returning its stable per-process handle.
///
/// The first interning of a distinct name leaks one copy of it; subsequent
/// calls are a read-locked hash lookup.
pub fn intern(name: &str) -> CompId {
    // Fast path: already interned (shared lock only).
    {
        let pool = pool().read().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = pool.by_name.get(name) {
            return id;
        }
    }
    let mut pool = pool().write().unwrap_or_else(|e| e.into_inner());
    // Re-check: another thread may have interned between the locks.
    if let Some(&id) = pool.by_name.get(name) {
        return id;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    let id = CompId(u32::try_from(pool.names.len()).unwrap_or_else(|_| {
        unreachable!("more than u32::MAX distinct interned names in one process")
    }));
    pool.names.push(leaked);
    pool.by_name.insert(leaked, id);
    id
}

impl CompId {
    /// The empty name, interned before any other: the label of every
    /// unlabelled metric, usable without a trip through the pool.
    pub const EMPTY: CompId = CompId(0);

    /// The interned string this handle stands for.
    pub fn resolve(self) -> &'static str {
        let pool = pool().read().unwrap_or_else(|e| e.into_inner());
        pool.names.get(self.0 as usize).copied().unwrap_or_else(|| {
            unreachable!("CompId constructed outside intern()");
        })
    }

    /// The raw handle value (for diagnostics; **not** stable across runs).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.resolve())
    }
}

impl From<&str> for CompId {
    fn from(name: &str) -> CompId {
        intern(name)
    }
}

impl From<&String> for CompId {
    fn from(name: &String) -> CompId {
        intern(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let id = intern("pbcom-test-roundtrip");
        assert_eq!(id.resolve(), "pbcom-test-roundtrip");
        assert_eq!(id.to_string(), "pbcom-test-roundtrip");
    }

    #[test]
    fn empty_is_the_empty_name() {
        assert_eq!(intern(""), CompId::EMPTY);
        assert_eq!(CompId::EMPTY.resolve(), "");
    }

    #[test]
    fn same_name_same_id() {
        assert_eq!(intern("fedr-test-stable"), intern("fedr-test-stable"));
    }

    #[test]
    fn distinct_names_distinct_ids() {
        assert_ne!(intern("intern-test-a"), intern("intern-test-b"));
    }

    #[test]
    fn from_str_interns() {
        let id: CompId = "intern-test-from".into();
        assert_eq!(id, intern("intern-test-from"));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..64)
                        .map(|i| intern(&format!("intern-race-{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<CompId>> = handles
            .into_iter()
            .map(|h| h.join().expect("thread panicked"))
            .collect();
        for ids in &results[1..] {
            assert_eq!(ids, &results[0], "all threads must agree on ids");
        }
        for (i, id) in results[0].iter().enumerate() {
            assert_eq!(id.resolve(), format!("intern-race-{i}"));
        }
    }

    #[test]
    fn property_round_trip_and_injectivity() {
        // The pool hashes names with FxHasher, which *does* collide on
        // strings (~2% at these lengths); the map's equality probing must
        // keep interning bijective regardless. Random idents stress exactly
        // that: resolve() inverts intern(), and id equality tracks string
        // equality in both directions.
        use crate::hash::FxHashMap;
        let mut by_name: FxHashMap<String, CompId> = FxHashMap::default();
        crate::check::run("interner bijectivity", 256, |rng| {
            for _ in 0..8 {
                let name = format!("prop-{}", crate::check::ident(rng, 20));
                let id = intern(&name);
                assert_eq!(id.resolve(), name, "resolve must invert intern");
                assert_eq!(intern(&name), id, "re-interning must be stable");
                match by_name.get(&name) {
                    Some(&prev) => assert_eq!(prev, id),
                    None => {
                        assert!(
                            by_name.values().all(|&other| other != id),
                            "distinct names {name:?} share an id"
                        );
                        by_name.insert(name, id);
                    }
                }
            }
        });
    }
}
