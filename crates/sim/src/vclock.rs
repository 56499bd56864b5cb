//! Vector clocks for causal ordering of telemetry events.
//!
//! The telemetry [`Registry`](crate::telemetry::Registry) stamps every
//! episode event with a [`VectorClock`] snapshot so a recorded stream can be
//! checked *post-hoc* for happens-before violations (the `rr-model` trace
//! verifier). Each telemetry key — a component or episode owner — is one
//! logical process; recording an event ticks its process entry, and the
//! protocol edges (plan, merge, restart, ready) join clocks so causality
//! flows along the episode graph.
//!
//! Clocks compare with the classic partial order: `a` happens before `b`
//! when every entry of `a` is ≤ the matching entry of `b` and at least one
//! is strictly smaller. Clocks neither of which happens before the other are
//! concurrent.
//!
//! Internally entries are keyed by interned [`CompId`] handles in a small
//! sorted vec — a clone is one flat `memcpy` instead of a `BTreeMap` of
//! `String`s, which matters because the registry snapshots a clock onto
//! every episode event. Rendering ([`VectorClock::entries`], `Display`)
//! sorts by the *resolved name* so output never depends on interning order
//! (which varies across runs and threads).

use std::fmt;

use crate::intern::{intern, CompId};

/// A vector clock: one monotone counter per logical process.
///
/// Entries absent from the clock are implicitly zero, so clocks over
/// different process sets still compare correctly. Entries are stored
/// sorted by handle with no zero entries, so the representation is
/// canonical and the derived equality is exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    entries: Vec<(CompId, u64)>,
}

impl VectorClock {
    /// The zero clock.
    pub fn new() -> VectorClock {
        VectorClock::default()
    }

    #[inline]
    fn position(&self, id: CompId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |&(k, _)| k)
    }

    /// Advances `process`'s entry by one (inserting it at 1 if absent).
    pub fn tick(&mut self, process: &str) {
        self.tick_id(intern(process));
    }

    /// [`VectorClock::tick`] for a pre-interned handle.
    pub fn tick_id(&mut self, id: CompId) {
        match self.position(id) {
            Ok(i) => self.entries[i].1 += 1,
            Err(i) => self.entries.insert(i, (id, 1)),
        }
    }

    /// `process`'s entry (zero if absent).
    pub fn get(&self, process: &str) -> u64 {
        self.get_id(intern(process))
    }

    /// [`VectorClock::get`] for a pre-interned handle.
    fn get_id(&self, id: CompId) -> u64 {
        match self.position(id) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        }
    }

    /// Pointwise maximum with `other` — the causal join.
    pub fn join(&mut self, other: &VectorClock) {
        for &(id, theirs) in &other.entries {
            match self.position(id) {
                Ok(i) => self.entries[i].1 = self.entries[i].1.max(theirs),
                Err(i) => self.entries.insert(i, (id, theirs)),
            }
        }
    }

    /// The named entries, sorted by process name. Absent entries are zero.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let mut named: Vec<(&'static str, u64)> = self
            .entries
            .iter()
            .map(|&(id, v)| (id.resolve(), v))
            .collect();
        named.sort_unstable_by_key(|&(name, _)| name);
        named.into_iter()
    }

    /// `true` when every entry of `self` is ≥ the matching entry of
    /// `other` (i.e. `self` causally knows everything `other` does).
    pub fn dominates(&self, other: &VectorClock) -> bool {
        other
            .entries
            .iter()
            .all(|&(id, theirs)| self.get_id(id) >= theirs)
    }

    /// Strict happens-before: `self` ≤ `other` pointwise and `self ≠ other`.
    pub fn happens_before(&self, other: &VectorClock) -> bool {
        other.dominates(self) && self != other
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (process, count)) in self.entries().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{process}:{count}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_clocks_are_equal() {
        let (a, b) = (VectorClock::new(), VectorClock::new());
        assert_eq!(a, b);
        assert!(!a.happens_before(&b));
    }

    #[test]
    fn tick_orders_same_process() {
        let mut a = VectorClock::new();
        a.tick("x");
        let mut b = a.clone();
        b.tick("x");
        assert!(a.happens_before(&b));
        assert!(!b.happens_before(&a));
    }

    #[test]
    fn independent_ticks_are_concurrent() {
        let mut a = VectorClock::new();
        a.tick("x");
        let mut b = VectorClock::new();
        b.tick("y");
        assert!(!a.happens_before(&b));
        assert!(!b.happens_before(&a));
    }

    #[test]
    fn join_restores_order() {
        let mut a = VectorClock::new();
        a.tick("x");
        let mut b = VectorClock::new();
        b.tick("y");
        // b learns of a (a message from x to y), then advances.
        b.join(&a);
        b.tick("y");
        assert!(a.happens_before(&b));
    }

    #[test]
    fn missing_entries_read_as_zero() {
        let mut a = VectorClock::new();
        a.tick("x");
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("never"), 0);
        assert!(a.dominates(&VectorClock::new()));
    }

    #[test]
    fn display_is_sorted_and_compact() {
        let mut c = VectorClock::new();
        c.tick("b");
        c.tick("a");
        c.tick("b");
        assert_eq!(c.to_string(), "{a:1 b:2}");
    }

    #[test]
    fn display_sorts_by_name_not_interning_order() {
        // Intern in reverse-alphabetical order; the rendering must still be
        // alphabetical (interning order is a per-process accident).
        let mut c = VectorClock::new();
        c.tick("zz-vclock-order");
        c.tick("aa-vclock-order");
        c.tick("mm-vclock-order");
        assert_eq!(
            c.to_string(),
            "{aa-vclock-order:1 mm-vclock-order:1 zz-vclock-order:1}"
        );
        let names: Vec<&str> = c.entries().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec!["aa-vclock-order", "mm-vclock-order", "zz-vclock-order"]
        );
    }

    #[test]
    fn id_api_matches_string_api() {
        let mut a = VectorClock::new();
        a.tick("vclock-id-api");
        let mut b = VectorClock::new();
        b.tick_id(intern("vclock-id-api"));
        assert_eq!(a, b);
        assert_eq!(a.get_id(intern("vclock-id-api")), 1);
    }

    #[test]
    fn join_inserts_and_maxes() {
        let mut a = VectorClock::new();
        a.tick("x");
        a.tick("x");
        a.tick("y");
        let mut b = VectorClock::new();
        b.tick("x");
        b.tick("z");
        b.join(&a);
        assert_eq!(b.get("x"), 2);
        assert_eq!(b.get("y"), 1);
        assert_eq!(b.get("z"), 1);
    }
}
