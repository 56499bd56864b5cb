//! The component state store: per-component journals plus the
//! content-addressed snapshot blobs they reference.
//!
//! Write path: a component appends [`RecordKind::Update`] deltas as its
//! state mutates and periodically calls [`ComponentStore::checkpoint`]
//! with its full state. A checkpoint stores the state blob under its
//! content hash, appends a snapshot reference record, and *compacts*:
//! the journal is rewritten to start at that snapshot and blobs no
//! longer referenced are pruned, so journal growth is bounded by one
//! checkpoint interval of updates.
//!
//! Read path ([`ComponentStore::recover`]): walk the journal's valid
//! prefix, pick the newest snapshot reference whose blob is present and
//! verifies against its content hash, and return that state plus every
//! update after it. Damage — torn tails, CRC failures, a missing or
//! mismatched blob — degrades recovery (fewer replayed updates, or cold
//! start when nothing verifies) but never yields corrupt state: a cold
//! start returns only the updates written before the first snapshot
//! reference, because the ones after it are deltas against the state
//! that reference stood for.

use std::collections::BTreeMap;

use crate::frame::{
    append_record, content_hash, parse_snapshot_payload, snapshot_payload, walk, RecordKind,
    StopReason, MAGIC,
};

/// Durable state for one component: journal bytes plus snapshot blobs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentStore {
    journal: Vec<u8>,
    blobs: BTreeMap<u64, Vec<u8>>,
    next_seq: u64,
}

/// An injectable journal fault, modelling what a crash mid-write or bit
/// rot does to the backing medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalFault {
    /// Lose the last `n` bytes (a torn write / lost tail).
    TruncateTail(usize),
    /// XOR the byte at `offset` past the magic with `0xFF` (bit rot).
    CorruptByte(usize),
}

/// What [`ComponentStore::recover`] reconstructed, lent from the store: the
/// state is the verified blob itself and each update a slice of the
/// journal, so a recovery copies no payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery<'j> {
    /// The verified snapshot state, or `None` for a cold start (no
    /// snapshot in the valid prefix verified against its blob).
    pub state: Option<&'j [u8]>,
    /// Update payloads to replay on top of `state`, in append order.
    pub updates: Vec<Payload<'j>>,
    /// Accounting for telemetry and cost models.
    pub stats: RecoveryStats,
}

/// One update record's payload, borrowed from the journal it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Payload<'j>(&'j [u8]);

impl<'j> Payload<'j> {
    /// The payload bytes.
    pub fn as_slice(&self) -> &'j [u8] {
        self.0
    }
}

/// Accounting for a recovery pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Journal records in the valid prefix that contributed to the
    /// recovered state (the chosen snapshot reference plus the updates
    /// replayed after it).
    pub replayed_records: u64,
    /// Size of the verified snapshot blob, 0 on cold start.
    pub snapshot_bytes: u64,
    /// Bytes replayed from update records.
    pub update_bytes: u64,
    /// Bytes discarded past the valid prefix (torn tail or corruption).
    pub discarded_bytes: u64,
    /// Whether the journal parsed end to end without damage.
    pub clean: bool,
}

impl ComponentStore {
    /// An empty store: a journal holding only the magic header.
    pub fn new() -> ComponentStore {
        ComponentStore {
            journal: MAGIC.to_vec(),
            blobs: BTreeMap::new(),
            next_seq: 1,
        }
    }

    /// Rebuilds a store from raw parts (fixture loading). `next_seq`
    /// resumes past the highest sequence number in the journal's valid
    /// prefix.
    pub fn from_parts(journal: Vec<u8>, blobs: BTreeMap<u64, Vec<u8>>) -> ComponentStore {
        let mut top = 0;
        walk(&journal, |seq, _, _| top = seq);
        ComponentStore {
            journal,
            blobs,
            next_seq: top + 1,
        }
    }

    /// Appends an incremental update record; returns its sequence number.
    pub fn append_update(&mut self, payload: &[u8]) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        append_record(&mut self.journal, seq, RecordKind::Update, payload);
        seq
    }

    /// Checkpoints the full component state: stores the blob under its
    /// content hash, appends a snapshot reference, and compacts the
    /// journal down to that single reference (pruning unreferenced
    /// blobs). Returns the snapshot's sequence number.
    pub fn checkpoint(&mut self, state: &[u8]) -> u64 {
        let hash = content_hash(state);
        self.blobs.insert(hash, state.to_vec());
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut compacted = MAGIC.to_vec();
        append_record(
            &mut compacted,
            seq,
            RecordKind::Snapshot,
            &snapshot_payload(hash, state.len() as u64),
        );
        self.journal = compacted;
        self.blobs.retain(|&h, _| h == hash);
        seq
    }

    /// Reconstructs the last durable state from the journal's valid
    /// prefix. Infallible by design: damage shrinks the result (down to
    /// a cold start) rather than erroring.
    pub fn recover(&self) -> Recovery<'_> {
        let mut updates = Vec::new();
        // Each snapshot reference with the number of updates before it.
        let mut snapshots = Vec::new();
        let (stop, valid_len) = walk(&self.journal, |_, kind, payload| match kind {
            RecordKind::Update => updates.push(Payload(payload)),
            RecordKind::Snapshot => snapshots.push((updates.len(), payload)),
        });
        // Newest snapshot reference whose blob is present and verifies.
        let chosen = snapshots.iter().rev().find_map(|&(at, payload)| {
            let (hash, len) = parse_snapshot_payload(payload)?;
            let blob = self.blobs.get(&hash)?;
            (blob.len() as u64 == len && content_hash(blob) == hash).then_some((at, blob))
        });
        let mut stats = RecoveryStats {
            discarded_bytes: (self.journal.len() - valid_len) as u64,
            clean: stop == StopReason::Clean,
            ..RecoveryStats::default()
        };
        let state = match chosen {
            Some((at, blob)) => {
                updates.drain(..at);
                stats.snapshot_bytes = blob.len() as u64;
                stats.replayed_records = 1;
                Some(blob.as_slice())
            }
            None => {
                // Updates after the first reference are deltas against the
                // state it stood for, which is gone.
                if let Some(&(first, _)) = snapshots.first() {
                    updates.truncate(first);
                }
                None
            }
        };
        stats.replayed_records += updates.len() as u64;
        stats.update_bytes = updates.iter().map(|u| u.0.len() as u64).sum();
        Recovery {
            state,
            updates,
            stats,
        }
    }

    /// Injects a fault into the journal bytes. Returns `true` when the
    /// fault landed (a truncation shortened the journal / the corrupted
    /// offset was in range).
    pub fn inject(&mut self, fault: JournalFault) -> bool {
        match fault {
            JournalFault::TruncateTail(n) => {
                // Never truncate into the magic: a lost tail cannot
                // un-write the file header that was durable long ago.
                let keep = self.journal.len().saturating_sub(n).max(MAGIC.len());
                let landed = keep < self.journal.len();
                self.journal.truncate(keep);
                landed
            }
            JournalFault::CorruptByte(offset) => {
                let at = MAGIC.len() + offset;
                if at < self.journal.len() {
                    self.journal[at] ^= 0xFF;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The raw journal bytes (magic included).
    pub fn journal(&self) -> &[u8] {
        &self.journal
    }

    /// The snapshot blobs, keyed by content hash.
    pub fn blobs(&self) -> &BTreeMap<u64, Vec<u8>> {
        &self.blobs
    }

    /// Journal length in bytes.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }
}

/// The station-wide store hub: one [`ComponentStore`] per component.
///
/// Lives *outside* the restartable components (the simulation shares it
/// via `Rc`, a real system via the filesystem) so it survives the very
/// restarts it exists to accelerate.
#[derive(Debug, Clone, Default)]
pub struct StateStore {
    components: BTreeMap<String, ComponentStore>,
}

impl StateStore {
    /// An empty hub.
    pub fn new() -> StateStore {
        StateStore::default()
    }

    /// The store for `component`, created empty on first access.
    pub fn component(&mut self, component: &str) -> &mut ComponentStore {
        self.components.entry(component.to_string()).or_default()
    }

    /// Read-only view of a component's store, if it has ever written.
    pub fn get(&self, component: &str) -> Option<&ComponentStore> {
        self.components.get(component)
    }

    /// Drops a component's durable state entirely (administrative reset).
    pub fn clear(&mut self, component: &str) {
        self.components.remove(component);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn payloads<'j>(r: &Recovery<'j>) -> Vec<&'j [u8]> {
        r.updates.iter().map(Payload::as_slice).collect()
    }

    #[test]
    fn empty_store_cold_starts() {
        let s = ComponentStore::new();
        let r = s.recover();
        assert_eq!(r.state, None);
        assert!(r.updates.is_empty());
        assert!(r.stats.clean);
        assert_eq!(r.stats.replayed_records, 0);
    }

    #[test]
    fn checkpoint_then_updates_recovers_exactly() {
        let mut s = ComponentStore::new();
        s.append_update(b"pre-checkpoint noise");
        s.checkpoint(b"STATE-v1");
        s.append_update(b"d1");
        s.append_update(b"d2");
        let r = s.recover();
        assert_eq!(r.state, Some(&b"STATE-v1"[..]));
        assert_eq!(payloads(&r), [b"d1", b"d2"]);
        assert_eq!(r.stats.replayed_records, 3); // snapshot + 2 updates
        assert_eq!(r.stats.snapshot_bytes, 8);
        assert_eq!(r.stats.update_bytes, 4);
        assert!(r.stats.clean);
    }

    #[test]
    fn checkpoint_compacts_journal_and_prunes_blobs() {
        let mut s = ComponentStore::new();
        for i in 0..50 {
            s.append_update(format!("update-{i}").as_bytes());
        }
        let grown = s.journal_len();
        s.checkpoint(b"v1");
        assert!(s.journal_len() < grown, "compaction must shrink");
        s.checkpoint(b"v2");
        assert_eq!(s.blobs().len(), 1, "old snapshot blob pruned");
        assert_eq!(s.recover().state, Some(&b"v2"[..]));
    }

    #[test]
    fn identical_state_is_stored_once() {
        let mut s = ComponentStore::new();
        s.checkpoint(b"same");
        let first = s.recover().state.map(<[u8]>::to_vec);
        s.checkpoint(b"same");
        assert_eq!(s.blobs().len(), 1, "content addressing dedups");
        assert_eq!(s.recover().state, first.as_deref());
    }

    #[test]
    fn torn_tail_falls_back_to_last_durable_prefix() {
        let mut s = ComponentStore::new();
        s.checkpoint(b"base");
        s.append_update(b"keep");
        let durable = s.journal_len();
        s.append_update(b"torn-away-update-payload");
        let torn = s.journal_len() - durable - 4; // leave a partial frame
        assert!(s.inject(JournalFault::TruncateTail(torn)));
        let r = s.recover();
        assert_eq!(r.state, Some(&b"base"[..]));
        assert_eq!(payloads(&r), [b"keep"]);
        assert!(!r.stats.clean);
        assert!(r.stats.discarded_bytes > 0);
    }

    #[test]
    fn corrupt_byte_stops_replay_at_damage() {
        let mut s = ComponentStore::new();
        s.checkpoint(b"base");
        s.append_update(b"good");
        let good_end = s.journal_len() - MAGIC.len();
        s.append_update(b"bad-after-flip");
        assert!(s.inject(JournalFault::CorruptByte(good_end + 10)));
        let r = s.recover();
        assert_eq!(r.state, Some(&b"base"[..]));
        assert_eq!(payloads(&r), [b"good"]);
        assert!(!r.stats.clean);
    }

    #[test]
    fn corrupting_the_snapshot_record_degrades_to_cold_start() {
        let mut s = ComponentStore::new();
        s.checkpoint(b"only-state");
        assert!(s.inject(JournalFault::CorruptByte(2)));
        let r = s.recover();
        assert_eq!(r.state, None, "damaged snapshot ref must not be trusted");
        assert!(r.updates.is_empty());
    }

    #[test]
    fn missing_or_mismatched_blob_is_not_trusted() {
        let mut s = ComponentStore::new();
        s.checkpoint(b"precious");
        s.append_update(b"delta against precious");
        // Tamper with the blob behind the journal's back.
        let hash = *s.blobs().keys().next().unwrap();
        let mut blobs = s.blobs().clone();
        blobs.insert(hash, b"swapped!".to_vec());
        let tampered = ComponentStore::from_parts(s.journal().to_vec(), blobs);
        let gone = ComponentStore::from_parts(s.journal().to_vec(), BTreeMap::new());
        for r in [tampered.recover(), gone.recover()] {
            assert_eq!(r.state, None);
            // The delta's base is gone: a cold start must not replay it.
            assert!(r.updates.is_empty(), "{:?}", r.updates);
            assert_eq!(r.stats.replayed_records, 0);
        }
    }

    #[test]
    fn truncation_never_eats_the_magic() {
        let mut s = ComponentStore::new();
        s.append_update(b"x");
        s.inject(JournalFault::TruncateTail(usize::MAX));
        assert_eq!(s.journal(), MAGIC);
        assert!(s.recover().stats.clean);
    }

    #[test]
    fn from_parts_resumes_sequencing() {
        let mut s = ComponentStore::new();
        s.checkpoint(b"v1");
        s.append_update(b"a");
        let rebuilt = ComponentStore::from_parts(s.journal().to_vec(), s.blobs().clone());
        let mut rebuilt = rebuilt;
        rebuilt.append_update(b"b");
        assert_eq!(payloads(&rebuilt.recover()), [b"a", b"b"]);
    }

    /// `inner` lies within `outer`'s address range.
    fn lies_inside(inner: &[u8], outer: &[u8]) -> bool {
        let outer = outer.as_ptr_range();
        let inner = inner.as_ptr_range();
        outer.start <= inner.start && inner.end <= outer.end
    }

    #[test]
    fn recovery_lends_the_journal_and_the_verified_blob() {
        let mut clean = ComponentStore::new();
        for i in 0..20 {
            clean.append_update(format!("update-{i}").as_bytes());
        }
        let mut torn = clean.clone();
        assert!(torn.inject(JournalFault::TruncateTail(5)));
        let mut checkpointed = clean.clone();
        checkpointed.checkpoint(b"full state");
        for i in 0..20 {
            checkpointed.append_update(format!("delta-{i}").as_bytes());
        }
        for (case, s, updates) in [
            ("clean", &clean, 20),
            ("torn", &torn, 19),
            ("checkpointed", &checkpointed, 20),
        ] {
            let r = s.recover();
            assert_eq!(r.updates.len(), updates, "{case}");
            for u in &r.updates {
                assert!(
                    lies_inside(u.as_slice(), s.journal()),
                    "{case}: a copied update"
                );
            }
            if let Some(state) = r.state {
                let blob = s.blobs().values().next().expect("the verified blob");
                assert!(lies_inside(state, blob), "{case}: a copied state");
            }
        }
        assert!(checkpointed.recover().state.is_some());
    }

    #[test]
    fn hub_isolates_components_and_survives_reset() {
        let mut hub = StateStore::new();
        hub.component("ses").checkpoint(b"ses-state");
        hub.component("str").checkpoint(b"str-state");
        assert_eq!(
            hub.components.keys().collect::<Vec<_>>(),
            vec!["ses", "str"]
        );
        assert_eq!(
            hub.get("ses").unwrap().recover().state,
            Some(&b"ses-state"[..])
        );
        hub.clear("ses");
        assert!(hub.get("ses").is_none());
        assert!(hub.get("str").is_some());
    }
}
