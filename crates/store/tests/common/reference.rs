//! The reference the library's `ComponentStore::recover` is checked
//! against: a verbatim copy of the original two-pass recovery, which
//! collects every frame of the valid prefix, then copies the payloads
//! after the chosen snapshot into owned buffers. The library keeps only
//! the one-pass recovery that lends slices of the journal; this copy lives
//! here so that every verdict of it (state, updates and stats) is compared
//! with a second, independent mechanism.

use rr_store::frame::parse_snapshot_payload;
use rr_store::{content_hash, replay, ComponentStore, RecordKind, RecoveryStats, StopReason};

/// What the reference recovered, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedRecovery {
    pub state: Option<Vec<u8>>,
    pub updates: Vec<Vec<u8>>,
    pub stats: RecoveryStats,
}

/// The original `ComponentStore::recover`, over the public frame replay.
pub fn recover(store: &ComponentStore) -> OwnedRecovery {
    let journal = store.journal();
    let replayed = replay(journal);
    let (stop, valid_len) = (replayed.stop, replayed.valid_len);
    let frames: Vec<(RecordKind, &[u8])> = replayed
        .records
        .iter()
        .map(|r| (r.kind, r.payload))
        .collect();
    let is_snapshot = |&(kind, _): &(RecordKind, &[u8])| kind == RecordKind::Snapshot;
    // Newest snapshot reference whose blob is present and verifies.
    let chosen = frames.iter().enumerate().rev().find_map(|(i, frame)| {
        if !is_snapshot(frame) {
            return None;
        }
        let (hash, len) = parse_snapshot_payload(frame.1)?;
        let blob = store.blobs().get(&hash)?;
        if blob.len() as u64 == len && content_hash(blob) == hash {
            Some((i, blob))
        } else {
            None
        }
    });
    let mut stats = RecoveryStats {
        discarded_bytes: (journal.len() - valid_len) as u64,
        clean: stop == StopReason::Clean,
        ..RecoveryStats::default()
    };
    let (state, replayed) = match chosen {
        Some((i, blob)) => {
            stats.snapshot_bytes = blob.len() as u64;
            stats.replayed_records = 1;
            (Some(blob.clone()), &frames[i + 1..])
        }
        None => {
            let first_snapshot = frames.iter().position(is_snapshot);
            (None, &frames[..first_snapshot.unwrap_or(frames.len())])
        }
    };
    let mut updates = Vec::with_capacity(replayed.len());
    for &(kind, payload) in replayed {
        if kind == RecordKind::Update {
            stats.replayed_records += 1;
            stats.update_bytes += payload.len() as u64;
            updates.push(payload.to_vec());
        }
    }
    OwnedRecovery {
        state,
        updates,
        stats,
    }
}

/// Asserts that the library recovers from `store` exactly what the
/// reference does: the same state, the same updates byte for byte, the
/// same stats.
pub fn assert_recovery_matches_reference(store: &ComponentStore, case: &str) {
    let lib = store.recover();
    let reference = recover(store);
    assert_eq!(lib.state, reference.state.as_deref(), "{case}: state");
    let updates: Vec<&[u8]> = lib.updates.iter().map(|u| u.as_slice()).collect();
    assert_eq!(updates, reference.updates, "{case}: updates");
    assert_eq!(lib.stats, reference.stats, "{case}: stats");
}
