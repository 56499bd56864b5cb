#![allow(clippy::disallowed_methods)]
//! The crash-recovery fixture pair ci.sh runs: a *clean* journal that
//! must replay end to end, and a *torn* journal (crash mid-append, then
//! bit rot further back) that must recover to the last durable prefix.
//!
//! Both fixtures are committed as hex text under `tests/store-fixtures/`
//! and double as a format-stability check: the same build recipe must
//! reproduce the committed bytes exactly, so any unintentional change to
//! the frame layout or CRC shows up as a fixture diff, not as silently
//! unreadable journals in the field. Re-record after an *intentional*
//! format change with `STORE_RECORD=1 cargo test -p rr-store --test
//! crash_fixtures`.

use std::path::PathBuf;

use rr_store::fixture;
use rr_store::{ComponentStore, JournalFault};

mod common;
use common::reference::assert_recovery_matches_reference;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/store-fixtures")
        .join(name)
}

/// The deterministic build recipe behind both fixtures: a session store
/// with one compacted checkpoint and a tail of incremental updates.
fn build_clean() -> ComponentStore {
    let mut s = ComponentStore::new();
    s.append_update(b"ephemeral warmup entry");
    s.checkpoint(b"session: opal pass 17, lock acquired, epoch 4213.7");
    for i in 0..6 {
        s.append_update(format!("track-update {i}: az/el refined").as_bytes());
    }
    s
}

/// The torn twin: the same store after a crash tears the final append
/// and bit rot flips a byte inside the 5th update record.
fn build_torn() -> ComponentStore {
    let mut s = build_clean();
    let before = s.journal_len();
    s.append_update(b"in-flight update lost to the crash");
    let appended = s.journal_len() - before;
    assert!(s.inject(JournalFault::TruncateTail(appended - 7)));
    // Bit rot inside the body of the 5th update (each update frame is
    // 17 + 29 bytes; the snapshot frame is 17 + 16).
    let fifth_update_body = (17 + 16) + 4 * (17 + 29) + 20;
    assert!(s.inject(JournalFault::CorruptByte(fifth_update_body)));
    s
}

fn check_fixture(name: &str, store: &ComponentStore, comment: &str) -> ComponentStore {
    let path = fixture_path(name);
    let text = fixture::encode(store, comment);
    if std::env::var("STORE_RECORD").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path:?} ({e}); record with STORE_RECORD=1"));
    assert_eq!(
        committed, text,
        "{name}: journal format drifted from the committed fixture; if the \
         change is intentional, re-record with STORE_RECORD=1"
    );
    let loaded = fixture::decode(&committed).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_recovery_matches_reference(&loaded, name);
    loaded
}

#[test]
fn clean_fixture_replays_end_to_end() {
    let store = check_fixture(
        "clean.store",
        &build_clean(),
        "Clean journal: one compacted checkpoint + 6 update records.\n\
         Expected: full replay, snapshot + all updates, zero discarded bytes.",
    );
    let r = store.recover();
    assert!(r.stats.clean, "clean journal must parse end to end");
    assert_eq!(r.stats.discarded_bytes, 0);
    assert_eq!(
        r.state,
        Some(&b"session: opal pass 17, lock acquired, epoch 4213.7"[..])
    );
    assert_eq!(r.updates.len(), 6);
    assert_eq!(r.stats.replayed_records, 7); // snapshot + 6 updates
}

#[test]
fn torn_fixture_recovers_to_last_durable_prefix() {
    let store = check_fixture(
        "torn.store",
        &build_torn(),
        "Torn journal: the final append crashed mid-write (partial frame)\n\
         and a byte inside update 5 rotted. Expected: recovery stops at the\n\
         damage — snapshot + 4 updates survive, the rest is discarded.",
    );
    let r = store.recover();
    assert!(!r.stats.clean, "damage must be detected");
    assert!(r.stats.discarded_bytes > 0);
    assert_eq!(
        r.state,
        Some(&b"session: opal pass 17, lock acquired, epoch 4213.7"[..]),
        "the checkpoint predates the damage and must survive"
    );
    assert_eq!(
        r.updates.len(),
        4,
        "updates past the first damaged frame must be discarded"
    );
    assert_eq!(r.stats.replayed_records, 5);
}
