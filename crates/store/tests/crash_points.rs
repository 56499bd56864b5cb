#![allow(clippy::disallowed_methods)]
//! Every crash point of one journal (ROADMAP 6(a)): recovery from every
//! byte-prefix truncation and every single-bit flip of the image, through
//! `ComponentStore::from_parts`, with the snapshot blob intact, missing and
//! tampered. Public API only; the crash-only requirement of *Microreboot*
//! (PAPERS.md) as a test: whatever the damage, recovery never panics, never
//! returns a record that was not written, and keeps exactly the frames
//! before the damage.
//!
//! `crash_fixtures.rs` pins the format byte for byte; this file pins what
//! recovery makes of every damaged copy of it. At every crash point the
//! library's recovery must also equal the reference's in
//! `common/reference.rs`, byte for byte.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rr_store::frame::{append_record, snapshot_payload, MAGIC};
use rr_store::{content_hash, replay, ComponentStore, RecordKind, Recovery};

mod common;
use common::reference::assert_recovery_matches_reference;

/// The checkpointed state of `crash_fixtures.rs`'s `build_clean()`.
const STATE: &[u8] = b"session: opal pass 17, lock acquired, epoch 4213.7";

/// One update of each length, so every remainder of the CRC's 8-byte loop
/// (and a multi-chunk body) is hit.
const UPDATE_LENS: [usize; 12] = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200];

type Blobs = BTreeMap<u64, Vec<u8>>;

/// The written history and where its frames end.
struct Image {
    journal: Vec<u8>,
    updates: Vec<Vec<u8>>,
    /// Journal length after the magic, after the snapshot reference and
    /// after each update: every frame boundary.
    ends: Vec<usize>,
}

fn image() -> (Image, Blobs) {
    let mut store = ComponentStore::new();
    store.append_update(b"ephemeral warmup entry");
    store.checkpoint(STATE);
    let mut ends = vec![MAGIC.len(), store.journal_len()];
    let updates: Vec<Vec<u8>> = UPDATE_LENS
        .iter()
        .enumerate()
        .map(|(i, &n)| (0..n).map(|b| (i * 37 + b * 11) as u8).collect())
        .collect();
    for u in &updates {
        store.append_update(u);
        ends.push(store.journal_len());
    }
    let img = Image {
        journal: store.journal().to_vec(),
        updates,
        ends,
    };
    (img, store.blobs().clone())
}

/// Loads `journal` and `blobs` into a store, then recovers it as the
/// reference does, without a panic.
fn load(journal: &[u8], blobs: &Blobs, case: &str) -> ComponentStore {
    catch_unwind(AssertUnwindSafe(|| {
        let store = ComponentStore::from_parts(journal.to_vec(), blobs.clone());
        assert_recovery_matches_reference(&store, case);
        store
    }))
    .unwrap_or_else(|_| panic!("{case}: recovery panicked or left the reference"))
}

/// Recovers `store` and checks what holds whatever the damage: valid prefix
/// plus discarded bytes is the whole journal, the updates are a prefix of
/// the written history and the state is the checkpoint or none.
fn recover<'s>(img: &Image, store: &'s ComponentStore, case: &str) -> Recovery<'s> {
    let journal = store.journal();
    let r = store.recover();
    assert_eq!(
        replay(journal).valid_len as u64 + r.stats.discarded_bytes,
        journal.len() as u64,
        "{case}: valid prefix + discarded bytes is not the journal"
    );
    assert!(
        r.updates.len() <= img.updates.len()
            && r.updates
                .iter()
                .zip(&img.updates)
                .all(|(u, w)| u.as_slice() == w),
        "{case}: updates are not a prefix of the written history"
    );
    assert!(
        r.state.is_none() || r.state == Some(STATE),
        "{case}: a state that was never checkpointed"
    );
    r
}

/// Checks that exactly the first `intact` frames (snapshot reference, then
/// updates) came back; `trusted` says whether the blob verifies. Without a
/// verified snapshot nothing after the reference may come back: those
/// updates are deltas against a state that is gone.
fn expect_kept(img: &Image, r: &Recovery, intact: usize, trusted: bool, case: &str) {
    let (state, updates) = if trusted && intact > 0 {
        (Some(STATE), intact - 1)
    } else {
        (None, 0)
    };
    assert_eq!(r.state, state, "{case}: state");
    let kept = r.updates.len();
    let shown = if kept == img.updates.len() {
        "all".to_string()
    } else {
        kept.to_string()
    };
    assert_eq!(kept, updates, "{case} kept {shown}, expected {updates}");
}

#[test]
fn every_truncation_and_bit_flip_recovers_exactly_the_frames_before_it() {
    let (img, blobs) = image();
    assert_eq!(
        img.journal.len(),
        706,
        "the image the enumeration is sized for"
    );
    let hash = content_hash(STATE);
    let variants = [
        ("blob intact", blobs.clone(), true),
        ("blob missing", Blobs::new(), false),
        (
            "blob tampered",
            Blobs::from([(hash, b"swapped".to_vec())]),
            false,
        ),
    ];
    let mut cases = 0;
    for (variant, blobs, trusted) in &variants {
        let mut last_kept = 0;
        for len in 0..=img.journal.len() {
            let case = format!("{variant}, prefix {len}");
            let store = load(&img.journal[..len], blobs, &case);
            let r = recover(&img, &store, &case);
            // A cut on a frame boundary leaves a whole, shorter journal.
            assert_eq!(
                r.stats.clean,
                img.ends.contains(&len),
                "{case}: clean only on a frame boundary"
            );
            let intact = img.ends[1..].iter().filter(|&&end| end <= len).count();
            expect_kept(&img, &r, intact, *trusted, &case);
            assert!(
                r.updates.len() >= last_kept,
                "{case}: fewer updates than a shorter prefix"
            );
            last_kept = r.updates.len();
            cases += 1;
        }
        for at in 0..img.journal.len() {
            for bit in 0..8 {
                let case = format!("{variant}, flip {at}:{bit}");
                let mut journal = img.journal.clone();
                journal[at] ^= 1 << bit;
                let store = load(&journal, blobs, &case);
                let r = recover(&img, &store, &case);
                assert!(!r.stats.clean, "{case}: damage went unnoticed");
                let intact = img.ends[1..].iter().filter(|&&end| end <= at).count();
                expect_kept(&img, &r, intact, *trusted, &case);
                cases += 1;
            }
        }
    }
    println!("crash_points: {cases} cases");
}

/// A journal no checkpoint compacted: updates before, between and after two
/// snapshot references, `A` then `B`. Recovery has to skip the updates
/// before the reference it trusts, and a cold start has to keep exactly
/// those before the first.
fn uncompacted() -> (Vec<u8>, [(u64, Vec<u8>); 2]) {
    let blobs =
        [b"state A".to_vec(), b"state B, longer".to_vec()].map(|blob| (content_hash(&blob), blob));
    let mut journal = MAGIC.to_vec();
    let mut seq = 0;
    let mut append = |kind, payload: &[u8]| {
        seq += 1;
        append_record(&mut journal, seq, kind, payload);
    };
    for (i, (hash, blob)) in blobs.iter().enumerate() {
        for u in 0..2 + i {
            append(RecordKind::Update, format!("before {i}.{u}").as_bytes());
        }
        append(
            RecordKind::Snapshot,
            &snapshot_payload(*hash, blob.len() as u64),
        );
    }
    for u in 0..3 {
        append(RecordKind::Update, format!("after {u}").as_bytes());
    }
    (journal, blobs)
}

#[test]
fn every_crash_point_of_an_uncompacted_journal_recovers_as_the_reference_does() {
    let (journal, [(a, blob_a), (b, blob_b)]) = uncompacted();
    let variants = [
        (
            "both blobs",
            Blobs::from([(a, blob_a.clone()), (b, blob_b.clone())]),
        ),
        ("only A", Blobs::from([(a, blob_a.clone())])),
        ("only B", Blobs::from([(b, blob_b)])),
        (
            "B tampered",
            Blobs::from([(a, blob_a), (b, b"swapped".to_vec())]),
        ),
        ("no blobs", Blobs::new()),
    ];
    let mut cases = 0;
    for (variant, blobs) in &variants {
        for len in 0..=journal.len() {
            load(&journal[..len], blobs, &format!("{variant}, prefix {len}"));
            cases += 1;
        }
        for at in 0..journal.len() {
            for bit in 0..8 {
                let mut flipped = journal.clone();
                flipped[at] ^= 1 << bit;
                load(&flipped, blobs, &format!("{variant}, flip {at}:{bit}"));
                cases += 1;
            }
        }
    }
    println!("uncompacted crash points: {cases} cases");
}
