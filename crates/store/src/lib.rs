//! Crash-safe component state store for the recursive-restartability
//! testbed: a CRC-framed append-only write-ahead journal plus
//! content-addressed snapshots, so a restarting component can
//! *rehydrate* to its last durable state instead of cold-booting.
//!
//! The paper's components are stateless-restartable by construction; in
//! the reproduction, real recovery time is dominated by re-deriving
//! lost in-flight state (the ses/str resync of §4.3 is the stand-in).
//! This crate makes that state durable so the *restart vs. rehydrate*
//! trade-off becomes a policy knob rather than an architectural given:
//!
//! * [`frame`] — record framing: CRC-32 frames, FNV-1a content hashes,
//!   and prefix replay that discards torn tails and bit rot.
//! * [`store`] — [`ComponentStore`] (journal + blobs + compaction +
//!   fault injection) and the station-wide [`StateStore`] hub.
//! * [`fixture`] — hex text serialization for committed crash-recovery
//!   fixtures.
//!
//! Design invariants (DESIGN.md §15):
//!
//! 1. **Prefix durability** — recovery trusts exactly the journal's
//!    longest valid prefix; bytes past the first damage are discarded.
//! 2. **Verified snapshots** — a snapshot reference is only honoured if
//!    its blob is present and re-hashes to the recorded content hash.
//! 3. **Graceful degradation** — damage shrinks the recovered state
//!    (fewer updates, older snapshot, or a cold start); it never
//!    produces wrong state or an error the caller must handle.
//! 4. **Bounded growth** — checkpointing compacts the journal to the
//!    new snapshot reference and prunes unreferenced blobs.

#![warn(missing_docs)]

pub mod fixture;
pub mod frame;
pub mod store;

pub use frame::{content_hash, crc32, replay, Record, RecordKind, Replay, StopReason};
pub use store::{ComponentStore, JournalFault, Payload, Recovery, RecoveryStats, StateStore};
