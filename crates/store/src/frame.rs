//! Journal record framing: checksums, encoding, and prefix replay.
//!
//! A journal is a magic header followed by a sequence of CRC-framed
//! records. Each record is fully self-delimiting, so replay needs no
//! external index: it walks frames until the bytes run out or stop
//! checking out, and everything up to that point — the *valid prefix* —
//! is the durable truth. Everything after it (a torn tail from a crash
//! mid-write, or bit rot caught by the CRC) is discarded, never trusted.
//!
//! Frame layout, all integers little-endian:
//!
//! ```text
//! [len: u32] [crc: u32] [seq: u64] [kind: u8] [payload: len bytes]
//! ```
//!
//! `crc` covers `seq || kind || payload`, so a flipped bit anywhere in
//! the semantic content of the record — including its ordering — fails
//! the check. `len` is implicitly covered: a corrupted length either
//! points the CRC window at different bytes (mismatch) or runs past the
//! end of the journal (torn tail).

/// Magic bytes opening every journal (`RRJ` + format version 1).
pub const MAGIC: [u8; 4] = *b"RRJ1";

/// Fixed bytes per record before the payload: len + crc + seq + kind.
const HEADER_LEN: usize = 4 + 4 + 8 + 1;

/// What a journal record carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A content-addressed snapshot reference: the payload is the 8-byte
    /// FNV-1a content hash of the snapshot blob followed by its 8-byte
    /// length (see [`snapshot_payload`]).
    Snapshot,
    /// An incremental state update to replay on top of the last snapshot.
    Update,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Snapshot => 1,
            RecordKind::Update => 2,
        }
    }

    fn from_byte(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Snapshot),
            2 => Some(RecordKind::Update),
            _ => None,
        }
    }
}

/// A decoded journal record, its payload borrowed from the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'j> {
    /// Monotonically increasing sequence number (strictly increasing
    /// within a journal; replay treats a regression as corruption).
    pub seq: u64,
    /// What the record carries.
    pub kind: RecordKind,
    /// The record body.
    pub payload: &'j [u8],
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8.
///
/// In-tree because the workspace resolves fully offline. Each step folds
/// the running CRC into the next eight input bytes and looks all eight up
/// at once, one table per byte position; the last `len % 8` bytes go one
/// at a time through table 0, the classic bytewise loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[usize::from(c[4])]
            ^ t2[usize::from(c[5])]
            ^ t1[usize::from(c[6])]
            ^ t0[usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The slicing-by-8 tables for polynomial `0xEDB88320`, computed at
/// compile time: table 0 is the bytewise table, and table `k` is the CRC
/// of a byte followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// FNV-1a 64-bit content hash, used to address snapshot blobs.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes a snapshot record's payload: content hash + blob length.
pub fn snapshot_payload(hash: u64, blob_len: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(16);
    p.extend_from_slice(&hash.to_le_bytes());
    p.extend_from_slice(&blob_len.to_le_bytes());
    p
}

/// Decodes a snapshot record's payload back into (hash, blob length).
/// Returns `None` when the payload is not the expected 16 bytes.
pub fn parse_snapshot_payload(payload: &[u8]) -> Option<(u64, u64)> {
    if payload.len() != 16 {
        return None;
    }
    let mut hash = [0u8; 8];
    let mut len = [0u8; 8];
    hash.copy_from_slice(&payload[..8]);
    len.copy_from_slice(&payload[8..]);
    Some((u64::from_le_bytes(hash), u64::from_le_bytes(len)))
}

/// Appends one framed record to `journal`, framing it in place: the CRC
/// field is written zeroed, then patched once the body behind it is in.
pub fn append_record(journal: &mut Vec<u8>, seq: u64, kind: RecordKind, payload: &[u8]) {
    let start = journal.len();
    journal.reserve(HEADER_LEN + payload.len());
    journal.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    journal.extend_from_slice(&[0; 4]);
    journal.extend_from_slice(&seq.to_le_bytes());
    journal.push(kind.to_byte());
    journal.extend_from_slice(payload);
    let crc = crc32(&journal[start + 8..]);
    journal[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Why replay stopped before the end of the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every byte parsed cleanly: the journal is whole.
    Clean,
    /// The journal is shorter than its magic header, or the header bytes
    /// are wrong — nothing in it can be trusted.
    BadMagic,
    /// The final frame is incomplete: the classic torn write, a crash
    /// between appending the header and flushing the payload.
    TornTail,
    /// A complete frame failed its CRC, or carried a malformed kind or a
    /// non-increasing sequence number — bit rot or an overwrite.
    CorruptRecord,
}

/// The outcome of replaying a journal's valid prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay<'j> {
    /// The records of the valid prefix, in append order.
    pub records: Vec<Record<'j>>,
    /// Why the walk stopped.
    pub stop: StopReason,
    /// Bytes of the valid prefix (magic included); the journal can be
    /// truncated to this length to discard the damaged tail durably.
    pub valid_len: usize,
    /// Bytes after the valid prefix that were discarded.
    pub discarded_bytes: usize,
}

/// Walks `journal` frame by frame, returning the longest valid prefix.
///
/// Replay never fails: damage is reported in [`Replay::stop`] and the
/// records before it are returned. A journal with bad magic yields no
/// records and a zero-length valid prefix.
pub fn replay(journal: &[u8]) -> Replay<'_> {
    let mut records = Vec::new();
    let (stop, valid_len) = walk(journal, |seq, kind, payload| {
        records.push(Record { seq, kind, payload });
    });
    Replay {
        records,
        stop,
        valid_len,
        discarded_bytes: journal.len() - valid_len,
    }
}

/// The one frame parser: hands each record of the valid prefix to `visit`
/// as `(seq, kind, payload)`, the payload borrowed from `journal`, in
/// append order, and returns why the walk stopped and the length of the
/// valid prefix (0 on bad magic).
pub(crate) fn walk<'j>(
    journal: &'j [u8],
    mut visit: impl FnMut(u64, RecordKind, &'j [u8]),
) -> (StopReason, usize) {
    if journal.get(..MAGIC.len()) != Some(&MAGIC[..]) {
        return (StopReason::BadMagic, 0);
    }
    let mut at = MAGIC.len();
    let mut last_seq: Option<u64> = None;
    let stop = loop {
        let rest = &journal[at..];
        if rest.is_empty() {
            break StopReason::Clean;
        }
        let Some(&[l0, l1, l2, l3, c0, c1, c2, c3, s0, s1, s2, s3, s4, s5, s6, s7, kind]) =
            rest.first_chunk::<HEADER_LEN>()
        else {
            break StopReason::TornTail;
        };
        let frame_len = HEADER_LEN + u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let Some(frame) = rest.get(..frame_len) else {
            break StopReason::TornTail;
        };
        if crc32(&frame[8..]) != u32::from_le_bytes([c0, c1, c2, c3]) {
            break StopReason::CorruptRecord;
        }
        let seq = u64::from_le_bytes([s0, s1, s2, s3, s4, s5, s6, s7]);
        let Some(kind) = RecordKind::from_byte(kind) else {
            break StopReason::CorruptRecord;
        };
        if last_seq.is_some_and(|prev| seq <= prev) {
            break StopReason::CorruptRecord;
        }
        last_seq = Some(seq);
        visit(seq, kind, &frame[HEADER_LEN..]);
        at += frame_len;
    };
    (stop, at)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn content_hash_matches_fnv1a_vectors() {
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn roundtrip_replays_clean() {
        let mut j = MAGIC.to_vec();
        append_record(&mut j, 1, RecordKind::Snapshot, &snapshot_payload(42, 3));
        append_record(&mut j, 2, RecordKind::Update, b"delta");
        let r = replay(&j);
        assert_eq!(r.stop, StopReason::Clean);
        assert_eq!(r.valid_len, j.len());
        assert_eq!(r.discarded_bytes, 0);
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[0].kind, RecordKind::Snapshot);
        assert_eq!(parse_snapshot_payload(r.records[0].payload), Some((42, 3)));
        assert_eq!(r.records[1].payload, b"delta");
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let mut j = MAGIC.to_vec();
        append_record(&mut j, 1, RecordKind::Update, b"first");
        let whole = j.len();
        append_record(&mut j, 2, RecordKind::Update, b"second");
        // Crash mid-write: lose the last 3 bytes of the second frame.
        j.truncate(j.len() - 3);
        let r = replay(&j);
        assert_eq!(r.stop, StopReason::TornTail);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.valid_len, whole);
        assert_eq!(r.discarded_bytes, j.len() - whole);
    }

    #[test]
    fn bit_flip_fails_crc_and_stops_replay() {
        let mut j = MAGIC.to_vec();
        append_record(&mut j, 1, RecordKind::Update, b"aaaa");
        append_record(&mut j, 2, RecordKind::Update, b"bbbb");
        let first_end = MAGIC.len() + HEADER_LEN + 4;
        // Flip a payload bit in the second record.
        j[first_end + HEADER_LEN + 1] ^= 0x40;
        let r = replay(&j);
        assert_eq!(r.stop, StopReason::CorruptRecord);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.valid_len, first_end);
    }

    #[test]
    fn sequence_regression_is_corruption() {
        let mut j = MAGIC.to_vec();
        append_record(&mut j, 5, RecordKind::Update, b"x");
        append_record(&mut j, 5, RecordKind::Update, b"y");
        let r = replay(&j);
        assert_eq!(r.stop, StopReason::CorruptRecord);
        assert_eq!(r.records.len(), 1);
    }

    #[test]
    fn bad_magic_yields_nothing() {
        let r = replay(b"NOPE----");
        assert_eq!(r.stop, StopReason::BadMagic);
        assert!(r.records.is_empty());
        assert_eq!(r.valid_len, 0);
        let r = replay(b"RR");
        assert_eq!(r.stop, StopReason::BadMagic);
    }

    #[test]
    fn corrupted_length_is_caught() {
        let mut j = MAGIC.to_vec();
        append_record(&mut j, 1, RecordKind::Update, b"abcdef");
        append_record(&mut j, 2, RecordKind::Update, b"ghijkl");
        // Inflate the first record's length field: the CRC window shifts
        // (mismatch) or the frame runs off the end (torn tail) — either
        // way the prefix before it is all that survives.
        j[MAGIC.len()] = 0xFF;
        let r = replay(&j);
        assert!(matches!(
            r.stop,
            StopReason::TornTail | StopReason::CorruptRecord
        ));
        assert!(r.records.is_empty());
    }
}
