//! `store_journal`: appends beside recoveries on `rr_store::ComponentStore`,
//! with two record sizes, clean and damaged journals, and a checkpointed one.
//! Only the store call is timed, nothing around it.

use std::hash::{DefaultHasher, Hash, Hasher};

use rr_store::{crc32, replay, ComponentStore, JournalFault, Recovery, RecoveryStats};

use super::{median, per, Outcome, Workload};
use crate::trace::Tracer;

const SMALL_RECORDS: u64 = 500_000;
const SMALL_BYTES: usize = 64;
const LARGE_RECORDS: u64 = 40_000;
const LARGE_BYTES: usize = 1024;
const CHECKPOINT_STATE_BYTES: usize = 512 * 1024;
const CHECKPOINT_UPDATES: u64 = 10_000;
/// The second journal length, recovered alone: recovery is not linear in it.
const SHORT_RECORDS: u64 = 50_000;
const MB: f64 = 1e6;

/// Seed-drawn bytes that every payload is a window of.
struct Pool {
    bytes: Vec<u8>,
}

impl Pool {
    fn new(seed: u64) -> Pool {
        let mut rng = rr_sim::SimRng::new(seed ^ 0x5703E);
        let bytes = (0..(1 << 17) + LARGE_BYTES)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        Pool { bytes }
    }

    /// The `index`-th payload of a journal of `len`-byte records.
    fn payload(&self, index: u64, len: usize) -> &[u8] {
        let windows = (self.bytes.len() - len) as u64;
        let at = (index.wrapping_mul(0x9E37_79B9_7F4A_7C15) % windows) as usize;
        &self.bytes[at..at + len]
    }
}

/// One journal's spans: append, then recover clean, torn and corrupted.
struct JournalSpans {
    append: &'static str,
    recover: [&'static str; 3],
}

const SMALL_SPANS: JournalSpans = JournalSpans {
    append: "store.append_update.64B",
    recover: [
        "store.recover.64B_clean",
        "store.recover.64B_torn",
        "store.recover.64B_corrupt",
    ],
};
const LARGE_SPANS: JournalSpans = JournalSpans {
    append: "store.append_update.1KiB",
    recover: [
        "store.recover.1KiB_clean",
        "store.recover.1KiB_torn",
        "store.recover.1KiB_corrupt",
    ],
};

/// Totals of one repetition.
#[derive(Default)]
struct Tally {
    digest: DefaultHasher,
    attempted: u64,
    failed: u64,
    append_s: f64,
    append_bytes: u64,
    recover_s: f64,
    recover_bytes: u64,
    replayed_records: u64,
    discarded_bytes: u64,
}

/// What a recovery must return: the first payloads of a journal of
/// `written` records of `len` bytes, all of them exactly when `whole`, on
/// top of `state`.
#[derive(Clone, Copy)]
struct Expect<'a> {
    len: usize,
    written: u64,
    whole: bool,
    state: Option<&'a [u8]>,
}

/// One repetition in progress.
struct Pass<'a> {
    pool: &'a Pool,
    t: &'a mut Tracer,
    tally: Tally,
}

impl Pass<'_> {
    fn append(&mut self, store: &mut ComponentStore, records: u64, len: usize, span: &'static str) {
        let before = store.journal_len();
        let open = self.t.enter(span);
        for index in 0..records {
            store.append_update(self.pool.payload(index, len));
        }
        self.tally.append_s += self.t.exit(open, records).as_secs_f64();
        self.tally.append_bytes += (store.journal_len() - before) as u64;
    }

    /// Times one `recover()` and checks what it returned.
    fn recover(&mut self, store: &ComponentStore, span: &'static str, expect: Expect<'_>) {
        let tally = &mut self.tally;
        let bytes = store.journal_len() as u64;
        let open = self.t.enter(span);
        let recovery = store.recover();
        tally.recover_s += self.t.exit(open, bytes).as_secs_f64();
        tally.recover_bytes += bytes;

        let open = self.t.enter("bench.verify");
        let Recovery {
            state,
            updates,
            stats,
        } = &recovery;
        let got = updates.len() as u64;
        let history_ok = updates
            .iter()
            .enumerate()
            .all(|(i, u)| u.as_slice() == self.pool.payload(i as u64, expect.len));
        let extent_ok = if expect.whole {
            got == expect.written && stats.clean && stats.discarded_bytes == 0
        } else {
            got < expect.written && !stats.clean && stats.discarded_bytes > 0
        };
        tally.attempted += 1;
        if !(history_ok && extent_ok && state.as_deref() == expect.state) {
            tally.failed += 1;
        }
        let RecoveryStats {
            replayed_records,
            snapshot_bytes,
            update_bytes,
            discarded_bytes,
            clean,
        } = *stats;
        tally.replayed_records += replayed_records;
        tally.discarded_bytes += discarded_bytes;
        // The bytes were just compared with the written history, so the
        // digest only has to pin how much of it came back.
        (
            replayed_records,
            snapshot_bytes,
            update_bytes,
            discarded_bytes,
            clean,
            got,
        )
            .hash(&mut tally.digest);
        self.t.exit(open, 0);
        self.t.time("store.recovery_drop", || drop(recovery));
    }

    /// Append, recover, tear the tail, recover, flip a byte three quarters
    /// of the way in, recover.
    fn journal(&mut self, records: u64, len: usize, spans: &JournalSpans) {
        let mut expect = Expect {
            len,
            written: records,
            whole: true,
            state: None,
        };
        let mut store = ComponentStore::new();
        self.append(&mut store, records, len, spans.append);
        self.recover(&store, spans.recover[0], expect);
        expect.whole = false;
        store.inject(JournalFault::TruncateTail(37));
        self.recover(&store, spans.recover[1], expect);
        store.inject(JournalFault::CorruptByte(store.journal_len() / 4 * 3));
        self.recover(&store, spans.recover[2], expect);
        self.t.time("store.store_drop", || drop(store));
    }
}

pub struct StoreJournal {
    pool: Pool,
    scale_div: u64,
    /// `RecoveryStats` totals of the last repetition.
    replayed_records: u64,
    discarded_bytes: u64,
}

impl StoreJournal {
    pub fn new(seed: u64, scale_div: u64) -> StoreJournal {
        StoreJournal {
            pool: Pool::new(seed),
            scale_div,
            replayed_records: 0,
            discarded_bytes: 0,
        }
    }

    fn run(&self, div: u64, t: &mut Tracer) -> (Outcome, Tally) {
        let root = t.enter("bench.repetition");
        let sized = |n: u64| (n / div).max(10);
        let mut pass = Pass {
            pool: &self.pool,
            t,
            tally: Tally::default(),
        };
        pass.journal(sized(SMALL_RECORDS), SMALL_BYTES, &SMALL_SPANS);
        pass.journal(sized(LARGE_RECORDS), LARGE_BYTES, &LARGE_SPANS);

        let mut store = ComponentStore::new();
        let state = self.pool.payload(7, CHECKPOINT_STATE_BYTES);
        store.append_update(self.pool.payload(0, SMALL_BYTES));
        pass.t.time("store.checkpoint", || store.checkpoint(state));
        let updates = sized(CHECKPOINT_UPDATES);
        pass.append(
            &mut store,
            updates,
            SMALL_BYTES,
            "store.append_update.checkpointed",
        );
        let expect = Expect {
            len: SMALL_BYTES,
            written: updates,
            whole: true,
            state: Some(state),
        };
        pass.recover(&store, "store.recover.checkpointed", expect);
        drop(store);
        let tally = pass.tally;
        t.exit(root, 0);

        let moved_mb = (tally.append_bytes + tally.recover_bytes) as f64 / MB;
        let out = Outcome {
            digest: tally.digest.finish(),
            attempted: tally.attempted,
            failed: tally.failed,
            units: moved_mb,
            values: vec![
                (
                    "append_mb_per_s",
                    tally.append_bytes as f64 / MB / tally.append_s,
                ),
                (
                    "recover_mb_per_s",
                    tally.recover_bytes as f64 / MB / tally.recover_s,
                ),
            ],
        };
        (out, tally)
    }
}

impl Workload for StoreJournal {
    fn warm_up(&mut self) -> Outcome {
        self.run(self.scale_div * 5, &mut Tracer::new()).0
    }

    fn repetition(&mut self, t: &mut Tracer) -> Outcome {
        let (out, tally) = self.run(self.scale_div, t);
        self.replayed_records = tally.replayed_records;
        self.discarded_bytes = tally.discarded_bytes;
        out
    }

    /// A journal a fifth as long, and `replay` and `crc32` alone on the same
    /// bytes.
    fn probes(&mut self, t: &mut Tracer) -> (u64, u64) {
        let root = t.enter("bench.short_journal_probe");
        let mut store = ComponentStore::new();
        let records = (SHORT_RECORDS / self.scale_div).max(10);
        for index in 0..records {
            store.append_update(self.pool.payload(index, SMALL_BYTES));
        }
        let bytes = store.journal_len() as u64;
        let mut failed = 0;
        for _ in 0..5 {
            let open = t.enter("store.recover.64B_short");
            let recovery = store.recover();
            t.exit(open, bytes);
            failed += u64::from(recovery.updates.len() as u64 != records);
            let open = t.enter("store.frame_replay");
            let replayed = replay(store.journal());
            t.exit(open, bytes);
            failed += u64::from(replayed.records.len() as u64 != records);
            let open = t.enter("store.frame_crc32");
            let crc = crc32(store.journal());
            t.exit(open, bytes);
            std::hint::black_box(crc);
        }
        t.exit(root, 0);
        (10, failed)
    }

    fn layer_metrics(&self, t: &Tracer) -> Vec<(&'static str, f64)> {
        let ms = |name: &str| median(&t.durations_s(name)) * 1e3;
        let ns_per_record = |name: &str| {
            let (s, records) = t.totals(name);
            per(s * 1e9, records)
        };
        let mb_per_s = |name: &str| {
            let (s, bytes) = t.totals(name);
            if s == 0.0 {
                0.0
            } else {
                bytes as f64 / MB / s
            }
        };
        vec![
            (
                "store.append_ns_per_record.64B",
                ns_per_record(SMALL_SPANS.append),
            ),
            (
                "store.append_ns_per_record.1KiB",
                ns_per_record(LARGE_SPANS.append),
            ),
            ("store.recover_ms.64B_clean", ms(SMALL_SPANS.recover[0])),
            ("store.recover_ms.64B_torn", ms(SMALL_SPANS.recover[1])),
            ("store.recover_ms.64B_corrupt", ms(SMALL_SPANS.recover[2])),
            ("store.recover_ms.1KiB_clean", ms(LARGE_SPANS.recover[0])),
            ("store.recover_ms.1KiB_torn", ms(LARGE_SPANS.recover[1])),
            ("store.recover_ms.1KiB_corrupt", ms(LARGE_SPANS.recover[2])),
            (
                "store.recover_ms.checkpointed",
                ms("store.recover.checkpointed"),
            ),
            (
                "store.recover_mb_per_s.64B_500k",
                mb_per_s(SMALL_SPANS.recover[0]),
            ),
            (
                "store.recover_mb_per_s.64B_50k",
                mb_per_s("store.recover.64B_short"),
            ),
            ("store.replay_mb_per_s", mb_per_s("store.frame_replay")),
            ("store.crc32_mb_per_s", mb_per_s("store.frame_crc32")),
            ("store.checkpoint_ms", ms("store.checkpoint")),
            ("store.replayed_records", self.replayed_records as f64),
            ("store.discarded_bytes", self.discarded_bytes as f64),
        ]
    }
}
