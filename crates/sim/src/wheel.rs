//! A hierarchical timing wheel: the simulator's event queue.
//!
//! The engine's previous queue was a `BinaryHeap`, which pays an `O(log n)`
//! sift of ~48-byte elements on every push **and** every pop, with the
//! comparisons chasing cache lines all the way down. A timing wheel files
//! each event into a bucket chosen by simple bit arithmetic — `O(1)` pushes,
//! amortized `O(1)` pops — which is what makes a 100k-timer simulation run
//! at memory speed instead of comparison speed.
//!
//! ## Layout
//!
//! Virtual time is quantized into **ticks** of `2^16` ns (~65.5 µs). The
//! wheel has `LEVELS` = 6 levels of `SLOTS` = 64 slots; level `L` slot
//! `i` holds entries whose tick agrees with the current tick above bit
//! `6·(L+1)` and has `i` in bits `[6L, 6L+6)` — i.e. slots are indexed by
//! *absolute* tick bits, not relative offsets, so re-filing needs no index
//! arithmetic. Six levels cover `2^36` ticks ≈ 52 days of virtual time;
//! anything farther out goes to a **calendar overflow rung** (a plain vec,
//! re-filed wholesale on the rare occasion the horizon catches up — the
//! classic calendar-queue fallback).
//!
//! Per-level occupancy bitmaps (`u64`, one bit per slot) make "find the next
//! non-empty slot" a single `trailing_zeros`. Payloads are stored **inline**
//! in the bucket entries: cascades move whole entries, but those moves are
//! sequential and prefetch-friendly, whereas an out-of-line slab costs a
//! random (cache-missing) read on every pop — at 10^5–10^6 pending events
//! the streaming copies are measurably cheaper than the pointer chase.
//!
//! ## Ordering
//!
//! Pop order is **exactly** `(time, seq)` — identical to the reference
//! `BinaryHeap` ordering the engine used before (`seq` is the schedule-order
//! tiebreak that makes simulations deterministic). Within-tick ordering is
//! exact, not just FIFO-per-tick, and the current tick is held in two parts:
//!
//! - `current`, the bucket the wheel advanced into: a level-0 slot moved in
//!   by pointer swap, or whatever a cascade filed into the new tick, sorted
//!   by `(time, seq)` once on arrival;
//! - `arrivals`, a min-heap of entries scheduled at or before the current
//!   tick *after* it was entered — every `Start` of `Sim::spawn`, every
//!   zero-delay send or respawn. A same-tick schedule costs `O(log n)` (and
//!   `O(1)` for the usual rising-seq burst); a sorted insert into `current`
//!   would shift the whole bucket each time, making an n-actor spawn
//!   `O(n²)`.
//!
//! A pop takes the smaller of the two heads; while `arrivals` is empty
//! (most pops) that is one branch and one `Vec::pop`. A differential
//! property suite (`crates/sim/tests/wheel_differential.rs`) drives this
//! wheel and the reference heap with identical randomized
//! schedule/cancel/drain interleavings and asserts identical behaviour.
//!
//! Cancellation is lazy: [`TimerWheel::cancel`] records a tombstone and the
//! entry is discarded when its bucket drains — the engine itself never
//! cancels, but chaos harnesses and the differential suite do. Cancellation
//! is **idempotent**: cancelling a seq that was already popped, already
//! cancelled, or never scheduled is a no-op. The wheel keeps a live-seq
//! index to decide that, but builds it only on the *first* cancel — until
//! then schedules and pops pay no hash traffic for it, so the engine's
//! no-cancel hot path is unchanged.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::hash::FxHashMap;
use crate::time::SimTime;

/// log2 of the tick length in nanoseconds (one tick = 65.536 µs).
const TICK_BITS: u32 = 16;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; `SLOT_BITS * LEVELS` bits of tick are representable.
const LEVELS: usize = 6;
/// Mask of the in-wheel tick bits; ticks differing from `now` beyond this
/// go to the overflow rung.
const HORIZON_MASK: u64 = (1 << (SLOT_BITS * LEVELS as u32)) - 1;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;

/// Drained slot buffers above this capacity (in entries) are freed rather
/// than recycled. Recycling keeps the steady-state hot path allocation-free,
/// but without a cap every slot ratchets toward its historical peak
/// occupancy and a long churn workload at millions of pending events ends
/// up thrashing caches over hundreds of idle megabytes. The value trades
/// idle footprint against allocator traffic: measured at 4M pending events
/// it beats both a tight 1k cap (which frees and re-faults the multi-MB
/// cascade buckets every rotation) and a 256k cap (which hoards them).
const RECYCLE_CAP: usize = 16_384;

/// A bucketed entry with its payload inline (see the module docs for why
/// inline beats an out-of-line slab here).
#[derive(Debug)]
struct Entry<T> {
    /// Exact event time in nanoseconds (not quantized).
    time: u64,
    /// Schedule-order tiebreak; unique per entry.
    seq: u64,
    /// The scheduled payload.
    value: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
    #[inline]
    fn tick(&self) -> u64 {
        self.time >> TICK_BITS
    }
}

/// An entry in the `arrivals` heap, ordered by reversed `(time, seq)` so
/// that `BinaryHeap`'s maximum is the earliest entry.
#[derive(Debug)]
struct Arrival<T>(Entry<T>);

impl<T> Ord for Arrival<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

impl<T> PartialOrd for Arrival<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Arrival<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl<T> Eq for Arrival<T> {}

/// The hierarchical timing wheel. See the module docs for the layout.
///
/// `seq` values passed to [`schedule`](TimerWheel::schedule) must be unique
/// among the *live* entries (the engine uses its monotone event counter);
/// re-using a seq after its entry popped or was cancelled is legal.
/// [`cancel`](TimerWheel::cancel) is idempotent: cancelling a seq that is
/// not live (already popped, already cancelled, never scheduled) is a no-op.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// Tick up to which events have been migrated into `current`.
    now_tick: u64,
    /// Entries with tick ≤ `now_tick` that were filed while the wheel
    /// advanced into that tick, sorted by `(time, seq)` descending so the
    /// minimum pops from the end.
    current: Vec<Entry<T>>,
    /// Entries scheduled at tick ≤ `now_tick` after the wheel advanced into
    /// it; a min-heap on `(time, seq)`. Empty whenever the wheel advances.
    arrivals: BinaryHeap<Arrival<T>>,
    /// Flat `[level][slot]` buckets (index `level·SLOTS + slot`), unsorted.
    /// Flattening removes a pointer chase on every file and cascade.
    slots: Vec<Vec<Entry<T>>>,
    /// One occupancy bit per slot per level.
    occupancy: [u64; LEVELS],
    /// Beyond-horizon entries, unsorted.
    overflow: Vec<Entry<T>>,
    /// Minimum tick in `overflow` (meaningless when `overflow` is empty).
    overflow_min: u64,
    /// Tombstones for lazily-deleted entries, keyed by the entry's exact
    /// `(time, seq)` so a tombstone can never strike a *re-scheduled* entry
    /// that reuses a cancelled seq at a different time. Counted, because a
    /// cancel → reinsert-at-the-same-time → cancel chain produces two
    /// pending tombstones with the same key.
    cancelled: FxHashMap<(u64, u64), u32>,
    /// Live-seq index (`seq → time`), built lazily by the first [`cancel`]
    /// and maintained from then on. `None` until a cancel happens, so the
    /// no-cancel hot path pays one predictable branch and no hash ops.
    ///
    /// [`cancel`]: TimerWheel::cancel
    live: Option<FxHashMap<u64, u64>>,
    /// Live (scheduled, not yet popped or cancelled) entry count.
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel positioned at `t = 0`.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            now_tick: 0,
            current: Vec::new(),
            arrivals: BinaryHeap::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            cancelled: FxHashMap::default(),
            live: None,
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `value` at `time` with tiebreak `seq`.
    ///
    /// Times at or before the last popped event are legal and keep exact
    /// `(time, seq)` pop order. One due in the current tick goes to the
    /// `arrivals` heap in `O(log n)` — `O(1)` when its key is the largest
    /// there, as it is for a burst at one time with rising `seq`; later
    /// ticks go to a wheel slot in `O(1)`.
    pub fn schedule(&mut self, time: SimTime, seq: u64, value: T) {
        self.len += 1;
        if let Some(live) = self.live.as_mut() {
            live.insert(seq, time.as_nanos());
        }
        self.file(Entry {
            time: time.as_nanos(),
            seq,
            value,
        });
    }

    /// Lazily cancels the entry scheduled with `seq`.
    ///
    /// Idempotent: if `seq` is not live — already popped, already cancelled,
    /// or never scheduled — this is a no-op and the length accounting is
    /// untouched. The cancelled entry's payload is dropped when its bucket
    /// drains; re-scheduling the same seq afterwards (even in the same tick)
    /// creates a fresh live entry the old tombstone cannot strike.
    ///
    /// The first cancel on a wheel builds the live-seq index with one O(n)
    /// sweep over the buckets; later cancels are O(1).
    pub fn cancel(&mut self, seq: u64) {
        if self.live.is_none() {
            // Tombstones only ever exist after a cancel, so on the first
            // cancel every physical entry is live.
            debug_assert!(self.cancelled.is_empty());
            let index = self
                .current
                .iter()
                .chain(self.arrivals.iter().map(|a| &a.0))
                .chain(self.slots.iter().flatten())
                .chain(self.overflow.iter())
                .map(|e| (e.seq, e.time))
                .collect();
            self.live = Some(index);
        }
        if let Some(time) = self.live.as_mut().and_then(|live| live.remove(&seq)) {
            *self.cancelled.entry((time, seq)).or_insert(0) += 1;
            self.len -= 1;
        }
    }

    /// Consumes one pending tombstone for `key`, if any.
    fn take_tombstone(&mut self, key: (u64, u64)) -> bool {
        match self.cancelled.get_mut(&key) {
            Some(count) => {
                *count -= 1;
                if *count == 0 {
                    self.cancelled.remove(&key);
                }
                true
            }
            None => false,
        }
    }

    /// The `(time, seq)` of the next live entry, without removing it.
    ///
    /// Takes `&mut self` because finding the next entry may cascade buckets
    /// and discard tombstoned entries; neither affects observable order.
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        self.head()
            .map(|(key, _)| (SimTime::from_nanos(key.0), key.1))
    }

    /// The key of the next live entry and whether it heads `arrivals`
    /// (`false`: `current`), advancing the wheel and discarding tombstoned
    /// heads until one is found.
    fn head(&mut self) -> Option<((u64, u64), bool)> {
        loop {
            self.refile_overflow();
            loop {
                let current = self.current.last().map(Entry::key);
                let arrival = self.arrivals.peek().map(|a| a.0.key());
                // On a tie `current` goes first: it was filed earlier, so the
                // tombstone of a cancel-then-reinsert strikes the old entry.
                let (key, in_arrivals) = match (current, arrival) {
                    (Some(c), Some(a)) if a < c => (a, true),
                    (Some(c), _) => (c, false),
                    (None, Some(a)) => (a, true),
                    (None, None) => break,
                };
                // `is_empty` first: the no-cancellation case (the engine
                // never cancels) must not pay a hash probe per pop.
                if !self.cancelled.is_empty() && self.take_tombstone(key) {
                    // Tombstoned: drop the entry (and its payload) here.
                    self.take_head(in_arrivals);
                } else {
                    return Some((key, in_arrivals));
                }
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Removes the head of `arrivals` or of `current`, as [`head`] chose.
    ///
    /// [`head`]: TimerWheel::head
    fn take_head(&mut self, in_arrivals: bool) -> Entry<T> {
        let e = if in_arrivals {
            self.arrivals.pop().map(|a| a.0)
        } else {
            self.current.pop()
        };
        e.unwrap_or_else(|| unreachable!("head() found a live head"))
    }

    /// The time of the next live entry (see [`TimerWheel::peek`]).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek().map(|(t, _)| t)
    }

    /// Removes and returns the next entry in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes and returns the next entry if it is due at or before
    /// `deadline`; `None`, removing nothing, if it is later or there is none.
    ///
    /// One call finds the head once, where [`peek_time`] followed by
    /// [`pop`] finds it twice.
    ///
    /// [`peek_time`]: TimerWheel::peek_time
    /// [`pop`]: TimerWheel::pop
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64, T)> {
        let ((time, _), in_arrivals) = self.head()?;
        if time > deadline.as_nanos() {
            return None;
        }
        let e = self.take_head(in_arrivals);
        self.len -= 1;
        if let Some(live) = self.live.as_mut() {
            live.remove(&e.seq);
        }
        Some((SimTime::from_nanos(e.time), e.seq, e.value))
    }

    /// Files an entry relative to `now_tick`.
    fn file(&mut self, e: Entry<T>) {
        let t = e.tick();
        if t <= self.now_tick {
            self.arrivals.push(Arrival(e));
            return;
        }
        let diff = t ^ self.now_tick;
        if diff > HORIZON_MASK {
            self.overflow_min = self.overflow_min.min(t);
            self.overflow.push(e);
            return;
        }
        // Highest differing bit picks the level; the tick's own bits at that
        // level pick the slot.
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((t >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.slots[(level << SLOT_BITS) | slot].push(e);
        self.occupancy[level] |= 1 << slot;
    }

    /// Moves overflow entries that now fit the wheel (or are already due)
    /// into their proper buckets.
    fn refile_overflow(&mut self) {
        if self.overflow.is_empty() {
            return;
        }
        // If the minimum does not fit, nothing does: all overflow ticks are
        // ≥ the minimum, and "fits" means sharing the current 2^36-tick
        // block, which is upward-closed between now and any larger tick.
        let fits = self.overflow_min <= self.now_tick
            || (self.overflow_min ^ self.now_tick) <= HORIZON_MASK;
        if !fits {
            return;
        }
        let drained = std::mem::take(&mut self.overflow);
        self.overflow_min = u64::MAX;
        for e in drained {
            let t = e.tick();
            if t > self.now_tick && (t ^ self.now_tick) > HORIZON_MASK {
                self.overflow_min = self.overflow_min.min(t);
                self.overflow.push(e);
            } else {
                self.file(e);
            }
        }
    }

    /// Advances `now_tick` to the next occupied tick and migrates that
    /// bucket toward `current`. Returns `false` when the wheel is empty.
    /// Only called with `current` and `arrivals` empty.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty() && self.arrivals.is_empty());
        for level in 0..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let cur_idx = ((self.now_tick >> shift) & SLOT_MASK) as u32;
            // The slot holding `now_tick` itself is always empty at every
            // level (level 0 drains it; higher levels cannot index it), so
            // search strictly above.
            let above = if cur_idx == 63 {
                0
            } else {
                !0u64 << (cur_idx + 1)
            };
            let occ = self.occupancy[level] & above;
            if occ == 0 {
                continue;
            }
            let slot = occ.trailing_zeros() as usize;
            // Take the bucket but give its (emptied) buffer back afterwards:
            // slot vectors are drained and refilled constantly in steady
            // state, and recycling their capacity keeps the hot path free of
            // allocator traffic. Re-filing during the drain never targets
            // the slot being drained (cascades only move entries to strictly
            // lower levels), so the temporary empty bucket is never visible.
            let mut entries = std::mem::take(&mut self.slots[(level << SLOT_BITS) | slot]);
            self.occupancy[level] &= !(1 << slot);
            if level == 0 {
                // A level-0 slot holds exactly one tick, and `current` is
                // empty here (advance only runs once it has drained), so the
                // whole bucket moves by pointer swap — no per-entry copies.
                self.now_tick = ((self.now_tick >> SLOT_BITS) << SLOT_BITS) | slot as u64;
                std::mem::swap(&mut self.current, &mut entries);
                if self.current.len() > 1 {
                    self.current
                        .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                }
            } else {
                // Cascade: jump to the slot's earliest tick and re-file its
                // entries one level (or more) down; the earliest lands in
                // `current`, sorted once rather than heap-pushed one by one.
                let min_tick = entries
                    .iter()
                    .map(Entry::tick)
                    .min()
                    .unwrap_or_else(|| unreachable!("occupied slot is non-empty"));
                self.now_tick = min_tick;
                for e in entries.drain(..) {
                    if e.tick() == min_tick {
                        self.current.push(e);
                    } else {
                        self.file(e);
                    }
                }
                self.current
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            }
            if entries.capacity() > RECYCLE_CAP {
                entries = Vec::new();
            }
            self.slots[(level << SLOT_BITS) | slot] = entries;
            return true;
        }
        if !self.overflow.is_empty() {
            // Whole wheel drained: jump the horizon to the overflow rung.
            self.now_tick = self.overflow_min;
            self.refile_overflow();
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.schedule(t(500), 0, "a");
        w.schedule(t(100), 1, "b");
        w.schedule(t(100), 2, "c");
        w.schedule(t(90_000_000), 3, "d");
        assert_eq!(w.pop(), Some((t(100), 1, "b")));
        assert_eq!(w.pop(), Some((t(100), 2, "c")));
        assert_eq!(w.pop(), Some((t(500), 0, "a")));
        assert_eq!(w.pop(), Some((t(90_000_000), 3, "d")));
        assert_eq!(w.pop(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_orders_by_exact_time() {
        // Two events in the same 65.5 µs tick must still order by exact
        // nanosecond time.
        let mut w = TimerWheel::new();
        w.schedule(t(60_000), 0, "late");
        w.schedule(t(1_000), 1, "early");
        assert_eq!(w.pop(), Some((t(1_000), 1, "early")));
        assert_eq!(w.pop(), Some((t(60_000), 0, "late")));
    }

    #[test]
    fn far_future_goes_through_overflow() {
        let mut w = TimerWheel::new();
        // ~58 days: beyond the 52-day wheel horizon.
        let far = 5_000_000 * 1_000_000_000u64;
        w.schedule(t(far), 0, "far");
        w.schedule(t(10), 1, "near");
        assert_eq!(w.pop(), Some((t(10), 1, "near")));
        assert_eq!(w.peek_time(), Some(t(far)));
        assert_eq!(w.pop(), Some((t(far), 0, "far")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn overflow_interleaves_with_wheel_entries() {
        let mut w = TimerWheel::new();
        let far = 5_000_000 * 1_000_000_000u64;
        w.schedule(t(far + 5), 0, "far+5");
        w.schedule(t(10), 1, "near");
        assert_eq!(w.pop(), Some((t(10), 1, "near")));
        // Scheduled after the far entry but earlier in time: must pop first.
        w.schedule(t(far), 2, "far");
        assert_eq!(w.pop(), Some((t(far), 2, "far")));
        assert_eq!(w.pop(), Some((t(far + 5), 0, "far+5")));
    }

    #[test]
    fn cancel_removes_entries_lazily() {
        let mut w = TimerWheel::new();
        w.schedule(t(100), 0, "a");
        w.schedule(t(200), 1, "b");
        w.schedule(t(300), 2, "c");
        w.cancel(1);
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop(), Some((t(100), 0, "a")));
        assert_eq!(w.pop(), Some((t(300), 2, "c")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn cancel_after_pop_is_a_noop() {
        let mut w = TimerWheel::new();
        w.schedule(t(100), 0, "a");
        w.schedule(t(200), 1, "b");
        assert_eq!(w.pop(), Some((t(100), 0, "a")));
        // Seq 0 already popped: cancelling it must not touch the accounting.
        w.cancel(0);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((t(200), 1, "b")));
        assert_eq!(w.pop(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn double_cancel_is_a_noop() {
        let mut w = TimerWheel::new();
        w.schedule(t(100), 0, "a");
        w.schedule(t(200), 1, "b");
        w.cancel(0);
        w.cancel(0);
        w.cancel(0);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((t(200), 1, "b")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn cancel_of_unknown_seq_is_a_noop() {
        let mut w = TimerWheel::new();
        w.cancel(99);
        assert!(w.is_empty());
        w.schedule(t(100), 0, "a");
        w.cancel(99);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((t(100), 0, "a")));
    }

    #[test]
    fn cancel_then_reinsert_same_tick_pops_the_fresh_entry() {
        let mut w = TimerWheel::new();
        // Old and new entry share the 2^16-ns tick but not the exact time:
        // the tombstone must kill only the old physical entry.
        w.schedule(t(2_000), 7, "old");
        w.cancel(7);
        w.schedule(t(1_000), 7, "new");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((t(1_000), 7, "new")));
        assert_eq!(w.pop(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_reinsert_later_time_still_pops_fresh_entry() {
        let mut w = TimerWheel::new();
        w.schedule(t(1_000), 7, "old");
        w.cancel(7);
        // Reinsert later than the tombstoned entry: the tombstone drains
        // first (same bucket), and the fresh entry must survive it.
        w.schedule(t(2_000), 7, "new");
        w.schedule(t(1_500), 8, "mid");
        assert_eq!(w.pop(), Some((t(1_500), 8, "mid")));
        assert_eq!(w.pop(), Some((t(2_000), 7, "new")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn cancel_then_reinsert_same_key_in_current_tick_pops_the_fresh_entry() {
        let mut w = TimerWheel::new();
        w.schedule(t(1_000_000), 0, "x");
        w.schedule(t(1_000_500), 7, "old");
        // Entering the tick moves "old" into `current`; the reinsert at the
        // same `(time, seq)` goes to `arrivals`.
        assert_eq!(w.pop(), Some((t(1_000_000), 0, "x")));
        w.cancel(7);
        w.schedule(t(1_000_500), 7, "new");
        assert_eq!(w.pop(), Some((t(1_000_500), 7, "new")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn cancel_head_updates_peek() {
        let mut w = TimerWheel::new();
        w.schedule(t(100), 0, "a");
        w.schedule(t(200), 1, "b");
        w.cancel(0);
        assert_eq!(w.peek_time(), Some(t(200)));
        assert_eq!(w.pop(), Some((t(200), 1, "b")));
    }

    #[test]
    fn schedule_at_or_before_current_tick_stays_ordered() {
        let mut w = TimerWheel::new();
        w.schedule(t(1_000_000), 0, "a");
        assert_eq!(w.pop(), Some((t(1_000_000), 0, "a")));
        // Past the popped tick boundary but before any pending entry.
        w.schedule(t(2_000_000), 1, "c");
        w.schedule(t(1_000_001), 2, "b");
        assert_eq!(w.pop(), Some((t(1_000_001), 2, "b")));
        assert_eq!(w.pop(), Some((t(2_000_000), 1, "c")));
    }

    #[test]
    fn peek_is_stable_and_does_not_remove() {
        let mut w = TimerWheel::new();
        w.schedule(t(7_777), 3, "x");
        assert_eq!(w.peek(), Some((t(7_777), 3)));
        assert_eq!(w.peek(), Some((t(7_777), 3)));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((t(7_777), 3, "x")));
    }

    #[test]
    fn repeated_fill_and_drain_rounds_stay_ordered() {
        let mut w = TimerWheel::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                w.schedule(t(round * 1_000_000 + i), round * 100 + i, i);
            }
            for i in 0..100u64 {
                let (_, _, v) = w.pop().unwrap_or_else(|| unreachable!("entry missing"));
                assert_eq!(v, i);
            }
        }
        assert!(w.is_empty());
    }

    #[test]
    fn level_boundaries_cascade_correctly() {
        // Exercise ticks straddling each level boundary.
        let mut w = TimerWheel::new();
        let mut seq = 0u64;
        let mut times = Vec::new();
        for level in 0..6u32 {
            let base = 1u64 << (16 + 6 * level);
            for delta in [0u64, 1, 63, 64, 65] {
                let time = base + delta * 37;
                times.push(time);
                w.schedule(t(time), seq, time);
                seq += 1;
            }
        }
        times.sort_unstable();
        for expect in times {
            let (got, _, v) = w.pop().unwrap_or_else(|| unreachable!("entry missing"));
            assert_eq!(got.as_nanos(), expect);
            assert_eq!(v, expect);
        }
        assert!(w.pop().is_none());
    }
}
