#![allow(clippy::disallowed_methods)]
//! Differential lock between [`TimerWheel`] and the reference `BinaryHeap`
//! the engine used before the hot-path overhaul.
//!
//! The wheel's contract is that it pops in **exactly** `(time, seq)` order —
//! bit-for-bit the order `BinaryHeap<Reverse<(time, seq)>>` produces — because
//! every golden trace and telemetry snapshot in the repository depends on
//! that order. These suites drive both structures through identical
//! randomized schedule/cancel/drain interleavings (≥256 cases each) and
//! assert identical observable behaviour, plus targeted properties for
//! same-tick FIFO stability and the engine's `run_until` deadline boundary.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rr_sim::{check, Actor, Context, Event, Sim, SimDuration, SimRng, SimTime, TimerWheel};

/// The event queue the engine used before the timing wheel: a min-heap on
/// `(time, seq, payload)` with the same idempotent lazy-cancel surface as
/// the wheel — cancel is a no-op unless the seq is live, tombstones are
/// keyed by `(time, seq)` (counted, in case a cancelled entry is reinserted
/// at the same time and cancelled again) and struck when the entry drains.
#[derive(Default)]
struct RefHeap {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    cancelled: HashMap<(u64, u64), u32>,
    live: HashMap<u64, u64>,
    len: usize,
}

impl RefHeap {
    fn schedule(&mut self, time: SimTime, seq: u64, value: u64) {
        self.heap.push(Reverse((time.as_nanos(), seq, value)));
        self.live.insert(seq, time.as_nanos());
        self.len += 1;
    }

    fn cancel(&mut self, seq: u64) {
        if let Some(time) = self.live.remove(&seq) {
            *self.cancelled.entry((time, seq)).or_insert(0) += 1;
            self.len -= 1;
        }
    }

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

    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        while let Some(Reverse((time, seq, value))) = self.heap.pop() {
            if self.take_tombstone((time, seq)) {
                continue;
            }
            self.live.remove(&seq);
            self.len -= 1;
            return Some((SimTime::from_nanos(time), seq, value));
        }
        None
    }

    fn peek(&mut self) -> Option<(SimTime, u64)> {
        loop {
            let &Reverse((time, seq, _)) = self.heap.peek()?;
            if self.take_tombstone((time, seq)) {
                self.heap.pop();
                continue;
            }
            return Some((SimTime::from_nanos(time), seq));
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Draws an event time that stresses every wheel path: the current tick,
/// near ticks, each level boundary, and the beyond-horizon overflow rung.
fn arbitrary_time(rng: &mut SimRng, base: u64) -> SimTime {
    let nanos = match rng.next_below(8) {
        // Same-tick and sub-tick times (the sorted `current` bucket).
        0 => base + rng.next_below(1 << 16),
        // A few ticks out (level 0).
        1 => base + rng.next_below(1 << 22),
        // Mid-wheel levels.
        2 => base + rng.next_below(1 << 34),
        3 => base + rng.next_below(1 << 46),
        // Top level and just inside the horizon.
        4 => base + rng.next_below(1 << 51),
        // Beyond the 2^52-ns horizon: the calendar overflow rung.
        5 => base + (1 << 52) + rng.next_below(1 << 53),
        // Exactly on a tick or level boundary.
        6 => {
            let level = rng.next_below(6) as u32;
            base + (1u64 << (16 + 6 * level)) + rng.next_below(3)
        }
        // Dense collisions: tiny range so many events share exact times.
        _ => base + rng.next_below(4),
    };
    SimTime::from_nanos(nanos)
}

/// Seqs scheduled and not yet popped or cancelled, with their times. Removal
/// by seq is `O(1)`, so a 2 000-entry burst keeps the bookkeeping linear.
#[derive(Default)]
struct LiveSeqs {
    entries: Vec<(u64, u64)>,
    index: HashMap<u64, usize>,
}

impl LiveSeqs {
    fn push(&mut self, seq: u64, time: u64) {
        self.index.insert(seq, self.entries.len());
        self.entries.push((seq, time));
    }

    fn swap_remove(&mut self, i: usize) -> (u64, u64) {
        let removed = self.entries.swap_remove(i);
        self.index.remove(&removed.0);
        if let Some(&(moved, _)) = self.entries.get(i) {
            self.index.insert(moved, i);
        }
        removed
    }

    fn remove(&mut self, seq: u64) {
        if let Some(&i) = self.index.get(&seq) {
            self.swap_remove(i);
        }
    }
}

/// The wheel and the reference heap side by side, with what the driver
/// needs to pick legal operations.
#[derive(Default)]
struct Pair {
    wheel: TimerWheel<u64>,
    heap: RefHeap,
    next_seq: u64,
    live: LiveSeqs,
    /// (seq, old time) popped or cancelled — legal to cancel again (no-op)
    /// or to reinsert, possibly at the exact old time.
    retired: Vec<(u64, u64)>,
    last_popped: SimTime,
}

impl Pair {
    /// Schedules a fresh seq at `time` on both sides and returns it.
    fn schedule(&mut self, time: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.reschedule(time, seq);
        seq
    }

    fn reschedule(&mut self, time: SimTime, seq: u64) {
        self.wheel.schedule(time, seq, seq);
        self.heap.schedule(time, seq, seq);
        self.live.push(seq, time.as_nanos());
    }

    fn cancel_at(&mut self, i: usize) {
        let (seq, time) = self.live.swap_remove(i);
        self.wheel.cancel(seq);
        self.heap.cancel(seq);
        self.retired.push((seq, time));
    }

    /// Pops both sides and asserts they agree; `false` once both are empty.
    fn pop(&mut self) -> bool {
        let got = self.wheel.pop();
        assert_eq!(got, self.heap.pop(), "wheel and heap disagree on pop");
        self.popped(got)
    }

    /// Pops the next entry due by `deadline`: the wheel in one
    /// `pop_until`, the heap by the peek-then-pop that `Sim::run_until` used
    /// to do. Asserts they agree; `false` once nothing is due.
    fn pop_until(&mut self, deadline: SimTime) -> bool {
        let want = match self.heap.peek() {
            Some((time, _)) if time <= deadline => self.heap.pop(),
            _ => None,
        };
        let got = self.wheel.pop_until(deadline);
        assert_eq!(got, want, "pop_until disagrees with peek-then-pop");
        self.popped(got)
    }

    fn popped(&mut self, got: Option<(SimTime, u64, u64)>) -> bool {
        let Some((time, seq, _)) = got else {
            return false;
        };
        assert!(time >= self.last_popped, "time went backwards");
        self.last_popped = time;
        self.live.remove(seq);
        self.retired.push((seq, time.as_nanos()));
        true
    }

    /// The last exact time of the tick holding the last popped event.
    fn tick_end(&self) -> u64 {
        self.last_popped.as_nanos() | 0xFFFF
    }
}

/// Drives the wheel and the reference heap through one random interleaving
/// of schedule / cancel / drain / peek operations — including the cancel
/// edge cases (cancel-after-pop, double-cancel, cancel of a never-scheduled
/// seq, reinsertion of a cancelled or popped seq, possibly at its old exact
/// time) and the current tick's arrival shapes (a spawn-sized burst at one
/// time, descending times mid-drain, a cancel while arrivals are pending) —
/// and asserts they agree after every step.
fn differential_case(rng: &mut SimRng) {
    let mut p = Pair::default();
    let mut burst_done = false;

    let ops = 40 + rng.next_below(120);
    for _ in 0..ops {
        match rng.next_below(15) {
            // Schedule (weighted heaviest so queues actually grow).
            0..=4 => {
                let n = 1 + rng.next_below(16);
                for _ in 0..n {
                    // Occasionally schedule at or before the last popped
                    // time — legal, and must keep exact order.
                    let base = if rng.chance(0.1) {
                        p.last_popped.as_nanos()
                    } else {
                        p.last_popped.as_nanos() + rng.next_below(1 << 20)
                    };
                    let time = arbitrary_time(rng, base);
                    p.schedule(time);
                }
            }
            // Cancel a random live entry.
            5..=6 => {
                if !p.live.entries.is_empty() {
                    let i = rng.next_below(p.live.entries.len() as u64) as usize;
                    p.cancel_at(i);
                }
            }
            // Drain to a deadline: the next entry's exact time, a time after
            // it (usually between two entries), or past everything.
            8 => {
                let head = p.heap.peek().map_or(p.last_popped, |(t, _)| t);
                let deadline = match rng.next_below(8) {
                    0..=2 => head,
                    7 => SimTime::MAX,
                    _ => head + SimDuration::from_nanos(rng.next_below(1 << 22)),
                };
                while p.pop_until(deadline) {}
                if let Some((next, _)) = p.heap.peek() {
                    assert!(next > deadline, "pop_until stopped early");
                }
            }
            // Drain a few entries, asserting identical pops.
            7 => {
                let n = 1 + rng.next_below(24);
                for _ in 0..n {
                    if !p.pop() {
                        break;
                    }
                }
            }
            // Rogue cancel: an already-popped or already-cancelled seq, or
            // one that was never scheduled. Must be a no-op on both sides.
            9 => {
                let seq = if p.retired.is_empty() || rng.chance(0.25) {
                    p.next_seq + 1_000_000 // never scheduled
                } else {
                    p.retired[rng.next_below(p.retired.len() as u64) as usize].0
                };
                p.wheel.cancel(seq);
                p.heap.cancel(seq);
            }
            // Reinsert a retired seq — sometimes at the exact time it used
            // to occupy, so a still-pending tombstone is adjacent to the
            // fresh entry and must not strike it.
            10 => {
                if let Some(i) =
                    (!p.retired.is_empty()).then(|| rng.next_below(p.retired.len() as u64) as usize)
                {
                    let (seq, old_time) = p.retired.swap_remove(i);
                    let time = if old_time >= p.last_popped.as_nanos() && rng.chance(0.5) {
                        SimTime::from_nanos(old_time)
                    } else {
                        arbitrary_time(rng, p.last_popped.as_nanos())
                    };
                    p.reschedule(time, seq);
                }
            }
            // Burst: 100–2 000 schedules at exactly the last popped time
            // with rising seq — the shape of a fleet spawn and of a
            // zero-delay fan-out. Half the time a few pops follow at once.
            // One per case keeps the suite fast in a debug build.
            11 if !burst_done => {
                burst_done = true;
                let n = 100 + rng.next_below(1_901);
                for _ in 0..n {
                    p.schedule(p.last_popped);
                }
                if rng.chance(0.5) {
                    for _ in 0..rng.next_below(32) {
                        p.pop();
                    }
                }
            }
            // Same-tick schedules at descending exact times, interleaved
            // with pops: each lands below the previous one but not below
            // the last popped time.
            12 => {
                let n = 2 + rng.next_below(40);
                for i in 0..n {
                    let span = p.tick_end() - p.last_popped.as_nanos();
                    let time = p.last_popped.as_nanos() + span * (n - i) / n;
                    p.schedule(SimTime::from_nanos(time));
                    if rng.chance(0.4) {
                        p.pop();
                    }
                }
            }
            // A cancel while same-tick arrivals are pending: schedule a few
            // in the current tick, then cancel one of them and one other
            // live entry. On a wheel's first cancel the live-seq index is
            // built from every bucket, the arrivals included.
            13 => {
                let n = 1 + rng.next_below(8);
                let span = p.tick_end() - p.last_popped.as_nanos() + 1;
                let fresh: Vec<u64> = (0..n)
                    .map(|_| {
                        let time = p.last_popped.as_nanos() + rng.next_below(span.min(4));
                        p.schedule(SimTime::from_nanos(time))
                    })
                    .collect();
                let target = fresh[rng.next_below(n) as usize];
                let i = p.live.index[&target];
                p.cancel_at(i);
                if !p.live.entries.is_empty() {
                    let i = rng.next_below(p.live.entries.len() as u64) as usize;
                    p.cancel_at(i);
                }
            }
            // Peek must agree and must not consume.
            _ => {
                assert_eq!(p.wheel.peek(), p.heap.peek(), "peek disagrees");
                assert_eq!(p.wheel.peek(), p.heap.peek(), "peek is not stable");
            }
        }
        assert_eq!(p.wheel.len(), p.heap.len(), "live-entry counts diverged");
        assert_eq!(p.wheel.is_empty(), p.heap.len() == 0);
    }

    // Full drain: the tails must be identical too.
    while p.pop() {}
    assert!(p.wheel.is_empty());
}

#[test]
fn wheel_matches_reference_heap_on_random_interleavings() {
    check::run("wheel/heap differential", 256, differential_case);
}

#[test]
fn cancel_edges_match_reference_heap() {
    // Heavy cancel churn in one tick: every seq is scheduled, cancelled,
    // sometimes reinserted at the same exact time, cancelled again, and
    // rogue-cancelled after popping — the accounting must never drift and
    // pops must match the reference heap exactly.
    check::run("wheel cancel edges", 256, |rng| {
        let mut wheel = TimerWheel::new();
        let mut heap = RefHeap::default();
        let tick_base = rng.next_below(1 << 40) & !0xFFFF;
        let n = 4 + rng.next_below(48);
        for seq in 0..n {
            let time = SimTime::from_nanos(tick_base + rng.next_below(16) * 512);
            wheel.schedule(time, seq, seq);
            heap.schedule(time, seq, seq);
            if rng.chance(0.6) {
                wheel.cancel(seq);
                heap.cancel(seq);
                // Double-cancel: must be a no-op.
                if rng.chance(0.5) {
                    wheel.cancel(seq);
                    heap.cancel(seq);
                }
                // Reinsert, half the time at the exact cancelled time.
                if rng.chance(0.5) {
                    let again = if rng.chance(0.5) {
                        time
                    } else {
                        SimTime::from_nanos(tick_base + rng.next_below(16) * 512)
                    };
                    wheel.schedule(again, seq, seq);
                    heap.schedule(again, seq, seq);
                }
            }
            assert_eq!(wheel.len(), heap.len(), "counts diverged mid-build");
        }
        loop {
            let got = wheel.pop();
            assert_eq!(got, heap.pop(), "pop disagrees");
            assert_eq!(wheel.len(), heap.len(), "counts diverged mid-drain");
            let Some((_, seq, _)) = got else { break };
            // Cancel-after-pop: a no-op, on both sides.
            if rng.chance(0.3) {
                wheel.cancel(seq);
                heap.cancel(seq);
            }
        }
        assert!(wheel.is_empty());
    });
}

#[test]
fn same_tick_pops_are_fifo_stable() {
    // Many events at the *same exact time* must pop in schedule (seq) order,
    // and events within one 2^16-ns tick must order by exact nanosecond.
    check::run("wheel same-tick FIFO", 256, |rng| {
        let mut wheel = TimerWheel::new();
        let tick_base = rng.next_below(1 << 40) & !0xFFFF;
        let n = 2 + rng.next_below(64);
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for seq in 0..n {
            // Collisions on purpose: only 8 distinct in-tick offsets.
            let time = tick_base + rng.next_below(8) * 512;
            wheel.schedule(SimTime::from_nanos(time), seq, seq);
            expect.push((time, seq));
        }
        expect.sort_unstable();
        for (time, seq) in expect {
            assert_eq!(wheel.pop(), Some((SimTime::from_nanos(time), seq, seq)));
        }
        assert_eq!(wheel.pop(), None);
    });
}

/// An actor that sets one timer per requested delay and records fire times.
struct DeadlineProbe {
    delays: Vec<u64>,
    fired: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
}

impl Actor<()> for DeadlineProbe {
    fn on_event(&mut self, ev: Event<()>, ctx: &mut Context<'_, ()>) {
        match ev {
            Event::Start => {
                for (key, &nanos) in self.delays.iter().enumerate() {
                    ctx.set_timer(SimDuration::from_nanos(nanos), key as u64);
                }
            }
            Event::Timer { key } => {
                assert_eq!(ctx.now().as_nanos(), self.delays[key as usize]);
                self.fired.borrow_mut().push(self.delays[key as usize]);
            }
            Event::Message { .. } => {}
        }
    }
}

#[test]
fn run_until_deadline_boundary_is_inclusive() {
    // `Sim::run_until(d)` processes events at exactly `d` and leaves later
    // ones queued — the boundary the wheel's `peek_time` now drives. Timers
    // landing on either side of a random deadline must split exactly.
    check::run("run_until deadline boundary", 256, |rng| {
        let deadline = 1 + rng.next_below(1 << 30);
        let mut delays: Vec<u64> = (0..24)
            .map(|_| match rng.next_below(4) {
                0 => deadline,                                    // exactly at
                1 => 1 + rng.next_below(deadline),                // at or before
                _ => deadline + 1 + rng.next_below(deadline * 2), // strictly after
            })
            .collect();
        delays.sort_unstable();
        delays.dedup(); // one timer key per distinct delay keeps the probe simple

        let fired = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim: Sim<()> = Sim::new(rng.next_u64());
        let (delays_f, fired_f) = (delays.clone(), fired.clone());
        sim.spawn("probe", move || {
            Box::new(DeadlineProbe {
                delays: delays_f.clone(),
                fired: fired_f.clone(),
            })
        });

        sim.run_until(SimTime::from_nanos(deadline));
        let expect_before: Vec<u64> = delays.iter().copied().filter(|&d| d <= deadline).collect();
        assert_eq!(*fired.borrow(), expect_before, "inclusive boundary");
        assert_eq!(sim.now(), SimTime::from_nanos(deadline));

        // The remainder fires on a full run, in order.
        sim.run();
        assert_eq!(*fired.borrow(), delays, "tail after deadline");
    });
}

#[test]
fn run_until_zero_width_window_processes_exact_matches() {
    // A deadline equal to `now` still delivers events scheduled at `now`.
    let fired = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut sim: Sim<()> = Sim::new(7);
    let fired_f = fired.clone();
    sim.spawn("probe", move || {
        Box::new(DeadlineProbe {
            delays: vec![0, 1],
            fired: fired_f.clone(),
        })
    });
    // Start is delivered at t=0; the key-0 timer also lands at t=0.
    sim.run_until(SimTime::ZERO);
    assert_eq!(*fired.borrow(), vec![0]);
    assert_eq!(sim.now(), SimTime::ZERO);
    sim.run_until(SimTime::from_nanos(1));
    assert_eq!(*fired.borrow(), vec![0, 1]);
}
