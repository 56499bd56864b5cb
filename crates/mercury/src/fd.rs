//! `FD` — the failure detector (§2.2).
//!
//! "FD continuously performs liveness pings on Mercury components, with a
//! period of 1 second … When FD detects a failure, it tells REC which
//! component(s) appear to have failed, and continues its failure detection."
//!
//! Details faithful to the paper:
//!
//! * pings are application-level XML messages over mbus — "a successful
//!   response indicates the component's liveness with higher confidence than
//!   a network-level ICMP ping";
//! * mbus itself is monitored; while mbus is suspected down, other
//!   components' silence is attributed to the bus and not reported;
//! * FD and REC talk over a dedicated connection, not mbus;
//! * FD monitors REC and initiates REC's recovery itself (the only
//!   restart knowledge FD has, §2.2).
//!
//! Beyond the paper, the detector supports *suspicion hardening* for
//! degraded links: a component is only reported failed after
//! [`suspicion_threshold`](rr_lint::FdParams::suspicion_threshold)
//! missed pongs within a sliding window of
//! [`suspicion_window`](rr_lint::FdParams::suspicion_window)
//! ping rounds (the [`fd`](crate::config::StationConfig::fd) group of the
//! configuration). At the paper's threshold of 1 the behaviour is exactly
//! the original report-on-first-miss detector.

use std::collections::VecDeque;

use mercury_msg::Message;
use rr_sim::telemetry::LATENCY_BUCKETS;
use rr_sim::{intern, Actor, CompId, Context, EpisodeStage, Event, Mark, SimDuration, SimTime};

use crate::components::common::{Lifecycle, Shared, Wire, TIMER_BOOT, TIMER_ROLE_BASE};
use crate::config::{calib, names};

const TIMER_PING_TICK: u64 = TIMER_ROLE_BASE;
/// Zero-delay timer that flushes the suspects buffered within one instant.
/// It is armed while a round's deadline convicts, so it fires after that
/// whole batch (the engine is FIFO within an instant).
const TIMER_FLUSH_SUSPECTS: u64 = TIMER_ROLE_BASE + 1;
/// Each round arms one pong deadline, keyed `TIMER_TIMEOUT_BASE + round`.
/// When it fires, FD settles every monitored component in index order, then
/// REC if REC was pinged that round: the order the per-component timeouts of
/// one instant used to fire in, one event instead of one per ping.
const TIMER_TIMEOUT_BASE: u64 = 1000;
/// Pings carry `round · SEQ_PER_ROUND + index`: the component's index in
/// the monitored list, or [`REC_SEQ_INDEX`] for the direct ping to REC.
const SEQ_PER_ROUND: u64 = 1000;
/// The seq index of the direct ping to REC.
const REC_SEQ_INDEX: u64 = SEQ_PER_ROUND - 1;

/// The failure-detector actor.
#[derive(Debug)]
pub struct Fd {
    life: Lifecycle,
    /// The components monitored via mbus. The per-component state below is
    /// indexed alike, by *slot*: a component's position in this list.
    monitored: Vec<&'static str>,
    /// Each monitored component's telemetry and mark label, by slot.
    monitored_ids: Vec<CompId>,
    /// mbus's slot, if mbus is monitored.
    mbus_slot: Option<usize>,
    round: u64,
    /// Outstanding pings of the current round, by slot: (seq, sent-at), the
    /// send timestamp feeding the ping-latency telemetry.
    outstanding: Vec<Option<(u64, SimTime)>>,
    /// Components currently believed down, by slot.
    down: Vec<bool>,
    /// Components that missed at least one ping round (whether or not their
    /// silence was reported — it may have been suppressed while mbus was
    /// down), by slot. Their next pong triggers an Alive notice so REC can
    /// complete group restarts.
    missing: Vec<bool>,
    /// Sliding hit/miss record (`true` = missed) of each monitored
    /// component, by index: newest last, at most `suspicion_window` entries.
    history: Vec<VecDeque<bool>>,
    /// Components convicted this instant, awaiting the zero-delay flush that
    /// reports them to REC in one batch (so REC can plan one antichain of
    /// recovery episodes instead of reacting to each suspect alone).
    suspect_buffer: Vec<String>,
    /// Outstanding direct ping to REC, if any.
    rec_outstanding: Option<u64>,
    /// Consecutive missed REC pongs.
    rec_misses: u32,
    rec_down: bool,
    /// Do not watch REC before this time (it is rebooting on our orders).
    rec_grace_until: SimTime,
    /// How long a round waits for its pongs.
    ping_timeout: SimDuration,
    /// Time between the starts of two rounds.
    ping_period: SimDuration,
}

impl Fd {
    /// Creates the failure detector monitoring `monitored` components.
    ///
    /// # Panics
    ///
    /// Panics if more components are monitored than a round's ping seqs can
    /// number (998).
    pub fn new(shared: Shared, monitored: &[String]) -> Fd {
        assert!(
            monitored.len() < REC_SEQ_INDEX as usize,
            "FD supports at most {} monitored components",
            REC_SEQ_INDEX - 1
        );
        let n = monitored.len();
        let monitored_ids: Vec<CompId> = monitored.iter().map(|c| intern(c)).collect();
        let ping_timeout = SimDuration::from_secs_f64(shared.config.fd.ping_timeout_s);
        let ping_period = shared.config.ping_period();
        Fd {
            life: Lifecycle::new(names::FD, shared),
            history: vec![VecDeque::new(); n],
            mbus_slot: monitored.iter().position(|c| c == names::MBUS),
            monitored: monitored_ids.iter().map(|id| id.resolve()).collect(),
            monitored_ids,
            round: 0,
            outstanding: vec![None; n],
            down: vec![false; n],
            missing: vec![false; n],
            suspect_buffer: Vec::new(),
            rec_outstanding: None,
            rec_misses: 0,
            rec_down: false,
            rec_grace_until: SimTime::ZERO,
            ping_timeout,
            ping_period,
        }
    }

    fn seq_for(round: u64, idx: u64) -> u64 {
        round * SEQ_PER_ROUND + idx
    }

    fn ping_tick(&mut self, ctx: &mut Context<'_, Wire>) {
        self.round += 1;
        for (idx, &comp) in self.monitored.iter().enumerate() {
            let seq = Self::seq_for(self.round, idx as u64);
            self.life.send_bus(ctx, comp, Message::Ping { seq });
            self.outstanding[idx] = Some((seq, ctx.now()));
        }
        // One counter write per round; none for an empty round, so that no
        // zero-valued counter is exported.
        let pinged = self.monitored.len() as u64;
        if pinged > 0 {
            ctx.telemetry()
                .incr_by("fd_pings_sent", CompId::EMPTY, pinged);
        }
        // REC is pinged over the dedicated connection — unless we just
        // restarted it and it is still booting.
        if ctx.now() >= self.rec_grace_until {
            let rec_seq = Self::seq_for(self.round, REC_SEQ_INDEX);
            self.life
                .send_direct(ctx, names::REC, Message::Ping { seq: rec_seq });
            self.rec_outstanding = Some(rec_seq);
        }
        ctx.set_timer(self.ping_timeout, TIMER_TIMEOUT_BASE + self.round);
        ctx.set_timer(self.ping_period, TIMER_PING_TICK);
    }

    /// Records this round's hit/miss for monitored component `idx` and
    /// returns `true` when the misses within the suspicion window reach the
    /// threshold.
    fn note_round(&mut self, idx: usize, missed: bool) -> bool {
        let window = self.life.config().fd.suspicion_window.max(1) as usize;
        let threshold = self.life.config().fd.suspicion_threshold.max(1) as usize;
        let h = &mut self.history[idx];
        h.push_back(missed);
        while h.len() > window {
            h.pop_front();
        }
        h.iter().filter(|m| **m).count() >= threshold
    }

    /// The round's pong deadline: settles every monitored component in
    /// index order, then REC (a no-op unless REC's ping is outstanding,
    /// which it only is when REC was pinged this round).
    fn handle_deadline(&mut self, round: u64, ctx: &mut Context<'_, Wire>) {
        if round != self.round {
            return; // stale deadline from an earlier round
        }
        for idx in 0..self.monitored.len() {
            self.handle_timeout(idx, ctx);
        }
        self.handle_rec_timeout(ctx);
    }

    fn handle_timeout(&mut self, idx: usize, ctx: &mut Context<'_, Wire>) {
        let missed = self.outstanding[idx].is_some();
        let mbus_unresponsive = self
            .mbus_slot
            .is_some_and(|m| self.outstanding[m].is_some() || self.down[m]);
        if missed && self.mbus_slot != Some(idx) && mbus_unresponsive {
            // The bus is down: this component's silence proves nothing.
            // Record nothing — a round with no evidence must neither fill
            // the suspicion window (false conviction) nor reset a run of
            // genuine misses (a lost bus pong would then indefinitely delay
            // detection of a really-dead component). Remember the silence so
            // the next pong still produces an Alive notice.
            self.missing[idx] = true;
            return;
        }
        if missed {
            ctx.telemetry()
                .incr_labeled("fd_ping_timeouts", self.monitored_ids[idx]);
        }
        let suspect = self.note_round(idx, missed);
        if !missed || !suspect {
            return;
        }
        self.missing[idx] = true;
        if !self.down[idx] {
            ctx.trace_mark(Mark::Stage(
                EpisodeStage::Suspected,
                self.monitored_ids[idx],
            ));
        }
        self.down[idx] = true;
        if self.suspect_buffer.is_empty() {
            ctx.set_timer(SimDuration::ZERO, TIMER_FLUSH_SUSPECTS);
        }
        self.suspect_buffer.push(self.monitored[idx].to_string());
    }

    /// Reports everything convicted this instant. A lone suspect goes out as
    /// the classic `Failed`; simultaneous convictions travel together so REC
    /// sees the correlation.
    fn flush_suspects(&mut self, ctx: &mut Context<'_, Wire>) {
        let mut suspects = std::mem::take(&mut self.suspect_buffer);
        if suspects.len() == 1 {
            if let Some(component) = suspects.pop() {
                self.life
                    .send_direct(ctx, names::REC, Message::Failed { component });
            }
        } else if !suspects.is_empty() {
            self.life.send_direct(
                ctx,
                names::REC,
                Message::FailedBatch {
                    components: suspects,
                },
            );
        }
    }

    /// REC watchdog: FD itself knows how to restart REC (and only REC). The
    /// same suspicion threshold applies, as consecutive missed pongs.
    fn handle_rec_timeout(&mut self, ctx: &mut Context<'_, Wire>) {
        if self.rec_outstanding.take().is_none() {
            return;
        }
        self.rec_misses += 1;
        if self.rec_misses < self.life.config().fd.suspicion_threshold.max(1) {
            return;
        }
        if !self.rec_down {
            ctx.trace_mark(Mark::Stage(EpisodeStage::Suspected, intern(names::REC)));
        }
        self.rec_down = true;
        if let Some(rec) = ctx.lookup(names::REC) {
            ctx.trace_mark("fd-restarts:rec");
            ctx.telemetry().incr("fd_restarts_rec");
            ctx.kill_after(SimDuration::ZERO, rec);
            ctx.respawn_after(calib::EXEC_DELAY, rec);
            let grace = SimDuration::from_secs_f64(calib::WATCHDOG_GRACE_S);
            self.rec_grace_until = ctx.now() + grace;
            self.rec_misses = 0;
        }
    }

    fn handle_pong(&mut self, src: &str, seq: u64, ctx: &mut Context<'_, Wire>) {
        if src == names::REC {
            if self.rec_outstanding != Some(seq) {
                // An answer to a ping from an earlier epoch (or from before a
                // watchdog restart). Attributing it to the current round
                // would let one stale pong mask a live miss, so count it and
                // drop it.
                ctx.telemetry().incr_labeled("fd_stale_pongs", names::REC);
                return;
            }
            self.rec_outstanding = None;
            self.rec_misses = 0;
            if self.rec_down {
                self.rec_down = false;
                ctx.trace_mark(Mark::Alive(intern(names::REC)));
            }
            return;
        }
        // The seq names the slot it was sent to; a pong from anyone else,
        // or for a ping no longer outstanding, is stale.
        let idx = (seq % SEQ_PER_ROUND) as usize;
        let sent_at = match self.outstanding.get(idx) {
            Some(&Some((expected, sent_at))) if expected == seq && self.monitored[idx] == src => {
                sent_at
            }
            _ => {
                // A pong whose seq does not match this round's outstanding
                // ping (a delayed answer to an earlier epoch, a duplicate of
                // one already consumed, or another component's seq). It is liveness evidence for a
                // round that already closed, not this one — counting it here
                // would both skew the RTT histogram and, worse, let a stale
                // answer produce an Alive notice for a component that has
                // since died. Epoch-tag it away.
                ctx.telemetry().incr_labeled("fd_stale_pongs", src);
                return;
            }
        };
        self.outstanding[idx] = None;
        let rtt = ctx.now().saturating_since(sent_at);
        let id = self.monitored_ids[idx];
        ctx.telemetry()
            .observe("fd_ping_latency", id, rtt, LATENCY_BUCKETS);
        if self.down[idx] || self.missing[idx] {
            self.down[idx] = false;
            self.missing[idx] = false;
            // A recovered component starts from a clean suspicion window.
            self.history[idx].clear();
            ctx.trace_mark(Mark::Alive(id));
            self.life.send_direct(
                ctx,
                names::REC,
                Message::Alive {
                    component: src.to_string(),
                },
            );
        }
    }
}

impl Actor<Wire> for Fd {
    fn on_event(&mut self, ev: Event<Wire>, ctx: &mut Context<'_, Wire>) {
        match ev {
            Event::Start => self.life.begin_boot(ctx, 0.0),
            Event::Timer { key: TIMER_BOOT } => {
                self.life.set_ready(ctx);
                // Wait out the station's cold start before the first sweep.
                let grace = SimDuration::from_secs_f64(calib::FD_GRACE_S);
                ctx.set_timer(grace, TIMER_PING_TICK);
            }
            Event::Timer {
                key: TIMER_PING_TICK,
            } => self.ping_tick(ctx),
            Event::Timer {
                key: TIMER_FLUSH_SUSPECTS,
            } => self.flush_suspects(ctx),
            Event::Timer { key } if key >= TIMER_TIMEOUT_BASE => {
                self.handle_deadline(key - TIMER_TIMEOUT_BASE, ctx);
            }
            Event::Timer { key } => {
                self.life.handle_beacon_timer(key, ctx, 0.0);
            }
            Event::Message { payload, .. } => {
                let Some(env) = self.life.parse(ctx, payload) else {
                    return;
                };
                // Answer REC's direct liveness pings.
                if self.life.handle_common(&env, ctx, 0.0) {
                    return;
                }
                if let Message::Pong { seq, .. } = env.body {
                    self.handle_pong(&env.src, seq, ctx);
                }
            }
        }
    }
}
