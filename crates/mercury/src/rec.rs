//! `REC` — the recovery module (§2.2): the paper's collocated recoverer +
//! oracle.
//!
//! "REC uses a restart tree data structure and a simple policy to choose
//! which module(s) to restart upon being notified of a failure. The policy
//! also keeps track of past restarts to prevent infinite restarts of 'hard'
//! failures."
//!
//! REC owns an [`rr_core::Recoverer`] over the station's restart tree. On a
//! failure report it consults the oracle, kills every component of the chosen
//! restart cell and respawns them (the `SIGKILL` + supervised-restart cycle);
//! on an alive report it marks the restart complete and, after a confirmation
//! window with no re-detection, declares the failure cured (feeding learning
//! oracles). REC also watches FD over their dedicated connection and restarts
//! it on silence — together they "tolerate any single and most multiple
//! software failures, with the exception of FD and REC failing together".

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use mercury_msg::{ComponentStatus, Message};
use rr_core::oracle::{Failure, Oracle};
use rr_core::recoverer::{Recoverer, RecoveryDecision};
use rr_sim::{intern, Actor, Context, EpisodeStage, Event, Mark, SimDuration, SimTime};

use crate::components::common::{Lifecycle, Shared, Wire, TIMER_BOOT, TIMER_ROLE_BASE};
use crate::config::{calib, names};
use crate::orbit;

const TIMER_FD_WATCH: u64 = TIMER_ROLE_BASE;
const TIMER_FD_TIMEOUT: u64 = TIMER_ROLE_BASE + 1;
/// Deferral-queue retry tick (admission control).
const TIMER_ADMIT: u64 = TIMER_ROLE_BASE + 2;
/// Cure-confirmation timers carry `TIMER_CONFIRM_BASE + slot`.
const TIMER_CONFIRM_BASE: u64 = 2000;

/// How the admission controller disposes of a screened failure report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Forward to the recoverer immediately.
    Run,
    /// Park in the deferral queue until capacity frees up (or the entry ages
    /// out).
    Defer,
    /// Drop. Only ever a duplicate of a request already parked in the
    /// deferral queue, so the faulty component never loses coverage.
    Shed,
}

/// The latest health beacon received from a component (future work §7).
#[derive(Debug, Clone, PartialEq)]
pub struct BeaconRecord {
    /// Self-reported status.
    pub status: ComponentStatus,
    /// Seconds of uptime reported.
    pub uptime_s: f64,
    /// Aging score in `[0, 1]`.
    pub aging: f64,
    /// Messages handled.
    pub handled: u64,
    /// When the beacon arrived.
    pub received_at: SimTime,
}

/// Recovery state shared between the REC actor and the experiment harness.
///
/// Keeping it behind an `Rc` means a REC process restart does not lose the
/// restart history (in the real station this state is tiny and REC re-reads
/// it from its log on startup).
pub struct RecControl {
    /// The recoverer: tree + oracle + policy + episodes.
    pub recoverer: Recoverer<Box<dyn Oracle>>,
    /// Ground-truth cure hints per component, configured by the fault
    /// injector for experiments with a knowledgeable (perfect/faulty) oracle.
    pub cure_hints: BTreeMap<String, Vec<String>>,
    /// Latest health beacons (§7). Ordered map: staleness sweeps and episode
    /// bookkeeping iterate it, and with concurrent episodes the iteration
    /// order is trace-visible — it must not vary run to run.
    pub beacons: BTreeMap<String, BeaconRecord>,
    /// Components REC has given up on (escalation exhausted or restart
    /// storm): further failure reports for them are dropped and the station
    /// runs degraded until an operator intervenes.
    pub quarantined: BTreeSet<String>,
    /// Components still rebooting per open episode (with the time the
    /// restart was issued), keyed by the episode's owner: a group restart is
    /// only complete when the whole cell is back, not just the owner. Ordered
    /// so same-instant completions confirm in a fixed order.
    pending: BTreeMap<String, (SimTime, BTreeSet<String>)>,
    /// Deferred restart requests: component → when it was first parked.
    /// Ordered so drain order is deterministic; at most one entry per
    /// component (later reports of a deferred component are shed).
    pub deferred: BTreeMap<String, SimTime>,
    /// Launch charges admitted within the sliding capacity window: when each
    /// restart was admitted and which component it was charged to, so a
    /// charge whose restart is later purged (GiveUp → quarantine) can be
    /// refunded. Lives here (not in the actor) so a REC process restart does
    /// not reset the pacing budget.
    admitted: Vec<(SimTime, String)>,
}

impl std::fmt::Debug for RecControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecControl")
            .field("recoverer", &"Recoverer")
            .field("cure_hints", &self.cure_hints)
            .finish()
    }
}

impl RecControl {
    /// Creates the shared control block.
    pub fn new(recoverer: Recoverer<Box<dyn Oracle>>) -> Rc<RefCell<RecControl>> {
        Rc::new(RefCell::new(RecControl {
            recoverer,
            cure_hints: BTreeMap::new(),
            beacons: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            pending: BTreeMap::new(),
            deferred: BTreeMap::new(),
            admitted: Vec::new(),
        }))
    }

    /// Drops capacity-window launch records older than `window_s`.
    fn prune_admitted(&mut self, now: SimTime, window_s: f64) {
        self.admitted
            .retain(|(t, _)| now.saturating_since(*t).as_secs_f64() < window_s);
    }

    /// Launches admitted within the capacity window ending at `now`.
    fn admitted_in_window(&mut self, now: SimTime, window_s: f64) -> usize {
        self.prune_admitted(now, window_s);
        self.admitted.len()
    }

    /// Refunds the newest window charge taken for `component`, if any.
    ///
    /// A charge is taken at classification time, before the recoverer rules
    /// on the report; when the ruling is GiveUp the restart never launches,
    /// and without a refund the dead charge would keep counting against
    /// `admitted_in_window` for the rest of the window — a quarantine burst
    /// could starve admission of perfectly healthy components.
    fn refund_admitted(&mut self, component: &str) {
        if let Some(i) = self.admitted.iter().rposition(|(_, c)| c == component) {
            self.admitted.remove(i);
        }
    }
}

/// Shared handle to REC's control state.
pub type RecHandle = Rc<RefCell<RecControl>>;

/// The recovery-module actor.
pub struct Rec {
    life: Lifecycle,
    control: RecHandle,
    /// Confirmation timers: slot → component.
    confirms: HashMap<u64, String>,
    next_confirm_slot: u64,
    fd_outstanding: bool,
    /// Consecutive missed FD pongs (the suspicion threshold applies to the
    /// FD watchdog too).
    fd_misses: u32,
    /// Do not watch FD before this time (it is rebooting on our orders).
    fd_grace_until: SimTime,
    /// Last time the bus was observed starved (its own beacon overdue): all
    /// relayed beacons starve with it, so staleness clocks only run from
    /// here.
    bus_starved_until: SimTime,
    /// Cached next pass window in *orbital* seconds (`rise_s`, `set_s`);
    /// recomputed from the ephemeris only once the cached pass has set.
    next_pass: Option<(f64, f64)>,
}

impl std::fmt::Debug for Rec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rec").field("life", &self.life).finish()
    }
}

impl Rec {
    /// Creates the REC actor over a shared control block.
    pub fn new(shared: Shared, control: RecHandle) -> Rec {
        Rec {
            life: Lifecycle::new(names::REC, shared),
            control,
            confirms: HashMap::new(),
            next_confirm_slot: 0,
            fd_outstanding: false,
            fd_misses: 0,
            fd_grace_until: SimTime::ZERO,
            bus_starved_until: SimTime::ZERO,
            next_pass: None,
        }
    }

    /// Screens a failure report against quarantine and in-flight restarts.
    ///
    /// Returns `false` when the report must be dropped: the component is
    /// quarantined, or an in-flight group restart that has not blown its
    /// deadline is still rebooting it. Overdue restarts are declared complete
    /// (failed) on the way so the recoverer can escalate instead of waiting
    /// forever.
    fn screen_report(&self, control: &mut RecControl, component: &str, now: SimTime) -> bool {
        // Quarantined components are a lost cause by definition: restarting
        // them more would only re-start the storm REC just shut down. The
        // station runs degraded without them.
        if control.quarantined.contains(component) {
            return false;
        }
        // A component that is down because an in-flight group restart has not
        // finished rebooting it is not a new failure — unless the reboot has
        // blown its deadline (e.g. the component was killed again mid-boot),
        // in which case the silence is a fresh failure.
        let deadline = calib::RESTART_DEADLINE_S;
        let mut expired: Vec<String> = Vec::new();
        let mut suppressed = false;
        for (episode, (issued_at, set)) in control.pending.iter() {
            if !set.contains(component) {
                continue;
            }
            if now.saturating_since(*issued_at).as_secs_f64() > deadline {
                expired.push(episode.clone());
            } else {
                suppressed = true;
            }
        }
        for episode in expired {
            if let Some((_, set)) = control.pending.get_mut(&episode) {
                set.remove(component);
                if set.is_empty() {
                    control.pending.remove(&episode);
                }
            }
            control.recoverer.on_restart_complete(&episode, now);
        }
        !suppressed
    }

    /// Builds the correlated failure for a screened report, feeding the
    /// oracle its negative feedback first if this is a re-detection after a
    /// completed restart (the last cure did not take).
    fn failure_for(&self, control: &mut RecControl, component: &str) -> Failure {
        let cure_set = control
            .cure_hints
            .get(component)
            .cloned()
            .unwrap_or_else(|| vec![component.to_string()]);
        if control.recoverer.is_recovering(component) && !control.recoverer.is_in_flight(component)
        {
            control.recoverer.on_not_cured(component);
        }
        Failure::correlated(component.to_string(), cure_set)
    }

    /// Classifies a screened failure report under admission control.
    ///
    /// Invariant: a component's *first* report is never shed — shedding is
    /// reserved for reports whose component already holds a deferral-queue
    /// entry (which preserves its coverage). Even a full deferral queue
    /// degrades to an immediate run rather than a shed.
    fn admission_classify(
        &self,
        control: &mut RecControl,
        component: &str,
        now: SimTime,
    ) -> Admission {
        let cfg = self.life.config();
        if !cfg.admission_enabled {
            return Admission::Run;
        }
        if control.deferred.contains_key(component) {
            return Admission::Shed;
        }
        // Capacity is charged here, at admission, so every member of a batch
        // sees the slots its siblings already claimed.
        if control.admitted_in_window(now, cfg.admission_window_s) < cfg.admission_capacity as usize
            || control.deferred.len() >= calib::DEFER_QUEUE_LIMIT
        {
            control.admitted.push((now, component.to_string()));
            return Admission::Run;
        }
        control.deferred.insert(component.to_string(), now);
        Admission::Defer
    }

    /// Forwards a screened, admitted report to the recoverer and applies its
    /// decision.
    fn forward_report(&mut self, component: &str, now: SimTime, ctx: &mut Context<'_, Wire>) {
        let decision = {
            let mut control = self.control.borrow_mut();
            let failure = self.failure_for(&mut control, component);
            control.recoverer.on_failure(failure, now)
        };
        self.apply_decision(decision, now, ctx);
    }

    /// Refreshes the recoverer's deadline model from the ephemeris: every
    /// component's deadline is the next pass rise (a component still down
    /// when the satellite rises misses the pass), with the configured
    /// critical components outranking the rest on ties.
    fn refresh_pass_deadlines(&mut self, now: SimTime) {
        let cfg = self.life.config();
        if !cfg.admission_enabled || cfg.satellites.is_empty() {
            return;
        }
        let orbital_now = now.as_secs_f64() + cfg.pass_epoch_offset_s;
        if let Some((_, set_s)) = self.next_pass {
            if orbital_now < set_s {
                return;
            }
        }
        let mut best: Option<(f64, f64)> = None;
        for sat in &cfg.satellites {
            if let Some(pass) =
                orbit::predict_passes(&cfg.site, sat, orbital_now, orbital_now + 86_400.0)
                    .into_iter()
                    .next()
            {
                if best.is_none_or(|(rise, _)| pass.rise_s < rise) {
                    best = Some((pass.rise_s, pass.set_s));
                }
            }
        }
        let Some((rise_s, set_s)) = best else {
            return;
        };
        self.next_pass = Some((rise_s, set_s));
        let deadline = SimTime::from_secs_f64((rise_s - cfg.pass_epoch_offset_s).max(0.0));
        let criticals = cfg.critical_components.clone();
        let mut control = self.control.borrow_mut();
        let components = control.recoverer.tree().components();
        let model = control.recoverer.deadline_model_mut();
        *model = rr_core::DeadlineModel::new();
        for comp in &components {
            model.set_deadline(comp, deadline);
        }
        for comp in &criticals {
            model.set_criticality(comp, 1);
        }
    }

    /// Drains the deferral queue at the retry cadence: aged-out and
    /// slack-exhausted entries run unconditionally (oldest first — the
    /// fairness guarantee; pacing must never cost a deadline-covered
    /// component its pass), then remaining capacity admits the most urgent
    /// entries under the deadline model (tightest pass slack, criticality
    /// breaking ties).
    fn drain_deferred(&mut self, ctx: &mut Context<'_, Wire>) {
        let cfg = self.life.config();
        let (capacity, window_s, max_age_s) = (
            cfg.admission_capacity as usize,
            cfg.admission_window_s,
            cfg.defer_max_age_s,
        );
        // A deferred entry must launch while there is still time to finish
        // the restart before its deadline; one more retry tick of waiting
        // would leave less than the restart's own deadline of lead.
        let lead_s = calib::RESTART_DEADLINE_S + cfg.admission_retry_s;
        let now = ctx.now();
        self.refresh_pass_deadlines(now);
        // (not-forced, urgency, enqueue time, name): ascending sort runs
        // forced (aged or slack-exhausted) entries first in FIFO order, then
        // the rest most-urgent first.
        let mut order: Vec<(bool, rr_core::Urgency, SimTime, String)> = {
            let control = self.control.borrow();
            control
                .deferred
                .iter()
                .map(|(component, enqueued)| {
                    let aged = now.saturating_since(*enqueued).as_secs_f64() >= max_age_s;
                    let model = control.recoverer.deadline_model();
                    let slack_out = model
                        .slack(component, now)
                        .is_some_and(|s| s.as_secs_f64() <= lead_s);
                    let urgency = model.urgency(component, now);
                    (!(aged || slack_out), urgency, *enqueued, component.clone())
                })
                .collect()
        };
        order.sort();
        for (not_forced, _, _, component) in order {
            let admissible = {
                let mut control = self.control.borrow_mut();
                !not_forced || control.admitted_in_window(now, window_s) < capacity
            };
            if !admissible {
                break; // sorted forced-first: nothing later is admissible either
            }
            let run = {
                let mut control = self.control.borrow_mut();
                control.deferred.remove(&component);
                let run = !control.quarantined.contains(&component)
                    && self.screen_report(&mut control, &component, now);
                if run {
                    // Charge the launch so later (unforced) entries and fresh
                    // reports see the slot as taken; a forced entry runs even
                    // over capacity but still loads the window it runs in.
                    control.admitted.push((now, component.clone()));
                }
                run
            };
            if !run {
                continue;
            }
            ctx.telemetry()
                .incr_labeled("admission_admitted", &component);
            self.forward_report(&component, now, ctx);
        }
    }

    /// Applies one recovery decision: marks the trace, keeps the pending
    /// book, and pushes the restart button.
    fn apply_decision(
        &mut self,
        decision: RecoveryDecision,
        now: SimTime,
        ctx: &mut Context<'_, Wire>,
    ) {
        let mut control = self.control.borrow_mut();
        // Mirror the recoverer's aggregate decision tally into gauges, so an
        // exported snapshot always carries the oracle's lifetime counts.
        {
            let tally = control.recoverer.decision_tally();
            let telemetry = ctx.telemetry();
            telemetry.set_gauge("oracle_restarts_issued", "", tally.restarts as f64);
            telemetry.set_gauge("oracle_give_ups", "", tally.give_ups as f64);
            telemetry.set_gauge("oracle_merges", "", tally.merges as f64);
            telemetry.set_gauge(
                "oracle_already_recovering",
                "",
                tally.already_recovering as f64,
            );
        }
        match decision {
            RecoveryDecision::Restart {
                components,
                attempt,
                delay,
                origins,
                ..
            } => {
                let owner = origins
                    .first()
                    .cloned()
                    .unwrap_or_else(|| "unknown".to_string());
                ctx.telemetry().incr("decision_restart");
                // Absorbed episodes are superseded by this one: credit their
                // origins to the merged episode and retire their pending
                // entries — the promoted restart covers those components.
                for origin in origins.iter().skip(1) {
                    ctx.trace_mark(Mark::Merge {
                        from: intern(origin),
                        into: intern(&owner),
                    });
                }
                for origin in &origins {
                    control.pending.remove(origin);
                }
                ctx.trace_mark(Mark::Restart {
                    owner: intern(&owner),
                    attempt,
                    set: components.iter().map(|c| intern(c)).collect(),
                });
                // The restart deadline runs from when the button is actually
                // pushed, after any backoff delay.
                control
                    .pending
                    .insert(owner, (now + delay, components.iter().cloned().collect()));
                drop(control);
                self.execute_restart(&components, delay, ctx);
            }
            RecoveryDecision::AlreadyRecovering { .. } => {
                ctx.telemetry().incr("decision_already_recovering");
            }
            RecoveryDecision::GiveUp { component, reason } => {
                ctx.trace_mark(Mark::GiveUp {
                    comp: intern(&component),
                    reason: reason.to_string(),
                });
                ctx.trace_mark(Mark::Stage(EpisodeStage::Quarantined, intern(&component)));
                control.pending.remove(&component);
                // A quarantined component's deferral entry is stale: leaving
                // it behind would re-issue a restart the policy just gave up
                // on the next time the queue drains.
                control.deferred.remove(&component);
                // The admission charge taken when this report was classified
                // paid for a restart that never launched; refund it so the
                // dead charge cannot starve admission of healthy components
                // for the rest of the capacity window.
                control.refund_admitted(&component);
                control.quarantined.insert(component.clone());
                ctx.telemetry().incr("decision_giveup");
            }
        }
    }

    fn on_failed(&mut self, component: String, ctx: &mut Context<'_, Wire>) {
        let now = ctx.now();
        let admission = {
            let mut control = self.control.borrow_mut();
            if !self.screen_report(&mut control, &component, now) {
                return;
            }
            // Serial baseline: one episode at a time. While any restart is in
            // flight a fresh suspicion is deferred, not queued — FD keeps
            // re-reporting it every ping round, so it is retried as soon as
            // the in-flight episode drains. Nothing is parked, so this is no
            // admission `defer:`; only the counter records it.
            if self.life.config().serial_recovery && !control.pending.is_empty() {
                ctx.telemetry().incr_labeled("reports_deferred", &component);
                return;
            }
            self.admission_classify(&mut control, &component, now)
        };
        match admission {
            Admission::Run => self.forward_report(&component, now, ctx),
            Admission::Defer => {
                ctx.trace_mark(Mark::Stage(EpisodeStage::Deferred, intern(&component)));
            }
            Admission::Shed => ctx.trace_mark(Mark::Stage(EpisodeStage::Shed, intern(&component))),
        }
    }

    /// Handles a batched report: same-instant suspicions are planned together
    /// as one antichain of episodes, so independent subtrees restart in
    /// parallel while overlapping ones merge by promotion instead of racing.
    fn on_failed_batch(&mut self, components: Vec<String>, ctx: &mut Context<'_, Wire>) {
        if self.life.config().serial_recovery {
            // The serial baseline processes the batch as if the reports had
            // arrived one by one: the first survivor opens an episode, the
            // rest are deferred for FD to re-report.
            for component in components {
                self.on_failed(component, ctx);
            }
            return;
        }
        let now = ctx.now();
        let (failures, deferred, shed) = {
            let mut control = self.control.borrow_mut();
            let mut failures: Vec<Failure> = Vec::new();
            let mut deferred: Vec<String> = Vec::new();
            let mut shed: Vec<String> = Vec::new();
            for component in components {
                if !self.screen_report(&mut control, &component, now) {
                    continue;
                }
                match self.admission_classify(&mut control, &component, now) {
                    Admission::Run => failures.push(self.failure_for(&mut control, &component)),
                    Admission::Defer => deferred.push(component),
                    Admission::Shed => shed.push(component),
                }
            }
            (failures, deferred, shed)
        };
        for component in deferred {
            ctx.trace_mark(Mark::Stage(EpisodeStage::Deferred, intern(&component)));
        }
        for component in shed {
            ctx.trace_mark(Mark::Stage(EpisodeStage::Shed, intern(&component)));
        }
        if failures.is_empty() {
            return;
        }
        let decisions = {
            let mut control = self.control.borrow_mut();
            control.recoverer.on_failures(failures, now)
        };
        for decision in decisions {
            self.apply_decision(decision, now, ctx);
        }
    }

    fn execute_restart(
        &mut self,
        components: &[String],
        delay: SimDuration,
        ctx: &mut Context<'_, Wire>,
    ) {
        // Pre-announce the whole group so the first component to boot already
        // sees the full contention.
        self.life
            .shared()
            .load
            .borrow_mut()
            .announce(components.iter().cloned());
        for comp in components {
            let Some(pid) = ctx.lookup(comp) else {
                ctx.trace_mark(format!("restart-error:unknown:{comp}"));
                continue;
            };
            ctx.kill_after(delay, pid);
            ctx.respawn_after(delay + calib::EXEC_DELAY, pid);
        }
        // The cell members will not beacon while rebooting: restart their
        // staleness clocks from the button push so the zombie defense does
        // not convict a component REC itself took down.
        let restart_at = ctx.now() + delay;
        let mut control = self.control.borrow_mut();
        for comp in components {
            if let Some(record) = control.beacons.get_mut(comp) {
                record.received_at = record.received_at.max(restart_at);
            }
        }
    }

    fn on_alive(&mut self, component: String, ctx: &mut Context<'_, Wire>) {
        let now = ctx.now();
        let mut control = self.control.borrow_mut();
        // For a component mid-reboot, FD's alive notice restarts the zombie
        // clock too: it gets a full beacon timeout to produce its first
        // beacon. Only pending components qualify — a long-running zombie
        // also answers pings, and its clock must keep running.
        if control
            .pending
            .values()
            .any(|(_, set)| set.contains(&component))
        {
            if let Some(record) = control.beacons.get_mut(&component) {
                record.received_at = record.received_at.max(now);
            }
        }
        let mut completed: Vec<String> = Vec::new();
        for (episode, (_, set)) in control.pending.iter_mut() {
            set.remove(&component);
            if set.is_empty() {
                completed.push(episode.clone());
            }
        }
        for episode in &completed {
            control.pending.remove(episode);
            control.recoverer.on_restart_complete(episode, now);
        }
        drop(control);
        self.start_confirms(completed, ctx);
    }

    /// Beacons double as aliveness evidence: a component only beacons once it
    /// is ready, so a beacon whose boot began after the restart button was
    /// pushed completes the episode even if FD's one-shot `Alive` notice was
    /// lost on a degraded link. The uptime check skips still-alive group
    /// members that keep beaconing during a backoff delay.
    fn on_beacon_alive(&mut self, component: &str, uptime_s: f64, ctx: &mut Context<'_, Wire>) {
        let now = ctx.now();
        let mut control = self.control.borrow_mut();
        let mut completed: Vec<String> = Vec::new();
        for (episode, (issued_at, set)) in control.pending.iter_mut() {
            if now.saturating_since(*issued_at).as_secs_f64() <= uptime_s {
                continue;
            }
            if set.remove(component) && set.is_empty() {
                completed.push(episode.clone());
            }
        }
        for episode in &completed {
            control.pending.remove(episode);
            control.recoverer.on_restart_complete(episode, now);
        }
        drop(control);
        self.start_confirms(completed, ctx);
    }

    /// Starts the cure-confirmation window for each completed episode.
    fn start_confirms(&mut self, completed: Vec<String>, ctx: &mut Context<'_, Wire>) {
        for episode in completed {
            self.next_confirm_slot += 1;
            let slot = self.next_confirm_slot;
            self.confirms.insert(slot, episode);
            let window = SimDuration::from_secs_f64(self.life.config().cure_confirm_s);
            ctx.set_timer(window, TIMER_CONFIRM_BASE + slot);
        }
    }

    fn on_confirm(&mut self, slot: u64, ctx: &mut Context<'_, Wire>) {
        let Some(component) = self.confirms.remove(&slot) else {
            return;
        };
        let now = ctx.now();
        let mut control = self.control.borrow_mut();
        // If a new failure arrived meanwhile, an escalated restart is in
        // flight and this confirmation is moot.
        if control.recoverer.is_recovering(&component)
            && !control.recoverer.is_in_flight(&component)
        {
            // A merged episode cures every suspicion it absorbed: mark each
            // origin so per-component recovery accounting stays attributable.
            let origins = control
                .recoverer
                .episode_origins(&component)
                .unwrap_or_else(|| vec![component.clone()]);
            control.recoverer.on_cured(&component, now);
            for origin in origins {
                ctx.trace_mark(Mark::Cured(intern(&origin)));
            }
        }
    }

    /// Proactive rejuvenation (§3, §7): if a component's health beacon
    /// reports aging past the configured threshold, restart its cell now —
    /// planned downtime at a moment of REC's choosing instead of an
    /// unplanned failure later.
    fn maybe_rejuvenate(&mut self, component: &str, aging: f64, ctx: &mut Context<'_, Wire>) {
        let Some(threshold) = self.life.config().rejuvenation_aging_threshold else {
            return;
        };
        if aging < threshold || !self.life.is_ready() {
            return;
        }
        let components = {
            let mut control = self.control.borrow_mut();
            if control
                .pending
                .values()
                .any(|(_, set)| set.contains(component))
                || control.recoverer.is_recovering(component)
            {
                return; // already being handled
            }
            let tree = control.recoverer.tree();
            let Some(cell) = tree.cell_of_component(component) else {
                return;
            };
            let components = tree.components_under(cell);
            ctx.trace_mark(Mark::Rejuvenate(intern(component)));
            ctx.telemetry().incr_labeled("rejuvenations", component);
            // Track the reboot like an episode so FD reports during the
            // planned restart are suppressed.
            let now = ctx.now();
            control.pending.insert(
                component.to_string(),
                (now, components.iter().cloned().collect()),
            );
            components
        };
        self.execute_restart(&components, SimDuration::ZERO, ctx);
    }

    /// Zombie defense: a component whose last health beacon is older than
    /// `beacon_timeout_s` is doing no work, even if it still answers FD's
    /// liveness pings. Report it failed so the normal recovery machinery
    /// (tree, policy, quarantine) handles it.
    fn check_beacon_staleness(&mut self, ctx: &mut Context<'_, Wire>) {
        let timeout = self.life.config().fd.beacon_timeout_s;
        if timeout <= 0.0 || !self.life.is_ready() {
            return;
        }
        let now = ctx.now();
        // A bus outage starves every relayed beacon at once, so a component's
        // silence proves nothing while (or shortly after) the bus itself was
        // overdue: staleness clocks only run from the last starved moment.
        let bus_overdue = {
            let control = self.control.borrow();
            control.beacons.get(names::MBUS).is_none_or(|record| {
                now.saturating_since(record.received_at).as_secs_f64()
                    > 2.0 * self.life.config().fd.beacon_period_s
            })
        };
        if bus_overdue {
            self.bus_starved_until = now;
        }
        let floor = self.bus_starved_until;
        let stale: Vec<String> = {
            let control = self.control.borrow();
            control
                .beacons
                .iter()
                .filter(|(comp, record)| {
                    comp.as_str() != names::FD
                        && comp.as_str() != names::REC
                        && now
                            .saturating_since(record.received_at.max(floor))
                            .as_secs_f64()
                            > timeout
                        && !control.quarantined.contains(*comp)
                        && !control.recoverer.is_recovering(comp)
                        && !control.pending.values().any(|(_, set)| set.contains(*comp))
                        && control.recoverer.tree().cell_of_component(comp).is_some()
                })
                .map(|(comp, _)| comp.clone())
                .collect()
        };
        for comp in stale {
            ctx.trace_mark(Mark::Stale(intern(&comp)));
            ctx.telemetry().incr_labeled("beacon_stale", &comp);
            // Restart the staleness clock so the reboot we are about to issue
            // has time to produce a fresh beacon before we re-suspect.
            if let Some(record) = self.control.borrow_mut().beacons.get_mut(&comp) {
                record.received_at = now;
            }
            self.on_failed(comp, ctx);
        }
    }

    fn watch_fd(&mut self, ctx: &mut Context<'_, Wire>) {
        if ctx.now() >= self.fd_grace_until {
            self.life
                .send_direct(ctx, names::FD, Message::Ping { seq: 0 });
            self.fd_outstanding = true;
            let timeout = SimDuration::from_secs_f64(self.life.config().fd.ping_timeout_s);
            ctx.set_timer(timeout, TIMER_FD_TIMEOUT);
        }
        self.check_beacon_staleness(ctx);
        ctx.set_timer(self.life.config().ping_period(), TIMER_FD_WATCH);
    }
}

impl Actor<Wire> for Rec {
    fn on_event(&mut self, ev: Event<Wire>, ctx: &mut Context<'_, Wire>) {
        match ev {
            Event::Start => self.life.begin_boot(ctx, 0.0),
            Event::Timer { key: TIMER_BOOT } => {
                self.life.set_ready(ctx);
                // Give FD the same cold-start grace it gives the components.
                let grace = SimDuration::from_secs_f64(calib::FD_GRACE_S);
                ctx.set_timer(grace, TIMER_FD_WATCH);
                // The deferral queue survives a REC restart (it lives in the
                // shared control block), so the drain tick re-arms here too.
                if self.life.config().admission_enabled {
                    let retry = SimDuration::from_secs_f64(self.life.config().admission_retry_s);
                    ctx.set_timer(retry, TIMER_ADMIT);
                }
            }
            Event::Timer { key: TIMER_ADMIT } => {
                if self.life.is_ready() {
                    self.drain_deferred(ctx);
                }
                let retry = SimDuration::from_secs_f64(self.life.config().admission_retry_s);
                ctx.set_timer(retry, TIMER_ADMIT);
            }
            Event::Timer {
                key: TIMER_FD_WATCH,
            } => self.watch_fd(ctx),
            Event::Timer {
                key: TIMER_FD_TIMEOUT,
            } => {
                if self.fd_outstanding {
                    self.fd_outstanding = false;
                    self.fd_misses += 1;
                    if self.fd_misses >= self.life.config().fd.suspicion_threshold.max(1) {
                        // FD is silent: REC initiates FD's recovery (§2.2).
                        if let Some(fd) = ctx.lookup(names::FD) {
                            ctx.trace_mark("rec-restarts:fd");
                            ctx.telemetry().incr("rec_restarts_fd");
                            ctx.kill_after(SimDuration::ZERO, fd);
                            ctx.respawn_after(calib::EXEC_DELAY, fd);
                            let grace = SimDuration::from_secs_f64(calib::WATCHDOG_GRACE_S);
                            self.fd_grace_until = ctx.now() + grace;
                            self.fd_misses = 0;
                        }
                    }
                }
            }
            Event::Timer { key } if key >= TIMER_CONFIRM_BASE => {
                self.on_confirm(key - TIMER_CONFIRM_BASE, ctx);
            }
            Event::Timer { key } => {
                self.life.handle_beacon_timer(key, ctx, 0.0);
            }
            Event::Message { payload, .. } => {
                let Some(env) = self.life.parse(ctx, payload) else {
                    return;
                };
                if self.life.handle_common(&env, ctx, 0.0) {
                    return;
                }
                match env.body {
                    Message::Failed { component } if self.life.is_ready() => {
                        self.on_failed(component, ctx);
                    }
                    Message::FailedBatch { components } if self.life.is_ready() => {
                        self.on_failed_batch(components, ctx);
                    }
                    Message::Alive { component } if self.life.is_ready() => {
                        self.on_alive(component, ctx);
                    }
                    Message::Pong { .. } if env.src == names::FD => {
                        self.fd_outstanding = false;
                        self.fd_misses = 0;
                    }
                    Message::Beacon {
                        component,
                        status,
                        uptime_s,
                        aging,
                        handled,
                    } => {
                        self.control.borrow_mut().beacons.insert(
                            component.clone(),
                            BeaconRecord {
                                status,
                                uptime_s,
                                aging,
                                handled,
                                received_at: ctx.now(),
                            },
                        );
                        if self.life.is_ready() {
                            self.on_beacon_alive(&component, uptime_s, ctx);
                        }
                        self.maybe_rejuvenate(&component, aging, ctx);
                    }
                    _ => {}
                }
            }
        }
    }
}
