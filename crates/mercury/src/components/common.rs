//! Shared component machinery: boot lifecycle, ping answering, beacons,
//! envelope plumbing.
//!
//! Every Mercury component is an independently-restartable process with the
//! same skeleton (§2.1–2.2): it boots (slowly — JVM start, hardware
//! negotiation), declares itself *functionally ready* by logging a
//! timestamped message (the exact measurement hook of §4.1), answers the
//! failure detector's XML liveness pings only once ready, and optionally
//! broadcasts health-summary beacons (§7 future work).

use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

use mercury_msg::{ComponentStatus, Envelope, Message, MsgError};
use rr_core::RecoveryMode;
use rr_sim::{intern, Context, Mark, ProcessId, SimDuration, SimTime};
use rr_store::{RecoveryStats, StateStore};

use crate::config::{calib, names, StationConfig};
use crate::host::{HostLoad, RadioHardware};

/// The simulation's wire type: one envelope on its way from sender to
/// receiver.
///
/// A station envelope travels as itself whenever the decoder is certain to
/// read it back exactly ([`Envelope::round_trips`]), so no hop encodes or
/// parses it; anything else travels as the XML bytes the real station would
/// put on its TCP links, and is read, or refused, where it lands. Building
/// a wire from an envelope (`Wire::from(envelope)`) is the one place that
/// chooses; text from outside the station (garbage, tests) is always bytes.
/// The envelope is boxed because the engine stores payloads inline in every
/// queued event.
#[derive(Debug, Clone, PartialEq)]
pub struct Wire(Carried);

#[derive(Debug, Clone, PartialEq)]
enum Carried {
    /// An envelope that `Envelope::parse` reads back from its own encoding.
    Envelope(Box<Envelope>),
    /// Bytes, to be parsed at the next hop.
    Bytes(String),
}

impl Wire {
    /// The wire form: the bytes as they arrived, or the envelope's encoding,
    /// rendered now.
    pub fn xml(&self) -> Cow<'_, str> {
        match &self.0 {
            Carried::Envelope(env) => Cow::Owned(env.to_xml_string()),
            Carried::Bytes(xml) => Cow::Borrowed(xml),
        }
    }

    /// The envelope, when it travels as one; `None` for bytes.
    pub fn decoded(&self) -> Option<&Envelope> {
        match &self.0 {
            Carried::Envelope(env) => Some(env),
            Carried::Bytes(_) => None,
        }
    }

    /// The envelope this wire carries, parsing bytes.
    ///
    /// # Errors
    ///
    /// Returns the [`MsgError`] of [`Envelope::parse`] on bytes that are not
    /// an envelope.
    pub fn into_envelope(self) -> Result<Box<Envelope>, MsgError> {
        match self.0 {
            Carried::Envelope(env) => Ok(env),
            Carried::Bytes(xml) => Envelope::parse(&xml).map(Box::new),
        }
    }
}

impl From<Box<Envelope>> for Wire {
    /// Typed when the envelope [round-trips](Envelope::round_trips), else its
    /// encoding. mbus forwards the envelopes it parsed from bytes through
    /// here; a typed wire it forwards as it came, unchecked, because its
    /// sender built it through here.
    fn from(env: Box<Envelope>) -> Wire {
        if env.round_trips() {
            Wire(Carried::Envelope(env))
        } else {
            Wire(Carried::Bytes(env.to_xml_string()))
        }
    }
}

impl From<Envelope> for Wire {
    /// As for a boxed envelope; every message a station component sends
    /// starts here. Debug builds check each one that travels typed against
    /// a real encode and parse, floats compared by their shortest exact
    /// form.
    fn from(env: Envelope) -> Wire {
        let wire = Wire::from(Box::new(env));
        if let Some(env) = wire.decoded() {
            debug_assert_eq!(
                Envelope::parse(&env.to_xml_string()).map(|back| format!("{back:?}")),
                Ok(format!("{env:?}")),
                "a typed envelope must read back from its own encoding"
            );
        }
        wire
    }
}

impl From<String> for Wire {
    fn from(xml: String) -> Wire {
        Wire(Carried::Bytes(xml))
    }
}

impl From<&str> for Wire {
    fn from(xml: &str) -> Wire {
        Wire::from(xml.to_string())
    }
}

/// Timer key for boot completion.
pub const TIMER_BOOT: u64 = 1;
/// Timer key for the periodic health beacon.
const TIMER_BEACON: u64 = 2;
/// First timer key available to component-specific logic.
pub const TIMER_ROLE_BASE: u64 = 10;
/// Timer key for rehydrate-replay completion ([`StoreClient`]).
const TIMER_REHYDRATE: u64 = TIMER_ROLE_BASE + 7;
/// Timer key for the periodic checkpoint write ([`StoreClient`]).
const TIMER_CHECKPOINT: u64 = TIMER_ROLE_BASE + 8;
/// Timer key for the periodic journal update append ([`StoreClient`]).
const TIMER_STATE_UPDATE: u64 = TIMER_ROLE_BASE + 9;

/// Shared state handed to every component factory.
#[derive(Clone)]
pub struct Shared {
    /// The station configuration (calibration constants).
    pub config: Rc<StationConfig>,
    /// Host-level boot contention.
    pub load: Rc<RefCell<HostLoad>>,
    /// The radio hardware behind pbcom's serial port.
    pub radio: Rc<RefCell<RadioHardware>>,
    /// The crash-safe component state store (`rr-store`). Shared by `Rc`
    /// so it lives *outside* the restartable actors — the simulation's
    /// stand-in for durable media, surviving the very respawns it exists
    /// to accelerate.
    pub store: Rc<RefCell<StateStore>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl Shared {
    /// Creates shared state over a configuration.
    pub fn new(config: StationConfig) -> Shared {
        Shared {
            config: Rc::new(config),
            load: HostLoad::new_shared(),
            radio: RadioHardware::new_shared(),
            store: Rc::new(RefCell::new(StateStore::new())),
        }
    }
}

/// A component's lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Process is starting (JVM boot, hardware negotiation): fail-silent to
    /// everything, including peers.
    Booting,
    /// Booted but completing initialization handshakes (ses/str sync, fedr
    /// connect): talks to peers, does not yet answer liveness pings.
    Initializing,
    /// Functionally ready.
    Ready,
}

/// Per-component lifecycle helper embedded in each actor.
#[derive(Debug)]
pub struct Lifecycle {
    name: &'static str,
    shared: Shared,
    /// mbus's process id, once [`send_bus`](Lifecycle::send_bus) has
    /// resolved it. The engine never despawns, so an id outlives every kill
    /// and respawn of its process.
    bus: Option<ProcessId>,
    phase: Phase,
    started_at: SimTime,
    handled: u64,
    next_id: u64,
}

impl Lifecycle {
    /// Creates the lifecycle for component `name`.
    pub fn new(name: &'static str, shared: Shared) -> Lifecycle {
        Lifecycle {
            name,
            shared,
            bus: None,
            phase: Phase::Booting,
            started_at: SimTime::ZERO,
            handled: 0,
            next_id: 0,
        }
    }

    /// The component name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The shared station state.
    pub fn shared(&self) -> &Shared {
        &self.shared
    }

    /// The station configuration.
    pub fn config(&self) -> &StationConfig {
        &self.shared.config
    }

    /// `true` once the component has declared itself functionally ready.
    pub fn is_ready(&self) -> bool {
        self.phase == Phase::Ready
    }

    /// The current lifecycle phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Enters the initialization phase (boot finished, handshakes pending).
    pub fn set_initializing(&mut self) {
        self.phase = Phase::Initializing;
    }

    /// Seconds since this incarnation started.
    pub fn uptime_s(&self, now: SimTime) -> f64 {
        now.saturating_since(self.started_at).as_secs_f64()
    }

    /// `true` if this incarnation started recently (fresh peer for sync
    /// purposes, §4.3).
    pub fn is_fresh(&self, now: SimTime) -> bool {
        self.uptime_s(now) < calib::FRESH_THRESHOLD_S
    }

    /// Begins the boot phase: samples this component's boot time, scales it
    /// by the current host contention, charges `extra_s` (e.g. serial
    /// renegotiation back-off) and arms [`TIMER_BOOT`]. Call from
    /// `Event::Start`.
    pub fn begin_boot(&mut self, ctx: &mut Context<'_, Wire>, extra_s: f64) {
        self.phase = Phase::Booting;
        self.started_at = ctx.now();
        self.handled = 0;
        let base = calib::timing_for(self.name).boot_dist();
        let k = self.shared.load.borrow_mut().begin_boot(self.name);
        let factor = if k <= 1 {
            1.0
        } else {
            1.0 + calib::CONTENTION_QUADRATIC * ((k - 1) as f64).powi(2)
        };
        let boot = base.sample_secs(ctx.rng()) * factor + extra_s;
        ctx.set_timer(SimDuration::from_secs_f64(boot.max(0.0)), TIMER_BOOT);
    }

    /// Declares the component functionally ready: logs the timestamped
    /// `ready:` mark (the measurement endpoint of §4.1), releases the host
    /// load slot and schedules the first beacon.
    pub fn set_ready(&mut self, ctx: &mut Context<'_, Wire>) {
        self.phase = Phase::Ready;
        self.shared.load.borrow_mut().end_boot(self.name);
        ctx.trace_mark(Mark::Ready(intern(self.name)));
        let period = self.config().fd.beacon_period_s;
        if period > 0.0 {
            ctx.set_timer(SimDuration::from_secs_f64(period), TIMER_BEACON);
        }
    }

    /// Allocates an envelope id.
    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Counts one envelope in `handled` that was read without
    /// [`parse`](Lifecycle::parse): mbus forwarding a typed wire.
    pub(super) fn count_handled(&mut self) {
        self.handled += 1;
    }

    /// Sends `msg` to `dst` through the message bus.
    pub fn send_bus(
        &mut self,
        ctx: &mut Context<'_, Wire>,
        dst: impl Into<Cow<'static, str>>,
        msg: Message,
    ) {
        let id = self.next_id();
        let Some(bus) = self.bus.or_else(|| ctx.lookup(names::MBUS)) else {
            return;
        };
        self.bus = Some(bus);
        let env = Envelope::new(self.name, dst, id, msg);
        ctx.send_after(bus, calib::BUS_LATENCY, Wire::from(env));
    }

    /// Sends `msg` to `dst` over a dedicated point-to-point connection
    /// (FD↔REC, fedr↔pbcom).
    pub fn send_direct(
        &mut self,
        ctx: &mut Context<'_, Wire>,
        dst: impl Into<Cow<'static, str>>,
        msg: Message,
    ) {
        let id = self.next_id();
        let env = Envelope::new(self.name, dst, id, msg);
        let Some(pid) = ctx.lookup(&env.dst) else {
            return;
        };
        ctx.send_after(pid, calib::DIRECT_LATENCY, Wire::from(env));
    }

    /// Reads an incoming wire message, parsing it if it came as bytes, and
    /// counts it in `handled`; logs and drops malformed traffic.
    pub fn parse(&mut self, ctx: &mut Context<'_, Wire>, wire: Wire) -> Option<Box<Envelope>> {
        match wire.into_envelope() {
            Ok(env) => {
                self.handled += 1;
                Some(env)
            }
            Err(e) => {
                ctx.trace_mark(format!("parse-error:{}:{e}", self.name));
                ctx.telemetry().incr_labeled("parse_errors", self.name);
                None
            }
        }
    }

    /// Handles the lifecycle-level messages common to all components: pings
    /// (answered only when ready, over the same path they arrived on) and the
    /// beacon timer. Returns `true` if the event was consumed.
    pub fn handle_common(
        &mut self,
        env: &Envelope,
        ctx: &mut Context<'_, Wire>,
        aging: f64,
    ) -> bool {
        match &env.body {
            Message::Ping { seq } => {
                if self.phase == Phase::Ready {
                    let pong = Message::Pong {
                        seq: *seq,
                        status: if aging >= 0.75 {
                            ComponentStatus::Degraded
                        } else {
                            ComponentStatus::Ok
                        },
                    };
                    // FD and REC ping each other over their dedicated
                    // connection (§2.2); everything else is pinged via mbus
                    // and must answer the same way.
                    let src = env.src.clone();
                    if self.name == names::FD || self.name == names::REC {
                        self.send_direct(ctx, src, pong);
                    } else {
                        self.send_bus(ctx, src, pong);
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// Handles the beacon timer: emits a health-summary beacon to REC and
    /// re-arms. Returns `true` if the timer key was consumed.
    pub fn handle_beacon_timer(
        &mut self,
        key: u64,
        ctx: &mut Context<'_, Wire>,
        aging: f64,
    ) -> bool {
        if key != TIMER_BEACON {
            return false;
        }
        if self.phase == Phase::Ready {
            let beacon = Message::Beacon {
                component: self.name.to_string(),
                status: if aging >= 0.75 {
                    ComponentStatus::Degraded
                } else {
                    ComponentStatus::Ok
                },
                uptime_s: self.uptime_s(ctx.now()),
                aging,
                handled: self.handled,
            };
            self.send_bus(ctx, names::REC, beacon);
        }
        let period = self.config().fd.beacon_period_s;
        if period > 0.0 {
            ctx.set_timer(SimDuration::from_secs_f64(period), TIMER_BEACON);
        }
        true
    }
}

/// A stateful component's connection to the crash-safe store: journals
/// session state while healthy, rehydrates it after a restart.
///
/// The write path runs on two timers once the component is ready: a
/// checkpoint every `checkpoint_interval_s` (full synthetic state of
/// [`session_state_kb`](StationConfig::session_state_kb), compacting the
/// journal) and an update append every
/// [`STORE_UPDATE_PERIOD_S`](calib::STORE_UPDATE_PERIOD_S).
/// Writes are modelled asynchronous — the component stays responsive —
/// but their stall cost is accounted in the `checkpoint_stall_ms`
/// counter so experiments can charge checkpointing against availability.
///
/// The read path hooks `TIMER_BOOT`: [`StoreClient::try_rehydrate`]
/// replays the journal's valid prefix and, when a verified snapshot
/// exists, schedules readiness after a replay delay proportional to the
/// recovered bytes — *instead of* the component's cold re-derivation
/// (for ses/str, the §4.3 resync). Anything less — a torn or corrupted
/// journal with no usable snapshot — falls back to the cold path, so
/// store damage can slow recovery but never wedge it.
#[derive(Debug)]
pub struct StoreClient {
    mode: RecoveryMode,
    journaling: bool,
    pending: Option<RecoveryStats>,
}

impl StoreClient {
    /// Creates the client for component `name`, resolving its configured
    /// [`RecoveryMode`] (absent from the map ⇒ cold restart, and every
    /// method is a cheap no-op).
    pub fn new(name: &str, shared: &Shared) -> StoreClient {
        StoreClient {
            mode: shared
                .config
                .recovery_modes
                .get(name)
                .copied()
                .unwrap_or_default(),
            journaling: false,
            pending: None,
        }
    }

    /// Attempts rehydration at boot completion (call on `TIMER_BOOT`).
    /// Returns `true` when a verified snapshot was found and readiness has
    /// been scheduled after the replay delay; `false` means the caller
    /// must run its cold-start path.
    pub fn try_rehydrate(&mut self, life: &mut Lifecycle, ctx: &mut Context<'_, Wire>) -> bool {
        if !self.mode.is_rehydrate() {
            return false;
        }
        let (verified, stats) = {
            let mut store = life.shared().store.borrow_mut();
            let recovery = store.component(life.name()).recover();
            (recovery.state.is_some(), recovery.stats)
        };
        if !verified {
            ctx.trace_mark(format!("rehydrate-miss:{}", life.name()));
            return false;
        }
        life.set_initializing();
        let replayed_kb = (stats.snapshot_bytes + stats.update_bytes) as f64 / 1024.0;
        let replay_s = replayed_kb / calib::STORE_THROUGHPUT_KBPS;
        self.pending = Some(stats);
        ctx.set_timer(SimDuration::from_secs_f64(replay_s), TIMER_REHYDRATE);
        true
    }

    /// Starts journaling after a *cold* path made the component ready
    /// (the rehydrate path starts it on its own). Writes the initial
    /// checkpoint so even a crash before the first interval tick finds
    /// durable state. No-op unless the mode is rehydrate.
    pub fn start_journaling(&mut self, life: &mut Lifecycle, ctx: &mut Context<'_, Wire>) {
        let RecoveryMode::Rehydrate {
            checkpoint_interval_s,
        } = self.mode
        else {
            return;
        };
        if self.journaling {
            return;
        }
        self.journaling = true;
        self.write_checkpoint(life, ctx);
        ctx.set_timer(
            SimDuration::from_secs_f64(checkpoint_interval_s),
            TIMER_CHECKPOINT,
        );
        ctx.set_timer(
            SimDuration::from_secs_f64(calib::STORE_UPDATE_PERIOD_S),
            TIMER_STATE_UPDATE,
        );
    }

    /// Handles the rehydrate/checkpoint/update timers. Returns `true` if
    /// the key was consumed.
    pub fn handle_timer(
        &mut self,
        key: u64,
        life: &mut Lifecycle,
        ctx: &mut Context<'_, Wire>,
    ) -> bool {
        match key {
            TIMER_REHYDRATE => {
                if let Some(stats) = self.pending.take() {
                    ctx.trace_mark(format!("rehydrate:{}", life.name()));
                    {
                        let t = ctx.telemetry();
                        let name = life.name();
                        t.incr_labeled("rehydrated", name);
                        t.incr_by("replayed_records", name, stats.replayed_records);
                        t.incr_by("snapshot_bytes", name, stats.snapshot_bytes);
                    }
                    life.set_ready(ctx);
                    self.start_journaling(life, ctx);
                }
                true
            }
            TIMER_CHECKPOINT => {
                let RecoveryMode::Rehydrate {
                    checkpoint_interval_s,
                } = self.mode
                else {
                    return true;
                };
                if life.is_ready() {
                    self.write_checkpoint(life, ctx);
                }
                ctx.set_timer(
                    SimDuration::from_secs_f64(checkpoint_interval_s),
                    TIMER_CHECKPOINT,
                );
                true
            }
            TIMER_STATE_UPDATE => {
                if life.is_ready() {
                    let payload =
                        synthetic_bytes(ctx.now(), (calib::STORE_UPDATE_KB * 1024.0) as usize);
                    let store = life.shared().store.clone();
                    store
                        .borrow_mut()
                        .component(life.name())
                        .append_update(&payload);
                }
                ctx.set_timer(
                    SimDuration::from_secs_f64(calib::STORE_UPDATE_PERIOD_S),
                    TIMER_STATE_UPDATE,
                );
                true
            }
            _ => false,
        }
    }

    fn write_checkpoint(&mut self, life: &mut Lifecycle, ctx: &mut Context<'_, Wire>) {
        let cfg = life.config();
        let size = (cfg.session_state_kb * 1024.0) as usize;
        let stall_ms = (cfg.session_state_kb / calib::STORE_THROUGHPUT_KBPS * 1000.0) as u64;
        let state = synthetic_bytes(ctx.now(), size);
        let store = life.shared().store.clone();
        store.borrow_mut().component(life.name()).checkpoint(&state);
        let t = ctx.telemetry();
        t.incr_labeled("checkpoints", life.name());
        t.incr_by("checkpoint_stall_ms", life.name(), stall_ms);
    }
}

/// Deterministic synthetic state bytes: sized to the configured state,
/// varying with virtual time so successive checkpoints are distinct
/// content (content addressing would otherwise dedup them all).
fn synthetic_bytes(now: SimTime, len: usize) -> Vec<u8> {
    let tag = now.as_nanos().to_le_bytes();
    (0..len).map(|i| tag[i % 8] ^ (i as u8)).collect()
}
