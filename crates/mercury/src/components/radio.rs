//! The radio front end: `fedrcom` (trees I/II) and its §4.2 split into
//! `fedr` + `pbcom` (trees III–V).
//!
//! * [`Fedrcom`] is the original monolith: "a bidirectional proxy between XML
//!   command messages and low-level radio commands". It negotiates with the
//!   radio hardware at startup (slow) and its command translator is buggy
//!   (crashes often) — "high MTTR and low MTTF, a bad combination".
//! * [`Pbcom`] "maps a serial port to a TCP socket": simple, stable, slow to
//!   start (hardware negotiation). It *ages* every time it loses the fedr
//!   connection and eventually fails (§4.2), and the radio hardware backs
//!   off when the serial link bounces twice in quick succession (§4.4's
//!   rapid-restart cost).
//! * [`Fedr`] is the front-end driver: fast to restart, unstable, connected
//!   to pbcom over TCP. The harness can *poison* it (`TestHook`), making it
//!   corrupt its pbcom session — the failure that manifests in pbcom but is
//!   only curable by a joint restart (§4.4).

use mercury_msg::Message;
use rr_sim::{intern, Actor, Context, Event, Mark, SimDuration, SimTime};

use super::common::{Lifecycle, Shared, Wire, TIMER_BOOT, TIMER_ROLE_BASE};
use crate::config::{calib, names};

const TIMER_TELEMETRY: u64 = TIMER_ROLE_BASE;
const TIMER_CONNECT_RETRY: u64 = TIMER_ROLE_BASE + 1;
const TIMER_KEEPALIVE: u64 = TIMER_ROLE_BASE + 2;
const TIMER_SEND_POISON: u64 = TIMER_ROLE_BASE + 3;

/// Tracks whether tune/point commands are fresh enough for carrier lock.
#[derive(Debug, Default, Clone, Copy)]
struct LockState {
    last_tune: Option<SimTime>,
    last_point: Option<SimTime>,
}

impl LockState {
    fn tune(&mut self, now: SimTime) {
        self.last_tune = Some(now);
    }

    fn point(&mut self, now: SimTime) {
        self.last_point = Some(now);
    }

    fn locked(&self, now: SimTime, window_s: f64) -> bool {
        let fresh = |t: Option<SimTime>| {
            t.is_some_and(|t| now.saturating_since(t).as_secs_f64() <= window_s)
        };
        fresh(self.last_tune) && fresh(self.last_point)
    }
}

/// The unsplit radio proxy of trees I/II.
#[derive(Debug)]
pub struct Fedrcom {
    life: Lifecycle,
    lock: LockState,
    satellite: String,
    frame: u64,
}

impl Fedrcom {
    /// Creates the fedrcom actor.
    pub fn new(shared: Shared) -> Fedrcom {
        let satellite = shared
            .config
            .satellites
            .first()
            .map(|s| s.name.clone())
            .unwrap_or_else(|| "opal".to_string());
        Fedrcom {
            life: Lifecycle::new(names::FEDRCOM, shared),
            lock: LockState::default(),
            satellite,
            frame: 0,
        }
    }
}

impl Actor<Wire> for Fedrcom {
    fn on_event(&mut self, ev: Event<Wire>, ctx: &mut Context<'_, Wire>) {
        match ev {
            Event::Start => {
                // The monolith owns the serial port: boot includes hardware
                // negotiation, with the rapid-bounce back-off.
                let extra = self.life.shared().radio.borrow_mut().begin_negotiation(
                    ctx.now(),
                    calib::RAPID_RESTART_WINDOW_S,
                    calib::PBCOM_RAPID_RESTART_PENALTY_S,
                );
                self.life.begin_boot(ctx, extra);
            }
            Event::Timer { key: TIMER_BOOT } => {
                self.life.set_ready(ctx);
                let period = SimDuration::from_secs_f64(calib::TELEMETRY_PERIOD_S);
                ctx.set_timer(period, TIMER_TELEMETRY);
            }
            Event::Timer {
                key: TIMER_TELEMETRY,
            } => {
                if self.life.is_ready() && self.lock.locked(ctx.now(), calib::LOCK_WINDOW_S) {
                    self.frame += 1;
                    ctx.trace_mark(format!("telemetry:{}:{}", self.satellite, self.frame));
                    let msg = Message::Telemetry {
                        satellite: self.satellite.clone(),
                        frame: self.frame,
                        hex: format!("{:08x}", self.frame),
                    };
                    self.life.send_bus(ctx, names::STR, msg);
                }
                let period = SimDuration::from_secs_f64(calib::TELEMETRY_PERIOD_S);
                ctx.set_timer(period, TIMER_TELEMETRY);
            }
            Event::Timer { key } => {
                self.life.handle_beacon_timer(key, ctx, 0.0);
            }
            Event::Message { payload, .. } => {
                let Some(env) = self.life.parse(ctx, payload) else {
                    return;
                };
                if self.life.handle_common(&env, ctx, 0.0) || !self.life.is_ready() {
                    return;
                }
                match env.body {
                    Message::TuneRadio { .. } => self.lock.tune(ctx.now()),
                    Message::PointAntenna { .. } => self.lock.point(ctx.now()),
                    Message::TrackRequest { satellite } => self.satellite = satellite,
                    _ => {}
                }
            }
        }
    }
}

/// The front-end driver-radio (post-split).
#[derive(Debug)]
pub struct Fedr {
    life: Lifecycle,
    connected: bool,
    poisoned: bool,
    satellite: String,
    missed_keepalives: u32,
}

impl Fedr {
    /// Creates the fedr actor.
    pub fn new(shared: Shared) -> Fedr {
        let satellite = shared
            .config
            .satellites
            .first()
            .map(|s| s.name.clone())
            .unwrap_or_else(|| "opal".to_string());
        Fedr {
            life: Lifecycle::new(names::FEDR, shared),
            connected: false,
            poisoned: false,
            satellite,
            missed_keepalives: 0,
        }
    }

    fn radio_cmd(verb: &str, arg: &str) -> Message {
        Message::RadioCommand {
            verb: verb.to_string(),
            arg: arg.to_string(),
        }
    }

    fn try_connect(&mut self, ctx: &mut Context<'_, Wire>) {
        self.connected = false;
        self.life
            .send_direct(ctx, names::PBCOM, Self::radio_cmd("OPEN", ""));
        let retry = SimDuration::from_secs_f64(calib::CONNECT_RETRY_S);
        ctx.set_timer(retry, TIMER_CONNECT_RETRY);
    }
}

impl Actor<Wire> for Fedr {
    fn on_event(&mut self, ev: Event<Wire>, ctx: &mut Context<'_, Wire>) {
        match ev {
            Event::Start => self.life.begin_boot(ctx, 0.0),
            Event::Timer { key: TIMER_BOOT } => {
                self.life.set_initializing();
                self.try_connect(ctx);
            }
            Event::Timer {
                key: TIMER_CONNECT_RETRY,
            } => {
                if !self.connected {
                    self.try_connect(ctx);
                }
            }
            Event::Timer {
                key: TIMER_KEEPALIVE,
            } => {
                if self.connected {
                    self.missed_keepalives += 1;
                    if self.missed_keepalives > 2 {
                        // The pbcom session is gone; reconnect in the
                        // background (fedr itself stays functional).
                        self.try_connect(ctx);
                    } else {
                        self.life
                            .send_direct(ctx, names::PBCOM, Self::radio_cmd("KEEPALIVE", ""));
                        let period = SimDuration::from_secs_f64(calib::KEEPALIVE_PERIOD_S);
                        ctx.set_timer(period, TIMER_KEEPALIVE);
                    }
                }
            }
            Event::Timer {
                key: TIMER_SEND_POISON,
            } => {
                if self.connected {
                    // The corrupted session state damages pbcom (§4.4): this
                    // failure will manifest in pbcom, and restarting pbcom
                    // alone cannot cure it — this incarnation of fedr will
                    // simply re-corrupt the new session.
                    self.life
                        .send_direct(ctx, names::PBCOM, Self::radio_cmd("DATA", "corrupt"));
                }
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
                    Message::TestHook { ref action } if action == "poison" => {
                        self.poisoned = true;
                        ctx.trace_mark("poisoned:fedr");
                        if self.connected {
                            ctx.set_timer(SimDuration::from_millis(100), TIMER_SEND_POISON);
                        }
                    }
                    Message::RadioCommand { ref verb, .. } if verb == "OPEN-ACK" => {
                        self.connected = true;
                        self.missed_keepalives = 0;
                        if !self.life.is_ready() {
                            self.life.set_ready(ctx);
                        }
                        let period = SimDuration::from_secs_f64(calib::KEEPALIVE_PERIOD_S);
                        ctx.set_timer(period, TIMER_KEEPALIVE);
                        if self.poisoned {
                            ctx.set_timer(SimDuration::from_millis(100), TIMER_SEND_POISON);
                        }
                    }
                    Message::RadioCommand { ref verb, .. } if verb == "KA-ACK" => {
                        self.missed_keepalives = 0;
                    }
                    Message::TuneRadio { frequency_hz, .. } if self.life.is_ready() => {
                        self.life.send_direct(
                            ctx,
                            names::PBCOM,
                            Self::radio_cmd("FREQ", &format!("{frequency_hz:.0}")),
                        );
                    }
                    Message::PointAntenna {
                        azimuth_deg,
                        elevation_deg,
                    } if self.life.is_ready() => {
                        self.life.send_direct(
                            ctx,
                            names::PBCOM,
                            Self::radio_cmd(
                                "POINT",
                                &format!("{azimuth_deg:.1},{elevation_deg:.1}"),
                            ),
                        );
                    }
                    Message::TrackRequest { satellite } => self.satellite = satellite,
                    Message::SerialFrame { ref hex } if self.life.is_ready() => {
                        // Downlink data from the radio: deframe, validate the
                        // CRC, and translate to a high-level telemetry
                        // message. Corrupt frames are dropped and counted —
                        // they must never reach the bus.
                        match mercury_msg::TelemetryFrame::from_hex(hex) {
                            Ok(frame) => {
                                let seq = u64::from(frame.seq);
                                ctx.trace_mark(format!("telemetry:{}:{seq}", self.satellite));
                                let msg = Message::Telemetry {
                                    satellite: self.satellite.clone(),
                                    frame: seq,
                                    hex: hex.clone(),
                                };
                                self.life.send_bus(ctx, names::STR, msg);
                            }
                            Err(e) => {
                                ctx.trace_mark(format!("telemetry-corrupt:{e}"));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// The serial-port/TCP bridge (post-split).
#[derive(Debug)]
pub struct Pbcom {
    life: Lifecycle,
    /// Sessions accepted this incarnation; re-opens beyond the first mean
    /// the link was lost and the bridge ages (§4.2).
    sessions: u32,
    aging: u32,
    lock: LockState,
    frame: u64,
    dying: bool,
}

impl Pbcom {
    /// Creates the pbcom actor.
    pub fn new(shared: Shared) -> Pbcom {
        Pbcom {
            life: Lifecycle::new(names::PBCOM, shared),
            sessions: 0,
            aging: 0,
            lock: LockState::default(),
            frame: 0,
            dying: false,
        }
    }

    fn aging_fraction(&self) -> f64 {
        f64::from(self.aging) / f64::from(calib::PBCOM_AGING_LIMIT)
    }
}

impl Actor<Wire> for Pbcom {
    fn on_event(&mut self, ev: Event<Wire>, ctx: &mut Context<'_, Wire>) {
        match ev {
            Event::Start => {
                let extra = self.life.shared().radio.borrow_mut().begin_negotiation(
                    ctx.now(),
                    calib::RAPID_RESTART_WINDOW_S,
                    calib::PBCOM_RAPID_RESTART_PENALTY_S,
                );
                self.life.begin_boot(ctx, extra);
            }
            Event::Timer { key: TIMER_BOOT } => {
                self.life.set_ready(ctx);
                let period = SimDuration::from_secs_f64(calib::TELEMETRY_PERIOD_S);
                ctx.set_timer(period, TIMER_TELEMETRY);
            }
            Event::Timer {
                key: TIMER_TELEMETRY,
            } => {
                if self.life.is_ready()
                    && !self.dying
                    && self.sessions > 0
                    && self.lock.locked(ctx.now(), calib::LOCK_WINDOW_S)
                {
                    self.frame += 1;
                    // Downlink data is CRC-framed on the serial link.
                    let payload = format!("frame-{:06}", self.frame).into_bytes();
                    let frame = mercury_msg::TelemetryFrame::new(self.frame as u32, payload);
                    let msg = Message::SerialFrame {
                        hex: frame.to_hex(),
                    };
                    self.life.send_direct(ctx, names::FEDR, msg);
                }
                let period = SimDuration::from_secs_f64(calib::TELEMETRY_PERIOD_S);
                ctx.set_timer(period, TIMER_TELEMETRY);
            }
            Event::Timer { key } => {
                self.life
                    .handle_beacon_timer(key, ctx, self.aging_fraction());
            }
            Event::Message { payload, .. } => {
                let Some(env) = self.life.parse(ctx, payload) else {
                    return;
                };
                let aging = self.aging_fraction();
                if self.life.handle_common(&env, ctx, aging) || !self.life.is_ready() {
                    return;
                }
                let Message::RadioCommand { ref verb, ref arg } = env.body else {
                    return;
                };
                match verb.as_str() {
                    "OPEN" => {
                        self.sessions += 1;
                        if self.sessions > 1 {
                            // The previous session was severed: the bridge
                            // leaks session state and ages (§4.2).
                            self.aging += 1;
                            if self.aging >= calib::PBCOM_AGING_LIMIT && !self.dying {
                                self.dying = true;
                                ctx.trace_mark(Mark::AgingCrash(intern(names::PBCOM)));
                                let me = ctx.id();
                                ctx.kill_after(SimDuration::from_millis(500), me);
                            }
                        }
                        let ack_delay = SimDuration::from_secs_f64(calib::CONNECT_ACK_S);
                        let id = self.life.next_id();
                        let ack = env.reply_with(
                            id,
                            Message::RadioCommand {
                                verb: "OPEN-ACK".to_string(),
                                arg: String::new(),
                            },
                        );
                        let Some(pid) = ctx.lookup(&env.src) else {
                            return;
                        };
                        ctx.send_after(pid, ack_delay, Wire::from(ack));
                    }
                    "KEEPALIVE" => {
                        let id = self.life.next_id();
                        let ack = env.reply_with(
                            id,
                            Message::RadioCommand {
                                verb: "KA-ACK".to_string(),
                                arg: String::new(),
                            },
                        );
                        let Some(pid) = ctx.lookup(&env.src) else {
                            return;
                        };
                        ctx.send_after(pid, calib::DIRECT_LATENCY, Wire::from(ack));
                    }
                    "DATA" if arg == "corrupt" && !self.dying => {
                        // The poisoned session corrupts the bridge (§4.4).
                        self.dying = true;
                        ctx.trace_mark(Mark::PoisonCrash(intern(names::PBCOM)));
                        let delay = SimDuration::from_secs_f64(calib::POISON_CRASH_DELAY_S);
                        let me = ctx.id();
                        ctx.kill_after(delay, me);
                    }
                    "FREQ" => self.lock.tune(ctx.now()),
                    "POINT" => self.lock.point(ctx.now()),
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_state_requires_both_fresh() {
        let mut lock = LockState::default();
        let t = |s| SimTime::from_secs(s);
        assert!(!lock.locked(t(10), 5.0));
        lock.tune(t(10));
        assert!(!lock.locked(t(10), 5.0), "tune alone is not lock");
        lock.point(t(12));
        assert!(lock.locked(t(13), 5.0));
        assert!(!lock.locked(t(16), 5.0), "tune went stale");
        lock.tune(t(16));
        assert!(lock.locked(t(16), 5.0));
    }
}
