//! `ses` — the satellite estimator (§2.1): "calculates satellite position,
//! radio frequencies, and antenna pointing angles".
//!
//! ses and str synchronize with each other at startup (§4.3): a freshly
//! restarted ses blocks until str acknowledges its sync request. An *old*
//! (long-running) peer services the handshake slowly — it must rebuild
//! session state — and the emergency rebuild leaves it doomed: shortly after
//! servicing, it suffers an induced failure. Two *fresh* peers (restarted
//! together, as tree IV's consolidated cell does) handshake quickly. This is
//! the mechanism behind `f_ses ≈ f_str ≈ 0, f_{ses,str} ≈ 1`.

use mercury_msg::Message;
use rr_sim::{intern, Actor, Context, Event, Mark, SimDuration};

use super::common::{Lifecycle, Phase, Shared, StoreClient, Wire, TIMER_BOOT, TIMER_ROLE_BASE};
use crate::config::{calib, names};
use crate::orbit::look_angle;

const TIMER_SYNC_RETRY: u64 = TIMER_ROLE_BASE;
const TIMER_INDUCED_CRASH: u64 = TIMER_ROLE_BASE + 1;

/// Which peer each estimator-side component syncs with, and how slowly it
/// services an old-side resync.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SyncRole {
    pub peer: &'static str,
    /// Seconds this component takes to service a resync when it is old.
    pub service_s: f64,
}

/// Shared ses/str synchronization state machine.
#[derive(Debug)]
pub(crate) struct SyncPeer {
    role: SyncRole,
    session: u64,
    synced: bool,
}

impl SyncPeer {
    pub(crate) fn new(role: SyncRole) -> SyncPeer {
        SyncPeer {
            role,
            session: 0,
            synced: false,
        }
    }

    /// Starts a new sync phase (call right after boot completes): picks a
    /// session id, sends the first request and arms the retry timer.
    pub(crate) fn begin(&mut self, life: &mut Lifecycle, ctx: &mut Context<'_, Wire>) {
        life.set_initializing();
        self.synced = false;
        self.session = ctx.rng().next_u64();
        self.request(life, ctx);
    }

    fn request(&mut self, life: &mut Lifecycle, ctx: &mut Context<'_, Wire>) {
        life.send_bus(
            ctx,
            self.role.peer,
            Message::SyncRequest {
                incarnation: self.session,
            },
        );
        let retry = SimDuration::from_secs_f64(calib::SYNC_RETRY_S);
        ctx.set_timer(retry, TIMER_SYNC_RETRY);
    }

    /// Handles sync-related timers. Returns `true` if consumed.
    pub(crate) fn handle_timer(
        &mut self,
        key: u64,
        life: &mut Lifecycle,
        ctx: &mut Context<'_, Wire>,
    ) -> bool {
        match key {
            TIMER_SYNC_RETRY => {
                if !self.synced {
                    self.request(life, ctx);
                }
                true
            }
            TIMER_INDUCED_CRASH => {
                // The emergency session rebuild has corrupted this old
                // incarnation (§4.3): fail now; FD will notice and REC will
                // restart us.
                ctx.trace_mark(Mark::InducedCrash(intern(life.name())));
                let me = ctx.id();
                ctx.kill_after(SimDuration::ZERO, me);
                true
            }
            _ => false,
        }
    }

    /// Handles sync messages. Returns `true` if consumed; sets the component
    /// ready when its own handshake completes.
    pub(crate) fn handle_message(
        &mut self,
        body: &Message,
        life: &mut Lifecycle,
        ctx: &mut Context<'_, Wire>,
    ) -> bool {
        match body {
            Message::SyncRequest { incarnation } => {
                if life.phase() == Phase::Booting {
                    // The process is not up yet; the peer will retry.
                    return true;
                }
                let (delay, induced) = if !life.is_ready() || life.is_fresh(ctx.now()) {
                    // Fresh (or also mid-restart): quick handshake, no damage.
                    (calib::FRESH_SYNC_S, false)
                } else {
                    // Old peer: slow emergency rebuild, then induced failure.
                    (self.role.service_s, true)
                };
                let ack = Message::SyncAck {
                    incarnation: *incarnation,
                };
                let peer = self.role.peer;
                // Model the service time as a delayed reply: queue the ack
                // after `delay`. (The component keeps answering pings — it is
                // busy, not dead.)
                let delay_dur = SimDuration::from_secs_f64(delay);
                let id = life.next_id();
                let env = mercury_msg::Envelope::new(life.name(), peer, id, ack);
                if let Some(bus) = ctx.lookup(names::MBUS) {
                    ctx.send_after(bus, delay_dur, Wire::from(env));
                }
                if induced {
                    let crash_at = delay + calib::INDUCED_FAILURE_DELAY_S;
                    ctx.set_timer(SimDuration::from_secs_f64(crash_at), TIMER_INDUCED_CRASH);
                }
                true
            }
            Message::SyncAck { incarnation } => {
                if *incarnation == self.session && !self.synced {
                    self.synced = true;
                    if !life.is_ready() {
                        life.set_ready(ctx);
                    }
                }
                true
            }
            _ => false,
        }
    }
}

/// The satellite estimator actor.
#[derive(Debug)]
pub struct Ses {
    life: Lifecycle,
    sync: SyncPeer,
    store: StoreClient,
}

impl Ses {
    /// Creates the ses actor.
    pub fn new(shared: Shared) -> Ses {
        Ses {
            store: StoreClient::new(names::SES, &shared),
            life: Lifecycle::new(names::SES, shared),
            sync: SyncPeer::new(SyncRole {
                peer: names::STR,
                service_s: calib::SES_RESYNC_SERVICE_S,
            }),
        }
    }
}

impl Actor<Wire> for Ses {
    fn on_event(&mut self, ev: Event<Wire>, ctx: &mut Context<'_, Wire>) {
        match ev {
            Event::Start => self.life.begin_boot(ctx, 0.0),
            Event::Timer { key: TIMER_BOOT } => {
                // Rehydrate from the durable store when policy and a
                // verified checkpoint allow it; else the cold resync.
                if !self.store.try_rehydrate(&mut self.life, ctx) {
                    self.sync.begin(&mut self.life, ctx);
                }
            }
            Event::Timer { key } => {
                if !self.store.handle_timer(key, &mut self.life, ctx)
                    && !self.sync.handle_timer(key, &mut self.life, ctx)
                {
                    self.life.handle_beacon_timer(key, ctx, 0.0);
                }
            }
            Event::Message { payload, .. } => {
                let Some(env) = self.life.parse(ctx, payload) else {
                    return;
                };
                if self.life.handle_common(&env, ctx, 0.0) {
                    return;
                }
                if self.sync.handle_message(&env.body, &mut self.life, ctx) {
                    // The cold path just completed its handshake: begin
                    // journaling (no-op unless this component rehydrates).
                    if self.life.is_ready() {
                        self.store.start_journaling(&mut self.life, ctx);
                    }
                    return;
                }
                if let Message::EstimateRequest {
                    ref satellite,
                    at_epoch_s,
                } = env.body
                {
                    if !self.life.is_ready() {
                        return;
                    }
                    let cfg = self.life.config();
                    let Some(sat) = cfg.satellites.iter().find(|s| &s.name == satellite) else {
                        ctx.trace_mark(format!("unknown-satellite:{satellite}"));
                        return;
                    };
                    let la = look_angle(&cfg.site, sat, at_epoch_s);
                    let doppler = la.doppler_hz(sat.downlink_hz);
                    let reply = Message::EstimateReply {
                        azimuth_deg: la.azimuth_deg,
                        elevation_deg: la.elevation_deg,
                        range_km: la.range_km,
                        doppler_hz: doppler,
                    };
                    self.life.send_bus(ctx, env.src.clone(), reply);
                }
            }
        }
    }
}
