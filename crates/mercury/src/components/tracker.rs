//! `str` — the satellite tracker (§2.1): "points antennas to track a
//! satellite during a pass".
//!
//! str shares the startup-synchronization coupling with ses (§4.3); see
//! [`super::estimator`] for the mechanism. During a pass it polls ses for
//! state estimates and drives the antenna through the radio front end.

use mercury_msg::{Message, TrackingState};
use rr_sim::{Actor, Context, Event, SimDuration};

use super::common::{Lifecycle, Shared, StoreClient, Wire, TIMER_BOOT, TIMER_ROLE_BASE};
use super::estimator::{SyncPeer, SyncRole};
use crate::config::{calib, names};

const TIMER_TRACK: u64 = TIMER_ROLE_BASE + 5;

/// The satellite tracker actor.
#[derive(Debug)]
pub struct Str {
    life: Lifecycle,
    sync: SyncPeer,
    store: StoreClient,
    state: TrackingState,
    target: Option<String>,
    telemetry_frames: u64,
    poll_timer_armed: bool,
}

impl Str {
    /// Creates the str actor.
    pub fn new(shared: Shared) -> Str {
        Str {
            store: StoreClient::new(names::STR, &shared),
            life: Lifecycle::new(names::STR, shared),
            sync: SyncPeer::new(SyncRole {
                peer: names::SES,
                service_s: calib::STR_RESYNC_SERVICE_S,
            }),
            state: TrackingState::Idle,
            target: None,
            telemetry_frames: 0,
            poll_timer_armed: false,
        }
    }

    /// The name of the radio front end present in this station build.
    fn radio_front(ctx: &Context<'_, Wire>) -> &'static str {
        if ctx.lookup(names::FEDR).is_some() {
            names::FEDR
        } else {
            names::FEDRCOM
        }
    }

    fn poll_estimate(&mut self, ctx: &mut Context<'_, Wire>) {
        self.poll_timer_armed = false;
        if let Some(sat) = self.target.clone() {
            let at = ctx.now().as_secs_f64() + self.life.config().pass_epoch_offset_s;
            self.life.send_bus(
                ctx,
                names::SES,
                Message::EstimateRequest {
                    satellite: sat,
                    at_epoch_s: at,
                },
            );
            ctx.set_timer(SimDuration::from_secs(2), TIMER_TRACK);
            self.poll_timer_armed = true;
        }
    }
}

impl Actor<Wire> for Str {
    fn on_event(&mut self, ev: Event<Wire>, ctx: &mut Context<'_, Wire>) {
        match ev {
            Event::Start => self.life.begin_boot(ctx, 0.0),
            Event::Timer { key: TIMER_BOOT } => {
                if !self.store.try_rehydrate(&mut self.life, ctx) {
                    self.sync.begin(&mut self.life, ctx);
                }
            }
            Event::Timer { key: TIMER_TRACK } => self.poll_estimate(ctx),
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
                    if self.life.is_ready() {
                        self.store.start_journaling(&mut self.life, ctx);
                    }
                    return;
                }
                if !self.life.is_ready() {
                    return;
                }
                match env.body {
                    Message::TrackRequest { satellite } => {
                        let was_polling = self.poll_timer_armed && self.target.is_some();
                        if self.target.as_deref() != Some(satellite.as_str()) {
                            ctx.trace_mark(format!("track-start:{satellite}"));
                            self.state = TrackingState::Acquiring;
                        }
                        self.target = Some(satellite);
                        if !was_polling {
                            self.poll_estimate(ctx);
                        }
                    }
                    Message::EstimateReply {
                        azimuth_deg,
                        elevation_deg,
                        ..
                    } => {
                        if elevation_deg > 0.0 {
                            if self.state != TrackingState::Tracking {
                                self.state = TrackingState::Tracking;
                                ctx.trace_mark("tracking:acquired");
                            }
                            let front = Self::radio_front(ctx);
                            self.life.send_bus(
                                ctx,
                                front,
                                Message::PointAntenna {
                                    azimuth_deg,
                                    elevation_deg,
                                },
                            );
                        } else if self.state == TrackingState::Tracking {
                            // Pass is over: park the antenna.
                            self.state = TrackingState::Idle;
                            self.target = None;
                            ctx.trace_mark(format!(
                                "pass-complete:frames={}",
                                self.telemetry_frames
                            ));
                        }
                    }
                    Message::Telemetry { frame, .. } => {
                        self.telemetry_frames = self.telemetry_frames.max(frame);
                    }
                    _ => {}
                }
            }
        }
    }
}
