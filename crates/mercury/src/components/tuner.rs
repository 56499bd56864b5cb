//! `rtu` — the radio tuner (§2.1): "tunes the radios during a satellite
//! pass", compensating the downlink frequency for Doppler shift using the
//! estimates produced by ses.

use mercury_msg::{Message, RadioBand};
use rr_sim::{Actor, Context, Event, SimDuration};

use super::common::{Lifecycle, Shared, Wire, TIMER_BOOT, TIMER_ROLE_BASE};
use crate::config::names;

const TIMER_TUNE: u64 = TIMER_ROLE_BASE;

/// The radio tuner actor.
#[derive(Debug)]
pub struct Rtu {
    life: Lifecycle,
    target: Option<String>,
    /// `true` once the pass has begun (elevation seen above the horizon);
    /// lets rtu stop cleanly when the satellite sets.
    pass_active: bool,
    poll_timer_armed: bool,
}

impl Rtu {
    /// Creates the rtu actor.
    pub fn new(shared: Shared) -> Rtu {
        Rtu {
            life: Lifecycle::new(names::RTU, shared),
            target: None,
            pass_active: false,
            poll_timer_armed: false,
        }
    }

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
            ctx.set_timer(SimDuration::from_secs(2), TIMER_TUNE);
            self.poll_timer_armed = true;
        }
    }
}

impl Actor<Wire> for Rtu {
    fn on_event(&mut self, ev: Event<Wire>, ctx: &mut Context<'_, Wire>) {
        match ev {
            Event::Start => self.life.begin_boot(ctx, 0.0),
            Event::Timer { key: TIMER_BOOT } => self.life.set_ready(ctx),
            Event::Timer { key: TIMER_TUNE } => self.poll_estimate(ctx),
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
                    Message::TrackRequest { satellite } => {
                        let was_polling = self.poll_timer_armed && self.target.is_some();
                        if self.target.as_deref() != Some(satellite.as_str()) {
                            self.pass_active = false;
                        }
                        self.target = Some(satellite);
                        if !was_polling {
                            self.poll_estimate(ctx);
                        }
                    }
                    Message::EstimateReply {
                        elevation_deg,
                        doppler_hz,
                        ..
                    } => {
                        let Some(sat_name) = self.target.clone() else {
                            return;
                        };
                        let downlink = self
                            .life
                            .config()
                            .satellites
                            .iter()
                            .find(|s| s.name == sat_name)
                            .map(|s| s.downlink_hz)
                            .unwrap_or(437_100_000.0);
                        if elevation_deg > 0.0 {
                            self.pass_active = true;
                            let front = Self::radio_front(ctx);
                            self.life.send_bus(
                                ctx,
                                front,
                                Message::TuneRadio {
                                    frequency_hz: downlink + doppler_hz,
                                    band: RadioBand::Uhf,
                                },
                            );
                        } else if self.pass_active {
                            // Satellite set: stop tuning until the next pass.
                            self.target = None;
                            self.pass_active = false;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}
