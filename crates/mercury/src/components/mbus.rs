//! `mbus` — the software message bus (§2.1).
//!
//! All inter-component command traffic travels over mbus: components address
//! envelopes by component name and mbus forwards them. mbus answers liveness
//! pings itself (it is monitored like everything else, §2.2), and while it is
//! down or booting every envelope entrusted to it is lost — which is exactly
//! why FD suppresses other components' failure reports while mbus is
//! suspected: their silence is explained by the bus.

use mercury_msg::{Envelope, Message};
use rr_sim::{Actor, Context, Event, SimDuration};

use super::common::{Lifecycle, Shared, Wire, TIMER_BOOT};
use crate::config::{calib, names};

/// The message-bus actor.
#[derive(Debug)]
pub struct Mbus {
    life: Lifecycle,
    routed: u64,
}

impl Mbus {
    /// Creates the bus actor.
    pub fn new(shared: Shared) -> Mbus {
        Mbus {
            life: Lifecycle::new(names::MBUS, shared),
            routed: 0,
        }
    }

    fn route(&mut self, env: &Envelope, wire: Wire, ctx: &mut Context<'_, Wire>) {
        let Some(dst) = ctx.lookup(&env.dst) else {
            ctx.trace_mark(format!("route-error:{}", env.dst));
            return;
        };
        let latency = SimDuration::from_secs_f64(calib::BUS_LATENCY_S);
        ctx.send_after(dst, latency, wire);
        self.routed += 1;
    }
}

impl Actor<Wire> for Mbus {
    fn on_event(&mut self, ev: Event<Wire>, ctx: &mut Context<'_, Wire>) {
        match ev {
            Event::Start => self.life.begin_boot(ctx, 0.0),
            Event::Timer { key } => {
                if key == TIMER_BOOT {
                    self.life.set_ready(ctx);
                } else {
                    self.life.handle_beacon_timer(key, ctx, 0.0);
                }
            }
            Event::Message { payload, .. } => {
                if !self.life.is_ready() {
                    return; // booting: traffic is silently lost
                }
                let Some(env) = self.life.parse(ctx, &payload) else {
                    return;
                };
                if env.dst == names::MBUS {
                    // Addressed to the bus itself: liveness pings.
                    if let Message::Ping { seq } = env.body {
                        let pong = env.reply_with(
                            self.life.next_id(),
                            Message::Pong {
                                seq,
                                status: mercury_msg::ComponentStatus::Ok,
                            },
                        );
                        // Deliver directly to the requester: the pong's bus
                        // hop is this very process.
                        self.route(&pong, pong.to_xml_string(), ctx);
                    }
                } else {
                    self.route(&env, payload, ctx);
                }
            }
        }
    }
}
