//! `mbus` — the software message bus (§2.1).
//!
//! All inter-component command traffic travels over mbus: components address
//! envelopes by component name and mbus forwards them. mbus answers liveness
//! pings itself (it is monitored like everything else, §2.2), and while it is
//! down or booting every envelope entrusted to it is lost — which is exactly
//! why FD suppresses other components' failure reports while mbus is
//! suspected: their silence is explained by the bus.

use mercury_msg::Message;
use rr_sim::{Actor, Context, Event, ProcessId};

use super::common::{Lifecycle, Shared, Wire, TIMER_BOOT};
use crate::config::{calib, names};

/// The message-bus actor.
#[derive(Debug)]
pub struct Mbus {
    life: Lifecycle,
}

impl Mbus {
    /// Creates the bus actor.
    pub fn new(shared: Shared) -> Mbus {
        Mbus {
            life: Lifecycle::new(names::MBUS, shared),
        }
    }
}

/// Resolves `dst`, logging a `route-error:` mark when no component has
/// that name.
fn next_hop(dst: &str, ctx: &mut Context<'_, Wire>) -> Option<ProcessId> {
    let pid = ctx.lookup(dst);
    if pid.is_none() {
        ctx.trace_mark(format!("route-error:{dst}"));
    }
    pid
}

/// Sends `wire` on its bus hop to `pid`.
fn forward(pid: ProcessId, wire: Wire, ctx: &mut Context<'_, Wire>) {
    ctx.send_after(pid, calib::BUS_LATENCY, wire);
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
                // A typed envelope for another component goes on as it
                // came: its sender built the wire, which checked it.
                if let Some(env) = payload.decoded().filter(|env| env.dst != names::MBUS) {
                    self.life.count_handled();
                    if let Some(pid) = next_hop(&env.dst, ctx) {
                        forward(pid, payload, ctx);
                    }
                    return;
                }
                let Some(env) = self.life.parse(ctx, payload) else {
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
                        if let Some(pid) = next_hop(&pong.dst, ctx) {
                            forward(pid, Wire::from(pong), ctx);
                        }
                    }
                } else if let Some(pid) = next_hop(&env.dst, ctx) {
                    // Bytes travel on as the envelope they decoded to.
                    forward(pid, Wire::from(env), ctx);
                }
            }
        }
    }
}
