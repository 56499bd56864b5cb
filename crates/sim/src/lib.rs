//! # rr-sim — deterministic discrete-event simulation substrate
//!
//! This crate provides the simulation kernel on which the Mercury ground
//! station (and the recursive-restartability experiments from the DSN-2002
//! paper *Reducing Recovery Time in a Small Recursively Restartable System*)
//! runs. The paper's evaluation kills real JVM processes with `SIGKILL` and
//! measures wall-clock recovery; we reproduce the same observable behaviour in
//! virtual time so that a 100-trial experiment that took the authors hours
//! runs in milliseconds, deterministically.
//!
//! The kernel is a classic event-driven simulator:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time in integer nanoseconds, so
//!   event ordering is exact and runs are bit-for-bit reproducible.
//! * [`Sim`] — the event queue and process table. Processes are actors
//!   implementing [`Actor`]; they exchange messages of a user-chosen type and
//!   set timers.
//! * fail-silent faults — [`Sim::kill`] crashes a process (its state is lost
//!   and it silently drops incoming traffic, exactly like a crashed JVM),
//!   [`Sim::hang_after`] wedges it (state retained, still deaf), and
//!   [`Sim::respawn_after`] restarts it from its factory.
//! * [`rng::SimRng`] — a seeded, splittable PRNG; [`dist::Dist`] — the
//!   probability distributions used for failure inter-arrivals and timing
//!   jitter.
//! * [`stats`] — the summary statistics the experiment harness reports
//!   (mean, standard deviation, coefficient of variation, percentiles,
//!   confidence intervals).
//! * [`trace`] — a structured event log used both for debugging and for
//!   measuring recovery intervals.
//!
//! ## Example
//!
//! ```
//! use rr_sim::{Actor, Context, Event, Sim, SimDuration};
//!
//! struct Echo;
//! impl Actor<String> for Echo {
//!     fn on_event(&mut self, ev: Event<String>, ctx: &mut Context<'_, String>) {
//!         if let Event::Message { src, payload } = ev {
//!             ctx.send_after(src, SimDuration::from_secs_f64(0.1), payload);
//!         }
//!     }
//! }
//!
//! struct Probe { replies: u32 }
//! impl Actor<String> for Probe {
//!     fn on_event(&mut self, ev: Event<String>, _ctx: &mut Context<'_, String>) {
//!         if let Event::Message { .. } = ev { self.replies += 1; }
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! let echo = sim.spawn("echo", || Box::new(Echo));
//! let probe = sim.spawn("probe", || Box::new(Probe { replies: 0 }));
//! sim.send_external(probe, echo, SimDuration::ZERO, "ping".to_string());
//! sim.run();
//! assert_eq!(sim.now().as_secs_f64(), 0.1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod check;
pub mod dist;
pub mod engine;
pub mod fault;
pub mod hash;
pub mod intern;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod vclock;
pub mod wheel;

pub use dist::Dist;
pub use engine::{Actor, Context, Event, LinkQuality, ProcessId, ProcessState, Sim};
pub use fault::{FaultKind, FaultScript, ScriptParseError, ScriptedFault};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use intern::{intern, CompId};
pub use rng::SimRng;
pub use stats::{Histogram, OnlineStats, Summary};
pub use telemetry::{DurationHistogram, EpisodeEvent, EpisodeStage, Registry};
pub use time::{SimDuration, SimTime};
pub use trace::{Label, Mark, Trace, TraceEvent, TraceKind};
pub use vclock::VectorClock;
pub use wheel::TimerWheel;
