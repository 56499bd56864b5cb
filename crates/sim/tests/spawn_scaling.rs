//! A scaling guard for the event queue's current tick, with no timing
//! assertion: spawning 100 000 actors files 100 000 `Start` events into one
//! tick. With `O(log n)` same-tick schedules this test finishes in about a
//! quarter of a second in a debug build; a queue that shifts the whole
//! bucket per schedule makes it quadratic (about 13 s on the same 2-core
//! host), which shows in suite wall time rather than as a flaky ratio.

use std::cell::RefCell;
use std::rc::Rc;

use rr_sim::{Actor, Context, Event, ProcessId, Sim, SimTime};

/// Records the order in which actors receive `Start`.
struct Starter {
    started: Rc<RefCell<Vec<ProcessId>>>,
}

impl Actor<()> for Starter {
    fn on_event(&mut self, ev: Event<()>, ctx: &mut Context<'_, ()>) {
        if let Event::Start = ev {
            self.started.borrow_mut().push(ctx.id());
        }
    }
}

#[test]
fn a_hundred_thousand_starts_arrive_in_spawn_order() {
    const ACTORS: usize = 100_000;
    let started = Rc::new(RefCell::new(Vec::with_capacity(ACTORS)));
    let mut sim: Sim<()> = Sim::new(1);
    let spawned: Vec<ProcessId> = (0..ACTORS)
        .map(|i| {
            let started = started.clone();
            sim.spawn(format!("a{i}"), move || {
                Box::new(Starter {
                    started: started.clone(),
                })
            })
        })
        .collect();
    assert_eq!(sim.run(), ACTORS as u64);
    assert_eq!(sim.now(), SimTime::ZERO);
    assert!(
        *started.borrow() == spawned,
        "Start delivered out of spawn order"
    );
}
