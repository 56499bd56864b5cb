//! Shared host-level state observed by all processes on the ground station
//! machine: boot-time resource contention and the radio hardware.
//!
//! These are *physical* couplings that cross process boundaries without any
//! message passing — exactly the kind of effect the paper measures ("a whole
//! system restart causes contention for resources that is not present when
//! restarting just one component", §4.1) and the reason pbcom restarts slow
//! down when the serial link bounces repeatedly (§4.4).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use rr_sim::SimTime;

/// Tracks which components are currently booting, so each can scale its own
/// boot time by the contention factor.
#[derive(Debug, Default)]
pub struct HostLoad {
    booting: BTreeSet<String>,
}

impl HostLoad {
    /// Creates an empty load tracker behind a shared handle.
    pub fn new_shared() -> Rc<RefCell<HostLoad>> {
        Rc::new(RefCell::new(HostLoad::default()))
    }

    /// Pre-registers a group of components about to be restarted together,
    /// so that the first one to boot already sees the full group size.
    pub fn announce<I, S>(&mut self, components: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for c in components {
            self.booting.insert(c.into());
        }
    }

    /// Marks a component as booting; returns the number of components now
    /// booting concurrently (including this one).
    pub fn begin_boot(&mut self, component: &str) -> usize {
        self.booting.insert(component.to_string());
        self.booting.len()
    }

    /// Marks a component as done booting.
    pub fn end_boot(&mut self, component: &str) {
        self.booting.remove(component);
    }
}

/// The radio hardware behind pbcom's serial port. Hardware state survives
/// process restarts — which is precisely why pbcom's second restart in quick
/// succession pays a renegotiation back-off.
#[derive(Debug, Default)]
pub struct RadioHardware {
    last_negotiation_at: Option<SimTime>,
}

impl RadioHardware {
    /// Creates the hardware model behind a shared handle.
    pub fn new_shared() -> Rc<RefCell<RadioHardware>> {
        Rc::new(RefCell::new(RadioHardware::default()))
    }

    /// Called when a serial negotiation starts. Returns the extra back-off
    /// seconds to charge if the previous negotiation was within `window_s`.
    pub fn begin_negotiation(&mut self, now: SimTime, window_s: f64, penalty_s: f64) -> f64 {
        let penalty = match self.last_negotiation_at {
            Some(prev) if now.saturating_since(prev).as_secs_f64() < window_s => penalty_s,
            _ => 0.0,
        };
        self.last_negotiation_at = Some(now);
        penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_load_counts_concurrent_boots() {
        let load = HostLoad::new_shared();
        load.borrow_mut().announce(["a", "b", "c"]);
        assert_eq!(load.borrow().booting.len(), 3);
        // begin_boot is idempotent w.r.t. the announce.
        assert_eq!(load.borrow_mut().begin_boot("a"), 3);
        load.borrow_mut().end_boot("a");
        load.borrow_mut().end_boot("b");
        assert_eq!(load.borrow().booting.len(), 1);
        assert_eq!(load.borrow_mut().begin_boot("d"), 2);
    }

    #[test]
    fn radio_hardware_backs_off_rapid_renegotiation() {
        let hw = RadioHardware::new_shared();
        let t = |s| SimTime::from_secs(s);
        let p = hw.borrow_mut().begin_negotiation(t(100), 60.0, 4.0);
        assert_eq!(p, 0.0, "first negotiation is clean");
        let p = hw.borrow_mut().begin_negotiation(t(130), 60.0, 4.0);
        assert_eq!(p, 4.0, "30s later: inside the back-off window");
        let p = hw.borrow_mut().begin_negotiation(t(300), 60.0, 4.0);
        assert_eq!(p, 0.0, "well outside the window again");
    }
}
