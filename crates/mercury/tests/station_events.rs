#![allow(clippy::disallowed_methods)]
//! The event budget of a quiet station: how many simulator events a healthy
//! tree-V station spends per simulated second, pinned exactly. A change that
//! makes the steady state do more (or less) work moves this count, on
//! purpose or not; DESIGN.md §14.4 carries the same table.

use mercury::config::StationConfig;
use mercury::station::{Station, TreeVariant};
use rr_core::PerfectOracle;
use rr_sim::SimDuration;

/// Events a warmed-up tree-V station processes over 600 quiet seconds.
fn quiet_events(config: StationConfig) -> u64 {
    let mut station = Station::new(config, TreeVariant::V, Box::new(PerfectOracle::new()), 7)
        .expect("valid station");
    station.warm_up();
    let before = station.sim_mut().events_processed();
    station.run_for(SimDuration::from_secs(600));
    station.sim_mut().events_processed() - before
}

/// Tree V monitors six components (mbus, fedr, pbcom, ses, str, rtu) and
/// runs FD and REC beside them: eight processes. Per simulated second:
///
/// | source | events |
/// |---|---|
/// | FD ping tick + the round's one pong deadline | 2 |
/// | ping and pong of 5 components, 4 bus hops each (FD→mbus→c→mbus→FD) | 20 |
/// | ping and pong of mbus itself (FD→mbus, mbus→FD) | 2 |
/// | FD's direct ping of REC and its pong | 2 |
/// | REC's watch of FD: watch timer, ping, pong, timeout timer | 4 |
/// | fedr→pbcom keepalive: timer, keepalive, ack | 3 |
/// | pbcom telemetry timer (nothing to send outside a pass) | 1 |
/// | beacons: 8 processes × (timer, →mbus, mbus→REC) every 5 s | 4.8 |
/// | **total** | **38.8** |
///
/// 38.8 × 600 s = 23 280. Neither config journals state, and `hardened()`
/// differs from `paper()` only in suspicion, backoff and telemetry, none
/// of which spends an event while nothing fails.
#[test]
fn a_quiet_tree_v_station_spends_38_8_events_per_second() {
    assert_eq!(quiet_events(StationConfig::paper()), 23_280);
    assert_eq!(quiet_events(StationConfig::hardened()), 23_280);
}
