//! Pass scenarios: realistic workloads for the examples and the §5.2
//! ("not all downtime is the same") experiments.
//!
//! A [`PassScenario`] finds an upcoming pass of a satellite over the
//! station, fast-forwards the epoch so the pass begins shortly after the
//! station settles, issues the operator's `TrackRequest`, and reports how
//! much telemetry was captured — the paper's measure of what downtime during
//! a pass actually costs ("we may lose some science data and telemetry").

use mercury_msg::{Envelope, Message};
use rr_sim::{SimDuration, SimTime};

use crate::components::common::Wire;
use crate::config::{calib, names};
use crate::measure::telemetry_frames;
use crate::orbit::{predict_passes, PassWindow};
use crate::station::Station;

/// A pass workload bound to a station.
#[derive(Debug, Clone, PartialEq)]
pub struct PassScenario {
    /// The satellite being worked.
    pub satellite: String,
    /// The pass window, in *scenario epoch* seconds.
    pub window: PassWindow,
    /// Offset between simulation time and scenario epoch (`epoch = sim +
    /// offset`), as configured into the station.
    pub epoch_offset_s: f64,
}

impl PassScenario {
    /// Predicts the next pass of `satellite` with a peak elevation of at
    /// least `min_max_elevation_deg`, and returns the epoch offset that a
    /// [`crate::config::StationConfig`] must carry (in `pass_epoch_offset_s`)
    /// for the pass to rise `lead_s` seconds after `start_sim_s`.
    ///
    /// # Panics
    ///
    /// Panics if the satellite is not in the config catalog or no suitable
    /// pass occurs within a week.
    pub fn plan(
        config: &crate::config::StationConfig,
        satellite: &str,
        start_sim_s: f64,
        lead_s: f64,
        min_max_elevation_deg: f64,
    ) -> PassScenario {
        let sat = config
            .satellites
            .iter()
            .find(|s| s.name == satellite)
            .unwrap_or_else(|| panic!("unknown satellite {satellite:?}"));
        let week = 7.0 * 86_400.0;
        let passes = predict_passes(&config.site, sat, 0.0, week);
        let window = passes
            .into_iter()
            .find(|p| p.max_elevation_deg >= min_max_elevation_deg)
            .unwrap_or_else(|| {
                panic!("no pass of {satellite} reaches {min_max_elevation_deg}° within a week")
            });
        let epoch_offset_s = window.rise_s - (start_sim_s + lead_s);
        PassScenario {
            satellite: satellite.to_string(),
            window,
            epoch_offset_s,
        }
    }

    /// The simulation time at which the pass rises.
    pub fn rise_sim_time(&self) -> SimTime {
        SimTime::from_secs_f64(self.window.rise_s - self.epoch_offset_s)
    }

    /// The simulation time at which the pass sets.
    pub fn set_sim_time(&self) -> SimTime {
        SimTime::from_secs_f64(self.window.set_s - self.epoch_offset_s)
    }

    /// Sends the operator's track request to the tracker, the tuner and the
    /// radio front end (so telemetry frames carry the right satellite name),
    /// and keeps refreshing it every ten seconds for the duration of the
    /// pass — standard pass-automation practice, and what lets a freshly
    /// restarted (state-wiped) component rejoin an in-progress pass.
    pub fn start_tracking(&self, station: &mut Station) {
        const REFRESH_S: u64 = 10;
        let is_split = station.components().iter().any(|c| c == names::FEDR);
        let front = if is_split {
            names::FEDR
        } else {
            names::FEDRCOM
        };
        let horizon = self
            .set_sim_time()
            .saturating_since(station.now())
            .as_secs_f64() as u64;
        for dst in [names::STR, names::RTU, front] {
            let env = Envelope::new(
                "operator",
                dst,
                0,
                Message::TrackRequest {
                    satellite: self.satellite.clone(),
                },
            );
            let wire = Wire::from(env);
            let sim = station.sim_mut();
            let Some(bus) = sim.lookup(names::MBUS) else {
                continue;
            };
            // Operator commands arrive over mbus like everything else.
            let mut offset = 0;
            while offset <= horizon {
                sim.send_external(bus, bus, SimDuration::from_secs(offset), wire.clone());
                offset += REFRESH_S;
            }
        }
    }

    /// Runs the station through the whole pass and returns the number of
    /// telemetry frames captured.
    pub fn run_pass(&self, station: &mut Station) -> usize {
        let start = station.now();
        self.start_tracking(station);
        let end = self.set_sim_time() + SimDuration::from_secs(10);
        let remaining = end.saturating_since(station.now());
        station.run_for(remaining);
        telemetry_frames(station.trace(), start, station.now())
    }

    /// The maximum number of telemetry frames the pass could deliver
    /// (duration / frame period) — the denominator for data-loss reporting.
    pub fn max_frames(&self) -> usize {
        (self.window.duration_s() / calib::TELEMETRY_PERIOD_S).floor() as usize
    }
}
