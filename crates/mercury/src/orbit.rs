//! Satellite orbit propagation and pass prediction.
//!
//! `ses` — the satellite estimator — "calculates satellite position, radio
//! frequencies, and antenna pointing angles" (§2.1). This module implements a
//! simplified two-body propagator for circular low-earth orbits, sufficient
//! to drive realistic pass workloads: azimuth/elevation/range from the
//! ground site, downlink Doppler, and pass-window prediction for the 10–20
//! weekly passes the paper's station supports.
//!
//! The model: a circular orbit of given altitude, inclination and initial
//! phase, propagated analytically in an Earth-centered inertial frame, with
//! the ground site rotating at the sidereal rate; topocentric conversion via
//! the standard ECI → ECEF → ENU chain. No J2 or drag — pass *shapes* (rise,
//! culminate, set; Doppler sign flip at closest approach) are what matter
//! here, not centimetre accuracy.

/// Earth's gravitational parameter, km³/s².
const MU_EARTH: f64 = 398_600.441_8;
/// Earth's mean radius, km.
const R_EARTH: f64 = 6_371.0;
/// Earth's sidereal rotation rate, rad/s.
const OMEGA_EARTH: f64 = 7.292_115_9e-5;
/// Speed of light, km/s.
const C_LIGHT: f64 = 299_792.458;

/// A ground station site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundSite {
    /// Geodetic latitude in degrees (north positive).
    pub latitude_deg: f64,
    /// Longitude in degrees (east positive).
    pub longitude_deg: f64,
    /// Altitude above the reference sphere, km.
    pub altitude_km: f64,
}

impl GroundSite {
    /// Stanford, California — the Mercury ground station's home.
    pub fn stanford() -> GroundSite {
        GroundSite {
            latitude_deg: 37.4275,
            longitude_deg: -122.1697,
            altitude_km: 0.03,
        }
    }
}

/// A satellite on a circular LEO orbit.
#[derive(Debug, Clone, PartialEq)]
pub struct Satellite {
    /// Catalog name (e.g. `opal`).
    pub name: String,
    /// Orbit altitude above the mean Earth radius, km.
    pub altitude_km: f64,
    /// Inclination, degrees.
    pub inclination_deg: f64,
    /// Right ascension of the ascending node at epoch, degrees.
    pub raan_deg: f64,
    /// Argument of latitude (phase along the orbit) at epoch, degrees.
    pub phase_deg: f64,
    /// Downlink centre frequency, Hz.
    pub downlink_hz: f64,
}

impl Satellite {
    /// OPAL (OSCAR-38), launched 2000 — one of the two satellites Mercury
    /// serves (§2.1). Orbit parameters approximate.
    pub fn opal() -> Satellite {
        Satellite {
            name: "opal".into(),
            altitude_km: 750.0,
            inclination_deg: 100.2,
            raan_deg: 40.0,
            phase_deg: 0.0,
            downlink_hz: 437_100_000.0,
        }
    }

    /// SAPPHIRE (OSCAR-45) — Stanford's first amateur satellite.
    pub fn sapphire() -> Satellite {
        Satellite {
            name: "sapphire".into(),
            altitude_km: 800.0,
            inclination_deg: 98.6,
            raan_deg: 120.0,
            phase_deg: 55.0,
            downlink_hz: 437_095_000.0,
        }
    }

    /// Orbital radius, km.
    fn orbit_radius_km(&self) -> f64 {
        R_EARTH + self.altitude_km
    }

    /// Mean motion, rad/s.
    fn mean_motion_rad_s(&self) -> f64 {
        (MU_EARTH / self.orbit_radius_km().powi(3)).sqrt()
    }

    /// ECI position (km) and velocity (km/s) at `t` seconds after epoch.
    fn eci_state(&self, t_s: f64) -> ([f64; 3], [f64; 3]) {
        let n = self.mean_motion_rad_s();
        let r = self.orbit_radius_km();
        let u = self.phase_deg.to_radians() + n * t_s; // argument of latitude
        let inc = self.inclination_deg.to_radians();
        let raan = self.raan_deg.to_radians();
        let (su, cu) = u.sin_cos();
        let (si, ci) = inc.sin_cos();
        let (so, co) = raan.sin_cos();
        // Position in the orbital plane, rotated by inclination then RAAN.
        let pos = [
            r * (co * cu - so * su * ci),
            r * (so * cu + co * su * ci),
            r * (su * si),
        ];
        let v = n * r;
        let vel = [
            v * (-co * su - so * cu * ci),
            v * (-so * su + co * cu * ci),
            v * (cu * si),
        ];
        (pos, vel)
    }
}

/// A topocentric look angle from the ground site to a satellite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookAngle {
    /// Azimuth, degrees clockwise from north.
    pub azimuth_deg: f64,
    /// Elevation above the horizon, degrees (negative: below horizon).
    pub elevation_deg: f64,
    /// Slant range, km.
    pub range_km: f64,
    /// Range rate, km/s (negative while approaching).
    pub range_rate_km_s: f64,
}

impl LookAngle {
    /// Downlink Doppler shift in Hz for a carrier at `downlink_hz`:
    /// positive while the satellite approaches.
    pub fn doppler_hz(&self, downlink_hz: f64) -> f64 {
        -self.range_rate_km_s / C_LIGHT * downlink_hz
    }
}

fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn norm(a: [f64; 3]) -> f64 {
    dot(a, a).sqrt()
}

/// Computes the look angle from `site` to `sat` at `t` seconds after epoch.
pub fn look_angle(site: &GroundSite, sat: &Satellite, t_s: f64) -> LookAngle {
    let (sat_pos, sat_vel) = sat.eci_state(t_s);

    // Site position in ECI: the Earth rotates beneath the inertial frame.
    let lat = site.latitude_deg.to_radians();
    let lon = site.longitude_deg.to_radians() + OMEGA_EARTH * t_s;
    let r_site = R_EARTH + site.altitude_km;
    let (slat, clat) = lat.sin_cos();
    let (slon, clon) = lon.sin_cos();
    let site_pos = [r_site * clat * clon, r_site * clat * slon, r_site * slat];
    // Site velocity due to Earth rotation.
    let site_vel = [-OMEGA_EARTH * site_pos[1], OMEGA_EARTH * site_pos[0], 0.0];

    let rel = [
        sat_pos[0] - site_pos[0],
        sat_pos[1] - site_pos[1],
        sat_pos[2] - site_pos[2],
    ];
    let rel_vel = [
        sat_vel[0] - site_vel[0],
        sat_vel[1] - site_vel[1],
        sat_vel[2] - site_vel[2],
    ];
    let range = norm(rel);
    let range_rate = dot(rel, rel_vel) / range;

    // ENU basis at the site.
    let east = [-slon, clon, 0.0];
    let north = [-slat * clon, -slat * slon, clat];
    let up = [clat * clon, clat * slon, slat];
    let e = dot(rel, east);
    let n = dot(rel, north);
    let u = dot(rel, up);

    let azimuth = e.atan2(n).to_degrees().rem_euclid(360.0);
    let elevation = (u / range).asin().to_degrees();

    LookAngle {
        azimuth_deg: azimuth,
        elevation_deg: elevation,
        range_km: range,
        range_rate_km_s: range_rate,
    }
}

/// A predicted pass window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassWindow {
    /// Rise time, seconds after epoch.
    pub rise_s: f64,
    /// Set time, seconds after epoch.
    pub set_s: f64,
    /// Maximum elevation during the pass, degrees.
    pub max_elevation_deg: f64,
}

impl PassWindow {
    /// Pass duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.set_s - self.rise_s
    }
}

/// Predicts the passes of `sat` over `site` within `[from_s, to_s)`, sampled
/// on a coarse grid and refined by bisection at the horizon crossings.
pub fn predict_passes(
    site: &GroundSite,
    sat: &Satellite,
    from_s: f64,
    to_s: f64,
) -> Vec<PassWindow> {
    assert!(to_s >= from_s, "empty prediction window");
    let step = 20.0; // seconds; LEO passes last several minutes
    let elev = |t: f64| look_angle(site, sat, t).elevation_deg;

    let refine = |mut lo: f64, mut hi: f64| {
        // Invariant: sign change of elevation between lo and hi.
        for _ in 0..40 {
            let mid = (lo + hi) / 2.0;
            if (elev(lo) > 0.0) == (elev(mid) > 0.0) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo + hi) / 2.0
    };

    let mut passes = Vec::new();
    let mut t = from_s;
    let mut above = elev(t) > 0.0;
    let mut rise = if above { Some(from_s) } else { None };
    let mut max_el: f64 = f64::NEG_INFINITY;
    while t < to_s {
        let next = (t + step).min(to_s);
        let e = elev(next);
        max_el = max_el.max(e);
        let now_above = e > 0.0;
        if now_above != above {
            let crossing = refine(t, next);
            if now_above {
                rise = Some(crossing);
                max_el = e;
            } else if let Some(r) = rise.take() {
                passes.push(PassWindow {
                    rise_s: r,
                    set_s: crossing,
                    max_elevation_deg: max_el,
                });
            }
            above = now_above;
        }
        t = next;
    }
    if let (true, Some(r)) = (above, rise) {
        passes.push(PassWindow {
            rise_s: r,
            set_s: to_s,
            max_elevation_deg: max_el,
        });
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leo_period_is_about_100_minutes() {
        let sat = Satellite::opal();
        let p = std::f64::consts::TAU / sat.mean_motion_rad_s();
        assert!((5400.0..6600.0).contains(&p), "period {p}");
    }

    #[test]
    fn eci_state_stays_on_the_orbit_sphere() {
        let sat = Satellite::sapphire();
        for i in 0..100 {
            let (pos, vel) = sat.eci_state(i as f64 * 97.0);
            let r = norm(pos);
            assert!((r - sat.orbit_radius_km()).abs() < 1e-6, "radius {r}");
            // Velocity is perpendicular to position on a circular orbit.
            assert!(dot(pos, vel).abs() < 1e-3);
        }
    }

    #[test]
    fn elevation_is_bounded_and_range_sane() {
        let site = GroundSite::stanford();
        let sat = Satellite::opal();
        for i in 0..2000 {
            let la = look_angle(&site, &sat, i as f64 * 17.0);
            assert!((-90.0..=90.0).contains(&la.elevation_deg));
            assert!((0.0..360.0).contains(&la.azimuth_deg));
            // Range between (altitude) and (horizon distance + slack).
            assert!(la.range_km >= sat.altitude_km * 0.9);
            assert!(la.range_km <= 2.0 * (R_EARTH + sat.altitude_km));
        }
    }

    #[test]
    fn passes_exist_and_have_leo_durations() {
        let site = GroundSite::stanford();
        let sat = Satellite::opal();
        let day = 86_400.0;
        let passes = predict_passes(&site, &sat, 0.0, day);
        // A polar-ish LEO bird passes over a mid-latitude site several times
        // a day ("10-20 satellite passes per week" is per-satellite usable
        // passes; geometric passes are more frequent).
        assert!(
            (2..=12).contains(&passes.len()),
            "got {} passes",
            passes.len()
        );
        for p in &passes {
            assert!(p.set_s > p.rise_s);
            assert!(
                p.duration_s() < 1200.0,
                "pass too long: {}s",
                p.duration_s()
            );
            assert!(p.max_elevation_deg > 0.0);
        }
        // Paper: passes last "about 15 minutes" at most; typical is shorter.
        let longest = passes.iter().map(|p| p.duration_s()).fold(0.0, f64::max);
        assert!(longest > 120.0, "longest pass only {longest}s");
    }

    #[test]
    fn elevation_positive_within_predicted_window() {
        let site = GroundSite::stanford();
        let sat = Satellite::sapphire();
        let passes = predict_passes(&site, &sat, 0.0, 86_400.0);
        let p = passes.first().expect("at least one pass");
        let mid = (p.rise_s + p.set_s) / 2.0;
        assert!(look_angle(&site, &sat, mid).elevation_deg > 0.0);
        // Just outside the window the satellite is below the horizon.
        assert!(look_angle(&site, &sat, p.rise_s - 30.0).elevation_deg <= 0.0);
        assert!(look_angle(&site, &sat, p.set_s + 30.0).elevation_deg <= 0.0);
    }

    #[test]
    fn doppler_flips_sign_at_closest_approach() {
        let site = GroundSite::stanford();
        let sat = Satellite::opal();
        let passes = predict_passes(&site, &sat, 0.0, 86_400.0);
        let p = passes
            .iter()
            .find(|p| p.max_elevation_deg > 20.0)
            .unwrap_or(&passes[0]);
        let early = look_angle(&site, &sat, p.rise_s + 10.0);
        let late = look_angle(&site, &sat, p.set_s - 10.0);
        let f = sat.downlink_hz;
        assert!(early.doppler_hz(f) > 0.0, "approaching → positive Doppler");
        assert!(late.doppler_hz(f) < 0.0, "receding → negative Doppler");
        // LEO UHF Doppler is within ±12 kHz.
        assert!(early.doppler_hz(f).abs() < 12_000.0);
    }

    #[test]
    fn range_rate_is_consistent_with_range_derivative() {
        let site = GroundSite::stanford();
        let sat = Satellite::opal();
        let t = 4321.0;
        let dt = 0.5;
        let a = look_angle(&site, &sat, t);
        let b = look_angle(&site, &sat, t + dt);
        let numeric = (b.range_km - a.range_km) / dt;
        assert!(
            (numeric - a.range_rate_km_s).abs() < 0.05,
            "analytic {} vs numeric {}",
            a.range_rate_km_s,
            numeric
        );
    }

    #[test]
    fn predict_passes_empty_window() {
        let site = GroundSite::stanford();
        let sat = Satellite::opal();
        assert!(predict_passes(&site, &sat, 100.0, 100.0).is_empty());
    }
}
