//! Failure-detector feasibility lints (`RRL6xx`).

use crate::catalog;
use crate::diag::{Diagnostic, Report};

/// The failure-detector timing knobs: the one definition, embedded in
/// mercury's `StationConfig` as its `fd` field and read from there by the FD
/// and REC actors, so what is linted is what runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FdParams {
    /// Liveness ping period, seconds (paper: 1 s, §2.2).
    pub ping_period_s: f64,
    /// How long the FD waits for a pong before counting a miss, seconds.
    pub ping_timeout_s: f64,
    /// Misses (K) within [`suspicion_window`](Self::suspicion_window)
    /// rounds that raise a suspicion. The paper's FD reports on the first
    /// miss (threshold 1); raising it trades detection latency for
    /// robustness to message loss on degraded links.
    pub suspicion_threshold: u32,
    /// Window size (N) in ping rounds for K-of-N suspicion. Equal threshold
    /// and window means *consecutive* misses are required.
    pub suspicion_window: u32,
    /// Health-beacon period, seconds (0 disables beacons; future work §7).
    pub beacon_period_s: f64,
    /// Beacon staleness timeout, seconds. If non-zero, REC treats a Ready
    /// component whose last beacon is older than this as failed even while
    /// FD still receives pongs — the defense against *zombie* components
    /// that answer liveness pings but do no work. `0` disables (the paper's
    /// configuration: pings only).
    pub beacon_timeout_s: f64,
}

impl FdParams {
    /// `true` when beacon-staleness (zombie) detection is enabled.
    pub fn beacons_enabled(&self) -> bool {
        self.beacon_timeout_s != 0.0
    }

    /// Mean failure-to-report detection latency implied by the ping
    /// parameters: a uniform phase within the ping cycle plus the pong
    /// timeout. With a suspicion threshold above 1, FD must accumulate
    /// `threshold` misses (one per round) before reporting, adding
    /// `(threshold − 1)` whole ping periods.
    pub fn mean_detection_s(&self) -> f64 {
        self.ping_period_s / 2.0
            + self.ping_timeout_s
            + (self.suspicion_threshold.saturating_sub(1)) as f64 * self.ping_period_s
    }
}

/// Lints FD timing feasibility: each ping round's verdict must land before
/// the next round starts ([`RRL601`]), the K-of-N window must be able to
/// accumulate K misses ([`RRL602`]), and an enabled beacon timeout should
/// tolerate one delayed beacon ([`RRL603`]).
///
/// [`RRL601`]: catalog::FD_TIMEOUT_EXCEEDS_PERIOD
/// [`RRL602`]: catalog::FD_WINDOW_SHORT
/// [`RRL603`]: catalog::FD_BEACON_WINDOW_TIGHT
pub fn lint_fd(params: &FdParams) -> Report {
    let mut report = Report::new();
    let period = params.ping_period_s;
    let timeout = params.ping_timeout_s;
    if !period.is_finite() || !timeout.is_finite() || timeout <= 0.0 || timeout >= period {
        report.push(Diagnostic::new(
            &catalog::FD_TIMEOUT_EXCEEDS_PERIOD,
            "fd.ping",
            format!("pong timeout {timeout}s does not fit inside the {period}s ping period"),
        ));
    }
    if params.suspicion_threshold == 0 || params.suspicion_window < params.suspicion_threshold {
        report.push(Diagnostic::new(
            &catalog::FD_WINDOW_SHORT,
            "fd.suspicion",
            format!(
                "{}-of-{} detection can never accumulate the required misses",
                params.suspicion_threshold, params.suspicion_window
            ),
        ));
    }
    if params.beacons_enabled()
        && (!params.beacon_period_s.is_finite()
            || !params.beacon_timeout_s.is_finite()
            || params.beacon_period_s <= 0.0
            || params.beacon_timeout_s <= 2.0 * params.beacon_period_s)
    {
        report.push(Diagnostic::new(
            &catalog::FD_BEACON_WINDOW_TIGHT,
            "fd.beacon",
            format!(
                "beacon timeout {}s is within two beacon periods ({}s each)",
                params.beacon_timeout_s, params.beacon_period_s
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mirrors `StationConfig::hardened()`'s FD settings.
    fn sane() -> FdParams {
        FdParams {
            ping_period_s: 1.0,
            ping_timeout_s: 0.4,
            suspicion_threshold: 8,
            suspicion_window: 8,
            beacon_period_s: 5.0,
            beacon_timeout_s: 25.0,
        }
    }

    #[test]
    fn sane_params_are_clean() {
        assert!(lint_fd(&sane()).is_clean());
        // Beacons disabled entirely (the paper configuration) is also fine.
        let paper = FdParams {
            suspicion_threshold: 1,
            suspicion_window: 1,
            beacon_timeout_s: 0.0,
            ..sane()
        };
        assert!(lint_fd(&paper).is_clean());
    }

    #[test]
    fn timeout_at_or_past_period_denied() {
        let report = lint_fd(&FdParams {
            ping_timeout_s: 1.0,
            ..sane()
        });
        assert_eq!(report.codes(), vec!["RRL601"]);
        assert!(report.has_deny());
        assert!(lint_fd(&FdParams {
            ping_timeout_s: 0.0,
            ..sane()
        })
        .fired("RRL601"));
    }

    #[test]
    fn short_window_denied() {
        let report = lint_fd(&FdParams {
            suspicion_threshold: 8,
            suspicion_window: 3,
            ..sane()
        });
        assert_eq!(report.codes(), vec!["RRL602"]);
        assert!(lint_fd(&FdParams {
            suspicion_threshold: 0,
            ..sane()
        })
        .fired("RRL602"));
    }

    #[test]
    fn tight_beacon_window_warns() {
        let report = lint_fd(&FdParams {
            beacon_timeout_s: 10.0, // exactly 2 periods: one delay trips it
            ..sane()
        });
        assert_eq!(report.codes(), vec!["RRL603"]);
        assert!(!report.has_deny());
    }
}
