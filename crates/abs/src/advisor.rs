//! The abstract transformation advisor: Table 3's "useful when" conditions
//! evaluated over parameter *boxes* instead of points.
//!
//! Where the concrete advisor ([`rr_core::advisor::advise`]) answers "does
//! this transformation apply at these exact parameters?", the abstract
//! advisor answers one of three things about a whole box: the condition holds
//! at **every** point ([`Verdict::Always`]), at **no** point
//! ([`Verdict::Never`]), or the box genuinely straddles the threshold
//! ([`Verdict::Depends`]) and needs refinement
//! ([`refine`](crate::refine)). The thresholds mirror the concrete advisor's
//! constants exactly, so a `Depends` box always contains concrete points on
//! both sides of the decision.

use std::fmt;

use crate::interval::Interval;

/// Mirror of the concrete advisor's consolidation threshold: consolidation
/// applies when `f_A + f_B ≤ CONSOLIDATE_RATIO · f_{A,B}`.
const CONSOLIDATE_RATIO: f64 = 0.25;

/// A three-valued answer about a condition quantified over a box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The condition holds at every point of the box.
    Always,
    /// The condition holds at no point of the box.
    Never,
    /// The box contains points on both sides (or the abstraction cannot
    /// tell) — refine or report.
    Depends,
}

impl Verdict {
    /// Classifies a profitability interval: `Always` when the whole interval
    /// is strictly positive, `Never` when none of it is, `Depends` otherwise.
    pub fn from_profit(profit: Interval) -> Verdict {
        if profit.strictly_positive() {
            Verdict::Always
        } else if profit.non_positive() {
            Verdict::Never
        } else {
            Verdict::Depends
        }
    }

    /// Combines verdicts over a partition of the box: unanimous sub-regions
    /// keep their verdict, anything mixed is `Depends`.
    #[must_use]
    pub fn join(self, other: Verdict) -> Verdict {
        if self == other {
            self
        } else {
            Verdict::Depends
        }
    }

    /// Stable lower-case name (used in JSON artifacts and lint params).
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Always => "always",
            Verdict::Never => "never",
            Verdict::Depends => "depends",
        }
    }

    /// Parses [`as_str`](Self::as_str)'s output back.
    pub fn parse(s: &str) -> Option<Verdict> {
        match s {
            "always" => Some(Verdict::Always),
            "never" => Some(Verdict::Never),
            "depends" => Some(Verdict::Depends),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Abstract Table-3 consolidation condition
/// `f_A + f_B ≤ CONSOLIDATE_RATIO · f_{A,B}` over rate intervals.
pub fn consolidation_verdict(solo_sum: Interval, joint: Interval) -> Verdict {
    let threshold = joint.scale(CONSOLIDATE_RATIO);
    if solo_sum.hi() <= threshold.lo() {
        Verdict::Always
    } else if solo_sum.lo() > threshold.hi() {
        Verdict::Never
    } else {
        Verdict::Depends
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn verdict_from_profit_partitions_the_line() {
        assert_eq!(Verdict::from_profit(iv(0.1, 5.0)), Verdict::Always);
        assert_eq!(Verdict::from_profit(iv(-5.0, 0.0)), Verdict::Never);
        assert_eq!(Verdict::from_profit(iv(-1.0, 1.0)), Verdict::Depends);
        // The boundary: lo == 0 is not strictly profitable.
        assert_eq!(Verdict::from_profit(iv(0.0, 1.0)), Verdict::Depends);
    }

    #[test]
    fn join_is_unanimity() {
        assert_eq!(Verdict::Always.join(Verdict::Always), Verdict::Always);
        assert_eq!(Verdict::Never.join(Verdict::Never), Verdict::Never);
        assert_eq!(Verdict::Always.join(Verdict::Never), Verdict::Depends);
        assert_eq!(Verdict::Always.join(Verdict::Depends), Verdict::Depends);
    }

    #[test]
    fn round_trip_names() {
        for v in [Verdict::Always, Verdict::Never, Verdict::Depends] {
            assert_eq!(Verdict::parse(v.as_str()), Some(v));
        }
        assert_eq!(Verdict::parse("maybe"), None);
    }

    #[test]
    fn consolidation_tracks_the_ratio() {
        // ses/str advisory: solo ≈ 0.0 (modelled as tiny), joint 0.4.
        assert_eq!(
            consolidation_verdict(iv(0.0, 0.01), iv(0.32, 0.48)),
            Verdict::Always
        );
        // Solo rates clearly dominate: never consolidate.
        assert_eq!(
            consolidation_verdict(iv(5.0, 7.0), iv(0.32, 0.48)),
            Verdict::Never
        );
        // Box straddles the 0.25 threshold.
        assert_eq!(
            consolidation_verdict(iv(0.05, 0.15), iv(0.32, 0.48)),
            Verdict::Depends
        );
    }
}
