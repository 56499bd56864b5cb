//! The §3.2 restart-group algebra lifted to intervals.
//!
//! Each function here is the abstract transformer of its concrete counterpart
//! in [`rr_core::analysis`]: for any choice of concrete inputs inside the
//! interval arguments, the concrete result lies inside the interval result.
//! Monotone operations (availability) evaluate at endpoints for tightness;
//! the rest compose the outward-rounded [`Interval`] primitives.

use rr_core::AnalysisError;

use crate::error::AbsError;
use crate::interval::Interval;

/// Abstract `MTTF / (MTTF + MTTR)` (§3).
///
/// Availability is increasing in MTTF and decreasing in MTTR, so the tight
/// enclosure evaluates the two extreme corners directly (with outward
/// rounding) instead of composing interval division — which would double-count
/// the MTTF dependency in the denominator.
///
/// # Errors
///
/// Returns [`AbsError::NonPositive`] unless both intervals are strictly
/// positive throughout.
pub fn availability(mttf_s: Interval, mttr_s: Interval) -> Result<Interval, AbsError> {
    if !mttf_s.strictly_positive() {
        return Err(AbsError::NonPositive {
            what: "MTTF",
            lo: mttf_s.lo(),
        });
    }
    if !mttr_s.strictly_positive() {
        return Err(AbsError::NonPositive {
            what: "MTTR",
            lo: mttr_s.lo(),
        });
    }
    let lo = (mttf_s.lo() / (mttf_s.lo() + mttr_s.hi()))
        .next_down()
        .max(0.0);
    let hi = (mttf_s.hi() / (mttf_s.hi() + mttr_s.lo()))
        .next_up()
        .min(1.0);
    Interval::new(lo, hi)
}

/// Abstract group MTTF bound of §3.2: pointwise minimum over members.
///
/// # Errors
///
/// Returns [`AbsError::Analysis`] wrapping [`AnalysisError::EmptyGroup`] if
/// `member_mttfs_s` is empty.
pub fn group_mttf_bound_s(member_mttfs_s: &[Interval]) -> Result<Interval, AbsError> {
    let (first, rest) =
        member_mttfs_s
            .split_first()
            .ok_or(AbsError::Analysis(AnalysisError::EmptyGroup {
                what: "group_mttf_bound_s",
            }))?;
    Ok(rest.iter().fold(*first, |acc, iv| acc.min(*iv)))
}

/// Abstract group MTTR bound of §3.2: pointwise maximum over members.
///
/// # Errors
///
/// Returns [`AbsError::Analysis`] wrapping [`AnalysisError::EmptyGroup`] if
/// `member_mttrs_s` is empty.
pub fn group_mttr_bound_s(member_mttrs_s: &[Interval]) -> Result<Interval, AbsError> {
    let (first, rest) =
        member_mttrs_s
            .split_first()
            .ok_or(AbsError::Analysis(AnalysisError::EmptyGroup {
                what: "group_mttr_bound_s",
            }))?;
    Ok(rest.iter().fold(*first, |acc, iv| acc.max(*iv)))
}

/// Interval mode probabilities `p_i = r_i / Σ r_j` from per-mode rate
/// intervals. Sound but correlation-blind: each quotient treats the
/// numerator's contribution to the denominator as independent, so the
/// results over-approximate the true (normalized) probability simplex.
///
/// # Errors
///
/// Returns [`AbsError::NonPositive`] if any rate interval reaches zero (a
/// rate must stay positive over the whole box), or propagates the division
/// error if the total straddles zero (impossible once rates are positive).
pub fn mode_probabilities(rates: &[Interval]) -> Result<Vec<Interval>, AbsError> {
    for r in rates {
        if !r.strictly_positive() {
            return Err(AbsError::NonPositive {
                what: "failure rate",
                lo: r.lo(),
            });
        }
    }
    let zero = Interval::point(0.0)?;
    let total = rates.iter().fold(zero, |acc, r| acc.add(*r));
    rates
        .iter()
        .map(|r| {
            let q = r.div(total)?;
            // Probabilities live in [0, 1]; intersecting with that is sound
            // and keeps downstream products tight.
            Interval::new(q.lo().clamp(0.0, 1.0), q.hi().clamp(0.0, 1.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_core::analysis as concrete;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn availability_encloses_concrete_corners() {
        let mttf = iv(3000.0, 4200.0);
        let mttr = iv(20.0, 30.0);
        let a = availability(mttf, mttr).unwrap();
        for (f, r) in [
            (3000.0, 20.0),
            (3000.0, 30.0),
            (4200.0, 20.0),
            (3600.0, 24.75),
        ] {
            assert!(
                a.contains(concrete::availability(f, r).unwrap()),
                "({f}, {r})"
            );
        }
        assert!(a.lo() > 0.0 && a.hi() <= 1.0);
        assert!(availability(iv(-1.0, 1.0), mttr).is_err());
        assert!(availability(mttf, iv(0.0, 1.0)).is_err());
    }

    #[test]
    fn availability_point_is_tight() {
        let a = availability(iv(3600.0, 3600.0), iv(24.75, 24.75)).unwrap();
        let c = concrete::availability(3600.0, 24.75).unwrap();
        assert!(a.contains(c));
        assert!(a.width() < 1e-12);
    }

    #[test]
    fn group_bounds_mirror_concrete() {
        let mttfs = [iv(90.0, 110.0), iv(40.0, 60.0), iv(70.0, 80.0)];
        let g = group_mttf_bound_s(&mttfs).unwrap();
        assert!(g.contains(concrete::group_mttf_bound_s(&[100.0, 50.0, 75.0]).unwrap()));
        let mttrs = [iv(4.0, 6.0), iv(20.0, 22.0), iv(8.0, 10.0)];
        let m = group_mttr_bound_s(&mttrs).unwrap();
        assert!(m.contains(concrete::group_mttr_bound_s(&[5.0, 21.0, 9.0]).unwrap()));
        assert!(group_mttf_bound_s(&[]).is_err());
        assert!(group_mttr_bound_s(&[]).is_err());
    }

    #[test]
    fn mode_probabilities_enclose_concrete_fractions() {
        let rates = [iv(4.8, 7.2), iv(0.16, 0.24), iv(0.04, 0.06)];
        let ps = mode_probabilities(&rates).unwrap();
        // Concrete point: rates (6.0, 0.2, 0.05), total 6.25.
        for (p, r) in ps.iter().zip([6.0, 0.2, 0.05]) {
            assert!(p.contains(r / 6.25), "p for rate {r}");
            assert!(p.lo() >= 0.0 && p.hi() <= 1.0);
        }
        assert!(mode_probabilities(&[iv(0.0, 1.0)]).is_err());
    }
}
