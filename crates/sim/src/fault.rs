//! Fault injection scripts.
//!
//! The paper's evaluation (§4.1) injects failures by sending `SIGKILL` to a
//! chosen component and measuring time-to-recover. A [`FaultScript`] is the
//! declarative equivalent: a list of (time, target, kind) records that a
//! station plays, marking each injection as it lands (Mercury's
//! `Station::play`). Scripts can be written by hand for targeted
//! experiments or generated from failure-time distributions for
//! long-horizon availability runs.

use crate::dist::Dist;
use crate::rng::SimRng;
use crate::time::SimTime;

/// The kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Crash: process state is lost and the process goes silent
    /// (the simulated `SIGKILL`).
    Crash,
    /// Hang: process goes silent but keeps its state (a wedged process —
    /// deadlock, livelock, infinite loop). Detected and cured identically.
    Hang,
    /// Zombie: the process keeps answering liveness pings (whatever the
    /// simulation's [zombie filter](crate::Sim::set_zombie_filter) admits) but
    /// drops all real work and its own timers. Invisible to naive
    /// ping-based detection.
    Zombie,
    /// Hard crash: like [`Crash`](FaultKind::Crash), but the process dies
    /// again on every respawn — restarts never cure it, forcing the
    /// recovery machinery through escalation and give-up.
    HardCrash,
}

impl FaultKind {
    /// Every fault kind, in a stable order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Crash,
        FaultKind::Hang,
        FaultKind::Zombie,
        FaultKind::HardCrash,
    ];

    /// The canonical text name used by the script format.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Hang => "hang",
            FaultKind::Zombie => "zombie",
            FaultKind::HardCrash => "hard-crash",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for FaultKind {
    type Err = ScriptParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultKind::ALL
            .into_iter()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| ScriptParseError {
                line: 0,
                message: format!("unknown fault kind {s:?}"),
            })
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptedFault {
    /// When to inject.
    pub at: SimTime,
    /// The name of the target process.
    pub target: String,
    /// What to inject.
    pub kind: FaultKind,
}

/// A time-ordered collection of faults to inject into a simulation.
///
/// ```
/// use rr_sim::{FaultKind, FaultScript, SimTime};
/// let script = FaultScript::new()
///     .with_fault(SimTime::from_secs(100), "rtu", FaultKind::Crash)
///     .with_fault(SimTime::from_secs(50), "ses", FaultKind::Hang);
/// assert_eq!(script.faults()[0].target, "ses"); // sorted by time
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScript {
    faults: Vec<ScriptedFault>,
}

impl FaultScript {
    /// Creates an empty script.
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Adds a fault, keeping the script sorted by injection time.
    pub fn push(&mut self, at: SimTime, target: impl Into<String>, kind: FaultKind) {
        let fault = ScriptedFault {
            at,
            target: target.into(),
            kind,
        };
        let idx = self.faults.partition_point(|f| f.at <= fault.at);
        self.faults.insert(idx, fault);
    }

    /// Builder-style [`push`](Self::push).
    #[must_use]
    pub fn with_fault(mut self, at: SimTime, target: impl Into<String>, kind: FaultKind) -> Self {
        self.push(at, target, kind);
        self
    }

    /// The scheduled faults, sorted by time.
    pub fn faults(&self) -> &[ScriptedFault] {
        &self.faults
    }

    /// Serializes the script to its text format: one fault per line,
    /// `<nanos> <kind> <target>`, in time order. Times are integer
    /// nanoseconds so the round-trip through [`FaultScript::parse`] is
    /// exact.
    ///
    /// ```
    /// use rr_sim::{FaultKind, FaultScript, SimTime};
    /// let script = FaultScript::new()
    ///     .with_fault(SimTime::from_secs(2), "rtu", FaultKind::Zombie);
    /// let text = script.to_text();
    /// assert_eq!(text, "2000000000 zombie rtu\n");
    /// assert_eq!(FaultScript::parse(&text).unwrap(), script);
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.faults {
            out.push_str(&format!("{} {} {}\n", f.at.as_nanos(), f.kind, f.target));
        }
        out
    }

    /// Parses the text format produced by [`FaultScript::to_text`]. Blank
    /// lines and lines starting with `#` are ignored; targets may contain
    /// spaces.
    ///
    /// # Errors
    ///
    /// Returns a [`ScriptParseError`] naming the first malformed line.
    pub fn parse(text: &str) -> Result<FaultScript, ScriptParseError> {
        let mut script = FaultScript::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: String| ScriptParseError {
                line: idx + 1,
                message,
            };
            let mut parts = line.splitn(3, ' ');
            let at = parts
                .next()
                .unwrap_or_else(|| unreachable!("splitn yields at least one part"))
                .parse::<u64>()
                .map_err(|e| err(format!("bad time: {e}")))?;
            let kind = parts
                .next()
                .ok_or_else(|| err("missing fault kind".into()))?
                .parse::<FaultKind>()
                .map_err(|e| err(e.message))?;
            let target = parts
                .next()
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .ok_or_else(|| err("missing target".into()))?;
            script.push(SimTime::from_nanos(at), target, kind);
        }
        Ok(script)
    }

    /// Generates a script of crash faults for `target` with inter-arrival
    /// times drawn from `inter_arrival`, covering `[0, horizon)`.
    ///
    /// This is how the synthetic Table 1 failure processes are produced: an
    /// exponential inter-arrival with the paper's per-component MTTF.
    pub fn poisson_like(
        target: &str,
        inter_arrival: &Dist,
        horizon: SimTime,
        rng: &mut SimRng,
    ) -> FaultScript {
        let mut script = FaultScript::new();
        let mut t = SimTime::ZERO;
        loop {
            let gap = inter_arrival.sample(rng);
            if gap.is_zero() {
                // Degenerate distribution; avoid an infinite loop.
                break;
            }
            t += gap;
            if t >= horizon {
                break;
            }
            script.push(t, target, FaultKind::Crash);
        }
        script
    }

    /// Merges another script into this one, preserving time order.
    pub fn merge(&mut self, other: FaultScript) {
        for f in other.faults {
            let idx = self.faults.partition_point(|g| g.at <= f.at);
            self.faults.insert(idx, f);
        }
    }
}

impl Extend<ScriptedFault> for FaultScript {
    fn extend<T: IntoIterator<Item = ScriptedFault>>(&mut self, iter: T) {
        for f in iter {
            self.push(f.at, f.target, f.kind);
        }
    }
}

impl FromIterator<ScriptedFault> for FaultScript {
    fn from_iter<T: IntoIterator<Item = ScriptedFault>>(iter: T) -> Self {
        let mut s = FaultScript::new();
        s.extend(iter);
        s
    }
}

/// Error: a fault-script text document was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptParseError {
    /// 1-based line number of the malformed line (0 when no line applies,
    /// e.g. a bare [`FaultKind`] parse).
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ScriptParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault script line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_keeps_time_order() {
        let s = FaultScript::new()
            .with_fault(SimTime::from_secs(5), "b", FaultKind::Crash)
            .with_fault(SimTime::from_secs(1), "a", FaultKind::Hang)
            .with_fault(SimTime::from_secs(3), "c", FaultKind::Crash);
        let order: Vec<_> = s.faults().iter().map(|f| f.target.as_str()).collect();
        assert_eq!(order, vec!["a", "c", "b"]);
    }

    #[test]
    fn poisson_like_respects_horizon_and_mean() {
        let mut rng = SimRng::new(3);
        let horizon = SimTime::from_secs(100_000);
        let script = FaultScript::poisson_like("x", &Dist::exponential(100.0), horizon, &mut rng);
        assert!(script.faults().iter().all(|f| f.at < horizon));
        // Expect ~1000 faults; allow generous tolerance.
        let n = script.faults().len();
        assert!((850..1150).contains(&n), "faults: {n}");
    }

    #[test]
    fn poisson_like_handles_degenerate_zero_gap() {
        let mut rng = SimRng::new(4);
        let script =
            FaultScript::poisson_like("x", &Dist::constant(0.0), SimTime::from_secs(10), &mut rng);
        assert!(script.faults().is_empty());
    }

    #[test]
    fn merge_interleaves() {
        let mut a = FaultScript::new().with_fault(SimTime::from_secs(1), "a", FaultKind::Crash);
        let b = FaultScript::new()
            .with_fault(SimTime::from_secs(0), "b", FaultKind::Crash)
            .with_fault(SimTime::from_secs(2), "c", FaultKind::Crash);
        a.merge(b);
        let order: Vec<_> = a.faults().iter().map(|f| f.target.as_str()).collect();
        assert_eq!(order, vec!["b", "a", "c"]);
    }

    #[test]
    fn text_round_trip_covers_every_kind() {
        let mut script = FaultScript::new();
        for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
            script.push(SimTime::from_secs(i as u64 + 1), format!("comp-{i}"), kind);
        }
        let text = script.to_text();
        for kind in FaultKind::ALL {
            assert!(text.contains(kind.as_str()), "missing {kind} in {text:?}");
        }
        assert_eq!(FaultScript::parse(&text).unwrap(), script);
    }

    #[test]
    fn text_round_trip_preserves_same_time_order() {
        // Two faults at the identical instant: serialization and re-parsing
        // must keep their relative order (the engine breaks ties by
        // scheduling order, so this is behaviourally observable).
        let t = SimTime::from_secs_f64(1.25);
        let script = FaultScript::new()
            .with_fault(t, "first", FaultKind::Crash)
            .with_fault(t, "second", FaultKind::Hang);
        let reparsed = FaultScript::parse(&script.to_text()).unwrap();
        assert_eq!(reparsed, script);
        let order: Vec<_> = reparsed
            .faults()
            .iter()
            .map(|f| f.target.as_str())
            .collect();
        assert_eq!(order, vec!["first", "second"]);
    }

    #[test]
    fn parse_skips_comments_and_blanks_and_allows_spacey_targets() {
        let text = "# a fault schedule\n\n1000000000 crash a b c\n  \n# done\n";
        let script = FaultScript::parse(text).unwrap();
        assert_eq!(script.faults().len(), 1);
        assert_eq!(script.faults()[0].target, "a b c");
        assert_eq!(script.faults()[0].at, SimTime::from_secs(1));
    }

    #[test]
    fn parse_reports_malformed_lines() {
        let bad_time = FaultScript::parse("soon crash a").unwrap_err();
        assert_eq!(bad_time.line, 1);
        assert!(bad_time.to_string().contains("bad time"));

        let bad_kind = FaultScript::parse("# header\n5 explode a").unwrap_err();
        assert_eq!(bad_kind.line, 2);
        assert!(bad_kind.message.contains("explode"));

        let no_target = FaultScript::parse("5 crash").unwrap_err();
        assert!(no_target.message.contains("missing target"));

        let blank_target = FaultScript::parse("5 crash  ").unwrap_err();
        assert!(blank_target.message.contains("missing target"));
    }

    #[test]
    fn random_scripts_round_trip() {
        crate::check::run("fault::random_scripts_round_trip", 64, |rng| {
            let mut script = FaultScript::new();
            let n = rng.next_below(20) as usize;
            for _ in 0..n {
                let at = SimTime::from_nanos(rng.next_below(1 << 40));
                let target = crate::check::ident(rng, 8);
                let kind = *rng.choose(&FaultKind::ALL).unwrap();
                script.push(at, target, kind);
            }
            let reparsed = FaultScript::parse(&script.to_text()).unwrap();
            assert_eq!(reparsed, script);
        });
    }

    #[test]
    fn from_iterator_collects_sorted() {
        let faults = vec![
            ScriptedFault {
                at: SimTime::from_secs(2),
                target: "b".into(),
                kind: FaultKind::Crash,
            },
            ScriptedFault {
                at: SimTime::from_secs(1),
                target: "a".into(),
                kind: FaultKind::Crash,
            },
        ];
        let script: FaultScript = faults.into_iter().collect();
        assert_eq!(script.faults()[0].target, "a");
    }
}
