//! Station configuration and timing calibration.
//!
//! Every synthetic timing constant in the simulation lives here (in
//! [`calib`]), next to the paper measurement it was calibrated against, so
//! the substitution documented in DESIGN.md §5 is auditable in one place.
//! [`StationConfig`] holds only what some preset or experiment varies.
//!
//! Derivation of the calibration (all times in seconds):
//!
//! * **Detection** ≈ `ping_period/2 + ping_timeout` = 0.5 + 0.4 = 0.9 — the
//!   mean delay from a fail-silent crash (uniform phase within the 1 s ping
//!   cycle, §2.2) until FD reports it to REC.
//! * **Per-component recovery** (tree II, Table 2) =
//!   detection + exec + boot, so boot times are back-solved from Table 2:
//!   e.g. mbus 5.73 − 0.9 − 0.1 = 4.73.
//! * **Whole-system contention** (tree I, Table 2): 24.75 = 1.0 +
//!   `boot_fedrcom · (1 + q·(k−1)²)` with k = 5 ⇒ q ≈ 0.0119. The quadratic
//!   form captures the paper's observation that full restarts contend while
//!   two-component joint restarts barely do (tree IV/V numbers).
//! * **ses/str resync** (§4.3): a freshly restarted ses blocks on the old
//!   str, which services the handshake slowly (3.35 s) and subsequently
//!   suffers an induced failure: 0.9 + 0.1 + 5.15 + 3.35 ≈ 9.50 (Table 2).
//!   Symmetrically str + old ses: 3.75 ⇒ 9.76. Restarted *together*, both
//!   sides are fresh and the handshake is fast — tree IV's 6.25/6.11.
//! * **pbcom rapid-restart penalty** (§4.4): the radio hardware renegotiates
//!   slowly when the serial link bounces twice in quick succession (+4.0 s),
//!   reproducing the faulty-oracle cost of 29.19 s in tree IV.

use std::collections::BTreeMap;

use rr_core::analysis::SimpleCostModel;
use rr_core::model::{FailureMode, FailureModel};
use rr_core::RecoveryMode;
use rr_lint::{FdParams, PolicyParams};
use rr_sim::{Dist, SimDuration};

use crate::orbit::{GroundSite, Satellite};

mod lint;

/// Unwraps a failure mode built from the literal Mercury rates, which are
/// valid by construction.
fn mode(m: Result<FailureMode, rr_core::ModelError>) -> FailureMode {
    m.unwrap_or_else(|e| unreachable!("literal Mercury rates are valid: {e}"))
}

/// Component names used throughout the station.
pub mod names {
    /// The software message bus.
    pub const MBUS: &str = "mbus";
    /// The unsplit radio proxy of trees I/II.
    pub const FEDRCOM: &str = "fedrcom";
    /// The front-end driver-radio (post-split, §4.2).
    pub const FEDR: &str = "fedr";
    /// The serial-port/TCP bridge (post-split, §4.2).
    pub const PBCOM: &str = "pbcom";
    /// The satellite estimator.
    pub const SES: &str = "ses";
    /// The satellite tracker.
    pub const STR: &str = "str";
    /// The radio tuner.
    pub const RTU: &str = "rtu";
    /// The failure detector.
    pub const FD: &str = "fd";
    /// The recovery module.
    pub const REC: &str = "rec";

    /// The five components of the original (unsplit) station.
    pub const UNSPLIT: [&str; 5] = [MBUS, FEDRCOM, SES, STR, RTU];
    /// The six components after the fedrcom split.
    pub const SPLIT: [&str; 6] = [MBUS, FEDR, PBCOM, SES, STR, RTU];
}

/// Per-component timing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentTiming {
    /// Mean boot time (process start to functionally-ready, excluding sync).
    pub boot_mean_s: f64,
    /// Standard deviation of boot time (small, per the §3.2 small-CoV
    /// assumption).
    pub boot_std_s: f64,
}

impl ComponentTiming {
    const fn new(boot_mean_s: f64, boot_std_s: f64) -> Self {
        ComponentTiming {
            boot_mean_s,
            boot_std_s,
        }
    }

    /// The boot-time distribution.
    pub fn boot_dist(&self) -> Dist {
        if self.boot_std_s == 0.0 {
            Dist::constant(self.boot_mean_s)
        } else {
            Dist::normal(self.boot_mean_s, self.boot_std_s)
        }
    }
}

/// The calibration: values with exactly one setting, because the paper
/// measures one station (Tables 2 and 4) and no preset, experiment, example
/// or benchmark ever gave them a second. The boot, resync and contention
/// costs are back-solved from those tables as the module docs derive; the
/// rest are protocol timings of the simulated station. DESIGN.md §5
/// tabulates every constant and a unit test holds that table to these values.
pub mod calib {
    use super::{names, ComponentTiming, SimDuration};

    /// One-way latency of an envelope hop over mbus.
    pub const BUS_LATENCY_S: f64 = 0.002;
    /// [`BUS_LATENCY_S`] as a duration: what every bus hop waits.
    pub const BUS_LATENCY: SimDuration = SimDuration::from_millis(2);
    /// One-way latency of the dedicated FD↔REC / fedr↔pbcom connections.
    pub const DIRECT_LATENCY_S: f64 = 0.001;
    /// [`DIRECT_LATENCY_S`] as a duration.
    pub const DIRECT_LATENCY: SimDuration = SimDuration::from_millis(1);
    /// Delay from REC issuing a restart to the new process's start event
    /// (process spawn cost).
    pub const EXEC_DELAY_S: f64 = 0.10;
    /// [`EXEC_DELAY_S`] as a duration.
    pub const EXEC_DELAY: SimDuration = SimDuration::from_millis(100);
    /// Quadratic restart-contention coefficient: k concurrently booting
    /// components are each slowed by `1 + q·(k−1)²`.
    pub const CONTENTION_QUADRATIC: f64 = 0.0119;
    /// Per-component boot timings, back-solved from Table 2 (tree II) and
    /// §4.2 (the split pair).
    pub const TIMING: &[(&str, ComponentTiming)] = &[
        (names::MBUS, ComponentTiming::new(4.73, 0.05)),
        (names::FEDRCOM, ComponentTiming::new(19.93, 0.10)),
        (names::FEDR, ComponentTiming::new(4.76, 0.05)),
        (names::PBCOM, ComponentTiming::new(20.24, 0.10)),
        (names::SES, ComponentTiming::new(5.15, 0.05)),
        (names::STR, ComponentTiming::new(5.01, 0.05)),
        (names::RTU, ComponentTiming::new(4.59, 0.05)),
        // FD and REC are small Java processes; they restart quickly.
        (names::FD, ComponentTiming::new(1.5, 0.02)),
        (names::REC, ComponentTiming::new(1.5, 0.02)),
    ];
    /// Seconds an *old* (long-running) ses takes to service str's resync.
    pub const SES_RESYNC_SERVICE_S: f64 = 3.75;
    /// Seconds an *old* str takes to service ses's resync.
    pub const STR_RESYNC_SERVICE_S: f64 = 3.35;
    /// Handshake time between two freshly restarted peers.
    pub const FRESH_SYNC_S: f64 = 0.05;
    /// Uptime below which a peer is considered "fresh" (fast sync, no
    /// induced failure).
    pub const FRESH_THRESHOLD_S: f64 = 30.0;
    /// Delay from an old peer servicing a resync to its induced failure
    /// (§4.3: a restart in one "substantially always" leads to a restart of
    /// the other).
    pub const INDUCED_FAILURE_DELAY_S: f64 = 0.8;
    /// fedr → pbcom TCP connect + accept time.
    pub const CONNECT_ACK_S: f64 = 0.05;
    /// Extra pbcom negotiation time when the serial link bounced within
    /// [`RAPID_RESTART_WINDOW_S`] (hardware back-off, §4.4).
    pub const PBCOM_RAPID_RESTART_PENALTY_S: f64 = 4.0;
    /// Window for the rapid-restart penalty.
    pub const RAPID_RESTART_WINDOW_S: f64 = 60.0;
    /// Number of fedr connection losses after which pbcom's aging causes it
    /// to fail (§4.2: "multiple fedr failures eventually lead to a pbcom
    /// failure").
    pub const PBCOM_AGING_LIMIT: u32 = 8;
    /// Delay from a poisoned fedr connecting until pbcom crashes (the
    /// §4.4 correlated failure that only a joint restart cures).
    pub const POISON_CRASH_DELAY_S: f64 = 0.5;
    /// After FD restarts REC (or REC restarts FD), how long the watchdog
    /// waits before resuming liveness checks — must exceed the peer's boot
    /// time or the pair re-kills each other mid-boot forever.
    pub const WATCHDOG_GRACE_S: f64 = 8.0;
    /// Grace period after FD boots before it starts pinging, covering the
    /// station's initial cold start so components mid-first-boot are not
    /// reported as failures.
    pub const FD_GRACE_S: f64 = 30.0;
    /// If a restarted component has not come back within this time, REC
    /// stops attributing its silence to the in-flight restart and treats
    /// further failure reports as a new failure (covers components killed
    /// mid-reboot by an unlucky second fault).
    pub const RESTART_DEADLINE_S: f64 = 45.0;
    /// fedr → pbcom keepalive period.
    pub const KEEPALIVE_PERIOD_S: f64 = 1.0;
    /// How recent tune/point commands must be for the radio to hold carrier
    /// lock and produce telemetry.
    pub const LOCK_WINDOW_S: f64 = 5.0;
    /// ses/str sync-request retry period while blocked on the peer.
    pub const SYNC_RETRY_S: f64 = 0.2;
    /// fedr connect retry period while pbcom is unreachable.
    pub const CONNECT_RETRY_S: f64 = 0.5;
    /// Telemetry frame period during an active, locked pass.
    pub const TELEMETRY_PERIOD_S: f64 = 1.0;
    /// Advisory bound on the deferral queue (one entry per component, so
    /// any value at or above the component count never binds; rr-lint warns
    /// when it is smaller).
    pub const DEFER_QUEUE_LIMIT: usize = 16;
    /// The shortest pass window the station commits to serving, in seconds.
    /// Drives the rr-lint deadline-feasibility checks (a worst-case
    /// recovery must fit inside it) and nothing at runtime.
    pub const MIN_PASS_WINDOW_S: f64 = 300.0;
    /// Sequential read/write throughput of the store's backing medium,
    /// KiB per second. Divides into state size for both the checkpoint
    /// write stall and the rehydrate replay time.
    pub const STORE_THROUGHPUT_KBPS: f64 = 2048.0;
    /// Size of one incremental journal update record, in KiB.
    pub const STORE_UPDATE_KB: f64 = 2.0;
    /// How often a healthy journaling component appends an update record
    /// (its session state mutates), in seconds.
    pub const STORE_UPDATE_PERIOD_S: f64 = 2.0;

    /// The cold re-derivation a restarted component of the ses/str pair
    /// waits for: its *old* peer's resync service time (§4.3), which a
    /// rehydrating component bypasses. 0 for every other component.
    pub fn peer_resync_service_s(component: &str) -> f64 {
        match component {
            names::SES => STR_RESYNC_SERVICE_S,
            names::STR => SES_RESYNC_SERVICE_S,
            _ => 0.0,
        }
    }

    /// The [`TIMING`] entry for a component.
    ///
    /// # Panics
    ///
    /// Panics if the component has no timing entry.
    pub fn timing_for(component: &str) -> &'static ComponentTiming {
        TIMING
            .iter()
            .find(|(name, _)| *name == component)
            .map(|(_, timing)| timing)
            .unwrap_or_else(|| panic!("no timing configured for {component:?}"))
    }
}

/// Station configuration: the values some preset, experiment or test
/// actually varies. Everything with one value is a constant in [`calib`].
///
/// | Settable | Set by |
/// |---|---|
/// | [`fd`](Self::fd)`.ping_period_s`, `.ping_timeout_s` | `repro ablation-ping` |
/// | `fd.suspicion_threshold`, `.suspicion_window`, `.beacon_timeout_s` | [`hardened`](Self::hardened) |
/// | [`policy`](Self::policy)`.escalation_limit` | the deny-gate tests (`lint_clean.rs`) |
/// | `policy.max_restarts_per_window` | `repro overload`, `admission.rs` |
/// | `policy.backoff_base_s` | [`hardened`](Self::hardened) |
/// | [`cure_confirm_s`](Self::cure_confirm_s) | [`hardened`](Self::hardened), `repro ablation-ping` |
/// | [`serial_recovery`](Self::serial_recovery) | `repro correlated` |
/// | `admission_*`, [`defer_max_age_s`](Self::defer_max_age_s), [`critical_components`](Self::critical_components) | [`admission`](Self::admission), `repro overload`, the golden overload-burst scenarios |
/// | [`recovery_modes`](Self::recovery_modes), [`session_state_kb`](Self::session_state_kb) | [`checkpointed`](Self::checkpointed), `repro checkpoint` |
/// | [`rejuvenation_aging_threshold`](Self::rejuvenation_aging_threshold) | `repro ablation-rejuvenation` |
/// | [`pass_epoch_offset_s`](Self::pass_epoch_offset_s) | `repro pass`, `examples/ground_station.rs` |
/// | [`telemetry_enabled`](Self::telemetry_enabled) | every preset but [`paper`](Self::paper) |
/// | [`site`](Self::site), [`satellites`](Self::satellites) | the workload |
///
/// `fd.beacon_period_s`, `policy.restart_window_s` and `policy.backoff_cap_s`
/// hold one value in every station; they are settable only as members of
/// the two structs rr-lint checks, whose fixtures do vary them.
#[derive(Debug, Clone, PartialEq)]
pub struct StationConfig {
    /// Failure-detector timing: ping period and timeout (paper: 1 s, §2.2),
    /// K-of-N suspicion, health beacons. The struct `rr_lint::lint_fd`
    /// checks is the struct FD and REC read.
    pub fd: FdParams,
    /// REC's restart policy: escalation limit, restart-storm budget and
    /// backoff. Checked by `rr_lint::lint_policy`, turned into the
    /// [`rr_core::RestartPolicy`] the recoverer runs.
    pub policy: PolicyParams,
    /// Proactive rejuvenation: when a beacon reports aging at or above this
    /// threshold, REC restarts the component's cell *before* it fails —
    /// "a bounded form of software rejuvenation" increasing MTTF (§3).
    /// `None` disables (the paper's measured configuration).
    pub rejuvenation_aging_threshold: Option<f64>,
    /// How long REC waits after a restart completes before declaring the
    /// failure cured (must exceed the poison re-crash + detection lag so
    /// escalation, not a fresh episode, handles persisting failures).
    pub cure_confirm_s: f64,
    /// If `true`, REC refuses to open a new restart episode while any other
    /// episode is still in flight: a freshly suspected component is left for
    /// FD's next ping round to re-report once the station is quiet. This is
    /// the strictly serial recoverer the paper's single-fault experiments
    /// never distinguish from the parallel one; it exists as the baseline
    /// for the sequential-vs-parallel comparison. `false` (the default)
    /// drives independent episodes concurrently, merging overlapping ones
    /// by LCA promotion.
    pub serial_recovery: bool,
    /// Offset added to simulation time to obtain the orbital epoch time used
    /// by estimates (lets scenarios start mid-pass).
    pub pass_epoch_offset_s: f64,
    /// If `true`, REC runs a deadline-aware **admission controller** in
    /// front of the recoverer: each incoming restart request is classified
    /// as *run* (forwarded immediately), *defer* (parked in a queue until
    /// recovery capacity frees up) or *shed* (dropped — only ever a
    /// duplicate of a request already queued or in flight, so coverage of a
    /// faulty component is never lost). `false` (the paper's behaviour)
    /// forwards every request immediately.
    pub admission_enabled: bool,
    /// Recovery capacity: the most restart launches admission control
    /// admits within [`admission_window_s`](Self::admission_window_s);
    /// beyond it new requests are deferred.
    pub admission_capacity: u32,
    /// Length of the admission capacity window.
    pub admission_window_s: f64,
    /// Period at which REC re-examines the deferral queue for requests that
    /// can now be admitted.
    pub admission_retry_s: f64,
    /// Fairness/aging bound: a deferred request older than this runs at the
    /// next retry tick even if the capacity window is full, so deferral can
    /// delay a restart but never starve it.
    pub defer_max_age_s: f64,
    /// Components whose recovery outranks the rest under overload: they get
    /// criticality 1 in the [`rr_core::DeadlineModel`] (everything else 0),
    /// so ties in pass slack break in their favour.
    pub critical_components: Vec<String>,
    /// If `true`, the station records recovery-episode telemetry (counters,
    /// MTTR histograms, FD ping-latency stats and the episode-event stream)
    /// into its [`rr_sim::telemetry::Registry`]. When `false` the registry
    /// is a no-op sink: every instrumentation point returns after one branch
    /// without allocating, so disabled telemetry costs nothing on the hot
    /// path. Observation-only either way — it never changes scheduling or
    /// the trace.
    pub telemetry_enabled: bool,
    /// Per-component recovery mode: components absent from the map cold
    /// restart (the paper's behaviour). A
    /// [`RecoveryMode::Rehydrate`] entry makes the component journal its
    /// session state into the station's crash-safe store (`rr-store`) and
    /// rehydrate from it on restart instead of re-deriving state from its
    /// peers — for ses/str, skipping the §4.3 resync and the induced
    /// failure it drags along.
    pub recovery_modes: BTreeMap<String, RecoveryMode>,
    /// Synthetic size of a component's session state (what a checkpoint
    /// snapshots), in KiB.
    pub session_state_kb: f64,
    /// Ground station site (Stanford).
    pub site: GroundSite,
    /// Satellite catalog.
    pub satellites: Vec<Satellite>,
}

impl StationConfig {
    /// The configuration reproducing the paper's measurements: report on
    /// the first missed pong, restart immediately, no admission control,
    /// no store, telemetry off.
    pub fn paper() -> StationConfig {
        StationConfig {
            fd: FdParams {
                ping_period_s: 1.0,
                ping_timeout_s: 0.4,
                suspicion_threshold: 1,
                suspicion_window: 1,
                beacon_period_s: 5.0,
                beacon_timeout_s: 0.0,
            },
            policy: PolicyParams {
                escalation_limit: 8,
                max_restarts_per_window: 20,
                restart_window_s: 3600.0,
                backoff_base_s: 0.0,
                backoff_cap_s: 30.0,
            },
            rejuvenation_aging_threshold: None,
            cure_confirm_s: 2.5,
            serial_recovery: false,
            pass_epoch_offset_s: 0.0,
            admission_enabled: false,
            admission_capacity: 2,
            admission_window_s: 120.0,
            admission_retry_s: 5.0,
            defer_max_age_s: 240.0,
            critical_components: Vec::new(),
            telemetry_enabled: false,
            recovery_modes: BTreeMap::new(),
            session_state_kb: 256.0,
            site: GroundSite::stanford(),
            satellites: vec![Satellite::opal(), Satellite::sapphire()],
        }
    }

    /// The paper calibration hardened for *degraded* communication: the FD
    /// requires 8 *consecutive* missed pongs (threshold 8 in a window of 8
    /// rounds) before suspecting a component, so sporadic message loss does
    /// not trigger false-positive restarts; restarts back off
    /// exponentially; and REC watches beacon staleness to catch zombie
    /// components that still answer pings.
    ///
    /// Detection latency rises accordingly (≈ 7 s extra at the paper's 1 s
    /// ping period), so `cure_confirm_s` is re-derived to keep escalation
    /// sound. Use [`paper`](Self::paper) to reproduce the paper's tables.
    pub fn hardened() -> StationConfig {
        let paper = StationConfig::paper();
        let fd = FdParams {
            // Eight *consecutive* missed rounds: with 5% loss on every link
            // a bus-relayed ping round misses with p ≈ 0.185, so the
            // false-suspect probability per round is 0.185^8 ≈ 1.4e-6 — a
            // handful of expected false positives per simulated *year*,
            // while a crashed component still misses every round and is
            // detected in ~8.4 s.
            suspicion_threshold: 8,
            suspicion_window: 8,
            // Five beacon periods: a run of five lost beacons (p ≈ 0.0975
            // each under 5% loss) is ~9e-6, so staleness stays a zombie
            // detector rather than a loss amplifier.
            beacon_timeout_s: 25.0,
            ..paper.fd
        };
        StationConfig {
            fd,
            policy: PolicyParams {
                backoff_base_s: 0.5,
                ..paper.policy
            },
            // cure_confirm_s must exceed poison re-crash + (slower) detection.
            cure_confirm_s: calib::POISON_CRASH_DELAY_S + fd.mean_detection_s() + 3.0,
            // Degraded links are where recovery behaviour gets interesting, so
            // the hardened profile keeps the episode telemetry on.
            telemetry_enabled: true,
            ..paper
        }
    }

    /// The hardened calibration with the deadline-aware admission controller
    /// switched on: under overload REC paces restart launches to
    /// [`admission_capacity`](Self::admission_capacity) per
    /// [`admission_window_s`](Self::admission_window_s), parking the excess
    /// in a deferral queue drained most-urgent-first (tightest pass slack,
    /// criticality breaking ties). The storage components carry criticality
    /// 1 so experiment data survives a shedding storm.
    ///
    /// Use [`hardened`](Self::hardened) for the no-admission baseline the
    /// overload experiments compare against.
    pub fn admission() -> StationConfig {
        StationConfig {
            admission_enabled: true,
            critical_components: vec![names::SES.into(), names::STR.into()],
            ..StationConfig::hardened()
        }
    }

    /// The paper calibration with the crash-safe state store switched on
    /// for the stateful pair: ses and str journal their session state and
    /// *rehydrate* on restart (checkpointing every 60 s) instead of
    /// re-deriving it through the §4.3 resync. Telemetry stays on so the
    /// `rehydrated` / `replayed_records` / `snapshot_bytes` counters are
    /// observable.
    ///
    /// Use [`paper`](Self::paper) for the cold-restart behaviour the
    /// checkpoint experiments compare against.
    pub fn checkpointed() -> StationConfig {
        let mode = RecoveryMode::Rehydrate {
            checkpoint_interval_s: 60.0,
        };
        StationConfig {
            recovery_modes: BTreeMap::from([(names::SES.into(), mode), (names::STR.into(), mode)]),
            telemetry_enabled: true,
            ..StationConfig::paper()
        }
    }

    /// Checks the configuration's internal consistency: the detection
    /// machinery is coherent, and the recovery timeouts are ordered against
    /// the [`calib`] constants so escalation (not deadlock or spurious new
    /// episodes) handles persisting failures. Relations among the constants
    /// alone are a unit test of this module, not a runtime rule. The ping
    /// timing, K-of-N suspicion, backoff and restart-budget knobs are
    /// [`lint`](Self::lint)'s alone (RRL601, RRL602, RRL102, RRL103/RRL101),
    /// non-finite values included.
    ///
    /// # Errors
    ///
    /// Returns the list of violated constraints.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        let fd = &self.fd;
        let has_timing = |comp: &str| calib::TIMING.iter().any(|(name, _)| *name == comp);
        // Finiteness first: NaN is incomparable, so it slips through every
        // range check below (`NaN <= 0.0` is false), and an infinite knob
        // turns the derived bounds (min confirm) into nonsense. One sweep
        // over every float knob this method owns closes that hole.
        let float_knobs = [
            ("beacon_period_s", fd.beacon_period_s),
            ("beacon_timeout_s", fd.beacon_timeout_s),
            ("cure_confirm_s", self.cure_confirm_s),
            ("pass_epoch_offset_s", self.pass_epoch_offset_s),
            ("admission_window_s", self.admission_window_s),
            ("admission_retry_s", self.admission_retry_s),
            ("defer_max_age_s", self.defer_max_age_s),
            ("session_state_kb", self.session_state_kb),
        ];
        for (name, value) in float_knobs {
            if !value.is_finite() {
                errors.push(format!("{name} ({value}) must be finite"));
            }
        }
        if let Some(t) = self.rejuvenation_aging_threshold {
            if !t.is_finite() {
                errors.push(format!("rejuvenation threshold ({t}) must be finite"));
            }
        }
        if fd.beacon_timeout_s != 0.0 {
            if fd.beacon_period_s <= 0.0 {
                errors.push("beacon_timeout_s requires beacons (beacon_period_s > 0)".to_string());
            } else if fd.beacon_timeout_s <= 2.0 * fd.beacon_period_s {
                errors.push(format!(
                    "beacon_timeout_s ({}) must exceed two beacon periods ({}) or a single \
                     delayed beacon looks like a zombie",
                    fd.beacon_timeout_s, fd.beacon_period_s
                ));
            }
        }
        // REC must not declare a cure before a poison re-crash could be
        // re-detected, or it closes the episode and escalation never happens.
        let min_confirm = calib::POISON_CRASH_DELAY_S + fd.mean_detection_s() + 0.2;
        if self.cure_confirm_s <= min_confirm {
            errors.push(format!(
                "cure_confirm_s ({}) must exceed poison delay + detection ({min_confirm:.2})",
                self.cure_confirm_s
            ));
        }
        // The FD/REC mutual watchdogs must wait out each other's boots.
        let fd_boot = calib::timing_for(names::FD).boot_mean_s;
        let rec_boot = calib::timing_for(names::REC).boot_mean_s;
        if calib::WATCHDOG_GRACE_S <= fd_boot.max(rec_boot) + calib::EXEC_DELAY_S + fd.ping_period_s
        {
            errors.push(format!(
                "watchdog_grace_s ({}) must outlast FD/REC boot + one ping round",
                calib::WATCHDOG_GRACE_S
            ));
        }
        if let Some(t) = self.rejuvenation_aging_threshold {
            if !(0.0..=1.0).contains(&t) {
                errors.push(format!("rejuvenation threshold {t} outside [0, 1]"));
            }
        }
        // Admission knobs must be coherent even when the controller is off:
        // experiments flip `admission_enabled` without re-deriving the rest.
        if self.admission_capacity == 0 {
            errors.push("admission_capacity must be at least 1".to_string());
        }
        if self.admission_window_s <= 0.0 || self.admission_retry_s <= 0.0 {
            errors.push(format!(
                "admission_window_s ({}) and admission_retry_s ({}) must be positive",
                self.admission_window_s, self.admission_retry_s
            ));
        }
        if self.defer_max_age_s < self.admission_retry_s {
            errors.push(format!(
                "defer_max_age_s ({}) must be at least admission_retry_s ({}) or the aging \
                 promise cannot be honoured at the retry cadence",
                self.defer_max_age_s, self.admission_retry_s
            ));
        }
        for comp in &self.critical_components {
            if !has_timing(comp) {
                errors.push(format!("critical component {comp:?} has no timing entry"));
            }
        }
        // The state size must be coherent whenever any component rehydrates.
        if !self.recovery_modes.is_empty()
            && (self.session_state_kb.is_nan() || self.session_state_kb <= 0.0)
        {
            errors.push(format!(
                "session_state_kb ({}) must be positive",
                self.session_state_kb
            ));
        }
        for (comp, mode) in &self.recovery_modes {
            if !has_timing(comp) {
                errors.push(format!(
                    "recovery mode for {comp:?} names a component with no timing entry"
                ));
            }
            if let RecoveryMode::Rehydrate {
                checkpoint_interval_s,
            } = mode
            {
                // Written as a negated conjunction so a NaN interval (for
                // which every comparison is false) lands in the error branch.
                if !(checkpoint_interval_s.is_finite() && *checkpoint_interval_s > 0.0) {
                    errors.push(format!(
                        "checkpoint_interval_s for {comp:?} ({checkpoint_interval_s}) must be \
                         finite and positive"
                    ));
                }
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// The ping period as a duration.
    pub fn ping_period(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.fd.ping_period_s)
    }

    /// The analytic cost model matching this configuration (used by
    /// `rr_core::analysis` and the optimizer; cross-validated against the
    /// simulation by the test suite).
    pub fn cost_model(&self) -> SimpleCostModel {
        // Analytic detection includes the exec delay REC pays per restart.
        let mut m = SimpleCostModel::new(
            self.fd.mean_detection_s() + calib::EXEC_DELAY_S,
            2.0, // mean re-detection of a persisting failure after a wrong cure
        )
        .with_contention(calib::CONTENTION_QUADRATIC)
        .with_sync_pair(
            names::SES,
            names::STR,
            calib::STR_RESYNC_SERVICE_S - calib::FRESH_SYNC_S,
        )
        .with_sync_pair(
            names::STR,
            names::SES,
            calib::SES_RESYNC_SERVICE_S - calib::FRESH_SYNC_S,
        )
        .with_rapid_restart_penalty(names::PBCOM, calib::PBCOM_RAPID_RESTART_PENALTY_S)
        .with_rapid_restart_penalty(names::FEDRCOM, calib::PBCOM_RAPID_RESTART_PENALTY_S);
        for (name, t) in calib::TIMING {
            let extra = match *name {
                // fedr and the unsplit fedrcom must bring up their serial
                // connection; ses/str complete a fresh handshake.
                names::FEDR => calib::CONNECT_ACK_S,
                names::SES | names::STR => calib::FRESH_SYNC_S,
                _ => 0.0,
            };
            m = m.with_boot(*name, t.boot_mean_s + extra);
        }
        m
    }

    /// The paper's failure model: Table 1 MTTFs plus the correlated modes of
    /// §4.2/§4.3 for the split station.
    pub fn paper_failure_model(&self) -> FailureModel {
        FailureModel::new()
            // Table 1: mbus ≈ 1 month, fedrcom ≈ 10 min, ses/str/rtu ≈ 5 h.
            // Post-split, fedr inherits fedrcom's instability while pbcom is
            // "simple and very stable" (§4.2).
            .with_mode(mode(FailureMode::solo(
                "mbus-crash",
                names::MBUS,
                1.0 / 730.0,
            )))
            .with_mode(mode(FailureMode::solo("fedr-crash", names::FEDR, 6.0)))
            .with_mode(mode(FailureMode::solo(
                "pbcom-crash",
                names::PBCOM,
                1.0 / 168.0,
            )))
            .with_mode(mode(FailureMode::correlated(
                "pbcom-joint",
                names::PBCOM,
                [names::FEDR, names::PBCOM],
                0.05,
            )))
            .with_mode(mode(FailureMode::correlated(
                "ses-crash",
                names::SES,
                [names::SES],
                0.2,
            )))
            .with_mode(mode(FailureMode::correlated(
                "str-crash",
                names::STR,
                [names::STR],
                0.2,
            )))
            .with_mode(mode(FailureMode::solo("rtu-crash", names::RTU, 0.2)))
    }

    /// The failure-correlation view used by the transformation advisor
    /// (Table 3's `f` values as the paper states them): ses/str failures are
    /// "substantially always" cured only by a joint restart
    /// (`f_ses ≈ f_str ≈ 0, f_{ses,str} ≈ 1`, §4.3). The analytic-MTTR model
    /// ([`paper_failure_model`](Self::paper_failure_model)) instead encodes
    /// the cascade as a solo cure plus the resync cost penalty, which is the
    /// correct accounting for recovery *time*; this model is the correct
    /// accounting for recovery *structure*.
    pub fn advisory_failure_model(&self) -> FailureModel {
        FailureModel::new()
            .with_mode(mode(FailureMode::solo(
                "mbus-crash",
                names::MBUS,
                1.0 / 730.0,
            )))
            .with_mode(mode(FailureMode::solo("fedr-crash", names::FEDR, 6.0)))
            .with_mode(mode(FailureMode::solo("pbcom-crash", names::PBCOM, 0.05)))
            .with_mode(mode(FailureMode::correlated(
                "pbcom-joint",
                names::PBCOM,
                [names::FEDR, names::PBCOM],
                0.4,
            )))
            .with_mode(mode(FailureMode::correlated(
                "ses-crash",
                names::SES,
                [names::SES, names::STR],
                0.2,
            )))
            .with_mode(mode(FailureMode::correlated(
                "str-crash",
                names::STR,
                [names::SES, names::STR],
                0.2,
            )))
            .with_mode(mode(FailureMode::solo("rtu-crash", names::RTU, 0.2)))
    }

    /// The Table 1 failure model for the *unsplit* station (trees I/II).
    pub fn unsplit_failure_model(&self) -> FailureModel {
        FailureModel::new()
            .with_mode(mode(FailureMode::solo(
                "mbus-crash",
                names::MBUS,
                1.0 / 730.0,
            )))
            .with_mode(mode(FailureMode::solo(
                "fedrcom-crash",
                names::FEDRCOM,
                6.0,
            )))
            .with_mode(mode(FailureMode::solo("ses-crash", names::SES, 0.2)))
            .with_mode(mode(FailureMode::solo("str-crash", names::STR, 0.2)))
            .with_mode(mode(FailureMode::solo("rtu-crash", names::RTU, 0.2)))
    }
}

impl Default for StationConfig {
    fn default() -> Self {
        StationConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_core::analysis::CostModel as _;

    #[test]
    fn paper_calibration_predicts_table2_tree_ii() {
        // detection + exec + boot must land on Table 2's tree-II row.
        let overhead = StationConfig::paper().fd.mean_detection_s() + calib::EXEC_DELAY_S;
        let cases = [
            (names::MBUS, 5.73),
            (names::SES, 9.50), // includes slow resync with the old peer
            (names::STR, 9.76),
            (names::RTU, 5.59),
            (names::FEDRCOM, 20.93),
        ];
        for (comp, want) in cases {
            let boot = calib::timing_for(comp).boot_mean_s;
            let predicted = overhead + boot + calib::peer_resync_service_s(comp);
            assert!(
                (predicted - want).abs() < 0.05,
                "{comp}: predicted {predicted:.2}, Table 2 says {want}"
            );
        }
    }

    #[test]
    fn paper_calibration_predicts_tree_i_contention() {
        let k = names::UNSPLIT.len();
        let slowest = calib::timing_for(names::FEDRCOM).boot_mean_s;
        let factor = 1.0 + calib::CONTENTION_QUADRATIC * ((k - 1) as f64).powi(2);
        let detection = StationConfig::paper().fd.mean_detection_s();
        let predicted = detection + calib::EXEC_DELAY_S + slowest * factor;
        assert!(
            (predicted - 24.75).abs() < 0.1,
            "tree I prediction {predicted:.2} vs 24.75"
        );
    }

    /// The relations `validate()` used to re-check on every station while
    /// these were fields. They relate constants only, so they are checked
    /// once, here.
    #[test]
    fn calibration_constants_are_coherent() {
        for comp in names::UNSPLIT
            .iter()
            .chain(&names::SPLIT)
            .chain([&names::FD, &names::REC])
        {
            let t = calib::timing_for(comp);
            assert!(t.boot_mean_s.is_finite() && t.boot_mean_s >= 0.0, "{comp}");
            assert!(t.boot_std_s.is_finite() && t.boot_std_s >= 0.0, "{comp}");
        }
        // The restart deadline must outlast the slowest possible boot
        // (full-station contention + hardware back-off), or healthy reboots
        // get treated as new failures.
        let slowest_boot = calib::TIMING
            .iter()
            .map(|(_, t)| t.boot_mean_s + 4.0 * t.boot_std_s)
            .fold(0.0f64, f64::max);
        let worst_k = names::SPLIT.len() + 2; // components + FD + REC cold start
        let contention = 1.0 + calib::CONTENTION_QUADRATIC * ((worst_k - 1) as f64).powi(2);
        let worst_boot =
            slowest_boot * contention + calib::PBCOM_RAPID_RESTART_PENALTY_S + calib::EXEC_DELAY_S;
        assert!(calib::RESTART_DEADLINE_S > worst_boot, "{worst_boot:.1}");
        // A joint ses/str restart must finish while both sides still count
        // as fresh, or consolidation loses its benefit.
        let joint_boot = calib::timing_for(names::SES)
            .boot_mean_s
            .max(calib::timing_for(names::STR).boot_mean_s);
        assert!(calib::FRESH_THRESHOLD_S > joint_boot + calib::FRESH_SYNC_S + 2.0);
        // One deferral-queue entry per component, so the bound never binds.
        assert!(calib::DEFER_QUEUE_LIMIT >= names::SPLIT.len());
        for positive in [
            calib::MIN_PASS_WINDOW_S,
            calib::STORE_THROUGHPUT_KBPS,
            calib::STORE_UPDATE_KB,
            calib::STORE_UPDATE_PERIOD_S,
        ] {
            assert!(positive > 0.0 && positive.is_finite());
        }
    }

    /// DESIGN.md §5 is the prose home of the calibration; this renders its
    /// table from the constants so the two cannot drift apart again.
    #[test]
    fn design_md_states_the_calibration() {
        macro_rules! row {
            ($name:ident, $anchor:literal) => {
                (
                    stringify!($name).to_string(),
                    calib::$name.to_string(),
                    $anchor,
                )
            };
        }
        let mut rows = vec![
            row!(EXEC_DELAY_S, "process spawn; with the 0.9 s mean detection, the 1.0 s every Table 2 row carries on top of boot"),
            row!(CONTENTION_QUADRATIC, "Table 2 tree I: 24.75 = 1.0 + 19.93·(1 + q·4²); k booting components each slow by 1 + q·(k−1)²"),
        ];
        for (name, t) in calib::TIMING {
            let anchor = match *name {
                names::MBUS => "Table 2 tree II: 5.73 − 1.0",
                names::FEDRCOM => "Table 2 tree II: 20.93 − 1.0",
                names::FEDR => "§4.2: 5.76 − 1.0",
                names::PBCOM => "§4.2: 21.24 − 1.0",
                names::SES => "Table 2 tree II: 9.50 − 1.0 − 3.35 (str's resync service)",
                names::STR => "Table 2 tree II: 9.76 − 1.0 − 3.75 (ses's resync service)",
                names::RTU => "Table 2 tree II: 5.59 − 1.0",
                _ => "not measured by the paper; a small Java process",
            };
            let value = format!("{} ± {}", t.boot_mean_s, t.boot_std_s);
            rows.push((format!("TIMING[{name}]"), value, anchor));
        }
        rows.extend([
            row!(STR_RESYNC_SERVICE_S, "§4.3: an old str services a restarted ses's resync; Table 2 ses 9.50"),
            row!(SES_RESYNC_SERVICE_S, "§4.3: an old ses services a restarted str's resync; Table 2 str 9.76"),
            row!(FRESH_SYNC_S, "§4.3: handshake of two fresh peers; tree IV 6.25 / 6.11"),
            row!(FRESH_THRESHOLD_S, "uptime below which a peer is fresh; exceeds a joint ses/str boot"),
            row!(INDUCED_FAILURE_DELAY_S, "§4.3: the old peer fails this long after servicing a resync"),
            row!(CONNECT_ACK_S, "fedr → pbcom TCP connect + accept"),
            row!(PBCOM_RAPID_RESTART_PENALTY_S, "§4.4: tree IV faulty-oracle pbcom 29.19"),
            row!(RAPID_RESTART_WINDOW_S, "two serial-link bounces this close pay the penalty"),
            row!(PBCOM_AGING_LIMIT, "§4.2: fedr connection losses that age pbcom to failure"),
            row!(POISON_CRASH_DELAY_S, "§4.4: a poisoned fedr connects, pbcom crashes this much later"),
            row!(BUS_LATENCY_S, "one envelope hop over mbus"),
            row!(DIRECT_LATENCY_S, "one hop on the FD↔REC and fedr↔pbcom connections"),
            row!(WATCHDOG_GRACE_S, "FD/REC mutual watchdog pause after restarting the peer; exceeds its boot + one ping round"),
            row!(FD_GRACE_S, "FD's first sweep waits out the station's cold start"),
            row!(RESTART_DEADLINE_S, "REC stops waiting for a restart; exceeds the worst contended boot"),
            row!(KEEPALIVE_PERIOD_S, "fedr → pbcom keepalive"),
            row!(LOCK_WINDOW_S, "tune/point commands this recent hold carrier lock"),
            row!(SYNC_RETRY_S, "ses/str sync-request retry"),
            row!(CONNECT_RETRY_S, "fedr connect retry"),
            row!(TELEMETRY_PERIOD_S, "one telemetry frame per second of locked pass"),
            row!(DEFER_QUEUE_LIMIT, "advisory deferral-queue bound; one entry per component never reaches it"),
            row!(MIN_PASS_WINDOW_S, "shortest pass served; lint RRL801 fits a worst-case recovery inside it"),
            row!(STORE_THROUGHPUT_KBPS, "store medium, KiB/s; checkpoint stall and replay time"),
            row!(STORE_UPDATE_KB, "one journal update record, KiB"),
            row!(STORE_UPDATE_PERIOD_S, "a journaling component appends an update this often"),
        ]);
        let mut table = String::from("| Constant | Value | Anchor |\n|---|---|---|\n");
        for (name, value, anchor) in rows {
            table.push_str(&format!("| `{name}` | {value} | {anchor} |\n"));
        }
        let design = include_str!("../../../DESIGN.md");
        assert!(
            design.contains(&table),
            "DESIGN.md §5 must contain this table verbatim:\n{table}"
        );
    }

    /// Each duration constant is its `_S` value converted exactly as a
    /// caller would, so the `_S` value in the table above stays the one
    /// source of each.
    #[test]
    fn calib_durations_are_their_seconds() {
        for (name, duration, secs) in [
            ("BUS_LATENCY", calib::BUS_LATENCY, calib::BUS_LATENCY_S),
            (
                "DIRECT_LATENCY",
                calib::DIRECT_LATENCY,
                calib::DIRECT_LATENCY_S,
            ),
            ("EXEC_DELAY", calib::EXEC_DELAY, calib::EXEC_DELAY_S),
        ] {
            assert_eq!(
                duration.as_nanos(),
                SimDuration::from_secs_f64(secs).as_nanos(),
                "calib::{name}"
            );
        }
    }

    #[test]
    fn cost_model_matches_table4_key_cells() {
        let cfg = StationConfig::paper();
        let m = cfg.cost_model();
        // pbcom alone (tree III/IV perfect row): 21.24.
        let pbcom = m.detection_s() + m.restart_s(&[names::PBCOM.to_string()]);
        assert!((pbcom - 21.24).abs() < 0.1, "pbcom {pbcom:.2}");
        // ses+str joint (tree IV): ~6.25.
        let joint =
            m.detection_s() + m.restart_s(&[names::SES.to_string(), names::STR.to_string()]);
        assert!((joint - 6.25).abs() < 0.15, "ses/str joint {joint:.2}");
    }

    #[test]
    fn failure_models_validate_against_component_sets() {
        let cfg = StationConfig::paper();
        let split_tree = rr_core::TreeSpec::cell("m")
            .with_components(names::SPLIT)
            .build()
            .unwrap();
        assert!(cfg
            .paper_failure_model()
            .validate_against(&split_tree)
            .is_ok());
        let unsplit_tree = rr_core::TreeSpec::cell("m")
            .with_components(names::UNSPLIT)
            .build()
            .unwrap();
        assert!(cfg
            .unsplit_failure_model()
            .validate_against(&unsplit_tree)
            .is_ok());
    }

    #[test]
    fn table1_mttfs_are_encoded() {
        let cfg = StationConfig::paper();
        let m = cfg.unsplit_failure_model();
        // fedrcom: 10 minutes.
        let fedrcom = m.component_mttf_s(names::FEDRCOM).unwrap();
        assert!((fedrcom - 600.0).abs() < 1.0);
        // mbus: ~1 month.
        let mbus = m.component_mttf_s(names::MBUS).unwrap();
        assert!((mbus - 730.0 * 3600.0).abs() < 3600.0);
        // ses/str/rtu: 5 hours.
        for c in [names::SES, names::STR, names::RTU] {
            let v = m.component_mttf_s(c).unwrap();
            assert!((v - 5.0 * 3600.0).abs() < 1.0, "{c}: {v}");
        }
    }

    #[test]
    #[should_panic(expected = "no timing configured")]
    fn unknown_component_timing_panics() {
        calib::timing_for("warp-core");
    }

    #[test]
    fn paper_config_validates() {
        StationConfig::paper()
            .validate()
            .expect("paper calibration is coherent");
    }

    /// One change to the paper calibration.
    type Knob = fn(&mut StationConfig);

    /// Applies `knob` to the paper calibration and returns the deny codes
    /// `Station::new` refuses it with. Panics unless validation passes and
    /// rr-lint denies.
    fn lint_denials(knob: Knob) -> Vec<&'static str> {
        use crate::station::{Station, StationError, TreeVariant};
        let mut cfg = StationConfig::paper();
        knob(&mut cfg);
        let oracle = Box::new(rr_core::PerfectOracle::new());
        match Station::new(cfg, TreeVariant::II, oracle, 1) {
            Err(StationError::Lint(diagnostics)) => diagnostics.iter().map(|d| d.code()).collect(),
            other => panic!("want StationError::Lint, got {other:?}"),
        }
    }

    #[test]
    fn validate_catches_incoherent_timeouts() {
        let mut cfg = StationConfig::paper();
        cfg.cure_confirm_s = 0.1; // cure declared before poison can re-crash
        let errors = cfg.validate().unwrap_err();
        assert!(errors.iter().any(|e| e.contains("cure_confirm_s")));
        // A ping round longer than the watchdog grace leaves FD and REC
        // re-killing each other mid-boot.
        let mut cfg = StationConfig::paper();
        cfg.fd.ping_period_s = 7.0;
        let errors = cfg.validate().unwrap_err();
        assert!(errors.iter().any(|e| e.contains("watchdog_grace_s")));
        // A pong timeout that does not fit the ping period is rr-lint's rule.
        let cases: [Knob; 2] = [
            |c| c.fd.ping_timeout_s = 1.0, // as long as the 1 s period
            |c| c.fd.ping_timeout_s = f64::NAN,
        ];
        for knob in cases {
            assert!(lint_denials(knob).contains(&"RRL601"));
        }
    }

    #[test]
    fn validate_catches_bad_rejuvenation_threshold() {
        for bad in [1.5, f64::NAN] {
            let mut cfg = StationConfig::paper();
            cfg.rejuvenation_aging_threshold = Some(bad);
            let errors = cfg.validate().unwrap_err();
            assert!(
                errors.iter().any(|e| e.contains("rejuvenation")),
                "{errors:?}"
            );
        }
    }

    #[test]
    fn hardened_config_validates_and_slows_detection() {
        let cfg = StationConfig::hardened();
        cfg.validate().expect("hardened calibration is coherent");
        let paper = StationConfig::paper();
        // Eight-round suspicion adds 7 whole ping periods of mean latency.
        let extra = (cfg.fd.suspicion_threshold - 1) as f64 * cfg.fd.ping_period_s;
        assert!((cfg.fd.mean_detection_s() - paper.fd.mean_detection_s() - extra).abs() < 1e-9);
        // The paper preset is untouched: threshold 1 keeps Table 2 intact.
        assert_eq!(paper.fd.suspicion_threshold, 1);
        assert!((paper.fd.mean_detection_s() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn presets_differ_from_their_base_only_where_documented() {
        let paper = StationConfig::paper();
        let hardened = StationConfig::hardened();
        assert_eq!(
            StationConfig {
                fd: paper.fd,
                policy: paper.policy,
                cure_confirm_s: paper.cure_confirm_s,
                telemetry_enabled: paper.telemetry_enabled,
                ..hardened.clone()
            },
            paper
        );
        assert_eq!(
            StationConfig {
                admission_enabled: false,
                critical_components: Vec::new(),
                ..StationConfig::admission()
            },
            hardened
        );
        assert_eq!(
            StationConfig {
                recovery_modes: BTreeMap::new(),
                telemetry_enabled: false,
                ..StationConfig::checkpointed()
            },
            paper
        );
    }

    #[test]
    fn validate_catches_bad_suspicion_and_backoff() {
        let mut cfg = StationConfig::paper();
        cfg.fd.beacon_timeout_s = 5.0; // not above 2 beacon periods
        let errors = cfg.validate().unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("beacon_timeout_s")),
            "{errors:?}"
        );
        // K-of-N suspicion, backoff and the restart budget are rr-lint's
        // rules. The cases keep mean detection short enough for validate's
        // own cure-confirmation rule. Each float knob also has a non-finite
        // case; K and N are integers, so theirs is K = 0.
        let cases: [(Knob, &str); 9] = [
            (|c| c.fd.suspicion_window = 0, "RRL602"),
            (|c| c.fd.suspicion_threshold = 0, "RRL602"),
            (
                |c| (c.policy.backoff_base_s, c.policy.backoff_cap_s) = (10.0, 1.0),
                "RRL102",
            ),
            (|c| c.policy.backoff_cap_s = f64::INFINITY, "RRL102"),
            (|c| c.policy.backoff_base_s = f64::NAN, "RRL102"),
            (|c| c.policy.max_restarts_per_window = 0, "RRL103"),
            (|c| c.policy.restart_window_s = -1.0, "RRL103"),
            (|c| c.policy.restart_window_s = f64::INFINITY, "RRL103"),
            (|c| c.policy.escalation_limit = 0, "RRL101"),
        ];
        for (knob, code) in cases {
            let codes = lint_denials(knob);
            assert!(codes.contains(&code), "want {code}, got {codes:?}");
        }
    }

    #[test]
    fn validate_rejects_nan_and_inf_knobs() {
        // The original hole: `NaN <= 0.0` is false, so a NaN window sailed
        // through the positivity check and poisoned the sliding-window
        // arithmetic at runtime.
        let mut cfg = StationConfig::paper();
        cfg.admission_window_s = f64::NAN;
        let errors = cfg.validate().unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("admission_window_s") && e.contains("finite")),
            "{errors:?}"
        );

        let mut cfg = StationConfig::paper();
        cfg.cure_confirm_s = f64::NEG_INFINITY;
        cfg.admission_retry_s = f64::NAN;
        let errors = cfg.validate().unwrap_err();
        for needle in ["cure_confirm_s", "admission_retry_s"] {
            assert!(
                errors
                    .iter()
                    .any(|e| e.contains(needle) && e.contains("finite")),
                "{needle}: {errors:?}"
            );
        }
    }

    #[test]
    fn checkpointed_preset_validates_and_rehydrates_the_stateful_pair() {
        let cfg = StationConfig::checkpointed();
        cfg.validate().expect("checkpointed preset is coherent");
        for comp in [names::SES, names::STR] {
            assert!(cfg.recovery_modes[comp].is_rehydrate(), "{comp}");
        }
        assert!(!cfg
            .recovery_modes
            .get(names::RTU)
            .copied()
            .unwrap_or_default()
            .is_rehydrate());
    }

    #[test]
    fn validate_catches_bad_checkpoint_and_store_knobs() {
        let mut cfg = StationConfig::checkpointed();
        cfg.recovery_modes.insert(
            names::SES.into(),
            RecoveryMode::Rehydrate {
                checkpoint_interval_s: f64::NAN,
            },
        );
        cfg.recovery_modes.insert(
            "warp-core".into(),
            RecoveryMode::Rehydrate {
                checkpoint_interval_s: 0.0,
            },
        );
        cfg.session_state_kb = 0.0;
        let errors = cfg.validate().unwrap_err();
        for needle in [
            "checkpoint_interval_s for \"ses\"",
            "checkpoint_interval_s for \"warp-core\"",
            "no timing entry",
            "session_state_kb",
        ] {
            assert!(
                errors.iter().any(|e| e.contains(needle)),
                "{needle}: {errors:?}"
            );
        }
    }

    #[test]
    fn config_is_cloneable_and_comparable() {
        let cfg = StationConfig::paper();
        let clone = cfg.clone();
        assert_eq!(cfg, clone);
        assert_eq!(StationConfig::default(), cfg);
    }

    #[test]
    fn admission_preset_validates_and_lints_clean() {
        let cfg = StationConfig::admission();
        assert!(cfg.admission_enabled);
        assert!(cfg.validate().is_ok());
        // The preset must survive the deny-warnings audit on every tree.
        for variant in crate::station::TreeVariant::ALL {
            let report = cfg.lint(&variant.tree().unwrap());
            assert!(report.is_clean(), "{variant:?}: {report}");
        }
    }

    #[test]
    fn checkpointed_preset_lints_clean_and_bad_knobs_fire_rrl9xx() {
        let cfg = StationConfig::checkpointed();
        for variant in crate::station::TreeVariant::ALL {
            let report = cfg.lint(&variant.tree().unwrap());
            assert!(report.is_clean(), "{variant:?}: {report}");
        }
        // A checkpoint write that overruns its interval is denied before
        // anything runs.
        let mut bad = StationConfig::checkpointed();
        bad.session_state_kb = 16.0 * 1024.0;
        bad.recovery_modes.insert(
            names::SES.into(),
            RecoveryMode::Rehydrate {
                checkpoint_interval_s: 5.0,
            },
        );
        let report = bad.lint(&crate::station::TreeVariant::III.tree().unwrap());
        assert!(report.fired("RRL901"), "{report}");
        assert!(report.has_deny());
        // Journaling a stateless component warns that replay buys nothing.
        let mut futile = StationConfig::checkpointed();
        futile.recovery_modes.insert(
            names::RTU.into(),
            RecoveryMode::Rehydrate {
                checkpoint_interval_s: 60.0,
            },
        );
        let report = futile.lint(&crate::station::TreeVariant::III.tree().unwrap());
        assert!(report.fired("RRL902"), "{report}");
        assert!(!report.has_deny());
    }

    #[test]
    fn validate_catches_incoherent_admission_knobs() {
        let mut cfg = StationConfig::paper();
        cfg.admission_capacity = 0;
        cfg.admission_window_s = 0.0;
        cfg.defer_max_age_s = 1.0; // < admission_retry_s
        cfg.critical_components = vec!["nosuch".into()];
        let errors = cfg.validate().unwrap_err();
        for needle in [
            "admission_capacity",
            "admission_window_s",
            "defer_max_age_s",
            "critical component",
        ] {
            assert!(
                errors.iter().any(|e| e.contains(needle)),
                "{needle}: {errors:?}"
            );
        }
    }
}
