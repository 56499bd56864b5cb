//! Station assembly: components + FD + REC over a restart tree.
//!
//! [`Station`] wires the full Mercury ground station into an
//! [`rr_sim::Sim`]: the five (or six, post-split) components of Figure 1, the
//! failure detector and the recovery module, operating one of the paper's
//! restart trees I–V (or any custom tree). It also exposes the fault-
//! injection entry points the experiments use.
//!
//! A ground station must not abort on bad input, so every fallible entry
//! point — construction over an inconsistent configuration or tree, and
//! fault injection against an unknown component — returns a
//! [`StationError`] instead of panicking.

use std::fmt;
use std::str::FromStr;

use rr_core::oracle::Oracle;
use rr_core::policy::RestartPolicy;
use rr_core::recoverer::Recoverer;
use rr_core::transform::{consolidate, depth_augment, promote_component, split_component};
use rr_core::tree::RestartTree;
use rr_core::TreeError;
use rr_sim::telemetry::Registry;
use rr_sim::{
    intern, CompId, EpisodeStage, FaultKind, FaultScript, LinkQuality, Mark, ProcessId,
    ProcessState, Sim, SimDuration, SimTime, Trace,
};

use crate::components::common::{Shared, Wire};
use crate::components::estimator::Ses;
use crate::components::mbus::Mbus;
use crate::components::radio::{Fedr, Fedrcom, Pbcom};
use crate::components::tracker::Str;
use crate::components::tuner::Rtu;
use crate::config::{calib, names, StationConfig};
use crate::fd::Fd;
use crate::rec::{Rec, RecControl, RecHandle};

/// Why a station could not be built or an injection could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StationError {
    /// The configuration failed [`StationConfig::validate`]; the list holds
    /// every violated constraint.
    InvalidConfig(Vec<String>),
    /// The restart tree's attached components disagree with the component
    /// set the station was asked to run.
    TreeMismatch {
        /// Components attached to the tree, sorted.
        tree: Vec<String>,
        /// Components requested, sorted.
        requested: Vec<String>,
    },
    /// A component name that is not part of this station.
    UnknownComponent(String),
    /// The operation requires the split fedr/pbcom station.
    RequiresSplit,
    /// Building the restart tree failed.
    Tree(TreeError),
    /// Static verification ([`StationConfig::lint`]) found deny-severity
    /// diagnostics; the list holds the full report (warnings included).
    Lint(Vec<rr_lint::Diagnostic>),
}

impl fmt::Display for StationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StationError::InvalidConfig(errors) => {
                write!(f, "invalid station configuration: {}", errors.join("; "))
            }
            StationError::TreeMismatch { tree, requested } => write!(
                f,
                "restart tree components {tree:?} disagree with requested {requested:?}"
            ),
            StationError::UnknownComponent(name) => {
                write!(f, "unknown Mercury component {name:?}")
            }
            StationError::RequiresSplit => {
                write!(f, "operation requires the split fedr/pbcom station")
            }
            StationError::Tree(e) => write!(f, "restart tree construction failed: {e}"),
            StationError::Lint(diags) => {
                let denies: Vec<String> = diags
                    .iter()
                    .filter(|d| d.severity() == rr_lint::Severity::Deny)
                    .map(|d| format!("{}: {}", d.code(), d.message))
                    .collect();
                write!(
                    f,
                    "configuration rejected by rr-lint: {}",
                    denies.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for StationError {}

impl From<TreeError> for StationError {
    fn from(e: TreeError) -> StationError {
        StationError::Tree(e)
    }
}

/// The paper's five restart trees (§4, Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeVariant {
    /// Tree I: one restart group — any failure reboots everything.
    I,
    /// Tree II: simple depth augmentation — per-component restarts.
    II,
    /// Tree III: fedrcom split into fedr + pbcom with a joint subtree.
    III,
    /// Tree IV: ses and str consolidated into one cell.
    IV,
    /// Tree V: pbcom promoted onto the joint \[fedr,pbcom\] cell.
    V,
}

impl TreeVariant {
    /// All five variants in paper order.
    pub const ALL: [TreeVariant; 5] = [
        TreeVariant::I,
        TreeVariant::II,
        TreeVariant::III,
        TreeVariant::IV,
        TreeVariant::V,
    ];

    /// `true` if this variant uses the split fedr/pbcom pair.
    pub fn is_split(self) -> bool {
        !matches!(self, TreeVariant::I | TreeVariant::II)
    }

    /// The component set this variant runs.
    pub fn components(self) -> Vec<String> {
        let set: &[&str] = if self.is_split() {
            &names::SPLIT
        } else {
            &names::UNSPLIT
        };
        set.iter().map(|s| s.to_string()).collect()
    }

    /// Builds the variant's restart tree by applying the paper's
    /// transformations in sequence (Figures 3–6).
    ///
    /// # Errors
    ///
    /// Propagates any [`TreeError`] from the transformation sequence. The
    /// five paper variants are static, so in practice this only fails if a
    /// transformation's preconditions change underneath them (covered by
    /// the `all_variants_build` test).
    pub fn tree(self) -> Result<RestartTree, TreeError> {
        // Tree I: one cell holding the whole station.
        let mut tree = RestartTree::new("mercury");
        let root = tree.root();
        for comp in names::UNSPLIT {
            tree.attach_component(root, comp)?;
        }
        if self == TreeVariant::I {
            return Ok(tree);
        }

        // Tree II: simple depth augmentation (§4.1).
        let singletons: Vec<Vec<String>> =
            names::UNSPLIT.iter().map(|c| vec![c.to_string()]).collect();
        depth_augment(&mut tree, root, &singletons)?;
        if self == TreeVariant::II {
            return Ok(tree);
        }

        // Tree II′ → III: split fedrcom, augment the tight subtree (§4.2).
        let cell = split_component(&mut tree, names::FEDRCOM, &[names::FEDR, names::PBCOM])?;
        tree.set_label(cell, "R_[fedr,pbcom]")?;
        let parts: Vec<Vec<String>> = vec![
            vec![names::FEDR.to_string()],
            vec![names::PBCOM.to_string()],
        ];
        depth_augment(&mut tree, cell, &parts)?;
        if self == TreeVariant::III {
            return Ok(tree);
        }

        // Tree IV: consolidate ses and str (§4.3).
        let ses = tree
            .cell_of_component(names::SES)
            .ok_or_else(|| TreeError::UnknownComponent(names::SES.into()))?;
        let strr = tree
            .cell_of_component(names::STR)
            .ok_or_else(|| TreeError::UnknownComponent(names::STR.into()))?;
        consolidate(&mut tree, &[ses, strr])?;
        if self == TreeVariant::IV {
            return Ok(tree);
        }

        // Tree V: promote pbcom (§4.4).
        promote_component(&mut tree, names::PBCOM)?;
        Ok(tree)
    }
}

impl fmt::Display for TreeVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TreeVariant::I => "I",
            TreeVariant::II => "II",
            TreeVariant::III => "III",
            TreeVariant::IV => "IV",
            TreeVariant::V => "V",
        };
        f.write_str(s)
    }
}

/// Parses a tree name as scenario files and the CLIs write it: the roman
/// numeral [`Display`](fmt::Display) prints (`I`–`V`) or the digit `1`–`5`.
impl FromStr for TreeVariant {
    type Err = String;

    fn from_str(name: &str) -> Result<TreeVariant, String> {
        match name {
            "I" | "1" => Ok(TreeVariant::I),
            "II" | "2" => Ok(TreeVariant::II),
            "III" | "3" => Ok(TreeVariant::III),
            "IV" | "4" => Ok(TreeVariant::IV),
            "V" | "5" => Ok(TreeVariant::V),
            other => Err(format!("unknown tree {other:?} (expected I-V or 1-5)")),
        }
    }
}

/// A fully wired ground station simulation.
pub struct Station {
    sim: Sim<Wire>,
    shared: Shared,
    control: RecHandle,
    components: Vec<String>,
}

impl fmt::Debug for Station {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Station")
            .field("now", &self.sim.now())
            .field("components", &self.components)
            .finish()
    }
}

impl Station {
    /// Builds a station operating one of the paper's tree variants.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::InvalidConfig`] if the configuration is
    /// internally inconsistent (see [`StationConfig::validate`]), or
    /// [`StationError::Lint`] if rr-lint denies it.
    pub fn new(
        config: StationConfig,
        variant: TreeVariant,
        oracle: Box<dyn Oracle>,
        seed: u64,
    ) -> Result<Station, StationError> {
        Station::with_tree(config, variant.tree()?, variant.components(), oracle, seed)
    }

    /// Builds a station over a custom restart tree. `components` must match
    /// the tree's attached component names and name only known Mercury
    /// components.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::InvalidConfig`] for an inconsistent
    /// configuration, [`StationError::TreeMismatch`] if `components`
    /// disagrees with the tree, [`StationError::Lint`] if static
    /// verification ([`StationConfig::lint`]) produces a deny diagnostic,
    /// or [`StationError::UnknownComponent`] for a name no Mercury factory
    /// exists for.
    pub fn with_tree(
        config: StationConfig,
        tree: RestartTree,
        components: Vec<String>,
        oracle: Box<dyn Oracle>,
        seed: u64,
    ) -> Result<Station, StationError> {
        if let Err(errors) = config.validate() {
            return Err(StationError::InvalidConfig(errors));
        }
        let mut sorted = components.clone();
        sorted.sort();
        if tree.components() != sorted {
            return Err(StationError::TreeMismatch {
                tree: tree.components(),
                requested: sorted,
            });
        }
        let report = config.lint(&tree);
        if report.has_deny() {
            return Err(StationError::Lint(report.into_diagnostics()));
        }

        let mut sim: Sim<Wire> = Sim::new(seed);
        if config.telemetry_enabled {
            *sim.telemetry_mut() = Registry::new();
        }
        let shared = Shared::new(config);

        for comp in &components {
            let shared_for = shared.clone();
            match comp.as_str() {
                n if n == names::MBUS => {
                    sim.spawn(names::MBUS, move || Box::new(Mbus::new(shared_for.clone())));
                }
                n if n == names::FEDRCOM => {
                    sim.spawn(names::FEDRCOM, move || {
                        Box::new(Fedrcom::new(shared_for.clone()))
                    });
                }
                n if n == names::FEDR => {
                    sim.spawn(names::FEDR, move || Box::new(Fedr::new(shared_for.clone())));
                }
                n if n == names::PBCOM => {
                    sim.spawn(names::PBCOM, move || {
                        Box::new(Pbcom::new(shared_for.clone()))
                    });
                }
                n if n == names::SES => {
                    sim.spawn(names::SES, move || Box::new(Ses::new(shared_for.clone())));
                }
                n if n == names::STR => {
                    sim.spawn(names::STR, move || Box::new(Str::new(shared_for.clone())));
                }
                n if n == names::RTU => {
                    sim.spawn(names::RTU, move || Box::new(Rtu::new(shared_for.clone())));
                }
                other => return Err(StationError::UnknownComponent(other.to_string())),
            }
        }

        let policy = {
            let p = &shared.config.policy;
            RestartPolicy::new()
                .with_escalation_limit(p.escalation_limit)
                .with_rate_limit(
                    p.max_restarts_per_window,
                    SimDuration::from_secs_f64(p.restart_window_s),
                )
                .with_backoff(
                    SimDuration::from_secs_f64(p.backoff_base_s),
                    SimDuration::from_secs_f64(p.backoff_cap_s),
                )
        };
        let recoverer = Recoverer::new(tree, oracle, policy);
        let control = RecControl::new(recoverer);

        // Zombie processes answer liveness probes (ping/pong) and drop
        // everything else — the fault model behind `FaultKind::Zombie`.
        sim.set_zombie_filter(|payload: &Wire| match payload.decoded() {
            Some(env) => env.body.is_liveness(),
            None => mercury_msg::Envelope::parse(&payload.xml())
                .map(|env| env.body.is_liveness())
                .unwrap_or(false),
        });

        let fd_shared = shared.clone();
        let monitored = components.clone();
        sim.spawn(names::FD, move || {
            Box::new(Fd::new(fd_shared.clone(), &monitored))
        });
        let rec_shared = shared.clone();
        let rec_control = control.clone();
        sim.spawn(names::REC, move || {
            Box::new(Rec::new(rec_shared.clone(), rec_control.clone()))
        });

        Ok(Station {
            sim,
            shared,
            control,
            components,
        })
    }

    /// The station's configuration.
    pub fn config(&self) -> &StationConfig {
        &self.shared.config
    }

    /// The component names this station runs (excluding FD/REC).
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// Shared REC control block (oracle state, cure hints, beacons).
    pub fn control(&self) -> &RecHandle {
        &self.control
    }

    /// A point-in-time snapshot of the recovery-episode telemetry. Empty
    /// unless the configuration sets
    /// [`telemetry_enabled`](StationConfig::telemetry_enabled).
    pub fn telemetry(&self) -> Registry {
        self.sim.telemetry().clone()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The structured event log.
    pub fn trace(&self) -> &Trace {
        self.sim.trace()
    }

    /// Mutable access to the underlying simulation (scenario drivers).
    pub fn sim_mut(&mut self) -> &mut Sim<Wire> {
        &mut self.sim
    }

    /// Runs the simulation forward by `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Runs the station's cold start until every component is functionally
    /// ready and the failure detector is sweeping, then a little longer so
    /// all incarnations count as "old". Panics if the station fails to
    /// settle within ten minutes of virtual time.
    pub fn warm_up(&mut self) {
        let deadline = self.sim.now() + SimDuration::from_secs(600);
        let settle_extra =
            SimDuration::from_secs_f64(calib::FRESH_THRESHOLD_S + calib::FD_GRACE_S + 10.0);
        // Components yet to log `ready:`, and how much of the trace is read.
        let mut waiting: Vec<CompId> = self.components.iter().map(|c| intern(c)).collect();
        let mut read = 0;
        loop {
            self.sim.run_for(SimDuration::from_secs(5));
            let trace = self.sim.trace();
            for e in trace.iter().skip(read) {
                if let Some(Mark::Ready(c)) = e.mark() {
                    waiting.retain(|w| w != c);
                }
            }
            read = trace.len();
            if waiting.is_empty() {
                break;
            }
            assert!(self.sim.now() < deadline, "station failed to cold-start");
        }
        self.sim.run_for(settle_extra);
    }

    /// Runs forward by a uniformly random fraction of the FD ping period, so
    /// that repeated trials inject failures at a uniformly random phase of
    /// the detection cycle — the assumption behind the paper's mean
    /// detection latency.
    pub fn randomize_injection_phase(&mut self, rng: &mut rr_sim::SimRng) {
        let period = self.shared.config.fd.ping_period_s;
        let offset = rng.uniform(0.0, period);
        self.run_for(SimDuration::from_secs_f64(offset));
    }

    /// Declares the ground truth that failures manifesting in `component`
    /// need all of `cure_set` restarted together (what a perfect oracle
    /// "knows", §4.4).
    pub fn set_cure_hint<I, S>(&mut self, component: &str, cure_set: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.control.borrow_mut().cure_hints.insert(
            component.to_string(),
            cure_set.into_iter().map(Into::into).collect(),
        );
    }

    /// Resolves a component name, or reports it unknown.
    fn pid_of(&self, component: &str) -> Result<ProcessId, StationError> {
        self.sim
            .lookup(component)
            .ok_or_else(|| StationError::UnknownComponent(component.to_string()))
    }

    /// Marks an injection in the trace, and records it with its fault kind
    /// in the telemetry: the kind is the injector's ground truth, which no
    /// mark carries, so this is the one fact written to both.
    fn note_injection(&mut self, component: &str, kind: &str) {
        self.sim
            .mark(Mark::Stage(EpisodeStage::Injected, intern(component)));
        let now = self.sim.now();
        self.sim
            .telemetry_mut()
            .record_injected(now, component, kind);
    }

    /// Injects a fault of `kind` into `component` now, and marks the
    /// injection time in the trace (§4.1: "we log the time when the signal
    /// is sent"):
    ///
    /// - [`Crash`](FaultKind::Crash): fail-silent, state lost (`SIGKILL`).
    /// - [`Hang`](FaultKind::Hang): fail-silent, state resident.
    /// - [`Zombie`](FaultKind::Zombie): the component keeps answering FD's
    ///   liveness pings but silently drops all real work (and stops its own
    ///   timers, so its health beacons cease). Only REC's beacon-staleness
    ///   defense ([`rr_lint::FdParams::beacon_timeout_s`]) can catch it.
    /// - [`HardCrash`](FaultKind::HardCrash): a crash now, and every
    ///   subsequent restart crashes again immediately. Exercises the
    ///   escalation → give-up → quarantine path.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::UnknownComponent`] if the component does not
    /// exist.
    pub fn inject(&mut self, component: &str, kind: FaultKind) -> Result<SimTime, StationError> {
        let pid = self.pid_of(component)?;
        match kind {
            FaultKind::Crash => {
                self.note_injection(component, "kill");
                self.sim.kill(pid);
            }
            FaultKind::Hang => {
                self.note_injection(component, "hang");
                self.sim.hang_after(SimDuration::ZERO, pid);
            }
            FaultKind::Zombie => {
                self.note_injection(component, "zombie");
                self.sim.zombie(pid);
            }
            FaultKind::HardCrash => {
                self.sim.set_persistent_crash(pid);
                self.note_injection(component, "hard");
                self.sim.kill(pid);
            }
        }
        Ok(self.sim.now())
    }

    /// Injects a fail-silent crash of `component`: the paper's `SIGKILL`
    /// experiment (§4.1), [`inject`](Self::inject) with
    /// [`FaultKind::Crash`].
    ///
    /// # Errors
    ///
    /// Returns [`StationError::UnknownComponent`] if the component does not
    /// exist.
    pub fn inject_kill(&mut self, component: &str) -> Result<SimTime, StationError> {
        self.inject(component, FaultKind::Crash)
    }

    /// Plays `script`, whose times are offsets from [`now`](Self::now):
    /// runs to each fault in script order and [`inject`](Self::inject)s it.
    /// Faults due at the same instant are injected back to back, with no
    /// simulation step between them. A fault whose target is not
    /// [`Running`](ProcessState::Running) is skipped: it is the same failure
    /// still being recovered. Returns each injected `(target, time)`; the
    /// station is left at the last fault's time, not settled.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::UnknownComponent`] for the first target that
    /// does not exist, before anything runs.
    pub fn play(&mut self, script: &FaultScript) -> Result<Vec<(String, SimTime)>, StationError> {
        for fault in script.faults() {
            self.pid_of(&fault.target)?;
        }
        let base = self.sim.now();
        let mut injected = Vec::new();
        for fault in script.faults() {
            let at = base + fault.at.since(SimTime::ZERO);
            if at > self.sim.now() {
                self.sim.run_until(at);
            }
            if self.state_of(&fault.target)? == ProcessState::Running {
                injected.push((
                    fault.target.clone(),
                    self.inject(&fault.target, fault.kind)?,
                ));
            }
        }
        Ok(injected)
    }

    /// Applies `quality` to **every** link in the station; `None` restores
    /// perfect communication.
    pub fn degrade_all_links(&mut self, quality: Option<LinkQuality>) {
        self.sim.set_default_link_quality(quality);
    }

    /// Injects the §4.4 correlated failure: poisons fedr's session state and
    /// crashes pbcom. The failure manifests in pbcom but is only curable by
    /// a joint [fedr, pbcom] restart; the cure hint is set accordingly so a
    /// perfect oracle knows it.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::RequiresSplit`] if the station is not running
    /// the split fedr/pbcom components.
    pub fn inject_correlated_pbcom(&mut self) -> Result<SimTime, StationError> {
        let fedr = self
            .sim
            .lookup(names::FEDR)
            .ok_or(StationError::RequiresSplit)?;
        let pbcom = self
            .sim
            .lookup(names::PBCOM)
            .ok_or(StationError::RequiresSplit)?;
        self.set_cure_hint(names::PBCOM, [names::FEDR, names::PBCOM]);
        // Deliver the poison hook directly to fedr, then kill pbcom.
        let hook = mercury_msg::Envelope::new(
            "injector",
            names::FEDR,
            0,
            mercury_msg::Message::TestHook {
                action: "poison".into(),
            },
        );
        self.sim
            .send_external(fedr, fedr, SimDuration::ZERO, Wire::from(hook));
        self.note_injection(names::PBCOM, "correlated");
        self.sim.kill(pbcom);
        Ok(self.sim.now())
    }

    /// Injects a fault into `component`'s durable journal — a torn write
    /// (tail truncation) or bit rot (a flipped byte) in the crash-safe
    /// store, exactly the mid-write damage a real crash leaves behind.
    /// The component itself keeps running; the damage surfaces at its
    /// next rehydration attempt, which must degrade gracefully (an older
    /// prefix, or a cold start) rather than reading corrupt state.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::UnknownComponent`] if the component does
    /// not exist.
    pub fn inject_journal_fault(
        &mut self,
        component: &str,
        fault: rr_store::JournalFault,
    ) -> Result<(), StationError> {
        let _ = self.pid_of(component)?;
        self.note_injection(component, "journal");
        self.shared
            .store
            .borrow_mut()
            .component(component)
            .inject(fault);
        Ok(())
    }

    /// The station's crash-safe component state store (diagnostics and
    /// scenario drivers). Shared with the running components.
    pub fn store(&self) -> std::rc::Rc<std::cell::RefCell<rr_store::StateStore>> {
        self.shared.store.clone()
    }

    /// Delivers raw bytes to a component as if they arrived on its wire —
    /// the hostile-input path: malformed traffic must be logged and dropped,
    /// never crash the station.
    ///
    /// # Errors
    ///
    /// Returns [`StationError::UnknownComponent`] if the component does not
    /// exist.
    pub fn inject_wire_garbage(
        &mut self,
        component: &str,
        payload: impl Into<String>,
    ) -> Result<(), StationError> {
        let pid = self.pid_of(component)?;
        self.sim
            .send_external(pid, pid, SimDuration::ZERO, Wire::from(payload.into()));
        Ok(())
    }

    /// The process state of a component (diagnostics).
    ///
    /// # Errors
    ///
    /// Returns [`StationError::UnknownComponent`] if the component does not
    /// exist.
    pub fn state_of(&self, component: &str) -> Result<ProcessState, StationError> {
        Ok(self.sim.state(self.pid_of(component)?))
    }
}
