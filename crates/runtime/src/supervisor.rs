//! The live supervisor: FD + REC over real threads.
//!
//! A [`Supervisor`] owns a set of services, a restart tree and an oracle
//! (both from `rr-core`). Its watchdog thread performs application-level
//! liveness pings (the §2.2 mechanism, scaled from seconds to tens of
//! milliseconds so demos run fast), reports failures to the recoverer, and
//! executes group restarts: kill every service in the chosen restart cell,
//! respawn each from its factory after its boot delay.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rr_core::oracle::{Failure, Oracle};
use rr_core::policy::RestartPolicy;
use rr_core::recoverer::{Recoverer, RecoveryDecision};
use rr_core::tree::RestartTree;
use rr_sim::telemetry::Registry;
use rr_sim::{intern, EpisodeStage, Mark, SimTime};
use std::sync::Mutex;
use std::sync::MutexGuard;

use crate::router::Router;
use crate::service::{spawn_service, ProcessHandle, ServiceFactory, PING, PONG};

/// Timing knobs for the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Ping period (Mercury: 1 s; demos: ~20 ms).
    pub ping_period: Duration,
    /// How long to wait for pongs before declaring a miss.
    pub ping_timeout: Duration,
    /// If a restarted service has not answered pings within this time, the
    /// restart is declared failed so escalation (or give-up) can proceed —
    /// without this, a service wedging during boot deadlocks its episode.
    pub restart_deadline: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            ping_period: Duration::from_millis(20),
            ping_timeout: Duration::from_millis(10),
            restart_deadline: Duration::from_millis(500),
        }
    }
}

struct ServiceSpec {
    factory: ServiceFactory,
    boot: Duration,
}

struct Inner {
    specs: HashMap<String, ServiceSpec>,
    procs: HashMap<String, ProcessHandle>,
    recoverer: Recoverer<Box<dyn Oracle + Send>>,
    /// Components awaiting reboot completion per episode, with the time the
    /// restart was issued.
    pending: HashMap<String, (Instant, Vec<String>)>,
    /// Services the policy has given up on (hard failures, §2.2): left down
    /// for a human, no longer watched.
    abandoned: Vec<String>,
    epoch: Instant,
    restarts: u64,
    /// Recovery-episode telemetry, wall-clock timestamps mapped onto
    /// [`SimTime`] relative to the supervisor's epoch.
    telemetry: Registry,
}

impl Inner {
    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.epoch.elapsed().as_secs_f64())
    }
}

/// Locks a mutex, recovering the data if a previous holder panicked. The
/// supervisor's invariants hold between statements, not across the guard's
/// lifetime, so a poisoned lock means "a thread died mid-round", not "the
/// state is garbage" — the watchdog re-derives liveness every round anyway.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A live supervision tree over OS threads.
pub struct Supervisor {
    router: Router,
    inner: Arc<Mutex<Inner>>,
    config: WatchdogConfig,
    watchdog_stop: Arc<AtomicBool>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("services", &self.router.names())
            .finish()
    }
}

impl Supervisor {
    /// Creates a supervisor over `tree`, using `oracle` as the restart
    /// policy brain.
    pub fn new(
        tree: RestartTree,
        oracle: Box<dyn Oracle + Send>,
        config: WatchdogConfig,
    ) -> Supervisor {
        let recoverer = Recoverer::new(tree, oracle, RestartPolicy::new());
        Supervisor {
            router: Router::new(),
            inner: Arc::new(Mutex::new(Inner {
                specs: HashMap::new(),
                procs: HashMap::new(),
                recoverer,
                pending: HashMap::new(),
                abandoned: Vec::new(),
                epoch: Instant::now(),
                restarts: 0,
                telemetry: Registry::new(),
            })),
            config,
            watchdog_stop: Arc::new(AtomicBool::new(false)),
            watchdog: Mutex::new(None),
        }
    }

    /// The router, for injecting traffic from tests/demos.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Total restarts the supervisor has executed.
    pub fn restarts(&self) -> u64 {
        lock_recovering(&self.inner).restarts
    }

    /// Services the restart policy has abandoned as hard failures
    /// ("the policy keeps track of past restarts to prevent infinite
    /// restarts of 'hard' failures", §2.2). They stay down for a human.
    pub fn abandoned(&self) -> Vec<String> {
        lock_recovering(&self.inner).abandoned.clone()
    }

    /// A snapshot of the recovery-episode telemetry recorded so far
    /// (restart counts, per-component MTTR histograms, the episode stream).
    pub fn telemetry(&self) -> Registry {
        lock_recovering(&self.inner).telemetry.clone()
    }

    /// Replaces the restart policy (e.g. to tighten the storm limit in
    /// tests or demos). Prior restart history is discarded.
    pub fn set_policy(&self, policy: RestartPolicy) {
        lock_recovering(&self.inner).recoverer.set_policy(policy);
    }

    /// Registers and starts a service. The name must be a component attached
    /// to the restart tree.
    ///
    /// # Panics
    ///
    /// Panics if the name is not in the restart tree.
    pub fn add_service(
        &self,
        name: &str,
        boot: Duration,
        mut factory: impl FnMut() -> Box<dyn crate::service::Service> + Send + 'static,
    ) {
        let mut inner = lock_recovering(&self.inner);
        assert!(
            inner.recoverer.tree().cell_of_component(name).is_some(),
            "service {name:?} is not attached to the restart tree"
        );
        let service = factory();
        let handle = spawn_service(name.to_string(), self.router.clone(), service, boot);
        inner.procs.insert(name.to_string(), handle);
        inner.specs.insert(
            name.to_string(),
            ServiceSpec {
                factory: Box::new(factory),
                boot,
            },
        );
    }

    /// Waits until every registered service answers pings (initial boot).
    ///
    /// # Panics
    ///
    /// Panics if services fail to come up within `deadline`.
    pub fn await_ready(&self, deadline: Duration) {
        let names: Vec<String> = lock_recovering(&self.inner).specs.keys().cloned().collect();
        let until = Instant::now() + deadline;
        let rx = self.router.register("__await");
        loop {
            for name in &names {
                self.router.send("__await", name, PING);
            }
            let round_end =
                Instant::now() + self.config.ping_timeout.max(Duration::from_millis(20));
            let mut answered = 0;
            while Instant::now() < round_end && answered < names.len() {
                if let Ok(post) = rx.recv_timeout(Duration::from_millis(5)) {
                    if post.body == PONG {
                        answered += 1;
                    }
                }
            }
            if answered >= names.len() {
                break;
            }
            assert!(Instant::now() < until, "services failed to boot");
        }
        self.router.unregister("__await");
    }

    /// Injects a fail-silent crash of `name` (kills the thread's event loop
    /// and unregisters its mailbox) without telling the supervisor — the
    /// watchdog must notice on its own.
    pub fn inject_kill(&self, name: &str) {
        let mut inner = lock_recovering(&self.inner);
        if let Some(handle) = inner.procs.get_mut(name) {
            handle.kill();
        }
        let now = inner.now();
        inner.telemetry.record_injected(now, name, "kill");
        self.router.unregister(name);
    }

    /// Starts the watchdog (FD + REC).
    pub fn start_watchdog(&self) {
        let router = self.router.clone();
        let inner = self.inner.clone();
        let stop = self.watchdog_stop.clone();
        let config = self.config;
        match std::thread::Builder::new()
            .name("rr-watchdog".into())
            .spawn(move || watchdog_loop(router, inner, stop, config))
        {
            Ok(handle) => *lock_recovering(&self.watchdog) = Some(handle),
            Err(_) => {
                // No watchdog thread could be started: record the degraded
                // state instead of aborting. Services keep running unwatched;
                // a later start_watchdog call may succeed.
                lock_recovering(&self.inner)
                    .telemetry
                    .incr("watchdog_spawn_failures");
            }
        }
    }

    /// Stops the watchdog and every service. Service threads are signalled
    /// and detached rather than joined: a wedged service (the hard-failure
    /// case) must not be able to hang shutdown. Healthy threads observe the
    /// stop flag within one poll interval and exit.
    pub fn shutdown(&self) {
        self.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(t) = lock_recovering(&self.watchdog).take() {
            let _ = t.join();
        }
        let mut inner = lock_recovering(&self.inner);
        let names: Vec<String> = inner.procs.keys().cloned().collect();
        for name in names {
            self.router.unregister(&name);
            if let Some(mut h) = inner.procs.remove(&name) {
                h.kill();
            }
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn watchdog_loop(
    router: Router,
    inner: Arc<Mutex<Inner>>,
    stop: Arc<AtomicBool>,
    config: WatchdogConfig,
) {
    let rx = router.register("__watchdog");
    let mut down: HashMap<String, bool> = HashMap::new();
    while !stop.load(Ordering::SeqCst) {
        let names: Vec<String> = {
            let inner = lock_recovering(&inner);
            inner.specs.keys().cloned().collect()
        };
        for name in &names {
            router.send("__watchdog", name, PING);
        }
        // Collect pongs.
        let round_end = Instant::now() + config.ping_timeout;
        let mut alive: Vec<String> = Vec::new();
        loop {
            let left = round_end.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            if let Ok(post) = rx.recv_timeout(left) {
                if post.body == PONG {
                    alive.push(post.from);
                }
            }
        }

        let mut to_restart: Vec<Vec<String>> = Vec::new();
        {
            let mut guard = lock_recovering(&inner);
            let now = guard.now();
            // Recoveries: pending components that answered again.
            let mut completed: Vec<String> = Vec::new();
            let mut overdue: Vec<String> = Vec::new();
            let mut came_back: Vec<String> = Vec::new();
            for (episode, (issued, pend)) in guard.pending.iter_mut() {
                pend.retain(|c| {
                    let back = alive.contains(c);
                    if back {
                        came_back.push(c.clone());
                    }
                    !back
                });
                if pend.is_empty() {
                    completed.push(episode.clone());
                } else if issued.elapsed() > config.restart_deadline {
                    overdue.push(episode.clone());
                }
            }
            for comp in came_back {
                guard.telemetry.record(now, &Mark::Ready(intern(&comp)));
            }
            for episode in overdue {
                // The reboot blew its deadline (e.g. the service wedges
                // during boot): declare the restart complete-but-failed so
                // the next missed ping escalates instead of waiting forever.
                guard.pending.remove(&episode);
                guard.recoverer.on_restart_complete(&episode, now);
                guard
                    .telemetry
                    .incr_labeled("restart_deadline_misses", &episode);
            }
            for episode in completed {
                guard.pending.remove(&episode);
                guard.recoverer.on_restart_complete(&episode, now);
                guard.recoverer.on_cured(&episode, now);
                guard.telemetry.record(now, &Mark::Cured(intern(&episode)));
                down.insert(episode, false);
            }
            // Failures.
            for name in &names {
                if guard.abandoned.contains(name) {
                    continue; // hard failure: a human must intervene
                }
                if alive.contains(name) {
                    down.insert(name.clone(), false);
                    continue;
                }
                if guard.pending.values().any(|(_, p)| p.contains(name)) {
                    continue; // rebooting on our orders
                }
                if guard.recoverer.is_in_flight(name) {
                    continue;
                }
                if !down.get(name).copied().unwrap_or(false) {
                    let suspected = Mark::Stage(EpisodeStage::Suspected, intern(name));
                    guard.telemetry.record(now, &suspected);
                }
                down.insert(name.clone(), true);
                let decision = guard.recoverer.on_failure(Failure::solo(name.clone()), now);
                match decision {
                    RecoveryDecision::Restart {
                        components,
                        attempt,
                        origins,
                        ..
                    } => {
                        guard
                            .pending
                            .insert(name.clone(), (Instant::now(), components.clone()));
                        guard.restarts += 1;
                        for origin in origins.iter().filter(|o| *o != name) {
                            let merge = Mark::Merge {
                                from: intern(origin),
                                into: intern(name),
                            };
                            guard.telemetry.record(now, &merge);
                        }
                        let restart = Mark::Restart {
                            owner: intern(name),
                            attempt,
                            set: components.iter().map(|c| intern(c)).collect(),
                        };
                        guard.telemetry.record(now, &restart);
                        to_restart.push(components);
                    }
                    RecoveryDecision::AlreadyRecovering { .. } => {}
                    RecoveryDecision::GiveUp { reason, .. } => {
                        let give_up = Mark::GiveUp {
                            comp: intern(name),
                            reason: reason.to_string(),
                        };
                        guard.telemetry.record(now, &give_up);
                        let quarantined = Mark::Stage(EpisodeStage::Quarantined, intern(name));
                        guard.telemetry.record(now, &quarantined);
                        guard.abandoned.push(name.clone());
                    }
                }
            }
            // Execute restarts while holding the lock (kill + respawn are
            // quick; boots happen on the new threads).
            for components in &to_restart {
                for comp in components {
                    router.unregister(comp);
                    if let Some(handle) = guard.procs.get_mut(comp) {
                        handle.kill();
                    }
                    // A component can appear in a cell without a registered
                    // spec (registered late, or torn down concurrently):
                    // skip it rather than aborting the watchdog thread.
                    let Some(spec) = guard.specs.get_mut(comp) else {
                        continue;
                    };
                    let (service, boot) = ((spec.factory)(), spec.boot);
                    let handle = spawn_service(comp.clone(), router.clone(), service, boot);
                    guard.procs.insert(comp.clone(), handle);
                }
            }
        }
        std::thread::sleep(config.ping_period);
    }
    router.unregister("__watchdog");
}
