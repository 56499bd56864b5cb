#![allow(clippy::disallowed_methods)]
//! Integration tests for the live threaded supervisor: consolidated group
//! restarts, repeated failures, state loss on restart, and clean shutdown —
//! the paper's semantics on real OS threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rr_core::tree::TreeSpec;
use rr_core::PerfectOracle;
use rr_runtime::{Post, Service, ServiceCtx, Supervisor, WatchdogConfig, PING, PONG};
use rr_sim::EpisodeStage;

struct Counter {
    processed: u64,
    incarnations: Arc<AtomicU64>,
}

impl Service for Counter {
    fn on_start(&mut self, _ctx: &mut ServiceCtx<'_>) {
        self.incarnations.fetch_add(1, Ordering::SeqCst);
    }

    fn on_post(&mut self, post: Post, ctx: &mut ServiceCtx<'_>) {
        self.processed += 1;
        ctx.send(&post.from, format!("count:{}", self.processed));
    }
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

fn pipeline_tree() -> rr_core::RestartTree {
    TreeSpec::cell("pipeline")
        .with_child(TreeSpec::cell("R_solo").with_component("solo"))
        .with_child(TreeSpec::cell("R_[a,b]").with_components(["a", "b"]))
        .build()
        .unwrap()
}

fn build() -> (Supervisor, Arc<AtomicU64>, Arc<AtomicU64>, Arc<AtomicU64>) {
    let sup = Supervisor::new(
        pipeline_tree(),
        Box::new(PerfectOracle::new()),
        WatchdogConfig::default(),
    );
    let inc_solo = Arc::new(AtomicU64::new(0));
    let inc_a = Arc::new(AtomicU64::new(0));
    let inc_b = Arc::new(AtomicU64::new(0));
    for (name, counter) in [("solo", &inc_solo), ("a", &inc_a), ("b", &inc_b)] {
        let c = counter.clone();
        sup.add_service(name, Duration::from_millis(5), move || {
            Box::new(Counter {
                processed: 0,
                incarnations: c.clone(),
            })
        });
    }
    sup.await_ready(Duration::from_secs(10));
    sup.start_watchdog();
    (sup, inc_solo, inc_a, inc_b)
}

#[test]
fn solo_failure_restarts_only_its_cell() {
    let (sup, inc_solo, inc_a, inc_b) = build();
    let a_before = inc_a.load(Ordering::SeqCst);
    let b_before = inc_b.load(Ordering::SeqCst);
    sup.inject_kill("solo");
    assert!(
        wait_until(Duration::from_secs(10), || inc_solo.load(Ordering::SeqCst)
            >= 2),
        "solo must be reincarnated"
    );
    // a and b were untouched.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(inc_a.load(Ordering::SeqCst), a_before);
    assert_eq!(inc_b.load(Ordering::SeqCst), b_before);
    sup.shutdown();
}

/// The supervisor folds the same protocol marks as the simulator's
/// registry, so one kill walks the episode through the stages the
/// simulator records for a single-component kill (its tree2-kill-rtu
/// golden stream). Stages only: the times are wall-clock.
#[test]
fn one_kill_walks_the_simulators_stage_sequence() {
    let (sup, _, _, _) = build();
    sup.inject_kill("solo");
    assert!(
        wait_until(Duration::from_secs(10), || {
            sup.telemetry().counter("episodes_cured", "") >= 1
        }),
        "the killed service was never cured"
    );
    let telemetry = sup.telemetry();
    let mut stages: Vec<&str> = Vec::new();
    for e in telemetry.events().iter().filter(|e| e.component == "solo") {
        stages.push(e.stage.name());
        if e.stage == EpisodeStage::Cured {
            break;
        }
    }
    assert_eq!(
        stages,
        [
            "injected",
            "suspected",
            "planned",
            "restarting",
            "ready",
            "cured"
        ]
    );
}

#[test]
fn consolidated_cell_restarts_both_members() {
    let (sup, _inc_solo, inc_a, inc_b) = build();
    let b_before = inc_b.load(Ordering::SeqCst);
    sup.inject_kill("a");
    assert!(
        wait_until(Duration::from_secs(10), || {
            inc_a.load(Ordering::SeqCst) >= 2 && inc_b.load(Ordering::SeqCst) > b_before
        }),
        "killing a must also reincarnate its cellmate b"
    );
    sup.shutdown();
}

#[test]
fn state_is_wiped_by_restart() {
    let (sup, inc_solo, ..) = build();
    let rx = sup.router().register("probe");
    // Feed it three jobs; counter reaches 3.
    for _ in 0..3 {
        sup.router().send("probe", "solo", "job");
    }
    let mut last = String::new();
    for _ in 0..3 {
        last = rx.recv_timeout(Duration::from_secs(2)).unwrap().body;
    }
    assert_eq!(last, "count:3");
    sup.inject_kill("solo");
    assert!(wait_until(Duration::from_secs(10), || {
        inc_solo.load(Ordering::SeqCst) >= 2 && sup.router().is_registered("solo")
    }));
    // Drain any stragglers, then the fresh incarnation counts from 1.
    while rx.try_recv().is_ok() {}
    sup.router().send("probe", "solo", "job");
    let body = rx.recv_timeout(Duration::from_secs(2)).unwrap().body;
    assert_eq!(
        body, "count:1",
        "restart must return the service to its start state"
    );
    sup.shutdown();
}

#[test]
fn repeated_failures_keep_being_cured() {
    let (sup, inc_solo, ..) = build();
    for round in 2..5u64 {
        sup.inject_kill("solo");
        assert!(
            wait_until(Duration::from_secs(10), || inc_solo.load(Ordering::SeqCst)
                >= round),
            "round {round} not recovered"
        );
        // Let the cure be confirmed before the next kill.
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(sup.restarts() >= 3);
    sup.shutdown();
}

/// A service whose `on_start` wedges forever: restart never cures it (a
/// "hard" failure in the paper's terms).
struct Wedged;
impl Service for Wedged {
    fn on_start(&mut self, _ctx: &mut ServiceCtx<'_>) {
        // Simulate a service that hangs during initialization: it never
        // reaches its mailbox loop quickly enough to answer pings.
        std::thread::sleep(Duration::from_secs(3600));
    }
    fn on_post(&mut self, _post: Post, _ctx: &mut ServiceCtx<'_>) {}
}

#[test]
fn hard_failures_are_abandoned_not_looped_on() {
    let tree = TreeSpec::cell("root")
        .with_child(TreeSpec::cell("R_ok").with_component("ok"))
        .with_child(TreeSpec::cell("R_wedged").with_component("wedged"))
        .build()
        .unwrap();
    let sup = Supervisor::new(
        tree,
        Box::new(PerfectOracle::new()),
        WatchdogConfig::default(),
    );
    // A tight policy so the test converges quickly: two strikes and out.
    sup.set_policy(
        rr_core::RestartPolicy::new()
            .with_escalation_limit(2)
            .with_rate_limit(2, Duration::from_secs(3600).into()),
    );
    let healthy = Arc::new(AtomicU64::new(0));
    let h = healthy.clone();
    sup.add_service("ok", Duration::from_millis(5), move || {
        Box::new(Counter {
            processed: 0,
            incarnations: h.clone(),
        })
    });
    let wedged_inc = Arc::new(AtomicU64::new(0));
    let w = wedged_inc.clone();
    sup.add_service("wedged", Duration::from_millis(5), move || {
        w.fetch_add(1, Ordering::SeqCst);
        Box::new(Wedged)
    });
    // Only wait for the healthy service (the wedged one never answers).
    let rx = sup.router().register("probe");
    assert!(wait_until(Duration::from_secs(10), || {
        sup.router().send("probe", "ok", PING);
        rx.recv_timeout(Duration::from_millis(50))
            .map(|p| p.body == PONG)
            .unwrap_or(false)
    }));
    sup.start_watchdog();

    // The watchdog tries, then gives up.
    assert!(
        wait_until(Duration::from_secs(15), || {
            sup.abandoned().contains(&"wedged".to_string())
        }),
        "policy must abandon the wedged service (incarnations: {})",
        wedged_inc.load(Ordering::SeqCst)
    );
    let incarnations_at_giveup = wedged_inc.load(Ordering::SeqCst);
    // And stops restarting it.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(wedged_inc.load(Ordering::SeqCst), incarnations_at_giveup);
    // The healthy service is unaffected.
    sup.router().send("probe", "ok", "job");
    assert!(rx
        .recv_timeout(Duration::from_secs(2))
        .map(|p| p.body.starts_with("count:") || p.body == PONG)
        .unwrap_or(false));
    sup.shutdown();
}

#[test]
fn shutdown_unregisters_everything() {
    let (sup, ..) = build();
    sup.shutdown();
    for name in ["solo", "a", "b"] {
        assert!(!sup.router().is_registered(name), "{name} still registered");
    }
    // Posts after shutdown are silently dropped, not panics.
    assert!(!sup.router().send("x", "solo", PING));
}

#[test]
fn watchdog_answers_are_real_pongs() {
    // Sanity-check the ping protocol itself.
    let (sup, ..) = build();
    let rx = sup.router().register("probe");
    sup.router().send("probe", "a", PING);
    let reply = rx.recv_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!(reply.body, PONG);
    assert_eq!(reply.from, "a");
    sup.shutdown();
}

/// A service that panics while handling a specific post — the crash-fault
/// regression for the supervisor's panic hardening: the panic must be
/// contained to the service's own thread, detected as a missed ping, and
/// cured by an ordinary restart. Before the hardening this panicked straight
/// through the service loop and the component simply went dark forever (and
/// a panic while the supervisor's lock was held would poison every later
/// `lock()` in the watchdog).
struct PanicsOnPoison {
    incarnations: Arc<AtomicU64>,
}

impl Service for PanicsOnPoison {
    fn on_start(&mut self, _ctx: &mut ServiceCtx<'_>) {
        self.incarnations.fetch_add(1, Ordering::SeqCst);
    }

    fn on_post(&mut self, post: Post, ctx: &mut ServiceCtx<'_>) {
        if post.body == "poison" {
            panic!("injected service panic");
        }
        ctx.send(&post.from, PONG);
    }
}

#[test]
fn panicking_child_is_recovered_as_a_crash_fault() {
    let tree = TreeSpec::cell("root")
        .with_child(TreeSpec::cell("R_frag").with_component("fragile"))
        .build()
        .unwrap();
    let sup = Supervisor::new(
        tree,
        Box::new(PerfectOracle::new()),
        WatchdogConfig::default(),
    );
    let inc = Arc::new(AtomicU64::new(0));
    let i = inc.clone();
    sup.add_service("fragile", Duration::from_millis(5), move || {
        Box::new(PanicsOnPoison {
            incarnations: i.clone(),
        })
    });
    sup.await_ready(Duration::from_secs(10));
    sup.start_watchdog();
    assert!(wait_until(Duration::from_secs(5), || {
        inc.load(Ordering::SeqCst) >= 1
    }));

    // Poison it: the service thread panics on this post.
    sup.router().send("probe", "fragile", "poison");

    // The watchdog must notice the silent death and reincarnate it.
    assert!(
        wait_until(Duration::from_secs(10), || inc.load(Ordering::SeqCst) >= 2),
        "panicked service must be restarted, not left dark"
    );
    assert!(sup.restarts() >= 1, "the restart must go through REC");

    // The fresh incarnation serves traffic again.
    let rx = sup.router().register("probe");
    assert!(wait_until(Duration::from_secs(5), || {
        sup.router().send("probe", "fragile", "job");
        rx.recv_timeout(Duration::from_millis(100))
            .map(|p| p.body == PONG)
            .unwrap_or(false)
    }));

    // Telemetry saw the whole episode: a suspicion, a restart, and (once
    // the watchdog confirms the reincarnation answers pings) a cure.
    assert!(
        wait_until(Duration::from_secs(10), || {
            sup.telemetry().counter("episodes_cured", "") >= 1
        }),
        "the cure must be confirmed and recorded"
    );
    let telemetry = sup.telemetry();
    assert!(telemetry.counter("fd_suspicions", "fragile") >= 1);
    assert!(telemetry.counter("restarts_issued", "") >= 1);
    assert!(telemetry.counter("component_restarts", "fragile") >= 1);
    sup.shutdown();
}

/// Repeated panics escalate through the policy like any other crash fault
/// and are eventually abandoned as hard failures — the supervisor thread
/// itself must survive every one of them.
#[test]
fn always_panicking_child_is_abandoned_without_killing_the_supervisor() {
    struct AlwaysPanics;
    impl Service for AlwaysPanics {
        fn on_start(&mut self, _ctx: &mut ServiceCtx<'_>) {
            panic!("panic during boot");
        }
        fn on_post(&mut self, _post: Post, _ctx: &mut ServiceCtx<'_>) {}
    }
    let tree = TreeSpec::cell("root")
        .with_child(TreeSpec::cell("R_ok").with_component("ok"))
        .with_child(TreeSpec::cell("R_bad").with_component("bad"))
        .build()
        .unwrap();
    let sup = Supervisor::new(
        tree,
        Box::new(PerfectOracle::new()),
        WatchdogConfig::default(),
    );
    sup.set_policy(
        rr_core::RestartPolicy::new()
            .with_escalation_limit(2)
            .with_rate_limit(2, Duration::from_secs(3600).into()),
    );
    let healthy = Arc::new(AtomicU64::new(0));
    let h = healthy.clone();
    sup.add_service("ok", Duration::from_millis(5), move || {
        Box::new(Counter {
            processed: 0,
            incarnations: h.clone(),
        })
    });
    sup.add_service("bad", Duration::from_millis(5), move || {
        Box::new(AlwaysPanics)
    });
    // Only the healthy service will ever answer.
    let rx = sup.router().register("probe");
    assert!(wait_until(Duration::from_secs(10), || {
        sup.router().send("probe", "ok", PING);
        rx.recv_timeout(Duration::from_millis(50))
            .map(|p| p.body == PONG)
            .unwrap_or(false)
    }));
    sup.start_watchdog();
    assert!(
        wait_until(Duration::from_secs(15), || {
            sup.abandoned().contains(&"bad".to_string())
        }),
        "a child that panics every boot must be quarantined"
    );
    // The healthy sibling and the supervisor both still work.
    sup.router().send("probe", "ok", "job");
    assert!(rx
        .recv_timeout(Duration::from_secs(2))
        .map(|p| p.body.starts_with("count:"))
        .unwrap_or(false));
    assert!(sup.telemetry().counter("episodes_gaveup", "") >= 1);
    sup.shutdown();
}
