//! The trial fan-out: [`par_map`] runs independent jobs over the machine's
//! cores and returns their results in index order.
//!
//! Every experiment trial builds, runs and drops its own seeded station, so
//! trials are independent and only plain numbers leave a job. What must not
//! depend on the worker count is the *order* the numbers are combined in:
//! callers fold the returned `Vec`, never a shared accumulator, and draw
//! anything one trial hands the next (the injection-phase offsets) before the
//! fan-out. With that, every rendered table is byte-identical on one core and
//! on sixty-four (DESIGN.md §18).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// `(0..n).map(job)`, with the jobs spread over `available_parallelism()`
/// workers.
///
/// If jobs panic, the payload of the lowest panicking index is re-raised on
/// the caller, exactly as the serial `map` would have raised it.
pub fn par_map<T: Send>(n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    par_map_on(workers(), n, job)
}

/// How many workers [`par_map`] uses. Tests pin it with [`with_workers`].
fn workers() -> usize {
    #[cfg(test)]
    if let Some(pinned) = PINNED_WORKERS.get() {
        return pinned;
    }
    // Asked once: on Linux the answer reads the affinity mask and the cgroup
    // quota files, and a one-trial cell calls this per cell.
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

#[cfg(test)]
thread_local! {
    static PINNED_WORKERS: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Runs `body` with every [`par_map`] it calls on this thread `workers` wide.
#[cfg(test)]
pub(crate) fn with_workers<R>(workers: usize, body: impl FnOnce() -> R) -> R {
    let before = PINNED_WORKERS.replace(Some(workers));
    let result = body();
    PINNED_WORKERS.set(before);
    result
}

/// [`par_map`] on `workers` workers: the caller and `workers - 1` scoped
/// threads pull indices from one counter. One worker (or one job) runs inline
/// without spawning.
fn par_map_on<T: Send>(workers: usize, n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(job).collect();
    }
    // Relaxed: the counter only hands out indices. Results reach the caller
    // through `join`, which orders them.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            let result = catch_unwind(AssertUnwindSafe(|| job(i)));
            if result.is_err() {
                // Hand out nothing more. Indices are handed out in order, so
                // every lower one is already running and will finish: the
                // lowest panicking index is the same for any worker count.
                next.store(n, Ordering::Relaxed);
            }
            done.push((i, result));
        }
    };
    let mut done = thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in spawned {
            // A worker catches its jobs' panics, so it does not panic itself.
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter()
        .map(|(_, result)| result.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_worker_count_returns_the_serial_vec() {
        let n = 23;
        let serial: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
        for workers in [1, 2, 3, n + 5] {
            assert_eq!(
                par_map_on(workers, n, |i| (i * i + 1) as u64),
                serial,
                "{workers} workers"
            );
        }
        assert_eq!(par_map_on(4, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn one_worker_runs_inline_without_a_thread() {
        let caller = thread::current().id();
        let ran_on = par_map_on(1, 5, |_| thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
        // One job never needs a second worker either.
        assert_eq!(par_map_on(8, 1, |_| thread::current().id()), [caller]);
    }

    #[test]
    fn more_workers_do_leave_the_caller() {
        let caller = thread::current().id();
        // The first job holds the caller (or one worker) until another
        // thread has taken the second.
        let taken = AtomicUsize::new(0);
        let ran_on = par_map_on(2, 2, |_| {
            taken.fetch_add(1, Ordering::SeqCst);
            while taken.load(Ordering::SeqCst) < 2 {
                thread::yield_now();
            }
            thread::current().id()
        });
        assert_ne!(ran_on[0], ran_on[1]);
        assert!(ran_on.contains(&caller), "the caller is a worker too");
    }

    #[test]
    fn the_lowest_panicking_index_reaches_the_caller_with_its_payload() {
        for workers in [1, 2, 3, 40] {
            let caught = catch_unwind(|| {
                par_map_on(workers, 30, |i| {
                    if i % 7 == 4 {
                        panic!("job {i} failed");
                    }
                    i
                })
            });
            let payload = caught.expect_err("jobs 4, 11, 18 and 25 panic");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("job 4 failed"),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn with_workers_pins_and_restores() {
        let outer = workers();
        let caller = thread::current().id();
        let ran_on = with_workers(1, || par_map(4, |_| thread::current().id()));
        assert!(ran_on.iter().all(|&id| id == caller));
        assert_eq!(with_workers(3, workers), 3);
        assert_eq!(workers(), outer);
    }
}
