//! In-tree, std-only thread pool for the dense kernels.
//!
//! Built on `std::thread` + `std::sync::{Mutex, Condvar}` only, so the
//! workspace keeps its no-external-dependency guarantee. The pool runs one
//! *job* at a time; a job is an indexed task range `0..n_tasks` executed by
//! [`ThreadPool::parallel_for`]. Workers and the submitting thread pull task
//! indices from a shared cursor, so scheduling is dynamic, but **which task
//! computes which output is fixed by the task index**, never by thread
//! identity — that is what lets the blocked GEMM keep bitwise-deterministic
//! results at any thread count (see `matmul.rs` and DESIGN.md §5).
//!
//! Concurrency contract:
//! * `parallel_for` blocks until every task of its job has finished, so task
//!   closures may borrow stack data.
//! * If the pool is already busy (another thread is mid-`parallel_for`, or a
//!   task recursively calls back in), the call degrades to inline serial
//!   execution instead of queueing — no deadlocks, identical results.
//! * A panicking task does not wedge the pool: remaining tasks still drain,
//!   then the panic is re-raised on the submitting thread.
//!
//! The process-wide pool is lazily created on first use and sized by
//! [`set_configured_threads`] — installed by the run configuration
//! (`RunConfig`, which owns the `TESSERACT_THREADS` parsing) — defaulting to
//! `std::thread::available_parallelism`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::JoinHandle;

/// Locks ignoring poisoning: the only unwind that can poison these mutexes
/// is the deliberate re-panic at the end of `parallel_for` (task panics are
/// caught before the state lock is re-taken), and the protected state is
/// consistent at that point.
fn lock_state(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Type-erased pointer to the borrowed task closure of the active job.
/// Validity: the pointer is only ever read together with a task-index claim,
/// under the state lock (`drain_tasks`), and is used for that one task. A
/// claimed task keeps `completed < n_tasks` until it has run, and
/// `parallel_for` does not return before `completed == n_tasks`, so the
/// closure outlives every call made through it — and no thread can carry
/// the pointer from one job into the next.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync + 'static));
// SAFETY: the closure itself is `Sync`, and the raw pointer is only
// dereferenced while `parallel_for` keeps the referent alive (see above).
unsafe impl Send for TaskRef {}

struct Job {
    task: TaskRef,
    n_tasks: usize,
    /// Next unclaimed task index.
    next: usize,
    /// Tasks that have finished running (successfully or by panic).
    completed: usize,
    panicked: bool,
}

#[derive(Default)]
struct State {
    job: Option<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers sleep here waiting for work (or shutdown).
    work: Condvar,
    /// The submitting thread sleeps here waiting for job completion.
    done: Condvar,
}

/// A fixed-size pool executing indexed parallel jobs. See module docs.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Guards job submission; `try_lock` failure means "busy → run inline".
    submit: Mutex<()>,
    threads: usize,
}

impl ThreadPool {
    /// Pool with `threads` total execution streams. The submitting thread
    /// participates in every job, so `threads - 1` workers are spawned;
    /// `threads <= 1` yields a pool that always runs inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, handles, submit: Mutex::new(()), threads }
    }

    /// Total execution streams (workers + the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `body(0), body(1), …, body(n_tasks - 1)`, potentially in
    /// parallel, returning once all of them have finished. Tasks must be
    /// independent; each task index is executed exactly once.
    pub fn parallel_for(&self, n_tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        if n_tasks <= 1 || self.handles.is_empty() {
            return run_inline(n_tasks, body);
        }
        // Busy (concurrent submitter or recursive call): degrade to inline.
        // A poisoned guard (an earlier job panicked) is still a free guard.
        let _guard = match self.submit.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return run_inline(n_tasks, body),
        };

        // SAFETY: erase the borrow lifetime; we hold the job open only for
        // the duration of this call (see TaskRef invariant).
        let task = TaskRef(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(body as *const _)
        });

        {
            let mut state = lock_state(&self.shared.state);
            debug_assert!(state.job.is_none(), "submit guard held, job slot must be free");
            state.job = Some(Job { task, n_tasks, next: 0, completed: 0, panicked: false });
            self.shared.work.notify_all();
        }

        // The submitting thread works too, then waits for stragglers.
        let caller_panicked = !drain_tasks(&self.shared);

        let panicked = {
            let mut state = lock_state(&self.shared.state);
            loop {
                let job = state.job.as_ref().expect("job cleared only by submitter");
                if job.completed == job.n_tasks {
                    break;
                }
                state = self.shared.done.wait(state).unwrap();
            }
            let job = state.job.take().expect("job present until taken here");
            job.panicked
        };
        if panicked || caller_panicked {
            panic!("ThreadPool::parallel_for: a task panicked");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        lock_state(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn run_inline(n_tasks: usize, body: &(dyn Fn(usize) + Sync)) {
    for idx in 0..n_tasks {
        body(idx);
    }
}

/// Claims and runs tasks of the active job until none are left. Returns
/// `false` if any task this thread ran panicked (recorded in the job too).
fn drain_tasks(shared: &Shared) -> bool {
    let mut ok = true;
    loop {
        // The index and the closure it belongs to are claimed under one
        // lock: the job in the slot may have changed since the last task.
        let (idx, task) = {
            let mut state = lock_state(&shared.state);
            let Some(job) = state.job.as_mut() else { return ok };
            if job.next >= job.n_tasks {
                return ok;
            }
            let idx = job.next;
            job.next += 1;
            (idx, job.task)
        };
        // SAFETY: the claim above holds the job open until this task's
        // completion is recorded below (TaskRef invariant).
        let body = unsafe { &*task.0 };
        let panicked = catch_unwind(AssertUnwindSafe(|| body(idx))).is_err();
        let mut state = lock_state(&shared.state);
        let job = state.job.as_mut().expect("job open while tasks in flight");
        job.completed += 1;
        if panicked {
            job.panicked = true;
            ok = false;
        }
        if job.completed == job.n_tasks {
            shared.done.notify_all();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Wait until there is claimable work or shutdown.
        {
            let mut state = lock_state(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                match state.job.as_ref() {
                    Some(job) if job.next < job.n_tasks => break,
                    _ => state = shared.work.wait(state).unwrap(),
                }
            }
        }
        drain_tasks(shared);
    }
}

// ---------------------------------------------------------------------------
// Process-wide pool
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
static THREAD_OVERRIDE: OnceLock<usize> = OnceLock::new();

/// Overrides the thread count the global pool is built with. The first
/// caller wins (later calls with a different value are ignored, like every
/// once-per-process knob here), and the override only matters before the
/// first dense kernel forces the pool into existence. This is the
/// process-global setter the run configuration installs — nothing in this
/// crate reads the environment.
pub fn set_configured_threads(n: usize) {
    assert!(n >= 1, "thread pool needs at least one thread");
    let _ = THREAD_OVERRIDE.set(n);
}

/// Thread count the global pool uses: the installed
/// [`set_configured_threads`] override if any, else the machine's available
/// parallelism.
pub fn configured_threads() -> usize {
    THREAD_OVERRIDE.get().copied().unwrap_or_else(hardware_threads)
}

/// Hardware execution streams the host exposes (ignores any configured
/// override). Benches record this next to the configured pool size so a
/// scaling curve measured on a constrained host is interpretable.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn hardware_threads() -> usize {
    host_threads()
}

/// The lazily-created process-wide pool shared by all dense kernels.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(configured_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        for threads in [1, 2, 7, 16] {
            let pool = ThreadPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}: every index must run exactly once"
            );
        }
    }

    #[test]
    fn zero_and_single_task_jobs() {
        let pool = ThreadPool::new(4);
        let count = AtomicUsize::new(0);
        pool.parallel_for(0, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        pool.parallel_for(1, &|i| {
            assert_eq!(i, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn tasks_may_mutate_disjoint_borrowed_data() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0u64; 64];
        let base = data.as_mut_ptr() as usize;
        pool.parallel_for(64, &|i| {
            // Disjoint writes through the erased pointer, as the kernels do.
            unsafe { *(base as *mut u64).add(i) = i as u64 * 3 };
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    fn recursive_submission_degrades_to_inline() {
        let pool = ThreadPool::new(3);
        let count = AtomicUsize::new(0);
        pool.parallel_for(4, &|_| {
            pool.parallel_for(5, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the submitter");
        // The pool must still execute subsequent jobs.
        let count = AtomicUsize::new(0);
        pool.parallel_for(10, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn back_to_back_jobs_never_run_a_stale_closure() {
        // Four submitters race for one worker: whenever a submitter returns,
        // another installs the next job while the worker is between its
        // `completed += 1` and its next claim. Each job's closure borrows
        // that job's own counters, so an index run through a previous job's
        // closure shows up as a missing hit here (or a fault).
        let pool = ThreadPool::new(2);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let pool = &pool;
                s.spawn(move || {
                    for job in 0..20_000usize {
                        let n = 8 + (job + t) % 5;
                        let hits: [AtomicUsize; 12] = std::array::from_fn(|_| AtomicUsize::new(0));
                        pool.parallel_for(n, &|i| {
                            // ~1 µs of work so jobs overlap the hand-off.
                            let mut x = i as u64 + 1;
                            for _ in 0..200 {
                                x = std::hint::black_box(x.wrapping_mul(6364136223846793005) | 1);
                            }
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        });
                        for (i, h) in hits.iter().enumerate() {
                            let want = usize::from(i < n);
                            assert_eq!(
                                h.load(Ordering::Relaxed),
                                want,
                                "submitter {t} job {job}: index {i} of {n} ran the wrong number of times"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
        assert!(global().threads() >= 1);
    }
}
