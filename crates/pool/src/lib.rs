//! The process-wide worker pool shared by every hot path in the workspace:
//! the NN compute backend (GEMM, conv lowering), the batched pipeline
//! stages in `soteria-core`, and the feature-extraction fast path in
//! `soteria-features`.
//!
//! Promoted out of `soteria-nn::backend` so `soteria-features` can use it
//! without a dependency cycle (`nn` must not depend on `features`, and
//! `features` must not depend on `nn`). `soteria_nn::backend` re-exports
//! this API, so historical call sites keep compiling unchanged.
//!
//! # Determinism contract
//!
//! The pool itself never touches data — callers submit borrowed closures
//! through [`run_scoped`] (or fan samples out through [`map`]) and are
//! responsible for partitioning work over *output* units only (rows,
//! samples, walks), never over a reduction axis. Under that discipline,
//! results are bit-identical across 1..N worker threads because each
//! output element is owned by exactly one task. See the determinism
//! contract in DESIGN.md.
//!
//! # Scheduling
//!
//! The pool is lazily initialized, process-wide, and grows on demand up to
//! `available_parallelism` (override with `SOTERIA_NN_THREADS`; the
//! historical name is kept because it is documented and wired into
//! benches). Callers submit borrowed closures through [`run_scoped`]; the
//! calling thread executes the first task itself and then *helps* drain
//! the shared queue while waiting, which makes nested submissions (a
//! pooled GEMM inside a pooled pipeline chunk, or a pooled walk batch
//! inside a pooled extraction chunk) deadlock-free by construction.

// `forbid` would also refuse the one `allow` below: handing borrowed tasks
// to long-lived worker threads needs a lifetime transmute.
#![deny(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// A type-erased unit of work owned by the queue.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A borrowed unit of work submitted via [`run_scoped`].
pub type ScopedTask<'env> = Box<dyn FnOnce() + Send + 'env>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Number of spawned worker threads (grows monotonically).
    workers: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Poison-tolerant lock: jobs are wrapped in `catch_unwind`, so a poisoned
/// mutex can only mean a panic in bookkeeping code; recover rather than
/// cascade.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
        }),
        workers: Mutex::new(0),
    })
}

/// Default worker-thread target: one thread per logical CPU beyond the
/// caller, overridable with `SOTERIA_NN_THREADS` (total thread count
/// including the caller; `1` forces fully inline execution).
fn default_threads() -> usize {
    let avail = std::env::var("SOTERIA_NN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        });
    avail.saturating_sub(1)
}

/// Ensures at least `n` pool worker threads exist (capped at 64). Returns
/// the worker count after the call. Threads are spawned once and live for
/// the process lifetime; they share one queue.
///
/// Telemetry keys keep their historical `nn.pool.*` names so committed
/// baselines and dashboards stay comparable across the promotion of the
/// pool out of `soteria-nn`.
pub fn ensure_threads(n: usize) -> usize {
    let n = n.min(64);
    let p = pool();
    let mut workers = lock(&p.workers);
    while *workers < n {
        let shared = Arc::clone(&p.shared);
        std::thread::Builder::new()
            .name(format!("soteria-pool-{}", *workers))
            .spawn(move || worker_loop(&shared))
            .expect("spawn pool worker");
        *workers += 1;
    }
    // A gauge, not a histogram: thread count is live state, not a sample
    // distribution.
    soteria_telemetry::gauge_set("nn.pool.threads", *workers as i64);
    *workers
}

/// Lazily initializes the pool at its default size. Call once at service
/// startup to move thread-spawn latency out of the first request.
pub fn warm() -> usize {
    ensure_threads(default_threads())
}

/// Current number of pool worker threads (0 until the pool is warmed; the
/// calling thread always participates in addition to these).
pub fn pool_threads() -> usize {
    match POOL.get() {
        Some(p) => *lock(&p.workers),
        None => 0,
    }
}

/// Number of threads that actually execute work: the pool workers plus
/// the calling thread (which always runs tasks itself in [`run_scoped`]).
/// This is the number benches should report — on a single-core host the
/// pool spawns zero workers, yet one thread still computes, so the
/// historical habit of reporting `pool_threads()` produced the misleading
/// `"pool_threads": 0`.
pub fn effective_threads() -> usize {
    pool_threads() + 1
}

/// Worker threads pull jobs forever; each job is panic-isolated by its
/// wrapper, so the loop itself never unwinds.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = shared
                    .work_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The wrapper built in `run_scoped` already catch_unwinds the
        // user task; this outer guard only shields the loop from
        // hypothetical bookkeeping panics.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// Per-`run_scoped` completion barrier.
struct Group {
    remaining: Mutex<usize>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Group {
    fn complete(&self, payload: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(p) = payload {
            lock(&self.panic).get_or_insert(p);
        }
        let mut rem = lock(&self.remaining);
        *rem -= 1;
        if *rem == 0 {
            self.done_cv.notify_all();
        }
    }
}

/// Runs borrowed tasks to completion, using the worker pool when it has
/// threads and inline execution otherwise.
///
/// The calling thread executes the first task itself, then helps drain the
/// shared queue while waiting for its remaining tasks — so nested calls
/// (a task that itself calls `run_scoped`) always make progress even on a
/// single worker. The function returns only after **every** task has
/// finished, which is what makes handing `'env`-borrowed closures to
/// `'static` worker threads sound.
///
/// # Panics
///
/// If any task panics, the first payload is re-raised *after* all tasks
/// have completed (no task is leaked mid-flight).
pub fn run_scoped(tasks: Vec<ScopedTask<'_>>) {
    if tasks.len() <= 1 || pool_threads() == 0 {
        for t in tasks {
            t();
        }
        return;
    }
    run_scoped_pooled(tasks);
}

/// The pooled path of [`run_scoped`], split out so the inline fast path
/// stays free of synchronization. The single `unsafe` in this crate lives
/// here.
#[allow(unsafe_code)]
fn run_scoped_pooled(tasks: Vec<ScopedTask<'_>>) {
    let p = pool();
    let n_remote = tasks.len() - 1;
    let group = Arc::new(Group {
        remaining: Mutex::new(n_remote),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });

    let mut it = tasks.into_iter();
    let first = it.next().expect("len checked > 1");
    {
        let mut q = lock(&p.shared.queue);
        for task in it {
            // SAFETY: only the lifetime is transmuted. This function does
            // not return (or unwind — every path below is panic-free or
            // catch_unwind-wrapped) until `group.remaining` reaches zero,
            // i.e. until every enqueued task has finished running, so no
            // `'env` borrow inside `task` outlives its referent.
            let task: ScopedTask<'static> =
                unsafe { std::mem::transmute::<ScopedTask<'_>, ScopedTask<'static>>(task) };
            let g = Arc::clone(&group);
            let enqueued = Instant::now();
            q.push_back(Box::new(move || {
                soteria_telemetry::record(
                    "nn.pool.queue_wait_us",
                    enqueued.elapsed().as_secs_f64() * 1e6,
                );
                let outcome = catch_unwind(AssertUnwindSafe(task));
                g.complete(outcome.err());
            }));
        }
        p.shared.work_cv.notify_all();
    }
    soteria_telemetry::counter("nn.pool.jobs", n_remote as u64);
    soteria_telemetry::counter("nn.pool.runs", 1);

    let first_panic = catch_unwind(AssertUnwindSafe(first)).err();

    // Join barrier: help drain the queue while waiting. Helping may run
    // jobs from other concurrent groups; every job is finite and
    // self-completing, so this only trades latency for progress.
    loop {
        let job = {
            let mut q = lock(&p.shared.queue);
            q.pop_front()
        };
        if let Some(job) = job {
            job();
            continue;
        }
        let rem = lock(&group.remaining);
        if *rem == 0 {
            break;
        }
        // Timed wait so newly enqueued nested jobs are picked up promptly
        // even if their notify raced with this check.
        let (rem, _) = group
            .done_cv
            .wait_timeout(rem, std::time::Duration::from_millis(5))
            .unwrap_or_else(PoisonError::into_inner);
        if *rem == 0 {
            break;
        }
    }

    if let Some(p) = first_panic {
        resume_unwind(p);
    }
    let payload = lock(&group.panic).take();
    if let Some(p) = payload {
        resume_unwind(p);
    }
}

/// Splits `rows` into at most `jobs` contiguous chunks of equal ceiling
/// size — the partitioning used by every pooled kernel. Chunk boundaries
/// never affect results (each output row is owned by one chunk).
pub fn chunk_rows(rows: usize, jobs: usize) -> usize {
    rows.div_ceil(jobs.max(1))
}

/// Applies `f(index, item)` to every item, in parallel on the pool, and
/// returns the results in input order — the per-sample fan-out every
/// batch path in the workspace uses.
///
/// The items are split into contiguous chunks over `pool_threads() + 1`
/// threads, the calling thread running one of them. The pool is not
/// warmed here: without workers (or with a single item) everything runs
/// inline on the caller. Each item owns its output slot, so results are
/// bit-identical at any pool size.
///
/// # Panics
///
/// If `f` panics on an item, the remaining items still run; the panic of
/// the lowest-indexed failing item is re-raised once every item has run.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let chunk = chunk_rows(items.len(), pool_threads() + 1);
    let mut slots: Vec<Option<std::thread::Result<R>>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let f = &f;
    let tasks: Vec<ScopedTask<'_>> = items
        .chunks(chunk)
        .zip(slots.chunks_mut(chunk))
        .enumerate()
        .map(|(t, (item_chunk, slot_chunk))| {
            Box::new(move || {
                for (j, (item, slot)) in item_chunk.iter().zip(slot_chunk).enumerate() {
                    *slot = Some(catch_unwind(AssertUnwindSafe(|| f(t * chunk + j, item))));
                }
            }) as ScopedTask<'_>
        })
        .collect();
    run_scoped(tasks);
    slots
        .into_iter()
        .map(|slot| match slot.expect("every chunk fills its slots") {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_scoped_executes_all_tasks_inline_and_pooled() {
        for threads in [0usize, 3] {
            if threads > 0 {
                ensure_threads(threads);
            }
            let counter = AtomicUsize::new(0);
            let tasks: Vec<ScopedTask<'_>> = (0..17)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }) as ScopedTask<'_>
                })
                .collect();
            run_scoped(tasks);
            assert_eq!(counter.load(Ordering::SeqCst), 17);
        }
    }

    #[test]
    fn run_scoped_propagates_panics_after_the_barrier() {
        ensure_threads(2);
        let finished = AtomicUsize::new(0);
        let mut tasks: Vec<ScopedTask<'_>> = vec![Box::new(|| panic!("task boom"))];
        for _ in 0..6 {
            tasks.push(Box::new(|| {
                finished.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let err = catch_unwind(AssertUnwindSafe(|| run_scoped(tasks))).unwrap_err();
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "task boom");
        // The barrier guarantees the surviving tasks all ran.
        assert_eq!(finished.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn nested_run_scoped_makes_progress() {
        ensure_threads(2);
        let total = AtomicUsize::new(0);
        let outer: Vec<ScopedTask<'_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    let inner: Vec<ScopedTask<'_>> = (0..4)
                        .map(|_| {
                            Box::new(|| {
                                total.fetch_add(1, Ordering::SeqCst);
                            }) as ScopedTask<'_>
                        })
                        .collect();
                    run_scoped(inner);
                }) as ScopedTask<'_>
            })
            .collect();
        run_scoped(outer);
        assert_eq!(total.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn map_reraises_a_panic_only_after_every_item_ran() {
        ensure_threads(2);
        let ran = AtomicUsize::new(0);
        let items: Vec<usize> = (0..12).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            map(&items, |i, _| {
                if i == 1 || i == 7 {
                    panic!("item {i} boom");
                }
                ran.fetch_add(1, Ordering::SeqCst);
            })
        }))
        .unwrap_err();
        // Item 1's chunk-mates after it still ran, and the lowest-indexed
        // panic is the one re-raised.
        assert_eq!(ran.load(Ordering::SeqCst), 10);
        assert_eq!(err.downcast_ref::<String>().unwrap(), "item 1 boom");
    }

    #[test]
    fn chunk_rows_covers_all_rows() {
        for rows in 0..40usize {
            for jobs in 0..9usize {
                let per = chunk_rows(rows, jobs);
                if rows > 0 {
                    assert!(per >= 1);
                    assert!(per * jobs.max(1) >= rows, "rows={rows} jobs={jobs}");
                }
            }
        }
    }
}
