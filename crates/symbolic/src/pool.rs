//! A hand-rolled thread pool for every parallel phase of the pipeline.
//!
//! The workspace is dependency-free (no rayon), so fan-out is built
//! directly on [`std::thread`]. Two layers:
//!
//! * [`WorkerPool`] — a **persistent** pool: workers are spawned once
//!   (per driver run / session / service tenant) and reused across the
//!   budget scan, the per-function part analyses, every GR wave level,
//!   the matrix tiles and the snapshot load. Dispatching a batch onto
//!   live workers is a condvar wake, not `threads` thread spawns — the
//!   difference is the dominant constant factor on deep wave schedules,
//!   which dispatch thousands of tiny batches.
//! * [`run_indexed`]/[`run_map`] — free-function shims with the
//!   pre-pool signature. Each call builds a short-lived
//!   [`WorkerPool::forced`] with exactly the requested width, so
//!   one-shot callers and the claiming-discipline tests keep working
//!   unchanged (including on machines with fewer cores than the
//!   requested width). Hot paths should hold a [`WorkerPool`] instead.
//!
//! Jobs are indices `0..n`; workers claim them from a shared atomic
//! counter and results are reassembled in index order, so the output is
//! a plain `Vec<T>` whose contents are independent of thread
//! scheduling.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A reasonable worker count for this machine: the available
/// parallelism, capped so tiny machines and CI runners stay responsive.
/// The OS query runs once; hot paths that consult the default per call
/// hit a cached value.
pub fn default_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 16)
    })
}

/// The dispatch protocol shared between the owning thread and the
/// workers. A batch is published as a generation bump plus a job
/// pointer; every worker runs the job exactly once per generation and
/// decrements `active` when done.
struct Shared {
    state: Mutex<Dispatch>,
    /// Workers wait here for the next generation (or shutdown).
    work: Condvar,
    /// Dispatchers wait here for `active == 0` (and for the slot).
    done: Condvar,
}

struct Dispatch {
    /// Bumped once per published batch.
    generation: u64,
    /// The current batch's entry point. `None` between batches. The
    /// `'static` is a lie told by [`WorkerPool::run_batch`]; see the
    /// safety argument there.
    job: Option<&'static (dyn Fn() + Sync)>,
    /// Workers still inside the current batch.
    active: usize,
    /// A worker's half of the batch panicked.
    panicked: bool,
    shutdown: bool,
}

/// A persistent worker pool.
///
/// `run_indexed`/`run_map` have the same claiming discipline as the
/// free functions — dynamic claiming from an atomic counter, results
/// reassembled in index order — so results never depend on thread
/// timing or on the pool's width. Dropping the pool signals shutdown
/// and joins every worker.
///
/// The pool's width is fixed at construction: [`WorkerPool::new`] caps
/// it at the hardware's available parallelism (oversubscribing a small
/// machine only adds scheduling overhead — the claiming discipline
/// guarantees the results are identical at any width), while
/// [`WorkerPool::forced`] takes the width literally (for equivalence
/// rails that must exercise the concurrent paths on any machine).
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of width `min(threads, available parallelism)`: the
    /// caller thread plus that many minus one spawned workers.
    /// `threads <= 1` (or a single-core machine) spawns nothing —
    /// every batch then runs inline, the deterministic reference path.
    pub fn new(threads: usize) -> Self {
        Self::with_width(threads.max(1).min(default_threads()))
    }

    /// A pool of exactly `threads` width regardless of the hardware —
    /// the equivalence rails and the legacy-baseline bench arm use this
    /// to exercise the concurrent claiming paths even on one core.
    pub fn forced(threads: usize) -> Self {
        Self::with_width(threads.max(1))
    }

    fn with_width(width: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(Dispatch {
                generation: 0,
                job: None,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..width)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// The pool's width: the caller thread plus the spawned workers.
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(0), f(1), …, f(n-1)` across the pool and returns the
    /// results in index order.
    ///
    /// Work is claimed dynamically (an atomic next-index counter), so
    /// uneven job sizes balance automatically. A width-1 pool (or a
    /// single job) runs everything inline on the caller thread.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if self.workers.is_empty() || n == 1 {
            return (0..n).map(f).collect();
        }

        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<Vec<(usize, T)>>> = Mutex::new(Vec::new());
        self.run_batch(&|| {
            let mut local = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                local.push((i, f(i)));
            }
            if !local.is_empty() {
                collected.lock().expect("pool results lock").push(local);
            }
        });

        // Reassemble in index order.
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for batch in collected.into_inner().expect("pool results lock") {
            for (i, v) in batch {
                debug_assert!(slots[i].is_none(), "job {i} ran twice");
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, v)| v.unwrap_or_else(|| panic!("job {i} never ran")))
            .collect()
    }

    /// Like [`WorkerPool::run_indexed`], but each job consumes an owned
    /// input item: `f(items[0]), f(items[1]), …`, results in item
    /// order.
    ///
    /// Owned inputs let jobs *move* heavyweight state (the GR wave
    /// scheduler hands each SCC its state vectors without cloning).
    /// Items are parked in per-slot mutexes so workers can take them;
    /// the lock is uncontended — every slot is taken exactly once.
    pub fn run_map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        if self.workers.is_empty() || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        self.run_indexed(slots.len(), |i| {
            let item = slots[i]
                .lock()
                .expect("pool item lock")
                .take()
                .expect("pool item taken once");
            f(item)
        })
    }

    /// Publishes `job` to every worker, runs it on the caller thread
    /// too, and returns once all of them are done with it.
    fn run_batch(&self, job: &(dyn Fn() + Sync)) {
        // SAFETY (the only `unsafe` in the workspace): the workers need
        // a `'static` view of `job` because they outlive this call, but
        // they only ever *dereference* it between the generation bump
        // below and their matching `active` decrement — and this
        // function does not return (or unwind) until `active == 0` and
        // the slot is cleared, so the borrow is live across every use.
        let job: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), _>(job) };
        {
            let mut st = self.shared.state.lock().expect("pool state lock");
            // Serialize dispatchers: wait for the slot (concurrent
            // callers sharing one pool simply take turns).
            while st.job.is_some() {
                st = self.shared.done.wait(st).expect("pool state lock");
            }
            st.job = Some(job);
            st.active = self.workers.len();
            st.generation += 1;
            self.shared.work.notify_all();
        }

        // The caller participates in its own batch. Catch a panic so
        // the workers — still borrowing `job` — are always drained
        // before the stack frame unwinds away.
        let mine = catch_unwind(AssertUnwindSafe(&job));

        let worker_panicked = {
            let mut st = self.shared.state.lock().expect("pool state lock");
            while st.active > 0 {
                st = self.shared.done.wait(st).expect("pool state lock");
            }
            st.job = None;
            std::mem::replace(&mut st.panicked, false)
        };
        self.shared.done.notify_all();
        match mine {
            Err(payload) => resume_unwind(payload),
            Ok(()) if worker_panicked => panic!("pool worker panicked"),
            Ok(()) => {}
        }
    }

    /// The shared dispatch state, weakly — lets the drop-joins test
    /// observe that every worker released its handle.
    #[cfg(test)]
    fn shared_probe(&self) -> std::sync::Weak<Shared> {
        Arc::downgrade(&self.shared)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state lock");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.workers.drain(..) {
            // A worker only terminates abnormally if a job panicked;
            // that panic was already surfaced by `run_batch`.
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    break st.job.expect("generation advanced without a job");
                }
                st = shared.work.wait(st).expect("pool state lock");
            }
        };
        let result = catch_unwind(AssertUnwindSafe(job));
        let mut st = shared.state.lock().expect("pool state lock");
        st.active -= 1;
        if result.is_err() {
            st.panicked = true;
        }
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// Runs `f(0), f(1), …, f(n-1)` across `threads` workers and returns
/// the results in index order — a one-shot [`WorkerPool::forced`] of
/// exactly that width. Hot paths should hold a [`WorkerPool`] and call
/// [`WorkerPool::run_indexed`] instead.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n <= 1 || threads <= 1 {
        return (0..n).map(f).collect();
    }
    WorkerPool::forced(threads.min(n)).run_indexed(n, f)
}

/// Like [`run_indexed`], but each job consumes an owned input item —
/// the one-shot counterpart of [`WorkerPool::run_map`].
pub fn run_map<I, T, F>(items: Vec<I>, threads: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    WorkerPool::forced(threads.min(items.len())).run_map(items, f)
}

/// Splits `0..total` into at most `pieces` contiguous, non-empty
/// `(start, end)` ranges of near-equal length, in order.
///
/// The matrix build tiles its stored cells with this: the tile list is
/// deterministic (it depends only on `total` and `pieces`), so
/// concatenating per-tile results reproduces the serial sweep exactly.
pub fn chunk_bounds(total: usize, pieces: usize) -> Vec<(usize, usize)> {
    if total == 0 {
        return Vec::new();
    }
    let pieces = pieces.clamp(1, total);
    let base = total / pieces;
    let extra = total % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0;
    for k in 0..pieces {
        let len = base + usize::from(k < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let out = run_indexed(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn uneven_jobs_balance() {
        // Jobs of very different sizes still all complete and land in
        // order.
        let out = run_indexed(16, 4, |i| {
            let mut acc = 0u64;
            for k in 0..(i as u64 * 10_000) {
                acc = acc.wrapping_add(k);
            }
            (i, acc)
        });
        for (i, (j, _)) in out.iter().enumerate() {
            assert_eq!(i, *j);
        }
    }

    #[test]
    fn run_map_moves_items_in_order() {
        for threads in [1, 2, 4] {
            let items: Vec<String> = (0..17).map(|i| format!("job{i}")).collect();
            let out = run_map(items, threads, |s| s + "!");
            assert_eq!(out.len(), 17);
            for (i, s) in out.iter().enumerate() {
                assert_eq!(s, &format!("job{i}!"));
            }
        }
        assert_eq!(run_map(Vec::<u8>::new(), 4, |x| x), Vec::<u8>::new());
    }

    #[test]
    fn default_threads_sane_and_cached() {
        let t = default_threads();
        assert!((1..=16).contains(&t));
        // The OnceLock makes repeat queries free and stable.
        assert_eq!(default_threads(), t);
    }

    #[test]
    fn pool_reuse_is_deterministic() {
        // One pool dispatching many heterogeneous batches back to back
        // keeps producing schedule-independent results — reuse leaks no
        // state from batch to batch.
        let pool = WorkerPool::forced(4);
        for round in 0..50usize {
            let n = (round * 7) % 23;
            let out = pool.run_indexed(n, |i| i * round);
            assert_eq!(out, (0..n).map(|i| i * round).collect::<Vec<_>>());
            let mapped = pool.run_map((0..n).collect::<Vec<_>>(), |i| i + round);
            assert_eq!(mapped, (0..n).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_matches_free_functions() {
        for width in [1, 2, 4, 9] {
            let pool = WorkerPool::forced(width);
            assert_eq!(pool.threads(), width);
            assert_eq!(
                pool.run_indexed(31, |i| 3 * i),
                run_indexed(31, width, |i| 3 * i)
            );
        }
    }

    #[test]
    fn new_caps_at_hardware() {
        let pool = WorkerPool::new(usize::MAX);
        assert!(pool.threads() <= default_threads());
        assert!(WorkerPool::new(0).threads() == 1);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::forced(4);
        let probe = pool.shared_probe();
        assert_eq!(pool.run_indexed(100, |i| i).len(), 100);
        drop(pool);
        // Every worker held an Arc to the shared state; joined workers
        // have released theirs, so only our weak probe remains.
        assert!(probe.upgrade().is_none(), "workers still alive after drop");
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives_drop() {
        let pool = WorkerPool::forced(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(64, |i| {
                if i == 33 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(caught.is_err());
        drop(pool); // must not hang or double-panic
    }

    #[test]
    fn chunk_bounds_cover_exactly_once() {
        for total in [0usize, 1, 2, 7, 16, 100, 101] {
            for pieces in [1usize, 2, 3, 8, 200] {
                let bounds = chunk_bounds(total, pieces);
                if total == 0 {
                    assert!(bounds.is_empty());
                    continue;
                }
                assert!(bounds.len() <= pieces.max(1));
                let mut at = 0;
                for &(lo, hi) in &bounds {
                    assert_eq!(lo, at, "contiguous");
                    assert!(hi > lo, "non-empty");
                    at = hi;
                }
                assert_eq!(at, total, "covers 0..total");
                // Near-equal: lengths differ by at most one.
                let lens: Vec<usize> = bounds.iter().map(|&(lo, hi)| hi - lo).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "balanced: {lens:?}");
            }
        }
    }
}
