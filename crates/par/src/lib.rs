//! # segrout-par — deterministic parallelism for the optimizer hot paths
//!
//! A zero-dependency worker pool with chunked [`par_map`] over index
//! ranges. The design goal is a hard **determinism contract**: for a pure
//! per-index function `f`, every result of this crate is **bit-identical
//! at any thread count** — `SEGROUT_THREADS=1` (the serial reference),
//! `2`, `8`, or the machine default all produce the same bytes.
//!
//! How the contract is met:
//!
//! * [`par_map`] writes each `f(i)` into a dedicated result slot `i`; the
//!   scheduling order can vary, the output vector cannot.
//! * A caller that reduces the results folds that vector **in index order
//!   on its own thread** — floating-point accumulation order is fixed, so
//!   non-associativity of `f64` addition never leaks thread-count noise.
//! * With an effective thread count of 1 the pool is bypassed entirely and
//!   `f` runs inline on the caller — the serial path is the parallel path
//!   with the scheduling removed, not a separate code path.
//!
//! ## Execution model
//!
//! A process-wide pool of parked worker threads serves all calls. Each
//! parallel batch claims chunks of the index range from a shared atomic
//! cursor; the **caller participates** (it drains chunks inline like any
//! worker), which makes nested `par_map` calls deadlock-free by
//! construction: a batch never depends on queue service for progress, only
//! on chunks already claimed by running workers. Panics in `f` are caught,
//! the batch is drained, and the first payload is re-thrown on the caller
//! ([`std::panic::resume_unwind`]).
//!
//! ## Thread-count knobs
//!
//! Priority order: [`set_threads`] (the `--threads` CLI flag) >
//! `SEGROUT_THREADS` > [`std::thread::available_parallelism`].
//!
//! ## Observability
//!
//! The pool feeds the `segrout-obs` registry: `par.tasks` (chunks executed,
//! added once per batch by its caller after the last chunk completes, so a
//! read after `par_map` returns sees them all), `par.batches` (parallel
//! batches started),
//! `par.steal_or_queue_wait` (milliseconds workers spend parked waiting for
//! work) and the `time.par.batch` span histogram. The serial inline path
//! records nothing, so `SEGROUT_THREADS=1` runs carry zero overhead.

#![warn(missing_docs)]

use segrout_obs::{Counter, Histogram};
use std::collections::VecDeque;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on pool workers, guarding against absurd `--threads` values.
const MAX_WORKERS: usize = 512;

/// Process-wide thread-count override (0 = unset, fall back to the
/// environment / hardware default).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the effective thread count for every subsequent parallel call
/// (the `--threads` flag). `0` restores the default resolution order
/// (`SEGROUT_THREADS`, then [`std::thread::available_parallelism`]).
///
/// Changing the thread count never changes any result — only how fast it
/// is produced.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::SeqCst);
}

/// The effective thread count: [`set_threads`] override if set, else
/// `SEGROUT_THREADS`, else [`std::thread::available_parallelism`].
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o.min(MAX_WORKERS);
    }
    default_threads()
}

/// Resolves (once) the environment / hardware default thread count.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("SEGROUT_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .min(MAX_WORKERS)
    })
}

/// Monomorphized chunk executor: runs `f(i)` for `i in start..end` and
/// writes each value into result slot `i`.
///
/// # Safety
/// `data` must point to a live `F`, `results` to a live array of at least
/// `end` `MaybeUninit<R>` slots, and the caller must own indices
/// `start..end` exclusively.
type ChunkFn = unsafe fn(data: *const (), results: *mut (), start: usize, end: usize);

/// Shared control block of one parallel batch.
///
/// The block is reference-counted into the pool queue, so clones of it can
/// outlive the owning [`par_map`] call (workers may pop a queued job after
/// the batch already completed). All fields a *stale* job touches are
/// owned by value or atomic; the raw `data` / `results` pointers into the
/// caller's frame are only dereferenced after winning a chunk claim
/// (`start < n`), which stale jobs — by construction — cannot do.
struct Batch {
    /// Type-erased pointer to the caller's `f` closure.
    data: *const (),
    /// Type-erased pointer to the caller's `MaybeUninit<R>` result array.
    results: *mut (),
    /// Monomorphized executor for one chunk.
    call: ChunkFn,
    /// Number of items in the batch.
    n: usize,
    /// Chunk size used when claiming index ranges.
    chunk: usize,
    /// Next unclaimed index (monotone; claims beyond `n` are stale no-ops).
    next: AtomicUsize,
    /// Number of completed items; the batch is done at `n`.
    completed: AtomicUsize,
    /// First panic payload raised by `f`, re-thrown on the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    /// Paired with `done` for the caller's completion wait.
    done_lock: Mutex<()>,
    /// Notified when `completed` reaches `n`.
    done: Condvar,
}

// SAFETY: the raw pointers target the owning caller's frame, which outlives
// every dereference: `run` only dereferences them after claiming a chunk,
// and the caller blocks until all chunks complete. Claims hand out disjoint
// index ranges, so slot writes never alias; `F: Sync` / `R: Send` are
// enforced by `par_map`'s bounds before type erasure.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and executes chunks until the range is exhausted.
    fn run(&self) {
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                return;
            }
            let end = (start + self.chunk).min(self.n);
            // SAFETY: `start < n` proves the owning `par_map` has not
            // returned (it waits for all chunks), so `data` and `results`
            // are alive, and the fetch_add above granted this thread
            // exclusive ownership of slots `start..end`.
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe {
                (self.call)(self.data, self.results, start, end)
            }));
            if let Err(payload) = outcome {
                let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
            // AcqRel: result writes above happen-before the caller's
            // Acquire load of `completed` (panicked chunks count as
            // completed so the caller always wakes).
            let done = self.completed.fetch_add(end - start, Ordering::AcqRel) + (end - start);
            if done == self.n {
                drop(self.done_lock.lock().unwrap_or_else(|e| e.into_inner()));
                self.done.notify_all();
            }
        }
    }
}

/// The process-wide worker pool.
struct Pool {
    /// Pending batch jobs; workers pop, callers push.
    queue: Mutex<VecDeque<Arc<Batch>>>,
    /// Signals workers that `queue` gained a job.
    job_ready: Condvar,
    /// Number of worker threads spawned so far (grown on demand).
    spawned: Mutex<usize>,
    /// `par.tasks`: chunks executed, added by each batch's caller.
    tasks: Arc<Counter>,
    /// `par.batches`: parallel batches started.
    batches: Arc<Counter>,
    /// `par.steal_or_queue_wait`: ms workers spend parked awaiting work.
    wait: Arc<Histogram>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        job_ready: Condvar::new(),
        spawned: Mutex::new(0),
        tasks: segrout_obs::counter("par.tasks"),
        batches: segrout_obs::counter("par.batches"),
        wait: segrout_obs::histogram("par.steal_or_queue_wait", segrout_obs::time_bounds_ms()),
    })
}

impl Pool {
    /// Grows the pool to at least `target` parked workers.
    fn ensure_workers(&'static self, target: usize) {
        let target = target.min(MAX_WORKERS);
        let mut spawned = self.spawned.lock().unwrap_or_else(|e| e.into_inner());
        while *spawned < target {
            let id = *spawned;
            std::thread::Builder::new()
                .name(format!("segrout-par-{id}"))
                .spawn(move || self.worker_loop())
                .expect("spawning a pool worker thread");
            *spawned += 1;
        }
    }

    /// A worker: pop a batch job, drain chunks, repeat.
    fn worker_loop(&'static self) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    let parked = Instant::now();
                    q = self.job_ready.wait(q).unwrap_or_else(|e| e.into_inner());
                    self.wait.observe(parked.elapsed().as_secs_f64() * 1e3);
                }
            };
            job.run();
        }
    }
}

/// Maps `f` over `0..n`, returning `vec![f(0), f(1), …, f(n-1)]`.
///
/// Work is chunked over the pool; results land in per-index slots, so the
/// output is **bit-identical at any thread count**. With an effective
/// thread count of 1 (or `n <= 1`) `f` runs inline with zero pool overhead
/// — that inline execution *is* the serial reference the determinism tests
/// compare against.
///
/// # Panics
/// If `f` panics for any index, the batch is drained and the first payload
/// is re-thrown on the caller. Result values already produced are leaked
/// (not dropped) in that case.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_min(n, DEFAULT_SERIAL_CUTOFF, f)
}

/// Default serial-fallback threshold of [`par_map`]: batches smaller than
/// this run inline on the caller even when the pool has threads — enqueue,
/// wakeup and claim traffic cost more than a couple of items of work.
pub const DEFAULT_SERIAL_CUTOFF: usize = 4;

/// [`par_map`] with an explicit work threshold: batches with
/// `n < serial_below` run inline on the caller instead of dispatching to
/// the pool. The threshold only affects scheduling, never results — the
/// inline path is the serial reference the determinism contract is pinned
/// to.
///
/// Callers whose per-item work is tiny (e.g. GreedyWPO's sparse
/// single-segment probes, microseconds each) should pass a threshold in the
/// hundreds; the default [`par_map`] threshold assumes items worth at least
/// a Dijkstra.
pub fn par_map_min<R, F>(n: usize, serial_below: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let t = threads();
    if t <= 1 || n <= 1 || n < serial_below {
        return (0..n).map(f).collect();
    }
    par_map_chunked(n, auto_chunk(n, t), f)
}

/// Default chunk size. Small batches get ≈2 chunks per participant —
/// dispatch and claim traffic dominate, so fewer, larger chunks win; big
/// batches get ≈4 per participant for load balancing.
fn auto_chunk(n: usize, t: usize) -> usize {
    if n < 64 * t {
        n.div_ceil(2 * t).max(1)
    } else {
        (n / (4 * t)).max(1)
    }
}

/// [`par_map`] with an explicit chunk size (indices are claimed in runs of
/// `chunk`). Chunking only affects scheduling — never results.
pub fn par_map_chunked<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let t = threads();
    if t <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let pool = pool();
    let _span = segrout_obs::span("par.batch");
    pool.batches.inc();

    let mut results: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit` requires no initialization; length == capacity.
    unsafe { results.set_len(n) };

    /// Monomorphized [`ChunkFn`] for this `(R, F)` pair.
    ///
    /// # Safety
    /// See [`ChunkFn`]: live `f`, live result array, exclusive slots.
    unsafe fn chunk_shim<R, F: Fn(usize) -> R>(
        data: *const (),
        results: *mut (),
        start: usize,
        end: usize,
    ) {
        // SAFETY: guaranteed by the ChunkFn contract upheld in Batch::run.
        let f = unsafe { &*data.cast::<F>() };
        let out = results.cast::<MaybeUninit<R>>();
        for i in start..end {
            let value = f(i);
            // SAFETY: slot `i` lies in this call's exclusive range.
            unsafe { (*out.add(i)).write(value) };
        }
    }

    let batch = Arc::new(Batch {
        data: std::ptr::from_ref(&f).cast(),
        results: results.as_mut_ptr().cast(),
        call: chunk_shim::<R, F>,
        n,
        chunk: chunk.max(1),
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        panic: Mutex::new(None),
        done_lock: Mutex::new(()),
        done: Condvar::new(),
    });

    // Enqueue helper jobs (the caller is the remaining participant).
    let n_chunks = n.div_ceil(chunk.max(1));
    let helpers = (t - 1).min(n_chunks.saturating_sub(1));
    if helpers > 0 {
        pool.ensure_workers(helpers);
        {
            let mut q = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
            for _ in 0..helpers {
                q.push_back(Arc::clone(&batch));
            }
        }
        // Wake exactly one parked worker per queued job — `notify_all`
        // would stampede every worker in the pool through the queue lock
        // even when only a couple of helper slots exist.
        for _ in 0..helpers {
            pool.job_ready.notify_one();
        }
    }

    // The caller drains chunks like any worker — this is what makes nested
    // batches deadlock-free: progress never depends on queue service.
    batch.run();

    // Wait for chunks claimed (and still running) on workers.
    {
        let mut guard = batch.done_lock.lock().unwrap_or_else(|e| e.into_inner());
        while batch.completed.load(Ordering::Acquire) < n {
            guard = batch.done.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
    // Every chunk ran exactly once, a panicked one included.
    pool.tasks.add(n_chunks as u64);

    let payload = batch.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(payload) = payload {
        // Initialized result slots are leaked deliberately: `MaybeUninit`
        // never drops, and the panic path must not read half-built output.
        resume_unwind(payload);
    }

    // SAFETY: `completed == n` with no panic means every slot was written
    // exactly once; `MaybeUninit<R>` has `R`'s layout, so the buffer can be
    // reinterpreted in place.
    unsafe {
        let mut raw = ManuallyDrop::new(results);
        Vec::from_raw_parts(raw.as_mut_ptr().cast::<R>(), n, raw.capacity())
    }
}

/// Maps `f` over `items` by index (`f(i, &items[i])`).
pub fn par_map_slice<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map(items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forces the parallel code path regardless of the host's core count.
    fn forced(n_threads: usize, f: impl FnOnce()) {
        set_threads(n_threads);
        f();
        set_threads(0);
    }

    #[test]
    fn auto_chunk_is_sane() {
        assert_eq!(auto_chunk(1, 8), 1);
        assert_eq!(auto_chunk(7, 4), 1);
        // Below 64·t: ~2 chunks per participant.
        assert_eq!(auto_chunk(100, 4), 13);
        // At and above 64·t: ~4 chunks per participant.
        assert_eq!(auto_chunk(1000, 4), 62);
        assert_eq!(auto_chunk(10_000, 4), 625);
    }

    #[test]
    fn serial_cutoff_keeps_results_identical() {
        forced(4, || {
            for cutoff in [0, 1, 8, 1000] {
                let got: Vec<usize> = par_map_min(37, cutoff, |i| i * 7);
                assert_eq!(
                    got,
                    (0..37).map(|i| i * 7).collect::<Vec<_>>(),
                    "cutoff={cutoff}"
                );
            }
        });
    }

    #[test]
    fn inline_path_matches_parallel_path() {
        let serial: Vec<usize> = {
            set_threads(1);
            par_map(100, |i| i * i)
        };
        let parallel: Vec<usize> = {
            set_threads(4);
            par_map(100, |i| i * i)
        };
        set_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn chunked_variant_matches() {
        forced(3, || {
            for chunk in [1, 2, 7, 100, 1000] {
                let got: Vec<usize> = par_map_chunked(53, chunk, |i| i + 1);
                assert_eq!(got, (1..=53).collect::<Vec<_>>(), "chunk={chunk}");
            }
        });
    }

    #[test]
    fn threads_env_floor_is_one() {
        assert!(threads() >= 1);
    }
}
