//! Offline stand-in for the [`rayon`](https://docs.rs/rayon) crate.
//!
//! The build environment for this workspace has no crates.io access, so
//! this shim implements the *subset* of the rayon API the workspace uses —
//! `par_iter()` / `into_par_iter()` pipelines ending in `collect`/`sum`,
//! in-place chunked writes to a slice ([`ParallelSliceMut`]), and
//! `ThreadPoolBuilder` / `ThreadPool::install` — on top of a
//! lazily-initialized persistent worker pool. Semantics the workspace
//! relies on are preserved:
//!
//! - **Order preservation:** `collect` returns results in input order, so
//!   synchronous-schedule BP stays bit-deterministic across pool sizes.
//! - **Real parallelism:** items are chunked across long-lived OS worker
//!   threads (spawned once, on first use — not per call); small inputs
//!   run inline to avoid queueing overhead in inner loops. One rule picks
//!   the chunks of every forked call: inline for fewer than 32 items or
//!   one installed thread, else `n.div_ceil(threads)` items (at least
//!   16) per chunk job, all dispatched as one pool batch.
//! - **In-place slices:** [`ParallelSliceMut::par_map_chunks_mut`] hands
//!   each chunk job a `&mut` chunk of a slice and its start index, by the
//!   same rule and through the same batch as a map, and returns the
//!   jobs' results in chunk order; a caller writes results into their
//!   slots instead of collecting and settling a result vector.
//! - **Pool-size control:** `ThreadPool::install` scopes an effective
//!   thread count so scaling experiments can compare 1 thread vs many.
//!   The installed count governs *chunking* (and therefore results are a
//!   pure function of it), while the shared workers simply execute
//!   whatever chunks exist, so beliefs stay bit-identical across pool
//!   sizes.
//! - **Nesting safety:** a thread waiting on its own parallel map helps
//!   drain the shared queue instead of sleeping, so `par_iter` inside a
//!   `par_iter` job (or inside nested `install` scopes) cannot deadlock.
//!
//! To use the real crate instead, point the `rayon` entry of
//! `[workspace.dependencies]` back at a registry version. Only the
//! `par_map_chunks_mut` call sites change, to rayon's
//! `par_chunks_mut(size).enumerate().map(..).collect()` with a chunk size
//! of the caller's choosing.

// Library lint policy (README "Correctness tooling"); test code is exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp,
        clippy::undocumented_unsafe_blocks,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]
#![expect(
    clippy::disallowed_types,
    reason = "audited atomics: the dispatch counters and the schedule-permutation flag are \
              Relaxed because nothing synchronizes through them; job hand-off goes through \
              the queue mutex and the batch latch condvar"
)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Schedule-permutation hook for the determinism audit. `0` means off
/// (production default); any other value stores `seed + 1` and makes
/// every pool batch push its chunk jobs in a seeded pseudo-random order
/// instead of input order. Because output slots are fixed per chunk and
/// the batch latch drains before `run_jobs` returns, a permuted
/// schedule MUST produce bit-identical results — the audit harness
/// (`repro audit-determinism`) flips this hook to prove that no caller
/// smuggles order-dependence through the pool.
static SCHEDULE_PERMUTATION: AtomicU64 = AtomicU64::new(0);

/// Parallel maps that ran inline (single-thread install or input below
/// the chunking threshold).
static INLINE_MAPS: AtomicU64 = AtomicU64::new(0);
/// Parallel maps dispatched onto the worker pool.
static POOL_BATCHES: AtomicU64 = AtomicU64::new(0);
/// Chunk jobs pushed onto the shared queue, across all batches.
static POOL_JOBS: AtomicU64 = AtomicU64::new(0);

/// Cumulative process-wide dispatch counters for the shim's worker pool.
///
/// Observability consumers snapshot this before and after a workload and
/// diff the two — the counters only ever grow. Relaxed ordering: callers
/// want totals, not happens-before edges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel maps that ran on the calling thread without queueing.
    pub inline_maps: u64,
    /// Parallel maps that fanned out to the worker pool.
    pub batches: u64,
    /// Chunk jobs queued across all pool batches.
    pub jobs: u64,
}

impl PoolStats {
    /// Counter-wise `self - earlier`, saturating at zero.
    #[must_use]
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            inline_maps: self.inline_maps.saturating_sub(earlier.inline_maps),
            batches: self.batches.saturating_sub(earlier.batches),
            jobs: self.jobs.saturating_sub(earlier.jobs),
        }
    }
}

/// Snapshots the cumulative [`PoolStats`] counters.
#[must_use]
pub fn pool_stats() -> PoolStats {
    PoolStats {
        inline_maps: INLINE_MAPS.load(Ordering::Relaxed),
        batches: POOL_BATCHES.load(Ordering::Relaxed),
        jobs: POOL_JOBS.load(Ordering::Relaxed),
    }
}

/// Installs (or clears, with `None`) a deterministic permutation of the
/// order chunk jobs are pushed onto the shared queue.
///
/// Diagnostic hook for the schedule-perturbation audit: chunk *contents*
/// and output slots are untouched, only queue order changes, so results
/// must stay bit-identical. Process-global; not for production use.
pub fn set_schedule_permutation(seed: Option<u64>) {
    let encoded = seed.map_or(0, |s| s.wrapping_add(1));
    SCHEDULE_PERMUTATION.store(encoded, Ordering::Relaxed);
}

/// `splitmix64` step — the standard 64-bit mixer; tiny, seedable, and
/// dependency-free, which is all the permutation hook needs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parallel-iterator entry points, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelIterator, ParallelSliceMut,
    };
}

thread_local! {
    /// Effective thread count installed by [`ThreadPool::install`];
    /// `None` means "use the machine's available parallelism".
    static INSTALLED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn effective_threads() -> usize {
    INSTALLED_THREADS
        .with(Cell::get)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Minimum items per work chunk before forking threads pays for itself.
const MIN_CHUNK: usize = 16;

/// Locks a mutex, recovering the guard if a panicking thread poisoned it
/// (jobs run under `catch_unwind`, so state behind the lock stays
/// consistent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A type-erased chunk job sitting in the shared queue.
///
/// Jobs capture borrows of the submitting `run_jobs` frame; the
/// `'static` here is erased via [`erase_lifetime`], made sound because
/// [`run_batch`] never returns (or unwinds) until every job of its batch
/// has finished running.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The long-lived worker pool backing every parallel map.
///
/// Workers are spawned once, on first use, and park on `job_ready`
/// between calls — the per-call `std::thread::scope` spawning this
/// replaces paid OS thread creation and teardown inside every BP
/// iteration.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
}

/// Completion latch for one `run_jobs` call's set of chunk jobs.
struct Batch {
    state: Mutex<BatchState>,
    done: Condvar,
}

struct BatchState {
    /// Jobs submitted but not yet finished.
    remaining: usize,
    /// First panic payload caught from a job, re-raised on the caller.
    panic: Option<Box<dyn Any + Send>>,
}

impl Batch {
    fn new(jobs: usize) -> Batch {
        Batch {
            state: Mutex::new(BatchState {
                remaining: jobs,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Marks one job finished, recording its panic payload if any, and
    /// wakes batch waiters when the last job completes.
    fn finish_job(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut state = lock(&self.state);
        state.remaining = state.remaining.saturating_sub(1);
        if let Some(payload) = panic {
            state.panic.get_or_insert(payload);
        }
        if state.remaining == 0 {
            // Notify while still holding the state lock: the Batch lives on
            // the stack of `run_jobs`, which frees it as soon as
            // `run_batch` observes remaining == 0. Holding the guard
            // across the wakeup means the waiter cannot re-acquire the lock
            // (and thus cannot return and destroy the Batch) until this
            // thread is done touching `self`.
            self.done.notify_all();
        }
    }
}

/// The process-wide pool, spawning its workers on first access.
fn pool() -> &'static Arc<PoolShared> {
    static POOL: OnceLock<Arc<PoolShared>> = OnceLock::new();
    POOL.get_or_init(|| {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
        });
        // The caller of every map helps execute its own batch, so the
        // machine is saturated with one fewer dedicated worker.
        let workers = std::thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .saturating_sub(1)
            .max(1);
        for i in 0..workers {
            let s = Arc::clone(&shared);
            // A failed spawn degrades capacity, never correctness: the
            // caller-helping loop in `run_batch` executes queued jobs
            // itself, so the map still completes.
            let _ = std::thread::Builder::new()
                .name(format!("wsnloc-par-{i}"))
                .spawn(move || worker_loop(&s));
        }
        shared
    })
}

/// A detached worker: pop a job, run it, park when the queue is empty.
fn worker_loop(shared: &PoolShared) {
    let mut queue = lock(&shared.queue);
    loop {
        match queue.pop_front() {
            Some(job) => {
                drop(queue);
                job();
                queue = lock(&shared.queue);
            }
            None => {
                queue = shared
                    .job_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Erases the lifetime of a chunk job so it can sit in the `'static`
/// queue.
///
/// # Safety
///
/// The job borrows the submitting `run_jobs` frame's locals. The
/// caller must not return or unwind past those locals until the job has
/// finished running; [`run_batch`] enforces this by draining the batch
/// latch to zero before returning — and before re-raising any job panic.
unsafe fn erase_lifetime<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
    // SAFETY: lifetime extension only — same layout, and the caller
    // upholds the contract above (the borrowed frame outlives the job).
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Job>(job) }
}

/// Blocks until every job of `batch` has finished, executing queued jobs
/// (from any batch) while waiting.
///
/// The caller lending its thread is what makes nested parallelism safe:
/// a thread blocked here never sleeps while the queue is non-empty, so a
/// `par_iter` issued from inside a pool job always finds an executor —
/// in the worst case, itself.
fn run_batch(shared: &PoolShared, batch: &Batch) {
    loop {
        let job = lock(&shared.queue).pop_front();
        if let Some(job) = job {
            job();
            continue;
        }
        // Queue empty: every job submitted before this call (including
        // all of this batch's) has been claimed by some thread, so
        // sleeping on the latch cannot strand work.
        let mut state = lock(&batch.state);
        while state.remaining > 0 {
            state = batch
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let panic = state.panic.take();
        drop(state);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        return;
    }
}

/// The chunk length of a parallel map over `n` items, or `None` (counted
/// as an inline map) when the map runs on the calling thread: one thread
/// in effect, or fewer than `2 * MIN_CHUNK` items.
///
/// Chunk boundaries depend only on the *effective* (installed) thread
/// count, never on how many workers happen to execute them, so results
/// are bit-identical across pool sizes — and identical to a sequential
/// run.
fn chunk_len(n: usize) -> Option<usize> {
    let threads = effective_threads().max(1);
    if threads == 1 || n < 2 * MIN_CHUNK {
        INLINE_MAPS.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    Some(n.div_ceil(threads).max(MIN_CHUNK))
}

/// Runs `f` on every task as one pool batch, one chunk job per task, and
/// returns the results in task order once the batch has drained. Each
/// job writes only its own task's slot. This is the one dispatch path of
/// every forked map.
fn run_jobs<T, R, F>(tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs = tasks.len();
    let batch_idx = POOL_BATCHES.fetch_add(1, Ordering::Relaxed);
    POOL_JOBS.fetch_add(jobs as u64, Ordering::Relaxed);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(jobs).collect();
    let batch = Batch::new(jobs);
    let shared = pool();
    {
        let mut pending: Vec<Job> = Vec::with_capacity(jobs);
        for (slot, task) in slots.iter_mut().zip(tasks) {
            let f = &f;
            let batch = &batch;
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(move || {
                    *slot = Some(f(task));
                }));
                batch.finish_job(result.err());
            });
            // SAFETY: `run_batch` below drains the batch latch before
            // this frame (and the borrows of `f`/`slots`/`batch`) can go
            // away, by return or by unwind.
            pending.push(unsafe { erase_lifetime(job) });
        }
        // Audit hook: under a schedule permutation, enqueue the chunk
        // jobs in a seeded shuffle (per batch) instead of input order.
        // Each job still fills only its own chunk's slot, so this must
        // not change results — the determinism audit relies on it.
        let perm = SCHEDULE_PERMUTATION.load(Ordering::Relaxed);
        if perm != 0 && pending.len() > 1 {
            let mut state = (perm - 1) ^ batch_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for i in (1..pending.len()).rev() {
                let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                pending.swap(i, j);
            }
        }
        let mut queue = lock(&shared.queue);
        queue.extend(pending);
        drop(queue);
        shared.job_ready.notify_all();
    }
    run_batch(shared, &batch);
    // Every job ran to completion (a panic re-raised above), so every
    // slot is filled.
    slots.into_iter().flatten().collect()
}

/// Applies `f` to every item, preserving order, dispatching chunks onto
/// the persistent worker pool when the input is large enough and more
/// than one thread is in effect (see [`chunk_len`]). Each chunk job owns
/// its input chunk and collects its own result vector; the caller
/// appends them in input order once the batch has drained.
fn map_ordered<T, R, F>(mut items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let Some(chunk) = chunk_len(n) else {
        return items.into_iter().map(f).collect();
    };
    let jobs = n.div_ceil(chunk);
    // Split off the chunks back to front, so each split moves only the
    // chunk it takes; `items` keeps the first.
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(jobs);
    for j in (1..jobs).rev() {
        chunks.push(items.split_off(j * chunk));
    }
    chunks.push(items);
    chunks.reverse();
    let parts = run_jobs(chunks, |items: Vec<T>| {
        items.into_iter().map(&f).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(n);
    for mut part in parts {
        out.append(&mut part);
    }
    out
}

/// In-place parallel work on a mutable slice, mirroring
/// `rayon::slice::ParallelSliceMut`.
pub trait ParallelSliceMut<T: Send> {
    /// Applies `f(start, chunk)` to consecutive chunks of `self`, where
    /// `start` is the index of the chunk's first element, and returns
    /// the results in chunk order.
    ///
    /// Like `par_chunks_mut(size).enumerate().map(..).collect()` in
    /// rayon, except that the shim picks the chunks: the same boundaries
    /// and inline threshold as a parallel map over `self.len()` items,
    /// dispatched through the same batch. Below the threshold, or with
    /// one thread installed, `f(0, self)` runs once on the calling
    /// thread.
    fn par_map_chunks_mut<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_map_chunks_mut<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        let Some(chunk) = chunk_len(self.len()) else {
            return vec![f(0, self)];
        };
        let chunks: Vec<(usize, &mut [T])> = self
            .chunks_mut(chunk)
            .enumerate()
            .map(|(j, c)| (j * chunk, c))
            .collect();
        run_jobs(chunks, |(start, c)| f(start, c))
    }
}

/// A not-yet-consumed parallel pipeline over owned items.
///
/// Unlike real rayon this is strict: adapters buffer, terminals fork. That
/// keeps the shim tiny while preserving call-site compatibility.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// Conversion into a [`ParIter`], mirroring `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Item type produced by the pipeline.
    type Item: Send;
    /// Converts `self` into the shim's parallel pipeline.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<u64> {
    type Item = u64;
    fn into_par_iter(self) -> ParIter<u64> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// `par_iter()` on shared slices, mirroring
/// `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: Send + 'a;
    /// Parallel pipeline over `&self`'s items.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Terminal and adapter operations on [`ParIter`], mirroring
/// `rayon::iter::ParallelIterator`.
pub trait ParallelIterator: Sized {
    /// Item type flowing through the pipeline.
    type Item: Send;

    /// Maps every item through `f` (runs when the pipeline is consumed).
    fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync;

    /// Collects results in input order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C;

    /// Sums the items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.collect::<Vec<_>>().into_iter().sum()
    }
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: map_ordered(self.items, f),
        }
    }

    fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Error type returned by [`ThreadPoolBuilder::build`]; the shim never
/// actually fails to build.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool construction failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default (machine-sized) parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the pool at `n` threads; `0` restores the machine default.
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Builds the pool. Infallible in the shim, but keeps rayon's
    /// `Result` signature so call sites stay source-compatible.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A scoped effective-parallelism setting mirroring `rayon::ThreadPool`.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count in effect for every
    /// `par_iter` reached (transitively) from the closure on this thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let previous = INSTALLED_THREADS.with(|slot| slot.replace(self.num_threads));
        let result = f();
        INSTALLED_THREADS.with(|slot| slot.set(previous));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn collect_preserves_order() {
        let v: Vec<u64> = (0..1000u64).into_par_iter().map(|x| x * 2).collect();
        let expect: Vec<u64> = (0..1000).map(|x| x * 2).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn par_iter_borrows() {
        let data = vec![1u32, 2, 3, 4];
        let doubled: Vec<u32> = data.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        // `data` still usable: par_iter borrowed it.
        assert_eq!(data.len(), 4);
    }

    #[test]
    fn sum_matches_sequential() {
        let total: u64 = (0..5000u64).into_par_iter().map(|x| x).sum();
        assert_eq!(total, 5000 * 4999 / 2);
    }

    #[test]
    fn install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("shim pool build is infallible");
        let inside = pool.install(super::effective_threads);
        assert_eq!(inside, 1);
        // Outside install the machine default is back.
        assert!(super::effective_threads() >= 1);
    }

    #[test]
    fn schedule_permutation_does_not_change_results() {
        let run = || -> Vec<u64> {
            ThreadPoolBuilder::new()
                .num_threads(4)
                .build()
                .expect("shim pool build is infallible")
                .install(|| {
                    (0..2000u64)
                        .into_par_iter()
                        .map(|x| x.wrapping_mul(0x9E37_79B9).rotate_left(7))
                        .collect()
                })
        };
        let baseline = run();
        for seed in [0u64, 1, 42, u64::MAX] {
            set_schedule_permutation(Some(seed));
            let permuted = run();
            set_schedule_permutation(None);
            assert_eq!(baseline, permuted, "seed {seed} changed results");
        }
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        let run = |threads: usize| -> Vec<u64> {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("shim pool build is infallible")
                .install(|| {
                    (0..500u64)
                        .into_par_iter()
                        .map(|x| x.wrapping_mul(x))
                        .collect()
                })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a set of worker ids that is only counted, never iterated"
    )]
    fn workers_are_reused_across_calls() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // Count only named pool workers: any thread that calls `run_batch`
        // (e.g. other tests running concurrently under the multi-threaded
        // test harness) may help execute this test's jobs, so the total
        // distinct-ThreadId count is load-dependent. The named-worker set,
        // by contrast, is spawned exactly once — per-call spawning would
        // mint fresh worker ids on every call.
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let calls = 8;
        for _ in 0..calls {
            let v: Vec<u64> = (0..512u64)
                .into_par_iter()
                .map(|x| {
                    let current = std::thread::current();
                    if current
                        .name()
                        .is_some_and(|name| name.starts_with("wsnloc-par-"))
                    {
                        ids.lock().expect("id set lock").insert(current.id());
                    }
                    x
                })
                .collect();
            assert_eq!(v.len(), 512);
        }
        let distinct = ids.lock().expect("id set lock").len();
        let machine = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        // The pool spawns at most machine - 1 (min 1) dedicated workers,
        // once for the whole process.
        let cap = machine.saturating_sub(1).max(1);
        assert!(
            distinct <= cap,
            "thread churn: {distinct} distinct pool-worker ids across {calls} calls (cap {cap})"
        );
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("shim pool build is infallible");
        let inner = ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("shim pool build is infallible");
        let observed = outer.install(|| {
            let before = super::effective_threads();
            let nested = inner.install(super::effective_threads);
            let after = super::effective_threads();
            (before, nested, after)
        });
        assert_eq!(observed, (3, 2, 3));
    }

    #[test]
    fn nested_parallel_maps_complete() {
        // An inner par_iter issued from inside a pool job must find an
        // executor even when every worker is busy with outer jobs — the
        // caller-helping loop guarantees progress.
        let v: Vec<u64> = (0..128u64)
            .into_par_iter()
            .map(|x| {
                let inner: u64 = (0..64u64).into_par_iter().map(|y| y).sum();
                x + inner
            })
            .collect();
        let inner_sum = 64 * 63 / 2;
        for (x, &got) in v.iter().enumerate() {
            assert_eq!(got, x as u64 + inner_sum);
        }
    }

    #[test]
    fn pool_stats_count_dispatch_decisions() {
        let before = pool_stats();
        // Tiny input: runs inline regardless of thread count.
        let _: Vec<u64> = (0..4u64).into_par_iter().map(|x| x).collect();
        let mid = pool_stats().since(&before);
        assert!(mid.inline_maps >= 1);
        // Single-thread install: also inline, even for large inputs.
        ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("shim pool build is infallible")
            .install(|| {
                let _: Vec<u64> = (0..512u64).into_par_iter().map(|x| x).collect();
            });
        let after = pool_stats().since(&before);
        assert!(after.inline_maps >= 2);
        // Counters are monotone.
        assert!(after.batches >= mid.batches && after.jobs >= mid.jobs);
    }

    #[test]
    fn job_panics_propagate_to_caller() {
        let result = std::panic::catch_unwind(|| {
            let _: Vec<u64> = (0..256u64)
                .into_par_iter()
                .map(|x| {
                    assert!(x != 200, "deliberate test panic");
                    x
                })
                .collect();
        });
        assert!(result.is_err(), "a panicking job must fail the map");
        // The pool survives a panicked batch.
        let v: Vec<u64> = (0..256u64).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(v.len(), 256);
    }
}
