//! Worker-pool threading substrate for the dense kernels.
//!
//! A small persistent pool of `std::thread` workers fed over crossbeam
//! channels. The pool is process-global and lazily grown; kernels submit a
//! *data-parallel region* (a closure run once per participating thread) and
//! the calling thread always participates as thread 0, so a pool of `T`
//! effective threads uses `T - 1` workers.
//!
//! ## Thread-count policy
//!
//! Effective thread count resolves in priority order:
//!
//! 1. [`set_num_threads`] (programmatic, wins over everything);
//! 2. the `PSVD_NUM_THREADS` environment variable, read once per process;
//! 3. `available_parallelism() / comm_ranks()` — when the in-process
//!    "MPI" world of `psvd-comm` is running SPMD rank threads, each rank
//!    gets an equal share of the machine so GEMM workers and rank threads
//!    do not oversubscribe (`psvd_comm::World::run` registers its size via
//!    [`set_comm_ranks`]).
//!
//! ## Determinism
//!
//! The pool only ever partitions *output elements* across threads; no
//! kernel in this crate splits a reduction (K) dimension. Each output
//! element is therefore produced by exactly one thread executing exactly
//! the serial instruction sequence, which makes every kernel built on this
//! module bitwise identical for any thread count, including 1.
//!
//! ## Nesting
//!
//! Regions do not nest: a worker thread that reaches another parallel
//! region runs it inline (serially), as does any thread that finds the
//! pool busy. This keeps the pool deadlock-free when several `ThreadComm`
//! ranks issue GEMMs concurrently, at the cost of serializing the losers —
//! which is the right trade: the machine is already saturated.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use crossbeam::channel::{unbounded, Sender};

/// Explicit thread-count override: 0 = unset (fall through to env/auto).
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Number of in-process communicator ranks currently running (>= 1).
static COMM_RANKS: AtomicUsize = AtomicUsize::new(1);

/// `PSVD_NUM_THREADS`, parsed once per process. `None` when unset or `0`.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| env_knob("PSVD_NUM_THREADS").filter(|&n| n > 0))
}

/// A numeric `PSVD_*` knob from the environment: `None` when unset or
/// empty. Panics on anything but a non-negative integer, so a typo fails
/// loudly instead of silently running the default.
pub fn env_knob(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| parse_knob(name, &v))
}

/// The pure parse behind [`env_knob`].
fn parse_knob(name: &str, value: &str) -> Option<usize> {
    match value.trim() {
        "" => None,
        v => match v.parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => panic!("{name} must be a non-negative integer, got {value:?}"),
        },
    }
}

/// Logical CPUs visible to this process.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Set the kernel thread count programmatically (`0` reverts to automatic
/// selection). Takes precedence over `PSVD_NUM_THREADS`.
pub fn set_num_threads(n: usize) {
    CONFIGURED.store(n, Ordering::Relaxed);
}

/// Register how many communicator rank threads are live, so automatic
/// thread selection hands each rank an equal slice of the machine.
/// `psvd-comm`'s `World::run` calls this; `n = 1` restores the default.
pub fn set_comm_ranks(n: usize) {
    COMM_RANKS.store(n.max(1), Ordering::Relaxed);
}

/// Currently registered communicator rank count.
fn comm_ranks() -> usize {
    COMM_RANKS.load(Ordering::Relaxed).max(1)
}

/// The effective thread count a kernel launched right now would use.
pub fn num_threads() -> usize {
    let explicit = CONFIGURED.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    (hardware_threads() / comm_ranks()).max(1)
}

/// A parallel region: type-erased pointer to the per-thread closure, valid
/// strictly for the duration of one [`run`] call (the latch guarantees the
/// borrow outlives every worker's use).
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    tid: usize,
    latch: *const Latch,
}

// SAFETY: the closure is Sync and `run` blocks on the latch until every
// worker has dropped its use of both pointers.
unsafe impl Send for Job {}

/// Countdown latch with a panic flag.
struct Latch {
    remaining: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            all_done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        *left -= 1;
        if *left == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        while *left > 0 {
            left = self.all_done.wait(left).expect("latch poisoned");
        }
    }
}

thread_local! {
    /// True on pool worker threads (nested regions run inline there).
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker side: block for jobs forever.
fn worker_loop(rx: crossbeam::channel::Receiver<Job>) {
    IS_POOL_WORKER.with(|w| w.set(true));
    while let Ok(job) = rx.recv() {
        // SAFETY: `run` keeps both referents alive until the latch opens.
        let (task, latch) = unsafe { (&*job.task, &*job.latch) };
        if catch_unwind(AssertUnwindSafe(|| task(job.tid))).is_err() {
            latch.panicked.store(true, Ordering::Release);
        }
        latch.count_down();
    }
}

/// The persistent pool: sender handles to each live worker. Guarded by a
/// mutex because a dispatch owns the workers end to end; contenders run
/// their regions inline instead of queueing (see module docs).
struct Pool {
    workers: Vec<Sender<Job>>,
}

impl Pool {
    fn ensure_workers(&mut self, wanted: usize) {
        while self.workers.len() < wanted {
            let (tx, rx) = unbounded();
            let index = self.workers.len();
            std::thread::Builder::new()
                .name(format!("psvd-gemm-{index}"))
                .spawn(move || worker_loop(rx))
                .expect("spawn GEMM worker");
            self.workers.push(tx);
        }
    }
}

fn pool() -> &'static Mutex<Pool> {
    static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Pool { workers: Vec::new() }))
}

/// Execute `task(tid)` for `tid in 0..threads`, caller participating as
/// thread 0. Falls back to an inline serial sweep when `threads <= 1`,
/// when called from a pool worker (no nesting), or when another region
/// holds the pool. The *work partition must depend only on `threads` as
/// passed*, never on which of these paths executes — every kernel above
/// partitions output ranges, so results are identical either way.
pub(crate) fn run(threads: usize, task: &(dyn Fn(usize) + Sync)) {
    let inline = |n: usize| {
        for tid in 0..n {
            task(tid);
        }
    };
    if threads <= 1 || IS_POOL_WORKER.with(Cell::get) {
        inline(threads.max(1));
        return;
    }
    // Non-blocking acquire: a busy pool means some other kernel is mid-
    // flight; running inline is always correct (see determinism note).
    let Ok(mut guard) = pool().try_lock() else {
        inline(threads);
        return;
    };
    guard.ensure_workers(threads - 1);
    let latch = Latch::new(threads - 1);
    // Erase the borrow lifetimes; `latch.wait()` below upholds the
    // contract documented on `Job`.
    let task_ptr: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync), _>(task) };
    for (w, tx) in guard.workers.iter().take(threads - 1).enumerate() {
        tx.send(Job { task: task_ptr, tid: w + 1, latch: &latch }).expect("GEMM worker hung up");
    }
    // Caller is thread 0; catch panics so the latch is always awaited and
    // no worker can outlive the borrows.
    let own = catch_unwind(AssertUnwindSafe(|| task(0)));
    latch.wait();
    drop(guard);
    if own.is_err() || latch.panicked.load(Ordering::Acquire) {
        match own {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => panic!("parallel kernel worker panicked"),
        }
    }
}

/// Split `[0, items)` into one contiguous chunk per thread and run
/// `body(start, end)` on each in parallel. Chunks are sized by
/// `ceil(items / threads)` so the partition depends only on the inputs —
/// part of the bitwise-determinism contract. Runs serially (one chunk)
/// when `items < 2 * grain` or only one thread is effective.
pub fn parallel_for(items: usize, grain: usize, body: impl Fn(usize, usize) + Sync) {
    if items == 0 {
        return;
    }
    let threads = num_threads().min(items.div_ceil(grain.max(1))).max(1);
    if threads == 1 || items < 2 * grain.max(1) {
        body(0, items);
        return;
    }
    let chunk = items.div_ceil(threads);
    run(threads, &|tid: usize| {
        let start = tid * chunk;
        if start < items {
            body(start, (start + chunk).min(items));
        }
    });
}

/// Partition `strips` row strips into equal contiguous shares, one per
/// effective thread: returns `(used, per)` where thread `tid < used` owns
/// strips `[tid * per, (tid + 1) * per)`. The GEMM engines size their
/// strips from the *selected micro-kernel's* `mr` (tile heights follow
/// the kernel, not a fixed constant), so the partition — like the rest
/// of the determinism contract — depends only on (shape, kernel, thread
/// count), and threads always receive whole, `mr`-aligned strips.
pub fn strip_partition(strips: usize) -> (usize, usize) {
    let threads = num_threads().min(strips).max(1);
    let per = strips.div_ceil(threads);
    (strips.div_ceil(per.max(1)), per)
}

/// Shared-mutable pointer token for kernels whose threads write disjoint
/// index sets of one buffer. The *caller* is responsible for disjointness.
pub(crate) struct SendPtr<T>(pub *mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: see the type docs — every user partitions indices disjointly.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The raw pointer (add your own offset; stay inside your partition).
    #[inline]
    pub fn get(self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_executes_every_tid_once() {
        let hits = AtomicU64::new(0);
        run(4, &|tid| {
            hits.fetch_add(1 << (8 * tid), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0x01_01_01_01);
    }

    #[test]
    fn parallel_for_covers_range_exactly_once() {
        let n = 1003;
        let flags: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        set_num_threads(4);
        parallel_for(n, 1, |a, b| {
            for f in &flags[a..b] {
                f.fetch_add(1, Ordering::Relaxed);
            }
        });
        set_num_threads(0);
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_regions_run_inline() {
        let hits = AtomicUsize::new(0);
        run(3, &|_outer| {
            run(2, &|_inner| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(2, &|tid| {
                if tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn thread_count_resolution_order() {
        // comm-rank division only applies in the automatic regime.
        set_num_threads(6);
        set_comm_ranks(2);
        assert_eq!(num_threads(), 6);
        set_num_threads(0);
        // In auto mode the count is hardware/comm_ranks but never 0.
        assert!(num_threads() >= 1);
        set_comm_ranks(1);
    }

    #[test]
    fn knob_values_parse_strictly() {
        assert_eq!(parse_knob("PSVD_NUM_THREADS", "4"), Some(4));
        assert_eq!(parse_knob("PSVD_NUM_THREADS", " 3 "), Some(3));
        assert_eq!(parse_knob("PSVD_PREFETCH_DEPTH", "0"), Some(0));
        assert_eq!(parse_knob("PSVD_PREFETCH_DEPTH", ""), None);
    }

    #[test]
    #[should_panic(expected = "PSVD_NUM_THREADS must be a non-negative integer, got \"four\"")]
    fn thread_knob_rejects_a_word() {
        parse_knob("PSVD_NUM_THREADS", "four");
    }

    #[test]
    #[should_panic(expected = "PSVD_PREFETCH_DEPTH must be a non-negative integer, got \"2x\"")]
    fn depth_knob_rejects_a_suffix() {
        parse_knob("PSVD_PREFETCH_DEPTH", "2x");
    }
}
