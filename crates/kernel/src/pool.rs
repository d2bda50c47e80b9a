//! A work-stealing worker pool for embarrassingly parallel simulation.
//!
//! The campaign runner, the differential suite and the Fig. 11 harness
//! all fan out the same shape of work: a list of independent simulation
//! units (one `(chip, seed)` run, one `(chip, test)` diff) whose results
//! must be reassembled *in input order* so every report is byte-identical
//! to a serial run. Before this pool each caller hand-rolled its own
//! fan-out (one scoped thread per chip), which bounded the speedup by the
//! slowest chip and left cores idle at the tail. [`run_indexed`] replaces
//! those with one shared scheme:
//!
//! * Each worker owns a deque seeded round-robin with unit indices; it
//!   pops its own work from the front and, when empty, steals from the
//!   *back* of a sibling's deque (classic Chase–Lev shape, mutex-guarded
//!   — contention is one lock op per unit, and a unit is a whole kernel
//!   run, so the lock is invisible in profiles).
//! * Workers return `(index, result)` pairs; the pool sorts the merged
//!   vector by index. Determinism does not depend on scheduling: every
//!   simulator sink (cycle counter, trace ring, commit-cache stats,
//!   contract mode, injection engine) is thread-local, so a unit's result
//!   is bit-identical no matter which worker runs it or in what order —
//!   the ordered merge then makes the whole-run output byte-identical to
//!   `threads = 1`.
//! * `threads <= 1` (or a single unit) short-circuits to a plain serial
//!   loop on the calling thread: the serial path *is* the reference
//!   semantics, not a special case.
//!
//! Workers release their thread-local trace/record buffers on exit (see
//! `tt_hw::trace::release_thread_buffers`), so a pool invocation leaks
//! nothing even though those buffers live in no-`Drop`-glue TLS cells.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Worker count used when the caller does not pin one: `TT_BENCH_THREADS`
/// if set to a positive integer, otherwise the machine's available
/// parallelism.
pub fn default_threads() -> usize {
    std::env::var("TT_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Pops the next unit index for worker `w`: its own deque first (front),
/// then a steal sweep over the siblings (back).
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = queues[w].lock().expect("pool queue").pop_front() {
        return Some(i);
    }
    for off in 1..queues.len() {
        let q = (w + off) % queues.len();
        if let Some(i) = queues[q].lock().expect("pool queue").pop_back() {
            return Some(i);
        }
    }
    None
}

/// Runs `f(index, &items[index])` for every item on a work-stealing pool
/// of `threads` workers and returns the results **in item order**.
///
/// With `threads <= 1` the items run serially on the calling thread. A
/// panicking unit propagates the panic to the caller after the scope
/// joins, like the serial loop would.
pub fn run_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed_ctx(items, threads, || (), |(), i, t| f(i, t))
}

/// [`run_indexed`] with a per-worker context: each worker (including the
/// serial path's calling thread) builds one `C` via `mk_ctx` and threads
/// it mutably through every unit it executes.
///
/// This is what lets the fleet campaign keep a **worker-local snapshot
/// cache** — booted kernels hold `Rc` handles and thread-local buffers,
/// so they can neither be shared across workers nor moved between them;
/// a context built *on* the worker thread is the only sound home for
/// them. Contexts are dropped on their owning worker before the pool
/// returns. Results are still merged in item order, and `threads <= 1`
/// still short-circuits to a serial loop with a single context, so the
/// serial path remains the reference semantics.
pub fn run_indexed_ctx<T, R, C, G, F>(items: &[T], threads: usize, mk_ctx: G, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    G: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        let mut ctx = mk_ctx();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut ctx, i, t))
            .collect();
    }
    let workers = threads.min(items.len());
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..items.len() {
        queues[i % workers].lock().expect("pool queue").push_back(i);
    }
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let mk_ctx = &mk_ctx;
                let f = &f;
                scope.spawn(move || {
                    let mut ctx = mk_ctx();
                    let mut out: Vec<(usize, R)> = Vec::new();
                    while let Some(i) = next_job(queues, w) {
                        out.push((i, f(&mut ctx, i, &items[i])));
                    }
                    // Contexts may own kernels whose snapshots replay into
                    // thread-local buffers; drop them before the buffers.
                    drop(ctx);
                    // The simulator's trace ring and method-record buffer
                    // live in TLS cells with no destructor; free them
                    // explicitly so the pool leaks nothing.
                    tt_hw::trace::release_thread_buffers();
                    tt_hw::cycles::release_thread_buffers();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serial_and_parallel_agree_on_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = run_indexed(&items, 1, |i, &x| (i as u64) * 1_000 + x * x);
        for threads in [2, 3, 8, 64] {
            let parallel = run_indexed(&items, threads, |i, &x| (i as u64) * 1_000 + x * x);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = vec![];
        assert_eq!(run_indexed(&none, 8, |_, &x| x), Vec::<u32>::new());
        assert_eq!(run_indexed(&[7u32], 8, |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn more_threads_than_items_still_covers_every_item() {
        let items: Vec<usize> = (0..5).collect();
        assert_eq!(run_indexed(&items, 32, |_, &x| x + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn thread_local_sim_state_stays_per_worker() {
        // Each unit charges its own cycle count from a reset counter; a
        // shared counter would interleave across workers and break this.
        let items: Vec<u64> = (0..32).collect();
        let results = run_indexed(&items, 4, |_, &n| {
            tt_hw::cycles::reset();
            tt_hw::cycles::charge_n(tt_hw::cycles::Cost::Alu, n);
            tt_hw::cycles::now()
        });
        assert_eq!(results, items);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            run_indexed(&items, 4, |_, &x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn default_threads_reads_the_env_var() {
        // Serialised against other env readers by running in this one test.
        std::env::set_var("TT_BENCH_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("TT_BENCH_THREADS", "0");
        assert!(
            default_threads() >= 1,
            "0 falls back to available parallelism"
        );
        std::env::set_var("TT_BENCH_THREADS", "nope");
        assert!(default_threads() >= 1);
        std::env::remove_var("TT_BENCH_THREADS");
        assert!(default_threads() >= 1);
    }

    #[test]
    fn ctx_variant_reuses_one_context_per_worker() {
        // Each context counts the units it ran; the per-unit result pairs
        // the item with how many units *this* context had already seen.
        // Serially that sequence is 0,1,2,...: one context for everything.
        let items: Vec<u32> = (0..16).collect();
        let serial = run_indexed_ctx(
            &items,
            1,
            || 0usize,
            |seen, _, &x| {
                let order = *seen;
                *seen += 1;
                (x, order)
            },
        );
        assert_eq!(serial, (0..16).map(|x| (x, x as usize)).collect::<Vec<_>>());
        // In parallel every worker starts its own context at 0, and the
        // per-worker counts must sum to the number of units: contexts are
        // built once per worker, not once per unit.
        let parallel = run_indexed_ctx(
            &items,
            4,
            || 0usize,
            |seen, _, &x| {
                let order = *seen;
                *seen += 1;
                (x, order)
            },
        );
        let results: Vec<u32> = parallel.iter().map(|&(x, _)| x).collect();
        assert_eq!(results, items, "results stay in item order");
        let max_order = parallel.iter().map(|&(_, o)| o).max().unwrap();
        assert!(
            max_order > 0,
            "some context must run more than one unit (16 units, 4 workers)"
        );
    }

    #[test]
    fn ctx_variant_drops_contexts_on_their_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BUILT: AtomicUsize = AtomicUsize::new(0);
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        struct Ctx;
        impl Drop for Ctx {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::SeqCst);
            }
        }
        let items: Vec<u32> = (0..12).collect();
        run_indexed_ctx(
            &items,
            3,
            || {
                BUILT.fetch_add(1, Ordering::SeqCst);
                Ctx
            },
            |_ctx, _, &x| x,
        );
        assert_eq!(
            BUILT.load(Ordering::SeqCst),
            DROPPED.load(Ordering::SeqCst),
            "every context built must be dropped before the pool returns"
        );
        assert!(BUILT.load(Ordering::SeqCst) <= 3);
    }

    proptest! {
        #[test]
        fn results_always_in_input_order(
            len in 0usize..80,
            threads in 1usize..12,
        ) {
            let items: Vec<usize> = (0..len).collect();
            let out = run_indexed(&items, threads, |i, &x| (i, x * 3));
            let expect: Vec<(usize, usize)> =
                items.iter().map(|&x| (x, x * 3)).collect();
            prop_assert_eq!(out, expect);
        }
    }
}
