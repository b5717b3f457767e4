//! A persistent fork-join worker pool.
//!
//! Experiment sweeps and the planner both fan independent work items out
//! over threads many times per process (hundreds of sweep points, each a
//! handful of sites). Spawning OS threads per call dominates at that
//! granularity, so this module keeps one process-wide pool of workers
//! alive and hands them *claim loops*: every dispatch shares an atomic
//! index cursor, and each participant (the caller included) repeatedly
//! claims a chunk of indices and computes them. Results land in
//! index-ordered slots, so output is deterministic — bit-identical to a
//! sequential run — regardless of scheduling.
//!
//! The caller always participates in its own dispatch and blocks until
//! every worker that picked the job up has finished, which is what makes
//! it sound to lend the workers borrows from the caller's stack frame
//! (the lifetime erasure in `Pool::scoped`). Nested calls from inside a
//! pool worker run sequentially instead of dispatching again: a worker
//! that blocked waiting on sub-tickets could deadlock the pool if every
//! worker did so at once.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Resolves the worker count: `0` means one per available core, and never
/// more workers than items.
pub fn effective_threads(threads: usize, n: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let t = if threads == 0 { hw } else { threads };
    t.clamp(1, n.max(1))
}

/// Applies `f` to every index in `0..n` across up to `threads` workers
/// (`0` = one per available core), returning results in index order. `f`
/// must be `Sync` because all workers share it.
///
/// Work is claimed in chunks off a shared atomic cursor, so load balances
/// dynamically; each index is computed exactly once and placed by index,
/// so the output is identical to `(0..n).map(f).collect()` whatever the
/// schedule. A panic in any worker propagates to the caller after the
/// dispatch drains (matching scoped-thread semantics).
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = effective_threads(threads, n);
    if threads <= 1 || in_pool_worker() {
        return (0..n).map(f).collect();
    }

    // Chunked claiming: big enough to amortise the atomic, small enough
    // that a slow item doesn't strand the tail on one worker.
    let chunk = (n / (threads * 4)).max(1);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let work = || {
        let mut local: Vec<(usize, T)> = Vec::new();
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            for i in start..end {
                local.push((i, f(i)));
            }
        }
        if !local.is_empty() {
            results.lock().unwrap().extend(local);
        }
    };
    pool().scoped(threads - 1, &work);

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in results.into_inner().unwrap() {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

thread_local! {
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn in_pool_worker() -> bool {
    IN_POOL.with(|b| b.get())
}

/// One dispatched job: `pending` tickets remain to be picked up (or
/// skipped) by pool workers; the caller waits for it to reach zero.
struct Ticket {
    task: &'static (dyn Fn() + Sync),
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct Pool {
    queue: Mutex<VecDeque<Arc<Ticket>>>,
    available: Condvar,
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Runs `work` on the caller plus up to `extra` pool workers, blocking
    /// until all of them return. `work` only borrows from the caller's
    /// frame, which stays valid for exactly that window — the lifetime
    /// erasure below is sound because no worker touches the ticket after
    /// decrementing `pending`, and the caller does not return before
    /// `pending` hits zero.
    fn scoped(&'static self, extra: usize, work: &(dyn Fn() + Sync)) {
        let task: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
        let ticket = Arc::new(Ticket {
            task,
            pending: Mutex::new(extra),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });

        self.ensure_workers(extra);
        {
            let mut q = self.queue.lock().unwrap();
            for _ in 0..extra {
                q.push_back(Arc::clone(&ticket));
            }
        }
        self.available.notify_all();

        // The caller participates; a panic here must still wait for the
        // workers (they are borrowing our frame) before resuming.
        let caller_result = catch_unwind(AssertUnwindSafe(work));

        let mut pending = ticket.pending.lock().unwrap();
        while *pending > 0 {
            pending = ticket.done.wait(pending).unwrap();
        }
        drop(pending);

        if let Some(payload) = ticket.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
    }

    /// Grows the pool to at least `want` resident workers. Workers are
    /// daemons: they park on the queue between dispatches and die with
    /// the process.
    fn ensure_workers(&'static self, want: usize) {
        let mut spawned = self.spawned.lock().unwrap();
        while *spawned < want {
            let id = *spawned;
            std::thread::Builder::new()
                .name(format!("mmrepl-pool-{id}"))
                .spawn(move || self.worker_loop())
                .expect("spawn pool worker");
            *spawned += 1;
        }
    }

    fn worker_loop(&'static self) {
        IN_POOL.with(|b| b.set(true));
        loop {
            let ticket = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(t) = q.pop_front() {
                        break t;
                    }
                    q = self.available.wait(q).unwrap();
                }
            };
            // Late arrivals find the cursor exhausted and return at once;
            // either way the decrement below is what releases the caller.
            let result = catch_unwind(AssertUnwindSafe(|| (ticket.task)()));
            if let Err(payload) = result {
                let mut slot = ticket.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            // Merge whatever this worker's thread-local trace recorder
            // accumulated *before* releasing the caller, so a snapshot
            // taken right after the dispatch sees every worker's data.
            // No-op (no lock) when nothing was recorded.
            mmrepl_obs::flush_thread();
            let mut pending = ticket.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                ticket.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_index_order() {
        let out = parallel_map(100, 4, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicU64::new(0);
        let out = parallel_map(1000, 8, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn zero_items_is_empty() {
        let out: Vec<u32> = parallel_map(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_fallback_matches() {
        let seq = parallel_map(50, 1, |i| i + 1);
        let par = parallel_map(50, 4, |i| i + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(0, 1), 1);
        assert_eq!(effective_threads(16, 4), 4);
        assert_eq!(effective_threads(2, 100), 2);
    }

    #[test]
    fn work_runs_on_resident_pool_threads() {
        // Everything not done by the caller must land on a named resident
        // worker — never on an ad-hoc per-dispatch thread. (The pool is
        // process-wide, so concurrent tests share the same workers.)
        let caller = std::thread::current().id();
        for _ in 0..5 {
            parallel_map(64, 4, |i| {
                let t = std::thread::current();
                if t.id() != caller {
                    let name = t.name().unwrap_or("");
                    assert!(
                        name.starts_with("mmrepl-pool-"),
                        "work ran on non-pool thread {name:?}"
                    );
                }
                (0..10_000).fold(i as u64, |a, x| a.wrapping_add(x))
            });
        }
    }

    #[test]
    fn actually_uses_multiple_threads_when_asked() {
        // Deterministic, not a race against the amount of work: whoever
        // takes item 0 holds it until a second thread has checked in.
        // With 4 workers asked for, another participant claims a later
        // chunk while item 0 is held; the time bound turns a pool that
        // never spreads into a failure instead of a hang.
        use std::collections::HashSet;
        use std::time::Duration;
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let arrived = Condvar::new();
        parallel_map(64, 4, |i| {
            let mut seen = ids.lock().unwrap();
            seen.insert(std::thread::current().id());
            arrived.notify_all();
            if i == 0 {
                let _held = arrived
                    .wait_timeout_while(seen, Duration::from_secs(10), |seen| seen.len() < 2)
                    .unwrap();
            }
        });
        assert!(ids.lock().unwrap().len() >= 2);
    }

    #[test]
    fn nested_calls_fall_back_to_sequential() {
        let out = parallel_map(8, 4, |i| {
            let inner = parallel_map(4, 4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(100, 4, |i| {
                if i == 57 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(result.is_err());
    }
}
