//! The one parallel primitive: [`par_map_chunks`] over
//! [`std::thread::scope`], sized by [`num_threads`].
//!
//! The experiments are embarrassingly parallel over images (robustness
//! evaluation) and over batch elements (gradient accumulation).
//! [`par_map_chunks`] splits an index range into contiguous chunks, one
//! per worker thread created for the call, and concatenates the chunk
//! results in index order; for the workloads in this repository
//! (hundreds of inferences, each hundreds of microseconds to
//! milliseconds) per-call thread spawn cost is negligible and keeping no
//! global state preserves determinism.
//!
//! # Panic propagation
//!
//! [`par_map_chunks`] **joins every spawned worker before the call
//! returns — even when one of them panics**. A panicking worker closure
//! therefore (a) never deadlocks the calling thread, (b) never strands a
//! sibling worker (each sibling runs its chunk to completion and is
//! joined), and (c) re-raises the first panicking chunk's own payload on
//! the calling thread once all workers have been joined. Callers that
//! need fault isolation (the `axserve` batch workers) can rely on
//! wrapping a call in [`std::panic::catch_unwind`]: after the unwind is
//! caught, no helper thread is still running and no shared state is left
//! mid-mutation by the helper itself. This guarantee is pinned by
//! `panicking_worker_propagates_and_joins_siblings` in this module's
//! tests.
//!
//! # Pinning the thread count
//!
//! `AXDNN_THREADS` is the one setting, and [`with_threads`] is the one
//! place that edits it: it pins the count for the duration of a closure
//! and restores the previous value (or removes the variable) through a
//! drop guard, so the restore also happens when the closure returns an
//! early `Err` or unwinds. Every call holds one process-wide lock while
//! the count is pinned, so thread sweeps in one test binary never race
//! each other and no caller keeps a lock of its own. The root
//! `clippy.toml` disallows `std::env::set_var` and `remove_var`
//! everywhere else.

use std::cell::Cell;
use std::ffi::OsStr;
use std::sync::{Mutex, MutexGuard};

/// The environment variable [`num_threads`] reads.
const THREADS_VAR: &str = "AXDNN_THREADS";

/// Held by the outermost [`with_threads`] call while its count is pinned.
static PIN_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread holds [`PIN_LOCK`]: a nested [`with_threads`]
    /// re-pins under the outer call's lock instead of deadlocking on it.
    static HOLDS_PIN: Cell<bool> = const { Cell::new(false) };
}

/// Returns the number of worker threads to use.
///
/// Honours the `AXDNN_THREADS` environment variable when set to a positive
/// integer; otherwise uses the machine's available parallelism.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_VAR) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with `AXDNN_THREADS` set to `n`, then restores the previous
/// value, or removes the variable if it was unset.
///
/// The restore runs from a drop guard, so it holds whether `f` returns
/// (an early `Err` included) or unwinds. Calls serialize on one
/// process-wide lock; a nested call on the same thread runs under the
/// outer call's lock. A thread that `f` spawns must not call
/// `with_threads` while `f` waits for it: it would wait on the lock `f`'s
/// thread holds.
///
/// # Examples
///
/// ```
/// use axutil::parallel::{num_threads, with_threads};
///
/// assert_eq!(with_threads(3, num_threads), 3);
/// ```
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    pinned(Some(OsStr::new(&n.to_string())), f)
}

/// [`with_threads`] for any value of the variable: `None` runs `f` with it
/// removed.
fn pinned<R>(value: Option<&OsStr>, f: impl FnOnce() -> R) -> R {
    /// Restores the variable, then releases the lock if this pin took it.
    struct Pin {
        prev: Option<std::ffi::OsString>,
        lock: Option<MutexGuard<'static, ()>>,
    }
    impl Drop for Pin {
        fn drop(&mut self) {
            set_threads_var(self.prev.as_deref());
            if self.lock.is_some() {
                HOLDS_PIN.set(false);
            }
        }
    }
    let lock = (!HOLDS_PIN.get()).then(|| {
        let guard = PIN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        HOLDS_PIN.set(true);
        guard
    });
    let _pin = Pin {
        prev: std::env::var_os(THREADS_VAR),
        lock,
    };
    set_threads_var(value);
    f()
}

/// Sets `AXDNN_THREADS` to `value`, or removes it for `None`. Only
/// [`pinned`] calls this, with [`PIN_LOCK`] held.
#[allow(clippy::disallowed_methods)]
fn set_threads_var(value: Option<&OsStr>) {
    match value {
        Some(v) => std::env::set_var(THREADS_VAR, v),
        None => std::env::remove_var(THREADS_VAR),
    }
}

/// Maps `f` over contiguous index chunks of `0..n` in parallel and
/// concatenates the per-chunk results in index order.
///
/// Each worker calls `f` exactly once with its whole `Range` — so
/// per-chunk setup (scratch buffers, plan state) is amortized over the
/// chunk instead of paid per item. `f` must return exactly
/// `range.len()` results; the batched inference engine relies on this
/// for ordered output.
///
/// # Panics
///
/// Panics if `f` returns a different number of results than its range
/// length, and re-raises the first panicking chunk's payload (in chunk
/// order) once every worker has been joined.
///
/// # Examples
///
/// ```
/// let squares = axutil::parallel::par_map_chunks(8, |range| {
///     range.map(|i| i * i).collect()
/// });
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn par_map_chunks<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let workers = num_threads().min(n.max(1));
    if workers <= 1 || n <= 1 {
        let out = f(0..n);
        assert_eq!(out.len(), n, "chunk fn must return range.len() results");
        return out;
    }
    let chunk = n.div_ceil(workers);
    let f = &f;
    // Join every handle inside the scope, in spawn order: a handle joined
    // by hand hands back its panic payload instead of letting the scope
    // replace it with a generic "a scoped thread panicked".
    let parts: Vec<std::thread::Result<Vec<T>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let lo = (w * chunk).min(n);
                    let hi = ((w + 1) * chunk).min(n);
                    let out = f(lo..hi);
                    assert_eq!(
                        out.len(),
                        hi - lo,
                        "chunk fn must return range.len() results"
                    );
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out = Vec::with_capacity(n);
    for part in parts {
        match part {
            Ok(part) => out.extend(part),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_chunks_matches_serial() {
        let par = par_map_chunks(1003, |range| range.map(|i| i * 7 + 2).collect());
        let ser: Vec<_> = (0..1003).map(|i| i * 7 + 2).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn par_map_chunks_empty_and_single() {
        assert!(par_map_chunks(0, |r| r.collect::<Vec<_>>()).is_empty());
        assert_eq!(par_map_chunks(1, |r| r.map(|i| i + 9).collect()), vec![9]);
    }

    #[test]
    fn par_map_chunks_amortizes_setup_per_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        with_threads(3, || {
            let setups = AtomicUsize::new(0);
            let out = par_map_chunks(64, |range| {
                setups.fetch_add(1, Ordering::Relaxed); // one "scratch alloc" per chunk
                range.collect()
            });
            assert_eq!(out.len(), 64);
            assert!(
                setups.load(Ordering::Relaxed) <= num_threads(),
                "each worker chunk sets up at most once"
            );
        });
    }

    /// `with_threads` restores `AXDNN_THREADS` on return, on an early
    /// `Err` and on a caught panic, whether the variable was set before
    /// (to `5`) or unset, and pins the count `num_threads` reads.
    #[test]
    fn with_threads_restores_the_previous_value() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for before in [None, Some("5")] {
            pinned(before.map(OsStr::new), || {
                let var = || std::env::var(THREADS_VAR).ok();
                let want = before.map(String::from);
                assert_eq!(with_threads(2, num_threads), 2, "pinned count");
                assert_eq!(var(), want, "after return");
                let early: Result<(), String> = with_threads(3, || {
                    Err(format!("early at {}", num_threads()))?;
                    unreachable!()
                });
                assert_eq!(early, Err("early at 3".into()));
                assert_eq!(var(), want, "after an early Err");
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    with_threads(7, || panic!("unwinds at {}", num_threads()))
                }));
                assert!(caught.is_err(), "the panic reaches the caller");
                assert_eq!(var(), want, "after a caught panic");
            });
        }
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    /// Pins the panic-propagation contract documented in the module
    /// docs: a panicking worker closure propagates to the caller (no
    /// deadlock), and every sibling worker still runs its chunk to
    /// completion and is joined before the panic resurfaces.
    #[test]
    fn panicking_worker_propagates_and_joins_siblings() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let n = 64usize;
        let completed = AtomicUsize::new(0);
        with_threads(3, || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map_chunks(n, |range| {
                    let out: Vec<usize> = range.clone().collect();
                    if range.contains(&0) {
                        panic!("injected worker panic");
                    }
                    // Siblings record completion only after finishing
                    // their whole chunk.
                    completed.fetch_add(out.len(), Ordering::SeqCst);
                    out
                })
            }));
            let err = result.expect_err("worker panic must propagate to the caller");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| err.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            assert!(
                msg.contains("injected worker panic"),
                "caller must observe the worker's payload, got {msg:?}"
            );
            // Every chunk except the panicking one (which holds index 0)
            // completed: scope joined the siblings instead of stranding them.
            let workers = num_threads().min(n);
            let chunk = n.div_ceil(workers);
            assert_eq!(
                completed.load(Ordering::SeqCst),
                n - chunk,
                "sibling workers must finish their chunks"
            );
        });
    }
}
