//! Timing from outside the engines: spans around the benchmark's own
//! calls into each layer's public functions, plus the small statistics
//! the report needs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Call durations and work counters keyed by layer call.
///
/// When off, [`Tracer::span`] is a plain call and no clock is read, so
/// the untraced end-to-end runs carry no timers around layers.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            ..Default::default()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording its wall time under `name` when tracing.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.spans
            .entry(name)
            .or_default()
            .push(t0.elapsed().as_secs_f64());
        out
    }

    /// Records an already measured `secs` under `name` when tracing.
    pub fn record(&mut self, name: &'static str, secs: f64) {
        if self.on {
            self.spans.entry(name).or_default().push(secs);
        }
    }

    /// Adds `n` to the work counter `name` when tracing.
    pub fn add(&mut self, name: &'static str, n: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Summed seconds of every `name` span.
    pub fn total(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Median seconds of one `name` span, if any was recorded.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.spans.get(name).map(|v| median(v))
    }

    /// Number of recorded `name` spans.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.get(name).map_or(0, Vec::len)
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Linearly interpolated `q`-quantile of a sample (0 for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median seconds of `reps` calls of `f`, after one untimed warm-up call.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Threads this process has spawned so far, the probe thread included.
///
/// Every spawned thread takes the next `ThreadId` from one process-wide
/// counter, so the id of a fresh thread counts all threads before it. The
/// difference of two readings, minus one, is the number of threads
/// spawned in between: every `par_map_chunks` fork/join spawns one thread
/// per chunk, so the engines' fork/joins are counted from outside.
pub fn threads_spawned() -> u64 {
    let id = std::thread::spawn(|| std::thread::current().id())
        .join()
        .expect("the probe thread returns");
    let text = format!("{id:?}");
    text.trim_start_matches("ThreadId(")
        .trim_end_matches(')')
        .parse()
        .unwrap_or_else(|_| panic!("unexpected ThreadId format {text:?}"))
}

/// The system allocator, counting the bytes the program holds.
///
/// Peak resident memory on a shared host moves with the C allocator's
/// per-thread arenas, which depend on how the engines' short-lived
/// worker threads happen to interleave; the peak of live heap bytes is
/// what the program's own data needs, and it repeats.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes and never touch memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc` contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's `alloc_zeroed` contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded under the caller's `dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded under the caller's `realloc` contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// The most heap this process has held at once, in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn untraced_spans_record_nothing() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", || 7), 7);
        off.add("n", 1.0);
        assert_eq!(off.calls("x"), 0);
        assert_eq!(off.count("n"), 0.0);
        let mut on = Tracer::new(true);
        on.span("x", || ());
        on.add("n", 2.0);
        assert_eq!(on.calls("x"), 1);
        assert_eq!(on.count("n"), 2.0);
    }

    #[test]
    fn spawned_threads_are_counted() {
        let before = threads_spawned();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| ());
            }
        });
        // Three workers plus the second probe thread (the test harness
        // may start other tests' threads in between).
        assert!(threads_spawned() - before >= 4);
    }

    #[test]
    fn peak_heap_counts_live_allocations() {
        let before = peak_heap_mb();
        let big = vec![1u8; 64 << 20];
        assert!(peak_heap_mb() >= before.max(64.0));
        drop(big);
    }
}
