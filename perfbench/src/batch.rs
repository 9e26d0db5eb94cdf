//! The measurement loop shared by the three batch workloads
//! (`paper-grid`, `fault-campaign`, `harden`).

use std::time::Instant;

use crate::probe::ProbeInputs;
use crate::trace::{threads_spawned, Tracer};
use crate::Checks;

/// Passes measured at least, however long they take.
const MIN_PASSES: usize = 3;

/// A batch workload: one repeatable, deterministic pass over fixed inputs.
pub trait BatchJob: Sized {
    type Out: PartialEq;

    /// Builds the workload's inputs from `seed`; timed as `setup_s`.
    fn setup(seed: u64, tr: &mut Tracer) -> Self;

    /// Whether two set-ups hold bit-identical inputs.
    fn same_inputs(&self, other: &Self) -> bool;

    /// Computes, untimed, whatever [`BatchJob::verify`] compares against.
    fn prepare(&mut self) {}

    /// Work items one pass completes (the unit of `throughput_per_s`).
    fn items(&self) -> f64;

    /// Runs one pass. With `tr` on, the pass is spelled out as the public
    /// layer calls it makes, each in its own span.
    fn pass(&self, tr: &mut Tracer) -> Self::Out;

    /// Checks a pass's output against an independent path of the repo.
    fn verify(&self, out: &Self::Out, checks: &mut Checks);

    /// The model, data and kernel the layer probes run on.
    fn probe_inputs(&self) -> ProbeInputs<'_>;
}

/// Wall times of the passes of one measurement.
#[derive(Debug, Clone)]
pub struct Passes {
    pub seconds: Vec<f64>,
    pub items: f64,
}

impl Passes {
    /// Items per second over all passes together. Pass times on a shared
    /// host come in a fast and a slow mode; the total keeps the share of
    /// each, where a median would jump between them.
    pub fn throughput(&self) -> f64 {
        self.items * self.seconds.len() as f64 / self.seconds.iter().sum::<f64>()
    }

    /// Mean pass time in milliseconds: how long one result takes.
    pub fn latency_ms(&self) -> f64 {
        1e3 * self.items / self.throughput()
    }
}

/// Runs passes for at least `secs` (and at least [`MIN_PASSES`]),
/// verifying each and checking it replays `reference` bit for bit. A
/// traced measurement also counts the threads each pass spawns. After
/// each pass `between` gets the seconds measured so far.
pub fn measure<B: BatchJob>(
    job: &B,
    secs: f64,
    tr: &mut Tracer,
    checks: &mut Checks,
    reference: &mut Option<B::Out>,
    between: &mut dyn FnMut(f64, &mut Checks),
) -> Passes {
    let start = Instant::now();
    let mut seconds = Vec::new();
    while seconds.len() < MIN_PASSES || start.elapsed().as_secs_f64() < secs {
        let threads_before = tr.is_on().then(threads_spawned);
        let t0 = Instant::now();
        let out = job.pass(tr);
        let took = t0.elapsed().as_secs_f64();
        if let Some(before) = threads_before {
            tr.add("threads_spawned", (threads_spawned() - before - 1) as f64);
        }
        seconds.push(took);
        tr.record("pass", took);
        job.verify(&out, checks);
        match reference {
            Some(first) => checks.expect(*first == out, || {
                "a pass did not replay the first pass bit for bit".into()
            }),
            None => *reference = Some(out),
        }
        between(start.elapsed().as_secs_f64(), checks);
    }
    Passes {
        seconds,
        items: job.items(),
    }
}
