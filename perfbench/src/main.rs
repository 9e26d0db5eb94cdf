//! The repository benchmark: four workloads over the engines' public
//! API, timed end to end and, in a separate traced run, layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `paper-grid`, `fault-campaign`, `harden`, `serve-open`
//! (see README.md in this directory). Every run builds its inputs from
//! `--seed` many times, before and during the measurement (the median is
//! `setup_s`; all must be bit-identical), and measures for `--seconds`,
//! checking every output against an independent path of the repository
//! or a replay. Human-readable lines
//! name each figure with its unit; the last line of standard output is
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`.

mod batch;
mod grid;
mod harden;
mod probe;
mod serve;
mod trace;
mod victim;

use std::process::ExitCode;
use std::time::Instant;

use batch::{measure, BatchJob};
use probe::Layers;
use trace::{median, peak_heap_mb, CountingAlloc, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// End-to-end metrics: name, unit. Reported by every workload.
const E2E: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics of the traced run: name, unit.
const PER_LAYER: [(&str, &str); 43] = [
    ("parallel.fork_join_us", "us"),
    ("parallel.fork_joins_per_s", "1/s"),
    ("parallel.fork_join_share_pct", "%"),
    ("parallel.speedup", "x"),
    ("parallel.speedup.param_grad_batch", "x"),
    ("parallel.speedup.ste_grad_batch", "x"),
    ("trace.overhead_pct", "%"),
    ("axattack.craft_s", "s"),
    ("axattack.craft_images_per_s", "1/s"),
    ("axnn.input_grad_us", "us"),
    ("axnn.param_grad_batch_ms", "ms"),
    ("axnn.fit_s", "s"),
    ("axquant.eval_s", "s"),
    ("axquant.lut_macs_per_s", "1/s"),
    ("axquant.plan_compile_ms", "ms"),
    ("axquant.forward_one_us.exact", "us"),
    ("axquant.forward_one_us.lut", "us"),
    ("axquant.finetune_s", "s"),
    ("axquant.ste_grad_batch_ms", "ms"),
    ("axquant.requant_ms", "ms"),
    ("axmul.lut_build_ms", "ms"),
    ("axmul.faulted_rebuild_ms", "ms"),
    ("axrobust.self_s", "s"),
    ("axserve.mean_batch.r500", "req"),
    ("axserve.mean_batch.r2000", "req"),
    ("axserve.mean_batch.saturated", "req"),
    ("axserve.batches", "count"),
    ("axserve.shed", "count"),
    ("axserve.queue_depth_max", "count"),
    ("axserve.overhead_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.p50_ms.r500", "ms"),
    ("loadgen.p50_ms.r2000", "ms"),
    ("loadgen.p99_ms.r500", "ms"),
    ("loadgen.p99_ms.r2000", "ms"),
    ("loadgen.max_rate_rps", "1/s"),
    ("axserve.saturated_rps", "1/s"),
    ("loadgen.sent", "count"),
    ("loadgen.failed", "count"),
    ("axdata.generate_ms", "ms"),
    ("work.lut_macs_per_verdict", "count"),
    ("work.grad_steps_per_crafted_image", "count"),
    ("work.batches_per_epoch", "count"),
];

/// Set-ups per run: at least [`MIN_SETUPS`] and [`SETUP_BUDGET_S`]
/// seconds of them before the measurement, then more between its passes
/// or steps until they have taken [`SETUP_SHARE`] of the measured time
/// on top. `setup_s` is their median, so a short set-up is timed many
/// times.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_SHARE: f64 = 0.2;

const USAGE: &str = "usage: perfbench --workload <paper-grid|fault-campaign|harden|serve-open> \
                     --seed <u64> --seconds <1-600> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperGrid,
    FaultCampaign,
    Harden,
    ServeOpen,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-grid" => Some(Workload::PaperGrid),
            "fault-campaign" => Some(Workload::FaultCampaign),
            "harden" => Some(Workload::Harden),
            "serve-open" => Some(Workload::ServeOpen),
            _ => None,
        }
    }

    /// The workload's own name for `throughput_per_s`.
    fn throughput_alias(self) -> &'static str {
        match self {
            Workload::PaperGrid | Workload::FaultCampaign => "verdicts_per_s",
            Workload::Harden => "train_images_per_s",
            Workload::ServeOpen => "goodput_rps.r2000",
        }
    }
}

/// The checked command line.
#[derive(Debug)]
pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
                "--seconds" => {
                    let s = value.parse::<u64>().map_err(|_| bad("whole seconds"))?;
                    if !(1..=600).contains(&s) {
                        return Err(bad("1 to 600 seconds"));
                    }
                    seconds = Some(s as f64);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Correctness checks of one run: each compares an output with an
/// independent path (or a replay) and counts a mismatch as failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// One check; `what` describes a failure on standard error.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.add(1, u64::from(!ok), what);
    }

    /// `attempted` operations of which `failed` went wrong.
    pub fn add(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// One run's result: checks plus metric values in report order.
pub struct Report {
    checks: Checks,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable lines printed above the JSON.
    notes: Vec<String>,
}

impl Report {
    fn new(checks: Checks, spec: &[(&'static str, &'static str)], values: &Layers) -> Report {
        let metrics = spec
            .iter()
            .map(|&(name, unit)| {
                let v = *values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (name, unit, v)
            })
            .collect();
        Report {
            checks,
            metrics,
            notes: Vec::new(),
        }
    }

    /// The end-to-end report; `alias` is the workload's own name for its
    /// throughput.
    pub fn end_to_end(
        checks: Checks,
        alias: &str,
        throughput: f64,
        latency_ms: f64,
        setup_s: f64,
    ) -> Report {
        let values = Layers::from([
            ("throughput_per_s", throughput),
            ("latency_ms", latency_ms),
            ("setup_s", setup_s),
            ("peak_heap_mb", peak_heap_mb()),
        ]);
        let mut report = Report::new(checks, &E2E, &values);
        report
            .notes
            .push(format!("{alias} = {throughput} 1/s (throughput_per_s)"));
        report
    }

    pub fn per_layer(checks: Checks, layers: Layers) -> Report {
        Report::new(checks, &PER_LAYER, &layers)
    }

    /// Prints the human-readable lines and, last, the JSON result.
    fn print(&self) -> Result<(), String> {
        for note in &self.notes {
            println!("{note}");
        }
        let c = &self.checks;
        println!(
            "failed_frac = {} ({} of {} checked operations)",
            c.failed as f64 / c.attempted.max(1) as f64,
            c.failed,
            c.attempted
        );
        let mut json = Vec::with_capacity(self.metrics.len());
        for &(name, unit, v) in &self.metrics {
            if !v.is_finite() {
                return Err(format!("metric {name} is not a finite number ({v})"));
            }
            println!("{name} = {v} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            c.failed == 0 && c.attempted > 0,
            c.attempted.max(1),
            c.failed,
            json.join(", ")
        );
        Ok(())
    }
}

/// Whether two set-ups hold bit-identical inputs.
type SameInputs<'a, T> = Box<dyn Fn(&T, &T) -> bool + 'a>;

/// Timed set-ups of one workload from one seed. Every set-up after the
/// first must equal it bit for bit; `setup_s` is the median of them all.
///
/// A shared host has slow spells of about a second, so the set-ups are
/// spread over the run: some before the measurement, the rest between
/// its passes or steps ([`Setups::top_up`]).
pub struct Setups<'a, T> {
    make: Box<dyn FnMut(&mut Tracer) -> T + 'a>,
    same: SameInputs<'a, T>,
    /// Spans of the set-ups, when tracing.
    pub tr: Tracer,
    times: Vec<f64>,
}

impl<'a, T> Setups<'a, T> {
    /// Sets up [`MIN_SETUPS`] times and for [`SETUP_BUDGET_S`] seconds;
    /// returns the first set-up.
    pub fn start(
        make: impl FnMut(&mut Tracer) -> T + 'a,
        same: impl Fn(&T, &T) -> bool + 'a,
        trace: bool,
        checks: &mut Checks,
    ) -> (T, Self) {
        let mut setups = Setups {
            make: Box::new(make),
            same: Box::new(same),
            tr: Tracer::new(trace),
            times: Vec::new(),
        };
        let first = setups.timed();
        setups.top_up(&first, 0.0, checks);
        (first, setups)
    }

    fn timed(&mut self) -> T {
        let t0 = Instant::now();
        let job = (self.make)(&mut self.tr);
        self.times.push(t0.elapsed().as_secs_f64());
        job
    }

    /// Sets up again until the set-ups have taken [`SETUP_BUDGET_S`] plus
    /// [`SETUP_SHARE`] of the `measured` seconds so far.
    pub fn top_up(&mut self, first: &T, measured: f64, checks: &mut Checks) {
        while self.times.len() < MIN_SETUPS
            || self.times.iter().sum::<f64>() < SETUP_BUDGET_S + SETUP_SHARE * measured
        {
            let again = self.timed();
            checks.expect((self.same)(first, &again), || {
                "a set-up from the same seed differs from the first".into()
            });
        }
    }

    /// The median set-up time in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// Runs `f` with `AXDNN_THREADS=1`, restoring the previous setting.
pub fn with_one_thread<R>(f: impl FnOnce() -> R) -> R {
    const VAR: &str = "AXDNN_THREADS";
    let prev = std::env::var_os(VAR);
    std::env::set_var(VAR, "1");
    let out = f();
    match prev {
        Some(v) => std::env::set_var(VAR, v),
        None => std::env::remove_var(VAR),
    }
    out
}

/// Runs a batch workload as the command line asks.
fn run_batch<B: BatchJob>(args: &Args) -> Report {
    let mut checks = Checks::default();
    let (mut job, mut setups) = Setups::start(
        |tr| B::setup(args.seed, tr),
        B::same_inputs,
        args.trace,
        &mut checks,
    );
    job.prepare();
    let mut reference = None;

    if !args.trace {
        let passes = measure(
            &job,
            args.seconds,
            &mut Tracer::new(false),
            &mut checks,
            &mut reference,
            &mut |measured, checks| setups.top_up(&job, measured, checks),
        );
        println!(
            "{} passes of {} items: pass time quartiles {:.1} / {:.1} / {:.1} ms",
            passes.seconds.len(),
            passes.items,
            1e3 * trace::quantile(&passes.seconds, 0.25),
            1e3 * median(&passes.seconds),
            1e3 * trace::quantile(&passes.seconds, 0.75),
        );
        return Report::end_to_end(
            checks,
            args.workload.throughput_alias(),
            passes.throughput(),
            passes.latency_ms(),
            setups.median_s(),
        );
    }

    // Traced run: untraced, traced and one-thread passes of equal length.
    let third = args.seconds / 3.0;
    let untraced = |secs: f64, checks: &mut Checks, reference: &mut Option<B::Out>| {
        measure(
            &job,
            secs,
            &mut Tracer::new(false),
            checks,
            reference,
            &mut |_, _| (),
        )
    };
    let plain = untraced(third, &mut checks, &mut reference);
    let single = with_one_thread(|| untraced(third, &mut checks, &mut reference));
    let mut tr = Tracer::new(true);
    let traced = measure(
        &job,
        third,
        &mut tr,
        &mut checks,
        &mut reference,
        &mut |_, _| (),
    );
    println!(
        "threads={}: {:.1} items/s; one thread: {:.1} items/s; traced: {:.1} items/s",
        axutil::parallel::num_threads(),
        plain.throughput(),
        single.throughput(),
        traced.throughput()
    );

    let nproc = axutil::parallel::num_threads() as f64;
    let fork_joins = tr.count("threads_spawned") / nproc;
    println!(
        "traced passes: {} threads spawned in {} passes, {:.1} fork/joins of {nproc} threads per pass",
        tr.count("threads_spawned"),
        tr.calls("pass"),
        fork_joins / tr.calls("pass") as f64,
    );

    let mut layers = Layers::new();
    layers.insert("parallel.speedup", plain.throughput() / single.throughput());
    layers.insert("parallel.fork_joins_per_s", fork_joins / tr.total("pass"));
    layers.insert(
        "trace.overhead_pct",
        100.0 * (traced.latency_ms() / plain.latency_ms() - 1.0),
    );
    probe::from_passes(&tr, &mut layers);
    probe::from_setups(&setups.tr, &mut layers);
    probe::run(&job.probe_inputs(), args.seed, &mut layers, &mut checks);
    Report::per_layer(checks, layers)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload {
        Workload::PaperGrid => run_batch::<grid::PaperGrid>(&args),
        Workload::FaultCampaign => run_batch::<grid::FaultCampaign>(&args),
        Workload::Harden => run_batch::<harden::Harden>(&args),
        Workload::ServeOpen => serve::run(&args),
    };
    match report.print() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
