//! `serve-open`: an open loop against `axserve` with the default
//! `ServerConfig`.
//!
//! One submit thread (the caller) sends requests on a seeded Poisson
//! schedule whatever the server does; one collect thread waits for the
//! answers in order. Each request is timed from when it was *due*, so a
//! stall also charges the requests queued behind it, and the generator
//! reports how late it ran. LeNet-5 requests alternate `exact`/`L40`.
//!
//! A run offers two fixed rates, 500 and 2000 req/s. Each request is
//! sent once: a refused request misses. At 500 req/s every refusal fails
//! the run's checks; from 2000 req/s up refusals are part of the
//! measurement (they lower the goodput and count in `axserve.shed`). The
//! traced run then adds an overload (12000 req/s), whose goodput is the
//! saturated throughput, and climbs a fixed geometric ladder (x1.1 per
//! rung) from 2000 req/s until a rung misses twice — p99 above 10 ms, any
//! failed request, or a backlog that outgrows one p99 budget of arrivals
//! — to report the highest rate held as `loadgen.max_rate_rps`. Both
//! capacity figures swing by a quarter between runs on a shared two-core
//! host, so they are traced figures, not end-to-end ones.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use axmul::{ExactMul, MulKernel, MulLut, Registry};
use axquant::QuantModel;
use axserve::{Request, ResponseHandle, ServeError, Server, ServerConfig};
use axtensor::Tensor;
use axutil::rng::Rng;

use crate::probe::{self, Layers, ProbeInputs};
use crate::trace::{quantile, threads_spawned, Tracer};
use crate::victim::{stream, Victim};
use crate::{with_one_thread, Args, Checks, Report, Setups};

const MODEL: &str = "victim";
const KERNELS: [&str; 2] = ["exact", "L40"];
/// The two fixed offered rates, req/s.
const LOW_RATE: f64 = 500.0;
const HIGH_RATE: f64 = 2000.0;
/// An offered rate above the server's capacity: its goodput is the
/// saturated throughput.
const SATURATION_RATE: f64 = 12_000.0;
/// The p99 limit a sustained rate must meet.
const P99_LIMIT_MS: f64 = 10.0;
/// Ratio between ladder rungs, and the most rungs a run climbs.
const LADDER_RATIO: f64 = 1.1;
const LADDER_RUNGS: i32 = 20;
/// Tries per rung before it counts as missed.
const RUNG_ATTEMPTS: usize = 2;
/// Requests per step at least, so every step's p99 has ten samples
/// beyond it.
const MIN_STEP_REQUESTS: usize = 1000;
/// The generator samples `Server::stats()` every this many requests.
pub const SAMPLE_EVERY: usize = 64;
/// ... and this often in the traced run.
const TRACE_SAMPLE_EVERY: usize = 8;

/// A running server plus the offline answers every response must match.
pub struct Endpoint {
    server: Server,
    images: Vec<Tensor>,
    /// Offline `QPlan` logits per image, one per entry of [`KERNELS`].
    expected: Vec<Vec<Tensor>>,
}

/// One offered rate: what was sent, what came back, and how late.
#[derive(Debug, Default)]
pub struct Step {
    pub rate: f64,
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    pub wrong: u64,
    /// Due-to-answer latency of every correct answer.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request.
    pub late_ms: Vec<f64>,
    pub queue_depth_max: usize,
    /// Requests in flight when the last one was sent.
    pub backlog: u64,
    pub batches: u64,
    pub completed: u64,
    pub wall_s: f64,
}

struct Sent {
    due: Instant,
    image: usize,
    kernel: usize,
    result: Result<ResponseHandle, ServeError>,
}

impl Step {
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.wrong
    }

    pub fn mean_batch(&self) -> f64 {
        self.completed as f64 / self.batches.max(1) as f64
    }

    /// Correct answers per second over the step.
    pub fn goodput(&self) -> f64 {
        self.ok as f64 / self.wall_s
    }

    /// Whether the server kept up with this rate.
    pub fn sustained(&self) -> bool {
        self.failed() == 0
            && self.p(0.99) <= P99_LIMIT_MS
            && self.backlog as f64 <= (self.rate * P99_LIMIT_MS / 1e3).max(8.0)
    }

    /// Adds this step to the run's checks. With `all` every refused or
    /// failed request counts; otherwise refusals are the measurement and
    /// only wrong or errored answers count.
    pub fn count(&self, checks: &mut Checks, all: bool) {
        let (attempted, failed) = if all {
            (self.sent, self.failed())
        } else {
            (self.sent - self.shed, self.errors + self.wrong)
        };
        checks.add(attempted, failed, || {
            format!(
                "serve at {:.0} req/s: {} shed, {} errors, {} wrong answers",
                self.rate, self.shed, self.errors, self.wrong
            )
        });
    }

    /// The generator-health line printed for every step.
    pub fn line(&self, phase: &str) -> String {
        format!(
            "step {phase} rate={:.0}/s sent={} succeeded={} failed={} (shed={} errors={} wrong={}) \
             p50={:.3}ms p99={:.3}ms late_p99={:.3}ms queue_depth_max={} backlog={} \
             mean_batch={:.2} {}",
            self.rate,
            self.sent,
            self.ok,
            self.failed(),
            self.shed,
            self.errors,
            self.wrong,
            self.p(0.5),
            self.p(0.99),
            quantile(&self.late_ms, 0.99),
            self.queue_depth_max,
            self.backlog,
            self.mean_batch(),
            if self.sustained() { "held" } else { "missed" },
        )
    }
}

impl Endpoint {
    /// Serves `qm` with the exact kernel and `lut` as `L40`.
    pub fn start(qm: &QuantModel, lut: &MulLut, images: Vec<Tensor>) -> Self {
        let server = Server::builder()
            .model(MODEL, qm.clone())
            .kernel(KERNELS[1], lut.clone())
            .serve(ServerConfig::default());
        Endpoint {
            server,
            images,
            expected: Vec::new(),
        }
    }

    /// Computes the offline answers, untimed.
    pub fn prepare(&mut self, qm: &QuantModel, lut: &MulLut) {
        let plan = qm.plan(self.images[0].dims());
        let kernels: [&dyn MulKernel; 2] = [&ExactMul, lut];
        self.expected = plan.forward_batch_with(&self.images, &kernels);
    }

    /// Offers `rate` req/s for `n` requests on a Poisson schedule, each
    /// sent once.
    fn step(&self, rate: f64, n: usize, rng: &mut Rng, sample_every: usize) -> Step {
        let mut at = 0.0;
        let schedule: Vec<(Duration, usize)> = (0..n)
            .map(|_| {
                at += -(1.0 - rng.next_f64()).ln() / rate;
                (Duration::from_secs_f64(at), rng.index(self.images.len()))
            })
            .collect();
        let before = self.server.stats();
        let mut step = Step {
            rate,
            sent: n as u64,
            ..Default::default()
        };
        let (tx, rx) = mpsc::channel::<Sent>();
        let start = Instant::now();
        thread::scope(|s| {
            let collector = s.spawn(move || self.collect(rx));
            for (i, &(offset, image)) in schedule.iter().enumerate() {
                let due = start + offset;
                sleep_until(due);
                step.late_ms
                    .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                let kernel = i % KERNELS.len();
                let request = Request::new(MODEL, KERNELS[kernel], self.images[image].clone());
                tx.send(Sent {
                    due,
                    image,
                    kernel,
                    result: self.server.submit(request),
                })
                .expect("the collector outlives the schedule");
                if i % sample_every == 0 {
                    let depth = self.server.stats().queue_depth;
                    step.queue_depth_max = step.queue_depth_max.max(depth);
                }
            }
            step.backlog = self.server.stats().in_flight;
            drop(tx);
            let got = collector.join().expect("collector thread");
            step.ok = got.ok;
            step.shed = got.shed;
            step.errors = got.errors;
            step.wrong = got.wrong;
            step.latency_ms = got.latency_ms;
        });
        step.wall_s = start.elapsed().as_secs_f64();
        let after = self.server.stats();
        step.batches = after.batches - before.batches;
        step.completed = after.completed - before.completed;
        step
    }

    /// Waits for every answer in send order and checks it bit for bit.
    fn collect(&self, rx: mpsc::Receiver<Sent>) -> Step {
        let mut got = Step::default();
        for sent in rx {
            match sent.result {
                Ok(handle) => match handle.wait() {
                    Ok(resp) => {
                        let ms = sent.due.elapsed().as_secs_f64() * 1e3;
                        let right = resp.kernel == KERNELS[sent.kernel]
                            && !resp.degraded
                            && resp.logits == self.expected[sent.image][sent.kernel];
                        if right {
                            got.ok += 1;
                            got.latency_ms.push(ms);
                        } else {
                            got.wrong += 1;
                        }
                    }
                    Err(_) => got.errors += 1,
                },
                Err(ServeError::Overloaded { .. }) => got.shed += 1,
                Err(_) => got.errors += 1,
            }
        }
        got
    }

    /// Offers `rate` req/s for `secs` seconds, or for
    /// [`MIN_STEP_REQUESTS`] requests if that is longer.
    fn offer(&self, rate: f64, secs: f64, rng: &mut Rng, every: usize) -> Step {
        let n = MIN_STEP_REQUESTS.max((rate * secs) as usize);
        self.step(rate, n, rng, every)
    }

    /// The serving sequence: 500 req/s for 35% of `secs`, then 2000 req/s
    /// for 65%. A `full` sequence adds [`SATURATION_RATE`] for 20% of
    /// `secs` and one climb of the ladder with rungs of 2% of `secs`.
    /// After each fixed rate `between` gets the seconds spent so far.
    pub fn sequence(
        &self,
        seed: u64,
        secs: f64,
        sample_every: usize,
        full: bool,
        between: &mut dyn FnMut(f64),
    ) -> Sequence {
        let mut rng = Rng::seed_from_u64(seed);
        let start = Instant::now();
        let low = self.offer(LOW_RATE, 0.35 * secs, &mut rng, sample_every);
        between(start.elapsed().as_secs_f64());
        let high = self.offer(HIGH_RATE, 0.65 * secs, &mut rng, sample_every);
        between(start.elapsed().as_secs_f64());
        let mut seq = Sequence {
            low,
            high,
            saturated: None,
            rungs: Vec::new(),
            max_rate: 0.0,
        };
        if full {
            let saturated = self.offer(SATURATION_RATE, 0.2 * secs, &mut rng, sample_every);
            seq.saturated = Some(saturated);
            seq.max_rate = self.climb(
                &seq.high,
                0.02 * secs,
                &mut rng,
                sample_every,
                &mut seq.rungs,
            );
        }
        seq
    }

    /// Climbs the ladder from 2000 req/s (from the rung above it when
    /// `high` held there), offering each rung for `rung_s` seconds, until
    /// a rung misses [`RUNG_ATTEMPTS`] tries in a row; then bisects that
    /// last gap once. Returns the highest offered rate that held.
    fn climb(
        &self,
        high: &Step,
        rung_s: f64,
        rng: &mut Rng,
        sample_every: usize,
        rungs: &mut Vec<Step>,
    ) -> f64 {
        let mut held_at = |rate: f64, rungs: &mut Vec<Step>| {
            (0..RUNG_ATTEMPTS).any(|_| {
                let step = self.offer(rate, rung_s, rng, sample_every);
                let held = step.sustained();
                rungs.push(step);
                held
            })
        };
        let mut best = if high.sustained() { HIGH_RATE } else { 0.0 };
        let first = i32::from(best > 0.0);
        for k in first..=LADDER_RUNGS {
            let rate = HIGH_RATE * LADDER_RATIO.powi(k);
            if held_at(rate, rungs) {
                best = rate;
                continue;
            }
            if best > 0.0 {
                let mid = (best * rate).sqrt();
                if held_at(mid, rungs) {
                    best = mid;
                }
            }
            break;
        }
        best
    }
}

/// One run of the serving sequence.
pub struct Sequence {
    low: Step,
    high: Step,
    /// The overload step of a full sequence.
    saturated: Option<Step>,
    rungs: Vec<Step>,
    /// The highest ladder rate that held (0 without a climb).
    max_rate: f64,
}

impl Sequence {
    fn steps(&self) -> impl Iterator<Item = &Step> {
        [&self.low, &self.high]
            .into_iter()
            .chain(&self.saturated)
            .chain(&self.rungs)
    }

    /// Correct answers per second under overload (a full sequence).
    fn saturated_goodput(&self) -> f64 {
        self.saturated.as_ref().expect("a full sequence").goodput()
    }

    pub fn print(&self, phase: &str) {
        for step in self.steps() {
            println!("{}", step.line(phase));
        }
        if self.saturated.is_some() {
            println!(
                "{phase}: saturated_goodput_rps = {} 1/s, max_rate_rps = {} 1/s",
                self.saturated_goodput(),
                self.max_rate
            );
        }
    }

    /// Adds the sequence to the run's checks: 500 req/s must answer every
    /// request; every faster step must answer correctly what it accepts.
    pub fn count(&self, checks: &mut Checks) {
        self.low.count(checks, true);
        for step in self.steps().skip(1) {
            step.count(checks, false);
        }
    }

    /// Seconds the sequence's steps took together.
    fn wall_s(&self) -> f64 {
        self.steps().map(|s| s.wall_s).sum()
    }

    /// The per-layer serving metrics of this sequence.
    pub fn layers(&self, layers: &mut Layers) {
        let (low, high) = (&self.low, &self.high);
        layers.insert("axserve.mean_batch.r500", low.mean_batch());
        layers.insert("axserve.mean_batch.r2000", high.mean_batch());
        layers.insert(
            "axserve.mean_batch.saturated",
            self.saturated
                .as_ref()
                .expect("a full sequence")
                .mean_batch(),
        );
        layers.insert("axserve.saturated_rps", self.saturated_goodput());
        layers.insert("axserve.batches", (low.batches + high.batches) as f64);
        layers.insert("axserve.shed", self.steps().map(|s| s.shed as f64).sum());
        layers.insert(
            "axserve.queue_depth_max",
            self.steps().map(|s| s.queue_depth_max).max().unwrap_or(0) as f64,
        );
        layers.insert(
            "loadgen.late_p99_ms",
            quantile(&low.late_ms, 0.99).max(quantile(&high.late_ms, 0.99)),
        );
        layers.insert("loadgen.p50_ms.r500", low.p(0.5));
        layers.insert("loadgen.p50_ms.r2000", high.p(0.5));
        layers.insert("loadgen.p99_ms.r500", low.p(0.99));
        layers.insert("loadgen.p99_ms.r2000", high.p(0.99));
        layers.insert("loadgen.max_rate_rps", self.max_rate);
        layers.insert("loadgen.sent", self.steps().map(|s| s.sent as f64).sum());
        layers.insert(
            "loadgen.failed",
            self.steps().map(|s| s.failed() as f64).sum(),
        );
    }
}

/// The `serve-open` workload: the LeNet-5 victim behind a running server.
struct ServeOpen {
    victim: Victim,
    lut: MulLut,
    endpoint: Endpoint,
}

impl ServeOpen {
    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let victim = Victim::setup(seed, tr);
        let lut = tr.span("axmul.lut_build", || {
            Registry::standard()
                .build_lut(KERNELS[1])
                .expect("registered multiplier")
        });
        let images = (0..victim.test.len())
            .map(|i| victim.test.image(i).clone())
            .collect();
        let endpoint = Endpoint::start(&victim.qm, &lut, images);
        ServeOpen {
            victim,
            lut,
            endpoint,
        }
    }
}

/// Runs `serve-open` as the command line asks.
pub fn run(args: &Args) -> Report {
    let mut checks = Checks::default();
    let (mut job, mut setups) = Setups::start(
        |tr| ServeOpen::setup(args.seed, tr),
        |a: &ServeOpen, b: &ServeOpen| a.victim == b.victim && a.lut == b.lut,
        args.trace,
        &mut checks,
    );
    job.endpoint.prepare(&job.victim.qm, &job.lut);
    let schedule = stream(args.seed, 11);
    let ep = &job.endpoint;

    if !args.trace {
        let seq = ep.sequence(
            schedule,
            args.seconds,
            SAMPLE_EVERY,
            false,
            &mut |measured| setups.top_up(&job, measured, &mut checks),
        );
        seq.print("measure");
        seq.count(&mut checks);
        return Report::end_to_end(
            checks,
            "goodput_rps.r2000",
            seq.high.goodput(),
            seq.low.p(0.5),
            setups.median_s(),
        );
    }

    // Traced run: untraced and one-thread sequences, then a full traced
    // one (frequent stats samples, overload, one ladder climb).
    let third = args.seconds / 3.0;
    let plain = ep.sequence(schedule, third, SAMPLE_EVERY, false, &mut |_| ());
    plain.print("untraced");
    plain.count(&mut checks);
    let single = with_one_thread(|| ep.sequence(schedule, third, SAMPLE_EVERY, false, &mut |_| ()));
    single.print("one-thread");
    single.count(&mut checks);
    let threads_before = threads_spawned();
    let traced = ep.sequence(schedule, third, TRACE_SAMPLE_EVERY, true, &mut |_| ());
    // Less the second probe and one collect thread per step.
    let engine_threads = threads_spawned() - threads_before - 1 - traced.steps().count() as u64;
    traced.print("traced");
    traced.count(&mut checks);

    let mut layers = Layers::new();
    // `par_map_chunks` runs only for batches of two or more: the
    // 2000 req/s p50 with one thread over the p50 with every thread,
    // expected flat.
    layers.insert("parallel.speedup", single.high.p(0.5) / plain.high.p(0.5));
    let nproc = axutil::parallel::num_threads() as f64;
    println!("traced sequence: {engine_threads} threads spawned by the engines");
    layers.insert(
        "parallel.fork_joins_per_s",
        engine_threads as f64 / nproc / traced.wall_s(),
    );
    layers.insert(
        "trace.overhead_pct",
        100.0 * (traced.low.p(0.5) / plain.low.p(0.5) - 1.0),
    );
    traced.layers(&mut layers);
    probe::from_setups(&setups.tr, &mut layers);
    let v = &job.victim;
    probe::run(
        &ProbeInputs::new(&v.model, &v.qm, &v.train),
        args.seed,
        &mut layers,
        &mut checks,
    );
    Report::per_layer(checks, layers)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}
