//! The serving-engine load generator: drives the `axserve` server
//! through four scenarios and writes the `serve` row report
//! (`BENCH_serve.json`), validated in CI by `bench_check`.
//!
//! Each scenario injects its failure mode *deterministically* through
//! [`axserve::FaultHook`] and explicit deadlines, so the counters in the
//! report are properties of the engine, not of runner timing:
//!
//! * **steady** — concurrent clients, no faults: everything completes
//!   and the micro-batcher coalesces (mean batch size on stderr);
//! * **overload** — one worker clogged by stall hooks behind a tiny
//!   admission queue: the flood sheds with `Overloaded` while every
//!   admitted request still completes;
//! * **poison** — one panic-hook request inside coalesced batches: stall
//!   hooks occupy both workers first, so the requests behind them
//!   coalesce; the poisoned batch is bisected until the offender fails
//!   alone as `Poisoned`, and batch-mates complete;
//! * **deadline** — a mix of expired and unbounded budgets: expired
//!   requests are rejected typed, the rest complete.
//!
//! Per scenario the report records the outcome counters, which conserve
//! requests (`completed + shed + deadline + poisoned == requests`),
//! throughput, and P50/P99 client-observed latency. Counters are exact;
//! only the timings jitter.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use axdata::mnist::{MnistConfig, SynthMnist};
use axmul::Registry;
use axquant::{Placement, QuantModel};
use axserve::{FaultHook, Request, ServeError, Server, ServerConfig};
use axtensor::Tensor;
use axutil::rng::Rng;
use axutil::time::Deadline;
use bench::check::Report;

/// Requests in the steady and overload floods.
const REQUESTS: usize = 64;
/// Concurrent clients (the overload flood uses twice as many).
const CLIENTS: usize = 8;

/// Client-observed outcome counters plus latency samples (completed
/// requests only) for one scenario.
#[derive(Debug, Default)]
struct Outcome {
    completed: u64,
    shed: u64,
    deadline: u64,
    poisoned: u64,
    /// Completed requests that were re-executed: batch-mates split off a
    /// panicking batch.
    bisected: u64,
    latencies_ms: Vec<f64>,
}

impl Outcome {
    fn absorb(&mut self, result: &Result<axserve::Response, ServeError>, elapsed_ms: f64) {
        match result {
            Ok(resp) => {
                self.completed += 1;
                self.bisected += u64::from(resp.retries > 0);
                self.latencies_ms.push(elapsed_ms);
            }
            Err(ServeError::Overloaded { .. }) => self.shed += 1,
            Err(ServeError::DeadlineExceeded) => self.deadline += 1,
            Err(ServeError::Poisoned { .. }) => self.poisoned += 1,
            Err(other) => panic!("loadgen hit an unexpected error: {other}"),
        }
    }
}

/// One finished scenario row of the report.
struct Row {
    scenario: &'static str,
    requests: u64,
    outcome: Outcome,
    retries: u64,
    elapsed_s: f64,
}

impl Row {
    fn quantile_ms(&self, q: f64) -> f64 {
        let lat = &self.outcome.latencies_ms;
        if lat.is_empty() {
            return 0.0;
        }
        let mut sorted = lat.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }

    fn throughput_per_s(&self) -> f64 {
        self.outcome.completed as f64 / self.elapsed_s
    }
}

/// Runs `requests.len()` clients against `server` from `clients` OS
/// threads (round-robin assignment), timing each predict end to end.
fn drive(server: &Server, requests: Vec<Request>, clients: usize) -> (Outcome, f64) {
    let outcome = Mutex::new(Outcome::default());
    let started = Instant::now();
    std::thread::scope(|s| {
        let mut lanes: Vec<Vec<Request>> = (0..clients).map(|_| Vec::new()).collect();
        for (i, req) in requests.into_iter().enumerate() {
            lanes[i % clients].push(req);
        }
        for lane in lanes {
            let outcome = &outcome;
            s.spawn(move || {
                for req in lane {
                    let t0 = Instant::now();
                    let result = server.predict(req);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    outcome.lock().expect("outcome").absorb(&result, ms);
                }
            });
        }
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    (outcome.into_inner().expect("outcome"), elapsed_s)
}

fn main() {
    // The served model: the quickstart FFNN quantized everywhere, with
    // the paper's L40 LUT hosted next to the exact kernel.
    let data = SynthMnist::generate(&MnistConfig {
        n: 64,
        seed: 71,
        ..Default::default()
    });
    let model = axnn::zoo::ffnn(&mut Rng::seed_from_u64(70));
    let calib: Vec<Tensor> = (0..16).map(|i| data.image(i).clone()).collect();
    let qm = || QuantModel::from_float(&model, &calib, Placement::All).expect("quantize ffnn");
    let lut = Registry::standard()
        .build_lut("L40")
        .expect("registry kernel");
    let image = |i: usize| data.image(i % data.len()).clone();
    let kernel = |i: usize| if i.is_multiple_of(2) { "exact" } else { "L40" };

    let mut rows = Vec::new();

    // Scenario 1: steady state. Everything completes.
    {
        let server = Server::builder()
            .model("ffnn", qm())
            .kernel("L40", lut.clone())
            .serve(ServerConfig::default());
        let requests: Vec<Request> = (0..REQUESTS)
            .map(|i| Request::new("ffnn", kernel(i), image(i)))
            .collect();
        let n = requests.len() as u64;
        let (outcome, elapsed_s) = drive(&server, requests, CLIENTS);
        let stats = server.stats();
        eprintln!(
            "[steady: {} completed, mean batch {:.2}, {} batches]",
            outcome.completed,
            stats.mean_batch_size(),
            stats.batches
        );
        rows.push(Row {
            scenario: "steady",
            requests: n,
            outcome,
            retries: stats.retries,
            elapsed_s,
        });
    }

    // Scenario 2: overload. One worker, stall hooks, tiny queue.
    {
        let server = Server::builder()
            .model("ffnn", qm())
            .kernel("L40", lut.clone())
            .serve(ServerConfig {
                workers: 1,
                queue_capacity: 4,
                max_batch: 2,
                linger: Duration::ZERO,
                ..ServerConfig::default()
            });
        let requests: Vec<Request> = (0..REQUESTS)
            .map(|i| {
                let mut req = Request::new("ffnn", kernel(i), image(i));
                if i % 8 == 0 {
                    req = req.with_hook(FaultHook::Stall(Duration::from_millis(40)));
                }
                req
            })
            .collect();
        let n = requests.len() as u64;
        // Twice the clients so the flood outruns the single worker.
        let (outcome, elapsed_s) = drive(&server, requests, CLIENTS * 2);
        let stats = server.stats();
        eprintln!(
            "[overload: {} shed of {n}, queue drained to {}]",
            outcome.shed, stats.queue_depth
        );
        rows.push(Row {
            scenario: "overload",
            requests: n,
            outcome,
            retries: stats.retries,
            elapsed_s,
        });
    }

    // Scenario 3: poison. One panic hook inside coalesced batches.
    {
        let server = Server::builder()
            .model("ffnn", qm())
            .model("occupier", qm())
            .kernel("L40", lut.clone())
            .serve(ServerConfig {
                workers: 2,
                max_batch: 4,
                linger: Duration::from_millis(50),
                retry_backoff: Duration::ZERO,
                ..ServerConfig::default()
            });
        // An idle worker takes a request at once, so batches form only
        // while both are busy: one stall per kernel holds them while the
        // first eight requests arrive and fill one exact and one L40
        // batch. The stalls name their own model, so they never share a
        // group with the scenario's requests, and being older they are
        // dispatched first. They are not part of the scenario's counts.
        let occupiers: Vec<_> = ["exact", "L40"]
            .into_iter()
            .map(|k| {
                let req = Request::new("occupier", k, image(0))
                    .with_hook(FaultHook::Stall(Duration::from_millis(150)));
                server.submit(req).expect("occupier admitted")
            })
            .collect();
        let requests: Vec<Request> = (0..16)
            .map(|i| {
                let mut req = Request::new("ffnn", kernel(i), image(i));
                if i == 7 {
                    req = req.with_hook(FaultHook::Panic);
                }
                req
            })
            .collect();
        let n = requests.len() as u64;
        let (outcome, elapsed_s) = drive(&server, requests, CLIENTS);
        for occupier in occupiers {
            occupier.wait().expect("occupier completes");
        }
        let stats = server.stats();
        eprintln!(
            "[poison: {} poisoned, {} panics, {} retries, {} completed, {} of them bisected]",
            outcome.poisoned, stats.panics, stats.retries, outcome.completed, outcome.bisected
        );
        assert!(
            outcome.bisected > 0,
            "poison: the poisoned request ran alone, so no batch was bisected"
        );
        rows.push(Row {
            scenario: "poison",
            requests: n,
            outcome,
            retries: stats.retries,
            elapsed_s,
        });
    }

    // Scenario 4: deadline. Every fourth budget is already spent.
    {
        let server = Server::builder()
            .model("ffnn", qm())
            .kernel("L40", lut.clone())
            .serve(ServerConfig::default());
        let requests: Vec<Request> = (0..16)
            .map(|i| {
                let mut req = Request::new("ffnn", kernel(i), image(i));
                if i % 4 == 0 {
                    req = req.with_deadline(Deadline::expired_now());
                }
                req
            })
            .collect();
        let n = requests.len() as u64;
        let (outcome, elapsed_s) = drive(&server, requests, CLIENTS);
        let stats = server.stats();
        eprintln!(
            "[deadline: {} rejected typed, {} completed]",
            outcome.deadline, outcome.completed
        );
        rows.push(Row {
            scenario: "deadline",
            requests: n,
            outcome,
            retries: stats.retries,
            elapsed_s,
        });
    }

    let mut report = Report::new("serve");
    for row in &rows {
        let o = &row.outcome;
        assert_eq!(
            o.completed + o.shed + o.deadline + o.poisoned,
            row.requests,
            "{}: a request vanished without a verdict",
            row.scenario
        );
        let counts = [
            ("requests", row.requests),
            ("completed", o.completed),
            ("shed", o.shed),
            ("deadline", o.deadline),
            ("poisoned", o.poisoned),
            ("retries", row.retries),
        ];
        for (metric, n) in counts {
            report.add(row.scenario, metric, n as f64, "count");
        }
        report
            .add(
                row.scenario,
                "throughput_per_s",
                row.throughput_per_s(),
                "1/s",
            )
            .add(row.scenario, "p50_ms", row.quantile_ms(0.5), "ms")
            .add(row.scenario, "p99_ms", row.quantile_ms(0.99), "ms");
    }
    report.add("config", "clients", CLIENTS as f64, "count");
    report.write();
}
