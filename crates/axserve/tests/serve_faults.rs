//! Integration tests of the server's failure modes: deadlines,
//! backpressure, panic isolation, degradation, and graceful shutdown.
//!
//! Every scenario is driven deterministically through [`FaultHook`] —
//! no flaky "hope the race happens" timing; a stalled worker is a worker
//! we *told* to stall.

use std::time::{Duration, Instant};

use axmul::{ExactMul, MulLut};
use axnn::layer::{Dense, Layer};
use axnn::model::Sequential;
use axquant::{Placement, QuantModel};
use axserve::{DegradePolicy, FaultHook, Request, ServeError, Server, ServerConfig};
use axtensor::Tensor;
use axutil::rng::Rng;
use axutil::time::Deadline;

const IN_DIMS: [usize; 3] = [1, 6, 6];

fn qmodel(seed: u64) -> QuantModel {
    let rng = &mut Rng::seed_from_u64(seed);
    let model = Sequential::new(
        "serve-ffnn",
        vec![
            Layer::Flatten,
            Layer::Dense(Dense::new(36, 8, rng)),
            Layer::Relu,
            Layer::Dense(Dense::new(8, 4, rng)),
        ],
    );
    let calib = images(4, seed ^ 0xCA11B);
    QuantModel::from_float(&model, &calib, Placement::All).expect("supported topology")
}

fn images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t = Tensor::zeros(&IN_DIMS);
            rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
            t
        })
        .collect()
}

fn biased_lut() -> MulLut {
    MulLut::from_fn("biased", |a, b| {
        ((a as u16).wrapping_mul(b as u16) & !0x7).wrapping_add((a as u16) & 3)
    })
}

/// Polls `stats()` until `pred` holds or ~2s pass (the server settles
/// asynchronously after clients observe their responses).
fn await_stats(server: &Server, pred: impl Fn(&axserve::ServerStats) -> bool) {
    for _ in 0..200 {
        if pred(&server.stats()) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("stats never settled: {:?}", server.stats());
}

#[test]
fn served_responses_match_offline_forward() {
    let qm = qmodel(1);
    let imgs = images(6, 2);
    let lut = biased_lut();
    let plan = qm.plan(&IN_DIMS);
    let want_exact = plan.forward_batch_with(&imgs, &[&ExactMul]);
    let want_lut = plan.forward_batch_with(&imgs, &[&lut]);
    drop(plan);

    let server = Server::builder()
        .model("m", qm)
        .kernel("biased", biased_lut())
        .serve(ServerConfig::default());
    for (i, img) in imgs.iter().enumerate() {
        let (kernel, want) = if i % 2 == 0 {
            ("exact", &want_exact[i][0])
        } else {
            ("biased", &want_lut[i][0])
        };
        let resp = server
            .predict(Request::new("m", kernel, img.clone()))
            .expect("healthy request");
        assert_eq!(&resp.logits, want, "image {i}: serve != offline");
        assert_eq!(resp.class, want.argmax());
        assert_eq!(resp.kernel, kernel);
        assert!(!resp.degraded);
    }
    let stats = server.stats();
    assert_eq!(stats.completed, imgs.len() as u64);
    assert_eq!(stats.submitted, imgs.len() as u64);
    assert_eq!(stats.panics + stats.poisoned + stats.shed_overload, 0);
}

#[test]
fn unknown_names_fail_typed() {
    let server = Server::builder()
        .model("m", qmodel(3))
        .serve(ServerConfig::default());
    let img = images(1, 4).remove(0);
    assert!(matches!(
        server.predict(Request::new("ghost", "exact", img.clone())),
        Err(ServeError::UnknownModel(name)) if name == "ghost"
    ));
    assert!(matches!(
        server.predict(Request::new("m", "turbo", img)),
        Err(ServeError::UnknownKernel(name)) if name == "turbo"
    ));
}

#[test]
fn expired_deadline_is_rejected_up_front() {
    let server = Server::builder()
        .model("m", qmodel(5))
        .serve(ServerConfig::default());
    let img = images(1, 6).remove(0);
    let err = server
        .predict(Request::new("m", "exact", img).with_deadline(Deadline::expired_now()))
        .expect_err("already expired");
    assert_eq!(err, ServeError::DeadlineExceeded);
    assert_eq!(server.stats().shed_deadline, 1);
}

#[test]
fn deadline_expiring_in_queue_fails_typed_not_silent() {
    // One worker, stalled 150ms by the first request; the second has a
    // 20ms budget, so it expires while queued behind the stall.
    let server = Server::builder().model("m", qmodel(7)).serve(ServerConfig {
        workers: 1,
        max_batch: 1,
        linger: Duration::ZERO,
        ..ServerConfig::default()
    });
    let imgs = images(2, 8);
    let stalled = server
        .submit(
            Request::new("m", "exact", imgs[0].clone())
                .with_hook(FaultHook::Stall(Duration::from_millis(150))),
        )
        .expect("admitted");
    let hurried = server
        .submit(Request::new("m", "exact", imgs[1].clone()).with_budget(Duration::from_millis(20)))
        .expect("admitted before expiry");
    assert_eq!(hurried.wait(), Err(ServeError::DeadlineExceeded));
    assert!(stalled.wait().is_ok(), "the slow request still completes");
    // The server also sheds it server-side (batcher or pre-execution
    // gate) once the stall clears — the request is never silently run.
    await_stats(&server, |s| s.shed_deadline >= 1);
}

#[test]
fn overload_sheds_with_retry_hint_and_admitted_requests_complete() {
    let hint = Duration::from_millis(7);
    let server = Server::builder().model("m", qmodel(9)).serve(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        max_batch: 2,
        linger: Duration::ZERO,
        retry_after_hint: hint,
        ..ServerConfig::default()
    });
    let imgs = images(1, 10);
    // Occupy the only worker...
    let stalled = server
        .submit(
            Request::new("m", "exact", imgs[0].clone())
                .with_hook(FaultHook::Stall(Duration::from_millis(200))),
        )
        .expect("admitted");
    // ...then flood far past every bounded buffer in the chain.
    let mut admitted = Vec::new();
    let mut shed = 0u32;
    for _ in 0..32 {
        match server.submit(Request::new("m", "exact", imgs[0].clone())) {
            Ok(handle) => admitted.push(handle),
            Err(ServeError::Overloaded { retry_after }) => {
                assert_eq!(retry_after, hint);
                shed += 1;
            }
            Err(other) => panic!("unexpected error under overload: {other}"),
        }
    }
    assert!(shed > 0, "the bounded queue must shed under flood");
    assert!(!admitted.is_empty(), "backpressure is not a full outage");
    // Everything the server admitted, it answers.
    assert!(stalled.wait().is_ok());
    for handle in admitted {
        assert!(handle.wait().is_ok());
    }
    let stats = server.stats();
    assert_eq!(stats.shed_overload, u64::from(shed));
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn sustained_overload_degrades_lut_traffic_to_exact() {
    let qm = qmodel(11);
    let img = images(1, 12).remove(0);
    let want_exact = qm
        .plan(&IN_DIMS)
        .forward_batch_with(std::slice::from_ref(&img), &[&ExactMul]);

    let server = Server::builder()
        .model("m", qm)
        .kernel("biased", biased_lut())
        .serve(ServerConfig {
            workers: 1,
            queue_capacity: 2,
            max_batch: 2,
            linger: Duration::ZERO,
            degrade: DegradePolicy {
                enabled: true,
                window: Duration::from_secs(10),
                shed_threshold: 2,
                hold: Duration::from_secs(10),
            },
            ..ServerConfig::default()
        });
    // Trip the policy: stall the worker and flood until >= 2 sheds.
    let stalled = server
        .submit(
            Request::new("m", "biased", img.clone())
                .with_hook(FaultHook::Stall(Duration::from_millis(150))),
        )
        .expect("admitted");
    let mut admitted = Vec::new();
    while server.stats().shed_overload < 2 {
        if let Ok(h) = server.submit(Request::new("m", "biased", img.clone())) {
            admitted.push(h);
        }
    }
    assert!(stalled.wait().is_ok());
    for h in admitted {
        let _ = h.wait();
    }
    // With the queue drained, new LUT traffic is rerouted — and says so.
    let resp = server
        .predict(Request::new("m", "biased", img.clone()))
        .expect("admitted after drain");
    assert!(resp.degraded, "response must disclose the reroute");
    assert_eq!(resp.kernel, "exact", "degraded traffic answers as exact");
    assert_eq!(
        resp.logits, want_exact[0][0],
        "degraded numerics are the exact kernel's"
    );
    let stats = server.stats();
    assert_eq!(stats.degrade_activations, 1);
    assert!(stats.degraded >= 1);
    // Explicit exact traffic is untouched by the policy.
    let exact = server
        .predict(Request::new("m", "exact", img))
        .expect("exact request");
    assert!(!exact.degraded);
}

#[test]
fn panicking_request_is_isolated_from_its_batch_mates() {
    let qm = qmodel(13);
    let imgs = images(4, 14);
    let plan = qm.plan(&IN_DIMS);
    let want = plan.forward_batch_with(&imgs, &[&ExactMul]);
    drop(plan);

    let server = Server::builder()
        .model("m", qm)
        .kernel("biased", biased_lut())
        .serve(ServerConfig {
            workers: 1,
            max_batch: 4,
            // Long linger so the four requests below coalesce into ONE batch
            // via the full-flush path while the worker is stalled.
            linger: Duration::from_millis(50),
            max_retries: 2,
            retry_backoff: Duration::ZERO,
            ..ServerConfig::default()
        });
    // The stall runs under another kernel, so it is its own group and
    // goes to the idle worker alone; the four requests behind it find
    // the only worker busy and wait to fill one batch.
    let warm = images(1, 15).remove(0);
    let stalled = server
        .submit(
            Request::new("m", "biased", warm)
                .with_hook(FaultHook::Stall(Duration::from_millis(100))),
        )
        .expect("admitted");
    let handles: Vec<_> = imgs
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let mut req = Request::new("m", "exact", img.clone());
            if i == 2 {
                req = req.with_hook(FaultHook::Panic);
            }
            server.submit(req).expect("admitted")
        })
        .collect();
    assert_eq!(stalled.wait().expect("stalled request").batch_size, 1);
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(resp) => {
                assert_ne!(i, 2, "the poisoned request must not succeed");
                assert_eq!(
                    resp.logits, want[i][0],
                    "batch-mate {i} must still be bit-identical to offline"
                );
            }
            Err(ServeError::Poisoned { retries }) => {
                assert_eq!(i, 2, "only the poisoned request may fail");
                assert_eq!(retries, 2, "bisection hops count toward the retry bound");
            }
            Err(other) => panic!("request {i}: unexpected error {other}"),
        }
    }
    // One batch of four bisects as 4 -> {0,1} + {2,3} -> {2} + {3}: the
    // batch, {2,3} and {2} panic, and the halves re-run 2 + 2 + 1 + 1
    // requests. A batch of three or two would count 5 or 3 retries.
    let stats = server.stats();
    assert_eq!(stats.poisoned, 1);
    assert_eq!(stats.panics, 3);
    assert_eq!(stats.retries, 6);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn singleton_panic_exhausts_bounded_retries() {
    let server = Server::builder()
        .model("m", qmodel(17))
        .serve(ServerConfig {
            workers: 1,
            max_batch: 1,
            linger: Duration::ZERO,
            max_retries: 3,
            retry_backoff: Duration::ZERO,
            ..ServerConfig::default()
        });
    let img = images(1, 18).remove(0);
    let err = server
        .predict(Request::new("m", "exact", img).with_hook(FaultHook::Panic))
        .expect_err("deterministic panic cannot succeed");
    assert_eq!(err, ServeError::Poisoned { retries: 3 });
    let stats = server.stats();
    // Initial execution + 3 retries, each panicking.
    assert_eq!(stats.panics, 4);
    assert_eq!(stats.retries, 3);
    assert_eq!(stats.poisoned, 1);
    // The server survives: the next request is served normally.
    let img2 = images(1, 19).remove(0);
    assert!(server.predict(Request::new("m", "exact", img2)).is_ok());
}

#[test]
fn dropping_the_server_drains_queued_requests() {
    let server = Server::builder()
        .model("m", qmodel(21))
        .serve(ServerConfig {
            workers: 2,
            max_batch: 4,
            linger: Duration::from_millis(20),
            ..ServerConfig::default()
        });
    let imgs = images(8, 22);
    let handles: Vec<_> = imgs
        .iter()
        .map(|img| {
            server
                .submit(Request::new("m", "exact", img.clone()))
                .expect("admitted")
        })
        .collect();
    // Drop with work still pending: graceful drain answers everything.
    drop(server);
    for handle in handles {
        assert!(handle.wait().is_ok(), "queued request lost in shutdown");
    }
}

#[test]
fn idle_server_answers_a_lone_request_without_lingering() {
    // A linger far longer than any forward pass: only the idle-worker
    // rule can answer these requests quickly.
    let server = Server::builder()
        .model("m", qmodel(25))
        .serve(ServerConfig {
            linger: Duration::from_secs(1),
            ..ServerConfig::default()
        });
    for (i, img) in images(3, 26).into_iter().enumerate() {
        let t0 = Instant::now();
        let resp = server
            .predict(Request::new("m", "exact", img))
            .expect("healthy request");
        let waited = t0.elapsed();
        assert_eq!(resp.batch_size, 1, "request {i}");
        assert!(
            waited < Duration::from_millis(250),
            "request {i}: an idle server held a lone request for {waited:?}"
        );
    }
}

#[test]
fn requests_coalesce_while_every_worker_is_busy() {
    let qm = qmodel(27);
    let imgs = images(4, 28);
    let want = qm.plan(&IN_DIMS).forward_batch_with(&imgs, &[&ExactMul]);
    let server = Server::builder()
        .model("m", qm)
        .kernel("biased", biased_lut())
        .serve(ServerConfig {
            workers: 1,
            max_batch: imgs.len(),
            linger: Duration::from_secs(1),
            ..ServerConfig::default()
        });
    // The stall runs under another kernel, so it is its own group and
    // goes to the idle worker alone. The requests behind it arrive one
    // by one, find the only worker busy, and wait to fill one batch.
    let stalled = server
        .submit(
            Request::new("m", "biased", images(1, 29).remove(0))
                .with_hook(FaultHook::Stall(Duration::from_millis(200))),
        )
        .expect("admitted");
    let handles: Vec<_> = imgs
        .iter()
        .map(|img| {
            std::thread::sleep(Duration::from_millis(5));
            server
                .submit(Request::new("m", "exact", img.clone()))
                .expect("admitted")
        })
        .collect();
    assert_eq!(stalled.wait().expect("stalled request").batch_size, 1);
    for (i, handle) in handles.into_iter().enumerate() {
        let resp = handle.wait().expect("healthy request");
        assert_eq!(
            resp.batch_size,
            imgs.len(),
            "request {i} ran outside the batch"
        );
        assert_eq!(resp.logits, want[i][0], "request {i}: serve != offline");
    }
}

#[test]
fn per_kernel_batch_stats_account_for_traffic() {
    let server = Server::builder()
        .model("m", qmodel(23))
        .kernel("biased", biased_lut())
        .serve(ServerConfig::default());
    let imgs = images(5, 24);
    for (i, img) in imgs.iter().enumerate() {
        let kernel = if i < 2 { "exact" } else { "biased" };
        server
            .predict(Request::new("m", kernel, img.clone()))
            .expect("healthy request");
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 5);
    assert!(stats.batches >= 2, "two kernels cannot share a batch");
    assert!(stats.mean_batch_size() >= 1.0);
    let total: u64 = stats.per_kernel.iter().map(|k| k.requests).sum();
    assert_eq!(total, 5);
    let exact = stats.per_kernel.iter().find(|k| k.kernel == "exact");
    let biased = stats.per_kernel.iter().find(|k| k.kernel == "biased");
    assert_eq!(exact.map(|k| k.requests), Some(2));
    assert_eq!(biased.map(|k| k.requests), Some(3));
}
