//! `axserve` — fault-tolerant batched inference serving over the
//! compiled quantized engines.
//!
//! The crate turns the offline
//! [`QPlan`](axquant::QPlan)/[`QScratch`](axquant::QScratch) engine into
//! an online service built on `std::thread` + `std::sync::mpsc` only: a
//! [`Server`] owns a worker pool and a dynamic micro-batcher that hands
//! requests to idle workers at once and, while every worker is busy,
//! coalesces concurrent [`predict`](Server::predict) calls into single
//! batched passes over a shared plan/scratch [`PlanPool`].
//!
//! Robustness is the first-class concern, mirroring the paper's framing
//! of approximation as a *defense that must not collapse under attack*:
//! a serving layer is only as defensive as its worst failure mode.
//!
//! | Failure mode | Mechanism | Surfaced as |
//! |---|---|---|
//! | Latency budget exceeded | [`Deadline`](axutil::time::Deadline) gates at admission, batch formation and execution | [`ServeError::DeadlineExceeded`] |
//! | Overload | Bounded admission queue, capped pending set, bounded worker channel | [`ServeError::Overloaded`] with retry-after hint |
//! | Sustained overload | Optional [`DegradePolicy`]: reroute LUT traffic to the exact kernel for a hold period | [`Response::degraded`] + kernel name |
//! | Predictable numerics under attack | Moving-target ensembles ([`ServerBuilder::ensemble`](server::ServerBuilder::ensemble)): per-query kernel draw from a [`KernelPolicy`](axquant::KernelPolicy) | [`Response::sampled`] + kernel name |
//! | Request panics a worker | `catch_unwind` + batch bisection + bounded backoff retries | [`ServeError::Poisoned`]; batch-mates still answered |
//! | Unknown model / kernel | Name resolution at admission | [`ServeError::UnknownModel`] / [`ServeError::UnknownKernel`] |
//!
//! Observability comes from [`Server::stats`] returning a
//! [`ServerStats`] snapshot (queue depth, in-flight, shed/panic/retry
//! counters, per-kernel batch sizes).
//!
//! **Determinism contract:** completed responses are bit-identical to an
//! offline [`forward_batch_with`](axquant::QPlan::forward_batch_with)
//! pass with the answering kernel, for any worker count, coalescing or
//! flush timing (pinned by `tests/prop_serve.rs`).
//!
//! ```
//! use axserve::{Request, Server, ServerConfig};
//! # use axnn::zoo; use axquant::{Placement, QuantModel};
//! # use axtensor::Tensor; use axutil::rng::Rng;
//! # let model = zoo::ffnn(&mut Rng::seed_from_u64(1));
//! # let mut img = Tensor::zeros(&[1, 28, 28]);
//! # Rng::seed_from_u64(2).fill_range_f32(img.data_mut(), 0.0, 1.0);
//! # let qm = QuantModel::from_float(&model, std::slice::from_ref(&img), Placement::All).unwrap();
//! let server = Server::builder()
//!     .model("lenet", qm)
//!     .serve(ServerConfig::default());
//! let response = server.predict(Request::new("lenet", "exact", img)).unwrap();
//! assert_eq!(response.class, response.logits.argmax());
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod batcher;
pub mod error;
pub mod pool;
pub mod request;
pub mod server;
pub mod stats;

pub use error::ServeError;
pub use pool::{ModelId, PlanPool};
pub use request::{FaultHook, Request, Response};
pub use server::{DegradePolicy, ResponseHandle, Server, ServerBuilder, ServerConfig};
pub use stats::{KernelBatchStats, ServerStats};
