//! Shared utilities for the AxDNN adversarial-robustness reproduction.
//!
//! This crate provides the deterministic foundations every other crate in
//! the workspace builds on:
//!
//! * [`rng`] — a self-contained, seedable SplitMix64 / Xoshiro256++ PRNG
//!   with the handful of distributions the experiments need. Using our own
//!   generator (instead of the `rand` crate) guarantees that every dataset,
//!   weight initialization and attack draw is bit-reproducible across
//!   platforms and library versions, which is what makes every figure and
//!   table the README regenerates reproducible.
//! * [`parallel`] — [`parallel::par_map_chunks`], the one scoped-thread
//!   primitive for embarrassingly parallel loops (per-image evaluation,
//!   batch gradients), sized by [`parallel::num_threads`]; and
//!   [`parallel::with_threads`], the one place that pins
//!   `AXDNN_THREADS`: under one process-wide lock, restoring the previous
//!   value on return, early `Err` and unwind alike.
//! * [`binio`] — a small explicit binary codec (on top of `bytes`) used for
//!   model-weight artifacts; explicit codecs keep artifacts bit-stable.
//! * [`time`] — [`time::Deadline`]: latency budgets for the serving engine.
//! * [`sync`] — a bounded MPSC channel with an observable depth gauge,
//!   the admission-queue primitive behind `axserve`'s backpressure.
//! * [`error`] — the shared [`AxError`] error type.
//!
//! # Examples
//!
//! ```
//! use axutil::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let x = rng.next_f32();            // uniform in [0, 1)
//! let y = rng.normal_f32();          // standard normal
//! assert!((0.0..1.0).contains(&x));
//! assert!(y.is_finite());
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod binio;
pub mod error;
pub mod parallel;
pub mod rng;
pub mod sync;
pub mod time;

pub use error::AxError;
pub use rng::Rng;
