//! A from-scratch neural-network library (the TensorFlow substitution).
//!
//! Float (f32) training and inference for the LeNet-scale networks of the
//! paper, with everything the robustness pipeline needs:
//!
//! * [`layer`] — convolution, dense, average-pooling, ReLU and flatten
//!   layers: parameters and geometry, with no execution of their own.
//! * [`plan`] / [`exec`] — the one float executor: an [`plan::FPlan`]
//!   resolves layer geometry once per `(model, input shape)` pair and
//!   replays im2col-GEMM kernels over reusable scratch, in blocks of
//!   images. It answers every forward, parameter gradient, input
//!   gradient (the quantity the attacks in `axattack` ascend) and the
//!   max-abs calibration that `axquant` quantizes with. Every plan
//!   borrows its model's weights; the model is the one weight store.
//!   [`model::Sequential`]'s `forward`/`loss_and_grads`/`accuracy` are
//!   one-call wrappers over it. The seed layer-by-layer loop it replaced,
//!   and the scalar GEMM loops the tiled kernels are pinned to, are kept,
//!   hidden, as `axnn::reference`: the path the proptests pin the engine
//!   to, bit for bit.
//! * [`source`] — the gradient-source contract every attacker and
//!   hardening loop queries: [`source::GradSource`] (compiled for one
//!   input shape) and its per-thread [`source::GradHandle`], implemented
//!   for [`plan::FPlan`]; the chunked block walk over a source
//!   ([`source::map_source_blocks`]); and the one universal-perturbation
//!   ascent step ([`source::universal_ascent_step`]) that `axattack`'s
//!   universal crafter and `axquant`'s universal adversarial trainer both
//!   take. It lives here, below both engines, so the quantized engine can
//!   implement it too.
//! * [`loss`] — numerically stable softmax cross-entropy.
//! * [`model`] — [`model::Sequential`] composition, prediction
//!   and accuracy evaluation.
//! * [`init`] / [`optim`] / [`train`] — He initialization, SGD with
//!   momentum and a deterministic mini-batch training loop riding the
//!   batched engine: every minibatch runs through
//!   [`plan::FPlan::loss_and_param_grads_batch`] (a plan compiled for the
//!   batch, one training scratch per thread chunk), with per-example
//!   gradients reduced in a fixed order so trained weights are
//!   bit-identical for any `AXDNN_THREADS` setting, and
//!   [`optim::Sgd::step_scaled`] updates the model in place.
//! * [`zoo`] — the paper's architectures: LeNet-5, a 5-conv/3-pool/2-FC
//!   AlexNet-mini, and the motivational-study FFNN.
//! * [`serialize`] — explicit binary weight artifacts (see
//!   `axutil::binio`) so trained models are cached and experiments are
//!   replayable.
//!
//! # Examples
//!
//! ```
//! use axnn::model::Sequential;
//! use axnn::layer::{Dense, Layer};
//! use axtensor::Tensor;
//! use axutil::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let model = Sequential::new("tiny", vec![
//!     Layer::Dense(Dense::new(4, 3, &mut rng)),
//!     Layer::Relu,
//!     Layer::Dense(Dense::new(3, 2, &mut rng)),
//! ]);
//! let logits = model.forward(&Tensor::from_vec(vec![1.0, 0.0, -1.0, 0.5], &[4]));
//! assert_eq!(logits.len(), 2);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod exec;
pub mod init;
pub mod layer;
pub mod loss;
pub mod model;
pub mod optim;
pub mod plan;
#[doc(hidden)]
pub mod reference;
pub mod serialize;
pub mod source;
pub mod train;
pub mod zoo;

pub use layer::Layer;
pub use model::Sequential;
pub use plan::{FPlan, FScratch};
