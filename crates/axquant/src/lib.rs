//! 8-bit fixed-point quantization and integer inference — the
//! TFApprox substitution.
//!
//! The paper's pipeline (Fig 3 and Algorithm 1) trains in float with
//! accurate multipliers, applies fixed-point quantization to the inference
//! model, and replaces the conv-layer multipliers with approximate parts.
//! This crate implements that inference engine:
//!
//! * [`qparams`] — symmetric quantization scales and the max-abs
//!   calibrator.
//! * [`qmodel`] — [`qmodel::QuantModel`]: an int8 mirror of a
//!   float [`axnn::Sequential`]. Weights are i8 (stored sign/magnitude),
//!   activations are u8 (post-ReLU), accumulators are i32, and every
//!   conv/dense MAC routes through a pluggable
//!   [`MulKernel`](axmul::kernel::MulKernel) — the exact kernel gives the
//!   quantized accurate DNN, a LUT from `axmul::registry` gives an AxDNN.
//! * [`plan`] — [`plan::QPlan`]: the compiled execution engine. Shapes
//!   are resolved once, im2col patch and activation scratch is reused
//!   across images, and the batch API evaluates `N images x M kernels`
//!   in one pass, sharing work until the kernels diverge.
//! * [`exec`] — the hot loops: the sign/magnitude LUT-GEMM that conv
//!   and dense layers lower to (over `axnn`'s generic im2col patches),
//!   monomorphized per [`MulBackend`](axmul::kernel::MulBackend).
//! * [`placement`] — where approximation applies (conv layers only, as in
//!   the paper, or everywhere).
//! * [`qtrain`] — approximation-aware fine-tuning: a straight-through
//!   estimator backward over the quantized forward, retraining float
//!   shadow weights against the chosen multiplier (the retraining
//!   defense of the paper's Sec. V).
//! * [`universal`] — the crate's one hardening loop: universal
//!   adversarial training through the quantized forward, of which
//!   [`finetune`] is the zero-ball case.
//! * [`ensemble`] — moving-target defense: [`ensemble::EnsembleModel`]
//!   answers each query through a kernel sampled per query index by a
//!   [`ensemble::KernelPolicy`] (deterministic derived-stream draws,
//!   thread-invariant), grouped by sampled kernel so inference stays
//!   batched.
//!
//! # Examples
//!
//! ```
//! use axnn::zoo;
//! use axquant::qmodel::QuantModel;
//! use axquant::placement::Placement;
//! use axmul::ExactMul;
//! use axtensor::Tensor;
//! use axutil::rng::Rng;
//!
//! # fn main() -> Result<(), axutil::AxError> {
//! let model = zoo::lenet5(&mut Rng::seed_from_u64(0));
//! let calib = vec![Tensor::full(&[1, 28, 28], 0.5)];
//! let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly)?;
//! let logits = qm.forward_with(&Tensor::full(&[1, 28, 28], 0.5), &ExactMul);
//! assert_eq!(logits.len(), 10);
//! # Ok(())
//! # }
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod ensemble;
pub mod exec;
pub mod placement;
pub mod plan;
pub mod qlevel;
pub mod qmodel;
pub mod qparams;
pub mod qtrain;
pub mod universal;

pub use ensemble::{EnsembleModel, KernelPolicy};
pub use placement::Placement;
pub use plan::{QPlan, QScratch};
pub use qlevel::QLevel;
pub use qmodel::QuantModel;
pub use qparams::QuantParams;
pub use qtrain::{finetune, FinetuneConfig, FinetuneHistory, QTrainPlan, QTrainScratch};
