//! A minimal dense `f32` tensor library.
//!
//! This is the numeric substrate of the float (training / attack) path:
//! row-major tensors with explicit shapes, element-wise operations,
//! matrix-vector products and the norms the adversarial-attack budgets
//! are defined in (`l0`, `l2`, `linf`).
//!
//! The design is deliberately small: the networks in this reproduction are
//! LeNet-scale, so clarity and determinism beat generality. Convolution
//! kernels live in `axnn::exec`, not here.
//!
//! # Examples
//!
//! ```
//! use axtensor::Tensor;
//!
//! let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
//! assert_eq!(x.l2_norm(), (14.0f32).sqrt());
//! assert_eq!(x.argmax(), 2);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod norms;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use norms::Norm;
pub use shape::Shape;
pub use tensor::Tensor;
