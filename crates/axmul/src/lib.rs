//! Named approximate-multiplier library — the EvoApprox8b substitution.
//!
//! The paper selects multipliers from the EvoApprox8b library by name
//! (1JFF, 96D, 12N4, 17KS, …). The evolved gate-level netlists of that
//! library are not available offline, so this crate substitutes each name
//! with a *calibrated recipe* built from the [`axcirc`] array-multiplier
//! generator: a combination of column truncation, lower-part-OR
//! compression, approximate adder cells and row perforation chosen so the
//! exhaustively-measured mean absolute error lands near the published
//! value (where the paper quotes one: 17KS = 0.56%, JQQ = 1.12%,
//! L40 = 1.54%) and so the *error structure* (biased vs. zero-mean,
//! small-operand behaviour) spans the same qualitative range. The measured
//! datasheet of every part is regenerated by `repro multipliers_report`
//! (see the README).
//!
//! * [`kernel`] — the [`kernel::MulKernel`] trait: one 8x8
//!   unsigned multiplication, the plug-in point for the quantized
//!   inference engine; [`kernel::MulBackend`] classifies a kernel once
//!   per layer so GEMM inner loops monomorphize (builtin multiply, raw
//!   table read, or generic trait call).
//! * [`lut`] — 64Ki-entry lookup tables extracted from netlists; one L1
//!   resident table lookup per MAC during inference.
//! * [`faulted`] — the same tables with stuck-at faults injected at the
//!   netlist layer ([`faulted::FaultedMul`]), for hardware-defect
//!   robustness sweeps.
//! * [`columns`] — ordered named kernel sets ([`columns::MulColumns`],
//!   [`columns::NetColumns`]) with the "first entry is the accurate M1"
//!   invariant enforced at construction; the multiplier-set type every
//!   sweep and the moving-target ensemble share.
//! * [`spec`] — a named multiplier specification (name, family, recipe,
//!   calibration target).
//! * [`registry`] — the named parts and the per-figure sets used by the
//!   paper (M1-M9 for LeNet/MNIST, M1-M8 for AlexNet/CIFAR-10).
//! * [`signed`] — sign-magnitude signed wrappers (the `mul8s_*` family).
//! * [`metrics`] — EvoApprox-style datasheets (error + area/delay/power).
//!
//! # Examples
//!
//! ```
//! use axmul::registry::Registry;
//! use axmul::kernel::MulKernel;
//!
//! let reg = Registry::standard();
//! let exact = reg.build_lut("1JFF").expect("1JFF is registered");
//! assert_eq!(exact.mul(123, 45), 123 * 45);
//!
//! let approx = reg.build_lut("L40").expect("L40 is registered");
//! assert_ne!(approx.mul(255, 255), 255 * 255); // approximate part
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod columns;
pub mod faulted;
pub mod kernel;
pub mod lut;
pub mod metrics;
pub mod registry;
pub mod signed;
pub mod spec;

pub use columns::{Columns, MulColumns, NetColumns};
pub use faulted::FaultedMul;
pub use kernel::{ExactMul, MulBackend, MulKernel};
pub use lut::MulLut;
pub use registry::Registry;
pub use signed::SignedMul;
pub use spec::{Family, MulSpec};
