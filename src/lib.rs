//! # axdnn — adversarial robustness of approximate DNN accelerators
//!
//! A from-scratch Rust reproduction of *"Is Approximation Universally
//! Defensive Against Adversarial Attacks in Deep Neural Networks?"*
//! (Siddique & Hoque, DATE 2022, arXiv:2112.01555).
//!
//! This umbrella crate re-exports the workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`circ`] | gate-level netlists, approximate adder/multiplier generators, error & area analysis |
//! | [`mul`] | named approximate multipliers (the EvoApprox8b substitution) as inference LUTs |
//! | [`tensor`] | minimal f32 tensors |
//! | [`data`] | synthetic MNIST / CIFAR-10 substitutes |
//! | [`nn`] | float training & inference (LeNet-5, AlexNet-mini, FFNN) with input gradients |
//! | [`quant`] | int8 fixed-point inference with pluggable multiplier kernels |
//! | [`attack`] | the ten Foolbox-style attacks (FGM/BIM/PGD/CR/RAG/RAU) |
//! | [`robust`] | the paper's methodology: Algorithm 1 (`eval::robustness_grid`), robustness grids, transferability, quantization study |
//! | [`serve`] | fault-tolerant batched inference serving: deadlines, backpressure, panic isolation, degradation |
//! | [`util`] | deterministic PRNG, parallel helpers, binary codec |
//!
//! # Quickstart
//!
//! ```
//! use axdnn::mul::{kernel::MulKernel, Registry};
//!
//! // Build the paper's L40 approximate multiplier and inspect one product.
//! let reg = Registry::standard();
//! let l40 = reg.build_lut("L40").expect("registered part");
//! assert_ne!(l40.mul(200, 200), 200 * 200); // it approximates
//! ```
//!
//! See `examples/` for end-to-end scenarios (train → quantize → attack →
//! robustness grid) and the `bench` crate for the figure regeneration
//! binaries.

#![deny(rustdoc::broken_intra_doc_links)]

/// Adversarial attacks (re-export of `axattack`).
pub use axattack as attack;
/// Gate-level circuits (re-export of `axcirc`).
pub use axcirc as circ;
/// Synthetic datasets (re-export of `axdata`).
pub use axdata as data;
/// Named approximate multipliers (re-export of `axmul`).
pub use axmul as mul;
/// Neural networks (re-export of `axnn`).
pub use axnn as nn;
/// Fixed-point quantization (re-export of `axquant`).
pub use axquant as quant;
/// The paper's methodology (re-export of `axrobust`).
pub use axrobust as robust;
/// Batched inference serving (re-export of `axserve`).
pub use axserve as serve;
/// Tensors (re-export of `axtensor`).
pub use axtensor as tensor;
/// Utilities (re-export of `axutil`).
pub use axutil as util;

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        // Every one of the ten re-exported crates answers through its
        // umbrella path (see also tests/workspace.rs for the manifest side).
        let reg = crate::mul::Registry::standard();
        assert!(reg.find("1JFF").is_some());
        assert_eq!(crate::attack::suite::AttackId::ALL.len(), 10);
        assert_eq!(crate::robust::eval::paper_eps_grid().len(), 10);

        let x = crate::tensor::Tensor::from_vec(vec![3.0, -4.0], &[2]);
        assert_eq!(x.l2_norm(), 5.0);

        let mut rng = crate::util::rng::Rng::seed_from_u64(9);
        let data = crate::data::mnist::SynthMnist::generate(&crate::data::mnist::MnistConfig {
            n: 2,
            seed: 3,
            ..Default::default()
        });
        assert_eq!(data.len(), 2);

        let model = crate::nn::zoo::ffnn(&mut rng);
        assert!(model.num_params() > 0);

        assert_eq!(crate::circ::Netlist::new(4).num_inputs(), 4);
        let _ = crate::quant::Placement::ConvOnly;

        let cfg = crate::serve::ServerConfig::default();
        assert!(cfg.workers > 0 && cfg.max_batch > 0);
    }
}
