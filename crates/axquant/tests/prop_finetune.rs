//! Property tests pinning the approximation-aware fine-tuning engine.
//!
//! Four contracts:
//!
//! 1. **Thread invariance** — [`finetune`] histories and the final
//!    shadow weights are *bit-identical* across `AXDNN_THREADS`
//!    {1, 2, 3, 7}: the batched STE gradient sums every parameter's
//!    per-image terms in image order, so chunking must
//!    never leak into the result (the PR 4 training contract, extended
//!    to the quantized engine).
//! 2. **Exact no-op-ness** — fine-tuning a *converged* model through the
//!    exact multiplier is a near-no-op: quantized accuracy does not
//!    degrade and the weights barely move.
//! 3. **Batch entry point contracts** — the batched STE gradient equals
//!    the per-image fold bit-for-bit (compared through `f32::to_bits`)
//!    for any topology/batch size, and
//!    empty or mixed-shape batches panic like the PR 4 entry points.
//! 4. **One forward** — the loss the STE backward differentiates is the
//!    cross-entropy of the inference engine's logits
//!    ([`QuantModel::forward_with`]), bit for bit.
//!
//! Chunking is controlled through the `AXDNN_THREADS` environment
//! variable; each sweep pins it with `axutil::parallel::with_threads`,
//! which serializes the sweeps within this test binary.

use axdata::Dataset;
use axmul::{ExactMul, MulKernel, Registry};
use axnn::loss::cross_entropy_with_grad;
use axnn::model::GradBuffer;
use axnn::train::{fit, TrainConfig};
use axquant::qtrain::{finetune, FinetuneConfig, QTrainPlan};
use axquant::{Placement, QuantModel};
use axtensor::Tensor;
use axutil::parallel::with_threads;
use axutil::rng::Rng;
use proptest::prelude::*;

mod common;
use common::{calib_of, small_model, ARCHS, IN_DIMS};

/// A learnable 4-class dataset in the fine-tuning input shape.
fn tiny_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mut imgs = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n {
        let label = rng.index(4);
        let mut t = Tensor::zeros(&IN_DIMS);
        rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
        t.data_mut()[label * 9] += 1.0;
        imgs.push(t);
        labels.push(label);
    }
    Dataset::new("ft-tiny", imgs, labels, 4)
}

/// Every gradient value's bit pattern, in buffer order: `==` on floats
/// equates `-0.0` with `+0.0`, the bits do not.
fn grad_bits(g: &GradBuffer) -> Vec<u32> {
    g.layers
        .iter()
        .flatten()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Batch sizes around the engine's 4-image blocks: partial blocks, one
/// full block, and one and two full blocks with a remainder.
const BATCH_SIZES: [usize; 7] = [1, 2, 3, 4, 5, 7, 9];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// For every batch size in [`BATCH_SIZES`] and every thread chunking,
    /// the batched STE gradient is the per-image fold of its first `n`
    /// images, bit for bit.
    #[test]
    fn batched_ste_grads_are_bit_exact_with_per_image_fold(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..ARCHS,
    ) {
        let model = small_model(arch, seed);
        let data = tiny_dataset(9, seed ^ 0x57E);
        let calib = calib_of(&data, 4);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &IN_DIMS);
        let lut = Registry::standard().build_lut("17KS").unwrap();
        // The reference: per-image gradients folded in image order, one
        // prefix per batch size.
        let prefixes = with_threads(1, || {
            let mut s = plan.scratch();
            let mut want_loss = 0.0f32;
            let mut want = plan.zero_grads();
            let mut prefixes = Vec::new();
            for i in 0..data.len() {
                let (l, g) = plan.loss_and_param_grads(&mut s, data.image(i), data.label(i), &lut);
                want_loss += l;
                want.accumulate(&g);
                prefixes.push((want_loss.to_bits(), grad_bits(&want)));
            }
            prefixes
        });
        for threads in [1, 2, 3, 7] {
            with_threads(threads, || {
                for n in BATCH_SIZES {
                    let (loss, grads) = plan.loss_and_param_grads_batch(
                        n, |i| data.image(i), |i| data.label(i), &lut,
                    );
                    prop_assert!(
                        (loss.to_bits(), grad_bits(&grads)) == prefixes[n - 1],
                        "batched STE gradient diverges from the per-image fold \
                         (arch {arch}, seed {seed}, n {n}, threads {threads})"
                    );
                }
                Ok(())
            })?;
        }
    }
}

/// The training forward is the inference forward: on every fixture
/// (the two-conv shape included) and under the exact and an approximate
/// multiplier, the STE loss equals the cross-entropy of
/// `QuantModel::forward_with`'s logits, bit for bit.
#[test]
fn training_loss_is_the_inference_forward_loss() {
    let data = tiny_dataset(6, 0xF0E);
    let calib = calib_of(&data, 4);
    let l40 = Registry::standard().build_lut("L40").unwrap();
    let kernels: [&dyn MulKernel; 2] = [&ExactMul, &l40];
    for arch in 0..ARCHS {
        let model = small_model(arch, 0x1F0 + arch as u64);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &IN_DIMS);
        let mut s = plan.scratch();
        for (ki, &kernel) in kernels.iter().enumerate() {
            for i in 0..data.len() {
                let (x, y) = (data.image(i), data.label(i));
                let (loss, _) = plan.loss_and_param_grads(&mut s, x, y, kernel);
                let (want, _) = cross_entropy_with_grad(&qm.forward_with(x, kernel), y);
                assert_eq!(
                    loss.to_bits(),
                    want.to_bits(),
                    "STE loss is not the inference loss (arch {arch}, kernel {ki}, image {i})"
                );
            }
        }
    }
}

/// `finetune` must produce bit-identical histories and shadow weights for
/// every thread chunking, across topologies and an approximate kernel.
#[test]
fn finetune_is_bit_identical_across_thread_counts() {
    let data = tiny_dataset(24, 77);
    let calib = calib_of(&data, 6);
    let lut = Registry::standard().build_lut("L40").unwrap();
    let cfg = FinetuneConfig {
        epochs: 2,
        batch_size: 5,
        placement: Placement::All,
        eval_cap: 24,
        ..Default::default()
    };
    for arch in 0..ARCHS {
        let mut golden_model = small_model(arch, 100 + arch as u64);
        let (golden_hist, _) = with_threads(1, || {
            finetune(&mut golden_model, &data, &calib, &lut, &cfg).unwrap()
        });
        for threads in [2, 3, 7] {
            let mut model = small_model(arch, 100 + arch as u64);
            let (hist, _) = with_threads(threads, || {
                finetune(&mut model, &data, &calib, &lut, &cfg).unwrap()
            });
            assert_eq!(
                hist, golden_hist,
                "FinetuneHistory diverges at {threads} threads (arch {arch})"
            );
            assert_eq!(
                model, golden_model,
                "fine-tuned shadow weights diverge at {threads} threads (arch {arch})"
            );
        }
    }
}

/// Fine-tuning a converged model through the *exact* multiplier must be a
/// near-no-op: the quantized forward already matches the float forward up
/// to rounding, so the STE gradients are those of a converged model.
#[test]
fn exact_finetune_of_converged_model_is_near_noop() {
    // A high-margin variant of the tiny dataset: the class pixel is a
    // strong 3.0 bump, so "converged" means confidently correct and a
    // tiny weight drift cannot flip borderline samples.
    let data = {
        let mut rng = Rng::seed_from_u64(55);
        let mut imgs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..60 {
            let label = rng.index(4);
            let mut t = Tensor::zeros(&IN_DIMS);
            rng.fill_range_f32(t.data_mut(), 0.0, 0.4);
            t.data_mut()[label * 9] += 3.0;
            imgs.push(t);
            labels.push(label);
        }
        Dataset::new("ft-margin", imgs, labels, 4)
    };
    let mut model = small_model(0, 56);
    fit(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 20,
            batch_size: 8,
            lr: 0.08,
            ..Default::default()
        },
    );
    assert!(
        model.accuracy(&data, 60) >= 0.9,
        "training failed to converge: {}",
        model.accuracy(&data, 60)
    );
    let calib = calib_of(&data, 8);
    let before = model.clone();
    let cfg = FinetuneConfig {
        epochs: 2,
        batch_size: 8,
        placement: Placement::All,
        eval_cap: 60,
        ..Default::default()
    };
    let (hist, _) = finetune(&mut model, &data, &calib, &ExactMul, &cfg).unwrap();
    // Accuracy must not degrade...
    assert!(
        *hist.accuracies.last().unwrap() >= hist.initial_accuracy - 1e-6,
        "exact fine-tune degraded accuracy: {:?} from {}",
        hist.accuracies,
        hist.initial_accuracy
    );
    // ...and the weights must barely move: global drift under 5% of the
    // global parameter norm.
    let mut drift_sq = 0f64;
    let mut norm_sq = 0f64;
    for (la, lb) in model.layers().iter().zip(before.layers()) {
        for (pa, pb) in la.params().iter().zip(lb.params()) {
            let d = pa.sub(pb).l2_norm() as f64;
            let n = pb.l2_norm() as f64;
            drift_sq += d * d;
            norm_sq += n * n;
        }
    }
    let rel = (drift_sq.sqrt() / norm_sq.sqrt()) as f32;
    assert!(rel < 0.05, "weights moved {:.2}% globally", 100.0 * rel);
}

/// The empty-batch and empty-dataset panics of the PR 4 entry points.
#[test]
#[should_panic(expected = "non-empty batch")]
fn empty_ste_batch_panics() {
    let model = small_model(0, 9);
    let data = tiny_dataset(4, 10);
    let qm = QuantModel::from_float(&model, &calib_of(&data, 4), Placement::All).unwrap();
    let plan = QTrainPlan::compile(&qm, &model, &IN_DIMS);
    let _ = plan.loss_and_param_grads_batch(0, |_| unreachable!(), |_| unreachable!(), &ExactMul);
}

/// Same-length/different-shape images must die instead of silently
/// running under image 0's geometry.
#[test]
#[should_panic(expected = "planned shape")]
fn mixed_shape_ste_batch_panics() {
    let model = small_model(2, 11);
    let data = tiny_dataset(4, 12);
    let qm = QuantModel::from_float(&model, &calib_of(&data, 4), Placement::All).unwrap();
    let plan = QTrainPlan::compile(&qm, &model, &IN_DIMS);
    let images = [data.image(0).clone(), Tensor::zeros(&[8, 8])];
    let _ = plan.loss_and_param_grads_batch(2, |i| &images[i], |_| 0, &ExactMul);
}

#[test]
#[should_panic(expected = "empty dataset")]
fn finetune_on_empty_dataset_panics() {
    let mut model = small_model(0, 13);
    let data = Dataset::new("empty", Vec::new(), Vec::new(), 4);
    let calib = vec![Tensor::zeros(&IN_DIMS)];
    let _ = finetune(
        &mut model,
        &data,
        &calib,
        &ExactMul,
        &FinetuneConfig::default(),
    );
}
