//! Property tests pinning the batched training engine to the seed paths.
//!
//! `FPlan::loss_and_param_grads_batch` must be a pure performance
//! optimization: for any model topology, batch size and thread chunking,
//! the summed loss and [`GradBuffer`] must be *bit-exact* (compared
//! through `f32::to_bits`, so `-0.0` and `+0.0` differ) with the seed
//! per-image fold `for i { loss += l_i; grads.accumulate(&g_i) }` over
//! [`Sequential::loss_and_grads`] calls. On top of that, `train::fit`
//! must reproduce the exact seed `TrainHistory` — losses, accuracies and
//! trained weights bit-for-bit — under every `AXDNN_THREADS` setting.
//!
//! Chunking is controlled through the `AXDNN_THREADS` environment
//! variable; each sweep pins it with `axutil::parallel::with_threads`,
//! which serializes the sweeps and restores the variable even when a
//! `prop_assert!` returns early.

use axdata::Dataset;
use axnn::model::{GradBuffer, Sequential};
use axnn::optim::Sgd;
use axnn::train::{fit, TrainConfig, TrainHistory};
use axtensor::Tensor;
use axutil::parallel::with_threads;
use axutil::rng::Rng;
use proptest::prelude::*;

mod common;
use common::{grad_bits, images, small_model, ARCHS, IN_DIMS};

/// Batch sizes around the plan's 4-image blocks: partial blocks, one
/// full block, and one and two full blocks with a remainder.
const BATCH_SIZES: [usize; 7] = [1, 2, 3, 4, 5, 7, 9];

/// The seed reference: fold per-image `Sequential::loss_and_grads` in
/// image order, starting from zero — the accumulation the batched engine
/// must replay bit-for-bit.
fn seed_grad_sum(model: &Sequential, imgs: &[Tensor], labels: &[usize]) -> (f32, GradBuffer) {
    let mut loss = 0.0f32;
    let mut grads = model.zero_grads();
    for (img, &lbl) in imgs.iter().zip(labels) {
        let (l, g) = model.loss_and_grads(img, lbl);
        loss += l;
        grads.accumulate(&g);
    }
    (loss, grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// For every batch size in [`BATCH_SIZES`] and every thread chunking,
    /// the batched sum is the seed fold of its first `n` images.
    #[test]
    fn batched_param_grads_are_bit_exact_with_seed_sum(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..ARCHS,
    ) {
        let model = small_model(arch, seed);
        let imgs = images(9, seed ^ 0x7A17);
        let labels: Vec<usize> = (0..imgs.len()).map(|i| (i * 3) % 4).collect();
        let want: Vec<(u32, Vec<u32>)> = with_threads(1, || {
            (1..=imgs.len())
                .map(|n| {
                    let (loss, grads) = seed_grad_sum(&model, &imgs[..n], &labels[..n]);
                    (loss.to_bits(), grad_bits(&grads))
                })
                .collect()
        });
        for threads in [1, 2, 3, 7] {
            with_threads(threads, || {
                for n in BATCH_SIZES {
                    let (loss, grads) =
                        model.loss_and_param_grads_batch(&imgs[..n], &labels[..n]);
                    prop_assert!(
                        (loss.to_bits(), grad_bits(&grads)) == want[n - 1],
                        "batched sum diverges from seed fold (arch {arch}, seed {seed}, \
                         n {n}, threads {threads})"
                    );
                }
                Ok(())
            })?;
        }
    }
}

/// A tiny conv-shaped classification dataset for end-to-end training.
fn tiny_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mut imgs = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n {
        let label = rng.index(4);
        let mut t = Tensor::zeros(&IN_DIMS);
        rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
        // Bias one quadrant so the classes are learnable.
        t.data_mut()[label * 4] += 1.0;
        imgs.push(t);
        labels.push(label);
    }
    Dataset::new("tiny", imgs, labels, 4)
}

/// The seed training loop, replayed serially: per-image gradients folded
/// in example order, `scale(1/n)` then `Sgd::step`, the epoch loss
/// accumulated in f64 — exactly the seed `fit`.
fn seed_fit(model: &mut Sequential, data: &Dataset, cfg: &TrainConfig) -> TrainHistory {
    let mut opt = Sgd::new(model, cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut history = TrainHistory {
        losses: Vec::new(),
        accuracies: Vec::new(),
    };
    for epoch in 0..cfg.epochs {
        let batches = data.batch_indices(
            cfg.batch_size,
            cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37),
        );
        let mut loss_acc = 0.0f64;
        for batch in &batches {
            let n = batch.len();
            let mut loss_sum = 0.0f32;
            let mut grads = model.zero_grads();
            for &i in batch {
                let (l, g) = model.loss_and_grads(data.image(i), data.label(i));
                loss_sum += l;
                grads.accumulate(&g);
            }
            grads.scale(1.0 / n as f32);
            opt.step(model, &grads);
            loss_acc += (loss_sum / n as f32) as f64;
        }
        history
            .losses
            .push((loss_acc / batches.len() as f64) as f32);
        history.accuracies.push(model.accuracy(data, 2000));
        opt.set_lr((opt.lr() * cfg.lr_decay).max(1e-5));
    }
    history
}

/// `fit` must reproduce the exact seed history — losses, accuracies and
/// final weights bit-for-bit — on every fixture shape and for every
/// thread chunking.
#[test]
fn fit_reproduces_seed_history_bit_for_bit() {
    let data = tiny_dataset(40, 11);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        ..Default::default()
    };
    for arch in 0..ARCHS {
        let mut reference = small_model(arch, 5);
        let golden = seed_fit(&mut reference, &data, &cfg);
        for threads in [1, 2, 3, 7] {
            let mut model = small_model(arch, 5);
            let history = with_threads(threads, || fit(&mut model, &data, &cfg));
            assert_eq!(
                history, golden,
                "TrainHistory diverges from the seed loop (arch {arch}, {threads} threads)"
            );
            assert_eq!(
                model, reference,
                "trained weights diverge from the seed loop (arch {arch}, {threads} threads)"
            );
        }
    }
}
