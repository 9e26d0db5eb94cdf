//! Universal adversarial training *through the quantized forward* —
//! and, at the zero ball, plain approximation-aware fine-tuning.
//!
//! Shafahi et al.'s ("Universal Adversarial Training") alternating
//! delta/weight updates, layered over the fine-tuning engine of
//! [`crate::qtrain`]. Per minibatch [`universal_adversarial_fit`] first
//! ascends the shared delta on the **float shadow's** input gradients at
//! `clip(x + delta)` (the paper's threat model — the adversary crafts
//! against the accurate float surrogate, never the victim AxDNN's
//! internals), then descends the shadow weights through the
//! [`QTrainPlan`] straight-through estimator on the batch perturbed by
//! the freshly updated delta. The ascent is one
//! [`universal_ascent_step`] on the shadow's plan, compiled per
//! minibatch since the shadow moves every step and passed as a
//! [`axnn::source::GradSource`]: the step the `axattack` universal
//! crafter takes per epoch, so training and attack share one ascent and
//! one ball geometry.
//!
//! This is the crate's only hardening loop: [`finetune`] is
//! [`universal_adversarial_fit`] with a zero ball.
//!
//! # Determinism and thread invariance
//!
//! Both gradient paths fold per-image results in fixed left-to-right
//! image order: the ascent step sums the shadow's input gradients on the
//! caller thread, and [`QTrainPlan::loss_and_param_grads_batch`] folds
//! the STE parameter gradients. Image `k` of minibatch `b` in epoch `e`
//! queries the source under the stream
//! `Rng::seed_from_u64(cfg.base.seed).derive(e).derive(b).derive(k)`;
//! the float shadow reads none, so today's deltas depend on no stream.
//! History, shadow weights, the returned [`QuantModel`] and the delta
//! are bit-identical for any `AXDNN_THREADS` setting (pinned against a
//! test-side reference loop by `tests/prop_universal_train.rs`).
//!
//! # The zero ball
//!
//! `eps == 0` pins the delta at the zero tensor and skips the ascent pass
//! entirely, so each weight step trains on the clean batch: this is the
//! path [`finetune`] runs.

use axdata::Dataset;
use axmul::MulKernel;
use axnn::model::Sequential;
use axnn::optim::Sgd;
use axnn::source::universal_ascent_step;
use axtensor::norms::{apply_delta, Norm};
use axtensor::Tensor;
use axutil::rng::Rng;
use axutil::AxError;

use crate::qmodel::QuantModel;
use crate::qtrain::{FinetuneConfig, FinetuneHistory, QTrainPlan};

#[cfg(doc)]
use crate::qtrain::finetune;

/// Hyper-parameters for the quantized [`universal_adversarial_fit`]: a
/// plain [`FinetuneConfig`] plus the universal-perturbation ball and step
/// size.
#[derive(Debug, Clone, PartialEq)]
pub struct UniversalFinetuneConfig {
    /// The underlying fine-tuning schedule (epochs, batches, lr,
    /// placement, level, ...).
    pub base: FinetuneConfig,
    /// Perturbation budget. `0.0` is plain [`finetune`].
    pub eps: f32,
    /// Ball norm for the delta.
    pub norm: Norm,
    /// Ascent step length as a multiple of `eps` (Shafahi's FGSM-style
    /// full step at the default `1.0`).
    pub delta_step: f32,
}

impl Default for UniversalFinetuneConfig {
    fn default() -> Self {
        UniversalFinetuneConfig {
            base: FinetuneConfig::default(),
            eps: 0.1,
            norm: Norm::Linf,
            delta_step: 1.0,
        }
    }
}

/// Per-epoch record of a quantized universal adversarial training run.
#[derive(Debug, Clone, PartialEq)]
pub struct UniversalFinetuneHistory {
    /// The fine-tuning record: PTQ baseline accuracy, then per epoch the
    /// mean (perturbed-batch, quantized-forward) training loss and the
    /// quantized clean accuracy after requantization.
    pub base: FinetuneHistory,
    /// Quantized accuracy under the epoch's final delta, on the same
    /// capped sample. Equals `base.accuracies` bitwise when `eps == 0`.
    pub universal_accuracies: Vec<f32>,
}

/// Quantized accuracy under a universal delta: the capped evaluation
/// sample perturbed through [`apply_delta`], run on the batched quantized
/// engine.
fn universal_accuracy<K: MulKernel + ?Sized>(
    qm: &QuantModel,
    data: &Dataset,
    delta: &Tensor,
    kernel: &K,
    cap: usize,
) -> f32 {
    let n = data.len().min(cap);
    let images: Vec<Tensor> = (0..n).map(|i| apply_delta(data.image(i), delta)).collect();
    let labels: Vec<usize> = (0..n).map(|i| data.label(i)).collect();
    let perturbed = Dataset::new("universal-eval", images, labels, data.num_classes());
    qm.accuracy_with(&perturbed, kernel, n)
}

/// Universal adversarial fine-tuning: hardens the quantized/approximate
/// victim against a universal perturbation by alternating delta-ascent
/// (on the float shadow) and STE weight-descent (through the quantized
/// forward under `kernel`).
///
/// The shadow is quantized once up front (the PTQ baseline); then per
/// epoch the current shadow weights compile into a fresh [`QTrainPlan`]
/// and, per shuffled minibatch: (1) if `eps > 0`, one batched
/// [`universal_ascent_step`] of length `eps * delta_step` on the float
/// shadow's input gradients at `clip(x + delta)`; (2) one STE weight
/// step ([`Sgd::step_scaled`], fused `1/n` mean scaling) on the batch
/// perturbed by the updated delta. After the epoch the shadow is
/// requantized ([`QuantModel::from_float_with_level`], activation scales
/// recalibrated on `calib`) and scored. Within an epoch the quantized
/// forward is frozen — see [`FinetuneConfig`] for what that means for
/// the learning rate.
///
/// Returns the history, the **final requantized model** (the victim the
/// defense ships) and the final universal delta (apply it with
/// [`apply_delta`]).
///
/// # Errors
///
/// Returns [`AxError::Config`] when quantization rejects the model
/// topology, `calib` is empty, or a calibration image's dims differ from
/// the first one's (see [`QuantModel::from_float`]).
///
/// # Panics
///
/// Panics on an empty dataset or a negative budget.
pub fn universal_adversarial_fit<K: MulKernel + ?Sized>(
    shadow: &mut Sequential,
    data: &Dataset,
    calib: &[Tensor],
    kernel: &K,
    cfg: &UniversalFinetuneConfig,
) -> Result<(UniversalFinetuneHistory, QuantModel, Tensor), AxError> {
    assert!(!data.is_empty(), "cannot fine-tune on an empty dataset");
    assert!(cfg.eps >= 0.0, "negative budget");
    let base = &cfg.base;
    let in_dims = data.image(0).dims().to_vec();
    let mut qm = QuantModel::from_float_with_level(shadow, calib, base.placement, base.level)?;
    let initial_accuracy = qm.accuracy_with(data, kernel, base.eval_cap);
    let mut opt = Sgd::new(shadow, base.lr, base.momentum, base.weight_decay);
    let mut delta = Tensor::zeros(&in_dims);
    let alpha = cfg.eps * cfg.delta_step;
    let mut history = UniversalFinetuneHistory {
        base: FinetuneHistory {
            initial_accuracy,
            losses: Vec::with_capacity(base.epochs),
            accuracies: Vec::with_capacity(base.epochs),
        },
        universal_accuracies: Vec::with_capacity(base.epochs),
    };
    for epoch in 0..base.epochs {
        let batches = data.batch_indices(
            base.batch_size,
            base.seed ^ (epoch as u64).wrapping_mul(0x9E37),
        );
        let mut loss_acc = 0.0f64;
        {
            // The plan borrows the epoch's quantized model; the shadow is
            // only read at compile time, so the optimizer can mutate it
            // batch by batch while the plan is alive.
            let plan = QTrainPlan::compile(&qm, shadow, &in_dims);
            for (b, batch) in batches.iter().enumerate() {
                let n = batch.len();
                if cfg.eps > 0.0 {
                    // Ascent on the float shadow: the adversary's view of
                    // the victim, per the paper's threat model. Its handle
                    // reads none of the per-image streams (module docs).
                    universal_ascent_step(
                        &shadow.plan(&in_dims),
                        &mut delta,
                        batch.iter().map(|&i| (data.image(i), data.label(i))),
                        &Rng::seed_from_u64(base.seed)
                            .derive(epoch as u64)
                            .derive(b as u64),
                        alpha,
                        cfg.eps,
                        cfg.norm,
                    );
                }
                // Descent: one STE step on the batch perturbed by the
                // updated delta. The zero ball trains on the clean images.
                let (loss_sum, grads) = if cfg.eps == 0.0 {
                    plan.loss_and_param_grads_batch(
                        n,
                        |k| data.image(batch[k]),
                        |k| data.label(batch[k]),
                        kernel,
                    )
                } else {
                    let perturbed: Vec<Tensor> = batch
                        .iter()
                        .map(|&i| apply_delta(data.image(i), &delta))
                        .collect();
                    plan.loss_and_param_grads_batch(
                        n,
                        |k| &perturbed[k],
                        |k| data.label(batch[k]),
                        kernel,
                    )
                };
                opt.step_scaled(shadow, &grads, 1.0 / n as f32);
                loss_acc += (loss_sum / n as f32) as f64;
            }
        }
        qm = QuantModel::from_float_with_level(shadow, calib, base.placement, base.level)?;
        let mean_loss = (loss_acc / batches.len() as f64) as f32;
        let acc = qm.accuracy_with(data, kernel, base.eval_cap);
        let univ_acc = if cfg.eps == 0.0 {
            acc
        } else {
            universal_accuracy(&qm, data, &delta, kernel, base.eval_cap)
        };
        history.base.losses.push(mean_loss);
        history.base.accuracies.push(acc);
        history.universal_accuracies.push(univ_acc);
        if base.verbose {
            let universal = if cfg.eps == 0.0 {
                String::new()
            } else {
                format!(", universal acc {:.2}%", 100.0 * univ_acc)
            };
            eprintln!(
                "[finetune {}] epoch {}/{}: loss {:.4}, quantized acc {:.2}%{universal}",
                qm.name(),
                epoch + 1,
                base.epochs,
                mean_loss,
                100.0 * acc
            );
        }
        opt.set_lr((opt.lr() * base.lr_decay).max(1e-5));
    }
    Ok((history, qm, delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qtrain::finetune;
    use axmul::ExactMul;
    use axnn::layer::{Dense, Layer};
    use axnn::train::{fit, TrainConfig};

    /// A tiny 4-class dataset in the pixel box with a planted class cue.
    fn tiny_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let label = rng.index(4);
            let mut t = Tensor::zeros(&[1, 6, 6]);
            rng.fill_range_f32(t.data_mut(), 0.0, 0.8);
            t.data_mut()[label * 7] = 1.0;
            images.push(t);
            labels.push(label);
        }
        Dataset::new("uq-tiny", images, labels, 4)
    }

    fn dense_model(seed: u64) -> Sequential {
        let mut rng = Rng::seed_from_u64(seed);
        Sequential::new(
            "uq-ffnn",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(36, 10, &mut rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(10, 4, &mut rng)),
            ],
        )
    }

    fn calib_of(data: &Dataset, n: usize) -> Vec<Tensor> {
        (0..n.min(data.len()))
            .map(|i| data.image(i).clone())
            .collect()
    }

    #[test]
    fn zero_eps_reduces_exactly_to_finetune() {
        let data = tiny_dataset(24, 1);
        let calib = calib_of(&data, 8);
        let base = FinetuneConfig {
            epochs: 2,
            batch_size: 6,
            eval_cap: 24,
            ..Default::default()
        };
        let cfg = UniversalFinetuneConfig {
            base: base.clone(),
            eps: 0.0,
            ..Default::default()
        };
        let mut plain = dense_model(2);
        let mut universal = dense_model(2);
        let (ph, pq) = finetune(&mut plain, &data, &calib, &ExactMul, &base).unwrap();
        let (uh, uq, delta) =
            universal_adversarial_fit(&mut universal, &data, &calib, &ExactMul, &cfg).unwrap();
        assert_eq!(delta, Tensor::zeros(&[1, 6, 6]));
        assert_eq!(uh.universal_accuracies, ph.accuracies);
        assert_eq!(uh.base, ph);
        assert_eq!(plain, universal);
        assert_eq!(pq, uq);
    }

    #[test]
    fn training_is_deterministic_and_delta_in_ball() {
        let data = tiny_dataset(20, 3);
        let calib = calib_of(&data, 6);
        let cfg = UniversalFinetuneConfig {
            base: FinetuneConfig {
                epochs: 2,
                batch_size: 5,
                eval_cap: 20,
                ..Default::default()
            },
            eps: 0.06,
            ..Default::default()
        };
        let mut m1 = dense_model(4);
        let mut m2 = dense_model(4);
        let (h1, q1, d1) =
            universal_adversarial_fit(&mut m1, &data, &calib, &ExactMul, &cfg).unwrap();
        let (h2, q2, d2) =
            universal_adversarial_fit(&mut m2, &data, &calib, &ExactMul, &cfg).unwrap();
        assert_eq!(h1, h2);
        assert_eq!(d1, d2);
        assert_eq!(m1, m2);
        assert_eq!(q1, q2);
        assert!(d1.linf_norm() <= 0.06);
        assert_eq!(h1.base.losses.len(), 2);
        assert_eq!(h1.universal_accuracies.len(), 2);
    }

    /// A linearly separable 2-class dataset (class centres 0.25 and
    /// 0.75 per pixel), inside the pixel box.
    fn boxed_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let label = rng.index(2);
            let centre = if label == 0 { 0.25 } else { 0.75 };
            let mut t = Tensor::zeros(&[1, 2, 2]);
            for v in t.data_mut() {
                *v = (centre + rng.normal_f32() * 0.05).clamp(0.0, 1.0);
            }
            images.push(t);
            labels.push(label);
        }
        Dataset::new("boxed", images, labels, 2)
    }

    #[test]
    fn hardened_model_resists_the_training_delta() {
        // Harden a trained float model through the quantized forward: the
        // requantized victim must classify well under its own training
        // delta.
        let data = boxed_dataset(200, 5);
        let calib = calib_of(&data, 16);
        let mut rng = Rng::seed_from_u64(6);
        let mut model = Sequential::new(
            "boxed-mlp",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(4, 8, &mut rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(8, 2, &mut rng)),
            ],
        );
        let fit_cfg = TrainConfig {
            epochs: 4,
            batch_size: 16,
            lr: 0.1,
            ..Default::default()
        };
        fit(&mut model, &data, &fit_cfg);
        let cfg = UniversalFinetuneConfig {
            base: FinetuneConfig {
                epochs: 2,
                batch_size: 16,
                placement: crate::Placement::All,
                eval_cap: 200,
                ..Default::default()
            },
            eps: 0.1,
            ..Default::default()
        };
        let (hist, _, delta) =
            universal_adversarial_fit(&mut model, &data, &calib, &ExactMul, &cfg).unwrap();
        let last_univ = *hist.universal_accuracies.last().unwrap();
        assert!(
            last_univ > 0.9,
            "universal accuracy after hardening: {:?}",
            hist.universal_accuracies
        );
        assert!(delta.linf_norm() <= 0.1 + 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let data = Dataset::new("empty", Vec::new(), Vec::new(), 4);
        let mut model = dense_model(5);
        let _ = universal_adversarial_fit(
            &mut model,
            &data,
            &[],
            &ExactMul,
            &UniversalFinetuneConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "negative budget")]
    fn negative_eps_panics() {
        let data = tiny_dataset(4, 6);
        let calib = calib_of(&data, 4);
        let mut model = dense_model(7);
        let cfg = UniversalFinetuneConfig {
            eps: -0.5,
            ..Default::default()
        };
        let _ = universal_adversarial_fit(&mut model, &data, &calib, &ExactMul, &cfg);
    }
}
