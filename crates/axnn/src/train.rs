//! Deterministic mini-batch training on the compiled plan engine.
//!
//! [`fit`] is a thin loop over
//! [`FPlan::loss_and_param_grads_batch`](crate::plan::FPlan::loss_and_param_grads_batch):
//! every minibatch runs through a compiled plan (one scratch per thread
//! chunk, one forward per block of images) instead of the seed's
//! per-image `Sequential::loss_and_grads` calls. Every parameter sums its
//! per-image terms in image order (an exact rank-n fold, see
//! [`crate::exec::GradFold`]), so the batch gradient — and
//! therefore the whole [`TrainHistory`] and the trained weights — is
//! bit-identical to the seed per-image loop for **any** `AXDNN_THREADS`
//! setting (the seed summed per-worker partials, which tied the float
//! accumulation order to the thread count).
//!
//! The model is the one weight store. A plan only borrows it and costs
//! shape arithmetic to compile, so [`fit`] compiles one per minibatch and
//! drops it before [`Sgd::step_scaled`] updates the model in place; the
//! per-epoch accuracy is [`Sequential::accuracy`] on the updated model.
//! Histories and weights are pinned to the seed loop by
//! `tests/prop_train.rs`.

use axdata::Dataset;

use crate::model::Sequential;
use crate::optim::Sgd;

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Multiplicative LR decay applied after each epoch.
    pub lr_decay: f32,
    /// Shuffling / batching seed.
    pub seed: u64,
    /// Print one line per epoch to stderr when true.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_decay: 0.7,
            seed: 0x7124,
            verbose: false,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainHistory {
    /// Mean training loss per epoch.
    pub losses: Vec<f32>,
    /// Training accuracy per epoch (on a capped sample).
    pub accuracies: Vec<f32>,
}

/// Trains `model` on `data` with SGD + momentum, every minibatch running
/// through the batched plan engine.
///
/// Deterministic *and thread-invariant*: the same model, data and config
/// produce bit-identical weights and [`TrainHistory`] for any
/// `AXDNN_THREADS` setting, because per-example gradients are always
/// reduced in example order (see the [module docs](self)).
///
/// Each minibatch compiles a plan that borrows `model`, sums the batch
/// gradient on it, and is dropped before [`Sgd::step_scaled`] applies the
/// mean update (`scale = 1/n`) to `model`.
pub fn fit(model: &mut Sequential, data: &Dataset, cfg: &TrainConfig) -> TrainHistory {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let in_dims = data.image(0).dims().to_vec();
    let mut opt = Sgd::new(model, cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut history = TrainHistory {
        losses: Vec::with_capacity(cfg.epochs),
        accuracies: Vec::with_capacity(cfg.epochs),
    };
    for epoch in 0..cfg.epochs {
        let batches = data.batch_indices(
            cfg.batch_size,
            cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37),
        );
        let mut loss_acc = 0.0f64;
        for batch in &batches {
            let n = batch.len();
            let (loss_sum, grads) = model.plan(&in_dims).loss_and_param_grads_batch(
                n,
                |k| data.image(batch[k]),
                |k| data.label(batch[k]),
            );
            opt.step_scaled(model, &grads, 1.0 / n as f32);
            loss_acc += (loss_sum / n as f32) as f64;
        }
        let mean_loss = (loss_acc / batches.len() as f64) as f32;
        let acc = model.accuracy(data, 2000);
        history.losses.push(mean_loss);
        history.accuracies.push(acc);
        if cfg.verbose {
            eprintln!(
                "[{}] epoch {}/{}: loss {:.4}, train acc {:.2}%",
                model.name(),
                epoch + 1,
                cfg.epochs,
                mean_loss,
                100.0 * acc
            );
        }
        opt.set_lr((opt.lr() * cfg.lr_decay).max(1e-5));
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Layer};
    use axtensor::Tensor;
    use axutil::rng::Rng;

    /// A linearly separable 2-class dataset in 4 dimensions.
    fn separable_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let label = rng.index(2);
            let centre = if label == 0 { -1.0 } else { 1.0 };
            let mut t = Tensor::zeros(&[4]);
            for v in t.data_mut() {
                *v = centre + rng.normal_f32() * 0.3;
            }
            images.push(t);
            labels.push(label);
        }
        Dataset::new("separable", images, labels, 2)
    }

    fn mlp(seed: u64) -> Sequential {
        let mut rng = Rng::seed_from_u64(seed);
        Sequential::new(
            "mlp",
            vec![
                Layer::Dense(Dense::new(4, 8, &mut rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(8, 2, &mut rng)),
            ],
        )
    }

    #[test]
    fn training_learns_separable_data() {
        let data = separable_dataset(200, 1);
        let mut model = mlp(2);
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 16,
            lr: 0.1,
            ..Default::default()
        };
        let hist = fit(&mut model, &data, &cfg);
        assert_eq!(hist.losses.len(), 5);
        assert!(
            *hist.accuracies.last().unwrap() > 0.95,
            "final acc {:?}",
            hist.accuracies
        );
        assert!(hist.losses.last().unwrap() < hist.losses.first().unwrap());
    }

    #[test]
    fn training_is_deterministic() {
        let data = separable_dataset(100, 3);
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        let mut m1 = mlp(4);
        let mut m2 = mlp(4);
        let h1 = fit(&mut m1, &data, &cfg);
        let h2 = fit(&mut m2, &data, &cfg);
        assert_eq!(h1, h2);
        assert_eq!(m1, m2);
    }
}
