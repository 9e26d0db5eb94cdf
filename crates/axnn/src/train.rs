//! Deterministic mini-batch training on the compiled plan engine.
//!
//! [`fit`] and [`batch_gradient`] are thin wrappers over
//! [`FPlan::loss_and_param_grads_batch`](crate::plan::FPlan::loss_and_param_grads_batch):
//! every minibatch runs through one compiled plan (one scratch per
//! thread chunk, one forward per block of images) instead of the seed's
//! per-image `Sequential::loss_and_grads` calls. Every parameter sums its
//! per-image terms in image order (an exact rank-n fold, see
//! [`crate::exec::GradFold`]), so the batch gradient — and
//! therefore the whole [`TrainHistory`] and the trained weights — is
//! bit-identical to the seed per-image loop for **any** `AXDNN_THREADS`
//! setting (the seed summed per-worker partials, which tied the float
//! accumulation order to the thread count).
//!
//! [`fit`] compiles exactly **one** plan per run: an owned-weights plan
//! ([`Sequential::plan_owned`]) that the optimizer updates in place
//! through [`Sgd::step_plan_scaled`] — the update writes straight into
//! the plan's parameter tensors, so there is no per-step recompile at
//! all. The per-epoch accuracy runs on the same plan; the trained
//! weights are written back to the model once at the end
//! ([`FPlan::store_weights_into`](crate::plan::FPlan::store_weights_into)).
//! Every floating-point operation matches the old
//! recompile-per-step loop exactly, so histories and weights are
//! unchanged (pinned by `tests/prop_train.rs`).

use axdata::Dataset;
use axtensor::Tensor;

use crate::model::{GradBuffer, Sequential};
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

/// Computes the mean gradient over a batch on the batched plan engine.
///
/// Thin wrapper over
/// [`FPlan::loss_and_param_grads_batch`](crate::plan::FPlan::loss_and_param_grads_batch):
/// one compiled plan, threads work contiguous example chunks with one
/// scratch each, and the mean is bit-identical to the seed
/// per-example fold for any thread chunking.
///
/// # Panics
///
/// Panics if `indices` is empty — a zero "mean" gradient there would
/// silently stall training (matches the non-empty conventions of
/// [`Sequential::accuracy`]).
pub fn batch_gradient(model: &Sequential, data: &Dataset, indices: &[usize]) -> (f32, GradBuffer) {
    assert!(
        !indices.is_empty(),
        "batch_gradient needs a non-empty batch"
    );
    let n = indices.len();
    let plan = model.plan(data.image(indices[0]).dims());
    let (loss_sum, mut grads) =
        plan.loss_and_param_grads_batch(n, |k| data.image(indices[k]), |k| data.label(indices[k]));
    grads.scale(1.0 / n as f32);
    (loss_sum / n as f32, grads)
}

/// Trains `model` on `data` with SGD + momentum, every minibatch running
/// through the batched plan engine.
///
/// Deterministic *and thread-invariant*: the same model, data and config
/// produce bit-identical weights and [`TrainHistory`] for any
/// `AXDNN_THREADS` setting, because per-example gradients are always
/// reduced in example order (see the [module docs](self)).
///
/// The whole run executes on **one** owned-weights plan: the optimizer
/// updates it in place ([`Sgd::step_plan_scaled`]), the per-epoch accuracy reads it directly,
/// and the trained weights are written back to `model` once at the end.
pub fn fit(model: &mut Sequential, data: &Dataset, cfg: &TrainConfig) -> TrainHistory {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let in_dims = data.image(0).dims().to_vec();
    let mut opt = Sgd::new(model, cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut plan = model.plan_owned(&in_dims);
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
            let (loss_sum, grads) = plan.loss_and_param_grads_batch(
                n,
                |k| data.image(batch[k]),
                |k| data.label(batch[k]),
            );
            opt.step_plan_scaled(&mut plan, &grads, 1.0 / n as f32);
            loss_acc += (loss_sum / n as f32) as f64;
        }
        let mean_loss = (loss_acc / batches.len() as f64) as f32;
        // Same sample cap and counting as `Sequential::accuracy`, on the
        // in-place plan (the model still holds the initial weights).
        let n_eval = data.len().min(2000);
        let correct = plan.count_correct(n_eval, |i| data.image(i), |i| data.label(i));
        let acc = correct as f32 / n_eval as f32;
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
    plan.store_weights_into(model);
    history
}

/// Convenience: evaluates accuracy on an explicit list of examples, on
/// the batched forward path (one compiled plan, one scratch per thread
/// chunk). Returns `0.0` for an empty list.
///
/// # Panics
///
/// Panics if the examples do not share one input shape.
pub fn eval_on(model: &Sequential, examples: &[(Tensor, usize)]) -> f32 {
    if examples.is_empty() {
        return 0.0;
    }
    let dims = examples[0].0.dims();
    for (i, (x, _)) in examples.iter().enumerate().skip(1) {
        assert_eq!(x.dims(), dims, "example {i} does not share the batch shape");
    }
    let plan = model.plan(dims);
    let correct = plan.count_correct(examples.len(), |i| &examples[i].0, |i| examples[i].1);
    correct as f32 / examples.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Layer};
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

    #[test]
    fn batch_gradient_equals_mean_of_singles() {
        let data = separable_dataset(8, 5);
        let model = mlp(6);
        let idx: Vec<usize> = (0..8).collect();
        let (loss, grads) = batch_gradient(&model, &data, &idx);
        let mut expect = model.zero_grads();
        let mut loss_expect = 0.0;
        for i in 0..8 {
            let (l, g) = model.loss_and_grads(data.image(i), data.label(i));
            loss_expect += l / 8.0;
            expect.accumulate(&g);
        }
        expect.scale(1.0 / 8.0);
        assert!((loss - loss_expect).abs() < 1e-5);
        for (a, b) in grads
            .layers
            .iter()
            .flatten()
            .zip(expect.layers.iter().flatten())
        {
            for (&va, &vb) in a.data().iter().zip(b.data()) {
                assert!((va - vb).abs() < 1e-5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty batch")]
    fn empty_batch_gradient_is_rejected() {
        let data = separable_dataset(4, 9);
        let model = mlp(10);
        let _ = batch_gradient(&model, &data, &[]);
    }

    #[test]
    fn eval_on_counts_correctly() {
        let model = mlp(7);
        let x = Tensor::zeros(&[4]);
        let pred = model.predict(&x);
        let examples = vec![(x.clone(), pred), (x, 1 - pred)];
        assert_eq!(eval_on(&model, &examples), 0.5);
        assert_eq!(eval_on(&model, &[]), 0.0);
    }
}
