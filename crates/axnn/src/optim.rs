//! Stochastic gradient descent with momentum.
//!
//! [`Sgd::step_scaled`] is the one parameter update in the workspace: it
//! writes straight into a [`Sequential`]'s weights. Float training
//! (`train::fit`) and the quantized trainers (which step their float
//! shadow) all go through it.

use axtensor::Tensor;

use crate::model::{GradBuffer, Sequential};

/// SGD with classical momentum and optional weight decay.
///
/// # Examples
///
/// ```
/// use axnn::optim::Sgd;
/// # use axnn::{layer::{Dense, Layer}, model::Sequential};
/// # use axtensor::Tensor;
/// # use axutil::rng::Rng;
/// # let mut rng = Rng::seed_from_u64(0);
/// # let mut model = Sequential::new("m", vec![Layer::Dense(Dense::new(2, 2, &mut rng))]);
/// let mut opt = Sgd::new(&model, 0.01, 0.9, 0.0);
/// # let x = Tensor::from_vec(vec![1.0, -1.0], &[2]);
/// let (_, grads) = model.loss_and_grads(&x, 0);
/// opt.step(&mut model, &grads);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Vec<Tensor>>,
}

impl Sgd {
    /// Creates an optimizer with velocity buffers shaped like `model`.
    pub fn new(model: &Sequential, lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum in [0, 1)");
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: model
                .layers()
                .iter()
                .map(|l| l.zero_param_grads())
                .collect(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0);
        self.lr = lr;
    }

    /// Applies one update: `v = m*v + g + wd*p; p -= lr * v`.
    ///
    /// # Panics
    ///
    /// Panics if `grads` layout does not match the model.
    pub fn step(&mut self, model: &mut Sequential, grads: &GradBuffer) {
        self.step_scaled(model, grads, 1.0);
    }

    /// Like [`Sgd::step`], but updates from `scale * grads` without
    /// materializing the scaled buffer: `v = m*v + g*scale + wd*p;
    /// p -= lr * v`.
    ///
    /// `g * scale` rounds once either way, so this is bit-identical to
    /// `grads.scale(scale)` followed by [`Sgd::step`] — the training loop
    /// uses it to turn the batched engine's *summed* gradients into a
    /// mean update (`scale = 1/n`) without an extra pass over every
    /// parameter.
    ///
    /// # Panics
    ///
    /// Panics if `grads` layout does not match the model.
    pub fn step_scaled(&mut self, model: &mut Sequential, grads: &GradBuffer, scale: f32) {
        assert_eq!(grads.layers.len(), self.velocity.len(), "layout mismatch");
        let lr = self.lr;
        let m = self.momentum;
        let wd = self.weight_decay;
        for ((layer, layer_v), layer_g) in model
            .layers_mut()
            .iter_mut()
            .zip(self.velocity.iter_mut())
            .zip(&grads.layers)
        {
            let params = layer.params_mut();
            assert_eq!(params.len(), layer_g.len(), "param count mismatch");
            for ((p, v), g) in params.into_iter().zip(layer_v.iter_mut()).zip(layer_g) {
                for ((pv, vv), &gv) in p.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                    *vv = m * *vv + gv * scale + wd * *pv;
                    *pv -= lr * *vv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Layer};
    use axutil::rng::Rng;

    fn setup() -> (Sequential, Tensor) {
        let mut rng = Rng::seed_from_u64(1);
        let model = Sequential::new(
            "m",
            vec![
                Layer::Dense(Dense::new(4, 6, &mut rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(6, 2, &mut rng)),
            ],
        );
        let mut x = Tensor::zeros(&[4]);
        Rng::seed_from_u64(2).fill_normal_f32(x.data_mut(), 1.0);
        (model, x)
    }

    #[test]
    fn sgd_descends_on_fixed_example() {
        let (mut model, x) = setup();
        let mut opt = Sgd::new(&model, 0.05, 0.9, 0.0);
        let (mut prev, _) = model.loss_and_grads(&x, 1);
        for _ in 0..20 {
            let (_, g) = model.loss_and_grads(&x, 1);
            opt.step(&mut model, &g);
        }
        let (after, _) = model.loss_and_grads(&x, 1);
        assert!(after < prev * 0.5, "loss {prev} -> {after}");
        prev = after;
        let _ = prev;
    }

    #[test]
    fn momentum_accelerates_versus_plain() {
        let (model, x) = setup();
        let run = |momentum: f32| {
            let mut m = model.clone();
            let mut opt = Sgd::new(&m, 0.01, momentum, 0.0);
            for _ in 0..15 {
                let (_, g) = m.loss_and_grads(&x, 0);
                opt.step(&mut m, &g);
            }
            m.loss_and_grads(&x, 0).0
        };
        assert!(run(0.9) < run(0.0), "momentum should converge faster here");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let (mut model, x) = setup();
        let norm_before: f32 = model.layers()[0].params()[0].l2_norm();
        let mut opt = Sgd::new(&model, 0.1, 0.0, 0.1);
        for _ in 0..10 {
            let (_, mut g) = model.loss_and_grads(&x, 0);
            g.scale(0.0); // isolate the decay term
            opt.step(&mut model, &g);
        }
        let norm_after: f32 = model.layers()[0].params()[0].l2_norm();
        assert!(norm_after < norm_before, "{norm_before} -> {norm_after}");
    }

    #[test]
    fn set_lr_applies() {
        let (model, _) = setup();
        let mut opt = Sgd::new(&model, 0.1, 0.0, 0.0);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lr_rejected() {
        let (model, _) = setup();
        let _ = Sgd::new(&model, 0.0, 0.0, 0.0);
    }

    #[test]
    fn step_scaled_equals_scale_then_step() {
        let (model, x) = setup();
        let (_, grads) = model.loss_and_grads(&x, 1);
        let scale = 1.0 / 7.0f32;
        // Path A: pre-scale the buffer, then plain step.
        let mut ma = model.clone();
        let mut oa = Sgd::new(&ma, 0.05, 0.9, 1e-4);
        let mut scaled = grads.clone();
        scaled.scale(scale);
        oa.step(&mut ma, &scaled);
        // Path B: fused step_scaled on the raw sum.
        let mut mb = model.clone();
        let mut ob = Sgd::new(&mb, 0.05, 0.9, 1e-4);
        ob.step_scaled(&mut mb, &grads, scale);
        assert_eq!(ma, mb, "fused scaling must be bit-identical");
    }
}
