//! Sequential model composition: the layer stack, its parameter
//! gradients, and one-call conveniences over the compiled engine
//! ([`crate::plan::FPlan`]), which each compile a fresh plan.

use axdata::Dataset;
use axtensor::stats::Outcomes;
use axtensor::Tensor;

use crate::layer::Layer;

/// Parameter gradients for a whole model: one `Vec<Tensor>` per layer,
/// each in the layer's `params()` order (empty for parameterless layers).
#[derive(Debug, Clone, PartialEq)]
pub struct GradBuffer {
    /// Per-layer parameter gradients.
    pub layers: Vec<Vec<Tensor>>,
}

impl GradBuffer {
    /// Accumulates another buffer into this one.
    ///
    /// # Panics
    ///
    /// Panics on layout mismatch.
    pub fn accumulate(&mut self, other: &GradBuffer) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "layer count mismatch"
        );
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            assert_eq!(a.len(), b.len());
            for (ta, tb) in a.iter_mut().zip(b) {
                ta.add_scaled(tb, 1.0);
            }
        }
    }

    /// Scales every gradient in place.
    pub fn scale(&mut self, s: f32) {
        for layer in &mut self.layers {
            for t in layer {
                t.map_inplace(|v| v * s);
            }
        }
    }

    /// Global l2 norm across all gradients (for diagnostics/clipping).
    pub fn l2_norm(&self) -> f32 {
        let mut sq = 0f64;
        for layer in &self.layers {
            for t in layer {
                let n = t.l2_norm() as f64;
                sq += n * n;
            }
        }
        sq.sqrt() as f32
    }
}

/// A feed-forward stack of layers producing class logits.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequential {
    name: String,
    layers: Vec<Layer>,
}

impl Sequential {
    /// Assembles a model.
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        Sequential {
            name: name.into(),
            layers,
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layer stack (weight surgery, optimizers).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(|p| p.len())
            .sum()
    }

    /// Runs the model forward, returning logits.
    ///
    /// Thin wrapper over the compiled engine ([`crate::plan::FPlan`]);
    /// bit-compatible with the seed layer-by-layer loop.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let plan = self.plan(x.dims());
        let mut scratch = plan.scratch();
        plan.forward(&mut scratch, x)
    }

    /// The predicted class for one input.
    pub fn predict(&self, x: &Tensor) -> usize {
        self.forward(x).argmax()
    }

    /// Zero gradients shaped like this model's parameters.
    pub fn zero_grads(&self) -> GradBuffer {
        GradBuffer {
            layers: self.layers.iter().map(|l| l.zero_param_grads()).collect(),
        }
    }

    /// Cross-entropy loss and parameter gradients for one example.
    ///
    /// Thin wrapper over the compiled engine ([`crate::plan::FPlan`]);
    /// bit-compatible with the seed layer-by-layer loop.
    pub fn loss_and_grads(&self, x: &Tensor, target: usize) -> (f32, GradBuffer) {
        let plan = self.plan(x.dims());
        let mut scratch = plan.scratch();
        plan.loss_and_grads(&mut scratch, x, target)
    }

    /// Summed cross-entropy loss and parameter gradients over a whole
    /// minibatch, on the batched engine: one compiled plan, threads work
    /// contiguous image chunks with one scratch each, one forward per
    /// block of images, then one rank-n fold sums the per-image records in image order. The sum is
    /// bit-identical to the per-image [`Sequential::loss_and_grads`] fold
    /// for any thread chunking (see
    /// [`crate::plan::FPlan::loss_and_param_grads_batch`]).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, a length mismatch, or an image whose
    /// shape differs from the first one's (the plan checks every image).
    pub fn loss_and_param_grads_batch(
        &self,
        images: &[Tensor],
        labels: &[usize],
    ) -> (f32, GradBuffer) {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        assert!(
            !images.is_empty(),
            "loss_and_param_grads_batch needs a non-empty batch"
        );
        let plan = self.plan(images[0].dims());
        plan.loss_and_param_grads_batch(images.len(), |i| &images[i], |i| labels[i])
    }

    /// Classification accuracy over (up to `max_n` examples of) a dataset,
    /// evaluated on the batched plan engine: one compiled plan, threads
    /// work contiguous image chunks with one scratch each instead of
    /// paying a per-image `predict` (plan + scratch) setup. The
    /// predictions are scored through [`Outcomes`].
    ///
    /// # Panics
    ///
    /// Panics on an empty sample (empty dataset or `max_n == 0`): the one
    /// empty-set rule of [`Outcomes`].
    pub fn accuracy(&self, data: &Dataset, max_n: usize) -> f32 {
        let n = data.len().min(max_n);
        Outcomes::assert_sample(n);
        let plan = self.plan(data.image(0).dims());
        let preds = plan.predict_batch(n, |i| data.image(i));
        Outcomes::new(n, 1, |i, _| preds[i], |i| data.label(i)).accuracy(0)
    }

    /// A one-line-per-layer summary with parameter counts.
    pub fn summary(&self) -> String {
        let mut out = format!("{} ({} params)\n", self.name, self.num_params());
        for (i, layer) in self.layers.iter().enumerate() {
            let p: usize = layer.params().iter().map(|t| t.len()).sum();
            out.push_str(&format!("  {i:2}: {:8} {:>8} params\n", layer.kind(), p));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Dense;
    use axutil::rng::Rng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = Rng::seed_from_u64(seed);
        Sequential::new(
            "tiny",
            vec![
                Layer::Dense(Dense::new(4, 8, &mut rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(8, 3, &mut rng)),
            ],
        )
    }

    fn random_input(seed: u64) -> Tensor {
        let mut t = Tensor::zeros(&[4]);
        Rng::seed_from_u64(seed).fill_normal_f32(t.data_mut(), 1.0);
        t
    }

    #[test]
    fn forward_shapes_and_trace_agree() {
        let m = tiny_model(0);
        let x = random_input(1);
        let y = m.forward(&x);
        assert_eq!(y.len(), 3);
        let (inputs, y2) = crate::reference::forward_trace(&m, &x);
        assert_eq!(inputs.len(), 3);
        assert_eq!(y, y2);
        assert_eq!(inputs[0], x);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let m = tiny_model(2);
        let x = random_input(3);
        let plan = m.plan(x.dims());
        let (_, dx) = plan.input_gradient(&mut plan.scratch(), &x, 1);
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = crate::loss::cross_entropy(&m.forward(&xp), 1);
            let lm = crate::loss::cross_entropy(&m.forward(&xm), 1);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 1e-2 * (1.0 + num.abs()),
                "dim {i}: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn param_gradient_matches_finite_difference() {
        let m = tiny_model(4);
        let x = random_input(5);
        let (_, grads) = m.loss_and_grads(&x, 0);
        let eps = 1e-3;
        // Check a handful of weights in the first dense layer.
        for j in [0usize, 5, 13, 31] {
            let mut mp = m.clone();
            mp.layers[0].params_mut()[0].data_mut()[j] += eps;
            let mut mm = m.clone();
            mm.layers[0].params_mut()[0].data_mut()[j] -= eps;
            let lp = crate::loss::cross_entropy(&mp.forward(&x), 0);
            let lm = crate::loss::cross_entropy(&mm.forward(&x), 0);
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.layers[0][0].data()[j];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "{num} vs {ana}"
            );
        }
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let mut m = tiny_model(6);
        let x = random_input(7);
        let (l0, g) = m.loss_and_grads(&x, 2);
        crate::optim::Sgd::new(&m, 0.1, 0.0, 0.0).step(&mut m, &g);
        let (l1, _) = m.loss_and_grads(&x, 2);
        assert!(l1 < l0, "loss must drop: {l0} -> {l1}");
    }

    #[test]
    fn grad_buffer_accumulate_and_scale() {
        let m = tiny_model(8);
        let x = random_input(9);
        let (_, g1) = m.loss_and_grads(&x, 0);
        let mut acc = m.zero_grads();
        acc.accumulate(&g1);
        acc.accumulate(&g1);
        acc.scale(0.5);
        // acc should now equal g1.
        for (a, b) in acc.layers.iter().flatten().zip(g1.layers.iter().flatten()) {
            for (&va, &vb) in a.data().iter().zip(b.data()) {
                assert!((va - vb).abs() < 1e-6);
            }
        }
        assert!(acc.l2_norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "planned shape")]
    fn mixed_shape_batch_is_rejected() {
        let m = tiny_model(11);
        // Same flattened length, different shape: must panic instead of
        // silently running image 1 under image 0's geometry.
        let images = vec![Tensor::zeros(&[4]), Tensor::zeros(&[2, 2])];
        let _ = m.loss_and_param_grads_batch(&images, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "non-empty sample")]
    fn accuracy_rejects_an_empty_sample() {
        let m = tiny_model(12);
        let data = Dataset::new("one", vec![random_input(13)], vec![0], 3);
        let _ = m.accuracy(&data, 0);
    }

    #[test]
    fn num_params_counts_all() {
        let m = tiny_model(10);
        // dense(4->8): 32+8, dense(8->3): 24+3
        assert_eq!(m.num_params(), 32 + 8 + 24 + 3);
        assert!(m.summary().contains("dense"));
    }
}
