//! Gradient sources: what an attack queries and differentiates through.
//!
//! A [`GradSource`] is compiled for one input shape and shared by every
//! thread of a batch; each thread chunk takes its own [`GradHandle`]
//! (scratch buffers, per-member handles) and runs its images' trajectories
//! through it, a block of images at a time. The float model's compiled
//! [`FPlan`] is the paper's surrogate source, answering a block's
//! gradient query in one block forward and backward; [`crate::Mixture`]
//! weights several sources into one.

use axnn::plan::{FPlan, FScratch};
use axtensor::Tensor;
use axutil::rng::Rng;

/// A model an attacker can query, compiled for one input shape.
pub trait GradSource: Sync {
    /// The input shape every queried image must have.
    fn input_dims(&self) -> &[usize];

    /// A fresh per-thread handle answering queries against this source.
    fn handle(&self) -> Box<dyn GradHandle + '_>;
}

/// One thread's view of a [`GradSource`].
pub trait GradHandle {
    /// The predicted class of `x`.
    fn predict(&mut self, x: &Tensor) -> usize;

    /// The gradient of the cross-entropy loss at `(x, label)` with
    /// respect to `x`. A randomized source draws from the image's own
    /// `rng`; a deterministic one leaves it untouched.
    fn input_gradient(&mut self, x: &Tensor, label: usize, rng: &mut Rng) -> Tensor;

    /// [`GradHandle::input_gradient`] for a block of images in lockstep:
    /// image `i` is queried at `(xs[i], labels[i])` under its own
    /// `rngs[i]`, and must get exactly its one-image answer. The provided
    /// default loops over the images; a source that batches overrides it.
    fn input_gradient_block(
        &mut self,
        xs: &[Tensor],
        labels: &[usize],
        rngs: &mut [Rng],
    ) -> Vec<Tensor> {
        (xs.iter().zip(labels).zip(rngs))
            .map(|((x, &label), rng)| self.input_gradient(x, label, rng))
            .collect()
    }
}

impl GradSource for FPlan<'_> {
    fn input_dims(&self) -> &[usize] {
        FPlan::input_dims(self)
    }

    fn handle(&self) -> Box<dyn GradHandle + '_> {
        Box::new((self, self.scratch()))
    }
}

impl GradHandle for (&FPlan<'_>, FScratch) {
    fn predict(&mut self, x: &Tensor) -> usize {
        self.0.predict(&mut self.1, x)
    }

    fn input_gradient(&mut self, x: &Tensor, label: usize, _rng: &mut Rng) -> Tensor {
        self.0.input_gradient(&mut self.1, x, label).1
    }

    /// One [`FPlan::input_gradient_block`] query: a block forward and
    /// one backward walk.
    fn input_gradient_block(
        &mut self,
        xs: &[Tensor],
        labels: &[usize],
        _rngs: &mut [Rng],
    ) -> Vec<Tensor> {
        let grads = self.0.input_gradient_block(&mut self.1, xs, labels);
        grads.into_iter().map(|(_, g)| g).collect()
    }
}
