//! Gradient sources: what an attacker or a hardening loop queries and
//! differentiates through.
//!
//! A [`GradSource`] is compiled for one input shape and shared by every
//! thread of a batch; each thread chunk takes its own [`GradHandle`]
//! (scratch buffers, per-member handles) and runs its images through it,
//! a block of images at a time ([`map_source_blocks`]). The float
//! model's compiled [`FPlan`] is the paper's surrogate source, answering
//! a block's gradient query in one block forward and backward; `axattack`
//! builds its attacks and its weighted `Mixture` of sources on these
//! traits. Both engines depend on this crate, so either can implement
//! them.
//!
//! [`universal_ascent_step`] is the one universal-perturbation ascent:
//! the universal crafter takes one per epoch, the universal adversarial
//! trainer one per minibatch.

use std::ops::Range;

use axtensor::norms::{apply_delta, universal_step, Norm};
use axtensor::Tensor;
use axutil::{parallel, rng::Rng};

use crate::exec::BLOCK;
use crate::plan::{FPlan, FScratch};

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

/// Runs `per_block` over images `0..n` of `source`, chunked over threads
/// via [`axutil::parallel::par_map_chunks`] with one
/// [`GradSource::handle`] per chunk, each chunk walked in blocks of up to
/// [`BLOCK`] images. `per_block` returns one result per image of its
/// block; the results come back in image order.
pub fn map_source_blocks<T: Send>(
    source: &dyn GradSource,
    n: usize,
    per_block: impl Fn(&mut dyn GradHandle, Range<usize>) -> Vec<T> + Sync,
) -> Vec<T> {
    parallel::par_map_chunks(n, |range| {
        let mut handle = source.handle();
        let mut out = Vec::with_capacity(range.len());
        for start in range.clone().step_by(BLOCK) {
            out.extend(per_block(&mut *handle, start..range.end.min(start + BLOCK)));
        }
        out
    })
}

/// One ascent step of a universal delta on `source`: every example `i`
/// of `examples` is perturbed to `clip(x + delta)` with [`apply_delta`]
/// and queried at its label under its own stream `streams.derive(i)`,
/// one [`GradHandle::input_gradient_block`] per block through
/// [`map_source_blocks`]. [`universal_step`] then folds the gradients in
/// image order on the caller's thread and moves `delta` by `alpha`,
/// projected onto the `eps`-ball in `norm`. Per-image answers do not
/// depend on the chunking, so the delta is bit-identical for any thread
/// count.
pub fn universal_ascent_step<'a>(
    source: &dyn GradSource,
    delta: &mut Tensor,
    examples: impl Iterator<Item = (&'a Tensor, usize)>,
    streams: &Rng,
    alpha: f32,
    eps: f32,
    norm: Norm,
) {
    let (perturbed, labels): (Vec<Tensor>, Vec<usize>) = examples
        .map(|(x, label)| (apply_delta(x, delta), label))
        .unzip();
    let grads = map_source_blocks(source, perturbed.len(), |handle, block| {
        let mut rngs: Vec<Rng> = block.clone().map(|i| streams.derive(i as u64)).collect();
        handle.input_gradient_block(&perturbed[block.clone()], &labels[block], &mut rngs)
    });
    universal_step(delta, grads.iter(), alpha, eps, norm);
}
