//! Adversarial attacks — the Foolbox substitution.
//!
//! Implements the ten attack/norm combinations of the paper's Table I:
//!
//! | Attack | Type | Norms |
//! |---|---|---|
//! | Fast Gradient Method (FGM) | gradient | l2, linf |
//! | Basic Iterative Method (BIM) | gradient | l2, linf |
//! | Projected Gradient Descent (PGD) | gradient | l2, linf |
//! | Contrast Reduction (CR) | decision | l2 |
//! | Repeated Additive Gaussian (RAG) | decision | l2 |
//! | Repeated Additive Uniform (RAU) | decision | l2, linf |
//!
//! All attacks follow the paper's threat model: they are crafted against
//! the *accurate float model* (gradients and decisions come from its
//! compiled [`axnn::plan::FPlan`], a [`GradSource`]), with the
//! perturbation bounded by an explicit budget `eps` in the attack's norm
//! and the result clipped to the valid pixel range `[0, 1]`. Victim
//! AxDNNs never see the attack internals.
//!
//! **One craft path.** Each attack defines exactly one block trajectory,
//! [`Attack::trajectory`], over a [`GradSource`]: anything that answers
//! `predict` and `input_gradient` for one input shape. The source traits
//! ([`GradSource`], [`GradHandle`]) and the `FPlan` impl are defined in
//! [`axnn::source`], below both engines, and re-exported here. The float
//! model's compiled [`axnn::plan::FPlan`] is one source; a weighted
//! [`Mixture`] of sources is another. A trajectory crafts a block of up to
//! [`BLOCK`] images: FGM, BIM and PGD step them in lockstep, so each
//! step is one [`GradHandle::input_gradient_block`] query (one block
//! forward and backward on a plan); the decision attacks run their
//! per-image body over the block. The trait provides every entry point
//! on top of that trajectory and runs the budget, length and shape
//! checks once:
//!
//! * [`Attack::craft_batch_on`] crafts a set against any source, chunked
//!   over threads and walked in blocks, image `i` under its own stream
//!   `rng.derive(i)`;
//! * [`Attack::craft_batch`] compiles the model's plan, then crafts on it;
//! * [`Attack::craft`] is a block of one under an already-derived stream.
//!
//! Each image draws only from its own stream, in the same order whatever
//! block it lands in, so a batch is bit-identical for any thread
//! chunking and to per-image [`Attack::craft`] calls.
//!
//! Beyond the paper's per-image attacks, [`universal`] crafts a single
//! *universal* perturbation — one shared delta optimized over a whole
//! evaluation set (Shafahi et al.) — on any [`GradSource`], through the
//! same chunked block walk as [`Attack::craft_batch_on`],
//! and [`eot`] is the adaptive attacker against a randomized kernel
//! ensemble: [`gradient::Pgd`] over a [`Mixture`] of surrogates ascends
//! the ensemble's expected loss (Athalye et al.), reducing bitwise to
//! plain PGD in the single-source, single-sample case.
//!
//! # Examples
//!
//! ```
//! use axattack::{suite::AttackId, Attack};
//! use axnn::zoo;
//! use axtensor::Tensor;
//! use axutil::rng::Rng;
//!
//! let model = zoo::ffnn(&mut Rng::seed_from_u64(0));
//! let x = Tensor::full(&[1, 28, 28], 0.4);
//! let attack = AttackId::PgdLinf.build();
//! let adv = attack.craft(&model, &x, 3, 0.1, &mut Rng::seed_from_u64(1));
//! assert!(adv.linf_dist(&x) <= 0.1 + 1e-5);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod decision;
pub mod eot;
pub mod gradient;
pub mod norms;
pub mod suite;
pub mod universal;

#[cfg(doc)]
use axnn::exec::BLOCK;
use axnn::source::map_source_blocks;
use axnn::Sequential;
use axtensor::Tensor;
use axutil::rng::Rng;

pub use axnn::source::{GradHandle, GradSource};
pub use eot::Mixture;
pub use norms::Norm;

/// An adversarial attack: one block trajectory over a gradient source,
/// with every crafting entry point provided on top of it.
pub trait Attack: Sync {
    /// A short display name (e.g. `"PGD-linf"`).
    fn name(&self) -> String;

    /// Crafts one adversarial example for each `(xs[i], labels[i])` of a
    /// block by querying `source`, image `i` drawing all its randomness
    /// from its own `rngs[i]`. Image `i`'s result may depend only on
    /// its own inputs and stream, never on the rest of the block.
    ///
    /// The provided wrappers call this only with `eps > 0`, with
    /// `1..=`[`BLOCK`] images in the source's input shape and as many
    /// labels and streams; every result must lie inside the pixel box
    /// `[0, 1]` and within the eps-ball (in the attack's norm) around its
    /// image.
    fn trajectory(
        &self,
        source: &mut dyn GradHandle,
        xs: &[Tensor],
        labels: &[usize],
        eps: f32,
        rngs: &mut [Rng],
    ) -> Vec<Tensor>;

    /// Crafts an adversarial example for `(x, label)` against the float
    /// `model` with perturbation budget `eps`: a block of one, crafted
    /// under the already-derived stream `rng`. `eps == 0` returns `x`.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative.
    fn craft(
        &self,
        model: &Sequential,
        x: &Tensor,
        label: usize,
        eps: f32,
        rng: &mut Rng,
    ) -> Tensor {
        assert!(eps >= 0.0, "negative budget");
        if eps == 0.0 {
            return x.clone();
        }
        let plan = model.plan(x.dims());
        let mut adv = self.trajectory(
            &mut *plan.handle(),
            std::slice::from_ref(x),
            &[label],
            eps,
            std::slice::from_mut(rng),
        );
        adv.pop().expect("a block of one crafts one image")
    }

    /// Crafts adversarial examples for a whole set against the float
    /// `model`: compiles the model's plan for the batch shape once, then
    /// [`Attack::craft_batch_on`] it. Image `i` equals
    /// `craft(model, &images[i], labels[i], eps, &mut rng.derive(i as u64))`.
    ///
    /// # Panics
    ///
    /// As [`Attack::craft_batch_on`].
    fn craft_batch(
        &self,
        model: &Sequential,
        images: &[Tensor],
        labels: &[usize],
        eps: f32,
        rng: &Rng,
    ) -> Vec<Tensor> {
        let dims = images.first().map_or(&[][..], |x| x.dims());
        if images.is_empty() || eps == 0.0 {
            // Nothing to query: check the batch without compiling.
            check_batch(images, labels, eps, dims);
            return images.to_vec();
        }
        self.craft_batch_on(&model.plan(dims), images, labels, eps, rng)
    }

    /// Crafts adversarial examples for a whole set against `source`,
    /// chunked over threads via [`axutil::parallel::par_map_chunks`] with
    /// one [`GradSource::handle`] per chunk, each chunk walked in blocks
    /// of up to [`BLOCK`] images.
    ///
    /// Image `i` runs [`Attack::trajectory`] under its own derived stream
    /// `rng.derive(i as u64)`, so the result is bit-identical for any
    /// thread chunking. `eps == 0` returns the images unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `images` and `labels` disagree in length, `eps` is
    /// negative, or an image does not have the source's input shape.
    fn craft_batch_on(
        &self,
        source: &dyn GradSource,
        images: &[Tensor],
        labels: &[usize],
        eps: f32,
        rng: &Rng,
    ) -> Vec<Tensor> {
        check_batch(images, labels, eps, source.input_dims());
        if eps == 0.0 {
            return images.to_vec();
        }
        map_source_blocks(source, images.len(), |handle, block| {
            let mut streams: Vec<Rng> = block.clone().map(|i| rng.derive(i as u64)).collect();
            self.trajectory(
                handle,
                &images[block.clone()],
                &labels[block],
                eps,
                &mut streams,
            )
        })
    }
}

/// The checks every batch entry point shares.
fn check_batch(images: &[Tensor], labels: &[usize], eps: f32, dims: &[usize]) {
    assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
    assert!(eps >= 0.0, "negative budget");
    for (i, x) in images.iter().enumerate() {
        assert_eq!(
            x.dims(),
            dims,
            "batch image {i} does not have the batch input shape"
        );
    }
}
