//! Universal adversarial perturbations: ONE shared delta for a whole set.
//!
//! Per-image attacks (FGM/BIM/PGD) craft a fresh perturbation for every
//! input; a *universal* perturbation (Moosavi-Dezfooli et al.; Shafahi et
//! al., "Universal Adversarial Training") is a single delta, optimized
//! once over an evaluation set, that fools the model on as many inputs as
//! possible when added to each of them. [`UniversalAttack`] implements
//! the stochastic-gradient variant of Shafahi's crafter: iterated epochs
//! of batched input gradients at `clip(x + delta)`, an FGSM-style
//! sign/l2 ascent step on the *summed* gradient, and a per-epoch
//! projection of the delta onto the eps-ball. Each epoch is one
//! [`universal_ascent_step`], the same step the universal adversarial
//! trainer in `axquant` takes per minibatch, so crafting and training
//! share one ascent.
//!
//! The crafter queries any [`GradSource`]: the float surrogate's
//! compiled plan under the paper's threat model, or a [`crate::Mixture`]
//! of sources.
//!
//! # Determinism and thread invariance
//!
//! Each epoch's gradients come from the source's handles, chunked over
//! threads and walked in blocks like [`crate::Attack::craft_batch_on`]
//! (per-image answers do not depend on the chunking), and are folded
//! into the summed gradient **in fixed left-to-right image order on the
//! caller thread**. Image `i` of epoch `e` queries under its own stream
//! `rng.derive(e).derive(i)`, drawn after the random start, so a
//! randomized source stays thread-invariant too. The crafted delta is
//! bit-identical for any `AXDNN_THREADS` setting (pinned by
//! `tests/prop_universal.rs`).

use axnn::source::universal_ascent_step;
use axtensor::Tensor;
use axutil::rng::Rng;

use crate::norms::{normalized, project_ball, Norm};
use crate::GradSource;

/// Applies a universal delta to one image: `clip(x + delta, 0, 1)`
/// (re-export of the shared [`axtensor::norms::apply_delta`], under the
/// attack-side name).
pub use axtensor::norms::apply_delta as apply;

/// The universal-perturbation crafter.
///
/// Defaults: 10 epochs, zero-initialized delta. The zero start keeps the
/// single-image degenerate case exactly one batched-gradient ascent run
/// per epoch (see `tests/prop_universal.rs`);
/// [`with_random_start`](UniversalAttack::with_random_start) opts into a
/// PGD-style random point inside the ball drawn from the caller's RNG
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniversalAttack {
    norm: Norm,
    epochs: usize,
    random_start: bool,
}

impl UniversalAttack {
    /// Creates a universal attack under the given norm (10 epochs, zero
    /// start).
    pub fn new(norm: Norm) -> Self {
        UniversalAttack {
            norm,
            epochs: 10,
            random_start: false,
        }
    }

    /// Overrides the number of gradient epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        assert!(epochs > 0);
        self.epochs = epochs;
        self
    }

    /// Enables/disables the PGD-style random start inside the eps-ball.
    pub fn with_random_start(mut self, enable: bool) -> Self {
        self.random_start = enable;
        self
    }

    /// The perturbation norm.
    pub fn norm(&self) -> Norm {
        self.norm
    }

    /// Optimizes one shared delta over the whole `(images, labels)` set,
    /// querying `source`.
    ///
    /// Per epoch: one [`universal_ascent_step`], an input-gradient pass at
    /// `clip(x + delta)` over every image, the per-image gradients summed
    /// in image order, an `alpha` ascent step (Madry's `2.5 * eps /
    /// epochs` step size) and a ball projection. Returns the final delta
    /// (in delta space — apply it with [`apply`]). A zero budget returns
    /// the zero delta without querying the source.
    ///
    /// `rng` seeds the optional random start, then the per-image streams
    /// a randomized source draws from. A deterministic source with the
    /// default zero start makes the delta a pure function of source, data
    /// and eps.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset (a "universal" perturbation for nothing
    /// is meaningless and would silently return zeros), a length
    /// mismatch, a negative budget, or an image that does not have the
    /// source's input shape.
    pub fn craft_universal(
        &self,
        source: &dyn GradSource,
        images: &[Tensor],
        labels: &[usize],
        eps: f32,
        rng: &mut Rng,
    ) -> Tensor {
        assert!(
            !images.is_empty(),
            "craft_universal needs a non-empty dataset"
        );
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        assert!(eps >= 0.0, "negative budget");
        let dims = source.input_dims();
        for (i, img) in images.iter().enumerate() {
            assert_eq!(
                img.dims(),
                dims,
                "image {i} does not share one shape with the source"
            );
        }
        if eps == 0.0 {
            return Tensor::zeros(dims);
        }
        let mut delta = if self.random_start {
            random_delta(dims, eps, self.norm, rng)
        } else {
            Tensor::zeros(dims)
        };
        let alpha = 2.5 * eps / self.epochs as f32;
        for epoch in 0..self.epochs {
            let examples = images.iter().zip(labels.iter().copied());
            let streams = rng.derive(epoch as u64);
            universal_ascent_step(
                source, &mut delta, examples, &streams, alpha, eps, self.norm,
            );
        }
        delta
    }
}

/// Crafts a universal delta on `source` with the default configuration
/// (10 epochs, zero start) under `norm`. See
/// [`UniversalAttack::craft_universal`].
pub fn craft_universal(
    source: &dyn GradSource,
    images: &[Tensor],
    labels: &[usize],
    eps: f32,
    norm: Norm,
    rng: &mut Rng,
) -> Tensor {
    UniversalAttack::new(norm).craft_universal(source, images, labels, eps, rng)
}

/// A random delta inside the eps-ball, PGD's random start: constrained
/// through the shared [`project_ball`]. Under linf every coordinate is
/// uniform in `[-eps, eps]`, so the delta is uniform in the ball. Under
/// l2 the direction is uniform (a normalized Gaussian) but the radius is
/// `eps · u` for `u` uniform in `[0, 1)`, not the `eps · u^(1/d)` of a
/// uniform point in the `d`-dimensional ball, so the delta sits nearer
/// the centre.
pub(crate) fn random_delta(dims: &[usize], eps: f32, norm: Norm, rng: &mut Rng) -> Tensor {
    let mut noise = Tensor::zeros(dims);
    match norm {
        Norm::Linf => rng.fill_range_f32(noise.data_mut(), -eps, eps),
        Norm::L2 => {
            rng.fill_normal_f32(noise.data_mut(), 1.0);
            let scale = rng.next_f32();
            noise = normalized(&noise, Norm::L2).scaled(eps * scale);
        }
    }
    project_ball(&noise, eps, norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn::layer::{Dense, Layer};
    use axnn::loss::cross_entropy;
    use axnn::Sequential;

    const DIMS: [usize; 3] = [1, 4, 4];

    fn toy_model(seed: u64) -> Sequential {
        let mut rng = Rng::seed_from_u64(seed);
        Sequential::new(
            "toy",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(16, 12, &mut rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(12, 3, &mut rng)),
            ],
        )
    }

    fn toy_images(n: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut t = Tensor::zeros(&DIMS);
                rng.fill_range_f32(t.data_mut(), 0.2, 0.8);
                t
            })
            .collect()
    }

    #[test]
    fn delta_respects_budgets() {
        let model = toy_model(1);
        let images = toy_images(5, 2);
        let labels = vec![0usize, 1, 2, 0, 1];
        let plan = model.plan(&DIMS);
        for (norm, eps) in [(Norm::Linf, 0.1f32), (Norm::L2, 0.5)] {
            let mut rng = Rng::seed_from_u64(3);
            let delta = craft_universal(&plan, &images, &labels, eps, norm, &mut rng);
            let n = match norm {
                Norm::Linf => delta.linf_norm(),
                Norm::L2 => delta.l2_norm(),
            };
            assert!(n <= eps * (1.0 + 1e-6), "{norm} budget violated: {n}");
        }
    }

    #[test]
    fn zero_eps_returns_zero_delta() {
        let model = toy_model(4);
        let images = toy_images(3, 5);
        let labels = vec![0usize, 1, 2];
        let mut rng = Rng::seed_from_u64(6);
        let plan = model.plan(&DIMS);
        let delta = craft_universal(&plan, &images, &labels, 0.0, Norm::Linf, &mut rng);
        assert_eq!(delta, Tensor::zeros(&DIMS));
    }

    #[test]
    fn delta_increases_mean_loss() {
        let model = toy_model(7);
        let images = toy_images(6, 8);
        let labels: Vec<usize> = images.iter().map(|x| model.predict(x)).collect();
        let mut rng = Rng::seed_from_u64(9);
        let plan = model.plan(&DIMS);
        let delta = craft_universal(&plan, &images, &labels, 0.15, Norm::Linf, &mut rng);
        let mean = |imgs: &[Tensor]| -> f32 {
            imgs.iter()
                .zip(&labels)
                .map(|(x, &l)| cross_entropy(&model.forward(x), l))
                .sum::<f32>()
                / imgs.len() as f32
        };
        let clean = mean(&images);
        let perturbed: Vec<Tensor> = images.iter().map(|x| apply(x, &delta)).collect();
        let adv = mean(&perturbed);
        assert!(
            adv > clean,
            "universal delta must raise mean loss: {clean} -> {adv}"
        );
    }

    #[test]
    fn default_configuration_is_rng_independent() {
        let model = toy_model(10);
        let images = toy_images(4, 11);
        let labels = vec![0usize, 1, 2, 0];
        let plan = model.plan(&DIMS);
        let a = craft_universal(
            &plan,
            &images,
            &labels,
            0.1,
            Norm::L2,
            &mut Rng::seed_from_u64(1),
        );
        let b = craft_universal(
            &plan,
            &images,
            &labels,
            0.1,
            Norm::L2,
            &mut Rng::seed_from_u64(999),
        );
        assert_eq!(a, b, "zero-start crafting must not consume the RNG");
    }

    #[test]
    fn random_start_is_deterministic_given_seed_and_stays_in_ball() {
        let model = toy_model(12);
        let images = toy_images(4, 13);
        let labels = vec![0usize, 1, 2, 0];
        let attack = UniversalAttack::new(Norm::Linf)
            .with_epochs(3)
            .with_random_start(true);
        let plan = model.plan(&DIMS);
        let a = attack.craft_universal(&plan, &images, &labels, 0.1, &mut Rng::seed_from_u64(5));
        let b = attack.craft_universal(&plan, &images, &labels, 0.1, &mut Rng::seed_from_u64(5));
        assert_eq!(a, b);
        assert!(a.linf_norm() <= 0.1);
    }

    #[test]
    #[should_panic(expected = "non-empty dataset")]
    fn empty_dataset_panics() {
        let model = toy_model(14);
        let plan = model.plan(&DIMS);
        let mut rng = Rng::seed_from_u64(15);
        let _ = craft_universal(&plan, &[], &[], 0.1, Norm::Linf, &mut rng);
    }

    #[test]
    #[should_panic(expected = "does not share one shape")]
    fn mixed_shape_images_panic() {
        let model = toy_model(16);
        let images = vec![Tensor::zeros(&DIMS), Tensor::zeros(&[16])];
        let mut rng = Rng::seed_from_u64(17);
        let plan = model.plan(&DIMS);
        let _ = craft_universal(&plan, &images, &[0, 1], 0.1, Norm::Linf, &mut rng);
    }
}
