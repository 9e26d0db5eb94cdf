//! Expectation-over-Transformation: the adaptive attacker against a
//! moving-target kernel ensemble, as a gradient source.
//!
//! A randomized ensemble answers each query through a kernel sampled
//! from a distribution the attacker knows but cannot pin down per query
//! (Athalye et al.'s EOT setting). The adaptive response is to ascend
//! the *expected* loss: at every step, sample `samples` kernels from the
//! disclosed distribution and average the input gradients of the
//! attacker's sources for them. [`Mixture`] is that expectation as a
//! [`GradSource`], so the EOT attacker is plain
//! [`Pgd`](crate::gradient::Pgd) crafting on a mixture
//! ([`Attack::craft_batch_on`](crate::Attack::craft_batch_on)). Member
//! `k` is whatever source the attacker holds for kernel `k` (the shared
//! float surrogate under the paper's threat model, or per-kernel
//! shadows).
//!
//! **Degenerate contract.** With one sample per query the drawn member's
//! gradient is used as-is — no sum, no rescale — so a mixture whose
//! positive-weight members all equal one source crafts **bit-identically**
//! to that source. Draws come from the image's own stream, interleaved
//! with the attack's own randomness (PGD: random start first, then one
//! draw per sample per step).

use axtensor::Tensor;
use axutil::rng::Rng;

use crate::{GradHandle, GradSource};

/// A weighted mixture of gradient sources: each gradient query draws
/// `samples` members with probability proportional to their weights
/// ([`Rng::weighted_index`], the draw the defender's `KernelPolicy`
/// makes) and averages their input gradients.
pub struct Mixture<'a> {
    members: Vec<&'a dyn GradSource>,
    weights: Vec<f32>,
    samples: usize,
}

impl<'a> Mixture<'a> {
    /// Mixes `members`, member `k` drawn with unnormalized probability
    /// `weights[k]` (zero weights are never drawn), averaging `samples`
    /// draws per gradient query.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, disagrees with `weights` in length,
    /// the members disagree in input shape, any weight is negative or
    /// non-finite, the total mass is zero, or `samples` is zero.
    pub fn new(members: Vec<&'a dyn GradSource>, weights: Vec<f32>, samples: usize) -> Self {
        assert!(!members.is_empty(), "EOT requires at least one surrogate");
        assert_eq!(
            members.len(),
            weights.len(),
            "EOT surrogate/weight arity mismatch"
        );
        assert!(
            members
                .iter()
                .all(|m| m.input_dims() == members[0].input_dims()),
            "EOT surrogates must share one input shape"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "EOT weights must be finite and non-negative: {weights:?}"
        );
        assert!(
            weights.iter().sum::<f32>() > 0.0,
            "EOT weights must carry positive total probability mass"
        );
        assert!(samples > 0, "EOT needs at least one sample per query");
        Mixture {
            members,
            weights,
            samples,
        }
    }
}

impl GradSource for Mixture<'_> {
    fn input_dims(&self) -> &[usize] {
        self.members[0].input_dims()
    }

    fn handle(&self) -> Box<dyn GradHandle + '_> {
        let handles = self.members.iter().map(|m| m.handle()).collect();
        Box::new(MixtureHandle {
            mixture: self,
            handles,
        })
    }
}

struct MixtureHandle<'h> {
    mixture: &'h Mixture<'h>,
    handles: Vec<Box<dyn GradHandle + 'h>>,
}

impl GradHandle for MixtureHandle<'_> {
    /// The class carrying the most mixture weight among the members'
    /// decisions (ties go to the lower class).
    fn predict(&mut self, x: &Tensor) -> usize {
        let mut mass: Vec<f32> = Vec::new();
        for (h, &w) in self.handles.iter_mut().zip(&self.mixture.weights) {
            if w > 0.0 {
                let class = h.predict(x);
                if mass.len() <= class {
                    mass.resize(class + 1, 0.0);
                }
                mass[class] += w;
            }
        }
        let best = mass.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        mass.iter().position(|&m| m == best).expect("positive mass")
    }

    fn input_gradient(&mut self, x: &Tensor, label: usize, rng: &mut Rng) -> Tensor {
        let m = self.mixture;
        let k = rng.weighted_index(&m.weights);
        let mut grad = self.handles[k].input_gradient(x, label, rng);
        if m.samples == 1 {
            // A single draw is used as-is, which is what makes the
            // degenerate mixture bitwise its one source.
            return grad;
        }
        for _ in 1..m.samples {
            let k = rng.weighted_index(&m.weights);
            grad.add_scaled(&self.handles[k].input_gradient(x, label, rng), 1.0);
        }
        grad.scaled(1.0 / m.samples as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::RepeatedAdditiveUniform;
    use crate::gradient::Pgd;
    use crate::norms::Norm;
    use crate::Attack;
    use axnn::layer::{Dense, Layer};
    use axnn::plan::FPlan;
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
                rng.fill_range_f32(t.data_mut(), 0.1, 0.9);
                t
            })
            .collect()
    }

    fn plan(model: &Sequential) -> FPlan<'_> {
        model.plan(&DIMS)
    }

    #[test]
    fn one_sample_single_surrogate_is_bitwise_pgd() {
        let model = toy_model(3);
        let source = plan(&model);
        let imgs = toy_images(6, 4);
        let labels: Vec<usize> = (0..imgs.len()).map(|i| i % 3).collect();
        for norm in [Norm::Linf, Norm::L2] {
            let base = Rng::seed_from_u64(0xE07);
            let pgd = Pgd::new(norm).with_steps(4);
            let plain = pgd.craft_batch(&model, &imgs, &labels, 0.09, &base);
            // One member, or several copies of it drawn one at a time.
            for copies in [1, 3] {
                let mixture = Mixture::new(vec![&source; copies], vec![1.0; copies], 1);
                assert_eq!(
                    pgd.craft_batch_on(&mixture, &imgs, &labels, 0.09, &base),
                    plain,
                    "degenerate EOT ({norm}, {copies} copies) must be plain PGD, bit for bit"
                );
            }
        }
    }

    #[test]
    fn multi_surrogate_averaging_respects_the_budget() {
        let models = [toy_model(8), toy_model(9)];
        let plans = [plan(&models[0]), plan(&models[1])];
        let mixture = Mixture::new(vec![&plans[0], &plans[1]], vec![1.0, 2.0], 3);
        let imgs = toy_images(4, 10);
        let labels = vec![0usize, 1, 2, 0];
        let base = Rng::seed_from_u64(11);
        let pgd = Pgd::new(Norm::Linf).with_steps(5);
        let advs = pgd.craft_batch_on(&mixture, &imgs, &labels, 0.08, &base);
        for (adv, img) in advs.iter().zip(&imgs) {
            assert!(adv.linf_dist(img) <= 0.08 + 1e-5);
            assert!(adv.data().iter().all(|v| (0.0..=1.0).contains(v)));
            assert_ne!(adv, img, "EOT left an image untouched");
        }
    }

    #[test]
    fn zero_weight_surrogates_are_never_drawn() {
        // Weight the second surrogate at zero: the crafted batch must be
        // bitwise what the first surrogate alone produces.
        let models = [toy_model(12), toy_model(13)];
        let plans = [plan(&models[0]), plan(&models[1])];
        let imgs = toy_images(4, 14);
        let labels = vec![1usize, 2, 0, 1];
        let base = Rng::seed_from_u64(15);
        let pgd = Pgd::new(Norm::L2).with_steps(3);
        let both = Mixture::new(vec![&plans[0], &plans[1]], vec![1.0, 0.0], 2);
        let first = Mixture::new(vec![&plans[0]], vec![1.0], 2);
        assert_eq!(
            pgd.craft_batch_on(&both, &imgs, &labels, 0.1, &base),
            pgd.craft_batch_on(&first, &imgs, &labels, 0.1, &base),
        );
        // Decisions ignore the zero-weight member too.
        let rau = RepeatedAdditiveUniform::new(Norm::Linf).with_repeats(4);
        assert_eq!(
            rau.craft_batch_on(&both, &imgs, &labels, 0.3, &base),
            rau.craft_batch(&models[0], &imgs, &labels, 0.3, &base),
        );
    }

    #[test]
    fn eps_zero_returns_clean_images() {
        let model = toy_model(16);
        let source = plan(&model);
        let imgs = toy_images(3, 17);
        let labels = vec![0usize, 1, 2];
        let base = Rng::seed_from_u64(18);
        let mixture = Mixture::new(vec![&source], vec![1.0], 4);
        assert_eq!(
            Pgd::new(Norm::Linf).craft_batch_on(&mixture, &imgs, &labels, 0.0, &base),
            imgs
        );
    }

    #[test]
    #[should_panic(expected = "at least one surrogate")]
    fn empty_surrogate_set_panics() {
        let _ = Mixture::new(vec![], vec![], 1);
    }

    #[test]
    #[should_panic(expected = "positive total probability mass")]
    fn zero_mass_weights_panic() {
        let model = toy_model(20);
        let source = plan(&model);
        let _ = Mixture::new(vec![&source, &source], vec![0.0, 0.0], 1);
    }
}
