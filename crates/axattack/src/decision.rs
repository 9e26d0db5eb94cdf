//! Decision-based attacks: Contrast Reduction, Repeated Additive Gaussian
//! and Repeated Additive Uniform noise.
//!
//! These attacks never see gradients; RAG/RAU query only their source's
//! *decision* ([`GradHandle::predict`]) to pick the first noise draw
//! that flips the label (Foolbox's "repeated" semantics), and CR is a
//! fixed deterministic perturbation toward mid-gray that never queries
//! the source at all.
//!
//! Each attack is one [`Attack::trajectory`], which maps its per-image
//! body over the block; batching and the per-image streams come from
//! the trait's provided wrappers. RAG/RAU consume a *variable* number of
//! draws per image (they stop at the first fooling sample), which is
//! exactly what per-image streams make chunking-safe.

use axtensor::Tensor;
use axutil::rng::Rng;

use crate::norms::{normalized, project_to_ball, Norm};
use crate::{Attack, GradHandle};

/// Runs `body(source, x, label, rng)` for every image of a block, in
/// order: the block trajectory of an attack whose queries stay per
/// image.
fn per_image(
    source: &mut dyn GradHandle,
    xs: &[Tensor],
    labels: &[usize],
    rngs: &mut [Rng],
    mut body: impl FnMut(&mut dyn GradHandle, &Tensor, usize, &mut Rng) -> Tensor,
) -> Vec<Tensor> {
    (xs.iter().zip(labels).zip(rngs))
        .map(|((x, &label), rng)| body(&mut *source, x, label, rng))
        .collect()
}

/// The gray level Contrast Reduction contracts toward.
const CR_TARGET_LEVEL: f32 = 0.5;

/// l2 Contrast Reduction: perturbs toward the mid-gray image by `eps`
/// along the contrast direction (Foolbox `L2ContrastReductionAttack`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContrastReduction;

impl ContrastReduction {
    /// Creates the attack targeting mid-gray (0.5).
    pub fn new() -> Self {
        ContrastReduction
    }
}

impl Attack for ContrastReduction {
    fn name(&self) -> String {
        "CR-l2".to_owned()
    }

    fn trajectory(
        &self,
        _source: &mut dyn GradHandle,
        xs: &[Tensor],
        _labels: &[usize],
        eps: f32,
        _rngs: &mut [Rng],
    ) -> Vec<Tensor> {
        (xs.iter())
            .map(|x| {
                let target = Tensor::full(x.dims(), CR_TARGET_LEVEL);
                let dir = target.sub(x);
                let n = dir.l2_norm();
                if n <= 1e-9 {
                    return x.clone();
                }
                // Step of l2-length eps toward gray, never overshooting
                // the target.
                let step = (eps / n).min(1.0);
                let mut adv = x.clone();
                adv.add_scaled(&dir, step);
                project_to_ball(&adv, x, eps, Norm::L2)
            })
            .collect()
    }
}

/// The repeated additive-noise trajectory shared by RAG and RAU: up to
/// `repeats` candidates from `sample`, returning the first one `source`
/// misclassifies, else the last draw.
fn repeated_noise(
    source: &mut dyn GradHandle,
    x: &Tensor,
    label: usize,
    rng: &mut Rng,
    repeats: usize,
    sample: impl Fn(&mut Rng, &Tensor) -> Tensor,
) -> Tensor {
    let mut last = x.clone();
    for _ in 0..repeats.max(1) {
        let candidate = sample(rng, x);
        if source.predict(&candidate) != label {
            return candidate; // first fooling draw wins
        }
        last = candidate;
    }
    last
}

/// Repeated Additive Gaussian noise under an l2 budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepeatedAdditiveGaussian {
    repeats: usize,
}

impl Default for RepeatedAdditiveGaussian {
    fn default() -> Self {
        RepeatedAdditiveGaussian { repeats: 10 }
    }
}

impl RepeatedAdditiveGaussian {
    /// Creates the attack with the default 10 repetitions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the repetition count.
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        assert!(repeats > 0);
        self.repeats = repeats;
        self
    }
}

impl Attack for RepeatedAdditiveGaussian {
    fn name(&self) -> String {
        "RAG-l2".to_owned()
    }

    fn trajectory(
        &self,
        source: &mut dyn GradHandle,
        xs: &[Tensor],
        labels: &[usize],
        eps: f32,
        rngs: &mut [Rng],
    ) -> Vec<Tensor> {
        per_image(source, xs, labels, rngs, |source, x, label, rng| {
            // The candidate: l2-normalized Gaussian noise of length
            // `eps`, clipped to the pixel box.
            repeated_noise(source, x, label, rng, self.repeats, |rng, x| {
                let mut u = Tensor::zeros(x.dims());
                rng.fill_normal_f32(u.data_mut(), 1.0);
                let noise = normalized(&u, Norm::L2).scaled(eps);
                x.add(&noise).clamped(0.0, 1.0)
            })
        })
    }
}

/// Repeated Additive Uniform noise under an l2 or linf budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepeatedAdditiveUniform {
    norm: Norm,
    repeats: usize,
}

impl RepeatedAdditiveUniform {
    /// Creates the attack with the default 10 repetitions.
    pub fn new(norm: Norm) -> Self {
        RepeatedAdditiveUniform { norm, repeats: 10 }
    }

    /// Overrides the repetition count.
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        assert!(repeats > 0);
        self.repeats = repeats;
        self
    }
}

impl Attack for RepeatedAdditiveUniform {
    fn name(&self) -> String {
        format!("RAU-{}", self.norm)
    }

    fn trajectory(
        &self,
        source: &mut dyn GradHandle,
        xs: &[Tensor],
        labels: &[usize],
        eps: f32,
        rngs: &mut [Rng],
    ) -> Vec<Tensor> {
        per_image(source, xs, labels, rngs, |source, x, label, rng| {
            repeated_noise(source, x, label, rng, self.repeats, |rng, x| {
                let mut u = Tensor::zeros(x.dims());
                rng.fill_range_f32(u.data_mut(), -1.0, 1.0);
                let noise = match self.norm {
                    // Uniform in [-eps, eps]^n: linf norm <= eps by
                    // construction.
                    Norm::Linf => u.scaled(eps),
                    Norm::L2 => normalized(&u, Norm::L2).scaled(eps),
                };
                x.add(&noise).clamped(0.0, 1.0)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn::layer::{Dense, Layer};
    use axnn::Sequential;

    fn toy_model(seed: u64) -> Sequential {
        let mut rng = Rng::seed_from_u64(seed);
        Sequential::new(
            "toy",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(9, 8, &mut rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(8, 2, &mut rng)),
            ],
        )
    }

    fn toy_input(seed: u64) -> Tensor {
        let mut t = Tensor::zeros(&[1, 3, 3]);
        Rng::seed_from_u64(seed).fill_range_f32(t.data_mut(), 0.1, 0.9);
        t
    }

    #[test]
    fn cr_moves_toward_gray_within_budget() {
        let model = toy_model(1);
        let x = toy_input(2);
        let mut rng = Rng::seed_from_u64(3);
        let eps = 0.3;
        let adv = ContrastReduction::new().craft(&model, &x, 0, eps, &mut rng);
        assert!(adv.l2_dist(&x) <= eps + 1e-5);
        // Every pixel moves toward 0.5 (or stays).
        for (&a, &o) in adv.data().iter().zip(x.data()) {
            assert!((a - 0.5).abs() <= (o - 0.5).abs() + 1e-6);
        }
    }

    #[test]
    fn cr_saturates_at_full_gray() {
        let model = toy_model(4);
        let x = toy_input(5);
        let mut rng = Rng::seed_from_u64(6);
        // Huge budget: must stop exactly at the gray image, not overshoot.
        let adv = ContrastReduction::new().craft(&model, &x, 0, 100.0, &mut rng);
        for &v in adv.data() {
            assert!((v - 0.5).abs() < 1e-5);
        }
    }

    #[test]
    fn cr_is_deterministic() {
        let model = toy_model(7);
        let x = toy_input(8);
        let a = ContrastReduction::new().craft(&model, &x, 0, 0.2, &mut Rng::seed_from_u64(1));
        let b = ContrastReduction::new().craft(&model, &x, 0, 0.2, &mut Rng::seed_from_u64(99));
        assert_eq!(a, b, "CR must not depend on the rng");
    }

    #[test]
    fn rag_and_rau_respect_budget() {
        let model = toy_model(9);
        let x = toy_input(10);
        let mut rng = Rng::seed_from_u64(11);
        for eps in [0.1f32, 0.5] {
            let rag = RepeatedAdditiveGaussian::new().craft(&model, &x, 0, eps, &mut rng);
            // Clipping can only shrink the l2 distance.
            assert!(rag.l2_dist(&x) <= eps + 1e-5, "RAG dist");
            let rau2 = RepeatedAdditiveUniform::new(Norm::L2).craft(&model, &x, 0, eps, &mut rng);
            assert!(rau2.l2_dist(&x) <= eps + 1e-5, "RAU-l2 dist");
            let raui = RepeatedAdditiveUniform::new(Norm::Linf).craft(&model, &x, 0, eps, &mut rng);
            assert!(raui.linf_dist(&x) <= eps + 1e-5, "RAU-linf dist");
        }
    }

    #[test]
    fn repeated_attack_returns_fooling_sample_when_found() {
        let model = toy_model(12);
        let x = toy_input(13);
        let label = model.predict(&x);
        let mut rng = Rng::seed_from_u64(14);
        // With an enormous linf budget the noise will virtually always
        // flip this tiny model's decision within 10 draws.
        let adv = RepeatedAdditiveUniform::new(Norm::Linf).craft(&model, &x, label, 1.0, &mut rng);
        // Either fooled, or (extremely unlikely) all draws kept the label.
        let fooled = model.predict(&adv) != label;
        assert!(
            fooled || adv.linf_dist(&x) <= 1.0 + 1e-5,
            "returned sample must at least respect the budget"
        );
    }

    #[test]
    fn zero_eps_is_identity() {
        let model = toy_model(15);
        let x = toy_input(16);
        let mut rng = Rng::seed_from_u64(17);
        assert_eq!(
            ContrastReduction::new().craft(&model, &x, 0, 0.0, &mut rng),
            x
        );
        assert_eq!(
            RepeatedAdditiveGaussian::new().craft(&model, &x, 0, 0.0, &mut rng),
            x
        );
        assert_eq!(
            RepeatedAdditiveUniform::new(Norm::Linf).craft(&model, &x, 0, 0.0, &mut rng),
            x
        );
    }

    #[test]
    fn names_follow_paper_convention() {
        assert_eq!(ContrastReduction::new().name(), "CR-l2");
        assert_eq!(RepeatedAdditiveGaussian::new().name(), "RAG-l2");
        assert_eq!(RepeatedAdditiveUniform::new(Norm::Linf).name(), "RAU-linf");
    }
}
