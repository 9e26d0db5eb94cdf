//! Gradient-based attacks: FGM, BIM and PGD.
//!
//! All three ascend the cross-entropy loss of their gradient source under
//! an eps-budget in their norm. BIM iterates FGM with per-step
//! projection; PGD additionally starts from a random point inside the
//! ball (Madry et al.), which is why BIM and PGD behave near-identically
//! in the paper's figures while FGM is visibly weaker.
//!
//! Each attack is one [`Attack::trajectory`] that steps its block of
//! images in lockstep: every step is one
//! [`GradHandle::input_gradient_block`] query for the whole block, and
//! image `i` draws from its own stream in the same order as it would
//! alone. Batching, thread chunking and the per-image streams come from
//! the trait's provided wrappers. Over a [`Mixture`](crate::Mixture)
//! source PGD is the EOT attacker.

use axtensor::Tensor;
use axutil::rng::Rng;

use crate::norms::{ascent_direction, project_to_ball, Norm};
use crate::universal::random_delta;
use crate::{Attack, GradHandle};

/// Fast Gradient Method (single step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fgm {
    norm: Norm,
}

impl Fgm {
    /// Creates an FGM attack under the given norm.
    pub fn new(norm: Norm) -> Self {
        Fgm { norm }
    }
}

impl Attack for Fgm {
    fn name(&self) -> String {
        format!("FGM-{}", self.norm)
    }

    fn trajectory(
        &self,
        source: &mut dyn GradHandle,
        xs: &[Tensor],
        labels: &[usize],
        eps: f32,
        rngs: &mut [Rng],
    ) -> Vec<Tensor> {
        let grads = source.input_gradient_block(xs, labels, rngs);
        (xs.iter().zip(&grads))
            .map(|(x, grad)| ascend(x, x, grad, eps, eps, self.norm))
            .collect()
    }
}

/// Basic Iterative Method: FGM iterated with projection, no random start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bim {
    norm: Norm,
    steps: usize,
}

impl Bim {
    /// Creates a BIM attack with the default 10 steps.
    pub fn new(norm: Norm) -> Self {
        Bim { norm, steps: 10 }
    }

    /// Overrides the iteration count.
    pub fn with_steps(mut self, steps: usize) -> Self {
        assert!(steps > 0);
        self.steps = steps;
        self
    }
}

impl Attack for Bim {
    fn name(&self) -> String {
        format!("BIM-{}", self.norm)
    }

    fn trajectory(
        &self,
        source: &mut dyn GradHandle,
        xs: &[Tensor],
        labels: &[usize],
        eps: f32,
        rngs: &mut [Rng],
    ) -> Vec<Tensor> {
        let start = xs.to_vec();
        iterate(source, xs, start, labels, eps, self.norm, self.steps, rngs)
    }
}

/// Projected Gradient Descent: BIM from a random start inside the
/// eps-ball. The start is uniform in the ball under linf; under l2 it
/// has a uniform direction and a uniform radius `eps · u`, which is not
/// uniform in the ball (that would take `eps · u^(1/d)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pgd {
    norm: Norm,
    steps: usize,
}

impl Pgd {
    /// Creates a PGD attack with the default 10 steps.
    pub fn new(norm: Norm) -> Self {
        Pgd { norm, steps: 10 }
    }

    /// Overrides the iteration count.
    pub fn with_steps(mut self, steps: usize) -> Self {
        assert!(steps > 0);
        self.steps = steps;
        self
    }
}

impl Attack for Pgd {
    fn name(&self) -> String {
        format!("PGD-{}", self.norm)
    }

    fn trajectory(
        &self,
        source: &mut dyn GradHandle,
        xs: &[Tensor],
        labels: &[usize],
        eps: f32,
        rngs: &mut [Rng],
    ) -> Vec<Tensor> {
        let start = (xs.iter().zip(rngs.iter_mut()))
            .map(|(x, rng)| random_start(x, eps, self.norm, rng))
            .collect();
        iterate(source, xs, start, labels, eps, self.norm, self.steps, rngs)
    }
}

/// One gradient-ascent move: `cur + alpha * ascent_direction(grad)`,
/// projected onto the eps-ball around `origin` and the pixel box.
fn ascend(
    cur: &Tensor,
    origin: &Tensor,
    grad: &Tensor,
    alpha: f32,
    eps: f32,
    norm: Norm,
) -> Tensor {
    let step = ascent_direction(grad, norm);
    let mut adv = cur.clone();
    adv.add_scaled(&step, alpha);
    project_to_ball(&adv, origin, eps, norm)
}

/// The PGD initialization: a random point inside the eps-ball around `x`
/// (Madry et al.), the universal crafter's [`random_delta`] added to `x`
/// and clipped to the pixel box. Under l2 the point is *not* uniform in
/// the ball: its radius is uniform (see [`random_delta`]).
fn random_start(x: &Tensor, eps: f32, norm: Norm, rng: &mut Rng) -> Tensor {
    x.add(&random_delta(x.dims(), eps, norm, rng))
        .clamped(0.0, 1.0)
}

/// The BIM/PGD loop: `steps` lockstep ascents of the block's iterates
/// `advs` around their origins `xs`, one block gradient query per step.
#[allow(clippy::too_many_arguments)]
fn iterate(
    source: &mut dyn GradHandle,
    xs: &[Tensor],
    mut advs: Vec<Tensor>,
    labels: &[usize],
    eps: f32,
    norm: Norm,
    steps: usize,
    rngs: &mut [Rng],
) -> Vec<Tensor> {
    // Madry et al.'s step-size heuristic keeps the iterate mobile inside
    // the ball without overshooting.
    let alpha = 2.5 * eps / steps as f32;
    for _ in 0..steps {
        let grads = source.input_gradient_block(&advs, labels, rngs);
        advs = (advs.iter().zip(xs).zip(&grads))
            .map(|((adv, x), grad)| ascend(adv, x, grad, alpha, eps, norm))
            .collect();
    }
    advs
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn::layer::{Dense, Layer};
    use axnn::loss::cross_entropy;
    use axnn::Sequential;

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

    fn toy_input(seed: u64) -> Tensor {
        let mut t = Tensor::zeros(&[1, 4, 4]);
        Rng::seed_from_u64(seed).fill_range_f32(t.data_mut(), 0.2, 0.8);
        t
    }

    #[test]
    fn budgets_are_respected() {
        let model = toy_model(1);
        let x = toy_input(2);
        let mut rng = Rng::seed_from_u64(3);
        for eps in [0.05f32, 0.2, 1.0] {
            for attack in [
                &Fgm::new(Norm::Linf) as &dyn Attack,
                &Fgm::new(Norm::L2),
                &Bim::new(Norm::Linf),
                &Bim::new(Norm::L2),
                &Pgd::new(Norm::Linf),
                &Pgd::new(Norm::L2),
            ] {
                let adv = attack.craft(&model, &x, 0, eps, &mut rng);
                let norm = if attack.name().ends_with("linf") {
                    Norm::Linf
                } else {
                    Norm::L2
                };
                let d = norm.dist(&adv, &x);
                assert!(d <= eps + 1e-4, "{} at eps {eps}: dist {d}", attack.name());
                assert!(adv.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }

    #[test]
    fn zero_eps_returns_input() {
        let model = toy_model(4);
        let x = toy_input(5);
        let mut rng = Rng::seed_from_u64(6);
        for attack in [
            &Fgm::new(Norm::Linf) as &dyn Attack,
            &Bim::new(Norm::L2),
            &Pgd::new(Norm::Linf),
        ] {
            assert_eq!(attack.craft(&model, &x, 1, 0.0, &mut rng), x);
        }
    }

    #[test]
    fn fgm_increases_loss() {
        let model = toy_model(7);
        let x = toy_input(8);
        let label = model.predict(&x);
        let mut rng = Rng::seed_from_u64(9);
        let adv = Fgm::new(Norm::Linf).craft(&model, &x, label, 0.1, &mut rng);
        let l0 = cross_entropy(&model.forward(&x), label);
        let l1 = cross_entropy(&model.forward(&adv), label);
        assert!(l1 > l0, "FGM must increase loss: {l0} -> {l1}");
    }

    #[test]
    fn bim_at_least_matches_fgm_loss() {
        let model = toy_model(10);
        let x = toy_input(11);
        let label = model.predict(&x);
        let mut rng = Rng::seed_from_u64(12);
        let eps = 0.15;
        let fgm = Fgm::new(Norm::Linf).craft(&model, &x, label, eps, &mut rng);
        let bim = Bim::new(Norm::Linf).craft(&model, &x, label, eps, &mut rng);
        let lf = cross_entropy(&model.forward(&fgm), label);
        let lb = cross_entropy(&model.forward(&bim), label);
        assert!(
            lb >= lf * 0.9,
            "iterated attack should be at least comparable: fgm {lf}, bim {lb}"
        );
    }

    #[test]
    fn fgm_moves_along_gradient_sign() {
        let model = toy_model(13);
        let x = toy_input(14);
        let plan = model.plan(x.dims());
        let (_, g) = plan.input_gradient(&mut plan.scratch(), &x, 2);
        let mut rng = Rng::seed_from_u64(15);
        let adv = Fgm::new(Norm::Linf).craft(&model, &x, 2, 0.05, &mut rng);
        let delta = adv.sub(&x);
        // Wherever the pixel was not clipped at the box, the move must
        // match the gradient sign.
        let mut checked = 0;
        for i in 0..x.len() {
            let xv = x.data()[i];
            let dv = delta.data()[i];
            let gv = g.data()[i];
            if gv.abs() > 1e-6 && xv > 0.06 && xv < 0.94 {
                assert_eq!(dv.signum(), gv.signum(), "pixel {i}");
                checked += 1;
            }
        }
        assert!(checked > 5, "too few testable pixels");
    }

    #[test]
    fn pgd_is_deterministic_given_rng_seed() {
        let model = toy_model(16);
        let x = toy_input(17);
        let a = Pgd::new(Norm::Linf).craft(&model, &x, 0, 0.1, &mut Rng::seed_from_u64(5));
        let b = Pgd::new(Norm::Linf).craft(&model, &x, 0, 0.1, &mut Rng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn flat_loss_fgm_l2_is_a_no_op() {
        // All-zero weights make the loss flat in the input: the gradient
        // is exactly zero, `normalized` maps it to the zero step, and the
        // crafted example must equal the input.
        let zero = Sequential::new(
            "flat",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::from_parts(
                    Tensor::zeros(&[3, 16]),
                    Tensor::zeros(&[3]),
                )),
            ],
        );
        let x = toy_input(20);
        let mut rng = Rng::seed_from_u64(21);
        let adv = Fgm::new(Norm::L2).craft(&zero, &x, 1, 0.3, &mut rng);
        assert_eq!(adv, x, "flat-loss FGM-l2 must leave the input unchanged");
    }

    #[test]
    fn with_steps_validates() {
        let b = Bim::new(Norm::L2).with_steps(3);
        assert_eq!(
            b,
            Bim {
                norm: Norm::L2,
                steps: 3
            }
        );
    }
}
