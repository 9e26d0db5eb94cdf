//! Perturbation norms and eps-ball projections.
//!
//! The geometry every adversarial budget is defined in, shared by the
//! attack crafters (`axattack`) and the universal adversarial trainer
//! (`axquant`): the [`Norm`] enum, unit normalization, the delta-space
//! ball projection [`project_ball`], the image-space [`project_to_ball`]
//! (ball projection plus the `[0, 1]` pixel box), the ascent direction
//! [`ascent_direction`] and the universal delta step
//! [`universal_step`]. Keeping one definition here
//! makes batch-vs-scalar and universal-vs-PGD geometry *structural*
//! rather than hand-synced across crates.

use crate::Tensor;

/// The distance metric bounding a perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Norm {
    /// Euclidean norm.
    L2,
    /// Maximum-coordinate norm.
    Linf,
}

impl std::fmt::Display for Norm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Norm::L2 => write!(f, "l2"),
            Norm::Linf => write!(f, "linf"),
        }
    }
}

impl Norm {
    /// Distance between two tensors in this norm.
    pub fn dist(self, a: &Tensor, b: &Tensor) -> f32 {
        match self {
            Norm::L2 => a.l2_dist(b),
            Norm::Linf => a.linf_dist(b),
        }
    }
}

/// Scales `dir` to unit length in the given norm.
///
/// Convention: a zero or numerically negligible direction (norm at most
/// `1e-12`) has no meaningful unit vector and maps to the **zero
/// tensor** — not to the unnormalized input direction — so a gradient
/// step on a flat loss is a no-op (`adv == x` for FGM-l2) instead of a
/// step along floating-point noise.
pub fn normalized(dir: &Tensor, norm: Norm) -> Tensor {
    let n = match norm {
        Norm::L2 => dir.l2_norm(),
        Norm::Linf => dir.linf_norm(),
    };
    if n <= 1e-12 {
        Tensor::zeros(dir.dims())
    } else {
        dir.scaled(1.0 / n)
    }
}

/// Projects a perturbation `delta` onto the eps-ball (in `norm`) around
/// the origin — the delta-space half of [`project_to_ball`], without the
/// pixel-box clip.
///
/// This is *the* shared ball geometry: PGD's random start, the per-step
/// projection of the iterated attacks and the universal-perturbation
/// crafter and trainer all constrain their delta through this one
/// function.
/// For linf the projection (a coordinate clamp) is exactly idempotent;
/// for l2 a rescale may leave the norm within one rounding step of `eps`,
/// so re-projection moves the delta by at most a few ULPs.
pub fn project_ball(delta: &Tensor, eps: f32, norm: Norm) -> Tensor {
    match norm {
        Norm::Linf => delta.clamped(-eps, eps),
        Norm::L2 => {
            let n = delta.l2_norm();
            if n > eps && n > 1e-12 {
                delta.scaled(eps / n)
            } else {
                delta.clone()
            }
        }
    }
}

/// Projects `x` onto the eps-ball (in `norm`) around `origin`, then clips
/// to the pixel box `[0, 1]`.
pub fn project_to_ball(x: &Tensor, origin: &Tensor, eps: f32, norm: Norm) -> Tensor {
    let delta = project_ball(&x.sub(origin), eps, norm);
    origin.add(&delta).clamped(0.0, 1.0)
}

/// The gradient-ascent direction under `norm`: the sign pattern for linf
/// (FGSM), the l2-normalized gradient for l2.
pub fn ascent_direction(grad: &Tensor, norm: Norm) -> Tensor {
    match norm {
        Norm::Linf => grad.map(f32::signum),
        Norm::L2 => normalized(grad, Norm::L2),
    }
}

/// One ascent step of a universal delta: sums the per-image input
/// gradients `grads` in iteration order, moves `delta` by `alpha` along
/// their [`ascent_direction`] and projects it back onto the `eps`-ball
/// with [`project_ball`].
///
/// The universal crafter's epoch and the universal adversarial trainer's
/// minibatch both step their delta through this one function; feeding
/// the gradients in image order keeps the sum, and so the delta,
/// independent of how the gradients were computed in parallel.
pub fn universal_step<'a>(
    delta: &mut Tensor,
    grads: impl IntoIterator<Item = &'a Tensor>,
    alpha: f32,
    eps: f32,
    norm: Norm,
) {
    let mut g = Tensor::zeros(delta.dims());
    for gi in grads {
        g.add_scaled(gi, 1.0);
    }
    delta.add_scaled(&ascent_direction(&g, norm), alpha);
    *delta = project_ball(delta, eps, norm);
}

/// Applies a universal delta to one image: `clip(x + delta, 0, 1)`.
///
/// The single definition of "perturbed by a universal delta": the
/// universal crafter's epoch loop, the adversarial trainer and the
/// robustness sweeps all build their perturbed inputs through this, so
/// crafting and evaluation see exactly the same pixels. For `x` in
/// `[0, 1]` and a zero delta this is the bitwise identity.
pub fn apply_delta(x: &Tensor, delta: &Tensor) -> Tensor {
    x.add(delta).clamped(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic generator (xorshift64*), keeping this crate
    /// dependency-free even under test.
    fn fill(t: &mut Tensor, seed: u64, lo: f32, hi: f32) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for v in t.data_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let u = (s.wrapping_mul(0x2545F4914F6CDD1D) >> 40) as f32 / (1u64 << 24) as f32;
            *v = lo + (hi - lo) * u;
        }
    }

    fn rand_tensor(dims: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
        let mut t = Tensor::zeros(dims);
        fill(&mut t, seed, lo, hi);
        t
    }

    #[test]
    fn normalized_has_unit_norm() {
        let d = rand_tensor(&[20], 1, -1.0, 1.0);
        assert!((normalized(&d, Norm::L2).l2_norm() - 1.0).abs() < 1e-5);
        assert!((normalized(&d, Norm::Linf).linf_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn normalized_negligible_direction_is_zero() {
        let tiny = Tensor::from_vec(vec![1e-20, -1e-20, 0.0], &[3]);
        assert_eq!(normalized(&tiny, Norm::L2), Tensor::zeros(&[3]));
        assert_eq!(normalized(&tiny, Norm::Linf), Tensor::zeros(&[3]));
    }

    #[test]
    fn project_ball_enforces_budgets() {
        for seed in 0..8u64 {
            let d = rand_tensor(&[40], seed + 10, -2.0, 2.0);
            let p = project_ball(&d, 0.3, Norm::Linf);
            assert!(p.linf_norm() <= 0.3, "linf budget violated (seed {seed})");
            let p = project_ball(&d, 0.7, Norm::L2);
            assert!(
                p.l2_norm() <= 0.7 * (1.0 + 1e-6),
                "l2 budget violated (seed {seed}): {}",
                p.l2_norm()
            );
        }
    }

    #[test]
    fn project_ball_linf_is_exactly_idempotent() {
        // The linf projection is a coordinate clamp: applying it twice is
        // bitwise the same as applying it once, and a delta already inside
        // the ball is returned unchanged.
        for seed in 0..8u64 {
            let d = rand_tensor(&[40], seed + 20, -1.5, 1.5);
            let once = project_ball(&d, 0.25, Norm::Linf);
            let twice = project_ball(&once, 0.25, Norm::Linf);
            assert_eq!(once, twice, "linf projection not idempotent (seed {seed})");
        }
        let inside = rand_tensor(&[16], 99, -0.1, 0.1);
        assert_eq!(project_ball(&inside, 0.2, Norm::Linf), inside);
    }

    #[test]
    fn project_ball_l2_is_idempotent_to_rounding() {
        // One l2 rescale lands within a rounding step of the sphere, so a
        // second projection moves each coordinate by at most a few ULPs
        // and an inside-ball delta is returned bitwise unchanged.
        for seed in 0..8u64 {
            let d = rand_tensor(&[40], seed + 30, -1.5, 1.5);
            let once = project_ball(&d, 0.5, Norm::L2);
            let twice = project_ball(&once, 0.5, Norm::L2);
            assert!(
                once.sub(&twice).linf_norm() <= 1e-6,
                "l2 re-projection moved the delta (seed {seed})"
            );
        }
        let inside = rand_tensor(&[16], 98, -0.05, 0.05);
        assert_eq!(project_ball(&inside, 0.5, Norm::L2), inside);
    }

    #[test]
    fn project_ball_is_an_involution_up_to_sign() {
        // Projecting a delta and its negation are mirror images: the ball
        // is symmetric, so project(-d) == -project(d) bitwise (both
        // branches multiply by the same non-negative scale or clamp to the
        // symmetric interval).
        for norm in [Norm::Linf, Norm::L2] {
            let d = rand_tensor(&[24], 7, -2.0, 2.0);
            let neg = d.scaled(-1.0);
            let p = project_ball(&d, 0.4, norm);
            let pn = project_ball(&neg, 0.4, norm);
            assert_eq!(pn, p.scaled(-1.0), "{norm} projection not odd");
        }
    }

    #[test]
    fn project_to_ball_composes_ball_and_box() {
        let origin = rand_tensor(&[30], 2, 0.2, 0.8);
        let x = rand_tensor(&[30], 3, -0.5, 1.5);
        let p = project_to_ball(&x, &origin, 0.1, Norm::Linf);
        assert!(p.linf_dist(&origin) <= 0.1 + 1e-6);
        assert!(p.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let p = project_to_ball(&x, &origin, 0.5, Norm::L2);
        assert!(p.l2_dist(&origin) <= 0.5 + 1e-5);
        assert!(p.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn ascent_direction_matches_norm_semantics() {
        let g = Tensor::from_vec(vec![0.5, -2.0, -0.0], &[3]);
        let linf = ascent_direction(&g, Norm::Linf);
        // `f32::signum` maps +0.0 to 1.0 and -0.0 to -1.0 — the FGM sign
        // convention the attacks have always used.
        assert_eq!(linf.data(), &[1.0, -1.0, -1.0]);
        let l2 = ascent_direction(&g, Norm::L2);
        assert!((l2.l2_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn norm_display_and_dist() {
        assert_eq!(Norm::L2.to_string(), "l2");
        assert_eq!(Norm::Linf.to_string(), "linf");
        let a = Tensor::from_vec(vec![0.0, 3.0], &[2]);
        let b = Tensor::from_vec(vec![4.0, 0.0], &[2]);
        assert_eq!(Norm::L2.dist(&a, &b), 5.0);
        assert_eq!(Norm::Linf.dist(&a, &b), 4.0);
    }
}
