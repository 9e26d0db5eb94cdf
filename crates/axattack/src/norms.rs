//! Perturbation norms and ball projections.
//!
//! The geometry itself lives in [`axtensor::norms`] so the universal
//! adversarial trainer in `axquant` (which cannot depend on this crate) share the exact same [`project_ball`]/[`ascent_direction`]
//! definitions as the attack crafters. This module re-exports it under
//! the historical `axattack::norms` paths.

pub use axtensor::norms::{ascent_direction, normalized, project_ball, project_to_ball, Norm};

#[cfg(test)]
mod tests {
    use super::*;
    use axtensor::Tensor;
    use axutil::rng::Rng;

    fn rand_tensor(dims: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
        let mut t = Tensor::zeros(dims);
        Rng::seed_from_u64(seed).fill_range_f32(t.data_mut(), lo, hi);
        t
    }

    #[test]
    fn normalized_has_unit_norm() {
        let d = rand_tensor(&[20], 1, -1.0, 1.0);
        assert!((normalized(&d, Norm::L2).l2_norm() - 1.0).abs() < 1e-5);
        assert!((normalized(&d, Norm::Linf).linf_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn normalized_zero_is_zero() {
        let z = Tensor::zeros(&[5]);
        assert_eq!(normalized(&z, Norm::L2), z);
    }

    #[test]
    fn normalized_negligible_direction_is_zero_not_passthrough() {
        // A tiny but nonzero direction must map to the zero tensor (the
        // documented flat-loss convention), not be returned unscaled.
        let tiny = Tensor::from_vec(vec![1e-20, -1e-20, 0.0], &[3]);
        assert_eq!(normalized(&tiny, Norm::L2), Tensor::zeros(&[3]));
        assert_eq!(normalized(&tiny, Norm::Linf), Tensor::zeros(&[3]));
    }

    #[test]
    fn projection_enforces_linf_budget() {
        let origin = rand_tensor(&[30], 2, 0.2, 0.8);
        let x = rand_tensor(&[30], 3, -0.5, 1.5);
        let p = project_to_ball(&x, &origin, 0.1, Norm::Linf);
        assert!(p.linf_dist(&origin) <= 0.1 + 1e-6);
        assert!(p.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn projection_enforces_l2_budget() {
        let origin = rand_tensor(&[30], 4, 0.3, 0.7);
        let x = rand_tensor(&[30], 5, -1.0, 2.0);
        let p = project_to_ball(&x, &origin, 0.5, Norm::L2);
        assert!(p.l2_dist(&origin) <= 0.5 + 1e-5);
        assert!(p.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn projection_is_identity_inside_ball() {
        let origin = Tensor::full(&[4], 0.5);
        let x = Tensor::from_vec(vec![0.52, 0.48, 0.5, 0.51], &[4]);
        let p = project_to_ball(&x, &origin, 0.1, Norm::Linf);
        assert_eq!(p, x);
    }

    #[test]
    fn image_projection_matches_delta_projection() {
        // `project_to_ball` is structurally project_ball on the delta plus
        // the pixel box — pin the composition through the re-export.
        let origin = rand_tensor(&[25], 6, 0.1, 0.9);
        let x = rand_tensor(&[25], 7, -0.5, 1.5);
        for norm in [Norm::Linf, Norm::L2] {
            let via_delta = origin
                .add(&project_ball(&x.sub(&origin), 0.2, norm))
                .clamped(0.0, 1.0);
            assert_eq!(project_to_ball(&x, &origin, 0.2, norm), via_delta);
        }
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
