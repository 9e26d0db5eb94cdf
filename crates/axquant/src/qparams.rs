//! Symmetric quantization parameters and calibration.

/// A symmetric quantization scale: `real = q * scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
}

impl QuantParams {
    /// Creates parameters from an explicit scale.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is finite and positive.
    pub fn from_scale(scale: f32) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "bad scale {scale}");
        QuantParams { scale }
    }

    /// Scale for signed i8 weights covering `[-max_abs, max_abs]`.
    pub fn for_weights(max_abs: f32) -> Self {
        Self::from_scale((max_abs / 127.0).max(1e-12))
    }

    /// Scale for unsigned u8 activations covering `[0, max]`.
    pub fn for_activations(max: f32) -> Self {
        Self::from_scale((max / 255.0).max(1e-12))
    }

    /// The scale factor.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Quantizes one value to i8 (round-to-nearest, saturating).
    #[inline]
    pub fn quantize_i8(&self, v: f32) -> i8 {
        (v / self.scale).round().clamp(-127.0, 127.0) as i8
    }

    /// Dequantizes an integer back to real.
    #[inline]
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::round_code;
    use crate::qmodel::QLayer;
    use crate::{Placement, QuantModel};
    use axnn::layer::Layer;
    use axtensor::Tensor;

    #[test]
    fn weight_roundtrip_error_is_within_half_lsb() {
        let p = QuantParams::for_weights(2.0);
        for &v in &[-2.0f32, -1.3, -0.01, 0.0, 0.5, 1.99, 2.0] {
            let q = p.quantize_i8(v);
            let back = p.dequantize(q as i32);
            assert!((back - v).abs() <= p.scale() * 0.5 + 1e-6, "{v} -> {back}");
        }
    }

    #[test]
    fn activation_clamps_to_range() {
        // The engine codes an activation `v` as `round_code(v / scale)`.
        let p = QuantParams::for_activations(1.0);
        let code = |v: f32| round_code(v / p.scale(), 255.0);
        assert_eq!(code(-0.5), 0);
        assert_eq!(code(2.0), 255);
        assert_eq!(code(1.0), 255);
        assert_eq!(code(0.0), 0);
    }

    #[test]
    fn weights_clamp_symmetrically() {
        let p = QuantParams::for_weights(1.0);
        assert_eq!(p.quantize_i8(-5.0), -127);
        assert_eq!(p.quantize_i8(5.0), 127);
    }

    #[test]
    fn zero_max_gives_tiny_but_valid_scale() {
        let p = QuantParams::for_activations(0.0);
        assert!(p.scale() > 0.0);
        assert_eq!(round_code(0.0 / p.scale(), 255.0), 0);
    }

    #[test]
    fn tensor_quantization_matches_scalar() {
        // `QuantModel` codes each weight tensor in one pass; every code
        // must equal `quantize_i8` of its element at the tensor's scale.
        let model = axnn::zoo::ffnn(&mut axutil::rng::Rng::seed_from_u64(3));
        let calib = [Tensor::full(&[1, 28, 28], 0.5)];
        let q = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let dense = model.layers().iter().filter_map(|l| match l {
            Layer::Dense(d) => Some(d.weight()),
            _ => None,
        });
        let coded = q.qlayers().iter().filter_map(|l| match l {
            QLayer::Dense { w, .. } => Some(w),
            _ => None,
        });
        let mut layers = 0;
        for (weight, w) in dense.zip(coded) {
            let p = QuantParams::for_weights(weight.max_abs());
            let scalar: Vec<i8> = weight.data().iter().map(|&v| p.quantize_i8(v)).collect();
            let codes: Vec<i8> = (w.sign.iter().zip(&w.mag))
                .map(|(&s, &m)| s * m as i8)
                .collect();
            assert_eq!(codes, scalar);
            layers += 1;
        }
        assert_eq!(layers, 3);
    }

    #[test]
    #[should_panic(expected = "bad scale")]
    fn nan_scale_rejected() {
        let _ = QuantParams::from_scale(f32::NAN);
    }
}
