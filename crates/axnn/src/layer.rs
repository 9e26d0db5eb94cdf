//! Network layers: parameters and geometry.
//!
//! A [`Layer`] describes one step of a model (`[C, H, W]` feature maps or
//! `[N]` vectors per image) and owns its weights; it does not run.
//! Execution, batched over blocks of images, is the compiled
//! [`FPlan`](crate::plan::FPlan). The seed per-image loops the plan
//! replaced live in `axnn::reference`, and this module's tests check
//! their gradients against finite differences.

use axtensor::Tensor;
use axutil::rng::Rng;

use crate::init::he_normal;

/// A 2-D convolution layer (`[in_c, h, w] -> [out_c, oh, ow]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    weight: Tensor, // [out_c, in_c, kh, kw]
    bias: Tensor,   // [out_c]
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// Creates a He-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized configuration.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(in_c > 0 && out_c > 0 && kernel > 0 && stride > 0);
        let fan_in = in_c * kernel * kernel;
        Conv2d {
            weight: he_normal(&[out_c, in_c, kernel, kernel], fan_in, rng),
            bias: Tensor::zeros(&[out_c]),
            stride,
            pad,
        }
    }

    /// Builds from explicit parameters (deserialization, tests).
    ///
    /// # Panics
    ///
    /// Panics unless `weight` is a 4-D `[out_c, in_c, k, k]` tensor with a
    /// square kernel, `bias` has `out_c` entries and `stride >= 1` — the
    /// checks [`crate::serialize::model_from_bytes`] makes on its input.
    pub fn from_parts(weight: Tensor, bias: Tensor, stride: usize, pad: usize) -> Self {
        assert_eq!(weight.shape().rank(), 4, "conv weight must be 4-D");
        assert_eq!(bias.len(), weight.dims()[0], "bias/out_c mismatch");
        assert_eq!(weight.dims()[2], weight.dims()[3], "square kernels only");
        assert!(stride >= 1, "conv stride must be at least 1");
        Conv2d {
            weight,
            bias,
            stride,
            pad,
        }
    }

    /// The `[out_c, in_c, kh, kw]` weights.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The `[out_c]` bias.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The zero-padding on each border.
    pub fn pad(&self) -> usize {
        self.pad
    }
}

/// A fully connected layer (`[in] -> [out]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weight: Tensor, // [out, in]
    bias: Tensor,   // [out]
}

impl Dense {
    /// Creates a He-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        assert!(in_dim > 0 && out_dim > 0);
        Dense {
            weight: he_normal(&[out_dim, in_dim], in_dim, rng),
            bias: Tensor::zeros(&[out_dim]),
        }
    }

    /// Builds from explicit parameters.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.shape().rank(), 2, "dense weight must be 2-D");
        assert_eq!(bias.len(), weight.dims()[0]);
        Dense { weight, bias }
    }

    /// The `[out, in]` weights.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The `[out]` bias.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

/// Non-overlapping average pooling with a square window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvgPool2d {
    k: usize,
}

impl AvgPool2d {
    /// Creates a `k x k` average pool (stride `k`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0);
        AvgPool2d { k }
    }

    /// The window size.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// A network layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Fully connected.
    Dense(Dense),
    /// Average pooling.
    AvgPool(AvgPool2d),
    /// Rectified linear unit.
    Relu,
    /// Collapse `[C, H, W]` to `[C*H*W]`.
    Flatten,
}

impl Layer {
    /// A short kind name.
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Conv2d(_) => "conv2d",
            Layer::Dense(_) => "dense",
            Layer::AvgPool(_) => "avgpool",
            Layer::Relu => "relu",
            Layer::Flatten => "flatten",
        }
    }

    /// The layer's parameters (weight then bias, when present).
    pub fn params(&self) -> Vec<&Tensor> {
        match self {
            Layer::Conv2d(c) => vec![&c.weight, &c.bias],
            Layer::Dense(d) => vec![&d.weight, &d.bias],
            _ => vec![],
        }
    }

    /// Mutable parameter access (same order as [`Layer::params`]).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            Layer::Conv2d(c) => vec![&mut c.weight, &mut c.bias],
            Layer::Dense(d) => vec![&mut d.weight, &mut d.bias],
            _ => vec![],
        }
    }

    /// Zero tensors shaped like this layer's parameters.
    pub fn zero_param_grads(&self) -> Vec<Tensor> {
        self.params()
            .into_iter()
            .map(|p| Tensor::zeros(p.dims()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{layer_backward as backward, layer_forward as forward};

    /// Central-difference gradient check of `layer` at input `x`,
    /// comparing both input gradients and parameter gradients.
    fn grad_check(layer: &Layer, x: &Tensor) {
        let eps = 1e-3f32;
        // Scalar objective: weighted sum of outputs with fixed weights so
        // the objective is sensitive to every output.
        let weights: Vec<f32> = {
            let y = forward(layer, x);
            (0..y.len())
                .map(|i| ((i % 7) as f32 - 3.0) / 3.0 + 0.1)
                .collect()
        };
        let objective = |l: &Layer, xx: &Tensor| -> f32 {
            let y = forward(l, xx);
            y.data().iter().zip(&weights).map(|(&v, &w)| v * w).sum()
        };
        let y = forward(layer, x);
        let grad_out = Tensor::from_vec(weights.clone(), y.dims());
        let mut pgrads = layer.zero_param_grads();
        let dx = backward(layer, x, &grad_out, Some(&mut pgrads));

        // Input gradient check.
        for i in (0..x.len()).step_by((x.len() / 17).max(1)) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (objective(layer, &xp) - objective(layer, &xm)) / (2.0 * eps);
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs().max(ana.abs())),
                "{} input grad [{i}]: numeric {num} vs analytic {ana}",
                layer.kind()
            );
        }

        // Parameter gradient check.
        for (pi, pgrad) in pgrads.iter().enumerate() {
            let plen = layer.params()[pi].len();
            for j in (0..plen).step_by((plen / 13).max(1)) {
                let mut lp = layer.clone();
                lp.params_mut()[pi].data_mut()[j] += eps;
                let mut lm = layer.clone();
                lm.params_mut()[pi].data_mut()[j] -= eps;
                let num = (objective(&lp, x) - objective(&lm, x)) / (2.0 * eps);
                let ana = pgrad.data()[j];
                assert!(
                    (num - ana).abs() < 1e-2 * (1.0 + num.abs().max(ana.abs())),
                    "{} param {pi} grad [{j}]: numeric {num} vs analytic {ana}",
                    layer.kind()
                );
            }
        }
    }

    fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
        let mut t = Tensor::zeros(dims);
        let mut rng = Rng::seed_from_u64(seed);
        rng.fill_normal_f32(t.data_mut(), 1.0);
        t
    }

    #[test]
    fn conv_output_shape_no_pad() {
        let mut rng = Rng::seed_from_u64(0);
        let conv = Conv2d::new(1, 6, 5, 1, 0, &mut rng);
        let y = forward(&Layer::Conv2d(conv), &Tensor::zeros(&[1, 28, 28]));
        assert_eq!(y.dims(), &[6, 24, 24]);
    }

    #[test]
    fn conv_output_shape_with_pad() {
        let mut rng = Rng::seed_from_u64(0);
        let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let y = forward(&Layer::Conv2d(conv), &Tensor::zeros(&[3, 32, 32]));
        assert_eq!(y.dims(), &[8, 32, 32]);
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        // A 1x1 kernel with weight 1 and no bias is identity per channel.
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]);
        let conv = Conv2d::from_parts(w, Tensor::zeros(&[1]), 1, 0);
        let x = random_tensor(&[1, 5, 5], 1);
        let y = forward(&Layer::Conv2d(conv), &x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_known_answer_3x3() {
        // Single 2x2 input, 2x2 kernel of ones, no pad: output = sum.
        let w = Tensor::from_vec(vec![1.0; 4], &[1, 1, 2, 2]);
        let conv = Conv2d::from_parts(w, Tensor::from_vec(vec![0.5], &[1]), 1, 0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        let y = forward(&Layer::Conv2d(conv), &x);
        assert_eq!(y.dims(), &[1, 1, 1]);
        assert_eq!(y.data()[0], 10.5);
    }

    #[test]
    fn conv_gradients_check_out() {
        let mut rng = Rng::seed_from_u64(11);
        let conv = Layer::Conv2d(Conv2d::new(2, 3, 3, 1, 1, &mut rng));
        grad_check(&conv, &random_tensor(&[2, 6, 6], 2));
    }

    #[test]
    fn conv_gradients_with_stride_and_no_pad() {
        let mut rng = Rng::seed_from_u64(12);
        let conv = Layer::Conv2d(Conv2d::new(1, 2, 3, 2, 0, &mut rng));
        grad_check(&conv, &random_tensor(&[1, 7, 7], 3));
    }

    #[test]
    fn dense_forward_known_answer() {
        let w = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5], &[2, 2]);
        let b = Tensor::from_vec(vec![0.1, -0.1], &[2]);
        let d = Dense::from_parts(w, b);
        let y = forward(&Layer::Dense(d), &Tensor::from_vec(vec![3.0, 4.0], &[2]));
        assert!((y.data()[0] - (3.0 + 8.0 + 0.1)).abs() < 1e-6);
        assert!((y.data()[1] - (-3.0 + 2.0 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn dense_gradients_check_out() {
        let mut rng = Rng::seed_from_u64(13);
        let dense = Layer::Dense(Dense::new(10, 7, &mut rng));
        grad_check(&dense, &random_tensor(&[10], 4));
    }

    #[test]
    fn avgpool_forward_and_backward() {
        let pool = Layer::AvgPool(AvgPool2d::new(2));
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 4, 4]);
        let y = forward(&pool, &x);
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert_eq!(y.data()[0], (0.0 + 1.0 + 4.0 + 5.0) / 4.0);
        grad_check(&pool, &random_tensor(&[2, 4, 4], 5));
    }

    #[test]
    fn relu_and_flatten_gradients() {
        grad_check(&Layer::Relu, &random_tensor(&[3, 4, 4], 6));
        grad_check(&Layer::Flatten, &random_tensor(&[2, 3, 3], 7));
    }

    #[test]
    fn relu_zeroes_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(forward(&Layer::Relu, &x).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn params_layout_is_weight_then_bias() {
        let mut rng = Rng::seed_from_u64(14);
        let conv = Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 0, &mut rng));
        let ps = conv.params();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].shape().rank(), 4);
        assert_eq!(ps[1].shape().rank(), 1);
        assert!(Layer::Relu.params().is_empty());
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn pool_rejects_non_tiling_input() {
        let _ = forward(
            &Layer::AvgPool(AvgPool2d::new(3)),
            &Tensor::zeros(&[1, 4, 4]),
        );
    }
}
