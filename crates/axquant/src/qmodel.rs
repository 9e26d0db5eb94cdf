//! Quantization and the public int8-model API.
//!
//! [`QuantModel`] mirrors a float [`Sequential`] in 8-bit fixed point:
//! [`QuantModel::from_float`] calibrates and quantizes, and the inference
//! entry points ([`QuantModel::forward_with`] and friends) are thin
//! wrappers over the compiled execution engine in [`crate::plan`] /
//! [`crate::exec`].

use axdata::Dataset;
use axmul::kernel::MulKernel;
use axnn::layer::Layer;
use axnn::model::Sequential;
use axtensor::stats::Outcomes;
use axtensor::Tensor;
use axutil::AxError;

use crate::placement::Placement;
use crate::qlevel::QLevel;

/// Quantized weights of one conv/dense layer, stored sign/magnitude so
/// magnitudes can be fed straight to an unsigned 8x8 multiplier — the
/// paper's configuration ("state-of-the-art *unsigned* approximate
/// multipliers").
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QWeights {
    pub(crate) sign: Vec<i8>, // +1 or -1
    pub(crate) mag: Vec<u8>,  // |w| quantized, <= 127
    /// The largest entry of `mag`: the last LUT row the layer reads.
    pub(crate) max_mag: u8,
    pub(crate) bias_q: Vec<i32>,
    /// requant multiplier `s_w * s_in / s_out`; `None` for the final layer
    /// (output dequantized to f32 instead).
    pub(crate) requant: Option<f32>,
    /// dequantization scale `s_w * s_in` for the final layer.
    pub(crate) dequant: f32,
    /// largest activation code of the output (`2^a - 1` as f32).
    pub(crate) act_qmax: f32,
}

impl QWeights {
    fn build(
        weight: &Tensor,
        bias: &Tensor,
        in_scale: f32,
        out_scale: Option<f32>,
        level: QLevel,
    ) -> Self {
        let wp = level.weight_params(weight.max_abs());
        let wmax = level.weight_qmax();
        let q: Vec<i8> = weight
            .data()
            .iter()
            .map(|&v| (v / wp.scale()).round().clamp(-wmax as f32, wmax as f32) as i8)
            .collect();
        let sign: Vec<i8> = q.iter().map(|&v| if v < 0 { -1 } else { 1 }).collect();
        let mag: Vec<u8> = q.iter().map(|&v| v.unsigned_abs()).collect();
        let prod_scale = wp.scale() * in_scale;
        let bias_q: Vec<i32> = bias
            .data()
            .iter()
            .map(|&b| (b / prod_scale).round() as i32)
            .collect();
        QWeights {
            sign,
            max_mag: mag.iter().copied().max().unwrap_or(0),
            mag,
            bias_q,
            requant: out_scale.map(|s| prod_scale / s),
            dequant: prod_scale,
            act_qmax: level.act_qmax() as f32,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum QLayer {
    Conv {
        w: QWeights,
        out_c: usize,
        in_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
    },
    Dense {
        w: QWeights,
        out_dim: usize,
        in_dim: usize,
    },
    AvgPool {
        k: usize,
    },
    Flatten,
}

/// An 8-bit fixed-point mirror of a float [`Sequential`].
///
/// Built once from the float model plus a calibration set; evaluated with
/// any [`MulKernel`]. The same `QuantModel` therefore serves as the
/// quantized accurate DNN (exact kernel) and as every AxDNN (LUT kernels).
///
/// Inference runs through a compiled [`QPlan`](crate::plan::QPlan); for
/// repeated or multi-kernel evaluation build the plan once with
/// [`QuantModel::plan`] and use its batch API.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantModel {
    name: String,
    placement: Placement,
    level: QLevel,
    input_scale: f32,
    input_qmax: f32,
    qlayers: Vec<QLayer>,
}

impl QuantModel {
    /// Quantizes a float model.
    ///
    /// `calib` images (float `[C, H, W]` in `[0, 1]`) are run through the
    /// float model to pick per-layer activation scales (max-abs
    /// calibration). The supported topology is the paper's: every conv and
    /// every non-final dense layer is immediately followed by ReLU, pools
    /// are average pools, and the network ends in a dense layer producing
    /// logits.
    ///
    /// # Errors
    ///
    /// Returns [`AxError::Config`] for unsupported topologies, when
    /// `calib` is empty, and when a calibration image's dims differ from
    /// the first one's.
    pub fn from_float(
        model: &Sequential,
        calib: &[Tensor],
        placement: Placement,
    ) -> Result<Self, AxError> {
        Self::from_float_with_level(model, calib, placement, QLevel::INT8)
    }

    /// Like [`QuantModel::from_float`] with an explicit quantization
    /// level — the `Qlevel` input of the paper's Algorithm 1.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuantModel::from_float`].
    pub fn from_float_with_level(
        model: &Sequential,
        calib: &[Tensor],
        placement: Placement,
        level: QLevel,
    ) -> Result<Self, AxError> {
        if calib.is_empty() {
            return Err(AxError::config("calibration set is empty"));
        }
        let dims = calib[0].dims();
        if let Some(i) = calib.iter().position(|x| x.dims() != dims) {
            return Err(AxError::config(format!(
                "calibration image {i} has dims {:?}, not image 0's {dims:?}",
                calib[i].dims()
            )));
        }
        // Calibrate: every layer output's max-abs activation over the set.
        let out_max = model.plan(dims).layer_max_abs(calib.len(), |i| &calib[i]);
        Self::from_out_max(model, &out_max, placement, level)
    }

    /// Quantizes `model` given `out_max[i]`, the calibrated max-abs of
    /// layer `i`'s output.
    fn from_out_max(
        model: &Sequential,
        out_max: &[f32],
        placement: Placement,
        level: QLevel,
    ) -> Result<Self, AxError> {
        let layers = model.layers();
        let input_qmax = level.act_qmax() as f32;
        let input_scale = 1.0 / input_qmax;
        let mut qlayers = Vec::new();
        let mut in_scale = input_scale;
        let mut i = 0;
        while i < layers.len() {
            match &layers[i] {
                Layer::Conv2d(c) => {
                    // Conv must be followed by ReLU (the paper's nets are).
                    if !matches!(layers.get(i + 1), Some(Layer::Relu)) {
                        return Err(AxError::config(format!(
                            "conv at layer {i} is not followed by relu"
                        )));
                    }
                    let post_relu_max = out_max[i + 1];
                    let out_scale = level.act_params(post_relu_max).scale();
                    let dims = c.weight().dims();
                    qlayers.push(QLayer::Conv {
                        w: QWeights::build(c.weight(), c.bias(), in_scale, Some(out_scale), level),
                        out_c: dims[0],
                        in_c: dims[1],
                        k: dims[2],
                        stride: c.stride(),
                        pad: c.pad(),
                    });
                    in_scale = out_scale;
                    i += 2; // skip the fused relu
                }
                Layer::Dense(d) => {
                    let is_final = i + 1 == layers.len();
                    let fused_relu = matches!(layers.get(i + 1), Some(Layer::Relu));
                    if !is_final && !fused_relu {
                        return Err(AxError::config(format!(
                            "dense at layer {i} is neither final nor followed by relu"
                        )));
                    }
                    let dims = d.weight().dims();
                    if is_final {
                        qlayers.push(QLayer::Dense {
                            w: QWeights::build(d.weight(), d.bias(), in_scale, None, level),
                            out_dim: dims[0],
                            in_dim: dims[1],
                        });
                        i += 1;
                    } else {
                        let post_relu_max = out_max[i + 1];
                        let out_scale = level.act_params(post_relu_max).scale();
                        qlayers.push(QLayer::Dense {
                            w: QWeights::build(
                                d.weight(),
                                d.bias(),
                                in_scale,
                                Some(out_scale),
                                level,
                            ),
                            out_dim: dims[0],
                            in_dim: dims[1],
                        });
                        in_scale = out_scale;
                        i += 2;
                    }
                }
                Layer::AvgPool(p) => {
                    qlayers.push(QLayer::AvgPool { k: p.k() });
                    i += 1;
                }
                Layer::Flatten => {
                    qlayers.push(QLayer::Flatten);
                    i += 1;
                }
                Layer::Relu => {
                    return Err(AxError::config(format!(
                        "relu at layer {i} does not follow a conv/dense layer"
                    )));
                }
            }
        }
        match qlayers.last() {
            Some(QLayer::Dense { w, .. }) if w.requant.is_none() => {}
            _ => return Err(AxError::config("network must end in a dense logits layer")),
        }
        Ok(QuantModel {
            name: format!("{}-{level}", model.name()),
            placement,
            level,
            input_scale,
            input_qmax,
            qlayers,
        })
    }

    /// The quantization level.
    pub fn level(&self) -> QLevel {
        self.level
    }

    /// The model name (float name + `-q8`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The approximation placement policy.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The quantized layer stack (consumed by the plan compiler).
    pub(crate) fn qlayers(&self) -> &[QLayer] {
        &self.qlayers
    }

    /// Largest input activation code, as f32.
    pub(crate) fn input_qmax(&self) -> f32 {
        self.input_qmax
    }

    /// Dequantization scale of the input codes (`1 / input_qmax`) — the
    /// anchor of the per-layer scale chain the fine-tuning backward
    /// reconstructs (see [`crate::qtrain`]).
    pub(crate) fn input_scale(&self) -> f32 {
        self.input_scale
    }

    /// Runs quantized inference with the given multiplier kernel and
    /// returns float logits.
    ///
    /// Compiles a fresh [`QPlan`](crate::plan::QPlan) per call; for hot
    /// paths build the plan once and reuse it (and its scratch) instead.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the expected input layout.
    pub fn forward_with<K: MulKernel + ?Sized>(&self, x: &Tensor, kernel: &K) -> Tensor {
        let plan = self.plan(x.dims());
        let mut scratch = plan.scratch_for(1);
        plan.forward_one(&mut scratch, x, kernel)
    }

    /// Predicted class under the given kernel.
    ///
    /// # Panics
    ///
    /// Same conditions as [`QuantModel::forward_with`].
    pub fn predict_with<K: MulKernel + ?Sized>(&self, x: &Tensor, kernel: &K) -> usize {
        self.forward_with(x, kernel).argmax()
    }

    /// Accuracy over (up to `max_n` examples of) a dataset, evaluated by
    /// the batched engine in parallel image chunks and scored through
    /// [`Outcomes`].
    ///
    /// # Panics
    ///
    /// Panics if the evaluated sample is empty (`data` has no examples or
    /// `max_n == 0`): the one empty-set rule of [`Outcomes`].
    pub fn accuracy_with<K: MulKernel + ?Sized>(
        &self,
        data: &Dataset,
        kernel: &K,
        max_n: usize,
    ) -> f32 {
        let n = data.len().min(max_n);
        Outcomes::assert_sample(n);
        let plan = self.plan(data.image(0).dims());
        let preds = plan.predict_batch_indexed(n, |i| data.image(i), &[kernel]);
        Outcomes::new(n, 1, |i, _| preds[i][0], |i| data.label(i)).accuracy(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn::layer::{AvgPool2d, Conv2d, Dense};
    use axnn::{reference, zoo};
    use axutil::rng::Rng;

    /// Nine random calibration images of shape `dims` in `[0, 1]`.
    fn images(dims: &[usize], rng: &mut Rng) -> Vec<Tensor> {
        let mut t = Tensor::zeros(dims);
        let mut next = || {
            rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
            t.clone()
        };
        (0..9).map(|_| next()).collect()
    }

    /// Calibration on the plan is the seed trace's: `FPlan::layer_max_abs`
    /// equals the running max-abs of every layer output
    /// `reference::forward_trace` records, through `to_bits`, and the
    /// quantized model equals one built from those reference scales. On
    /// the FFNN, LeNet-5, a padded conv + pool stack and a strided conv,
    /// at every set size from 1 to 9 (partial, full and several blocks).
    #[test]
    fn calibration_matches_the_seed_trace() {
        let rng = &mut Rng::seed_from_u64(0x0CA1);
        let padded = Sequential::new(
            "padded",
            vec![
                Layer::Conv2d(Conv2d::new(2, 3, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::AvgPool(AvgPool2d::new(2)),
                Layer::Conv2d(Conv2d::new(3, 2, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 4 * 4, 4, rng)),
            ],
        );
        let strided = Sequential::new(
            "strided",
            vec![
                Layer::Conv2d(Conv2d::new(2, 3, 3, 2, 1, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 4 * 4, 4, rng)),
            ],
        );
        let cases = [
            (zoo::ffnn(rng), images(&[1, 28, 28], rng)),
            (zoo::lenet5(rng), images(&[1, 28, 28], rng)),
            (padded, images(&[2, 8, 8], rng)),
            (strided, images(&[2, 8, 8], rng)),
        ];
        for (model, calib) in &cases {
            let plan = model.plan(calib[0].dims());
            let mut out_max = vec![0.0f32; model.layers().len()];
            for n in 1..=calib.len() {
                let (inputs, logits) = reference::forward_trace(model, &calib[n - 1]);
                for (m, out) in out_max.iter_mut().zip(inputs[1..].iter().chain([&logits])) {
                    *m = m.max(out.max_abs());
                }
                let bits = |v: &[f32]| v.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
                let got = plan.layer_max_abs(n, |i| &calib[i]);
                assert_eq!(bits(&got), bits(&out_max), "{} n {n}", model.name());
                let want = QuantModel::from_out_max(model, &out_max, Placement::All, QLevel::INT8);
                let got = QuantModel::from_float(model, &calib[..n], Placement::All);
                assert_eq!(got.unwrap(), want.unwrap(), "{} n {n}", model.name());
            }
        }
    }
}
