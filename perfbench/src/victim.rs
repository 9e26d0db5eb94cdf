//! The trained, quantized LeNet-5 victim shared by `paper-grid`,
//! `fault-campaign` and `serve-open`, and the inputs every workload draws
//! from its `--seed`.

use axdata::mnist::{MnistConfig, SynthMnist};
use axdata::Dataset;
use axnn::train::{fit, TrainConfig};
use axnn::{zoo, Layer, Sequential};
use axquant::{Placement, QuantModel};
use axrobust::experiments::quantize_victim;
use axutil::rng::Rng;

use crate::trace::Tracer;

/// Mini-batch size of every training call in the benchmark.
pub const BATCH: usize = 32;
/// Steps of the paper-default PGD attack ([`axattack::suite::AttackId::build`]).
pub const PGD_STEPS: usize = 10;

const LENET_TRAIN: usize = 320;
const LENET_TEST: usize = 256;
const LENET_EPOCHS: usize = 2;

/// A per-purpose seed derived from the workload seed, so every input the
/// engines see comes from `--seed` alone.
pub fn stream(seed: u64, purpose: u64) -> u64 {
    Rng::seed_from_u64(seed).derive(purpose).next_u64()
}

/// Generates `n` synthetic MNIST images from `seed` (an `axdata` span).
pub fn synth_mnist(n: usize, seed: u64, tr: &mut Tracer) -> Dataset {
    tr.span("axdata.generate", || {
        SynthMnist::generate(&MnistConfig {
            n,
            seed,
            ..Default::default()
        })
    })
}

/// LeNet-5 trained on synthetic MNIST and quantized with approximation in
/// the conv layers only (the paper's Fig. 4 victim).
#[derive(Debug, PartialEq)]
pub struct Victim {
    pub model: Sequential,
    pub qm: QuantModel,
    pub train: Dataset,
    pub test: Dataset,
}

impl Victim {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let train = synth_mnist(LENET_TRAIN, stream(seed, 1), tr);
        let test = synth_mnist(LENET_TEST, stream(seed, 2), tr);
        let mut model = zoo::lenet5(&mut Rng::seed_from_u64(stream(seed, 3)));
        let cfg = TrainConfig {
            epochs: LENET_EPOCHS,
            batch_size: BATCH,
            seed: stream(seed, 4),
            ..Default::default()
        };
        tr.span("axnn.fit", || fit(&mut model, &train, &cfg));
        let qm = tr.span("axquant.quantize", || {
            quantize_victim(&model, &train, Placement::ConvOnly).expect("LeNet-5 quantizes")
        });
        Victim {
            model,
            qm,
            train,
            test,
        }
    }
}

/// Multiply-accumulates per image that run through the approximate
/// multiplier under `placement`, computed from the layer shapes.
pub fn lut_macs_per_image(model: &Sequential, in_dims: &[usize], placement: Placement) -> f64 {
    let mut dims = in_dims.to_vec();
    let mut macs = 0usize;
    for layer in model.layers() {
        match layer {
            Layer::Conv2d(c) => {
                let w = c.weight().dims();
                let (out_c, in_c, k) = (w[0], w[1], w[2]);
                let oh = (dims[1] + 2 * c.pad() - k) / c.stride() + 1;
                let ow = (dims[2] + 2 * c.pad() - k) / c.stride() + 1;
                if placement.applies_to_conv() {
                    macs += out_c * oh * ow * in_c * k * k;
                }
                dims = vec![out_c, oh, ow];
            }
            Layer::Dense(d) => {
                let w = d.weight().dims();
                if placement.applies_to_dense() {
                    macs += w[0] * w[1];
                }
                dims = vec![w[0]];
            }
            Layer::AvgPool(p) => dims = vec![dims[0], dims[1] / p.k(), dims[2] / p.k()],
            Layer::Flatten => dims = vec![dims.iter().product()],
            Layer::Relu => {}
        }
    }
    macs as f64
}

/// Training batches per epoch over `n` examples.
pub fn batches_per_epoch(n: usize) -> f64 {
    n.div_ceil(BATCH) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet_conv_macs_match_the_layer_shapes() {
        let lenet = zoo::lenet5(&mut Rng::seed_from_u64(0));
        // conv1 6x24x24x25 + conv2 16x8x8x150 + conv3 120x1x1x256.
        let conv = 86_400.0 + 153_600.0 + 30_720.0;
        assert_eq!(
            lut_macs_per_image(&lenet, &[1, 28, 28], Placement::ConvOnly),
            conv
        );
        assert_eq!(
            lut_macs_per_image(&lenet, &[1, 28, 28], Placement::All),
            conv + 120.0 * 84.0 + 84.0 * 10.0
        );
    }
}
