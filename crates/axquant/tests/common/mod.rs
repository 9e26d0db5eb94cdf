//! Shared fixtures for the axquant hardening suites (`prop_finetune`,
//! `prop_universal_train`): one random-model factory in the quantizable
//! topology and the calibration sample.

use axdata::Dataset;
use axnn::layer::{AvgPool2d, Conv2d, Dense, Layer};
use axnn::model::Sequential;
use axtensor::Tensor;
use axutil::rng::Rng;

/// The input shape every fixture model accepts.
pub const IN_DIMS: [usize; 3] = [1, 8, 8];

/// How many shapes [`small_model`] builds.
pub const ARCHS: usize = 4;

/// A small random model in the quantizable topology (conv/dense followed
/// by relu, final dense producing logits). The two-conv shape is the one
/// whose STE backward runs a conv input gradient (a strided, padded one):
/// elsewhere the backward stops at the lowest parameterised layer.
pub fn small_model(arch: usize, seed: u64) -> Sequential {
    let rng = &mut Rng::seed_from_u64(seed);
    match arch % ARCHS {
        0 => Sequential::new(
            "q-ffnn",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(64, 12, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(12, 4, rng)),
            ],
        ),
        1 => Sequential::new(
            "q-conv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 6 * 6, 4, rng)),
            ],
        ),
        2 => Sequential::new(
            "q-convpool",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::AvgPool(AvgPool2d::new(2)),
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 4 * 4, 4, rng)),
            ],
        ),
        _ => Sequential::new(
            "q-twoconv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::AvgPool(AvgPool2d::new(2)),
                Layer::Conv2d(Conv2d::new(2, 3, 3, 2, 1, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 2 * 2, 4, rng)),
            ],
        ),
    }
}

/// The first `n` images of `data`: the calibration sample.
pub fn calib_of(data: &Dataset, n: usize) -> Vec<Tensor> {
    (0..n.min(data.len()))
        .map(|i| data.image(i).clone())
        .collect()
}
