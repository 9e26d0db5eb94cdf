//! Shared fixtures for the axnn property suites (`prop_fplan`,
//! `prop_train`, `prop_kernels`): one random-model factory covering every
//! engine path,
//! and a matching image generator. Keeping them in one place means a new
//! layer type or geometry case widens every suite at once.

use axnn::layer::{AvgPool2d, Conv2d, Dense, Layer};
use axnn::model::{GradBuffer, Sequential};
use axtensor::Tensor;
use axutil::rng::Rng;

/// The input shape every fixture model accepts.
pub const IN_DIMS: [usize; 3] = [2, 8, 8];

/// Conv geometries spanning k ∈ {1, 3, 5} with stride/pad combinations,
/// each on [`IN_DIMS`]: `(k, stride, pad, out_hw)`.
const GEOMETRIES: [(usize, usize, usize, usize); 5] = [
    (1, 1, 0, 8),
    (3, 1, 1, 8),
    (3, 2, 1, 4),
    (5, 1, 2, 8),
    (5, 2, 0, 2),
];

/// How many shapes [`small_model`] builds.
pub const ARCHS: usize = 5 + GEOMETRIES.len();

/// A small random model of one of [`ARCHS`] shapes that together cover
/// every engine path: dense-only, conv without padding, conv+pad+avgpool,
/// a strided padded conv (the input gradient's clamped tap ranges),
/// LeNet's shape in miniature, whose flattening conv has a 1×1 output and
/// back-propagates into the conv below it, and one conv + relu + dense
/// head per entry of [`GEOMETRIES`].
pub fn small_model(arch: usize, seed: u64) -> Sequential {
    let rng = &mut Rng::seed_from_u64(seed);
    match arch % ARCHS {
        0 => Sequential::new(
            "p-ffnn",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(128, 16, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(16, 4, rng)),
            ],
        ),
        1 => Sequential::new(
            "p-conv",
            vec![
                Layer::Conv2d(Conv2d::new(2, 3, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 6 * 6, 4, rng)),
            ],
        ),
        2 => Sequential::new(
            "p-convpool",
            vec![
                Layer::Conv2d(Conv2d::new(2, 3, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::AvgPool(AvgPool2d::new(2)),
                Layer::Conv2d(Conv2d::new(3, 2, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 4 * 4, 4, rng)),
            ],
        ),
        3 => Sequential::new(
            "p-strided",
            vec![
                Layer::Conv2d(Conv2d::new(2, 3, 3, 2, 1, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 4 * 4, 4, rng)),
            ],
        ),
        4 => Sequential::new(
            "p-lenet",
            vec![
                Layer::Conv2d(Conv2d::new(2, 3, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::AvgPool(AvgPool2d::new(2)),
                Layer::Conv2d(Conv2d::new(3, 5, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(5, 4, rng)),
            ],
        ),
        geo => {
            let (k, stride, pad, out_hw) = GEOMETRIES[geo - 5];
            Sequential::new(
                "p-geo",
                vec![
                    Layer::Conv2d(Conv2d::new(2, 3, k, stride, pad, rng)),
                    Layer::Relu,
                    Layer::Flatten,
                    Layer::Dense(Dense::new(3 * out_hw * out_hw, 4, rng)),
                ],
            )
        }
    }
}

/// `n` random probe images of shape [`IN_DIMS`].
pub fn images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t = Tensor::zeros(&IN_DIMS);
            rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
            t
        })
        .collect()
}

/// Every gradient value's bit pattern, in buffer order: the suites'
/// "bit-exact" comparisons. `==` on floats equates `-0.0` with `+0.0`
/// and never matches NaN; the bits do neither.
pub fn grad_bits(g: &GradBuffer) -> Vec<u32> {
    g.layers
        .iter()
        .flatten()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}
