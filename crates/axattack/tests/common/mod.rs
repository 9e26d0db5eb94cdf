//! Shared fixtures for the axattack property suites (`prop_craft_batch`,
//! `prop_universal`): one random-model factory and a matching image
//! generator, and the `AXDNN_THREADS` sweep.

use axnn::layer::{AvgPool2d, Conv2d, Dense, Layer};
use axnn::model::Sequential;
use axtensor::Tensor;
use axutil::parallel::with_threads;
use axutil::rng::Rng;

/// The thread counts every batch is crafted under.
const THREADS: [usize; 4] = [1, 2, 3, 7];

/// The input shape every fixture model accepts.
pub const IN_DIMS: [usize; 3] = [1, 8, 8];

/// A small random model: dense-only, plain conv, or conv+pool.
pub fn small_model(arch: usize, seed: u64) -> Sequential {
    let rng = &mut Rng::seed_from_u64(seed);
    match arch % 3 {
        0 => Sequential::new(
            "c-ffnn",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(64, 12, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(12, 4, rng)),
            ],
        ),
        1 => Sequential::new(
            "c-conv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 6 * 6, 4, rng)),
            ],
        ),
        _ => Sequential::new(
            "c-convpool",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::AvgPool(AvgPool2d::new(2)),
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 4 * 4, 4, rng)),
            ],
        ),
    }
}

/// `n` random probe images of shape [`IN_DIMS`], inside `[0.1, 0.9]`.
pub fn images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t = Tensor::zeros(&IN_DIMS);
            rng.fill_range_f32(t.data_mut(), 0.1, 0.9);
            t
        })
        .collect()
}

/// Runs `f(threads)` under every [`THREADS`] count, each pinned with
/// [`with_threads`], stopping at the first error.
pub fn under_threads(mut f: impl FnMut(usize) -> Result<(), String>) -> Result<(), String> {
    THREADS
        .into_iter()
        .try_for_each(|threads| with_threads(threads, || f(threads)))
}
