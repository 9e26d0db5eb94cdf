//! Pins the moving-target sweep's determinism contract: the full
//! `{fixed kernel, randomized ensemble} × {clean, static PGD, adaptive
//! EOT}` grid must be **bit-identical** for any `AXDNN_THREADS`
//! setting. Kernel draws are keyed by query index, attack streams are
//! derived per image, and every evaluation rides the batched engines —
//! so chunking may never leak into the report.

use axdata::mnist::{MnistConfig, SynthMnist};
use axdata::Dataset;
use axmul::{MulColumns, Registry};
use axnn::train::{fit, TrainConfig};
use axnn::zoo;
use axnn::Sequential;
use axquant::{Placement, QuantModel};
use axrobust::mtd::{mtd_robustness_sweep, MtdSweepOpts};
use axtensor::Tensor;
use axutil::parallel::with_threads;
use axutil::rng::Rng;

fn quick_setup() -> (Sequential, QuantModel, Dataset) {
    let train = SynthMnist::generate(&MnistConfig {
        n: 300,
        seed: 81,
        ..Default::default()
    });
    let test = SynthMnist::generate(&MnistConfig {
        n: 40,
        seed: 82,
        ..Default::default()
    });
    let mut model = zoo::ffnn(&mut Rng::seed_from_u64(83));
    fit(
        &mut model,
        &train,
        &TrainConfig {
            epochs: 2,
            lr: 0.1,
            ..Default::default()
        },
    );
    let calib: Vec<Tensor> = (0..16).map(|i| train.image(i).clone()).collect();
    let q = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
    (model, q, test)
}

#[test]
fn mtd_sweep_is_thread_invariant() {
    let (model, q, test) = quick_setup();
    let cols = MulColumns::from_registry(&Registry::standard(), &["1JFF", "17KS", "L40"]);
    let opts = MtdSweepOpts {
        n_eval: 16,
        samples: 2,
        ..Default::default()
    };
    let sweep = || mtd_robustness_sweep(&model, &q, &cols, &test, &opts).unwrap();
    let golden = with_threads(1, sweep);
    assert_eq!(golden.rows.len(), 3);
    for threads in [2, 3, 7] {
        assert_eq!(
            with_threads(threads, sweep),
            golden,
            "moving-target report diverges at {threads} threads"
        );
    }
}
