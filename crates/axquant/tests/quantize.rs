//! Public-API tests for quantization ([`QuantModel::from_float`]) and the
//! thin inference wrappers. Engine-internal behaviour is covered by the
//! unit tests in `plan.rs` / `exec.rs` and the `prop_qforward` property
//! tests.

use axdata::mnist::{MnistConfig, SynthMnist};
use axmul::kernel::ExactMul;
use axnn::layer::{Conv2d, Dense, Layer};
use axnn::model::Sequential;
use axnn::zoo;
use axquant::{Placement, QLevel, QuantModel};
use axtensor::Tensor;
use axutil::rng::Rng;
use axutil::AxError;

fn calib_images(n: usize, dims: &[usize], seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t = Tensor::zeros(dims);
            rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
            t
        })
        .collect()
}

#[test]
fn final_dense_only_model_matches_float_logits() {
    // flatten -> dense(4 -> 3): quantized logits must approximate the
    // float logits to within a few LSBs of the involved scales.
    let mut rng = Rng::seed_from_u64(1);
    let model = Sequential::new(
        "lin",
        vec![Layer::Flatten, Layer::Dense(Dense::new(4, 3, &mut rng))],
    );
    let calib = calib_images(8, &[1, 2, 2], 2);
    let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
    for img in calib_images(5, &[1, 2, 2], 3) {
        let fl = model.forward(&img);
        let ql = qm.forward_with(&img, &ExactMul);
        for (a, b) in fl.data().iter().zip(ql.data()) {
            assert!((a - b).abs() < 0.05, "float {a} vs quant {b}");
        }
    }
}

#[test]
fn lenet_quantization_preserves_predictions_mostly() {
    let model = zoo::lenet5(&mut Rng::seed_from_u64(4));
    let calib = calib_images(6, &[1, 28, 28], 5);
    let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
    let mut agree = 0;
    let probes = calib_images(10, &[1, 28, 28], 6);
    for img in &probes {
        if model.predict(img) == qm.predict_with(img, &ExactMul) {
            agree += 1;
        }
    }
    // Untrained logits are small; quantization noise may flip a few.
    assert!(agree >= 6, "only {agree}/10 predictions agree");
}

#[test]
fn unsupported_topologies_are_rejected() {
    let mut rng = Rng::seed_from_u64(14);
    // Conv not followed by relu.
    let bad1 = Sequential::new(
        "bad1",
        vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, &mut rng)),
            Layer::Flatten,
            Layer::Dense(Dense::new(2 * 4 * 4, 2, &mut rng)),
        ],
    );
    let calib = calib_images(2, &[1, 4, 4], 15);
    assert!(QuantModel::from_float(&bad1, &calib, Placement::ConvOnly).is_err());
    // Network not ending in dense.
    let bad2 = Sequential::new("bad2", vec![Layer::Flatten]);
    assert!(QuantModel::from_float(&bad2, &calib, Placement::ConvOnly).is_err());
    // Empty calibration set.
    let ok_model = Sequential::new(
        "ok",
        vec![Layer::Flatten, Layer::Dense(Dense::new(16, 2, &mut rng))],
    );
    assert!(QuantModel::from_float(&ok_model, &[], Placement::ConvOnly).is_err());
}

#[test]
fn lower_qlevel_degrades_gracefully() {
    let model = zoo::lenet5(&mut Rng::seed_from_u64(20));
    let calib = calib_images(4, &[1, 28, 28], 21);
    let q8 = QuantModel::from_float_with_level(&model, &calib, Placement::ConvOnly, QLevel::INT8)
        .unwrap();
    let q4 =
        QuantModel::from_float_with_level(&model, &calib, Placement::ConvOnly, QLevel::new(4, 4))
            .unwrap();
    assert_eq!(q8.level(), QLevel::INT8);
    assert_eq!(q4.level().to_string(), "w4a4");
    let img = &calib[0];
    let l8 = q8.forward_with(img, &ExactMul);
    let l4 = q4.forward_with(img, &ExactMul);
    assert!(l4.data().iter().all(|v| v.is_finite()));
    // 4-bit logits differ from 8-bit logits (coarser codes).
    assert_ne!(l8, l4);
    // And the float reference is closer to 8-bit than to 4-bit.
    let fl = model.forward(img);
    let d8 = fl.l2_dist(&l8);
    let d4 = fl.l2_dist(&l4);
    assert!(
        d8 <= d4,
        "w8a8 should track float at least as well: {d8} vs {d4}"
    );
}

#[test]
fn accuracy_with_evaluates_a_real_sample() {
    let data = SynthMnist::generate(&MnistConfig {
        n: 12,
        seed: 70,
        ..Default::default()
    });
    let model = zoo::ffnn(&mut Rng::seed_from_u64(71));
    let calib = calib_images(4, &[1, 28, 28], 72);
    let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
    let acc = qm.accuracy_with(&data, &ExactMul, 12);
    assert!((0.0..=1.0).contains(&acc));
}

#[test]
#[should_panic(expected = "non-empty sample")]
fn accuracy_with_rejects_empty_sample() {
    let data = SynthMnist::generate(&MnistConfig {
        n: 12,
        seed: 70,
        ..Default::default()
    });
    let model = zoo::ffnn(&mut Rng::seed_from_u64(71));
    let calib = calib_images(4, &[1, 28, 28], 72);
    let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
    // max_n == 0 used to silently return 0.0; now it must panic.
    let _ = qm.accuracy_with(&data, &ExactMul, 0);
}

#[test]
fn calibration_images_of_another_shape_are_rejected() {
    let model = zoo::ffnn(&mut Rng::seed_from_u64(30));
    let mut calib = calib_images(1, &[1, 28, 28], 31);
    calib.push(calib[0].reshaped(&[784]));
    let err = QuantModel::from_float(&model, &calib, Placement::All).unwrap_err();
    assert!(
        matches!(err, AxError::Config(_)) && err.to_string().contains("image 1"),
        "{err}"
    );
}
