//! Pins the moving-target ensemble's degenerate reductions and
//! determinism contract:
//!
//! 1. A **single-kernel ensemble** answers every query exactly like the
//!    fixed [`QuantModel`] path — same class per image, bit for bit.
//! 2. A multi-kernel ensemble equals the per-query reference "sample
//!    the kernel for query `i`, then run the fixed path under it" —
//!    the grouped batched passes are a pure optimization.
//! 3. Predictions are identical across `AXDNN_THREADS` {1, 2, 3, 7}:
//!    kernel choice is keyed by query index, never by chunking.
//! 4. A batch whose images disagree in shape panics, even when the
//!    lengths agree.

use axmul::{MulColumns, Registry};
use axquant::{EnsembleModel, KernelPolicy, Placement, QuantModel};
use axtensor::Tensor;
use axutil::parallel::with_threads;
use axutil::rng::Rng;

fn images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t = Tensor::zeros(&[1, 28, 28]);
            rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
            t
        })
        .collect()
}

fn victim() -> QuantModel {
    let model = axnn::zoo::ffnn(&mut Rng::seed_from_u64(5));
    let calib = images(8, 6);
    QuantModel::from_float(&model, &calib, Placement::All).unwrap()
}

#[test]
fn single_kernel_ensemble_is_bitwise_the_fixed_path() {
    let qm = victim();
    let cols = MulColumns::from_registry(&Registry::standard(), &["L40"]);
    let ensemble = EnsembleModel::new(&qm, &cols, KernelPolicy::uniform(1, 0x0F1));
    let imgs = images(13, 7);
    let got = ensemble.predict_batch(imgs.len(), |i| &imgs[i]);
    let want: Vec<usize> = imgs
        .iter()
        .map(|x| qm.predict_with(x, cols.payload(0)))
        .collect();
    assert_eq!(got, want, "one kernel == the fixed QuantModel path");
}

#[test]
fn ensemble_matches_per_query_fixed_reference() {
    let qm = victim();
    let cols = MulColumns::from_registry(&Registry::standard(), &["1JFF", "17KS", "L40"]);
    let policy = KernelPolicy::uniform(3, 0xE27);
    let ensemble = EnsembleModel::new(&qm, &cols, policy.clone());
    let imgs = images(17, 8);
    let got = ensemble.predict_batch(imgs.len(), |i| &imgs[i]);
    let want: Vec<usize> = imgs
        .iter()
        .enumerate()
        .map(|(i, x)| qm.predict_with(x, cols.payload(policy.sample(i as u64))))
        .collect();
    assert_eq!(
        got, want,
        "grouped batched passes must not change which kernel answers which query"
    );
    // The schedule is disclosed and matches what actually ran.
    assert_eq!(
        ensemble.sampled_kernels(imgs.len()),
        (0..imgs.len() as u64)
            .map(|q| policy.sample(q))
            .collect::<Vec<_>>()
    );
}

#[test]
fn ensemble_predictions_are_thread_invariant() {
    let qm = victim();
    let cols = MulColumns::from_registry(&Registry::standard(), &["1JFF", "17KS", "L40"]);
    let ensemble = EnsembleModel::new(&qm, &cols, KernelPolicy::weighted(vec![1.0, 2.0, 1.0], 3));
    let imgs = images(11, 9);
    let predict = || ensemble.predict_batch(imgs.len(), |i| &imgs[i]);
    let golden = with_threads(1, predict);
    for threads in [2, 3, 7] {
        assert_eq!(
            with_threads(threads, predict),
            golden,
            "ensemble predictions diverge at {threads} threads"
        );
    }
}

#[test]
fn accuracy_on_scores_the_sampled_schedule() {
    let qm = victim();
    let cols = MulColumns::from_registry(&Registry::standard(), &["1JFF", "L40"]);
    let policy = KernelPolicy::uniform(2, 17);
    let ensemble = EnsembleModel::new(&qm, &cols, policy.clone());
    let imgs = images(9, 10);
    let preds = ensemble.predict_batch(imgs.len(), |i| &imgs[i]);
    // Label every image with its own prediction: accuracy must be 1.0.
    let set: Vec<(Tensor, usize)> = imgs.iter().cloned().zip(preds.iter().copied()).collect();
    assert_eq!(ensemble.accuracy_on(&set), 1.0);
}

#[test]
#[should_panic(expected = "non-empty sample")]
fn accuracy_on_rejects_an_empty_set() {
    let qm = victim();
    let cols = MulColumns::from_registry(&Registry::standard(), &["1JFF", "L40"]);
    let ensemble = EnsembleModel::new(&qm, &cols, KernelPolicy::uniform(2, 17));
    let _ = ensemble.accuracy_on(&[]);
}

#[test]
#[should_panic(expected = "arity must match")]
fn mismatched_policy_arity_panics() {
    let qm = victim();
    let cols = MulColumns::from_registry(&Registry::standard(), &["1JFF", "L40"]);
    let _ = EnsembleModel::new(&qm, &cols, KernelPolicy::uniform(3, 0));
}

#[test]
#[should_panic(expected = "planned shape")]
fn mixed_shape_batch_panics() {
    let qm = victim();
    let cols = MulColumns::from_registry(&Registry::standard(), &["L40"]);
    let ensemble = EnsembleModel::new(&qm, &cols, KernelPolicy::uniform(1, 0x5A4));
    let mut imgs = images(2, 9);
    imgs.push(Tensor::zeros(&[28, 1, 28])); // same length, different shape
    let _ = ensemble.predict_batch(imgs.len(), |i| &imgs[i]);
}
