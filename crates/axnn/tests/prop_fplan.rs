//! Property tests pinning the compiled float engine to the seed paths.
//!
//! The plan/exec engine must be a pure performance optimization: for any
//! model topology, `FPlan::forward`, `FPlan::input_gradient` and
//! `FPlan::loss_and_grads` must be *bit-exact* with the seed
//! layer-by-layer loop (`axnn::reference`), and the batched entry points
//! must be bit-exact with per-image calls. (The calibration pass,
//! `FPlan::layer_max_abs`, is pinned to the seed trace where it is used,
//! in `axquant::qmodel`'s tests.)

use axnn::model::Sequential;
use axnn::reference;
use axnn::source::map_source_blocks;
use axnn::FPlan;
use axtensor::stats::Outcomes;
use axtensor::Tensor;
use axutil::parallel::with_threads;
use axutil::rng::Rng;
use proptest::prelude::*;

mod common;
use common::{grad_bits, images, small_model, ARCHS, IN_DIMS};

/// Batch sizes around the plan's 4-image blocks: partial blocks, one
/// full block, and one and two full blocks with a remainder.
const BATCH_SIZES: [usize; 7] = [1, 2, 3, 4, 5, 7, 9];

/// Every value's bit pattern: unlike `==`, tells `-0.0` from `+0.0`.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Every probe's input gradient through the plan's gradient source, as
/// crafting queries it: one handle per thread chunk, one
/// `input_gradient_block` per block of images.
fn source_gradients(plan: &FPlan<'_>, probes: &[Tensor], labels: &[usize]) -> Vec<Vec<u32>> {
    let grads = map_source_blocks(plan, probes.len(), |handle, block| {
        let mut rngs = vec![Rng::seed_from_u64(0); block.len()];
        handle.input_gradient_block(&probes[block.clone()], &labels[block], &mut rngs)
    });
    grads.iter().map(bits).collect()
}

/// Checks one model against the seed paths over a probe set. Returns an
/// error message on the first mismatch.
fn check_engine(model: &Sequential, probes: &[Tensor]) -> Result<(), String> {
    let plan = model.plan(&IN_DIMS);
    let mut scratch = plan.scratch();
    let labels: Vec<usize> = (0..probes.len()).map(|i| i % 4).collect();
    let batch = source_gradients(&plan, probes, &labels);
    for (pi, x) in probes.iter().enumerate() {
        let target = pi % 4;
        let y = plan.forward(&mut scratch, x);
        let sy = reference::forward(model, x);
        if bits(&y) != bits(&sy) {
            return Err(format!("forward diverges on {} probe {pi}", model.name()));
        }
        let (loss, grad) = plan.input_gradient(&mut scratch, x, target);
        let mut sbuf = model.zero_grads();
        let (sl, sg) = reference::backward(model, x, target, Some(&mut sbuf));
        if loss != sl {
            return Err(format!("loss diverges on {} probe {pi}", model.name()));
        }
        if grad.dims() != sg.dims() || bits(&grad) != bits(&sg) {
            return Err(format!(
                "input gradient diverges on {} probe {pi}",
                model.name()
            ));
        }
        if batch[pi] != bits(&grad) {
            return Err(format!(
                "source gradient diverges on {} probe {pi}",
                model.name()
            ));
        }
        let (_, buf) = plan.loss_and_grads(&mut scratch, x, target);
        if grad_bits(&buf) != grad_bits(&sbuf) {
            return Err(format!(
                "parameter gradients diverge on {} probe {pi}",
                model.name()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn fplan_is_bit_exact_with_seed_paths(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..ARCHS,
    ) {
        let model = small_model(arch, seed);
        let probes = images(3, seed ^ 0xF10A7);
        if let Err(msg) = check_engine(&model, &probes) {
            prop_assert!(false, "{msg} (arch {arch}, seed {seed})");
        }
    }
}

/// Every architecture deterministically, for a quick always-on cover.
#[test]
fn fplan_matches_seed_on_every_architecture() {
    for arch in 0..ARCHS {
        let model = small_model(arch, 1234 + arch as u64);
        let probes = images(2, 99 + arch as u64);
        if let Err(msg) = check_engine(&model, &probes) {
            panic!("{msg} (arch {arch})");
        }
    }
}

/// The block paths against one image per call, for every batch size in
/// [`BATCH_SIZES`] and every `AXDNN_THREADS` chunking: `predict_batch`
/// scores every image right (as [`Outcomes`], image by image) under labels
/// set to the one-image predictions, the plan's gradient source
/// (`map_source_blocks`, one handle per chunk) and the one-scratch
/// `input_gradient_block` return every image's `input_gradient` bit for
/// bit, and `loss_and_param_grads_batch` is the fold of per-image
/// `loss_and_grads`. On every fixture shape: the conv ones interleave
/// the block inside every non-covering conv's input gradient, and
/// LeNet's shape runs its covering conv image by image above a block
/// conv.
#[test]
fn image_blocks_match_one_image_calls_at_every_boundary() {
    for arch in 0..ARCHS {
        let model = small_model(arch, 0xB10C + arch as u64);
        let plan = model.plan(&IN_DIMS);
        let mut s = plan.scratch();
        let probes = images(9, 0xB10C);
        let preds: Vec<usize> = probes.iter().map(|x| plan.predict(&mut s, x)).collect();
        let labels: Vec<usize> = (0..probes.len()).map(|i| i % 4).collect();
        // Labelled with its own one-image prediction, every image is a hit
        // only where `predict_batch` gives it that same class.
        let outcomes = |n: usize, got: &[usize]| Outcomes::new(n, 1, |i, _| got[i], |i| preds[i]);
        let mut sum = (0.0f32, model.zero_grads());
        let mut want_grads = Vec::new();
        let mut want_folds = Vec::new();
        for (x, &lbl) in probes.iter().zip(&labels) {
            let (loss, grad) = plan.input_gradient(&mut s, x, lbl);
            want_grads.push((loss.to_bits(), bits(&grad)));
            let (l, g) = plan.loss_and_grads(&mut s, x, lbl);
            sum.0 += l;
            sum.1.accumulate(&g);
            want_folds.push((sum.0.to_bits(), grad_bits(&sum.1)));
        }
        for threads in [1, 2, 3, 7] {
            with_threads(threads, || {
                for n in BATCH_SIZES {
                    let at = format!("{} n {n} threads {threads}", model.name());
                    let got = plan.predict_batch(n, |i| &probes[i]);
                    assert_eq!(
                        outcomes(n, &got),
                        outcomes(n, &preds),
                        "predict_batch: {at}"
                    );
                    let got = source_gradients(&plan, &probes[..n], &labels[..n]);
                    let want: Vec<&Vec<u32>> = want_grads[..n].iter().map(|(_, g)| g).collect();
                    assert_eq!(
                        got.iter().collect::<Vec<_>>(),
                        want,
                        "source gradients: {at}"
                    );
                    let block = plan.input_gradient_block(&mut s, &probes[..n], &labels[..n]);
                    let got: Vec<(u32, Vec<u32>)> = (block.iter())
                        .map(|(l, g)| (l.to_bits(), bits(g)))
                        .collect();
                    assert_eq!(got, want_grads[..n], "input_gradient_block: {at}");
                    let (loss, fold) =
                        plan.loss_and_param_grads_batch(n, |i| &probes[i], |i| labels[i]);
                    assert_eq!(
                        (loss.to_bits(), grad_bits(&fold)),
                        want_folds[n - 1],
                        "parameter gradients: {at}"
                    );
                }
            });
        }
    }
}
