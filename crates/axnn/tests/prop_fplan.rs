//! Property tests pinning the compiled float engine to the seed paths.
//!
//! The plan/exec engine must be a pure performance optimization: for any
//! model topology, `FPlan::forward`, `FPlan::input_gradient` and
//! `FPlan::loss_and_grads` must be *bit-exact* with the seed
//! layer-by-layer loops (`Layer::forward` / `Layer::backward`, which are
//! kept as the reference implementation), and the batched gradient entry
//! points must be bit-exact with per-image calls.

use std::sync::Mutex;

use axnn::loss::cross_entropy_with_grad;
use axnn::model::{GradBuffer, Sequential};
use axtensor::Tensor;
use proptest::prelude::*;

mod common;
use common::{grad_bits, images, small_model, ARCHS, IN_DIMS};

/// Serializes tests that read or write `AXDNN_THREADS`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Batch sizes around the plan's 4-image blocks: partial blocks, one
/// full block, and one and two full blocks with a remainder.
const BATCH_SIZES: [usize; 7] = [1, 2, 3, 4, 5, 7, 9];

/// The seed layer-by-layer forward: the reference path.
fn seed_forward(m: &Sequential, x: &Tensor) -> Tensor {
    let mut cur = x.clone();
    for layer in m.layers() {
        cur = layer.forward(&cur);
    }
    cur
}

/// The seed layer-by-layer backward, optionally with parameter grads.
fn seed_backward(m: &Sequential, x: &Tensor, target: usize) -> (f32, Tensor, GradBuffer) {
    let (inputs, logits) = m.forward_trace(x);
    let (loss, mut grad) = cross_entropy_with_grad(&logits, target);
    let mut buf = m.zero_grads();
    for (i, layer) in m.layers().iter().enumerate().rev() {
        let pg = &mut buf.layers[i];
        let slice = if pg.is_empty() {
            None
        } else {
            Some(pg.as_mut_slice())
        };
        grad = layer.backward(&inputs[i], &grad, slice);
    }
    (loss, grad, buf)
}

/// Every value's bit pattern: unlike `==`, tells `-0.0` from `+0.0`.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Checks one model against the seed paths over a probe set. Returns an
/// error message on the first mismatch.
fn check_engine(model: &Sequential, probes: &[Tensor]) -> Result<(), String> {
    let plan = model.plan(&IN_DIMS);
    let mut scratch = plan.scratch();
    for (pi, x) in probes.iter().enumerate() {
        let target = pi % 4;
        let y = plan.forward(&mut scratch, x);
        let sy = seed_forward(model, x);
        if bits(&y) != bits(&sy) {
            return Err(format!("forward diverges on {} probe {pi}", model.name()));
        }
        let (loss, grad) = plan.input_gradient(&mut scratch, x, target);
        let (sl, sg, sbuf) = seed_backward(model, x, target);
        if loss != sl {
            return Err(format!("loss diverges on {} probe {pi}", model.name()));
        }
        if grad.dims() != sg.dims() || bits(&grad) != bits(&sg) {
            return Err(format!(
                "input gradient diverges on {} probe {pi}",
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
    // Batch entry points against per-image wrapper calls.
    let labels: Vec<usize> = (0..probes.len()).map(|i| i % 4).collect();
    let batch = model.loss_and_input_grads_batch(probes, &labels);
    for (i, (x, &lbl)) in probes.iter().zip(&labels).enumerate() {
        if batch[i] != model.input_gradient(x, lbl) {
            return Err(format!("batch gradient diverges on image {i}"));
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
/// [`BATCH_SIZES`] and every `AXDNN_THREADS` chunking: `count_correct`
/// counts every image right under labels set to the one-image
/// predictions, `input_gradient_batch_indexed` and the one-scratch
/// `input_gradient_block` return every image's `input_gradient` bit for
/// bit, and `loss_and_param_grads_batch` is the fold of per-image
/// `loss_and_grads`. On the FFNN and on three conv shapes, whose block
/// backward interleaves the images inside every non-covering conv's
/// input gradient: padded conv+pool, strided, and LeNet's shape, whose
/// covering conv runs image by image above a block conv.
#[test]
fn image_blocks_match_one_image_calls_at_every_boundary() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = std::env::var("AXDNN_THREADS").ok();
    for arch in [0, 2, 3, 4] {
        let model = small_model(arch, 0xB10C + arch as u64);
        let plan = model.plan(&IN_DIMS);
        let mut s = plan.scratch();
        let probes = images(9, 0xB10C);
        let preds: Vec<usize> = probes.iter().map(|x| plan.predict(&mut s, x)).collect();
        let labels: Vec<usize> = (0..probes.len()).map(|i| i % 4).collect();
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
        for threads in ["1", "2", "3", "7"] {
            std::env::set_var("AXDNN_THREADS", threads);
            for n in BATCH_SIZES {
                let at = format!("{} n {n} threads {threads}", model.name());
                let correct = plan.count_correct(n, |i| &probes[i], |i| preds[i]);
                assert_eq!(correct, n, "count_correct: {at}");
                let grads = plan.input_gradient_batch_indexed(n, |i| &probes[i], |i| labels[i]);
                let got: Vec<(u32, Vec<u32>)> = (grads.iter())
                    .map(|(l, g)| (l.to_bits(), bits(g)))
                    .collect();
                assert_eq!(got, want_grads[..n], "input gradients: {at}");
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
        }
    }
    match prev {
        Some(v) => std::env::set_var("AXDNN_THREADS", v),
        None => std::env::remove_var("AXDNN_THREADS"),
    }
}
