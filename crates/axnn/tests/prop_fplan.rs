//! Property tests pinning the compiled float engine to the seed paths.
//!
//! The plan/exec engine must be a pure performance optimization: for any
//! model topology, `FPlan::forward`, `FPlan::input_gradient` and
//! `FPlan::loss_and_grads` must be *bit-exact* with the seed
//! layer-by-layer loops (`Layer::forward` / `Layer::backward`, which are
//! kept as the reference implementation), and the batched gradient entry
//! points must be bit-exact with per-image calls.

use axnn::loss::cross_entropy_with_grad;
use axnn::model::{GradBuffer, Sequential};
use axtensor::Tensor;
use proptest::prelude::*;

mod common;
use common::{grad_bits, images, small_model, ARCHS, IN_DIMS};

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
