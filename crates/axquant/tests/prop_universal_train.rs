//! Property tests pinning the quantized hardening loop.
//!
//! `finetune` and `universal_adversarial_fit` are two entry points to one
//! loop, so they cannot be checked against each other. Instead both are
//! pinned against [`reference_fit`], a test-side loop written longhand
//! from public pieces only: quantization
//! ([`QuantModel::from_float_with_level`]), the STE parameter gradient
//! ([`QTrainPlan::loss_and_param_grads_batch`]), one-image float input
//! gradients ([`axnn::FPlan::input_gradient`], one call per image, so the
//! reference shares no batch or source code with the trainer's ascent),
//! [`Sgd::step_scaled`] and the ball geometry of [`axtensor::norms`].
//!
//! Three contracts:
//!
//! 1. **Reference agreement at `eps > 0`** — [`universal_adversarial_fit`]
//!    produces the reference's histories, shadow weights, requantized
//!    model and delta, bit for bit (floats compared through
//!    `f32::to_bits`, shadows through their serialized bytes), on every
//!    fixture architecture and under `AXDNN_THREADS` {1, 2, 3, 7}.
//! 2. **Reference agreement at the zero ball** — both [`finetune`] and
//!    [`universal_adversarial_fit`] at `eps == 0` reproduce the
//!    reference's plain fine-tuning run the same way, with a zero delta.
//! 3. **Entry-point panics** — empty datasets and negative budgets die
//!    loudly.
//!
//! Chunking is controlled through the `AXDNN_THREADS` environment
//! variable; each sweep pins it with `axutil::parallel::with_threads`,
//! which serializes the sweeps within this test binary.

use axdata::Dataset;
use axmul::{ExactMul, MulKernel, Registry};
use axnn::model::Sequential;
use axnn::optim::Sgd;
use axnn::serialize::model_to_bytes;
use axquant::qtrain::{finetune, FinetuneConfig, FinetuneHistory, QTrainPlan};
use axquant::universal::{universal_adversarial_fit, UniversalFinetuneConfig};
use axquant::{Placement, QuantModel};
use axtensor::norms::{apply_delta, ascent_direction, project_ball, Norm};
use axtensor::Tensor;
use axutil::parallel::with_threads;
use axutil::rng::Rng;

mod common;
use common::{calib_of, small_model, ARCHS, IN_DIMS};

/// A learnable 4-class dataset inside the pixel box `[0, 1]`.
fn tiny_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mut imgs = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n {
        let label = rng.index(4);
        let mut t = Tensor::zeros(&IN_DIMS);
        rng.fill_range_f32(t.data_mut(), 0.0, 0.8);
        t.data_mut()[label * 9] = 1.0;
        imgs.push(t);
        labels.push(label);
    }
    Dataset::new("ut-tiny", imgs, labels, 4)
}

fn quick_cfg(eps: f32) -> UniversalFinetuneConfig {
    UniversalFinetuneConfig {
        base: FinetuneConfig {
            epochs: 2,
            batch_size: 5,
            placement: Placement::All,
            eval_cap: 24,
            ..Default::default()
        },
        eps,
        norm: Norm::Linf,
        delta_step: 1.0,
    }
}

/// Everything a hardening run produces, with every float as its bit
/// pattern: `==` on floats equates `-0.0` with `+0.0`, the bits do not.
#[derive(Debug, PartialEq)]
struct RunBits {
    initial_accuracy: u32,
    losses: Vec<u32>,
    accuracies: Vec<u32>,
    universal_accuracies: Vec<u32>,
    shadow: Vec<u8>,
    quantized: String,
    delta: Vec<u32>,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn run_bits(
    hist: &FinetuneHistory,
    universal_accuracies: &[f32],
    shadow: &Sequential,
    qm: &QuantModel,
    delta: &Tensor,
) -> RunBits {
    RunBits {
        initial_accuracy: hist.initial_accuracy.to_bits(),
        losses: bits(&hist.losses),
        accuracies: bits(&hist.accuracies),
        universal_accuracies: bits(universal_accuracies),
        shadow: model_to_bytes(shadow),
        // `Debug` prints every f32 scale in its shortest round-trip form,
        // so two models print alike only if their values agree exactly.
        quantized: format!("{qm:?}"),
        delta: bits(delta.data()),
    }
}

/// Quantized accuracy on the first `cap` images, each perturbed by
/// `delta`.
fn perturbed_accuracy<K: MulKernel + ?Sized>(
    qm: &QuantModel,
    data: &Dataset,
    delta: &Tensor,
    kernel: &K,
    cap: usize,
) -> f32 {
    let n = data.len().min(cap);
    let images = (0..n).map(|i| apply_delta(data.image(i), delta)).collect();
    let labels = (0..n).map(|i| data.label(i)).collect();
    let perturbed = Dataset::new("reference-eval", images, labels, data.num_classes());
    qm.accuracy_with(&perturbed, kernel, n)
}

/// The hardening loop, written out longhand. Per epoch: compile a
/// training plan from the current quantized model; per shuffled batch,
/// if `eps > 0`, sum the float shadow's input gradients at
/// `clip(x + delta)` in image order, step the delta along the ascent
/// direction and project it onto the ball; then take one STE weight step
/// on the batch under the updated delta (the clean batch at `eps == 0`).
/// After the epoch, requantize and score.
fn reference_fit<K: MulKernel + ?Sized>(
    shadow: &mut Sequential,
    data: &Dataset,
    calib: &[Tensor],
    kernel: &K,
    cfg: &UniversalFinetuneConfig,
) -> RunBits {
    let base = &cfg.base;
    let requantize = |shadow: &Sequential| {
        QuantModel::from_float_with_level(shadow, calib, base.placement, base.level).unwrap()
    };
    let mut qm = requantize(shadow);
    let mut hist = FinetuneHistory {
        initial_accuracy: qm.accuracy_with(data, kernel, base.eval_cap),
        losses: Vec::new(),
        accuracies: Vec::new(),
    };
    let mut universal_accuracies = Vec::new();
    let mut opt = Sgd::new(shadow, base.lr, base.momentum, base.weight_decay);
    let mut delta = Tensor::zeros(&IN_DIMS);
    for epoch in 0..base.epochs {
        let batches = data.batch_indices(
            base.batch_size,
            base.seed ^ (epoch as u64).wrapping_mul(0x9E37),
        );
        let mut loss_acc = 0.0f64;
        let plan = QTrainPlan::compile(&qm, shadow, &IN_DIMS);
        for batch in &batches {
            let labels: Vec<usize> = batch.iter().map(|&i| data.label(i)).collect();
            if cfg.eps > 0.0 {
                let perturbed: Vec<Tensor> = batch
                    .iter()
                    .map(|&i| apply_delta(data.image(i), &delta))
                    .collect();
                let mut g = Tensor::zeros(&IN_DIMS);
                let plan = shadow.plan(&IN_DIMS);
                let mut scratch = plan.scratch();
                for (x, &label) in perturbed.iter().zip(&labels) {
                    g.add_scaled(&plan.input_gradient(&mut scratch, x, label).1, 1.0);
                }
                delta.add_scaled(&ascent_direction(&g, cfg.norm), cfg.eps * cfg.delta_step);
                delta = project_ball(&delta, cfg.eps, cfg.norm);
            }
            let images: Vec<Tensor> = batch
                .iter()
                .map(|&i| {
                    if cfg.eps > 0.0 {
                        apply_delta(data.image(i), &delta)
                    } else {
                        data.image(i).clone()
                    }
                })
                .collect();
            let n = batch.len();
            let (loss_sum, grads) =
                plan.loss_and_param_grads_batch(n, |k| &images[k], |k| labels[k], kernel);
            opt.step_scaled(shadow, &grads, 1.0 / n as f32);
            loss_acc += (loss_sum / n as f32) as f64;
        }
        drop(plan);
        qm = requantize(shadow);
        let acc = qm.accuracy_with(data, kernel, base.eval_cap);
        hist.losses.push((loss_acc / batches.len() as f64) as f32);
        hist.accuracies.push(acc);
        universal_accuracies.push(if cfg.eps > 0.0 {
            perturbed_accuracy(&qm, data, &delta, kernel, base.eval_cap)
        } else {
            acc
        });
        opt.set_lr((opt.lr() * base.lr_decay).max(1e-5));
    }
    run_bits(&hist, &universal_accuracies, shadow, &qm, &delta)
}

/// Runs `check` under every `AXDNN_THREADS` setting in the sweep, each
/// pinned with [`with_threads`].
fn for_each_thread_count(mut check: impl FnMut(usize)) {
    for threads in [1, 2, 3, 7] {
        with_threads(threads, || check(threads));
    }
}

/// The quantized universal trainer must reproduce the reference loop bit
/// for bit for every thread chunking, across topologies, both ball norms
/// and an approximate kernel. The l2 step reads every bit of the summed
/// gradient, so it also pins the order of the ascent's fold.
#[test]
fn universal_fit_is_bit_identical_across_thread_counts() {
    let data = tiny_dataset(24, 177);
    let calib = calib_of(&data, 6);
    let lut = Registry::standard().build_lut("L40").unwrap();
    for (norm, eps) in [(Norm::Linf, 0.06), (Norm::L2, 0.5)] {
        let cfg = UniversalFinetuneConfig {
            norm,
            ..quick_cfg(eps)
        };
        for arch in 0..ARCHS {
            let seed = 200 + arch as u64;
            let want = reference_fit(&mut small_model(arch, seed), &data, &calib, &lut, &cfg);
            assert!(want.delta.iter().any(|&b| f32::from_bits(b) != 0.0));
            for_each_thread_count(|threads| {
                let mut shadow = small_model(arch, seed);
                let (hist, qm, delta) =
                    universal_adversarial_fit(&mut shadow, &data, &calib, &lut, &cfg).unwrap();
                let got = run_bits(&hist.base, &hist.universal_accuracies, &shadow, &qm, &delta);
                assert_eq!(
                    got, want,
                    "universal fit diverges from the reference at {threads} threads ({norm}, arch {arch})"
                );
            });
        }
    }
}

/// At the zero ball both entry points reproduce the reference's plain
/// fine-tuning run bit for bit, with a zero delta.
#[test]
fn zero_ball_matches_the_reference_finetune() {
    let data = tiny_dataset(20, 0xF1);
    let calib = calib_of(&data, 5);
    let lut = Registry::standard().build_lut("17KS").unwrap();
    let cfg = quick_cfg(0.0);
    for arch in 0..ARCHS {
        let seed = 300 + arch as u64;
        let want = reference_fit(&mut small_model(arch, seed), &data, &calib, &lut, &cfg);
        assert_eq!(want.delta, bits(Tensor::zeros(&IN_DIMS).data()));
        for_each_thread_count(|threads| {
            let mut plain = small_model(arch, seed);
            let (hist, qm) = finetune(&mut plain, &data, &calib, &lut, &cfg.base).unwrap();
            let zero = Tensor::zeros(&IN_DIMS);
            let got = run_bits(&hist, &hist.accuracies, &plain, &qm, &zero);
            assert_eq!(
                got, want,
                "finetune diverges from the reference at {threads} threads (arch {arch})"
            );
            let mut shadow = small_model(arch, seed);
            let (hist, qm, delta) =
                universal_adversarial_fit(&mut shadow, &data, &calib, &lut, &cfg).unwrap();
            let got = run_bits(&hist.base, &hist.universal_accuracies, &shadow, &qm, &delta);
            assert_eq!(
                got, want,
                "zero-ball universal fit diverges from the reference at {threads} threads (arch {arch})"
            );
        });
    }
}

#[test]
#[should_panic(expected = "empty dataset")]
fn universal_fit_on_empty_dataset_panics() {
    let mut model = small_model(0, 13);
    let data = Dataset::new("empty", Vec::new(), Vec::new(), 4);
    let calib = vec![Tensor::zeros(&IN_DIMS)];
    let _ = universal_adversarial_fit(&mut model, &data, &calib, &ExactMul, &quick_cfg(0.1));
}

#[test]
#[should_panic(expected = "negative budget")]
fn universal_fit_rejects_negative_budget() {
    let mut model = small_model(1, 14);
    let data = tiny_dataset(4, 15);
    let calib = calib_of(&data, 4);
    let _ = universal_adversarial_fit(&mut model, &data, &calib, &ExactMul, &quick_cfg(-0.1));
}
