//! Approximation-aware fine-tuning: a straight-through backward over the
//! [`QPlan`] forward and the retraining driver of the paper's Sec. V.
//!
//! Post-training quantization ([`QuantModel::from_float`]) opens an
//! accuracy gap under approximate multipliers; the defensive-approximation
//! literature (Guesmi et al., "Defensive Approximation" / "Defending with
//! Errors") closes it by *retraining through the approximate forward*.
//! This module implements that loop:
//!
//! * [`QTrainPlan`] compiles a `(QuantModel, shadow model, input shape)`
//!   triple once per epoch. It is a [`QPlan`] plus its backward: the
//!   forward pass *is* the [`QPlan`] block forward behind
//!   [`QPlan::forward_one`], the very forward that answers queries,
//!   running the chosen (exact or LUT) multiplier once per block of
//!   images and leaving every layer's `u8` input codes on the scratch's
//!   activation tape. Its backward pass, run per image on its slice of
//!   the tape, is a **straight-through estimator** (STE):
//!   every quantized layer is linearized as its dequantized float map
//!   `y ≈ relu(W_deq · x_deq + b_deq)`, the fused requantize/ReLU passes
//!   gradient only where the output code is strictly inside
//!   `(0, act_qmax)` (clipped STE — both the ReLU cut and saturation block
//!   gradient), and rounding is treated as identity. The resulting
//!   parameter gradients land in the layout of the float *shadow* model,
//!   ready for [`Sgd::step_scaled`](axnn::optim::Sgd::step_scaled).
//! * [`finetune`] is the driver, in [`axnn::train::fit`] style: per
//!   epoch it runs SGD + momentum over shuffled minibatches on the
//!   batched engine, then requantizes the shadow weights into the next
//!   epoch's plan (activation scales recalibrated on the calibration
//!   set). It is the zero-ball entry point of the crate's one hardening
//!   loop, [`crate::universal::universal_adversarial_fit`].
//!
//! # Determinism and thread invariance
//!
//! [`QTrainPlan::loss_and_param_grads_batch`] runs the same two passes
//! as
//! [`FPlan::loss_and_param_grads_batch`](axnn::plan::FPlan::loss_and_param_grads_batch):
//! image chunks with one scratch each run one forward per block of
//! images and record, per image, the masked STE gradient and the
//! dequantized input of every dense layer (and every conv layer's own
//! gradient), then the shared rank-n fold ([`fexec::GradFold`]) sums the
//! records in image order, bit-identical to the per-image fold.
//! Fine-tuned weights and [`FinetuneHistory`] are therefore
//! **bit-identical for any `AXDNN_THREADS` setting**
//! (pinned by `axquant/tests/prop_finetune.rs`).
//!
//! ```
//! use axmul::ExactMul;
//! use axnn::zoo;
//! use axquant::qtrain::{finetune, FinetuneConfig};
//! use axdata::mnist::{MnistConfig, SynthMnist};
//! use axutil::rng::Rng;
//!
//! # fn main() -> Result<(), axutil::AxError> {
//! let data = SynthMnist::generate(&MnistConfig { n: 32, seed: 1, ..Default::default() });
//! let mut shadow = zoo::ffnn(&mut Rng::seed_from_u64(0));
//! let calib: Vec<_> = (0..8).map(|i| data.image(i).clone()).collect();
//! let cfg = FinetuneConfig { epochs: 1, batch_size: 8, ..Default::default() };
//! let (hist, tuned) = finetune(&mut shadow, &data, &calib, &ExactMul, &cfg)?;
//! assert_eq!(hist.losses.len(), 1);
//! assert!(tuned.name().contains("ffnn"));
//! # Ok(())
//! # }
//! ```

use std::ops::Range;

use axdata::Dataset;
use axmul::MulKernel;
use axnn::exec as fexec;
use axnn::layer::Layer;
use axnn::loss::cross_entropy_with_grad;
use axnn::model::{GradBuffer, Sequential};
use axtensor::Tensor;
use axutil::AxError;

use crate::exec::BLOCK;
use crate::placement::Placement;
use crate::plan::{QPlan, QScratch, Step};
use crate::qlevel::QLevel;
use crate::qmodel::{QLayer, QWeights, QuantModel};
use crate::universal::{universal_adversarial_fit, UniversalFinetuneConfig};

/// What the STE backward keeps of one conv/dense layer.
#[derive(Debug)]
struct SteLayer {
    /// Dequantized weights (`sign * mag * s_w`, in the shadow layer's
    /// layout) for the input gradient.
    w_deq: Vec<f32>,
    /// Dequantization scale of this layer's *input* codes.
    in_scale: f32,
    /// Largest output activation code (`act_qmax` as `u8`).
    qmax_code: u8,
}

/// A compiled fine-tuning plan for one `(QuantModel, shadow, shape)`: a
/// [`QPlan`] plus what its STE backward needs.
///
/// The quantized model drives the forward; the shadow [`Sequential`] only
/// fixes the gradient layout (its layer indices and parameter shapes), so
/// the shadow may be mutated by an optimizer while the plan is alive. See
/// the [module docs](self) for the execution model.
#[derive(Debug)]
pub struct QTrainPlan<'m> {
    plan: QPlan<'m>,
    /// One entry per conv/dense step, in step order (the fold's layer
    /// order).
    layers: Vec<SteLayer>,
    /// Zero gradients in the shadow model's layout, cloned per use.
    grads_template: GradBuffer,
    /// Record and parameter layout of the conv/dense steps, for the
    /// batch fold ([`fexec::GradFold`]).
    fold: fexec::GradFold,
    /// Index of the lowest conv/dense step, where the backward stops:
    /// nothing reads the gradient below it.
    first_param: usize,
}

/// Reusable buffers for executing a [`QTrainPlan`]: a one-lane
/// [`QScratch`], whose block tape the backward reads, plus one image's
/// f32 patch, dequantization and gradient ping-pong buffers for the STE
/// backward. Build one per thread chunk with [`QTrainPlan::scratch`] and
/// reuse it across blocks.
#[derive(Debug)]
pub struct QTrainScratch {
    forward: QScratch,
    patch: Vec<f32>,
    /// Dequantized activation buffer for the backward.
    deq: Vec<f32>,
    /// Gradient ping-pong pair.
    gbuf: [Vec<f32>; 2],
}

impl<'m> QTrainPlan<'m> {
    /// Compiles the [`QPlan`], reconstructs the per-layer scale chain,
    /// dequantizes the weights for the STE backward and checks every
    /// quantized layer against its shadow-model layer (gradients land in
    /// the shadow's layout, parameterised layers in order).
    ///
    /// # Panics
    ///
    /// Panics if `input_dims` does not match the model's expected layout,
    /// or if `shadow` does not structurally match `qm` (layer kinds,
    /// shapes, stride/pad — the shadow must be the model `qm` was
    /// quantized from, up to weight values).
    pub fn compile(qm: &'m QuantModel, shadow: &Sequential, input_dims: &[usize]) -> Self {
        let plan = QPlan::compile(qm, input_dims);
        let flayers = shadow.layers();
        let mut fi = 0usize;
        let mut scale = qm.input_scale();
        let mut layers = Vec::new();
        for ql in qm.qlayers() {
            match ql {
                QLayer::Conv {
                    w,
                    out_c,
                    in_c,
                    k,
                    stride,
                    pad,
                } => {
                    let Some(Layer::Conv2d(fc)) = flayers.get(fi) else {
                        panic!("shadow layer {fi} is not the conv the quantized model expects");
                    };
                    assert_eq!(
                        fc.weight().dims(),
                        &[*out_c, *in_c, *k, *k],
                        "shadow conv {fi} shape mismatch"
                    );
                    assert!(
                        fc.stride() == *stride && fc.pad() == *pad,
                        "shadow conv {fi} stride/pad mismatch"
                    );
                    assert!(
                        matches!(flayers.get(fi + 1), Some(Layer::Relu)),
                        "shadow conv {fi} is not followed by relu"
                    );
                    layers.push(SteLayer::new(w, scale));
                    // Requantizing layer: the output scale closes the chain.
                    scale = w.dequant / w.requant.expect("conv layers requantize");
                    fi += 2; // skip the fused relu
                }
                QLayer::Dense { w, out_dim, in_dim } => {
                    let Some(Layer::Dense(fd)) = flayers.get(fi) else {
                        panic!("shadow layer {fi} is not the dense the quantized model expects");
                    };
                    assert_eq!(
                        fd.weight().dims(),
                        &[*out_dim, *in_dim],
                        "shadow dense {fi} shape mismatch"
                    );
                    layers.push(SteLayer::new(w, scale));
                    if let Some(requant) = w.requant {
                        assert!(
                            matches!(flayers.get(fi + 1), Some(Layer::Relu)),
                            "shadow dense {fi} is not followed by relu"
                        );
                        scale = w.dequant / requant;
                        fi += 2;
                    } else {
                        assert_eq!(fi + 1, flayers.len(), "shadow logits dense is not final");
                        fi += 1;
                    }
                }
                QLayer::AvgPool { k } => {
                    let Some(Layer::AvgPool(fp)) = flayers.get(fi) else {
                        panic!("shadow layer {fi} is not the avgpool the quantized model expects");
                    };
                    assert_eq!(fp.k(), *k, "shadow pool {fi} window mismatch");
                    fi += 1;
                }
                QLayer::Flatten => {
                    assert!(
                        matches!(flayers.get(fi), Some(Layer::Flatten)),
                        "shadow layer {fi} is not the flatten the quantized model expects"
                    );
                    fi += 1;
                }
            }
        }
        assert_eq!(fi, flayers.len(), "shadow model has trailing layers");
        let fold = fexec::GradFold::new(plan.steps.iter().filter_map(|step| match *step {
            Step::Conv { out_dims, cols, .. } => Some(fexec::ParamRecord::Summed {
                len: out_dims[0] * (cols + 1),
            }),
            Step::Dense {
                in_dim, out_dim, ..
            }
            | Step::DenseLogits {
                in_dim, out_dim, ..
            } => Some(fexec::ParamRecord::Dense { out_dim, in_dim }),
            Step::AvgPool { .. } => None,
        }));
        let first_param = plan
            .steps
            .iter()
            .position(|step| !matches!(step, Step::AvgPool { .. }))
            .unwrap_or(0);
        QTrainPlan {
            plan,
            layers,
            grads_template: shadow.zero_grads(),
            fold,
            first_param,
        }
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.plan.n_classes()
    }

    /// Zero gradients in the shadow model's layout.
    pub fn zero_grads(&self) -> GradBuffer {
        self.grads_template.clone()
    }

    /// Allocates the scratch buffers (one-lane forward tape, patch,
    /// gradient ping-pong) this plan needs.
    pub fn scratch(&self) -> QTrainScratch {
        let forward = self.plan.scratch_for(1);
        // Every activation and gradient the backward touches: one image's
        // tape entries and the logits gradient.
        let max_act = (0..=self.plan.steps.len())
            .map(|i| forward.codes(i, 0).len())
            .chain([self.n_classes()])
            .max()
            .unwrap_or(0);
        QTrainScratch {
            forward,
            patch: vec![0.0f32; self.plan.max_patch],
            deq: vec![0.0f32; max_act],
            gbuf: [vec![0.0f32; max_act], vec![0.0f32; max_act]],
        }
    }

    /// Back-propagates the cross-entropy gradient of image `b`'s logits
    /// down its slice of the `u8` tape of the block forward that produced
    /// them, with the clipped straight-through estimator, writing every
    /// conv/dense layer's per-image parameter-gradient record
    /// (shadow-model order, see [`fexec::GradFold`]) into the zeroed
    /// `record`. Stops at the lowest conv/dense layer, whose input
    /// gradient nobody reads. Returns the loss.
    fn run_backward(
        &self,
        s: &mut QTrainScratch,
        b: usize,
        target: usize,
        record: &mut [f32],
    ) -> f32 {
        let nc = self.n_classes();
        let logits = Tensor::from_vec(s.forward.logits(b, nc).to_vec(), &[nc]);
        let (loss, dlogits) = cross_entropy_with_grad(&logits, target);
        let QTrainScratch {
            forward,
            patch,
            deq,
            gbuf,
        } = s;
        let mut side = 0usize;
        gbuf[side][..dlogits.len()].copy_from_slice(dlogits.data());
        // Ordinal of the next conv/dense layer down.
        let mut param = self.fold.layer_count();
        for (i, step) in self.plan.steps.iter().enumerate().rev() {
            // This step's input and output codes (the output is empty
            // after the logits step).
            let (x_codes, y_codes) = (forward.codes(i, b), forward.codes(i + 1, b));
            let (gsrc, gdst) = grad_sides(gbuf, side);
            match *step {
                Step::Conv {
                    in_dims,
                    k,
                    stride,
                    pad,
                    rows,
                    cols,
                    out_dims,
                    ..
                } => {
                    param -= 1;
                    let layer = &self.layers[param];
                    let g = &mut gsrc[..y_codes.len()];
                    // Clipped STE through the fused requantize/ReLU: the
                    // gradient passes only where the output code is
                    // strictly inside (0, qmax) — code 0 is the ReLU cut,
                    // code qmax is saturation.
                    ste_mask(g, y_codes, layer.qmax_code);
                    // Parameter gradients read the dequantized forward
                    // input (code * in_scale), re-im2col'd in f32.
                    let x = &mut deq[..x_codes.len()];
                    dequantize(x_codes, layer.in_scale, x);
                    fexec::im2col(x, in_dims, k, stride, pad, rows, cols, patch);
                    let (dw, db) = self
                        .fold
                        .layer_record(param, record)
                        .split_at_mut(out_dims[0] * cols);
                    fexec::conv_backward_params_tiled(g, patch, rows, cols, dw, db);
                    if i == self.first_param {
                        break;
                    }
                    fexec::conv_input_grad(
                        &layer.w_deq,
                        g,
                        out_dims,
                        in_dims,
                        k,
                        stride,
                        pad,
                        1,
                        gdst,
                    );
                }
                Step::Dense { out_dim, .. } | Step::DenseLogits { out_dim, .. } => {
                    param -= 1;
                    let layer = &self.layers[param];
                    if let Step::Dense { .. } = step {
                        ste_mask(&mut gsrc[..out_dim], y_codes, layer.qmax_code);
                    }
                    // The record holds the masked gradient and the
                    // dequantized input, which the input gradient reuses.
                    let (rg, rx) = self.fold.layer_record(param, record).split_at_mut(out_dim);
                    rg.copy_from_slice(&gsrc[..out_dim]);
                    dequantize(x_codes, layer.in_scale, rx);
                    if i == self.first_param {
                        break;
                    }
                    fexec::dense_backward_tiled(&layer.w_deq, rg, rx, gdst, None, None);
                }
                Step::AvgPool {
                    k,
                    in_dims,
                    out_len,
                } => {
                    // STE treats the rounded integer mean as the exact mean.
                    fexec::avgpool_backward(&gsrc[..out_len], in_dims, k, gdst);
                }
            }
            side = 1 - side;
        }
        loss
    }

    /// Losses and parameter-gradient records of images `range` under
    /// `kernel`: one quantized forward per block, then the STE backward
    /// per image on its slice of the tape.
    fn records<'a, K, F, G>(
        &self,
        s: &mut QTrainScratch,
        range: Range<usize>,
        image: &F,
        label: &G,
        kernel: &K,
    ) -> Vec<(f32, Vec<f32>)>
    where
        K: MulKernel + ?Sized,
        F: Fn(usize) -> &'a Tensor,
        G: Fn(usize) -> usize,
    {
        let mut out = Vec::with_capacity(range.len());
        for start in range.clone().step_by(BLOCK) {
            let block = start..range.end.min(start + BLOCK);
            self.plan
                .run_block(&mut s.forward, block.clone(), image, &[kernel]);
            for (b, i) in block.enumerate() {
                let mut record = vec![0.0f32; self.fold.record_len()];
                let loss = self.run_backward(s, b, label(i), &mut record);
                out.push((loss, record));
            }
        }
        out
    }

    /// Cross-entropy loss (of the quantized forward under `kernel`) and
    /// STE parameter gradients for one example, in a fresh shadow-layout
    /// [`GradBuffer`]: the batch fold over a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the planned shape.
    pub fn loss_and_param_grads<K: MulKernel + ?Sized>(
        &self,
        s: &mut QTrainScratch,
        x: &Tensor,
        target: usize,
        kernel: &K,
    ) -> (f32, GradBuffer) {
        let (loss, record) = self
            .records(s, 0..1, &|_| x, &|_| target, kernel)
            .pop()
            .expect("one image, one record");
        let mut grads = self.zero_grads();
        self.fold.fold_into(&[record], &mut grads);
        (loss, grads)
    }

    /// Summed loss and STE parameter gradients over a whole minibatch —
    /// the fine-tuning hot path.
    ///
    /// The same two passes as
    /// [`FPlan::loss_and_param_grads_batch`](axnn::plan::FPlan::loss_and_param_grads_batch),
    /// each one [`axutil::parallel::par_map_chunks`] call: image chunks
    /// with one [`QTrainPlan::scratch`] each run one quantized forward per
    /// block of images and one STE backward per image, leaving one small
    /// record per image (a dense layer's masked gradient and dequantized input, a
    /// conv layer's own gradient), then [`fexec::GradFold`] sums the
    /// records in image order over the flat parameter range of all
    /// layers. The sum is **bit-identical** to the per-image
    /// [`QTrainPlan::loss_and_param_grads`] fold for any `AXDNN_THREADS`
    /// setting.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch — a zero "gradient" would silently stall
    /// fine-tuning — and when any image does not match the planned shape
    /// (the block forward's "planned shape" check, whose message the
    /// chunk workers pass on).
    pub fn loss_and_param_grads_batch<'a, K, F, G>(
        &self,
        n: usize,
        image: F,
        label: G,
        kernel: &K,
    ) -> (f32, GradBuffer)
    where
        K: MulKernel + ?Sized,
        F: Fn(usize) -> &'a Tensor + Sync,
        G: Fn(usize) -> usize + Sync,
    {
        assert!(n > 0, "loss_and_param_grads_batch needs a non-empty batch");
        self.fold.batch(
            n,
            |range| self.records(&mut self.scratch(), range, &image, &label, kernel),
            self.zero_grads(),
        )
    }
}

impl SteLayer {
    /// The STE view of a layer whose input codes dequantize by
    /// `in_scale`: `w_deq = sign * mag * s_w` with
    /// `s_w = dequant / in_scale`.
    fn new(w: &QWeights, in_scale: f32) -> Self {
        let s_w = w.dequant / in_scale;
        SteLayer {
            w_deq: w
                .mag
                .iter()
                .zip(&w.sign)
                .map(|(&m, &sg)| sg as f32 * m as f32 * s_w)
                .collect(),
            in_scale,
            qmax_code: w.act_qmax as u8,
        }
    }
}

/// Dequantizes activation codes: `out[i] = codes[i] * scale`.
fn dequantize(codes: &[u8], scale: f32, out: &mut [f32]) {
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = c as f32 * scale;
    }
}

/// The clipped-STE gradient mask for a fused requantize/ReLU output:
/// zeroes the gradient where the output code is `0` (ReLU cut / rounded
/// to zero) or `qmax` (saturated).
fn ste_mask(g: &mut [f32], codes: &[u8], qmax: u8) {
    for (gv, &c) in g.iter_mut().zip(codes) {
        if c == 0 || c == qmax {
            *gv = 0.0;
        }
    }
}

/// Splits the gradient ping-pong pair into `(read, write)` for `side`.
/// Both sides are mutable: the read side is masked in place by the
/// clipped STE before the backward kernels consume it.
fn grad_sides(g: &mut [Vec<f32>; 2], side: usize) -> (&mut Vec<f32>, &mut Vec<f32>) {
    let (lo, hi) = g.split_at_mut(1);
    if side == 0 {
        (&mut lo[0], &mut hi[0])
    } else {
        (&mut hi[0], &mut lo[0])
    }
}

/// Fine-tuning hyper-parameters, in [`axnn::train::TrainConfig`] style.
///
/// The defaults are deliberately tamer than float training: the
/// quantized forward is **frozen for a whole epoch** (per-epoch
/// requantization), so within an epoch every batch's gradient comes from
/// the same stale linearization and momentum compounds them into one
/// effective step of roughly `lr * batches / (1 - momentum)` times the
/// gradient. Keep that product comparable to a single float-training
/// step or fine-tuning diverges.
#[derive(Debug, Clone, PartialEq)]
pub struct FinetuneConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Multiplicative LR decay applied after each epoch.
    pub lr_decay: f32,
    /// Shuffling / batching seed.
    pub seed: u64,
    /// Where approximation applies in the quantized forward.
    pub placement: Placement,
    /// Quantization level of the forward.
    pub level: QLevel,
    /// Sample cap for the per-epoch quantized accuracy.
    pub eval_cap: usize,
    /// Print one line per epoch to stderr when true.
    pub verbose: bool,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            epochs: 2,
            batch_size: 32,
            lr: 0.004,
            momentum: 0.5,
            weight_decay: 1e-4,
            lr_decay: 0.7,
            seed: 0x51E7,
            placement: Placement::ConvOnly,
            level: QLevel::INT8,
            eval_cap: 2000,
            verbose: false,
        }
    }
}

/// Per-epoch fine-tuning record.
#[derive(Debug, Clone, PartialEq)]
pub struct FinetuneHistory {
    /// Quantized clean accuracy (under the fine-tuning kernel) of the
    /// *post-training quantization* baseline, before any update.
    pub initial_accuracy: f32,
    /// Mean training loss (quantized forward) per epoch.
    pub losses: Vec<f32>,
    /// Quantized clean accuracy after each epoch's requantization.
    pub accuracies: Vec<f32>,
}

/// Approximation-aware fine-tuning: retrains the float `shadow` weights
/// against the quantized/approximate forward under `kernel`.
///
/// This is [`universal_adversarial_fit`] with a zero ball, so the two
/// share one loop: the shadow is quantized once (the PTQ baseline), then
/// per epoch SGD + momentum
/// ([`Sgd::step_scaled`](axnn::optim::Sgd::step_scaled), fused `1/n` mean
/// scaling) runs over shuffled minibatches on the batched STE engine and
/// the shadow weights are requantized
/// ([`QuantModel::from_float_with_level`], activation scales
/// recalibrated on `calib`) and scored.
///
/// Returns the history plus the **final requantized model** (the victim
/// the defense ships), so callers evaluate it directly instead of paying
/// a duplicate quantization/calibration pass.
///
/// Deterministic *and thread-invariant*: same inputs produce bit-identical
/// shadow weights and [`FinetuneHistory`] for any `AXDNN_THREADS`.
///
/// # Errors
///
/// Returns [`AxError::Config`] when quantization rejects the model
/// topology, `calib` is empty, or a calibration image's dims differ from
/// the first one's (see [`QuantModel::from_float`]).
///
/// # Panics
///
/// Panics on an empty dataset.
pub fn finetune<K: MulKernel + ?Sized>(
    shadow: &mut Sequential,
    data: &Dataset,
    calib: &[Tensor],
    kernel: &K,
    cfg: &FinetuneConfig,
) -> Result<(FinetuneHistory, QuantModel), AxError> {
    let zero_ball = UniversalFinetuneConfig {
        base: cfg.clone(),
        eps: 0.0,
        ..Default::default()
    };
    let (history, qm, _) = universal_adversarial_fit(shadow, data, calib, kernel, &zero_ball)?;
    Ok((history.base, qm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmul::{ExactMul, Registry};
    use axnn::layer::{AvgPool2d, Conv2d, Dense};
    use axnn::zoo;
    use axutil::rng::Rng;

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

    /// A small conv+pool+dense model in the supported topology.
    fn small_conv(seed: u64) -> Sequential {
        let rng = &mut Rng::seed_from_u64(seed);
        Sequential::new(
            "small-conv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::AvgPool(AvgPool2d::new(2)),
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 4 * 4, 6, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(6, 4, rng)),
            ],
        )
    }

    #[test]
    fn ste_gradients_approximate_float_gradients_under_exact_kernel() {
        // With the exact multiplier and INT8 quantization, the STE
        // gradient should point close to the true float gradient.
        let model = small_conv(11);
        let calib = calib_images(8, &[1, 8, 8], 12);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &[1, 8, 8]);
        let mut s = plan.scratch();
        let x = &calib[0];
        let (_, ste) = plan.loss_and_param_grads(&mut s, x, 2, &ExactMul);
        let (_, float) = model.loss_and_grads(x, 2);
        for (layer_idx, (a, b)) in ste.layers.iter().zip(&float.layers).enumerate() {
            for (ta, tb) in a.iter().zip(b) {
                let dot: f32 = ta.data().iter().zip(tb.data()).map(|(x, y)| x * y).sum();
                let na = ta.l2_norm();
                let nb = tb.l2_norm();
                if na > 1e-6 && nb > 1e-6 {
                    let cos = dot / (na * nb);
                    assert!(
                        cos > 0.8,
                        "layer {layer_idx}: STE gradient diverges (cos {cos})"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_grads_are_bit_exact_with_per_image_fold() {
        let model = small_conv(21);
        let calib = calib_images(8, &[1, 8, 8], 22);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &[1, 8, 8]);
        let approx = Registry::standard().build_lut("L40").unwrap();
        let images = calib_images(5, &[1, 8, 8], 23);
        let labels: Vec<usize> = (0..5).map(|i| i % 4).collect();
        let (loss, grads) =
            plan.loss_and_param_grads_batch(5, |i| &images[i], |i| labels[i], &approx);
        let mut s = plan.scratch();
        let mut want_loss = 0.0f32;
        let mut want = plan.zero_grads();
        for (img, &lbl) in images.iter().zip(&labels) {
            let (l, g) = plan.loss_and_param_grads(&mut s, img, lbl, &approx);
            want_loss += l;
            want.accumulate(&g);
        }
        assert_eq!(loss, want_loss);
        assert_eq!(grads, want);
    }

    #[test]
    fn finetune_reduces_quantized_loss() {
        // An untrained model fine-tuned through the exact quantized
        // forward must learn (loss drops over epochs).
        let data = {
            let mut rng = Rng::seed_from_u64(31);
            let mut imgs = Vec::new();
            let mut labels = Vec::new();
            for _ in 0..60 {
                let label = rng.index(4);
                let mut t = Tensor::zeros(&[1, 8, 8]);
                rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
                t.data_mut()[label * 7] += 1.0;
                imgs.push(t);
                labels.push(label);
            }
            Dataset::new("tiny", imgs, labels, 4)
        };
        let mut shadow = small_conv(32);
        let calib: Vec<Tensor> = (0..8).map(|i| data.image(i).clone()).collect();
        let cfg = FinetuneConfig {
            epochs: 4,
            batch_size: 8,
            lr: 0.05,
            ..Default::default()
        };
        let (hist, tuned) = finetune(&mut shadow, &data, &calib, &ExactMul, &cfg).unwrap();
        assert_eq!(hist.losses.len(), 4);
        assert!(
            hist.losses.last().unwrap() < hist.losses.first().unwrap(),
            "losses {:?}",
            hist.losses
        );
        assert!(
            hist.accuracies.last().unwrap() >= &hist.initial_accuracy,
            "acc {:?} from {}",
            hist.accuracies,
            hist.initial_accuracy
        );
        // The returned victim is the final requantization of the shadow.
        let again =
            QuantModel::from_float_with_level(&shadow, &calib, cfg.placement, cfg.level).unwrap();
        assert_eq!(tuned, again);
    }

    #[test]
    #[should_panic(expected = "non-empty batch")]
    fn empty_batch_is_rejected() {
        let model = small_conv(41);
        let calib = calib_images(2, &[1, 8, 8], 42);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &[1, 8, 8]);
        let _ =
            plan.loss_and_param_grads_batch(0, |_| unreachable!(), |_| unreachable!(), &ExactMul);
    }

    #[test]
    #[should_panic(expected = "planned shape")]
    fn mixed_shape_batch_is_rejected() {
        let model = small_conv(43);
        let calib = calib_images(2, &[1, 8, 8], 44);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let plan = QTrainPlan::compile(&qm, &model, &[1, 8, 8]);
        let ok = calib[0].clone();
        let bad = Tensor::zeros(&[8, 8]); // same length, different shape
        let images = [ok, bad];
        let _ = plan.loss_and_param_grads_batch(2, |i| &images[i], |_| 0, &ExactMul);
    }

    #[test]
    #[should_panic(expected = "is not the conv")]
    fn mismatched_shadow_is_rejected() {
        let model = small_conv(45);
        let calib = calib_images(2, &[1, 8, 8], 46);
        let qm = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let other = zoo::ffnn(&mut Rng::seed_from_u64(47));
        let _ = QTrainPlan::compile(&qm, &other, &[1, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn finetune_rejects_empty_dataset() {
        let mut shadow = small_conv(48);
        let data = Dataset::new("empty", Vec::new(), Vec::new(), 4);
        let calib = calib_images(2, &[1, 8, 8], 49);
        let _ = finetune(
            &mut shadow,
            &data,
            &calib,
            &ExactMul,
            &FinetuneConfig::default(),
        );
    }
}
