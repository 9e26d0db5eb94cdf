//! Compiled float execution plans: shape resolution, scratch reuse, a
//! forward tape and the batched autodiff engine behind the gradient
//! attacks.
//!
//! An [`FPlan`] is compiled once per `(model, input shape)` pair: every
//! layer's output geometry, im2col patch footprint and activation length
//! is resolved up front, so running an image does no shape math and no
//! allocation — all intermediate state, including the
//! forward tape the backward pass replays, lives in a reusable
//! [`FScratch`].
//!
//! It is the one float executor: every forward, gradient and
//! calibration pass in the workspace runs here, bit-compatible with the
//! seed layer-by-layer loop that `axnn::reference` keeps for the tests
//! (see [`crate::exec`] for the accumulation-order argument). The batch
//! entry points ([`FPlan::predict_batch`],
//! [`FPlan::loss_and_param_grads_batch`]) run `N` images per pass,
//! chunked over threads via [`axutil::parallel::par_map_chunks`] with
//! one scratch per chunk; [`FPlan::layer_max_abs`], the calibration pass
//! of post-training quantization, walks its images on the caller's
//! thread. Each chunk runs in blocks of up to four images: the scratch's
//! tape holds a block, the forward runs once per block with the images
//! as the rows of every dense layer's GEMM ([`exec::dense_forward_rows`])
//! and of a conv covering its whole input ([`exec::conv_forward_rows`]),
//! and the backward walks the block down the tape once, interleaving the
//! images only inside a conv's input gradient
//! ([`exec::conv_input_grad`]). [`FPlan::input_gradient_block`] answers
//! an attack's lockstep query the same way on a caller's scratch; a
//! set's input gradients run through the plan's
//! [`crate::source::GradSource`] handles, one per thread chunk
//! ([`crate::source::map_source_blocks`]). The one-image entry points
//! ([`FPlan::forward`], [`FPlan::input_gradient`]) are blocks of one.
//!
//! Training rides the same engine through
//! [`FPlan::loss_and_param_grads_batch`], in two passes. The image pass
//! runs a whole minibatch on one plan with one scratch per thread chunk
//! (each conv layer's parameter gradient re-extracts its row-major
//! im2col patches from the tape); each image leaves a small record — a
//! dense layer's upstream gradient and input, the two factors of its
//! rank-one gradient, and a conv layer's own gradient. The fold
//! pass ([`exec::GradFold`]) then sums the records in image order over
//! the parameters of all layers, chunked over threads. Each parameter
//! adds its images in order `k = 0..n` and the fold is exact, so the
//! summed [`GradBuffer`] is bit-identical to the seed per-image
//! [`Sequential::loss_and_grads`] fold for **any** thread chunking.
//!
//! # Every plan borrows
//!
//! A plan holds references into its model's parameters and keeps no
//! derived copy of any weight, so compiling one is shape arithmetic only.
//! Every multi-call driver in the workspace still hoists one plan out of
//! its loop: the attack loops and batch entry points compile once per
//! crafting run, and the sweep driver `core::eval` compiles once per
//! grid. A fresh plan per call is left only where a
//! call is the whole job: the one-call conveniences on [`Sequential`]
//! (`forward`, `predict`, `loss_and_grads`, `loss_and_param_grads_batch`,
//! `accuracy`), one-image crafting (`axattack`'s `Attack::craft`),
//! calibration (once per `axquant::QuantModel::from_float`), and the
//! loops whose weights change every batch. [`crate::train::fit`]
//! compiles one plan per minibatch and drops it before the optimizer
//! steps the model, like the quantized trainer's delta ascent on its
//! float shadow.
//!
//! ```
//! use axnn::zoo;
//! use axtensor::Tensor;
//! use axutil::rng::Rng;
//!
//! let model = zoo::ffnn(&mut Rng::seed_from_u64(0));
//! let plan = model.plan(&[1, 28, 28]);
//! let mut scratch = plan.scratch();
//! let x = Tensor::full(&[1, 28, 28], 0.4);
//! let (loss, grad) = plan.input_gradient(&mut scratch, &x, 3);
//! assert_eq!(grad.dims(), &[1, 28, 28]);
//! assert!(loss > 0.0);
//! // A block query answers each image exactly as a one-image call does.
//! let block = plan.input_gradient_block(&mut scratch, &[x.clone(), x], &[3, 3]);
//! assert_eq!(block, vec![(loss, grad.clone()), (loss, grad)]);
//! ```

use std::ops::Range;

use axtensor::tensor::argmax;
use axtensor::Tensor;
use axutil::parallel;

use crate::exec;
use crate::layer::Layer;
use crate::loss::cross_entropy_with_grad;
use crate::model::{GradBuffer, Sequential};

/// One resolved layer of a compiled plan.
#[derive(Debug)]
enum FStep<'m> {
    /// Column-major im2col + [`exec::conv_forward_cols`] forward (a
    /// covering conv: [`exec::conv_forward_rows`]); direct input gradient
    /// ([`exec::conv_input_grad`]); row-major im2col for the parameter
    /// gradient.
    Conv {
        w: &'m Tensor,
        b: &'m Tensor,
        in_dims: [usize; 3],
        k: usize,
        stride: usize,
        pad: usize,
        /// Output positions (`oh * ow`) = forward GEMM rows.
        rows: usize,
        /// Patch width (`in_c * k * k`) = forward GEMM columns.
        cols: usize,
        out_dims: [usize; 3],
    },
    /// Row GEMM with bias added last.
    Dense {
        w: &'m Tensor,
        b: &'m Tensor,
        in_dim: usize,
        out_dim: usize,
    },
    AvgPool {
        k: usize,
        in_dims: [usize; 3],
    },
    /// Elementwise on flat buffers.
    Relu,
    /// Shape-only on flat buffers.
    Flatten,
}

/// A compiled float execution plan for one [`Sequential`] and input
/// shape.
///
/// Cheap to build (shape arithmetic only); holds references into the
/// model's parameters. See the [module docs](self) for the execution
/// model.
#[derive(Debug)]
pub struct FPlan<'m> {
    steps: Vec<FStep<'m>>,
    in_dims: Vec<usize>,
    in_len: usize,
    /// Per-image activation lengths: `act_lens[i]` is what step `i`
    /// reads, and the last entry is the logits length.
    act_lens: Vec<usize>,
    out_len: usize,
    /// Largest activation any step reads or writes (gradient ping-pong
    /// buffers are sized to this).
    max_act: usize,
    /// Largest one-image patch (`rows * cols`) of any non-covering conv
    /// step: the forward's column-major patch and the parameter
    /// gradient's row-major one reuse the same buffer.
    max_patch: usize,
    /// Largest input of a conv whose input gradient interleaves a block
    /// (every conv but a covering one, see [`exec::conv_covers_input`]).
    max_interleaved: usize,
    /// Record and parameter layout of the conv/dense steps, for the
    /// parameter-gradient backward and its batch fold.
    fold: exec::GradFold,
    /// Index of the lowest conv/dense step: a parameter-only backward
    /// stops there, since nothing reads the gradient below it.
    first_param: usize,
}

/// Reusable buffers for executing an [`FPlan`]: the forward tape (one
/// activation buffer per layer input plus the logits), a gradient
/// ping-pong pair, each holding a block of images, one image's im2col
/// patch, and the interleaved block a conv input gradient writes. Build
/// one per thread with [`FPlan::scratch`] and reuse it across images and
/// attack steps.
///
/// The patch holds `rows × cols` values (output positions × `in_c · k ·
/// k` taps) in one of two layouts: the forward writes it column-major
/// ([`exec::im2col_cols`], tap `t` of position `p` at `t * rows + p`),
/// the layout of [`exec::conv_forward_cols`] on every CPU; a conv's
/// parameter gradient rewrites it row-major ([`exec::im2col`], at `p *
/// cols + t`) for [`exec::conv_backward_params_tiled`].
#[derive(Debug)]
pub struct FScratch {
    /// `acts[i]` is the input to step `i`, image after image;
    /// `acts.last()` holds the logits.
    acts: Vec<Vec<f32>>,
    patch: Vec<f32>,
    grad: [Vec<f32>; 2],
    interleaved: Vec<f32>,
}

impl Sequential {
    /// Compiles a float execution plan for inputs of shape `input_dims`.
    ///
    /// # Panics
    ///
    /// Panics if `input_dims` does not match the model's expected layout
    /// (`[C, H, W]` into a first conv/pool layer, flattened length into a
    /// first dense layer).
    pub fn plan(&self, input_dims: &[usize]) -> FPlan<'_> {
        FPlan::compile(self, input_dims)
    }
}

impl<'m> FPlan<'m> {
    /// Resolves every layer's geometry once. See [`Sequential::plan`].
    pub fn compile(model: &'m Sequential, input_dims: &[usize]) -> Self {
        let mut dims: Vec<usize> = input_dims.to_vec();
        let in_len: usize = dims.iter().product();
        let mut max_act = in_len;
        let mut max_patch = 0usize;
        let mut max_interleaved = 0usize;
        let mut act_lens = Vec::with_capacity(model.layers().len());
        let mut steps = Vec::with_capacity(model.layers().len());
        for layer in model.layers() {
            act_lens.push(dims.iter().product());
            match layer {
                Layer::Conv2d(c) => {
                    let [ic, h, w] = dims[..] else {
                        panic!("conv input must be [C, H, W], got {dims:?}");
                    };
                    let [oc, wic, kh, kw] = *c.weight().dims() else {
                        unreachable!("conv weights are 4-D");
                    };
                    assert_eq!(ic, wic, "conv channel mismatch");
                    assert_eq!(kh, kw, "square kernels only");
                    let (k, stride, pad) = (kh, c.stride(), c.pad());
                    let oh = (h + 2 * pad)
                        .checked_sub(k)
                        .expect("kernel larger than input")
                        / stride
                        + 1;
                    let ow = (w + 2 * pad)
                        .checked_sub(k)
                        .expect("kernel larger than input")
                        / stride
                        + 1;
                    let (rows, cols) = (oh * ow, ic * k * k);
                    if !exec::conv_covers_input([ic, h, w], k, pad) {
                        max_patch = max_patch.max(rows * cols);
                        max_interleaved = max_interleaved.max(ic * h * w);
                    }
                    steps.push(FStep::Conv {
                        w: c.weight(),
                        b: c.bias(),
                        in_dims: [ic, h, w],
                        k,
                        stride,
                        pad,
                        rows,
                        cols,
                        out_dims: [oc, oh, ow],
                    });
                    dims = vec![oc, oh, ow];
                }
                Layer::Dense(d) => {
                    let flat: usize = dims.iter().product();
                    let [out_dim, in_dim] = *d.weight().dims() else {
                        unreachable!("dense weights are 2-D");
                    };
                    assert_eq!(flat, in_dim, "dense input size mismatch");
                    steps.push(FStep::Dense {
                        w: d.weight(),
                        b: d.bias(),
                        in_dim,
                        out_dim,
                    });
                    dims = vec![out_dim];
                }
                Layer::AvgPool(p) => {
                    let [c, h, w] = dims[..] else {
                        panic!("pool input must be [C, H, W], got {dims:?}");
                    };
                    let k = p.k();
                    assert!(h % k == 0 && w % k == 0, "pool window does not tile input");
                    let (oh, ow) = (h / k, w / k);
                    steps.push(FStep::AvgPool {
                        k,
                        in_dims: [c, h, w],
                    });
                    dims = vec![c, oh, ow];
                }
                Layer::Relu => steps.push(FStep::Relu),
                Layer::Flatten => {
                    steps.push(FStep::Flatten);
                    dims = vec![dims.iter().product()];
                }
            }
            max_act = max_act.max(dims.iter().product());
        }
        act_lens.push(dims.iter().product());
        let fold = exec::GradFold::new(steps.iter().filter_map(|step| match *step {
            FStep::Conv { out_dims, cols, .. } => Some(exec::ParamRecord::Summed {
                len: out_dims[0] * (cols + 1),
            }),
            FStep::Dense {
                in_dim, out_dim, ..
            } => Some(exec::ParamRecord::Dense { out_dim, in_dim }),
            _ => None,
        }));
        let first_param = steps
            .iter()
            .position(|step| matches!(step, FStep::Conv { .. } | FStep::Dense { .. }))
            .unwrap_or(0);
        FPlan {
            steps,
            in_dims: input_dims.to_vec(),
            in_len,
            act_lens,
            out_len: dims.iter().product(),
            max_act,
            max_patch,
            max_interleaved,
            fold,
            first_param,
        }
    }

    /// The planned input shape.
    pub fn input_dims(&self) -> &[usize] {
        &self.in_dims
    }

    /// Length of the logits vector.
    pub fn out_len(&self) -> usize {
        self.out_len
    }

    /// Allocates the scratch buffers (a block of images' forward tape and
    /// gradient ping-pong, one image's im2col patch, one interleaved conv
    /// input gradient block) this plan needs.
    pub fn scratch(&self) -> FScratch {
        let block = |n: usize| vec![0.0f32; exec::BLOCK * n];
        FScratch {
            acts: self.act_lens.iter().map(|&n| block(n)).collect(),
            patch: vec![0.0f32; self.max_patch],
            grad: [block(self.max_act), block(self.max_act)],
            interleaved: block(self.max_interleaved),
        }
    }

    /// Runs the forward pass of images `block` (at most [`exec::BLOCK`]),
    /// recording every layer input in the tape, image after image. Leaves
    /// the logits in the tape's final buffer. Dense layers and a conv
    /// covering its whole input see the block's images as GEMM rows
    /// ([`exec::dense_forward_rows`], [`exec::conv_forward_rows`]); every
    /// other conv extracts one column-major patch per image
    /// ([`exec::im2col_cols`]) for [`exec::conv_forward_cols`].
    fn run_forward<'a, F>(&self, s: &mut FScratch, block: Range<usize>, image: &F)
    where
        F: Fn(usize) -> &'a Tensor,
    {
        let nb = block.len();
        debug_assert!((1..=exec::BLOCK).contains(&nb));
        let FScratch { acts, patch, .. } = s;
        for (x_b, i) in acts[0].chunks_exact_mut(self.in_len).zip(block) {
            let x = image(i);
            assert_eq!(
                x.dims(),
                &self.in_dims[..],
                "input does not match the planned shape"
            );
            x_b.copy_from_slice(x.data());
        }
        for (i, step) in self.steps.iter().enumerate() {
            let (head, tail) = acts.split_at_mut(i + 1);
            let (in_len, out_len) = (self.act_lens[i], self.act_lens[i + 1]);
            let src = &head[i][..nb * in_len];
            let dst = &mut tail[0][..nb * out_len];
            let images = src.chunks_exact(in_len).zip(dst.chunks_exact_mut(out_len));
            match *step {
                FStep::Conv {
                    w,
                    b,
                    in_dims,
                    k,
                    stride,
                    pad,
                    rows,
                    cols,
                    ..
                } => {
                    if exec::conv_covers_input(in_dims, k, pad) {
                        exec::conv_forward_rows(w.data(), b.data(), src, dst);
                    } else {
                        for (x, y) in images {
                            exec::im2col_cols(x, in_dims, k, stride, pad, rows, cols, patch);
                            exec::conv_forward_cols(w.data(), b.data(), patch, rows, cols, y);
                        }
                    }
                }
                FStep::Dense { w, b, .. } => {
                    exec::dense_forward_rows(w.data(), b.data(), src, dst);
                }
                FStep::AvgPool { k, in_dims, .. } => {
                    for (x, y) in images {
                        exec::avgpool(x, in_dims, k, y);
                    }
                }
                FStep::Relu => exec::relu(src, dst),
                FStep::Flatten => dst.copy_from_slice(src),
            }
        }
    }

    /// Image `b`'s logits after [`FPlan::run_forward`].
    fn logits<'s>(&self, s: &'s FScratch, b: usize) -> &'s [f32] {
        let logits = s.acts.last().expect("tape holds the logits");
        &logits[b * self.out_len..(b + 1) * self.out_len]
    }

    /// Runs images `range` block by block on `s`: one forward per block,
    /// then `per_block(s, block)`, whose results (one per image of the
    /// block, in order) are concatenated.
    fn map_blocks<'a, F, R>(
        &self,
        s: &mut FScratch,
        range: Range<usize>,
        image: &F,
        mut per_block: impl FnMut(&mut FScratch, Range<usize>) -> Vec<R>,
    ) -> Vec<R>
    where
        F: Fn(usize) -> &'a Tensor,
    {
        let mut out = Vec::with_capacity(range.len());
        for start in range.clone().step_by(exec::BLOCK) {
            let block = start..range.end.min(start + exec::BLOCK);
            self.run_forward(s, block.clone(), image);
            out.extend(per_block(s, block));
        }
        out
    }

    /// Runs one image forward, returning logits. Bit-compatible with the
    /// seed layer-by-layer path (see the [module docs](self)).
    pub fn forward(&self, s: &mut FScratch, x: &Tensor) -> Tensor {
        self.run_forward(s, 0..1, &|_| x);
        Tensor::from_vec(self.logits(s, 0).to_vec(), &[self.out_len])
    }

    /// The predicted class for one image.
    pub fn predict(&self, s: &mut FScratch, x: &Tensor) -> usize {
        self.run_forward(s, 0..1, &|_| x);
        argmax(self.logits(s, 0))
    }

    /// Entry `i` is the largest absolute value of step `i`'s output over
    /// images `0..n`: the max-abs calibration of post-training
    /// quantization. Runs the images in blocks on one scratch on the
    /// caller's thread; a maximum folded like [`Tensor::max_abs`] does
    /// not depend on the order it sees the values in.
    ///
    /// # Panics
    ///
    /// Panics if an image does not have the planned shape.
    pub fn layer_max_abs<'a>(&self, n: usize, image: impl Fn(usize) -> &'a Tensor) -> Vec<f32> {
        let mut s = self.scratch();
        let mut max = vec![0.0f32; self.steps.len()];
        for start in (0..n).step_by(exec::BLOCK) {
            let block = start..n.min(start + exec::BLOCK);
            let nb = block.len();
            self.run_forward(&mut s, block, &image);
            for ((m, act), &len) in max.iter_mut().zip(&s.acts[1..]).zip(&self.act_lens[1..]) {
                *m = act[..nb * len].iter().fold(*m, |m, &v| m.max(v.abs()));
            }
        }
        max
    }

    /// Back-propagates the loss gradients of the block's images (the
    /// block forward must have run; image `b` of the block is scored
    /// against `targets[b]`) down the tape in one walk. Between layers
    /// the gradients sit image after image like the tape; only a conv's
    /// input gradient interleaves the block, into one
    /// [`exec::conv_input_grad`] call with the images innermost (a
    /// covering conv, or a block of one, runs image by image). Returns
    /// the per-image losses and the ping-pong side holding the block's
    /// input gradients.
    ///
    /// With `records` (one zeroed [`exec::GradFold::record_len`] record
    /// per image) the walk writes every conv/dense layer's per-image
    /// parameter-gradient record and stops at the lowest such layer:
    /// nothing reads the gradient below it, so the returned side is then
    /// meaningless.
    fn run_backward(
        &self,
        s: &mut FScratch,
        targets: &[usize],
        mut records: Option<&mut [Vec<f32>]>,
    ) -> (Vec<f32>, usize) {
        let nb = targets.len();
        debug_assert!((1..=exec::BLOCK).contains(&nb));
        let mut losses = Vec::with_capacity(nb);
        for (b, &target) in targets.iter().enumerate() {
            let logits = Tensor::from_vec(self.logits(s, b).to_vec(), &[self.out_len]);
            let (loss, dlogits) = cross_entropy_with_grad(&logits, target);
            s.grad[0][b * self.out_len..][..self.out_len].copy_from_slice(dlogits.data());
            losses.push(loss);
        }
        let mut side = 0usize;
        let FScratch {
            acts,
            patch,
            grad,
            interleaved,
        } = s;
        // Ordinal of the next conv/dense layer down, for `records`.
        let mut param = self.fold.layer_count();
        for (i, step) in self.steps.iter().enumerate().rev() {
            let (in_len, out_len) = (self.act_lens[i], self.act_lens[i + 1]);
            let xs = &acts[i][..nb * in_len];
            let (gsrc, gdst) = grad_sides(grad, side);
            let gs = &gsrc[..nb * out_len];
            let images = xs.chunks_exact(in_len).zip(gs.chunks_exact(out_len));
            match *step {
                FStep::Conv {
                    in_dims,
                    k,
                    stride,
                    pad,
                    rows,
                    cols,
                    out_dims,
                    w,
                    ..
                } => {
                    let covers = exec::conv_covers_input(in_dims, k, pad);
                    if let Some(records) = records.as_deref_mut() {
                        param -= 1;
                        for ((x, g), record) in images.zip(records.iter_mut()) {
                            // Parameter grads read the forward patches of
                            // this layer's input, re-extracted from the
                            // tape (a covering conv's patch is its input).
                            let patch = if covers {
                                x
                            } else {
                                exec::im2col(x, in_dims, k, stride, pad, rows, cols, patch);
                                &patch[..]
                            };
                            let (dw, db) = self
                                .fold
                                .layer_record(param, record)
                                .split_at_mut(out_dims[0] * cols);
                            exec::conv_backward_params_tiled(g, patch, rows, cols, dw, db);
                        }
                        if i == self.first_param {
                            break;
                        }
                    }
                    let w = w.data();
                    if covers || nb == 1 {
                        for (g, dx) in gs.chunks_exact(out_len).zip(gdst.chunks_exact_mut(in_len)) {
                            exec::conv_input_grad(w, g, out_dims, in_dims, k, stride, pad, 1, dx);
                        }
                    } else {
                        // `gdst` is free until the end: it holds the
                        // interleaved upstream block for the kernel.
                        interleave(gs, out_len, nb, gdst);
                        let dx = &mut interleaved[..nb * in_len];
                        exec::conv_input_grad(
                            w,
                            &gdst[..nb * out_len],
                            out_dims,
                            in_dims,
                            k,
                            stride,
                            pad,
                            nb,
                            dx,
                        );
                        deinterleave(dx, in_len, nb, gdst);
                    }
                }
                FStep::Dense {
                    w, in_dim, out_dim, ..
                } => {
                    if let Some(records) = records.as_deref_mut() {
                        param -= 1;
                        for ((x, g), record) in images.clone().zip(records.iter_mut()) {
                            let (rg, rx) =
                                self.fold.layer_record(param, record).split_at_mut(out_dim);
                            rg.copy_from_slice(g);
                            rx.copy_from_slice(x);
                        }
                        if i == self.first_param {
                            break;
                        }
                    }
                    for ((x, g), dx) in images.zip(gdst.chunks_exact_mut(in_dim)) {
                        exec::dense_backward_tiled(w.data(), g, x, dx, None, None);
                    }
                }
                FStep::AvgPool { k, in_dims, .. } => {
                    for (g, dx) in gs.chunks_exact(out_len).zip(gdst.chunks_exact_mut(in_len)) {
                        exec::avgpool_backward(g, in_dims, k, dx);
                    }
                }
                FStep::Relu => exec::relu_backward(xs, gs, &mut gdst[..nb * in_len]),
                FStep::Flatten => gdst[..nb * in_len].copy_from_slice(gs),
            }
            side = 1 - side;
        }
        (losses, side)
    }

    /// The block's losses and input gradients after a block forward, image
    /// `b` scored against `targets[b]`.
    fn block_input_gradients(&self, s: &mut FScratch, targets: &[usize]) -> Vec<(f32, Tensor)> {
        let (losses, side) = self.run_backward(s, targets, None);
        let grads = s.grad[side].chunks_exact(self.in_len);
        (losses.into_iter().zip(grads))
            .map(|(loss, g)| (loss, Tensor::from_vec(g.to_vec(), &self.in_dims)))
            .collect()
    }

    /// The block's losses and parameter-gradient records (see
    /// [`exec::GradFold`]) after a block forward.
    fn block_records(&self, s: &mut FScratch, targets: &[usize]) -> Vec<(f32, Vec<f32>)> {
        let mut records = vec![vec![0.0f32; self.fold.record_len()]; targets.len()];
        let (losses, _) = self.run_backward(s, targets, Some(&mut records));
        losses.into_iter().zip(records).collect()
    }

    /// Cross-entropy loss and the gradient with respect to the input —
    /// the quantity gradient-based adversarial attacks ascend: a block
    /// of one. Bit-compatible with the seed layer-by-layer path.
    pub fn input_gradient(&self, s: &mut FScratch, x: &Tensor, target: usize) -> (f32, Tensor) {
        let mut out = self.input_gradient_block(s, std::slice::from_ref(x), &[target]);
        out.pop().expect("a block of one has one gradient")
    }

    /// Losses and input gradients of every `xs[i]` against `targets[i]`
    /// on one scratch, in blocks of up to [`exec::BLOCK`] images: one
    /// forward and one backward walk per block. The query an attack
    /// handle answers for its images in lockstep; image `i` is
    /// bit-identical to `input_gradient(s, &xs[i], targets[i])`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `targets` disagree in length, or an image does
    /// not have the planned shape.
    pub fn input_gradient_block(
        &self,
        s: &mut FScratch,
        xs: &[Tensor],
        targets: &[usize],
    ) -> Vec<(f32, Tensor)> {
        assert_eq!(xs.len(), targets.len(), "images/targets length mismatch");
        self.map_blocks(s, 0..xs.len(), &|i| &xs[i], |s, block| {
            self.block_input_gradients(s, &targets[block])
        })
    }

    /// Cross-entropy loss and parameter gradients for one example: the
    /// batch fold over a batch of one. Bit-compatible with the seed
    /// [`Sequential::loss_and_grads`] path.
    pub fn loss_and_grads(&self, s: &mut FScratch, x: &Tensor, target: usize) -> (f32, GradBuffer) {
        self.run_forward(s, 0..1, &|_| x);
        let (loss, record) = self.block_records(s, &[target]).remove(0);
        let mut grads = self.zero_grads();
        self.fold.fold_into(&[record], &mut grads);
        (loss, grads)
    }

    fn zero_layer_grads(&self, i: usize) -> Vec<Tensor> {
        match &self.steps[i] {
            FStep::Conv { w, b, .. } | FStep::Dense { w, b, .. } => {
                vec![Tensor::zeros(w.dims()), Tensor::zeros(b.dims())]
            }
            _ => vec![],
        }
    }

    /// Predicted classes of images `0..n` in parallel image chunks with
    /// one scratch per chunk, one forward per block of images — the
    /// predictions [`Sequential::accuracy`] scores.
    pub fn predict_batch<'a, F>(&self, n: usize, image: F) -> Vec<usize>
    where
        F: Fn(usize) -> &'a Tensor + Sync,
    {
        parallel::par_map_chunks(n, |range| {
            self.map_blocks(&mut self.scratch(), range, &image, |s, block| {
                (0..block.len())
                    .map(|b| argmax(self.logits(s, b)))
                    .collect()
            })
        })
    }

    /// Summed cross-entropy loss and parameter gradients over a whole
    /// minibatch — the training hot path.
    ///
    /// Two passes, each one [`axutil::parallel::par_map_chunks`] call:
    ///
    /// 1. **Images.** Contiguous image chunks run on one
    ///    [`FPlan::scratch`] per chunk, one forward and one backward walk
    ///    per block of images. Each image leaves a
    ///    small record instead of a full gradient: a dense layer's
    ///    upstream gradient `g` and input `x` (its per-image gradient is
    ///    the outer product `g xᵀ`), a conv layer's own per-image
    ///    gradient. The backward stops at the lowest conv/dense layer,
    ///    whose input gradient nobody reads.
    /// 2. **Fold.** [`exec::GradFold`] sums the records in image order
    ///    over the flat parameter range of all layers, chunked over
    ///    threads: `dw[o][t] = Σ_k g_k[o] · x_k[t]`, `db[o] = Σ_k g_k[o]`.
    ///
    /// Each parameter is summed over images in order `k = 0..n` whatever
    /// the chunking, and the fold is exact (see [`exec::GradFold`]), so
    /// the sum — and the summed loss — is **bit-identical** to the seed
    /// per-image fold `for i { loss += l_i; grads.accumulate(&g_i) }`
    /// for any `AXDNN_THREADS`.
    ///
    /// Callers wanting the *mean* scale by `1 / n` afterwards, exactly
    /// like the seed loop ([`crate::train::fit`] folds the scale into
    /// [`crate::optim::Sgd::step_scaled`]).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch — a zero gradient there would silently
    /// stall training, matching the non-empty conventions of
    /// [`Sequential::accuracy`].
    pub fn loss_and_param_grads_batch<'a, F, G>(
        &self,
        n: usize,
        image: F,
        label: G,
    ) -> (f32, GradBuffer)
    where
        F: Fn(usize) -> &'a Tensor + Sync,
        G: Fn(usize) -> usize + Sync,
    {
        assert!(n > 0, "loss_and_param_grads_batch needs a non-empty batch");
        self.fold.batch(
            n,
            |range| {
                self.map_blocks(&mut self.scratch(), range, &image, |s, block| {
                    self.block_records(s, &block.map(&label).collect::<Vec<_>>())
                })
            },
            self.zero_grads(),
        )
    }

    /// Zero gradients shaped like the planned model's parameters (the
    /// same layout as [`Sequential::zero_grads`]).
    pub fn zero_grads(&self) -> GradBuffer {
        GradBuffer {
            layers: (0..self.steps.len())
                .map(|i| self.zero_layer_grads(i))
                .collect(),
        }
    }
}

/// Interleaves `nb` images of `len` values each, held back to back in
/// `src`, so that the images are the innermost axis of `dst`:
/// `dst[t * nb + b] = src[b * len + t]`.
fn interleave(src: &[f32], len: usize, nb: usize, dst: &mut [f32]) {
    for (t, d) in dst[..len * nb].chunks_exact_mut(nb).enumerate() {
        for (b, v) in d.iter_mut().enumerate() {
            *v = src[b * len + t];
        }
    }
}

/// The inverse of [`interleave`]: `dst[b * len + t] = src[t * nb + b]`.
fn deinterleave(src: &[f32], len: usize, nb: usize, dst: &mut [f32]) {
    for (t, s) in src[..len * nb].chunks_exact(nb).enumerate() {
        for (b, &v) in s.iter().enumerate() {
            dst[b * len + t] = v;
        }
    }
}

/// Splits the gradient ping-pong pair into `(read, write)` for `side`.
fn grad_sides(grad: &mut [Vec<f32>; 2], side: usize) -> (&Vec<f32>, &mut Vec<f32>) {
    let (lo, hi) = grad.split_at_mut(1);
    if side == 0 {
        (&lo[0], &mut hi[0])
    } else {
        (&hi[0], &mut lo[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::map_source_blocks;
    use crate::{reference, zoo};
    use axutil::parallel::with_threads;
    use axutil::rng::Rng;

    fn rand_image(dims: &[usize], seed: u64) -> Tensor {
        let mut t = Tensor::zeros(dims);
        Rng::seed_from_u64(seed).fill_range_f32(t.data_mut(), 0.0, 1.0);
        t
    }

    #[test]
    fn lenet_plan_is_bit_identical_to_seed_paths() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(3));
        let plan = model.plan(&[1, 28, 28]);
        let mut s = plan.scratch();
        for seed in 0..4 {
            let x = rand_image(&[1, 28, 28], seed);
            let y = plan.forward(&mut s, &x);
            assert_eq!(y, reference::forward(&model, &x));
            let (loss, grad) = plan.input_gradient(&mut s, &x, seed as usize % 10);
            let (sl, sg) = reference::backward(&model, &x, seed as usize % 10, None);
            assert_eq!(loss, sl);
            assert_eq!(grad, sg);
        }
    }

    #[test]
    fn alexnet_padded_plan_matches_seed() {
        let model = zoo::alexnet_mini(&mut Rng::seed_from_u64(5));
        let plan = model.plan(&[3, 32, 32]);
        let mut s = plan.scratch();
        let x = rand_image(&[3, 32, 32], 9);
        assert_eq!(
            plan.forward(&mut s, &x).data(),
            reference::forward(&model, &x).data()
        );
        let (_, grad) = plan.input_gradient(&mut s, &x, 7);
        let (_, sg) = reference::backward(&model, &x, 7, None);
        assert_eq!(grad, sg);
    }

    #[test]
    fn strided_conv_backward_matches_seed() {
        use crate::layer::{Conv2d, Dense, Layer};
        let mut rng = Rng::seed_from_u64(8);
        let model = Sequential::new(
            "strided",
            vec![
                Layer::Conv2d(Conv2d::new(2, 3, 3, 2, 1, &mut rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(3 * 4 * 4, 5, &mut rng)),
            ],
        );
        let plan = model.plan(&[2, 7, 7]);
        let mut s = plan.scratch();
        let x = rand_image(&[2, 7, 7], 11);
        let (loss, grad) = plan.input_gradient(&mut s, &x, 2);
        let (sl, sg) = reference::backward(&model, &x, 2, None);
        assert_eq!(loss, sl);
        assert_eq!(grad, sg);
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(12));
        let plan = model.plan(&[1, 28, 28]);
        let mut s = plan.scratch();
        let a = rand_image(&[1, 28, 28], 1);
        let b = rand_image(&[1, 28, 28], 2);
        let first = plan.input_gradient(&mut s, &a, 3);
        let other = plan.input_gradient(&mut s, &b, 5);
        let again = plan.input_gradient(&mut s, &a, 3);
        assert_eq!(first, again);
        assert_ne!(first, other);
    }

    #[test]
    fn loss_and_grads_matches_seed_path() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(21));
        let plan = model.plan(&[1, 28, 28]);
        let mut s = plan.scratch();
        let x = rand_image(&[1, 28, 28], 22);
        let (loss, buf) = plan.loss_and_grads(&mut s, &x, 4);
        let mut sbuf = model.zero_grads();
        let (sl, _) = reference::backward(&model, &x, 4, Some(&mut sbuf));
        assert_eq!(loss, sl);
        assert_eq!(buf, sbuf);
    }

    #[test]
    fn batched_input_gradients_match_scalar() {
        // A set's input gradients through the plan's gradient source (one
        // handle per thread chunk, one block query per block) against
        // one-image calls, at every chunking.
        let model = zoo::ffnn(&mut Rng::seed_from_u64(31));
        let images: Vec<Tensor> = (0..9).map(|i| rand_image(&[1, 28, 28], 40 + i)).collect();
        let labels: Vec<usize> = (0..9).map(|i| (i as usize * 3) % 10).collect();
        let plan = model.plan(&[1, 28, 28]);
        let mut s = plan.scratch();
        let want: Vec<Tensor> = (images.iter().zip(&labels))
            .map(|(img, &lbl)| plan.input_gradient(&mut s, img, lbl).1)
            .collect();
        for threads in [1, 2, 3, 7] {
            with_threads(threads, || {
                for n in [1, 2, 3, 4, 5, 7, 9] {
                    let got = map_source_blocks(&plan, n, |handle, block| {
                        let mut rngs = vec![Rng::seed_from_u64(0); block.len()];
                        handle.input_gradient_block(
                            &images[block.clone()],
                            &labels[block],
                            &mut rngs,
                        )
                    });
                    assert_eq!(got, want[..n], "n {n} threads {threads}");
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "planned shape")]
    fn wrong_input_shape_is_rejected() {
        let model = zoo::ffnn(&mut Rng::seed_from_u64(1));
        let plan = model.plan(&[1, 28, 28]);
        let mut s = plan.scratch();
        let _ = plan.forward(&mut s, &Tensor::zeros(&[1, 8, 8]));
    }

    #[test]
    #[should_panic(expected = "planned shape")]
    fn same_length_wrong_shape_is_rejected() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(2));
        let plan = model.plan(&[1, 28, 28]);
        let mut s = plan.scratch();
        let _ = plan.forward(&mut s, &Tensor::zeros(&[28, 1, 28]));
    }

    #[test]
    #[should_panic(expected = "planned shape")]
    fn mixed_shape_set_is_rejected_by_count_correct() {
        // Named after the `count_correct` walk that `predict_batch`
        // replaced; it runs `predict_batch`. The odd image sits in the
        // middle of the first block: every image of a block is checked,
        // not just its first.
        let model = zoo::lenet5(&mut Rng::seed_from_u64(3));
        let plan = model.plan(&[1, 28, 28]);
        let mut images: Vec<Tensor> = (0..5).map(|i| rand_image(&[1, 28, 28], i)).collect();
        images[2] = Tensor::zeros(&[28, 28, 1]);
        let _ = plan.predict_batch(images.len(), |i| &images[i]);
    }

    #[test]
    fn batched_param_grads_match_serial_fold() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(45));
        let images: Vec<Tensor> = (0..5).map(|i| rand_image(&[1, 28, 28], 60 + i)).collect();
        let labels: Vec<usize> = (0..5).map(|i| (i * 7) % 10).collect();
        let plan = model.plan(&[1, 28, 28]);
        let (loss, grads) =
            plan.loss_and_param_grads_batch(images.len(), |i| &images[i], |i| labels[i]);
        let mut want_loss = 0.0f32;
        let mut want = model.zero_grads();
        for (img, &lbl) in images.iter().zip(&labels) {
            let (l, g) = model.loss_and_grads(img, lbl);
            want_loss += l;
            want.accumulate(&g);
        }
        assert_eq!(loss, want_loss);
        assert_eq!(grads, want);
    }

    #[test]
    #[should_panic(expected = "non-empty batch")]
    fn empty_param_grad_batch_is_rejected() {
        let model = zoo::ffnn(&mut Rng::seed_from_u64(46));
        let plan = model.plan(&[1, 28, 28]);
        let _ = plan.loss_and_param_grads_batch(0, |_| unreachable!(), |_| unreachable!());
    }
}
