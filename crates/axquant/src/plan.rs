//! Compiled execution plans: shape resolution, scratch reuse, and the
//! batched multi-kernel inference engine.
//!
//! A [`QPlan`] is compiled once per `(model, input shape)` pair: every
//! layer's output geometry, im2col patch size and activation footprint is
//! resolved up front, so running an image does no shape math and no
//! allocation — all intermediate state lives in a reusable [`QScratch`].
//! Flatten layers need no step: activations are flat buffers already.
//!
//! The scratch keeps every step's `u8` input codes in an activation
//! *tape*, one buffer per step and kernel lane, each holding a *block* of
//! up to four images back to back. Inference reads each entry once, but
//! the tape is what lets [`QTrainPlan`](crate::qtrain::QTrainPlan) run
//! its straight-through backward over this forward: a one-lane block
//! forward leaves behind exactly the codes the backward reads, image by
//! image.
//!
//! The batch entry points run `N images x M kernels` in one pass. Lanes
//! (one per kernel) share activation state until the first layer where
//! the victim kernel actually applies, so the input quantization and the
//! first conv layer's im2col patches — the largest in the network — are
//! computed once and reused by every kernel. Work is split across threads
//! in contiguous image chunks ([`axutil::parallel::par_map_chunks`]) with
//! one scratch per chunk, not per image, and each chunk runs block by
//! block ([`QPlan::predict_range`]): every layer's GEMM sees the block's
//! images as extra rows, so a dense layer reads each weight's magnitude,
//! sign and LUT row once per block. [`QPlan::forward_one`] and
//! [`QPlan::forward_multi`] are blocks of one: there is one quantized
//! forward.
//!
//! On an AVX2 CPU, a conv step whose block has at least eight GEMM rows
//! gets a *panel-major* im2col patch. The block's GEMM rows (output
//! positions, image after image) are cut into panels of eight, and each
//! panel holds its patch columns one after another, each column as its
//! eight rows' codes: `[panel][column][8 rows]`. The last panel's unused
//! rows are zero. Eight codes of one column sit in one 8-byte word, which
//! is what the AVX2 panel kernel loads per gather (see [`crate::exec`]);
//! on LeNet-5 every panel lies inside one output row, so im2col copies
//! eight consecutive input pixels at a time. Other conv steps (LeNet-5's
//! one-row conv3 at one to four images, every conv on other CPUs) write
//! each image's row-major patch after the previous one, and dense steps
//! read their input codes in place, one row per image; on an AVX2 CPU a
//! table GEMM over rows of eight codes or more runs the row kernel, one
//! gather per eight codes of a row.
//!
//! The batch entry points ([`QPlan::forward_batch_indexed`],
//! [`QPlan::predict_batch_indexed`] and their slice wrappers) also run
//! each *distinct* kernel once. Weight magnitudes index LUT rows, so the
//! engine reads only rows `0..=max |w|` of a table (128 of 256 at INT8,
//! with `max |w|` taken over the approximated layers when the plan is
//! compiled). Tables equal on those rows give bit-identical logits, and
//! so do two builtin exact kernels: each such group runs as one lane and
//! its column is copied back to every member. Kernels behind a plain
//! trait call (`Generic` backends) always run. A stuck-at fault campaign,
//! whose sampled faults can leave the read rows intact, scores fewer
//! columns this way; [`QPlan::predict_range`], the per-chunk runner a
//! server drives, runs every kernel it is given.
//!
//! ```
//! use axmul::{ExactMul, MulLut};
//! use axnn::zoo;
//! use axquant::{Placement, QuantModel};
//! use axtensor::Tensor;
//! use axutil::rng::Rng;
//!
//! # fn main() -> Result<(), axutil::AxError> {
//! let model = zoo::lenet5(&mut Rng::seed_from_u64(0));
//! let calib = vec![Tensor::full(&[1, 28, 28], 0.5)];
//! let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly)?;
//!
//! let plan = qm.plan(&[1, 28, 28]);
//! let lut = MulLut::exact();
//! let kernels: [&dyn axmul::MulKernel; 2] = [&ExactMul, &lut];
//! let images = vec![Tensor::full(&[1, 28, 28], 0.25); 3];
//! let logits = plan.forward_batch_with(&images, &kernels);
//! assert_eq!(logits.len(), 3); // one row per image
//! assert_eq!(logits[0].len(), 2); // one column per kernel
//! assert_eq!(logits[0][0], logits[0][1]); // both kernels are exact
//! # Ok(())
//! # }
//! ```

use std::ops::Range;

use axmul::{MulBackend, MulKernel};
use axnn::exec as fexec;
use axtensor::tensor::argmax;
use axtensor::Tensor;
use axutil::parallel;

use crate::exec;
use crate::qmodel::{QLayer, QWeights, QuantModel};

/// One resolved layer of a compiled plan.
#[derive(Debug)]
pub(crate) enum Step<'m> {
    /// im2col + GEMM + requantize.
    Conv {
        w: &'m QWeights,
        approx: bool,
        in_dims: [usize; 3],
        k: usize,
        stride: usize,
        pad: usize,
        /// Number of output positions (`oh * ow`) = GEMM rows.
        rows: usize,
        /// Patch width (`in_c * k * k`) = GEMM columns.
        cols: usize,
        out_dims: [usize; 3],
    },
    /// Single-row GEMM + requantize (hidden dense layer).
    Dense {
        w: &'m QWeights,
        approx: bool,
        in_dim: usize,
        out_dim: usize,
    },
    /// Single-row GEMM + dequantize (final logits layer).
    DenseLogits {
        w: &'m QWeights,
        approx: bool,
        in_dim: usize,
        out_dim: usize,
    },
    AvgPool {
        k: usize,
        in_dims: [usize; 3],
        out_len: usize,
    },
}

/// A compiled execution plan for one [`QuantModel`] and input shape.
///
/// Cheap to build (shape arithmetic only); holds references into the
/// model's quantized weights. See the [module docs](self) for the
/// execution model.
#[derive(Debug)]
pub struct QPlan<'m> {
    model: &'m QuantModel,
    pub(crate) steps: Vec<Step<'m>>,
    in_dims: Vec<usize>,
    n_classes: usize,
    /// Largest one-image im2col patch (`rows * cols`) of any conv step.
    pub(crate) max_patch: usize,
    /// Largest weight magnitude of the approximated steps (`None` when
    /// no step is approximated): kernels are read on LUT rows
    /// `0..=max_mag` only.
    max_mag: Option<u8>,
}

/// Reusable buffers for executing a [`QPlan`].
///
/// Holds the im2col patch buffer, the activation tape — per step and
/// kernel lane, the step's `u8` input codes for one block of images —
/// and every lane's logits for the block. Build one per thread with
/// [`QPlan::scratch_for`] and reuse it across blocks.
#[derive(Debug)]
pub struct QScratch {
    lanes: usize,
    /// One conv step's im2col patch for a block, panel-major or
    /// row-major (see the [module docs](self)).
    patch: Vec<u8>,
    /// `tape[i][lane]` — the input codes of step `i`, image after image;
    /// `tape[i + 1]` holds its output codes (empty after the logits step,
    /// which writes `logits`).
    tape: Vec<Vec<Vec<u8>>>,
    /// `logits[lane]` — the block's logits, image after image.
    logits: Vec<Vec<f32>>,
}

impl QScratch {
    /// Image `b`'s input codes of step `i` on lane 0.
    pub(crate) fn codes(&self, i: usize, b: usize) -> &[u8] {
        let len = self.tape[i][0].len() / exec::BLOCK;
        &self.tape[i][0][b * len..(b + 1) * len]
    }

    /// Image `b`'s logits on lane 0.
    pub(crate) fn logits(&self, b: usize, n_classes: usize) -> &[f32] {
        &self.logits[0][b * n_classes..(b + 1) * n_classes]
    }
}

impl QuantModel {
    /// Compiles an execution plan for images of shape `input_dims`.
    ///
    /// # Panics
    ///
    /// Panics if `input_dims` does not match the model's expected layout
    /// (`[C, H, W]` into the first conv, flattened length into the first
    /// dense layer).
    pub fn plan(&self, input_dims: &[usize]) -> QPlan<'_> {
        QPlan::compile(self, input_dims)
    }
}

impl<'m> QPlan<'m> {
    /// Resolves every layer's geometry once. See [`QuantModel::plan`].
    pub fn compile(model: &'m QuantModel, input_dims: &[usize]) -> Self {
        let mut dims: Vec<usize> = input_dims.to_vec();
        let mut max_patch = 0;
        let mut n_classes = 0;
        let mut max_mag = None;
        let mut steps = Vec::new();
        for ql in model.qlayers() {
            match ql {
                QLayer::Conv {
                    w,
                    out_c,
                    in_c,
                    k,
                    stride,
                    pad,
                } => {
                    let [c, h, wd] = dims[..] else {
                        panic!("conv input must be [C, H, W], got {dims:?}");
                    };
                    assert_eq!(c, *in_c, "conv channel mismatch");
                    let oh = (h + 2 * pad - k) / stride + 1;
                    let ow = (wd + 2 * pad - k) / stride + 1;
                    let (rows, cols) = (oh * ow, in_c * k * k);
                    let approx = model.placement().applies_to_conv();
                    if approx {
                        max_mag = max_mag.max(Some(w.max_mag));
                    }
                    steps.push(Step::Conv {
                        w,
                        approx,
                        in_dims: [c, h, wd],
                        k: *k,
                        stride: *stride,
                        pad: *pad,
                        rows,
                        cols,
                        out_dims: [*out_c, oh, ow],
                    });
                    max_patch = max_patch.max(rows * cols);
                    dims = vec![*out_c, oh, ow];
                }
                QLayer::Dense { w, out_dim, in_dim } => {
                    let flat: usize = dims.iter().product();
                    assert_eq!(flat, *in_dim, "dense input size mismatch");
                    let approx = model.placement().applies_to_dense();
                    if w.requant.is_some() {
                        steps.push(Step::Dense {
                            w,
                            approx,
                            in_dim: *in_dim,
                            out_dim: *out_dim,
                        });
                    } else {
                        steps.push(Step::DenseLogits {
                            w,
                            approx,
                            in_dim: *in_dim,
                            out_dim: *out_dim,
                        });
                        n_classes = *out_dim;
                    }
                    if approx {
                        max_mag = max_mag.max(Some(w.max_mag));
                    }
                    dims = vec![*out_dim];
                }
                QLayer::AvgPool { k } => {
                    let [c, h, wd] = dims[..] else {
                        panic!("pool input must be [C, H, W], got {dims:?}");
                    };
                    assert!(h % k == 0 && wd % k == 0, "pool window does not tile input");
                    let (oh, ow) = (h / k, wd / k);
                    steps.push(Step::AvgPool {
                        k: *k,
                        in_dims: [c, h, wd],
                        out_len: c * oh * ow,
                    });
                    dims = vec![c, oh, ow];
                }
                QLayer::Flatten => {
                    // Buffers are flat already; flatten is shape-only.
                    dims = vec![dims.iter().product()];
                }
            }
        }
        debug_assert!(n_classes > 0, "from_float guarantees a final logits layer");
        QPlan {
            model,
            steps,
            in_dims: input_dims.to_vec(),
            n_classes,
            max_patch,
            max_mag,
        }
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Allocates scratch buffers able to run up to `lanes` kernels over
    /// a block of images.
    pub fn scratch_for(&self, lanes: usize) -> QScratch {
        let lanes = lanes.max(1);
        let in_len: usize = self.in_dims.iter().product();
        let out_lens = self.steps.iter().map(|step| match *step {
            Step::Conv { out_dims, .. } => out_dims.iter().product(),
            Step::Dense { out_dim, .. } => out_dim,
            Step::DenseLogits { .. } => 0,
            Step::AvgPool { out_len, .. } => out_len,
        });
        let patch_len = self.steps.iter().map(|step| match *step {
            Step::Conv { rows, cols, .. } => exec::panel_patch_len(exec::BLOCK * rows, cols),
            _ => 0,
        });
        QScratch {
            lanes,
            patch: vec![0u8; patch_len.max().unwrap_or(0)],
            tape: std::iter::once(in_len)
                .chain(out_lens)
                .map(|len| vec![vec![0u8; exec::BLOCK * len]; lanes])
                .collect(),
            logits: vec![vec![0f32; exec::BLOCK * self.n_classes]; lanes],
        }
    }

    /// Runs one image through one kernel, reusing `scratch`: a block of
    /// one.
    ///
    /// Bit-exact with [`QuantModel::forward_with`] (which is a thin
    /// wrapper over this).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the planned input shape or `scratch`
    /// has no lanes.
    pub fn forward_one<K: MulKernel + ?Sized>(
        &self,
        scratch: &mut QScratch,
        x: &Tensor,
        kernel: &K,
    ) -> Tensor {
        self.forward_multi(scratch, x, &[kernel])
            .pop()
            .expect("one kernel, one logits tensor")
    }

    /// Runs one image through `M` kernels, sharing activations (and the
    /// first approximated layer's im2col patches) up to the point where
    /// the kernels diverge: a block of one. Returns one logits tensor per
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty, exceeds the scratch lane count, or
    /// `x` does not match the planned input shape.
    pub fn forward_multi<K: MulKernel + ?Sized>(
        &self,
        scratch: &mut QScratch,
        x: &Tensor,
        kernels: &[&K],
    ) -> Vec<Tensor> {
        let nc = self.n_classes;
        self.map_range(scratch, 0..1, &|_| x, kernels, |logits| {
            Tensor::from_vec(logits.to_vec(), &[nc])
        })
        .pop()
        .expect("one image, one row")
    }

    /// Runs images `block` (at most [`exec::BLOCK`] of them) through
    /// `kernels`, leaving every lane's logits in `scratch.logits`. Returns
    /// the number of logits lanes: one when the pipeline never diverged
    /// (e.g. conv-only placement on a dense net), `kernels.len()`
    /// otherwise.
    ///
    /// Each layer runs once per lane for the whole block: im2col writes
    /// the block's patch (panel-major or row-major, see the
    /// [module docs](self)), and the GEMM sees the block's images as
    /// extra rows.
    pub(crate) fn run_block<'a, K, F>(
        &self,
        scratch: &mut QScratch,
        block: Range<usize>,
        image: &F,
        kernels: &[&K],
    ) -> usize
    where
        K: MulKernel + ?Sized,
        F: Fn(usize) -> &'a Tensor,
    {
        let (m, nb) = (kernels.len(), block.len());
        assert!(m >= 1, "need at least one kernel");
        assert!(
            m <= scratch.lanes,
            "scratch has {} lanes, got {m} kernels",
            scratch.lanes
        );
        debug_assert!((1..=exec::BLOCK).contains(&nb));
        let QScratch {
            patch,
            tape,
            logits,
            ..
        } = scratch;
        let in_len: usize = self.in_dims.iter().product();
        for (b, i) in block.enumerate() {
            let x = image(i);
            assert_eq!(
                x.dims(),
                &self.in_dims[..],
                "input does not match the planned shape"
            );
            let codes = &mut tape[0][0][b * in_len..(b + 1) * in_len];
            exec::quantize_input(x.data(), self.model.input_qmax(), codes);
        }
        let backends: Vec<MulBackend<'_, K>> = kernels.iter().map(|k| MulBackend::of(*k)).collect();

        // While `shared` only lane 0 holds the (kernel-independent)
        // activations; after the first approximated layer every lane
        // carries its own.
        let mut shared = true;
        let mut logit_lanes = 1;
        for (i, step) in self.steps.iter().enumerate() {
            let approx = match step {
                Step::Conv { approx, .. } => *approx,
                Step::Dense { approx, .. } | Step::DenseLogits { approx, .. } => *approx,
                Step::AvgPool { .. } => false,
            };
            let in_lanes = if shared { 1 } else { m };
            let out_lanes = if approx { m.max(in_lanes) } else { in_lanes };
            let backend_for = |lane: usize| -> MulBackend<'_, K> {
                if approx {
                    backends[lane]
                } else {
                    MulBackend::Exact
                }
            };
            let (done, rest) = tape.split_at_mut(i + 1);
            let (src_bufs, dst_bufs) = (&done[i], &mut rest[0]);
            match *step {
                Step::Conv {
                    w,
                    in_dims,
                    k,
                    stride,
                    pad,
                    rows,
                    cols,
                    ..
                } => {
                    let shape = [nb, rows, cols];
                    let panels = exec::use_panels(nb * rows);
                    let im2col_block = |src: &[u8], patch: &mut [u8]| {
                        if panels {
                            exec::im2col_panels(src, in_dims, k, stride, pad, shape, patch);
                            return;
                        }
                        let len: usize = in_dims.iter().product();
                        for (x, p) in src
                            .chunks_exact(len)
                            .zip(patch.chunks_exact_mut(rows * cols))
                            .take(nb)
                        {
                            fexec::im2col(x, in_dims, k, stride, pad, rows, cols, p);
                        }
                    };
                    let gemm = |lane: usize, patch: &[u8], dst: &mut [u8]| {
                        let backend = backend_for(lane);
                        if panels {
                            exec::gemm_requant::<{ exec::PANEL }, K>(backend, w, patch, shape, dst);
                        } else {
                            exec::gemm_requant::<{ exec::ROW_MAJOR }, K>(
                                backend, w, patch, shape, dst,
                            );
                        }
                    };
                    if in_lanes == 1 {
                        // One im2col feeds every kernel lane.
                        im2col_block(&src_bufs[0], patch);
                        for (lane, dst) in dst_bufs.iter_mut().enumerate().take(out_lanes) {
                            gemm(lane, patch, dst);
                        }
                    } else {
                        for lane in 0..m {
                            im2col_block(&src_bufs[lane], patch);
                            gemm(lane, patch, &mut dst_bufs[lane]);
                        }
                    }
                }
                Step::Dense { w, in_dim, .. } => {
                    // Each image's activation vector is one GEMM patch row.
                    for (lane, dst) in dst_bufs.iter_mut().enumerate().take(out_lanes) {
                        let src = &src_bufs[if in_lanes == 1 { 0 } else { lane }];
                        exec::gemm_requant::<{ exec::ROW_MAJOR }, K>(
                            backend_for(lane),
                            w,
                            src,
                            [nb, 1, in_dim],
                            dst,
                        );
                    }
                }
                Step::DenseLogits { w, in_dim, .. } => {
                    for (lane, out) in logits.iter_mut().enumerate().take(out_lanes) {
                        let src = &src_bufs[if in_lanes == 1 { 0 } else { lane }];
                        exec::gemm_logits::<{ exec::ROW_MAJOR }, K>(
                            backend_for(lane),
                            w,
                            src,
                            [nb, 1, in_dim],
                            out,
                        );
                    }
                    logit_lanes = out_lanes;
                }
                Step::AvgPool {
                    k,
                    in_dims,
                    out_len,
                } => {
                    let len: usize = in_dims.iter().product();
                    for (src, dst) in src_bufs.iter().zip(dst_bufs.iter_mut()).take(in_lanes) {
                        for (x, y) in src
                            .chunks_exact(len)
                            .zip(dst.chunks_exact_mut(out_len))
                            .take(nb)
                        {
                            exec::avgpool(x, in_dims, k, y);
                        }
                    }
                }
            }
            shared = shared && out_lanes == 1;
        }
        logit_lanes
    }

    /// Runs images `range` block by block on `scratch`, mapping every
    /// image's logits under every kernel through `f`: `[image][kernel]`.
    /// A fully exact pipeline never diverges, so every kernel then sees
    /// the shared lane's logits.
    fn map_range<'a, K, F, R>(
        &self,
        scratch: &mut QScratch,
        range: Range<usize>,
        image: &F,
        kernels: &[&K],
        f: impl Fn(&[f32]) -> R,
    ) -> Vec<Vec<R>>
    where
        K: MulKernel + ?Sized,
        F: Fn(usize) -> &'a Tensor,
    {
        let nc = self.n_classes;
        let mut out = Vec::with_capacity(range.len());
        for start in range.clone().step_by(exec::BLOCK) {
            let block = start..range.end.min(start + exec::BLOCK);
            let lanes = self.run_block(scratch, block.clone(), image, kernels);
            for b in 0..block.len() {
                out.push(
                    (0..kernels.len())
                        .map(|lane| f(&scratch.logits[lane.min(lanes - 1)][b * nc..(b + 1) * nc]))
                        .collect(),
                );
            }
        }
        out
    }

    /// Runs `N` images through `M` kernels in parallel image chunks with
    /// one scratch per chunk. Returns `[image][kernel]` logits.
    pub fn forward_batch_with<K: MulKernel + ?Sized>(
        &self,
        images: &[Tensor],
        kernels: &[&K],
    ) -> Vec<Vec<Tensor>> {
        self.forward_batch_indexed(images.len(), |i| &images[i], kernels)
    }

    /// [`QPlan::forward_batch_with`] over any indexable image source —
    /// lets callers batch over borrowed or interleaved storage (e.g.
    /// `(Tensor, label)` pairs) without cloning.
    pub fn forward_batch_indexed<'a, K, F>(
        &self,
        n: usize,
        image: F,
        kernels: &[&K],
    ) -> Vec<Vec<Tensor>>
    where
        K: MulKernel + ?Sized,
        F: Fn(usize) -> &'a Tensor + Sync,
    {
        let nc = self.n_classes;
        self.map_distinct(n, image, kernels, |logits| {
            Tensor::from_vec(logits.to_vec(), &[nc])
        })
    }

    /// Predicted classes for `N` images under `M` kernels:
    /// `[image][kernel]`.
    pub fn predict_batch_with<K: MulKernel + ?Sized>(
        &self,
        images: &[Tensor],
        kernels: &[&K],
    ) -> Vec<Vec<usize>> {
        self.predict_batch_indexed(images.len(), |i| &images[i], kernels)
    }

    /// [`QPlan::predict_batch_with`] over any indexable image source.
    pub fn predict_batch_indexed<'a, K, F>(
        &self,
        n: usize,
        image: F,
        kernels: &[&K],
    ) -> Vec<Vec<usize>>
    where
        K: MulKernel + ?Sized,
        F: Fn(usize) -> &'a Tensor + Sync,
    {
        self.map_distinct(n, image, kernels, argmax)
    }

    /// The batch runner behind [`QPlan::forward_batch_indexed`] and
    /// [`QPlan::predict_batch_indexed`]: runs images `0..n` in parallel
    /// image chunks, one scratch per chunk, under the distinct kernels
    /// only (see [`QPlan::distinct_kernels`]), and copies each distinct
    /// column back to every kernel that shares it: `[image][kernel]`.
    fn map_distinct<'a, K, F, R>(
        &self,
        n: usize,
        image: F,
        kernels: &[&K],
        f: impl Fn(&[f32]) -> R + Sync,
    ) -> Vec<Vec<R>>
    where
        K: MulKernel + ?Sized,
        F: Fn(usize) -> &'a Tensor + Sync,
        R: Clone + Send,
    {
        assert!(!kernels.is_empty(), "need at least one kernel");
        let (distinct, column) = self.distinct_kernels(kernels);
        let rows = parallel::par_map_chunks(n, |range| {
            let mut scratch = self.scratch_for(distinct.len());
            self.map_range(&mut scratch, range, &image, &distinct, &f)
        });
        if distinct.len() == kernels.len() {
            return rows;
        }
        rows.into_iter()
            .map(|row| column.iter().map(|&c| row[c].clone()).collect())
            .collect()
    }

    /// Groups `kernels` by what the engine can tell apart: kernel `i` maps
    /// to the first kernel with the same [`MulBackend`] — both `Exact`, or
    /// both tables equal on the LUT rows `0..=max_mag` that the plan's
    /// approximated weights read. `Generic` kernels are never merged, and
    /// a plan with no approximated step keeps every kernel (its pipeline
    /// never diverges anyway). Returns the distinct kernels in first-seen
    /// order and, per kernel, the index of its distinct column.
    fn distinct_kernels<'k, K: MulKernel + ?Sized>(
        &self,
        kernels: &[&'k K],
    ) -> (Vec<&'k K>, Vec<usize>) {
        let max_mag = match self.max_mag {
            Some(m) if kernels.len() > 1 => m,
            _ => return (kernels.to_vec(), (0..kernels.len()).collect()),
        };
        let entries = (max_mag as usize + 1) << 8;
        let backends: Vec<MulBackend<'_, K>> = kernels.iter().map(|k| MulBackend::of(*k)).collect();
        let same = |a: usize, b: usize| match (backends[a], backends[b]) {
            (MulBackend::Exact, MulBackend::Exact) => true,
            (MulBackend::Table(s), MulBackend::Table(t)) => s[..entries] == t[..entries],
            _ => false,
        };
        let mut firsts: Vec<usize> = Vec::new();
        let column = (0..kernels.len())
            .map(|i| {
                firsts.iter().position(|&d| same(d, i)).unwrap_or_else(|| {
                    firsts.push(i);
                    firsts.len() - 1
                })
            })
            .collect();
        (firsts.iter().map(|&i| kernels[i]).collect(), column)
    }

    /// Predicted classes for images `range` under `kernels`,
    /// `[image][kernel]`, run block by block on the caller's `scratch`
    /// (which needs at least `kernels.len()` lanes): the per-chunk runner
    /// a caller with its own threads uses (e.g. `axserve`'s plan pool).
    /// Every kernel runs as given; only the batch entry points collapse
    /// duplicate columns.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty or exceeds the scratch lane count, or
    /// an image does not match the planned shape.
    pub fn predict_range<'a, K, F>(
        &self,
        scratch: &mut QScratch,
        range: Range<usize>,
        image: &F,
        kernels: &[&K],
    ) -> Vec<Vec<usize>>
    where
        K: MulKernel + ?Sized,
        F: Fn(usize) -> &'a Tensor,
    {
        self.map_range(scratch, range, image, kernels, argmax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use crate::qlevel::QLevel;
    use axmul::{ExactMul, MulLut, Registry};
    use axnn::layer::{Conv2d, Dense, Layer};
    use axnn::{zoo, Sequential};
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

    #[test]
    fn exact_lut_is_bit_identical_to_builtin_mul() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(7));
        let calib = calib_images(4, &[1, 28, 28], 8);
        let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
        let lut = MulLut::exact();
        for img in calib_images(4, &[1, 28, 28], 9) {
            assert_eq!(
                qm.forward_with(&img, &ExactMul),
                qm.forward_with(&img, &lut)
            );
        }
    }

    #[test]
    fn approximate_kernel_changes_logits() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(10));
        let calib = calib_images(4, &[1, 28, 28], 11);
        let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
        let approx = Registry::standard().build_lut("L40").unwrap();
        let img = &calib[0];
        assert_ne!(
            qm.forward_with(img, &ExactMul),
            qm.forward_with(img, &approx)
        );
    }

    #[test]
    fn conv_only_placement_ignores_kernel_in_dense_net() {
        // The FFNN has no conv layer, so with ConvOnly placement an
        // approximate kernel must change nothing.
        let model = zoo::ffnn(&mut Rng::seed_from_u64(12));
        let calib = calib_images(4, &[1, 28, 28], 13);
        let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
        let approx = Registry::standard().build_lut("L40").unwrap();
        let img = &calib[0];
        assert_eq!(
            qm.forward_with(img, &ExactMul),
            qm.forward_with(img, &approx)
        );
        // With Placement::All it must matter.
        let qm_all = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        assert_ne!(
            qm_all.forward_with(img, &ExactMul),
            qm_all.forward_with(img, &approx)
        );
    }

    #[test]
    fn batch_multi_kernel_matches_per_image_passes() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(30));
        let calib = calib_images(4, &[1, 28, 28], 31);
        let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
        let exact_lut = MulLut::exact();
        let approx = Registry::standard().build_lut("L40").unwrap();
        let kernels = [&exact_lut, &approx];
        let images = calib_images(5, &[1, 28, 28], 32);

        let plan = qm.plan(&[1, 28, 28]);
        let batch = plan.forward_batch_with(&images, &kernels);
        assert_eq!(batch.len(), 5);
        for (img, row) in images.iter().zip(&batch) {
            assert_eq!(row.len(), 2);
            assert_eq!(row[0], qm.forward_with(img, &exact_lut));
            assert_eq!(row[1], qm.forward_with(img, &approx));
        }

        let preds = plan.predict_batch_with(&images, &kernels);
        for (row, lrow) in preds.iter().zip(&batch) {
            assert_eq!(row[0], lrow[0].argmax());
            assert_eq!(row[1], lrow[1].argmax());
        }
    }

    #[test]
    fn undiverged_batch_clones_shared_logits() {
        // ConvOnly placement on a conv-free net: all lanes stay shared.
        let model = zoo::ffnn(&mut Rng::seed_from_u64(33));
        let calib = calib_images(4, &[1, 28, 28], 34);
        let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
        let a = Registry::standard().build_lut("L40").unwrap();
        let b = Registry::standard().build_lut("17KS").unwrap();
        let plan = qm.plan(&[1, 28, 28]);
        let out = plan.forward_batch_with(&calib[..2], &[&a, &b]);
        for row in &out {
            assert_eq!(row[0], row[1], "exact pipeline ignores both kernels");
        }
    }

    #[test]
    fn avgpool_topology_runs_through_plan() {
        let model = zoo::alexnet_mini(&mut Rng::seed_from_u64(16));
        let calib = calib_images(2, &[3, 32, 32], 17);
        let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
        let logits = qm.forward_with(&calib[0], &ExactMul);
        assert_eq!(logits.len(), 10);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn scratch_reuse_is_deterministic_across_levels() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(40));
        let calib = calib_images(3, &[1, 28, 28], 41);
        for level in [QLevel::INT8, QLevel::new(4, 4), QLevel::new(8, 3)] {
            let qm = QuantModel::from_float_with_level(&model, &calib, Placement::ConvOnly, level)
                .unwrap();
            let plan = qm.plan(&[1, 28, 28]);
            let mut scratch = plan.scratch_for(1);
            let lut = MulLut::exact();
            let first = plan.forward_one(&mut scratch, &calib[0], &lut);
            let other = plan.forward_one(&mut scratch, &calib[1], &lut);
            let again = plan.forward_one(&mut scratch, &calib[0], &lut);
            assert_eq!(first, again, "scratch reuse must not leak state");
            assert_ne!(first, other);
        }
    }

    /// Which columns merge: equal tables (also when they differ only in
    /// rows above every weight magnitude) and `Exact` with `Exact`; an
    /// exact table stays apart from `ExactMul`, a `Generic` kernel from
    /// everything, and a table that differs in a read row from the first.
    #[test]
    fn distinct_kernels_merge_what_the_engine_cannot_tell_apart() {
        struct Opaque;
        impl MulKernel for Opaque {
            fn mul(&self, a: u8, b: u8) -> u16 {
                a as u16 * b as u16
            }
            fn name(&self) -> &str {
                "opaque"
            }
        }
        let model = zoo::lenet5(&mut Rng::seed_from_u64(60));
        let calib = calib_images(2, &[1, 28, 28], 61);
        let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
        let plan = qm.plan(&[1, 28, 28]);
        let max_mag = plan.max_mag.expect("conv steps are approximated");
        assert!(max_mag <= 127);
        let l40 = Registry::standard().build_lut("L40").unwrap();
        let above = MulLut::from_fn("above", |a, b| l40.mul(a, b) ^ u16::from(a > max_mag));
        let at = MulLut::from_fn("at", |a, b| l40.mul(a, b) ^ u16::from(a == max_mag));
        let exact_lut = MulLut::exact();
        let kernels: [&dyn MulKernel; 9] = [
            &l40, &ExactMul, &l40, &above, &exact_lut, &ExactMul, &Opaque, &Opaque, &at,
        ];
        let (distinct, column) = plan.distinct_kernels(&kernels);
        assert_eq!(column, [0, 1, 0, 0, 2, 1, 3, 4, 5]);
        let names: Vec<&str> = distinct.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            ["mul8u_L40", "exact", "exact-lut", "opaque", "opaque", "at"]
        );
        // One kernel, or a plan with no approximated step, keeps every kernel.
        assert_eq!(plan.distinct_kernels(&kernels[..1]).1, [0]);
        let ffnn = zoo::ffnn(&mut Rng::seed_from_u64(62));
        let qf = QuantModel::from_float(&ffnn, &calib, Placement::ConvOnly).unwrap();
        let (d, c) = qf.plan(&[1, 28, 28]).distinct_kernels(&[&l40, &l40]);
        assert_eq!((d.len(), c), (2, vec![0, 1]));
    }

    /// A kernel's products behind neither a `lut_table` nor the exact
    /// flag: a `Generic` backend, which always takes `gemm_core`.
    struct Opaque<'a>(&'a dyn MulKernel);
    impl MulKernel for Opaque<'_> {
        fn mul(&self, a: u8, b: u8) -> u16 {
            self.0.mul(a, b)
        }
        fn name(&self) -> &str {
            "opaque"
        }
    }

    /// Asserts that `model`'s logits under `lut` and under the exact
    /// product equal, bit for bit, those of [`Opaque`] wrappers of both,
    /// for blocks of each image count in `counts`.
    fn assert_logits_match_opaque(
        model: &Sequential,
        dims: [usize; 3],
        placement: Placement,
        lut: &MulLut,
        counts: &[usize],
    ) {
        let calib = calib_images(4, &dims, 71);
        let qm = QuantModel::from_float(model, &calib, placement).unwrap();
        let plan = qm.plan(&dims);
        let images = calib_images(7, &dims, 72);
        let kernels: [&dyn MulKernel; 4] = [lut, &Opaque(lut), &ExactMul, &Opaque(&ExactMul)];
        for &n in counts {
            for (i, row) in plan
                .forward_batch_with(&images[..n], &kernels)
                .iter()
                .enumerate()
            {
                let bits: Vec<Vec<u32>> = row
                    .iter()
                    .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                    .collect();
                let name = model.name();
                assert_eq!(bits[0], bits[1], "{name}: {}, image {i} of {n}", lut.name());
                assert_eq!(bits[2], bits[3], "{name}: exact, image {i} of {n}");
            }
        }
    }

    /// The AVX2 panel kernel against `gemm_core`, bit for bit, through
    /// whole plans. LeNet-5 covers panels inside one output row; a
    /// stride-2, pad-1 conv with 25 rows per image covers panels that
    /// straddle output rows and images, and a zero-filled tail. On an
    /// AVX2 host the L40 table must have gone through the panel kernel.
    #[test]
    fn panel_kernel_logits_match_gemm_core() {
        let rng = &mut Rng::seed_from_u64(70);
        let strided = Sequential::new(
            "strided",
            vec![
                Layer::Conv2d(Conv2d::new(2, 3, 3, 2, 1, rng)),
                Layer::Relu,
                Layer::Conv2d(Conv2d::new(3, 4, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(4 * 5 * 5, 10, rng)),
            ],
        );
        let lenet = zoo::lenet5(rng);
        let l40 = Registry::standard().build_lut("L40").unwrap();
        let ran = (exec::PANEL, l40.table().as_ptr() as usize);
        exec::AVX2_RUNS.lock().unwrap().remove(&ran);
        for (model, dims, placement) in [
            (&lenet, [1, 28, 28], Placement::ConvOnly),
            (&strided, [2, 9, 9], Placement::All),
        ] {
            assert_logits_match_opaque(model, dims, placement, &l40, &[1, 2, 7]);
        }
        let avx2 = exec::use_panels(exec::PANEL);
        assert_eq!(exec::AVX2_RUNS.lock().unwrap().contains(&ran), avx2);
    }

    /// The AVX2 row kernel against `gemm_core`, bit for bit, through
    /// whole plans with approximation in every layer: the FFNN's dense
    /// layers (784, 300 and 100 columns), and LeNet-5's conv3 (one row per
    /// image, so 1–4 rows a block) and dense layers, at 1–4 images and
    /// at 7 (a full block and a 3-image one). On an AVX2 host the L40
    /// table must have gone through the row kernel.
    #[test]
    fn row_kernel_logits_match_gemm_core() {
        let rng = &mut Rng::seed_from_u64(73);
        let ffnn = zoo::ffnn(rng);
        let lenet = zoo::lenet5(rng);
        let l40 = Registry::standard().build_lut("L40").unwrap();
        let ran = (exec::ROW_MAJOR, l40.table().as_ptr() as usize);
        exec::AVX2_RUNS.lock().unwrap().remove(&ran);
        let counts = [1, 2, 3, 4, 7];
        for model in [&ffnn, &lenet] {
            assert_logits_match_opaque(model, [1, 28, 28], Placement::All, &l40, &counts);
        }
        let avx2 = exec::use_panels(exec::PANEL);
        assert_eq!(exec::AVX2_RUNS.lock().unwrap().contains(&ran), avx2);
    }

    #[test]
    #[should_panic(expected = "planned shape")]
    fn wrong_input_shape_is_rejected() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(50));
        let calib = calib_images(2, &[1, 28, 28], 51);
        let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
        let plan = qm.plan(&[1, 28, 28]);
        let mut scratch = plan.scratch_for(1);
        let _ = plan.forward_one(&mut scratch, &Tensor::zeros(&[1, 8, 8]), &ExactMul);
    }

    #[test]
    #[should_panic(expected = "planned shape")]
    fn same_length_wrong_shape_is_rejected() {
        let model = zoo::lenet5(&mut Rng::seed_from_u64(52));
        let calib = calib_images(2, &[1, 28, 28], 53);
        let qm = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
        let plan = qm.plan(&[1, 28, 28]);
        let mut scratch = plan.scratch_for(1);
        let _ = plan.forward_one(&mut scratch, &Tensor::zeros(&[28, 1, 28]), &ExactMul);
    }
}
