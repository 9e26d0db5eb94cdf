//! Execution kernels for the compiled float engine.
//!
//! These are the hot loops behind [`crate::plan::FPlan`]: patch
//! extraction (column-major [`im2col_cols`] for the conv forward,
//! row-major [`im2col`] for the conv parameter gradient), the conv
//! forward over a column-major patch ([`conv_forward_cols`]), the GEMM
//! that dense layers and a conv covering its input lower to, the direct
//! conv input gradient ([`conv_input_grad`]), average pooling and ReLU.
//! Everything works on flat `f32` scratch slices so the plan can reuse
//! buffers across images and attack steps.
//!
//! # Blocks of images
//!
//! The plans run up to [`BLOCK`] images at a time. Between layers a
//! block sits image after image; a kernel that gains from seeing the
//! whole block takes it in its own layout:
//!
//! * dense layers, and a conv whose window covers its whole input
//!   ([`conv_covers_input`], LeNet-5's flattening conv), make the images
//!   the rows of one GEMM ([`dense_forward_rows`], [`conv_forward_rows`]),
//!   read straight off the block with no patch buffer;
//! * [`conv_input_grad`] takes a block *interleaved*, the images the
//!   innermost axis, so its innermost `(ox, image)` axpy is `BLOCK` times
//!   wider than one image's `ox` run: 32 wide on LeNet-5's conv2 instead
//!   of 8. The covering conv is the exception: its one-image `Wᵀ g`
//!   sweep is already as wide as its input, so the plans run it one
//!   image at a time rather than pay for the interleave.
//!
//! One image is always a block of one, in the plain layout.
//!
//! # Bit-compatibility with the layer-by-layer path
//!
//! The seed engine (the per-layer loops of `axnn::reference`) is kept as
//! the reference implementation, and every kernel here reproduces its
//! floating-point accumulation order exactly:
//!
//! * conv forward accumulators start at the bias and add products in
//!   `(channel, ky, kx)` order; padded positions become `0` patch entries
//!   whose products (`w * 0.0 = ±0.0`) leave the accumulator unchanged
//!   (it could only be `-0.0` under a `-0.0` bias, which neither
//!   initialization nor SGD produces);
//! * dense forward accumulates the dot product first and adds the bias
//!   last, exactly like `matvec` + bias;
//! * the conv input gradient starts every element at `+0.0` and adds its
//!   terms in the seed's `(o, oy, ox)` order, visiting only in-range taps;
//! * the dense backward keeps `matvec_t`'s zero-gradient row skip.
//!
//! # Kernel tiers and the scalar reference
//!
//! Every kernel here is one the plans run.
//!
//! * The conv forward runs over a column-major patch: patch column `t`
//!   is one contiguous run over the output positions, so the kernel
//!   vectorizes across positions and broadcasts the weights. On an
//!   x86_64 CPU with AVX2 (detected at run time) [`conv_forward_cols`]
//!   runs 4-channel × 16-position tiles of AVX2 accumulators; elsewhere
//!   a portable kernel, one axpy per patch column, runs on the same
//!   patch.
//! * A block's conv input gradient ([`conv_input_grad`] with `nb > 1`)
//!   runs its tap loop with AVX2 axpys along the `(ox, image)` axis on
//!   such a CPU, and with the compiler's default vectors elsewhere.
//! * The GEMM-shaped loops over row-major operands are register-tiled
//!   ([`dense_forward_rows`], [`conv_forward_rows`],
//!   [`dense_backward_tiled`], [`conv_backward_params_tiled`]): they
//!   process 4×4 output blocks (or 4-row groups) with independent
//!   accumulators sharing operand loads. A dense layer's tile is (image,
//!   output neuron) over a block of up to four images, so the plans'
//!   batch paths load every dense weight once per block.
//!
//! The scalar loops these kernels are pinned to (`conv_forward`,
//! `dense_forward`, `dense_backward`, `conv_backward_params`) live in
//! `axnn::reference`, with the seed layer loops; the property tests and
//! the `gemm` bench suite compare the kernels against them.
//!
//! Every kernel is **bit-identical** to the reference, not merely close:
//! none reassociates a floating-point sum. Each output element keeps its
//! own accumulator whose additions run in the exact reference order. A
//! 4×4 register tile is sixteen *independent* sequential chains advanced
//! in lockstep, and the fused multi-row backward passes append to each
//! destination element in the same ascending-row order as the
//! reference's sequential passes (including `dense_backward`'s
//! zero-gradient row skip, which is applied *before* grouping rows). In
//! a vector kernel every lane is one output's own chain, and each step is
//! one multiply and then one add (`_mm256_mul_ps`, `_mm256_add_ps`):
//! the scalar `acc += a * b` for eight outputs at once. No sum runs
//! across lanes, and no kernel uses a fused multiply-add, which rounds
//! once where the reference rounds twice. The speedup comes from
//! independent chains, operand reuse and eight outputs per instruction,
//! never from splitting one dot product — which is why no ULP tolerance
//! and no thread or CPU caveat is needed anywhere, and why the plans
//! never need the scalar loops.
//!
//! # Batched parameter gradients
//!
//! [`GradFold`] sums per-image parameter gradients over a minibatch
//! without materializing one gradient buffer per image: dense layers
//! record only the two factors of their rank-one per-image gradient, and
//! the fold adds the images up in image order, bit-identical to the
//! per-image reference.

use std::ops::Range;
use std::sync::Mutex;

use axutil::parallel;

use crate::model::GradBuffer;

/// Extracts conv patches: row `p = oy * ow + ox` of `out` is the
/// `[in_c * k * k]` receptive field of output position `(oy, ox)`,
/// zero-filled (`T::default()`) where the window overhangs the
/// (zero-)padded input. Generic over the element so the float plans and
/// the quantized engine's `u8` codes share one extraction.
///
/// The in-range window columns are clamped once per output position, so
/// a window row inside the input is a plain copy of its input row
/// segment, with no per-element bounds test.
#[allow(clippy::too_many_arguments)]
pub fn im2col<T: Copy + Default>(
    x: &[T],
    dims: [usize; 3],
    k: usize,
    stride: usize,
    pad: usize,
    rows: usize,
    cols: usize,
    out: &mut [T],
) {
    let [c, h, w] = dims;
    debug_assert_eq!(x.len(), c * h * w);
    debug_assert_eq!(cols, c * k * k);
    let ow = (w + 2 * pad - k) / stride + 1;
    let zero = T::default();
    for (p, dst) in out[..rows * cols].chunks_exact_mut(cols).enumerate() {
        let (oy, ox) = (p / ow, p % ow);
        // Window column `kx` reads input column `x0 + kx - pad`, inside
        // the input for `lo <= kx < hi`.
        let x0 = ox * stride;
        let lo = pad.saturating_sub(x0).min(k);
        let hi = (w + pad).saturating_sub(x0).clamp(lo, k);
        for (ci, window) in dst.chunks_exact_mut(k * k).enumerate() {
            for (ky, seg) in window.chunks_exact_mut(k).enumerate() {
                let iy = (oy * stride + ky).wrapping_sub(pad);
                if iy >= h {
                    seg.fill(zero);
                    continue;
                }
                let row = (ci * h + iy) * w;
                if lo == 0 && hi == k {
                    for (d, &v) in seg.iter_mut().zip(&x[row + x0 - pad..][..k]) {
                        *d = v;
                    }
                } else {
                    for (kx, d) in seg.iter_mut().enumerate() {
                        *d = if (lo..hi).contains(&kx) {
                            x[row + x0 + kx - pad]
                        } else {
                            zero
                        };
                    }
                }
            }
        }
    }
}

/// Extracts conv patches column-major, the transpose of [`im2col`]'s
/// layout: row `t = (ci * k + ky) * k + kx` of `out` holds patch column
/// `t` of every output position, `out[t * rows + p]` for `p = oy * ow +
/// ox`, zero where the window overhangs the (zero-)padded input. The
/// in-range output columns of each tap are clamped once (`tap_range`), so
/// at stride 1 an output row's run of a column is one copy of an input
/// row segment.
#[allow(clippy::too_many_arguments)]
pub fn im2col_cols(
    x: &[f32],
    dims: [usize; 3],
    k: usize,
    stride: usize,
    pad: usize,
    rows: usize,
    cols: usize,
    out: &mut [f32],
) {
    let [c, h, w] = dims;
    debug_assert_eq!(x.len(), c * h * w);
    debug_assert_eq!(cols, c * k * k);
    let ow = (w + 2 * pad - k) / stride + 1;
    let oh = rows / ow;
    let mut columns = out[..rows * cols].chunks_exact_mut(rows);
    for ci in 0..c {
        for ky in 0..k {
            let ys = tap_range(ky, stride, pad, h, oh);
            for (kx, col) in (0..k).zip(&mut columns) {
                let xs = tap_range(kx, stride, pad, w, ow);
                if ys.len() < oh || xs.len() < ow {
                    col.fill(0.0);
                }
                if xs.is_empty() {
                    continue;
                }
                let ix0 = xs.start * stride + kx - pad;
                for oy in ys.clone() {
                    let at = (ci * h + oy * stride + ky - pad) * w + ix0;
                    let dst = &mut col[oy * ow + xs.start..oy * ow + xs.end];
                    if stride == 1 {
                        dst.copy_from_slice(&x[at..at + dst.len()]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(x[at..].iter().step_by(stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// How one parameterised layer records its per-image gradient for a
/// [`GradFold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamRecord {
    /// A dense layer's gradient is rank one per image, so the record
    /// holds only its factors: the upstream gradient `g` (`out_dim`)
    /// followed by the layer input `x` (`in_dim`). The parameters are
    /// `dw` (`out_dim × in_dim`, row-major) followed by `db` (`out_dim`).
    Dense { out_dim: usize, in_dim: usize },
    /// A layer whose per-image gradient is itself a sum (a conv layer sums
    /// over output positions): the record *is* that gradient, `len`
    /// values laid out like the parameters.
    Summed { len: usize },
}

impl ParamRecord {
    fn record_len(self) -> usize {
        match self {
            ParamRecord::Dense { out_dim, in_dim } => out_dim + in_dim,
            ParamRecord::Summed { len } => len,
        }
    }

    fn param_len(self) -> usize {
        match self {
            ParamRecord::Dense { out_dim, in_dim } => out_dim * in_dim + out_dim,
            ParamRecord::Summed { len } => len,
        }
    }
}

/// Parameters per work item of [`GradFold::fold_into`]: fine enough to
/// balance the fold over threads, coarse enough that per-block overhead
/// is negligible.
const FOLD_BLOCK: usize = 4096;

/// The image-ordered rank-n fold behind both batched training entry
/// points ([`crate::plan::FPlan::loss_and_param_grads_batch`] and
/// `axquant::qtrain::QTrainPlan::loss_and_param_grads_batch`).
///
/// Each image's backward writes one flat *record* (see [`ParamRecord`]);
/// [`GradFold::fold_into`] then sums the records over images, in image
/// order, into every parameter of the model: `dw[o][t] = Σ_k g_k[o] ·
/// x_k[t]` and `db[o] = Σ_k g_k[o]` for dense layers, `Σ_k rec_k` for
/// summed layers. One [`par_map_chunks`](axutil::parallel::par_map_chunks)
/// call spans the flat parameter range of all layers, so a batch costs
/// one fork/join for the fold however many layers the model has.
///
/// The fold is **bit-identical** to the per-image reference (each
/// image's gradient materialized by the scalar `dense_backward` into a
/// zero buffer, then summed with `GradBuffer::accumulate`), signed zeros
/// included:
///
/// * a dense `dw` element of one image is a single product added to
///   `+0.0`, and the running sum starts at `+0.0` and can never become
///   `-0.0` (a float sum is `-0.0` only when both operands are);
/// * so `acc + p` and the reference `acc + (0 + p)` give the same bits;
/// * rows with `g_k[o] == 0` are skipped, exactly like the kernels' row
///   skip — without it `0 · inf` would put a NaN where the reference has
///   none.
#[derive(Debug, Clone, Default)]
pub struct GradFold {
    /// `(layer, record offset, parameter offset)`, in layer order.
    layers: Vec<(ParamRecord, usize, usize)>,
    record_len: usize,
    param_len: usize,
}

impl GradFold {
    /// Lays out the records and parameters of `layers`, in order. The
    /// parameter order must be the `GradBuffer` order of the model: every
    /// layer's weight tensor, then its bias tensor.
    pub fn new(layers: impl IntoIterator<Item = ParamRecord>) -> Self {
        let mut fold = GradFold::default();
        for layer in layers {
            fold.layers.push((layer, fold.record_len, fold.param_len));
            fold.record_len += layer.record_len();
            fold.param_len += layer.param_len();
        }
        fold
    }

    /// Number of parameterised layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Length of one image's record.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// Layer `j`'s part of a record: `g` then `x` for a dense layer, the
    /// per-image `dw` then `db` for a summed layer.
    pub fn layer_record<'r>(&self, j: usize, record: &'r mut [f32]) -> &'r mut [f32] {
        let (layer, off, _) = self.layers[j];
        &mut record[off..off + layer.record_len()]
    }

    /// A whole batched parameter gradient, in two
    /// [`par_map_chunks`](axutil::parallel::par_map_chunks) calls: first
    /// contiguous image chunks, `chunk(range)` returning the loss and
    /// record of every image in `range`, in order; then
    /// [`GradFold::fold_into`] `grads`. Returns the loss summed in image
    /// order and the folded gradients.
    pub fn batch(
        &self,
        n: usize,
        chunk: impl Fn(Range<usize>) -> Vec<(f32, Vec<f32>)> + Sync,
        mut grads: GradBuffer,
    ) -> (f32, GradBuffer) {
        let (losses, records): (Vec<f32>, Vec<Vec<f32>>) =
            parallel::par_map_chunks(n, chunk).into_iter().unzip();
        self.fold_into(&records, &mut grads);
        (losses.iter().fold(0.0f32, |acc, l| acc + l), grads)
    }

    /// Sums `records` in image order and writes the result over every
    /// tensor of `grads`, taken in `GradBuffer` order.
    ///
    /// # Panics
    ///
    /// Panics if the tensors of `grads` do not hold exactly this fold's
    /// parameter count.
    pub fn fold_into(&self, records: &[Vec<f32>], grads: &mut GradBuffer) {
        // Cut every tensor into blocks tagged with their flat parameter
        // offset. Each block is locked by exactly one worker, so the
        // locks never contend: they only let the workers write straight
        // into `grads` instead of into per-chunk buffers copied back.
        let mut blocks = Vec::new();
        let mut off = 0;
        for t in grads.layers.iter_mut().flatten() {
            for dst in t.data_mut().chunks_mut(FOLD_BLOCK) {
                let len = dst.len();
                blocks.push(Mutex::new((off, dst)));
                off += len;
            }
        }
        assert_eq!(off, self.param_len, "gradient layout mismatch");
        parallel::par_map_chunks(blocks.len(), |range| {
            range
                .map(|b| {
                    let mut block = blocks[b]
                        .lock()
                        .expect("a fold block is locked once, by one worker");
                    let (off, ref mut dst) = *block;
                    self.fold_range(records, off, dst);
                })
                .collect()
        });
    }

    /// Writes the folded parameters `off..off + dst.len()` into `dst`.
    fn fold_range(&self, records: &[Vec<f32>], off: usize, dst: &mut [f32]) {
        dst.fill(0.0);
        let range = off..off + dst.len();
        for &(layer, rec, param) in &self.layers {
            let lo = range.start.max(param);
            let hi = range.end.min(param + layer.param_len());
            if lo >= hi {
                continue;
            }
            let dst = &mut dst[lo - range.start..hi - range.start];
            // Layer-local parameter indices from here on.
            let (lo, hi) = (lo - param, hi - param);
            match layer {
                ParamRecord::Summed { .. } => {
                    for r in records {
                        for (d, &v) in dst.iter_mut().zip(&r[rec + lo..rec + hi]) {
                            *d += v;
                        }
                    }
                }
                ParamRecord::Dense { out_dim, in_dim } => {
                    let (g, x) = (rec, rec + out_dim);
                    let w_hi = hi.min(out_dim * in_dim);
                    // Weights, one row segment `o, t0..t1` at a time.
                    let mut q = lo;
                    while q < w_hi {
                        let (o, t0) = (q / in_dim, q % in_dim);
                        let t1 = in_dim.min(t0 + (w_hi - q));
                        let seg = &mut dst[q - lo..q - lo + (t1 - t0)];
                        for r in records {
                            let gv = r[g + o];
                            if gv == 0.0 {
                                continue;
                            }
                            for (d, &xv) in seg.iter_mut().zip(&r[x + t0..x + t1]) {
                                *d += gv * xv;
                            }
                        }
                        q += t1 - t0;
                    }
                    // Biases.
                    for q in lo.max(out_dim * in_dim)..hi {
                        let o = q - out_dim * in_dim;
                        let d = &mut dst[q - lo];
                        for r in records {
                            *d += r[g + o];
                        }
                    }
                }
            }
        }
    }
}

/// Whether a conv's single window covers its whole input: pad 0 and a
/// `k × k` input, so its one output position's patch *is* the input.
pub fn conv_covers_input(in_dims: [usize; 3], k: usize, pad: usize) -> bool {
    pad == 0 && k == in_dims[1] && k == in_dims[2]
}

/// Conv input gradient over a block of `nb` images: scatters every
/// upstream gradient `g[o, oy, ox]` through the forward-layout weights
/// `w` (`[oc, ic, k, k]`) onto the input positions its taps land on,
/// writing `dx` (`[ic, h, w]`).
///
/// The block's images are the innermost axis of both `g`
/// (`[oc, oh, ow, nb]`) and `dx` (`[ic, h, w, nb]`), so one image is a
/// block of one in the plain layout. Only in-range taps are visited: for
/// each `(o, c, ky, kx)` the output rows and columns whose tap lands
/// inside the input are clamped once (`tap_range`), so padded and
/// strided geometry costs no per-element test, and the innermost loop is
/// an `(ox, image)` axpy (contiguous in `dx` at stride 1): `nb` times
/// wider than one image's `ox` run, which is what makes a block pay for
/// its interleave on a small feature map. For a block (`nb > 1`) on an
/// x86_64 CPU with AVX2 that axpy runs eight lanes per AVX2 multiply and
/// add, each lane one `dx` element; elsewhere the compiler vectorizes it
/// for its default target. A conv
/// whose window covers its whole input ([`conv_covers_input`]) is one
/// `Wᵀ g` row sweep per image; the plans run it one image at a time,
/// since its sweep is already wide and interleaving would only add
/// copies.
///
/// Bit-identical to the seed `Conv2d::backward` for every image, signed
/// zeros included: every `dx` element starts at `+0.0` and adds its
/// terms `g · w` in ascending `(o, oy, ox)` order — the loop runs
/// `o → c → ky desc → kx desc → oy → ox → image`, and for one input
/// position `ky` descending is `oy` ascending (likewise `kx` and `ox`).
/// The images never share an accumulator.
#[allow(clippy::too_many_arguments)]
pub fn conv_input_grad(
    w: &[f32],
    g: &[f32],
    g_dims: [usize; 3],
    in_dims: [usize; 3],
    k: usize,
    stride: usize,
    pad: usize,
    nb: usize,
    dx: &mut [f32],
) {
    let [oc, oh, ow] = g_dims;
    let [ic, h, wd] = in_dims;
    let taps = ic * k * k;
    debug_assert!(nb > 0);
    debug_assert_eq!(w.len(), oc * taps);
    debug_assert_eq!(g.len(), oc * oh * ow * nb);
    let dx = &mut dx[..ic * h * wd * nb];
    dx.fill(0.0);
    if nb == 1 && conv_covers_input(in_dims, k, pad) {
        for (wrow, &gv) in w.chunks_exact(taps).zip(g) {
            for (d, &wv) in dx.iter_mut().zip(wrow) {
                *d += gv * wv;
            }
        }
        return;
    }
    if nb > 1 && has_avx2() {
        #[cfg(test)]
        AVX2_RUNS
            .lock()
            .unwrap()
            .insert((INPUT_GRAD, dx.as_ptr() as usize));
        // SAFETY: AVX2 is present, checked just above.
        #[cfg(target_arch = "x86_64")]
        return unsafe { avx2::conv_input_grad(w, g, g_dims, in_dims, k, stride, pad, nb, dx) };
    }
    scatter_taps(w, g, g_dims, in_dims, k, stride, pad, nb, dx, |d, g, wv| {
        for (d, &gv) in d.iter_mut().zip(g) {
            *d += gv * wv;
        }
    });
}

/// The tap loop of [`conv_input_grad`] over a zeroed `dx`, `axpy(d, g,
/// wv)` adding `g[j] · wv` to `d[j]` for every `j < g.len()` (`d` may be
/// longer): a stride-1 conv's contiguous `(ox, image)` run. Always
/// inlined, so the AVX2 caller compiles the whole loop nest for AVX2.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scatter_taps(
    w: &[f32],
    g: &[f32],
    [_, oh, ow]: [usize; 3],
    [ic, h, wd]: [usize; 3],
    k: usize,
    stride: usize,
    pad: usize,
    nb: usize,
    dx: &mut [f32],
    axpy: impl Fn(&mut [f32], &[f32], f32),
) {
    for (o, g_o) in g.chunks_exact(oh * ow * nb).enumerate() {
        for (c, dx_c) in dx.chunks_exact_mut(h * wd * nb).enumerate() {
            let w_oc = &w[(o * ic + c) * k * k..][..k * k];
            for ky in (0..k).rev() {
                let ys = tap_range(ky, stride, pad, h, oh);
                for kx in (0..k).rev() {
                    let xs = tap_range(kx, stride, pad, wd, ow);
                    if xs.is_empty() {
                        continue;
                    }
                    let wv = w_oc[ky * k + kx];
                    let ix0 = xs.start * stride + kx - pad;
                    for oy in ys.clone() {
                        let iy = oy * stride + ky - pad;
                        let grow = &g_o[(oy * ow + xs.start) * nb..(oy * ow + xs.end) * nb];
                        let drow = &mut dx_c[(iy * wd + ix0) * nb..];
                        if stride == 1 {
                            axpy(drow, grow, wv);
                        } else {
                            strided_axpy(drow, grow, stride, nb, wv);
                        }
                    }
                }
            }
        }
    }
}

/// `d[j * stride * nb + b] += g[j * nb + b] · wv`: a strided conv's
/// `(ox, image)` run. Kept out of line so the stride-1 loop nest around
/// it stays small enough to optimize as the one-image loop it was.
#[inline(never)]
fn strided_axpy(d: &mut [f32], g: &[f32], stride: usize, nb: usize, wv: f32) {
    for (j, g_x) in g.chunks_exact(nb).enumerate() {
        for (d, &gv) in d[j * stride * nb..][..nb].iter_mut().zip(g_x) {
            *d += gv * wv;
        }
    }
}

/// The output indices `o < n_out` whose tap `t` lands inside an input
/// axis of length `n_in`: `0 <= o * stride + t - pad < n_in`.
fn tap_range(t: usize, stride: usize, pad: usize, n_in: usize, n_out: usize) -> Range<usize> {
    let lo = pad.saturating_sub(t).div_ceil(stride);
    let hi = match (n_in + pad).checked_sub(t + 1) {
        Some(last) => n_out.min(last / stride + 1),
        None => 0,
    };
    lo..hi.max(lo)
}

/// Register-tile edge length: output blocks are `TILE × TILE`
/// accumulators, row groups are `TILE` rows.
const TILE: usize = 4;

/// Images per block of [`crate::plan::FPlan`]'s batch paths and block
/// queries: one tile of image rows for [`dense_forward_rows`], and the
/// width of a block [`conv_input_grad`].
pub const BLOCK: usize = TILE;

/// Register-tiled kernel behind [`conv_forward_rows`] and
/// [`dense_forward_rows`]:
/// `out[i * n + j] = seed(i, j) + a[i] · b[j]` over the `m` rows of `a`
/// and `n` rows of `b` (both `k` wide, row-major).
///
/// Full 4×4 blocks advance sixteen independent accumulators per `t`
/// step, sharing four `a` and four `b` loads; a leftover *pair* of rows
/// runs as 2×4 blocks (a block of two or three images would otherwise
/// push its second row through a single-row strip), and
/// the remaining edges fall back to 4×1 / 1×4 strips and finally the
/// scalar reference loop. Every accumulator's addition chain over `t` is
/// sequential and ascending — identical to the reference.
fn gemm_nt_tiled(
    a: &[f32],
    seed: impl Fn(usize, usize) -> f32,
    b: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert!(b.len() >= n * k);
    let mut i = 0;
    while i + TILE <= m {
        let ar: [&[f32]; TILE] = core::array::from_fn(|r| &a[(i + r) * k..(i + r) * k + k]);
        let mut j = 0;
        while j + TILE <= n {
            let br: [&[f32]; TILE] = core::array::from_fn(|c| &b[(j + c) * k..(j + c) * k + k]);
            let mut acc: [[f32; TILE]; TILE] =
                core::array::from_fn(|r| core::array::from_fn(|c| seed(i + r, j + c)));
            for t in 0..k {
                let av: [f32; TILE] = core::array::from_fn(|r| ar[r][t]);
                let bv: [f32; TILE] = core::array::from_fn(|c| br[c][t]);
                for r in 0..TILE {
                    for c in 0..TILE {
                        acc[r][c] += av[r] * bv[c];
                    }
                }
            }
            for r in 0..TILE {
                for c in 0..TILE {
                    out[(i + r) * n + j + c] = acc[r][c];
                }
            }
            j += TILE;
        }
        while j < n {
            let brow = &b[j * k..j * k + k];
            let mut acc: [f32; TILE] = core::array::from_fn(|r| seed(i + r, j));
            for (t, &bt) in brow.iter().enumerate() {
                for r in 0..TILE {
                    acc[r] += ar[r][t] * bt;
                }
            }
            for r in 0..TILE {
                out[(i + r) * n + j] = acc[r];
            }
            j += 1;
        }
        i += TILE;
    }
    if i + 2 <= m {
        let ar: [&[f32]; 2] = core::array::from_fn(|r| &a[(i + r) * k..(i + r) * k + k]);
        let mut j = 0;
        while j + TILE <= n {
            let br: [&[f32]; TILE] = core::array::from_fn(|c| &b[(j + c) * k..(j + c) * k + k]);
            let mut acc: [[f32; TILE]; 2] =
                core::array::from_fn(|r| core::array::from_fn(|c| seed(i + r, j + c)));
            for t in 0..k {
                let av = [ar[0][t], ar[1][t]];
                let bv: [f32; TILE] = core::array::from_fn(|c| br[c][t]);
                for r in 0..2 {
                    for c in 0..TILE {
                        acc[r][c] += av[r] * bv[c];
                    }
                }
            }
            for r in 0..2 {
                for c in 0..TILE {
                    out[(i + r) * n + j + c] = acc[r][c];
                }
            }
            j += TILE;
        }
        while j < n {
            let brow = &b[j * k..j * k + k];
            let mut acc = [seed(i, j), seed(i + 1, j)];
            for (t, &bt) in brow.iter().enumerate() {
                acc[0] += ar[0][t] * bt;
                acc[1] += ar[1][t] * bt;
            }
            out[i * n + j] = acc[0];
            out[(i + 1) * n + j] = acc[1];
            j += 1;
        }
        i += 2;
    }
    while i < m {
        let arow = &a[i * k..i * k + k];
        let mut j = 0;
        while j + TILE <= n {
            let br: [&[f32]; TILE] = core::array::from_fn(|c| &b[(j + c) * k..(j + c) * k + k]);
            let mut acc: [f32; TILE] = core::array::from_fn(|c| seed(i, j + c));
            for (t, &at) in arow.iter().enumerate() {
                for c in 0..TILE {
                    acc[c] += at * br[c][t];
                }
            }
            for c in 0..TILE {
                out[i * n + j + c] = acc[c];
            }
            j += TILE;
        }
        while j < n {
            let brow = &b[j * k..j * k + k];
            let mut acc = seed(i, j);
            for (&wv, &xv) in arow.iter().zip(brow) {
                acc += wv * xv;
            }
            out[i * n + j] = acc;
            j += 1;
        }
        i += 1;
    }
}

/// Conv forward over a column-major patch ([`im2col_cols`]):
/// `out[o * rows + p] = bias[o] + Σ_t w[o * cols + t] · patch[t * rows +
/// p]`, each sum starting at the bias and adding its products in
/// ascending `t`, bit-identical to the reference `conv_forward` over the
/// transposed (row-major) patch. Runs the AVX2 kernel on an x86_64 CPU
/// with AVX2, a portable kernel over the same patch elsewhere.
pub fn conv_forward_cols(
    w: &[f32],
    bias: &[f32],
    patch: &[f32],
    rows: usize,
    cols: usize,
    out: &mut [f32],
) {
    if has_avx2() {
        #[cfg(test)]
        AVX2_RUNS
            .lock()
            .unwrap()
            .insert((FORWARD, out.as_ptr() as usize));
        // SAFETY: AVX2 is present, checked just above.
        #[cfg(target_arch = "x86_64")]
        return unsafe { avx2::conv_forward_cols(w, bias, patch, rows, cols, out) };
    }
    conv_forward_cols_portable(w, bias, patch, rows, cols, out);
}

/// The portable [`conv_forward_cols`]: one output channel at a time, its
/// row of `rows` sums seeded with the bias, then one axpy per patch
/// column in ascending order. Every sum is its own chain, so the compiler
/// vectorizes the axpy across output positions without reassociating.
fn conv_forward_cols_portable(
    w: &[f32],
    bias: &[f32],
    patch: &[f32],
    rows: usize,
    cols: usize,
    out: &mut [f32],
) {
    let out_c = bias.len();
    debug_assert_eq!(w.len(), out_c * cols);
    let rows_out = out[..out_c * rows].chunks_exact_mut(rows);
    for ((y, wrow), &b) in rows_out.zip(w.chunks_exact(cols)).zip(bias) {
        y.fill(b);
        for (&wv, col) in wrow.iter().zip(patch[..rows * cols].chunks_exact(rows)) {
            for (acc, &a) in y.iter_mut().zip(col) {
                *acc += wv * a;
            }
        }
    }
}

/// Whether the AVX2 kernels can run: on an x86_64 CPU with AVX2.
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    let avx2 = is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    avx2
}

/// [`AVX2_RUNS`] tag of [`conv_forward_cols`].
#[cfg(test)]
const FORWARD: usize = 0;
/// [`AVX2_RUNS`] tag of [`conv_input_grad`].
#[cfg(test)]
const INPUT_GRAD: usize = 1;

/// The AVX2 kernels that have run, as `(kernel tag, output address)`
/// pairs: tests check that a call they make took the kernel they meant
/// it to.
#[cfg(test)]
static AVX2_RUNS: Mutex<std::collections::BTreeSet<(usize, usize)>> =
    Mutex::new(std::collections::BTreeSet::new());

/// The AVX2 kernels. Every vector lane is one output's own chain, and
/// each step is one `_mm256_mul_ps` and then one `_mm256_add_ps`, the
/// scalar `acc += a * b` done eight outputs at a time. No FMA: a fused
/// multiply-add rounds once where the reference rounds twice.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// f32 lanes of one AVX2 register.
    const LANES: usize = 8;
    /// Output channels per forward tile.
    const CHANNELS: usize = 4;

    /// [`conv_forward_cols`](super::conv_forward_cols) in tiles of
    /// [`CHANNELS`] output channels by sixteen output positions: eight
    /// accumulators seeded with the biases, then for every patch column
    /// in ascending order two loads of the column, a broadcast weight per
    /// channel and one multiply and add per accumulator. A leftover eight
    /// positions run as one vector, and the last `rows % 8` as scalar
    /// chains in the same order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_forward_cols(
        w: &[f32],
        bias: &[f32],
        patch: &[f32],
        rows: usize,
        cols: usize,
        out: &mut [f32],
    ) {
        let out_c = bias.len();
        assert!(w.len() == out_c * cols && patch.len() >= rows * cols);
        let out = &mut out[..out_c * rows];
        for o in (0..out_c).step_by(CHANNELS) {
            match CHANNELS.min(out_c - o) {
                4 => channels::<4>(w, bias, patch, [rows, cols, o], out),
                3 => channels::<3>(w, bias, patch, [rows, cols, o], out),
                2 => channels::<2>(w, bias, patch, [rows, cols, o], out),
                _ => channels::<1>(w, bias, patch, [rows, cols, o], out),
            }
        }
    }

    /// Output channels `o..o + C`, every position.
    ///
    /// # Safety
    ///
    /// As for [`conv_forward_cols`], and the slices hold what it checks.
    #[inline(always)]
    unsafe fn channels<const C: usize>(
        w: &[f32],
        bias: &[f32],
        patch: &[f32],
        [rows, cols, o]: [usize; 3],
        out: &mut [f32],
    ) {
        let mut p = 0;
        while p + 2 * LANES <= rows {
            tile::<C, 2>(w, bias, patch, [rows, cols, o, p], out);
            p += 2 * LANES;
        }
        if p + LANES <= rows {
            tile::<C, 1>(w, bias, patch, [rows, cols, o, p], out);
            p += LANES;
        }
        for c in o..o + C {
            let wrow = &w[c * cols..(c + 1) * cols];
            for q in p..rows {
                let mut acc = bias[c];
                for (&wv, col) in wrow.iter().zip(patch.chunks_exact(rows)) {
                    acc += wv * col[q];
                }
                out[c * rows + q] = acc;
            }
        }
    }

    /// Output channels `o..o + C` at positions `p..p + V * 8`.
    ///
    /// # Safety
    ///
    /// As for [`channels`], and `p + V * 8 <= rows`.
    #[inline(always)]
    unsafe fn tile<const C: usize, const V: usize>(
        w: &[f32],
        bias: &[f32],
        patch: &[f32],
        [rows, cols, o, p]: [usize; 4],
        out: &mut [f32],
    ) {
        let mut acc = [[_mm256_setzero_ps(); V]; C];
        for (acc, &b) in acc.iter_mut().zip(&bias[o..o + C]) {
            *acc = [_mm256_set1_ps(b); V];
        }
        let weights = w.as_ptr().add(o * cols);
        for t in 0..cols {
            // Positions p..p + V * 8 of column t: inside the patch, since
            // p + V * 8 <= rows and t < cols.
            let col = patch.as_ptr().add(t * rows + p);
            let mut x = [_mm256_setzero_ps(); V];
            for (v, x) in x.iter_mut().enumerate() {
                *x = _mm256_loadu_ps(col.add(v * LANES));
            }
            for (c, acc) in acc.iter_mut().enumerate() {
                // Weight t of channel o + c < out_c: inside `w`, whose
                // length is out_c * cols.
                let wv = _mm256_set1_ps(*weights.add(c * cols + t));
                for (a, &x) in acc.iter_mut().zip(&x) {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, x));
                }
            }
        }
        for (c, acc) in acc.iter().enumerate() {
            // Positions p..p + V * 8 <= rows of channel o + c < out_c:
            // inside `out`, sliced to out_c * rows.
            let dst = out.as_mut_ptr().add((o + c) * rows + p);
            for (v, &a) in acc.iter().enumerate() {
                _mm256_storeu_ps(dst.add(v * LANES), a);
            }
        }
    }

    /// [`conv_input_grad`](super::conv_input_grad)'s tap loop with each
    /// stride-1 `(ox, image)` run eight lanes at a time, its last
    /// `len % 8` elements scalar.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_input_grad(
        w: &[f32],
        g: &[f32],
        g_dims: [usize; 3],
        in_dims: [usize; 3],
        k: usize,
        stride: usize,
        pad: usize,
        nb: usize,
        dx: &mut [f32],
    ) {
        super::scatter_taps(w, g, g_dims, in_dims, k, stride, pad, nb, dx, |d, g, wv| {
            let d = &mut d[..g.len()];
            let body = g.len() / LANES * LANES;
            let w8 = _mm256_set1_ps(wv);
            for j in (0..body).step_by(LANES) {
                // j + 8 <= body <= len of both slices.
                let dst = d.as_mut_ptr().add(j);
                let prod = _mm256_mul_ps(_mm256_loadu_ps(g.as_ptr().add(j)), w8);
                _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), prod));
            }
            for (d, &gv) in d[body..].iter_mut().zip(&g[body..]) {
                *d += gv * wv;
            }
        });
    }
}

/// The forward of a conv whose window covers its whole input
/// ([`conv_covers_input`]) over a block of images, `x` holding them back
/// to back and `out` receiving their `[oc, 1, 1]` outputs the same way.
/// Each image's one patch row *is* the image, so the images are the GEMM
/// rows, read straight off the input with no im2col. Accumulators start
/// at the bias and add their products in patch order, per image exactly
/// the scalar `conv_forward`'s, so the result is bit-identical to it.
pub fn conv_forward_rows(w: &[f32], bias: &[f32], x: &[f32], out: &mut [f32]) {
    let out_c = bias.len();
    let cols = w.len() / out_c;
    let images = x.len() / cols;
    debug_assert_eq!(x.len(), images * cols);
    gemm_nt_tiled(x, |_, o| bias[o], w, images, out_c, cols, out);
}

/// Dense forward of a block of images, `x` holding them back to back and
/// `out` receiving their outputs the same way: the images are one side of
/// the tile kernel behind [`conv_forward_rows`] and the weight rows the
/// other, so 4×4 tiles of (image, output) share every `x` and `w` load.
/// Accumulators start at zero and the bias is added last, per image
/// exactly the scalar `dense_forward`'s order, so one image or many, the
/// result is bit-identical to the reference.
pub fn dense_forward_rows(w: &[f32], bias: &[f32], x: &[f32], out: &mut [f32]) {
    let out_dim = bias.len();
    let in_dim = w.len() / out_dim;
    let images = x.len() / in_dim;
    debug_assert_eq!(x.len(), images * in_dim);
    gemm_nt_tiled(x, |_, _| 0.0, w, images, out_dim, in_dim, out);
    for y in out[..images * out_dim].chunks_exact_mut(out_dim) {
        for (v, &b) in y.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Splits four strictly ascending rows of a `width`-column row-major
/// matrix into simultaneous mutable slices (for the fused multi-row
/// backward passes).
fn rows4_mut(
    buf: &mut [f32],
    width: usize,
    o: [usize; 4],
) -> (&mut [f32], &mut [f32], &mut [f32], &mut [f32]) {
    debug_assert!(o[0] < o[1] && o[1] < o[2] && o[2] < o[3]);
    let (head0, tail0) = buf.split_at_mut(o[1] * width);
    let r0 = &mut head0[o[0] * width..(o[0] + 1) * width];
    let (head1, tail1) = tail0.split_at_mut((o[2] - o[1]) * width);
    let r1 = &mut head1[..width];
    let (head2, tail2) = tail1.split_at_mut((o[3] - o[2]) * width);
    let r2 = &mut head2[..width];
    let r3 = &mut tail2[..width];
    (r0, r1, r2, r3)
}

/// Register-tiled scalar `dense_backward`: the zero-gradient row skip is
/// applied first (exactly like the reference), then the surviving rows
/// are processed in fused ascending groups of four that share every
/// `x[t]` / `dx[t]` access. Each `dw`/`dx` element still receives its
/// additions in the reference order, so the result is bit-identical —
/// including the skip's `-0.0` preservation.
pub fn dense_backward_tiled(
    w: &[f32],
    g: &[f32],
    x: &[f32],
    dx: &mut [f32],
    dw: Option<&mut [f32]>,
    db: Option<&mut [f32]>,
) {
    let (out_dim, in_dim) = (g.len(), x.len());
    debug_assert_eq!(w.len(), out_dim * in_dim);
    if let Some(dw) = dw {
        let mut idx = [0usize; TILE];
        let mut gv4 = [0.0f32; TILE];
        let mut cnt = 0usize;
        for (o, &gv) in g.iter().enumerate() {
            if gv == 0.0 {
                continue;
            }
            idx[cnt] = o;
            gv4[cnt] = gv;
            cnt += 1;
            if cnt == TILE {
                let (r0, r1, r2, r3) = rows4_mut(dw, in_dim, idx);
                let [g0, g1, g2, g3] = gv4;
                for (t, &xv) in x.iter().enumerate() {
                    r0[t] += g0 * xv;
                    r1[t] += g1 * xv;
                    r2[t] += g2 * xv;
                    r3[t] += g3 * xv;
                }
                cnt = 0;
            }
        }
        for r in 0..cnt {
            let row = &mut dw[idx[r] * in_dim..(idx[r] + 1) * in_dim];
            let gv = gv4[r];
            for (d, &xv) in row.iter_mut().zip(x) {
                *d += gv * xv;
            }
        }
    }
    if let Some(db) = db {
        for (d, &gv) in db.iter_mut().zip(g) {
            *d += gv;
        }
    }
    dx[..in_dim].fill(0.0);
    let mut idx = [0usize; TILE];
    let mut gv4 = [0.0f32; TILE];
    let mut cnt = 0usize;
    for (o, &gv) in g.iter().enumerate() {
        if gv == 0.0 {
            continue;
        }
        idx[cnt] = o;
        gv4[cnt] = gv;
        cnt += 1;
        if cnt == TILE {
            let wr: [&[f32]; TILE] =
                core::array::from_fn(|r| &w[idx[r] * in_dim..idx[r] * in_dim + in_dim]);
            let [g0, g1, g2, g3] = gv4;
            for (t, d) in dx[..in_dim].iter_mut().enumerate() {
                let mut v = *d;
                v += wr[0][t] * g0;
                v += wr[1][t] * g1;
                v += wr[2][t] * g2;
                v += wr[3][t] * g3;
                *d = v;
            }
            cnt = 0;
        }
    }
    for r in 0..cnt {
        let row = &w[idx[r] * in_dim..(idx[r] + 1) * in_dim];
        let gv = gv4[r];
        for (d, &wv) in dx[..in_dim].iter_mut().zip(row) {
            *d += wv * gv;
        }
    }
}

/// Register-tiled scalar `conv_backward_params`: four `dw` rows advance
/// together so each im2col patch row is loaded once per group instead of
/// once per output channel. Every `dw[o][j]` and `db[o]` chain still
/// accumulates over positions `p` in ascending order — bit-identical to
/// the reference.
pub fn conv_backward_params_tiled(
    g: &[f32],
    patch: &[f32],
    rows: usize,
    cols: usize,
    dw: &mut [f32],
    db: &mut [f32],
) {
    let out_c = db.len();
    debug_assert_eq!(dw.len(), out_c * cols);
    debug_assert!(patch.len() >= rows * cols);
    let mut o = 0;
    while o + TILE <= out_c {
        let (r0, r1, r2, r3) = rows4_mut(dw, cols, [o, o + 1, o + 2, o + 3]);
        for p in 0..rows {
            let g0 = g[o * rows + p];
            let g1 = g[(o + 1) * rows + p];
            let g2 = g[(o + 2) * rows + p];
            let g3 = g[(o + 3) * rows + p];
            db[o] += g0;
            db[o + 1] += g1;
            db[o + 2] += g2;
            db[o + 3] += g3;
            let prow = &patch[p * cols..(p + 1) * cols];
            for (t, &a) in prow.iter().enumerate() {
                r0[t] += g0 * a;
                r1[t] += g1 * a;
                r2[t] += g2 * a;
                r3[t] += g3 * a;
            }
        }
        o += TILE;
    }
    while o < out_c {
        let wrow = &mut dw[o * cols..(o + 1) * cols];
        for p in 0..rows {
            let gv = g[o * rows + p];
            db[o] += gv;
            let prow = &patch[p * cols..(p + 1) * cols];
            for (d, &a) in wrow.iter_mut().zip(prow) {
                *d += gv * a;
            }
        }
        o += 1;
    }
}

/// ReLU forward: `out[i] = max(x[i], 0)`.
pub fn relu(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v.max(0.0);
    }
}

/// ReLU backward: passes the gradient where the forward input was
/// strictly positive.
pub fn relu_backward(x: &[f32], g: &[f32], out: &mut [f32]) {
    for ((o, &xv), &gv) in out.iter_mut().zip(x).zip(g) {
        *o = if xv > 0.0 { gv } else { 0.0 };
    }
}

/// Non-overlapping average pooling, mirroring the seed's
/// `sum * (1 / k²)` evaluation order.
pub fn avgpool(x: &[f32], dims: [usize; 3], k: usize, out: &mut [f32]) {
    let [c, h, w] = dims;
    debug_assert!(h % k == 0 && w % k == 0, "pool window must tile input");
    let (oh, ow) = (h / k, w / k);
    let inv = 1.0 / (k * k) as f32;
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for dy in 0..k {
                    let row = (ch * h + oy * k + dy) * w + ox * k;
                    for dx in 0..k {
                        acc += x[row + dx];
                    }
                }
                out[(ch * oh + oy) * ow + ox] = acc * inv;
            }
        }
    }
}

/// Average-pool backward: spreads each gradient value scaled by `1 / k²`
/// over its window (windows do not overlap, so every element is written
/// exactly once).
pub fn avgpool_backward(g: &[f32], in_dims: [usize; 3], k: usize, dx: &mut [f32]) {
    let [c, h, w] = in_dims;
    let (oh, ow) = (h / k, w / k);
    let inv = 1.0 / (k * k) as f32;
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let gv = g[(ch * oh + oy) * ow + ox] * inv;
                for dy in 0..k {
                    let row = (ch * h + oy * k + dy) * w + ox * k;
                    for dx_i in 0..k {
                        dx[row + dx_i] = gv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{conv_backward_params, conv_forward, dense_backward, dense_forward};
    use axutil::rng::Rng;
    use proptest::prelude::*;

    #[test]
    fn im2col_identity_for_1x1_kernel() {
        let x: Vec<f32> = (1..=8).map(|v| v as f32).collect();
        let mut out = vec![0.0f32; 8];
        im2col(&x, [2, 2, 2], 1, 1, 0, 4, 2, &mut out);
        assert_eq!(out, vec![1.0, 5.0, 2.0, 6.0, 3.0, 7.0, 4.0, 8.0]);
    }

    #[test]
    fn im2col_pads_with_zeros() {
        let x = vec![9.0f32; 4]; // [1, 2, 2]
        let (rows, cols) = (4, 9); // 3x3 kernel, pad 1 on 2x2 -> 2x2 output
        let mut out = vec![f32::NAN; rows * cols];
        im2col(&x, [1, 2, 2], 3, 1, 1, rows, cols, &mut out);
        assert_eq!(out[..cols], [0.0, 0.0, 0.0, 0.0, 9.0, 9.0, 0.0, 9.0, 9.0]);
        let total: f32 = out.iter().sum();
        assert_eq!(total, 4.0 * 4.0 * 9.0, "each pixel appears in four patches");
    }

    #[test]
    fn conv_forward_starts_at_bias() {
        // One 2x2 patch row of ones against weights [1, 2, 3, 4], bias 0.5.
        let patch = [1.0f32; 4];
        let mut out = [0.0f32; 1];
        conv_forward(&[1.0, 2.0, 3.0, 4.0], &[0.5], &patch, 1, 4, &mut out);
        assert_eq!(out, [10.5]);
    }

    #[test]
    fn dense_forward_adds_bias_last() {
        let mut out = [0.0f32; 2];
        dense_forward(&[1.0, 2.0, -1.0, 0.5], &[0.1, -0.1], &[3.0, 4.0], &mut out);
        assert!((out[0] - 11.1).abs() < 1e-6);
        assert!((out[1] - (-1.1)).abs() < 1e-6);
    }

    #[test]
    fn dense_backward_matches_transpose() {
        let w = [1.0f32, 2.0, 3.0, 4.0]; // [2, 2]
        let g = [5.0f32, 6.0];
        let x = [7.0f32, 8.0];
        let mut dx = [f32::NAN; 2];
        let mut dw = [0.0f32; 4];
        let mut db = [0.0f32; 2];
        dense_backward(&w, &g, &x, &mut dx, Some(&mut dw), Some(&mut db));
        assert_eq!(dx, [1.0 * 5.0 + 3.0 * 6.0, 2.0 * 5.0 + 4.0 * 6.0]);
        assert_eq!(dw, [35.0, 40.0, 42.0, 48.0]);
        assert_eq!(db, [5.0, 6.0]);
    }

    #[test]
    fn conv_input_grad_scatters_through_in_range_taps() {
        // 1 channel, 3x3 input, k=2, s=1: a 2x2 gradient.
        let (g, w) = ([1.0f32, 2.0, 3.0, 4.0], [1.0f32, 10.0, 100.0, 1000.0]);
        let mut dx = [f32::NAN; 9];
        conv_input_grad(&w, &g, [1, 2, 2], [1, 3, 3], 2, 1, 0, 1, &mut dx);
        // Corner (0, 0) sees only output (0, 0) through tap (0, 0); the
        // centre sees all four outputs, each through a different tap.
        assert_eq!(
            dx,
            [1.0, 12.0, 20.0, 103.0, 1234.0, 2040.0, 300.0, 3400.0, 4000.0]
        );
        // A 1x1 output covering the input is the row sweep `Wᵀ g`.
        let mut dx = [f32::NAN; 4];
        let w = [1.0f32, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        conv_input_grad(&w, &[1.0, -1.0], [2, 1, 1], [1, 2, 2], 2, 1, 0, 1, &mut dx);
        assert_eq!(dx, [-9.0, -18.0, -27.0, -36.0]);
    }

    #[test]
    fn avgpool_roundtrip() {
        let x: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let mut y = [0.0f32; 4];
        avgpool(&x, [1, 4, 4], 2, &mut y);
        assert_eq!(y[0], (0.0 + 1.0 + 4.0 + 5.0) / 4.0);
        let mut dx = [f32::NAN; 16];
        avgpool_backward(&[4.0, 0.0, 0.0, 0.0], [1, 4, 4], 2, &mut dx);
        assert_eq!(dx[0], 1.0);
        assert_eq!(dx[5], 1.0);
        assert_eq!(dx[2], 0.0);
    }

    /// Deterministic pseudo-random fill so the tiled-vs-reference checks
    /// cover non-trivial values without pulling in a RNG dependency.
    fn fill(seed: u32, n: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `n` values in `[-1, 1)`, a quarter of them forced to `+0.0` or
    /// `-0.0`.
    fn signed_zeros(rng: &mut Rng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.range_f32(-1.0, 1.0),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `im2col_cols` is the transpose of the row-major `im2col`, bit
        /// for bit, at every kernel size 1–5, stride 1–3 and pad 0–2 on
        /// 1–4 channels and a random input size, over a patch prefilled
        /// with NaN.
        #[test]
        fn im2col_cols_is_transposed_im2col(
            c in 1usize..=4,
            k in 1usize..=5,
            stride in 1usize..=3,
            pad in 0usize..=2,
            extra_h in 0usize..6,
            extra_w in 0usize..6,
            seed in any::<u64>(),
        ) {
            let lo = k.saturating_sub(2 * pad).max(1);
            let (h, w) = (lo + extra_h, lo + extra_w);
            let x = signed_zeros(&mut Rng::seed_from_u64(seed), c * h * w);
            let out = |n: usize| (n + 2 * pad - k) / stride + 1;
            let (rows, cols) = (out(h) * out(w), c * k * k);
            let mut want = vec![f32::NAN; rows * cols];
            im2col(&x, [c, h, w], k, stride, pad, rows, cols, &mut want);
            let mut got = vec![f32::NAN; rows * cols];
            im2col_cols(&x, [c, h, w], k, stride, pad, rows, cols, &mut got);
            let transposed: Vec<f32> = (0..rows * cols)
                .map(|i| want[i % rows * cols + i / rows])
                .collect();
            prop_assert_eq!(bits(&got), bits(&transposed));
        }

        /// The dispatched conv forward over a column-major patch, and the
        /// portable kernel, against the reference `conv_forward` over the
        /// row-major patch, bit for bit. `rows` runs past whole 16- and
        /// 8-position tiles and `out_c` past whole 4-channel tiles, and
        /// weights, biases and patch values include `+0.0` and `-0.0`. On
        /// an AVX2 host the dispatched call must take the AVX2 kernel.
        #[test]
        fn conv_forward_cols_matches_reference(
            out_c in 1usize..=9,
            rows in 1usize..=70,
            cols in 1usize..=40,
            seed in any::<u64>(),
        ) {
            let rng = &mut Rng::seed_from_u64(seed);
            let w = signed_zeros(rng, out_c * cols);
            let bias = signed_zeros(rng, out_c);
            let patch = signed_zeros(rng, rows * cols);
            let columns: Vec<f32> = (0..rows * cols)
                .map(|i| patch[i % rows * cols + i / rows])
                .collect();
            let mut want = vec![0.0f32; out_c * rows];
            conv_forward(&w, &bias, &patch, rows, cols, &mut want);
            let mut got = vec![f32::NAN; out_c * rows];
            let address = got.as_ptr() as usize;
            AVX2_RUNS.lock().unwrap().remove(&(FORWARD, address));
            conv_forward_cols(&w, &bias, &columns, rows, cols, &mut got);
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(AVX2_RUNS.lock().unwrap().contains(&(FORWARD, address)), has_avx2());
            let mut got = vec![f32::NAN; out_c * rows];
            conv_forward_cols_portable(&w, &bias, &columns, rows, cols, &mut got);
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// A block's conv input gradient (images innermost) against one
        /// call per image, bit for bit, at block widths 2–4 over kernel
        /// sizes 1–5, stride 1–2 and pad 0–2, with upstream gradients and
        /// weights holding `+0.0` and `-0.0`. On an AVX2 host every block
        /// call must take the AVX2 kernel.
        #[test]
        fn block_conv_input_grad_matches_one_image_calls(
            ic in 1usize..=3,
            oc in 1usize..=5,
            k in 1usize..=5,
            stride in 1usize..=2,
            pad in 0usize..=2,
            extra_h in 0usize..6,
            extra_w in 0usize..6,
            nb in 2usize..=4,
            seed in any::<u64>(),
        ) {
            let lo = k.saturating_sub(2 * pad).max(1);
            let (h, wd) = (lo + extra_h, lo + extra_w);
            let out = |n: usize| (n + 2 * pad - k) / stride + 1;
            let g_dims = [oc, out(h), out(wd)];
            let (g_len, dx_len) = (g_dims.iter().product::<usize>(), ic * h * wd);
            let rng = &mut Rng::seed_from_u64(seed);
            let w = signed_zeros(rng, oc * ic * k * k);
            let g = signed_zeros(rng, nb * g_len);
            let mut dx = vec![f32::NAN; nb * dx_len];
            let address = dx.as_ptr() as usize;
            AVX2_RUNS.lock().unwrap().remove(&(INPUT_GRAD, address));
            conv_input_grad(&w, &g, g_dims, [ic, h, wd], k, stride, pad, nb, &mut dx);
            prop_assert_eq!(AVX2_RUNS.lock().unwrap().contains(&(INPUT_GRAD, address)), has_avx2());
            for b in 0..nb {
                let g_b: Vec<f32> = (0..g_len).map(|t| g[t * nb + b]).collect();
                let mut want = vec![f32::NAN; dx_len];
                conv_input_grad(&w, &g_b, g_dims, [ic, h, wd], k, stride, pad, 1, &mut want);
                let got: Vec<f32> = (0..dx_len).map(|t| dx[t * nb + b]).collect();
                prop_assert!(bits(&got) == bits(&want), "image {b}");
            }
        }
    }

    #[test]
    fn tiled_conv_forward_is_bit_exact() {
        // Odd sizes on purpose: whole 4×16 tiles plus channel and
        // position edges.
        let (out_c, rows, cols) = (6, 37, 13);
        let w = fill(1, out_c * cols);
        let bias = fill(2, out_c);
        let patch = fill(3, rows * cols);
        let columns: Vec<f32> = (0..rows * cols)
            .map(|i| patch[i % rows * cols + i / rows])
            .collect();
        let mut reference = vec![0.0f32; out_c * rows];
        let mut tiled = vec![f32::NAN; out_c * rows];
        conv_forward(&w, &bias, &patch, rows, cols, &mut reference);
        conv_forward_cols(&w, &bias, &columns, rows, cols, &mut tiled);
        assert_eq!(bits(&reference), bits(&tiled));
    }

    #[test]
    fn tiled_dense_pair_is_bit_exact() {
        let (out_dim, in_dim) = (11, 17);
        let w = fill(4, out_dim * in_dim);
        let bias = fill(5, out_dim);
        let x = fill(6, in_dim);
        let mut reference = vec![0.0f32; out_dim];
        let mut tiled = vec![0.0f32; out_dim];
        dense_forward(&w, &bias, &x, &mut reference);
        dense_forward_rows(&w, &bias, &x, &mut tiled);
        assert_eq!(reference, tiled);

        // Backward with zeroed gradient rows so the skip-grouping runs.
        let mut g = fill(7, out_dim);
        for o in (0..out_dim).step_by(3) {
            g[o] = 0.0;
        }
        let (mut dx_r, mut dx_t) = (vec![f32::NAN; in_dim], vec![f32::NAN; in_dim]);
        let (mut dw_r, mut dw_t) = (fill(8, out_dim * in_dim), fill(8, out_dim * in_dim));
        let (mut db_r, mut db_t) = (fill(9, out_dim), fill(9, out_dim));
        dense_backward(&w, &g, &x, &mut dx_r, Some(&mut dw_r), Some(&mut db_r));
        dense_backward_tiled(&w, &g, &x, &mut dx_t, Some(&mut dw_t), Some(&mut db_t));
        assert_eq!(dx_r, dx_t);
        assert_eq!(dw_r, dw_t);
        assert_eq!(db_r, db_t);
    }

    #[test]
    fn tiled_conv_backward_is_bit_exact() {
        let (out_c, rows, cols) = (5, 9, 11);
        let g = fill(10, out_c * rows);
        let patch = fill(11, rows * cols);
        let (mut dw_r, mut dw_t) = (fill(12, out_c * cols), fill(12, out_c * cols));
        let (mut db_r, mut db_t) = (fill(13, out_c), fill(13, out_c));
        conv_backward_params(&g, &patch, rows, cols, &mut dw_r, &mut db_r);
        conv_backward_params_tiled(&g, &patch, rows, cols, &mut dw_t, &mut db_t);
        assert_eq!(dw_r, dw_t);
        assert_eq!(db_r, db_t);
    }

    #[test]
    fn relu_pair() {
        let x = [-1.0f32, 0.0, 2.0];
        let mut y = [f32::NAN; 3];
        relu(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 2.0]);
        let mut dx = [f32::NAN; 3];
        relu_backward(&x, &[5.0, 5.0, 5.0], &mut dx);
        assert_eq!(dx, [0.0, 0.0, 5.0]);
    }
}
