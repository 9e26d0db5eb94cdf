//! Execution kernels for compiled quantized inference.
//!
//! These are the hot loops behind [`crate::plan::QPlan`]: input
//! quantization, the sign/magnitude LUT-GEMM that lowers both conv and
//! dense layers to one inner dot-product shape, and average pooling.
//! Patch extraction is the float engine's generic
//! [`im2col`](axnn::exec::im2col) over `u8` codes. Everything works on
//! flat `u8` scratch slices so the plan can reuse buffers across images
//! and kernels.
//!
//! The GEMM dispatches on [`MulBackend`] *once per layer*, so the inner
//! loop monomorphizes: the exact kernel compiles to a plain `a * b`, a
//! [`MulLut`](axmul::MulLut) to one bounds-check-free table read (reading
//! [`MulLut::table`](axmul::MulLut::table) directly), and only foreign
//! kernels pay a trait call per MAC.
//!
//! # Padding semantics
//!
//! Zero-padded conv positions are materialized as `0` activations in the
//! im2col patch and *go through the multiplier* like every other operand
//! — the behaviour of a hardware MAC array (and of TFApprox's GPU
//! LUT-GEMM). For approximate kernels with `mul(w, 0) != 0` this differs
//! from skipping padded positions, which the earlier scalar engine did;
//! exact multipliers are unaffected.

use axmul::{MulBackend, MulKernel};

use crate::qmodel::QWeights;

/// Rounds `y` half away from zero to an activation code in `[0, qmax]`
/// (`qmax` a whole number ≤ 255): the value of
/// `y.round().clamp(0.0, qmax) as u8`, without the out-of-line `roundf`
/// call that form compiles to on baseline x86-64. After the clamp
/// `y >= 0`, so the cast truncates to `floor(y)` and `y - floor(y)` is
/// exact; ties round up, as `round` does. NaN still maps to 0 and ±inf
/// to the bounds.
#[inline(always)]
pub(crate) fn round_code(y: f32, qmax: f32) -> u8 {
    let y = y.clamp(0.0, qmax);
    let t = y as u32;
    (t + u32::from(y - t as f32 >= 0.5)) as u8
}

/// Quantizes a float image in `[0, 1]` to `u8` activation codes.
pub(crate) fn quantize_input(x: &[f32], qmax: f32, out: &mut [u8]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x) {
        *o = round_code(v * qmax, qmax);
    }
}

/// Rows per register block of [`gemm_core`], and images per block of the
/// plan's batch paths: a block of dense-layer inputs is one row block.
pub(crate) const BLOCK: usize = 4;

/// The shared inner loop, over a GEMM of shape `[images, rows, cols]`:
/// `out_c x cols` sign/magnitude weights against `images * rows` patch
/// rows, accumulating in i32 and handing each
/// finished accumulator to `sink(b * out_c * rows + o * rows + q, acc)`.
/// Patch row `b * rows + q` is row `q` of image `b`, so every image's
/// outputs land in its own `[out_c, rows]` slab.
///
/// `mul` is a concrete closure per [`MulBackend`] variant, so each call
/// site monomorphizes to a branch-free dot product.
///
/// The patch is processed in blocks of [`BLOCK`] rows with unrolled,
/// independent accumulators: each weight magnitude/sign pair is loaded
/// once per block instead of once per row, and the four i32 chains give
/// the backend's multiplier loop instruction-level parallelism. A block
/// may span images: a dense layer (`rows = 1`) sees a block of images as
/// one row block. Integer accumulation is associative, so the blocking is
/// bit-identical to the plain row-at-a-time loop (kept below as the
/// remainder path).
fn gemm_core<F: Fn(u8, u8) -> u16, S: FnMut(usize, i32)>(
    w: &QWeights,
    patch: &[u8],
    [images, rows, cols]: [usize; 3],
    mul: F,
    mut sink: S,
) {
    let out_c = w.bias_q.len();
    let (total, out_len) = (images * rows, out_c * rows);
    debug_assert!(patch.len() >= total * cols);
    debug_assert_eq!(w.mag.len(), out_c * cols);
    for o in 0..out_c {
        let mags = &w.mag[o * cols..(o + 1) * cols];
        let signs = &w.sign[o * cols..(o + 1) * cols];
        let bias = w.bias_q[o];
        // Destination of the next patch row: advances by one within an
        // image and jumps to the next image's slab after its last row.
        let (mut dst, mut q) = (o * rows, 0);
        let mut next = || {
            let d = dst;
            dst += 1;
            q += 1;
            if q == rows {
                q = 0;
                dst += out_len - rows;
            }
            d
        };
        let mut p = 0;
        while p + BLOCK <= total {
            let pr: [&[u8]; BLOCK] =
                core::array::from_fn(|r| &patch[(p + r) * cols..(p + r + 1) * cols]);
            let mut acc = [bias; BLOCK];
            for (j, (&mg, &sg)) in mags.iter().zip(signs).enumerate() {
                let s = sg as i32;
                for (a, row) in acc.iter_mut().zip(&pr) {
                    *a += s * mul(mg, row[j]) as i32;
                }
            }
            for &a in &acc {
                sink(next(), a);
            }
            p += BLOCK;
        }
        while p < total {
            let prow = &patch[p * cols..(p + 1) * cols];
            let mut acc = bias;
            for ((&mg, &sg), &a) in mags.iter().zip(signs).zip(prow) {
                acc += sg as i32 * mul(mg, a) as i32;
            }
            sink(next(), acc);
            p += 1;
        }
    }
}

macro_rules! dispatch_gemm {
    ($backend:expr, $w:expr, $patch:expr, $shape:expr, $sink:expr) => {
        match $backend {
            MulBackend::Exact => gemm_core($w, $patch, $shape, |a, b| a as u16 * b as u16, $sink),
            MulBackend::Table(t) => gemm_core(
                $w,
                $patch,
                $shape,
                // Operands are u8, so the index is always < 2^16 and the
                // table (checked in `MulBackend::of`) has 2^16 entries.
                |a, b| unsafe { *t.get_unchecked(((a as usize) << 8) | b as usize) },
                $sink,
            ),
            MulBackend::Generic(k) => gemm_core($w, $patch, $shape, |a, b| k.mul(a, b), $sink),
        }
    };
}

/// GEMM of shape `[images, rows, cols]` (see [`gemm_core`]) for a
/// requantizing layer (conv or hidden dense): accumulators are rescaled,
/// ReLU-clamped and written as `u8` activation codes, image after image.
pub(crate) fn gemm_requant<K: MulKernel + ?Sized>(
    backend: MulBackend<'_, K>,
    w: &QWeights,
    patch: &[u8],
    shape: [usize; 3],
    out: &mut [u8],
) {
    let m = w
        .requant
        .expect("requantizing layers carry a requant scale");
    let qmax = w.act_qmax;
    dispatch_gemm!(backend, w, patch, shape, |i, acc: i32| {
        // Fused ReLU: clamp below at 0 during requantization.
        out[i] = round_code(acc as f32 * m, qmax)
    });
}

/// GEMM of shape `[images, rows, cols]` for the final logits layer:
/// accumulators are dequantized to f32, image after image.
pub(crate) fn gemm_logits<K: MulKernel + ?Sized>(
    backend: MulBackend<'_, K>,
    w: &QWeights,
    patch: &[u8],
    shape: [usize; 3],
    out: &mut [f32],
) {
    debug_assert!(w.requant.is_none(), "logits layer does not requantize");
    dispatch_gemm!(backend, w, patch, shape, |i, acc: i32| {
        out[i] = acc as f32 * w.dequant
    });
}

/// Average pooling with round-to-nearest integer division; the activation
/// scale is unchanged.
pub(crate) fn avgpool(x: &[u8], dims: [usize; 3], k: usize, out: &mut [u8]) {
    let [c, h, w] = dims;
    debug_assert!(h % k == 0 && w % k == 0, "pool window must tile input");
    let (oh, ow) = (h / k, w / k);
    let div = (k * k) as u32;
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc: u32 = 0;
                for dy in 0..k {
                    let row = (ch * h + oy * k + dy) * w + ox * k;
                    for dx in 0..k {
                        acc += x[row + dx] as u32;
                    }
                }
                out[(ch * oh + oy) * ow + ox] = ((acc + div / 2) / div) as u8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmul::{ExactMul, MulLut};
    use axnn::exec::im2col;

    fn qweights(signs: Vec<i8>, mags: Vec<u8>, bias: Vec<i32>, requant: Option<f32>) -> QWeights {
        QWeights {
            sign: signs,
            max_mag: mags.iter().copied().max().unwrap_or(0),
            mag: mags,
            bias_q: bias,
            requant,
            dequant: 1.0,
            act_qmax: 255.0,
        }
    }

    /// `round_code` against the `round().clamp()` form it replaces, on
    /// every tie `k + 0.5` and its two neighbouring floats, negatives,
    /// values above `qmax`, ±inf, NaN and a dense sweep, at the 4- and
    /// 8-bit code ranges.
    #[test]
    fn round_code_matches_round_then_clamp() {
        let reference = |y: f32, qmax: f32| y.round().clamp(0.0, qmax) as u8;
        let mut probes = vec![
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        for k in 0..=300 {
            let tie = k as f32 + 0.5;
            probes.extend([
                tie,
                f32::from_bits(tie.to_bits() - 1),
                f32::from_bits(tie.to_bits() + 1),
            ]);
            probes.extend([-tie, -(k as f32), k as f32]);
        }
        probes.extend((0..=600_000).map(|i| i as f32 * 0.000_5 - 20.0));
        for qmax in [15.0f32, 255.0] {
            for &y in &probes {
                assert_eq!(
                    round_code(y, qmax),
                    reference(y, qmax),
                    "y = {y:e}, qmax = {qmax}"
                );
            }
        }
    }

    #[test]
    fn quantize_input_rounds_and_clamps() {
        let mut out = [0u8; 4];
        quantize_input(&[0.0, 0.5, 1.0, 2.0], 255.0, &mut out);
        assert_eq!(out, [0, 128, 255, 255]);
    }

    #[test]
    fn im2col_identity_for_1x1_kernel() {
        let x: Vec<u8> = (1..=8).collect();
        let mut out = vec![0u8; 8];
        im2col(&x, [2, 2, 2], 1, 1, 0, 4, 2, &mut out);
        // Each patch row holds both channels of one position.
        assert_eq!(out, vec![1, 5, 2, 6, 3, 7, 4, 8]);
    }

    #[test]
    fn im2col_pads_with_zeros() {
        let x: Vec<u8> = vec![9; 4]; // [1, 2, 2]
        let rows = 4; // 3x3 kernel, pad 1, stride 1 on 2x2 -> 2x2 output
        let cols = 9;
        let mut out = vec![0xAA; rows * cols];
        im2col(&x, [1, 2, 2], 3, 1, 1, rows, cols, &mut out);
        // Top-left patch: only the bottom-right 2x2 of the window is real.
        assert_eq!(out[..cols], [0, 0, 0, 0, 9, 9, 0, 9, 9]);
        let total: u32 = out.iter().map(|&v| v as u32).sum();
        assert_eq!(total, 4 * 4 * 9, "each pixel appears in four patches");
    }

    #[test]
    fn gemm_requant_matches_hand_computation() {
        // One output row, two patches, cols = 2: acc = bias + s0*m0*a0 + s1*m1*a1.
        let w = qweights(vec![1, -1], vec![3, 2], vec![10], Some(0.5));
        let patch = [4u8, 5, 0, 7];
        let mut out = [0u8; 2];
        gemm_requant(
            MulBackend::<ExactMul>::of(&ExactMul),
            &w,
            &patch,
            [1, 2, 2],
            &mut out,
        );
        // p0: 10 + 12 - 10 = 12 -> 6; p1: 10 + 0 - 14 = -4 -> relu 0.
        assert_eq!(out, [6, 0]);
    }

    #[test]
    fn gemm_logits_dequantizes() {
        let w = qweights(vec![1], vec![2], vec![-1], None);
        let patch = [10u8];
        let mut out = [0f32; 1];
        gemm_logits(
            MulBackend::<ExactMul>::of(&ExactMul),
            &w,
            &patch,
            [1, 1, 1],
            &mut out,
        );
        assert_eq!(out, [19.0]);
    }

    #[test]
    fn table_and_generic_backends_agree_with_exact() {
        let lut = MulLut::exact();
        let w = qweights(
            vec![1, -1, 1, 1, -1, 1],
            vec![7, 130, 255, 0, 1, 9],
            vec![3, -2],
            Some(0.25),
        );
        let patch: Vec<u8> = vec![255, 4, 0, 17, 200, 66];
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let mut c = [0u8; 4];
        gemm_requant(
            MulBackend::<ExactMul>::of(&ExactMul),
            &w,
            &patch,
            [1, 2, 3],
            &mut a,
        );
        gemm_requant(MulBackend::of(&lut), &w, &patch, [1, 2, 3], &mut b);
        // Force the generic path for the same LUT.
        gemm_requant(MulBackend::Generic(&lut), &w, &patch, [1, 2, 3], &mut c);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn image_block_matches_one_image_calls() {
        // Three outputs over 3 rows x 2 cols per image: five images span
        // one full row block, edges inside it and the remainder path.
        let w = qweights(
            vec![1, -1, 1, -1, 1, 1],
            vec![5, 9, 200, 3, 17, 64],
            vec![7, -3, 100],
            Some(0.125),
        );
        let (images, rows, cols, out_c) = (5, 3, 2, 3);
        let patch: Vec<u8> = (0..images * rows * cols)
            .map(|i| (i * 37 % 251) as u8)
            .collect();
        let lut = MulLut::exact();
        let mut block = vec![0u8; images * out_c * rows];
        gemm_requant(
            MulBackend::of(&lut),
            &w,
            &patch,
            [images, rows, cols],
            &mut block,
        );
        for b in 0..images {
            let mut one = vec![0u8; out_c * rows];
            let p = &patch[b * rows * cols..(b + 1) * rows * cols];
            gemm_requant(MulBackend::of(&lut), &w, p, [1, rows, cols], &mut one);
            assert_eq!(one[..], block[b * out_c * rows..(b + 1) * out_c * rows]);
        }
    }

    #[test]
    fn avgpool_math_is_rounded_mean() {
        let x = [10u8, 20, 30, 41];
        let mut out = [0u8; 1];
        avgpool(&x, [1, 2, 2], 2, &mut out);
        // (10+20+30+41+2)/4 = 25.75 -> floor = 25 (round-half-up of 25.25).
        assert_eq!(out, [25]);
    }
}
