//! Execution kernels for compiled quantized inference.
//!
//! These are the hot loops behind [`crate::plan::QPlan`]: input
//! quantization, im2col into panel-major patches (row-major patches come
//! from the float engine's generic [`im2col`](axnn::exec::im2col)), the
//! sign/magnitude LUT-GEMM that lowers both conv and dense layers to one
//! inner dot-product shape, and average pooling. Everything works on flat
//! `u8` scratch slices so the plan can reuse buffers across images and
//! kernels.
//!
//! # Patch layouts
//!
//! A dense step reads its input codes in place, row-major: one GEMM row
//! per image (`ROW_MAJOR`). A conv step whose block has at least
//! `PANEL` GEMM rows, on an AVX2 CPU (`use_panels`), reads a
//! *panel-major* patch written by `im2col_panels`: GEMM rows are
//! grouped into panels of `PANEL` rows, and a panel stores each patch
//! column's eight codes next to each other, `[panel][column][row]`. The
//! rows of a block run image after image, so a panel may span two
//! images; the tail of the last panel is zero-filled. Any other conv step
//! (fewer rows, such as LeNet-5's one-row conv3 at one to four images,
//! or another CPU) reads row-major patches, image after image.
//!
//! # Kernel tiers
//!
//! The GEMM dispatches on [`MulBackend`] *once per layer*, so the inner
//! loop monomorphizes:
//!
//! - the exact kernel compiles to a plain `a * b`;
//! - a [`MulLut`](axmul::MulLut) is one bounds-check-free table read per
//!   MAC (reading [`MulLut::table`](axmul::MulLut::table) directly);
//! - foreign kernels pay a trait call per MAC.
//!
//! All three run in `gemm_core`, four rows at a time (half a panel on a
//! panel-major patch). On an AVX2 CPU two kernels take over, one per
//! layout, and both fetch eight table products with one `vpgatherdd` at
//! indices `(mag << 8) | a` (scale 2, masked to 16 bits), then apply the
//! weights' signs and accumulate in eight i32 lanes:
//!
//! - The *panel kernel* runs table and exact GEMMs over a panel-major
//!   patch. Per output channel, pair of panels and patch column it loads
//!   each panel's eight activation codes (eight rows) against one
//!   broadcast weight; an exact GEMM multiplies by the signed weight
//!   instead of gathering. The exact product joins this tier because
//!   `gemm_core`'s exact loop, which vectorizes along a row-major patch
//!   row, is about half as fast over panels.
//! - The *row kernel* runs table GEMMs over a row-major patch of at least
//!   eight columns: every dense step, and the short conv steps. Per
//!   output channel and block of up to four rows it walks the columns
//!   eight at a time, widens the eight weight magnitudes and signs once,
//!   and makes one gather per row into that row's accumulator; a
//!   horizontal sum, the bias and a scalar tail over the last `cols % 8`
//!   columns finish each row.
//!
//! Exact GEMMs over row-major patches, `Generic` backends (over either
//! layout), narrower rows and other CPUs keep `gemm_core`.
//!
//! The tiers are bit-identical: all sum the same i32 products in i32,
//! where addition is exact, and hand each row's accumulator to the same
//! sink in the same order. The gather fetches 32 bits at byte offset
//! `2 * idx` and keeps the low 16, so it also reads entry `idx + 1`. With
//! `idx = (mag << 8) | a` that stays inside the 2^16-entry table whenever
//! `mag < 255`; quantized weight magnitudes are at most 127
//! ([`QLevel::weight_qmax`](crate::QLevel::weight_qmax)), and neither
//! AVX2 kernel is used on a layer whose largest magnitude is 255.
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

/// Patch layout of a dense step: row `p`'s codes are contiguous.
pub(crate) const ROW_MAJOR: usize = 1;

/// Rows per panel of a conv step's panel-major patch (see the
/// [module docs](self)): one AVX2 register of i32 accumulators.
pub(crate) const PANEL: usize = 8;

/// Whether a conv step whose block has `total` GEMM rows gets a
/// panel-major patch: only where the AVX2 panel kernel runs it, on an
/// x86_64 CPU with AVX2 and at least one full panel. Shorter steps and
/// other CPUs keep the row-major patch, on which `gemm_core` runs as on a
/// dense step (its exact loop vectorizes along a row-major row, and is
/// about half as fast over panels).
pub(crate) fn use_panels(total: usize) -> bool {
    has_avx2() && total >= PANEL
}

/// Whether the AVX2 kernels can run: on an x86_64 CPU with AVX2.
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    let avx2 = is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    avx2
}

/// Length of the panel-major patch of `total` GEMM rows of `cols` codes:
/// whole panels, the last one zero-padded.
pub(crate) fn panel_patch_len(total: usize, cols: usize) -> usize {
    total.div_ceil(PANEL) * PANEL * cols
}

/// im2col of `images` `[c, h, w]` images stored back to back in `x`, into
/// the panel-major layout of the [module docs](self): GEMM row
/// `p = b * rows + q` (output position `q` of image `b`) and patch column
/// `j = (ci * k + ky) * k + kx` land at
/// `out[(p / PANEL * cols + j) * PANEL + p % PANEL]`. Rows past
/// `images * rows` in the last panel are zero.
///
/// A stride-1 panel inside one output row (every panel of LeNet-5) reads
/// each column as eight consecutive input pixels: one 8-byte copy, except
/// where the window overlaps the zero padding.
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_panels(
    x: &[u8],
    [c, h, w]: [usize; 3],
    k: usize,
    stride: usize,
    pad: usize,
    [images, rows, cols]: [usize; 3],
    out: &mut [u8],
) {
    let len = c * h * w;
    debug_assert_eq!(cols, c * k * k);
    debug_assert!(x.len() >= images * len);
    let ow = (w + 2 * pad - k) / stride + 1;
    let total = images * rows;
    // Input code at channel `ci`, row `iy`, column `ix` of `img`, or the
    // zero padding (`iy`/`ix` wrap below zero).
    let tap = |img: &[u8], ci: usize, iy: usize, ix: usize| {
        if iy < h && ix < w {
            img[(ci * h + iy) * w + ix]
        } else {
            0
        }
    };
    let panels = out[..panel_patch_len(total, cols)].chunks_exact_mut(PANEL * cols);
    for (first, panel) in (0..total).step_by(PANEL).zip(panels) {
        let (b, q) = (first / rows, first % rows);
        let (oy, ox) = (q / ow, q % ow);
        if stride == 1 && ox + PANEL <= ow {
            // One output row of one image.
            let img = &x[b * len..(b + 1) * len];
            for (cy, seg) in panel.chunks_exact_mut(PANEL * k).enumerate() {
                let (ci, iy) = (cy / k, (oy + cy % k).wrapping_sub(pad));
                for (kx, dst) in seg.chunks_exact_mut(PANEL).enumerate() {
                    let ix = (ox + kx).wrapping_sub(pad);
                    if iy < h && ix < w && PANEL <= w - ix {
                        let at = (ci * h + iy) * w + ix;
                        dst.copy_from_slice(&img[at..at + PANEL]);
                    } else {
                        for (r, d) in dst.iter_mut().enumerate() {
                            *d = tap(img, ci, iy, ix.wrapping_add(r));
                        }
                    }
                }
            }
            continue;
        }
        for r in 0..PANEL {
            let p = first + r;
            if p >= total {
                for d in panel.iter_mut().skip(r).step_by(PANEL) {
                    *d = 0;
                }
                continue;
            }
            let (b, q) = (p / rows, p % rows);
            let (y0, x0) = (q / ow * stride, q % ow * stride);
            let img = &x[b * len..(b + 1) * len];
            let mut at = r;
            for ci in 0..c {
                for ky in 0..k {
                    let iy = (y0 + ky).wrapping_sub(pad);
                    for kx in 0..k {
                        panel[at] = tap(img, ci, iy, (x0 + kx).wrapping_sub(pad));
                        at += PANEL;
                    }
                }
            }
        }
    }
}

/// The shared inner loop, over a GEMM of shape `[images, rows, cols]`:
/// `out_c x cols` sign/magnitude weights against `images * rows` patch
/// rows, accumulating in i32 and handing each
/// finished accumulator to `sink(b * out_c * rows + o * rows + q, acc)`.
/// Patch row `b * rows + q` is row `q` of image `b`, so every image's
/// outputs land in its own `[out_c, rows]` slab. `P` is the patch layout:
/// [`ROW_MAJOR`], or panels of [`PANEL`] rows (row `p`'s code `j` at
/// `(p / P * cols + j) * P + p % P`).
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
fn gemm_core<const P: usize, F: Fn(u8, u8) -> u16, S: FnMut(usize, i32)>(
    w: &QWeights,
    patch: &[u8],
    [images, rows, cols]: [usize; 3],
    mul: F,
    mut sink: S,
) {
    let out_c = w.bias_q.len();
    let total = images * rows;
    debug_assert!(cols > 0);
    debug_assert_eq!(w.mag.len(), out_c * cols);
    // Row `p` as a slice whose code `j` sits at index `j * P`.
    let row = |p: usize| {
        let start = (p / P * cols) * P + p % P;
        &patch[start..start + (cols - 1) * P + 1]
    };
    for o in 0..out_c {
        let mags = &w.mag[o * cols..(o + 1) * cols];
        let signs = &w.sign[o * cols..(o + 1) * cols];
        let bias = w.bias_q[o];
        let mut next = Destinations::new(o, rows, out_c);
        let mut p = 0;
        while p + BLOCK <= total {
            let pr: [&[u8]; BLOCK] = core::array::from_fn(|r| row(p + r));
            let mut acc = [bias; BLOCK];
            for (j, (&mg, &sg)) in mags.iter().zip(signs).enumerate() {
                let s = sg as i32;
                for (a, row) in acc.iter_mut().zip(&pr) {
                    *a += s * mul(mg, row[j * P]) as i32;
                }
            }
            for &a in &acc {
                sink(next.next(), a);
            }
            p += BLOCK;
        }
        while p < total {
            let prow = row(p);
            let mut acc = bias;
            for (j, (&mg, &sg)) in mags.iter().zip(signs).enumerate() {
                acc += sg as i32 * mul(mg, prow[j * P]) as i32;
            }
            sink(next.next(), acc);
            p += 1;
        }
    }
}

/// Sink index of each successive GEMM row of output channel `o`: one
/// step within an image, and a jump to the next image's `[out_c, rows]`
/// slab after its last row.
struct Destinations {
    dst: usize,
    q: usize,
    rows: usize,
    skip: usize,
}

impl Destinations {
    fn new(o: usize, rows: usize, out_c: usize) -> Self {
        Destinations {
            dst: o * rows,
            q: 0,
            rows,
            skip: (out_c - 1) * rows,
        }
    }

    fn next(&mut self) -> usize {
        let d = self.dst;
        self.dst += 1;
        self.q += 1;
        if self.q == self.rows {
            self.q = 0;
            self.dst += self.skip;
        }
        d
    }
}

/// Runs a GEMM through an AVX2 kernel when one applies (see the
/// [module docs](self)): the panel kernel for a table or exact GEMM over
/// a panel-major patch (where [`use_panels`] holds), the row kernel for a
/// table GEMM over a row-major patch of at least eight columns. Both need
/// every weight magnitude below 255, the gather's over-read bound.
/// `table` is the LUT, or `None` for the exact product. Returns whether
/// it ran; otherwise the caller runs [`gemm_core`].
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn avx2_gemm<const P: usize, S: FnMut(usize, i32)>(
    w: &QWeights,
    patch: &[u8],
    shape: [usize; 3],
    table: Option<&[u16]>,
    sink: S,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        let applies = if P == PANEL {
            use_panels(shape[0] * shape[1])
        } else {
            table.is_some() && shape[2] >= avx2::LANES && has_avx2()
        };
        if applies && w.max_mag < u8::MAX {
            #[cfg(test)]
            AVX2_RUNS
                .lock()
                .unwrap()
                .insert((P, table.map_or(0, |t| t.as_ptr() as usize)));
            // SAFETY: AVX2 is present and every magnitude is below 255,
            // checked just above.
            unsafe {
                match (P == PANEL, table) {
                    (true, Some(t)) => avx2::gemm_panels::<true, S>(w, patch, shape, t, sink),
                    (true, None) => avx2::gemm_panels::<false, S>(w, patch, shape, &[], sink),
                    (false, Some(t)) => avx2::gemm_rows(w, patch, shape, t, sink),
                    (false, None) => unreachable!("the row kernel runs tables only"),
                }
            }
            return true;
        }
    }
    false
}

/// The AVX2 kernels that have run, as `(layout, table address)` pairs
/// (address `0` for the exact product): tests check that a call they make
/// took the kernel they meant it to.
#[cfg(test)]
pub(crate) static AVX2_RUNS: std::sync::Mutex<std::collections::BTreeSet<(usize, usize)>> =
    std::sync::Mutex::new(std::collections::BTreeSet::new());

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{panel_patch_len, Destinations, QWeights, BLOCK, PANEL};

    /// i32 lanes of one AVX2 register: the columns [`gemm_rows`] takes
    /// per step.
    pub(super) const LANES: usize = 8;

    // `gemm_rows` dispatches blocks of one to four rows.
    const _: () = assert!(BLOCK == 4);

    /// Panels per pass of [`gemm_panels`]: two independent accumulator
    /// chains share each weight's broadcasts.
    const PASS: usize = 2;

    /// Eight signed table products: the `u16` entries `idx` of the
    /// 2^16-entry table at `base`, negated where `sign` is negative. The
    /// gather fetches 32 bits at byte offset `2 * idx` and keeps the low
    /// 16.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and every `idx + 1` must be below 2^16,
    /// so the four bytes read (entries `idx` and `idx + 1`) lie inside the
    /// table.
    #[inline(always)]
    unsafe fn lookup(base: *const i32, idx: __m256i, sign: __m256i) -> __m256i {
        let entries = _mm256_i32gather_epi32::<2>(base, idx);
        _mm256_sign_epi32(_mm256_and_si256(entries, _mm256_set1_epi32(0xFFFF)), sign)
    }

    /// The panel kernel: [`gemm_core`](super::gemm_core)'s GEMM and sink
    /// order over a panel-major patch, eight rows per vector. With `LUT`
    /// each vector of products is one gather from `table`; without it,
    /// one exact multiply (and `table` is unused).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and every weight magnitude must be below
    /// 255: the gather for magnitude `mg` and code `a` reads table entries
    /// `(mg << 8) | a` and the one after it.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_panels<const LUT: bool, S: FnMut(usize, i32)>(
        w: &QWeights,
        patch: &[u8],
        [images, rows, cols]: [usize; 3],
        table: &[u16],
        mut sink: S,
    ) {
        let out_c = w.bias_q.len();
        let total = images * rows;
        let panels = total.div_ceil(PANEL);
        assert!(!LUT || table.len() == 1 << 16);
        assert!(w.mag.len() == out_c * cols && w.sign.len() == out_c * cols);
        assert!(patch.len() >= panel_patch_len(total, cols));
        debug_assert!(w.mag.iter().all(|&m| m < u8::MAX));
        let base = table.as_ptr() as *const i32;
        for o in 0..out_c {
            let mags = &w.mag[o * cols..(o + 1) * cols];
            let signs = &w.sign[o * cols..(o + 1) * cols];
            let mut next = Destinations::new(o, rows, out_c);
            for first in (0..panels).step_by(PASS) {
                let n = PASS.min(panels - first);
                let pass = patch.as_ptr().add(first * PANEL * cols);
                let mut acc = [_mm256_set1_epi32(w.bias_q[o]); PASS];
                for (j, (&mg, &sg)) in mags.iter().zip(signs).enumerate() {
                    let (mg, sg) = (i32::from(mg), i32::from(sg));
                    let m = _mm256_set1_epi32(if LUT { mg << 8 } else { sg * mg });
                    let s = _mm256_set1_epi32(sg);
                    for (k, acc) in acc.iter_mut().enumerate() {
                        if k == n {
                            break;
                        }
                        // Column j of panel `first + k`: eight codes, inside
                        // the patch by the length check above.
                        let codes = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                            pass.add((k * cols + j) * PANEL) as *const __m128i,
                        ));
                        let prod = if LUT {
                            // mg < 255, so every idx + 1 < 2^16.
                            lookup(base, _mm256_add_epi32(codes, m), s)
                        } else {
                            _mm256_mullo_epi32(codes, m)
                        };
                        *acc = _mm256_add_epi32(*acc, prod);
                    }
                }
                let mut out = [0i32; PASS * PANEL];
                for (k, &a) in acc.iter().enumerate() {
                    _mm256_storeu_si256(out.as_mut_ptr().add(k * PANEL) as *mut __m256i, a);
                }
                for &a in &out[..(n * PANEL).min(total - first * PANEL)] {
                    sink(next.next(), a);
                }
            }
        }
    }

    /// The row kernel: [`gemm_core`](super::gemm_core)'s table GEMM and
    /// sink order over a row-major patch, eight columns per vector. Per
    /// output channel and block of up to [`BLOCK`] rows it widens eight
    /// weight magnitudes (`<< 8`) and signs once, then for each row ORs
    /// them with the row's eight codes and fetches the products with one
    /// gather into that row's accumulator. Each row's sum then takes a
    /// horizontal add, the bias and a scalar tail over the last
    /// `cols % 8` columns. Sums wrap as `gemm_core`'s do in release
    /// builds.
    ///
    /// # Safety
    ///
    /// As for [`gemm_panels`]: AVX2, and every weight magnitude below 255.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_rows<S: FnMut(usize, i32)>(
        w: &QWeights,
        patch: &[u8],
        [images, rows, cols]: [usize; 3],
        table: &[u16],
        mut sink: S,
    ) {
        let out_c = w.bias_q.len();
        let total = images * rows;
        assert!(table.len() == 1 << 16);
        assert!(w.mag.len() == out_c * cols && w.sign.len() == out_c * cols);
        assert!(patch.len() >= total * cols);
        debug_assert!(w.mag.iter().all(|&m| m < u8::MAX));
        let base = table.as_ptr() as *const i32;
        let body = cols / LANES * LANES;
        for o in 0..out_c {
            let mags = &w.mag[o * cols..(o + 1) * cols];
            let signs = &w.sign[o * cols..(o + 1) * cols];
            let mut next = Destinations::new(o, rows, out_c);
            for first in (0..total).step_by(BLOCK) {
                let block = &patch[first * cols..(first + BLOCK).min(total) * cols];
                let mut sums = [0i32; BLOCK];
                match block.len() / cols {
                    1 => dot_rows::<1>(block, mags, signs, base, &mut sums),
                    2 => dot_rows::<2>(block, mags, signs, base, &mut sums),
                    3 => dot_rows::<3>(block, mags, signs, base, &mut sums),
                    4 => dot_rows::<4>(block, mags, signs, base, &mut sums),
                    _ => unreachable!("a block holds 1 to BLOCK rows"),
                }
                for (row, &sum) in block.chunks_exact(cols).zip(&sums) {
                    let mut acc = w.bias_q[o].wrapping_add(sum);
                    for ((&mg, &sg), &a) in mags.iter().zip(signs).zip(row).skip(body) {
                        let prod = table[(usize::from(mg) << 8) | usize::from(a)];
                        acc = acc.wrapping_add(i32::from(sg) * i32::from(prod));
                    }
                    sink(next.next(), acc);
                }
            }
        }
    }

    /// The sums of `R` rows of `block` (row-major, `mags.len()` codes
    /// each) against one output channel's weights, over whole groups of
    /// eight columns, into `sums[..R]`.
    ///
    /// # Safety
    ///
    /// As for [`gemm_rows`], and `block` holds at least `R` rows.
    #[inline(always)]
    unsafe fn dot_rows<const R: usize>(
        block: &[u8],
        mags: &[u8],
        signs: &[i8],
        base: *const i32,
        sums: &mut [i32; BLOCK],
    ) {
        let cols = mags.len();
        debug_assert!(block.len() >= R * cols && signs.len() == cols);
        let load8 = |p: *const u8| _mm_loadl_epi64(p as *const __m128i);
        let mut acc = [_mm256_setzero_si256(); R];
        for j in (0..cols / LANES * LANES).step_by(LANES) {
            // j + 8 <= cols: the eight bytes read from each slice are in it.
            let m = _mm256_slli_epi32::<8>(_mm256_cvtepu8_epi32(load8(mags.as_ptr().add(j))));
            let s = _mm256_cvtepi8_epi32(load8(signs.as_ptr().add(j) as *const u8));
            for (r, acc) in acc.iter_mut().enumerate() {
                let codes = _mm256_cvtepu8_epi32(load8(block.as_ptr().add(r * cols + j)));
                // Magnitudes are below 255, so every idx + 1 < 2^16.
                *acc = _mm256_add_epi32(*acc, lookup(base, _mm256_or_si256(codes, m), s));
            }
        }
        for (sum, &v) in sums.iter_mut().zip(&acc) {
            let h = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
            let h = _mm_add_epi32(h, _mm_shuffle_epi32::<0b01_00_11_10>(h));
            let h = _mm_add_epi32(h, _mm_shuffle_epi32::<0b10_11_00_01>(h));
            *sum = _mm_cvtsi128_si32(h);
        }
    }
}

macro_rules! dispatch_gemm {
    ($layout:ident, $backend:expr, $w:expr, $patch:expr, $shape:expr, $sink:expr) => {{
        let mut sink = $sink;
        // Table GEMMs (and exact ones over panels) try an AVX2 kernel first.
        let avx2 = |table, sink| avx2_gemm::<$layout, _>($w, $patch, $shape, table, sink);
        match $backend {
            MulBackend::Exact => {
                if !avx2(None, &mut sink) {
                    gemm_core::<$layout, _, _>($w, $patch, $shape, |a, b| a as u16 * b as u16, sink)
                }
            }
            MulBackend::Table(t) => {
                if !avx2(Some(t), &mut sink) {
                    gemm_core::<$layout, _, _>(
                        $w,
                        $patch,
                        $shape,
                        // Operands are u8, so the index is always < 2^16 and the
                        // table (checked in `MulBackend::of`) has 2^16 entries.
                        |a, b| unsafe { *t.get_unchecked(((a as usize) << 8) | b as usize) },
                        sink,
                    )
                }
            }
            MulBackend::Generic(k) => {
                gemm_core::<$layout, _, _>($w, $patch, $shape, |a, b| k.mul(a, b), sink)
            }
        }
    }};
}

/// GEMM of shape `[images, rows, cols]` (see [`gemm_core`]) over a patch
/// in layout `P` for a requantizing layer (conv or hidden dense):
/// accumulators are rescaled, ReLU-clamped and written as `u8` activation
/// codes, image after image.
pub(crate) fn gemm_requant<const P: usize, K: MulKernel + ?Sized>(
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
    dispatch_gemm!(P, backend, w, patch, shape, |i, acc: i32| {
        // Fused ReLU: clamp below at 0 during requantization.
        out[i] = round_code(acc as f32 * m, qmax)
    });
}

/// GEMM of shape `[images, rows, cols]` over a patch in layout `P` for the
/// final logits layer: accumulators are dequantized to f32, image after
/// image.
pub(crate) fn gemm_logits<const P: usize, K: MulKernel + ?Sized>(
    backend: MulBackend<'_, K>,
    w: &QWeights,
    patch: &[u8],
    shape: [usize; 3],
    out: &mut [f32],
) {
    debug_assert!(w.requant.is_none(), "logits layer does not requantize");
    dispatch_gemm!(P, backend, w, patch, shape, |i, acc: i32| {
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
    use axutil::rng::Rng;
    use proptest::prelude::*;

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
        gemm_requant::<ROW_MAJOR, _>(
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
        gemm_logits::<ROW_MAJOR, _>(
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
        gemm_requant::<ROW_MAJOR, _>(
            MulBackend::<ExactMul>::of(&ExactMul),
            &w,
            &patch,
            [1, 2, 3],
            &mut a,
        );
        gemm_requant::<ROW_MAJOR, _>(MulBackend::of(&lut), &w, &patch, [1, 2, 3], &mut b);
        // Force the generic path for the same LUT.
        gemm_requant::<ROW_MAJOR, _>(MulBackend::Generic(&lut), &w, &patch, [1, 2, 3], &mut c);
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
        gemm_requant::<ROW_MAJOR, _>(
            MulBackend::of(&lut),
            &w,
            &patch,
            [images, rows, cols],
            &mut block,
        );
        for b in 0..images {
            let mut one = vec![0u8; out_c * rows];
            let p = &patch[b * rows * cols..(b + 1) * rows * cols];
            gemm_requant::<ROW_MAJOR, _>(MulBackend::of(&lut), &w, p, [1, rows, cols], &mut one);
            assert_eq!(one[..], block[b * out_c * rows..(b + 1) * out_c * rows]);
        }
    }

    /// `im2col_panels` against the generic row-major `im2col`, one image
    /// at a time, transposed into panels: strides 1–2, padding 0–2,
    /// outputs narrower and wider than a panel, panels that span images.
    #[test]
    fn im2col_panels_matches_row_major_im2col() {
        let mut rng = Rng::seed_from_u64(5);
        for (c, hw, k, stride, pad) in [
            (1, 28, 5, 1, 0),
            (6, 12, 5, 1, 0),
            (2, 9, 3, 2, 1),
            (3, 5, 3, 1, 1),
            (1, 11, 3, 1, 2),
            (2, 20, 4, 1, 1),
            (1, 17, 2, 3, 0),
        ] {
            let dims = [c, hw, hw];
            let o = (hw + 2 * pad - k) / stride + 1;
            let (rows, cols) = (o * o, c * k * k);
            for images in 1..=BLOCK {
                let x: Vec<u8> = (0..images * c * hw * hw)
                    .map(|_| rng.below(256) as u8)
                    .collect();
                let mut flat = vec![0u8; images * rows * cols];
                for (img, p) in x
                    .chunks_exact(c * hw * hw)
                    .zip(flat.chunks_exact_mut(rows * cols))
                {
                    im2col(img, dims, k, stride, pad, rows, cols, p);
                }
                let total = images * rows;
                let mut want = vec![0u8; panel_patch_len(total, cols)];
                for (p, row) in flat.chunks_exact(cols).enumerate() {
                    for (j, &v) in row.iter().enumerate() {
                        want[(p / PANEL * cols + j) * PANEL + p % PANEL] = v;
                    }
                }
                let mut got = vec![0xA5; want.len()];
                im2col_panels(&x, dims, k, stride, pad, [images, rows, cols], &mut got);
                assert_eq!(got, want, "{dims:?} k{k} s{stride} p{pad}, {images} images");
            }
        }
    }

    /// Random `out_c x cols` sign/magnitude weights (magnitudes at most
    /// 127, one forced to 127), biases in ±2^30 and a requant scale, with
    /// a LUT of random entries.
    fn random_gemm(rng: &mut Rng, out_c: usize, cols: usize) -> (QWeights, MulLut) {
        let n = out_c * cols;
        let mut mags: Vec<u8> = (0..n).map(|_| rng.below(128) as u8).collect();
        mags[rng.index(n)] = 127;
        let signs = (0..n)
            .map(|_| if rng.below(2) == 0 { -1 } else { 1 })
            .collect();
        let bias = (0..out_c)
            .map(|_| rng.below(1 << 31) as i32 - (1 << 30))
            .collect();
        let w = qweights(signs, mags, bias, Some(1.0 / 4096.0));
        let entries: Vec<u16> = (0..1 << 16).map(|_| rng.below(1 << 16) as u16).collect();
        let lut = MulLut::from_fn("random", |a, b| entries[(a as usize) << 8 | b as usize]);
        (w, lut)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The panel kernel against `gemm_core` through its table closure
        /// and through the exact product, bit for bit, on random weights
        /// (magnitude 127 forced), random codes (255 forced, random codes
        /// in the dead tail of the last panel), large biases of both signs
        /// and a random table, through both sinks. On an AVX2 host the
        /// panel kernel must actually run for every block of eight rows or
        /// more.
        #[test]
        fn panel_kernel_matches_gemm_core(
            out_c in 1usize..=20,
            cols in 1usize..=300,
            images in 1usize..=4,
            rows in 1usize..=10,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let (w, lut) = random_gemm(&mut rng, out_c, cols);
            let total = images * rows;
            let mut patch: Vec<u8> = (0..panel_patch_len(total, cols))
                .map(|_| rng.below(256) as u8)
                .collect();
            let (p, j) = (rng.index(total), rng.index(cols));
            patch[(p / PANEL * cols + j) * PANEL + p % PANEL] = 255;
            let t = lut.table();
            let address = t.as_ptr() as usize;
            AVX2_RUNS.lock().unwrap().remove(&(PANEL, address));
            let shape = [images, rows, cols];

            let mut want = vec![0i32; images * out_c * rows];
            gemm_core::<PANEL, _, _>(&w, &patch, shape, |a, b| t[(a as usize) << 8 | b as usize], |i, acc| want[i] = acc);
            let mut got = vec![0i32; want.len()];
            let ran = avx2_gemm::<PANEL, _>(&w, &patch, shape, Some(t), |i, acc| got[i] = acc);
            prop_assert_eq!(ran, use_panels(total));
            if ran {
                prop_assert_eq!(&got, &want);
            }
            gemm_core::<PANEL, _, _>(&w, &patch, shape, |a, b| a as u16 * b as u16, |i, acc| want[i] = acc);
            prop_assert_eq!(avx2_gemm::<PANEL, _>(&w, &patch, shape, None, |i, acc| got[i] = acc), ran);
            if ran {
                prop_assert_eq!(&got, &want);
            }

            let (table, generic) = (MulBackend::of(&lut), MulBackend::Generic(&lut));
            let (mut a, mut b) = (vec![0u8; want.len()], vec![0u8; want.len()]);
            gemm_requant::<PANEL, _>(table, &w, &patch, shape, &mut a);
            gemm_requant::<PANEL, _>(generic, &w, &patch, shape, &mut b);
            prop_assert_eq!(&a, &b);
            gemm_requant::<PANEL, ExactMul>(MulBackend::Exact, &w, &patch, shape, &mut a);
            gemm_requant::<PANEL, _>(MulBackend::Generic(&ExactMul), &w, &patch, shape, &mut b);
            prop_assert_eq!(a, b);
            let wl = QWeights { requant: None, dequant: 0.37, ..w };
            let (mut a, mut b) = (vec![0f32; want.len()], vec![0f32; want.len()]);
            gemm_logits::<PANEL, _>(table, &wl, &patch, shape, &mut a);
            gemm_logits::<PANEL, _>(generic, &wl, &patch, shape, &mut b);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&a), bits(&b));
            prop_assert_eq!(AVX2_RUNS.lock().unwrap().contains(&(PANEL, address)), ran);
        }
        /// The row kernel against `gemm_core` through its table closure,
        /// bit for bit: 1–7 columns (no whole vector), 784 (the FFNN's
        /// first layer) and any other count up to 800; one to four blocks
        /// of rows, the last one possibly partial; random weights
        /// (magnitude 127 forced), random codes (0 and 255 forced), large
        /// biases of both signs and a random table, through both sinks
        /// against the `Generic` backend. On an AVX2 host the row kernel
        /// must run on every table GEMM of eight columns or more, and never
        /// on the exact product.
        #[test]
        fn row_kernel_matches_gemm_core(
            out_c in 1usize..=12,
            kind in 0usize..4,
            cols in 1usize..=800,
            images in 1usize..=4,
            rows in 1usize..=4,
            seed in any::<u64>(),
        ) {
            let cols = match kind {
                0 => cols % 7 + 1,
                1 => 784,
                _ => cols,
            };
            let mut rng = Rng::seed_from_u64(seed);
            let (w, lut) = random_gemm(&mut rng, out_c, cols);
            let total = images * rows;
            let mut patch: Vec<u8> = (0..total * cols).map(|_| rng.below(256) as u8).collect();
            patch[rng.index(total * cols)] = 0;
            patch[rng.index(total * cols)] = 255;
            let t = lut.table();
            let address = t.as_ptr() as usize;
            AVX2_RUNS.lock().unwrap().remove(&(ROW_MAJOR, address));
            let shape = [images, rows, cols];

            let mut want = vec![0i32; images * out_c * rows];
            gemm_core::<ROW_MAJOR, _, _>(&w, &patch, shape, |a, b| t[(a as usize) << 8 | b as usize], |i, acc| want[i] = acc);
            let mut got = vec![0i32; want.len()];
            let ran = avx2_gemm::<ROW_MAJOR, _>(&w, &patch, shape, Some(t), |i, acc| got[i] = acc);
            prop_assert_eq!(ran, has_avx2() && cols >= 8);
            if ran {
                prop_assert_eq!(&got, &want);
            }
            prop_assert!(!avx2_gemm::<ROW_MAJOR, _>(&w, &patch, shape, None, |_, _| ()));

            let (table, generic) = (MulBackend::of(&lut), MulBackend::Generic(&lut));
            let (mut a, mut b) = (vec![0u8; want.len()], vec![0u8; want.len()]);
            gemm_requant::<ROW_MAJOR, _>(table, &w, &patch, shape, &mut a);
            gemm_requant::<ROW_MAJOR, _>(generic, &w, &patch, shape, &mut b);
            prop_assert_eq!(a, b);
            let wl = QWeights { requant: None, dequant: 0.37, ..w };
            let (mut a, mut b) = (vec![0f32; want.len()], vec![0f32; want.len()]);
            gemm_logits::<ROW_MAJOR, _>(table, &wl, &patch, shape, &mut a);
            gemm_logits::<ROW_MAJOR, _>(generic, &wl, &patch, shape, &mut b);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&a), bits(&b));
            prop_assert_eq!(AVX2_RUNS.lock().unwrap().contains(&(ROW_MAJOR, address)), ran);
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
