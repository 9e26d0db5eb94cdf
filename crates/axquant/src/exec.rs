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
//! panel-major patch). On x86_64 CPUs SIMD kernels take over, chosen at
//! run time (`simd_gemm`, one `Tier` each). Two AVX2 kernels, one per
//! layout, fetch eight table products with one `vpgatherdd` at indices
//! `(mag << 8) | a` (scale 2, masked to 16 bits), then apply the
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
//! On a CPU with AVX-512F, AVX-512BW and AVX-512VBMI the *VBMI kernel*
//! runs the table GEMMs over a panel-major patch instead of the panel
//! kernel (LeNet-5's conv1 and conv2), and looks the products up in
//! registers rather than gathering them from the table:
//!
//! - Once per GEMM call, `vpermt2b` splits the table rows
//!   `0..=max_mag` into a low-byte and a high-byte plane of 256 bytes
//!   each: 64 KB at the 8-bit weight range's 128 rows. The buffer is
//!   allocated per call, not kept in a [`QScratch`](crate::QScratch):
//!   a server pools one scratch per concurrent caller, and each would
//!   hold it for good.
//! - Rows go in groups of 64, eight consecutive panels of the same
//!   panel-major patch. Per group, one `vpgatherqq` per patch column
//!   loads its 64 codes (masked for a last group of fewer than eight
//!   panels) into a staging area behind the planes, which every output
//!   channel then reads.
//! - Per weight and plane, two 128-entry `vpermt2b` lookups and a blend
//!   on code bit 7 give 64 product bytes. A negative weight complements
//!   them; 16-bit lanes sum them over runs of up to 256 columns, and each
//!   run folds into i32 lanes with the complements' offset taken off.
//!
//! Exact GEMMs over row-major patches, `Generic` backends (over either
//! layout), narrower rows and other CPUs keep `gemm_core`.
//!
//! The tiers are bit-identical: all compute each row's exact integer sum
//! of the same i32 products, wrapping in i32 (where addition is exact
//! modulo 2^32), and hand it to the same sink at the same destination.
//! The VBMI kernel's lanes hold a group's rows out of order and reach the
//! sink group by group; the sink undoes the lane order, and the sinks
//! only store, so the order of their calls does not matter. The AVX2
//! gather fetches 32 bits at byte offset `2 * idx` and keeps the low 16,
//! so it also reads entry `idx + 1`. With `idx = (mag << 8) | a` that
//! stays inside the 2^16-entry table whenever `mag < 255`; quantized
//! weight magnitudes are at most 127
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

/// i32 lanes of one AVX2 register: the columns the row kernel takes per
/// step, and the fewest it runs on.
const LANES: usize = 8;

/// Whether a conv step whose block has `total` GEMM rows gets a
/// panel-major patch: only where a panel kernel (AVX2 or VBMI) runs it,
/// on an x86_64 CPU with AVX2 and at least one full panel. Shorter steps
/// and other CPUs keep the row-major patch, on which `gemm_core` runs as
/// on a dense step (its exact loop vectorizes along a row-major row, and
/// is about half as fast over panels).
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
        Destinations::from_row(o, 0, rows, out_c)
    }

    /// The destinations from GEMM row `p` on.
    fn from_row(o: usize, p: usize, rows: usize, out_c: usize) -> Self {
        Destinations {
            dst: (p / rows * out_c + o) * rows + p % rows,
            q: p % rows,
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

/// The SIMD kernel tiers of the [module docs](self), one per kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Tier {
    /// The AVX2 row kernel: table GEMMs over a row-major patch.
    Rows,
    /// The AVX2 panel kernel: table GEMMs (one gather per eight
    /// products) and exact ones over a panel-major patch.
    Panels,
    /// The VBMI panel kernel: table GEMMs over a panel-major patch, the
    /// products looked up in registers.
    VbmiPanels,
}

impl Tier {
    /// Whether this CPU can run the tier on weights `w`: the AVX2 tiers
    /// need every magnitude below 255, the gather's over-read bound.
    fn can_run(self, w: &QWeights) -> bool {
        match self {
            Tier::Rows | Tier::Panels => has_avx2() && w.max_mag < u8::MAX,
            Tier::VbmiPanels => has_vbmi(),
        }
    }
}

/// Whether the VBMI kernel can run: on an x86_64 CPU with AVX-512F,
/// AVX-512BW and AVX-512VBMI.
pub(crate) fn has_vbmi() -> bool {
    #[cfg(target_arch = "x86_64")]
    let vbmi = is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vbmi");
    #[cfg(not(target_arch = "x86_64"))]
    let vbmi = false;
    vbmi
}

/// Runs a GEMM through a SIMD kernel when one applies (see the
/// [module docs](self)): over a panel-major patch (where [`use_panels`]
/// holds) the VBMI kernel for a table GEMM, or else the AVX2 panel
/// kernel; over a row-major patch of at least eight columns the row
/// kernel for a table GEMM. `table` is the LUT, or `None` for the exact
/// product. Returns whether it ran; otherwise the caller runs
/// [`gemm_core`].
fn simd_gemm<const P: usize, S: FnMut(usize, i32)>(
    w: &QWeights,
    patch: &[u8],
    shape: [usize; 3],
    table: Option<&[u16]>,
    mut sink: S,
) -> bool {
    if P == PANEL {
        use_panels(shape[0] * shape[1])
            && (run_tier(Tier::VbmiPanels, w, patch, shape, table, &mut sink)
                || run_tier(Tier::Panels, w, patch, shape, table, sink))
    } else {
        shape[2] >= LANES && run_tier(Tier::Rows, w, patch, shape, table, sink)
    }
}

/// Runs a GEMM through `tier` where it can run: the CPU has the tier's
/// features ([`Tier::can_run`]), and `table` is `Some` unless the tier
/// is [`Tier::Panels`], the one that also runs the exact product. The
/// patch is row-major for [`Tier::Rows`] and panel-major otherwise.
/// Returns whether it ran.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn run_tier<S: FnMut(usize, i32)>(
    tier: Tier,
    w: &QWeights,
    patch: &[u8],
    shape: [usize; 3],
    table: Option<&[u16]>,
    sink: S,
) -> bool {
    if !tier.can_run(w) {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the CPU has the tier's features, and for the AVX2 tiers
    // every magnitude is below 255, checked by `can_run` just above.
    unsafe {
        match (tier, table) {
            (Tier::Panels, Some(t)) => avx2::gemm_panels::<true, S>(w, patch, shape, t, sink),
            (Tier::Panels, None) => avx2::gemm_panels::<false, S>(w, patch, shape, &[], sink),
            (Tier::Rows, Some(t)) => avx2::gemm_rows(w, patch, shape, t, sink),
            (Tier::VbmiPanels, Some(t)) => vbmi::gemm_panels(w, patch, shape, t, sink),
            (Tier::Rows | Tier::VbmiPanels, None) => return false,
        }
    }
    #[cfg(test)]
    AVX2_RUNS
        .lock()
        .unwrap()
        .insert((tier, table.map_or(0, |t| t.as_ptr() as usize)));
    true
}

/// The SIMD kernels that have run, as `(tier, table address)` pairs
/// (address `0` for the exact product): tests check that a call they make
/// took the kernel they meant it to.
#[cfg(test)]
pub(crate) static AVX2_RUNS: std::sync::Mutex<std::collections::BTreeSet<(Tier, usize)>> =
    std::sync::Mutex::new(std::collections::BTreeSet::new());

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{panel_patch_len, Destinations, QWeights, BLOCK, LANES, PANEL};

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

#[cfg(target_arch = "x86_64")]
mod vbmi {
    use std::arch::x86_64::*;

    use super::{panel_patch_len, Destinations, QWeights, PANEL};

    /// Rows per group: one byte lane of a 512-bit register per row, eight
    /// consecutive panels.
    const GROUP: usize = 64;

    /// Bytes of one table row's two planes: its 256 products' low bytes,
    /// then their high bytes.
    const ROW: usize = 512;

    /// Columns per run of 16-bit sums: a column adds at most 255 to each
    /// byte's sum, and `RUN * 255 < 2^16`.
    const RUN: usize = 256;

    /// Splits table rows `0..rows` into `planes`: row `m`'s low product
    /// bytes at `m * ROW`, its high bytes 256 bytes on.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512BW and AVX-512VBMI, and `planes` must
    /// be valid for `rows * ROW` bytes of writes.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn split_rows(table: &[u16], rows: usize, planes: *mut u8) {
        assert!(rows << 8 <= table.len());
        let pick = |odd: u8| {
            let idx: [u8; 64] = core::array::from_fn(|i| 2 * i as u8 + odd);
            _mm512_loadu_epi8(idx.as_ptr() as *const i8)
        };
        let (low, high) = (pick(0), pick(1));
        for (m, row) in table.chunks_exact(256).take(rows).enumerate() {
            // 64 entries (two registers) at a time.
            for (q, pair) in row.chunks_exact(64).enumerate() {
                let a = _mm512_loadu_epi16(pair.as_ptr() as *const i16);
                let b = _mm512_loadu_epi16(pair.as_ptr().add(32) as *const i16);
                let at = planes.add(m * ROW + q * 64) as *mut i8;
                _mm512_storeu_epi8(at, _mm512_permutex2var_epi8(a, low, b));
                _mm512_storeu_epi8(at.add(256), _mm512_permutex2var_epi8(a, high, b));
            }
        }
    }

    /// The VBMI kernel: [`gemm_core`](super::gemm_core)'s table GEMM over
    /// a panel-major patch, 64 rows (a group of eight panels) per
    /// register. Per group, one gather per patch column stages the
    /// column's 64 codes behind the table planes; every output channel
    /// then reads them back. Each byte plane of a weight's table row gives
    /// 64 product bytes through two 128-entry `vpermt2b` lookups and a
    /// blend on code bit 7. A negative weight complements the bytes
    /// (`255 - b`). Per plane, over runs of at most [`RUN`] columns, the
    /// bytes add as 16-bit lanes (`even + 256 * odd`, wrapping) and the
    /// odd bytes once more on their own; an even row's sum, below 2^16, is
    /// the lane sum less 256 times the odd sum. Each run then folds into
    /// i32 lanes as `low + (high << 8) - 255 * 257 * negatives`: the exact
    /// sum of the signed products, wrapping as `gemm_core`'s does in
    /// release builds. The lanes hold rows in the order `4k + t` → lane
    /// `16 t + k`, which the sink undoes; rows reach the sink group by
    /// group, each at its `gemm_core` destination.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, AVX-512BW and AVX-512VBMI.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    pub(super) unsafe fn gemm_panels<S: FnMut(usize, i32)>(
        w: &QWeights,
        patch: &[u8],
        [images, rows, cols]: [usize; 3],
        table: &[u16],
        mut sink: S,
    ) {
        let out_c = w.bias_q.len();
        let total = images * rows;
        let panels = total.div_ceil(PANEL);
        assert!(table.len() == 1 << 16);
        assert!(w.mag.len() == out_c * cols && w.sign.len() == out_c * cols);
        assert!(patch.len() >= panel_patch_len(total, cols));
        // Every plane read below lies in rows `0..=max_mag`.
        assert!(w.mag.iter().all(|&m| m <= w.max_mag));
        debug_assert!(w.sign.iter().all(|&s| s == 1 || s == -1));
        // The planes, then one group's staged codes, from a 64-byte
        // boundary (every register load then stays inside one cache
        // line): written before they are read, through raw pointers only.
        let rows_split = usize::from(w.max_mag) + 1;
        let mut buf = Vec::<u8>::with_capacity(rows_split * ROW + cols * GROUP + GROUP);
        let planes = buf.as_mut_ptr();
        let planes = planes.add(planes.align_offset(GROUP));
        let stage = planes.add(rows_split * ROW);
        split_rows(table, rows_split, planes);
        // Byte offsets of a group's eight panels from its first.
        let offsets: [i64; 8] = core::array::from_fn(|k| (k * PANEL * cols) as i64);
        let offsets = _mm512_loadu_epi64(offsets.as_ptr());
        let low_half = _mm512_set1_epi32(0xFFFF);
        let ones = _mm512_set1_epi8(-1);
        let mut out = [0i32; GROUP];
        for first in (0..panels).step_by(GROUP / PANEL) {
            let live = ((1u32 << (GROUP / PANEL).min(panels - first)) - 1) as __mmask8;
            let group = patch.as_ptr().add(first * PANEL * cols);
            for j in 0..cols {
                // Column j of the group's live panels, inside the patch by
                // the length check above.
                let codes = _mm512_mask_i64gather_epi64::<1>(
                    _mm512_setzero_si512(),
                    live,
                    offsets,
                    group.add(j * PANEL) as *const i64,
                );
                _mm512_storeu_epi8(stage.add(j * GROUP) as *mut i8, codes);
            }
            for o in 0..out_c {
                let mags = &w.mag[o * cols..(o + 1) * cols];
                let signs = &w.sign[o * cols..(o + 1) * cols];
                let mut acc = [_mm512_set1_epi32(w.bias_q[o]); 4];
                for run in (0..cols).step_by(RUN) {
                    // Per plane (low bytes, then high): the 16-bit lane
                    // sums, then the odd bytes' sums.
                    let [mut s0, mut s1, mut s2, mut s3] = [_mm512_setzero_si512(); 4];
                    let mut negatives = 0;
                    for j in run..cols.min(run + RUN) {
                        let codes = _mm512_loadu_epi8(stage.add(j * GROUP) as *const i8);
                        let top = _mm512_movepi8_mask(codes);
                        let negative = signs[j] < 0;
                        negatives += i32::from(negative);
                        let flip = 0u8.wrapping_sub(u8::from(negative)) as __mmask8;
                        let row = planes.add(usize::from(mags[j]) * ROW);
                        let lookup = |plane: *const u8| {
                            let t = |q: usize| _mm512_loadu_epi8(plane.add(q * 64) as *const i8);
                            let bytes = _mm512_mask_blend_epi8(
                                top,
                                _mm512_permutex2var_epi8(t(0), codes, t(1)),
                                _mm512_permutex2var_epi8(t(2), codes, t(3)),
                            );
                            _mm512_mask_xor_epi64(bytes, flip, bytes, ones)
                        };
                        let (lo, hi) = (lookup(row), lookup(row.add(256)));
                        s0 = _mm512_add_epi16(s0, lo);
                        s1 = _mm512_add_epi16(s1, _mm512_srli_epi16::<8>(lo));
                        s2 = _mm512_add_epi16(s2, hi);
                        s3 = _mm512_add_epi16(s3, _mm512_srli_epi16::<8>(hi));
                    }
                    // Per plane, 16-bit lane i of even row 2i (the lane sum
                    // less 256 times the odd sum) and of odd row 2i + 1.
                    let unmix =
                        |full, odd| [_mm512_sub_epi16(full, _mm512_slli_epi16::<8>(odd)), odd];
                    let (low, high) = (unmix(s0, s1), unmix(s2, s3));
                    // Rows 4k + t: the low (t < 2) or high 16 bits of the
                    // even (t even) or odd row sums' 32-bit lane k.
                    let fix = _mm512_set1_epi32(255 * 257 * negatives);
                    for (t, acc) in acc.iter_mut().enumerate() {
                        let half = |v: __m512i| {
                            if t < 2 {
                                _mm512_and_si512(v, low_half)
                            } else {
                                _mm512_srli_epi32::<16>(v)
                            }
                        };
                        let (lo, hi) = (half(low[t % 2]), half(high[t % 2]));
                        let sum = _mm512_add_epi32(lo, _mm512_slli_epi32::<8>(hi));
                        *acc = _mm512_add_epi32(*acc, _mm512_sub_epi32(sum, fix));
                    }
                }
                for (t, &a) in acc.iter().enumerate() {
                    _mm512_storeu_epi32(out.as_mut_ptr().add(t * 16), a);
                }
                let mut next = Destinations::from_row(o, first * PANEL, rows, out_c);
                for r in 0..GROUP.min(total - first * PANEL) {
                    sink(next.next(), out[r % 4 * 16 + r / 4]);
                }
            }
        }
    }
}

macro_rules! dispatch_gemm {
    ($layout:ident, $backend:expr, $w:expr, $patch:expr, $shape:expr, $sink:expr) => {{
        let mut sink = $sink;
        // Table GEMMs (and exact ones over panels) try a SIMD kernel first.
        let simd = |table, sink| simd_gemm::<$layout, _>($w, $patch, $shape, table, sink);
        match $backend {
            MulBackend::Exact => {
                if !simd(None, &mut sink) {
                    gemm_core::<$layout, _, _>($w, $patch, $shape, |a, b| a as u16 * b as u16, sink)
                }
            }
            MulBackend::Table(t) => {
                if !simd(Some(t), &mut sink) {
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

        /// Each panel tier this CPU has — the AVX2 gather kernel (table
        /// and exact product) and the VBMI kernel — called directly
        /// against `gemm_core` through its table closure and through the
        /// exact product, bit for bit. Totals span up to three 64-row
        /// groups of the VBMI kernel, the last one holding 1–8 panels and
        /// its last panel 1–8 rows, split over one to four images; up to
        /// 600 columns, more than one 256-column run of the VBMI kernel's
        /// 16-bit sums. Random weights (magnitude 127 forced), random codes
        /// (0, 127, 128 and 255 forced, random codes in the dead tail of
        /// the last panel), large biases of both signs and a random table;
        /// then the dispatch through both sinks against the `Generic`
        /// backend. A tier runs exactly where `Tier::can_run` holds, and
        /// the VBMI kernel never runs the exact product. On an AVX2 host
        /// the dispatch must take a panel tier for every block of eight
        /// rows or more and none for fewer: for the table the VBMI kernel
        /// where the CPU has it, the gather kernel otherwise.
        #[test]
        fn panel_kernel_matches_gemm_core(
            out_c in 1usize..=20,
            cols in 1usize..=600,
            groups in 0usize..=2,
            last_panels in 1usize..=8,
            last_rows in 1usize..=8,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let (w, lut) = random_gemm(&mut rng, out_c, cols);
            let total = groups * 64 + (last_panels - 1) * PANEL + last_rows;
            let images = (1..=BLOCK).rev().find(|&i| total.is_multiple_of(i)).unwrap();
            let (rows, shape) = (total / images, [images, total / images, cols]);
            let mut patch: Vec<u8> = (0..panel_patch_len(total, cols))
                .map(|_| rng.below(256) as u8)
                .collect();
            for code in [0, 127, 128, 255] {
                let (p, j) = (rng.index(total), rng.index(cols));
                patch[(p / PANEL * cols + j) * PANEL + p % PANEL] = code;
            }
            let t = lut.table();
            let address = t.as_ptr() as usize;
            let mut want = vec![0i32; images * out_c * rows];
            let mut got = vec![0i32; want.len()];
            let mut exact = vec![0i32; want.len()];
            gemm_core::<PANEL, _, _>(&w, &patch, shape, |a, b| t[(a as usize) << 8 | b as usize], |i, acc| want[i] = acc);
            gemm_core::<PANEL, _, _>(&w, &patch, shape, |a, b| a as u16 * b as u16, |i, acc| exact[i] = acc);
            for tier in [Tier::Panels, Tier::VbmiPanels] {
                got.fill(0);
                let ran = run_tier(tier, &w, &patch, shape, Some(t), |i, acc| got[i] = acc);
                prop_assert_eq!(ran, tier.can_run(&w));
                if ran {
                    prop_assert!(got == want, "{tier:?} differs from gemm_core");
                }
            }
            got.fill(0);
            let ran = run_tier(Tier::Panels, &w, &patch, shape, None, |i, acc| got[i] = acc);
            prop_assert_eq!(ran, Tier::Panels.can_run(&w));
            if ran {
                prop_assert_eq!(&got, &exact);
            }
            prop_assert!(!run_tier(Tier::VbmiPanels, &w, &patch, shape, None, |_, _| ()));
            prop_assert_eq!(simd_gemm::<PANEL, _>(&w, &patch, shape, None, |_, _| ()), use_panels(total));

            let runs = [(Tier::Panels, address), (Tier::VbmiPanels, address)];
            AVX2_RUNS.lock().unwrap().retain(|r| !runs.contains(r));
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
            let panels = use_panels(total);
            let vbmi = panels && Tier::VbmiPanels.can_run(&wl);
            let ran = AVX2_RUNS.lock().unwrap().clone();
            prop_assert_eq!(ran.contains(&(Tier::VbmiPanels, address)), vbmi);
            prop_assert_eq!(ran.contains(&(Tier::Panels, address)), panels && !vbmi);
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
            AVX2_RUNS.lock().unwrap().remove(&(Tier::Rows, address));
            let shape = [images, rows, cols];

            let mut want = vec![0i32; images * out_c * rows];
            gemm_core::<ROW_MAJOR, _, _>(&w, &patch, shape, |a, b| t[(a as usize) << 8 | b as usize], |i, acc| want[i] = acc);
            let mut got = vec![0i32; want.len()];
            let ran = simd_gemm::<ROW_MAJOR, _>(&w, &patch, shape, Some(t), |i, acc| got[i] = acc);
            prop_assert_eq!(ran, has_avx2() && cols >= 8);
            if ran {
                prop_assert_eq!(&got, &want);
            }
            prop_assert!(!simd_gemm::<ROW_MAJOR, _>(&w, &patch, shape, None, |_, _| ()));

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
            prop_assert_eq!(AVX2_RUNS.lock().unwrap().contains(&(Tier::Rows, address)), ran);
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
