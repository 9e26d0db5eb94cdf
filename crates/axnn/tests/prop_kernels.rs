//! Property tests pinning the register-tiled GEMM kernels to the scalar
//! reference kernels — **bit-exact**, not within tolerance.
//!
//! The tiled kernels ([`axnn::exec`]: `*_tiled`, `dense_forward_rows`,
//! and `conv_forward_cols` over a column-major patch) only regroup
//! which output elements advance together; every element's addition
//! chain over the dot-product dimension stays sequential and ascending,
//! so for any shape (including odd/prime edges that exercise every
//! remainder path) the two forms must agree to the last bit. The direct conv input
//! gradient, which has no tiled form, is pinned to the seed conv
//! backward the same way, at every block width. (`axnn::exec`'s own
//! tests pin the conv forward's portable kernel too, with signed zeros,
//! and see whether its AVX2 kernel ran.) On top of the raw
//! kernels, a whole compiled plan must reproduce its one-thread forward,
//! loss and gradients exactly at every `AXDNN_THREADS` chunking, for
//! every fixture model (the conv geometries k ∈ {1, 3, 5} with
//! stride/pad combinations included).
//!
//! Each thread sweep pins `AXDNN_THREADS` with
//! `axutil::parallel::with_threads`, which serializes the sweeps.

use axnn::exec::{self, GradFold, ParamRecord};
use axnn::layer::{Conv2d, Layer};
use axnn::model::{GradBuffer, Sequential};
use axnn::reference;
use axtensor::Tensor;
use axutil::parallel::with_threads;
use axutil::rng::Rng;
use proptest::prelude::*;

mod common;

/// Odd and prime edge lengths: every value here leaves a non-trivial
/// remainder against the 4-wide tiles, so the 2×4 / 4×1 / 1×4 / scalar
/// edge paths all run.
const EDGES: [usize; 8] = [1, 2, 3, 5, 7, 11, 13, 17];

fn filled(rng: &mut Rng, n: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; n];
    rng.fill_range_f32(&mut v, -1.0, 1.0);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `conv_forward_cols` over the column-major patch == `conv_forward`
    /// over the row-major patch, for any (oc, rows, cols).
    #[test]
    fn tiled_conv_forward_matches_reference(
        seed in proptest::strategy::any::<u64>(),
        oc_i in 0usize..EDGES.len(),
        rows_i in 0usize..EDGES.len(),
        cols_i in 0usize..EDGES.len(),
    ) {
        let (oc, rows, cols) = (EDGES[oc_i], EDGES[rows_i], EDGES[cols_i]);
        let rng = &mut Rng::seed_from_u64(seed);
        let w = filled(rng, oc * cols);
        let bias = filled(rng, oc);
        let patch = filled(rng, rows * cols);
        let columns: Vec<f32> = (0..rows * cols)
            .map(|i| patch[i % rows * cols + i / rows])
            .collect();
        let mut want = vec![0.0f32; oc * rows];
        let mut got = vec![f32::NAN; oc * rows];
        reference::conv_forward(&w, &bias, &patch, rows, cols, &mut want);
        exec::conv_forward_cols(&w, &bias, &columns, rows, cols, &mut got);
        prop_assert_eq!(want, got);
    }

    /// `im2col` against a per-element reference over every
    /// `k ∈ {1, 2, 3, 5}`, stride `{1, 2}` and pad `{0, 1, 2, 3}` (pads
    /// wider than the window included), on a random input size.
    #[test]
    fn im2col_matches_per_element_reference(
        seed in proptest::strategy::any::<u64>(),
        c in 1usize..4,
        extra_h in 0usize..5,
        extra_w in 0usize..5,
    ) {
        let rng = &mut Rng::seed_from_u64(seed);
        for k in [1usize, 2, 3, 5] {
            for stride in [1usize, 2] {
                for pad in [0usize, 1, 2, 3] {
                    let lo = k.saturating_sub(2 * pad).max(1);
                    let (h, w) = (lo + extra_h, lo + extra_w);
                    let x = filled(rng, c * h * w);
                    let (oh, ow) = ((h + 2 * pad - k) / stride + 1, (w + 2 * pad - k) / stride + 1);
                    let (rows, cols) = (oh * ow, c * k * k);
                    let mut want = Vec::with_capacity(rows * cols);
                    for p in 0..rows {
                        for (ci, ky, kx) in (0..c).flat_map(|ci| (0..k).flat_map(move |ky| (0..k).map(move |kx| (ci, ky, kx)))) {
                            let iy = ((p / ow) * stride + ky) as isize - pad as isize;
                            let ix = ((p % ow) * stride + kx) as isize - pad as isize;
                            let inside = (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                            want.push(if inside { x[(ci * h + iy as usize) * w + ix as usize] } else { 0.0 });
                        }
                    }
                    let mut got = vec![f32::NAN; rows * cols];
                    exec::im2col(&x, [c, h, w], k, stride, pad, rows, cols, &mut got);
                    prop_assert!(want == got, "k {k} stride {stride} pad {pad} input {h}x{w}");
                }
            }
        }
    }

    /// The direct conv input gradient against the seed conv backward's
    /// `dx` (`reference::layer_backward`), bit for bit, over every
    /// `k ∈ {1, 3, 4, 5}`, stride `{1, 2}` and pad `{0, 1, 2}` on two input
    /// sizes each: the `k × k` input (a 1×1 output at pad 0, the covering
    /// case) and a random one, at every block width 1–4. A block call
    /// takes its images interleaved (images innermost) and must give each
    /// image exactly its one-image gradient. Upstream gradients carry
    /// `+0.0` and `-0.0`.
    #[test]
    fn conv_input_grad_matches_seed_backward(
        seed in proptest::strategy::any::<u64>(),
        ic in 1usize..4,
        oc in 1usize..9,
        extra_h in 0usize..5,
        extra_w in 0usize..5,
    ) {
        let rng = &mut Rng::seed_from_u64(seed);
        for k in [1usize, 3, 4, 5] {
            for stride in [1usize, 2] {
                for pad in [0usize, 1, 2] {
                    let lo = k.saturating_sub(2 * pad).max(1);
                    for (h, w) in [(k, k), (lo + extra_h, lo + extra_w)] {
                        let conv = Layer::Conv2d(Conv2d::new(ic, oc, k, stride, pad, rng));
                        let out = |n: usize| (n + 2 * pad - k) / stride + 1;
                        let (oh, ow) = (out(h), out(w));
                        let (g_len, dx_len) = (oc * oh * ow, ic * h * w);
                        let mut gs = filled(rng, 4 * g_len);
                        for (i, gv) in gs.iter_mut().enumerate() {
                            match i % 5 {
                                1 => *gv = 0.0,
                                3 => *gv = -0.0,
                                _ => {}
                            }
                        }
                        let want: Vec<Vec<u32>> = (gs.chunks_exact(g_len))
                            .map(|g| {
                                let dx = reference::layer_backward(
                                    &conv,
                                    &Tensor::zeros(&[ic, h, w]),
                                    &Tensor::from_vec(g.to_vec(), &[oc, oh, ow]),
                                    None,
                                );
                                dx.data().iter().map(|v| v.to_bits()).collect()
                            })
                            .collect();
                        for nb in 1..=4usize {
                            let mut g = vec![0.0f32; nb * g_len];
                            for (t, v) in g.iter_mut().enumerate() {
                                *v = gs[(t % nb) * g_len + t / nb];
                            }
                            let mut got = vec![f32::NAN; nb * dx_len];
                            exec::conv_input_grad(
                                conv.params()[0].data(),
                                &g,
                                [oc, oh, ow],
                                [ic, h, w],
                                k,
                                stride,
                                pad,
                                nb,
                                &mut got,
                            );
                            for (b, want) in want[..nb].iter().enumerate() {
                                let got: Vec<u32> = (0..dx_len)
                                    .map(|t| got[t * nb + b].to_bits())
                                    .collect();
                                prop_assert!(
                                    &got == want,
                                    "k {k} stride {stride} pad {pad} input {h}x{w} \
                                     block {nb} image {b}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// `conv_backward_params_tiled` == `conv_backward_params`, on
    /// non-zero starting accumulators (the kernels *accumulate*).
    #[test]
    fn tiled_conv_backward_params_matches_reference(
        seed in proptest::strategy::any::<u64>(),
        oc_i in 0usize..EDGES.len(),
        rows_i in 0usize..EDGES.len(),
        cols_i in 0usize..EDGES.len(),
    ) {
        let (oc, rows, cols) = (EDGES[oc_i], EDGES[rows_i], EDGES[cols_i]);
        let rng = &mut Rng::seed_from_u64(seed);
        let g = filled(rng, oc * rows);
        let patch = filled(rng, rows * cols);
        let mut want_dw = filled(rng, oc * cols);
        let mut want_db = filled(rng, oc);
        let mut got_dw = want_dw.clone();
        let mut got_db = want_db.clone();
        reference::conv_backward_params(&g, &patch, rows, cols, &mut want_dw, &mut want_db);
        exec::conv_backward_params_tiled(&g, &patch, rows, cols, &mut got_dw, &mut got_db);
        prop_assert_eq!(&want_dw, &got_dw);
        prop_assert_eq!(&want_db, &got_db);
    }

    /// `dense_forward_rows` == `dense_forward`, for one image and for a
    /// block of `images` images as GEMM rows, and `dense_backward_tiled`
    /// == `dense_backward`, including the zero-gradient row skip (every
    /// third gradient forced to `0.0`).
    #[test]
    fn tiled_dense_pair_matches_reference(
        seed in proptest::strategy::any::<u64>(),
        out_i in 0usize..EDGES.len(),
        in_i in 0usize..EDGES.len(),
        images in 2usize..6,
    ) {
        let (out_dim, in_dim) = (EDGES[out_i], EDGES[in_i]);
        let rng = &mut Rng::seed_from_u64(seed);
        let w = filled(rng, out_dim * in_dim);
        let bias = filled(rng, out_dim);
        let x = filled(rng, in_dim);
        let mut want = vec![0.0f32; out_dim];
        let mut got = vec![0.0f32; out_dim];
        reference::dense_forward(&w, &bias, &x, &mut want);
        exec::dense_forward_rows(&w, &bias, &x, &mut got);
        prop_assert_eq!(&want, &got);

        let xs = filled(rng, images * in_dim);
        let mut block = vec![f32::NAN; images * out_dim];
        exec::dense_forward_rows(&w, &bias, &xs, &mut block);
        for (x, got) in xs.chunks_exact(in_dim).zip(block.chunks_exact(out_dim)) {
            reference::dense_forward(&w, &bias, x, &mut want);
            prop_assert_eq!(&want[..], got);
        }

        let mut g = filled(rng, out_dim);
        for (o, gv) in g.iter_mut().enumerate() {
            if o % 3 == 2 {
                *gv = 0.0; // exercise the skip path
            }
        }
        let mut want_dx = vec![0.0f32; in_dim];
        let mut want_dw = filled(rng, out_dim * in_dim);
        let mut want_db = filled(rng, out_dim);
        let mut got_dx = vec![0.0f32; in_dim];
        let mut got_dw = want_dw.clone();
        let mut got_db = want_db.clone();
        reference::dense_backward(&w, &g, &x, &mut want_dx, Some(&mut want_dw), Some(&mut want_db));
        exec::dense_backward_tiled(&w, &g, &x, &mut got_dx, Some(&mut got_dw), Some(&mut got_db));
        prop_assert_eq!(&want_dx, &got_dx);
        prop_assert_eq!(&want_dw, &got_dw);
        prop_assert_eq!(&want_db, &got_db);
    }
}

/// The shared rank-n fold against the per-image reference it replaces:
/// each image's dense gradient materialized by `dense_backward` into a
/// zero buffer, then summed with `GradBuffer::accumulate`. Compared bit
/// for bit at every thread chunking of the fold, on inputs chosen to
/// break a sloppy fold: `+0.0` and `-0.0` gradient rows next to `±inf`
/// inputs (`0 · inf` is NaN unless the row is skipped) and `-0.0` inputs
/// (one image's `dw` must come out `+0.0`, not `-0.0`). A summed
/// (conv-style) layer rides along so the flat parameter range spans two
/// layers.
#[test]
fn grad_fold_is_bit_exact_with_per_image_accumulate() {
    let (out_dim, in_dim, summed) = (7, 5, 9);
    let fold = GradFold::new([
        ParamRecord::Dense { out_dim, in_dim },
        ParamRecord::Summed { len: summed },
    ]);
    let zeros = || GradBuffer {
        layers: vec![
            vec![Tensor::zeros(&[out_dim, in_dim]), Tensor::zeros(&[out_dim])],
            vec![Tensor::zeros(&[summed])],
        ],
    };
    let rng = &mut Rng::seed_from_u64(0x5160);
    let w = filled(rng, out_dim * in_dim);
    for n in [1usize, 2, 5] {
        let images: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = (0..n)
            .map(|k| {
                let mut g = filled(rng, out_dim);
                g[1] = 0.0;
                g[4] = -0.0;
                let mut x = filled(rng, in_dim);
                x[0] = -0.0;
                // One infinity per column over the batch: a NaN in the
                // result can then only come from `0 * inf`.
                if k < 2 {
                    x[2 + k] = if k == 0 {
                        f32::INFINITY
                    } else {
                        f32::NEG_INFINITY
                    };
                }
                let mut conv = filled(rng, summed);
                conv[3] = -0.0;
                (g, x, conv)
            })
            .collect();
        let records: Vec<Vec<f32>> = images
            .iter()
            .map(|(g, x, conv)| {
                let mut rec = vec![0.0f32; fold.record_len()];
                let dense = fold.layer_record(0, &mut rec);
                dense[..out_dim].copy_from_slice(g);
                dense[out_dim..].copy_from_slice(x);
                fold.layer_record(1, &mut rec).copy_from_slice(conv);
                rec
            })
            .collect();
        let mut want = zeros();
        for (g, x, conv) in &images {
            let mut one = zeros();
            let (dw, db) = one.layers[0].split_at_mut(1);
            let mut dx = vec![0.0f32; in_dim];
            reference::dense_backward(
                &w,
                g,
                x,
                &mut dx,
                Some(dw[0].data_mut()),
                Some(db[0].data_mut()),
            );
            one.layers[1][0].data_mut().copy_from_slice(conv);
            want.accumulate(&one);
        }
        assert!(
            want.layers[0][0].data().iter().all(|v| !v.is_nan()),
            "the reference skips zero rows, so it has no 0 * inf"
        );
        for threads in [1, 2, 3, 7] {
            let mut got = zeros();
            with_threads(threads, || fold.fold_into(&records, &mut got));
            assert_eq!(
                common::grad_bits(&got),
                common::grad_bits(&want),
                "fold diverges (n {n}, {threads} threads)"
            );
        }
    }
}

/// One forward + one batched gradient under the current env settings.
fn probe(model: &Sequential, imgs: &[Tensor], labels: &[usize]) -> (Vec<Tensor>, f32) {
    let outs: Vec<Tensor> = imgs.iter().map(|x| model.forward(x)).collect();
    let (loss, grads) = model.loss_and_param_grads_batch(imgs, labels);
    // Fold the gradients into the loss signature via exact bit sums so a
    // single-bit divergence anywhere fails the comparison.
    let mut sig = loss;
    for t in grads.layers.iter().flatten() {
        for &v in t.data() {
            sig = f32::from_bits(sig.to_bits() ^ v.to_bits().rotate_left(9));
        }
    }
    (outs, sig)
}

/// The `AXDNN_THREADS` sweep: for every fixture model (the conv
/// geometries included), the plan must reproduce its one-thread forward
/// outputs and gradient signature bit-for-bit at every thread chunking.
#[test]
fn kernel_matrix_is_bit_exact_across_geometries_and_threads() {
    for arch in 0..common::ARCHS {
        let model = common::small_model(arch, 0xFACE + arch as u64);
        let imgs = common::images(5, 0x51EE + arch as u64);
        let labels: Vec<usize> = (0..imgs.len()).map(|i| i % 4).collect();
        let (want_outs, want_sig) = with_threads(1, || probe(&model, &imgs, &labels));
        for threads in [1, 2, 3, 7] {
            let (outs, sig) = with_threads(threads, || probe(&model, &imgs, &labels));
            assert_eq!(
                outs, want_outs,
                "forward diverges (arch {arch}, {threads} threads)"
            );
            assert_eq!(
                sig.to_bits(),
                want_sig.to_bits(),
                "gradients diverge (arch {arch}, {threads} threads)"
            );
        }
    }
}
