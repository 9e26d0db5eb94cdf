//! The seed layer-by-layer float path and the scalar GEMM loops, kept as
//! the reference the compiled engine is tested against.
//!
//! Every production caller runs [`crate::plan::FPlan`]. This module is
//! the plain loop it replaced: one image at a time, a fresh [`Tensor`]
//! per layer, each layer a direct nested loop that is easy to verify
//! against finite differences (the gradient checks in [`crate::layer`]'s
//! tests). The proptests of `axnn`, `axquant` and `axattack` pin the
//! engine to it bit for bit.
//!
//! The scalar GEMM loops ([`conv_forward`], [`dense_forward`],
//! [`dense_backward`], [`conv_backward_params`]) work on the same flat
//! slices as the register-tiled kernels of [`crate::exec`], in the seed
//! layers' accumulation order. `exec`'s tests and `prop_kernels` pin the
//! tiled kernels to them bit for bit, and the `gemm` bench suite times
//! them as its `reference_ms` rows.

use axtensor::Tensor;

use crate::layer::{AvgPool2d, Conv2d, Dense, Layer};
use crate::loss::cross_entropy_with_grad;
use crate::model::{GradBuffer, Sequential};

/// Runs one layer forward on one image.
///
/// # Panics
///
/// Panics if `x` does not fit the layer (a conv or pool input that is
/// not `[C, H, W]`, a channel mismatch, a pool window that does not
/// tile the input).
pub fn layer_forward(layer: &Layer, x: &Tensor) -> Tensor {
    match layer {
        Layer::Conv2d(conv) => conv_layer_forward(conv, x),
        Layer::Dense(d) => dense_layer_forward(d, x),
        Layer::AvgPool(p) => avgpool_forward(p, x),
        Layer::Relu => x.map(|v| v.max(0.0)),
        Layer::Flatten => x.reshaped(&[x.len()]),
    }
}

/// Back-propagates `grad_out` through `layer` evaluated at input `x`,
/// optionally accumulating parameter gradients into `param_grads` (same
/// layout as [`Layer::params`]). Returns the gradient with respect to
/// `x`.
pub fn layer_backward(
    layer: &Layer,
    x: &Tensor,
    grad_out: &Tensor,
    param_grads: Option<&mut [Tensor]>,
) -> Tensor {
    match layer {
        Layer::Conv2d(conv) => conv_layer_backward(conv, x, grad_out, param_grads),
        Layer::Dense(d) => dense_layer_backward(d, x, grad_out, param_grads),
        Layer::AvgPool(p) => avgpool_backward(p, x, grad_out),
        Layer::Relu => x.zip_with(grad_out, |xv, g| if xv > 0.0 { g } else { 0.0 }),
        Layer::Flatten => grad_out.reshaped(x.dims()),
    }
}

/// Forward pass that records every layer input. Returns
/// `(per_layer_inputs, logits)`: `inputs[i]` is what layer `i` reads, so
/// `inputs[i + 1]` is layer `i`'s output.
pub fn forward_trace(model: &Sequential, x: &Tensor) -> (Vec<Tensor>, Tensor) {
    let mut inputs = Vec::with_capacity(model.layers().len());
    let mut cur = x.clone();
    for layer in model.layers() {
        inputs.push(cur.clone());
        cur = layer_forward(layer, &cur);
    }
    (inputs, cur)
}

/// The logits of one image.
pub fn forward(model: &Sequential, x: &Tensor) -> Tensor {
    forward_trace(model, x).1
}

/// Cross-entropy loss of `(x, target)` and its gradient with respect to
/// `x`, back-propagated layer by layer. With `grads` (shaped like
/// [`Sequential::zero_grads`]) every conv/dense layer also adds its
/// parameter gradients into it.
pub fn backward(
    model: &Sequential,
    x: &Tensor,
    target: usize,
    mut grads: Option<&mut GradBuffer>,
) -> (f32, Tensor) {
    let (inputs, logits) = forward_trace(model, x);
    let (loss, mut grad) = cross_entropy_with_grad(&logits, target);
    for (i, layer) in model.layers().iter().enumerate().rev() {
        let pg = match grads.as_deref_mut() {
            Some(buf) if !buf.layers[i].is_empty() => Some(buf.layers[i].as_mut_slice()),
            _ => None,
        };
        grad = layer_backward(layer, &inputs[i], &grad, pg);
    }
    (loss, grad)
}

/// `(oh, ow)` of `conv` over an `h x w` input.
fn conv_out_hw(conv: &Conv2d, h: usize, w: usize) -> (usize, usize) {
    let k = conv.weight().dims()[2];
    let oh = (h + 2 * conv.pad())
        .checked_sub(k)
        .expect("kernel larger than input")
        / conv.stride()
        + 1;
    let ow = (w + 2 * conv.pad())
        .checked_sub(k)
        .expect("kernel larger than input")
        / conv.stride()
        + 1;
    (oh, ow)
}

fn conv_layer_forward(conv: &Conv2d, x: &Tensor) -> Tensor {
    let [ic, h, w] = *x.dims() else {
        panic!("conv input must be [C, H, W], got {}", x.shape())
    };
    let [oc, wic, kh, kw] = *conv.weight().dims() else {
        unreachable!()
    };
    assert_eq!(ic, wic, "conv channel mismatch");
    let (oh, ow) = conv_out_hw(conv, h, w);
    let mut out = vec![0.0f32; oc * oh * ow];
    let xd = x.data();
    let wd = conv.weight().data();
    let bd = conv.bias().data();
    let (s, p) = (conv.stride() as isize, conv.pad() as isize);
    for o in 0..oc {
        let w_base = o * ic * kh * kw;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bd[o];
                for c in 0..ic {
                    let x_base = c * h * w;
                    let wc_base = w_base + c * kh * kw;
                    for ky in 0..kh {
                        let iy = oy as isize * s + ky as isize - p;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let x_row = x_base + iy as usize * w;
                        let w_row = wc_base + ky * kw;
                        for kx in 0..kw {
                            let ix = ox as isize * s + kx as isize - p;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += wd[w_row + kx] * xd[x_row + ix as usize];
                        }
                    }
                }
                out[(o * oh + oy) * ow + ox] = acc;
            }
        }
    }
    Tensor::from_vec(out, &[oc, oh, ow])
}

fn conv_layer_backward(
    conv: &Conv2d,
    x: &Tensor,
    grad_out: &Tensor,
    param_grads: Option<&mut [Tensor]>,
) -> Tensor {
    let [ic, h, w] = *x.dims() else {
        unreachable!()
    };
    let [oc, _, kh, kw] = *conv.weight().dims() else {
        unreachable!()
    };
    let [goc, oh, ow] = *grad_out.dims() else {
        panic!("conv grad must be [C, H, W]")
    };
    assert_eq!(goc, oc, "grad channel mismatch");
    let mut dx = vec![0.0f32; ic * h * w];
    let xd = x.data();
    let wd = conv.weight().data();
    let gd = grad_out.data();
    let (s, p) = (conv.stride() as isize, conv.pad() as isize);
    // Borrow the two gradient buffers up front, if requested.
    let (mut dw, mut db): (Option<&mut [f32]>, Option<&mut [f32]>) = match param_grads {
        Some(slice) => {
            let (wg, bg) = slice.split_at_mut(1);
            (Some(wg[0].data_mut()), Some(bg[0].data_mut()))
        }
        None => (None, None),
    };
    for o in 0..oc {
        let w_base = o * ic * kh * kw;
        for oy in 0..oh {
            for ox in 0..ow {
                let g = gd[(o * oh + oy) * ow + ox];
                if let Some(db) = db.as_deref_mut() {
                    db[o] += g;
                }
                for c in 0..ic {
                    let x_base = c * h * w;
                    let wc_base = w_base + c * kh * kw;
                    for ky in 0..kh {
                        let iy = oy as isize * s + ky as isize - p;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let x_row = x_base + iy as usize * w;
                        let w_row = wc_base + ky * kw;
                        for kx in 0..kw {
                            let ix = ox as isize * s + kx as isize - p;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let ix = ix as usize;
                            if let Some(dw) = dw.as_deref_mut() {
                                dw[w_row + kx] += g * xd[x_row + ix];
                            }
                            dx[x_row + ix] += g * wd[w_row + kx];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(dx, &[ic, h, w])
}

fn dense_layer_forward(d: &Dense, x: &Tensor) -> Tensor {
    let mut y = d.weight().matvec(&x.reshaped(&[x.len()]));
    for (v, &b) in y.data_mut().iter_mut().zip(d.bias().data()) {
        *v += b;
    }
    y
}

fn dense_layer_backward(
    d: &Dense,
    x: &Tensor,
    grad_out: &Tensor,
    param_grads: Option<&mut [Tensor]>,
) -> Tensor {
    let xin = x.reshaped(&[x.len()]);
    if let Some(slice) = param_grads {
        let (wg, bg) = slice.split_at_mut(1);
        let (out_dim, in_dim) = (d.weight().dims()[0], d.weight().dims()[1]);
        let dw = wg[0].data_mut();
        for o in 0..out_dim {
            let g = grad_out.data()[o];
            if g == 0.0 {
                continue;
            }
            let row = &mut dw[o * in_dim..(o + 1) * in_dim];
            for (d, &xv) in row.iter_mut().zip(xin.data()) {
                *d += g * xv;
            }
        }
        for (d, &g) in bg[0].data_mut().iter_mut().zip(grad_out.data()) {
            *d += g;
        }
    }
    let dx = d.weight().matvec_t(grad_out);
    dx.reshaped(x.dims())
}

fn avgpool_forward(p: &AvgPool2d, x: &Tensor) -> Tensor {
    let [c, h, w] = *x.dims() else {
        panic!("pool input must be [C, H, W]")
    };
    let k = p.k();
    assert!(
        h % k == 0 && w % k == 0,
        "pool window {k} does not tile {h}x{w}"
    );
    let (oh, ow) = (h / k, w / k);
    let inv = 1.0 / (k * k) as f32;
    let mut out = vec![0.0f32; c * oh * ow];
    let xd = x.data();
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for dy in 0..k {
                    let row = (ch * h + oy * k + dy) * w + ox * k;
                    for dx in 0..k {
                        acc += xd[row + dx];
                    }
                }
                out[(ch * oh + oy) * ow + ox] = acc * inv;
            }
        }
    }
    Tensor::from_vec(out, &[c, oh, ow])
}

fn avgpool_backward(p: &AvgPool2d, x: &Tensor, grad_out: &Tensor) -> Tensor {
    let [c, h, w] = *x.dims() else { unreachable!() };
    let k = p.k();
    let (oh, ow) = (h / k, w / k);
    let inv = 1.0 / (k * k) as f32;
    let mut dx = vec![0.0f32; c * h * w];
    let gd = grad_out.data();
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = gd[(ch * oh + oy) * ow + ox] * inv;
                for dy in 0..k {
                    let row = (ch * h + oy * k + dy) * w + ox * k;
                    for dx_i in 0..k {
                        dx[row + dx_i] += g;
                    }
                }
            }
        }
    }
    Tensor::from_vec(dx, &[c, h, w])
}

/// Conv forward GEMM: `out[o * rows + p] = bias[o] + w[o] · patch[p]`.
///
/// Accumulators start at the bias — the seed conv's summation order.
pub fn conv_forward(
    w: &[f32],
    bias: &[f32],
    patch: &[f32],
    rows: usize,
    cols: usize,
    out: &mut [f32],
) {
    let out_c = bias.len();
    debug_assert_eq!(w.len(), out_c * cols);
    debug_assert!(patch.len() >= rows * cols);
    for o in 0..out_c {
        let wrow = &w[o * cols..(o + 1) * cols];
        let b = bias[o];
        for p in 0..rows {
            let prow = &patch[p * cols..(p + 1) * cols];
            let mut acc = b;
            for (&wv, &a) in wrow.iter().zip(prow) {
                acc += wv * a;
            }
            out[o * rows + p] = acc;
        }
    }
}

/// Dense forward: `out = W x + b` with the dot product accumulated first
/// and the bias added last — the seed dense's (`matvec` + bias) order.
pub fn dense_forward(w: &[f32], bias: &[f32], x: &[f32], out: &mut [f32]) {
    let (out_dim, in_dim) = (bias.len(), x.len());
    debug_assert_eq!(w.len(), out_dim * in_dim);
    for o in 0..out_dim {
        let wrow = &w[o * in_dim..(o + 1) * in_dim];
        let mut acc = 0.0f32;
        for (&wv, &xv) in wrow.iter().zip(x) {
            acc += wv * xv;
        }
        out[o] = acc + bias[o];
    }
}

/// Dense backward: writes `dx = Wᵀ g` (mirroring `matvec_t`, including
/// its zero-gradient row skip) and, when requested, accumulates `dw` and
/// `db` in the seed order.
pub fn dense_backward(
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
        for o in 0..out_dim {
            let gv = g[o];
            if gv == 0.0 {
                continue;
            }
            let row = &mut dw[o * in_dim..(o + 1) * in_dim];
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
    for o in 0..out_dim {
        let gv = g[o];
        if gv == 0.0 {
            continue;
        }
        let row = &w[o * in_dim..(o + 1) * in_dim];
        for (d, &wv) in dx[..in_dim].iter_mut().zip(row) {
            *d += wv * gv;
        }
    }
}

/// Accumulates conv parameter gradients from the forward im2col patches:
/// `dw[o][j] += Σ_p g[o, p] * patch[p, j]` (the seed's `o, p, j` loop
/// order) and `db[o] += Σ_p g[o, p]`.
pub fn conv_backward_params(
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
    for o in 0..out_c {
        let wrow = &mut dw[o * cols..(o + 1) * cols];
        for p in 0..rows {
            let gv = g[o * rows + p];
            db[o] += gv;
            let prow = &patch[p * cols..(p + 1) * cols];
            for (d, &a) in wrow.iter_mut().zip(prow) {
                *d += gv * a;
            }
        }
    }
}
