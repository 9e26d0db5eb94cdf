//! Property tests pinning the batched plan engine to the per-image path.
//!
//! The batch API must be a pure performance optimization: for any model,
//! placement and quantization level, `forward_batch_with` over N images
//! and M kernels must be *bit-exact* with N×M independent
//! `forward_with` calls, and the exact LUT must be bit-exact with the
//! builtin exact multiplier through the GEMM path.

use axmul::{ExactMul, FaultedMul, MulKernel, MulLut};
use axnn::layer::{AvgPool2d, Conv2d, Dense, Layer};
use axnn::model::Sequential;
use axquant::{Placement, QLevel, QuantModel};
use axtensor::Tensor;
use axutil::parallel::with_threads;
use axutil::rng::Rng;
use proptest::prelude::*;

const IN_DIMS: [usize; 3] = [1, 6, 6];

/// A small random model of one of three shapes that together cover every
/// engine path: dense-only, conv without padding, conv+pad+avgpool.
fn small_model(arch: usize, seed: u64) -> Sequential {
    let rng = &mut Rng::seed_from_u64(seed);
    match arch % 3 {
        0 => Sequential::new(
            "p-ffnn",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(36, 8, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(8, 4, rng)),
            ],
        ),
        1 => Sequential::new(
            "p-conv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 4 * 4, 4, rng)),
            ],
        ),
        _ => Sequential::new(
            "p-convpool",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::AvgPool(AvgPool2d::new(2)),
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 3 * 3, 4, rng)),
            ],
        ),
    }
}

fn images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t = Tensor::zeros(&IN_DIMS);
            rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
            t
        })
        .collect()
}

/// An approximate kernel with structure the engine must not assume away:
/// asymmetric and biased, including `mul(w, 0) != 0`.
fn biased_lut() -> MulLut {
    MulLut::from_fn("biased", |a, b| {
        ((a as u16).wrapping_mul(b as u16) & !0x7).wrapping_add((a as u16) & 3)
    })
}

/// Checks batch-vs-scalar bit-exactness and exact-LUT == builtin for one
/// quantized model. Returns an error message on the first mismatch.
fn check_engine(qm: &QuantModel, probes: &[Tensor]) -> Result<(), String> {
    let exact_lut = MulLut::exact();
    let approx = biased_lut();
    let kernels = [&exact_lut, &approx];
    let plan = qm.plan(&IN_DIMS);
    let batch = plan.forward_batch_with(probes, &kernels);
    for (img, row) in probes.iter().zip(&batch) {
        let scalar_exact = qm.forward_with(img, &exact_lut);
        let scalar_approx = qm.forward_with(img, &approx);
        if row[0] != scalar_exact {
            return Err(format!(
                "batch exact-LUT lane != per-image forward_with for {}",
                qm.name()
            ));
        }
        if row[1] != scalar_approx {
            return Err(format!(
                "batch approx lane != per-image forward_with for {}",
                qm.name()
            ));
        }
        // The exact LUT must be indistinguishable from the builtin
        // multiply through the whole GEMM path.
        if scalar_exact != qm.forward_with(img, &ExactMul) {
            return Err(format!("exact LUT != ExactMul for {}", qm.name()));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn batch_engine_is_bit_exact_on_random_models(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..3,
        wbits in 2u8..=8,
        abits in 2u8..=8,
    ) {
        let model = small_model(arch, seed);
        let calib = images(4, seed ^ 0xCA11B);
        let probes = images(3, seed ^ 0x9A0BE5);
        let level = QLevel::new(wbits, abits);
        for placement in [Placement::ConvOnly, Placement::All] {
            let qm = QuantModel::from_float_with_level(&model, &calib, placement, level)
                .expect("supported topology");
            if let Err(msg) = check_engine(&qm, &probes) {
                prop_assert!(false, "{msg} (placement {placement}, level {level})");
            }
        }
    }
}

/// A stuck-at-faulted multiplier LUT must ride the same batch engine
/// contracts as any other table kernel: `forward_batch_with` under a
/// [`FaultedMul`] is bit-identical across `AXDNN_THREADS` 1/4 and
/// identical to the per-image `forward_with` path.
#[test]
fn faulted_kernel_batch_forward_is_thread_invariant() {
    use axcirc::faults::{Fault, FaultSet, StuckAt};

    let nl = axmul::Registry::standard()
        .find("17KS")
        .expect("registered")
        .build_netlist();
    // Tie a mid-significance product bit high: defective enough to
    // change products, not so defective that every logit saturates.
    let fault = Fault::new(nl.outputs()[3], StuckAt::One);
    let fk = FaultedMul::from_netlist("17KS", &nl, FaultSet::single(fault));
    let clean = MulLut::from_netlist("17KS", &nl);
    assert_ne!(fk.table(), clean.table(), "the fault must alter the LUT");
    assert!(matches!(
        axmul::MulBackend::of(&fk),
        axmul::MulBackend::Table(_)
    ));

    let model = small_model(2, 41);
    let calib = images(4, 42);
    let probes = images(3, 43);
    let qm = QuantModel::from_float(&model, &calib, Placement::All).expect("supported topology");

    let mut per_threads = Vec::new();
    for threads in [1, 4] {
        with_threads(threads, || {
            let plan = qm.plan(&IN_DIMS);
            per_threads.push(plan.forward_batch_with(&probes, &[&fk]));
        });
    }
    assert_eq!(
        per_threads[0], per_threads[1],
        "faulted batch forward must not depend on thread chunking"
    );
    for (img, row) in probes.iter().zip(&per_threads[0]) {
        assert_eq!(
            row[0],
            qm.forward_with(img, &fk),
            "faulted batch lane != per-image forward_with"
        );
    }
}

/// The full `Placement` × `QLevel` lattice, deterministically: all 49
/// weight/activation bit-width pairs under both placements on the model
/// shape that exercises conv, padding, pooling and dense layers.
#[test]
fn batch_engine_is_bit_exact_on_every_placement_and_qlevel() {
    let model = small_model(2, 77);
    let calib = images(4, 78);
    let probes = images(2, 79);
    for wbits in 2..=8u8 {
        for abits in 2..=8u8 {
            let level = QLevel::new(wbits, abits);
            for placement in [Placement::ConvOnly, Placement::All] {
                let qm = QuantModel::from_float_with_level(&model, &calib, placement, level)
                    .expect("supported topology");
                if let Err(msg) = check_engine(&qm, &probes) {
                    panic!("{msg} (placement {placement}, level {level})");
                }
            }
        }
    }
}

/// Batch sizes around the engine's 4-image blocks: one block of one, of
/// two and three, one full block, a full block plus one, plus three and
/// two full blocks plus one.
const BATCH_SIZES: [usize; 7] = [1, 2, 3, 4, 5, 7, 9];

/// Every logit's bit pattern, row by row.
fn logit_bits(rows: &[Vec<Tensor>]) -> Vec<Vec<Vec<u32>>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        })
        .collect()
}

/// The block paths against one image per call: for every batch size
/// across the 4-image block boundaries and every `AXDNN_THREADS`
/// chunking, each `[image][kernel]` logit of `forward_batch_with` is
/// `forward_one`'s bit for bit, and `predict_batch_indexed` is its argmax.
/// Two zoo models with two approximate kernels each: LeNet-5 under
/// `ConvOnly` (the lanes diverge at the first conv) and the FFNN under
/// `Placement::All` (they diverge at the first dense layer).
#[test]
fn image_blocks_match_one_image_forwards_at_every_boundary() {
    use axnn::zoo;

    let l40 = axmul::Registry::standard().build_lut("L40").unwrap();
    let biased = biased_lut();
    let kernels = [&l40, &biased];
    let mut rng = Rng::seed_from_u64(0xB10C);
    let lenet = zoo::lenet5(&mut rng);
    let ffnn = zoo::ffnn(&mut rng);
    let dims = [1usize, 28, 28];
    let images: Vec<Tensor> = (0..9)
        .map(|_| {
            let mut t = Tensor::zeros(&dims);
            rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
            t
        })
        .collect();
    let calib = &images[..4];

    for (model, placement) in [(&lenet, Placement::ConvOnly), (&ffnn, Placement::All)] {
        let qm = QuantModel::from_float(model, calib, placement).expect("supported topology");
        let plan = qm.plan(&dims);
        let mut scratch = plan.scratch_for(1);
        let want: Vec<Vec<Tensor>> = (images.iter())
            .map(|x| {
                (kernels.iter())
                    .map(|&k| plan.forward_one(&mut scratch, x, k))
                    .collect()
            })
            .collect();
        assert_ne!(want[0][0], want[0][1], "the kernels must diverge");
        for threads in [1, 2, 3, 7] {
            with_threads(threads, || {
                for n in BATCH_SIZES {
                    let got = plan.forward_batch_with(&images[..n], &kernels);
                    assert_eq!(
                        logit_bits(&got),
                        logit_bits(&want[..n]),
                        "{} logits: n {n}, threads {threads}",
                        qm.name()
                    );
                    let preds = plan.predict_batch_indexed(n, |i| &images[i], &kernels);
                    let want_preds: Vec<Vec<usize>> = (want[..n].iter())
                        .map(|row| row.iter().map(Tensor::argmax).collect())
                        .collect();
                    assert_eq!(
                        preds,
                        want_preds,
                        "{} predictions: n {n}, threads {threads}",
                        qm.name()
                    );
                }
            });
        }
    }
}

/// A table kernel behind a plain trait call: the engine sees a
/// `Generic` backend.
struct Opaque<'a>(&'a MulLut);

impl MulKernel for Opaque<'_> {
    fn mul(&self, a: u8, b: u8) -> u16 {
        self.0.mul(a, b)
    }

    fn name(&self) -> &str {
        "opaque"
    }
}

/// Duplicate columns run once and are copied back, so every
/// `[image][kernel]` entry of the batch paths still equals one
/// single-kernel run of that column, under every `AXDNN_THREADS`
/// chunking. The columns: a LUT, the same LUT again, a LUT that differs
/// from it only in rows >= 128 (no INT8 weight magnitude reads them),
/// `ExactMul` next to an exact `MulLut` and a second `ExactMul`, the
/// first LUT behind a `Generic` trait call, and a LUT that differs from
/// the first in row 1.
#[test]
fn duplicate_columns_match_single_kernel_runs() {
    let biased = biased_lut();
    let high_rows = MulLut::from_fn("biased-high", |a, b| {
        let v = biased.mul(a, b);
        if a >= 128 {
            !v
        } else {
            v
        }
    });
    let row1 = MulLut::from_fn("biased-row1", |a, b| biased.mul(a, b) ^ u16::from(a == 1));
    let exact_lut = MulLut::exact();
    let opaque = Opaque(&biased);
    let kernels: [&dyn MulKernel; 8] = [
        &biased, &biased, &high_rows, &ExactMul, &exact_lut, &ExactMul, &opaque, &row1,
    ];
    let calib = images(4, 90);
    let probes = images(9, 91);

    for (arch, placement) in [
        (1, Placement::ConvOnly),
        (2, Placement::All),
        (0, Placement::All),
    ] {
        let qm = QuantModel::from_float(&small_model(arch, 92), &calib, placement)
            .expect("supported topology");
        let plan = qm.plan(&IN_DIMS);
        let mut scratch = plan.scratch_for(1);
        let want: Vec<Vec<Tensor>> = (probes.iter())
            .map(|x| {
                (kernels.iter())
                    .map(|&k| plan.forward_one(&mut scratch, x, k))
                    .collect()
            })
            .collect();
        for threads in [1, 2, 3, 7] {
            with_threads(threads, || {
                for n in [1, 5, 9] {
                    let got = plan.forward_batch_with(&probes[..n], &kernels);
                    assert_eq!(
                        logit_bits(&got),
                        logit_bits(&want[..n]),
                        "{} logits: n {n}, threads {threads}",
                        qm.name()
                    );
                    let preds = plan.predict_batch_indexed(n, |i| &probes[i], &kernels);
                    let want_preds: Vec<Vec<usize>> = (want[..n].iter())
                        .map(|row| row.iter().map(Tensor::argmax).collect())
                        .collect();
                    assert_eq!(preds, want_preds, "{}: n {n}, threads {threads}", qm.name());
                }
            });
        }
    }
}
