//! The perf smoke behind the CI regression gate: seven parts, each
//! written as one `BENCH_<suite>.json` row report through
//! [`bench::check::Report`] and validated by `bench_check`.
//!
//! 1. `attacks` — adversarial crafting on a LeNet-5-sized model, per-image
//!    [`axattack::Attack::craft`] calls vs one
//!    [`axattack::Attack::craft_batch`] pass, their paired difference
//!    and the batched rate in images/s.
//! 2. `train` — the training gradient, the seed per-image
//!    `Sequential::loss_and_grads` fold vs one
//!    `FPlan::loss_and_param_grads_batch` pass.
//! 3. `finetune` — LeNet-5 quantized with the `L40` LUT multiplier and
//!    fine-tuned through it ([`axquant::qtrain::finetune`]): clean
//!    quantized accuracy before vs after, plus the per-image vs batched
//!    STE gradient step.
//! 4. `gemm` — the scalar reference GEMM loops (`axnn::reference`) vs
//!    [`axnn::exec`]'s register-tiled micro-kernels on the zoo models'
//!    hot shapes; the one-thread LUT-GEMM rates (MAC/s) of a dense layer
//!    and of LeNet-5's conv layers, one image per call vs a 4-image
//!    block; and the absolute rate of LeNet-5's input gradient, one image
//!    per call and one 4-image block.
//! 5. `faults` — the stuck-at fault campaign
//!    ([`axrobust::experiments::run_fault_sweep`]) over three registry
//!    multipliers, plus the faulted-LUT rebuild rate against its floor.
//! 6. `universal` — one universal delta judged against three multipliers
//!    before and after universal adversarial training
//!    ([`axrobust::experiments::run_universal_sweep`]).
//! 7. `mtd` — every fixed multiplier plus the randomized kernel ensemble
//!    against static PGD and the adaptive EOT attacker
//!    ([`axrobust::experiments::run_mtd_sweep`]).
//!
//! Parts 1–3 time the per-image path and the batched path pinned to one
//! thread with [`parallel::with_threads`], so the speedup isolates the
//! batching win from thread scaling, then re-time the batched path under
//! the caller's `AXDNN_THREADS` (the machine's parallelism when it is
//! unset). Every timed pair is asserted bit-identical first. Parts 5–7
//! also run under the caller's setting and are deterministic and
//! thread-invariant:
//! their reports carry no timings (wall times go to stderr), only
//! replayable values and `0`/`1` verdicts, so they are byte-identical
//! across runs and thread counts.
//!
//! `AXDNN_BENCH_IMAGES` (default 8) sizes the image set of parts 1–2.

use std::time::Instant;

use axattack::gradient::{Bim, Fgm, Pgd};
use axattack::norms::Norm;
use axattack::Attack;
use axdata::mnist::{MnistConfig, SynthMnist};
use axdata::Dataset;
use axmul::Registry;
use axnn::layer::{Dense, Layer};
use axnn::source::map_source_blocks;
use axnn::train::{fit, TrainConfig};
use axnn::zoo;
use axnn::Sequential;
use axquant::qtrain::{finetune, FinetuneConfig, QTrainPlan};
use axquant::{Placement, QScratch, QuantModel};
use axrobust::experiments::{run_fault_sweep, run_mtd_sweep, run_universal_sweep};
use axrobust::faults::{sample_single_faults, FaultSweepOpts};
use axrobust::{MtdSweepOpts, UniversalSweepOpts};
use axtensor::Tensor;
use axutil::{parallel, rng::Rng};
use bench::check::Report;

/// Timed repetitions per measurement (the median is reported).
const REPS: usize = 3;
/// Interleaved per-image/batched timing pairs per attack.
const PAIRS: usize = 21;
/// Training images of the fine-tuning part.
const FT_TRAIN: usize = 400;
/// Evaluation samples of the fault campaign.
const FAULT_EVAL: usize = 60;
/// Single faults sampled per multiplier.
const FAULTS: usize = 6;
/// Timed repetitions of the faulted-LUT rebuild batch; the fastest one
/// is reported, since a shared host only ever slows a run down.
const REBUILD_REPS: usize = 15;
/// Faulted-LUT rebuilds per second the campaign must sustain: half the
/// slowest of 28 fresh best-of-[`REBUILD_REPS`] readings on a shared
/// 2-vCPU host, 1100-2158/s, with each table written straight from the
/// 16-word sweep in its `(a << 8) | b` layout. The one-word-per-dispatch
/// simulator before the sweep read 243-343/s, which fails it.
const MIN_LUT_REBUILD: f64 = 545.0;
/// Kernel calls per timed GEMM measurement.
const GEMM_ITERS: usize = 200;
/// Interleaved timings per side of the one-image vs block rate rows (the
/// LUT-GEMM rows and `lenet5-input-grad`). Six runs of the LeNet-5 conv
/// rows as a median of three timings per side put the block below
/// one-image calls once (ratio 0.79, the others 1.03–1.11); the best of
/// five interleaved timings read 1.05–1.11 there, but later 0.97 in one
/// of eight quiet runs once both sides ran the AVX2 LUT kernels. The best
/// of fifteen takes each side's minimum over more runs of the same
/// quantity.
const LUT_REPS: usize = 30;
/// Evaluation samples of the universal sweep.
const UNIVERSAL_EVAL: usize = 60;
/// Crafting samples of the universal delta.
const UNIVERSAL_CRAFT: usize = 80;
/// Evaluation samples of the moving-target sweep.
const MTD_EVAL: usize = 60;
/// The victim multipliers of parts 5–7.
const MULTS: [&str; 3] = ["1JFF", "17KS", "L40"];

/// Wall-clock time of one call of `f`, in milliseconds.
fn time_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of `times`.
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Median of [`REPS`] wall-clock timings of `f`, in milliseconds.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    median((0..REPS).map(|_| time_ms(&mut f)).collect())
}

/// The fastest of [`LUT_REPS`] wall-clock timings (ms) of each of `one`
/// and `block`, both run on `state`. The two sides are timed in turn, so
/// load that comes and goes on a shared host hits both alike.
fn best_interleaved_ms<S>(
    state: &mut S,
    one: impl Fn(&mut S),
    block: impl Fn(&mut S),
) -> (f64, f64) {
    let (mut one_ms, mut block_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..LUT_REPS {
        one_ms = one_ms.min(time_ms(|| one(state)));
        block_ms = block_ms.min(time_ms(|| block(state)));
    }
    (one_ms, block_ms)
}

/// Asserts `scalar` and `batched` agree bit for bit, times both on one
/// thread and then `batched` under the caller's `AXDNN_THREADS`, and
/// records all three for `workload`. Returns the one-thread
/// `(scalar_ms, batched_ms)`.
fn time_batching<T: PartialEq + std::fmt::Debug>(
    report: &mut Report,
    workload: &str,
    mut scalar: impl FnMut() -> T,
    mut batched: impl FnMut() -> T,
) -> (f64, f64) {
    assert_eq!(scalar(), batched(), "{workload}: batched path diverged");
    let (scalar_ms, batched_ms) =
        parallel::with_threads(1, || (median_ms(&mut scalar), median_ms(&mut batched)));
    let batched_parallel_ms = median_ms(&mut batched);
    if batched_ms >= scalar_ms {
        eprintln!("warning: batched path not faster for {workload}");
    }
    report
        .add(workload, "scalar_ms", scalar_ms, "ms")
        .add(workload, "batched_ms", batched_ms, "ms")
        .add(workload, "batched_parallel_ms", batched_parallel_ms, "ms");
    (scalar_ms, batched_ms)
}

/// The median of `batched - scalar` over [`PAIRS`] back-to-back pairs
/// of one-thread timings, alternating which side runs first, in
/// milliseconds. Load that drifts during the run hits both sides of a
/// pair alike, so this stays steady where two separate medians do not.
fn paired_delta_ms<T>(mut scalar: impl FnMut() -> T, mut batched: impl FnMut() -> T) -> f64 {
    let deltas = parallel::with_threads(1, || {
        (0..PAIRS)
            .map(|pair| {
                if pair % 2 == 0 {
                    let s = time_ms(&mut scalar);
                    time_ms(&mut batched) - s
                } else {
                    let b = time_ms(&mut batched);
                    b - time_ms(&mut scalar)
                }
            })
            .collect()
    });
    median(deltas)
}

/// Records the run configuration shared by the timed parts.
fn add_config(report: &mut Report, images: usize) {
    let threads = parallel::num_threads();
    report
        .add("config", "images", images as f64, "count")
        .add("config", "reps", REPS as f64, "count")
        .add("config", "parallel_threads", threads as f64, "count");
}

fn main() {
    let n_images = std::env::var("AXDNN_BENCH_IMAGES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(8);

    let mut rng = Rng::seed_from_u64(2);
    let images: Vec<Tensor> = (0..n_images)
        .map(|_| {
            let mut t = Tensor::zeros(&[1, 28, 28]);
            rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
            t
        })
        .collect();
    let labels: Vec<usize> = (0..n_images).map(|i| i % 10).collect();

    attacks_report(&images, &labels);
    train_report(&images, &labels);
    finetune_report();
    gemm_report();
    faults_report();
    universal_report();
    mtd_report();
}

/// Part 1: adversarial crafting, per image vs batched.
fn attacks_report(images: &[Tensor], labels: &[usize]) {
    let model = zoo::lenet5(&mut Rng::seed_from_u64(1));
    let base = Rng::seed_from_u64(3);
    let eps = 0.1f32;
    let attacks: Vec<Box<dyn Attack>> = vec![
        Box::new(Fgm::new(Norm::Linf)),
        Box::new(Bim::new(Norm::Linf)),
        Box::new(Pgd::new(Norm::Linf)),
        Box::new(Pgd::new(Norm::L2)),
    ];
    let mut report = Report::new("attacks");
    for attack in &attacks {
        let scalar = || {
            images
                .iter()
                .zip(labels)
                .enumerate()
                .map(|(i, (img, &lbl))| {
                    attack.craft(&model, img, lbl, eps, &mut base.derive(i as u64))
                })
                .collect::<Vec<Tensor>>()
        };
        let batched = || attack.craft_batch(&model, images, labels, eps, &base);
        let name = attack.name();
        let (_, batched_ms) = time_batching(&mut report, &name, scalar, batched);
        let delta_ms = paired_delta_ms(scalar, batched);
        let rate = images.len() as f64 * 1e3 / batched_ms;
        report
            .add(&name, "batched_minus_scalar_ms", delta_ms, "ms")
            .add(&name, "images_per_s", rate, "1/s");
    }
    add_config(&mut report, images.len());
    report
        .add("config", "pairs", PAIRS as f64, "count")
        .add("config", "eps", eps, "linf");
    report.write();
}

/// Part 2: one training gradient step, the seed per-image fold (plan
/// compiled per call) vs one batched pass.
fn train_report(images: &[Tensor], labels: &[usize]) {
    let models = [
        ("ffnn-1x28", zoo::ffnn(&mut Rng::seed_from_u64(7))),
        ("lenet5-1x28", zoo::lenet5(&mut Rng::seed_from_u64(8))),
    ];
    let mut report = Report::new("train");
    for (name, model) in &models {
        let scalar = || {
            let mut loss = 0.0f32;
            let mut grads = model.zero_grads();
            for (img, &lbl) in images.iter().zip(labels) {
                let (l, g) = model.loss_and_grads(img, lbl);
                loss += l;
                grads.accumulate(&g);
            }
            (loss, grads)
        };
        let batched = || model.loss_and_param_grads_batch(images, labels);
        let (scalar_ms, batched_ms) = time_batching(&mut report, name, scalar, batched);
        report.add(name, "speedup", scalar_ms / batched_ms, "x");
    }
    add_config(&mut report, images.len());
    report.write();
}

/// Part 3: approximation-aware fine-tuning of LeNet-5 through the `L40`
/// multiplier. Records clean quantized accuracy of the
/// post-training-quantization baseline vs after fine-tuning, and times
/// one STE gradient batch per image (fresh plan and scratch per image,
/// the shape a naive wrapper pays) vs batched (one compiled plan).
fn finetune_report() {
    let train = SynthMnist::generate(&MnistConfig {
        n: FT_TRAIN,
        seed: 41,
        ..Default::default()
    });
    let test = SynthMnist::generate(&MnistConfig {
        n: 200,
        seed: 42,
        ..Default::default()
    });
    let mut model = zoo::lenet5(&mut Rng::seed_from_u64(40));
    fit(
        &mut model,
        &train,
        &TrainConfig {
            epochs: 2,
            lr: 0.1,
            ..Default::default()
        },
    );
    let float_acc = model.accuracy(&test, test.len());

    let lut = Registry::standard()
        .build_lut("L40")
        .expect("registry kernel");
    let calib: Vec<Tensor> = (0..32).map(|i| train.image(i).clone()).collect();
    let cfg = FinetuneConfig {
        epochs: 2,
        batch_size: 32,
        ..Default::default()
    };
    let qm = QuantModel::from_float_with_level(&model, &calib, cfg.placement, cfg.level)
        .expect("quantize lenet5");
    let ptq_acc = qm.accuracy_with(&test, &lut, test.len());

    let images: Vec<Tensor> = (0..8).map(|i| train.image(i).clone()).collect();
    let labels: Vec<usize> = (0..8).map(|i| train.label(i)).collect();
    let in_dims = [1usize, 28, 28];
    let scalar = || {
        let mut loss = 0.0f32;
        let mut grads = model.zero_grads();
        for (img, &lbl) in images.iter().zip(&labels) {
            let plan = QTrainPlan::compile(&qm, &model, &in_dims);
            let mut s = plan.scratch();
            let (l, g) = plan.loss_and_param_grads(&mut s, img, lbl, &lut);
            loss += l;
            grads.accumulate(&g);
        }
        (loss, grads)
    };
    let batched = || {
        let plan = QTrainPlan::compile(&qm, &model, &in_dims);
        plan.loss_and_param_grads_batch(images.len(), |i| &images[i], |i| labels[i], &lut)
    };
    let mut report = Report::new("finetune");
    let (scalar_ms, batched_ms) =
        time_batching(&mut report, "finetune_grad_batch", scalar, batched);
    report.add(
        "finetune_grad_batch",
        "speedup",
        scalar_ms / batched_ms,
        "x",
    );

    let mut shadow = model.clone();
    let (hist, tuned) = finetune(&mut shadow, &train, &calib, &lut, &cfg).expect("finetune lenet5");
    let ft_acc = tuned.accuracy_with(&test, &lut, test.len());
    eprintln!("[finetune epoch losses: {:?}]", hist.losses);
    report
        .add("clean_accuracy", "float", float_acc, "fraction")
        .add("clean_accuracy", "ptq", ptq_acc, "fraction")
        .add("clean_accuracy", "finetuned", ft_acc, "fraction")
        .add("clean_accuracy", "delta", ft_acc - ptq_acc, "fraction");
    add_config(&mut report, images.len());
    report
        .add("config", "train_images", FT_TRAIN as f64, "count")
        .add("config", "epochs", cfg.epochs as f64, "count");
    report.write();
}

/// Part 4: the raw GEMM kernel tiers on LeNet-5's conv1 (6×576×25) and
/// conv2 (16×64×150) im2col products and the FFNN's first dense layer
/// (300×784), each against the scalar reference loop (`reference_ms`).
/// `tiled_ms` times the kernel the plan runs: for the convs
/// `conv_forward_cols` over the column-major (transposed) patch, which
/// dispatches to the AVX2 tile kernel on an AVX2 CPU; for the dense
/// layer one image through `dense_forward_rows`, the call a block of one
/// runs. Every kernel keeps every per-element accumulation chain, so its
/// output is asserted bit-identical (`to_bits`) to the reference before
/// timing; each timing repeats the kernel [`GEMM_ITERS`] times, and the
/// MAC throughput goes to stderr. Then the `ffnn-dense1-300x784-lut` rows:
/// the same layer's LUT-GEMM rate, one image per call against a 4-image
/// block, and the `lenet5-conv-lut` rows: the same for LeNet-5's conv
/// layers. Then the `lenet5-input-grad` rows: the best one-thread time
/// per image of LeNet-5's input gradient, the crafting hot path, and its
/// rate in in-range MACs per second, once as one `FPlan::input_gradient`
/// call per image (`us`, `macs_per_s`) and once as one 4-image block
/// (`block_us`, `block_macs_per_s`), the query a crafting block makes.
fn gemm_report() {
    use axnn::{exec, reference};

    let mut rng = Rng::seed_from_u64(60);
    let mut fill = |n: usize| {
        let mut v = vec![0.0f32; n];
        rng.fill_range_f32(&mut v, -1.0, 1.0);
        v
    };
    // (workload, out rows, patch rows, dot length); one patch row is a
    // dense matvec.
    let shapes = [
        ("lenet5-conv1-6x576x25", 6, 576, 25),
        ("lenet5-conv2-16x64x150", 16, 64, 150),
        ("ffnn-dense1-300x784", 300, 1, 784),
    ];
    let mut report = Report::new("gemm");
    for (name, oc, rows, cols) in shapes {
        let w = fill(oc * cols);
        let bias = fill(oc);
        let x = fill(rows * cols);
        // The plan's conv forward reads its patch column-major.
        let x_cols: Vec<f32> = (0..rows * cols)
            .map(|i| x[i % rows * cols + i / rows])
            .collect();
        let reference = |out: &mut [f32]| match rows {
            1 => reference::dense_forward(&w, &bias, &x, out),
            _ => reference::conv_forward(&w, &bias, &x, rows, cols, out),
        };
        let tiled = |out: &mut [f32]| match rows {
            1 => exec::dense_forward_rows(&w, &bias, &x, out),
            _ => exec::conv_forward_cols(&w, &bias, &x_cols, rows, cols, out),
        };
        let mut want = vec![0.0f32; oc * rows];
        let mut got = vec![0.0f32; oc * rows];
        reference(&mut want);
        tiled(&mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&want),
            bits(&got),
            "{name}: tiled kernel diverged from reference"
        );
        let reference_ms = median_ms(|| {
            for _ in 0..GEMM_ITERS {
                reference(&mut want);
            }
            std::hint::black_box(&mut want);
        });
        let tiled_ms = median_ms(|| {
            for _ in 0..GEMM_ITERS {
                tiled(&mut got);
            }
            std::hint::black_box(&mut got);
        });
        let gmacs = |ms: f64| (oc * rows * cols * GEMM_ITERS) as f64 / (ms / 1e3) / 1e9;
        eprintln!(
            "[gemm {name}: reference {:.2} GMAC/s, tiled {:.2} GMAC/s]",
            gmacs(reference_ms),
            gmacs(tiled_ms)
        );
        if tiled_ms >= reference_ms {
            eprintln!("warning: tiled GEMM not faster for {name}");
        }
        report
            .add(name, "reference_ms", reference_ms, "ms")
            .add(name, "tiled_ms", tiled_ms, "ms")
            .add(name, "speedup", reference_ms / tiled_ms, "x");
    }
    let dense1 = Sequential::new(
        "dense1",
        vec![
            Layer::Flatten,
            Layer::Dense(Dense::new(784, 300, &mut Rng::seed_from_u64(63))),
        ],
    );
    let lenet5 = zoo::lenet5(&mut Rng::seed_from_u64(64));
    let lut_workloads = [
        (
            "ffnn-dense1-300x784-lut",
            lut_rates(&dense1, Placement::All, 784 * 300, 65),
        ),
        (
            "lenet5-conv-lut",
            lut_rates(&lenet5, Placement::ConvOnly, conv_macs(&lenet5), 66),
        ),
    ];
    for (name, (one_image, block)) in lut_workloads {
        eprintln!(
            "[gemm {name}: one image {:.2} GMAC/s, 4-image block {:.2} GMAC/s]",
            one_image / 1e9,
            block / 1e9
        );
        report
            .add(name, "one_image_macs_per_s", one_image, "1/s")
            .add(name, "block_macs_per_s", block, "1/s");
    }
    let (us, block_us, macs) = input_grad_rates();
    eprintln!(
        "[gemm lenet5-input-grad: one image {us:.1} us, {:.2} GMAC/s; \
         4-image block {block_us:.1} us per image, {:.2} GMAC/s]",
        macs / us / 1e3,
        macs / block_us / 1e3
    );
    report
        .add("lenet5-input-grad", "us", us, "us")
        .add("lenet5-input-grad", "macs_per_s", macs / (us / 1e6), "1/s")
        .add("lenet5-input-grad", "block_us", block_us, "us")
        .add(
            "lenet5-input-grad",
            "block_macs_per_s",
            macs / (block_us / 1e6),
            "1/s",
        );
    report.add("config", "reps", REPS as f64, "count").add(
        "config",
        "iters",
        GEMM_ITERS as f64,
        "count",
    );
    report.write();
}

/// One-thread LUT-GEMM rates (MAC/s) of `model` under `placement` through
/// the `L40` LUT, on four random `[1, 28, 28]` images that also calibrate
/// it: four one-image calls, then one 4-image block, both through
/// `QPlan::predict_range` (which runs on the calling thread). `macs` is
/// the LUT MACs per image. The two predictions are asserted equal first,
/// and each side reports its fastest of [`LUT_REPS`] interleaved timings
/// ([`best_interleaved_ms`]).
fn lut_rates(model: &Sequential, placement: Placement, macs: usize, seed: u64) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(seed);
    let images: Vec<Tensor> = (0..4)
        .map(|_| {
            let mut x = Tensor::zeros(&[1, 28, 28]);
            rng.fill_range_f32(x.data_mut(), 0.0, 1.0);
            x
        })
        .collect();
    let qm = QuantModel::from_float(model, &images, placement).expect("quantize");
    let lut = Registry::standard()
        .build_lut("L40")
        .expect("registry kernel");
    let plan = qm.plan(&[1, 28, 28]);
    let mut s = plan.scratch_for(1);
    let image = |i: usize| &images[i];
    let one_image = |s: &mut QScratch| -> Vec<Vec<usize>> {
        (0..images.len())
            .flat_map(|i| plan.predict_range(s, i..i + 1, &image, &[&lut]))
            .collect()
    };
    let block = |s: &mut QScratch| plan.predict_range(s, 0..images.len(), &image, &[&lut]);
    assert_eq!(
        block(&mut s),
        one_image(&mut s),
        "{}: the block diverged from one-image calls",
        model.name()
    );
    let repeat = |run: &dyn Fn(&mut QScratch) -> Vec<Vec<usize>>, s: &mut QScratch| {
        for _ in 0..GEMM_ITERS {
            std::hint::black_box(run(s));
        }
    };
    let (one_image_ms, block_ms) =
        best_interleaved_ms(&mut s, |s| repeat(&one_image, s), |s| repeat(&block, s));
    let macs = (images.len() * macs * GEMM_ITERS) as f64;
    (macs / (one_image_ms / 1e3), macs / (block_ms / 1e3))
}

/// LUT MACs per `[1, 28, 28]` image of `model`'s conv layers, from the
/// layer shapes: what a `ConvOnly` placement runs through the multiplier.
fn conv_macs(model: &Sequential) -> usize {
    let (mut dims, mut macs) = ([1usize, 28, 28], 0);
    for layer in model.layers() {
        match layer {
            Layer::Conv2d(c) => {
                let &[out_c, in_c, k, _] = c.weight().dims() else {
                    unreachable!("conv weights are [out_c, in_c, k, k]")
                };
                let o = (dims[1] + 2 * c.pad() - k) / c.stride() + 1;
                macs += out_c * o * o * in_c * k * k;
                dims = [out_c, o, o];
            }
            Layer::AvgPool(p) => dims = [dims[0], dims[1] / p.k(), dims[2] / p.k()],
            _ => {}
        }
    }
    macs
}

/// One-thread wall times per image of LeNet-5's input gradient (µs,
/// each side the fastest of [`LUT_REPS`] interleaved runs of
/// [`GEMM_ITERS`] images, see [`best_interleaved_ms`]): one
/// `FPlan::input_gradient` call per image, and one 4-image block
/// through the plan's gradient source per block (`map_source_blocks`:
/// one handle, one `input_gradient_block` query, the path crafting
/// runs), asserted equal to the one-image calls first. Also returns the
/// in-range MACs one image computes: every conv/dense layer's
/// multiply-adds whose input tap lies inside the input, once forward and
/// once for the input gradient (563,280 on LeNet-5).
fn input_grad_rates() -> (f64, f64, f64) {
    use axnn::Layer;

    let model = zoo::lenet5(&mut Rng::seed_from_u64(61));
    let mut rng = Rng::seed_from_u64(62);
    let block: Vec<Tensor> = (0..axnn::exec::BLOCK)
        .map(|_| {
            let mut x = Tensor::zeros(&[1, 28, 28]);
            rng.fill_range_f32(x.data_mut(), 0.0, 1.0);
            x
        })
        .collect();
    let x = &block[0];
    let plan = model.plan(x.dims());
    let mut s = plan.scratch();
    let labels: Vec<usize> = (0..block.len()).collect();
    let want: Vec<Tensor> = (block.iter().zip(&labels))
        .map(|(x, &label)| plan.input_gradient(&mut s, x, label).1)
        .collect();
    // The path crafting runs, on one thread: one handle (one scratch)
    // per call, one block query.
    let run_block = || {
        map_source_blocks(&plan, block.len(), |handle, r| {
            let mut rngs = vec![Rng::seed_from_u64(0); r.len()];
            handle.input_gradient_block(&block[r.clone()], &labels[r], &mut rngs)
        })
    };
    let (ms, block_ms) = parallel::with_threads(1, || {
        assert_eq!(
            run_block(),
            want,
            "lenet5: the input gradient block diverged from one-image calls"
        );
        best_interleaved_ms(
            &mut s,
            |s| {
                for i in 0..GEMM_ITERS {
                    std::hint::black_box(plan.input_gradient(s, x, i % 10));
                }
            },
            |_| {
                for _ in 0..GEMM_ITERS / block.len() {
                    std::hint::black_box(run_block());
                }
            },
        )
    });
    let (inputs, _) = axnn::reference::forward_trace(&model, x);
    let macs: usize = (model.layers().iter().enumerate())
        .map(|(i, layer)| match layer {
            Layer::Conv2d(c) => {
                // Unpadded, so every tap of every output position is in
                // range: weights times output positions.
                assert_eq!(c.pad(), 0, "the in-range count assumes unpadded convs");
                c.weight().len() * inputs[i + 1].dims()[1..].iter().product::<usize>()
            }
            Layer::Dense(d) => d.weight().len(),
            _ => 0,
        })
        .sum();
    let per_image_us = |ms: f64| ms * 1e3 / GEMM_ITERS as f64;
    (per_image_us(ms), per_image_us(block_ms), (2 * macs) as f64)
}

/// The quickstart smoke victim of parts 5–7: a briefly trained FFNN and
/// its train/test sets.
fn smoke_ffnn() -> (Sequential, Dataset, Dataset) {
    let train = SynthMnist::generate(&MnistConfig {
        n: 400,
        seed: 51,
        ..Default::default()
    });
    let test = SynthMnist::generate(&MnistConfig {
        n: 200,
        seed: 52,
        ..Default::default()
    });
    let mut model = zoo::ffnn(&mut Rng::seed_from_u64(50));
    fit(
        &mut model,
        &train,
        &TrainConfig {
            epochs: 2,
            lr: 0.1,
            ..Default::default()
        },
    );
    (model, train, test)
}

/// The smoke FFNN quantized everywhere (it is dense-only, so
/// `Placement::All` is what routes it through the LUT multipliers).
fn quantize_all(model: &Sequential, train: &Dataset) -> QuantModel {
    let calib: Vec<Tensor> = (0..32).map(|i| train.image(i).clone()).collect();
    QuantModel::from_float(model, &calib, Placement::All).expect("quantize ffnn")
}

/// Part 5: the stuck-at fault campaign. The only timed quantity, the
/// faulted-LUT rebuild rate (faulted netlist → 64Ki table, the per-fault
/// cost every campaign cell pays, the best of [`REBUILD_REPS`] timings),
/// is compared against [`MIN_LUT_REBUILD`] here and recorded as a `0`/`1`
/// verdict.
fn faults_report() {
    let (model, train, test) = smoke_ffnn();
    let qm = quantize_all(&model, &train);
    let opts = FaultSweepOpts {
        n_eval: FAULT_EVAL,
        n_faults: FAULTS,
        ..Default::default()
    };
    let sweep = run_fault_sweep(&model, &qm, &test, &MULTS, &opts).expect("fault sweep");

    let nl = Registry::standard()
        .find("17KS")
        .expect("registered")
        .build_netlist();
    let fault_sets = sample_single_faults(&nl, FAULTS, opts.seed, 1);
    let rebuild_ms = (0..REBUILD_REPS)
        .map(|_| {
            time_ms(|| {
                for fs in &fault_sets {
                    std::hint::black_box(axmul::FaultedMul::from_netlist("17KS", &nl, fs.clone()));
                }
            })
        })
        .fold(f64::INFINITY, f64::min);
    let per_s = fault_sets.len() as f64 / (rebuild_ms / 1e3);
    let meets_floor = per_s >= MIN_LUT_REBUILD;
    eprintln!(
        "[fault campaign: {per_s:.1} faulted-LUT rebuilds/s, floor {MIN_LUT_REBUILD} — {}]",
        if meets_floor { "ok" } else { "BELOW FLOOR" }
    );

    let mut report = Report::new("faults");
    for row in &sweep.rows {
        report
            .add(&row.mult, "sites", row.sites as f64, "count")
            .add(&row.mult, "clean", row.clean, "fraction")
            .add(&row.mult, "adv", row.adv, "fraction")
            .add(
                &row.mult,
                "fault_clean_mean",
                row.mean_fault_clean(),
                "fraction",
            )
            .add(
                &row.mult,
                "fault_clean_worst",
                row.worst_fault_clean(),
                "fraction",
            )
            .add(
                &row.mult,
                "fault_adv_mean",
                row.mean_fault_adv(),
                "fraction",
            )
            .add(
                &row.mult,
                "fault_adv_worst",
                row.worst_fault_adv(),
                "fraction",
            );
    }
    report
        .add("campaign", "n_faults", sweep.n_faults as f64, "count")
        .add("campaign", "seed", sweep.seed as f64, "seed")
        .add("campaign", "n_eval", FAULT_EVAL as f64, "count")
        .add("campaign", "eps", sweep.eps, &sweep.attack)
        .add("lut_rebuild", "floor_per_s", MIN_LUT_REBUILD, "1/s")
        .add("lut_rebuild", "meets_floor", meets_floor, "bool");
    report.write();
}

/// Part 6: universal robustness. One universal delta is crafted on the
/// float surrogate and shared by every victim column; each multiplier is
/// then hardened with quantized universal adversarial training and
/// re-judged against the same delta. The verdict — hardening beats PTQ
/// under the delta, averaged over the multipliers — is a `0`/`1` row.
fn universal_report() {
    let (model, train, test) = smoke_ffnn();
    let opts = UniversalSweepOpts {
        craft_epochs: 5,
        n_eval: UNIVERSAL_EVAL,
        n_craft: UNIVERSAL_CRAFT,
        cfg: FinetuneConfig {
            epochs: 1,
            batch_size: 32,
            lr: 0.005,
            placement: Placement::All,
            eval_cap: UNIVERSAL_EVAL,
            ..Default::default()
        },
        ..Default::default()
    };
    let start = Instant::now();
    let (sweep, delta) =
        run_universal_sweep(&model, &train, &test, &MULTS, &opts).expect("universal sweep");
    eprintln!(
        "[universal sweep: {:.1}s total, delta linf {:.4}]",
        start.elapsed().as_secs_f64(),
        delta.linf_norm()
    );
    let mean = |f: fn(&axrobust::universal::UniversalRow) -> f32| {
        sweep.rows.iter().map(|r| f(r) as f64).sum::<f64>() / sweep.rows.len() as f64
    };
    let hardening_helps = mean(|r| r.universal_after) > mean(|r| r.universal_before);

    let mut report = Report::new("universal");
    for row in &sweep.rows {
        report
            .add(&row.mult, "clean_before", row.clean_before, "fraction")
            .add(
                &row.mult,
                "universal_before",
                row.universal_before,
                "fraction",
            )
            .add(&row.mult, "clean_after", row.clean_after, "fraction")
            .add(
                &row.mult,
                "universal_after",
                row.universal_after,
                "fraction",
            );
    }
    report
        .add("config", "eps", sweep.eps, &sweep.norm)
        .add("config", "craft_epochs", sweep.craft_epochs as f64, "count")
        .add("config", "n_eval", UNIVERSAL_EVAL as f64, "count")
        .add("config", "n_craft", UNIVERSAL_CRAFT as f64, "count")
        .add("verdict", "hardening_helps", hardening_helps, "bool");
    report.write();
}

/// Part 7: the moving-target defense. Static PGD-linf and adaptive EOT
/// sets are both crafted on the float surrogate and score every fixed
/// kernel and the per-query ensemble. The honesty verdict — the adaptive
/// attacker is no weaker than the static one against the ensemble — is
/// a `0`/`1` row.
fn mtd_report() {
    let (model, train, test) = smoke_ffnn();
    let qm = quantize_all(&model, &train);
    let opts = MtdSweepOpts {
        n_eval: MTD_EVAL,
        samples: 2,
        ..Default::default()
    };
    let start = Instant::now();
    let sweep = run_mtd_sweep(&model, &qm, &test, &MULTS, &opts).expect("mtd sweep");
    eprintln!(
        "[mtd sweep: {:.1}s total, {} fixed rows + ensemble]",
        start.elapsed().as_secs_f64(),
        sweep.rows.len()
    );
    let honest = sweep.ensemble.adaptive_adv <= sweep.ensemble.static_adv + 1e-6;

    let mut report = Report::new("mtd");
    for row in sweep.rows.iter().chain([&sweep.ensemble]) {
        report
            .add(&row.mult, "clean", row.clean, "fraction")
            .add(&row.mult, "static_adv", row.static_adv, "fraction")
            .add(&row.mult, "adaptive_adv", row.adaptive_adv, "fraction");
    }
    report
        .add("config", "eps", sweep.eps, "linf")
        .add("config", "samples", sweep.samples as f64, "count")
        .add("config", "seed", sweep.seed as f64, "seed")
        .add("config", "n_eval", MTD_EVAL as f64, "count")
        .add("verdict", "adaptive_no_better_than_static", honest, "bool");
    report.write();
}
