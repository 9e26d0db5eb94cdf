//! Per-layer metrics for the traced run.
//!
//! Two sources, in order of preference:
//!
//! 1. the traced passes and set-ups of the workload itself (spans the
//!    benchmark puts around its own calls into each layer), and
//! 2. direct probes: timed calls into each layer's public functions on
//!    the workload's own model and data, for the per-call figures no
//!    workload call exposes and for layers the workload does not reach.
//!
//! Every per-layer metric is therefore measured on every workload; the
//! README says which source feeds which metric.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use axdata::Dataset;
use axmul::{ExactMul, FaultedMul, Registry};
use axnn::Sequential;
use axquant::{finetune, FinetuneConfig, QTrainPlan, QuantModel};
use axrobust::eval::EvalOpts;
use axrobust::faults::sample_single_faults;
use axtensor::Tensor;
use axutil::parallel::{num_threads, par_map_chunks};

use crate::grid::{lut_columns, traced_grid};
use crate::serve::{Endpoint, SAMPLE_EVERY};
use crate::trace::{time_median, Tracer};
use crate::victim::{batches_per_epoch, lut_macs_per_image, stream, BATCH, PGD_STEPS};
use crate::{with_one_thread, Checks};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Images the probe grid crafts and scores per budget.
const PROBE_GRID_IMAGES: usize = 16;
/// Images the probe fine-tuning epoch trains on.
const PROBE_TUNE_IMAGES: usize = 128;
/// Request images the probe server draws from, and the length its
/// serving sequence is scaled to (each step still sends at least the
/// 1000 requests a p99 needs).
const PROBE_SERVE_IMAGES: usize = 256;
const PROBE_SERVE_S: f64 = 2.0;

/// The model, quantized victim and data a workload's probes run on.
pub struct ProbeInputs<'a> {
    pub model: &'a Sequential,
    pub qm: &'a QuantModel,
    pub data: &'a Dataset,
}

impl<'a> ProbeInputs<'a> {
    pub fn new(model: &'a Sequential, qm: &'a QuantModel, data: &'a Dataset) -> Self {
        ProbeInputs { model, qm, data }
    }
}

/// Inserts `name` unless the workload already measured it.
fn put(layers: &mut Layers, name: &'static str, value: impl FnOnce() -> f64) {
    if !layers.contains_key(name) {
        let v = value();
        layers.insert(name, v);
    }
}

/// Metrics of the traced passes: crafting, evaluation, faulted rebuilds,
/// `fit`/`finetune` calls and the `axrobust` self time left between them.
pub fn from_passes(tr: &Tracer, layers: &mut Layers) {
    let passes = tr.calls("pass") as f64;
    let craft = tr.total("axattack.craft");
    let eval = tr.total("axquant.eval");
    let compile = tr.total("axquant.plan_compile");
    let rebuild = tr.total("axmul.faulted_rebuild");
    if tr.calls("axattack.craft") > 0 {
        layers.insert("axattack.craft_s", craft / passes);
        layers.insert(
            "axattack.craft_images_per_s",
            tr.count("axattack.images") / craft,
        );
        layers.insert("axquant.eval_s", eval / passes);
        layers.insert(
            "axquant.lut_macs_per_s",
            tr.count("axquant.lut_macs") / eval,
        );
        layers.insert(
            "axrobust.self_s",
            (tr.total("pass") - craft - eval - compile - rebuild) / passes,
        );
    }
    if let Some(s) = tr.median("axmul.faulted_rebuild") {
        layers.insert("axmul.faulted_rebuild_ms", s * 1e3);
    }
    if let Some(s) = tr.median("axnn.fit") {
        layers.insert("axnn.fit_s", s);
    }
    if let Some(s) = tr.median("axquant.finetune") {
        layers.insert("axquant.finetune_s", s);
    }
}

/// Metrics of the traced set-ups: data generation, LUT builds, training.
pub fn from_setups(tr: &Tracer, layers: &mut Layers) {
    if let Some(s) = tr.median("axdata.generate") {
        put(layers, "axdata.generate_ms", || s * 1e3);
    }
    if let Some(s) = tr.median("axmul.lut_build") {
        put(layers, "axmul.lut_build_ms", || s * 1e3);
    }
    if let Some(s) = tr.median("axnn.fit") {
        put(layers, "axnn.fit_s", || s);
    }
}

/// Fills every per-layer metric still missing with a direct probe.
pub fn run(inp: &ProbeInputs<'_>, seed: u64, layers: &mut Layers, checks: &mut Checks) {
    let dims = inp.data.image(0).dims().to_vec();
    let images: Vec<Tensor> = (0..BATCH).map(|i| inp.data.image(i).clone()).collect();
    let labels: Vec<usize> = (0..BATCH).map(|i| inp.data.label(i)).collect();
    let lut = Registry::standard()
        .build_lut("L40")
        .expect("registered multiplier");
    let nproc = num_threads();

    // Computed work, from layer shapes and configuration.
    let macs = lut_macs_per_image(inp.model, &dims, inp.qm.placement());
    put(layers, "work.lut_macs_per_verdict", || macs);
    put(layers, "work.grad_steps_per_crafted_image", || {
        PGD_STEPS as f64
    });
    put(layers, "work.batches_per_epoch", || {
        batches_per_epoch(inp.data.len())
    });

    // axutil::parallel: one trivial fork/join over every thread.
    put(layers, "parallel.fork_join_us", || {
        1e6 * time_median(200, || {
            black_box(par_map_chunks(nproc, |r| r.collect::<Vec<usize>>()));
        })
    });

    // The share of the workload's time its fork/joins cost, at the
    // trivial fork/join's price.
    let share = layers["parallel.fork_joins_per_s"] * layers["parallel.fork_join_us"] * 1e-4;
    layers.insert("parallel.fork_join_share_pct", share);

    // axnn: per-image input gradient and a 32-image parameter gradient,
    // the latter also with one thread.
    put(layers, "axnn.input_grad_us", || {
        let plan = inp.model.plan(&dims);
        let mut s = plan.scratch();
        let mut i = 0;
        1e6 * time_median(64, || {
            black_box(plan.input_gradient(&mut s, &images[i % BATCH], labels[i % BATCH]));
            i += 1;
        })
    });
    let param_grad = || {
        time_median(9, || {
            black_box(inp.model.loss_and_param_grads_batch(&images, &labels));
        })
    };
    let param_grad_s = param_grad();
    layers.insert("axnn.param_grad_batch_ms", 1e3 * param_grad_s);
    layers.insert(
        "parallel.speedup.param_grad_batch",
        with_one_thread(param_grad) / param_grad_s,
    );

    // axquant: plan compile, single-image forward, STE batch, requant.
    put(layers, "axquant.plan_compile_ms", || {
        1e3 * time_median(50, || {
            black_box(inp.qm.plan(&dims));
        })
    });
    let plan = inp.qm.plan(&dims);
    let mut scratch = plan.scratch_for(1);
    let mut i = 0;
    put(layers, "axquant.forward_one_us.exact", || {
        1e6 * time_median(128, || {
            black_box(plan.forward_one(&mut scratch, &images[i % BATCH], &ExactMul));
            i += 1;
        })
    });
    put(layers, "axquant.forward_one_us.lut", || {
        1e6 * time_median(128, || {
            black_box(plan.forward_one(&mut scratch, &images[i % BATCH], &lut));
            i += 1;
        })
    });
    let ste_plan = QTrainPlan::compile(inp.qm, inp.model, &dims);
    let ste_grad = || {
        time_median(9, || {
            black_box(ste_plan.loss_and_param_grads_batch(
                BATCH,
                |k| &images[k],
                |k| labels[k],
                &lut,
            ));
        })
    };
    let ste_grad_s = ste_grad();
    layers.insert("axquant.ste_grad_batch_ms", 1e3 * ste_grad_s);
    layers.insert(
        "parallel.speedup.ste_grad_batch",
        with_one_thread(ste_grad) / ste_grad_s,
    );
    put(layers, "axquant.requant_ms", || {
        1e3 * time_median(5, || {
            black_box(
                QuantModel::from_float_with_level(
                    inp.model,
                    &images,
                    inp.qm.placement(),
                    inp.qm.level(),
                )
                .expect("the probe model quantizes"),
            );
        })
    });
    put(layers, "axquant.finetune_s", || {
        let data = inp.data.take(PROBE_TUNE_IMAGES);
        let cfg = FinetuneConfig {
            epochs: 1,
            batch_size: BATCH,
            placement: inp.qm.placement(),
            eval_cap: PROBE_TUNE_IMAGES,
            seed: stream(seed, 12),
            ..Default::default()
        };
        let mut shadow = inp.model.clone();
        let t0 = Instant::now();
        black_box(
            finetune(&mut shadow, &data, &images, &lut, &cfg).expect("the probe model quantizes"),
        );
        t0.elapsed().as_secs_f64()
    });

    // axmul: faulted LUT rebuilds from the L40 netlist.
    put(layers, "axmul.faulted_rebuild_ms", || {
        let nl = Registry::standard()
            .find("L40")
            .expect("registered multiplier")
            .build_netlist();
        let faults = sample_single_faults(&nl, 4, stream(seed, 13), 0);
        let mut k = 0;
        1e3 * time_median(3, || {
            black_box(FaultedMul::from_netlist("L40", &nl, faults[k].clone()));
            k += 1;
        })
    });

    // axattack / axquant eval / axrobust: a small traced PGD grid.
    if !layers.contains_key("axattack.craft_s") {
        let tr = &mut Tracer::new(true);
        let cols = lut_columns(&["1JFF", "L40"], tr);
        let opts = EvalOpts {
            eps_grid: vec![0.0, 0.1],
            n_examples: PROBE_GRID_IMAGES,
            seed: stream(seed, 14),
        };
        let t0 = Instant::now();
        black_box(traced_grid(inp.model, inp.qm, &cols, inp.data, &opts, tr));
        tr.record("pass", t0.elapsed().as_secs_f64());
        from_passes(tr, layers);
    }

    // axserve: the workload's victim behind a default server, open loop.
    if !layers.contains_key("axserve.batches") {
        let pool: Vec<Tensor> = (0..PROBE_SERVE_IMAGES.min(inp.data.len()))
            .map(|i| inp.data.image(i).clone())
            .collect();
        let mut endpoint = Endpoint::start(inp.qm, &lut, pool);
        endpoint.prepare(inp.qm, &lut);
        let seq = endpoint.sequence(
            stream(seed, 15),
            PROBE_SERVE_S,
            SAMPLE_EVERY,
            true,
            &mut |_| (),
        );
        seq.print("probe");
        seq.count(checks);
        seq.layers(layers);
    }
    let forward_us =
        (layers["axquant.forward_one_us.exact"] + layers["axquant.forward_one_us.lut"]) / 2.0;
    let low_p50_us = 1e3 * layers["loadgen.p50_ms.r500"];
    put(layers, "axserve.overhead_us", || low_p50_us - forward_us);
}
