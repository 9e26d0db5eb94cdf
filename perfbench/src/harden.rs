//! `harden`: the quickstart FFNN trained with `fit`, then fine-tuned
//! through the L40 multiplier with approximation in every layer
//! (`qtrain::finetune`, `Placement::All`), in batches of 32.
//!
//! A pass makes 32 batched gradient calls (16 `axnn` parameter-gradient
//! batches in `fit`, 16 `QTrainPlan` STE batches in `finetune`) plus a
//! few evaluations and one requantization per fine-tuning epoch, each a
//! `par_map_chunks` fork/join. The fork/joins themselves are a small
//! share of the pass (`parallel.fork_join_share_pct`); what threads
//! change here is the batched gradient call, whose multi-thread path
//! keeps one full gradient buffer per image and sums them after the join
//! (`parallel.speedup.param_grad_batch`, `.ste_grad_batch`).

use axdata::Dataset;
use axmul::{MulLut, Registry};
use axnn::train::{fit, TrainConfig, TrainHistory};
use axnn::{zoo, Sequential};
use axquant::{finetune, FinetuneConfig, FinetuneHistory, Placement, QuantModel};
use axtensor::Tensor;
use axutil::rng::Rng;

use crate::batch::BatchJob;
use crate::probe::ProbeInputs;
use crate::trace::Tracer;
use crate::victim::{stream, synth_mnist, BATCH};
use crate::Checks;

const TRAIN: usize = 256;
const FIT_EPOCHS: usize = 2;
const TUNE_EPOCHS: usize = 2;
const CALIB: usize = 32;

pub struct Harden {
    train: Dataset,
    init: Sequential,
    lut: MulLut,
    calib: Vec<Tensor>,
    fit_cfg: TrainConfig,
    tune_cfg: FinetuneConfig,
    /// The untrained FFNN quantized everywhere: what the probes run on.
    init_q: Option<QuantModel>,
}

/// Everything a pass produces; passes must agree on all of it.
#[derive(Debug, PartialEq)]
pub struct Hardened {
    fit: TrainHistory,
    tune: FinetuneHistory,
    model: Sequential,
    qm: QuantModel,
}

impl BatchJob for Harden {
    type Out = Hardened;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let train = synth_mnist(TRAIN, stream(seed, 7), tr);
        let init = zoo::ffnn(&mut Rng::seed_from_u64(stream(seed, 8)));
        let lut = tr.span("axmul.lut_build", || {
            Registry::standard()
                .build_lut("L40")
                .expect("registered multiplier")
        });
        let calib = (0..CALIB).map(|i| train.image(i).clone()).collect();
        Harden {
            train,
            init,
            lut,
            calib,
            fit_cfg: TrainConfig {
                epochs: FIT_EPOCHS,
                batch_size: BATCH,
                lr: 0.1,
                seed: stream(seed, 9),
                ..Default::default()
            },
            tune_cfg: FinetuneConfig {
                epochs: TUNE_EPOCHS,
                batch_size: BATCH,
                lr: 0.005,
                seed: stream(seed, 10),
                placement: Placement::All,
                eval_cap: TRAIN,
                ..Default::default()
            },
            init_q: None,
        }
    }

    fn same_inputs(&self, other: &Self) -> bool {
        self.train == other.train
            && self.init == other.init
            && self.lut == other.lut
            && self.fit_cfg == other.fit_cfg
            && self.tune_cfg == other.tune_cfg
    }

    fn prepare(&mut self) {
        self.init_q = Some(
            QuantModel::from_float(&self.init, &self.calib, Placement::All)
                .expect("the FFNN quantizes"),
        );
    }

    fn items(&self) -> f64 {
        ((FIT_EPOCHS + TUNE_EPOCHS) * TRAIN) as f64
    }

    fn pass(&self, tr: &mut Tracer) -> Hardened {
        let mut model = self.init.clone();
        let fit_hist = tr.span("axnn.fit", || fit(&mut model, &self.train, &self.fit_cfg));
        let (tune, qm) = tr
            .span("axquant.finetune", || {
                finetune(
                    &mut model,
                    &self.train,
                    &self.calib,
                    &self.lut,
                    &self.tune_cfg,
                )
            })
            .expect("the FFNN quantizes");
        Hardened {
            fit: fit_hist,
            tune,
            model,
            qm,
        }
    }

    /// `finetune` scores its model with the batched `accuracy_with`; this
    /// re-scores the returned model one image at a time through
    /// `QPlan::forward_one`, with no `par_map_chunks` in between.
    fn verify(&self, out: &Hardened, checks: &mut Checks) {
        let reported = out.tune.accuracies.last().copied();
        let n = self.tune_cfg.eval_cap.min(self.train.len());
        let plan = out.qm.plan(self.train.image(0).dims());
        let mut scratch = plan.scratch_for(1);
        let correct = (0..n)
            .filter(|&i| {
                let logits = plan.forward_one(&mut scratch, self.train.image(i), &self.lut);
                logits.argmax() == self.train.label(i)
            })
            .count();
        let fresh = correct as f32 / n as f32;
        checks.expect(reported == Some(fresh), || {
            format!("harden: finetune reported {reported:?} but one-image evaluation gives {fresh}")
        });
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        let qm = self.init_q.as_ref().expect("prepare() ran");
        ProbeInputs::new(&self.init, qm, &self.train)
    }
}
