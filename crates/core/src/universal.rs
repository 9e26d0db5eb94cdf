//! Universal-perturbation robustness across the multiplier grid, before
//! vs. after universal adversarial training.
//!
//! A **single** shared delta is crafted on the accurate float model
//! ([`axattack::universal::UniversalAttack`], Shafahi-style epochs over a
//! crafting sample of the training set), then every quantized victim
//! multiplier is evaluated on the clean and the delta-perturbed test
//! sample — once as a post-training-quantization baseline and once after
//! hardening the victim with quantized universal adversarial training
//! ([`axquant::universal::universal_adversarial_fit`]). Per the paper's
//! threat model the adversary only ever sees the float surrogate: the
//! same crafted delta is reused for every victim column, before and
//! after hardening.
//!
//! The clean/universal PTQ baselines are one multi-kernel
//! [`axquant::QPlan`] pass each, the hardened columns one single-kernel
//! pass per multiplier. Every stage (crafter, trainer, evaluation) is
//! bit-identical for any `AXDNN_THREADS` setting.

use axattack::universal::UniversalAttack;
use axdata::Dataset;
use axmul::{MulColumns, MulLut};
use axnn::Sequential;
use axquant::qtrain::FinetuneConfig;
use axquant::universal::{universal_adversarial_fit, UniversalFinetuneConfig};
use axquant::QuantModel;
use axtensor::norms::{apply_delta, Norm};
use axtensor::Tensor;
use axutil::rng::Rng;
use axutil::AxError;

use crate::eval::multi_kernel_adversarial_accuracy;

/// Options for one universal-robustness sweep.
#[derive(Debug, Clone)]
pub struct UniversalSweepOpts {
    /// Ball norm of the universal perturbation.
    pub norm: Norm,
    /// Perturbation budget (crafting and hardening share it).
    pub eps: f32,
    /// Crafting epochs of the universal attack.
    pub craft_epochs: usize,
    /// Ascent step length of the hardening loop, as a multiple of `eps`.
    pub delta_step: f32,
    /// Number of test examples per evaluation column.
    pub n_eval: usize,
    /// Number of training examples the delta is crafted on.
    pub n_craft: usize,
    /// Number of calibration images taken from the training set.
    pub n_calib: usize,
    /// Crafting randomness seed (only consumed by a random-start attack;
    /// the default zero-start crafter is seed-independent).
    pub seed: u64,
    /// Hardening hyper-parameters (placement/level also select how the
    /// victims are quantized).
    pub cfg: FinetuneConfig,
}

impl Default for UniversalSweepOpts {
    fn default() -> Self {
        UniversalSweepOpts {
            norm: Norm::Linf,
            eps: 0.1,
            craft_epochs: 10,
            delta_step: 1.0,
            n_eval: 100,
            n_craft: 100,
            n_calib: 32,
            seed: 0x0471,
            cfg: FinetuneConfig::default(),
        }
    }
}

/// One multiplier's before/after row.
#[derive(Debug, Clone, PartialEq)]
pub struct UniversalRow {
    /// Multiplier display name.
    pub mult: String,
    /// Clean quantized accuracy after post-training quantization.
    pub clean_before: f32,
    /// Accuracy under the universal delta after post-training
    /// quantization.
    pub universal_before: f32,
    /// Clean quantized accuracy after universal adversarial training.
    pub clean_after: f32,
    /// Accuracy under the universal delta after universal adversarial
    /// training.
    pub universal_after: f32,
}

/// The sweep result: one row per victim multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct UniversalReport {
    /// Ball norm of the delta (`"linf"` / `"l2"`).
    pub norm: String,
    /// Perturbation budget.
    pub eps: f32,
    /// Crafting epochs of the universal attack.
    pub craft_epochs: usize,
    /// Per-multiplier rows, in input order.
    pub rows: Vec<UniversalRow>,
}

impl UniversalReport {
    /// Renders a Markdown table.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# Universal robustness ({} @ eps {}, {} craft epochs)\n\n\
             | multiplier | clean PTQ | clean hardened | universal PTQ | universal hardened |\n\
             |---|---|---|---|---|\n",
            self.norm, self.eps, self.craft_epochs
        );
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% |\n",
                r.mult,
                100.0 * r.clean_before,
                100.0 * r.clean_after,
                100.0 * r.universal_before,
                100.0 * r.universal_after,
            ));
        }
        out
    }
}

/// Runs the universal-robustness sweep.
///
/// `model` is the trained accurate float model; `mults` is the named
/// kernel-column set (non-empty by [`MulColumns`] construction). The
/// universal delta is crafted **once** on `model` over the first
/// `n_craft` training examples and shared by every victim column, before
/// and after hardening (the adversary's surrogate does not change when
/// the victim retrains). Returns the report plus the crafted delta.
///
/// # Errors
///
/// Returns [`AxError::Config`] when the datasets are empty or
/// quantization rejects the model topology.
pub fn universal_robustness_sweep(
    model: &Sequential,
    mults: &MulColumns,
    train: &Dataset,
    test: &Dataset,
    opts: &UniversalSweepOpts,
) -> Result<(UniversalReport, Tensor), AxError> {
    if train.is_empty() || test.is_empty() {
        return Err(AxError::config("train/test sets must be non-empty"));
    }
    let calib: Vec<Tensor> = (0..opts.n_calib.min(train.len()))
        .map(|i| train.image(i).clone())
        .collect();
    let clean: Vec<(Tensor, usize)> = (0..opts.n_eval.min(test.len()))
        .map(|i| (test.image(i).clone(), test.label(i)))
        .collect();

    // Craft the one shared delta on the float surrogate, over a training
    // sample (the universal perturbation must generalize to the unseen
    // test sample — that is the point of the attack).
    let n_craft = opts.n_craft.min(train.len());
    let craft_images: Vec<Tensor> = (0..n_craft).map(|i| train.image(i).clone()).collect();
    let craft_labels: Vec<usize> = (0..n_craft).map(|i| train.label(i)).collect();
    let mut rng = Rng::seed_from_u64(opts.seed).derive((opts.eps.to_bits() as u64) << 20);
    let delta = UniversalAttack::new(opts.norm)
        .with_epochs(opts.craft_epochs)
        .craft_universal(
            &model.plan(train.image(0).dims()),
            &craft_images,
            &craft_labels,
            opts.eps,
            &mut rng,
        );
    let universal_set: Vec<(Tensor, usize)> = clean
        .iter()
        .map(|(x, l)| (apply_delta(x, &delta), *l))
        .collect();

    let kernels: Vec<&MulLut> = mults.payloads();
    let ptq = QuantModel::from_float_with_level(model, &calib, opts.cfg.placement, opts.cfg.level)?;
    let clean_before = multi_kernel_adversarial_accuracy(&ptq, &kernels, &clean);
    let universal_before = multi_kernel_adversarial_accuracy(&ptq, &kernels, &universal_set);

    // Each column hardens a fresh clone of `model` through its own
    // multiplier. The hardened victim is judged against the attacker's
    // crafted delta; the trainer's own training delta is discarded.
    let ucfg = UniversalFinetuneConfig {
        base: opts.cfg.clone(),
        eps: opts.eps,
        norm: opts.norm,
        delta_step: opts.delta_step,
    };
    let mut rows = Vec::with_capacity(mults.len());
    for (col, (name, lut)) in mults.iter().enumerate() {
        let mut shadow = model.clone();
        let (_, tuned, _) = universal_adversarial_fit(&mut shadow, train, &calib, lut, &ucfg)?;
        rows.push(UniversalRow {
            mult: name.to_string(),
            clean_before: clean_before[col],
            universal_before: universal_before[col],
            clean_after: multi_kernel_adversarial_accuracy(&tuned, &[lut], &clean)[0],
            universal_after: multi_kernel_adversarial_accuracy(&tuned, &[lut], &universal_set)[0],
        });
    }
    Ok((
        UniversalReport {
            norm: opts.norm.to_string(),
            eps: opts.eps,
            craft_epochs: opts.craft_epochs,
            rows,
        },
        delta,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axdata::mnist::{MnistConfig, SynthMnist};
    use axmul::Registry;
    use axnn::train::{fit, TrainConfig};
    use axnn::zoo;
    use axquant::Placement;
    use axutil::rng::Rng;

    fn trained_ffnn() -> (Sequential, Dataset, Dataset) {
        let train = SynthMnist::generate(&MnistConfig {
            n: 200,
            seed: 71,
            ..Default::default()
        });
        let test = SynthMnist::generate(&MnistConfig {
            n: 40,
            seed: 72,
            ..Default::default()
        });
        let mut model = zoo::ffnn(&mut Rng::seed_from_u64(73));
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

    fn quick_opts() -> UniversalSweepOpts {
        UniversalSweepOpts {
            craft_epochs: 3,
            n_eval: 30,
            n_craft: 40,
            cfg: FinetuneConfig {
                epochs: 1,
                batch_size: 32,
                lr: 0.005,
                // The FFNN has no conv layer; approximate everywhere so
                // the hardening actually sees the multiplier.
                placement: Placement::All,
                eval_cap: 60,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn sweep_reports_every_multiplier_and_delta_in_ball() {
        let (model, train, test) = trained_ffnn();
        let mults = MulColumns::from_registry(&Registry::standard(), &["1JFF", "L40"]);
        let opts = quick_opts();
        let (report, delta) =
            universal_robustness_sweep(&model, &mults, &train, &test, &opts).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.norm, "linf");
        assert!(delta.linf_norm() <= opts.eps + 1e-6);
        for row in &report.rows {
            for v in [
                row.clean_before,
                row.clean_after,
                row.universal_before,
                row.universal_after,
            ] {
                assert!((0.0..=1.0).contains(&v), "{row:?}");
            }
        }
        assert!(report.rows[0].clean_before > 0.5);
        let text = report.to_text();
        assert!(text.contains("1JFF") && text.contains("L40"));
        assert!(text.contains("universal hardened"));
    }

    #[test]
    fn sweep_is_deterministic() {
        let (model, train, test) = trained_ffnn();
        let mults = MulColumns::from_registry(&Registry::standard(), &["1JFF"]);
        let opts = quick_opts();
        let (r1, d1) = universal_robustness_sweep(&model, &mults, &train, &test, &opts).unwrap();
        let (r2, d2) = universal_robustness_sweep(&model, &mults, &train, &test, &opts).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(d1, d2);
    }

    /// The old "empty victim multiplier" config error moved to
    /// construction: [`MulColumns`] cannot be built without an M1
    /// baseline column.
    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_multiplier_set_panics_at_construction() {
        let _ = MulColumns::from_pairs(Vec::new());
    }
}
