//! The fine-tuning defense study (Sec. V): does approximation-aware
//! retraining close the gap the approximate multiplier opens?
//!
//! An [`algorithm1`](crate::algorithm1)-adjacent sweep: for every victim
//! multiplier, the model is quantized post-training (the baseline), then
//! the float shadow weights are fine-tuned *through* that multiplier's
//! approximate forward ([`axquant::qtrain::finetune`]) and requantized.
//! Clean and adversarial accuracy are reported before vs. after
//! retraining, on the same crafted adversarial set — per the paper's
//! threat model the adversary attacks the *accurate float model* and
//! never sees the victim's multiplier or its retrained weights.
//!
//! Every evaluation rides the batched engines: one crafted set per
//! attack/eps cell ([`crate::eval::craft_adversarial_set`]), one
//! multi-kernel [`axquant::QPlan`] pass over every PTQ column and one
//! single-kernel pass per hardened column. The column loop is shared
//! with the universal sweep ([`crate::universal`]), which hardens with a
//! universal ball instead of plain fine-tuning.

use axattack::suite::AttackId;
use axdata::Dataset;
use axmul::{MulColumns, MulLut};
use axnn::Sequential;
use axquant::qtrain::{finetune, FinetuneConfig};
use axquant::QuantModel;
use axtensor::Tensor;
use axutil::AxError;

use crate::eval::{craft_adversarial_set, multi_kernel_adversarial_accuracy};

/// Options for one fine-tuning defense sweep.
#[derive(Debug, Clone)]
pub struct RetrainOpts {
    /// The attack the adversarial column is crafted with.
    pub attack: AttackId,
    /// Perturbation budget of the adversarial column.
    pub eps: f32,
    /// Number of test examples per evaluation column.
    pub n_eval: usize,
    /// Number of calibration images taken from the training set.
    pub n_calib: usize,
    /// Attack randomness seed.
    pub seed: u64,
    /// Fine-tuning hyper-parameters (placement/level also select how the
    /// victims are quantized).
    pub cfg: FinetuneConfig,
}

impl Default for RetrainOpts {
    fn default() -> Self {
        RetrainOpts {
            attack: AttackId::PgdLinf,
            eps: 0.1,
            n_eval: 100,
            n_calib: 32,
            seed: 0xF17E,
            cfg: FinetuneConfig::default(),
        }
    }
}

/// One multiplier's before/after row.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainRow {
    /// Multiplier display name.
    pub mult: String,
    /// Clean quantized accuracy after post-training quantization.
    pub clean_before: f32,
    /// Adversarial accuracy after post-training quantization.
    pub adv_before: f32,
    /// Clean quantized accuracy after approximation-aware fine-tuning.
    pub clean_after: f32,
    /// Adversarial accuracy after approximation-aware fine-tuning.
    pub adv_after: f32,
}

/// The sweep result: one row per victim multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainReport {
    /// Attack used for the adversarial column.
    pub attack: String,
    /// Budget of the adversarial column.
    pub eps: f32,
    /// Per-multiplier rows, in input order.
    pub rows: Vec<RetrainRow>,
}

impl RetrainReport {
    /// Renders a Markdown table.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# Fine-tuning defense ({} @ eps {})\n\n\
             | multiplier | clean PTQ | clean fine-tuned | adv PTQ | adv fine-tuned |\n\
             |---|---|---|---|---|\n",
            self.attack, self.eps
        );
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% |\n",
                r.mult,
                100.0 * r.clean_before,
                100.0 * r.clean_after,
                100.0 * r.adv_before,
                100.0 * r.adv_after,
            ));
        }
        out
    }
}

/// Runs the fine-tuning defense sweep.
///
/// `model` is the trained accurate float model; `mults` is the named
/// kernel-column set (non-empty by [`MulColumns`] construction). The
/// adversarial set is crafted **once** on `model` and shared by every
/// victim column, before and after retraining (the adversary's
/// surrogate does not change when the victim retrains).
///
/// # Errors
///
/// Returns [`AxError::Config`] when quantization rejects the model
/// topology or the calibration/evaluation samples are empty.
pub fn finetuning_sweep(
    model: &Sequential,
    mults: &MulColumns,
    train: &Dataset,
    test: &Dataset,
    opts: &RetrainOpts,
) -> Result<RetrainReport, AxError> {
    let SweepSets { calib, clean } = sweep_sets(train, test, opts.n_eval, opts.n_calib)?;
    let advs = craft_adversarial_set(model, opts.attack, test, opts.eps, clean.len(), opts.seed);
    let columns = harden_columns(
        model,
        mults,
        &calib,
        &opts.cfg,
        &clean,
        &advs,
        |shadow, lut| Ok(finetune(shadow, train, &calib, lut, &opts.cfg)?.1),
    )?;
    Ok(RetrainReport {
        attack: opts.attack.name().to_string(),
        eps: opts.eps,
        rows: columns
            .into_iter()
            .map(|c| RetrainRow {
                mult: c.mult,
                clean_before: c.clean_before,
                adv_before: c.attacked_before,
                clean_after: c.clean_after,
                adv_after: c.attacked_after,
            })
            .collect(),
    })
}

/// The shared inputs of a hardening sweep.
pub(crate) struct SweepSets {
    /// Calibration images: the first `n_calib` training images.
    pub(crate) calib: Vec<Tensor>,
    /// Clean evaluation set: the first `n_eval` test examples.
    pub(crate) clean: Vec<(Tensor, usize)>,
}

/// Builds the [`SweepSets`] of a hardening sweep.
///
/// # Errors
///
/// Returns [`AxError::Config`] when either dataset is empty.
pub(crate) fn sweep_sets(
    train: &Dataset,
    test: &Dataset,
    n_eval: usize,
    n_calib: usize,
) -> Result<SweepSets, AxError> {
    if train.is_empty() || test.is_empty() {
        return Err(AxError::config("train/test sets must be non-empty"));
    }
    Ok(SweepSets {
        calib: (0..n_calib.min(train.len()))
            .map(|i| train.image(i).clone())
            .collect(),
        clean: (0..n_eval.min(test.len()))
            .map(|i| (test.image(i).clone(), test.label(i)))
            .collect(),
    })
}

/// One victim column of a hardening sweep: accuracy on the clean and the
/// attacked set, after post-training quantization and after hardening.
pub(crate) struct ColumnScores {
    pub(crate) mult: String,
    pub(crate) clean_before: f32,
    pub(crate) attacked_before: f32,
    pub(crate) clean_after: f32,
    pub(crate) attacked_after: f32,
}

/// The column loop both hardening sweeps share. The PTQ baseline scores
/// every multiplier column in one multi-kernel pass per set; then, per
/// column, `harden` retrains a fresh clone of `model` through that
/// column's multiplier and hands back the requantized victim, which is
/// scored on the same two sets.
///
/// # Errors
///
/// Returns [`AxError::Config`] when quantization rejects the model
/// topology, and passes on any error of `harden`.
pub(crate) fn harden_columns(
    model: &Sequential,
    mults: &MulColumns,
    calib: &[Tensor],
    cfg: &FinetuneConfig,
    clean_set: &[(Tensor, usize)],
    attacked_set: &[(Tensor, usize)],
    mut harden: impl FnMut(&mut Sequential, &MulLut) -> Result<QuantModel, AxError>,
) -> Result<Vec<ColumnScores>, AxError> {
    let kernels: Vec<&MulLut> = mults.payloads();
    let ptq = QuantModel::from_float_with_level(model, calib, cfg.placement, cfg.level)?;
    let clean_before = multi_kernel_adversarial_accuracy(&ptq, &kernels, clean_set);
    let attacked_before = multi_kernel_adversarial_accuracy(&ptq, &kernels, attacked_set);
    let mut columns = Vec::with_capacity(mults.len());
    for (col, (name, lut)) in mults.iter().enumerate() {
        let mut shadow = model.clone();
        let tuned = harden(&mut shadow, lut)?;
        columns.push(ColumnScores {
            mult: name.to_string(),
            clean_before: clean_before[col],
            attacked_before: attacked_before[col],
            clean_after: multi_kernel_adversarial_accuracy(&tuned, &[lut], clean_set)[0],
            attacked_after: multi_kernel_adversarial_accuracy(&tuned, &[lut], attacked_set)[0],
        });
    }
    Ok(columns)
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
            seed: 61,
            ..Default::default()
        });
        let test = SynthMnist::generate(&MnistConfig {
            n: 40,
            seed: 62,
            ..Default::default()
        });
        let mut model = zoo::ffnn(&mut Rng::seed_from_u64(63));
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

    #[test]
    fn sweep_reports_every_multiplier() {
        let (model, train, test) = trained_ffnn();
        let mults = MulColumns::from_registry(&Registry::standard(), &["1JFF", "L40"]);
        let opts = RetrainOpts {
            attack: AttackId::FgmLinf,
            n_eval: 30,
            cfg: FinetuneConfig {
                epochs: 1,
                batch_size: 32,
                lr: 0.005,
                // The FFNN has no conv layer; approximate everywhere so
                // the fine-tune actually sees the multiplier.
                placement: Placement::All,
                eval_cap: 60,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = finetuning_sweep(&model, &mults, &train, &test, &opts).unwrap();
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            for v in [
                row.clean_before,
                row.clean_after,
                row.adv_before,
                row.adv_after,
            ] {
                assert!((0.0..=1.0).contains(&v), "{row:?}");
            }
        }
        // The trained model must be decently accurate before and after
        // fine-tuning under the exact part.
        assert!(report.rows[0].clean_before > 0.5);
        assert!(report.rows[0].clean_after > 0.5);
        let text = report.to_text();
        assert!(text.contains("1JFF") && text.contains("L40"));
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
