//! Moving-target defense: randomized kernel ensembles vs. an adaptive
//! EOT attacker.
//!
//! The paper's defensive question — does approximation buy robustness? —
//! sharpens once the defense *moves*: instead of fixing one approximate
//! multiplier, the victim samples a kernel per query from a disclosed
//! distribution ([`axquant::ensemble::EnsembleModel`]). The honest way
//! to score that defense is against the strongest disclosed-distribution
//! adversary, so the sweep reports a 2×2 grid:
//!
//! * **victims** — each fixed kernel column, plus the uniform randomized
//!   ensemble over all of them;
//! * **attacks** — clean (`eps = 0`), the static PGD-linf set (crafted on
//!   the float surrogate, as everywhere in this repo), and the adaptive
//!   EOT set: [`Pgd`] on a [`Mixture`] that averages surrogate gradients
//!   over the ensemble's kernel distribution each step.
//!
//! Everything rides the existing batched engines and derived-stream RNG,
//! so the whole report is bit-identical for any `AXDNN_THREADS` setting,
//! and the degenerate cases collapse onto existing paths exactly: a
//! single-kernel ensemble scores like the fixed column, and the adaptive
//! set with one surrogate and one sample per step is bitwise the static
//! PGD set.

use axattack::gradient::Pgd;
use axattack::norms::Norm;
use axattack::suite::AttackId;
use axattack::{Attack, GradSource, Mixture};
use axdata::Dataset;
use axmul::MulColumns;
use axnn::Sequential;
use axquant::{EnsembleModel, KernelPolicy, QuantModel};
use axtensor::Tensor;
use axutil::rng::Rng;
use axutil::AxError;

use crate::eval::{craft_adversarial_set, multi_kernel_adversarial_accuracy};

/// Options for one moving-target robustness sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MtdSweepOpts {
    /// Perturbation budget of the adversarial sets (linf).
    pub eps: f32,
    /// Number of evaluation examples (capped at the dataset size).
    pub n_eval: usize,
    /// Gradient samples the adaptive attacker averages per step.
    pub samples: usize,
    /// Attack-crafting seed (static and adaptive sets share it).
    pub seed: u64,
    /// Seed of the ensemble's per-query kernel draw.
    pub ensemble_seed: u64,
}

impl Default for MtdSweepOpts {
    fn default() -> Self {
        MtdSweepOpts {
            eps: 0.1,
            n_eval: 100,
            samples: 4,
            seed: 0x37D,
            ensemble_seed: 0xD37,
        }
    }
}

/// One victim's row of the moving-target grid.
#[derive(Debug, Clone, PartialEq)]
pub struct MtdRow {
    /// Victim name: a multiplier, or `"ensemble"` for the randomized
    /// moving target.
    pub mult: String,
    /// Clean accuracy.
    pub clean: f32,
    /// Accuracy on the static PGD-linf set.
    pub static_adv: f32,
    /// Accuracy on the adaptive EOT set.
    pub adaptive_adv: f32,
}

/// The result of [`mtd_robustness_sweep`]: every fixed kernel column
/// plus the randomized ensemble, each scored clean / static / adaptive.
#[derive(Debug, Clone, PartialEq)]
pub struct MtdReport {
    /// Perturbation budget.
    pub eps: f32,
    /// Gradient samples per adaptive step.
    pub samples: usize,
    /// The crafting seed.
    pub seed: u64,
    /// One row per fixed kernel column, in column order (M1 first).
    pub rows: Vec<MtdRow>,
    /// The randomized-ensemble row.
    pub ensemble: MtdRow,
}

impl MtdReport {
    /// Renders as a Markdown table. Accuracy in percent; fully
    /// deterministic (no timings).
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "**Moving-target defense** — PGD-linf eps {} vs EOT ({} samples/step), seed {:#x}\n\n",
            self.eps, self.samples, self.seed
        );
        out.push_str("| victim | clean | static PGD | adaptive EOT |\n");
        out.push_str("|---|---|---|---|\n");
        for r in self.rows.iter().chain(std::iter::once(&self.ensemble)) {
            out.push_str(&format!(
                "| {} | {:.1} | {:.1} | {:.1} |\n",
                r.mult,
                100.0 * r.clean,
                100.0 * r.static_adv,
                100.0 * r.adaptive_adv,
            ));
        }
        out
    }
}

/// Crafts the adaptive EOT set: per step the attacker averages
/// `samples` float-surrogate gradients drawn from the ensemble's
/// uniform kernel distribution. Uses the same base-stream convention as
/// [`craft_adversarial_set`], so the single-kernel, single-sample case
/// is bitwise the static PGD-linf set.
fn craft_adaptive_set(
    source: &Sequential,
    columns: &MulColumns,
    data: &Dataset,
    eps: f32,
    n: usize,
    seed: u64,
    samples: usize,
) -> Vec<(Tensor, usize)> {
    let n = n.min(data.len());
    let images: Vec<Tensor> = (0..n).map(|i| data.image(i).clone()).collect();
    let labels: Vec<usize> = (0..n).map(|i| data.label(i)).collect();
    // Per the threat model the attacker holds one float surrogate; the
    // ensemble's kernels share it, so the EOT expectation runs over
    // `columns.len()` copies of the same plan, uniformly weighted like
    // the defender's policy.
    let plan = source.plan(data.image(0).dims());
    let mixture = Mixture::new(
        vec![&plan as &dyn GradSource; columns.len()],
        vec![1.0f32; columns.len()],
        samples,
    );
    let base = Rng::seed_from_u64(seed).derive((eps.to_bits() as u64) << 20);
    Pgd::new(Norm::Linf)
        .craft_batch_on(&mixture, &images, &labels, eps, &base)
        .into_iter()
        .zip(labels)
        .collect()
}

/// Scores one victim column set on the three crafted sets.
fn fixed_rows(
    victim: &QuantModel,
    columns: &MulColumns,
    clean_set: &[(Tensor, usize)],
    static_set: &[(Tensor, usize)],
    adaptive_set: &[(Tensor, usize)],
) -> Vec<MtdRow> {
    let kernels = columns.payloads();
    let clean = multi_kernel_adversarial_accuracy(victim, &kernels, clean_set);
    let stat = multi_kernel_adversarial_accuracy(victim, &kernels, static_set);
    let adapt = multi_kernel_adversarial_accuracy(victim, &kernels, adaptive_set);
    columns
        .iter()
        .enumerate()
        .map(|(i, (name, _))| MtdRow {
            mult: name.to_string(),
            clean: clean[i],
            static_adv: stat[i],
            adaptive_adv: adapt[i],
        })
        .collect()
}

/// Runs the moving-target robustness sweep: the full
/// `{fixed kernel, randomized ensemble} × {clean, static PGD, adaptive
/// EOT}` grid.
///
/// The static set is the ordinary [`craft_adversarial_set`] PGD-linf
/// set; the adaptive set averages `samples` surrogate gradients per step
/// over the ensemble's uniform kernel distribution. Both are crafted
/// once on the float surrogate and shared by every victim row, and the
/// ensemble row answers query `i` through
/// `KernelPolicy::uniform(columns.len(), ensemble_seed).sample(i)`.
///
/// # Errors
///
/// Returns [`AxError::Config`] when the dataset is empty or `n_eval`
/// is zero.
pub fn mtd_robustness_sweep(
    source: &Sequential,
    victim: &QuantModel,
    columns: &MulColumns,
    data: &Dataset,
    opts: &MtdSweepOpts,
) -> Result<MtdReport, AxError> {
    if data.is_empty() || opts.n_eval == 0 {
        return Err(AxError::config(
            "moving-target sweep needs a non-empty evaluation sample",
        ));
    }
    let clean_set =
        craft_adversarial_set(source, AttackId::PgdLinf, data, 0.0, opts.n_eval, opts.seed);
    let static_set = craft_adversarial_set(
        source,
        AttackId::PgdLinf,
        data,
        opts.eps,
        opts.n_eval,
        opts.seed,
    );
    let adaptive_set = craft_adaptive_set(
        source,
        columns,
        data,
        opts.eps,
        opts.n_eval,
        opts.seed,
        opts.samples,
    );

    let rows = fixed_rows(victim, columns, &clean_set, &static_set, &adaptive_set);

    let policy = KernelPolicy::uniform(columns.len(), opts.ensemble_seed);
    let ensemble = EnsembleModel::new(victim, columns, policy);
    let ensemble_row = MtdRow {
        mult: "ensemble".to_string(),
        clean: ensemble.accuracy_on(&clean_set),
        static_adv: ensemble.accuracy_on(&static_set),
        adaptive_adv: ensemble.accuracy_on(&adaptive_set),
    };

    Ok(MtdReport {
        eps: opts.eps,
        samples: opts.samples,
        seed: opts.seed,
        rows,
        ensemble: ensemble_row,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axdata::mnist::{MnistConfig, SynthMnist};
    use axmul::Registry;
    use axnn::train::{fit, TrainConfig};
    use axnn::zoo;
    use axquant::Placement;

    fn quick_setup() -> (Sequential, QuantModel, Dataset) {
        let train = SynthMnist::generate(&MnistConfig {
            n: 400,
            seed: 21,
            ..Default::default()
        });
        let test = SynthMnist::generate(&MnistConfig {
            n: 60,
            seed: 22,
            ..Default::default()
        });
        let mut model = zoo::ffnn(&mut Rng::seed_from_u64(3));
        fit(
            &mut model,
            &train,
            &TrainConfig {
                epochs: 2,
                lr: 0.1,
                ..Default::default()
            },
        );
        let calib: Vec<Tensor> = (0..16).map(|i| train.image(i).clone()).collect();
        let q = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        (model, q, test)
    }

    fn small_opts() -> MtdSweepOpts {
        MtdSweepOpts {
            n_eval: 24,
            samples: 2,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_well_formed() {
        let (model, q, test) = quick_setup();
        let cols = MulColumns::from_registry(&Registry::standard(), &["1JFF", "L40"]);
        let opts = small_opts();
        let r1 = mtd_robustness_sweep(&model, &q, &cols, &test, &opts).unwrap();
        let r2 = mtd_robustness_sweep(&model, &q, &cols, &test, &opts).unwrap();
        assert_eq!(r1, r2, "sweep must replay bit-identically");
        assert_eq!(r1.rows.len(), 2);
        assert_eq!(r1.rows[0].mult, "1JFF");
        assert_eq!(r1.ensemble.mult, "ensemble");
        for row in r1.rows.iter().chain(std::iter::once(&r1.ensemble)) {
            for v in [row.clean, row.static_adv, row.adaptive_adv] {
                assert!((0.0..=1.0).contains(&v), "{row:?}");
            }
            // The disclosed-distribution adversary can only be at least
            // as strong as the static one here: its surrogate set is the
            // same float model, so the EOT set degenerates onto PGD.
            assert!(row.adaptive_adv <= row.static_adv + 1e-6, "{row:?}");
        }
        // The trained baseline classifies well and the attack bites.
        assert!(r1.rows[0].clean > 0.5);
        assert!(r1.rows[0].static_adv < r1.rows[0].clean);
        let text = r1.to_text();
        assert!(text.contains("1JFF") && text.contains("ensemble"));
    }

    #[test]
    fn single_kernel_ensemble_row_equals_the_fixed_row() {
        let (model, q, test) = quick_setup();
        let cols = MulColumns::from_registry(&Registry::standard(), &["17KS"]);
        let report = mtd_robustness_sweep(&model, &q, &cols, &test, &small_opts()).unwrap();
        assert_eq!(report.rows.len(), 1);
        // One kernel: the moving target has nowhere to move, so the
        // ensemble row must equal the fixed row bit for bit.
        assert_eq!(report.ensemble.clean, report.rows[0].clean);
        assert_eq!(report.ensemble.static_adv, report.rows[0].static_adv);
        assert_eq!(report.ensemble.adaptive_adv, report.rows[0].adaptive_adv);
    }

    #[test]
    fn empty_eval_sample_is_rejected() {
        let (model, q, test) = quick_setup();
        let cols = MulColumns::from_registry(&Registry::standard(), &["1JFF"]);
        let opts = MtdSweepOpts {
            n_eval: 0,
            ..Default::default()
        };
        assert!(mtd_robustness_sweep(&model, &q, &cols, &test, &opts).is_err());
    }
}
