//! The robustness-evaluation engine (Fig 3, steps 3-6).
//!
//! For every perturbation budget, adversarial examples are crafted once on
//! the accurate float model (Algorithm 1 line 6 — the adversary never sees
//! the approximate inference engine) and every quantized victim — accurate
//! and approximate — is evaluated on the *same* examples. Robustness is
//! the fraction of examples that remain correctly classified (line 15).
//!
//! Evaluation runs on the compiled batch engine
//! ([`axquant::plan::QPlan`]): each crafted adversarial set is pushed
//! through *all* multiplier columns of a figure in one multi-kernel pass
//! ([`outcomes`]), sharing input quantization and first-layer im2col
//! work across the victims instead of re-running one scalar forward pass
//! per (image, multiplier) cell. The pass keeps which images each column
//! got right ([`Outcomes`]); every accuracy here is read from it, and
//! scoring an empty set panics.
//!
//! # Plan caching
//!
//! [`robustness_grid`] compiles the victim's [`axquant::plan::QPlan`]
//! **once** and reuses it for every epsilon row (every crafted set shares
//! the dataset's input shape), rather than re-deriving the quantized
//! layer panels per `(attack, eps)` cell. The standalone entry points
//! ([`outcomes`], [`adversarial_accuracy`],
//! [`multi_kernel_adversarial_accuracy`]) still compile per call for
//! callers that only evaluate one set; sweep drivers looping over
//! budgets should go through [`robustness_grid`] to get the cached plan.

use axattack::suite::AttackId;
use axdata::Dataset;
use axmul::{MulColumns, MulKernel, MulLut};
use axnn::Sequential;
use axquant::{QPlan, QuantModel};
use axtensor::stats::Outcomes;
use axtensor::Tensor;
use axutil::rng::Rng;

use crate::grid::RobustnessGrid;

/// Sampling options for one evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOpts {
    /// The perturbation budgets to sweep.
    pub eps_grid: Vec<f32>,
    /// Number of test examples (capped at the dataset size).
    pub n_examples: usize,
    /// Attack randomness seed.
    pub seed: u64,
}

impl EvalOpts {
    /// The paper's epsilon grid with the given sample count.
    pub fn paper(n_examples: usize, seed: u64) -> Self {
        EvalOpts {
            eps_grid: paper_eps_grid(),
            n_examples,
            seed,
        }
    }
}

/// The perturbation budgets used throughout the paper's figures.
pub fn paper_eps_grid() -> Vec<f32> {
    vec![0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0, 1.5, 2.0]
}

/// Crafts the adversarial test set for one `(attack, eps)` cell in one
/// batched [`axattack::Attack::craft_batch`] pass (one compiled plan
/// shared by every thread chunk). Deterministic
/// given `seed`, and independent of how the batch is chunked across
/// threads.
pub fn craft_adversarial_set(
    source: &Sequential,
    attack_id: AttackId,
    data: &Dataset,
    eps: f32,
    n: usize,
    seed: u64,
) -> Vec<(Tensor, usize)> {
    let attack = attack_id.build();
    let n = n.min(data.len());
    let images: Vec<Tensor> = (0..n).map(|i| data.image(i).clone()).collect();
    let labels: Vec<usize> = (0..n).map(|i| data.label(i)).collect();
    // One base stream per (seed, eps) cell; `craft_batch` derives the
    // per-image streams from it.
    let base = Rng::seed_from_u64(seed).derive((eps.to_bits() as u64) << 20);
    attack
        .craft_batch(source, &images, &labels, eps, &base)
        .into_iter()
        .zip(labels)
        .collect()
}

/// Accuracy of one victim/kernel pair on a crafted adversarial set.
/// Panics like [`outcomes`].
pub fn adversarial_accuracy(victim: &QuantModel, kernel: &MulLut, advs: &[(Tensor, usize)]) -> f32 {
    multi_kernel_adversarial_accuracy(victim, &[kernel], advs)[0]
}

/// Accuracy of one victim under *every* kernel column on a crafted
/// adversarial set, in a single batched multi-kernel pass: the
/// [`Outcomes::accuracies`] of [`outcomes`], one per kernel. Panics like
/// [`outcomes`].
pub fn multi_kernel_adversarial_accuracy<K: MulKernel + ?Sized>(
    victim: &QuantModel,
    kernels: &[&K],
    advs: &[(Tensor, usize)],
) -> Vec<f32> {
    outcomes(victim, kernels, advs).accuracies()
}

/// Which crafted examples one victim still classifies correctly under
/// each kernel column, in a single batched multi-kernel pass.
///
/// This is the engine behind [`robustness_grid`]: one compiled plan, and
/// per image the kernels share the quantized input and the first
/// approximated layer's im2col patches. Column `c` of the result is
/// `kernels[c]`, image `i` is `advs[i]`.
///
/// # Panics
///
/// Panics if `kernels` is empty, or if `advs` is empty (the one
/// empty-set rule of [`Outcomes`]).
pub fn outcomes<K: MulKernel + ?Sized>(
    victim: &QuantModel,
    kernels: &[&K],
    advs: &[(Tensor, usize)],
) -> Outcomes {
    Outcomes::assert_sample(advs.len());
    plan_outcomes(&victim.plan(advs[0].0.dims()), kernels, advs)
}

/// [`outcomes`] on an already-compiled plan; `advs` shares the plan's
/// input shape.
fn plan_outcomes<K: MulKernel + ?Sized>(
    plan: &QPlan<'_>,
    kernels: &[&K],
    advs: &[(Tensor, usize)],
) -> Outcomes {
    let preds = plan.predict_batch_indexed(advs.len(), |i| &advs[i].0, kernels);
    Outcomes::new(advs.len(), kernels.len(), |i, c| preds[i][c], |i| advs[i].1)
}

/// Runs the full grid for one attack: every epsilon × every multiplier.
///
/// `mults` is the named kernel-column set; [`MulColumns`] enforces the
/// paper convention that the first entry is the accurate part (M1) at
/// construction, so the grid never sees an empty or baseline-less
/// column list. Each epsilon's crafted set is evaluated against all
/// multiplier columns in one batched multi-kernel pass, and the
/// victim's plan is compiled once for the whole epsilon sweep (see the
/// [module docs](self)).
///
/// # Panics
///
/// Panics if the sample is empty (`data` has no examples or
/// `opts.n_examples == 0`): the one empty-set rule of [`Outcomes`].
pub fn robustness_grid(
    source: &Sequential,
    victim: &QuantModel,
    mults: &MulColumns,
    attack_id: AttackId,
    data: &Dataset,
    opts: &EvalOpts,
) -> RobustnessGrid {
    let kernels: Vec<&MulLut> = mults.payloads();
    Outcomes::assert_sample(opts.n_examples.min(data.len()));
    // One compiled plan for the whole sweep: crafting keeps the image shape.
    let plan = victim.plan(data.image(0).dims());
    let acc = (opts.eps_grid.iter())
        .map(|&eps| {
            let advs =
                craft_adversarial_set(source, attack_id, data, eps, opts.n_examples, opts.seed);
            plan_outcomes(&plan, &kernels, &advs).accuracies()
        })
        .collect();
    RobustnessGrid::new(
        attack_id.name(),
        data.name(),
        opts.eps_grid.clone(),
        mults.names(),
        acc,
    )
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

    /// A quickly trained FFNN plus quantized twin and a small test set.
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

    #[test]
    fn grid_shape_and_eps0_is_clean_accuracy() {
        let (model, q, test) = quick_setup();
        let mults = MulColumns::from_registry(&Registry::standard(), &["1JFF", "L40"]);
        let opts = EvalOpts {
            eps_grid: vec![0.0, 0.2],
            n_examples: 40,
            seed: 5,
        };
        let grid = robustness_grid(&model, &q, &mults, AttackId::PgdLinf, &test, &opts);
        assert_eq!(grid.eps().len(), 2);
        assert_eq!(grid.mults().len(), 2);
        // eps = 0: the "attack" is the identity, so the first row must be
        // the victims' clean accuracy.
        let clean_exact = q.accuracy_with(&test, mults.payload(0), 40);
        assert!((grid.accuracy(0, 0) - clean_exact).abs() < 1e-6);
        // A strong linf attack must strictly reduce accuracy of the
        // accurate column (the model is trained, clean acc is high).
        assert!(
            grid.accuracy(0, 0) > 0.5,
            "training failed? {}",
            grid.accuracy(0, 0)
        );
        assert!(grid.accuracy(1, 0) < grid.accuracy(0, 0));
    }

    #[test]
    fn crafting_is_deterministic() {
        let (model, _, test) = quick_setup();
        let a = craft_adversarial_set(&model, AttackId::PgdLinf, &test, 0.1, 10, 9);
        let b = craft_adversarial_set(&model, AttackId::PgdLinf, &test, 0.1, 10, 9);
        assert_eq!(a, b);
        let c = craft_adversarial_set(&model, AttackId::PgdLinf, &test, 0.1, 10, 10);
        assert_ne!(a, c, "different seeds should perturb differently");
    }

    #[test]
    fn paper_grid_matches_figures() {
        let g = paper_eps_grid();
        assert_eq!(g.len(), 10);
        assert_eq!(g[0], 0.0);
        assert_eq!(*g.last().unwrap(), 2.0);
    }

    #[test]
    #[should_panic(expected = "non-empty sample")]
    fn adversarial_accuracy_rejects_an_empty_set() {
        let (_, q, _) = quick_setup();
        let lut = Registry::standard().build_lut("1JFF").unwrap();
        let _ = adversarial_accuracy(&q, &lut, &[]);
    }

    #[test]
    #[should_panic(expected = "non-empty sample")]
    fn multi_kernel_adversarial_accuracy_rejects_an_empty_set() {
        let (_, q, _) = quick_setup();
        let lut = Registry::standard().build_lut("1JFF").unwrap();
        let _ = multi_kernel_adversarial_accuracy(&q, &[&lut, &lut], &[]);
    }

    #[test]
    fn multi_kernel_pass_matches_single_kernel_columns() {
        let (model, q, test) = quick_setup();
        let reg = Registry::standard();
        let luts: Vec<MulLut> = ["1JFF", "L40", "17KS"]
            .iter()
            .map(|n| reg.build_lut(n).unwrap())
            .collect();
        let advs = craft_adversarial_set(&model, AttackId::FgmLinf, &test, 0.1, 20, 4);
        let kernels: Vec<&MulLut> = luts.iter().collect();
        let multi = outcomes(&q, &kernels, &advs);
        assert_eq!(
            multi.accuracies(),
            multi_kernel_adversarial_accuracy(&q, &kernels, &advs)
        );
        for (k, lut) in luts.iter().enumerate() {
            // Image by image, not only the count: a pass that swapped two
            // images' predictions would keep every accuracy.
            assert_eq!(
                multi.column(k),
                outcomes(&q, &[lut], &advs),
                "column {k} diverges from its scalar evaluation"
            );
            assert_eq!(multi.accuracy(k), adversarial_accuracy(&q, lut, &advs));
        }
    }
}
