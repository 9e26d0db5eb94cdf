//! Per-figure experiment drivers.
//!
//! Each `run_figN` / [`run_table2`] fixes one figure's or table's models,
//! multiplier columns and attacks, in the paper's panel order, and runs
//! them through [`robustness_grid`], [`quantization_study`] or
//! [`transferability`]. The `bench` crate's `repro <name>` binary calls
//! these and prints the results (see the README).

use axattack::suite::AttackId;
use axdata::Dataset;
use axmul::{MulColumns, NetColumns, Registry};
use axnn::Sequential;
use axquant::{Placement, QuantModel};
use axtensor::Tensor;
use axutil::AxError;

use crate::eval::{paper_eps_grid, robustness_grid, EvalOpts};
use crate::faults::{fault_robustness_sweep, FaultReport, FaultSweepOpts};
use crate::grid::RobustnessGrid;
use crate::mtd::{mtd_robustness_sweep, MtdReport, MtdSweepOpts};
use crate::quantstudy::{quantization_study, QuantStudy};
use crate::transfer::{transferability, TransferSource, TransferTable, TransferVictim};
use crate::universal::{universal_robustness_sweep, UniversalReport, UniversalSweepOpts};

/// Sampling options shared by the figure drivers.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureOpts {
    /// Number of evaluated test examples per cell.
    pub n_eval: usize,
    /// Attack randomness seed.
    pub seed: u64,
    /// Perturbation budgets (defaults to the paper's grid).
    pub eps_grid: Vec<f32>,
}

impl FigureOpts {
    /// Quick defaults: the paper's epsilon grid with a small sample.
    pub fn quick() -> Self {
        FigureOpts {
            n_eval: 60,
            seed: 0x0DD5,
            eps_grid: paper_eps_grid(),
        }
    }

    /// Same grid with a custom sample count.
    pub fn with_n(n_eval: usize) -> Self {
        FigureOpts {
            n_eval,
            ..Self::quick()
        }
    }

    fn eval_opts(&self) -> EvalOpts {
        EvalOpts {
            eps_grid: self.eps_grid.clone(),
            n_examples: self.n_eval,
            seed: self.seed,
        }
    }
}

/// Builds a quantized victim from a float model, calibrating on the first
/// 32 images of `calib_data`.
pub fn quantize_victim(
    model: &Sequential,
    calib_data: &Dataset,
    placement: Placement,
) -> Result<QuantModel, AxError> {
    let calib: Vec<Tensor> = (0..calib_data.len().min(32))
        .map(|i| calib_data.image(i).clone())
        .collect();
    QuantModel::from_float(model, &calib, placement)
}

/// The M1..M9 multiplier columns of Figs 4-6 (LeNet-5 / MNIST).
pub fn mnist_mult_columns(reg: &Registry) -> MulColumns {
    MulColumns::from_registry(reg, &Registry::lenet_set())
}

/// The M1..M8 multiplier columns of Fig 7 (AlexNet / CIFAR-10).
pub fn cifar_mult_columns(reg: &Registry) -> MulColumns {
    MulColumns::from_registry(reg, &Registry::alexnet_set())
}

/// One [`robustness_grid`] per attack, in the given panel order.
fn heatmaps(
    source: &Sequential,
    victim: &QuantModel,
    mults: &MulColumns,
    attacks: &[AttackId],
    data: &Dataset,
    opts: &FigureOpts,
) -> Vec<RobustnessGrid> {
    attacks
        .iter()
        .map(|&a| robustness_grid(source, victim, mults, a, data, &opts.eval_opts()))
        .collect()
}

/// Fig 4: LeNet-5/MNIST under (a) BIM-linf (b) BIM-l2 (c) FGM-linf
/// (d) FGM-l2.
pub fn run_fig4(
    lenet: &Sequential,
    victim: &QuantModel,
    data: &Dataset,
    opts: &FigureOpts,
) -> Vec<RobustnessGrid> {
    heatmaps(
        lenet,
        victim,
        &mnist_mult_columns(&Registry::standard()),
        &[
            AttackId::BimLinf,
            AttackId::BimL2,
            AttackId::FgmLinf,
            AttackId::FgmL2,
        ],
        data,
        opts,
    )
}

/// Fig 5: LeNet-5/MNIST under (a) PGD-l2 (b) PGD-linf (c) RAU-l2
/// (d) RAU-linf.
pub fn run_fig5(
    lenet: &Sequential,
    victim: &QuantModel,
    data: &Dataset,
    opts: &FigureOpts,
) -> Vec<RobustnessGrid> {
    heatmaps(
        lenet,
        victim,
        &mnist_mult_columns(&Registry::standard()),
        &[
            AttackId::PgdL2,
            AttackId::PgdLinf,
            AttackId::RauL2,
            AttackId::RauLinf,
        ],
        data,
        opts,
    )
}

/// Fig 6: LeNet-5/MNIST under (a) CR-l2 (b) RAG-l2.
pub fn run_fig6(
    lenet: &Sequential,
    victim: &QuantModel,
    data: &Dataset,
    opts: &FigureOpts,
) -> Vec<RobustnessGrid> {
    heatmaps(
        lenet,
        victim,
        &mnist_mult_columns(&Registry::standard()),
        &[AttackId::CrL2, AttackId::RagL2],
        data,
        opts,
    )
}

/// Fig 7: AlexNet/CIFAR-10 under (a) CR-l2 (b) RAG-l2 (c) RAU-l2
/// (d) RAU-linf.
pub fn run_fig7(
    alexnet: &Sequential,
    victim: &QuantModel,
    data: &Dataset,
    opts: &FigureOpts,
) -> Vec<RobustnessGrid> {
    heatmaps(
        alexnet,
        victim,
        &cifar_mult_columns(&Registry::standard()),
        &[
            AttackId::CrL2,
            AttackId::RagL2,
            AttackId::RauL2,
            AttackId::RauLinf,
        ],
        data,
        opts,
    )
}

/// Robustness under stuck-at faults: a sampled single-fault campaign per
/// named registry multiplier, evaluated against the fault-free baseline
/// (no paper figure — the extension motivated in the ROADMAP).
///
/// # Errors
///
/// Propagates configuration errors (empty name list, empty campaign)
/// from [`fault_robustness_sweep`]; panics if a name is not registered.
pub fn run_fault_sweep(
    source: &Sequential,
    victim: &QuantModel,
    data: &Dataset,
    names: &[&str],
    opts: &FaultSweepOpts,
) -> Result<FaultReport, AxError> {
    let mults = NetColumns::from_registry(&Registry::standard(), names);
    fault_robustness_sweep(source, victim, &mults, data, opts)
}

/// Universal-perturbation robustness per named registry multiplier:
/// clean vs. universal-delta accuracy, before and after universal
/// adversarial training (no paper figure — the extension motivated in
/// the ROADMAP). Returns the report plus the crafted delta.
///
/// # Errors
///
/// Propagates configuration errors (empty name list, empty datasets)
/// from [`universal_robustness_sweep`]; panics if a name is not
/// registered.
pub fn run_universal_sweep(
    model: &Sequential,
    train: &Dataset,
    test: &Dataset,
    names: &[&str],
    opts: &UniversalSweepOpts,
) -> Result<(UniversalReport, Tensor), AxError> {
    let mults = MulColumns::from_registry(&Registry::standard(), names);
    universal_robustness_sweep(model, &mults, train, test, opts)
}

/// Moving-target defense per named registry multiplier: the full
/// `{fixed kernel, randomized ensemble} × {clean, static PGD, adaptive
/// EOT}` grid of [`mtd_robustness_sweep`] (no paper figure — the
/// extension motivated in the ROADMAP).
///
/// # Errors
///
/// Propagates configuration errors (empty evaluation sample) from
/// [`mtd_robustness_sweep`]; panics if a name is not registered or the
/// name list is empty.
pub fn run_mtd_sweep(
    source: &Sequential,
    victim: &QuantModel,
    data: &Dataset,
    names: &[&str],
    opts: &MtdSweepOpts,
) -> Result<MtdReport, AxError> {
    let columns = MulColumns::from_registry(&Registry::standard(), names);
    mtd_robustness_sweep(source, victim, &columns, data, opts)
}

/// Fig 8: quantized vs non-quantized accurate LeNet-5, all ten attacks.
pub fn run_fig8(
    lenet: &Sequential,
    victim: &QuantModel,
    data: &Dataset,
    opts: &FigureOpts,
) -> QuantStudy {
    quantization_study(
        lenet,
        victim,
        &AttackId::ALL,
        data,
        &opts.eps_grid,
        opts.n_eval,
        opts.seed,
    )
}

/// Fig 1: the motivational case study. Four panels, each comparing the
/// accurate and one approximate part: FFNN (signed pair 1JFF/L1G, paper's
/// `AccSign`/`AxL1G`) and LeNet-5 (unsigned pair 1JFF/17KS,
/// `AccUnSign`/`Ax17KS`) under PGD-linf and CR-l2. Both victims
/// calibrate on `calib` (the training set, like the Figs 4–8 victims)
/// and are scored on `data`.
///
/// # Errors
///
/// Propagates quantization failures.
pub fn run_fig1(
    ffnn: &Sequential,
    lenet: &Sequential,
    calib: &Dataset,
    data: &Dataset,
    opts: &FigureOpts,
) -> Result<Vec<RobustnessGrid>, AxError> {
    let reg = Registry::standard();
    // The FFNN has no conv layers: approximate its dense layers (the
    // signed multiplier study of Fig 1 applies approximation to the
    // whole inference engine).
    let q_ffnn = quantize_victim(ffnn, calib, Placement::All)?;
    let q_lenet = quantize_victim(lenet, calib, Placement::ConvOnly)?;
    let (acc_s, ax_s) = Registry::fig1_signed_pair();
    let ffnn_mults = MulColumns::from_pairs(vec![
        (
            format!("AccSign({acc_s})"),
            reg.build_lut(acc_s).expect("registered"),
        ),
        (
            format!("Ax{ax_s}"),
            reg.build_lut(ax_s).expect("registered"),
        ),
    ]);
    let (acc_u, ax_u) = Registry::fig1_unsigned_pair();
    let lenet_mults = MulColumns::from_pairs(vec![
        (
            format!("AccUnSign({acc_u})"),
            reg.build_lut(acc_u).expect("registered"),
        ),
        (
            format!("Ax{ax_u}"),
            reg.build_lut(ax_u).expect("registered"),
        ),
    ]);
    let eval = opts.eval_opts();
    Ok(vec![
        robustness_grid(ffnn, &q_ffnn, &ffnn_mults, AttackId::PgdLinf, data, &eval),
        robustness_grid(
            lenet,
            &q_lenet,
            &lenet_mults,
            AttackId::PgdLinf,
            data,
            &eval,
        ),
        robustness_grid(ffnn, &q_ffnn, &ffnn_mults, AttackId::CrL2, data, &eval),
        robustness_grid(lenet, &q_lenet, &lenet_mults, AttackId::CrL2, data, &eval),
    ])
}

/// The models entering the Table II transferability study. All four take
/// 32x32 inputs so adversarial examples transfer across architectures
/// unchanged (MNIST images are zero-padded to 32x32).
#[derive(Debug)]
pub struct Table2Models<'a> {
    /// LeNet-5 (1x32x32) trained on padded MNIST.
    pub l5_mnist: &'a Sequential,
    /// AlexNet-mini (1-channel) trained on padded MNIST.
    pub alx_mnist: &'a Sequential,
    /// LeNet-5 (3x32x32) trained on CIFAR.
    pub l5_cifar: &'a Sequential,
    /// AlexNet-mini (3-channel) trained on CIFAR.
    pub alx_cifar: &'a Sequential,
    /// Padded MNIST training set: the MNIST victims' calibration set.
    pub mnist32_train: &'a Dataset,
    /// Padded MNIST test set.
    pub mnist32_test: &'a Dataset,
    /// CIFAR training set: the CIFAR victims' calibration set.
    pub cifar_train: &'a Dataset,
    /// CIFAR test set.
    pub cifar_test: &'a Dataset,
}

/// Table II: transferability with BIM-linf at the paper's eps = 0.05.
/// Returns `(mnist_table, cifar_table)`. Victim AxDNNs use 17KS (MNIST)
/// and QJD (CIFAR) — representative mid-range parts, since the paper
/// does not name the victim multiplier.
///
/// # Errors
///
/// Propagates quantization failures.
pub fn run_table2(
    models: &Table2Models<'_>,
    opts: &FigureOpts,
) -> Result<(TransferTable, TransferTable), AxError> {
    let columns = MulColumns::from_registry(&Registry::standard(), &["17KS", "QJD"]);
    transfer_tables(models, &columns, AttackId::BimLinf, 0.05, opts)
}

/// The Table II engine: column 0 of `columns` is the MNIST victims'
/// LUT, column 1 the CIFAR one.
fn transfer_tables(
    models: &Table2Models<'_>,
    columns: &MulColumns,
    attack: AttackId,
    eps: f32,
    opts: &FigureOpts,
) -> Result<(TransferTable, TransferTable), AxError> {
    let mnist_lut = columns.payload(0);
    let cifar_lut = columns.payload(1);

    let q_l5_m = quantize_victim(models.l5_mnist, models.mnist32_train, Placement::ConvOnly)?;
    let q_alx_m = quantize_victim(models.alx_mnist, models.mnist32_train, Placement::ConvOnly)?;
    let q_l5_c = quantize_victim(models.l5_cifar, models.cifar_train, Placement::ConvOnly)?;
    let q_alx_c = quantize_victim(models.alx_cifar, models.cifar_train, Placement::ConvOnly)?;

    let mnist = transferability(
        &[
            TransferSource {
                name: "AccL5".into(),
                model: models.l5_mnist,
            },
            TransferSource {
                name: "AxAlx".into(),
                model: models.alx_mnist,
            },
        ],
        &[
            TransferVictim {
                name: "AxL5".into(),
                qmodel: &q_l5_m,
                mult: mnist_lut,
                data: models.mnist32_test,
            },
            TransferVictim {
                name: "AxAlx".into(),
                qmodel: &q_alx_m,
                mult: mnist_lut,
                data: models.mnist32_test,
            },
        ],
        attack,
        eps,
        opts.n_eval,
        opts.seed,
    );
    let cifar = transferability(
        &[
            TransferSource {
                name: "AccL5".into(),
                model: models.l5_cifar,
            },
            TransferSource {
                name: "AxAlx".into(),
                model: models.alx_cifar,
            },
        ],
        &[
            TransferVictim {
                name: "AxL5".into(),
                qmodel: &q_l5_c,
                mult: cifar_lut,
                data: models.cifar_test,
            },
            TransferVictim {
                name: "AxAlx".into(),
                qmodel: &q_alx_c,
                mult: cifar_lut,
                data: models.cifar_test,
            },
        ],
        attack,
        eps,
        opts.n_eval,
        opts.seed,
    );
    Ok((mnist, cifar))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axdata::mnist::{MnistConfig, SynthMnist};
    use axnn::train::{fit, TrainConfig};
    use axnn::zoo;
    use axutil::rng::Rng;

    fn quick_ffnn(train: &Dataset) -> Sequential {
        let mut model = zoo::ffnn(&mut Rng::seed_from_u64(4));
        fit(
            &mut model,
            train,
            &TrainConfig {
                epochs: 2,
                lr: 0.1,
                ..Default::default()
            },
        );
        model
    }

    #[test]
    fn mult_columns_have_paper_arity() {
        let reg = Registry::standard();
        assert_eq!(mnist_mult_columns(&reg).len(), 9);
        assert_eq!(cifar_mult_columns(&reg).len(), 8);
        assert_eq!(mnist_mult_columns(&reg).name(0), "1JFF");
    }

    #[test]
    fn figure_drivers_run_the_paper_panels_in_order() {
        let train = SynthMnist::generate(&MnistConfig {
            n: 200,
            seed: 67,
            ..Default::default()
        });
        let ffnn = quick_ffnn(&train);
        let q = quantize_victim(&ffnn, &train, Placement::All).unwrap();
        let opts = FigureOpts {
            n_eval: 12,
            seed: 8,
            eps_grid: vec![0.0, 0.1],
        };
        let cols = mnist_mult_columns(&Registry::standard());
        type Driver = fn(&Sequential, &QuantModel, &Dataset, &FigureOpts) -> Vec<RobustnessGrid>;
        let figures: [(Driver, &[AttackId]); 3] = [
            (
                run_fig4,
                &[
                    AttackId::BimLinf,
                    AttackId::BimL2,
                    AttackId::FgmLinf,
                    AttackId::FgmL2,
                ],
            ),
            (
                run_fig5,
                &[
                    AttackId::PgdL2,
                    AttackId::PgdLinf,
                    AttackId::RauL2,
                    AttackId::RauLinf,
                ],
            ),
            (run_fig6, &[AttackId::CrL2, AttackId::RagL2]),
        ];
        for (driver, panels) in figures {
            let grids = driver(&ffnn, &q, &train, &opts);
            assert_eq!(grids.len(), panels.len());
            for (grid, &attack) in grids.iter().zip(panels) {
                assert_eq!(grid.attack(), attack.name());
                let direct = robustness_grid(&ffnn, &q, &cols, attack, &train, &opts.eval_opts());
                assert_eq!(*grid, direct, "{} panel", attack.name());
            }
        }

        let study = run_fig8(&ffnn, &q, &train, &opts);
        let attacks: Vec<&str> = study.pairs.iter().map(|p| p.attack.as_str()).collect();
        let all: Vec<&str> = AttackId::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(attacks, all);
        assert_eq!(study.eps, opts.eps_grid);
    }

    /// Fig 1's inputs: a briefly trained FFNN, an untrained LeNet (which
    /// keeps the tests fast; Fig 1 semantics only need the pipeline to
    /// run end to end), their train/test sets and a two-eps grid.
    fn fig1_fixture() -> (Sequential, Sequential, Dataset, Dataset, FigureOpts) {
        let train = SynthMnist::generate(&MnistConfig {
            n: 300,
            seed: 61,
            ..Default::default()
        });
        let test = SynthMnist::generate(&MnistConfig {
            n: 30,
            seed: 62,
            ..Default::default()
        });
        let ffnn = quick_ffnn(&train);
        let lenet = zoo::lenet5(&mut Rng::seed_from_u64(5));
        let opts = FigureOpts {
            n_eval: test.len(),
            seed: 3,
            eps_grid: vec![0.0, 0.1],
        };
        (ffnn, lenet, train, test, opts)
    }

    #[test]
    fn fig1_produces_four_two_column_panels() {
        let (ffnn, lenet, train, test, opts) = fig1_fixture();
        let panels = run_fig1(&ffnn, &lenet, &train, &test, &opts).unwrap();
        assert_eq!(panels.len(), 4);
        for p in &panels {
            assert_eq!(p.mults().len(), 2);
            assert_eq!(p.eps(), &[0.0, 0.1]);
        }
        assert!(panels[0].mults()[0].starts_with("AccSign"));
        assert!(panels[1].mults()[1].starts_with("Ax"));
    }

    #[test]
    fn fig1_victims_calibrate_on_the_training_set() {
        // Every panel's eps-0 row is the clean test accuracy of a victim
        // calibrated on the training set, as in Figs 4-8, not on the
        // images it is scored on.
        let (ffnn, lenet, train, test, opts) = fig1_fixture();
        let panels = run_fig1(&ffnn, &lenet, &train, &test, &opts).unwrap();
        let reg = Registry::standard();
        let q_ffnn = quantize_victim(&ffnn, &train, Placement::All).unwrap();
        let q_lenet = quantize_victim(&lenet, &train, Placement::ConvOnly).unwrap();
        let (acc_s, ax_s) = Registry::fig1_signed_pair();
        let (acc_u, ax_u) = Registry::fig1_unsigned_pair();
        let victims = [(&q_ffnn, [acc_s, ax_s]), (&q_lenet, [acc_u, ax_u])];
        for (p, panel) in panels.iter().enumerate() {
            let (q, names) = victims[p % 2];
            for (m, name) in names.iter().enumerate() {
                let lut = reg.build_lut(name).unwrap();
                let want = q.accuracy_with(&test, &lut, opts.n_eval);
                assert_eq!(panel.accuracy(0, m), want, "panel {p}, {name}");
            }
        }
    }

    #[test]
    fn fault_sweep_driver_runs_on_registry_names() {
        let train = SynthMnist::generate(&MnistConfig {
            n: 300,
            seed: 64,
            ..Default::default()
        });
        let test = SynthMnist::generate(&MnistConfig {
            n: 24,
            seed: 65,
            ..Default::default()
        });
        let ffnn = quick_ffnn(&train);
        let q = quantize_victim(&ffnn, &train, Placement::All).unwrap();
        let opts = FaultSweepOpts {
            n_eval: 12,
            n_faults: 2,
            ..Default::default()
        };
        let report = run_fault_sweep(&ffnn, &q, &test, &["1JFF", "L40"], &opts).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].mult, "1JFF");
        assert_eq!(report.rows[0].faults.len(), 2);
    }

    #[test]
    fn quantize_victim_uses_placement() {
        let train = SynthMnist::generate(&MnistConfig {
            n: 60,
            seed: 63,
            ..Default::default()
        });
        let ffnn = zoo::ffnn(&mut Rng::seed_from_u64(6));
        let q = quantize_victim(&ffnn, &train, Placement::All).unwrap();
        assert_eq!(q.placement(), Placement::All);
    }
}
