//! The paper's contribution: adversarial robustness analysis of
//! approximate DNN accelerators (AxDNNs).
//!
//! This crate wires the substrates together into the methodology of
//! Fig 3 / Algorithm 1 and the per-figure experiment drivers:
//!
//! * [`threat`] — the threat model of §II (adversary knowledge scenarios).
//! * [`eval`] — the robustness-evaluation engine and the one
//!   implementation of the paper's Algorithm 1: craft adversarial
//!   examples on the accurate float model, evaluate every quantized
//!   accurate/approximate victim on them, report percentage robustness
//!   per perturbation budget.
//! * [`grid`] — robustness grids (the heatmaps of Figs 4-7) with
//!   Markdown/CSV renderers.
//! * [`transfer`] — the transferability study (Table II).
//! * [`faults`] — robustness under stuck-at hardware faults: sampled
//!   single-fault campaigns per multiplier, re-characterized into
//!   defective LUTs and measured against the fault-free baseline.
//! * [`universal`] — universal-perturbation robustness: one shared delta
//!   crafted on the float surrogate, every victim multiplier evaluated
//!   clean vs. perturbed, before and after universal adversarial
//!   training through each victim's multiplier.
//! * [`mtd`] — moving-target defense: every fixed kernel column plus the
//!   randomized per-query ensemble, scored clean vs. static PGD vs. the
//!   adaptive EOT attacker over the disclosed kernel distribution.
//! * [`quantstudy`] — the quantization study (Fig 8).
//! * [`experiments`] — per-figure drivers with the paper's epsilon grid
//!   and multiplier sets.
//! * [`store`] — dataset/model preparation with on-disk caching of
//!   trained weights, so figure binaries train once and replay fast.
//!
//! # Examples
//!
//! A miniature end-to-end robustness evaluation:
//!
//! ```
//! use axrobust::eval::{robustness_grid, EvalOpts};
//! use axattack::suite::AttackId;
//! use axdata::mnist::{MnistConfig, SynthMnist};
//! use axmul::{MulColumns, Registry};
//! use axnn::zoo;
//! use axquant::{Placement, QuantModel};
//! use axutil::rng::Rng;
//!
//! # fn main() -> Result<(), axutil::AxError> {
//! let data = SynthMnist::generate(&MnistConfig { n: 24, seed: 7, ..Default::default() });
//! let model = zoo::lenet5(&mut Rng::seed_from_u64(0)); // untrained: demo only
//! let calib: Vec<_> = (0..4).map(|i| data.image(i).clone()).collect();
//! let victim = QuantModel::from_float(&model, &calib, Placement::ConvOnly)?;
//! let muls = MulColumns::from_registry(&Registry::standard(), &["1JFF"]);
//! let grid = robustness_grid(
//!     &model, &victim, &muls, AttackId::FgmLinf, &data,
//!     &EvalOpts { eps_grid: vec![0.0, 0.1], n_examples: 8, seed: 1 },
//! );
//! assert_eq!(grid.accuracy(0, 0), grid.accuracy(0, 0));
//! # Ok(())
//! # }
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod eval;
pub mod experiments;
pub mod faults;
pub mod grid;
pub mod mtd;
pub mod quantstudy;
pub mod store;
pub mod threat;
pub mod transfer;
pub mod universal;

pub use eval::{robustness_grid, EvalOpts};
pub use faults::{fault_robustness_sweep, FaultReport, FaultSweepOpts};
pub use grid::RobustnessGrid;
pub use mtd::{mtd_robustness_sweep, MtdReport, MtdRow, MtdSweepOpts};
pub use universal::{universal_robustness_sweep, UniversalReport, UniversalSweepOpts};
