//! Robustness under stuck-at hardware faults — the grid question of
//! [`crate::grid`] asked again with a defective fabric.
//!
//! The paper (and the EvoApprox datasheet methodology it builds on)
//! assumes fault-free gates. Real accelerators do not get that luxury,
//! so this module sweeps a single stuck-at fault campaign across each
//! multiplier: for every (multiplier, fault) cell the faulted netlist is
//! re-characterized into a [`FaultedMul`] LUT (one exhaustive sweep of
//! the netlist with the fault forced) and the victim's clean and
//! adversarial accuracy are measured against the fault-free baseline —
//! all on the same crafted adversarial sets, mirroring
//! [`crate::eval::robustness_grid`]. A fault that leaves the LUT rows the
//! victim's weight magnitudes read unchanged gives a column that the
//! batched engine cannot tell from the one it duplicates, so it runs
//! once with it (see [`axquant::plan`]); its accuracies are the same
//! numbers either way.
//!
//! Everything is deterministic: fault sites are drawn from
//! [`axutil::rng`] streams derived per (seed, multiplier, draw), and the
//! evaluation runs on the batched multi-kernel engine whose results are
//! independent of `AXDNN_THREADS`.

use axattack::suite::AttackId;
use axcirc::faults::{Fault, FaultSet};
use axcirc::Netlist;
use axdata::Dataset;
use axmul::{FaultedMul, NetColumns};
use axnn::Sequential;
use axquant::QuantModel;
use axutil::parallel::par_map_chunks;
use axutil::rng::Rng;
use axutil::AxError;

use crate::eval::{craft_adversarial_set, multi_kernel_adversarial_accuracy};

/// Options for one fault-injection robustness sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepOpts {
    /// The attack crafting the adversarial set.
    pub attack: AttackId,
    /// The perturbation budget of the adversarial set.
    pub eps: f32,
    /// Number of evaluation examples (capped at the dataset size).
    pub n_eval: usize,
    /// Number of single-fault netlists sampled per multiplier.
    pub n_faults: usize,
    /// Seed for both attack crafting and fault-site sampling.
    pub seed: u64,
}

impl Default for FaultSweepOpts {
    fn default() -> Self {
        FaultSweepOpts {
            attack: AttackId::PgdLinf,
            eps: 0.1,
            n_eval: 100,
            n_faults: 8,
            seed: 0xFA17,
        }
    }
}

/// One multiplier's row of the fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRow {
    /// Multiplier name.
    pub mult: String,
    /// Size of the full single stuck-at universe (both polarities).
    pub sites: usize,
    /// Fault-free clean accuracy.
    pub clean: f32,
    /// Fault-free adversarial accuracy.
    pub adv: f32,
    /// The sampled faults, in campaign order.
    pub faults: Vec<Fault>,
    /// Clean accuracy under each sampled fault.
    pub fault_clean: Vec<f32>,
    /// Adversarial accuracy under each sampled fault.
    pub fault_adv: Vec<f32>,
}

impl FaultRow {
    /// Mean clean accuracy over the fault campaign.
    pub fn mean_fault_clean(&self) -> f32 {
        mean(&self.fault_clean)
    }

    /// Worst (minimum) clean accuracy over the fault campaign.
    pub fn worst_fault_clean(&self) -> f32 {
        min(&self.fault_clean)
    }

    /// Mean adversarial accuracy over the fault campaign.
    pub fn mean_fault_adv(&self) -> f32 {
        mean(&self.fault_adv)
    }

    /// Worst (minimum) adversarial accuracy over the fault campaign.
    pub fn worst_fault_adv(&self) -> f32 {
        min(&self.fault_adv)
    }
}

fn mean(v: &[f32]) -> f32 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f32>() / v.len() as f32
}

fn min(v: &[f32]) -> f32 {
    v.iter().copied().fold(f32::INFINITY, f32::min).min(1.0)
}

/// The result of [`fault_robustness_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Attack name.
    pub attack: String,
    /// Perturbation budget.
    pub eps: f32,
    /// Campaign size per multiplier.
    pub n_faults: usize,
    /// The sweep seed.
    pub seed: u64,
    /// One row per multiplier.
    pub rows: Vec<FaultRow>,
}

impl FaultReport {
    /// Renders as a Markdown table plus per-fault detail lines.
    /// Accuracy in percent; fully deterministic (no timings).
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "**Robustness under stuck-at faults** — {} eps {}, {} single faults per multiplier (seed {:#x})\n\n",
            self.attack, self.eps, self.n_faults, self.seed
        );
        out.push_str(
            "| mult | fault sites | clean | adv | fault clean mean | fault clean worst | fault adv mean | fault adv worst |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
                r.mult,
                r.sites,
                100.0 * r.clean,
                100.0 * r.adv,
                100.0 * r.mean_fault_clean(),
                100.0 * r.worst_fault_clean(),
                100.0 * r.mean_fault_adv(),
                100.0 * r.worst_fault_adv(),
            ));
        }
        out.push('\n');
        for r in &self.rows {
            for ((f, &c), &a) in r.faults.iter().zip(&r.fault_clean).zip(&r.fault_adv) {
                out.push_str(&format!(
                    "  {} {}: clean {:.1} adv {:.1}\n",
                    r.mult,
                    f,
                    100.0 * c,
                    100.0 * a
                ));
            }
        }
        out
    }
}

/// Samples `n_faults` *distinct* single-fault sets from the multiplier's
/// output cone (faults on dead nodes provably cannot change the LUT, so
/// sampling them would waste campaign slots).
///
/// Deterministic: draw `d` for multiplier `mult_index` comes from the
/// stream `seed → mult_index → d`, independent of thread count and of
/// the other multipliers in the sweep.
///
/// # Panics
///
/// Panics if the cone holds fewer than `n_faults` candidate faults.
pub fn sample_single_faults(
    nl: &Netlist,
    n_faults: usize,
    seed: u64,
    mult_index: u64,
) -> Vec<FaultSet> {
    let cone = nl.output_cone();
    let live: Vec<Fault> = nl
        .fault_sites()
        .into_iter()
        .filter(|f| cone[f.node.index()])
        .collect();
    assert!(
        live.len() >= n_faults,
        "campaign of {n_faults} faults exceeds the {} live fault sites",
        live.len()
    );
    let stream = Rng::seed_from_u64(seed).derive(mult_index);
    let mut picked: Vec<Fault> = Vec::with_capacity(n_faults);
    let mut draw = 0u64;
    while picked.len() < n_faults {
        let mut rf = stream.derive(draw);
        let candidate = live[rf.index(live.len())];
        draw += 1;
        if !picked.contains(&candidate) {
            picked.push(candidate);
        }
    }
    picked.into_iter().map(FaultSet::single).collect()
}

/// Sweeps a single stuck-at fault campaign across every multiplier.
///
/// Per multiplier the fault-free baseline plus all `n_faults` defective
/// LUTs are built across threads (each table is one exhaustive sweep, so
/// the result does not depend on `AXDNN_THREADS`) and evaluated as
/// columns of one batched multi-kernel pass on the
/// same crafted clean (`eps = 0`) and adversarial sets, so the deltas
/// are attributable to the faults alone. `mults` is a [`NetColumns`]
/// set, non-empty by construction.
///
/// # Errors
///
/// Returns a configuration error for an empty fault campaign.
pub fn fault_robustness_sweep(
    source: &Sequential,
    victim: &QuantModel,
    mults: &NetColumns,
    data: &Dataset,
    opts: &FaultSweepOpts,
) -> Result<FaultReport, AxError> {
    if opts.n_faults == 0 {
        return Err(AxError::config(
            "fault campaign must inject at least one fault",
        ));
    }
    let clean_set = craft_adversarial_set(source, opts.attack, data, 0.0, opts.n_eval, opts.seed);
    let adv_set =
        craft_adversarial_set(source, opts.attack, data, opts.eps, opts.n_eval, opts.seed);
    let mut rows = Vec::with_capacity(mults.len());
    for (mi, (name, nl)) in mults.iter().enumerate() {
        let fault_sets = sample_single_faults(nl, opts.n_faults, opts.seed, mi as u64);
        // Column 0 is the fault-free multiplier, then one per fault set.
        let kernels = par_map_chunks(fault_sets.len() + 1, |range| {
            range
                .map(|i| {
                    let faults = match i {
                        0 => FaultSet::empty(),
                        _ => fault_sets[i - 1].clone(),
                    };
                    FaultedMul::from_netlist(name, nl, faults)
                })
                .collect()
        });
        let refs: Vec<&FaultedMul> = kernels.iter().collect();
        let clean_acc = multi_kernel_adversarial_accuracy(victim, &refs, &clean_set);
        let adv_acc = multi_kernel_adversarial_accuracy(victim, &refs, &adv_set);
        rows.push(FaultRow {
            mult: name.to_string(),
            sites: nl.fault_sites().len(),
            clean: clean_acc[0],
            adv: adv_acc[0],
            faults: fault_sets.iter().map(|fs| fs.faults()[0]).collect(),
            fault_clean: clean_acc[1..].to_vec(),
            fault_adv: adv_acc[1..].to_vec(),
        });
    }
    Ok(FaultReport {
        attack: opts.attack.name().to_string(),
        eps: opts.eps,
        n_faults: opts.n_faults,
        seed: opts.seed,
        rows,
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
    use axtensor::Tensor;

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

    fn netlists(names: &[&str]) -> NetColumns {
        NetColumns::from_registry(&Registry::standard(), names)
    }

    fn small_opts() -> FaultSweepOpts {
        FaultSweepOpts {
            n_eval: 24,
            n_faults: 3,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_well_formed() {
        let (model, q, test) = quick_setup();
        let mults = netlists(&["1JFF", "L40"]);
        let opts = small_opts();
        let r1 = fault_robustness_sweep(&model, &q, &mults, &test, &opts).unwrap();
        let r2 = fault_robustness_sweep(&model, &q, &mults, &test, &opts).unwrap();
        assert_eq!(r1, r2, "sweep must replay bit-identically");
        assert_eq!(r1.rows.len(), 2);
        for row in &r1.rows {
            assert_eq!(row.faults.len(), 3);
            assert_eq!(row.fault_clean.len(), 3);
            assert_eq!(row.fault_adv.len(), 3);
            assert!(row.sites > 0);
            for &a in row.fault_clean.iter().chain(&row.fault_adv) {
                assert!((0.0..=1.0).contains(&a));
            }
            assert!(row.worst_fault_clean() <= row.mean_fault_clean() + 1e-6);
        }
        // The trained fault-free baseline classifies well.
        assert!(r1.rows[0].clean > 0.5);
        let text = r1.to_text();
        assert!(text.contains("1JFF") && text.contains("L40"));
        assert!(text.contains("sa"), "per-fault lines must name the faults");
    }

    #[test]
    fn fault_sampling_is_distinct_and_stream_stable() {
        let nl = Registry::standard()
            .find("17KS")
            .expect("registered")
            .build_netlist();
        let a = sample_single_faults(&nl, 6, 42, 0);
        let b = sample_single_faults(&nl, 6, 42, 0);
        assert_eq!(a, b);
        let other_mult = sample_single_faults(&nl, 6, 42, 1);
        assert_ne!(a, other_mult, "streams must differ per multiplier");
        let faults: Vec<Fault> = a.iter().map(|fs| fs.faults()[0]).collect();
        for (i, f) in faults.iter().enumerate() {
            assert!(!faults[..i].contains(f), "campaign must not repeat faults");
        }
        // All sampled faults live in the output cone.
        let cone = nl.output_cone();
        assert!(faults.iter().all(|f| cone[f.node.index()]));
    }

    #[test]
    fn config_errors_are_reported() {
        let (model, q, test) = quick_setup();
        let mults = netlists(&["1JFF"]);
        let opts = FaultSweepOpts {
            n_faults: 0,
            ..small_opts()
        };
        assert!(fault_robustness_sweep(&model, &q, &mults, &test, &opts).is_err());
    }

    /// The old "empty multiplier list" config error moved to
    /// construction: [`NetColumns`] cannot be built without an M1
    /// baseline column.
    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_column_set_panics_at_construction() {
        let _ = NetColumns::from_pairs(Vec::new());
    }
}
