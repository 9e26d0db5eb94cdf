//! The two robustness-grid workloads on the LeNet-5 victim.
//!
//! * `paper-grid` — PGD-linf over `paper_eps_grid()` against the nine
//!   M1..M9 LUT columns (`robustness_grid`, the paper's Fig. 4/5 cell).
//! * `fault-campaign` — `fault_robustness_sweep` over 1JFF/17KS/L40, each
//!   with its fault-free column plus sampled single stuck-at faults, on
//!   one clean and one PGD set.
//!
//! Untraced passes call the `axrobust` sweep functions. Traced passes
//! spell them out as the layer calls they make (crafting, plan compile,
//! batched evaluation, faulted LUT rebuilds), time each, and must return
//! the same report bit for bit.

use axattack::suite::AttackId;
use axcirc::FaultSet;
use axdata::Dataset;
use axmul::{FaultedMul, MulColumns, MulLut, NetColumns, Registry};
use axnn::Sequential;
use axquant::QuantModel;
use axrobust::eval::{
    craft_adversarial_set, multi_kernel_adversarial_accuracy, paper_eps_grid, robustness_grid,
    EvalOpts,
};
use axrobust::faults::{
    fault_robustness_sweep, sample_single_faults, FaultReport, FaultRow, FaultSweepOpts,
};
use axrobust::RobustnessGrid;
use axtensor::Tensor;

use crate::batch::BatchJob;
use crate::probe::ProbeInputs;
use crate::trace::Tracer;
use crate::victim::{lut_macs_per_image, stream, Victim};
use crate::Checks;

const GRID_IMAGES: usize = 24;
const CAMPAIGN: [&str; 3] = ["1JFF", "17KS", "L40"];
const CAMPAIGN_FAULTS: usize = 8;
const CAMPAIGN_IMAGES: usize = 48;
const CAMPAIGN_EPS: f32 = 0.1;

/// Builds registry LUT columns, one `axmul` span per build.
pub fn lut_columns(names: &[&str], tr: &mut Tracer) -> MulColumns {
    let reg = Registry::standard();
    MulColumns::from_pairs(
        names
            .iter()
            .map(|&name| {
                let lut = tr.span("axmul.lut_build", || {
                    reg.build_lut(name).expect("registered multiplier")
                });
                (name.to_owned(), lut)
            })
            .collect(),
    )
}

/// Per-column accuracy of `[image][kernel]` predictions, counted exactly
/// as `axrobust::eval` counts them.
fn column_accuracy(preds: &[Vec<usize>], set: &[(Tensor, usize)], columns: usize) -> Vec<f32> {
    let mut correct = vec![0usize; columns];
    for (row, &(_, label)) in preds.iter().zip(set) {
        for (c, &p) in correct.iter_mut().zip(row) {
            *c += usize::from(p == label);
        }
    }
    correct
        .into_iter()
        .map(|c| c as f32 / set.len() as f32)
        .collect()
}

/// `robustness_grid` under PGD-linf, spelled out as its layer calls.
pub fn traced_grid(
    model: &Sequential,
    qm: &QuantModel,
    cols: &MulColumns,
    data: &Dataset,
    opts: &EvalOpts,
    tr: &mut Tracer,
) -> RobustnessGrid {
    let kernels: Vec<&MulLut> = cols.payloads();
    let macs = lut_macs_per_image(model, data.image(0).dims(), qm.placement());
    let mut plan = None;
    let mut acc = Vec::with_capacity(opts.eps_grid.len());
    for &eps in &opts.eps_grid {
        let set = tr.span("axattack.craft", || {
            craft_adversarial_set(
                model,
                AttackId::PgdLinf,
                data,
                eps,
                opts.n_examples,
                opts.seed,
            )
        });
        if eps > 0.0 {
            tr.add("axattack.images", set.len() as f64);
        }
        let plan = plan
            .get_or_insert_with(|| tr.span("axquant.plan_compile", || qm.plan(set[0].0.dims())));
        let preds = tr.span("axquant.eval", || {
            plan.predict_batch_indexed(set.len(), |i| &set[i].0, &kernels)
        });
        tr.add(
            "axquant.lut_macs",
            macs * (set.len() * kernels.len()) as f64,
        );
        acc.push(column_accuracy(&preds, &set, kernels.len()));
    }
    RobustnessGrid::new(
        AttackId::PgdLinf.name(),
        data.name(),
        opts.eps_grid.clone(),
        cols.names(),
        acc,
    )
}

/// `paper-grid`: the paper's own experiment.
pub struct PaperGrid {
    victim: Victim,
    cols: MulColumns,
    opts: EvalOpts,
    /// `accuracy_with` per column: what the eps-0 row must equal.
    clean_row: Vec<f32>,
}

impl BatchJob for PaperGrid {
    type Out = RobustnessGrid;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let victim = Victim::setup(seed, tr);
        let cols = lut_columns(&Registry::lenet_set(), tr);
        PaperGrid {
            victim,
            cols,
            opts: EvalOpts {
                eps_grid: paper_eps_grid(),
                n_examples: GRID_IMAGES,
                seed: stream(seed, 5),
            },
            clean_row: Vec::new(),
        }
    }

    fn same_inputs(&self, other: &Self) -> bool {
        self.victim == other.victim && self.cols == other.cols && self.opts == other.opts
    }

    fn prepare(&mut self) {
        let v = &self.victim;
        self.clean_row = self
            .cols
            .iter()
            .map(|(_, lut)| v.qm.accuracy_with(&v.test, lut, GRID_IMAGES))
            .collect();
    }

    fn items(&self) -> f64 {
        (self.opts.eps_grid.len() * self.cols.len() * GRID_IMAGES) as f64
    }

    fn pass(&self, tr: &mut Tracer) -> RobustnessGrid {
        let v = &self.victim;
        if tr.is_on() {
            traced_grid(&v.model, &v.qm, &self.cols, &v.test, &self.opts, tr)
        } else {
            robustness_grid(
                &v.model,
                &v.qm,
                &self.cols,
                AttackId::PgdLinf,
                &v.test,
                &self.opts,
            )
        }
    }

    fn verify(&self, grid: &RobustnessGrid, checks: &mut Checks) {
        assert_eq!(self.opts.eps_grid[0], 0.0, "the paper grid starts at eps 0");
        for (c, &clean) in self.clean_row.iter().enumerate() {
            checks.expect(grid.accuracy(0, c) == clean, || {
                format!(
                    "paper-grid: eps-0 accuracy of {} is {} but accuracy_with gives {clean}",
                    self.cols.name(c),
                    grid.accuracy(0, c)
                )
            });
        }
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs::new(&self.victim.model, &self.victim.qm, &self.victim.train)
    }
}

/// `fault-campaign`: LUT-GEMM evaluation of many kernel columns per pass.
pub struct FaultCampaign {
    victim: Victim,
    nets: NetColumns,
    /// The registry LUT of each campaign part (fault-free reference).
    luts: MulColumns,
    opts: FaultSweepOpts,
    /// Unfaulted-LUT `(clean, adv)` accuracy per part.
    expected: Vec<(f32, f32)>,
}

impl FaultCampaign {
    fn crafted(&self, eps: f32) -> Vec<(Tensor, usize)> {
        let v = &self.victim;
        let o = &self.opts;
        craft_adversarial_set(&v.model, o.attack, &v.test, eps, o.n_eval, o.seed)
    }

    fn traced_sweep(&self, tr: &mut Tracer) -> FaultReport {
        let v = &self.victim;
        let o = &self.opts;
        let clean = tr.span("axattack.craft", || self.crafted(0.0));
        let adv = tr.span("axattack.craft", || self.crafted(o.eps));
        tr.add("axattack.images", adv.len() as f64);
        let macs = lut_macs_per_image(&v.model, v.test.image(0).dims(), v.qm.placement());
        let mut rows = Vec::with_capacity(self.nets.len());
        for (mi, (name, nl)) in self.nets.iter().enumerate() {
            let fault_sets = sample_single_faults(nl, o.n_faults, o.seed, mi as u64);
            let kernels: Vec<FaultedMul> = std::iter::once(FaultSet::empty())
                .chain(fault_sets.iter().cloned())
                .map(|fs| {
                    tr.span("axmul.faulted_rebuild", || {
                        FaultedMul::from_netlist(name, nl, fs)
                    })
                })
                .collect();
            let refs: Vec<&FaultedMul> = kernels.iter().collect();
            let clean_acc = tr.span("axquant.eval", || {
                multi_kernel_adversarial_accuracy(&v.qm, &refs, &clean)
            });
            let adv_acc = tr.span("axquant.eval", || {
                multi_kernel_adversarial_accuracy(&v.qm, &refs, &adv)
            });
            tr.add(
                "axquant.lut_macs",
                macs * ((clean.len() + adv.len()) * refs.len()) as f64,
            );
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
        FaultReport {
            attack: o.attack.name().to_string(),
            eps: o.eps,
            n_faults: o.n_faults,
            seed: o.seed,
            rows,
        }
    }
}

impl BatchJob for FaultCampaign {
    type Out = FaultReport;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let victim = Victim::setup(seed, tr);
        let nets = NetColumns::from_registry(&Registry::standard(), &CAMPAIGN);
        let luts = lut_columns(&CAMPAIGN, tr);
        FaultCampaign {
            victim,
            nets,
            luts,
            opts: FaultSweepOpts {
                attack: AttackId::PgdLinf,
                eps: CAMPAIGN_EPS,
                n_eval: CAMPAIGN_IMAGES,
                n_faults: CAMPAIGN_FAULTS,
                seed: stream(seed, 6),
            },
            expected: Vec::new(),
        }
    }

    fn same_inputs(&self, other: &Self) -> bool {
        self.victim == other.victim && self.luts == other.luts && self.opts == other.opts
    }

    fn prepare(&mut self) {
        let clean = self.crafted(0.0);
        let adv = self.crafted(self.opts.eps);
        let qm = &self.victim.qm;
        self.expected = self
            .luts
            .iter()
            .map(|(_, lut)| {
                (
                    multi_kernel_adversarial_accuracy(qm, &[lut], &clean)[0],
                    multi_kernel_adversarial_accuracy(qm, &[lut], &adv)[0],
                )
            })
            .collect();
    }

    fn items(&self) -> f64 {
        (CAMPAIGN.len() * (1 + CAMPAIGN_FAULTS) * 2 * CAMPAIGN_IMAGES) as f64
    }

    fn pass(&self, tr: &mut Tracer) -> FaultReport {
        if tr.is_on() {
            return self.traced_sweep(tr);
        }
        let v = &self.victim;
        fault_robustness_sweep(&v.model, &v.qm, &self.nets, &v.test, &self.opts)
            .expect("a non-empty campaign")
    }

    fn verify(&self, report: &FaultReport, checks: &mut Checks) {
        for (row, &(clean, adv)) in report.rows.iter().zip(&self.expected) {
            checks.expect(row.clean == clean && row.adv == adv, || {
                format!(
                    "fault-campaign: fault-free {} column ({}, {}) differs from its \
                     registry LUT ({clean}, {adv})",
                    row.mult, row.clean, row.adv
                )
            });
        }
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs::new(&self.victim.model, &self.victim.qm, &self.victim.train)
    }
}
