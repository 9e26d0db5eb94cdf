//! Regenerates one of the paper's figures or tables by name:
//!
//! ```text
//! cargo run --release -p bench --bin repro -- <name>
//! ```
//!
//! `<name>` is one of [`NAMES`]: `fig1` (the motivational case study),
//! `fig4`–`fig7` (robustness heatmaps), `fig8` (quantized vs float
//! LeNet-5), `table1` (the attack taxonomy), `table2` (transferability),
//! `multipliers_report` (the datasheet of every registered multiplier),
//! `clean_accuracy` (the eps = 0 column of every figure), `qlevel_sweep`
//! (robustness vs quantization level) and `ablation_structure` (error
//! structure vs magnitude). Each prints a Markdown report and saves it
//! as `<artifacts>/results/<name>.txt`; an unknown name exits non-zero.

use axattack::suite::{table1_markdown, AttackId};
use axcirc::{ApproxCell, ApproxSpec, ArrayMultiplier, ErrorMetrics};
use axdata::Dataset;
use axmul::metrics::{datasheets, report_markdown};
use axmul::{MulLut, Registry};
use axnn::Sequential;
use axquant::{Placement, QLevel, QuantModel};
use axrobust::eval::{adversarial_accuracy, craft_adversarial_set};
use axrobust::experiments::{
    cifar_mult_columns, mnist_mult_columns, quantize_victim, run_fig1, run_fig4, run_fig5,
    run_fig6, run_fig7, run_fig8, run_table2, FigureOpts, Table2Models,
};
use axrobust::RobustnessGrid;
use axtensor::Tensor;

/// Every name `repro` accepts.
const NAMES: [&str; 12] = [
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "table2",
    "multipliers_report",
    "clean_accuracy",
    "qlevel_sweep",
    "ablation_structure",
];

type HeatmapFn = fn(&Sequential, &QuantModel, &Dataset, &FigureOpts) -> Vec<RobustnessGrid>;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    if !NAMES.contains(&name.as_str()) {
        eprintln!(
            "usage: repro <name>, where <name> is one of: {}",
            NAMES.join(", ")
        );
        std::process::exit(2);
    }
    let out = match name.as_str() {
        "table1" => format!(
            "# Table I: attacks, types, distance metrics\n\n{}",
            table1_markdown()
        ),
        "multipliers_report" => {
            let sheets = bench::timed("characterize", || datasheets(&Registry::standard()));
            format!(
                "# Multiplier datasheets (exhaustive over all 2^16 operand pairs)\n\n{}",
                report_markdown(&sheets)
            )
        }
        "fig1" => fig1(),
        "fig4" => heatmaps("fig4", "Fig 4", run_fig4),
        "fig5" => heatmaps("fig5", "Fig 5", run_fig5),
        "fig6" => heatmaps("fig6", "Fig 6", run_fig6),
        "fig7" => heatmaps("fig7", "Fig 7", run_fig7),
        "fig8" => fig8(),
        "table2" => table2(),
        "clean_accuracy" => clean_accuracy(),
        "qlevel_sweep" => qlevel_sweep(),
        "ablation_structure" => ablation_structure(),
        _ => unreachable!("checked against NAMES"),
    };
    bench::emit(&name, &out);
}

/// Fig 1: the motivational case study (FFNN and LeNet-5, accurate vs
/// approximate, PGD-linf and CR-l2).
fn fig1() -> String {
    let store = bench::store_from_env();
    let opts = bench::figure_opts_from_env();
    let ffnn = store.ffnn_mnist().expect("ffnn");
    let lenet = store.lenet5_mnist().expect("lenet");
    let panels = bench::timed("fig1", || {
        run_fig1(
            &ffnn,
            &lenet,
            store.mnist_train(),
            store.mnist_test(),
            &opts,
        )
        .expect("fig1")
    });
    let titles = [
        "(a) FFNN, PGD-linf",
        "(b) LeNet-5, PGD-linf",
        "(c) FFNN, CR-l2",
        "(d) LeNet-5, CR-l2",
    ];
    let mut out = format!("# Fig 1 (n_eval = {})\n\n", opts.n_eval);
    for (t, p) in titles.iter().zip(&panels) {
        out.push_str(&format!("{t}\n{}\n", p.to_text()));
    }
    out
}

/// Figs 4–7: robustness heatmaps of a conv-quantized victim — LeNet-5
/// on synth-MNIST for Figs 4–6, AlexNet on synth-CIFAR for Fig 7.
fn heatmaps(name: &str, title: &str, run: HeatmapFn) -> String {
    let store = bench::store_from_env();
    let opts = bench::figure_opts_from_env();
    let (model, train, test) = if name == "fig7" {
        let alex = store.alexnet_cifar().expect("alexnet");
        (alex, store.cifar_train(), store.cifar_test())
    } else {
        let lenet = store.lenet5_mnist().expect("lenet");
        (lenet, store.mnist_train(), store.mnist_test())
    };
    let victim = quantize_victim(&model, train, Placement::ConvOnly).expect("quantize");
    let panels = bench::timed(name, || run(&model, &victim, test, &opts));
    let mut out = format!("# {title} (n_eval = {})\n\n", opts.n_eval);
    for p in &panels {
        out.push_str(&p.to_text());
        out.push('\n');
    }
    out
}

/// Fig 8: quantized vs non-quantized accurate LeNet-5 under all ten
/// attacks.
fn fig8() -> String {
    let store = bench::store_from_env();
    let opts = bench::figure_opts_from_env();
    let lenet = store.lenet5_mnist().expect("lenet");
    let victim =
        quantize_victim(&lenet, store.mnist_train(), Placement::ConvOnly).expect("quantize");
    let study = bench::timed("fig8", || {
        run_fig8(&lenet, &victim, store.mnist_test(), &opts)
    });
    let (attack, eps, gain) = study.max_quantization_gain();
    let mut out = format!("# Fig 8 (n_eval = {})\n\n", opts.n_eval);
    out.push_str(&study.to_text());
    out.push_str(&format!(
        "\nLargest quantization gain: +{:.0} points under {attack} at eps {eps} (paper: +58 under PGD-linf at 0.2)\n",
        100.0 * gain
    ));
    out.push_str("\nCSV:\n");
    out.push_str(&study.to_csv());
    out
}

/// Table II: transferability of BIM-linf (eps = 0.05) adversarial
/// examples across architectures and datasets.
fn table2() -> String {
    let store = bench::store_from_env();
    let opts = bench::figure_opts_from_env();
    let l5_mnist = store.lenet5_mnist32().expect("l5-mnist32");
    let alx_mnist = store.alexnet_mnist32().expect("alx-mnist32");
    let l5_cifar = store.lenet5_cifar().expect("l5-cifar");
    let alx_cifar = store.alexnet_cifar().expect("alx-cifar");
    let (mnist32_train, mnist32_test) = store.mnist32();
    let models = Table2Models {
        l5_mnist: &l5_mnist,
        alx_mnist: &alx_mnist,
        l5_cifar: &l5_cifar,
        alx_cifar: &alx_cifar,
        mnist32_train: &mnist32_train,
        mnist32_test: &mnist32_test,
        cifar_train: store.cifar_train(),
        cifar_test: store.cifar_test(),
    };
    let (mnist, cifar) = bench::timed("table2", || run_table2(&models, &opts).expect("table2"));
    format!(
        "# Table II (n_eval = {})\n\n## synth-MNIST\n\n{}\n## synth-CIFAR-10\n\n{}",
        opts.n_eval,
        mnist.to_markdown(),
        cifar.to_markdown()
    )
}

/// The eps = 0 column of every figure: clean accuracy of each quantized
/// accurate/approximate victim. Reproduces the "lower MAE, higher
/// inference accuracy" ladder of §IV.B and doubles as the recipe
/// calibration check.
fn clean_accuracy() -> String {
    let store = bench::store_from_env();
    let reg = Registry::standard();
    let mut out = String::from("# Clean accuracy per multiplier (eps = 0)\n\n");

    let lenet = store.lenet5_mnist().expect("lenet");
    let test = store.mnist_test();
    let n = test.len();
    let q = quantize_victim(&lenet, store.mnist_train(), Placement::ConvOnly).expect("quantize");
    out.push_str(&format!(
        "LeNet-5 / synth-MNIST (float: {:.1}%)\n\n| part | clean acc % |\n|---|---|\n",
        100.0 * lenet.accuracy(test, n)
    ));
    for (name, lut) in mnist_mult_columns(&reg).iter() {
        let acc = q.accuracy_with(test, lut, n);
        out.push_str(&format!("| {name} | {:.1} |\n", 100.0 * acc));
    }

    let alex = store.alexnet_cifar().expect("alexnet");
    let ctest = store.cifar_test();
    let cq = quantize_victim(&alex, store.cifar_train(), Placement::ConvOnly).expect("quantize");
    out.push_str(&format!(
        "\nAlexNet / synth-CIFAR (float: {:.1}%)\n\n| part | clean acc % |\n|---|---|\n",
        100.0 * alex.accuracy(ctest, ctest.len())
    ));
    for (name, lut) in cifar_mult_columns(&reg).iter() {
        let acc = cq.accuracy_with(ctest, lut, ctest.len());
        out.push_str(&format!("| {name} | {:.1} |\n", 100.0 * acc));
    }
    out
}

/// Algorithm 1's `Qlevel` input swept over 4/6/8-bit quantization, with
/// and without approximation, under the strongest attack (BIM-linf). The
/// paper fixes 8-bit; this surface shows how precision interacts with
/// the approximation-vs-robustness story (§IV.D).
fn qlevel_sweep() -> String {
    let store = bench::store_from_env();
    let opts = bench::figure_opts_from_env();
    let lenet = store.lenet5_mnist().expect("lenet");
    let train = store.mnist_train();
    let test = store.mnist_test();
    let calib: Vec<Tensor> = (0..32).map(|i| train.image(i).clone()).collect();
    let reg = Registry::standard();
    let exact = reg.build_lut("1JFF").expect("registered");
    let approx = reg.build_lut("17KS").expect("registered");

    let mut out = format!(
        "# Qlevel sweep: BIM-linf robustness vs quantization level (n_eval = {})\n\n",
        opts.n_eval
    );
    out.push_str("| level | eps | accurate % | Ax17KS % |\n|---|---|---|---|\n");
    for bits in [4u8, 6, 8] {
        let level = QLevel::new(bits, bits);
        let q = QuantModel::from_float_with_level(&lenet, &calib, Placement::ConvOnly, level)
            .expect("quantize");
        for eps in [0.0f32, 0.1, 0.2] {
            let advs =
                craft_adversarial_set(&lenet, AttackId::BimLinf, test, eps, opts.n_eval, opts.seed);
            let acc = adversarial_accuracy(&q, &exact, &advs);
            let acc_ax = adversarial_accuracy(&q, &approx, &advs);
            out.push_str(&format!(
                "| {level} | {eps} | {:.1} | {:.1} |\n",
                100.0 * acc,
                100.0 * acc_ax
            ));
        }
    }
    out
}

/// Error *structure* vs error *magnitude*: three recipes with comparable
/// MAE but different structures — compensated truncation
/// (constant-bias), lower-part OR (input-coupled, mild), carry-blind
/// cells (zero-mean-ish) — evaluated as LeNet-5 victims both clean and
/// under CR-l2 and BIM-linf. This backs the paper's §IV.B claim that MAE
/// alone does not predict adversarial behaviour (JQQ vs L40).
fn ablation_structure() -> String {
    fn lut_of(name: &str, spec: ApproxSpec) -> (String, MulLut, ErrorMetrics) {
        let nl = ArrayMultiplier::new(8, spec).build();
        let m = ErrorMetrics::from_mul_table(&nl.exhaustive_u16(), 8);
        (name.to_owned(), MulLut::from_netlist(name, &nl), m)
    }

    let store = bench::store_from_env();
    let opts = bench::figure_opts_from_env();
    let lenet = store.lenet5_mnist().expect("lenet");
    let test = store.mnist_test();
    let victim =
        quantize_victim(&lenet, store.mnist_train(), Placement::ConvOnly).expect("quantize");

    // Matched-MAE trio (all ~0.4-0.7% MAE, very different bias).
    let candidates = vec![
        lut_of(
            "trunc8+comp (const-bias)",
            ApproxSpec::exact()
                .with_truncate_cols(8)
                .with_compensation(),
        ),
        lut_of("loa9 (input-coupled)", ApproxSpec::exact().with_loa_cols(9)),
        lut_of(
            "sic9 (carry-blind cells)",
            ApproxSpec::exact().with_approx_cols(9, ApproxCell::SumIgnoresCarry),
        ),
    ];

    let mut out = format!(
        "# Error-structure ablation at matched MAE (n_eval = {})\n\n",
        opts.n_eval
    );
    out.push_str(
        "| recipe | MAE% | bias (LSB) | clean % | CR-l2 eps2 % | BIM-linf eps0.1 % |\n|---|---|---|---|---|---|\n",
    );
    let cr = craft_adversarial_set(&lenet, AttackId::CrL2, test, 2.0, opts.n_eval, opts.seed);
    let bim = craft_adversarial_set(&lenet, AttackId::BimLinf, test, 0.1, opts.n_eval, opts.seed);
    for (name, lut, m) in &candidates {
        let clean = victim.accuracy_with(test, lut, opts.n_eval);
        let acc_cr = adversarial_accuracy(&victim, lut, &cr);
        let acc_bim = adversarial_accuracy(&victim, lut, &bim);
        out.push_str(&format!(
            "| {name} | {:.3} | {:+.0} | {:.1} | {:.1} | {:.1} |\n",
            m.mae_pct,
            m.mean_error,
            100.0 * clean,
            100.0 * acc_cr,
            100.0 * acc_bim
        ));
    }
    out.push_str(
        "\nSame-magnitude error, different structure, different robustness —\n\
         approximation cannot be a *universal* defense.\n",
    );
    out
}
