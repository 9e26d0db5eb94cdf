//! Regenerates one of the paper's figures or tables by name:
//!
//! ```text
//! cargo run --release -p bench --bin repro -- <name>
//! ```
//!
//! `<name>` is one of [`NAMES`]: `fig1` (the motivational case study),
//! `fig4`–`fig7` (robustness heatmaps), `fig8` (quantized vs float
//! LeNet-5), `table1` (the attack taxonomy), `table2` (transferability)
//! and `multipliers_report` (the datasheet of every registered
//! multiplier). Each prints a Markdown report and saves it as
//! `<artifacts>/results/<name>.txt`; an unknown name exits non-zero.

use axattack::suite::table1_markdown;
use axdata::Dataset;
use axmul::metrics::{datasheets, report_markdown};
use axmul::Registry;
use axnn::Sequential;
use axquant::{Placement, QuantModel};
use axrobust::experiments::{
    quantize_victim, run_fig1, run_fig4, run_fig5, run_fig6, run_fig7, run_fig8, run_table2,
    FigureOpts, Table2Models,
};
use axrobust::RobustnessGrid;

/// Every name `repro` accepts.
const NAMES: [&str; 9] = [
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "table2",
    "multipliers_report",
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
        run_fig1(&ffnn, &lenet, store.mnist_test(), &opts).expect("fig1")
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
    let (_, mnist32_test) = store.mnist32();
    let models = Table2Models {
        l5_mnist: &l5_mnist,
        alx_mnist: &alx_mnist,
        l5_cifar: &l5_cifar,
        alx_cifar: &alx_cifar,
        mnist32_test: &mnist32_test,
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
