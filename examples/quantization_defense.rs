//! A miniature Fig 8: does quantization defend, and does approximation
//! undo it?
//!
//! Compares three victims under a white-box PGD-linf attack crafted on
//! the float model:
//!   1. the float model itself (non-quantized accurate DNN),
//!   2. its int8 twin with the exact multiplier (quantized accurate DNN),
//!   3. its int8 twin with the L40 approximate multiplier (AxDNN).
//!
//! The paper's §IV.D claims quantization improves robustness but
//! approximate computing acts antagonistically — visible here as
//! (2) ≥ (1) while (3) gives the gain back.
//!
//! Run: `cargo run --release --example quantization_defense`

use axdnn::attack::suite::AttackId;
use axdnn::data::mnist::{MnistConfig, SynthMnist};
use axdnn::mul::{MulLut, Registry};
use axdnn::nn::train::{fit, TrainConfig};
use axdnn::nn::zoo;
use axdnn::quant::Placement;
use axdnn::robust::eval::{craft_adversarial_set, outcomes};
use axdnn::robust::experiments::quantize_victim;
use axdnn::tensor::stats::Outcomes;
use axdnn::util::rng::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train = SynthMnist::generate(&MnistConfig {
        n: 1200,
        seed: 21,
        ..Default::default()
    });
    let test = SynthMnist::generate(&MnistConfig {
        n: 150,
        seed: 22,
        ..Default::default()
    });
    let mut lenet = zoo::lenet5(&mut Rng::seed_from_u64(9));
    println!("training LeNet-5...");
    fit(
        &mut lenet,
        &train,
        &TrainConfig {
            epochs: 2,
            verbose: true,
            ..Default::default()
        },
    );
    let q = quantize_victim(&lenet, &train, Placement::ConvOnly)?;
    let exact = MulLut::exact();
    let l40 = Registry::standard().build_lut("L40").expect("registered");

    println!(
        "\n{:>6} {:>10} {:>10} {:>10}",
        "eps", "float %", "quant %", "AxL40 %"
    );
    for eps in [0.0f32, 0.05, 0.1, 0.15, 0.2, 0.3] {
        let advs = craft_adversarial_set(&lenet, AttackId::PgdLinf, &test, eps, 100, 77);
        let preds = lenet
            .plan(advs[0].0.dims())
            .predict_batch(advs.len(), |i| &advs[i].0);
        let float = Outcomes::new(advs.len(), 1, |i, _| preds[i], |i| advs[i].1);
        let quant = outcomes(&q, &[&exact, &l40], &advs);
        println!(
            "{eps:>6.2} {:>10.1} {:>10.1} {:>10.1}",
            100.0 * float.accuracy(0),
            100.0 * quant.accuracy(0),
            100.0 * quant.accuracy(1)
        );
    }
    println!("\nExpect: quant >= float at small-mid eps; AxL40 below quant (antagonistic).");
    Ok(())
}
