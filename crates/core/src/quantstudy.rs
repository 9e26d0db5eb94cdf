//! The quantization study (Fig 8, §IV.D).
//!
//! Compares the *non-quantized* float accurate model against its 8-bit
//! quantized twin under every attack: the attacks are white-box on the
//! float model, so the float victim collapses quickly while quantization
//! absorbs small perturbations — and §IV.D's point is that approximation
//! then takes that robustness gain back (visible by contrasting these
//! curves with the AxDNN columns of Figs 4-6).

use axattack::suite::AttackId;
use axdata::Dataset;
use axmul::MulLut;
use axnn::Sequential;
use axquant::QuantModel;
use axtensor::stats::Outcomes;

use crate::eval::{adversarial_accuracy, craft_adversarial_set};

/// One attack's pair of robustness curves.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePair {
    /// Attack name (paper legend, e.g. `"L5_BIM_linf"` vs `"qL5_BIM_linf"`).
    pub attack: String,
    /// Float (non-quantized) model accuracy per eps.
    pub float_acc: Vec<f32>,
    /// Quantized (exact-multiplier) model accuracy per eps.
    pub quant_acc: Vec<f32>,
}

/// The Fig 8 result: one curve pair per attack over a shared eps grid.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantStudy {
    /// The shared epsilon axis.
    pub eps: Vec<f32>,
    /// One pair per attack.
    pub pairs: Vec<CurvePair>,
}

impl QuantStudy {
    /// Renders as CSV: `attack,eps,float_acc,quant_acc`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("attack,eps,float_acc,quant_acc\n");
        for pair in &self.pairs {
            for ((&e, &f), &q) in self.eps.iter().zip(&pair.float_acc).zip(&pair.quant_acc) {
                out.push_str(&format!("{},{e},{f:.4},{q:.4}\n", pair.attack));
            }
        }
        out
    }

    /// Renders a compact text table (two columns per attack).
    pub fn to_text(&self) -> String {
        let mut out =
            String::from("Fig 8: quantized (q) vs non-quantized accurate model, accuracy %\n");
        for pair in &self.pairs {
            out.push_str(&format!("\n{}\n  eps:   ", pair.attack));
            for e in &self.eps {
                out.push_str(&format!("{e:>6.2}"));
            }
            out.push_str("\n  float: ");
            for a in &pair.float_acc {
                out.push_str(&format!("{:>6.0}", a * 100.0));
            }
            out.push_str("\n  quant: ");
            for a in &pair.quant_acc {
                out.push_str(&format!("{:>6.0}", a * 100.0));
            }
            out.push('\n');
        }
        out
    }

    /// The largest robustness gain quantization delivers over the float
    /// model across all attacks and budgets (the paper's "+58%" claim at
    /// PGD-linf eps 0.2), as `(attack, eps, gain)`.
    pub fn max_quantization_gain(&self) -> (String, f32, f32) {
        let mut best = (String::new(), 0.0f32, f32::MIN);
        for pair in &self.pairs {
            for ((&e, &f), &q) in self.eps.iter().zip(&pair.float_acc).zip(&pair.quant_acc) {
                let gain = q - f;
                if gain > best.2 {
                    best = (pair.attack.clone(), e, gain);
                }
            }
        }
        best
    }
}

/// Runs the study for the given attacks.
pub fn quantization_study(
    model: &Sequential,
    qmodel: &QuantModel,
    attacks: &[AttackId],
    data: &Dataset,
    eps_grid: &[f32],
    n_examples: usize,
    seed: u64,
) -> QuantStudy {
    let exact_lut = MulLut::exact();
    let mut pairs = Vec::with_capacity(attacks.len());
    for &attack in attacks {
        let mut float_acc = Vec::with_capacity(eps_grid.len());
        let mut quant_acc = Vec::with_capacity(eps_grid.len());
        for &eps in eps_grid {
            let advs = craft_adversarial_set(model, attack, data, eps, n_examples, seed);
            // Both lanes run on the batched plan engines and score through
            // `Outcomes`; the quantized lane rejects an empty set first.
            quant_acc.push(adversarial_accuracy(qmodel, &exact_lut, &advs));
            let plan = model.plan(advs[0].0.dims());
            let preds = plan.predict_batch(advs.len(), |i| &advs[i].0);
            let float = Outcomes::new(advs.len(), 1, |i, _| preds[i], |i| advs[i].1);
            float_acc.push(float.accuracy(0));
        }
        pairs.push(CurvePair {
            attack: attack.name().to_owned(),
            float_acc,
            quant_acc,
        });
    }
    QuantStudy {
        eps: eps_grid.to_vec(),
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axdata::mnist::{MnistConfig, SynthMnist};
    use axnn::train::{fit, TrainConfig};
    use axnn::zoo;
    use axquant::Placement;
    use axtensor::Tensor;
    use axutil::rng::Rng;

    #[test]
    fn study_produces_pairs_and_gain() {
        let train = SynthMnist::generate(&MnistConfig {
            n: 400,
            seed: 51,
            ..Default::default()
        });
        let test = SynthMnist::generate(&MnistConfig {
            n: 30,
            seed: 52,
            ..Default::default()
        });
        let mut model = zoo::ffnn(&mut Rng::seed_from_u64(2));
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
        let q = QuantModel::from_float(&model, &calib, Placement::ConvOnly).unwrap();
        let study = quantization_study(
            &model,
            &q,
            &[AttackId::FgmLinf, AttackId::CrL2],
            &test,
            &[0.0, 0.1],
            20,
            3,
        );
        assert_eq!(study.pairs.len(), 2);
        assert_eq!(study.eps, vec![0.0, 0.1]);
        // Both victims are accurate at eps 0.
        assert!(study.pairs[0].float_acc[0] > 0.5);
        assert!(study.pairs[0].quant_acc[0] > 0.5);
        let csv = study.to_csv();
        assert!(csv.contains("FGM-linf") && csv.contains("CR-l2"));
        assert!(study.to_text().contains("quant"));
        let (_, _, gain) = study.max_quantization_gain();
        assert!(gain.is_finite());
    }
}
