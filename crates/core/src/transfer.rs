//! The transferability study (Table II, §IV.C).
//!
//! Adversarial examples are crafted on a *source* accurate float model
//! and evaluated on *victim* AxDNNs (quantized + approximate multiplier).
//! When source and victim architectures differ, neither structure nor
//! inexactness is known to the adversary — the paper's second threat
//! scenario.

use axattack::suite::AttackId;
use axdata::Dataset;
use axmul::MulLut;
use axnn::Sequential;
use axquant::QuantModel;
use axtensor::Tensor;

use crate::eval::{adversarial_accuracy, craft_adversarial_set};

/// One source model for the study.
#[derive(Debug)]
pub struct TransferSource<'a> {
    /// Display name (e.g. `"AccL5"`).
    pub name: String,
    /// The accurate float model the adversary attacks.
    pub model: &'a Sequential,
}

/// One victim AxDNN for the study.
#[derive(Debug)]
pub struct TransferVictim<'a> {
    /// Display name (e.g. `"AxL5"`).
    pub name: String,
    /// The quantized victim.
    pub qmodel: &'a QuantModel,
    /// The victim's approximate multiplier.
    pub mult: &'a MulLut,
    /// The victim's test set (must be shaped for both source and victim).
    pub data: &'a Dataset,
}

/// Accuracy before/after the attack, as fractions in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferCell {
    /// Victim accuracy on clean examples.
    pub before: f32,
    /// Victim accuracy on examples crafted on the source.
    pub after: f32,
}

impl TransferCell {
    /// Renders as the paper's `X/Y` (percent before / after).
    fn as_paper_entry(&self) -> String {
        format!("{:.0}/{:.0}", 100.0 * self.before, 100.0 * self.after)
    }
}

/// The full Table II structure.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferTable {
    /// Attack used (paper: BIM-linf at eps 0.05).
    pub attack: String,
    /// Budget used.
    pub eps: f32,
    /// Source names (rows).
    pub sources: Vec<String>,
    /// Victim names (columns).
    pub victims: Vec<String>,
    /// `cells[source][victim]`.
    pub cells: Vec<Vec<TransferCell>>,
}

impl TransferTable {
    /// Renders a Markdown table in the paper's layout.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "Transferability with {} (eps = {}). X/Y = accuracy before/after attack.\n\n| source \\ victim |",
            self.attack, self.eps
        );
        for v in &self.victims {
            out.push_str(&format!(" {v} |"));
        }
        out.push_str("\n|---|");
        out.push_str(&"---|".repeat(self.victims.len()));
        out.push('\n');
        for (s, row) in self.sources.iter().zip(&self.cells) {
            out.push_str(&format!("| {s} |"));
            for cell in row {
                out.push_str(&format!(" {} |", cell.as_paper_entry()));
            }
            out.push('\n');
        }
        out
    }
}

/// Runs the study: every source × every victim.
///
/// For each victim, `before` is its accuracy on the clean test set and
/// `after` its accuracy on adversarial examples crafted on the source
/// model over the *same* examples. Crafting (batched per set) only
/// depends on the source model and the victim's dataset, so victims
/// sharing a test set — the paper's Table II layout — share one crafted
/// set per source instead of re-crafting per cell. Each cell is scored
/// by [`QuantModel::accuracy_with`] (clean) and
/// [`adversarial_accuracy`] (crafted).
///
/// # Panics
///
/// Panics if a victim's dataset is empty.
pub fn transferability(
    sources: &[TransferSource<'_>],
    victims: &[TransferVictim<'_>],
    attack: AttackId,
    eps: f32,
    n_examples: usize,
    seed: u64,
) -> TransferTable {
    let mut cells = Vec::with_capacity(sources.len());
    for source in sources {
        // Crafted sets for this source, keyed by victim dataset identity.
        let mut crafted: Vec<(*const Dataset, Vec<(Tensor, usize)>)> = Vec::new();
        let mut row = Vec::with_capacity(victims.len());
        for victim in victims {
            let n = n_examples.min(victim.data.len());
            assert!(n > 0, "transferability needs a non-empty victim dataset");
            let before = victim.qmodel.accuracy_with(victim.data, victim.mult, n);

            let key = victim.data as *const Dataset;
            let idx = match crafted.iter().position(|(k, _)| *k == key) {
                Some(idx) => idx,
                None => {
                    let advs =
                        craft_adversarial_set(source.model, attack, victim.data, eps, n, seed);
                    crafted.push((key, advs));
                    crafted.len() - 1
                }
            };
            let after = adversarial_accuracy(victim.qmodel, victim.mult, &crafted[idx].1);
            row.push(TransferCell { before, after });
        }
        cells.push(row);
    }
    TransferTable {
        attack: attack.name().to_owned(),
        eps,
        sources: sources.iter().map(|s| s.name.clone()).collect(),
        victims: victims.iter().map(|v| v.name.clone()).collect(),
        cells,
    }
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
    use axutil::rng::Rng;

    #[test]
    fn self_transfer_hurts_more_than_clean() {
        let train = SynthMnist::generate(&MnistConfig {
            n: 400,
            seed: 41,
            ..Default::default()
        });
        let test = SynthMnist::generate(&MnistConfig {
            n: 40,
            seed: 42,
            ..Default::default()
        });
        let mut model = zoo::ffnn(&mut Rng::seed_from_u64(1));
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
        let reg = Registry::standard();
        let lut = reg.build_lut("17KS").unwrap();

        let sources = [TransferSource {
            name: "AccFFNN".into(),
            model: &model,
        }];
        let victims = [TransferVictim {
            name: "AxFFNN".into(),
            qmodel: &q,
            mult: &lut,
            data: &test,
        }];
        // A strong budget so even quantized victims drop.
        let table = transferability(&sources, &victims, AttackId::BimLinf, 0.2, 30, 7);
        let cell = table.cells[0][0];
        assert!(cell.before > 0.5, "victim should start accurate");
        assert!(cell.after < cell.before, "attack must transfer: {cell:?}");
        let md = table.to_markdown();
        assert!(md.contains("AccFFNN") && md.contains("AxFFNN"));
        assert!(md.contains('/'));
    }

    #[test]
    fn pooled_routing_matches_direct_evaluation() {
        // Each cell means the victim's accuracy_with on the clean set and
        // its adversarial_accuracy on the set crafted on the source.
        let train = SynthMnist::generate(&MnistConfig {
            n: 200,
            seed: 51,
            ..Default::default()
        });
        let test = SynthMnist::generate(&MnistConfig {
            n: 24,
            seed: 52,
            ..Default::default()
        });
        let mut model = zoo::ffnn(&mut Rng::seed_from_u64(2));
        fit(
            &mut model,
            &train,
            &TrainConfig {
                epochs: 1,
                lr: 0.1,
                ..Default::default()
            },
        );
        let calib: Vec<Tensor> = (0..8).map(|i| train.image(i).clone()).collect();
        let q = QuantModel::from_float(&model, &calib, Placement::All).unwrap();
        let reg = Registry::standard();
        let luts = [
            reg.build_lut("17KS").unwrap(),
            reg.build_lut("L40").unwrap(),
        ];

        let sources = [TransferSource {
            name: "Acc".into(),
            model: &model,
        }];
        // Two victims aliasing ONE quantized model with different
        // multipliers.
        let victims: Vec<TransferVictim<'_>> = luts
            .iter()
            .enumerate()
            .map(|(i, lut)| TransferVictim {
                name: format!("Ax{i}"),
                qmodel: &q,
                mult: lut,
                data: &test,
            })
            .collect();
        let n = 16;
        let eps = 0.1;
        let seed = 11;
        let table = transferability(&sources, &victims, AttackId::BimLinf, eps, n, seed);
        let advs =
            crate::eval::craft_adversarial_set(&model, AttackId::BimLinf, &test, eps, n, seed);
        for (victim, row) in victims.iter().zip(&table.cells[0]) {
            let want_before = q.accuracy_with(&test, victim.mult, n);
            let want_after = crate::eval::adversarial_accuracy(&q, victim.mult, &advs);
            assert_eq!(row.before, want_before, "{}: clean accuracy", victim.name);
            assert_eq!(
                row.after, want_after,
                "{}: adversarial accuracy",
                victim.name
            );
        }
    }

    #[test]
    fn paper_entry_formats_percentages() {
        let cell = TransferCell {
            before: 0.98,
            after: 0.09,
        };
        assert_eq!(cell.as_paper_entry(), "98/9");
    }
}
