//! The named multiplier registry and the paper's per-figure part sets.
//!
//! Calibration: each EvoApprox8b part name used by the paper is bound to a
//! recipe whose exhaustively measured MAE% approximates the published
//! value where the paper quotes one (17KS = 0.56%, JQQ = 1.12%,
//! L40 = 1.54%, 1JFF exact) and whose error *structure* is chosen to
//! reproduce the part's qualitative behaviour in the paper's figures
//! (clean-accuracy rank at eps = 0; JV3's contrast-reduction fragility;
//! L40/FTA's biased heavy loss). Measured values for every part are
//! printed by `repro multipliers_report` (see the README).

use axcirc::{ApproxCell, ApproxSpec};

use crate::spec::{Family, MulSpec};

/// The registry of named multipliers.
#[derive(Debug, Clone)]
pub struct Registry {
    specs: Vec<MulSpec>,
}

impl Registry {
    /// Builds the standard registry with every part the paper references.
    pub fn standard() -> Self {
        let u = Family::Unsigned8;
        let s = Family::Signed8;
        let specs = vec![
            // ---- LeNet-5 / MNIST set (Fig 4-6, M1..M9) ----
            // M1: the accurate reference part.
            MulSpec::new("1JFF", u, ApproxSpec::exact(), 0.0),
            // M2: near-exact; OR-compressed lowest two columns.
            MulSpec::new("96D", u, ApproxSpec::exact().with_loa_cols(2), 0.0002),
            // M3: near-exact; three LOA columns.
            MulSpec::new("12N4", u, ApproxSpec::exact().with_loa_cols(3), 0.0012),
            // M4: published MAE 0.56%; carry-blind cells in the low 9
            // columns give ~0.47% with low bias.
            MulSpec::new(
                "17KS",
                u,
                ApproxSpec::exact().with_approx_cols(9, ApproxCell::SumIgnoresCarry),
                0.56,
            ),
            // M5: the positive-bias part: sum=!cout cells fire on the
            // all-zero rows that dominate partial products, inflating
            // results — the opposite error sign to 17KS.
            MulSpec::new(
                "1AGV",
                u,
                ApproxSpec::exact().with_approx_cols(7, ApproxCell::SumNotCout),
                0.15,
            ),
            // M6: biased truncation; the paper's FTA loses markedly more
            // clean accuracy than same-MAE parts.
            MulSpec::new(
                "FTA",
                u,
                ApproxSpec::exact()
                    .with_truncate_cols(8)
                    .with_compensation(),
                0.51,
            ),
            // M7: published MAE 1.12%; carry-blind cells through column 10
            // keep bias low, which is why JQQ retains high clean accuracy.
            MulSpec::new(
                "JQQ",
                u,
                ApproxSpec::exact().with_approx_cols(10, ApproxCell::SumIgnoresCarry),
                1.12,
            ),
            // M8: published MAE 1.54%; compensated truncation plus
            // carry-blind cells above it — the paper's weakest part
            // (90% clean accuracy; ours measures ~93%).
            MulSpec::new(
                "L40",
                u,
                ApproxSpec::exact()
                    .with_truncate_cols(8)
                    .with_compensation()
                    .with_approx_cols(9, ApproxCell::SumIgnoresCarry),
                1.54,
            ),
            // M9: pass-through sum cells (sum = a) through column 9 —
            // errors keyed to operand bit patterns (fire when b ^ cin = 1),
            // the input-coupled structure behind JV3's contrast-reduction
            // fragility (Fig 6a).
            MulSpec::new(
                "JV3",
                u,
                ApproxSpec::exact().with_approx_cols(9, ApproxCell::SumIsA),
                0.95,
            ),
            // ---- AlexNet / CIFAR-10 set (Fig 7, M2..M8) ----
            MulSpec::new("2P7", u, ApproxSpec::exact().with_loa_cols(2), 0.0002),
            MulSpec::new("KEM", u, ApproxSpec::exact().with_loa_cols(3), 0.0012),
            MulSpec::new(
                "150Q",
                u,
                ApproxSpec::exact().with_approx_cols(4, ApproxCell::SumIgnoresCarry),
                0.0065,
            ),
            MulSpec::new("14VP", u, ApproxSpec::exact().with_loa_cols(4), 0.0051),
            MulSpec::new(
                "QJD",
                u,
                ApproxSpec::exact().with_approx_cols(6, ApproxCell::SumNotCout),
                0.056,
            ),
            MulSpec::new("1446", u, ApproxSpec::exact().with_loa_cols(5), 0.017),
            MulSpec::new(
                "GS2",
                u,
                ApproxSpec::exact().with_approx_cols(6, ApproxCell::SumIgnoresCarry),
                0.043,
            ),
            // ---- Fig 1 signed pair (FFNN study) ----
            MulSpec::new("1JFF_S", s, ApproxSpec::exact(), 0.0),
            MulSpec::new(
                "L1G",
                s,
                ApproxSpec::exact().with_approx_cols(8, ApproxCell::SumIgnoresCarry),
                0.23,
            ),
        ];
        Registry { specs }
    }

    /// All registered specifications.
    pub fn specs(&self) -> &[MulSpec] {
        &self.specs
    }

    /// Looks up a part by name.
    pub fn find(&self, name: &str) -> Option<&MulSpec> {
        self.specs.iter().find(|s| s.name() == name)
    }

    /// Builds the inference LUT for a named part.
    pub fn build_lut(&self, name: &str) -> Option<crate::lut::MulLut> {
        self.find(name).map(|s| s.build_lut())
    }

    /// The LeNet-5 / MNIST part names in paper order (M1..M9).
    pub fn lenet_set() -> [&'static str; 9] {
        [
            "1JFF", "96D", "12N4", "17KS", "1AGV", "FTA", "JQQ", "L40", "JV3",
        ]
    }

    /// The AlexNet / CIFAR-10 part names in paper order (M1..M8).
    pub fn alexnet_set() -> [&'static str; 8] {
        ["1JFF", "2P7", "KEM", "150Q", "14VP", "QJD", "1446", "GS2"]
    }

    /// The Fig 1 signed pair (accurate, approximate) for the FFNN study.
    pub fn fig1_signed_pair() -> (&'static str, &'static str) {
        ("1JFF_S", "L1G")
    }

    /// The Fig 1 unsigned pair (accurate, approximate) for the LeNet study.
    pub fn fig1_unsigned_pair() -> (&'static str, &'static str) {
        ("1JFF", "17KS")
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcirc::ErrorMetrics;

    #[test]
    fn every_paper_set_name_is_registered() {
        let reg = Registry::standard();
        for name in Registry::lenet_set() {
            assert!(reg.find(name).is_some(), "missing {name}");
        }
        for name in Registry::alexnet_set() {
            assert!(reg.find(name).is_some(), "missing {name}");
        }
        let (a, b) = Registry::fig1_signed_pair();
        assert!(reg.find(a).is_some() && reg.find(b).is_some());
    }

    #[test]
    fn names_are_unique() {
        let reg = Registry::standard();
        let mut names: Vec<_> = reg.specs().iter().map(|s| s.name().to_owned()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), reg.specs().len());
    }

    #[test]
    fn m1_is_exact_everything_else_is_not() {
        let reg = Registry::standard();
        assert!(reg.find("1JFF").unwrap().is_exact());
        assert!(reg.find("1JFF_S").unwrap().is_exact());
        for name in Registry::lenet_set().iter().skip(1) {
            assert!(
                !reg.find(name).unwrap().is_exact(),
                "{name} should approximate"
            );
        }
    }

    #[test]
    fn measured_mae_tracks_calibration_target() {
        // Every approximate part must land within a factor of 3 of its
        // calibration target (the targets span 4 orders of magnitude, so
        // this pins the ranking without over-fitting the recipes). The
        // loosest case is L40, whose recipe prioritizes matching the
        // part's *behavioral* rank — the paper's largest clean-accuracy
        // damage — over its published MAE figure.
        let reg = Registry::standard();
        for spec in reg.specs() {
            let lut = spec.build_lut();
            let m = ErrorMetrics::from_mul_table(lut.table(), 8);
            if spec.is_exact() {
                assert!(m.is_exact(), "{} must be exact", spec.name());
                continue;
            }
            let target = spec.target_mae_pct();
            assert!(
                m.mae_pct > target / 3.0 && m.mae_pct < target * 3.0,
                "{}: measured MAE {:.4}% vs target {:.4}%",
                spec.name(),
                m.mae_pct,
                target
            );
        }
    }

    #[test]
    fn lut_order_metrics_equal_the_netlist_order_datasheet() {
        // `MulLut` tables are indexed `(a << 8) | b`, the netlist sweep
        // `(b << 8) | a`; the metrics must not tell them apart.
        for spec in Registry::standard().specs() {
            assert_eq!(
                ErrorMetrics::from_mul_table(spec.build_lut().table(), 8),
                crate::metrics::Datasheet::of(spec).error,
                "{}",
                spec.name()
            );
        }
    }

    #[test]
    fn lenet_set_clean_error_ranking_sane() {
        // The paper's clean accuracies rank 1JFF/96D/12N4 (98) above
        // 17KS/1AGV/JQQ (96) above JV3 (93) above FTA (91) / L40 (90).
        // MAE alone does not determine that rank (JQQ!) — but the
        // near-exact parts must measure far below the heavy parts.
        let reg = Registry::standard();
        let mae = |n: &str| {
            let lut = reg.build_lut(n).unwrap();
            ErrorMetrics::from_mul_table(lut.table(), 8).mae_pct
        };
        assert!(mae("96D") < 0.001);
        assert!(mae("12N4") < 0.005);
        assert!(mae("17KS") > 0.1 && mae("17KS") < 1.0);
        assert!(mae("L40") > mae("17KS"));
        assert!(mae("JQQ") > mae("17KS"));
    }

    #[test]
    fn bias_structure_differs_between_fta_and_17ks() {
        // FTA (truncation) must be far more negatively biased than 17KS
        // (carry-blind cells) at comparable MAE — the error-structure
        // distinction the reproduction relies on.
        let reg = Registry::standard();
        let bias = |n: &str| {
            let lut = reg.build_lut(n).unwrap();
            ErrorMetrics::from_mul_table(lut.table(), 8).mean_error
        };
        assert!(bias("FTA") < bias("17KS"));
        assert!(bias("1AGV") > 0.0, "1AGV is the positive-bias part");
    }

    #[test]
    fn build_lut_unknown_name_is_none() {
        assert!(Registry::standard().build_lut("NOPE").is_none());
    }
}
