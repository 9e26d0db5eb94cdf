//! Exhaustive error metrics and physical-cost proxies.
//!
//! [`ErrorMetrics`] reproduces the quantities the EvoApprox8b datasheets
//! report for each multiplier (MAE, worst-case error, error probability,
//! signed bias) and which the paper uses to rank multipliers ("the lower
//! the MAE, the higher the inference accuracy"). Percentages are
//! normalized by the maximum exact output (`(2^w - 1)^2` for a `w x w`
//! multiplier), matching the EvoApprox convention of error-per-output-range.
//!
//! [`AreaReport`] provides unit-gate area, critical-path delay and a
//! switching-power proxy so the energy-vs-robustness trade-off the paper
//! motivates (approximate multipliers exist to save energy) can be
//! reported alongside accuracy.

use crate::netlist::{Netlist, Node};

/// Exhaustive arithmetic-error statistics of a 2-operand circuit against
/// the exact product reference.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorMetrics {
    /// Mean absolute error, in output LSBs.
    pub mae: f64,
    /// Mean absolute error as a percentage of the maximum exact output.
    pub mae_pct: f64,
    /// Worst-case absolute error, in output LSBs.
    pub wce: u32,
    /// Worst-case error as a percentage of the maximum exact output.
    pub wce_pct: f64,
    /// Fraction of input pairs that produce any error.
    pub error_rate: f64,
    /// Signed mean error (positive = overestimates), in output LSBs.
    pub mean_error: f64,
    /// Mean squared error, in squared LSBs.
    pub mse: f64,
}

impl ErrorMetrics {
    /// Computes metrics for an exhaustive `w x w` multiplier table indexed
    /// by `(b << w) | a` or by `(a << w) | b`: either operand order gives
    /// bit-identical metrics, since the exact product is symmetric and
    /// every sum is of integers below 2^53, so exact in any order.
    ///
    /// # Panics
    ///
    /// Panics if the table length is not `2^(2w)`.
    pub fn from_mul_table(table: &[u16], w: usize) -> Self {
        assert_eq!(table.len(), 1usize << (2 * w), "table size mismatch");
        let n = 1usize << w;
        let max_out = ((n - 1) * (n - 1)) as f64;
        let mut abs_sum = 0f64;
        let mut signed_sum = 0f64;
        let mut sq_sum = 0f64;
        let mut wce = 0u32;
        let mut errs = 0usize;
        for b in 0..n {
            for a in 0..n {
                let approx = table[(b << w) | a] as i64;
                let exact = (a * b) as i64;
                let e = approx - exact;
                if e != 0 {
                    errs += 1;
                }
                let ae = e.unsigned_abs() as u32;
                wce = wce.max(ae);
                abs_sum += ae as f64;
                signed_sum += e as f64;
                sq_sum += (e * e) as f64;
            }
        }
        let total = (n * n) as f64;
        let mae = abs_sum / total;
        ErrorMetrics {
            mae,
            mae_pct: 100.0 * mae / max_out,
            wce,
            wce_pct: 100.0 * wce as f64 / max_out,
            error_rate: errs as f64 / total,
            mean_error: signed_sum / total,
            mse: sq_sum / total,
        }
    }

    /// True if the circuit is arithmetically exact.
    pub fn is_exact(&self) -> bool {
        self.wce == 0
    }
}

impl std::fmt::Display for ErrorMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MAE {:.4}% | WCE {:.3}% | err-rate {:.1}% | bias {:+.2} LSB",
            self.mae_pct,
            self.wce_pct,
            100.0 * self.error_rate,
            self.mean_error
        )
    }
}

/// Unit-gate physical cost proxies for a netlist.
///
/// Area is a static-CMOS transistor-count proxy, delay is the longest
/// input-to-output path in unit gate delays, and power is the sum over
/// gates of `capacitance x 2 p (1 - p)` with `p` the exhaustive signal
/// probability — the standard zero-delay switching-activity estimate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaReport {
    /// Number of logic gates.
    pub gates: usize,
    /// Transistor-count area proxy.
    pub area: u32,
    /// Critical-path length in unit gate delays.
    pub delay: u32,
    /// Switching-power proxy (arbitrary units).
    pub power: f64,
}

/// Per-gate transistor counts (static CMOS) and unit delays.
fn gate_cost(node: &Node) -> (u32, u32) {
    match node {
        Node::Input(_) | Node::Const(_) => (0, 0),
        Node::Not(_) => (2, 1),
        Node::Nand(..) | Node::Nor(..) => (4, 1),
        Node::And(..) | Node::Or(..) => (6, 2),
        Node::Xor(..) | Node::Xnor(..) => (10, 2),
    }
}

impl AreaReport {
    /// Computes the report for a netlist (exhaustive signal probabilities,
    /// so the netlist must have at most 16 inputs).
    pub fn of(nl: &Netlist) -> Self {
        let probs = nl.signal_probabilities();
        let mut area = 0u32;
        let mut power = 0f64;
        let mut depth = vec![0u32; nl.len()];
        let mut delay = 0u32;
        for (i, node) in nl.nodes().iter().enumerate() {
            let (a, d) = gate_cost(node);
            area += a;
            let in_depth = match *node {
                Node::Input(_) | Node::Const(_) => 0,
                Node::Not(x) => depth[x.index()],
                Node::And(x, y)
                | Node::Or(x, y)
                | Node::Xor(x, y)
                | Node::Nand(x, y)
                | Node::Nor(x, y)
                | Node::Xnor(x, y) => depth[x.index()].max(depth[y.index()]),
            };
            depth[i] = in_depth + d;
            let p = probs[i];
            power += a as f64 * 2.0 * p * (1.0 - p);
        }
        for o in nl.outputs() {
            delay = delay.max(depth[o.index()]);
        }
        AreaReport {
            gates: nl.gate_count(),
            area,
            delay,
            power,
        }
    }

    /// Relative savings of `self` versus a `baseline` (1.0 = free,
    /// 0.0 = same cost). Negative values mean *more* expensive.
    pub fn savings_vs(&self, baseline: &AreaReport) -> (f64, f64) {
        let area = 1.0 - self.area as f64 / baseline.area.max(1) as f64;
        let power = 1.0 - self.power / baseline.power.max(1e-12);
        (area, power)
    }
}

impl std::fmt::Display for AreaReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} gates | area {} T | delay {} | power {:.1}",
            self.gates, self.area, self.delay, self.power
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::{ApproxSpec, ArrayMultiplier};

    #[test]
    fn exact_multiplier_has_zero_error() {
        let nl = ArrayMultiplier::new(8, ApproxSpec::exact()).build();
        let m = ErrorMetrics::from_mul_table(&nl.exhaustive_u16(), 8);
        assert!(m.is_exact());
        assert_eq!(m.mae, 0.0);
        assert_eq!(m.error_rate, 0.0);
        assert_eq!(m.mean_error, 0.0);
    }

    #[test]
    fn truncated_multiplier_metrics_are_consistent() {
        let nl = ArrayMultiplier::new(8, ApproxSpec::exact().with_truncate_cols(7)).build();
        let m = ErrorMetrics::from_mul_table(&nl.exhaustive_u16(), 8);
        assert!(!m.is_exact());
        assert!(m.mae > 0.0);
        assert!(m.mae <= m.wce as f64);
        assert!(m.mse >= m.mae * m.mae, "Jensen: E[X^2] >= E[|X|]^2");
        assert!(m.mean_error < 0.0, "truncation biases low");
        assert!((0.0..=1.0).contains(&m.error_rate));
        assert!(m.mae_pct > 0.0 && m.mae_pct < 5.0);
    }

    #[test]
    fn deeper_truncation_is_worse() {
        let mae = |k| {
            let nl = ArrayMultiplier::new(8, ApproxSpec::exact().with_truncate_cols(k)).build();
            ErrorMetrics::from_mul_table(&nl.exhaustive_u16(), 8).mae
        };
        assert!(mae(4) < mae(6));
        assert!(mae(6) < mae(8));
    }

    #[test]
    fn area_report_of_exact_vs_truncated() {
        let exact = ArrayMultiplier::new(8, ApproxSpec::exact()).build();
        let trunc = ArrayMultiplier::new(8, ApproxSpec::exact().with_truncate_cols(8)).build();
        let ra = AreaReport::of(&exact);
        let rt = AreaReport::of(&trunc);
        assert!(ra.gates > 0 && ra.area > 0 && ra.delay > 0 && ra.power > 0.0);
        assert!(rt.area < ra.area, "truncation must shrink area");
        assert!(rt.power < ra.power, "truncation must shrink power");
        let (asave, psave) = rt.savings_vs(&ra);
        assert!(asave > 0.0 && asave < 1.0);
        assert!(psave > 0.0 && psave < 1.0);
    }

    #[test]
    fn delay_of_single_gate_levels() {
        use crate::netlist::Netlist;
        let mut nl = Netlist::new(2);
        let a = nl.input(0);
        let b = nl.input(1);
        let x = nl.nand(a, b); // delay 1
        let y = nl.xor(x, b); // +2 = 3
        nl.push_output(y);
        let r = AreaReport::of(&nl);
        assert_eq!(r.delay, 3);
        assert_eq!(r.area, 4 + 10);
    }

    #[test]
    fn display_formats_are_nonempty() {
        let nl = ArrayMultiplier::new(4, ApproxSpec::exact().with_loa_cols(3)).build();
        let m = ErrorMetrics::from_mul_table(
            &nl.exhaustive()
                .iter()
                .map(|&v| v as u16)
                .collect::<Vec<_>>(),
            4,
        );
        assert!(!m.to_string().is_empty());
        assert!(!AreaReport::of(&nl).to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_table_size_panics() {
        let _ = ErrorMetrics::from_mul_table(&[0u16; 10], 8);
    }
}
