//! Quantization levels — the `Qlevel` input of the paper's Algorithm 1.
//!
//! The paper's experiments fix 8-bit fixed point, but Algorithm 1 takes
//! the quantization level as an input. This module generalizes the
//! engine's scales to 2..=8-bit weights/activations so the
//! robustness-vs-precision surface can be explored (see
//! `repro qlevel_sweep` in the `bench` crate). Values always *fit inside* the 8-bit
//! multiplier operands — a lower level just leaves high bits unused,
//! exactly like driving a narrow value onto a wider hardware multiplier.

use crate::qparams::QuantParams;

/// A weight/activation bit-width pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QLevel {
    weight_bits: u8,
    act_bits: u8,
}

impl QLevel {
    /// The paper's configuration: 8-bit weights and activations.
    pub const INT8: QLevel = QLevel {
        weight_bits: 8,
        act_bits: 8,
    };

    /// Creates a level.
    ///
    /// # Panics
    ///
    /// Panics unless both widths are in `2..=8` (they must fit the 8-bit
    /// multiplier operands, and 1-bit symmetric weights cannot represent
    /// sign + magnitude).
    pub fn new(weight_bits: u8, act_bits: u8) -> Self {
        assert!(
            (2..=8).contains(&weight_bits) && (2..=8).contains(&act_bits),
            "bit widths must be in 2..=8, got w{weight_bits}/a{act_bits}"
        );
        QLevel {
            weight_bits,
            act_bits,
        }
    }

    /// Weight bit width.
    pub fn weight_bits(self) -> u8 {
        self.weight_bits
    }

    /// Activation bit width.
    pub fn act_bits(self) -> u8 {
        self.act_bits
    }

    /// Largest representable weight magnitude (`2^(w-1) - 1`).
    pub fn weight_qmax(self) -> i32 {
        (1 << (self.weight_bits - 1)) - 1
    }

    /// Largest representable activation code (`2^a - 1`).
    pub fn act_qmax(self) -> u32 {
        (1u32 << self.act_bits) - 1
    }

    /// Weight quantization parameters for a tensor with `max_abs` range.
    pub fn weight_params(self, max_abs: f32) -> QuantParams {
        QuantParams::from_scale((max_abs / self.weight_qmax() as f32).max(1e-12))
    }

    /// Activation quantization parameters for a `[0, max]` range.
    pub fn act_params(self, max: f32) -> QuantParams {
        QuantParams::from_scale((max / self.act_qmax() as f32).max(1e-12))
    }
}

impl Default for QLevel {
    fn default() -> Self {
        QLevel::INT8
    }
}

impl std::fmt::Display for QLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}a{}", self.weight_bits, self.act_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_matches_legacy_ranges() {
        let q = QLevel::INT8;
        assert_eq!(q.weight_qmax(), 127);
        assert_eq!(q.act_qmax(), 255);
        // Same scales as the original 8-bit helpers.
        assert_eq!(
            q.weight_params(2.0).scale(),
            QuantParams::for_weights(2.0).scale()
        );
        assert_eq!(
            q.act_params(1.0).scale(),
            QuantParams::for_activations(1.0).scale()
        );
    }

    #[test]
    fn lower_levels_have_coarser_scales() {
        let s8 = QLevel::new(8, 8).weight_params(1.0).scale();
        let s4 = QLevel::new(4, 8).weight_params(1.0).scale();
        assert!(s4 > s8, "4-bit steps must be coarser");
        assert_eq!(QLevel::new(4, 8).weight_qmax(), 7);
        assert_eq!(QLevel::new(8, 4).act_qmax(), 15);
    }

    #[test]
    fn display_reads_naturally() {
        assert_eq!(QLevel::new(6, 8).to_string(), "w6a8");
    }

    #[test]
    #[should_panic(expected = "bit widths")]
    fn one_bit_rejected() {
        let _ = QLevel::new(1, 8);
    }

    #[test]
    #[should_panic(expected = "bit widths")]
    fn nine_bits_rejected() {
        let _ = QLevel::new(8, 9);
    }
}
