//! Exact and approximate adder cells.
//!
//! A *cell* maps `(a, b, cin)` to `(sum, cout)`. The exact cell implements
//! binary addition; the approximate cells trade correctness on a few truth
//! table rows for smaller logic, in the spirit of the approximate
//! mirror-adder (AMA) and approximate XOR-adder (AXA) families used by the
//! defensive-approximation literature the paper responds to. Each variant
//! documents its complete truth table and its signed error pattern, because
//! it is exactly this error pattern (bias vs. zero-mean, masked vs.
//! unmasked) that drives the paper's "approximation is not universally
//! defensive" argument.

use crate::netlist::{Netlist, NodeId};

/// An approximate full-adder cell choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ApproxCell {
    /// Exact full adder: `sum = a^b^cin`, `cout = maj(a,b,cin)`.
    #[default]
    Exact,
    /// AMA1-style: exact `cout`, `sum = !cout`.
    ///
    /// Truth table errors (a b cin → sum): `000` reports 1 (+1) and `111`
    /// reports 0 (−1). Two errors in eight rows, zero mean error.
    SumNotCout,
    /// AXA-style pass-through: `sum = a`, exact `cout`.
    ///
    /// Sum is wrong whenever `b ^ cin = 1` (four rows), with symmetric +1/−1
    /// errors: zero mean error, higher error rate.
    SumIsA,
    /// Carry-blind sum: `sum = a ^ b` (ignores `cin`), exact `cout`.
    ///
    /// Sum is wrong whenever `cin = 1` (four rows), zero mean error. Errors
    /// correlate with carry activity, so they cluster on busy columns.
    SumIgnoresCarry,
    /// OR-compressor: `sum = a | b | cin`, `cout = 0`.
    ///
    /// The lower-part-OR (LOA) cell. Overestimates the sum bit when two or
    /// more inputs are 1 but loses the carry: a *negatively biased* cell at
    /// the column above, positively biased locally.
    OrAll,
    /// Truncation: `sum = 0`, `cout = 0`. Always underestimates (negative
    /// bias); used for column truncation.
    Zero,
    /// Compensated truncation: `sum = 1`, `cout = 0`. Adds back the average
    /// mass of a truncated column.
    One,
}

impl ApproxCell {
    /// All cell variants, for enumeration in tests and reports.
    pub const ALL: [ApproxCell; 7] = [
        ApproxCell::Exact,
        ApproxCell::SumNotCout,
        ApproxCell::SumIsA,
        ApproxCell::SumIgnoresCarry,
        ApproxCell::OrAll,
        ApproxCell::Zero,
        ApproxCell::One,
    ];

    /// A short stable identifier used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ApproxCell::Exact => "exact",
            ApproxCell::SumNotCout => "sum-not-cout",
            ApproxCell::SumIsA => "sum-is-a",
            ApproxCell::SumIgnoresCarry => "sum-ignores-carry",
            ApproxCell::OrAll => "or-all",
            ApproxCell::Zero => "zero",
            ApproxCell::One => "one",
        }
    }

    /// The reference behaviour of this cell on concrete bits, used by tests
    /// to pin the emitted netlist to the documented truth table.
    pub fn reference(self, a: bool, b: bool, cin: bool) -> (bool, bool) {
        let exact_sum = a ^ b ^ cin;
        let exact_cout = (a & b) | (b & cin) | (a & cin);
        match self {
            ApproxCell::Exact => (exact_sum, exact_cout),
            ApproxCell::SumNotCout => (!exact_cout, exact_cout),
            ApproxCell::SumIsA => (a, exact_cout),
            ApproxCell::SumIgnoresCarry => (a ^ b, exact_cout),
            ApproxCell::OrAll => (a | b | cin, false),
            ApproxCell::Zero => (false, false),
            ApproxCell::One => (true, false),
        }
    }

    /// Emits this cell into `nl`, returning `(sum, cout)` nodes.
    pub fn emit(self, nl: &mut Netlist, a: NodeId, b: NodeId, cin: NodeId) -> (NodeId, NodeId) {
        match self {
            ApproxCell::Exact => {
                let sum = nl.xor3(a, b, cin);
                let cout = nl.maj3(a, b, cin);
                (sum, cout)
            }
            ApproxCell::SumNotCout => {
                let cout = nl.maj3(a, b, cin);
                let sum = nl.not(cout);
                (sum, cout)
            }
            ApproxCell::SumIsA => {
                let cout = nl.maj3(a, b, cin);
                (a, cout)
            }
            ApproxCell::SumIgnoresCarry => {
                let sum = nl.xor(a, b);
                let cout = nl.maj3(a, b, cin);
                (sum, cout)
            }
            ApproxCell::OrAll => {
                let ab = nl.or(a, b);
                let sum = nl.or(ab, cin);
                let zero = nl.constant(false);
                (sum, zero)
            }
            ApproxCell::Zero => {
                let zero = nl.constant(false);
                (zero, zero)
            }
            ApproxCell::One => {
                let one = nl.constant(true);
                let zero = nl.constant(false);
                (one, zero)
            }
        }
    }
}

/// Emits an exact half adder: `sum = a ^ b`, `cout = a & b`.
pub fn half_adder(nl: &mut Netlist, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    let sum = nl.xor(a, b);
    let cout = nl.and(a, b);
    (sum, cout)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a 3-input netlist exposing `(sum, cout)` of one cell.
    fn cell_netlist(cell: ApproxCell) -> Netlist {
        let mut nl = Netlist::new(3);
        let (a, b, c) = (nl.input(0), nl.input(1), nl.input(2));
        let (s, co) = cell.emit(&mut nl, a, b, c);
        nl.set_outputs(vec![s, co]);
        nl
    }

    #[test]
    fn every_cell_matches_its_documented_truth_table() {
        for cell in ApproxCell::ALL {
            let nl = cell_netlist(cell);
            for bits in 0..8u64 {
                let (a, b, c) = (bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1);
                let (want_s, want_c) = cell.reference(a, b, c);
                let o = nl.eval_bits(bits);
                assert_eq!(o & 1 == 1, want_s, "{} sum at {bits:03b}", cell.name());
                assert_eq!(
                    o >> 1 & 1 == 1,
                    want_c,
                    "{} cout at {bits:03b}",
                    cell.name()
                );
            }
        }
    }

    #[test]
    fn exact_cell_is_exact() {
        for bits in 0..8u32 {
            let (a, b, c) = (bits & 1, bits >> 1 & 1, bits >> 2 & 1);
            let (s, co) = ApproxCell::Exact.reference(a == 1, b == 1, c == 1);
            let total = a + b + c;
            assert_eq!(s as u32, total & 1);
            assert_eq!(co as u32, total >> 1);
        }
    }

    #[test]
    fn sum_not_cout_errs_only_on_000_and_111() {
        let mut bad = Vec::new();
        for bits in 0..8u32 {
            let (a, b, c) = (bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1);
            let (s, co) = ApproxCell::SumNotCout.reference(a, b, c);
            let (es, ec) = ApproxCell::Exact.reference(a, b, c);
            if (s, co) != (es, ec) {
                bad.push(bits);
            }
        }
        assert_eq!(bad, vec![0b000, 0b111]);
    }

    #[test]
    fn cell_error_counts_match_documentation() {
        // (cell, expected number of erroneous truth-table rows counting
        // sum and cout errors as row errors)
        let expect = [
            (ApproxCell::Exact, 0),
            (ApproxCell::SumNotCout, 2),
            (ApproxCell::SumIsA, 4),
            (ApproxCell::SumIgnoresCarry, 4),
        ];
        for (cell, want) in expect {
            let mut errs = 0;
            for bits in 0..8u32 {
                let (a, b, c) = (bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1);
                if cell.reference(a, b, c) != ApproxCell::Exact.reference(a, b, c) {
                    errs += 1;
                }
            }
            assert_eq!(errs, want, "{}", cell.name());
        }
    }

    #[test]
    fn zero_mean_cells_have_zero_signed_sum_error() {
        // Sum-bit errors of the zero-bias cells cancel over the truth table.
        for cell in [
            ApproxCell::SumNotCout,
            ApproxCell::SumIsA,
            ApproxCell::SumIgnoresCarry,
        ] {
            let mut signed = 0i32;
            for bits in 0..8u32 {
                let (a, b, c) = (bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1);
                let (s, _) = cell.reference(a, b, c);
                let (es, _) = ApproxCell::Exact.reference(a, b, c);
                signed += s as i32 - es as i32;
            }
            assert_eq!(signed, 0, "{}", cell.name());
        }
    }

    #[test]
    fn half_adder_is_exact() {
        let mut nl = Netlist::new(2);
        let (a, b) = (nl.input(0), nl.input(1));
        let (s, c) = half_adder(&mut nl, a, b);
        nl.set_outputs(vec![s, c]);
        for bits in 0..4u64 {
            let (x, y) = (bits & 1, bits >> 1 & 1);
            let o = nl.eval_bits(bits);
            assert_eq!(o & 1, (x + y) & 1);
            assert_eq!(o >> 1 & 1, (x + y) >> 1);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ApproxCell::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ApproxCell::ALL.len());
    }
}
