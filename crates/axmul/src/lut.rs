//! Lookup-table multipliers.
//!
//! An 8x8 multiplier has only 2^16 input combinations, so any gate-level
//! multiplier can be flattened into a 64Ki x u16 table (128 KiB — L1/L2
//! resident). During inference this turns every MAC into one table read,
//! which is also exactly how TFApprox applies EvoApprox multipliers on
//! GPUs.

use axcirc::{FaultSet, Netlist};

use crate::kernel::MulKernel;

/// A 64Ki-entry unsigned 8x8 multiplier table, indexed by `(a << 8) | b`.
#[derive(Clone, PartialEq, Eq)]
pub struct MulLut {
    name: String,
    table: Box<[u16]>,
}

impl std::fmt::Debug for MulLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MulLut")
            .field("name", &self.name)
            .field("entries", &self.table.len())
            .finish()
    }
}

impl MulLut {
    /// Builds a table from a function of the two operands.
    pub fn from_fn(name: impl Into<String>, f: impl Fn(u8, u8) -> u16) -> Self {
        let mut table = vec![0u16; 1 << 16].into_boxed_slice();
        for a in 0..=255u16 {
            for b in 0..=255u16 {
                table[((a << 8) | b) as usize] = f(a as u8, b as u8);
            }
        }
        MulLut {
            name: name.into(),
            table,
        }
    }

    /// Flattens a 16-input / 16-output multiplier netlist (operand `a` on
    /// inputs 0..8 little-endian, `b` on inputs 8..16) into a table.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not have 16 inputs.
    pub fn from_netlist(name: impl Into<String>, nl: &Netlist) -> Self {
        assert_eq!(nl.num_inputs(), 16, "expected an 8x8 multiplier netlist");
        // The netlist is indexed by (b << 8) | a; the sweep writes (a << 8) | b.
        let table = nl
            .exhaustive_u16_swapped_with_faults(&FaultSet::empty())
            .into_boxed_slice();
        MulLut {
            name: name.into(),
            table,
        }
    }

    /// The exact multiplier as a table (useful to benchmark LUT overhead).
    pub fn exact() -> Self {
        MulLut::from_fn("exact-lut", |a, b| a as u16 * b as u16)
    }

    /// The raw table, indexed by `(a << 8) | b`.
    pub fn table(&self) -> &[u16] {
        &self.table
    }
}

impl MulKernel for MulLut {
    #[inline]
    fn mul(&self, a: u8, b: u8) -> u16 {
        // Index is always < 2^16 and the table has exactly 2^16 entries.
        unsafe { *self.table.get_unchecked(((a as usize) << 8) | b as usize) }
    }

    fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn lut_table(&self) -> Option<&[u16]> {
        Some(&self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcirc::{ApproxSpec, ArrayMultiplier};

    #[test]
    fn exact_lut_matches_builtin() {
        let lut = MulLut::exact();
        for a in (0..=255u8).step_by(3) {
            for b in (0..=255u8).step_by(7) {
                assert_eq!(lut.mul(a, b), a as u16 * b as u16);
            }
        }
    }

    #[test]
    fn from_netlist_matches_netlist_everywhere() {
        let nl = ArrayMultiplier::new(8, ApproxSpec::exact().with_loa_cols(6)).build();
        let lut = MulLut::from_netlist("loa6", &nl);
        let raw = nl.exhaustive_u16();
        for a in 0..=255usize {
            for b in 0..=255usize {
                assert_eq!(lut.mul(a as u8, b as u8), raw[(b << 8) | a]);
            }
        }
    }

    #[test]
    fn lut_classifies_as_table_backend() {
        use crate::kernel::MulBackend;
        let lut = MulLut::exact();
        let be = MulBackend::of(&lut);
        assert!(matches!(be, MulBackend::Table(_)));
        assert_eq!(be.mul(251, 13), 251 * 13);
    }

    #[test]
    fn debug_shows_name_not_table() {
        let lut = MulLut::exact();
        let dbg = format!("{lut:?}");
        assert!(dbg.contains("exact-lut"));
        assert!(dbg.len() < 200, "must not dump 64Ki entries");
    }
}
