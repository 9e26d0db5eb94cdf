//! Multiplier kernels with stuck-at faults baked into the table.
//!
//! A [`FaultedMul`] is a registry multiplier with a
//! [`FaultSet`] injected at the netlist layer
//! and the resulting defective behaviour flattened into the usual
//! 64Ki-entry LUT. Characterization is the netlist's one exhaustive
//! sweep (16 words of 64 input vectors per node dispatch; see
//! [`axcirc::netlist`]) with the faulted nodes' words forced, the same
//! sweep that builds a fault-free [`MulLut`](crate::lut::MulLut), so a
//! rebuild costs about as much as one registry LUT build. Because the
//! fault forcing happens during exhaustive characterization, the kernel
//! drops straight into the existing
//! [`MulBackend::Table`](crate::kernel::MulBackend) dispatch — the hot
//! GEMM loops are untouched, and the same mechanism will scale to
//! 12/16-bit multipliers later since nothing fault-specific lives in the
//! inference path.

use axcirc::faults::FaultSet;
use axcirc::Netlist;

use crate::kernel::MulKernel;

/// An 8x8 multiplier LUT with a stuck-at fault set injected.
#[derive(Clone, PartialEq, Eq)]
pub struct FaultedMul {
    name: String,
    faults: FaultSet,
    table: Box<[u16]>,
}

impl std::fmt::Debug for FaultedMul {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultedMul")
            .field("name", &self.name)
            .field("faults", &self.faults.len())
            .finish()
    }
}

impl FaultedMul {
    /// Characterizes `nl` with `faults` injected into every evaluation
    /// and flattens the defective function into a `(a << 8) | b` table.
    ///
    /// The kernel name is `"{base_name}+{faults}"` (just `base_name` for
    /// the empty set, which reproduces the fault-free
    /// [`MulLut`](crate::lut::MulLut) table bit for bit).
    ///
    /// # Panics
    ///
    /// Panics if the netlist is not a 16-input multiplier or a fault
    /// targets a node outside it.
    pub fn from_netlist(base_name: &str, nl: &Netlist, faults: FaultSet) -> Self {
        assert_eq!(nl.num_inputs(), 16, "expected an 8x8 multiplier netlist");
        // Netlist tables are (b << 8) | a; the sweep writes (a << 8) | b.
        let table = nl
            .exhaustive_u16_swapped_with_faults(&faults)
            .into_boxed_slice();
        let name = if faults.is_empty() {
            base_name.to_string()
        } else {
            format!("{base_name}+{faults}")
        };
        FaultedMul {
            name,
            faults,
            table,
        }
    }

    /// The injected fault set.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The raw defective table, indexed by `(a << 8) | b`.
    pub fn table(&self) -> &[u16] {
        &self.table
    }
}

impl MulKernel for FaultedMul {
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
    use crate::kernel::MulBackend;
    use crate::lut::MulLut;
    use crate::registry::Registry;
    use axcirc::faults::{Fault, StuckAt};

    #[test]
    fn classifies_as_table_backend() {
        let nl = Registry::standard()
            .find("17KS")
            .expect("registered")
            .build_netlist();
        let fk = FaultedMul::from_netlist(
            "17KS",
            &nl,
            FaultSet::single(Fault::new(nl.outputs()[0], StuckAt::One)),
        );
        assert!(matches!(MulBackend::of(&fk), MulBackend::Table(_)));
        assert_eq!(fk.name(), format!("17KS+sa1@{}", nl.outputs()[0]));
    }

    #[test]
    fn empty_fault_set_reproduces_the_clean_lut() {
        let nl = Registry::standard()
            .find("L40")
            .expect("registered")
            .build_netlist();
        let clean = MulLut::from_netlist("L40", &nl);
        let fk = FaultedMul::from_netlist("L40", &nl, FaultSet::empty());
        assert_eq!(fk.table(), clean.table());
        assert_eq!(fk.name(), "L40");
        assert!(fk.faults().is_empty());
    }

    /// Every LeNet-5 column's table, fault-free and with one sampled
    /// gate fault, entry for entry against one per-vector
    /// `eval_bits_with_faults` call (the netlist reads `b` on inputs
    /// 8..16, so vector `(b << 8) | a` is table entry `(a << 8) | b`).
    #[test]
    fn lenet_tables_match_per_vector_evaluation() {
        let reg = Registry::standard();
        for (m, name) in Registry::lenet_set().into_iter().enumerate() {
            let nl = reg.find(name).expect("registered").build_netlist();
            let gate = nl.node_id(nl.len() - 1 - 7 * m);
            let faults = FaultSet::single(Fault::new(gate, StuckAt::One));
            let lut = MulLut::from_netlist(name, &nl);
            let faulted = FaultedMul::from_netlist(name, &nl, faults.clone());
            for a in 0..=255u8 {
                for b in 0..=255u8 {
                    let v = (b as u64) << 8 | a as u64;
                    let want = nl.eval_bits_with_faults(v, &FaultSet::empty()) as u16;
                    assert_eq!(lut.mul(a, b), want, "{name} {a} x {b}");
                    let want = nl.eval_bits_with_faults(v, &faults) as u16;
                    assert_eq!(faulted.mul(a, b), want, "{name}+{faults} {a} x {b}");
                }
            }
        }
    }

    #[test]
    fn output_fault_changes_products() {
        let nl = Registry::standard()
            .find("1JFF")
            .expect("registered")
            .build_netlist();
        let msb = nl.outputs()[15];
        let fk =
            FaultedMul::from_netlist("1JFF", &nl, FaultSet::single(Fault::new(msb, StuckAt::One)));
        // Exact part: every product gains the 2^15 bit.
        assert_eq!(fk.mul(2, 3), 6 | (1 << 15));
        assert_ne!(fk.table(), MulLut::from_netlist("1JFF", &nl).table());
    }
}
