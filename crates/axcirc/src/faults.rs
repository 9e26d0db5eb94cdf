//! Stuck-at fault injection for the word-parallel simulator.
//!
//! A manufactured accelerator can mis-multiply even when its *design* is
//! the intended (exact or approximate) circuit: a fabrication defect ties
//! one wire permanently to logic 0 or 1. The classic single stuck-at
//! model covers exactly that, and the bit-parallel netlist simulator
//! makes it cheap: a [`Fault`] forces one node's words to all-zeros or
//! all-ones inside the existing topologically-ordered forward pass, so
//! every fanout sees the defective value. A full 2^16-point faulted
//! characterization of an 8x8 multiplier runs the fault-free exhaustive
//! sweep (16 words of 64 vectors per node dispatch, 64 passes over the
//! nodes; see [`crate::netlist`]) with the forced words applied.
//!
//! The module provides
//!
//! * [`Fault`] / [`StuckAt`] / [`FaultSet`] — the fault model. A
//!   [`FaultSet`] holds at most one fault per node (duplicates and
//!   conflicting polarities panic at construction).
//! * [`Netlist::eval_words_with_faults`] / [`Netlist::exhaustive_with_faults`]
//!   — the faulted twins of the fault-free evaluators; an empty set is
//!   bit-identical to the fault-free pass.
//! * [`Netlist::fault_sites`] — the single stuck-at fault universe (both
//!   polarities at every node).
//! * [`Netlist::testability_report`] — per-fault *observability*: the
//!   fraction of exhaustive input points where the fault flips at least
//!   one output. Faults outside the output cone
//!   ([`Netlist::output_cone`]) are never observable.
//!
//! # Examples
//!
//! ```
//! use axcirc::faults::{Fault, FaultSet, StuckAt};
//! use axcirc::netlist::Netlist;
//!
//! // out = a AND b, with the output gate stuck at 1.
//! let mut nl = Netlist::new(2);
//! let (a, b) = (nl.input(0), nl.input(1));
//! let o = nl.and(a, b);
//! nl.push_output(o);
//! let faults = FaultSet::single(Fault::new(o, StuckAt::One));
//! assert_eq!(nl.eval_bits_with_faults(0b00, &faults), 1); // forced high
//! assert_eq!(nl.exhaustive_with_faults(&faults), vec![1, 1, 1, 1]);
//! // The empty set replays the fault-free simulator bit for bit.
//! assert_eq!(nl.exhaustive_with_faults(&FaultSet::empty()), nl.exhaustive());
//! ```

use std::fmt;

use crate::netlist::{lane_word, Netlist, Node, NodeId};

/// The polarity of a stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StuckAt {
    /// The node is tied to logic 0 (`sa0`).
    Zero,
    /// The node is tied to logic 1 (`sa1`).
    One,
}

impl StuckAt {
    /// The 64-lane word the faulted node is forced to.
    pub fn forced_word(self) -> u64 {
        match self {
            StuckAt::Zero => 0,
            StuckAt::One => u64::MAX,
        }
    }
}

impl fmt::Display for StuckAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StuckAt::Zero => write!(f, "sa0"),
            StuckAt::One => write!(f, "sa1"),
        }
    }
}

/// One stuck-at fault: a node tied permanently to a logic level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The defective node.
    pub node: NodeId,
    /// The level it is tied to.
    pub stuck: StuckAt,
}

impl Fault {
    /// Builds a fault (no netlist validation yet — the evaluators check
    /// that the node exists in the netlist they run on).
    pub fn new(node: NodeId, stuck: StuckAt) -> Self {
        Fault { node, stuck }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.stuck, self.node)
    }
}

/// A set of stuck-at faults injected together, at most one per node.
///
/// Stored sorted by node index so the simulator can apply it with a
/// single cursor walk over the topological order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSet {
    faults: Vec<Fault>,
}

impl FaultSet {
    /// The fault-free set.
    pub fn empty() -> Self {
        FaultSet { faults: Vec::new() }
    }

    /// A single-fault set (the classic single stuck-at campaign unit).
    pub fn single(fault: Fault) -> Self {
        FaultSet {
            faults: vec![fault],
        }
    }

    /// Builds a set from arbitrary faults.
    ///
    /// # Panics
    ///
    /// Panics if two faults target the same node: either exact
    /// `duplicate stuck-at faults` or `conflicting stuck-at faults`
    /// (opposite polarities) — a node cannot be tied to both rails.
    pub fn new(mut faults: Vec<Fault>) -> Self {
        faults.sort_by_key(|f| (f.node, f.stuck));
        for pair in faults.windows(2) {
            if pair[0].node == pair[1].node {
                if pair[0].stuck == pair[1].stuck {
                    panic!("duplicate stuck-at faults on node {}", pair[0].node);
                }
                panic!(
                    "conflicting stuck-at faults on node {} (sa0 vs sa1)",
                    pair[0].node
                );
            }
        }
        FaultSet { faults }
    }

    /// The faults, sorted by node index.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults in the set.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether this is the fault-free set.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The `(node index, forced word)` pairs the simulator consumes.
    fn forced_words(&self) -> Vec<(usize, u64)> {
        self.faults
            .iter()
            .map(|f| (f.node.index(), f.stuck.forced_word()))
            .collect()
    }

    /// Panics if any fault targets a node outside `nl`.
    fn check_against(&self, nl: &Netlist) {
        // Sorted: the last fault has the largest node index.
        if let Some(f) = self.faults.last() {
            assert!(
                f.node.index() < nl.len(),
                "fault {f} targets a node outside the netlist ({} nodes)",
                nl.len()
            );
        }
    }
}

impl fmt::Display for FaultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.faults.is_empty() {
            return write!(f, "fault-free");
        }
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, "+")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// One fault's observability: the fraction of exhaustive input points
/// where injecting it changes at least one output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultObservability {
    /// The fault.
    pub fault: Fault,
    /// Fraction of `2^num_inputs` points where an output flips, in
    /// `[0, 1]`. `0.0` means untestable (e.g. outside the output cone).
    pub observability: f64,
}

/// The testability scan over a netlist's whole single stuck-at universe.
#[derive(Debug, Clone, PartialEq)]
pub struct TestabilityReport {
    points: usize,
    entries: Vec<FaultObservability>,
}

impl TestabilityReport {
    /// Per-fault entries, in [`Netlist::fault_sites`] order.
    pub fn entries(&self) -> &[FaultObservability] {
        &self.entries
    }

    /// Number of exhaustive input points each fraction is over.
    pub fn points(&self) -> usize {
        self.points
    }

    /// Observability of one fault, if it is in the scanned universe.
    pub fn observability_of(&self, fault: Fault) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.fault == fault)
            .map(|e| e.observability)
    }

    /// Fraction of faults observable at some input point (fault coverage
    /// of an exhaustive test set).
    pub fn testable_fraction(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let testable = self
            .entries
            .iter()
            .filter(|e| e.observability > 0.0)
            .count();
        testable as f64 / self.entries.len() as f64
    }

    /// Mean observability over the whole fault universe.
    pub fn mean_observability(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries.iter().map(|e| e.observability).sum::<f64>() / self.entries.len() as f64
    }

    /// A compact deterministic summary.
    pub fn to_text(&self) -> String {
        format!(
            "stuck-at testability: {} faults over {} points, \
             {:.1}% testable, mean observability {:.4}\n",
            self.entries.len(),
            self.points,
            100.0 * self.testable_fraction(),
            self.mean_observability(),
        )
    }
}

impl Netlist {
    /// Evaluates 64 input vectors at once with `faults` injected: each
    /// faulted node's word is forced to all-0 (`sa0`) or all-1 (`sa1`)
    /// inside the topological forward pass, so all fanout logic sees the
    /// defective value. An empty set is bit-identical to
    /// [`eval_words`](Netlist::eval_words).
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len() != num_inputs` or a fault targets a
    /// node this netlist does not have.
    pub fn eval_words_with_faults(&self, input_words: &[u64], faults: &FaultSet) -> Vec<u64> {
        faults.check_against(self);
        let mut scratch = Vec::new();
        self.eval_words_into_forced(input_words, &mut scratch, &faults.forced_words());
        self.outputs().iter().map(|o| scratch[o.index()]).collect()
    }

    /// Single-vector faulted evaluation with the packed-bits convention
    /// of [`eval_bits`](Netlist::eval_bits).
    pub fn eval_bits_with_faults(&self, input_bits: u64, faults: &FaultSet) -> u64 {
        assert!(self.outputs().len() <= 64, "too many outputs to pack");
        let words: Vec<u64> = (0..self.num_inputs())
            .map(|k| {
                if input_bits >> k & 1 == 1 {
                    u64::MAX
                } else {
                    0
                }
            })
            .collect();
        let outs = self.eval_words_with_faults(&words, faults);
        outs.iter()
            .enumerate()
            .fold(0u64, |acc, (k, &w)| acc | ((w & 1) << k))
    }

    /// The faulted twin of [`exhaustive`](Netlist::exhaustive): the packed
    /// output for every input vector with `faults` injected. It is the
    /// same 16-word sweep with each faulted node's words forced, so an
    /// empty set replays the fault-free table bit for bit.
    ///
    /// # Panics
    ///
    /// Same limits as [`exhaustive`](Netlist::exhaustive), plus the
    /// fault-range check.
    pub fn exhaustive_with_faults(&self, faults: &FaultSet) -> Vec<u64> {
        faults.check_against(self);
        self.exhaustive_forced(&faults.forced_words())
    }

    /// The faulted table of a 16-input netlist with its two input bytes
    /// swapped: entry `(lo << 8) | hi` holds the narrowed output for low
    /// byte `lo` (inputs 0..8) and high byte `hi` (inputs 8..16). For a
    /// multiplier with operand `a` on the low inputs this is the
    /// `(a << 8) | b` layout of `axmul`'s tables, written in one pass from
    /// the sweep with no intermediate table.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not have 16 inputs and at most 16
    /// outputs, or on the fault-range check.
    pub fn exhaustive_u16_swapped_with_faults(&self, faults: &FaultSet) -> Vec<u16> {
        assert_eq!(self.num_inputs(), 16, "expected 16 inputs");
        assert!(self.outputs().len() <= 16, "outputs do not fit in u16");
        faults.check_against(self);
        let mut table = vec![0u16; 1 << 16];
        self.exhaustive_entries(&faults.forced_words(), |v, run| {
            for (v, &e) in (v..).zip(run) {
                table[(v as u16).swap_bytes() as usize] = e as u16;
            }
        });
        table
    }

    /// The single stuck-at fault universe: both polarities at every node
    /// (inputs, constants and gates), in node order.
    pub fn fault_sites(&self) -> Vec<Fault> {
        (0..self.len())
            .flat_map(|i| {
                let node = self.node_id(i);
                [
                    Fault::new(node, StuckAt::Zero),
                    Fault::new(node, StuckAt::One),
                ]
            })
            .collect()
    }

    /// Marks the nodes inside the output cone (reachable from at least
    /// one output through fanin edges). Faults on nodes outside the cone
    /// can never change an output.
    pub fn output_cone(&self) -> Vec<bool> {
        let mut live = vec![false; self.len()];
        for o in self.outputs() {
            live[o.index()] = true;
        }
        // Nodes are topologically ordered, so one reverse sweep settles
        // reachability.
        for i in (0..self.len()).rev() {
            if !live[i] {
                continue;
            }
            match self.nodes()[i] {
                Node::Input(_) | Node::Const(_) => {}
                Node::Not(a) => live[a.index()] = true,
                Node::And(a, b)
                | Node::Or(a, b)
                | Node::Xor(a, b)
                | Node::Nand(a, b)
                | Node::Nor(a, b)
                | Node::Xnor(a, b) => {
                    live[a.index()] = true;
                    live[b.index()] = true;
                }
            }
        }
        live
    }

    /// Scans the whole single stuck-at universe and measures each fault's
    /// observability over all `2^num_inputs` input points.
    ///
    /// Per 64-lane batch the fault-free node values are computed once;
    /// each fault then replays only the topological suffix after its
    /// node, and is skipped entirely on batches where the forced word
    /// already equals the fault-free one.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 16 inputs.
    pub fn testability_report(&self) -> TestabilityReport {
        assert!(self.num_inputs() <= 16, "exhaustive limited to 16 inputs");
        let faults = self.fault_sites();
        let total = 1usize << self.num_inputs();
        let batches = total.div_ceil(64);
        let mut observed = vec![0u64; faults.len()];
        let mut clean: Vec<u64> = Vec::new();
        let mut faulty: Vec<u64> = Vec::new();
        let mut words = vec![0u64; self.num_inputs()];
        for batch in 0..batches {
            for (k, w) in words.iter_mut().enumerate() {
                *w = lane_word(k, batch);
            }
            self.eval_words_into(&words, &mut clean);
            let lanes = (total - batch * 64).min(64);
            let mask = if lanes == 64 {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            for (fi, f) in faults.iter().enumerate() {
                let idx = f.node.index();
                let forced = f.stuck.forced_word();
                if clean[idx] & mask == forced & mask {
                    continue; // the fault is inactive on every lane here
                }
                faulty.clear();
                faulty.extend_from_slice(&clean);
                faulty[idx] = forced;
                self.recompute_gates_from(&mut faulty, idx + 1);
                let mut diff = 0u64;
                for o in self.outputs() {
                    diff |= faulty[o.index()] ^ clean[o.index()];
                }
                observed[fi] += (diff & mask).count_ones() as u64;
            }
        }
        TestabilityReport {
            points: total,
            entries: faults
                .into_iter()
                .zip(observed)
                .map(|(fault, n)| FaultObservability {
                    fault,
                    observability: n as f64 / total as f64,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// out = a AND b.
    fn and_gate() -> (Netlist, NodeId, NodeId, NodeId) {
        let mut nl = Netlist::new(2);
        let a = nl.input(0);
        let b = nl.input(1);
        let o = nl.and(a, b);
        nl.push_output(o);
        (nl, a, b, o)
    }

    #[test]
    fn stuck_values_force_the_output() {
        let (nl, _, _, o) = and_gate();
        let sa0 = FaultSet::single(Fault::new(o, StuckAt::Zero));
        let sa1 = FaultSet::single(Fault::new(o, StuckAt::One));
        for bits in 0..4u64 {
            assert_eq!(nl.eval_bits_with_faults(bits, &sa0), 0);
            assert_eq!(nl.eval_bits_with_faults(bits, &sa1), 1);
        }
    }

    #[test]
    fn faulted_input_propagates_through_fanout() {
        // Both outputs read input a; a stuck input corrupts both.
        let mut nl = Netlist::new(2);
        let a = nl.input(0);
        let b = nl.input(1);
        let x = nl.xor(a, b);
        let y = nl.and(a, b);
        nl.set_outputs(vec![x, y]);
        let faults = FaultSet::single(Fault::new(a, StuckAt::One));
        // a=0, b=1 behaves as a=1, b=1.
        assert_eq!(nl.eval_bits_with_faults(0b10, &faults), 0b10);
    }

    #[test]
    fn empty_set_is_bit_identical_to_fault_free() {
        let (nl, ..) = and_gate();
        assert_eq!(
            nl.exhaustive_with_faults(&FaultSet::empty()),
            nl.exhaustive()
        );
        let words = [0xDEAD_BEEF_0123_4567, 0xF0F0_1234_ABCD_8888];
        assert_eq!(
            nl.eval_words_with_faults(&words, &FaultSet::empty()),
            nl.eval_words(&words)
        );
    }

    #[test]
    #[should_panic(expected = "duplicate stuck-at faults")]
    fn duplicate_faults_panic() {
        let (_, a, ..) = and_gate();
        let _ = FaultSet::new(vec![
            Fault::new(a, StuckAt::Zero),
            Fault::new(a, StuckAt::Zero),
        ]);
    }

    #[test]
    #[should_panic(expected = "conflicting stuck-at faults")]
    fn conflicting_faults_panic() {
        let (_, a, ..) = and_gate();
        let _ = FaultSet::new(vec![
            Fault::new(a, StuckAt::Zero),
            Fault::new(a, StuckAt::One),
        ]);
    }

    #[test]
    #[should_panic(expected = "outside the netlist")]
    fn out_of_range_fault_panics() {
        let (nl, ..) = and_gate();
        let mut big = Netlist::new(8);
        let g = big.and(big.input(6), big.input(7));
        big.push_output(g);
        let faults = FaultSet::single(Fault::new(g, StuckAt::One));
        let _ = nl.eval_bits_with_faults(0, &faults);
    }

    #[test]
    fn fault_universe_covers_both_polarities_everywhere() {
        let (nl, ..) = and_gate();
        let sites = nl.fault_sites();
        assert_eq!(sites.len(), 2 * nl.len());
        assert!(sites.iter().filter(|f| f.stuck == StuckAt::Zero).count() == nl.len());
    }

    #[test]
    fn output_cone_excludes_dangling_logic() {
        let mut nl = Netlist::new(2);
        let a = nl.input(0);
        let b = nl.input(1);
        let live = nl.and(a, b);
        let dead = nl.or(a, b); // never reaches an output
        nl.push_output(live);
        let cone = nl.output_cone();
        assert!(cone[live.index()] && cone[a.index()] && cone[b.index()]);
        assert!(!cone[dead.index()]);
    }

    #[test]
    fn and_gate_observabilities_match_hand_count() {
        let (nl, a, _, o) = and_gate();
        let report = nl.testability_report();
        assert_eq!(report.points(), 4);
        // sa1 on input a flips the output only at (a=0, b=1): 1/4.
        assert_eq!(
            report.observability_of(Fault::new(a, StuckAt::One)),
            Some(0.25)
        );
        // sa0 on input a is active only at (a=1, b=1): 1/4.
        assert_eq!(
            report.observability_of(Fault::new(a, StuckAt::Zero)),
            Some(0.25)
        );
        // sa1 on the output differs wherever a&b = 0: 3/4.
        assert_eq!(
            report.observability_of(Fault::new(o, StuckAt::One)),
            Some(0.75)
        );
        assert_eq!(report.testable_fraction(), 1.0);
        assert!(report.to_text().contains("6 faults over 4 points"));
    }

    #[test]
    fn dead_logic_is_untestable() {
        let mut nl = Netlist::new(2);
        let a = nl.input(0);
        let b = nl.input(1);
        let live = nl.xor(a, b);
        let dead = nl.nand(a, b);
        nl.push_output(live);
        let report = nl.testability_report();
        for stuck in [StuckAt::Zero, StuckAt::One] {
            assert_eq!(report.observability_of(Fault::new(dead, stuck)), Some(0.0));
        }
        assert!(report.testable_fraction() < 1.0);
        assert!(report.mean_observability() > 0.0);
    }

    #[test]
    fn display_formats_are_compact() {
        let (nl, a, b, _) = and_gate();
        let f = Fault::new(a, StuckAt::Zero);
        assert_eq!(f.to_string(), "sa0@n0");
        assert_eq!(FaultSet::empty().to_string(), "fault-free");
        let set = FaultSet::new(vec![f, Fault::new(b, StuckAt::One)]);
        assert_eq!(set.to_string(), "sa0@n0+sa1@n1");
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        drop(nl);
    }
}
