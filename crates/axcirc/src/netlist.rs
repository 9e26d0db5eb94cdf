//! Combinational netlist IR and bit-parallel simulation.
//!
//! A [`Netlist`] is a DAG of two-input logic gates (plus inverters and
//! constants) over a fixed set of primary inputs. Nodes are stored in
//! topological order by construction: a gate may only reference nodes that
//! already exist, which the builder enforces, so evaluation is a single
//! forward pass.
//!
//! Simulation is *bit-parallel*: each node is evaluated on a `u64` word
//! carrying 64 independent input vectors. The exhaustive evaluators
//! ([`Netlist::exhaustive`], [`Netlist::signal_probabilities`] and the
//! faulted tables of [`crate::faults`]) share one sweep that evaluates
//! each node over a run of 16 such words per dispatch, node-major, so a
//! 16-input circuit's 1024 batches of 64 vectors take 64 passes over the
//! nodes. Table entries are then assembled eight at a time: each output's
//! byte of eight lanes is spread through a 256-entry table into bit 0 of
//! eight entry bytes. [`Netlist::eval_words`] is the one-word case of the
//! same forward pass.

use std::fmt;

/// Lane patterns for the 6 inputs that vary inside one 64-bit word
/// during exhaustive evaluation (input `k` toggles with period `2^k`).
pub(crate) const LANE: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The exhaustive-batch word of primary input `k` in 64-lane batch
/// `batch`: the low 6 inputs take the [`LANE`] patterns, the rest the
/// bits of `batch`.
pub(crate) fn lane_word(k: usize, batch: usize) -> u64 {
    if k < 6 {
        LANE[k]
    } else if (batch >> (k - 6)) & 1 == 1 {
        u64::MAX
    } else {
        0
    }
}

/// Batch words each node is evaluated over per dispatch of the
/// exhaustive sweep: 16 x 64 = 1024 input vectors.
const SWEEP: usize = 16;

/// `SPREAD[x]` moves bit `i` of byte `x` to bit `8 i`: one output's byte
/// of eight lanes becomes bit 0 of eight table-entry bytes.
static SPREAD: [u64; 256] = spread_table();

const fn spread_table() -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut x = 0;
    while x < 256 {
        let mut i = 0;
        while i < 8 {
            t[x] |= ((x as u64 >> i) & 1) << (8 * i);
            i += 1;
        }
        x += 1;
    }
    t
}

/// Node `a`'s `W` words in a node-major buffer of `W` words per node.
#[inline(always)]
fn words<const W: usize>(vals: &[u64], a: NodeId) -> &[u64; W] {
    vals[a.index() * W..][..W]
        .try_into()
        .expect("W words per node")
}

#[inline(always)]
fn zip2<const W: usize>(dst: &mut [u64; W], x: &[u64; W], y: &[u64; W], f: fn(u64, u64) -> u64) {
    for ((d, &x), &y) in dst.iter_mut().zip(x).zip(y) {
        *d = f(x, y);
    }
}

/// Evaluates one gate over `W` words from the words of the earlier nodes
/// in `vals` (node-major, `W` per node). Inputs and constants are
/// sources: their words are the caller's to set, so they are left as
/// they are.
#[inline(always)]
fn eval_gate<const W: usize>(node: Node, vals: &[u64], dst: &mut [u64; W]) {
    match node {
        Node::Input(_) | Node::Const(_) => {}
        Node::Not(a) => {
            for (d, &x) in dst.iter_mut().zip(words::<W>(vals, a)) {
                *d = !x;
            }
        }
        Node::And(a, b) => zip2(dst, words(vals, a), words(vals, b), |x, y| x & y),
        Node::Or(a, b) => zip2(dst, words(vals, a), words(vals, b), |x, y| x | y),
        Node::Xor(a, b) => zip2(dst, words(vals, a), words(vals, b), |x, y| x ^ y),
        Node::Nand(a, b) => zip2(dst, words(vals, a), words(vals, b), |x, y| !(x & y)),
        Node::Nor(a, b) => zip2(dst, words(vals, a), words(vals, b), |x, y| !(x | y)),
        Node::Xnor(a, b) => zip2(dst, words(vals, a), words(vals, b), |x, y| !(x ^ y)),
    }
}

/// Identifies a node inside one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The raw index of this node in evaluation order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single netlist node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// Primary input with the given bit position.
    Input(u8),
    /// Constant logic level.
    Const(bool),
    /// Inverter.
    Not(NodeId),
    /// 2-input AND.
    And(NodeId, NodeId),
    /// 2-input OR.
    Or(NodeId, NodeId),
    /// 2-input XOR.
    Xor(NodeId, NodeId),
    /// 2-input NAND.
    Nand(NodeId, NodeId),
    /// 2-input NOR.
    Nor(NodeId, NodeId),
    /// 2-input XNOR.
    Xnor(NodeId, NodeId),
}

/// A combinational netlist with named primary inputs and ordered outputs.
///
/// # Examples
///
/// ```
/// use axcirc::netlist::Netlist;
///
/// // out = a AND (NOT b)
/// let mut nl = Netlist::new(2);
/// let a = nl.input(0);
/// let b = nl.input(1);
/// let nb = nl.not(b);
/// let o = nl.and(a, nb);
/// nl.push_output(o);
/// assert_eq!(nl.eval_bits(0b01), 0b1); // a=1, b=0
/// assert_eq!(nl.eval_bits(0b11), 0b0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    num_inputs: usize,
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
}

impl Netlist {
    /// Creates a netlist with `num_inputs` primary inputs (node ids
    /// `0..num_inputs`).
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 64`: the simulator packs one input vector
    /// per integer bit.
    pub fn new(num_inputs: usize) -> Self {
        assert!(num_inputs <= 64, "at most 64 primary inputs supported");
        let nodes = (0..num_inputs).map(|i| Node::Input(i as u8)).collect();
        Netlist {
            num_inputs,
            nodes,
            outputs: Vec::new(),
        }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of nodes (inputs + constants + gates).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the netlist contains no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of logic gates (excludes inputs and constants).
    pub fn gate_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n, Node::Input(_) | Node::Const(_)))
            .count()
    }

    /// The ordered output nodes.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Returns the [`NodeId`] at position `index` in topological order —
    /// the inverse of [`NodeId::index`], e.g. for enumerating fault
    /// sites (see [`crate::faults`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn node_id(&self, index: usize) -> NodeId {
        assert!(index < self.nodes.len(), "node index {index} out of range");
        NodeId(index as u32)
    }

    /// Returns the [`NodeId`] for primary input `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= num_inputs`.
    pub fn input(&self, bit: usize) -> NodeId {
        assert!(bit < self.num_inputs, "input {bit} out of range");
        NodeId(bit as u32)
    }

    fn check(&self, id: NodeId) -> NodeId {
        assert!(
            (id.0 as usize) < self.nodes.len(),
            "operand {id} references a node that does not exist yet"
        );
        id
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Adds a constant node.
    pub fn constant(&mut self, v: bool) -> NodeId {
        self.push(Node::Const(v))
    }

    /// Adds an inverter.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        let a = self.check(a);
        self.push(Node::Not(a))
    }

    /// Adds a 2-input AND gate.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Node::And(a, b))
    }

    /// Adds a 2-input OR gate.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Node::Or(a, b))
    }

    /// Adds a 2-input XOR gate.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Node::Xor(a, b))
    }

    /// Adds a 2-input NAND gate.
    pub fn nand(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Node::Nand(a, b))
    }

    /// Adds a 2-input NOR gate.
    pub fn nor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Node::Nor(a, b))
    }

    /// Adds a 2-input XNOR gate.
    pub fn xnor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Node::Xnor(a, b))
    }

    /// Adds a 3-input XOR (two gates).
    pub fn xor3(&mut self, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
        let ab = self.xor(a, b);
        self.xor(ab, c)
    }

    /// Adds a 3-input majority function `ab | bc | ac` (four gates).
    pub fn maj3(&mut self, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
        let ab = self.and(a, b);
        let bc = self.and(b, c);
        let ac = self.and(a, c);
        let t = self.or(ab, bc);
        self.or(t, ac)
    }

    /// Appends an output.
    pub fn push_output(&mut self, id: NodeId) {
        let id = self.check(id);
        self.outputs.push(id);
    }

    /// Replaces the output list.
    pub fn set_outputs(&mut self, ids: Vec<NodeId>) {
        for &id in &ids {
            self.check(id);
        }
        self.outputs = ids;
    }

    /// Evaluates 64 input vectors at once.
    ///
    /// `input_words[k]` carries the value of primary input `k` for each of
    /// the 64 vectors (one per bit lane). Returns one word per output.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len() != num_inputs`.
    pub fn eval_words(&self, input_words: &[u64]) -> Vec<u64> {
        let mut scratch = vec![0u64; self.nodes.len()];
        self.eval_words_into(input_words, &mut scratch);
        self.outputs.iter().map(|o| scratch[o.index()]).collect()
    }

    /// Like [`eval_words`](Self::eval_words) but reuses a caller-provided
    /// scratch buffer (resized as needed) and leaves all node values in it.
    pub fn eval_words_into(&self, input_words: &[u64], scratch: &mut Vec<u64>) {
        self.eval_words_into_forced(input_words, scratch, &[]);
    }

    /// The one-word forward pass with forced node values (see
    /// [`forward`](Self::forward)); stuck-at faults enter the simulator
    /// here — see [`crate::faults`] for the public API.
    pub(crate) fn eval_words_into_forced(
        &self,
        input_words: &[u64],
        scratch: &mut Vec<u64>,
        forced: &[(usize, u64)],
    ) {
        assert_eq!(
            input_words.len(),
            self.num_inputs,
            "expected {} input words",
            self.num_inputs
        );
        scratch.resize(self.nodes.len(), 0);
        self.forward(|k| [input_words[k]], forced, scratch);
    }

    /// The forward pass, `W` words per node: node `i`'s words are
    /// `vals[i * W..(i + 1) * W]` and primary input `k`'s come from
    /// `input(k)`. After a node is evaluated, its words are overwritten by
    /// the matching entry of `forced` (sorted by node index), so every
    /// fanout sees the forced value.
    fn forward<const W: usize>(
        &self,
        input: impl Fn(usize) -> [u64; W],
        forced: &[(usize, u64)],
        vals: &mut [u64],
    ) {
        debug_assert_eq!(vals.len(), self.nodes.len() * W);
        let mut cursor = 0usize;
        for (i, &node) in self.nodes.iter().enumerate() {
            let (done, rest) = vals.split_at_mut(i * W);
            let dst: &mut [u64; W] = (&mut rest[..W]).try_into().expect("W words per node");
            match node {
                Node::Input(b) => *dst = input(b as usize),
                Node::Const(v) => *dst = [if v { u64::MAX } else { 0 }; W],
                gate => eval_gate(gate, done, dst),
            }
            if cursor < forced.len() && forced[cursor].0 == i {
                *dst = [forced[cursor].1; W];
                cursor += 1;
            }
        }
    }

    /// Re-evaluates only the gates at index `from` onward, given node
    /// values already present in `scratch`. Inputs and constants keep
    /// their existing words. Used by the fault-observability scan, which
    /// replays the suffix of the topological order after forcing one node.
    pub(crate) fn recompute_gates_from(&self, scratch: &mut [u64], from: usize) {
        for i in from..self.nodes.len() {
            let (done, rest) = scratch.split_at_mut(i);
            eval_gate::<1>(
                self.nodes[i],
                done,
                (&mut rest[..1]).try_into().expect("one word"),
            );
        }
    }

    /// The exhaustive sweep behind every table and count: runs all
    /// `2^num_inputs` input vectors through [`forward`](Self::forward) in
    /// chunks of `SWEEP` 64-lane batches and hands `visit` each chunk's
    /// first batch, its number of batches and the node-major words (node
    /// `i`'s batch `first + j` is `vals[i * SWEEP + j]`). Callers check
    /// the 16-input limit.
    fn sweep(&self, forced: &[(usize, u64)], mut visit: impl FnMut(usize, usize, &[u64])) {
        let batches = (1usize << self.num_inputs).div_ceil(64);
        let mut vals = vec![0u64; self.nodes.len() * SWEEP];
        for first in (0..batches).step_by(SWEEP) {
            let input = |k| std::array::from_fn(|j| lane_word(k, first + j));
            self.forward::<SWEEP>(input, forced, &mut vals);
            visit(first, SWEEP.min(batches - first), &vals);
        }
    }

    /// The exhaustive sweep's table entries with `forced` node values (see
    /// [`forward`](Self::forward)), eight at a time: `emit(v, run)` hands
    /// over the entries of input vectors `v..v + run.len()`, with output
    /// `k` in bit `k` of each. Each run is assembled straight from the
    /// sweep's node words, so a caller writes it to any layout in one
    /// pass. Callers check the 16-input and 64-output limits.
    pub(crate) fn exhaustive_entries(
        &self,
        forced: &[(usize, u64)],
        mut emit: impl FnMut(usize, &[u64]),
    ) {
        let total = 1usize << self.num_inputs;
        self.sweep(forced, |first, n, vals| {
            for j in 0..n {
                for p in 0..8 {
                    let mut entries = [0u64; 8];
                    for (g, group) in self.outputs.chunks(8).enumerate() {
                        // Output `8g + k`'s bits of lanes `8p..8p + 8`,
                        // spread to bit `k` of each lane's byte.
                        let mut spread = 0u64;
                        for (k, o) in group.iter().enumerate() {
                            let byte = (vals[o.index() * SWEEP + j] >> (8 * p)) as u8;
                            spread |= SPREAD[byte as usize] << k;
                        }
                        for (e, b) in entries.iter_mut().zip(spread.to_le_bytes()) {
                            *e |= (b as u64) << (8 * g);
                        }
                    }
                    let base = (first + j) * 64 + 8 * p;
                    if base < total {
                        emit(base, &entries[..(total - base).min(8)]);
                    }
                }
            }
        });
    }

    /// The exhaustive table with `forced` node values:
    /// [`exhaustive`](Self::exhaustive) and
    /// [`exhaustive_with_faults`](Self::exhaustive_with_faults).
    pub(crate) fn exhaustive_forced(&self, forced: &[(usize, u64)]) -> Vec<u64> {
        assert!(self.num_inputs <= 16, "exhaustive limited to 16 inputs");
        assert!(self.outputs.len() <= 64);
        let mut table = vec![0u64; 1 << self.num_inputs];
        self.exhaustive_entries(forced, |v, run| {
            table[v..v + run.len()].copy_from_slice(run);
        });
        table
    }

    /// Evaluates a single input vector given as packed bits (input `k` =
    /// bit `k` of `input_bits`) and returns packed output bits (output `k`
    /// = bit `k`).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 64 outputs.
    pub fn eval_bits(&self, input_bits: u64) -> u64 {
        assert!(self.outputs.len() <= 64, "too many outputs to pack");
        let words: Vec<u64> = (0..self.num_inputs)
            .map(|k| {
                if input_bits >> k & 1 == 1 {
                    u64::MAX
                } else {
                    0
                }
            })
            .collect();
        let outs = self.eval_words(&words);
        outs.iter()
            .enumerate()
            .fold(0u64, |acc, (k, &w)| acc | ((w & 1) << k))
    }

    /// Exhaustively evaluates the circuit over all `2^num_inputs` input
    /// vectors and returns the packed output value for each (indexed by the
    /// input vector's integer value), through the 16-word sweep of the
    /// [module docs](self).
    ///
    /// # Panics
    ///
    /// Panics if there are more than 16 primary inputs (the table would
    /// exceed 64Ki entries) or more than 64 outputs.
    pub fn exhaustive(&self) -> Vec<u64> {
        self.exhaustive_forced(&[])
    }

    /// Exhaustive table narrowed to `u16` outputs (≤ 16 output bits).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 16 outputs.
    pub fn exhaustive_u16(&self) -> Vec<u16> {
        assert!(self.outputs.len() <= 16, "outputs do not fit in u16");
        self.exhaustive().into_iter().map(|v| v as u16).collect()
    }

    /// Per-node signal probabilities (fraction of exhaustive input vectors
    /// for which the node is logic 1), counted over the same sweep as
    /// [`exhaustive`](Self::exhaustive). Used by the switching-power proxy.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 16 primary inputs.
    pub fn signal_probabilities(&self) -> Vec<f64> {
        assert!(self.num_inputs <= 16, "exhaustive limited to 16 inputs");
        let total = 1usize << self.num_inputs;
        // Below 64 vectors the one batch has unused high lanes.
        let mask = if total >= 64 {
            u64::MAX
        } else {
            (1u64 << total) - 1
        };
        let mut ones = vec![0u64; self.nodes.len()];
        self.sweep(&[], |_, n, vals| {
            for (o, node) in ones.iter_mut().zip(vals.chunks_exact(SWEEP)) {
                *o += node[..n]
                    .iter()
                    .map(|w| (w & mask).count_ones() as u64)
                    .sum::<u64>();
            }
        });
        ones.into_iter().map(|c| c as f64 / total as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_gate() -> Netlist {
        let mut nl = Netlist::new(2);
        let a = nl.input(0);
        let b = nl.input(1);
        let o = nl.xor(a, b);
        nl.push_output(o);
        nl
    }

    #[test]
    fn primitive_gates_truth_tables() {
        let mut nl = Netlist::new(2);
        let a = nl.input(0);
        let b = nl.input(1);
        let gates = [
            nl.and(a, b),
            nl.or(a, b),
            nl.xor(a, b),
            nl.nand(a, b),
            nl.nor(a, b),
            nl.xnor(a, b),
        ];
        let na = nl.not(a);
        let mut outs = gates.to_vec();
        outs.push(na);
        nl.set_outputs(outs);
        for bits in 0..4u64 {
            let (av, bv) = (bits & 1, bits >> 1 & 1);
            let o = nl.eval_bits(bits);
            assert_eq!(o & 1, av & bv, "and");
            assert_eq!(o >> 1 & 1, av | bv, "or");
            assert_eq!(o >> 2 & 1, av ^ bv, "xor");
            assert_eq!(o >> 3 & 1, 1 - (av & bv), "nand");
            assert_eq!(o >> 4 & 1, 1 - (av | bv), "nor");
            assert_eq!(o >> 5 & 1, 1 - (av ^ bv), "xnor");
            assert_eq!(o >> 6 & 1, 1 - av, "not");
        }
    }

    #[test]
    fn constants_evaluate() {
        let mut nl = Netlist::new(1);
        let one = nl.constant(true);
        let zero = nl.constant(false);
        nl.set_outputs(vec![one, zero]);
        assert_eq!(nl.eval_bits(0), 0b01);
        assert_eq!(nl.eval_bits(1), 0b01);
    }

    #[test]
    fn xor3_and_maj3_match_reference() {
        let mut nl = Netlist::new(3);
        let (a, b, c) = (nl.input(0), nl.input(1), nl.input(2));
        let s = nl.xor3(a, b, c);
        let m = nl.maj3(a, b, c);
        nl.set_outputs(vec![s, m]);
        for bits in 0..8u64 {
            let (x, y, z) = (bits & 1, bits >> 1 & 1, bits >> 2 & 1);
            let o = nl.eval_bits(bits);
            assert_eq!(o & 1, x ^ y ^ z);
            assert_eq!(o >> 1 & 1, (x & y) | (y & z) | (x & z));
        }
    }

    #[test]
    fn exhaustive_matches_eval_bits() {
        let nl = xor_gate();
        let table = nl.exhaustive();
        for bits in 0..4u64 {
            assert_eq!(table[bits as usize], nl.eval_bits(bits));
        }
    }

    #[test]
    fn exhaustive_large_input_count() {
        // 10-input parity circuit: exhaustive table must match popcount parity.
        let mut nl = Netlist::new(10);
        let mut acc = nl.input(0);
        for k in 1..10 {
            let i = nl.input(k);
            acc = nl.xor(acc, i);
        }
        nl.push_output(acc);
        let table = nl.exhaustive();
        for (v, &out) in table.iter().enumerate() {
            assert_eq!(out, (v.count_ones() as u64) & 1, "vector {v}");
        }
    }

    #[test]
    fn signal_probability_of_and_gate() {
        let mut nl = Netlist::new(2);
        let a = nl.input(0);
        let b = nl.input(1);
        let o = nl.and(a, b);
        nl.push_output(o);
        let p = nl.signal_probabilities();
        assert_eq!(p[a.index()], 0.5);
        assert_eq!(p[b.index()], 0.5);
        assert_eq!(p[o.index()], 0.25);
    }

    #[test]
    fn gate_count_excludes_inputs_and_constants() {
        let mut nl = Netlist::new(2);
        let a = nl.input(0);
        let b = nl.input(1);
        let c = nl.constant(true);
        let x = nl.xor(a, b);
        let y = nl.and(x, c);
        nl.push_output(y);
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn input_out_of_range_panics() {
        let nl = Netlist::new(2);
        let _ = nl.input(2);
    }

    #[test]
    fn node_id_display() {
        let nl = xor_gate();
        assert_eq!(nl.outputs()[0].to_string(), "n2");
    }
}
