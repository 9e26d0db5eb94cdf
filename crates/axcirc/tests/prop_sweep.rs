//! The 16-word exhaustive sweep against the per-vector evaluator: whole
//! tables (not probes) of random netlists, fault-free and faulted, at
//! every input count the sweep treats differently — fewer than 64 lanes,
//! a partial 16-word chunk, whole chunks — and output counts that use
//! every 8-output assembly group.

use axcirc::faults::{Fault, FaultSet, StuckAt};
use axcirc::netlist::{Netlist, NodeId};
use proptest::prelude::*;

/// A splitmix64 stream: the netlist generator's only randomness.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A random netlist: `inputs` primary inputs, the two constants (nodes
/// `inputs` and `inputs + 1`), `gates` gates of every kind over earlier
/// nodes, and `outputs` outputs drawn from all nodes.
fn random_netlist(inputs: usize, gates: usize, outputs: usize, seed: u64) -> Netlist {
    let mut rng = Mix(seed);
    let mut nl = Netlist::new(inputs);
    nl.constant(true);
    nl.constant(false);
    for _ in 0..gates {
        let n = nl.len();
        let a = nl.node_id(rng.below(n));
        let b = nl.node_id(rng.below(n));
        match rng.below(7) {
            0 => nl.not(a),
            1 => nl.and(a, b),
            2 => nl.or(a, b),
            3 => nl.xor(a, b),
            4 => nl.nand(a, b),
            5 => nl.nor(a, b),
            _ => nl.xnor(a, b),
        };
    }
    let outs: Vec<NodeId> = (0..outputs)
        .map(|_| nl.node_id(rng.below(nl.len())))
        .collect();
    nl.set_outputs(outs);
    nl
}

fn stuck(rng: &mut Mix) -> StuckAt {
    if rng.below(2) == 1 {
        StuckAt::One
    } else {
        StuckAt::Zero
    }
}

/// One fault on an input, a constant, a gate and an output node (fewer
/// when two of them land on the same node).
fn mixed_faults(nl: &Netlist, seed: u64) -> FaultSet {
    let mut rng = Mix(seed ^ 0xFA17);
    let inputs = nl.num_inputs();
    let gate = inputs + 2 + rng.below(nl.len() - inputs - 2);
    let output = nl.outputs()[rng.below(nl.outputs().len())].index();
    let mut nodes = vec![rng.below(inputs), inputs + rng.below(2), gate, output];
    nodes.sort_unstable();
    nodes.dedup();
    FaultSet::new(
        nodes
            .into_iter()
            .map(|i| Fault::new(nl.node_id(i), stuck(&mut rng)))
            .collect(),
    )
}

/// The whole faulted table against one `eval_bits_with_faults` call per
/// input vector, and the fault-free table against `eval_bits`; at 16
/// inputs, the byte-swapped `u16` table against the narrowed entries.
fn check_tables(nl: &Netlist, faults: &FaultSet) {
    let total = 1u64 << nl.num_inputs();
    let table = nl.exhaustive_with_faults(faults);
    assert_eq!(table.len() as u64, total);
    for (v, &got) in (0..total).zip(&table) {
        assert_eq!(
            got,
            nl.eval_bits_with_faults(v, faults),
            "{} inputs, {} outputs, {faults}: vector {v}",
            nl.num_inputs(),
            nl.outputs().len()
        );
    }
    let clean = nl.exhaustive();
    for (v, &got) in (0..total).zip(&clean) {
        assert_eq!(got, nl.eval_bits(v), "fault-free vector {v}");
    }
    if nl.num_inputs() == 16 && nl.outputs().len() <= 16 {
        let swapped = nl.exhaustive_u16_swapped_with_faults(faults);
        for (v, &e) in table.iter().enumerate() {
            assert_eq!(
                swapped[(v as u16).swap_bytes() as usize],
                e as u16,
                "vector {v}"
            );
        }
    }
}

/// Signal probabilities from the sweep against ones counted off the
/// exhaustive table of a copy whose outputs are every node.
fn check_probabilities(nl: &Netlist) {
    if nl.len() > 64 {
        return;
    }
    let mut all = nl.clone();
    all.set_outputs((0..nl.len()).map(|i| nl.node_id(i)).collect());
    let table = all.exhaustive();
    let p = nl.signal_probabilities();
    for (i, &pi) in p.iter().enumerate() {
        let ones = table.iter().filter(|&&e| e >> i & 1 == 1).count();
        assert_eq!(pi, ones as f64 / table.len() as f64, "node {i}");
    }
}

/// Every input count the sweep splits differently: below one 64-lane
/// word (1, 2, 5), one word (6), a partial 16-word chunk (7 and 9: 2 and
/// 8 batches), one whole chunk (10), two chunks (11) and the full 8x8
/// multiplier domain (16); output counts from 1 to 64 so that full and
/// partial 8-output groups are assembled.
#[test]
fn wide_sweep_matches_per_vector_evaluation() {
    let shapes = [
        (1, 1),
        (2, 64),
        (5, 9),
        (6, 8),
        (7, 17),
        (9, 64),
        (10, 33),
        (11, 16),
        (16, 7),
        (16, 64),
    ];
    for (s, &(inputs, outputs)) in shapes.iter().enumerate() {
        let nl = random_netlist(inputs, 3 * inputs + 20, outputs, s as u64);
        check_tables(&nl, &FaultSet::empty());
        check_tables(&nl, &mixed_faults(&nl, s as u64));
        check_probabilities(&random_netlist(inputs.min(10), 30, 1, s as u64));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random shapes: 1-12 inputs, 1-64 outputs, faults on an input, a
    /// constant, a gate and an output at once.
    #[test]
    fn random_netlists_match_per_vector_evaluation(
        inputs in 1usize..=12,
        outputs in 1usize..=64,
        gates in 1usize..80,
        seed in any::<u64>(),
    ) {
        let nl = random_netlist(inputs, gates, outputs, seed);
        check_tables(&nl, &mixed_faults(&nl, seed));
        check_probabilities(&nl);
    }
}
