//! Differential and semantic property tests for stuck-at fault
//! injection: the 64-lane faulted simulator against a naive per-bit
//! reference, plus the fault-model contracts (output pinning, dead-node
//! silence, duplicate/conflict rejection).

use axcirc::faults::{Fault, FaultSet, StuckAt};
use axcirc::multiplier::{ApproxSpec, ArrayMultiplier};
use axcirc::netlist::{Netlist, Node};
use proptest::prelude::*;

/// Naive single-vector reference: evaluate every node as a `bool` in
/// topological order, forcing the faulted node after it is computed —
/// deliberately independent of the word-parallel engine under test.
fn eval_bits_forced_reference(nl: &Netlist, input_bits: u64, fault: Option<Fault>) -> u64 {
    let mut vals = vec![false; nl.len()];
    for (i, node) in nl.nodes().iter().enumerate() {
        let mut v = match *node {
            Node::Input(b) => input_bits >> b & 1 == 1,
            Node::Const(c) => c,
            Node::Not(a) => !vals[a.index()],
            Node::And(a, b) => vals[a.index()] & vals[b.index()],
            Node::Or(a, b) => vals[a.index()] | vals[b.index()],
            Node::Xor(a, b) => vals[a.index()] ^ vals[b.index()],
            Node::Nand(a, b) => !(vals[a.index()] & vals[b.index()]),
            Node::Nor(a, b) => !(vals[a.index()] | vals[b.index()]),
            Node::Xnor(a, b) => !(vals[a.index()] ^ vals[b.index()]),
        };
        if let Some(f) = fault {
            if f.node.index() == i {
                v = f.stuck == StuckAt::One;
            }
        }
        vals[i] = v;
    }
    nl.outputs()
        .iter()
        .enumerate()
        .fold(0u64, |acc, (k, o)| acc | ((vals[o.index()] as u64) << k))
}

/// An 8x8 multiplier netlist drawn from the full approximation knob
/// space (truncation, LOA, approximate cells, row perforation). The
/// knobs are sampled as plain integers by the proptest macro and folded
/// into a spec here.
fn knobbed_multiplier(
    trunc: usize,
    loa: usize,
    approx: usize,
    perf_row: usize,
    comp: bool,
) -> Netlist {
    let mut spec = ApproxSpec::exact()
        .with_truncate_cols(trunc)
        .with_loa_cols(loa)
        .with_approx_cols(approx, axcirc::ApproxCell::SumNotCout);
    if comp && trunc > 0 {
        spec = spec.with_compensation();
    }
    if perf_row > 0 {
        spec = spec.with_perforated_rows(&[perf_row]);
    }
    ArrayMultiplier::new(8, spec).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For random approximate multipliers and random single faults, the
    /// word-parallel faulted pass agrees with the per-bit reference on
    /// all 64 lanes of random input words.
    #[test]
    fn word_parallel_matches_per_bit_reference(
        trunc in 0usize..6,
        loa in 0usize..6,
        approx in 0usize..8,
        perf_row in 0usize..3,
        comp in any::<bool>(),
        site in 0usize..4096,
        sa1 in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let nl = knobbed_multiplier(trunc, loa, approx, perf_row, comp);
        let fault = Fault::new(
            nl.node_id(site % nl.len()),
            if sa1 { StuckAt::One } else { StuckAt::Zero },
        );
        let faults = FaultSet::single(fault);
        // 16 pseudo-random input words from a splitmix-style scramble.
        let words: Vec<u64> = (0..16u64)
            .map(|k| {
                let mut z = seed ^ (k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^ (z >> 31)
            })
            .collect();
        let out = nl.eval_words_with_faults(&words, &faults);
        for lane in 0..64 {
            let bits: u64 = (0..16)
                .map(|k| (words[k as usize] >> lane & 1) << k)
                .sum();
            let expect = eval_bits_forced_reference(&nl, bits, Some(fault));
            let got: u64 = (0..out.len())
                .map(|k| (out[k] >> lane & 1) << k as u64)
                .sum();
            prop_assert_eq!(got, expect);
        }
    }

    /// The empty fault set is bit-identical to the fault-free simulator
    /// over the full 2^16 exhaustive grid.
    #[test]
    fn empty_fault_set_is_fault_free(
        trunc in 0usize..6,
        loa in 0usize..6,
        approx in 0usize..8,
        perf_row in 0usize..3,
        comp in any::<bool>(),
    ) {
        let nl = knobbed_multiplier(trunc, loa, approx, perf_row, comp);
        prop_assert_eq!(
            nl.exhaustive_with_faults(&FaultSet::empty()),
            nl.exhaustive()
        );
    }
}

/// A stuck-at fault on an output node pins exactly that output bit
/// across all 2^16 points and leaves every other bit untouched.
#[test]
fn output_fault_pins_exactly_that_bit() {
    let nl = ArrayMultiplier::new(8, ApproxSpec::exact()).build();
    let clean = nl.exhaustive_u16_swapped_with_faults(&FaultSet::empty());
    for (k, &out) in nl.outputs().iter().enumerate() {
        for stuck in [StuckAt::Zero, StuckAt::One] {
            let faults = FaultSet::single(Fault::new(out, stuck));
            let faulty = nl.exhaustive_u16_swapped_with_faults(&faults);
            let pin = (stuck == StuckAt::One) as u16;
            for (i, (&f, &c)) in faulty.iter().zip(&clean).enumerate() {
                assert_eq!(
                    f ^ c,
                    (f ^ c) & (1 << k),
                    "fault on output {k} leaked to other bits at point {i}"
                );
                assert_eq!(f >> k & 1, pin, "output {k} not pinned to {stuck}");
            }
        }
    }
}

/// Faults on nodes outside the output cone never change the exhaustive
/// table. The exact array multiplier has such dead nodes (carry-outs
/// pushed past the last column).
#[test]
fn dead_node_faults_are_silent() {
    let nl = ArrayMultiplier::new(8, ApproxSpec::exact()).build();
    let cone = nl.output_cone();
    let dead: Vec<usize> = (0..nl.len()).filter(|&i| !cone[i]).collect();
    assert!(
        !dead.is_empty(),
        "expected dangling carry logic in the array multiplier"
    );
    let clean = nl.exhaustive_u16_swapped_with_faults(&FaultSet::empty());
    for &i in dead.iter().take(4) {
        for stuck in [StuckAt::Zero, StuckAt::One] {
            let faults = FaultSet::single(Fault::new(nl.node_id(i), stuck));
            assert_eq!(
                nl.exhaustive_u16_swapped_with_faults(&faults),
                clean,
                "dead node n{i} ({stuck}) must not reach an output"
            );
        }
    }
}

/// The testability scan agrees with the semantic facts above: dead
/// nodes score zero, live output faults score high.
#[test]
fn testability_report_matches_cone_and_outputs() {
    let nl = ArrayMultiplier::new(8, ApproxSpec::exact().with_truncate_cols(2)).build();
    let report = nl.testability_report();
    assert_eq!(report.points(), 1 << 16);
    let cone = nl.output_cone();
    for e in report.entries() {
        if !cone[e.fault.node.index()] {
            assert_eq!(e.observability, 0.0, "dead {} observable", e.fault);
        }
        assert!((0.0..=1.0).contains(&e.observability));
    }
    // Output-node faults are observable wherever the clean bit differs
    // from the forced level — always at some point for a real product bit.
    let lsb = Fault::new(nl.outputs()[2], StuckAt::One);
    assert!(report.observability_of(lsb).unwrap() > 0.5);
}

#[test]
#[should_panic(expected = "duplicate stuck-at faults")]
fn duplicate_faults_are_rejected() {
    let nl = ArrayMultiplier::new(8, ApproxSpec::exact()).build();
    let f = Fault::new(nl.node_id(40), StuckAt::Zero);
    let _ = FaultSet::new(vec![f, f]);
}

#[test]
#[should_panic(expected = "conflicting stuck-at faults")]
fn conflicting_faults_are_rejected() {
    let nl = ArrayMultiplier::new(8, ApproxSpec::exact()).build();
    let _ = FaultSet::new(vec![
        Fault::new(nl.node_id(40), StuckAt::Zero),
        Fault::new(nl.node_id(40), StuckAt::One),
    ]);
}
