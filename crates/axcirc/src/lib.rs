//! Gate-level combinational circuits for approximate arithmetic.
//!
//! This crate is the hardware substrate of the reproduction. The paper
//! evaluates DNN accelerators built from *approximate multipliers*
//! (EvoApprox8b). Those multipliers are gate-level artifacts, so we model
//! them as gate-level artifacts:
//!
//! * [`netlist`] — a compact combinational netlist IR with a 64-way
//!   bit-parallel simulator (one `u64` word simulates 64 input vectors at
//!   once). Its exhaustive sweep evaluates each node over 16 such words
//!   per dispatch, so a 2^16-point characterization of an 8x8 multiplier
//!   takes 64 passes over the nodes.
//! * [`cells`] — exact and approximate adder cells. The approximate cells
//!   are behavioral models in the spirit of the approximate mirror-adder
//!   literature; each documents its full truth table and error pattern.
//! * [`adders`] — ripple-carry adders with per-bit cell selection and
//!   lower-part-OR (LOA) construction.
//! * [`multiplier`] — a parameterized unsigned array multiplier generator
//!   with the approximation knobs used to emulate the EvoApprox8b parts:
//!   column truncation (with optional compensation), LOA columns,
//!   approximate full-adder columns and partial-product row perforation.
//! * [`analysis`] — exhaustive error metrics (MAE, WCE, bias, error rate)
//!   plus unit-gate area / critical-path delay / switching-power proxies,
//!   i.e. the EvoApprox-style datasheet quantities.
//! * [`faults`] — single stuck-at fault injection into the word-parallel
//!   pass (forced all-0/all-1 node words), faulted exhaustive LUT
//!   extraction and a testability/observability report.
//!
//! # Examples
//!
//! Build an exact 8x8 multiplier and check one product:
//!
//! ```
//! use axcirc::multiplier::{ApproxSpec, ArrayMultiplier};
//!
//! let exact = ArrayMultiplier::new(8, ApproxSpec::exact()).build();
//! let lut = exact.exhaustive_u16();
//! assert_eq!(lut[(200 << 8) | 17] as u32, 200 * 17);
//! ```
//!
//! The simulator is 64-way bit-parallel: [`Netlist::eval_words`] takes one
//! `u64` per input, where bit `l` of every word forms lane `l`'s input
//! vector, and returns one `u64` per output. Sixty-four products of the
//! multiplier above in a single pass:
//!
//! ```
//! use axcirc::multiplier::{ApproxSpec, ArrayMultiplier};
//!
//! let exact = ArrayMultiplier::new(8, ApproxSpec::exact()).build();
//! // Lane l computes (l+1) * 3: operand a varies per lane, b is constant.
//! let mut words = vec![0u64; 16];
//! for lane in 0..64u64 {
//!     let (a, b) = (lane + 1, 3u64);
//!     for k in 0..8 {
//!         words[k] |= (a >> k & 1) << lane; // a on inputs 0..8
//!         words[8 + k] |= (b >> k & 1) << lane; // b on inputs 8..16
//!     }
//! }
//! let out = exact.eval_words(&words);
//! for lane in 0..64u64 {
//!     let product: u64 = (0..16).map(|k| (out[k] >> lane & 1) << k).sum();
//!     assert_eq!(product, (lane + 1) * 3);
//! }
//! ```
//!
//! Stuck-at faults are forced inside the same pass ([`faults`]):
//!
//! ```
//! use axcirc::faults::{Fault, FaultSet, StuckAt};
//! use axcirc::multiplier::{ApproxSpec, ArrayMultiplier};
//!
//! let exact = ArrayMultiplier::new(8, ApproxSpec::exact()).build();
//! // Tie the product's most significant bit high.
//! let msb = exact.outputs()[15];
//! let faults = FaultSet::single(Fault::new(msb, StuckAt::One));
//! // Indexed (a << 8) | b, the operands' order in `axmul`'s tables.
//! let faulty = exact.exhaustive_u16_swapped_with_faults(&faults);
//! assert_eq!(faulty[(2 << 8) | 3], (2 * 3) | (1 << 15));
//! // The empty fault set replays the fault-free table bit for bit.
//! let clean = exact.exhaustive_u16_swapped_with_faults(&FaultSet::empty());
//! let table = exact.exhaustive_u16(); // indexed (b << 8) | a
//! assert!((0..1usize << 16).all(|v| clean[v] == table[(v as u16).swap_bytes() as usize]));
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod adders;
pub mod analysis;
pub mod cells;
pub mod faults;
pub mod multiplier;
pub mod netlist;
pub mod signed_mul;

pub use analysis::{AreaReport, ErrorMetrics};
pub use cells::ApproxCell;
pub use faults::{Fault, FaultSet, StuckAt, TestabilityReport};
pub use multiplier::{ApproxSpec, ArrayMultiplier};
pub use netlist::{Netlist, NodeId};
pub use signed_mul::BaughWooleyMultiplier;
