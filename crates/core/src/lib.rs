//! Exact minimal-cost synthesis of 3-qubit quantum circuits — the primary
//! contribution of the reproduced paper.
//!
//! The pipeline:
//!
//! 1. [`mvq_logic`] turns each elementary quantum gate (controlled-V,
//!    controlled-V⁺, Feynman) into a permutation of the 38-pattern
//!    quaternary domain, with banned sets encoding the "controls must be
//!    binary" constraint.
//! 2. [`SynthesisEngine`] runs the paper's **FMCF** algorithm
//!    (Finding_Minimum_Cost_Circuits): a breadth-first closure over
//!    *reasonable products* that discovers, level by level, the sets
//!    `G[k]` of all reversible circuits of minimal quantum cost `k`
//!    — reproducing **Table 2**.
//! 3. [`SynthesisEngine::synthesize`] implements **MCE**
//!    (Minimum_Cost_Expressing): given any target reversible function it
//!    strips a NOT-gate coset layer (Theorem 2) and factors the remainder
//!    into a minimal gate cascade — reproducing the Peres (Figures 4, 8)
//!    and Toffoli (Figure 9) syntheses. Every MCE entry point, and the
//!    service's readers, resolve a target through the read-only
//!    [`SearchEngine::answer`] under one [`Strategy`].
//! 4. [`universal`] analyses the structure of `G[4]`: the 24 control-gate
//!    circuits, their universality, and the g1–g4 representatives
//!    (Figures 4–7).
//!
//! # Examples
//!
//! ```
//! use mvq_core::{known, SynthesisEngine};
//!
//! let mut engine = SynthesisEngine::unit_cost();
//! let result = engine
//!     .synthesize(&known::peres_perm(), 6)
//!     .expect("peres is reachable at cost 4");
//! assert_eq!(result.cost, 4);
//! assert!(result.circuit.verify_against_binary_perm(&known::peres_perm()));
//! ```

// `deny`, not `forbid`: the sanctioned exceptions, each block with its
// SAFETY comment, are the `seen` slot prefetch (`seen`) and the owned
// huge-page mappings behind `seen`'s large buffers and loaded snapshot
// images (`mapping`, the only module that allows `unsafe` throughout);
// everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod census;
mod circuit;
mod cost;
mod engine;
mod expand;
pub mod known;
mod mapping;
mod mitm;
mod seen;
mod snapshot;
mod spec;
mod spectrum;
pub mod universal;
mod width;
mod word;

pub use census::{Census, CensusRow, EXPECTED_TABLE_2, PAPER_TABLE_2};
pub use circuit::{Circuit, ParseCircuitError};
pub use cost::{CostModel, ParseCostModelError};
pub use engine::{Answer, EngineError, Query, SearchEngine, Strategy, Synthesis};
pub use mitm::CachedBidirectional;
pub use mvq_obs::{Probe, ProbeHandle};
pub use snapshot::{
    snapshot_backup_path, SnapshotError, SnapshotImage, SnapshotSource, SNAPSHOT_VERSION,
};
pub use spec::{synthesize_spec, QuaternarySpec, SpecError, SpecSynthesis};
pub use spectrum::CostSpectrum;
pub use width::{Mask256, MaskRepr, Narrow, SearchWidth, ShardKey, TraceRepr, Wide, WordRepr};
pub use word::{
    gate_table, FnvBuildHasher, FnvHasher, GateTable, Packed, PackedWord, PackedWord256,
};

/// The narrow-width engine: the paper's 2- and 3-wire setting
/// (`[u8; 64]` words, `u64` S-traces and banned masks).
pub type SynthesisEngine = SearchEngine<Narrow>;

/// The wide-width engine for 4-wire libraries (`[u8; 256]` words,
/// `u128` S-traces, 256-bit banned masks).
pub type WideSynthesisEngine = SearchEngine<Wide>;
