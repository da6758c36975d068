//! The n = 4 suite: the widened search core (256-pattern words, u128
//! S-traces, bitset banned masks) must behave exactly like the narrow
//! core scaled up — pinned census counts, strategy-agreeing syntheses, warm-bound semantics, and snapshot round-trips on the
//! 4-wire library — and the widening must leave every 3-wire result
//! byte-identical (narrow vs wide engines over the same library).

use mvq_core::{
    known, CostModel, SearchEngine, SearchWidth, SnapshotError, SynthesisEngine,
    WideSynthesisEngine, WordRepr,
};
use mvq_logic::GateLibrary;
use mvq_perm::Perm;
use proptest::prelude::*;

/// The 4-wire CNOT `D ^= A` (cost 1): patterns 9–16 have `A = 1`, and
/// flipping `D` pairs them up.
const CNOT_DA: &str = "(9,10)(11,12)(13,14)(15,16)";

fn wide_unit() -> WideSynthesisEngine {
    WideSynthesisEngine::new(GateLibrary::standard(4), CostModel::unit())
}

fn cnot_da() -> Perm {
    known::parse_target_on(CNOT_DA, 16).expect("valid 4-wire target")
}

/// Order-sensitive state comparison across two engines of any widths
/// (levels are compared as raw image tables so narrow and wide words
/// can be checked against each other).
fn assert_state_identical<A: SearchWidth, B: SearchWidth>(
    reference: &SearchEngine<A>,
    other: &SearchEngine<B>,
    up_to: u32,
    label: &str,
) {
    assert_eq!(reference.g_counts(), other.g_counts(), "{label}: g_counts");
    assert_eq!(reference.b_counts(), other.b_counts(), "{label}: b_counts");
    assert_eq!(reference.a_size(), other.a_size(), "{label}: |A|");
    assert_eq!(
        reference.classes_found(),
        other.classes_found(),
        "{label}: classes"
    );
    for cost in 0..=up_to {
        let reference_words = reference.level_words(cost).unwrap_or_default();
        let other_words = other.level_words(cost).unwrap_or_default();
        let want: Vec<&[u8]> = reference_words.iter().map(|w| w.as_slice()).collect();
        let got: Vec<&[u8]> = other_words.iter().map(|w| w.as_slice()).collect();
        assert_eq!(want, got, "{label}: level {cost} words (order-sensitive)");
    }
}

#[test]
fn four_wire_census_counts_are_pinned() {
    // Golden counts for the 36-gate 4-wire library (measured once from
    // the widened engine, stable across versions).
    let mut e = wide_unit();
    e.expand_to_cost(3);
    assert_eq!(e.g_counts(), &[1, 12, 96, 542]);
    assert_eq!(e.b_counts(), &[1, 36, 684, 9354]);
    assert_eq!(e.a_size(), 114_925);
}

#[test]
fn four_wire_census_a_size_counts_settled_words() {
    // The census settles cost 3 without expanding it: |A| is
    // Σ |B[k]| = 1 + 36 + 684 + 9,354, not the 114,925 words an
    // expanded engine holds.
    let census = mvq_core::Census::compute_with(&mut wide_unit(), 3);
    let g: Vec<usize> = census.rows().iter().map(|r| r.g_count).collect();
    assert_eq!(g, [1, 12, 96, 542]);
    assert_eq!(census.rows()[3].s8_count, 16 * 542);
    assert_eq!(census.a_size(), 10_075);
}

#[test]
#[ignore = "expands 4-wire level 4: ~0.4 s and ~280 MB in release"]
fn four_wire_expanded_a_size_at_cost_4_is_pinned() {
    // The benchmark checks this value after `expand_to_cost(4)`.
    let mut e = wide_unit();
    e.expand_to_cost(4);
    assert_eq!(e.b_counts(), &[1, 36, 684, 9354, 104_850]);
    assert_eq!(e.a_size(), 1_153_039);
}

#[test]
fn four_wire_uni_and_bidi_agree_cold_and_warm() {
    let cnot = cnot_da();
    // Cold engines, one per strategy.
    let mut uni = wide_unit();
    let mut bidi = wide_unit();
    let a = uni.synthesize(&cnot, 3).expect("cost 1");
    let b = bidi.synthesize_bidirectional(&cnot, 3).expect("cost 1");
    assert_eq!(a.cost, 1);
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.implementation_count, b.implementation_count);
    assert!(a.circuit.verify_against_binary_perm(&cnot));
    assert!(b.circuit.verify_against_binary_perm(&cnot));

    // Warm: the same engines answer again (and honor the bound).
    assert!(uni.synthesize(&cnot, 0).is_none(), "warm bound");
    assert!(bidi.synthesize_bidirectional(&cnot, 0).is_none());
    let warm = uni.synthesize(&cnot, 3).expect("warm hit");
    assert_eq!(warm.circuit.to_string(), a.circuit.to_string());
}

#[test]
fn four_wire_low_cost_classes_agree_between_strategies() {
    let mut enumerator = wide_unit();
    let mut uni = wide_unit();
    let mut bidi = wide_unit();
    let mut checked = 0;
    for k in 0..=2u32 {
        for (perm, circuit) in enumerator.reversible_circuits_at_cost(k) {
            assert_eq!(
                CostModel::unit().cascade_cost(circuit.gates()),
                k,
                "witness of {perm}"
            );
            let a = uni.synthesize(&perm, 2).expect("reachable");
            let b = bidi.synthesize_bidirectional(&perm, 2).expect("reachable");
            assert_eq!(a.cost, k, "unidirectional {perm}");
            assert_eq!(b.cost, k, "bidirectional {perm}");
            assert_eq!(a.implementation_count, b.implementation_count, "{perm}");
            assert!(b.circuit.verify_against_binary_perm(&perm), "{perm}");
            checked += 1;
        }
    }
    assert_eq!(checked, 1 + 12 + 96);
}

#[test]
fn four_wire_snapshot_roundtrip_resumes_bit_identically() {
    let mut reference = wide_unit();
    reference.expand_to_cost(3);

    let mut snapshotted = wide_unit();
    snapshotted.expand_to_cost(2);
    let bytes = snapshotted.snapshot_to_bytes().expect("serialize");

    let mut resumed = WideSynthesisEngine::load_snapshot_from_bytes(&bytes).expect("load");
    assert_eq!(resumed.completed_cost(), Some(2));
    resumed.expand_to_cost(3);
    assert_state_identical(&reference, &resumed, 3, "snapshot resume");
    // The resumed engine answers queries like the reference.
    let cnot = cnot_da();
    let want = reference.synthesize(&cnot, 3).expect("cost 1");
    let got = resumed.synthesize(&cnot, 3).expect("cost 1");
    assert_eq!(want.circuit.to_string(), got.circuit.to_string());
}

#[test]
fn four_wire_snapshot_rejects_the_narrow_engine() {
    let mut wide = wide_unit();
    wide.expand_to_cost(1);
    let bytes = wide.snapshot_to_bytes().expect("serialize");
    let err = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap_err();
    assert!(
        matches!(err, SnapshotError::WidthMismatch { .. }),
        "expected WidthMismatch, got {err}"
    );
}

#[test]
fn four_wire_weighted_model_is_dijkstra_exact() {
    // Asymmetric weights exercise the decrease-key path at the wide
    // width; both strategies must agree with the enumerated class cost.
    let model = CostModel::weighted(1, 2, 3);
    let mut enumerator = WideSynthesisEngine::new(GateLibrary::standard(4), model);
    let mut bidi = WideSynthesisEngine::new(GateLibrary::standard(4), model);
    for k in 0..=2u32 {
        for (perm, circuit) in enumerator.reversible_circuits_at_cost(k) {
            assert_eq!(model.cascade_cost(circuit.gates()), k, "witness of {perm}");
            let b = bidi.synthesize_bidirectional(&perm, 2).expect("reachable");
            assert_eq!(b.cost, k, "{perm}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The widening refactor leaves every 3-wire result byte-identical:
    /// for random weighted models and depths, the narrow and wide
    /// engines over the same 3-wire library produce identical levels
    /// (word image tables in order), counts, and syntheses.
    #[test]
    fn narrow_and_wide_are_byte_identical_on_3_wires(
        v in 1u32..=3,
        vd in 1u32..=3,
        f in 1u32..=3,
        depth in 0u32..=3,
    ) {
        let model = CostModel::weighted(v, vd, f);
        let mut narrow = SynthesisEngine::new(GateLibrary::standard(3), model);
        let mut wide = WideSynthesisEngine::new(GateLibrary::standard(3), model);
        narrow.expand_to_cost(depth);
        wide.expand_to_cost(depth);
        assert_state_identical(&narrow, &wide, depth, "narrow vs wide");

        let a = narrow.synthesize(&known::toffoli_perm(), depth);
        let b = wide.synthesize(&known::toffoli_perm(), depth);
        prop_assert_eq!(a.is_some(), b.is_some());
        if let (Some(a), Some(b)) = (a, b) {
            prop_assert_eq!(a.cost, b.cost);
            prop_assert_eq!(a.implementation_count, b.implementation_count);
            prop_assert_eq!(a.circuit.to_string(), b.circuit.to_string());
        }
    }
}
