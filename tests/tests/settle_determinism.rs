//! Determinism audit for the level climb: settling levels one at a time
//! (the way a host climbs, the deepest level left unexpanded) must build
//! bit-identical search state to full expansion — the same levels in the
//! same order, the same classes, the same snapshot bytes — and the
//! unidirectional and bidirectional strategies must agree on every
//! answer, warm and cold, on 3 and 4 wires.

use std::sync::{Mutex, OnceLock};

use mvq_core::{known, CostModel, Narrow, SearchEngine, SearchWidth, SynthesisEngine, Wide};
use mvq_logic::GateLibrary;
use mvq_perm::Perm;
use proptest::prelude::*;

#[test]
fn warm_synthesis_agrees_for_every_low_cost_class() {
    // Every class realizable within cost 4: identical minimal cost and
    // witness count from a warm engine under both strategies.
    let mut enumerator = SynthesisEngine::unit_cost();
    let mut warm = SynthesisEngine::unit_cost();
    warm.expand_to_cost(4);
    for k in 0..=4u32 {
        for (perm, _) in enumerator.reversible_circuits_at_cost(k) {
            let uni = warm.synthesize(&perm, 4).expect("within bound");
            let bidi = warm
                .synthesize_bidirectional(&perm, 4)
                .expect("within bound");
            assert_eq!(uni.cost, k, "uni cost of {perm}");
            assert_eq!(bidi.cost, k, "bidi cost of {perm}");
            assert_eq!(
                uni.implementation_count, bidi.implementation_count,
                "witness count of {perm}"
            );
            assert!(uni.circuit.verify_against_binary_perm(&perm));
            assert!(bidi.circuit.verify_against_binary_perm(&perm));
        }
    }
}

#[test]
fn bidirectional_join_matrix_matches_unidirectional() {
    // The bidirectional join over {unit, weighted(1,2,3)} × {warm,
    // cold} × {3-wire, 4-wire}: cost and witness count equal the
    // unidirectional answer, the circuit verifies, and a warm engine's
    // forward depth stays where the warm-up left it.
    fn case<W: SearchWidth>(
        wires: usize,
        model: CostModel,
        target: &Perm,
        cb: u32,
        warm: bool,
        label: &str,
    ) {
        let new = || SearchEngine::<W>::new(GateLibrary::standard(wires), model);
        let want = new()
            .synthesize(target, cb)
            .map(|s| (s.cost, s.implementation_count));
        assert!(want.is_some(), "{label}: unidirectional found no witness");
        let mut engine = new();
        if warm {
            engine.expand_to_cost(2);
        }
        let got = engine
            .synthesize_bidirectional(target, cb)
            .expect("reachable");
        assert_eq!(Some((got.cost, got.implementation_count)), want, "{label}");
        assert!(got.circuit.verify_against_binary_perm(target), "{label}");
        // The same engine answers the same query again, identically.
        let again = engine
            .synthesize_bidirectional(target, cb)
            .expect("reachable");
        assert_eq!(
            again.circuit.to_string(),
            got.circuit.to_string(),
            "{label}"
        );
    }

    let unit = CostModel::unit();
    let weighted = CostModel::weighted(1, 2, 3);
    let weighted3: Perm = "(3,5)(4,6)".parse::<Perm>().unwrap().extended(8);
    // Peres embedded on 4 wires (D idle, so each 3-wire pattern splits
    // in two), and the 4-wire CNOT — whose weighted(1,2,3) minimum is a
    // cost-2 double-V, exercising gap levels in the wide join.
    let peres4 = known::parse_target_on("(9,13,11,15)(10,14,12,16)", 16).unwrap();
    let cnot4 = known::parse_target_on("(9,10)(11,12)(13,14)(15,16)", 16).unwrap();
    for warm in [false, true] {
        let w = if warm { "warm" } else { "cold" };
        case::<Narrow>(
            3,
            unit,
            &known::toffoli_perm(),
            6,
            warm,
            &format!("3-wire unit toffoli, {w}"),
        );
        case::<Narrow>(
            3,
            weighted,
            &weighted3,
            8,
            warm,
            &format!("3-wire weighted(1,2,3), {w}"),
        );
        case::<Wide>(
            4,
            unit,
            &peres4,
            4,
            warm,
            &format!("4-wire unit peres, {w}"),
        );
        case::<Wide>(
            4,
            weighted,
            &cnot4,
            4,
            warm,
            &format!("4-wire weighted(1,2,3) cnot, {w}"),
        );
    }
}

/// Settles a fresh 3-wire engine under `model` level by level, the way a
/// host climbs, until cost `cb` is settled.
fn settled_engine(model: CostModel, cb: u32) -> SynthesisEngine {
    let mut e = SynthesisEngine::new(GateLibrary::standard(3), model);
    while e.completed_cost().is_none_or(|c| c < cb) {
        assert!(e.settle_one_level(), "space exhausted below {cb}");
    }
    e
}

/// Settling levels (each expanded only when the next is settled, the
/// deepest left unexpanded) must build the same search state as full
/// expansion: the same levels in the same order, the same classes, and
/// — once both expand one level deeper — the same `A` and the same new
/// level. A snapshot of the settled engine expands its top level first
/// and must be byte-identical.
fn assert_settle_matches_expand(model: CostModel, cb: u32) {
    let label = format!("{:?} to cost {cb}", model.weights());
    let mut settled = settled_engine(model, cb);
    let mut expanded = SynthesisEngine::new(GateLibrary::standard(3), model);
    expanded.expand_to_cost(cb);
    assert_eq!(settled.g_counts(), expanded.g_counts(), "{label}: g_counts");
    assert_eq!(settled.b_counts(), expanded.b_counts(), "{label}: b_counts");
    assert_eq!(
        settled.classes_found(),
        expanded.classes_found(),
        "{label}: classes"
    );
    for cost in 0..=cb {
        assert_eq!(
            settled.level_words(cost),
            expanded.level_words(cost),
            "{label}: level {cost} words (order-sensitive)"
        );
    }
    assert_eq!(
        settled.snapshot_to_bytes().expect("standard library"),
        expanded.snapshot_to_bytes().expect("standard library"),
        "{label}: snapshot bytes"
    );

    // A builder deepening a settled engine expands its top level inside
    // the next full step.
    let mut settled = settled_engine(model, cb);
    settled.expand_to_cost(cb + 1);
    expanded.expand_to_cost(cb + 1);
    assert_eq!(settled.a_size(), expanded.a_size(), "{label}: |A|");
    assert_eq!(
        settled.level_words(cb + 1),
        expanded.level_words(cb + 1),
        "{label}: level {} words",
        cb + 1
    );
}

#[test]
fn settled_climbs_match_full_expansion() {
    assert_settle_matches_expand(CostModel::unit(), 4);
    // weighted(1,1,3) drops stale copies at level 7.
    assert_settle_matches_expand(CostModel::weighted(1, 1, 3), 7);
}

#[test]
#[ignore = "deep: expands the unit model to cost 7 twice; \
            run with --release -- --include-ignored"]
fn settled_unit_climb_to_cost_6_matches_full_expansion() {
    assert_settle_matches_expand(CostModel::unit(), 6);
}

/// The shared warm engine for the property suite, expanded once
/// (proptest would otherwise rebuild the cost-5 levels for every case).
fn warm_engine() -> &'static Mutex<SynthesisEngine> {
    static ENGINE: OnceLock<Mutex<SynthesisEngine>> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut engine = SynthesisEngine::unit_cost();
        engine.expand_to_cost(5);
        Mutex::new(engine)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_targets_agree_across_strategies(
        images in Just((1..=8usize).collect::<Vec<_>>()).prop_shuffle(),
    ) {
        let target = Perm::from_images(&images).expect("shuffled bijection");
        let mut engine = warm_engine().lock().expect("no poisoning");
        let reference = engine
            .synthesize(&target, 5)
            .map(|s| (s.cost, s.implementation_count));
        // `mvq_core::Strategy`, spelled out: proptest's prelude has a
        // `Strategy` trait of its own.
        for strategy in [mvq_core::Strategy::Bidi, mvq_core::Strategy::Auto] {
            let got = engine
                .synthesize_with(strategy, &target, 5)
                .map(|s| (s.cost, s.implementation_count));
            prop_assert_eq!(got, reference, "strategy={}", strategy);
        }
    }
}
