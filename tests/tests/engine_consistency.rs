//! Consistency of the MCE front-ends across engine states and strategies:
//! a warm engine (levels cached past the query bound) must agree with a
//! cold one for every cost bound, and the bidirectional (meet-in-the-
//! middle) search must report costs and implementation counts identical
//! to the paper's unidirectional formulation.

use std::sync::{Mutex, OnceLock};

use mvq_core::{known, CachedBidirectional, Circuit, CostModel, SynthesisEngine};
use mvq_logic::{Gate, GateLibrary, Pattern};
use mvq_perm::Perm;
use proptest::prelude::*;

/// A shared engine pre-expanded to cost 5 — "warm" relative to every
/// bound the property tests query.
fn warm_engine() -> &'static Mutex<SynthesisEngine> {
    static ENGINE: OnceLock<Mutex<SynthesisEngine>> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut e = SynthesisEngine::unit_cost();
        e.expand_to_cost(5);
        Mutex::new(e)
    })
}

/// A shared engine for bidirectional queries (forward levels shared).
fn bidi_engine() -> &'static Mutex<SynthesisEngine> {
    static ENGINE: OnceLock<Mutex<SynthesisEngine>> = OnceLock::new();
    ENGINE.get_or_init(|| Mutex::new(SynthesisEngine::unit_cost()))
}

/// Builds a random cascade that respects the reasonable-product
/// constraint (same construction as the cross-crate property suite).
fn reasonable_cascade(choices: &[u8]) -> Vec<Gate> {
    let lib = GateLibrary::standard(3);
    let domain = lib.domain();
    let mut patterns: Vec<Pattern> = lib
        .binary_set()
        .iter()
        .map(|&i| domain.pattern(i).clone())
        .collect();
    let mut gates = Vec::new();
    for &c in choices {
        let image_mask: u64 = patterns
            .iter()
            .map(|p| 1u64 << (domain.index(p).expect("in domain") - 1))
            .sum();
        let allowed: Vec<Gate> = lib
            .gates()
            .iter()
            .filter(|lg| lg.is_reasonable_after(image_mask))
            .map(|lg| lg.gate())
            .collect();
        if allowed.is_empty() {
            break;
        }
        let gate = allowed[c as usize % allowed.len()];
        for p in &mut patterns {
            *p = gate.apply(p);
        }
        gates.push(gate);
    }
    gates
}

/// A uniformly random permutation of `{1, …, 8}` from raw entropy bytes.
fn random_perm(entropy: &[u8]) -> Perm {
    let mut images: Vec<usize> = (1..=8).collect();
    for i in (1..images.len()).rev() {
        let j = entropy[i % entropy.len()] as usize % (i + 1);
        images.swap(i, j);
    }
    Perm::from_images(&images).expect("shuffle is a bijection")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn warm_and_cold_agree_on_reachable_targets(
        choices in prop::collection::vec(any::<u8>(), 0..6)
    ) {
        // Targets built from reasonable cascades are reachable within
        // cost 5, so every bound 0..=5 crosses the interesting boundary
        // between "below minimal cost" and "at or above it".
        let gates = reasonable_cascade(&choices);
        let circuit = Circuit::new(3, gates);
        if let Some(target) = circuit.binary_perm() {
            let mut cold = SynthesisEngine::unit_cost();
            let mut warm = warm_engine().lock().expect("no poisoning");
            for cb in 0..=5u32 {
                // Ascending bounds keep `cold` exactly as expanded as a
                // fresh engine queried once with this bound would be.
                prop_assert_eq!(
                    warm.minimal_cost(&target, cb),
                    cold.minimal_cost(&target, cb),
                    "cb = {}", cb
                );
            }
        }
    }

    #[test]
    fn warm_and_cold_agree_on_arbitrary_targets(
        entropy in prop::collection::vec(any::<u8>(), 8)
    ) {
        // Fully random permutations of the 8 binary patterns are usually
        // *not* reachable within small bounds, so both engines must agree
        // on `None` too.
        let target = random_perm(&entropy);
        let mut cold = SynthesisEngine::unit_cost();
        let mut warm = warm_engine().lock().expect("no poisoning");
        for cb in 0..=3u32 {
            prop_assert_eq!(
                warm.minimal_cost(&target, cb),
                cold.minimal_cost(&target, cb),
                "cb = {}", cb
            );
        }
    }

    #[test]
    fn bidirectional_agrees_with_unidirectional(
        choices in prop::collection::vec(any::<u8>(), 0..6)
    ) {
        let gates = reasonable_cascade(&choices);
        let circuit = Circuit::new(3, gates);
        if let Some(target) = circuit.binary_perm() {
            let mut uni = warm_engine().lock().expect("no poisoning");
            let mut bidi = bidi_engine().lock().expect("no poisoning");
            for cb in 0..=5u32 {
                let a = uni.synthesize(&target, cb);
                let b = bidi.synthesize_bidirectional(&target, cb);
                prop_assert_eq!(
                    a.as_ref().map(|s| (s.cost, s.implementation_count)),
                    b.as_ref().map(|s| (s.cost, s.implementation_count)),
                    "cb = {}", cb
                );
                if let Some(syn) = &b {
                    prop_assert!(syn.circuit.verify_against_binary_perm(&target));
                }
            }
        }
    }

    #[test]
    fn quaternary_count_matches_class_witness_count(
        choices in prop::collection::vec(any::<u8>(), 1..5)
    ) {
        // For a NOT-free reversible target, the Section 4 front-end must
        // report the same number of minimal implementations as the class
        // search (the paper's Peres = 2 / Toffoli = 4 accounting).
        let gates = reasonable_cascade(&choices);
        let circuit = Circuit::new(3, gates);
        if let Some(target) = circuit.binary_perm() {
            let images: Vec<usize> = (1..=8).map(|p| target.image(p)).collect();
            let mut warm = warm_engine().lock().expect("no poisoning");
            let direct = warm.synthesize(&target, 5).expect("reachable");
            let quaternary = warm
                .synthesize_quaternary(&images, 5)
                .expect("reachable");
            prop_assert_eq!(direct.cost, quaternary.cost);
            prop_assert_eq!(direct.implementation_count, quaternary.implementation_count);
        }
    }
}

#[test]
fn warm_engine_regression_toffoli_bound() {
    // The headline bugfix: a warm engine must return `None` whenever the
    // minimal cost exceeds `cb`, no matter how far the levels reach.
    let mut warm = warm_engine().lock().expect("no poisoning");
    assert_eq!(warm.minimal_cost(&known::toffoli_perm(), 4), None);
    assert!(warm.synthesize(&known::toffoli_perm(), 4).is_none());
    assert!(warm.synthesize_all(&known::toffoli_perm(), 4).is_empty());
    assert_eq!(warm.minimal_cost(&known::toffoli_perm(), 5), Some(5));
}

#[test]
#[ignore = "exhaustive: synthesizes all 1260 classes up to cost 7 both ways; \
            run with --release -- --include-ignored"]
fn bidirectional_matches_unidirectional_on_all_classes_to_cost_7() {
    // Cost 7 is deliberately included: witness counting at that depth
    // regressed once (one canonical suffix per backward trace), and only
    // an exhaustive sweep catches the dozens of affected classes.
    // `auto` answers from its own settled levels where they decide and
    // meets in the middle past them, on a third engine.
    let mut uni = SynthesisEngine::unit_cost();
    let mut bidi = SynthesisEngine::unit_cost();
    let mut auto = SynthesisEngine::unit_cost();
    for k in 0..=7u32 {
        for (perm, _) in uni.reversible_circuits_at_cost(k) {
            let a = uni.synthesize(&perm, 7).expect("reachable");
            let b = bidi.synthesize_bidirectional(&perm, 7).expect("reachable");
            let c = auto
                .synthesize_with(mvq_core::Strategy::Auto, &perm, 7)
                .expect("reachable");
            assert_eq!(a.cost, k, "unidirectional cost of {perm}");
            assert_eq!(b.cost, k, "bidirectional cost of {perm}");
            assert_eq!(c.cost, k, "auto cost of {perm}");
            assert_eq!(
                a.implementation_count, b.implementation_count,
                "witness count of {perm}"
            );
            assert_eq!(
                a.implementation_count, c.implementation_count,
                "auto witness count of {perm}"
            );
            assert!(b.circuit.verify_against_binary_perm(&perm));
            assert!(c.circuit.verify_against_binary_perm(&perm));
        }
    }
    // Neither meet-in-the-middle engine had to build the deep levels.
    assert!(uni.a_size() > 10 * bidi.a_size());
    assert!(uni.a_size() > 10 * auto.a_size());
}

/// Engines settled to each forward depth — the state a host's climb
/// leaves, with the deepest level unexpanded — and prepared for cached
/// bidirectional queries up to `cb`, at 1 and 4 threads.
fn prepared_engines(model: CostModel, depths: &[u32], cb: u32) -> Vec<SynthesisEngine> {
    let mut engines = Vec::new();
    for &depth in depths {
        for threads in [1, 4] {
            let mut e = SynthesisEngine::with_threads(GateLibrary::standard(3), model, threads);
            while e.completed_cost().is_none_or(|c| c < depth) {
                assert!(e.settle_one_level(), "space exhausted below {depth}");
            }
            e.prepare_bidirectional(cb);
            engines.push(e);
        }
    }
    engines
}

/// Sends every class of cost ≤ `cb` under `model` through the cached
/// bidirectional read path of each engine: it must resolve to the
/// unidirectional cost and witness count with a verifying circuit, and
/// to a definitive `None` one cost below.
fn assert_cached_path_matches_uni(model: CostModel, engines: &[SynthesisEngine], cb: u32) {
    let mut uni = SynthesisEngine::new(GateLibrary::standard(3), model);
    for k in 0..=cb {
        for (perm, _) in uni.reversible_circuits_at_cost(k) {
            let a = uni.synthesize(&perm, cb).expect("reachable");
            assert_eq!(a.cost, k, "unidirectional cost of {perm}");
            for e in engines {
                let depth = e.completed_cost().expect("warm");
                let CachedBidirectional::Resolved(Some(b)) =
                    e.synthesize_bidirectional_cached(&perm, cb)
                else {
                    panic!("{perm} unresolved at forward depth {depth}");
                };
                assert_eq!(b.cost, k, "cached cost of {perm} at forward depth {depth}");
                assert_eq!(
                    a.implementation_count, b.implementation_count,
                    "cached witness count of {perm} at forward depth {depth}"
                );
                assert!(b.circuit.verify_against_binary_perm(&perm));
                if k > 0 {
                    assert!(
                        matches!(
                            e.synthesize_bidirectional_cached(&perm, k - 1),
                            CachedBidirectional::Resolved(None)
                        ),
                        "{perm} under its cost at forward depth {depth}"
                    );
                }
            }
        }
    }
}

#[test]
#[ignore = "exhaustive: resolves every class up to cost 7 through the cached \
            bidirectional read path; run with --release -- --include-ignored"]
fn cached_bidirectional_matches_unidirectional_at_fixed_forward_depths() {
    // The read path a warm server answers deep targets with: the forward
    // depth is pinned to the cache, and only the per-query backward
    // frontier grows — all 1260 classes at forward depths 3 and 5.
    let engines = prepared_engines(CostModel::unit(), &[3, 5], 7);
    assert_cached_path_matches_uni(CostModel::unit(), &engines, 7);
    // Feynman costs 3 here, so the coverage invariant's `max_gate − 1`
    // slack decides where the backward frontier may stop.
    let weighted = CostModel::weighted(1, 1, 3);
    let engines = prepared_engines(weighted, &[3], 7);
    assert_cached_path_matches_uni(weighted, &engines, 7);
}
