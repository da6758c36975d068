//! Service-concurrency determinism audit (the `mvq_serve` counterpart of
//! `settle_determinism.rs`): the same query mix must produce
//! **bit-identical** results — costs, witness counts, and circuits —
//! through (a) serial engine calls, (b) the in-process engine host with
//! 8 client threads, and (c) a snapshot round-trip (save → load →
//! query), including a host built over the loaded snapshot.

use std::collections::BTreeMap;
use std::sync::Arc;

use mvq_core::{known, Strategy, SynthesisEngine};
use mvq_perm::Perm;
use mvq_serve::EngineHost;

const CLIENTS: usize = 8;
const CB: u32 = 5;

/// Everything a query returns that must match across serving paths.
type Outcome = Option<(u32, usize, String)>;

fn outcome(result: Option<mvq_core::Synthesis>) -> Outcome {
    result.map(|syn| (syn.cost, syn.implementation_count, syn.circuit.to_string()))
}

/// The audit's query mix: every NOT-free class realizable within cost 4,
/// the three named gates (Fredkin's cost 7 exceeds the bound, so its
/// definitive `None` is part of the contract), and a NOT-layer target.
fn query_mix() -> Vec<Perm> {
    let mut enumerator = SynthesisEngine::unit_cost();
    let mut targets = Vec::new();
    for k in 0..=4u32 {
        for (perm, _) in enumerator.reversible_circuits_at_cost(k) {
            targets.push(perm);
        }
    }
    targets.push(known::peres_perm());
    targets.push(known::toffoli_perm());
    targets.push(known::fredkin_perm());
    targets.push("(1,2)(3,4)(5,6)(7,8)".parse().unwrap()); // NOT(C): coset layer
    targets.push("(1,3)(2,4)(5,8,6,7)".parse().unwrap()); // NOT layer + cascade
    targets
}

/// Serial reference: one private engine, one query at a time.
fn serial_reference(targets: &[Perm]) -> Vec<Outcome> {
    let mut engine = SynthesisEngine::unit_cost();
    targets
        .iter()
        .map(|t| outcome(engine.synthesize(t, CB)))
        .collect()
}

/// Drives every target through the host from `CLIENTS` threads
/// (interleaved round-robin, so all threads hammer the same levels) and
/// returns the outcomes in target order.
fn through_host(host: &EngineHost, targets: &[Perm]) -> Vec<Outcome> {
    let collected: BTreeMap<usize, Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    targets
                        .iter()
                        .enumerate()
                        .skip(client)
                        .step_by(CLIENTS)
                        .map(|(idx, target)| {
                            (idx, outcome(host.synthesize(target, CB).expect("admitted")))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(collected.len(), targets.len());
    collected.into_values().collect()
}

#[test]
fn host_with_8_clients_matches_serial_engine() {
    let targets = query_mix();
    let want = serial_reference(&targets);
    // Cold host: the first wave of clients races through the
    // single-flight expansion path while the rest resolve as readers.
    let host = EngineHost::new(SynthesisEngine::unit_cost(), 7);
    let got = through_host(&host, &targets);
    assert_eq!(want, got, "host outcomes diverge from serial outcomes");
    let stats = host.stats().unwrap();
    assert_eq!(
        stats.synthesize_requests,
        targets.len() as u64,
        "every query admitted"
    );
    // All clients needing the same levels shared expansions instead of
    // each re-expanding: never more write expansions than cost levels.
    assert!(
        stats.expansions <= u64::from(CB) + 1,
        "expected single-flight expansion sharing, saw {} expansions",
        stats.expansions
    );
}

#[test]
fn snapshot_roundtrip_preserves_service_results() {
    let targets = query_mix();
    let want = serial_reference(&targets);

    // Save a warm engine, reload it, and serve the same mix.
    let mut warm = SynthesisEngine::unit_cost();
    warm.expand_to_cost(CB);
    let bytes = warm.snapshot_to_bytes().expect("serialize warm engine");

    // (c1) serial queries on the loaded engine.
    let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes).expect("load");
    let serial_loaded: Vec<Outcome> = targets
        .iter()
        .map(|t| outcome(loaded.synthesize(t, CB)))
        .collect();
    assert_eq!(want, serial_loaded, "snapshot round-trip changed results");

    // (c2) 8 concurrent clients over a host built from the snapshot.
    let loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes).expect("load");
    let host = Arc::new(EngineHost::new(loaded, 7));
    let got = through_host(&host, &targets);
    assert_eq!(want, got, "snapshot-backed host diverges from serial");
    // The snapshot already covers every queried level: zero expansions.
    assert_eq!(host.stats().unwrap().expansions, 0);
}

#[test]
fn auto_strategy_matches_forced_uni() {
    // The serving planner must never change answers: "auto"
    // (cache-hit-or-bidirectional) and a forced "uni" agree on cost,
    // witness count, and reachability for the whole mix — including
    // Fredkin's definitive `None` at cb = 5 — even though the two
    // strategies may surface different (equally minimal) witness
    // circuits.
    let targets = query_mix();
    let uni_host = EngineHost::new(SynthesisEngine::unit_cost(), 7);
    let auto_host = EngineHost::new(SynthesisEngine::unit_cost(), 7);
    for target in &targets {
        let uni = uni_host
            .synthesize_traced(target, CB, Strategy::Uni, None)
            .map(|(s, _)| s)
            .expect("admitted");
        let auto = auto_host
            .synthesize_traced(target, CB, Strategy::Auto, None)
            .map(|(s, _)| s)
            .expect("admitted");
        assert_eq!(
            uni.as_ref().map(|s| (s.cost, s.implementation_count)),
            auto.as_ref().map(|s| (s.cost, s.implementation_count)),
            "strategy divergence on {target}"
        );
        if let Some(syn) = &auto {
            assert!(syn.circuit.verify_against_binary_perm(target), "{target}");
        }
    }
    // The auto host never deepened its shared forward levels past
    // level 0; the uni host climbed to the bound.
    assert_eq!(auto_host.stats().unwrap().completed, Some(0));
    assert_eq!(uni_host.stats().unwrap().completed, Some(5));
}

#[test]
fn concurrent_bounds_respect_warm_engine_semantics() {
    // Mixed bounds from many clients: under-bound queries must stay
    // `None` even while other clients warm the same shared engine past
    // their bound (the PR 2 warm-bound regression, service edition).
    let host = Arc::new(EngineHost::new(SynthesisEngine::unit_cost(), 7));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let bounded = Arc::clone(&host);
            scope.spawn(move || {
                for _ in 0..5 {
                    assert!(bounded
                        .synthesize(&known::toffoli_perm(), 4)
                        .unwrap()
                        .is_none());
                }
            });
            let unbounded = Arc::clone(&host);
            scope.spawn(move || {
                for _ in 0..5 {
                    let syn = unbounded
                        .synthesize(&known::toffoli_perm(), 6)
                        .unwrap()
                        .expect("cost 5 within bound 6");
                    assert_eq!(syn.cost, 5);
                    assert_eq!(syn.implementation_count, 4);
                }
            });
        }
    });
}
