//! Determinism audit for parallel sharded level expansion: for any
//! thread count the engine must produce **bit-identical** search state —
//! the same per-cost levels in the same order, the same class costs and
//! witness counts, and the same Dijkstra decrease-key outcomes under
//! weighted cost models — as the serial engine, warm and cold, for both
//! the unidirectional and bidirectional strategies.

use std::sync::{Arc, Mutex, OnceLock};

use mvq_core::{
    known, CostModel, Narrow, SearchEngine, SearchWidth, SynthesisEngine, SynthesisStrategy, Wide,
};
use mvq_logic::GateLibrary;
use mvq_perm::Perm;
use proptest::prelude::*;

const PARALLEL_THREADS: [usize; 4] = [2, 3, 4, 8];

fn unit_engine(threads: usize) -> SynthesisEngine {
    SynthesisEngine::with_threads(GateLibrary::standard(3), CostModel::unit(), threads)
}

fn weighted_engine(threads: usize) -> SynthesisEngine {
    SynthesisEngine::with_threads(
        GateLibrary::standard(3),
        CostModel::weighted(1, 2, 3),
        threads,
    )
}

/// Levels, counts, and class statistics must agree exactly — including
/// the *order* of words within every level.
fn assert_state_identical(
    reference: &SynthesisEngine,
    other: &SynthesisEngine,
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
        assert_eq!(
            reference.level_words(cost),
            other.level_words(cost),
            "{label}: level {cost} words (order-sensitive)"
        );
    }
}

#[test]
fn unit_cost_levels_bit_identical_across_thread_counts() {
    let mut serial = unit_engine(1);
    serial.expand_to_cost(5);
    for threads in PARALLEL_THREADS {
        let mut parallel = unit_engine(threads);
        parallel.expand_to_cost(5);
        assert_state_identical(&serial, &parallel, 5, &format!("unit, threads={threads}"));
    }
}

#[test]
fn weighted_levels_bit_identical_across_thread_counts() {
    // weighted(1,2,3) exercises gap levels, within-level cost mixing,
    // and the lazy decrease-key re-admissions.
    let mut serial = weighted_engine(1);
    serial.expand_to_cost(6);
    for threads in PARALLEL_THREADS {
        let mut parallel = weighted_engine(threads);
        parallel.expand_to_cost(6);
        assert_state_identical(
            &serial,
            &parallel,
            6,
            &format!("weighted(1,2,3), threads={threads}"),
        );
    }
}

#[test]
fn warm_synthesis_agrees_for_every_low_cost_class() {
    // Every class realizable within cost 4: identical minimal cost and
    // witness count on warm engines at every thread count, both
    // strategies.
    let mut enumerator = unit_engine(1);
    let mut serial = unit_engine(1);
    serial.expand_to_cost(4);
    for threads in PARALLEL_THREADS {
        let mut parallel = unit_engine(threads);
        parallel.expand_to_cost(4);
        for k in 0..=4u32 {
            for (perm, _) in enumerator.reversible_circuits_at_cost(k) {
                let want = serial.synthesize(&perm, 4).expect("within bound");
                let uni = parallel.synthesize(&perm, 4).expect("within bound");
                let bidi = parallel
                    .synthesize_bidirectional(&perm, 4)
                    .expect("within bound");
                assert_eq!(want.cost, uni.cost, "uni cost of {perm}, threads={threads}");
                assert_eq!(
                    want.implementation_count, uni.implementation_count,
                    "uni count of {perm}, threads={threads}"
                );
                assert_eq!(
                    want.cost, bidi.cost,
                    "bidi cost of {perm}, threads={threads}"
                );
                assert_eq!(
                    want.implementation_count, bidi.implementation_count,
                    "bidi count of {perm}, threads={threads}"
                );
                assert!(uni.circuit.verify_against_binary_perm(&perm));
                assert!(bidi.circuit.verify_against_binary_perm(&perm));
            }
        }
    }
}

#[test]
fn cold_bidirectional_deep_target_identical_across_thread_counts() {
    // Fredkin at cost 7 — cold engines, so the adaptive bidirectional
    // split and both frontiers' parallel expansion are exercised
    // end-to-end.
    for threads in [1, 2, 3, 4, 8] {
        let mut engine = unit_engine(threads);
        assert!(engine
            .synthesize_bidirectional(&known::fredkin_perm(), 6)
            .is_none());
        let syn = engine
            .synthesize_bidirectional(&known::fredkin_perm(), 7)
            .expect("cost 7");
        assert_eq!(syn.cost, 7, "threads={threads}");
        assert_eq!(syn.implementation_count, 16, "threads={threads}");
        assert!(syn
            .circuit
            .verify_against_binary_perm(&known::fredkin_perm()));
    }
}

#[test]
fn bidirectional_join_matrix_bit_identical_across_threads() {
    // The sharded bidirectional join: threads {1,2,4,8} ×
    // {unit, weighted(1,2,3)} × {warm, cold} × {3-wire, 4-wire} must
    // reproduce the serial join's cost, witness count, AND circuit
    // exactly (the shard-order merge keeps the first-witness scan order,
    // and the distinct-witness sets are merged without loss).
    fn case<W: SearchWidth>(
        wires: usize,
        model: CostModel,
        target: &Perm,
        cb: u32,
        warm: bool,
        label: &str,
    ) {
        let run = |threads: usize| {
            let mut engine =
                SearchEngine::<W>::with_threads(GateLibrary::standard(wires), model, threads);
            if warm {
                engine.expand_to_cost(2);
            }
            engine
                .synthesize_bidirectional(target, cb)
                .map(|s| (s.cost, s.implementation_count, s.circuit.to_string()))
        };
        let reference = run(1);
        assert!(reference.is_some(), "{label}: reference found no witness");
        for threads in PARALLEL_THREADS {
            assert_eq!(run(threads), reference, "{label}: threads={threads}");
        }
    }

    let unit = CostModel::unit();
    let weighted = CostModel::weighted(1, 2, 3);
    let weighted3: Perm = "(3,5)(4,6)".parse::<Perm>().unwrap().extended(8);
    // Toffoli embedded on 4 wires (flip C when A = B = 1), and the
    // 4-wire CNOT — whose weighted(1,2,3) minimum is a cost-2 double-V,
    // exercising gap levels in the wide join.
    let toffoli4 = known::parse_target_on("(13,15)(14,16)", 16).unwrap();
    let cnot4 = known::parse_target_on("(9,10)(11,12)(13,14)(15,16)", 16).unwrap();
    for warm in [false, true] {
        let w = if warm { "warm" } else { "cold" };
        case::<Narrow>(
            3,
            unit,
            &known::fredkin_perm(),
            7,
            warm,
            &format!("3-wire unit fredkin, {w}"),
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
            &toffoli4,
            5,
            warm,
            &format!("4-wire unit toffoli, {w}"),
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

#[test]
fn weighted_cold_synthesis_identical_across_thread_counts() {
    // The Dijkstra-exactness regression target under weighted(1,2,3):
    // an all-V cost-6 cascade beats the first-seen cost-7 path.
    let target: Perm = "(3,5)(4,6)".parse::<Perm>().unwrap().extended(8);
    let mut serial = weighted_engine(1);
    let want = serial.synthesize(&target, 8).expect("reachable");
    assert_eq!(want.cost, 6);
    for threads in PARALLEL_THREADS {
        let mut uni = weighted_engine(threads);
        let mut bidi = weighted_engine(threads);
        let a = uni.synthesize(&target, 8).expect("reachable");
        let b = bidi
            .synthesize_bidirectional(&target, 8)
            .expect("reachable");
        assert_eq!(a.cost, want.cost, "threads={threads}");
        assert_eq!(b.cost, want.cost, "threads={threads}");
        assert_eq!(
            a.implementation_count, want.implementation_count,
            "threads={threads}"
        );
        assert_eq!(
            b.implementation_count, want.implementation_count,
            "threads={threads}"
        );
    }
}

#[test]
fn set_threads_on_warm_engine_keeps_expansion_identical() {
    // Reshard mid-search: expand serially to cost 3, switch to 4
    // threads, finish to cost 5 — state must match an all-serial run.
    let mut serial = unit_engine(1);
    serial.expand_to_cost(5);
    let mut mixed = unit_engine(1);
    mixed.expand_to_cost(3);
    mixed.set_threads(4);
    assert_eq!(mixed.threads(), 4);
    mixed.expand_to_cost(5);
    assert_state_identical(&serial, &mixed, 5, "reshard at cost 3");
    // And back down to serial.
    mixed.set_threads(1);
    assert_eq!(mixed.minimal_cost(&known::toffoli_perm(), 5), Some(5));
}

/// Settles a fresh 3-wire engine under `model` level by level, the way a
/// host climbs, until cost `cb` is settled.
fn settled_engine(model: CostModel, threads: usize, cb: u32) -> SynthesisEngine {
    let mut e = SynthesisEngine::with_threads(GateLibrary::standard(3), model, threads);
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
    for threads in [1, 4] {
        let label = format!("{:?} to cost {cb}, threads={threads}", model.weights());
        let mut settled = settled_engine(model, threads, cb);
        let mut expanded = SynthesisEngine::with_threads(GateLibrary::standard(3), model, threads);
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

        // A builder deepening a settled engine expands its top level
        // inside the next full step.
        let mut settled = settled_engine(model, threads, cb);
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
}

#[test]
fn settled_climbs_match_full_expansion() {
    assert_settle_matches_expand(CostModel::unit(), 4);
    // weighted(1,1,3) drops stale copies at level 7.
    assert_settle_matches_expand(CostModel::weighted(1, 1, 3), 7);
}

#[test]
#[ignore = "deep: expands the unit model to cost 7 twice per thread count; \
            run with --release -- --include-ignored"]
fn settled_unit_climb_to_cost_6_matches_full_expansion() {
    assert_settle_matches_expand(CostModel::unit(), 6);
}

/// Records `(cost, generated, stale_dropped)` for every expanded level.
#[derive(Default)]
struct LevelWork(Mutex<Vec<(u32, u64, u64)>>);

impl mvq_obs::Probe for LevelWork {
    fn level_work(&self, cost: u32, generated: u64, stale_dropped: u64) {
        if let Ok(mut work) = self.0.lock() {
            work.push((cost, generated, stale_dropped));
        }
    }
}

fn with_level_work(engine: &mut SynthesisEngine) -> Arc<LevelWork> {
    let work = Arc::new(LevelWork::default());
    engine.set_probe(mvq_core::ProbeHandle::new(work.clone()));
    work
}

#[test]
fn set_threads_with_stale_copies_pending_keeps_expansion_identical() {
    // weighted(1,1,3) re-admits words at a cheaper cost, leaving stale
    // copies behind in later buckets. Pending buckets hold `seen`
    // handles, and `set_threads` re-issues them when the shard count
    // changes (1 → 4 and 3 → 1 here; 4 and 3 threads share 16 shards).
    // Change the thread count while stale copies are pending, and the
    // state must still match an all-serial run.
    let model = CostModel::weighted(1, 1, 3);
    let engine = |threads| SynthesisEngine::with_threads(GateLibrary::standard(3), model, threads);
    let mut serial = engine(1);
    let serial_work = with_level_work(&mut serial);
    serial.expand_to_cost(9);

    let mut mixed = engine(1);
    let mixed_work = with_level_work(&mut mixed);
    mixed.expand_to_cost(6);
    for (threads, cb) in [(4, 7), (3, 8), (1, 9)] {
        mixed.set_threads(threads);
        assert_eq!(mixed.threads(), threads);
        mixed.expand_to_cost(cb);
    }

    let work = mixed_work.0.lock().expect("no poisoning").clone();
    assert_eq!(work, *serial_work.0.lock().expect("no poisoning"));
    // Each level expanded after a change dropped stale copies, so each
    // change happened while some were pending.
    for cost in 7..=9 {
        assert!(
            work[cost].2 > 0,
            "no stale copies at level {cost}: {work:?}"
        );
    }
    assert_state_identical(&serial, &mixed, 9, "weighted(1,1,3) resharded at 6, 7, 8");
    assert_eq!(
        serial.snapshot_to_bytes().expect("standard library"),
        mixed.snapshot_to_bytes().expect("standard library"),
        "snapshot bytes"
    );
}

/// Shared warm engines for the property suite: one per thread count,
/// expanded once (proptest would otherwise rebuild the cost-5 levels
/// for every case).
fn warm_engines() -> &'static Mutex<Vec<SynthesisEngine>> {
    static ENGINES: OnceLock<Mutex<Vec<SynthesisEngine>>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let engines = [1, 2, 4, 8]
            .into_iter()
            .map(|threads| {
                let mut engine = unit_engine(threads);
                engine.expand_to_cost(5);
                engine
            })
            .collect();
        Mutex::new(engines)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_targets_agree_across_thread_counts_and_strategies(
        images in Just((1..=8usize).collect::<Vec<_>>()).prop_shuffle(),
        strategy_bit in any::<bool>(),
    ) {
        let target = Perm::from_images(&images).expect("shuffled bijection");
        let strategy = if strategy_bit {
            SynthesisStrategy::Bidirectional
        } else {
            SynthesisStrategy::Unidirectional
        };
        let mut engines = warm_engines().lock().expect("no poisoning");
        let reference = engines[0]
            .synthesize(&target, 5)
            .map(|s| (s.cost, s.implementation_count));
        for engine in engines.iter_mut() {
            let got = engine
                .synthesize_with(strategy, &target, 5)
                .map(|s| (s.cost, s.implementation_count));
            prop_assert_eq!(
                got,
                reference,
                "threads={}, strategy={}",
                engine.threads(),
                strategy
            );
        }
    }
}
