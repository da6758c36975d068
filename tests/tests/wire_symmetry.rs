//! Wire-relabeling symmetry of the search levels.
//!
//! Relabeling the wires maps every library gate to a library gate of
//! the same kind, and the banned sets and every cost model depend on
//! kind alone, so a relabeling conjugates each minimal circuit into a
//! minimal circuit of the same cost. Every level `B[k]` is therefore a
//! union of whole orbits under the n! relabelings. This suite pins that
//! closure and the per-level orbit counts on the full engine, so a
//! future engine that searches orbit representatives only has exact
//! numbers to reproduce.
//!
//! `universal::wire_permutation_actions` acts on the 2ⁿ binary patterns
//! only; the search domain also holds the mixed patterns, so the action
//! here permutes each pattern's positions and re-indexes it through
//! `PatternDomain::index`.

use std::collections::HashSet;

use mvq_core::{CostModel, SearchEngine, SearchWidth, WideSynthesisEngine, WordRepr};
use mvq_logic::{GateLibrary, Pattern, PatternDomain};

/// Every ordering of `0..n`.
fn orderings(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in orderings(n - 1) {
        for at in 0..n {
            let mut order = shorter.clone();
            order.insert(at, n - 1);
            out.push(order);
        }
    }
    out
}

/// The n! wire relabelings as 0-based permutations of the domain's
/// indices: relabeling `order` sends the pattern `p` to the pattern
/// whose wire `w` carries `p`'s value on wire `order[w]`.
fn relabelings(domain: &PatternDomain) -> Vec<Vec<u8>> {
    let n = domain.wires();
    orderings(n)
        .into_iter()
        .map(|order| {
            (1..=domain.len())
                .map(|index| {
                    let pattern = domain.pattern(index);
                    let moved = Pattern::new(order.iter().map(|&w| pattern.value(w)).collect());
                    let image = domain
                        .index(&moved)
                        .expect("the permutable domain is closed under relabeling");
                    (image - 1) as u8
                })
                .collect()
        })
        .collect()
}

/// The conjugate `π⁻¹ · word · π` of a word (the product applies its
/// left factor first): the same circuit with its wires relabeled.
fn conjugate(word: &[u8], pi: &[u8], pi_inverse: &[u8]) -> Vec<u8> {
    (0..word.len())
        .map(|x| pi[word[pi_inverse[x] as usize] as usize])
        .collect()
}

fn inverse(pi: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; pi.len()];
    for (i, &image) in pi.iter().enumerate() {
        out[image as usize] = i as u8;
    }
    out
}

/// Checks every level of `engine` up to `cb` for closure under the
/// relabelings and returns the per-level orbit counts.
fn orbit_counts<W: SearchWidth>(engine: &mut SearchEngine<W>, cb: u32) -> Vec<usize> {
    engine.expand_to_cost(cb);
    let actions: Vec<(Vec<u8>, Vec<u8>)> = relabelings(engine.library().domain())
        .into_iter()
        .map(|pi| {
            let pi_inverse = inverse(&pi);
            (pi, pi_inverse)
        })
        .collect();
    (0..=cb)
        .map(|k| {
            let words = engine.level_words(k).expect("level settled");
            let level: HashSet<Vec<u8>> = words.iter().map(|w| w.as_slice().to_vec()).collect();
            let mut orbits = 0;
            for word in &level {
                let mut representative = true;
                for (pi, pi_inverse) in &actions {
                    let image = conjugate(word, pi, pi_inverse);
                    assert!(
                        level.contains(&image),
                        "B[{k}] is not closed under a wire relabeling"
                    );
                    representative &= *word <= image;
                }
                orbits += usize::from(representative);
            }
            orbits
        })
        .collect()
}

fn narrow(n: usize) -> SearchEngine<mvq_core::Narrow> {
    SearchEngine::new(GateLibrary::standard(n), CostModel::unit())
}

fn wide() -> WideSynthesisEngine {
    WideSynthesisEngine::new(GateLibrary::standard(4), CostModel::unit())
}

#[test]
fn relabelings_form_the_symmetric_group_on_the_domain() {
    for n in [2, 3, 4] {
        let domain = PatternDomain::permutable(n);
        let actions = relabelings(&domain);
        let distinct: HashSet<&Vec<u8>> = actions.iter().collect();
        assert_eq!(distinct.len(), (1..=n).product::<usize>(), "{n} wires");
        for pi in &actions {
            // Binary patterns stay binary: the first 2ⁿ indices.
            assert!(pi[..1 << n].iter().all(|&i| (i as usize) < 1 << n));
        }
    }
}

#[test]
fn three_wire_levels_are_unions_of_relabeling_orbits() {
    assert_eq!(orbit_counts(&mut narrow(3), 5), [1, 3, 30, 170, 900, 4_299]);
}

#[test]
fn four_wire_levels_are_unions_of_relabeling_orbits() {
    assert_eq!(orbit_counts(&mut wide(), 3), [1, 3, 36, 418]);
}

#[test]
fn weighted_levels_are_unions_of_relabeling_orbits() {
    // The closure holds for any cost model that prices gates by kind.
    let mut engine = SearchEngine::<mvq_core::Narrow>::new(
        GateLibrary::standard(3),
        CostModel::weighted(1, 1, 3),
    );
    assert_eq!(orbit_counts(&mut engine, 6), [1, 2, 11, 21, 67, 189, 516]);
}

#[test]
#[ignore = "expands 3 wires to cost 6; run in the CI oracles job"]
fn three_wire_cost_6_orbits() {
    assert_eq!(
        orbit_counts(&mut narrow(3), 6),
        [1, 3, 30, 170, 900, 4_299, 19_830]
    );
}

#[test]
#[ignore = "expands 4 wires to cost 4; run in the CI oracles job"]
fn four_wire_cost_4_orbits() {
    assert_eq!(orbit_counts(&mut wide(), 4), [1, 3, 36, 418, 4_455]);
}
