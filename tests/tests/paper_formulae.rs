//! E2: every permutation formula and banned set printed in Section 3 of
//! the paper, recomputed from first principles.

use mvq_core::{CostModel, SynthesisEngine, EXPECTED_TABLE_2};
use mvq_logic::{Gate, GateLibrary, PatternDomain, TruthTable};

#[test]
fn table_1_truth_table_and_permutation() {
    let table = TruthTable::new(Gate::v(1, 0), PatternDomain::table_ordered(2));
    assert_eq!(table.rows().len(), 16);
    assert_eq!(table.perm().to_string(), "(3,7,4,8)");
    // Labels of the paper's Table 1 output column, rows 1–16.
    let outputs: Vec<usize> = table.rows().iter().map(|r| r.output_label).collect();
    assert_eq!(
        outputs,
        vec![1, 2, 7, 8, 5, 6, 4, 3, 9, 10, 11, 12, 13, 14, 15, 16]
    );
}

#[test]
fn domain_size_is_38() {
    // 64 − 27 + 1 = 38 permutable patterns.
    assert_eq!(PatternDomain::permutable(3).len(), 38);
}

/// §2's domain reduction loses nothing: the search over the 38
/// permutable patterns builds the same levels as the search over all 64
/// base-4 patterns — same `|G[k]|`, same `|B[k]|`, same `|A|` — to
/// cost 3.
#[test]
fn reduced_domain_search_matches_full_domain() {
    let mut reduced = SynthesisEngine::unit_cost_with_threads(1);
    reduced.expand_to_cost(3);
    let mut full = SynthesisEngine::with_threads(
        GateLibrary::with_domain(PatternDomain::full(3)),
        CostModel::unit(),
        1,
    );
    full.expand_to_cost(3);
    assert_eq!(reduced.library().domain().len(), 38);
    assert_eq!(full.library().domain().len(), 64);
    assert_eq!(reduced.g_counts(), &EXPECTED_TABLE_2[..=3]);
    assert_eq!(full.g_counts(), reduced.g_counts());
    assert_eq!(full.b_counts(), reduced.b_counts());
    assert_eq!(full.a_size(), reduced.a_size());
}

#[test]
fn vba_formula() {
    let d = PatternDomain::permutable(3);
    assert_eq!(
        Gate::v(1, 0).perm(&d).to_string(),
        "(5,17,7,21)(6,18,8,22)(13,19,15,23)(14,20,16,24)"
    );
}

#[test]
fn v_dagger_ab_formula() {
    let d = PatternDomain::permutable(3);
    assert_eq!(
        Gate::v_dagger(0, 1).perm(&d).to_string(),
        "(3,33,7,26)(4,34,8,27)(9,35,15,28)(10,36,16,29)"
    );
}

#[test]
fn feca_formula() {
    let d = PatternDomain::permutable(3);
    assert_eq!(
        Gate::feynman(2, 0).perm(&d).to_string(),
        "(5,6)(7,8)(17,18)(21,22)"
    );
}

#[test]
fn banned_sets_match_section_3() {
    let banned = GateLibrary::standard(3).banned_sets();
    assert_eq!(banned.n_a, (25..=38).collect::<Vec<usize>>());
    assert_eq!(
        banned.n_b,
        vec![11, 12, 17, 18, 19, 20, 21, 22, 23, 24, 30, 31, 37, 38]
    );
    assert_eq!(
        banned.n_c,
        vec![9, 10, 13, 14, 15, 16, 19, 20, 23, 24, 28, 29, 35, 36]
    );
    assert_eq!(
        banned.n_ab,
        (11..=38)
            .filter(|i| ![13, 14, 15, 16].contains(i))
            .collect::<Vec<usize>>()
    );
    assert_eq!(
        banned.n_bc,
        vec![
            9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 28, 29, 30, 31, 35, 36,
            37, 38
        ]
    );
}

#[test]
fn all_18_gates_are_permutations_of_the_domain() {
    let d = PatternDomain::permutable(3);
    let lib = GateLibrary::standard(3);
    assert_eq!(lib.gates().len(), 18);
    for lg in lib.gates() {
        let p = lg.gate().perm(&d);
        assert_eq!(p.degree(), 38);
        // V/V⁺ gates have order 4 on the domain; Feynman gates order 2.
        match lg.gate() {
            Gate::Feynman { .. } => assert_eq!(p.order(), 2),
            _ => assert_eq!(p.order(), 4),
        }
    }
}

#[test]
fn gate_perms_fix_every_no_one_pattern() {
    // "Every pattern must contain a 1; otherwise this pattern will not
    // change after any quantum gate" — on the full 64-pattern domain.
    let d = PatternDomain::full(3);
    let lib = GateLibrary::with_domain(PatternDomain::full(3));
    for lg in lib.gates() {
        for (idx, pattern) in d.iter() {
            if !pattern.contains_one() {
                assert_eq!(
                    lg.gate().perm(&d).image(idx),
                    idx,
                    "{} moved fixed pattern {pattern}",
                    lg.gate()
                );
            }
        }
    }
}

#[test]
fn six_output_values_collapse_to_four() {
    // V0 = V⁺1 and V1 = V⁺0 (Section 2) at the amplitude level.
    use mvq_logic::Value;
    assert_eq!(
        Value::Zero.apply_v().amplitudes(),
        Value::One.apply_v_dagger().amplitudes()
    );
    assert_eq!(
        Value::One.apply_v().amplitudes(),
        Value::Zero.apply_v_dagger().amplitudes()
    );
}
