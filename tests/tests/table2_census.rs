//! E3: the Table 2 census. The fast test covers k ≤ 5; the full paper
//! bound (cb = 7, under a second in release, much longer in debug) is `#[ignore]`d and
//! run by the CI `oracles` job / `cargo test --release -- --ignored`.

use mvq_core::{Census, SynthesisEngine, EXPECTED_TABLE_2};

#[test]
fn census_to_cost_5_matches_expected() {
    let census = Census::compute(5);
    let g: Vec<usize> = census.rows().iter().map(|r| r.g_count).collect();
    assert_eq!(g, &EXPECTED_TABLE_2[..6]);
    assert!(census.matches_expected());
    // |A| = Σ |B[k]| for k ≤ 5: 1 + 18 + 162 + 1,017 + 5,364 + 25,761.
    assert_eq!(census.a_size(), 32_323);
}

#[test]
fn census_settled_engine_writes_the_expanded_engine_bytes() {
    // The census settles its top level without expanding it; a snapshot
    // expands that level first, so its bytes equal a builder's.
    let mut settled = SynthesisEngine::unit_cost();
    let census = Census::compute_with(&mut settled, 4);
    assert_eq!(census.a_size(), 6_562);
    assert_eq!(settled.completed_cost(), Some(4));
    let mut expanded = SynthesisEngine::unit_cost();
    expanded.expand_to_cost(4);
    assert!(settled.a_size() < expanded.a_size(), "top level unexpanded");
    assert_eq!(
        settled.snapshot_to_bytes().unwrap(),
        expanded.snapshot_to_bytes().unwrap()
    );
}

#[test]
fn s8_row_is_eight_times_g_row() {
    let census = Census::compute(4);
    for row in census.rows() {
        assert_eq!(row.s8_count, 8 * row.g_count);
    }
}

#[test]
fn frontier_sizes_are_monotonically_increasing() {
    let census = Census::compute(4);
    let b: Vec<usize> = census.rows().iter().map(|r| r.b_count).collect();
    assert!(b.windows(2).all(|w| w[0] < w[1]), "B[k] grows: {b:?}");
}

#[test]
fn diff_vs_paper_is_stable() {
    let census = Census::compute(3);
    assert_eq!(census.diff_vs_paper(), vec![(2, 24, 30), (3, 51, 52)]);
}

#[test]
#[ignore = "full paper bound: under a second in release, much longer in debug"]
fn full_census_to_cost_7_matches_expected() {
    let census = Census::compute(7);
    let g: Vec<usize> = census.rows().iter().map(|r| r.g_count).collect();
    assert_eq!(g, &EXPECTED_TABLE_2);
    // The paper's printed row agrees everywhere except k = 2, 3.
    assert_eq!(census.diff_vs_paper(), vec![(2, 24, 30), (3, 51, 52)]);
    // Σ |B[k]| for k ≤ 7.
    assert_eq!(census.a_size(), 689_402);
}

#[test]
#[ignore = "expands level 7: ~0.6 s and ~270 MB in release"]
fn expanded_engine_a_size_at_cost_7_is_pinned() {
    // The engine's |A| after expanding level 7 also counts the queued
    // successors of cost 8; the benchmark checks this value.
    let mut engine = SynthesisEngine::unit_cost();
    engine.expand_to_cost(7);
    assert_eq!(engine.a_size(), 3_075_695);
}
