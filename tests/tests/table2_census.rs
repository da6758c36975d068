//! E3: the Table 2 census. The fast test covers k ≤ 5; the full paper
//! bound (cb = 7, ~15 s in release, minutes in debug) is `#[ignore]`d and
//! run by the CI `oracles` job / `cargo test --release -- --ignored`.

use mvq_core::{Census, EXPECTED_TABLE_2};

#[test]
fn census_to_cost_5_matches_expected() {
    let census = Census::compute(5);
    let g: Vec<usize> = census.rows().iter().map(|r| r.g_count).collect();
    assert_eq!(g, &EXPECTED_TABLE_2[..6]);
    assert!(census.matches_expected());
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
#[ignore = "full paper bound: ~15 s in release, minutes in debug"]
fn full_census_to_cost_7_matches_expected() {
    let census = Census::compute(7);
    let g: Vec<usize> = census.rows().iter().map(|r| r.g_count).collect();
    assert_eq!(g, &EXPECTED_TABLE_2);
    // The paper's printed row agrees everywhere except k = 2, 3.
    assert_eq!(census.diff_vs_paper(), vec![(2, 24, 30), (3, 51, 52)]);
}
