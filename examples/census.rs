//! Reproduces the paper's Table 2: the number of reversible circuits with
//! each quantum cost k, found by exhaustive FMCF search.
//!
//! Run with: `cargo run --release -p mvq-examples --example census [cb]`
//! (default bound 6; the paper's bound is 7, well under a second in release).

use mvq_core::{Census, EXPECTED_TABLE_2, PAPER_TABLE_2};

fn main() {
    let cb: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);

    println!("=== Table 2 reproduction: FMCF census up to cost {cb} ===\n");
    let census = Census::compute(cb);
    println!("{census}\n");

    println!("paper Table 2 (printed): {PAPER_TABLE_2:?}");
    println!("verified counts:         {EXPECTED_TABLE_2:?}");
    let diffs = census.diff_vs_paper();
    if diffs.is_empty() {
        println!("all computed rows match the paper's printed table");
    } else {
        for (k, mine, paper) in diffs {
            println!(
                "k = {k}: measured {mine} vs paper {paper} — the paper's value \
                 double-counts commuting Feynman cascades (see `EXPECTED_TABLE_2` and the \
                 README's \"Table 2: the k = 2 and k = 3 rows\")"
            );
        }
    }
    assert!(
        census.matches_expected(),
        "census must match verified counts"
    );
    println!("\ncensus matches the independently verified counts ✓");
}
