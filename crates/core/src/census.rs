use std::fmt;

use crate::{SearchEngine, SearchWidth, SynthesisEngine};

/// The paper's **Table 2** as printed: `|G[k]|` for `k = 0..=7` (and
/// `|S8[k]| = 8·|G[k]|` by Theorem 2).
///
/// Note: the entries for `k = 2` and `k = 3` are inconsistent with the
/// paper's own description of those sets — see [`EXPECTED_TABLE_2`].
pub const PAPER_TABLE_2: [usize; 8] = [1, 6, 30, 52, 84, 156, 398, 540];

/// The verified Table 2 row: what FMCF actually produces, confirmed by an
/// independent group-theoretic computation.
///
/// The paper states that `G[2]` and `G[3]` consist of the circuits
/// realizable by exactly 2 and 3 Feynman gates. The 36 ordered pairs of
/// Feynman gates yield only **24** distinct reversible functions (six
/// unordered pairs commute: two CNOTs sharing a target, or sharing a
/// control), and length-3 words yield **51** — the ball sizes of the
/// Cayley graph of GL(3,2) ≅ the group generated by the six CNOTs, whose
/// distance profile `1 + 6 + 24 + 51 + 60 + 24 + 2 = 168 = |GL(3,2)|`
/// checks out exactly. The paper's `30` and `52` appear to count gate
/// *sequences* rather than distinct circuits. All other entries
/// (`k = 0, 1, 4, 5, 6, 7` — including the hard values 84, 156, 398, 540)
/// agree with the paper.
pub const EXPECTED_TABLE_2: [usize; 8] = [1, 6, 24, 51, 84, 156, 398, 540];

/// One row of the census: a cost level and its circuit counts.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CensusRow {
    /// The quantum cost `k`.
    pub cost: u32,
    /// `|G[k]|` — reversible circuits of minimal cost `k`, no NOT gates.
    pub g_count: usize,
    /// `|S8[k]| = 2³·|G[k]|` — with NOT gates (Theorem 2 cosets).
    pub s8_count: usize,
    /// `|B[k]|` — all quantum circuits (reversible or not) first reached
    /// at cost `k`; the search frontier size.
    pub b_count: usize,
}

/// The result of running FMCF up to a cost bound: the reproduction of
/// Table 2 plus search-effort statistics.
///
/// # Examples
///
/// ```
/// use mvq_core::{Census, EXPECTED_TABLE_2};
///
/// let census = Census::compute(4);
/// for row in census.rows() {
///     assert_eq!(row.g_count, EXPECTED_TABLE_2[row.cost as usize]);
///     assert_eq!(row.s8_count, 8 * row.g_count);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Census {
    rows: Vec<CensusRow>,
    a_size: usize,
}

impl Census {
    /// Runs FMCF with the paper's library and unit costs up to cost `cb`
    /// (the paper's bound is 7).
    pub fn compute(cb: u32) -> Self {
        let mut engine = SynthesisEngine::unit_cost();
        Self::compute_with(&mut engine, cb)
    }

    /// Runs the census on an existing engine (reusing its cached levels).
    ///
    /// Works at any [`SearchWidth`]: the coset count (`s8_count`) scales
    /// as `2^n` with the library's wire count (8 for the paper's 3-wire
    /// setting, 16 for 4 wires).
    ///
    /// This module is part of the reproducible search state, so it never
    /// reads the clock (`mvq_lint`'s determinism rule); wall-clock
    /// measurement belongs to the callers (the CLI, `perfbench`).
    ///
    /// The census settles levels `0..=cb` and leaves the top level
    /// unexpanded: no row reads the successors of cost `cb + 1`.
    pub fn compute_with<W: SearchWidth>(engine: &mut SearchEngine<W>, cb: u32) -> Self {
        let coset = 1usize << engine.library().domain().wires();
        engine.climb_to(cb, false);
        let rows: Vec<CensusRow> = engine
            .g_counts()
            .iter()
            .zip(engine.b_counts())
            .enumerate()
            .take(cb as usize + 1)
            .map(|(cost, (&g, &b))| CensusRow {
                cost: cost as u32,
                g_count: g,
                s8_count: coset * g,
                b_count: b,
            })
            .collect();
        let a_size = rows.iter().map(|row| row.b_count).sum();
        Self { rows, a_size }
    }

    /// The census rows, cost ascending.
    pub fn rows(&self) -> &[CensusRow] {
        &self.rows
    }

    /// `|A|` up to the bound: `Σ |B[k]|` over `k ≤ cb`, the distinct
    /// quantum circuits of cost at most `cb` (not the engine's
    /// [`SearchEngine::a_size`], which also counts queued successors).
    pub fn a_size(&self) -> usize {
        self.a_size
    }

    /// `true` iff every computed row matches the verified
    /// [`EXPECTED_TABLE_2`] (the paper's row with the two corrected
    /// low-cost entries).
    pub fn matches_expected(&self) -> bool {
        self.rows.iter().all(|row| {
            EXPECTED_TABLE_2
                .get(row.cost as usize)
                .is_some_and(|&want| row.g_count == want)
        })
    }

    /// The rows that differ from the paper's printed Table 2, as
    /// `(cost, measured, paper)` triples. For a full cb = 7 run this is
    /// exactly `[(2, 24, 30), (3, 51, 52)]`.
    pub fn diff_vs_paper(&self) -> Vec<(u32, usize, usize)> {
        self.rows
            .iter()
            .filter_map(|row| {
                let paper = *PAPER_TABLE_2.get(row.cost as usize)?;
                (row.g_count != paper).then_some((row.cost, row.g_count, paper))
            })
            .collect()
    }
}

impl fmt::Display for Census {
    /// Renders in the layout of the paper's Table 2.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<10}", "Cost k")?;
        for row in &self.rows {
            write!(f, "{:>8}", row.cost)?;
        }
        writeln!(f)?;
        write!(f, "{:<10}", "|G[k]|")?;
        for row in &self.rows {
            write!(f, "{:>8}", row.g_count)?;
        }
        writeln!(f)?;
        write!(f, "{:<10}", "|S8[k]|")?;
        for row in &self.rows {
            write!(f, "{:>8}", row.s8_count)?;
        }
        writeln!(f)?;
        write!(
            f,
            "(|A| = {} circuits of cost ≤ {})",
            self.a_size,
            self.rows.len().saturating_sub(1)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_matches_expected_to_cost_4() {
        let census = Census::compute(4);
        assert!(census.matches_expected());
        let g: Vec<usize> = census.rows().iter().map(|r| r.g_count).collect();
        assert_eq!(g, &EXPECTED_TABLE_2[..5]);
    }

    #[test]
    fn diff_vs_paper_is_exactly_the_two_low_cost_rows() {
        let census = Census::compute(4);
        assert_eq!(census.diff_vs_paper(), vec![(2, 24, 30), (3, 51, 52)]);
    }

    #[test]
    fn s8_counts_are_eight_times_g() {
        let census = Census::compute(3);
        for row in census.rows() {
            assert_eq!(row.s8_count, 8 * row.g_count);
        }
    }

    #[test]
    fn display_contains_table_layout() {
        let census = Census::compute(2);
        let s = census.to_string();
        assert!(s.contains("Cost k"));
        assert!(s.contains("|G[k]|"));
        assert!(s.contains("|S8[k]|"));
        assert!(s.contains("24"));
    }

    #[test]
    fn rows_are_cost_ascending() {
        let census = Census::compute(3);
        let costs: Vec<u32> = census.rows().iter().map(|r| r.cost).collect();
        assert_eq!(costs, vec![0, 1, 2, 3]);
    }
}
