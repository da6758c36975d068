//! Order statistics over timing samples.
//!
//! Percentiles interpolate linearly between the two closest ranks of the
//! sorted sample (`q · (n − 1)`), so the median of an even-sized sample
//! is the mean of its middle pair.

/// A growable sample of measurements.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty sample with room for `n` values, so it grows without
    /// reallocating (untouched capacity is not resident memory).
    pub fn with_capacity(n: usize) -> Self {
        Self {
            values: Vec::with_capacity(n),
            sorted: false,
        }
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`); `NaN` for an empty sample.
    pub fn percentile(&mut self, q: f64) -> f64 {
        self.sort();
        percentile_sorted(&self.values, q)
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(0.5)
    }

    pub fn max(&mut self) -> f64 {
        self.percentile(1.0)
    }
}

/// Linear-interpolation quantile of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Brute-force reference: the value at fractional rank `q (n − 1)`
    /// of a freshly sorted copy, interpolated by hand.
    fn reference(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = q * (sorted.len() - 1) as f64;
        let below = sorted[rank.floor() as usize];
        let above = sorted[rank.ceil() as usize];
        below + (above - below) * (rank - rank.floor())
    }

    #[test]
    fn percentiles_match_the_sorted_vector_reference() {
        let mut rng = Rng::new(11);
        for len in 1..40 {
            let values: Vec<f64> = (0..len).map(|_| rng.below(1000) as f64 / 7.0).collect();
            let mut samples = Samples::new();
            for &v in &values {
                samples.push(v);
            }
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let got = samples.percentile(q);
                let want = reference(&values, q);
                assert!(
                    (got - want).abs() < 1e-9,
                    "len {len} q {q}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn median_of_even_sample_is_mean_of_middle_pair() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.max(), 4.0);
        assert!(Samples::new().median().is_nan());
    }
}
