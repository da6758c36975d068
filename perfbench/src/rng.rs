//! A small seeded generator (SplitMix64): every input the benchmark
//! sends is derived from the `--seed` argument through it, so one seed
//! always yields the same targets and the same request order.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one consumer of the seed (a client, a
    /// cycle), so adding draws to one stream never shifts another.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut mixer = Self(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        Self(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// `count` distinct items, in draw order.
    pub fn sample<T: Clone>(&mut self, items: &[T], count: usize) -> Vec<T> {
        let mut order: Vec<usize> = (0..items.len()).collect();
        let count = count.min(items.len());
        for i in 0..count {
            let j = i + self.below(order.len() - i);
            order.swap(i, j);
        }
        order[..count].iter().map(|&i| items[i].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
    }

    #[test]
    fn sample_draws_distinct_items() {
        let items: Vec<u32> = (0..50).collect();
        let mut picked = Rng::new(3).sample(&items, 20);
        assert_eq!(picked.len(), 20);
        picked.sort_unstable();
        picked.dedup();
        assert_eq!(picked.len(), 20);
        assert_eq!(Rng::new(3).sample(&items, 80).len(), 50);
    }
}
