//! Fixture counterpart: the deterministic-hashing idiom the rule
//! demands — an explicit `FnvBuildHasher` in the type, constructed via
//! `default()` (never `new()`, which pins `RandomState`).

use std::collections::HashMap;

type Seen = HashMap<u64, u32, FnvBuildHasher>;

pub struct LevelTable {
    // Test-only fields may hash with the std default; their spans hold
    // the whole nested type, so nothing here is reported.
    #[cfg(test)]
    audit: BTreeMap<u32, HashMap<u64, u32>>,
    #[cfg(test)]
    pairs: (u32, HashMap<u64, u32>),
    seen: Seen,
}

impl LevelTable {
    pub fn fresh() -> Self {
        Self {
            seen: HashMap::default(),
        }
    }

    pub fn with_capacity(n: usize) -> Self {
        Self {
            seen: HashMap::with_capacity_and_hasher(n, FnvBuildHasher::default()),
        }
    }

    pub fn insert(&mut self, key: u64, cost: u32) {
        self.seen.insert(key, cost);
    }

    pub fn shallower_than(&self, bound: u32) -> usize {
        // `<` here is a comparison, not a generic-argument list.
        self.seen.values().filter(|&&c| c < bound).count()
    }
}
