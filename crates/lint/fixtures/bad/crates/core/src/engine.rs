//! Fixture: a search-state module hashing with the std default.
//! Seeded violations: `HashMap` without a deterministic hasher (field
//! type) and `HashMap::new()` (RandomState constructor). The field sits
//! after a test-only sibling, whose span must end at its own comma.

use std::collections::HashMap;

pub struct LevelTable {
    #[cfg(test)]
    probes: Vec<(u64, u32)>,
    seen: HashMap<u64, u32>,
}

impl LevelTable {
    pub fn new() -> Self {
        Self {
            seen: HashMap::new(),
        }
    }

    pub fn insert(&mut self, key: u64, cost: u32) {
        self.seen.insert(key, cost);
    }
}
