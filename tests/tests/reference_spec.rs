//! An executable reference spec for FMCF, diffed against the engine
//! level by level.
//!
//! The reference is the paper's Finding_Minimum_Cost_Circuits in its
//! plainest form: a Dijkstra over `mvq_perm::Perm` products of the
//! `GateLibrary` gates, with a `HashMap` for the discovered set and one
//! `Vec` per pending cost bucket. It has no packing, sharding, handles,
//! prefetch, back-edge skip or fused successor kernel; only the
//! settle/expand order mirrors the engine's, so both can be compared
//! after every level step:
//!
//! - the words of each `B[k]`, in discovery order, and `|A|`;
//! - `b_counts`, `g_counts` and the classes of each `G[k]`;
//! - every class's witnesses, as the circuits read back through the
//!   recorded path gates;
//! - the stale decrease-key copies dropped when settling each level
//!   (non-zero under `weighted(1,1,3)`).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use mvq_core::{
    Circuit, CostModel, Narrow, Probe, ProbeHandle, SearchEngine, SearchWidth, Wide, WordRepr,
};
use mvq_logic::GateLibrary;
use mvq_perm::Perm;

/// One settled level of the reference search.
#[derive(Default)]
struct Level {
    /// `B[k]`: the words first reached at exact cost `k`, in order.
    words: Vec<Perm>,
    /// Bucket entries dropped as superseded decrease-key copies.
    stale: u64,
    /// `G[k]`: the binary permutations first realized at cost `k`.
    classes: Vec<Perm>,
}

/// The reference FMCF.
struct Reference {
    library: GateLibrary,
    costs: Vec<u32>,
    /// The binary set `S`, as 1-based domain indices.
    binary: Vec<usize>,
    /// `A`: every discovered word, with its cost and producing gate
    /// (`None` for the identity).
    seen: HashMap<Perm, (u32, Option<usize>)>,
    pending: BTreeMap<u32, Vec<Perm>>,
    /// Settled levels, indexed by cost (gaps hold empty levels).
    levels: Vec<Level>,
    /// Class → minimal cost and its witnesses at that cost.
    classes: HashMap<Perm, (u32, Vec<Perm>)>,
    /// The settled level whose successors are not generated yet.
    unexpanded: Option<u32>,
}

impl Reference {
    fn new(wires: usize, model: CostModel) -> Self {
        let library = GateLibrary::standard(wires);
        let costs = library
            .gates()
            .iter()
            .map(|g| model.cost(g.gate()))
            .collect();
        let binary = library.binary_set().to_vec();
        let identity = Perm::identity(library.domain().len());
        Self {
            costs,
            binary,
            seen: HashMap::from([(identity.clone(), (0, None))]),
            pending: BTreeMap::from([(0, vec![identity])]),
            levels: Vec::new(),
            classes: HashMap::new(),
            unexpanded: None,
            library,
        }
    }

    /// One level step: expands the level settled last, then settles
    /// the cheapest pending bucket. `false` once nothing is pending.
    fn step(&mut self) -> bool {
        self.expand_settled();
        let Some((cost, bucket)) = self.pending.pop_first() else {
            return false;
        };
        let entries = bucket.len() as u64;
        let words: Vec<Perm> = bucket
            .into_iter()
            .filter(|word| self.seen[word].0 == cost)
            .collect();
        let mut level = Level {
            stale: entries - words.len() as u64,
            ..Level::default()
        };
        for word in &words {
            let Some(class) = self.restriction(word) else {
                continue;
            };
            match self.classes.entry(class.clone()) {
                Entry::Vacant(entry) => {
                    entry.insert((cost, vec![word.clone()]));
                    level.classes.push(class);
                }
                Entry::Occupied(mut entry) if entry.get().0 == cost => {
                    entry.get_mut().1.push(word.clone());
                }
                Entry::Occupied(_) => {}
            }
        }
        level.words = words;
        self.levels.resize_with(cost as usize, Level::default);
        self.levels.push(level);
        self.unexpanded = Some(cost);
        true
    }

    /// Generates the successors of the level settled last: every
    /// reasonable product `w · g` (no banned index of `g` in `w(S)`),
    /// admitted when it is new or strictly cheaper than before. The
    /// cheaper copy joins its own bucket; the old copy stays behind.
    fn expand_settled(&mut self) {
        let Some(cost) = self.unexpanded.take() else {
            return;
        };
        for word in &self.levels[cost as usize].words {
            for (g, gate) in self.library.gates().iter().enumerate() {
                let banned = gate.banned_indices();
                if self.binary.iter().any(|&s| banned.contains(&word.image(s))) {
                    continue;
                }
                let next = word * gate.perm();
                let next_cost = cost + self.costs[g];
                if self.seen.get(&next).is_none_or(|&(c, _)| next_cost < c) {
                    self.seen.insert(next.clone(), (next_cost, Some(g)));
                    self.pending.entry(next_cost).or_default().push(next);
                }
            }
        }
    }

    /// The word's restriction to `S`, if it maps `S` onto itself.
    fn restriction(&self, word: &Perm) -> Option<Perm> {
        let rank = |index: usize| self.binary.iter().position(|&s| s == index);
        let images: Option<Vec<usize>> = self
            .binary
            .iter()
            .map(|&s| rank(word.image(s)).map(|r| r + 1))
            .collect();
        Perm::from_images(&images?)
    }

    /// The cascade that produced `word`, read back through the gates
    /// recorded in `A`.
    fn circuit(&self, word: &Perm) -> String {
        let mut gates = Vec::new();
        let mut current = word.clone();
        while let Some(g) = self.seen[&current].1 {
            let gate = &self.library.gates()[g];
            gates.push(gate.gate());
            current = current.right_div(gate.perm());
        }
        gates.reverse();
        Circuit::new(self.library.domain().wires(), gates).to_string()
    }
}

/// The stale counts the engine reports per expanded level.
#[derive(Default)]
struct StaleLog(Mutex<BTreeMap<u32, u64>>);

impl Probe for StaleLog {
    fn level_work(&self, cost: u32, _generated: u64, stale_dropped: u64) {
        self.0.lock().unwrap().insert(cost, stale_dropped);
    }
}

/// Diffs settled level `k` and `|A|` against the reference.
fn assert_level<W: SearchWidth>(
    engine: &mut SearchEngine<W>,
    reference: &Reference,
    k: u32,
    label: &str,
) {
    let level = &reference.levels[k as usize];
    let words: Vec<Vec<u8>> = engine
        .level_words(k)
        .expect("level settled")
        .iter()
        .map(|w| w.as_slice().to_vec())
        .collect();
    let want: Vec<&[u8]> = level.words.iter().map(Perm::as_images).collect();
    assert_eq!(words, want, "{label}: B[{k}] words in discovery order");
    assert_eq!(engine.b_counts()[k as usize], level.words.len(), "{label}");
    assert_eq!(
        engine.g_counts()[k as usize],
        level.classes.len(),
        "{label}"
    );
    assert_eq!(engine.a_size(), reference.seen.len(), "{label}: |A| at {k}");
    assert_eq!(engine.classes_found(), reference.classes.len(), "{label}");
    // Equal counts, and every reference class found by the engine at
    // cost k with the same witnesses: the class sets are equal.
    for class in &level.classes {
        let witnesses: Vec<String> = reference.classes[class]
            .1
            .iter()
            .map(|w| reference.circuit(w))
            .collect();
        let got: Vec<String> = engine
            .synthesize_all(class, k)
            .iter()
            .inspect(|s| assert_eq!(s.cost, k, "{label}: class {class}"))
            .map(|s| s.circuit.to_string())
            .collect();
        assert_eq!(got, witnesses, "{label}: witnesses of {class} in G[{k}]");
    }
}

/// Climbs `engine` by settling, one level per reference step, to `cb`
/// (or to exhaustion), diffing every new level; then expands the top
/// level so every settled level's stale count has been reported.
fn diff_climb<W: SearchWidth>(
    engine: &mut SearchEngine<W>,
    reference: &mut Reference,
    stale: &StaleLog,
    cb: Option<u32>,
    label: &str,
) {
    let first = engine.completed_cost().map_or(0, |c| c + 1);
    let mut k = first;
    while cb.is_none_or(|cb| k <= cb) {
        let settled = engine.settle_one_level();
        assert_eq!(settled, reference.step(), "{label}: exhaustion at {k}");
        if !settled {
            break;
        }
        assert_eq!(engine.completed_cost(), Some(k), "{label}");
        assert_level(engine, reference, k, label);
        k += 1;
    }
    let top = k - 1;
    engine.expand_to_cost(top);
    let reported = stale.0.lock().unwrap();
    let want: BTreeMap<u32, u64> = (first..=top)
        .map(|c| (c, reference.levels[c as usize].stale))
        .collect();
    let got: BTreeMap<u32, u64> = reported.range(first..).map(|(&c, &s)| (c, s)).collect();
    assert_eq!(got, want, "{label}: stale copies dropped per level");
}

fn engine<W: SearchWidth>(
    wires: usize,
    model: CostModel,
    stale: &Arc<StaleLog>,
) -> SearchEngine<W> {
    let mut engine = SearchEngine::<W>::with_threads(GateLibrary::standard(wires), model, 1);
    engine.set_probe(ProbeHandle::new(stale.clone()));
    engine
}

fn weighted() -> CostModel {
    CostModel::weighted(1, 1, 3)
}

/// Diffs a natively built engine against the reference to `cb` (or to
/// exhaustion); returns the stale copies the reference dropped.
fn diff_native<W: SearchWidth>(wires: usize, model: CostModel, cb: Option<u32>) -> u64 {
    let stale = Arc::new(StaleLog::default());
    let mut reference = Reference::new(wires, model);
    let label = format!("{wires} wires, weights {:?}", model.weights());
    diff_climb(
        &mut engine::<W>(wires, model, &stale),
        &mut reference,
        &stale,
        cb,
        &label,
    );
    reference.levels.iter().map(|l| l.stale).sum()
}

#[test]
fn two_wire_search_matches_the_reference_to_exhaustion() {
    for model in [CostModel::unit(), weighted()] {
        diff_native::<Narrow>(2, model, None);
    }
}

#[test]
fn three_wire_levels_match_the_reference_to_cost_5() {
    assert_eq!(diff_native::<Narrow>(3, CostModel::unit(), Some(5)), 0);
    // Under weighted(1,1,3) the first stale copies are dropped at cost
    // 7, so the weighted diff climbs that far.
    assert_eq!(diff_native::<Narrow>(3, weighted(), Some(7)), 12);
}

#[test]
fn four_wire_levels_match_the_reference_to_cost_3() {
    for model in [CostModel::unit(), weighted()] {
        diff_native::<Wide>(4, model, Some(3));
    }
}

#[test]
fn snapshot_loaded_climb_matches_the_reference() {
    // A loaded engine merges its deferred frontier on its first level
    // step; the levels it climbs to from there must be the reference's.
    for (model, cb) in [(CostModel::unit(), 5), (weighted(), 7)] {
        let mut snapshotted =
            SearchEngine::<Narrow>::with_threads(GateLibrary::standard(3), model, 1);
        snapshotted.expand_to_cost(3);
        let bytes = snapshotted.snapshot_to_bytes().expect("standard library");
        let stale = Arc::new(StaleLog::default());
        let mut loaded = SearchEngine::<Narrow>::load_snapshot_from_bytes_with_probe(
            bytes,
            1,
            ProbeHandle::new(stale.clone()),
        )
        .expect("load");
        let mut reference = Reference::new(3, model);
        for _ in 0..=3 {
            assert!(reference.step());
        }
        reference.expand_settled();
        let label = format!("loaded at 3, weights {:?}", model.weights());
        assert_eq!(
            loaded.a_size(),
            reference.seen.len(),
            "{label}: |A| as loaded"
        );
        diff_climb(&mut loaded, &mut reference, &stale, Some(cb), &label);
    }
}

#[test]
#[ignore = "diffs 3 wires to cost 6; run in the CI oracles job"]
fn three_wire_levels_match_the_reference_to_cost_6() {
    assert_eq!(diff_native::<Narrow>(3, CostModel::unit(), Some(6)), 0);
}

#[test]
#[ignore = "diffs 4 wires to cost 4; run in the CI oracles job"]
fn four_wire_levels_match_the_reference_to_cost_4() {
    assert_eq!(diff_native::<Wide>(4, CostModel::unit(), Some(4)), 0);
}
