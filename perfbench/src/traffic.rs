//! Seeded traffic for the serving workloads.
//!
//! Every request the server sees is rendered here from the oracle's
//! classes and the `--seed`: which classes become targets, which NOT
//! layer each target carries, its strategy and bound, and the order in
//! which each client sends the shapes.

use mvq_perm::Perm;

use crate::client::render;
use crate::oracle::{with_not_layer, Model, Oracle, WARM_COST, WEIGHTED, WEIGHTED_CB};
use crate::rng::Rng;

/// What a request exercises; latencies are also reported per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// A target the warm levels already hold (cost ≤ 5 on `serve_warm`).
    Hit,
    /// A target past the warm frontier (cost 6–7), served bidirectionally.
    Deep,
    /// A unit-cost target one level above the last, on a cold host.
    Climb,
    /// A target under the weighted model (a second, cold host).
    Weighted,
    Census,
    Health,
    Scrape,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Deep => "deep",
            Kind::Climb => "climb",
            Kind::Weighted => "weighted",
            Kind::Census => "census",
            Kind::Health => "healthz",
            Kind::Scrape => "metrics",
        }
    }
}

/// A served target: a class with a seeded NOT layer in front.
#[derive(Debug, Clone)]
pub struct Target {
    pub model: Model,
    pub perm: Perm,
    pub cost: u32,
    pub implementations: usize,
}

/// What a correct reply holds.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// `/synthesize` for `targets[i]`.
    Synth(usize),
    /// `/census` with this bound (unit model).
    Census(u32),
    Health,
    Metrics,
}

/// One request shape: its pre-rendered bytes and the reply it expects.
#[derive(Debug, Clone)]
pub struct Shape {
    pub kind: Kind,
    pub label: String,
    pub request: Vec<u8>,
    pub expect: Expect,
    /// The request's cost bound and strategy (`/synthesize` only), for
    /// calling the host layer directly.
    pub cb: u32,
    pub strategy: &'static str,
}

#[derive(Debug, Default)]
pub struct Catalogue {
    pub targets: Vec<Target>,
    pub shapes: Vec<Shape>,
}

impl Catalogue {
    fn add_target(&mut self, oracle: &Oracle, model: Model, class: &Perm, rng: &mut Rng) -> usize {
        let entry = oracle
            .lookup(model, class)
            .expect("targets come from the oracle");
        let perm = with_not_layer(class, rng.below(8));
        self.targets.push(Target {
            model,
            perm,
            cost: entry.cost,
            implementations: entry.implementations,
        });
        self.targets.len() - 1
    }

    fn add_synth(&mut self, kind: Kind, target: usize, cb: u32, strategy: &'static str) -> usize {
        let t = &self.targets[target];
        let model = match t.model {
            Model::Unit => String::new(),
            Model::Weighted => format!(
                r#","model":{{"v":{},"v_dagger":{},"feynman":{}}}"#,
                WEIGHTED.0, WEIGHTED.1, WEIGHTED.2
            ),
        };
        let body = format!(
            r#"{{"target":"{}","cb":{cb},"strategy":"{strategy}"{model}}}"#,
            t.perm
        );
        self.push(Shape {
            kind,
            label: format!(
                "{} {} cost={} cb={cb} {strategy}",
                kind.name(),
                t.perm,
                t.cost
            ),
            request: render("POST", "/synthesize", &body),
            expect: Expect::Synth(target),
            cb,
            strategy,
        })
    }

    fn add_census(&mut self, cb: u32) -> usize {
        self.push(Shape {
            kind: Kind::Census,
            label: format!("census cb={cb}"),
            request: render("POST", "/census", &format!(r#"{{"cb":{cb}}}"#)),
            expect: Expect::Census(cb),
            cb,
            strategy: "",
        })
    }

    fn add_get(&mut self, kind: Kind, path: &str, expect: Expect) -> usize {
        self.push(Shape {
            kind,
            label: format!("GET {path}"),
            request: render("GET", path, ""),
            expect,
            cb: 0,
            strategy: "",
        })
    }

    fn push(&mut self, shape: Shape) -> usize {
        self.shapes.push(shape);
        self.shapes.len() - 1
    }
}

/// Relative weights of the `serve_warm` mix: the shares of the
/// repository's `serve_load` mix (`crates/bench/src/bin/serve_load.rs`),
/// whose eight shapes are four warm hits, two deep targets, one census
/// read and one health probe.
pub const WARM_MIX: [(Kind, u32); 4] = [
    (Kind::Hit, 4),
    (Kind::Deep, 2),
    (Kind::Census, 1),
    (Kind::Health, 1),
];
const WARM_MIX_TOTAL: u32 = 8;
/// Warm-hit targets per cost `1..=WARM_COST`, and deep targets per cost
/// 6 and 7: equal strata, so every seed asks for the same mix of depths.
pub const HITS_PER_COST: usize = 12;
pub const DEEP_PER_COST: usize = 32;

/// `count` seeded targets of `model` at exactly `cost` (classes drawn
/// with replacement, each with its own NOT layer); none when the model
/// has no class of that cost.
fn stratum(
    catalogue: &mut Catalogue,
    oracle: &Oracle,
    model: Model,
    cost: u32,
    count: usize,
    rng: &mut Rng,
) -> Vec<usize> {
    let classes = oracle.at_cost(model, cost);
    if classes.is_empty() {
        return Vec::new();
    }
    (0..count)
        .map(|_| {
            let class = rng.pick(&classes).perm.clone();
            catalogue.add_target(oracle, model, &class, rng)
        })
        .collect()
}

/// The `serve_warm` shapes, grouped by kind for the mix.
pub struct WarmTraffic {
    pub catalogue: Catalogue,
    by_kind: Vec<(Kind, u32, Vec<usize>)>,
}

impl WarmTraffic {
    pub fn generate(oracle: &Oracle, seed: u64) -> Self {
        let mut rng = Rng::fork(seed, 1);
        let mut catalogue = Catalogue::default();
        let mut hits = Vec::new();
        for cost in 1..=WARM_COST {
            let targets = stratum(
                &mut catalogue,
                oracle,
                Model::Unit,
                cost,
                HITS_PER_COST,
                &mut rng,
            );
            for (i, t) in targets.into_iter().enumerate() {
                let cb = cost + rng.below((8 - cost) as usize) as u32;
                let strategy = ["uni", "auto"][i % 2];
                hits.push(catalogue.add_synth(Kind::Hit, t, cb, strategy));
            }
        }
        let mut deep = Vec::new();
        for cost in WARM_COST + 1..=7 {
            let targets = stratum(
                &mut catalogue,
                oracle,
                Model::Unit,
                cost,
                DEEP_PER_COST,
                &mut rng,
            );
            for (i, t) in targets.into_iter().enumerate() {
                deep.push(catalogue.add_synth(Kind::Deep, t, 7, ["bidi", "auto"][i % 2]));
            }
        }
        let census: Vec<usize> = (1..=WARM_COST).map(|cb| catalogue.add_census(cb)).collect();
        let health = vec![catalogue.add_get(Kind::Health, "/healthz", Expect::Health)];
        let groups = [hits, deep, census, health];
        let by_kind = WARM_MIX
            .iter()
            .zip(groups)
            .map(|(&(kind, weight), shapes)| (kind, weight, shapes))
            .collect();
        Self { catalogue, by_kind }
    }

    /// The next shape of one client's seeded order.
    pub fn next(&self, rng: &mut Rng) -> usize {
        let mut roll = rng.below(WARM_MIX_TOTAL as usize) as u32;
        for (_, weight, shapes) in &self.by_kind {
            if roll < *weight {
                return *rng.pick(shapes);
            }
            roll -= weight;
        }
        unreachable!("mix weights sum to WARM_MIX_TOTAL")
    }

    /// Shapes of one kind (for the traced pass's direct host calls).
    pub fn shapes_of(&self, kind: Kind) -> &[usize] {
        self.by_kind
            .iter()
            .find(|(k, _, _)| *k == kind)
            .map_or(&[], |(_, _, shapes)| shapes.as_slice())
    }
}

/// Highest unit cost a cold cycle climbs to.
pub const COLD_CB: u32 = 6;
/// Seeded targets per cost and kind in the cold catalogue.
const COLD_PER_COST: usize = 16;

/// The requests of one block of a cold script, after its climb: with
/// the climb, the eight shapes keep `serve_load`'s shares (see
/// [`WARM_MIX`]). Its two deep targets become the two requests past the
/// host's frontier, the unit-model climb and a weighted-model target;
/// its health probe becomes a `/metrics` scrape, the read this workload
/// watches stall behind the write lock. The seed shuffles the order.
const COLD_SIDES: [Kind; 7] = [
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Weighted,
    Kind::Census,
    Kind::Scrape,
];

/// The `serve_cold` shapes, by kind and cost.
pub struct ColdTraffic {
    pub catalogue: Catalogue,
    /// `climb[k]`: uni shapes of unit cost `k` (cb = [`COLD_CB`]).
    climb: Vec<Vec<usize>>,
    /// `hit[k]`: auto shapes of unit cost `k`.
    hit: Vec<Vec<usize>>,
    /// `weighted[k]`: uni shapes of weighted cost `k` (empty where the
    /// model has no class of that cost).
    weighted: Vec<Vec<usize>>,
    census: Vec<usize>,
    scrape: usize,
}

impl ColdTraffic {
    pub fn generate(oracle: &Oracle, seed: u64) -> Self {
        let mut rng = Rng::fork(seed, 2);
        let mut catalogue = Catalogue::default();
        let levels = COLD_CB as usize + 1;
        let (mut climb, mut hit) = (vec![Vec::new(); levels], vec![Vec::new(); levels]);
        let mut weighted = vec![Vec::new(); WEIGHTED_CB as usize + 1];
        for cost in 1..=COLD_CB {
            for t in stratum(
                &mut catalogue,
                oracle,
                Model::Unit,
                cost,
                COLD_PER_COST,
                &mut rng,
            ) {
                climb[cost as usize].push(catalogue.add_synth(Kind::Climb, t, COLD_CB, "uni"));
                hit[cost as usize].push(catalogue.add_synth(Kind::Hit, t, COLD_CB, "auto"));
            }
        }
        for cost in 1..=WEIGHTED_CB {
            for t in stratum(
                &mut catalogue,
                oracle,
                Model::Weighted,
                cost,
                COLD_PER_COST,
                &mut rng,
            ) {
                weighted[cost as usize].push(catalogue.add_synth(
                    Kind::Weighted,
                    t,
                    WEIGHTED_CB,
                    "uni",
                ));
            }
        }
        let census = (1..=COLD_CB).map(|cb| catalogue.add_census(cb)).collect();
        let scrape = catalogue.add_get(Kind::Scrape, "/metrics", Expect::Metrics);
        Self {
            catalogue,
            climb,
            hit,
            weighted,
            census,
            scrape,
        }
    }

    /// One client's requests for one cold cycle: a uni climb to each
    /// unit cost `k` in turn, each followed by [`COLD_SIDES`] in a seeded
    /// order — hits of cost ≤ `k`, a weighted-model target one cost above
    /// the climb (so the second host climbs to its cost 7), a census read
    /// to `k` and a `/metrics` scrape.
    pub fn script(&self, rng: &mut Rng) -> Vec<usize> {
        let mut out = Vec::new();
        for k in 1..=COLD_CB as usize {
            out.push(*rng.pick(&self.climb[k]));
            for kind in rng.sample(&COLD_SIDES, COLD_SIDES.len()) {
                let shape = match kind {
                    Kind::Hit => {
                        let cost = 1 + rng.below(k);
                        *rng.pick(&self.hit[cost])
                    }
                    Kind::Census => self.census[k - 1],
                    Kind::Weighted => {
                        let top = (k + 1).min(WEIGHTED_CB as usize);
                        let pool = self.weighted[..=top]
                            .iter()
                            .rev()
                            .find(|pool| !pool.is_empty())
                            .expect("the weighted model has classes of cost 2");
                        *rng.pick(pool)
                    }
                    _ => self.scrape,
                };
                out.push(shape);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{enumerate, Class};
    use mvq_core::{CostModel, SynthesisEngine};
    use mvq_logic::GateLibrary;

    /// The cost-≤ 4 classes, relabelled across costs 1–7 and filed under
    /// both models, so every pool is populated without a cost-7 search
    /// in a test.
    fn small_oracle() -> Oracle {
        let mut engine =
            SynthesisEngine::with_threads(GateLibrary::standard(3), CostModel::unit(), 1);
        let classes: Vec<Class> = enumerate(&mut engine, 4)
            .into_iter()
            .enumerate()
            .map(|(i, class)| Class {
                cost: 1 + (i % 7) as u32,
                ..class
            })
            .collect();
        Oracle::from_classes(Model::Unit, classes.clone()).with_classes(Model::Weighted, classes)
    }

    #[test]
    fn warm_mix_keeps_the_serve_load_shares() {
        let oracle = small_oracle();
        let traffic = WarmTraffic::generate(&oracle, 2);
        let mut rng = Rng::new(8);
        let draws = 80_000;
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..draws {
            let kind = traffic.catalogue.shapes[traffic.next(&mut rng)].kind;
            *counts.entry(kind).or_insert(0) += 1;
        }
        for (kind, weight) in WARM_MIX {
            let share = f64::from(counts[&kind]) / f64::from(draws);
            let want = f64::from(weight) / f64::from(WARM_MIX_TOTAL);
            assert!((share - want).abs() < 0.01, "{kind:?}: {share} vs {want}");
        }
    }

    #[test]
    fn cold_blocks_keep_the_serve_load_shares() {
        let oracle = small_oracle();
        let traffic = ColdTraffic::generate(&oracle, 3);
        let script = traffic.script(&mut Rng::new(4));
        let block = 1 + COLD_SIDES.len();
        assert_eq!(script.len(), COLD_CB as usize * block);
        for (level, shapes) in script.chunks(block).enumerate() {
            let kinds: Vec<Kind> = shapes
                .iter()
                .map(|&s| traffic.catalogue.shapes[s].kind)
                .collect();
            assert_eq!(kinds[0], Kind::Climb, "block {level}");
            let count = |kind| kinds.iter().filter(|&&k| k == kind).count();
            assert_eq!(
                [Kind::Hit, Kind::Weighted, Kind::Census, Kind::Scrape].map(count),
                [4, 1, 1, 1],
                "block {level}"
            );
        }
        assert_eq!(script, traffic.script(&mut Rng::new(4)));
        assert_ne!(script, traffic.script(&mut Rng::new(5)));
    }

    #[test]
    fn the_same_seed_gives_the_same_targets_and_order() {
        let oracle = small_oracle();
        let order = |seed: u64| {
            let traffic = WarmTraffic::generate(&oracle, seed);
            let mut rng = Rng::fork(seed, 100);
            let picks: Vec<String> = (0..200)
                .map(|_| {
                    traffic.catalogue.shapes[traffic.next(&mut rng)]
                        .label
                        .clone()
                })
                .collect();
            let targets: Vec<String> = traffic
                .catalogue
                .targets
                .iter()
                .map(|t| t.perm.to_string())
                .collect();
            (targets, picks)
        };
        assert_eq!(order(5), order(5));
        assert_ne!(order(5).0, order(6).0);
        let (targets, _) = order(5);
        assert_eq!(targets.len(), 5 * HITS_PER_COST + 2 * DEEP_PER_COST);
    }

    #[test]
    fn warm_shapes_stay_on_the_read_path() {
        let oracle = small_oracle();
        let traffic = WarmTraffic::generate(&oracle, 9);
        for &i in traffic.shapes_of(Kind::Hit) {
            let Expect::Synth(t) = traffic.catalogue.shapes[i].expect else {
                panic!()
            };
            assert!(traffic.catalogue.targets[t].cost <= WARM_COST);
        }
        for &i in traffic.shapes_of(Kind::Deep) {
            let shape = &traffic.catalogue.shapes[i];
            let Expect::Synth(t) = shape.expect else {
                panic!()
            };
            assert!(traffic.catalogue.targets[t].cost > WARM_COST);
            assert!(
                !shape.label.ends_with(" uni"),
                "deep uni would expand: {}",
                shape.label
            );
        }
    }
}
