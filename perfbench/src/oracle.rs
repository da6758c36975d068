//! The correctness oracle for the serving workloads.
//!
//! A serial (one-thread) engine enumerates every reversible class up to
//! the bounds the traffic reaches — unit costs to 7, the weighted model
//! to [`WEIGHTED_CB`] — with each class's minimal cost and
//! implementation count. The traffic draws its targets from these
//! classes, and every served answer is compared against them.
//!
//! The unit enumeration explores all ~3 M circuits of cost ≤ 7, so it
//! runs in a child process (the served process's peak memory must not
//! include it) and is cached in the benchmark's output directory: it is
//! a reference, whose answers are the same for every correct program.
//! The warm server's snapshot is what the program under test writes, so
//! the same child writes it afresh on every run.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use mvq_core::{CostModel, SearchEngine, SearchWidth, SynthesisEngine};
use mvq_logic::GateLibrary;
use mvq_perm::Perm;

/// The second cost model the cold traffic creates a host for. With
/// Feynman at 3 (not 2) a cheaper path to an already-queued word exists,
/// so the search re-admits words and later drops their stale copies.
pub const WEIGHTED: (u32, u32, u32) = (1, 1, 3);
/// Highest weighted cost the traffic asks for (the first level whose
/// bucket holds stale copies).
pub const WEIGHTED_CB: u32 = 7;
/// Highest unit cost (the paper's bound).
pub const UNIT_CB: u32 = 7;
/// The warm server's snapshot depth.
pub const WARM_COST: u32 = 5;

/// The snapshot the warm server starts from (written by
/// [`Oracle::prepare`] on every run).
pub fn warm_snapshot(dir: &Path) -> PathBuf {
    dir.join(format!("warm-cost{WARM_COST}.snap"))
}

/// Names the bounds and weights, so a cache built for others is rebuilt.
const HEADER: &str = "perfbench oracle v1 unit<=7 weighted(1,1,3)<=7";

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    Unit,
    Weighted,
}

impl Model {
    pub fn cost_model(self) -> CostModel {
        match self {
            Model::Unit => CostModel::unit(),
            Model::Weighted => CostModel::weighted(WEIGHTED.0, WEIGHTED.1, WEIGHTED.2),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Model::Unit => "u",
            Model::Weighted => "w",
        }
    }
}

/// One reversible class: a permutation of the 8 binary patterns fixing
/// the all-zeros pattern, with its minimal cost and the number of
/// distinct minimal implementations.
#[derive(Debug, Clone)]
pub struct Class {
    pub perm: Perm,
    pub cost: u32,
    pub implementations: usize,
}

#[derive(Debug, Default)]
pub struct Oracle {
    classes: HashMap<Model, Vec<Class>>,
    index: HashMap<(Model, Vec<u8>), usize>,
}

impl Oracle {
    /// Writes a fresh warm snapshot ([`warm_snapshot`]) into `dir` and
    /// reads the cached oracle from there, building it first when it is
    /// missing; both are made in a child process running this binary.
    pub fn prepare(dir: &Path) -> io::Result<Self> {
        let status = Command::new(std::env::current_exe()?)
            .arg("--build-fixtures")
            .arg(dir)
            .status()?;
        if !status.success() {
            return Err(io::Error::other(format!("fixture build failed: {status}")));
        }
        Self::parse(&std::fs::read_to_string(dir.join("oracle.txt"))?)
    }

    /// The child-process side of [`Self::prepare`]: writes the
    /// cost-[`WARM_COST`] snapshot, and the oracle when `dir` has none.
    pub fn build_fixtures(dir: &Path) -> io::Result<()> {
        let snapshot = warm_snapshot(dir);
        // Removed first, so the save keeps no `.bak` of an earlier file.
        match std::fs::remove_file(&snapshot) {
            Err(err) if err.kind() != io::ErrorKind::NotFound => return Err(err),
            _ => {}
        }
        let mut engine = SynthesisEngine::unit_cost();
        engine.expand_to_cost(WARM_COST);
        engine
            .save_snapshot(&snapshot)
            .map_err(|err| io::Error::other(err.to_string()))?;
        if dir.join("oracle.txt").exists() {
            return Ok(());
        }
        let partial = dir.join("oracle.txt.partial");
        std::fs::write(&partial, Self::build_text())?;
        std::fs::rename(&partial, dir.join("oracle.txt"))
    }

    /// Enumerates both models with serial engines.
    fn build_text() -> String {
        let mut out = format!("{HEADER}\n");
        for (model, cb) in [(Model::Unit, UNIT_CB), (Model::Weighted, WEIGHTED_CB)] {
            let mut engine =
                SynthesisEngine::with_threads(GateLibrary::standard(3), model.cost_model(), 1);
            for class in enumerate(&mut engine, cb) {
                let images: Vec<String> = class
                    .perm
                    .as_images()
                    .iter()
                    .map(|i| (i + 1).to_string())
                    .collect();
                out.push_str(&format!(
                    "{} {} {} {}\n",
                    model.tag(),
                    class.cost,
                    class.implementations,
                    images.join(",")
                ));
            }
        }
        out
    }

    fn parse(text: &str) -> io::Result<Self> {
        let bad = |line: &str| io::Error::other(format!("bad oracle line `{line}`"));
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(io::Error::other("oracle file has an unknown header"));
        }
        let mut oracle = Oracle::default();
        for line in lines {
            let fields: Vec<&str> = line.split(' ').collect();
            let [tag, cost, count, images] = fields[..] else {
                return Err(bad(line));
            };
            let model = match tag {
                "u" => Model::Unit,
                "w" => Model::Weighted,
                _ => return Err(bad(line)),
            };
            let images: Vec<usize> = images
                .split(',')
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|_| bad(line))?;
            let perm = Perm::from_images(&images).ok_or_else(|| bad(line))?;
            let class = Class {
                perm,
                cost: cost.parse().map_err(|_| bad(line))?,
                implementations: count.parse().map_err(|_| bad(line))?,
            };
            oracle.insert(model, class);
        }
        Ok(oracle)
    }

    fn insert(&mut self, model: Model, class: Class) {
        let list = self.classes.entry(model).or_default();
        self.index
            .insert((model, class.perm.as_images().to_vec()), list.len());
        list.push(class);
    }

    /// Every class of `model` at exactly `cost`.
    pub fn at_cost(&self, model: Model, cost: u32) -> Vec<&Class> {
        self.classes
            .get(&model)
            .map(|all| all.iter().filter(|c| c.cost == cost).collect())
            .unwrap_or_default()
    }

    /// The oracle entry for a NOT-free class permutation.
    pub fn lookup(&self, model: Model, class: &Perm) -> Option<&Class> {
        let at = self.index.get(&(model, class.as_images().to_vec()))?;
        self.classes.get(&model).map(|all| &all[*at])
    }

    #[cfg(test)]
    pub fn from_classes(model: Model, classes: Vec<Class>) -> Self {
        Oracle::default().with_classes(model, classes)
    }

    #[cfg(test)]
    pub fn with_classes(mut self, model: Model, classes: Vec<Class>) -> Self {
        for class in classes {
            self.insert(model, class);
        }
        self
    }
}

/// Every class of cost `1..=cb` on `engine`, with implementation counts.
pub fn enumerate<W: SearchWidth>(engine: &mut SearchEngine<W>, cb: u32) -> Vec<Class> {
    engine.expand_to_cost(cb);
    let mut out = Vec::new();
    for cost in 1..=cb {
        for (perm, _) in engine.reversible_circuits_at_cost(cost) {
            let implementations = engine
                .synthesize(&perm, cost)
                .map_or(0, |s| s.implementation_count);
            out.push(Class {
                perm,
                cost,
                implementations,
            });
        }
    }
    out
}

/// The Theorem 2 coset member a request names: the NOT layer flipping
/// `bits` applied first, then the class.
pub fn with_not_layer(class: &Perm, bits: usize) -> Perm {
    let images: Vec<usize> = (0..class.degree()).map(|p| (p ^ bits) + 1).collect();
    let not_layer = Perm::from_images(&images).expect("xor permutes the patterns");
    not_layer * class.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_text_round_trips() {
        let mut engine =
            SynthesisEngine::with_threads(GateLibrary::standard(3), CostModel::unit(), 1);
        let classes = enumerate(&mut engine, 3);
        assert_eq!(classes.len(), 6 + 24 + 51);
        let mut text = format!("{HEADER}\n");
        for c in &classes {
            let images: Vec<String> = c
                .perm
                .as_images()
                .iter()
                .map(|i| (i + 1).to_string())
                .collect();
            text.push_str(&format!(
                "u {} {} {}\n",
                c.cost,
                c.implementations,
                images.join(",")
            ));
        }
        let oracle = Oracle::parse(&text).unwrap();
        assert_eq!(oracle.at_cost(Model::Unit, 2).len(), 24);
        let peres = oracle.lookup(Model::Unit, &mvq_core::known::peres_perm());
        assert!(peres.is_none(), "Peres costs 4, beyond this oracle");
        let first = &classes[0];
        assert_eq!(oracle.lookup(Model::Unit, &first.perm).unwrap().cost, 1);
    }

    #[test]
    fn not_layer_is_stripped_back_to_the_class() {
        let peres = mvq_core::known::peres_perm();
        let mut engine =
            SynthesisEngine::with_threads(GateLibrary::standard(3), CostModel::unit(), 1);
        let plain = engine.synthesize(&peres, 4).unwrap();
        for bits in 0..8 {
            let target = with_not_layer(&peres, bits);
            let served = engine.synthesize(&target, 4).unwrap();
            assert_eq!(served.cost, plain.cost);
            assert_eq!(served.implementation_count, plain.implementation_count);
            assert_eq!(served.not_layer.len(), bits.count_ones() as usize);
            assert!(served.circuit.verify_against_binary_perm(&target));
        }
    }
}
