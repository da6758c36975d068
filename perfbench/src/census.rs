//! Cold censuses for the traced pass: build a fresh unit-cost engine and
//! call `SearchEngine::expand_one_level` up to the bound, timing each
//! level and checking the census against the pinned counts.

use std::time::{Duration, Instant};

use mvq_core::{CostModel, SearchEngine, SearchWidth, EXPECTED_TABLE_2};
use mvq_logic::GateLibrary;

use crate::rng::Rng;
use crate::spans::Tracer;

/// One census size: a wire count and the cost bound it is run to.
#[derive(Debug, Clone, Copy)]
pub struct Width {
    pub label: &'static str,
    pub wires: usize,
    pub cb: u32,
}

/// 3 wires to the paper's bound: |A| = 3 075 695.
pub const W3: Width = Width {
    label: "w3",
    wires: 3,
    cb: 7,
};
/// 4 wires to cost 4: |A| = 1 153 039.
pub const W4: Width = Width {
    label: "w4",
    wires: 4,
    cb: 4,
};

/// Table 2 at 3 wires and the pinned 4-wire counts (`four_wire.rs`):
/// `|G[k]|` for the leading costs, and |A| after a given level.
fn pins(width: Width) -> (&'static [usize], &'static [(u32, usize)]) {
    match width.wires {
        3 => (&EXPECTED_TABLE_2, &[(7, 3_075_695)]),
        _ => (&[1, 12, 96, 542], &[(3, 114_925), (4, 1_153_039)]),
    }
}

#[derive(Debug, Clone)]
pub struct CensusRun {
    pub elapsed: Duration,
    /// Wall time of each `expand_one_level` call, by cost.
    pub levels: Vec<Duration>,
    /// `a_size` after each level.
    pub a_sizes: Vec<usize>,
    pub g_counts: Vec<usize>,
    pub classes: usize,
}

impl CensusRun {
    pub fn a_size(&self) -> usize {
        self.a_sizes.last().copied().unwrap_or(0)
    }
}

pub fn build<W: SearchWidth>(wires: usize, threads: usize) -> SearchEngine<W> {
    SearchEngine::with_threads(GateLibrary::standard(wires), CostModel::unit(), threads)
}

/// Expands `engine` level by level until cost `cb` is complete.
pub fn run<W: SearchWidth>(engine: &mut SearchEngine<W>, cb: u32) -> CensusRun {
    run_with(engine, cb, None)
}

/// [`run`], recording a span per `expand_one_level` call under
/// `parent` when a tracer is given.
pub fn run_with<W: SearchWidth>(
    engine: &mut SearchEngine<W>,
    cb: u32,
    trace: Option<(&Tracer, u64)>,
) -> CensusRun {
    let started = Instant::now();
    let mut levels = Vec::new();
    let mut a_sizes = Vec::new();
    while engine.completed_cost().is_none_or(|c| c < cb) {
        let span = trace
            .map(|(tracer, parent)| tracer.open("engine.expand_one_level", Some(parent), None));
        let level = Instant::now();
        let advanced = engine.expand_one_level();
        let took = level.elapsed();
        if let (Some((tracer, _)), Some(span)) = (trace, span) {
            tracer.close(span);
        }
        if !advanced {
            break;
        }
        levels.push(took);
        a_sizes.push(engine.a_size());
    }
    CensusRun {
        elapsed: started.elapsed(),
        levels,
        a_sizes,
        g_counts: engine.g_counts().to_vec(),
        classes: engine.classes_found(),
    }
}

/// Compares a census against the pinned counts.
pub fn check(width: Width, run: &CensusRun) -> Result<(), String> {
    let (g_pins, a_pins) = pins(width);
    let n = g_pins.len().min(width.cb as usize + 1);
    if run.g_counts.get(..n) != Some(&g_pins[..n]) {
        return Err(format!(
            "{}: |G[k]| = {:?}, pinned {:?}",
            width.label,
            run.g_counts,
            &g_pins[..n]
        ));
    }
    for &(cost, a) in a_pins.iter().filter(|(cost, _)| *cost <= width.cb) {
        if run.a_sizes.get(cost as usize) != Some(&a) {
            return Err(format!(
                "{}: |A| after cost {cost} = {:?}, pinned {a}",
                width.label,
                run.a_sizes.get(cost as usize)
            ));
        }
    }
    Ok(())
}

/// Re-verifies a seeded sample of one seeded level's classes: the
/// engine's witness must realize the class on `mvq_sim`'s unitary and
/// MCE must answer it at that cost.
pub fn spot_check<W: SearchWidth>(
    engine: &mut SearchEngine<W>,
    cb: u32,
    rng: &mut Rng,
) -> Result<(), String> {
    let cost = 1 + rng.below(cb as usize) as u32;
    let classes = engine.reversible_circuits_at_cost(cost);
    for (perm, circuit) in rng.sample(&classes, 8) {
        if !circuit.verify_against_binary_perm(&perm) {
            return Err(format!("witness {circuit} does not realize {perm}"));
        }
        let answer = engine.synthesize(&perm, cb).map(|s| s.cost);
        if answer != Some(cost) {
            return Err(format!(
                "MCE answers {perm} at {answer:?}, its level is {cost}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvq_core::{Narrow, Wide};

    /// The exact counts a census reports repeat bit for bit, at both
    /// widths and at every thread count.
    #[test]
    fn exact_counts_repeat_across_runs() {
        let counts = |threads: usize| {
            let mut narrow = build::<Narrow>(3, threads);
            let mut wide = build::<Wide>(4, threads);
            let a = run(&mut narrow, 4);
            let b = run(&mut wide, 2);
            (
                a.a_sizes, a.g_counts, a.classes, b.a_sizes, b.g_counts, b.classes,
            )
        };
        let first = counts(2);
        assert_eq!(first, counts(2));
        assert_eq!(first, counts(1));
        assert_eq!(&first.1[..], &EXPECTED_TABLE_2[..5]);
        assert_eq!(&first.4[..], &[1, 12, 96]);
    }

    #[test]
    fn check_rejects_a_wrong_count() {
        let mut engine = build::<Narrow>(3, 1);
        let mut census = run(&mut engine, 3);
        let small = Width {
            label: "w3",
            wires: 3,
            cb: 3,
        };
        assert!(check(small, &census).is_ok());
        assert!(spot_check(&mut engine, 3, &mut Rng::new(1)).is_ok());
        census.g_counts[2] += 1;
        assert!(check(small, &census).is_err());
    }
}
