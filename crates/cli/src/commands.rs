//! Subcommand implementations.

use std::error::Error;
use std::sync::Arc;

use mvq_automata::ControlledRng;
use mvq_core::{
    universal, Census, Circuit, CostModel, Narrow, SearchEngine, SearchWidth, SnapshotError,
    Strategy, SynthesisEngine, Wide, WideSynthesisEngine, EXPECTED_TABLE_2, PAPER_TABLE_2,
};
use mvq_logic::{Gate, GateLibrary, PatternDomain, TruthTable};
use mvq_perm::Perm;
use mvq_serve::{HostConfig, HostRegistry, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::{Args, ParseArgsError};
use crate::output;

type CommandResult = Result<(), Box<dyn Error>>;

const USAGE: &str = "\
mvq — exact synthesis of 3-qubit quantum circuits (Yang et al., DATE 2005)

USAGE:
    mvq <command> [options]

COMMANDS:
    census [--cb N]                 reproduce Table 2 up to cost N (default 6;
           [--snapshot FILE]        3 on 4 wires) — warm-start from / write
           [--wires 2|3|4]          back a level-cache snapshot (created if
           [--model M]              missing); M is unit | V,VD,F |
                                    weighted(V,VD,F)
    synth <perm> [--cb N] [--all]   minimal-cost synthesis of a reversible
          [--strategy S]            function given in cycle notation on the
          [--snapshot FILE]         2^n binary patterns, e.g. \"(7,8)\";
          [--wires 2|3|4]           S is uni (default), bidi or auto: `bidi`
          [--model M]               meets in the middle from the target side
                                    (faster for deep targets), `auto` uses
                                    the settled levels when they decide and
                                    meets in the middle otherwise
    serve [--addr A]                long-lived synthesis service (HTTP/1.1 +
          [--snapshot FILE]         JSON): /synthesize /census /healthz
          [--max-cb N]              /stats /metrics /debug/slow /shutdown;
          [--workers W]             warm-starts from FILE (falling back to
          [--max-models M]          FILE.bak, then cold, if torn); admission
          [--faults PLAN]           rejects cost bounds > N (default 7); W
          [--log LEVEL]             handler threads (default 4); PLAN (or
                                    $MVQ_FAULTS) arms failpoints in
                                    `fault-injection` builds, e.g.
                                    \"snapshot.rename=err@2;expand.level=panic@5\";
                                    LEVEL (or $MVQ_LOG) is off | info | debug —
                                    info emits one JSON trace line per request
    verify <circuit> <perm>         check a cascade (e.g. VCB*FBA*VCA*V+CB)
                                    against a target permutation, exactly
    gate <name>                     show a gate's domain permutation and
                                    its exact 8x8 unitary (VBA, V+AB, FCA…)
    table [--wires N]               Table 1-style truth table of Ctrl-V
    universal                       G[4] structure & universality (Section 5)
    rng [--samples N] [--seed S]    controlled quantum RNG demo (Section 4)
    spectrum [--cb N]               cost spectrum, incl. levels beyond the
                                    paper's bound of 7 (memory permitting)
    help                            this message
";

/// The options (and flags) each subcommand takes; [`dispatch`] refuses
/// any other before the command runs.
const ACCEPTED: &[(&str, &[&str])] = &[
    ("help", &[]),
    ("census", &["cb", "snapshot", "wires", "model"]),
    (
        "synth",
        &["cb", "all", "strategy", "snapshot", "wires", "model"],
    ),
    (
        "serve",
        &[
            "addr",
            "snapshot",
            "max-cb",
            "workers",
            "max-models",
            "faults",
            "log",
        ],
    ),
    ("verify", &[]),
    ("gate", &[]),
    ("table", &["wires"]),
    ("universal", &[]),
    ("rng", &["samples", "seed"]),
    ("spectrum", &["cb"]),
];

/// Dispatches a raw argument vector to the matching subcommand.
pub fn dispatch(argv: &[String]) -> CommandResult {
    let args = Args::parse(argv, &["all"])?;
    let command = args.positional(0).unwrap_or("help");
    if let Some((_, accepted)) = ACCEPTED.iter().find(|(name, _)| *name == command) {
        args.accept_only(command, accepted)?;
    }
    // Every command honours `$MVQ_FAULTS`, so snapshot/expansion drills
    // work on one-shot runs too; `serve --faults` re-arms over this.
    arm_faults("")?;
    match args.positional(0) {
        None | Some("help") | Some("--help") => {
            println!("{USAGE}");
            Ok(())
        }
        Some("census") => census(&args),
        Some("synth") => synth(&args),
        Some("serve") => serve(&args),
        Some("verify") => verify(&args),
        Some("gate") => gate(&args),
        Some("table") => table(&args),
        Some("universal") => universal_cmd(&args),
        Some("rng") => rng(&args),
        Some("spectrum") => spectrum(&args),
        Some(other) => Err(Box::new(ParseArgsError::new(format!(
            "unknown command `{other}`"
        )))),
    }
}

/// Resolves `--wires` (default 3).
fn wires_arg(args: &Args) -> Result<usize, ParseArgsError> {
    let wires: usize = args.option("wires", 3)?;
    if !(2..=4).contains(&wires) {
        return Err(ParseArgsError::new("--wires must be 2, 3 or 4"));
    }
    Ok(wires)
}

/// Resolves `--model` (default unit costs).
fn model_arg(args: &Args) -> Result<CostModel, ParseArgsError> {
    args.option("model", CostModel::unit())
}

/// Builds an engine for one-shot commands: loaded from `--snapshot` when
/// the file exists, cold otherwise. Returns the engine and the snapshot
/// depth it started from (for the write-back decision).
///
/// A loaded snapshot must match the *requested* wires and cost model —
/// a weighted snapshot warm-starts `--model weighted(...)` runs just
/// like a unit snapshot warm-starts unit runs.
fn snapshot_engine<W: SearchWidth>(
    args: &Args,
    wires: usize,
    model: CostModel,
) -> Result<(SearchEngine<W>, Option<u32>), Box<dyn Error>> {
    let cold = || -> Result<SearchEngine<W>, Box<dyn Error>> {
        Ok(SearchEngine::<W>::try_new(
            GateLibrary::standard(wires),
            model,
        )?)
    };
    let Some(path) = args
        .option("snapshot", String::new())
        .ok()
        .filter(|p| !p.is_empty())
    else {
        return Ok((cold()?, None));
    };
    if std::path::Path::new(&path).exists() || mvq_core::snapshot_backup_path(&path).exists() {
        let (engine, source) = match SearchEngine::<W>::load_snapshot_resilient(&path) {
            Ok(loaded) => loaded,
            Err(err) if err.is_corruption() => {
                // A torn snapshot (with no usable backup) must not kill
                // the run: start cold and let the write-back replace it.
                eprintln!("warning: snapshot {path} is unusable ({err}); starting cold");
                return Ok((cold()?, None));
            }
            Err(err) => return Err(err.into()),
        };
        if let mvq_core::SnapshotSource::Backup { primary_error } = &source {
            eprintln!(
                "warning: snapshot {path} is unusable ({primary_error}); \
                 loaded the last-good backup instead"
            );
        }
        if engine.library().domain().wires() != wires {
            return Err(Box::new(ParseArgsError::new(format!(
                "snapshot {path} was built over {} wires, but --wires requests {wires}",
                engine.library().domain().wires()
            ))));
        }
        if engine.cost_model() != &model {
            return Err(Box::new(ParseArgsError::new(format!(
                "snapshot {path} was built with cost model {:?}, but this run requests {:?} \
                 (pass the matching --model or a different snapshot file)",
                engine.cost_model().weights(),
                model.weights()
            ))));
        }
        let depth = engine.completed_cost();
        println!(
            "loaded snapshot {path} (levels ≤ {}, |A| = {})",
            depth.map_or_else(|| "none".to_string(), |c| c.to_string()),
            engine.a_size()
        );
        // A backup load reports no prior depth, so the write-back always
        // runs and repairs the torn primary file.
        let loaded_depth = match source {
            mvq_core::SnapshotSource::Primary => depth.or(Some(0)),
            mvq_core::SnapshotSource::Backup { .. } => None,
        };
        Ok((engine, loaded_depth))
    } else {
        Ok((cold()?, None))
    }
}

/// Writes the snapshot back when `--snapshot` was given and the engine
/// grew past the depth it started from.
fn snapshot_writeback<W: SearchWidth>(
    args: &Args,
    engine: &mut SearchEngine<W>,
    loaded_depth: Option<u32>,
) -> Result<(), Box<dyn Error>> {
    let Some(path) = args
        .option("snapshot", String::new())
        .ok()
        .filter(|p| !p.is_empty())
    else {
        return Ok(());
    };
    let grew = match (loaded_depth, engine.completed_cost()) {
        (Some(loaded), Some(now)) => now > loaded,
        (None, _) => true, // no snapshot existed yet
        (Some(_), None) => false,
    };
    if grew {
        engine.save_snapshot(&path)?;
        println!(
            "wrote snapshot {path} (levels ≤ {}, |A| = {})",
            engine
                .completed_cost()
                .map_or_else(|| "none".to_string(), |c| c.to_string()),
            engine.a_size()
        );
    }
    Ok(())
}

fn census(args: &Args) -> CommandResult {
    let wires = wires_arg(args)?;
    if wires == 4 {
        census_run::<Wide>(args, wires)
    } else {
        census_run::<Narrow>(args, wires)
    }
}

fn census_run<W: SearchWidth>(args: &Args, wires: usize) -> CommandResult {
    // The 4-wire frontier grows ~3× faster per level than the 3-wire
    // one; keep the default bound shallow there.
    let cb: u32 = args.option("cb", if wires == 4 { 3 } else { 6 })?;
    let model = model_arg(args)?;
    let (mut engine, loaded_depth) = snapshot_engine::<W>(args, wires, model)?;
    // Wall-clock is measured here, at the edge: `mvq_core`'s
    // search-state modules are clock-free by lint rule.
    let start = std::time::Instant::now();
    let census = Census::compute_with(&mut engine, cb);
    let elapsed = start.elapsed();
    snapshot_writeback(args, &mut engine, loaded_depth)?;
    println!("{census}");
    println!("(wires: {wires}, elapsed: {elapsed:.2?})");
    if wires == 3 && model == CostModel::unit() {
        println!();
        println!("paper (printed): {PAPER_TABLE_2:?}");
        println!("verified:        {EXPECTED_TABLE_2:?}");
        for (k, mine, paper) in census.diff_vs_paper() {
            println!(
                "note: k = {k}: measured {mine} vs paper {paper} (paper slip; see EXPERIMENTS.md)"
            );
        }
    }
    Ok(())
}

fn parse_target(text: &str) -> Result<Perm, Box<dyn Error>> {
    mvq_core::known::parse_binary_target(text)
        .map_err(|detail| Box::new(ParseArgsError::new(detail)) as Box<dyn Error>)
}

fn synth(args: &Args) -> CommandResult {
    let wires = wires_arg(args)?;
    if wires == 4 {
        synth_run::<Wide>(args, wires)
    } else {
        synth_run::<Narrow>(args, wires)
    }
}

fn synth_run<W: SearchWidth>(args: &Args, wires: usize) -> CommandResult {
    let text = args
        .positional(1)
        .ok_or_else(|| ParseArgsError::new("synth needs a permutation, e.g. \"(7,8)\""))?;
    let cb: u32 = args.option("cb", if wires == 4 { 4 } else { 7 })?;
    let strategy: Strategy = args.option("strategy", Strategy::Uni)?;
    let model = model_arg(args)?;
    let target = mvq_core::known::parse_target_on(text, 1 << wires)
        .map_err(|detail| Box::new(ParseArgsError::new(detail)) as Box<dyn Error>)?;
    let (mut engine, loaded_depth) = snapshot_engine::<W>(args, wires, model)?;
    if args.flag("all") {
        if strategy != Strategy::Uni {
            return Err(Box::new(ParseArgsError::new(
                "--all enumerates the unidirectional level sets; \
                 drop --strategy or use --strategy uni",
            )));
        }
        let all = engine.synthesize_all(&target, cb);
        if all.is_empty() {
            println!("no implementation within cost {cb}");
            return Ok(());
        }
        println!(
            "target {target}: cost {}, {} minimal implementations",
            all[0].cost,
            all.len()
        );
        for (i, syn) in all.iter().enumerate() {
            println!("\n[{}]", i + 1);
            print!("{}", output::render_circuit(&syn.circuit));
            debug_assert!(syn.circuit.verify_against_binary_perm(&target));
        }
    } else {
        match engine.synthesize_with(strategy, &target, cb) {
            None => println!("no implementation within cost {cb}"),
            Some(syn) => {
                println!("target {target} (strategy: {strategy}):");
                print!("{}", output::render_synthesis(&syn));
                assert!(
                    syn.circuit.verify_against_binary_perm(&target),
                    "internal error: synthesis failed unitary verification"
                );
                println!("verified against the exact unitary ✓");
            }
        }
    }
    snapshot_writeback(args, &mut engine, loaded_depth)?;
    Ok(())
}

fn serve(args: &Args) -> CommandResult {
    let addr: String = args.option("addr", "127.0.0.1:7878".to_string())?;
    let max_cb: u32 = args.option("max-cb", 7)?;
    let workers: usize = args.option("workers", 4)?;
    let max_models: usize = args.option("max-models", 8)?;
    let snapshot: String = args.option("snapshot", String::new())?;
    let faults: String = args.option("faults", String::new())?;
    let log: String = args.option("log", String::new())?;
    // Resolve the trace level before binding: a typo'd level must fail
    // loudly, not serve silently untraced.
    let log = if log.is_empty() {
        std::env::var("MVQ_LOG").unwrap_or_default()
    } else {
        log
    };
    let log_level = match log.as_str() {
        "" => None,
        level => Some(mvq_obs::LogLevel::parse(level).ok_or_else(|| {
            ParseArgsError::new(format!("bad --log level `{level}` (off | info | debug)"))
        })?),
    };
    if !faults.is_empty() {
        arm_faults(&faults)?;
    }
    let registry = Arc::new(HostRegistry::new(HostConfig {
        max_cost_bound: max_cb,
        max_models,
        ..HostConfig::default()
    }));
    if !snapshot.is_empty() {
        install_serve_snapshot(&registry, &snapshot)?;
    }
    let server = Server::bind(addr.as_str(), registry)?;
    if let Some(level) = log_level {
        server.obs().trace().set_level(level);
    }
    println!(
        "mvq serve listening on http://{} ({} workers, admission cb ≤ {max_cb})",
        server.local_addr()?,
        workers.max(1)
    );
    println!(
        "endpoints: POST /synthesize /census /shutdown · GET /healthz /stats /metrics /debug/slow"
    );
    server.run(workers)?;
    println!("mvq serve: shut down cleanly");
    Ok(())
}

/// Arms the failpoint registry from `--faults` (or `$MVQ_FAULTS` when
/// the flag is absent). Loud on every failure mode: a malformed plan,
/// or any plan at all in a build without the `fault-injection` feature
/// — a chaos drill must never run silently unarmed.
fn arm_faults(plan: &str) -> CommandResult {
    if plan.is_empty() {
        let sites =
            mvq_fault::arm_from_env().map_err(|err| ParseArgsError::new(err.to_string()))?;
        if sites > 0 {
            println!(
                "fault plan armed: {sites} site(s) from ${}",
                mvq_fault::ENV_VAR
            );
        }
        return Ok(());
    }
    if !mvq_fault::enabled() {
        return Err(Box::new(ParseArgsError::new(
            "--faults needs a binary built with `--features fault-injection`",
        )));
    }
    let sites = mvq_fault::arm(plan).map_err(|err| ParseArgsError::new(err.to_string()))?;
    println!("fault plan armed: {sites} site(s) from --faults");
    Ok(())
}

/// Warm-starts the serve registry with the degradation ladder: the
/// primary snapshot, then its `.bak`, then a cold start with a
/// diagnostic. A torn snapshot must not keep the service down; only a
/// *healthy* snapshot that mismatches the configuration (an over-wide
/// library, a full registry) stays fatal.
fn install_serve_snapshot(registry: &Arc<HostRegistry>, path: &str) -> CommandResult {
    // Ok(true) = installed; Ok(false) = unreadable or torn (keep
    // degrading); Err = healthy but incompatible (fatal).
    let attempt = |file: &std::path::Path| -> Result<bool, Box<dyn Error>> {
        let shown = file.display();
        // The file's recorded widths decide which engine loads it: try
        // the narrow engine, fall back to the wide one on its
        // (header-only) width mismatch.
        let failed = match SynthesisEngine::load_snapshot(file) {
            Ok(engine) => {
                announce_snapshot(&shown.to_string(), &engine);
                registry.install(engine)?;
                return Ok(true);
            }
            Err(SnapshotError::WidthMismatch { .. }) => {
                match WideSynthesisEngine::load_snapshot(file) {
                    Ok(engine) => {
                        announce_snapshot(&shown.to_string(), &engine);
                        registry.install(engine)?;
                        return Ok(true);
                    }
                    Err(err) => err,
                }
            }
            Err(err) => err,
        };
        match failed {
            SnapshotError::Io(err) => eprintln!("warning: snapshot {shown} unreadable ({err})"),
            err if err.is_corruption() => eprintln!("warning: snapshot {shown} is torn ({err})"),
            err => return Err(err.into()),
        }
        Ok(false)
    };
    if attempt(std::path::Path::new(path))? {
        return Ok(());
    }
    let backup = mvq_core::snapshot_backup_path(path);
    if backup.exists() && attempt(&backup)? {
        return Ok(());
    }
    eprintln!("warning: no usable snapshot at {path}; serving cold");
    Ok(())
}

fn announce_snapshot<W: SearchWidth>(path: &str, engine: &SearchEngine<W>) {
    println!(
        "loaded snapshot {path} ({} wires, model {:?}, levels ≤ {}, |A| = {}, {} classes)",
        engine.library().domain().wires(),
        engine.cost_model().weights(),
        engine
            .completed_cost()
            .map_or_else(|| "none".to_string(), |c| c.to_string()),
        engine.a_size(),
        engine.classes_found()
    );
}

fn verify(args: &Args) -> CommandResult {
    let circuit_text = args
        .positional(1)
        .ok_or_else(|| ParseArgsError::new("verify needs a circuit and a permutation"))?;
    let perm_text = args
        .positional(2)
        .ok_or_else(|| ParseArgsError::new("verify needs a target permutation"))?;
    let circuit: Circuit = circuit_text.parse()?;
    let circuit = if circuit.wires() < 3 {
        Circuit::new(3, circuit.gates().to_vec())
    } else {
        circuit
    };
    let target = parse_target(perm_text)?;
    print!("{}", output::render_circuit(&circuit));
    println!("quantum cost: {}", circuit.quantum_cost());
    match circuit.binary_perm() {
        Some(p) => println!("binary permutation: {p}"),
        None => println!("binary permutation: none (probabilistic outputs)"),
    }
    if circuit.verify_against_binary_perm(&target) {
        println!("realizes {target} exactly ✓");
    } else {
        println!("does NOT realize {target} ✗");
    }
    Ok(())
}

fn gate(args: &Args) -> CommandResult {
    let name = args
        .positional(1)
        .ok_or_else(|| ParseArgsError::new("gate needs a name, e.g. VBA or V+AB"))?;
    let gate: Gate = name.parse()?;
    println!("gate {gate}");
    let wires = gate
        .wires()
        .iter()
        .max()
        .map_or(2, |w| (w + 1).max(2))
        .max(3);
    let domain = PatternDomain::permutable(wires.min(3));
    if gate.wires().iter().all(|&w| w < 3) && !matches!(gate, Gate::Not { .. }) {
        println!("permutation on the {}-pattern domain:", domain.len());
        println!("  {}", gate.perm(&domain));
    }
    println!("exact unitary on 3 wires:");
    print!("{}", output::indent(&gate.unitary(3).to_string(), 2));
    println!();
    Ok(())
}

fn table(args: &Args) -> CommandResult {
    let wires: usize = args.option("wires", 2)?;
    if !(2..=3).contains(&wires) {
        return Err(Box::new(ParseArgsError::new("--wires must be 2 or 3")));
    }
    let domain = if wires == 2 {
        PatternDomain::table_ordered(2)
    } else {
        PatternDomain::permutable(3)
    };
    let table = TruthTable::new(Gate::v(1, 0), domain);
    println!("{table}");
    Ok(())
}

fn universal_cmd(_args: &Args) -> CommandResult {
    let mut engine = SynthesisEngine::unit_cost();
    let analysis = universal::analyze_g4(&mut engine);
    println!("|G[4]| = {}", analysis.members.len());
    println!("  Feynman-only: {}", analysis.feynman_only().len());
    println!(
        "  with control gates: {} (all universal: {})",
        analysis.with_control_gates().len(),
        analysis.with_control_gates().iter().all(|m| m.universal)
    );
    let orbits = analysis.wire_permutation_orbits();
    println!("  wire-relabeling orbits: {}", orbits.len());
    for (i, orbit) in orbits.iter().enumerate() {
        println!(
            "    orbit {}: {} members, representative {}",
            i + 1,
            orbit.len(),
            orbit[0]
        );
    }
    Ok(())
}

fn rng(args: &Args) -> CommandResult {
    let samples: usize = args.option("samples", 10_000)?;
    let seed: u64 = args.option("seed", 42)?;
    let generator = ControlledRng::synthesize()
        .ok_or_else(|| ParseArgsError::new("RNG spec failed to synthesize"))?;
    println!(
        "synthesized: {} (cost {})",
        generator.block().circuit(),
        generator.quantum_cost()
    );
    let d = generator.block().output_distribution(0b10);
    println!(
        "exact: P(0) = {}, P(1) = {}",
        d.prob_of(0b10),
        d.prob_of(0b11)
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let bits = generator.generate(&mut rng, samples, true);
    let ones = bits.iter().filter(|&&b| b).count();
    println!(
        "empirical over {samples} samples (seed {seed}): P(1) ≈ {:.4}",
        ones as f64 / samples as f64
    );
    Ok(())
}

fn spectrum(args: &Args) -> CommandResult {
    let cb: u32 = args.option("cb", 8)?;
    println!("cost spectrum of NOT-free reversible 3-qubit circuits:");
    let spectrum = mvq_core::CostSpectrum::compute(cb);
    println!("{spectrum}");
    if spectrum.is_complete() {
        println!("every reversible class has a known minimal cost");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(items: &[&str]) -> CommandResult {
        let argv: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        dispatch(&argv)
    }

    #[test]
    fn help_runs() {
        assert!(run(&["help"]).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn census_small() {
        assert!(run(&["census", "--cb", "2"]).is_ok());
    }

    #[test]
    fn synth_feynman() {
        assert!(run(&["synth", "(5,7)(6,8)", "--cb", "2"]).is_ok());
    }

    #[test]
    fn synth_all_peres() {
        assert!(run(&["synth", "(5,7,6,8)", "--cb", "4", "--all"]).is_ok());
    }

    #[test]
    fn synth_rejects_garbage() {
        assert!(run(&["synth", "(1,x)"]).is_err());
        assert!(run(&["synth"]).is_err());
        assert!(run(&["synth", "(1,9)"]).is_err());
    }

    #[test]
    fn synth_bidirectional_strategy() {
        assert!(run(&["synth", "(7,8)", "--cb", "6", "--strategy", "bidi"]).is_ok());
        assert!(run(&["synth", "(7,8)", "--cb", "6", "--strategy", "bidirectional"]).is_ok());
        assert!(run(&["synth", "(7,8)", "--cb", "6", "--strategy", "uni"]).is_ok());
    }

    #[test]
    fn synth_auto_strategy() {
        assert!(run(&["synth", "(7,8)", "--cb", "6", "--strategy", "auto"]).is_ok());
        assert!(run(&["synth", "(5,6,8,7)", "--cb", "5", "--strategy", "AUTO"]).is_ok());
        // --all enumerates unidirectional level sets only.
        assert!(run(&["synth", "(7,8)", "--all", "--strategy", "auto"]).is_err());
    }

    #[test]
    fn synth_rejects_bad_strategy() {
        assert!(run(&["synth", "(7,8)", "--strategy", "sideways"]).is_err());
        // --all enumerates unidirectional level sets only.
        assert!(run(&["synth", "(7,8)", "--all", "--strategy", "bidi"]).is_err());
    }

    #[test]
    fn threads_flag_rejected() {
        // Expansion is serial: a script still passing --threads fails
        // loudly instead of being ignored.
        let err = run(&["census", "--threads", "2"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --threads for census");
        assert!(run(&["synth", "(7,8)", "--cb", "2", "--threads", "2"]).is_err());
        let err = run(&["serve", "--threads", "2"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --threads for serve");
    }

    #[test]
    fn unknown_options_are_rejected() {
        let err = run(&["census", "--bogus", "4", "--wires", "2"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --bogus for census");
        let err = run(&["synth", "(7,8)", "--cbb", "8"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --cbb for synth");
        // A flag another command takes is refused too.
        let err = run(&["census", "--cb", "1", "--all"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --all for census");
        assert!(run(&["universal", "--cb", "2"]).is_err());
    }

    #[test]
    fn every_option_in_the_help_text_parses() {
        // Each `[--name …]` in a command's help block is accepted by that
        // command, and each accepted option is in its help block.
        let mut listed: Vec<(String, String)> = Vec::new();
        let mut command = String::new();
        for line in USAGE.lines() {
            if let Some(name) = line.strip_prefix("    ").and_then(|l| l.split(' ').next()) {
                if !name.is_empty() {
                    command = name.to_string();
                }
            }
            for part in line.split("[--").skip(1) {
                let option = part.split([' ', ']']).next().unwrap_or_default();
                listed.push((command.clone(), option.to_string()));
            }
        }
        assert!(listed.len() >= 20, "{listed:?}");
        for (command, option) in &listed {
            let (_, accepted) = ACCEPTED
                .iter()
                .find(|(name, _)| name == command)
                .unwrap_or_else(|| panic!("{command} has no accepted-option list"));
            assert!(accepted.contains(&option.as_str()), "{command} --{option}");
            let args = Args::parse(
                &[command.clone(), format!("--{option}"), "1".into()],
                &["all"],
            )
            .unwrap();
            assert!(
                args.accept_only(command, accepted).is_ok(),
                "{command} --{option}"
            );
        }
        for (command, accepted) in ACCEPTED {
            for option in *accepted {
                assert!(
                    listed.iter().any(|(c, o)| c == command && o == option),
                    "{command} --{option} is accepted but not in the help text"
                );
            }
        }
    }

    #[test]
    fn census_snapshot_roundtrip() {
        let path = std::env::temp_dir().join(format!("mvq_cli_census_{}.snap", std::process::id()));
        let path = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        // First run creates the snapshot, second run warm-starts from it,
        // a deeper third run re-saves it.
        assert!(run(&["census", "--cb", "2", "--snapshot", &path]).is_ok());
        assert!(std::path::Path::new(&path).exists());
        assert!(run(&["census", "--cb", "2", "--snapshot", &path]).is_ok());
        assert!(run(&["census", "--cb", "3", "--snapshot", &path]).is_ok());
        let loaded = SynthesisEngine::load_snapshot(&path).unwrap();
        assert_eq!(loaded.completed_cost(), Some(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn synth_snapshot_flag() {
        let path = std::env::temp_dir().join(format!("mvq_cli_synth_{}.snap", std::process::id()));
        let path = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        assert!(run(&["synth", "(7,8)", "--cb", "2", "--snapshot", &path]).is_ok());
        assert!(std::path::Path::new(&path).exists());
        assert!(run(&["synth", "(7,8)", "--cb", "2", "--snapshot", &path]).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn synth_snapshot_bidi_roundtrip() {
        // A snapshot warm-starts the *forward* frontier of a
        // bidirectional run exactly like a unidirectional one (the
        // backward frontier is per-query and never snapshotted), and a
        // bidi run that deepens the forward levels writes them back.
        let path = std::env::temp_dir().join(format!("mvq_cli_bidi_{}.snap", std::process::id()));
        let path = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        // Seed a shallow snapshot (levels ≤ 1).
        assert!(run(&["census", "--cb", "1", "--snapshot", &path]).is_ok());
        assert_eq!(
            SynthesisEngine::load_snapshot(&path)
                .unwrap()
                .completed_cost(),
            Some(1)
        );
        // Toffoli costs 5: the adaptive split grows the warm forward
        // frontier past the loaded depth, so the run writes back.
        assert!(run(&[
            "synth",
            "(7,8)",
            "--cb",
            "5",
            "--snapshot",
            &path,
            "--strategy",
            "bidi"
        ])
        .is_ok());
        let after = SynthesisEngine::load_snapshot(&path).unwrap();
        let depth = after.completed_cost().expect("levels present");
        assert!(
            depth >= 2,
            "bidi run should write back deeper levels, got {depth}"
        );
        // The written snapshot reloads and warm-starts either strategy.
        assert!(run(&[
            "synth",
            "(7,8)",
            "--cb",
            "5",
            "--snapshot",
            &path,
            "--strategy",
            "bidi"
        ])
        .is_ok());
        assert!(run(&[
            "synth",
            "(7,8)",
            "--cb",
            "5",
            "--snapshot",
            &path,
            "--strategy",
            "uni"
        ])
        .is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_flag_degrades_garbage_files_to_cold_start() {
        let path =
            std::env::temp_dir().join(format!("mvq_cli_garbage_{}.snap", std::process::id()));
        std::fs::write(&path, b"not a snapshot").unwrap();
        let path_text = path.to_string_lossy().to_string();
        // A torn snapshot (no backup) degrades to a cold start instead
        // of killing the run — and the write-back repairs the file.
        assert!(run(&["census", "--cb", "2", "--snapshot", &path_text]).is_ok());
        let repaired = SynthesisEngine::load_snapshot(&path).unwrap();
        assert_eq!(repaired.completed_cost(), Some(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_snapshot_with_backup_warm_starts_and_repairs() {
        let dir = std::env::temp_dir().join(format!("mvq_cli_bak_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("levels.snap");
        let path_text = path.to_string_lossy().to_string();
        // Seed a healthy snapshot, rotate it to .bak, tear the primary.
        assert!(run(&["census", "--cb", "2", "--snapshot", &path_text]).is_ok());
        let backup = mvq_core::snapshot_backup_path(&path);
        std::fs::copy(&path, &backup).unwrap();
        std::fs::write(&path, b"torn mid-write").unwrap();
        // The run falls back to the backup (no cold recompute of the
        // loaded levels) and the write-back repairs the primary.
        assert!(run(&["census", "--cb", "3", "--snapshot", &path_text]).is_ok());
        let repaired = SynthesisEngine::load_snapshot(&path).unwrap();
        assert_eq!(repaired.completed_cost(), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_faults_flag_is_validated_before_binding() {
        if mvq_fault::enabled() {
            // A malformed plan is rejected before the server binds.
            assert!(run(&["serve", "--faults", "not-a-plan"]).is_err());
        } else {
            // Without the feature, any --faults request is refused
            // loudly — a chaos drill must never run silently unarmed.
            assert!(run(&["serve", "--faults", "snapshot.rename=err"]).is_err());
        }
    }

    #[test]
    fn four_wire_census_and_synth() {
        assert!(run(&["census", "--wires", "4", "--cb", "2"]).is_ok());
        let cnot = "(9,10)(11,12)(13,14)(15,16)";
        assert!(run(&["synth", cnot, "--wires", "4", "--cb", "2"]).is_ok());
        assert!(run(&[
            "synth",
            cnot,
            "--wires",
            "4",
            "--cb",
            "2",
            "--strategy",
            "bidi"
        ])
        .is_ok());
        assert!(run(&["synth", cnot, "--wires", "4", "--cb", "2", "--all"]).is_ok());
        // Out-of-range wire counts and 3-wire targets naming 4-wire
        // patterns are rejected.
        assert!(run(&["census", "--wires", "5"]).is_err());
        assert!(run(&["census", "--wires", "1"]).is_err());
        assert!(run(&["synth", "(15,16)", "--cb", "2"]).is_err());
    }

    #[test]
    fn four_wire_snapshot_roundtrip() {
        let path = std::env::temp_dir().join(format!("mvq_cli_w4_{}.snap", std::process::id()));
        let path = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        assert!(run(&["census", "--wires", "4", "--cb", "2", "--snapshot", &path]).is_ok());
        assert!(std::path::Path::new(&path).exists());
        // Warm-start from the wide snapshot.
        assert!(run(&["census", "--wires", "4", "--cb", "2", "--snapshot", &path]).is_ok());
        let loaded = WideSynthesisEngine::load_snapshot(&path).unwrap();
        assert_eq!(loaded.completed_cost(), Some(2));
        // The narrow engine (and a --wires 3 run) must reject it.
        assert!(SynthesisEngine::load_snapshot(&path).is_err());
        assert!(run(&["census", "--cb", "2", "--snapshot", &path]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weighted_model_snapshot_warm_starts() {
        // Regression: `snapshot_engine` used to reject any snapshot
        // "built with a non-unit cost model", so a weighted run could
        // never warm-start even from its own snapshot. The check now
        // compares the snapshot's model against the requested one.
        let path = std::env::temp_dir().join(format!("mvq_cli_model_{}.snap", std::process::id()));
        let path = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        assert!(run(&[
            "census",
            "--cb",
            "2",
            "--model",
            "1,2,3",
            "--snapshot",
            &path
        ])
        .is_ok());
        assert!(std::path::Path::new(&path).exists());
        // Same weighted model: warm-starts (used to fail outright).
        assert!(run(&[
            "census",
            "--cb",
            "2",
            "--model",
            "1,2,3",
            "--snapshot",
            &path
        ])
        .is_ok());
        assert!(run(&[
            "synth",
            "(7,8)",
            "--cb",
            "6",
            "--model",
            "1,2,3",
            "--snapshot",
            &path
        ])
        .is_ok());
        // A different model is still a mismatch (here: default unit).
        let err = run(&["census", "--cb", "2", "--snapshot", &path]).unwrap_err();
        assert!(err.to_string().contains("cost model"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn model_flag_parses() {
        assert!(run(&["census", "--cb", "1", "--model", "unit"]).is_ok());
        assert!(run(&["census", "--cb", "2", "--model", "weighted(2,2,1)"]).is_ok());
        assert!(run(&["census", "--cb", "1", "--model", "bogus"]).is_err());
        assert!(run(&["synth", "(7,8)", "--cb", "2", "--model", "0,1,1"]).is_err());
    }

    #[test]
    fn serve_rejects_bad_addr() {
        assert!(run(&["serve", "--addr", "not-an-address"]).is_err());
        assert!(run(&["serve", "--workers", "x"]).is_err());
    }

    #[test]
    fn verify_peres_circuit() {
        assert!(run(&["verify", "VCB*FBA*VCA*V+CB", "(5,7,6,8)"]).is_ok());
    }

    #[test]
    fn gate_display() {
        assert!(run(&["gate", "VBA"]).is_ok());
        assert!(run(&["gate", "NOT(B)"]).is_ok());
        assert!(run(&["gate", "ZZZ"]).is_err());
    }

    #[test]
    fn table_both_sizes() {
        assert!(run(&["table"]).is_ok());
        assert!(run(&["table", "--wires", "3"]).is_ok());
        assert!(run(&["table", "--wires", "4"]).is_err());
    }

    #[test]
    fn rng_small_sample() {
        assert!(run(&["rng", "--samples", "100", "--seed", "7"]).is_ok());
    }

    #[test]
    fn spectrum_small() {
        assert!(run(&["spectrum", "--cb", "3"]).is_ok());
    }
}
