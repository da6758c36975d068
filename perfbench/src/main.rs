//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_warm|serve_cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs for `--seconds` and reports
//! the end-to-end metrics; with `--trace 1` the traced pass reports the
//! per-layer metrics (see `metric_map.json`). Human-readable lines come
//! first; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any wrong census count or served
//! answer makes the run exit with status 1.

mod census;
mod check;
mod client;
mod json;
mod layers;
mod metrics;
mod oracle;
mod rng;
mod serve;
mod spans;
mod stats;
mod traffic;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::metrics::{MetricMap, Outcome};

const WORKLOADS: [&str; 2] = ["serve_warm", "serve_cold"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|_| "--seconds takes a number")?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace,
    })
}

/// Scratch files (oracle cache, snapshot, spans), inside the benchmark's
/// own directory.
fn out_dir() -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn run(args: &Args) -> std::io::Result<Outcome> {
    // The traced pass's census engines run one thread per core, so `par`
    // is on their path; the servers' engines run one fewer (see
    // `serve::serve_threads`). The load comes from `nproc` clients; the
    // cold workload needs two, one expanding while the other waits.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let dir = out_dir()?;
    if args.trace {
        return layers::suite(&args.workload, args.seed, cores, cores, &dir);
    }
    match args.workload.as_str() {
        "serve_warm" => serve::warm(
            args.seed,
            args.seconds,
            serve::serve_threads(cores),
            cores,
            &dir,
        ),
        _ => serve::cold(
            args.seed,
            args.seconds,
            serve::serve_threads(cores),
            cores.max(2),
            &dir,
        ),
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--build-fixtures") {
        let dir = PathBuf::from(argv.nth(1).expect("--build-fixtures needs a directory"));
        return match oracle::Oracle::build_fixtures(&dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("perfbench: building fixtures in {}: {err}", dir.display());
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let map = MetricMap::load();
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &outcome.report {
        println!("{line}");
    }
    for def in map.for_mode(args.trace) {
        println!(
            "metric {} = {} {} ({} is better; {})",
            def.name, outcome.values[&def.name], def.unit, def.better, def.layer
        );
    }
    println!("{}", outcome.result_line(&map, args.trace));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_cold --seed 12 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_cold", 12, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve_warm --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve_warm --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve_warm --seed 1 --seconds 1 --trace 2").is_err());
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = json::parse(metrics::BENCHMARK).unwrap();
        let names: Vec<&str> = json::get(&doc, "workloads")
            .and_then(serde::Content::as_seq)
            .unwrap()
            .iter()
            .filter_map(|w| json::str_field(w, "name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
