//! Quick perf snapshot for CI: times the headline synthesis paths and
//! writes `BENCH_synthesis.json` so successive PRs have a comparable
//! trajectory. Much faster than the full criterion suite — a handful of
//! samples per case, no statistics beyond mean/min/max.
//!
//! The headline entries (`census_cb5`, `fredkin_cold_unidirectional`, …)
//! run at the default degree of parallelism (`MVQ_THREADS` or the
//! machine's available parallelism); explicit `*_serial` entries pin one
//! thread so the parallel speedup is measurable from the artifact alone.
//! Every row records the thread count it ran with, and the snapshot
//! records the runner's available parallelism — numbers from a 1-core
//! runner and a 16-core runner are distinguishable after the fact.
//!
//! Usage: `cargo run --release -p mvq_bench --bin quick_bench [-- out.json]`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use mvq_core::{known, resolve_threads, CostModel, SynthesisEngine, WideSynthesisEngine};
use mvq_logic::GateLibrary;
use mvq_obs::Probe;

/// Σ successors generated by a cold 3-wire unit census to cost 5 (every
/// successor but the one back to a word's parent). A deterministic work
/// count: the same at every thread count.
const CENSUS_CB5_GENERATED: u64 = 256_500;

struct Sample {
    name: &'static str,
    threads: usize,
    samples: u32,
    mean_ns: u128,
    min_ns: u128,
    max_ns: u128,
    /// Successors generated by one run, for rows that count them.
    generated: Option<u64>,
}

/// Sums the successors each expanded level generated.
#[derive(Default)]
struct GeneratedCounter(AtomicU64);

impl Probe for GeneratedCounter {
    fn level_work(&self, _cost: u32, generated: u64, _stale_dropped: u64) {
        self.0.fetch_add(generated, Ordering::Relaxed);
    }
}

/// Times `f` for a fixed number of samples (after one untimed warm-up).
fn time<F: FnMut() -> u32>(name: &'static str, threads: usize, samples: u32, f: F) -> Sample {
    time_boxed(name, threads, samples, samples, Duration::MAX, f)
}

/// Times `f` for at least `min_samples` and then keeps sampling until
/// `budget` wall-clock is spent or `max_samples` is reached — so slow
/// cases get as many samples as a time box affords instead of a noisy
/// fixed pair.
fn time_boxed<F: FnMut() -> u32>(
    name: &'static str,
    threads: usize,
    min_samples: u32,
    max_samples: u32,
    budget: Duration,
    mut f: F,
) -> Sample {
    // One warm-up run outside the timed window.
    let sink = f();
    std::hint::black_box(sink);
    let mut total = 0u128;
    let mut min = u128::MAX;
    let mut max = 0u128;
    let mut samples = 0u32;
    let box_start = Instant::now();
    while samples < min_samples || (samples < max_samples && box_start.elapsed() < budget) {
        let start = Instant::now();
        std::hint::black_box(f());
        let ns = start.elapsed().as_nanos();
        total += ns;
        min = min.min(ns);
        max = max.max(ns);
        samples += 1;
    }
    let mean_ns = total / u128::from(samples);
    println!(
        "{name:<36} mean {:>12.3} ms ({samples} samples, {threads} thread{})",
        mean_ns as f64 / 1e6,
        if threads == 1 { "" } else { "s" }
    );
    Sample {
        name,
        threads,
        samples,
        mean_ns,
        min_ns: min,
        max_ns: max,
        generated: None,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_synthesis.json".to_string());
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let auto = resolve_threads(None);
    println!("available parallelism: {available}; default threads: {auto}\n");
    let mut rows = Vec::new();

    // Headline entries at the default degree of parallelism.
    rows.push(time("peres_cold_unidirectional", auto, 10, || {
        let mut e = SynthesisEngine::unit_cost();
        e.synthesize(&known::peres_perm(), 5).expect("cost 4").cost
    }));
    rows.push(time("peres_cold_bidirectional", auto, 10, || {
        let mut e = SynthesisEngine::unit_cost();
        e.synthesize_bidirectional(&known::peres_perm(), 5)
            .expect("cost 4")
            .cost
    }));
    rows.push(time("toffoli_cold_unidirectional", auto, 10, || {
        let mut e = SynthesisEngine::unit_cost();
        e.synthesize(&known::toffoli_perm(), 6)
            .expect("cost 5")
            .cost
    }));
    rows.push(time("toffoli_cold_bidirectional", auto, 10, || {
        let mut e = SynthesisEngine::unit_cost();
        e.synthesize_bidirectional(&known::toffoli_perm(), 6)
            .expect("cost 5")
            .cost
    }));
    rows.push(time_boxed(
        "fredkin_cold_unidirectional",
        auto,
        2,
        10,
        Duration::from_secs(15),
        || {
            let mut e = SynthesisEngine::unit_cost();
            e.synthesize(&known::fredkin_perm(), 7)
                .expect("cost 7")
                .cost
        },
    ));
    rows.push(time("fredkin_cold_bidirectional", auto, 10, || {
        let mut e = SynthesisEngine::unit_cost();
        e.synthesize_bidirectional(&known::fredkin_perm(), 7)
            .expect("cost 7")
            .cost
    }));
    let mut warm = SynthesisEngine::unit_cost();
    warm.expand_to_cost(5);
    // Warm lookups are ~1 µs; a large sample count keeps the mean from
    // being swamped by scheduler noise on loaded runners.
    rows.push(time("toffoli_warm_unidirectional", auto, 2000, || {
        warm.synthesize(&known::toffoli_perm(), 6)
            .expect("cost 5")
            .cost
    }));
    rows.push(time("census_cb5", auto, 5, || {
        let mut e = SynthesisEngine::unit_cost();
        e.expand_to_cost(5);
        e.g_counts().len() as u32
    }));

    // Probed twins: the same cold census and warm lookup with a live
    // `RegistryProbe` feeding an `mvq_obs::Registry`, exactly as `mvq
    // serve` installs it. The probe contract is "a single branch when
    // unset, atomics only when set"; the overhead is printed below, and
    // the gate checks that a probe leaves the work counts unchanged.
    let obs_registry = mvq_obs::Registry::new();
    let probe = mvq_core::ProbeHandle::new(Arc::new(mvq_obs::RegistryProbe::new(
        obs_registry.probe_metrics(),
    )));
    let census_probe = probe.clone();
    rows.push(time("census_cb5_probed", auto, 5, move || {
        let mut e = SynthesisEngine::unit_cost();
        e.set_probe(census_probe.clone());
        e.expand_to_cost(5);
        e.g_counts().len() as u32
    }));
    let mut warm_probed = SynthesisEngine::unit_cost();
    warm_probed.set_probe(probe.clone());
    warm_probed.expand_to_cost(5);
    rows.push(time("toffoli_warm_probed", auto, 2000, move || {
        warm_probed
            .synthesize(&known::toffoli_perm(), 6)
            .expect("cost 5")
            .cost
    }));

    // Snapshot-warm rows: build the level-cache snapshot once, then each
    // sample pays load + query only — the cold→warm win of persistent
    // level-cache serialization, measurable even on a 1-core runner
    // (compare against `census_cb5` / `toffoli_cold_unidirectional`).
    let snap_path =
        std::env::temp_dir().join(format!("mvq_quick_bench_{}.snap", std::process::id()));
    {
        let mut e = SynthesisEngine::unit_cost();
        e.expand_to_cost(5);
        e.save_snapshot(&snap_path).expect("write snapshot");
    }
    rows.push(time("census_snapshot_warm", auto, 10, || {
        let e = SynthesisEngine::load_snapshot_with_threads(&snap_path, auto).expect("load");
        e.g_counts().len() as u32
    }));
    rows.push(time("toffoli_snapshot_warm", auto, 10, || {
        let mut e = SynthesisEngine::load_snapshot_with_threads(&snap_path, auto).expect("load");
        e.synthesize(&known::toffoli_perm(), 6)
            .expect("cost 5")
            .cost
    }));
    std::fs::remove_file(&snap_path).ok();

    // 4-wire rows (wide width: 256-pattern words, u128 traces). The
    // 3-wire rows above double as the before/after guard for the
    // widening refactor: the narrow width keeps the [u8; 64]/u64 hot
    // representations (only the word length field widened to u16), so
    // `census_cb5` must track its committed baseline.
    rows.push(time("census_w4_cb3", auto, 5, || {
        let mut e = WideSynthesisEngine::new(GateLibrary::standard(4), CostModel::unit());
        e.expand_to_cost(3);
        e.g_counts().len() as u32
    }));
    rows.push(time("cnot_w4_cold_unidirectional", auto, 10, || {
        let target = known::parse_target_on("(9,10)(11,12)(13,14)(15,16)", 16).expect("valid");
        let mut e = WideSynthesisEngine::new(GateLibrary::standard(4), CostModel::unit());
        e.synthesize(&target, 2).expect("cost 1").cost
    }));
    let w4_snap_path =
        std::env::temp_dir().join(format!("mvq_quick_bench_w4_{}.snap", std::process::id()));
    {
        let mut e = WideSynthesisEngine::new(GateLibrary::standard(4), CostModel::unit());
        e.expand_to_cost(3);
        e.save_snapshot(&w4_snap_path).expect("write w4 snapshot");
    }
    rows.push(time("census_w4_snapshot_warm", auto, 5, || {
        let e = WideSynthesisEngine::load_snapshot_with_threads(&w4_snap_path, auto).expect("load");
        e.g_counts().len() as u32
    }));
    std::fs::remove_file(&w4_snap_path).ok();

    // Pinned-serial counterparts: the parallel-vs-serial comparison for
    // the expansion-dominated workloads.
    rows.push(time("census_cb5_serial", 1, 5, || {
        let mut e = SynthesisEngine::unit_cost_with_threads(1);
        e.expand_to_cost(5);
        e.g_counts().len() as u32
    }));
    rows.push(time_boxed(
        "fredkin_cold_unidirectional_serial",
        1,
        2,
        10,
        Duration::from_secs(15),
        || {
            let mut e = SynthesisEngine::unit_cost_with_threads(1);
            e.synthesize(&known::fredkin_perm(), 7)
                .expect("cost 7")
                .cost
        },
    ));

    // Full-workspace static analysis: the CI invariants job runs
    // `mvq-lint --workspace` on every push, so its wall time sits on the
    // pipeline's critical path. The untimed warm-up pays the cold parse;
    // timed samples then exercise the content-hash cache plus the
    // call-graph build and the four interprocedural passes, which re-run
    // in full every time. Gated at ≤ 5 s below.
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("bench crate sits two levels below the workspace root");
    rows.push(time("lint_workspace", auto, 3, || {
        let report = mvq_lint::check_workspace(repo_root).expect("lint walk");
        u32::try_from(report.files_scanned).unwrap_or(u32::MAX)
    }));

    let find = |n: &str| rows.iter().find(|r| r.name == n).map(|r| r.mean_ns);
    let speedup = |slow: &str, fast: &str| {
        if let (Some(s), Some(f)) = (find(slow), find(fast)) {
            if f > 0 {
                println!("{slow} / {fast}: {:.2}x", s as f64 / f as f64);
            }
        }
    };
    println!();
    speedup("peres_cold_unidirectional", "peres_cold_bidirectional");
    speedup("toffoli_cold_unidirectional", "toffoli_cold_bidirectional");
    speedup("fredkin_cold_unidirectional", "fredkin_cold_bidirectional");
    speedup("census_cb5_serial", "census_cb5");
    speedup(
        "fredkin_cold_unidirectional_serial",
        "fredkin_cold_unidirectional",
    );
    speedup("census_cb5", "census_snapshot_warm");
    speedup("toffoli_cold_unidirectional", "toffoli_snapshot_warm");
    speedup("census_w4_cb3", "census_w4_snapshot_warm");

    // Probe overhead, for information only: wall-clock ratios on a
    // shared runner swing by tens of percent between same-commit runs,
    // so they are printed, not gated. Best-case (min) samples are the
    // least noise-contaminated numbers either row produced.
    let overhead = |base: &str, probed: &str| {
        if let (Some(b), Some(p)) = (
            rows.iter().find(|r| r.name == base),
            rows.iter().find(|r| r.name == probed),
        ) {
            let pct = 100.0 * (p.min_ns as f64 / b.min_ns.max(1) as f64 - 1.0);
            println!(
                "{probed}: min {} ns vs {base} min {} ns ({pct:+.2}%, informational)",
                p.min_ns, b.min_ns
            );
        }
    };
    overhead("census_cb5", "census_cb5_probed");
    overhead("toffoli_warm_unidirectional", "toffoli_warm_probed");

    // Probe gate: installing a probe must not change the search. The
    // probed and unprobed censuses must agree on every deterministic
    // work count, and the probed one must report exactly the pinned
    // number of generated successors.
    let census_counts = |probe: Option<mvq_core::ProbeHandle>| {
        let mut e = SynthesisEngine::unit_cost();
        if let Some(probe) = probe {
            e.set_probe(probe);
        }
        e.expand_to_cost(5);
        (e.g_counts().to_vec(), e.b_counts().to_vec(), e.a_size())
    };
    let unprobed_counts = census_counts(None);
    let counter = Arc::new(GeneratedCounter::default());
    let probed_counts = census_counts(Some(mvq_core::ProbeHandle::new(counter.clone())));
    let generated = counter.0.load(Ordering::Relaxed);
    if let Some(row) = rows.iter_mut().find(|r| r.name == "census_cb5_probed") {
        row.generated = Some(generated);
    }
    println!("census_cb5_probed: {generated} successors generated (gate: {CENSUS_CB5_GENERATED})");
    let probe_gate_failure = if probed_counts != unprobed_counts {
        Some(format!(
            "probed census (g, b, |A|) = {probed_counts:?} differs from unprobed {unprobed_counts:?}"
        ))
    } else if generated != CENSUS_CB5_GENERATED {
        Some(format!(
            "probed census generated {generated} successors, expected {CENSUS_CB5_GENERATED}"
        ))
    } else {
        None
    };

    // Lint wall-time gate: the workspace-wide static analysis must stay
    // cheap enough to run on every push.
    const LINT_BUDGET_NS: u128 = 5_000_000_000;
    let mut lint_gate_failure: Option<String> = None;
    match rows.iter().find(|r| r.name == "lint_workspace") {
        Some(lint) if lint.mean_ns > LINT_BUDGET_NS => {
            lint_gate_failure = Some(format!(
                "lint_workspace mean {} ns exceeds the {LINT_BUDGET_NS} ns budget",
                lint.mean_ns
            ));
        }
        Some(_) => {}
        None => lint_gate_failure = Some("lint_workspace row missing".to_string()),
    }

    let generated_unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"generated_unix\": {generated_unix},\n"));
    json.push_str(&format!("  \"available_parallelism\": {available},\n"));
    json.push_str(&format!("  \"default_threads\": {auto},\n"));
    json.push_str("  \"benches\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let work = row
            .generated
            .map(|g| format!(", \"generated\": {g}"))
            .unwrap_or_default();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"samples\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}{work}}}{}\n",
            row.name,
            row.threads,
            row.samples,
            row.mean_ns,
            row.min_ns,
            row.max_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write perf snapshot");
    println!("\nwrote {out_path}");
    assert!(
        probe_gate_failure.is_none(),
        "probe gate: {}",
        probe_gate_failure.unwrap_or_default()
    );
    assert!(
        lint_gate_failure.is_none(),
        "lint wall-time gate: {}",
        lint_gate_failure.unwrap_or_default()
    );
}
