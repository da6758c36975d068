//! The traced pass: per-layer metrics, measured by timing the
//! benchmark's own calls into each layer's public functions and by the
//! benchmark's engine probe.
//!
//! The pass is one fixed suite, whichever workload is named: every
//! layer gets its measurements, seeded by `--seed`, and every call is
//! recorded as a span. The spans are written to
//! `out/spans-<workload>.json` when the pass ends (one file per
//! workload, overwritten by its next traced run).

use std::collections::BTreeMap;
use std::io::{self, BufReader, Cursor};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvq_core::{CachedBidirectional, Narrow, ProbeHandle, SynthesisEngine, Wide, EXPECTED_TABLE_2};
use mvq_logic::GateLibrary;
use mvq_serve::{read_request, write_response, HostRegistry, ServeStrategy};

use crate::census::{self, Width, W3, W4};
use crate::metrics::Outcome;
use crate::oracle::{Model, Oracle, WEIGHTED_CB};
use crate::rng::Rng;
use crate::serve::{self, Running};
use crate::spans::{BenchProbe, Tracer};
use crate::stats::Samples;
use crate::traffic::{Catalogue, ColdTraffic, Expect, Kind, WarmTraffic};

/// Untraced/traced 3-wire census pairs (their order alternates).
const CENSUS_PAIRS: usize = 2;
/// Repetitions of the cheap direct calls.
const REPS: usize = 20;
/// Length of the traced warm mix and of the traced cold cycles.
const HTTP_SECONDS: f64 = 2.0;

struct Pass<'a> {
    tracer: &'a Tracer,
    probe: Arc<BenchProbe>,
    seed: u64,
    threads: usize,
    clients: usize,
    out: Outcome,
}

impl Pass<'_> {
    fn handle(&self) -> ProbeHandle {
        ProbeHandle::new(self.probe.clone())
    }

    fn fail(&mut self, why: String) {
        self.out.failed += 1;
        self.out.note(format!("FAILED {why}"));
    }

    fn ms(&mut self, name: &str, samples: &mut Samples) {
        self.out.set(name, samples.median() * 1e3);
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `threads` census engine threads and `clients` connections, as in the
/// untraced workloads.
pub fn suite(
    workload: &str,
    seed: u64,
    threads: usize,
    clients: usize,
    dir: &Path,
) -> io::Result<Outcome> {
    let tracer = Tracer::default();
    let mut pass = Pass {
        tracer: &tracer,
        probe: Arc::new(BenchProbe::default()),
        seed,
        threads,
        clients,
        out: Outcome::default(),
    };
    logic(&mut pass);
    census_w3(&mut pass);
    census_w4(&mut pass);
    weighted(&mut pass);

    // The serving layers run with the serving workloads' engine threads.
    pass.threads = serve::serve_threads(threads);
    let oracle = Oracle::prepare(dir)?;
    let warm = WarmTraffic::generate(&oracle, seed);
    let snapshot = crate::oracle::warm_snapshot(dir);
    let bytes = std::fs::read(&snapshot)?;
    snapshot_layer(&mut pass, &bytes)?;
    mitm(&mut pass, &bytes, &warm)?;
    let host_hit_p50 = host(&mut pass, &bytes, &warm)?;
    let bodies = server(&mut pass, &snapshot, &warm, &oracle, seed, host_hit_p50)?;
    http(&mut pass, &warm.catalogue, &bodies);

    let spans = dir.join(format!("spans-{workload}.json"));
    tracer.write_json(&spans)?;
    pass.out.note(format!(
        "{} spans written to {}",
        tracer.len(),
        spans.display()
    ));
    pass.out.note(format!(
        "threads={threads} (census) {} (serving) clients={clients} workers={clients}",
        pass.threads
    ));
    Ok(pass.out)
}

fn logic(pass: &mut Pass) {
    for (label, wires) in [("w3", 3), ("w4", 4)] {
        let mut samples = Samples::new();
        for _ in 0..REPS {
            let (_, took) = pass
                .tracer
                .time("logic.GateLibrary::standard", None, None, |_| {
                    std::hint::black_box(GateLibrary::standard(std::hint::black_box(wires)))
                });
            samples.push(secs(took) * 1e6);
        }
        pass.out
            .set(&format!("logic.{label}.library_us"), samples.median());
    }
}

/// Level times, throughput and exact counts of one traced census.
fn record_census(pass: &mut Pass, width: Width, runs: &[census::CensusRun], levels: &[u32]) {
    let label = width.label;
    let mut times = Samples::new();
    for run in runs {
        times.push(secs(run.elapsed));
        if let Err(why) = census::check(width, run) {
            pass.fail(why);
        }
    }
    for &cost in levels {
        let mut level = Samples::new();
        for run in runs {
            level.push(secs(run.levels[cost as usize]));
        }
        pass.ms(&format!("engine.{label}.level{cost}_ms"), &mut level);
    }
    let last = runs.last().expect("a traced census ran");
    pass.out.set(
        &format!("engine.{label}.words_per_s"),
        last.a_size() as f64 / times.median(),
    );
    pass.out.set(
        &format!("engine.{label}.words_admitted"),
        last.a_size() as f64,
    );
    pass.out
        .set(&format!("engine.{label}.classes"), last.classes as f64);
}

/// A census with the probe installed and a span per level.
fn traced_census<W: mvq_core::SearchWidth>(
    pass: &mut Pass,
    width: Width,
    threads: usize,
) -> (census::CensusRun, crate::spans::ProbeLog) {
    let mut engine = census::build::<W>(width.wires, threads);
    engine.set_probe(pass.handle());
    let (run, _) = pass
        .tracer
        .time(&format!("census.{}", width.label), None, None, |id| {
            census::run_with(&mut engine, width.cb, Some((pass.tracer, id)))
        });
    (run, pass.probe.take())
}

fn census_w3(pass: &mut Pass) {
    let mut untraced = Samples::new();
    let mut traced = Vec::new();
    let mut logs = Vec::new();
    for pair in 0..CENSUS_PAIRS {
        for traced_first in [pair % 2 == 1, pair % 2 == 0] {
            if traced_first {
                let (run, log) = traced_census::<Narrow>(pass, W3, pass.threads);
                traced.push(run);
                logs.push(log);
            } else {
                let mut engine = census::build::<Narrow>(3, pass.threads);
                let run = census::run(&mut engine, W3.cb);
                let mut rng = Rng::fork(pass.seed, 200 + pair as u64);
                let verdict = census::check(W3, &run)
                    .and_then(|()| census::spot_check(&mut engine, W3.cb, &mut rng));
                if let Err(why) = verdict {
                    pass.fail(why);
                }
                untraced.push(secs(run.elapsed));
            }
        }
    }
    pass.out.attempted += (2 * CENSUS_PAIRS) as u64;
    record_census(pass, W3, &traced, &[5, 6, 7]);
    let mut traced_times = Samples::new();
    for run in &traced {
        traced_times.push(secs(run.elapsed));
    }
    let log = logs.last().expect("a traced census ran");
    pass.out
        .set("engine.w3.frontier_peak", log.frontier_peak() as f64);
    pass.out
        .set("par.w3.shard_imbalance_pct", log.imbalance_pct);
    pass.out
        .set("par.w3.sharded_buckets", log.sharded_buckets as f64);
    let base = untraced.median();
    pass.out.set(
        "obs.trace_overhead_pct",
        (traced_times.median() - base) / base * 100.0,
    );

    // `par`: the traced censuses above, on every core, against one on a
    // single thread.
    let mut serial = census::build::<Narrow>(3, 1);
    let (run, _) = pass.tracer.time("census.w3.serial", None, None, |id| {
        census::run_with(&mut serial, W3.cb, Some((pass.tracer, id)))
    });
    pass.out.attempted += 1;
    if let Err(why) = census::check(W3, &run) {
        pass.fail(why);
    }
    pass.out
        .set("par.w3.speedup", secs(run.elapsed) / traced_times.median());
    pass.out.note(format!(
        "census_w3_s untraced {:.4} traced {:.4} (n={}, {}, {} threads); 1 thread {:.4}",
        base,
        traced_times.median(),
        untraced.len(),
        traced_times.len(),
        pass.threads,
        secs(run.elapsed),
    ));
}

fn census_w4(pass: &mut Pass) {
    let (run, log) = traced_census::<Wide>(pass, W4, pass.threads);
    pass.out.attempted += 1;
    pass.out
        .note(format!("census_w4_s traced {:.4} (n=1)", secs(run.elapsed)));
    record_census(pass, W4, &[run], &[3, 4]);
    pass.out
        .set("engine.w4.frontier_peak", log.frontier_peak() as f64);
}

/// Share of the weighted search's frontier pushes that re-admitted an
/// already-queued word at a cheaper cost; each leaves a stale copy the
/// search drops when its bucket comes up.
fn weighted(pass: &mut Pass) {
    let mut engine = SynthesisEngine::with_threads(
        GateLibrary::standard(3),
        Model::Weighted.cost_model(),
        pass.threads,
    );
    engine.set_probe(pass.handle());
    pass.tracer.time("census.weighted", None, None, |_| {
        engine.expand_to_cost(WEIGHTED_CB)
    });
    let pushes = pass.probe.take().nodes() as f64;
    let distinct = (engine.a_size() - 1) as f64;
    pass.out
        .set("engine.weighted.stale_frac", 1.0 - distinct / pushes);
}

fn snapshot_layer(pass: &mut Pass, bytes: &[u8]) -> io::Result<()> {
    let (mut load, mut core, mut frontier) = (Samples::new(), Samples::new(), Samples::new());
    for _ in 0..REPS / 4 {
        let (engine, took) = pass.tracer.time("snapshot.load", None, None, |_| {
            SynthesisEngine::load_snapshot_from_bytes_with_probe(bytes, pass.threads, pass.handle())
        });
        engine.map_err(|err| io::Error::other(err.to_string()))?;
        load.push(secs(took));
        let log = pass.probe.take();
        core.push(log.section("core_load").map_or(f64::NAN, secs) * 1e6);
        frontier.push(log.section("frontier_load").map_or(f64::NAN, secs) * 1e6);
    }
    pass.ms("snapshot.load_ms", &mut load);
    pass.out.set("snapshot.core_load_us", core.median());
    pass.out.set("snapshot.frontier_load_us", frontier.median());
    pass.out.set("snapshot.bytes", bytes.len() as f64);
    Ok(())
}

fn load(pass: &Pass, bytes: &[u8]) -> io::Result<SynthesisEngine> {
    SynthesisEngine::load_snapshot_from_bytes_with_probe(bytes, pass.threads, pass.handle())
        .map_err(|err| io::Error::other(err.to_string()))
}

/// Checks a synthesis against the shape's oracle target.
fn check_synthesis(
    catalogue: &Catalogue,
    shape: usize,
    synthesis: Option<&mvq_core::Synthesis>,
    verify_circuit: bool,
) -> Result<(), String> {
    let Expect::Synth(t) = catalogue.shapes[shape].expect else {
        return Err("not a synthesis shape".into());
    };
    let target = &catalogue.targets[t];
    let s = synthesis.ok_or_else(|| format!("{}: not found", catalogue.shapes[shape].label))?;
    if (s.cost, s.implementation_count) != (target.cost, target.implementations) {
        return Err(format!(
            "{}: {} / {} implementations, oracle {} / {}",
            catalogue.shapes[shape].label,
            s.cost,
            s.implementation_count,
            target.cost,
            target.implementations
        ));
    }
    if verify_circuit && !s.circuit.verify_against_binary_perm(&target.perm) {
        return Err(format!(
            "{}: circuit {} is wrong",
            catalogue.shapes[shape].label, s.circuit
        ));
    }
    Ok(())
}

fn target_of(catalogue: &Catalogue, shape: usize) -> &mvq_perm::Perm {
    match catalogue.shapes[shape].expect {
        Expect::Synth(t) => &catalogue.targets[t].perm,
        _ => unreachable!("synthesis shapes only"),
    }
}

fn mitm(pass: &mut Pass, bytes: &[u8], warm: &WarmTraffic) -> io::Result<()> {
    let mut prepare = Samples::new();
    let mut prepared = None;
    for _ in 0..3 {
        let mut engine = load(pass, bytes)?;
        let (_, took) = pass
            .tracer
            .time("mitm.prepare_bidirectional", None, None, |_| {
                engine.prepare_bidirectional(7)
            });
        prepare.push(secs(took));
        prepared = Some(engine);
    }
    let engine = prepared.expect("prepared three times");
    pass.probe.take();
    pass.ms("mitm.prepare_ms", &mut prepare);
    let mut deep = Samples::new();
    for round in 0..REPS {
        for &shape in warm.shapes_of(Kind::Deep) {
            let target = target_of(&warm.catalogue, shape);
            let (answer, took) =
                pass.tracer
                    .time("mitm.synthesize_bidirectional_cached", None, None, |_| {
                        engine.synthesize_bidirectional_cached(target, 7)
                    });
            deep.push(secs(took) * 1e6);
            pass.out.attempted += 1;
            let verdict = match &answer {
                CachedBidirectional::Resolved(s) => {
                    check_synthesis(&warm.catalogue, shape, s.as_ref(), round == 0)
                }
                CachedBidirectional::NeedsPreparation => Err("needs preparation".into()),
            };
            if let Err(why) = verdict {
                pass.fail(why);
            }
        }
    }
    let splits = pass.probe.take().splits;
    let backward: u32 = splits.iter().map(|s| s.1).sum();
    pass.out.set("mitm.deep_p50_us", deep.median());
    pass.out.set("mitm.deep_p99_us", deep.percentile(0.99));
    pass.out.set(
        "mitm.backward_cb",
        f64::from(backward) / splits.len().max(1) as f64,
    );
    Ok(())
}

/// Direct calls into the warm host; returns `host.hit_p50_us`.
fn host(pass: &mut Pass, bytes: &[u8], warm: &WarmTraffic) -> io::Result<f64> {
    let registry = HostRegistry::new(serve::host_config(pass.threads));
    let host = registry
        .install(load(pass, bytes)?)
        .map_err(|err| io::Error::other(err.to_string()))?;
    let catalogue = &warm.catalogue;
    let mut latency: BTreeMap<Kind, Samples> = BTreeMap::new();
    let mut request = 0u64;
    for round in 0..=REPS {
        for kind in [Kind::Hit, Kind::Deep, Kind::Census] {
            for &shape in warm.shapes_of(kind) {
                let s = &catalogue.shapes[shape];
                request += 1;
                let verdict;
                let took;
                if kind == Kind::Census {
                    let (reply, t) =
                        pass.tracer
                            .time("host.census_traced", None, Some(request), |_| {
                                host.census_traced(s.cb)
                            });
                    took = t;
                    verdict = match reply {
                        Ok((reply, _))
                            if reply.g_counts[..] == EXPECTED_TABLE_2[..=s.cb as usize] =>
                        {
                            Ok(())
                        }
                        other => Err(format!("{}: {other:?}", s.label)),
                    };
                } else {
                    let strategy: ServeStrategy = s.strategy.parse().map_err(io::Error::other)?;
                    let target = target_of(catalogue, shape);
                    let (reply, t) =
                        pass.tracer
                            .time("host.synthesize_traced", None, Some(request), |_| {
                                host.synthesize_traced(target, s.cb, strategy, None)
                            });
                    took = t;
                    verdict = match reply {
                        Ok((synthesis, _)) => {
                            check_synthesis(catalogue, shape, synthesis.as_ref(), round == 1)
                        }
                        Err(err) => Err(format!("{}: {err}", s.label)),
                    };
                }
                // Round 0 builds the lazily prepared state; it is not timed.
                if round > 0 {
                    latency.entry(kind).or_default().push(secs(took) * 1e6);
                    pass.out.attempted += 1;
                    if let Err(why) = verdict {
                        pass.fail(why);
                    }
                }
            }
        }
    }
    pass.probe.take();
    let mut p50 = |kind: Kind| latency.get_mut(&kind).map_or(f64::NAN, Samples::median);
    let hit = p50(Kind::Hit);
    pass.out.set("host.hit_p50_us", hit);
    pass.out.set("host.deep_p50_us", p50(Kind::Deep));
    pass.out.set("host.census_p50_us", p50(Kind::Census));
    let stats = host
        .stats()
        .map_err(|err| io::Error::other(err.to_string()))?;
    pass.out
        .set("host.warm.expansions", stats.expansions as f64);
    Ok(hit)
}

/// The traced warm mix and cold cycles over HTTP; returns the distinct
/// reply bodies the warm mix produced.
fn server(
    pass: &mut Pass,
    snapshot: &Path,
    warm: &WarmTraffic,
    oracle: &Oracle,
    seed: u64,
    host_hit_p50: f64,
) -> io::Result<Vec<Vec<u8>>> {
    let clients = pass.clients;
    let running = serve::start_warm(snapshot, pass.threads, clients)?;
    serve::warm_up(&running, warm)?;
    let (log, _) = serve::warm_mix(
        &running,
        warm,
        seed,
        clients,
        HTTP_SECONDS,
        Some(pass.tracer),
    )?;
    Running::stop(running)?;
    tally(pass, &log, &warm.catalogue);
    let mut hits = log.latency_us.get(&Kind::Hit).cloned().unwrap_or_default();
    pass.out
        .set("server.overhead_p50_us", hits.median() - host_hit_p50);

    let cold = ColdTraffic::generate(oracle, seed);
    let mut run = serve::cold_cycles(
        &cold,
        seed,
        clients.max(2),
        pass.threads,
        HTTP_SECONDS,
        3,
        Some(pass.tracer),
    )?;
    tally(pass, &run.log, &cold.catalogue);
    let mut scrapes = run.log.latency_us.remove(&Kind::Scrape).unwrap_or_default();
    pass.out.set("server.scrape_p50_us", scrapes.median());
    pass.out.set("server.scrape_max_us", scrapes.max());
    let cycles = run.cycles as f64;
    let sum = |f: fn(&mvq_serve::HostStats) -> u64| run.stats.iter().map(f).sum::<u64>() as f64;
    pass.out.set(
        "host.cold.expansions_per_cycle",
        sum(|s| s.expansions) / cycles,
    );
    pass.out.set(
        "host.cold.single_flight_waits_per_cycle",
        sum(|s| s.single_flight_waits) / cycles,
    );
    let hits = sum(|s| s.cache_hits);
    pass.out.set(
        "host.cold.cache_hit_frac",
        hits / (hits + sum(|s| s.cache_misses)),
    );
    pass.out.note(format!(
        "cold cycles={} scrapes n={} fill_s {:.4}",
        run.cycles,
        scrapes.len(),
        run.fill.median()
    ));
    Ok(log.replies.bodies())
}

fn tally(pass: &mut Pass, log: &serve::ClientLog, catalogue: &Catalogue) {
    let (wrong, notes) = log.replies.verify(catalogue);
    pass.out.attempted += log.ok + log.failed;
    pass.out.failed += log.failed + wrong;
    for note in notes {
        pass.out.note(format!("FAILED {note}"));
    }
}

fn http(pass: &mut Pass, catalogue: &Catalogue, bodies: &[Vec<u8>]) {
    let wire: Vec<u8> = catalogue
        .shapes
        .iter()
        .flat_map(|s| s.request.clone())
        .collect();
    let mut parse = Samples::new();
    for _ in 0..REPS {
        let mut reader = BufReader::new(Cursor::new(&wire));
        let started = Instant::now();
        let mut parsed = 0usize;
        while let Ok(Some(_)) = read_request(&mut reader) {
            parsed += 1;
        }
        parse.push(secs(started.elapsed()) * 1e9 / parsed as f64);
        if parsed != catalogue.shapes.len() {
            pass.fail(format!(
                "parsed {parsed} of {} requests",
                catalogue.shapes.len()
            ));
        }
    }
    pass.out.set("http.parse_ns", parse.median());
    let bodies: Vec<&str> = bodies
        .iter()
        .filter_map(|b| std::str::from_utf8(b).ok())
        .collect();
    let mut write = Samples::new();
    let mut sink = Vec::with_capacity(1 << 16);
    for _ in 0..REPS {
        sink.clear();
        let started = Instant::now();
        for body in &bodies {
            let _ = write_response(&mut sink, 200, body, true);
        }
        write.push(secs(started.elapsed()) * 1e9 / bodies.len().max(1) as f64);
    }
    pass.out.set("http.write_ns", write.median());
}
