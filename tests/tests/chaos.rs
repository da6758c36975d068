//! Chaos suite: failpoint-driven fault drills against the real server
//! and the snapshot codec (build with `--features fault-injection`).
//!
//! Each test arms an explicit, deterministic plan (`site=action@n` —
//! no ambient randomness), injects the fault, and asserts the
//! robustness contract: the server keeps answering (every request gets
//! a 200 or a 503 + `Retry-After`, never a hang), poisoned hosts
//! rebuild themselves, torn snapshots fall back to the `.bak`, and the
//! post-fault results are bit-identical to an uninjected run. Every
//! found `/synthesize` answer is also re-verified against physics by
//! the shared harness (`mvq_tests::request`).
//!
//! The failpoint registry is process-global, so the tests serialize on
//! a static mutex and disarm through a drop guard (panic-safe).

#![cfg(feature = "fault-injection")]

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use mvq_core::{SnapshotSource, SynthesisEngine};
use mvq_serve::{HostConfig, HostRegistry};
use mvq_tests::{request, RunningServer, SharedSink};

static GATE: Mutex<()> = Mutex::new(());

/// Serializes the tests in this binary: the fault registry is one per
/// process. (A panicking test poisons the gate; later tests proceed.)
fn serial() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms a plan for the lifetime of the guard; disarms on drop even if
/// the test panics, so no plan leaks into the next test.
struct Armed;

impl Armed {
    fn plan(plan: &str) -> Self {
        mvq_fault::disarm_all();
        mvq_fault::arm(plan).expect("valid fault plan");
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        mvq_fault::disarm_all();
    }
}

/// Extracts the first `"key":<u64>` value from a JSON body.
fn json_u64(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    body[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("digits after key")
}

/// A panic injected under the engine write lock is contained to that
/// one request (a 503, not a dead worker or a dropped connection), and
/// the poisoned host rebuilds itself for the next request.
#[test]
fn worker_panic_is_contained_and_the_host_heals() {
    let _serial = serial();
    let _armed = Armed::plan("serve.write=panic@1");
    let server = RunningServer::start(HostRegistry::new(HostConfig::default()), 2);

    // The very first expansion panics: this request gets a 503 with a
    // Retry-After hint, not a hung or reset connection.
    let (status, head, response) = server.request(
        "POST",
        "/synthesize",
        r#"{"target":"(7,8)","cb":5,"strategy":"uni"}"#,
    );
    assert_eq!(status, 503, "{response}");
    assert!(head.contains("Retry-After: 1"), "{head}");

    // The server is still alive…
    let (status, _, _) = server.request("GET", "/healthz", "");
    assert_eq!(status, 200);

    // …and the retried request heals the poisoned host and gets the
    // known Toffoli answer (cost 5, 4 minimal implementations).
    let (status, _, response) = server.request(
        "POST",
        "/synthesize",
        r#"{"target":"(7,8)","cb":5,"strategy":"uni"}"#,
    );
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"cost\":5"), "{response}");
    assert!(
        response.contains("\"implementation_count\":4"),
        "{response}"
    );

    let (status, _, stats) = server.request("GET", "/stats", "");
    assert_eq!(status, 200, "{stats}");
    assert_eq!(json_u64(&stats, "rebuilds"), 1, "{stats}");

    server.shutdown();
}

/// A host warm-started from a snapshot heals from the buffer it was
/// loaded from: the rebuild reads it in place and leaves the frontier
/// deferred, so the climb after the heal runs the lazy merge — and the
/// answers up to cost 6 still equal a never-faulted serial engine's.
#[test]
fn snapshot_host_heals_from_its_image_and_climbs_exactly() {
    let _serial = serial();
    let mut warm = SynthesisEngine::unit_cost();
    warm.expand_to_cost(3);
    let bytes = warm.snapshot_to_bytes().expect("standard library");
    let registry = HostRegistry::new(HostConfig::default());
    let loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes).expect("load snapshot");
    registry.install(loaded).expect("install");
    let _armed = Armed::plan("serve.write=panic@1");
    let server = RunningServer::start(registry, 2);

    // The first climb panics under the write lock; the retry heals.
    let peres = r#"{"target":"(5,7,6,8)","cb":6,"strategy":"uni"}"#;
    let (status, _, response) = server.request("POST", "/synthesize", peres);
    assert_eq!(status, 503, "{response}");
    let (status, _, response) = server.request("POST", "/synthesize", peres);
    assert_eq!(status, 200, "{response}");

    let mut reference = SynthesisEngine::unit_cost();
    for target in [
        "(5,7,6,8)",
        "(7,8)",
        "(5,6,8,7)",
        "(5,7)(6,8)",
        "(2,4,3)(5,6)",
    ] {
        let parsed = mvq_core::known::parse_target_on(target, 8).expect("valid target");
        let want = reference.synthesize(&parsed, 6).expect("within cost 6");
        let body = format!(r#"{{"target":"{target}","cb":6,"strategy":"uni"}}"#);
        let (status, _, response) = server.request("POST", "/synthesize", &body);
        assert_eq!(status, 200, "{response}");
        for field in [
            format!("\"cost\":{}", want.cost),
            format!("\"implementation_count\":{}", want.implementation_count),
            format!("\"circuit\":\"{}\"", want.circuit),
        ] {
            assert!(response.contains(&field), "{target}: {field} in {response}");
        }
    }
    let (status, _, stats) = server.request("GET", "/stats", "");
    assert_eq!(status, 200, "{stats}");
    assert_eq!(json_u64(&stats, "rebuilds"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "completed"), 6, "{stats}");

    server.shutdown();
}

/// Truncating the primary snapshot at *every* section boundary (and a
/// few mid-section points) falls back to the `.bak` — never a crash,
/// never a half-loaded engine.
#[test]
fn torn_primary_falls_back_to_backup_at_every_boundary() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("mvq_chaos_torn_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("levels.snap");

    // Two saves: the second rotates the first (depth 2) to `.bak`.
    let mut engine = SynthesisEngine::unit_cost();
    engine.expand_to_cost(2);
    engine.save_snapshot(&path).expect("first save");
    engine.expand_to_cost(3);
    engine.save_snapshot(&path).expect("second save");
    let healthy = std::fs::read(&path).expect("read snapshot");
    assert!(mvq_core::snapshot_backup_path(&path).exists());

    // Section boundaries of the v2 layout: magic(8) + version(4) +
    // header_len(4) + header + checksum(8) + body.
    let header_len =
        u32::from_le_bytes(healthy[12..16].try_into().expect("header_len bytes")) as usize;
    let body_start = 16 + header_len + 8;
    let mut cuts = vec![
        0,
        4,
        8,
        12,
        16,
        16 + header_len / 2,
        16 + header_len,
        body_start,
        body_start + (healthy.len() - body_start) / 2,
        healthy.len() - 1,
    ];
    cuts.dedup();
    for cut in cuts {
        assert!(cut < healthy.len(), "cut {cut} is not a truncation");
        std::fs::write(&path, &healthy[..cut]).expect("tear primary");
        let (loaded, source) = SynthesisEngine::load_snapshot_resilient(&path)
            .unwrap_or_else(|err| panic!("truncation at {cut} did not fall back: {err}"));
        assert!(
            matches!(source, SnapshotSource::Backup { .. }),
            "cut {cut} should load the backup"
        );
        assert_eq!(
            loaded.completed_cost(),
            Some(2),
            "backup depth at cut {cut}"
        );
    }

    // With the backup gone too, the corruption surfaces as an error —
    // callers (the CLI, the server) degrade to a cold start.
    std::fs::write(&path, &healthy[..8]).expect("tear primary");
    std::fs::remove_file(mvq_core::snapshot_backup_path(&path)).expect("drop backup");
    let err = SynthesisEngine::load_snapshot_resilient(&path).expect_err("both torn");
    assert!(err.is_corruption(), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

/// An injected rename failure mid-save leaves the previous snapshot
/// untouched and loadable, and litters no temp files.
#[test]
fn snapshot_rename_fault_leaves_the_last_good_file_intact() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("mvq_chaos_rename_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("levels.snap");

    let mut engine = SynthesisEngine::unit_cost();
    engine.expand_to_cost(2);
    engine.save_snapshot(&path).expect("seed save");
    let before = std::fs::read(&path).expect("read seed");

    let _armed = Armed::plan("snapshot.rename=err@1");
    engine.expand_to_cost(3);
    let err = engine
        .save_snapshot(&path)
        .expect_err("injected rename failure");
    assert!(err.to_string().contains("snapshot.rename"), "{err}");

    // The published file is byte-identical to the last good save…
    assert_eq!(std::fs::read(&path).expect("reread"), before);
    assert_eq!(
        SynthesisEngine::load_snapshot(&path)
            .expect("still loads")
            .completed_cost(),
        Some(2)
    );
    // …and the failed attempt cleaned up its temp file.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("list dir")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().to_string())
        .filter(|name| name.contains(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp litter: {leftovers:?}");

    // The retry (the ordinal fired once) publishes the deeper save.
    engine.save_snapshot(&path).expect("retry save");
    assert_eq!(
        SynthesisEngine::load_snapshot(&path)
            .expect("loads")
            .completed_cost(),
        Some(3)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance drill: with a snapshot rename failure, one worker
/// panic, and one delayed expansion armed, eight concurrent clients
/// hammer the server. Every request is answered 200 or 503 (never a
/// hang, never a dropped connection), at least one host rebuild
/// happens, and once the faults are disarmed the answers are
/// bit-identical to an engine that never saw a fault.
#[test]
fn chaos_sweep_server_keeps_answering_and_recovers_exactly() {
    let _serial = serial();
    let _armed = Armed::plan("snapshot.rename=err@1;serve.write=panic@2;expand.level=delay(25)@4");

    let targets = ["(7,8)", "(5,7,6,8)", "(5,7)(6,8)", "(2,4,3)(5,6)"];
    let server = RunningServer::start(
        HostRegistry::new(HostConfig {
            max_deadline_ms: 2_500,
            ..HostConfig::default()
        }),
        4,
    );

    // The armed rename fault fires on the drill's snapshot save — the
    // durability path degrades loudly instead of publishing torn bytes.
    let dir = std::env::temp_dir().join(format!("mvq_chaos_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("mid-drill.snap");
    let mut saver = SynthesisEngine::unit_cost();
    saver.expand_to_cost(1);
    assert!(saver.save_snapshot(&snap).is_err(), "rename fault fires");
    assert!(!snap.exists(), "no torn file published");

    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|client| {
                let addr = server.addr();
                let targets = &targets;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for round in 0..4 {
                        let target = targets[(client + round) % targets.len()];
                        let body = format!(
                            r#"{{"target":"{target}","cb":6,"strategy":"uni","deadline_ms":2000}}"#
                        );
                        let (status, _, _) = request(addr, "POST", "/synthesize", &body);
                        seen.push(status);
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(statuses.len(), 32, "no client was stranded");
    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 503),
        "only 200s and 503s under chaos, got {statuses:?}"
    );

    // The injected panic forced at least one self-rebuild.
    let (status, _, stats) = server.request("GET", "/stats", "");
    assert_eq!(status, 200, "{stats}");
    assert!(json_u64(&stats, "rebuilds") >= 1, "{stats}");

    // Faults off: every answer matches a never-injected engine exactly.
    mvq_fault::disarm_all();
    let mut reference = SynthesisEngine::unit_cost();
    for target in targets {
        let parsed = mvq_core::known::parse_target_on(target, 8).expect("valid target");
        let want = reference.synthesize(&parsed, 6);
        let body = format!(r#"{{"target":"{target}","cb":6,"strategy":"uni"}}"#);
        let (status, _, response) = server.request("POST", "/synthesize", &body);
        assert_eq!(status, 200, "{response}");
        match want {
            None => assert!(response.contains("\"found\":false"), "{response}"),
            Some(syn) => {
                assert!(
                    response.contains(&format!("\"cost\":{}", syn.cost)),
                    "{response}"
                );
                assert!(
                    response.contains(&format!(
                        "\"implementation_count\":{}",
                        syn.implementation_count
                    )),
                    "{response}"
                );
                assert!(
                    response.contains(&format!("\"circuit\":\"{}\"", syn.circuit)),
                    "{response}"
                );
            }
        }
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A request with a tiny `deadline_ms` that lands behind a slow
/// expansion sheds with 503 + `Retry-After` instead of pinning a
/// worker; the slow request itself still completes.
#[test]
fn deadline_waiters_shed_with_503_and_retry_after() {
    let _serial = serial();
    let _armed = Armed::plan("expand.level=delay(400)@1");
    let server = RunningServer::start(HostRegistry::new(HostConfig::default()), 2);

    std::thread::scope(|scope| {
        let slow = scope.spawn(|| {
            // Becomes the expander; its first level is delayed 400 ms.
            server.request("POST", "/census", r#"{"cb":5}"#)
        });
        std::thread::sleep(Duration::from_millis(100));
        let (status, head, response) = server.request(
            "POST",
            "/synthesize",
            r#"{"target":"(7,8)","cb":5,"strategy":"uni","deadline_ms":1}"#,
        );
        assert_eq!(status, 503, "{response}");
        assert!(head.contains("Retry-After: 1"), "{head}");
        assert!(response.contains("deadline"), "{response}");

        let (status, _, response) = slow.join().expect("slow client");
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"g_counts\""), "{response}");
    });

    let (status, _, stats) = server.request("GET", "/stats", "");
    assert_eq!(status, 200, "{stats}");
    assert!(json_u64(&stats, "deadline_timeouts") >= 1, "{stats}");

    server.shutdown();
}

/// A fault-injected request is still exactly one trace line — never
/// lost, never duplicated — and the line carries the failure outcome,
/// so faulted traffic is attributable from the log alone.
#[test]
fn faulted_request_emits_exactly_one_failure_trace_line() {
    let _serial = serial();
    let _armed = Armed::plan("serve.write=panic@1");

    let sink = SharedSink::default();
    let server = RunningServer::start(HostRegistry::new(HostConfig::default()), 2);
    server.obs().trace().set_sink(Box::new(sink.clone()));
    server.obs().trace().set_level(mvq_obs::LogLevel::Info);

    // The first expansion panics under the engine write lock.
    let (status, _, response) = server.request(
        "POST",
        "/synthesize",
        r#"{"target":"(7,8)","cb":5,"strategy":"uni"}"#,
    );
    assert_eq!(status, 503, "{response}");
    server.shutdown();

    let lines = sink.lines();
    assert_eq!(lines.len(), 1, "exactly one trace line: {lines:#?}");
    let line = &lines[0];
    assert!(line.contains(r#""outcome":"error""#), "{line}");
    assert!(line.contains(r#""status":503"#), "{line}");
    assert!(line.contains(r#""path":"/synthesize""#), "{line}");
    assert!(line.contains(r#""target":"(7,8)""#), "{line}");
}
