//! The lint gate, exercised in-process: the committed tree must be
//! clean under all seven rules within a 5 s budget, and — mutation-style
//! — seeding a rank-inverted lock acquisition into a copy of the real
//! `host.rs` must trip the interprocedural lock-order pass with the
//! correct multi-frame call chain. The second half proves the pass
//! actually *watches* the code the first half declares clean.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mvq_lint::{check_workspace, Rule};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate sits inside the workspace")
        .to_path_buf()
}

/// Wall-time budget for one cold workspace lint: CI runs it on every
/// push, so it must stay cheap.
const LINT_BUDGET: Duration = Duration::from_secs(5);

#[test]
fn committed_tree_is_lint_clean() {
    let start = Instant::now();
    let report = check_workspace(&repo_root()).expect("lint walk");
    let elapsed = start.elapsed();
    assert!(
        report.clean(),
        "the committed tree must pass all {} rules, got: {:#?}",
        mvq_lint::ALL_RULES.len(),
        report.violations
    );
    assert!(report.files_scanned > 100, "walk looks truncated");
    assert!(
        elapsed < LINT_BUDGET,
        "workspace lint took {elapsed:?}, over the {LINT_BUDGET:?} budget"
    );
}

/// Copies the real serve lock code into `root`, optionally appending
/// `extra` to `host.rs`. A minimal `SearchEngine` stub stands in for
/// `crates/core` so that method calls through engine guards resolve to
/// their real (lock-free) receiver type instead of falling back by
/// name onto same-named registry methods.
fn stage_serve_copy(root: &Path, extra: &str) {
    let src_dir = repo_root().join("crates/serve/src");
    let dst_dir = root.join("crates/serve/src");
    fs::create_dir_all(&dst_dir).expect("create fixture tree");
    let mut host = fs::read_to_string(src_dir.join("host.rs")).expect("read host.rs");
    host.push_str(extra);
    fs::write(dst_dir.join("host.rs"), host).expect("write host.rs");
    fs::copy(src_dir.join("lockrank.rs"), dst_dir.join("lockrank.rs")).expect("copy lockrank.rs");
    let core_dir = root.join("crates/core/src");
    fs::create_dir_all(&core_dir).expect("create core stub dir");
    fs::write(core_dir.join("engine.rs"), ENGINE_STUB).expect("write engine stub");
}

/// Lock-free stand-in for the engine methods `host.rs` calls through
/// its guards; the signatures mirror `mvq_core` so bindings type the
/// same way they do in the full tree.
const ENGINE_STUB: &str = r#"
pub struct SearchEngine<W> {
    probe: Option<W>,
}

impl<W> SearchEngine<W> {
    pub fn load_snapshot_from_bytes_with_probe(
        image: impl Into<crate::snapshot::SnapshotImage>,
        threads: usize,
        probe: W,
    ) -> Result<Self, String> {
        let _ = (image.into(), threads, probe);
        Err(String::new())
    }

    pub fn set_probe(&mut self, probe: W) {
        self.probe = Some(probe);
    }

    pub fn completed_cost(&self) -> Option<u32> {
        None
    }
}
"#;

const SEED: &str = r#"
impl<W: SearchWidth> EngineHost<W> {
    fn rank_inversion_seed(&self) -> Result<u32, HostError> {
        let flight = self.flight_lock()?;
        let engine = self.engine_write()?;
        drop(engine);
        drop(flight);
        Ok(0)
    }
}
"#;

#[test]
fn seeded_rank_inversion_is_caught_with_the_call_chain() {
    let base = std::env::temp_dir().join(format!("mvq_lint_mutation_{}", std::process::id()));
    let unmutated = base.join("unmutated");
    let mutated = base.join("mutated");
    stage_serve_copy(&unmutated, "");
    stage_serve_copy(&mutated, SEED);

    // Control: the extracted pair alone is clean, so whatever the
    // mutated copy reports comes from the seed.
    let control = check_workspace(&unmutated).expect("lint walk");
    assert!(control.clean(), "control copy: {:#?}", control.violations);

    let report = check_workspace(&mutated).expect("lint walk");
    let lock_findings: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::LockOrder)
        .collect();
    assert_eq!(
        report.violations.len(),
        lock_findings.len(),
        "{:#?}",
        report.violations
    );
    assert_eq!(lock_findings.len(), 1, "{:#?}", report.violations);
    let v = lock_findings[0];
    assert_eq!(v.file, "crates/serve/src/host.rs");
    // Holding the flight guard (rank 30) while the engine_write chain
    // acquires a lower rank — the pass reports the lowest transitive
    // acquisition, the recovery lock (rank 15) taken inside `heal`.
    assert!(v.message.contains("rank 15"), "{}", v.message);
    assert!(v.message.contains("rank 30"), "{}", v.message);
    assert!(v.frames.len() >= 2, "{:#?}", v.frames);
    assert_eq!(v.frames[0].function, "rank_inversion_seed");
    assert_eq!(v.frames[1].function, "engine_write", "{:#?}", v.frames);
    assert_eq!(v.frames.last().unwrap().function, "heal", "{:#?}", v.frames);
    assert_eq!(v.frames.last().unwrap().line, v.line);

    fs::remove_dir_all(&base).ok();
}
