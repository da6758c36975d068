//! The lint gate, exercised in-process: the committed tree must be
//! clean under all seven rules within a 5 s budget, and — mutation-style
//! — seeding a lock-order inversion into a copy of the real `host.rs`
//! must trip the interprocedural lock-order pass with the correct call
//! chain, for every shape of inversion the pass tracks. The second half
//! proves the pass actually *watches* the code the first half declares
//! clean.

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

/// Copies the real serve host into `root`, optionally appending
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
    pub fn load_snapshot_image(
        image: impl Into<crate::snapshot::SnapshotImage>,
        probe: W,
    ) -> Result<Self, String> {
        let _ = (image.into(), probe);
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

/// One seeded inversion: source appended to the staged `host.rs`, plus
/// what its single finding must say and the call chain it must carry.
struct Seed {
    source: &'static str,
    message: &'static str,
    frames: &'static [&'static str],
}

const SEEDS: [Seed; 5] = [
    // (a) A guard moved into a call in a returning branch is still held
    // after the branch.
    Seed {
        source: r#"
impl<W: SearchWidth> EngineHost<W> {
    fn moved_in_branch_seed(&self, early: bool) -> Result<u64, HostError> {
        let flight = self.flight_lock()?;
        if early {
            return Ok(release(flight));
        }
        let engine = self.engine_read()?;
        drop(engine);
        drop(flight);
        Ok(0)
    }
}

fn release<T>(guard: T) -> u64 {
    drop(guard);
    0
}
"#,
        message: "call chain acquires `recovery` while holding `flight`",
        frames: &["moved_in_branch_seed", "engine_read", "heal"],
    },
    // (b) The same, with the guard dropped in the branch.
    Seed {
        source: r#"
impl<W: SearchWidth> EngineHost<W> {
    fn dropped_in_branch_seed(&self, early: bool) -> Result<u64, HostError> {
        let flight = self.flight_lock()?;
        if early {
            drop(flight);
            return Ok(0);
        }
        let engine = self.engine_read()?;
        drop(engine);
        drop(flight);
        Ok(0)
    }
}
"#,
        message: "call chain acquires `recovery` while holding `flight`",
        frames: &["dropped_in_branch_seed", "engine_read", "heal"],
    },
    // (c) The guard a condvar wait hands back, held across a read.
    Seed {
        source: r#"
impl<W: SearchWidth> EngineHost<W> {
    fn condvar_wait_seed(&self, budget: Duration) -> Result<u64, HostError> {
        let flight = self.flight_lock()?;
        let (flight, _timeout) = self.landed.wait_timeout(flight, budget)?;
        let engine = self.engine_read()?;
        drop(engine);
        drop(flight);
        Ok(0)
    }
}
"#,
        message: "call chain acquires `recovery` while holding `flight`",
        frames: &["condvar_wait_seed", "engine_read", "heal"],
    },
    // (d) A `FlightReset` dropped while the flight guard is held: its
    // drop glue re-takes `flight`.
    Seed {
        source: r#"
impl<W: SearchWidth> EngineHost<W> {
    fn drop_glue_seed(&self) -> Result<u64, HostError> {
        let reset = FlightReset(self);
        let flight = self.flight_lock()?;
        drop(reset);
        drop(flight);
        Ok(0)
    }
}
"#,
        message: "drop glue acquires `flight` while holding `flight`",
        frames: &["drop_glue_seed", "drop"],
    },
    // (e) Holding the flight guard while the `engine_write` chain takes
    // a lower lock: the pass reports the lowest one it reaches, the
    // recovery lock taken inside `heal`.
    Seed {
        source: r#"
impl<W: SearchWidth> EngineHost<W> {
    fn rank_inversion_seed(&self) -> Result<u32, HostError> {
        let flight = self.flight_lock()?;
        let engine = self.engine_write()?;
        drop(engine);
        drop(flight);
        Ok(0)
    }
}
"#,
        message: "call chain acquires `recovery` while holding `flight`",
        frames: &["rank_inversion_seed", "engine_write", "heal"],
    },
];

#[test]
fn seeded_rank_inversion_is_caught_with_the_call_chain() {
    let base = std::env::temp_dir().join(format!("mvq_lint_mutation_{}", std::process::id()));
    let unmutated = base.join("unmutated");
    stage_serve_copy(&unmutated, "");

    // Control: the extracted pair alone is clean, so whatever a mutated
    // copy reports comes from its seed.
    let control = check_workspace(&unmutated).expect("lint walk");
    assert!(control.clean(), "control copy: {:#?}", control.violations);

    for (i, seed) in SEEDS.iter().enumerate() {
        let mutated = base.join(format!("mutated_{i}"));
        stage_serve_copy(&mutated, seed.source);
        let report = check_workspace(&mutated).expect("lint walk");
        assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.rule, Rule::LockOrder, "{v}");
        assert_eq!(v.file, "crates/serve/src/host.rs");
        assert!(v.message.contains(seed.message), "{v}");
        let frames: Vec<&str> = v.frames.iter().map(|f| f.function.as_str()).collect();
        assert_eq!(frames, seed.frames, "{v}");
        assert_eq!(v.frames.last().unwrap().line, v.line);
    }

    fs::remove_dir_all(&base).ok();
}
