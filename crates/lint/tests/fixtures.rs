//! The fixture corpus locks each rule from both sides: every file
//! under `fixtures/bad` seeds at least one violation the checker must
//! flag, every `fixtures/clean` counterpart uses the sanctioned escape
//! hatch and must pass — and the committed workspace itself must be
//! clean, since CI gates on it.

use std::path::PathBuf;

use mvq_lint::{check_workspace, Rule};

fn fixture_root(tree: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(tree)
}

#[test]
fn bad_tree_flags_every_seeded_violation() {
    let report = check_workspace(&fixture_root("bad")).unwrap();
    assert_eq!(report.files_scanned, 8);
    let expected = [
        ("crates/core/src/engine.rs", Rule::Determinism),
        ("crates/core/src/census.rs", Rule::Determinism),
        ("crates/core/src/snapshot.rs", Rule::Persistence),
        ("crates/serve/src/http.rs", Rule::PanicFreedom),
        ("crates/logic/src/lib.rs", Rule::UnsafeAudit),
        ("crates/sim/src/state.rs", Rule::Concurrency),
        ("crates/core/src/expand.rs", Rule::Concurrency),
        ("crates/obs/src/metrics.rs", Rule::Obs),
    ];
    for (file, rule) in expected {
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.file == file && v.rule == rule),
            "expected a {rule:?} violation in {file}, got: {:#?}",
            report.violations
        );
    }
    // The exact census: 2 hashing + 1 clock, unwrap + panic!, one
    // unsafe, two spawns (one in the serial search core), one bare
    // write + one bare create, and on the obs side one lock type + one
    // lock call + two bad metric names. A change here means a rule got
    // looser or stricter — make it deliberate.
    let counts = report.rule_counts();
    assert_eq!(counts["determinism"], 3, "{:#?}", report.violations);
    assert_eq!(counts["panic"], 2, "{:#?}", report.violations);
    assert_eq!(counts["unsafe"], 1, "{:#?}", report.violations);
    assert_eq!(counts["threads"], 2, "{:#?}", report.violations);
    assert_eq!(counts["persistence"], 2, "{:#?}", report.violations);
    assert_eq!(counts["obs"], 4, "{:#?}", report.violations);
    assert!(!report.clean());
}

#[test]
fn clean_tree_passes_via_the_sanctioned_escape_hatches() {
    let report = check_workspace(&fixture_root("clean")).unwrap();
    assert_eq!(report.files_scanned, 7);
    assert!(
        report.clean(),
        "clean fixtures must lint clean, got: {:#?}",
        report.violations
    );
}

#[test]
fn bad_violations_are_sorted_and_render_with_locations() {
    let report = check_workspace(&fixture_root("bad")).unwrap();
    let keys: Vec<(&str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.file.as_str(), v.line))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    let rendered = report.to_string();
    assert!(rendered.contains("crates/serve/src/http.rs:"), "{rendered}");
    assert!(rendered.contains("violation(s)"), "{rendered}");
}

/// CI runs `mvq_lint --workspace` as a hard gate; this is the same
/// check in-process, so a violation fails the test suite even before
/// the lint job runs.
#[test]
fn committed_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = check_workspace(&root).unwrap();
    assert!(
        report.files_scanned > 50,
        "workspace walk looks wrong: only {} files",
        report.files_scanned
    );
    assert!(
        report.clean(),
        "the committed tree must lint clean: {:#?}",
        report.violations
    );
}
