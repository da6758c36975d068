//! Both-sides corpus for the interprocedural passes: `graph_bad` seeds
//! one finding per hazard pass and one per lock-order shape,
//! `graph_clean` uses every sanctioned shape — ascending order (also
//! after a condvar wait), conditional guards dying with their body,
//! drop glue run with nothing held, and `// lint: allow(...)`
//! suppression at the site *and* at a call-chain frame. The golden assertions pin the renderer: stable ordering,
//! `file:line` anchors, and the `via` call-chain frames in both the
//! text and JSON output.

use std::path::PathBuf;

use mvq_lint::{check_workspace, Report, Rule};

fn fixture_root(tree: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(tree)
}

fn bad_report() -> Report {
    check_workspace(&fixture_root("graph_bad")).unwrap()
}

#[test]
fn graph_bad_flags_one_finding_per_pass() {
    let report = bad_report();
    assert_eq!(report.files_scanned, 6);
    let counts = report.rule_counts();
    // One per lock-order shape: a call chain under a held guard, a
    // guard moved or dropped in a returning branch (two), a guard
    // handed back by a condvar wait, and drop glue under a held guard.
    assert_eq!(counts["lock_order"], 5, "{:#?}", report.violations);
    assert_eq!(counts["panic"], 1, "{:#?}", report.violations);
    assert_eq!(counts["obs"], 1, "{:#?}", report.violations);
    assert_eq!(counts["determinism"], 1, "{:#?}", report.violations);
    assert_eq!(report.violations.len(), 8, "{:#?}", report.violations);
    // Every shape names its function as the outermost frame.
    let lock_fns: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::LockOrder)
        .map(|v| v.frames[0].function.as_str())
        .collect();
    assert_eq!(
        lock_fns,
        [
            "flight_op",
            "moved_in_branch",
            "dropped_in_branch",
            "read_after_wait",
            "reset_under_flight"
        ]
    );
}

#[test]
fn lock_order_finding_carries_the_call_chain() {
    let report = bad_report();
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == Rule::LockOrder)
        .unwrap();
    assert_eq!(v.file, "crates/serve/src/host.rs");
    assert!(
        v.message
            .contains("acquires `engine` while holding `flight`"),
        "{}",
        v.message
    );
    assert!(
        v.message.contains("(registry < engine < flight)"),
        "{}",
        v.message
    );
    // Outermost frame: the call in `flight_op` made while holding the
    // flight guard; innermost: the acquisition in `touch_engine`.
    assert_eq!(v.frames.len(), 2, "{:#?}", v.frames);
    assert_eq!(v.frames[0].function, "flight_op");
    assert_eq!(v.frames[1].function, "touch_engine");
    assert_eq!(v.frames[1].line, v.line);
}

#[test]
fn panic_path_finding_names_root_and_site() {
    let report = bad_report();
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == Rule::PanicFreedom)
        .unwrap();
    assert_eq!(v.file, "crates/core/src/helper.rs");
    assert!(v.message.contains(".unwrap()"), "{}", v.message);
    assert_eq!(v.frames.first().unwrap().function, "handle");
    assert_eq!(v.frames.first().unwrap().file, "crates/serve/src/host.rs");
    assert_eq!(v.frames.last().unwrap().function, "boom");
}

#[test]
fn purity_and_taint_point_at_the_reached_helper() {
    let report = bad_report();
    let purity = report
        .violations
        .iter()
        .find(|v| v.rule == Rule::Obs)
        .unwrap();
    assert_eq!(purity.file, "crates/obs/src/helper.rs");
    assert!(purity.message.contains("format!"), "{}", purity.message);
    let taint = report
        .violations
        .iter()
        .find(|v| v.rule == Rule::Determinism)
        .unwrap();
    assert_eq!(taint.file, "crates/core/src/util.rs");
    assert!(taint.message.contains("Instant"), "{}", taint.message);
    assert_eq!(taint.frames.first().unwrap().function, "expand");
}

#[test]
fn graph_clean_passes_via_every_sanctioned_shape() {
    let report = check_workspace(&fixture_root("graph_clean")).unwrap();
    // Six program files, plus a test file whose same-named helper the
    // passes must not reach.
    assert_eq!(report.files_scanned, 7);
    assert!(
        report.clean(),
        "clean graph tree must lint clean, got: {:#?}",
        report.violations
    );
}

#[test]
fn text_rendering_is_stable_and_clickable() {
    let report = bad_report();
    let text = report.to_string();
    let lines: Vec<&str> = text.lines().collect();
    // Findings sort by (file, line, rule): core/helper.rs, core/util.rs,
    // obs/helper.rs, then the five in serve/host.rs — each followed by
    // its `via` frames.
    let anchors: Vec<&&str> = lines
        .iter()
        .filter(|l| !l.starts_with(' ') && l.contains(": ["))
        .collect();
    assert_eq!(anchors.len(), 8, "{text}");
    assert!(
        anchors[0].starts_with("crates/core/src/helper.rs:6: [panic]"),
        "{text}"
    );
    assert!(
        anchors[1].starts_with("crates/core/src/util.rs:6: [determinism]"),
        "{text}"
    );
    assert!(
        anchors[2].starts_with("crates/obs/src/helper.rs:4: [obs]"),
        "{text}"
    );
    assert!(
        anchors[3].starts_with("crates/serve/src/host.rs:24: [lock_order]"),
        "{text}"
    );
    assert!(
        text.contains("    via crates/serve/src/host.rs:30 in `handle`"),
        "{text}"
    );
    assert!(
        text.contains("    via crates/serve/src/host.rs:19 in `flight_op`"),
        "{text}"
    );
    // Summary line pins the full gate.
    assert!(
        text.contains("mvq_lint: 6 file(s) scanned, 7 rule(s), 8 violation(s)"),
        "{text}"
    );
}

#[test]
fn json_rendering_matches_the_text_findings() {
    let report = bad_report();
    let json = report.to_json();
    assert!(json.contains("\"files_scanned\": 6"), "{json}");
    assert!(
        json.contains("\"lock_order\": 5") && json.contains("\"panic\": 1"),
        "{json}"
    );
    assert!(
        json.contains("\"file\": \"crates/core/src/helper.rs\", \"line\": 6, \"rule\": \"panic\""),
        "{json}"
    );
    assert!(
        json.contains(
            "{\"file\": \"crates/serve/src/host.rs\", \"line\": 30, \"function\": \"handle\"}"
        ),
        "{json}"
    );
    // JSON and text agree on ordering: the first four findings in the
    // same (file, line, rule) order.
    let order: Vec<usize> = [
        "helper.rs\", \"line\": 6",
        "util.rs\", \"line\": 6",
        "obs/src/helper.rs",
        "host.rs\", \"line\": 24",
    ]
    .iter()
    .map(|needle| {
        json.find(needle)
            .unwrap_or_else(|| panic!("missing {needle}: {json}"))
    })
    .collect();
    assert!(order.windows(2).all(|w| w[0] < w[1]), "{json}");
}
