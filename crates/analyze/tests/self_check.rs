//! The analyzer must hold itself and the workspace to its own rules: a
//! full workspace walk from the repo root may not produce any finding,
//! warning or error, since `check` fails on either.

use hc_analyze::analyze_workspace;
use std::path::PathBuf;

#[test]
fn the_analyzer_is_clean_under_its_own_rules() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = analyze_workspace(&root).expect("workspace walk");
    assert!(
        report.files_scanned > 100,
        "workspace walk found only {} files — wrong root?",
        report.files_scanned
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace has analyzer findings: {:?}",
        report.diagnostics
    );
}
