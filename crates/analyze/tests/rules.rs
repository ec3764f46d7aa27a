//! Integration tests: run the full workspace walk over the fixture
//! mini-workspace and assert every planted violation fires with its
//! exact rule id and line — and nothing else does.

use hc_analyze::{analyze_workspace, Severity};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("ws")
}

#[test]
fn planted_violations_fire_exactly() {
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    let got: Vec<(String, String, usize)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule.clone(), d.path.clone(), d.line))
        .collect();
    let expected: Vec<(String, String, usize)> = [
        ("P1", "crates/games/src/p1.rs", 8),
        ("R1", "crates/games/src/shard.rs", 12),
        ("R1", "crates/games/src/shard.rs", 13),
        ("R1", "crates/games/src/shard.rs", 25),
        ("R1", "crates/games/src/shard.rs", 72),
        ("R1", "crates/games/src/shard.rs", 73),
        ("R1", "crates/games/src/shard.rs", 107),
        ("R1", "crates/games/src/shard.rs", 121),
        ("R1", "crates/games/src/shard.rs", 132),
        ("R2", "crates/obs/src/agg.rs", 13),
        ("R2", "crates/obs/src/agg.rs", 38),
        ("R1", "crates/serve/src/shard.rs", 10),
        ("A1", "crates/sim/src/allowed.rs", 13),
        ("W1", "crates/sim/src/allowed.rs", 16),
    ]
    .iter()
    .map(|(r, p, l)| (r.to_string(), p.to_string(), *l))
    .collect();
    assert_eq!(got, expected);
}

#[test]
fn clean_file_and_test_modules_stay_silent() {
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.path.contains("clean.rs")),
        "clean fixture fired: {:?}",
        report.diagnostics
    );
}

#[test]
fn justified_allows_suppress_and_are_counted() {
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    // allowed.rs plants two justified P1 allows on computed indexes
    // (standalone-above and trailing forms) and agg.rs one justified R2
    // allow; all three violations must be suppressed.
    assert_eq!(report.allows_honored, 3);
    let allowed_p1 = report
        .diagnostics
        .iter()
        .any(|d| d.path.contains("allowed.rs") && d.rule == "P1");
    assert!(!allowed_p1, "justified allow failed to suppress P1");
}

#[test]
fn severity_split_matches_rule_contract() {
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    assert!(report.error_count() > 0);
    // Only R2 has warning severity; everything else — including the
    // stale-allow audit W1 — is an error. `check` fails on both.
    let warnings: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .collect();
    assert_eq!(warnings.len(), 2);
    assert!(warnings.iter().all(|d| d.rule == "R2"));
    let w1 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "W1")
        .expect("stale allow must fire W1");
    assert_eq!(w1.severity, Severity::Error);
    assert_eq!(report.error_count(), report.diagnostics.len() - 2);
}

#[test]
fn fixture_report_round_trips_through_json() {
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    let compact = serde_json::to_string(&report).expect("serialize");
    let back: hc_analyze::Report = serde_json::from_str(&compact).expect("deserialize");
    assert_eq!(back, report);
    let pretty = serde_json::to_string_pretty(&report).expect("serialize pretty");
    let back: hc_analyze::Report = serde_json::from_str(&pretty).expect("deserialize pretty");
    assert_eq!(back, report);
}

#[test]
fn r1_spares_the_hub_barrier_and_indexed_streams() {
    // fixtures/ws/crates/games/src/shard.rs: `hub_step` draws a plain
    // stream (line 18) behind the barrier, and CleanCampaign derives an
    // indexed stream (line 35); neither may fire, while the un-indexed
    // shard-side draws do. fixtures/ws/crates/serve/src/shard.rs adds
    // the hc-serve load-replay case: its un-indexed stream (line 10)
    // fires, its per-client indexed stream (line 25) does not.
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    let games_r1: Vec<usize> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "R1" && d.path.contains("games/"))
        .map(|d| d.line)
        .collect();
    assert_eq!(games_r1, vec![12, 13, 25, 72, 73, 107, 121, 132]);
    assert!(!games_r1.contains(&18), "hub barrier leaked into R1");
    assert!(!games_r1.contains(&35), "indexed_stream misflagged");
    let serve_r1: Vec<usize> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "R1" && d.path.contains("serve/"))
        .map(|d| d.line)
        .collect();
    assert_eq!(serve_r1, vec![10]);
}

#[test]
fn bucket_matchmaker_is_shard_reachable_under_r1() {
    // fixtures/ws/crates/games/src/shard.rs: BucketCampaign mirrors the
    // sharded matchmaker — per-bucket wait pools whose pairing methods
    // run inside `shard_step`. The graph must carry reachability into
    // the bucket type: an un-indexed `.stream(` draw (line 72) and a
    // cloned stream (line 73) in `WaitBucket::pair_unindexed` fire even
    // though the tokens live outside the `ShardWorkload` impl, while
    // the per-arrival `indexed_stream` draw (line 79) and the
    // hub-barrier harvest that reads the same buckets stay silent.
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    let bucket_r1: Vec<usize> = report
        .diagnostics
        .iter()
        .filter(|d| {
            d.rule == "R1" && d.path.contains("games/src/shard.rs") && (56..98).contains(&d.line)
        })
        .map(|d| d.line)
        .collect();
    assert_eq!(bucket_r1, vec![72, 73], "bucket pairing escaped R1");
    assert!(
        !bucket_r1.contains(&79),
        "per-arrival indexed_stream misflagged in bucket code"
    );
}

#[test]
fn r2_spares_sorted_justified_and_sink_free_iteration() {
    // fixtures/ws/crates/obs/src/agg.rs: `iter_sorted()` (line 21), the
    // justified allow(R2) (guarding line 29), and the sink-free
    // `total()` (line 33) stay silent; the raw render loop and the
    // let-tainted tag join fire as warnings.
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    let r2: Vec<(usize, Severity)> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "R2" && d.path.contains("agg.rs"))
        .map(|d| (d.line, d.severity))
        .collect();
    assert_eq!(r2, vec![(13, Severity::Warning), (38, Severity::Warning)]);
}

#[test]
fn files_scanned_counts_every_fixture() {
    // 8 member files; the nested workspace's `src/main.rs` is not one.
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    assert_eq!(report.files_scanned, 8);
}

#[test]
fn nested_workspaces_are_not_walked() {
    // fixtures/ws/nested_bench/Cargo.toml declares a `[workspace]` of
    // its own. Its forwarding `impl ShardGame` would root R1 and reach
    // the un-indexed draw in fixtures/ws/crates/games/src/timed.rs
    // (line 5), which nothing else calls. The walk skips the nested
    // workspace, so neither file fires, while the member-crate R1
    // plants still do.
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    let leaked: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.path.starts_with("nested_bench/") || d.path.ends_with("games/src/timed.rs"))
        .collect();
    assert!(
        leaked.is_empty(),
        "nested workspace was analyzed: {leaked:?}"
    );
    let member_r1 = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "R1" && d.path.starts_with("crates/"))
        .count();
    assert_eq!(member_r1, 9, "member-crate R1 plants stopped firing");
}

#[test]
fn r1_roots_engine_jobs_and_sees_through_array_parameters() {
    // fixtures/ws/crates/games/src/shard.rs: `JobCampaign::run_job` is
    // an R1 root like `shard_step`, so its un-indexed draw (line 107)
    // fires. It reaches `pair_bonus`, whose `[&mut PlayerProfile; 2]`
    // parameter holds a `;` inside the signature; the parser must still
    // see the function, so the planted `RngFactory::new(1).stream(`
    // (line 121) fires too.
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    let job_r1: Vec<usize> = report
        .diagnostics
        .iter()
        .filter(|d| {
            d.rule == "R1" && d.path.contains("games/src/shard.rs") && (99..125).contains(&d.line)
        })
        .map(|d| d.line)
        .collect();
    assert_eq!(job_r1, vec![107, 121]);
}

#[test]
fn r1_roots_the_game_round_method() {
    // fixtures/ws/crates/games/src/shard.rs: nothing calls
    // `RoundGame::play_round`, but `SessionDriver::play_round` is an R1
    // root of its own, so its un-indexed draw (line 132) fires.
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    let round_r1: Vec<usize> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "R1" && d.path.contains("games/src/shard.rs") && d.line >= 125)
        .map(|d| d.line)
        .collect();
    assert_eq!(round_r1, vec![132]);
}

#[test]
fn call_edges_respect_arity() {
    // fixtures/ws/crates/games/src/arity.rs: an engine job calls the
    // one-argument `Sitting::arrive`. The three-argument
    // `SerialCampaign::arrive`, whose struct-stored RNG would fire R1 at
    // line 12, shares only the name, so the call must not reach it.
    let report = analyze_workspace(&fixture_root()).expect("fixture walk");
    let leaked: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.path.ends_with("games/src/arity.rs"))
        .collect();
    assert!(leaked.is_empty(), "arity-blind call edge: {leaked:?}");
}
