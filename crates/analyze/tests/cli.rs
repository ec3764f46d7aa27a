//! `hc-analyze check` exit codes end to end: any finding fails the
//! run, a warning included, and a justified inline allow is the one way
//! to accept it.

use std::ffi::OsStr;
use std::process::Command;

/// A leaderboard whose render iterates a `DetMap` in insertion order
/// into `format!`: one R2 warning, no error. `ALLOW` goes on the line
/// above the loop.
const BOARD: &str = "\
//! Temp fixture: a leaderboard with one order-sensitive render.

pub struct Board {
    scores: DetMap<String, u64>,
}

impl Board {
    pub fn render(&self) -> String {
        let mut out = String::new();
        ALLOW
        for (k, v) in self.scores.iter() {
            out.push_str(&format!(\"{k}={v}\\n\"));
        }
        out
    }
}
";

/// Runs `hc-analyze` with `args`: exit code and stdout + stderr.
fn run<I: IntoIterator<Item = S>, S: AsRef<OsStr>>(args: I) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hc-analyze"))
        .args(args)
        .output()
        .expect("run hc-analyze");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

#[test]
fn a_warning_fails_check_until_a_justified_allow_accepts_it() {
    let ws = std::env::temp_dir().join("hc-analyze-cli-test");
    let _ = std::fs::remove_dir_all(&ws);
    let src_dir = ws.join("crates").join("obs").join("src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    let board = src_dir.join("board.rs");

    std::fs::write(&board, BOARD.replace("ALLOW", "")).expect("write fixture");
    let check = [OsStr::new("check"), OsStr::new("--root"), ws.as_os_str()];
    let (code, text) = run(check);
    assert_eq!(code, 1, "an un-allowed warning must fail: {text}");
    assert!(text.contains("warning[R2]"), "warning not reported: {text}");
    assert!(text.contains("0 errors, 1 warnings"), "summary: {text}");

    let allowed = BOARD.replace(
        "ALLOW",
        "// hc-analyze: allow(R2): the board renders for a debug dump only",
    );
    std::fs::write(&board, allowed).expect("write fixture");
    let (code, text) = run(check);
    assert_eq!(code, 0, "an allowed warning must pass: {text}");
    assert!(text.contains("1 allows honored"), "summary: {text}");

    let (code, text) = run(["check", "--baseline", "baseline.json"]);
    assert_eq!(code, 2, "`--baseline` is not a flag: {text}");

    let _ = std::fs::remove_dir_all(&ws);
}
