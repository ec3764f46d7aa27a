//! Property tests for the lexer/rule boundary: rule tokens hidden
//! inside string literals, multi-hash raw strings, (nested) comments,
//! and behind escaped char literals must never fire a diagnostic — the
//! lexer strips every quoted and commented channel before rules run.
//! Each token sits where it would fire as code (checked first), so a
//! silent property is a lexer result, not a rule that cannot match.

use hc_analyze::{analyze_sources, Report};
use proptest::prelude::*;

/// A library path, so P1 applies.
const LIB_PATH: &str = "crates/games/src/prop_fixture.rs";

/// Tokens of the kept rules with the rule each fires as code inside
/// [`fixture`]: a computed index (P1), un-indexed and cloned RNGs in an
/// R1 root (R1), and insertion-order iteration of a `DetMap` field into
/// a string (R2). None contain `"`, `\`, or `hc-analyze`, so they embed
/// directly in string/comment contexts without re-escaping. (The
/// vendored proptest has no `sample::select`; tests draw an index
/// instead.)
const RULE_TOKENS: [(&str, &str); 5] = [
    ("P1", "xs[i - 1]"),
    ("R1", "self.factory.stream(session)"),
    ("R1", "rng.clone()"),
    ("R1", "SimRng::from_entropy()"),
    ("R2", "self.counts.iter().map(|c| c.0.to_string())"),
];

/// `body` inside `ShardWorkload::run_job` (an R1 root) of a type with a
/// `DetMap` field, with an RNG and a slice in scope.
fn fixture(body: &str) -> String {
    format!(
        "//! Prop fixture.\n\npub struct Board {{\n    counts: DetMap<String, u64>,\n    factory: RngFactory,\n}}\n\n\
         impl ShardWorkload for Board {{\n    fn run_job(&self, rng: &mut SimRng, xs: &[u32], i: usize) -> u64 {{\n\
         {body}\n        0\n    }}\n}}\n"
    )
}

fn run(source: &str) -> Report {
    analyze_sources(&[(LIB_PATH.to_string(), source.to_string())])
}

#[test]
fn every_token_fires_when_written_as_code() {
    assert!(run(&fixture("")).diagnostics.is_empty());
    for (rule, token) in RULE_TOKENS {
        let report = run(&fixture(&format!("        let _probe = {token};")));
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
        assert_eq!(rules, vec![rule], "{token}: {:?}", report.diagnostics);
    }
}

proptest! {
    #[test]
    fn tokens_in_plain_strings_never_fire(
        token_idx in 0usize..RULE_TOKENS.len(),
        pre in "[a-zA-Z0-9 _]{0,12}",
        post in "[a-zA-Z0-9 _]{0,12}",
    ) {
        let token = RULE_TOKENS[token_idx].1;
        let report = run(&fixture(&format!("        let _s = \"{pre}{token}{post}\";")));
        prop_assert!(report.diagnostics.is_empty(), "fired: {:?}", report.diagnostics);
    }

    #[test]
    fn tokens_in_multi_hash_raw_strings_never_fire(
        token_idx in 0usize..RULE_TOKENS.len(),
        hashes in 1usize..4,
    ) {
        // Embed a quote followed by one hash fewer than the delimiter:
        // a lexer that miscounts hashes closes the raw string early and
        // exposes the token as code.
        let token = RULE_TOKENS[token_idx].1;
        let h = "#".repeat(hashes);
        let inner = "#".repeat(hashes - 1);
        let report = run(&fixture(&format!("        let _s = r{h}\"{token} \"{inner} tail\"{h};")));
        prop_assert!(report.diagnostics.is_empty(), "fired: {:?}", report.diagnostics);
    }

    #[test]
    fn tokens_in_nested_comments_never_fire(
        token_idx in 0usize..RULE_TOKENS.len(),
        depth in 1usize..4,
    ) {
        let token = RULE_TOKENS[token_idx].1;
        let body = format!(
            "        // prose: {token}\n        {}{token}{}",
            "/* ".repeat(depth),
            " */".repeat(depth)
        );
        let report = run(&fixture(&body));
        prop_assert!(report.diagnostics.is_empty(), "fired: {:?}", report.diagnostics);
    }

    #[test]
    fn char_literals_do_not_desync_the_lexer(
        token_idx in 0usize..RULE_TOKENS.len(),
        char_idx in 0usize..8,
    ) {
        let token = RULE_TOKENS[token_idx].1;
        let c = ['a', 'Z', '9', '_', '\\', '\'', '\n', '\t'][char_idx];
        // An escaped char literal ('\'', '\\') that is mis-lexed leaves
        // the lexer inside a bogus string state, which would expose the
        // following quoted token as code.
        let lit = match c {
            '\\' => "'\\\\'".to_string(),
            '\'' => "'\\''".to_string(),
            '\n' => "'\\n'".to_string(),
            '\t' => "'\\t'".to_string(),
            other => format!("'{other}'"),
        };
        let report = run(&fixture(&format!("        let _q = {lit};\n        let _s = \"{token}\";")));
        prop_assert!(report.diagnostics.is_empty(), "fired: {:?}", report.diagnostics);
    }

    #[test]
    fn allow_text_inside_strings_is_not_an_annotation(filler in "[a-z ]{0,10}") {
        // If the allow were parsed out of the string it would be stale
        // (no diagnostic on the guarded line) and fire W1.
        let body = format!("        let _s = \"{filler}hc-analyze: allow(P1): not a real annotation\";");
        let report = run(&fixture(&body));
        prop_assert!(report.diagnostics.is_empty(), "fired: {:?}", report.diagnostics);
        prop_assert_eq!(report.allows_honored, 0);
    }
}
