//! Text normalization and approximate matching.
//!
//! Output-agreement games hinge on deciding whether two freely-typed strings
//! "agree". The deployed systems normalize aggressively (case, whitespace,
//! punctuation, trivial plurals) and reCAPTCHA additionally tolerates small
//! typos when comparing a user's transcription against the control word.
//! This module centralizes those rules so every template, game and the
//! captcha crate agree on what agreement means.

/// Normalizes a raw player string into canonical label form:
/// lowercase, trimmed, punctuation stripped, internal whitespace collapsed
/// to single spaces, and a trivial English plural reduction (`dogs` → `dog`,
/// `boxes` → `box`, but `glass` stays `glass`).
///
/// Normalization is **not idempotent**: a word whose singular still ends
/// in a reducible plural loses that too on a second pass (`gases` → `gas`
/// → `ga`). ROADMAP item 1 tracks the fix, and
/// `crates/serve/tests/lifecycle.rs::echoing_a_taboo_label_that_normalizes_again_is_recorded`
/// pins what the defect does to a taboo echo. The property test
/// `tests/properties.rs::normalization_is_idempotent` checks
/// `normalize_label(normalize_label(s)) == normalize_label(s)` only on 64
/// random strings of up to 40 characters, each printable ASCII or one of
/// seven non-ASCII extras (tab, `À`, `ß`, `Ω`, `я`, `中`, an emoji); such
/// strings almost never hold a word like `gases`.
///
/// # Examples
///
/// ```
/// use hc_core::text::normalize_label;
/// assert_eq!(normalize_label("  Dogs!! "), "dog");
/// assert_eq!(normalize_label("Hot   Dog"), "hot dog");
/// assert_eq!(normalize_label("GLASS"), "glass");
/// ```
#[must_use]
pub fn normalize_label(raw: &str) -> String {
    let mut cleaned = String::with_capacity(raw.len());
    for c in raw.chars() {
        if c.is_alphanumeric() {
            // Full Unicode lowercasing (may expand, e.g. 'İ' → "i\u{307}");
            // expansion products that are not themselves alphanumeric
            // (combining marks) are dropped so that lowercasing twice
            // changes nothing.
            cleaned.extend(c.to_lowercase().filter(|lc| lc.is_alphanumeric()));
        } else {
            cleaned.push(' ');
        }
    }
    let mut label = String::with_capacity(cleaned.len());
    for (i, word) in cleaned.split_whitespace().enumerate() {
        if i > 0 {
            label.push(' ');
        }
        push_singular(&mut label, word);
    }
    label
}

/// Appends `w` to `out` with a trivial English plural reduced, without
/// allocating a word. Deliberately conservative: only the unambiguous
/// `-ies`→`-y`, `-xes/-ses/-shes/-ches`→ drop `es`, and a trailing `-s`
/// (not `-ss`, not `-us`, not `-is`) → drop `s`.
fn push_singular(out: &mut String, w: &str) {
    if w.len() > 3 && w.ends_with("ies") {
        out.push_str(&w[..w.len() - 3]); // hc-analyze: allow(P1): ends_with("ies") guarantees an ASCII suffix at least 3 bytes long
        out.push('y');
    } else if w.len() > 3
        && (w.ends_with("xes") || w.ends_with("ses") || w.ends_with("shes") || w.ends_with("ches"))
    {
        out.push_str(&w[..w.len() - 2]); // hc-analyze: allow(P1): ends_with guarantees an ASCII suffix at least 2 bytes long
    } else if w.len() > 2
        && w.ends_with('s')
        && !w.ends_with("ss")
        && !w.ends_with("us")
        && !w.ends_with("is")
    {
        out.push_str(&w[..w.len() - 1]); // hc-analyze: allow(P1): trailing ASCII s checked; len > 2
    } else {
        out.push_str(w);
    }
}

/// Classic dynamic-programming Levenshtein edit distance (two-row variant,
/// `O(|a|·|b|)` time, `O(min)` space). Operates on Unicode scalar values.
///
/// # Examples
///
/// ```
/// use hc_core::text::levenshtein;
/// assert_eq!(levenshtein("kitten", "sitting"), 3);
/// assert_eq!(levenshtein("", "abc"), 3);
/// assert_eq!(levenshtein("same", "same"), 0);
/// ```
#[must_use]
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    // Ensure b is the shorter side to bound memory.
    let (long, short) = if a.len() >= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let sub_cost = if lc == sc { 0 } else { 1 };
            // hc-analyze: allow(P1): j + 1 <= short.len(), the row width
            curr[j + 1] = (prev[j] + sub_cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

/// Normalized similarity in `[0, 1]`: `1 - distance / max_len`, with two
/// empty strings defined as identical (1.0).
///
/// # Examples
///
/// ```
/// use hc_core::text::similarity;
/// assert_eq!(similarity("abc", "abc"), 1.0);
/// assert_eq!(similarity("", ""), 1.0);
/// assert!(similarity("cat", "car") > 0.6);
/// assert_eq!(similarity("abc", "xyz"), 0.0);
/// ```
#[must_use]
pub fn similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Whether two raw strings agree after normalization, tolerating up to
/// `max_edits` edit operations between the normalized forms. `max_edits = 0`
/// is exact normalized equality; reCAPTCHA-style matching uses 1.
#[must_use]
pub fn fuzzy_agree(a: &str, b: &str, max_edits: usize) -> bool {
    let na = normalize_label(a);
    let nb = normalize_label(b);
    if na == nb {
        return true;
    }
    if max_edits == 0 {
        return false;
    }
    levenshtein(&na, &nb) <= max_edits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_handles_case_space_punct() {
        assert_eq!(normalize_label("  HELLO,   World! "), "hello world");
        assert_eq!(normalize_label("sky-scraper"), "sky scraper");
        assert_eq!(normalize_label(""), "");
        assert_eq!(normalize_label("!!!"), "");
    }

    #[test]
    fn plural_reduction_is_conservative() {
        assert_eq!(normalize_label("dogs"), "dog");
        assert_eq!(normalize_label("boxes"), "box");
        assert_eq!(normalize_label("churches"), "church");
        assert_eq!(normalize_label("dishes"), "dish");
        assert_eq!(normalize_label("cities"), "city");
        assert_eq!(normalize_label("glass"), "glass");
        assert_eq!(normalize_label("bus"), "bus");
        assert_eq!(normalize_label("tennis"), "tennis");
        assert_eq!(normalize_label("is"), "is");
        assert_eq!(normalize_label("as"), "as");
    }

    #[test]
    fn normalization_is_idempotent_on_samples() {
        for s in ["Dogs!!", "hot  DOGS", "churches", "a-b-c", "", "ﬁsh"] {
            let once = normalize_label(s);
            assert_eq!(normalize_label(&once), once, "not idempotent on {s:?}");
        }
    }

    #[test]
    fn normalization_singularizes_each_word_in_place() {
        // The one-buffer normalizer equals the word-by-word definition.
        for raw in [
            "Dogs!!",
            "hot  DOGS",
            "churches",
            "a-b-c",
            "",
            "   ",
            "ﬁsh",
            "Boxes of FLIES",
            "is us ss",
            "İstanbul bus",
            "cats,dogs;mice",
            "x",
            "glasses and dishes",
        ] {
            let words: Vec<String> = raw
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { ' ' })
                .flat_map(char::to_lowercase)
                .filter(|c| c.is_alphanumeric() || *c == ' ')
                .collect::<String>()
                .split_whitespace()
                .map(|w| {
                    let mut singular = String::new();
                    push_singular(&mut singular, w);
                    singular
                })
                .collect();
            assert_eq!(normalize_label(raw), words.join(" "), "raw={raw:?}");
        }
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("gumbo", "gambol"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("a", ""), 1);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abcdef", "azced"), 3);
    }

    #[test]
    fn levenshtein_is_symmetric() {
        let pairs = [("kitten", "sitting"), ("abc", ""), ("xy", "yx")];
        for (a, b) in pairs {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn levenshtein_unicode_is_per_scalar() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn similarity_bounds() {
        assert!((similarity("kitten", "sitting") - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
        assert_eq!(similarity("", "abcd"), 0.0);
    }

    #[test]
    fn fuzzy_agree_tolerance() {
        assert!(fuzzy_agree("Dogs", "dog", 0)); // normalization alone
        assert!(!fuzzy_agree("dog", "fog", 0));
        assert!(fuzzy_agree("dog", "fog", 1));
        assert!(fuzzy_agree("overlooked", "overlook", 2));
        assert!(!fuzzy_agree("completely", "different", 2));
    }
}
