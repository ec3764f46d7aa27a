//! Fixture: a clean library file full of near-misses that must NOT fire.
//! A comment mentioning xs[i - 1] and factory.stream(x) is prose.

/// Doc example prose: `xs[i - 1]` inside backticks is not code.
pub fn describe() -> &'static str {
    "strings may say factory.stream(now), rng.clone() and xs[i - 1]"
}

pub fn checked(xs: &[u32], i: usize) -> Option<u32> {
    // Plain loop indexing is idiomatic; only arithmetic indices fire.
    if i < xs.len() {
        Some(xs[i])
    } else {
        xs.first().copied()
    }
}

pub fn repeat_literal() -> [u32; 3] {
    [0u32; 3]
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_panic() {
        let xs = vec![1, 2, 3];
        assert_eq!(xs.first().copied().unwrap(), xs[2 - 1] - 1);
    }
}
