//! Fixture: P1 — computed indexing in library code fires; a constant index does not.

pub fn head(xs: &[u32]) -> u32 {
    xs[0]
}

pub fn last_window(xs: &[u32], n: usize) -> &[u32] {
    &xs[xs.len() - n..]
}
