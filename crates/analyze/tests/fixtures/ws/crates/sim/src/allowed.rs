//! Fixture: allow-directive handling — justified, unjustified, stale.

pub fn justified(xs: &[u32], n: usize) -> u32 {
    // hc-analyze: allow(P1): index guarded by the caller's length contract
    xs[n - 1]
}

pub fn trailing(xs: &[u32], n: usize) -> u32 {
    xs[n - 2] // hc-analyze: allow(P1): fixture exercises the trailing form
}

pub fn unjustified(xs: &[u32], n: usize) -> u32 {
    xs[n + 1] // hc-analyze: allow(P1)
}

// hc-analyze: allow(P1): nothing below actually indexes with arithmetic
pub fn stale() -> u32 {
    7
}
