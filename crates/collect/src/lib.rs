//! Deterministic hot-path collections.
//!
//! The platform bans `std::collections::HashMap`/`HashSet` (clippy's
//! `disallowed_types`, configured in `clippy.toml`): their `RandomState` hasher draws OS entropy at construction, so
//! iteration order — and therefore any serialized output or float
//! summation driven by it — varies run to run. The original fix was
//! `BTreeMap`/`BTreeSet` everywhere, which is deterministic but pays
//! O(log n) comparisons (string comparisons, for label keys) on every
//! lookup of the hottest paths: matchmaker rematch checks, ESP tag
//! agreement, reCAPTCHA vote tallies, the metrics registry.
//!
//! This crate restores O(1) hashing without reintroducing nondeterminism:
//!
//! * [`DetMap`] / [`DetSet`] — open-addressing hash map/set over a fixed
//!   FxHash-style mixer ([`FxHasher`]). No seed, no OS entropy: the same
//!   key set always produces the same table layout. Iteration follows
//!   **insertion order** (entries live in a dense `Vec`; the probe table
//!   only stores indices), which is deterministic for a deterministic
//!   simulation but *not* sorted — callers that serialize must either use
//!   [`DetMap::iter_sorted`] / [`DetSet::iter_sorted`] at the boundary or
//!   prove the container is never iterated.
//! * [`Interner`] / [`Sym`] — a string interner mapping labels and metric
//!   names to dense `u32` symbols, so repeated lookups hash 4 bytes
//!   instead of a whole string and equality is one integer compare.
//! * [`PlayerStore`] / [`SliceArena`] — dense id-indexed struct-of-arrays
//!   stores for per-player state, iterated in id order (a `BTreeMap`'s
//!   key order), with an optional `id % K` stride for sharded engines.
//!
//! # The sort-at-the-boundary rule
//!
//! Replacing a `BTreeMap` with a [`DetMap`] changes iteration order from
//! sorted to insertion order. That is only byte-identical to the old
//! behavior if (a) the map is never iterated (lookups/inserts only), or
//! (b) every iteration that feeds serialization or float accumulation
//! goes through `iter_sorted()`. The serde impls in this crate always
//! serialize in sorted key order, matching `BTreeMap`'s wire format
//! exactly.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::dbg_macro,
        clippy::disallowed_types,
        clippy::disallowed_methods
    )
)]

pub mod hash;
pub mod intern;
pub mod map;
pub mod set;
pub mod store;

pub use hash::FxHasher;
pub use intern::{Interner, Sym};
pub use map::{DetMap, Entry, OccupiedEntry, VacantEntry};
pub use set::DetSet;
pub use store::{PlayerStore, SliceArena, Span};
