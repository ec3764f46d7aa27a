//! Strongly-typed identifiers.
//!
//! Every entity in the platform — players, tasks, jobs, sessions, rounds —
//! gets its own newtype over `u64`. Mixing a `PlayerId` where a `TaskId`
//! belongs is a compile error, which in a system whose whole job is joining
//! answer streams to task streams is worth the boilerplate. A macro keeps
//! the newtypes uniform.

use serde::{Deserialize, Serialize};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw numeric id.
            #[must_use]
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// The raw numeric id.
            #[must_use]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }
    };
}

define_id!(
    /// Identifies a player (human or replay bot) across the platform.
    PlayerId,
    "player-"
);
define_id!(
    /// Identifies a problem instance (an image to label, a word to
    /// transcribe, a clip to tag).
    TaskId,
    "task-"
);
define_id!(
    /// Identifies a labeling job/campaign — a batch of tasks with a shared
    /// verification policy.
    JobId,
    "job-"
);
define_id!(
    /// Identifies one game session (a timed sequence of rounds between two
    /// seats).
    SessionId,
    "session-"
);
define_id!(
    /// Identifies one round within the platform (globally unique, not
    /// per-session).
    RoundId,
    "round-"
);

/// A monotonically increasing id allocator, one per id type.
///
/// # Examples
///
/// ```
/// use hc_core::id::{IdAllocator, TaskId};
/// let mut alloc = IdAllocator::<TaskId>::new();
/// assert_eq!(alloc.next(), TaskId::new(0));
/// assert_eq!(alloc.next(), TaskId::new(1));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IdAllocator<T> {
    next: u64,
    #[serde(skip)]
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: From<u64>> IdAllocator<T> {
    /// Creates an allocator starting at zero.
    #[must_use]
    pub fn new() -> Self {
        IdAllocator {
            next: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Allocates the next id.
    #[expect(
        clippy::should_implement_trait,
        reason = "deliberate: an id allocator never ends, so it is not an Iterator"
    )]
    pub fn next(&mut self) -> T {
        let id = T::from(self.next);
        self.next += 1;
        id
    }

    /// How many ids have been allocated.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

impl<T: From<u64>> Default for IdAllocator<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_raw() {
        let p = PlayerId::new(42);
        assert_eq!(p.raw(), 42);
        assert_eq!(u64::from(p), 42);
        assert_eq!(PlayerId::from(42), p);
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(PlayerId::new(7).to_string(), "player-7");
        assert_eq!(TaskId::new(1).to_string(), "task-1");
        assert_eq!(JobId::new(2).to_string(), "job-2");
        assert_eq!(SessionId::new(3).to_string(), "session-3");
        assert_eq!(RoundId::new(4).to_string(), "round-4");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(TaskId::new(1));
        set.insert(TaskId::new(1));
        set.insert(TaskId::new(2));
        assert_eq!(set.len(), 2);
        assert!(TaskId::new(1) < TaskId::new(2));
    }

    #[test]
    fn allocator_is_monotone_and_counts() {
        let mut a = IdAllocator::<SessionId>::new();
        let first = a.next();
        let second = a.next();
        assert!(first < second);
        assert_eq!(a.allocated(), 2);
    }

    #[test]
    fn distinct_id_types_do_not_compare() {
        // Compile-time property; documented here as a reminder that the
        // point of the newtypes is that this would not compile:
        // `PlayerId::new(1) == TaskId::new(1)`
        let p = PlayerId::new(1);
        let t = TaskId::new(1);
        assert_eq!(p.raw(), t.raw());
    }
}
