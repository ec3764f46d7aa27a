//! Dense, id-indexed stores for per-player state.
//!
//! The platform's per-player paths (last partners, scoreboards, cheat
//! evidence, shard-resident profiles) are keyed by small dense `u64`
//! ids handed out by an allocator — a `BTreeMap` pays pointer-chasing
//! and rebalancing for a key space that is really just `0..n`.
//! [`PlayerStore`] is the struct-of-arrays replacement: a dense
//! `Vec<Option<T>>` slot per id with **iteration in id order**, which
//! is exactly a `BTreeMap`'s key order — so swapping one for the other
//! never changes an iteration-dependent byte.
//!
//! For sharded engines the store can be *strided*: shard `s` of `K`
//! owns ids `id % K == s`, and [`PlayerStore::strided`] maps those ids
//! onto dense local slots (`(id - s) / K`) so each shard stays compact
//! no matter how many shards exist.
//!
//! [`SliceArena`] complements it for per-player variable-length plans
//! (session sitting lists): one backing `Vec` with [`Span`] handles,
//! instead of one heap allocation per player.

/// A dense map from `u64` ids to values, iterated in id order.
///
/// # Examples
///
/// ```
/// use hc_collect::PlayerStore;
///
/// let mut store = PlayerStore::new();
/// store.insert(2, "b");
/// store.insert(0, "a");
/// assert_eq!(store.get(2), Some(&"b"));
/// let ids: Vec<u64> = store.iter().map(|(id, _)| id).collect();
/// assert_eq!(ids, vec![0, 2]); // id order, like a BTreeMap
/// assert_eq!(store.take(0), Some("a"));
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlayerStore<T> {
    slots: Vec<Option<T>>,
    len: usize,
    stride: u64,
    phase: u64,
}

impl<T> Default for PlayerStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PlayerStore<T> {
    /// An empty store over the full id space (stride 1).
    #[must_use]
    pub fn new() -> Self {
        Self::strided(1, 0)
    }

    /// An empty store owning only ids with `id % stride == phase` —
    /// the shard-resident layout. Slots stay dense: id maps to slot
    /// `(id - phase) / stride`.
    ///
    /// # Panics
    ///
    /// Panics when `stride` is zero or `phase >= stride`.
    #[must_use]
    pub fn strided(stride: u64, phase: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(phase < stride, "phase must be < stride");
        PlayerStore {
            slots: Vec::new(),
            len: 0,
            stride,
            phase,
        }
    }

    /// An empty full-range store pre-allocated for ids `0..capacity`.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut s = Self::new();
        s.slots.reserve(capacity);
        s
    }

    /// `true` when this store's stride/phase owns `id`.
    #[must_use]
    pub fn owns(&self, id: u64) -> bool {
        id % self.stride == self.phase
    }

    /// Dense slot index for `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not owned by this store's stride/phase.
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics contract; ids are dense player indices far below usize::MAX"
    )]
    fn slot_of(&self, id: u64) -> usize {
        assert!(
            self.owns(id),
            "id {id} not owned by store (stride {}, phase {})",
            self.stride,
            self.phase
        );
        usize::try_from((id - self.phase) / self.stride).expect("id fits in usize")
    }

    /// Id stored at dense slot `slot`.
    fn id_of(&self, slot: usize) -> u64 {
        slot as u64 * self.stride + self.phase
    }

    /// Inserts `value` under `id`, returning any previous value.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not owned by this store's stride/phase.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        let slot = self.slot_of(id);
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        let old = self.slots[slot].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value under `id`, if present.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<&T> {
        if !self.owns(id) {
            return None;
        }
        self.slots.get(self.slot_of(id)).and_then(Option::as_ref)
    }

    /// Mutable access to the value under `id`, if present.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        if !self.owns(id) {
            return None;
        }
        let slot = self.slot_of(id);
        self.slots.get_mut(slot).and_then(Option::as_mut)
    }

    /// Mutable access to the value under `id`, inserting `make()` first
    /// when absent — the `entry(id).or_insert_with(make)` of this store.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not owned by this store's stride/phase.
    pub fn get_or_insert_with<F: FnOnce() -> T>(&mut self, id: u64, make: F) -> &mut T {
        let slot = self.slot_of(id);
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        let entry = &mut self.slots[slot];
        if entry.is_none() {
            self.len += 1;
        }
        entry.get_or_insert_with(make)
    }

    /// Mutable access to two *distinct* ids at once (e.g. both seats of
    /// a session). Returns `None` when either id is absent or the ids
    /// are equal.
    pub fn get_pair_mut(&mut self, a: u64, b: u64) -> Option<(&mut T, &mut T)> {
        if a == b || !self.owns(a) || !self.owns(b) {
            return None;
        }
        let (sa, sb) = (self.slot_of(a), self.slot_of(b));
        if sa.max(sb) >= self.slots.len() {
            return None;
        }
        let (lo, hi) = (sa.min(sb), sa.max(sb));
        let (head, tail) = self.slots.split_at_mut(hi);
        let (x, y) = (head[lo].as_mut()?, tail[0].as_mut()?);
        Some(if sa < sb { (x, y) } else { (y, x) })
    }

    /// Removes and returns the value under `id` (ownership handoff).
    pub fn take(&mut self, id: u64) -> Option<T> {
        if !self.owns(id) {
            return None;
        }
        let slot = self.slot_of(id);
        let old = self.slots.get_mut(slot).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// `true` when a value is stored under `id`.
    #[must_use]
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Number of stored values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(id, &value)` in increasing id order — the same order
    /// a `BTreeMap<u64, T>` would yield.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, v)| v.as_ref().map(|v| (self.id_of(slot), v)))
    }

    /// Iterates `(id, &mut value)` in increasing id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        let (stride, phase) = (self.stride, self.phase);
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(move |(slot, v)| v.as_mut().map(|v| (slot as u64 * stride + phase, v)))
    }

    /// Iterates stored ids in increasing order.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(id, _)| id)
    }
}

impl<T> FromIterator<(u64, T)> for PlayerStore<T> {
    fn from_iter<I: IntoIterator<Item = (u64, T)>>(iter: I) -> Self {
        let mut store = PlayerStore::new();
        for (id, v) in iter {
            store.insert(id, v);
        }
        store
    }
}

/// A handle into a [`SliceArena`]: `start..start + len` of the backing
/// storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Number of items the span covers.
    #[must_use]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// `true` when the span covers nothing.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Arena of immutable variable-length slices: one backing `Vec` plus
/// cheap [`Span`] handles, replacing per-entry `Vec` allocations.
///
/// # Examples
///
/// ```
/// use hc_collect::SliceArena;
///
/// let mut arena = SliceArena::new();
/// let a = arena.alloc([1, 2, 3]);
/// let b = arena.alloc([9]);
/// assert_eq!(arena.get(a), &[1, 2, 3]);
/// assert_eq!(arena.get(b), &[9]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SliceArena<T> {
    items: Vec<T>,
}

impl<T> SliceArena<T> {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        SliceArena { items: Vec::new() }
    }

    /// An empty arena pre-allocated for `capacity` total items.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SliceArena {
            items: Vec::with_capacity(capacity),
        }
    }

    /// Appends the items of `iter` and returns their [`Span`].
    ///
    /// # Panics
    ///
    /// Panics when the arena would exceed `u32::MAX` items.
    pub fn alloc<I: IntoIterator<Item = T>>(&mut self, iter: I) -> Span {
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics contract; spans index with u32 by design"
        )]
        let start = u32::try_from(self.items.len()).expect("arena start fits in u32");
        self.items.extend(iter);
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics contract; spans index with u32 by design"
        )]
        let end = u32::try_from(self.items.len()).expect("arena length fits in u32");
        Span {
            start,
            len: end - start,
        }
    }

    /// The slice behind `span`.
    ///
    /// # Panics
    ///
    /// Panics when `span` does not belong to this arena.
    #[must_use]
    pub fn get(&self, span: Span) -> &[T] {
        &self.items[span.start as usize..(span.start + span.len) as usize] // hc-analyze: allow(P1): documented # Panics contract; a Span is only minted by alloc() on this arena
    }

    /// Total items across all spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no span has been allocated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_take_roundtrip() {
        let mut s = PlayerStore::new();
        assert_eq!(s.insert(3, "x"), None);
        assert_eq!(s.insert(3, "y"), Some("x"));
        assert_eq!(s.get(3), Some(&"y"));
        assert_eq!(s.take(3), Some("y"));
        assert_eq!(s.take(3), None);
        assert!(s.is_empty());
    }

    #[test]
    fn iteration_matches_btreemap_key_order() {
        let ids = [9u64, 0, 4, 7, 2];
        let mut store = PlayerStore::new();
        let mut map = BTreeMap::new();
        for (i, id) in ids.iter().enumerate() {
            store.insert(*id, i);
            map.insert(*id, i);
        }
        let from_store: Vec<(u64, usize)> = store.iter().map(|(id, v)| (id, *v)).collect();
        let from_map: Vec<(u64, usize)> = map.iter().map(|(id, v)| (*id, *v)).collect();
        assert_eq!(from_store, from_map);
    }

    #[test]
    fn strided_store_owns_its_residue_class() {
        let mut s: PlayerStore<u64> = PlayerStore::strided(4, 1);
        for id in [1u64, 5, 9, 13] {
            s.insert(id, id * 10);
        }
        assert!(!s.owns(2));
        assert_eq!(s.get(2), None);
        assert_eq!(s.get(5), Some(&50));
        let ids: Vec<u64> = s.ids().collect();
        assert_eq!(ids, vec![1, 5, 9, 13]);
        // Dense: 4 ids use exactly 4 slots.
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn pair_access_is_order_correct() {
        let mut s = PlayerStore::new();
        s.insert(1, "one");
        s.insert(6, "six");
        let (a, b) = s.get_pair_mut(6, 1).expect("both present");
        assert_eq!((*a, *b), ("six", "one"));
        assert!(s.get_pair_mut(1, 1).is_none());
        assert!(s.get_pair_mut(1, 3).is_none());
    }

    #[test]
    fn from_iterator_collects() {
        let s: PlayerStore<i32> = [(2u64, 20), (0, 0)].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(2), Some(&20));
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn inserting_an_unowned_id_panics() {
        let mut s: PlayerStore<()> = PlayerStore::strided(2, 0);
        s.insert(3, ());
    }

    #[test]
    fn arena_spans_do_not_alias() {
        let mut arena = SliceArena::new();
        let empty = arena.alloc(std::iter::empty());
        let a = arena.alloc(0..5);
        let b = arena.alloc(10..12);
        assert!(empty.is_empty());
        assert_eq!(arena.get(a), &[0, 1, 2, 3, 4]);
        assert_eq!(arena.get(b), &[10, 11]);
        assert_eq!(arena.len(), 7);
        assert_eq!(a.len(), 5);
    }
}
