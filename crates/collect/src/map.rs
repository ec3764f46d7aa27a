//! [`DetMap`]: a deterministic open-addressing hash map with
//! insertion-order iteration.
//!
//! Layout follows the indexed-map idea: entries live densely in a `Vec`
//! (so iteration is a linear scan in insertion order) and a separate
//! power-of-two probe table stores indices into that `Vec`. Probing is
//! linear with the seed-free [`FxHasher`](crate::FxHasher) mixer, so the
//! same sequence of operations always produces the same layout — there
//! is no per-process entropy anywhere.
//!
//! Removal uses backward-shift deletion (no tombstones) and preserves
//! insertion order of the surviving entries, matching what a
//! re-insertion replay would produce.

use crate::hash::hash_one;
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Borrow;
use std::hash::Hash;

/// Sentinel for an unoccupied probe-table slot.
pub(crate) const EMPTY: usize = usize::MAX;

/// Smallest allocated probe table.
pub(crate) const MIN_TABLE: usize = 8;

/// Picks a probe-table size that holds `n` entries under the 3/4 load
/// ceiling without regrowing.
pub(crate) fn table_for(n: usize) -> usize {
    (n.saturating_mul(4) / 3 + 1)
        .next_power_of_two()
        .max(MIN_TABLE)
}

enum Slot {
    /// The key is present: its probe slot and entry index.
    Present { slot: usize, index: usize },
    /// The key is absent; this is the slot it would occupy.
    Absent { slot: usize },
}

/// A deterministic hash map: O(1) seed-free hashing, insertion-order
/// iteration, [`iter_sorted`](DetMap::iter_sorted) for serialization
/// boundaries.
///
/// # Examples
///
/// ```
/// use hc_collect::DetMap;
///
/// let mut m = DetMap::new();
/// m.insert("b", 2);
/// m.insert("a", 1);
/// // Iteration follows insertion order...
/// assert_eq!(m.iter().map(|(k, _)| *k).collect::<Vec<_>>(), ["b", "a"]);
/// // ...and the sorted view matches what a BTreeMap would yield.
/// assert_eq!(m.iter_sorted().map(|(k, _)| *k).collect::<Vec<_>>(), ["a", "b"]);
/// ```
#[derive(Clone)]
pub struct DetMap<K, V> {
    entries: Vec<(K, V)>,
    table: Vec<usize>,
    mask: usize,
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap {
            entries: Vec::new(),
            table: Vec::new(),
            mask: 0,
        }
    }
}

impl<K, V> DetMap<K, V> {
    /// An empty map (no allocation until the first insert).
    #[must_use]
    pub fn new() -> Self {
        DetMap::default()
    }

    /// An empty map pre-sized to hold `capacity` entries without
    /// rehashing.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity == 0 {
            return DetMap::default();
        }
        let table_len = table_for(capacity);
        DetMap {
            entries: Vec::with_capacity(capacity),
            table: vec![EMPTY; table_len],
            mask: table_len - 1,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every entry, keeping allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        for slot in &mut self.table {
            *slot = EMPTY;
        }
    }

    /// The dense entry slice, for sibling modules building concrete
    /// iterator types.
    pub(crate) fn raw_entries(&self) -> &[(K, V)] {
        &self.entries
    }

    /// Iterates `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Iterates `(key, value)` pairs in **sorted key order** — the
    /// serialization boundary: use this wherever bytes or float
    /// accumulation depend on visit order, and the output matches what
    /// the same data in a `BTreeMap` would produce.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (&K, &V)>
    where
        K: Ord,
    {
        let mut refs: Vec<(&K, &V)> = self.entries.iter().map(|(k, v)| (k, v)).collect();
        refs.sort_by(|a, b| a.0.cmp(b.0));
        refs.into_iter()
    }
}

impl<K: Hash + Eq, V> DetMap<K, V> {
    fn find_slot<Q>(&self, key: &Q) -> Slot
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        debug_assert!(!self.table.is_empty());
        let mask = self.mask;
        let mut slot = (hash_one(key) as usize) & mask;
        loop {
            let index = self.table[slot];
            if index == EMPTY {
                return Slot::Absent { slot };
            }
            if self.entries[index].0.borrow() == key {
                return Slot::Present { slot, index };
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Grows (or first allocates) the probe table so one more entry
    /// stays under the 3/4 load ceiling — which also guarantees the
    /// probe loop always finds an empty slot.
    fn grow_for_one_more(&mut self) {
        let needed = self.entries.len() + 1;
        if self.table.is_empty() {
            self.rebuild_table(table_for(needed));
        } else if needed * 4 > self.table.len() * 3 {
            self.rebuild_table(self.table.len() * 2);
        }
    }

    fn rebuild_table(&mut self, table_len: usize) {
        self.table = vec![EMPTY; table_len];
        self.mask = table_len - 1;
        for (index, (key, _)) in self.entries.iter().enumerate() {
            let mut slot = (hash_one(key) as usize) & self.mask;
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.table[slot] = index;
        }
    }

    /// Inserts a key-value pair, returning the previous value if the key
    /// was present. A replaced key keeps its original insertion position.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.grow_for_one_more();
        match self.find_slot(&key) {
            Slot::Present { index, .. } => {
                Some(std::mem::replace(&mut self.entries[index].1, value))
            }
            Slot::Absent { slot } => {
                self.table[slot] = self.entries.len();
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Looks up a value.
    #[must_use]
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.table.is_empty() {
            return None;
        }
        match self.find_slot(key) {
            Slot::Present { index, .. } => self.entries.get(index).map(|(_, v)| v),
            Slot::Absent { .. } => None,
        }
    }

    /// Looks up a value mutably.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.table.is_empty() {
            return None;
        }
        match self.find_slot(key) {
            Slot::Present { index, .. } => self.entries.get_mut(index).map(|(_, v)| v),
            Slot::Absent { .. } => None,
        }
    }

    /// `true` when `key` is present.
    #[must_use]
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Removes a key, returning its value. Surviving entries keep their
    /// relative insertion order (shift-remove semantics), so iteration
    /// stays deterministic across an arbitrary insert/remove history.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.table.is_empty() {
            return None;
        }
        let (slot, index) = match self.find_slot(key) {
            Slot::Present { slot, index } => (slot, index),
            Slot::Absent { .. } => return None,
        };
        self.backshift(slot);
        let (_, value) = self.entries.remove(index);
        // Entries above the removed one shifted down by one; fix the
        // probe table to match.
        for entry_index in &mut self.table {
            if *entry_index != EMPTY && *entry_index > index {
                *entry_index -= 1;
            }
        }
        Some(value)
    }

    /// Backward-shift deletion for linear probing: walk the cluster
    /// after the freed slot and pull each entry back if its probe path
    /// crossed the hole, so later lookups never need tombstones.
    fn backshift(&mut self, mut free: usize) {
        let mask = self.mask;
        self.table[free] = EMPTY;
        let mut cursor = (free + 1) & mask;
        loop {
            let occupant = self.table[cursor];
            if occupant == EMPTY {
                break;
            }
            let home = (hash_one(&self.entries[occupant].0) as usize) & mask;
            let from_home = cursor.wrapping_sub(home) & mask;
            let from_free = cursor.wrapping_sub(free) & mask;
            if from_home >= from_free {
                self.table[free] = occupant;
                self.table[cursor] = EMPTY;
                free = cursor;
            }
            cursor = (cursor + 1) & mask;
        }
    }

    /// Gets the entry for in-place manipulation (`or_insert`,
    /// `and_modify`, …), mirroring the std `entry` API.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.grow_for_one_more();
        match self.find_slot(&key) {
            Slot::Present { index, .. } => Entry::Occupied(OccupiedEntry { map: self, index }),
            Slot::Absent { slot } => Entry::Vacant(VacantEntry {
                map: self,
                key,
                slot,
            }),
        }
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for DetMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Order-insensitive equality: two maps are equal when they hold the
/// same key-value pairs, regardless of insertion history.
impl<K: Hash + Eq, V: PartialEq> PartialEq for DetMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Hash + Eq, V: Eq> Eq for DetMap<K, V> {}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut map = DetMap::with_capacity(iter.size_hint().0);
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Hash + Eq, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

fn split_pair<K, V>(entry: &(K, V)) -> (&K, &V) {
    (&entry.0, &entry.1)
}

impl<'a, K, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries
            .iter()
            .map(split_pair as fn(&'a (K, V)) -> (&'a K, &'a V))
    }
}

impl<K, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// Serializes in **sorted key order** — byte-identical to the same data
/// held in a `BTreeMap` (an array of `[key, value]` pairs).
impl<K: Serialize + Hash + Eq + Ord, V: Serialize> Serialize for DetMap<K, V> {
    fn serialize_value(&self) -> Value {
        Value::Array(
            self.iter_sorted()
                .map(|(k, v)| Value::Array(vec![k.serialize_value(), v.serialize_value()]))
                .collect(),
        )
    }
}

impl<'de, K, V> Deserialize<'de> for DetMap<K, V>
where
    K: Deserialize<'de> + Hash + Eq,
    V: Deserialize<'de>,
{
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => {
                let mut map = DetMap::with_capacity(items.len());
                for pair in items {
                    match pair {
                        Value::Array(kv) if kv.len() == 2 => {
                            map.insert(
                                K::deserialize_value(&kv[0])?,
                                V::deserialize_value(&kv[1])?,
                            );
                        }
                        other => return Err(DeError::expected("[key, value] pair", other)),
                    }
                }
                Ok(map)
            }
            other => Err(DeError::expected("map as array of pairs", other)),
        }
    }
}

/// A view into a single map slot, occupied or vacant.
#[derive(Debug)]
pub enum Entry<'a, K, V> {
    /// The key is present.
    Occupied(OccupiedEntry<'a, K, V>),
    /// The key is absent.
    Vacant(VacantEntry<'a, K, V>),
}

impl<'a, K: Hash + Eq, V> Entry<'a, K, V> {
    /// Inserts `default` if vacant; returns the value either way.
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// Inserts `default()` if vacant; returns the value either way.
    pub fn or_insert_with<F: FnOnce() -> V>(self, default: F) -> &'a mut V {
        match self {
            Entry::Occupied(occupied) => occupied.into_mut(),
            Entry::Vacant(vacant) => vacant.insert(default()),
        }
    }

    /// Inserts `V::default()` if vacant; returns the value either way.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }

    /// Mutates the value in place if occupied; no-op when vacant.
    #[must_use]
    pub fn and_modify<F: FnOnce(&mut V)>(self, f: F) -> Self {
        match self {
            Entry::Occupied(mut occupied) => {
                f(occupied.get_mut());
                Entry::Occupied(occupied)
            }
            vacant @ Entry::Vacant(_) => vacant,
        }
    }

    /// The entry's key.
    #[must_use]
    pub fn key(&self) -> &K {
        match self {
            Entry::Occupied(occupied) => occupied.key(),
            Entry::Vacant(vacant) => &vacant.key,
        }
    }
}

/// An occupied slot in a [`DetMap`].
#[derive(Debug)]
pub struct OccupiedEntry<'a, K, V> {
    map: &'a mut DetMap<K, V>,
    index: usize,
}

impl<'a, K, V> OccupiedEntry<'a, K, V> {
    /// The entry's key.
    #[must_use]
    pub fn key(&self) -> &K {
        &self.map.entries[self.index].0
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> &V {
        &self.map.entries[self.index].1
    }

    /// The current value, mutably.
    pub fn get_mut(&mut self) -> &mut V {
        &mut self.map.entries[self.index].1
    }

    /// Consumes the view, returning a long-lived mutable reference.
    #[must_use]
    pub fn into_mut(self) -> &'a mut V {
        &mut self.map.entries[self.index].1
    }

    /// Replaces the value, returning the old one.
    pub fn insert(&mut self, value: V) -> V {
        std::mem::replace(self.get_mut(), value)
    }
}

/// A vacant slot in a [`DetMap`].
#[derive(Debug)]
pub struct VacantEntry<'a, K, V> {
    map: &'a mut DetMap<K, V>,
    key: K,
    slot: usize,
}

impl<'a, K, V> VacantEntry<'a, K, V> {
    /// The key that would be inserted.
    #[must_use]
    pub fn key(&self) -> &K {
        &self.key
    }

    /// Inserts `value` under the entry's key.
    pub fn insert(self, value: V) -> &'a mut V {
        let index = self.map.entries.len();
        self.map.table[self.slot] = index;
        self.map.entries.push((self.key, value));
        &mut self.map.entries[index].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_replace() {
        let mut m = DetMap::new();
        assert_eq!(m.insert("a", 1), None);
        assert_eq!(m.insert("a", 2), Some(1));
        assert_eq!(m.get("a"), Some(&2));
        assert_eq!(m.get("b"), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut m = DetMap::new();
        for k in ["zebra", "apple", "mango"] {
            m.insert(k, ());
        }
        let keys: Vec<&str> = m.keys().copied().collect();
        assert_eq!(keys, ["zebra", "apple", "mango"]);
        let sorted: Vec<&str> = m.iter_sorted().map(|(k, _)| *k).collect();
        assert_eq!(sorted, ["apple", "mango", "zebra"]);
    }

    #[test]
    fn growth_preserves_contents_and_order() {
        let mut m = DetMap::new();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        let keys: Vec<u64> = m.keys().copied().collect();
        assert_eq!(keys, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn remove_preserves_survivor_order() {
        let mut m = DetMap::new();
        for i in 0..10u64 {
            m.insert(i, i);
        }
        assert_eq!(m.remove(&3), Some(3));
        assert_eq!(m.remove(&3), None);
        assert_eq!(m.remove(&7), Some(7));
        let keys: Vec<u64> = m.keys().copied().collect();
        assert_eq!(keys, [0, 1, 2, 4, 5, 6, 8, 9]);
        for k in keys {
            assert_eq!(m.get(&k), Some(&k));
        }
    }

    #[test]
    fn removal_keeps_probe_clusters_reachable() {
        // Dense u64 keys form long linear-probe clusters; deleting from
        // the middle must not orphan anything behind the hole.
        let mut m = DetMap::new();
        for i in 0..256u64 {
            m.insert(i, i);
        }
        for i in (0..256u64).step_by(2) {
            assert_eq!(m.remove(&i), Some(i));
        }
        for i in 0..256u64 {
            if i % 2 == 1 {
                assert_eq!(m.get(&i), Some(&i));
            } else {
                assert_eq!(m.get(&i), None);
            }
        }
    }

    #[test]
    fn entry_api_matches_std_semantics() {
        let mut m: DetMap<String, u64> = DetMap::new();
        *m.entry("x".to_string()).or_insert(0) += 5;
        *m.entry("x".to_string()).or_insert(0) += 7;
        assert_eq!(m.get("x"), Some(&12));
        m.entry("y".to_string())
            .and_modify(|v| *v += 1)
            .or_insert(100);
        assert_eq!(m.get("y"), Some(&100));
        m.entry("y".to_string())
            .and_modify(|v| *v += 1)
            .or_insert(100);
        assert_eq!(m.get("y"), Some(&101));
        let n: &mut u64 = m.entry("z".to_string()).or_default();
        assert_eq!(*n, 0);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = DetMap::new();
        a.insert(1u64, "one");
        a.insert(2, "two");
        let mut b = DetMap::new();
        b.insert(2u64, "two");
        b.insert(1, "one");
        assert_eq!(a, b);
        b.insert(3, "three");
        assert_ne!(a, b);
    }

    #[test]
    fn with_capacity_never_rehashes_under_the_cap() {
        let mut m = DetMap::with_capacity(100);
        let table_len = m.table.len();
        for i in 0..100u64 {
            m.insert(i, ());
        }
        assert_eq!(m.table.len(), table_len, "pre-sized table regrew");
    }

    #[test]
    fn serializes_like_a_btreemap() {
        use std::collections::BTreeMap;
        let mut det = DetMap::new();
        det.insert("b".to_string(), 2u64);
        det.insert("a".to_string(), 1u64);
        let mut btree = BTreeMap::new();
        btree.insert("b".to_string(), 2u64);
        btree.insert("a".to_string(), 1u64);
        assert_eq!(det.serialize_value(), btree.serialize_value());
        let back: DetMap<String, u64> =
            Deserialize::deserialize_value(&det.serialize_value()).expect("round-trip");
        assert_eq!(back, det);
    }

    #[test]
    fn clear_keeps_the_map_usable() {
        let mut m = DetMap::new();
        m.insert(1u64, 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
        m.insert(2, 2);
        assert_eq!(m.get(&2), Some(&2));
    }
}
