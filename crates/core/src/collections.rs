//! Small collections shared by every layer of the reproduction.
//!
//! * [`RandomSet`] backs the partial views: they are tiny (5–35 entries),
//!   so a `Vec` with linear scans outperforms hash-based sets while giving
//!   us O(1) uniform random choice — the operation every membership
//!   protocol performs constantly.
//! * [`RecentMap`] is the one FIFO-plus-hash structure of the workspace:
//!   the newest `capacity` keys, each with a value that leaves with its
//!   key. Plumtree's message store is one, keyed by broadcast id; the flood
//!   layers' duplicate suppression, [`RecentSet`], is one without values. A
//!   long-running node cannot afford unbounded history, and FIFO eviction
//!   suits gossip: duplicates arrive within a few round-trips of the original.
//!   Every node holds one, so it stores each key once: a ring of entries in
//!   insertion order plus a compact hash index of ring slots, 20 B per
//!   `u128` id once full (see the type's docs for the layout).

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// An order-insensitive set of identifiers with uniform random sampling.
///
/// Duplicates are rejected on insertion. Removal uses `swap_remove`, so
/// iteration order is unspecified — callers must not rely on it, which is
/// exactly the property a *random* partial view wants.
///
/// # Examples
///
/// ```
/// use hyparview_core::collections::RandomSet;
/// use rand::SeedableRng;
///
/// let mut set = RandomSet::new();
/// set.insert(1u32);
/// set.insert(2);
/// assert!(!set.insert(2), "duplicates are rejected");
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let picked = set.choose(&mut rng).copied();
/// assert!(picked == Some(1) || picked == Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RandomSet<I> {
    items: Vec<I>,
}

impl<I: Copy + Eq> RandomSet<I> {
    /// Creates an empty set.
    pub fn new() -> Self {
        RandomSet { items: Vec::new() }
    }

    /// Creates an empty set with capacity for `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        RandomSet { items: Vec::with_capacity(capacity) }
    }

    /// Number of elements currently stored.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns `true` if `item` is present.
    pub fn contains(&self, item: &I) -> bool {
        self.items.contains(item)
    }

    /// Inserts `item`, returning `true` if it was not already present.
    pub fn insert(&mut self, item: I) -> bool {
        if self.contains(&item) {
            false
        } else {
            self.items.push(item);
            true
        }
    }

    /// Removes `item`, returning `true` if it was present.
    pub fn remove(&mut self, item: &I) -> bool {
        if let Some(pos) = self.items.iter().position(|x| x == item) {
            self.items.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Removes and returns a uniformly random element.
    pub fn remove_random<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<I> {
        if self.items.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..self.items.len());
        Some(self.items.swap_remove(idx))
    }

    /// Returns a reference to a uniformly random element.
    pub fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&I> {
        self.items.choose(rng)
    }

    /// Returns a uniformly random element different from `excluded`, if any.
    pub fn choose_excluding<R: Rng + ?Sized>(&self, rng: &mut R, excluded: &I) -> Option<I> {
        self.choose_where(rng, |x| x != excluded)
    }

    /// Returns a uniformly random element for which `keep` holds. Counts
    /// the matches and takes the k-th without collecting them: the same
    /// element and the same single draw (none when nothing matches) as
    /// choosing from the filtered list.
    pub fn choose_where<R, F>(&self, rng: &mut R, keep: F) -> Option<I>
    where
        R: Rng + ?Sized,
        F: Fn(&I) -> bool,
    {
        let count = self.items.iter().filter(|x| keep(x)).count();
        if count == 0 {
            return None;
        }
        let k = rng.gen_range(0..count);
        self.items.iter().filter(|x| keep(x)).nth(k).copied()
    }

    /// Samples up to `count` distinct elements uniformly at random.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<I> {
        let mut shuffled = self.items.clone();
        shuffled.shuffle(rng);
        shuffled.truncate(count);
        shuffled
    }

    /// Samples up to `count` distinct elements, never returning `excluded`.
    pub fn sample_excluding<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
        excluded: &I,
    ) -> Vec<I> {
        let mut candidates: Vec<I> =
            self.items.iter().filter(|x| *x != excluded).copied().collect();
        candidates.shuffle(rng);
        candidates.truncate(count);
        candidates
    }

    /// Iterates over the elements in unspecified order.
    pub fn iter(&self) -> std::slice::Iter<'_, I> {
        self.items.iter()
    }

    /// Returns the elements as a slice (unspecified order).
    pub fn as_slice(&self) -> &[I] {
        &self.items
    }

    /// Copies the elements into a fresh vector.
    pub fn to_vec(&self) -> Vec<I> {
        self.items.clone()
    }

    /// Removes every element for which `keep` returns `false`.
    pub fn retain<F: FnMut(&I) -> bool>(&mut self, keep: F) {
        self.items.retain(keep);
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl<I: Copy + Eq> FromIterator<I> for RandomSet<I> {
    fn from_iter<T: IntoIterator<Item = I>>(iter: T) -> Self {
        let mut set = RandomSet::new();
        for item in iter {
            set.insert(item);
        }
        set
    }
}

impl<I: Copy + Eq> Extend<I> for RandomSet<I> {
    fn extend<T: IntoIterator<Item = I>>(&mut self, iter: T) {
        for item in iter {
            self.insert(item);
        }
    }
}

impl<'a, I: Copy + Eq> IntoIterator for &'a RandomSet<I> {
    type Item = &'a I;
    type IntoIter = std::slice::Iter<'a, I>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<I: Copy + Eq> IntoIterator for RandomSet<I> {
    type Item = I;
    type IntoIter = std::vec::IntoIter<I>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

/// A FIFO-bounded map: the `capacity` most recently inserted keys, one
/// value each. A new key entering a full map evicts the oldest key *and its
/// value*; re-inserting a present key neither refreshes nor overwrites it.
/// A caller with a second bound of its own (an age, say) reads the old end
/// with [`RecentMap::oldest`] and trims it with [`RecentMap::pop_oldest`].
///
/// # Layout
///
/// Each key is stored once, beside its value, in a ring of `(K, V)`
/// entries in insertion order. A hash index of ring slots finds it: open
/// addressing with linear probing, at most half full, `u16` slots while the
/// map holds at most 32,768 entries and `u32` beyond. Removing the oldest
/// entry shifts its probe chain back over the freed slot, so no tombstone
/// is left behind. The hash is `std`'s keyed `RandomState`: live ids come
/// off the wire, and an unkeyed hash would let a sender aim them all at one
/// probe chain. Ring and index grow on demand by doubling, the ring never
/// past `capacity`: a huge capacity costs nothing up front.
///
/// An entry costs `size_of::<(K, V)>()` in the ring plus 4 to 8 bytes of
/// index (two to four `u16` slots). A full `RecentSet<u128>` of 128 ids
/// holds 2,560 B, 20 B per id, and one of 8,192 ids 163,840 B
/// (`tests/footprint.rs` holds both).
///
/// ```
/// use hyparview_core::collections::RecentMap;
///
/// let mut cache: RecentMap<u64, &str> = RecentMap::new(2);
/// assert_eq!(cache.insert(1, "a"), (true, None));
/// assert_eq!(cache.insert(1, "b"), (false, None), "first value wins");
/// cache.insert(2, "c");
/// assert_eq!(cache.insert(3, "d"), (true, Some(1)), "oldest key evicted");
/// assert_eq!((cache.get(&1), cache.get(&2)), (None, Some(&"c")));
/// assert_eq!(cache.values().collect::<Vec<_>>(), [&"c", &"d"], "oldest first");
/// ```
#[derive(Clone)]
pub struct RecentMap<K, V> {
    /// The entries, oldest first.
    ring: VecDeque<(K, V)>,
    /// Ring entries by key hash: `ring[p]` is tagged `front + p`.
    index: Index,
    /// The tag of `ring[0]`. Popping the oldest entry raises it instead of
    /// renumbering the rest; tags are renumbered from 0 when the next one
    /// would not fit a slot.
    front: usize,
    hasher: RandomState,
    capacity: usize,
}

/// The index's slots, as narrow as the number of entries allows.
#[derive(Clone)]
enum Index {
    Narrow(Box<[u16]>),
    Wide(Box<[u32]>),
}

/// Binds `$slots` to the index's slots, whichever their width, for `$body`.
macro_rules! with_slots {
    ($index:expr, $slots:ident => $body:expr) => {
        match $index {
            Index::Narrow($slots) => $body,
            Index::Wide($slots) => $body,
        }
    };
}

/// One slot of the index: a ring entry's tag, or [`Slot::FREE`].
trait Slot: Copy + Eq {
    /// The free slot, one past the largest tag.
    const FREE: Self;
    fn from_tag(tag: usize) -> Self;
    fn tag(self) -> usize;
}

impl Slot for u16 {
    const FREE: u16 = u16::MAX;
    fn from_tag(tag: usize) -> u16 {
        tag as u16
    }
    fn tag(self) -> usize {
        usize::from(self)
    }
}

impl Slot for u32 {
    const FREE: u32 = u32::MAX;
    fn from_tag(tag: usize) -> u32 {
        tag as u32
    }
    fn tag(self) -> usize {
        self as usize
    }
}

/// Probes from `hash`'s home slot for the entry whose ring position (its
/// tag less `front`) satisfies `is`: its slot and position, or the first
/// free slot on the way.
fn probe<S: Slot>(
    slots: &[S],
    hash: u64,
    front: usize,
    mut is: impl FnMut(usize) -> bool,
) -> Result<(usize, usize), usize> {
    let mask = slots.len() - 1;
    let mut i = hash as usize & mask;
    loop {
        let slot = slots[i];
        if slot == S::FREE {
            return Err(i);
        }
        if is(slot.tag() - front) {
            return Ok((i, slot.tag() - front));
        }
        i = (i + 1) & mask;
    }
}

/// Indexes ring position `at` under `hash`, first renumbering the tags from
/// 0 if `front + at` would not fit a slot.
fn link<S: Slot>(slots: &mut [S], hash: u64, front: &mut usize, at: usize) {
    if *front + at >= S::FREE.tag() {
        for slot in slots.iter_mut().filter(|slot| **slot != S::FREE) {
            *slot = S::from_tag(slot.tag() - *front);
        }
        *front = 0;
    }
    let free = probe(slots, hash, *front, |_| false).unwrap_err();
    slots[free] = S::from_tag(*front + at);
}

/// Frees slot `hole` and shifts the rest of its probe chain back into it:
/// a slot moves when its home (`home` of its tag) is not cyclically after
/// the hole, so every entry stays reachable from its home.
fn unlink<S: Slot>(slots: &mut [S], mut hole: usize, mut home: impl FnMut(usize) -> usize) {
    let mask = slots.len() - 1;
    let mut i = hole;
    loop {
        i = (i + 1) & mask;
        let slot = slots[i];
        if slot == S::FREE {
            break;
        }
        if i.wrapping_sub(home(slot.tag())) & mask >= i.wrapping_sub(hole) & mask {
            slots[hole] = slot;
            hole = i;
        }
    }
    slots[hole] = S::FREE;
}

impl<K: Copy + Eq + Hash, V> RecentMap<K, V> {
    /// Creates a map remembering at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        RecentMap {
            ring: VecDeque::new(),
            index: Index::Narrow(Box::default()),
            front: 0,
            hasher: RandomState::new(),
            capacity,
        }
    }

    fn hash(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    /// The ring position of `key`, whose hash is `hash`.
    fn find(&self, key: &K, hash: u64) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        let ring = &self.ring;
        with_slots!(&self.index, slots => probe(slots, hash, self.front, |at| ring[at].0 == *key))
            .ok()
            .map(|(_, at)| at)
    }

    /// Inserts `value` under `key` unless the key is present (one probe);
    /// returns whether it was new and the key evicted for it, if any.
    pub fn insert(&mut self, key: K, value: V) -> (bool, Option<K>) {
        let hash = self.hash(&key);
        if self.find(&key, hash).is_some() {
            return (false, None);
        }
        let evicted = if self.ring.len() >= self.capacity { self.pop_oldest() } else { None };
        let at = self.ring.len();
        if at == self.ring.capacity() {
            self.ring.reserve_exact(at.max(4).min(self.capacity - at));
        }
        let slots = with_slots!(&self.index, slots => slots.len());
        if 2 * (at + 1) > slots {
            self.reindex((2 * (at + 1)).next_power_of_two());
        }
        with_slots!(&mut self.index, slots => link(slots, hash, &mut self.front, at));
        self.ring.push_back((key, value));
        (true, evicted.map(|(key, _)| key))
    }

    /// Indexes every entry afresh in `slots` free slots, the oldest tagged 0.
    fn reindex(&mut self, slots: usize) {
        self.front = 0;
        self.index = if slots <= 1 << 16 {
            Index::Narrow(vec![u16::FREE; slots].into())
        } else {
            assert!(slots / 2 < u32::FREE.tag(), "a RecentMap indexes fewer than 2^32 entries");
            Index::Wide(vec![u32::FREE; slots].into())
        };
        for (at, (key, _)) in self.ring.iter().enumerate() {
            let hash = self.hasher.hash_one(key);
            with_slots!(&mut self.index, slots => link(slots, hash, &mut self.front, at));
        }
    }

    /// Whether `key` is currently remembered.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key, self.hash(key)).is_some()
    }

    /// The value remembered for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key, self.hash(key)).map(|at| &self.ring[at].1)
    }

    /// Mutable access to the value remembered for `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key, self.hash(key)).map(|at| &mut self.ring[at].1)
    }

    /// The key inserted longest ago among those remembered, with its value.
    pub fn oldest(&self) -> Option<(&K, &V)> {
        self.ring.front().map(|(key, value)| (key, value))
    }

    /// The remembered values, oldest first.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.ring.iter().map(|(_, value)| value)
    }

    /// Mutable access to the remembered values, oldest first.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.ring.iter_mut().map(|(_, value)| value)
    }

    /// Forgets the oldest key and hands it back with its value.
    pub fn pop_oldest(&mut self) -> Option<(K, V)> {
        let (oldest, _) = self.ring.front()?;
        let (ring, hasher, front) = (&self.ring, &self.hasher, self.front);
        let hash = hasher.hash_one(oldest);
        let home = |tag: usize| hasher.hash_one(ring[tag - front].0) as usize;
        with_slots!(&mut self.index, slots => {
            let (hole, _) = probe(slots, hash, front, |at| at == 0).expect("every entry indexed");
            unlink(slots, hole, home);
        });
        self.front += 1;
        self.ring.pop_front()
    }

    /// Number of remembered keys.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The maximum number of keys remembered at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Forgets every key and value (capacity is unchanged, and so is the
    /// storage grown so far).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.reindex(with_slots!(&self.index, slots => slots.len()));
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for RecentMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.ring.iter().map(|(key, value)| (key, value))).finish()
    }
}

/// A FIFO-bounded set of recently seen identifiers: a [`RecentMap`] with no
/// values.
///
/// ```
/// use hyparview_core::collections::RecentSet;
///
/// let mut seen: RecentSet<u64> = RecentSet::new(2);
/// assert!(seen.insert(1));
/// assert!(!seen.insert(1), "duplicate detected");
/// seen.insert(2);
/// seen.insert(3); // evicts 1
/// assert!(seen.insert(1), "evicted ids are forgotten");
/// ```
#[derive(Debug, Clone)]
pub struct RecentSet<T>(RecentMap<T, ()>);

impl<T: Copy + Eq + Hash> RecentSet<T> {
    /// Capacity value that in practice never evicts.
    pub const UNBOUNDED: usize = usize::MAX;

    /// Creates a set remembering at most `capacity` identifiers (panics on
    /// zero, as [`RecentMap::new`]).
    pub fn new(capacity: usize) -> Self {
        RecentSet(RecentMap::new(capacity))
    }

    /// Inserts `id`, returning `true` if it was not already present.
    /// Evicts the oldest id when full.
    pub fn insert(&mut self, id: T) -> bool {
        self.0.insert(id, ()).0
    }

    /// Whether `id` is currently remembered.
    pub fn contains(&self, id: &T) -> bool {
        self.0.contains_key(id)
    }

    /// Number of remembered ids.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The maximum number of ids remembered at once.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Forgets every remembered id (capacity is unchanged).
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{HashMap, HashSet};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD15C0)
    }

    #[test]
    fn recent_set_insert_and_contains() {
        let mut s: RecentSet<u32> = RecentSet::new(4);
        assert!(s.insert(1));
        assert!(s.contains(&1));
        assert!(!s.insert(1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn recent_set_eviction_is_fifo() {
        let mut s: RecentSet<u32> = RecentSet::new(3);
        for i in 0..3 {
            s.insert(i);
        }
        assert!(s.insert(3));
        assert!(!s.contains(&0));
        assert!(s.contains(&1));
        assert!(s.contains(&3));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn recent_set_duplicate_insert_does_not_evict() {
        let mut s: RecentSet<u32> = RecentSet::new(2);
        s.insert(1);
        s.insert(2);
        assert!(!s.insert(2));
        assert!(s.contains(&1), "duplicate must not trigger eviction");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn recent_set_zero_capacity_panics() {
        let _: RecentSet<u32> = RecentSet::new(0);
    }

    #[test]
    fn recent_set_unbounded_capacity_is_cheap() {
        let mut s: RecentSet<u64> = RecentSet::new(RecentSet::<u64>::UNBOUNDED);
        for i in 0..10_000 {
            assert!(s.insert(i));
        }
        assert!(s.contains(&0), "nothing was evicted");
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.capacity(), RecentSet::<u64>::UNBOUNDED);
    }

    #[test]
    fn recent_set_clear_forgets() {
        let mut s: RecentSet<u32> = RecentSet::new(8);
        s.insert(5);
        s.clear();
        assert!(s.is_empty());
        assert!(s.insert(5));
    }

    /// The parent commit's `RecentSet` (hash set + FIFO, reporting the
    /// evicted id) with a side `HashMap` kept in sync by hand: the layout
    /// `RecentMap` replaced, kept here as the reference model.
    struct SetPlusMap {
        set: HashSet<u128>,
        order: VecDeque<u128>,
        values: HashMap<u128, u32>,
        capacity: usize,
    }

    impl SetPlusMap {
        fn insert(&mut self, key: u128, value: u32) -> (bool, Option<u128>) {
            if self.set.contains(&key) {
                return (false, None);
            }
            let mut evicted = None;
            if self.order.len() >= self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.set.remove(&oldest);
                    self.values.remove(&oldest);
                    evicted = Some(oldest);
                }
            }
            self.order.push_back(key);
            self.set.insert(key);
            self.values.insert(key, value);
            (true, evicted)
        }

        fn oldest(&self) -> Option<(&u128, &u32)> {
            let key = self.order.front()?;
            Some((key, &self.values[key]))
        }

        fn pop_oldest(&mut self) -> Option<(u128, u32)> {
            let key = self.order.pop_front()?;
            self.set.remove(&key);
            Some((key, self.values.remove(&key).expect("a value per remembered key")))
        }
    }

    /// Drives `map` and a fresh model through `steps` random operations on
    /// keys below `universe`: a steady mix of first sights, re-inserts of
    /// live keys and returns of evicted ones, with the old end trimmed by
    /// hand in between. Every key's membership and value, and the values in
    /// FIFO order, are compared as often as half a million key lookups allow
    /// (at every step for the small maps). Returns the most keys held at
    /// once.
    fn drive(map: &mut RecentMap<u128, u32>, universe: u128, steps: u32, seed: u64) -> usize {
        let capacity = map.capacity();
        let mut r = StdRng::seed_from_u64(seed);
        let mut model = SetPlusMap {
            set: HashSet::new(),
            order: VecDeque::new(),
            values: HashMap::new(),
            capacity,
        };
        let every = (u128::from(steps) * universe / 500_000).max(1) as u32;
        let mut most = 0;
        for step in 0..steps {
            let key = r.gen_range(0..universe);
            match r.gen_range(0..6) {
                0..=2 => assert_eq!(
                    map.insert(key, step),
                    model.insert(key, step),
                    "insert {key} at step {step}, capacity {capacity}"
                ),
                3 => assert_eq!(map.pop_oldest(), model.pop_oldest(), "pop at step {step}"),
                4 => {
                    let update = |v: &mut u32| {
                        *v = v.wrapping_mul(31) ^ step;
                        *v
                    };
                    assert_eq!(
                        map.get_mut(&key).map(update),
                        model.values.get_mut(&key).map(update),
                        "get_mut {key} at step {step}"
                    );
                }
                _ => assert_eq!(map.get(&key), model.values.get(&key), "get {key}"),
            }
            assert_eq!(map.len(), model.set.len());
            assert!(map.len() <= capacity && map.capacity() == capacity);
            assert_eq!(map.oldest(), model.oldest(), "oldest at step {step}");
            most = most.max(map.len());
            if step % every == 0 || step + 1 == steps {
                for k in 0..universe {
                    assert_eq!(map.contains_key(&k), model.set.contains(&k), "membership of {k}");
                    assert_eq!(map.get(&k), model.values.get(&k), "value of {k}");
                }
                let fifo = model.order.iter().map(|k| &model.values[k]);
                assert!(map.values().eq(fifo), "values oldest first at step {step}");
            }
        }
        most
    }

    #[test]
    fn recent_map_matches_the_set_plus_map_pair_it_replaced() {
        // The first four as before the ring; 128 fills its index exactly
        // half, 129 and 1,000 stop the ring's doubling short of a power of
        // two; 3 keys over 300,000 steps (about 100,000 first sights)
        // renumber the `u16` tags; the unbounded map passes 70,000 keys,
        // well past the switch to `u32` slots at 32,768.
        let unbounded = RecentSet::<u128>::UNBOUNDED;
        for (capacity, steps) in
            [(1, 4_000), (2, 4_000), (7, 4_000), (64, 4_000), (128, 4_000), (129, 4_000)]
                .into_iter()
                .chain([(1_000, 4_000), (3, 300_000), (unbounded, 300_000)])
        {
            let universe = if capacity == unbounded { 1 << 18 } else { 3 * capacity as u128 + 1 };
            let seed = 0x5EED ^ capacity as u64;
            let mut map: RecentMap<u128, u32> = RecentMap::new(capacity);
            let most = drive(&mut map, universe, steps, seed);
            assert!(capacity != unbounded || most > 70_000, "held at most {most} keys");
            map.clear();
            assert!(map.is_empty() && !map.contains_key(&0) && map.values().next().is_none());
            assert!(map.oldest().is_none() && map.pop_oldest().is_none());
            assert_eq!(map.insert(0, 1), (true, None), "a cleared map evicts nothing");
            map.clear();
            // The storage grown by the first run, reused.
            drive(&mut map, universe, 1_000, !seed);
        }
    }

    #[test]
    fn insert_rejects_duplicates() {
        let mut s = RandomSet::new();
        assert!(s.insert(5u32));
        assert!(!s.insert(5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_present_and_absent() {
        let mut s: RandomSet<u32> = [1, 2, 3].into_iter().collect();
        assert!(s.remove(&2));
        assert!(!s.remove(&2));
        assert_eq!(s.len(), 2);
        assert!(!s.contains(&2));
    }

    #[test]
    fn remove_random_empties_the_set() {
        let mut s: RandomSet<u32> = (0..10).collect();
        let mut r = rng();
        let mut seen = Vec::new();
        while let Some(x) = s.remove_random(&mut r) {
            seen.push(x);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(s.is_empty());
        assert_eq!(s.remove_random(&mut r), None);
    }

    #[test]
    fn choose_excluding_never_returns_excluded() {
        let s: RandomSet<u32> = [1, 2].into_iter().collect();
        let mut r = rng();
        for _ in 0..64 {
            assert_eq!(s.choose_excluding(&mut r, &1), Some(2));
        }
        let lone: RandomSet<u32> = [1].into_iter().collect();
        assert_eq!(lone.choose_excluding(&mut r, &1), None);
    }

    #[test]
    fn choose_where_respects_predicate() {
        let s: RandomSet<u32> = (0..10).collect();
        let mut r = rng();
        for _ in 0..32 {
            let even = s.choose_where(&mut r, |x| x % 2 == 0).unwrap();
            assert_eq!(even % 2, 0);
        }
        assert_eq!(s.choose_where(&mut r, |_| false), None);
    }

    #[test]
    fn choose_where_draws_as_choosing_from_the_filtered_list() {
        // The k-th match of one `gen_range(0..count)` draw: the same element
        // and the same generator state as collecting the matches and
        // choosing among them, and no draw at all when nothing matches.
        let s: RandomSet<u32> = (0..12).collect();
        let (mut counted, mut collected) = (rng(), rng());
        for modulus in [1, 2, 3, 5, 7, 13] {
            let keep = |x: &u32| x % modulus == 1 % modulus;
            let filtered: Vec<u32> = s.iter().copied().filter(keep).collect();
            assert_eq!(
                s.choose_where(&mut counted, keep),
                filtered.choose(&mut collected).copied()
            );
            assert_eq!(counted.gen_range(0..u64::MAX), collected.gen_range(0..u64::MAX));
        }
        assert_eq!(s.choose_where(&mut counted, |x| *x > 100), None);
        assert_eq!(counted.gen_range(0..u64::MAX), collected.gen_range(0..u64::MAX), "no draw");
    }

    #[test]
    fn sample_is_distinct_and_bounded() {
        let s: RandomSet<u32> = (0..10).collect();
        let mut r = rng();
        let sample = s.sample(&mut r, 4);
        assert_eq!(sample.len(), 4);
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
        assert_eq!(s.sample(&mut r, 100).len(), 10, "sample caps at set size");
    }

    #[test]
    fn sample_excluding_omits_element() {
        let s: RandomSet<u32> = (0..5).collect();
        let mut r = rng();
        for _ in 0..32 {
            let sample = s.sample_excluding(&mut r, 5, &3);
            assert_eq!(sample.len(), 4);
            assert!(!sample.contains(&3));
        }
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let s: RandomSet<u32> = (0..4).collect();
        let mut r = rng();
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[*s.choose(&mut r).unwrap() as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts skewed: {counts:?}");
        }
    }

    #[test]
    fn retain_filters() {
        let mut s: RandomSet<u32> = (0..10).collect();
        s.retain(|x| x % 2 == 0);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|x| x % 2 == 0));
    }

    #[test]
    fn extend_and_collect_dedup() {
        let mut s: RandomSet<u32> = [1, 1, 2].into_iter().collect();
        s.extend([2, 3, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn into_iterator_yields_all() {
        let s: RandomSet<u32> = (0..3).collect();
        let mut owned: Vec<u32> = s.clone().into_iter().collect();
        owned.sort_unstable();
        assert_eq!(owned, vec![0, 1, 2]);
        let mut borrowed: Vec<u32> = (&s).into_iter().copied().collect();
        borrowed.sort_unstable();
        assert_eq!(borrowed, vec![0, 1, 2]);
    }
}
