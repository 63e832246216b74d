//! A small exact-LRU cache used for ownership hints.
//!
//! ASVM's dynamic and static forwarding information lives in caches "for
//! the most recently accessed pages" (paper §3.4, FIGURE 6); capacity
//! bounds are what keep ASVM's memory requirements independent of address
//! space size. Lookups refresh recency; inserts evict the least recently
//! used entry when full.
//!
//! Every forwarding decision consults these caches, so each operation is
//! `O(1)`: entries live in a dense slab threaded into a recency list by
//! intrusive `u32` links, and a hash index maps a key to its slot. The
//! index hashes with `IntHasher`, a fixed seedless integer hasher, so
//! runs stay deterministic and no per-process random state is drawn.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The null link.
const NIL: u32 = u32::MAX;

/// One cached entry and its neighbours in recency order (`prev` is more
/// recent, `next` less recent).
#[derive(Clone, Debug)]
struct Slot<K, V> {
    key: K,
    val: V,
    prev: u32,
    next: u32,
}

/// An exact LRU cache with `O(1)` operations.
///
/// The slab stays dense — `remove` moves the last slot into the hole — so
/// no free list is needed and the struct stays within the 72 bytes that
/// [`crate::AsvmNode`]'s state accounting charges per object (asserted at
/// compile time next to [`crate::AsvmObject`]).
#[derive(Clone, Debug)]
pub struct Lru<K, V> {
    slots: Vec<Slot<K, V>>,
    index: HashMap<K, u32, BuildHasherDefault<IntHasher>>,
    cap: u32,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the next victim.
    tail: u32,
}

impl<K: Ord + Hash + Copy, V> Lru<K, V> {
    /// Creates a cache holding at most `cap` entries (`cap == 0` disables
    /// the cache entirely: inserts are dropped).
    pub fn new(cap: usize) -> Lru<K, V> {
        Lru {
            slots: Vec::new(),
            index: HashMap::default(),
            cap: u32::try_from(cap).unwrap_or(u32::MAX),
            head: NIL,
            tail: NIL,
        }
    }

    /// Looks up `k`, refreshing its recency.
    pub fn get(&mut self, k: &K) -> Option<&V> {
        let i = *self.index.get(k)?;
        self.touch(i);
        Some(&self.slots[i as usize].val)
    }

    /// Looks up `k` without refreshing recency.
    pub fn peek(&self, k: &K) -> Option<&V> {
        self.index.get(k).map(|&i| &self.slots[i as usize].val)
    }

    /// Iterates over all entries in key order without touching recency.
    /// Allocates and sorts; meant for cold paths only.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut all: Vec<(&K, &V)> = self.slots.iter().map(|s| (&s.key, &s.val)).collect();
        all.sort_unstable_by(|a, b| a.0.cmp(b.0));
        all.into_iter()
    }

    /// Inserts or updates `k`, evicting the LRU entry if over capacity.
    pub fn insert(&mut self, k: K, v: V) {
        if self.cap == 0 {
            return;
        }
        if let Some(&i) = self.index.get(&k) {
            self.slots[i as usize].val = v;
            self.touch(i);
            return;
        }
        let i = if self.slots.len() as u32 >= self.cap {
            // Full: the least recently used slot takes the new entry.
            let t = self.tail;
            self.unlink(t);
            let slot = &mut self.slots[t as usize];
            self.index.remove(&slot.key);
            slot.key = k;
            slot.val = v;
            t
        } else {
            self.slots.push(Slot {
                key: k,
                val: v,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() as u32 - 1
        };
        self.push_front(i);
        self.index.insert(k, i);
    }

    /// Removes `k`.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        let i = self.index.remove(k)?;
        self.unlink(i);
        let slot = self.slots.swap_remove(i as usize);
        if (i as usize) < self.slots.len() {
            // The former last slot now sits at `i`: repoint its links.
            let Slot {
                key, prev, next, ..
            } = self.slots[i as usize];
            match prev {
                NIL => self.head = i,
                p => self.slots[p as usize].next = i,
            }
            match next {
                NIL => self.tail = i,
                n => self.slots[n as usize].prev = i,
            }
            *self.index.get_mut(&key).expect("moved slot is indexed") = i;
        }
        Some(slot.val)
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Makes slot `i` the most recently used.
    fn touch(&mut self, i: u32) {
        if i != self.head {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old = self.head;
        let slot = &mut self.slots[i as usize];
        slot.prev = NIL;
        slot.next = old;
        match old {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }
}

/// A fixed, seedless hasher for integer keys: the multiply-rotate scheme
/// of rustc's `FxHasher`. A `u32` key (what `PageIdx` hashes as) costs one
/// multiply; other keys fold their bytes in 8-byte words. Equal keys hash
/// equally in every process, unlike `RandomState`.
#[derive(Clone, Copy, Debug, Default)]
struct IntHasher(u64);

impl IntHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The previous implementation, kept as the oracle: a recency tick per
    /// entry and two B-trees (by key, by age).
    struct TickLru<K, V> {
        cap: usize,
        tick: u64,
        map: BTreeMap<K, (u64, V)>,
        by_age: BTreeMap<u64, K>,
    }

    impl<K: Ord + Copy, V> TickLru<K, V> {
        fn new(cap: usize) -> Self {
            TickLru {
                cap,
                tick: 0,
                map: BTreeMap::new(),
                by_age: BTreeMap::new(),
            }
        }

        fn get(&mut self, k: &K) -> Option<&V> {
            self.tick += 1;
            let (age, _) = self.map.get_mut(k)?;
            self.by_age.remove(age);
            *age = self.tick;
            self.by_age.insert(self.tick, *k);
            self.map.get(k).map(|(_, v)| v)
        }

        fn peek(&self, k: &K) -> Option<&V> {
            self.map.get(k).map(|(_, v)| v)
        }

        fn insert(&mut self, k: K, v: V) {
            if self.cap == 0 {
                return;
            }
            self.tick += 1;
            if let Some((age, _)) = self.map.get(&k) {
                self.by_age.remove(age);
            }
            self.map.insert(k, (self.tick, v));
            self.by_age.insert(self.tick, k);
            while self.map.len() > self.cap {
                let (&oldest, &victim) = self.by_age.iter().next().expect("len > 0");
                self.by_age.remove(&oldest);
                self.map.remove(&victim);
            }
        }

        fn remove(&mut self, k: &K) -> Option<V> {
            let (age, v) = self.map.remove(k)?;
            self.by_age.remove(&age);
            Some(v)
        }
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = Lru::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some(&"a")); // refresh 1
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.peek(&2), None);
        assert_eq!(c.peek(&1), Some(&"a"));
        assert_eq!(c.peek(&3), Some(&"c"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn update_refreshes_and_replaces() {
        let mut c = Lru::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(1, "a2"); // refresh + replace
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.peek(&1), Some(&"a2"));
        assert_eq!(c.peek(&2), None);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = Lru::new(0);
        c.insert(1, "a");
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn remove_works() {
        let mut c = Lru::new(4);
        c.insert(1, "a");
        assert_eq!(c.remove(&1), Some("a"));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn peek_does_not_refresh() {
        let mut c = Lru::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.peek(&1), Some(&"a")); // no refresh
        c.insert(3, "c"); // evicts 1 (peek did not refresh it)
        assert_eq!(c.peek(&1), None);
    }

    #[test]
    fn iter_is_in_key_order() {
        let mut c = Lru::new(8);
        for k in [5, 1, 7, 3] {
            c.insert(k, k * 10);
        }
        c.get(&1);
        let seen: Vec<(u32, u32)> = c.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(seen, vec![(1, 10), (3, 30), (5, 50), (7, 70)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]
        /// Random get/peek/insert/remove sequences return the same values,
        /// hold the same number of entries and keep the same entries as the
        /// two-B-tree oracle after every operation.
        #[test]
        fn matches_the_tick_oracle(
            cap in prop::sample::select(vec![0usize, 1, 2, 7, 64]),
            ops in prop::collection::vec((0u8..4, 0u32..96, any::<u16>()), 1..400),
        ) {
            let mut lru = Lru::new(cap);
            let mut oracle = TickLru::new(cap);
            for (op, key, val) in ops {
                match op {
                    0 => prop_assert_eq!(lru.get(&key), oracle.get(&key)),
                    1 => prop_assert_eq!(lru.peek(&key), oracle.peek(&key)),
                    2 => {
                        lru.insert(key, val);
                        oracle.insert(key, val);
                    }
                    _ => prop_assert_eq!(lru.remove(&key), oracle.remove(&key)),
                }
                prop_assert_eq!(lru.len(), oracle.map.len());
                let held: Vec<(u32, u16)> = lru.iter().map(|(k, v)| (*k, *v)).collect();
                let want: Vec<(u32, u16)> = oracle.map.iter().map(|(k, (_, v))| (*k, *v)).collect();
                prop_assert_eq!(held, want);
            }
        }
    }
}
