//! An open-addressing cuckoo hash table storing full keys and values (§4.1).
//!
//! The join substrate uses this for exact hash joins and for the §10.7 comparison
//! against "a open addressing hash table \[that\] would require 429 megabytes ... if it
//! could achieve a 75 % load factor". Unlike the cuckoo *filter*, the table stores full
//! keys, so relocation rehashes the key rather than using partial-key hashing, and
//! inserting an existing key updates its value.
//!
//! The table also offers [`CuckooHashTable::insert_duplicate`], which appends another
//! (key, value) pair instead of updating — the multiset behaviour whose limitations
//! (§4.3) the CCF's chaining fixes.

use ccf_hash::{HashFamily, SaltedHasher};
use ccf_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instruments::FilterInstruments;

/// Maximum kick rounds before the table grows.
const MAX_KICKS: usize = 500;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot<V> {
    key: u64,
    value: V,
}

/// Returned by [`CuckooHashTable::insert_duplicate`] when a key already occupies every
/// slot it can reach (the `2b` cap of §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateCapacityError {
    /// The key whose bucket pair is saturated.
    pub key: u64,
    /// Number of copies already stored.
    pub copies: usize,
}

impl std::fmt::Display for DuplicateCapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "key {} already has {} copies, the maximum its bucket pair can hold",
            self.key, self.copies
        )
    }
}

impl std::error::Error for DuplicateCapacityError {}

/// An open-addressing cuckoo hash table from `u64` keys to values `V`.
///
/// Each bucket holds `b` slots; a key hashes to two candidate buckets under two
/// independent hash functions. The table resizes (doubles its bucket count and
/// rehashes) when an insertion exceeds the kick limit, giving O(1) amortized expected
/// insertion as described in §4.
#[derive(Debug, Clone)]
pub struct CuckooHashTable<V> {
    /// All `m · b` slots, flat and contiguous: bucket `B` owns
    /// `slots[B·b .. (B+1)·b]`. One allocation instead of `m + 1`, so probes touch a
    /// single cache-line range per bucket.
    slots: Vec<Option<Slot<V>>>,
    num_buckets: usize,
    entries_per_bucket: usize,
    h1: SaltedHasher,
    h2: SaltedHasher,
    len: usize,
    rng: StdRng,
    seed: u64,
    /// Event telemetry (kick depths, grows); disabled until
    /// [`CuckooHashTable::attach_telemetry`].
    instruments: FilterInstruments,
}

impl<V: Clone> CuckooHashTable<V> {
    /// Create a table with at least `initial_buckets` buckets of `entries_per_bucket`
    /// slots each.
    pub fn new(initial_buckets: usize, entries_per_bucket: usize, seed: u64) -> Self {
        assert!(
            entries_per_bucket > 0,
            "entries_per_bucket must be positive"
        );
        let m = initial_buckets.next_power_of_two().max(2);
        let family = HashFamily::new(seed);
        Self {
            slots: (0..m * entries_per_bucket).map(|_| None).collect(),
            num_buckets: m,
            entries_per_bucket,
            h1: family.hasher(0),
            h2: family.hasher(1),
            len: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x7AB1E),
            seed,
            instruments: FilterInstruments::disabled(),
        }
    }

    /// Resolve this table's event instruments against `telemetry`, labelling its
    /// series `structure="cuckoo_table"` plus the caller's `extra` labels.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry, extra: &[(&str, &str)]) {
        self.instruments = FilterInstruments::resolve(telemetry, "cuckoo_table", extra);
    }

    /// Create a table sized for `capacity` items at a 75 % target load factor with
    /// `b = 4` (the configuration assumed in §10.7's raw-hash-table size estimate).
    pub fn with_capacity(capacity: usize, seed: u64) -> Self {
        let b = 4;
        let buckets = ((capacity as f64 / 0.75).ceil() as usize).div_ceil(b);
        Self::new(buckets.max(2), b, seed)
    }

    /// Number of (key, value) pairs stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buckets currently allocated.
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The slot range of `bucket`.
    #[inline]
    fn bucket_range(&self, bucket: usize) -> std::ops::Range<usize> {
        let base = bucket * self.entries_per_bucket;
        base..base + self.entries_per_bucket
    }

    /// Current load factor.
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.capacity() as f64
    }

    fn candidate_buckets(&self, key: u64) -> (usize, usize) {
        let m = self.num_buckets;
        (self.h1.bucket_of(key, m), self.h2.bucket_of(key, m))
    }

    /// Insert or update: if the key exists its value is replaced (the §4.1 semantics),
    /// otherwise the pair is added. Returns the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let (b1, b2) = self.candidate_buckets(key);
        for &b in &[b1, b2] {
            let range = self.bucket_range(b);
            for s in self.slots[range].iter_mut().flatten() {
                if s.key == key {
                    return Some(std::mem::replace(&mut s.value, value));
                }
            }
        }
        self.instruments.inserts.inc();
        self.insert_new(key, value);
        None
    }

    /// Insert another copy of the key regardless of whether it already exists
    /// (multiset behaviour). Each copy occupies its own slot.
    ///
    /// As §4.3 observes, a key can only ever probe its two candidate buckets, so at
    /// most `2b` copies fit no matter how large the table grows; attempting to insert
    /// more returns an error rather than growing forever. The CCF's chaining (§6.2)
    /// exists precisely to lift this cap.
    pub fn insert_duplicate(&mut self, key: u64, value: V) -> Result<(), DuplicateCapacityError> {
        let (b1, b2) = self.candidate_buckets(key);
        let copies = self.count_key_in(b1, key)
            + if b1 == b2 {
                0
            } else {
                self.count_key_in(b2, key)
            };
        if copies >= 2 * self.entries_per_bucket || (b1 == b2 && copies >= self.entries_per_bucket)
        {
            self.instruments.pair_saturated_failfasts.inc();
            self.instruments.insert_failures.inc();
            return Err(DuplicateCapacityError { key, copies });
        }
        self.instruments.inserts.inc();
        self.insert_new(key, value);
        Ok(())
    }

    fn count_key_in(&self, bucket: usize, key: u64) -> usize {
        self.slots[self.bucket_range(bucket)]
            .iter()
            .flatten()
            .filter(|s| s.key == key)
            .count()
    }

    fn insert_new(&mut self, key: u64, value: V) {
        let mut item = Slot { key, value };
        loop {
            match self.try_place(item) {
                Ok(()) => {
                    self.len += 1;
                    return;
                }
                Err(returned) => {
                    item = returned;
                    self.grow();
                }
            }
        }
    }

    fn try_place(&mut self, mut item: Slot<V>) -> Result<(), Slot<V>> {
        let (b1, b2) = self.candidate_buckets(item.key);
        for &b in &[b1, b2] {
            let range = self.bucket_range(b);
            for slot in &mut self.slots[range] {
                if slot.is_none() {
                    *slot = Some(item);
                    self.instruments.kick_depth.observe(0);
                    return Ok(());
                }
            }
        }
        // Kick loop.
        let mut bucket = if self.rng.gen_bool(0.5) { b1 } else { b2 };
        for kicks in 1..=MAX_KICKS as u64 {
            let slot_idx = self.rng.gen_range(0..self.entries_per_bucket);
            let victim = self.slots[bucket * self.entries_per_bucket + slot_idx]
                .replace(item)
                .expect("full bucket had an empty slot");
            item = victim;
            let (v1, v2) = self.candidate_buckets(item.key);
            bucket = if bucket == v1 { v2 } else { v1 };
            let range = self.bucket_range(bucket);
            for slot in &mut self.slots[range] {
                if slot.is_none() {
                    *slot = Some(item);
                    self.instruments.kick_depth.observe(kicks);
                    return Ok(());
                }
            }
        }
        self.instruments.kick_depth.observe(MAX_KICKS as u64);
        Err(item)
    }

    fn grow(&mut self) {
        self.instruments.grows.inc();
        let new_m = self.num_buckets * 2;
        let old = std::mem::replace(
            &mut self.slots,
            (0..new_m * self.entries_per_bucket).map(|_| None).collect(),
        );
        self.num_buckets = new_m;
        // Re-derive the hashers with a tweaked seed so pathological layouts are not
        // reproduced after the resize.
        let family = HashFamily::new(self.seed ^ (new_m as u64));
        self.h1 = family.hasher(0);
        self.h2 = family.hasher(1);
        self.len = 0;
        for slot in old.into_iter().flatten() {
            self.insert_new(slot.key, slot.value);
        }
    }

    /// The candidate buckets with the degenerate b1 == b2 case deduplicated, so scans
    /// never walk the same bucket twice.
    fn candidate_list(b1: usize, b2: usize) -> ([usize; 2], usize) {
        if b1 == b2 {
            ([b1, b2], 1)
        } else {
            ([b1, b2], 2)
        }
    }

    /// Look up the value for a key (the first stored copy if duplicates were inserted).
    pub fn get(&self, key: u64) -> Option<&V> {
        let (b1, b2) = self.candidate_buckets(key);
        let (candidates, n) = Self::candidate_list(b1, b2);
        for &b in &candidates[..n] {
            for slot in self.slots[self.bucket_range(b)].iter().flatten() {
                if slot.key == key {
                    return Some(&slot.value);
                }
            }
        }
        None
    }

    /// All values stored for a key (multiset lookups).
    pub fn get_all(&self, key: u64) -> Vec<&V> {
        let (b1, b2) = self.candidate_buckets(key);
        let (candidates, n) = Self::candidate_list(b1, b2);
        let mut out = Vec::new();
        for &b in &candidates[..n] {
            for slot in self.slots[self.bucket_range(b)].iter().flatten() {
                if slot.key == key {
                    out.push(&slot.value);
                }
            }
        }
        out
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Remove one copy of the key, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let (b1, b2) = self.candidate_buckets(key);
        let (candidates, n) = Self::candidate_list(b1, b2);
        for &b in &candidates[..n] {
            let range = self.bucket_range(b);
            for slot in &mut self.slots[range] {
                if slot.as_ref().is_some_and(|s| s.key == key) {
                    self.len -= 1;
                    self.instruments.deletes.inc();
                    return slot.take().map(|s| s.value);
                }
            }
        }
        None
    }

    /// Iterate over all (key, value) pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.slots.iter().flatten().map(|s| (s.key, &s.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_update() {
        let mut t: CuckooHashTable<String> = CuckooHashTable::new(4, 4, 0);
        assert!(t.insert(1, "a".into()).is_none());
        assert_eq!(t.get(1), Some(&"a".to_string()));
        assert_eq!(t.insert(1, "b".into()), Some("a".to_string()));
        assert_eq!(t.get(1), Some(&"b".to_string()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn missing_keys_return_none() {
        let t: CuckooHashTable<u32> = CuckooHashTable::new(4, 4, 1);
        assert!(t.get(99).is_none());
        assert!(!t.contains_key(99));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t: CuckooHashTable<u64> = CuckooHashTable::new(2, 2, 2);
        let n = 10_000u64;
        for k in 0..n {
            t.insert(k, k * 2);
        }
        assert_eq!(t.len(), n as usize);
        for k in 0..n {
            assert_eq!(t.get(k), Some(&(k * 2)), "lost key {k}");
        }
        assert!(t.num_buckets() > 2);
    }

    #[test]
    fn remove_frees_slots() {
        let mut t: CuckooHashTable<u8> = CuckooHashTable::new(8, 4, 3);
        for k in 0..20u64 {
            t.insert(k, k as u8);
        }
        assert_eq!(t.remove(5), Some(5));
        assert_eq!(t.remove(5), None);
        assert!(!t.contains_key(5));
        assert_eq!(t.len(), 19);
    }

    #[test]
    fn duplicate_insertion_keeps_all_copies() {
        let mut t: CuckooHashTable<u32> = CuckooHashTable::new(8, 4, 4);
        t.insert_duplicate(7, 1).unwrap();
        t.insert_duplicate(7, 2).unwrap();
        t.insert_duplicate(7, 3).unwrap();
        let mut vals: Vec<u32> = t.get_all(7).into_iter().copied().collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![1, 2, 3]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicates_are_capped_at_two_buckets_worth() {
        // §4.3: a key can only probe 2b entries, so at most 2b copies fit; growth
        // cannot help because the copies always collide in the same two buckets.
        let mut t: CuckooHashTable<u32> = CuckooHashTable::new(64, 4, 5);
        let mut stored = 0;
        let mut first_err = None;
        for i in 0..200u32 {
            match t.insert_duplicate(42, i) {
                Ok(()) => stored += 1,
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        let err = first_err.expect("duplicate insertion must eventually hit the 2b cap");
        assert!(stored <= 8, "stored {stored} copies, cap is 2b = 8");
        assert_eq!(err.key, 42);
        assert_eq!(t.get_all(42).len(), stored);
    }

    #[test]
    fn self_paired_keys_scan_their_bucket_once() {
        // With 2 buckets, half of all keys hash both candidates onto one bucket.
        // get/get_all/remove/contains_key must treat that degenerate pair as a single
        // bucket (the dedup get_all always applied) and stay mutually consistent.
        let mut t: CuckooHashTable<u32> = CuckooHashTable::new(2, 4, 8);
        let self_paired = (0..200u64)
            .find(|&k| {
                let (b1, b2) = t.candidate_buckets(k);
                b1 == b2
            })
            .expect("a 2-bucket table must self-pair some key");
        t.insert_duplicate(self_paired, 1).unwrap();
        t.insert_duplicate(self_paired, 2).unwrap();
        assert!(t.contains_key(self_paired));
        assert_eq!(t.get_all(self_paired).len(), 2, "each copy reported once");
        assert_eq!(t.get(self_paired), Some(&1));
        assert_eq!(t.remove(self_paired), Some(1));
        assert_eq!(t.get_all(self_paired), vec![&2]);
        assert_eq!(t.remove(self_paired), Some(2));
        assert_eq!(t.remove(self_paired), None);
        assert!(!t.contains_key(self_paired));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn iter_visits_every_pair() {
        let mut t: CuckooHashTable<u64> = CuckooHashTable::new(8, 4, 6);
        for k in 0..50u64 {
            t.insert(k, k + 1000);
        }
        let mut pairs: Vec<(u64, u64)> = t.iter().map(|(k, &v)| (k, v)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs.len(), 50);
        for (i, (k, v)) in pairs.into_iter().enumerate() {
            assert_eq!(k, i as u64);
            assert_eq!(v, k + 1000);
        }
    }

    #[test]
    fn telemetry_tracks_inserts_kicks_and_grows() {
        use ccf_telemetry::Telemetry;
        let telemetry = Telemetry::enabled();
        let mut t: CuckooHashTable<u64> = CuckooHashTable::new(2, 2, 2);
        t.attach_telemetry(&telemetry, &[]);
        for k in 0..500u64 {
            t.insert(k, k);
        }
        assert_eq!(t.remove(3), Some(3));
        let labels = [("structure", "cuckoo_table")];
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("cuckoo_inserts_total", &labels), Some(500));
        assert_eq!(snap.counter("cuckoo_deletes_total", &labels), Some(1));
        assert!(
            snap.counter("cuckoo_grows_total", &labels).unwrap() >= 1,
            "500 keys into a 4-slot table must grow"
        );
        // Placement attempts (including rehash traffic during growth) all record a
        // kick depth, so the histogram has at least one observation per insert.
        let depth = snap.histogram("cuckoo_kick_depth", &labels).unwrap();
        assert!(depth.count() >= 500);
    }

    #[test]
    fn with_capacity_inserts_without_growth() {
        let mut t: CuckooHashTable<u8> = CuckooHashTable::with_capacity(1000, 7);
        let buckets_before = t.num_buckets();
        for k in 0..1000u64 {
            t.insert(k, 0);
        }
        // Growth is allowed but should be unnecessary at 75 % target load.
        assert_eq!(t.num_buckets(), buckets_before, "unexpected growth");
        assert!(t.load_factor() <= 0.78);
    }
}
