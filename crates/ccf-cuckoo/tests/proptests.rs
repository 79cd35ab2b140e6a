//! Property-based tests for the cuckoo filter and cuckoo hash table substrate.

use ccf_cuckoo::{CuckooFilter, CuckooFilterParams, CuckooHashTable, PackedBuckets};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

proptest! {
    /// Keys successfully inserted into a cuckoo filter are always found (no false
    /// negatives), regardless of seed and key set.
    #[test]
    fn cuckoo_filter_no_false_negatives(
        seed in any::<u64>(),
        keys in proptest::collection::hash_set(any::<u64>(), 1..500),
    ) {
        let mut f = CuckooFilter::new(CuckooFilterParams::for_capacity(keys.len() + 16, 12, seed));
        let mut inserted = Vec::new();
        for &k in &keys {
            if f.insert(k).is_ok() {
                inserted.push(k);
            }
        }
        for &k in &inserted {
            prop_assert!(f.contains(k), "false negative for {k}");
        }
    }

    /// Deleting an inserted key removes exactly one copy; remaining copies stay
    /// findable and the length bookkeeping is exact.
    #[test]
    fn cuckoo_filter_delete_bookkeeping(
        seed in any::<u64>(),
        keys in proptest::collection::vec(0u64..200, 1..300),
    ) {
        let mut f = CuckooFilter::new(CuckooFilterParams {
            num_buckets: 256,
            seed,
            ..Default::default()
        });
        let mut copies: HashMap<u64, usize> = HashMap::new();
        for &k in &keys {
            if f.insert(k).is_ok() {
                *copies.entry(k).or_default() += 1;
            }
        }
        let total: usize = copies.values().sum();
        prop_assert_eq!(f.len(), total);
        // Delete one copy of each distinct key that has one.
        for (&k, &n) in &copies {
            prop_assert!(f.delete(k));
            if n > 1 {
                prop_assert!(f.contains(k), "other copies of {k} must remain");
            }
        }
        prop_assert_eq!(f.len(), total - copies.len());
    }

    /// The cuckoo hash table behaves like a HashMap under inserts, updates, removals
    /// and lookups.
    #[test]
    fn cuckoo_table_matches_hashmap(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..3, 0u64..100, any::<u32>()), 1..400),
    ) {
        let mut table: CuckooHashTable<u32> = CuckooHashTable::new(4, 4, seed);
        let mut model: HashMap<u64, u32> = HashMap::new();
        for (op, key, value) in ops {
            match op {
                0 => {
                    let expected = model.insert(key, value);
                    let got = table.insert(key, value);
                    prop_assert_eq!(got, expected);
                }
                1 => {
                    let expected = model.remove(&key);
                    let got = table.remove(key);
                    prop_assert_eq!(got, expected);
                }
                _ => {
                    prop_assert_eq!(table.get(key), model.get(&key));
                }
            }
        }
        prop_assert_eq!(table.len(), model.len());
        for (&k, v) in &model {
            prop_assert_eq!(table.get(k), Some(v));
        }
    }

    /// Growth never loses a stored key, and batch queries agree with the per-key path
    /// at every growth level.
    #[test]
    fn growth_preserves_membership_and_batch_agrees(
        seed in any::<u64>(),
        keys in proptest::collection::hash_set(any::<u64>(), 1..300),
        doublings in 0u32..3,
    ) {
        let mut f = CuckooFilter::new(CuckooFilterParams {
            num_buckets: 128,
            seed,
            auto_grow: true,
            ..Default::default()
        });
        for &k in &keys {
            prop_assert!(f.insert(k).is_ok(), "auto-grow insert of {} failed", k);
        }
        for _ in 0..doublings {
            f.grow();
        }
        let probe: Vec<u64> = keys.iter().copied().chain(0..100).collect();
        let batch = f.contains_batch(&probe);
        for (i, &k) in probe.iter().enumerate() {
            prop_assert_eq!(batch[i], f.contains(k), "batch mismatch for {}", k);
        }
        for &k in &keys {
            prop_assert!(f.contains(k), "false negative for {} after growth", k);
        }
    }

    /// The packed store's maintained occupancy counters never drift from a recount of
    /// the raw words, under arbitrary interleavings of inserts, removes, takes, swaps
    /// and growth — for bucket widths that pack exactly into words and widths with
    /// padding lanes alike.
    #[test]
    fn packed_counters_never_drift_from_recount(
        entries_per_bucket in 1usize..9,
        ops in proptest::collection::vec((0u8..5, any::<u16>(), any::<u16>()), 1..400),
    ) {
        let mut p = PackedBuckets::new(8, entries_per_bucket);
        for (op, a, b) in ops {
            let bucket = usize::from(a) % p.num_buckets();
            let fp = (b | 1).max(1); // never 0: κ = 0 is the empty-slot marker
            match op {
                0 => {
                    p.try_insert(bucket, fp);
                }
                1 => {
                    p.remove_one(bucket, fp);
                }
                2 => {
                    p.take(bucket, usize::from(b) % entries_per_bucket);
                }
                3 => {
                    p.swap(bucket, usize::from(b) % entries_per_bucket, fp);
                }
                _ => {
                    if p.num_buckets() < 64 {
                        p.extend_buckets(p.num_buckets());
                    }
                }
            }
            let (total, per_bucket) = p.recount();
            prop_assert_eq!(total, p.occupied(), "total counter drifted");
            for (bkt, &n) in per_bucket.iter().enumerate() {
                prop_assert_eq!(n, p.bucket_len(bkt), "bucket {} counter drifted", bkt);
                prop_assert_eq!(
                    n == entries_per_bucket,
                    p.is_full(bkt),
                    "is_full disagrees with recount for bucket {}", bkt
                );
            }
        }
    }

    /// The filter's O(1) len() (the store's total counter) always equals a recount of
    /// its packed words under random insert/delete/grow churn.
    #[test]
    fn filter_len_never_drifts_from_recount(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..8, 0u64..300), 1..300),
    ) {
        let mut f = CuckooFilter::new(CuckooFilterParams {
            num_buckets: 64,
            seed,
            ..Default::default()
        });
        for (op, key) in ops {
            match op {
                0..=4 => {
                    let _ = f.insert(key);
                }
                5 | 6 => {
                    f.delete(key);
                }
                _ => {
                    if f.num_buckets() < 512 {
                        f.grow();
                    }
                }
            }
            let (total, _) = f.store().recount();
            prop_assert_eq!(total, f.len(), "len drifted from a recount of the words");
        }
    }

    /// The filter's count() for a key never exceeds 2b and matches the number of
    /// successful inserts for well-separated keys.
    #[test]
    fn duplicate_counts_are_capped(seed in any::<u64>(), copies in 1usize..20) {
        let mut f = CuckooFilter::new(CuckooFilterParams {
            num_buckets: 64,
            seed,
            ..Default::default()
        });
        let mut ok = 0usize;
        for _ in 0..copies {
            if f.insert(42).is_ok() {
                ok += 1;
            }
        }
        prop_assert!(f.count(42) <= 8);
        prop_assert_eq!(f.count(42), ok);
    }
}

#[test]
fn distinct_key_sets_do_not_interfere() {
    // Deterministic cross-check: two disjoint key sets inserted into the same filter
    // remain individually queryable.
    let mut f = CuckooFilter::new(CuckooFilterParams::for_capacity(2000, 12, 7));
    let a: HashSet<u64> = (0..1000).collect();
    let b: HashSet<u64> = (10_000..11_000).collect();
    for &k in a.iter().chain(&b) {
        f.insert(k).unwrap();
    }
    for &k in a.iter().chain(&b) {
        assert!(f.contains(k));
    }
}
