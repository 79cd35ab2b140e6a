//! Property tests for the sharded service's equivalence and growth contracts.
//!
//! * **Sequential-vs-sharded equivalence** — for any key set and shard count, a
//!   [`ShardedCcf`]'s (batched, multi-threaded) query results equal a reference run
//!   against `N` standalone filters fed shard-by-shard through the same router. This
//!   pins down the whole routing + partition + fan-out + scatter pipeline, not just
//!   the per-shard batch kernels PR 2 already verified.
//! * **Zero false negatives across growth** — with tiny `auto_grow` shards and
//!   multi-threaded batch inserts, every inserted row stays queryable after the
//!   per-shard doublings the overload forces.
//!
//! A batch fans out over threads only once it brings [`MIN_KEYS_PER_WORKER`] keys per
//! worker, so both properties also draw batches that large: without them every
//! case would run on the calling thread.

use ccf_core::{AnyCcf, CcfParams, ConditionalFilter, Predicate, VariantKind};
use ccf_shard::{ShardRouter, ShardedCcf, MIN_KEYS_PER_WORKER};
use proptest::prelude::*;

fn variant_of(ix: u8) -> VariantKind {
    match ix % 4 {
        0 => VariantKind::Plain,
        1 => VariantKind::Chained,
        2 => VariantKind::Bloom,
        _ => VariantKind::Mixed,
    }
}

fn shard_params(seed: u64) -> CcfParams {
    CcfParams {
        num_buckets: 1 << 7,
        num_attrs: 2,
        seed,
        ..CcfParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded query results are bit-identical to a reference single-filter run
    /// shard-by-shard: the same rows routed by the same router into standalone
    /// `AnyCcf`s must answer every probe exactly like the service does.
    #[test]
    fn sharded_queries_equal_shard_by_shard_reference(
        seed in any::<u64>(),
        num_shards in 1usize..=6,
        threads in 1usize..=4,
        variant_ix in any::<u8>(),
        num_rows in 1usize..=400,
        threaded in any::<bool>(),
    ) {
        let kind = variant_of(variant_ix);
        let params = shard_params(seed);
        let service = ShardedCcf::new(kind, params, num_shards).with_threads(threads);
        let router = ShardRouter::new(seed, num_shards);
        prop_assert_eq!(*service.router(), router);
        let mut reference: Vec<AnyCcf> = (0..num_shards).map(|_| AnyCcf::new(kind, params)).collect();

        let rows: Vec<(u64, [u64; 2])> = (0..num_rows as u64)
            .map(|i| {
                let key = i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) ^ seed;
                (key, [key % 7, key % 13])
            })
            .collect();
        let outcomes = service.insert_batch(&rows);
        for (i, (key, attrs)) in rows.iter().enumerate() {
            let reference_outcome = reference[router.shard_of(*key)].insert_row(*key, attrs);
            prop_assert_eq!(outcomes[i], reference_outcome, "insert outcomes diverged");
        }

        // Probe with a mixed hit/miss stream under a predicate and key-only; the
        // extra probes, enough for four workers, alternate stored keys and fresh
        // ones.
        let extra_probes = if threaded { 4 * MIN_KEYS_PER_WORKER + 3 } else { 0 };
        let probes: Vec<u64> = rows
            .iter()
            .map(|(k, _)| *k)
            .chain((0..200u64).map(|i| seed ^ (i.wrapping_mul(0xD1B54A32D192ED03))))
            .chain((0..extra_probes).map(|i| {
                if i % 2 == 0 {
                    rows[i / 2 % rows.len()].0
                } else {
                    seed ^ ((200 + i as u64).wrapping_mul(0xD1B54A32D192ED03))
                }
            }))
            .collect();
        let pred = Predicate::any(2).and_eq(0, 3);
        let queried = service.query_batch(&probes, &pred);
        let contained = service.contains_key_batch(&probes);
        for (i, &key) in probes.iter().enumerate() {
            let shard = &reference[router.shard_of(key)];
            prop_assert_eq!(queried[i], shard.query(key, &pred), "query diverged for {}", key);
            prop_assert_eq!(contained[i], shard.contains_key(key), "contains diverged for {}", key);
        }
    }

    /// Per-shard growth keeps the zero-false-negative contract under concurrent
    /// (multi-threaded, batched) inserts overloading every shard past its capacity.
    #[test]
    fn growth_keeps_zero_false_negatives_under_concurrent_inserts(
        seed in any::<u64>(),
        num_shards in 1usize..=4,
        overload in 2usize..=6,
        threaded in any::<bool>(),
    ) {
        let params = CcfParams {
            num_buckets: 1 << 4,
            num_attrs: 1,
            seed,
            ..CcfParams::default()
        }
        .with_auto_grow();
        let service = ShardedCcf::new(VariantKind::Chained, params, num_shards)
            .with_threads(num_shards);
        let total = overload * num_shards * (1 << 4) * params.entries_per_bucket;
        // Enough rows for one worker per shard, each shard doubling many times.
        let total = if threaded { total + num_shards * MIN_KEYS_PER_WORKER } else { total };
        let rows: Vec<(u64, [u64; 1])> = (0..total as u64)
            .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) ^ seed, [i % 5]))
            .collect();
        let outcomes = service.insert_batch(&rows);
        prop_assert!(outcomes.iter().all(|o| o.is_ok()), "auto-grow shard refused a row");
        if overload >= 2 {
            prop_assert!(service.stats().total_doublings() >= 1, "overload never grew a shard");
        }
        let checks = service.contains_key_batch(&rows.iter().map(|(k, _)| *k).collect::<Vec<_>>());
        let lost = checks.iter().filter(|&&c| !c).count();
        prop_assert_eq!(lost, 0, "false negatives after concurrent growth");
        for (key, attrs) in rows.iter().take(500) {
            let pred = Predicate::any(1).and_eq(0, attrs[0]);
            prop_assert!(service.query(*key, &pred), "row lost under its own predicate");
        }
    }
}
