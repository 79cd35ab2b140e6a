//! Hash routing of keys to shards.
//!
//! The router draws its hasher from the same [`HashFamily`] as the in-shard filters
//! but at the dedicated [`purpose::SHARD`] index, so the shard a key lands on is
//! independent of its bucket ℓ, fingerprint κ, alternate-bucket offset, chain hash and
//! growth bits inside that shard. This matters: routing by (say) the bucket hash would
//! hand every shard a *bucket range* instead of a uniform keyspace slice, skewing
//! per-shard load and correlating shard membership with in-shard placement.

use ccf_hash::salted::purpose;
use ccf_hash::{HashFamily, SaltedHasher};

/// Routes keys to one of `num_shards` shards by an independent salted hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    hasher: SaltedHasher,
    seed: u64,
    num_shards: usize,
}

/// A batch of keys partitioned into per-shard chunks, remembering where each key came
/// from so per-shard results can be scattered back into input order.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Per shard, the keys routed to it, in their original relative order. Preserving
    /// relative order is what makes per-shard batch results bit-identical to a
    /// sequential per-key loop over the whole input.
    pub chunks: Vec<Vec<u64>>,
    /// Per shard, the original input index of each chunk element.
    pub positions: Vec<Vec<usize>>,
}

impl Partition {
    /// Scatter per-shard results back to input order. `results[s][i]` must correspond
    /// to `chunks[s][i]`.
    pub fn scatter<T: Copy + Default>(&self, results: &[Vec<T>], total: usize) -> Vec<T> {
        let mut out = vec![T::default(); total];
        for (shard, shard_results) in results.iter().enumerate() {
            for (i, &r) in shard_results.iter().enumerate() {
                out[self.positions[shard][i]] = r;
            }
        }
        out
    }
}

impl ShardRouter {
    /// Create a router for `num_shards` shards from the given hash-family seed (the
    /// same seed the shard filters use; the purposes are disjoint).
    ///
    /// # Panics
    /// Panics if `num_shards == 0`.
    pub fn new(seed: u64, num_shards: usize) -> Self {
        assert!(num_shards > 0, "a sharded filter needs at least one shard");
        Self {
            hasher: HashFamily::new(seed).hasher(purpose::SHARD),
            seed,
            num_shards,
        }
    }

    /// Number of shards routed over.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The hash-family seed this router was derived from — what a snapshot must
    /// persist to rebuild an identically-routing service.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard a key belongs to.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        // Lemire multiply-shift reduction: unbiased for non-power-of-two shard counts.
        self.hasher.bucket_of(key, self.num_shards)
    }

    /// Partition a key batch into per-shard chunks, preserving relative input order
    /// within each shard.
    ///
    /// Each chunk is allocated once, for its expected share plus a margin of an
    /// eighth and 16 keys: a shard's share of `n` uniformly routed keys deviates from
    /// `n / shards` by about `√(n / shards)`, so the margin is several deviations
    /// wide for batches of a few hundred keys and up, and a chunk grows again only
    /// on a badly skewed batch.
    pub fn partition(&self, keys: &[u64]) -> Partition {
        if self.num_shards == 1 {
            return Partition {
                chunks: vec![keys.to_vec()],
                positions: vec![(0..keys.len()).collect()],
            };
        }
        let expected = keys.len() / self.num_shards;
        let reserve = (expected + expected / 8 + 16).min(keys.len());
        let mut chunks: Vec<Vec<u64>> = (0..self.num_shards)
            .map(|_| Vec::with_capacity(reserve))
            .collect();
        let mut positions: Vec<Vec<usize>> = (0..self.num_shards)
            .map(|_| Vec::with_capacity(reserve))
            .collect();
        for (i, &key) in keys.iter().enumerate() {
            let s = self.shard_of(key);
            chunks[s].push(key);
            positions[s].push(i);
        }
        Partition { chunks, positions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let r = ShardRouter::new(42, 7);
        for key in 0..10_000u64 {
            let s = r.shard_of(key);
            assert!(s < 7);
            assert_eq!(s, ShardRouter::new(42, 7).shard_of(key));
        }
    }

    #[test]
    fn routing_is_roughly_uniform() {
        let r = ShardRouter::new(9, 8);
        let mut counts = [0usize; 8];
        for key in 0..80_000u64 {
            counts[r.shard_of(key)] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "skewed shard loads: {counts:?}"
            );
        }
    }

    #[test]
    fn routing_is_independent_of_the_bucket_hash() {
        // Keys landing in the same shard must not share in-shard buckets more than
        // chance allows; sample the bucket hash the filters use (purpose KEY_BUCKET)
        // over one shard's keys and check the spread.
        let r = ShardRouter::new(7, 4);
        let bucket_hasher = HashFamily::new(7).hasher(purpose::KEY_BUCKET);
        let m = 64usize;
        let mut bucket_counts = vec![0usize; m];
        let mut shard0_keys = 0usize;
        for key in 0..40_000u64 {
            if r.shard_of(key) == 0 {
                shard0_keys += 1;
                bucket_counts[bucket_hasher.bucket_of(key, m)] += 1;
            }
        }
        let expected = shard0_keys as f64 / m as f64;
        for &c in &bucket_counts {
            assert!(
                (c as f64) > expected * 0.5 && (c as f64) < expected * 1.5,
                "shard routing correlates with bucket placement: {bucket_counts:?}"
            );
        }
    }

    #[test]
    fn partition_preserves_relative_order_and_scatters_back() {
        let r = ShardRouter::new(1, 5);
        let keys: Vec<u64> = (0..1000).map(|i| i * 17 + 3).collect();
        let part = r.partition(&keys);
        assert_eq!(part.chunks.iter().map(Vec::len).sum::<usize>(), keys.len());
        for (shard, chunk) in part.chunks.iter().enumerate() {
            for (i, &k) in chunk.iter().enumerate() {
                assert_eq!(r.shard_of(k), shard);
                assert_eq!(keys[part.positions[shard][i]], k);
            }
            // Positions within a shard are strictly increasing = relative input order.
            assert!(part.positions[shard].windows(2).all(|w| w[0] < w[1]));
        }
        // Round-trip: scattering each chunk's own keys reproduces the input.
        let scattered = part.scatter(
            &part.chunks.iter().map(|c| c.to_vec()).collect::<Vec<_>>(),
            keys.len(),
        );
        assert_eq!(scattered, keys);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardRouter::new(0, 0);
    }

    #[test]
    fn single_shard_fast_path_matches_general_path() {
        let keys: Vec<u64> = (0..100).collect();
        let part = ShardRouter::new(3, 1).partition(&keys);
        assert_eq!(part.chunks[0], keys);
        assert_eq!(part.positions[0], (0..100).collect::<Vec<_>>());
    }
}
