//! Point-in-time occupancy and growth metrics shared across the whole filter stack.
//!
//! Originally written for the multiset experiments (§10.1–10.2, Figures 4–5), these
//! summaries are now the *state* half of the stack's observability story: every CCF
//! variant, the sharded service ([`ShardStats`] aggregates [`OccupancyStats`] and
//! [`GrowthStats`] per shard) and the join banks report through them. The *event* half
//! — kick-depth distributions, grow/rollback counters, latency histograms — lives in
//! the companion `ccf-telemetry` crate (see [`crate::instruments`] for the bundle the
//! cuckoo structures record into).
//!
//! [`ShardStats`]: https://docs.rs/ccf-shard

/// Summary of a growable cuckoo structure's resize history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowthStats {
    /// Bucket count at construction.
    pub base_buckets: usize,
    /// Bucket count now.
    pub current_buckets: usize,
    /// Number of capacity doublings applied.
    pub growth_bits: u32,
}

impl GrowthStats {
    /// How many times larger than its base geometry the structure is (`2^growth_bits`).
    pub fn expansion_factor(&self) -> usize {
        1 << self.growth_bits
    }
}

/// Summary of bucket occupancy for a cuckoo structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyStats {
    /// Number of buckets.
    pub num_buckets: usize,
    /// Entries per bucket (`b`).
    pub entries_per_bucket: usize,
    /// Total occupied entries.
    pub occupied: usize,
    /// Number of completely full buckets.
    pub full_buckets: usize,
    /// Number of completely empty buckets.
    pub empty_buckets: usize,
    /// Actual allocated bytes of the underlying storage (0 when the producer does not
    /// track allocation, e.g. stats built directly from raw counts).
    pub heap_bytes: usize,
}

impl OccupancyStats {
    /// Build stats from an iterator of per-bucket occupancy counts. The result carries
    /// `heap_bytes: 0`; storage-aware producers attach their allocation via
    /// [`OccupancyStats::with_heap_bytes`].
    pub fn from_counts<I: IntoIterator<Item = usize>>(
        counts: I,
        entries_per_bucket: usize,
    ) -> Self {
        let mut num_buckets = 0;
        let mut occupied = 0;
        let mut full_buckets = 0;
        let mut empty_buckets = 0;
        for c in counts {
            num_buckets += 1;
            occupied += c;
            if c == entries_per_bucket {
                full_buckets += 1;
            }
            if c == 0 {
                empty_buckets += 1;
            }
        }
        Self {
            num_buckets,
            entries_per_bucket,
            occupied,
            full_buckets,
            empty_buckets,
            heap_bytes: 0,
        }
    }

    /// Attach the producer's actual allocated storage bytes.
    pub fn with_heap_bytes(mut self, heap_bytes: usize) -> Self {
        self.heap_bytes = heap_bytes;
        self
    }

    /// Total slot capacity `m · b`.
    pub fn capacity(&self) -> usize {
        self.num_buckets * self.entries_per_bucket
    }

    /// Load factor β = occupied / capacity (0 for an empty structure).
    pub fn load_factor(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.occupied as f64 / self.capacity() as f64
        }
    }

    /// Merge two occupancy summaries, e.g. per-shard stats into a service-wide total.
    /// The bucket/occupancy counts are exact field-wise sums over disjoint buckets.
    /// When the two sides use different `entries_per_bucket` (heterogeneous shards),
    /// the merged width is their max, so the merged [`OccupancyStats::capacity`] and
    /// [`OccupancyStats::load_factor`] are an upper bound / lower bound respectively —
    /// aggregators that need exact service-wide figures should sum the per-side
    /// `capacity()` values themselves (as the shard-layer `ShardStats` does).
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            num_buckets: self.num_buckets + other.num_buckets,
            entries_per_bucket: self.entries_per_bucket.max(other.entries_per_bucket),
            occupied: self.occupied + other.occupied,
            full_buckets: self.full_buckets + other.full_buckets,
            empty_buckets: self.empty_buckets + other.empty_buckets,
            heap_bytes: self.heap_bytes + other.heap_bytes,
        }
    }

    /// Fraction of buckets that are completely full.
    pub fn full_fraction(&self) -> f64 {
        if self.num_buckets == 0 {
            0.0
        } else {
            self.full_buckets as f64 / self.num_buckets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_aggregates_correctly() {
        let stats = OccupancyStats::from_counts(vec![0, 4, 2, 4, 1], 4);
        assert_eq!(stats.num_buckets, 5);
        assert_eq!(stats.occupied, 11);
        assert_eq!(stats.full_buckets, 2);
        assert_eq!(stats.empty_buckets, 1);
        assert_eq!(stats.capacity(), 20);
        assert!((stats.load_factor() - 0.55).abs() < 1e-12);
        assert!((stats.full_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(stats.heap_bytes, 0, "raw counts carry no allocation info");
    }

    #[test]
    fn merge_sums_disjoint_bucket_counts() {
        let a = OccupancyStats::from_counts(vec![0, 4, 2], 4).with_heap_bytes(27);
        let b = OccupancyStats::from_counts(vec![4, 4, 0, 1], 4).with_heap_bytes(36);
        let m = a.merge(&b);
        assert_eq!(m.num_buckets, 7);
        assert_eq!(m.occupied, 6 + 9);
        assert_eq!(m.full_buckets, 3);
        assert_eq!(m.empty_buckets, 2);
        assert_eq!(m.heap_bytes, 63, "merge must sum per-side allocations");
        assert!((m.load_factor() - 15.0 / 28.0).abs() < 1e-12);
    }

    #[test]
    fn empty_structure_has_zero_load() {
        let stats = OccupancyStats::from_counts(std::iter::empty(), 4);
        assert_eq!(stats.load_factor(), 0.0);
        assert_eq!(stats.full_fraction(), 0.0);
    }
}
