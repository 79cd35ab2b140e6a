//! Cuckoo filter and cuckoo hash table substrate (§4 of the paper).
//!
//! This crate provides the structures the Conditional Cuckoo Filter is built from and
//! compared against:
//!
//! * [`CuckooFilter`] — a standard partial-key cuckoo filter (Fan et al., 2014): `m`
//!   buckets of `b` entries, each entry a small non-zero fingerprint κ; the alternate
//!   bucket is ℓ′ = ℓ ⊕ h(κ). This is the *"Cuckoo Filter"* baseline of Figures 6b/6d
//!   (a pre-built key-only join filter that ignores predicates) and the structure
//!   returned by predicate-only queries (Algorithm 2).
//! * Multiset insertion behaviour on [`CuckooFilter`] (§4.3): duplicate keys may be
//!   inserted as extra fingerprint copies, but at most `2b` copies fit in a bucket pair
//!   and load factors collapse under skew — the limitation that motivates chaining.
//! * [`CuckooHashTable`] — an open-addressing cuckoo hash table storing full keys and
//!   values (§4.1), used by the join substrate for exact hash joins and for the
//!   raw-hash-table size comparison of §10.7.
//! * [`packed`] — the bit-packed contiguous fingerprint store behind
//!   [`CuckooFilter`]: all `m·b` slots in one `Vec<u64>`, SWAR whole-bucket
//!   compares, O(1) maintained occupancy counters.
//! * [`geometry`] — the split bucket geometry that makes partial-key structures
//!   growable without their original keys, shared with the CCF variants upstream.
//! * [`metrics`] — occupancy / load-factor accounting shared by the experiments.
//! * [`instruments`] — the `ccf-telemetry` event bundle (kick depths, grows,
//!   fail-fasts) every cuckoo structure here records into when attached.

// `deny`, not `forbid`: the one documented exception is the prefetch hint in
// `geometry::prefetch_index` (an intrinsic that performs no memory access).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod filter;
pub mod geometry;
pub mod instruments;
pub mod metrics;
pub mod packed;
pub mod snapshot;
pub mod table;

pub use filter::{CuckooFilter, CuckooFilterParams, InsertError, MAX_KICKS};
pub use geometry::SplitGeometry;
pub use instruments::FilterInstruments;
pub use metrics::{GrowthStats, OccupancyStats};
pub use packed::{PackedBuckets, StoreImportError};
pub use snapshot::{ByteReader, ByteWriter, SnapshotError};
pub use table::CuckooHashTable;
