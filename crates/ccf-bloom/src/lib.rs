//! Bloom filter substrate for conditional cuckoo filters.
//!
//! Two very different Bloom filters appear in the paper:
//!
//! * A conventional, standalone [`BloomFilter`] (§2, §3) — the classic approximate set
//!   membership structure that join filters in commercial systems use and that the
//!   paper compares against in terms of bits/item.
//! * A *tiny*, bit-budgeted [`TinyBloom`] that lives inside a CCF entry (Bloom
//!   attribute sketches, §5.2) or is packed across the `d` entries of a bucket pair by
//!   Bloom conversion (§6.1, Algorithm 3). These filters are a handful of bits to a few
//!   dozen bits, so the parameter formulas of §7 matter and saturation ("filled with
//!   ones too quickly", §8.1) is a real concern.
//!
//! [`params`] collects the textbook formulas used throughout the paper: optimal number
//! of hash functions, expected FPR (with the caveat of Bose et al. that the classic
//! approximation underestimates for small filters, §7.2), and bits/item comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod bloom;
pub mod params;
pub mod tiny;

pub use bitvec::BitVec;
pub use bloom::BloomFilter;
pub use params::{bloom_fpr, optimal_bits_per_item, optimal_num_hashes};
pub use tiny::{SketchHashers, TinyBloom};
