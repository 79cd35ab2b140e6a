//! Conditional Cuckoo Filters (CCF) — approximate set membership with predicates.
//!
//! This crate is a from-scratch Rust implementation of the data structure introduced by
//! Ting & Cole, *"Conditional Cuckoo Filters"* (arXiv:2005.02537, SIGMOD 2021 context):
//! a cuckoo-filter-like sketch whose entries carry, besides a key fingerprint κ, a
//! small sketch of the row's attribute values — so that membership can be tested not
//! just for a key but for a key *and* a conjunction of equality predicates, and so that
//! a pre-computed sketch can be specialised into a key filter for any given predicate
//! (predicate push-down across a join graph, §3).
//!
//! # Variants
//!
//! | Variant | Attribute sketch | Duplicate handling | Deletion | Type |
//! |---------|------------------|--------------------|----------|------|
//! | Plain   | fingerprint vector | none (2b cap, §4.3) | yes | [`PlainCcf`] |
//! | Chained | fingerprint vector | chaining (§6.2)     | yes (chain-safe, tail-first) | [`ChainedCcf`] |
//! | Bloom   | per-entry Bloom (§5.2) | merge into one entry | no ([`DeleteFailure::Unsupported`]) | [`BloomCcf`] |
//! | Mixed   | fingerprint vector → Bloom conversion (§6.1) | conversion at d duplicates | vector entries only ([`DeleteFailure::ConvertedGroup`] after conversion) | [`MixedCcf`] |
//!
//! All variants guarantee **no false negatives** for rows that were inserted (and, for
//! the chained variant, even for rows dropped at the chain cap — Theorem 3). Deletion
//! (`delete_row`/`delete_key` and their batch forms) keeps that guarantee for every
//! row that remains stored, and — as with all cuckoo filters — requires that only rows
//! known to be present are deleted.
//!
//! # Quick start
//!
//! Construction goes through the fallible [`CcfBuilder`] facade, and keys are *typed*
//! ([`FilterKey`]): `u64`, `&str`/`String`, byte slices and `(u64, u64)` composites
//! all work, with `u64` keys taking the classic hot path bit-identically.
//!
//! ```
//! use ccf_core::{AnyCcf, CcfError, ConditionalFilter, VariantKind};
//!
//! // Rows of (movie_title, [role_id, company_type_id]).
//! let rows = [("Heat", [4u64, 2u64]), ("Heat", [4, 1]), ("Ronin", [1, 2])];
//!
//! let mut filter = AnyCcf::builder()
//!     .variant(VariantKind::Chained)
//!     .num_attrs(2)
//!     .expected_rows(rows.len())
//!     .seed(42)
//!     .build()?;
//! for (key, attrs) in &rows {
//!     filter.insert_row(*key, attrs)?;
//! }
//!
//! // Key + predicate queries: "is there a row for 'Heat' with role_id = 4 and
//! // company_type_id = 2?"
//! let pred = filter.predicate().and_eq(0, 4).and_eq(1, 2);
//! assert!(filter.query("Heat", &pred));
//! assert!(!filter.query("Ronin", &pred) || filter.contains_key("Ronin"));
//! # Ok::<(), CcfError>(())
//! ```
//!
//! # Storage
//!
//! All four variants store their entries in one flat entry table: the key
//! fingerprints of all `m · b` slots in one bit-packed `ccf_cuckoo::PackedBuckets`
//! (so key-only probes compare a whole bucket in one 64-bit word), and each slot's
//! attribute sketch at a fixed byte stride in one payload slab indexed by slot —
//! the attribute fingerprint vector packed at `|α|` bits per column
//! ([`attr::VectorCodec`]; plain, chained), the Bloom sketch bits (Bloom), or a tag
//! plus the packed vector or a handle into a sketch arena (mixed). No entry owns a
//! heap allocation, so `occupancy().heap_bytes` is the allocated capacity of a few
//! flat buffers: on the `chained_churn` benchmark 9.2 B per live row against a
//! `size_bits()/8` of 7.9 B (13.9 B when each 8-bit α took a `u16`), and neither
//! inserts nor deletes allocate. The table also owns the kick/rollback loop, the
//! split-geometry growth and the per-bucket snapshot codec the variants share; the
//! snapshot keeps one `u16` per attribute fingerprint, so images do not depend on
//! the in-memory packing.
//!
//! # Module map
//!
//! * [`key`] — the [`FilterKey`] trait: typed keys and their lowering to the salted
//!   hash family.
//! * [`builder`] — the fallible [`CcfBuilder`] construction facade.
//! * [`params`] — parameters, [`ParamsError`] and the §8 sizing rules.
//! * [`error`] — the workspace-level [`CcfError`].
//! * [`predicate`] — equality / in-list predicates, range binning and dyadic expansion.
//! * [`attr`] — attribute-sketch matching primitives.
//! * [`plain`], [`chained`], [`bloom_ccf`], [`mixed`] — the four variants.
//! * [`variant`] — a uniform [`ConditionalFilter`] interface over all of them.
//! * [`instruments`] — the `ccf-telemetry` event bundle (insert/query/delete
//!   outcomes, kick depths, conversions) every variant records into when attached.
//! * [`fpr`] — the §7 false-positive-rate estimators.
//! * [`sizing`] — Table 1 entry-count predictions and load-factor targets.
//! * [`compress`] — the §9 two-stage attribute compression.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod bloom_ccf;
pub mod builder;
pub mod chained;
pub mod compress;
mod entry_table;
pub mod error;
pub mod fpr;
pub mod instruments;
pub mod key;
pub mod mixed;
pub mod outcome;
pub mod params;
pub mod plain;
pub mod predicate;
pub mod sizing;
pub mod snapshot;
pub mod variant;

pub use bloom_ccf::BloomCcf;
pub use builder::CcfBuilder;
pub use chained::{ChainedCcf, ChainedPredicateFilter};
pub use compress::AttributeCompressor;
pub use error::CcfError;
pub use instruments::CcfInstruments;
pub use key::FilterKey;
pub use mixed::MixedCcf;
pub use outcome::{DeleteFailure, InsertFailure, InsertOutcome};
pub use params::{AttrSketchKind, CcfParams, ParamsError};
pub use plain::PlainCcf;
pub use predicate::{
    binning::{Binning, BinningError},
    ColumnPredicate, Predicate,
};
pub use sizing::{DuplicationProfile, VariantKind};
pub use snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use variant::{AnyCcf, ConditionalFilter};
