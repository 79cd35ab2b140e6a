//! Golden bit-identity tests for the bit-packed bucket layout.
//!
//! The digests hardcoded below were captured on the pre-packing, word-sized
//! `Vec<Bucket>`-of-`Vec<u16>` layout (seed commit 56b46c8). The packed contiguous
//! fingerprint array must reproduce them bit-for-bit: every insert outcome, every
//! point and batched query, every delete result and every growth decision. Together
//! with the occupancy-drift proptests in `ccf-cuckoo`, this is the contract that the
//! storage refactor changed the *layout* of the filters and nothing about their
//! observable behavior.
//!
//! The streams deliberately exercise the paths the layout touches: duplicate-heavy
//! inserts (kick loops and rollback), predicate and key-only batches (the
//! hash→prefetch→probe kernel), point deletes (lane clearing), auto-growth mid-stream
//! (the keyless packed remap) and explicit `grow()` calls.

use conditional_cuckoo_filters::ccf::sizing::VariantKind;
use conditional_cuckoo_filters::ccf::{
    AnyCcf, CcfParams, ConditionalFilter, DeleteFailure, InsertOutcome, Predicate,
};
use conditional_cuckoo_filters::cuckoo::{CuckooFilter, CuckooFilterParams, MAX_KICKS};
use conditional_cuckoo_filters::shard::ShardedCcf;

/// FNV-style fold of one event bit into the stream digest.
fn fold(digest: &mut u64, bit: bool) {
    *digest = digest.wrapping_mul(0x100000001B3).wrapping_add(if bit {
        0x9E3779B97F4A7C15
    } else {
        0x2545F4914F6CDD1D
    });
}

/// Fold an arbitrary value (lengths, counters, growth bits) into the digest.
fn fold_u64(digest: &mut u64, value: u64) {
    *digest = (*digest ^ value).wrapping_mul(0x100000001B3);
}

fn fold_insert(digest: &mut u64, outcome: &Result<InsertOutcome, impl std::fmt::Debug>) {
    let code = match outcome {
        Ok(InsertOutcome::Inserted) => 1,
        Ok(InsertOutcome::Deduplicated) => 2,
        Ok(InsertOutcome::Merged) => 3,
        Ok(InsertOutcome::Converted) => 4,
        Ok(InsertOutcome::DroppedChainCap) => 5,
        Err(_) => 6,
    };
    fold_u64(digest, code);
}

fn fold_delete(digest: &mut u64, outcome: &Result<bool, DeleteFailure>) {
    let code = match outcome {
        Ok(true) => 1,
        Ok(false) => 2,
        Err(DeleteFailure::Unsupported) => 3,
        Err(DeleteFailure::ConvertedGroup) => 4,
        Err(DeleteFailure::AttrArityMismatch { .. }) => 5,
    };
    fold_u64(digest, code);
}

/// Duplicate-heavy row stream: key i/6 appears 6 times with distinct attribute
/// vectors, so chaining, Bloom merging and mixed conversion all engage, and the volume
/// (3× the filters' sized capacity) forces auto-growth mid-stream.
fn rows() -> Vec<(u64, [u64; 2])> {
    (0..3000u64)
        .map(|i| {
            (
                (i / 6).wrapping_mul(0x9E3779B97F4A7C15) >> 13,
                [1000 + i % 7 + 10 * (i % 6), 2000 + i % 13],
            )
        })
        .collect()
}

/// Probe stream: half present keys, half absent material.
fn probes() -> Vec<u64> {
    let rows = rows();
    (0..6000u64)
        .map(|i| {
            if i % 2 == 0 {
                rows[(i as usize / 2) % rows.len()].0
            } else {
                i.wrapping_mul(0xA24BAED4963EE407)
            }
        })
        .collect()
}

fn variant_params() -> CcfParams {
    CcfParams {
        num_buckets: 1 << 7,
        num_attrs: 2,
        seed: 0xBEEF,
        auto_grow: true,
        ..CcfParams::default()
    }
}

/// Full insert/query/delete/grow/batch stream digest for one CCF variant.
fn variant_digest(kind: VariantKind) -> u64 {
    let pred = Predicate::any(2).and_eq(0, 1013);
    let mut f = AnyCcf::new(kind, variant_params());
    let mut digest = 0xCBF29CE484222325u64;
    for (k, attrs) in rows() {
        fold_insert(&mut digest, &f.insert_row(k, &attrs));
    }
    let probes = probes();
    for q in f.query_batch(&probes, &pred) {
        fold(&mut digest, q);
    }
    for c in f.contains_key_batch(&probes) {
        fold(&mut digest, c);
    }
    // Point queries agree with batches by construction; fold a sample anyway so the
    // scalar path is covered by the same digest.
    for (k, attrs) in rows().iter().step_by(17) {
        fold(
            &mut digest,
            f.query(*k, &Predicate::any(2).and_eq(0, attrs[0])),
        );
    }
    // Deletes: every 3rd row as a row delete, every 11th key as a key delete.
    for (k, attrs) in rows().iter().step_by(3) {
        fold_delete(&mut digest, &f.delete_row(*k, attrs));
    }
    for (k, _) in rows().iter().step_by(11) {
        fold_delete(&mut digest, &f.delete_key(*k));
    }
    // Post-delete batch probes over the same stream.
    for q in f.query_batch(&probes, &pred) {
        fold(&mut digest, q);
    }
    for c in f.contains_key_batch(&probes) {
        fold(&mut digest, c);
    }
    // Structural counters: occupancy and growth must match exactly.
    let occ = f.occupancy();
    fold_u64(&mut digest, f.occupied_entries() as u64);
    fold_u64(&mut digest, occ.occupied as u64);
    fold_u64(&mut digest, occ.full_buckets as u64);
    fold_u64(&mut digest, occ.empty_buckets as u64);
    fold_u64(&mut digest, u64::from(f.growth_stats().growth_bits));
    digest
}

/// Digests captured on the pre-packing word-sized layout (seed commit 56b46c8).
const GOLDEN_VARIANT_DIGESTS: [(VariantKind, u64); 4] = [
    (VariantKind::Plain, 0x4F8EB2933A4F2590),
    (VariantKind::Chained, 0x327BDE9E669FA1E4),
    (VariantKind::Bloom, 0x2D0BBE16397C0C3B),
    (VariantKind::Mixed, 0x0041C2E5FA69E533),
];

#[test]
fn variant_streams_are_bit_identical_to_the_word_sized_layout() {
    let mismatches: Vec<String> = GOLDEN_VARIANT_DIGESTS
        .iter()
        .filter_map(|&(kind, expected)| {
            let digest = variant_digest(kind);
            (digest != expected).then(|| format!("{kind:?}: {digest:#X} != {expected:#X}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "stream digests diverged from the word-sized layout: {mismatches:?}"
    );
}

/// Digest captured on the pre-packing word-sized layout (seed commit 56b46c8).
const GOLDEN_CUCKOO_DIGEST: u64 = 0xE5FA896E29FD7FAA;

#[test]
fn cuckoo_filter_stream_is_bit_identical_to_the_word_sized_layout() {
    let mut f = CuckooFilter::new(CuckooFilterParams {
        num_buckets: 1 << 9,
        entries_per_bucket: 4,
        fingerprint_bits: 12,
        seed: 0xBEEF,
        auto_grow: false,
        max_kicks: MAX_KICKS,
    });
    let mut digest = 0xCBF29CE484222325u64;
    // Fill to ~90 % load, with duplicates sprinkled in.
    for k in 0..1800u64 {
        fold(&mut digest, f.insert(k % 1700).is_ok());
    }
    let probes: Vec<u64> = (0..6000u64).map(|i| i.wrapping_mul(0x9E3779B1)).collect();
    for hit in f.contains_batch(&probes) {
        fold(&mut digest, hit);
    }
    for k in (0..1700u64).step_by(3) {
        fold(&mut digest, f.delete(k));
    }
    // Explicit doubling: the packed remap must move exactly the same fingerprints.
    f.grow();
    for hit in f.contains_batch(&probes) {
        fold(&mut digest, hit);
    }
    for k in (0..1700u64).step_by(41) {
        fold_u64(&mut digest, f.count(k) as u64);
    }
    let occ = f.occupancy();
    fold_u64(&mut digest, f.len() as u64);
    fold_u64(&mut digest, occ.occupied as u64);
    fold_u64(&mut digest, occ.full_buckets as u64);
    fold_u64(&mut digest, occ.empty_buckets as u64);
    fold_u64(&mut digest, f.num_buckets() as u64);
    assert_eq!(
        digest, GOLDEN_CUCKOO_DIGEST,
        "cuckoo filter stream digest {digest:#X} diverged from the word-sized layout"
    );
}

/// Digest captured on the pre-packing word-sized layout (seed commit 56b46c8).
const GOLDEN_SHARDED_DIGEST: u64 = 0x9BD92C47B2E4F18F;

#[test]
fn sharded_stream_is_bit_identical_to_the_word_sized_layout() {
    let pred = Predicate::any(2).and_eq(0, 1013);
    let probes = probes();
    let service = ShardedCcf::new(VariantKind::Chained, variant_params(), 4);
    let mut digest = 0xCBF29CE484222325u64;
    for o in service.insert_batch(&rows()) {
        fold_insert(&mut digest, &o);
    }
    for q in service.query_batch(&probes, &pred) {
        fold(&mut digest, q);
    }
    for c in service.contains_key_batch(&probes) {
        fold(&mut digest, c);
    }
    let victims: Vec<(u64, [u64; 2])> = rows().iter().step_by(3).copied().collect();
    for d in service.delete_row_batch(&victims) {
        fold_delete(&mut digest, &d);
    }
    for c in service.contains_key_batch(&probes) {
        fold(&mut digest, c);
    }
    for k in probes.iter().take(64) {
        fold(&mut digest, service.shard_of(*k) == 0);
    }
    fold_u64(&mut digest, service.occupied_entries() as u64);
    assert_eq!(
        digest, GOLDEN_SHARDED_DIGEST,
        "sharded stream digest {digest:#X} diverged from the word-sized layout"
    );
}

/// FNV-1a 64 over a byte string (the snapshot image digest).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF29CE484222325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001B3)
    })
}

/// Second-phase rows: fresh keys plus every 5th first-phase row again, so inserts land
/// in buckets that deletes and the doubling have reordered.
fn second_phase_rows() -> Vec<(u64, [u64; 2])> {
    let fresh = (0..900u64).map(|i| {
        (
            (i / 3 + 5000).wrapping_mul(0xD6E8FEB86659FD93) >> 11,
            [3000 + i % 5 + 10 * (i % 3), 4000 + i % 11],
        )
    });
    fresh.chain(rows().into_iter().step_by(5)).collect()
}

/// Insert, delete, grow, then insert again — the stream where a bucket's slot order
/// becomes visible, because later inserts and kicks pick slots by index. Returns the
/// answer/occupancy digest and the FNV-1a digest of the `AnyCcf` snapshot image (the
/// daemon's on-disk format), which records every slot in order.
fn slot_order_digests(kind: VariantKind) -> (u64, u64) {
    let pred = Predicate::any(2).and_eq(0, 1013);
    let mut f = AnyCcf::new(kind, variant_params());
    let mut digest = 0xCBF29CE484222325u64;
    for (k, attrs) in rows().iter().take(1500) {
        fold_insert(&mut digest, &f.insert_row(*k, attrs));
    }
    for (k, attrs) in rows().iter().take(1500).step_by(4) {
        fold_delete(&mut digest, &f.delete_row(*k, attrs));
    }
    for (k, _) in rows().iter().take(1500).skip(1).step_by(13) {
        fold_delete(&mut digest, &f.delete_key(*k));
    }
    match &mut f {
        AnyCcf::Plain(p) => p.grow(),
        AnyCcf::Chained(c) => c.grow(),
        AnyCcf::Mixed(m) => m.grow(),
        AnyCcf::Bloom(_) => {}
    }
    for (k, attrs) in second_phase_rows() {
        fold_insert(&mut digest, &f.insert_row(k, &attrs));
    }
    let probes = probes();
    for q in f.query_batch(&probes, &pred) {
        fold(&mut digest, q);
    }
    for c in f.contains_key_batch(&probes) {
        fold(&mut digest, c);
    }
    let occ = f.occupancy();
    fold_u64(&mut digest, f.occupied_entries() as u64);
    fold_u64(&mut digest, occ.full_buckets as u64);
    fold_u64(&mut digest, occ.empty_buckets as u64);
    fold_u64(&mut digest, u64::from(f.growth_stats().growth_bits));
    (digest, fnv1a(&f.to_snapshot_bytes()))
}

/// (answers and occupancy, snapshot image) digests, captured on the per-row
/// `Vec<Vec<Entry>>` layout that preceded the flat entry table.
const GOLDEN_SLOT_ORDER_DIGESTS: [(VariantKind, u64, u64); 4] = [
    (VariantKind::Plain, 0xFC7F2E14953E1EC8, 0x911A51E5CE2007B3),
    (VariantKind::Chained, 0xAC8C5F80D20F4C41, 0x2A174E116C566818),
    (VariantKind::Bloom, 0x406ED91A837F90B2, 0x852CB9B7BD5A151E),
    (VariantKind::Mixed, 0x26297F2AC1813046, 0x3F743D3C90947BF0),
];

#[test]
fn slot_order_and_snapshot_images_survive_delete_grow_reinsert() {
    let mismatches: Vec<String> = GOLDEN_SLOT_ORDER_DIGESTS
        .iter()
        .filter_map(|&(kind, answers, image)| {
            let got = slot_order_digests(kind);
            (got != (answers, image)).then(|| {
                format!(
                    "{kind:?}: ({:#X}, {:#X}) != ({answers:#X}, {image:#X})",
                    got.0, got.1
                )
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "slot-order digests diverged: {mismatches:?}"
    );
}
