//! Snapshot-format properties: round-trip bit-identity across all four variants,
//! and typed rejection of every corruption class — truncation, bit flips, wrong
//! magic, future version, unknown variant tag, nonzero storage byte.

use ccf_core::sizing::VariantKind;
use ccf_core::{AnyCcf, CcfParams, ConditionalFilter, Predicate};
use ccf_cuckoo::snapshot::fnv64;
use ccf_cuckoo::SnapshotError;
use proptest::prelude::*;

const VARIANTS: [VariantKind; 4] = [
    VariantKind::Plain,
    VariantKind::Chained,
    VariantKind::Bloom,
    VariantKind::Mixed,
];

fn params(seed: u64) -> CcfParams {
    CcfParams {
        // Small enough that skewed workloads trigger capacity-doubling growth, so
        // the round trip covers grown geometries too.
        num_buckets: 1 << 5,
        entries_per_bucket: 6,
        fingerprint_bits: 12,
        attr_bits: 8,
        num_attrs: 2,
        max_dupes: 3,
        max_chain: Some(4),
        bloom_bits: 16,
        bloom_hashes: 2,
        auto_grow: true,
        seed,
        ..CcfParams::default()
    }
}

fn rows_strategy() -> impl Strategy<Value = Vec<(u64, Vec<u64>)>> {
    proptest::collection::vec(
        (0u64..64, proptest::collection::vec(0u64..1000, 2..=2)),
        1..300,
    )
}

/// Rewrite the trailing checksum after deliberately mutating header fields, so the
/// decoder reaches the magic/version/tag checks instead of reporting corruption.
fn reseal(mut img: Vec<u8>) -> Vec<u8> {
    let body = img.len() - 8;
    let c = fnv64(&img[..body]);
    img[body..].copy_from_slice(&c.to_le_bytes());
    img
}

fn sample_image() -> Vec<u8> {
    let mut filter = AnyCcf::try_new(VariantKind::Mixed, params(7)).unwrap();
    for k in 0..200u64 {
        let _ = filter.insert_row(k % 40, &[k % 7, k % 11]);
    }
    filter.to_snapshot_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every variant: serialize, reload, and the reloaded filter is bit-identical —
    /// same image bytes, same query answers, and (the strong form) the same
    /// behaviour under *continued mutation*, because the RNG stream and growth
    /// geometry resume exactly where the original left off.
    #[test]
    fn round_trip_is_bit_identical_for_all_variants(
        seed in any::<u64>(),
        rows in rows_strategy(),
    ) {
        for kind in VARIANTS {
            let mut filter = AnyCcf::try_new(kind, params(seed)).unwrap();
            for (key, attrs) in &rows {
                let _ = filter.insert_row(*key, attrs);
            }
            let img = filter.to_snapshot_bytes();
            let mut reloaded = AnyCcf::from_snapshot_bytes(&img)
                .unwrap_or_else(|e| panic!("{kind:?}: reload failed: {e}"));
            prop_assert_eq!(
                &img,
                &reloaded.to_snapshot_bytes(),
                "{:?}: reloaded image differs",
                kind
            );
            for (key, attrs) in &rows {
                let pred = Predicate::any(2).and_eq(0, attrs[0]).and_eq(1, attrs[1]);
                prop_assert_eq!(filter.query(*key, &pred), reloaded.query(*key, &pred));
                prop_assert_eq!(filter.contains_key(*key), reloaded.contains_key(*key));
            }
            for key in 5_000..5_200u64 {
                let attrs = [key % 7, key % 11];
                prop_assert_eq!(
                    filter.insert_row(key, &attrs),
                    reloaded.insert_row(key, &attrs),
                    "{:?}: post-reload insert diverged at {}",
                    kind,
                    key
                );
            }
            prop_assert_eq!(
                &filter.to_snapshot_bytes(),
                &reloaded.to_snapshot_bytes(),
                "{:?}: states diverged after post-reload mutation",
                kind
            );
        }
    }

    /// Any single bit flip anywhere in the image is rejected (checksum first, typed
    /// structural error at worst) — never a panic, never a silently wrong filter.
    #[test]
    fn any_bit_flip_is_rejected(byte_frac in 0.0f64..1.0, bit in 0usize..8) {
        let img = sample_image();
        let byte = ((img.len() - 1) as f64 * byte_frac) as usize;
        let mut bad = img;
        bad[byte] ^= 1 << bit;
        prop_assert!(
            AnyCcf::from_snapshot_bytes(&bad).is_err(),
            "flip at byte {} bit {} went undetected",
            byte,
            bit
        );
    }

    /// Any truncation point yields a typed error.
    #[test]
    fn any_truncation_is_rejected(len_frac in 0.0f64..1.0) {
        let img = sample_image();
        let len = ((img.len() - 1) as f64 * len_frac) as usize;
        prop_assert!(AnyCcf::from_snapshot_bytes(&img[..len]).is_err());
    }
}

#[test]
fn wrong_magic_is_a_typed_error() {
    let mut img = sample_image();
    img[0] ^= 0xFF;
    let img = reseal(img);
    match AnyCcf::from_snapshot_bytes(&img) {
        Err(SnapshotError::WrongMagic { expected, .. }) => {
            assert_eq!(expected, ccf_core::SNAPSHOT_MAGIC);
        }
        other => panic!("expected WrongMagic, got {other:?}"),
    }
}

#[test]
fn future_version_is_a_typed_error() {
    let mut img = sample_image();
    img[4] = ccf_core::SNAPSHOT_VERSION + 1;
    let img = reseal(img);
    match AnyCcf::from_snapshot_bytes(&img) {
        Err(SnapshotError::UnsupportedVersion { supported, got }) => {
            assert_eq!(supported, ccf_core::SNAPSHOT_VERSION);
            assert_eq!(got, ccf_core::SNAPSHOT_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn unknown_variant_tag_is_a_typed_error() {
    let mut img = sample_image();
    img[5] = 9; // variant tag byte, straight after the 5-byte envelope header
    let img = reseal(img);
    assert!(matches!(
        AnyCcf::from_snapshot_bytes(&img),
        Err(SnapshotError::Invalid(_))
    ));
}

#[test]
fn unsealed_checksum_mutation_reports_checksum_mismatch() {
    let mut img = sample_image();
    let mid = img.len() / 2;
    img[mid] ^= 0x01;
    assert!(matches!(
        AnyCcf::from_snapshot_bytes(&img),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
}

/// Offset of the params block's storage byte in [`sample_image`]: the 5-byte
/// envelope header, the variant tag, then the params fields in the order the codec
/// writes them (`max_chain` is `Some`, so its flag byte is followed by the value).
const STORAGE_BYTE: usize = 5 + 1 + 8 + 8 + 4 + 4 + 8 + 8 + (1 + 8) + 8 + 8 + 8 + 1 + 1 + 8;

#[test]
fn nonzero_storage_byte_is_a_typed_error() {
    let mut img = sample_image();
    assert_eq!(
        img[STORAGE_BYTE], 0,
        "only the packed layout is ever written"
    );
    // 1 marked an image whose derived filters used the retired compressed layout.
    img[STORAGE_BYTE] = 1;
    let img = reseal(img);
    match AnyCcf::from_snapshot_bytes(&img) {
        Err(SnapshotError::Invalid(msg)) => assert!(msg.contains("storage"), "{msg}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
}
