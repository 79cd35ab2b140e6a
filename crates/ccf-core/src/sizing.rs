//! Sizing the sketch: predicted entry counts and load-factor targets (§8, Table 1,
//! Figure 3).
//!
//! Sizing a CCF requires predicting how many entries the data will occupy — which
//! depends on the variant (Bloom sketches collapse duplicates; conversion caps a key at
//! `d` entries; chaining stores every distinct attribute vector up to `d · Lmax`) — and
//! dividing by an attainable load factor, which §8 measures empirically as a function
//! of the bucket size `b` (Figure 4). The Figure 3 experiment compares these
//! predictions with the entries actually used.

use crate::params::CcfParams;

/// Which CCF variant a prediction is for. Mirrors the rows of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariantKind {
    /// Plain multiset cuckoo filter with attribute vectors (no duplicate handling).
    Plain,
    /// CCF with Bloom attribute sketches (§5.2).
    Bloom,
    /// CCF with Bloom conversion (§6.1).
    Mixed,
    /// CCF with chaining (§6.2).
    Chained,
}

impl VariantKind {
    /// Whether the variant supports row/key deletion at all.
    ///
    /// Plain and chained filters delete freely; the mixed variant deletes vector
    /// entries but refuses converted keys
    /// ([`crate::outcome::DeleteFailure::ConvertedGroup`]); the Bloom variant merges
    /// rows into per-key sketches that cannot be unmerged, so every deletion returns
    /// [`crate::outcome::DeleteFailure::Unsupported`]. Churn-heavy deployments
    /// (sliding windows, rolling caches) should pick a deletable variant up front —
    /// [`crate::CcfBuilder`] callers can consult this before `build()`.
    pub fn supports_deletion(&self) -> bool {
        !matches!(self, VariantKind::Bloom)
    }
}

/// Summary of a dataset's key-duplication structure: for every distinct key, the number
/// of *distinct attribute vectors* associated with it (the random variable `A` of §8).
#[derive(Debug, Clone, Default)]
pub struct DuplicationProfile {
    /// One count per distinct key.
    pub distinct_rows_per_key: Vec<usize>,
}

impl DuplicationProfile {
    /// Build a profile from an iterator of (key, distinct-row-count) pairs or raw
    /// per-key counts.
    pub fn from_counts<I: IntoIterator<Item = usize>>(counts: I) -> Self {
        Self {
            distinct_rows_per_key: counts.into_iter().collect(),
        }
    }

    /// Build a profile by scanning raw (key, attribute-vector) rows: sorted and
    /// deduplicated in one buffer of borrowed rows, each key's distinct vectors form
    /// one run. Counts come in key order.
    pub fn from_rows<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = (u64, &'a [u64])>,
    {
        let mut rows: Vec<(u64, &[u64])> = rows.into_iter().collect();
        rows.sort_unstable();
        rows.dedup();
        let mut counts = Vec::new();
        let mut start = 0;
        for i in 1..=rows.len() {
            if i == rows.len() || rows[i].0 != rows[start].0 {
                counts.push(i - start);
                start = i;
            }
        }
        Self::from_counts(counts)
    }

    /// Number of distinct keys `n_k`.
    pub fn num_keys(&self) -> usize {
        self.distinct_rows_per_key.len()
    }

    /// Total number of distinct (key, attribute vector) rows.
    pub fn num_distinct_rows(&self) -> usize {
        self.distinct_rows_per_key.iter().sum()
    }

    /// Mean number of distinct rows per key, `E[A]`.
    pub fn mean_duplicates(&self) -> f64 {
        if self.num_keys() == 0 {
            0.0
        } else {
            self.num_distinct_rows() as f64 / self.num_keys() as f64
        }
    }

    /// Maximum number of distinct rows for any key.
    pub fn max_duplicates(&self) -> usize {
        self.distinct_rows_per_key
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// Predicted number of non-empty entries for a variant on a dataset (Table 1):
///
/// * Bloom: `n_k` (one entry per distinct key).
/// * Mixed (conversion): `Σ min(A, d)` — conversion caps a key at `d` entries.
/// * Chained: `Σ min(A, d · Lmax)` — every distinct attribute vector gets an entry, up
///   to the chain cap.
/// * Plain: `Σ min(A, 2b)` — the bucket pair is the hard cap (insertions beyond it
///   fail, so this is what could be stored at best).
pub fn predicted_entries(
    variant: VariantKind,
    profile: &DuplicationProfile,
    params: &CcfParams,
) -> usize {
    let d = params.max_dupes;
    match variant {
        VariantKind::Bloom => profile.num_keys(),
        VariantKind::Mixed => profile
            .distinct_rows_per_key
            .iter()
            .map(|&a| a.min(d))
            .sum(),
        VariantKind::Chained => {
            let cap = params
                .max_chain
                .map(|lmax| d.saturating_mul(lmax))
                .unwrap_or(usize::MAX);
            profile
                .distinct_rows_per_key
                .iter()
                .map(|&a| a.min(cap))
                .sum()
        }
        VariantKind::Plain => profile
            .distinct_rows_per_key
            .iter()
            .map(|&a| a.min(2 * params.entries_per_bucket))
            .sum(),
    }
}

/// Empirically attainable load factor as a function of the bucket size `b`, read off
/// Figure 4: b = 4 sustains ≈ 75 %, b = 6 ≈ 87 %, b = 8 ≈ 90 % even with many
/// duplicates. Intermediate sizes interpolate; very large buckets saturate at 95 %.
pub fn attainable_load_factor(entries_per_bucket: usize) -> f64 {
    match entries_per_bucket {
        0 => 0.0,
        1 => 0.50,
        2 => 0.60,
        3 => 0.68,
        4 => 0.75,
        5 => 0.82,
        6 => 0.87,
        7 => 0.885,
        8 => 0.90,
        _ => 0.95f64
            .min(0.90 + 0.01 * (entries_per_bucket as f64 - 8.0))
            .min(0.95),
    }
}

/// Pick the smallest bucket size `b ≥ 2d` (the §8 rule of thumb) and number of buckets
/// `m` such that `m · b ≥ predicted_entries / attainable_load_factor(b)`, and return
/// the parameters updated accordingly.
pub fn size_for_profile(
    variant: VariantKind,
    profile: &DuplicationProfile,
    mut params: CcfParams,
) -> CcfParams {
    // The Bloom variant has no duplicate entries, so the standard cuckoo-filter bucket
    // size of 4 suffices; the others follow b ≈ 2d.
    params.entries_per_bucket = match variant {
        VariantKind::Bloom => 4,
        _ => (2 * params.max_dupes).max(4),
    };
    let entries = predicted_entries(variant, profile, &params).max(1);
    let beta = attainable_load_factor(params.entries_per_bucket);
    let slots = (entries as f64 / beta).ceil() as usize;
    params.num_buckets = slots
        .div_ceil(params.entries_per_bucket)
        .next_power_of_two()
        .max(1);
    params
}

/// Like [`size_for_profile`], but for a *growable* filter: the initial geometry is
/// sized for only `initial_fraction` of the predicted entries (at least one bucket)
/// and `auto_grow` is enabled, so the filter starts small and doubles on demand as the
/// stream arrives. Useful when the duplication profile is a forecast rather than a
/// measurement — under-prediction costs a few O(m·b) remaps instead of insert
/// failures.
///
/// # Panics
/// Panics if `initial_fraction` is not in `(0, 1]`.
pub fn size_for_profile_growable(
    variant: VariantKind,
    profile: &DuplicationProfile,
    params: CcfParams,
    initial_fraction: f64,
) -> CcfParams {
    assert!(
        initial_fraction > 0.0 && initial_fraction <= 1.0,
        "initial_fraction must be in (0, 1]"
    );
    let mut sized = size_for_profile(variant, profile, params);
    let scaled = (sized.num_buckets as f64 * initial_fraction).ceil() as usize;
    sized.num_buckets = scaled.next_power_of_two().max(1);
    sized.auto_grow = true;
    sized
}

/// Bit efficiency of a sketch (eq. 8): `size-in-bits / (n · log2(1/ρ))`, where `n` is
/// the number of keys inserted (counting duplicates, as in §10.2) and `ρ` the measured
/// or target FPR. 1.0 is the information-theoretic optimum for sets; a Bloom filter
/// sits at ≈ 1.44.
pub fn bit_efficiency(size_bits: usize, items: usize, fpr: f64) -> f64 {
    assert!(fpr > 0.0 && fpr < 1.0, "FPR must be in (0, 1)");
    assert!(items > 0, "need at least one item");
    size_bits as f64 / (items as f64 * (1.0 / fpr).log2())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> DuplicationProfile {
        // 4 keys with 1, 2, 5 and 40 distinct rows.
        DuplicationProfile::from_counts([1, 2, 5, 40])
    }

    #[test]
    fn profile_statistics() {
        let p = profile();
        assert_eq!(p.num_keys(), 4);
        assert_eq!(p.num_distinct_rows(), 48);
        assert_eq!(p.max_duplicates(), 40);
        assert!((p.mean_duplicates() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn profile_from_rows_deduplicates() {
        let rows: Vec<(u64, Vec<u64>)> = vec![
            (1, vec![1, 2]),
            (1, vec![1, 2]), // exact duplicate
            (1, vec![3, 4]),
            (2, vec![9, 9]),
        ];
        let p = DuplicationProfile::from_rows(rows.iter().map(|(k, a)| (*k, a.as_slice())));
        let mut counts = p.distinct_rows_per_key.clone();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2]);
    }

    #[test]
    fn predicted_entries_per_variant_match_table_1() {
        let p = profile();
        let params = CcfParams {
            max_dupes: 3,
            entries_per_bucket: 6,
            max_chain: None,
            ..CcfParams::default()
        };
        assert_eq!(predicted_entries(VariantKind::Bloom, &p, &params), 4);
        assert_eq!(
            predicted_entries(VariantKind::Mixed, &p, &params),
            1 + 2 + 3 + 3
        );
        assert_eq!(predicted_entries(VariantKind::Chained, &p, &params), 48);
        // Plain caps at 2b = 12.
        assert_eq!(
            predicted_entries(VariantKind::Plain, &p, &params),
            1 + 2 + 5 + 12
        );
        // With a chain cap of Lmax = 2 the chained variant caps at d·Lmax = 6.
        let capped = CcfParams {
            max_chain: Some(2),
            ..params
        };
        assert_eq!(
            predicted_entries(VariantKind::Chained, &p, &capped),
            1 + 2 + 5 + 6
        );
    }

    #[test]
    fn attainable_load_factor_matches_figure_4_anchor_points() {
        assert!((attainable_load_factor(4) - 0.75).abs() < 1e-12);
        assert!((attainable_load_factor(6) - 0.87).abs() < 1e-12);
        assert!((attainable_load_factor(8) - 0.90).abs() < 1e-12);
        assert!(attainable_load_factor(16) <= 0.95);
        // Monotone in b.
        for b in 1..16 {
            assert!(attainable_load_factor(b) <= attainable_load_factor(b + 1));
        }
    }

    #[test]
    fn size_for_profile_provides_enough_slots() {
        let p = DuplicationProfile::from_counts(vec![3; 10_000]);
        for variant in [
            VariantKind::Bloom,
            VariantKind::Mixed,
            VariantKind::Chained,
            VariantKind::Plain,
        ] {
            let params = size_for_profile(variant, &p, CcfParams::default());
            let entries = predicted_entries(variant, &p, &params);
            assert!(
                params.num_buckets * params.entries_per_bucket
                    >= (entries as f64 / attainable_load_factor(params.entries_per_bucket))
                        as usize,
                "variant {variant:?} undersized"
            );
        }
    }

    #[test]
    fn growable_sizing_starts_small_with_auto_grow_enabled() {
        let p = DuplicationProfile::from_counts(vec![3; 10_000]);
        let full = size_for_profile(VariantKind::Chained, &p, CcfParams::default());
        let growable =
            size_for_profile_growable(VariantKind::Chained, &p, CcfParams::default(), 0.25);
        assert!(growable.auto_grow);
        assert!(growable.num_buckets < full.num_buckets);
        assert!(growable.num_buckets.is_power_of_two());
        // The under-sized filter must still absorb the whole profile by growing.
        let mut f = crate::ChainedCcf::new(growable);
        for (key, &rows) in p.distinct_rows_per_key.iter().enumerate() {
            for i in 0..rows as u64 {
                f.insert_row(key as u64, &[i])
                    .expect("auto-grow absorbs the stream");
            }
        }
    }

    #[test]
    #[should_panic(expected = "initial_fraction")]
    fn growable_sizing_rejects_zero_fraction() {
        let p = DuplicationProfile::from_counts(vec![1]);
        let _ = size_for_profile_growable(VariantKind::Plain, &p, CcfParams::default(), 0.0);
    }

    #[test]
    fn bit_efficiency_reference_points() {
        // A Bloom filter at its optimum: 1.44·log2(1/ρ) bits/item → efficiency 1.44.
        let items = 1000;
        let fpr = 0.01f64;
        let bloom_bits = (1.44 * (1.0 / fpr).log2() * items as f64) as usize;
        let eff = bit_efficiency(bloom_bits, items, fpr);
        assert!((eff - 1.44).abs() < 0.01);
        // A cuckoo filter with b = 4 and β = 0.95: (log2(1/ρ)+3)/β bits per item.
        let cuckoo_bits = (((1.0 / fpr).log2() + 3.0) / 0.95 * items as f64) as usize;
        let eff = bit_efficiency(cuckoo_bits, items, fpr);
        assert!((1.4..1.6).contains(&eff), "cuckoo efficiency {eff}");
    }

    #[test]
    #[should_panic(expected = "FPR must be in (0, 1)")]
    fn bit_efficiency_rejects_bad_fpr() {
        let _ = bit_efficiency(100, 10, 0.0);
    }
}
