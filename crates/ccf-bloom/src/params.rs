//! Bloom filter parameter formulas used throughout the paper.
//!
//! §7.2 uses the standard FPR approximation ρ ≈ (1 − exp(−hn/s))^h and notes (citing
//! Bose et al.) that it *underestimates* the FPR for small filters — exactly the regime
//! Bloom attribute sketches live in. §5.2 and §10 use the bits/item comparisons:
//! a Bloom filter needs ≈ 1.44·log2(1/ρ) bits per item, a fingerprint needs
//! log2(1/ρ), and an optimally sized cuckoo filter needs (log2(1/ρ) + 3)/β.

/// Optimal number of hash functions for a Bloom filter with `bits` bits expected to
/// hold `items` distinct items: `k = (bits / items) · ln 2`, rounded to the nearest
/// integer and clamped to at least 1.
///
/// Equation (2)/(3) of the paper uses exactly this with `items = (d + 1) · #α` for
/// Bloom conversion.
pub fn optimal_num_hashes(bits: usize, items: usize) -> usize {
    if items == 0 || bits == 0 {
        return 1;
    }
    let k = (bits as f64 / items as f64) * std::f64::consts::LN_2;
    (k.round() as usize).max(1)
}

/// Classic Bloom filter FPR approximation `ρ ≈ (1 − exp(−k·n/s))^k` for `k` hashes,
/// `n` inserted items and `s` bits.
///
/// For the very small filters used as attribute sketches this underestimates the true
/// FPR (Bose et al. 2008, cited in §7.2); [`bloom_fpr_exact_small`] gives the exact
/// expectation for small `s`.
pub fn bloom_fpr(num_hashes: usize, bits: usize, items: usize) -> f64 {
    if bits == 0 {
        return 1.0;
    }
    if items == 0 {
        return 0.0;
    }
    let k = num_hashes as f64;
    let n = items as f64;
    let s = bits as f64;
    (1.0 - (-k * n / s).exp()).powf(k)
}

/// Exact expected FPR of a Bloom filter with `s` bits, `k` hash functions and `n`
/// inserted items, assuming independent uniform hashes:
/// `E[(Z/s)^k]` where `Z` is the number of set bits. Computed via the distribution of
/// occupied bits (a balls-in-bins occupancy computation), feasible for the tiny
/// filters used inside CCF entries (`s` up to a few hundred bits).
pub fn bloom_fpr_exact_small(num_hashes: usize, bits: usize, items: usize) -> f64 {
    if bits == 0 {
        return 1.0;
    }
    if items == 0 {
        return 0.0;
    }
    let s = bits;
    let k = num_hashes;
    let throws = k * items;
    // p[z] = probability exactly z distinct bits are set after `throws` uniform throws.
    // Recurrence over throws: with z bits set, the next throw hits a new bit with
    // probability (s - z)/s.
    let mut p = vec![0.0f64; s + 1];
    p[0] = 1.0;
    for _ in 0..throws {
        let mut next = vec![0.0f64; s + 1];
        for z in 0..=s {
            if p[z] == 0.0 {
                continue;
            }
            let stay = z as f64 / s as f64;
            next[z] += p[z] * stay;
            if z < s {
                next[z + 1] += p[z] * (1.0 - stay);
            }
        }
        p = next;
    }
    // FPR for a query of k independent positions given z set bits is (z/s)^k.
    p.iter()
        .enumerate()
        .map(|(z, &pz)| pz * (z as f64 / s as f64).powi(k as i32))
        .sum()
}

/// Bits per item a Bloom filter needs for a target FPR: `1.44 · log2(1/ρ)` (§4.2).
pub fn optimal_bits_per_item(target_fpr: f64) -> f64 {
    assert!(
        target_fpr > 0.0 && target_fpr < 1.0,
        "FPR must be in (0, 1)"
    );
    (1.0 / std::f64::consts::LN_2) * (1.0 / target_fpr).log2()
}

/// Bits per item an optimally sized cuckoo filter needs for a target FPR and load
/// factor β, with `b = 4` entries per bucket: `(log2(1/ρ) + 3)/β` (§4.2).
pub fn cuckoo_bits_per_item(target_fpr: f64, load_factor: f64) -> f64 {
    assert!(
        target_fpr > 0.0 && target_fpr < 1.0,
        "FPR must be in (0, 1)"
    );
    assert!(
        load_factor > 0.0 && load_factor <= 1.0,
        "load factor must be in (0, 1]"
    );
    ((1.0 / target_fpr).log2() + 3.0) / load_factor
}

/// Bits per item of a cuckoo filter with the semi-sorting optimisation:
/// `(log2(1/ρ) + 2)/β` (§4.2).
pub fn semi_sorted_cuckoo_bits_per_item(target_fpr: f64, load_factor: f64) -> f64 {
    assert!(
        target_fpr > 0.0 && target_fpr < 1.0,
        "FPR must be in (0, 1)"
    );
    assert!(
        load_factor > 0.0 && load_factor <= 1.0,
        "load factor must be in (0, 1]"
    );
    ((1.0 / target_fpr).log2() + 2.0) / load_factor
}

/// Number of hash functions chosen by Bloom conversion (§6.1, eq. 2):
/// `|B| / ((d + 1) · #α) · ln 2`, where `|B|` is the bit budget of the converted
/// filter, `d` the duplicate cap, and `num_attrs` = #α the number of attribute columns.
pub fn conversion_num_hashes(bloom_bits: usize, d: usize, num_attrs: usize) -> usize {
    optimal_num_hashes(bloom_bits, (d + 1) * num_attrs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_hashes_matches_ln2_rule() {
        // 10 bits/item → k ≈ 6.93 → 7
        assert_eq!(optimal_num_hashes(1000, 100), 7);
        // 8 bits/item → k ≈ 5.55 → 6
        assert_eq!(optimal_num_hashes(800, 100), 6);
        // Degenerate inputs fall back to 1.
        assert_eq!(optimal_num_hashes(0, 10), 1);
        assert_eq!(optimal_num_hashes(10, 0), 1);
        assert_eq!(optimal_num_hashes(1, 1000), 1);
    }

    #[test]
    fn fpr_formula_sanity() {
        // Classic configuration: 10 bits/item, k = 7 → FPR ≈ 0.8%-0.9%.
        let fpr = bloom_fpr(7, 10_000, 1000);
        assert!((0.006..0.012).contains(&fpr), "fpr = {fpr}");
        // Empty filter never errs; zero-bit filter always errs.
        assert_eq!(bloom_fpr(3, 100, 0), 0.0);
        assert_eq!(bloom_fpr(3, 0, 10), 1.0);
        // More items → higher FPR, monotonically.
        assert!(bloom_fpr(4, 100, 20) < bloom_fpr(4, 100, 40));
    }

    #[test]
    fn exact_small_fpr_upper_bounds_approximation() {
        // Bose et al.: the approximation underestimates the FPR; for small filters the
        // exact value must be at least as large.
        for (k, s, n) in [(2usize, 16usize, 4usize), (2, 24, 6), (3, 32, 5), (1, 8, 3)] {
            let approx = bloom_fpr(k, s, n);
            let exact = bloom_fpr_exact_small(k, s, n);
            assert!(
                exact >= approx - 1e-12,
                "exact {exact} < approx {approx} for k={k}, s={s}, n={n}"
            );
        }
    }

    #[test]
    fn exact_small_fpr_converges_to_approximation_for_larger_filters() {
        let approx = bloom_fpr(4, 256, 40);
        let exact = bloom_fpr_exact_small(4, 256, 40);
        assert!(
            (exact - approx).abs() / exact < 0.15,
            "approx {approx} vs exact {exact}"
        );
    }

    #[test]
    fn bits_per_item_comparisons_from_paper() {
        // §4.2: cuckoo beats Bloom when target FPR < 0.35% at β = 95% (b = 4), and the
        // semi-sorted variant extends this to FPR < 2.5%.
        let beta = 0.95;
        // At 0.3 %, cuckoo (without semi-sorting) should already be smaller.
        assert!(cuckoo_bits_per_item(0.003, beta) < optimal_bits_per_item(0.003));
        // At 1 %, plain cuckoo is larger but the semi-sorted variant is smaller.
        assert!(cuckoo_bits_per_item(0.01, beta) > optimal_bits_per_item(0.01));
        assert!(semi_sorted_cuckoo_bits_per_item(0.01, beta) < optimal_bits_per_item(0.01));
        // At 5 %, Bloom is smaller than both cuckoo variants.
        assert!(optimal_bits_per_item(0.05) < semi_sorted_cuckoo_bits_per_item(0.05, beta));
    }

    #[test]
    fn conversion_hash_count_follows_equation_2() {
        // |B| = 48 bits, d = 3, #α = 2 → k ≈ 48/(4·2)·ln2 ≈ 4.16 → 4.
        assert_eq!(conversion_num_hashes(48, 3, 2), 4);
        // Never zero.
        assert_eq!(conversion_num_hashes(4, 3, 4), 1);
    }

    #[test]
    #[should_panic(expected = "FPR must be in (0, 1)")]
    fn bits_per_item_rejects_invalid_fpr() {
        let _ = optimal_bits_per_item(0.0);
    }
}
