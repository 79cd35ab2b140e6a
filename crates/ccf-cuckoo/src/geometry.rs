//! The split bucket geometry shared by every growable partial-key structure.
//!
//! Doubling a partial-key cuckoo structure is subtle: stored fingerprints κ cannot
//! reproduce the key-hash bits a larger table would normally consume. The split
//! geometry solves this by construction — the primary bucket's low
//! `log2(base_buckets)` bits always come from the key hash, the alternate mapping
//! ℓ′ = ℓ ⊕ h(κ) is confined to those low bits, and every capacity doubling appends
//! one high index bit drawn from an independent hash of the *fingerprint*
//! ([`ccf_hash::salted::purpose::GROWTH`]). Queries, inserts and migration can all
//! recompute the high bits from κ alone, so growth is a keyless O(m·b) remap.
//!
//! Bit-for-bit agreement on these formulas between a filter, its grown self, and any
//! filter *derived* from it (Algorithm 2 predicate filters) is load-bearing for the
//! no-false-negative guarantee. Centralizing them here is what keeps the cuckoo
//! substrate, the CCF variants in `ccf-core`, and their derived filters from ever
//! drifting apart.

use ccf_hash::{salted::purpose, HashFamily, SaltedHasher};

/// Bucket-index derivation for a structure that started at `base_buckets` (a power of
/// two) and has doubled `growth_bits` times. Cheap to copy; carries only masks and two
/// salted hashers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitGeometry {
    base_buckets: usize,
    base_mask: usize,
    growth_bits: u32,
    partial_hasher: SaltedHasher,
    growth_hasher: SaltedHasher,
}

impl SplitGeometry {
    /// Geometry for `base_buckets` buckets (rounded up to a power of two) after
    /// `growth_bits` doublings, drawing its hashers from `family` (the structure's
    /// hash family, so equal seeds give equal geometries).
    pub fn new(family: &HashFamily, base_buckets: usize, growth_bits: u32) -> Self {
        let base_buckets = base_buckets.next_power_of_two().max(1);
        Self {
            base_buckets,
            base_mask: base_buckets - 1,
            growth_bits,
            partial_hasher: family.hasher(purpose::PARTIAL_KEY),
            growth_hasher: family.hasher(purpose::GROWTH),
        }
    }

    /// Bucket count at construction (the key hash addresses only these).
    pub fn base_buckets(&self) -> usize {
        self.base_buckets
    }

    /// `base_buckets - 1`: the bits the key hash and the alternate xor may touch.
    pub fn base_mask(&self) -> usize {
        self.base_mask
    }

    /// Number of capacity doublings applied so far.
    pub fn growth_bits(&self) -> u32 {
        self.growth_bits
    }

    /// Total bucket count under this geometry: `base_buckets · 2^growth_bits`.
    pub fn num_buckets(&self) -> usize {
        self.base_buckets << self.growth_bits
    }

    /// The alternate bucket ℓ′ = ℓ ⊕ h(κ), with the xor confined to the base bits so
    /// a pair always shares its growth bits. An involution for any `bucket` in range.
    #[inline]
    pub fn alt_bucket(&self, bucket: usize, fp: u16) -> usize {
        bucket ^ (self.partial_hasher.hash_u64(u64::from(fp)) as usize & self.base_mask)
    }

    /// High-index offset contributed by the fingerprint's growth bits:
    /// `(G(κ) mod 2^growth_bits) · base_buckets`.
    #[inline]
    pub fn growth_offset(&self, fp: u16) -> usize {
        if self.growth_bits == 0 {
            return 0;
        }
        let bits =
            self.growth_hasher.hash_u64(u64::from(fp)) as usize & ((1 << self.growth_bits) - 1);
        bits * self.base_buckets
    }

    /// The primary bucket under this geometry, given the key's base bucket (its hash
    /// reduced to `base_buckets`).
    #[inline]
    pub fn home_bucket(&self, base_bucket: usize, fp: u16) -> usize {
        base_bucket + self.growth_offset(fp)
    }

    /// Bit `bit` of the fingerprint's growth-bit stream (bit `g` decides the move on
    /// the `g`-th doubling).
    #[inline]
    pub fn growth_bit(&self, fp: u16, bit: u32) -> bool {
        (self.growth_hasher.hash_u64(u64::from(fp)) >> bit) & 1 == 1
    }

    /// Combine derived base bits with the growth block of a reference index — e.g. a
    /// chain hop that rewrites only the base bits while staying inside the
    /// fingerprint's growth block.
    #[inline]
    pub fn rebase(&self, base_bits: usize, reference: usize) -> usize {
        (base_bits & self.base_mask) | (reference & !self.base_mask)
    }

    /// Record one capacity doubling.
    pub fn record_doubling(&mut self) {
        self.growth_bits += 1;
    }
}

/// Cap on consecutive doublings a single auto-growing insertion may trigger. One
/// doubling nearly always suffices (it halves the load factor); the cap only guards
/// against runaway allocation on pathological inputs.
pub const MAX_GROWTHS_PER_INSERT: usize = 8;

/// The auto-grow retry policy shared by the growable structures: run `attempt`; on
/// failure (and only when `auto_grow` is set), repeatedly check `growth_can_help`,
/// `grow`, and re-`attempt`, up to [`MAX_GROWTHS_PER_INSERT`] doublings. The last
/// failure is returned when growth is off, cannot help (e.g. a bucket pair saturated
/// with copies of one fingerprint, which shares both buckets at every size), or the
/// retry budget runs out.
pub fn grow_and_retry<S, T, E>(
    state: &mut S,
    auto_grow: bool,
    mut attempt: impl FnMut(&mut S) -> Result<T, E>,
    mut growth_can_help: impl FnMut(&S) -> bool,
    mut grow: impl FnMut(&mut S),
) -> Result<T, E> {
    match attempt(state) {
        Err(failure) if auto_grow => {
            let mut last = failure;
            for _ in 0..MAX_GROWTHS_PER_INSERT {
                if !growth_can_help(state) {
                    return Err(last);
                }
                grow(state);
                match attempt(state) {
                    Ok(outcome) => return Ok(outcome),
                    Err(failure) => last = failure,
                }
            }
            Err(last)
        }
        other => other,
    }
}

/// Best-effort prefetch of `slice[index]` into L1. A pure performance hint — out-of-
/// range indices are ignored, nothing is dereferenced, and the call compiles to a
/// no-op on targets without a prefetch intrinsic. This is the one place in the crate
/// that needs `unsafe`: `_mm_prefetch` is an intrinsic, but it performs no memory
/// access (architecturally it cannot fault), so any address — even a dangling one —
/// is sound to pass.
// SAFETY: the pointer arithmetic stays in bounds (guarded by the length check) and
// `_mm_prefetch` never dereferences — it is architecturally incapable of faulting,
// so passing any address, even dangling, is sound.
#[inline(always)]
#[allow(unsafe_code)]
pub fn prefetch_index<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < slice.len() {
        // In-bounds pointer arithmetic (guarded above); the prefetch itself takes any
        // address without dereferencing it.
        unsafe {
            let ptr = slice.as_ptr().add(index);
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr.cast());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, index);
}

/// Chunked three-pass batch-probe driver shared by every batched query path: derive
/// the `(κ, ℓ, ℓ′)` triples of a chunk into stack buffers (hash-only pass), issue
/// best-effort `prefetch` hints for every bucket the chunk will touch (prefetch pass),
/// then run `probe` over the triples (probe pass). The split keeps the independent
/// hashing work out of the dependency chain of the bucket loads and lets a whole
/// chunk's cache-line fills be in flight before the first probe executes — the win
/// grows with the structure (DRAM-resident buckets) — and no per-key heap traffic is
/// added. Results are in key order, one `bool` per key.
///
/// `prefetch` receives each bucket index of the pair; implementations forward to
/// [`prefetch_index`] over their storage (or do nothing — the driver's correctness
/// never depends on it).
pub fn probe_chunked(
    keys: &[u64],
    mut derive: impl FnMut(u64) -> (u16, usize, usize),
    mut prefetch: impl FnMut(usize),
    mut probe: impl FnMut(u16, usize, usize) -> bool,
) -> Vec<bool> {
    const CHUNK: usize = 64;
    let mut out = Vec::with_capacity(keys.len());
    let mut fps = [0u16; CHUNK];
    let mut primary = [0usize; CHUNK];
    let mut alt = [0usize; CHUNK];
    for chunk in keys.chunks(CHUNK) {
        for (i, &key) in chunk.iter().enumerate() {
            let (fp, l, l_alt) = derive(key);
            fps[i] = fp;
            primary[i] = l;
            alt[i] = l_alt;
        }
        for i in 0..chunk.len() {
            prefetch(primary[i]);
            if alt[i] != primary[i] {
                prefetch(alt[i]);
            }
        }
        for i in 0..chunk.len() {
            out.push(probe(fps[i], primary[i], alt[i]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry(growth_bits: u32) -> SplitGeometry {
        SplitGeometry::new(&HashFamily::new(42), 256, growth_bits)
    }

    #[test]
    fn alt_bucket_is_an_involution_within_the_growth_block() {
        for g in [0u32, 1, 3] {
            let geom = geometry(g);
            for fp in 1..2000u16 {
                let home = geom.home_bucket(fp as usize % 256, fp);
                let alt = geom.alt_bucket(home, fp);
                assert!(alt < geom.num_buckets());
                assert_eq!(geom.alt_bucket(alt, fp), home);
                assert_eq!(home / 256, alt / 256, "pair must share its growth block");
            }
        }
    }

    #[test]
    fn growth_offset_extends_by_one_bit_per_doubling() {
        let before = geometry(2);
        let mut after = before;
        after.record_doubling();
        for fp in 1..2000u16 {
            let extra = after.growth_offset(fp) - before.growth_offset(fp);
            let expected = if before.growth_bit(fp, 2) {
                before.num_buckets()
            } else {
                0
            };
            assert_eq!(extra, expected, "fp {fp}");
        }
    }

    #[test]
    fn probe_chunked_visits_every_key_in_order() {
        let keys: Vec<u64> = (0..1000).collect();
        let mut derived = Vec::new();
        let mut prefetched = 0usize;
        let out = probe_chunked(
            &keys,
            |k| {
                derived.push(k);
                (1, k as usize, k as usize + 1)
            },
            |_| prefetched += 1,
            |_, l, _| l % 3 == 0,
        );
        assert_eq!(derived, keys);
        assert_eq!(out.len(), keys.len());
        // Every pair here is distinct (ℓ′ = ℓ + 1), so both buckets get a hint.
        assert_eq!(prefetched, 2 * keys.len());
        for (i, &hit) in out.iter().enumerate() {
            assert_eq!(hit, i % 3 == 0);
        }
    }

    #[test]
    fn probe_chunked_hints_self_paired_buckets_once() {
        let keys: Vec<u64> = (0..10).collect();
        let mut prefetched = 0usize;
        let out = probe_chunked(
            &keys,
            |k| (1, k as usize, k as usize),
            |_| prefetched += 1,
            |_, _, _| true,
        );
        assert_eq!(out.len(), keys.len());
        assert_eq!(prefetched, keys.len(), "ℓ′ == ℓ must not be hinted twice");
    }

    #[test]
    fn prefetch_index_ignores_out_of_range() {
        // Must not panic or fault for any index, including past the end and on an
        // empty slice — it is a hint, not an access.
        let data = [1u64, 2, 3];
        prefetch_index(&data, 0);
        prefetch_index(&data, 2);
        prefetch_index(&data, 3);
        prefetch_index(&data, usize::MAX);
        prefetch_index::<u64>(&[], 0);
    }

    #[test]
    fn grow_and_retry_respects_policy_and_budget() {
        // auto_grow off: one attempt, no growth.
        let mut calls = (0u32, 0u32); // (attempts, grows)
        let r: Result<(), ()> = grow_and_retry(
            &mut calls,
            false,
            |c| {
                c.0 += 1;
                Err(())
            },
            |_| true,
            |c| c.1 += 1,
        );
        assert!(r.is_err());
        assert_eq!(calls, (1, 0));

        // auto_grow on but growth cannot help: one attempt, no growth.
        let mut calls = (0u32, 0u32);
        let r: Result<(), ()> = grow_and_retry(
            &mut calls,
            true,
            |c| {
                c.0 += 1;
                Err(())
            },
            |_| false,
            |c| c.1 += 1,
        );
        assert!(r.is_err());
        assert_eq!(calls, (1, 0));

        // Succeeds on the retry after one doubling.
        let mut calls = (0u32, 0u32);
        let r: Result<(), ()> = grow_and_retry(
            &mut calls,
            true,
            |c| {
                c.0 += 1;
                if c.1 > 0 {
                    Ok(())
                } else {
                    Err(())
                }
            },
            |_| true,
            |c| c.1 += 1,
        );
        assert!(r.is_ok());
        assert_eq!(calls, (2, 1));

        // Never succeeds: the retry budget bounds the doublings.
        let mut calls = (0u32, 0u32);
        let r: Result<(), ()> = grow_and_retry(
            &mut calls,
            true,
            |c| {
                c.0 += 1;
                Err(())
            },
            |_| true,
            |c| c.1 += 1,
        );
        assert!(r.is_err());
        assert_eq!(calls.1, MAX_GROWTHS_PER_INSERT as u32);
    }

    #[test]
    fn rebase_keeps_the_reference_block() {
        let geom = geometry(2);
        let reference = 256 * 3 + 17; // block 3
        let hopped = geom.rebase(0xABCD, reference);
        assert_eq!(hopped / 256, 3);
        assert_eq!(hopped % 256, 0xABCD % 256);
    }
}
