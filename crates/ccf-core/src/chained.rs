//! The CCF with chaining (§6.2, Algorithms 4 and 5) — the paper's central multiset
//! technique.
//!
//! Chaining allows a key to use more than one bucket pair. At most `d` copies of a key
//! fingerprint κ may live in a bucket pair (ℓ, ℓ′); once a pair is saturated, the next
//! pair in the chain starts at `h(min(ℓ, ℓ′), κ)`. A query walks the same chain and
//! stops at the first pair that is not saturated; if it walks `Lmax` saturated pairs it
//! returns true unconditionally, which is what preserves the no-false-negative
//! guarantee (Theorem 3) even for rows the insertion discarded.
//!
//! Cycle handling: the chain-hop hash additionally folds in the chain depth, so
//! revisiting a bucket pair at a different depth continues with fresh, independent
//! hops instead of repeating the cycle. This realizes the "detect cycles and extend the
//! chain" refinement of §6.2 (the paper suggests Floyd's algorithm; salting by depth
//! achieves the same extension deterministically, which both insertion and query need
//! to agree on). [`ChainedCcf::chain_cycle_stats`] still reports how often the raw
//! recurrence would have cycled, for the curious.
//!
//! Queries, inserts and deletes walk a chain in one place, `Chain::walk`, on a
//! `ChainCursor`. Since a chain's pairs depend only on (κ, ℓ) and the depth, the
//! cursor computes later pairs before their buckets are read and prefetches them, so
//! a long chain's cache misses overlap instead of following one another.

use ccf_bloom::BitVec;
use ccf_cuckoo::geometry::{grow_and_retry, probe_chunked, SplitGeometry};
use ccf_cuckoo::{GrowthStats, OccupancyStats, PackedBuckets};
use ccf_hash::{AttrFingerprinter, Fingerprinter, HashFamily, SaltedHasher};
use ccf_telemetry::Telemetry;

use crate::attr::{match_fingerprint_vector, VectorCodec};
use crate::entry_table::{read_rng, read_vector_slot, write_vector_slot, EntryTable, KickRule};
use crate::instruments::CcfInstruments;
use crate::key::FilterKey;
use crate::outcome::{DeleteFailure, InsertFailure, InsertOutcome};
use crate::params::{CcfParams, ParamsError};
use crate::predicate::Predicate;

/// Safety cap on the number of bucket pairs a single insert/query may walk when
/// `Lmax = ∞`; in practice chains stay short, and hitting this indicates a saturated
/// filter rather than a correctness issue (queries that hit it return true, preserving
/// the no-false-negative guarantee).
const WALK_SAFETY_CAP: usize = 1 << 16;

/// Most pairs a [`ChainCursor`] keeps computed and prefetched ahead of the pair
/// being scanned. The hop sequence depends only on (κ, ℓ) and the depth, so the
/// fetches of later pairs can be in flight while earlier pairs are scanned, instead
/// of each hop being a dependent cache miss. The distance ramps up with the depth
/// (one pair ahead at depth 1, two at depth 2, …), so a walk that ends at depth `i`
/// computes at most `min(i, LOOKAHEAD)` hops it never uses: short chains, the common
/// case, stay nearly as cheap as a plain hop loop.
const LOOKAHEAD: usize = 6;

/// Ring slots for the current pair plus [`LOOKAHEAD`] computed ones.
const RING: usize = (LOOKAHEAD + 1).next_power_of_two();

/// The chain rule — hop hash, saturation count `d` and walk cap — shared by a chained
/// filter and the predicate filters derived from it, so their walks cannot drift.
#[derive(Debug, Clone, Copy)]
struct Chain {
    hasher: SaltedHasher,
    max_dupes: usize,
    max_walk: usize,
}

impl Chain {
    fn new(family: &HashFamily, params: &CcfParams) -> Self {
        Self {
            hasher: family.hasher(ccf_hash::salted::purpose::CHAIN),
            max_dupes: params.max_dupes,
            max_walk: params.max_chain.unwrap_or(WALK_SAFETY_CAP),
        }
    }

    /// The start bucket of the next chain pair: `h(min(ℓ, ℓ′), κ)` salted with the
    /// chain depth (cycle resolution — see module docs). The hop only rewrites the
    /// base-geometry bits ([`SplitGeometry::rebase`]): the whole chain of a
    /// fingerprint stays inside its growth block, which is what lets growth migrate
    /// chained entries as a pure remap.
    #[inline]
    fn hop(
        &self,
        geometry: &SplitGeometry,
        l: usize,
        l_alt: usize,
        fp: u16,
        depth: usize,
    ) -> usize {
        let lmin = l.min(l_alt);
        let hop = self.hasher.hash_pair(
            (lmin & geometry.base_mask()) as u64,
            (u64::from(fp) << 32) | depth as u64,
        ) as usize;
        geometry.rebase(hop, lmin)
    }

    /// The one chain walk (Algorithms 4 and 5), from the pair (ℓ, ℓ′): `scan(depth,
    /// ℓ, ℓ′)` looks at one pair and either ends the walk with a value or returns
    /// `None` when the pair is saturated, which moves the walk on to the next pair.
    /// `None` means `Lmax` saturated pairs were walked. `prefetch` is handed every
    /// bucket of the pairs the cursor computes ahead.
    #[inline]
    fn walk<R>(
        &self,
        geometry: &SplitGeometry,
        fp: u16,
        (l, l_alt): (usize, usize),
        prefetch: impl Fn(usize),
        mut scan: impl FnMut(usize, usize, usize) -> Option<R>,
    ) -> Option<R> {
        let mut cursor = ChainCursor::new(fp, l, l_alt);
        loop {
            let (l, l_alt) = cursor.pair();
            if let Some(done) = scan(cursor.depth(), l, l_alt) {
                return Some(done);
            }
            if !cursor.advance(self, geometry, &prefetch) {
                return None;
            }
        }
    }

    /// Algorithm 5's query: true as soon as `matches` accepts a copy's (bucket, slot),
    /// false at the first pair holding fewer than `d` copies, and true after `Lmax`
    /// saturated pairs (§6.2).
    fn query(
        &self,
        keys: &PackedBuckets,
        geometry: &SplitGeometry,
        fp: u16,
        pair: (usize, usize),
        prefetch: impl Fn(usize),
        matches: impl Fn(usize, usize) -> bool,
    ) -> bool {
        let scan = |_, l, l_alt| {
            let mut count = 0usize;
            let buckets = if l == l_alt { 1 } else { 2 };
            for bucket in [l, l_alt].into_iter().take(buckets) {
                for slot in keys.slots_of(bucket, fp) {
                    count += 1;
                    if matches(bucket, slot) {
                        return Some(true);
                    }
                }
            }
            (count < self.max_dupes).then_some(false)
        };
        self.walk(geometry, fp, pair, prefetch, scan)
            .unwrap_or(true)
    }
}

/// A position on κ's chain of bucket pairs: yields `(depth, ℓ, ℓ′)` and computes
/// every hop once. Every pair of κ is `{ℓ, ℓ ⊕ o}` for one offset `o = h(κ)` masked
/// to the base bits, so the cursor takes `o` from the first pair instead of hashing
/// κ again per pair. A walk that stays on its first pair computes nothing more; each
/// [`ChainCursor::advance`] tops up a ring of computed pairs, prefetching their
/// buckets as it computes them, to `min(depth, LOOKAHEAD)` pairs ahead.
#[derive(Debug)]
struct ChainCursor {
    fp: u16,
    /// ℓ ⊕ ℓ′, the same for every pair of κ; 0 when κ's buckets are self-paired.
    alt_offset: usize,
    depth: usize,
    /// Deepest pair computed so far.
    computed: usize,
    /// ℓ of pair `i` at `ring[i % RING]`, for `depth ≤ i ≤ computed`.
    ring: [usize; RING],
}

impl ChainCursor {
    #[inline]
    fn new(fp: u16, l: usize, l_alt: usize) -> Self {
        let mut ring = [0; RING];
        ring[0] = l;
        Self {
            fp,
            alt_offset: l ^ l_alt,
            depth: 0,
            computed: 0,
            ring,
        }
    }

    #[inline]
    fn depth(&self) -> usize {
        self.depth
    }

    /// The current pair (ℓ, ℓ′).
    #[inline]
    fn pair(&self) -> (usize, usize) {
        let l = self.ring[self.depth % RING];
        (l, l ^ self.alt_offset)
    }

    /// Move to the next pair, keeping up to [`LOOKAHEAD`] pairs computed and
    /// prefetched beyond it; false (and no move) when the next pair would pass the
    /// walk cap.
    #[inline]
    fn advance(
        &mut self,
        chain: &Chain,
        geometry: &SplitGeometry,
        prefetch: impl Fn(usize),
    ) -> bool {
        let next = self.depth + 1;
        if next >= chain.max_walk {
            return false;
        }
        let horizon = (next + LOOKAHEAD.min(next)).min(chain.max_walk - 1);
        while self.computed < horizon {
            let l = self.ring[self.computed % RING];
            let hop = chain.hop(geometry, l, l ^ self.alt_offset, self.fp, self.computed);
            self.computed += 1;
            self.ring[self.computed % RING] = hop;
            prefetch(hop);
            if self.alt_offset != 0 {
                prefetch(hop ^ self.alt_offset);
            }
        }
        self.depth = next;
        true
    }
}

/// One pair of a delete's walk, recorded in the entry table's walk scratch
/// ([`EntryTable::take_walk`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainStep {
    /// ℓ; ℓ′ is ℓ ⊕ the walk's alt offset.
    l: usize,
    /// Copies of κ in the pair when the walk scanned it.
    copies: usize,
    /// Whether the pair is new to the walk. A hop can land on a pair a shallower
    /// depth already visited (the same buckets: a pair is fixed by either of its
    /// buckets); that repeat holds the same copies, which belong to the first visit.
    first: bool,
}

/// Mark the walked pairs `steps` that repeat a shallower one (see
/// [`ChainStep::first`]), `alt_offset` being ℓ ⊕ ℓ′. One pass with an open-addressed
/// set of pair ids `min(ℓ, ℓ′)` laid out past the steps in the same buffer: O(k) for
/// k pairs, and no allocation once the buffer has grown. A one-pair walk skips it.
fn mark_repeated_pairs(steps: &mut Vec<ChainStep>, alt_offset: usize) {
    let k = steps.len();
    if k < 2 {
        return;
    }
    let slots = (2 * k).next_power_of_two();
    let empty = ChainStep {
        l: 0,
        copies: 0,
        first: true,
    };
    // Slot `j` of the set is `steps[k + j]`, holding a pair id + 1 in `l` (0: free).
    steps.resize(k + slots, empty);
    for i in 0..k {
        let id = steps[i].l.min(steps[i].l ^ alt_offset) + 1;
        let mut j = ((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        loop {
            j &= slots - 1;
            match steps[k + j].l {
                0 => {
                    steps[k + j].l = id;
                    break;
                }
                seen if seen == id => {
                    steps[i].first = false;
                    break;
                }
                _ => j += 1,
            }
        }
    }
    steps.truncate(k);
}

/// Conditional cuckoo filter with chaining.
#[derive(Debug, Clone)]
pub struct ChainedCcf {
    /// One slot per stored row: κ and the row's attribute fingerprint vector.
    table: EntryTable,
    params: CcfParams,
    attr_fp: AttrFingerprinter,
    /// The packed layout of a slot's attribute fingerprints.
    codec: VectorCodec,
    chain: Chain,
    key_lower: SaltedHasher,
    rows_absorbed: usize,
    rows_dropped: usize,
    max_chain_seen: usize,
    instruments: CcfInstruments,
}

impl ChainedCcf {
    /// Create an empty filter. `params.num_buckets` is rounded up to a power of two.
    ///
    /// # Panics
    /// Panics on impossible parameters; use [`ChainedCcf::try_new`] (or the
    /// [`crate::CcfBuilder`] facade) to get a [`ParamsError`] instead.
    pub fn new(params: CcfParams) -> Self {
        Self::try_new(params).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Create an empty filter, reporting impossible parameters as a [`ParamsError`].
    /// `params.num_buckets` is rounded up to a power of two.
    pub fn try_new(mut params: CcfParams) -> Result<Self, ParamsError> {
        params.num_buckets = params.num_buckets.next_power_of_two().max(1);
        params.try_validate()?;
        let family = HashFamily::new(params.seed);
        let codec = VectorCodec::new(params.attr_bits, params.num_attrs);
        Ok(Self {
            table: EntryTable::new(&family, &params, codec.bytes(), params.seed ^ 0xC4A1),
            codec,
            attr_fp: AttrFingerprinter::new(&family, params.attr_bits, params.small_value_opt),
            chain: Chain::new(&family, &params),
            key_lower: family.hasher(ccf_hash::salted::purpose::KEY_LOWER),
            rows_absorbed: 0,
            rows_dropped: 0,
            max_chain_seen: 0,
            instruments: CcfInstruments::disabled(),
            params,
        })
    }

    /// Variant payload of the [`crate::AnyCcf`] snapshot format: growth state, exact
    /// RNG words, the chained variant's extra counters (dropped rows, deepest chain
    /// walk), and every bucket's entries.
    pub(crate) fn snapshot_payload(&self, w: &mut ccf_cuckoo::ByteWriter) {
        w.put_u32(self.growth_bits());
        self.table.write_rng(w);
        w.put_usize(self.rows_absorbed);
        w.put_usize(self.rows_dropped);
        w.put_usize(self.max_chain_seen);
        self.table.write_buckets(w, write_vector_slot(self.codec));
    }

    /// Inverse of [`ChainedCcf::snapshot_payload`]; see
    /// [`crate::PlainCcf::from_snapshot_payload`] for the shared validation rules.
    pub(crate) fn from_snapshot_payload(
        params: CcfParams,
        r: &mut ccf_cuckoo::ByteReader<'_>,
    ) -> Result<Self, ccf_cuckoo::SnapshotError> {
        let growth_bits = r.get_u32()?;
        let rng = read_rng(r)?;
        let rows_absorbed = r.get_usize()?;
        let rows_dropped = r.get_usize()?;
        let max_chain_seen = r.get_usize()?;
        let mut f = crate::snapshot::at_base_size(params, growth_bits, Self::try_new)?;
        f.table
            .restore(growth_bits, rng, r, read_vector_slot(f.codec))?;
        f.params.num_buckets = params.num_buckets;
        f.rows_absorbed = rows_absorbed;
        f.rows_dropped = rows_dropped;
        f.max_chain_seen = max_chain_seen;
        Ok(f)
    }

    /// Resolve this filter's [`CcfInstruments`] against `telemetry` (series get
    /// `variant="chained"` plus `extra` labels, and the chain-walk histogram is
    /// enabled). Call once; hot paths then record through pre-resolved handles.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry, extra: &[(&str, &str)]) {
        self.instruments = CcfInstruments::resolve_chained(telemetry, "chained", extra);
    }

    /// The telemetry bundle events are recorded into (disabled by default).
    pub fn instruments(&self) -> &CcfInstruments {
        &self.instruments
    }

    /// The hasher typed keys are lowered with ([`FilterKey::lower`]); see
    /// [`crate::key`] for the prehashed-key contract.
    pub fn key_lower_hasher(&self) -> SaltedHasher {
        self.key_lower
    }

    /// The filter's parameters (with `num_buckets` normalized).
    pub fn params(&self) -> &CcfParams {
        &self.params
    }

    /// Number of occupied entries.
    pub fn occupied_entries(&self) -> usize {
        self.table.occupied()
    }

    /// Number of rows absorbed (including deduplicated and dropped rows).
    pub fn rows_absorbed(&self) -> usize {
        self.rows_absorbed
    }

    /// Number of rows discarded because the chain cap `Lmax` was reached.
    pub fn rows_dropped(&self) -> usize {
        self.rows_dropped
    }

    /// Longest chain (number of bucket pairs) any insertion has walked.
    pub fn max_chain_seen(&self) -> usize {
        self.max_chain_seen
    }

    /// Total entry slots `m · b`.
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Load factor β.
    pub fn load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    /// Serialized size in bits: every slot carries |κ| + #α·|α| bits.
    pub fn size_bits(&self) -> usize {
        self.capacity() * self.params.vector_entry_bits()
    }

    /// The attribute fingerprinter used by this filter.
    pub fn attr_fingerprinter(&self) -> &AttrFingerprinter {
        &self.attr_fp
    }

    /// Number of capacity doublings applied so far.
    pub fn growth_bits(&self) -> u32 {
        self.table.geometry().growth_bits()
    }

    /// Per-bucket occupancy summary, including the allocated heap bytes of the entry
    /// table.
    pub fn occupancy(&self) -> OccupancyStats {
        self.table.occupancy()
    }

    /// Resize-history summary.
    pub fn growth_stats(&self) -> GrowthStats {
        self.table.growth_stats()
    }

    /// Raw storage snapshot: per bucket, the (κ, attribute-fingerprint-vector) entries
    /// in slot order. Used by rollback tests and state diagnostics; two filters with
    /// equal snapshots answer every query identically.
    pub fn bucket_snapshot(&self) -> Vec<Vec<(u16, Vec<u16>)>> {
        let t = &self.table;
        (0..t.num_buckets())
            .map(|bucket| {
                (0..t.len(bucket))
                    .map(|s| {
                        let attrs = self.codec.unpack(t.payload(bucket, s)).collect();
                        (t.fp(bucket, s), attrs)
                    })
                    .collect()
            })
            .collect()
    }

    /// Double the filter's capacity, migrating entries by their stored fingerprints
    /// alone. Entries of one fingerprint move together (same growth bit), every bucket
    /// pair maps onto a pair, and chain hops only rewrite base-geometry bits — so the
    /// remap preserves per-pair saturation counts and every chain walk, and cannot
    /// fail. No original keys (and no chain re-walking) are needed.
    pub fn grow(&mut self) {
        self.instruments.grows.inc();
        self.table.grow();
        self.params.num_buckets = self.table.num_buckets();
    }

    /// Insert a row (Algorithm 4). Exact duplicates of a stored (κ, α) pair are
    /// deduplicated; rows beyond the chain cap are dropped (still covered by the
    /// no-false-negative guarantee). Without `auto_grow`, kick exhaustion fails and
    /// rolls back; with it, the filter doubles and retries (chained filters never
    /// fail on duplicate saturation — that is what chains are for — so every
    /// `KicksExhausted` is a genuine capacity problem growth can relieve).
    pub fn insert_row<K: FilterKey>(
        &mut self,
        key: K,
        attrs: &[u64],
    ) -> Result<InsertOutcome, InsertFailure> {
        let key = key.lower(&self.key_lower);
        self.insert_row_prehashed(key, attrs)
    }

    /// [`ChainedCcf::insert_row`] on already-lowered key material (see
    /// [`ChainedCcf::key_lower_hasher`]). For `u64` keys the two are identical.
    pub fn insert_row_prehashed(
        &mut self,
        key: u64,
        attrs: &[u64],
    ) -> Result<InsertOutcome, InsertFailure> {
        let result = match self.params.check_arity(attrs) {
            Ok(()) => grow_and_retry(
                self,
                self.params.auto_grow,
                |f| f.try_insert_row(key, attrs),
                |_| true, // chained failures are genuine fullness; growth always helps
                |f| f.grow(),
            ),
            Err(e) => Err(e),
        };
        self.instruments.record_insert(&result);
        result
    }

    fn try_insert_row(&mut self, key: u64, attrs: &[u64]) -> Result<InsertOutcome, InsertFailure> {
        let (fp, l, l_alt) = self.table.pair_of(key);
        self.table.prefetch_for_update(l, l_alt);
        self.codec
            .pack_row(&self.attr_fp, attrs, self.table.staged_mut());
        self.rows_absorbed += 1;
        let t = &self.table;
        let end = self.chain.walk(
            t.geometry(),
            fp,
            (l, l_alt),
            |bucket| t.prefetch(bucket),
            |depth, l, l_alt| {
                let mut copies = 0;
                for (b, s) in t.pair_slots(fp, l, l_alt) {
                    // Dedupe: (κ, α) already present in this pair.
                    if t.payload(b, s) == t.staged() {
                        return Some((depth, None));
                    }
                    copies += 1;
                }
                // A pair saturated with d copies of κ moves the walk to the next pair.
                (copies < self.chain.max_dupes).then_some((depth, Some((l, l_alt))))
            },
        );
        let Some((depth, free_pair)) = end else {
            // Chain cap Lmax reached with every pair saturated: the row is discarded,
            // but queries walking the same saturated chain return true (Theorem 3).
            let max_walk = self.chain.max_walk;
            self.max_chain_seen = self.max_chain_seen.max(max_walk);
            self.instruments.chain_walk_depth.observe(max_walk as u64);
            self.rows_dropped += 1;
            return Ok(InsertOutcome::DroppedChainCap);
        };
        self.max_chain_seen = self.max_chain_seen.max(depth + 1);
        let Some(pair) = free_pair else {
            self.instruments.chain_walk_depth.observe(depth as u64);
            return Ok(InsertOutcome::Deduplicated);
        };
        // The primary bucket, else kicks from the alternate (Algorithm 4's loop; a
        // victim only moves within its own pair, so Lemma 1's cap is kept).
        let placed = self.table.place_staged(
            fp,
            pair,
            KickRule::AltTestBefore,
            self.params.max_kicks,
            &self.instruments,
        );
        self.instruments.chain_walk_depth.observe(depth as u64);
        if placed.is_err() {
            self.rows_absorbed -= 1;
        }
        placed
    }

    /// Delete one stored copy of a row without breaking the chain encoding.
    ///
    /// The chain is a counting code: a query walks to the next bucket pair only while
    /// the current pair holds `d` copies of κ, so naïvely removing a copy from a
    /// saturated pair would strand every entry stored deeper in the chain (a false
    /// negative). Deletion therefore always *shrinks the chain from its tail*: the
    /// deepest matching entry is removed, and if that leaves its pair short of `d`
    /// copies while a deeper pair still holds copies of κ, the first copy of the
    /// deepest such pair moves into the dented pair. Every pair's saturation count is
    /// preserved except the tail's, which decrements — exactly the inverse of how
    /// insertion extends the chain, so chain traversal (and Lemma 2's first-pair
    /// invariant, which key-only queries rely on) survives arbitrary delete/insert
    /// interleaving.
    ///
    /// Returns `Ok(true)` if a copy was removed, `Ok(false)` if no stored entry
    /// matched — including rows that were discarded at the chain cap (`Lmax`), which
    /// were never stored. Exact duplicates were deduplicated at insert
    /// ([`InsertOutcome::Deduplicated`] — they share one entry), so deletion has set
    /// semantics per (key, attributes): one delete retires the row however many times
    /// it was inserted. Deletion composes with growth: pairs and chain hops are
    /// derived under the current split geometry, so relocated copies are found.
    ///
    /// # Exactness and the fingerprint-collision caveat
    ///
    /// For a key whose fingerprint κ is not shared by another live key, deletion is
    /// *exact*: arbitrary insert/delete/grow interleavings never strand a stored row
    /// (pinned by the collision-free churn property tests). The classic cuckoo
    /// deletion caveat, however, is amplified by chains: two distinct keys that share
    /// κ share each other's saturation counts wherever their chains overlap, and a
    /// deletion for one can shorten the other's walk, transiently hiding its deeper
    /// rows (subsequent inserts of either key re-extend the walk). The entanglement
    /// probability is ≈ `n²·c²∕(2^{|κ|}·m)` for `n` live keys with `c`-bucket chains
    /// — negligible at production fingerprint widths, measured honestly as the
    /// *collision casualty rate* by the `churn` experiment harness. Churn-heavy
    /// chained deployments should size |κ| with deletion in mind, and, as with every
    /// cuckoo filter, only rows known to be present may be deleted.
    pub fn delete_row<K: FilterKey>(
        &mut self,
        key: K,
        attrs: &[u64],
    ) -> Result<bool, DeleteFailure> {
        let key = key.lower(&self.key_lower);
        self.delete_row_prehashed(key, attrs)
    }

    /// [`ChainedCcf::delete_row`] on already-lowered key material.
    pub fn delete_row_prehashed(&mut self, key: u64, attrs: &[u64]) -> Result<bool, DeleteFailure> {
        let result = match self.params.check_delete_arity(attrs) {
            Ok(()) => Ok(self.delete_from_chain(key, Some(attrs))),
            Err(e) => Err(e),
        };
        self.instruments.record_delete(&result);
        result
    }

    /// Delete one stored entry carrying the key's fingerprint, regardless of its
    /// attribute vector (see [`ChainedCcf::delete_row`] for the chain-safety
    /// mechanics; the deepest copy is removed, shrinking the chain from its tail).
    pub fn delete_key<K: FilterKey>(&mut self, key: K) -> Result<bool, DeleteFailure> {
        let key = key.lower(&self.key_lower);
        self.delete_key_prehashed(key)
    }

    /// [`ChainedCcf::delete_key`] on already-lowered key material.
    pub fn delete_key_prehashed(&mut self, key: u64) -> Result<bool, DeleteFailure> {
        let result = Ok(self.delete_from_chain(key, None));
        self.instruments.record_delete(&result);
        result
    }

    /// Walk the key's chain, remove the deepest entry carrying its fingerprint (and,
    /// with `attrs`, that attribute vector) and repair the chain encoding (mechanics
    /// in [`ChainedCcf::delete_row`]). One walk records each pair's copies of κ, one
    /// O(k) pass over the k records marks the pairs a hop revisits, and the repair
    /// works from those records.
    /// The walk goes into the table's scratch buffer, so a delete allocates nothing
    /// once that buffer has grown to the longest chain.
    fn delete_from_chain(&mut self, key: u64, attrs: Option<&[u64]>) -> bool {
        let (fp, l, l_alt) = self.table.pair_of(key);
        self.table.prefetch_for_update(l, l_alt);
        if let Some(attrs) = attrs {
            self.codec
                .pack_row(&self.attr_fp, attrs, self.table.staged_mut());
        }
        let mut walk = self.table.take_walk();
        let t = &self.table;
        self.chain.walk(
            t.geometry(),
            fp,
            (l, l_alt),
            |bucket| t.prefetch(bucket),
            |_, l, l_alt| {
                let copies = t.count_in_pair(fp, l, l_alt);
                walk.push(ChainStep {
                    l,
                    copies,
                    first: true,
                });
                (copies < self.chain.max_dupes).then_some(())
            },
        );
        mark_repeated_pairs(&mut walk, l ^ l_alt);
        let removed = self.remove_deepest_copy(fp, l ^ l_alt, attrs.is_some(), &walk);
        self.table.return_walk(walk);
        removed
    }

    /// Remove the deepest copy of `fp` in the walked pairs `steps` (with `by_row`,
    /// one whose payload is the staged attribute vector), then restore the chain
    /// invariant; false if no copy matched. `alt_offset` is ℓ ⊕ ℓ′ of every pair.
    ///
    /// A copy's depth is that of the first visit to its pair, and the copy removed is
    /// the last match in walk order (ℓ before ℓ′, slots in order), so the scan runs
    /// from the tail backwards over the pairs new to the walk and stops at the first
    /// hit.
    ///
    /// Every pair in front of the deepest pair still holding a copy must stay
    /// saturated (hold ≥ d copies), or queries would stop early and strand the deeper
    /// copies. Each pair the walk passed was saturated, and the removal changed the
    /// count of one pair only — the matched copy's, at its first visit and at any
    /// repeat. So if that pair falls short in front of the deepest one, the first copy
    /// of the deepest pair moves into the first bucket of the dented pair with room,
    /// which the freed slot guarantees. That restores the dented pair and takes the
    /// copy from a pair no shallower depth visits, so one move always suffices.
    fn remove_deepest_copy(
        &mut self,
        fp: u16,
        alt_offset: usize,
        by_row: bool,
        steps: &[ChainStep],
    ) -> bool {
        let t = &self.table;
        let matched = steps
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, step)| step.first && step.copies > 0)
            .find_map(|(depth, step)| {
                let (l, l_alt) = (step.l, step.l ^ alt_offset);
                [l_alt, l]
                    .into_iter()
                    .skip(usize::from(l == l_alt))
                    .find_map(|bucket| {
                        let hit = |&slot: &usize| !by_row || t.payload(bucket, slot) == t.staged();
                        let slot = t.keys().slots_of(bucket, fp).filter(hit).last()?;
                        Some((depth, bucket, slot))
                    })
            });
        let Some((depth, bucket, slot)) = matched else {
            return false;
        };
        self.table.swap_remove(bucket, slot);
        self.rows_absorbed = self.rows_absorbed.saturating_sub(1);

        let copies_left = |i: usize| steps[i].copies - usize::from(i == depth);
        let Some(deepest) = (0..steps.len())
            .rev()
            .find(|&i| steps[i].first && copies_left(i) > 0)
        else {
            return true;
        };
        if depth >= deepest || copies_left(depth) >= self.chain.max_dupes {
            return true;
        }
        let t = &self.table;
        let tail = steps[deepest].l;
        let donor = [tail, tail ^ alt_offset]
            .into_iter()
            .find_map(|bkt| t.keys().slots_of(bkt, fp).next().map(|s| (bkt, s)));
        let dented = steps[depth].l;
        let b = self.params.entries_per_bucket;
        let target = [dented, dented ^ alt_offset]
            .into_iter()
            .find(|&bkt| t.len(bkt) < b);
        let (Some((donor_bkt, donor_slot)), Some(target)) = (donor, target) else {
            debug_assert!(false, "a dented pair has a free slot and the tail a copy");
            return true;
        };
        let fp = self.table.stage(donor_bkt, donor_slot);
        self.table.swap_remove(donor_bkt, donor_slot);
        self.table.push_staged(target, fp);
        true
    }

    /// Batched row deletion: equivalent to calling [`ChainedCcf::delete_row`] per row
    /// in input order.
    pub fn delete_row_batch<K: FilterKey, A: AsRef<[u64]>>(
        &mut self,
        rows: &[(K, A)],
    ) -> Vec<Result<bool, DeleteFailure>> {
        rows.iter()
            .map(|(k, a)| self.delete_row_prehashed(k.lower(&self.key_lower), a.as_ref()))
            .collect()
    }

    /// [`ChainedCcf::delete_row_batch`] on already-lowered key material.
    pub fn delete_row_batch_prehashed(
        &mut self,
        rows: &[(u64, &[u64])],
    ) -> Vec<Result<bool, DeleteFailure>> {
        rows.iter()
            .map(|&(k, a)| self.delete_row_prehashed(k, a))
            .collect()
    }

    /// Batched key deletion: equivalent to calling [`ChainedCcf::delete_key`] per key
    /// in input order.
    pub fn delete_key_batch<K: FilterKey>(
        &mut self,
        keys: &[K],
    ) -> Vec<Result<bool, DeleteFailure>> {
        keys.iter()
            .map(|k| self.delete_key_prehashed(k.lower(&self.key_lower)))
            .collect()
    }

    /// [`ChainedCcf::delete_key_batch`] on already-lowered key material.
    pub fn delete_key_batch_prehashed(&mut self, keys: &[u64]) -> Vec<Result<bool, DeleteFailure>> {
        keys.iter().map(|&k| self.delete_key_prehashed(k)).collect()
    }

    /// Query for a key under a predicate (Algorithm 5).
    pub fn query<K: FilterKey>(&self, key: K, pred: &Predicate) -> bool {
        self.query_prehashed(key.lower(&self.key_lower), pred)
    }

    /// [`ChainedCcf::query`] on already-lowered key material.
    pub fn query_prehashed(&self, key: u64, pred: &Predicate) -> bool {
        let (fp, l, l_alt) = self.table.pair_of(key);
        let hit = self.query_walk(fp, l, l_alt, pred);
        self.instruments.record_query(hit);
        hit
    }

    /// Batched predicate query: bit-identical to calling [`ChainedCcf::query`] per
    /// key. The `(κ, ℓ, ℓ′)` triples for every key are derived in a hash-only first
    /// pass and their first pairs prefetched; the probe pass then streams over them.
    /// A key whose first pair is saturated walks on along its chain, prefetching the
    /// next pairs ahead of the scan — common with skewed keys: on the `chained_churn`
    /// benchmark, 10.7 % of live rows belong to hot keys with 70 rows each on
    /// average. `u64` key batches are lowered copy-free.
    pub fn query_batch<K: FilterKey>(&self, keys: &[K], pred: &Predicate) -> Vec<bool> {
        self.query_batch_prehashed(&K::lower_batch(keys, &self.key_lower), pred)
    }

    /// [`ChainedCcf::query_batch`] on already-lowered key material.
    pub fn query_batch_prehashed(&self, keys: &[u64], pred: &Predicate) -> Vec<bool> {
        let hits = probe_chunked(
            keys,
            |key| self.table.pair_of(key),
            |bucket| self.table.prefetch(bucket),
            |fp, l, l_alt| self.query_walk(fp, l, l_alt, pred),
        );
        self.instruments.record_query_batch(&hits);
        hits
    }

    /// Key-only membership query. Lemma 2 implies only the first bucket pair needs to
    /// be examined: if the key was ever inserted, a copy of its fingerprint is in the
    /// first pair.
    pub fn contains_key<K: FilterKey>(&self, key: K) -> bool {
        self.contains_key_prehashed(key.lower(&self.key_lower))
    }

    /// [`ChainedCcf::contains_key`] on already-lowered key material.
    pub fn contains_key_prehashed(&self, key: u64) -> bool {
        let (fp, l, l_alt) = self.table.pair_of(key);
        self.table.contains(fp, l, l_alt)
    }

    /// Batched key-only membership query (see [`ChainedCcf::query_batch`]).
    pub fn contains_key_batch<K: FilterKey>(&self, keys: &[K]) -> Vec<bool> {
        self.contains_key_batch_prehashed(&K::lower_batch(keys, &self.key_lower))
    }

    /// [`ChainedCcf::contains_key_batch`] on already-lowered key material.
    pub fn contains_key_batch_prehashed(&self, keys: &[u64]) -> Vec<bool> {
        self.table.contains_batch(keys)
    }

    /// Walk the key's chain from its first pair, matching each copy's attribute
    /// fingerprint vector against the predicate.
    fn query_walk(&self, fp: u16, l: usize, l_alt: usize, pred: &Predicate) -> bool {
        let t = &self.table;
        self.chain.query(
            t.keys(),
            t.geometry(),
            fp,
            (l, l_alt),
            |bucket| t.prefetch(bucket),
            |bucket, slot| match_fingerprint_vector(pred, t.payload(bucket, slot), &self.attr_fp),
        )
    }

    /// Predicate-only query (§6.2): derive a key filter for the set of keys whose
    /// attributes match the predicate. Entries with non-matching attributes are *kept*
    /// but marked non-matching, so chains stay intact and key queries on the derived
    /// filter preserve the no-false-negative guarantee.
    pub fn predicate_filter(&self, pred: &Predicate) -> ChainedPredicateFilter {
        let t = &self.table;
        let b = self.params.entries_per_bucket;
        let mut matching = BitVec::new(t.capacity());
        for bucket in 0..t.num_buckets() {
            for slot in 0..t.len(bucket) {
                if match_fingerprint_vector(pred, t.payload(bucket, slot), &self.attr_fp) {
                    matching.set(bucket * b + slot);
                }
            }
        }
        ChainedPredicateFilter {
            keys: t.keys().clone(),
            matching,
            // The derived filter copies the source's geometry and hashers verbatim, so
            // its walk agrees bucket-for-bucket at any growth level.
            geometry: *t.geometry(),
            fingerprinter: *t.fingerprinter(),
            chain: self.chain,
            key_lower: self.key_lower,
        }
    }

    /// The key's fingerprint — exposed so churn harnesses and tests can reason about
    /// cross-key fingerprint collisions (the one condition under which deletion is
    /// approximate; see [`ChainedCcf::delete_row`]).
    pub fn fingerprint_of<K: FilterKey>(&self, key: K) -> u16 {
        self.table.pair_of(key.lower(&self.key_lower)).0
    }

    /// Diagnostics: walking the *unsalted* paper recurrence
    /// ℓ₁, ℓ₂ = ℓ₁ ⊕ h(κ), ℓ₃ = h(min(ℓ₁, ℓ₂), κ), ... for `steps` hops from each of
    /// `sample_keys`, how many walks revisit a bucket pair (i.e. would have cycled
    /// without cycle resolution)?
    pub fn chain_cycle_stats(&self, sample_keys: &[u64], steps: usize) -> usize {
        let mut cycles = 0;
        for &key in sample_keys {
            let (fp, mut l, _) = self.table.pair_of(key);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..steps {
                let l_alt = self.table.geometry().alt_bucket(l, fp);
                let pair_id = l.min(l_alt);
                if !seen.insert(pair_id) {
                    cycles += 1;
                    break;
                }
                // Unsalted recurrence (depth fixed at 0 ≙ h(min, κ)).
                l = self.chain.hop(self.table.geometry(), l, l_alt, fp, 0);
            }
        }
        cycles
    }
}

/// The result of a predicate-only query on a chained CCF (§6.2): the source's key
/// fingerprints with a one-bit matching mark per slot. Supports key membership queries
/// for the predicate's key set with no false negatives.
#[derive(Debug, Clone)]
pub struct ChainedPredicateFilter {
    keys: PackedBuckets,
    /// Bit `B · b + s`: whether slot `s` of bucket `B` matched the predicate.
    matching: BitVec,
    geometry: SplitGeometry,
    fingerprinter: Fingerprinter,
    chain: Chain,
    key_lower: SaltedHasher,
}

impl ChainedPredicateFilter {
    /// Whether `key` may belong to the predicate's key set. Mirrors the source
    /// filter's walk through the shared [`SplitGeometry`], so the two can never
    /// drift apart — including after the source has grown. Accepts the same typed
    /// keys as the source filter (the lowering hasher is copied from it).
    pub fn contains_key<K: FilterKey>(&self, key: K) -> bool {
        self.contains_key_prehashed(key.lower(&self.key_lower))
    }

    /// [`ChainedPredicateFilter::contains_key`] on already-lowered key material.
    pub fn contains_key_prehashed(&self, key: u64) -> bool {
        let (fp, base) = self
            .fingerprinter
            .fingerprint_and_bucket(key, self.geometry.base_buckets());
        let l = self.geometry.home_bucket(base, fp);
        let l_alt = self.geometry.alt_bucket(l, fp);
        let b = self.keys.entries_per_bucket();
        self.chain.query(
            &self.keys,
            &self.geometry,
            fp,
            (l, l_alt),
            |bucket| self.keys.prefetch(bucket),
            |bucket, slot| self.matching.get(bucket * b + slot),
        )
    }

    /// Serialized size in bits: |κ| + 1 marking bit per slot over every slot.
    pub fn size_bits(&self) -> usize {
        self.keys.num_buckets()
            * self.keys.entries_per_bucket()
            * (self.fingerprinter.fp_bits() as usize + 1)
    }
}

#[cfg(test)]
mod delete_differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64) -> CcfParams {
        CcfParams {
            num_buckets: 1 << 10,
            entries_per_bucket: 6,
            fingerprint_bits: 12,
            attr_bits: 8,
            num_attrs: 2,
            max_dupes: 3,
            max_chain: None,
            seed,
            ..CcfParams::default()
        }
    }

    #[test]
    fn cursor_pairs_follow_the_hop_recurrence() {
        for growth in 0..3 {
            let mut f = ChainedCcf::new(CcfParams {
                num_buckets: 16,
                ..params(40)
            });
            for _ in 0..growth {
                f.grow();
            }
            let (chain, geometry) = (f.chain, *f.table.geometry());
            let mut self_paired = 0;
            for key in 0..200u64 {
                let (fp, l0, l0_alt) = f.table.pair_of(key);
                self_paired += usize::from(l0 == l0_alt);
                let sides = if l0 == l0_alt { 1 } else { 2 };
                let mut cursor = ChainCursor::new(fp, l0, l0_alt);
                let (mut l, mut l_alt) = (l0, l0_alt);
                let prefetched = std::cell::Cell::new(0usize);
                for depth in 0..300 {
                    assert_eq!(cursor.depth(), depth);
                    assert_eq!(cursor.pair(), (l, l_alt), "key {key} depth {depth}");
                    assert!(cursor.advance(&chain, &geometry, |_| {
                        prefetched.set(prefetched.get() + 1)
                    }));
                    l = chain.hop(&geometry, l, l_alt, fp, depth);
                    l_alt = geometry.alt_bucket(l, fp);
                    // Each pair is computed, and its buckets prefetched, exactly
                    // once, up to min(depth, LOOKAHEAD) pairs ahead.
                    let next = depth + 1;
                    assert_eq!(prefetched.get(), (next + next.min(LOOKAHEAD)) * sides);
                }
            }
            assert!(self_paired > 0, "no self-paired key at growth {growth}");
        }
        // The cursor stops at the walk cap, with nothing computed past it.
        let chain = Chain {
            max_walk: 3,
            ..ChainedCcf::new(params(41)).chain
        };
        let f = ChainedCcf::new(params(41));
        let (fp, l, l_alt) = f.table.pair_of(7);
        let mut cursor = ChainCursor::new(fp, l, l_alt);
        let prefetched = std::cell::Cell::new(0usize);
        let count = |_| prefetched.set(prefetched.get() + 1);
        assert!(cursor.advance(&chain, f.table.geometry(), count));
        assert!(cursor.advance(&chain, f.table.geometry(), count));
        assert!(!cursor.advance(&chain, f.table.geometry(), count));
        assert_eq!(cursor.depth(), 2);
        let sides = if l == l_alt { 1 } else { 2 };
        assert_eq!(prefetched.get(), 2 * sides);
    }

    #[test]
    fn no_false_negatives_with_heavy_duplication() {
        let mut f = ChainedCcf::new(params(1));
        // 200 keys × 20 distinct attribute rows each = 4000 rows, far beyond the 2b
        // per-pair capacity a plain filter could handle.
        for key in 0..200u64 {
            for i in 0..20u64 {
                f.insert_row(key, &[1000 + i, 2000 + (i % 5)]).unwrap();
            }
        }
        for key in 0..200u64 {
            for i in 0..20u64 {
                let pred = Predicate::any(2)
                    .and_eq(0, 1000 + i)
                    .and_eq(1, 2000 + (i % 5));
                assert!(f.query(key, &pred), "false negative for key {key}, row {i}");
            }
            assert!(f.contains_key(key));
        }
        assert!(
            f.max_chain_seen() > 1,
            "chaining should have been exercised"
        );
    }

    #[test]
    fn achieves_high_load_factor_under_uniform_duplication() {
        // Figure 4: with b = 6 and d = 3, chaining sustains β ≈ 0.87 even when every
        // key has many duplicates.
        let mut f = ChainedCcf::new(params(2));
        let capacity = f.capacity();
        let dupes_per_key = 12u64;
        let mut failed = false;
        'outer: for key in 0.. {
            for i in 0..dupes_per_key {
                match f.insert_row(key, &[i, i * 3 + 1]) {
                    Ok(_) => {}
                    Err(_) => {
                        failed = true;
                        break 'outer;
                    }
                }
            }
            if f.occupied_entries() >= capacity {
                break;
            }
        }
        assert!(failed || f.occupied_entries() as f64 / capacity as f64 > 0.8);
        assert!(
            f.load_factor() > 0.75,
            "chained load factor at first failure only {}",
            f.load_factor()
        );
    }

    #[test]
    fn queries_reject_absent_attribute_values() {
        let mut f = ChainedCcf::new(params(3));
        for key in 0..500u64 {
            f.insert_row(key, &[4, 7]).unwrap();
        }
        // Attribute 0 stored exactly (small-value optimisation) → a different small
        // value can never match.
        let fp = (0..500u64)
            .filter(|&k| f.query(k, &Predicate::any(2).and_eq(0, 5)))
            .count();
        assert_eq!(fp, 0);
    }

    #[test]
    fn key_only_queries_probe_only_the_first_pair() {
        // Insert enough duplicates to create long chains, then confirm absent keys are
        // still rejected at the usual cuckoo-filter FPR (the chain must not inflate the
        // key-only FPR, §7.1).
        let mut f = ChainedCcf::new(params(4));
        for key in 0..100u64 {
            for i in 0..30u64 {
                f.insert_row(key, &[i + 100, i % 9]).unwrap();
            }
        }
        let fp = (1_000_000..1_050_000u64)
            .filter(|&k| f.contains_key(k))
            .count();
        let rate = fp as f64 / 50_000.0;
        assert!(rate < 0.02, "key-only FPR {rate} too high");
    }

    #[test]
    fn chain_cap_drops_rows_but_never_lies() {
        // With Lmax = 1 and d = 3, a key can keep at most 3 rows; further rows are
        // dropped, but queries for them must still return true (Theorem 3).
        let mut f = ChainedCcf::new(CcfParams {
            max_chain: Some(1),
            ..params(5)
        });
        let key = 42u64;
        let mut dropped = 0;
        for i in 0..10u64 {
            if f.insert_row(key, &[5000 + i, 6000 + i]).unwrap() == InsertOutcome::DroppedChainCap {
                dropped += 1
            }
        }
        assert!(dropped > 0, "expected drops with Lmax = 1");
        for i in 0..10u64 {
            let pred = Predicate::any(2).and_eq(0, 5000 + i).and_eq(1, 6000 + i);
            assert!(f.query(key, &pred), "false negative for dropped row {i}");
        }
        assert_eq!(f.rows_dropped(), dropped);
    }

    #[test]
    fn duplicate_cap_per_pair_is_respected() {
        // Lemma 1: never more than d copies of a fingerprint in the first bucket pair.
        let mut f = ChainedCcf::new(params(6));
        let key = 7u64;
        for i in 0..50u64 {
            f.insert_row(key, &[i + 300, i + 400]).unwrap();
        }
        let (fp, l, l_alt) = f.table.pair_of(key);
        assert!(f.table.count_in_pair(fp, l, l_alt) <= f.params().max_dupes);
    }

    #[test]
    fn exact_duplicates_are_deduplicated() {
        let mut f = ChainedCcf::new(params(7));
        assert_eq!(
            f.insert_row(1, &[500, 600]).unwrap(),
            InsertOutcome::Inserted
        );
        assert_eq!(
            f.insert_row(1, &[500, 600]).unwrap(),
            InsertOutcome::Deduplicated
        );
        assert_eq!(f.occupied_entries(), 1);
    }

    #[test]
    fn predicate_filter_preserves_matching_keys() {
        let mut f = ChainedCcf::new(params(8));
        // Keys 0..300 have attribute 0 = key % 4; predicate selects value 2.
        for key in 0..300u64 {
            for extra in 0..4u64 {
                f.insert_row(key, &[key % 4, extra + 10]).unwrap();
            }
        }
        let pf = f.predicate_filter(&Predicate::any(2).and_eq(0, 2));
        for key in 0..300u64 {
            if key % 4 == 2 {
                assert!(
                    pf.contains_key(key),
                    "false negative in predicate filter for {key}"
                );
            }
        }
        // Non-matching keys should be mostly rejected (small-value opt → only key-FPR
        // collisions remain).
        let false_pos = (0..300u64)
            .filter(|&k| k % 4 != 2 && pf.contains_key(k))
            .count();
        assert!(
            false_pos < 10,
            "too many predicate-filter false positives: {false_pos}"
        );
        assert!(pf.size_bits() < f.size_bits());
    }

    #[test]
    fn failed_insert_rolls_back() {
        let mut f = ChainedCcf::new(CcfParams {
            num_buckets: 4,
            entries_per_bucket: 2,
            max_dupes: 2,
            ..params(9)
        });
        let mut stored: Vec<(u64, [u64; 2])> = Vec::new();
        let mut failures = 0;
        for k in 0..200u64 {
            let attrs = [k % 6, k % 10];
            match f.insert_row(k, &attrs) {
                Ok(_) => stored.push((k, attrs)),
                Err(_) => failures += 1,
            }
        }
        assert!(failures > 0, "tiny filter should eventually fail");
        for (k, attrs) in stored {
            assert!(
                f.query(
                    k,
                    &Predicate::any(2).and_eq(0, attrs[0]).and_eq(1, attrs[1])
                ),
                "lost row for key {k}"
            );
        }
    }

    #[test]
    fn zipf_like_skew_is_handled() {
        // A handful of very hot keys plus a long tail — the regime where plain cuckoo
        // filters fail almost immediately (§10.2).
        let mut f = ChainedCcf::new(params(10));
        let mut rows: Vec<(u64, [u64; 2])> = Vec::new();
        for hot in 0..5u64 {
            for i in 0..200u64 {
                rows.push((hot, [i + 256, (i * 7) % 64 + 256]));
            }
        }
        for cold in 100..1500u64 {
            rows.push((cold, [cold % 50 + 256, cold % 30 + 256]));
        }
        for (k, attrs) in &rows {
            f.insert_row(*k, attrs).unwrap();
        }
        for (k, attrs) in &rows {
            assert!(f.query(
                *k,
                &Predicate::any(2).and_eq(0, attrs[0]).and_eq(1, attrs[1])
            ));
        }
    }

    #[test]
    fn grow_preserves_chains_and_saturation_counts() {
        let mut f = ChainedCcf::new(params(20));
        // Heavy duplication so real chains exist before the doubling.
        for key in 0..150u64 {
            for i in 0..15u64 {
                f.insert_row(key, &[1000 + i, 2000 + (i % 4)]).unwrap();
            }
        }
        assert!(
            f.max_chain_seen() > 1,
            "need chains to make the test honest"
        );
        let occupied = f.occupied_entries();
        f.grow();
        assert_eq!(f.occupied_entries(), occupied);
        assert_eq!(f.params().num_buckets, 1 << 11);
        for key in 0..150u64 {
            for i in 0..15u64 {
                let pred = Predicate::any(2)
                    .and_eq(0, 1000 + i)
                    .and_eq(1, 2000 + (i % 4));
                assert!(
                    f.query(key, &pred),
                    "false negative for key {key} row {i} after growth"
                );
            }
            assert!(f.contains_key(key));
        }
        // Lemma 1 must survive the remap: at most d copies in the first pair.
        for key in 0..150u64 {
            let (fp, l, l_alt) = f.table.pair_of(key);
            assert!(f.table.count_in_pair(fp, l, l_alt) <= f.params().max_dupes);
        }
    }

    #[test]
    fn auto_grow_accepts_four_times_the_sized_capacity() {
        let mut f = ChainedCcf::new(
            CcfParams {
                num_buckets: 1 << 7,
                ..params(21)
            }
            .with_auto_grow(),
        );
        let four_n = 4 * f.capacity() as u64;
        for k in 0..four_n {
            f.insert_row(k, &[k % 6, k % 10])
                .unwrap_or_else(|e| panic!("auto-grow insert of {k} failed: {e}"));
        }
        assert!(f.growth_bits() >= 2);
        for k in 0..four_n {
            assert!(
                f.query(k, &Predicate::any(2).and_eq(0, k % 6).and_eq(1, k % 10)),
                "false negative for {k} after auto-growth"
            );
        }
    }

    #[test]
    fn predicate_filter_tracks_grown_geometry() {
        let mut f = ChainedCcf::new(params(22));
        for key in 0..400u64 {
            for extra in 0..4u64 {
                f.insert_row(key, &[key % 4, extra + 10]).unwrap();
            }
        }
        f.grow();
        let pf = f.predicate_filter(&Predicate::any(2).and_eq(0, 2));
        for key in 0..400u64 {
            if key % 4 == 2 {
                assert!(
                    pf.contains_key(key),
                    "grown predicate filter lost key {key}"
                );
            }
        }
    }

    #[test]
    fn batch_queries_match_per_key_loops() {
        let mut f = ChainedCcf::new(params(23));
        for key in 0..300u64 {
            for i in 0..(1 + key % 8) {
                f.insert_row(key, &[i + 100, key % 5]).unwrap();
            }
        }
        f.grow();
        let keys: Vec<u64> = (0..1000u64).collect();
        let pred = Predicate::any(2).and_eq(0, 101);
        let queried = f.query_batch(&keys, &pred);
        let contained = f.contains_key_batch(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(queried[i], f.query(k, &pred), "query mismatch for {k}");
            assert_eq!(contained[i], f.contains_key(k), "contains mismatch for {k}");
        }
    }

    #[test]
    fn delete_from_a_long_chain_never_strands_deeper_rows() {
        // A single hot key with enough distinct rows to span several chain pairs.
        // Deleting rows one at a time — in insertion order, which targets entries at
        // the *front* of the chain — must never make any still-present row
        // unreachable: the tail-shrink swap is what keeps the walk alive.
        let mut f = ChainedCcf::new(params(30));
        let key = 99u64;
        let rows: Vec<[u64; 2]> = (0..18u64).map(|i| [5000 + i, 6000 + i]).collect();
        for attrs in &rows {
            f.insert_row(key, attrs).unwrap();
        }
        assert!(f.max_chain_seen() >= 3, "need a real chain for this test");
        for deleted in 0..rows.len() {
            assert_eq!(
                f.delete_row(key, &rows[deleted]),
                Ok(true),
                "row {deleted} not found for deletion"
            );
            // Every remaining row must still be reachable through the shrunken chain.
            for attrs in rows.iter().skip(deleted + 1) {
                let pred = Predicate::any(2).and_eq(0, attrs[0]).and_eq(1, attrs[1]);
                assert!(
                    f.query(key, &pred),
                    "row {attrs:?} stranded after deleting {deleted} rows"
                );
            }
            // Lemma 1 must keep holding on the first pair.
            let (fp, l, l_alt) = f.table.pair_of(key);
            assert!(f.table.count_in_pair(fp, l, l_alt) <= f.params().max_dupes);
        }
        assert!(!f.contains_key(key), "all rows deleted, key must be gone");
        assert_eq!(f.delete_key(key), Ok(false));
    }

    #[test]
    fn delete_key_shrinks_the_chain_tail_first() {
        let mut f = ChainedCcf::new(params(31));
        let key = 7u64;
        for i in 0..12u64 {
            f.insert_row(key, &[100 + i, 200 + i]).unwrap();
        }
        let (fp, l, l_alt) = f.table.pair_of(key);
        let d = f.params().max_dupes;
        // Delete all copies; the first pair must stay saturated (at d) until the
        // deeper pairs are drained — Lemma 2's "a copy lives in the first pair"
        // invariant, which contains_key relies on.
        for remaining in (1..=12usize).rev() {
            assert_eq!(f.table.count_in_pair(fp, l, l_alt), d.min(remaining));
            assert!(f.contains_key(key));
            assert_eq!(f.delete_key(key), Ok(true));
        }
        assert!(!f.contains_key(key));
        assert_eq!(f.occupied_entries(), 0);
    }

    #[test]
    fn delete_after_grow_finds_relocated_chained_copies() {
        let mut f = ChainedCcf::new(params(32));
        for key in 0..120u64 {
            for i in 0..10u64 {
                f.insert_row(key, &[1000 + i, 2000 + (i % 4)]).unwrap();
            }
        }
        assert!(f.max_chain_seen() > 1);
        f.grow();
        for key in 0..120u64 {
            for i in (0..10u64).step_by(2) {
                assert_eq!(
                    f.delete_row(key, &[1000 + i, 2000 + (i % 4)]),
                    Ok(true),
                    "key {key} row {i} not found after growth"
                );
            }
            for i in (1..10u64).step_by(2) {
                let pred = Predicate::any(2)
                    .and_eq(0, 1000 + i)
                    .and_eq(1, 2000 + (i % 4));
                assert!(f.query(key, &pred), "key {key} row {i} lost after deletes");
            }
        }
    }

    #[test]
    fn churn_reuses_space_without_growing() {
        // Sustained insert/delete traffic at a fixed live-set size must be absorbed
        // by a fixed-size filter: deletes genuinely free slots.
        let mut f = ChainedCcf::new(CcfParams {
            num_buckets: 1 << 8,
            ..params(33)
        });
        let window = 800usize;
        let mut live: std::collections::VecDeque<(u64, [u64; 2])> = Default::default();
        for seq in 0..20_000u64 {
            // Attribute values < 2^attr_bits are stored exactly (small-value
            // optimisation), and column 0 pins the key: deletes can never collide
            // with another live row, so every assertion below is exact.
            let row = (seq % 97, [seq % 97, (seq / 97) % 251]);
            f.insert_row(row.0, &row.1).unwrap();
            live.push_back(row);
            if live.len() > window {
                let (k, a) = live.pop_front().unwrap();
                assert_eq!(f.delete_row(k, &a), Ok(true), "evict {k} at seq {seq}");
            }
        }
        assert_eq!(f.occupied_entries(), window);
        assert_eq!(f.growth_bits(), 0, "bounded churn must not grow the filter");
        for (k, a) in &live {
            let pred = Predicate::any(2).and_eq(0, a[0]).and_eq(1, a[1]);
            assert!(f.query(*k, &pred), "live row ({k}, {a:?}) lost");
        }
    }

    #[test]
    fn kicks_exhausted_load_factor_is_rounded() {
        // A failure at e.g. load factor 0.8959 must report 896, not the floor 895.
        let mut f = ChainedCcf::new(CcfParams {
            num_buckets: 4,
            entries_per_bucket: 2,
            max_dupes: 2,
            ..params(24)
        });
        let mut seen_failure = false;
        for k in 0..200u64 {
            if let Err(InsertFailure::KicksExhausted { load_factor_millis }) =
                f.insert_row(k, &[k % 6, k % 10])
            {
                seen_failure = true;
                let expected = (f.load_factor() * 1000.0).round() as u32;
                assert_eq!(load_factor_millis, expected);
            }
        }
        assert!(seen_failure, "tiny filter should fail at least once");
    }

    #[test]
    fn cycle_stats_reports_unsalted_cycles_without_affecting_queries() {
        let f = ChainedCcf::new(CcfParams {
            num_buckets: 8,
            entries_per_bucket: 6,
            ..params(11)
        });
        // With only 8 buckets the unsalted recurrence must revisit pairs quickly.
        let keys: Vec<u64> = (0..50).collect();
        let cycles = f.chain_cycle_stats(&keys, 16);
        assert!(
            cycles > 0,
            "expected raw-recurrence cycles in a tiny filter"
        );
    }

    #[test]
    fn heap_bytes_are_the_tables_allocated_capacity() {
        let mut f = ChainedCcf::new(
            CcfParams {
                num_buckets: 1 << 5,
                ..params(34)
            }
            .with_auto_grow(),
        );
        for key in 0..300u64 {
            for i in 0..6u64 {
                f.insert_row(key, &[1000 + i, key % 5]).unwrap();
            }
        }
        for key in (0..300u64).step_by(2) {
            assert_eq!(f.delete_row(key, &[1000, key % 5]), Ok(true));
        }
        assert!(f.growth_bits() >= 2, "the test must cover grown tables");
        let heap = f.occupancy().heap_bytes;
        assert_eq!(heap, f.table.heap_bytes());
        assert!(
            heap >= f.capacity() * 6,
            "{heap} B for {} slots",
            f.capacity()
        );
        // The derived filter shares the fingerprints and adds one bit per slot.
        assert!(f.predicate_filter(&Predicate::any(2)).size_bits() < f.size_bits());
    }

    #[test]
    fn chained_churn_slot_shape_heap_is_within_a_quarter_of_the_model() {
        // The `chained_churn` benchmark's slot shape: b = 6, 16-bit κ in two u64
        // words per bucket, a 1-byte count, and three 8-bit α packed into 3 bytes per
        // slot — 16 + 1 + 18 = 35 B per bucket, plus the staged entry's 3 bytes.
        let m = 1 << 12;
        let mut f = ChainedCcf::new(CcfParams {
            num_buckets: m,
            entries_per_bucket: 6,
            fingerprint_bits: 16,
            attr_bits: 8,
            num_attrs: 3,
            ..CcfParams::default()
        });
        let model_bytes = f.size_bits() as f64 / 8.0;
        assert_eq!(f.size_bits(), m * 6 * (16 + 3 * 8));
        assert_eq!(f.occupancy().heap_bytes, m * (16 + 1 + 18) + 3);
        assert!(f.occupancy().heap_bytes as f64 <= 1.25 * model_bytes);
        // Churn adds only the kick and walk scratch buffers.
        for key in 0..3000u64 {
            for i in 0..(1 + key % 8) {
                f.insert_row(key, &[i, key % 200, 7]).unwrap();
            }
        }
        for key in (0..3000u64).step_by(2) {
            assert_eq!(f.delete_row(key, &[0, key % 200, 7]), Ok(true));
        }
        let heap = f.occupancy().heap_bytes;
        assert!(heap > m * 35, "churn keeps the scratch capacity");
        assert!(heap as f64 <= 1.25 * model_bytes, "{heap} B");
    }

    #[test]
    fn stores_hundreds_of_rows_for_one_key() {
        // A plain filter caps a key at 2b = 8 rows; chaining keeps all 300, d = 3 per
        // pair, so the key's chain walks at least 100 pairs.
        let mut f = ChainedCcf::new(CcfParams {
            num_buckets: 256,
            entries_per_bucket: 4,
            ..params(35)
        });
        let rows: Vec<[u64; 2]> = (0..300u64).map(|i| [i % 200, i / 200]).collect();
        for attrs in &rows {
            assert_eq!(f.insert_row(42u64, attrs), Ok(InsertOutcome::Inserted));
        }
        assert_eq!(f.occupied_entries(), 300);
        assert!(f.max_chain_seen() >= 100, "chain {}", f.max_chain_seen());
        for attrs in &rows {
            let pred = Predicate::any(2).and_eq(0, attrs[0]).and_eq(1, attrs[1]);
            assert!(f.query(42u64, &pred), "false negative for row {attrs:?}");
        }
    }

    #[test]
    fn sustains_a_high_load_factor_with_ten_rows_per_key() {
        // b = 6, d = 3 and ten rows per key: the first failed insertion comes only
        // past a load factor of 0.8.
        let mut f = ChainedCcf::new(CcfParams {
            num_buckets: 512,
            ..params(36)
        });
        let mut inserted = 0usize;
        'outer: for key in 0u64.. {
            for i in 0..10u64 {
                if f.insert_row(key, &[i, key % 7]).is_err() {
                    break 'outer;
                }
                inserted += 1;
            }
        }
        assert!(inserted > 0);
        assert!(
            f.load_factor() > 0.8,
            "chained filter failed at load factor {}",
            f.load_factor()
        );
    }

    #[test]
    #[should_panic(expected = "max_dupes 5 cannot exceed")]
    fn rejects_a_duplicate_cap_above_the_bucket_pair() {
        let _ = ChainedCcf::new(CcfParams {
            num_buckets: 8,
            entries_per_bucket: 2,
            max_dupes: 5,
            ..params(37)
        });
    }
}
