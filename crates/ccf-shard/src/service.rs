//! The sharded conditional-filter service.
//!
//! A [`ShardedCcf`] partitions the keyspace over `N` independent [`AnyCcf`] shards by
//! the dedicated shard hash ([`crate::router::ShardRouter`]). Each shard sits behind
//! its own [`RwLock`], so:
//!
//! * point reads (`query`, `contains_key`) on different shards never contend;
//! * writers block only the one shard they touch, and per-shard `auto_grow` doublings
//!   happen under that single shard's write lock while the other `N − 1` shards keep
//!   serving;
//! * batch operations route keys to per-shard chunks and fan the chunks out over
//!   [`std::thread::scope`] workers — no dependencies, no global stop-the-world.
//!
//! **When a batch fans out.** A batch is split over threads only when every worker
//! gets at least [`MIN_KEYS_PER_WORKER`] keys (or rows), and never over more workers
//! than the thread cap or the non-empty shard chunks. Smaller batches run all their
//! shards on the calling thread: a thread spawn costs as much as 500–1,400 keys of
//! chained query work, so threading a 512-key batch would make it slower. When a
//! batch does fan out, the calling thread takes the first worker's share (see
//! [`crate::fanout`]).
//!
//! **Determinism contract.** Partitioning preserves each key's relative order within
//! its shard, shards share no state, and every shard runs the PR 2 chunked two-pass
//! batch kernels. Batch results are therefore *bit-identical* to a sequential per-key
//! loop over the same `ShardedCcf`, regardless of shard count, worker count, or how
//! the scheduler interleaves workers. Inserts are deterministic too: the state after
//! `insert_batch` equals the state after inserting the same rows one by one.

use std::sync::RwLock;

use ccf_core::{
    AnyCcf, CcfParams, ConditionalFilter, DeleteFailure, FilterKey, InsertFailure, InsertOutcome,
    ParamsError, Predicate, VariantKind,
};
use ccf_cuckoo::{ByteReader, ByteWriter, SnapshotError};
use ccf_hash::salted::purpose;
use ccf_hash::{HashFamily, SaltedHasher};
use ccf_telemetry::{buckets, Histogram, Telemetry};

use crate::fanout::fan_out_indexed;
use crate::router::ShardRouter;
use crate::stats::{ShardSnapshot, ShardStats};

/// Fewest keys (or rows) a batch must bring per worker before it is split over
/// threads: a batch of `n` keys fans out over at most `n / MIN_KEYS_PER_WORKER`
/// workers.
///
/// Set from measurement on a 2-vCPU machine (release build, 2-shard chained
/// filter, 40–60 ns per predicate-query key). Starting and joining one scoped
/// thread costs 30–50 µs, the work of 500–1,400 query keys. With the threads free
/// to use both CPUs, splitting a query batch over the caller and one spawned
/// worker broke even at about 1,024 keys and saved 20–40 % from 4,096 keys up;
/// with every thread on one CPU it never paid and cost 12–27 % at 4,096–16,384
/// keys. At 4,096 keys per worker a spawn is at most a fifth of the share it
/// takes over, and far less for inserts and deletes (≈ 1 µs per row). Results do
/// not depend on it: batches are bit-identical for any worker count.
pub const MIN_KEYS_PER_WORKER: usize = 4096;

/// Largest batch size the `ccf_shard_batch_keys` histogram resolves exactly;
/// bigger batches land in the `+Inf` bucket.
const BATCH_KEYS_BUCKET_MAX: u64 = 1 << 20;

/// Magic of a [`ShardedCcf`] snapshot image: `"CSHS"`.
pub const SHARD_SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"CSHS");
/// Current [`ShardedCcf`] snapshot format version.
pub const SHARD_SNAPSHOT_VERSION: u8 = 1;

/// Latency + size histograms for one batch entry point (`op` label fixed at resolve
/// time). Disabled by default — each batch call then costs two branches and no clock
/// read.
#[derive(Debug, Default, Clone)]
struct BatchInstruments {
    /// `ccf_shard_batch_latency_ns{op=…}`: wall-clock ns per batch call, including
    /// key lowering, routing, and the fan-out join.
    latency: Histogram,
    /// `ccf_shard_batch_keys{op=…}`: number of keys/rows per batch call.
    keys: Histogram,
}

/// Service-level instruments for [`ShardedCcf`]: one latency/size histogram pair per
/// batch entry point. Per-shard *op* counters are not duplicated here — attaching
/// telemetry labels every shard's own [`ccf_core::CcfInstruments`] with
/// `shard="<idx>"`, so the existing `ccf_*_total` series already break down by shard.
#[derive(Debug, Default, Clone)]
struct ServiceInstruments {
    query_batch: BatchInstruments,
    contains_key_batch: BatchInstruments,
    insert_batch: BatchInstruments,
    delete_row_batch: BatchInstruments,
    delete_key_batch: BatchInstruments,
}

impl ServiceInstruments {
    fn resolve(telemetry: &Telemetry, extra: &[(&str, &str)]) -> Self {
        let op = |name| {
            let mut labels = extra.to_vec();
            labels.push(("op", name));
            BatchInstruments {
                latency: telemetry.histogram(
                    "ccf_shard_batch_latency_ns",
                    "Wall-clock nanoseconds per sharded batch call",
                    &buckets::latency_ns(),
                    &labels,
                ),
                keys: telemetry.histogram(
                    "ccf_shard_batch_keys",
                    "Keys (or rows) per sharded batch call",
                    &buckets::log2(BATCH_KEYS_BUCKET_MAX),
                    &labels,
                ),
            }
        };
        Self {
            query_batch: op("query"),
            contains_key_batch: op("contains_key"),
            insert_batch: op("insert"),
            delete_row_batch: op("delete_row"),
            delete_key_batch: op("delete_key"),
        }
    }
}

/// A sharded, thread-safe conditional cuckoo filter service.
///
/// All operations take `&self`; interior locking is per shard. See the module docs for
/// the determinism contract.
///
/// **Typed keys.** Every entry point is generic over [`FilterKey`]. A key is lowered
/// *once* — with the same `KEY_LOWER` hasher the shard filters use, since router and
/// shards share a seed — and that single lowered `u64` is consumed by both the shard
/// routing hash and the shard's prehashed filter core. `u64` keys lower to
/// themselves, so the u64 path routes and probes bit-identically to the pre-typed-key
/// service.
#[derive(Debug)]
pub struct ShardedCcf {
    router: ShardRouter,
    key_lower: SaltedHasher,
    shards: Vec<RwLock<AnyCcf>>,
    threads: usize,
    instruments: ServiceInstruments,
}

/// Read guard errors are invariant violations (a worker panicked while holding the
/// write lock); surface them with context instead of a bare unwrap.
const POISONED: &str = "shard lock poisoned: a writer panicked mid-mutation";

impl ShardedCcf {
    /// Build a service of `num_shards` identical shards of the given variant. Each
    /// shard gets `shard_params` verbatim (so `num_buckets` etc. are *per shard*);
    /// use [`CcfParams::sized_for_entries`] on the per-shard expected entry count, or
    /// [`ShardedCcf::sized_for_entries`] to size from a service-wide total. Enable
    /// `shard_params.auto_grow` to let each shard double independently under load.
    ///
    /// # Panics
    /// Panics if `num_shards == 0` or the params are invalid; use
    /// [`ShardedCcf::try_new`] to get a [`ParamsError`] instead.
    pub fn new(kind: VariantKind, shard_params: CcfParams, num_shards: usize) -> Self {
        Self::try_new(kind, shard_params, num_shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`ShardedCcf::new`], reporting a zero shard count or impossible shard
    /// parameters as a [`ParamsError`] — so a serving process can reject a bad
    /// configuration request instead of aborting.
    pub fn try_new(
        kind: VariantKind,
        shard_params: CcfParams,
        num_shards: usize,
    ) -> Result<Self, ParamsError> {
        if num_shards == 0 {
            return Err(ParamsError::ZeroShards);
        }
        let shards = (0..num_shards)
            .map(|_| AnyCcf::try_new(kind, shard_params).map(RwLock::new))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            router: ShardRouter::new(shard_params.seed, num_shards),
            key_lower: HashFamily::new(shard_params.seed).hasher(purpose::KEY_LOWER),
            shards,
            threads: num_shards,
            instruments: ServiceInstruments::default(),
        })
    }

    /// Build a service sized for a *service-wide* expected entry count at the target
    /// per-shard load factor: each shard is sized for its `1/num_shards` slice.
    pub fn sized_for_entries(
        kind: VariantKind,
        shard_params: CcfParams,
        num_shards: usize,
        total_entries: usize,
        target_load_factor: f64,
    ) -> Self {
        let per_shard = total_entries.div_ceil(num_shards.max(1));
        Self::new(
            kind,
            shard_params.sized_for_entries(per_shard.max(1), target_load_factor),
            num_shards,
        )
    }

    /// Build a service from pre-constructed shards (heterogeneous variants or
    /// per-shard configs are allowed). `router_seed` must be the seed the keys were —
    /// or will be — routed with; pass the same seed used by [`ShardedCcf::new`]
    /// (`shard_params.seed`) to stay compatible.
    ///
    /// **Typed-key caveat.** The service lowers non-`u64` keys with the `KEY_LOWER`
    /// hasher derived from `router_seed`. If you pre-populated the shards *directly*
    /// with typed keys, those filters must have been built with `seed == router_seed`
    /// — a shard built on a different seed lowered the same string to different
    /// material, and point queries through the service would miss it (a silent
    /// false negative). `u64` keys are unaffected (identity lowering), and keys
    /// inserted *through* the service are always consistent.
    pub fn from_shards(filters: Vec<AnyCcf>, router_seed: u64) -> Self {
        let num_shards = filters.len();
        Self {
            router: ShardRouter::new(router_seed, num_shards),
            key_lower: HashFamily::new(router_seed).hasher(purpose::KEY_LOWER),
            shards: filters.into_iter().map(RwLock::new).collect(),
            threads: num_shards.max(1),
            instruments: ServiceInstruments::default(),
        }
    }

    /// Attach a telemetry registry to the service: every shard's filter resolves its
    /// [`ccf_core::CcfInstruments`] with a `shard="<idx>"` label (on top of `extra`),
    /// giving per-shard insert/query/delete/kick series, and the service itself
    /// registers batch latency/size histograms (`ccf_shard_batch_latency_ns`,
    /// `ccf_shard_batch_keys`, one `op` label per batch entry point). Attaching a
    /// [`Telemetry::disabled()`] handle detaches everything. Takes `&mut self` (no
    /// locking): wire telemetry up before the service starts serving.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry, extra: &[(&str, &str)]) {
        self.instruments = if telemetry.is_enabled() {
            ServiceInstruments::resolve(telemetry, extra)
        } else {
            ServiceInstruments::default()
        };
        for (idx, shard) in self.shards.iter_mut().enumerate() {
            let shard_label = idx.to_string();
            let mut labels = extra.to_vec();
            labels.push(("shard", shard_label.as_str()));
            shard
                .get_mut()
                .expect(POISONED)
                .attach_telemetry(telemetry, &labels);
        }
    }

    /// Builder-style [`ShardedCcf::attach_telemetry`] with no extra labels.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.attach_telemetry(telemetry, &[]);
        self
    }

    /// The hasher typed keys are lowered with before routing and probing
    /// ([`FilterKey::lower`]); the same lowered material the shard filters consume.
    pub fn key_lower_hasher(&self) -> SaltedHasher {
        self.key_lower
    }

    /// An unconstrained predicate spanning the shards' attribute columns — the
    /// arity-safe starting point for query predicates (see
    /// [`ccf_core::Predicate::for_params`]).
    pub fn predicate(&self) -> Predicate {
        self.with_shard(0, |f| Predicate::for_params(f.params()))
    }

    /// Cap the number of worker threads batch operations fan out over (default: one
    /// per shard). The cap is an upper bound: a batch uses one worker per
    /// [`MIN_KEYS_PER_WORKER`] keys at most, so batches smaller than twice that run
    /// on the calling thread whatever the cap, because a thread spawn would cost
    /// more than the work it takes over. A cap of 1 makes every batch operation run
    /// sequentially on the calling thread — useful as the reference in equivalence
    /// tests.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// Set the worker-thread cap (see [`ShardedCcf::with_threads`]).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.clamp(1, self.shards.len());
    }

    /// The worker-thread cap for batch operations.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The key router (e.g. for building a shard-by-shard reference in tests).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The shard index a key is served by.
    pub fn shard_of<K: FilterKey>(&self, key: K) -> usize {
        self.router.shard_of(key.lower(&self.key_lower))
    }

    /// Run a closure against a read-locked shard.
    pub fn with_shard<T>(&self, shard: usize, f: impl FnOnce(&AnyCcf) -> T) -> T {
        f(&self.shards[shard].read().expect(POISONED))
    }

    /// Insert a row, write-locking only the key's shard. The key is lowered once;
    /// routing and the shard's filter consume the same material.
    pub fn insert<K: FilterKey>(
        &self,
        key: K,
        attrs: &[u64],
    ) -> Result<InsertOutcome, InsertFailure> {
        let key = key.lower(&self.key_lower);
        self.shards[self.router.shard_of(key)]
            .write()
            .expect(POISONED)
            .insert_row_prehashed(key, attrs)
    }

    /// Delete one stored copy of a row, write-locking only the key's shard. Same
    /// result contract as the per-variant `delete_row`: `Ok(true)` removed a copy,
    /// `Ok(false)` found no match, and undeletable variants refuse with a typed
    /// [`DeleteFailure`] leaving the shard unchanged.
    pub fn delete_row<K: FilterKey>(&self, key: K, attrs: &[u64]) -> Result<bool, DeleteFailure> {
        let key = key.lower(&self.key_lower);
        self.shards[self.router.shard_of(key)]
            .write()
            .expect(POISONED)
            .delete_row_prehashed(key, attrs)
    }

    /// Delete one stored entry carrying the key's fingerprint, write-locking only the
    /// key's shard.
    pub fn delete_key<K: FilterKey>(&self, key: K) -> Result<bool, DeleteFailure> {
        let key = key.lower(&self.key_lower);
        self.shards[self.router.shard_of(key)]
            .write()
            .expect(POISONED)
            .delete_key_prehashed(key)
    }

    /// Query a key under a predicate, read-locking only the key's shard.
    pub fn query<K: FilterKey>(&self, key: K, pred: &Predicate) -> bool {
        let key = key.lower(&self.key_lower);
        self.shards[self.router.shard_of(key)]
            .read()
            .expect(POISONED)
            .query_prehashed(key, pred)
    }

    /// Key-only membership, read-locking only the key's shard.
    pub fn contains_key<K: FilterKey>(&self, key: K) -> bool {
        let key = key.lower(&self.key_lower);
        self.shards[self.router.shard_of(key)]
            .read()
            .expect(POISONED)
            .contains_key_prehashed(key)
    }

    /// How many workers a batch of `total` keys spread over `non_empty_chunks`
    /// shards should use: within the thread cap, one per non-empty chunk at most,
    /// and one per [`MIN_KEYS_PER_WORKER`] keys at most, but never fewer than one.
    fn workers_for(&self, non_empty_chunks: usize, total: usize) -> usize {
        self.threads
            .min(non_empty_chunks)
            .min(total / MIN_KEYS_PER_WORKER)
            .max(1)
    }

    /// Fan per-shard chunks out over [`fan_out_indexed`] workers, read-locking each
    /// shard once per chunk. Returns per-shard results.
    fn fan_out_read<T: Send>(
        &self,
        chunks: &[Vec<u64>],
        probe: impl Fn(&AnyCcf, &[u64]) -> Vec<T> + Sync,
    ) -> Vec<Vec<T>> {
        let non_empty = chunks.iter().filter(|c| !c.is_empty()).count();
        let total = chunks.iter().map(Vec::len).sum();
        let workers = self.workers_for(non_empty, total);
        let produced = fan_out_indexed(chunks.len(), workers, |s| {
            (!chunks[s].is_empty())
                .then(|| probe(&self.shards[s].read().expect(POISONED), &chunks[s]))
        });
        let mut results: Vec<Vec<T>> = Vec::new();
        results.resize_with(chunks.len(), Vec::new);
        for (s, shard_results) in produced {
            results[s] = shard_results;
        }
        results
    }

    /// Batched predicate query. Bit-identical to a per-key [`ShardedCcf::query`] loop
    /// (see the module docs); runs shards on up to [`ShardedCcf::threads`] workers.
    /// Keys are lowered once up front (`u64` batches copy-free); partitioning and the
    /// per-shard prehashed batch kernels consume the lowered material.
    pub fn query_batch<K: FilterKey>(&self, keys: &[K], pred: &Predicate) -> Vec<bool> {
        let _timer = self.instruments.query_batch.latency.start_timer();
        self.instruments.query_batch.keys.observe_len(keys.len());
        let lowered = K::lower_batch(keys, &self.key_lower);
        let part = self.router.partition(&lowered);
        let results = self.fan_out_read(&part.chunks, |filter, chunk| {
            filter.query_batch_prehashed(chunk, pred)
        });
        part.scatter(&results, lowered.len())
    }

    /// Batched key-only membership. Bit-identical to a per-key
    /// [`ShardedCcf::contains_key`] loop.
    pub fn contains_key_batch<K: FilterKey>(&self, keys: &[K]) -> Vec<bool> {
        let _timer = self.instruments.contains_key_batch.latency.start_timer();
        self.instruments
            .contains_key_batch
            .keys
            .observe_len(keys.len());
        let lowered = K::lower_batch(keys, &self.key_lower);
        let part = self.router.partition(&lowered);
        let results = self.fan_out_read(&part.chunks, |filter, chunk| {
            filter.contains_key_batch_prehashed(chunk)
        });
        part.scatter(&results, lowered.len())
    }

    /// Route already-lowered keys to their shards and apply `op` per key, each shard
    /// processing its keys in relative input order under one write-lock acquisition,
    /// fanned out over up to [`ShardedCcf::threads`] workers. Per-key results come
    /// back in input order, and because shards share no state and per-shard order is
    /// preserved, the resulting filter state (and every result) is identical to a
    /// sequential per-key loop — the scaffolding shared by batched inserts and
    /// deletes.
    fn fan_out_write<T: Send>(
        &self,
        lowered: &[u64],
        op: impl Fn(&mut AnyCcf, usize) -> T + Sync,
    ) -> Vec<T> {
        let row_indices = self.router.partition(lowered).positions;
        let non_empty = row_indices.iter().filter(|c| !c.is_empty()).count();
        let workers = self.workers_for(non_empty, lowered.len());
        let produced = fan_out_indexed(row_indices.len(), workers, |s| {
            let indices = &row_indices[s];
            (!indices.is_empty()).then(|| {
                let mut guard = self.shards[s].write().expect(POISONED);
                indices
                    .iter()
                    .map(|&i| (i, op(&mut guard, i)))
                    .collect::<Vec<_>>()
            })
        });
        let mut results: Vec<Option<T>> = Vec::new();
        results.resize_with(lowered.len(), || None);
        for (_, shard_outcomes) in produced {
            for (i, outcome) in shard_outcomes {
                results[i] = Some(outcome);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every row is routed to exactly one shard"))
            .collect()
    }

    /// Batched insert: rows are routed to their shards and each shard absorbs its
    /// rows in their relative input order under one write-lock acquisition, fanned out
    /// over up to [`ShardedCcf::threads`] workers. Per-row outcomes come back in input
    /// order, and the resulting filter state is identical to a sequential per-row
    /// [`ShardedCcf::insert`] loop.
    pub fn insert_batch<K, A>(&self, rows: &[(K, A)]) -> Vec<Result<InsertOutcome, InsertFailure>>
    where
        K: FilterKey + Sync,
        A: AsRef<[u64]> + Sync,
    {
        let _timer = self.instruments.insert_batch.latency.start_timer();
        self.instruments.insert_batch.keys.observe_len(rows.len());
        // Lower every key once; routing and the per-shard inserts share the material.
        let lowered: Vec<u64> = rows.iter().map(|(k, _)| k.lower(&self.key_lower)).collect();
        self.fan_out_write(&lowered, |filter, i| {
            filter.insert_row_prehashed(lowered[i], rows[i].1.as_ref())
        })
    }

    /// Batched row deletion: rows are routed to their shards and deleted in relative
    /// input order under per-shard write locks (same fan-out as
    /// [`ShardedCcf::insert_batch`]). Results and resulting state are bit-identical
    /// to a sequential per-row [`ShardedCcf::delete_row`] loop for any shard/thread
    /// count.
    pub fn delete_row_batch<K, A>(&self, rows: &[(K, A)]) -> Vec<Result<bool, DeleteFailure>>
    where
        K: FilterKey + Sync,
        A: AsRef<[u64]> + Sync,
    {
        let _timer = self.instruments.delete_row_batch.latency.start_timer();
        self.instruments
            .delete_row_batch
            .keys
            .observe_len(rows.len());
        let lowered: Vec<u64> = rows.iter().map(|(k, _)| k.lower(&self.key_lower)).collect();
        self.fan_out_write(&lowered, |filter, i| {
            filter.delete_row_prehashed(lowered[i], rows[i].1.as_ref())
        })
    }

    /// Batched key deletion: bit-identical to a sequential per-key
    /// [`ShardedCcf::delete_key`] loop (see [`ShardedCcf::delete_row_batch`]).
    pub fn delete_key_batch<K: FilterKey + Sync>(
        &self,
        keys: &[K],
    ) -> Vec<Result<bool, DeleteFailure>> {
        let _timer = self.instruments.delete_key_batch.latency.start_timer();
        self.instruments
            .delete_key_batch
            .keys
            .observe_len(keys.len());
        let lowered = K::lower_batch(keys, &self.key_lower);
        self.fan_out_write(&lowered, |filter, i| {
            filter.delete_key_prehashed(lowered[i])
        })
    }

    /// Total occupied entries across shards.
    pub fn occupied_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect(POISONED).occupied_entries())
            .sum()
    }

    /// Total serialized size in bits.
    pub fn size_bits(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect(POISONED).size_bits())
            .sum()
    }

    /// Service-wide load factor.
    pub fn load_factor(&self) -> f64 {
        self.stats().load_factor()
    }

    /// Serialize the whole service into a sealed snapshot image: a `"CSHS"` header
    /// carrying the router seed, shard count and worker-thread cap, followed by each
    /// shard's own sealed [`AnyCcf::to_snapshot_bytes`] image, length-prefixed, in
    /// shard order. Reloading with [`ShardedCcf::from_snapshot_bytes`] yields a
    /// bit-identical service: same routing, same per-shard filters, same RNG streams.
    /// Shards are read-locked one at a time — quiesce writers first (the `ccf-service`
    /// daemon snapshots after it stops accepting work) if a globally atomic cut is
    /// required.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new(SHARD_SNAPSHOT_MAGIC, SHARD_SNAPSHOT_VERSION);
        w.put_u64(self.router.seed());
        w.put_usize(self.threads);
        w.put_usize(self.shards.len());
        for shard in &self.shards {
            let image = shard.read().expect(POISONED).to_snapshot_bytes();
            w.put_len_bytes(&image);
        }
        w.seal()
    }

    /// Rebuild a service from a [`ShardedCcf::to_snapshot_bytes`] image. The envelope
    /// checksum is verified before any field is read, every nested shard image goes
    /// through the full [`AnyCcf::from_snapshot_bytes`] validation, and corruption
    /// anywhere yields a typed [`SnapshotError`] — never a panic or a silently
    /// misrouting service. Telemetry is process state and starts detached.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::open(bytes, SHARD_SNAPSHOT_MAGIC, SHARD_SNAPSHOT_VERSION)?;
        let router_seed = r.get_u64()?;
        let threads = r.get_usize()?;
        let num_shards = r.get_usize()?;
        if num_shards == 0 {
            return Err(SnapshotError::Invalid(
                "sharded snapshot with zero shards".into(),
            ));
        }
        let mut filters = Vec::new();
        for _ in 0..num_shards {
            filters.push(AnyCcf::from_snapshot_bytes(r.get_len_bytes()?)?);
        }
        r.finish()?;
        let mut service = Self::from_shards(filters, router_seed);
        service.set_threads(threads);
        Ok(service)
    }

    /// Snapshot service-wide metrics: merged occupancy, per-shard growth history and
    /// expected key-only FPRs (§7.1), aggregated via [`ShardStats`]. Shards are
    /// snapshotted one at a time, so the result is per-shard consistent but not a
    /// global atomic cut — fine for monitoring, which is its purpose.
    pub fn stats(&self) -> ShardStats {
        let snapshots = self
            .shards
            .iter()
            .map(|lock| {
                let f = lock.read().expect(POISONED);
                let p = f.params();
                ShardSnapshot {
                    occupancy: f.occupancy(),
                    growth: f.growth_stats(),
                    size_bits: f.size_bits(),
                    expected_key_fpr: ccf_core::fpr::key_only_fpr(
                        2.0 * f.load_factor() * p.entries_per_bucket as f64,
                        p.fingerprint_bits,
                    ),
                }
            })
            .collect();
        ShardStats::aggregate(snapshots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_params(seed: u64) -> CcfParams {
        CcfParams {
            num_buckets: 1 << 7,
            num_attrs: 2,
            seed,
            ..CcfParams::default()
        }
    }

    fn rows(n: u64) -> Vec<(u64, [u64; 2])> {
        (0..n)
            .map(|k| (k.wrapping_mul(0x9E37), [k % 5, k % 9]))
            .collect()
    }

    #[test]
    fn point_ops_route_and_round_trip() {
        let service = ShardedCcf::new(VariantKind::Chained, shard_params(3), 4);
        for (key, attrs) in rows(500) {
            service.insert(key, &attrs).unwrap();
        }
        for (key, attrs) in rows(500) {
            assert!(service.contains_key(key));
            let pred = Predicate::any(2).and_eq(0, attrs[0]).and_eq(1, attrs[1]);
            assert!(service.query(key, &pred), "false negative for {key}");
            assert!(service.shard_of(key) < 4);
        }
    }

    #[test]
    fn workers_for_splits_only_batches_that_pay_for_their_threads() {
        let service = ShardedCcf::new(VariantKind::Chained, shard_params(2), 4);
        assert_eq!(service.threads(), 4);
        // Below two workers' worth of keys a batch stays on the calling thread.
        assert_eq!(service.workers_for(4, 0), 1);
        assert_eq!(service.workers_for(4, 512), 1);
        assert_eq!(service.workers_for(4, MIN_KEYS_PER_WORKER), 1);
        assert_eq!(service.workers_for(4, 2 * MIN_KEYS_PER_WORKER - 1), 1);
        // From there on, one worker per MIN_KEYS_PER_WORKER keys.
        assert_eq!(service.workers_for(4, 2 * MIN_KEYS_PER_WORKER), 2);
        assert_eq!(service.workers_for(4, 4 * MIN_KEYS_PER_WORKER - 1), 3);
        assert_eq!(service.workers_for(4, 4 * MIN_KEYS_PER_WORKER), 4);
        // The thread cap and the non-empty chunks still bound a large batch.
        assert_eq!(service.workers_for(4, 100 * MIN_KEYS_PER_WORKER), 4);
        assert_eq!(service.workers_for(2, 100 * MIN_KEYS_PER_WORKER), 2);
        assert_eq!(service.workers_for(0, 100 * MIN_KEYS_PER_WORKER), 1);
        let service = service.with_threads(1);
        assert_eq!(service.workers_for(4, 100 * MIN_KEYS_PER_WORKER), 1);
    }

    #[test]
    fn batch_results_are_bit_identical_to_per_key_loops() {
        // The small batches run on the calling thread; the large ones are big
        // enough for every worker the thread cap allows.
        let small = (600, 200, 2000, 1 << 8);
        let min = MIN_KEYS_PER_WORKER as u64;
        let large = (3 * min, min, 4 * min + 7, 1 << 13);
        for (fresh, repeated, probes, buckets) in [small, large] {
            batch_results_match_per_key_loops(fresh, repeated, probes, buckets);
        }
    }

    fn batch_results_match_per_key_loops(
        fresh: u64,
        repeated: u64,
        probes: u64,
        num_buckets: usize,
    ) {
        for threads in [1, 2, 4] {
            for shards in [1, 3, 4] {
                let service = ShardedCcf::new(
                    VariantKind::Chained,
                    CcfParams {
                        num_buckets,
                        ..shard_params(11)
                    },
                    shards,
                )
                .with_threads(threads);
                // A multiset stream: `repeated` of the keys come back with new
                // attributes.
                let mut data = rows(fresh);
                data.extend(
                    rows(repeated)
                        .into_iter()
                        .map(|(k, a)| (k, [a[0] + 5, a[1]])),
                );
                let outcomes = service.insert_batch(&data);
                assert!(outcomes.iter().all(|o| o.is_ok()));
                // Mixed hit/miss probe stream.
                let keys: Vec<u64> = (0..probes)
                    .map(|i| {
                        if i % 2 == 0 {
                            data[(i as usize / 2) % data.len()].0
                        } else {
                            u64::MAX - i
                        }
                    })
                    .collect();
                let pred = Predicate::any(2).and_eq(0, 2);
                let batched = service.query_batch(&keys, &pred);
                let contained = service.contains_key_batch(&keys);
                for (i, &k) in keys.iter().enumerate() {
                    assert_eq!(batched[i], service.query(k, &pred), "{shards}x{threads}");
                    assert_eq!(contained[i], service.contains_key(k), "{shards}x{threads}");
                    assert!(contained[i] || !batched[i], "predicate hit without key hit");
                }
                // Changing the thread cap of a filled service changes no answer.
                let mut service = service;
                service.set_threads(if threads == 1 { shards } else { 1 });
                assert_eq!(service.contains_key_batch(&keys), contained);
            }
        }
    }

    #[test]
    fn insert_batch_state_matches_sequential_inserts() {
        let data = rows(600);
        let parallel = ShardedCcf::new(VariantKind::Chained, shard_params(5), 4).with_threads(4);
        parallel.insert_batch(&data);
        let sequential = ShardedCcf::new(VariantKind::Chained, shard_params(5), 4).with_threads(1);
        for (key, attrs) in &data {
            sequential.insert(*key, attrs).unwrap();
        }
        assert_eq!(parallel.occupied_entries(), sequential.occupied_entries());
        let probes: Vec<u64> = (0..5000).collect();
        assert_eq!(
            parallel.contains_key_batch(&probes),
            sequential.contains_key_batch(&probes),
            "parallel and sequential inserts must build identical filters"
        );
    }

    #[test]
    fn per_shard_auto_grow_under_batch_inserts() {
        let params = CcfParams {
            num_buckets: 1 << 4,
            num_attrs: 1,
            seed: 17,
            ..CcfParams::default()
        }
        .with_auto_grow();
        let service = ShardedCcf::new(VariantKind::Chained, params, 4).with_threads(4);
        // 4x the total sized capacity forces every shard to double at least once.
        let total = 4 * 4 * (1 << 4) * 6;
        let data: Vec<(u64, [u64; 1])> = (0..total as u64).map(|k| (k, [k % 3])).collect();
        let outcomes = service.insert_batch(&data);
        assert!(
            outcomes.iter().all(|o| o.is_ok()),
            "auto-grow shards must absorb the whole stream"
        );
        let stats = service.stats();
        assert!(
            stats.total_doublings() >= 4,
            "expected growth in every shard"
        );
        for (key, _) in &data {
            assert!(service.contains_key(*key), "key {key} lost after growth");
        }
    }

    #[test]
    fn point_deletes_route_to_the_owning_shard() {
        let service = ShardedCcf::new(VariantKind::Chained, shard_params(41), 4);
        let data = rows(400);
        for (key, attrs) in &data {
            service.insert(*key, attrs).unwrap();
        }
        for (key, attrs) in data.iter().step_by(2) {
            assert_eq!(service.delete_row(*key, attrs), Ok(true), "delete {key}");
        }
        for (i, (key, attrs)) in data.iter().enumerate() {
            let pred = Predicate::any(2).and_eq(0, attrs[0]).and_eq(1, attrs[1]);
            if i % 2 == 0 {
                assert!(
                    !service.query(*key, &pred),
                    "deleted row {key} still matches"
                );
            } else {
                assert!(service.query(*key, &pred), "surviving row {key} lost");
            }
        }
        // delete_key drains the remaining copies.
        for (key, _) in data.iter().skip(1).step_by(2) {
            assert_eq!(service.delete_key(*key), Ok(true));
        }
        assert_eq!(service.occupied_entries(), 0);
    }

    #[test]
    fn batch_deletes_are_bit_identical_to_sequential_loops() {
        for threads in [1, 4] {
            for shards in [1, 3, 4] {
                let data = rows(700);
                let make = || {
                    let s = ShardedCcf::new(VariantKind::Chained, shard_params(51), shards);
                    s.insert_batch(&data);
                    s
                };
                // Mix of present rows, already-deleted rows and absent keys.
                let victims: Vec<(u64, [u64; 2])> = (0..900u64)
                    .map(|i| {
                        if i % 3 == 0 {
                            (u64::MAX - i, [0, 0])
                        } else {
                            data[(i as usize * 7) % data.len()]
                        }
                    })
                    .collect();
                let parallel = make().with_threads(threads);
                let batched = parallel.delete_row_batch(&victims);
                let sequential = make();
                let looped: Vec<_> = victims
                    .iter()
                    .map(|(k, a)| sequential.delete_row(*k, a))
                    .collect();
                assert_eq!(batched, looped, "{shards}x{threads}: delete results differ");
                assert_eq!(
                    parallel.occupied_entries(),
                    sequential.occupied_entries(),
                    "{shards}x{threads}: post-delete state differs"
                );
                let probes: Vec<u64> = (0..4000).collect();
                assert_eq!(
                    parallel.contains_key_batch(&probes),
                    sequential.contains_key_batch(&probes),
                    "{shards}x{threads}: post-delete filters answer differently"
                );
                // Key-batch form: same contract.
                let keys: Vec<u64> = data.iter().map(|(k, _)| *k).step_by(3).collect();
                assert_eq!(
                    parallel.delete_key_batch(&keys),
                    keys.iter()
                        .map(|&k| sequential.delete_key(k))
                        .collect::<Vec<_>>(),
                    "{shards}x{threads}: key-delete results differ"
                );
            }
        }
    }

    #[test]
    fn bloom_shards_refuse_deletion_with_a_typed_error() {
        let service = ShardedCcf::new(VariantKind::Bloom, shard_params(61), 2);
        service.insert(1u64, &[2, 3]).unwrap();
        assert_eq!(
            service.delete_row(1u64, &[2, 3]),
            Err(DeleteFailure::Unsupported)
        );
        assert_eq!(service.delete_key(1u64), Err(DeleteFailure::Unsupported));
        assert_eq!(
            service.delete_key_batch(&[1u64, 9u64]),
            vec![Err(DeleteFailure::Unsupported); 2]
        );
        assert!(service.contains_key(1u64));
    }

    #[test]
    fn typed_key_deletes_reach_the_same_material_as_inserts() {
        let service = ShardedCcf::new(VariantKind::Mixed, shard_params(71), 3);
        let rows: Vec<(String, [u64; 2])> = (0..120)
            .map(|i| (format!("sess-{i:04}"), [i % 5, i % 9]))
            .collect();
        service.insert_batch(&rows);
        let victims: Vec<(String, [u64; 2])> = rows.iter().take(60).cloned().collect();
        let results = service.delete_row_batch(&victims);
        assert!(results.iter().all(|r| *r == Ok(true)), "{results:?}");
        for (i, (key, _)) in rows.iter().enumerate() {
            assert_eq!(
                service.contains_key(key.as_str()),
                i >= 60,
                "key {key} in the wrong state after typed deletes"
            );
        }
    }

    #[test]
    fn stats_aggregate_shard_metrics() {
        let service = ShardedCcf::new(VariantKind::Chained, shard_params(23), 8);
        let data = rows(1000);
        service.insert_batch(&data);
        let stats = service.stats();
        assert_eq!(stats.num_shards(), 8);
        assert_eq!(stats.occupied_entries(), service.occupied_entries());
        assert_eq!(stats.total_size_bits, service.size_bits());
        assert!(stats.load_factor() > 0.0);
        assert!(stats.expected_key_fpr() > 0.0);
        assert!(stats.load_imbalance() >= 1.0);
        // Uniform routing keeps shards reasonably balanced even at this small scale.
        assert!(
            stats.load_imbalance() < 2.0,
            "shards look skewed: {:?}",
            stats
                .shards
                .iter()
                .map(|s| s.occupancy.occupied)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn heterogeneous_shards_via_from_shards() {
        // Different variants AND different bucket widths per shard: stats() must
        // aggregate with exact per-shard capacities, not a merged width.
        let filters = vec![
            AnyCcf::new(VariantKind::Chained, shard_params(31)),
            AnyCcf::new(VariantKind::Bloom, shard_params(31)),
            AnyCcf::new(
                VariantKind::Mixed,
                CcfParams {
                    entries_per_bucket: 4,
                    max_dupes: 2,
                    ..shard_params(31)
                },
            ),
        ];
        let service = ShardedCcf::from_shards(filters, 31);
        assert_eq!(service.num_shards(), 3);
        for (key, attrs) in rows(300) {
            service.insert(key, &attrs).unwrap();
        }
        for (key, _) in rows(300) {
            assert!(service.contains_key(key));
        }
        assert_eq!(service.with_shard(1, |f| f.kind()), VariantKind::Bloom);
        let stats = service.stats();
        let exact_capacity: usize = (0..3)
            .map(|s| service.with_shard(s, |f| f.occupancy().capacity()))
            .sum();
        assert_eq!(stats.total_capacity, exact_capacity);
        assert!(stats.load_factor() > 0.0 && stats.load_factor() <= 1.0);
    }

    #[test]
    fn typed_keys_route_and_round_trip_through_the_service() {
        let service = ShardedCcf::new(VariantKind::Mixed, shard_params(9), 4);
        let rows: Vec<(String, [u64; 2])> = (0..400)
            .map(|i| (format!("user-{i:05}"), [i % 5, i % 9]))
            .collect();
        let outcomes = service.insert_batch(&rows);
        assert!(outcomes.iter().all(|o| o.is_ok()));
        for (key, attrs) in &rows {
            assert!(service.contains_key(key.as_str()), "lost {key}");
            let pred = service.predicate().and_eq(0, attrs[0]).and_eq(1, attrs[1]);
            assert!(
                service.query(key.as_str(), &pred),
                "false negative on {key}"
            );
        }
        // Point and batch paths agree on typed keys, and the service agrees with the
        // owning shard probed directly (same lowered material end to end).
        let probe: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        let batched = service.contains_key_batch(&probe);
        let h = service.key_lower_hasher();
        for (i, (key, _)) in rows.iter().enumerate() {
            assert_eq!(batched[i], service.contains_key(key.as_str()));
            let lowered = key.as_str().lower(&h);
            let shard = service.shard_of(key.as_str());
            assert_eq!(shard, service.router().shard_of(lowered));
            assert!(service.with_shard(shard, |f| f.contains_key_prehashed(lowered)));
        }
        // Composite keys work too and are order-sensitive.
        service.insert((1u64, 2u64), &[0, 0]).unwrap();
        assert!(service.contains_key((1u64, 2u64)));
    }

    #[test]
    fn try_new_reports_bad_configs_as_values() {
        use ccf_core::ParamsError;
        assert_eq!(
            ShardedCcf::try_new(VariantKind::Chained, shard_params(1), 0).unwrap_err(),
            ParamsError::ZeroShards
        );
        let bad = CcfParams {
            fingerprint_bits: 0,
            ..shard_params(1)
        };
        assert_eq!(
            ShardedCcf::try_new(VariantKind::Chained, bad, 4).unwrap_err(),
            ParamsError::FingerprintBitsOutOfRange { got: 0 }
        );
        assert!(ShardedCcf::try_new(VariantKind::Chained, shard_params(1), 4).is_ok());
    }

    #[test]
    fn thread_cap_is_clamped() {
        let mut service = ShardedCcf::new(VariantKind::Chained, shard_params(1), 3);
        service.set_threads(100);
        assert_eq!(service.threads(), 3);
        service.set_threads(0);
        assert_eq!(service.threads(), 1);
    }

    #[test]
    fn telemetry_labels_ops_by_shard_and_times_batches() {
        let telemetry = Telemetry::enabled();
        let service =
            ShardedCcf::new(VariantKind::Chained, shard_params(77), 4).with_telemetry(&telemetry);
        let data = rows(400);
        service.insert_batch(&data);
        let keys: Vec<u64> = data.iter().map(|(k, _)| *k).collect();
        let hits = service.contains_key_batch(&keys);
        assert!(hits.iter().all(|&h| h));
        service.query_batch(&keys, &service.predicate());
        service.delete_key_batch(&keys[..10]);
        service.delete_row_batch(&data[10..20]);
        // A point op lands on exactly one shard's series.
        service.query(data[30].0, &service.predicate());

        let snap = telemetry.snapshot();
        // Per-shard op counters: every op was recorded under some shard label, and
        // the shard-labelled series sum to the service-wide totals.
        let per_shard: Vec<u64> = (0..4)
            .map(|s| {
                let shard = s.to_string();
                ["inserted", "deduplicated", "merged", "converted"]
                    .iter()
                    .filter_map(|o| {
                        snap.counter(
                            "ccf_inserts_total",
                            &[
                                ("variant", "chained"),
                                ("shard", shard.as_str()),
                                ("outcome", o),
                            ],
                        )
                    })
                    .sum()
            })
            .collect();
        assert_eq!(
            per_shard.iter().sum::<u64>(),
            data.len() as u64,
            "per-shard insert counters must cover the whole batch: {per_shard:?}"
        );
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "uniform routing should touch every shard: {per_shard:?}"
        );
        assert_eq!(
            snap.counter_sum("ccf_queries_total"),
            keys.len() as u64 + 1,
            "one query_batch plus one point query; contains_key is not a predicate query"
        );
        assert_eq!(snap.counter_sum("ccf_deletes_total"), 20);

        // Service-level batch histograms: one observation per batch call, labelled
        // by op, recording both the batch size and a wall-clock latency.
        for (op, calls, keys_seen) in [
            ("insert", 1, 400),
            ("contains_key", 1, 400),
            ("query", 1, 400),
            ("delete_key", 1, 10),
            ("delete_row", 1, 10),
        ] {
            let labels = [("op", op)];
            let sizes = snap
                .histogram("ccf_shard_batch_keys", &labels)
                .unwrap_or_else(|| panic!("missing batch-keys series for op={op}"));
            assert_eq!(sizes.count(), calls, "op={op}: one observation per call");
            assert_eq!(
                sizes.sum, keys_seen,
                "op={op}: batch sizes recorded exactly"
            );
            let latency = snap
                .histogram("ccf_shard_batch_latency_ns", &labels)
                .unwrap_or_else(|| panic!("missing latency series for op={op}"));
            assert_eq!(
                latency.count(),
                calls,
                "op={op}: every batch call must record exactly one latency"
            );
        }
    }

    #[test]
    fn snapshot_round_trip_rebuilds_a_bit_identical_service() {
        let service = ShardedCcf::new(VariantKind::Mixed, shard_params(29), 4).with_threads(2);
        let data = rows(900);
        service.insert_batch(&data);
        let image = service.to_snapshot_bytes();
        let reloaded = ShardedCcf::from_snapshot_bytes(&image).expect("reload");
        assert_eq!(reloaded.num_shards(), 4);
        assert_eq!(reloaded.threads(), 2);
        // Routing, membership and predicate answers all survive the round trip.
        let probes: Vec<u64> = (0..6000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        assert_eq!(
            service.contains_key_batch(&probes),
            reloaded.contains_key_batch(&probes)
        );
        let pred = Predicate::any(2).and_eq(0, 3);
        assert_eq!(
            service.query_batch(&probes, &pred),
            reloaded.query_batch(&probes, &pred)
        );
        for key in probes.iter().take(200) {
            assert_eq!(service.shard_of(*key), reloaded.shard_of(*key));
        }
        // Continued mutation stays in lockstep: same inserts land identically, so the
        // next snapshot images are byte-equal.
        let more = rows(1200);
        assert_eq!(service.insert_batch(&more), reloaded.insert_batch(&more));
        assert_eq!(service.to_snapshot_bytes(), reloaded.to_snapshot_bytes());
    }

    #[test]
    fn snapshot_rejects_corruption_with_typed_errors() {
        let service = ShardedCcf::new(VariantKind::Chained, shard_params(31), 2);
        service.insert_batch(&rows(200));
        let image = service.to_snapshot_bytes();
        // Any bit flip trips the outer checksum.
        let mut flipped = image.clone();
        flipped[image.len() / 3] ^= 0x10;
        assert!(matches!(
            ShardedCcf::from_snapshot_bytes(&flipped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // Truncation anywhere is typed, never a panic.
        for len in [0, 4, 12, image.len() / 2, image.len() - 1] {
            assert!(ShardedCcf::from_snapshot_bytes(&image[..len]).is_err());
        }
        // A foreign image (a bare AnyCcf snapshot) is refused by magic.
        let inner = service.with_shard(0, |f| f.to_snapshot_bytes());
        assert!(matches!(
            ShardedCcf::from_snapshot_bytes(&inner),
            Err(SnapshotError::WrongMagic { .. })
        ));
    }

    #[test]
    fn disabled_telemetry_detaches_instruments() {
        let telemetry = Telemetry::enabled();
        let mut service =
            ShardedCcf::new(VariantKind::Chained, shard_params(78), 2).with_telemetry(&telemetry);
        service.insert_batch(&rows(50));
        let before = telemetry.snapshot();
        assert_eq!(before.counter_sum("ccf_inserts_total"), 50);
        // Re-attaching a disabled handle stops all recording (service and shards).
        service.attach_telemetry(&Telemetry::disabled(), &[]);
        service.insert_batch(&rows(50));
        let after = telemetry.snapshot();
        assert_eq!(after.counter_sum("ccf_inserts_total"), 50);
        assert_eq!(
            after
                .histogram("ccf_shard_batch_keys", &[("op", "insert")])
                .unwrap()
                .count(),
            1
        );
    }
}
