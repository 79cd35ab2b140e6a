//! Variant-level snapshot persistence: a sealed, checksummed image of any
//! [`AnyCcf`] that reloads into a *bit-identical* filter.
//!
//! The image reuses the [`ccf_cuckoo::snapshot`] envelope (magic `"CCFS"`, format
//! version, trailing FNV-1a 64 checksum) and stores only what the hashers cannot
//! re-derive: the full parameter set, the growth state, the exact RNG words, the
//! maintained counters, and every bucket's entries — attribute fingerprint vectors,
//! Bloom sketch bits, or conversion-group records, depending on the variant. All
//! hash machinery (fingerprinters, salted hashers, Bloom hash families, the split
//! geometry's index derivation) is a pure function of `params.seed` and is rebuilt
//! on load, which keeps images small and makes corruption of persisted state
//! detectable by the structural cross-checks (occupancy recounts, arity and width
//! bounds) that run after the checksum.
//!
//! Bit-identity is the contract the `ccf-service` daemon's kill/restart cycle is
//! pinned on: a reloaded filter answers every query, accepts every insert, and
//! draws every kick victim exactly as the never-persisted original would.

use ccf_cuckoo::snapshot::{ByteReader, ByteWriter, SnapshotError};

use crate::params::CcfParams;
use crate::sizing::VariantKind;
use crate::variant::{AnyCcf, ConditionalFilter};

/// Magic of an [`AnyCcf`] snapshot image: `"CCFS"`.
pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"CCFS");
/// Current [`AnyCcf`] snapshot format version.
pub const SNAPSHOT_VERSION: u8 = 1;

fn variant_tag(kind: VariantKind) -> u8 {
    match kind {
        VariantKind::Plain => 0,
        VariantKind::Chained => 1,
        VariantKind::Bloom => 2,
        VariantKind::Mixed => 3,
    }
}

fn variant_from_tag(tag: u8) -> Option<VariantKind> {
    match tag {
        0 => Some(VariantKind::Plain),
        1 => Some(VariantKind::Chained),
        2 => Some(VariantKind::Bloom),
        3 => Some(VariantKind::Mixed),
        _ => None,
    }
}

/// Encode the full parameter set. Field order is part of the format.
pub(crate) fn put_params(w: &mut ByteWriter, p: &CcfParams) {
    w.put_usize(p.num_buckets);
    w.put_usize(p.entries_per_bucket);
    w.put_u32(p.fingerprint_bits);
    w.put_u32(p.attr_bits);
    w.put_usize(p.num_attrs);
    w.put_usize(p.max_dupes);
    match p.max_chain {
        None => w.put_u8(0),
        Some(l) => {
            w.put_u8(1);
            w.put_usize(l);
        }
    }
    w.put_usize(p.max_kicks);
    w.put_usize(p.bloom_bits);
    w.put_usize(p.bloom_hashes);
    w.put_u8(u8::from(p.small_value_opt));
    w.put_u8(u8::from(p.auto_grow));
    w.put_u64(p.seed);
    // The storage byte: always 0, the packed layout. It stays in the format so
    // existing images keep loading.
    w.put_u8(0);
}

/// Decode a parameter set written by [`put_params`]. Only structural decoding
/// happens here; semantic validation is each variant's `try_new`.
pub(crate) fn get_params(r: &mut ByteReader<'_>) -> Result<CcfParams, SnapshotError> {
    let num_buckets = r.get_usize()?;
    let entries_per_bucket = r.get_usize()?;
    let fingerprint_bits = r.get_u32()?;
    let attr_bits = r.get_u32()?;
    let num_attrs = r.get_usize()?;
    let max_dupes = r.get_usize()?;
    let max_chain = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_usize()?),
        t => return Err(SnapshotError::Invalid(format!("max_chain flag byte {t}"))),
    };
    let max_kicks = r.get_usize()?;
    let bloom_bits = r.get_usize()?;
    let bloom_hashes = r.get_usize()?;
    let small_value_opt = get_bool(r, "small_value_opt")?;
    let auto_grow = get_bool(r, "auto_grow")?;
    let seed = r.get_u64()?;
    match r.get_u8()? {
        0 => {}
        t => return Err(SnapshotError::Invalid(format!("storage byte {t}"))),
    }
    Ok(CcfParams {
        num_buckets,
        entries_per_bucket,
        fingerprint_bits,
        attr_bits,
        num_attrs,
        max_dupes,
        max_chain,
        max_kicks,
        bloom_bits,
        bloom_hashes,
        small_value_opt,
        auto_grow,
        seed,
    })
}

pub(crate) fn get_bool(r: &mut ByteReader<'_>, field: &str) -> Result<bool, SnapshotError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(SnapshotError::Invalid(format!("{field} flag byte {t}"))),
    }
}

/// Split a persisted *current* bucket count into (base_buckets, growth_bits),
/// rejecting geometries no growth sequence can produce.
pub(crate) fn split_growth(num_buckets: usize, growth_bits: u32) -> Result<usize, SnapshotError> {
    if growth_bits >= usize::BITS || num_buckets >> growth_bits << growth_bits != num_buckets {
        return Err(SnapshotError::Invalid(format!(
            "num_buckets {num_buckets} cannot result from {growth_bits} doublings"
        )));
    }
    let base = num_buckets >> growth_bits;
    if !base.is_power_of_two() {
        return Err(SnapshotError::Invalid(format!(
            "base bucket count {base} is not a power of two"
        )));
    }
    Ok(base)
}

/// Build an empty filter at the base size a snapshot's `num_buckets` and
/// `growth_bits` imply; the entry table's restore then applies the doublings.
pub(crate) fn at_base_size<F>(
    params: CcfParams,
    growth_bits: u32,
    try_new: impl FnOnce(CcfParams) -> Result<F, crate::ParamsError>,
) -> Result<F, SnapshotError> {
    let base = split_growth(params.num_buckets, growth_bits)?;
    try_new(CcfParams {
        num_buckets: base,
        ..params
    })
    .map_err(|e| SnapshotError::Invalid(e.to_string()))
}

impl AnyCcf {
    /// Serialize the filter into a sealed snapshot image. The inverse,
    /// [`AnyCcf::from_snapshot_bytes`], rebuilds a bit-identical filter: identical
    /// membership answers, identical post-reload insertion behaviour (the RNG
    /// resumes its exact stream), identical growth state. Telemetry attachment is
    /// process state and is not persisted; reloaded filters start detached.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        w.put_u8(variant_tag(self.kind()));
        put_params(&mut w, self.params());
        match self {
            AnyCcf::Plain(f) => f.snapshot_payload(&mut w),
            AnyCcf::Chained(f) => f.snapshot_payload(&mut w),
            AnyCcf::Bloom(f) => f.snapshot_payload(&mut w),
            AnyCcf::Mixed(f) => f.snapshot_payload(&mut w),
        }
        w.seal()
    }

    /// Rebuild a filter from an [`AnyCcf::to_snapshot_bytes`] image. The envelope
    /// (checksum, magic, version) is verified before any field is interpreted, and
    /// every structural invariant the live filter maintains — bucket widths, entry
    /// arities, occupancy counters, growth geometry — is re-validated, so a
    /// corrupted image yields a typed [`SnapshotError`], never a panic or a
    /// silently wrong filter.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::open(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let kind = variant_from_tag(r.get_u8()?)
            .ok_or_else(|| SnapshotError::Invalid("unknown variant tag".into()))?;
        let params = get_params(&mut r)?;
        let filter = match kind {
            VariantKind::Plain => {
                AnyCcf::Plain(crate::PlainCcf::from_snapshot_payload(params, &mut r)?)
            }
            VariantKind::Chained => {
                AnyCcf::Chained(crate::ChainedCcf::from_snapshot_payload(params, &mut r)?)
            }
            VariantKind::Bloom => {
                AnyCcf::Bloom(crate::BloomCcf::from_snapshot_payload(params, &mut r)?)
            }
            VariantKind::Mixed => {
                AnyCcf::Mixed(crate::MixedCcf::from_snapshot_payload(params, &mut r)?)
            }
        };
        r.finish()?;
        Ok(filter)
    }
}
