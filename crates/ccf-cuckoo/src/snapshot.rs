//! Shared snapshot framing: a tiny byte codec plus the sealed-blob envelope every
//! persistent image in the workspace uses.
//!
//! A sealed blob is `magic (u32 LE) | version (u8) | payload | fnv64 checksum
//! (u64 LE over everything before it)`. The envelope gives every consumer the same
//! three typed failure modes — wrong magic, unsupported (future) version, checksum
//! mismatch — before a single payload byte is interpreted, so a truncated or
//! bit-flipped file can never half-construct a filter. Blobs nest: a composite image
//! (a CCF variant, a sharded service) embeds child blobs via
//! [`ByteWriter::put_len_bytes`], each sealed and checked independently.
//!
//! The codec is deliberately boring: fixed-width little-endian integers, no varints,
//! no framing cleverness. Snapshot size is dominated by the raw storage words, which
//! are already bit-packed by the store itself.

use crate::packed::StoreImportError;

/// Why a snapshot image could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The leading magic number identifies a different (or no) snapshot type.
    WrongMagic {
        /// The magic the decoder expected.
        expected: u32,
        /// The magic actually present.
        got: u32,
    },
    /// The image was written by a newer (or otherwise unknown) format version.
    UnsupportedVersion {
        /// The version this build can decode.
        supported: u8,
        /// The version actually present.
        got: u8,
    },
    /// The image ends before the field being read — truncation or a corrupted
    /// length prefix.
    Truncated,
    /// The image decodes past its payload — corruption or a format mismatch.
    TrailingBytes {
        /// Unconsumed payload bytes.
        remaining: usize,
    },
    /// The trailing FNV-1a 64 checksum disagrees with the payload — bit rot or a
    /// torn write.
    ChecksumMismatch {
        /// The checksum stored in the image.
        stored: u64,
        /// The checksum recomputed over the payload.
        computed: u64,
    },
    /// The payload decoded but the raw storage image failed validation.
    Import(StoreImportError),
    /// The payload decoded but a field carries a value no valid filter can have.
    Invalid(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::WrongMagic { expected, got } => {
                write!(
                    f,
                    "wrong snapshot magic {got:#010x} (expected {expected:#010x})"
                )
            }
            SnapshotError::UnsupportedVersion { supported, got } => write!(
                f,
                "unsupported snapshot version {got} (this build decodes version {supported})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::TrailingBytes { remaining } => {
                write!(
                    f,
                    "snapshot has {remaining} trailing bytes past its payload"
                )
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Import(e) => write!(f, "snapshot storage image rejected: {e}"),
            SnapshotError::Invalid(msg) => write!(f, "snapshot field invalid: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Import(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreImportError> for SnapshotError {
    fn from(e: StoreImportError) -> Self {
        SnapshotError::Import(e)
    }
}

/// Copy an exactly-`N`-byte slice into an array. Callers pass slices whose
/// length a bounds check already established; `copy_from_slice` re-asserts it
/// without routing through a fallible conversion.
fn copy_arr<const N: usize>(slice: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(slice);
    out
}

/// FNV-1a 64 over `bytes` — the workspace's snapshot checksum. Not cryptographic;
/// it exists to catch truncation, bit rot and torn writes, and its simplicity keeps
/// the snapshot path dependency-free.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only encoder for a sealed snapshot blob. Construction writes the
/// `magic | version` header; [`ByteWriter::seal`] appends the checksum and yields
/// the finished image.
#[derive(Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Start a blob with the given magic and format version.
    pub fn new(magic: u32, version: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&magic.to_le_bytes());
        buf.push(version);
        ByteWriter { buf }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (the on-disk format is width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append raw bytes with no length prefix (the field's length must be derivable
    /// by the decoder).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u64` length prefix followed by the bytes — the embedding primitive
    /// for nested blobs and variable-length fields.
    pub fn put_len_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_bytes(bytes);
    }

    /// Append a `u64` length prefix followed by the words, little-endian — the raw
    /// storage image primitive.
    pub fn put_u64_slice(&mut self, words: &[u64]) {
        self.put_usize(words.len());
        for &w in words {
            self.put_u64(w);
        }
    }

    /// Append the FNV-1a 64 checksum of everything written so far and return the
    /// finished image.
    pub fn seal(mut self) -> Vec<u8> {
        let checksum = fnv64(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

/// Cursor-style decoder over a sealed snapshot blob. [`ByteReader::open`] verifies
/// the envelope (checksum, magic, version) before any payload field is read;
/// [`ByteReader::finish`] verifies the payload was consumed exactly.
#[derive(Debug)]
pub struct ByteReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Verify the envelope of `bytes` (checksum over everything before the trailing
    /// 8 bytes, then magic, then version) and return a reader positioned at the first
    /// payload byte. Checksum is verified *first*: a bit flip in the magic or version
    /// field reports as corruption, not as a foreign or future format.
    pub fn open(bytes: &'a [u8], magic: u32, version: u8) -> Result<Self, SnapshotError> {
        const HEADER: usize = 4 + 1;
        const CHECKSUM: usize = 8;
        if bytes.len() < HEADER + CHECKSUM {
            return Err(SnapshotError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - CHECKSUM);
        let stored = u64::from_le_bytes(copy_arr(tail));
        let computed = fnv64(body);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let got_magic = u32::from_le_bytes(copy_arr(&body[..4]));
        if got_magic != magic {
            return Err(SnapshotError::WrongMagic {
                expected: magic,
                got: got_magic,
            });
        }
        let got_version = body[4];
        if got_version != version {
            return Err(SnapshotError::UnsupportedVersion {
                supported: version,
                got: got_version,
            });
        }
        Ok(ByteReader {
            payload: &body[HEADER..],
            pos: 0,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.payload.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.payload[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(copy_arr(self.take(2)?)))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(copy_arr(self.take(4)?)))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(copy_arr(self.take(8)?)))
    }

    /// Read a `u64` and narrow it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| SnapshotError::Invalid("length exceeds the address space".into()))
    }

    /// Read exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// Read a `u64`-length-prefixed byte field written by
    /// [`ByteWriter::put_len_bytes`]. The length is bounded by the remaining payload
    /// before any allocation, so a corrupted prefix cannot trigger an absurd reserve.
    pub fn get_len_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.get_usize()?;
        self.take(len)
    }

    /// Read a `u64`-length-prefixed word slice written by
    /// [`ByteWriter::put_u64_slice`].
    pub fn get_u64_slice(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let len = self.get_usize()?;
        if len > self.payload.len().saturating_sub(self.pos) / 8 {
            return Err(SnapshotError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Bytes of payload not yet consumed.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    /// Assert the payload was consumed exactly; leftover bytes mean the image and
    /// the decoder disagree about the format.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.payload.len() {
            return Err(SnapshotError::TrailingBytes {
                remaining: self.payload.len() - self.pos,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: u32 = 0x5453_5431; // "1TST"

    fn sample() -> Vec<u8> {
        let mut w = ByteWriter::new(MAGIC, 1);
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64_slice(&[1, 2, 3]);
        w.put_len_bytes(b"hello");
        w.seal()
    }

    #[test]
    fn round_trip() {
        let img = sample();
        let mut r = ByteReader::open(&img, MAGIC, 1).unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_len_bytes().unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let img = sample();
        for byte in 0..img.len() {
            for bit in 0..8 {
                let mut bad = img.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    ByteReader::open(&bad, MAGIC, 1).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let img = sample();
        for len in 0..img.len() {
            assert!(
                ByteReader::open(&img[..len], MAGIC, 1).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn wrong_magic_and_future_version_are_typed() {
        let img = ByteWriter::new(MAGIC, 1).seal();
        match ByteReader::open(&img, MAGIC ^ 1, 1) {
            Err(SnapshotError::WrongMagic { expected, got }) => {
                assert_eq!(expected, MAGIC ^ 1);
                assert_eq!(got, MAGIC);
            }
            other => panic!("expected WrongMagic, got {other:?}"),
        }
        let future = ByteWriter::new(MAGIC, 2).seal();
        match ByteReader::open(&future, MAGIC, 1) {
            Err(SnapshotError::UnsupportedVersion { supported, got }) => {
                assert_eq!((supported, got), (1, 2));
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let img = sample();
        let mut r = ByteReader::open(&img, MAGIC, 1).unwrap();
        let _ = r.get_u8().unwrap();
        match r.finish() {
            Err(SnapshotError::TrailingBytes { remaining }) => assert!(remaining > 0),
            other => panic!("expected TrailingBytes, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_length_prefix_is_truncation_not_oom() {
        let mut w = ByteWriter::new(MAGIC, 1);
        w.put_u64(u64::MAX); // absurd length prefix
        let img = w.seal();
        let mut r = ByteReader::open(&img, MAGIC, 1).unwrap();
        assert!(matches!(
            r.get_u64_slice(),
            Err(SnapshotError::Truncated) | Err(SnapshotError::Invalid(_))
        ));
    }
}
