//! The length-prefixed binary wire protocol.
//!
//! Every frame, both directions, is `u32 len (LE)` followed by `len` bytes:
//!
//! | bytes | request | response |
//! |-------|---------|----------|
//! | 0..4  | magic `"CCFW"` | magic `"CCFW"` |
//! | 4     | version | version |
//! | 5     | opcode  | status  |
//! | 6..10 | tenant id (LE) | — |
//! | rest  | opcode-specific body | status-specific body |
//!
//! All integers are little-endian. Frames are capped at [`MAX_FRAME`]; a peer
//! announcing more is a protocol error and the connection is closed. Bodies are
//! decoded with [`BodyReader`], which bounds every length against the bytes actually
//! present *before* allocating, so a hostile length field cannot balloon memory, and
//! decoding always ends with a trailing-bytes check — a frame must be consumed
//! exactly.
//!
//! The payload vocabulary (key batches, attribute rows, predicates, per-row outcome
//! codes) is shared by the client library and the daemon through the helpers here,
//! which is what makes remote batched calls bit-identical to in-process calls: both
//! sides agree on the encoding by construction, and the filters themselves are the
//! same code.

use std::io::{Read, Write};

use ccf_core::{ColumnPredicate, DeleteFailure, InsertFailure, InsertOutcome, Predicate};

use crate::error::{ProtocolError, ServiceError};

/// Frame magic: `"CCFW"` (conditional-cuckoo-filter wire).
pub const MAGIC: u32 = u32::from_le_bytes(*b"CCFW");
/// Protocol version spoken by this build.
pub const VERSION: u8 = 1;
/// Hard cap on a frame's announced length: 16 MiB.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;
/// Most bytes [`read_frame`] reserves before a frame's body arrives; a larger body
/// grows the frame as its bytes come in.
const FRAME_RESERVE: usize = 64 * 1024;
/// Fixed request header: magic + version + opcode + tenant id.
pub const REQUEST_HEADER: u32 = 10;
/// Fixed response header: magic + version + status.
pub const RESPONSE_HEADER: u32 = 6;

/// Operations the daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; empty body, empty response.
    Ping = 0,
    /// Batched row insert.
    Insert = 1,
    /// Batched predicate query.
    Query = 2,
    /// Batched key-only membership.
    Contains = 3,
    /// Batched row deletion.
    DeleteRow = 4,
    /// Batched key deletion.
    DeleteKey = 5,
    /// Per-tenant occupancy/growth statistics.
    Stats = 6,
    /// Prometheus text exposition of the daemon's telemetry registry.
    Metrics = 7,
    /// Persist every tenant to the snapshot directory now.
    SnapshotNow = 8,
    /// Graceful shutdown: snapshot-on-exit, then the daemon exits 0.
    Shutdown = 9,
}

impl Opcode {
    /// Decode an opcode byte.
    pub fn from_u8(b: u8) -> Result<Self, ProtocolError> {
        Ok(match b {
            0 => Opcode::Ping,
            1 => Opcode::Insert,
            2 => Opcode::Query,
            3 => Opcode::Contains,
            4 => Opcode::DeleteRow,
            5 => Opcode::DeleteKey,
            6 => Opcode::Stats,
            7 => Opcode::Metrics,
            8 => Opcode::SnapshotNow,
            9 => Opcode::Shutdown,
            other => return Err(ProtocolError::UnknownOpcode(other)),
        })
    }
}

/// Response statuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The request was served; the body is the opcode's result encoding.
    Ok = 0,
    /// The frame was malformed; the body is a human-readable reason.
    BadRequest = 1,
    /// The tenant id names no hosted filter.
    UnknownTenant = 2,
    /// The daemon is shutting down and no longer accepts work.
    ShuttingDown = 3,
    /// The daemon hit an internal error serving the request.
    Internal = 4,
}

impl Status {
    /// Decode a status byte.
    pub fn from_u8(b: u8) -> Result<Self, ProtocolError> {
        Ok(match b {
            0 => Status::Ok,
            1 => Status::BadRequest,
            2 => Status::UnknownTenant,
            3 => Status::ShuttingDown,
            4 => Status::Internal,
            other => return Err(ProtocolError::UnknownStatus(other)),
        })
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The operation.
    pub opcode: Opcode,
    /// The tenant the operation targets (ignored by `Ping`/`Metrics`/admin ops).
    pub tenant: u32,
    /// Opcode-specific body bytes.
    pub body: Vec<u8>,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outcome class.
    pub status: Status,
    /// Status-specific body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// An `Ok` response with the given body.
    pub fn ok(body: Vec<u8>) -> Self {
        Response {
            status: Status::Ok,
            body,
        }
    }

    /// An error response carrying a human-readable reason.
    pub fn error(status: Status, reason: &str) -> Self {
        Response {
            status,
            body: reason.as_bytes().to_vec(),
        }
    }
}

/// Encode a request into a full frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let len = REQUEST_HEADER as usize + req.body.len();
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(req.opcode as u8);
    out.extend_from_slice(&req.tenant.to_le_bytes());
    out.extend_from_slice(&req.body);
    out
}

/// Encode a response into a full frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let len = RESPONSE_HEADER as usize + resp.body.len();
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(resp.status as u8);
    out.extend_from_slice(&resp.body);
    out
}

/// Read one frame's payload (the bytes after the length prefix). Returns `Ok(None)`
/// on a clean EOF at a frame boundary — the peer closed the connection. An EOF
/// mid-frame, an oversized announcement, or an impossible length is a typed
/// [`ProtocolError`]. The body is read straight into the returned frame, with at
/// most 64 KiB reserved up front, so the announced length is never trusted for an
/// allocation larger than what actually arrives.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ServiceError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len_buf[n..]).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ServiceError::Protocol(ProtocolError::Truncated)
            } else {
                ServiceError::Io(e)
            }
        })?,
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge {
            len,
            max: MAX_FRAME,
        }
        .into());
    }
    if len < RESPONSE_HEADER {
        return Err(ProtocolError::FrameTooShort { len }.into());
    }
    let len = len as usize;
    let mut frame = Vec::with_capacity(len.min(FRAME_RESERVE));
    r.take(len as u64).read_to_end(&mut frame)?;
    if frame.len() < len {
        return Err(ProtocolError::Truncated.into());
    }
    Ok(Some(frame))
}

/// Write a pre-encoded frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), ServiceError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Copy an exactly-`N`-byte slice into an array. Callers pass slices whose
/// length a bounds check already established; `copy_from_slice` re-asserts it
/// without routing through a fallible conversion.
fn copy_arr<const N: usize>(slice: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(slice);
    out
}

fn check_envelope(frame: &[u8]) -> Result<(), ProtocolError> {
    if frame.len() < RESPONSE_HEADER as usize {
        return Err(ProtocolError::FrameTooShort {
            len: frame.len() as u32,
        });
    }
    let got = u32::from_le_bytes(copy_arr(&frame[0..4]));
    if got != MAGIC {
        return Err(ProtocolError::BadMagic { got });
    }
    if frame[4] != VERSION {
        return Err(ProtocolError::UnsupportedVersion {
            supported: VERSION,
            got: frame[4],
        });
    }
    Ok(())
}

/// Parse a request frame payload (bytes after the length prefix).
pub fn parse_request(frame: &[u8]) -> Result<Request, ProtocolError> {
    check_envelope(frame)?;
    if frame.len() < REQUEST_HEADER as usize {
        return Err(ProtocolError::FrameTooShort {
            len: frame.len() as u32,
        });
    }
    Ok(Request {
        opcode: Opcode::from_u8(frame[5])?,
        tenant: u32::from_le_bytes(copy_arr(&frame[6..10])),
        body: frame[10..].to_vec(),
    })
}

/// Parse a response frame payload (bytes after the length prefix).
pub fn parse_response(frame: &[u8]) -> Result<Response, ProtocolError> {
    check_envelope(frame)?;
    Ok(Response {
        status: Status::from_u8(frame[5])?,
        body: frame[6..].to_vec(),
    })
}

/// Append-only body encoder. Counts are `u32`, values `u64`, all little-endian.
#[derive(Debug, Default)]
pub struct BodyWriter {
    buf: Vec<u8>,
}

impl BodyWriter {
    /// Start an empty body.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`-length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Finish and take the body.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked body cursor: every read is validated against the bytes present
/// before any allocation, so a hostile count cannot balloon memory.
#[derive(Debug)]
pub struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    /// Open a cursor over body bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if n > self.remaining() {
            return Err(ProtocolError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a byte.
    pub fn get_u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(copy_arr(self.take(4)?)))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(copy_arr(self.take(8)?)))
    }

    /// Read a `u32`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], ProtocolError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Require the body to be fully consumed.
    pub fn finish(self) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(ProtocolError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Encode a key batch: `u32 count` then `count` `u64` keys.
pub fn put_keys(w: &mut BodyWriter, keys: &[u64]) {
    w.put_u32(keys.len() as u32);
    for &k in keys {
        w.put_u64(k);
    }
}

/// Decode a key batch.
pub fn get_keys(r: &mut BodyReader<'_>) -> Result<Vec<u64>, ProtocolError> {
    let count = r.get_u32()? as usize;
    if count
        .checked_mul(8)
        .map_or(true, |need| need > r.remaining())
    {
        return Err(ProtocolError::Truncated);
    }
    (0..count).map(|_| r.get_u64()).collect()
}

/// Encode an attribute-row batch: `u32 count`, `u32 num_attrs`, then per row the
/// `u64` key followed by `num_attrs` `u64` attribute values.
pub fn put_rows(w: &mut BodyWriter, num_attrs: usize, rows: &[(u64, Vec<u64>)]) {
    w.put_u32(rows.len() as u32);
    w.put_u32(num_attrs as u32);
    for (key, attrs) in rows {
        w.put_u64(*key);
        for &a in attrs {
            w.put_u64(a);
        }
    }
}

/// Decode an attribute-row batch. Every row must carry exactly the announced arity
/// (the daemon still lets the filter enforce *its* arity, so a wrong-arity batch
/// surfaces as per-row [`InsertFailure::AttrArityMismatch`], not a protocol error).
pub fn get_rows(r: &mut BodyReader<'_>) -> Result<Vec<(u64, Vec<u64>)>, ProtocolError> {
    let count = r.get_u32()? as usize;
    let num_attrs = r.get_u32()? as usize;
    let per_row = 8usize
        .checked_mul(num_attrs + 1)
        .ok_or(ProtocolError::Truncated)?;
    if count
        .checked_mul(per_row)
        .map_or(true, |need| need > r.remaining())
    {
        return Err(ProtocolError::Truncated);
    }
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.get_u64()?;
        let attrs = (0..num_attrs)
            .map(|_| r.get_u64())
            .collect::<Result<_, _>>()?;
        rows.push((key, attrs));
    }
    Ok(rows)
}

/// Encode a predicate: `u32 num_attrs`, then per column a tag byte — `0` any, `1` eq
/// + `u64`, `2` in-list + `u32 count` + values.
pub fn put_predicate(w: &mut BodyWriter, pred: &Predicate) {
    w.put_u32(pred.num_attrs() as u32);
    for cond in pred.conditions() {
        match cond {
            ColumnPredicate::Any => w.put_u8(0),
            ColumnPredicate::Eq(v) => {
                w.put_u8(1);
                w.put_u64(*v);
            }
            ColumnPredicate::InList(vs) => {
                w.put_u8(2);
                w.put_u32(vs.len() as u32);
                for &v in vs {
                    w.put_u64(v);
                }
            }
        }
    }
}

/// Decode a predicate written by [`put_predicate`].
pub fn get_predicate(r: &mut BodyReader<'_>) -> Result<Predicate, ProtocolError> {
    let num_attrs = r.get_u32()? as usize;
    if num_attrs > r.remaining() {
        // Each column costs at least its tag byte; a bigger claim is a lie.
        return Err(ProtocolError::Truncated);
    }
    let mut conditions = Vec::with_capacity(num_attrs);
    for col in 0..num_attrs {
        conditions.push(match r.get_u8()? {
            0 => ColumnPredicate::Any,
            1 => ColumnPredicate::Eq(r.get_u64()?),
            2 => {
                let count = r.get_u32()? as usize;
                if count
                    .checked_mul(8)
                    .map_or(true, |need| need > r.remaining())
                {
                    return Err(ProtocolError::Truncated);
                }
                ColumnPredicate::InList((0..count).map(|_| r.get_u64()).collect::<Result<_, _>>()?)
            }
            tag => {
                return Err(ProtocolError::BadPayload(format!(
                    "unknown predicate tag {tag} for column {col}"
                )))
            }
        });
    }
    Ok(Predicate::new(conditions))
}

/// Encode a boolean batch, one byte per answer.
pub fn put_bools(w: &mut BodyWriter, bools: &[bool]) {
    w.put_u32(bools.len() as u32);
    for &b in bools {
        w.put_u8(u8::from(b));
    }
}

/// Decode a boolean batch.
pub fn get_bools(r: &mut BodyReader<'_>) -> Result<Vec<bool>, ProtocolError> {
    let count = r.get_u32()? as usize;
    if count > r.remaining() {
        return Err(ProtocolError::Truncated);
    }
    (0..count)
        .map(|_| match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(ProtocolError::BadPayload(format!("bool byte {b}"))),
        })
        .collect()
}

/// Wire code for one insert result. Success outcomes are `0..=4`; failures set the
/// high bit. The mapping is part of the protocol: both peers must encode identically
/// for remote results to be bit-comparable with in-process results.
pub fn insert_result_code(result: &Result<InsertOutcome, InsertFailure>) -> u8 {
    match result {
        Ok(InsertOutcome::Inserted) => 0,
        Ok(InsertOutcome::Deduplicated) => 1,
        Ok(InsertOutcome::Merged) => 2,
        Ok(InsertOutcome::Converted) => 3,
        Ok(InsertOutcome::DroppedChainCap) => 4,
        Err(InsertFailure::KicksExhausted { .. }) => 0x80,
        Err(InsertFailure::AttrArityMismatch { .. }) => 0x81,
    }
}

/// Wire code for one delete result: `0` not found, `1` deleted, failures with the
/// high bit set.
pub fn delete_result_code(result: &Result<bool, DeleteFailure>) -> u8 {
    match result {
        Ok(false) => 0,
        Ok(true) => 1,
        Err(DeleteFailure::Unsupported) => 0x80,
        Err(DeleteFailure::ConvertedGroup) => 0x81,
        Err(DeleteFailure::AttrArityMismatch { .. }) => 0x82,
    }
}

/// Encode a result-code batch.
pub fn put_codes(w: &mut BodyWriter, codes: &[u8]) {
    w.put_u32(codes.len() as u32);
    for &c in codes {
        w.put_u8(c);
    }
}

/// Decode a result-code batch.
pub fn get_codes(r: &mut BodyReader<'_>) -> Result<Vec<u8>, ProtocolError> {
    let count = r.get_u32()? as usize;
    if count > r.remaining() {
        return Err(ProtocolError::Truncated);
    }
    (0..count).map(|_| r.get_u8()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        let req = Request {
            opcode: Opcode::Query,
            tenant: 7,
            body: vec![1, 2, 3],
        };
        let frame = encode_request(&req);
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        assert_eq!(parse_request(&frame[4..]).unwrap(), req);
    }

    #[test]
    fn response_frames_round_trip() {
        let resp = Response::error(Status::UnknownTenant, "tenant 9");
        let frame = encode_response(&resp);
        assert_eq!(parse_response(&frame[4..]).unwrap(), resp);
    }

    #[test]
    fn envelope_violations_are_typed() {
        let good = encode_request(&Request {
            opcode: Opcode::Ping,
            tenant: 0,
            body: vec![],
        });
        let payload = &good[4..];
        assert!(matches!(
            parse_request(&payload[..3]),
            Err(ProtocolError::FrameTooShort { .. })
        ));
        let mut bad_magic = payload.to_vec();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            parse_request(&bad_magic),
            Err(ProtocolError::BadMagic { .. })
        ));
        let mut bad_version = payload.to_vec();
        bad_version[4] = 99;
        assert!(matches!(
            parse_request(&bad_version),
            Err(ProtocolError::UnsupportedVersion {
                supported: VERSION,
                got: 99
            })
        ));
        let mut bad_opcode = payload.to_vec();
        bad_opcode[5] = 200;
        assert!(matches!(
            parse_request(&bad_opcode),
            Err(ProtocolError::UnknownOpcode(200))
        ));
    }

    #[test]
    fn read_frame_rejects_oversized_and_truncated_streams() {
        // Oversized announcement.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(ServiceError::Protocol(ProtocolError::FrameTooLarge { .. }))
        ));
        // Announced more than delivered.
        let mut short = Vec::new();
        short.extend_from_slice(&100u32.to_le_bytes());
        short.extend_from_slice(&[0u8; 10]);
        assert!(matches!(
            read_frame(&mut short.as_slice()),
            Err(ServiceError::Protocol(ProtocolError::Truncated))
        ));
        // Sub-header length.
        let mut tiny = Vec::new();
        tiny.extend_from_slice(&2u32.to_le_bytes());
        tiny.extend_from_slice(&[0u8; 2]);
        assert!(matches!(
            read_frame(&mut tiny.as_slice()),
            Err(ServiceError::Protocol(ProtocolError::FrameTooShort { .. }))
        ));
        // Clean EOF at a boundary is a close, not an error.
        assert!(matches!(read_frame(&mut [].as_slice()), Ok(None)));
        // EOF inside the length prefix is truncation.
        assert!(matches!(
            read_frame(&mut [1u8, 0].as_slice()),
            Err(ServiceError::Protocol(ProtocolError::Truncated))
        ));
    }

    #[test]
    fn bodies_round_trip_and_bound_hostile_counts() {
        let mut w = BodyWriter::new();
        put_keys(&mut w, &[1, 2, 3]);
        let pred = Predicate::any(3).and_eq(0, 9).and_eq(2, 4);
        put_predicate(&mut w, &pred);
        put_rows(&mut w, 2, &[(5, vec![6, 7]), (8, vec![9, 10])]);
        put_bools(&mut w, &[true, false, true]);
        let body = w.into_bytes();
        let mut r = BodyReader::new(&body);
        assert_eq!(get_keys(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(get_predicate(&mut r).unwrap(), pred);
        assert_eq!(
            get_rows(&mut r).unwrap(),
            vec![(5, vec![6, 7]), (8, vec![9, 10])]
        );
        assert_eq!(get_bools(&mut r).unwrap(), vec![true, false, true]);
        r.finish().unwrap();

        // A count claiming more elements than bytes present fails before allocating.
        let mut w = BodyWriter::new();
        w.put_u32(u32::MAX);
        let body = w.into_bytes();
        assert!(matches!(
            get_keys(&mut BodyReader::new(&body)),
            Err(ProtocolError::Truncated)
        ));
        // Leftover bytes are a typed error.
        let mut w = BodyWriter::new();
        put_keys(&mut w, &[1]);
        w.put_u8(0xAA);
        let body = w.into_bytes();
        let mut r = BodyReader::new(&body);
        get_keys(&mut r).unwrap();
        assert!(matches!(
            r.finish(),
            Err(ProtocolError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn result_codes_cover_every_variant_distinctly() {
        let inserts = [
            insert_result_code(&Ok(InsertOutcome::Inserted)),
            insert_result_code(&Ok(InsertOutcome::Deduplicated)),
            insert_result_code(&Ok(InsertOutcome::Merged)),
            insert_result_code(&Ok(InsertOutcome::Converted)),
            insert_result_code(&Ok(InsertOutcome::DroppedChainCap)),
            insert_result_code(&Err(InsertFailure::kicks_exhausted_at(0.9))),
            insert_result_code(&Err(InsertFailure::AttrArityMismatch {
                expected: 2,
                got: 3,
            })),
        ];
        let mut dedup = inserts.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), inserts.len());
        assert_eq!(delete_result_code(&Ok(true)), 1);
        assert_eq!(delete_result_code(&Ok(false)), 0);
        assert!(delete_result_code(&Err(DeleteFailure::Unsupported)) & 0x80 != 0);
    }
}
