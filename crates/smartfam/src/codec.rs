//! The log-file frame format.
//!
//! The paper passes module parameters and results through plain log files
//! on the NFS share. Because host and daemon read the file concurrently
//! while it grows, each record is written as one self-describing,
//! checksummed frame so a reader can (a) detect a torn write still in
//! progress (incomplete frame → stop and retry on the next event) and (b)
//! detect genuine corruption.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! +-------+---------+------------------+----------+
//! | magic | len:u32 | body (len bytes) | fnv: u32 |
//! +-------+---------+------------------+----------+
//! ```
//!
//! `magic` is one byte: `b'Q'` for a request frame, `b'S'` for a response
//! frame. The checksum is FNV-1a over the body.
//!
//! **A reader looks at a frame where it lies.** [`decode_view`] validates
//! one frame in the caller's buffer and hands back a borrowed
//! [`FrameView`]; [`scan`] is the one loop over a stream of them. A reader
//! copies out only what it passes on: the owned [`Frame`] and the
//! `decode_frame` / `decode_stream*` functions are wrappers over the same
//! parser for callers that keep what they read.

use bytes::{BufMut, Bytes};
use std::time::Duration;

/// Magic byte of a request frame.
pub const MAGIC_REQUEST: u8 = b'Q';
/// Magic byte of a response frame.
pub const MAGIC_RESPONSE: u8 = b'S';
/// Frames larger than this are rejected as corrupt (1 GiB).
pub const MAX_FRAME_BODY: u32 = 1 << 30;

/// Completion status carried by a response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The module completed and the payload is its result.
    Ok,
    /// The module failed; the payload is a UTF-8 error message.
    Error,
    /// The daemon shed the request at admission (queue full): it was
    /// never executed. The payload is the suggested retry delay in
    /// milliseconds (u64 LE); see [`decode_retry_after`].
    Overloaded,
}

/// The body of a frame: a request (host → SD) or a response (SD → host).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameBody {
    /// Host → SD: invoke the module with these parameters. "The host
    /// writes the input parameters to the log file that is monitored and
    /// read by the data-intensive module" (§IV-A).
    Request {
        /// Input parameters, in order.
        params: Vec<String>,
        /// Absolute expiry as milliseconds since the Unix epoch, or `0`
        /// for "no deadline". The daemon drops (never executes) a request
        /// whose expiry has passed by dequeue time. Encoded as an
        /// optional 8-byte trailer so deadline-free requests stay
        /// byte-identical to the legacy format.
        expires_unix_ms: u64,
    },
    /// SD → host: "Results produced by the module in the McSD node are
    /// written to the module's log file" (§IV-A).
    Response {
        /// Completion status.
        status: Status,
        /// Result bytes (or error message when `status == Error`).
        payload: Bytes,
    },
}

/// One framed record in a module's log file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Correlates a response with its request. Assigned by the host.
    pub id: u64,
    /// Batch-framing word for responses committed as part of a coalesced
    /// append batch: `(batch_id << 16) | index_within_batch`, or `0` for
    /// an unbatched frame. Batch ids start at 1 so the word is never zero
    /// for a batched frame; unbatched frames encode byte-identically to
    /// the legacy format (the word is an optional trailer).
    pub batch: u64,
    /// Request or response content.
    pub body: FrameBody,
}

impl Frame {
    /// Build a request frame with no deadline.
    pub fn request(id: u64, params: Vec<String>) -> Frame {
        Frame::request_with_deadline(id, params, 0)
    }

    /// Build a request frame carrying an absolute expiry (`0` = none).
    pub fn request_with_deadline(id: u64, params: Vec<String>, expires_unix_ms: u64) -> Frame {
        Frame {
            id,
            batch: 0,
            body: FrameBody::Request {
                params,
                expires_unix_ms,
            },
        }
    }

    /// Build a success-response frame.
    pub fn response_ok(id: u64, payload: impl Into<Bytes>) -> Frame {
        Frame {
            id,
            batch: 0,
            body: FrameBody::Response {
                status: Status::Ok,
                payload: payload.into(),
            },
        }
    }

    /// Stamp this (response) frame as member `index` of batch `batch_id`.
    /// `batch_id` must be ≥ 1; the stamp is carried as an optional trailer
    /// so unbatched traffic stays byte-identical to the legacy format.
    pub fn in_batch(mut self, batch_id: u64, index: u64) -> Frame {
        self.batch = batch_word(batch_id, index);
        self
    }

    /// Whether this is a request frame.
    pub fn is_request(&self) -> bool {
        matches!(self.body, FrameBody::Request { .. })
    }

    /// Encode the frame to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Length of [`Frame::encode`]'s output, without encoding. Decoding
    /// is strict (no trailing body bytes), so for a decoded frame this is
    /// exactly the byte count the decoder consumed.
    pub fn encoded_len(&self) -> usize {
        let body = match &self.body {
            FrameBody::Request {
                params,
                expires_unix_ms,
            } => {
                let params: usize = params.iter().map(|p| 4 + p.len()).sum();
                8 + 4 + params + if *expires_unix_ms != 0 { 8 } else { 0 }
            }
            FrameBody::Response { payload, .. } => {
                8 + 1 + 4 + payload.len() + if self.batch != 0 { 8 } else { 0 }
            }
        };
        5 + body + 4
    }

    /// Append the frame's wire bytes to `out` (the batch writer encodes a
    /// whole batch into one buffer this way).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match &self.body {
            FrameBody::Request {
                params,
                expires_unix_ms,
            } => encode_request_into(out, self.id, params, *expires_unix_ms),
            FrameBody::Response { status, payload } => {
                encode_response_into(out, self.id, *status, payload, self.batch)
            }
        }
    }
}

/// The batch-framing word of member `index` of batch `batch_id` (≥ 1, so
/// the word is never the `0` of an unbatched frame).
pub(crate) fn batch_word(batch_id: u64, index: u64) -> u64 {
    debug_assert!(batch_id >= 1, "batch ids start at 1");
    (batch_id << 16) | (index & 0xffff)
}

/// Append one frame to `out`: magic, body length, whatever `body` writes,
/// then the checksum of exactly those body bytes.
fn framed(out: &mut Vec<u8>, magic: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.push(magic);
    out.put_u32_le(0); // body length, patched below
    body(out);
    let body_len = (out.len() - start - 5) as u32;
    out[start + 1..start + 5].copy_from_slice(&body_len.to_le_bytes());
    let checksum = fnv1a(&out[start + 5..]);
    out.put_u32_le(checksum);
}

/// Append the wire bytes of `Frame::request_with_deadline(id, params,
/// expires_unix_ms)` to `out` without building the frame — the host's
/// submit path encodes straight from the caller's borrowed parameters.
pub fn encode_request_into(out: &mut Vec<u8>, id: u64, params: &[String], expires_unix_ms: u64) {
    framed(out, MAGIC_REQUEST, |out| {
        out.put_u64_le(id);
        out.put_u32_le(params.len() as u32);
        for p in params {
            out.put_u32_le(p.len() as u32);
            out.put_slice(p.as_bytes());
        }
        // Deadline trailer only when set: deadline-free requests encode
        // byte-identically to the legacy format.
        if expires_unix_ms != 0 {
            out.put_u64_le(expires_unix_ms);
        }
    });
}

/// Append the wire bytes of a response frame to `out` without building the
/// frame — the daemon answers straight from the module's result. `batch`
/// is the framing word ([`Frame::batch`]), `0` for an unbatched response.
pub fn encode_response_into(
    out: &mut Vec<u8>,
    id: u64,
    status: Status,
    payload: &[u8],
    batch: u64,
) {
    framed(out, MAGIC_RESPONSE, |out| {
        out.put_u64_le(id);
        out.put_u8(match status {
            Status::Ok => 0,
            Status::Error => 1,
            Status::Overloaded => 2,
        });
        out.put_u32_le(payload.len() as u32);
        out.put_slice(payload);
        // Batch-framing trailer only when stamped: unbatched responses
        // encode byte-identically to the legacy format.
        if batch != 0 {
            out.put_u64_le(batch);
        }
    });
}

/// The payload of a [`Status::Overloaded`] response: the suggested retry
/// delay in milliseconds.
pub(crate) fn encode_retry_after(retry_after: Duration) -> [u8; 8] {
    (retry_after.as_millis() as u64).to_le_bytes()
}

/// Parse the payload of a [`Status::Overloaded`] response back into the
/// daemon's suggested retry delay. `None` if the payload is malformed.
pub fn decode_retry_after(payload: &[u8]) -> Option<Duration> {
    let ms: [u8; 8] = payload.try_into().ok()?;
    Some(Duration::from_millis(u64::from_le_bytes(ms)))
}

/// Instantaneous daemon load, published through the heartbeat file so a
/// host can observe pressure without spending a request round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatLoad {
    /// Requests currently executing.
    pub in_flight: u64,
    /// Requests admitted but waiting for an execution slot.
    pub queued: u64,
}

/// One heartbeat file: its writer's stamp and load, three bare
/// little-endian u64s (24 bytes). Its age is `now - stamp_ms` on the run's
/// one clock ([`crate::FaultInjector::now_ms`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatRecord {
    /// When the daemon wrote it, in Unix milliseconds on the run's clock.
    pub stamp_ms: u64,
    /// The daemon's load when it wrote it.
    pub load: HeartbeatLoad,
}

impl HeartbeatRecord {
    /// Encode to the 24-byte layout.
    pub fn encode(&self) -> [u8; 24] {
        let mut out = [0u8; 24];
        out[..8].copy_from_slice(&self.stamp_ms.to_le_bytes());
        out[8..16].copy_from_slice(&self.load.in_flight.to_le_bytes());
        out[16..].copy_from_slice(&self.load.queued.to_le_bytes());
        out
    }

    /// Decode exactly 24 bytes; `None` for any other length.
    pub fn decode(bytes: &[u8]) -> Option<HeartbeatRecord> {
        let bytes: &[u8; 24] = bytes.try_into().ok()?;
        let [stamp_ms, in_flight, queued] =
            [0, 8, 16].map(|i| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap_or_default()));
        let load = HeartbeatLoad { in_flight, queued };
        Some(HeartbeatRecord { stamp_ms, load })
    }
}

/// FNV-1a 32-bit hash.
fn fnv1a(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

/// A request's parameters where they lie in a frame body — `len: u32` +
/// UTF-8 bytes, once per parameter — every one validated by the decoder
/// that built this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params<'a> {
    count: usize,
    wire: &'a [u8],
}

impl<'a> Params<'a> {
    /// The parameters, in order. Each is converted by the checked
    /// conversion again, which cannot fail on bytes a decoder validated.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let mut rest = self.wire;
        (0..self.count).map(move |_| {
            let len = take(&mut rest).map_or(0, u32::from_le_bytes) as usize;
            std::str::from_utf8(take_slice(&mut rest, len).unwrap_or_default()).unwrap_or_default()
        })
    }

    /// Copy the parameters out — what a reader that runs the request owns.
    pub fn to_vec(&self) -> Vec<String> {
        self.iter().map(str::to_string).collect()
    }

    /// Copy the parameters into `out`, a set a reader recycles: `out` is
    /// cut to their count, each kept `String` is refilled in its own
    /// buffer, and only a parameter beyond `out`'s old length is new.
    pub fn copy_into(&self, out: &mut Vec<String>) {
        out.truncate(self.count);
        for (i, param) in self.iter().enumerate() {
            match out.get_mut(i) {
                Some(kept) => {
                    kept.clear();
                    kept.push_str(param);
                }
                None => out.push(param.to_string()),
            }
        }
    }
}

/// What a frame carries, borrowed from the buffer it was decoded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewBody<'a> {
    /// Host → SD ([`FrameBody::Request`]).
    Request {
        /// Input parameters, validated.
        params: Params<'a>,
        /// Absolute expiry in Unix milliseconds, `0` for none.
        expires_unix_ms: u64,
    },
    /// SD → host ([`FrameBody::Response`]).
    Response {
        /// Completion status.
        status: Status,
        /// Result bytes, or the message of an error.
        payload: &'a [u8],
    },
}

/// One validated frame, read where it lies: nothing is copied until the
/// reader decides what it passes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// Correlates a response with its request ([`Frame::id`]).
    pub id: u64,
    /// Batch-framing word, `0` for an unbatched frame ([`Frame::batch`]).
    pub batch: u64,
    /// Bytes the frame occupies on the wire, envelope included.
    pub wire_len: usize,
    /// Request or response content.
    pub body: ViewBody<'a>,
}

impl FrameView<'_> {
    /// Whether this is a request frame.
    pub fn is_request(&self) -> bool {
        matches!(self.body, ViewBody::Request { .. })
    }

    /// Copy the whole frame out.
    pub fn to_frame(&self) -> Frame {
        match self.body {
            ViewBody::Request { params, .. } => self.owned(params.to_vec()),
            ViewBody::Response { .. } => self.owned(Vec::new()),
        }
    }

    /// The owned frame, a request taking `params` as already copied out.
    fn owned(&self, params: Vec<String>) -> Frame {
        let body = match self.body {
            ViewBody::Request {
                expires_unix_ms, ..
            } => FrameBody::Request {
                params,
                expires_unix_ms,
            },
            ViewBody::Response { status, payload } => FrameBody::Response {
                status,
                payload: Bytes::copy_from_slice(payload),
            },
        };
        Frame {
            id: self.id,
            batch: self.batch,
            body,
        }
    }
}

/// Outcome of trying to decode one frame from a buffer position, as an
/// owned [`Frame`] or as a [`FrameView`] ([`ViewStep`]).
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeStep<F = Frame> {
    /// A complete frame; `consumed` bytes were used.
    Complete {
        /// The decoded frame.
        frame: F,
        /// Bytes consumed from the buffer.
        consumed: usize,
    },
    /// The buffer ends mid-frame (a writer has not finished its append);
    /// retry after the file grows.
    Incomplete,
    /// The bytes at this position are not a valid frame.
    Corrupt {
        /// Explanation for diagnostics.
        detail: String,
    },
}

/// Outcome of trying to view one frame at a buffer position.
pub type ViewStep<'a> = DecodeStep<FrameView<'a>>;

/// Look at the frame at the start of `buf` without copying any of it.
pub fn decode_view(buf: &[u8]) -> ViewStep<'_> {
    decode_with(buf, |_| {})
}

/// Try to decode one frame from the start of `buf` into an owned [`Frame`].
pub fn decode_frame(buf: &[u8]) -> DecodeStep {
    let mut params = Vec::new();
    match decode_with(buf, |p| params.push(p.to_string())) {
        DecodeStep::Complete { frame, consumed } => DecodeStep::Complete {
            frame: frame.owned(params),
            consumed,
        },
        DecodeStep::Incomplete => DecodeStep::Incomplete,
        DecodeStep::Corrupt { detail } => DecodeStep::Corrupt { detail },
    }
}

/// The envelope checks — magic, length cap, completeness, checksum — then
/// the body; `param` sees each request parameter as it is validated.
fn decode_with<'a>(buf: &'a [u8], param: impl FnMut(&'a str)) -> ViewStep<'a> {
    let corrupt = |detail| DecodeStep::Corrupt { detail };
    let Some(&magic) = buf.first() else {
        return DecodeStep::Incomplete;
    };
    if magic != MAGIC_REQUEST && magic != MAGIC_RESPONSE {
        return corrupt(format!("bad magic byte 0x{magic:02x}"));
    }
    let mut rest = &buf[1..];
    let Some(body_len) = take(&mut rest).map(u32::from_le_bytes) else {
        return DecodeStep::Incomplete;
    };
    if body_len > MAX_FRAME_BODY {
        return corrupt(format!("frame body of {body_len} bytes exceeds limit"));
    }
    let (Some(body), Some(stored)) = (take_slice(&mut rest, body_len as usize), take(&mut rest))
    else {
        return DecodeStep::Incomplete;
    };
    if fnv1a(body) != u32::from_le_bytes(stored) {
        return corrupt("checksum mismatch".into());
    }
    let consumed = buf.len() - rest.len();
    match decode_body(magic, body, consumed, param) {
        Ok(frame) => DecodeStep::Complete { frame, consumed },
        Err(detail) => corrupt(detail),
    }
}

/// The next `N` bytes of `cur`, which moves past them.
fn take<const N: usize>(cur: &mut &[u8]) -> Option<[u8; N]> {
    let (word, rest) = cur.split_first_chunk()?;
    *cur = rest;
    Some(*word)
}

/// The next `len` bytes of `cur`, which moves past them.
fn take_slice<'a>(cur: &mut &'a [u8], len: usize) -> Option<&'a [u8]> {
    let (head, rest) = cur.split_at_checked(len)?;
    *cur = rest;
    Some(head)
}

/// The one body parser: the frame of `wire_len` bytes whose checksum-valid
/// body is `body`, every field validated.
// Each instance has one caller, and inlined into it the view is never
// written out and read back on the owned path (`decode_frame` measured
// 8 % slower, a stream of responses 17 %, with the call in place).
#[inline(always)]
fn decode_body<'a>(
    magic: u8,
    body: &'a [u8],
    wire_len: usize,
    mut param: impl FnMut(&'a str),
) -> Result<FrameView<'a>, String> {
    let mut cur = body;
    let id = u64::from_le_bytes(take(&mut cur).ok_or("truncated u64")?);
    let (batch, body) = if magic == MAGIC_REQUEST {
        let count = u32::from_le_bytes(take(&mut cur).ok_or("truncated u32")?) as usize;
        let wire = cur;
        for _ in 0..count {
            let len = u32::from_le_bytes(take(&mut cur).ok_or("truncated u32")?);
            let bytes = take_slice(&mut cur, len as usize).ok_or("truncated parameter")?;
            param(std::str::from_utf8(bytes).map_err(|_| "parameter is not UTF-8")?);
        }
        let wire = &wire[..wire.len() - cur.len()];
        // Legacy frames end right after the params; deadline-carrying
        // frames have exactly one more u64 (the absolute expiry).
        let expires_unix_ms = match cur.len() {
            0 => 0,
            8 => take(&mut cur).map_or(0, u64::from_le_bytes),
            _ => return Err("trailing bytes in request body".into()),
        };
        let params = Params { count, wire };
        let body = ViewBody::Request {
            params,
            expires_unix_ms,
        };
        (0, body)
    } else {
        let status = match take(&mut cur) {
            None => return Err("missing status byte".into()),
            Some([0]) => Status::Ok,
            Some([1]) => Status::Error,
            Some([2]) => Status::Overloaded,
            Some([other]) => return Err(format!("bad status byte {other}")),
        };
        let len = u32::from_le_bytes(take(&mut cur).ok_or("truncated u32")?);
        let payload = take_slice(&mut cur, len as usize).ok_or("payload length mismatch")?;
        // Legacy frames end right after the payload; batched responses
        // carry exactly one more u64 (the batch-framing word).
        let batch = match cur.len() {
            0 => 0,
            8 => match take(&mut cur).map_or(0, u64::from_le_bytes) {
                0 => return Err("zero batch-framing word".into()),
                word => word,
            },
            _ => return Err("trailing bytes in response body".into()),
        };
        (batch, ViewBody::Response { status, payload })
    };
    Ok(FrameView {
        id,
        batch,
        wire_len,
        body,
    })
}

/// Where a [`scan`] ended.
#[derive(Debug, PartialEq, Eq)]
pub struct ScanEnd {
    /// Offset of the first byte not consumed: the end of the data, an
    /// incomplete trailing frame, or the frame `corrupt` is about.
    pub new_pos: usize,
    /// Corrupt bytes a recovering scan jumped over.
    pub skipped_bytes: usize,
    /// Why a scan that does not recover stopped short of the end.
    pub corrupt: Option<String>,
}

/// The one stream loop: show `each` every complete frame of `data` from
/// `offset` on, with the offset it starts at, and stop at the end of the
/// data or an incomplete trailing frame.
///
/// A corrupt frame ends a scan that is not `recovering` — a log file is
/// append-only, so corruption is never self-healing. A `recovering` scan
/// searches forward for the next position that holds a *complete,
/// checksum-valid* frame and resumes there, counting the skipped bytes.
/// Two safety properties:
///
/// - The scan never advances past an `Incomplete` tail, because truncated
///   garbage is indistinguishable from a concurrent append still in
///   progress; the cursor holds position and the caller re-polls after
///   the file grows.
/// - Bytes are only counted as skipped when the scan actually lands on a
///   valid frame ahead, so `skipped_bytes` never includes an in-progress
///   append. (A checksum-valid frame starting inside garbage is
///   astronomically unlikely but not impossible; the FNV-32 check is the
///   arbiter.)
pub fn scan<'a>(
    data: &'a [u8],
    offset: usize,
    recovering: bool,
    mut each: impl FnMut(usize, FrameView<'a>),
) -> ScanEnd {
    let (mut pos, mut skipped_bytes, mut corrupt) = (offset.min(data.len()), 0, None);
    loop {
        match decode_view(&data[pos..]) {
            DecodeStep::Complete { frame, consumed } => {
                each(pos, frame);
                pos += consumed;
            }
            DecodeStep::Incomplete => break,
            DecodeStep::Corrupt { detail } if !recovering => {
                corrupt = Some(format!("at offset {pos}: {detail}"));
                break;
            }
            DecodeStep::Corrupt { .. } => match next_complete_frame(data, pos + 1) {
                Some(resync) => {
                    skipped_bytes += resync - pos;
                    pos = resync;
                }
                None => break,
            },
        }
    }
    ScanEnd {
        new_pos: pos,
        skipped_bytes,
        corrupt,
    }
}

/// Decode every complete frame starting at `offset` in `data` into owned
/// [`Frame`]s. Returns the frames and the offset of the first byte not
/// consumed (either the end of data or the start of an incomplete trailing
/// frame). A corrupt frame is an error ([`scan`], not recovering).
pub fn decode_stream(data: &[u8], offset: usize) -> Result<(Vec<Frame>, usize), String> {
    let mut frames = Vec::new();
    let end = scan(data, offset, false, |_, view| frames.push(view.to_frame()));
    match end.corrupt {
        Some(detail) => Err(detail),
        None => Ok((frames, end.new_pos)),
    }
}

/// First offset at or after `from` where a complete, valid frame starts.
fn next_complete_frame(data: &[u8], from: usize) -> Option<usize> {
    (from..data.len()).find(|&q| {
        (data[q] == MAGIC_REQUEST || data[q] == MAGIC_RESPONSE)
            && matches!(decode_view(&data[q..]), DecodeStep::Complete { .. })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The wire format is a contract with logs already on disk: these
    /// bytes were computed independently of this encoder and must never
    /// change for unbatched frames.
    #[test]
    fn unbatched_encodings_are_pinned_to_golden_bytes() {
        let id = 0x0102_0304_0506_0708;
        let params = || vec!["ab".to_string(), "c".to_string()];
        for (frame, golden) in [
            (
                Frame::request(id, params()),
                "51170000000807060504030201020000000200000061620100000063d8b6e83c",
            ),
            (
                Frame::request_with_deadline(id, params(), 0x11_2233_4455),
                "511f0000000807060504030201020000000200000061620100000063554433221100000025387d9a",
            ),
            (
                Frame::response_ok(id, b"ok".to_vec()),
                "530f000000080706050403020100020000006f6b876f3142",
            ),
        ] {
            let bytes = frame.encode();
            assert_eq!(hex(&bytes), golden, "{frame:?}");
            assert_eq!(frame.encoded_len(), bytes.len());
            let mut appended = vec![0xaa];
            frame.encode_into(&mut appended);
            assert_eq!(
                appended[1..],
                bytes[..],
                "encode_into appends, checksums its own body"
            );
        }
        let batched = Frame::response_ok(id, b"ok".to_vec()).in_batch(1, 0);
        assert_eq!(batched.encoded_len(), batched.encode().len());
    }

    proptest::proptest! {
        /// The host's submit path never builds a `Frame`: what it appends
        /// from borrowed parameters must be the frame's own encoding, which
        /// in turn is the layout the module docs give, built here by hand.
        #[test]
        fn borrowed_request_encoder_equals_the_frame_encoding(
            id in proptest::prelude::any::<u64>(),
            params in proptest::collection::vec("[a-zA-Z0-9 /._|-]{0,24}", 0..6),
            deadline in proptest::prelude::any::<u64>(),
            has_deadline in proptest::prelude::any::<bool>(),
        ) {
            let expires = if has_deadline { deadline } else { 0 };
            let frame = Frame::request_with_deadline(id, params.clone(), expires);
            let mut appended = vec![0xaa, 0xbb];
            encode_request_into(&mut appended, id, &params, expires);
            proptest::prop_assert_eq!(&appended[2..], &frame.encode()[..]);
            let mut body = BytesMut::new();
            body.put_u64_le(id);
            body.put_u32_le(params.len() as u32);
            for p in &params {
                body.put_u32_le(p.len() as u32);
                body.put_slice(p.as_bytes());
            }
            if expires != 0 {
                body.put_u64_le(expires);
            }
            let mut expect = vec![MAGIC_REQUEST];
            expect.extend_from_slice(&(body.len() as u32).to_le_bytes());
            expect.extend_from_slice(&body);
            expect.extend_from_slice(&fnv1a(&body).to_le_bytes());
            proptest::prop_assert_eq!(&appended[2..], &expect[..]);
            proptest::prop_assert_eq!(
                decode_frame(&appended[2..]),
                DecodeStep::Complete { frame, consumed: expect.len() }
            );
        }
    }

    #[test]
    fn request_roundtrip() {
        let f = Frame::request(42, vec!["input.txt".into(), "600M".into()]);
        let bytes = f.encode();
        match decode_frame(&bytes) {
            DecodeStep::Complete { frame, consumed } => {
                assert_eq!(frame, f);
                assert_eq!(consumed, bytes.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn response_roundtrip() {
        let f = Frame::response_ok(7, vec![1u8, 2, 3]);
        let bytes = f.encode();
        match decode_frame(&bytes) {
            DecodeStep::Complete { frame, .. } => assert_eq!(frame, f),
            other => panic!("{other:?}"),
        }
    }

    /// The response frame the daemon writes, by `encode_response_into`,
    /// and the frame the owned decoder makes of it.
    fn written(id: u64, status: Status, payload: &[u8]) -> (Vec<u8>, Frame) {
        let mut bytes = Vec::new();
        encode_response_into(&mut bytes, id, status, payload, 0);
        match decode_frame(&bytes) {
            DecodeStep::Complete { frame, .. } => (bytes, frame),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_response_roundtrip() {
        let id = 0x0102_0304_0506_0708;
        let (bytes, _) = written(id, Status::Error, b"boom");
        let golden = "531100000008070605040302010104000000626f6f6dbb29977a";
        assert_eq!(hex(&bytes), golden);
        let (_, frame) = written(9, Status::Error, b"module exploded");
        assert_eq!(frame.id, 9);
        match frame.body {
            FrameBody::Response { status, payload } => {
                assert_eq!(status, Status::Error);
                assert_eq!(&payload[..], b"module exploded");
            }
            _ => panic!("not a response"),
        }
    }

    #[test]
    fn empty_params_roundtrip() {
        let f = Frame::request(1, vec![]);
        let bytes = f.encode();
        match decode_frame(&bytes) {
            DecodeStep::Complete { frame, .. } => assert_eq!(frame, f),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_incomplete() {
        let bytes = Frame::request(1, vec!["abc".into()]).encode();
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                DecodeStep::Incomplete => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_body_is_detected() {
        let mut bytes = Frame::request(1, vec!["abcdef".into()]).encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        match decode_frame(&bytes) {
            DecodeStep::Corrupt { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_corrupt() {
        assert!(matches!(decode_frame(b"Xjunk"), DecodeStep::Corrupt { .. }));
    }

    #[test]
    fn oversized_length_is_corrupt_not_allocation_bomb() {
        let mut bytes = vec![MAGIC_REQUEST];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(decode_frame(&bytes), DecodeStep::Corrupt { .. }));
    }

    #[test]
    fn stream_decodes_multiple_frames() {
        let mut data = Vec::new();
        let frames: Vec<Frame> = (0..5)
            .map(|i| Frame::request(i, vec![format!("p{i}")]))
            .collect();
        for f in &frames {
            data.extend(f.encode());
        }
        let (decoded, pos) = decode_stream(&data, 0).unwrap();
        assert_eq!(decoded, frames);
        assert_eq!(pos, data.len());
    }

    #[test]
    fn stream_stops_at_partial_tail() {
        let mut data = Frame::request(1, vec!["a".into()]).encode();
        let full_len = data.len();
        let tail = Frame::response_ok(1, vec![9u8; 100]).encode();
        data.extend_from_slice(&tail[..tail.len() / 2]);
        let (decoded, pos) = decode_stream(&data, 0).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(pos, full_len);
    }

    #[test]
    fn stream_resumes_from_offset() {
        let f1 = Frame::request(1, vec![]).encode();
        let f2 = Frame::request(2, vec![]).encode();
        let mut data = f1.clone();
        data.extend(&f2);
        let (decoded, pos) = decode_stream(&data, f1.len()).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].id, 2);
        assert_eq!(pos, data.len());
    }

    #[test]
    fn stream_reports_corruption() {
        let mut data = Frame::request(1, vec![]).encode();
        data.extend_from_slice(b"ZZZZ");
        assert!(decode_stream(&data, 0).is_err());
    }

    /// A recovering [`scan`], every frame copied out: the frames and where
    /// the scan ended.
    fn recovering(data: &[u8], offset: usize) -> (Vec<Frame>, ScanEnd) {
        let mut frames = Vec::new();
        let end = scan(data, offset, true, |_, view| frames.push(view.to_frame()));
        (frames, end)
    }

    #[test]
    fn recovering_decode_holds_at_torn_tail_then_completes() {
        // A torn append must NOT be treated as corruption: the recovering
        // decoder holds position, and once the writer finishes the frame a
        // re-scan picks it up with zero skipped bytes.
        let first = Frame::request(1, vec!["a".into()]).encode();
        let torn = Frame::request(2, vec!["second-parameter".into()]).encode();
        let mut data = first.clone();
        data.extend_from_slice(&torn[..torn.len() / 2]);
        let (frames, rec) = recovering(&data, 0);
        assert_eq!(frames.len(), 1);
        assert_eq!(rec.new_pos, first.len());
        assert_eq!(rec.skipped_bytes, 0);
        // Complete the torn frame and rescan from the held position.
        let mut full = first.clone();
        full.extend_from_slice(&torn);
        let (frames, rec) = recovering(&full, rec.new_pos);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].id, 2);
        assert_eq!(rec.new_pos, full.len());
        assert_eq!(rec.skipped_bytes, 0);
    }

    #[test]
    fn recovering_decode_skips_corrupt_frame_to_next_valid() {
        // frame1 | corrupted frame2 | frame3 — the recovering decoder
        // salvages 1 and 3 and reports exactly frame2's bytes as skipped.
        let f1 = Frame::request(1, vec!["one".into()]).encode();
        let mut f2 = Frame::request(2, vec!["two".into()]).encode();
        let mid = f2.len() / 2;
        f2[mid] ^= 0x5a; // checksum now fails
        let f3 = Frame::request(3, vec!["three".into()]).encode();
        let mut data = f1.clone();
        data.extend_from_slice(&f2);
        data.extend_from_slice(&f3);
        let (frames, rec) = recovering(&data, 0);
        let ids: Vec<u64> = frames.iter().map(|f| f.id).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(rec.skipped_bytes, f2.len());
        assert_eq!(rec.new_pos, data.len());
    }

    #[test]
    fn recovering_decode_holds_when_no_valid_frame_ahead() {
        // Corrupt bytes with no complete frame after them could be an
        // in-progress append — nothing is consumed or counted yet.
        let f1 = Frame::request(1, vec![]).encode();
        let mut data = f1.clone();
        data.extend_from_slice(b"ZZZZZZ");
        let (frames, rec) = recovering(&data, 0);
        assert_eq!(frames.len(), 1);
        assert_eq!(rec.new_pos, f1.len());
        assert_eq!(rec.skipped_bytes, 0);
    }

    #[test]
    fn recovering_decode_matches_plain_decode_on_clean_streams() {
        let mut data = Vec::new();
        for i in 0..4 {
            data.extend(Frame::request(i, vec![format!("p{i}")]).encode());
        }
        let (plain, pos) = decode_stream(&data, 0).unwrap();
        let (frames, rec) = recovering(&data, 0);
        assert_eq!(frames, plain);
        assert_eq!(rec.new_pos, pos);
        assert_eq!(rec.skipped_bytes, 0);
    }

    #[test]
    fn deadline_request_roundtrip() {
        let f = Frame::request_with_deadline(11, vec!["in.txt".into()], 1_722_000_000_123);
        let bytes = f.encode();
        match decode_frame(&bytes) {
            DecodeStep::Complete { frame, consumed } => {
                assert_eq!(frame, f);
                assert_eq!(consumed, bytes.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deadline_free_request_encodes_legacy_bytes() {
        // A request without a deadline must stay byte-identical to the
        // pre-deadline wire format: old daemons can read new hosts.
        let new = Frame::request(5, vec!["a".into(), "b".into()]).encode();
        let mut legacy = BytesMut::new();
        legacy.put_u64_le(5);
        legacy.put_u32_le(2);
        for p in ["a", "b"] {
            legacy.put_u32_le(p.len() as u32);
            legacy.put_slice(p.as_bytes());
        }
        let mut expect = vec![MAGIC_REQUEST];
        expect.extend_from_slice(&(legacy.len() as u32).to_le_bytes());
        expect.extend_from_slice(&legacy);
        expect.extend_from_slice(&fnv1a(&legacy).to_le_bytes());
        assert_eq!(new, expect);
    }

    #[test]
    fn request_with_partial_deadline_trailer_is_corrupt() {
        // 4 trailing bytes is neither legacy (0) nor deadline (8).
        let mut body = BytesMut::new();
        body.put_u64_le(1);
        body.put_u32_le(0);
        body.put_u32_le(0xdead_beef);
        let mut bytes = vec![MAGIC_REQUEST];
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
        assert!(matches!(decode_frame(&bytes), DecodeStep::Corrupt { .. }));
    }

    #[test]
    fn overloaded_response_roundtrip() {
        let retry_after = encode_retry_after(Duration::from_millis(250));
        let (_, frame) = written(13, Status::Overloaded, &retry_after);
        assert_eq!(frame.id, 13);
        match frame.body {
            FrameBody::Response { status, payload } => {
                assert_eq!(status, Status::Overloaded);
                assert_eq!(
                    decode_retry_after(&payload),
                    Some(Duration::from_millis(250))
                );
            }
            _ => panic!("not a response"),
        }
        assert_eq!(decode_retry_after(b"short"), None);
    }

    #[test]
    fn unknown_status_byte_is_still_corrupt() {
        let mut body = BytesMut::new();
        body.put_u64_le(1);
        body.put_u8(3); // 0/1/2 are the only assigned status bytes
        body.put_u32_le(0);
        let mut bytes = vec![MAGIC_RESPONSE];
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
        assert!(matches!(decode_frame(&bytes), DecodeStep::Corrupt { .. }));
    }

    #[test]
    fn heartbeat_roundtrips_in_24_bytes_and_nothing_else_decodes() {
        let hb = HeartbeatRecord {
            stamp_ms: 42,
            load: HeartbeatLoad {
                in_flight: 3,
                queued: 17,
            },
        };
        let bytes = hb.encode();
        assert_eq!(HeartbeatRecord::decode(&bytes), Some(hb));
        // Torn / garbage lengths are rejected, not misparsed.
        for len in [0, 5, 8, 16, 23] {
            assert_eq!(HeartbeatRecord::decode(&bytes[..len]), None, "{len}");
        }
        assert_eq!(HeartbeatRecord::decode(&[0u8; 25]), None);
    }

    #[test]
    fn unicode_params_roundtrip() {
        let f = Frame::request(3, vec!["παράμετρος".into(), "日本語".into()]);
        let bytes = f.encode();
        match decode_frame(&bytes) {
            DecodeStep::Complete { frame, .. } => assert_eq!(frame, f),
            other => panic!("{other:?}"),
        }
    }
}
