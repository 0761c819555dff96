//! A small self-describing binary wire codec.
//!
//! Every message that crosses a simulated [`Path`](crate::Path) — SQL
//! requests, result sets, memento images, commit requests, HTML pages — is
//! really serialized through this codec, so the byte counts behind the
//! paper's bandwidth figure (Figure 8) are measured, not estimated.
//!
//! The format is deliberately simple: fixed-width big-endian integers and
//! length-prefixed byte strings, in the spirit of the RMI/JDBC wire formats
//! the paper's prototype used.
//!
//! ```
//! use sli_simnet::wire::{Reader, Writer};
//!
//! let mut w = Writer::new();
//! w.put_str("findByPrimaryKey");
//! w.put_u64(42);
//! let frame = w.finish();
//!
//! let mut r = Reader::new(frame);
//! assert_eq!(r.get_str().unwrap(), "findByPrimaryKey");
//! assert_eq!(r.get_u64().unwrap(), 42);
//! assert!(r.is_empty());
//! ```

use std::error::Error;
use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};

/// Error produced when decoding a malformed or truncated frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    what: &'static str,
}

impl DecodeError {
    /// Creates a decode error describing what failed to decode.
    ///
    /// Public so higher layers (value codecs, protocol decoders) can raise
    /// format errors of their own.
    pub fn new(what: &'static str) -> DecodeError {
        DecodeError { what }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire frame: {}", self.what)
    }
}

impl Error for DecodeError {}

/// Wire-protocol identifiers carried in [`FrameHeader`]s.
pub mod protocol {
    /// The JDBC-style database protocol (DRDA stand-in).
    pub const JDBC: u16 = 0x4442;
    /// The edge ↔ back-end protocol (RMI/IIOP stand-in).
    pub const BACKEND: u16 = 0x524D;
}

const FRAME_MAGIC: u32 = 0x534C_4957; // "SLIW"
const FRAME_VERSION: u16 = 1;

/// Parsed header of a framed protocol message.
///
/// Real middleware protocols (DRDA for JDBC, RMI/IIOP between application
/// servers) wrap every message in fixed framing — magic, version,
/// correlation ids, lengths, checksums. The paper's bandwidth figure
/// measures traffic *including* that framing, so this codec models it
/// explicitly: [`frame`] prepends a 32-byte header, [`unframe`] validates
/// and strips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol discriminator (see [`protocol`]).
    pub protocol: u16,
    /// Request/response correlation id.
    pub correlation: u64,
    /// Causal trace id propagated across the wire (0 = untraced). Real
    /// stacks carry a trace/session token in exactly this kind of header
    /// slot; servers handling a message detached from the originating
    /// call stack (deferred invalidations, replays) re-join the trace
    /// through it.
    pub trace_id: u64,
}

/// Bytes of framing in front of every payload.
pub const FRAME_HEADER_LEN: usize = 32;

/// The header [`frame_traced`] puts in front of `payload`.
fn header(proto: u16, correlation: u64, trace_id: u64, payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let mut h = [0u8; FRAME_HEADER_LEN];
    h[0..4].copy_from_slice(&FRAME_MAGIC.to_be_bytes());
    h[4..6].copy_from_slice(&FRAME_VERSION.to_be_bytes());
    h[6..8].copy_from_slice(&proto.to_be_bytes());
    h[8..16].copy_from_slice(&correlation.to_be_bytes());
    h[16..24].copy_from_slice(&trace_id.to_be_bytes());
    h[24..28].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    h[28..32].copy_from_slice(&checksum(payload).to_be_bytes());
    h
}

/// Wraps `payload` in a 32-byte protocol header with no trace context.
pub fn frame(proto: u16, correlation: u64, payload: &Bytes) -> Bytes {
    frame_traced(proto, correlation, 0, payload)
}

/// Wraps `payload` in a 32-byte protocol header carrying `trace_id` in the
/// header's token slot, so the receiver can attach its spans to the
/// sender's causal trace.
///
/// Header and payload go into one buffer sized up front; the payload is
/// copied once. A sender that builds its own payload avoids even that copy
/// by writing it behind a reserved header ([`Writer::framed`]).
pub fn frame_traced(proto: u16, correlation: u64, trace_id: u64, payload: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.put_slice(&header(proto, correlation, trace_id, payload));
    buf.put_slice(payload);
    buf.freeze()
}

/// Validates and strips a [`frame`]d message. The payload is a view into
/// `message`, not a copy.
///
/// # Errors
/// Returns [`DecodeError`] on bad magic/version, truncation, or checksum
/// mismatch.
pub fn unframe(message: Bytes) -> Result<(FrameHeader, Bytes), DecodeError> {
    let mut r = Reader::new(message);
    if r.get_u32()? != FRAME_MAGIC {
        return Err(DecodeError::new("frame magic"));
    }
    if r.get_u16()? != FRAME_VERSION {
        return Err(DecodeError::new("frame version"));
    }
    let proto = r.get_u16()?;
    let correlation = r.get_u64()?;
    let trace_id = r.get_u64()?;
    let len = r.get_u32()? as usize;
    let expected_sum = r.get_u32()?;
    let payload = r.get_bytes_raw(len)?;
    if checksum(&payload) != expected_sum {
        return Err(DecodeError::new("frame checksum"));
    }
    Ok((
        FrameHeader {
            protocol: proto,
            correlation,
            trace_id,
        },
        payload,
    ))
}

/// The frame checksum: the polynomial hash `acc = acc * 31 + byte` over
/// the payload, in wrapping `u32` arithmetic.
///
/// Four bytes are folded per step, `acc * 31^4 + b0 * 31^3 + b1 * 31^2 +
/// b2 * 31 + b3`, which is the same value as four serial steps; the tail
/// is folded one byte at a time.
fn checksum(payload: &[u8]) -> u32 {
    const P1: u32 = 31;
    const P2: u32 = P1 * P1;
    const P3: u32 = P2 * P1;
    const P4: u32 = P3 * P1;
    let mut words = payload.chunks_exact(4);
    let mut acc = 0u32;
    for w in &mut words {
        acc = acc
            .wrapping_mul(P4)
            .wrapping_add((w[0] as u32).wrapping_mul(P3))
            .wrapping_add((w[1] as u32).wrapping_mul(P2))
            .wrapping_add((w[2] as u32).wrapping_mul(P1))
            .wrapping_add(w[3] as u32);
    }
    words
        .remainder()
        .iter()
        .fold(acc, |acc, &b| acc.wrapping_mul(P1).wrapping_add(b as u32))
}

/// Interprets a wire string's bytes as UTF-8, in place.
///
/// # Errors
/// Returns [`DecodeError`] on invalid UTF-8.
pub fn utf8(raw: &[u8]) -> Result<&str, DecodeError> {
    std::str::from_utf8(raw).map_err(|_| DecodeError::new("utf-8"))
}

/// Incrementally builds an encoded frame.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
    /// Whether the first [`FRAME_HEADER_LEN`] bytes are reserved for a
    /// header ([`Writer::framed`]).
    framed: bool,
}

impl Writer {
    /// Creates an empty frame writer.
    pub fn new() -> Writer {
        Writer {
            buf: BytesMut::with_capacity(128),
            framed: false,
        }
    }

    /// Creates a writer whose payload lands behind a reserved frame header;
    /// [`Writer::finish_frame`] fills the header in place, so framing the
    /// payload copies nothing.
    pub fn framed() -> Writer {
        let mut buf = BytesMut::with_capacity(FRAME_HEADER_LEN + 128);
        buf.put_bytes(0, FRAME_HEADER_LEN);
        Writer { buf, framed: true }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Writer {
        self.buf.put_u8(v);
        self
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> &mut Writer {
        self.buf.put_u16(v);
        self
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Writer {
        self.buf.put_u32(v);
        self
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Writer {
        self.buf.put_u64(v);
        self
    }

    /// Appends a big-endian `i64`.
    pub fn put_i64(&mut self, v: i64) -> &mut Writer {
        self.buf.put_i64(v);
        self
    }

    /// Appends an IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) -> &mut Writer {
        self.buf.put_f64(v);
        self
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) -> &mut Writer {
        self.buf.put_u8(v as u8);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Writer {
        self.put_bytes(v.as_bytes())
    }

    /// Appends the concatenation of `parts` as one length-prefixed string,
    /// without building it first.
    pub fn put_str_parts(&mut self, parts: &[&str]) -> &mut Writer {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        self.buf.put_u32(len as u32);
        for p in parts {
            self.buf.put_slice(p.as_bytes());
        }
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Writer {
        self.buf.put_u32(v.len() as u32);
        self.buf.put_slice(v);
        self
    }

    /// Appends a nested frame, length-prefixed, that `encode` writes in
    /// place: the prefix is patched once the frame is written, so nothing
    /// is encoded separately and copied.
    pub fn put_frame_with(&mut self, encode: impl FnOnce(&mut Writer)) -> &mut Writer {
        let at = self.buf.len();
        self.buf.put_u32(0);
        encode(self);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
        self
    }

    /// Number of payload bytes written so far (a reserved header is not
    /// counted).
    pub fn len(&self) -> usize {
        self.buf.len() - self.header_len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn header_len(&self) -> usize {
        if self.framed {
            FRAME_HEADER_LEN
        } else {
            0
        }
    }

    /// Finalizes the frame.
    ///
    /// # Panics
    /// On a [`Writer::framed`] writer, whose header only
    /// [`Writer::finish_frame`] can fill.
    pub fn finish(self) -> Bytes {
        assert!(!self.framed, "a framed writer ends with finish_frame");
        self.buf.freeze()
    }

    /// Finalizes a frame that is kept rather than sent, such as a log
    /// record or a checkpoint: the buffer is shrunk to the frame's length,
    /// so what is kept carries no growth slack.
    ///
    /// # Panics
    /// On a [`Writer::framed`] writer.
    pub fn finish_exact(self) -> Bytes {
        assert!(!self.framed, "a framed writer ends with finish_frame");
        let mut buf = Vec::from(self.buf);
        buf.shrink_to_fit();
        Bytes::from(buf)
    }

    /// Fills the reserved header in place and returns the whole framed
    /// message: the same bytes as [`frame_traced`] of the payload.
    ///
    /// # Panics
    /// On a writer not made by [`Writer::framed`].
    pub fn finish_frame(mut self, proto: u16, correlation: u64, trace_id: u64) -> Bytes {
        assert!(self.framed, "only a framed writer has a header to fill");
        let h = header(proto, correlation, trace_id, &self.buf[FRAME_HEADER_LEN..]);
        self.buf[..FRAME_HEADER_LEN].copy_from_slice(&h);
        self.buf.freeze()
    }
}

/// Decodes a frame produced by [`Writer`].
#[derive(Debug)]
pub struct Reader {
    buf: Bytes,
    pos: usize,
}

impl Reader {
    /// Wraps an encoded frame for reading.
    pub fn new(buf: Bytes) -> Reader {
        Reader { buf, pos: 0 }
    }

    fn need(&self, n: usize, what: &'static str) -> Result<(), DecodeError> {
        if self.remaining() < n {
            Err(DecodeError::new(what))
        } else {
            Ok(())
        }
    }

    /// Consumes the next `N` bytes.
    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        self.need(N, what)?;
        let mut raw = [0u8; N];
        raw.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.pos += N;
        Ok(raw)
    }

    /// Reads a single byte.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if the frame is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take::<1>("u8")?[0])
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if fewer than two bytes remain.
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        self.take("u16").map(u16::from_be_bytes)
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if fewer than four bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.take("u32").map(u32::from_be_bytes)
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if fewer than eight bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.take("u64").map(u64::from_be_bytes)
    }

    /// Reads a big-endian `i64`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if fewer than eight bytes remain.
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        self.take("i64").map(i64::from_be_bytes)
    }

    /// Reads an IEEE-754 `f64`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if fewer than eight bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        self.take("f64")
            .map(|raw| f64::from_bits(u64::from_be_bytes(raw)))
    }

    /// Reads a boolean byte.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if the frame is exhausted or the byte is not
    /// `0`/`1`.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::new("bool")),
        }
    }

    /// Consumes a length prefix and the `len` bytes it announces,
    /// returning where they start.
    fn prefixed(&mut self) -> Result<usize, DecodeError> {
        let len = self.get_u32()? as usize;
        self.need(len, "bytes payload")?;
        let start = self.pos;
        self.pos += len;
        Ok(start)
    }

    /// Reads a length-prefixed byte string: a view into the frame, not a
    /// copy.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if the prefix or payload is truncated.
    pub fn get_bytes(&mut self) -> Result<Bytes, DecodeError> {
        let start = self.prefixed()?;
        Ok(self.buf.slice(start..self.pos))
    }

    /// Reads a length-prefixed UTF-8 string into an owned `String`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        self.get_str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string in place, borrowing it from
    /// the frame.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation or invalid UTF-8.
    pub fn get_str_ref(&mut self) -> Result<&str, DecodeError> {
        let start = self.prefixed()?;
        utf8(&self.buf[start..self.pos])
    }

    /// Reads a nested frame written with [`Writer::put_frame_with`].
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation.
    pub fn get_frame(&mut self) -> Result<Bytes, DecodeError> {
        self.get_bytes()
    }

    /// Reads exactly `len` raw bytes (no length prefix), as a view.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation.
    pub fn get_bytes_raw(&mut self, len: usize) -> Result<Bytes, DecodeError> {
        self.need(len, "raw bytes")?;
        let start = self.pos;
        self.pos += len;
        Ok(self.buf.slice(start..self.pos))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole frame has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        w.put_u8(7)
            .put_u16(512)
            .put_u32(70_000)
            .put_u64(1 << 40)
            .put_i64(-12345)
            .put_f64(3.25)
            .put_bool(true)
            .put_bool(false);
        let mut r = Reader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 512);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i64().unwrap(), -12345);
        assert_eq!(r.get_f64().unwrap(), 3.25);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert!(r.is_empty());
    }

    #[test]
    fn round_trip_strings_and_frames() {
        let mut w = Writer::new();
        w.put_str("outer")
            .put_frame_with(|w| {
                w.put_str("nested");
            })
            .put_bytes(&[1, 2, 3]);
        let mut r = Reader::new(w.finish());
        assert_eq!(r.get_str().unwrap(), "outer");
        let mut nested = Reader::new(r.get_frame().unwrap());
        assert_eq!(nested.get_str().unwrap(), "nested");
        assert_eq!(&r.get_bytes().unwrap()[..], &[1, 2, 3]);
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut w = Writer::new();
        w.put_u64(9);
        let frame = w.finish().slice(0..4);
        let mut r = Reader::new(frame);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn truncated_string_payload_is_an_error() {
        let mut w = Writer::new();
        w.put_str("hello world");
        let frame = w.finish().slice(0..6);
        let mut r = Reader::new(frame);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn invalid_bool_is_an_error() {
        let mut w = Writer::new();
        w.put_u8(3);
        let mut r = Reader::new(w.finish());
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let mut r = Reader::new(w.finish());
        assert!(r.get_str().is_err());
    }

    #[test]
    fn error_displays_context() {
        let e = DecodeError::new("u64");
        assert_eq!(e.to_string(), "malformed wire frame: u64");
    }

    #[test]
    fn frame_round_trip() {
        let payload = Bytes::from_static(b"SELECT * FROM quote");
        let framed = frame(protocol::JDBC, 42, &payload);
        assert_eq!(framed.len(), 32 + payload.len());
        let (header, body) = unframe(framed).unwrap();
        assert_eq!(header.protocol, protocol::JDBC);
        assert_eq!(header.correlation, 42);
        assert_eq!(header.trace_id, 0, "plain frame carries no trace");
        assert_eq!(body, payload);
    }

    #[test]
    fn traced_frame_carries_trace_id_without_growing() {
        let payload = Bytes::from_static(b"commit");
        let framed = frame_traced(protocol::BACKEND, 9, 0xDEAD_BEEF, &payload);
        assert_eq!(framed.len(), 32 + payload.len(), "token slot is in-band");
        let (header, body) = unframe(framed).unwrap();
        assert_eq!(header.trace_id, 0xDEAD_BEEF);
        assert_eq!(header.correlation, 9);
        assert_eq!(body, payload);
    }

    #[test]
    fn frame_detects_corruption() {
        let payload = Bytes::from_static(b"data");
        let framed = frame(protocol::BACKEND, 1, &payload);
        // flip a payload byte
        let mut bad = framed.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(unframe(Bytes::from(bad)).is_err());
        // bad magic
        let mut bad = framed.to_vec();
        bad[0] = 0;
        assert!(unframe(Bytes::from(bad)).is_err());
        // truncated
        assert!(unframe(framed.slice(0..10)).is_err());
    }

    /// The byte-serial definition the four-byte stride must reproduce.
    fn reference_checksum(payload: &[u8]) -> u32 {
        payload
            .iter()
            .fold(0u32, |acc, b| acc.wrapping_mul(31).wrapping_add(*b as u32))
    }

    #[test]
    fn strided_checksum_equals_the_byte_serial_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        };
        let lengths = (0..=67).chain([1024, 1027, 4093, 4096, 8191]);
        for len in lengths {
            for _ in 0..8 {
                let payload: Vec<u8> = (0..len).map(|_| next()).collect();
                assert_eq!(
                    checksum(&payload),
                    reference_checksum(&payload),
                    "length {len}"
                );
            }
        }
        let saturated = vec![0xFF; 4099];
        assert_eq!(checksum(&saturated), reference_checksum(&saturated));
    }

    #[test]
    fn framed_writer_matches_frame_traced() {
        for len in [0usize, 1, 5, 300] {
            let body: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut plain = Writer::new();
            plain.put_bytes(&body).put_u64(9);
            let mut framed = Writer::framed();
            assert!(framed.is_empty());
            framed.put_bytes(&body).put_u64(9);
            assert_eq!(framed.len(), plain.len());
            let expected = frame_traced(protocol::BACKEND, 3, 0xFEED, &plain.finish());
            assert_eq!(framed.finish_frame(protocol::BACKEND, 3, 0xFEED), expected);
        }
    }

    #[test]
    fn kept_frames_match_sent_frames() {
        let fill = |w: &mut Writer| {
            for i in 0..50u64 {
                w.put_u64(i).put_str("record");
            }
        };
        let mut sent = Writer::new();
        fill(&mut sent);
        let mut kept = Writer::new();
        fill(&mut kept);
        assert_eq!(kept.finish_exact(), sent.finish());
    }

    #[test]
    #[should_panic(expected = "a framed writer ends with finish_frame")]
    fn framed_writer_cannot_finish_unframed() {
        Writer::framed().finish();
    }

    #[test]
    fn nested_frames_written_in_place_are_length_prefixed() {
        let mut inner = Writer::new();
        inner.put_str("nested").put_u32(7);
        let mut copied = Writer::new();
        copied.put_u8(1).put_bytes(&inner.finish()).put_u8(2);
        let mut in_place = Writer::new();
        in_place
            .put_u8(1)
            .put_frame_with(|w| {
                w.put_str("nested").put_u32(7);
            })
            .put_u8(2);
        assert_eq!(in_place.finish(), copied.finish());
    }

    #[test]
    fn string_parts_encode_as_one_string() {
        let mut parts = Writer::new();
        parts.put_str_parts(&["com.example.", "Account", "Memento"]);
        let mut whole = Writer::new();
        whole.put_str("com.example.AccountMemento");
        assert_eq!(parts.finish(), whole.finish());
    }

    #[test]
    fn borrowed_strings_read_in_place() {
        let mut w = Writer::new();
        w.put_str("SELECT 1").put_str("").put_bytes(&[0xC3]);
        let mut r = Reader::new(w.finish());
        assert_eq!(r.get_str_ref().unwrap(), "SELECT 1");
        assert_eq!(r.get_str_ref().unwrap(), "");
        assert!(r.get_str_ref().is_err(), "a truncated UTF-8 sequence");
        assert!(r.is_empty());
    }

    #[test]
    fn writer_len_tracks_bytes() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.put_str("abc");
        assert_eq!(w.len(), 4 + 3);
    }
}
