//! The binary wire protocol of the TCP front end.
//!
//! Length-prefixed frames, everything little-endian, hand-rolled because
//! the workspace carries no serialization dependency:
//!
//! ```text
//! frame    := u32 len | payload[len]
//! request  := u8 tag=0x01 | u16 name_len | name bytes (utf-8)
//!             | u64 deadline_us | u32 n | f32[n] input
//! response := u8 tag=0x81 | u64 request_id | u64 latency_us
//!             | u32 worker | u32 retries
//!             | u64 queue_wait_us | u64 service_us | u64 npu_cycles
//!             | u64 npu_macs | u64 dep_stall_cycles
//!             | u64 resource_stall_cycles | u64 network_us
//!             | u32 n | f32[n] output
//! error    := u8 tag=0xEE | u16 msg_len | msg bytes (utf-8)
//! sla error := u8 tag=0xEF | u16 model_len | model bytes (utf-8)
//!             | u64 bound_us | u64 budget_us
//! prometheus request  := u8 tag=0x03
//! prometheus response := u8 tag=0x83 | u32 text_len | text bytes (utf-8)
//! ```
//!
//! Prometheus text is the only metrics format; tags `0x02` and `0x82`,
//! once a JSON pair, are unknown tags. A `u16`-length string holds at most
//! 65,535 bytes: an error or SLA response cuts a longer one on a char
//! boundary, and a request naming a longer model cannot be encoded (a cut
//! name could name another model).
//!
//! Frames are capped at `MAX_FRAME` bytes; oversized or malformed
//! frames terminate the connection with a decode error.

use std::io::{Read, Write};

/// Hard cap on one frame's payload (16 MiB) — a malformed length prefix
/// must not allocate unboundedly.
const MAX_FRAME: usize = 16 << 20;

/// What [`read_frame`] reserves before a frame's payload arrives.
const READ_RESERVE: usize = 64 << 10;

/// The longest string a `u16` length prefix carries, in bytes.
pub(crate) const MAX_STR: usize = u16::MAX as usize;

/// Frame tags.
const TAG_INFER: u8 = 0x01;
/// Prometheus exposition request tag.
const TAG_PROM: u8 = 0x03;
/// Inference response tag.
const TAG_RESPONSE: u8 = 0x81;
/// Prometheus exposition response tag.
const TAG_PROM_RESPONSE: u8 = 0x83;
/// Error response tag.
const TAG_ERROR: u8 = 0xEE;
/// Typed SLA-rejection response tag: the request's deadline budget is
/// below the model's static cycle lower bound.
const TAG_SLA_ERROR: u8 = 0xEF;

/// A decoded client→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum WireRequest {
    /// Run one inference.
    Infer {
        /// Registered model name.
        model: String,
        /// End-to-end deadline in microseconds.
        deadline_us: u64,
        /// The input vector.
        input: Vec<f32>,
    },
    /// Fetch the metrics as a Prometheus text exposition.
    Prometheus,
}

/// A decoded server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum WireResponse {
    /// A completed inference.
    Infer {
        /// Server-assigned request id.
        request_id: u64,
        /// End-to-end latency in microseconds.
        latency_us: u64,
        /// Worker that served the final attempt.
        worker: u32,
        /// Failover retries used.
        retries: u32,
        /// Queue wait of the winning attempt in microseconds.
        queue_wait_us: u64,
        /// NPU service time of the winning attempt in microseconds.
        service_us: u64,
        /// Attributed simulated NPU cycles.
        npu_cycles: u64,
        /// Attributed MVM multiply-accumulates.
        npu_macs: u64,
        /// Attributed dependency-stall cycles.
        dep_stall_cycles: u64,
        /// Attributed resource-stall cycles.
        resource_stall_cycles: u64,
        /// Modeled network transfer time in microseconds (zero on an
        /// ideal network).
        network_us: u64,
        /// The output vector.
        output: Vec<f32>,
    },
    /// The metrics as a Prometheus text exposition.
    Prometheus(String),
    /// The request failed; the message is the `ServeError` rendering.
    Error(String),
    /// The request was refused pre-admission because its deadline budget
    /// is provably unmeetable: the model's static cycle lower bound
    /// already exceeds it. Typed (unlike [`WireResponse::Error`]) so
    /// clients can react — raise the deadline, or route elsewhere —
    /// without parsing a message string.
    SlaUnmeetable {
        /// The model requested.
        model: String,
        /// The static lower bound on one inference, in microseconds.
        bound_us: u64,
        /// The deadline budget the request allowed, in microseconds.
        budget_us: u64,
    },
}

/// A framing or decoding failure. Terminal for the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds the frame-size cap (`MAX_FRAME`).
    FrameTooLarge(usize),
    /// The payload ended before the advertised structure did, carries a
    /// short description of what was being read.
    Truncated(&'static str),
    /// Unknown frame tag.
    BadTag(u8),
    /// A name or message was not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
            WireError::Truncated(what) => write!(f, "frame truncated while reading {what}"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// A little-endian payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(WireError::Truncated(what)),
        }
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn string(&mut self, len: usize, what: &'static str) -> Result<String, WireError> {
        let b = self.take(len, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn f32s(&mut self, n: usize, what: &'static str) -> Result<Vec<f32>, WireError> {
        let b = self.take(n.checked_mul(4).ok_or(WireError::Truncated(what))?, what)?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn done(&self, what: &'static str) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            // Trailing bytes mean the sender and receiver disagree about
            // the schema; treat it as a framing error, not silence.
            Err(WireError::Truncated(what))
        }
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Writes `s` with a `u16` length, cut to the longest prefix of at most
/// [`MAX_STR`] bytes that ends on a char boundary.
fn put_str16(buf: &mut Vec<u8>, s: &str) {
    let s = &s[..s.floor_char_boundary(MAX_STR)];
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
    for v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

impl WireRequest {
    /// Encodes the payload (no length prefix).
    ///
    /// # Panics
    ///
    /// If an `Infer` model name is longer than 65,535 bytes, which its
    /// `u16` length cannot carry whole.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WireRequest::Infer {
                model,
                deadline_us,
                input,
            } => {
                assert!(
                    model.len() <= MAX_STR,
                    "a model name of {} bytes does not fit a frame",
                    model.len()
                );
                let mut buf = Vec::with_capacity(1 + 2 + model.len() + 8 + 4 + input.len() * 4);
                buf.push(TAG_INFER);
                put_str16(&mut buf, model);
                put_u64(&mut buf, *deadline_us);
                put_u32(&mut buf, input.len() as u32);
                put_f32s(&mut buf, input);
                buf
            }
            WireRequest::Prometheus => vec![TAG_PROM],
        }
    }

    /// Decodes a payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, bad tags, or bad UTF-8.
    pub fn decode(payload: &[u8]) -> Result<WireRequest, WireError> {
        let mut c = Cursor::new(payload);
        match c.u8("tag")? {
            TAG_INFER => {
                let name_len = c.u16("model name length")? as usize;
                let model = c.string(name_len, "model name")?;
                let deadline_us = c.u64("deadline")?;
                let n = c.u32("input length")? as usize;
                let input = c.f32s(n, "input")?;
                c.done("infer request")?;
                Ok(WireRequest::Infer {
                    model,
                    deadline_us,
                    input,
                })
            }
            TAG_PROM => {
                c.done("prometheus request")?;
                Ok(WireRequest::Prometheus)
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl WireResponse {
    /// Encodes the payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WireResponse::Infer {
                request_id,
                latency_us,
                worker,
                retries,
                queue_wait_us,
                service_us,
                npu_cycles,
                npu_macs,
                dep_stall_cycles,
                resource_stall_cycles,
                network_us,
                output,
            } => {
                let mut buf = Vec::with_capacity(1 + 8 * 9 + 4 + 4 + 4 + output.len() * 4);
                buf.push(TAG_RESPONSE);
                put_u64(&mut buf, *request_id);
                put_u64(&mut buf, *latency_us);
                put_u32(&mut buf, *worker);
                put_u32(&mut buf, *retries);
                put_u64(&mut buf, *queue_wait_us);
                put_u64(&mut buf, *service_us);
                put_u64(&mut buf, *npu_cycles);
                put_u64(&mut buf, *npu_macs);
                put_u64(&mut buf, *dep_stall_cycles);
                put_u64(&mut buf, *resource_stall_cycles);
                put_u64(&mut buf, *network_us);
                put_u32(&mut buf, output.len() as u32);
                put_f32s(&mut buf, output);
                buf
            }
            WireResponse::Prometheus(text) => {
                let mut buf = Vec::with_capacity(1 + 4 + text.len());
                buf.push(TAG_PROM_RESPONSE);
                put_u32(&mut buf, text.len() as u32);
                buf.extend_from_slice(text.as_bytes());
                buf
            }
            WireResponse::Error(msg) => {
                let mut buf = Vec::with_capacity(1 + 2 + msg.len());
                buf.push(TAG_ERROR);
                put_str16(&mut buf, msg);
                buf
            }
            WireResponse::SlaUnmeetable {
                model,
                bound_us,
                budget_us,
            } => {
                let mut buf = Vec::with_capacity(1 + 2 + model.len() + 8 + 8);
                buf.push(TAG_SLA_ERROR);
                put_str16(&mut buf, model);
                put_u64(&mut buf, *bound_us);
                put_u64(&mut buf, *budget_us);
                buf
            }
        }
    }

    /// Decodes a payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, bad tags, or bad UTF-8.
    pub fn decode(payload: &[u8]) -> Result<WireResponse, WireError> {
        let mut c = Cursor::new(payload);
        match c.u8("tag")? {
            TAG_RESPONSE => {
                let request_id = c.u64("request id")?;
                let latency_us = c.u64("latency")?;
                let worker = c.u32("worker")?;
                let retries = c.u32("retries")?;
                let queue_wait_us = c.u64("queue wait")?;
                let service_us = c.u64("service time")?;
                let npu_cycles = c.u64("npu cycles")?;
                let npu_macs = c.u64("npu macs")?;
                let dep_stall_cycles = c.u64("dep stall cycles")?;
                let resource_stall_cycles = c.u64("resource stall cycles")?;
                let network_us = c.u64("network us")?;
                let n = c.u32("output length")? as usize;
                let output = c.f32s(n, "output")?;
                c.done("infer response")?;
                Ok(WireResponse::Infer {
                    request_id,
                    latency_us,
                    worker,
                    retries,
                    queue_wait_us,
                    service_us,
                    npu_cycles,
                    npu_macs,
                    dep_stall_cycles,
                    resource_stall_cycles,
                    network_us,
                    output,
                })
            }
            TAG_PROM_RESPONSE => {
                let len = c.u32("prometheus text length")? as usize;
                let text = c.string(len, "prometheus text")?;
                c.done("prometheus response")?;
                Ok(WireResponse::Prometheus(text))
            }
            TAG_ERROR => {
                let len = c.u16("error length")? as usize;
                let msg = c.string(len, "error message")?;
                c.done("error response")?;
                Ok(WireResponse::Error(msg))
            }
            TAG_SLA_ERROR => {
                let len = c.u16("model name length")? as usize;
                let model = c.string(len, "model name")?;
                let bound_us = c.u64("bound us")?;
                let budget_us = c.u64("budget us")?;
                c.done("sla error response")?;
                Ok(WireResponse::SlaUnmeetable {
                    model,
                    bound_us,
                    budget_us,
                })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors from the stream.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF at a
/// frame boundary.
///
/// # Errors
///
/// Propagates I/O errors; an oversized length prefix surfaces as
/// `InvalidData`.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // EOF before any length byte is a clean close; mid-prefix EOF is not.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::FrameTooLarge(len).to_string(),
        ));
    }
    // The prefix is the peer's claim, not its bytes: reserve at most
    // `READ_RESERVE` up front and grow with what actually arrives.
    let mut payload = Vec::with_capacity(len.min(READ_RESERVE));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "eof inside frame payload",
        ));
    }
    Ok(Some(payload))
}

/// Tries to split one complete length-prefixed frame off the front of an
/// accumulation buffer, for nonblocking readers that receive bytes in
/// arbitrary chunks. Returns `Ok(None)` when the buffer does not yet hold
/// a full frame; the caller appends more bytes and retries.
///
/// # Errors
///
/// Returns [`WireError::FrameTooLarge`] when the length prefix exceeds
/// the 16 MiB frame-size cap (`MAX_FRAME`) — the connection must be closed,
/// since the byte stream can no longer be re-synchronised.
pub fn try_extract_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let payload = buf[4..4 + len].to_vec();
    buf.drain(..4 + len);
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = WireRequest::Infer {
            model: "mlp".into(),
            deadline_us: 250_000,
            input: vec![0.5, -1.25, 3.0],
        };
        assert_eq!(WireRequest::decode(&req.encode()).unwrap(), req);
        // The longest name round-trips; one byte more is refused, never
        // cut into another model's name.
        let named = |len| WireRequest::Infer {
            model: "m".repeat(len),
            deadline_us: 1,
            input: vec![1.0],
        };
        let longest = named(MAX_STR);
        assert_eq!(WireRequest::decode(&longest.encode()).unwrap(), longest);
        let encoded = std::panic::catch_unwind(|| named(70_000).encode());
        assert!(encoded.is_err(), "a 70,000-byte name encoded");
        assert_eq!(
            WireRequest::decode(&WireRequest::Prometheus.encode()).unwrap(),
            WireRequest::Prometheus
        );
    }

    #[test]
    fn response_round_trip() {
        let resp = WireResponse::Infer {
            request_id: 42,
            latency_us: 1234,
            worker: 1,
            retries: 0,
            queue_wait_us: 17,
            service_us: 950,
            npu_cycles: 120_000,
            npu_macs: 4_000_000,
            dep_stall_cycles: 900,
            resource_stall_cycles: 30,
            network_us: 120,
            output: vec![1.0, 2.0],
        };
        assert_eq!(WireResponse::decode(&resp.encode()).unwrap(), resp);
        let err = WireResponse::Error("model `x` is not registered".into());
        assert_eq!(WireResponse::decode(&err.encode()).unwrap(), err);
        let sla = WireResponse::SlaUnmeetable {
            model: "lstm".into(),
            bound_us: 900,
            budget_us: 250,
        };
        assert_eq!(WireResponse::decode(&sla.encode()).unwrap(), sla);
        // An over-long string is cut on a char boundary: the two-byte `é`
        // straddling byte 65,535 is dropped whole.
        let long = "x".repeat(MAX_STR - 1) + "é";
        let cut = "x".repeat(MAX_STR - 1);
        let err = WireResponse::Error(long.clone());
        let want = WireResponse::Error(cut.clone());
        assert_eq!(WireResponse::decode(&err.encode()), Ok(want));
        let sla = |model| WireResponse::SlaUnmeetable {
            model,
            bound_us: 900,
            budget_us: 250,
        };
        assert_eq!(WireResponse::decode(&sla(long).encode()), Ok(sla(cut)));
        let p = WireResponse::Prometheus("# TYPE bw_worker_alive gauge\n".into());
        assert_eq!(WireResponse::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn truncation_and_bad_tags_are_rejected() {
        let mut buf = WireRequest::Infer {
            model: "m".into(),
            deadline_us: 1,
            input: vec![1.0; 4],
        }
        .encode();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            WireRequest::decode(&buf),
            Err(WireError::Truncated(_))
        ));
        // 0x02 and 0x82 were the retired JSON metrics pair.
        for tag in [0x7F, 0x02] {
            assert_eq!(WireRequest::decode(&[tag]), Err(WireError::BadTag(tag)));
        }
        let json = [0x82, 2, 0, 0, 0, b'{', b'}'];
        assert_eq!(WireResponse::decode(&json), Err(WireError::BadTag(0x82)));
        // Trailing garbage is a schema disagreement, not ignorable.
        let mut ok = WireRequest::Prometheus.encode();
        ok.push(0);
        assert!(WireRequest::decode(&ok).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frames_are_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn incremental_extraction_handles_arbitrary_chunking() {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"alpha").unwrap();
        write_frame(&mut framed, b"").unwrap();
        write_frame(&mut framed, b"omega").unwrap();
        // Feed one byte at a time; frames must pop out exactly at their
        // boundaries and never early.
        let mut acc = Vec::new();
        let mut out = Vec::new();
        for &b in &framed {
            acc.push(b);
            while let Some(p) = try_extract_frame(&mut acc).unwrap() {
                out.push(p);
            }
        }
        assert_eq!(out, vec![b"alpha".to_vec(), Vec::new(), b"omega".to_vec()]);
        assert!(acc.is_empty());
    }

    #[test]
    fn incremental_extraction_refuses_oversized_prefix() {
        let mut acc = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        assert_eq!(
            try_extract_frame(&mut acc),
            Err(WireError::FrameTooLarge(MAX_FRAME + 1))
        );
    }
}
