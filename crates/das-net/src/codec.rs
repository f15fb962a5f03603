//! Frame I/O over byte streams, plus the byte-counting stream wrapper
//! that backs the per-class traffic accounting.
//!
//! Frame layout (12-byte header, all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic "DASN"
//!      4     1  protocol version (1)
//!      5     1  opcode
//!      6     2  flags (bit 0: CRC32 trailer; bit 1: trace id;
//!               bit 2: deadline budget; rest 0)
//!      8     4  payload length
//!     12     8  trace id (only when flag bit 1 is set)
//!      …     4  deadline budget in ms (only when flag bit 2 is set)
//!      …     n  payload (see proto module)
//!      …     4  CRC32 of header[+trace][+budget]+payload (flag bit 0)
//! ```
//!
//! Every frame carries the CRC trailer: a reader refuses a frame whose
//! header lacks flag bit 0 before reading past the header, so no frame
//! is ever taken unchecked. The checksum covers the *header as well
//! as* the payload, so a flipped opcode or length byte is caught, not
//! just corrupted payload bytes.
//!
//! The optional 8-byte **trace id** (little-endian, between header
//! and payload; *not* counted by the payload-length field) correlates
//! every hop of one logical request across the cluster. A sender
//! attaches it per frame, only to a traced request or its reply.
//!
//! The optional 4-byte **deadline budget** (little-endian
//! milliseconds, after the trace id when both are present; also not
//! counted by the payload-length field) is how much wall time the
//! sender is still willing to wait for this request. A server sheds
//! the request with a typed `Overloaded` error instead of running it
//! once the budget has expired, and forwards the *remaining* budget
//! on any dependence fetch it issues on the request's behalf.

use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;
use std::time::Instant;

use crate::proto::{DecodeError, ErrorCode, Message, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};

/// Frame-header flag bit 0: a 4-byte CRC32 trailer follows the
/// payload, covering the header and payload bytes. Set on every frame;
/// a frame without it is refused.
pub const FLAG_CRC: u16 = 0x0001;

/// Length of the CRC32 trailer every frame ends with.
const CRC_LEN: usize = 4;

/// Frame-header flag bit 1: an 8-byte little-endian trace id sits
/// between the header and the payload (and is covered by the CRC
/// trailer).
pub const FLAG_TRACE: u16 = 0x0002;

/// Frame-header flag bit 2: a 4-byte little-endian deadline budget
/// (milliseconds) sits between the trace id (when present) and the
/// payload, covered by the CRC trailer.
pub const FLAG_DEADLINE: u16 = 0x0004;

/// Every assigned frame-flag bit. A frame setting any other bit is
/// rejected before its payload is read.
pub const KNOWN_FLAGS: u16 = FLAG_CRC | FLAG_TRACE | FLAG_DEADLINE;

/// Consecutive mid-frame read timeouts tolerated before the reader
/// gives up and surfaces a typed timeout error. A peer that started a
/// frame and then went silent must not hang the reader forever — the
/// connection is torn down and redialed instead.
const MIDFRAME_TIMEOUT_BUDGET: u32 = 8;

/// The IEEE 802.3 polynomial, reflected.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC_TABLES[k][b]` is the checksum state after byte `b`
/// followed by `k` zero bytes — so sixteen lookups, one per table,
/// advance the state over sixteen input bytes at once. 16 KiB,
/// L1-resident.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC32 (IEEE 802.3) over `chunks`, in order. Each chunk is taken in
/// whole 16-byte blocks and its remainder byte-wise, so the running
/// state carries across chunk boundaries wherever they fall.
pub fn crc32(chunks: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    for chunk in chunks {
        let mut blocks = chunk.chunks_exact(16);
        for b in &mut blocks {
            let s = c.to_le_bytes();
            c = t[15][usize::from(b[0] ^ s[0])]
                ^ t[14][usize::from(b[1] ^ s[1])]
                ^ t[13][usize::from(b[2] ^ s[2])]
                ^ t[12][usize::from(b[3] ^ s[3])]
                ^ t[11][usize::from(b[4])]
                ^ t[10][usize::from(b[5])]
                ^ t[9][usize::from(b[6])]
                ^ t[8][usize::from(b[7])]
                ^ t[7][usize::from(b[8])]
                ^ t[6][usize::from(b[9])]
                ^ t[5][usize::from(b[10])]
                ^ t[4][usize::from(b[11])]
                ^ t[3][usize::from(b[12])]
                ^ t[2][usize::from(b[13])]
                ^ t[1][usize::from(b[14])]
                ^ t[0][usize::from(b[15])];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// `X2N[k]` = x^(2^k) mod P in the reflected representation (bit 31
/// is x^0): the powers [`crc32_combine`] assembles x^n from.
static X2N: [u32; 32] = x2n_table();

const fn x2n_table() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    table
}

/// a(x) · b(x) mod P over GF(2), reflected: at most 32 shift-and-add
/// steps.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0u32;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ CRC_POLY } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// The checksum of `a ⧺ b` from `sum_a = crc32(a)`, `sum_b = crc32(b)`
/// and `len_b = b.len()`, without reading either: appending `len_b`
/// bytes multiplies `a`'s remainder by x^(8·len_b) mod P, and the
/// remainders of the two halves then add. One multiply per set bit of
/// `len_b` — one for a power-of-two strip — and no allocation.
pub fn crc32_combine(sum_a: u32, sum_b: u32, len_b: usize) -> u32 {
    let mut shift = 1u32 << 31; // x^0
    let (mut n, mut k) = (len_b, 3); // x^(8·len_b): start at 2^3
    while n != 0 {
        if n & 1 != 0 {
            shift = mul_mod_p(X2N[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    mul_mod_p(shift, sum_a) ^ sum_b
}

/// The checksum of blobs laid end to end, from each one's [`crc32`] and
/// length in order, without reading any: [`crc32_combine`] folded.
/// `None` for no blobs.
pub fn crc32_concat(parts: impl IntoIterator<Item = (u32, usize)>) -> Option<u32> {
    let mut parts = parts.into_iter();
    let (first, _) = parts.next()?;
    Some(parts.fold(first, |sum, (next, len)| crc32_combine(sum, next, len)))
}

/// Anything that can go wrong talking to a peer.
#[derive(Debug)]
pub enum NetError {
    /// Transport-level failure.
    Io(io::Error),
    /// The byte stream violated the framing or encoding rules.
    Protocol(String),
    /// The remote replied with a typed [`Message::Error`].
    Remote {
        /// Error code sent by the peer.
        code: ErrorCode,
        /// Detail message sent by the peer.
        message: String,
    },
    /// The remote replied with a message the caller did not expect.
    Unexpected {
        /// Opcode of the surprising reply.
        opcode: u8,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Remote { code, message } => {
                write!(f, "remote error {code:?}: {message}")
            }
            NetError::Unexpected { opcode } => {
                write!(f, "unexpected reply opcode 0x{opcode:02x}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl NetError {
    /// Transport-level failure: the connection is in an unknown or
    /// dead state and must be discarded before any retry.
    pub fn is_transport(&self) -> bool {
        matches!(self, NetError::Io(_) | NetError::Protocol(_))
    }

    /// Whether retrying the same request (possibly over a fresh
    /// connection) may succeed: any transport failure, or a typed
    /// [`ErrorCode::Retryable`] from the remote.
    pub fn is_transient(&self) -> bool {
        match self {
            NetError::Remote { code, .. } => code.is_transient(),
            NetError::Io(_) | NetError::Protocol(_) => true,
            NetError::Unexpected { .. } => false,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<DecodeError> for NetError {
    fn from(e: DecodeError) -> Self {
        NetError::Protocol(e.to_string())
    }
}

/// `msg` as one contiguous frame — [`frame_parts_opts`] concatenated,
/// for callers (fault injection, tests, the analyzer) that slice or
/// corrupt a frame as bytes. Senders write the segments instead.
pub fn encode_frame_opts(msg: &Message, trace: Option<u64>, budget_ms: Option<u32>) -> Vec<u8> {
    frame_parts_opts(msg, trace, budget_ms).to_vec()
}

/// One frame split into scatter/gather segments: a small owned `head`
/// (header, optional trace id, payload prefix), a borrowed `body`
/// (the bulk blob bytes — a strip payload or metrics text), and the
/// 4-byte CRC trailer. `head ⧺ body ⧺ tail` is the frame, but
/// building one never copies the body: the CRC is computed chunk-wise
/// and the writer hands the segments to `write_vectored`.
#[derive(Debug)]
pub struct FrameParts<'a> {
    /// Frame header + optional trace id + payload prefix.
    pub head: Vec<u8>,
    /// Borrowed bulk payload bytes (empty for non-blob messages).
    pub body: &'a [u8],
    /// CRC32 trailer over `head ⧺ body`, little-endian.
    pub tail: [u8; CRC_LEN],
}

impl FrameParts<'_> {
    /// Total frame length in bytes.
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len() + self.tail.len()
    }

    /// A frame is never empty (the header alone is 12 bytes).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Concatenate the segments into one owned frame — the slow path
    /// for callers (fault injection) that need to slice or corrupt
    /// the frame as contiguous bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len());
        v.extend_from_slice(&self.head);
        v.extend_from_slice(self.body);
        v.extend_from_slice(&self.tail);
        v
    }
}

/// Build the scatter/gather segments of one frame, optionally carrying
/// a trace id and a deadline budget (milliseconds). The bulk payload
/// of blob-carrying messages is *borrowed* from the message
/// ([`Message::split_payload`]), so encoding a 4 MiB strip allocates
/// only the ~30-byte head.
pub fn frame_parts_opts(
    msg: &Message,
    trace: Option<u64>,
    budget_ms: Option<u32>,
) -> FrameParts<'_> {
    frame_parts_summed(msg, None, trace, budget_ms)
}

/// [`frame_parts_opts`] for a sender that already knows `blob_sum`, the
/// [`crc32`] of the message's blob alone: the trailer is then combined
/// from it and the blob is not read.
pub fn frame_parts_summed(
    msg: &Message,
    blob_sum: Option<u32>,
    trace: Option<u64>,
    budget_ms: Option<u32>,
) -> FrameParts<'_> {
    let (prefix, body) = msg.split_payload();
    raw_frame_parts(msg.opcode(), &prefix, body, blob_sum, trace, budget_ms)
}

/// Lay out one frame — the only code that writes a header — from an
/// already-split payload: `prefix` holds the fixed fields (copied into
/// the head), `body` the borrowed bulk bytes and `body_sum` their
/// [`crc32`] when the caller has it (without one the body is summed
/// here). This is the layer that lets a server reply with a strip
/// straight out of its store — the caller supplies the store's bytes
/// and the sum kept with them, and the frame is built and signed
/// without the body being copied or read.
pub fn raw_frame_parts<'a>(
    opcode: u8,
    prefix: &[u8],
    body: &'a [u8],
    body_sum: Option<u32>,
    trace: Option<u64>,
    budget_ms: Option<u32>,
) -> FrameParts<'a> {
    let head = frame_head(opcode, prefix, body.len(), trace, budget_ms);
    let crc = match body_sum {
        Some(sum) => crc32_combine(crc32(&[&head]), sum, body.len()),
        None => crc32(&[&head, body]),
    };
    FrameParts { head, body, tail: crc.to_le_bytes() }
}

/// The head and trailer of a frame whose blob is `body_len` bytes that
/// the caller holds apart — a run of stored strips, each in its own
/// segment — with `body_sum`, their [`crc32`] as one blob: the
/// [`raw_frame_parts`] of a body that is never gathered into one slice
/// nor read.
pub fn summed_frame_ends(
    opcode: u8,
    prefix: &[u8],
    body_len: usize,
    body_sum: u32,
    trace: Option<u64>,
) -> (Vec<u8>, [u8; CRC_LEN]) {
    let head = frame_head(opcode, prefix, body_len, trace, None);
    let crc = crc32_combine(crc32(&[&head]), body_sum, body_len);
    (head, crc.to_le_bytes())
}

/// The only code that writes a header: header, optional trace id and
/// budget, then the payload prefix, for a payload of `prefix` and a
/// `body_len`-byte blob.
fn frame_head(opcode: u8, prefix: &[u8], body_len: usize, trace: Option<u64>, budget_ms: Option<u32>) -> Vec<u8> {
    let payload_len = prefix.len() + body_len;
    assert!(payload_len <= MAX_PAYLOAD, "payload exceeds MAX_PAYLOAD");
    let flags = FLAG_CRC
        | if trace.is_some() { FLAG_TRACE } else { 0 }
        | if budget_ms.is_some() { FLAG_DEADLINE } else { 0 };
    let mut head = Vec::with_capacity(HEADER_LEN + 12 + prefix.len());
    head.extend_from_slice(&MAGIC);
    head.push(VERSION);
    head.push(opcode);
    head.extend_from_slice(&flags.to_le_bytes());
    head.extend_from_slice(&(payload_len as u32).to_le_bytes());
    if let Some(id) = trace {
        head.extend_from_slice(&id.to_le_bytes());
    }
    if let Some(ms) = budget_ms {
        head.extend_from_slice(&ms.to_le_bytes());
    }
    head.extend_from_slice(prefix);
    head
}

/// Most segments one `write_vectored` hands the kernel; a frame with
/// more goes out over several calls.
const MAX_IOV: usize = 16;

/// One `write_vectored` of whatever of `segments` lies past their
/// first `written` bytes — the skip-and-slice step under both frame
/// writers (the default `Write` implementation may accept only the
/// first buffer, and a socket may accept any prefix).
fn write_segments<'s, W: Write>(
    w: &mut W,
    segments: impl IntoIterator<Item = &'s [u8]>,
    written: usize,
) -> io::Result<usize> {
    let mut skip = written;
    let mut bufs = [IoSlice::new(&[]); MAX_IOV];
    let mut n_bufs = 0;
    for seg in segments {
        if skip >= seg.len() {
            skip -= seg.len();
            continue;
        }
        bufs[n_bufs] = IoSlice::new(&seg[skip..]);
        n_bufs += 1;
        skip = 0;
        if n_bufs == MAX_IOV {
            break;
        }
    }
    w.write_vectored(&bufs[..n_bufs])
}

/// Write `parts` onto `w` with `write_vectored`, resuming after short
/// writes until the whole frame is out. Flushes when done.
pub fn write_frame_vectored<W: Write>(w: &mut W, parts: &FrameParts<'_>) -> io::Result<()> {
    let mut written = 0usize;
    while written < parts.len() {
        match write_segments(w, [&parts.head[..], parts.body, &parts.tail], written) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Serialize `msg` with optional trace id and deadline budget onto
/// `w` and flush. Routes through the vectored writer, so blob payloads
/// (strips, metrics dumps) go to the socket without an intermediate
/// copy.
pub fn write_message_opts<W: Write>(
    w: &mut W,
    msg: &Message,
    trace: Option<u64>,
    budget_ms: Option<u32>,
) -> io::Result<()> {
    write_frame_vectored(w, &frame_parts_opts(msg, trace, budget_ms))
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Fill `buf` from `r`, tolerating up to `MIDFRAME_TIMEOUT_BUDGET`
/// consecutive read timeouts (the counter resets on progress). An EOF
/// surfaces as `Ok(read_so_far)`; exhausting the timeout budget is a
/// typed `TimedOut` error — a peer that goes silent mid-frame must
/// never hang the reader.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<usize, NetError> {
    let mut got = 0;
    let mut stalls = 0u32;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(got),
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls > MIDFRAME_TIMEOUT_BUDGET {
                    return Err(NetError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("peer stalled mid-{what} ({got} of {} bytes)", buf.len()),
                    )));
                }
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(got)
}

/// The fields that follow a frame's header, in wire order — what a cut
/// or stalled stream is reported to have been in the middle of.
const FIELD_NAMES: [&str; 4] = ["trace", "budget", "payload", "checksum"];

/// A validated frame header: the one place that checks a header and
/// derives the frame's size from it, under both readers.
struct FrameHeader {
    opcode: u8,
    /// Byte length of each of [`FIELD_NAMES`]; 0 for an absent one.
    fields: [usize; 4],
}

impl FrameHeader {
    /// Check magic, version and flag bits — [`FLAG_CRC`] set, no
    /// unassigned bit — and the wire length against [`MAX_PAYLOAD`]
    /// before anything is sized or indexed from it.
    fn parse(header: &[u8; HEADER_LEN]) -> Result<FrameHeader, NetError> {
        let [m0, m1, m2, m3, version, opcode, f0, f1, l0, l1, l2, l3] = *header;
        if [m0, m1, m2, m3] != MAGIC {
            return Err(NetError::Protocol("bad frame magic".into()));
        }
        if version != VERSION {
            return Err(NetError::Protocol(format!(
                "unsupported protocol version {version} (want {VERSION})"
            )));
        }
        let flags = u16::from_le_bytes([f0, f1]);
        if flags & !KNOWN_FLAGS != 0 {
            return Err(NetError::Protocol(format!("unknown flags 0x{flags:04x}")));
        }
        if flags & FLAG_CRC == 0 {
            return Err(NetError::Protocol(format!("frame without checksum (flags 0x{flags:04x})")));
        }
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if len > MAX_PAYLOAD {
            return Err(NetError::Protocol(format!(
                "payload length {len} exceeds cap {MAX_PAYLOAD}"
            )));
        }
        let trace_len = if flags & FLAG_TRACE != 0 { 8 } else { 0 };
        let budget_len = if flags & FLAG_DEADLINE != 0 { 4 } else { 0 };
        Ok(FrameHeader { opcode, fields: [trace_len, budget_len, len, CRC_LEN] })
    }

    /// Bytes of the frame after its header.
    fn rest_len(&self) -> usize {
        self.fields.iter().sum()
    }

    /// The field that byte `at` of the rest lies in: its name, how much
    /// of it precedes `at`, and its length.
    fn field_at(&self, mut at: usize) -> (&'static str, usize, usize) {
        let mut i = 0;
        while i < 3 && at >= self.fields[i] {
            at -= self.fields[i];
            i += 1;
        }
        (FIELD_NAMES[i], at, self.fields[i])
    }

    /// Verify and decode the frame whose header (`header`, the bytes
    /// `self` was parsed from) is followed by `rest`, exactly
    /// [`FrameHeader::rest_len`] bytes: optional fields, the payload,
    /// then the checksum, which is verified first.
    fn decode(&self, header: &[u8], rest: &[u8]) -> Result<Frame, NetError> {
        let parse_started = Instant::now();
        let (trace, rest) = rest.split_at(self.fields[0]);
        let (budget, rest) = rest.split_at(self.fields[1]);
        let (payload, trailer) = rest.split_at(self.fields[2]);
        let mut wanted = [0u8; CRC_LEN];
        wanted.copy_from_slice(trailer);
        let wanted = u32::from_le_bytes(wanted);
        let (actual, blob_sum) = frame_sums(self.opcode, [header, trace, budget], payload);
        if wanted != actual {
            return Err(NetError::Protocol(format!(
                "frame checksum mismatch: wire {wanted:#010x}, computed {actual:#010x}"
            )));
        }
        let msg = Message::decode(self.opcode, payload)?;
        Ok(Frame {
            msg,
            trace: <[u8; 8]>::try_from(trace).ok().map(u64::from_le_bytes),
            budget_ms: <[u8; 4]>::try_from(budget).ok().map(u32::from_le_bytes),
            blob_sum,
            decode_us: parse_started.elapsed().as_micros() as u64,
        })
    }
}

/// Most a reader commits to a frame on the strength of its header
/// alone; past this the buffer grows only with bytes received.
const PAYLOAD_PREALLOC: usize = 1 << 20;

/// Read what follows `header` on the wire under [`read_full`]'s rules
/// — bounded consecutive stalls, the counter reset by progress — but
/// into a buffer that grows as bytes arrive: a header claiming 64 MiB
/// costs its reader nothing until the peer actually sends them. A cut
/// or stalled stream is reported by the field it stopped in.
fn read_rest<R: Read>(r: &mut R, header: &FrameHeader) -> Result<Vec<u8>, NetError> {
    let len = header.rest_len();
    let mut rest = Vec::with_capacity(len.min(PAYLOAD_PREALLOC));
    let mut stalls = 0u32;
    while rest.len() < len {
        let had = rest.len();
        match r.by_ref().take((len - had) as u64).read_to_end(&mut rest) {
            Ok(_) if rest.len() < len => {
                let (field, ..) = header.field_at(rest.len());
                return Err(NetError::Protocol(format!("connection closed mid-{field}")));
            }
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                stalls = if rest.len() > had { 1 } else { stalls + 1 };
                if stalls > MIDFRAME_TIMEOUT_BUDGET {
                    let (field, got, of) = header.field_at(rest.len());
                    return Err(NetError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("peer stalled mid-{field} ({got} of {of} bytes)"),
                    )));
                }
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(rest)
}

/// The checksum a frame's trailer must carry — `fixed` is everything
/// before the payload (header, trace id, budget; absent ones empty) —
/// and, for a blob-carrying opcode, the blob's own sum: the fixed part
/// and the blob are summed apart and combined, which reads each byte
/// once, exactly as one pass over the whole would.
fn frame_sums(opcode: u8, fixed: [&[u8]; 3], payload: &[u8]) -> (u32, Option<u32>) {
    match Message::blob_offset(opcode).filter(|&at| at <= payload.len()) {
        Some(at) => {
            let (prefix, blob) = payload.split_at(at);
            let blob_sum = crc32(&[blob]);
            let fixed_sum = crc32(&[fixed[0], fixed[1], fixed[2], prefix]);
            (crc32_combine(fixed_sum, blob_sum, blob.len()), Some(blob_sum))
        }
        None => (crc32(&[fixed[0], fixed[1], fixed[2], payload]), None),
    }
}

/// One fully decoded frame: the message plus the optional per-request
/// metadata fields the sender attached.
#[derive(Debug)]
pub struct Frame {
    /// The decoded message.
    pub msg: Message,
    /// Trace id (`FLAG_TRACE`), when the sender attached one.
    pub trace: Option<u64>,
    /// Deadline budget in milliseconds (`FLAG_DEADLINE`), when the
    /// sender attached one.
    pub budget_ms: Option<u32>,
    /// [`crc32`] of the message's blob alone, for a blob-carrying
    /// frame: verifying the frame computes it, and a receiver that
    /// keeps the blob keeps this.
    pub blob_sum: Option<u32>,
    /// Microseconds of CPU spent validating and decoding the frame
    /// (checksum verification + payload parse), excluding any time
    /// blocked on the transport — the honest "decode" stage for span
    /// attribution.
    pub decode_us: u64,
}

/// Read exactly one frame from `r`, verify its checksum, and decode
/// it with the optional fields the sender attached. An EOF *before the
/// first header byte* surfaces as `Ok(None)` (clean connection close);
/// an EOF mid-frame is an error.
///
/// Sockets with a read timeout: a timeout while *waiting* for a frame
/// (no header byte read yet) surfaces as the I/O error so the caller
/// can poll a shutdown flag and retry; a timeout *mid-frame* retries
/// a bounded number of times (giving up there desynchronizes the
/// stream, so the caller must discard the connection — which every
/// caller in this crate does).
pub fn read_frame_ex<R: Read>(r: &mut R) -> Result<Option<Frame>, NetError> {
    let mut header = [0u8; HEADER_LEN];
    // The first read decides clean-close vs mid-frame cut, and a
    // timeout before any header byte belongs to the caller (shutdown
    // polling).
    let mut got = 0;
    while got == 0 {
        match r.read(&mut header) {
            Ok(0) => return Ok(None),
            Ok(n) => got = n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    if got + read_full(r, &mut header[got..], "header")? != HEADER_LEN {
        return Err(NetError::Protocol("connection closed mid-header".into()));
    }
    let parsed = FrameHeader::parse(&header)?;
    let rest = read_rest(r, &parsed)?;
    parsed.decode(&header, &rest).map(Some)
}

/// Owned scatter/gather write state for one frame on a nonblocking
/// socket: head (header + payload prefix), body (refcounted
/// [`bytes::Bytes`] segments — strips straight from the store, one
/// segment each), and CRC tail, with a cursor tracking how much the
/// socket has accepted so far. The event-loop engine keeps one per
/// queued reply and resumes the write whenever the socket turns
/// writable.
#[derive(Debug)]
pub struct IoVecCursor {
    head: Vec<u8>,
    body: Vec<bytes::Bytes>,
    body_len: usize,
    // The tail is at most a CRC32 — an inline array avoids a
    // per-reply heap allocation on the event-loop write path.
    tail: [u8; 4],
    tail_len: u8,
    written: usize,
}

impl IoVecCursor {
    /// Wrap one frame's segments; `body`/`tail` may be empty. `tail`
    /// is at most 4 bytes (a CRC32) and is copied inline — no
    /// allocation.
    pub fn new(head: Vec<u8>, body: Vec<bytes::Bytes>, tail: &[u8]) -> IoVecCursor {
        assert!(tail.len() <= 4, "frame tail exceeds CRC32 width");
        let mut t = [0u8; 4];
        t[..tail.len()].copy_from_slice(tail);
        let body_len = body.iter().map(|b| b.len()).sum();
        IoVecCursor { head, body, body_len, tail: t, tail_len: tail.len() as u8, written: 0 }
    }

    /// Total frame length in bytes.
    pub fn total(&self) -> usize {
        self.head.len() + self.body_len + self.tail_len as usize
    }

    /// Whether every byte has been accepted by the socket.
    pub fn is_done(&self) -> bool {
        self.written >= self.total()
    }

    /// Attempt one vectored write of the remaining segments.
    /// `Ok(0)` means the socket would block (or the frame is already
    /// done) — try again later; `Err` is fatal to the connection. A
    /// clean zero-length write from the peer surfaces as
    /// [`io::ErrorKind::WriteZero`].
    pub fn write_some<W: Write>(&mut self, w: &mut W) -> io::Result<usize> {
        if self.is_done() {
            return Ok(0);
        }
        let tail = &self.tail[..self.tail_len as usize];
        let body = self.body.iter().map(|b| &b[..]);
        let segments = std::iter::once(&self.head[..]).chain(body).chain(std::iter::once(tail));
        match write_segments(w, segments, self.written) {
            Ok(0) => Err(io::Error::new(io::ErrorKind::WriteZero, "peer stopped accepting bytes")),
            Ok(n) => {
                self.written += n;
                Ok(n)
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) => {
                Ok(0)
            }
            Err(e) => Err(e),
        }
    }
}

/// An incremental frame decoder for nonblocking readers: feed it
/// whatever bytes the socket produced with [`FrameBuffer::extend`],
/// then drain complete frames with [`FrameBuffer::next_frame_ex`]. It
/// checks and decodes with the same code as [`read_frame_ex`], so a
/// byte stream split at arbitrary boundaries reassembles bit-identically
/// to blocking reads.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append raw bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact once the consumed prefix dominates, so a long-lived
        // connection doesn't grow the buffer without bound.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        // das-lint: allow(DA804) ingress reassembly buffer — bytes arrive from the socket, not the store
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete frame, if the buffer holds one.
    /// `Ok(None)` means "need more bytes" and consumes nothing; errors
    /// are fatal to the connection (framing violations desynchronize
    /// the stream).
    pub fn next_frame_ex(&mut self) -> Result<Option<Frame>, NetError> {
        let Some((header, after)) = self.buf[self.pos..].split_first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let parsed = FrameHeader::parse(header)?;
        let Some(rest) = after.get(..parsed.rest_len()) else {
            return Ok(None);
        };
        let frame = parsed.decode(header, rest)?;
        self.pos += HEADER_LEN + parsed.rest_len();
        Ok(Some(frame))
    }
}

/// A `Read + Write` wrapper that counts every byte crossing it, in
/// both directions, into two [`das_obs::Gauge`]s. A fresh stream
/// counts into private gauges; [`CountingStream::count_into`] moves it
/// onto shared ones — a daemon's `dasd_wire_bytes{class,dir}` pair,
/// once the peer's [`Message::Hello`] fixes the traffic class — and
/// carries over what it had counted, so bytes that crossed before
/// classification are not lost.
pub struct CountingStream<S> {
    inner: S,
    bytes_in: Arc<das_obs::Gauge>,
    bytes_out: Arc<das_obs::Gauge>,
}

impl<S> CountingStream<S> {
    /// Wrap `inner`, counting into fresh private gauges.
    pub fn new(inner: S) -> Self {
        CountingStream { inner, bytes_in: Arc::default(), bytes_out: Arc::default() }
    }

    /// Count into `bytes_in` (received) and `bytes_out` (sent) from now
    /// on, adding to them what was counted so far.
    pub fn count_into(&mut self, bytes_in: Arc<das_obs::Gauge>, bytes_out: Arc<das_obs::Gauge>) {
        bytes_in.add(self.bytes_in.get());
        bytes_out.add(self.bytes_out.get());
        (self.bytes_in, self.bytes_out) = (bytes_in, bytes_out);
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

impl<S: Read> Read for CountingStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes_in.add(n as i64);
        Ok(n)
    }
}

impl<S: Write> Write for CountingStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes_out.add(n as i64);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let n = self.inner.write_vectored(bufs)?;
        self.bytes_out.add(n as i64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip_and_counting() {
        let msg = Message::PutStrip { file: 2, strip: 5, payload: vec![9; 100] };
        let (bytes_in, bytes_out) = (Arc::new(das_obs::Gauge::default()), Arc::new(das_obs::Gauge::default()));
        let mut sink = CountingStream::new(Cursor::new(Vec::new()));
        write_message_opts(&mut sink, &msg, None, None).unwrap();
        // Moved onto shared gauges after the write: the count comes along.
        sink.count_into(Arc::clone(&bytes_in), Arc::clone(&bytes_out));
        let written = bytes_out.get();
        let buf = sink.get_ref().get_ref().clone();
        assert_eq!(written as usize, buf.len());
        // Header + payload + 4-byte CRC trailer.
        assert_eq!(buf.len(), HEADER_LEN + msg.encode_payload().len() + 4);

        let mut src = CountingStream::new(Cursor::new(buf));
        src.count_into(Arc::clone(&bytes_in), Arc::clone(&bytes_out));
        let back = read_frame_ex(&mut src).unwrap().unwrap().msg;
        assert_eq!(back, msg);
        assert_eq!((bytes_in.get(), bytes_out.get()), (written, written));
        // Clean EOF after the frame.
        assert!(read_frame_ex(&mut src).unwrap().is_none());
    }

    #[test]
    fn corrupt_magic_is_a_protocol_error() {
        let msg = Message::Ping;
        let mut buf = Vec::new();
        write_message_opts(&mut buf, &msg, None, None).unwrap();
        buf[0] = b'X';
        match read_frame_ex(&mut Cursor::new(buf)) {
            Err(NetError::Protocol(m)) => assert!(m.contains("magic")),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let msg = Message::PutStrip { file: 1, strip: 2, payload: vec![7; 64] };
        let mut buf = encode_frame_opts(&msg, None, None);
        buf[HEADER_LEN + 20] ^= 0x40; // flip one payload bit
        match read_frame_ex(&mut Cursor::new(buf)) {
            Err(NetError::Protocol(m)) => assert!(m.contains("checksum"), "got {m:?}"),
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_opcode_fails_the_checksum() {
        // The CRC covers the header too: a flipped opcode must not
        // decode as a different (well-formed) message.
        let mut buf = encode_frame_opts(&Message::Ping, None, None);
        buf[5] ^= 0x01; // Ping (0x50) -> Pong (0x51), payloads identical
        assert!(read_frame_ex(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn crc_less_frames_are_refused() {
        // Flags 0, no trailer: a frame nothing checks is refused at its
        // header, through both readers.
        let msg = Message::GetStrip { file: 3, strip: 9 };
        let payload = msg.encode_payload();
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(msg.opcode());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        match read_frame_ex(&mut Cursor::new(&buf)) {
            Err(NetError::Protocol(m)) => assert!(m.contains("without checksum"), "{m}"),
            other => panic!("expected the typed refusal, got {other:?}"),
        }
        let mut fb = FrameBuffer::new();
        fb.extend(&buf);
        assert!(fb.next_frame_ex().is_err());
        // An unassigned flag bit is refused by the header check too,
        // alone or beside the checksum flag.
        for flag in (0..16).map(|bit| 1u16 << bit).filter(|flag| flag & KNOWN_FLAGS == 0) {
            for flags in [flag, flag | FLAG_CRC] {
                buf[6..8].copy_from_slice(&flags.to_le_bytes());
                assert!(read_frame_ex(&mut Cursor::new(&buf)).is_err(), "flags 0x{flags:04x} accepted");
            }
        }
    }

    #[test]
    fn traced_frames_roundtrip_and_untraced_ones_report_no_trace() {
        let msg = Message::GetStrip { file: 3, strip: 9 };
        let frame = encode_frame_opts(&msg, Some(0xDEAD_BEEF_CAFE_F00D), None);
        let back = read_frame_ex(&mut Cursor::new(frame)).unwrap().unwrap();
        assert_eq!((back.msg, back.trace), (msg.clone(), Some(0xDEAD_BEEF_CAFE_F00D)));
        let plain = encode_frame_opts(&msg, None, None);
        let back = read_frame_ex(&mut Cursor::new(plain)).unwrap().unwrap();
        assert_eq!((back.msg, back.trace), (msg, None));
    }

    #[test]
    fn budgeted_frames_roundtrip_through_both_readers() {
        let msg = Message::GetStrip { file: 3, strip: 9 };
        // Every combination of the two optional fields roundtrips.
        for trace in [None, Some(0xDEAD_BEEF_CAFE_F00Du64)] {
            for budget in [None, Some(1500u32)] {
                let frame = encode_frame_opts(&msg, trace, budget);
                let f = read_frame_ex(&mut Cursor::new(frame.clone())).unwrap().unwrap();
                assert_eq!(f.msg, msg);
                assert_eq!(f.trace, trace);
                assert_eq!(f.budget_ms, budget);
                // The incremental decoder agrees byte for byte.
                let mut fb = FrameBuffer::new();
                fb.extend(&frame);
                let f = fb.next_frame_ex().unwrap().unwrap();
                assert_eq!((f.msg, f.trace, f.budget_ms), (msg.clone(), trace, budget));
                assert_eq!(fb.pending(), 0);
            }
        }
    }

    #[test]
    fn corrupted_budget_field_fails_the_checksum() {
        let mut frame = encode_frame_opts(&Message::Ping, Some(42), Some(900));
        frame[HEADER_LEN + 8] ^= 0x01; // first byte of the budget field
        assert!(read_frame_ex(&mut Cursor::new(frame.clone())).is_err());
        let mut fb = FrameBuffer::new();
        fb.extend(&frame);
        assert!(fb.next_frame_ex().is_err());
    }

    #[test]
    fn corrupted_trace_id_fails_the_checksum() {
        let mut frame = encode_frame_opts(&Message::Ping, Some(42), None);
        frame[HEADER_LEN] ^= 0x01; // first byte of the trace field
        assert!(read_frame_ex(&mut Cursor::new(frame)).is_err());
    }

    /// A writer that accepts at most one byte per call, exercising
    /// the short-write fallback across every segment boundary.
    struct TrickleWriter(Vec<u8>);

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.push(buf[0]);
            Ok(1)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_writer_survives_short_writes() {
        let msg = Message::PutStrip { file: 3, strip: 7, payload: vec![0xAB; 300] };
        let parts = frame_parts_opts(&msg, Some(99), None);
        let mut w = TrickleWriter(Vec::new());
        write_frame_vectored(&mut w, &parts).unwrap();
        assert_eq!(w.0, parts.to_vec());
        assert_eq!(w.0.len(), parts.len());
    }

    #[test]
    fn frame_buffer_reassembles_at_every_split_point() {
        let msgs = [
            Message::Ping,
            Message::PutStrip { file: 1, strip: 2, payload: vec![5; 96] },
            Message::GetStrip { file: 1, strip: 2 },
        ];
        let mut wire = Vec::new();
        // Where each frame ends, and how long its payload is.
        let mut frames = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            wire.extend_from_slice(&encode_frame_opts(m, Some(i as u64), Some(100 + i as u32)));
            frames.push((wire.len(), m.encode_payload().len()));
        }
        for split in 0..=wire.len() {
            // Frames wholly before the split, and how far it reaches
            // into the next one.
            let whole = frames.iter().filter(|(end, _)| *end <= split).count();
            let into = split - whole.checked_sub(1).map_or(0, |last| frames[last].0);
            let payload_len = frames.get(whole).map_or(0, |f| f.1);
            let mut fb = FrameBuffer::new();
            fb.extend(&wire[..split]);
            let mut got = Vec::new();
            while let Some(f) = fb.next_frame_ex().unwrap() {
                got.push(f);
            }
            // A strict prefix of a frame is "not yet", and stays buffered.
            assert_eq!((got.len(), fb.pending()), (whole, into), "split at {split}");
            fb.extend(&wire[split..]);
            while let Some(f) = fb.next_frame_ex().unwrap() {
                got.push(f);
            }
            assert_eq!(got.len(), msgs.len(), "split at {split}");
            for (i, f) in got.iter().enumerate() {
                assert_eq!(f.msg, msgs[i]);
                assert_eq!((f.trace, f.budget_ms), (Some(i as u64), Some(100 + i as u32)));
            }
            assert_eq!(fb.pending(), 0);

            // The blocking reader over the same prefix, then EOF: the
            // same whole frames, then a clean close at a frame boundary
            // and otherwise the field the cut fell in.
            let mut r = Cursor::new(&wire[..split]);
            for m in &msgs[..whole] {
                assert_eq!(&read_frame_ex(&mut r).unwrap().unwrap().msg, m);
            }
            let field = match into {
                0 => None,
                n if n < HEADER_LEN => Some("header"),
                n if n < HEADER_LEN + 8 => Some("trace"),
                n if n < HEADER_LEN + 12 => Some("budget"),
                n if n < HEADER_LEN + 12 + payload_len => Some("payload"),
                _ => Some("checksum"),
            };
            match (read_frame_ex(&mut r), field) {
                (Ok(None), None) => {}
                (Err(NetError::Protocol(m)), Some(field)) => {
                    assert_eq!(m, format!("connection closed mid-{field}"), "split at {split}");
                }
                (other, _) => panic!("split at {split}: want {field:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_buffer_rejects_oversized_length_before_buffering_payload() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&MAGIC);
        bad.push(VERSION);
        bad.push(0x50);
        bad.extend_from_slice(&FLAG_CRC.to_le_bytes());
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut fb = FrameBuffer::new();
        fb.extend(&bad);
        match fb.next_frame_ex() {
            Err(NetError::Protocol(m)) => assert!(m.contains("cap")),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn frame_buffer_compacts_consumed_prefix() {
        let msg = Message::PutStrip { file: 1, strip: 0, payload: vec![1; 2048] };
        let frame = encode_frame_opts(&msg, None, None);
        let mut fb = FrameBuffer::new();
        for _ in 0..16 {
            fb.extend(&frame);
            assert!(fb.next_frame_ex().unwrap().is_some());
        }
        assert_eq!(fb.pending(), 0);
        assert!(fb.buf.len() < 3 * frame.len(), "buffer kept growing: {}", fb.buf.len());
    }

    /// The byte-at-a-time loop the slicing code replaced: the
    /// reference it is compared against.
    fn crc32_bytewise(chunks: &[&[u8]]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for chunk in chunks {
            for &b in *chunk {
                c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b""]), 0);
    }

    #[test]
    fn sliced_crc32_agrees_with_the_bytewise_loop_at_every_length_and_cut() {
        let data: Vec<u8> = (0..100u32).map(|i| (i.wrapping_mul(167) >> 3) as u8).collect();
        for len in 0..=data.len() {
            let want = crc32_bytewise(&[&data[..len]]);
            for cut in 0..=len {
                assert_eq!(crc32(&[&data[..cut], &data[cut..len]]), want, "len {len} cut {cut}");
            }
        }
    }

    /// A frame header claiming `len` payload bytes.
    fn bare_header(len: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(0x15);
        buf.extend_from_slice(&FLAG_CRC.to_le_bytes());
        buf.extend_from_slice(&(len as u32).to_le_bytes());
        buf
    }

    #[test]
    fn a_header_claiming_the_cap_then_a_close_is_the_typed_mid_payload_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stub = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut wire = bare_header(MAX_PAYLOAD);
            wire.extend_from_slice(&[7u8; 10]);
            sock.write_all(&wire).expect("write");
        });
        let mut sock = std::net::TcpStream::connect(addr).expect("connect");
        match read_frame_ex(&mut sock) {
            Err(NetError::Protocol(m)) => assert_eq!(m, "connection closed mid-payload"),
            other => panic!("expected the mid-payload close, got {other:?}"),
        }
        stub.join().expect("stub peer");
    }

    /// Plays back a script of `read` outcomes: `Some(n)` yields the next
    /// `n` bytes of the wire image, `None` a read timeout.
    struct Scripted {
        wire: Vec<u8>,
        at: usize,
        script: std::collections::VecDeque<Option<usize>>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.script.pop_front() {
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(n)) => {
                    let n = n.min(buf.len()).min(self.wire.len() - self.at);
                    buf[..n].copy_from_slice(&self.wire[self.at..self.at + n]);
                    self.at += n;
                    Ok(n)
                }
                None => Ok(0),
            }
        }
    }

    #[test]
    fn payload_stalls_are_bounded_and_reset_by_progress() {
        let msg = Message::StripData { payload: vec![3; 40] };
        let budget = MIDFRAME_TIMEOUT_BUDGET as usize;
        let header = [Some(1), Some(HEADER_LEN - 1)];
        // A full budget of stalls, progress, a full budget again: fine.
        let mut script = header.to_vec();
        script.extend(std::iter::repeat_n(None, budget));
        script.push(Some(5));
        script.extend(std::iter::repeat_n(None, budget));
        script.extend([Some(1000), Some(4)]);
        let mut r = Scripted { wire: encode_frame_opts(&msg, None, None), at: 0, script: script.into() };
        assert_eq!(read_frame_ex(&mut r).unwrap().unwrap().msg, msg);
        // One stall more than the budget with no byte between: typed.
        let mut script = header.to_vec();
        script.push(Some(5));
        script.extend(std::iter::repeat_n(None, budget + 1));
        let mut r = Scripted { wire: encode_frame_opts(&msg, None, None), at: 0, script: script.into() };
        match read_frame_ex(&mut r) {
            Err(NetError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::TimedOut);
                assert!(e.to_string().contains("mid-payload (5 of"), "{e}");
            }
            other => panic!("expected the typed stall, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(0x50);
        buf.extend_from_slice(&FLAG_CRC.to_le_bytes());
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        match read_frame_ex(&mut Cursor::new(buf)) {
            Err(NetError::Protocol(m)) => assert!(m.contains("cap")),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }
}
