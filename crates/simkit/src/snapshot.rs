//! Versioned, integer-stable snapshot codec for crash-safe checkpoint /
//! resume.
//!
//! A snapshot is a small binary envelope around a canonical JSON-like body:
//!
//! ```text
//! +------------+---------+-------------+--------------+-------------+----------+------+-------+
//! | magic (8)  | ver (4) | seed (8)    | clock_us (8) | fprint (8)  | len (8)  | body | crc(4)|
//! +------------+---------+-------------+--------------+-------------+----------+------+-------+
//! ```
//!
//! All integers are little-endian. The body is a [`Val`] tree rendered as
//! canonical text: maps keep insertion order, floats are stored as the raw
//! IEEE-754 bit pattern of an unsigned integer (never as decimal text), so
//! encoding is *integer-stable* — the same state always renders to the same
//! bytes on every platform, and a decode/encode round trip is the identity.
//! The trailing CRC-32 (IEEE) covers everything before it, which is what
//! lets a resuming process reject truncated or bit-flipped checkpoints
//! instead of resuming from garbage.
//!
//! The body need not exist as a tree: [`encode_with`] lets the caller
//! render it straight into the output buffer, and [`render_map`],
//! [`render_list`], [`render_u64`] and friends write exactly the bytes the
//! equivalent [`Val`] would. A component that holds most of a snapshot's
//! bytes (the telemetry store) renders itself that way instead of
//! allocating a tree node per value.
//!
//! [`Snapshot`] / [`Restorable`] are the trait pair components implement to
//! participate: `to_val` captures the component's dynamic state, `from_val`
//! rebuilds it. Stateful components whose reconstruction needs external
//! context (a config, an RNG master seed) expose inherent
//! `snapshot`/`restore` methods with the same [`Val`] currency instead.

use std::fmt;

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"RUSHSNAP";

/// Current snapshot format version. Bumped on any incompatible change to
/// the envelope or to a component's body schema; decoders reject other
/// versions outright (re-checkpointing is cheap, silent misdecoding is
/// not).
pub const FORMAT_VERSION: u32 = 1;

/// Why a snapshot failed to decode or restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    BadVersion(u32),
    /// The file is shorter than its header or declared body length.
    Truncated,
    /// The trailing CRC-32 does not match the payload.
    CrcMismatch,
    /// The snapshot was taken under a different configuration than the
    /// engine it is being restored into.
    ConfigMismatch,
    /// The body parsed, but a component's schema expectation failed.
    Schema(String),
    /// The body text is not valid canonical form.
    Parse(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (want {FORMAT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::CrcMismatch => write!(f, "snapshot CRC mismatch (corrupted)"),
            SnapshotError::ConfigMismatch => {
                write!(f, "snapshot was taken under a different configuration")
            }
            SnapshotError::Schema(m) => write!(f, "snapshot schema error: {m}"),
            SnapshotError::Parse(m) => write!(f, "snapshot parse error: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A node of the snapshot body tree.
///
/// Deliberately minimal: unsigned/signed integers, strings, lists and
/// insertion-ordered maps. Floats travel as `U64` bit patterns via
/// [`Val::from_f64`]/[`Val::as_f64`] so no decimal formatting is ever
/// involved.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// An unsigned integer (also the carrier for f64 bit patterns).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A string.
    Str(String),
    /// An ordered list.
    List(Vec<Val>),
    /// An insertion-ordered map.
    Map(Vec<(String, Val)>),
}

impl Val {
    /// An empty map.
    pub fn map() -> Val {
        Val::Map(Vec::new())
    }

    /// Adds `key: value` to a map (builder style).
    ///
    /// # Panics
    /// Panics if `self` is not a map.
    pub fn with(mut self, key: &str, value: Val) -> Val {
        match &mut self {
            Val::Map(entries) => entries.push((key.to_string(), value)),
            _ => panic!("Val::with on non-map"),
        }
        self
    }

    /// Wraps an `f64` as its IEEE-754 bit pattern.
    pub fn from_f64(x: f64) -> Val {
        Val::U64(x.to_bits())
    }

    /// The value as `u64`.
    pub fn as_u64(&self) -> Result<u64, SnapshotError> {
        match *self {
            Val::U64(v) => Ok(v),
            Val::I64(v) if v >= 0 => Ok(v as u64),
            _ => Err(SnapshotError::Schema(format!("expected u64, got {self:?}"))),
        }
    }

    /// The value as `i64`.
    pub fn as_i64(&self) -> Result<i64, SnapshotError> {
        match *self {
            Val::I64(v) => Ok(v),
            Val::U64(v) if v <= i64::MAX as u64 => Ok(v as i64),
            _ => Err(SnapshotError::Schema(format!("expected i64, got {self:?}"))),
        }
    }

    /// The value as an `f64` bit pattern.
    pub fn as_f64(&self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.as_u64()?))
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, SnapshotError> {
        match self {
            Val::Str(s) => Ok(s),
            _ => Err(SnapshotError::Schema(format!(
                "expected string, got {self:?}"
            ))),
        }
    }

    /// The value as a list slice.
    pub fn as_list(&self) -> Result<&[Val], SnapshotError> {
        match self {
            Val::List(items) => Ok(items),
            _ => Err(SnapshotError::Schema(format!(
                "expected list, got {self:?}"
            ))),
        }
    }

    /// Looks up `key` in a map.
    pub fn get(&self, key: &str) -> Result<&Val, SnapshotError> {
        match self {
            Val::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| SnapshotError::Schema(format!("missing key '{key}'"))),
            _ => Err(SnapshotError::Schema(format!("expected map, got {self:?}"))),
        }
    }

    /// Map field as `u64`.
    pub fn u(&self, key: &str) -> Result<u64, SnapshotError> {
        self.get(key)?.as_u64()
    }

    /// Map field as `i64`.
    pub fn i(&self, key: &str) -> Result<i64, SnapshotError> {
        self.get(key)?.as_i64()
    }

    /// Map field as `f64` (bit pattern).
    pub fn f(&self, key: &str) -> Result<f64, SnapshotError> {
        self.get(key)?.as_f64()
    }

    /// Map field as string.
    pub fn s<'a>(&'a self, key: &str) -> Result<&'a str, SnapshotError> {
        self.get(key)?.as_str()
    }

    /// Map field as list.
    pub fn l<'a>(&'a self, key: &str) -> Result<&'a [Val], SnapshotError> {
        self.get(key)?.as_list()
    }

    /// Renders the canonical text form.
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.render_into(&mut out);
        String::from_utf8(out).expect("canonical text is UTF-8")
    }

    /// Appends the canonical text form to `out`.
    fn render_into(&self, out: &mut Vec<u8>) {
        match self {
            Val::U64(v) => render_u64(out, *v),
            Val::I64(v) => {
                out.push(b'i');
                if *v < 0 {
                    out.push(b'-');
                }
                push_digits(out, v.unsigned_abs());
            }
            Val::Str(s) => render_str(out, s),
            Val::List(items) => render_list(out, items, |out, item| item.render_into(out)),
            Val::Map(entries) => render_map(out, |map| {
                for (k, v) in entries {
                    map.entry(k, v);
                }
            }),
        }
    }

    /// Parses the canonical text form.
    pub fn parse(text: &str) -> Result<Val, SnapshotError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let val = parse_val(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(SnapshotError::Parse(format!(
                "trailing bytes at offset {pos}"
            )));
        }
        Ok(val)
    }
}

/// Appends the canonical text of `Val::U64(v)`.
pub fn render_u64(out: &mut Vec<u8>, v: u64) {
    out.push(b'u');
    push_digits(out, v);
}

/// Appends the canonical text of [`Val::from_f64`]`(x)`.
pub fn render_f64(out: &mut Vec<u8>, x: f64) {
    render_u64(out, x.to_bits());
}

/// Appends the canonical text of `Val::Str(s)`.
fn render_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    // Only ASCII bytes are ever escaped, and every byte of a multi-byte
    // UTF-8 sequence is >= 0x80, so escaping byte by byte is exact.
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xF)]);
            }
            b => out.push(b),
        }
    }
    out.push(b'"');
}

/// Appends the canonical text of a list whose items `each` renders.
pub fn render_list<T>(
    out: &mut Vec<u8>,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut Vec<u8>, T),
) {
    out.push(b'[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        each(out, item);
    }
    out.push(b']');
}

/// Appends the canonical text of a map whose entries `entries` writes, in
/// order, through a [`MapWriter`].
pub fn render_map(out: &mut Vec<u8>, entries: impl FnOnce(&mut MapWriter<'_>)) {
    out.push(b'{');
    let mut map = MapWriter { out, empty: true };
    entries(&mut map);
    map.out.push(b'}');
}

/// Writes a canonical map entry by entry (see [`render_map`]), so a large
/// component can render its own text in place of a [`Val`] subtree. The
/// bytes are exactly those of the equivalent [`Val::Map`].
pub struct MapWriter<'a> {
    out: &'a mut Vec<u8>,
    empty: bool,
}

impl MapWriter<'_> {
    /// Appends `key: value`.
    pub fn entry(&mut self, key: &str, value: &Val) {
        self.entry_with(key, |out| value.render_into(out));
    }

    /// Appends `key` and then the value text `render` writes, which must be
    /// the canonical text of one [`Val`].
    pub fn entry_with(&mut self, key: &str, render: impl FnOnce(&mut Vec<u8>)) {
        if !self.empty {
            self.out.push(b',');
        }
        self.empty = false;
        render_str(self.out, key);
        self.out.push(b':');
        render(self.out);
    }
}

/// `"00" "01" ... "99"`: two decimal digits per table lookup.
static DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends the decimal digits of `v` (what `v.to_string()` gives) without
/// allocating.
fn push_digits(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        pos -= 1;
        buf[pos] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[pos..]);
}

fn parse_err(pos: usize, what: &str) -> SnapshotError {
    SnapshotError::Parse(format!("{what} at offset {pos}"))
}

fn parse_val(bytes: &[u8], pos: &mut usize) -> Result<Val, SnapshotError> {
    match bytes.get(*pos) {
        Some(b'u') => {
            *pos += 1;
            Ok(Val::U64(parse_digits(bytes, pos)?))
        }
        Some(b'i') => {
            *pos += 1;
            let neg = bytes.get(*pos) == Some(&b'-');
            if neg {
                *pos += 1;
            }
            let mag = parse_digits(bytes, pos)?;
            if neg {
                if mag > i64::MIN.unsigned_abs() {
                    return Err(parse_err(*pos, "i64 underflow"));
                }
                Ok(Val::I64((mag as i64).wrapping_neg()))
            } else {
                if mag > i64::MAX as u64 {
                    return Err(parse_err(*pos, "i64 overflow"));
                }
                Ok(Val::I64(mag as i64))
            }
        }
        Some(b'"') => Ok(Val::Str(parse_str(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Val::List(items));
            }
            loop {
                items.push(parse_val(bytes, pos)?);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Val::List(items));
                    }
                    _ => return Err(parse_err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Val::Map(entries));
            }
            loop {
                let key = parse_str(bytes, pos)?;
                if bytes.get(*pos) != Some(&b':') {
                    return Err(parse_err(*pos, "expected ':'"));
                }
                *pos += 1;
                let value = parse_val(bytes, pos)?;
                entries.push((key, value));
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Val::Map(entries));
                    }
                    _ => return Err(parse_err(*pos, "expected ',' or '}'")),
                }
            }
        }
        _ => Err(parse_err(*pos, "unexpected byte")),
    }
}

fn parse_digits(bytes: &[u8], pos: &mut usize) -> Result<u64, SnapshotError> {
    let start = *pos;
    let mut value: u64 = 0;
    while let Some(&b) = bytes.get(*pos) {
        if !b.is_ascii_digit() {
            break;
        }
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u64::from(b - b'0')))
            .ok_or_else(|| parse_err(*pos, "integer overflow"))?;
        *pos += 1;
    }
    if *pos == start {
        return Err(parse_err(*pos, "expected digits"));
    }
    Ok(value)
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, SnapshotError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(parse_err(*pos, "expected '\"'"));
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(parse_err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| parse_err(*pos, "invalid utf-8"));
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| parse_err(*pos, "bad \\u escape"))?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| parse_err(*pos, "bad \\u escape"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(code.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(parse_err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

/// State capture: render this component's dynamic state as a [`Val`] tree.
pub trait Snapshot {
    /// Captures the component's dynamic state.
    fn to_val(&self) -> Val;
}

/// State restoration: rebuild a component from a captured [`Val`] tree.
pub trait Restorable: Sized {
    /// Rebuilds the component; fails with [`SnapshotError::Schema`] when the
    /// tree does not match the expected shape.
    fn from_val(v: &Val) -> Result<Self, SnapshotError>;
}

/// A decoded snapshot envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEnvelope {
    /// Format version ([`FORMAT_VERSION`] after a successful decode).
    pub version: u32,
    /// The run's master seed.
    pub master_seed: u64,
    /// Simulation clock at capture time, microseconds.
    pub sim_clock_us: u64,
    /// Fingerprint of the configuration the run was started with.
    pub fingerprint: u64,
    /// The state body.
    pub body: Val,
}

const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

/// Encodes a snapshot envelope to bytes.
pub fn encode(master_seed: u64, sim_clock_us: u64, fingerprint: u64, body: &Val) -> Vec<u8> {
    encode_with(master_seed, sim_clock_us, fingerprint, |out| {
        body.render_into(out)
    })
}

/// Encodes a snapshot envelope whose body `render_body` appends, as the
/// canonical text of one [`Val`], straight into the output buffer: the
/// header goes first, the body is rendered in place, then the length field
/// is patched and the CRC appended. Gives the same bytes as [`encode`] on
/// the equivalent tree, without building the tree or copying the body.
pub fn encode_with(
    master_seed: u64,
    sim_clock_us: u64,
    fingerprint: u64,
    render_body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&master_seed.to_le_bytes());
    out.extend_from_slice(&sim_clock_us.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    render_body(&mut out);
    let body_len = (out.len() - HEADER_LEN) as u64;
    out[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes and validates a snapshot envelope (magic, version, length, CRC).
pub fn decode(bytes: &[u8]) -> Result<SnapshotEnvelope, SnapshotError> {
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[0..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < HEADER_LEN + 4 {
        return Err(SnapshotError::Truncated);
    }
    let le32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let le64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let version = le32(8);
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let master_seed = le64(12);
    let sim_clock_us = le64(20);
    let fingerprint = le64(28);
    let body_len = le64(36) as usize;
    let total = HEADER_LEN
        .checked_add(body_len)
        .and_then(|n| n.checked_add(4))
        .ok_or(SnapshotError::Truncated)?;
    if bytes.len() < total {
        return Err(SnapshotError::Truncated);
    }
    let payload = &bytes[..HEADER_LEN + body_len];
    let stored_crc = le32(HEADER_LEN + body_len);
    if crc32(payload) != stored_crc {
        return Err(SnapshotError::CrcMismatch);
    }
    let text = std::str::from_utf8(&bytes[HEADER_LEN..HEADER_LEN + body_len])
        .map_err(|_| SnapshotError::Parse("body is not utf-8".to_string()))?;
    let body = Val::parse(text)?;
    Ok(SnapshotEnvelope {
        version,
        master_seed,
        sim_clock_us,
        fingerprint,
        body,
    })
}

/// Validates a snapshot's envelope without parsing the body. Used by
/// checkpoint retention scans to find the newest *intact* file cheaply.
pub fn validate(bytes: &[u8]) -> Result<(), SnapshotError> {
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[0..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < HEADER_LEN + 4 {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let body_len = u64::from_le_bytes(bytes[36..44].try_into().expect("8 bytes")) as usize;
    let total = HEADER_LEN
        .checked_add(body_len)
        .and_then(|n| n.checked_add(4))
        .ok_or(SnapshotError::Truncated)?;
    if bytes.len() < total {
        return Err(SnapshotError::Truncated);
    }
    let payload = &bytes[..HEADER_LEN + body_len];
    let stored_crc = u32::from_le_bytes(
        bytes[HEADER_LEN + body_len..HEADER_LEN + body_len + 4]
            .try_into()
            .expect("4 bytes"),
    );
    if crc32(payload) != stored_crc {
        return Err(SnapshotError::CrcMismatch);
    }
    Ok(())
}

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight input bytes fold into the CRC with eight lookups.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven
/// slicing-by-8.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a hash of a string — the configuration fingerprint primitive.
pub fn fingerprint_str(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Val {
        Val::map()
            .with("clock", Val::U64(12_345))
            .with("delta", Val::I64(-7))
            .with("name", Val::Str("sched/place \"x\"\n".to_string()))
            .with(
                "items",
                Val::List(vec![Val::U64(1), Val::from_f64(0.25), Val::List(vec![])]),
            )
            .with("nested", Val::map().with("k", Val::U64(0)))
    }

    #[test]
    fn render_parse_round_trip() {
        let v = sample();
        let text = v.render();
        let back = Val::parse(&text).unwrap();
        assert_eq!(v, back);
        // Canonical: re-rendering is the identity.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn f64_bits_survive_exactly() {
        for x in [0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, -1.0e-300] {
            let v = Val::from_f64(x);
            let text = v.render();
            let back = Val::parse(&text).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn map_accessors() {
        let v = sample();
        assert_eq!(v.u("clock").unwrap(), 12_345);
        assert_eq!(v.i("delta").unwrap(), -7);
        assert_eq!(v.s("name").unwrap(), "sched/place \"x\"\n");
        assert_eq!(v.l("items").unwrap().len(), 3);
        assert!(v.u("missing").is_err());
        assert!(v.get("nested").unwrap().u("k").unwrap() == 0);
    }

    #[test]
    fn envelope_round_trip() {
        let body = sample();
        let bytes = encode(0xA5, 99_000_000, 0xDEAD_BEEF, &body);
        let env = decode(&bytes).unwrap();
        assert_eq!(env.version, FORMAT_VERSION);
        assert_eq!(env.master_seed, 0xA5);
        assert_eq!(env.sim_clock_us, 99_000_000);
        assert_eq!(env.fingerprint, 0xDEAD_BEEF);
        assert_eq!(env.body, body);
        validate(&bytes).unwrap();
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = encode(1, 2, 3, &Val::map());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(SnapshotError::BadMagic));
        assert_eq!(validate(&bytes), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn bad_version_detected() {
        let mut bytes = encode(1, 2, 3, &Val::map());
        bytes[8] = 0xFF;
        assert!(matches!(decode(&bytes), Err(SnapshotError::BadVersion(_))));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(1, 2, 3, &sample());
        for cut in [0, 4, HEADER_LEN, bytes.len() - 1] {
            let r = decode(&bytes[..cut]);
            assert!(
                matches!(
                    r,
                    Err(SnapshotError::Truncated) | Err(SnapshotError::BadMagic)
                ),
                "cut at {cut}: {r:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode(7, 8, 9, &sample());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(
                    decode(&corrupted).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The bit-at-a-time CRC-32 the tables are derived from: the oracle
    /// the table-driven [`crc32`] must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_on_every_short_length() {
        let bytes = noise(64, 1);
        for len in 0..=64 {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bitwise(&bytes[..len]),
                "len {len}"
            );
        }
        assert_eq!(crc32(&[0xFF; 64]), crc32_bitwise(&[0xFF; 64]));
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_on_unaligned_slices() {
        let bytes = noise(4096 + 16, 2);
        for start in 0..16 {
            for len in [1, 7, 8, 9, 63, 64, 65, 1000, 4096] {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_on_a_megabyte() {
        let bytes = noise(1 << 20, 3);
        assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
    }

    #[test]
    fn integers_render_like_to_string() {
        let mut samples = vec![0, 9, 10, 99, 100, 101, 999, 1000, u64::MAX, u64::MAX - 1];
        samples.extend((0..20).map(|p| 10u64.pow(p)));
        samples.extend((1..20).map(|p| 10u64.pow(p) - 1));
        samples.extend(
            noise(800, 4)
                .chunks(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
        );
        for v in samples {
            assert_eq!(Val::U64(v).render(), format!("u{v}"));
            let i = v as i64;
            assert_eq!(Val::I64(i).render(), format!("i{i}"));
        }
        assert_eq!(Val::I64(i64::MIN).render(), format!("i{}", i64::MIN));
    }

    #[test]
    fn strings_escape_byte_for_byte() {
        let s = "plain é ✓ \"q\" \\ \n\r\t \u{1} \u{1f} \u{7f}";
        let text = Val::Str(s.to_string()).render();
        assert_eq!(
            text,
            "\"plain é ✓ \\\"q\\\" \\\\ \\n\\r\\t \\u0001 \\u001f \u{7f}\""
        );
        assert_eq!(Val::parse(&text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn streamed_map_matches_the_tree() {
        let tree = sample();
        let Val::Map(entries) = &tree else {
            unreachable!()
        };
        let streamed = encode_with(1, 2, 3, |out| {
            render_map(out, |map| {
                for (k, v) in entries {
                    if let Val::List(items) = v {
                        map.entry_with(k, |out| {
                            render_list(out, items, |out, item| item.render_into(out))
                        });
                    } else {
                        map.entry(k, v);
                    }
                }
            })
        });
        assert_eq!(streamed, encode(1, 2, 3, &tree));
        let empty = encode_with(1, 2, 3, |out| render_map(out, |_| {}));
        assert_eq!(empty, encode(1, 2, 3, &Val::map()));
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint_str("abc"), fingerprint_str("abc"));
        assert_ne!(fingerprint_str("abc"), fingerprint_str("abd"));
    }

    #[test]
    fn signed_extremes_round_trip() {
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            let val = Val::I64(v);
            assert_eq!(Val::parse(&val.render()).unwrap().as_i64().unwrap(), v);
        }
        let val = Val::U64(u64::MAX);
        assert_eq!(
            Val::parse(&val.render()).unwrap().as_u64().unwrap(),
            u64::MAX
        );
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(Val::parse("u1 ").is_err());
        assert!(Val::parse("[u1,]").is_err());
        assert!(Val::parse("{\"a\":}").is_err());
        assert!(Val::parse("").is_err());
    }
}
