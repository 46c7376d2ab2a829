//! The `omitrace/v1` on-disk trace format.
//!
//! A saved trace lets `locate` (and any offline analysis) skip
//! re-execution entirely: `omislice trace --save t.omitrace` writes the
//! columnar store, and `omislice locate --trace-in t.omitrace` reloads
//! it byte-identically. The layout mirrors [`ColumnarTrace`] — one
//! *section* per column — so serialization is a straight walk over each
//! dense array, no row materialization.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! header   : magic b"OMITRACE" | version u32 = 1 | section count u32
//! sections : tag u16 | encoding u8 | reserved u8 | payload len u64 | payload
//! trailer  : FNV-1a/64 checksum over header + sections
//! ```
//!
//! Section payloads use three encodings: `raw` (byte-per-entry columns),
//! `varint` (LEB128, for small unsigned values), and `delta-varint`
//! (LEB128 of a difference). Instance-id columns are delta-compressed
//! against their *owning event index*: a dependence edge `d` of event
//! `i` is stored as `i - d`, which is small (locality) and positive
//! (trace edges always point backwards in time), and the optional parent
//! columns store `i - parent + 1` with `0` meaning "none".
//!
//! ## Integrity
//!
//! [`decode_trace`] never panics on hostile input: the magic, version,
//! checksum, section framing, column lengths, and the backwards-edge /
//! monotone-offset invariants are all validated, and violations surface
//! as structured [`TraceFileError`]s. This is load-bearing for the CLI
//! contract that corrupted or truncated files produce an error message,
//! not a crash.

use crate::columnar::ColumnarTrace;
use crate::event::{InstId, OutputRecord};
use crate::outcome::CrashKind;
use crate::trace::{Termination, Trace};
use crate::value::Value;
use omislice_lang::StmtId;
use std::fmt;
use std::path::Path;

/// First bytes of every trace file.
pub const MAGIC: &[u8; 8] = b"OMITRACE";
/// Current format version.
pub const VERSION: u32 = 1;

/// Statement ids above this bound are rejected as corrupt (the
/// statement table is dense, and no generated program approaches this).
const MAX_STMT_ID: u32 = 1 << 24;

// Section tags.
const SEC_COUNTS: u16 = 1;
const SEC_TERMINATION: u16 = 2;
const SEC_OUTPUTS: u16 = 3;
const SEC_STMT: u16 = 10;
const SEC_META: u16 = 11;
const SEC_VALUE: u16 = 12;
const SEC_CALL_DEPTH: u16 = 13;
const SEC_CD_PARENT: u16 = 14;
const SEC_REGION_PARENT: u16 = 15;
const SEC_DEF_VAR: u16 = 16;
const SEC_DEPS_OFF: u16 = 17;
const SEC_DEPS: u16 = 18;
const SEC_CELL_INDEX: u16 = 19;

// Encoding bytes (descriptive; decoders are tag-specific).
const ENC_RAW: u8 = 0;
const ENC_VARINT: u8 = 1;
const ENC_DELTA: u8 = 2;

/// Why a trace file failed to load.
#[derive(Debug)]
pub enum TraceFileError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the `OMITRACE` magic.
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The file ends before the declared structure does.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The trailer checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the file.
        computed: u64,
    },
    /// The framing is intact but a value violates a format invariant.
    Malformed(String),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file i/o error: {e}"),
            TraceFileError::BadMagic => {
                write!(f, "not an omitrace file (bad magic; expected `OMITRACE`)")
            }
            TraceFileError::UnsupportedVersion(v) => {
                write!(f, "unsupported omitrace version {v} (this build reads v{VERSION})")
            }
            TraceFileError::Truncated { context } => {
                write!(f, "trace file truncated while reading {context}")
            }
            TraceFileError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace file corrupt: checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            TraceFileError::Malformed(msg) => write!(f, "trace file malformed: {msg}"),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> TraceFileError {
    TraceFileError::Malformed(msg.into())
}

// --- FNV-1a/64 ---------------------------------------------------------

/// Streaming FNV-1a/64: the trailer checksum, and the one hash the
/// workspace keys by (verification-memo fingerprints, served cache
/// keys). Writing a byte string in pieces hashes it like one write.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

// --- primitive writers -------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --- primitive readers -------------------------------------------------

/// Bounds-checked sequential reader over a byte buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], TraceFileError> {
        if self.remaining() < n {
            return Err(TraceFileError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, TraceFileError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, TraceFileError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        ))
    }

    fn varint(&mut self, context: &'static str) -> Result<u64, TraceFileError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.take(1, context)?[0];
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(malformed(format!("overlong varint in {context}")))
    }
}

// --- encoding ----------------------------------------------------------

fn push_section(out: &mut Vec<u8>, tag: u16, encoding: u8, payload: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.push(encoding);
    out.push(0); // reserved
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Serializes a trace to `omitrace/v1` bytes.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    // The encoder walks raw contiguous columns; a prefix-shared trace
    // (checkpoint resume) is materialized first. Base traces — the only
    // ones saved on hot paths — are always flat, so this copy is only
    // paid when explicitly persisting a resumed run.
    let flat;
    let cols = if trace.columns().has_prefix() {
        flat = trace.columns().clone_prefix(trace.len());
        &flat
    } else {
        trace.columns()
    };
    let n = cols.len();
    let mut out = Vec::with_capacity(64 + cols.bytes() / 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&13u32.to_le_bytes()); // section count

    let mut buf = Vec::new();

    // counts
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(cols.deps_len() as u64).to_le_bytes());
    push_section(&mut out, SEC_COUNTS, ENC_RAW, &buf);

    // termination
    buf.clear();
    match trace.termination() {
        Termination::Normal => buf.push(0),
        Termination::BudgetExhausted => buf.push(1),
        Termination::RuntimeError(kind, msg) => {
            buf.push(2);
            buf.push(crash_kind_code(*kind));
            put_varint(&mut buf, msg.len() as u64);
            buf.extend_from_slice(msg.as_bytes());
        }
    }
    push_section(&mut out, SEC_TERMINATION, ENC_RAW, &buf);

    // outputs: ascending instance ids, delta-compressed
    buf.clear();
    put_varint(&mut buf, trace.outputs().len() as u64);
    let mut prev = 0u32;
    for o in trace.outputs() {
        put_varint(&mut buf, (o.inst.0 - prev) as u64);
        prev = o.inst.0;
        match o.value {
            Value::Int(v) => {
                buf.push(1);
                put_varint(&mut buf, zigzag(v));
            }
            Value::Bool(b) => {
                buf.push(2);
                buf.push(b as u8);
            }
        }
    }
    push_section(&mut out, SEC_OUTPUTS, ENC_DELTA, &buf);

    // stmt
    buf.clear();
    for s in &cols.stmt {
        put_varint(&mut buf, s.0 as u64);
    }
    push_section(&mut out, SEC_STMT, ENC_VARINT, &buf);

    // meta (byte per event, raw)
    push_section(&mut out, SEC_META, ENC_RAW, &cols.meta);

    // value (zigzag varint; mostly small magnitudes)
    buf.clear();
    for &v in &cols.value {
        put_varint(&mut buf, zigzag(v));
    }
    push_section(&mut out, SEC_VALUE, ENC_VARINT, &buf);

    // call_depth
    buf.clear();
    for &d in &cols.call_depth {
        put_varint(&mut buf, d as u64);
    }
    push_section(&mut out, SEC_CALL_DEPTH, ENC_VARINT, &buf);

    // optional parent columns: 0 = none, else i - parent (>= 1 offset by +1
    // is unnecessary since parent < i strictly, so i - parent >= 1)
    for (tag, col) in [
        (SEC_CD_PARENT, &cols.cd_parent),
        (SEC_REGION_PARENT, &cols.region_parent),
    ] {
        buf.clear();
        for (i, &p) in col.iter().enumerate() {
            if p == u32::MAX {
                put_varint(&mut buf, 0);
            } else {
                put_varint(&mut buf, (i as u32 - p) as u64);
            }
        }
        push_section(&mut out, tag, ENC_DELTA, &buf);
    }

    // def_var: 0 = none, else var + 1
    buf.clear();
    for &v in &cols.def_var {
        put_varint(&mut buf, if v == u32::MAX { 0 } else { v as u64 + 1 });
    }
    push_section(&mut out, SEC_DEF_VAR, ENC_VARINT, &buf);

    // deps_off: monotone, delta-compressed
    buf.clear();
    let mut prev_off = 0u32;
    for &o in &cols.deps_off {
        put_varint(&mut buf, (o - prev_off) as u64);
        prev_off = o;
    }
    push_section(&mut out, SEC_DEPS_OFF, ENC_DELTA, &buf);

    // deps: each edge relative to its owning event (backwards in time,
    // so i - d >= 1 always)
    buf.clear();
    for i in 0..n {
        let start = cols.deps_off[i] as usize;
        let end = cols.deps_off[i + 1] as usize;
        for d in &cols.deps[start..end] {
            put_varint(&mut buf, (i as u32 - d.0) as u64);
        }
    }
    push_section(&mut out, SEC_DEPS, ENC_DELTA, &buf);

    // cell_index: sparse sorted (inst, value) pairs
    buf.clear();
    put_varint(&mut buf, cols.cell_index.len() as u64);
    let mut prev_inst = 0u32;
    for &(inst, v) in &cols.cell_index {
        put_varint(&mut buf, (inst - prev_inst) as u64);
        prev_inst = inst;
        put_varint(&mut buf, zigzag(v));
    }
    push_section(&mut out, SEC_CELL_INDEX, ENC_DELTA, &buf);

    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn crash_kind_code(kind: CrashKind) -> u8 {
    match kind {
        CrashKind::OobIndex => 0,
        CrashKind::MissingCallee => 1,
        CrashKind::DivByZero => 2,
        CrashKind::TypeError => 3,
        CrashKind::StackOverflow => 4,
        CrashKind::UninitRead => 5,
        CrashKind::Panic => 6,
    }
}

fn crash_kind_from(code: u8) -> Result<CrashKind, TraceFileError> {
    Ok(match code {
        0 => CrashKind::OobIndex,
        1 => CrashKind::MissingCallee,
        2 => CrashKind::DivByZero,
        3 => CrashKind::TypeError,
        4 => CrashKind::StackOverflow,
        5 => CrashKind::UninitRead,
        6 => CrashKind::Panic,
        other => return Err(malformed(format!("unknown crash kind code {other}"))),
    })
}

// --- decoding ----------------------------------------------------------

/// Deserializes `omitrace/v1` bytes into a [`Trace`].
///
/// # Errors
///
/// Returns a structured [`TraceFileError`] on any framing, checksum, or
/// invariant violation; never panics on hostile input.
pub fn decode_trace(bytes: &[u8]) -> Result<Trace, TraceFileError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(TraceFileError::BadMagic);
    }
    if bytes.len() < MAGIC.len() + 8 + 8 {
        return Err(TraceFileError::Truncated { context: "header" });
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let computed = fnv1a(body);
    if stored != computed {
        return Err(TraceFileError::ChecksumMismatch { stored, computed });
    }

    let mut cur = Cursor::new(body);
    cur.take(MAGIC.len(), "magic")?;
    let version = cur.u32("version")?;
    if version != VERSION {
        return Err(TraceFileError::UnsupportedVersion(version));
    }
    let n_sections = cur.u32("section count")?;

    // Collect section payloads; decode in a fixed order afterwards since
    // later columns (deps) need earlier ones (deps_off).
    let mut sections: Vec<(u16, &[u8])> = Vec::with_capacity(n_sections as usize);
    for _ in 0..n_sections {
        let tag = u16::from_le_bytes(cur.take(2, "section tag")?.try_into().unwrap());
        cur.take(2, "section header")?; // encoding + reserved
        let len = cur.u64("section length")? as usize;
        let payload = cur.take(len, "section payload")?;
        sections.push((tag, payload));
    }
    let section = |tag: u16| -> Result<&[u8], TraceFileError> {
        sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| *p)
            .ok_or_else(|| malformed(format!("missing section {tag}")))
    };

    // counts
    let mut c = Cursor::new(section(SEC_COUNTS)?);
    let n = c.u64("event count")? as usize;
    let n_deps = c.u64("dep count")? as usize;
    if n > u32::MAX as usize - 1 {
        return Err(malformed("event count exceeds u32 instance-id space"));
    }

    // termination
    let mut c = Cursor::new(section(SEC_TERMINATION)?);
    let termination = match c.take(1, "termination tag")?[0] {
        0 => Termination::Normal,
        1 => Termination::BudgetExhausted,
        2 => {
            let kind = crash_kind_from(c.take(1, "crash kind")?[0])?;
            let len = c.varint("crash message length")? as usize;
            let msg = std::str::from_utf8(c.take(len, "crash message")?)
                .map_err(|_| malformed("crash message is not UTF-8"))?
                .to_string();
            Termination::RuntimeError(kind, msg)
        }
        other => return Err(malformed(format!("unknown termination tag {other}"))),
    };

    // outputs
    let mut c = Cursor::new(section(SEC_OUTPUTS)?);
    let n_outputs = c.varint("output count")? as usize;
    if n_outputs > n {
        return Err(malformed("more outputs than events"));
    }
    let mut outputs = Vec::with_capacity(n_outputs);
    let mut prev = 0u32;
    for k in 0..n_outputs {
        let delta = c.varint("output instance")? as u32;
        let inst = if k == 0 {
            delta
        } else {
            prev.checked_add(delta)
                .ok_or_else(|| malformed("output instance overflow"))?
        };
        prev = inst;
        if inst as usize >= n {
            return Err(malformed("output instance out of range"));
        }
        let value = match c.take(1, "output value tag")?[0] {
            1 => Value::Int(unzigzag(c.varint("output value")?)),
            2 => Value::Bool(c.take(1, "output value")?[0] != 0),
            other => return Err(malformed(format!("unknown value tag {other}"))),
        };
        outputs.push(OutputRecord {
            inst: InstId(inst),
            value,
        });
    }

    // dense columns
    let mut cols = ColumnarTrace::with_capacity(n, n_deps);

    let mut c = Cursor::new(section(SEC_STMT)?);
    for _ in 0..n {
        let s = c.varint("stmt column")? as u32;
        if s >= MAX_STMT_ID {
            return Err(malformed(format!("statement id {s} out of sane range")));
        }
        cols.stmt.push(StmtId(s));
    }

    let meta = section(SEC_META)?;
    if meta.len() != n {
        return Err(malformed("meta column length mismatch"));
    }
    cols.meta.extend_from_slice(meta);

    let mut c = Cursor::new(section(SEC_VALUE)?);
    for _ in 0..n {
        cols.value.push(unzigzag(c.varint("value column")?));
    }

    let mut c = Cursor::new(section(SEC_CALL_DEPTH)?);
    for _ in 0..n {
        cols.call_depth.push(c.varint("call depth column")? as u32);
    }

    for (tag, name) in [
        (SEC_CD_PARENT, "cd parent"),
        (SEC_REGION_PARENT, "region parent"),
    ] {
        let mut c = Cursor::new(section(tag)?);
        let col = if tag == SEC_CD_PARENT {
            &mut cols.cd_parent
        } else {
            &mut cols.region_parent
        };
        for i in 0..n as u32 {
            let delta = c.varint("parent column")? as u32;
            if delta == 0 {
                col.push(u32::MAX);
            } else if delta > i {
                return Err(malformed(format!(
                    "{name} of instance {i} is not backwards"
                )));
            } else {
                col.push(i - delta);
            }
        }
    }

    check_regions_nest(&cols.region_parent)?;

    let mut c = Cursor::new(section(SEC_DEF_VAR)?);
    for _ in 0..n {
        let v = c.varint("def var column")?;
        cols.def_var
            .push(if v == 0 { u32::MAX } else { (v - 1) as u32 });
    }

    let mut c = Cursor::new(section(SEC_DEPS_OFF)?);
    cols.deps_off.clear();
    let mut off = 0u32;
    for k in 0..=n {
        let delta = c.varint("deps offsets")? as u32;
        if k == 0 && delta != 0 {
            return Err(malformed("deps offsets must start at 0"));
        }
        off = off
            .checked_add(delta)
            .ok_or_else(|| malformed("deps offset overflow"))?;
        cols.deps_off.push(off);
    }
    if off as usize != n_deps {
        return Err(malformed("deps offsets do not cover the dep arena"));
    }

    let mut c = Cursor::new(section(SEC_DEPS)?);
    for i in 0..n {
        let start = cols.deps_off[i];
        let end = cols.deps_off[i + 1];
        for _ in start..end {
            let delta = c.varint("deps column")? as u32;
            if delta == 0 || delta > i as u32 {
                return Err(malformed(format!(
                    "dependence edge of instance {i} is not backwards"
                )));
            }
            cols.deps.push(InstId(i as u32 - delta));
        }
    }

    let mut c = Cursor::new(section(SEC_CELL_INDEX)?);
    let n_cells = c.varint("cell index count")? as usize;
    if n_cells > n {
        return Err(malformed("more cell indices than events"));
    }
    let mut prev = 0u32;
    for k in 0..n_cells {
        let delta = c.varint("cell index instance")? as u32;
        let inst = if k == 0 {
            delta
        } else {
            prev.checked_add(delta)
                .ok_or_else(|| malformed("cell instance overflow"))?
        };
        if k > 0 && delta == 0 {
            return Err(malformed("cell index instances must be strictly ascending"));
        }
        prev = inst;
        if inst as usize >= n {
            return Err(malformed("cell index instance out of range"));
        }
        let v = unzigzag(c.varint("cell index value")?);
        cols.cell_index.push((inst, v));
    }

    Ok(Trace::from_recorded(cols, outputs, termination))
}

/// Checks that regions nest: each instance's region parent is still
/// open, i.e. lies on the ancestor chain of the instance before it. The
/// interpreter keeps region parents as a stack, so every region it
/// records is a contiguous instance interval, and the region tree
/// ([`Trace::regions`]) is read as such; a parent that reopens a closed
/// region would silently mis-align. The parent pointers themselves serve
/// as the stack: the chain from `i - 1` up to `i`'s parent is closed for
/// good once `i` attaches, so each instance is stepped over at most once.
/// Parents must already be known to point backwards.
fn check_regions_nest(parent: &[u32]) -> Result<(), TraceFileError> {
    for (i, &rp) in parent.iter().enumerate().skip(1) {
        if rp == u32::MAX {
            continue;
        }
        let mut open = (i - 1) as u32;
        while open != u32::MAX && open > rp {
            open = parent[open as usize];
        }
        if open != rp {
            return Err(malformed(format!(
                "region parent of instance {i} reopens closed region {rp}"
            )));
        }
    }
    Ok(())
}

// --- file i/o ----------------------------------------------------------

/// The crash-safe sibling a save writes before renaming into place:
/// same directory (so the rename cannot cross filesystems), hidden, and
/// pid-tagged so concurrent processes never collide.
fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "omitrace".to_string());
    path.with_file_name(format!(".{name}.{}.tmp", std::process::id()))
}

/// Writes `bytes` to `tmp`, honouring injected save faults: a
/// `save=short-write` plan persists only half the image (a torn write),
/// `save=enospc` fails with a simulated out-of-space error.
fn write_with_fault_plan(tmp: &Path, bytes: &[u8]) -> Result<(), TraceFileError> {
    match crate::supervisor::fault_hit(crate::supervisor::FaultSite::Save) {
        Some(crate::supervisor::FaultAction::ShortWrite) => {
            std::fs::write(tmp, &bytes[..bytes.len() / 2])?;
            Ok(())
        }
        Some(crate::supervisor::FaultAction::Enospc) => Err(TraceFileError::Io(
            std::io::Error::other("no space left on device (injected)"),
        )),
        _ => {
            std::fs::write(tmp, bytes)?;
            Ok(())
        }
    }
}

/// Verifies that the bytes that reached the disk are exactly the bytes
/// we meant to write: full length and a trailer checksum that matches a
/// recomputation over the body. Catches torn writes *and* in-memory
/// encode corruption before the file can replace a good one.
fn verify_written(tmp: &Path, expected_len: usize) -> Result<(), TraceFileError> {
    let back = std::fs::read(tmp)?;
    if back.len() != expected_len || back.len() < MAGIC.len() + 8 {
        return Err(TraceFileError::Truncated {
            context: "save verification read-back",
        });
    }
    let body = back.len() - 8;
    let stored = u64::from_le_bytes(back[body..].try_into().expect("8 bytes"));
    let computed = fnv1a(&back[..body]);
    if stored != computed {
        return Err(TraceFileError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// Writes `trace` to `path` in `omitrace/v1` format, **atomically and
/// verified**: the image is written to a temp sibling in the target
/// directory, read back and checksum-verified, and only then renamed
/// over `path`. A crash (or injected fault) at any point leaves either
/// the old file or no file — never a partial `.omitrace`.
///
/// # Errors
///
/// Propagates filesystem errors as [`TraceFileError::Io`]; a torn write
/// caught by verification surfaces as [`TraceFileError::Truncated`] or
/// [`TraceFileError::ChecksumMismatch`]. The temp sibling is removed on
/// every failure path.
pub fn save_trace(trace: &Trace, path: &Path) -> Result<(), TraceFileError> {
    let mut bytes = encode_trace(trace);
    if crate::supervisor::fault_hit(crate::supervisor::FaultSite::Encode).is_some() {
        // Injected encode corruption: flip one body bit so the
        // read-back verification must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
    }
    let tmp = temp_sibling(path);
    let result = write_with_fault_plan(&tmp, &bytes)
        .and_then(|()| verify_written(&tmp, bytes.len()))
        .and_then(|()| std::fs::rename(&tmp, path).map_err(TraceFileError::from));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads a trace from `path`, memory-mapping the file where supported
/// (x86-64 Linux) and falling back to a buffered read elsewhere.
///
/// # Errors
///
/// Returns [`TraceFileError::Io`] for filesystem problems and the
/// structured decode errors of [`decode_trace`] for corrupt contents.
pub fn load_trace(path: &Path) -> Result<Trace, TraceFileError> {
    let bytes = crate::mmap::read_file(path)?;
    if crate::supervisor::fault_hit(crate::supervisor::FaultSite::Decode).is_some() {
        // Injected decode corruption: flip one bit in a private copy of
        // the image (the file itself is untouched, so a retry is clean).
        let mut owned = bytes.to_vec();
        if !owned.is_empty() {
            let mid = owned.len() / 2;
            owned[mid] ^= 0x40;
        }
        return decode_trace(&owned);
    }
    decode_trace(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use omislice_lang::VarId;

    fn sample() -> Trace {
        let mut e0 = Event::new(StmtId(0));
        e0.branch = Some(true);
        e0.value = Some(Value::Bool(true));
        let mut e1 = Event::new(StmtId(3));
        e1.cd_parent = Some(InstId(0));
        e1.region_parent = Some(InstId(0));
        e1.data_deps = vec![InstId(0)];
        e1.value = Some(Value::Int(-7));
        e1.def_var = Some(VarId(2));
        let mut e2 = Event::new(StmtId(5));
        e2.data_deps = vec![InstId(0), InstId(1)];
        e2.value = Some(Value::Int(123_456_789));
        e2.def_var = Some(VarId(0));
        e2.cell_index = Some(4);
        e2.call_depth = 2;
        Trace::from_parts(
            vec![e0, e1, e2],
            vec![OutputRecord {
                inst: InstId(2),
                value: Value::Int(9),
            }],
            Termination::RuntimeError(CrashKind::DivByZero, "x / 0 in S5 `print`".into()),
        )
    }

    #[test]
    fn round_trips_exactly() {
        let t = sample();
        let bytes = encode_trace(&t);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back.events_vec(), t.events_vec());
        assert_eq!(back.outputs(), t.outputs());
        assert_eq!(back.termination(), t.termination());
        assert_eq!(back.columns(), t.columns());
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::from_parts(vec![], vec![], Termination::Normal);
        let back = decode_trace(&encode_trace(&t)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.termination(), &Termination::Normal);
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = encode_trace(&sample());
        let b = encode_trace(&sample());
        assert_eq!(a, b);
    }

    /// A region parent must still be open: here instance 3 names
    /// instance 0, whose region closed when top-level instance 2 ran.
    /// Sizes summed over such a tree describe no interval, so the file
    /// is rejected instead of mis-aligning.
    #[test]
    fn rejects_reopened_regions() {
        let mk = |stmt, rp: Option<u32>| {
            let mut e = Event::new(StmtId(stmt));
            e.region_parent = rp.map(InstId);
            e
        };
        let nested = [mk(0, None), mk(1, Some(0)), mk(2, Some(1)), mk(3, Some(0))];
        let ok = Trace::from_parts(nested.to_vec(), vec![], Termination::Normal);
        assert!(decode_trace(&encode_trace(&ok)).is_ok());
        let reopened = [mk(0, None), mk(1, Some(0)), mk(2, None), mk(3, Some(0))];
        let bad = Trace::from_parts(reopened.to_vec(), vec![], Termination::Normal);
        match decode_trace(&encode_trace(&bad)) {
            Err(TraceFileError::Malformed(msg)) => {
                assert!(msg.contains("reopens closed region 0"), "{msg}")
            }
            other => panic!("accepted a reopened region: {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode_trace(&sample());
        bytes[0] = b'X';
        assert!(matches!(
            decode_trace(&bytes),
            Err(TraceFileError::BadMagic)
        ));
    }

    #[test]
    fn rejects_unsupported_version() {
        let mut bytes = encode_trace(&sample());
        bytes[8] = 99;
        // fix the checksum so version is what's reported
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_trace(&bytes),
            Err(TraceFileError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = encode_trace(&sample());
        for cut in 0..bytes.len() {
            let err = decode_trace(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceFileError::BadMagic
                        | TraceFileError::Truncated { .. }
                        | TraceFileError::ChecksumMismatch { .. }
                        | TraceFileError::Malformed(_)
                ),
                "cut at {cut} gave unexpected {err:?}"
            );
        }
    }

    #[test]
    fn rejects_bit_flips() {
        let bytes = encode_trace(&sample());
        // Flip one bit in every byte of the body: the checksum must catch
        // each (the trailer itself then mismatches the recomputation).
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                decode_trace(&corrupt).is_err(),
                "bit flip at byte {i} was not detected"
            );
        }
    }

    #[test]
    fn save_and_load_via_file() {
        let dir = std::env::temp_dir().join("omitrace-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.omitrace");
        let t = sample();
        save_trace(&t, &path).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back.events_vec(), t.events_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load_trace(Path::new("/nonexistent/trace.omitrace")).unwrap_err();
        assert!(matches!(err, TraceFileError::Io(_)));
    }

    /// No entry in `dir` looks like a leftover partial save.
    fn no_partials(dir: &Path) -> bool {
        std::fs::read_dir(dir)
            .unwrap()
            .all(|e| !e.unwrap().file_name().to_string_lossy().ends_with(".tmp"))
    }

    #[test]
    fn torn_write_never_leaves_a_partial_omitrace() {
        use crate::supervisor::{FaultPlan, FaultScope};
        let dir = std::env::temp_dir().join("omitrace-atomic-test-torn");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.omitrace");
        let t = sample();
        {
            // A mid-write crash, simulated as a torn (half-length) write.
            let plan = FaultPlan::parse("save=short-write").unwrap();
            let _scope = FaultScope::install(Some(&plan), None);
            let err = save_trace(&t, &path).unwrap_err();
            assert!(matches!(err, TraceFileError::Truncated { .. }));
        }
        // The crash-only contract: no target file, no temp litter.
        assert!(!path.exists());
        assert!(no_partials(&dir));
        // And a clean retry (the entry fired once) fully succeeds.
        save_trace(&t, &path).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back.events_vec(), t.events_vec());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_never_clobbers_an_existing_good_file() {
        use crate::supervisor::{FaultPlan, FaultScope};
        let dir = std::env::temp_dir().join("omitrace-atomic-test-clobber");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.omitrace");
        let t = sample();
        save_trace(&t, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        {
            let plan = FaultPlan::parse("save=short-write").unwrap();
            let _scope = FaultScope::install(Some(&plan), None);
            assert!(save_trace(&t, &path).is_err());
        }
        // The previous good bytes survive untouched.
        assert_eq!(std::fs::read(&path).unwrap(), good);
        assert!(no_partials(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_fails_cleanly_and_retry_succeeds() {
        use crate::supervisor::{FaultPlan, FaultScope};
        let dir = std::env::temp_dir().join("omitrace-atomic-test-enospc");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.omitrace");
        let t = sample();
        {
            let plan = FaultPlan::parse("save=enospc").unwrap();
            let _scope = FaultScope::install(Some(&plan), None);
            let err = save_trace(&t, &path).unwrap_err();
            assert!(matches!(err, TraceFileError::Io(_)));
            assert!(!path.exists());
            assert!(no_partials(&dir));
            // Retry inside the same scope: the entry already fired.
            save_trace(&t, &path).unwrap();
        }
        assert_eq!(load_trace(&path).unwrap().events_vec(), t.events_vec());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encode_corruption_is_caught_before_rename() {
        use crate::supervisor::{FaultPlan, FaultScope};
        let dir = std::env::temp_dir().join("omitrace-atomic-test-encode");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.omitrace");
        let t = sample();
        {
            let plan = FaultPlan::parse("encode=corrupt").unwrap();
            let _scope = FaultScope::install(Some(&plan), None);
            let err = save_trace(&t, &path).unwrap_err();
            assert!(matches!(err, TraceFileError::ChecksumMismatch { .. }));
        }
        assert!(!path.exists());
        assert!(no_partials(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_corruption_is_rejected_and_file_stays_clean() {
        use crate::supervisor::{FaultPlan, FaultScope};
        let dir = std::env::temp_dir().join("omitrace-atomic-test-decode");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.omitrace");
        let t = sample();
        save_trace(&t, &path).unwrap();
        {
            let plan = FaultPlan::parse("decode=corrupt").unwrap();
            let _scope = FaultScope::install(Some(&plan), None);
            assert!(load_trace(&path).is_err());
            // The corruption lived in a private copy: a second load in
            // the same scope (the entry fired) reads the intact file.
            assert_eq!(load_trace(&path).unwrap().events_vec(), t.events_vec());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_chaos_falls_back_to_buffered_read() {
        use crate::supervisor::{take_recovery, FaultPlan, FaultScope, RecoveryKind};
        let dir = std::env::temp_dir().join("omitrace-atomic-test-mmap");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.omitrace");
        let t = sample();
        save_trace(&t, &path).unwrap();
        let _ = take_recovery();
        {
            let plan = FaultPlan::parse("mmap=fail").unwrap();
            let _scope = FaultScope::install(Some(&plan), None);
            assert_eq!(load_trace(&path).unwrap().events_vec(), t.events_vec());
        }
        let log = take_recovery();
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            assert_eq!(log.count(RecoveryKind::MmapFallback), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervisor_save_retries_once_and_matches_clean_bytes() {
        use crate::supervisor::{take_recovery, FaultPlan, RecoveryKind, Supervisor};
        let dir = std::env::temp_dir().join("omitrace-atomic-test-supervised");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let t = sample();
        let clean = dir.join("clean.omitrace");
        Supervisor::new().save_trace(&t, &clean).unwrap();
        let _ = take_recovery();
        for plan in ["save=short-write", "save=enospc", "encode=corrupt"] {
            let faulted = dir.join("faulted.omitrace");
            let sup = Supervisor::new().with_fault_plan(Some(FaultPlan::parse(plan).unwrap()));
            sup.save_trace(&t, &faulted).unwrap();
            assert_eq!(
                std::fs::read(&faulted).unwrap(),
                std::fs::read(&clean).unwrap(),
                "retried save must equal clean save under `{plan}`"
            );
            std::fs::remove_file(&faulted).ok();
        }
        let log = take_recovery();
        assert_eq!(log.count(RecoveryKind::SaveRetry), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervisor_load_retries_decode_corruption() {
        use crate::supervisor::{take_recovery, FaultPlan, RecoveryKind, Supervisor};
        let dir = std::env::temp_dir().join("omitrace-atomic-test-loadretry");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.omitrace");
        let t = sample();
        save_trace(&t, &path).unwrap();
        let _ = take_recovery();
        let sup =
            Supervisor::new().with_fault_plan(Some(FaultPlan::parse("decode=corrupt").unwrap()));
        let back = sup.load_trace(&path).unwrap();
        assert_eq!(back.events_vec(), t.events_vec());
        assert_eq!(take_recovery().count(RecoveryKind::LoadRetry), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
