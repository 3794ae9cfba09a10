//! Versioned wire format for every inter-actor message.
//!
//! The Framed and SimNet transport backends (see [`crate::transport`]) push
//! each [`Payload`] through this codec, so the byte counts recorded in
//! [`crate::stats::SchedulerStats`] are *real serialized sizes*, not
//! estimates, and a decode on the far side proves the message survives a
//! transport hop intact.
//!
//! ## Envelope
//!
//! Every message is `header ‖ body`:
//!
//! | bytes | field            |
//! |-------|------------------|
//! | 0..2  | magic `0xD7 0x4B`|
//! | 2     | version (`1`)    |
//! | 3     | payload kind     |
//! | 4..8  | body length (LE) |
//!
//! ## Versioning rules
//!
//! * The header layout itself is frozen; only `version` changes meaning of
//!   the body.
//! * A decoder accepts exactly its own [`WIRE_VERSION`] and rejects anything
//!   else with [`WireError::BadVersion`] — in-process transports are always
//!   version-homogeneous, so a mismatch is a build error, not a negotiation.
//! * Within a version, enum tags are append-only: new variants take fresh
//!   tags, existing tags never change meaning. A tag bump requires a
//!   `WIRE_VERSION` bump.
//!
//! All integers are little-endian; `f64` travels as its IEEE-754 bit
//! pattern, so numeric payloads round-trip bit-exactly (the CI quickstart
//! A/B relies on this).

use crate::datum::{Datum, DatumRef};
use crate::key::Key;
use crate::msg::{Assignment, ClientMsg, DataMsg, ErrorCause, ExecMsg, SchedMsg, TaskError};
use crate::spec::{FusedInput, FusedStage, TaskSpec, Value};
use crate::transport::{Addr, DataReply, Payload, ReplyTo};
use linalg::ndarray::checked_shape_len;
use linalg::NDArray;
use std::sync::Arc;
use std::time::Instant;

/// Current wire-format version.
pub const WIRE_VERSION: u8 = 1;

/// Envelope header size in bytes.
pub const HEADER_BYTES: usize = 8;

pub(crate) const MAGIC: [u8; 2] = [0xD7, 0x4B];

/// A malformed or incompatible wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Body ended before a field was complete.
    Truncated,
    /// The two magic bytes did not match.
    BadMagic,
    /// Header version differs from [`WIRE_VERSION`].
    BadVersion(u8),
    /// Unknown enum tag.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    Utf8,
    /// A structurally invalid value (e.g. array shape/data mismatch).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire message truncated"),
            WireError::BadMagic => write!(f, "bad wire magic"),
            WireError::BadVersion(v) => {
                write!(f, "wire version {v} (this build speaks {WIRE_VERSION})")
            }
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::Utf8 => write!(f, "non-UTF-8 string field"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---- primitive writers -----------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn len(&mut self, v: usize) {
        self.u32(v as u32);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.buf.extend_from_slice(b);
    }

    /// A run of `f64`s as one little-endian byte run: the buffer grows once,
    /// with room for the few fields that follow a payload.
    fn f64s(&mut self, xs: &[f64]) {
        let start = self.buf.len();
        self.buf.reserve(xs.len() * 8 + 64);
        self.buf.resize(start + xs.len() * 8, 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(8).zip(xs) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }
}

// ---- primitive readers -----------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// How many recursive values (lists, scoped messages) enclose `pos`.
    depth: usize,
}

/// Deepest nesting of recursive values a decoder follows. Decoding recurses
/// once per level, so the bound is what keeps a frame of nested one-element
/// lists from overflowing the stack; real parameters nest a handful deep.
const MAX_NESTING: usize = 64;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Decode one recursive value's contents a level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if self.depth == MAX_NESTING {
            return Err(WireError::Malformed("nesting too deep"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// A length-prefixed list of dimensions. The count is checked against
    /// the bytes left before anything is allocated for it.
    fn shape(&mut self) -> Result<Vec<usize>, WireError> {
        let ndim = self.len()?;
        if ndim > (self.buf.len() - self.pos) / 8 {
            return Err(WireError::Truncated);
        }
        (0..ndim).map(|_| self.usize()).collect()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        Ok(self.u64()? as usize)
    }

    fn len(&mut self) -> Result<usize, WireError> {
        Ok(self.u32()? as usize)
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_owned)
            .map_err(|_| WireError::Utf8)
    }

    fn byte_vec(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---- component codecs ------------------------------------------------------

/// Length sentinel marking a session-scoped key. A real key text can never
/// reach 4 GiB (the whole frame is length-checked against the body first),
/// so default-session keys keep the seed's bare length-prefixed encoding
/// byte-for-byte while scoped keys get `MARK ‖ session ‖ text` appended
/// behind it — old frames (always session 0) decode unchanged.
const SCOPED_KEY_MARK: u32 = u32::MAX;

fn put_key(e: &mut Enc, k: &Key) {
    if k.session() == 0 {
        e.str(k.as_str());
    } else {
        e.u32(SCOPED_KEY_MARK);
        e.u32(k.session());
        e.str(k.as_str());
    }
}

fn get_key(d: &mut Dec) -> Result<Key, WireError> {
    let n = d.u32()?;
    if n == SCOPED_KEY_MARK {
        let session = d.u32()?;
        Ok(Key::scoped(session, d.str()?))
    } else {
        let text = std::str::from_utf8(d.take(n as usize)?).map_err(|_| WireError::Utf8)?;
        Ok(Key::new(text))
    }
}

fn put_datum(e: &mut Enc, v: &Datum) {
    match v {
        Datum::F64(x) => {
            e.u8(0);
            e.f64(*x);
        }
        Datum::I64(x) => {
            e.u8(1);
            e.u64(*x as u64);
        }
        Datum::Bool(b) => {
            e.u8(2);
            e.u8(*b as u8);
        }
        Datum::Str(s) => {
            e.u8(3);
            e.str(s);
        }
        Datum::Array(a) => {
            e.u8(4);
            e.len(a.shape().len());
            for dim in a.shape() {
                e.usize(*dim);
            }
            e.f64s(a.data());
        }
        Datum::List(items) => {
            e.u8(5);
            e.len(items.len());
            for item in items {
                put_datum(e, item);
            }
        }
        Datum::Bytes(b) => {
            e.u8(6);
            e.bytes(b);
        }
        Datum::Null => e.u8(7),
        Datum::Ref(r) => {
            e.u8(8);
            put_key(e, &r.key);
            e.len(r.shape.len());
            for dim in &r.shape {
                e.usize(*dim);
            }
            e.u64(r.nbytes);
            e.usize(r.holder);
            e.u64(r.epoch);
        }
    }
}

fn get_datum(d: &mut Dec) -> Result<Datum, WireError> {
    let tag = d.u8()?;
    Ok(match tag {
        0 => Datum::F64(d.f64()?),
        1 => Datum::I64(d.u64()? as i64),
        2 => Datum::Bool(d.u8()? != 0),
        3 => Datum::Str(d.str()?),
        4 => {
            let shape = d.shape()?;
            let n = checked_shape_len(&shape).ok_or(WireError::Malformed("array"))?;
            // `take` bounds the run by the remaining body before anything
            // is allocated for it.
            let run = d.take(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
            let data = run
                .chunks_exact(8)
                .map(|b| {
                    let mut le = [0u8; 8];
                    le.copy_from_slice(b);
                    f64::from_le_bytes(le)
                })
                .collect();
            Datum::Array(Arc::new(
                NDArray::from_vec(&shape, data).map_err(|_| WireError::Malformed("array"))?,
            ))
        }
        5 => d.nested(|d| {
            let n = d.len()?;
            let mut items = Vec::with_capacity(n.min(d.buf.len() - d.pos));
            for _ in 0..n {
                items.push(get_datum(d)?);
            }
            Ok(Datum::List(items))
        })?,
        6 => Datum::Bytes(d.byte_vec()?.into()),
        7 => Datum::Null,
        8 => Datum::Ref(DatumRef {
            key: get_key(d)?,
            shape: d.shape()?,
            nbytes: d.u64()?,
            holder: d.usize()?,
            epoch: d.u64()?,
        }),
        tag => return Err(WireError::BadTag { what: "datum", tag }),
    })
}

fn put_spec(e: &mut Enc, s: &TaskSpec) {
    put_key(e, &s.key);
    match &s.value {
        Value::Op { op, params } => {
            e.u8(0);
            e.str(op);
            put_datum(e, params);
        }
        Value::Fused { stages } => {
            e.u8(1);
            e.len(stages.len());
            for st in stages {
                put_key(e, &st.key);
                e.str(&st.op);
                put_datum(e, &st.params);
                e.len(st.inputs.len());
                for input in &st.inputs {
                    match input {
                        FusedInput::Dep(i) => {
                            e.u8(0);
                            e.usize(*i);
                        }
                        FusedInput::Stage(i) => {
                            e.u8(1);
                            e.usize(*i);
                        }
                    }
                }
            }
        }
    }
    e.len(s.deps.len());
    for dep in &s.deps {
        put_key(e, dep);
    }
}

fn get_spec(d: &mut Dec) -> Result<TaskSpec, WireError> {
    let key = get_key(d)?;
    let value = match d.u8()? {
        0 => {
            let op = d.str()?;
            let params = get_datum(d)?;
            Value::Op { op, params }
        }
        1 => {
            let n = d.len()?;
            let mut stages = Vec::with_capacity(n.min(d.buf.len() - d.pos));
            for _ in 0..n {
                let key = get_key(d)?;
                let op = d.str()?;
                let params = get_datum(d)?;
                let n_inputs = d.len()?;
                let mut inputs = Vec::with_capacity(n_inputs.min(d.buf.len() - d.pos));
                for _ in 0..n_inputs {
                    inputs.push(match d.u8()? {
                        0 => FusedInput::Dep(d.usize()?),
                        1 => FusedInput::Stage(d.usize()?),
                        tag => {
                            return Err(WireError::BadTag {
                                what: "fused input",
                                tag,
                            })
                        }
                    });
                }
                stages.push(FusedStage {
                    key,
                    op,
                    params,
                    inputs,
                });
            }
            Value::Fused { stages }
        }
        tag => return Err(WireError::BadTag { what: "value", tag }),
    };
    let n_deps = d.len()?;
    let mut deps = Vec::with_capacity(n_deps.min(d.buf.len() - d.pos));
    for _ in 0..n_deps {
        deps.push(get_key(d)?);
    }
    Ok(TaskSpec { key, value, deps })
}

fn put_error(e: &mut Enc, err: &TaskError) {
    put_key(e, &err.key);
    e.str(&err.message);
    match &err.cause {
        ErrorCause::Direct => e.u8(0),
        ErrorCause::FusedStage { stored_key } => {
            e.u8(1);
            put_key(e, stored_key);
        }
        ErrorCause::Propagated { via } => {
            e.u8(2);
            put_key(e, via);
        }
        ErrorCause::PeerLost => e.u8(3),
    }
}

fn get_error(d: &mut Dec) -> Result<TaskError, WireError> {
    let key = get_key(d)?;
    let message = d.str()?;
    let cause = match d.u8()? {
        0 => ErrorCause::Direct,
        1 => ErrorCause::FusedStage {
            stored_key: get_key(d)?,
        },
        2 => ErrorCause::Propagated { via: get_key(d)? },
        3 => ErrorCause::PeerLost,
        tag => {
            return Err(WireError::BadTag {
                what: "error cause",
                tag,
            })
        }
    };
    Ok(TaskError {
        key,
        message,
        cause,
    })
}

fn put_addr(e: &mut Enc, a: Addr) {
    match a {
        Addr::Scheduler => e.u8(0),
        Addr::WorkerData(w) => {
            e.u8(1);
            e.usize(w);
        }
        Addr::WorkerExec(w) => {
            e.u8(2);
            e.usize(w);
        }
        Addr::Client(c) => {
            e.u8(3);
            e.usize(c);
        }
        Addr::Control => e.u8(4),
    }
}

fn get_addr(d: &mut Dec) -> Result<Addr, WireError> {
    Ok(match d.u8()? {
        0 => Addr::Scheduler,
        1 => Addr::WorkerData(d.usize()?),
        2 => Addr::WorkerExec(d.usize()?),
        3 => Addr::Client(d.usize()?),
        4 => Addr::Control,
        tag => return Err(WireError::BadTag { what: "addr", tag }),
    })
}

fn put_reply_to(e: &mut Enc, r: &ReplyTo) {
    put_addr(e, r.addr);
    e.u64(r.corr);
}

fn get_reply_to(d: &mut Dec) -> Result<ReplyTo, WireError> {
    Ok(ReplyTo {
        addr: get_addr(d)?,
        corr: d.u64()?,
    })
}

fn put_assignment(e: &mut Enc, a: &Assignment) {
    put_spec(e, &a.spec);
    e.len(a.dep_locations.len());
    for (key, holders) in &a.dep_locations {
        put_key(e, key);
        e.len(holders.len());
        for w in holders {
            e.usize(*w);
        }
    }
    // `assigned_at` deliberately stays off the wire (see `Assignment` docs).
}

fn get_assignment(d: &mut Dec) -> Result<Assignment, WireError> {
    let spec = Arc::new(get_spec(d)?);
    let n = d.len()?;
    let mut dep_locations = Vec::with_capacity(n.min(d.buf.len() - d.pos));
    for _ in 0..n {
        let key = get_key(d)?;
        let n_holders = d.len()?;
        let mut holders = Vec::with_capacity(n_holders.min(d.buf.len() - d.pos));
        for _ in 0..n_holders {
            holders.push(d.usize()?);
        }
        dep_locations.push((key, holders));
    }
    Ok(Assignment {
        spec,
        dep_locations,
        assigned_at: Instant::now(),
    })
}

fn put_sched(e: &mut Enc, m: &SchedMsg) {
    match m {
        SchedMsg::ClientConnect { client } => {
            e.u8(0);
            e.usize(*client);
        }
        SchedMsg::ClientDisconnect { client } => {
            e.u8(1);
            e.usize(*client);
        }
        SchedMsg::SubmitGraph { client, specs } => {
            e.u8(2);
            e.usize(*client);
            e.len(specs.len());
            for s in specs {
                put_spec(e, s);
            }
        }
        SchedMsg::RegisterExternal { client, keys } => {
            e.u8(3);
            e.usize(*client);
            e.len(keys.len());
            for k in keys {
                put_key(e, k);
            }
        }
        SchedMsg::UpdateData {
            client,
            entries,
            external,
        } => {
            e.u8(4);
            e.usize(*client);
            e.len(entries.len());
            for (k, w, nbytes) in entries {
                put_key(e, k);
                e.usize(*w);
                e.u64(*nbytes);
            }
            e.u8(*external as u8);
        }
        SchedMsg::TaskFinished {
            worker,
            key,
            nbytes,
        } => {
            e.u8(5);
            e.usize(*worker);
            put_key(e, key);
            e.u64(*nbytes);
        }
        SchedMsg::AddReplica { worker, entries } => {
            e.u8(6);
            e.usize(*worker);
            e.len(entries.len());
            for (k, nbytes) in entries {
                put_key(e, k);
                e.u64(*nbytes);
            }
        }
        SchedMsg::TaskErred {
            worker,
            stored_key,
            error,
            failed_peer,
        } => {
            e.u8(7);
            e.usize(*worker);
            put_key(e, stored_key);
            put_error(e, error);
            match failed_peer {
                None => e.u8(0),
                Some(peer) => {
                    e.u8(1);
                    e.usize(*peer);
                }
            }
        }
        SchedMsg::WantResult { client, key } => {
            e.u8(8);
            e.usize(*client);
            put_key(e, key);
        }
        SchedMsg::ReleaseKeys { keys } => {
            e.u8(9);
            e.len(keys.len());
            for k in keys {
                put_key(e, k);
            }
        }
        SchedMsg::VariableSet { name, value } => {
            e.u8(10);
            e.str(name);
            put_datum(e, value);
        }
        SchedMsg::VariableGet { client, name, wait } => {
            e.u8(11);
            e.usize(*client);
            e.str(name);
            e.u8(*wait as u8);
        }
        SchedMsg::VariableDel { name } => {
            e.u8(12);
            e.str(name);
        }
        SchedMsg::QueuePush { name, value } => {
            e.u8(13);
            e.str(name);
            put_datum(e, value);
        }
        SchedMsg::QueuePop { client, name } => {
            e.u8(14);
            e.usize(*client);
            e.str(name);
        }
        SchedMsg::Heartbeat { client } => {
            e.u8(15);
            e.usize(*client);
        }
        SchedMsg::Shutdown => e.u8(16),
        SchedMsg::WorkerHeartbeat { worker } => {
            e.u8(17);
            e.usize(*worker);
        }
        SchedMsg::StealRequest { worker } => {
            e.u8(18);
            e.usize(*worker);
        }
        SchedMsg::Stolen {
            victim,
            thief,
            keys,
        } => {
            e.u8(19);
            e.usize(*victim);
            e.usize(*thief);
            e.len(keys.len());
            for k in keys {
                put_key(e, k);
            }
        }
        SchedMsg::RegisterWorker { worker, slots } => {
            e.u8(20);
            e.usize(*worker);
            e.usize(*slots);
        }
        SchedMsg::Scoped { session, inner } => {
            e.u8(21);
            e.u32(*session);
            put_sched(e, inner);
        }
    }
}

fn get_sched(d: &mut Dec) -> Result<SchedMsg, WireError> {
    Ok(match d.u8()? {
        0 => SchedMsg::ClientConnect { client: d.usize()? },
        1 => SchedMsg::ClientDisconnect { client: d.usize()? },
        2 => {
            let client = d.usize()?;
            let n = d.len()?;
            let mut specs = Vec::with_capacity(n.min(d.buf.len() - d.pos));
            for _ in 0..n {
                specs.push(get_spec(d)?);
            }
            SchedMsg::SubmitGraph { client, specs }
        }
        3 => {
            let client = d.usize()?;
            let n = d.len()?;
            let mut keys = Vec::with_capacity(n.min(d.buf.len() - d.pos));
            for _ in 0..n {
                keys.push(get_key(d)?);
            }
            SchedMsg::RegisterExternal { client, keys }
        }
        4 => {
            let client = d.usize()?;
            let n = d.len()?;
            let mut entries = Vec::with_capacity(n.min(d.buf.len() - d.pos));
            for _ in 0..n {
                let k = get_key(d)?;
                let w = d.usize()?;
                let nbytes = d.u64()?;
                entries.push((k, w, nbytes));
            }
            let external = d.u8()? != 0;
            SchedMsg::UpdateData {
                client,
                entries,
                external,
            }
        }
        5 => SchedMsg::TaskFinished {
            worker: d.usize()?,
            key: get_key(d)?,
            nbytes: d.u64()?,
        },
        6 => {
            let worker = d.usize()?;
            let n = d.len()?;
            let mut entries = Vec::with_capacity(n.min(d.buf.len() - d.pos));
            for _ in 0..n {
                let k = get_key(d)?;
                let nbytes = d.u64()?;
                entries.push((k, nbytes));
            }
            SchedMsg::AddReplica { worker, entries }
        }
        7 => SchedMsg::TaskErred {
            worker: d.usize()?,
            stored_key: get_key(d)?,
            error: get_error(d)?,
            failed_peer: match d.u8()? {
                0 => None,
                1 => Some(d.usize()?),
                tag => {
                    return Err(WireError::BadTag {
                        what: "failed_peer",
                        tag,
                    })
                }
            },
        },
        8 => SchedMsg::WantResult {
            client: d.usize()?,
            key: get_key(d)?,
        },
        9 => {
            let n = d.len()?;
            let mut keys = Vec::with_capacity(n.min(d.buf.len() - d.pos));
            for _ in 0..n {
                keys.push(get_key(d)?);
            }
            SchedMsg::ReleaseKeys { keys }
        }
        10 => SchedMsg::VariableSet {
            name: d.str()?,
            value: get_datum(d)?,
        },
        11 => SchedMsg::VariableGet {
            client: d.usize()?,
            name: d.str()?,
            wait: d.u8()? != 0,
        },
        12 => SchedMsg::VariableDel { name: d.str()? },
        13 => SchedMsg::QueuePush {
            name: d.str()?,
            value: get_datum(d)?,
        },
        14 => SchedMsg::QueuePop {
            client: d.usize()?,
            name: d.str()?,
        },
        15 => SchedMsg::Heartbeat { client: d.usize()? },
        16 => SchedMsg::Shutdown,
        17 => SchedMsg::WorkerHeartbeat { worker: d.usize()? },
        18 => SchedMsg::StealRequest { worker: d.usize()? },
        19 => {
            let victim = d.usize()?;
            let thief = d.usize()?;
            let n = d.len()?;
            let mut keys = Vec::with_capacity(n.min(d.buf.len() - d.pos));
            for _ in 0..n {
                keys.push(get_key(d)?);
            }
            SchedMsg::Stolen {
                victim,
                thief,
                keys,
            }
        }
        20 => SchedMsg::RegisterWorker {
            worker: d.usize()?,
            slots: d.usize()?,
        },
        21 => SchedMsg::Scoped {
            session: d.u32()?,
            inner: Box::new(d.nested(get_sched)?),
        },
        tag => {
            return Err(WireError::BadTag {
                what: "sched msg",
                tag,
            })
        }
    })
}

fn put_exec(e: &mut Enc, m: &ExecMsg) {
    match m {
        ExecMsg::Execute(a) => {
            e.u8(0);
            put_assignment(e, a);
        }
        ExecMsg::ExecuteBatch { tasks } => {
            e.u8(1);
            e.len(tasks.len());
            for a in tasks {
                put_assignment(e, a);
            }
        }
        ExecMsg::Shutdown => e.u8(2),
        ExecMsg::Steal { thief, max } => {
            e.u8(3);
            e.usize(*thief);
            e.usize(*max);
        }
    }
}

fn get_exec(d: &mut Dec) -> Result<ExecMsg, WireError> {
    Ok(match d.u8()? {
        0 => ExecMsg::Execute(get_assignment(d)?),
        1 => {
            let n = d.len()?;
            let mut tasks = Vec::with_capacity(n.min(d.buf.len() - d.pos));
            for _ in 0..n {
                tasks.push(get_assignment(d)?);
            }
            ExecMsg::ExecuteBatch { tasks }
        }
        2 => ExecMsg::Shutdown,
        3 => ExecMsg::Steal {
            thief: d.usize()?,
            max: d.usize()?,
        },
        tag => {
            return Err(WireError::BadTag {
                what: "exec msg",
                tag,
            })
        }
    })
}

fn put_data(e: &mut Enc, m: &DataMsg) {
    match m {
        DataMsg::Put { key, value, ack } => {
            e.u8(0);
            put_key(e, key);
            put_datum(e, value);
            put_reply_to(e, ack);
        }
        DataMsg::Get { key, reply } => {
            e.u8(1);
            put_key(e, key);
            put_reply_to(e, reply);
        }
        DataMsg::Delete { keys } => {
            e.u8(2);
            e.len(keys.len());
            for k in keys {
                put_key(e, k);
            }
        }
        DataMsg::Stats { reply } => {
            e.u8(3);
            put_reply_to(e, reply);
        }
        DataMsg::Shutdown => e.u8(4),
        DataMsg::Fetch { key, reply } => {
            e.u8(5);
            put_key(e, key);
            put_reply_to(e, reply);
        }
        DataMsg::Sweep { session } => {
            e.u8(6);
            e.u32(*session);
        }
    }
}

fn get_data(d: &mut Dec) -> Result<DataMsg, WireError> {
    Ok(match d.u8()? {
        0 => DataMsg::Put {
            key: get_key(d)?,
            value: get_datum(d)?,
            ack: get_reply_to(d)?,
        },
        1 => DataMsg::Get {
            key: get_key(d)?,
            reply: get_reply_to(d)?,
        },
        2 => {
            let n = d.len()?;
            let mut keys = Vec::with_capacity(n.min(d.buf.len() - d.pos));
            for _ in 0..n {
                keys.push(get_key(d)?);
            }
            DataMsg::Delete { keys }
        }
        3 => DataMsg::Stats {
            reply: get_reply_to(d)?,
        },
        4 => DataMsg::Shutdown,
        5 => DataMsg::Fetch {
            key: get_key(d)?,
            reply: get_reply_to(d)?,
        },
        6 => DataMsg::Sweep { session: d.u32()? },
        tag => {
            return Err(WireError::BadTag {
                what: "data msg",
                tag,
            })
        }
    })
}

fn put_client(e: &mut Enc, m: &ClientMsg) {
    match m {
        ClientMsg::KeyReady { key, location } => {
            e.u8(0);
            put_key(e, key);
            match location {
                Ok(w) => {
                    e.u8(0);
                    e.usize(*w);
                }
                Err(err) => {
                    e.u8(1);
                    put_error(e, err);
                }
            }
        }
        ClientMsg::VariableValue { name, value, found } => {
            e.u8(1);
            e.str(name);
            put_datum(e, value);
            e.u8(*found as u8);
        }
        ClientMsg::QueueItem { name, value } => {
            e.u8(2);
            e.str(name);
            put_datum(e, value);
        }
        ClientMsg::SubmitOutcome {
            accepted,
            inflight,
            cap,
        } => {
            e.u8(3);
            e.u8(*accepted as u8);
            e.u64(*inflight);
            e.u64(*cap);
        }
    }
}

fn get_client(d: &mut Dec) -> Result<ClientMsg, WireError> {
    Ok(match d.u8()? {
        0 => {
            let key = get_key(d)?;
            let location = match d.u8()? {
                0 => Ok(d.usize()?),
                1 => Err(get_error(d)?),
                tag => {
                    return Err(WireError::BadTag {
                        what: "key location",
                        tag,
                    })
                }
            };
            ClientMsg::KeyReady { key, location }
        }
        1 => ClientMsg::VariableValue {
            name: d.str()?,
            value: get_datum(d)?,
            found: d.u8()? != 0,
        },
        2 => ClientMsg::QueueItem {
            name: d.str()?,
            value: get_datum(d)?,
        },
        3 => ClientMsg::SubmitOutcome {
            accepted: d.u8()? != 0,
            inflight: d.u64()?,
            cap: d.u64()?,
        },
        tag => {
            return Err(WireError::BadTag {
                what: "client msg",
                tag,
            })
        }
    })
}

fn put_data_reply(e: &mut Enc, r: &DataReply) {
    match r {
        DataReply::PutAck => e.u8(0),
        DataReply::Value(Ok(v)) => {
            e.u8(1);
            put_datum(e, v);
        }
        DataReply::Value(Err(msg)) => {
            e.u8(2);
            e.str(msg);
        }
        DataReply::Stats { keys, bytes } => {
            e.u8(3);
            e.u64(*keys);
            e.u64(*bytes);
        }
    }
}

fn get_data_reply(d: &mut Dec) -> Result<DataReply, WireError> {
    Ok(match d.u8()? {
        0 => DataReply::PutAck,
        1 => DataReply::Value(Ok(get_datum(d)?)),
        2 => DataReply::Value(Err(d.str()?)),
        3 => DataReply::Stats {
            keys: d.u64()?,
            bytes: d.u64()?,
        },
        tag => {
            return Err(WireError::BadTag {
                what: "data reply",
                tag,
            })
        }
    })
}

// ---- envelope --------------------------------------------------------------

fn payload_kind(p: &Payload) -> u8 {
    match p {
        Payload::Sched(_) => 0,
        Payload::Exec(_) => 1,
        Payload::Data(_) => 2,
        Payload::Client(_) => 3,
        Payload::Reply { .. } => 4,
    }
}

/// Serialize one transport payload into a framed envelope.
pub fn encode(p: &Payload) -> Vec<u8> {
    let mut body = Enc::new();
    match p {
        Payload::Sched(m) => put_sched(&mut body, m),
        Payload::Exec(m) => put_exec(&mut body, m),
        Payload::Data(m) => put_data(&mut body, m),
        Payload::Client(m) => put_client(&mut body, m),
        Payload::Reply { corr, reply } => {
            body.u64(*corr);
            put_data_reply(&mut body, reply);
        }
    }
    let mut out = Vec::with_capacity(HEADER_BYTES + body.buf.len());
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(payload_kind(p));
    out.extend_from_slice(&(body.buf.len() as u32).to_le_bytes());
    out.extend_from_slice(&body.buf);
    out
}

/// Parse a framed envelope back into a transport payload.
pub fn decode(bytes: &[u8]) -> Result<Payload, WireError> {
    if bytes.len() < HEADER_BYTES {
        return Err(WireError::Truncated);
    }
    if bytes[0..2] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if bytes[2] != WIRE_VERSION {
        return Err(WireError::BadVersion(bytes[2]));
    }
    let kind = bytes[3];
    let body_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    if bytes.len() != HEADER_BYTES + body_len {
        return Err(WireError::Truncated);
    }
    let mut d = Dec::new(&bytes[HEADER_BYTES..]);
    let payload = match kind {
        0 => Payload::Sched(get_sched(&mut d)?),
        1 => Payload::Exec(get_exec(&mut d)?),
        2 => Payload::Data(get_data(&mut d)?),
        3 => Payload::Client(get_client(&mut d)?),
        4 => Payload::Reply {
            corr: d.u64()?,
            reply: get_data_reply(&mut d)?,
        },
        tag => {
            return Err(WireError::BadTag {
                what: "payload kind",
                tag,
            })
        }
    };
    if !d.done() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(payload)
}

// ---- deployment control messages -------------------------------------------

/// Envelope payload kind of [`NodeMsg`] control frames. Kinds `0..=4` carry
/// the in-cluster [`Payload`] variants; kind `5` is deployment-plane control
/// traffic (registration handshake, teardown, remote reply cancellation) and
/// never reaches [`decode`] — socket readers peek the kind byte and route
/// kind-5 envelopes to [`decode_node`] instead.
pub const NODE_KIND: u8 = 5;

/// Deployment-plane control messages exchanged between a worker process
/// (`dtask-node`) and the cluster hub. These ride the same versioned
/// envelope as [`Payload`] (kind [`NODE_KIND`]) so version/magic checking is
/// uniform, but they are *not* part of the in-cluster message flow and are
/// excluded from per-lane wire accounting.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeMsg {
    /// First frame a dialing worker process sends: announce capacity. The
    /// hub answers with `Welcome` (assigning the worker id) or `Goodbye`.
    Hello {
        /// Executor slots this process will run.
        slots: usize,
        /// Store memory budget in bytes (`None` = unbounded).
        mem_budget: Option<u64>,
        /// Free-form capability strings (forward-compatible; the hub
        /// currently records but does not interpret them).
        capabilities: Vec<String>,
    },
    /// Hub → node: registration accepted, with the cluster config the node
    /// needs to size its local runtime.
    Welcome(NodeWelcome),
    /// Either side announces orderly teardown (hub → node at cluster
    /// shutdown; hub → node at handshake rejection).
    Goodbye {
        /// Human-readable reason, logged by the receiver.
        reason: String,
    },
    /// Hub → node: a reply slot the node is waiting on can never be
    /// fulfilled (the target process died). The node cancels the local
    /// correlation so the waiter observes the standard hung-peer error.
    Cancel {
        /// Correlation id in the *receiving node's* reply space.
        corr: u64,
    },
}

/// The cluster config a node receives in [`NodeMsg::Welcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeWelcome {
    /// Assigned worker id.
    pub worker: usize,
    /// Total worker count in the cluster (sizes peer routing tables).
    pub n_workers: usize,
    /// Executor slots the node must run (hub may clamp the announced
    /// value).
    pub slots: usize,
    /// Worker heartbeat interval in milliseconds; `0` disables pinging.
    pub heartbeat_ms: u64,
    /// Store memory budget the hub wants applied (`None` = keep the
    /// node's own setting).
    pub mem_budget: Option<u64>,
    /// Executor steal-poll interval in milliseconds, mirroring the hub's
    /// `PolicyConfig::steal_poll`; `0` disables stealing. Appended after
    /// the original fields: a `Welcome` that ends before it decodes as `0`.
    pub steal_poll_ms: u64,
}

/// Serialize one [`NodeMsg`] into a framed kind-5 envelope.
pub fn encode_node(m: &NodeMsg) -> Vec<u8> {
    let mut body = Enc::new();
    match m {
        NodeMsg::Hello {
            slots,
            mem_budget,
            capabilities,
        } => {
            body.u8(0);
            body.usize(*slots);
            match mem_budget {
                None => body.u8(0),
                Some(b) => {
                    body.u8(1);
                    body.u64(*b);
                }
            }
            body.len(capabilities.len());
            for c in capabilities {
                body.str(c);
            }
        }
        NodeMsg::Welcome(w) => {
            body.u8(1);
            body.usize(w.worker);
            body.usize(w.n_workers);
            body.usize(w.slots);
            body.u64(w.heartbeat_ms);
            match w.mem_budget {
                None => body.u8(0),
                Some(b) => {
                    body.u8(1);
                    body.u64(b);
                }
            }
            body.u64(w.steal_poll_ms);
        }
        NodeMsg::Goodbye { reason } => {
            body.u8(2);
            body.str(reason);
        }
        NodeMsg::Cancel { corr } => {
            body.u8(3);
            body.u64(*corr);
        }
    }
    let mut out = Vec::with_capacity(HEADER_BYTES + body.buf.len());
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(NODE_KIND);
    out.extend_from_slice(&(body.buf.len() as u32).to_le_bytes());
    out.extend_from_slice(&body.buf);
    out
}

/// Parse a framed kind-5 envelope back into a [`NodeMsg`].
pub fn decode_node(bytes: &[u8]) -> Result<NodeMsg, WireError> {
    if bytes.len() < HEADER_BYTES {
        return Err(WireError::Truncated);
    }
    if bytes[0..2] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if bytes[2] != WIRE_VERSION {
        return Err(WireError::BadVersion(bytes[2]));
    }
    if bytes[3] != NODE_KIND {
        return Err(WireError::BadTag {
            what: "node payload kind",
            tag: bytes[3],
        });
    }
    let body_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    if bytes.len() != HEADER_BYTES + body_len {
        return Err(WireError::Truncated);
    }
    let mut d = Dec::new(&bytes[HEADER_BYTES..]);
    let msg = match d.u8()? {
        0 => {
            let slots = d.usize()?;
            let mem_budget = match d.u8()? {
                0 => None,
                1 => Some(d.u64()?),
                tag => {
                    return Err(WireError::BadTag {
                        what: "mem_budget",
                        tag,
                    })
                }
            };
            let n = d.len()?;
            let mut capabilities = Vec::with_capacity(n.min(d.buf.len() - d.pos));
            for _ in 0..n {
                capabilities.push(d.str()?);
            }
            NodeMsg::Hello {
                slots,
                mem_budget,
                capabilities,
            }
        }
        1 => {
            let worker = d.usize()?;
            let n_workers = d.usize()?;
            let slots = d.usize()?;
            let heartbeat_ms = d.u64()?;
            let mem_budget = match d.u8()? {
                0 => None,
                1 => Some(d.u64()?),
                tag => {
                    return Err(WireError::BadTag {
                        what: "mem_budget",
                        tag,
                    })
                }
            };
            let steal_poll_ms = if d.done() { 0 } else { d.u64()? };
            NodeMsg::Welcome(NodeWelcome {
                worker,
                n_workers,
                slots,
                heartbeat_ms,
                mem_budget,
                steal_poll_ms,
            })
        }
        2 => NodeMsg::Goodbye { reason: d.str()? },
        3 => NodeMsg::Cancel { corr: d.u64()? },
        tag => {
            return Err(WireError::BadTag {
                what: "node msg",
                tag,
            })
        }
    };
    if !d.done() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(msg)
}

// ---- standalone codecs (test surface) --------------------------------------

/// Encode a bare [`Key`] (length-prefixed text).
pub fn encode_key(k: &Key) -> Vec<u8> {
    let mut e = Enc::new();
    put_key(&mut e, k);
    e.buf
}

/// Decode a bare [`Key`].
pub fn decode_key(bytes: &[u8]) -> Result<Key, WireError> {
    let mut d = Dec::new(bytes);
    let k = get_key(&mut d)?;
    if !d.done() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(k)
}

/// Encode a bare [`Datum`].
pub fn encode_datum(v: &Datum) -> Vec<u8> {
    let mut e = Enc::new();
    put_datum(&mut e, v);
    e.buf
}

/// Decode a bare [`Datum`].
pub fn decode_datum(bytes: &[u8]) -> Result<Datum, WireError> {
    let mut d = Dec::new(bytes);
    let v = get_datum(&mut d)?;
    if !d.done() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(v)
}

/// Encode a bare [`TaskSpec`].
pub fn encode_spec(s: &TaskSpec) -> Vec<u8> {
    let mut e = Enc::new();
    put_spec(&mut e, s);
    e.buf
}

/// Decode a bare [`TaskSpec`].
pub fn decode_spec(bytes: &[u8]) -> Result<TaskSpec, WireError> {
    let mut d = Dec::new(bytes);
    let s = get_spec(&mut d)?;
    if !d.done() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(s)
}

/// Encode a bare [`TaskError`] (including its structured cause).
pub fn encode_error(err: &TaskError) -> Vec<u8> {
    let mut e = Enc::new();
    put_error(&mut e, err);
    e.buf
}

/// Decode a bare [`TaskError`].
pub fn decode_error(bytes: &[u8]) -> Result<TaskError, WireError> {
    let mut d = Dec::new(bytes);
    let err = get_error(&mut d)?;
    if !d.done() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ErrorCause;

    #[test]
    fn envelope_round_trip_and_header_checks() {
        let msg = Payload::Sched(SchedMsg::Heartbeat { client: 7 });
        let bytes = encode(&msg);
        assert_eq!(&bytes[0..2], &MAGIC);
        assert_eq!(bytes[2], WIRE_VERSION);
        match decode(&bytes).unwrap() {
            Payload::Sched(SchedMsg::Heartbeat { client }) => assert_eq!(client, 7),
            _ => panic!("wrong payload"),
        }

        let mut bad = bytes.clone();
        bad[2] = WIRE_VERSION + 1;
        assert_eq!(
            decode(&bad).err(),
            Some(WireError::BadVersion(WIRE_VERSION + 1))
        );
        let mut bad = bytes.clone();
        bad[0] = 0;
        assert_eq!(decode(&bad).err(), Some(WireError::BadMagic));
        assert_eq!(decode(&bytes[..4]).err(), Some(WireError::Truncated));
    }

    #[test]
    fn datum_round_trips_bit_exactly() {
        let arr = NDArray::from_fn(&[3, 2], |idx| idx[0] as f64 * 10.0 + idx[1] as f64);
        let v = Datum::List(vec![
            Datum::F64(-0.0),
            Datum::F64(f64::MIN_POSITIVE),
            Datum::I64(-42),
            Datum::Bool(true),
            Datum::Str("schrödinger".into()),
            Datum::Array(Arc::new(arr)),
            Datum::Bytes(vec![0, 255, 7].into()),
            Datum::Null,
        ]);
        let bytes = encode_datum(&v);
        let back = decode_datum(&bytes).unwrap();
        // Datum has no PartialEq; a deterministic encoder makes re-encoding
        // a faithful equality check.
        assert_eq!(encode_datum(&back), bytes);
        let Datum::List(items) = back else {
            panic!("list expected")
        };
        assert_eq!(items[0].as_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        let Datum::Array(a) = &items[5] else {
            panic!("array expected")
        };
        assert_eq!(a.shape(), &[3, 2]);
        assert_eq!(a.get(&[2, 1]), 21.0);
    }

    #[test]
    fn error_cause_survives_round_trip() {
        for cause in [
            ErrorCause::Direct,
            ErrorCause::FusedStage {
                stored_key: Key::new("tail"),
            },
            ErrorCause::Propagated {
                via: Key::new("mid"),
            },
            ErrorCause::PeerLost,
        ] {
            let err = TaskError::new("origin", "kaboom").with_cause(cause.clone());
            let back = decode_error(&encode_error(&err)).unwrap();
            assert_eq!(back, err);
            assert_eq!(back.cause, cause);
        }
    }

    #[test]
    fn worker_heartbeat_round_trips() {
        let bytes = encode(&Payload::Sched(SchedMsg::WorkerHeartbeat { worker: 3 }));
        match decode(&bytes).unwrap() {
            Payload::Sched(SchedMsg::WorkerHeartbeat { worker }) => assert_eq!(worker, 3),
            _ => panic!("wrong payload"),
        }
    }

    #[test]
    fn steal_messages_round_trip_and_stay_control_sized() {
        let bytes = encode(&Payload::Sched(SchedMsg::StealRequest { worker: 5 }));
        match decode(&bytes).unwrap() {
            Payload::Sched(SchedMsg::StealRequest { worker }) => assert_eq!(worker, 5),
            _ => panic!("wrong payload"),
        }

        let stolen = Payload::Sched(SchedMsg::Stolen {
            victim: 2,
            thief: 7,
            keys: (0..8)
                .map(|i| Key::new(format!("block-{i}-step-42")))
                .collect(),
        });
        let bytes = encode(&stolen);
        match decode(&bytes).unwrap() {
            Payload::Sched(SchedMsg::Stolen {
                victim,
                thief,
                keys,
            }) => {
                assert_eq!((victim, thief), (2, 7));
                assert_eq!(keys.len(), 8);
                assert_eq!(keys[3].as_str(), "block-3-step-42");
            }
            _ => panic!("wrong payload"),
        }
        assert!(
            (bytes.len() as u64) <= netsim::sizing::CTRL_MSG_BYTES,
            "steal reports are control-sized"
        );

        let bytes = encode(&Payload::Exec(ExecMsg::Steal { thief: 1, max: 4 }));
        match decode(&bytes).unwrap() {
            Payload::Exec(ExecMsg::Steal { thief, max }) => assert_eq!((thief, max), (1, 4)),
            _ => panic!("wrong payload"),
        }
        assert!((bytes.len() as u64) <= netsim::sizing::CTRL_MSG_BYTES);
    }

    #[test]
    fn register_worker_round_trips() {
        let bytes = encode(&Payload::Sched(SchedMsg::RegisterWorker {
            worker: 4,
            slots: 3,
        }));
        match decode(&bytes).unwrap() {
            Payload::Sched(SchedMsg::RegisterWorker { worker, slots }) => {
                assert_eq!((worker, slots), (4, 3));
            }
            _ => panic!("wrong payload"),
        }
    }

    #[test]
    fn node_msgs_round_trip_on_kind_5() {
        let msgs = [
            NodeMsg::Hello {
                slots: 2,
                mem_budget: Some(1 << 20),
                capabilities: vec!["darray".into(), "h5".into()],
            },
            NodeMsg::Welcome(NodeWelcome {
                worker: 1,
                n_workers: 3,
                slots: 2,
                heartbeat_ms: 50,
                mem_budget: None,
                steal_poll_ms: 2,
            }),
            NodeMsg::Goodbye {
                reason: "cluster shutdown".into(),
            },
            NodeMsg::Cancel { corr: 99 },
        ];
        for m in &msgs {
            let bytes = encode_node(m);
            assert_eq!(bytes[3], NODE_KIND);
            assert_eq!(&decode_node(&bytes).unwrap(), m);
            // Kind 5 is deployment-plane only: the in-cluster decoder must
            // reject it rather than alias some Payload variant.
            assert_eq!(
                decode(&bytes).err(),
                Some(WireError::BadTag {
                    what: "payload kind",
                    tag: NODE_KIND,
                })
            );
        }
    }

    #[test]
    fn welcome_without_appended_steal_poll_decodes_as_off() {
        // What a hub from before the field sends: the same body, 8 bytes
        // shorter.
        let mut bytes = encode_node(&NodeMsg::Welcome(NodeWelcome {
            worker: 1,
            n_workers: 3,
            slots: 2,
            heartbeat_ms: 50,
            mem_budget: None,
            steal_poll_ms: 7,
        }));
        bytes.truncate(bytes.len() - 8);
        let body_len = (bytes.len() - HEADER_BYTES) as u32;
        bytes[4..8].copy_from_slice(&body_len.to_le_bytes());
        match decode_node(&bytes).unwrap() {
            NodeMsg::Welcome(w) => assert_eq!(w.steal_poll_ms, 0),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn fused_spec_round_trips() {
        let spec = TaskSpec::fused(
            "tail",
            vec![
                FusedStage {
                    key: Key::new("head"),
                    op: "identity".into(),
                    params: Datum::Null,
                    inputs: vec![FusedInput::Dep(0)],
                },
                FusedStage {
                    key: Key::new("tail"),
                    op: "bump".into(),
                    params: Datum::F64(2.0),
                    inputs: vec![FusedInput::Stage(0), FusedInput::Dep(1)],
                },
            ],
            vec![Key::new("ext-a"), Key::new("ext-b")],
        );
        let back = decode_spec(&encode_spec(&spec)).unwrap();
        assert_eq!(back.key, spec.key);
        assert_eq!(back.deps, spec.deps);
        let Value::Fused { stages } = &back.value else {
            panic!("fused expected")
        };
        assert_eq!(stages.len(), 2);
        assert_eq!(
            stages[1].inputs,
            vec![FusedInput::Stage(0), FusedInput::Dep(1)]
        );
        assert_eq!(encode_spec(&back), encode_spec(&spec));
    }

    #[test]
    fn ref_handle_and_fetch_round_trip() {
        // Tag 8: a proxy handle nested in a list — exactly how it rides in
        // VariableSet / task params.
        let handle = DatumRef {
            key: Key::new("proxy:c3:17"),
            shape: vec![160, 160],
            nbytes: 160 * 160 * 8,
            holder: 2,
            epoch: 17,
        };
        let v = Datum::List(vec![Datum::Ref(handle.clone()), Datum::F64(1.5)]);
        let bytes = encode_datum(&v);
        let back = decode_datum(&bytes).unwrap();
        assert_eq!(encode_datum(&back), bytes);
        assert_eq!(back.as_list().unwrap()[0].as_ref_handle(), Some(&handle));
        // The handle is control-path small regardless of the payload size.
        assert!(
            (bytes.len() as u64) < handle.nbytes / 100,
            "handle must be tiny next to its payload"
        );
        for cut in 0..bytes.len() {
            assert!(decode_datum(&bytes[..cut]).is_err(), "cut at {cut}");
        }

        // Tag 5 on the data lane: the resolution request.
        let msg = Payload::Data(DataMsg::Fetch {
            key: Key::new("proxy:c3:17"),
            reply: ReplyTo {
                addr: Addr::WorkerData(1),
                corr: 99,
            },
        });
        let framed = encode(&msg);
        match decode(&framed).unwrap() {
            Payload::Data(DataMsg::Fetch { key, reply }) => {
                assert_eq!(key.as_str(), "proxy:c3:17");
                assert_eq!(reply.addr, Addr::WorkerData(1));
                assert_eq!(reply.corr, 99);
            }
            _ => panic!("wrong payload"),
        }
        assert!(
            (framed.len() as u64) <= netsim::sizing::CTRL_MSG_BYTES,
            "fetch requests are control-sized"
        );
    }

    #[test]
    fn default_session_key_encodes_as_bare_string() {
        // The seed wire format was `u32 len ‖ text`; session-0 keys must
        // stay byte-identical so pre-tenancy frames and accounting hold.
        let k = Key::new("sim-block-3");
        let bytes = encode_key(&k);
        let mut seed = ("sim-block-3".len() as u32).to_le_bytes().to_vec();
        seed.extend_from_slice(b"sim-block-3");
        assert_eq!(bytes, seed);
        assert_eq!(decode_key(&bytes).unwrap(), k);
    }

    #[test]
    fn scoped_keys_round_trip_with_session() {
        let k = Key::scoped(7, "sink");
        let bytes = encode_key(&k);
        let back = decode_key(&bytes).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.session(), 7);
        assert_eq!(back.as_str(), "sink");
        // The scoped encoding is distinguishable from any bare string.
        assert_ne!(bytes, encode_key(&Key::new("sink")));
        for cut in 0..bytes.len() {
            assert!(decode_key(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn scoped_sched_msgs_round_trip() {
        let inner = SchedMsg::SubmitGraph {
            client: 3,
            specs: vec![TaskSpec::new(
                "t",
                "identity",
                Datum::Null,
                vec![Key::scoped(5, "dep")],
            )],
        };
        let msg = Payload::Sched(SchedMsg::Scoped {
            session: 5,
            inner: Box::new(inner),
        });
        let bytes = encode(&msg);
        match decode(&bytes).unwrap() {
            Payload::Sched(SchedMsg::Scoped { session, inner }) => {
                assert_eq!(session, 5);
                match *inner {
                    SchedMsg::SubmitGraph { client, specs } => {
                        assert_eq!(client, 3);
                        assert_eq!(specs[0].deps[0], Key::scoped(5, "dep"));
                    }
                    _ => panic!("wrong inner"),
                }
            }
            _ => panic!("wrong payload"),
        }
    }

    #[test]
    fn submit_outcome_and_sweep_round_trip() {
        let bytes = encode(&Payload::Client(ClientMsg::SubmitOutcome {
            accepted: false,
            inflight: 512,
            cap: 256,
        }));
        match decode(&bytes).unwrap() {
            Payload::Client(ClientMsg::SubmitOutcome {
                accepted,
                inflight,
                cap,
            }) => {
                assert!(!accepted);
                assert_eq!((inflight, cap), (512, 256));
            }
            _ => panic!("wrong payload"),
        }
        assert!((bytes.len() as u64) <= netsim::sizing::CTRL_MSG_BYTES);

        let bytes = encode(&Payload::Data(DataMsg::Sweep { session: 9 }));
        match decode(&bytes).unwrap() {
            Payload::Data(DataMsg::Sweep { session }) => assert_eq!(session, 9),
            _ => panic!("wrong payload"),
        }
        assert!((bytes.len() as u64) <= netsim::sizing::CTRL_MSG_BYTES);
    }

    #[test]
    fn truncated_and_garbage_bodies_error_out() {
        let spec = TaskSpec::new("k", "op", Datum::F64(1.0), vec![Key::new("d")]);
        let bytes = encode_spec(&spec);
        for cut in 0..bytes.len() {
            assert!(decode_spec(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert!(matches!(
            decode_datum(&[99]),
            Err(WireError::BadTag { what: "datum", .. })
        ));
    }

    #[test]
    fn control_messages_fit_the_shared_ctrl_budget() {
        // The DES cost models charge `netsim::sizing::CTRL_MSG_BYTES` per
        // control message; typical framed control traffic must stay under
        // that envelope or the simulations are lying about scheduler load.
        let samples = [
            Payload::Sched(SchedMsg::Heartbeat { client: 3 }),
            Payload::Sched(SchedMsg::TaskFinished {
                worker: 1,
                key: Key::new("block-x-0017-step-00042"),
                nbytes: 1 << 20,
            }),
            Payload::Sched(SchedMsg::UpdateData {
                client: 2,
                entries: (0..16)
                    .map(|i| (Key::new(format!("sim-block-{i}-step-7")), i % 4, 1 << 20))
                    .collect(),
                external: true,
            }),
        ];
        for p in &samples {
            let n = encode(p).len() as u64;
            assert!(
                n <= netsim::sizing::CTRL_MSG_BYTES,
                "control message encoded to {n} bytes, budget {}",
                netsim::sizing::CTRL_MSG_BYTES
            );
        }
    }
}
