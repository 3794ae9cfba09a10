//! Versioned wire format for every inter-actor message.
//!
//! The Framed and Tcp transport backends (see [`crate::transport`])
//! and the cross-process deployment plane (see [`crate::net`]) push each
//! [`Payload`] through this codec, so the byte counts recorded in
//! [`crate::stats::SchedulerStats`] are *real serialized sizes*, not
//! estimates, and a decode on the far side proves the message survives a
//! transport hop intact.
//!
//! ## One declaration per message
//!
//! Every message is declared once, in a [`wire_enum!`] or [`wire_struct!`]
//! table below: `tag => Variant { fields }`. The table yields the encoder,
//! the decoder and the unknown-tag error, each field travelling through its
//! type's [`Wire`] impl in the order the table lists it. The tables are the
//! byte layout's single definition; `tests/golden/wire_frames.txt` pins one
//! frame per variant. What does not fit a table is written by hand next to
//! it: the [`Key`] session marker, an array's bulk byte run,
//! [`Assignment::assigned_at`] staying off the wire, and [`NodeWelcome`]'s
//! optional trailing field.
//!
//! ## Envelope
//!
//! Every message is `header ‖ body`:
//!
//! | bytes | field                             |
//! |-------|-----------------------------------|
//! | 0..2  | magic `0xD7 0x4B`                 |
//! | 2     | version (`1`)                     |
//! | 3     | payload [`Kind`]                  |
//! | 4..8  | body length (LE), at most [`MAX_FRAME_BYTES`] |
//!
//! ## Versioning rules
//!
//! * The header layout itself is frozen; only `version` changes meaning of
//!   the body.
//! * A decoder accepts exactly its own [`WIRE_VERSION`] and rejects anything
//!   else with [`WireError::BadVersion`]; there is no negotiation. Inside
//!   one process both ends are the same build. Across processes a
//!   `dtask-node` of another version fails its registration handshake: the
//!   hub's frame reader refuses the `Hello` at its version byte, logs the
//!   error against the peer's socket address and closes that connection
//!   (the cluster keeps serving), and the node's `run_node` returns the
//!   handshake error.
//! * Within a version, enum tags are append-only: new variants take fresh
//!   tags, existing tags never change meaning. A tag bump requires a
//!   `WIRE_VERSION` bump. Tags are explicit numbers in the tables, and two
//!   variants claiming one tag do not compile.
//!
//! All integers are little-endian; `f64` travels as its IEEE-754 bit
//! pattern, so numeric payloads round-trip bit-exactly (the CI quickstart
//! A/B relies on this).

// Decode is total: whatever bytes arrive, the outcome is a value or a
// `WireError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::datum::{Datum, DatumRef};
use crate::key::Key;
use crate::msg::{Assignment, ClientMsg, DataMsg, ErrorCause, ExecMsg, SchedMsg, TaskError};
use crate::spec::{FusedInput, FusedStage, TaskSpec, Value};
use crate::stats::WireLane;
use crate::transport::{Addr, DataReply, Payload, ReplyTo};
use linalg::ndarray::checked_shape_len;
use linalg::NDArray;
use std::sync::Arc;
use std::time::Instant;

/// Current wire-format version.
pub const WIRE_VERSION: u8 = 1;

/// Envelope header size in bytes.
pub const HEADER_BYTES: usize = 8;

/// Hard upper bound on one envelope's body length. A sender refuses to
/// route a larger message (see `Router::dispatch`); a reader treats a
/// larger length field as a malformed frame, which protects it against
/// reading garbage or hostile lengths as a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Size of the routing preamble [`crate::net`] puts in front of an envelope
/// on a socket: the destination [`Addr`]'s own encoding, zero-padded to its
/// longest form (tag byte + u64 index).
pub const PREAMBLE_BYTES: usize = 9;

const MAGIC: [u8; 2] = [0xD7, 0x4B];

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

// ---- byte cursors ------------------------------------------------------------

/// Output buffer a [`Wire`] value appends itself to.
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A length prefix.
    fn len(&mut self, v: usize) {
        (v as u32).put(self);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn seq<T: Wire>(&mut self, items: &[T]) {
        self.len(items.len());
        for item in items {
            item.put(self);
        }
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

/// Input cursor a [`Wire`] value reads itself from.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// How many containers (lists, boxed messages) enclose `pos`.
    depth: usize,
}

/// Deepest nesting of containers a decoder follows. Decoding recurses once
/// per level, so the bound is what keeps a frame of nested one-element
/// lists from overflowing the stack; real messages nest a handful deep.
const MAX_NESTING: usize = 64;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode one container's contents a level deeper.
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

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// A length prefix.
    fn len(&mut self) -> Result<usize, WireError> {
        Ok(u32::get(self)? as usize)
    }

    fn utf8(&mut self, n: usize) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| WireError::Utf8)
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.len()?;
        self.utf8(n)
    }
}

// ---- the codec trait and its building blocks -----------------------------------

/// A length prefix is a `u32`.
const LEN_BYTES: usize = 4;

mod sealed {
    pub trait Sealed {}
}
use sealed::Sealed;

/// A value with a place in the wire format. Sealed: the impls in this file
/// *are* the format. Public only so [`to_bytes`] and [`from_bytes`] can name
/// it.
pub trait Wire: Sized + Sealed {
    /// A lower bound on the bytes one value encodes to, exact wherever the
    /// tables can tell: how many values a body of known length can hold at
    /// most (see the `Vec` impl). An enum counts its tag byte only.
    const MIN_BYTES: usize;
    /// Append this value's encoding.
    fn put(&self, e: &mut Enc);
    /// Read one value, advancing the cursor past it.
    fn get(d: &mut Dec) -> Result<Self, WireError>;
}

/// Fixed-width little-endian numbers (`f64` as its IEEE-754 bit pattern).
macro_rules! wire_le {
    ($($T:ty),*) => {$(
        impl Sealed for $T {}
        impl Wire for $T {
            const MIN_BYTES: usize = std::mem::size_of::<$T>();
            fn put(&self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(d: &mut Dec) -> Result<Self, WireError> {
                Ok(<$T>::from_le_bytes(d.take_array()?))
            }
        }
    )*};
}
wire_le!(u8, u32, u64, i64, f64);

impl Sealed for usize {}
impl Wire for usize {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, e: &mut Enc) {
        (*self as u64).put(e);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        Ok(u64::get(d)? as usize)
    }
}

impl Sealed for bool {}
impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, e: &mut Enc) {
        e.u8(*self as u8);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        Ok(u8::get(d)? != 0)
    }
}

impl Sealed for String {}
impl Wire for String {
    const MIN_BYTES: usize = LEN_BYTES;
    fn put(&self, e: &mut Enc) {
        e.str(self);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        d.str().map(str::to_owned)
    }
}

impl Sealed for bytes::Bytes {}
impl Wire for bytes::Bytes {
    const MIN_BYTES: usize = LEN_BYTES;
    fn put(&self, e: &mut Enc) {
        e.len(self.len());
        e.buf.extend_from_slice(self);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        let n = d.len()?;
        Ok(d.take(n)?.to_vec().into())
    }
}

/// How many `T`s to make room for when the wire claims `claimed` of them
/// and `remaining` bytes are left to decode from. The count comes from
/// outside the program: a body can hold no more values than its length
/// divided by the smallest one, so a hostile count over a short body
/// reserves next to nothing, and an honest count is reserved in full.
fn seq_capacity<T: Wire>(claimed: usize, remaining: usize) -> usize {
    claimed.min(remaining / T::MIN_BYTES.max(1))
}

/// Length-prefixed.
impl<T: Wire> Sealed for Vec<T> {}
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = LEN_BYTES;
    fn put(&self, e: &mut Enc) {
        e.seq(self);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        d.nested(|d| {
            let n = d.len()?;
            let mut items = Vec::with_capacity(seq_capacity::<T>(n, d.remaining()));
            for _ in 0..n {
                items.push(T::get(d)?);
            }
            Ok(items)
        })
    }
}

macro_rules! wire_tuple {
    ($($T:ident $i:tt),+) => {
        impl<$($T: Wire),+> Sealed for ($($T,)+) {}
        impl<$($T: Wire),+> Wire for ($($T,)+) {
            const MIN_BYTES: usize = 0 $(+ $T::MIN_BYTES)+;
            fn put(&self, e: &mut Enc) {
                $(self.$i.put(e);)+
            }
            fn get(d: &mut Dec) -> Result<Self, WireError> {
                Ok(($($T::get(d)?,)+))
            }
        }
    };
}
wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

/// A boxed value is how a message contains itself, so it counts as a
/// nesting level.
impl<T: Wire> Sealed for Box<T> {}
impl<T: Wire> Wire for Box<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn put(&self, e: &mut Enc) {
        (**self).put(e);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        d.nested(T::get).map(Box::new)
    }
}

impl<T: Wire> Sealed for Arc<T> {}
impl<T: Wire> Wire for Arc<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn put(&self, e: &mut Enc) {
        (**self).put(e);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        T::get(d).map(Arc::new)
    }
}

/// One table per enum: `tag => Variant`, `tag => Variant { fields }` or
/// `tag => Variant(fields)`, each entry ending in a comma (plus
/// `tag => Variant(Wrap(field))` for a variant told apart by what wraps its
/// field, and `tag => Variant(box field)` for a variant that boxes its one
/// field: the field is coded as what it points to, at the variant's own
/// nesting level). Encoding writes the tag byte, then the fields in table
/// order; decoding is the same table read the other way, and a tag it does
/// not list is [`WireError::BadTag`] naming `$what`. Tags are append-only.
macro_rules! wire_enum {
    ($T:ident $(<$($G:ident),+>)?, $what:literal { $($table:tt)* }) => {
        wire_enum!(@entry $T [$($($G)+)?] $what [] $($table)*);
    };
    // Each entry becomes `(tag [fields] (pattern) (build))`: the pattern
    // takes a value apart, the expression builds it from the fields.
    (@entry $T:ident $G:tt $what:literal [$($done:tt)*]
        $tag:literal => $v:ident { $($f:ident),* }, $($rest:tt)*) => {
        wire_enum!(@entry $T $G $what [$($done)*
            ($tag [$($f)*] ($T::$v { $($f),* }) ($T::$v { $($f),* }))] $($rest)*);
    };
    (@entry $T:ident $G:tt $what:literal [$($done:tt)*]
        $tag:literal => $v:ident(box $f:ident), $($rest:tt)*) => {
        wire_enum!(@entry $T $G $what [$($done)*
            ($tag [$f] ($T::$v($f)) ($T::$v(Box::new($f))))] $($rest)*);
    };
    (@entry $T:ident $G:tt $what:literal [$($done:tt)*]
        $tag:literal => $v:ident($w:ident($f:ident)), $($rest:tt)*) => {
        wire_enum!(@entry $T $G $what [$($done)*
            ($tag [$f] ($T::$v($w($f))) ($T::$v($w($f))))] $($rest)*);
    };
    (@entry $T:ident $G:tt $what:literal [$($done:tt)*]
        $tag:literal => $v:ident($($f:ident),*), $($rest:tt)*) => {
        wire_enum!(@entry $T $G $what [$($done)*
            ($tag [$($f)*] ($T::$v($($f),*)) ($T::$v($($f),*)))] $($rest)*);
    };
    (@entry $T:ident $G:tt $what:literal [$($done:tt)*] $tag:literal => $v:ident, $($rest:tt)*) => {
        wire_enum!(@entry $T $G $what [$($done)* ($tag [] ($T::$v) ($T::$v))] $($rest)*);
    };
    (@entry $T:ident [$($G:ident)*] $what:literal
        [$(($tag:literal [$($f:ident)*] ($($pat:tt)+) ($($build:tt)+)))*]) => {
        impl<$($G: Wire),*> Sealed for $T<$($G),*> {}
        impl<$($G: Wire),*> Wire for $T<$($G),*> {
            const MIN_BYTES: usize = 1;
            fn put(&self, e: &mut Enc) {
                match self {
                    $($($pat)+ => {
                        e.u8($tag);
                        $($f.put(e);)*
                    })*
                }
            }
            fn get(d: &mut Dec) -> Result<Self, WireError> {
                // One tag, one variant.
                #[deny(unreachable_patterns)]
                match u8::get(d)? {
                    $($tag => {
                        $(let $f = Wire::get(d)?;)*
                        Ok($($build)+)
                    })*
                    tag => Err(WireError::BadTag { what: $what, tag }),
                }
            }
        }
    };
}

wire_enum!(Option<T>, "option" {
    0 => None,
    1 => Some(v),
});

wire_enum!(Result<A, B>, "result" {
    0 => Ok(v),
    1 => Err(v),
});

/// `T::MIN_BYTES` of the struct field a projection names.
const fn field_min_bytes<S, T: Wire>(_: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// One table per struct: its fields, in wire order.
macro_rules! wire_struct {
    ($T:ident => $($f:ident),*) => {
        impl Sealed for $T {}
        impl Wire for $T {
            const MIN_BYTES: usize = 0 $(+ field_min_bytes(|s: &$T| &s.$f))*;
            fn put(&self, e: &mut Enc) {
                let $T { $($f),* } = self;
                $($f.put(e);)*
            }
            fn get(d: &mut Dec) -> Result<Self, WireError> {
                Ok($T { $($f: Wire::get(d)?),* })
            }
        }
    };
}

// ---- values --------------------------------------------------------------------

/// Length sentinel marking a session-scoped key. A real key text can never
/// reach 4 GiB (the whole frame is length-checked against the body first),
/// so default-session keys keep the seed's bare length-prefixed encoding
/// byte-for-byte while scoped keys get `MARK ‖ session ‖ text` appended
/// behind it — old frames (always session 0) decode unchanged.
const SCOPED_KEY_MARK: u32 = u32::MAX;

impl Sealed for Key {}
impl Wire for Key {
    const MIN_BYTES: usize = LEN_BYTES;
    fn put(&self, e: &mut Enc) {
        if self.session() != 0 {
            SCOPED_KEY_MARK.put(e);
            self.session().put(e);
        }
        e.str(self.as_str());
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        match u32::get(d)? {
            SCOPED_KEY_MARK => {
                let session = u32::get(d)?;
                Ok(Key::scoped(session, d.str()?))
            }
            n => Ok(Key::new(d.utf8(n as usize)?)),
        }
    }
}

/// Shape, then the elements as one byte run.
impl Sealed for NDArray {}
impl Wire for NDArray {
    const MIN_BYTES: usize = Vec::<usize>::MIN_BYTES;
    fn put(&self, e: &mut Enc) {
        e.seq(self.shape());
        e.f64s(self.data());
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        let shape = Vec::<usize>::get(d)?;
        let n = checked_shape_len(&shape).ok_or(WireError::Malformed("array"))?;
        // `take` bounds the run by the remaining body before anything is
        // allocated for it.
        let run = d.take(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        let data = run
            .chunks_exact(8)
            .map(|b| {
                let mut le = [0u8; 8];
                le.copy_from_slice(b);
                f64::from_le_bytes(le)
            })
            .collect();
        NDArray::from_vec(&shape, data).map_err(|_| WireError::Malformed("array"))
    }
}

wire_struct!(DatumRef => key, shape, nbytes, holder, epoch);

wire_enum!(Datum, "datum" {
    0 => F64(x),
    1 => I64(x),
    2 => Bool(b),
    3 => Str(s),
    4 => Array(a),
    5 => List(items),
    6 => Bytes(b),
    7 => Null,
    8 => Handle(box r),
});

wire_enum!(FusedInput, "fused input" {
    0 => Dep(i),
    1 => Stage(i),
});

wire_struct!(FusedStage => key, op, params, inputs);

wire_enum!(Value, "value" {
    0 => Op { op, params },
    1 => Fused { stages },
});

wire_struct!(TaskSpec => key, value, deps);

wire_enum!(ErrorCause, "error cause" {
    0 => Direct,
    1 => FusedStage { stored_key },
    2 => Propagated { via },
    3 => PeerLost,
});

wire_struct!(TaskError => key, message, cause);

wire_enum!(Addr, "addr" {
    0 => Scheduler,
    1 => WorkerData(w),
    2 => WorkerExec(w),
    3 => Client(c),
    4 => Control,
});

wire_struct!(ReplyTo => addr, corr);

/// `assigned_at` deliberately stays off the wire (see [`Assignment`]): the
/// decoder stamps the moment of delivery.
impl Sealed for Assignment {}
impl Wire for Assignment {
    const MIN_BYTES: usize = TaskSpec::MIN_BYTES + LEN_BYTES;
    fn put(&self, e: &mut Enc) {
        self.spec.put(e);
        self.dep_locations.put(e);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Assignment {
            spec: Wire::get(d)?,
            dep_locations: Wire::get(d)?,
            assigned_at: Instant::now(),
        })
    }
}

// ---- messages ------------------------------------------------------------------

wire_enum!(SchedMsg, "sched msg" {
    0 => ClientConnect { client },
    1 => ClientDisconnect { client },
    2 => SubmitGraph { client, specs },
    3 => RegisterExternal { client, keys },
    4 => UpdateData { client, entries, external },
    5 => TaskFinished { worker, key, nbytes },
    6 => AddReplica { worker, entries },
    7 => TaskErred { worker, stored_key, error, failed_peer },
    8 => WantResult { client, key },
    9 => ReleaseKeys { keys },
    10 => VariableSet { name, value },
    11 => VariableGet { client, name, wait },
    12 => VariableDel { name },
    13 => QueuePush { name, value },
    14 => QueuePop { client, name },
    15 => Heartbeat { client },
    16 => Shutdown,
    17 => WorkerHeartbeat { worker },
    18 => StealRequest { worker },
    19 => Stolen { victim, thief, keys },
    20 => RegisterWorker { worker, slots },
    21 => Scoped { session, inner },
});

wire_enum!(ExecMsg, "exec msg" {
    0 => Execute(a),
    1 => ExecuteBatch { tasks },
    2 => Shutdown,
    3 => Steal { thief, max },
});

wire_enum!(DataMsg, "data msg" {
    0 => Put { key, value, ack },
    1 => Get { key, reply },
    2 => Delete { keys },
    3 => Stats { reply },
    4 => Shutdown,
    5 => Fetch { key, reply },
    6 => Sweep { session },
});

wire_enum!(ClientMsg, "client msg" {
    0 => KeyReady { key, location },
    1 => VariableValue { name, value, found },
    2 => QueueItem { name, value },
    3 => SubmitOutcome { accepted, inflight, cap },
});

wire_enum!(DataReply, "data reply" {
    0 => PutAck,
    1 => Value(Ok(v)),
    2 => Value(Err(msg)),
    3 => Stats { keys, bytes },
});

// ---- envelope ------------------------------------------------------------------

/// What an envelope carries: the header's kind byte, the [`Payload`] variant
/// behind it and the lane it is accounted on. Kinds `0..=4` are the
/// in-cluster message flow; [`Kind::Node`] is deployment-plane control
/// traffic ([`NodeMsg`]), which never reaches [`decode`] and is excluded
/// from per-lane accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// [`Payload::Sched`].
    Sched = 0,
    /// [`Payload::Exec`].
    Exec = 1,
    /// [`Payload::Data`].
    Data = 2,
    /// [`Payload::Client`].
    Client = 3,
    /// [`Payload::Reply`].
    Reply = 4,
    /// A [`NodeMsg`]; see [`encode_node`].
    Node = 5,
}

/// Envelope kind byte of [`NodeMsg`] control frames.
pub const NODE_KIND: u8 = Kind::Node as u8;

impl Kind {
    /// The kind a payload travels as.
    pub fn of(p: &Payload) -> Kind {
        match p {
            Payload::Sched(_) => Kind::Sched,
            Payload::Exec(_) => Kind::Exec,
            Payload::Data(_) => Kind::Data,
            Payload::Client(_) => Kind::Client,
            Payload::Reply { .. } => Kind::Reply,
        }
    }

    /// The accounting lane of this kind's traffic (`None` for control frames).
    pub fn lane(self) -> Option<WireLane> {
        match self {
            Kind::Sched => Some(WireLane::SchedIn),
            Kind::Exec => Some(WireLane::ExecIn),
            Kind::Data => Some(WireLane::DataIn),
            Kind::Client => Some(WireLane::ClientIn),
            Kind::Reply => Some(WireLane::ReplyIn),
            Kind::Node => None,
        }
    }

    fn from_byte(tag: u8) -> Result<Kind, WireError> {
        use Kind::*;
        [Sched, Exec, Data, Client, Reply, Node]
            .into_iter()
            .find(|k| *k as u8 == tag)
            .ok_or(WireError::BadTag {
                what: "payload kind",
                tag,
            })
    }
}

/// Put the header in front of an encoded body.
fn seal(kind: Kind, body: Enc) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + body.buf.len());
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&(body.buf.len() as u32).to_le_bytes());
    out.extend_from_slice(&body.buf);
    out
}

/// Validate as much of an envelope header as `prefix` shows, in the order
/// the bytes arrive on a socket, so garbage is refused at its first wrong
/// byte. `Ok(None)` until all [`HEADER_BYTES`] are visible, then the kind
/// and the body length.
pub(crate) fn check_header(prefix: &[u8]) -> Result<Option<(Kind, usize)>, WireError> {
    if prefix.iter().zip(&MAGIC).any(|(got, want)| got != want) {
        return Err(WireError::BadMagic);
    }
    if let Some(&v) = prefix.get(2).filter(|v| **v != WIRE_VERSION) {
        return Err(WireError::BadVersion(v));
    }
    let kind = prefix.get(3).map(|tag| Kind::from_byte(*tag)).transpose()?;
    let (Some(kind), Some(len)) = (kind, prefix.get(4..HEADER_BYTES)) else {
        return Ok(None);
    };
    let body_len = u32::get(&mut Dec::new(len))? as usize;
    if body_len > MAX_FRAME_BYTES {
        return Err(WireError::Malformed("oversized frame"));
    }
    Ok(Some((kind, body_len)))
}

/// Take a whole envelope apart into its kind and body.
fn open(bytes: &[u8]) -> Result<(Kind, &[u8]), WireError> {
    let body = bytes.get(HEADER_BYTES..).ok_or(WireError::Truncated)?;
    match check_header(bytes)? {
        Some((kind, body_len)) if body_len == body.len() => Ok((kind, body)),
        _ => Err(WireError::Truncated),
    }
}

/// Decode `bytes` with `get`, all of them: whatever is left over is an error.
fn whole<T>(
    bytes: &[u8],
    get: impl FnOnce(&mut Dec) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut d = Dec::new(bytes);
    let v = get(&mut d)?;
    if d.remaining() != 0 {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(v)
}

/// Serialize one transport payload into a framed envelope.
pub fn encode(p: &Payload) -> Vec<u8> {
    let mut body = Enc::new();
    match p {
        Payload::Sched(m) => m.put(&mut body),
        Payload::Exec(m) => m.put(&mut body),
        Payload::Data(m) => m.put(&mut body),
        Payload::Client(m) => m.put(&mut body),
        Payload::Reply { corr, reply } => {
            corr.put(&mut body);
            reply.put(&mut body);
        }
    }
    seal(Kind::of(p), body)
}

/// Parse a framed envelope back into a transport payload.
pub fn decode(bytes: &[u8]) -> Result<Payload, WireError> {
    let (kind, body) = open(bytes)?;
    whole(body, |d| {
        Ok(match kind {
            Kind::Sched => Payload::Sched(Wire::get(d)?),
            Kind::Exec => Payload::Exec(Wire::get(d)?),
            Kind::Data => Payload::Data(Wire::get(d)?),
            Kind::Client => Payload::Client(Wire::get(d)?),
            Kind::Reply => Payload::Reply {
                corr: Wire::get(d)?,
                reply: Wire::get(d)?,
            },
            // Deployment-plane only: it must not alias a `Payload` variant.
            Kind::Node => {
                return Err(WireError::BadTag {
                    what: "payload kind",
                    tag: NODE_KIND,
                })
            }
        })
    })
}

/// The kind of an envelope a [`crate::net::FrameReader`] handed out.
pub(crate) fn kind_of(envelope: &[u8]) -> Option<Kind> {
    Kind::from_byte(*envelope.get(3)?).ok()
}

/// The routing preamble of a frame bound for `to`.
pub(crate) fn preamble(to: Addr) -> [u8; PREAMBLE_BYTES] {
    let mut e = Enc::new();
    to.put(&mut e);
    let mut out = [0u8; PREAMBLE_BYTES];
    out[..e.buf.len()].copy_from_slice(&e.buf);
    out
}

/// The address in a routing preamble, or in as much of one as has arrived:
/// a tag that names no address is refused on its first byte.
pub(crate) fn preamble_addr(prefix: &[u8]) -> Result<Addr, WireError> {
    let mut full = [0u8; PREAMBLE_BYTES];
    let n = prefix.len().min(PREAMBLE_BYTES);
    full[..n].copy_from_slice(&prefix[..n]);
    Addr::get(&mut Dec::new(&full)).map_err(|_| WireError::BadTag {
        what: "socket addr",
        tag: full[0],
    })
}

// ---- deployment control messages -------------------------------------------

/// Deployment-plane control messages exchanged between a worker process
/// (`dtask-node`) and the cluster hub. These ride the same versioned
/// envelope as [`Payload`] (kind [`Kind::Node`]) so version/magic checking
/// is uniform, but they are *not* part of the in-cluster message flow:
/// socket readers route them to [`decode_node`] by their kind.
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
    /// fulfilled. Still decoded and honoured (the node cancels that one
    /// correlation), but hubs send [`NodeMsg::PeerGone`] instead.
    Cancel {
        /// Correlation id in the *receiving node's* reply space.
        corr: u64,
    },
    /// Hub → node: worker `worker` is unreachable — its process is gone, or
    /// a frame for it could not be forwarded. The node cancels every reply
    /// slot aimed at that worker, so each waiter observes the standard
    /// hung-peer error.
    PeerGone {
        /// The lost worker.
        worker: usize,
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

wire_enum!(NodeMsg, "node msg" {
    0 => Hello { slots, mem_budget, capabilities },
    1 => Welcome(w),
    2 => Goodbye { reason },
    3 => Cancel { corr },
    4 => PeerGone { worker },
});

impl Sealed for NodeWelcome {}
impl Wire for NodeWelcome {
    const MIN_BYTES: usize = 4 * u64::MIN_BYTES + Option::<u64>::MIN_BYTES;
    fn put(&self, e: &mut Enc) {
        self.worker.put(e);
        self.n_workers.put(e);
        self.slots.put(e);
        self.heartbeat_ms.put(e);
        self.mem_budget.put(e);
        self.steal_poll_ms.put(e);
    }
    fn get(d: &mut Dec) -> Result<Self, WireError> {
        Ok(NodeWelcome {
            worker: Wire::get(d)?,
            n_workers: Wire::get(d)?,
            slots: Wire::get(d)?,
            heartbeat_ms: Wire::get(d)?,
            mem_budget: Wire::get(d)?,
            // A `Welcome` is the last thing in its frame, so a hub from
            // before this field simply ends here.
            steal_poll_ms: match d.remaining() {
                0 => 0,
                _ => Wire::get(d)?,
            },
        })
    }
}

/// Serialize one [`NodeMsg`] into a framed [`Kind::Node`] envelope.
pub fn encode_node(m: &NodeMsg) -> Vec<u8> {
    let mut body = Enc::new();
    m.put(&mut body);
    seal(Kind::Node, body)
}

/// Parse a framed [`Kind::Node`] envelope back into a [`NodeMsg`].
pub fn decode_node(bytes: &[u8]) -> Result<NodeMsg, WireError> {
    match open(bytes)? {
        (Kind::Node, body) => whole(body, NodeMsg::get),
        (kind, _) => Err(WireError::BadTag {
            what: "node payload kind",
            tag: kind as u8,
        }),
    }
}

// ---- bare values (test surface) --------------------------------------------

/// Encode one bare value, without an envelope.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut e = Enc::new();
    v.put(&mut e);
    e.buf
}

/// Decode one bare value from exactly `bytes`.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    whole(bytes, T::get)
}

#[cfg(test)]
mod tests {
    // Plain round trips of every variant of every kind live in
    // `tests/wire_roundtrip.rs` (`frames_match_golden_bytes`); what is here
    // asserts something else about the format.
    use super::*;

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
    fn hostile_element_count_reserves_next_to_nothing() {
        let spec = TaskSpec::new("t", "identity", Datum::Null, vec![]);
        let honest = encode(&Payload::Sched(SchedMsg::SubmitGraph {
            client: 1,
            specs: vec![spec],
        }));
        // Envelope header, message tag, `client`, then the spec count.
        let count_at = HEADER_BYTES + 1 + usize::MIN_BYTES;
        assert_eq!(honest[count_at..count_at + LEN_BYTES], 1u32.to_le_bytes());
        let mut hostile = honest.clone();
        hostile[count_at..count_at + LEN_BYTES].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&hostile).err(), Some(WireError::Truncated));
        // What that decode made room for: as many specs as the bytes behind
        // the count could hold at their smallest, not one per byte, and
        // never the claimed four billion.
        assert_eq!(TaskSpec::MIN_BYTES, 2 * LEN_BYTES + 1);
        let left = hostile.len() - count_at - LEN_BYTES;
        let claimed = u32::MAX as usize;
        assert_eq!(seq_capacity::<TaskSpec>(claimed, left), left / 9);
        assert_eq!(
            seq_capacity::<TaskSpec>(claimed, MAX_FRAME_BYTES),
            MAX_FRAME_BYTES / 9
        );
        // An honest count is reserved in full, so nothing regrows.
        assert_eq!(seq_capacity::<TaskSpec>(1, left), 1);
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
            NodeMsg::PeerGone { worker: 1 },
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
        let bytes = to_bytes(&v);
        let back = from_bytes::<Datum>(&bytes).unwrap();
        assert_eq!(to_bytes(&back), bytes);
        assert_eq!(back.as_list().unwrap()[0].as_ref_handle(), Some(&handle));
        // The handle is control-path small regardless of the payload size.
        assert!(
            (bytes.len() as u64) < handle.nbytes / 100,
            "handle must be tiny next to its payload"
        );
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Datum>(&bytes[..cut]).is_err(), "cut at {cut}");
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
        let bytes = to_bytes(&k);
        let mut seed = ("sim-block-3".len() as u32).to_le_bytes().to_vec();
        seed.extend_from_slice(b"sim-block-3");
        assert_eq!(bytes, seed);
        assert_eq!(from_bytes::<Key>(&bytes).unwrap(), k);
    }

    #[test]
    fn scoped_keys_round_trip_with_session() {
        let k = Key::scoped(7, "sink");
        let bytes = to_bytes(&k);
        let back = from_bytes::<Key>(&bytes).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.session(), 7);
        assert_eq!(back.as_str(), "sink");
        // The scoped encoding is distinguishable from any bare string.
        assert_ne!(bytes, to_bytes(&Key::new("sink")));
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Key>(&bytes[..cut]).is_err(), "cut at {cut}");
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
        let bytes = to_bytes(&spec);
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<TaskSpec>(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        assert!(matches!(
            from_bytes::<Datum>(&[99]),
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
