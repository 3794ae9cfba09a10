//! `Datum` — the value type flowing through tasks.
//!
//! Task inputs/outputs and `scatter` payloads are all `Datum`s. Arrays are
//! `Arc`-shared so moving a block from a worker store into a task execution
//! never copies the buffer within the process.

use crate::key::Key;
use crate::msg::WorkerId;
use linalg::NDArray;
use std::sync::Arc;

/// A pass-by-reference **handle** to a payload resident in a worker's object
/// store (the paper's out-of-band data plane). A `DatumRef` travels over the
/// control path in place of the bulk value; consumers resolve it lazily with
/// a data-lane `Fetch` to `holder` (or a local store lookup). The handle
/// carries enough metadata — shape, payload size, and the holder's location
/// epoch — for scheduling and accounting decisions without touching the
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatumRef {
    /// Store key of the payload on the holder.
    pub key: Key,
    /// Shape of the referenced array (empty for non-array payloads).
    pub shape: Vec<usize>,
    /// Payload size in bytes (what resolving this handle will transfer).
    pub nbytes: u64,
    /// Worker whose object store holds the payload.
    pub holder: WorkerId,
    /// Location epoch: bumped each time the payload is (re)published, so a
    /// stale handle can be told apart from the current placement.
    pub epoch: u64,
}

/// A value produced or consumed by tasks.
#[derive(Debug, Clone)]
pub enum Datum {
    /// Floating-point scalar.
    F64(f64),
    /// Integer scalar.
    I64(i64),
    /// Boolean scalar.
    Bool(bool),
    /// Text.
    Str(String),
    /// Dense array block (the common case).
    Array(Arc<NDArray>),
    /// Heterogeneous list.
    List(Vec<Datum>),
    /// Raw bytes (opaque payloads).
    Bytes(bytes::Bytes),
    /// Proxy handle to a store-resident payload (see [`DatumRef`]), built
    /// with [`Datum::Ref`]. Handles are rare, so the handle lives out of
    /// line and every other datum pays one pointer for it, not its 80 bytes.
    Handle(Box<DatumRef>),
    /// Absent/unit value.
    Null,
}

// Every spec, store entry and message carries a `Datum`: a variant that
// widens it widens all of them (DESIGN.md §5, the size-pin table).
const _: () = assert!(std::mem::size_of::<Datum>() <= 40);

impl Datum {
    /// A proxy-handle datum: `handle`, boxed into [`Datum::Handle`]. It
    /// keeps the name of the variant it replaced, so `Datum::Ref(handle)`
    /// builds a handle datum as it always did.
    #[allow(non_snake_case)]
    pub fn Ref(handle: DatumRef) -> Datum {
        Datum::Handle(Box::new(handle))
    }

    /// Approximate in-memory payload size in bytes, used for bandwidth and
    /// data-locality accounting (Dask's `nbytes`). Dense-block sizing is
    /// shared with the DES cost models via [`netsim::sizing`].
    pub fn nbytes(&self) -> u64 {
        match self {
            Datum::F64(_) | Datum::I64(_) => netsim::sizing::F64_BYTES,
            Datum::Bool(_) => 1,
            Datum::Str(s) => netsim::sizing::str_nbytes(s.len()),
            Datum::Array(a) => netsim::sizing::f64_block_bytes(a.len()),
            Datum::List(items) => {
                netsim::sizing::list_nbytes(items.iter().map(Datum::nbytes).sum())
            }
            Datum::Bytes(b) => b.len() as u64,
            Datum::Handle(r) => {
                netsim::sizing::ref_handle_bytes(r.key.as_str().len(), r.shape.len())
            }
            Datum::Null => 0,
        }
    }

    /// Array view, if this datum is an array.
    pub fn as_array(&self) -> Option<&Arc<NDArray>> {
        match self {
            Datum::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Float view (also converts integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Datum::F64(v) => Some(*v),
            Datum::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Datum::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// List view.
    pub fn as_list(&self) -> Option<&[Datum]> {
        match self {
            Datum::List(items) => Some(items),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Proxy-handle view, if this datum is a [`DatumRef`].
    pub fn as_ref_handle(&self) -> Option<&DatumRef> {
        match self {
            Datum::Handle(r) => Some(r),
            _ => None,
        }
    }

    /// Whether this datum (or, for lists, any nested child) is a proxy
    /// handle that a consumer would need to resolve before use.
    pub fn contains_ref(&self) -> bool {
        match self {
            Datum::Handle(_) => true,
            Datum::List(items) => items.iter().any(Datum::contains_ref),
            _ => false,
        }
    }
}

impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::F64(v)
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::I64(v)
    }
}

impl From<NDArray> for Datum {
    fn from(v: NDArray) -> Self {
        Datum::Array(Arc::new(v))
    }
}

impl From<Arc<NDArray>> for Datum {
    fn from(v: Arc<NDArray>) -> Self {
        Datum::Array(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Str(v.to_string())
    }
}

impl From<Vec<Datum>> for Datum {
    fn from(v: Vec<Datum>) -> Self {
        Datum::List(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nbytes_accounting() {
        assert_eq!(Datum::F64(1.0).nbytes(), 8);
        assert_eq!(Datum::from(NDArray::zeros(&[4, 4])).nbytes(), 128);
        // Containers charge the shared netsim::sizing envelope: the string is
        // 8 (envelope) + 3 (bytes), the list wraps its children in one more.
        assert_eq!(Datum::Str("abc".into()).nbytes(), 11);
        assert_eq!(
            Datum::List(vec![Datum::I64(1), Datum::Str("abc".into())]).nbytes(),
            27
        );
        assert_eq!(Datum::Null.nbytes(), 0);
    }

    #[test]
    fn ref_handle_nbytes_is_payload_independent() {
        // The handle for a 1 GiB block weighs the same as for a 1 KiB block:
        // key + dims + fixed metadata, never the payload.
        let small = Datum::Ref(DatumRef {
            key: Key::new("blk"),
            shape: vec![4, 4],
            nbytes: 128,
            holder: 0,
            epoch: 1,
        });
        let huge = Datum::Ref(DatumRef {
            key: Key::new("blk"),
            shape: vec![4, 4],
            nbytes: 1 << 30,
            holder: 2,
            epoch: 7,
        });
        assert_eq!(small.nbytes(), huge.nbytes());
        assert_eq!(
            small.nbytes(),
            netsim::sizing::ref_handle_bytes("blk".len(), 2)
        );
        assert!(small.contains_ref());
        assert!(Datum::List(vec![Datum::F64(0.0), huge]).contains_ref());
        assert!(!Datum::List(vec![Datum::F64(0.0)]).contains_ref());
    }

    #[test]
    fn array_sharing() {
        let a = Arc::new(NDArray::zeros(&[2]));
        let d = Datum::from(Arc::clone(&a));
        let cloned = d.clone();
        assert!(Arc::ptr_eq(cloned.as_array().unwrap(), &a));
    }

    #[test]
    fn views() {
        assert_eq!(Datum::I64(3).as_f64(), Some(3.0));
        assert_eq!(Datum::F64(2.5).as_i64(), None);
        assert_eq!(Datum::from("hi").as_str(), Some("hi"));
        assert!(Datum::Null.as_list().is_none());
    }
}
