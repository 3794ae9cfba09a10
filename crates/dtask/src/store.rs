//! Per-node object store: the out-of-band data plane's payload home.
//!
//! The paper's scalability argument is about keeping bulk data off the
//! control path. [`crate::datum::DatumRef`] handles travel through the
//! scheduler in place of payloads; the payloads themselves live here, one
//! [`ObjectStore`] per worker, shared by the transport that delivers reads to
//! it and every executor slot:
//!
//! * **Zero-copy intra-process.** Entries hold [`Datum`]s whose arrays are
//!   `Arc`-shared, so a `get` on the holding node never copies the buffer.
//! * **Inter-node resolution.** Remote consumers resolve a handle with a
//!   framed `DataMsg::Fetch` to the holder's store, which answers it
//!   (`DataReply::Value` on the reply lane — data plane, never the
//!   scheduler) in whichever thread delivers it. The answer is
//!   [`ObjectStore::answer`]: a request in, the reply out, no I/O, so the
//!   DES's stores answer the same way.
//! * **LRU eviction + spill.** Under a configurable memory budget
//!   ([`StoreConfig::mem_budget`]) the least-recently-used spillable entries
//!   are written to disk as single-chunk [`h5lite`] containers — the same
//!   I/O path as the paper's post-hoc baseline — and restored (bit-exact,
//!   NaN included) on next access. Restoration happens under the store lock,
//!   so concurrent gets of one spilled key restore it exactly once.
//!
//! Everything here is **off by default**: a store built from
//! [`StoreConfig::default`] is an unbounded in-memory map and no proxy
//! handles are ever produced, so default-config clusters behave — and
//! count messages — exactly as before.

use crate::datum::Datum;
use crate::key::{Key, KeyMap};
use crate::msg::DataMsg;
use crate::stats::{Metric, SchedulerStats};
use crate::trace::{EventKind, TraceHandle};
use crate::transport::{DataReply, ReplyTo};
use linalg::NDArray;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Object-store / proxy-plane configuration (part of
/// [`crate::ClusterConfig`]). The default disables proxies and bounds
/// nothing, reproducing the pre-store behavior byte for byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreConfig {
    /// Publish large control-path values (variables, queue items, task
    /// params) out-of-band as [`crate::datum::DatumRef`] handles? Off by
    /// default; consumers always know how to *resolve* handles either way.
    pub proxies: bool,
    /// Per-worker memory budget in payload bytes; entries beyond it are
    /// LRU-spilled to disk. `None` (default) never spills.
    pub mem_budget: Option<u64>,
    /// Spill directory; `None` (default) uses a per-store temp directory
    /// that is removed when the store drops.
    pub spill_dir: Option<PathBuf>,
}

/// Values at or under this many payload bytes stay inline on the control
/// path even with proxies on: a handle would be bigger.
const INLINE_THRESHOLD: u64 = 256;

impl StoreConfig {
    /// Proxies on, no spill budget.
    pub fn proxies() -> Self {
        StoreConfig {
            proxies: true,
            ..StoreConfig::default()
        }
    }

    /// Should `value` ride the control path inline (scalars, small values),
    /// or be published out-of-band behind a handle?
    pub fn keep_inline(&self, value: &Datum) -> bool {
        !self.proxies || value.nbytes() <= INLINE_THRESHOLD || !matches!(value, Datum::Array(_))
    }
}

/// One entry's payload: in memory, or spilled to its own h5lite container.
enum Slot {
    Mem {
        value: Datum,
        /// This entry's stamp in [`Inner::recency`]; `Some` exactly when the
        /// value is spillable.
        stamp: Option<u64>,
    },
    Spilled {
        path: PathBuf,
        shape: Vec<usize>,
    },
}

struct Entry {
    /// Payload bytes, fixed at insert (a spill and a restore keep them).
    nbytes: u64,
    slot: Slot,
}

/// Only non-empty, non-scalar arrays spill; everything else (scalars, lists,
/// strings) stays in memory whatever the budget.
fn spillable(value: &Datum) -> bool {
    matches!(value, Datum::Array(a) if !a.shape().is_empty() && !a.is_empty())
}

/// Recency index of the spillable in-memory entries only, coldest first.
/// Eviction takes candidates from the front; unspillable and already-spilled
/// entries are never listed, so no operation walks them.
#[derive(Default)]
struct Recency {
    /// Stamp (taken from `clock` on insert, get and restore) → key.
    by_stamp: BTreeMap<u64, Key>,
    /// Source of stamps; only ever incremented.
    clock: u64,
}

impl Recency {
    /// List `key` as the most-recently-used entry.
    fn list(&mut self, key: Key) -> u64 {
        self.clock += 1;
        self.by_stamp.insert(self.clock, key);
        self.clock
    }

    fn unlist(&mut self, stamp: u64) -> Option<Key> {
        self.by_stamp.remove(&stamp)
    }

    /// The least-recently-used stamp other than `protect`. `protect` is the
    /// hottest stamp, so this skips at most once.
    fn coldest(&self, protect: Option<u64>) -> Option<u64> {
        self.by_stamp.keys().copied().find(|s| Some(*s) != protect)
    }
}

struct Inner {
    entries: KeyMap<Entry>,
    recency: Recency,
    /// Payload bytes currently held in memory (spilled entries excluded).
    mem_bytes: u64,
    /// Payload bytes of every entry, spilled ones included.
    total_bytes: u64,
    /// Monotonic spill-file sequence.
    spill_seq: u64,
    /// Lazily created spill directory (removed on drop unless user-chosen).
    dir: Option<PathBuf>,
}

impl Inner {
    fn remove(&mut self, key: &Key) -> bool {
        let removed = self.entries.remove(key);
        removed.map(|entry| self.forget(entry)).is_some()
    }

    /// Account for an entry that has just left `entries`.
    fn forget(&mut self, entry: Entry) {
        self.total_bytes -= entry.nbytes;
        match entry.slot {
            Slot::Mem { stamp, .. } => {
                self.mem_bytes -= entry.nbytes;
                if let Some(stamp) = stamp {
                    self.recency.unlist(stamp);
                }
            }
            Slot::Spilled { path, .. } => {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// Distinguishes spill dirs of stores created in the same process.
static STORE_INSTANCE: AtomicUsize = AtomicUsize::new(0);

/// A worker's spillable object store. See the module docs.
pub struct ObjectStore {
    worker: usize,
    config: StoreConfig,
    stats: Arc<SchedulerStats>,
    trace: TraceHandle,
    instance: usize,
    inner: Mutex<Inner>,
}

impl ObjectStore {
    /// Build one worker's store.
    pub fn new(
        config: StoreConfig,
        worker: usize,
        stats: Arc<SchedulerStats>,
        trace: TraceHandle,
    ) -> Self {
        ObjectStore {
            worker,
            config,
            stats,
            trace,
            instance: STORE_INSTANCE.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(Inner {
                entries: KeyMap::default(),
                recency: Recency::default(),
                mem_bytes: 0,
                total_bytes: 0,
                spill_seq: 0,
                dir: None,
            }),
        }
    }

    /// An unbounded, untraced store (tests and standalone use).
    pub fn unbounded() -> Self {
        ObjectStore::new(
            StoreConfig::default(),
            0,
            Arc::new(SchedulerStats::new()),
            TraceHandle::disabled(),
        )
    }

    /// This store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Insert (or replace) an entry, then enforce the memory budget.
    pub fn insert(&self, key: Key, value: Datum) {
        let inner = &mut *self.inner.lock();
        let nbytes = value.nbytes();
        let stamp = spillable(&value).then(|| inner.recency.list(key.clone()));
        inner.mem_bytes += nbytes;
        inner.total_bytes += nbytes;
        let entry = Entry {
            nbytes,
            slot: Slot::Mem { value, stamp },
        };
        if let Some(old) = inner.entries.insert(key, entry) {
            inner.forget(old);
        }
        self.evict_over_budget(inner, stamp);
    }

    /// Look up an entry, restoring it from disk if it was spilled. Arrays
    /// come back `Arc`-shared — no copy on the holding node. Restoration
    /// runs under the store lock: concurrent gets of one spilled key do the
    /// disk read exactly once. A spill file that cannot be read back is a
    /// lost entry: it is dropped and the get is a miss.
    pub fn get(&self, key: &Key) -> Option<Datum> {
        self.get_locked(&mut self.inner.lock(), key)
    }

    /// [`ObjectStore::get`] for several keys under one lock acquisition, in
    /// order: what a task's dependency gather uses, so a wide task contends
    /// once with the sibling slot and the readers it serves, not once per
    /// input.
    pub fn get_many(&self, keys: &[Key]) -> Vec<Option<Datum>> {
        let inner = &mut *self.inner.lock();
        keys.iter().map(|key| self.get_locked(inner, key)).collect()
    }

    /// Remove entries (dropping any spill files). Returns how many existed.
    pub fn remove(&self, keys: &[Key]) -> usize {
        let inner = &mut *self.inner.lock();
        keys.iter().filter(|key| inner.remove(key)).count()
    }

    /// Remove every entry belonging to one tenant session (teardown sweep).
    /// Proxy payloads published by that session's client land here without
    /// the scheduler ever tracking a key for them, so teardown broadcasts a
    /// sweep instead of enumerating. Returns how many entries were dropped.
    pub fn remove_session(&self, session: crate::key::SessionId) -> usize {
        let inner = &mut *self.inner.lock();
        let doomed: Vec<Key> = inner
            .entries
            .keys()
            .filter(|k| k.session() == session)
            .cloned()
            .collect();
        doomed.iter().filter(|key| inner.remove(key)).count()
    }

    /// Entry count, spilled entries included.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes, memory-resident and spilled together (what the
    /// worker memory report counts — spilling must not "free" data).
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().total_bytes
    }

    /// Payload bytes currently resident in memory.
    pub fn mem_bytes(&self) -> u64 {
        self.inner.lock().mem_bytes
    }

    /// Keys currently spilled to disk (oldest-spill order not guaranteed).
    pub fn spilled_keys(&self) -> Vec<Key> {
        let inner = self.inner.lock();
        inner
            .entries
            .iter()
            .filter(|(_, e)| matches!(e.slot, Slot::Spilled { .. }))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Is this key present but spilled?
    pub fn is_spilled(&self, key: &Key) -> bool {
        matches!(
            self.inner.lock().entries.get(key),
            Some(Entry {
                slot: Slot::Spilled { .. },
                ..
            })
        )
    }

    /// Is this key present (in memory or spilled)?
    pub fn contains(&self, key: &Key) -> bool {
        self.inner.lock().entries.contains_key(key)
    }

    /// This store's answer to `msg`, in the caller's thread: the reply and
    /// where it goes, or `None` for a message answered with nothing
    /// (`Delete`, `Sweep`, and the no-op `Shutdown`). A `Fetch` is the
    /// same lookup as a `Get` (spilled entries restore transparently); a
    /// served one is traced here as data-plane traffic, while its byte
    /// accounting lives with the requester ([`Metric::ProxyFetchBytes`]).
    pub fn answer(&self, msg: DataMsg) -> Option<(ReplyTo, DataReply)> {
        let proxied = matches!(msg, DataMsg::Fetch { .. });
        match msg {
            DataMsg::Put { key, value, ack } => {
                self.insert(key, value);
                Some((ack, DataReply::PutAck))
            }
            DataMsg::Get { key, reply } | DataMsg::Fetch { key, reply } => {
                let value = self.get(&key);
                if let (true, Some(v)) = (proxied, &value) {
                    self.trace
                        .instant(EventKind::StoreFetch, Some(&key), v.nbytes());
                }
                let miss = || format!("key {key} not on this worker");
                Some((reply, DataReply::Value(value.ok_or_else(miss))))
            }
            DataMsg::Delete { keys } => {
                self.remove(&keys);
                None
            }
            DataMsg::Sweep { session } => {
                self.remove_session(session);
                None
            }
            DataMsg::Stats { reply } => {
                let (keys, bytes) = self.report();
                let keys = keys as u64;
                Some((reply, DataReply::Stats { keys, bytes }))
            }
            DataMsg::Shutdown => None,
        }
    }

    /// Worker memory report: entry count and total payload bytes (spilled
    /// entries included on both counts).
    pub fn report(&self) -> (usize, u64) {
        let inner = self.inner.lock();
        (inner.entries.len(), inner.total_bytes)
    }

    // ---- internals ---------------------------------------------------------

    fn get_locked(&self, inner: &mut Inner, key: &Key) -> Option<Datum> {
        let Some(entry) = inner.entries.get_mut(key) else {
            return self.miss(key);
        };
        let (path, shape) = match &mut entry.slot {
            Slot::Mem { value, stamp } => {
                if let Some(stamp) = stamp {
                    let listed = inner.recency.unlist(*stamp);
                    *stamp = inner.recency.list(listed.unwrap_or_else(|| key.clone()));
                }
                self.stats.inc(Metric::StoreHits);
                return Some(value.clone());
            }
            Slot::Spilled { path, shape } => (&*path, &*shape),
        };
        // Spilled: restore, re-admit as most-recently-used, re-balance the
        // budget against everything *else* (never re-spill what we return).
        let t0 = self.trace.start();
        let restored = read_spill(path, shape);
        let _ = std::fs::remove_file(path);
        let restored = match restored {
            Ok(array) => array,
            Err(e) => {
                eprintln!(
                    "dtask-store: w{}: restoring {key} failed ({e}); entry dropped",
                    self.worker
                );
                inner.remove(key);
                return self.miss(key);
            }
        };
        self.stats.inc(Metric::StoreRestores);
        self.stats.inc(Metric::StoreHits);
        self.trace
            .span(EventKind::StoreRestore, t0, Some(key), entry.nbytes);
        let value = Datum::Array(Arc::new(restored));
        let stamp = inner.recency.list(key.clone());
        inner.mem_bytes += entry.nbytes;
        entry.slot = Slot::Mem {
            value: value.clone(),
            stamp: Some(stamp),
        };
        self.evict_over_budget(inner, Some(stamp));
        Some(value)
    }

    fn miss(&self, key: &Key) -> Option<Datum> {
        self.stats.inc(Metric::StoreMisses);
        self.trace.instant(EventKind::StoreMiss, Some(key), 0);
        None
    }

    /// Spill least-recently-used array entries until memory fits the
    /// budget. Unspillable entries (scalars, lists, strings) are not in the
    /// recency index and the entry stamped `protect` (the one just inserted
    /// or restored) is skipped; if only those remain — or a spill cannot be
    /// written — the store runs over budget rather than losing data.
    fn evict_over_budget(&self, inner: &mut Inner, protect: Option<u64>) {
        let Some(budget) = self.config.mem_budget else {
            return;
        };
        while inner.mem_bytes > budget {
            let Some(stamp) = inner.recency.coldest(protect) else {
                return;
            };
            let Some(dir) = self.spill_dir(inner) else {
                return;
            };
            let path = dir.join(format!("spill-{}.h5l", inner.spill_seq));
            inner.spill_seq += 1;
            let Some(key) = inner.recency.unlist(stamp) else {
                return;
            };
            let Some(entry) = inner.entries.get_mut(&key) else {
                continue;
            };
            let Slot::Mem {
                value: Datum::Array(array),
                ..
            } = &entry.slot
            else {
                continue;
            };
            let t0 = self.trace.start();
            if let Err(e) = write_spill(&path, array) {
                eprintln!(
                    "dtask-store: w{}: spilling {key} failed ({e}); kept in memory",
                    self.worker
                );
                let _ = std::fs::remove_file(&path);
                inner.recency.by_stamp.insert(stamp, key);
                return;
            }
            self.stats.inc(Metric::StoreSpills);
            self.stats.add(Metric::StoreSpillBytes, entry.nbytes);
            self.trace
                .span(EventKind::StoreSpill, t0, Some(&key), entry.nbytes);
            inner.mem_bytes -= entry.nbytes;
            let shape = array.shape().to_vec();
            entry.slot = Slot::Spilled { path, shape };
        }
    }

    /// The spill directory, created on first use; `None` (logged) when it
    /// cannot be created, which the caller treats as a failed spill.
    fn spill_dir(&self, inner: &mut Inner) -> Option<PathBuf> {
        if inner.dir.is_none() {
            let dir = self.config.spill_dir.clone().unwrap_or_else(|| {
                std::env::temp_dir().join(format!(
                    "dtask-store-{}-{}-w{}",
                    std::process::id(),
                    self.instance,
                    self.worker
                ))
            });
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!(
                    "dtask-store: w{}: creating {dir:?} failed ({e}); nothing spills",
                    self.worker
                );
                return None;
            }
            inner.dir = Some(dir);
        }
        inner.dir.clone()
    }
}

impl Drop for ObjectStore {
    fn drop(&mut self) {
        // Only auto-created temp dirs are removed; a user-chosen spill_dir
        // outlives the store.
        let inner = self.inner.get_mut();
        if self.config.spill_dir.is_none() {
            if let Some(dir) = inner.dir.take() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ObjectStore")
            .field("worker", &self.worker)
            .field("entries", &inner.entries.len())
            .field("mem_bytes", &inner.mem_bytes)
            .finish()
    }
}

/// Write one array as a single-chunk h5lite container (the paper's post-hoc
/// I/O path): dataset `data`, chunk shape == array shape.
fn write_spill(path: &std::path::Path, array: &NDArray) -> Result<(), h5lite::FormatError> {
    let mut w = h5lite::H5Writer::create(path)?;
    let shape = array.shape().to_vec();
    w.create_dataset("data", &shape, &shape)?;
    w.write_chunk("data", &vec![0; shape.len()], array)?;
    w.close()
}

/// Read back a spill file written by [`write_spill`]. f64 payloads round-trip
/// as raw IEEE bits, so NaN and -0.0 survive bit-exactly.
fn read_spill(path: &std::path::Path, shape: &[usize]) -> Result<NDArray, h5lite::FormatError> {
    let r = h5lite::H5Reader::open(path)?;
    r.read_chunk("data", &vec![0; shape.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn key(s: &str) -> Key {
        Key::new(s)
    }

    fn block(fill: f64, elems: usize) -> Datum {
        Datum::Array(Arc::new(NDArray::full(&[elems], fill)))
    }

    #[test]
    fn default_config_is_inert() {
        let c = StoreConfig::default();
        assert!(!c.proxies);
        assert_eq!(c.mem_budget, None);
        assert!(c.keep_inline(&block(1.0, 1 << 20)));
    }

    #[test]
    fn inline_threshold_gates_proxying() {
        let c = StoreConfig::proxies();
        assert!(c.keep_inline(&block(1.0, 4)), "32 B <= 256 B threshold");
        assert!(!c.keep_inline(&block(1.0, 64)), "512 B > 256 B threshold");
        assert!(
            c.keep_inline(&Datum::F64(1.0)),
            "scalars always stay inline"
        );
        assert!(
            c.keep_inline(&Datum::Str("x".repeat(4096))),
            "only arrays are proxied"
        );
    }

    #[test]
    fn unbounded_store_never_spills() {
        let store = ObjectStore::unbounded();
        for i in 0..64 {
            store.insert(key(&format!("k{i}")), block(i as f64, 128));
        }
        assert_eq!(store.len(), 64);
        assert_eq!(store.mem_bytes(), 64 * 1024);
        assert!(store.spilled_keys().is_empty());
    }

    #[test]
    fn arrays_come_back_arc_shared() {
        let store = ObjectStore::unbounded();
        let a = Arc::new(NDArray::full(&[8], 3.0));
        store.insert(key("a"), Datum::Array(Arc::clone(&a)));
        let got = store.get(&key("a")).unwrap();
        assert!(Arc::ptr_eq(got.as_array().unwrap(), &a), "zero-copy get");
    }

    #[test]
    fn lru_eviction_spills_oldest_first() {
        let stats = Arc::new(SchedulerStats::new());
        let store = ObjectStore::new(
            StoreConfig {
                mem_budget: Some(2 * 1024),
                ..StoreConfig::default()
            },
            0,
            Arc::clone(&stats),
            TraceHandle::disabled(),
        );
        // Three 1 KiB blocks under a 2 KiB budget: inserting the third must
        // spill exactly the oldest.
        store.insert(key("a"), block(1.0, 128));
        store.insert(key("b"), block(2.0, 128));
        // Touch `a` so `b` becomes the LRU candidate.
        store.get(&key("a")).unwrap();
        store.insert(key("c"), block(3.0, 128));
        assert!(store.is_spilled(&key("b")), "LRU entry spills first");
        assert!(!store.is_spilled(&key("a")));
        assert!(!store.is_spilled(&key("c")));
        assert_eq!(stats.store_spills(), 1);
        assert_eq!(stats.store_spill_bytes(), 1024);
        assert_eq!(store.mem_bytes(), 2 * 1024);
        assert_eq!(store.total_bytes(), 3 * 1024, "spilling frees no data");
        // Access the spilled entry: restored bit-exact, another entry spills.
        let b = store.get(&key("b")).unwrap();
        assert_eq!(b.as_array().unwrap().get(&[5]), 2.0);
        assert_eq!(stats.store_restores(), 1);
        assert!(
            store.is_spilled(&key("a")) || store.is_spilled(&key("c")),
            "restoring over budget re-balances onto another entry"
        );
    }

    #[test]
    fn remove_drops_spill_files_and_dir_cleans_on_drop() {
        let store = ObjectStore::new(
            StoreConfig {
                mem_budget: Some(0),
                ..StoreConfig::default()
            },
            7,
            Arc::new(SchedulerStats::new()),
            TraceHandle::disabled(),
        );
        store.insert(key("x"), block(1.0, 16));
        store.insert(key("y"), block(2.0, 16));
        // Budget 0: everything (except the freshly inserted protected key)
        // spills as soon as the next insert arrives.
        assert!(store.is_spilled(&key("x")));
        let spilled = store.spilled_keys();
        let dir = store.inner.lock().dir.clone().unwrap();
        assert!(dir.exists());
        store.remove(&spilled);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "remove deletes spill files"
        );
        drop(store);
        assert!(!dir.exists(), "temp spill dir removed on drop");
    }

    #[test]
    fn miss_counts_and_non_arrays_survive_pressure() {
        let stats = Arc::new(SchedulerStats::new());
        let store = ObjectStore::new(
            StoreConfig {
                mem_budget: Some(8),
                ..StoreConfig::default()
            },
            0,
            Arc::clone(&stats),
            TraceHandle::disabled(),
        );
        assert!(store.get(&key("nope")).is_none());
        assert_eq!(stats.store_misses(), 1);
        store.insert(key("s"), Datum::Str("not spillable".into()));
        store.insert(key("l"), Datum::List(vec![Datum::F64(0.5)]));
        // Over budget but nothing spillable: data is kept, not dropped.
        assert_eq!(store.len(), 2);
        assert!(store.spilled_keys().is_empty());
        assert_eq!(
            store.get(&key("s")).unwrap().as_str(),
            Some("not spillable")
        );
    }

    #[test]
    fn remove_session_sweeps_only_that_tenant() {
        let store = ObjectStore::unbounded();
        store.insert(Key::scoped(1, "a"), block(1.0, 16));
        store.insert(Key::scoped(1, "b"), block(2.0, 16));
        store.insert(Key::scoped(2, "a"), block(3.0, 16));
        store.insert(key("a"), block(4.0, 16));
        assert_eq!(store.remove_session(1), 2);
        assert_eq!(store.len(), 2);
        assert!(store.get(&Key::scoped(1, "a")).is_none());
        assert!(store.get(&Key::scoped(2, "a")).is_some());
        assert!(store.get(&key("a")).is_some(), "default session untouched");
        assert_eq!(store.remove_session(3), 0);
    }

    #[test]
    fn spill_restore_is_bit_exact_for_nan_and_negzero() {
        let store = ObjectStore::new(
            StoreConfig {
                mem_budget: Some(0),
                ..StoreConfig::default()
            },
            0,
            Arc::new(SchedulerStats::new()),
            TraceHandle::disabled(),
        );
        let weird = NDArray::from_fn(&[2, 2], |i| match (i[0], i[1]) {
            (0, 0) => f64::NAN,
            (0, 1) => -0.0,
            (1, 0) => f64::INFINITY,
            _ => 1.0 / 3.0,
        });
        store.insert(key("w"), Datum::from(weird));
        store.insert(key("force"), block(0.0, 4));
        assert!(store.is_spilled(&key("w")));
        let back = store.get(&key("w")).unwrap();
        let arr = back.as_array().unwrap();
        assert!(arr.get(&[0, 0]).is_nan());
        assert!(arr.get(&[0, 1]) == 0.0 && arr.get(&[0, 1]).is_sign_negative());
        assert_eq!(arr.get(&[1, 0]), f64::INFINITY);
        assert_eq!(arr.get(&[1, 1]), 1.0 / 3.0);
    }

    fn budgeted(
        budget: Option<u64>,
        spill_dir: Option<PathBuf>,
    ) -> (ObjectStore, Arc<SchedulerStats>) {
        let stats = Arc::new(SchedulerStats::new());
        let config = StoreConfig {
            mem_budget: budget,
            spill_dir,
            ..StoreConfig::default()
        };
        let store = ObjectStore::new(config, 0, Arc::clone(&stats), TraceHandle::disabled());
        (store, stats)
    }

    /// A fresh, empty directory for one test (tests run in parallel).
    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dtask-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn get_many_is_one_pass_of_gets() {
        let (store, stats) = budgeted(Some(1024), None);
        store.insert(key("a"), block(1.0, 128));
        store.insert(key("b"), block(2.0, 128)); // spills `a`
        store.insert(key("s"), Datum::F64(0.5));
        assert!(store.is_spilled(&key("a")));
        let got = store.get_many(&[key("s"), key("nope"), key("a"), key("b")]);
        assert_eq!(got[0].as_ref().and_then(Datum::as_f64), Some(0.5));
        assert!(got[1].is_none());
        assert_eq!(got[2].as_ref().unwrap().as_array().unwrap().get(&[3]), 1.0);
        // Restoring `a` pushed `b` out; the get of `b` in the same pass
        // restores it in turn — every input comes back whatever the budget.
        assert_eq!(got[3].as_ref().unwrap().as_array().unwrap().get(&[3]), 2.0);
        assert_eq!((stats.store_hits(), stats.store_misses()), (3, 1));
        assert_eq!(stats.store_restores(), 2);
        assert!(store.get_many(&[]).is_empty());
    }

    #[test]
    fn failed_spill_keeps_the_entry_resident() {
        // A spill directory that cannot exist: its parent is a regular file.
        let scratch = scratch_dir("unwritable");
        std::fs::write(scratch.join("file"), b"not a directory").unwrap();
        let (store, stats) = budgeted(Some(0), Some(scratch.join("file").join("spills")));
        store.insert(key("a"), block(1.0, 16));
        store.insert(key("b"), block(2.0, 16));
        assert!(store.spilled_keys().is_empty(), "nothing could spill");
        assert_eq!(stats.store_spills(), 0);
        assert_eq!(store.mem_bytes(), 256, "over budget, data kept");
        assert_eq!(
            store.get(&key("a")).unwrap().as_array().unwrap().get(&[0]),
            1.0
        );

        // One unwritable spill *file*: that attempt fails, the next succeeds.
        let dir = scratch.join("spills");
        std::fs::create_dir_all(dir.join("spill-0.h5l")).unwrap();
        let (store, stats) = budgeted(Some(0), Some(dir));
        store.insert(key("a"), block(1.0, 16));
        store.insert(key("b"), block(2.0, 16));
        assert!(!store.is_spilled(&key("a")), "spill-0 is a directory");
        assert_eq!((stats.store_spills(), store.mem_bytes()), (0, 256));
        store.insert(key("c"), block(3.0, 16));
        assert!(store.is_spilled(&key("a")) && store.is_spilled(&key("b")));
        assert_eq!((stats.store_spills(), store.mem_bytes()), (2, 128));
        assert_eq!(store.total_bytes(), 384);
        assert_eq!(
            store.get(&key("a")).unwrap().as_array().unwrap().get(&[0]),
            1.0
        );
        drop(store);
        let _ = std::fs::remove_dir_all(scratch);
    }

    #[test]
    fn failed_restore_is_a_miss_and_drops_the_entry() {
        let dir = scratch_dir("lost-spill");
        let (store, stats) = budgeted(Some(0), Some(dir.clone()));
        store.insert(key("a"), block(1.0, 16));
        store.insert(key("b"), block(2.0, 16));
        assert!(store.is_spilled(&key("a")));
        for file in std::fs::read_dir(&dir).unwrap() {
            std::fs::remove_file(file.unwrap().path()).unwrap();
        }
        assert!(
            store.get(&key("a")).is_none(),
            "lost spill file reads as a miss"
        );
        assert_eq!((stats.store_misses(), stats.store_restores()), (1, 0));
        assert!(!store.contains(&key("a")), "the lost entry is dropped");
        assert_eq!(store.report(), (1, 128));
        assert_eq!(
            store.get(&key("b")).unwrap().as_array().unwrap().get(&[0]),
            2.0
        );
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }

    impl ObjectStore {
        /// The running totals and the recency index agree with a full walk.
        fn check_invariants(&self) {
            let inner = self.inner.lock();
            let (mut mem, mut total, mut listed) = (0, 0, 0);
            for (key, entry) in &inner.entries {
                total += entry.nbytes;
                if let Slot::Mem { value, stamp } = &entry.slot {
                    mem += entry.nbytes;
                    assert_eq!(stamp.is_some(), spillable(value), "{key}");
                    if let Some(stamp) = stamp {
                        assert_eq!(inner.recency.by_stamp.get(stamp), Some(key));
                        listed += 1;
                    }
                }
            }
            assert_eq!((inner.mem_bytes, inner.total_bytes), (mem, total));
            assert_eq!(inner.recency.by_stamp.len(), listed, "only spillable");
        }
    }

    /// Reference model: the store's previous structure — every key in one
    /// `Vec` recency list, linear touch and remove, eviction walking the
    /// list from its cold end — with spilling reduced to a flag.
    struct Model {
        budget: Option<u64>,
        lru: Vec<Key>,
        held: HashMap<Key, (Datum, bool)>,
        hits: u64,
        misses: u64,
        spills: u64,
        restores: u64,
        spill_bytes: u64,
    }

    impl Model {
        fn bytes(&self, include_spilled: bool) -> u64 {
            let counted = self.held.values().filter(|(_, s)| include_spilled || !s);
            counted.map(|(v, _)| v.nbytes()).sum()
        }

        fn remove(&mut self, key: &Key) -> bool {
            self.lru.retain(|k| k != key);
            self.held.remove(key).is_some()
        }

        fn insert(&mut self, key: Key, value: Datum) {
            self.remove(&key);
            self.held.insert(key.clone(), (value, false));
            self.lru.push(key.clone());
            self.evict(&key);
        }

        fn get(&mut self, key: &Key) -> Option<Datum> {
            let Some((value, spilled)) = self.held.get_mut(key) else {
                self.misses += 1;
                return None;
            };
            self.hits += 1;
            let value = value.clone();
            let restored = std::mem::take(spilled);
            self.lru.retain(|k| k != key);
            self.lru.push(key.clone());
            if restored {
                self.restores += 1;
                self.evict(key);
            }
            Some(value)
        }

        fn evict(&mut self, protect: &Key) {
            let Some(budget) = self.budget else { return };
            for key in self.lru.clone() {
                if self.bytes(false) <= budget {
                    break;
                }
                let (value, spilled) = self.held.get_mut(&key).unwrap();
                if &key != protect && !*spilled && spillable(value) {
                    *spilled = true;
                    self.spills += 1;
                    self.spill_bytes += value.nbytes();
                }
            }
        }
    }

    #[test]
    fn differential_against_the_vec_lru_model() {
        let pool: Vec<Key> = (0..24)
            .map(|i| Key::scoped(i % 3, format!("k{}", i / 3)))
            .collect();
        for (seed, budget) in [(1, None), (2, Some(0)), (3, Some(200)), (4, Some(600))] {
            let mut rng = crate::policy::XorShift64::new(seed);
            let mut pick = |n: u64| (rng.next() >> 33) % n;
            let (store, stats) = budgeted(budget, None);
            let mut model = Model {
                budget,
                lru: Vec::new(),
                held: HashMap::new(),
                hits: 0,
                misses: 0,
                spills: 0,
                restores: 0,
                spill_bytes: 0,
            };
            let show = |got: &Option<Datum>| format!("{got:?}");
            for step in 0..1500 {
                let key = pool[pick(24) as usize].clone();
                match pick(10) {
                    0..=3 => {
                        let value = match pick(6) {
                            0 => Datum::F64(step as f64),
                            1 => Datum::List(vec![Datum::I64(step), Datum::Str("x".into())]),
                            2 => Datum::Str("s".repeat(pick(40) as usize)),
                            3 => Datum::from(NDArray::zeros(&[0])),
                            _ => block(step as f64, 1 + pick(32) as usize),
                        };
                        store.insert(key.clone(), value.clone());
                        model.insert(key, value);
                    }
                    4..=6 => assert_eq!(show(&store.get(&key)), show(&model.get(&key))),
                    7 => {
                        let keys: Vec<Key> = (0..pick(6))
                            .map(|_| pool[pick(24) as usize].clone())
                            .collect();
                        let want: Vec<_> = keys.iter().map(|k| show(&model.get(k))).collect();
                        let got: Vec<_> = store.get_many(&keys).iter().map(show).collect();
                        assert_eq!(got, want, "seed {seed} step {step}");
                    }
                    8 => {
                        let keys = [key, pool[pick(24) as usize].clone()];
                        let want = keys.iter().filter(|k| model.remove(k)).count();
                        assert_eq!(store.remove(&keys), want);
                    }
                    _ if pick(8) == 0 => {
                        let session = key.session();
                        let doomed: Vec<Key> = model.held.keys().cloned().collect();
                        let doomed = doomed.iter().filter(|k| k.session() == session);
                        let want = doomed.filter(|k| model.remove(k)).count();
                        assert_eq!(store.remove_session(session), want);
                    }
                    _ => {}
                }
                let at = format!("seed {seed} step {step}");
                store.check_invariants();
                let mut spilled = store.spilled_keys();
                spilled.sort();
                let mut want: Vec<Key> = model
                    .held
                    .iter()
                    .filter(|(_, v)| v.1)
                    .map(|(k, _)| k.clone())
                    .collect();
                want.sort();
                assert_eq!(spilled, want, "{at}");
                for k in &pool {
                    assert_eq!(store.is_spilled(k), want.contains(k), "{at}");
                }
                assert_eq!(store.mem_bytes(), model.bytes(false), "{at}");
                assert_eq!(store.total_bytes(), model.bytes(true), "{at}");
                assert_eq!(
                    store.report(),
                    (model.held.len(), model.bytes(true)),
                    "{at}"
                );
                assert_eq!(store.len(), model.held.len(), "{at}");
                assert_eq!(
                    (
                        stats.store_hits(),
                        stats.store_misses(),
                        stats.store_spills()
                    ),
                    (model.hits, model.misses, model.spills),
                    "{at}"
                );
                assert_eq!(
                    (stats.store_restores(), stats.store_spill_bytes()),
                    (model.restores, model.spill_bytes),
                    "{at}"
                );
            }
            assert!(
                budget.is_none() || model.restores > 20,
                "seed {seed} exercised spilling"
            );
        }
    }

    /// Best-of-five nanoseconds per key for `op` over a store of `n` keys.
    fn ns_per_key(
        n: usize,
        budget: Option<u64>,
        value: &Datum,
        op: fn(&ObjectStore, &[Key]),
    ) -> f64 {
        let keys: Vec<Key> = (0..n).map(|i| key(&format!("k{i}"))).collect();
        let best = (0..5).map(|_| {
            let (store, _) = budgeted(budget, None);
            for k in &keys {
                store.insert(k.clone(), value.clone());
            }
            let t0 = std::time::Instant::now();
            op(&store, &keys);
            t0.elapsed()
        });
        best.min().unwrap().as_nanos() as f64 / n as f64
    }

    /// The cost of one `get` or `remove` must not grow with the number of
    /// resident keys. Compares two sizes in one process, so a slow box
    /// scales both sides; the `Vec` recency list this store used to keep
    /// gave ~32x between these sizes.
    #[test]
    fn per_op_cost_does_not_scale_with_resident_keys() {
        let get_each: fn(&ObjectStore, &[Key]) = |store, keys| {
            for k in keys {
                std::hint::black_box(store.get(k));
            }
        };
        let remove_each: fn(&ObjectStore, &[Key]) = |store, keys| {
            for k in keys {
                std::hint::black_box(store.remove(std::slice::from_ref(k)));
            }
        };
        let cases = [
            ("scalars, no budget", None, Datum::F64(1.0)),
            (
                "arrays under a budget that never trips",
                Some(u64::MAX),
                block(1.0, 1),
            ),
        ];
        for (what, budget, value) in cases {
            for (name, op) in [("get", get_each), ("remove", remove_each)] {
                let small = ns_per_key(2_000, budget, &value, op);
                let large = ns_per_key(64_000, budget, &value, op);
                assert!(
                    large < 8.0 * small,
                    "{name} ({what}): {large:.0} ns/key at 64k keys vs {small:.0} at 2k"
                );
            }
        }
    }
}
