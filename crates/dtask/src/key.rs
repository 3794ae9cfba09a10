//! Task keys.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Session (tenant) identifier. `0` is the implicit default session every
/// key belongs to unless explicitly scoped — single-tenant clusters never
/// see any other value, which keeps their hashing and wire bytes identical
/// to the pre-tenancy runtime.
pub type SessionId = u32;

/// The implicit session id of unscoped keys.
pub const DEFAULT_SESSION: SessionId = 0;

/// A task key: globally unique name of a task/data item, cheap to clone.
///
/// DEISA's naming scheme (paper §2.4.1) builds keys like
/// `deisa-temp@(1,3,5)` — prefix, field name, and spatiotemporal block
/// position; see `deisa-core::naming`.
///
/// Keys are namespaced by a [`SessionId`]: two tenants submitting the same
/// key *text* produce distinct keys, so their graphs never collide in the
/// scheduler's maps. Session 0 is the implicit single-tenant namespace.
///
/// The hash of the text is computed once at construction and cached, so the
/// scheduler's hot maps (`tasks`, `who_has`, waiter sets) never rehash the
/// full string on lookup.
#[derive(Clone)]
pub struct Key {
    text: Arc<str>,
    hash: u64,
    session: SessionId,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the key bytes; stable and cheap for short task names.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// The hasher of every map keyed by [`Key`]: a key hashes as the one `u64`
/// it cached at construction, so a lookup never reads the text and never
/// runs SipHash over a hash that is already one. The hash is unkeyed, which
/// is safe only because keys come from the cluster's own clients and nodes.
#[derive(Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached by a type other than `Key`: fold it in with FNV-1a.
        self.0 = bytes.iter().fold(self.0 ^ FNV_OFFSET, |h, &b| {
            (h ^ b as u64).wrapping_mul(FNV_PRIME)
        });
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A map keyed by [`Key`], hashed through [`KeyHasher`].
pub type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

impl Key {
    /// Create a key in the implicit default session.
    pub fn new(s: impl AsRef<str>) -> Self {
        Key::scoped(DEFAULT_SESSION, s)
    }

    /// Create a key namespaced to `session`. Session 0 is byte- and
    /// hash-identical to [`Key::new`].
    pub fn scoped(session: SessionId, s: impl AsRef<str>) -> Self {
        let text: Arc<str> = Arc::from(s.as_ref());
        let mut hash = fnv1a(text.as_bytes());
        if session != DEFAULT_SESSION {
            // Mix the session only when non-zero so default-session hashes
            // stay exactly what they were before tenancy existed.
            hash ^= (session as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        Key {
            text,
            hash,
            session,
        }
    }

    /// This key's text, re-scoped to another session.
    pub fn with_session(&self, session: SessionId) -> Self {
        if session == self.session {
            self.clone()
        } else {
            let mut hash = fnv1a(self.text.as_bytes());
            if session != DEFAULT_SESSION {
                hash ^= (session as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            Key {
                text: Arc::clone(&self.text),
                hash,
                session,
            }
        }
    }

    /// The key text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The session this key belongs to (0 = implicit default).
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The precomputed hash (exposed for tests and diagnostics).
    pub fn cached_hash(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        // Hash first: a cheap u64 compare rejects almost all mismatches
        // before touching the string bytes. Clones share the allocation, so
        // the pointer check settles the common equal case for free.
        self.hash == other.hash
            && self.session == other.session
            && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.session
            .cmp(&other.session)
            .then_with(|| self.text.cmp(&other.text))
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.session == DEFAULT_SESSION {
            write!(f, "Key({})", self.text)
        } else {
            write!(f, "Key(s{}:{})", self.session, self.text)
        }
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::new(s)
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_and_hash() {
        let a = Key::new("x-1");
        let b = Key::from("x-1".to_string());
        let c: Key = "x-2".into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn clone_is_cheap_and_shares() {
        let a = Key::new("shared");
        let b = a.clone();
        assert_eq!(a.as_str().as_ptr(), b.as_str().as_ptr());
    }

    #[test]
    fn cached_hash_matches_across_constructions() {
        let a = Key::new("deisa-temp@(1,3,5)");
        let b = Key::from("deisa-temp@(1,3,5)");
        assert_eq!(a.cached_hash(), b.cached_hash());
        assert_ne!(a.cached_hash(), Key::new("other").cached_hash());
    }

    #[test]
    fn ordering_is_textual() {
        let mut v = [Key::new("b"), Key::new("a"), Key::new("c")];
        v.sort();
        let s: Vec<&str> = v.iter().map(|k| k.as_str()).collect();
        assert_eq!(s, vec!["a", "b", "c"]);
    }

    #[test]
    fn display() {
        assert_eq!(
            Key::new("deisa-temp@(1,3,5)").to_string(),
            "deisa-temp@(1,3,5)"
        );
    }

    #[test]
    fn sessions_namespace_identical_text() {
        let base = Key::new("sink");
        let s1 = Key::scoped(1, "sink");
        let s2 = Key::scoped(2, "sink");
        assert_ne!(base, s1);
        assert_ne!(s1, s2);
        assert_eq!(s1, Key::scoped(1, "sink"));
        assert_ne!(s1.cached_hash(), s2.cached_hash());
        let mut set = HashSet::new();
        set.insert(base.clone());
        set.insert(s1.clone());
        set.insert(s2.clone());
        assert_eq!(set.len(), 3);
        assert!(set.contains(&Key::scoped(1, "sink")));
    }

    #[test]
    fn default_session_is_hash_identical_to_scoped_zero() {
        let a = Key::new("x");
        let b = Key::scoped(0, "x");
        assert_eq!(a, b);
        assert_eq!(a.cached_hash(), b.cached_hash());
        assert_eq!(a.session(), 0);
        assert_eq!(Key::scoped(7, "x").session(), 7);
    }

    #[test]
    fn a_key_map_hashes_by_the_cached_hash() {
        let key = Key::scoped(3, "deisa-temp@(1,3,5)");
        let mut hasher = KeyHasher::default();
        key.hash(&mut hasher);
        assert_eq!(hasher.finish(), key.cached_hash());
        let mut map = KeyMap::default();
        map.insert(key.clone(), 1);
        map.insert(Key::new("deisa-temp@(1,3,5)"), 2);
        assert_eq!(map[&Key::scoped(3, "deisa-temp@(1,3,5)")], 1);
        assert_eq!(map[&Key::new("deisa-temp@(1,3,5)")], 2);
    }

    #[test]
    fn with_session_rescopes_text() {
        let k = Key::new("block");
        let scoped = k.with_session(3);
        assert_eq!(scoped, Key::scoped(3, "block"));
        assert_eq!(scoped.as_str(), "block");
        assert_eq!(scoped.with_session(0), k);
    }
}
