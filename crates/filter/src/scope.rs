//! Interned subscription-scope sets.
//!
//! Every publication carries a *scope* to its publisher's broker: the set of
//! subscription identifiers it is responsible for, frozen at publication
//! time so churn can neither duplicate nor resurrect deliveries. At 10⁵
//! subscribers a single publication matches tens of thousands of
//! subscriptions. (Past the first broker a copy carries its own target
//! list instead.)
//!
//! [`ScopeSet`] is an immutable, **sorted**, reference-counted slice of
//! subscription ids: cloning is an `Arc` bump, membership is a binary
//! search. [`ScopeInterner`] hash-conses the sets so that all messages
//! matching the same population subset share a single allocation. Under
//! churn the live population drifts, so the interner periodically drops
//! entries nobody references anymore.
//!
//! The pool hashes with `IdHasher`, a fixed-key multiplicative hash of one
//! multiply per two ids, instead of the standard library's SipHash, which
//! costs several times that on every publication's full scope. It
//! is not resistant to crafted collisions and need not be: every id it sees
//! was minted by the simulator, never read from outside the program. A
//! collision costs a slice comparison, never a wrong set, because pool
//! equality is full-slice. With no random key, the pool is deterministic
//! like everything else in a run.

use bdps_types::id::SubscriptionId;
use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// An immutable, sorted, deduplicated set of subscription identifiers.
///
/// Cheap to clone (`Arc` bump) and to test membership (binary search).
/// Construction goes through [`ScopeSet::from_sorted`] or a
/// [`ScopeInterner`], both of which require ascending, duplicate-free input
/// — the order every producer in the workspace already emits (the matching
/// index returns ascending ids; per-copy target lists preserve it).
#[derive(Clone)]
pub struct ScopeSet(Arc<[SubscriptionId]>);

impl ScopeSet {
    /// The empty scope.
    pub fn empty() -> Self {
        ScopeSet(Arc::from([]))
    }

    /// Builds a scope from an ascending, duplicate-free id list.
    ///
    /// # Panics
    ///
    /// Panics when the input is not strictly ascending.
    pub fn from_sorted(ids: impl Into<Arc<[SubscriptionId]>>) -> Self {
        let ids = ids.into();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "scope ids must be strictly ascending"
        );
        ScopeSet(ids)
    }

    /// Builds a scope from an arbitrary id list, sorting and deduplicating.
    pub fn from_unsorted(mut ids: Vec<SubscriptionId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        ScopeSet(Arc::from(ids))
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = SubscriptionId> + '_ {
        self.0.iter().copied()
    }

    /// Number of strong references to the underlying allocation (interner
    /// bookkeeping and tests).
    fn ref_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl PartialEq for ScopeSet {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality first: interned sets share one allocation, so the
        // common case is O(1).
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for ScopeSet {}

impl Hash for ScopeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with the slice hash so `HashSet<ScopeSet>` lookups can
        // borrow as `&[SubscriptionId]`.
        self.0.hash(state);
    }
}

impl Borrow<[SubscriptionId]> for ScopeSet {
    fn borrow(&self) -> &[SubscriptionId] {
        &self.0
    }
}

impl fmt::Debug for ScopeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ScopeSet({} ids)", self.0.len())
    }
}

/// How many interns happen between two purges of dead entries.
const PURGE_INTERVAL: u64 = 4_096;

/// FxHash-style hasher for the pool (see the module docs for why a fixed
/// key is enough here).
#[derive(Default)]
struct IdHasher {
    hash: u64,
    /// An id waiting for its partner: ids are mixed in two to a multiply,
    /// which halves the dependent chain a long scope hashes through.
    pending: Option<u32>,
}

fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash = mix(self.hash, u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        match self.pending.take() {
            Some(low) => self.hash = mix(self.hash, u64::from(low) | u64::from(n) << 32),
            None => self.pending = Some(n),
        }
    }

    fn finish(&self) -> u64 {
        let hash = self
            .pending
            .map_or(self.hash, |low| mix(self.hash, u64::from(low)));
        // The product's high bits are the well-mixed ones; the table indexes
        // buckets by the low bits.
        hash.rotate_left(26)
    }
}

/// A hash-consing pool of [`ScopeSet`]s.
///
/// [`intern`](Self::intern) returns the existing allocation when an equal
/// set is already pooled, so repeated scopes — every publication matching
/// the same subscriptions — collapse to `Arc` clones. Entries whose only reference is the
/// pool itself are dropped every 4096 interns, keeping the
/// pool proportional to the *live* scope population under churn.
#[derive(Debug, Clone, Default)]
pub struct ScopeInterner {
    sets: HashSet<ScopeSet, BuildHasherDefault<IdHasher>>,
    interns: u64,
    hits: u64,
}

impl ScopeInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an ascending, duplicate-free id list.
    ///
    /// The slice is only copied into a fresh allocation on a pool miss; a
    /// hit is a hash lookup plus an `Arc` clone.
    pub fn intern(&mut self, ids: &[SubscriptionId]) -> ScopeSet {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "scope ids must be strictly ascending"
        );
        self.interns += 1;
        if self.interns.is_multiple_of(PURGE_INTERVAL) {
            self.purge();
        }
        if let Some(existing) = self.sets.get(ids) {
            self.hits += 1;
            return existing.clone();
        }
        let set = ScopeSet(Arc::from(ids));
        self.sets.insert(set.clone());
        set
    }

    /// Drops every pooled set whose only owner is the pool.
    pub(crate) fn purge(&mut self) {
        self.sets.retain(|s| s.ref_count() > 1);
    }

    /// Total interns served so far.
    pub fn interns(&self) -> u64 {
        self.interns
    }

    /// Interns that reused an existing allocation.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<SubscriptionId> {
        raw.iter().copied().map(SubscriptionId::new).collect()
    }

    #[test]
    fn membership_and_accessors() {
        let s = ScopeSet::from_sorted(ids(&[1, 3, 5]));
        assert_eq!(s.iter().collect::<Vec<_>>(), ids(&[1, 3, 5]));
        assert_eq!(ScopeSet::empty().iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_input_is_rejected() {
        let _ = ScopeSet::from_sorted(ids(&[3, 1]));
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let s = ScopeSet::from_unsorted(ids(&[5, 1, 3, 1]));
        assert_eq!(s.iter().collect::<Vec<_>>(), ids(&[1, 3, 5]));
    }

    #[test]
    fn equality_and_hashing_follow_content() {
        let a = ScopeSet::from_sorted(ids(&[1, 2]));
        let b = ScopeSet::from_sorted(ids(&[1, 2]));
        let c = ScopeSet::from_sorted(ids(&[1, 3]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(ids(&[1, 2]).as_slice()));
        assert!(!set.contains(ids(&[1, 3]).as_slice()));
    }

    #[test]
    fn interning_shares_allocations() {
        let mut pool = ScopeInterner::new();
        let a = pool.intern(&ids(&[1, 2, 3]));
        let b = pool.intern(&ids(&[1, 2, 3]));
        assert!(Arc::ptr_eq(&a.0, &b.0), "equal sets must share storage");
        assert_eq!(pool.sets.len(), 1);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.interns(), 2);
        let c = pool.intern(&ids(&[4]));
        assert!(!Arc::ptr_eq(&a.0, &c.0));
        assert_eq!(pool.sets.len(), 2);
    }

    #[test]
    fn the_pool_hash_is_not_its_identity() {
        // Many small ascending sets over 48 ids, each with a twin of the
        // same length that differs in its last id, interned twice over.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as u32
        };
        let mut sets = Vec::new();
        for _ in 0..2_000 {
            let mut raw: Vec<u32> = (0..next(8)).map(|_| next(48)).collect();
            raw.sort_unstable();
            raw.dedup();
            let mut twin = raw.clone();
            if let Some(last) = twin.last_mut() {
                *last += 1 + next(3);
            }
            sets.push(ids(&raw));
            sets.push(ids(&twin));
        }
        let mut pool = ScopeInterner::new();
        let mut first: std::collections::BTreeMap<Vec<SubscriptionId>, ScopeSet> =
            Default::default();
        let mut hits = 0;
        for set in sets.iter().chain(&sets) {
            let got = pool.intern(set);
            assert_eq!(&*got.0, set.as_slice());
            match first.get(set) {
                Some(earlier) => {
                    assert!(Arc::ptr_eq(&got.0, &earlier.0), "{set:?} not shared");
                    hits += 1;
                }
                None => {
                    first.insert(set.clone(), got);
                }
            }
        }
        assert_eq!(pool.hits(), hits);
        assert_eq!(pool.interns(), 2 * sets.len() as u64);
        let allocations: HashSet<*const [SubscriptionId]> =
            first.values().map(|s| Arc::as_ptr(&s.0)).collect();
        assert_eq!(allocations.len(), first.len(), "two sets share storage");
    }

    #[test]
    fn purge_drops_only_dead_entries() {
        let mut pool = ScopeInterner::new();
        let live = pool.intern(&ids(&[1]));
        {
            let _dead = pool.intern(&ids(&[2]));
        }
        assert_eq!(pool.sets.len(), 2);
        pool.purge();
        assert_eq!(pool.sets.len(), 1);
        assert!(Arc::ptr_eq(&pool.intern(&ids(&[1])).0, &live.0));
        drop(live);
    }

    #[test]
    fn empty_scope_interns_fine() {
        let mut pool = ScopeInterner::new();
        let a = pool.intern(&[]);
        let b = pool.intern(&[]);
        assert_eq!(a.iter().count(), 0);
        assert_eq!(a, b);
        assert_eq!(pool.sets.len(), 1);
    }
}
