//! The two partial views maintained by HyParView (§4.1), one bounded type.
//!
//! * the **active view** — small (`fanout + 1`), symmetric, kept with open
//!   connections; defines the broadcast overlay. A full active view takes
//!   no one in ([`View::insert`]): the protocol layer evicts first, because
//!   the evicted peer must be sent a `DISCONNECT`.
//! * the **passive view** — larger backup list refreshed by shuffles;
//!   candidates for active-view repair. A full passive view evicts to make
//!   room ([`View::insert_evicting`]).
//!
//! [`View`] wraps [`crate::collections::RandomSet`] and enforces the
//! invariants of Algorithm 1: no duplicates and a fixed bound. No
//! self-entries and no node in both views at once are the protocol layer's
//! part.

use crate::collections::RandomSet;
use crate::Identity;
use rand::Rng;

/// The small symmetric view used for message dissemination.
///
/// # Examples
///
/// ```
/// use hyparview_core::view::ActiveView;
///
/// let mut view: ActiveView<u32> = ActiveView::new(2);
/// assert!(view.insert(1));
/// assert!(view.insert(2));
/// assert!(view.is_full());
/// assert!(!view.insert(1), "duplicates rejected");
/// ```
pub type ActiveView<I> = View<I>;

/// The larger backup view used to repair the active view after failures.
///
/// Insertion into a full passive view evicts a uniformly random entry, or —
/// when integrating a shuffle — preferentially evicts identifiers that were
/// just sent to the shuffle peer (§4.4).
///
/// # Examples
///
/// ```
/// use hyparview_core::view::PassiveView;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut view: PassiveView<u32> = PassiveView::new(2);
/// view.insert_evicting(1, &mut rng);
/// view.insert_evicting(2, &mut rng);
/// view.insert_evicting(3, &mut rng); // evicts 1 or 2 at random
/// assert_eq!(view.len(), 2);
/// assert!(view.contains(&3));
/// ```
pub type PassiveView<I> = View<I>;

/// A set of peers bounded by a capacity fixed at construction.
#[derive(Debug, Clone)]
pub struct View<I> {
    members: RandomSet<I>,
    capacity: usize,
}

impl<I: Identity> View<I> {
    /// Creates an empty view bounded by `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; validate the [`Config`](crate::Config)
    /// first to surface this as an error instead.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        View { members: RandomSet::with_capacity(capacity), capacity }
    }

    /// Maximum number of members.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` when no members are present.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` when the view is at capacity.
    pub fn is_full(&self) -> bool {
        self.members.len() >= self.capacity
    }

    /// Returns `true` if `peer` is a member.
    pub fn contains(&self, peer: &I) -> bool {
        self.members.contains(peer)
    }

    /// Inserts `peer` if there is room and it is not already present — the
    /// active view's rule. Returns `true` on insertion. Callers make room
    /// first (via [`View::evict_random`]) when the view is full.
    pub fn insert(&mut self, peer: I) -> bool {
        !self.is_full() && self.members.insert(peer)
    }

    /// Inserts `peer`, evicting a uniformly random member if full
    /// (`addNodePassiveView` in Algorithm 1). Returns `true` if inserted; a
    /// duplicate evicts nothing.
    pub fn insert_evicting<R: Rng + ?Sized>(&mut self, peer: I, rng: &mut R) -> bool {
        self.insert_preferring_eviction_of(peer, &mut Vec::new(), rng)
    }

    /// Inserts `peer`, preferring to evict members listed in `sent_to_peer`
    /// — the shuffle integration rule of §4.4: "a node will first attempt to
    /// remove identifiers sent to the peer; if no such identifiers remain, it
    /// will remove identifiers at random".
    pub fn insert_preferring_eviction_of<R: Rng + ?Sized>(
        &mut self,
        peer: I,
        sent_to_peer: &mut Vec<I>,
        rng: &mut R,
    ) -> bool {
        if self.members.contains(&peer) {
            return false;
        }
        if self.is_full() {
            let evicted = loop {
                match sent_to_peer.pop() {
                    Some(candidate) => {
                        if self.members.remove(&candidate) {
                            break true;
                        }
                    }
                    None => break false,
                }
            };
            if !evicted {
                self.members.remove_random(rng);
            }
        }
        self.members.insert(peer)
    }

    /// Removes `peer`, returning `true` if it was present.
    pub fn remove(&mut self, peer: &I) -> bool {
        self.members.remove(peer)
    }

    /// Removes and returns a uniformly random member ("drop random element
    /// from active view" in Algorithm 1).
    pub fn evict_random<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<I> {
        self.members.remove_random(rng)
    }

    /// Returns a uniformly random member.
    pub fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<I> {
        self.members.choose(rng).copied()
    }

    /// Returns a uniformly random member different from `excluded` — the
    /// selection rule for forwarding `FORWARDJOIN` and `SHUFFLE` walks.
    pub fn choose_excluding<R: Rng + ?Sized>(&self, rng: &mut R, excluded: &I) -> Option<I> {
        self.members.choose_excluding(rng, excluded)
    }

    /// Returns a uniformly random member not contained in `tried` — used
    /// when cycling through promotion candidates (§4.3).
    pub fn choose_not_in<R: Rng + ?Sized>(&self, rng: &mut R, tried: &[I]) -> Option<I> {
        self.members.choose_where(rng, |peer| !tried.contains(peer))
    }

    /// Samples up to `count` distinct members.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<I> {
        self.members.sample(rng, count)
    }

    /// Samples up to `count` distinct members, never including `excluded`.
    pub fn sample_excluding<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
        excluded: &I,
    ) -> Vec<I> {
        self.members.sample_excluding(rng, count, excluded)
    }

    /// Iterates over members in unspecified order.
    pub fn iter(&self) -> std::slice::Iter<'_, I> {
        self.members.iter()
    }

    /// Members as a slice (unspecified order).
    pub fn as_slice(&self) -> &[I] {
        self.members.as_slice()
    }

    /// Members as an owned vector.
    pub fn to_vec(&self) -> Vec<I> {
        self.members.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBEEF)
    }

    #[test]
    fn active_view_respects_capacity() {
        let mut v: ActiveView<u32> = ActiveView::new(3);
        assert!(v.insert(1));
        assert!(v.insert(2));
        assert!(v.insert(3));
        assert!(v.is_full());
        assert!(!v.insert(4), "insertion into a full view is rejected");
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn active_view_rejects_duplicates() {
        let mut v: ActiveView<u32> = ActiveView::new(3);
        assert!(v.insert(1));
        assert!(!v.insert(1));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn active_view_evict_random_returns_member() {
        let mut v: ActiveView<u32> = ActiveView::new(3);
        v.insert(1);
        v.insert(2);
        let mut r = rng();
        let evicted = v.evict_random(&mut r).unwrap();
        assert!(evicted == 1 || evicted == 2);
        assert_eq!(v.len(), 1);
        assert!(!v.contains(&evicted));
    }

    #[test]
    fn active_view_choose_excluding() {
        let mut v: ActiveView<u32> = ActiveView::new(3);
        v.insert(1);
        v.insert(2);
        let mut r = rng();
        for _ in 0..32 {
            assert_eq!(v.choose_excluding(&mut r, &1), Some(2));
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn active_view_zero_capacity_panics() {
        let _: ActiveView<u32> = ActiveView::new(0);
    }

    #[test]
    fn passive_view_evicts_random_when_full() {
        let mut r = rng();
        let mut v: PassiveView<u32> = PassiveView::new(2);
        assert!(v.insert_evicting(1, &mut r));
        assert!(v.insert_evicting(2, &mut r));
        assert!(v.insert_evicting(3, &mut r));
        assert_eq!(v.len(), 2);
        assert!(v.contains(&3), "newest entry is always kept");
    }

    #[test]
    fn passive_view_rejects_duplicates_without_eviction() {
        let mut r = rng();
        let mut v: PassiveView<u32> = PassiveView::new(2);
        v.insert_evicting(1, &mut r);
        v.insert_evicting(2, &mut r);
        assert!(!v.insert_evicting(1, &mut r));
        assert_eq!(v.len(), 2);
        assert!(v.contains(&1) && v.contains(&2), "duplicate insert must not evict");
    }

    #[test]
    fn shuffle_integration_prefers_evicting_sent_entries() {
        let mut r = rng();
        let mut v: PassiveView<u32> = PassiveView::new(3);
        v.insert_evicting(10, &mut r);
        v.insert_evicting(11, &mut r);
        v.insert_evicting(12, &mut r);
        // We sent 11 and 12 to the peer; inserting two new ids must evict
        // exactly those, leaving 10 untouched.
        let mut sent = vec![11, 12];
        assert!(v.insert_preferring_eviction_of(20, &mut sent, &mut r));
        assert!(v.insert_preferring_eviction_of(21, &mut sent, &mut r));
        assert!(v.contains(&10));
        assert!(v.contains(&20) && v.contains(&21));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn shuffle_integration_falls_back_to_random_eviction() {
        let mut r = rng();
        let mut v: PassiveView<u32> = PassiveView::new(2);
        v.insert_evicting(1, &mut r);
        v.insert_evicting(2, &mut r);
        // Sent list contains ids no longer in the view.
        let mut sent = vec![99];
        assert!(v.insert_preferring_eviction_of(3, &mut sent, &mut r));
        assert_eq!(v.len(), 2);
        assert!(v.contains(&3));
    }

    #[test]
    fn choose_not_in_skips_tried_candidates() {
        let mut r = rng();
        let mut v: PassiveView<u32> = PassiveView::new(4);
        for i in 0..4 {
            v.insert_evicting(i, &mut r);
        }
        let tried = vec![0, 1, 2];
        for _ in 0..16 {
            assert_eq!(v.choose_not_in(&mut r, &tried), Some(3));
        }
        let all = vec![0, 1, 2, 3];
        assert_eq!(v.choose_not_in(&mut r, &all), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn passive_view_zero_capacity_panics() {
        let _: PassiveView<u32> = PassiveView::new(0);
    }
}
