//! Newscast-style random peer sampling.
//!
//! The paper selects each node's gossip neighbours "randomly ... at every propagation cycle
//! based on the Newscast model" with a fan-out of `log2(n)`.  Newscast maintains a small
//! partial view of `(peer, timestamp)` descriptors per node; on every cycle a node exchanges
//! views with one random peer from its view, merges the two views and keeps the freshest
//! entries.  The result is a continually reshuffled overlay whose views approximate uniform
//! random samples of the live population — exactly what both the epidemic and aggregation
//! protocols need.

use crate::state::PeerId;
use p2pgrid_sim::{SimRng, SimTime};

/// One node's Newscast partial view.
#[derive(Debug, Clone)]
pub struct NewscastView {
    owner: PeerId,
    entries: Vec<(PeerId, SimTime)>,
    size: usize,
}

impl NewscastView {
    /// Create a view of at most `size` descriptors for node `owner`.
    pub fn new(owner: PeerId, size: usize) -> Self {
        NewscastView {
            owner,
            entries: Vec::with_capacity(size),
            size: size.max(1),
        }
    }

    /// Maximum number of descriptors kept.
    pub fn size_limit(&self) -> usize {
        self.size
    }

    /// The peers currently in the view (excluding the owner).
    #[cfg(test)]
    pub(crate) fn peers(&self) -> Vec<PeerId> {
        self.entries.iter().map(|&(p, _)| p).collect()
    }

    /// Number of descriptors currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the view holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert or refresh a descriptor, keeping only the freshest `size` entries.
    pub fn insert(&mut self, peer: PeerId, timestamp: SimTime) {
        if peer == self.owner {
            return;
        }
        match self.entries.iter_mut().find(|(p, _)| *p == peer) {
            Some(entry) => {
                if timestamp > entry.1 {
                    entry.1 = timestamp;
                }
            }
            None => self.entries.push((peer, timestamp)),
        }
        if self.entries.len() > self.size {
            // Keep the freshest descriptors.
            self.entries
                .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            self.entries.truncate(self.size);
        }
    }

    /// Drop every descriptor for which `departed` returns true.
    pub fn retain_alive(&mut self, departed: &dyn Fn(PeerId) -> bool) {
        self.entries.retain(|&(p, _)| !departed(p));
    }

    /// Pick one uniformly random peer from the view.
    pub fn random_peer(&self, rng: &mut SimRng) -> Option<PeerId> {
        rng.choose(&self.entries).map(|&(p, _)| p)
    }

    /// Pick up to `count` distinct random peers from the view.
    pub fn random_peers(&self, count: usize, rng: &mut SimRng) -> Vec<PeerId> {
        rng.choose_multiple(&self.entries, count)
            .into_iter()
            .map(|&(p, _)| p)
            .collect()
    }

    /// Perform the Newscast exchange between two views: each side learns the other's entries
    /// (plus a fresh descriptor of the counterpart itself) and keeps its freshest `size`.
    pub fn exchange(a: &mut NewscastView, b: &mut NewscastView, now: SimTime) {
        let a_entries = a.entries.clone();
        let b_entries = b.entries.clone();
        for (p, t) in b_entries {
            a.insert(p, t);
        }
        a.insert(b.owner, now);
        for (p, t) in a_entries {
            b.insert(p, t);
        }
        b.insert(a.owner, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_ignores_self_and_respects_bound() {
        let mut v = NewscastView::new(0, 3);
        v.insert(0, SimTime::from_secs(1));
        assert!(v.is_empty(), "a view never contains its owner");
        for i in 1..=5 {
            v.insert(i, SimTime::from_secs(i as u64));
        }
        assert_eq!(v.len(), 3);
        let peers = v.peers();
        // The freshest three (3, 4, 5) survive.
        assert!(peers.contains(&3) && peers.contains(&4) && peers.contains(&5));
    }

    #[test]
    fn insert_refreshes_timestamp_without_duplicating() {
        let mut v = NewscastView::new(0, 4);
        v.insert(1, SimTime::from_secs(1));
        v.insert(1, SimTime::from_secs(9));
        v.insert(1, SimTime::from_secs(5));
        assert_eq!(v.len(), 1);
        assert_eq!(v.entries[0].1, SimTime::from_secs(9));
    }

    #[test]
    fn exchange_spreads_descriptors_both_ways() {
        let mut a = NewscastView::new(0, 8);
        let mut b = NewscastView::new(1, 8);
        a.insert(2, SimTime::from_secs(1));
        b.insert(3, SimTime::from_secs(2));
        NewscastView::exchange(&mut a, &mut b, SimTime::from_secs(10));
        assert!(a.peers().contains(&3));
        assert!(
            a.peers().contains(&1),
            "a learns a fresh descriptor of b itself"
        );
        assert!(b.peers().contains(&2));
        assert!(b.peers().contains(&0));
    }

    #[test]
    fn retain_alive_drops_departed_peers() {
        let mut v = NewscastView::new(0, 8);
        for i in 1..=6 {
            v.insert(i, SimTime::from_secs(1));
        }
        v.retain_alive(&|p| p % 2 == 0);
        let peers = v.peers();
        assert!(peers.iter().all(|p| p % 2 == 1));
        assert_eq!(peers.len(), 3);
    }

    #[test]
    fn random_selection_comes_from_view() {
        let mut v = NewscastView::new(0, 8);
        for i in 1..=6 {
            v.insert(i, SimTime::from_secs(1));
        }
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..50 {
            let p = v.random_peer(&mut rng).unwrap();
            assert!((1..=6).contains(&p));
        }
        let many = v.random_peers(4, &mut rng);
        assert_eq!(many.len(), 4);
        let empty = NewscastView::new(9, 4);
        assert!(empty.random_peer(&mut rng).is_none());
        assert!(empty.random_peers(3, &mut rng).is_empty());
    }
}
