//! Per-node state records and the bounded resource state set `RSS`.

use p2pgrid_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifier of a peer node (dense index, shared with `p2pgrid-topology`).
pub type PeerId = usize;

/// A gossiped record describing one resource node's state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeStateRecord {
    /// The node this record describes.
    pub node: PeerId,
    /// Its *aggregate* computing capacity in MIPS: all execution slots combined.  With the
    /// paper's single CPU this is exactly the node's Table I capacity.
    pub capacity_mips: f64,
    /// Number of execution slots behind that aggregate (paper: 1).  A scheduler must divide
    /// `capacity_mips` by this to obtain the rate one task actually runs at — a 16-slot node
    /// drains its *queue* 16× faster, but runs a *single* task no faster than one slot.
    pub slots: usize,
    /// Total load (running + waiting tasks) in MI, `l_r` in the paper.
    pub total_load_mi: f64,
    /// Virtual time at which the record was produced by its origin node.
    pub updated_at: SimTime,
    /// Number of gossip hops this record has already travelled.
    pub hops: u32,
}

impl NodeStateRecord {
    /// The queuing-delay estimate the paper derives from this record: `l_r / c_r` seconds.
    /// The backlog drains on all slots at once, so this correctly uses the aggregate capacity.
    pub fn queuing_delay_secs(&self) -> f64 {
        if self.capacity_mips <= 0.0 {
            f64::INFINITY
        } else {
            self.total_load_mi / self.capacity_mips
        }
    }

    /// The execution rate of *one* slot in MIPS — what a single task runs at.
    pub fn per_slot_capacity_mips(&self) -> f64 {
        self.capacity_mips / self.slots.max(1) as f64
    }
}

/// The bounded set of resource-state records a node has aggregated, `RSS(p_i)` in the paper.
///
/// The set keeps at most `capacity` records (the freshest ones win) and purges records older
/// than the configured staleness limit, which together keep the per-node space complexity at
/// `O(log n)` as claimed in Section III and measured in Fig. 11(a).
///
/// Records live in a `Vec` sorted by node id, so iteration is *always* in ascending node-id
/// order — the deterministic order scheduling decisions need — and a lookup is a binary search
/// over the ~log n records.
///
/// Epidemic gossip delivers a whole cycle's pushes to a destination in one batch merge: it
/// dedupes the batch by node, then keeps the freshest records, in one pass over the
/// deliveries plus a scan of the node ids.  [`ResourceStateSet::merge`] takes one record at a
/// time — a node refreshing its own record — and finds its eviction victim by a scan of the
/// ~log n records held.  Both leave exactly what merging the same records one by one, in
/// arrival order, would leave.
#[derive(Debug, Clone)]
pub struct ResourceStateSet {
    records: Vec<NodeStateRecord>,
    capacity: usize,
}

/// Reusable per-node scratch for [`ResourceStateSet::merge_batch`].
///
/// It holds one record slot per node id plus a generation stamp saying which slots the
/// current batch has filled, so a batch never clears it.  It starts empty and grows to the
/// largest node id it has seen; one scratch serves any number of sets and batches.
#[derive(Debug, Clone, Default)]
pub(crate) struct MergeScratch {
    generation: u32,
    /// `stamps[id] == generation` exactly when `slots[id]` holds node `id`'s copy in this batch.
    stamps: Vec<u32>,
    slots: Vec<NodeStateRecord>,
    /// The node ids this batch has stamped, in first-arrival order.
    touched: Vec<PeerId>,
    keys: Vec<(SimTime, PeerId)>,
}

impl MergeScratch {
    /// Start a batch: every slot an earlier batch stamped becomes stale at once.
    fn next_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: a stamp left over from 2^32 batches ago would read as current.
            self.stamps.fill(0);
            self.generation = 1;
        }
        self.touched.clear();
    }

    /// Keep `record` if it is its node's first copy in this batch or strictly fresher than
    /// the copy kept so far, so of equal-timestamp copies the first to arrive stays.
    #[inline]
    fn offer(&mut self, record: &NodeStateRecord) {
        let id = record.node;
        if id >= self.stamps.len() {
            self.stamps.resize(id + 1, 0);
            self.slots.resize(id + 1, *record);
        }
        if self.stamps[id] != self.generation {
            self.stamps[id] = self.generation;
            self.slots[id] = *record;
            self.touched.push(id);
        } else if record.updated_at > self.slots[id].updated_at {
            self.slots[id] = *record;
        }
    }

    /// The records this batch has stamped, in node-id order.
    fn stamped_records(&self) -> impl Iterator<Item = &NodeStateRecord> {
        let generation = self.generation;
        self.stamps
            .iter()
            .zip(&self.slots)
            .filter(move |&(&stamp, _)| stamp == generation)
            .map(|(_, record)| record)
    }
}

impl ResourceStateSet {
    /// Create an empty set bounded to `capacity` records.
    pub fn new(capacity: usize) -> Self {
        ResourceStateSet {
            records: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of records retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record for `node`, if known.
    pub fn get(&self, node: PeerId) -> Option<&NodeStateRecord> {
        self.position(node).ok().map(|i| &self.records[i])
    }

    /// Iterate over all known records, always in ascending node-id order.
    pub fn records(&self) -> impl Iterator<Item = &NodeStateRecord> {
        self.records.iter()
    }

    /// Known records sorted by node id (deterministic order for scheduling decisions).
    ///
    /// The set is kept in this order, so this is a plain copy — no per-call re-sort.  Prefer
    /// [`ResourceStateSet::records`] when borrowing suffices.
    pub fn records_sorted(&self) -> Vec<NodeStateRecord> {
        self.records.clone()
    }

    /// Insert or refresh a record; returns `true` if the set changed.
    ///
    /// A record only replaces the one held for the same node if it is strictly fresher, so of
    /// two copies with equal `updated_at` the first to arrive stays, whatever its `hops`.  A
    /// newcomer that would push the set over capacity evicts the stalest record by
    /// `(updated_at, node)` — unless it is itself the stalest, in which case it is rejected
    /// and the set is unchanged.
    ///
    /// Merging a batch in any order leaves the same `(node, updated_at)` pairs: the
    /// `capacity` largest `(updated_at, node)` keys among the freshest record per node of the
    /// set and the batch together.  Which *copy* survives is not order-free: of equal-timestamp
    /// copies the first arrival stays, so the survivors' `hops` — and with them whether and
    /// how far a record is forwarded next cycle — depend on arrival order.
    /// Epidemic gossip's batch merge, `merge_batch`, applies exactly this rule to a whole
    /// batch at once.
    pub fn merge(&mut self, record: NodeStateRecord) -> bool {
        match self.position(record.node) {
            Ok(i) => {
                if self.records[i].updated_at >= record.updated_at {
                    return false;
                }
                self.records[i] = record;
            }
            Err(i) if self.records.len() < self.capacity => self.records.insert(i, record),
            Err(i) => {
                // Full: the newcomer replaces the stalest record unless it is staler still.
                let (v, stalest) = self
                    .records
                    .iter()
                    .map(|r| (r.updated_at, r.node))
                    .enumerate()
                    .min_by_key(|&(_, key)| key)
                    .expect("a full set is non-empty");
                if (record.updated_at, record.node) < stalest {
                    return false;
                }
                if v < i {
                    self.records[v..i].rotate_left(1);
                    self.records[i - 1] = record;
                } else {
                    self.records[i..=v].rotate_right(1);
                    self.records[i] = record;
                }
            }
        }
        true
    }

    /// Merge a batch of deliveries, given as slices in arrival order, in one pass.
    ///
    /// The result is exactly what [`ResourceStateSet::merge`]-ing every record of every slice
    /// in turn would leave: for each node the first-arriving copy with the freshest
    /// `updated_at` (a held record arrived first), and of those the `capacity` largest
    /// `(updated_at, node)` keys.  The survivors are written back in node-id order by scanning
    /// the node ids, without a sort.
    pub(crate) fn merge_batch<'a>(
        &mut self,
        slices: impl IntoIterator<Item = &'a [NodeStateRecord]>,
        scratch: &mut MergeScratch,
    ) {
        scratch.next_generation();
        for record in &self.records {
            scratch.offer(record);
        }
        for slice in slices {
            for record in slice {
                scratch.offer(record);
            }
        }
        let excess = scratch.touched.len().saturating_sub(self.capacity);
        if excess > 0 {
            // Unstamp the `excess` stalest keys; node ids are unique, so the keys are too.
            let slots = &scratch.slots;
            let keys = &mut scratch.keys;
            keys.clear();
            keys.extend(scratch.touched.iter().map(|&id| (slots[id].updated_at, id)));
            keys.select_nth_unstable(excess);
            for &(_, id) in &keys[..excess] {
                scratch.stamps[id] = 0;
            }
        }
        self.records.clear();
        self.records.extend(scratch.stamped_records());
    }

    /// Remove every record older than `limit` relative to `now`, and any record describing a
    /// node in `departed`.
    pub fn purge(&mut self, now: SimTime, limit: SimDuration, departed: &dyn Fn(PeerId) -> bool) {
        self.records
            .retain(|r| !departed(r.node) && now.saturating_duration_since(r.updated_at) <= limit);
    }

    /// Remove the record for a specific node (e.g. observed to have churned away).
    pub fn remove(&mut self, node: PeerId) {
        if let Ok(i) = self.position(node) {
            self.records.remove(i);
        }
    }

    fn position(&self, node: PeerId) -> Result<usize, usize> {
        self.records.binary_search_by_key(&node, |r| r.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: PeerId, t: u64) -> NodeStateRecord {
        NodeStateRecord {
            node,
            capacity_mips: 4.0,
            slots: 1,
            total_load_mi: 100.0,
            updated_at: SimTime::from_secs(t),
            hops: 0,
        }
    }

    #[test]
    fn queuing_delay_is_load_over_capacity() {
        assert_eq!(rec(0, 0).queuing_delay_secs(), 25.0);
        let zero_cap = NodeStateRecord {
            capacity_mips: 0.0,
            ..rec(0, 0)
        };
        assert_eq!(zero_cap.queuing_delay_secs(), f64::INFINITY);
    }

    #[test]
    fn per_slot_capacity_divides_the_aggregate() {
        // A 4-slot node advertising 4 MIPS aggregate runs one task at 1 MIPS, but still drains
        // its 100 MI backlog in 25 s.
        let quad = NodeStateRecord {
            slots: 4,
            ..rec(0, 0)
        };
        assert_eq!(quad.per_slot_capacity_mips(), 1.0);
        assert_eq!(quad.queuing_delay_secs(), 25.0);
        assert_eq!(rec(0, 0).per_slot_capacity_mips(), 4.0);
    }

    #[test]
    fn merge_prefers_fresher_records() {
        let mut rss = ResourceStateSet::new(10);
        assert!(rss.merge(rec(1, 10)));
        assert!(!rss.merge(rec(1, 5)), "stale record must not overwrite");
        assert!(
            !rss.merge(rec(1, 10)),
            "equal freshness must not count as a change"
        );
        assert!(rss.merge(rec(1, 20)));
        assert_eq!(rss.get(1).unwrap().updated_at, SimTime::from_secs(20));
        assert_eq!(rss.len(), 1);
    }

    #[test]
    fn capacity_bound_evicts_stalest() {
        let mut rss = ResourceStateSet::new(3);
        rss.merge(rec(1, 10));
        rss.merge(rec(2, 20));
        rss.merge(rec(3, 30));
        rss.merge(rec(4, 40));
        assert_eq!(rss.len(), 3);
        assert!(rss.get(1).is_none(), "the stalest record must be evicted");
        assert!(rss.get(4).is_some());
    }

    #[test]
    fn purge_removes_stale_and_departed() {
        let mut rss = ResourceStateSet::new(10);
        rss.merge(rec(1, 100));
        rss.merge(rec(2, 500));
        rss.merge(rec(3, 900));
        rss.purge(
            SimTime::from_secs(1000),
            SimDuration::from_secs(600),
            &|n| n == 3,
        );
        assert!(rss.get(1).is_none(), "older than the staleness limit");
        assert!(rss.get(2).is_some());
        assert!(rss.get(3).is_none(), "departed node");
    }

    #[test]
    fn sorted_records_are_deterministic() {
        let mut rss = ResourceStateSet::new(10);
        rss.merge(rec(5, 1));
        rss.merge(rec(2, 2));
        rss.merge(rec(9, 3));
        let order: Vec<PeerId> = rss.records_sorted().iter().map(|r| r.node).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    #[test]
    fn iteration_order_stays_sorted_under_merges_evictions_and_purges() {
        // The sorted order is maintained incrementally, so *every* read path — records(),
        // records_sorted(), after merges, capacity evictions and purges — must observe
        // ascending node ids.
        let mut rss = ResourceStateSet::new(4);
        for (node, t) in [(7, 10), (1, 20), (9, 30), (4, 40), (3, 50), (8, 60)] {
            rss.merge(rec(node, t));
            let via_iter: Vec<PeerId> = rss.records().map(|r| r.node).collect();
            let mut expected = via_iter.clone();
            expected.sort_unstable();
            assert_eq!(
                via_iter, expected,
                "records() out of order after merging {node}"
            );
            assert_eq!(
                rss.records_sorted()
                    .iter()
                    .map(|r| r.node)
                    .collect::<Vec<_>>(),
                via_iter,
                "records_sorted() disagrees with records()"
            );
        }
        assert_eq!(rss.len(), 4, "capacity bound respected");
        rss.purge(SimTime::from_secs(100), SimDuration::from_secs(55), &|n| {
            n == 9
        });
        let after: Vec<PeerId> = rss.records().map(|r| r.node).collect();
        let mut expected = after.clone();
        expected.sort_unstable();
        assert_eq!(after, expected);
        assert!(!after.contains(&9));
    }

    #[test]
    fn remove_and_empty() {
        let mut rss = ResourceStateSet::new(2);
        assert!(rss.is_empty());
        rss.merge(rec(1, 1));
        rss.remove(1);
        assert!(rss.is_empty());
        assert_eq!(rss.capacity(), 2);
    }

    #[test]
    fn a_newcomer_evicted_at_once_does_not_count_as_a_change() {
        let mut rss = ResourceStateSet::new(2);
        assert!(rss.merge(rec(5, 10)));
        assert!(rss.merge(rec(6, 20)));
        let before = rss.records_sorted();
        assert!(
            !rss.merge(rec(1, 5)),
            "a record staler than every held one is rejected"
        );
        assert!(!rss.merge(rec(4, 10)), "(10, 4) sorts below (10, 5)");
        assert_eq!(rss.records_sorted(), before);
        assert!(rss.merge(rec(7, 10)), "(10, 7) evicts (10, 5)");
        assert_eq!(
            rss.records().map(|r| r.node).collect::<Vec<_>>(),
            vec![6, 7]
        );
    }

    #[test]
    fn the_first_equal_timestamp_copy_wins_whatever_its_hops() {
        let copy = |hops| NodeStateRecord { hops, ..rec(3, 10) };
        let mut near_first = ResourceStateSet::new(4);
        near_first.merge(copy(1));
        near_first.merge(copy(3));
        let mut far_first = ResourceStateSet::new(4);
        far_first.merge(copy(3));
        far_first.merge(copy(1));
        assert_eq!(near_first.get(3).unwrap().hops, 1);
        assert_eq!(far_first.get(3).unwrap().hops, 3);
    }

    /// The set as it was first written: a `BTreeMap` that inserts, then evicts the stalest
    /// record while over capacity.  Kept as the oracle the sorted-`Vec` set must match.
    struct ReferenceSet {
        records: std::collections::BTreeMap<PeerId, NodeStateRecord>,
        capacity: usize,
    }

    impl ReferenceSet {
        fn new(capacity: usize) -> Self {
            ReferenceSet {
                records: std::collections::BTreeMap::new(),
                capacity: capacity.max(1),
            }
        }

        fn merge(&mut self, record: NodeStateRecord) {
            match self.records.get(&record.node) {
                Some(existing) if existing.updated_at >= record.updated_at => {}
                _ => {
                    self.records.insert(record.node, record);
                    while self.records.len() > self.capacity {
                        let victim = self
                            .records
                            .values()
                            .min_by_key(|r| (r.updated_at, r.node))
                            .map(|r| r.node)
                            .unwrap();
                        self.records.remove(&victim);
                    }
                }
            }
        }

        fn purge(&mut self, now: SimTime, limit: SimDuration, departed: &dyn Fn(PeerId) -> bool) {
            self.records.retain(|&node, r| {
                !departed(node) && now.saturating_duration_since(r.updated_at) <= limit
            });
        }

        fn remove(&mut self, node: PeerId) {
            self.records.remove(&node);
        }

        fn records(&self) -> Vec<NodeStateRecord> {
            self.records.values().copied().collect()
        }
    }

    /// A record decoded from random bits: ten nodes and six timestamps, so repeated nodes and
    /// equal timestamps are common; `hops` and the load vary independently of both.
    fn decode_record(code: u64) -> NodeStateRecord {
        NodeStateRecord {
            node: (code % 10) as PeerId,
            capacity_mips: 4.0,
            slots: 1,
            total_load_mi: ((code >> 4) % 4) as f64,
            updated_at: SimTime::from_secs((code >> 8) % 6),
            hops: ((code >> 12) % 5) as u32,
        }
    }

    enum Op {
        Merge(NodeStateRecord),
        Purge {
            now: SimTime,
            limit: SimDuration,
            departed: u64,
        },
        Remove(PeerId),
    }

    /// Three merges in four, the rest purges and removes.
    fn decode_op(code: u64) -> Op {
        match code % 8 {
            0..=5 => Op::Merge(decode_record(code >> 3)),
            6 => Op::Purge {
                now: SimTime::from_secs(3 + (code >> 3) % 4),
                limit: SimDuration::from_secs((code >> 5) % 4),
                departed: (code >> 7) & (code >> 17) & 0x3ff,
            },
            _ => Op::Remove(((code >> 3) % 10) as PeerId),
        }
    }

    proptest::proptest! {
        #[test]
        fn rss_matches_the_reference_set(
            capacity in 1usize..=8,
            ops in proptest::collection::vec(0u64..=u64::MAX, 1..160),
        ) {
            let mut rss = ResourceStateSet::new(capacity);
            let mut reference = ReferenceSet::new(capacity);
            for code in ops {
                match decode_op(code) {
                    Op::Merge(record) => {
                        let before = rss.records_sorted();
                        let changed = rss.merge(record);
                        reference.merge(record);
                        proptest::prop_assert_eq!(changed, rss.records_sorted() != before);
                    }
                    Op::Purge { now, limit, departed } => {
                        let departed = |node: PeerId| (departed >> node) & 1 == 1;
                        rss.purge(now, limit, &departed);
                        reference.purge(now, limit, &departed);
                    }
                    Op::Remove(node) => {
                        rss.remove(node);
                        reference.remove(node);
                    }
                }
                // Identical records in identical order, every field (hops included) equal.
                proptest::prop_assert_eq!(rss.records_sorted(), reference.records());
                for node in 0..10 {
                    proptest::prop_assert_eq!(rss.get(node), reference.records.get(&node));
                }
            }
        }

        #[test]
        fn batch_order_decides_hops_but_not_which_records_survive(
            capacity in 1usize..=8,
            held in proptest::collection::vec(0u64..=u64::MAX, 0..12),
            batch in proptest::collection::vec(0u64..=u64::MAX, 1..40),
            shuffle in 0u64..=u64::MAX,
        ) {
            let mut start = ResourceStateSet::new(capacity);
            for &code in &held {
                start.merge(decode_record(code));
            }
            // A Fisher–Yates permutation of the batch, driven by a splitmix64 stream.
            let mut shuffled = batch.clone();
            let mut state = shuffle;
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                shuffled.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
            }
            let survivors = |order: &[u64]| {
                let mut rss = start.clone();
                for &code in order {
                    rss.merge(decode_record(code));
                }
                rss.records()
                    .map(|r| (r.node, r.updated_at))
                    .collect::<Vec<_>>()
            };
            proptest::prop_assert_eq!(survivors(&batch), survivors(&shuffled));
        }

        #[test]
        fn merge_batch_matches_merging_record_by_record(
            capacity in 1usize..=8,
            held in proptest::collection::vec(0u64..=u64::MAX, 0..12),
            slices in proptest::collection::vec(
                proptest::collection::vec(0u64..=u64::MAX, 0..10),
                1..9,
            ),
            after in proptest::collection::vec(0u64..=u64::MAX, 0..4),
        ) {
            // `held` fills the set anywhere from empty to full; every slice is sorted by node
            // id like an outbox, but may repeat a node, and copies may share a timestamp while
            // their `hops` differ.
            let mut batched = ResourceStateSet::new(capacity);
            for &code in &held {
                batched.merge(decode_record(code));
            }
            let mut one_by_one = batched.clone();
            let slices: Vec<Vec<NodeStateRecord>> = slices
                .iter()
                .map(|codes| {
                    let mut slice: Vec<_> = codes.iter().map(|&c| decode_record(c)).collect();
                    slice.sort_by_key(|r| r.node);
                    slice
                })
                .collect();
            // One scratch across two batches, so the second reads the first's stale stamps.
            let mut scratch = MergeScratch::default();
            for round in [&slices[..], &slices[slices.len() / 2..]] {
                batched.merge_batch(round.iter().map(Vec::as_slice), &mut scratch);
                for &record in round.iter().flatten() {
                    one_by_one.merge(record);
                }
                proptest::prop_assert_eq!(batched.records_sorted(), one_by_one.records_sorted());
            }
            for &code in &after {
                let record = decode_record(code);
                proptest::prop_assert_eq!(batched.merge(record), one_by_one.merge(record));
                proptest::prop_assert_eq!(batched.records_sorted(), one_by_one.records_sorted());
            }
        }
    }

    #[test]
    fn merge_batch_survives_a_generation_wrap() {
        let mut scratch = MergeScratch::default();
        let mut rss = ResourceStateSet::new(4);
        rss.merge_batch([&[rec(1, 10), rec(2, 20)][..]], &mut scratch);
        // The next batch reuses stamp value 1 after the wrap: node 1's slot from the first
        // batch must not read as current.
        scratch.generation = u32::MAX;
        let mut fresh = ResourceStateSet::new(4);
        fresh.merge_batch([&[rec(0, 5), rec(2, 30)][..]], &mut scratch);
        assert_eq!(scratch.generation, 1);
        assert_eq!(
            fresh.records_sorted(),
            vec![rec(0, 5), rec(2, 30)],
            "a stale stamp leaked into the batch"
        );
        assert_eq!(
            rss.records().map(|r| r.node).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }
}
