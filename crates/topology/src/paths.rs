//! All-pairs end-to-end network metrics.
//!
//! The schedulers consume pairwise *effective bandwidth* (for data aggregation times) and
//! *latency* (for locality).  On a multi-hop WAN the effective bandwidth of a pair is the
//! **bottleneck bandwidth of the widest path** between them, and the latency is the length of
//! the shortest (minimum-latency) path.  [`PairwiseMetrics`] precomputes both dense matrices.
//!
//! Both metrics are symmetric because the graph is undirected, and the bandwidth metric has
//! extra structure this module exploits: on an undirected graph the widest-path bottleneck
//! between `u` and `v` equals the minimum edge weight on the `u`–`v` path of a **maximum
//! spanning tree** (the classic maximin-path property).  So instead of running a widest-path
//! Dijkstra from every source (`O(n·m log n)`), `compute` builds one maximum spanning forest
//! with Kruskal (`O(m log m)`) and then fills each source's row with an `O(n)` tree walk —
//! roughly halving the all-pairs build, which dominates `Scenario::build` at paper scale.
//! Latency still needs one Dijkstra per source, parallelised across sources with rayon; its
//! lower triangle is mirrored from the upper one so that `latency(u,v)` and `latency(v,u)`
//! are bit-identical (path sums accumulate in opposite edge order otherwise, and f32
//! addition is not associative).

use crate::graph::{NodeId, Topology};
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Dense all-pairs bandwidth/latency matrices.
#[derive(Debug, Clone)]
pub struct PairwiseMetrics {
    n: usize,
    /// Bottleneck bandwidth of the widest path, Mb/s; 0 when unreachable.
    bandwidth: Vec<f32>,
    /// Latency of the minimum-latency path, ms; +inf when unreachable.
    latency: Vec<f32>,
    avg_bandwidth: f64,
}

impl PairwiseMetrics {
    /// Compute all-pairs metrics for `topo`.
    pub fn compute(topo: &Topology) -> Self {
        let n = topo.node_count();
        let forest = MaxSpanningForest::build(topo);
        let rows: Vec<(Vec<f32>, Vec<f32>)> = (0..n)
            .into_par_iter()
            .map(|src| (forest.bottleneck_row(src), latency_row(topo, src)))
            .collect();
        let mut bandwidth = Vec::with_capacity(n * n);
        let mut latency = Vec::with_capacity(n * n);
        for (bw_row, lat_row) in rows {
            bandwidth.extend_from_slice(&bw_row);
            latency.extend_from_slice(&lat_row);
        }
        // Mirror the latency lower triangle from the upper one: the metric is symmetric,
        // but summing a path's edges from the other end can differ in the last f32 bit.
        for u in 0..n {
            for v in (u + 1)..n {
                latency[v * n + u] = latency[u * n + v];
            }
        }
        let mut sum = 0.0f64;
        let mut cnt = 0u64;
        for u in 0..n {
            for v in (u + 1)..n {
                let b = bandwidth[u * n + v] as f64;
                if b > 0.0 {
                    sum += b;
                    cnt += 1;
                }
            }
        }
        let avg_bandwidth = if cnt > 0 { sum / cnt as f64 } else { 0.0 };
        PairwiseMetrics {
            n,
            bandwidth,
            latency,
            avg_bandwidth,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Effective (bottleneck) bandwidth between `u` and `v` in Mb/s.
    ///
    /// Returns `f64::INFINITY` for `u == v` (a local transfer takes no time) and `0.0` when the
    /// pair is disconnected.
    pub fn bandwidth_mbps(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return f64::INFINITY;
        }
        self.bandwidth[u * self.n + v] as f64
    }

    /// Minimum path latency between `u` and `v` in milliseconds (0 for `u == v`).
    pub fn latency_ms(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return 0.0;
        }
        self.latency[u * self.n + v] as f64
    }

    /// True pairwise-average effective bandwidth over all connected ordered pairs, Mb/s.
    ///
    /// This is the ground-truth value that the aggregation gossip protocol estimates.
    pub fn average_bandwidth_mbps(&self) -> f64 {
        self.avg_bandwidth
    }

    /// Time in seconds to move `megabits` of data from `u` to `v`.
    ///
    /// Local transfers are free; transfers between disconnected nodes take infinitely long.
    pub fn transfer_secs(&self, u: NodeId, v: NodeId, megabits: f64) -> f64 {
        if u == v || megabits <= 0.0 {
            return 0.0;
        }
        let bw = self.bandwidth_mbps(u, v);
        if bw <= 0.0 {
            return f64::INFINITY;
        }
        megabits / bw + self.latency_ms(u, v) / 1000.0
    }
}

/// A maximum spanning forest of the topology, weighted by link bandwidth.
///
/// The maximin-path property of undirected graphs: for every pair `(u, v)` in the same
/// component, the bottleneck bandwidth of the widest `u`–`v` path equals the minimum edge
/// weight on the unique `u`–`v` path through the maximum spanning tree.  Both sides of the
/// equality are the same element of the edge-weight multiset (compared as the `f32` the
/// matrices store), so rows derived from the forest are bit-identical to what a widest-path
/// Dijkstra would produce.
struct MaxSpanningForest {
    /// Tree adjacency: `(neighbour, edge bandwidth)`; at most `n - 1` edges total.
    adj: Vec<Vec<(NodeId, f32)>>,
}

impl MaxSpanningForest {
    /// Kruskal over edges sorted by descending bandwidth, with union-find by path halving.
    fn build(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut edges: Vec<(f32, NodeId, NodeId)> = topo
            .edges()
            .map(|(u, v, props)| (props.bandwidth_mbps as f32, u, v))
            .collect();
        edges.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));

        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }

        let mut adj = vec![Vec::new(); n];
        let mut joined = 0usize;
        for (bw, u, v) in edges {
            if n > 0 && joined == n - 1 {
                break;
            }
            let ru = find(&mut parent, u);
            let rv = find(&mut parent, v);
            if ru != rv {
                parent[ru] = rv;
                adj[u].push((v, bw));
                adj[v].push((u, bw));
                joined += 1;
            }
        }
        MaxSpanningForest { adj }
    }

    /// Bottleneck bandwidth from `src` to every node: one DFS over the forest, propagating
    /// the running minimum edge weight.  Nodes in other components stay at 0.
    fn bottleneck_row(&self, src: NodeId) -> Vec<f32> {
        let n = self.adj.len();
        let mut row = vec![0.0f32; n];
        row[src] = f32::INFINITY;
        let mut stack = vec![(src, f32::INFINITY)];
        while let Some((u, bottleneck)) = stack.pop() {
            for &(v, edge_bw) in &self.adj[u] {
                // Edge bandwidths are strictly positive, so 0.0 marks "not visited yet"
                // (src itself is already set to +inf).
                if row[v] == 0.0 {
                    let cand = bottleneck.min(edge_bw);
                    row[v] = cand;
                    stack.push((v, cand));
                }
            }
        }
        row
    }
}

/// Shortest-latency distances from a single source: standard Dijkstra with a min-heap.
fn latency_row(topo: &Topology, src: NodeId) -> Vec<f32> {
    let n = topo.node_count();
    let mut best_lat = vec![f32::INFINITY; n];

    #[derive(PartialEq)]
    struct LatEntry(f32, NodeId);
    impl Eq for LatEntry {}
    impl PartialOrd for LatEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for LatEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse (total_cmp): smaller latency pops first; a NaN key (conceivable only
            // from corrupt edge props) must not be able to poison the heap order the way
            // `partial_cmp -> Equal` could.
            other.0.total_cmp(&self.0)
        }
    }
    let mut heap = BinaryHeap::new();
    best_lat[src] = 0.0;
    heap.push(LatEntry(0.0, src));
    while let Some(LatEntry(lat, u)) = heap.pop() {
        if lat > best_lat[u] {
            continue;
        }
        for a in topo.neighbors(u) {
            let cand = lat + a.props.latency_ms as f32;
            if cand < best_lat[a.to] {
                best_lat[a.to] = cand;
                heap.push(LatEntry(cand, a.to));
            }
        }
    }

    best_lat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeProps;
    use crate::waxman::{WaxmanConfig, WaxmanGenerator};
    use p2pgrid_sim::SimRng;
    use proptest::prelude::*;

    fn props(bw: f64, lat: f64) -> EdgeProps {
        EdgeProps {
            bandwidth_mbps: bw,
            latency_ms: lat,
        }
    }

    /// Reference widest-path computation: Dijkstra variant with a max-heap keyed on the
    /// bottleneck bandwidth (the pre-spanning-forest implementation, kept as an oracle).
    fn reference_widest_row(topo: &Topology, src: NodeId) -> Vec<f32> {
        let n = topo.node_count();
        let mut best_bw = vec![0.0f32; n];

        #[derive(PartialEq)]
        struct BwEntry(f32, NodeId);
        impl Eq for BwEntry {}
        impl PartialOrd for BwEntry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for BwEntry {
            fn cmp(&self, other: &Self) -> Ordering {
                self.0.total_cmp(&other.0)
            }
        }
        let mut heap = BinaryHeap::new();
        best_bw[src] = f32::INFINITY;
        heap.push(BwEntry(f32::INFINITY, src));
        while let Some(BwEntry(bw, u)) = heap.pop() {
            if bw < best_bw[u] {
                continue;
            }
            for a in topo.neighbors(u) {
                let cand = bw.min(a.props.bandwidth_mbps as f32);
                if cand > best_bw[a.to] {
                    best_bw[a.to] = cand;
                    heap.push(BwEntry(cand, a.to));
                }
            }
        }
        best_bw[src] = f32::INFINITY;
        best_bw
    }

    /// A 4-node line: 0 -10-> 1 -2-> 2 -8-> 3, plus a slow shortcut 0 -1-> 3.
    fn line_with_shortcut() -> Topology {
        let mut t = Topology::with_unplaced_nodes(4);
        t.add_edge(0, 1, props(10.0, 1.0));
        t.add_edge(1, 2, props(2.0, 1.0));
        t.add_edge(2, 3, props(8.0, 1.0));
        t.add_edge(0, 3, props(1.0, 10.0));
        t
    }

    #[test]
    fn widest_path_prefers_high_bottleneck_route() {
        let t = line_with_shortcut();
        let m = PairwiseMetrics::compute(&t);
        // 0 -> 3 via the line has bottleneck 2.0 (edge 1-2); the direct shortcut is only 1.0.
        assert!((m.bandwidth_mbps(0, 3) - 2.0).abs() < 1e-6);
        // 0 -> 2 bottleneck is 2.0 as well.
        assert!((m.bandwidth_mbps(0, 2) - 2.0).abs() < 1e-6);
        // Direct neighbours use their own link.
        assert!((m.bandwidth_mbps(0, 1) - 10.0).abs() < 1e-6);
        // Symmetric.
        assert!((m.bandwidth_mbps(3, 0) - m.bandwidth_mbps(0, 3)).abs() < 1e-6);
    }

    #[test]
    fn latency_uses_shortest_path() {
        let t = line_with_shortcut();
        let m = PairwiseMetrics::compute(&t);
        // 0 -> 3: line costs 3 ms, shortcut costs 10 ms.
        assert!((m.latency_ms(0, 3) - 3.0).abs() < 1e-5);
        assert_eq!(m.latency_ms(2, 2), 0.0);
    }

    #[test]
    fn self_pairs_are_free_and_disconnected_pairs_are_infinite() {
        let mut t = Topology::with_unplaced_nodes(3);
        t.add_edge(0, 1, props(4.0, 1.0));
        let m = PairwiseMetrics::compute(&t);
        assert_eq!(m.bandwidth_mbps(0, 0), f64::INFINITY);
        assert_eq!(m.transfer_secs(0, 0, 1000.0), 0.0);
        assert_eq!(m.bandwidth_mbps(0, 2), 0.0);
        assert_eq!(m.transfer_secs(0, 2, 1.0), f64::INFINITY);
        // Latency across components is infinite both ways.
        assert_eq!(m.latency_ms(0, 2), f64::INFINITY);
        assert_eq!(m.latency_ms(2, 0), f64::INFINITY);
    }

    #[test]
    fn transfer_time_matches_size_over_bandwidth() {
        let mut t = Topology::with_unplaced_nodes(2);
        t.add_edge(0, 1, props(5.0, 20.0));
        let m = PairwiseMetrics::compute(&t);
        // 100 Mb over 5 Mb/s = 20 s, plus 20 ms latency.
        let secs = m.transfer_secs(0, 1, 100.0);
        assert!((secs - 20.02).abs() < 1e-9);
        assert_eq!(m.transfer_secs(0, 1, 0.0), 0.0);
    }

    #[test]
    fn average_bandwidth_is_positive_on_connected_graphs() {
        let mut rng = SimRng::seed_from_u64(17);
        let topo = WaxmanGenerator::new(WaxmanConfig::with_nodes(60)).generate(&mut rng);
        let m = PairwiseMetrics::compute(&topo);
        assert!(m.average_bandwidth_mbps() > 0.0);
        assert!(m.average_bandwidth_mbps() <= 10.0);
    }

    #[test]
    fn metrics_are_bitwise_symmetric() {
        // The undirected-symmetry exploit promises exact symmetry, not epsilon symmetry:
        // metrics(u, v) == metrics(v, u) down to the bit for both matrices.
        for seed in [3u64, 19, 101] {
            let mut rng = SimRng::seed_from_u64(seed);
            let topo = WaxmanGenerator::new(WaxmanConfig::with_nodes(80)).generate(&mut rng);
            let m = PairwiseMetrics::compute(&topo);
            let n = topo.node_count();
            for u in 0..n {
                for v in (u + 1)..n {
                    assert_eq!(
                        m.bandwidth_mbps(u, v).to_bits(),
                        m.bandwidth_mbps(v, u).to_bits(),
                        "bandwidth asymmetric at ({u},{v}), seed {seed}"
                    );
                    assert_eq!(
                        m.latency_ms(u, v).to_bits(),
                        m.latency_ms(v, u).to_bits(),
                        "latency asymmetric at ({u},{v}), seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn spanning_forest_matches_widest_path_dijkstra_bitwise() {
        // The maximin-path property makes the forest-derived bottleneck row equal to the
        // Dijkstra row *exactly*: both values are the same element of the edge multiset.
        for seed in [5u64, 42, 333] {
            let mut rng = SimRng::seed_from_u64(seed);
            let topo = WaxmanGenerator::new(WaxmanConfig::with_nodes(70)).generate(&mut rng);
            let m = PairwiseMetrics::compute(&topo);
            let n = topo.node_count();
            for src in 0..n {
                let reference = reference_widest_row(&topo, src);
                for (dst, want) in reference.iter().enumerate() {
                    if src == dst {
                        continue;
                    }
                    let got = m.bandwidth_mbps(src, dst) as f32;
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "bottleneck mismatch ({src},{dst}), seed {seed}: forest {got} vs dijkstra {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn spanning_forest_handles_disconnected_components() {
        // Two components: {0,1,2} in a triangle and {3,4} on a lone edge.
        let mut t = Topology::with_unplaced_nodes(5);
        t.add_edge(0, 1, props(6.0, 1.0));
        t.add_edge(1, 2, props(4.0, 1.0));
        t.add_edge(0, 2, props(9.0, 1.0));
        t.add_edge(3, 4, props(2.0, 1.0));
        let m = PairwiseMetrics::compute(&t);
        assert!(
            (m.bandwidth_mbps(1, 2) - 6.0).abs() < 1e-6,
            "1-0-2 beats the direct 4.0 link"
        );
        assert_eq!(m.bandwidth_mbps(0, 3), 0.0);
        assert_eq!(m.bandwidth_mbps(4, 1), 0.0);
        assert!((m.bandwidth_mbps(3, 4) - 2.0).abs() < 1e-6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// On any connected Waxman topology: bandwidth is symmetric, bounded by the best link,
        /// and every pair is reachable.
        #[test]
        fn prop_pairwise_invariants(seed in 0u64..500, n in 5usize..40) {
            let mut rng = SimRng::seed_from_u64(seed);
            let topo = WaxmanGenerator::new(WaxmanConfig::with_nodes(n)).generate(&mut rng);
            let max_edge_bw = topo
                .edges()
                .map(|(_, _, p)| p.bandwidth_mbps)
                .fold(0.0f64, f64::max);
            let m = PairwiseMetrics::compute(&topo);
            for u in 0..n {
                for v in 0..n {
                    if u == v { continue; }
                    let bw = m.bandwidth_mbps(u, v);
                    prop_assert!(bw > 0.0, "pair ({u},{v}) unreachable on a connected graph");
                    prop_assert!(bw <= max_edge_bw + 1e-6);
                    prop_assert!((bw - m.bandwidth_mbps(v, u)).abs() < 1e-6);
                    prop_assert!(m.latency_ms(u, v).is_finite());
                }
            }
        }

        /// The forest-derived bottleneck agrees with the widest-path Dijkstra oracle bit for
        /// bit on arbitrary Waxman instances.
        #[test]
        fn prop_forest_equals_dijkstra(seed in 0u64..300, n in 5usize..32) {
            let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(77));
            let topo = WaxmanGenerator::new(WaxmanConfig::with_nodes(n)).generate(&mut rng);
            let m = PairwiseMetrics::compute(&topo);
            for src in 0..n {
                let reference = reference_widest_row(&topo, src);
                for (dst, want) in reference.iter().enumerate() {
                    if src == dst { continue; }
                    prop_assert_eq!((m.bandwidth_mbps(src, dst) as f32).to_bits(), want.to_bits());
                }
            }
        }
    }
}
