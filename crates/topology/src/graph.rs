//! The network graph data structure.

/// Identifier of a peer node; indices are dense `0..n`.
pub type NodeId = usize;

/// Properties of a single (undirected) network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeProps {
    /// Link bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// Propagation latency in milliseconds.
    pub latency_ms: f64,
}

/// One directed adjacency entry (each undirected edge is stored twice).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adjacency {
    /// The neighbouring node.
    pub to: NodeId,
    /// Link properties.
    pub props: EdgeProps,
}

/// An undirected wide-area-network topology.
///
/// Nodes carry 2-D coordinates (in the Waxman unit square scaled by the configured plane size),
/// which the generator uses for distance-dependent edge probabilities and latencies, and which
/// the landmark estimator uses to pick well-spread landmarks.
#[derive(Debug, Clone)]
pub struct Topology {
    coords: Vec<(f64, f64)>,
    adjacency: Vec<Vec<Adjacency>>,
    edge_count: usize,
}

impl Topology {
    /// Create an edgeless topology with `n` nodes placed at the given coordinates.
    pub fn new(coords: Vec<(f64, f64)>) -> Self {
        let n = coords.len();
        Topology {
            coords,
            adjacency: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Test fixture: an edgeless topology with `n` nodes all placed at the origin.
    #[cfg(test)]
    pub(crate) fn with_unplaced_nodes(n: usize) -> Self {
        Topology::new(vec![(0.0, 0.0); n])
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.coords.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Euclidean distance between two nodes.
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        let (ux, uy) = self.coords[u];
        let (vx, vy) = self.coords[v];
        ((ux - vx).powi(2) + (uy - vy).powi(2)).sqrt()
    }

    /// Add an undirected edge between `u` and `v`.
    ///
    /// # Panics
    /// Panics if `u == v`, if either endpoint is out of range, or if the bandwidth is not
    /// strictly positive.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, props: EdgeProps) {
        assert!(u != v, "self-loops are not allowed");
        assert!(
            u < self.node_count() && v < self.node_count(),
            "endpoint out of range"
        );
        assert!(props.bandwidth_mbps > 0.0, "bandwidth must be positive");
        assert!(props.latency_ms >= 0.0, "latency must be non-negative");
        self.adjacency[u].push(Adjacency { to: v, props });
        self.adjacency[v].push(Adjacency { to: u, props });
        self.edge_count += 1;
    }

    /// Neighbours of `u`.
    pub fn neighbors(&self, u: NodeId) -> &[Adjacency] {
        &self.adjacency[u]
    }

    /// Iterate over every undirected edge once, as `(u, v, props)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeProps)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(u, adj)| {
            adj.iter()
                .filter(move |a| u < a.to)
                .map(move |a| (u, a.to, a.props))
        })
    }

    /// Average bandwidth over all links, in Mb/s.  Returns `None` for an edgeless topology.
    ///
    /// This is the "system-wide average network bandwidth" that the aggregation gossip protocol
    /// estimates and that the schedulers use when computing expected transmission times.
    pub fn average_bandwidth_mbps(&self) -> Option<f64> {
        if self.edge_count == 0 {
            return None;
        }
        let sum: f64 = self.edges().map(|(_, _, p)| p.bandwidth_mbps).sum();
        Some(sum / self.edge_count as f64)
    }

    /// Connected components as a vector of component ids (`comp[u]` in `0..k`).
    pub fn connected_components(&self) -> (usize, Vec<usize>) {
        let n = self.node_count();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut stack = Vec::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = next;
            stack.push(start);
            while let Some(u) = stack.pop() {
                for a in &self.adjacency[u] {
                    if comp[a.to] == usize::MAX {
                        comp[a.to] = next;
                        stack.push(a.to);
                    }
                }
            }
            next += 1;
        }
        (next, comp)
    }

    /// True if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        self.node_count() <= 1 || self.connected_components().0 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn props(bw: f64) -> EdgeProps {
        EdgeProps {
            bandwidth_mbps: bw,
            latency_ms: 1.0,
        }
    }

    #[test]
    fn add_edge_updates_both_endpoints() {
        let mut t = Topology::with_unplaced_nodes(3);
        t.add_edge(0, 1, props(5.0));
        let ends = |u: NodeId| t.neighbors(u).iter().map(|a| a.to).collect::<Vec<_>>();
        assert_eq!(ends(0), [1]);
        assert_eq!(ends(1), [0]);
        assert!(ends(2).is_empty());
        assert_eq!(t.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut t = Topology::with_unplaced_nodes(2);
        t.add_edge(1, 1, props(1.0));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let mut t = Topology::with_unplaced_nodes(2);
        t.add_edge(0, 1, props(0.0));
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let mut t = Topology::with_unplaced_nodes(4);
        t.add_edge(0, 1, props(1.0));
        t.add_edge(1, 2, props(2.0));
        t.add_edge(2, 3, props(3.0));
        t.add_edge(0, 3, props(4.0));
        let edges: Vec<_> = t.edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(t.average_bandwidth_mbps(), Some(2.5));
    }

    #[test]
    fn average_bandwidth_of_edgeless_graph_is_none() {
        let t = Topology::with_unplaced_nodes(5);
        assert_eq!(t.average_bandwidth_mbps(), None);
    }

    #[test]
    fn connectivity_detection() {
        let mut t = Topology::with_unplaced_nodes(5);
        t.add_edge(0, 1, props(1.0));
        t.add_edge(1, 2, props(1.0));
        assert!(!t.is_connected());
        let (k, comp) = t.connected_components();
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
        t.add_edge(2, 3, props(1.0));
        t.add_edge(3, 4, props(1.0));
        assert!(t.is_connected());
    }

    #[test]
    fn distance_is_euclidean() {
        let t = Topology::new(vec![(0.0, 0.0), (3.0, 4.0)]);
        assert!((t.distance(0, 1) - 5.0).abs() < 1e-12);
        assert!((t.distance(1, 0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_and_empty_graphs_are_connected() {
        assert!(Topology::with_unplaced_nodes(0).is_connected());
        assert!(Topology::with_unplaced_nodes(1).is_connected());
    }
}
