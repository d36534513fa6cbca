//! Waxman random topology generator (the model Brite uses for flat router-level topologies).
//!
//! Nodes are placed uniformly at random on an `L × L` plane.  Each pair `(u, v)` is connected
//! with probability
//!
//! ```text
//! P(u, v) = alpha * exp(-d(u, v) / (beta * L_max))
//! ```
//!
//! where `d` is the Euclidean distance and `L_max = L * sqrt(2)` is the plane diagonal.  Larger
//! `alpha` increases edge density; larger `beta` increases the fraction of long links.  Because
//! the raw model can leave the graph disconnected (the scheduler needs every resource node to
//! be reachable), the generator repairs connectivity by linking each secondary component to the
//! giant component through its geometrically closest node pair, mimicking Brite's behaviour of
//! producing connected graphs.
//!
//! Link bandwidths are drawn uniformly from the paper's 0.1–10 Mb/s range, and propagation
//! latency is proportional to distance (a 2 000 km-diagonal plane at ~5 µs/km, plus a fixed
//! per-hop forwarding cost).

use crate::graph::{EdgeProps, NodeId, Topology};
use p2pgrid_sim::SimRng;

/// Parameters of the Waxman generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaxmanConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Waxman `alpha` (overall edge density), typically 0.1–0.3.
    pub alpha: f64,
    /// Waxman `beta` (long-link preference), typically 0.1–0.3.
    pub beta: f64,
    /// Side length of the placement plane (arbitrary units; only ratios matter).
    pub plane_size: f64,
    /// Minimum link bandwidth in Mb/s (Table I: 0.1).
    pub min_bandwidth_mbps: f64,
    /// Maximum link bandwidth in Mb/s (Table I: 10).
    pub max_bandwidth_mbps: f64,
    /// Propagation delay in milliseconds per plane-distance unit.
    pub latency_ms_per_unit: f64,
    /// Fixed per-hop forwarding latency in milliseconds.
    pub hop_latency_ms: f64,
}

impl Default for WaxmanConfig {
    fn default() -> Self {
        WaxmanConfig {
            nodes: 200,
            alpha: 0.15,
            beta: 0.2,
            plane_size: 1000.0,
            min_bandwidth_mbps: 0.1,
            max_bandwidth_mbps: 10.0,
            latency_ms_per_unit: 0.01,
            hop_latency_ms: 1.0,
        }
    }
}

impl WaxmanConfig {
    /// Convenience constructor that keeps every default except the node count.
    pub fn with_nodes(nodes: usize) -> Self {
        WaxmanConfig {
            nodes,
            ..WaxmanConfig::default()
        }
    }

    fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "alpha must be in (0, 1]"
        );
        assert!(
            self.beta > 0.0 && self.beta <= 1.0,
            "beta must be in (0, 1]"
        );
        assert!(self.plane_size > 0.0, "plane size must be positive");
        assert!(
            self.min_bandwidth_mbps > 0.0 && self.max_bandwidth_mbps >= self.min_bandwidth_mbps,
            "bandwidth range must be positive and non-empty"
        );
    }
}

/// The Waxman topology generator.
#[derive(Debug, Clone)]
pub struct WaxmanGenerator {
    config: WaxmanConfig,
}

impl WaxmanGenerator {
    /// Create a generator for the given configuration.
    pub fn new(config: WaxmanConfig) -> Self {
        config.validate();
        WaxmanGenerator { config }
    }

    /// The configuration this generator was built with.
    pub fn config(&self) -> &WaxmanConfig {
        &self.config
    }

    /// Generate a connected topology using the supplied RNG.
    pub fn generate(&self, rng: &mut SimRng) -> Topology {
        let cfg = &self.config;
        let n = cfg.nodes;
        let coords: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0.0..cfg.plane_size),
                    rng.gen_range(0.0..cfg.plane_size),
                )
            })
            .collect();
        let mut topo = Topology::new(coords);
        if n <= 1 {
            return topo;
        }
        let l_max = cfg.plane_size * std::f64::consts::SQRT_2;

        for u in 0..n {
            for v in (u + 1)..n {
                let d = topo.distance(u, v);
                let p = cfg.alpha * (-d / (cfg.beta * l_max)).exp();
                if rng.gen_bool(p) {
                    topo.add_edge(u, v, self.sample_edge(rng, d));
                }
            }
        }
        self.repair_connectivity(&mut topo, rng);
        topo
    }

    /// Draw bandwidth and latency for a link spanning distance `d`.
    fn sample_edge(&self, rng: &mut SimRng, d: f64) -> EdgeProps {
        let cfg = &self.config;
        EdgeProps {
            bandwidth_mbps: rng.gen_range(cfg.min_bandwidth_mbps..=cfg.max_bandwidth_mbps),
            latency_ms: cfg.hop_latency_ms + d * cfg.latency_ms_per_unit,
        }
    }

    /// Link every secondary component to the largest component through the geometrically
    /// closest cross-component node pair.
    fn repair_connectivity(&self, topo: &mut Topology, rng: &mut SimRng) {
        loop {
            let (k, comp) = topo.connected_components();
            if k <= 1 {
                return;
            }
            // Identify the largest component.
            let mut sizes = vec![0usize; k];
            for &c in &comp {
                sizes[c] += 1;
            }
            let giant = sizes
                .iter()
                .enumerate()
                .max_by_key(|(_, &s)| s)
                .map(|(i, _)| i)
                .expect("at least one component");
            // For every other component, attach its closest node to the closest giant node.
            let giant_nodes: Vec<NodeId> = (0..topo.node_count())
                .filter(|&u| comp[u] == giant)
                .collect();
            for c in 0..k {
                if c == giant {
                    continue;
                }
                let members: Vec<NodeId> =
                    (0..topo.node_count()).filter(|&u| comp[u] == c).collect();
                let mut best: Option<(f64, NodeId, NodeId)> = None;
                for &u in &members {
                    for &v in &giant_nodes {
                        let d = topo.distance(u, v);
                        if best.is_none_or(|(bd, _, _)| d < bd) {
                            best = Some((d, u, v));
                        }
                    }
                }
                let (d, u, v) = best.expect("both components are non-empty");
                topo.add_edge(u, v, self.sample_edge(rng, d));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(n: usize, seed: u64) -> Topology {
        let mut rng = SimRng::seed_from_u64(seed);
        WaxmanGenerator::new(WaxmanConfig::with_nodes(n)).generate(&mut rng)
    }

    #[test]
    fn generates_requested_node_count() {
        for &n in &[1usize, 2, 10, 100] {
            let t = gen(n, 1);
            assert_eq!(t.node_count(), n);
        }
    }

    #[test]
    fn generated_topology_is_connected() {
        for seed in 0..5 {
            let t = gen(100, seed);
            assert!(
                t.is_connected(),
                "seed {seed} produced a disconnected graph"
            );
        }
    }

    #[test]
    fn bandwidths_respect_table_i_range() {
        let t = gen(150, 9);
        for (_, _, p) in t.edges() {
            assert!(
                (0.1..=10.0).contains(&p.bandwidth_mbps),
                "bandwidth {} outside Table I range",
                p.bandwidth_mbps
            );
            assert!(p.latency_ms >= 1.0, "latency must include the per-hop cost");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = gen(80, 42);
        let b = gen(80, 42);
        assert_eq!(a.edge_count(), b.edge_count());
        let ea: Vec<_> = a
            .edges()
            .map(|(u, v, p)| (u, v, p.bandwidth_mbps.to_bits()))
            .collect();
        let eb: Vec<_> = b
            .edges()
            .map(|(u, v, p)| (u, v, p.bandwidth_mbps.to_bits()))
            .collect();
        assert_eq!(ea, eb);
        let c = gen(80, 43);
        let ec: Vec<_> = c
            .edges()
            .map(|(u, v, p)| (u, v, p.bandwidth_mbps.to_bits()))
            .collect();
        assert_ne!(ea, ec);
    }

    #[test]
    fn higher_alpha_gives_denser_graphs() {
        let mut rng_a = SimRng::seed_from_u64(5);
        let mut rng_b = SimRng::seed_from_u64(5);
        let sparse = WaxmanGenerator::new(WaxmanConfig {
            nodes: 120,
            alpha: 0.05,
            ..WaxmanConfig::default()
        })
        .generate(&mut rng_a);
        let dense = WaxmanGenerator::new(WaxmanConfig {
            nodes: 120,
            alpha: 0.5,
            ..WaxmanConfig::default()
        })
        .generate(&mut rng_b);
        assert!(dense.edge_count() > sparse.edge_count());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        WaxmanGenerator::new(WaxmanConfig {
            alpha: 0.0,
            ..WaxmanConfig::default()
        });
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        let t0 = gen(0, 3);
        assert_eq!(t0.node_count(), 0);
        let t1 = gen(1, 3);
        assert_eq!(t1.edge_count(), 0);
        let t2 = gen(2, 3);
        assert!(t2.is_connected());
    }
}
