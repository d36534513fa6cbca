//! Random workflow generation (Table I) and canonical workflow shapes.

use crate::dag::{Task, TaskId, Workflow, WorkflowBuilder, WorkflowError};
use p2pgrid_sim::SimRng;
use std::ops::RangeInclusive;

/// Parameter ranges for the random workflow generator, defaulting to Table I of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowGeneratorConfig {
    /// Number of (real) tasks per workflow.  Table I: 2–30.
    pub tasks: RangeInclusive<u32>,
    /// Fan-out degree of each task.  §IV.A: one to five.
    pub fanout: RangeInclusive<u32>,
    /// Computational load per task in MI.  Table I: 100–10 000.
    pub load_mi: RangeInclusive<f64>,
    /// Program image size per task in Mb.  Table I: 10–100.
    pub image_size_mb: RangeInclusive<f64>,
    /// Dependent data size per edge in Mb.  Table I: 100–10 000.
    pub data_mb: RangeInclusive<f64>,
}

impl Default for WorkflowGeneratorConfig {
    fn default() -> Self {
        WorkflowGeneratorConfig {
            tasks: 2..=30,
            fanout: 1..=5,
            load_mi: 100.0..=10_000.0,
            image_size_mb: 10.0..=100.0,
            data_mb: 100.0..=10_000.0,
        }
    }
}

impl WorkflowGeneratorConfig {
    /// The configuration used by the CCR experiments (Fig. 9/10): override the load and data
    /// ranges while keeping everything else at the Table I defaults.
    pub fn with_load_and_data(load_mi: RangeInclusive<f64>, data_mb: RangeInclusive<f64>) -> Self {
        WorkflowGeneratorConfig {
            load_mi,
            data_mb,
            ..WorkflowGeneratorConfig::default()
        }
    }

    /// Check every parameter range for emptiness/reversal and sign, returning a typed error
    /// instead of panicking (callers in `p2pgrid-core` surface this through `ConfigError`).
    pub fn validate(&self) -> Result<(), WorkflowError> {
        let invalid = |msg: String| Err(WorkflowError::InvalidParameter(msg));
        if *self.tasks.start() < 1 {
            return invalid("workflow task count range must start at 1 or more".into());
        }
        if self.tasks.is_empty() {
            return invalid(format!("empty/reversed task count range {:?}", self.tasks));
        }
        if *self.fanout.start() < 1 {
            return invalid("fan-out range must start at 1 or more".into());
        }
        if self.fanout.is_empty() {
            return invalid(format!("empty/reversed fan-out range {:?}", self.fanout));
        }
        let float_range = |name: &str, r: &RangeInclusive<f64>, min_start: f64| {
            if !r.start().is_finite() || !r.end().is_finite() {
                return invalid(format!("{name} range must be finite, got {r:?}"));
            }
            if *r.start() < min_start {
                return invalid(format!(
                    "{name} range must start at {min_start} or more, got {r:?}"
                ));
            }
            if r.start() > r.end() {
                return invalid(format!("empty/reversed {name} range {r:?}"));
            }
            Ok(())
        };
        float_range("load_mi", &self.load_mi, f64::MIN_POSITIVE)?;
        float_range("image_size_mb", &self.image_size_mb, 0.0)?;
        float_range("data_mb", &self.data_mb, 0.0)?;
        Ok(())
    }
}

/// Random workflow generator.
///
/// Tasks are generated in a fixed order `0..n` and every dependency edge points from a lower to
/// a higher index, which guarantees acyclicity by construction.  Each task is given a fan-out
/// within the configured range (clipped by the number of remaining downstream tasks), and every
/// non-first task that ends up without a precedent is connected to a random earlier task so that
/// the DAG is weakly connected before normalisation.
#[derive(Debug, Clone)]
pub struct WorkflowGenerator {
    config: WorkflowGeneratorConfig,
}

impl WorkflowGenerator {
    /// Create a generator for the given configuration.
    ///
    /// Panics on an invalid configuration; call [`WorkflowGeneratorConfig::validate`] first to
    /// get a typed error instead (as `Scenario::build` does).
    pub fn new(config: WorkflowGeneratorConfig) -> Self {
        config
            .validate()
            .expect("invalid workflow generator configuration");
        WorkflowGenerator { config }
    }

    /// The generator configuration.
    pub fn config(&self) -> &WorkflowGeneratorConfig {
        &self.config
    }

    /// Generate one workflow.
    pub fn generate(&self, rng: &mut SimRng) -> Workflow {
        let cfg = &self.config;
        let n = rng.gen_range(cfg.tasks.clone()) as usize;
        let mut builder = WorkflowBuilder::new();
        let ids: Vec<TaskId> = (0..n)
            .map(|_| {
                builder.add_task(Task::new(
                    rng.gen_range(cfg.load_mi.clone()),
                    rng.gen_range(cfg.image_size_mb.clone()),
                ))
            })
            .collect();

        let mut has_pred = vec![false; n];
        let mut edges: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
        for i in 0..n.saturating_sub(1) {
            let remaining = n - i - 1;
            let fanout = (rng.gen_range(cfg.fanout.clone()) as usize).min(remaining);
            // Choose `fanout` distinct successors among the downstream tasks.
            let downstream: Vec<usize> = ((i + 1)..n).collect();
            for &j in rng.choose_multiple(&downstream, fanout) {
                if edges.insert((i, j)) {
                    builder.add_dependency(ids[i], ids[j], rng.gen_range(cfg.data_mb.clone()));
                    has_pred[j] = true;
                }
            }
        }
        // Connect orphan tasks (other than task 0) to a random earlier task.
        for j in 1..n {
            if !has_pred[j] {
                let i = rng.gen_range(0..j);
                if edges.insert((i, j)) {
                    builder.add_dependency(ids[i], ids[j], rng.gen_range(cfg.data_mb.clone()));
                }
            }
        }
        builder
            .build()
            .expect("generated workflows are acyclic by construction")
    }

    /// Generate a batch of `count` workflows.
    pub fn generate_batch(&self, count: usize, rng: &mut SimRng) -> Vec<Workflow> {
        (0..count).map(|_| self.generate(rng)).collect()
    }
}

/// Canonical, hand-shaped workflows used by examples, tests and the quickstart.
pub mod shapes {
    use super::*;

    /// A linear pipeline of `n` stages.
    pub fn chain(n: usize, load_mi: f64, data_mb: f64) -> Workflow {
        assert!(n >= 1);
        let mut b = WorkflowBuilder::new();
        let ids: Vec<TaskId> = (0..n)
            .map(|i| b.add_task(Task::named(format!("stage{i}"), load_mi, 10.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_dependency(w[0], w[1], data_mb);
        }
        b.build().unwrap()
    }

    /// A fork-join: one source fans out to `width` parallel workers that all join into a sink.
    pub fn fork_join(width: usize, load_mi: f64, data_mb: f64) -> Workflow {
        assert!(width >= 1);
        let mut b = WorkflowBuilder::new();
        let src = b.add_task(Task::named("split", load_mi / 10.0, 10.0));
        let sink = b.add_task(Task::named("merge", load_mi / 10.0, 10.0));
        for i in 0..width {
            let w = b.add_task(Task::named(format!("worker{i}"), load_mi, 10.0));
            b.add_dependency(src, w, data_mb);
            b.add_dependency(w, sink, data_mb);
        }
        b.build().unwrap()
    }

    /// A two-level "diamond": entry, two middle tasks of different weight, exit.
    pub fn diamond(light_mi: f64, heavy_mi: f64, data_mb: f64) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let entry = b.add_task(Task::named("entry", light_mi / 2.0, 10.0));
        let light = b.add_task(Task::named("light", light_mi, 10.0));
        let heavy = b.add_task(Task::named("heavy", heavy_mi, 10.0));
        let exit = b.add_task(Task::named("exit", light_mi / 2.0, 10.0));
        b.add_dependency(entry, light, data_mb);
        b.add_dependency(entry, heavy, data_mb);
        b.add_dependency(light, exit, data_mb);
        b.add_dependency(heavy, exit, data_mb);
        b.build().unwrap()
    }

    /// A small Montage-like astronomy workflow: re-projection fan-out, pairwise background
    /// fitting, then a final mosaic — the classic motivating workload for grid workflow papers.
    pub fn montage_like(width: usize, load_mi: f64, data_mb: f64) -> Workflow {
        assert!(width >= 2);
        let mut b = WorkflowBuilder::new();
        let stage_in = b.add_task(Task::named("stage-in", load_mi / 10.0, 20.0));
        let projections: Vec<TaskId> = (0..width)
            .map(|i| b.add_task(Task::named(format!("mProject{i}"), load_mi, 30.0)))
            .collect();
        for &p in &projections {
            b.add_dependency(stage_in, p, data_mb / 2.0);
        }
        let diffs: Vec<TaskId> = (0..width - 1)
            .map(|i| b.add_task(Task::named(format!("mDiffFit{i}"), load_mi / 2.0, 20.0)))
            .collect();
        for (i, &d) in diffs.iter().enumerate() {
            b.add_dependency(projections[i], d, data_mb);
            b.add_dependency(projections[i + 1], d, data_mb);
        }
        let model = b.add_task(Task::named("mBgModel", load_mi * 2.0, 20.0));
        for &d in &diffs {
            b.add_dependency(d, model, data_mb / 4.0);
        }
        let mosaic = b.add_task(Task::named("mAdd", load_mi * 3.0, 50.0));
        for &p in &projections {
            b.add_dependency(p, mosaic, data_mb);
        }
        b.add_dependency(model, mosaic, data_mb / 4.0);
        b.build().unwrap()
    }

    /// A CyberShake-like seismic-hazard workflow: per-site SGT extraction fans out into
    /// `synthesis_per_site` seismogram-synthesis tasks each, every synthesis feeds a cheap
    /// peak-value calculation, and everything merges into one zip/aggregation sink.  CyberShake
    /// is the canonical *data-heavy, shallow* fan-out/fan-in workload (edges carry much more
    /// data than Montage).
    pub fn cybershake_like(
        sites: usize,
        synthesis_per_site: usize,
        load_mi: f64,
        data_mb: f64,
    ) -> Workflow {
        assert!(sites >= 1 && synthesis_per_site >= 1);
        let mut b = WorkflowBuilder::new();
        let preprocess = b.add_task(Task::named("preCVM", load_mi / 5.0, 20.0));
        let zip = b.add_task(Task::named("zipPSA", load_mi / 2.0, 30.0));
        for s in 0..sites {
            let extract = b.add_task(Task::named(format!("extractSGT{s}"), load_mi, 40.0));
            b.add_dependency(preprocess, extract, data_mb / 4.0);
            for k in 0..synthesis_per_site {
                let synth = b.add_task(Task::named(
                    format!("seisSynth{s}_{k}"),
                    load_mi * 2.0,
                    30.0,
                ));
                let peak = b.add_task(Task::named(format!("peakVal{s}_{k}"), load_mi / 10.0, 10.0));
                b.add_dependency(extract, synth, data_mb);
                b.add_dependency(synth, peak, data_mb / 10.0);
                b.add_dependency(peak, zip, data_mb / 20.0);
            }
        }
        b.build().unwrap()
    }

    /// An Epigenomics-like genome-sequencing workflow: `lanes` independent deep pipelines
    /// (split → filter → convert → map) whose mapped reads fan in to a merge, followed by a
    /// short indexing/pileup tail.  Epigenomics is the canonical *compute-heavy, deep-chain*
    /// workload with a single global fan-in.
    pub fn epigenomics_like(lanes: usize, load_mi: f64, data_mb: f64) -> Workflow {
        assert!(lanes >= 1);
        let mut b = WorkflowBuilder::new();
        let split = b.add_task(Task::named("fastqSplit", load_mi / 10.0, 20.0));
        let merge = b.add_task(Task::named("mapMerge", load_mi / 2.0, 20.0));
        for l in 0..lanes {
            let filter = b.add_task(Task::named(
                format!("filterContams{l}"),
                load_mi / 2.0,
                15.0,
            ));
            let convert = b.add_task(Task::named(format!("sol2sanger{l}"), load_mi / 4.0, 15.0));
            let tobfq = b.add_task(Task::named(format!("fastq2bfq{l}"), load_mi / 4.0, 15.0));
            let map = b.add_task(Task::named(format!("map{l}"), load_mi * 4.0, 40.0));
            b.add_dependency(split, filter, data_mb);
            b.add_dependency(filter, convert, data_mb / 2.0);
            b.add_dependency(convert, tobfq, data_mb / 2.0);
            b.add_dependency(tobfq, map, data_mb / 2.0);
            b.add_dependency(map, merge, data_mb / 4.0);
        }
        let index = b.add_task(Task::named("maqIndex", load_mi, 20.0));
        let pileup = b.add_task(Task::named("pileup", load_mi * 2.0, 20.0));
        b.add_dependency(merge, index, data_mb / 4.0);
        b.add_dependency(index, pileup, data_mb / 4.0);
        b.build().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn generated_task_count_and_parameters_follow_table_i() {
        let gen = WorkflowGenerator::new(WorkflowGeneratorConfig::default());
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            let w = gen.generate(&mut rng);
            let real: Vec<_> = w
                .task_ids()
                .map(|t| w.task(t).clone())
                .filter(|t| !t.is_virtual())
                .collect();
            assert!((2..=30).contains(&real.len()), "task count {}", real.len());
            for t in &real {
                assert!((100.0..=10_000.0).contains(&t.load_mi));
                assert!((10.0..=100.0).contains(&t.image_size_mb));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let gen = WorkflowGenerator::new(WorkflowGeneratorConfig::default());
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        for _ in 0..10 {
            let wa = gen.generate(&mut a);
            let wb = gen.generate(&mut b);
            assert_eq!(wa.task_count(), wb.task_count());
            assert_eq!(wa.edge_count(), wb.edge_count());
            assert_eq!(wa.total_load_mi(), wb.total_load_mi());
        }
    }

    #[test]
    fn batch_generation_produces_requested_count() {
        let gen = WorkflowGenerator::new(WorkflowGeneratorConfig::default());
        let mut rng = SimRng::seed_from_u64(4);
        assert_eq!(gen.generate_batch(25, &mut rng).len(), 25);
    }

    #[test]
    fn ccr_config_shifts_communication_ratio() {
        let mut rng = SimRng::seed_from_u64(7);
        let compute_heavy = WorkflowGenerator::new(WorkflowGeneratorConfig::with_load_and_data(
            1000.0..=10_000.0,
            10.0..=100.0,
        ));
        let data_heavy = WorkflowGenerator::new(WorkflowGeneratorConfig::with_load_and_data(
            10.0..=100.0,
            1000.0..=10_000.0,
        ));
        let avg_ccr = |g: &WorkflowGenerator, rng: &mut SimRng| {
            (0..30).map(|_| g.generate(rng).ccr(6.2, 5.0)).sum::<f64>() / 30.0
        };
        let low = avg_ccr(&compute_heavy, &mut rng);
        let high = avg_ccr(&data_heavy, &mut rng);
        assert!(
            high > low * 10.0,
            "CCR should rise sharply with data size: {low} vs {high}"
        );
    }

    #[test]
    fn shapes_have_expected_structure() {
        let c = shapes::chain(5, 100.0, 10.0);
        assert_eq!(c.task_count(), 5);
        assert_eq!(c.edge_count(), 4);
        let fanout = |w: &Workflow| w.task_ids().map(|t| w.successors(t).len()).max();
        assert_eq!(fanout(&c), Some(1));

        let fj = shapes::fork_join(4, 100.0, 10.0);
        assert_eq!(fj.task_count(), 6);
        assert_eq!(fj.edge_count(), 8);
        assert_eq!(fanout(&fj), Some(4));

        let d = shapes::diamond(10.0, 1000.0, 5.0);
        assert_eq!(d.task_count(), 4);

        let m = shapes::montage_like(4, 500.0, 100.0);
        assert!(m.task_count() >= 10);
        assert!(m.edge_count() >= 14);
        // Montage has a single stage-in entry and a single mosaic exit, so no virtual tasks.
        assert!(!m.task(m.entry()).is_virtual());
        assert!(!m.task(m.exit()).is_virtual());
    }

    #[test]
    fn validate_rejects_bad_ranges_with_typed_errors() {
        let ok = WorkflowGeneratorConfig::default();
        assert!(ok.validate().is_ok());

        let reject = |mutate: fn(&mut WorkflowGeneratorConfig)| {
            let mut cfg = WorkflowGeneratorConfig::default();
            mutate(&mut cfg);
            assert!(
                matches!(cfg.validate(), Err(WorkflowError::InvalidParameter(_))),
                "{cfg:?} should be rejected"
            );
        };
        reject(|c| c.tasks = 0..=5); // zero task count
        #[allow(clippy::reversed_empty_ranges)]
        reject(|c| c.tasks = 10..=2); // reversed task range
        reject(|c| c.fanout = 0..=3);
        #[allow(clippy::reversed_empty_ranges)]
        reject(|c| c.fanout = 5..=1);
        reject(|c| c.load_mi = 0.0..=100.0); // zero load
        #[allow(clippy::reversed_empty_ranges)]
        reject(|c| c.load_mi = 100.0..=10.0); // reversed load range
        reject(|c| c.load_mi = 1.0..=f64::INFINITY);
        reject(|c| c.image_size_mb = -1.0..=5.0);
        #[allow(clippy::reversed_empty_ranges)]
        reject(|c| c.data_mb = 100.0..=10.0); // reversed data range
        reject(|c| c.data_mb = f64::NAN..=10.0);
    }

    #[test]
    fn cybershake_and_epigenomics_shapes_have_expected_structure() {
        let cs = shapes::cybershake_like(2, 2, 1000.0, 500.0);
        // preCVM + zipPSA + 2×(extractSGT + 2×(synth + peak)) = 12, no virtual tasks needed.
        assert_eq!(cs.task_count(), 12);
        assert!(!cs.task(cs.entry()).is_virtual());
        assert!(!cs.task(cs.exit()).is_virtual());
        assert_eq!(cs.task(cs.entry()).name.as_deref(), Some("preCVM"));
        assert_eq!(cs.task(cs.exit()).name.as_deref(), Some("zipPSA"));

        let epi = shapes::epigenomics_like(3, 1000.0, 500.0);
        // split + merge + 3×4 lane tasks + index + pileup = 16.
        assert_eq!(epi.task_count(), 16);
        assert_eq!(epi.task(epi.entry()).name.as_deref(), Some("fastqSplit"));
        assert_eq!(epi.task(epi.exit()).name.as_deref(), Some("pileup"));
        // Deep chains: the critical path is long relative to the width.
        assert!(epi.topological_order().len() == 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every generated workflow is a valid DAG with fan-out within the configured range
        /// (virtual entry/exit tasks excepted) and a consistent topological order.
        #[test]
        fn prop_generated_workflows_are_well_formed(seed in 0u64..10_000) {
            let gen = WorkflowGenerator::new(WorkflowGeneratorConfig::default());
            let mut rng = SimRng::seed_from_u64(seed);
            let w = gen.generate(&mut rng);
            // Fan-out bound: real tasks have at most 5 successors... plus possibly edges added
            // to adopt orphan tasks, which can only add one extra successor per orphan.  The
            // paper's bound applies to the generator's intent; we check a slightly relaxed bound.
            for t in w.task_ids() {
                if !w.task(t).is_virtual() {
                    prop_assert!(w.successors(t).len() <= 5 + w.task_count());
                }
                for e in w.successors(t) {
                    prop_assert!((100.0..=10_000.0).contains(&e.data_mb) || e.data_mb == 0.0);
                }
            }
            // Topological order covers every task exactly once.
            let order = w.topological_order();
            prop_assert_eq!(order.len(), w.task_count());
            let unique: std::collections::HashSet<_> = order.iter().collect();
            prop_assert_eq!(unique.len(), w.task_count());
        }
    }
}
