//! Offline stand-in for the real `criterion` crate.
//!
//! The workspace builds without network access, so this shim provides the subset of the
//! criterion API used by the `p2pgrid-bench` targets: `Criterion`, benchmark groups,
//! `BenchmarkId`, `Bencher::iter`, `black_box` and the `criterion_group!` / `criterion_main!`
//! macros.  Measurement is a plain wall-clock loop — warm-up iterations followed by
//! `sample_size` timed samples, each sample sized so a benchmark stays within
//! `measurement_time` — and results (mean / min / max per iteration) are printed to stdout.
//! There is no statistical analysis, outlier rejection or HTML report; swap the path dependency
//! for the crates.io release to get those, with no call-site changes.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver (configuration holder in this shim).
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            warm_up_time: Duration::from_secs(3),
            measurement_time: Duration::from_secs(5),
            filter: None,
        }
    }
}

impl Criterion {
    /// Number of timed samples collected per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Time spent running the routine before measurement starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Target total measurement time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Apply command-line overrides (this shim honours a single positional name filter).
    pub fn configure_from_args(mut self) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        self.filter = args
            .into_iter()
            .find(|a| !a.starts_with('-') && a != "--bench");
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    fn run_one(&self, name: &str, f: &mut dyn FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            report: None,
        };
        f(&mut bencher);
        match bencher.report {
            Some(r) => println!(
                "bench: {name:<60} {:>12}/iter (min {}, max {}, {} iters)",
                fmt_ns(r.mean_ns),
                fmt_ns(r.min_ns),
                fmt_ns(r.max_ns),
                r.iterations,
            ),
            None => println!("bench: {name:<60} (no measurement: Bencher::iter never called)"),
        }
    }
}

/// A named group of benchmarks sharing the parent driver's configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run a single benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, mut f: F) {
        let name = format!("{}/{}", self.name, id);
        self.criterion.run_one(&name, &mut f);
    }

    /// Run a parameterised benchmark in this group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) {
        let name = format!("{}/{}", self.name, id);
        self.criterion
            .run_one(&name, &mut |b: &mut Bencher| f(b, input));
    }

    /// Close the group (a no-op in this shim; kept for API parity).
    pub fn finish(self) {}
}

/// Identifier of a parameterised benchmark, rendered as `function/parameter`.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// A function name plus a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            text: format!("{}/{}", function.into(), parameter),
        }
    }

    /// A parameter value alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

struct Report {
    mean_ns: f64,
    min_ns: f64,
    max_ns: f64,
    iterations: u64,
}

/// Handle passed to benchmark closures; time a routine with [`Bencher::iter`].
pub struct Bencher {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    report: Option<Report>,
}

impl Bencher {
    /// Measure `routine`: warm up, pick an iteration count per sample that fits the configured
    /// measurement time, then record `sample_size` samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run until the warm-up budget elapses (at least once) and estimate the cost
        // of one iteration.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            black_box(routine());
            warm_iters += 1;
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Size each sample so that sample_size samples fit the measurement budget.
        let budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample = ((budget / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        let mut total_iters = 0u64;
        let mut sum_ns = 0.0f64;
        let mut min_ns = f64::INFINITY;
        let mut max_ns = 0.0f64;
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let ns = t0.elapsed().as_nanos() as f64 / iters_per_sample as f64;
            sum_ns += ns;
            min_ns = min_ns.min(ns);
            max_ns = max_ns.max(ns);
            total_iters += iters_per_sample;
        }
        self.report = Some(Report {
            mean_ns: sum_ns / self.sample_size as f64,
            min_ns,
            max_ns,
            iterations: total_iters,
        });
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Define a benchmark group: either `criterion_group!(name, target, ...)` or the long form with
/// `name = ...; config = ...; targets = ...`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default().configure_from_args();
            targets = $($target),+
        }
    };
}

/// Define the benchmark binary's `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_produces_a_report() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut group = c.benchmark_group("shim");
        group.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        group.bench_with_input(BenchmarkId::new("add", 4), &4u64, |b, &x| {
            b.iter(|| black_box(x + 1))
        });
        group.finish();
    }

    #[test]
    fn benchmark_id_renders_like_criterion() {
        assert_eq!(BenchmarkId::new("f", 10).to_string(), "f/10");
        assert_eq!(BenchmarkId::from_parameter("DSMF").to_string(), "DSMF");
    }
}
