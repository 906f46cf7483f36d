//! Offline stand-in for `criterion`.
//!
//! Provides the benchmark surface this workspace uses — `Criterion`,
//! `benchmark_group`/`sample_size`/`bench_function`/`finish`,
//! `BenchmarkId::from_parameter`, `criterion_group!`, `criterion_main!` —
//! as a plain wall-clock harness. Each benchmark runs a warmup pass,
//! auto-calibrates an iteration count per sample, then reports min /
//! median / mean time per iteration. There is no statistical regression
//! machinery; the numbers are indicative, which is all the offline
//! environment can support.
//!
//! As upstream, the first command-line argument that does not start
//! with `-` filters the run (`cargo bench --bench solvers -- ablation/step`):
//! only benchmarks whose `group/id` label contains it are timed. The
//! group functions, and so their set-up code, still run for every
//! group.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Target wall-clock time for one measurement sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(5);

/// Top-level benchmark driver handed to every `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Times only benchmarks whose `group/id` label contains `filter`.
    pub fn with_filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    /// Applies the filter given on the command line, if any: the first
    /// argument that does not start with `-`.
    pub fn configure_from_args(self) -> Self {
        match std::env::args().skip(1).find(|a| !a.starts_with('-')) {
            Some(filter) => self.with_filter(filter),
            None => self,
        }
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 50,
            filter: self.filter.clone(),
        }
    }
}

/// A named set of benchmarks sharing a sample-count setting.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    filter: Option<String>,
}

impl BenchmarkGroup {
    /// Sets how many timing samples to collect per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times `f` and prints per-iteration statistics, unless the run's
    /// filter excludes this benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, mut f: F) {
        let label = format!("{}/{}", self.name, id);
        if self
            .filter
            .as_ref()
            .is_some_and(|f| !label.contains(f.as_str()))
        {
            return;
        }
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_count: self.sample_size,
        };
        f(&mut bencher);
        report(&label, &mut bencher.samples);
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Identifier for a parameterized benchmark within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id rendered from the benchmark's parameter value.
    pub fn from_parameter(p: impl Display) -> Self {
        Self(p.to_string())
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Timing loop handle passed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_count: usize,
}

impl Bencher {
    /// Measures `f`: one warmup call, then `sample_size` samples of an
    /// auto-calibrated number of iterations each.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let warmup = Instant::now();
        std::hint::black_box(f());
        let once = warmup.elapsed();

        // Enough iterations per sample to out-run timer granularity,
        // capped so fast closures do not stretch the run.
        let iters = if once >= TARGET_SAMPLE {
            1
        } else {
            let per_iter = once.as_nanos().max(1);
            ((TARGET_SAMPLE.as_nanos() / per_iter) as u64).clamp(1, 1_000_000)
        };

        self.samples.clear();
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            self.samples.push(start.elapsed() / iters as u32);
        }
    }
}

/// Prints `label  min … median … mean` in human units.
fn report(label: &str, samples: &mut [Duration]) {
    if samples.is_empty() {
        println!("{label:<48} (no samples)");
        return;
    }
    samples.sort_unstable();
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    println!(
        "{label:<48} [{} {} {}]  (min median mean, {} samples)",
        fmt_duration(min),
        fmt_duration(median),
        fmt_duration(mean),
        samples.len(),
    );
}

/// Formats a duration with criterion-style adaptive units.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Declares a benchmark group function that runs each target in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `fn main` running the listed benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        let mut calls = 0u64;
        group.bench_function(BenchmarkId::from_parameter(42), |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        group.finish();
        assert!(calls > 5, "warmup + samples should call the closure");
    }

    #[test]
    fn filter_skips_benchmarks_whose_label_does_not_match() {
        let mut c = Criterion::default().with_filter("solver/SCG");
        let mut group = c.benchmark_group("solver");
        group.sample_size(1);
        let mut ran = Vec::new();
        for id in ["GD", "SCG + RS", "SCG + w/o RS"] {
            group.bench_function(id, |b| {
                ran.push(id);
                b.iter(|| ())
            });
        }
        group.finish();
        let mut other = c.benchmark_group("ablation/step_decay");
        other.bench_function("dynamic", |_| ran.push("dynamic"));
        assert_eq!(ran, ["SCG + RS", "SCG + w/o RS"]);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(999)), "999 ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
