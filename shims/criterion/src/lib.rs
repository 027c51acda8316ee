//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API surface this workspace's benches use — `Criterion`,
//! `BenchmarkGroup`, `BenchmarkId`, `Throughput`, `Bencher::iter`, and the
//! `criterion_group!` / `criterion_main!` macros, without the statistical
//! machinery of real criterion.
//!
//! Each benchmark takes `sample_size` samples (10 unless a group sets it).
//! A sample times a batch of iterations that lasts at least 10 ms, with
//! the batch size found by doubling, and the row
//! prints the best and the median ns/iter over the samples. The best is
//! the reading to compare across builds on a noisy host. With `--test` on
//! the command line (`cargo bench -- --test`), each benchmark runs its
//! closure once and prints no timing: a compile-and-run smoke check.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box` (some benches import the std
/// version directly; both work).
pub use std::hint::black_box;

/// Samples per benchmark unless a group sets `sample_size`.
const DEFAULT_SAMPLES: usize = 10;

/// The shortest time one sample's batch of iterations may take.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    /// Run each closure once, untimed (`--test`).
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            test_mode: std::env::args().any(|a| a == "--test"),
        }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.to_string(),
            _throughput: None,
            samples: DEFAULT_SAMPLES,
            test_mode: self.test_mode,
        }
    }

    /// Run a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(id, Bencher::new(DEFAULT_SAMPLES, self.test_mode), &mut f);
        self
    }
}

/// A group of benchmarks sharing a name prefix.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    _throughput: Option<Throughput>,
    samples: usize,
    test_mode: bool,
}

impl BenchmarkGroup {
    /// Record the input size (ignored beyond storage).
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self._throughput = Some(t);
        self
    }

    /// Set the number of samples each benchmark of the group takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "a benchmark needs at least one sample");
        self.samples = n;
        self
    }

    /// Benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.0);
        run_one(
            &label,
            Bencher::new(self.samples, self.test_mode),
            &mut |b| f(b, input),
        );
        self
    }

    /// Benchmark without an input parameter.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into().0);
        run_one(&label, Bencher::new(self.samples, self.test_mode), &mut f);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// A benchmark identifier (`name/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Function name plus parameter.
    pub fn new(name: &str, parameter: impl Display) -> Self {
        Self(format!("{name}/{parameter}"))
    }

    /// Parameter-only identifier.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self(s)
    }
}

/// Input-size annotation.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// The per-benchmark timing harness handed to closures.
#[derive(Debug, Default)]
pub struct Bencher {
    /// Samples to take; 0 runs the closure once, untimed.
    samples: usize,
    /// Iterations per sample; 0 until [`Bencher::iter`] runs.
    iters: u64,
    /// Each sample's time per iteration, in ns.
    per_iter: Vec<f64>,
}

impl Bencher {
    fn new(samples: usize, test_mode: bool) -> Self {
        Self {
            samples: if test_mode { 0 } else { samples },
            ..Self::default()
        }
    }

    /// Time `f`: find a batch size whose run lasts at least 10 ms, then time
    /// `samples` batches of it.
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        if self.samples == 0 {
            black_box(f());
            self.iters = 1;
            return;
        }
        let mut batch = |iters: u64| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed()
        };
        let mut iters = 1;
        while batch(iters) < SAMPLE_TARGET {
            iters *= 2;
        }
        self.iters = iters;
        self.per_iter = (0..self.samples)
            .map(|_| batch(iters).as_nanos() as f64 / iters as f64)
            .collect();
    }
}

/// The best and the median of `samples` (the mean of the middle two for an
/// even count).
fn best_and_median(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    (samples[0], (samples[(n - 1) / 2] + samples[n / 2]) / 2.0)
}

fn run_one(label: &str, mut b: Bencher, f: &mut dyn FnMut(&mut Bencher)) {
    f(&mut b);
    if b.iters == 0 {
        println!("bench {label}: no iterations recorded");
    } else if b.per_iter.is_empty() {
        println!("bench {label}: ran once (--test)");
    } else {
        let (best, median) = best_and_median(&mut b.per_iter);
        println!(
            "bench {label}: best {best:.0} ns/iter, median {median:.0} ns/iter ({} samples of {} iters)",
            b.per_iter.len(),
            b.iters
        );
    }
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Entry point running the given groups.
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
    fn bench_function_takes_the_default_samples() {
        let mut c = Criterion { test_mode: false };
        let mut ran = 0usize;
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        assert!(ran >= 2 * DEFAULT_SAMPLES);
    }

    #[test]
    fn sample_size_sets_the_samples_taken() {
        let mut group = Criterion { test_mode: false }.benchmark_group("g");
        let mut b = Bencher::new(group.samples, false);
        b.iter(|| 1 + 1);
        assert_eq!(b.per_iter.len(), DEFAULT_SAMPLES);
        group.sample_size(3);
        let mut b = Bencher::new(group.samples, false);
        b.iter(|| std::thread::sleep(SAMPLE_TARGET));
        assert_eq!((b.per_iter.len(), b.iters), (3, 1));
    }

    #[test]
    fn test_mode_runs_each_closure_once() {
        let mut c = Criterion { test_mode: true };
        let mut ran = 0u32;
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        let mut group = c.benchmark_group("g");
        group.sample_size(20);
        group.bench_function("id", |b| b.iter(|| ran += 1));
        group.finish();
        assert_eq!(ran, 2);
    }

    #[test]
    fn best_and_median_of_odd_and_even_counts() {
        assert_eq!(best_and_median(&mut [5.0, 1.0, 3.0]), (1.0, 3.0));
        assert_eq!(best_and_median(&mut [4.0, 1.0, 3.0, 2.0]), (1.0, 2.5));
        assert_eq!(best_and_median(&mut [7.0]), (7.0, 7.0));
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion { test_mode: true };
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(4));
        group.sample_size(10);
        let input = vec![1.0f64; 4];
        group.bench_with_input(BenchmarkId::new("sum", 4), &input, |b, v| {
            b.iter(|| v.iter().sum::<f64>())
        });
        group.bench_function("id", |b| b.iter(|| 1 + 1));
        group.finish();
    }
}
