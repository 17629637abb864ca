//! Offline shim for the `criterion` benchmark harness.
//!
//! The build environment has no crates.io access, so this crate implements
//! the slice of criterion's API that the `hpf-bench` bench targets use:
//! `Criterion::benchmark_group`, the group's `sample_size`/`bench_function`/
//! `bench_with_input`/`finish`, `Bencher::iter`, `BenchmarkId::new`,
//! `black_box`, and the `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement is deliberately lightweight: each benchmark is warmed up
//! briefly, then timed over a bounded wall-clock budget, and the mean
//! time per iteration is printed. That keeps `cargo test` (which runs
//! `harness = false` bench targets in test mode) fast while still giving
//! `cargo bench` meaningful relative numbers. When the binary is invoked
//! with `--test` (what cargo passes in test mode) every benchmark body is
//! executed exactly once, mirroring real criterion's smoke-test behavior.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

/// An opaque identity function that prevents the optimizer from deleting
/// the benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// A benchmark identifier composed of a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("sort", 1024)` → `sort/1024`.
    pub fn new<S: fmt::Display, P: fmt::Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId { id: format!("{function_name}/{parameter}") }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Anything accepted as a benchmark name.
pub trait IntoBenchmarkId {
    /// Render to the printed identifier.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// The timing context handed to each benchmark closure.
pub struct Bencher {
    /// Wall-clock budget for the measurement loop.
    budget: Duration,
    /// When true, run the body exactly once (cargo test smoke mode).
    smoke: bool,
    /// (iterations, total time) recorded by the last `iter*` call.
    result: Option<(u64, Duration)>,
}

impl Bencher {
    /// Time a routine over repeated calls.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        if self.smoke {
            black_box(routine());
            self.result = Some((1, Duration::ZERO));
            return;
        }
        // warm-up + calibration: one call to make sure it terminates
        let start = Instant::now();
        black_box(routine());
        let first = start.elapsed();
        let mut iters: u64 = 1;
        let mut total = first;
        while total < self.budget && iters < 1_000_000 {
            let t = Instant::now();
            black_box(routine());
            total += t.elapsed();
            iters += 1;
        }
        self.result = Some((iters, total));
    }
}

fn run_one(label: &str, smoke: bool, budget: Duration, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher { budget, smoke, result: None };
    f(&mut b);
    match b.result {
        Some((iters, total)) if !smoke && iters > 0 => {
            let per = total.as_nanos() / iters as u128;
            println!("bench {label:<40} {per:>12} ns/iter ({iters} iters)");
        }
        _ => println!("bench {label:<40} ok (test mode)"),
    }
}

/// The benchmark manager (a pale but API-compatible imitation of
/// criterion's).
pub struct Criterion {
    smoke: bool,
    budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // cargo runs `harness = false` targets with `--test` under
        // `cargo test`; honor it like real criterion does. An explicit
        // env var lets CI force quick mode under `cargo bench` too.
        let smoke = std::env::args().any(|a| a == "--test")
            || std::env::var_os("CRITERION_SMOKE").is_some();
        Criterion { smoke, budget: Duration::from_millis(25) }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group<N: IntoBenchmarkId>(&mut self, name: N) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into_id(),
            smoke: self.smoke,
            budget: self.budget,
            _marker: std::marker::PhantomData,
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    name: String,
    smoke: bool,
    budget: Duration,
    // tie the group to the Criterion borrow like the real API does
    _marker: std::marker::PhantomData<&'a mut Criterion>,
}

impl<'a> BenchmarkGroup<'a> {
    /// Accepted for API compatibility; the shim is budget-based.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Run one benchmark inside the group.
    pub fn bench_function<N, F>(&mut self, id: N, mut f: F) -> &mut Self
    where
        N: IntoBenchmarkId,
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_id());
        run_one(&label, self.smoke, self.budget, &mut f);
        self
    }

    /// Run one parameterized benchmark inside the group.
    pub fn bench_with_input<N, I, F>(&mut self, id: N, input: &I, mut f: F) -> &mut Self
    where
        N: IntoBenchmarkId,
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into_id());
        run_one(&label, self.smoke, self.budget, &mut |b| f(b, input));
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Define a function that runs the listed benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Define `main` to run the listed groups.
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
    fn bencher_counts_iterations() {
        let mut c = Criterion { smoke: false, budget: Duration::from_millis(2) };
        let mut calls = 0u64;
        let mut g = c.benchmark_group("g");
        g.bench_function("calls", |b| b.iter(|| calls += 1));
        assert!(calls > 0);
        g.sample_size(10)
            .bench_with_input(BenchmarkId::new("sum", 4), &4u64, |b, &n| {
                b.iter(|| (0..n).sum::<u64>())
            });
        g.finish();
    }

    #[test]
    fn smoke_mode_runs_once() {
        let mut c = Criterion { smoke: true, budget: Duration::from_millis(100) };
        let mut calls = 0u64;
        let mut g = c.benchmark_group("g");
        g.bench_function("once", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 1);
        g.finish();
    }
}
