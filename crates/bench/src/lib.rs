//! # ccube-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the C-Cubing paper's evaluation
//! (Section 5) plus the Section 6.2 rule-compaction numbers. Each experiment
//! is a function producing a [`report::Figure`]; the `exp` binary prints
//! them as Markdown tables, and the machine-readable experiments write
//! `BENCH_*.json` files (the checked-in `BENCH_plan.json` holds the planner
//! grid, with per-point times and the planner's regret; the README says
//! where each paper claim holds on this implementation).
//!
//! The paper ran on a 3.2 GHz Pentium 4 with 1 GB RAM against up to 1M-tuple
//! datasets; [`ExpOptions::scale`] scales tuple counts (default 0.1 ⇒ 100K
//! where the paper used 1M) so a laptop regenerates every figure in minutes.
//! All timings use a counting sink — computation only, no output I/O — the
//! methodology the paper itself uses for the overhead studies (Section 5.4).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod report;

pub use figures::{all_experiments, ExpOptions};
pub use report::Figure;

use c_cubing::Algorithm;
use ccube_core::measure::CountOnly;
use ccube_core::sink::{CountingSink, SizeSink};
use ccube_core::Table;
use ccube_engine::{EngineConfig, EngineStats};
use std::time::Instant;

/// One timed measurement.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Wall-clock seconds of the cube computation (output disabled).
    pub seconds: f64,
    /// Cells emitted.
    pub cells: u64,
}

/// Time one cube computation (sequential).
pub fn measure(algo: Algorithm, table: &Table, min_sup: u64) -> Measurement {
    measure_threads(algo, table, min_sup, 1)
}

/// Time one cube computation on `threads` worker threads: `1` = the plain
/// sequential [`Algorithm::run_bound_with`] at `bound = 0`; anything else
/// goes through the parallel engine ([`measure_engine_stats`]), with `0`
/// meaning one thread per available CPU.
pub fn measure_threads(
    algo: Algorithm,
    table: &Table,
    min_sup: u64,
    threads: usize,
) -> Measurement {
    if threads != 1 {
        let config = EngineConfig::with_threads(threads);
        return measure_engine_stats(algo, table, min_sup, &config).0;
    }
    let mut sink = CountingSink::default();
    let start = Instant::now();
    algo.run_bound_with(table, 0, min_sup, &CountOnly, &mut sink);
    Measurement {
        seconds: start.elapsed().as_secs_f64(),
        cells: sink.cells,
    }
}

/// Time one cube computation routed through the parallel engine even at
/// `threads = 1` (unlike [`measure_threads`], which treats 1 as pure
/// sequential), returning the run's [`EngineStats`] (task, split and steal
/// counters plus peak/total merge bytes) for the machine-readable benchmark
/// reports. This is the number that shows the engine's own overhead — and
/// the bound-entry-point redundancy elimination — next to the plain
/// sequential run.
pub fn measure_engine_stats(
    algo: Algorithm,
    table: &Table,
    min_sup: u64,
    config: &EngineConfig,
) -> (Measurement, EngineStats) {
    time_engine(algo, table, min_sup, config, true)
}

/// Time one engine run with the shard cubers deliberately ignoring the
/// pre-bound dimensions (every shard recomputes its starred-prefix cells and
/// the [`ccube_engine::ShardedSink`] drops them) — the PR-1 execution shape,
/// kept as the measurable baseline for the redundancy elimination. The
/// sequential fast path is disabled (`always_sharded`): this measurement
/// exists precisely to show the sharded shape's cost.
pub fn measure_engine_unbound(
    algo: Algorithm,
    table: &Table,
    min_sup: u64,
    config: &EngineConfig,
) -> Measurement {
    time_engine(algo, table, min_sup, &config.always_sharded(), false).0
}

/// One cold-start [`ccube_engine::run_partitioned`] run, timed; the shard
/// cubers honour the pre-bound dimensions only when `bound_aware`.
fn time_engine(
    algo: Algorithm,
    table: &Table,
    min_sup: u64,
    config: &EngineConfig,
    bound_aware: bool,
) -> (Measurement, EngineStats) {
    let mut sink = CountingSink::default();
    let start = Instant::now();
    let stats = ccube_engine::run_partitioned(
        table,
        min_sup,
        config,
        algo.is_closed(),
        &CountOnly,
        |shard, bound, m, out| {
            let bound = if bound_aware { bound } else { 0 };
            algo.run_bound_with(shard, bound, m, &CountOnly, out)
        },
        &mut sink,
        None,
    )
    .expect("benchmark run failed");
    (
        Measurement {
            seconds: start.elapsed().as_secs_f64(),
            cells: sink.cells,
        },
        stats,
    )
}

/// Repeated timing samples summarized: median, quartiles and sample count.
/// Every experiment times through [`sample`], so a number it writes carries
/// its spread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Median sample, in seconds.
    pub median: f64,
    /// First quartile, in seconds.
    pub q1: f64,
    /// Third quartile, in seconds.
    pub q3: f64,
    /// Samples taken.
    pub n: usize,
}

impl Timing {
    /// Summarize `samples` (seconds; at least one). Quartiles interpolate
    /// linearly between order statistics.
    pub fn of(samples: &[f64]) -> Timing {
        assert!(!samples.is_empty(), "a timing needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Timing {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            n: sorted.len(),
        }
    }

    /// Interquartile range, in seconds.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// `{"median": s, "n": n, "iqr": s}`, for the `BENCH_*.json` reports.
    pub fn json(&self) -> String {
        format!(
            "{{\"median\": {:.6}, \"n\": {}, \"iqr\": {:.6}}}",
            self.median,
            self.n,
            self.iqr()
        )
    }
}

/// The one sampler: run `run` `n` times, each returning its own measured
/// seconds plus a value, and summarize the seconds. Returns the last
/// sample's value (callers assert values agree across samples where that
/// matters).
pub fn sample<T>(n: usize, mut run: impl FnMut() -> (f64, T)) -> (Timing, T) {
    assert!(n > 0, "a timing needs at least one sample");
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let (s, value) = run();
        secs.push(s);
        last = Some(value);
    }
    (Timing::of(&secs), last.expect("n > 0"))
}

/// [`sample`] for a closure timed as a whole.
pub fn sample_secs(n: usize, mut run: impl FnMut()) -> Timing {
    sample(n, || {
        let start = Instant::now();
        run();
        (start.elapsed().as_secs_f64(), ())
    })
    .0
}

/// Output size in MB of an algorithm's result (for the cube-size figures).
pub fn measure_size(algo: Algorithm, table: &Table, min_sup: u64) -> (f64, u64) {
    let mut sink = SizeSink::default();
    algo.run_bound_with(table, 0, min_sup, &CountOnly, &mut sink);
    (sink.megabytes(), sink.cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_data::SyntheticSpec;

    #[test]
    fn measure_reports_cells_and_time() {
        let t = SyntheticSpec::uniform(200, 3, 5, 0.0, 1).generate();
        let m = measure(Algorithm::CCubingStar, &t, 2);
        assert!(m.cells > 0);
        assert!(m.seconds >= 0.0);
    }

    #[test]
    fn timing_summarizes_median_quartiles_and_count() {
        let t = Timing::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((t.median, t.q1, t.q3, t.n), (3.0, 2.0, 4.0, 5));
        assert_eq!(t.iqr(), 2.0);
        let even = Timing::of(&[1.0, 2.0]);
        assert_eq!(even.median, 1.5);
        let (t, last) = sample(3, {
            let mut k = 0.0;
            move || {
                k += 1.0;
                (k, k as u32)
            }
        });
        assert_eq!((t.median, t.n, last), (2.0, 3, 3));
        assert_eq!(
            t.json(),
            "{\"median\": 2.000000, \"n\": 3, \"iqr\": 1.000000}"
        );
    }

    #[test]
    fn closed_cube_never_larger_than_iceberg() {
        let t = SyntheticSpec::uniform(300, 4, 6, 1.0, 2).generate();
        for min_sup in [1, 2, 4] {
            let (closed_mb, closed_cells) = measure_size(Algorithm::CCubingMm, &t, min_sup);
            let (iceberg_mb, iceberg_cells) = measure_size(Algorithm::Mm, &t, min_sup);
            assert!(closed_cells <= iceberg_cells);
            assert!(closed_mb <= iceberg_mb);
        }
    }

    #[test]
    fn all_algos_agree_on_cell_counts() {
        let t = SyntheticSpec::uniform(250, 4, 5, 0.5, 3).generate();
        let closed: Vec<u64> = [
            Algorithm::QcDfs,
            Algorithm::CCubingMm,
            Algorithm::CCubingStar,
            Algorithm::CCubingStarArray,
        ]
        .iter()
        .map(|a| measure(*a, &t, 2).cells)
        .collect();
        assert!(closed.windows(2).all(|w| w[0] == w[1]), "{closed:?}");
        let iceberg: Vec<u64> = [
            Algorithm::Buc,
            Algorithm::Mm,
            Algorithm::Star,
            Algorithm::StarArray,
        ]
        .iter()
        .map(|a| measure(*a, &t, 2).cells)
        .collect();
        assert!(iceberg.windows(2).all(|w| w[0] == w[1]), "{iceberg:?}");
    }
}
